//! **Figure 1** — "Processing of a System Call Requiring Foreign Service".
//!
//! Traces a read system call issued at a using site for a remotely stored
//! file, and renders the requesting-site / serving-site timeline the paper
//! draws: initial system-call processing, message setup, the network
//! crossing, message analysis and system-call continuation at the serving
//! site, the return message, and completion.
//!
//! Run with `cargo run -p locus-bench --bin fig1_syscall_trace`.

use locus::{OpenMode, SiteId};
use locus_bench::figures::{render_timeline, transmissions};
use locus_bench::standard_cluster;

fn main() {
    let cluster = standard_cluster(3, &[0]);
    let us = SiteId(2); // diskless using site
    let writer = cluster.login(SiteId(0), 1).expect("login");
    cluster
        .write_file(writer, "/remote-file", b"data served from the storage site")
        .expect("seed");
    cluster.settle();

    let reader = cluster.login(us, 1).expect("login");
    let fd = cluster
        .open(reader, "/remote-file", OpenMode::Read)
        .expect("open");

    println!("Figure 1: a read(2) at {us} of a file stored at S0\n");
    cluster.net().set_observing(true);
    let t0 = cluster.net().now();
    let data = cluster.read(reader, fd, 64).expect("read");
    let elapsed = cluster.net().now() - t0;
    cluster.net().set_observing(false);
    let events = cluster.net().take_obs_events();
    let msgs = transmissions(&events);

    println!("{}", render_timeline(&msgs, us));
    println!("bytes returned : {}", data.len());
    println!("messages       : {}", msgs.len());
    println!("elapsed (sim)  : {elapsed}");
    println!();
    println!("The kernel at {us} packaged the request, slept awaiting the");
    println!("response, and resumed the system call when the reply arrived —");
    println!("\"a special case of remote procedure calls\" (section 2.3.2).");
    cluster.close(reader, fd).expect("close");
}

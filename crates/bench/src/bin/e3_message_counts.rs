//! **E3** — protocol message counts per operation, against the counts the
//! paper states in §2.3.3–§2.3.6: read page = 2, write page = 1 (low-level
//! ack only), general open = 4, general close = 4, commit notification
//! fan-out = containers − 1.
//!
//! A second section compares a 64-page sequential remote read under the
//! paper-faithful per-page protocol against the batched `READV` protocol
//! with adaptive readahead (the paper's counts are unchanged by default;
//! batching is opt-in).
//!
//! A third section is **E9** (§3.2): "in the worst case, performance is
//! limited by the speed at which the tokens … can be flipped back and
//! forth among processes on different machines, \[but\] such extreme
//! behavior is exceedingly rare" — offset-token messages for 16 reads of
//! one shared descriptor, strictly alternating between two sites against
//! each site reading its 8 in one batch.
//!
//! Run with `cargo run -p locus-bench --bin e3_message_counts`. Writes
//! `BENCH_e3.json` (honours `$BENCH_OUT_DIR`).

use locus::{Cluster, OpenMode, Signal, SiteId, Ticks};
use locus_bench::{standard_cluster, BenchReport};
use locus_fs::ops::{commit, io, namei, open};
use locus_fs::IoPolicy;
use locus_types::MachineType;

/// A diskless site reads a freshly-seeded 64-page file sequentially and
/// cold from the one container; returns (messages, virtual elapsed, hit
/// ratio) for the read itself — the open/close protocol costs the same
/// either way and is measured separately above.
fn seq_read_64(policy: IoPolicy) -> (u64, Ticks, f64) {
    const NPAGES: usize = 64;
    let cluster = Cluster::builder()
        .vax_sites(2)
        .filegroup("root", &[0])
        .io_policy(policy)
        .build();
    let data: Vec<u8> = (0..NPAGES * 1024).map(|i| (i % 251) as u8).collect();
    let writer = cluster.login(SiteId(0), 1).expect("login");
    cluster.write_file(writer, "/big", &data).expect("seed");
    cluster.settle();
    let us = SiteId(1);
    let ctx = locus_fs::ProcFsCtx::new(
        cluster.fs().kernel(us).mount.root().unwrap(),
        MachineType::Vax,
    );
    let f = locus_fs::ops::fd::open(cluster.fs(), us, &ctx, "/big", OpenMode::Read).expect("open");
    // A cold read, made cold here: the storage site's buffers still hold
    // the 64 pages it has just written, and the point of the comparison
    // is a sequential read that pays the disk as well as the wire.
    let gfid = namei::resolve(cluster.fs(), us, &ctx, "/big").expect("resolve");
    cluster
        .fs()
        .with_kernel(SiteId(0), |k| k.invalidate_caches_for(gfid));
    cluster.net().reset_stats();
    let t0 = cluster.net().now();
    let got = locus_fs::ops::fd::read(cluster.fs(), us, f, data.len()).expect("sequential read");
    let elapsed = cluster.net().now() - t0;
    let msgs = cluster.net().stats().total_sends();
    assert_eq!(got, data, "batched and unbatched reads must agree");
    locus_fs::ops::fd::close(cluster.fs(), us, f).expect("close");
    (msgs, elapsed, cluster.fs().cache_stats().hit_ratio())
}

/// E9: token traffic for 16 reads of a descriptor shared by a parent at
/// its home site S0 and a forked child at S2. A flip towards the child is
/// one `TOKEN acquire` (child asks the home), a flip back is one `TOKEN
/// recall` (the home takes it); each is answered (`TOKEN grant` /
/// `TOKEN surrender`), so a flip is two wire messages. `TOKEN give` is
/// only sent by a remote holder that closes, which nobody does here.
fn token_flips(report: &mut BenchReport) {
    let cluster = standard_cluster(3, &[0, 1]);
    let parent = cluster.login(SiteId(0), 1).expect("login");
    cluster
        .write_file(parent, "/tok", &vec![3u8; 64 * 1024])
        .expect("seed");
    cluster.settle();
    let fd = cluster.open(parent, "/tok", OpenMode::Read).expect("open");
    let child = cluster.fork(parent, Some(SiteId(2))).expect("remote fork");

    println!("\nE9: offset-token messages over 16 reads of a shared descriptor (home S0, child S2):");
    println!(
        "{:<34} {:>9} {:>9} {:>9}",
        "access pattern", "flips", "requests", "wire"
    );
    let mut measure = |name: &str, label: &str, order: &[locus::Pid]| {
        cluster.lseek(parent, fd, 0).expect("rewind"); // the parent starts with the token
        cluster.net().reset_stats();
        for &p in order {
            cluster.read(p, fd, 64).expect("read");
        }
        let st = cluster.net().stats();
        let (acquire, recall, give) = (
            st.sends("TOKEN acquire"),
            st.sends("TOKEN recall"),
            st.sends("TOKEN give"),
        );
        let wire = acquire
            + st.sends("TOKEN grant")
            + recall
            + st.sends("TOKEN surrender")
            + give
            + st.sends("TOKEN give ack");
        let flips = order.windows(2).filter(|w| w[0] != w[1]).count() as u64;
        assert_eq!(acquire + recall, flips, "one token request per flip");
        assert_eq!(wire, 2 * flips, "each request answered, nothing else sent");
        println!("{label:<34} {flips:>9} {:>9} {wire:>9}", acquire + recall);
        report
            .int(&format!("e9_{name}_acquire_msgs"), acquire)
            .int(&format!("e9_{name}_recall_msgs"), recall)
            .int(&format!("e9_{name}_give_msgs"), give)
            .int(&format!("e9_{name}_token_wire_msgs"), wire);
    };
    let alternating: Vec<_> = (0..8).flat_map(|_| [parent, child]).collect();
    let batched: Vec<_> = [[parent; 8], [child; 8]].concat();
    measure("pingpong", "strictly alternating (worst case)", &alternating);
    measure("batched", "8 + 8 batched (common case)", &batched);
}

fn main() {
    let mut report = BenchReport::new("e3");
    // Three containers so the commit fan-out is visible; diskless site 3.
    let cluster = standard_cluster(4, &[0, 1, 2]);
    cluster.net().set_observing(true);
    let us = SiteId(3);
    let p = cluster.login(SiteId(0), 1).expect("login");
    cluster.write_file(p, "/m", &vec![3u8; 1024]).expect("seed");
    cluster.settle();
    let ctx = locus_fs::ProcFsCtx::new(
        cluster.fs().kernel(us).mount.root().unwrap(),
        MachineType::Vax,
    );
    let gfid = namei::resolve(cluster.fs(), us, &ctx, "/m").expect("resolve");

    println!("E3: messages per operation (US=S3 diskless, CSS=S0, containers=3)\n");
    println!("{:<34} {:>9} {:>9}", "operation", "measured", "paper");

    // Open from the diskless site (CSS stores latest: optimized open).
    cluster.net().reset_stats();
    let t = open::open_gfid(cluster.fs(), us, gfid, OpenMode::Read).expect("open");
    let open_msgs = cluster.net().stats().total_sends();
    report.int("open_msgs", open_msgs);
    println!(
        "{:<34} {:>9} {:>9}",
        "open (CSS-is-SS optimization)", open_msgs, 2
    );

    // One remote page read.
    cluster.net().reset_stats();
    io::get_page(cluster.fs(), us, gfid, t.ss, 0, 1).expect("read");
    let read_msgs = cluster.net().stats().total_sends();
    report.int("read_page_msgs", read_msgs);
    println!("{:<34} {:>9} {:>9}", "read one page", read_msgs, 2);

    // Close (read-only, CSS == SS here: two-message close).
    cluster.net().reset_stats();
    open::close_ticket(cluster.fs(), us, &t).expect("close");
    let close_msgs = cluster.net().stats().total_sends();
    report.int("close_msgs", close_msgs);
    println!("{:<34} {:>9} {:>9}", "close (CSS == SS)", close_msgs, 2);

    // Write path: open for modification, write one whole page remotely.
    let t = open::open_gfid(cluster.fs(), us, gfid, OpenMode::Write).expect("open write");
    cluster.net().reset_stats();
    io::put_page_range(cluster.fs(), us, gfid, t.ss, 0, &vec![9u8; 1024], 1024).expect("write");
    let st = cluster.net().stats();
    report.int("write_page_msgs", st.sends("WRITE page"));
    println!(
        "{:<34} {:>9} {:>9}",
        "write one whole page",
        st.sends("WRITE page"),
        1
    );

    // Commit: US->SS exchange plus notifications to CSS and the other
    // containers ("messages to all the other SS's as well as the CSS").
    cluster.net().reset_stats();
    commit::commit_at(cluster.fs(), us, gfid, t.ss, None).expect("commit");
    let st = cluster.net().stats();
    report.int("commit_notify_msgs", st.sends("COMMIT notify"));
    println!(
        "{:<34} {:>9} {:>9}",
        "commit notify fan-out",
        st.sends("COMMIT notify"),
        2 // containers - 1 = 3 - 1
    );
    open::close_ticket(cluster.fs(), us, &t).expect("close");
    cluster.settle();

    // The four-message general close needs US, SS, CSS all distinct:
    // US=3 opens while the CSS (S0) is cut off so SS=S1/CSS=S1, then the
    // topology heals and the CSS moves back to S0 before the close.
    cluster.partition(&[vec![SiteId(1), SiteId(2), SiteId(3)], vec![SiteId(0)]]);
    cluster.reconfigure().expect("reconfig");
    let t = open::open_gfid(cluster.fs(), us, gfid, OpenMode::Read).expect("open");
    cluster.heal();
    cluster.reconfigure().expect("merge");
    assert_ne!(t.ss, SiteId(0));
    cluster.net().reset_stats();
    open::close_ticket(cluster.fs(), us, &t).expect("close");
    let st = cluster.net().stats();
    let close_msgs = st.sends("CLOSE req")
        + st.sends("CLOSE resp")
        + st.sends("SSCLOSE req")
        + st.sends("SSCLOSE resp");
    report.int("general_close_msgs", close_msgs);
    println!(
        "{:<34} {:>9} {:>9}",
        "close (US, SS, CSS distinct)", close_msgs, 4
    );
    report.cache("e3", cluster.fs().cache_stats());
    println!(
        "\ncache hit ratio (all sites): {:.2}",
        cluster.fs().cache_stats().hit_ratio()
    );

    // Batched transfer: the same 64-page sequential remote read costs 2
    // messages per page under §2.3.3, but one round trip per adaptive
    // readahead window under READV (1, 2, 4, 8, 8, ... pages).
    let (un_msgs, un_elapsed, un_hits) = seq_read_64(IoPolicy::paper_faithful());
    let (b_msgs, b_elapsed, b_hits) = seq_read_64(IoPolicy::batched());
    let msg_ratio = un_msgs as f64 / b_msgs as f64;
    println!("\n64-page sequential remote read (read only; open/close measured above):");
    println!(
        "{:<34} {:>9} {:>12} {:>6}",
        "mode", "messages", "virtual µs", "hit%"
    );
    println!(
        "{:<34} {:>9} {:>12} {:>6.1}",
        "per-page (paper §2.3.3)",
        un_msgs,
        un_elapsed.as_micros(),
        100.0 * un_hits
    );
    println!(
        "{:<34} {:>9} {:>12} {:>6.1}",
        "batched READV (adaptive window)",
        b_msgs,
        b_elapsed.as_micros(),
        100.0 * b_hits
    );
    println!("message reduction: {msg_ratio:.1}x (claim: >= 4x)");
    assert!(
        msg_ratio >= 4.0,
        "batched read must cut messages at least 4x (got {msg_ratio:.2})"
    );
    report
        .int("seq64_unbatched_msgs", un_msgs)
        .elapsed("seq64_unbatched_us", un_elapsed)
        .int("seq64_batched_msgs", b_msgs)
        .elapsed("seq64_batched_us", b_elapsed)
        .float("seq64_msg_ratio", msg_ratio);

    let (trace, _) = locus_bench::export_and_audit_trace(&cluster, "e3");
    println!("wrote {}", trace.display());

    // §3 process messages: a remote fork is one FORK req, the parent's
    // address-space pages, and one FORK resp ("the relevant set of
    // process pages are sent to the new process site", §3.1); a
    // cross-machine signal is one message (§3.2).
    let cluster = standard_cluster(2, &[0]);
    let parent = cluster.login(SiteId(0), 1).expect("login");
    cluster.net().reset_stats();
    let child = cluster.fork(parent, Some(SiteId(1))).expect("remote fork");
    let st = cluster.net().stats();
    let (fork_req, fork_pages, fork_resp) = (
        st.sends("FORK req"),
        st.sends("PROC page"),
        st.sends("FORK resp"),
    );
    println!("\n§3 process messages (remote fork S0 -> S1, signal S0 -> S1):");
    println!("{:<34} {:>9} {:>9}", "operation", "measured", "paper");
    println!(
        "{:<34} {:>9} {:>9}",
        "fork: body allocation (req)", fork_req, 1
    );
    println!(
        "{:<34} {:>9} {:>9}",
        "fork: address-space pages", fork_pages, 16
    );
    println!("{:<34} {:>9} {:>9}", "fork: completion (resp)", fork_resp, 1);
    cluster.net().reset_stats();
    cluster
        .kill(parent, child, Signal::Sigint)
        .expect("remote signal");
    let signal_msgs = cluster.net().stats().sends("SIGNAL");
    println!("{:<34} {:>9} {:>9}", "signal across machines", signal_msgs, 1);
    report
        .int("fork_req_msgs", fork_req)
        .int("fork_page_msgs", fork_pages)
        .int("fork_resp_msgs", fork_resp)
        .int("signal_msgs", signal_msgs);

    token_flips(&mut report);

    // Per-service wire accounting: a fixed mixed workload (remote file
    // write + remote fork/signal + a partition/merge reconfiguration with
    // its recovery pass) tagged by originating service through the shared
    // RPC engine.
    let cluster = standard_cluster(4, &[0, 1, 2]);
    let p = cluster.login(SiteId(0), 1).expect("login");
    cluster.net().reset_stats();
    cluster
        .write_file(p, "/svc", &vec![7u8; 4096])
        .expect("write");
    cluster.settle();
    let child = cluster.fork(p, Some(SiteId(1))).expect("fork");
    cluster.kill(p, child, Signal::Sigkill).expect("kill");
    cluster.partition(&[
        vec![SiteId(0), SiteId(1)],
        vec![SiteId(2), SiteId(3)],
    ]);
    cluster.reconfigure().expect("split reconfig");
    cluster.heal();
    cluster.reconfigure().expect("merge reconfig");
    let st = cluster.net().stats();
    println!("\nper-service wire accounting (mixed workload):");
    println!(
        "{:<12} {:>8} {:>10} {:>8} {:>7} {:>7}",
        "service", "sends", "bytes", "retries", "drops", "losses"
    );
    for (name, row) in st.services() {
        println!(
            "{:<12} {:>8} {:>10} {:>8} {:>7} {:>7}",
            name, row.sends, row.bytes, row.retries, row.drops, row.losses
        );
        report
            .int(&format!("svc_{name}_msgs"), row.sends)
            .int(&format!("svc_{name}_bytes"), row.bytes);
    }

    println!("\npaper: §2.3.3 read/close protocols, §2.3.5 write, §2.3.6 commit, §3 processes.");
    let path = report.write();
    println!("wrote {}", path.display());
}

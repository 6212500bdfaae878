//! **E1** — local vs. remote access cost in simulated time.
//!
//! The paper's claims (§2.2.1 fn 1): "the cpu overhead of accessing a
//! remote page is twice local access, and the cost of a remote open is
//! significantly more than the case when the entire open can be done
//! locally."
//!
//! Run with `cargo run -p locus-bench --bin e1_access_cost`. Writes
//! `BENCH_e1.json` (honours `$BENCH_OUT_DIR`).

use locus::{OpenMode, SiteId, Ticks};
use locus_bench::{ratio, standard_cluster, timed, BenchReport};
use locus_fs::ops::{io, namei, open};
use locus_types::MachineType;

fn main() {
    let cluster = standard_cluster(3, &[0]);
    cluster.net().set_observing(true);
    let local = SiteId(0);
    let remote = SiteId(2);
    let p = cluster.login(local, 1).expect("login");
    cluster
        .write_file(p, "/bench", &vec![7u8; 4 * 1024])
        .expect("seed");
    cluster.settle();
    let ctx = locus_fs::ProcFsCtx::new(
        cluster.fs().kernel(local).mount.root().unwrap(),
        MachineType::Vax,
    );
    let gfid = namei::resolve(cluster.fs(), local, &ctx, "/bench").expect("resolve");

    // Warm both caches so we measure CPU+wire, not the (identical) disk.
    for us in [local, remote] {
        let t = open::open_gfid(cluster.fs(), us, gfid, OpenMode::Read).unwrap();
        for lpn in 0..4 {
            io::get_page(cluster.fs(), us, gfid, t.ss, lpn, 4).unwrap();
        }
        open::close_ticket(cluster.fs(), us, &t).unwrap();
    }
    // Invalidate the remote site's network cache so its reads really
    // cross the wire (the SS cache stays warm — that is the CPU claim).
    cluster
        .fs()
        .with_kernel(remote, |k| k.invalidate_caches_for(gfid));

    let iters = 50u64;
    let mut t_open_local = Ticks::ZERO;
    let mut t_open_remote = Ticks::ZERO;
    let mut t_page_local = Ticks::ZERO;
    let mut t_page_remote = Ticks::ZERO;

    for _ in 0..iters {
        let (tk, dt) = timed(&cluster, || {
            open::open_gfid(cluster.fs(), local, gfid, OpenMode::Read).unwrap()
        });
        t_open_local += dt;
        let (_, dt) = timed(&cluster, || {
            io::get_page(cluster.fs(), local, gfid, tk.ss, 0, 1).unwrap()
        });
        t_page_local += dt;
        open::close_ticket(cluster.fs(), local, &tk).unwrap();

        let (tk, dt) = timed(&cluster, || {
            open::open_gfid(cluster.fs(), remote, gfid, OpenMode::Read).unwrap()
        });
        t_open_remote += dt;
        cluster
            .fs()
            .with_kernel(remote, |k| k.invalidate_caches_for(gfid));
        let (_, dt) = timed(&cluster, || {
            io::get_page(cluster.fs(), remote, gfid, tk.ss, 0, 1).unwrap()
        });
        t_page_remote += dt;
        open::close_ticket(cluster.fs(), remote, &tk).unwrap();
    }

    let per = |t: Ticks| Ticks::micros(t.as_micros() / iters);
    println!("E1: access cost, local vs remote ({iters} iterations, warm caches)\n");
    println!(
        "{:<28} {:>12} {:>12} {:>8}",
        "operation", "local", "remote", "ratio"
    );
    println!(
        "{:<28} {:>12} {:>12} {:>8.2}",
        "open (read)",
        per(t_open_local).to_string(),
        per(t_open_remote).to_string(),
        ratio(t_open_remote, t_open_local)
    );
    println!(
        "{:<28} {:>12} {:>12} {:>8.2}",
        "page access (1 KiB)",
        per(t_page_local).to_string(),
        per(t_page_remote).to_string(),
        ratio(t_page_remote, t_page_local)
    );
    let cache = cluster.fs().cache_stats();
    println!("cache hit ratio (all sites): {:.2}", cache.hit_ratio());
    println!();
    println!("paper: remote page ≈ 2x local; remote open \"significantly more\".");

    let mut report = BenchReport::new("e1");
    report
        .elapsed("open_local_us", per(t_open_local))
        .elapsed("open_remote_us", per(t_open_remote))
        .float("open_ratio", ratio(t_open_remote, t_open_local))
        .elapsed("page_local_us", per(t_page_local))
        .elapsed("page_remote_us", per(t_page_remote))
        .float("page_ratio", ratio(t_page_remote, t_page_local))
        .cache("e1", cache);
    let path = report.write();
    println!("wrote {}", path.display());
    let (trace, _) = locus_bench::export_and_audit_trace(&cluster, "e1");
    println!("wrote {}", trace.display());
}

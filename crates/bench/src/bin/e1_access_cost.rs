//! **E1** — local vs. remote access cost in simulated time.
//!
//! The paper's claims (§2.2.1 fn 1): "the cpu overhead of accessing a
//! remote page is twice local access, and the cost of a remote open is
//! significantly more than the case when the entire open can be done
//! locally."
//!
//! Two more access-cost claims ride along, each on clusters of its own
//! so the E1 numbers above do not move:
//!
//! * **E2** (§2.1, §6): "when resources are local, access is no more
//!   expensive than on a conventional Unix system" — a single-site LOCUS
//!   against the [`UnixFs`] baseline, 100 × open + read 2 KiB + close.
//! * **Layering ablation** (§2.3.3 fn): "because multilayered support
//!   and error handling, such as suggested by the ISO standard, is not
//!   present, much higher performance has been achieved" — 50 remote
//!   open + read + close cycles under the specialized-protocol latency
//!   model against an ISO-style layered stack.
//!
//! Run with `cargo run -p locus-bench --bin e1_access_cost`. Writes
//! `BENCH_e1.json` (honours `$BENCH_OUT_DIR`).

use locus::{Cluster, OpenMode, Pid, SiteId, Ticks};
use locus_bench::unixfs::UnixFs;
use locus_bench::{ratio, standard_cluster, timed, BenchReport};
use locus_fs::ops::{io, namei, open};
use locus_net::LatencyModel;
use locus_types::MachineType;

/// `n` × open + read (up to 4 KiB) + close of `/f` by `p`, in virtual time.
fn read_cycles(cluster: &Cluster, p: Pid, n: u32) -> Ticks {
    let cycle = || {
        let fd = cluster.open(p, "/f", OpenMode::Read).expect("open");
        cluster.read(p, fd, 4096).expect("read");
        cluster.close(p, fd).expect("close");
    };
    cycle(); // warm the caches: the claims are about CPU and wire, not the disk
    timed(cluster, || (0..n).for_each(|_| cycle())).1
}

/// E2: the all-local LOCUS path against a conventional single-machine Unix.
fn locus_vs_unix(report: &mut BenchReport) {
    const CYCLES: u32 = 100;
    let cluster = standard_cluster(1, &[0]);
    let p = cluster.login(SiteId(0), 1).expect("login");
    cluster.write_file(p, "/f", &vec![9u8; 2048]).expect("seed");
    let t_locus = read_cycles(&cluster, p, CYCLES);

    let mut unix = UnixFs::new();
    let uino = unix.creat("f").expect("creat");
    unix.write_all(uino, &vec![9u8; 2048]).expect("seed");
    let cycle = |unix: &mut UnixFs| {
        let ino = unix.open("f").expect("open");
        unix.read_all(ino).expect("read");
    };
    cycle(&mut unix);
    let u0 = unix.now();
    (0..CYCLES).for_each(|_| cycle(&mut unix));
    let t_unix = unix.now() - u0;

    println!("\nE2: {CYCLES} x (open + read 2 KiB + close), all local");
    println!("  LOCUS local       : {t_locus}");
    println!("  conventional Unix : {t_unix}");
    println!(
        "  ratio             : {:.2} (paper: \"no more expensive\", ~1.0)",
        ratio(t_locus, t_unix)
    );
    report
        .elapsed("e2_locus_local_us", t_locus)
        .elapsed("e2_unix_us", t_unix)
        .float("e2_locus_vs_unix_ratio", ratio(t_locus, t_unix));
}

/// The layering ablation: the same remote cycle under both latency models.
fn layering_penalty(report: &mut BenchReport) {
    const CYCLES: u32 = 50;
    let run = |latency: LatencyModel| {
        let c = Cluster::builder()
            .vax_sites(2)
            .filegroup("root", &[0])
            .latency(latency)
            .build();
        let seeder = c.login(SiteId(0), 1).expect("login");
        c.write_file(seeder, "/f", &vec![1u8; 2048]).expect("seed");
        let p = c.login(SiteId(1), 1).expect("login remote");
        read_cycles(&c, p, CYCLES)
    };
    let t_fast = run(LatencyModel::ethernet_1983());
    let t_slow = run(LatencyModel::layered_stack());
    println!("\nablation: {CYCLES} x remote (open + read 2 KiB + close)");
    println!("  specialized protocols : {t_fast}");
    println!("  ISO-layered stack     : {t_slow}");
    println!("  layering penalty      : {:.2}x", ratio(t_slow, t_fast));
    report
        .elapsed("layering_specialized_us", t_fast)
        .elapsed("layering_layered_us", t_slow)
        .float("layering_penalty_ratio", ratio(t_slow, t_fast));
}

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
    locus_vs_unix(&mut report);
    layering_penalty(&mut report);
    let path = report.write();
    println!("wrote {}", path.display());
    let (trace, _) = locus_bench::export_and_audit_trace(&cluster, "e1");
    println!("wrote {}", trace.display());
}

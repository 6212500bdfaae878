//! **E14** — simulation-engine speedup: the parallel-epoch engine vs.
//! the sequential engine on an e13-style sharded workload at 8/64/512
//! sites.
//!
//! The parallel engine's contract is *determinism first*: traces,
//! latency histograms, per-service statistics and the virtual clock must
//! be byte-identical to the sequential engine's, with only wall-clock
//! scheduling allowed to differ. This bench is that contract's standing
//! proof at scale **and** the speedup measurement:
//!
//! * per site count and engine it reports messages per operation
//!   (deterministic — pinned bit for bit by `bench_guard`) and
//!   wall-clock time (hardware-dependent — reported, never gated);
//! * at 64 sites it additionally replays the whole window under both
//!   engines with tracing enabled and asserts the message traces and
//!   statistics are identical, then exports and audits the parallel
//!   engine's observability trace (`TRACE_e14.jsonl`, including
//!   epoch-merge invariant 10).
//!
//! The layout gives each namespace shard a **single dedicated
//! container** (which is then also its CSS), so every shard group's
//! footprint is disjoint and relative reads fan out across threads;
//! every fourth round stats the shared root, whose footprint overlaps on
//! the root container — those batches run serially, which is the honest
//! price of shared data. On a single-CPU host the speedup hovers near
//! (or below) 1x — thread scheduling costs with nothing to overlap.
//!
//! Run with `cargo run --release -p locus-bench --bin e14_engine_speedup`.
//! Writes `BENCH_e14.json` (honours `$BENCH_OUT_DIR`).

use std::time::Instant;

use locus::{Cluster, EngineKind, EpochOp, Pid, SiteId};
use locus_bench::BenchReport;
use locus_storage::PAGE_SIZE;

/// Epoch batches per measured window.
const ROUNDS: u64 = 16;
/// Every STAT_EVERY-th round every site also stats the shared root (an
/// overlapping footprint — the batch serializes).
const STAT_EVERY: u64 = 4;
/// Namespace shards (= maximum concurrent threads per epoch).
const MAX_SHARDS: u32 = 16;
/// Home-file payload: several pages, so one epoch op is a whole
/// open/page-reads/close conversation rather than a single exchange.
const PAYLOAD_PAGES: usize = 8;

fn sweep_points() -> Vec<u32> {
    vec![8, 64, 512]
}

fn shard_count(sites: u32) -> u32 {
    (sites - 1).min(MAX_SHARDS)
}

/// One sweep point: the root filegroup on site 0 plus `shard_count`
/// filegroups, each with a single dedicated container on its own site.
fn build(sites: u32, engine: EngineKind) -> Cluster {
    let mut b = Cluster::builder()
        .vax_sites(sites as usize)
        .blocks_per_pack(2048)
        .inos_per_fg(2048)
        .filegroup("root", &[0]);
    for k in 0..shard_count(sites) {
        b = b.filegroup_mounted(&format!("s{k}"), &[1 + k], &format!("/s{k}"));
    }
    let cluster = b.engine(engine).build();
    cluster.net().enable_health(locus_net::HealthPolicy::default());
    cluster
}

/// Logs one user in per site (site 0 stays on the shared root), moves it
/// into its home shard and seeds its home file.
fn seed(cluster: &Cluster, sites: u32) -> Vec<Pid> {
    let shards = shard_count(sites);
    let payload = vec![0x6c; PAYLOAD_PAGES * PAGE_SIZE];
    let pids: Vec<Pid> = (0..sites)
        .map(|i| {
            let pid = cluster.login(SiteId(i), 1).expect("login");
            if i > 0 {
                cluster
                    .chdir(pid, &format!("/s{}", (i - 1) % shards))
                    .expect("chdir into home shard");
                cluster
                    .write_file(pid, &format!("f{i}"), &payload)
                    .expect("seed home file");
            }
            pid
        })
        .collect();
    cluster.settle();
    pids
}

struct RunStats {
    msgs_per_op: f64,
    wall: std::time::Duration,
    parallel_epochs: u64,
}

/// The measured window: ROUNDS epoch batches of per-site home reads,
/// with a serial all-sites root stat every STAT_EVERY rounds.
fn run(cluster: &Cluster, pids: &[Pid]) -> RunStats {
    cluster.net().reset_stats();
    let mut ops = 0u64;
    let t0 = Instant::now();
    for r in 0..ROUNDS {
        let reads: Vec<EpochOp> = pids[1..]
            .iter()
            .enumerate()
            .map(|(i, &pid)| EpochOp::OpenReadClose {
                pid,
                path: format!("f{}", i + 1),
                len: PAYLOAD_PAGES * PAGE_SIZE,
            })
            .collect();
        ops += reads.len() as u64;
        for res in cluster.run_epoch(&reads) {
            res.expect("epoch read");
        }
        if (r + 1) % STAT_EVERY == 0 {
            let stats: Vec<EpochOp> = pids
                .iter()
                .map(|&pid| EpochOp::Stat {
                    pid,
                    path: "/".into(),
                })
                .collect();
            ops += stats.len() as u64;
            for res in cluster.run_epoch(&stats) {
                res.expect("epoch stat");
            }
        }
    }
    let wall = t0.elapsed();
    cluster.settle();
    RunStats {
        msgs_per_op: cluster.net().stats().total_sends() as f64 / ops as f64,
        wall,
        parallel_epochs: cluster.fs().parallel_epochs(),
    }
}

/// Full sweep point under one engine; with `trace` the run is observed,
/// audited and fingerprinted for the cross-engine identity assert.
fn measure(
    sites: u32,
    engine: EngineKind,
    trace: bool,
) -> (RunStats, Option<locus_bench::Fingerprint>) {
    let cluster = build(sites, engine);
    let pids = seed(&cluster, sites);
    cluster.net().set_observing(trace);
    let stats = run(&cluster, &pids);
    let fingerprint = trace.then(|| locus_bench::audited_fingerprint(&cluster, "e14"));
    (stats, fingerprint)
}

fn main() {
    let mut report = BenchReport::new("e14");
    let points = sweep_points();
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1);
    println!(
        "E14: sequential vs parallel-epoch engine, {points:?} sites, \
         {MAX_SHARDS}-way sharded namespace, {cores} core(s)\n"
    );
    println!(
        "{:>6} {:>12} {:>12} {:>9} {:>12} {:>10}",
        "sites", "seq wall ms", "par wall ms", "speedup", "msgs/op", "par epochs"
    );

    let mut speedup_at_64 = None;
    for &sites in &points {
        let traced = sites == 64;
        let (seq, seq_fp) = measure(sites, EngineKind::Sequential, traced);
        let (par, par_fp) = measure(sites, EngineKind::ParallelEpoch, traced);

        assert_eq!(
            seq.msgs_per_op, par.msgs_per_op,
            "message counts diverged between engines at {sites} sites"
        );
        assert_eq!(seq.parallel_epochs, 0, "sequential engine must never fork");
        assert!(
            par.parallel_epochs >= ROUNDS,
            "read batches must engage the parallel path at {sites} sites"
        );
        if let (Some(s), Some(p)) = (seq_fp, par_fp) {
            assert_eq!(s.3, p.3, "virtual clocks diverged at {sites} sites");
            assert_eq!(s.0, p.0, "event streams diverged at {sites} sites");
            assert_eq!(s.1, p.1, "latency histograms diverged at {sites} sites");
            assert_eq!(s.2, p.2, "statistics diverged at {sites} sites");
            println!(
                "  [{sites} sites: events, histograms, stats and clock byte-identical across engines]"
            );
        }

        let speedup = seq.wall.as_secs_f64() / par.wall.as_secs_f64().max(1e-9);
        if sites == 64 {
            speedup_at_64 = Some(speedup);
        }
        println!(
            "{:>6} {:>12.1} {:>12.1} {:>8.2}x {:>12.2} {:>10}",
            sites,
            seq.wall.as_secs_f64() * 1e3,
            par.wall.as_secs_f64() * 1e3,
            speedup,
            seq.msgs_per_op,
            par.parallel_epochs
        );

        report
            .float(&format!("s{sites}_msgs_per_op"), seq.msgs_per_op)
            .float(&format!("s{sites}_seq_wall_ms"), seq.wall.as_secs_f64() * 1e3)
            .float(&format!("s{sites}_par_wall_ms"), par.wall.as_secs_f64() * 1e3)
            .float(&format!("s{sites}_speedup"), speedup);
    }

    if let Some(s) = speedup_at_64 {
        println!(
            "\n64-site wall-clock speedup: {s:.2}x on {cores} core(s) \
             (reported, never gated)"
        );
    }

    println!("\npaper: one virtual clock (§2.3.2 message-driven kernel); the epoch merge keeps it while sites execute concurrently.");
    let path = report.write();
    println!("wrote {}", path.display());
}

//! **E15** — write epochs: the parallel-epoch engine on *mutating*
//! workloads (whole-file writes, creates, mkdirs, unlinks) vs. the
//! sequential engine, at 8/64/512 sites.
//!
//! E14 proved the engine contract for read-only epochs; this bench is
//! the standing proof for the write path. Each namespace shard has
//! **two** containers, so every committed write owes its replica a
//! CommitNotify — fan-out that buffers on the run queues during the
//! epoch and crosses the barrier (a reader holding stale pages may live
//! on any site, outside the shard's footprint). The CSS-owned
//! single-writer discipline keeps both of a shard's containers plus its
//! writer in one group, and distinct shards stay disjoint, so mutating
//! batches still fan out across threads.
//!
//! * per site count and engine it reports messages per operation
//!   (deterministic — pinned bit for bit by `bench_guard`) and
//!   wall-clock time (hardware-dependent — reported, never gated:
//!   `*_wall_*` and `*_speedup` keys are presence-only in the guard);
//! * at 64 sites it replays the window under both engines with tracing
//!   enabled and asserts the message traces and statistics are
//!   identical, then exports and audits the parallel engine's
//!   observability trace (`TRACE_e15.jsonl` — including the epoch-merge,
//!   duplicate-seq and per-queue FIFO halves of invariant 10);
//! * it asserts the `parallel_epochs` counter shows every mutating round
//!   actually forked — the multi-writer-different-filegroup batches run
//!   on ≥ 2 shards, not on the serial fallback.
//!
//! The workload cycles write → read-back → mkdir → unlink per shard,
//! with an all-sites root stat every fourth round (overlapping
//! footprints: the honest serial price of shared data, visible as
//! `settle.serial` notes in the trace).
//!
//! Run with `cargo run --release -p locus-bench --bin e15_write_epochs`.
//! Writes `BENCH_e15.json` (honours `$BENCH_OUT_DIR`).

use std::time::Instant;

use locus::{Cluster, EngineKind, EpochOp, Pid, SiteId};
use locus_bench::BenchReport;
use locus_storage::PAGE_SIZE;

/// Epoch batches per measured window (one full write/read/mkdir/unlink
/// cycle every 4 rounds).
const ROUNDS: u64 = 16;
/// Every STAT_EVERY-th round every site stats the shared root (an
/// overlapping footprint — the batch serializes).
const STAT_EVERY: u64 = 4;
/// Namespace shards (= maximum concurrent threads per epoch). Each
/// shard owns two sites: its writer/primary container and its replica.
const MAX_SHARDS: u32 = 16;
/// Whole-file payload committed per write.
const PAYLOAD_PAGES: usize = 4;

fn sweep_points() -> Vec<u32> {
    vec![8, 64, 512]
}

fn shard_count(sites: u32) -> u32 {
    ((sites - 1) / 2).min(MAX_SHARDS)
}

/// One sweep point: the root filegroup on site 0 plus `shard_count`
/// filegroups, each replicated on a dedicated site *pair* — the first
/// site is the writer's (and the CSS), the second holds the replica the
/// commit fan-out must reach across the barrier.
fn build(sites: u32, engine: EngineKind) -> Cluster {
    let mut b = Cluster::builder()
        .vax_sites(sites as usize)
        .blocks_per_pack(4096)
        .inos_per_fg(2048)
        .filegroup("root", &[0]);
    for k in 0..shard_count(sites) {
        b = b.filegroup_mounted(
            &format!("s{k}"),
            &[1 + 2 * k, 2 + 2 * k],
            &format!("/s{k}"),
        );
    }
    let cluster = b.engine(engine).build();
    cluster.net().enable_health(locus_net::HealthPolicy::default());
    cluster
}

/// Logs in one root-site user plus one writer per shard (at the shard's
/// primary container site), moved into its home shard.
fn seed(cluster: &Cluster, sites: u32) -> Vec<Pid> {
    let mut pids = vec![cluster.login(SiteId(0), 1).expect("login root user")];
    for k in 0..shard_count(sites) {
        let pid = cluster.login(SiteId(1 + 2 * k), 1).expect("login writer");
        cluster
            .chdir(pid, &format!("/s{k}"))
            .expect("chdir into home shard");
        pids.push(pid);
    }
    cluster.settle();
    pids
}

struct RunStats {
    msgs_per_op: f64,
    wall: std::time::Duration,
    parallel_epochs: u64,
}

/// The measured window: ROUNDS mutating epoch batches — every shard
/// writer cycling whole-file write, read-back, mkdir, unlink — with a
/// serial all-sites root stat every STAT_EVERY rounds.
fn run(cluster: &Cluster, pids: &[Pid]) -> RunStats {
    let payload = vec![0x6c; PAYLOAD_PAGES * PAGE_SIZE];
    cluster.net().reset_stats();
    let mut ops = 0u64;
    let t0 = Instant::now();
    for r in 0..ROUNDS {
        let batch: Vec<EpochOp> = pids[1..]
            .iter()
            .map(|&pid| match r % 4 {
                0 => EpochOp::WriteFile {
                    pid,
                    path: "home".into(),
                    data: payload.clone(),
                },
                1 => EpochOp::OpenReadClose {
                    pid,
                    path: "home".into(),
                    len: PAYLOAD_PAGES * PAGE_SIZE,
                },
                2 => EpochOp::Mkdir {
                    pid,
                    path: format!("m{r}"),
                },
                _ => EpochOp::Unlink {
                    pid,
                    path: format!("m{}", r - 1),
                },
            })
            .collect();
        ops += batch.len() as u64;
        for res in cluster.run_epoch(&batch) {
            res.expect("epoch op");
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
    let fingerprint = trace.then(|| locus_bench::audited_fingerprint(&cluster, "e15"));
    (stats, fingerprint)
}

fn main() {
    let mut report = BenchReport::new("e15");
    let points = sweep_points();
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1);
    println!(
        "E15: sequential vs parallel-epoch engine on mutating epochs, \
         {points:?} sites, {MAX_SHARDS}-way sharded namespace \
         (2 containers per shard), {cores} core(s)\n"
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
        // The acceptance claim: every mutating round is a
        // multi-writer-different-filegroup batch that really forked
        // (>= 2 shards), visible through the parallel_epochs counter.
        assert!(
            par.parallel_epochs >= ROUNDS,
            "mutating batches must engage the parallel path at {sites} sites \
             (got {} forked epochs for {ROUNDS} rounds)",
            par.parallel_epochs
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
             (wall clock is reported, never gated: bench_guard exempts \
             *_wall_* and *_speedup keys in both modes)"
        );
    }

    println!(
        "\npaper: the §2.3.6 commit fan-out (\"the SS sends messages to all \
         the other SS's of that file as well as the CSS\") buffers across \
         the epoch barrier; one writer per filegroup per epoch keeps the \
         CSS's synchronization role single-threaded."
    );
    let path = report.write();
    println!("wrote {}", path.display());
}

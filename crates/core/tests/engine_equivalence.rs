//! Cross-engine equivalence under chaos: five fault families × 32 seeds,
//! each schedule run on both simulation engines and compared **byte for
//! byte** — traces, observability streams, histograms, statistics and the
//! final virtual clock must be identical; only wall-clock scheduling may
//! differ. Every schedule mixes [`Cluster::run_epoch`] batches (the code
//! path that actually forks shards) with ordinary serial system calls, so
//! the epoch merge is exercised *under* the chaos, not beside it.
//!
//! The families:
//!
//! 1. stochastic message loss / duplication / delay (parallel epochs run
//!    with per-site fault-RNG streams live);
//! 2. scheduled crash windows (unfired events force serial epochs; the
//!    fallback must be byte-identical too);
//! 3. CSS handoff storms on a replicated filegroup;
//! 4. process chaos — remote forks, signals, exits — interleaved with
//!    epochs (exercises the process-table split/absorb);
//! 5. partition + reconfiguration + merge;
//! 6. mixed read/write/create epochs — mutating composites (whole-file
//!    writes, creates, mkdirs, unlinks) sharing batches with reads and
//!    stats, under stochastic faults on half the seeds (exercises the
//!    single-writer shard discipline and the cross-barrier commit
//!    fan-out).

use locus::{Cluster, EngineKind, EpochOp, Pid, SiteId, Ticks};
use locus_fs::css_handoff;
use locus_net::{obs, FaultPlan, FaultSpec, SimRng};
use locus_types::FilegroupId;

const SEEDS_PER_FAMILY: u64 = 32;

/// Five sites: the root filegroup replicated on 0–2, plus a dedicated
/// per-site filegroup on 3 and 4 so relative reads there form disjoint
/// single-site footprints (two shard groups → the parallel path engages).
fn chaos_cluster(engine: EngineKind) -> (Cluster, Vec<Pid>) {
    let cluster = Cluster::builder()
        .vax_sites(5)
        .filegroup("root", &[0, 1, 2])
        .filegroup_mounted("d3", &[3], "/d3")
        .filegroup_mounted("d4", &[4], "/d4")
        .engine(engine)
        .build();
    let mut pids = Vec::new();
    for s in 0..5u32 {
        let pid = cluster.login(SiteId(s), 100).unwrap();
        pids.push(pid);
    }
    cluster.write_file(pids[0], "/shared", b"root payload").unwrap();
    for s in 3..5u32 {
        cluster
            .write_file(pids[s as usize], &format!("/d{s}/data"), b"shard payload")
            .unwrap();
        cluster.chdir(pids[s as usize], &format!("/d{s}")).unwrap();
    }
    cluster.settle();
    cluster.net().reset_stats();
    cluster.net().set_observing(true);
    (cluster, pids)
}

/// One epoch batch: disjoint relative reads on sites 3 and 4 (the
/// parallel fan-out) plus one absolute stat (overlapping root footprint).
fn epoch_ops(pids: &[Pid], with_stat: bool) -> Vec<EpochOp> {
    let mut ops: Vec<EpochOp> = (3..5)
        .map(|s| EpochOp::OpenReadClose {
            pid: pids[s],
            path: "data".into(),
            len: 1 << 12,
        })
        .collect();
    if with_stat {
        ops.push(EpochOp::Stat {
            pid: pids[0],
            path: "/shared".into(),
        });
    }
    ops
}

/// Drains and fingerprints everything the determinism contract covers.
fn digest(cluster: &Cluster, outcomes: &str) -> String {
    let events = cluster.net().take_obs_events();
    let report = obs::audit(&events);
    assert!(report.is_clean(), "{}", report.summary());
    format!(
        "outcomes:{outcomes}\nobs:{}\nhists:{:?}\nstats:{:?}\nnow:{}",
        obs::export_jsonl(&events),
        cluster.net().obs_histograms(),
        cluster.net().stats(),
        cluster.net().now().as_micros(),
    )
}

fn family_rng(family: u64, seed: u64) -> SimRng {
    SimRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (family << 56))
}

// ---------------------------------------------------------------------
// Family 1: stochastic loss / duplication / delay.
// ---------------------------------------------------------------------

fn run_message_chaos(seed: u64, engine: EngineKind) -> String {
    let (cluster, pids) = chaos_cluster(engine);
    let mut rng = family_rng(1, seed);
    let spec = FaultSpec {
        drop: 0.02 + rng.gen_f64() * 0.10,
        duplicate: rng.gen_f64() * 0.10,
        delay_prob: rng.gen_f64() * 0.20,
        delay: Ticks::micros(rng.gen_range(20u64..200)),
        circuit_abort: 0.0,
    };
    cluster.net().install_faults(FaultPlan::new(seed).default_spec(spec));
    let mut outcomes = String::new();
    for round in 0..4u32 {
        let out = cluster.run_epoch(&epoch_ops(&pids, round % 2 == 0));
        outcomes.push_str(&format!("{out:?};"));
        if rng.gen_bool(0.5) {
            let w = cluster.write_file(pids[1], "/scratch", format!("r{round}").as_bytes());
            outcomes.push_str(&format!("w{w:?};"));
        }
    }
    cluster.net().clear_faults();
    if engine == EngineKind::ParallelEpoch {
        assert!(
            cluster.fs().parallel_epochs() > 0,
            "message-chaos epochs must engage the parallel path"
        );
    }
    digest(&cluster, &outcomes)
}

// ---------------------------------------------------------------------
// Family 2: scheduled crash windows (serial-fallback epochs).
// ---------------------------------------------------------------------

fn run_crash_windows(seed: u64, engine: EngineKind) -> String {
    let (cluster, pids) = chaos_cluster(engine);
    let mut rng = family_rng(2, seed);
    let victim = SiteId(rng.gen_range(3u32..5));
    let at = Ticks::micros(cluster.net().now().as_micros() + rng.gen_range(500u64..3_000));
    let until = Ticks::micros(at.as_micros() + rng.gen_range(2_000u64..10_000));
    cluster
        .net()
        .install_faults(FaultPlan::new(seed).crash_window(victim, at, until));
    let mut outcomes = String::new();
    for round in 0..6u32 {
        let out = cluster.run_epoch(&epoch_ops(&pids, round % 3 == 0));
        outcomes.push_str(&format!("{out:?};"));
    }
    // While any scheduled event is unfired the engine must serialize.
    // (Both engines report 0 until the window has fully elapsed.)
    if cluster.net().has_unfired_fault_events() {
        assert_eq!(cluster.fs().parallel_epochs(), 0);
    }
    cluster.net().clear_faults();
    cluster.net().heal();
    cluster.net().revive(victim);
    digest(&cluster, &outcomes)
}

// ---------------------------------------------------------------------
// Family 3: CSS handoff storms on the replicated root filegroup.
// ---------------------------------------------------------------------

fn run_handoff_storm(seed: u64, engine: EngineKind) -> String {
    let (cluster, pids) = chaos_cluster(engine);
    let mut rng = family_rng(3, seed);
    let mut outcomes = String::new();
    for round in 0..5u32 {
        let to = SiteId(rng.gen_range(0u32..3));
        let h = css_handoff(cluster.fs(), FilegroupId(0), to);
        outcomes.push_str(&format!("h{to}:{};", h.is_ok()));
        cluster.settle();
        let out = cluster.run_epoch(&epoch_ops(&pids, round % 2 == 1));
        outcomes.push_str(&format!("{out:?};"));
    }
    digest(&cluster, &outcomes)
}

// ---------------------------------------------------------------------
// Family 4: process chaos interleaved with epochs.
// ---------------------------------------------------------------------

fn run_proc_chaos(seed: u64, engine: EngineKind) -> String {
    let (cluster, pids) = chaos_cluster(engine);
    let mut rng = family_rng(4, seed);
    let mut outcomes = String::new();
    let mut children: Vec<Pid> = Vec::new();
    for round in 0..4u32 {
        match rng.gen_range(0u32..3) {
            0 => {
                let to = SiteId(rng.gen_range(0u32..5));
                let c = cluster.fork(pids[0], Some(to));
                outcomes.push_str(&format!("f{c:?};"));
                if let Ok(c) = c {
                    children.push(c);
                }
            }
            1 => {
                if let Some(&c) = children.first() {
                    let k = cluster.kill(pids[0], c, locus::Signal::Sigusr1);
                    outcomes.push_str(&format!("k{};", k.is_ok()));
                }
            }
            _ => {
                if let Some(c) = children.pop() {
                    let e = cluster.exit(c, i32::from(round as u16));
                    let w = cluster.wait(pids[0]);
                    outcomes.push_str(&format!("e{}w{w:?};", e.is_ok()));
                }
            }
        }
        let out = cluster.run_epoch(&epoch_ops(&pids, round == 3));
        outcomes.push_str(&format!("{out:?};"));
    }
    digest(&cluster, &outcomes)
}

// ---------------------------------------------------------------------
// Family 5: partition, reconfigure, heal, merge.
// ---------------------------------------------------------------------

fn run_partition_merge(seed: u64, engine: EngineKind) -> String {
    let (cluster, pids) = chaos_cluster(engine);
    let mut rng = family_rng(5, seed);
    // Cut one of the dedicated-filegroup sites off (with a root replica
    // or two, depending on the seed), reconfigure, keep running epochs,
    // then heal and merge.
    let lone = rng.gen_range(3u32..5);
    let mut minority = vec![SiteId(lone)];
    if rng.gen_bool(0.5) {
        minority.push(SiteId(rng.gen_range(1u32..3)));
    }
    let majority: Vec<SiteId> = (0..5u32).map(SiteId).filter(|s| !minority.contains(s)).collect();
    cluster.partition(&[majority, minority]);
    let mut outcomes = String::new();
    let r = cluster.reconfigure();
    outcomes.push_str(&format!("r{};", r.is_ok()));
    for round in 0..3u32 {
        let out = cluster.run_epoch(&epoch_ops(&pids, round == 1));
        outcomes.push_str(&format!("{out:?};"));
    }
    cluster.heal();
    let r = cluster.reconfigure();
    outcomes.push_str(&format!("m{};", r.is_ok()));
    let out = cluster.run_epoch(&epoch_ops(&pids, true));
    outcomes.push_str(&format!("{out:?};"));
    digest(&cluster, &outcomes)
}

// ---------------------------------------------------------------------
// Family 6: mixed read/write/create epochs.
// ---------------------------------------------------------------------

fn run_mixed_mutation_chaos(seed: u64, engine: EngineKind) -> String {
    let (cluster, pids) = chaos_cluster(engine);
    let mut rng = family_rng(6, seed);
    if rng.gen_bool(0.5) {
        let spec = FaultSpec {
            drop: rng.gen_f64() * 0.05,
            duplicate: rng.gen_f64() * 0.05,
            delay_prob: rng.gen_f64() * 0.10,
            delay: Ticks::micros(rng.gen_range(10u64..100)),
            circuit_abort: 0.0,
        };
        cluster.net().install_faults(FaultPlan::new(seed).default_spec(spec));
    }
    let mut outcomes = String::new();
    // Names this schedule has created per dedicated-filegroup site, so
    // unlinks sometimes hit and sometimes miss — deterministically.
    let mut made: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    for round in 0..5u32 {
        let mut ops = Vec::new();
        for (slot, s) in (3usize..5).enumerate() {
            let pid = pids[s];
            match rng.gen_range(0u32..6) {
                0 => ops.push(EpochOp::WriteFile {
                    pid,
                    path: format!("w{round}"),
                    data: format!("site {s} round {round}").into_bytes(),
                }),
                1 => {
                    let path = format!("c{round}");
                    made[slot].push(path.clone());
                    ops.push(EpochOp::Create { pid, path });
                }
                2 => ops.push(EpochOp::Mkdir {
                    pid,
                    path: format!("m{round}"),
                }),
                3 => match made[slot].pop() {
                    Some(path) => ops.push(EpochOp::Unlink { pid, path }),
                    None => ops.push(EpochOp::Stat {
                        pid,
                        path: "data".into(),
                    }),
                },
                4 => ops.push(EpochOp::OpenReadClose {
                    pid,
                    path: "data".into(),
                    len: 1 << 12,
                }),
                _ => ops.push(EpochOp::Stat {
                    pid,
                    path: "data".into(),
                }),
            }
        }
        // Root-filegroup rider: merges sites 0–2 into one group, and on
        // the write arm drives the replicated-filegroup single-writer
        // path (CSS + three storage sites in one shard).
        match rng.gen_range(0u32..3) {
            0 => ops.push(EpochOp::WriteFile {
                pid: pids[rng.gen_range(0u32..3) as usize],
                path: "/scratch".into(),
                data: format!("round {round}").into_bytes(),
            }),
            1 => ops.push(EpochOp::Stat {
                pid: pids[0],
                path: "/shared".into(),
            }),
            _ => {}
        }
        // Occasional hazard shape: the whole batch must demote to the
        // serial path, identically on both engines.
        if rng.gen_bool(0.2) {
            ops.push(EpochOp::Stat {
                pid: pids[0],
                path: "d3".into(),
            });
        }
        let out = cluster.run_epoch(&ops);
        outcomes.push_str(&format!("{out:?};"));
    }
    cluster.net().clear_faults();
    if engine == EngineKind::ParallelEpoch {
        assert!(
            cluster.fs().parallel_epochs() > 0,
            "mixed mutation epochs must engage the parallel path"
        );
    }
    digest(&cluster, &outcomes)
}

// ---------------------------------------------------------------------
// The driver: every family, every seed, both engines, byte-compared.
// ---------------------------------------------------------------------

fn assert_engines_agree(name: &str, run: fn(u64, EngineKind) -> String) {
    for seed in 0..SEEDS_PER_FAMILY {
        let seq = run(seed, EngineKind::Sequential);
        let par = run(seed, EngineKind::ParallelEpoch);
        if seq != par {
            let diff = seq
                .lines()
                .zip(par.lines())
                .enumerate()
                .find(|(_, (a, b))| a != b)
                .map(|(i, (a, b))| {
                    format!("first differing line {i}:\n  seq: {a}\n  par: {b}")
                })
                .unwrap_or_else(|| "digests differ in length".into());
            panic!("family {name}, seed {seed}: engines diverged — {diff}");
        }
    }
}

#[test]
fn engines_agree_under_message_chaos() {
    assert_engines_agree("message-chaos", run_message_chaos);
}

#[test]
fn engines_agree_under_crash_windows() {
    assert_engines_agree("crash-windows", run_crash_windows);
}

#[test]
fn engines_agree_under_handoff_storms() {
    assert_engines_agree("handoff-storm", run_handoff_storm);
}

#[test]
fn engines_agree_under_proc_chaos() {
    assert_engines_agree("proc-chaos", run_proc_chaos);
}

#[test]
fn engines_agree_under_partition_merge() {
    assert_engines_agree("partition-merge", run_partition_merge);
}

#[test]
fn engines_agree_under_mixed_mutation_chaos() {
    assert_engines_agree("mixed-mutation", run_mixed_mutation_chaos);
}

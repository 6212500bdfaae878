//! Cross-engine equivalence of the parallel-epoch driver.
//!
//! The contract under test: for the same batch sequence, the sequential
//! and parallel-epoch engines produce **byte-identical** traces,
//! observability event streams, histograms, statistics and virtual
//! clocks — the parallel engine may only change wall-clock scheduling.

use locus::{Cluster, EngineKind, EpochOp, EpochOutcome, SiteId};
use locus_net::obs;

/// Sites in the epoch-parallel layout. Each site has a dedicated
/// filegroup whose only container (and hence CSS) is the site itself, so
/// relative reads inside it have single-site footprints and every site
/// forms its own shard group.
const SITES: usize = 6;

fn sharded_cluster(engine: EngineKind) -> (Cluster, Vec<locus::Pid>) {
    let mut b = Cluster::builder().vax_sites(SITES).filegroup("root", &[0]);
    for s in 1..SITES as u32 {
        b = b.filegroup_mounted(&format!("d{s}"), &[s], &format!("/d{s}"));
    }
    let cluster = b.engine(engine).build();
    let mut pids = Vec::new();
    for s in 0..SITES as u32 {
        let pid = cluster.login(SiteId(s), 100).unwrap();
        if s > 0 {
            cluster
                .write_file(pid, &format!("/d{s}/data"), format!("payload of site {s}").as_bytes())
                .unwrap();
            cluster.chdir(pid, &format!("/d{s}")).unwrap();
        }
        pids.push(pid);
    }
    cluster.settle();
    cluster.net().reset_stats();
    cluster.net().set_observing(true);
    (cluster, pids)
}

/// Mixed batches: relative reads (disjoint single-site footprints, fan
/// out in parallel) and absolute stats (root-filegroup footprints overlap
/// on every op, run serially). Several epochs deep so the merged clock
/// feeds the next epoch.
fn run_workload(cluster: &Cluster, pids: &[locus::Pid]) -> Vec<Vec<Result<EpochOutcome, locus::Errno>>> {
    let mut all = Vec::new();
    for round in 0..4u32 {
        let reads: Vec<EpochOp> = (1..SITES as u32)
            .map(|s| EpochOp::OpenReadClose {
                pid: pids[s as usize],
                path: "data".into(),
                len: 1 << 12,
            })
            .collect();
        all.push(cluster.run_epoch(&reads));
        if round % 2 == 1 {
            let stats: Vec<EpochOp> = (1..SITES as u32)
                .map(|s| EpochOp::Stat {
                    pid: pids[0],
                    path: format!("/d{s}/data"),
                })
                .collect();
            all.push(cluster.run_epoch(&stats));
        }
    }
    all
}

/// Drains the obs stream and returns the `(reason, batch_len)` of every
/// `settle.serial` demotion note in it.
fn serial_reasons(cluster: &Cluster) -> Vec<(String, u64)> {
    cluster
        .net()
        .take_obs_events()
        .into_iter()
        .filter_map(|e| match e {
            obs::ObsEvent::Note { key, label, value, .. } if key == "settle.serial" => {
                Some((label, value))
            }
            _ => None,
        })
        .collect()
}

struct Fingerprint {
    outcomes: Vec<Vec<Result<EpochOutcome, locus::Errno>>>,
    obs_jsonl: String,
    hists: String,
    stats: String,
    now: locus::Ticks,
    parallel_epochs: u64,
}

fn fingerprint(engine: EngineKind) -> Fingerprint {
    let (cluster, pids) = sharded_cluster(engine);
    let outcomes = run_workload(&cluster, &pids);
    let events = cluster.net().take_obs_events();
    let report = obs::audit(&events);
    assert!(report.is_clean(), "{} engine: {}", engine, report.summary());
    Fingerprint {
        outcomes,
        obs_jsonl: obs::export_jsonl(&events),
        hists: format!("{:?}", cluster.net().obs_histograms()),
        stats: format!("{:?}", cluster.net().stats()),
        now: cluster.net().now(),
        parallel_epochs: cluster.fs().parallel_epochs(),
    }
}

#[test]
fn parallel_epochs_match_sequential_byte_for_byte() {
    let seq = fingerprint(EngineKind::Sequential);
    let par = fingerprint(EngineKind::ParallelEpoch);
    assert_eq!(seq.parallel_epochs, 0, "sequential engine must never fork");
    assert!(
        par.parallel_epochs >= 4,
        "the read batches must engage the parallel path (got {} forked epochs)",
        par.parallel_epochs
    );
    assert_eq!(seq.outcomes, par.outcomes);
    assert_eq!(seq.now, par.now, "virtual clocks diverged");
    assert_eq!(seq.obs_jsonl, par.obs_jsonl, "obs event streams diverged");
    assert_eq!(seq.hists, par.hists, "histograms diverged");
    assert_eq!(seq.stats, par.stats, "statistics diverged");
    // The stat batches collapse to one merged group (every footprint
    // holds site 0): a batch-intrinsic demotion, so *both* engines must
    // carry the `settle.serial` note — it is part of the identical
    // streams compared above.
    assert!(
        seq.obs_jsonl.contains("settle.serial") && seq.obs_jsonl.contains("single-group"),
        "single-group demotions must be named in the obs stream"
    );
}

#[test]
fn epoch_results_hold_the_right_bytes() {
    let (cluster, pids) = sharded_cluster(EngineKind::ParallelEpoch);
    let reads: Vec<EpochOp> = (1..SITES as u32)
        .map(|s| EpochOp::OpenReadClose {
            pid: pids[s as usize],
            path: "data".into(),
            len: 1 << 12,
        })
        .collect();
    for (s, r) in (1..SITES as u32).zip(cluster.run_epoch(&reads)) {
        match r.unwrap() {
            EpochOutcome::Read(bytes) => {
                assert_eq!(bytes, format!("payload of site {s}").into_bytes());
            }
            other => panic!("expected read bytes, got {other:?}"),
        }
    }
    let stats = vec![EpochOp::Stat {
        pid: pids[0],
        path: "/d1/data".into(),
    }];
    match cluster.run_epoch(&stats).remove(0).unwrap() {
        EpochOutcome::Stat(info) => {
            assert_eq!(info.size, "payload of site 1".len() as u64);
        }
        other => panic!("expected stat info, got {other:?}"),
    }
}

#[test]
fn hazard_paths_and_faults_serialize_the_batch() {
    let (cluster, pids) = sharded_cluster(EngineKind::ParallelEpoch);
    // Multi-component relative path: a footprint hazard — the whole
    // batch must run serially (and still return correct results).
    cluster.chdir(pids[1], "/").unwrap();
    let ops = vec![
        EpochOp::OpenReadClose {
            pid: pids[1],
            path: "d1/data".into(),
            len: 64,
        },
        EpochOp::OpenReadClose {
            pid: pids[2],
            path: "data".into(),
            len: 64,
        },
    ];
    let out = cluster.run_epoch(&ops);
    assert_eq!(cluster.fs().parallel_epochs(), 0, "hazard must serialize");
    assert!(out.iter().all(|r| r.is_ok()));
    assert_eq!(
        serial_reasons(&cluster),
        vec![("hazard-path".to_string(), 2)],
        "a hazard demotion must be named in the obs stream"
    );
    // Scheduled fault events confine absolute-time actions to barriers:
    // with any unfired, the engine serializes too.
    let plan = locus_net::FaultPlan::new(7).schedule(
        locus::Ticks::secs(10_000),
        locus_net::FaultAction::Crash(SiteId(4)),
    );
    cluster.net().install_faults(plan);
    let reads = vec![
        EpochOp::OpenReadClose {
            pid: pids[2],
            path: "data".into(),
            len: 64,
        },
        EpochOp::OpenReadClose {
            pid: pids[3],
            path: "data".into(),
            len: 64,
        },
    ];
    let out = cluster.run_epoch(&reads);
    assert_eq!(
        cluster.fs().parallel_epochs(),
        0,
        "unfired fault schedule must serialize"
    );
    assert!(out.iter().all(|r| r.is_ok()));
    assert_eq!(
        serial_reasons(&cluster),
        vec![("unfired-fault".to_string(), 2)],
        "an unfired-fault demotion must be named in the obs stream"
    );
}

/// Regression: the old footprint heuristic bounded every relative path by
/// the cwd's filegroup alone. From a root-filegroup cwd, a component that
/// names a mount point resolves *into the child filegroup* — whose CSS
/// and storage sites the declared footprint never mentioned — so under
/// the parallel engine the op escaped its shard and hit a moved-out
/// kernel slot (a panic). Mount-boundary walks must demote to hazard
/// instead.
#[test]
fn mount_boundary_walks_demote_to_hazard() {
    let (cluster, pids) = sharded_cluster(EngineKind::ParallelEpoch);
    // pids[0]'s cwd is `/` (root filegroup, site 0). "d3" crosses into
    // filegroup d3 at site 3; the second op keeps site 4 busy in its own
    // shard so the old heuristic really did fork ({0} and {4} looked
    // disjoint).
    let ops = vec![
        EpochOp::Stat {
            pid: pids[0],
            path: "d3".into(),
        },
        EpochOp::OpenReadClose {
            pid: pids[4],
            path: "data".into(),
            len: 64,
        },
    ];
    let out = cluster.run_epoch(&ops);
    assert_eq!(
        cluster.fs().parallel_epochs(),
        0,
        "a mount-crossing relative walk must serialize"
    );
    assert!(matches!(out[0], Ok(EpochOutcome::Stat(_))));
    assert!(matches!(out[1], Ok(EpochOutcome::Read(_))));
    assert_eq!(
        serial_reasons(&cluster),
        vec![("hazard-path".to_string(), 2)],
        "the mount-boundary demotion must be named in the obs stream"
    );
}

/// Mutating ops engage the parallel path too: per-site writes to
/// disjoint filegroups fork one shard per filegroup (observable through
/// the `parallel_epochs` counter), and two writers to the *same*
/// filegroup are forced into one shard — the CSS-owned single-writer
/// discipline.
#[test]
fn write_epochs_fork_and_single_writer_groups_hold() {
    let (cluster, pids) = sharded_cluster(EngineKind::ParallelEpoch);
    let writes: Vec<EpochOp> = (1..SITES as u32)
        .map(|s| EpochOp::WriteFile {
            pid: pids[s as usize],
            path: "fresh".into(),
            data: format!("written at site {s}").into_bytes(),
        })
        .collect();
    let out = cluster.run_epoch(&writes);
    assert_eq!(
        cluster.fs().parallel_epochs(),
        1,
        "disjoint-filegroup writes must fork"
    );
    for (s, r) in (1..SITES as u32).zip(out) {
        match r.unwrap() {
            EpochOutcome::Wrote(n) => {
                assert_eq!(n, format!("written at site {s}").len());
            }
            other => panic!("expected a write count, got {other:?}"),
        }
    }
    // Two mutating ops on filegroup d1 (different composites, same
    // filegroup) plus an unrelated read: the writers share a group, the
    // read forks — still a parallel epoch, now with exactly two shards.
    let mixed = vec![
        EpochOp::Create {
            pid: pids[1],
            path: "a".into(),
        },
        EpochOp::Mkdir {
            pid: pids[1],
            path: "subdir".into(),
        },
        EpochOp::OpenReadClose {
            pid: pids[3],
            path: "data".into(),
            len: 64,
        },
    ];
    let out = cluster.run_epoch(&mixed);
    assert_eq!(
        cluster.fs().parallel_epochs(),
        2,
        "same-filegroup writers must still fork against the unrelated read"
    );
    assert!(matches!(out[0], Ok(EpochOutcome::Created(_))));
    assert!(matches!(out[1], Ok(EpochOutcome::Created(_))));
    assert!(matches!(out[2], Ok(EpochOutcome::Read(_))));
    // And the files really exist afterwards, with the committed bytes.
    let check = vec![EpochOp::OpenReadClose {
        pid: pids[2],
        path: "fresh".into(),
        len: 1 << 12,
    }];
    match cluster.run_epoch(&check).remove(0).unwrap() {
        EpochOutcome::Read(bytes) => assert_eq!(bytes, b"written at site 2"),
        other => panic!("expected read bytes, got {other:?}"),
    }
    let gone = vec![EpochOp::Unlink {
        pid: pids[1],
        path: "a".into(),
    }];
    assert!(matches!(
        cluster.run_epoch(&gone).remove(0),
        Ok(EpochOutcome::Unlinked)
    ));
}

#[test]
fn engine_selection_flows_from_builder_and_env() {
    let (cluster, _) = sharded_cluster(EngineKind::ParallelEpoch);
    assert_eq!(cluster.fs().engine(), EngineKind::ParallelEpoch);
    let (cluster, _) = sharded_cluster(EngineKind::Sequential);
    assert_eq!(cluster.fs().engine(), EngineKind::Sequential);
}

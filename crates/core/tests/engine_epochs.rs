//! The `run_epoch` batch driver: each op inline, in submission order,
//! with a wait for idle after each, then `settle`.

use locus::{Cluster, EngineKind, EpochOp, EpochOutcome, FileType, Perms, Pid, SiteId, SysResult};
use locus_fs::ops::namei;
use locus_net::obs;

/// Sites in the layout. Each site but 0 has a filegroup of its own,
/// mounted at `/d{s}`; `d1` is replicated at sites 1 and 2, so a write
/// there notifies a second storage site and leaves a pull for `settle`.
const SITES: usize = 6;

fn sharded_cluster() -> (Cluster, Vec<Pid>) {
    let mut b = Cluster::builder().vax_sites(SITES).filegroup("root", &[0]);
    b = b.filegroup_mounted("d1", &[1, 2], "/d1");
    for s in 2..SITES as u32 {
        b = b.filegroup_mounted(&format!("d{s}"), &[s], &format!("/d{s}"));
    }
    let cluster = b.build();
    let mut pids = Vec::new();
    for s in 0..SITES as u32 {
        let pid = cluster.login(SiteId(s), 100).unwrap();
        if s > 0 {
            cluster
                .write_file(
                    pid,
                    &format!("/d{s}/data"),
                    format!("payload of site {s}").as_bytes(),
                )
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

#[test]
fn epoch_results_hold_the_right_bytes() {
    let (cluster, pids) = sharded_cluster();
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

/// Reads, writes, creates and unlinks across filegroups, in an order
/// where later ops see earlier ones: a read of a file written earlier in
/// the batch, an unlink of a file created earlier in the batch.
fn mixed_batch(pids: &[Pid]) -> Vec<EpochOp> {
    vec![
        EpochOp::OpenReadClose {
            pid: pids[3],
            path: "data".into(),
            len: 1 << 12,
        },
        EpochOp::WriteFile {
            pid: pids[1],
            path: "fresh".into(),
            data: b"written in the batch".to_vec(),
        },
        EpochOp::Create {
            pid: pids[4],
            path: "a".into(),
        },
        EpochOp::Mkdir {
            pid: pids[5],
            path: "sub".into(),
        },
        EpochOp::OpenReadClose {
            pid: pids[0],
            path: "/d1/fresh".into(),
            len: 1 << 12,
        },
        EpochOp::Stat {
            pid: pids[2],
            path: "/d4/a".into(),
        },
        EpochOp::Unlink {
            pid: pids[4],
            path: "a".into(),
        },
        EpochOp::OpenReadClose {
            pid: pids[4],
            path: "a".into(),
            len: 64,
        },
    ]
}

/// Issues one op through the cluster's system calls.
fn issue(cluster: &Cluster, op: &EpochOp) -> SysResult<EpochOutcome> {
    match op {
        EpochOp::OpenReadClose { pid, path, len } => {
            let fd = cluster.open(*pid, path, locus::OpenMode::Read)?;
            let read = cluster.read(*pid, fd, *len);
            let closed = cluster.close(*pid, fd);
            let data = read?;
            closed?;
            Ok(EpochOutcome::Read(data))
        }
        EpochOp::Stat { pid, path } => Ok(EpochOutcome::Stat(cluster.stat(*pid, path)?)),
        EpochOp::WriteFile { pid, path, data } => {
            let fd = cluster.creat(*pid, path)?;
            let wrote = cluster.write(*pid, fd, data);
            let closed = cluster.close(*pid, fd);
            let n = wrote?;
            closed?;
            Ok(EpochOutcome::Wrote(n))
        }
        EpochOp::Create { pid, path } => {
            let p = cluster.procs().get(*pid)?;
            let gfid = namei::create(
                cluster.fs(),
                p.site,
                &p.ctx,
                path,
                FileType::Untyped,
                Perms::FILE_DEFAULT,
            )?;
            Ok(EpochOutcome::Created(gfid))
        }
        EpochOp::Mkdir { pid, path } => Ok(EpochOutcome::Created(cluster.mkdir(*pid, path)?)),
        EpochOp::Unlink { pid, path } => {
            cluster.unlink(*pid, path)?;
            Ok(EpochOutcome::Unlinked)
        }
    }
}

/// Everything a run leaves behind that a reader could compare.
struct Fingerprint {
    outcomes: Vec<SysResult<EpochOutcome>>,
    obs_jsonl: String,
    hists: String,
    stats: String,
    now: locus::Ticks,
}

fn fingerprint(cluster: &Cluster, outcomes: Vec<SysResult<EpochOutcome>>) -> Fingerprint {
    let events = cluster.net().take_obs_events();
    let report = obs::audit(&events);
    assert!(report.is_clean(), "{}", report.summary());
    Fingerprint {
        outcomes,
        obs_jsonl: obs::export_jsonl(&events),
        hists: format!("{:?}", cluster.net().obs_histograms()),
        stats: format!("{:?}", cluster.net().stats()),
        now: cluster.net().now(),
    }
}

/// The contract: a batch returns the same results, event stream,
/// statistics and clock as issuing its ops one by one, waiting for idle
/// after each, then calling `settle()`. The engine selector the
/// benchmark's layer probe still sets changes nothing.
#[test]
fn run_epoch_matches_ops_issued_one_by_one() {
    let (cluster, pids) = sharded_cluster();
    cluster.fs().set_engine(EngineKind::ParallelEpoch);
    assert_eq!(cluster.fs().engine(), EngineKind::Sequential);
    let outcomes = cluster.run_epoch(&mixed_batch(&pids));
    let batched = fingerprint(&cluster, outcomes);

    let (cluster, pids) = sharded_cluster();
    let outcomes = mixed_batch(&pids)
        .iter()
        .map(|op| {
            let out = issue(&cluster, op);
            cluster.net().wait_idle();
            out
        })
        .collect();
    cluster.settle();
    let one_by_one = fingerprint(&cluster, outcomes);

    assert_eq!(batched.outcomes, one_by_one.outcomes);
    assert_eq!(batched.now, one_by_one.now, "virtual clocks diverged");
    assert_eq!(
        batched.obs_jsonl, one_by_one.obs_jsonl,
        "event streams diverged"
    );
    assert_eq!(batched.hists, one_by_one.hists, "histograms diverged");
    assert_eq!(batched.stats, one_by_one.stats, "statistics diverged");

    // The batch did what it says: the write is readable from another
    // site, and the file created then unlinked is gone.
    let o = &batched.outcomes;
    assert!(matches!(o[1], Ok(EpochOutcome::Wrote(20))), "{:?}", o[1]);
    assert_eq!(
        o[4],
        Ok(EpochOutcome::Read(b"written in the batch".to_vec()))
    );
    assert!(matches!(o[5], Ok(EpochOutcome::Stat(_))), "{:?}", o[5]);
    assert_eq!(o[6], Ok(EpochOutcome::Unlinked));
    assert_eq!(o[7], Err(locus::Errno::Enoent));
}

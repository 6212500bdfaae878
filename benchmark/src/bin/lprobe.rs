//! The layer probes: micro-measurements of single layers through their
//! public functions, sized to the workload they accompany (version
//! vectors as wide as its replica set, a network of its site count, its
//! own warmed cluster for the transaction and epoch probes).
//!
//! This is a separate binary from the end-to-end driver on purpose: the
//! APIs timed here (`EngineKind`, `select_placement`, `ShadowSession`, …)
//! are the ones later PRs may remove, and removing one must not stop the
//! end-to-end numbers. Output is one `name value unit` line per metric.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use locus::{Cluster, EngineKind, EpochOp, Pid, SiteId};
use locus_benchmark::driver::Runner;
use locus_benchmark::stats::median_f64;
use locus_benchmark::sut::Sut;
use locus_benchmark::workload::Kind;
use locus_net::{Net, ObsEvent, SendOutcome};
use locus_storage::{DiskInode, Pack, ShadowSession, PAGE_SIZE};
use locus_topology::shard::{select_placement, Candidate, PlacementConfig};
use locus_types::{FileType, FilegroupId, PackId, Perms, VersionVector};

/// Times `f` in batches of `batch` calls for about `budget`, and returns
/// the median over batches of the mean ns per call.
fn ns_per_call(budget: Duration, batch: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut means = Vec::new();
    while means.len() < 5 || start.elapsed() < budget {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        means.push(t0.elapsed().as_nanos() as f64 / f64::from(batch));
    }
    median_f64(&means)
}

const BUDGET: Duration = Duration::from_millis(150);

fn emit(name: &str, value: f64, unit: &str) {
    println!("{name} {value} {unit}");
}

fn probe_types(kind: Kind) {
    // Two concurrent vectors over the workload's replica set.
    let width = kind.replicas();
    let (mut a, mut b) = (VersionVector::new(), VersionVector::new());
    for origin in 0..width {
        for _ in 0..=origin {
            a.bump(origin);
        }
        for _ in 0..(width - origin) {
            b.bump(origin);
        }
    }
    emit(
        "types.vv_compare_ns",
        ns_per_call(BUDGET, 10_000, || {
            black_box(black_box(&a).compare(black_box(&b)));
        }),
        "ns",
    );
    emit(
        "types.vv_merge_ns",
        ns_per_call(BUDGET, 10_000, || {
            black_box(black_box(&a).merge_max(black_box(&b)));
        }),
        "ns",
    );
}

fn probe_storage() {
    let mut pack = Pack::new(PackId::new(FilegroupId(0), 0), 1..64, 1024);
    let ino = pack.alloc_ino().expect("fresh pack has inodes");
    pack.install_inode(
        ino,
        DiskInode::new(FileType::Untyped, Perms::FILE_DEFAULT, 0),
    );
    pack.write_all(ino, &vec![7u8; 64 * PAGE_SIZE])
        .expect("64 pages fit a 1024-block pack");
    let mut lpn = 0;
    emit(
        "storage.page_read_ns",
        ns_per_call(BUDGET, 1_000, || {
            black_box(pack.read_page(ino, lpn % 64).expect("page exists"));
            lpn += 1;
        }),
        "ns",
    );
    // One small-file overwrite: three shadow pages, then the atomic
    // inode switch.
    let page = [9u8; PAGE_SIZE];
    emit(
        "storage.shadow_commit_ns",
        ns_per_call(BUDGET, 200, || {
            let mut s = ShadowSession::begin(&pack, ino).expect("file exists");
            for p in 0..3 {
                s.write_page(&mut pack, p, &page)
                    .expect("pack has free blocks");
            }
            let mut vv = s.working().vv.clone();
            vv.bump(pack.origin());
            s.commit(&mut pack, vv).expect("commit");
        }),
        "ns",
    );
}

fn probe_net(kind: Kind) {
    let n = kind.sites();
    let net = Net::new(n as usize);
    let mut i = 0u32;
    emit(
        "net.send_ns",
        ns_per_call(BUDGET, 200, || {
            let (from, to) = (SiteId(i % n), SiteId((i * 7 + 1) % n));
            i += 1;
            if from != to {
                net.send(from, to, "PROBE", 64).expect("fully connected");
            }
        }),
        "ns",
    );
    emit(
        "net.reachable_ns",
        ns_per_call(BUDGET, 200, || {
            let (from, to) = (SiteId(i % n), SiteId((i * 7 + 1) % n));
            i += 1;
            black_box(net.reachable(from, to));
        }),
        "ns",
    );
}

fn probe_topology(kind: Kind) {
    let candidates: Vec<Candidate> = (0..kind.replicas())
        .map(|s| Candidate {
            site: SiteId(s),
            load: 40 + 7 * u64::from(s),
            healthy: true,
        })
        .collect();
    let cfg = PlacementConfig::default();
    emit(
        "topology.select_placement_ns",
        ns_per_call(BUDGET, 10_000, || {
            black_box(select_placement(SiteId(0), black_box(&candidates), &cfg));
        }),
        "ns",
    );
}

/// Messages the program's own event stream says were delivered since the
/// last drain.
fn drain_delivered(cluster: &Cluster) -> u64 {
    cluster
        .net()
        .take_obs_events()
        .iter()
        .filter(|ev| {
            matches!(
                ev,
                ObsEvent::Request { outcome, .. }
                | ObsEvent::Reply { outcome, .. }
                | ObsEvent::OneWay { outcome, .. } if *outcome == SendOutcome::Delivered
            )
        })
        .count() as u64
}

/// A two-file transaction per call, on the workload's warmed cluster.
fn probe_txn(kind: Kind, cluster: &Cluster, pids: &[Pid]) -> Result<(), String> {
    let calls = if kind.sites() > 64 { 50 } else { 1000 };
    let (mut host, mut msgs, mut sim) = (Vec::new(), Vec::new(), Vec::new());
    cluster.net().set_observing(true);
    for call in 0..calls {
        let user = call % pids.len();
        let pid = pids[user];
        let (_, files) = kind.probe_files(user as u32);
        let data = vec![call as u8; 1500];
        let tid = cluster
            .txn_begin(pid)
            .map_err(|e| format!("txn_begin: {e:?}"))?;
        for f in &files {
            cluster
                .txn_write(tid, pid, f, &data)
                .map_err(|e| format!("txn_write {f}: {e:?}"))?;
        }
        drain_delivered(cluster);
        let sim0 = cluster.net().now();
        let t0 = Instant::now();
        cluster
            .txn_commit(tid)
            .map_err(|e| format!("txn_commit: {e:?}"))?;
        host.push(t0.elapsed().as_nanos() as f64 / 1e3);
        sim.push((cluster.net().now() - sim0).as_micros() as f64);
        msgs.push(drain_delivered(cluster) as f64);
        if call % 32 == 31 {
            cluster.settle();
        }
    }
    cluster.net().set_observing(false);
    cluster.net().take_obs_events();
    emit("txn.commit.host_us", median_f64(&host), "us");
    emit("txn.commit.msgs", median_f64(&msgs), "msgs");
    emit("txn.commit.sim_us", median_f64(&sim), "us");
    Ok(())
}

/// The readers of the epoch batch, as `(process, file)`: one per shard
/// filegroup whose container sites no earlier pick touches, running at
/// the shard's first container and sitting in its mount point, so the
/// footprints are disjoint and the parallel engine has something to
/// split. A workload without shards (one filegroup) falls back to one
/// reader per site, which `run_epoch` must demote to serial.
fn epoch_readers(
    kind: Kind,
    cluster: &Cluster,
    pids: &[Pid],
) -> Result<Vec<(Pid, String)>, String> {
    let spec = kind.cluster();
    let mut used = BTreeSet::new();
    let mut readers = Vec::new();
    for user in 0..kind.sites() {
        let (dir, files) = kind.probe_files(user);
        let Some(fg) = spec
            .filegroups
            .iter()
            .find(|f| f.mount.as_deref() == Some(dir.as_str()))
        else {
            continue;
        };
        if fg.containers.iter().any(|s| used.contains(s)) {
            continue;
        }
        used.extend(fg.containers.iter().copied());
        let pid = cluster
            .login(SiteId(fg.containers[0]), 900 + user)
            .map_err(|e| format!("login at {}: {e:?}", fg.containers[0]))?;
        cluster
            .chdir(pid, &dir)
            .map_err(|e| format!("chdir {dir}: {e:?}"))?;
        readers.push((pid, files[0].clone()));
    }
    if readers.is_empty() {
        readers = pids
            .iter()
            .enumerate()
            .map(|(user, &pid)| (pid, kind.probe_files(user as u32).1[0].clone()))
            .collect();
    }
    Ok(readers)
}

/// A 64-op read batch through `run_epoch` under each engine.
fn probe_epoch(kind: Kind, cluster: &Cluster, pids: &[Pid]) -> Result<(), String> {
    let readers = epoch_readers(kind, cluster, pids)?;
    let ops: Vec<EpochOp> = (0..64)
        .map(|i| {
            let (pid, path) = &readers[i % readers.len()];
            EpochOp::OpenReadClose {
                pid: *pid,
                path: path.clone(),
                len: 8192,
            }
        })
        .collect();
    let batches = if kind.sites() > 64 { 2 } else { 20 };
    let before = cluster.fs().engine();
    let mut demotions = 0;
    let mut reason = String::new();
    for (engine, name) in [
        (EngineKind::Sequential, "core.epoch_seq.host_us_per_op"),
        (EngineKind::ParallelEpoch, "core.epoch_par.host_us_per_op"),
    ] {
        cluster.fs().set_engine(engine);
        cluster.net().set_observing(true);
        let mut per_op = Vec::new();
        for _ in 0..batches {
            let t0 = Instant::now();
            let results = cluster.run_epoch(&ops);
            per_op.push(t0.elapsed().as_nanos() as f64 / 1e3 / ops.len() as f64);
            if let Some(e) = results.iter().find_map(|r| r.as_ref().err()) {
                return Err(format!("run_epoch under {}: {e:?}", engine.as_str()));
            }
            for ev in cluster.net().take_obs_events() {
                if let ObsEvent::Note { key, label, .. } = ev {
                    if key == "settle.serial" {
                        demotions += 1;
                        reason = label;
                    }
                }
            }
        }
        cluster.net().set_observing(false);
        emit(name, median_f64(&per_op), "us/op");
    }
    cluster.fs().set_engine(before);
    emit("core.epoch_serial_demotions", demotions as f64, "count");
    if demotions > 0 {
        println!("# last serial demotion: {reason}");
    }
    Ok(())
}

/// Fresh processes, one per site, each sitting in the directory its
/// probe files live under — relative paths keep the root filegroup out of
/// an epoch's footprint.
fn probe_users(kind: Kind, cluster: &Cluster) -> Result<Vec<Pid>, String> {
    (0..kind.sites())
        .map(|site| {
            let pid = cluster
                .login(SiteId(site), 500 + site)
                .map_err(|e| format!("login at {site}: {e:?}"))?;
            let (dir, _) = kind.probe_files(site);
            cluster
                .chdir(pid, &dir)
                .map_err(|e| format!("chdir {dir}: {e:?}"))?;
            Ok(pid)
        })
        .collect()
}

fn run() -> Result<(), String> {
    let mut kind = None;
    let mut seed = 1u64;
    let mut warmup_scale = 1u64;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--warmup-scale" => {
                warmup_scale = value.parse().map_err(|e| format!("--warmup-scale: {e}"))?
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;

    println!(
        "# probes for {} (seed {seed}, {} hardware threads)",
        kind.name(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    probe_types(kind);
    probe_storage();
    probe_net(kind);
    probe_topology(kind);

    let runner = Runner::set_up(
        kind,
        seed,
        (kind.warmup_ops() / warmup_scale.max(1)).max(50),
    )?;
    let cluster = Sut::cluster(&runner.sut);
    let pids = probe_users(kind, cluster)?;
    probe_epoch(kind, cluster, &pids)?;
    probe_txn(kind, cluster, &pids)?;
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lprobe: {e}");
            ExitCode::FAILURE
        }
    }
}

//! The parallel-epoch workload driver: site-sharded execution of
//! independent system calls.
//!
//! [`Cluster::run_epoch`] takes a batch of operations, bounds the
//! **footprint** of each (the set of sites its protocol messages can
//! touch synchronously), groups operations whose footprints overlap with
//! a union-find over sites, and — under [`EngineKind::ParallelEpoch`] —
//! executes each group on its own OS thread against a private shard of
//! the simulation (kernels *moved* in, network forked via
//! [`locus_net::Net::fork_shard`]). At the epoch barrier the shards merge
//! back in global submission order, producing traces, histograms,
//! statistics and a virtual clock that are byte-identical to the
//! sequential engine's. See `DESIGN.md` ("Simulation engine") for the
//! merge rule and the determinism argument.
//!
//! Footprints are computed from path *shape* against the static mount-name
//! map — plus, for multi-component walks that may cross a mount point,
//! the using site's cached dentry state — never by resolving the path
//! (resolution costs messages and would perturb the trace):
//!
//! * absolute path — the root filegroup (every absolute resolution walks
//!   the root directory) plus, when the first component names a mount
//!   point, the mounted filegroup;
//! * relative path from a working directory outside the root filegroup —
//!   the working directory's filegroup only (mount-point stubs live in
//!   the root directory of the root filegroup, and `..` never leaves a
//!   filegroup, so the walk cannot cross a mount);
//! * relative path from a root-filegroup working directory — the root
//!   filegroup, unless some component names a mount point: then the walk
//!   may cross, and the bound comes from walking the name cache's dentry
//!   state ([`locus_fs::namecache::NameAttrCache::peek_dir`]) when the
//!   cache is on — a cache miss demotes to hazard, never to a wrong
//!   bound;
//! * anything else (dot components anywhere — `/d3/../d4` escapes a
//!   first-component bound — a cwd sitting on a mounted-on stub inode,
//!   mount-name components with the cache off, unknown pids) — a
//!   **hazard**: the whole batch runs serially.
//!
//! A filegroup's sites are its containers plus its current CSS; the
//! process's own site joins its op's footprint. **Mutating** ops run
//! under a CSS-owned single-writer discipline: their footprint is the
//! using site plus the filegroup's CSS plus every replica storage site
//! (the write protocol of §2.3.5–2.3.6 is bounded by exactly those), and
//! any two mutating ops on the same filegroup are explicitly unioned
//! into one group, so each shard sees at most one writer per filegroup
//! at a time. Commit fan-out (CommitNotify / reader invalidations)
//! buffers on the run queues while an epoch is in flight and crosses the
//! barrier instead of delivering synchronously — a stale reader may live
//! on any site — with stamps re-based onto the merged clock
//! ([`FsCluster::absorb_shard_rebased`]) so both engines deliver in the
//! same documented order. The grouping is a safety *bound*, not a guess:
//! an operation that escapes its declared footprint hits an empty kernel
//! slot in the shard and panics loudly rather than racing.
//!
//! The engine serializes the batch whenever the parallel path cannot
//! preserve determinism or would not help: a hazard, unfired scheduled
//! fault events (absolute-time actions are confined to barriers), or a
//! single merged group. Those demotions are *batch-intrinsic* — computed
//! identically on both engines — and each emits a `settle.serial` obs
//! note naming the reason, so a serial fallback is visible in the event
//! stream (and e14-style engagement claims are checkable). A sequential
//! engine *selection* is not a demotion and emits nothing: the streams
//! must stay byte-identical across engines.

use std::collections::{BTreeMap, BTreeSet};

use locus_fs::ops::namei;
use locus_fs::{Coherence, FsCluster};
use locus_net::{EngineKind, OpMark};
use locus_proc::ProcMgr;
use locus_types::{
    FileType, FilegroupId, Gfid, OpenMode, Perms, Pid, SiteId, SysResult, Ticks,
};

use crate::cluster::Cluster;

/// What one epoch shard hands back at the barrier: its cluster view and
/// process table to absorb, the per-op virtual-time marks and post-seq
/// snapshots that drive the merge, and the op results in shard-local
/// submission order.
struct ShardRun {
    fsc: FsCluster,
    procs: ProcMgr,
    marks: Vec<OpMark>,
    post_marks: Vec<Vec<u64>>,
    outs: Vec<SysResult<EpochOutcome>>,
}

/// One operation in an epoch batch.
///
/// Read-only ops (opens, reads, stats) never allocate shared
/// descriptors, mailbox sequences or pids, and never enqueue update
/// propagation. Mutating ops are open-for-modify → write → commit →
/// close composites whose protocol traffic is bounded by the using site,
/// the filegroup's CSS and its replica storage sites (§2.3.5–2.3.6);
/// their commit fan-out buffers on the run queues and crosses the epoch
/// barrier. Ops that would allocate cluster-shared counters (fork,
/// mailbox sends) still run under the sequential engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EpochOp {
    /// `open(2)` for read + `read(2)` of up to `len` bytes + `close(2)`.
    OpenReadClose {
        /// The calling process.
        pid: Pid,
        /// The file, absolute or cwd-relative.
        path: String,
        /// Maximum byte count to read.
        len: usize,
    },
    /// `stat(2)`.
    Stat {
        /// The calling process.
        pid: Pid,
        /// The file, absolute or cwd-relative.
        path: String,
    },
    /// `creat(2)` (create or truncate) + `write(2)` of `data` +
    /// `close(2)` — the whole-file-overwrite pattern §2.3.6 says
    /// dominates Unix file modification. The close commits.
    WriteFile {
        /// The calling process.
        pid: Pid,
        /// The file, absolute or cwd-relative.
        path: String,
        /// The file's new contents.
        data: Vec<u8>,
    },
    /// `creat(2)` + `close(2)`: an empty file, committed.
    Create {
        /// The calling process.
        pid: Pid,
        /// The file, absolute or cwd-relative.
        path: String,
    },
    /// `mkdir(2)`.
    Mkdir {
        /// The calling process.
        pid: Pid,
        /// The directory, absolute or cwd-relative.
        path: String,
    },
    /// `unlink(2)` (rmdir semantics on an empty directory).
    Unlink {
        /// The path, absolute or cwd-relative.
        pid: Pid,
        /// The file, absolute or cwd-relative.
        path: String,
    },
}

/// The successful result of one [`EpochOp`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EpochOutcome {
    /// Bytes read by [`EpochOp::OpenReadClose`].
    Read(Vec<u8>),
    /// Attributes returned by [`EpochOp::Stat`].
    Stat(locus_fs::proto::InodeInfo),
    /// Byte count written by [`EpochOp::WriteFile`].
    Wrote(usize),
    /// Identifier created by [`EpochOp::Create`] / [`EpochOp::Mkdir`].
    Created(Gfid),
    /// [`EpochOp::Unlink`] completed.
    Unlinked,
}

/// Runs one op against a cluster view (the global cluster on the serial
/// path, a private shard on the parallel path). The op ends once every
/// site it kept busy is idle again (detached one-ways, delayed writes,
/// readahead): a shard's site timelines then never depend on how long
/// another shard's ops took, so both engines see the same queues.
fn exec_op(fsc: &FsCluster, procs: &ProcMgr, op: &EpochOp) -> SysResult<EpochOutcome> {
    let out = exec_op_inner(fsc, procs, op);
    fsc.net().wait_idle();
    out
}

fn exec_op_inner(fsc: &FsCluster, procs: &ProcMgr, op: &EpochOp) -> SysResult<EpochOutcome> {
    match op {
        EpochOp::OpenReadClose { pid, path, len } => {
            let fd = procs.popen(fsc, *pid, path, OpenMode::Read)?;
            let read = procs.pread(fsc, *pid, fd, *len);
            let closed = procs.pclose(fsc, *pid, fd);
            let data = read?;
            closed?;
            Ok(EpochOutcome::Read(data))
        }
        EpochOp::Stat { pid, path } => {
            let p = procs.get(*pid)?;
            Ok(EpochOutcome::Stat(namei::stat(fsc, p.site, &p.ctx, path)?))
        }
        EpochOp::WriteFile { pid, path, data } => {
            let fd = procs.pcreat(fsc, *pid, path)?;
            let wrote = procs.pwrite(fsc, *pid, fd, data);
            let closed = procs.pclose(fsc, *pid, fd);
            let n = wrote?;
            closed?;
            Ok(EpochOutcome::Wrote(n))
        }
        EpochOp::Create { pid, path } => {
            let p = procs.get(*pid)?;
            let gfid = namei::create(
                fsc,
                p.site,
                &p.ctx,
                path,
                FileType::Untyped,
                Perms::FILE_DEFAULT,
            )?;
            Ok(EpochOutcome::Created(gfid))
        }
        EpochOp::Mkdir { pid, path } => {
            let p = procs.get(*pid)?;
            let gfid = namei::create(
                fsc,
                p.site,
                &p.ctx,
                path,
                FileType::Directory,
                Perms::DIR_DEFAULT,
            )?;
            Ok(EpochOutcome::Created(gfid))
        }
        EpochOp::Unlink { pid, path } => {
            let p = procs.get(*pid)?;
            namei::unlink(fsc, p.site, &p.ctx, path)?;
            Ok(EpochOutcome::Unlinked)
        }
    }
}

/// Union-find over site indexes (path-halving find, union by arbitrary
/// attach — the site count is small enough that rank bookkeeping would be
/// noise).
struct SiteGroups {
    parent: Vec<usize>,
}

impl SiteGroups {
    fn new(n: usize) -> Self {
        SiteGroups {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// The declared bound of one op: the sites its synchronous protocol
/// messages can touch, plus (for mutating ops) the filegroups it writes
/// — the single-writer union key.
struct Footprint {
    sites: BTreeSet<SiteId>,
    write_fgs: Vec<FilegroupId>,
}

impl Cluster {
    /// The filegroups a path resolution can traverse, or `None` for a
    /// hazard shape the footprint analysis refuses to bound. `us` is the
    /// using site (whose dentry cache backs multi-component walks) and
    /// `cwd` the process's working directory.
    fn path_fgs(&self, path: &str, us: SiteId, cwd: Gfid) -> Option<Vec<FilegroupId>> {
        if path.is_empty() {
            return None;
        }
        let comps: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
        // Dot components re-anchor the walk after crossings the shape
        // analysis cannot see ("/d3/../d4/x" escapes a first-component
        // bound): always a hazard.
        if comps.iter().any(|c| *c == "." || *c == "..") {
            return None;
        }
        let k = self.fsc.kernel(us);
        let root_fg = k.mount.root().ok()?.fg;
        if path.starts_with('/') {
            let mut fgs = vec![root_fg];
            if let Some(first) = comps.first() {
                if let Some(fg) = self.fsc.mounted_fg(first) {
                    fgs.push(fg);
                }
            }
            return Some(fgs);
        }
        if comps.is_empty() {
            return None;
        }
        // A cwd sitting on the mounted-on (stub) inode of a mount point
        // would search the covered directory itself — outside any bound
        // the mount map can give. Unreachable through chdir (which
        // crosses mount points), but demote to hazard rather than trust
        // that.
        if k.mount.cross_mount_point(cwd) != cwd {
            return None;
        }
        if cwd.fg != root_fg {
            // Mount-point stubs live only in the root directory of the
            // root filegroup, and `..` never leaves a filegroup — a
            // relative walk from any other filegroup cannot cross a
            // mount point, whatever its depth.
            return Some(vec![cwd.fg]);
        }
        if comps.iter().all(|c| self.fsc.mounted_fg(c).is_none()) {
            return Some(vec![root_fg]);
        }
        // A component names a mount point, so the walk may cross into
        // the mounted filegroup (it does exactly when that component is
        // looked up in the root directory itself). Path shape alone
        // cannot decide; walk the using site's cached dentries. A miss
        // demotes to hazard, never to a wrong bound.
        if self.fsc.coherence() == Coherence::Off {
            return None;
        }
        let mut fgs = vec![root_fg];
        let mut cur = cwd;
        for (i, comp) in comps.iter().enumerate() {
            let dir = k.name_cache.peek_dir(cur)?;
            let Some(ino) = dir.lookup(comp) else {
                // A missing *final* component is a creation target in the
                // directory just walked to, whose filegroup is already in
                // the bound — unless the name is a mount point's (the
                // stub entry is immutable, so a genuine miss of it would
                // mean the cache is inconsistent: refuse to bound).
                if i + 1 == comps.len() && self.fsc.mounted_fg(comp).is_none() {
                    return Some(fgs);
                }
                return None;
            };
            let child = Gfid::new(cur.fg, ino);
            let crossed = k.mount.cross_mount_point(child);
            if crossed != child {
                fgs.push(crossed.fg);
            }
            cur = crossed;
        }
        Some(fgs)
    }

    /// The footprint of one op — the sites its synchronous protocol
    /// messages can touch and the filegroups it mutates — or `None` for
    /// a hazard (run the batch serially). For a mutating op the site set
    /// is the using site plus, per traversed filegroup, the CSS and
    /// every container (replica storage) site: §2.3.5–2.3.6 bound the
    /// whole write protocol (open-for-modify, page traffic, commit) by
    /// exactly those, and the commit fan-out that could reach other
    /// sites is buffered across the barrier instead of sent.
    fn footprint(&self, op: &EpochOp) -> Option<Footprint> {
        let (pid, path, mutates) = match op {
            EpochOp::OpenReadClose { pid, path, .. } => (*pid, path, false),
            EpochOp::Stat { pid, path } => (*pid, path, false),
            EpochOp::WriteFile { pid, path, .. } => (*pid, path, true),
            EpochOp::Create { pid, path } => (*pid, path, true),
            EpochOp::Mkdir { pid, path } => (*pid, path, true),
            EpochOp::Unlink { pid, path } => (*pid, path, true),
        };
        let p = self.procs.get(pid).ok()?;
        let fgs = self.path_fgs(path, p.site, p.ctx.cwd)?;
        let mut sites = BTreeSet::from([p.site]);
        for &fg in &fgs {
            let (containers, css) = {
                let k = self.fsc.kernel(p.site);
                let m = k.mount.get(fg).ok()?;
                (m.containers.clone(), m.css)
            };
            sites.extend(containers.iter().map(|(_, s)| *s));
            sites.insert(css);
            // A mutating op's commit drains the filegroup's lease table at
            // the CSS: the holders receive their recalls as buffered posts
            // across the barrier, but the drain itself touches the rows,
            // so every current holder joins the mutating footprint.
            if mutates && self.fsc.coherence() == Coherence::Lease {
                sites.extend(self.fsc.kernel(css).lease_holder_sites_for(fg));
            }
        }
        Some(Footprint {
            sites,
            write_fgs: if mutates { fgs } else { Vec::new() },
        })
    }

    /// Executes a batch of independent operations as one virtual-time
    /// epoch, returning per-op results in submission order.
    ///
    /// Under the sequential engine (or whenever parallelism cannot
    /// preserve determinism — see the module docs) the ops simply run
    /// inline, in order. Under the parallel-epoch engine, ops with
    /// disjoint site footprints execute concurrently on site-sharded
    /// threads and merge at the barrier; the resulting trace, histograms,
    /// statistics and virtual clock are byte-identical to the sequential
    /// engine's. Both paths finish by draining background work
    /// ([`FsCluster::settle`]), so buffered posts — including the commit
    /// fan-out of mutating ops, which always crosses the barrier —
    /// deliver in the documented stamp order.
    ///
    /// While the batch is in flight the cluster is in *epoch mode*
    /// ([`FsCluster::set_epoch_stamp`]): commit notifications buffer on
    /// the run queues and committed mtimes stamp at the epoch boundary,
    /// on both engines alike.
    pub fn run_epoch(&self, ops: &[EpochOp]) -> Vec<SysResult<EpochOutcome>> {
        if ops.is_empty() {
            return Vec::new();
        }
        // Shards fork from idle timelines (see `exec_op`).
        self.net().wait_idle();
        self.fsc.set_epoch_stamp(Some(self.net().now()));
        let out = self.run_epoch_inner(ops);
        self.fsc.set_epoch_stamp(None);
        out
    }

    fn run_epoch_inner(&self, ops: &[EpochOp]) -> Vec<SysResult<EpochOutcome>> {
        let footprints: Option<Vec<Footprint>> =
            ops.iter().map(|op| self.footprint(op)).collect();
        // Group ops by overlapping site footprints; mutating ops on the
        // same filegroup are additionally unioned through a per-fg
        // anchor, so a filegroup has at most one writing shard (it is
        // also implied by the shared CSS site, but the discipline is
        // stated, not inferred).
        let by_root = footprints.as_ref().map(|fps| {
            let mut uf = SiteGroups::new(self.site_count());
            let mut fg_anchor: BTreeMap<FilegroupId, usize> = BTreeMap::new();
            for fp in fps {
                let mut it = fp.sites.iter();
                let first = it.next().expect("footprint always holds the pid site").index();
                for s in it {
                    uf.union(first, s.index());
                }
                for fg in &fp.write_fgs {
                    match fg_anchor.get(fg) {
                        Some(&a) => uf.union(first, a),
                        None => {
                            fg_anchor.insert(*fg, first);
                        }
                    }
                }
            }
            // BTreeMap iteration makes shard numbering deterministic.
            let mut by_root: BTreeMap<usize, (BTreeSet<SiteId>, Vec<usize>)> = BTreeMap::new();
            for (i, fp) in fps.iter().enumerate() {
                let root = uf.find(fp.sites.first().expect("non-empty").index());
                let e = by_root.entry(root).or_default();
                e.0.extend(fp.sites.iter().copied());
                e.1.push(i);
            }
            by_root
        });

        // The demotion reason is batch-intrinsic — identical on both
        // engines — because the note below enters the obs stream, which
        // must stay byte-identical. Engine *selection* is not a reason.
        let serial_reason = match &by_root {
            None => Some("hazard-path"),
            _ if self.net().has_unfired_fault_events() => Some("unfired-fault"),
            Some(groups) if groups.len() <= 1 => Some("single-group"),
            Some(_) => None,
        };
        if let Some(reason) = serial_reason {
            // Serial fallback used to be invisible in traces (no
            // settle.epoch span, no parallel_epochs tick): name it.
            self.net()
                .obs_note(SiteId(0), "settle.serial", reason, ops.len() as u64);
        }

        if serial_reason.is_some() || self.fsc.engine() != EngineKind::ParallelEpoch {
            // Serial path: inline, in submission order.
            let out = ops
                .iter()
                .map(|op| exec_op(&self.fsc, &self.procs, op))
                .collect();
            self.fsc.settle();
            return out;
        }
        let by_root = by_root.expect("checked above");

        // Parallel path: fork one shard per group, run groups on threads,
        // merge at the barrier in global submission order.
        self.fsc.note_parallel_epoch();
        let mut order = vec![(0usize, 0usize); ops.len()];
        let shards: Vec<(FsCluster, ProcMgr, Vec<usize>)> = by_root
            .into_values()
            .enumerate()
            .map(|(shard_idx, (sites, idxs))| {
                for (pos, &i) in idxs.iter().enumerate() {
                    order[i] = (shard_idx, pos);
                }
                (
                    self.fsc.fork_shard(&sites),
                    self.procs.split_sites(&sites),
                    idxs,
                )
            })
            .collect();
        let finished: Vec<ShardRun> = std::thread::scope(|s| {
            let handles: Vec<_> = shards
                .into_iter()
                .map(|(fsc, procs, idxs)| {
                    s.spawn(move || {
                        let mut marks = vec![fsc.net().op_mark()];
                        let mut post_marks = vec![fsc.post_seqs()];
                        let mut outs = Vec::with_capacity(idxs.len());
                        for &i in &idxs {
                            outs.push(exec_op(&fsc, &procs, &ops[i]));
                            marks.push(fsc.net().op_mark());
                            post_marks.push(fsc.post_seqs());
                        }
                        ShardRun {
                            fsc,
                            procs,
                            marks,
                            post_marks,
                            outs,
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("epoch shard panicked"))
                .collect()
        });

        // Per-op stamp shifts: the same walk Net::absorb_shards applies
        // to trace segments, precomputed here so shard posts re-base
        // onto the merged clock before they join the global run queues.
        let mut now = self.net().now();
        let mut shifts: Vec<Vec<Ticks>> = finished
            .iter()
            .map(|r| vec![Ticks::ZERO; r.marks.len() - 1])
            .collect();
        for &(s, j) in &order {
            let (m0, m1) = (finished[s].marks[j], finished[s].marks[j + 1]);
            shifts[s][j] = now - m0.now;
            now += m1.now - m0.now;
        }

        let mut results: Vec<Option<SysResult<EpochOutcome>>> = vec![None; ops.len()];
        let mut nets = Vec::with_capacity(finished.len());
        for (shard_idx, run) in finished.into_iter().enumerate() {
            self.procs.absorb(run.procs);
            nets.push((
                self.fsc
                    .absorb_shard_rebased(run.fsc, &run.post_marks, &shifts[shard_idx]),
                run.marks,
            ));
            let mut outs = run.outs.into_iter();
            for (i, slot) in order.iter().zip(results.iter_mut()) {
                if i.0 == shard_idx {
                    *slot = Some(outs.next().expect("one result per op"));
                }
            }
        }
        self.net().absorb_shards(nets, &order);
        self.fsc.settle();
        results
            .into_iter()
            .map(|r| r.expect("every op assigned to exactly one shard"))
            .collect()
    }
}

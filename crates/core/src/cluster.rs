//! The [`Cluster`]: one LOCUS network with a Unix-flavoured system-call
//! surface.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use locus_fs::build::FsClusterBuilder;
use locus_fs::device::{DeviceKind, DeviceState};
use locus_fs::mailbox::Mailbox;
use locus_fs::ops::{fd as fsfd, namei};
use locus_fs::proto::Fd;
use locus_fs::{FsCluster, PlacementDriver, PlacementPolicy, PlacementReport};
use locus_net::{LatencyModel, Net};
use locus_proc::{ExitStatus, ProcError, ProcMgr, Signal};
use locus_topology::MergeTimeouts;
use locus_txn::{TxnId, TxnMgr};
use locus_types::{Errno, FileType, Gfid, MachineType, OpenMode, Perms, Pid, SiteId, SysResult};

/// Builds a [`Cluster`].
///
/// Thin wrapper over the filesystem cluster builder plus process/
/// transaction managers and reconfiguration state.
pub struct ClusterBuilder {
    inner: FsClusterBuilder,
}

impl ClusterBuilder {
    /// Adds one site of the given machine type.
    pub fn site(mut self, machine: MachineType) -> Self {
        self.inner = self.inner.site(machine);
        self
    }

    /// Adds `n` VAX sites.
    pub fn vax_sites(mut self, n: usize) -> Self {
        self.inner = self.inner.vax_sites(n);
        self
    }

    /// Registers a filegroup (the first becomes the naming-tree root).
    pub fn filegroup(mut self, name: &str, container_sites: &[u32]) -> Self {
        self.inner = self.inner.filegroup(name, container_sites);
        self
    }

    /// Registers a filegroup mounted at `path`.
    pub fn filegroup_mounted(mut self, name: &str, container_sites: &[u32], path: &str) -> Self {
        self.inner = self.inner.filegroup_mounted(name, container_sites, path);
        self
    }

    /// Pins the initial CSS of the last-registered filegroup.
    pub fn css_at(mut self, site: u32) -> Self {
        self.inner = self.inner.css_at(site);
        self
    }

    /// Overrides the per-filegroup inode-number space.
    pub fn inos_per_fg(mut self, n: u32) -> Self {
        self.inner = self.inner.inos_per_fg(n);
        self
    }

    /// Overrides the network latency model.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.inner = self.inner.latency(latency);
        self
    }

    /// Overrides the per-pack block count.
    pub fn blocks_per_pack(mut self, n: u32) -> Self {
        self.inner = self.inner.blocks_per_pack(n);
        self
    }

    /// Overrides the page-transfer policy (paper-faithful per-page
    /// protocols by default).
    pub fn io_policy(mut self, policy: locus_fs::IoPolicy) -> Self {
        self.inner = self.inner.io_policy(policy);
        self
    }

    /// Enables the using-site name/attribute cache (off by default).
    pub fn name_cache(mut self, on: bool) -> Self {
        self.inner = self.inner.name_cache(on);
        self
    }

    /// Enables CSS-granted coherence leases on the name cache (off by
    /// default; implies [`Self::name_cache`]). Warm lookups then resolve
    /// with zero messages until the CSS recalls the lease.
    pub fn name_leases(mut self, on: bool) -> Self {
        self.inner = self.inner.name_leases(on);
        self
    }

    /// Selects the simulation engine explicitly, overriding the
    /// `LOCUS_ENGINE` environment variable (sequential when neither is
    /// given). Both engines produce byte-identical traces, histograms and
    /// statistics; parallel-epoch only changes wall-clock scheduling of
    /// [`Cluster::run_epoch`] batches.
    pub fn engine(mut self, engine: locus_net::EngineKind) -> Self {
        self.inner = self.inner.engine(engine);
        self
    }

    /// Builds the cluster.
    pub fn build(self) -> Cluster {
        let fsc = self.inner.build();
        let n = fsc.site_count() as u32;
        let all: BTreeSet<SiteId> = (0..n).map(SiteId).collect();
        let beliefs = (0..n).map(|i| (SiteId(i), all.clone())).collect();
        Cluster {
            fsc,
            procs: ProcMgr::new(),
            txns: TxnMgr::new(),
            beliefs: RefCell::new(beliefs),
            prev_up: RefCell::new(all),
            merge_timeouts: MergeTimeouts::default(),
            placement: RefCell::new(None),
        }
    }
}

/// One simulated LOCUS network: filesystem, processes, transactions,
/// reconfiguration state.
pub struct Cluster {
    pub(crate) fsc: FsCluster,
    pub(crate) procs: ProcMgr,
    pub(crate) txns: TxnMgr,
    /// Per-site partition sets Pα (the "site tables" of §5.4).
    pub(crate) beliefs: RefCell<BTreeMap<SiteId, BTreeSet<SiteId>>>,
    /// Sites that were up before the last reconfiguration.
    pub(crate) prev_up: RefCell<BTreeSet<SiteId>>,
    /// Merge-protocol timeout policy (§5.5).
    pub merge_timeouts: MergeTimeouts,
    /// Adaptive CSS placement driver, when enabled.
    pub(crate) placement: RefCell<Option<PlacementDriver>>,
}

impl Cluster {
    /// Starts building a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder {
            inner: FsClusterBuilder::new(),
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The underlying filesystem cluster (advanced/experiment use).
    pub fn fs(&self) -> &FsCluster {
        &self.fsc
    }

    /// The simulated network.
    pub fn net(&self) -> &Net {
        self.fsc.net()
    }

    /// The process manager.
    pub fn procs(&self) -> &ProcMgr {
        &self.procs
    }

    /// The transaction manager.
    pub fn txns(&self) -> &TxnMgr {
        &self.txns
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.fsc.site_count()
    }

    /// Drains background propagation work.
    pub fn settle(&self) {
        self.fsc.settle();
    }

    // ------------------------------------------------------------------
    // Adaptive CSS placement
    // ------------------------------------------------------------------

    /// Enables adaptive CSS placement with the given policy. Subsequent
    /// [`balance_css`](Self::balance_css) calls sample synchronization
    /// load and migrate overloaded or gray-failing roles.
    pub fn enable_placement(&self, policy: PlacementPolicy) {
        *self.placement.borrow_mut() = Some(PlacementDriver::new(policy));
    }

    /// Runs one placement step: sample per-site synchronization load,
    /// publish the `css.depth.*`/`css.handoffs` gauges, and migrate CSS
    /// roles per the placement policy. A no-op report when placement was
    /// never enabled.
    pub fn balance_css(&self) -> PlacementReport {
        match self.placement.borrow_mut().as_mut() {
            Some(d) => d.step(&self.fsc),
            None => PlacementReport::default(),
        }
    }

    /// Cumulative successful placement migrations.
    pub fn placement_migrations(&self) -> u64 {
        self.placement.borrow().as_ref().map_or(0, |d| d.migrations)
    }

    // ------------------------------------------------------------------
    // Processes
    // ------------------------------------------------------------------

    /// Creates an initial (login-shell) process on `site` for `uid`.
    pub fn login(&self, site: SiteId, uid: u32) -> SysResult<Pid> {
        self.procs.spawn_init(&self.fsc, site, uid)
    }

    /// `fork(2)` — local, or remote with `to`.
    pub fn fork(&self, pid: Pid, to: Option<SiteId>) -> SysResult<Pid> {
        self.procs.fork(&self.fsc, pid, to)
    }

    /// `exec(2)` with advice-driven site selection.
    pub fn exec(&self, pid: Pid, path: &str) -> SysResult<()> {
        self.procs.exec(&self.fsc, pid, path)
    }

    /// The LOCUS `run` call: fork+exec without the image copy (§3.1).
    pub fn run(&self, pid: Pid, path: &str, advice: &[SiteId]) -> SysResult<Pid> {
        self.procs.run(&self.fsc, pid, path, advice.to_vec())
    }

    /// Sets a process's execution-advice list.
    pub fn set_advice(&self, pid: Pid, advice: &[SiteId]) -> SysResult<()> {
        self.procs.set_advice(pid, advice.to_vec())
    }

    /// Sets a process's default replication factor (§2.3.7).
    pub fn set_ncopies(&self, pid: Pid, n: u32) -> SysResult<()> {
        self.procs.set_ncopies(pid, n)
    }

    /// Sends a signal (transparently across sites).
    pub fn kill(&self, from: Pid, target: Pid, sig: Signal) -> SysResult<()> {
        self.procs.kill(&self.fsc, from, target, sig)
    }

    /// Drains a process's pending signals.
    pub fn signals(&self, pid: Pid) -> SysResult<Vec<Signal>> {
        self.procs.take_signals(pid)
    }

    /// Interrogates distribution-error detail (§3.3's new system call).
    pub fn err_info(&self, pid: Pid) -> SysResult<Option<ProcError>> {
        self.procs.take_err_info(pid)
    }

    /// Terminates a process.
    pub fn exit(&self, pid: Pid, code: i32) -> SysResult<()> {
        self.procs.exit(&self.fsc, pid, code)
    }

    /// Reaps one exited child.
    pub fn wait(&self, pid: Pid) -> SysResult<Option<(Pid, ExitStatus)>> {
        self.procs.wait(pid)
    }

    /// Where a process currently executes.
    pub fn site_of(&self, pid: Pid) -> SysResult<SiteId> {
        self.procs.site_of(pid)
    }

    // ------------------------------------------------------------------
    // Files
    // ------------------------------------------------------------------

    fn pctx(&self, pid: Pid) -> SysResult<(SiteId, locus_fs::ProcFsCtx)> {
        let p = self.procs.get(pid)?;
        Ok((p.site, p.ctx))
    }

    /// Opens a file, returning a process-level descriptor.
    pub fn open(&self, pid: Pid, path: &str, mode: OpenMode) -> SysResult<u32> {
        self.procs.popen(&self.fsc, pid, path, mode)
    }

    /// Creates (or truncates) and opens a file for writing.
    pub fn creat(&self, pid: Pid, path: &str) -> SysResult<u32> {
        self.procs.pcreat(&self.fsc, pid, path)
    }

    /// Reads from a descriptor.
    pub fn read(&self, pid: Pid, fd: u32, n: usize) -> SysResult<Vec<u8>> {
        self.procs.pread(&self.fsc, pid, fd, n)
    }

    /// Writes to a descriptor.
    pub fn write(&self, pid: Pid, fd: u32, data: &[u8]) -> SysResult<usize> {
        self.procs.pwrite(&self.fsc, pid, fd, data)
    }

    /// Repositions a descriptor.
    pub fn lseek(&self, pid: Pid, fd: u32, pos: u64) -> SysResult<u64> {
        let (site, kfd) = self.kernel_fd(pid, fd)?;
        fsfd::lseek(&self.fsc, site, kfd, pos)
    }

    /// Commits a descriptor's pending modifications (§2.3.6).
    pub fn commit(&self, pid: Pid, fd: u32) -> SysResult<()> {
        let (site, kfd) = self.kernel_fd(pid, fd)?;
        fsfd::commit_fd(&self.fsc, site, kfd)
    }

    /// Closes a descriptor (committing written files).
    pub fn close(&self, pid: Pid, fd: u32) -> SysResult<()> {
        self.procs.pclose(&self.fsc, pid, fd)
    }

    /// The storage site currently serving a descriptor (experiment
    /// instrumentation: a descriptor served by its own site is a "local"
    /// access in the paper's sense).
    pub fn fd_storage_site(&self, pid: Pid, fd: u32) -> SysResult<SiteId> {
        let (site, kfd) = self.kernel_fd(pid, fd)?;
        Ok(self.fsc.kernel(site).fd(kfd)?.ss)
    }

    fn kernel_fd(&self, pid: Pid, fd: u32) -> SysResult<(SiteId, Fd)> {
        let p = self.procs.get(pid)?;
        let kfd = *p.fds.get(&fd).ok_or(Errno::Ebadf)?;
        Ok((p.site, kfd))
    }

    /// Changes the process's working directory; relative paths resolve
    /// from it afterwards.
    pub fn chdir(&self, pid: Pid, path: &str) -> SysResult<()> {
        let gfid = self.resolve(pid, path)?;
        let (site, _) = self.pctx(pid)?;
        let info = namei::stat_gfid(&self.fsc, site, gfid)?;
        if !info.ftype.is_directory_like() {
            return Err(Errno::Enotdir);
        }
        self.procs.with(pid, |p| p.ctx.cwd = gfid)
    }

    /// Demand recovery (§4.4): reconciles a single file "out of order to
    /// allow access to it with only a small delay", without waiting for
    /// the full filegroup pass. Returns the outcome.
    pub fn demand_recover(&self, pid: Pid, path: &str) -> SysResult<crate::FileOutcome> {
        let gfid = self.resolve(pid, path)?;
        let (site, _) = self.pctx(pid)?;
        let css = self.fsc.kernel(site).mount.css_of(gfid.fg)?;
        let mut report = locus_recovery::RecoveryReport::default();
        let outcome = locus_recovery::reconcile_file(&self.fsc, css, gfid, &mut report)?;
        self.fsc.settle();
        Ok(outcome)
    }

    /// Resolves a pathname.
    pub fn resolve(&self, pid: Pid, path: &str) -> SysResult<Gfid> {
        let (site, ctx) = self.pctx(pid)?;
        namei::resolve(&self.fsc, site, &ctx, path)
    }

    /// Creates a directory.
    pub fn mkdir(&self, pid: Pid, path: &str) -> SysResult<Gfid> {
        let (site, ctx) = self.pctx(pid)?;
        namei::create(
            &self.fsc,
            site,
            &ctx,
            path,
            FileType::Directory,
            Perms::DIR_DEFAULT,
        )
    }

    /// Creates a hidden directory (§2.4.1).
    pub fn mk_hidden_dir(&self, pid: Pid, path: &str) -> SysResult<Gfid> {
        let (site, ctx) = self.pctx(pid)?;
        namei::create(
            &self.fsc,
            site,
            &ctx,
            path,
            FileType::HiddenDirectory,
            Perms::DIR_DEFAULT,
        )
    }

    /// Creates a named pipe.
    pub fn mkfifo(&self, pid: Pid, path: &str) -> SysResult<Gfid> {
        let (site, ctx) = self.pctx(pid)?;
        namei::create(
            &self.fsc,
            site,
            &ctx,
            path,
            FileType::Pipe,
            Perms::FILE_DEFAULT,
        )
    }

    /// Creates a device special file homed at the calling process's site.
    pub fn mknod_device(&self, pid: Pid, path: &str, kind: DeviceKind) -> SysResult<Gfid> {
        let (site, ctx) = self.pctx(pid)?;
        let gfid = namei::create(
            &self.fsc,
            site,
            &ctx,
            path,
            FileType::Device,
            Perms::FILE_DEFAULT,
        )?;
        self.fsc
            .with_kernel(site, |k| k.register_device(gfid, DeviceState::new(kind)));
        Ok(gfid)
    }

    /// Removes a name (and the file, on its last link).
    pub fn unlink(&self, pid: Pid, path: &str) -> SysResult<()> {
        let (site, ctx) = self.pctx(pid)?;
        namei::unlink(&self.fsc, site, &ctx, path)
    }

    /// Creates a hard link.
    pub fn link(&self, pid: Pid, existing: &str, newpath: &str) -> SysResult<()> {
        let (site, ctx) = self.pctx(pid)?;
        namei::link(&self.fsc, site, &ctx, existing, newpath)
    }

    /// Renames within a filegroup.
    pub fn rename(&self, pid: Pid, from: &str, to: &str) -> SysResult<()> {
        let (site, ctx) = self.pctx(pid)?;
        namei::rename(&self.fsc, site, &ctx, from, to)
    }

    /// Lists a directory.
    pub fn readdir(&self, pid: Pid, path: &str) -> SysResult<Vec<String>> {
        let (site, ctx) = self.pctx(pid)?;
        Ok(namei::readdir(&self.fsc, site, &ctx, path)?
            .into_iter()
            .map(|(name, _)| name)
            .collect())
    }

    /// Stats a file.
    pub fn stat(&self, pid: Pid, path: &str) -> SysResult<locus_fs::proto::InodeInfo> {
        let (site, ctx) = self.pctx(pid)?;
        namei::stat(&self.fsc, site, &ctx, path)
    }

    /// Changes permission bits.
    pub fn chmod(&self, pid: Pid, path: &str, perms: Perms) -> SysResult<()> {
        let (site, ctx) = self.pctx(pid)?;
        let gfid = namei::resolve(&self.fsc, site, &ctx, path)?;
        namei::set_meta(
            &self.fsc,
            site,
            gfid,
            locus_fs::proto::MetaUpdate {
                perms: Some(perms),
                ..Default::default()
            },
        )
    }

    /// Convenience: whole-file write (create if needed, truncate,
    /// write, commit, close).
    pub fn write_file(&self, pid: Pid, path: &str, data: &[u8]) -> SysResult<()> {
        let fd = self.creat(pid, path)?;
        let r = self.write(pid, fd, data).map(|_| ());
        self.close(pid, fd)?;
        r
    }

    /// Convenience: whole-file read.
    pub fn read_file(&self, pid: Pid, path: &str) -> SysResult<Vec<u8>> {
        let fd = self.open(pid, path, OpenMode::Read)?;
        let r = self.read(pid, fd, 1 << 24);
        self.close(pid, fd)?;
        r?.pipe(Ok)
    }

    /// The live messages in `uid`'s mailbox, read from `site`.
    pub fn mailbox_of(&self, site: SiteId, uid: u32) -> SysResult<Vec<String>> {
        let pid = self.login(site, uid)?;
        let bytes = self.read_file(pid, &format!("/mail/u{uid}"))?;
        let mb = Mailbox::parse(&bytes)?;
        Ok(mb.live().map(|m| m.body.clone()).collect())
    }

    // ------------------------------------------------------------------
    // Transactions (nested, [MEUL 83])
    // ------------------------------------------------------------------

    /// Begins a top-level transaction at the process's site.
    pub fn txn_begin(&self, pid: Pid) -> SysResult<TxnId> {
        Ok(self.txns.begin(self.site_of(pid)?))
    }

    /// Begins a subtransaction at `site`.
    pub fn txn_sub(&self, parent: TxnId, site: SiteId) -> SysResult<TxnId> {
        self.txns.begin_sub(&self.fsc, parent, site)
    }

    /// Transactional whole-file write (staged until top-level commit).
    pub fn txn_write(&self, tid: TxnId, pid: Pid, path: &str, data: &[u8]) -> SysResult<()> {
        let gfid = self.resolve(pid, path)?;
        self.txns.write(&self.fsc, tid, gfid, data)
    }

    /// Commits a (sub)transaction.
    pub fn txn_commit(&self, tid: TxnId) -> SysResult<()> {
        self.txns.commit(&self.fsc, tid)
    }

    /// Aborts a (sub)transaction and its subtree.
    pub fn txn_abort(&self, tid: TxnId) -> SysResult<()> {
        self.txns.abort(&self.fsc, tid)
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Splits the network into the given groups (run
    /// [`reconfigure`](Self::reconfigure) afterwards, as the real system's
    /// protocol would fire automatically).
    pub fn partition(&self, groups: &[Vec<SiteId>]) {
        self.net().partition(groups);
    }

    /// Crashes a site.
    pub fn crash(&self, site: SiteId) {
        self.net().crash(site);
    }

    /// Heals all link failures.
    pub fn heal(&self) {
        self.net().heal();
    }

    /// Revives a crashed site (its storage intact, its volatile state —
    /// incore inodes, descriptors — lost, as after a reboot).
    pub fn revive(&self, site: SiteId) {
        self.net().revive(site);
    }
}

/// Small pipe-through helper so `read_file` can stay expression-shaped.
trait Pipe: Sized {
    fn pipe<R>(self, f: impl FnOnce(Self) -> R) -> R {
        f(self)
    }
}
impl<T> Pipe for T {}

//! The process manager: fork/exec/run, signals, wait/exit, and §5.6
//! failure handling.

use std::cell::RefCell;
use std::collections::BTreeMap;

use locus_fs::ops::fd as fsfd;
use locus_fs::ops::namei;
use locus_fs::proto::Fd;
use locus_fs::{FsCluster, ProcFsCtx};
use locus_net::RpcEngine;
use locus_storage::PAGE_SIZE;
use locus_types::{Errno, OpenMode, Pid, SiteId, SysResult, Ticks};

use crate::process::{ExitStatus, ProcError, ProcState, Process, Signal};
use crate::proto::{ProcMsg, CTRL_BYTES};

/// CPU cost of setting up a process body.
const SPAWN_CPU: Ticks = Ticks::micros(3_000);

/// The network-wide process table and process-level system calls.
///
/// One manager serves the whole simulated network; remote operations
/// charge message costs on the filesystem cluster's network, so process
/// traffic appears in the same statistics and traces.
pub struct ProcMgr {
    inner: RefCell<Inner>,
}

struct Inner {
    procs: BTreeMap<Pid, Process>,
    next_pid: u64,
}

impl Default for ProcMgr {
    fn default() -> Self {
        ProcMgr::new()
    }
}

impl ProcMgr {
    /// An empty process table.
    pub fn new() -> Self {
        ProcMgr {
            inner: RefCell::new(Inner {
                procs: BTreeMap::new(),
                next_pid: 1,
            }),
        }
    }

    /// Creates an initial (shell-like) process on `site`.
    pub fn spawn_init(&self, fsc: &FsCluster, site: SiteId, uid: u32) -> SysResult<Pid> {
        if !fsc.net().is_up(site) {
            return Err(Errno::Esitedown);
        }
        let root = fsc.kernel(site).mount.root()?;
        let machine = fsc.kernel(site).machine;
        let mut ctx = ProcFsCtx::new(root, machine);
        ctx.uid = uid;
        let mut g = self.inner.borrow_mut();
        let pid = Pid(g.next_pid);
        g.next_pid += 1;
        g.procs.insert(
            pid,
            Process {
                pid,
                parent: None,
                site,
                ctx,
                fds: BTreeMap::new(),
                advice: Vec::new(),
                state: ProcState::Running,
                pending: Vec::new(),
                err_info: None,
                load_module: None,
                image_pages: 16,
                children: Vec::new(),
            },
        );
        Ok(pid)
    }

    /// Immutable snapshot of a process.
    pub fn get(&self, pid: Pid) -> SysResult<Process> {
        self.inner
            .borrow()
            .procs
            .get(&pid)
            .cloned()
            .ok_or(Errno::Esrch)
    }

    /// Runs `f` on the process.
    pub fn with<R>(&self, pid: Pid, f: impl FnOnce(&mut Process) -> R) -> SysResult<R> {
        let mut g = self.inner.borrow_mut();
        let p = g.procs.get_mut(&pid).ok_or(Errno::Esrch)?;
        Ok(f(p))
    }

    /// The execution site of `pid`.
    pub fn site_of(&self, pid: Pid) -> SysResult<SiteId> {
        Ok(self.get(pid)?.site)
    }

    /// Sets the advice list controlling where new images execute ("that
    /// information, currently a structured advice list, can be set
    /// dynamically", §3.1).
    pub fn set_advice(&self, pid: Pid, advice: Vec<SiteId>) -> SysResult<()> {
        self.with(pid, |p| p.advice = advice)
    }

    /// Sets the default replication factor for files the process creates
    /// ("a new system call has been added to modify and interrogate this
    /// number", §2.3.7).
    pub fn set_ncopies(&self, pid: Pid, n: u32) -> SysResult<()> {
        self.with(pid, |p| p.ctx.ncopies = n)
    }

    /// `fork(2)`, possibly to a remote site. "In the case of a fork, the
    /// process address space, both code and data, must be made a copy of
    /// the parents'… the relevant set of process pages are sent to the new
    /// process site" (§3.1).
    pub fn fork(&self, fsc: &FsCluster, parent: Pid, to: Option<SiteId>) -> SysResult<Pid> {
        let at = self.site_of(parent).unwrap_or(SiteId(0));
        fsc.net()
            .span("proc", "fork", at, || self.fork_inner(fsc, parent, to))
    }

    fn fork_inner(&self, fsc: &FsCluster, parent: Pid, to: Option<SiteId>) -> SysResult<Pid> {
        let psnap = self.get(parent)?;
        if !psnap.alive() {
            return Err(Errno::Esrch);
        }
        let dest = to.unwrap_or(psnap.site);
        fsc.net().charge_cpu(SPAWN_CPU);
        if dest != psnap.site {
            // One RPC allocates the process body; serving it streams the
            // address-space pages to the new site, so the wire sees
            // FORK req · PROC page × N · FORK resp exactly as §3.1
            // describes — now with the shared retry/backoff underneath.
            let engine = RpcEngine::new(fsc.retry_policy());
            let pages = psnap.image_pages;
            engine
                .rpc(
                    fsc.net(),
                    psnap.site,
                    dest,
                    ProcMsg::ForkReq,
                    |_: &SysResult<()>| CTRL_BYTES,
                    |_| {
                        for _ in 0..pages {
                            engine
                                .one_way(fsc.net(), psnap.site, dest, ProcMsg::ProcPage, |_| ())
                                .map_err(|_| Errno::Esitedown)?;
                        }
                        Ok(())
                    },
                )
                .map_err(|_| Errno::Esitedown)??;
        }

        // Child inherits the environment: context, advice, descriptors
        // (shared, with offset tokens when crossing sites).
        let mut child_fds = BTreeMap::new();
        for (&no, &kfd) in &psnap.fds {
            let shared_fd = self.share_and_clone(fsc, psnap.site, kfd, dest)?;
            child_fds.insert(no, shared_fd);
        }
        let mut ctx = psnap.ctx.clone();
        ctx.contexts = vec![fsc.kernel(dest).machine.context_name().to_owned()];

        let mut g = self.inner.borrow_mut();
        let pid = Pid(g.next_pid);
        g.next_pid += 1;
        g.procs.insert(
            pid,
            Process {
                pid,
                parent: Some(parent),
                site: dest,
                ctx,
                fds: child_fds,
                advice: psnap.advice.clone(),
                state: ProcState::Running,
                pending: Vec::new(),
                err_info: None,
                load_module: psnap.load_module.clone(),
                image_pages: psnap.image_pages,
                children: Vec::new(),
            },
        );
        g.procs
            .get_mut(&parent)
            .expect("checked above")
            .children
            .push(pid);
        Ok(pid)
    }

    /// Shares a kernel descriptor and clones it to `dest` (no-op clone if
    /// local — the shared group still guarantees a single offset).
    fn share_and_clone(
        &self,
        fsc: &FsCluster,
        from: SiteId,
        kfd: Fd,
        dest: SiteId,
    ) -> SysResult<Fd> {
        fsfd::share_fd(fsc, from, kfd)?;
        if dest == from {
            Ok(kfd)
        } else {
            fsfd::clone_fd_to(fsc, from, kfd, dest)
        }
    }

    /// `exec(2)`: installs a new load module, choosing the execution site
    /// from the advice list. "If exec is to occur remotely, then the
    /// process is effectively moved at that time. By doing so it is
    /// feasible to support remote execution of programs intended for
    /// dissimilar cpu types" (§3.1).
    pub fn exec(&self, fsc: &FsCluster, pid: Pid, path: &str) -> SysResult<()> {
        let snap = self.get(pid)?;
        if !snap.alive() {
            return Err(Errno::Esrch);
        }
        let dest = self.choose_exec_site(fsc, &snap, path)?;
        if dest != snap.site {
            RpcEngine::new(fsc.retry_policy())
                .rpc(
                    fsc.net(),
                    snap.site,
                    dest,
                    ProcMsg::ExecReq,
                    |_: &()| CTRL_BYTES,
                    |_| (),
                )
                .map_err(|_| Errno::Esitedown)?;
        }

        // Read the machine-appropriate load module through the hidden
        // directory mechanism, *with the destination's context*.
        let mut ctx = snap.ctx.clone();
        ctx.contexts = vec![fsc.kernel(dest).machine.context_name().to_owned()];
        let module_fd = fsfd::open(fsc, dest, &ctx, path, OpenMode::Read)?;
        let image = fsfd::read(fsc, dest, module_fd, 1 << 20)?;
        fsfd::close(fsc, dest, module_fd)?;
        fsc.net().charge_cpu(SPAWN_CPU);

        // Moving the process: descriptors follow it (clone to dest).
        let mut moved_fds = snap.fds.clone();
        if dest != snap.site {
            for (_, kfd) in moved_fds.iter_mut() {
                *kfd = self.share_and_clone(fsc, snap.site, *kfd, dest)?;
            }
        }

        self.with(pid, |p| {
            p.site = dest;
            p.ctx = ctx;
            p.fds = moved_fds;
            p.load_module = Some(path.to_owned());
            p.image_pages = image.len().div_ceil(PAGE_SIZE).max(1);
        })
    }

    /// The `run` call: "similar to the effect of a fork followed by an
    /// exec … Run avoids the copy of the parent process image" (§3.1).
    /// Returns the new process.
    pub fn run(
        &self,
        fsc: &FsCluster,
        parent: Pid,
        path: &str,
        advice: Vec<SiteId>,
    ) -> SysResult<Pid> {
        let psnap = self.get(parent)?;
        if !psnap.alive() {
            return Err(Errno::Esrch);
        }
        fsc.net().charge_cpu(SPAWN_CPU);
        // Local fork without the image copy…
        let mut child_fds = BTreeMap::new();
        let mut probe = psnap.clone();
        probe.advice = if advice.is_empty() {
            psnap.advice.clone()
        } else {
            advice.clone()
        };
        // …then a remote exec at the chosen site.
        let dest = self.choose_exec_site(fsc, &probe, path)?;
        if dest != psnap.site {
            RpcEngine::new(fsc.retry_policy())
                .rpc(
                    fsc.net(),
                    psnap.site,
                    dest,
                    ProcMsg::RunReq,
                    |_: &()| CTRL_BYTES,
                    |_| (),
                )
                .map_err(|_| Errno::Esitedown)?;
        }
        for (&no, &kfd) in &psnap.fds {
            let shared_fd = self.share_and_clone(fsc, psnap.site, kfd, dest)?;
            child_fds.insert(no, shared_fd);
        }
        let mut ctx = psnap.ctx.clone();
        ctx.contexts = vec![fsc.kernel(dest).machine.context_name().to_owned()];
        let module_fd = fsfd::open(fsc, dest, &ctx, path, OpenMode::Read)?;
        let image = fsfd::read(fsc, dest, module_fd, 1 << 20)?;
        fsfd::close(fsc, dest, module_fd)?;

        let mut g = self.inner.borrow_mut();
        let pid = Pid(g.next_pid);
        g.next_pid += 1;
        g.procs.insert(
            pid,
            Process {
                pid,
                parent: Some(parent),
                site: dest,
                ctx,
                fds: child_fds,
                advice,
                state: ProcState::Running,
                pending: Vec::new(),
                err_info: None,
                load_module: Some(path.to_owned()),
                image_pages: image.len().div_ceil(PAGE_SIZE).max(1),
                children: Vec::new(),
            },
        );
        g.procs
            .get_mut(&parent)
            .expect("checked above")
            .children
            .push(pid);
        Ok(pid)
    }

    /// Picks the execution site: advice entries are tried in order; a site
    /// qualifies if it is reachable and the load module resolves under its
    /// machine context (the heterogeneous-CPU rule of §2.4.1/§3.1). With
    /// no advice, execution stays local ("LOCUS executes programs locally
    /// as the default", §6).
    fn choose_exec_site(&self, fsc: &FsCluster, p: &Process, path: &str) -> SysResult<SiteId> {
        let mut candidates = p.advice.clone();
        if candidates.is_empty() {
            candidates.push(p.site);
        }
        for site in candidates {
            if site != p.site && !fsc.net().reachable(p.site, site) {
                continue;
            }
            if !fsc.net().is_up(site) {
                continue;
            }
            let mut ctx = p.ctx.clone();
            ctx.contexts = vec![fsc.kernel(site).machine.context_name().to_owned()];
            if namei::resolve(fsc, site, &ctx, path).is_ok() {
                return Ok(site);
            }
        }
        Err(Errno::Enoent)
    }

    /// Opens a file on behalf of a process, recording it in the process
    /// descriptor table. Returns the process-level descriptor number.
    pub fn popen(&self, fsc: &FsCluster, pid: Pid, path: &str, mode: OpenMode) -> SysResult<u32> {
        let snap = self.get(pid)?;
        let kfd = fsfd::open(fsc, snap.site, &snap.ctx, path, mode)?;
        self.with(pid, |p| {
            let no = p.next_fd_no();
            p.fds.insert(no, kfd);
            no
        })
    }

    /// Creates and opens a file on behalf of a process.
    pub fn pcreat(&self, fsc: &FsCluster, pid: Pid, path: &str) -> SysResult<u32> {
        let snap = self.get(pid)?;
        let kfd = fsfd::creat(
            fsc,
            snap.site,
            &snap.ctx,
            path,
            locus_types::FileType::Untyped,
            locus_types::Perms::FILE_DEFAULT,
        )?;
        self.with(pid, |p| {
            let no = p.next_fd_no();
            p.fds.insert(no, kfd);
            no
        })
    }

    /// Reads through a process descriptor.
    pub fn pread(&self, fsc: &FsCluster, pid: Pid, no: u32, n: usize) -> SysResult<Vec<u8>> {
        let snap = self.get(pid)?;
        let kfd = *snap.fds.get(&no).ok_or(Errno::Ebadf)?;
        match fsfd::read(fsc, snap.site, kfd, n) {
            Err(Errno::Epipe) => Err(Errno::Epipe),
            other => other,
        }
    }

    /// Writes through a process descriptor; a broken pipe raises SIGPIPE
    /// exactly as on one machine (§2.4.2).
    pub fn pwrite(&self, fsc: &FsCluster, pid: Pid, no: u32, data: &[u8]) -> SysResult<usize> {
        let snap = self.get(pid)?;
        let kfd = *snap.fds.get(&no).ok_or(Errno::Ebadf)?;
        match fsfd::write(fsc, snap.site, kfd, data) {
            Err(Errno::Epipe) => {
                self.with(pid, |p| p.pending.push(Signal::Sigpipe))?;
                Err(Errno::Epipe)
            }
            other => other,
        }
    }

    /// Closes a process descriptor.
    pub fn pclose(&self, fsc: &FsCluster, pid: Pid, no: u32) -> SysResult<()> {
        let snap = self.get(pid)?;
        let kfd = *snap.fds.get(&no).ok_or(Errno::Ebadf)?;
        fsfd::close(fsc, snap.site, kfd)?;
        self.with(pid, |p| {
            p.fds.remove(&no);
        })
    }

    /// Sends a signal; crossing a machine boundary costs one message and
    /// has identical semantics (§2.4.2, §3.2).
    pub fn kill(&self, fsc: &FsCluster, from: Pid, target: Pid, sig: Signal) -> SysResult<()> {
        let from_site = self.site_of(from)?;
        fsc.net().span("proc", "kill", from_site, || {
            self.kill_inner(fsc, from_site, target, sig)
        })
    }

    fn kill_inner(
        &self,
        fsc: &FsCluster,
        from_site: SiteId,
        target: Pid,
        sig: Signal,
    ) -> SysResult<()> {
        let tsnap = self.get(target)?;
        if !tsnap.alive() {
            return Err(Errno::Esrch);
        }
        if tsnap.site != from_site {
            RpcEngine::new(fsc.retry_policy())
                .one_way(fsc.net(), from_site, tsnap.site, ProcMsg::Signal, |_| ())
                .map_err(|_| Errno::Esitedown)?;
        }
        self.with(target, |p| p.pending.push(sig))?;
        if sig == Signal::Sigkill {
            self.exit_with(fsc, target, ExitStatus::Signaled(Signal::Sigkill))?;
        }
        Ok(())
    }

    /// Takes (drains) a process's pending signals.
    pub fn take_signals(&self, pid: Pid) -> SysResult<Vec<Signal>> {
        self.with(pid, |p| std::mem::take(&mut p.pending))
    }

    /// Interrogates the distribution-error detail (§3.3's "new system
    /// call"), clearing it.
    pub fn take_err_info(&self, pid: Pid) -> SysResult<Option<ProcError>> {
        self.with(pid, |p| p.err_info.take())
    }

    /// Normal exit.
    pub fn exit(&self, fsc: &FsCluster, pid: Pid, code: i32) -> SysResult<()> {
        let at = self.site_of(pid).unwrap_or(SiteId(0));
        fsc.net().span("proc", "exit", at, || {
            self.exit_with(fsc, pid, ExitStatus::Exited(code))
        })
    }

    fn exit_with(&self, fsc: &FsCluster, pid: Pid, status: ExitStatus) -> SysResult<()> {
        let snap = self.get(pid)?;
        if !snap.alive() {
            return Ok(());
        }
        // Close all descriptors (committing written files, §2.3.6).
        for (_, kfd) in snap.fds.iter() {
            let _ = fsfd::close(fsc, snap.site, *kfd);
        }
        self.with(pid, |p| {
            p.fds.clear();
            p.state = ProcState::Zombie(status);
        })?;
        // Notify the parent (SIGCHLD), across the net if needed.
        if let Some(parent) = snap.parent {
            if let Ok(psite) = self.site_of(parent) {
                if psite != snap.site {
                    // Best-effort notification, but no longer silent: the
                    // engine retries under the cluster policy and records
                    // an abandoned send as a one-way loss for recovery's
                    // accounting (§4).
                    let _ = RpcEngine::new(fsc.retry_policy()).one_way(
                        fsc.net(),
                        snap.site,
                        psite,
                        ProcMsg::ExitNotify,
                        |_| (),
                    );
                }
                let _ = self.with(parent, |p| p.pending.push(Signal::Sigchld));
            }
        }
        Ok(())
    }

    /// `wait(2)`: reaps one zombie child. `Ok(None)` means children exist
    /// but none has exited yet; `Echild` means there is nothing to wait
    /// for.
    pub fn wait(&self, pid: Pid) -> SysResult<Option<(Pid, ExitStatus)>> {
        let snap = self.get(pid)?;
        if snap.children.is_empty() {
            return Err(Errno::Echild);
        }
        let mut g = self.inner.borrow_mut();
        let zombie = snap.children.iter().find_map(|c| {
            g.procs.get(c).and_then(|p| match p.state {
                ProcState::Zombie(st) => Some((p.pid, st)),
                ProcState::Running => None,
            })
        });
        match zombie {
            Some((cpid, st)) => {
                g.procs.remove(&cpid);
                let parent = g.procs.get_mut(&pid).ok_or(Errno::Esrch)?;
                parent.children.retain(|&c| c != cpid);
                Ok(Some((cpid, st)))
            }
            None => Ok(None),
        }
    }

    /// §5.6 cleanup, "interacting processes" table: when `failed` leaves
    /// the partition of `observer_partition`, every process on a surviving
    /// site with a child there gets an error signal and err-info; children
    /// of parents on the failed site are notified likewise; processes *on*
    /// the failed site become zombies with [`ExitStatus::SiteFailed`].
    /// Each notice is local to a survivor, so none crosses the network.
    pub fn handle_site_failure(&self, failed: SiteId) -> usize {
        let mut affected = 0;
        let pids: Vec<Pid> = self.inner.borrow().procs.keys().copied().collect();
        for pid in pids {
            let Ok(snap) = self.get(pid) else { continue };
            if snap.site == failed && snap.alive() {
                let _ = self.with(pid, |p| p.state = ProcState::Zombie(ExitStatus::SiteFailed));
                affected += 1;
                continue;
            }
            if !snap.alive() {
                continue;
            }
            // Parent loses a child: "when the child's machine fails, the
            // parent receives an error signal" (§3.3).
            for &c in &snap.children {
                if let Ok(cs) = self.get(c) {
                    if cs.site == failed {
                        let _ = self.with(pid, |p| {
                            p.pending.push(Signal::Sigchld);
                            p.err_info = Some(ProcError::ChildSiteFailed {
                                child: c,
                                site: failed,
                            });
                        });
                        affected += 1;
                    }
                }
            }
            // Child loses its parent: "when the parent's machine fails,
            // the child is notified in a similar manner" (§3.3).
            if let Some(parent) = snap.parent {
                if let Ok(ps) = self.get(parent) {
                    if ps.site == failed {
                        let _ = self.with(pid, |p| {
                            p.pending.push(Signal::Sighup);
                            p.err_info = Some(ProcError::ParentSiteFailed { site: failed });
                        });
                        affected += 1;
                    }
                }
            }
        }
        affected
    }

    /// §5.6 cleanup for a partition (rather than a crash): parent/child
    /// pairs split across partitions are notified in both directions, but
    /// processes stay alive in their own partitions. Returns the number of
    /// notifications delivered.
    pub fn handle_partition_split(&self, fsc: &FsCluster) -> usize {
        let mut notified = 0;
        let pids: Vec<Pid> = self.inner.borrow().procs.keys().copied().collect();
        for pid in pids {
            let Ok(snap) = self.get(pid) else { continue };
            if !snap.alive() {
                continue;
            }
            let Some(parent) = snap.parent else { continue };
            let Ok(ps) = self.get(parent) else { continue };
            if !ps.alive() || ps.site == snap.site {
                continue;
            }
            if fsc.net().reachable(ps.site, snap.site) {
                continue;
            }
            // "When the child's machine fails, the parent receives an
            // error signal" — and symmetrically for the child (§3.3).
            let _ = self.with(parent, |p| {
                p.pending.push(Signal::Sigchld);
                p.err_info = Some(ProcError::ChildSiteFailed {
                    child: pid,
                    site: snap.site,
                });
            });
            let _ = self.with(pid, |p| {
                p.pending.push(Signal::Sighup);
                p.err_info = Some(ProcError::ParentSiteFailed { site: ps.site });
            });
            notified += 2;
        }
        notified
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locus_fs::FsClusterBuilder;

    fn setup() -> (FsCluster, ProcMgr) {
        let fsc = FsClusterBuilder::new()
            .vax_sites(3)
            .filegroup("root", &[0, 1])
            .build();
        (fsc, ProcMgr::new())
    }

    #[test]
    fn init_fork_exit_wait() {
        let (fsc, pm) = setup();
        let init = pm.spawn_init(&fsc, SiteId(0), 0).unwrap();
        let child = pm.fork(&fsc, init, None).unwrap();
        assert_eq!(pm.site_of(child).unwrap(), SiteId(0));
        assert_eq!(pm.wait(init).unwrap(), None, "child still running");
        pm.exit(&fsc, child, 7).unwrap();
        let (reaped, st) = pm.wait(init).unwrap().unwrap();
        assert_eq!(reaped, child);
        assert_eq!(st, ExitStatus::Exited(7));
        assert_eq!(pm.wait(init).unwrap_err(), Errno::Echild);
    }

    #[test]
    fn remote_fork_copies_image_pages() {
        let (fsc, pm) = setup();
        let init = pm.spawn_init(&fsc, SiteId(0), 0).unwrap();
        fsc.net().reset_stats();
        let child = pm.fork(&fsc, init, Some(SiteId(2))).unwrap();
        assert_eq!(pm.site_of(child).unwrap(), SiteId(2));
        let st = fsc.net().stats();
        assert_eq!(st.sends("FORK req"), 1);
        assert_eq!(st.sends("PROC page"), 16, "parent image crossed the wire");
    }

    #[test]
    fn cross_site_signal_costs_one_message() {
        let (fsc, pm) = setup();
        let a = pm.spawn_init(&fsc, SiteId(0), 0).unwrap();
        let b = pm.spawn_init(&fsc, SiteId(1), 0).unwrap();
        fsc.net().reset_stats();
        pm.kill(&fsc, a, b, Signal::Sigusr1).unwrap();
        assert_eq!(fsc.net().stats().sends("SIGNAL"), 1);
        assert_eq!(pm.take_signals(b).unwrap(), vec![Signal::Sigusr1]);
        assert!(pm.take_signals(b).unwrap().is_empty(), "signals drain");
    }

    #[test]
    fn site_failure_notifies_both_directions() {
        let (fsc, pm) = setup();
        let parent = pm.spawn_init(&fsc, SiteId(0), 0).unwrap();
        let child = pm.fork(&fsc, parent, Some(SiteId(1))).unwrap();
        let grandchild = pm.fork(&fsc, child, Some(SiteId(2))).unwrap();
        fsc.net().crash(SiteId(1)); // kills `child`'s site
        pm.handle_site_failure(SiteId(1));
        // Parent sees the child error.
        assert_eq!(
            pm.take_err_info(parent).unwrap(),
            Some(ProcError::ChildSiteFailed {
                child,
                site: SiteId(1)
            })
        );
        assert_eq!(pm.take_signals(parent).unwrap(), vec![Signal::Sigchld]);
        // Grandchild sees the parent error.
        assert_eq!(
            pm.take_err_info(grandchild).unwrap(),
            Some(ProcError::ParentSiteFailed { site: SiteId(1) })
        );
        // The process on the failed site is a zombie with SiteFailed.
        assert_eq!(
            pm.get(child).unwrap().state,
            ProcState::Zombie(ExitStatus::SiteFailed)
        );
    }

    #[test]
    fn kill_sigkill_terminates() {
        let (fsc, pm) = setup();
        let a = pm.spawn_init(&fsc, SiteId(0), 0).unwrap();
        let b = pm.fork(&fsc, a, None).unwrap();
        pm.kill(&fsc, a, b, Signal::Sigkill).unwrap();
        let (_, st) = pm.wait(a).unwrap().unwrap();
        assert_eq!(st, ExitStatus::Signaled(Signal::Sigkill));
    }
}

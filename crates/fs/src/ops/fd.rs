//! File-descriptor system calls and the shared-offset token scheme.
//!
//! After a (possibly remote) fork, "the parent and child process share
//! open file descriptors (which contain current file position pointers)
//! … To implement this functionality across the network we keep a file
//! descriptor at each site, with only one valid at any time, using a token
//! scheme to determine which file descriptor is currently valid" (§3.1 and
//! footnote). The group's *home site* (where the descriptor was first
//! shared) tracks the current holder; a site touching the offset first
//! acquires the token, which recalls it from the previous holder.

use locus_storage::PAGE_SIZE;
use locus_types::{Errno, FileType, Gfid, OpenMode, Perms, SiteId, SysResult};

use crate::cluster::FsCluster;
use crate::cost;
use crate::device::{DeviceOp, DeviceReply};
use crate::kernel::{FdKind, OpenFile, ReadAhead, SharedHome};
use crate::ops::io::{device_call, get_page, get_page_batched, pipe_call, put_page_range};
use crate::ops::namei::{create, resolve, truncate_session_to};
use crate::ops::open::{close_ticket, open_gfid};
use crate::ops::{commit, OpenTicket};
use crate::pipe::{PipeOp, PipeReply};
use crate::proto::{Fd, FsMsg, FsReply, ProcFsCtx, SharedFdId};

/// Opens a path and returns a descriptor.
pub fn open(
    fsc: &FsCluster,
    site: SiteId,
    ctx: &ProcFsCtx,
    path: &str,
    mode: OpenMode,
) -> SysResult<Fd> {
    crate::kernel::FsKernel::check_external_mode(mode)?;
    let gfid = resolve(fsc, site, ctx, path)?;
    open_fd_gfid(fsc, site, gfid, mode)
}

/// Opens a file by identifier and returns a descriptor.
pub fn open_fd_gfid(fsc: &FsCluster, site: SiteId, gfid: Gfid, mode: OpenMode) -> SysResult<Fd> {
    let t = open_gfid(fsc, site, gfid, mode)?;
    let kind = match t.info.ftype {
        FileType::Pipe => {
            let reader = !mode.is_write();
            pipe_call(fsc, site, t.ss, gfid, PipeOp::Attach(reader))?;
            FdKind::Pipe { reader }
        }
        FileType::Device => FdKind::Device,
        _ => FdKind::File,
    };
    let of = OpenFile {
        gfid,
        mode,
        offset: 0,
        ss: t.ss,
        info: t.info,
        kind,
        shared: None,
        shared_home: site,
        wrote: false,
        error: None,
        ra: ReadAhead::default(),
    };
    Ok(fsc.kernel(site).alloc_fd(of))
}

/// `creat(2)`: creates (or truncates) a file and opens it for writing.
pub fn creat(
    fsc: &FsCluster,
    site: SiteId,
    ctx: &ProcFsCtx,
    path: &str,
    ftype: FileType,
    perms: Perms,
) -> SysResult<Fd> {
    let gfid = match resolve(fsc, site, ctx, path) {
        Ok(g) => g,
        Err(Errno::Enoent) => create(fsc, site, ctx, path, ftype, perms)?,
        Err(e) => return Err(e),
    };
    let fd = open_fd_gfid(fsc, site, gfid, OpenMode::Write)?;
    let (ss, size) = {
        let k = fsc.kernel(site);
        let of = k.fd(fd)?;
        (of.ss, of.info.size)
    };
    if size > 0 {
        let t = ticket_of(fsc, site, fd)?;
        truncate_session_to(fsc, site, &t, 0)?;
        let mut k = fsc.kernel(site);
        let of = k.fd_mut(fd)?;
        of.info.size = 0;
        of.wrote = true;
        debug_assert_eq!(of.ss, ss);
    }
    Ok(fd)
}

/// Rebuilds an [`OpenTicket`] from a descriptor for the internal helpers.
fn ticket_of(fsc: &FsCluster, site: SiteId, fd: Fd) -> SysResult<OpenTicket> {
    let k = fsc.kernel(site);
    let of = k.fd(fd)?;
    Ok(OpenTicket {
        gfid: of.gfid,
        ss: of.ss,
        write: of.mode.is_write(),
        bypass: false,
        unsync: false,
        info: of.info.clone(),
    })
}

/// Reads up to `n` bytes at the descriptor's offset.
pub fn read(fsc: &FsCluster, site: SiteId, fd: Fd, n: usize) -> SysResult<Vec<u8>> {
    fsc.with_span("read", site, || read_inner(fsc, site, fd, n))
}

fn read_inner(fsc: &FsCluster, site: SiteId, fd: Fd, n: usize) -> SysResult<Vec<u8>> {
    fsc.net().charge_cpu_at(site, cost::SYSCALL_CPU);
    ensure_token(fsc, site, fd)?;
    let (gfid, ss, offset, size, kind) = {
        let k = fsc.kernel(site);
        let of = k.fd(fd)?;
        if let Some(e) = of.error {
            return Err(e);
        }
        (of.gfid, of.ss, of.offset, of.info.size, of.kind.clone())
    };
    match kind {
        FdKind::Pipe { reader } => {
            if !reader {
                return Err(Errno::Ebadf);
            }
            match pipe_call(fsc, site, ss, gfid, PipeOp::Read(n))? {
                PipeReply::Data { bytes, eof } => {
                    if bytes.is_empty() && !eof {
                        Err(Errno::Eagain)
                    } else {
                        Ok(bytes)
                    }
                }
                _ => Err(Errno::Eio),
            }
        }
        FdKind::Device => match device_call(fsc, site, ss, gfid, DeviceOp::Read(n))? {
            DeviceReply::Data(bytes) => Ok(bytes),
            _ => Err(Errno::Eio),
        },
        FdKind::File => {
            if offset >= size {
                return Ok(Vec::new());
            }
            let policy = fsc.io_policy();
            // Adaptive readahead (batched mode): sequential access keeps
            // the window accumulated so far; a seek resets it to one page.
            let mut window = 1usize;
            if policy.batched_reads {
                let k = fsc.kernel(site);
                let ra = k.fd(fd)?.ra;
                window = if offset == ra.next { ra.window } else { 1 };
            }
            let end = (offset + n as u64).min(size);
            let npages = (size as usize).div_ceil(PAGE_SIZE);
            let mut out = Vec::with_capacity((end - offset) as usize);
            let mut pos = offset;
            let mut ss = ss;
            while pos < end {
                let lpn = (pos / PAGE_SIZE as u64) as usize;
                let in_off = (pos % PAGE_SIZE as u64) as usize;
                let take = ((PAGE_SIZE - in_off) as u64).min(end - pos) as usize;
                let page = if policy.batched_reads {
                    let (page, fetched) =
                        match get_page_batched(fsc, site, gfid, ss, lpn, window, npages) {
                            Ok(r) => r,
                            Err(Errno::Esitedown) => {
                                // A mid-batch SS crash: re-run the open
                                // protocol and retry the remaining window
                                // against a surviving replica.
                                ss = reselect_ss(fsc, site, fd, gfid, ss)?;
                                get_page_batched(fsc, site, gfid, ss, lpn, window, npages)?
                            }
                            Err(e) => return Err(e),
                        };
                    if fetched > 0 {
                        // A transfer really crossed the network: the run
                        // is sequential, so double the window up to the
                        // policy cap.
                        window = (window * 2).min(policy.max_read_window);
                    }
                    page
                } else {
                    match get_page(fsc, site, gfid, ss, lpn, npages) {
                        Ok(p) => p,
                        Err(Errno::Esitedown) => {
                            // The SS dropped out mid-read: degrade gracefully
                            // by re-running the open protocol to select
                            // another reachable storage site for the
                            // remaining pages, instead of failing the read.
                            ss = reselect_ss(fsc, site, fd, gfid, ss)?;
                            get_page(fsc, site, gfid, ss, lpn, npages)?
                        }
                        Err(e) => return Err(e),
                    }
                };
                out.extend_from_slice(&page[in_off..in_off + take]);
                pos += take as u64;
            }
            let mut k = fsc.kernel(site);
            let of = k.fd_mut(fd)?;
            of.offset = end;
            if policy.batched_reads {
                of.ra = crate::kernel::ReadAhead { next: end, window };
            }
            Ok(out)
        }
    }
}

/// Storage-site failover for an ongoing read (§5.6 spirit: a partition
/// change aborts the circuit, but the *system call* recovers where a
/// replica remains reachable). Runs the open protocol again — the CSS
/// polls the surviving packs — and repoints the descriptor at the new SS.
fn reselect_ss(
    fsc: &FsCluster,
    site: SiteId,
    fd: Fd,
    gfid: Gfid,
    failed: SiteId,
) -> SysResult<SiteId> {
    let t = open_gfid(fsc, site, gfid, OpenMode::Read)?;
    // Only the site selection is needed; release the extra registration.
    let _ = close_ticket(fsc, site, &t);
    if t.ss == failed {
        return Err(Errno::Esitedown);
    }
    let mut k = fsc.kernel(site);
    k.fd_mut(fd)?.ss = t.ss;
    Ok(t.ss)
}

/// Writes `data` at the descriptor's offset.
pub fn write(fsc: &FsCluster, site: SiteId, fd: Fd, data: &[u8]) -> SysResult<usize> {
    fsc.with_span("write", site, || write_inner(fsc, site, fd, data))
}

fn write_inner(fsc: &FsCluster, site: SiteId, fd: Fd, data: &[u8]) -> SysResult<usize> {
    fsc.net().charge_cpu_at(site, cost::SYSCALL_CPU);
    ensure_token(fsc, site, fd)?;
    let (gfid, ss, offset, size, kind, mode) = {
        let k = fsc.kernel(site);
        let of = k.fd(fd)?;
        if let Some(e) = of.error {
            return Err(e);
        }
        (
            of.gfid,
            of.ss,
            of.offset,
            of.info.size,
            of.kind.clone(),
            of.mode,
        )
    };
    match kind {
        FdKind::Pipe { reader } => {
            if reader {
                return Err(Errno::Ebadf);
            }
            match pipe_call(fsc, site, ss, gfid, PipeOp::Write(data.to_vec()))? {
                PipeReply::Wrote { accepted } => Ok(accepted),
                PipeReply::Broken => Err(Errno::Epipe),
                _ => Err(Errno::Eio),
            }
        }
        FdKind::Device => match device_call(fsc, site, ss, gfid, DeviceOp::Write(data.to_vec()))? {
            DeviceReply::Wrote(n) => Ok(n),
            _ => Err(Errno::Eio),
        },
        FdKind::File => {
            if !mode.is_write() {
                return Err(Errno::Ebadf);
            }
            let new_size = put_page_range(fsc, site, gfid, ss, offset, data, size)?;
            let mut k = fsc.kernel(site);
            let of = k.fd_mut(fd)?;
            of.offset = offset + data.len() as u64;
            of.info.size = new_size;
            of.wrote = true;
            Ok(data.len())
        }
    }
}

/// Repositions the descriptor offset. A seek is a write-behind window
/// boundary: pending buffered pages flush to the SS first.
pub fn lseek(fsc: &FsCluster, site: SiteId, fd: Fd, pos: u64) -> SysResult<u64> {
    fsc.net().charge_cpu_at(site, cost::SYSCALL_CPU);
    ensure_token(fsc, site, fd)?;
    let gfid = fsc.kernel(site).fd(fd)?.gfid;
    crate::ops::io::flush_write_behind(fsc, site, gfid)?;
    let mut k = fsc.kernel(site);
    k.fd_mut(fd)?.offset = pos;
    Ok(pos)
}

/// Commits the descriptor's pending modifications (§2.3.6).
pub fn commit_fd(fsc: &FsCluster, site: SiteId, fd: Fd) -> SysResult<()> {
    let (gfid, ss) = {
        let k = fsc.kernel(site);
        let of = k.fd(fd)?;
        if !of.mode.is_write() {
            return Err(Errno::Ebadf);
        }
        (of.gfid, of.ss)
    };
    let info = commit::commit_at(fsc, site, gfid, ss, None)?;
    let mut k = fsc.kernel(site);
    let of = k.fd_mut(fd)?;
    of.info = info;
    of.wrote = false;
    Ok(())
}

/// Discards the descriptor's pending modifications back to the last
/// commit point.
pub fn abort_fd(fsc: &FsCluster, site: SiteId, fd: Fd) -> SysResult<()> {
    let (gfid, ss) = {
        let k = fsc.kernel(site);
        let of = k.fd(fd)?;
        (of.gfid, of.ss)
    };
    // `abort_at` drops the buffered-but-unsent pages with the session.
    commit::abort_at(fsc, site, gfid, ss)?;
    let mut k = fsc.kernel(site);
    // "Back to the previous commit point" includes the size the aborted
    // writes grew the descriptor to.
    let committed = k.incore_get(gfid).map(|inc| inc.info.clone());
    let of = k.fd_mut(fd)?;
    if let Some(info) = committed {
        of.info = info;
    }
    of.wrote = false;
    Ok(())
}

/// Closes a descriptor; "closing a file commits it" (§2.3.6).
pub fn close(fsc: &FsCluster, site: SiteId, fd: Fd) -> SysResult<()> {
    // Surrender a held token before the descriptor disappears.
    release_token_on_close(fsc, site, fd)?;
    let of = fsc.kernel(site).take_fd(fd)?;
    match of.kind {
        FdKind::Pipe { reader } => {
            let _ = pipe_call(fsc, site, of.ss, of.gfid, PipeOp::Detach(reader));
        }
        FdKind::Device | FdKind::File => {}
    }
    // A failed commit must not short-circuit the close: the descriptor is
    // gone either way, and skipping the release legs would strand the
    // CSS write slot and the SS session until a reconfiguration sweeps
    // them. Release everything, then report the commit's error.
    let committed = if of.wrote {
        commit::commit_at(fsc, site, of.gfid, of.ss, None).map(|_| ())
    } else {
        Ok(())
    };
    let t = OpenTicket {
        gfid: of.gfid,
        ss: of.ss,
        write: of.mode.is_write(),
        bypass: false,
        unsync: false,
        info: of.info,
    };
    let released = close_ticket(fsc, site, &t);
    committed.and(released)
}

/// Marks a descriptor as shared (the fork path calls this before cloning
/// it to the child's site). This site becomes the group's home and the
/// initial token holder.
pub fn share_fd(fsc: &FsCluster, site: SiteId, fd: Fd) -> SysResult<SharedFdId> {
    let id = fsc.next_shared.get();
    fsc.next_shared.set(id + 1);
    let mut k = fsc.kernel(site);
    let offset = {
        let of = k.fd_mut(fd)?;
        if let Some(existing) = of.shared {
            return Ok(existing);
        }
        of.shared = Some(id);
        of.shared_home = site;
        of.offset
    };
    k.shared_home.insert(
        id,
        SharedHome {
            holder: site,
            offset,
        },
    );
    k.token_held.insert(id, fd);
    Ok(id)
}

/// Clones a shared descriptor to another site (fork inheritance). The
/// clone is registered as a reader at the CSS; cross-site *write* sharing
/// is not modelled (see DESIGN.md non-goals) — the clone reads and seeks
/// through the shared offset token.
pub fn clone_fd_to(fsc: &FsCluster, from: SiteId, fd: Fd, to: SiteId) -> SysResult<Fd> {
    let src = fsc.kernel(from).fd(fd)?.clone();
    let id = src.shared.ok_or(Errno::Einval)?;
    match src.kind {
        FdKind::Pipe { reader } => {
            pipe_call(fsc, to, src.ss, src.gfid, PipeOp::Attach(reader))?;
            let of = OpenFile {
                ss: src.ss,
                offset: 0,
                shared: Some(id),
                shared_home: src.shared_home,
                wrote: false,
                ..src
            };
            Ok(fsc.kernel(to).alloc_fd(of))
        }
        FdKind::Device => {
            let of = OpenFile {
                offset: 0,
                shared: Some(id),
                shared_home: src.shared_home,
                wrote: false,
                ..src
            };
            Ok(fsc.kernel(to).alloc_fd(of))
        }
        FdKind::File => {
            let t = open_gfid(fsc, to, src.gfid, OpenMode::Read)?;
            let of = OpenFile {
                gfid: src.gfid,
                mode: OpenMode::Read,
                offset: src.offset,
                ss: t.ss,
                info: t.info,
                kind: FdKind::File,
                shared: Some(id),
                shared_home: src.shared_home,
                wrote: false,
                error: None,
                ra: ReadAhead::default(),
            };
            Ok(fsc.kernel(to).alloc_fd(of))
        }
    }
}

/// Ensures this site holds the offset token for `fd`'s shared group.
pub(crate) fn ensure_token(fsc: &FsCluster, site: SiteId, fd: Fd) -> SysResult<()> {
    let (id, home) = {
        let k = fsc.kernel(site);
        let of = k.fd(fd)?;
        match of.shared {
            None => return Ok(()),
            Some(id) => (id, of.shared_home),
        }
    };
    if fsc.kernel(site).token_held.contains_key(&id) {
        return Ok(());
    }
    let offset = if home == site {
        // We are the home: recall from the current holder directly.
        let holder = {
            let k = fsc.kernel(site);
            k.shared_home.get(&id).ok_or(Errno::Einval)?.holder
        };
        if holder == site {
            fsc.kernel(site).shared_home[&id].offset
        } else {
            let offset = match fsc.rpc(site, holder, FsMsg::TokenRecall { id }) {
                Ok(FsReply::TokenSurrendered { offset }) => offset,
                // Holder unreachable: §5.6 cleanup will fix its state;
                // fall back to the last offset synchronized at home.
                _ => fsc.kernel(site).shared_home[&id].offset,
            };
            offset
        }
    } else {
        match fsc.rpc(
            site,
            home,
            FsMsg::TokenAcquire {
                id,
                requester: site,
            },
        )? {
            FsReply::TokenGranted { offset } => offset,
            _ => return Err(Errno::Eio),
        }
    };
    let mut k = fsc.kernel(site);
    if home == site {
        if let Some(sh) = k.shared_home.get_mut(&id) {
            sh.holder = site;
            sh.offset = offset;
        }
    }
    k.token_held.insert(id, fd);
    k.fd_mut(fd)?.offset = offset;
    Ok(())
}

/// Hands a held token back to the home site when the holder closes.
fn release_token_on_close(fsc: &FsCluster, site: SiteId, fd: Fd) -> SysResult<()> {
    let (id, home, offset) = {
        let k = fsc.kernel(site);
        let of = k.fd(fd)?;
        match of.shared {
            None => return Ok(()),
            Some(id) => (id, of.shared_home, of.offset),
        }
    };
    let held = fsc.kernel(site).token_held.remove(&id).is_some();
    if !held {
        return Ok(());
    }
    if home == site {
        let mut k = fsc.kernel(site);
        if let Some(sh) = k.shared_home.get_mut(&id) {
            sh.holder = site;
            sh.offset = offset;
        }
    } else {
        let _ = fsc.rpc(site, home, FsMsg::TokenGive { id, offset });
    }
    Ok(())
}

/// Home-site handler: grant the token to `requester`, recalling it from
/// the current holder first.
pub(crate) fn handle_token_acquire(
    fsc: &FsCluster,
    home: SiteId,
    id: SharedFdId,
    requester: SiteId,
) -> SysResult<FsReply> {
    fsc.net().charge_cpu_at(home, cost::CONTROL_CPU);
    let holder = {
        let k = fsc.kernel(home);
        k.shared_home.get(&id).ok_or(Errno::Einval)?.holder
    };
    let offset = if holder == home {
        let mut k = fsc.kernel(home);
        match k.token_held.remove(&id) {
            Some(local_fd) => k.fd(local_fd)?.offset,
            None => k.shared_home[&id].offset,
        }
    } else if holder == requester {
        fsc.kernel(home).shared_home[&id].offset
    } else {
        match fsc.rpc(home, holder, FsMsg::TokenRecall { id }) {
            Ok(FsReply::TokenSurrendered { offset }) => offset,
            _ => fsc.kernel(home).shared_home[&id].offset,
        }
    };
    let mut k = fsc.kernel(home);
    if let Some(sh) = k.shared_home.get_mut(&id) {
        sh.holder = requester;
        sh.offset = offset;
    }
    Ok(FsReply::TokenGranted { offset })
}

/// Holder-side handler: surrender the token with the current offset.
pub(crate) fn handle_token_recall(
    fsc: &FsCluster,
    holder: SiteId,
    id: SharedFdId,
) -> SysResult<FsReply> {
    fsc.net().charge_cpu_at(holder, cost::CONTROL_CPU);
    let mut k = fsc.kernel(holder);
    match k.token_held.remove(&id) {
        Some(fd) => {
            let offset = k.fd(fd)?.offset;
            Ok(FsReply::TokenSurrendered { offset })
        }
        None => Err(Errno::Eagain),
    }
}

/// Home-site handler for a departing holder's final offset.
pub(crate) fn handle_token_give(
    fsc: &FsCluster,
    home: SiteId,
    id: SharedFdId,
    offset: u64,
) -> SysResult<FsReply> {
    fsc.net().charge_cpu_at(home, cost::CONTROL_CPU);
    let mut k = fsc.kernel(home);
    if let Some(sh) = k.shared_home.get_mut(&id) {
        sh.holder = home;
        sh.offset = offset;
    }
    Ok(FsReply::Ok)
}

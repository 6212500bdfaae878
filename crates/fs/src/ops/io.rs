//! Page read/write protocols, pipes and devices (§2.3.3, §2.3.5, §2.4.2).

use locus_storage::PAGE_SIZE;
use locus_types::{Errno, FilegroupId, Gfid, PackId, SiteId, SysResult, Ticks};

use crate::cluster::FsCluster;
use crate::cost;
use crate::device::{DeviceOp, DeviceReply};
use crate::kernel::FsKernel;
use crate::pipe::{PipeOp, PipeReply};
use crate::proto::{FsMsg, FsReply};

/// Sentinel pack id under which remotely fetched pages are cached at a
/// using site (which holds no physical container for them).
pub(crate) fn net_cache_pack(fg: FilegroupId) -> PackId {
    PackId::new(fg, u32::MAX)
}

/// True when an open modification session exists and belongs to
/// `requester` — the only case a read may be served from shadow pages.
/// Everyone else (propagation pulls, other opens) reads the committed
/// version: an orphaned session must never leak uncommitted pages.
fn serves_session(k: &FsKernel, requester: SiteId, gfid: Gfid) -> bool {
    k.writer_of(gfid) == Some(requester)
}

/// Reads one page at a site that stores the file, serving the writer's
/// own uncommitted shadow pages when its modification session is open.
pub(crate) fn local_read_page(
    k: &mut FsKernel,
    requester: SiteId,
    gfid: Gfid,
    lpn: usize,
) -> SysResult<Vec<u8>> {
    if serves_session(k, requester, gfid) {
        let (sess, pack) = k.session_mut(requester, gfid)?;
        return sess.read_page(pack, lpn);
    }
    let pack = k.pack_of(gfid.fg).ok_or(Errno::Enocopy)?;
    pack.read_page(gfid.ino, lpn)
}

/// Reads one page locally *through the kernel buffer cache* ("all such
/// requests are serviced via kernel buffers", §2.3.3). Session-served
/// pages bypass the cache in both directions (they are not committed
/// content); committed pages are cacheable even while a session is open,
/// since the session only becomes visible at commit — which installs its
/// pages in the cache ([`FsKernel::commit_session`]).
pub(crate) fn cached_local_page(
    k: &mut FsKernel,
    requester: SiteId,
    gfid: Gfid,
    lpn: usize,
) -> SysResult<Vec<u8>> {
    if !serves_session(k, requester, gfid) {
        if let Some(pack_id) = k.pack_of(gfid.fg).map(|p| p.id()) {
            if let Some(data) = k.cache.get(&(pack_id, gfid.ino, lpn)) {
                return Ok(data);
            }
            let data = local_read_page(k, requester, gfid, lpn)?;
            k.cache.put((pack_id, gfid.ino, lpn), data.clone());
            return Ok(data);
        }
    }
    local_read_page(k, requester, gfid, lpn)
}

/// Fetches one logical page for a US, through the cache; `npages` bounds
/// the one-page readahead (§2.3.3).
pub fn get_page(
    fsc: &FsCluster,
    us: SiteId,
    gfid: Gfid,
    ss: SiteId,
    lpn: usize,
    npages: usize,
) -> SysResult<Vec<u8>> {
    if ss == us {
        let mut k = fsc.kernel(us);
        let data = cached_local_page(&mut k, us, gfid, lpn)?;
        let io = k.take_io(gfid.fg);
        // Local one-page readahead for sequential access: asynchronous,
        // so the reader does not wait for its disk time, but the disk is
        // busy with it from the moment the demanded page is in.
        if lpn + 1 < npages {
            let _ = cached_local_page(&mut k, us, gfid, lpn + 1);
        }
        let ahead = k.take_io(gfid.fg);
        drop(k);
        if io > Ticks::ZERO {
            fsc.net().charge_disk_at(us, io);
        }
        if ahead > Ticks::ZERO {
            fsc.net().queue_disk_at(us, ahead);
        }
        fsc.net().charge_cpu_at(us, cost::PAGE_SERVICE_CPU);
        return Ok(data);
    }

    // Remote page: check the network cache, then run the two-message read
    // protocol ("US -> SS request for page x of file y; SS -> US response").
    if let Some(data) = buffered_remote_page(fsc, us, gfid, lpn) {
        return Ok(data);
    }
    fsc.net().charge_cpu_at(us, cost::REMOTE_SETUP_CPU);
    let reply = fsc.rpc(
        us,
        ss,
        FsMsg::ReadPage {
            gfid,
            lpn,
            guess: 0,
        },
    )?;
    let FsReply::Page { data } = reply else {
        return Err(Errno::Eio);
    };
    cache_fetched(&mut fsc.kernel(us), gfid, lpn, data.clone());
    // Readahead "both at the SS, as well as across the network" (§2.3.3).
    if lpn + 1 < npages {
        let next_key = (net_cache_pack(gfid.fg), gfid.ino, lpn + 1);
        let need = !fsc.kernel(us).cache.contains(&next_key);
        if need {
            if let Ok(FsReply::Page { data: next }) = fsc.rpc(
                us,
                ss,
                FsMsg::ReadPage {
                    gfid,
                    lpn: lpn + 1,
                    guess: 0,
                },
            ) {
                cache_fetched(&mut fsc.kernel(us), gfid, lpn + 1, next);
            }
        }
    }
    Ok(data)
}

/// Serves a page of a remotely stored file from this site's own buffers:
/// the image it staged for its open modification session (read-your-
/// writes without a round trip), else the network-keyed cache.
fn buffered_remote_page(fsc: &FsCluster, us: SiteId, gfid: Gfid, lpn: usize) -> Option<Vec<u8>> {
    let mut k = fsc.kernel(us);
    let (staged, cut) = k.staged.get(&gfid).map_or((None, false), |s| {
        (s.pages.get(&lpn).cloned(), lpn >= s.npages)
    });
    let data = match staged {
        Some(page) => page,
        // Truncated away in this session and not rewritten: whatever the
        // cache holds for it is the old version's page.
        None if cut => return None,
        None => k.cache.get(&(net_cache_pack(gfid.fg), gfid.ino, lpn))?,
    };
    // Buffer hits still cost the copy out of the kernel buffer.
    fsc.net().charge_cpu_at(us, cost::PAGE_SERVICE_CPU);
    Some(data)
}

/// Keeps a page fetched from a remote SS in the network-keyed cache —
/// unless this site has uncommitted changes to the file: then the SS is
/// serving its session, and what it sent need not be committed content.
fn cache_fetched(k: &mut FsKernel, gfid: Gfid, lpn: usize, data: Vec<u8>) {
    if !k.staged.contains_key(&gfid) {
        k.cache.put((net_cache_pack(gfid.fg), gfid.ino, lpn), data);
    }
}

/// SS-side read handler.
pub(crate) fn handle_read_page(
    fsc: &FsCluster,
    ss: SiteId,
    from: SiteId,
    gfid: Gfid,
    lpn: usize,
) -> SysResult<FsReply> {
    let (data, io, vv_total) = {
        let mut k = fsc.kernel(ss);
        let data = cached_local_page(&mut k, from, gfid, lpn)?;
        let io = k.take_io(gfid.fg);
        let vv_total = k.local_info(gfid).map(|i| i.vv.total()).unwrap_or(0);
        (data, io, vv_total)
    };
    // The trace auditor matches this note against `commit.begin`/
    // `commit.end` brackets: a served page must never carry the version
    // currently being installed.
    fsc.net().obs_note(ss, "read.page", gfid, vv_total);
    // A miss's disk transfer queues behind whatever the disk is still doing.
    if io > Ticks::ZERO {
        fsc.net().charge_disk_at(ss, io);
    }
    fsc.net().charge_cpu_at(ss, cost::PAGE_SERVICE_CPU);
    Ok(FsReply::Page { data })
}

/// Writes one page into `writer`'s open modification session at the SS
/// ([`FsKernel::session_mut`]), then queues the disk time of the
/// shadow-block write on the SS's disk: a delayed write, which the
/// commit waits for ([`FsKernel::commit_session`]). `lpn == usize::MAX`
/// is the truncate control write: shrink to exactly `new_size` bytes.
///
/// Nothing comes back to the writer (§2.3.5 acknowledges a write at low
/// level only): a failed write or truncate marks the session, whose
/// commit then fails. A write that finds no session to open (no pack,
/// no inode) is dropped, and the commit meets the same error opening it.
pub(crate) fn local_write_page(
    fsc: &FsCluster,
    k: &mut FsKernel,
    writer: SiteId,
    gfid: Gfid,
    lpn: usize,
    data: &[u8],
    new_size: u64,
) {
    let Ok((sess, pack)) = k.session_mut(writer, gfid) else {
        return;
    };
    if lpn == usize::MAX {
        let _ = sess.truncate_pages(pack, (new_size as usize).div_ceil(PAGE_SIZE));
        sess.set_size(new_size);
    } else if sess.write_page(pack, lpn, data).is_ok() && new_size > sess.working().size {
        sess.set_size(new_size);
    }
    k.queue_io(fsc.net(), gfid.fg);
}

/// SS-side write handler (the one-message write protocol of §2.3.5).
pub(crate) fn handle_write_page(
    fsc: &FsCluster,
    ss: SiteId,
    from: SiteId,
    gfid: Gfid,
    lpn: usize,
    data: &[u8],
    new_size: u64,
) -> SysResult<FsReply> {
    fsc.net().charge_cpu_at(ss, cost::PAGE_SERVICE_CPU);
    local_write_page(fsc, &mut fsc.kernel(ss), from, gfid, lpn, data, new_size);
    Ok(FsReply::Ok)
}

/// Stages a copy of a page image that has landed in `gfid`'s session at
/// its remote SS ([`Staged`](crate::kernel::Staged)). Called only after
/// the send was delivered, so the stage holds exactly the pages the
/// session holds, unless a write or truncate failed there: then the
/// session cannot commit, and `commit_at` drops the stage before asking.
fn stage_sent(fsc: &FsCluster, us: SiteId, gfid: Gfid, lpn: usize, image: Vec<u8>) {
    let mut k = fsc.kernel(us);
    k.staged.entry(gfid).or_default().pages.insert(lpn, image);
}

/// Drops what the US staged for `gfid`'s open session — the images of
/// the pages it sent — when the session ends without a commit.
pub(crate) fn discard_session_buffers(fsc: &FsCluster, us: SiteId, gfid: Gfid) {
    fsc.kernel(us).staged.remove(&gfid);
}

/// US-side page write: whole-page changes need no read; partial changes
/// read the old page first via the read protocol (§2.3.5).
pub fn put_page_range(
    fsc: &FsCluster,
    us: SiteId,
    gfid: Gfid,
    ss: SiteId,
    offset: u64,
    bytes: &[u8],
    old_size: u64,
) -> SysResult<u64> {
    let mut written = 0usize;
    let end = offset + bytes.len() as u64;
    let mut pos = offset;
    while pos < end {
        let lpn = (pos / PAGE_SIZE as u64) as usize;
        let page_start = lpn as u64 * PAGE_SIZE as u64;
        let in_off = (pos - page_start) as usize;
        let take = (PAGE_SIZE - in_off).min((end - pos) as usize);
        let whole = in_off == 0 && take == PAGE_SIZE;
        let mut page = if whole {
            vec![0u8; PAGE_SIZE]
        } else if page_start < old_size {
            // "If the modification does not include the entire page, the
            // old page is read from the SS using the read protocol."
            let npages = (old_size as usize).div_ceil(PAGE_SIZE);
            get_page(fsc, us, gfid, ss, lpn, npages.min(lpn + 1))?
        } else {
            vec![0u8; PAGE_SIZE]
        };
        page[in_off..in_off + take].copy_from_slice(&bytes[written..written + take]);
        let new_size = (pos + take as u64).max(old_size);
        if ss == us {
            local_write_page(fsc, &mut fsc.kernel(us), us, gfid, lpn, &page, new_size);
            fsc.net().charge_cpu_at(us, cost::PAGE_SERVICE_CPU);
        } else {
            let image = page.clone();
            fsc.one_way(
                us,
                ss,
                FsMsg::WritePage {
                    gfid,
                    lpn,
                    data: page,
                    new_size,
                },
            )?;
            stage_sent(fsc, us, gfid, lpn, image);
        }
        written += take;
        pos += take as u64;
    }
    Ok(end.max(old_size))
}

/// Routes a pipe operation to the pipe's home (storage) site.
pub(crate) fn pipe_call(
    fsc: &FsCluster,
    site: SiteId,
    home: SiteId,
    gfid: Gfid,
    op: PipeOp,
) -> SysResult<PipeReply> {
    match fsc.rpc(site, home, FsMsg::PipeOp { gfid, op })? {
        FsReply::Pipe(r) => Ok(r),
        _ => Err(Errno::Eio),
    }
}

/// Pipe handler at the home site.
pub(crate) fn handle_pipe_op(
    fsc: &FsCluster,
    home: SiteId,
    gfid: Gfid,
    op: PipeOp,
) -> SysResult<FsReply> {
    fsc.net().charge_cpu_at(home, cost::CONTROL_CPU);
    let mut k = fsc.kernel(home);
    let state = k.pipes.entry(gfid).or_default();
    Ok(FsReply::Pipe(state.apply(op)))
}

/// Routes a device operation to the device's home site.
pub(crate) fn device_call(
    fsc: &FsCluster,
    site: SiteId,
    home: SiteId,
    gfid: Gfid,
    op: DeviceOp,
) -> SysResult<DeviceReply> {
    match fsc.rpc(site, home, FsMsg::DeviceOp { gfid, op })? {
        FsReply::Device(r) => Ok(r),
        _ => Err(Errno::Eio),
    }
}

/// Device handler at the home site.
pub(crate) fn handle_device_op(
    fsc: &FsCluster,
    home: SiteId,
    gfid: Gfid,
    op: DeviceOp,
) -> SysResult<FsReply> {
    fsc.net().charge_cpu_at(home, cost::CONTROL_CPU);
    let mut k = fsc.kernel(home);
    let dev = k.devices.get_mut(&gfid).ok_or(Errno::Enoent)?;
    Ok(FsReply::Device(dev.apply(op)))
}

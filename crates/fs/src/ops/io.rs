//! Page read/write protocols, pipes and devices (§2.3.3, §2.3.5, §2.4.2).

use locus_storage::PAGE_SIZE;
use locus_types::{Errno, FilegroupId, Gfid, PackId, SiteId, SysResult};

use crate::cluster::FsCluster;
use crate::cost;
use crate::device::{DeviceOp, DeviceReply};
use crate::kernel::{FsKernel, WriteBehind};
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
    k.sessions.contains_key(&gfid) && k.session_writer.get(&gfid) == Some(&requester)
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
        let sess = k.sessions.remove(&gfid).expect("checked above");
        let pack = k.pack_of(gfid.fg).ok_or(Errno::Enocopy)?;
        let r = sess.read_page(pack, lpn);
        k.sessions.insert(gfid, sess);
        return r;
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
    // Read-your-writes: pages parked in a write-behind buffer must reach
    // the SS's shadow session before any page of the file is fetched.
    flush_write_behind(fsc, us, gfid)?;
    if ss == us {
        let mut k = fsc.kernel(us);
        let data = cached_local_page(&mut k, us, gfid, lpn)?;
        let io = k.take_io(gfid.fg);
        // Local one-page readahead for sequential access: asynchronous,
        // so its disk time is not the reader's.
        if lpn + 1 < npages {
            let _ = cached_local_page(&mut k, us, gfid, lpn + 1);
            let _ = k.take_io(gfid.fg);
        }
        drop(k);
        fsc.net().charge_cpu_at(us, io + cost::PAGE_SERVICE_CPU);
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
        let need = fsc.kernel(us).cache.get(&next_key).is_none();
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
    note_read(fsc, ss, gfid, vv_total);
    fsc.net().charge_cpu_at(ss, io + cost::PAGE_SERVICE_CPU);
    Ok(FsReply::Page { data })
}

/// Emits the `read.page` observability note the trace auditor matches
/// against `commit.begin`/`commit.end` brackets: a served page must never
/// carry the version currently being installed.
fn note_read(fsc: &FsCluster, ss: SiteId, gfid: Gfid, vv_total: u64) {
    fsc.net().obs_note(ss, "read.page", gfid, vv_total);
}

/// Fetches one logical page for a US with a *batched* readahead window
/// (the batched-transfer extension of the §2.3.3 read protocol): up to
/// `window` consecutive uncached pages move in a single `ReadPages` /
/// multi-page-reply exchange, amortizing the per-message fixed latency.
///
/// Returns the requested page plus the number of pages actually fetched
/// over the network (`0` on a cache hit) so the caller can grow its
/// adaptive window only when a transfer really happened.
pub fn get_page_batched(
    fsc: &FsCluster,
    us: SiteId,
    gfid: Gfid,
    ss: SiteId,
    lpn: usize,
    window: usize,
    npages: usize,
) -> SysResult<(Vec<u8>, usize)> {
    if ss == us {
        return get_page(fsc, us, gfid, ss, lpn, npages).map(|d| (d, 0));
    }
    flush_write_behind(fsc, us, gfid)?;
    if let Some(data) = buffered_remote_page(fsc, us, gfid, lpn) {
        return Ok((data, 0));
    }
    // Extend the request over consecutive pages still missing from the
    // cache (probing with `contains` so the lookahead does not perturb
    // the hit/miss accounting).
    let count = {
        let k = fsc.kernel(us);
        let mut count = 1usize;
        while count < window
            && lpn + count < npages
            && !k
                .cache
                .contains(&(net_cache_pack(gfid.fg), gfid.ino, lpn + count))
        {
            count += 1;
        }
        count
    };
    fsc.net().charge_cpu_at(us, cost::REMOTE_SETUP_CPU);
    let reply = fsc.rpc(
        us,
        ss,
        FsMsg::ReadPages {
            gfid,
            first: lpn,
            count,
            guess: 0,
        },
    )?;
    let FsReply::Pages { pages } = reply else {
        return Err(Errno::Eio);
    };
    if pages.is_empty() {
        return Err(Errno::Eio);
    }
    let fetched = pages.len();
    let mut k = fsc.kernel(us);
    for (i, page) in pages.iter().enumerate() {
        cache_fetched(&mut k, gfid, lpn + i, page.clone());
    }
    drop(k);
    Ok((pages.into_iter().next().expect("checked non-empty"), fetched))
}

/// SS-side batched read handler: serves up to `count` consecutive pages
/// in one reply. The window is clamped at the first unreadable page (past
/// EOF) — the first page's error, if any, is the request's error.
pub(crate) fn handle_read_pages(
    fsc: &FsCluster,
    ss: SiteId,
    from: SiteId,
    gfid: Gfid,
    first: usize,
    count: usize,
) -> SysResult<FsReply> {
    let mut pages = Vec::with_capacity(count.max(1));
    let mut io = locus_types::Ticks::ZERO;
    let vv_total;
    {
        let mut k = fsc.kernel(ss);
        for i in 0..count.max(1) {
            match cached_local_page(&mut k, from, gfid, first + i) {
                Ok(data) => {
                    io += k.take_io(gfid.fg);
                    pages.push(data);
                }
                Err(e) if pages.is_empty() => return Err(e),
                Err(_) => break,
            }
        }
        vv_total = k.local_info(gfid).map(|i| i.vv.total()).unwrap_or(0);
    }
    note_read(fsc, ss, gfid, vv_total);
    fsc.net()
        .charge_cpu_at(ss, io + cost::PAGE_SERVICE_CPU.scaled(pages.len() as u64));
    Ok(FsReply::Pages { pages })
}

/// Writes one page into `writer`'s open modification session at the SS
/// ([`FsKernel::take_session`]), then charges the disk time of the
/// shadow-block write to the SS.
pub(crate) fn local_write_page(
    fsc: &FsCluster,
    k: &mut FsKernel,
    writer: SiteId,
    gfid: Gfid,
    lpn: usize,
    data: &[u8],
    new_size: u64,
) -> SysResult<()> {
    let mut sess = k.take_session(writer, gfid)?;
    let pack = k.pack_of(gfid.fg).ok_or(Errno::Enocopy)?;
    let r = if lpn == usize::MAX {
        // Truncate control write: shrink to exactly `new_size` bytes.
        let npages = (new_size as usize).div_ceil(PAGE_SIZE);
        let r = sess.truncate_pages(pack, npages);
        sess.set_size(new_size);
        r
    } else {
        let r = sess.write_page(pack, lpn, data);
        if r.is_ok() && new_size > sess.working().size {
            sess.set_size(new_size);
        }
        r
    };
    k.sessions.insert(gfid, sess);
    k.charge_io(fsc.net(), gfid.fg);
    r
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
    let mut k = fsc.kernel(ss);
    local_write_page(fsc, &mut k, from, gfid, lpn, data, new_size)?;
    Ok(FsReply::Ok)
}

/// SS-side batched write handler: lands a run of consecutive pages in the
/// file's shadow session in one message (the batched-transfer extension
/// of §2.3.5). Atomicity is untouched — the pages live in the session
/// until commit, exactly as with per-page writes.
pub(crate) fn handle_write_pages(
    fsc: &FsCluster,
    ss: SiteId,
    from: SiteId,
    gfid: Gfid,
    first: usize,
    pages: &[Vec<u8>],
    new_size: u64,
) -> SysResult<FsReply> {
    fsc.net()
        .charge_cpu_at(ss, cost::PAGE_SERVICE_CPU.scaled(pages.len().max(1) as u64));
    let mut k = fsc.kernel(ss);
    for (i, page) in pages.iter().enumerate() {
        local_write_page(fsc, &mut k, from, gfid, first + i, page, new_size)?;
    }
    Ok(FsReply::Ok)
}

/// Stages copies of page images that have landed in `gfid`'s session at
/// its remote SS ([`Staged`](crate::kernel::Staged)). Called only after
/// the send succeeded, so the stage holds exactly the pages the session
/// holds.
fn stage_sent(fsc: &FsCluster, us: SiteId, gfid: Gfid, first: usize, images: Vec<Vec<u8>>) {
    let mut k = fsc.kernel(us);
    k.staged
        .entry(gfid)
        .or_default()
        .pages
        .extend((first..).zip(images));
}

/// Flushes `gfid`'s write-behind buffer (if any) to its SS as one batched
/// `WritePages` message. A no-op when nothing is buffered.
pub(crate) fn flush_write_behind(fsc: &FsCluster, us: SiteId, gfid: Gfid) -> SysResult<()> {
    let Some(wb) = fsc.kernel(us).write_behind.remove(&gfid) else {
        return Ok(());
    };
    let images = wb.pages.clone();
    fsc.one_way(
        us,
        wb.ss,
        FsMsg::WritePages {
            gfid,
            first: wb.first,
            pages: wb.pages,
            new_size: wb.new_size,
        },
    )?;
    stage_sent(fsc, us, gfid, wb.first, images);
    Ok(())
}

/// Drops what the US buffered for `gfid`'s open session — the unsent
/// write-behind pages and the staged images of the sent ones — when the
/// session ends without a commit.
pub(crate) fn discard_session_buffers(fsc: &FsCluster, us: SiteId, gfid: Gfid) {
    let mut k = fsc.kernel(us);
    k.write_behind.remove(&gfid);
    k.staged.remove(&gfid);
}

/// Parks one whole dirty page in the US write-behind buffer, flushing at
/// window boundaries: a full buffer, a different destination SS, or a
/// non-consecutive page (an implicit seek) all force the pending run out
/// first.
fn buffer_page(
    fsc: &FsCluster,
    us: SiteId,
    gfid: Gfid,
    ss: SiteId,
    lpn: usize,
    page: Vec<u8>,
    new_size: u64,
) -> SysResult<()> {
    let max_batch = fsc.io_policy().max_write_batch;
    enum After {
        Kept,
        Full,
        Restart(Vec<u8>),
    }
    let after = {
        let mut k = fsc.kernel(us);
        match k.write_behind.get_mut(&gfid) {
            Some(w) if w.ss == ss && lpn >= w.first && lpn < w.first + w.pages.len() => {
                // Rewrite of a still-buffered page: coalesce in place.
                w.pages[lpn - w.first] = page;
                w.new_size = w.new_size.max(new_size);
                After::Kept
            }
            Some(w) if w.ss == ss && lpn == w.first + w.pages.len() => {
                w.pages.push(page);
                w.new_size = w.new_size.max(new_size);
                if w.pages.len() >= max_batch {
                    After::Full
                } else {
                    After::Kept
                }
            }
            _ => After::Restart(page),
        }
    };
    match after {
        After::Kept => Ok(()),
        After::Full => flush_write_behind(fsc, us, gfid),
        After::Restart(page) => {
            flush_write_behind(fsc, us, gfid)?;
            fsc.kernel(us).write_behind.insert(
                gfid,
                WriteBehind {
                    ss,
                    first: lpn,
                    pages: vec![page],
                    new_size,
                },
            );
            Ok(())
        }
    }
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
    let policy = fsc.io_policy();
    let buffering = policy.write_behind && ss != us;
    let mut written = 0usize;
    let end = offset + bytes.len() as u64;
    let mut pos = offset;
    while pos < end {
        let lpn = (pos / PAGE_SIZE as u64) as usize;
        let page_start = lpn as u64 * PAGE_SIZE as u64;
        let in_off = (pos - page_start) as usize;
        let take = (PAGE_SIZE - in_off).min((end - pos) as usize);
        let whole = in_off == 0 && take == PAGE_SIZE;
        // A partial modification of a page still sitting in the
        // write-behind buffer coalesces against the buffered image — no
        // wire traffic at all.
        let buffered_base = if whole {
            None
        } else {
            let k = fsc.kernel(us);
            k.write_behind.get(&gfid).and_then(|w| {
                (w.ss == ss && lpn >= w.first && lpn < w.first + w.pages.len())
                    .then(|| w.pages[lpn - w.first].clone())
            })
        };
        let mut page = if whole {
            vec![0u8; PAGE_SIZE]
        } else if let Some(base) = buffered_base {
            base
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
            let mut k = fsc.kernel(us);
            local_write_page(fsc, &mut k, us, gfid, lpn, &page, new_size)?;
            drop(k);
            fsc.net().charge_cpu_at(us, cost::PAGE_SERVICE_CPU);
        } else if buffering {
            buffer_page(fsc, us, gfid, ss, lpn, page, new_size)?;
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
            stage_sent(fsc, us, gfid, lpn, vec![image]);
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
    let reply = if site == home {
        handle_pipe_op(fsc, home, gfid, op)?
    } else {
        fsc.rpc(site, home, FsMsg::PipeOp { gfid, op })?
    };
    match reply {
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
    let reply = if site == home {
        handle_device_op(fsc, home, gfid, op)?
    } else {
        fsc.rpc(site, home, FsMsg::DeviceOp { gfid, op })?
    };
    match reply {
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

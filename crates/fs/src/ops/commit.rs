//! Atomic commit, abort, commit notification and pull propagation
//! (§2.3.6).

use locus_storage::{ShadowSession, PAGE_SIZE};
use locus_types::{Errno, Gfid, SiteId, SysResult, VersionVector};

use crate::cluster::FsCluster;
use crate::cost;
use crate::kernel::PropReq;
use crate::ops::io;
use crate::proto::{FsMsg, FsReply, InodeInfo, MetaUpdate};

/// Commits the modifications of `gfid` at its storage site `ss`, driven
/// from using site `us`. Returns the post-commit inode information.
pub fn commit_at(
    fsc: &FsCluster,
    us: SiteId,
    gfid: Gfid,
    ss: SiteId,
    meta: Option<MetaUpdate>,
) -> SysResult<InodeInfo> {
    fsc.net().span("fs", "commit", us, || {
        commit_at_inner(fsc, us, gfid, ss, meta)
    })
}

fn commit_at_inner(
    fsc: &FsCluster,
    us: SiteId,
    gfid: Gfid,
    ss: SiteId,
    meta: Option<MetaUpdate>,
) -> SysResult<InodeInfo> {
    fsc.net().charge_cpu_at(us, cost::SYSCALL_CPU);
    // The page images this site sent into the session leave the staging
    // area here, so a failed commit drops them with the `?` below.
    let staged = fsc.kernel(us).staged.remove(&gfid).unwrap_or_default();
    let FsReply::Committed { info } = fsc.rpc(us, ss, FsMsg::Commit { gfid, meta })? else {
        return Err(Errno::Eio);
    };
    let mut k = fsc.kernel(us);
    k.name_cache.invalidate(gfid);
    if ss != us {
        // Of this site's network-keyed pages of the file, exactly the
        // images it sent are known to be pages of the committed version:
        // they stay, tagged with it, and everything else goes (the SS's
        // `Invalidate` to its readers has usually taken it already).
        let net_pack = io::net_cache_pack(gfid.fg);
        if info.deleted {
            k.cache.install(net_pack, gfid.ino, [], 0);
        } else {
            k.cache.install(net_pack, gfid.ino, staged.pages, 0);
            k.name_cache.tag_pages(gfid, info.vv.clone());
        }
    }
    if let Some(inc) = k.incore_get(gfid) {
        inc.info = info.clone();
    }
    Ok(info)
}

/// Discards uncommitted changes of `gfid` at `ss` ("undo any changes back
/// to the previous commit point").
pub(crate) fn abort_at(fsc: &FsCluster, us: SiteId, gfid: Gfid, ss: SiteId) -> SysResult<()> {
    fsc.net().span("fs", "abort", us, || {
        fsc.net().charge_cpu_at(us, cost::SYSCALL_CPU);
        io::discard_session_buffers(fsc, us, gfid);
        fsc.rpc(us, ss, FsMsg::AbortChanges { gfid })?;
        Ok(())
    })
}

/// SS-side commit handler: installs the shadow pages atomically, bumps the
/// version vector at this pack's origin, and issues the commit
/// notifications (§2.3.6).
pub(crate) fn handle_commit(
    fsc: &FsCluster,
    ss: SiteId,
    gfid: Gfid,
    meta: Option<MetaUpdate>,
) -> SysResult<FsReply> {
    fsc.net().charge_cpu_at(ss, cost::CONTROL_CPU);
    // A quarantined storage site must not acknowledge commits: its links
    // are suspect, so a version installed here could silently diverge
    // from what the notifications propagate. The using site sees the
    // failure and the session stays intact for an abort or a retry at a
    // healthy replica (the trace auditor enforces this refusal).
    if fsc.net().quarantined(ss) {
        return Err(Errno::Esitedown);
    }
    let now = fsc.net().now();
    let (info, pages, inode_only, containers, css, readers, origin, vv_total) = {
        let mut k = fsc.kernel(ss);
        let css = k.mount.css_of(gfid.fg)?;
        let containers = k.mount.get(gfid.fg)?.containers.clone();
        let mut sess = match k.take_session(gfid) {
            Some(s) => s,
            None => {
                // An inode-only commit (chmod/chown/delete) with no data
                // pages written opens a fresh session on the spot.
                let pack = k.pack_of(gfid.fg).ok_or(Errno::Enocopy)?;
                ShadowSession::begin(pack, gfid.ino)?
            }
        };
        if let Some(m) = &meta {
            if let Some(p) = m.perms {
                sess.set_perms(p);
            }
            if let Some(o) = m.owner {
                sess.set_owner(o);
            }
            if let Some(n) = m.nlink {
                sess.set_nlink(n);
            }
            if m.delete {
                sess.set_deleted(true);
            }
        }
        sess.set_mtime(now);
        // "Which explicit logical pages were modified" — unless the
        // session also cut pages off, which no list of written pages can
        // tell a replica: then it must pull the whole file. And a commit
        // that wrote no page but changed the size (a truncate over
        // holes) is no inode-only change either: only a pull resizes a
        // data copy.
        let pages = (!sess.cut_pages()).then(|| sess.modified_pages());
        let resized = k.local_info(gfid).map(|i| i.size) != Some(sess.working().size);
        let inode_only = !resized && pages.as_ref().is_some_and(|p| p.is_empty());
        let origin = k.pack_of(gfid.fg).expect("session implies pack").origin();
        let mut vv = sess.working().vv.clone();
        vv.bump(origin);
        // The begin/end pair brackets the atomic shadow-page install; the
        // trace auditor checks that no read of the committing version
        // lands between them.
        let vv_total = vv.total();
        fsc.net().obs_note(ss, "commit.begin", gfid, vv_total);
        let committed = k.commit_session(fsc.net(), gfid, sess, vv);
        if committed.is_err() {
            // The bracket closes whether the install succeeded or was
            // rejected atomically — either way the critical section
            // ended.
            fsc.net().obs_note(ss, "commit.end", gfid, vv_total);
        }
        let info = committed?;
        let readers: Vec<SiteId> = k
            .incore_get(gfid)
            .map(|inc| inc.serving.iter().copied().collect())
            .unwrap_or_default();
        (
            info, pages, inode_only, containers, css, readers, origin, vv_total,
        )
    };

    // Outstanding name leases are broken inside the commit critical
    // section: every holder has acknowledged its recall (or been revoked
    // as unreachable) before `commit.end` closes the bracket, so no site
    // serves the superseded version from its cache afterwards.
    fsc.recall_leases(ss, css, gfid);
    // The bracket closes only once the recalls are in — see above.
    fsc.net().obs_note(ss, "commit.end", gfid, vv_total);

    // "As part of the commit operation, the SS sends messages to all the
    // other SS's of that file as well as the CSS" (§2.3.6). The
    // notifications are one-way messages sent as part of the commit
    // ([`FsCluster::notify`]); the *data* propagation they trigger is
    // background pull work, drained by `settle`. A notification lost to
    // a partition is recovered at merge.
    let notify = || FsMsg::CommitNotify {
        gfid,
        vv: info.vv.clone(),
        source: ss,
        origin,
        inode_only,
        pages: pages.clone(),
        info: info.clone(),
    };
    if css != ss {
        fsc.notify(ss, css, notify());
    }
    for (_, site) in containers {
        if site != ss && site != css {
            fsc.notify(ss, site, notify());
        }
    }
    // Readers holding now-stale buffers get invalidations (the simplified
    // page-valid token scheme, §3.2 fn 1).
    for r in readers {
        if r != ss {
            fsc.notify(ss, r, FsMsg::Invalidate { gfid });
        }
    }
    Ok(FsReply::Committed { info })
}

/// SS-side abort handler.
pub(crate) fn handle_abort(fsc: &FsCluster, ss: SiteId, gfid: Gfid) -> SysResult<FsReply> {
    fsc.net().charge_cpu_at(ss, cost::CONTROL_CPU);
    fsc.kernel(ss).abort_session(gfid)?;
    Ok(FsReply::Ok)
}

/// Commit-notification handler at a container site: update metadata in
/// place when possible, otherwise queue a pull (§2.3.6).
#[allow(clippy::too_many_arguments)]
pub(crate) fn handle_commit_notify(
    fsc: &FsCluster,
    at: SiteId,
    gfid: Gfid,
    vv: VersionVector,
    source: SiteId,
    origin: u32,
    inode_only: bool,
    pages: Option<Vec<usize>>,
    info: InodeInfo,
) -> SysResult<FsReply> {
    fsc.net().charge_cpu_at(at, cost::CONTROL_CPU);
    let mut k = fsc.kernel(at);
    k.note_latest(gfid, &vv);
    // The CSS learning of a version it did not commit itself (a create, or
    // a commit raced with a handoff) breaks any leases it granted on the
    // file — holders must revalidate against the new version.
    let at_css = k.mount.css_of(gfid.fg) == Ok(at);
    let mut enqueue = false;
    // A session that folds the notified inode information into the local
    // copy without a pull.
    let mut fold_in = None;
    {
        let Some(pack) = k.pack_of(gfid.fg) else {
            drop(k);
            if at_css {
                fsc.recall_leases(at, at, gfid);
            }
            return Ok(FsReply::Ok); // not a container site
        };
        let my_origin = pack.origin();
        let is_replica = info.replicas.contains(&my_origin);
        match pack.inode(gfid.ino) {
            None => {
                // First sight of a new file: install a metadata copy; a
                // data replica of a non-empty file must pull the pages.
                let needs_data = is_replica && !info.deleted && info.size > 0;
                let data_here = is_replica && !needs_data;
                pack.install_inode(gfid.ino, info.to_disk_inode(data_here));
                enqueue = needs_data;
            }
            Some(local) => {
                let has_data = local.data_here;
                if local.vv.covers(&vv) {
                    // Stale or duplicate notification — unless this data
                    // replica holds the version without its pages (a
                    // first-sight install whose pull never landed): that
                    // copy still has to pull.
                    if has_data || local.deleted || info.deleted || !is_replica {
                        return Ok(FsReply::Ok);
                    }
                    enqueue = true;
                }
                // A data-bearing copy may fold an inode-only commit in
                // place only if its data is current up to the immediately
                // preceding version; otherwise its pages are stale and the
                // new vector must arrive with them, via a pull.
                let is_immediate_predecessor = vv
                    .iter()
                    .all(|(o, c)| local.vv.get(o) + u64::from(o == origin) == c)
                    && local.vv.iter().all(|(o, _)| vv.get(o) > 0);
                if enqueue {
                    // The pageless copy above: nothing to fold in.
                } else if info.deleted || !has_data || (inode_only && is_immediate_predecessor) {
                    // A delete ("as those sites discover that the new
                    // version is a delete, they also release their pages",
                    // §2.3.7), a metadata-only change, or a copy that
                    // stores no data: fold the inode information in.
                    let mut sess = ShadowSession::begin(pack, gfid.ino)?;
                    info.copy_meta_to(&mut sess);
                    sess.set_mtime(info.mtime);
                    if !has_data {
                        sess.set_size(info.size);
                        enqueue = is_replica && info.size > 0;
                    }
                    fold_in = Some(sess);
                } else {
                    // A stale data copy: bring it up to date by pulling.
                    enqueue = true;
                }
            }
        }
    }
    // The buffer cache changes only with the pack: a fold-in installs
    // what it changed (nothing, or everything gone on a delete), and a
    // copy that is merely known stale keeps serving its own pages.
    match fold_in {
        Some(sess) => {
            k.commit_session(fsc.net(), gfid, sess, vv)?;
        }
        None => k.name_cache.invalidate(gfid),
    }
    if enqueue {
        k.enqueue_propagation(PropReq {
            gfid,
            source,
            pages,
        });
    }
    drop(k);
    if at_css {
        fsc.recall_leases(at, at, gfid);
    }
    Ok(FsReply::Ok)
}

/// Reads the whole copy of `gfid` stored at `source` for the merge
/// procedure running at `at` (§4). A copy elsewhere comes over the wire
/// as a propagation pull fetches it: `PULL open`, then one `READ req` per
/// page. The site's own copy is read in place, and that read is charged
/// no disk time: the merge procedure reads every directory it checks.
pub fn fetch_copy(fsc: &FsCluster, at: SiteId, source: SiteId, gfid: Gfid) -> SysResult<Vec<u8>> {
    if source == at {
        let mut k = fsc.kernel(at);
        let pack = k.pack_of(gfid.fg).ok_or(Errno::Enocopy)?;
        let bytes = pack.read_all(gfid.ino);
        pack.take_io_cost();
        return bytes;
    }
    let info = pull_open(fsc, at, source, gfid)?;
    let pages = (0..info.page_count()).map(|lpn| pull_page(fsc, at, source, gfid, lpn));
    let mut bytes = pages.collect::<SysResult<Vec<_>>>()?.concat();
    bytes.truncate(info.size as usize);
    Ok(bytes)
}

/// The `PULL open` round trip from `at`: the latest version of `gfid` at
/// `source`.
fn pull_open(fsc: &FsCluster, at: SiteId, source: SiteId, gfid: Gfid) -> SysResult<InodeInfo> {
    match fsc.rpc(at, source, FsMsg::PullOpen { gfid })? {
        FsReply::PullInfo { info } => Ok(info),
        _ => Err(Errno::Eio),
    }
}

/// One `READ req` round trip from `at`: page `lpn` of `gfid` at `source`.
fn pull_page(
    fsc: &FsCluster,
    at: SiteId,
    source: SiteId,
    gfid: Gfid,
    lpn: usize,
) -> SysResult<Vec<u8>> {
    let guess = 0;
    match fsc.rpc(at, source, FsMsg::ReadPage { gfid, lpn, guess })? {
        FsReply::Page { data } => Ok(data),
        _ => Err(Errno::Eio),
    }
}

/// Installs a version the merge procedure reconciled (§4.3) at this
/// site's container: `bytes` (none for a tombstone) as version `vv`, with
/// `info`'s inode information, by an ordinary shadow-page commit that
/// pays its disk time. Returns the installed inode information.
pub fn install_version(
    fsc: &FsCluster,
    at: SiteId,
    gfid: Gfid,
    bytes: Option<&[u8]>,
    info: &InodeInfo,
    vv: &VersionVector,
) -> SysResult<InodeInfo> {
    let mut k = fsc.kernel(at);
    let pack = k.pack_of(gfid.fg).ok_or(Errno::Enocopy)?;
    if pack.inode(gfid.ino).is_none() {
        pack.install_inode(gfid.ino, info.to_disk_inode(false));
    }
    let is_replica = info.replicas.contains(&pack.origin());
    let mut sess = ShadowSession::begin(pack, gfid.ino)?;
    info.copy_meta_to(&mut sess);
    if let Some(bytes) = bytes {
        sess.set_size(bytes.len() as u64);
        if is_replica {
            // A failed write or truncate fails the commit below, which
            // aborts the session and frees its blocks.
            let npages = bytes.len().div_ceil(PAGE_SIZE);
            for (lpn, chunk) in bytes.chunks(PAGE_SIZE).enumerate() {
                if sess.write_page(pack, lpn, chunk).is_err() {
                    break;
                }
            }
            let _ = sess.truncate_pages(pack, npages);
            sess.set_data_here(true);
        }
    }
    // Pages fetched from other sites under the superseded version go too.
    k.invalidate_caches_for(gfid);
    let info = k.commit_session(fsc.net(), gfid, sess, vv.clone())?;
    drop(k);
    fsc.recall_if_css(at, gfid);
    Ok(info)
}

/// Sets or clears the §4.6 conflict mark on this site's own copy of
/// `gfid`. The version vector stays as it is: a mark is no new version,
/// so it never propagates, and each container marks its own copy.
pub fn set_conflict_mark(fsc: &FsCluster, at: SiteId, gfid: Gfid, conflict: bool) -> SysResult<()> {
    let mut k = fsc.kernel(at);
    let Some(pack) = k.pack_of(gfid.fg) else {
        return Ok(());
    };
    let Some(vv) = pack.inode(gfid.ino).map(|i| i.vv.clone()) else {
        return Ok(());
    };
    let mut sess = ShadowSession::begin(pack, gfid.ino)?;
    sess.set_conflict(conflict);
    k.commit_session(fsc.net(), gfid, sess, vv)?;
    drop(k);
    // The flag changed behind the CSS's lease table, as a commit does.
    fsc.recall_if_css(at, gfid);
    Ok(())
}

/// Propagation-source handler: an internal open of the latest version for
/// a pulling site (§2.3.6).
pub(crate) fn handle_pull_open(fsc: &FsCluster, at: SiteId, gfid: Gfid) -> SysResult<FsReply> {
    fsc.net().charge_cpu_at(at, cost::CONTROL_CPU);
    let k = fsc.kernel(at);
    let info = k.local_info(gfid).ok_or(Errno::Enocopy)?;
    if !info.deleted && !k.stores_data(gfid) {
        return Err(Errno::Enocopy);
    }
    Ok(FsReply::PullInfo { info })
}

/// Runs the propagation of `gfid` queued at `site` now, instead of when
/// the queue drains, and drops the queued request once the pull succeeds.
/// With nothing queued it pulls from `fallback`, if there is one. Returns
/// whether a pull ran and succeeded.
pub(crate) fn pull_on_demand(
    fsc: &FsCluster,
    site: SiteId,
    gfid: Gfid,
    fallback: Option<SiteId>,
) -> bool {
    let queued = fsc
        .kernel(site)
        .prop_queue
        .iter()
        .find(|r| r.gfid == gfid)
        .cloned();
    let fallback = fallback.map(|source| PropReq {
        gfid,
        source,
        pages: None,
    });
    let pulled = queued
        .or(fallback)
        .is_some_and(|req| propagate_pull(fsc, site, &req).is_ok());
    if pulled {
        fsc.with_kernel(site, |k| k.prop_queue.retain(|r| r.gfid != gfid));
    }
    pulled
}

/// The propagation kernel process: pulls a newer version of `gfid` from
/// `req.source` into this site's container. "This propagation-in
/// procedure uses the standard commit mechanism, so if contact is lost
/// with the site containing the newer version, the local site is still
/// left with a coherent, complete copy of the file, albeit still out of
/// date" (§2.3.6).
pub(crate) fn propagate_pull(fsc: &FsCluster, site: SiteId, req: &PropReq) -> SysResult<()> {
    if !fsc.net().reachable(site, req.source) {
        return Ok(()); // dropped; the merge procedure reconciles later
    }
    // What this site knew before the pull: at the CSS, the notification
    // of that version already recalled every lease granted before it.
    let known = fsc.kernel(site).known_latest(req.gfid);
    let gfid = req.gfid;
    let info = pull_open(fsc, site, req.source, gfid)?;
    // Breaks the leases on the file once the pulled version is in — but
    // only if it is news: installing the version the CSS already vouched
    // for changes nothing a holder could have cached (recall once per
    // version).
    let recall = |vv: &VersionVector| {
        if *vv != known {
            fsc.recall_if_css(site, gfid);
        }
    };

    // Already current (or locally newer — a conflict for the merge
    // procedure, not for propagation)?
    {
        let k = fsc.kernel(site);
        if let Some(local) = k.local_info(gfid) {
            // A data replica whose copy is *pageless* must pull even when
            // its recorded version is current: a first-sight notification
            // installs the inode with its new vector before any page has
            // arrived.
            let pageless_replica = !info.deleted
                && !local.deleted
                && !k.stores_data(gfid)
                && k.pack_of_ref(gfid.fg)
                    .is_some_and(|p| info.replicas.contains(&p.origin()));
            if (local.vv.covers(&info.vv) && !pageless_replica)
                || local.vv.compare(&info.vv).is_conflict()
            {
                return Ok(());
            }
        }
    }

    // Ensure a local inode exists, then pull pages into a shadow session.
    // A tombstone has no pages, and a container whose pack is not in the
    // replica set only carries the inode information (§2.2.2).
    let mut sess = {
        let mut k = fsc.kernel(site);
        let pack = k.pack_of(gfid.fg).ok_or(Errno::Enocopy)?;
        let metadata_only = info.deleted || !info.replicas.contains(&pack.origin());
        if pack.inode(gfid.ino).is_none() {
            pack.install_inode(gfid.ino, info.to_disk_inode(false));
        }
        if metadata_only {
            let mut sess = ShadowSession::begin(pack, gfid.ino)?;
            sess.set_size(info.size);
            info.copy_meta_to(&mut sess);
            sess.set_mtime(info.mtime);
            k.commit_session(fsc.net(), gfid, sess, info.vv.clone())?;
            drop(k);
            recall(&info.vv);
            return Ok(());
        }
        ShadowSession::begin(pack, gfid.ino)?
    };

    let npages = info.page_count();
    let incremental = fsc.kernel(site).stores_data(gfid);
    let page_list: Vec<usize> = match (&req.pages, incremental) {
        (Some(pages), true) => pages.iter().copied().filter(|&p| p < npages).collect(),
        _ => (0..npages).collect(),
    };

    let mut failed = false;
    for &lpn in &page_list {
        let Ok(data) = pull_page(fsc, site, req.source, gfid, lpn) else {
            failed = true;
            break;
        };
        let mut k = fsc.kernel(site);
        let pack = k.pack_of(gfid.fg).expect("checked above");
        // "When each page arrives, the buffer that contains it is
        // renamed and sent out to secondary storage" — straight
        // into the shadow session, no user-space copy.
        if sess.write_page(pack, lpn, &data).is_err() {
            failed = true;
            break;
        }
    }

    let mut k = fsc.kernel(site);
    let pack = k.pack_of(gfid.fg).expect("checked above");
    if failed {
        let aborted = sess.abort(pack);
        k.charge_io(fsc.net(), gfid.fg);
        aborted?;
        return Err(Errno::Esitedown);
    }
    // A failed truncate fails the commit, which aborts the session.
    let _ = sess.truncate_pages(pack, npages);
    sess.set_size(info.size);
    info.copy_meta_to(&mut sess);
    sess.set_mtime(info.mtime);
    sess.set_data_here(true);
    // The pulled buffers go from the wire into the shadow session and
    // from the session into the buffer cache: the replica serves the
    // version it just fetched without reading it back from its disk.
    k.commit_session(fsc.net(), gfid, sess, info.vv.clone())?;
    drop(k);
    recall(&info.vv);
    Ok(())
}

//! Atomic commit, abort, commit notification and pull propagation
//! (§2.3.6).

use locus_storage::ShadowSession;
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
    fsc.with_span("commit", us, || commit_at_inner(fsc, us, gfid, ss, meta))
}

fn commit_at_inner(
    fsc: &FsCluster,
    us: SiteId,
    gfid: Gfid,
    ss: SiteId,
    meta: Option<MetaUpdate>,
) -> SysResult<InodeInfo> {
    fsc.net().charge_cpu_at(us, cost::SYSCALL_CPU);
    // Commit is a write-behind flush point: every buffered page must be in
    // the SS's shadow session before the session is committed.
    io::flush_write_behind(fsc, us, gfid)?;
    // The page images this site sent into the session leave the staging
    // area here, so a failed commit drops them with the `?` below.
    let staged = fsc.kernel(us).staged.remove(&gfid).unwrap_or_default();
    let reply = if ss == us {
        handle_commit(fsc, ss, gfid, meta)?
    } else {
        fsc.rpc(us, ss, FsMsg::Commit { gfid, meta })?
    };
    let FsReply::Committed { info } = reply else {
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
pub fn abort_at(fsc: &FsCluster, us: SiteId, gfid: Gfid, ss: SiteId) -> SysResult<()> {
    fsc.with_span("abort", us, || {
        fsc.net().charge_cpu_at(us, cost::SYSCALL_CPU);
        io::discard_session_buffers(fsc, us, gfid);
        if ss == us {
            handle_abort(fsc, ss, gfid)?;
        } else {
            fsc.rpc(us, ss, FsMsg::AbortChanges { gfid })?;
        }
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
        k.session_writer.remove(&gfid);
        let mut sess = match k.sessions.remove(&gfid) {
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
            if let Some(r) = &m.replicas {
                sess.set_replicas(r.clone());
            }
            if m.delete {
                sess.mark_deleted();
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
        (info, pages, inode_only, containers, css, readers, origin, vv_total)
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
                } else if info.deleted {
                    // "As those sites discover that the new version is a
                    // delete, they also release their pages" (§2.3.7).
                    let mut sess = ShadowSession::begin(pack, gfid.ino)?;
                    sess.mark_deleted();
                    sess.set_nlink(info.nlink);
                    fold_in = Some(sess);
                } else if !has_data || (inode_only && is_immediate_predecessor) {
                    // Metadata-only change, or a copy that stores no data:
                    // fold the inode information in directly.
                    let mut sess = ShadowSession::begin(pack, gfid.ino)?;
                    sess.set_perms(info.perms);
                    sess.set_owner(info.owner);
                    sess.set_nlink(info.nlink);
                    sess.set_replicas(info.replicas.clone());
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
    let reply = fsc.rpc(site, req.source, FsMsg::PullOpen { gfid: req.gfid })?;
    let FsReply::PullInfo { info } = reply else {
        return Err(Errno::Eio);
    };
    let gfid = req.gfid;
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
            // (a file this container had never heard of — e.g. one that
            // existed before the container was added live) installs the
            // inode with its new vector before any page has arrived.
            let pageless_replica = !info.deleted
                && !local.deleted
                && !k.stores_data(gfid)
                && k.pack_of_ref(gfid.fg)
                    .is_some_and(|p| info.replicas.contains(&p.origin()));
            if local.vv.covers(&info.vv) && !pageless_replica {
                return Ok(());
            }
            if local.vv.compare(&info.vv).is_conflict() {
                return Ok(());
            }
        }
    }

    if info.deleted {
        let mut k = fsc.kernel(site);
        let pack = k.pack_of(gfid.fg).ok_or(Errno::Enocopy)?;
        if pack.inode(gfid.ino).is_some() {
            let mut sess = ShadowSession::begin(pack, gfid.ino)?;
            sess.mark_deleted();
            k.commit_session(fsc.net(), gfid, sess, info.vv.clone())?;
        } else {
            pack.install_inode(gfid.ino, info.to_disk_inode(false));
            k.name_cache.invalidate(gfid);
        }
        drop(k);
        recall(&info.vv);
        return Ok(());
    }

    // Ensure a local inode exists, then pull pages into a shadow session.
    // A container whose pack is not in the replica set only carries the
    // inode information, never the pages (§2.2.2).
    let mut sess = {
        let mut k = fsc.kernel(site);
        let pack = k.pack_of(gfid.fg).ok_or(Errno::Enocopy)?;
        let metadata_only = !info.replicas.contains(&pack.origin());
        if pack.inode(gfid.ino).is_none() {
            pack.install_inode(gfid.ino, info.to_disk_inode(false));
        }
        if metadata_only {
            let mut sess = ShadowSession::begin(pack, gfid.ino)?;
            sess.set_size(info.size);
            sess.set_perms(info.perms);
            sess.set_owner(info.owner);
            sess.set_nlink(info.nlink);
            sess.set_replicas(info.replicas.clone());
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

    // Under the batched I/O policy, consecutive runs of the page list are
    // pulled with multi-page `ReadPages` exchanges; the paper-faithful
    // default keeps the per-page protocol.
    let policy = fsc.io_policy();
    let mut failed = false;
    let mut i = 0usize;
    while i < page_list.len() {
        let start = page_list[i];
        let mut run = 1usize;
        while policy.batched_reads
            && run < policy.max_read_window
            && i + run < page_list.len()
            && page_list[i + run] == start + run
        {
            run += 1;
        }
        let pulled: Option<Vec<Vec<u8>>> = if run == 1 {
            match fsc.rpc(
                site,
                req.source,
                FsMsg::ReadPage {
                    gfid,
                    lpn: start,
                    guess: 0,
                },
            ) {
                Ok(FsReply::Page { data }) => Some(vec![data]),
                _ => None,
            }
        } else {
            match fsc.rpc(
                site,
                req.source,
                FsMsg::ReadPages {
                    gfid,
                    first: start,
                    count: run,
                    guess: 0,
                },
            ) {
                Ok(FsReply::Pages { pages }) if pages.len() == run => Some(pages),
                _ => None,
            }
        };
        let Some(pages) = pulled else {
            failed = true;
            break;
        };
        let mut k = fsc.kernel(site);
        let pack = k.pack_of(gfid.fg).expect("checked above");
        // "When each page arrives, the buffer that contains it is
        // renamed and sent out to secondary storage" — straight
        // into the shadow session, no user-space copy.
        if pages
            .iter()
            .enumerate()
            .any(|(j, data)| sess.write_page(pack, start + j, data).is_err())
        {
            failed = true;
            break;
        }
        i += run;
    }

    let mut k = fsc.kernel(site);
    let pack = k.pack_of(gfid.fg).expect("checked above");
    if failed {
        let aborted = sess.abort(pack);
        k.charge_io(fsc.net(), gfid.fg);
        aborted?;
        return Err(Errno::Esitedown);
    }
    sess.truncate_pages(pack, npages)?;
    sess.set_size(info.size);
    sess.set_perms(info.perms);
    sess.set_owner(info.owner);
    sess.set_nlink(info.nlink);
    sess.set_replicas(info.replicas.clone());
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

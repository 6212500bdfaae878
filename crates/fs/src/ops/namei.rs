//! Pathname searching, create/delete and directory manipulation
//! (§2.3.4, §2.3.7, §2.4.1).
//!
//! Pathnames are resolved one component at a time: each directory on the
//! path is opened *internally* with an unsynchronized read — "no global
//! locking is done … directory interrogation never sees an inconsistent
//! picture" (§2.3.4) — its pages are read over the ordinary read protocol
//! if remote, and the matching entry yields the inode number for the next
//! step.
//!
//! A component resolving to a *hidden directory* is not returned to the
//! caller; instead the per-process context names select an entry inside it
//! (the `/bin/who` → `vax`/`45` mechanism of §2.4.1). Appending `@` to a
//! component escapes the indirection and names the hidden directory
//! itself.
//!
//! When the using-site name cache is enabled
//! ([`Coherence::Validate`]), directory interrogation first asks the
//! CSS for the most current version it knows ([`FsMsg::VvCheck`], one
//! round trip) and serves the parsed contents from
//! [`crate::namecache::NameAttrCache`] on a version match, skipping the
//! open → read → close exchange entirely. Local directories with no
//! pending propagations keep the paper's zero-message bypass instead.
//!
//! With coherence leases additionally enabled
//! ([`Coherence::Lease`]), the probe itself disappears on the
//! warm path: the CSS records the probing site as a lease holder on the
//! first validation, and until it recalls the lease the holder serves
//! cached dentries and attributes locally with zero messages.

use std::sync::Arc;

use locus_storage::PAGE_SIZE;
use locus_types::{Errno, FileType, Gfid, Ino, OpenMode, Perms, SiteId, SysResult, VersionVector};

use crate::cluster::{Coherence, FsCluster};
use crate::cost;
use crate::directory::Directory;
use crate::mailbox::Mailbox;
use crate::ops::io::{get_page, put_page_range};
use crate::ops::open::{close_ticket, open_gfid};
use crate::ops::{commit, OpenTicket};
use crate::proto::{FsMsg, FsReply, InodeInfo, MetaUpdate, ProcFsCtx};

/// Reads the entire contents of an already open file.
pub(crate) fn read_all_via(fsc: &FsCluster, us: SiteId, t: &OpenTicket) -> SysResult<Vec<u8>> {
    let size = t.info.size as usize;
    let npages = size.div_ceil(PAGE_SIZE);
    let mut out = Vec::with_capacity(size);
    for lpn in 0..npages {
        let page = get_page(fsc, us, t.gfid, t.ss, lpn, npages)?;
        let take = (size - lpn * PAGE_SIZE).min(PAGE_SIZE);
        out.extend_from_slice(&page[..take]);
    }
    Ok(out)
}

/// Opens, reads, and closes a file internally (directory interrogation).
pub fn read_file_internal(fsc: &FsCluster, us: SiteId, gfid: Gfid) -> SysResult<Vec<u8>> {
    let t = open_gfid(fsc, us, gfid, OpenMode::InternalUnsyncRead)?;
    let r = read_all_via(fsc, us, &t);
    close_ticket(fsc, us, &t)?;
    r
}

/// Opens `gfid` for modification, replaces its entire contents, commits
/// and closes — the whole-file-overwrite pattern §2.3.6 says dominates
/// Unix file modification.
pub fn write_file_internal(fsc: &FsCluster, us: SiteId, gfid: Gfid, bytes: &[u8]) -> SysResult<()> {
    let t = open_gfid(fsc, us, gfid, OpenMode::Write)?;
    let r = (|| {
        put_page_range(fsc, us, t.gfid, t.ss, 0, bytes, t.info.size)?;
        truncate_session_to(fsc, us, &t, bytes.len() as u64)?;
        commit::commit_at(fsc, us, t.gfid, t.ss, None)?;
        Ok(())
    })();
    if r.is_err() {
        let _ = commit::abort_at(fsc, us, t.gfid, t.ss);
    }
    close_ticket(fsc, us, &t)?;
    r
}

/// Shrinks the open modification session to exactly `new_size` bytes.
pub(crate) fn truncate_session_to(
    fsc: &FsCluster,
    us: SiteId,
    t: &OpenTicket,
    new_size: u64,
) -> SysResult<()> {
    // Buffered write-behind pages must land in the session before the
    // truncate, or the control write would reorder ahead of them.
    crate::ops::io::flush_write_behind(fsc, us, t.gfid)?;
    let npages = (new_size as usize).div_ceil(PAGE_SIZE);
    if us == t.ss {
        truncate_local(fsc, us, t.gfid, npages, new_size)
    } else {
        // Reuse the write protocol with a zero-length sentinel: model the
        // truncate as a one-message control write.
        fsc.one_way(
            us,
            t.ss,
            FsMsg::WritePage {
                gfid: t.gfid,
                lpn: usize::MAX,
                data: Vec::new(),
                new_size,
            },
        )?;
        // Mirror the cut in the staged images of the session.
        let mut k = fsc.kernel(us);
        let stage = k.staged.entry(t.gfid).or_default();
        stage.pages.split_off(&npages);
        stage.npages = stage.npages.min(npages);
        Ok(())
    }
}

/// SS-local truncate of an open session.
pub(crate) fn truncate_local(
    fsc: &FsCluster,
    ss: SiteId,
    gfid: Gfid,
    npages: usize,
    new_size: u64,
) -> SysResult<()> {
    let mut k = fsc.kernel(ss);
    let mut sess = k.take_session(ss, gfid)?;
    let pack = k.pack_of(gfid.fg).ok_or(Errno::Enocopy)?;
    let r = sess.truncate_pages(pack, npages);
    sess.set_size(new_size);
    k.sessions.insert(gfid, sess);
    k.charge_io(fsc.net(), gfid.fg);
    r
}

/// Runs a read-modify-write update on a directory file, preserving the
/// atomic entry-operation semantics of §2.3.4.
pub(crate) fn dir_update<R>(
    fsc: &FsCluster,
    us: SiteId,
    dir: Gfid,
    f: impl FnOnce(&mut Directory) -> SysResult<R>,
) -> SysResult<R> {
    let t = open_gfid(fsc, us, dir, OpenMode::Write)?;
    if !t.info.ftype.is_directory_like() {
        close_ticket(fsc, us, &t)?;
        return Err(Errno::Enotdir);
    }
    let result = (|| {
        let bytes = read_all_via(fsc, us, &t)?;
        let mut d = Directory::parse(&bytes)?;
        let r = f(&mut d)?;
        let new = d.serialize();
        put_page_range(fsc, us, t.gfid, t.ss, 0, &new, t.info.size)?;
        truncate_session_to(fsc, us, &t, new.len() as u64)?;
        commit::commit_at(fsc, us, t.gfid, t.ss, None)?;
        Ok(r)
    })();
    if result.is_err() {
        let _ = commit::abort_at(fsc, us, t.gfid, t.ss);
    }
    close_ticket(fsc, us, &t)?;
    result
}

/// Reads a directory's live entries.
pub fn readdir(
    fsc: &FsCluster,
    us: SiteId,
    ctx: &ProcFsCtx,
    path: &str,
) -> SysResult<Vec<(String, Ino)>> {
    let gfid = resolve(fsc, us, ctx, path)?;
    let (d, _) = dir_for_search(fsc, us, gfid, |info| {
        if info.ftype.is_directory_like() {
            Ok(())
        } else {
            Err(Errno::Enotdir)
        }
    })?;
    Ok(d.live().map(|e| (e.name.clone(), e.ino)).collect())
}

/// Stats a file by path.
pub fn stat(fsc: &FsCluster, us: SiteId, ctx: &ProcFsCtx, path: &str) -> SysResult<InodeInfo> {
    let gfid = resolve(fsc, us, ctx, path)?;
    stat_gfid(fsc, us, gfid)
}

/// Stats a file by global identifier, served from the attribute cache
/// when a CSS version probe vouches for the cached copy.
pub fn stat_gfid(fsc: &FsCluster, us: SiteId, gfid: Gfid) -> SysResult<InodeInfo> {
    let tier = coherence_for(fsc, us, gfid);
    let caching = tier != Coherence::Off;
    if caching {
        // Under a live coherence lease the CSS pushes invalidations, so a
        // warm entry is served with no validation probe: zero messages.
        if tier == Coherence::Lease {
            let hit = fsc.with_kernel(us, |k| k.name_cache.attr_under_lease(gfid));
            if let Some(info) = hit {
                fsc.net().obs_note(us, "namecache.hit", gfid, info.vv.total());
                return Ok(info);
            }
        }
        if let Ok(latest) = css_known_latest(fsc, us, gfid) {
            let hit = fsc.with_kernel(us, |k| k.name_cache.attr_fresh(gfid, &latest));
            if let Some(info) = hit {
                fsc.net().obs_note(us, "namecache.hit", gfid, info.vv.total());
                return Ok(info);
            }
            fsc.net().obs_note(us, "namecache.miss", gfid, latest.total());
        }
    }
    let t = open_gfid(fsc, us, gfid, OpenMode::InternalUnsyncRead)?;
    let info = t.info.clone();
    close_ticket(fsc, us, &t)?;
    if caching {
        fsc.with_kernel(us, |k| k.name_cache.insert_attr(gfid, info.clone()));
    }
    Ok(info)
}

/// The one decision of which cache tier serves `gfid` at `us` right now:
/// the cluster's mode, lowered to [`Coherence::Off`] where the paper's
/// zero-message local bypass applies (the §2.3.4 fast path in
/// [`open_gfid`]: a stored copy with no pending propagation — the cache
/// has nothing to win), and from lease to validation while `us` is
/// quarantined (it trusts nothing it cached: recalls may have failed to
/// reach it).
fn coherence_for(fsc: &FsCluster, us: SiteId, gfid: Gfid) -> Coherence {
    let mode = fsc.coherence();
    if mode == Coherence::Off {
        return mode;
    }
    let k = fsc.kernel(us);
    if k.stores_data(gfid) && !k.pull_queued(gfid) {
        Coherence::Off
    } else if mode == Coherence::Lease && fsc.net().quarantined(us) {
        Coherence::Validate
    } else {
        mode
    }
}

/// Asks the CSS for the most current version of `gfid` it knows
/// (§2.3.1) — the cache revalidation probe. A procedure call when this
/// site is the CSS, one [`FsMsg::VvCheck`] round trip otherwise.
fn css_known_latest(fsc: &FsCluster, us: SiteId, gfid: Gfid) -> SysResult<VersionVector> {
    let mut css = fsc.kernel(us).mount.css_of(gfid.fg)?;
    let mut redirects = 0;
    loop {
        let reply = if css == us {
            handle_vv_check(fsc, css, us, gfid)?
        } else {
            fsc.rpc(us, css, FsMsg::VvCheck { gfid })?
        };
        match reply {
            FsReply::VvKnown { vv, lease } => {
                if lease {
                    fsc.with_kernel(us, |k| k.name_cache.grant_lease(gfid));
                    fsc.net().obs_note(us, "lease.grant", gfid, vv.total());
                }
                return Ok(vv);
            }
            // The probe raced a CSS handoff: adopt the newer assignment
            // and revalidate against the site actually holding the role
            // — a warm cache must never be vouched for by an ex-CSS.
            FsReply::NotCss { epoch, new_css } => {
                redirects += 1;
                if redirects > crate::handoff::MAX_CSS_REDIRECTS || new_css == css {
                    return Err(Errno::Esitedown);
                }
                let now = fsc.net().now();
                fsc.with_kernel(us, |k| k.mount.adopt_css(gfid.fg, new_css, epoch, now));
                css = new_css;
            }
            _ => return Err(Errno::Eio),
        }
    }
}

/// CSS-side handler for the revalidation probe: reports the most current
/// version this CSS knows of, from its own copy and the commit
/// notifications it has seen. In name-lease mode the probe doubles as the
/// grant request: the CSS records `from` as a lease holder and vouches
/// for the cached copy until it sends a [`FsMsg::LeaseRecall`]. A copy
/// marked in conflict is never vouched for (`Econflict`): marking leaves
/// the version vector alone, so only the uncached open carries the flag.
pub(crate) fn handle_vv_check(
    fsc: &FsCluster,
    css: SiteId,
    from: SiteId,
    gfid: Gfid,
) -> SysResult<FsReply> {
    fsc.net().charge_cpu_at(css, cost::CONTROL_CPU);
    let mut k = fsc.kernel(css);
    {
        let m = k.mount.get(gfid.fg)?;
        if m.css != css {
            return Ok(FsReply::NotCss {
                epoch: m.css_epoch,
                new_css: m.css,
            });
        }
    }
    k.note_css_request(gfid.fg);
    match k.local_info(gfid) {
        None => return Err(Errno::Enoent),
        Some(info) if info.conflict => return Err(Errno::Econflict),
        Some(_) => {}
    }
    let lease = fsc.coherence() == Coherence::Lease && from != css;
    if lease {
        k.record_lease(gfid, from);
    }
    Ok(FsReply::VvKnown {
        vv: k.known_latest(gfid),
        lease,
    })
}

/// Produces a directory's parsed contents and inode info for searching,
/// from the name cache when a CSS probe validates the entry, through the
/// internal open → read → close protocol otherwise. `check` sees the
/// inode info between open and read, exactly where the uncached protocol
/// applies its type and permission checks.
fn dir_for_search(
    fsc: &FsCluster,
    us: SiteId,
    gfid: Gfid,
    check: impl Fn(&InodeInfo) -> SysResult<()>,
) -> SysResult<(Arc<Directory>, InodeInfo)> {
    let tier = coherence_for(fsc, us, gfid);
    let caching = tier != Coherence::Off;
    if caching {
        // Lease-held directories skip the per-component validation probe
        // entirely (the warm 4-deep resolve drops from 8 messages to 0).
        if tier == Coherence::Lease {
            let hit = fsc.with_kernel(us, |k| k.name_cache.dir_under_lease(gfid));
            if let Some((dir, info)) = hit {
                fsc.net().obs_note(us, "namecache.hit", gfid, info.vv.total());
                check(&info)?;
                return Ok((dir, info));
            }
        }
        if let Ok(latest) = css_known_latest(fsc, us, gfid) {
            let hit = fsc.with_kernel(us, |k| k.name_cache.dir_fresh(gfid, &latest));
            if let Some((dir, info)) = hit {
                fsc.net().obs_note(us, "namecache.hit", gfid, info.vv.total());
                check(&info)?;
                return Ok((dir, info));
            }
            fsc.net().obs_note(us, "namecache.miss", gfid, latest.total());
        }
    }
    let t = open_gfid(fsc, us, gfid, OpenMode::InternalUnsyncRead)?;
    if let Err(e) = check(&t.info) {
        close_ticket(fsc, us, &t)?;
        return Err(e);
    }
    let bytes = read_all_via(fsc, us, &t);
    close_ticket(fsc, us, &t)?;
    let dir = Arc::new(Directory::parse(&bytes?)?);
    if caching {
        fsc.with_kernel(us, |k| {
            k.name_cache.insert_attr(gfid, t.info.clone());
            k.name_cache.insert_dir(gfid, t.info.clone(), Arc::clone(&dir));
        });
    }
    Ok((dir, t.info))
}

/// The file type of `child`, looked up in `dir`: remembered alongside the
/// cached directory when possible (a type change requires freeing the
/// inode, which removes the entry and bumps the directory version first),
/// a full [`stat_gfid`] otherwise.
fn child_type(fsc: &FsCluster, us: SiteId, dir: Gfid, child: Gfid) -> SysResult<FileType> {
    if fsc.coherence() != Coherence::Off {
        if let Some(t) = fsc.kernel(us).name_cache.child_type(dir, child.ino) {
            return Ok(t);
        }
    }
    let info = stat_gfid(fsc, us, child)?;
    fsc.with_kernel(us, |k| {
        k.name_cache.remember_child_type(dir, child.ino, info.ftype);
    });
    Ok(info.ftype)
}

/// Splits a path into its parent directory path and final component.
fn split_parent(path: &str) -> SysResult<(&str, &str)> {
    let trimmed = path.trim_end_matches('/');
    if trimmed.is_empty() {
        return Err(Errno::Einval);
    }
    match trimmed.rfind('/') {
        Some(pos) => Ok((&trimmed[..pos.max(1)], &trimmed[pos + 1..])),
        None => Ok((".", trimmed)),
    }
}

/// Resolves a pathname to a global file identifier (§2.3.4).
pub fn resolve(fsc: &FsCluster, us: SiteId, ctx: &ProcFsCtx, path: &str) -> SysResult<Gfid> {
    fsc.with_span("resolve", us, || resolve_inner(fsc, us, ctx, path))
}

fn resolve_inner(fsc: &FsCluster, us: SiteId, ctx: &ProcFsCtx, path: &str) -> SysResult<Gfid> {
    let mut cur = if path.starts_with('/') {
        fsc.kernel(us).mount.root()?
    } else {
        ctx.cwd
    };
    let mut trail: Vec<Gfid> = Vec::new();

    for raw in path.split('/') {
        if raw.is_empty() || raw == "." {
            continue;
        }
        if raw == ".." {
            cur = match trail.pop() {
                Some(parent) => parent,
                None => {
                    // A relative walk starting at the cwd has no trail:
                    // use the directory's own `..` entry (installed at
                    // mkdir; the root points at itself).
                    let (dir, _) = dir_for_search(fsc, us, cur, |_| Ok(()))?;
                    let parent_ino = dir.lookup("..").ok_or(Errno::Enoent)?;
                    Gfid::new(cur.fg, parent_ino)
                }
            };
            continue;
        }
        let (name, escape) = match raw.strip_suffix('@') {
            Some(stripped) if !stripped.is_empty() => (stripped, true),
            _ => (raw, false),
        };
        fsc.net().charge_cpu_at(us, cost::DIR_SCAN_CPU);

        // Open the directory internally (or serve it from the name
        // cache) and search it.
        let (dir, _) = dir_for_search(fsc, us, cur, |info| {
            if !info.ftype.is_directory_like() {
                return Err(Errno::Enotdir);
            }
            if !info.perms.owner_exec() {
                return Err(Errno::Eacces);
            }
            Ok(())
        })?;
        let ino = dir.lookup(name).ok_or(Errno::Enoent)?;
        let mut next = Gfid::new(cur.fg, ino);

        // Hidden-directory indirection (§2.4.1).
        if !escape && child_type(fsc, us, cur, next)? == FileType::HiddenDirectory {
            next = resolve_hidden(fsc, us, ctx, next)?;
        }
        trail.push(cur);
        cur = fsc.kernel(us).mount.cross_mount_point(next);
    }
    Ok(cur)
}

/// Picks the context-matching entry inside a hidden directory: "if a
/// hidden directory is found during pathname searching, it is examined for
/// a match with the process's context" (§2.4.1).
fn resolve_hidden(fsc: &FsCluster, us: SiteId, ctx: &ProcFsCtx, hidden: Gfid) -> SysResult<Gfid> {
    let (dir, _) = dir_for_search(fsc, us, hidden, |_| Ok(()))?;
    for name in &ctx.contexts {
        if let Some(ino) = dir.lookup(name) {
            return Ok(Gfid::new(hidden.fg, ino));
        }
    }
    Err(Errno::Enoent)
}

/// Chooses the initial storage sites for a new file (§2.3.7):
/// every storage site must store the parent directory; the local site is
/// used first if possible; then the parent's site selection with
/// inaccessible sites last.
pub(crate) fn place_replicas(
    fsc: &FsCluster,
    us: SiteId,
    parent: &InodeInfo,
    parent_fg: locus_types::FilegroupId,
    ncopies: u32,
) -> SysResult<Vec<u32>> {
    let k = fsc.kernel(us);
    let minfo = k.mount.get(parent_fg)?.clone();
    drop(k);
    let mut ordered: Vec<(u32, SiteId)> = Vec::new();
    // Local pack first, if it stores the parent directory.
    for idx in &parent.replicas {
        if let Some(site) = minfo.site_of_pack(*idx) {
            if site == us {
                ordered.push((*idx, site));
            }
        }
    }
    // Then reachable parent replicas, then unreachable ones.
    for reachable_pass in [true, false] {
        for idx in &parent.replicas {
            if let Some(site) = minfo.site_of_pack(*idx) {
                if site == us || ordered.iter().any(|(i, _)| i == idx) {
                    continue;
                }
                let ok = fsc.net().reachable(us, site);
                if ok == reachable_pass {
                    ordered.push((*idx, site));
                }
            }
        }
    }
    if ordered.is_empty() {
        return Err(Errno::Enocopy);
    }
    let n = (ncopies.max(1) as usize).min(ordered.len());
    Ok(ordered.into_iter().take(n).map(|(i, _)| i).collect())
}

/// Creates a file and returns its identifier (entry inserted, copies
/// scheduled for propagation). The companion open is the caller's job.
pub fn create(
    fsc: &FsCluster,
    us: SiteId,
    ctx: &ProcFsCtx,
    path: &str,
    ftype: FileType,
    perms: Perms,
) -> SysResult<Gfid> {
    fsc.net().charge_cpu_at(us, cost::SYSCALL_CPU);
    let (parent_path, name) = split_parent(path)?;
    let dirg = resolve(fsc, us, ctx, parent_path)?;
    let parent = stat_gfid(fsc, us, dirg)?;
    if !parent.ftype.is_directory_like() {
        return Err(Errno::Enotdir);
    }
    // Pipes and devices live at a single storage site.
    let ncopies = match ftype {
        FileType::Pipe | FileType::Device => 1,
        _ => ctx.ncopies,
    };
    let replicas = place_replicas(fsc, us, &parent, dirg.fg, ncopies)?;

    // Perform the create at the first storage site ("the create is done at
    // one storage site and propagated to the other storage sites").
    let creator_pack = replicas[0];
    let creator_site = {
        let k = fsc.kernel(us);
        k.mount
            .get(dirg.fg)?
            .site_of_pack(creator_pack)
            .ok_or(Errno::Enocopy)?
    };
    let (ino, info) = if creator_site == us {
        match handle_create_at(
            fsc,
            us,
            dirg.fg,
            creator_pack,
            ftype,
            perms,
            ctx.uid,
            replicas.clone(),
        )? {
            FsReply::Created { ino, info } => (ino, info),
            _ => return Err(Errno::Eio),
        }
    } else {
        match fsc.rpc(
            us,
            creator_site,
            FsMsg::CreateAt {
                fg: dirg.fg,
                pack_idx: creator_pack,
                ftype,
                perms,
                owner: ctx.uid,
                replicas: replicas.clone(),
            },
        )? {
            FsReply::Created { ino, info } => (ino, info),
            _ => return Err(Errno::Eio),
        }
    };
    let gfid = Gfid::new(dirg.fg, ino);

    // Notify the other containers so metadata copies materialize. The CSS
    // learns immediately (it must make synchronization decisions for the
    // new file); the rest is background work.
    let (containers, css) = {
        let k = fsc.kernel(us);
        let m = k.mount.get(dirg.fg)?;
        (m.containers.clone(), m.css)
    };
    let notify = || FsMsg::CommitNotify {
        gfid,
        vv: info.vv.clone(),
        source: creator_site,
        origin: creator_pack,
        inode_only: true,
        pages: None,
        info: info.clone(),
    };
    if css != creator_site {
        let _ = fsc.one_way(creator_site, css, notify());
    }
    for (_, site) in containers {
        if site != creator_site && site != css {
            let _ = fsc.one_way(creator_site, site, notify());
        }
    }

    // Insert the name; undo the create if the name already exists.
    if let Err(e) = dir_update(fsc, us, dirg, |d| d.insert(name, ino)) {
        let _ = unlink_gfid(fsc, us, gfid);
        return Err(e);
    }

    // A new directory needs its `.` and `..` entries.
    if ftype.is_directory_like() {
        dir_update(fsc, us, gfid, |d| {
            d.insert(".", ino)?;
            d.insert("..", dirg.ino)
        })?;
    }
    Ok(gfid)
}

/// Storage-site create handler: allocates an inode number from the local
/// pool ("the storage site allocates an inode number from a pool which is
/// local to that physical container", §2.3.7).
#[allow(clippy::too_many_arguments)]
pub(crate) fn handle_create_at(
    fsc: &FsCluster,
    at: SiteId,
    fg: locus_types::FilegroupId,
    pack_idx: u32,
    ftype: FileType,
    perms: Perms,
    owner: u32,
    replicas: Vec<u32>,
) -> SysResult<FsReply> {
    fsc.net().charge_cpu_at(at, cost::CONTROL_CPU);
    // Epoch batches stamp at the boundary so creation mtimes are
    // engine-independent (shard-local clocks diverge mid-epoch).
    let now = fsc.stamp_now();
    let mut k = fsc.kernel(at);
    let pack = k
        .packs
        .get_mut(&locus_types::PackId::new(fg, pack_idx))
        .ok_or(Errno::Enocopy)?;
    let ino = pack.alloc_ino()?;
    let mut inode = locus_storage::DiskInode::new(ftype, perms, owner);
    inode.replicas = replicas;
    inode.mtime = now;
    inode.vv.bump(pack.origin());
    pack.install_inode(ino, inode);
    let info = InodeInfo::from(pack.inode(ino).expect("just installed"));
    Ok(FsReply::Created { ino, info })
}

/// Unlinks a path: removes the directory entry, and deletes the file when
/// the last link goes ("the US marks the inode and does a commit",
/// §2.3.7).
pub fn unlink(fsc: &FsCluster, us: SiteId, ctx: &ProcFsCtx, path: &str) -> SysResult<()> {
    fsc.net().charge_cpu_at(us, cost::SYSCALL_CPU);
    let (parent_path, name) = split_parent(path)?;
    let dirg = resolve(fsc, us, ctx, parent_path)?;
    let gfid = resolve(fsc, us, ctx, path)?;
    let info = stat_gfid(fsc, us, gfid)?;
    if info.ftype.is_directory_like() {
        // rmdir semantics: only empty directories may go.
        let bytes = read_file_internal(fsc, us, gfid)?;
        let d = Directory::parse(&bytes)?;
        let significant = d.live().filter(|e| e.name != "." && e.name != "..").count();
        if significant > 0 {
            return Err(Errno::Enotempty);
        }
    }
    dir_update(fsc, us, dirg, |d| {
        d.remove(name)?;
        Ok(())
    })?;
    if info.nlink > 1 {
        set_meta(
            fsc,
            us,
            gfid,
            MetaUpdate {
                nlink: Some(info.nlink - 1),
                ..Default::default()
            },
        )
    } else {
        unlink_gfid(fsc, us, gfid)
    }
}

/// Marks a file deleted via open-modify-commit.
pub(crate) fn unlink_gfid(fsc: &FsCluster, us: SiteId, gfid: Gfid) -> SysResult<()> {
    set_meta(
        fsc,
        us,
        gfid,
        MetaUpdate {
            delete: true,
            ..Default::default()
        },
    )
}

/// Applies an inode-only change (chmod/chown/link-count/delete) through
/// the normal open → commit machinery.
pub fn set_meta(fsc: &FsCluster, us: SiteId, gfid: Gfid, meta: MetaUpdate) -> SysResult<()> {
    let t = open_gfid(fsc, us, gfid, OpenMode::Write)?;
    let r = commit::commit_at(fsc, us, t.gfid, t.ss, Some(meta)).map(|_| ());
    if r.is_err() {
        let _ = commit::abort_at(fsc, us, t.gfid, t.ss);
    }
    close_ticket(fsc, us, &t)?;
    r
}

/// Creates a hard link. Links cannot cross filegroups (classic Unix
/// `EXDEV`).
pub fn link(
    fsc: &FsCluster,
    us: SiteId,
    ctx: &ProcFsCtx,
    existing: &str,
    newpath: &str,
) -> SysResult<()> {
    fsc.net().charge_cpu_at(us, cost::SYSCALL_CPU);
    let target = resolve(fsc, us, ctx, existing)?;
    let info = stat_gfid(fsc, us, target)?;
    if info.ftype.is_directory_like() {
        return Err(Errno::Eisdir);
    }
    let (parent_path, name) = split_parent(newpath)?;
    let dirg = resolve(fsc, us, ctx, parent_path)?;
    if dirg.fg != target.fg {
        return Err(Errno::Exdev);
    }
    dir_update(fsc, us, dirg, |d| d.insert(name, target.ino))?;
    set_meta(
        fsc,
        us,
        target,
        MetaUpdate {
            nlink: Some(info.nlink + 1),
            ..Default::default()
        },
    )
}

/// Renames within one filegroup. The destination must not exist.
pub fn rename(fsc: &FsCluster, us: SiteId, ctx: &ProcFsCtx, from: &str, to: &str) -> SysResult<()> {
    fsc.net().charge_cpu_at(us, cost::SYSCALL_CPU);
    let target = resolve(fsc, us, ctx, from)?;
    let (from_parent, from_name) = split_parent(from)?;
    let (to_parent, to_name) = split_parent(to)?;
    let from_dir = resolve(fsc, us, ctx, from_parent)?;
    let to_dir = resolve(fsc, us, ctx, to_parent)?;
    if from_dir.fg != to_dir.fg {
        return Err(Errno::Exdev);
    }
    if from_dir == to_dir {
        return dir_update(fsc, us, from_dir, |d| d.rename(from_name, to_name));
    }
    dir_update(fsc, us, to_dir, |d| d.insert(to_name, target.ino))?;
    dir_update(fsc, us, from_dir, |d| {
        d.remove(from_name)?;
        Ok(())
    })
}

/// Delivers a mail message to `uid`'s mailbox (`/mail/u<uid>`), creating
/// the mailbox if needed. Recovery notifies file owners this way (§4.6).
pub fn deliver_mail(fsc: &FsCluster, us: SiteId, uid: u32, body: &str) -> SysResult<()> {
    let ctx = ProcFsCtx {
        cwd: fsc.kernel(us).mount.root()?,
        contexts: Vec::new(),
        ncopies: u32::MAX,
        uid,
    };
    if resolve(fsc, us, &ctx, "/mail") == Err(Errno::Enoent) {
        match create(
            fsc,
            us,
            &ctx,
            "/mail",
            FileType::Directory,
            Perms::DIR_DEFAULT,
        ) {
            Ok(_) | Err(Errno::Eexist) => {}
            Err(e) => return Err(e),
        }
    }
    let path = format!("/mail/u{uid}");
    let gfid = match resolve(fsc, us, &ctx, &path) {
        Ok(g) => g,
        Err(Errno::Enoent) => create(fsc, us, &ctx, &path, FileType::Mailbox, Perms::FILE_DEFAULT)?,
        Err(e) => return Err(e),
    };
    let seq = fsc.mail_seq.get();
    fsc.mail_seq.set(seq + 1);
    let bytes = read_file_internal(fsc, us, gfid)?;
    let mut mb = Mailbox::parse(&bytes)?;
    mb.insert(Mailbox::message_id(us.0, seq), body);
    write_file_internal(fsc, us, gfid, &mb.serialize())
}

//! The open and close protocols (§2.3.3, Figure 2).
//!
//! The general open involves all three logical sites:
//!
//! ```text
//! US  --> CSS   OPEN request
//! CSS --> SS    request for storage site
//! SS  --> CSS   response to previous message
//! CSS --> US    response to first message
//! ```
//!
//! with two optimizations: if the US's own copy is the latest version the
//! CSS "selects the US as the SS and just responds"; and if the CSS itself
//! stores the latest version "the CSS picks itself as SS (without any
//! message overhead)".

use locus_types::{Errno, Gfid, OpenMode, SiteId, SysResult, VersionVector};

use crate::cluster::FsCluster;
use crate::cost;
use crate::ops::OpenTicket;
use crate::proto::{FsMsg, FsReply, InodeInfo};

/// Opens `gfid` from site `us` in the given mode, running the full
/// distributed open protocol.
pub fn open_gfid(fsc: &FsCluster, us: SiteId, gfid: Gfid, mode: OpenMode) -> SysResult<OpenTicket> {
    fsc.with_span("open", us, || open_gfid_inner(fsc, us, gfid, mode))
}

fn open_gfid_inner(
    fsc: &FsCluster,
    us: SiteId,
    gfid: Gfid,
    mode: OpenMode,
) -> SysResult<OpenTicket> {
    fsc.net().charge_cpu_at(us, cost::SYSCALL_CPU);
    if !fsc.net().is_up(us) {
        return Err(Errno::Esitedown);
    }

    // §2.3.4: a local directory with no pending propagations is searched
    // without informing the CSS.
    if mode == OpenMode::InternalUnsyncRead {
        let mut k = fsc.kernel(us);
        let pending = k.pull_queued(gfid);
        if !pending && k.stores_data(gfid) {
            let info = k.local_info(gfid).expect("stores_data implies inode");
            if info.deleted {
                return Err(Errno::Enoent);
            }
            k.incore_mut(gfid, info.clone()).opens_here += 1;
            return Ok(OpenTicket {
                gfid,
                ss: us,
                write: false,
                bypass: true,
                unsync: true,
                info,
            });
        }
    }

    let (css, us_vv) = {
        let k = fsc.kernel(us);
        let css = k.mount.css_of(gfid.fg)?;
        let us_vv = if k.stores_data(gfid) {
            k.local_info(gfid).map(|i| i.vv)
        } else {
            None
        };
        (css, us_vv)
    };

    // "If the local site is the CSS, only a procedure call is needed"
    // (§2.3.3). A `NotCss` redirect means the request raced a live CSS
    // handoff: adopt the newer assignment and retry against the new CSS.
    // The bound covers any realistic chain of back-to-back handoffs; an
    // assignment loop beyond it surfaces as an error instead of hanging.
    let mut css = css;
    let reply = {
        let mut redirects = 0;
        loop {
            let r = if css == us {
                handle_css_open(fsc, css, gfid, mode, us_vv.clone(), us)?
            } else {
                fsc.rpc(
                    us,
                    css,
                    FsMsg::OpenReq {
                        gfid,
                        mode,
                        us_vv: us_vv.clone(),
                        us,
                    },
                )?
            };
            let FsReply::NotCss { epoch, new_css } = r else {
                break r;
            };
            redirects += 1;
            if redirects > crate::handoff::MAX_CSS_REDIRECTS || new_css == css {
                return Err(Errno::Esitedown);
            }
            let now = fsc.net().now();
            fsc.with_kernel(us, |k| k.mount.adopt_css(gfid.fg, new_css, epoch, now));
            css = new_css;
        }
    };
    let FsReply::Opened { ss, info } = reply else {
        return Err(Errno::Eio);
    };

    // "The response from the CSS is used to complete the incore inode
    // information at the US" (§2.3.3); if the US is the SS, the local disk
    // inode is authoritative.
    let mut k = fsc.kernel(us);
    let info = if ss == us {
        k.local_info(gfid).unwrap_or(info)
    } else {
        info
    };
    // Validate remotely cached buffers against the version being opened
    // (the page-valid check): pages fetched under an older version are
    // dropped before this open reads anything.
    if ss != us {
        let fresh = k.name_cache.pages_fresh(gfid, &info);
        if !fresh {
            k.cache
                .invalidate_file(crate::ops::io::net_cache_pack(gfid.fg), gfid.ino);
        }
    }
    let inc = k.incore_mut(gfid, info.clone());
    inc.info = info.clone();
    inc.opens_here += 1;
    inc.ss = Some(ss);
    if mode.is_write() {
        inc.writing = true;
    }
    Ok(OpenTicket {
        gfid,
        ss,
        write: mode.is_write(),
        bypass: false,
        unsync: !mode.synchronized(),
        info,
    })
}

/// CSS-side open handling: synchronization check and storage-site
/// selection (§2.3.3).
pub(crate) fn handle_css_open(
    fsc: &FsCluster,
    css: SiteId,
    gfid: Gfid,
    mode: OpenMode,
    us_vv: Option<VersionVector>,
    us: SiteId,
) -> SysResult<FsReply> {
    fsc.net().charge_cpu_at(css, cost::CONTROL_CPU);
    let (latest, local_info, candidates) = {
        let mut k = fsc.kernel(css);
        let minfo = k.mount.get(gfid.fg)?.clone();
        // A live handoff may have moved the role while this request was
        // in flight: answer with a typed redirect instead of making a
        // synchronization decision this site no longer owns.
        if minfo.css != css {
            return Ok(FsReply::NotCss {
                epoch: minfo.css_epoch,
                new_css: minfo.css,
            });
        }
        k.note_css_request(gfid.fg);
        let local = k.local_info(gfid).ok_or(Errno::Enoent)?;
        if local.deleted {
            return Err(Errno::Enoent);
        }
        if local.conflict && mode.synchronized() {
            // §4.6: files with unresolved conflicts refuse normal access.
            return Err(Errno::Econflict);
        }
        if mode.is_write() {
            // Single-writer synchronization policy: the writing site "would
            // be kept incore at the CSS" (§2.3.3). The writing site itself
            // is exempt: a second request from the registered writer is a
            // retried open whose reply was lost, and rejecting it would
            // wedge the write slot forever.
            if let Some(inc) = k.incore_get(gfid) {
                if let Some(cs) = &inc.css {
                    if cs.writer.is_some_and(|w| w != us) {
                        return Err(Errno::Etxtbsy);
                    }
                }
            }
        }
        let latest = k.known_latest(gfid);
        let mut candidates = Vec::new();
        for idx in &local.replicas {
            if let Some(site) = minfo.site_of_pack(*idx) {
                if site != us && site != css && !candidates.contains(&site) {
                    candidates.push(site);
                }
            }
        }
        (latest, local, candidates)
    };

    // Optimization 1: the US already stores the latest version — "the CSS
    // selects the US as the SS and just responds appropriately".
    if let Some(us_vv) = &us_vv {
        if us_vv.covers(&latest) {
            register_open(fsc, css, gfid, us, us, mode, &local_info)?;
            return Ok(FsReply::Opened {
                ss: us,
                info: local_info,
            });
        }
    }

    // Optimization 2: the CSS stores the latest version and picks itself
    // "without any message overhead". A quarantined CSS keeps making
    // synchronization decisions (until the handoff relieves it) but
    // stops volunteering its own replica for reads and writes.
    let css_has_latest = {
        let k = fsc.kernel(css);
        k.stores_data(gfid) && local_info.vv.covers(&latest) && !fsc.net().quarantined(css)
    };
    if css_has_latest {
        register_open(fsc, css, gfid, us, css, mode, &local_info)?;
        if us != css {
            let mut k = fsc.kernel(css);
            k.incore_mut(gfid, local_info.clone()).serving.insert(us);
        }
        return Ok(FsReply::Opened {
            ss: css,
            info: local_info,
        });
    }

    // General case: poll potential storage sites (§2.3.3). Inaccessible
    // sites are simply skipped — polls to them would time out — and so
    // are health-quarantined sites: a gray replica must not serve reads
    // or acknowledge commits until probation readmits it.
    for cand in candidates {
        if !fsc.net().reachable(css, cand) || fsc.net().quarantined(cand) {
            continue;
        }
        let poll = FsMsg::SsPoll {
            gfid,
            latest: latest.clone(),
            us,
            write: mode.is_write(),
        };
        match fsc.rpc(css, cand, poll) {
            Ok(FsReply::SsAccept { info }) => {
                register_open(fsc, css, gfid, us, cand, mode, &info)?;
                return Ok(FsReply::Opened { ss: cand, info });
            }
            Ok(_) | Err(_) => continue,
        }
    }

    // Degraded fallback: every candidate replica is stale, unreachable or
    // quarantined — e.g. the only current copy sits on a gray site. If a
    // commit notification already queued a propagation for this file, the
    // CSS drains it on demand — recovery pulls *from* a quarantined site
    // are allowed, quarantine only bars it from serving client opens —
    // and then offers its own, now-current replica as the SS.
    if !fsc.net().quarantined(css) {
        let pending = {
            let k = fsc.kernel(css);
            k.prop_queue.iter().find(|r| r.gfid == gfid).cloned()
        };
        if let Some(req) = pending {
            if crate::ops::commit::propagate_pull(fsc, css, &req).is_ok() {
                fsc.with_kernel(css, |k| k.prop_queue.retain(|r| r.gfid != gfid));
                let current = {
                    let k = fsc.kernel(css);
                    k.local_info(gfid).filter(|i| {
                        !i.deleted && k.stores_data(gfid) && i.vv.covers(&latest)
                    })
                };
                if let Some(info) = current {
                    register_open(fsc, css, gfid, us, css, mode, &info)?;
                    if us != css {
                        let mut k = fsc.kernel(css);
                        k.incore_mut(gfid, info.clone()).serving.insert(us);
                    }
                    return Ok(FsReply::Opened { ss: css, info });
                }
            }
        }
    }
    Err(Errno::Enocopy)
}

/// Registers a granted open in the CSS synchronization state.
fn register_open(
    fsc: &FsCluster,
    css: SiteId,
    gfid: Gfid,
    us: SiteId,
    ss: SiteId,
    mode: OpenMode,
    info: &InodeInfo,
) -> SysResult<()> {
    if !mode.synchronized() {
        return Ok(()); // directory interrogation takes no global locks
    }
    let mut k = fsc.kernel(css);
    k.incore_mut(gfid, info.clone())
        .css_mut()
        .register(us, ss, mode)
}

/// Candidate-SS poll handler: accept if this site stores the latest
/// version, refuse otherwise (§2.3.3).
pub(crate) fn handle_ss_poll(
    fsc: &FsCluster,
    cand: SiteId,
    gfid: Gfid,
    latest: &VersionVector,
    us: SiteId,
    _write: bool,
) -> SysResult<FsReply> {
    fsc.net().charge_cpu_at(cand, cost::CONTROL_CPU);
    let mut k = fsc.kernel(cand);
    let Some(info) = k.local_info(gfid) else {
        return Ok(FsReply::SsRefuse);
    };
    if info.deleted || !k.stores_data(gfid) || !info.vv.covers(latest) {
        return Ok(FsReply::SsRefuse);
    }
    k.incore_mut(gfid, info.clone()).serving.insert(us);
    Ok(FsReply::SsAccept { info })
}

/// Closes an open obtained from [`open_gfid`].
pub fn close_ticket(fsc: &FsCluster, us: SiteId, t: &OpenTicket) -> SysResult<()> {
    fsc.with_span("close", us, || close_ticket_inner(fsc, us, t))
}

fn close_ticket_inner(fsc: &FsCluster, us: SiteId, t: &OpenTicket) -> SysResult<()> {
    fsc.net().charge_cpu_at(us, cost::SYSCALL_CPU);
    let last = {
        let mut k = fsc.kernel(us);
        let inc = k.incore_get(t.gfid).ok_or(Errno::Ebadf)?;
        inc.opens_here = inc.opens_here.saturating_sub(1);
        if t.write {
            inc.writing = false;
        }
        let last = inc.opens_here == 0;
        if last {
            inc.ss = None;
            // Whatever this site staged for a session it never committed
            // dies with its last open.
            k.staged.remove(&t.gfid);
        }
        last
    };

    // "If this is not the last close of the file at this US, only local
    // state information need be updated" (§2.3.3); CSS-bypassing
    // unsynchronized opens have no remote state either.
    if t.bypass || !last {
        fsc.with_kernel(us, |k| k.maybe_release_incore(t.gfid));
        return Ok(());
    }

    if t.ss == us {
        ss_side_close(fsc, us, t.gfid, us, t.write, t.unsync)?;
    } else {
        // Site failures mid-close degrade to the cleanup path (§5.6).
        let _ = fsc.rpc(
            us,
            t.ss,
            FsMsg::Close {
                gfid: t.gfid,
                us,
                write: t.write,
            },
        );
    }
    fsc.with_kernel(us, |k| k.maybe_release_incore(t.gfid));
    Ok(())
}

/// SS-side close handler (first leg of the four-message close).
pub(crate) fn handle_close(
    fsc: &FsCluster,
    ss: SiteId,
    gfid: Gfid,
    us: SiteId,
    write: bool,
) -> SysResult<FsReply> {
    fsc.net().charge_cpu_at(ss, cost::CONTROL_CPU);
    {
        let mut k = fsc.kernel(ss);
        if let Some(inc) = k.incore_get(gfid) {
            inc.serving.remove(&us);
        }
    }
    ss_side_close(fsc, ss, gfid, us, write, false)?;
    Ok(FsReply::Ok)
}

/// Common SS-side close continuation: notify the CSS "so they can
/// deallocate incore inode structures and so the CSS can alter state data
/// which might affect its next synchronization policy decision" (§2.3.3).
fn ss_side_close(
    fsc: &FsCluster,
    ss: SiteId,
    gfid: Gfid,
    us: SiteId,
    write: bool,
    unsync: bool,
) -> SysResult<()> {
    if write {
        // The writer is gone; a session still open here means its commit
        // never arrived (a lost write ack left pages the US never
        // confirmed). Closing without committing discards them.
        let mut k = fsc.kernel(ss);
        if k.session_writer.get(&gfid) == Some(&us) {
            let _ = k.abort_session(gfid);
        }
    }
    let css = fsc.kernel(ss).mount.css_of(gfid.fg)?;
    if !unsync {
        if css == ss {
            let _ = handle_ss_close(fsc, css, gfid, us, write);
        } else {
            // The CSS may have dropped out of the partition; the cleanup
            // procedure rebuilds its lock table (§5.6).
            let _ = fsc.rpc(ss, css, FsMsg::SsClose { gfid, us, write });
        }
    }
    fsc.with_kernel(ss, |k| k.maybe_release_incore(gfid));
    Ok(())
}

/// CSS-side close handler: releases synchronization state.
pub(crate) fn handle_ss_close(
    fsc: &FsCluster,
    css: SiteId,
    gfid: Gfid,
    us: SiteId,
    write: bool,
) -> SysResult<FsReply> {
    fsc.net().charge_cpu_at(css, cost::CONTROL_CPU);
    let mut k = fsc.kernel(css);
    k.note_css_request(gfid.fg);
    if let Some(inc) = k.incore_get(gfid) {
        if let Some(cs) = inc.css.as_mut() {
            cs.deregister(us, write);
        }
    }
    k.maybe_release_incore(gfid);
    Ok(FsReply::Ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::FsClusterBuilder;
    use crate::cluster::IoPolicy;
    use crate::ops::fd;
    use crate::ops::io::net_cache_pack;
    use crate::proto::ProcFsCtx;
    use locus_storage::PAGE_SIZE;
    use locus_types::{FileType, MachineType, Perms};

    /// Page `p` of version `v`: every byte is `v + p`, so any single
    /// stale page surviving an invalidation shows up in a content check.
    fn content(version: u8, pages: usize) -> Vec<u8> {
        (0..pages * PAGE_SIZE)
            .map(|i| version.wrapping_add((i / PAGE_SIZE) as u8))
            .collect()
    }

    fn cached_pages(fsc: &FsCluster, us: SiteId, gfid: Gfid, npages: usize) -> usize {
        let k = fsc.kernel(us);
        (0..npages)
            .filter(|&lpn| k.cache.contains(&(net_cache_pack(gfid.fg), gfid.ino, lpn)))
            .count()
    }

    /// A batch of pages fetched under one version must be dropped *in
    /// full* when a later open observes a newer version vector — the
    /// page-valid check (§3.2 fn 1) applies to every page of the batch,
    /// not just the pages the new commit touched.
    #[test]
    fn batched_pages_fully_invalidated_by_newer_open() {
        let fsc = FsClusterBuilder::new()
            .vax_sites(2)
            .filegroup("root", &[0])
            .io_policy(IoPolicy::batched())
            .build();
        let w = SiteId(0);
        let us = SiteId(1);
        const NPAGES: usize = 5;

        let wctx = ProcFsCtx::new(fsc.kernel(w).mount.root().unwrap(), MachineType::Vax);
        let v1 = content(1, NPAGES);
        let f = fd::creat(&fsc, w, &wctx, "/data", FileType::Untyped, Perms::FILE_DEFAULT)
            .expect("creat");
        fd::write(&fsc, w, f, &v1).expect("write v1");
        fd::close(&fsc, w, f).expect("close v1");

        // The diskless US reads the whole file through batched fetches,
        // leaving the batch in its network page cache.
        let uctx = ProcFsCtx::new(fsc.kernel(us).mount.root().unwrap(), MachineType::Vax);
        let gfid = crate::ops::namei::resolve(&fsc, us, &uctx, "/data").expect("resolve");
        let f = fd::open(&fsc, us, &uctx, "/data", OpenMode::Read).expect("open for batch read");
        assert_eq!(fd::read(&fsc, us, f, NPAGES * PAGE_SIZE).expect("read v1"), v1);
        fd::close(&fsc, us, f).expect("close read");
        assert_eq!(
            cached_pages(&fsc, us, gfid, NPAGES),
            NPAGES,
            "the batched read should have cached the whole file"
        );

        // A concurrent commit rewrites only page 0: pages 1..4 of the
        // cached batch are now stale even though their bytes never moved.
        let f = fd::open(&fsc, w, &wctx, "/data", OpenMode::Write).expect("reopen for write");
        fd::write(&fsc, w, f, &content(2, 1)).expect("write v2 page 0");
        fd::close(&fsc, w, f).expect("commit v2");

        // The next open at the US sees the newer version vector and must
        // drop the entire batch before serving anything.
        let f = fd::open(&fsc, us, &uctx, "/data", OpenMode::Read).expect("reopen for read");
        assert_eq!(
            cached_pages(&fsc, us, gfid, NPAGES),
            0,
            "stale pages of the old batch survived the page-valid check"
        );
        let mut expect = v1.clone();
        expect[..PAGE_SIZE].copy_from_slice(&content(2, 1));
        assert_eq!(
            fd::read(&fsc, us, f, NPAGES * PAGE_SIZE).expect("read v2"),
            expect,
            "read served stale batched pages"
        );
        fd::close(&fsc, us, f).expect("close");
    }
}

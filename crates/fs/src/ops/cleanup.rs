//! Filesystem cleanup after a partition change (§5.6).
//!
//! "Essentially, each machine, once it has decided that a particular site
//! is unavailable, must invoke failure handling for all resources which
//! its processes were using at that site, or for all local resources
//! which processes at that site were using."
//!
//! The actions implemented here are the file rows of the §5.6 tables:
//!
//! | resource                          | action                                   |
//! |-----------------------------------|------------------------------------------|
//! | local file open for update remotely | discard pages, close file, abort updates |
//! | local file open for read remotely   | close file                               |
//! | remote file open for update locally  | discard pages, set error in descriptor   |
//! | remote file open for read locally    | internal close, attempt reopen elsewhere |
//!
//! plus lock-table reconstruction at the (possibly new) CSS: "that site
//! must reconstruct the lock table for all open files from the
//! information remaining in the partition."

use std::collections::{BTreeMap, BTreeSet};

use locus_types::{Errno, FilegroupId, Gfid, OpenMode, SiteId, SysResult};

use crate::cluster::FsCluster;
use crate::kernel::FdKind;
use crate::ops::open::open_gfid;
use crate::proto::{Fd, FsMsg, FsReply};

/// What cleanup did at one site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CleanupReport {
    /// SS-side modification sessions aborted (departed writer).
    pub sessions_aborted: usize,
    /// SS-side serving registrations dropped (departed readers/writers).
    pub remote_opens_closed: usize,
    /// Local write descriptors latched with an error.
    pub fds_errored: usize,
    /// Local read descriptors transparently reopened at another copy.
    pub fds_reopened: usize,
}

/// Runs the §5.6 cleanup at `site`, given the set of sites remaining in
/// its partition and the filegroups whose coherence state the site
/// keeps: those whose CSS the reconfiguration selected again and with
/// which the site was partitioned (and up) at the previous
/// reconfiguration. Every other filegroup is demoted.
pub fn cleanup_site(
    fsc: &FsCluster,
    site: SiteId,
    alive: &BTreeSet<SiteId>,
    keep: &BTreeSet<FilegroupId>,
) -> CleanupReport {
    let mut report = CleanupReport::default();
    if !fsc.net().is_up(site) {
        return report;
    }

    // Every name-cache entry of a filegroup that is not kept was
    // validated against a CSS this site no longer answers to, or missed
    // that CSS's recalls: demote it before touching anything else (§5.6).
    // The entries stay and revalidate against the new partition's CSS on
    // next use; this site's lease marks and page-valid tags for the
    // filegroup go.
    //
    // CSS role: a kept filegroup keeps the lease rows of holders still in
    // the partition — exactly the rows backing the marks its holders
    // kept. Every other row goes, counted as a revoke: a departed holder
    // cannot be recalled, and a holder that demoted holds nothing.
    let abandoned = {
        let mut k = fsc.kernel(site);
        let fgs: Vec<FilegroupId> = k.mount.filegroups().map(|m| m.fg).collect();
        let mut still_css = BTreeSet::new();
        for fg in fgs {
            if !keep.contains(&fg) {
                k.name_cache.demote_fg(fg);
            } else if k.mount.css_of(fg) == Ok(site) {
                still_css.insert(fg);
            }
        }
        let dropped = k.retain_lease_rows(|g, h| still_css.contains(&g.fg) && alive.contains(&h));
        k.name_cache.count_revokes(dropped);
        k.take_abandoned_recalls()
    };
    // Recalls this site abandoned since its last cleanup: the holder may
    // still carry the mark. A holder back in the partition gets the
    // recall now; one outside it demotes in its own partition's cleanup.
    let mut holders_of: BTreeMap<Gfid, Vec<SiteId>> = BTreeMap::new();
    for (gfid, holder) in abandoned {
        if holder != site && alive.contains(&holder) {
            holders_of.entry(gfid).or_default().push(holder);
        }
    }
    for (gfid, holders) in holders_of {
        fsc.send_recalls(site, gfid, &holders);
    }

    // ---- SS and CSS roles: local resources in use remotely ----------
    let mut sessions_to_abort: Vec<(SiteId, Gfid)> = Vec::new();
    {
        let mut k = fsc.kernel(site);
        let gfids: Vec<Gfid> = k.incore.keys().copied().collect();
        for gfid in gfids {
            let inc = k.incore.get_mut(&gfid).expect("just listed");
            // Close remote opens from departed sites.
            let before = inc.serving.len();
            inc.serving.retain(|s| alive.contains(s));
            report.remote_opens_closed += before - inc.serving.len();
            // CSS role: drop lock state of departed sites; a departed
            // writer's open session (wherever the SS is) must abort.
            if let Some(cs) = inc.css.as_mut() {
                if let Some(w) = cs.writer {
                    if !alive.contains(&w) {
                        let ss = cs.ss_of.get(&w).copied().unwrap_or(site);
                        sessions_to_abort.push((ss, gfid));
                    }
                }
                cs.retain_sites(alive);
            }
        }
        // A session at this site whose file no remaining US is writing
        // and whose writer departed is covered by the CSS loop above when
        // this site is the CSS; if the CSS itself departed, abort any
        // session with no surviving serving writer conservatively.
        let orphan_sessions: Vec<Gfid> = k
            .session_files()
            .into_iter()
            .filter(|g| {
                let css = k.mount.css_of(g.fg).ok();
                css.map(|c| !alive.contains(&c)).unwrap_or(false)
            })
            .collect();
        for g in orphan_sessions {
            sessions_to_abort.push((site, g));
        }
    }
    for (ss, gfid) in sessions_to_abort {
        if ss == site {
            if let Ok(()) = fsc.kernel(site).abort_session(gfid) {
                report.sessions_aborted += 1;
            }
        } else if alive.contains(&ss)
            && fsc
                .rpc(site, ss, crate::proto::FsMsg::AbortChanges { gfid })
                .is_ok()
        {
            report.sessions_aborted += 1;
        }
    }

    // ---- US role: remote resources in use locally --------------------
    let affected: Vec<(Fd, Gfid, bool)> = {
        let k = fsc.kernel(site);
        k.fds
            .iter()
            .filter(|(_, of)| of.kind == FdKind::File)
            .filter(|(_, of)| of.ss != site && !alive.contains(&of.ss))
            .map(|(&fd, of)| (fd, of.gfid, of.mode.is_write()))
            .collect()
    };
    for (fd, gfid, write) in affected {
        if write {
            // "Discard pages, set error in local file descriptor."
            crate::ops::io::discard_session_buffers(fsc, site, gfid);
            let mut k = fsc.kernel(site);
            if let Ok(of) = k.fd_mut(fd) {
                of.error = Some(Errno::Esitedown);
            }
            k.invalidate_caches_for(gfid);
            report.fds_errored += 1;
        } else {
            // "Internal close, attempt to reopen at other site."
            fsc.with_kernel(site, |k| k.invalidate_caches_for(gfid));
            match open_gfid(fsc, site, gfid, OpenMode::Read) {
                Ok(t) => {
                    let mut k = fsc.kernel(site);
                    // The replacement open supersedes the lost one: fold
                    // the counts back together.
                    if let Some(inc) = k.incore_get(gfid) {
                        inc.opens_here = inc.opens_here.saturating_sub(1);
                    }
                    if let Ok(of) = k.fd_mut(fd) {
                        of.ss = t.ss;
                        of.info = t.info.clone();
                        of.error = None;
                    }
                    report.fds_reopened += 1;
                }
                Err(_) => {
                    let mut k = fsc.kernel(site);
                    if let Ok(of) = k.fd_mut(fd) {
                        of.error = Some(Errno::Enocopy);
                    }
                }
            }
        }
    }

    // ---- Shared-descriptor tokens ------------------------------------
    {
        let mut k = fsc.kernel(site);
        for sh in k.shared_home.values_mut() {
            if !alive.contains(&sh.holder) {
                sh.holder = site;
            }
        }
        // Drop queued pulls whose source departed; the recovery procedure
        // re-schedules from a surviving copy.
        k.prop_queue.retain(|r| alive.contains(&r.source));
    }
    report
}

/// Aborts every open modification session at `site`, §5.6-style: called
/// when the site rejoins after an isolation window during which no
/// writer's close or abort could reach it. Commits are refused at a
/// quarantined SS, so nothing these sessions hold was ever promised to a
/// client — discarding them is the only consistent choice. Returns the
/// number of sessions dropped.
pub(crate) fn sweep_local_sessions(fsc: &FsCluster, site: SiteId) -> usize {
    let mut k = fsc.kernel(site);
    k.session_files()
        .into_iter()
        .filter(|&gfid| k.abort_session(gfid).is_ok())
        .count()
}

/// Lock-table reconstruction at a (new) CSS: every partition member
/// re-registers its open synchronized files ("that site must reconstruct
/// the lock table for all open files from the information remaining in
/// the partition", §5.6). Returns the number of re-registrations
/// delivered.
pub fn rebuild_css_state(fsc: &FsCluster, partition: &BTreeSet<SiteId>) -> usize {
    let mut registered = 0;
    let members: Vec<SiteId> = partition.iter().copied().collect();
    for &site in &members {
        let opens: Vec<(Gfid, SiteId, bool)> = {
            let k = fsc.kernel(site);
            k.fds
                .values()
                .filter(|of| of.kind == FdKind::File && of.error.is_none())
                .map(|of| (of.gfid, of.ss, of.mode.is_write()))
                .collect()
        };
        for (gfid, ss, write) in opens {
            let css = match fsc.kernel(site).mount.css_of(gfid.fg) {
                Ok(c) => c,
                Err(_) => continue,
            };
            if !partition.contains(&css) {
                continue;
            }
            let msg = FsMsg::ReconfigRegister {
                gfid,
                us: site,
                ss,
                write,
            };
            if fsc.one_way(site, css, msg).is_ok() {
                registered += 1;
            }
        }
    }
    registered
}

/// CSS side of [`FsMsg::ReconfigRegister`]: enters one re-registered open
/// in the lock table. `Enoent` when the CSS stores no copy to hang the
/// incore state on.
pub(crate) fn handle_reconfig_register(
    fsc: &FsCluster,
    css: SiteId,
    gfid: Gfid,
    us: SiteId,
    ss: SiteId,
    write: bool,
) -> SysResult<FsReply> {
    let mut k = fsc.kernel(css);
    let info = k.local_info(gfid).ok_or(Errno::Enoent)?;
    let mode = if write {
        OpenMode::Write
    } else {
        OpenMode::Read
    };
    let _ = k.incore_mut(gfid, info).css_mut().register(us, ss, mode);
    Ok(FsReply::Ok)
}

//! Live CSS reconfiguration.
//!
//! The paper's reconfiguration (§5.4–5.6) is partition-driven: the whole
//! partition stops, agrees on membership, and reassigns synchronization
//! sites. This module adds the *live* counterpart for gray failures —
//! sites that are up but degraded, which the partition protocol never
//! evicts. Two operations, neither of which needs a stop-the-world poll:
//!
//! * [`css_handoff`] — epoch-numbered transfer of the synchronization
//!   role for one filegroup. The new CSS pulls the old CSS's drained
//!   state (most-current version vectors and the live lock table) in one
//!   idempotent RPC, claims the role under a strictly larger epoch, and
//!   fans out one-way [`FsMsg::CssUpdate`]s. Requests racing the
//!   handoff are answered with typed `FsReply::NotCss` redirects and
//!   retried by the using site against the new CSS.
//! * [`probation_probe`] — drives a quarantined site through the health
//!   monitor's probation: idempotent probe RPCs until the monitor
//!   readmits the site or gives up.

use locus_net::CSS_CLAIM_COOLDOWN;
use locus_types::{Errno, FilegroupId, Gfid, SiteId, SysResult};

use crate::cluster::{Coherence, FsCluster};
use crate::cost;
use crate::proto::{FsMsg, FsReply};

/// Sends `msg()` from `us` to the CSS of `fg` and returns its reply,
/// following [`FsReply::NotCss`] redirects: a request that raced a live
/// handoff adopts the newer assignment and is sent again to the new CSS.
/// Three redirects cover a handoff completing mid-request plus more
/// racing it; an assignment cycle beyond that indicates inconsistent
/// mount state and surfaces as `Esitedown`.
pub(crate) fn css_rpc(
    fsc: &FsCluster,
    us: SiteId,
    fg: FilegroupId,
    msg: impl Fn() -> FsMsg,
) -> SysResult<FsReply> {
    let mut css = fsc.kernel(us).mount.css_of(fg)?;
    let mut redirects = 0;
    loop {
        let reply = fsc.rpc(us, css, msg())?;
        let FsReply::NotCss { epoch, new_css } = reply else {
            return Ok(reply);
        };
        redirects += 1;
        if redirects > 3 || new_css == css {
            return Err(Errno::Esitedown);
        }
        let now = fsc.net().now();
        fsc.with_kernel(us, |k| k.mount.adopt_css(fg, new_css, epoch, now));
        css = new_css;
    }
}

/// What one live CSS handoff did.
#[derive(Clone, Debug)]
pub struct HandoffReport {
    /// The filegroup whose synchronization role moved.
    pub fg: FilegroupId,
    /// The site holding it now.
    pub new_css: SiteId,
    /// The epoch of the new assignment (strictly larger than any prior
    /// assignment's).
    pub epoch: u64,
    /// Whether the old CSS's state transfer succeeded. `false` means
    /// the old CSS was unreachable and the new CSS claimed cold: its
    /// own copy plus incoming commit notifications rebuild
    /// `known_latest`, and retried opens rebuild the lock table.
    pub state_transferred: bool,
    /// Most-current version vector entries received from the old CSS.
    pub(crate) latest_entries: usize,
    /// Live lock-table entries received from the old CSS.
    pub(crate) locks_transferred: usize,
    /// (file, holder) coherence-lease pairs received from the old CSS
    /// (always 0 when name leases are disabled).
    pub leases_transferred: usize,
    /// Sites the one-way CSS update was delivered to.
    pub(crate) sites_notified: usize,
    /// Files the new CSS pulled current versions of during the takeover
    /// (its own replica was behind the transferred `latest` entries).
    pub(crate) caught_up: usize,
}

/// Transfers the CSS role for `fg` to `new_css`, live. Driven *by* the
/// new CSS (mirroring the DIR-style takeover): it fetches the old CSS's
/// drained state, claims the role under `old epoch + 1`, and notifies
/// everyone else. Returns the report; `Err(Einval)` if `new_css` hosts
/// no container of `fg`, `Err(Esitedown)` if `new_css` is itself
/// quarantined or down — a gray site must never take the role.
/// `Err(Eagain)` if the current assignment is younger than
/// [`CSS_CLAIM_COOLDOWN`]: the rate limit lives in the mechanism, so no
/// policy — however flappy — can storm the role (audit invariant 9).
/// `Err(Etxtbsy)` if the claim lost a race (the role is live at a site
/// this claimant's stale table did not know about; the table is healed).
pub fn css_handoff(fsc: &FsCluster, fg: FilegroupId, new_css: SiteId) -> SysResult<HandoffReport> {
    fsc.net().span("fs", "css_handoff", new_css, || {
        handoff_inner(fsc, fg, new_css)
    })
}

fn handoff_inner(fsc: &FsCluster, fg: FilegroupId, new_css: SiteId) -> SysResult<HandoffReport> {
    fsc.net().charge_cpu_at(new_css, cost::SYSCALL_CPU);
    if !fsc.net().is_up(new_css) || fsc.net().quarantined(new_css) {
        return Err(Errno::Esitedown);
    }
    let (old_css, epoch, claimed_at) = {
        let k = fsc.kernel(new_css);
        let m = k.mount.get(fg)?;
        if m.pack_at(new_css).is_none() {
            return Err(Errno::Einval); // only container sites can hold the role
        }
        (m.css, m.css_epoch + 1, m.css_claimed_at)
    };
    let mut report = HandoffReport {
        fg,
        new_css,
        epoch,
        state_transferred: false,
        latest_entries: 0,
        locks_transferred: 0,
        leases_transferred: 0,
        sites_notified: 0,
        caught_up: 0,
    };
    if old_css == new_css {
        return Ok(report); // already holds the role; nothing to move
    }
    // Local arm of the claim cooldown: this site learned of the current
    // assignment no earlier than the claim itself, so refusing here never
    // admits a storm the old CSS's own check would have caught — it only
    // saves the wire round trip (and covers the cold-claim path below,
    // where no old CSS is reachable to enforce anything).
    if let Some(t0) = claimed_at {
        if fsc.net().now().saturating_sub(t0) < CSS_CLAIM_COOLDOWN {
            return Err(Errno::Eagain);
        }
    }

    // Pull the old CSS's drained state. The RPC is idempotent (the old
    // CSS snapshots rather than destructively drains), so a lost reply
    // is retried by the engine. An unreachable old CSS degrades to a
    // cold claim — the role must move *especially* when the old holder
    // is failing.
    let reply = fsc.rpc(new_css, old_css, FsMsg::CssHandoff { fg, epoch, new_css });
    match &reply {
        // The old CSS refused: its assignment is younger than the claim
        // cooldown. Surface the refusal instead of claiming cold — a cold
        // claim here would be exactly the storm the cooldown exists to
        // stop.
        Err(Errno::Eagain) => return Err(Errno::Eagain),
        // Lost a race (or this site's table was stale): the role is live
        // at a site we did not expect. Adopt the redirect and abort —
        // claiming cold under our own epoch could duplicate the winner's.
        Ok(FsReply::NotCss {
            epoch: cur_epoch,
            new_css: cur_css,
        }) => {
            let (cur_epoch, cur_css) = (*cur_epoch, *cur_css);
            let now = fsc.net().now();
            fsc.with_kernel(new_css, |k| k.mount.adopt_css(fg, cur_css, cur_epoch, now));
            return Err(Errno::Etxtbsy);
        }
        _ => {}
    }
    if let Ok(FsReply::HandoffState {
        latest,
        locks,
        leases,
    }) = reply
    {
        report.state_transferred = true;
        report.latest_entries = latest.len();
        report.locks_transferred = locks.len();
        report.leases_transferred = leases.iter().map(|(_, h)| h.len()).sum();
        let mut behind = Vec::new();
        {
            let mut k = fsc.kernel(new_css);
            // The lease table moves with the role under the same epoch:
            // holders keep serving warm hits across the handoff, and the
            // next commit's recall fan-out leaves from the new CSS.
            k.adopt_leases(leases);
            for (gfid, vv) in latest {
                k.note_latest(gfid, &vv);
                let stale = match k.local_info(gfid) {
                    Some(local) => !local.vv.covers(&vv),
                    None => true,
                };
                if stale {
                    behind.push(gfid);
                }
            }
            for (gfid, cs) in locks {
                // The new CSS is a container, so it holds at least metadata
                // for every file it must synchronize; a file it has never
                // heard of carries no lock worth preserving.
                if let Some(info) = k.local_info(gfid) {
                    k.incore_mut(gfid, info).css = Some(cs);
                }
            }
        }
        // The copy of record moves with the role: if the new CSS's own
        // replica is behind (e.g. every recent commit was served by a
        // site now failing), pull current versions over right now. The
        // commit notification that told this site it was behind also
        // recorded *who* holds the newer version, so a queued propagation
        // names the right source; failing that, try the old CSS. The
        // source may be quarantined — recovery traffic *to* a gray site
        // is exactly how its unique state is drained; quarantine only
        // bars it from serving client opens and acknowledging commits.
        for gfid in behind {
            if crate::ops::commit::pull_on_demand(fsc, new_css, gfid, Some(old_css)) {
                report.caught_up += 1;
            }
        }
    }

    // Claim the role: adopt locally, announce in the trace, fan out.
    let claim_now = fsc.net().now();
    fsc.with_kernel(new_css, |k| {
        k.mount.adopt_css(fg, new_css, epoch, claim_now);
        k.css_claims += 1;
    });
    fsc.net()
        .obs_note(new_css, "css.claim", format_args!("fg{}", fg.0), epoch);
    for site in fsc.sites() {
        if site == new_css {
            continue;
        }
        if fsc
            .one_way(new_css, site, FsMsg::CssUpdate { fg, epoch, new_css })
            .is_ok()
        {
            report.sites_notified += 1;
        }
    }
    Ok(report)
}

/// Old-CSS-side handoff handler: record the newer assignment (so racing
/// requests are redirected from this point on) and reply with a snapshot
/// of the synchronization state for the filegroup. Re-delivery with the
/// same epoch returns the same snapshot; a *newer* assignment on record
/// means this handoff lost a race and gets a redirect instead. A *new*
/// claim arriving within [`CSS_CLAIM_COOLDOWN`] of the current
/// assignment is refused with `Eagain` — the anti-storm rate limit.
pub(crate) fn handle_css_handoff(
    fsc: &FsCluster,
    at: SiteId,
    fg: FilegroupId,
    epoch: u64,
    new_css: SiteId,
) -> SysResult<FsReply> {
    fsc.net().charge_cpu_at(at, cost::CONTROL_CPU);
    let now = fsc.net().now();
    let mut k = fsc.kernel(at);
    {
        let m = k.mount.get(fg)?;
        if epoch < m.css_epoch || (epoch == m.css_epoch && m.css != new_css) {
            return Ok(FsReply::NotCss {
                epoch: m.css_epoch,
                new_css: m.css,
            });
        }
        if epoch > m.css_epoch {
            if let Some(t0) = m.css_claimed_at {
                if now.saturating_sub(t0) < CSS_CLAIM_COOLDOWN {
                    return Err(Errno::Eagain);
                }
            }
        }
    }
    k.mount.adopt_css(fg, new_css, epoch, now);
    let mut latest: Vec<(Gfid, locus_types::VersionVector)> = k
        .latest_entries_for(fg)
        .map(|(g, vv)| (g, vv.clone()))
        .collect();
    latest.sort_by_key(|(g, _)| *g);
    let mut locks: Vec<(Gfid, crate::incore::CssState)> =
        k.css_locks_for(fg).map(|(g, cs)| (g, cs.clone())).collect();
    locks.sort_by_key(|(g, _)| *g);
    let mut leases = k.snapshot_leases_for(fg);
    leases.sort_by_key(|(g, _)| *g);
    Ok(FsReply::HandoffState {
        latest,
        locks,
        leases,
    })
}

/// CSS-update handler at every other site: adopt if newer. Warm name
/// and attribute caches need no flush — their revalidation probes follow
/// the mount table, so the next probe lands at the new CSS.
pub(crate) fn handle_css_update(
    fsc: &FsCluster,
    at: SiteId,
    fg: FilegroupId,
    epoch: u64,
    new_css: SiteId,
) -> SysResult<FsReply> {
    fsc.net().charge_cpu_at(at, cost::CONTROL_CPU);
    let now = fsc.net().now();
    fsc.with_kernel(at, |k| {
        k.mount.adopt_css(fg, new_css, epoch, now);
        // An ex-CSS hearing the successor's claim releases its (already
        // snapshotted and shipped) lease table: the successor owns it now.
        if new_css != at {
            k.retain_lease_rows(|g, _| g.fg != fg);
        }
    });
    Ok(FsReply::Ok)
}

/// Drives a quarantined `site` through probation: opens the probation
/// window on the health monitor, then issues idempotent probe RPCs from
/// `from` until the monitor readmits the site or `budget` probes have
/// been spent. The probes are [`FsMsg::VvCheck`]s on the filegroup root
/// — pure queries whatever role the probed site holds (a non-CSS
/// answers with a harmless redirect; only the clean round trip counts).
/// Returns whether the site was readmitted.
pub fn probation_probe(
    fsc: &FsCluster,
    from: SiteId,
    site: SiteId,
    fg: FilegroupId,
    budget: u32,
) -> SysResult<bool> {
    if !fsc.net().quarantined(site) {
        return Ok(true);
    }
    if !fsc.net().begin_probation(site) {
        return Ok(false);
    }
    let root = fsc.kernel(from).mount.get(fg)?.root();
    for _ in 0..budget {
        if !fsc.net().quarantined(site) {
            return Ok(readmit(fsc, site));
        }
        // A fault mid-probation (say, a leftover circuit abort from the
        // gray period tearing down on first contact) silently re-
        // quarantines the site; re-enter probation and keep probing —
        // that is what the budget is for.
        let _ = fsc.net().begin_probation(site);
        let _ = fsc.rpc(from, site, FsMsg::VvCheck { gfid: root });
    }
    if fsc.net().quarantined(site) {
        Ok(false)
    } else {
        Ok(readmit(fsc, site))
    }
}

/// Filesystem-side readmission: the quarantine window was an isolation
/// window, so the §5.6 failure-handling rules apply to the rejoining
/// site's own resources. Any modification session still open here lost
/// its writer mid-flight (commits were refused throughout the window);
/// discard them before the site serves traffic again. Caches get the
/// same treatment as at a partition change: every coherence lease this
/// site held may have been revoked at the CSS while recalls could not
/// reach it, so the cache is demoted — marks and page-valid tags go,
/// entries revalidate through the normal `VvCheck` path. The surviving
/// sites' lease tables drop this site symmetrically.
fn readmit(fsc: &FsCluster, site: SiteId) -> bool {
    crate::ops::cleanup::sweep_local_sessions(fsc, site);
    fsc.with_kernel(site, |k| k.name_cache.demote());
    if fsc.coherence() == Coherence::Lease {
        for s in fsc.sites() {
            if s == site {
                continue;
            }
            let dropped = fsc.kernel(s).retain_lease_rows(|_, h| h != site);
            if dropped > 0 {
                fsc.kernel(s).name_cache.count_revokes(dropped);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::FsClusterBuilder;
    use crate::ops::fd;
    use crate::proto::ProcFsCtx;
    use locus_types::{FileType, MachineType, OpenMode, Perms};

    const FG: FilegroupId = FilegroupId(0);

    fn cluster(containers: &[u32], extra: usize) -> FsCluster {
        FsClusterBuilder::new()
            .vax_sites(containers.len() + extra)
            .filegroup("root", containers)
            .build()
    }

    fn ctx(fsc: &FsCluster, site: SiteId) -> ProcFsCtx {
        ProcFsCtx::new(fsc.kernel(site).mount.root().unwrap(), MachineType::Vax)
    }

    fn write_file(fsc: &FsCluster, us: SiteId, path: &str, data: &[u8]) {
        let c = ctx(fsc, us);
        let f = fd::creat(fsc, us, &c, path, FileType::Untyped, Perms::FILE_DEFAULT).unwrap();
        fd::write(fsc, us, f, data).unwrap();
        fd::close(fsc, us, f).unwrap();
    }

    #[test]
    fn handoff_moves_role_state_and_epoch_everywhere() {
        let fsc = cluster(&[0, 1, 2], 1);
        write_file(&fsc, SiteId(3), "/f", b"payload");
        fsc.settle();
        let old_latest = fsc.kernel(SiteId(0)).latest_entries_for(FG).count();
        assert!(old_latest > 0, "old CSS accumulated known-latest state");

        let report = css_handoff(&fsc, FG, SiteId(1)).unwrap();
        assert_eq!(report.new_css, SiteId(1));
        assert_eq!(report.epoch, 1);
        assert!(report.state_transferred);
        assert_eq!(report.latest_entries, old_latest);
        assert_eq!(report.sites_notified, 3);
        for s in fsc.sites() {
            let k = fsc.kernel(s);
            let m = k.mount.get(FG).unwrap();
            assert_eq!(m.css, SiteId(1), "site {s} adopted the new CSS");
            assert_eq!(m.css_epoch, 1);
        }
        // The transferred known-latest state serves opens at the new CSS.
        let c = ctx(&fsc, SiteId(3));
        let f = fd::open(&fsc, SiteId(3), &c, "/f", OpenMode::Read).unwrap();
        assert_eq!(fd::read(&fsc, SiteId(3), f, 64).unwrap(), b"payload");
        fd::close(&fsc, SiteId(3), f).unwrap();
    }

    #[test]
    fn handoff_to_current_css_and_to_non_container_are_cheap_errors() {
        let fsc = cluster(&[0, 1], 1);
        let r = css_handoff(&fsc, FG, SiteId(0)).unwrap();
        assert_eq!(r.epoch, 1, "self-handoff allocates the epoch…");
        assert_eq!(r.sites_notified, 0, "…but moves nothing");
        assert_eq!(fsc.kernel(SiteId(0)).mount.get(FG).unwrap().css_epoch, 0);
        assert_eq!(css_handoff(&fsc, FG, SiteId(2)).err(), Some(Errno::Einval));
    }

    /// The anti-storm rate limit: a second claim inside
    /// [`CSS_CLAIM_COOLDOWN`] is refused with `Eagain` whoever asks;
    /// once the window passes, the role moves normally.
    #[test]
    fn back_to_back_handoffs_hit_the_claim_cooldown() {
        let fsc = cluster(&[0, 1, 2], 1);
        css_handoff(&fsc, FG, SiteId(1)).unwrap();
        assert_eq!(fsc.kernel(SiteId(1)).css_claims, 1);
        assert_eq!(css_handoff(&fsc, FG, SiteId(2)).err(), Some(Errno::Eagain));
        assert_eq!(
            fsc.kernel(SiteId(2)).mount.get(FG).unwrap().css,
            SiteId(1),
            "refused claim moved nothing"
        );
        fsc.net().charge_cpu(CSS_CLAIM_COOLDOWN);
        let r = css_handoff(&fsc, FG, SiteId(2)).unwrap();
        assert_eq!(r.epoch, 2);
        assert_eq!(fsc.kernel(SiteId(2)).css_claims, 1);
    }

    #[test]
    fn stale_mount_entries_follow_notcss_redirects() {
        let fsc = cluster(&[0, 1, 2], 1);
        write_file(&fsc, SiteId(0), "/f", b"x");
        fsc.settle();
        css_handoff(&fsc, FG, SiteId(1)).unwrap();
        // Roll site 3's view back: it still believes site 0 is the CSS.
        fsc.with_kernel(SiteId(3), |k| {
            let m = k.mount.get_mut(FG).unwrap();
            m.css = SiteId(0);
            m.css_epoch = 0;
        });
        // Its open lands at site 0, gets the typed redirect, retries at
        // site 1 and succeeds — and the redirect healed its mount table.
        let c = ctx(&fsc, SiteId(3));
        let f = fd::open(&fsc, SiteId(3), &c, "/f", OpenMode::Read).unwrap();
        fd::close(&fsc, SiteId(3), f).unwrap();
        let k = fsc.kernel(SiteId(3));
        let m = k.mount.get(FG).unwrap();
        assert_eq!(m.css, SiteId(1));
        assert_eq!(m.css_epoch, 1);
    }

    #[test]
    fn lock_state_survives_handoff_and_blocks_second_writer() {
        let fsc = cluster(&[0, 1, 2], 1);
        write_file(&fsc, SiteId(3), "/f", b"x");
        fsc.settle();
        // A writer holds the file open across the handoff…
        let c3 = ctx(&fsc, SiteId(3));
        let wfd = fd::open(&fsc, SiteId(3), &c3, "/f", OpenMode::Write).unwrap();
        let report = css_handoff(&fsc, FG, SiteId(1)).unwrap();
        assert!(report.locks_transferred > 0, "live lock table moved");
        // …so the new CSS must refuse a second writer (single-writer
        // policy, §2.3.6) without ever consulting the old one.
        let c2 = ctx(&fsc, SiteId(2));
        assert_eq!(
            fd::open(&fsc, SiteId(2), &c2, "/f", OpenMode::Write).err(),
            Some(Errno::Etxtbsy)
        );
        fd::close(&fsc, SiteId(3), wfd).unwrap();
        let f = fd::open(&fsc, SiteId(2), &c2, "/f", OpenMode::Write).unwrap();
        fd::close(&fsc, SiteId(2), f).unwrap();
    }

    #[test]
    fn handoff_refuses_a_quarantined_or_down_successor() {
        let fsc = cluster(&[0, 1], 1);
        fsc.net().crash(SiteId(1));
        assert_eq!(
            css_handoff(&fsc, FG, SiteId(1)).err(),
            Some(Errno::Esitedown)
        );
    }
}

//! Filegroup reconciliation: version-vector detection plus the per-type
//! merge strategies (§4.2–§4.6).

use std::collections::BTreeSet;

use locus_fs::directory::Directory;
use locus_fs::kernel::PropReq;
use locus_fs::mailbox::Mailbox;
use locus_fs::proto::InodeInfo;
use locus_fs::FsCluster;
use locus_net::RpcEngine;
use locus_storage::{ShadowSession, PAGE_SIZE};
use locus_types::{Errno, FileType, FilegroupId, Gfid, Ino, SiteId, SysResult, VersionVector};

use crate::conflicts::{mark_conflict, notify_owner};
use crate::dir_merge::merge_directories;
use crate::mail_merge::merge_mailboxes;
use crate::managers::MergeManagers;
use crate::proto::{RecMsg, RECOVERY_MSG_BYTES};
use crate::report::{FileOutcome, RecoveryReport};

/// One copy of a file as seen during reconciliation.
#[derive(Clone, Debug)]
struct CopyView {
    site: SiteId,
    info: InodeInfo,
    data_here: bool,
}

/// Gathers the copies of `gfid` at every container of its filegroup
/// reachable from `coordinator`, charging inventory messages.
fn gather_copies(fsc: &FsCluster, coordinator: SiteId, gfid: Gfid) -> SysResult<Vec<CopyView>> {
    let containers = fsc
        .kernel(coordinator)
        .mount
        .get(gfid.fg)?
        .containers
        .clone();
    let mut out = Vec::new();
    for (_, site) in containers {
        if site != coordinator && !fsc.net().reachable(coordinator, site) {
            continue;
        }
        if site != coordinator {
            // One engine RPC per container: the inventory request now
            // retries under the cluster policy instead of surfacing the
            // first injected drop as a down site.
            RpcEngine::new(fsc.retry_policy())
                .rpc(
                    fsc.net(),
                    coordinator,
                    site,
                    RecMsg::Inventory,
                    |_: &()| RECOVERY_MSG_BYTES,
                    |_| (),
                )
                .map_err(|_| Errno::Esitedown)?;
        }
        let k = fsc.kernel(site);
        if let Some(info) = k.local_info(gfid) {
            let data_here = k.stores_data(gfid) || info.deleted;
            out.push(CopyView {
                site,
                info,
                data_here,
            });
        }
    }
    Ok(out)
}

/// The live reachable sites holding container copies of `fg`.
fn reachable_containers(fsc: &FsCluster, coordinator: SiteId, fg: FilegroupId) -> Vec<SiteId> {
    let containers = fsc
        .kernel(coordinator)
        .mount
        .get(fg)
        .map(|m| m.containers.clone())
        .unwrap_or_default();
    containers
        .into_iter()
        .map(|(_, s)| s)
        .filter(|&s| s == coordinator || fsc.net().reachable(coordinator, s))
        .collect()
}

/// Reads the full content of a copy directly from its container
/// (privileged access, bypassing synchronization — recovery may run while
/// the copies disagree).
fn read_copy(fsc: &FsCluster, site: SiteId, gfid: Gfid) -> SysResult<Vec<u8>> {
    let mut k = fsc.kernel(site);
    let pack = k.pack_of(gfid.fg).ok_or(Errno::Enocopy)?;
    let bytes = pack.read_all(gfid.ino)?;
    pack.take_io_cost();
    Ok(bytes)
}

/// Overwrites one copy with `bytes` (or just metadata when `None`) under
/// an explicit version vector. This is the recovery installer: it uses the
/// same shadow commit as ordinary modification, so a crash mid-recovery
/// still leaves a coherent copy.
#[allow(clippy::too_many_arguments)]
fn overwrite_copy(
    fsc: &FsCluster,
    site: SiteId,
    gfid: Gfid,
    bytes: Option<&[u8]>,
    template: &InodeInfo,
    vv: &VersionVector,
    deleted: bool,
) -> SysResult<()> {
    let mut k = fsc.kernel(site);
    let pack = k.pack_of(gfid.fg).ok_or(Errno::Enocopy)?;
    if pack.inode(gfid.ino).is_none() {
        pack.install_inode(gfid.ino, template.to_disk_inode(false));
    }
    let is_replica = template.replicas.contains(&pack.origin());
    let mut sess = ShadowSession::begin(pack, gfid.ino)?;
    if deleted {
        sess.mark_deleted();
    } else {
        sess.undelete();
    }
    if let (false, Some(bytes), true) = (deleted, bytes, is_replica) {
        let npages = bytes.len().div_ceil(PAGE_SIZE);
        for lpn in 0..npages {
            let chunk = &bytes[lpn * PAGE_SIZE..((lpn + 1) * PAGE_SIZE).min(bytes.len())];
            sess.write_page(pack, lpn, chunk)?;
        }
        sess.truncate_pages(pack, npages)?;
        sess.set_size(bytes.len() as u64);
        sess.set_data_here(true);
    }
    sess.set_perms(template.perms);
    sess.set_owner(template.owner);
    sess.set_nlink(template.nlink);
    sess.set_replicas(template.replicas.clone());
    sess.set_conflict(false);
    sess.commit(pack, vv.clone())?;
    // Recovery runs as the merge procedure, not as a system call of any
    // site's workload: its disk time is discarded here on purpose, never
    // left on the meter for the next handler, and the copy rewritten
    // behind the buffer cache's back is dropped from it, not installed.
    pack.take_io_cost();
    k.invalidate_caches_for(gfid);
    k.note_latest(gfid, vv);
    Ok(())
}

/// Whether any reachable copy of `gfid` is live (not deleted) — the
/// "interrogate the inode" oracle for directory-merge rules b/d.
fn file_alive(fsc: &FsCluster, coordinator: SiteId, gfid: Gfid) -> bool {
    gather_copies(fsc, coordinator, gfid)
        .map(|copies| copies.iter().any(|c| !c.info.deleted))
        .unwrap_or(false)
}

/// Reconciles a single file across the partition coordinated by
/// `coordinator` — also the paper's *demand recovery* entry point ("a
/// particular directory can be reconciled out of order to allow access to
/// it with only a small delay", §4.4).
pub fn reconcile_file(
    fsc: &FsCluster,
    coordinator: SiteId,
    gfid: Gfid,
    report: &mut RecoveryReport,
) -> SysResult<FileOutcome> {
    reconcile_file_with(fsc, coordinator, gfid, report, &MergeManagers::new())
}

/// [`reconcile_file`] with a registry of type-specific recovery/merge
/// managers (§4.1): a concurrent update to a managed type is offered to
/// the manager before being declared an unresolvable conflict.
pub fn reconcile_file_with(
    fsc: &FsCluster,
    coordinator: SiteId,
    gfid: Gfid,
    report: &mut RecoveryReport,
    managers: &MergeManagers,
) -> SysResult<FileOutcome> {
    if !fsc.net().observing() {
        return reconcile_file_inner(fsc, coordinator, gfid, report, managers);
    }
    let span = fsc.net().obs_span_open("recovery", "reconcile", coordinator);
    let out = reconcile_file_inner(fsc, coordinator, gfid, report, managers);
    let outcome = match &out {
        Ok(_) => "ok".to_owned(),
        Err(e) => format!("{e:?}"),
    };
    fsc.net().obs_span_close(span, &outcome);
    out
}

fn reconcile_file_inner(
    fsc: &FsCluster,
    coordinator: SiteId,
    gfid: Gfid,
    report: &mut RecoveryReport,
    managers: &MergeManagers,
) -> SysResult<FileOutcome> {
    let copies = gather_copies(fsc, coordinator, gfid)?;
    if copies.is_empty() {
        return Ok(FileOutcome::Consistent);
    }

    // Find the maximal versions under the version-vector order.
    let maximal: Vec<&CopyView> = copies
        .iter()
        .filter(|c| {
            copies
                .iter()
                .all(|o| !(o.info.vv.compare(&c.info.vv) == locus_types::VvOrder::Dominates))
        })
        .collect();
    let distinct: Vec<&CopyView> = {
        let mut seen: Vec<&CopyView> = Vec::new();
        for c in &maximal {
            if !seen.iter().any(|s| s.info.vv == c.info.vv) {
                seen.push(c);
            }
        }
        seen
    };

    let outcome = if distinct.len() <= 1 {
        // One version dominates (or all equal): bring stragglers,
        // data-less replicas, and containers that never heard of the file
        // up to date by ordinary pull propagation.
        let winner = pick_data_source(&copies, &distinct[0].info.vv).unwrap_or(distinct[0].site);
        let latest = distinct[0].info.clone();
        let mut acted = false;
        for site in reachable_containers(fsc, coordinator, gfid.fg) {
            if site == winner {
                continue;
            }
            let copy = copies.iter().find(|c| c.site == site);
            let needs = match copy {
                None => true, // the container missed the create entirely
                Some(c) => {
                    let stale = !c.info.vv.covers(&latest.vv);
                    let missing_data = !latest.deleted
                        && latest.replicas.contains(&pack_origin(fsc, c.site, gfid.fg))
                        && !c.data_here;
                    stale || missing_data
                }
            };
            if needs {
                fsc.with_kernel(site, |k| {
                    k.enqueue_propagation(PropReq {
                        gfid,
                        source: winner,
                        pages: None,
                    });
                });
                acted = true;
            }
        }
        // §4.4 rule b caveat for directories: a delete recorded in the
        // (vector-wise newer) winning copy must NOT propagate if the named
        // file was modified since the delete — the file-level pass has
        // already resurrected it, so its entry comes back too. Only a
        // delete some other copy has not seen can be undone this way: a
        // name that is live nowhere was removed with every copy's
        // knowledge (an unlinked hard link's inode lives on under its
        // other name) and stays removed.
        let mut fixed_dir = false;
        if !latest.deleted && latest.ftype.is_directory_like() {
            let bytes = read_copy(fsc, winner, gfid)?;
            let dir = Directory::parse(&bytes)?;
            let live_elsewhere = |name: &str| {
                copies.iter().filter(|c| c.site != winner).any(|c| {
                    read_copy(fsc, c.site, gfid)
                        .and_then(|b| Directory::parse(&b))
                        .is_ok_and(|d| d.lookup(name).is_some())
                })
            };
            let mut corrected = dir.clone();
            let mut changed = false;
            for rec in dir.records() {
                if rec.removed
                    && file_alive(fsc, coordinator, Gfid::new(gfid.fg, rec.ino))
                    && corrected.lookup(&rec.name).is_none()
                    && live_elsewhere(&rec.name)
                {
                    corrected.insert(&rec.name, rec.ino).expect("name free");
                    changed = true;
                }
            }
            if changed {
                let mut vv = latest.vv.clone();
                vv.bump(pack_origin(fsc, coordinator, gfid.fg));
                let bytes = corrected.serialize();
                for site in reachable_containers(fsc, coordinator, gfid.fg) {
                    charge_propagate(fsc, coordinator, site);
                    overwrite_copy(fsc, site, gfid, Some(&bytes), &latest, &vv, false)?;
                }
                fixed_dir = true;
            }
        }
        if fixed_dir {
            FileOutcome::DirectoryMerged
        } else if !acted {
            FileOutcome::Consistent
        } else if latest.deleted {
            FileOutcome::DeletePropagated
        } else {
            FileOutcome::Propagated
        }
    } else {
        // Concurrent versions: a genuine partitioned-update situation.
        let live: Vec<&&CopyView> = distinct.iter().filter(|c| !c.info.deleted).collect();
        let merged_vv = {
            let mut vv = VersionVector::new();
            for c in &copies {
                vv = vv.merge_max(&c.info.vv);
            }
            // The reconciliation itself is an update, performed at the
            // coordinator's pack.
            vv.bump(pack_origin(fsc, coordinator, gfid.fg));
            vv
        };

        if live.is_empty() {
            // Deleted on both sides: propagate a merged tombstone.
            let template = distinct[0].info.clone();
            for site in reachable_containers(fsc, coordinator, gfid.fg) {
                overwrite_copy(fsc, site, gfid, None, &template, &merged_vv, true)?;
            }
            FileOutcome::DeletePropagated
        } else if live.len() == 1 {
            // §4.4 rule d: "deleted in one partition while it was modified
            // in another, wants to be saved" — undo the delete.
            let saved = live[0];
            let bytes = read_copy(fsc, saved.site, gfid)?;
            for site in reachable_containers(fsc, coordinator, gfid.fg) {
                charge_propagate(fsc, coordinator, site);
                overwrite_copy(
                    fsc,
                    site,
                    gfid,
                    Some(&bytes),
                    &saved.info,
                    &merged_vv,
                    false,
                )?;
            }
            FileOutcome::Resurrected
        } else {
            // Concurrent live modifications: resolve by type (§4.3).
            match live[0].info.ftype {
                FileType::Directory | FileType::HiddenDirectory => {
                    let mut dirs = Vec::new();
                    for c in &live {
                        dirs.push(Directory::parse(&read_copy(fsc, c.site, gfid)?)?);
                    }
                    let merged = merge_directories(&dirs, |ino| {
                        file_alive(fsc, coordinator, Gfid::new(gfid.fg, ino))
                    });
                    let bytes = merged.merged.serialize();
                    for site in reachable_containers(fsc, coordinator, gfid.fg) {
                        charge_propagate(fsc, coordinator, site);
                        overwrite_copy(
                            fsc,
                            site,
                            gfid,
                            Some(&bytes),
                            &live[0].info,
                            &merged_vv,
                            false,
                        )?;
                    }
                    for (name, renamed) in merged.renames {
                        for (new_name, ino) in &renamed {
                            let owner = owner_of(fsc, coordinator, Gfid::new(gfid.fg, *ino));
                            notify_owner(
                                fsc,
                                coordinator,
                                owner,
                                &format!(
                                    "name conflict on `{name}` after partition merge; \
                                     your file is now `{new_name}`"
                                ),
                            );
                        }
                        report.name_conflicts.push((
                            gfid,
                            name,
                            renamed.into_iter().map(|(n, _)| n).collect(),
                        ));
                    }
                    FileOutcome::DirectoryMerged
                }
                FileType::Mailbox => {
                    let mut boxes = Vec::new();
                    for c in &live {
                        boxes.push(Mailbox::parse(&read_copy(fsc, c.site, gfid)?)?);
                    }
                    let merged = merge_mailboxes(&boxes).serialize();
                    for site in reachable_containers(fsc, coordinator, gfid.fg) {
                        charge_propagate(fsc, coordinator, site);
                        overwrite_copy(
                            fsc,
                            site,
                            gfid,
                            Some(&merged),
                            &live[0].info,
                            &merged_vv,
                            false,
                        )?;
                    }
                    FileOutcome::MailboxMerged
                }
                ftype if managers.handles(ftype) => {
                    // Reflected up to the registered recovery/merge
                    // manager (§4.1). A declining manager falls through
                    // to owner notification on the next pass.
                    let mut versions = Vec::new();
                    for c in &live {
                        versions.push(read_copy(fsc, c.site, gfid)?);
                    }
                    let manager = managers.get(ftype).expect("handles checked");
                    match manager(&versions) {
                        Some(merged) => {
                            for site in reachable_containers(fsc, coordinator, gfid.fg) {
                                charge_propagate(fsc, coordinator, site);
                                overwrite_copy(
                                    fsc,
                                    site,
                                    gfid,
                                    Some(&merged),
                                    &live[0].info,
                                    &merged_vv,
                                    false,
                                )?;
                            }
                            FileOutcome::ManagerMerged
                        }
                        None => {
                            for c in &copies {
                                mark_conflict(fsc, c.site, gfid)?;
                            }
                            notify_owner(
                                fsc,
                                coordinator,
                                live[0].info.owner,
                                &format!("merge manager could not reconcile {gfid}"),
                            );
                            FileOutcome::ConflictMarked
                        }
                    }
                }
                _ => {
                    // Untyped or database (no merge manager registered):
                    // mark every copy, notify the owner (§4.6). A file
                    // whose live copies are all already marked was
                    // handled by an earlier pass — recovery must converge,
                    // so it is not re-reported (the user resolves it with
                    // the split tool at their leisure).
                    if live.iter().all(|c| c.info.conflict) {
                        report.files.push((gfid, FileOutcome::Consistent));
                        return Ok(FileOutcome::Consistent);
                    }
                    for c in &copies {
                        mark_conflict(fsc, c.site, gfid)?;
                    }
                    let owner = live[0].info.owner;
                    notify_owner(
                        fsc,
                        coordinator,
                        owner,
                        &format!(
                            "update conflict detected on {gfid}; access is blocked until resolved"
                        ),
                    );
                    FileOutcome::ConflictMarked
                }
            }
        }
    };
    report.files.push((gfid, outcome));
    Ok(outcome)
}

/// The pack index of the container at `site` (update-origin for version
/// vectors).
fn pack_origin(fsc: &FsCluster, site: SiteId, fg: FilegroupId) -> u32 {
    fsc.with_kernel(site, |k| k.pack_of(fg).map(|p| p.origin()).unwrap_or(0))
}

/// Picks a copy that actually stores data for the given version.
fn pick_data_source(copies: &[CopyView], vv: &VersionVector) -> Option<SiteId> {
    copies
        .iter()
        .find(|c| c.data_here && c.info.vv == *vv)
        .map(|c| c.site)
}

/// Owner of a file, defaulting to root when unknown.
fn owner_of(fsc: &FsCluster, coordinator: SiteId, gfid: Gfid) -> u32 {
    gather_copies(fsc, coordinator, gfid)
        .ok()
        .and_then(|c| c.first().map(|c| c.info.owner))
        .unwrap_or(0)
}

fn charge_propagate(fsc: &FsCluster, from: SiteId, to: SiteId) {
    if from != to {
        // Best-effort, but no longer silent: the engine retries under the
        // cluster policy and an abandoned propagation is counted as a
        // one-way loss for recovery's accounting.
        let _ = RpcEngine::new(fsc.retry_policy()).one_way(
            fsc.net(),
            from,
            to,
            RecMsg::Propagate,
            |_| (),
        );
    }
}

/// Reconciles every file of `fg` within `coordinator`'s partition: the
/// recovery procedure run after the merge protocol establishes the new
/// partition (§5.3, §5.6). Plain files are reconciled before directories
/// so the directory-merge rules can interrogate final file states.
pub fn reconcile_filegroup(
    fsc: &FsCluster,
    coordinator: SiteId,
    fg: FilegroupId,
) -> SysResult<RecoveryReport> {
    reconcile_filegroup_with(fsc, coordinator, fg, &MergeManagers::new())
}

/// [`reconcile_filegroup`] with type-specific merge managers (§4.1).
pub fn reconcile_filegroup_with(
    fsc: &FsCluster,
    coordinator: SiteId,
    fg: FilegroupId,
    managers: &MergeManagers,
) -> SysResult<RecoveryReport> {
    let mut report = RecoveryReport::default();
    let sites = reachable_containers(fsc, coordinator, fg);

    // Inventory: the union of inode numbers known anywhere in the
    // partition.
    let mut inos: BTreeSet<Ino> = BTreeSet::new();
    for &site in &sites {
        charge_propagate(fsc, coordinator, site);
        fsc.with_kernel(site, |k| {
            if let Some(pack) = k.pack_of(fg) {
                inos.extend(pack.inos());
            }
        });
    }

    // Notified-version tables may carry pre-partition hearsay; recovery
    // rebuilds knowledge from the actual copies. Cached names and
    // attributes were validated against those tables, so they go too.
    for &site in &sites {
        fsc.with_kernel(site, |k| {
            k.clear_latest();
            k.name_cache.flush();
        });
    }

    let is_dir = |fsc: &FsCluster, gfid: Gfid| -> bool {
        gather_copies(fsc, coordinator, gfid)
            .map(|c| {
                c.first()
                    .map(|c| c.info.ftype.is_directory_like())
                    .unwrap_or(false)
            })
            .unwrap_or(false)
    };

    let all: Vec<Ino> = inos.into_iter().collect();
    // Pass 1: plain files.
    for &ino in &all {
        let gfid = Gfid::new(fg, ino);
        if !is_dir(fsc, gfid) {
            reconcile_file_with(fsc, coordinator, gfid, &mut report, managers)?;
        }
    }
    // Pass 2: directories (which interrogate the now-final file states).
    for &ino in &all {
        let gfid = Gfid::new(fg, ino);
        if is_dir(fsc, gfid) {
            reconcile_file_with(fsc, coordinator, gfid, &mut report, managers)?;
        }
    }
    // Drain the pull propagation scheduled by pass 1 and 2.
    fsc.settle();
    Ok(report)
}

//! Filegroup reconciliation: version-vector detection plus the per-type
//! merge strategies (§4.2–§4.6).

use std::collections::BTreeMap;

use locus_fs::directory::Directory;
use locus_fs::mailbox::Mailbox;
use locus_fs::ops::{commit, namei};
use locus_fs::proto::{FsMsg, InodeInfo};
use locus_fs::FsCluster;
use locus_net::RpcEngine;
use locus_types::{
    Errno, FileType, FilegroupId, Gfid, Ino, SiteId, SysResult, VersionVector, VvOrder,
};

use crate::conflicts::mark_copies;
use crate::dir_merge::merge_directories;
use crate::mail_merge::merge_mailboxes;
use crate::managers::MergeManagers;
use crate::proto::{InventoryReply, InventoryRow, RecMsg, RECOVERY_MSG_BYTES};
use crate::report::{FileOutcome, RecoveryReport};

/// What the coordinator knows about a filegroup's copies: one
/// [`InventoryReply`] per reachable container (its own pack's is a
/// procedure call), folded by inode. Nothing here is re-read from a
/// remote kernel: a row changes only when the coordinator itself
/// installs a copy or marks a conflict, and the whole table is asked for
/// again after recovery mailed an owner, because that mail is an
/// ordinary filesystem write outside recovery's own installs.
#[derive(Default)]
pub(crate) struct Inventory {
    /// The containers that answered, in mount order, with their pack
    /// index (version-vector update origin).
    origins: Vec<(SiteId, u32)>,
    /// Every copy of every inode, each row in mount order.
    rows: BTreeMap<Ino, Vec<InventoryRow>>,
    /// Owner mail went out since the table was taken.
    stale: bool,
}

impl Inventory {
    /// Asks every container of `fg` reachable from `coordinator` for its
    /// inode table (just `only`'s row for demand recovery): one fan-out
    /// round of RPCs to the other containers, each retried under the
    /// cluster policy, `Esitedown` if any is abandoned.
    pub(crate) fn take(
        fsc: &FsCluster,
        coordinator: SiteId,
        fg: FilegroupId,
        only: Option<Ino>,
    ) -> SysResult<Inventory> {
        let sites = reachable_containers(fsc, coordinator, fg);
        let replies = RpcEngine::new(fsc.retry_policy()).fan_out(
            fsc.net(),
            coordinator,
            &sites,
            RecMsg::Inventory { fg, only },
            InventoryReply::wire_bytes,
            |site, msg| inventory_at(fsc, site, msg),
        );
        let mut inv = Inventory::default();
        for (site, reply) in sites.into_iter().zip(replies) {
            let reply = reply.map_err(|_| Errno::Esitedown)?;
            inv.origins.push((site, reply.origin));
            for row in reply.rows {
                inv.rows.entry(row.ino).or_default().push(row);
            }
        }
        Ok(inv)
    }

    pub(crate) fn copies(&self, ino: Ino) -> &[InventoryRow] {
        self.rows.get(&ino).map_or(&[], Vec::as_slice)
    }

    /// The pack index of the container at `site` (update origin for
    /// version vectors).
    fn origin(&self, site: SiteId) -> u32 {
        self.origins
            .iter()
            .find(|(s, _)| *s == site)
            .map_or(0, |(_, o)| *o)
    }

    /// Whether a current copy of `ino` is live (not deleted) — the
    /// "interrogate the inode" oracle for directory-merge rules b/d. A
    /// copy some other copy dominates is stale: a delete that dominates
    /// it wins, however live the stale copy still looks.
    fn alive(&self, ino: Ino) -> bool {
        let copies = self.copies(ino);
        copies
            .iter()
            .any(|c| !c.info.deleted && is_maximal(c, copies))
    }

    /// Forgets the rows of containers that dropped out of `sites` since
    /// the table was taken (fault schedules follow the virtual clock).
    fn keep_sites(&mut self, sites: &[SiteId]) {
        if self.origins.iter().any(|(s, _)| !sites.contains(s)) {
            self.origins.retain(|(s, _)| sites.contains(s));
            for copies in self.rows.values_mut() {
                copies.retain(|c| sites.contains(&c.site));
            }
        }
    }
}

/// Whether no copy in `copies` dominates `c` under the version-vector
/// order.
fn is_maximal(c: &InventoryRow, copies: &[InventoryRow]) -> bool {
    copies
        .iter()
        .all(|o| o.info.vv.compare(&c.info.vv) != VvOrder::Dominates)
}

/// The inventory handler: runs at the container `site` and answers from
/// its own pack and propagation queue only.
fn inventory_at(fsc: &FsCluster, site: SiteId, msg: RecMsg) -> InventoryReply {
    let RecMsg::Inventory { fg, only } = msg else {
        return InventoryReply::default();
    };
    let k = fsc.kernel(site);
    let Some(pack) = k.pack_of_ref(fg) else {
        return InventoryReply::default();
    };
    let row = |ino| {
        let inode = pack.inode(ino)?;
        let gfid = Gfid::new(fg, ino);
        Some(InventoryRow {
            site,
            ino,
            info: InodeInfo::from(inode),
            // A tombstone counts: there is nothing to fetch.
            data_here: inode.data_here || inode.deleted,
            pending: k.pull_queued(gfid).then(|| k.known_latest(gfid)),
        })
    };
    InventoryReply {
        origin: pack.origin(),
        rows: match only {
            Some(ino) => row(ino).into_iter().collect(),
            None => pack.inos().filter_map(row).collect(),
        },
    }
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

/// The distinct versions the live data copies among `copies` store, in
/// mount order.
pub(crate) fn stored_versions(copies: &[InventoryRow]) -> Vec<&VersionVector> {
    let mut vvs: Vec<&VersionVector> = Vec::new();
    for c in copies {
        if c.data_here && !c.info.deleted && !vvs.contains(&&c.info.vv) {
            vvs.push(&c.info.vv);
        }
    }
    vvs
}

/// Reads version `vv` of `gfid` for the merge procedure at
/// `coordinator`: in place from its own copy if it holds one, else from
/// the first copy in mount order that stores it, as a pull reads it.
pub(crate) fn read_version(
    fsc: &FsCluster,
    coordinator: SiteId,
    gfid: Gfid,
    copies: &[InventoryRow],
    vv: &VersionVector,
) -> SysResult<Vec<u8>> {
    let source = copies
        .iter()
        .filter(|c| c.data_here && !c.info.deleted && c.info.vv == *vv)
        .map(|c| c.site)
        .min_by_key(|&s| s != coordinator)
        .ok_or(Errno::Enocopy)?;
    commit::fetch_copy(fsc, coordinator, source, gfid)
}

/// Commits a reconciled version of `gfid` — `bytes`, or a tombstone
/// when `None` — at one data replica: the coordinator's own container if
/// it is one, else the first reachable one, sent the bytes in one
/// `RECOVERY install`. Its vector dominates every copy's, bumped at the
/// installing pack. The installed copy replaces the file's rows.
fn install(
    fsc: &FsCluster,
    coordinator: SiteId,
    gfid: Gfid,
    sites: &[SiteId],
    inv: &mut Inventory,
    bytes: Option<Vec<u8>>,
    mut template: InodeInfo,
) -> SysResult<(SiteId, InodeInfo)> {
    template.deleted = bytes.is_none();
    template.conflict = false;
    let is_replica = |site: SiteId| template.replicas.contains(&inv.origin(site));
    let site = sites
        .iter()
        .copied()
        .filter(|&s| is_replica(s))
        .min_by_key(|&s| s != coordinator)
        .unwrap_or(coordinator);
    let data_here = template.deleted || is_replica(site);
    let copies = inv.copies(gfid.ino).iter();
    let mut vv = copies.fold(VersionVector::new(), |vv, c| vv.merge_max(&c.info.vv));
    vv.bump(inv.origin(site));
    let msg = RecMsg::Install {
        gfid,
        bytes,
        template,
        vv,
    };
    let serve = |msg| match msg {
        RecMsg::Install {
            gfid,
            bytes,
            template,
            vv,
        } => commit::install_version(fsc, site, gfid, bytes.as_deref(), &template, &vv),
        _ => Err(Errno::Eio),
    };
    let info = RpcEngine::new(fsc.retry_policy())
        .rpc(
            fsc.net(),
            coordinator,
            site,
            msg,
            |_| RECOVERY_MSG_BYTES,
            serve,
        )
        .map_err(|_| Errno::Esitedown)??;
    let row = InventoryRow {
        site,
        ino: gfid.ino,
        info: info.clone(),
        data_here,
        pending: None,
    };
    inv.rows.insert(gfid.ino, vec![row]);
    Ok((site, info))
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
    // A plain file needs only its own row. A directory's merge rules
    // interrogate the files it names, so a directory (or a file the
    // coordinator holds no copy of to tell) takes the whole table.
    let plain = fsc
        .kernel(coordinator)
        .local_info(gfid)
        .is_some_and(|i| !i.ftype.is_directory_like());
    let mut inv = Inventory::take(fsc, coordinator, gfid.fg, plain.then_some(gfid.ino))?;
    let managers = MergeManagers::new();
    reconcile_one(fsc, coordinator, gfid, &mut inv, report, &managers)
}

fn reconcile_one(
    fsc: &FsCluster,
    coordinator: SiteId,
    gfid: Gfid,
    inv: &mut Inventory,
    report: &mut RecoveryReport,
    managers: &MergeManagers,
) -> SysResult<FileOutcome> {
    fsc.net().span("recovery", "reconcile", coordinator, || {
        reconcile_file_inner(fsc, coordinator, gfid, inv, report, managers)
    })
}

fn reconcile_file_inner(
    fsc: &FsCluster,
    coordinator: SiteId,
    gfid: Gfid,
    inv: &mut Inventory,
    report: &mut RecoveryReport,
    managers: &MergeManagers,
) -> SysResult<FileOutcome> {
    let sites = reachable_containers(fsc, coordinator, gfid.fg);
    inv.keep_sites(&sites);
    let copies = inv.copies(gfid.ino).to_vec();
    if copies.is_empty() {
        return Ok(FileOutcome::Consistent);
    }
    // Marks every copy conflicted, at its container and in the table.
    let mark_conflicted = |inv: &mut Inventory| -> SysResult<()> {
        let rows = inv
            .rows
            .get_mut(&gfid.ino)
            .map_or(&mut [][..], Vec::as_mut_slice);
        let holders: Vec<SiteId> = rows.iter().map(|c| c.site).collect();
        mark_copies(fsc, coordinator, gfid, &holders, true)?;
        for c in rows {
            c.info.conflict = true;
        }
        Ok(())
    };
    // Owner mail, sent once the file is reconciled: `(owner, body)`.
    let mut mail: Vec<(u32, String)> = Vec::new();

    // The maximal versions under the version-vector order, one copy each.
    let mut distinct: Vec<&InventoryRow> = Vec::new();
    for c in copies.iter().filter(|c| is_maximal(c, &copies)) {
        if !distinct.iter().any(|d| d.info.vv == c.info.vv) {
            distinct.push(c);
        }
    }

    // The outcome, and the new version to install, if any: its bytes (a
    // tombstone when `None`) and a template's inode information.
    let (outcome, merged) = if distinct.len() <= 1 {
        // One version dominates (or all equal): recovery decides, and
        // notifies below. §4.4 rule b caveat for directories: a delete
        // recorded in the (vector-wise newer) winning copy must NOT
        // propagate if the named file was modified since the delete — the
        // file-level pass has already resurrected it, so its entry comes
        // back too. Only a delete some other copy has not seen can be
        // undone this way: a name that is live nowhere was removed with
        // every copy's knowledge (an unlinked hard link's inode lives on
        // under its other name) and stays removed.
        let latest = &distinct[0].info;
        let winning = (!latest.deleted && latest.ftype.is_directory_like())
            .then(|| read_version(fsc, coordinator, gfid, &copies, &latest.vv))
            .filter(|r| r.as_ref().err() != Some(&Errno::Enocopy)); // no copy stores it
        let mut corrected: Option<Directory> = None;
        if let Some(bytes) = winning {
            let dir = Directory::parse(&bytes?)?;
            // The other versions' directories: read and parsed once, and
            // only when a removed record names a live file.
            let mut others: Option<Vec<Directory>> = None;
            for rec in dir.records() {
                let current = corrected.as_ref().unwrap_or(&dir);
                if rec.removed && inv.alive(rec.ino) && current.lookup(&rec.name).is_none() {
                    let others = others.get_or_insert_with(|| {
                        let mut versions = stored_versions(&copies);
                        versions.retain(|vv| **vv != latest.vv);
                        versions
                            .into_iter()
                            .filter_map(|vv| {
                                let bytes = read_version(fsc, coordinator, gfid, &copies, vv);
                                Directory::parse(&bytes.ok()?).ok()
                            })
                            .collect()
                    });
                    if others.iter().any(|d| d.lookup(&rec.name).is_some()) {
                        corrected
                            .get_or_insert_with(|| dir.clone())
                            .insert(&rec.name, rec.ino, rec.ftype)
                            .expect("name free");
                    }
                }
            }
        }
        match corrected {
            Some(dir) => {
                let merged = (Some(dir.serialize()), latest.clone());
                (FileOutcome::DirectoryMerged, Some(merged))
            }
            None => (FileOutcome::Consistent, None),
        }
    } else {
        // Concurrent versions: a genuine partitioned-update situation.
        let live: Vec<&InventoryRow> = distinct
            .iter()
            .copied()
            .filter(|c| !c.info.deleted)
            .collect();
        let read_live = || -> SysResult<Vec<Vec<u8>>> {
            live.iter()
                .map(|c| read_version(fsc, coordinator, gfid, &copies, &c.info.vv))
                .collect()
        };
        let template = live.first().unwrap_or(&distinct[0]).info.clone();
        if live.is_empty() {
            // Deleted on both sides: propagate a merged tombstone.
            (FileOutcome::DeletePropagated, Some((None, template)))
        } else if live.len() == 1 {
            // §4.4 rule d: "deleted in one partition while it was modified
            // in another, wants to be saved" — undo the delete.
            (
                FileOutcome::Resurrected,
                Some((read_live()?.pop(), template)),
            )
        } else {
            // Concurrent live modifications: resolve by type (§4.3).
            match live[0].info.ftype {
                FileType::Directory | FileType::HiddenDirectory => {
                    let dirs = read_live()?
                        .iter()
                        .map(|bytes| Directory::parse(bytes))
                        .collect::<SysResult<Vec<_>>>()?;
                    let merged = merge_directories(&dirs, |ino| inv.alive(ino));
                    for (name, renamed) in merged.renames {
                        for (new_name, ino) in &renamed {
                            let body = format!(
                                "name conflict on `{name}` after partition merge; \
                                 your file is now `{new_name}`"
                            );
                            let owner = inv.copies(*ino).first().map_or(0, |c| c.info.owner);
                            mail.push((owner, body));
                        }
                        report.name_conflicts.push((
                            gfid,
                            name,
                            renamed.into_iter().map(|(n, _)| n).collect(),
                        ));
                    }
                    let bytes = merged.merged.serialize();
                    (FileOutcome::DirectoryMerged, Some((Some(bytes), template)))
                }
                FileType::Mailbox => {
                    let boxes = read_live()?
                        .iter()
                        .map(|bytes| Mailbox::parse(bytes))
                        .collect::<SysResult<Vec<_>>>()?;
                    let bytes = merge_mailboxes(&boxes).serialize();
                    (FileOutcome::MailboxMerged, Some((Some(bytes), template)))
                }
                ftype if managers.handles(ftype) => {
                    // Reflected up to the registered recovery/merge
                    // manager (§4.1). A declining manager falls through
                    // to owner notification on the next pass.
                    let manager = managers.get(ftype).expect("handles checked");
                    match manager(&read_live()?) {
                        Some(bytes) => (FileOutcome::ManagerMerged, Some((Some(bytes), template))),
                        None => {
                            mark_conflicted(inv)?;
                            let body = format!("merge manager could not reconcile {gfid}");
                            mail.push((template.owner, body));
                            (FileOutcome::ConflictMarked, None)
                        }
                    }
                }
                // Untyped or database (no merge manager registered): mark
                // every copy, notify the owner (§4.6). A file whose live
                // copies are all already marked was handled by an earlier
                // pass — recovery must converge, so it is not re-reported
                // (the user resolves it with the split tool at their
                // leisure).
                _ if live.iter().all(|c| c.info.conflict) => (FileOutcome::Consistent, None),
                _ => {
                    mark_conflicted(inv)?;
                    let body = format!(
                        "update conflict detected on {gfid}; access is blocked until resolved"
                    );
                    mail.push((template.owner, body));
                    (FileOutcome::ConflictMarked, None)
                }
            }
        }
    };

    // Whatever version stands reaches the other containers the way any
    // committed version does: a merged one is committed at one data
    // replica first, and the copies that lack it — stragglers, data-less
    // replicas, containers that missed the create — get the commit
    // notification they missed. Each installs a missed create, folds in
    // a tombstone, records the latest version (at the CSS: opens go to a
    // current copy, and the file's leases are recalled) and queues the
    // pull, ordinary background propagation from here on (§2.3.6). A
    // conflict leaves every copy where it is.
    let standing = match merged {
        Some((bytes, template)) => Some(install(
            fsc,
            coordinator,
            gfid,
            &sites,
            inv,
            bytes,
            template,
        )?),
        None if distinct.len() <= 1 => {
            let latest = distinct[0].info.clone();
            let holder = copies
                .iter()
                .find(|c| c.data_here && c.info.vv == latest.vv);
            Some((holder.unwrap_or(distinct[0]).site, latest))
        }
        None => None,
    };
    let mut acted = false;
    if let Some((source, latest)) = &standing {
        for &site in &sites {
            let needs = site != *source
                && copies.iter().find(|c| c.site == site).is_none_or(|c| {
                    let stale = !c.info.vv.covers(&latest.vv);
                    let missing_data = !latest.deleted
                        && latest.replicas.contains(&inv.origin(c.site))
                        && !c.data_here;
                    // A pull already queued for this very version was
                    // decided by an earlier pass (or commit): not news.
                    let queued = c.pending.as_ref() == Some(&latest.vv);
                    (stale || missing_data) && !queued
                });
            if needs {
                let notify = FsMsg::CommitNotify {
                    gfid,
                    vv: latest.vv.clone(),
                    source: *source,
                    origin: inv.origin(*source),
                    inode_only: false,
                    pages: None,
                    info: latest.clone(),
                };
                fsc.notify(coordinator, site, notify);
                acted = true;
            }
        }
    }
    let outcome = match outcome {
        FileOutcome::Consistent if acted && distinct[0].info.deleted => {
            FileOutcome::DeletePropagated
        }
        FileOutcome::Consistent if acted => FileOutcome::Propagated,
        outcome => outcome,
    };
    // Conflict mail to the owners ("mail is sent to the owner(s) of a
    // given file that is in conflict, describing the problem", §4.6) is an
    // ordinary filesystem write: whatever it touched is no longer what the
    // table says. A failure is swallowed: recovery proceeds even if the
    // mail spool is itself unavailable.
    for (owner, body) in mail {
        let _ = namei::deliver_mail(fsc, coordinator, owner, &body);
        inv.stale = true;
    }
    report.files.push((gfid, outcome));
    Ok(outcome)
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
/// Observed runs wrap the pass in a `recovery/filegroup` span whose
/// children name its phases: `inventory`, `files`, `directories`. The
/// pass decides and notifies; the pulls it leaves queued run in the
/// background, at the next `settle`, like any commit's.
pub fn reconcile_filegroup_with(
    fsc: &FsCluster,
    coordinator: SiteId,
    fg: FilegroupId,
    managers: &MergeManagers,
) -> SysResult<RecoveryReport> {
    fsc.net().span("recovery", "filegroup", coordinator, || {
        reconcile_filegroup_inner(fsc, coordinator, fg, managers)
    })
}

fn reconcile_filegroup_inner(
    fsc: &FsCluster,
    coordinator: SiteId,
    fg: FilegroupId,
    managers: &MergeManagers,
) -> SysResult<RecoveryReport> {
    let mut report = RecoveryReport::default();
    let inventory = || Inventory::take(fsc, coordinator, fg, None);
    let mut inv = fsc
        .net()
        .span("recovery", "inventory", coordinator, inventory)?;

    // Notified-version tables may carry pre-partition hearsay; recovery
    // keeps only the versions some copy in the partition holds. Cached
    // names and attributes of the filegroup were validated against those
    // tables, so they are demoted: kept, but served again only once a
    // probe against the rebuilt knowledge reports exactly their version.
    // A CSS that drops a version may have granted leases at it to holders
    // that kept them across the reconfiguration: it recalls them.
    for &(site, _) in &inv.origins {
        let dropped = fsc.with_kernel(site, |k| {
            k.name_cache.demote_fg(fg);
            k.retain_latest(fg, |g, vv| {
                inv.copies(g.ino).iter().any(|c| c.info.vv == *vv)
            })
        });
        for gfid in dropped {
            fsc.recall_if_css(site, gfid);
        }
    }

    // The union of inode numbers known anywhere in the partition. Plain
    // files go first, then directories (which interrogate the now-final
    // file states).
    let all: Vec<Ino> = inv.rows.keys().copied().collect();
    for (pass, dirs) in [("files", false), ("directories", true)] {
        fsc.net().span("recovery", pass, coordinator, || {
            for &ino in &all {
                let copies = inv.copies(ino);
                if copies
                    .first()
                    .is_some_and(|c| c.info.ftype.is_directory_like())
                    != dirs
                {
                    continue;
                }
                reconcile_one(
                    fsc,
                    coordinator,
                    Gfid::new(fg, ino),
                    &mut inv,
                    &mut report,
                    managers,
                )?;
                if inv.stale {
                    inv = inventory()?;
                }
            }
            Ok(())
        })?;
    }
    Ok(report)
}

//! Filegroup reconciliation: version-vector detection plus the per-type
//! merge strategies (§4.2–§4.6).

use std::collections::BTreeMap;

use locus_fs::directory::Directory;
use locus_fs::mailbox::Mailbox;
use locus_fs::proto::{FsMsg, InodeInfo};
use locus_fs::FsCluster;
use locus_net::RpcEngine;
use locus_storage::{Pack, ShadowSession, PAGE_SIZE};
use locus_types::{Errno, FileType, FilegroupId, Gfid, Ino, SiteId, SysResult, VersionVector};

use crate::conflicts::{mark_conflict, notify_owner};
use crate::dir_merge::merge_directories;
use crate::mail_merge::merge_mailboxes;
use crate::managers::MergeManagers;
use crate::proto::{InventoryReply, InventoryRow, RecMsg};
use crate::report::{FileOutcome, RecoveryReport};

/// One copy of a file as the coordinator knows it.
#[derive(Clone, Debug)]
struct CopyView {
    site: SiteId,
    info: InodeInfo,
    data_here: bool,
    /// The version a pull already queued at the container will install.
    pending: Option<VersionVector>,
}

/// What the coordinator knows about a filegroup's copies: one
/// [`InventoryReply`] per reachable container (its own pack's is a
/// procedure call), folded by inode. Nothing here is re-read from a
/// remote kernel: a row changes only when the coordinator itself
/// installs a copy or marks a conflict, and the whole table is asked for
/// again after recovery mailed an owner, because that mail is an
/// ordinary filesystem write outside recovery's own installs.
#[derive(Default)]
struct Inventory {
    /// The containers that answered, in mount order, with their pack
    /// index (version-vector update origin).
    origins: Vec<(SiteId, u32)>,
    /// Every copy of every inode, each row in mount order.
    rows: BTreeMap<Ino, Vec<CopyView>>,
    /// Owner mail went out since the table was taken.
    stale: bool,
}

impl Inventory {
    /// Asks every container of `fg` reachable from `coordinator` for its
    /// inode table (just `only`'s row for demand recovery): one fan-out
    /// round of RPCs to the other containers, each retried under the
    /// cluster policy, `Esitedown` if any is abandoned.
    fn take(
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
            |site, _| inventory_at(fsc, site, fg, only),
        );
        let mut inv = Inventory::default();
        for (site, reply) in sites.into_iter().zip(replies) {
            let reply = reply.map_err(|_| Errno::Esitedown)?;
            inv.origins.push((site, reply.origin));
            for row in reply.rows {
                inv.rows.entry(row.ino).or_default().push(CopyView {
                    site,
                    info: row.info,
                    data_here: row.data_here,
                    pending: row.pending,
                });
            }
        }
        Ok(inv)
    }

    fn copies(&self, ino: Ino) -> &[CopyView] {
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

    fn is_dir(&self, ino: Ino) -> bool {
        self.copies(ino)
            .first()
            .is_some_and(|c| c.info.ftype.is_directory_like())
    }

    /// Whether any known copy of `ino` is live (not deleted) — the
    /// "interrogate the inode" oracle for directory-merge rules b/d.
    fn alive(&self, ino: Ino) -> bool {
        self.copies(ino).iter().any(|c| !c.info.deleted)
    }

    /// Owner of a file, defaulting to root when unknown.
    fn owner_of(&self, ino: Ino) -> u32 {
        self.copies(ino).first().map_or(0, |c| c.info.owner)
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

/// One inventory row: the inode's state in `pack` and whether the data
/// is stored here (a tombstone counts: there is nothing to fetch).
fn row_of(pack: &Pack, ino: Ino) -> Option<(InodeInfo, bool)> {
    let inode = pack.inode(ino)?;
    Some((InodeInfo::from(inode), inode.data_here || inode.deleted))
}

/// The inventory handler: runs at the container `site` and answers from
/// its own pack and propagation queue only.
fn inventory_at(
    fsc: &FsCluster,
    site: SiteId,
    fg: FilegroupId,
    only: Option<Ino>,
) -> InventoryReply {
    let k = fsc.kernel(site);
    let Some(pack) = k.pack_of_ref(fg) else {
        return InventoryReply::default();
    };
    let row = |ino| {
        let (info, data_here) = row_of(pack, ino)?;
        let gfid = Gfid::new(fg, ino);
        Some(InventoryRow {
            ino,
            info,
            data_here,
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
/// an explicit version vector and returns the copy as installed. This is
/// the recovery installer: it uses the same shadow commit as ordinary
/// modification, so a crash mid-recovery still leaves a coherent copy.
#[allow(clippy::too_many_arguments)]
fn overwrite_copy(
    fsc: &FsCluster,
    site: SiteId,
    gfid: Gfid,
    bytes: Option<&[u8]>,
    template: &InodeInfo,
    vv: &VersionVector,
    deleted: bool,
) -> SysResult<CopyView> {
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
    let (info, data_here) = row_of(pack, gfid.ino).expect("just committed");
    k.invalidate_caches_for(gfid);
    k.note_latest(gfid, vv);
    drop(k);
    // The copy changed behind the CSS's lease table, as a commit does.
    fsc.recall_if_css(site, gfid);
    Ok(CopyView {
        site,
        info,
        data_here,
        pending: None,
    })
}

/// Runs `f` inside a `recovery/<op>` span; untraced runs open none.
fn spanned<T>(
    fsc: &FsCluster,
    op: &str,
    site: SiteId,
    f: impl FnOnce() -> SysResult<T>,
) -> SysResult<T> {
    if !fsc.net().observing() {
        return f();
    }
    let span = fsc.net().obs_span_open("recovery", op, site);
    let out = f();
    let outcome = match &out {
        Ok(_) => "ok".to_owned(),
        Err(e) => format!("{e:?}"),
    };
    fsc.net().obs_span_close(span, &outcome);
    out
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
    // A plain file needs only its own row. A directory's merge rules
    // interrogate the files it names, so a directory (or a file the
    // coordinator holds no copy of to tell) takes the whole table.
    let plain = fsc
        .kernel(coordinator)
        .local_info(gfid)
        .is_some_and(|i| !i.ftype.is_directory_like());
    let mut inv = Inventory::take(fsc, coordinator, gfid.fg, plain.then_some(gfid.ino))?;
    reconcile_one(fsc, coordinator, gfid, &mut inv, report, managers)
}

fn reconcile_one(
    fsc: &FsCluster,
    coordinator: SiteId,
    gfid: Gfid,
    inv: &mut Inventory,
    report: &mut RecoveryReport,
    managers: &MergeManagers,
) -> SysResult<FileOutcome> {
    spanned(fsc, "reconcile", coordinator, || {
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
    // Installs one reconciled version at every reachable container —
    // `bytes`, or a tombstone when `None` — and records the copies as
    // installed in the coordinator's table.
    let install = |inv: &mut Inventory,
                   bytes: Option<&[u8]>,
                   template: &InodeInfo,
                   vv: &VersionVector|
     -> SysResult<()> {
        let deleted = bytes.is_none();
        let mut rows = Vec::with_capacity(sites.len());
        for &site in &sites {
            if !deleted {
                charge_propagate(fsc, coordinator, site);
            }
            rows.push(overwrite_copy(
                fsc, site, gfid, bytes, template, vv, deleted,
            )?);
        }
        inv.rows.insert(gfid.ino, rows);
        Ok(())
    };
    // Marks every copy conflicted, at its container and in the table.
    let mark_conflicted = |inv: &mut Inventory| -> SysResult<()> {
        for c in inv.rows.get_mut(&gfid.ino).into_iter().flatten() {
            mark_conflict(fsc, c.site, gfid)?;
            c.info.conflict = true;
        }
        Ok(())
    };
    // Owner mail is an ordinary filesystem write: whatever it touched is
    // no longer what the table says.
    let notify = |inv: &mut Inventory, owner: u32, body: &str| {
        notify_owner(fsc, coordinator, owner, body);
        inv.stale = true;
    };

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
        // One version dominates (or all equal): recovery decides, and
        // notifies. Stragglers, data-less replicas and containers that
        // never heard of the file get the commit notification they
        // missed, which installs a missed create, folds in a tombstone,
        // records the latest version (at the CSS: opens go to a current
        // copy, and the file's leases are recalled) and queues the pull
        // — ordinary background propagation from here on (§2.3.6).
        let winner = pick_data_source(&copies, &distinct[0].info.vv).unwrap_or(distinct[0].site);
        let latest = distinct[0].info.clone();
        let mut acted = false;
        for &site in &sites {
            if site == winner {
                continue;
            }
            let copy = copies.iter().find(|c| c.site == site);
            let needs = match copy {
                None => true, // the container missed the create entirely
                Some(c) => {
                    let stale = !c.info.vv.covers(&latest.vv);
                    let missing_data = !latest.deleted
                        && latest.replicas.contains(&inv.origin(c.site))
                        && !c.data_here;
                    // A pull already queued for this very version was
                    // decided by an earlier pass (or commit): not news.
                    let queued = c.pending.as_ref() == Some(&latest.vv);
                    (stale || missing_data) && !queued
                }
            };
            if needs {
                let notify = FsMsg::CommitNotify {
                    gfid,
                    vv: latest.vv.clone(),
                    source: winner,
                    origin: inv.origin(winner),
                    inode_only: false,
                    pages: None,
                    info: latest.clone(),
                };
                fsc.notify(coordinator, site, notify);
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
            // The other copies' directories: read and parsed once, and
            // only when a removed record names a live file.
            let mut others: Option<Vec<Directory>> = None;
            let mut corrected = dir.clone();
            let mut changed = false;
            for rec in dir.records() {
                if rec.removed && inv.alive(rec.ino) && corrected.lookup(&rec.name).is_none() {
                    let others = others.get_or_insert_with(|| {
                        copies
                            .iter()
                            .filter(|c| c.site != winner)
                            .filter_map(|c| {
                                let bytes = read_copy(fsc, c.site, gfid).ok()?;
                                Directory::parse(&bytes).ok()
                            })
                            .collect()
                    });
                    if others.iter().any(|d| d.lookup(&rec.name).is_some()) {
                        corrected.insert(&rec.name, rec.ino).expect("name free");
                        changed = true;
                    }
                }
            }
            if changed {
                let mut vv = latest.vv.clone();
                vv.bump(inv.origin(coordinator));
                install(inv, Some(&corrected.serialize()), &latest, &vv)?;
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
            vv.bump(inv.origin(coordinator));
            vv
        };

        if live.is_empty() {
            // Deleted on both sides: propagate a merged tombstone.
            install(inv, None, &distinct[0].info, &merged_vv)?;
            FileOutcome::DeletePropagated
        } else if live.len() == 1 {
            // §4.4 rule d: "deleted in one partition while it was modified
            // in another, wants to be saved" — undo the delete.
            let saved = live[0];
            let bytes = read_copy(fsc, saved.site, gfid)?;
            install(inv, Some(&bytes), &saved.info, &merged_vv)?;
            FileOutcome::Resurrected
        } else {
            // Concurrent live modifications: resolve by type (§4.3).
            match live[0].info.ftype {
                FileType::Directory | FileType::HiddenDirectory => {
                    let mut dirs = Vec::new();
                    for c in &live {
                        dirs.push(Directory::parse(&read_copy(fsc, c.site, gfid)?)?);
                    }
                    let merged = merge_directories(&dirs, |ino| inv.alive(ino));
                    let bytes = merged.merged.serialize();
                    install(inv, Some(&bytes), &live[0].info, &merged_vv)?;
                    for (name, renamed) in merged.renames {
                        for (new_name, ino) in &renamed {
                            let owner = inv.owner_of(*ino);
                            notify(
                                inv,
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
                    install(inv, Some(&merged), &live[0].info, &merged_vv)?;
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
                            install(inv, Some(&merged), &live[0].info, &merged_vv)?;
                            FileOutcome::ManagerMerged
                        }
                        None => {
                            mark_conflicted(inv)?;
                            notify(
                                inv,
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
                    mark_conflicted(inv)?;
                    notify(
                        inv,
                        live[0].info.owner,
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

/// Picks a copy that actually stores data for the given version.
fn pick_data_source(copies: &[CopyView], vv: &VersionVector) -> Option<SiteId> {
    copies
        .iter()
        .find(|c| c.data_here && c.info.vv == *vv)
        .map(|c| c.site)
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
    spanned(fsc, "filegroup", coordinator, || {
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
    let mut inv = spanned(fsc, "inventory", coordinator, inventory)?;

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
        spanned(fsc, pass, coordinator, || {
            for &ino in &all {
                if inv.is_dir(ino) != dirs {
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

//! End-to-end partition → divergent update → merge → reconcile tests
//! (§4.2–§4.6 of the paper).

use locus_fs::mailbox::Mailbox;
use locus_fs::ops::{fd, namei};
use locus_fs::{FsCluster, FsClusterBuilder, ProcFsCtx};
use locus_net::{FaultPlan, FaultSpec, ObsEvent};
use locus_recovery::conflicts::split_conflict;
use locus_recovery::proto::INVENTORY_ENTRY_BYTES;
use locus_recovery::{reconcile_filegroup, FileOutcome, RecoveryReport};
use locus_types::{Errno, FileType, FilegroupId, MachineType, OpenMode, Perms, SiteId};

fn s(i: u32) -> SiteId {
    SiteId(i)
}

/// Two containers (sites 0 and 1) plus a diskless site 2.
fn cluster() -> FsCluster {
    FsClusterBuilder::new()
        .vax_sites(3)
        .filegroup("root", &[0, 1])
        .build()
}

fn ctx(fsc: &FsCluster, site: SiteId) -> ProcFsCtx {
    ProcFsCtx::new(fsc.kernel(site).mount.root().unwrap(), MachineType::Vax)
}

fn set_css(fsc: &FsCluster, sites: &[SiteId], css: SiteId) {
    for &site in sites {
        fsc.kernel(site).mount.get_mut(FilegroupId(0)).unwrap().css = css;
    }
}

/// Splits sites {0,2} vs {1}, giving each side a working CSS.
fn partition(fsc: &FsCluster) {
    fsc.net().partition(&[vec![s(0), s(2)], vec![s(1)]]);
    set_css(fsc, &[s(0), s(2)], s(0));
    set_css(fsc, &[s(1)], s(1));
}

/// Heals the net and restores the single CSS, then reconciles.
fn merge_and_recover(fsc: &FsCluster) -> RecoveryReport {
    fsc.net().heal();
    set_css(fsc, &[s(0), s(1), s(2)], s(0));
    reconcile_filegroup(fsc, s(0), FilegroupId(0)).unwrap()
}

fn write_str(fsc: &FsCluster, site: SiteId, path: &str, body: &[u8]) {
    let c = ctx(fsc, site);
    let fdn = fd::creat(fsc, site, &c, path, FileType::Untyped, Perms::FILE_DEFAULT).unwrap();
    fd::write(fsc, site, fdn, body).unwrap();
    fd::close(fsc, site, fdn).unwrap();
}

fn read_str(fsc: &FsCluster, site: SiteId, path: &str) -> Vec<u8> {
    let c = ctx(fsc, site);
    let fdn = fd::open(fsc, site, &c, path, OpenMode::Read).unwrap();
    let data = fd::read(fsc, site, fdn, 1 << 20).unwrap();
    fd::close(fsc, site, fdn).unwrap();
    data
}

#[test]
fn one_sided_update_propagates_not_conflicts() {
    // §4.2's worked example: f modified only at S1 → "the copy at S1
    // should propagate to S2 … Are they then in conflict? No."
    let fsc = cluster();
    write_str(&fsc, s(0), "/f", b"base");
    fsc.settle();
    partition(&fsc);
    write_str(&fsc, s(0), "/f", b"updated in A");
    fsc.settle();
    let report = merge_and_recover(&fsc);
    assert_eq!(report.conflict_count(), 0);
    assert!(report
        .files
        .iter()
        .any(|(_, o)| *o == FileOutcome::Propagated));
    assert_eq!(read_str(&fsc, s(1), "/f"), b"updated in A");
}

#[test]
fn two_sided_update_is_marked_conflicted_and_splittable() {
    let fsc = cluster();
    write_str(&fsc, s(0), "/doc", b"base");
    fsc.settle();
    partition(&fsc);
    write_str(&fsc, s(0), "/doc", b"version A");
    write_str(&fsc, s(1), "/doc", b"version B");
    fsc.settle();
    let report = merge_and_recover(&fsc);
    assert_eq!(report.conflict_count(), 1);

    // "Files with unresolved conflicts are marked so normal attempts to
    // access them fail" (§4.6).
    let c = ctx(&fsc, s(2));
    assert_eq!(
        fd::open(&fsc, s(2), &c, "/doc", OpenMode::Read).unwrap_err(),
        Errno::Econflict
    );

    // The owner got mail describing the problem.
    let mail = read_str(&fsc, s(0), "/mail/u0");
    let mb = Mailbox::parse(&mail).unwrap();
    assert!(mb.live().any(|m| m.body.contains("conflict")));

    // The §4.6 tool renames each version back into a normal file.
    let c0 = ctx(&fsc, s(0));
    let names = split_conflict(&fsc, s(0), &c0, "/", "doc").unwrap();
    assert_eq!(names.len(), 2);
    fsc.settle();
    let mut bodies: Vec<Vec<u8>> = names
        .iter()
        .map(|n| read_str(&fsc, s(2), &format!("/{n}")))
        .collect();
    bodies.sort();
    assert_eq!(bodies, vec![b"version A".to_vec(), b"version B".to_vec()]);
    assert_eq!(
        namei::resolve(&fsc, s(0), &c0, "/doc").unwrap_err(),
        Errno::Enoent,
        "original conflicted name retired"
    );
}

#[test]
fn directory_entries_created_in_both_partitions_union() {
    let fsc = cluster();
    partition(&fsc);
    write_str(&fsc, s(0), "/from-a", b"A");
    write_str(&fsc, s(1), "/from-b", b"B");
    fsc.settle();
    let report = merge_and_recover(&fsc);
    assert!(report
        .files
        .iter()
        .any(|(_, o)| *o == FileOutcome::DirectoryMerged));
    assert_eq!(
        report.conflict_count(),
        0,
        "directories merge automatically"
    );
    // Every site sees both files through the merged root.
    for site in [s(0), s(1), s(2)] {
        assert_eq!(read_str(&fsc, site, "/from-a"), b"A");
        assert_eq!(read_str(&fsc, site, "/from-b"), b"B");
    }
}

#[test]
fn name_conflict_renames_both_and_mails_owners() {
    let fsc = cluster();
    partition(&fsc);
    write_str(&fsc, s(0), "/x", b"file made in A");
    write_str(&fsc, s(1), "/x", b"file made in B");
    fsc.settle();
    let report = merge_and_recover(&fsc);
    assert_eq!(report.name_conflicts.len(), 1);
    let (_, ref original, ref renamed) = report.name_conflicts[0];
    assert_eq!(original, "x");
    assert_eq!(renamed.len(), 2);

    let c = ctx(&fsc, s(2));
    assert_eq!(
        namei::resolve(&fsc, s(2), &c, "/x").unwrap_err(),
        Errno::Enoent
    );
    let mut bodies: Vec<Vec<u8>> = renamed
        .iter()
        .map(|n| read_str(&fsc, s(2), &format!("/{n}")))
        .collect();
    bodies.sort();
    assert_eq!(
        bodies,
        vec![b"file made in A".to_vec(), b"file made in B".to_vec()]
    );
    // "The owners of the two files are notified by electronic mail."
    let mail = read_str(&fsc, s(0), "/mail/u0");
    let mb = Mailbox::parse(&mail).unwrap();
    assert!(
        mb.live()
            .filter(|m| m.body.contains("name conflict"))
            .count()
            >= 2
    );
}

#[test]
fn delete_in_one_partition_propagates() {
    let fsc = cluster();
    write_str(&fsc, s(0), "/dead", b"doomed");
    fsc.settle();
    partition(&fsc);
    let c0 = ctx(&fsc, s(0));
    namei::unlink(&fsc, s(0), &c0, "/dead").unwrap();
    fsc.settle();
    let report = merge_and_recover(&fsc);
    assert_eq!(report.conflict_count(), 0);
    fsc.settle();
    // §4.4 rule 2b: the delete dominates the other partition's stale
    // live copy, so the name stays removed — it is neither listed nor
    // found, and may be created afresh.
    for site in [s(0), s(1), s(2)] {
        let c = ctx(&fsc, site);
        assert_eq!(
            namei::resolve(&fsc, site, &c, "/dead").unwrap_err(),
            Errno::Enoent
        );
        let names = namei::readdir(&fsc, site, &c, "/").unwrap();
        assert!(
            names.iter().all(|(n, _)| n != "dead"),
            "the deleted name is listed at {site}: {names:?}"
        );
    }
    write_str(&fsc, s(1), "/dead", b"reborn");
    fsc.settle();
    for site in [s(0), s(1), s(2)] {
        assert_eq!(read_str(&fsc, site, "/dead"), b"reborn");
    }
}

/// Regression: once every copy of a directory holds a removed hard link
/// as a tombstone, no later merge may bring the name back just because
/// the inode is still alive under its other name (it used to come back
/// at every merge: `EEXIST` on re-link).
#[test]
fn removed_hard_link_stays_removed_across_later_merges() {
    let fsc = cluster();
    write_str(&fsc, s(0), "/kept", b"two names");
    let c0 = ctx(&fsc, s(0));
    namei::link(&fsc, s(0), &c0, "/kept", "/alias").unwrap();
    fsc.settle();
    let assert_alias_gone = |when: &str| {
        for site in [s(0), s(1), s(2)] {
            let c = ctx(&fsc, site);
            assert_eq!(
                namei::resolve(&fsc, site, &c, "/alias"),
                Err(Errno::Enoent),
                "the removed link is back at {site} {when}"
            );
            assert_eq!(read_str(&fsc, site, "/kept"), b"two names");
        }
    };

    // Partition off the diskless site only: both containers see the
    // unlink.
    fsc.net().partition(&[vec![s(0), s(1)], vec![s(2)]]);
    namei::unlink(&fsc, s(0), &c0, "/alias").unwrap();
    fsc.settle();
    merge_and_recover(&fsc);
    fsc.settle();
    assert_alias_gone("after the first merge");

    // Both sides change the root directory: a two-copy directory merge.
    partition(&fsc);
    write_str(&fsc, s(0), "/from-a", b"A");
    write_str(&fsc, s(1), "/from-b", b"B");
    fsc.settle();
    let report = merge_and_recover(&fsc);
    assert!(report
        .files
        .iter()
        .any(|(_, o)| *o == FileOutcome::DirectoryMerged));
    fsc.settle();
    assert_alias_gone("after a two-sided directory merge");

    // One side changes it: the newer copy wins outright.
    partition(&fsc);
    write_str(&fsc, s(0), "/from-a-again", b"A2");
    fsc.settle();
    merge_and_recover(&fsc);
    fsc.settle();
    assert_alias_gone("after a one-sided merge");

    namei::link(&fsc, s(0), &c0, "/kept", "/alias").expect("the name is free to re-link");
}

#[test]
fn delete_versus_modify_saves_the_file() {
    // §4.4: "a file which was deleted in one partition while it was
    // modified in another, wants to be saved".
    let fsc = cluster();
    write_str(&fsc, s(0), "/precious", b"v1");
    fsc.settle();
    partition(&fsc);
    let c0 = ctx(&fsc, s(0));
    namei::unlink(&fsc, s(0), &c0, "/precious").unwrap(); // deleted in A
    write_str(&fsc, s(1), "/precious", b"v2 modified in B"); // modified in B
    fsc.settle();
    let report = merge_and_recover(&fsc);
    assert!(report
        .files
        .iter()
        .any(|(_, o)| *o == FileOutcome::Resurrected));
    for site in [s(0), s(1), s(2)] {
        assert_eq!(read_str(&fsc, site, "/precious"), b"v2 modified in B");
    }
}

#[test]
fn mailboxes_merge_automatically() {
    let fsc = cluster();
    let c0 = ctx(&fsc, s(0));
    namei::create(
        &fsc,
        s(0),
        &c0,
        "/mail",
        FileType::Directory,
        Perms::DIR_DEFAULT,
    )
    .unwrap();
    namei::deliver_mail(&fsc, s(0), 7, "before the partition").unwrap();
    fsc.settle();
    partition(&fsc);
    namei::deliver_mail(&fsc, s(0), 7, "from partition A").unwrap();
    namei::deliver_mail(&fsc, s(1), 7, "from partition B").unwrap();
    fsc.settle();
    let report = merge_and_recover(&fsc);
    assert!(report
        .files
        .iter()
        .any(|(_, o)| *o == FileOutcome::MailboxMerged));
    assert_eq!(report.conflict_count(), 0);
    let mb = Mailbox::parse(&read_str(&fsc, s(2), "/mail/u7")).unwrap();
    let bodies: Vec<&str> = mb.live().map(|m| m.body.as_str()).collect();
    assert_eq!(bodies.len(), 3);
    assert!(bodies.contains(&"from partition A"));
    assert!(bodies.contains(&"from partition B"));
    assert!(bodies.contains(&"before the partition"));
}

#[test]
fn reconciliation_is_idempotent() {
    let fsc = cluster();
    partition(&fsc);
    write_str(&fsc, s(0), "/a", b"A");
    write_str(&fsc, s(1), "/b", b"B");
    fsc.settle();
    let first = merge_and_recover(&fsc);
    assert!(first.actions() > 0);
    let second = reconcile_filegroup(&fsc, s(0), FilegroupId(0)).unwrap();
    assert_eq!(second.actions(), 0, "second pass finds nothing to do");
    assert_eq!(second.conflict_count(), 0);
}

#[test]
fn copies_identical_after_recovery() {
    let fsc = cluster();
    partition(&fsc);
    write_str(&fsc, s(0), "/p", b"from A");
    write_str(&fsc, s(1), "/q", b"from B");
    fsc.settle();
    merge_and_recover(&fsc);
    // Recovery decided and notified; the pulls run in the background.
    fsc.settle();
    // Every container copy of every file agrees (version vectors equal).
    let root = fsc.kernel(s(0)).mount.root().unwrap();
    let inos: Vec<_> = fsc.with_kernel(s(0), |k| {
        k.pack_of(root.fg).unwrap().inos().collect::<Vec<_>>()
    });
    for ino in inos {
        let g = locus_types::Gfid::new(root.fg, ino);
        let i0 = fsc.kernel(s(0)).local_info(g);
        let i1 = fsc.kernel(s(1)).local_info(g);
        if let (Some(a), Some(b)) = (i0, i1) {
            assert_eq!(a.vv, b.vv, "copies of {g} disagree after recovery");
        }
    }
}

#[test]
fn partitioned_work_survives_even_when_updates_happen_on_both_sides() {
    // The availability argument of §4.1: update must be allowed in all
    // partitions; non-overlapping updates merge with no losses.
    let fsc = cluster();
    let c0 = ctx(&fsc, s(0));
    namei::create(
        &fsc,
        s(0),
        &c0,
        "/proj",
        FileType::Directory,
        Perms::DIR_DEFAULT,
    )
    .unwrap();
    write_str(&fsc, s(0), "/proj/shared", b"base");
    fsc.settle();
    partition(&fsc);
    write_str(&fsc, s(0), "/proj/alpha", b"alpha work");
    write_str(&fsc, s(1), "/proj/beta", b"beta work");
    write_str(&fsc, s(1), "/proj/shared", b"beta touched shared");
    fsc.settle();
    let report = merge_and_recover(&fsc);
    assert_eq!(report.conflict_count(), 0);
    for site in [s(0), s(1), s(2)] {
        assert_eq!(read_str(&fsc, site, "/proj/alpha"), b"alpha work");
        assert_eq!(read_str(&fsc, site, "/proj/beta"), b"beta work");
        assert_eq!(read_str(&fsc, site, "/proj/shared"), b"beta touched shared");
    }
}

/// A healed, not yet reconciled cluster whose two containers diverged
/// while split: `n` files from before the partition, one of them updated
/// in A, and one new file on each side (a directory merge, no conflict).
fn healed_after_divergence(n: usize) -> FsCluster {
    let fsc = cluster();
    for i in 0..n {
        write_str(&fsc, s(0), &format!("/f{i}"), b"base");
    }
    fsc.settle();
    partition(&fsc);
    write_str(&fsc, s(0), "/f0", b"updated in A");
    write_str(&fsc, s(0), "/from-a", b"A");
    write_str(&fsc, s(1), "/from-b", b"B");
    fsc.settle();
    fsc.net().heal();
    set_css(&fsc, &[s(0), s(1), s(2)], s(0));
    fsc.net().reset_stats();
    fsc
}

/// Every container's inode table: `(site, inode, info)`.
fn copies(fsc: &FsCluster) -> Vec<(SiteId, locus_types::Ino, locus_fs::proto::InodeInfo)> {
    let mut out = Vec::new();
    for site in [s(0), s(1)] {
        let k = fsc.kernel(site);
        let pack = k.pack_of_ref(FilegroupId(0)).unwrap();
        out.extend(
            pack.inos()
                .map(|i| (site, i, pack.inode(i).unwrap().into())),
        );
    }
    out
}

#[test]
fn inventory_messages_do_not_scale_with_file_count() {
    let traffic = |n: usize| {
        let fsc = healed_after_divergence(n);
        let report = reconcile_filegroup(&fsc, s(0), FilegroupId(0)).unwrap();
        assert_eq!(report.conflict_count(), 0);
        let st = fsc.net().stats();
        (
            st.sends("RECOVERY inventory"),
            st.bytes("RECOVERY inventory resp"),
        )
    };
    let (few_msgs, few_bytes) = traffic(8);
    let (many_msgs, many_bytes) = traffic(64);
    assert_eq!(few_msgs, 1, "one request per other container");
    assert_eq!(many_msgs, 1, "however many files it holds");
    // Each extra file is one more row in the one reply: the fixed entry
    // plus its one-component version vector.
    assert_eq!(
        many_bytes - few_bytes,
        (64 - 8) * (INVENTORY_ENTRY_BYTES as u64 + 8)
    );
}

#[test]
fn second_pass_is_quiet() {
    let fsc = healed_after_divergence(8);
    let first = reconcile_filegroup(&fsc, s(0), FilegroupId(0)).unwrap();
    assert!(first.actions() > 0);
    fsc.net().reset_stats();
    let second = reconcile_filegroup(&fsc, s(0), FilegroupId(0)).unwrap();
    assert!(!second.files.is_empty());
    assert!(second
        .files
        .iter()
        .all(|(_, o)| *o == FileOutcome::Consistent));
    let st = fsc.net().stats();
    assert_eq!(st.sends("RECOVERY install"), 0);
    assert_eq!(st.sends("COMMIT notify"), 0);
    assert_eq!(st.sends("RECOVERY inventory"), 1);
}

#[test]
fn dropped_inventory_request_is_retried_to_the_same_report() {
    let clean = healed_after_divergence(8);
    let expected = reconcile_filegroup(&clean, s(0), FilegroupId(0)).unwrap();
    clean.settle();

    let fsc = healed_after_divergence(8);
    fsc.net().install_faults(
        FaultPlan::new(4).kind_spec("RECOVERY inventory", FaultSpec::drop_rate(0.5)),
    );
    let report = reconcile_filegroup(&fsc, s(0), FilegroupId(0)).unwrap();
    let st = fsc.net().stats();
    assert_eq!(
        (
            st.drops("RECOVERY inventory"),
            st.retries("RECOVERY inventory")
        ),
        (1, 1),
        "seed 4 drops the first request and delivers the second"
    );
    assert_eq!(report.files, expected.files);
    assert_eq!(report.name_conflicts, expected.name_conflicts);
    fsc.settle();
    assert_eq!(copies(&fsc), copies(&clean));
}

#[test]
fn abandoned_inventory_is_esitedown_and_touches_nothing() {
    let fsc = healed_after_divergence(8);
    let before = copies(&fsc);
    fsc.net().install_faults(
        FaultPlan::new(3).kind_spec("RECOVERY inventory", FaultSpec::drop_rate(1.0)),
    );
    assert_eq!(
        reconcile_filegroup(&fsc, s(0), FilegroupId(0)).unwrap_err(),
        Errno::Esitedown
    );
    assert_eq!(copies(&fsc), before);
    assert!(!fsc.has_pending_background_work());
}

#[test]
fn observed_pass_names_its_phases_and_an_unobserved_one_opens_no_span() {
    let events = |observe: bool| {
        let fsc = healed_after_divergence(2);
        fsc.net().set_observing(observe);
        reconcile_filegroup(&fsc, s(0), FilegroupId(0)).unwrap();
        fsc.net().take_obs_events()
    };
    let observed = events(true);
    let root = observed
        .iter()
        .find_map(|e| match e {
            ObsEvent::SpanOpen { id, op, .. } if op == "filegroup" => Some(*id),
            _ => None,
        })
        .expect("a recovery/filegroup span");
    let phases: Vec<String> = observed
        .iter()
        .filter_map(|e| match e {
            ObsEvent::SpanOpen {
                parent,
                service,
                op,
                ..
            } if *parent == root => Some(format!("{service}/{op}")),
            _ => None,
        })
        .collect();
    assert_eq!(
        phases,
        [
            "recovery/inventory",
            "recovery/files",
            "recovery/directories",
        ]
    );
    assert!(events(false).is_empty());
}

//! End-to-end partition → divergent update → merge → reconcile tests
//! (§4.2–§4.6 of the paper).

use locus_fs::mailbox::Mailbox;
use locus_fs::ops::{fd, namei};
use locus_fs::{FsCluster, FsClusterBuilder, ProcFsCtx};
use locus_recovery::conflicts::split_conflict;
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
    for site in [s(0), s(1), s(2)] {
        let c = ctx(&fsc, site);
        assert_eq!(
            namei::resolve(&fsc, site, &c, "/dead").unwrap_err(),
            Errno::Enoent
        );
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

//! Whole-system dynamic reconfiguration tests (§5): the partition and
//! merge protocols run automatically, the §5.6 cleanup fires, CSSs are
//! re-selected, and the recovery procedure reconciles divergence — all
//! through the public [`Cluster`] API.

use locus::{Cluster, Errno, ExitStatus, FileOutcome, OpenMode, ProcError, Signal, SiteId};

fn s(i: u32) -> SiteId {
    SiteId(i)
}

/// Four sites; root filegroup replicated at 0 and 1.
fn cluster() -> Cluster {
    Cluster::builder()
        .vax_sites(4)
        .filegroup("root", &[0, 1])
        .build()
}

#[test]
fn partitioned_operation_and_dynamic_merge() {
    let c = cluster();
    let p0 = c.login(s(0), 1).unwrap();
    let p1 = c.login(s(1), 2).unwrap();
    c.write_file(p0, "/shared", b"base").unwrap();
    c.settle();

    // Partition {0,3} | {1,2}; the reconfiguration protocol runs.
    c.partition(&[vec![s(0), s(3)], vec![s(1), s(2)]]);
    let r = c.reconfigure().unwrap();
    assert_eq!(r.partitions.len(), 2);
    // Each partition got its own CSS for the root filegroup.
    assert_eq!(
        c.fs()
            .kernel(s(0))
            .mount
            .css_of(locus::FilegroupId(0))
            .unwrap(),
        s(0)
    );
    assert_eq!(
        c.fs()
            .kernel(s(2))
            .mount
            .css_of(locus::FilegroupId(0))
            .unwrap(),
        s(1)
    );

    // Both partitions keep working — the §4.1 availability argument.
    c.write_file(p0, "/side-a", b"made in A").unwrap();
    c.write_file(p1, "/side-b", b"made in B").unwrap();
    c.settle();
    // Cross-partition names are invisible until merge.
    assert_eq!(c.read_file(p1, "/side-a").unwrap_err(), Errno::Enoent);

    // Heal and merge: directories union, no conflicts, one partition.
    c.heal();
    let r = c.reconfigure().unwrap();
    assert_eq!(r.partitions.len(), 1);
    assert_eq!(r.partitions[0].len(), 4);
    let total_conflicts: usize = r.recovery.iter().map(|(_, rr)| rr.conflict_count()).sum();
    assert_eq!(total_conflicts, 0);
    for i in 0..4 {
        let p = c.login(s(i), 9).unwrap();
        assert_eq!(c.read_file(p, "/side-a").unwrap(), b"made in A");
        assert_eq!(c.read_file(p, "/side-b").unwrap(), b"made in B");
        assert_eq!(c.read_file(p, "/shared").unwrap(), b"base");
    }
    // The single CSS is re-established network-wide.
    for i in 0..4 {
        assert_eq!(
            c.fs()
                .kernel(s(i))
                .mount
                .css_of(locus::FilegroupId(0))
                .unwrap(),
            s(0)
        );
    }
}

#[test]
fn conflicting_updates_detected_at_merge() {
    let c = cluster();
    let p0 = c.login(s(0), 7).unwrap();
    c.write_file(p0, "/hot", b"base").unwrap();
    c.settle();
    c.partition(&[vec![s(0), s(3)], vec![s(1), s(2)]]);
    c.reconfigure().unwrap();
    let p1 = c.login(s(1), 7).unwrap();
    c.write_file(p0, "/hot", b"A's version").unwrap();
    c.write_file(p1, "/hot", b"B's version").unwrap();
    c.settle();
    c.heal();
    let r = c.reconfigure().unwrap();
    let conflicts: usize = r.recovery.iter().map(|(_, rr)| rr.conflict_count()).sum();
    assert_eq!(conflicts, 1);
    assert_eq!(c.read_file(p0, "/hot").unwrap_err(), Errno::Econflict);
    // The owner was notified by mail (§4.6).
    let mail = c.mailbox_of(s(0), 7).unwrap();
    assert!(mail.iter().any(|m| m.contains("conflict")));
}

#[test]
fn cleanup_table_remote_read_reopens_transparently() {
    // §5.6: remote file open for read, storage site departs → "internal
    // close, attempt to reopen at other site". §5.2: "if a process loses
    // contact with a file it was reading remotely, the system will
    // attempt to reopen a different copy of the same version".
    let c = cluster();
    let p0 = c.login(s(0), 1).unwrap();
    c.write_file(p0, "/ha", b"replicated data").unwrap();
    c.settle();
    let reader = c.login(s(3), 1).unwrap();
    let fd = c.open(reader, "/ha", OpenMode::Read).unwrap();
    assert_eq!(c.read(reader, fd, 5).unwrap(), b"repli");

    // The serving SS (site 0, also CSS) crashes mid-read.
    c.crash(s(0));
    let r = c.reconfigure().unwrap();
    let reopened: usize = r.cleanup.iter().map(|(_, cr)| cr.fds_reopened).sum();
    assert_eq!(reopened, 1, "the read descriptor moved to the other copy");
    // The read continues where it left off, transparently.
    assert_eq!(c.read(reader, fd, 64).unwrap(), b"cated data");
    c.close(reader, fd).unwrap();
}

#[test]
fn cleanup_table_remote_update_sets_descriptor_error() {
    // §5.6: remote file open for update, storage site departs →
    // "discard pages, set error in local file descriptor".
    let c = Cluster::builder()
        .vax_sites(3)
        .filegroup("root", &[0])
        .build();
    let writer = c.login(s(2), 1).unwrap();
    c.write_file(writer, "/doc", b"v1").unwrap();
    let fd = c.open(writer, "/doc", OpenMode::Write).unwrap();
    c.write(writer, fd, b"uncommitted").unwrap();
    c.crash(s(0)); // the only storage site
    let r = c.reconfigure().unwrap();
    let errored: usize = r.cleanup.iter().map(|(_, cr)| cr.fds_errored).sum();
    assert_eq!(errored, 1);
    assert!(matches!(
        c.write(writer, fd, b"more").unwrap_err(),
        Errno::Esitedown
    ));
}

#[test]
fn cleanup_table_local_update_open_aborts_when_writer_departs() {
    // §5.6: local file open for update remotely, using site departs →
    // "discard pages, close file and abort updates".
    let c = cluster();
    let p0 = c.login(s(0), 1).unwrap();
    c.write_file(p0, "/w", b"committed").unwrap();
    c.settle();
    // A writer on site 3 starts modifying but never commits.
    let w = c.login(s(3), 1).unwrap();
    let fd = c.open(w, "/w", OpenMode::Write).unwrap();
    c.write(w, fd, b"SCRIBBLES").unwrap();
    // Site 3 vanishes.
    c.crash(s(3));
    let r = c.reconfigure().unwrap();
    let aborted: usize = r.cleanup.iter().map(|(_, cr)| cr.sessions_aborted).sum();
    assert_eq!(aborted, 1, "the departed writer's session was aborted");
    // The committed version is intact and writable again.
    assert_eq!(c.read_file(p0, "/w").unwrap(), b"committed");
    let fd = c.open(p0, "/w", OpenMode::Write).unwrap();
    c.write(p0, fd, b"next").unwrap();
    c.close(p0, fd).unwrap();
}

#[test]
fn cleanup_table_interacting_processes() {
    // §5.6 third table: parent and child split by a partition are both
    // notified; a crashed site's processes report SiteFailed.
    let c = cluster();
    let parent = c.login(s(0), 1).unwrap();
    let child = c.fork(parent, Some(s(1))).unwrap();
    c.partition(&[vec![s(0), s(3)], vec![s(1), s(2)]]);
    let r = c.reconfigure().unwrap();
    assert!(r.procs_notified >= 2);
    assert_eq!(
        c.err_info(parent).unwrap(),
        Some(ProcError::ChildSiteFailed { child, site: s(1) })
    );
    assert!(c.signals(parent).unwrap().contains(&Signal::Sigchld));
    assert_eq!(
        c.err_info(child).unwrap(),
        Some(ProcError::ParentSiteFailed { site: s(0) })
    );

    // Crash the child's site entirely: the child dies with SiteFailed.
    c.crash(s(1));
    c.reconfigure().unwrap();
    assert_eq!(
        c.procs().get(child).unwrap().state,
        locus_proc::ProcState::Zombie(ExitStatus::SiteFailed)
    );
}

#[test]
fn cleanup_table_distributed_transaction_aborts() {
    // §5.6: "abort all related subtransactions in partition".
    let c = cluster();
    let p = c.login(s(0), 1).unwrap();
    c.write_file(p, "/t", b"base").unwrap();
    c.settle();
    let top = c.txn_begin(p).unwrap();
    let sub = c.txn_sub(top, s(2)).unwrap();
    c.txn_write(sub, p, "/t", b"tentative").unwrap();
    c.partition(&[vec![s(0), s(1)], vec![s(2), s(3)]]);
    let r = c.reconfigure().unwrap();
    assert_eq!(r.txns_aborted, 1);
    assert_eq!(c.txns().state(sub).unwrap(), locus::TxnState::Aborted);
    // The top-level side can still commit (empty) work.
    c.txn_commit(top).unwrap();
    assert_eq!(c.read_file(p, "/t").unwrap(), b"base");
}

#[test]
fn three_way_partition_and_merge() {
    let c = Cluster::builder()
        .vax_sites(6)
        .filegroup("root", &[0, 2, 4])
        .build();
    let pids: Vec<_> = (0..6).map(|i| c.login(s(i), i).unwrap()).collect();
    c.write_file(pids[0], "/base", b"everyone sees this")
        .unwrap();
    c.settle();
    c.partition(&[vec![s(0), s(1)], vec![s(2), s(3)], vec![s(4), s(5)]]);
    let r = c.reconfigure().unwrap();
    assert_eq!(r.partitions.len(), 3);
    // Each partition makes its own file through its own CSS.
    c.write_file(pids[0], "/p0", b"0").unwrap();
    c.write_file(pids[2], "/p2", b"2").unwrap();
    c.write_file(pids[4], "/p4", b"4").unwrap();
    c.settle();
    c.heal();
    let r = c.reconfigure().unwrap();
    assert_eq!(r.partitions.len(), 1);
    for p in &pids {
        assert_eq!(c.read_file(*p, "/p0").unwrap(), b"0");
        assert_eq!(c.read_file(*p, "/p2").unwrap(), b"2");
        assert_eq!(c.read_file(*p, "/p4").unwrap(), b"4");
        assert_eq!(c.read_file(*p, "/base").unwrap(), b"everyone sees this");
    }
}

#[test]
fn crashed_site_rejoins_and_catches_up() {
    // The §4.1 maintenance scenario: "while site B is down, work is done
    // on site A. Site A goes down before B comes up. When site A comes
    // back up, an effective partition merge must be done."
    let c = cluster();
    let pa = c.login(s(0), 1).unwrap();
    c.write_file(pa, "/log", b"entry-1\n").unwrap();
    c.settle();

    c.crash(s(1)); // B down
    c.reconfigure().unwrap();
    c.write_file(pa, "/log", b"entry-1\nentry-2\n").unwrap(); // work on A
    c.settle();
    c.crash(s(0)); // A down before B returns
    c.revive(s(1));
    c.reconfigure().unwrap();
    // B serves the old version (the only one available).
    let pb = c.login(s(1), 1).unwrap();
    assert_eq!(c.read_file(pb, "/log").unwrap(), b"entry-1\n");

    // A returns: the merge brings B up to date.
    c.revive(s(0));
    let r = c.reconfigure().unwrap();
    assert!(r
        .recovery
        .iter()
        .any(|(_, rr)| rr.files.iter().any(|(_, o)| *o == FileOutcome::Propagated)));
    assert_eq!(c.read_file(pb, "/log").unwrap(), b"entry-1\nentry-2\n");
}

#[test]
fn reconfiguration_is_idempotent_when_nothing_changed() {
    let c = cluster();
    let r1 = c.reconfigure().unwrap();
    assert_eq!(r1.partitions.len(), 1);
    let r2 = c.reconfigure().unwrap();
    assert_eq!(r2.partitions.len(), 1);
    let actions: usize = r2.recovery.iter().map(|(_, rr)| rr.actions()).sum();
    assert_eq!(actions, 0);
}

#[test]
fn filegroup_without_container_is_inaccessible_in_partition() {
    let c = Cluster::builder()
        .vax_sites(4)
        .filegroup("root", &[0, 1])
        .build();
    let p3 = c.login(s(3), 1).unwrap();
    c.write_file(p3, "/x", b"data").unwrap();
    c.settle();
    // {2,3} has no container of the root filegroup.
    c.partition(&[vec![s(0), s(1)], vec![s(2), s(3)]]);
    c.reconfigure().unwrap();
    assert!(matches!(
        c.read_file(p3, "/x").unwrap_err(),
        Errno::Esitedown | Errno::Enocopy
    ));
}

#[test]
fn lock_table_rebuilt_at_new_css_preserves_single_writer() {
    // §5.6: after CSS re-selection "that site must reconstruct the lock
    // table for all open files from the information remaining in the
    // partition" — so a second writer is still refused after the old CSS
    // crashed mid-open.
    let c = cluster();
    let p0 = c.login(s(1), 1).unwrap();
    c.write_file(p0, "/locked", b"x").unwrap();
    // Deliberately no settle: only site 1 stores the data, so the write
    // open below is served by site 1 while site 0 is merely the CSS.
    let writer = c.login(s(2), 1).unwrap();
    let wfd = c.open(writer, "/locked", OpenMode::Write).unwrap();
    c.write(writer, wfd, b"in progress").unwrap();
    // The CSS (site 0) crashes; site 1 becomes CSS and rebuilds locks.
    c.crash(s(0));
    let r = c.reconfigure().unwrap();
    assert!(
        r.locks_rebuilt >= 1,
        "open write re-registered at the new CSS"
    );
    // Single-writer policy survives the CSS move.
    let intruder = c.login(s(3), 1).unwrap();
    assert_eq!(
        c.open(intruder, "/locked", OpenMode::Write).unwrap_err(),
        Errno::Etxtbsy
    );
    // The original writer finishes normally.
    c.close(writer, wfd).unwrap();
    c.settle();
    let fd2 = c.open(intruder, "/locked", OpenMode::Write).unwrap();
    c.close(intruder, fd2).unwrap();
}

#[test]
fn overlapped_reconfiguration_never_creates_capacity() {
    // The partitions, the merges and the per-filegroup recovery passes
    // of one reconfiguration overlap in virtual time. They may not do
    // more than the hardware could: a reconfiguration takes at least as
    // long as one Ethernet needs to carry its bytes (1 µs a byte) and as
    // the busiest site's own service inside it.
    let mut b = Cluster::builder().vax_sites(32).filegroup("root", &[0, 16]);
    for k in 0..8u32 {
        b = b.filegroup_mounted(&format!("r{k}"), &[1 + k, 17 + k], &format!("/r{k}"));
    }
    let c = b.build();
    let left: Vec<SiteId> = (0..16).map(s).collect();
    let right: Vec<SiteId> = (16..32).map(s).collect();
    let (pl, pr) = (c.login(s(0), 1).unwrap(), c.login(s(16), 2).unwrap());
    let write_both_sides = |tag: &str| {
        for k in 0..8 {
            c.write_file(pl, &format!("/r{k}/{tag}-l"), tag.as_bytes())
                .unwrap();
            c.write_file(pr, &format!("/r{k}/{tag}-r"), tag.as_bytes())
                .unwrap();
        }
        c.settle();
    };
    let reconfigure_within_capacity = |parts: usize| {
        c.net().reset_stats();
        let t0 = c.net().now();
        let r = c.reconfigure().unwrap();
        let elapsed = (c.net().now() - t0).as_micros();
        let stats = c.net().stats();
        assert_eq!(r.partitions.len(), parts);
        assert!(
            elapsed >= stats.total_bytes(),
            "{elapsed} us carried {} bytes",
            stats.total_bytes()
        );
        assert!(
            elapsed >= stats.max_busy_micros(),
            "{elapsed} us held {} us of service at one site",
            stats.max_busy_micros()
        );
        (stats.total_bytes(), stats.max_busy_micros())
    };
    write_both_sides("before");
    c.partition(&[left, right]);
    let (split_bytes, _) = reconfigure_within_capacity(2);
    assert!(split_bytes > 0);
    write_both_sides("split");
    c.heal();
    // The merge pulls each side's new files across: disk time at the
    // receiving containers, so the service bound is exercised too.
    let (_, heal_busy) = reconfigure_within_capacity(1);
    assert!(heal_busy > 0);
    let p = c.login(s(31), 3).unwrap();
    assert_eq!(c.read_file(p, "/r7/split-l").unwrap(), b"split");
}

//! Edge-case tests for the distributed filesystem: large files through
//! the indirect range, sparse files, mounted filegroups, permission
//! checks, metadata propagation, and error paths.

use locus_fs::ops::{fd, namei};
use locus_fs::{FsCluster, FsClusterBuilder, ProcFsCtx};
use locus_storage::{NDIRECT, PAGE_SIZE};
use locus_types::{Errno, FileType, MachineType, OpenMode, Perms, SiteId};

fn s(i: u32) -> SiteId {
    SiteId(i)
}

fn cluster() -> FsCluster {
    FsClusterBuilder::new()
        .vax_sites(3)
        .filegroup("root", &[0, 1])
        .build()
}

fn ctx(fsc: &FsCluster, site: SiteId) -> ProcFsCtx {
    ProcFsCtx::new(fsc.kernel(site).mount.root().unwrap(), MachineType::Vax)
}

#[test]
fn large_file_spans_indirect_pages_over_the_network() {
    let fsc = cluster();
    let c = ctx(&fsc, s(2));
    let size = (NDIRECT + 6) * PAGE_SIZE + 123;
    let body: Vec<u8> = (0..size).map(|i| (i % 241) as u8).collect();
    // Written from the diskless site: every page crosses the wire.
    let fdn = fd::creat(
        &fsc,
        s(2),
        &c,
        "/big",
        FileType::Untyped,
        Perms::FILE_DEFAULT,
    )
    .unwrap();
    fd::write(&fsc, s(2), fdn, &body).unwrap();
    fd::close(&fsc, s(2), fdn).unwrap();
    fsc.settle();
    // Read back from each site (local at containers, remote at S2).
    for site in [s(0), s(1), s(2)] {
        let c = ctx(&fsc, site);
        let fdn = fd::open(&fsc, site, &c, "/big", OpenMode::Read).unwrap();
        let data = fd::read(&fsc, site, fdn, size + 10).unwrap();
        fd::close(&fsc, site, fdn).unwrap();
        assert_eq!(data.len(), size);
        assert_eq!(data, body, "corruption at {site}");
    }
}

#[test]
fn sparse_write_creates_readable_holes() {
    let fsc = cluster();
    let c = ctx(&fsc, s(0));
    let fdn = fd::creat(
        &fsc,
        s(0),
        &c,
        "/sparse",
        FileType::Untyped,
        Perms::FILE_DEFAULT,
    )
    .unwrap();
    fd::lseek(&fsc, s(0), fdn, (5 * PAGE_SIZE) as u64).unwrap();
    fd::write(&fsc, s(0), fdn, b"tail").unwrap();
    fd::close(&fsc, s(0), fdn).unwrap();
    fsc.settle();
    let c1 = ctx(&fsc, s(1));
    let fdn = fd::open(&fsc, s(1), &c1, "/sparse", OpenMode::Read).unwrap();
    let data = fd::read(&fsc, s(1), fdn, usize::MAX >> 1).unwrap();
    fd::close(&fsc, s(1), fdn).unwrap();
    assert_eq!(data.len(), 5 * PAGE_SIZE + 4);
    assert!(
        data[..5 * PAGE_SIZE].iter().all(|&b| b == 0),
        "holes read as zeros"
    );
    assert_eq!(&data[5 * PAGE_SIZE..], b"tail");
}

#[test]
fn mounted_filegroup_crossing_and_exdev() {
    let fsc = FsClusterBuilder::new()
        .vax_sites(3)
        .filegroup("root", &[0])
        .filegroup_mounted("proj", &[1, 2], "/proj")
        .build();
    let c = ctx(&fsc, s(0));
    // Files under /proj live in filegroup 1, transparently.
    let fdn = fd::creat(
        &fsc,
        s(0),
        &c,
        "/proj/report",
        FileType::Untyped,
        Perms::FILE_DEFAULT,
    )
    .unwrap();
    fd::write(&fsc, s(0), fdn, b"across the mount").unwrap();
    fd::close(&fsc, s(0), fdn).unwrap();
    fsc.settle();
    let g = namei::resolve(&fsc, s(2), &ctx(&fsc, s(2)), "/proj/report").unwrap();
    assert_eq!(g.fg, locus_types::FilegroupId(1));
    // Hard links cannot cross filegroups (classic EXDEV).
    let root_file = fd::creat(
        &fsc,
        s(0),
        &c,
        "/rootfile",
        FileType::Untyped,
        Perms::FILE_DEFAULT,
    )
    .unwrap();
    fd::close(&fsc, s(0), root_file).unwrap();
    assert_eq!(
        namei::link(&fsc, s(0), &c, "/rootfile", "/proj/link").unwrap_err(),
        Errno::Exdev
    );
    // The mounted filegroup replicates independently of the root's.
    let info = namei::stat(&fsc, s(1), &ctx(&fsc, s(1)), "/proj/report").unwrap();
    assert_eq!(info.replicas.len(), 2);
}

#[test]
fn permission_bits_block_traversal() {
    let fsc = cluster();
    let c = ctx(&fsc, s(0));
    namei::create(
        &fsc,
        s(0),
        &c,
        "/locked",
        FileType::Directory,
        Perms::DIR_DEFAULT,
    )
    .unwrap();
    let fdn = fd::creat(
        &fsc,
        s(0),
        &c,
        "/locked/secret",
        FileType::Untyped,
        Perms::FILE_DEFAULT,
    )
    .unwrap();
    fd::close(&fsc, s(0), fdn).unwrap();
    // Remove the search (execute) bit from the directory.
    let dirg = namei::resolve(&fsc, s(0), &c, "/locked").unwrap();
    namei::set_meta(
        &fsc,
        s(0),
        dirg,
        locus_fs::proto::MetaUpdate {
            perms: Some(Perms(0o644)),
            ..Default::default()
        },
    )
    .unwrap();
    fsc.settle();
    assert_eq!(
        namei::resolve(&fsc, s(1), &ctx(&fsc, s(1)), "/locked/secret").unwrap_err(),
        Errno::Eacces
    );
}

#[test]
fn chmod_is_an_inode_only_commit_that_propagates() {
    let fsc = cluster();
    let c = ctx(&fsc, s(0));
    let fdn = fd::creat(&fsc, s(0), &c, "/f", FileType::Untyped, Perms::FILE_DEFAULT).unwrap();
    fd::write(&fsc, s(0), fdn, b"content").unwrap();
    fd::close(&fsc, s(0), fdn).unwrap();
    fsc.settle();
    let gfid = namei::resolve(&fsc, s(0), &c, "/f").unwrap();
    fsc.net().reset_stats();
    namei::set_meta(
        &fsc,
        s(0),
        gfid,
        locus_fs::proto::MetaUpdate {
            perms: Some(Perms(0o600)),
            owner: Some(7),
            ..Default::default()
        },
    )
    .unwrap();
    fsc.settle();
    // Inode-only change: folded in place at the other container, no page
    // pulls needed (§2.3.6's "just inode information" optimization).
    assert_eq!(fsc.net().stats().sends("READ req"), 0, "no data pulled");
    let i1 = fsc.kernel(s(1)).local_info(gfid).unwrap();
    assert_eq!(i1.perms, Perms(0o600));
    assert_eq!(i1.owner, 7);
    assert!(fsc.kernel(s(1)).stores_data(gfid), "data copy retained");
    assert_eq!(
        fsc.kernel(s(0)).local_info(gfid).unwrap().vv,
        i1.vv,
        "vv advanced in lockstep"
    );
}

#[test]
fn readdir_hides_tombstones_and_hidden_internals() {
    let fsc = cluster();
    let c = ctx(&fsc, s(0));
    for name in ["a", "b", "c"] {
        let fdn = fd::creat(
            &fsc,
            s(0),
            &c,
            &format!("/{name}"),
            FileType::Untyped,
            Perms::FILE_DEFAULT,
        )
        .unwrap();
        fd::close(&fsc, s(0), fdn).unwrap();
    }
    namei::unlink(&fsc, s(0), &c, "/b").unwrap();
    let entries = namei::readdir(&fsc, s(1), &ctx(&fsc, s(1)), "/").unwrap();
    let names: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
    assert!(names.contains(&"a") && names.contains(&"c"));
    assert!(!names.contains(&"b"), "tombstone leaked into readdir");
}

#[test]
fn dotdot_walks_back_up() {
    let fsc = cluster();
    let c = ctx(&fsc, s(0));
    namei::create(
        &fsc,
        s(0),
        &c,
        "/d1",
        FileType::Directory,
        Perms::DIR_DEFAULT,
    )
    .unwrap();
    namei::create(
        &fsc,
        s(0),
        &c,
        "/d1/d2",
        FileType::Directory,
        Perms::DIR_DEFAULT,
    )
    .unwrap();
    let fdn = fd::creat(
        &fsc,
        s(0),
        &c,
        "/top",
        FileType::Untyped,
        Perms::FILE_DEFAULT,
    )
    .unwrap();
    fd::close(&fsc, s(0), fdn).unwrap();
    let via_dots = namei::resolve(&fsc, s(0), &c, "/d1/d2/../../top").unwrap();
    let direct = namei::resolve(&fsc, s(0), &c, "/top").unwrap();
    assert_eq!(via_dots, direct);
    // `.` is a no-op component.
    assert_eq!(
        namei::resolve(&fsc, s(0), &c, "/./d1/./d2").unwrap(),
        namei::resolve(&fsc, s(0), &c, "/d1/d2").unwrap()
    );
}

#[test]
fn creat_truncates_existing_files() {
    let fsc = cluster();
    let c = ctx(&fsc, s(0));
    let fdn = fd::creat(&fsc, s(0), &c, "/t", FileType::Untyped, Perms::FILE_DEFAULT).unwrap();
    fd::write(&fsc, s(0), fdn, &vec![1u8; 3 * PAGE_SIZE]).unwrap();
    fd::close(&fsc, s(0), fdn).unwrap();
    let fdn = fd::creat(&fsc, s(0), &c, "/t", FileType::Untyped, Perms::FILE_DEFAULT).unwrap();
    fd::write(&fsc, s(0), fdn, b"short").unwrap();
    fd::close(&fsc, s(0), fdn).unwrap();
    let info = namei::stat(&fsc, s(0), &c, "/t").unwrap();
    assert_eq!(info.size, 5);
}

#[test]
fn write_to_read_only_descriptor_fails() {
    let fsc = cluster();
    let c = ctx(&fsc, s(0));
    let fdn = fd::creat(
        &fsc,
        s(0),
        &c,
        "/ro",
        FileType::Untyped,
        Perms::FILE_DEFAULT,
    )
    .unwrap();
    fd::close(&fsc, s(0), fdn).unwrap();
    let fdn = fd::open(&fsc, s(0), &c, "/ro", OpenMode::Read).unwrap();
    assert_eq!(
        fd::write(&fsc, s(0), fdn, b"nope").unwrap_err(),
        Errno::Ebadf
    );
    fd::close(&fsc, s(0), fdn).unwrap();
}

#[test]
fn double_close_and_bad_fd_are_ebadf() {
    let fsc = cluster();
    let c = ctx(&fsc, s(0));
    let fdn = fd::creat(&fsc, s(0), &c, "/x", FileType::Untyped, Perms::FILE_DEFAULT).unwrap();
    fd::close(&fsc, s(0), fdn).unwrap();
    assert_eq!(fd::close(&fsc, s(0), fdn).unwrap_err(), Errno::Ebadf);
    assert_eq!(fd::read(&fsc, s(0), 999, 1).unwrap_err(), Errno::Ebadf);
}

#[test]
fn unlink_open_file_then_recreate_same_name() {
    let fsc = cluster();
    let c = ctx(&fsc, s(0));
    let fdn = fd::creat(
        &fsc,
        s(0),
        &c,
        "/recycle",
        FileType::Untyped,
        Perms::FILE_DEFAULT,
    )
    .unwrap();
    fd::write(&fsc, s(0), fdn, b"gen1").unwrap();
    fd::close(&fsc, s(0), fdn).unwrap();
    namei::unlink(&fsc, s(0), &c, "/recycle").unwrap();
    fsc.settle();
    let fdn = fd::creat(
        &fsc,
        s(0),
        &c,
        "/recycle",
        FileType::Untyped,
        Perms::FILE_DEFAULT,
    )
    .unwrap();
    fd::write(&fsc, s(0), fdn, b"gen2").unwrap();
    fd::close(&fsc, s(0), fdn).unwrap();
    fsc.settle();
    let g = namei::resolve(&fsc, s(1), &ctx(&fsc, s(1)), "/recycle").unwrap();
    let data = namei::read_file_internal(&fsc, s(1), g).unwrap();
    assert_eq!(data, b"gen2");
}

#[test]
fn inode_numbers_allocate_from_disjoint_pools_under_partition() {
    // §2.3.7: the inode space is partitioned per pack precisely so creates
    // in different partitions can never collide.
    let fsc = cluster();
    fsc.net().partition(&[vec![s(0), s(2)], vec![s(1)]]);
    for site in [s(0), s(2)] {
        fsc.kernel(site)
            .mount
            .get_mut(locus_types::FilegroupId(0))
            .unwrap()
            .css = s(0);
    }
    fsc.kernel(s(1))
        .mount
        .get_mut(locus_types::FilegroupId(0))
        .unwrap()
        .css = s(1);
    let ca = ctx(&fsc, s(0));
    let cb = ctx(&fsc, s(1));
    let mut inos = std::collections::BTreeSet::new();
    for i in 0..10 {
        let ga = namei::create(
            &fsc,
            s(0),
            &ca,
            &format!("/a{i}"),
            FileType::Untyped,
            Perms::FILE_DEFAULT,
        )
        .unwrap();
        let gb = namei::create(
            &fsc,
            s(1),
            &cb,
            &format!("/b{i}"),
            FileType::Untyped,
            Perms::FILE_DEFAULT,
        )
        .unwrap();
        assert!(inos.insert(ga.ino), "collision at {ga}");
        assert!(inos.insert(gb.ino), "collision at {gb}");
    }
}

#[test]
fn stat_matches_across_sites_after_settle() {
    let fsc = cluster();
    let c = ctx(&fsc, s(0));
    let fdn = fd::creat(
        &fsc,
        s(0),
        &c,
        "/st",
        FileType::Untyped,
        Perms::FILE_DEFAULT,
    )
    .unwrap();
    fd::write(&fsc, s(0), fdn, &vec![5u8; 2500]).unwrap();
    fd::close(&fsc, s(0), fdn).unwrap();
    fsc.settle();
    let infos: Vec<_> = [s(0), s(1), s(2)]
        .iter()
        .map(|&site| namei::stat(&fsc, site, &ctx(&fsc, site), "/st").unwrap())
        .collect();
    for i in &infos {
        assert_eq!(i.size, 2500);
        assert_eq!(i.vv, infos[0].vv);
        assert_eq!(i.ftype, FileType::Untyped);
    }
}

#[test]
fn many_opens_same_file_single_us_closes_once_remotely() {
    // §2.3.3: "If this is not the last close of the file at this US, only
    // local state information need be updated."
    let fsc = cluster();
    let c2 = ctx(&fsc, s(2));
    let c0 = ctx(&fsc, s(0));
    let fdn = fd::creat(
        &fsc,
        s(0),
        &c0,
        "/multi",
        FileType::Untyped,
        Perms::FILE_DEFAULT,
    )
    .unwrap();
    fd::write(&fsc, s(0), fdn, b"x").unwrap();
    fd::close(&fsc, s(0), fdn).unwrap();
    fsc.settle();
    let fd1 = fd::open(&fsc, s(2), &c2, "/multi", OpenMode::Read).unwrap();
    let fd2 = fd::open(&fsc, s(2), &c2, "/multi", OpenMode::Read).unwrap();
    fsc.net().reset_stats();
    fd::close(&fsc, s(2), fd1).unwrap();
    assert_eq!(
        fsc.net().stats().sends("CLOSE req"),
        0,
        "first close is local-only"
    );
    fd::close(&fsc, s(2), fd2).unwrap();
    assert_eq!(
        fsc.net().stats().sends("CLOSE req"),
        1,
        "last close goes remote"
    );
}

/// Regression: the §5.6 lock-table rebuild used to enter a member's open
/// at the CSS whether or not its `RECONFIG register` message arrived.
/// The registration now happens in the message's handler, so a lost
/// message registers nothing and is a counted one-way loss.
#[test]
fn lost_reconfig_register_registers_nothing() {
    use locus_fs::ops::cleanup::rebuild_css_state;
    use locus_net::{FaultPlan, FaultSpec};

    let fsc = cluster();
    let c0 = ctx(&fsc, s(0));
    let fdn = fd::creat(
        &fsc,
        s(0),
        &c0,
        "/held",
        FileType::Untyped,
        Perms::FILE_DEFAULT,
    )
    .unwrap();
    fd::write(&fsc, s(0), fdn, b"open across a reconfiguration").unwrap();
    fd::close(&fsc, s(0), fdn).unwrap();
    fsc.settle();
    // Held open at the diskless site; the CSS is site 0.
    let c2 = ctx(&fsc, s(2));
    let held = fd::open(&fsc, s(2), &c2, "/held", OpenMode::Read).unwrap();

    let everyone = [s(0), s(1), s(2)].into_iter().collect();
    fsc.net().reset_stats();
    fsc.net().install_faults(
        FaultPlan::new(1).kind_spec("RECONFIG register", FaultSpec::drop_rate(1.0)),
    );
    assert_eq!(
        rebuild_css_state(&fsc, &everyone),
        0,
        "no message was delivered, so nothing may be registered"
    );
    let st = fsc.net().stats();
    assert_eq!(st.sends("RECONFIG register"), 0);
    assert_eq!(st.one_way_losses("RECONFIG register"), 1);

    fsc.net().clear_faults();
    assert_eq!(
        rebuild_css_state(&fsc, &everyone),
        1,
        "delivered: registered"
    );
    fd::close(&fsc, s(2), held).unwrap();
}

fn read_path(fsc: &FsCluster, site: SiteId, path: &str) -> Vec<u8> {
    let c = ctx(fsc, site);
    let f = fd::open(fsc, site, &c, path, OpenMode::Read).unwrap();
    let data = fd::read(fsc, site, f, 1 << 20).unwrap();
    fd::close(fsc, site, f).unwrap();
    data
}

/// A page write gets a low-level acknowledgement only (§2.3.5), and the
/// commit reply answers the session (§2.3.6): a write into a full pack
/// succeeds, and the close that commits it fails with `ENOSPC`. Every
/// site, the writer included, still reads the old version, and the
/// session's shadow blocks are free again. Site 0 stores a copy and is
/// its own SS; diskless site 2 writes to a remote SS.
#[test]
fn a_write_into_a_full_pack_fails_its_commit_with_a_local_or_remote_ss() {
    for writer in [s(0), s(2)] {
        let fsc = FsClusterBuilder::new()
            .vax_sites(3)
            .filegroup("root", &[0, 1])
            .blocks_per_pack(64)
            .build();
        let c = ctx(&fsc, writer);
        let old = b"the old version".to_vec();
        let f = fd::creat(
            &fsc,
            writer,
            &c,
            "/f",
            FileType::Untyped,
            Perms::FILE_DEFAULT,
        )
        .unwrap();
        fd::write(&fsc, writer, f, &old).unwrap();
        fd::close(&fsc, writer, f).unwrap();
        fsc.settle();

        let f = fd::open(&fsc, writer, &c, "/f", OpenMode::Write).unwrap();
        let (fg, ss) = {
            let k = fsc.kernel(writer);
            let of = k.fd(f).unwrap();
            (of.gfid.fg, of.ss)
        };
        assert_eq!(ss == writer, writer == s(0), "local SS only at site 0");
        let free = || fsc.kernel(ss).pack_of_ref(fg).unwrap().free_blocks();
        let free_before = free();
        let big = vec![9u8; (free_before + 1) * PAGE_SIZE];
        assert_eq!(fd::write(&fsc, writer, f, &big), Ok(big.len()));
        assert_eq!(fd::close(&fsc, writer, f), Err(Errno::Enospc));
        fsc.settle();
        assert_eq!(free(), free_before, "writer {writer}: shadow blocks freed");
        for site in [s(0), s(1), s(2)] {
            assert_eq!(
                read_path(&fsc, site, "/f"),
                old,
                "writer {writer}, reader {site}"
            );
        }
    }
}

/// Delivery is still a one-way's answer: a page write whose message is
/// lost fails the `write` with `ESITEDOWN`, so no commit goes around the
/// missing page.
#[test]
fn a_lost_page_write_fails_the_write() {
    use locus_net::{FaultPlan, FaultSpec};

    let fsc = cluster();
    let c = ctx(&fsc, s(2));
    let old = b"the old version".to_vec();
    let f = fd::creat(&fsc, s(2), &c, "/f", FileType::Untyped, Perms::FILE_DEFAULT).unwrap();
    fd::write(&fsc, s(2), f, &old).unwrap();
    fd::close(&fsc, s(2), f).unwrap();
    fsc.settle();

    let f = fd::open(&fsc, s(2), &c, "/f", OpenMode::Write).unwrap();
    fsc.net()
        .install_faults(FaultPlan::new(1).kind_spec("WRITE page", FaultSpec::drop_rate(1.0)));
    assert_eq!(
        fd::write(&fsc, s(2), f, &[5u8; PAGE_SIZE]),
        Err(Errno::Esitedown)
    );
    assert_eq!(fsc.net().stats().one_way_losses("WRITE page"), 1);
    fsc.net().clear_faults();
    fd::close(&fsc, s(2), f).unwrap();
    fsc.settle();
    for site in [s(0), s(1), s(2)] {
        assert_eq!(read_path(&fsc, site, "/f"), old, "reader {site}");
    }
}

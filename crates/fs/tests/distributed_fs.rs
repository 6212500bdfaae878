//! End-to-end tests of the distributed filesystem: transparency,
//! replication, protocol message counts, and failure behaviour.

use locus_fs::ops::{fd, namei, open};
use locus_fs::{FsCluster, FsClusterBuilder, ProcFsCtx};
use locus_types::{Errno, FileType, MachineType, OpenMode, Perms, SiteId, VvOrder};

fn s(i: u32) -> SiteId {
    SiteId(i)
}

/// Three VAXen, root filegroup replicated on sites 0 and 1; site 2 is
/// diskless.
fn cluster() -> FsCluster {
    FsClusterBuilder::new()
        .vax_sites(3)
        .filegroup("root", &[0, 1])
        .build()
}

fn ctx(fsc: &FsCluster, site: SiteId) -> ProcFsCtx {
    ProcFsCtx::new(fsc.kernel(site).mount.root().unwrap(), MachineType::Vax)
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
fn create_write_read_same_site() {
    let fsc = cluster();
    write_str(&fsc, s(0), "/hello", b"hello world");
    assert_eq!(read_str(&fsc, s(0), "/hello"), b"hello world");
}

#[test]
fn location_transparency_diskless_site() {
    // Site 2 stores nothing; names and access work identically (§2.1).
    let fsc = cluster();
    write_str(&fsc, s(2), "/from-diskless", b"remote create");
    assert_eq!(read_str(&fsc, s(2), "/from-diskless"), b"remote create");
    assert_eq!(read_str(&fsc, s(0), "/from-diskless"), b"remote create");
}

#[test]
fn replication_propagates_in_background() {
    let fsc = cluster();
    write_str(&fsc, s(0), "/f", b"version one");
    fsc.settle();
    // Both containers now store the same version.
    let root = fsc.kernel(s(0)).mount.root().unwrap();
    let gfid = namei::resolve(&fsc, s(0), &ctx(&fsc, s(0)), "/f").unwrap();
    assert_eq!(root.fg, gfid.fg);
    let i0 = fsc.kernel(s(0)).local_info(gfid).unwrap();
    let i1 = fsc.kernel(s(1)).local_info(gfid).unwrap();
    assert_eq!(i0.vv.compare(&i1.vv), VvOrder::Equal);
    assert!(fsc.kernel(s(1)).stores_data(gfid));
    // And the copy is readable even if the original site vanishes (the
    // reconfiguration protocol - a later crate - would reassign the CSS;
    // emulate that here).
    fsc.net().crash(s(0));
    for site in [s(1), s(2)] {
        fsc.kernel(site)
            .mount
            .get_mut(locus_types::FilegroupId(0))
            .unwrap()
            .css = s(1);
    }
    assert_eq!(read_str(&fsc, s(1), "/f"), b"version one");
}

#[test]
fn staleness_window_exists_before_settle() {
    let fsc = cluster();
    write_str(&fsc, s(0), "/g", b"data");
    // Before settle, site 1's container may not yet store the new file's
    // pages: the paper's explicit propagation delay (§2.2.2).
    let has_work = fsc.has_pending_background_work();
    fsc.settle();
    assert!(has_work, "commit must schedule background propagation");
    assert!(!fsc.has_pending_background_work());
}

#[test]
fn update_prefers_latest_copy_after_propagation() {
    let fsc = cluster();
    write_str(&fsc, s(0), "/v", b"one");
    fsc.settle();
    write_str(&fsc, s(1), "/v", b"two");
    fsc.settle();
    assert_eq!(read_str(&fsc, s(0), "/v"), b"two");
    assert_eq!(read_str(&fsc, s(2), "/v"), b"two");
}

#[test]
fn open_protocol_message_counts_match_figure_2() {
    // 4 sites: CSS at site 0 (lowest container site), containers at 0,1.
    let fsc = FsClusterBuilder::new()
        .vax_sites(4)
        .filegroup("root", &[0, 1])
        .build();
    write_str(&fsc, s(0), "/probe", b"x");
    fsc.settle();
    let gfid = namei::resolve(&fsc, s(0), &ctx(&fsc, s(0)), "/probe").unwrap();

    // Mark site 1's copy stale so the CSS must poll... actually first the
    // general case: US=3 (diskless), CSS=0, SS candidate polled = 1 after
    // excluding US and CSS... the CSS itself stores the latest version, so
    // optimization 2 fires: US->CSS, CSS->US = 2 messages.
    fsc.net().reset_stats();
    let t = open::open_gfid(&fsc, s(3), gfid, OpenMode::Read).unwrap();
    let st = fsc.net().stats();
    assert_eq!(st.sends("OPEN req"), 1);
    assert_eq!(st.sends("OPEN resp"), 1);
    assert_eq!(st.sends("SS poll"), 0, "CSS picks itself without messages");
    assert_eq!(t.ss, s(0));
    open::close_ticket(&fsc, s(3), &t).unwrap();

    // US stores the latest copy: optimization 1, two messages, SS = US.
    fsc.net().reset_stats();
    let t = open::open_gfid(&fsc, s(1), gfid, OpenMode::Read).unwrap();
    let st = fsc.net().stats();
    assert_eq!(t.ss, s(1), "US selected as its own SS");
    assert_eq!(st.sends("OPEN req"), 1);
    assert_eq!(st.sends("SS poll"), 0);
    open::close_ticket(&fsc, s(1), &t).unwrap();

    // All three roles on one site: zero messages.
    fsc.net().reset_stats();
    let t = open::open_gfid(&fsc, s(0), gfid, OpenMode::Read).unwrap();
    assert_eq!(fsc.net().stats().total_sends(), 0);
    open::close_ticket(&fsc, s(0), &t).unwrap();
}

#[test]
fn general_open_is_four_messages() {
    // Force the general case: CSS must poll a third site. Containers at
    // 1 and 2; CSS is site 1; make site 1's copy stale so it polls site 2.
    let fsc = FsClusterBuilder::new()
        .vax_sites(4)
        .filegroup("root", &[1, 2])
        .build();
    write_str(&fsc, s(1), "/probe", b"v1");
    fsc.settle();
    // Update at site 2 while site 1 is cut off, so site 1 (CSS) holds a
    // stale copy but learns the latest version at reconnect.
    fsc.net().partition(&[vec![s(0), s(2), s(3)], vec![s(1)]]);
    {
        // CSS for the partition of site 2: reconfiguration is a later
        // crate; emulate by retargeting the mount table CSS to site 2.
        for site in [s(0), s(2), s(3)] {
            fsc.kernel(site)
                .mount
                .get_mut(locus_types::FilegroupId(0))
                .unwrap()
                .css = s(2);
        }
    }
    write_str(&fsc, s(2), "/probe", b"v2");
    fsc.settle();
    fsc.net().heal();
    for site in [s(0), s(1), s(2), s(3)] {
        fsc.kernel(site)
            .mount
            .get_mut(locus_types::FilegroupId(0))
            .unwrap()
            .css = s(1);
    }
    // Tell the CSS the latest version (merge recovery would do this).
    let gfid = namei::resolve(&fsc, s(2), &ctx(&fsc, s(2)), "/probe").unwrap();
    let latest = fsc.kernel(s(2)).local_info(gfid).unwrap().vv;
    fsc.kernel(s(1)).note_latest(gfid, &latest);

    // US=0 (diskless): US->CSS(1), CSS->SS poll(2), SS->CSS, CSS->US = 4.
    fsc.net().reset_stats();
    let t = open::open_gfid(&fsc, s(0), gfid, OpenMode::Read).unwrap();
    let st = fsc.net().stats();
    assert_eq!(t.ss, s(2), "only site 2 stores the latest version");
    assert_eq!(st.sends("OPEN req"), 1);
    assert_eq!(st.sends("SS poll"), 1);
    assert_eq!(st.sends("SS poll resp"), 1);
    assert_eq!(st.sends("OPEN resp"), 1);
    assert_eq!(st.total_sends(), 4, "the Figure 2 general protocol");
    open::close_ticket(&fsc, s(0), &t).unwrap();
}

#[test]
fn read_page_is_two_messages_write_is_one() {
    let fsc = cluster();
    write_str(&fsc, s(0), "/io", b"abc");
    fsc.settle();
    let gfid = namei::resolve(&fsc, s(2), &ctx(&fsc, s(2)), "/io").unwrap();

    // Remote read from diskless site 2 (SS = CSS = 0).
    let t = open::open_gfid(&fsc, s(2), gfid, OpenMode::Read).unwrap();
    fsc.net().reset_stats();
    let page = locus_fs::ops::io::get_page(&fsc, s(2), gfid, t.ss, 0, 1).unwrap();
    assert_eq!(&page[..3], b"abc");
    let st = fsc.net().stats();
    assert_eq!(st.sends("READ req"), 1);
    assert_eq!(st.sends("READ resp"), 1);
    assert_eq!(st.total_sends(), 2, "US -> SS request; SS -> US response");
    open::close_ticket(&fsc, s(2), &t).unwrap();

    // Remote whole-page write: one message, no reply (§2.3.5).
    let c2 = ctx(&fsc, s(2));
    let fdn = fd::open(&fsc, s(2), &c2, "/io", OpenMode::Write).unwrap();
    fsc.net().reset_stats();
    fd::write(&fsc, s(2), fdn, &[7u8; locus_storage::PAGE_SIZE]).unwrap();
    let st = fsc.net().stats();
    assert_eq!(st.sends("WRITE page"), 1);
    assert_eq!(st.sends("WRITE ack"), 0, "only low-level acknowledgement");
    fd::close(&fsc, s(2), fdn).unwrap();
}

#[test]
fn close_protocol_is_four_messages_in_general_case() {
    // US=2 (diskless), SS=1, CSS=0: close must run US->SS, SS->CSS,
    // CSS->SS, SS->US (§2.3.3 fn 2).
    let fsc = FsClusterBuilder::new()
        .vax_sites(3)
        .filegroup("root", &[0, 1])
        .build();
    write_str(&fsc, s(0), "/c", b"x");
    fsc.settle();
    let gfid = namei::resolve(&fsc, s(2), &ctx(&fsc, s(2)), "/c").unwrap();
    // Force SS=1 by making CSS (site 0) data stale-looking: crash 0? No —
    // simplest: cut site 0 off, CSS moves to 1 for the open.
    for site in [s(1), s(2)] {
        fsc.kernel(site)
            .mount
            .get_mut(locus_types::FilegroupId(0))
            .unwrap()
            .css = s(1);
    }
    fsc.net().partition(&[vec![s(1), s(2)], vec![s(0)]]);
    let t = open::open_gfid(&fsc, s(2), gfid, OpenMode::Read).unwrap();
    assert_eq!(t.ss, s(1));
    // Restore the triangle with CSS back at 0 before closing.
    fsc.net().heal();
    for site in [s(0), s(1), s(2)] {
        fsc.kernel(site)
            .mount
            .get_mut(locus_types::FilegroupId(0))
            .unwrap()
            .css = s(0);
    }
    fsc.net().reset_stats();
    open::close_ticket(&fsc, s(2), &t).unwrap();
    let st = fsc.net().stats();
    assert_eq!(st.sends("CLOSE req"), 1);
    assert_eq!(st.sends("SSCLOSE req"), 1);
    assert_eq!(st.sends("SSCLOSE resp"), 1);
    assert_eq!(st.sends("CLOSE resp"), 1);
    assert_eq!(st.total_sends(), 4);
}

#[test]
fn single_writer_policy_is_enforced_across_sites() {
    let fsc = cluster();
    write_str(&fsc, s(0), "/w", b"x");
    fsc.settle();
    let c0 = ctx(&fsc, s(0));
    let c1 = ctx(&fsc, s(1));
    let fd0 = fd::open(&fsc, s(0), &c0, "/w", OpenMode::Write).unwrap();
    let err = fd::open(&fsc, s(1), &c1, "/w", OpenMode::Write).unwrap_err();
    assert_eq!(err, Errno::Etxtbsy);
    // Readers are fine concurrently.
    let fd1 = fd::open(&fsc, s(1), &c1, "/w", OpenMode::Read).unwrap();
    fd::close(&fsc, s(1), fd1).unwrap();
    fd::close(&fsc, s(0), fd0).unwrap();
    // Writer slot released.
    let fd1 = fd::open(&fsc, s(1), &c1, "/w", OpenMode::Write).unwrap();
    fd::close(&fsc, s(1), fd1).unwrap();
}

#[test]
fn commit_then_abort_semantics() {
    let fsc = cluster();
    write_str(&fsc, s(0), "/t", b"committed");
    let c = ctx(&fsc, s(0));
    let fdn = fd::open(&fsc, s(0), &c, "/t", OpenMode::Write).unwrap();
    fd::write(&fsc, s(0), fdn, b"replaced!").unwrap();
    fd::abort_fd(&fsc, s(0), fdn).unwrap();
    fd::close(&fsc, s(0), fdn).unwrap();
    assert_eq!(read_str(&fsc, s(0), "/t"), b"committed");

    let fdn = fd::open(&fsc, s(0), &c, "/t", OpenMode::Write).unwrap();
    fd::write(&fsc, s(0), fdn, b"newdata!!").unwrap();
    fd::commit_fd(&fsc, s(0), fdn).unwrap();
    fd::close(&fsc, s(0), fdn).unwrap();
    assert_eq!(read_str(&fsc, s(0), "/t"), b"newdata!!");
}

#[test]
fn unlink_propagates_and_releases_pages() {
    let fsc = cluster();
    write_str(&fsc, s(0), "/dead", b"doomed data");
    fsc.settle();
    let c1 = ctx(&fsc, s(1));
    namei::unlink(&fsc, s(1), &c1, "/dead").unwrap();
    fsc.settle();
    for site in [s(0), s(1), s(2)] {
        let c = ctx(&fsc, site);
        assert_eq!(
            namei::resolve(&fsc, site, &c, "/dead").unwrap_err(),
            Errno::Enoent
        );
    }
}

#[test]
fn directories_nest_and_list() {
    let fsc = cluster();
    let c = ctx(&fsc, s(0));
    namei::create(
        &fsc,
        s(0),
        &c,
        "/usr",
        FileType::Directory,
        Perms::DIR_DEFAULT,
    )
    .unwrap();
    namei::create(
        &fsc,
        s(0),
        &c,
        "/usr/walker",
        FileType::Directory,
        Perms::DIR_DEFAULT,
    )
    .unwrap();
    write_str(&fsc, s(1), "/usr/walker/thesis", b"transparency");
    let entries = namei::readdir(&fsc, s(2), &ctx(&fsc, s(2)), "/usr/walker").unwrap();
    let names: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
    assert!(names.contains(&"thesis"));
    assert_eq!(read_str(&fsc, s(2), "/usr/walker/thesis"), b"transparency");
    // rmdir refuses non-empty directories.
    assert_eq!(
        namei::unlink(&fsc, s(0), &c, "/usr/walker").unwrap_err(),
        Errno::Enotempty
    );
}

#[test]
fn hard_links_share_the_inode() {
    let fsc = cluster();
    write_str(&fsc, s(0), "/a", b"shared");
    let c = ctx(&fsc, s(0));
    namei::link(&fsc, s(0), &c, "/a", "/b").unwrap();
    assert_eq!(read_str(&fsc, s(1), "/b"), b"shared");
    let ga = namei::resolve(&fsc, s(0), &c, "/a").unwrap();
    let gb = namei::resolve(&fsc, s(0), &c, "/b").unwrap();
    assert_eq!(ga, gb);
    // Unlinking one name keeps the file alive through the other.
    namei::unlink(&fsc, s(0), &c, "/a").unwrap();
    assert_eq!(read_str(&fsc, s(1), "/b"), b"shared");
    namei::unlink(&fsc, s(0), &c, "/b").unwrap();
    assert_eq!(
        namei::resolve(&fsc, s(0), &c, "/b").unwrap_err(),
        Errno::Enoent
    );
}

#[test]
fn rename_across_directories_same_filegroup() {
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
        "/d2",
        FileType::Directory,
        Perms::DIR_DEFAULT,
    )
    .unwrap();
    write_str(&fsc, s(0), "/d1/f", b"moving");
    namei::rename(&fsc, s(0), &c, "/d1/f", "/d2/g").unwrap();
    assert_eq!(read_str(&fsc, s(1), "/d2/g"), b"moving");
    assert_eq!(
        namei::resolve(&fsc, s(0), &c, "/d1/f").unwrap_err(),
        Errno::Enoent
    );
}

#[test]
fn hidden_directories_select_by_machine_type() {
    // §2.4.1: /bin/who is a hidden directory with entries `vax` and `45`.
    let fsc = FsClusterBuilder::new()
        .site(MachineType::Vax)
        .site(MachineType::Pdp11)
        .filegroup("root", &[0, 1])
        .build();
    let c0 = ctx(&fsc, s(0));
    namei::create(
        &fsc,
        s(0),
        &c0,
        "/bin",
        FileType::Directory,
        Perms::DIR_DEFAULT,
    )
    .unwrap();
    namei::create(
        &fsc,
        s(0),
        &c0,
        "/bin/who",
        FileType::HiddenDirectory,
        Perms::DIR_DEFAULT,
    )
    .unwrap();
    write_str(&fsc, s(0), "/bin/who@/vax", b"VAX LOAD MODULE");
    write_str(&fsc, s(0), "/bin/who@/45", b"PDP-11 LOAD MODULE");
    fsc.settle();

    let vax_ctx = ProcFsCtx::new(fsc.kernel(s(0)).mount.root().unwrap(), MachineType::Vax);
    let pdp_ctx = ProcFsCtx::new(fsc.kernel(s(1)).mount.root().unwrap(), MachineType::Pdp11);
    let fd0 = fd::open(&fsc, s(0), &vax_ctx, "/bin/who", OpenMode::Read).unwrap();
    assert_eq!(fd::read(&fsc, s(0), fd0, 64).unwrap(), b"VAX LOAD MODULE");
    fd::close(&fsc, s(0), fd0).unwrap();
    let fd1 = fd::open(&fsc, s(1), &pdp_ctx, "/bin/who", OpenMode::Read).unwrap();
    assert_eq!(
        fd::read(&fsc, s(1), fd1, 64).unwrap(),
        b"PDP-11 LOAD MODULE"
    );
    fd::close(&fsc, s(1), fd1).unwrap();

    // The escape mechanism exposes the hidden directory itself.
    let entries = namei::readdir(&fsc, s(0), &vax_ctx, "/bin/who@").unwrap();
    let names: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
    assert!(names.contains(&"vax") && names.contains(&"45"));

    // A rename into another directory moves the hidden directory's own
    // record, type included, so each context still selects its module
    // under the new name.
    namei::create(
        &fsc,
        s(0),
        &c0,
        "/usr",
        FileType::Directory,
        Perms::DIR_DEFAULT,
    )
    .unwrap();
    namei::rename(&fsc, s(0), &c0, "/bin/who", "/usr/who").unwrap();
    fsc.settle();
    for (site, c, module) in [
        (s(0), &vax_ctx, &b"VAX LOAD MODULE"[..]),
        (s(1), &pdp_ctx, &b"PDP-11 LOAD MODULE"[..]),
    ] {
        let f = fd::open(&fsc, site, c, "/usr/who", OpenMode::Read).unwrap();
        assert_eq!(fd::read(&fsc, site, f, 64).unwrap(), module);
        fd::close(&fsc, site, f).unwrap();
    }
    assert_eq!(
        namei::resolve(&fsc, s(0), &vax_ctx, "/bin/who").unwrap_err(),
        Errno::Enoent
    );
}

#[test]
fn named_pipes_work_across_sites() {
    let fsc = cluster();
    let c0 = ctx(&fsc, s(0));
    namei::create(
        &fsc,
        s(0),
        &c0,
        "/fifo",
        FileType::Pipe,
        Perms::FILE_DEFAULT,
    )
    .unwrap();
    fsc.settle();
    let c2 = ctx(&fsc, s(2));
    let wfd = fd::open(&fsc, s(0), &c0, "/fifo", OpenMode::Write).unwrap();
    let rfd = fd::open(&fsc, s(2), &c2, "/fifo", OpenMode::Read).unwrap();
    fd::write(&fsc, s(0), wfd, b"through the pipe").unwrap();
    assert_eq!(fd::read(&fsc, s(2), rfd, 64).unwrap(), b"through the pipe");
    // Empty pipe with a writer attached: would-block.
    assert_eq!(fd::read(&fsc, s(2), rfd, 64).unwrap_err(), Errno::Eagain);
    fd::close(&fsc, s(0), wfd).unwrap();
    // Writer gone: EOF.
    assert_eq!(fd::read(&fsc, s(2), rfd, 64).unwrap(), b"");
    fd::close(&fsc, s(2), rfd).unwrap();
}

#[test]
fn shared_fd_offset_token_moves_between_sites() {
    let fsc = cluster();
    write_str(&fsc, s(0), "/tok", b"0123456789");
    fsc.settle();
    let c0 = ctx(&fsc, s(0));
    let fd0 = fd::open(&fsc, s(0), &c0, "/tok", OpenMode::Read).unwrap();
    fd::share_fd(&fsc, s(0), fd0).unwrap();
    let fd1 = fd::clone_fd_to(&fsc, s(0), fd0, s(1)).unwrap();

    // Interleaved reads see a single shared offset (§3.2).
    assert_eq!(fd::read(&fsc, s(0), fd0, 3).unwrap(), b"012");
    assert_eq!(fd::read(&fsc, s(1), fd1, 3).unwrap(), b"345");
    assert_eq!(fd::read(&fsc, s(0), fd0, 3).unwrap(), b"678");
    assert_eq!(fd::read(&fsc, s(1), fd1, 3).unwrap(), b"9");
    fd::close(&fsc, s(1), fd1).unwrap();
    fd::close(&fsc, s(0), fd0).unwrap();
}

#[test]
fn token_transfer_costs_messages_only_on_flips() {
    let fsc = cluster();
    write_str(&fsc, s(0), "/tok2", &vec![9u8; 4096]);
    fsc.settle();
    let c0 = ctx(&fsc, s(0));
    let fd0 = fd::open(&fsc, s(0), &c0, "/tok2", OpenMode::Read).unwrap();
    fd::share_fd(&fsc, s(0), fd0).unwrap();
    let fd1 = fd::clone_fd_to(&fsc, s(0), fd0, s(1)).unwrap();

    // First access from site 1 acquires the token.
    fsc.net().reset_stats();
    fd::read(&fsc, s(1), fd1, 8).unwrap();
    let acquire_msgs = fsc.net().stats().sends("TOKEN acquire");
    assert_eq!(acquire_msgs, 1);
    // Repeated access from the same site is token-free.
    fsc.net().reset_stats();
    fd::read(&fsc, s(1), fd1, 8).unwrap();
    assert_eq!(fsc.net().stats().sends("TOKEN acquire"), 0);
    fd::close(&fsc, s(1), fd1).unwrap();
    fd::close(&fsc, s(0), fd0).unwrap();
}

#[test]
fn remote_device_access_is_transparent() {
    let fsc = cluster();
    let c0 = ctx(&fsc, s(0));
    let dev = namei::create(
        &fsc,
        s(0),
        &c0,
        "/console",
        FileType::Device,
        Perms::FILE_DEFAULT,
    )
    .unwrap();
    fsc.kernel(s(0)).register_device(
        dev,
        locus_fs::device::DeviceState::new(locus_fs::device::DeviceKind::Console),
    );
    fsc.settle();
    // Site 2 writes to site 0's console.
    let c2 = ctx(&fsc, s(2));
    let fdn = fd::open(&fsc, s(2), &c2, "/console", OpenMode::Write).unwrap();
    fd::write(&fsc, s(2), fdn, b"remote hello").unwrap();
    fd::close(&fsc, s(2), fdn).unwrap();
    let mut k0 = fsc.kernel(s(0));
    let out = k0.device_mut(dev).unwrap().output().to_vec();
    assert_eq!(out, b"remote hello");
}

#[test]
fn mail_delivery_lands_in_owner_mailbox() {
    let fsc = cluster();
    let c = ctx(&fsc, s(0));
    namei::create(
        &fsc,
        s(0),
        &c,
        "/mail",
        FileType::Directory,
        Perms::DIR_DEFAULT,
    )
    .unwrap();
    namei::deliver_mail(&fsc, s(0), 42, "file conflict on /tmp/x").unwrap();
    namei::deliver_mail(&fsc, s(1), 42, "second notice").unwrap();
    let raw = read_str(&fsc, s(2), "/mail/u42");
    let mb = locus_fs::mailbox::Mailbox::parse(&raw).unwrap();
    let bodies: Vec<&str> = mb.live().map(|m| m.body.as_str()).collect();
    assert_eq!(bodies.len(), 2);
    assert!(bodies.contains(&"file conflict on /tmp/x"));
}

#[test]
fn reading_survives_ss_loss_when_another_copy_exists() {
    // §5.2: "If it is possible, without loss of information, to substitute
    // a different copy of a file for one lost because of partition, the
    // system will do so." Our fs layer surfaces the error; reopen works.
    let fsc = cluster();
    write_str(&fsc, s(0), "/ha", b"highly available");
    fsc.settle();
    let gfid = namei::resolve(&fsc, s(2), &ctx(&fsc, s(2)), "/ha").unwrap();
    let t = open::open_gfid(&fsc, s(2), gfid, OpenMode::Read).unwrap();
    assert_eq!(t.ss, s(0));
    fsc.net().crash(s(0));
    // CSS was site 0 too; move it (the reconfiguration protocol's job).
    for site in [s(1), s(2)] {
        fsc.kernel(site)
            .mount
            .get_mut(locus_types::FilegroupId(0))
            .unwrap()
            .css = s(1);
    }
    assert_eq!(
        locus_fs::ops::io::get_page(&fsc, s(2), gfid, t.ss, 0, 1).unwrap_err(),
        Errno::Esitedown
    );
    // Transparent substitution: reopen finds the other copy.
    let t2 = open::open_gfid(&fsc, s(2), gfid, OpenMode::Read).unwrap();
    assert_eq!(t2.ss, s(1));
    let page = locus_fs::ops::io::get_page(&fsc, s(2), gfid, t2.ss, 0, 1).unwrap();
    assert_eq!(&page[..16], b"highly available");
    open::close_ticket(&fsc, s(2), &t2).unwrap();
}

#[test]
fn no_reachable_latest_copy_is_enocopy() {
    let fsc = cluster();
    write_str(&fsc, s(0), "/only", b"x");
    // Do NOT settle: site 1 has no data copy yet. Crash site 0.
    let gfid = namei::resolve(&fsc, s(0), &ctx(&fsc, s(0)), "/only").unwrap();
    fsc.net().crash(s(0));
    for site in [s(1), s(2)] {
        fsc.kernel(site)
            .mount
            .get_mut(locus_types::FilegroupId(0))
            .unwrap()
            .css = s(1);
    }
    let err = open::open_gfid(&fsc, s(2), gfid, OpenMode::Read).unwrap_err();
    assert!(matches!(err, Errno::Enocopy | Errno::Enoent), "got {err}");
}

#[test]
fn concurrent_read_during_write_sees_committed_data_until_commit() {
    let fsc = cluster();
    write_str(&fsc, s(0), "/rw", b"old");
    fsc.settle();
    let c0 = ctx(&fsc, s(0));
    let c1 = ctx(&fsc, s(1));
    let wfd = fd::open(&fsc, s(0), &c0, "/rw", OpenMode::Write).unwrap();
    fd::write(&fsc, s(0), wfd, b"new").unwrap();
    // Reader at another site opens while modification is ongoing: it is
    // served the latest *committed* version.
    let rfd = fd::open(&fsc, s(1), &c1, "/rw", OpenMode::Read).unwrap();
    let seen = fd::read(&fsc, s(1), rfd, 16).unwrap();
    assert_eq!(seen, b"old");
    fd::close(&fsc, s(1), rfd).unwrap();
    fd::close(&fsc, s(0), wfd).unwrap(); // commits
    fsc.settle();
    assert_eq!(read_str(&fsc, s(1), "/rw"), b"new");
}

#[test]
fn no_state_leaks_after_workload() {
    let fsc = cluster();
    for i in 0..10 {
        write_str(&fsc, s(i % 3), &format!("/leak{i}"), b"data");
    }
    for i in 0..10 {
        let _ = read_str(&fsc, s((i + 1) % 3), &format!("/leak{i}"));
    }
    fsc.settle();
    for site in [s(0), s(1), s(2)] {
        let k = fsc.kernel(site);
        assert_eq!(k.open_fd_count(), 0, "fd leak at {site}");
        assert_eq!(k.incore_count(), 0, "incore leak at {site}");
        assert_eq!(k.prop_queue_len(), 0);
    }
}

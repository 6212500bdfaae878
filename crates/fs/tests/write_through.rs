//! The write-through buffer cache and the two defects fixed with it:
//! a site never re-reads from disk or wire a page it just held in a
//! buffer, every handler pays for its own disk time, and two commits
//! before one settle reach the replicas whole.

use locus_fs::directory::Directory;
use locus_fs::ops::{fd, namei};
use locus_fs::{FsCluster, FsClusterBuilder, ProcFsCtx};
use locus_net::{ObsEvent, SendOutcome};
use locus_storage::PAGE_SIZE;
use locus_types::{FileType, Gfid, MachineType, OpenMode, Perms, SiteId, Ticks};

const CONTAINERS: [SiteId; 3] = [SiteId(0), SiteId(1), SiteId(2)];
const DISKLESS: SiteId = SiteId(3);

/// Root filegroup replicated at sites 0–2 (site 0 is the CSS); site 3 is
/// diskless.
fn cluster() -> FsCluster {
    FsClusterBuilder::new()
        .vax_sites(4)
        .filegroup("root", &[0, 1, 2])
        .build()
}

fn ctx(fsc: &FsCluster, site: SiteId) -> ProcFsCtx {
    ProcFsCtx::new(fsc.kernel(site).mount.root().unwrap(), MachineType::Vax)
}

fn write_file(fsc: &FsCluster, site: SiteId, path: &str, body: &[u8]) {
    let c = ctx(fsc, site);
    let f = fd::creat(fsc, site, &c, path, FileType::Untyped, Perms::FILE_DEFAULT).unwrap();
    fd::write(fsc, site, f, body).unwrap();
    fd::close(fsc, site, f).unwrap();
}

fn read_file(fsc: &FsCluster, site: SiteId, path: &str) -> Vec<u8> {
    let c = ctx(fsc, site);
    let f = fd::open(fsc, site, &c, path, OpenMode::Read).unwrap();
    let data = fd::read(fsc, site, f, 1 << 20).unwrap();
    fd::close(fsc, site, f).unwrap();
    data
}

fn body(seed: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| seed.wrapping_add((i / 7) as u8)).collect()
}

/// The bytes a container holds for `gfid`, read straight off its pack.
fn stored(fsc: &FsCluster, site: SiteId, gfid: Gfid) -> Vec<u8> {
    let mut k = fsc.kernel(site);
    let pack = k.pack_of(gfid.fg).expect("container");
    let bytes = pack.read_all(gfid.ino).expect("stored copy");
    pack.take_io_cost();
    bytes
}

fn disk_reads(fsc: &FsCluster, site: SiteId) -> (u64, u64) {
    fsc.kernel(site).cache_stats()
}

/// benchmark/README "What the oracle found" #1, for a file: the second
/// commit's pages were never pulled, so the replica installed the second
/// version vector over the first commit's pages (page 2 all zeros).
#[test]
fn two_commits_before_one_settle_reach_every_replica() {
    let fsc = cluster();
    write_file(&fsc, DISKLESS, "/f", &body(1, 700));
    fsc.settle();
    write_file(&fsc, DISKLESS, "/f", &body(2, 1_212));
    let second = body(3, 2_633);
    write_file(&fsc, DISKLESS, "/f", &second);
    fsc.settle();
    let gfid = namei::resolve(&fsc, DISKLESS, &ctx(&fsc, DISKLESS), "/f").unwrap();
    for site in CONTAINERS {
        assert_eq!(stored(&fsc, site, gfid), second, "{site}'s copy");
        assert_eq!(read_file(&fsc, site, "/f"), second, "read at {site}");
    }
}

/// The same for commits that each change *different* pages of a file the
/// replicas already store: the queued pull must fetch the union.
#[test]
fn two_partial_commits_before_one_settle_pull_the_union_of_their_pages() {
    let fsc = cluster();
    let mut want = body(9, 4 * PAGE_SIZE);
    write_file(&fsc, DISKLESS, "/f", &want);
    fsc.settle();
    let c = ctx(&fsc, DISKLESS);
    for (lpn, seed) in [(1usize, 40u8), (3, 80)] {
        let f = fd::open(&fsc, DISKLESS, &c, "/f", OpenMode::Write).unwrap();
        fd::lseek(&fsc, DISKLESS, f, (lpn * PAGE_SIZE) as u64).unwrap();
        let page = body(seed, PAGE_SIZE);
        fd::write(&fsc, DISKLESS, f, &page).unwrap();
        fd::close(&fsc, DISKLESS, f).unwrap();
        want[lpn * PAGE_SIZE..(lpn + 1) * PAGE_SIZE].copy_from_slice(&page);
    }
    fsc.settle();
    let gfid = namei::resolve(&fsc, DISKLESS, &c, "/f").unwrap();
    for site in CONTAINERS {
        assert_eq!(stored(&fsc, site, gfid), want, "{site}'s copy");
    }
}

/// … and for a directory: two name changes between settles must leave
/// every replica's directory image parseable and equal.
#[test]
fn two_directory_commits_before_one_settle_leave_every_replica_parseable() {
    let fsc = cluster();
    let c = ctx(&fsc, DISKLESS);
    namei::create(
        &fsc,
        DISKLESS,
        &c,
        "/d",
        FileType::Directory,
        Perms::DIR_DEFAULT,
    )
    .unwrap();
    // Enough entries that the directory spans several pages.
    for i in 0..40 {
        let path = format!("/d/a-fairly-long-entry-name-to-fill-pages-{i:03}");
        namei::create(
            &fsc,
            DISKLESS,
            &c,
            &path,
            FileType::Untyped,
            Perms::FILE_DEFAULT,
        )
        .unwrap();
    }
    fsc.settle();
    // Twenty more commits of the directory before the next settle grow it
    // by more than a page: the page the first of them did not yet have is
    // one only the later ones name.
    for i in 0..20 {
        let path = format!("/d/zz-late-and-equally-long-entry-name-{i:03}");
        namei::create(
            &fsc,
            DISKLESS,
            &c,
            &path,
            FileType::Untyped,
            Perms::FILE_DEFAULT,
        )
        .unwrap();
    }
    namei::unlink(
        &fsc,
        DISKLESS,
        &c,
        "/d/a-fairly-long-entry-name-to-fill-pages-000",
    )
    .unwrap();
    fsc.settle();
    let dir = namei::resolve(&fsc, DISKLESS, &c, "/d").unwrap();
    let images: Vec<Vec<u8>> = CONTAINERS.iter().map(|&s| stored(&fsc, s, dir)).collect();
    for (site, image) in CONTAINERS.iter().zip(&images) {
        let parsed = Directory::parse(image).unwrap_or_else(|e| panic!("{site}: {e:?}"));
        assert!(
            parsed
                .lookup("zz-late-and-equally-long-entry-name-019")
                .is_some(),
            "{site} lost a create"
        );
        assert!(
            parsed
                .lookup("a-fairly-long-entry-name-to-fill-pages-000")
                .is_none(),
            "{site} lost the unlink"
        );
        assert_eq!(image, &images[0], "{site}'s image differs from S0's");
    }
    for site in fsc.sites() {
        let names = namei::readdir(&fsc, site, &ctx(&fsc, site), "/d").unwrap();
        // 40 + 20 - 1 entries, plus `.` and `..`.
        assert_eq!(names.len(), 61, "readdir at {site}");
    }
}

/// I/O meter leak: after every system call, and after `settle`, every
/// pack's disk meter reads zero — each handler charged its own I/O to its
/// own site instead of leaving it for whichever handler drains next.
#[test]
fn every_handler_pays_for_its_own_disk_time() {
    let fsc = cluster();
    let meters_are_zero = |after: &str| {
        for site in CONTAINERS {
            let mut k = fsc.kernel(site);
            let fg = k.mount.root().unwrap().fg;
            let left = k.pack_of(fg).unwrap().take_io_cost();
            assert_eq!(left, Ticks::ZERO, "{site}'s pack after {after}");
        }
    };
    let c = ctx(&fsc, DISKLESS);
    write_file(&fsc, DISKLESS, "/f", &body(1, 3 * PAGE_SIZE));
    meters_are_zero("create + write + commit");
    fsc.settle();
    meters_are_zero("the pulls of settle");

    // Write, then abort: the shadow writes were real disk writes.
    let f = fd::open(&fsc, DISKLESS, &c, "/f", OpenMode::Write).unwrap();
    meters_are_zero("open");
    fd::write(&fsc, DISKLESS, f, &body(2, 2 * PAGE_SIZE)).unwrap();
    meters_are_zero("write");
    fd::abort_fd(&fsc, DISKLESS, f).unwrap();
    meters_are_zero("abort");
    fd::lseek(&fsc, DISKLESS, f, 0).unwrap();
    fd::write(&fsc, DISKLESS, f, &body(3, PAGE_SIZE + 10)).unwrap();
    meters_are_zero("write after abort");
    fd::commit_fd(&fsc, DISKLESS, f).unwrap();
    meters_are_zero("commit");
    fd::close(&fsc, DISKLESS, f).unwrap();
    meters_are_zero("close");

    // An inode-only commit folds in at the replicas without a pull, a
    // delete releases their pages: both write inodes there.
    let gfid = namei::resolve(&fsc, DISKLESS, &c, "/f").unwrap();
    namei::set_meta(
        &fsc,
        DISKLESS,
        gfid,
        locus_fs::proto::MetaUpdate {
            perms: Some(Perms(0o600)),
            ..Default::default()
        },
    )
    .unwrap();
    meters_are_zero("chmod");
    fsc.settle();
    meters_are_zero("settle after chmod");
    assert_eq!(read_file(&fsc, SiteId(1), "/f").len(), 3 * PAGE_SIZE);
    meters_are_zero("a replica's local read");
    namei::unlink(&fsc, DISKLESS, &c, "/f").unwrap();
    meters_are_zero("unlink");
    fsc.settle();
    meters_are_zero("settle after unlink");
}

/// Tentpole part 3: on the `Committed` reply the using site keeps the
/// page images it sent, tagged with the committed version, so re-reading
/// the file it just rewrote costs no `READ req` — and an aborted session
/// keeps nothing.
#[test]
fn rereading_a_file_just_rewritten_sends_no_read_request() {
    let fsc = cluster();
    let data = body(5, 3 * PAGE_SIZE + 100);
    write_file(&fsc, DISKLESS, "/f", &data);
    let before = fsc.net().stats().sends("READ req");
    assert_eq!(read_file(&fsc, DISKLESS, "/f"), data);
    assert_eq!(
        fsc.net().stats().sends("READ req"),
        before,
        "the writer re-fetched pages it had just sent"
    );

    // Abort: the next read must fetch the committed pages, not serve the
    // images of the aborted writes.
    let c = ctx(&fsc, DISKLESS);
    let f = fd::open(&fsc, DISKLESS, &c, "/f", OpenMode::Write).unwrap();
    fd::write(&fsc, DISKLESS, f, &body(77, 2 * PAGE_SIZE)).unwrap();
    fd::abort_fd(&fsc, DISKLESS, f).unwrap();
    fd::close(&fsc, DISKLESS, f).unwrap();
    assert_eq!(
        read_file(&fsc, DISKLESS, "/f"),
        data,
        "aborted writes leaked"
    );
}

/// Tentpole parts 1 and 2: the storage site serves the pages it just
/// committed, and a replica the pages it just pulled, from their buffers —
/// no buffer-cache miss, so no disk read.
#[test]
fn committed_and_pulled_pages_are_served_from_the_buffers_that_held_them() {
    let fsc = cluster();
    write_file(&fsc, DISKLESS, "/f", &body(5, 4 * PAGE_SIZE));
    // The pulls read the committed pages at the SS (site 0)…
    let (_, ss_misses) = disk_reads(&fsc, SiteId(0));
    fsc.settle();
    assert_eq!(
        disk_reads(&fsc, SiteId(0)).1,
        ss_misses,
        "the SS re-read pages it had just written"
    );
    // … and each replica then serves what it pulled.
    for site in [SiteId(1), SiteId(2)] {
        let (_, misses) = disk_reads(&fsc, site);
        assert_eq!(read_file(&fsc, site, "/f"), body(5, 4 * PAGE_SIZE));
        assert_eq!(
            disk_reads(&fsc, site).1,
            misses,
            "{site} re-read pages it had just pulled"
        );
    }
}

/// Page writes are delayed writes (§2.3.5): a remote writer waits for the
/// wire, not for the storage site's disk, and the commit (§2.3.6) waits
/// for every page to be on disk before the inode switch. So the commit
/// reply comes no earlier than the first page's arrival plus one disk
/// write per page, while the writes themselves return sooner than that.
#[test]
fn remote_commit_waits_for_the_delayed_page_writes() {
    let disk = Ticks::millis(25);
    for pages in [1usize, 4, 16] {
        let fsc = cluster();
        let c = ctx(&fsc, DISKLESS);
        let f = fd::creat(
            &fsc,
            DISKLESS,
            &c,
            "/f",
            FileType::Untyped,
            Perms::FILE_DEFAULT,
        )
        .unwrap();
        fsc.net().set_observing(true);
        let t0 = fsc.net().now();
        fd::write(&fsc, DISKLESS, f, &body(9, pages * PAGE_SIZE)).unwrap();
        let wrote = fsc.net().now() - t0;
        fd::close(&fsc, DISKLESS, f).unwrap();
        let events = fsc.net().take_obs_events();
        let first_page = events
            .iter()
            .find_map(|e| match e {
                ObsEvent::OneWay {
                    at,
                    kind,
                    from,
                    outcome,
                    ..
                } if kind == "WRITE page"
                    && *from == DISKLESS
                    && *outcome == SendOutcome::Delivered =>
                {
                    Some(*at)
                }
                _ => None,
            })
            .expect("a page crossed the wire");
        let commit_reply = events
            .iter()
            .find_map(|e| match e {
                ObsEvent::Reply { at, kind, to, .. }
                    if kind == "COMMIT resp" && *to == DISKLESS =>
                {
                    Some(*at)
                }
                _ => None,
            })
            .expect("the commit was answered");
        let on_disk = first_page + disk.scaled(pages as u64);
        assert!(
            commit_reply >= on_disk,
            "{pages} pages: commit answered at {commit_reply}, pages on disk at {on_disk}"
        );
        assert!(
            wrote < disk.scaled(pages as u64),
            "{pages} pages: the writer waited {wrote} for the storage site's disk"
        );
        assert_eq!(read_file(&fsc, DISKLESS, "/f"), body(9, pages * PAGE_SIZE));
    }
}

/// `settle` returns with every site's CPU and disk idle, even when the
/// only work left is delayed writes into a session that is still open.
#[test]
fn settle_waits_for_every_site_to_go_idle() {
    let fsc = cluster();
    let c = ctx(&fsc, DISKLESS);
    let f = fd::creat(
        &fsc,
        DISKLESS,
        &c,
        "/f",
        FileType::Untyped,
        Perms::FILE_DEFAULT,
    )
    .unwrap();
    fd::write(&fsc, DISKLESS, f, &body(4, 4 * PAGE_SIZE)).unwrap();
    assert!(!fsc.net().is_idle(), "the storage site is still writing");
    let t0 = fsc.net().now();
    fsc.settle();
    assert!(fsc.net().is_idle());
    assert!(fsc.net().now() > t0, "settle waited for the disk");
    fd::close(&fsc, DISKLESS, f).unwrap();
    fsc.settle();
    assert!(fsc.net().is_idle());
}

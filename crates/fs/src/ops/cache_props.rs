//! Cache transparency: the write-through buffer cache never changes an
//! answer.
//!
//! A diskless site writes a file replicated at three containers through
//! random sequences of whole-page and partial-page writes, truncates,
//! commits, aborts, inode-only commits, deletes and propagation pulls,
//! with reads from every site in between. After every step:
//!
//! * every pack-keyed cache entry, and every page `cached_local_page`
//!   serves at a container, equals `Pack::read_page`;
//! * two containers that store the same version store the same pages;
//! * every network-keyed cache entry at every site equals the page a
//!   container stored for the version the entry is tagged with;
//! * every read returned the reference model's bytes, and an aborted
//!   session left nothing staged, buffered or cached.

use locus_storage::PAGE_SIZE;
use locus_types::{FileType, Gfid, MachineType, OpenMode, Perms, SiteId, Ticks, VersionVector};
use proptest::prelude::*;

use crate::build::FsClusterBuilder;
use crate::cluster::{FsCluster, IoPolicy};
use crate::ops::io::{cached_local_page, net_cache_pack};
use crate::ops::{fd, namei};
use crate::proto::{Fd, MetaUpdate, ProcFsCtx};

/// The diskless writer.
const WRITER: SiteId = SiteId(3);
/// The container sites; site 0 is the CSS.
const CONTAINERS: [SiteId; 3] = [SiteId(0), SiteId(1), SiteId(2)];
/// Pages the file may span (audited one past it).
const MAX_PAGES: usize = 5;

#[derive(Clone, Debug)]
enum Step {
    Write {
        lpn: usize,
        byte: u8,
    },
    PartialWrite {
        lpn: usize,
        off: usize,
        len: usize,
        byte: u8,
    },
    Truncate {
        pages: usize,
    },
    Commit,
    Abort,
    Chmod,
    Delete,
    Settle,
    Read {
        site: u32,
    },
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..MAX_PAGES, any::<u8>()).prop_map(|(lpn, byte)| Step::Write { lpn, byte }),
        (0..MAX_PAGES, any::<u8>()).prop_map(|(lpn, byte)| Step::Write { lpn, byte }),
        (0..MAX_PAGES, 0..PAGE_SIZE - 1, 1..PAGE_SIZE, any::<u8>()).prop_map(
            |(lpn, off, len, byte)| Step::PartialWrite {
                lpn,
                off,
                len: len.min(PAGE_SIZE - off),
                byte
            }
        ),
        (0..MAX_PAGES).prop_map(|pages| Step::Truncate { pages }),
        Just(Step::Commit),
        Just(Step::Commit),
        Just(Step::Abort),
        Just(Step::Chmod),
        Just(Step::Delete),
        Just(Step::Settle),
        (0u32..4).prop_map(|site| Step::Read { site }),
        (0u32..4).prop_map(|site| Step::Read { site }),
    ]
}

/// The pages of one stored version, as a container held them.
type PageImages = Vec<Vec<u8>>;

struct Harness {
    fsc: FsCluster,
    gfid: Gfid,
    /// The writer's descriptor while a modification session may be open.
    fd: Option<Fd>,
    /// Reference model: the committed bytes, and the bytes as the writer's
    /// open session sees them.
    committed: Vec<u8>,
    working: Vec<u8>,
    /// What some data-storing container held for each version seen.
    history: Vec<(Gfid, VersionVector, PageImages)>,
    perms_flip: bool,
}

fn ctx(fsc: &FsCluster, site: SiteId) -> ProcFsCtx {
    ProcFsCtx::new(
        fsc.kernel(site).mount.root().expect("root"),
        MachineType::Vax,
    )
}

impl Harness {
    fn new(policy: IoPolicy, leases: bool) -> Self {
        let fsc = FsClusterBuilder::new()
            .vax_sites(4)
            .filegroup("root", &[0, 1, 2])
            .io_policy(policy)
            .name_leases(leases)
            .build();
        let gfid = Self::create(&fsc);
        Harness {
            fsc,
            gfid,
            fd: None,
            committed: Vec::new(),
            working: Vec::new(),
            history: Vec::new(),
            perms_flip: false,
        }
    }

    fn create(fsc: &FsCluster) -> Gfid {
        let c = ctx(fsc, WRITER);
        let gfid = namei::create(
            fsc,
            WRITER,
            &c,
            "/f",
            FileType::Untyped,
            Perms::FILE_DEFAULT,
        )
        .expect("create");
        fsc.settle();
        gfid
    }

    /// The writer's descriptor, opened on first use.
    fn wfd(&mut self) -> Fd {
        if let Some(fd) = self.fd {
            return fd;
        }
        let fd = fd::open_fd_gfid(&self.fsc, WRITER, self.gfid, OpenMode::Write).expect("open rw");
        self.fd = Some(fd);
        fd
    }

    fn write_at(&mut self, pos: usize, bytes: &[u8]) {
        let fd = self.wfd();
        fd::lseek(&self.fsc, WRITER, fd, pos as u64).expect("lseek");
        fd::write(&self.fsc, WRITER, fd, bytes).expect("write");
        if self.working.len() < pos + bytes.len() {
            self.working.resize(pos + bytes.len(), 0);
        }
        self.working[pos..pos + bytes.len()].copy_from_slice(bytes);
    }

    /// Closes the writer's descriptor, which commits what it wrote.
    fn close_writer(&mut self) {
        if let Some(fd) = self.fd.take() {
            fd::close(&self.fsc, WRITER, fd).expect("close");
            self.committed = self.working.clone();
        }
    }

    fn apply(&mut self, step: &Step) -> Result<(), TestCaseError> {
        match *step {
            Step::Write { lpn, byte } => self.write_at(lpn * PAGE_SIZE, &vec![byte; PAGE_SIZE]),
            Step::PartialWrite {
                lpn,
                off,
                len,
                byte,
            } => self.write_at(lpn * PAGE_SIZE + off, &vec![byte; len]),
            Step::Truncate { pages } => {
                let size = pages * PAGE_SIZE;
                if size < self.working.len() {
                    let fd = self.wfd();
                    let t = {
                        let k = self.fsc.kernel(WRITER);
                        let of = k.fd(fd).expect("fd");
                        crate::ops::OpenTicket {
                            gfid: of.gfid,
                            ss: of.ss,
                            write: true,
                            bypass: false,
                            unsync: false,
                            info: of.info.clone(),
                        }
                    };
                    namei::truncate_session_to(&self.fsc, WRITER, &t, size as u64)
                        .expect("truncate");
                    let mut k = self.fsc.kernel(WRITER);
                    let of = k.fd_mut(fd).expect("fd");
                    of.info.size = size as u64;
                    of.wrote = true;
                    self.working.truncate(size);
                }
            }
            Step::Commit => {
                if let Some(fd) = self.fd {
                    fd::commit_fd(&self.fsc, WRITER, fd).expect("commit");
                    self.committed = self.working.clone();
                }
            }
            Step::Abort => {
                if let Some(fd) = self.fd {
                    fd::abort_fd(&self.fsc, WRITER, fd).expect("abort");
                    self.working = self.committed.clone();
                    let k = self.fsc.kernel(WRITER);
                    prop_assert!(!k.staged.contains_key(&self.gfid), "abort left a stage");
                    prop_assert!(
                        !k.write_behind.contains_key(&self.gfid),
                        "abort left write-behind pages"
                    );
                }
            }
            Step::Chmod => {
                // An inode-only commit: no page changes anywhere.
                self.close_writer();
                self.perms_flip = !self.perms_flip;
                let perms = if self.perms_flip {
                    Perms(0o600)
                } else {
                    Perms::FILE_DEFAULT
                };
                namei::set_meta(
                    &self.fsc,
                    WRITER,
                    self.gfid,
                    MetaUpdate {
                        perms: Some(perms),
                        ..Default::default()
                    },
                )
                .expect("chmod");
            }
            Step::Delete => {
                self.close_writer();
                let c = ctx(&self.fsc, WRITER);
                namei::unlink(&self.fsc, WRITER, &c, "/f").expect("unlink");
                self.fsc.settle();
                let dead = self.gfid;
                for site in self.fsc.sites() {
                    let k = self.fsc.kernel(site);
                    // Every container released its pages, the deleting
                    // site dropped its network copies, and what a
                    // third-party reader still holds is vouched for by
                    // no tag.
                    let pack = k.pack_of_ref(dead.fg).map(|p| p.id());
                    let net = (site == WRITER).then(|| net_cache_pack(dead.fg));
                    for pid in pack.into_iter().chain(net) {
                        for lpn in 0..=MAX_PAGES {
                            prop_assert!(
                                k.cache.peek(&(pid, dead.ino, lpn)).is_none(),
                                "{site}: page {lpn} of the deleted file is still cached"
                            );
                        }
                    }
                    prop_assert!(k.name_cache.page_tag(dead).is_none(), "{site}: live tag");
                }
                self.gfid = Self::create(&self.fsc);
                self.committed.clear();
                self.working.clear();
            }
            Step::Settle => self.fsc.settle(),
            Step::Read { site } => {
                let site = SiteId(site);
                let fd =
                    fd::open_fd_gfid(&self.fsc, site, self.gfid, OpenMode::Read).expect("open ro");
                let got = fd::read(&self.fsc, site, fd, (MAX_PAGES + 1) * PAGE_SIZE).expect("read");
                fd::close(&self.fsc, site, fd).expect("close ro");
                // Only the writer sees its own uncommitted session — as far
                // as the committed size the read was opened at reaches.
                let mut want = self.committed.clone();
                if site == WRITER {
                    want = self.working.clone();
                    want.resize(self.committed.len(), 0);
                }
                let diff = got.iter().zip(&want).position(|(g, w)| g != w);
                prop_assert!(
                    got == want,
                    "read at {site} diverged from the model: {} bytes for {}, first difference at {diff:?}",
                    got.len(),
                    want.len()
                );
            }
        }
        Ok(())
    }

    /// The pages some container stored for version `vv` of `gfid`.
    fn stored(&self, gfid: Gfid, vv: &VersionVector) -> Option<&PageImages> {
        self.history
            .iter()
            .find(|(g, v, _)| *g == gfid && v == vv)
            .map(|(_, _, images)| images)
    }

    /// The invariants, checked against the packs themselves.
    fn audit(&mut self) -> Result<(), TestCaseError> {
        let gfid = self.gfid;
        for site in CONTAINERS {
            let mut k = self.fsc.kernel(site);
            let Some(info) = k.local_info(gfid) else {
                continue;
            };
            let pid = k.pack_of(gfid.fg).expect("container").id();
            let mut images = Vec::new();
            for lpn in 0..=MAX_PAGES {
                let pack = k.pack_of(gfid.fg).expect("container");
                let on_disk = pack.read_page(gfid.ino, lpn).expect("pack read");
                pack.take_io_cost();
                if let Some(cached) = k.cache.peek(&(pid, gfid.ino, lpn)) {
                    prop_assert_eq!(
                        cached,
                        on_disk.as_slice(),
                        "{}: cached page {} differs from the pack",
                        site,
                        lpn
                    );
                }
                // A third party's view: the committed page, through the
                // cache (which this fills, so later steps start warm).
                let served = cached_local_page(&mut k, site, gfid, lpn).expect("cached read");
                k.take_io(gfid.fg);
                prop_assert_eq!(&served, &on_disk, "{}: served page {} differs", site, lpn);
                images.push(on_disk);
            }
            if k.stores_data(gfid) {
                match self.stored(gfid, &info.vv) {
                    None => self.history.push((gfid, info.vv, images)),
                    Some(known) => prop_assert_eq!(
                        known,
                        &images,
                        "{}: stores different pages than another container at the same version",
                        site
                    ),
                }
            }
        }
        for site in self.fsc.sites() {
            let k = self.fsc.kernel(site);
            let Some(tag) = k.name_cache.page_tag(gfid) else {
                continue; // unvouched pages die at the next page-valid check
            };
            let net = net_cache_pack(gfid.fg);
            let cached: Vec<(usize, &[u8])> = (0..=MAX_PAGES)
                .filter_map(|lpn| Some((lpn, k.cache.peek(&(net, gfid.ino, lpn))?)))
                .collect();
            if cached.is_empty() {
                continue;
            }
            let Some(images) = self.stored(gfid, tag) else {
                return Err(TestCaseError(format!(
                    "{site}: network pages tagged with a version no container ever stored"
                )));
            };
            for (lpn, page) in cached {
                prop_assert_eq!(
                    page,
                    images[lpn].as_slice(),
                    "{}: network page {} is not the tagged version's page",
                    site,
                    lpn
                );
            }
        }
        for site in CONTAINERS {
            let mut k = self.fsc.kernel(site);
            prop_assert_eq!(
                k.take_io(gfid.fg),
                Ticks::ZERO,
                "{}: disk time left unpaid",
                site
            );
        }
        Ok(())
    }
}

fn run(policy: IoPolicy, leases: bool, steps: &[Step]) -> Result<(), TestCaseError> {
    let mut h = Harness::new(policy, leases);
    h.audit()?;
    for (i, step) in steps.iter().enumerate() {
        h.apply(step)
            .and_then(|()| h.audit())
            .map_err(|e| TestCaseError(format!("step {i} ({step:?}): {}", e.0)))?;
    }
    // Drain everything and read the final state back everywhere.
    h.close_writer();
    h.fsc.settle();
    h.audit()?;
    for site in 0..4 {
        h.apply(&Step::Read { site })?;
    }
    h.audit()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cache_is_transparent_under_the_paper_protocols(
        steps in proptest::collection::vec(arb_step(), 1..28),
    ) {
        run(IoPolicy::paper_faithful(), false, &steps)?;
    }

    #[test]
    fn cache_is_transparent_under_batched_io_and_leases(
        steps in proptest::collection::vec(arb_step(), 1..28),
    ) {
        run(IoPolicy::batched(), true, &steps)?;
    }
}

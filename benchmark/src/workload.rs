//! The four workloads: the cluster each runs on, the files it is seeded
//! with, and the stream of system calls it issues.
//!
//! A workload is a pure function of its seed. It emits [`Step`]s — ops
//! that are timed and counted, and actions (fault injection, periodic
//! maintenance) that are not — and never looks at the program: the
//! program sees only the generated calls. One logged-in user per site
//! issues the calls in a closed loop, the next when the previous returns.

use std::collections::VecDeque;

use crate::sut::{ClusterSpec, FgSpec};

/// SplitMix64: the benchmark's own generator, so a change to the
/// program's `SimRng` cannot change the workloads.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }

    /// Uniform in `[lo, hi]`.
    pub fn between(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below(hi - lo + 1)
    }
}

/// One timed, counted driver-level call sequence.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// `open` + `read` of `len` bytes at `off` + `close`, checked against
    /// the model.
    Read {
        /// Issuing user (index = site).
        user: u32,
        /// Absolute path.
        path: String,
        /// Byte offset, a multiple of the page size.
        off: u64,
        /// Bytes asked for.
        len: usize,
    },
    /// `stat`, checked against the model.
    Stat {
        /// Issuing user.
        user: u32,
        /// Absolute path.
        path: String,
    },
    /// Whole-file overwrite with `len` bytes generated from `tag`,
    /// committed by the close.
    Write {
        /// Issuing user.
        user: u32,
        /// Absolute path.
        path: String,
        /// New length.
        len: u32,
        /// Content tag (see [`crate::model::fill`]).
        tag: u64,
    },
    /// `readdir`, checked against the model.
    Readdir {
        /// Issuing user.
        user: u32,
        /// Directory path.
        path: String,
    },
    /// Create an empty file.
    Create {
        /// Issuing user.
        user: u32,
        /// Absolute path.
        path: String,
    },
    /// Remove a file.
    Unlink {
        /// Issuing user.
        user: u32,
        /// Absolute path.
        path: String,
    },
    /// Pathname resolution alone.
    Resolve {
        /// Issuing user.
        user: u32,
        /// Absolute path.
        path: String,
    },
    /// `fork` to another site; the child exits and is reaped.
    Fork {
        /// Issuing user.
        user: u32,
        /// Site the child runs on.
        to: u32,
    },
    /// The reconfiguration procedure after a topology change.
    Reconfigure {
        /// Partitions that must emerge.
        expect_partitions: u32,
    },
}

impl Op {
    /// Short name of the op kind: the trace's `op.<kind>` span.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Read { .. } => "op.read",
            Op::Stat { .. } => "op.stat",
            Op::Write { .. } => "op.write",
            Op::Readdir { .. } => "op.readdir",
            Op::Create { .. } => "op.create",
            Op::Unlink { .. } => "op.unlink",
            Op::Resolve { .. } => "op.resolve",
            Op::Fork { .. } => "op.fork",
            Op::Reconfigure { .. } => "op.reconfigure",
        }
    }
}

/// Something the driver does between ops that is neither timed as an op
/// nor counted as one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Act {
    /// Drain background propagation.
    Settle,
    /// One step of the CSS placement driver.
    Balance,
    /// Split the network into these groups.
    Split(Vec<Vec<u32>>),
    /// Heal all links.
    Heal,
    /// Crash a site (its user dies with it).
    Crash(u32),
    /// Revive a crashed site.
    Revive(u32),
    /// Log the user of a revived site in again.
    Relogin(u32),
    /// Make a directory (seeding only).
    Mkdir {
        /// Issuing user.
        user: u32,
        /// Absolute path.
        path: String,
    },
}

/// One element of a workload's stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Timed and counted.
    Op(Op),
    /// Neither.
    Act(Act),
}

/// Which of the four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// 64 sites, every layer takes part, none dominates: the control.
    Mixed64,
    /// 512 sites reading home files: the send path and the CSS queue.
    ScaleRead512,
    /// 64 sites writing one replicated, fully leased directory.
    WriteShare64,
    /// 32 sites under partition, crash and merge.
    Reconfig32,
}

/// Page size of the program's storage layer; reads of the big files are
/// page aligned.
const PAGE: u64 = 1024;
/// Pages in each shard's big file (`mixed_64`).
const BIG_PAGES: u64 = 64;
/// Number of shard filegroups (`mixed_64`, `scale_read_512`).
const SHARDS: u32 = 32;
/// Files each user owns in `mixed_64`.
const FILES_PER_USER: u32 = 8;
/// Shard filegroups and files per user in `reconfig_32`.
const R_SHARDS: u32 = 8;
const R_FILES: u32 = 4;
/// User ops between two reconfigurations in `reconfig_32`.
const PHASE_OPS: usize = 20;
/// Cycles of `reconfig_32`, from the start of the stream, in which both
/// sides also create names in the shared directories. They fall inside
/// the warm-up: a removed file stays behind as a tombstone inode that
/// every later recovery pass scans again, so creating names in every
/// cycle makes throughput fall by half within seconds and the window
/// would measure how long it has been running.
const NAMING_CYCLES: u64 = 8;

impl Kind {
    /// All four, in report order.
    pub const ALL: [Kind; 4] = [
        Kind::Mixed64,
        Kind::ScaleRead512,
        Kind::WriteShare64,
        Kind::Reconfig32,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Mixed64 => "mixed_64",
            Kind::ScaleRead512 => "scale_read_512",
            Kind::WriteShare64 => "write_share_64",
            Kind::Reconfig32 => "reconfig_32",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Sites in the cluster.
    pub fn sites(self) -> u32 {
        match self {
            Kind::Mixed64 | Kind::WriteShare64 => 64,
            Kind::ScaleRead512 => 512,
            Kind::Reconfig32 => 32,
        }
    }

    /// Width of the widest replica set: how wide the version vectors the
    /// workload compares and merges are.
    pub fn replicas(self) -> u32 {
        match self {
            Kind::WriteShare64 => 3,
            _ => 2,
        }
    }

    /// Ops of unmeasured warm-up before the window opens (caches fill,
    /// leases are taken, placement settles), charged to `setup_s`.
    pub fn warmup_ops(self) -> u64 {
        match self {
            Kind::Mixed64 => 20_000,
            Kind::ScaleRead512 => 512,
            Kind::WriteShare64 => 4_000,
            Kind::Reconfig32 => 2_100,
        }
    }

    /// Measured ops of the fixed-count pass (`run.sh` without
    /// `--seconds`), sized for a window of roughly 15 s on the 2-core
    /// box the baseline was taken on.
    pub fn full_ops(self) -> u64 {
        match self {
            Kind::Mixed64 => 250_000,
            Kind::ScaleRead512 => 18_432,
            Kind::WriteShare64 => 64_000,
            Kind::Reconfig32 => 63_000,
        }
    }

    /// Two seeded files of one filegroup that `user` may rewrite, as
    /// `(mount point, path below it)`: what the layer probes use for a
    /// two-file transaction and a read batch on the warmed cluster.
    pub fn probe_files(self, user: u32) -> (String, [String; 2]) {
        match self {
            Kind::Mixed64 => (
                format!("/s{}", user % SHARDS),
                [format!("u{user}/f0"), format!("u{user}/f1")],
            ),
            Kind::ScaleRead512 => (
                format!("/s{}", user % SHARDS),
                [format!("h{user}"), format!("h{}", (user + SHARDS) % 512)],
            ),
            Kind::WriteShare64 => (
                "/proj".into(),
                [format!("f{user}"), format!("f{}", (user + 1) % 64)],
            ),
            Kind::Reconfig32 => (
                format!("/r{}", user % R_SHARDS),
                [format!("u{user}/f0"), format!("u{user}/f1")],
            ),
        }
    }

    /// The cluster to build.
    pub fn cluster(self) -> ClusterSpec {
        let shard = |prefix: &str, k: u32, containers: Vec<u32>| FgSpec {
            name: format!("{prefix}{k}"),
            containers,
            mount: Some(format!("/{prefix}{k}")),
        };
        let root = |containers: Vec<u32>| FgSpec {
            name: "root".into(),
            containers,
            mount: None,
        };
        match self {
            // Shard k lives on sites k and k+1 (mod 32): sites 0–31 store,
            // sites 32–63 are diskless. A storage site's user reads its
            // home shard locally, a diskless site's user does everything
            // over the wire, and both synchronize at the shard's CSS.
            Kind::Mixed64 => ClusterSpec {
                sites: 64,
                filegroups: std::iter::once(root(vec![0]))
                    .chain((0..SHARDS).map(|k| shard("s", k, vec![k, (k + 1) % SHARDS])))
                    .collect(),
                placement: true,
                blocks_per_pack: 8192,
                // Every create+unlink leaves a tombstone inode for good;
                // 4 095 numbers per pack is ten times what a window at
                // this commit's speed uses up.
                inos_per_fg: 8192,
            },
            // e13's sharded layout with the roles already spread: shard k
            // synchronizes at site 1+k. The placement driver stays off —
            // at 512 sites one step is 32 migrations of a 511-site
            // broadcast each, seconds of wall time, and the window would
            // measure that instead of the send path.
            Kind::ScaleRead512 => ClusterSpec {
                sites: 512,
                filegroups: std::iter::once(root(vec![0]))
                    .chain((0..SHARDS).map(|k| shard("s", k, vec![1 + k, 33 + k])))
                    .collect(),
                placement: false,
                blocks_per_pack: 2048,
                inos_per_fg: 2048,
            },
            Kind::WriteShare64 => ClusterSpec {
                sites: 64,
                filegroups: vec![root(vec![0, 1, 2])],
                placement: false,
                blocks_per_pack: 8192,
                // As for `mixed_64`: room for the tombstones of the
                // scratch files, all of which land on the first pack.
                inos_per_fg: 65536,
            },
            // Root and every shard keep a container in each half, so both
            // sides of a split stay able to serve every file.
            Kind::Reconfig32 => ClusterSpec {
                sites: 32,
                filegroups: std::iter::once(root(vec![0, 16]))
                    .chain((0..R_SHARDS).map(|k| shard("r", k, vec![1 + k, 17 + k])))
                    .collect(),
                placement: false,
                blocks_per_pack: 8192,
                inos_per_fg: 4096,
            },
        }
    }
}

/// The seeded stream of one workload.
pub struct Generator {
    kind: Kind,
    rng: Rng,
    /// Steps generated but not yet handed out.
    queue: VecDeque<Step>,
    /// Ops handed out so far (drives the periodic maintenance).
    ops: u64,
    /// Next content tag; every write gets a fresh one.
    next_tag: u64,
    /// Whether user i's scratch file exists.
    scratch: Vec<bool>,
    /// `reconfig_32`: cycles completed.
    cycle: u64,
}

impl Generator {
    /// The stream `seed` generates for `kind`.
    pub fn new(kind: Kind, seed: u64) -> Self {
        Generator {
            kind,
            rng: Rng::new(seed ^ (kind as u64) << 56),
            queue: VecDeque::new(),
            ops: 0,
            next_tag: seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1,
            scratch: vec![false; kind.sites() as usize],
            cycle: 0,
        }
    }

    /// Whether steps already generated are still waiting — in
    /// `reconfig_32`, whether a fault cycle is in flight.
    pub fn has_queued(&self) -> bool {
        !self.queue.is_empty()
    }

    fn tag(&mut self) -> u64 {
        self.next_tag = self.next_tag.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.next_tag
    }

    fn write(&mut self, user: u32, path: String, lo: u32, hi: u32) -> Op {
        let len = self.rng.between(lo, hi);
        let tag = self.tag();
        Op::Write {
            user,
            path,
            len,
            tag,
        }
    }

    /// The steps that build the namespace before the warm-up: every one
    /// runs through the same executor and model as the measured ops.
    pub fn seed_steps(&mut self) -> Vec<Step> {
        let mut steps = Vec::new();
        let sites = self.kind.sites();
        match self.kind {
            Kind::Mixed64 => {
                for i in 0..sites {
                    let home = format!("/s{}/u{i}", i % SHARDS);
                    steps.push(Step::Act(Act::Mkdir {
                        user: i,
                        path: home.clone(),
                    }));
                    for j in 0..FILES_PER_USER {
                        let op = self.write(i, format!("{home}/f{j}"), 1024, 6 * 1024);
                        steps.push(Step::Op(op));
                    }
                    steps.push(Step::Act(Act::Mkdir {
                        user: i,
                        path: format!("{home}/d"),
                    }));
                    let op = self.write(i, format!("{home}/d/leaf"), 64, 512);
                    steps.push(Step::Op(op));
                    if i < SHARDS {
                        let big = (BIG_PAGES * PAGE) as u32;
                        let op = self.write(i, format!("/s{i}/big"), big, big);
                        steps.push(Step::Op(op));
                    }
                }
            }
            Kind::ScaleRead512 => {
                // Written by the user of the shard's own storage site: a
                // local create costs a fraction of a remote one, and
                // set-up is repeated three times a run.
                for i in 0..sites {
                    // Six users own a larger home file, of 5 to 10 pages.
                    // Virtual latency is page-granular; without them the
                    // slowest 1 % of the ops would all be 4-page reads
                    // and the tail metric one constant.
                    let (lo, hi) = match i % 85 == 7 {
                        true => ((5 + i / 85) * 1024, (5 + i / 85) * 1024),
                        false => (256, 4096),
                    };
                    let op = self.write(1 + i % SHARDS, home_512(i), lo, hi);
                    steps.push(Step::Op(op));
                }
                steps.push(Step::Act(Act::Settle));
                // Every user's first read is cold (some 70 ms of virtual
                // time against 12 warm); doing it here keeps the count of
                // cold reads in the window at zero instead of a number
                // that depends on the seed.
                for i in 0..sites {
                    steps.push(Step::Op(Op::Read {
                        user: i,
                        path: home_512(i),
                        off: 0,
                        len: 16 * 1024,
                    }));
                }
            }
            Kind::WriteShare64 => {
                steps.push(Step::Act(Act::Mkdir {
                    user: 0,
                    path: "/proj".into(),
                }));
                for i in 0..sites {
                    let op = self.write(i, format!("/proj/f{i}"), 1024, 4096);
                    steps.push(Step::Op(op));
                }
                steps.push(Step::Act(Act::Settle));
                // Every site takes leases on /proj and on each of its
                // files, so a commit recalls from 64 holders.
                for i in 0..sites {
                    for j in 0..sites {
                        steps.push(Step::Op(Op::Stat {
                            user: i,
                            path: format!("/proj/f{j}"),
                        }));
                    }
                }
            }
            Kind::Reconfig32 => {
                for k in 0..R_SHARDS {
                    steps.push(Step::Act(Act::Mkdir {
                        user: k,
                        path: format!("/r{k}/pub"),
                    }));
                }
                for i in 0..sites {
                    let home = format!("/r{}/u{i}", i % R_SHARDS);
                    steps.push(Step::Act(Act::Mkdir {
                        user: i,
                        path: home.clone(),
                    }));
                    for j in 0..R_FILES {
                        let op = self.write(i, format!("{home}/f{j}"), 512, 3 * 1024);
                        steps.push(Step::Op(op));
                    }
                }
            }
        }
        steps.push(Step::Act(Act::Settle));
        steps
    }

    /// The next step of the stream.
    pub fn next_step(&mut self) -> Step {
        if let Some(step) = self.queue.pop_front() {
            return self.count(step);
        }
        match self.kind {
            Kind::Mixed64 => self.fill_mixed(),
            Kind::ScaleRead512 => self.fill_scale(),
            Kind::WriteShare64 => self.fill_write_share(),
            Kind::Reconfig32 => self.fill_reconfig(),
        }
        let step = self.queue.pop_front().expect("every fill queues a step");
        self.count(step)
    }

    fn count(&mut self, step: Step) -> Step {
        if matches!(step, Step::Op(_)) {
            self.ops += 1;
        }
        step
    }

    /// Creates the user's scratch file if it does not exist, else removes
    /// it: the directory churn of `mixed_64` and `write_share_64`. Every
    /// removal leaves a tombstone inode for good (the program never
    /// recycles an inode number), which is why the clusters are built
    /// with inode space to spare.
    fn toggle_scratch(&mut self, user: u32, path: String) -> Op {
        let exists = &mut self.scratch[user as usize];
        *exists = !*exists;
        if *exists {
            Op::Create { user, path }
        } else {
            Op::Unlink { user, path }
        }
    }

    /// Queues `op`, followed by the maintenance due after it. A change to
    /// a directory is always followed by a settle: a second commit to a
    /// file (or directory) whose first has not propagated yet can leave
    /// a replica with a zero page (README, "What the oracle found").
    fn push_with_maintenance(&mut self, op: Op, settle_every: u64, balance_every: u64) {
        let names = matches!(op, Op::Create { .. } | Op::Unlink { .. });
        self.queue.push_back(Step::Op(op));
        let n = self.ops + 1;
        if names || n.is_multiple_of(settle_every) {
            self.queue.push_back(Step::Act(Act::Settle));
        }
        if balance_every != 0 && n.is_multiple_of(balance_every) {
            self.queue.push_back(Step::Act(Act::Balance));
        }
    }

    // ------------------------------------------------------------------
    // mixed_64
    // ------------------------------------------------------------------

    /// A file of `owner`'s, or (one time in ten) its shard's big file.
    fn mixed_target(&mut self, owner: u32) -> (String, u64, usize) {
        if self.rng.below(10) == 0 {
            let page = u64::from(self.rng.below((BIG_PAGES - 4) as u32 + 1));
            (
                format!("/s{}/big", owner % SHARDS),
                page * PAGE,
                4 * PAGE as usize,
            )
        } else {
            let j = self.rng.below(FILES_PER_USER);
            (format!("/s{}/u{owner}/f{j}", owner % SHARDS), 0, 8 * 1024)
        }
    }

    /// The user itself 70 % of the time, else a user of the next shard.
    fn own_or_neighbour(&mut self, user: u32) -> u32 {
        if self.rng.below(100) < 70 {
            user
        } else {
            (user + 1) % 64
        }
    }

    fn fill_mixed(&mut self) {
        let user = (self.ops % 64) as u32;
        let roll = self.rng.below(100);
        let op = match roll {
            0..=54 => {
                let owner = self.own_or_neighbour(user);
                let (path, off, len) = self.mixed_target(owner);
                Op::Read {
                    user,
                    path,
                    off,
                    len,
                }
            }
            55..=69 => {
                let owner = self.own_or_neighbour(user);
                let j = self.rng.below(FILES_PER_USER);
                Op::Stat {
                    user,
                    path: format!("/s{}/u{owner}/f{j}", owner % SHARDS),
                }
            }
            70..=84 => {
                let j = self.rng.below(FILES_PER_USER);
                self.write(
                    user,
                    format!("/s{}/u{user}/f{j}", user % SHARDS),
                    1024,
                    6 * 1024,
                )
            }
            85..=89 => {
                if self.rng.below(2) == 0 {
                    Op::Readdir {
                        user,
                        path: "/".into(),
                    }
                } else {
                    Op::Stat {
                        user,
                        path: "/".into(),
                    }
                }
            }
            90..=94 => self.toggle_scratch(user, format!("/s{}/u{user}/tmp", user % SHARDS)),
            95..=97 => {
                let owner = self.own_or_neighbour(user);
                Op::Resolve {
                    user,
                    path: format!("/s{}/u{owner}/d/leaf", owner % SHARDS),
                }
            }
            _ => Op::Fork {
                user,
                to: (user + 1) % 64,
            },
        };
        // One placement step every 16 rounds. Stepping every round (64
        // ops), as e13 does, gives the policy samples of two requests per
        // shard and turns the control workload into a benchmark of
        // placement churn (README, "What the oracle found").
        self.push_with_maintenance(op, 32, 1024);
    }

    // ------------------------------------------------------------------
    // scale_read_512
    // ------------------------------------------------------------------

    fn fill_scale(&mut self) {
        let user = (self.ops % 512) as u32;
        let op = if self.rng.below(100) < 95 {
            Op::Read {
                user,
                path: home_512(user),
                off: 0,
                len: 16 * 1024,
            }
        } else {
            Op::Stat {
                user,
                path: "/".into(),
            }
        };
        self.push_with_maintenance(op, 512, 0);
    }

    // ------------------------------------------------------------------
    // write_share_64
    // ------------------------------------------------------------------

    fn fill_write_share(&mut self) {
        let user = (self.ops % 64) as u32;
        let roll = self.rng.below(100);
        let op = match roll {
            0..=59 => self.write(user, format!("/proj/f{user}"), 1024, 4096),
            60..=89 => {
                let other = (user + 1 + self.rng.below(63)) % 64;
                let path = format!("/proj/f{other}");
                if self.rng.below(2) == 0 {
                    Op::Stat { user, path }
                } else {
                    Op::Read {
                        user,
                        path,
                        off: 0,
                        len: 8 * 1024,
                    }
                }
            }
            _ => self.toggle_scratch(user, format!("/proj/t{user}")),
        };
        self.push_with_maintenance(op, 32, 0);
    }

    // ------------------------------------------------------------------
    // reconfig_32
    // ------------------------------------------------------------------

    /// Queues one whole cycle: fault → `reconfigure()` → 20 user ops →
    /// repair → `reconfigure()` → 20 user ops that read back what the two
    /// sides wrote. One writer per file, so no file conflict can arise;
    /// in the first [`NAMING_CYCLES`] both sides also create names in the
    /// shared `/r{k}/pub` directories, which the merge must union.
    fn fill_reconfig(&mut self) {
        let crashed = (self.cycle % 4 == 3).then(|| 1 + ((self.cycle / 4) % 31) as u32);
        let naming = self.cycle < NAMING_CYCLES;
        self.cycle += 1;
        let half = |u: u32| u / 16;
        let live = |u: u32| Some(u) != crashed;

        // Detection and isolation.
        match crashed {
            Some(site) => self.queue.push_back(Step::Act(Act::Crash(site))),
            None => self.queue.push_back(Step::Act(Act::Split(vec![
                (0..16).collect(),
                (16..32).collect(),
            ]))),
        }
        self.queue.push_back(Step::Op(Op::Reconfigure {
            expect_partitions: if crashed.is_some() { 1 } else { 2 },
        }));

        // Degraded service: each side works on its own files only — a
        // file the other side is writing has no single latest version
        // until the merge.
        let mut written: Vec<(u32, String)> = Vec::new();
        let mut created: Vec<(u32, String)> = Vec::new();
        let mut queued = 0;
        while queued < PHASE_OPS {
            let user = self.rng.below(32);
            if !live(user) {
                continue;
            }
            let slot = queued % 10;
            let op = match slot {
                0..=3 => {
                    let path =
                        format!("/r{}/u{user}/f{}", user % R_SHARDS, self.rng.below(R_FILES));
                    if written.iter().any(|(_, p)| *p == path) {
                        continue;
                    }
                    written.push((user, path.clone()));
                    self.write(user, path, 512, 3 * 1024)
                }
                4..=6 => {
                    // A file of a live user on the same side.
                    let peer = half(user) * 16 + self.rng.below(16);
                    if !live(peer) {
                        continue;
                    }
                    Op::Read {
                        user,
                        path: format!("/r{}/u{peer}/f{}", peer % R_SHARDS, self.rng.below(R_FILES)),
                        off: 0,
                        len: 4096,
                    }
                }
                7..=8 if naming => {
                    // One new name per directory and phase (see
                    // `push_with_maintenance` for why).
                    let path = format!("/r{}/pub/c{user}", user % R_SHARDS);
                    if created.iter().any(|(u, _)| u % R_SHARDS == user % R_SHARDS) {
                        continue;
                    }
                    created.push((user, path.clone()));
                    Op::Create { user, path }
                }
                _ => Op::Stat {
                    user,
                    path: format!("/r{}/u{user}", user % R_SHARDS),
                },
            };
            self.queue.push_back(Step::Op(op));
            queued += 1;
        }
        self.queue.push_back(Step::Act(Act::Settle));

        // Recovery.
        match crashed {
            Some(site) => self.queue.push_back(Step::Act(Act::Revive(site))),
            None => self.queue.push_back(Step::Act(Act::Heal)),
        }
        self.queue.push_back(Step::Op(Op::Reconfigure {
            expect_partitions: 1,
        }));
        if let Some(site) = crashed {
            self.queue.push_back(Step::Act(Act::Relogin(site)));
        }

        // Read-back from the far side: the 8 written files; then the 4
        // created names (seen, then removed by their creator) or, in a
        // cycle without them, the sizes of the 8 written files; 2 merged
        // listings; and 2 fresh writes under the healed topology.
        let far = |rng: &mut Rng, owner: u32| (1 - half(owner)) * 16 + rng.below(16);
        for (owner, path) in &written {
            let user = far(&mut self.rng, *owner);
            self.queue.push_back(Step::Op(Op::Read {
                user,
                path: path.clone(),
                off: 0,
                len: 4096,
            }));
        }
        for (owner, path) in &created {
            let user = far(&mut self.rng, *owner);
            self.queue.push_back(Step::Op(Op::Stat {
                user,
                path: path.clone(),
            }));
        }
        for (owner, path) in &created {
            self.queue.push_back(Step::Op(Op::Unlink {
                user: *owner,
                path: path.clone(),
            }));
        }
        if !naming {
            for (owner, path) in &written {
                let user = far(&mut self.rng, *owner);
                self.queue.push_back(Step::Op(Op::Stat {
                    user,
                    path: path.clone(),
                }));
            }
        }
        for _ in 0..2 {
            let user = self.rng.below(32);
            self.queue.push_back(Step::Op(Op::Readdir {
                user,
                path: format!("/r{}/pub", self.rng.below(R_SHARDS)),
            }));
        }
        // Two different files: a second overwrite of one file before the
        // first has propagated leaves the far replica with a zero page
        // (see README, "What the oracle found").
        let first = self.rng.below(32);
        for user in [first, (first + 1 + self.rng.below(31)) % 32] {
            let path = format!("/r{}/u{user}/f{}", user % R_SHARDS, self.rng.below(R_FILES));
            let op = self.write(user, path, 512, 3 * 1024);
            self.queue.push_back(Step::Op(op));
        }
        self.queue.push_back(Step::Act(Act::Settle));
    }
}

fn home_512(user: u32) -> String {
    format!("/s{}/h{user}", user % SHARDS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_ranges_hold() {
        let mut r = Rng::new(1);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
            let v = r.between(3, 5);
            assert!((3..=5).contains(&v));
        }
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        for kind in Kind::ALL {
            let take = |seed| {
                let mut g = Generator::new(kind, seed);
                let mut v = g.seed_steps();
                v.extend((0..500).map(|_| g.next_step()));
                v
            };
            assert_eq!(take(1), take(1), "{}", kind.name());
            assert_ne!(take(1), take(2), "{}", kind.name());
        }
    }

    #[test]
    fn reconfig_cycle_is_42_ops() {
        let mut g = Generator::new(Kind::Reconfig32, 3);
        let mut ops = 0;
        let mut reconfigs = 0;
        // 6 cycles, crash cycles included.
        while reconfigs < 12 || !g.queue.is_empty() {
            if let Step::Op(op) = g.next_step() {
                ops += 1;
                if matches!(op, Op::Reconfigure { .. }) {
                    reconfigs += 1;
                }
            }
        }
        assert_eq!(ops, 6 * 42);
    }
}

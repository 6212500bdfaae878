//! The end-to-end driver: sets a workload up, runs its stream through
//! the adapter in a closed loop on one thread, checks every result
//! against the model, and turns what it timed and counted into metrics.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::model::{fill, Model};
use crate::stats::{median_f64, median_sorted, spread, tail_percentile};
use crate::sut::{Counters, ReconfigSummary, Sut, SutResult, User, SERVICES};
use crate::trace::Tracer;
use crate::workload::{Act, Generator, Kind, Op, Step};

/// The measured window is cut into this many slices of equal op count,
/// and each wall-clock metric is the value of its *best* slice. Whatever
/// else runs on the host can only slow a slice down, so the least
/// disturbed one is the closest estimate of what the program costs; on
/// the 2-core box the baseline was taken on, slowdowns lasted for several
/// slices at a time and the median of the slices moved with them (the
/// run-to-run spread of the median was up to twice that of the best).
pub const SLICES: usize = 10;
/// A run whose slices disagree by more than this is marked noisy.
pub const NOISY_SPREAD: f64 = 0.10;
/// The driver's own share of the window above which a run is refused.
pub const MAX_SELF_SHARE: f64 = 0.05;
/// Files the end-of-run sweep reads back (every op in the window was
/// checked already; the sweep looks for damage no op happened to read).
pub const SWEEP_FILES: usize = 128;
/// Ops whose spans the trace file keeps (the aggregates use all of them).
pub const TRACE_FILE_OPS: u64 = 20_000;

/// Per-layer metrics the probe binary supplies; a traced run without
/// every one of them is refused.
pub const PROBE_METRICS: [&str; 13] = [
    "types.vv_compare_ns",
    "types.vv_merge_ns",
    "storage.page_read_ns",
    "storage.shadow_commit_ns",
    "net.send_ns",
    "net.reachable_ns",
    "topology.select_placement_ns",
    "txn.commit.host_us",
    "txn.commit.msgs",
    "txn.commit.sim_us",
    "core.epoch_seq.host_us_per_op",
    "core.epoch_par.host_us_per_op",
    "core.epoch_serial_demotions",
];

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: String,
}

fn metric(name: impl Into<String>, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit: unit.to_string(),
    }
}

/// When the measured window closes.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After this many ops: simulated statistics are then a pure function
    /// of the seed and two commits compare exactly.
    Ops(u64),
    /// After this much wall time.
    Wall(Duration),
}

/// What to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload.
    pub kind: Kind,
    /// Seed of its stream.
    pub seed: u64,
    /// When the window closes.
    pub stop: Stop,
    /// Unmeasured ops before the window opens.
    pub warmup_ops: u64,
    /// How many times to set up (build, seed, warm up); `setup_s` is the
    /// median, the last set-up is the one measured.
    pub setups: u32,
    /// Whether this is the traced run that yields the per-layer metrics.
    pub trace: bool,
    /// Where the traced run writes `trace_<workload>.jsonl`.
    pub out_dir: Option<PathBuf>,
}

/// Everything one run produced.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Ops attempted in the measured window.
    pub attempted: u64,
    /// Ops that returned an error the stream did not expect.
    pub errors: u64,
    /// Results that disagreed with the model (window and final sweep).
    pub oracle_mismatches: u64,
    /// FNV-1a digest of the op stream issued (seed, warm-up and window).
    pub stream_digest: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Diagnostics: printed, never compared.
    pub diagnostics: Vec<Metric>,
    /// Free-form report lines (first failures, span tables).
    pub notes: Vec<String>,
    /// Whether the wall-clock slices disagreed by more than
    /// [`NOISY_SPREAD`].
    pub noisy: bool,
}

impl RunReport {
    /// Ops that failed: returned an error or disagreed with the model.
    pub fn failed(&self) -> u64 {
        self.errors + self.oracle_mismatches
    }

    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.oracle_mismatches == 0
    }

    /// A metric or diagnostic by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.diagnostics)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// How one op ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    Ok,
    Error,
    Mismatch,
}

/// What the window recorded about each op, in issue order.
#[derive(Default)]
struct Window {
    host_ns: Vec<u64>,
    sim_us: Vec<u64>,
    /// Wall time at which each op ended, ns since the window opened.
    end_ns: Vec<u64>,
    /// Wall time inside calls that are not ops (settle, balance, faults).
    act_ns: u64,
    wall_ns: u64,
    errors: u64,
    mismatches: u64,
    commits: u64,
    reconfigs: u64,
    reconf: ReconfigSummary,
}

impl Window {
    fn ops(&self) -> u64 {
        self.host_ns.len() as u64
    }

    /// Slice `i` of [`SLICES`]: `(op range, wall ns)`.
    fn slice(&self, i: usize) -> (std::ops::Range<usize>, u64) {
        let n = self.host_ns.len();
        let (lo, hi) = (n * i / SLICES, n * (i + 1) / SLICES);
        let start = if lo == 0 { 0 } else { self.end_ns[lo - 1] };
        let end = if hi == 0 { 0 } else { self.end_ns[hi - 1] };
        (lo..hi, end - start)
    }
}

/// A workload set up on a cluster, with the model that mirrors it.
pub struct Runner {
    /// The system under test.
    pub sut: Sut,
    model: Model,
    /// One logged-in user per site.
    users: Vec<User>,
    gen: Generator,
    data: Vec<u8>,
    resolved: BTreeMap<String, (u32, u32)>,
    digest: Fnv,
    next_op_id: u64,
    notes: Vec<String>,
}

/// FNV-1a as a [`Hasher`], so the derived `Hash` of an op is the same
/// number on every run (the std hashers are randomly keyed).
struct Fnv(u64);

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Runner {
    /// Builds the cluster, logs one user in per site, seeds the namespace
    /// and runs the unmeasured warm-up.
    pub fn set_up(kind: Kind, seed: u64, warmup_ops: u64) -> Result<Runner, String> {
        let mut sut = Sut::build(&kind.cluster());
        let users = (0..kind.sites())
            .map(|i| sut.login(i, 100 + i))
            .collect::<SutResult<Vec<User>>>()
            .map_err(|e| format!("login failed: {e:?}"))?;
        let mut r = Runner {
            sut,
            model: Model::new(),
            users,
            gen: Generator::new(kind, seed),
            data: Vec::new(),
            resolved: BTreeMap::new(),
            digest: Fnv(0xCBF2_9CE4_8422_2325),
            next_op_id: 1,
            notes: Vec::new(),
        };
        // Mount points exist from the start.
        for fg in kind
            .cluster()
            .filegroups
            .iter()
            .filter_map(|f| f.mount.clone())
        {
            r.model.mkdir(&fg);
        }
        let mut w = Window::default();
        for step in r.gen.seed_steps() {
            r.step(&step, &mut w, None);
        }
        let seeded = w.ops();
        while w.ops() < seeded + warmup_ops {
            let step = r.gen.next_step();
            r.step(&step, &mut w, None);
        }
        if w.errors + w.mismatches > 0 {
            return Err(format!(
                "set-up of {} failed: {} errors, {} mismatches\n{}",
                kind.name(),
                w.errors,
                w.mismatches,
                r.notes.join("\n")
            ));
        }
        Ok(r)
    }

    fn note_failure(&mut self, what: &str, op: &Op, detail: String) {
        if self.notes.len() < 8 {
            self.notes.push(format!("{what}: {op:?} {detail}"));
        }
    }

    /// Runs one step; an op is recorded in `w`. `start` is the window's
    /// opening instant (absent during set-up, where nothing is timed).
    fn step(&mut self, step: &Step, w: &mut Window, start: Option<Instant>) {
        match step {
            Step::Op(op) => {
                op.hash(&mut self.digest);
                let op_id = self.next_op_id;
                self.next_op_id += 1;
                self.sut.begin_op(op.kind(), op_id);
                let (outcome, host_ns, sim_us) = self.exec_op(op, w);
                self.sut.end_op();
                w.host_ns.push(host_ns);
                w.sim_us.push(sim_us);
                w.end_ns
                    .push(start.map_or(0, |s| s.elapsed().as_nanos() as u64));
                match outcome {
                    Outcome::Ok => {}
                    Outcome::Error => w.errors += 1,
                    Outcome::Mismatch => w.mismatches += 1,
                }
            }
            Step::Act(act) => {
                let t0 = Instant::now();
                self.exec_act(act);
                w.act_ns += t0.elapsed().as_nanos() as u64;
            }
        }
    }

    /// Times `f`'s calls into the program on both clocks.
    fn timed<T>(&mut self, f: impl FnOnce(&mut Sut) -> T) -> (T, u64, u64) {
        let sim0 = self.sut.now_us();
        let t0 = Instant::now();
        let out = f(&mut self.sut);
        let host_ns = t0.elapsed().as_nanos() as u64;
        (out, host_ns, self.sut.now_us() - sim0)
    }

    /// Issues one op and checks its result against the model.
    fn exec_op(&mut self, op: &Op, w: &mut Window) -> (Outcome, u64, u64) {
        // Each arm makes the op's calls under `timed`, then turns the
        // result into `Ok(())`, a mismatch (`Ok(Err(detail))`) or the
        // error the program returned.
        let user = |r: &Runner, u: &u32| r.users[*u as usize];
        let (checked, host_ns, sim_us) = match op {
            Op::Read {
                user: u,
                path,
                off,
                len,
            } => {
                let u = user(self, u);
                let (r, host, sim) = self.timed(|s| s.open_read_close(u, path, *off, *len));
                let checked =
                    r.map(
                        |data| match self.model.read_matches(path, *off, *len, &data) {
                            true => Ok(()),
                            false => Err(format!(
                                "got {} bytes, model has {:?}",
                                data.len(),
                                self.model.file_len(path)
                            )),
                        },
                    );
                (checked, host, sim)
            }
            Op::Stat { user: u, path } => {
                let u = user(self, u);
                let (r, host, sim) = self.timed(|s| s.stat(u, path));
                let checked = r.map(|st| {
                    match !st.conflict && self.model.stat_matches(path, st.is_dir, st.size) {
                        true => Ok(()),
                        false => Err(format!("got {st:?}")),
                    }
                });
                (checked, host, sim)
            }
            Op::Write {
                user: u,
                path,
                len,
                tag,
            } => {
                let u = user(self, u);
                let mut data = std::mem::take(&mut self.data);
                fill(&mut data, *tag, *len as usize);
                let (r, host, sim) = self.timed(|s| s.write_file(u, path, &data));
                w.commits += 1;
                if r.is_ok() {
                    self.model.write(path, &data);
                }
                self.data = data;
                (r.map(Ok), host, sim)
            }
            Op::Readdir { user: u, path } => {
                let u = user(self, u);
                let (r, host, sim) = self.timed(|s| s.readdir(u, path));
                let checked = r.map(|names| match self.model.readdir_matches(path, &names) {
                    true => Ok(()),
                    false => Err(format!("got {names:?}")),
                });
                (checked, host, sim)
            }
            Op::Create { user: u, path } => {
                let u = user(self, u);
                let (r, host, sim) = self.timed(|s| s.create(u, path));
                w.commits += 1;
                if r.is_ok() {
                    self.model.write(path, &[]);
                }
                (r.map(Ok), host, sim)
            }
            Op::Unlink { user: u, path } => {
                let u = user(self, u);
                let (r, host, sim) = self.timed(|s| s.unlink(u, path));
                w.commits += 1;
                if r.is_ok() {
                    self.model.unlink(path);
                }
                (r.map(Ok), host, sim)
            }
            Op::Resolve { user: u, path } => {
                let u = user(self, u);
                let (r, host, sim) = self.timed(|s| s.resolve(u, path));
                // Every site must resolve a name to the same file, every
                // time.
                let checked = r.map(|id| {
                    let first = *self.resolved.entry(path.clone()).or_insert(id);
                    match first == id {
                        true => Ok(()),
                        false => Err(format!("got {id:?}, was {first:?}")),
                    }
                });
                (checked, host, sim)
            }
            Op::Fork { user: u, to } => {
                let u = user(self, u);
                let (r, host, sim) = self.timed(|s| s.fork_exit_wait(u, *to));
                (r.map(Ok), host, sim)
            }
            Op::Reconfigure { expect_partitions } => {
                let (r, host, sim) = self.timed(|s| s.reconfigure());
                w.reconfigs += 1;
                let checked = r.map(|sum| {
                    w.reconf.partition_polls += sum.partition_polls;
                    w.reconf.merge_polls += sum.merge_polls;
                    w.reconf.files_reconciled += sum.files_reconciled;
                    w.reconf.conflicts += sum.conflicts;
                    match sum.partitions == *expect_partitions && sum.conflicts == 0 {
                        true => Ok(()),
                        false => Err(format!("got {sum:?}")),
                    }
                });
                (checked, host, sim)
            }
        };
        let outcome = match checked {
            Ok(Ok(())) => Outcome::Ok,
            Ok(Err(detail)) => {
                self.note_failure("mismatch", op, detail);
                Outcome::Mismatch
            }
            Err(e) => {
                self.note_failure("error", op, format!("{e:?}"));
                Outcome::Error
            }
        };
        (outcome, host_ns, sim_us)
    }

    fn exec_act(&mut self, act: &Act) {
        match act {
            Act::Settle => self.sut.settle(),
            Act::Balance => self.sut.balance_css(),
            Act::Split(groups) => self.sut.partition(groups),
            Act::Heal => self.sut.heal(),
            Act::Crash(site) => self.sut.crash(*site),
            Act::Revive(site) => self.sut.revive(*site),
            Act::Relogin(site) => match self.sut.login(*site, 100 + site) {
                Ok(u) => self.users[*site as usize] = u,
                Err(e) => self
                    .notes
                    .push(format!("relogin at site {site} failed: {e:?}")),
            },
            Act::Mkdir { user, path } => {
                let u = self.users[*user as usize];
                match self.sut.mkdir(u, path) {
                    Ok(()) => self.model.mkdir(path),
                    Err(e) => self.notes.push(format!("mkdir {path} failed: {e:?}")),
                }
            }
        }
    }

    /// Runs the stream until `stop`, recording every op.
    fn measure(&mut self, stop: Stop) -> Window {
        let mut w = Window::default();
        let start = Instant::now();
        loop {
            let done = match stop {
                Stop::Ops(n) => w.ops() >= n,
                Stop::Wall(d) => start.elapsed() >= d,
            };
            if done {
                break;
            }
            let step = self.gen.next_step();
            self.step(&step, &mut w, Some(start));
        }
        w.wall_ns = start.elapsed().as_nanos() as u64;
        w
    }

    /// Finishes the cycle in flight (so the network is whole again), then
    /// reads files the model knows — up to [`SWEEP_FILES`] of them, evenly
    /// spaced — from a site that does not own them and compares. Returns
    /// the number of disagreements.
    fn final_sweep(&mut self) -> u64 {
        let mut w = Window::default();
        while self.gen.has_queued() {
            let step = self.gen.next_step();
            self.step(&step, &mut w, None);
        }
        self.sut.settle();
        let n = self.users.len();
        let paths: Vec<String> = self.model.files().map(str::to_string).collect();
        let stride = paths.len().div_ceil(SWEEP_FILES).max(1);
        let mut bad = w.errors + w.mismatches;
        for (i, path) in paths.iter().enumerate().step_by(stride) {
            let u = self.users[(i * 7 + 3) % n];
            // A file left in conflict refuses the open, so the read
            // covers that too.
            let got = self.sut.open_read_close(u, path, 0, 1 << 20);
            let ok = matches!(&got, Ok(data) if self.model.read_matches(path, 0, 1 << 20, data));
            if !ok {
                bad += 1;
                if self.notes.len() < 8 {
                    self.notes.push(format!(
                        "final sweep: {path} read from site {} gave {:?}, model has {:?} bytes",
                        u.site,
                        got.map(|d| d.len()),
                        self.model.file_len(path)
                    ));
                }
            }
        }
        bad
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed integer loop, timed: the host's speed right now, printed
/// beside the results so a slow run can be told from a slow program. No
/// metric is divided by it.
pub fn calibrate_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..40_000_000u64 {
        x = (x ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

fn sorted(v: &[u64]) -> Vec<u64> {
    let mut s = v.to_vec();
    s.sort_unstable();
    s
}

/// Per-slice wall-clock values of the window: ops/s, p50 µs, p99 µs.
fn slice_values(w: &Window) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (mut tput, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..SLICES {
        let (range, wall_ns) = w.slice(i);
        if range.is_empty() || wall_ns == 0 {
            continue;
        }
        tput.push(range.len() as f64 * 1e9 / wall_ns as f64);
        let s = sorted(&w.host_ns[range]);
        p50.push(median_sorted(&s) as f64 / 1e3);
        p99.push(tail_percentile(&s, 0.99).0 as f64 / 1e3);
    }
    (tput, p50, p99)
}

fn max_f64(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

fn min_f64(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs one workload as configured.
pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    let calib_before = calibrate_ms();
    let mut setup_s = Vec::new();
    let mut runner = None;
    for _ in 0..cfg.setups.max(1) {
        // One cluster at a time, so peak memory is one workload's.
        drop(runner.take());
        let t0 = Instant::now();
        runner = Some(Runner::set_up(cfg.kind, cfg.seed, cfg.warmup_ops)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut r = runner.expect("at least one set-up");
    let mut report = RunReport::default();

    if cfg.trace {
        traced_run(cfg, &mut r, &mut report)?;
    } else {
        let before = r.sut.counters();
        let w = r.measure(cfg.stop);
        let after = r.sut.counters();
        end_to_end(&w, &before, &after, &mut report);
        report
            .metrics
            .push(metric("setup_s", median_f64(&setup_s), "s"));
    }

    report.oracle_mismatches += r.final_sweep();
    report.stream_digest = r.digest.finish();
    report.notes.append(&mut r.notes);
    drop(r);
    if !cfg.trace {
        report
            .metrics
            .push(metric("host_peak_rss_mb", peak_rss_mib(), "MiB"));
    }
    report
        .diagnostics
        .push(metric("host_calib_before_ms", calib_before, "ms"));
    report
        .diagnostics
        .push(metric("host_calib_after_ms", calibrate_ms(), "ms"));
    Ok(report)
}

/// Fills in the end-to-end metrics from an untraced window.
fn end_to_end(w: &Window, before: &Counters, after: &Counters, report: &mut RunReport) {
    let ops = w.ops();
    report.attempted = ops;
    report.errors = w.errors;
    report.oracle_mismatches = w.mismatches;
    let sim = sorted(&w.sim_us);
    let (p999, capped) = tail_percentile(&sim, 0.999);
    let busy_max = after
        .busy_us
        .iter()
        .zip(&before.busy_us)
        .map(|(a, b)| a - b)
        .max()
        .unwrap_or(0);
    let (tput, p50, p99) = slice_values(w);
    let m = &mut report.metrics;
    m.push(metric(
        "sim_msgs_per_op",
        ratio(after.sends - before.sends, ops),
        "msgs/op",
    ));
    // Virtual latencies are sums of page-sized message costs: a handful
    // of discrete values, so a percentile either never moves or jumps a
    // whole class at once. The compared metrics are therefore the mean
    // and the mean of the slowest 1 % (on `reconfig_32`, the time without
    // service); the percentiles are printed beside them as diagnostics.
    let worst = &sim[sim.len() - sim.len().div_ceil(100)..];
    m.push(metric(
        "sim_lat_mean_us",
        ratio(sim.iter().sum(), ops),
        "us",
    ));
    m.push(metric(
        "sim_lat_worst1pct_us",
        ratio(worst.iter().sum(), worst.len() as u64),
        "us",
    ));
    m.push(metric(
        "sim_bottleneck_ops_per_s",
        ratio(ops * 1_000_000, busy_max),
        "ops/cpu-s",
    ));
    m.push(metric("host_ops_per_s", max_f64(&tput), "ops/s"));
    m.push(metric("host_op_p50_us", min_f64(&p50), "us"));
    m.push(metric("host_op_p99_us", min_f64(&p99), "us"));

    let d = &mut report.diagnostics;
    d.push(metric(
        "op_fail_ratio",
        ratio(w.errors + w.mismatches, ops),
        "ratio",
    ));
    d.push(metric("samples", ops as f64, "count"));
    d.push(metric(
        "samples_per_slice",
        (ops as usize / SLICES) as f64,
        "count",
    ));
    d.push(metric("sim_lat_p50_us", median_sorted(&sim) as f64, "us"));
    d.push(metric(
        "sim_lat_p99_us",
        tail_percentile(&sim, 0.99).0 as f64,
        "us",
    ));
    d.push(metric("sim_lat_p999_us", p999 as f64, "us"));
    d.push(metric(
        "sim_lat_p999_capped",
        f64::from(u8::from(capped)),
        "bool",
    ));
    d.push(metric("window_s", w.wall_ns as f64 / 1e9, "s"));
    d.push(metric("host_slice_spread", spread(&tput), "ratio"));
    for (name, series) in [("ops_per_s", &tput), ("p50_us", &p50), ("p99_us", &p99)] {
        let values: Vec<String> = series.iter().map(|v| format!("{v:.1}")).collect();
        report
            .notes
            .push(format!("host_slice_{name}: {}", values.join(" ")));
    }
    d.push(metric("driver_self_share", self_share(w), "ratio"));
    report.noisy = spread(&tput) > NOISY_SPREAD;
}

/// Share of the window's wall time spent outside any call into the
/// program: generating ops, checking results, recording.
fn self_share(w: &Window) -> f64 {
    let inside = w.host_ns.iter().sum::<u64>() + w.act_ns;
    ratio(w.wall_ns.saturating_sub(inside), w.wall_ns)
}

/// The traced run: an untraced stretch first (the tracing-overhead
/// baseline and the driver's own share), then the traced window the
/// per-layer numbers come from.
fn traced_run(cfg: &RunConfig, r: &mut Runner, report: &mut RunReport) -> Result<(), String> {
    let (plain_stop, traced_stop) = match cfg.stop {
        Stop::Ops(n) => (Stop::Ops(n / 3), Stop::Ops(n - n / 3)),
        Stop::Wall(d) => (Stop::Wall(d / 3), Stop::Wall(d - d / 3)),
    };
    let plain = r.measure(plain_stop);
    let (plain_tput, _, _) = slice_values(&plain);

    let before = r.sut.counters();
    r.sut.take_css_depth_max();
    r.sut.start_tracing();
    let w = r.measure(traced_stop);
    let tracer = r.sut.stop_tracing().expect("tracing was started");
    let after = r.sut.counters();
    let css_depth_max = r.sut.take_css_depth_max();
    let (traced_tput, _, _) = slice_values(&w);

    let ops = w.ops();
    report.attempted = plain.ops() + ops;
    report.errors = plain.errors + w.errors;
    report.oracle_mismatches = plain.mismatches + w.mismatches;

    layer_metrics(&w, &before, &after, css_depth_max, &tracer, report);
    report.metrics.push(metric(
        "core.driver_self_share",
        self_share(&plain),
        "ratio",
    ));
    report.metrics.push(metric(
        "core.trace_overhead_ratio",
        max_f64(&traced_tput) / max_f64(&plain_tput).max(f64::MIN_POSITIVE),
        "ratio",
    ));
    report
        .diagnostics
        .push(metric("samples", ops as f64, "count"));
    report
        .diagnostics
        .push(metric("untraced_samples", plain.ops() as f64, "count"));

    report.notes.push(
        "virtual-clock self time of the program's own spans (service/op, count, self us, total us):"
            .to_string(),
    );
    for (name, st) in tracer.prog_spans().into_iter().take(12) {
        report.notes.push(format!(
            "  {name:<28} {:>9} {:>14} {:>14}",
            st.count, st.self_us, st.total_us
        ));
    }
    if let Some(dir) = &cfg.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("trace_{}.jsonl", cfg.kind.name()));
        let lines = tracer
            .write_jsonl(&path, TRACE_FILE_OPS)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        report
            .notes
            .push(format!("wrote {lines} spans to {}", path.display()));
    }
    Ok(())
}

/// The per-layer metrics the driver can see from outside: counter deltas
/// over the traced window and the per-call triples of its spans. The
/// probe binary adds the rest.
fn layer_metrics(
    w: &Window,
    before: &Counters,
    after: &Counters,
    css_depth_max: u64,
    tracer: &Tracer,
    report: &mut RunReport,
) {
    let ops = w.ops();
    let m = &mut report.metrics;
    let sends = after.sends - before.sends;

    // storage
    let lookups = (after.page_hits - before.page_hits) + (after.page_misses - before.page_misses);
    m.push(metric(
        "storage.cache_hit_ratio",
        ratio(after.page_hits - before.page_hits, lookups),
        "ratio",
    ));
    m.push(metric(
        "storage.page_lookups_per_op",
        ratio(lookups, ops),
        "1/op",
    ));

    // net
    let op_spans: Vec<_> = tracer
        .spans()
        .iter()
        .filter(|s| s.parent == crate::trace::NO_PARENT)
        .collect();
    let wire_us: u64 = op_spans.iter().map(|s| s.obs.wire_us).sum();
    let sim_total: u64 = op_spans.iter().map(|s| s.sim_us).sum();
    m.push(metric(
        "net.host_us_per_msg",
        ratio(w.wall_ns, sends) / 1e3,
        "us/msg",
    ));
    m.push(metric(
        "net.bytes_per_op",
        ratio(after.bytes - before.bytes, ops),
        "B/op",
    ));
    for (i, svc) in SERVICES.iter().enumerate() {
        m.push(metric(
            format!("net.msgs_per_op.{svc}"),
            ratio(after.service_sends[i] - before.service_sends[i], ops),
            "msgs/op",
        ));
    }
    m.push(metric(
        "net.sim_wire_us_per_op",
        ratio(wire_us, ops),
        "us/op",
    ));
    m.push(metric(
        "net.retries_per_kmsg",
        ratio((after.retries - before.retries) * 1000, sends),
        "1/kmsg",
    ));
    let busy: Vec<u64> = after
        .busy_us
        .iter()
        .zip(&before.busy_us)
        .map(|(a, b)| a - b)
        .collect();
    let busy_sum: u64 = busy.iter().sum();
    let busy_max = busy.iter().copied().max().unwrap_or(0);
    m.push(metric(
        "net.busy_max_over_mean",
        ratio(busy_max * busy.len() as u64, busy_sum),
        "ratio",
    ));

    // fs
    let triple = |m: &mut Vec<Metric>, name: &str, spans: &[&str]| {
        let s = tracer.summary(spans);
        m.push(metric(format!("{name}.host_us"), s.host_us, "us"));
        m.push(metric(format!("{name}.msgs"), s.msgs, "msgs"));
        m.push(metric(format!("{name}.sim_us"), s.sim_us, "us"));
        s
    };
    triple(m, "fs.open", &["fs.open"]);
    triple(m, "fs.read", &["fs.read"]);
    triple(m, "fs.close", &["fs.close"]);
    triple(m, "fs.write_commit", &["fs.write_commit"]);
    triple(m, "fs.stat", &["fs.stat"]);
    triple(m, "fs.resolve", &["fs.resolve"]);
    triple(m, "fs.create_unlink", &["fs.create", "fs.unlink"]);
    let settle = triple(m, "fs.settle", &["fs.settle"]);
    m.push(metric(
        "fs.settle.host_share",
        ratio(settle.total_host_ns, w.wall_ns),
        "ratio",
    ));
    let d = |a: u64, b: u64| a - b;
    let dentry_hits = d(after.dentry_hits, before.dentry_hits);
    let attr_hits = d(after.attr_hits, before.attr_hits);
    m.push(metric(
        "fs.dentry_hit_ratio",
        ratio(
            dentry_hits,
            dentry_hits + d(after.dentry_misses, before.dentry_misses),
        ),
        "ratio",
    ));
    m.push(metric(
        "fs.attr_hit_ratio",
        ratio(
            attr_hits,
            attr_hits + d(after.attr_misses, before.attr_misses),
        ),
        "ratio",
    ));
    m.push(metric(
        "fs.lease_served_hits_per_op",
        ratio(d(after.lease_hits, before.lease_hits), ops),
        "1/op",
    ));
    m.push(metric(
        "fs.lease_recalls_per_commit",
        ratio(d(after.lease_recalls, before.lease_recalls), w.commits),
        "1/commit",
    ));
    m.push(metric(
        "fs.lease_recall_msgs_per_commit",
        ratio(
            d(after.lease_recall_msgs, before.lease_recall_msgs),
            w.commits,
        ),
        "msgs/commit",
    ));
    m.push(metric(
        "fs.commit_notify_msgs_per_commit",
        ratio(
            d(after.commit_notify_msgs, before.commit_notify_msgs),
            w.commits,
        ),
        "msgs/commit",
    ));
    m.push(metric("fs.css_depth_max", css_depth_max as f64, "count"));
    let css_busy: u64 = after
        .css_sites
        .iter()
        .map(|&s| busy.get(s as usize).copied().unwrap_or(0))
        .sum();
    m.push(metric(
        "fs.css_busy_share",
        ratio(css_busy, busy_sum),
        "ratio",
    ));
    m.push(metric(
        "fs.sim_service_us_per_op",
        ratio(sim_total.saturating_sub(wire_us), ops),
        "us/op",
    ));

    // proc
    triple(m, "proc.fork_remote", &["proc.fork_remote"]);
    let exit_wait = tracer.summary(&["proc.exit_wait"]);
    m.push(metric("proc.exit_wait.host_us", exit_wait.host_us, "us"));

    // topology, recovery
    m.push(metric(
        "topology.partition_polls_per_reconfig",
        ratio(u64::from(w.reconf.partition_polls), w.reconfigs),
        "1/reconfig",
    ));
    m.push(metric(
        "topology.merge_polls_per_reconfig",
        ratio(u64::from(w.reconf.merge_polls), w.reconfigs),
        "1/reconfig",
    ));
    m.push(metric(
        "recovery.msgs_per_reconfig",
        ratio(
            after.service_sends[3] - before.service_sends[3],
            w.reconfigs,
        ),
        "msgs/reconfig",
    ));
    m.push(metric(
        "recovery.files_reconciled_per_reconfig",
        ratio(u64::from(w.reconf.files_reconciled), w.reconfigs),
        "1/reconfig",
    ));
    m.push(metric(
        "recovery.conflicts_per_reconfig",
        ratio(u64::from(w.reconf.conflicts), w.reconfigs),
        "1/reconfig",
    ));

    // core
    triple(m, "core.reconfigure", &["core.reconfigure"]);
    let balance = tracer.summary(&["core.balance_css"]);
    m.push(metric("core.balance_css.host_us", balance.host_us, "us"));
    m.push(metric(
        "core.placement_migrations",
        (after.placement_migrations - before.placement_migrations) as f64,
        "count",
    ));
}

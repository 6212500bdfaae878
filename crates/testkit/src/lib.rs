//! The one harness the chaos suites share (`crates/{fs,proc,topology}/
//! tests/chaos*.rs` dev-depend on it; nothing else does).
//!
//! A chaos suite is a set of seeded *schedules*: each builds its own
//! cluster, drives a fault plan and a workload derived from one `u64`,
//! and returns `Err(description)` on a violated invariant. This crate
//! holds everything about that which is not the schedule itself:
//!
//! * the seed fan-out ([`run_schedules_parallel`]) and the two seed
//!   derivations ([`seed_set`], [`proptest_seed_set`]);
//! * the common tail of a schedule ([`finish`]): complete trace,
//!   required notes present, JSONL export → parse round trip, clean
//!   protocol audit — returning the [`Observation`] that identical-seed
//!   replays must reproduce byte for byte ([`replays_identically`]);
//! * the filesystem session helpers every fs suite drives its workload
//!   through ([`ctx`], [`VersionedFile`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use locus_fs::ops::fd;
use locus_fs::{FsCluster, ProcFsCtx};
use locus_net::{Histogram, Net, NetStats, ObsEvent};
use locus_types::{FileType, MachineType, OpenMode, Perms, SiteId, SysResult};
use proptest::prelude::*;
use proptest::{runtime, TestRng};

/// Worker threads for `n` schedules: one per core, never more than
/// there are schedules.
fn worker_count(n: usize) -> usize {
    std::thread::available_parallelism()
        .map(|w| w.get())
        .unwrap_or(1)
        .min(n.max(1))
}

/// Runs `schedule` over every seed across `std::thread` workers. Each
/// schedule owns its whole cluster and virtual clock, so determinism is
/// strictly per-seed: results are byte-identical to a serial run, only
/// the wall-clock shrinks. Whatever a passing schedule returns is dropped.
///
/// # Panics
///
/// Panics with the first failure in seed order (not completion order).
pub fn run_schedules_parallel<T>(
    seeds: &[u64],
    schedule: impl Fn(u64) -> Result<T, String> + Sync,
) {
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<Result<(), String>>>> =
        seeds.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..worker_count(seeds.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= seeds.len() {
                    break;
                }
                let r = schedule(seeds[i]).map(drop);
                *results[i].lock().expect("no poisoned schedule slot") = Some(r);
            });
        }
    });
    for (i, slot) in results.iter().enumerate() {
        let r = slot
            .lock()
            .expect("no poisoned schedule slot")
            .take()
            .expect("every slot ran");
        if let Err(msg) = r {
            panic!("schedule case {i} of {} failed:\n{msg}", seeds.len());
        }
    }
}

/// `n` seeds spread from `base` by the golden-ratio multiplier.
pub fn seed_set(base: u64, n: u64) -> Vec<u64> {
    (0..n).map(|i| base ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect()
}

/// The seeds a `proptest!` block named `test_name` with `cases` cases
/// would draw for one `any::<u64>()` parameter, derived exactly as the
/// in-tree proptest shim derives them (same name hash, same per-case
/// rng) — including the `PROPTEST_SEED` / `PROPTEST_CASES` overrides.
pub fn proptest_seed_set(test_name: &str, cases: u32) -> Vec<u64> {
    let cases = runtime::case_count(&ProptestConfig::with_cases(cases));
    let base = runtime::base_seed(test_name);
    (0..cases as u64)
        .map(|case| {
            let mut rng = TestRng::new(base ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            Strategy::generate(&any::<u64>(), &mut rng)
        })
        .collect()
}

/// What a clean schedule run yields: the event stream, the
/// per-(service, op) virtual-time latency histograms and the network
/// statistics, all of which must be byte-identical across identical-seed
/// replays (and across engines).
pub type Observation = (
    Vec<ObsEvent>,
    BTreeMap<(String, String), Histogram>,
    NetStats,
);

/// Common tail of every schedule. The trace must be complete (a
/// truncated one would make the determinism comparisons and the audit
/// prefix-only), carry each of `required_notes`, survive a JSONL export
/// → parse round trip unchanged, and audit clean against the protocol
/// invariants.
pub fn finish(net: &Net, seed: u64, required_notes: &[&str]) -> Result<Observation, String> {
    if net.obs_truncated() > 0 {
        return Err(format!(
            "seed {seed}: trace truncated ({} events dropped past the cap)",
            net.obs_truncated()
        ));
    }
    let events = net.take_obs_events();
    for key in required_notes {
        let seen = events
            .iter()
            .any(|e| matches!(e, ObsEvent::Note { key: k, .. } if k == key));
        if !seen {
            return Err(format!(
                "seed {seed}: expected a `{key}` note in the observability stream"
            ));
        }
    }
    let parsed = locus_net::parse_jsonl(&locus_net::export_jsonl(&events))
        .map_err(|e| format!("seed {seed}: exported trace failed to parse: {e}"))?;
    if parsed != events {
        return Err(format!("seed {seed}: JSONL export/parse did not round-trip"));
    }
    let audit = locus_net::audit(&events);
    if !audit.is_clean() {
        return Err(format!(
            "seed {seed}: trace audit found violations: {:?}",
            audit.violations
        ));
    }
    Ok((events, net.obs_histograms(), net.stats()))
}

/// Runs `run(seed)` twice and requires byte-identical observations,
/// naming the part that diverged; returns the agreed observation.
pub fn replays_identically(
    seed: u64,
    run: impl Fn(u64) -> Result<Observation, String>,
) -> Result<Observation, String> {
    let (a, b) = (run(seed)?, run(seed)?);
    for (what, same) in [
        ("traces", a.0 == b.0),
        ("latency histograms", a.1 == b.1),
        ("statistics", a.2 == b.2),
    ] {
        if !same {
            return Err(format!("seed {seed}: {what} diverged between identical runs"));
        }
    }
    Ok(a)
}

/// The root-directory, VAX process context of `site`.
pub fn ctx(fsc: &FsCluster, site: SiteId) -> ProcFsCtx {
    ProcFsCtx::new(fsc.kernel(site).mount.root().unwrap(), MachineType::Vax)
}

/// A file whose whole content encodes one version number, so any read
/// can be checked byte-exactly and ordered against the committed window.
#[derive(Clone, Copy, Debug)]
pub struct VersionedFile {
    /// Absolute path of the file.
    pub path: &'static str,
    /// Extra payload bytes per version (multi-page payloads exercise the
    /// batched protocols).
    pub pad: usize,
}

impl VersionedFile {
    /// A single-page versioned file at `path`.
    pub const fn new(path: &'static str) -> Self {
        VersionedFile { path, pad: 0 }
    }

    /// Version `v`'s content. Strictly growing length, so overwriting
    /// from offset 0 never leaves a stale tail.
    pub fn payload(&self, v: u32) -> Vec<u8> {
        let mut p = format!("v{v:04}:").into_bytes();
        p.extend(std::iter::repeat_n(b'x', 16 + self.pad + v as usize));
        p
    }

    /// Parses a version back out, checking byte-exactness against
    /// [`Self::payload`] — any corruption or tearing fails the parse.
    pub fn version_of(&self, data: &[u8]) -> Option<u32> {
        let s = std::str::from_utf8(data).ok()?;
        let (num, _) = s.strip_prefix('v')?.split_once(':')?;
        let v: u32 = num.parse().ok()?;
        (data == self.payload(v).as_slice()).then_some(v)
    }

    /// Creates the file at version 0 from `us` (meant for a pristine
    /// network; the caller settles to propagate it).
    pub fn create(&self, fsc: &FsCluster, us: SiteId, seed: u64) -> Result<(), String> {
        let path = self.path;
        let c = ctx(fsc, us);
        let fdn = fd::creat(fsc, us, &c, path, FileType::Untyped, Perms::FILE_DEFAULT)
            .map_err(|e| format!("seed {seed}: pristine creat {path} failed: {e:?}"))?;
        fd::write(fsc, us, fdn, &self.payload(0))
            .map_err(|e| format!("seed {seed}: pristine write {path} failed: {e:?}"))?;
        fd::close(fsc, us, fdn)
            .map_err(|e| format!("seed {seed}: pristine close {path} failed: {e:?}"))
    }

    /// One full write session for version `v` from `us`.
    pub fn write(&self, fsc: &FsCluster, us: SiteId, v: u32) -> SysResult<()> {
        let c = ctx(fsc, us);
        let fdn = fd::open(fsc, us, &c, self.path, OpenMode::Write)?;
        let wrote = fd::write(fsc, us, fdn, &self.payload(v)).map(|_| ());
        let closed = fd::close(fsc, us, fdn);
        wrote.and(closed)
    }

    /// One full read session from `us`; returns the version read.
    ///
    /// # Panics
    ///
    /// Panics on corrupt content — torn pages are a durability violation
    /// no fault schedule may excuse.
    pub fn read(&self, fsc: &FsCluster, us: SiteId) -> SysResult<u32> {
        let c = ctx(fsc, us);
        let fdn = fd::open(fsc, us, &c, self.path, OpenMode::Read)?;
        let data = fd::read(fsc, us, fdn, 1 << 20);
        let _ = fd::close(fsc, us, fdn);
        let data = data?;
        Ok(self
            .version_of(&data)
            .unwrap_or_else(|| panic!("corrupt content read at {us:?}: {data:?}")))
    }

    /// Reads the file at every site and checks full agreement inside the
    /// committed window `[confirmed, next_version)`: no acknowledged
    /// write lost, none invented.
    pub fn check_convergence(
        &self,
        fsc: &FsCluster,
        seed: u64,
        confirmed: u32,
        next_version: u32,
    ) -> Result<(), String> {
        let path = self.path;
        let mut seen = Vec::new();
        for site in fsc.sites() {
            let v = self.read(fsc, site).map_err(|e| {
                format!("seed {seed}: final read of {path} at {site:?} failed: {e:?}")
            })?;
            seen.push(v);
        }
        if seen.iter().any(|&v| v != seen[0]) {
            return Err(format!(
                "seed {seed}: sites disagree on {path} after recovery: {seen:?}"
            ));
        }
        if seen[0] < confirmed {
            return Err(format!(
                "seed {seed}: committed v{confirmed} of {path} lost — final state is v{}",
                seen[0]
            ));
        }
        if seen[0] >= next_version {
            return Err(format!(
                "seed {seed}: final v{} of {path} was never written (max attempted v{})",
                seen[0],
                next_version - 1
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;

    use super::*;

    /// A harness that cannot fail proves nothing: two of four seeds
    /// fail, the later one first in time whenever there is a second
    /// worker to run it, and the report names the earlier one.
    #[test]
    #[should_panic(expected = "schedule case 1 of 4 failed:\nseed 20 broke")]
    fn a_failing_seed_is_reported_in_seed_order() {
        let seeds = [10, 20, 30, 40];
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        run_schedules_parallel(&seeds, |seed| match seed {
            20 => {
                if worker_count(seeds.len()) > 1 {
                    rx.lock().unwrap().recv().expect("seed 40 ran");
                }
                Err("seed 20 broke".to_owned())
            }
            40 => {
                tx.send(()).expect("receiver alive");
                Err("seed 40 broke".to_owned())
            }
            _ => Ok(()),
        });
    }

    #[test]
    fn every_seed_runs_exactly_once_and_a_clean_set_passes() {
        let seeds = seed_set(7, 33);
        let ran: Vec<AtomicUsize> = seeds.iter().map(|_| AtomicUsize::new(0)).collect();
        run_schedules_parallel(&seeds, |seed| {
            let i = seeds.iter().position(|&s| s == seed).expect("a listed seed");
            ran[i].fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        assert!(ran.iter().all(|n| n.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn finish_rejects_a_trace_missing_a_required_note() {
        let net = Net::new(2);
        net.set_observing(true);
        net.obs_note(SiteId(0), "css.claim", "fg0", 1);
        let err = finish(&net, 5, &["css.claim", "health.readmit"]).unwrap_err();
        assert!(err.contains("seed 5") && err.contains("health.readmit"), "{err}");
    }
}

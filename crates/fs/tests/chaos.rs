//! Chaos harness: random seeded fault schedules against a replicated
//! cluster, asserting the paper's availability and durability claims.
//!
//! Each case builds a 4-site cluster (root filegroup replicated at sites
//! 0–2, site 3 diskless), installs a seed-derived [`FaultPlan`] (message
//! drops/duplicates/delays up to 30 % loss, a link flap, sometimes a site
//! crash window) and drives a single-writer workload through it. The
//! invariants checked are the ones §2.2.2 and §5 promise:
//!
//! * **Committed data is never lost.** Once a write commits, every later
//!   successful read — and the post-heal state at every site — carries
//!   that version or a newer one, and the content is byte-exact (no torn
//!   or interleaved pages).
//! * **Opens succeed whenever a replica is reachable.** A read open may
//!   fail only if the CSS or every container is unreachable from the
//!   using site, or a scheduled topology event fired mid-operation.
//! * **Partitions reconverge.** After `heal()` + `settle()` every site
//!   reads the same, newest committed version.
//!
//! A separate test replays one schedule twice and asserts the network
//! traces are identical: the whole fault pipeline is deterministic in the
//! seed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use std::collections::BTreeMap;

use locus_fs::ops::fd;
use locus_fs::{FsCluster, FsClusterBuilder, IoPolicy, ProcFsCtx};
use locus_net::{FaultPlan, FaultSpec, Histogram, NetStats, ObsEvent, RetryPolicy, SimRng};
use locus_types::{FileType, MachineType, OpenMode, Perms, SiteId, SysResult, Ticks};
use proptest::prelude::*;
use proptest::{runtime, TestRng};

/// Sites holding a container of the root filegroup; site 0 is the CSS.
const CONTAINERS: [u32; 3] = [0, 1, 2];
/// Total sites (the last one is diskless).
const N_SITES: u32 = 4;
/// The single writer (and CSS) site.
const WRITER: SiteId = SiteId(0);
/// Workload steps per schedule.
const STEPS: u32 = 14;

fn ctx(fsc: &FsCluster, site: SiteId) -> ProcFsCtx {
    ProcFsCtx::new(fsc.kernel(site).mount.root().unwrap(), MachineType::Vax)
}

/// Version `v`'s file content, padded with `pad` extra bytes (multi-page
/// payloads exercise the batched protocols). Strictly growing length, so
/// overwriting from offset 0 never leaves a stale tail.
fn payload_padded(v: u32, pad: usize) -> Vec<u8> {
    let mut p = format!("v{v:04}:").into_bytes();
    p.extend(std::iter::repeat_n(b'x', 16 + pad + v as usize));
    p
}

/// Version `v`'s file content at the default (single-page) padding.
fn payload(v: u32) -> Vec<u8> {
    payload_padded(v, 0)
}

/// Parses a version back out, checking byte-exactness against
/// [`payload_padded`] — any corruption or tearing fails the parse.
fn version_of(data: &[u8], pad: usize) -> Option<u32> {
    let s = std::str::from_utf8(data).ok()?;
    let (num, _) = s.strip_prefix('v')?.split_once(':')?;
    let v: u32 = num.parse().ok()?;
    (data == payload_padded(v, pad).as_slice()).then_some(v)
}

/// A seed-derived fault plan plus the times its scheduled topology
/// events fire (used to excuse operation failures that raced an event).
fn plan_for(seed: u64) -> (FaultPlan, Vec<Ticks>) {
    let mut rng = SimRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x00C0_FFEE);
    let spec = FaultSpec {
        drop: 0.05 + rng.gen_f64() * 0.25, // ≤ 0.3 per the acceptance bar
        duplicate: rng.gen_f64() * 0.10,
        delay_prob: rng.gen_f64() * 0.20,
        delay: Ticks::micros(rng.gen_range(20u64..200)),
        circuit_abort: 0.0,
    };
    let mut plan = FaultPlan::new(seed).default_spec(spec);
    let mut events = Vec::new();

    // One transient link flap between two distinct sites.
    let a = rng.gen_range(0u32..N_SITES);
    let b = (a + rng.gen_range(1u32..N_SITES)) % N_SITES;
    let at = Ticks::millis(rng.gen_range(2u64..20));
    let until = Ticks::micros(at.as_micros() + rng.gen_range(1_000u64..10_000));
    plan = plan.link_flap(SiteId(a), SiteId(b), at, until);
    events.push(at);
    events.push(until);

    // Half the schedules also crash a non-CSS site for a window.
    if rng.gen_bool(0.5) {
        let victim = rng.gen_range(1u32..N_SITES);
        let at = Ticks::millis(rng.gen_range(5u64..30));
        let until = Ticks::micros(at.as_micros() + rng.gen_range(2_000u64..12_000));
        plan = plan.crash_window(SiteId(victim), at, until);
        events.push(at);
        events.push(until);
    }
    (plan, events)
}

/// Whether an open from `us` has any right to succeed: the CSS and at
/// least one container must be reachable (reachability is transitive, so
/// the chosen SS is then reachable from `us` too).
fn open_guard(fsc: &FsCluster, us: SiteId) -> bool {
    let net = fsc.net();
    net.reachable(us, WRITER) && CONTAINERS.iter().any(|&c| net.reachable(WRITER, SiteId(c)))
}

/// One full write session for version `v` at the writer site.
fn write_version(fsc: &FsCluster, v: u32, pad: usize) -> SysResult<()> {
    let c = ctx(fsc, WRITER);
    let fdn = fd::open(fsc, WRITER, &c, "/chaos", OpenMode::Write)?;
    let wrote = fd::write(fsc, WRITER, fdn, &payload_padded(v, pad)).map(|_| ());
    let closed = fd::close(fsc, WRITER, fdn);
    wrote.and(closed)
}

/// One full read session from `us`; returns the version read.
///
/// # Panics
///
/// Panics on corrupt content — torn pages are a durability violation no
/// fault schedule may excuse.
fn read_version(fsc: &FsCluster, us: SiteId, pad: usize) -> SysResult<u32> {
    let c = ctx(fsc, us);
    let fdn = fd::open(fsc, us, &c, "/chaos", OpenMode::Read)?;
    let data = fd::read(fsc, us, fdn, 1 << 20);
    let _ = fd::close(fsc, us, fdn);
    let data = data?;
    Some(version_of(&data, pad).unwrap_or_else(|| panic!("corrupt content read: {data:?}")))
        .ok_or(locus_types::Errno::Eio)
}

/// What a clean schedule run yields: the event stream, the
/// per-(service, op) virtual-time latency histograms and the network
/// statistics, all of which must be byte-identical across identical-seed
/// replays.
type ScheduleObservation = (
    Vec<ObsEvent>,
    BTreeMap<(String, String), Histogram>,
    NetStats,
);

/// Runs one complete seeded schedule under the paper-faithful per-page
/// protocols; returns the event stream, latency histograms and statistics on
/// success, or a description of the violated invariant.
fn run_schedule(seed: u64) -> Result<ScheduleObservation, String> {
    run_schedule_with(seed, IoPolicy::paper_faithful(), 0)
}

/// Runs one complete seeded schedule under the given page-transfer
/// policy, with `pad` extra payload bytes (multi-page versions stress
/// batched reads, readahead windows and write-behind flushes under the
/// same fault plans).
fn run_schedule_with(seed: u64, policy: IoPolicy, pad: usize) -> Result<ScheduleObservation, String> {
    let fsc = FsClusterBuilder::new()
        .vax_sites(N_SITES as usize)
        .filegroup("root", &CONTAINERS)
        // 16 attempts keeps exhaustion of an idempotent retry chain
        // (failure probability ~0.5 per attempt at the 30 % drop
        // ceiling, both directions counted) below the budget of 256
        // seeds × thousands of RPCs: the availability invariant assumes
        // the retry layer, not luck, absorbs transient loss.
        .retry_policy(RetryPolicy {
            max_attempts: 16,
            base_backoff: Ticks::millis(1),
            ..RetryPolicy::default()
        })
        .io_policy(policy)
        // The name cache must survive the full fault model without ever
        // serving a stale resolution or breaking replay determinism.
        .name_cache(true)
        .build();
    let net = fsc.net();
    net.set_observing(true);

    // Create version 0 on a pristine network, fully propagated.
    let c0 = ctx(&fsc, WRITER);
    let fdn = fd::creat(&fsc, WRITER, &c0, "/chaos", FileType::Untyped, Perms::FILE_DEFAULT)
        .map_err(|e| format!("seed {seed}: pristine creat failed: {e:?}"))?;
    fd::write(&fsc, WRITER, fdn, &payload_padded(0, pad))
        .map_err(|e| format!("seed {seed}: pristine write failed: {e:?}"))?;
    fd::close(&fsc, WRITER, fdn)
        .map_err(|e| format!("seed {seed}: pristine close failed: {e:?}"))?;
    fsc.settle();

    let (plan, event_times) = plan_for(seed);
    net.install_faults(plan);

    let mut wl = SimRng::seed_from_u64(seed ^ 0x00D1_5EA5);
    let mut next_version = 1u32;
    let mut confirmed = 0u32; // newest version whose commit was acknowledged

    for _ in 0..STEPS {
        if wl.gen_bool(0.45) {
            let v = next_version;
            next_version += 1;
            // A failed session may still have committed (the ack was
            // lost): `confirmed` stays, but reads may now see `v`.
            if write_version(&fsc, v, pad).is_ok() {
                confirmed = v;
            }
        } else {
            let us = SiteId(wl.gen_range(0u32..N_SITES));
            let guard_before = open_guard(&fsc, us);
            let t0 = net.now();
            let res = read_version(&fsc, us, pad);
            let t1 = net.now();
            match res {
                Ok(v) => {
                    if v < confirmed || v >= next_version {
                        return Err(format!(
                            "seed {seed}: read v{v} outside committed window \
                             [{confirmed}, {}]",
                            next_version - 1
                        ));
                    }
                }
                Err(e) => {
                    // Failure is excused only if a replica was genuinely
                    // unreachable or a scheduled event raced the call.
                    let guard_after = open_guard(&fsc, us);
                    let raced = event_times.iter().any(|&ev| ev > t0 && ev <= t1);
                    if guard_before && guard_after && !raced {
                        return Err(format!(
                            "seed {seed}: read open from {us:?} failed ({e:?}) \
                             with the CSS and a replica reachable"
                        ));
                    }
                }
            }
        }
    }

    // Lift the faults, restore the topology and verify reconvergence.
    net.clear_faults();
    for i in 0..N_SITES {
        net.revive(SiteId(i));
    }
    net.heal();
    fsc.settle();

    let mut seen = Vec::new();
    for i in 0..N_SITES {
        let v = read_version(&fsc, SiteId(i), pad)
            .map_err(|e| format!("seed {seed}: post-heal read at site {i} failed: {e:?}"))?;
        seen.push(v);
    }
    if seen.iter().any(|&v| v != seen[0]) {
        return Err(format!("seed {seed}: sites disagree after heal: {seen:?}"));
    }
    if seen[0] < confirmed {
        return Err(format!(
            "seed {seed}: committed v{confirmed} lost — final state is v{}",
            seen[0]
        ));
    }
    if seen[0] >= next_version {
        return Err(format!(
            "seed {seed}: final v{} was never written (max attempted v{})",
            seen[0],
            next_version - 1
        ));
    }

    // A truncated trace would make the determinism comparisons (and the
    // audit below) prefix-only: fail loudly instead of comparing less.
    if net.obs_truncated() > 0 {
        return Err(format!(
            "seed {seed}: trace truncated ({} events dropped past the cap)",
            net.obs_truncated()
        ));
    }
    // Every schedule's span trace must audit clean against the protocol
    // invariants (reply matching, idempotent re-issue, bounded circuit
    // reopens, commit/read interleaving, one-way loss accounting).
    let events = net.take_obs_events();
    let audit = locus_net::audit(&events);
    if !audit.is_clean() {
        return Err(format!(
            "seed {seed}: trace audit found violations: {:?}",
            audit.violations
        ));
    }
    // The commit/read interleaving invariant above is only worth its
    // name if the reads it judged include ones the write-through buffer
    // cache served: every `read.page` note carries the served version
    // whether the page came off the disk or out of a buffer.
    let read_notes = events
        .iter()
        .filter(|e| matches!(e, ObsEvent::Note { key, .. } if key == "read.page"))
        .count();
    let cache = fsc.cache_stats();
    if read_notes == 0 || cache.hits == 0 {
        return Err(format!(
            "seed {seed}: {read_notes} audited page reads, {} buffer-cache hits — \
             the audit saw no cache-served read",
            cache.hits
        ));
    }
    Ok((events, net.obs_histograms(), net.stats()))
}

/// Runs `schedule` over every seed across `std::thread` workers. Each
/// schedule owns its whole cluster and virtual clock, so determinism is
/// strictly per-seed: results are byte-identical to a serial run, only
/// the wall-clock shrinks. Failures are reported in seed order.
fn run_schedules_parallel(seeds: &[u64], schedule: impl Fn(u64) -> Result<(), String> + Sync) {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(seeds.len().max(1));
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<Result<(), String>>>> =
        seeds.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= seeds.len() {
                    break;
                }
                let r = schedule(seeds[i]);
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

/// The 256 proptest-style seeds for [`chaos_schedules_preserve_invariants`],
/// derived exactly as the in-tree proptest shim derives them (same test
/// name hash, same per-case rng) so the seed set is unchanged from the
/// previous `proptest!` form — including `PROPTEST_SEED` /
/// `PROPTEST_CASES` overrides.
fn proptest_seed_set(test_name: &str, cases: u32) -> Vec<u64> {
    let config = ProptestConfig::with_cases(cases);
    let cases = runtime::case_count(&config);
    let base = runtime::base_seed(test_name);
    (0..cases as u64)
        .map(|case| {
            let mut rng = TestRng::new(base ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            Strategy::generate(&any::<u64>(), &mut rng)
        })
        .collect()
}

#[test]
fn chaos_schedules_preserve_invariants() {
    let seeds = proptest_seed_set(
        concat!(module_path!(), "::chaos_schedules_preserve_invariants"),
        256,
    );
    run_schedules_parallel(&seeds, |seed| run_schedule(seed).map(|_| ()));
}

/// The same availability and durability invariants must hold with batched
/// transfers, adaptive readahead and write-behind turned on — under the
/// very same fault plans, now dropping/duplicating/delaying multi-page
/// `READV`/`WRITEV` messages too. Multi-page payloads make every version
/// span several pages, so batch replies really carry windows.
#[test]
fn batched_chaos_schedules_preserve_invariants() {
    let seeds = proptest_seed_set(
        concat!(module_path!(), "::batched_chaos_schedules_preserve_invariants"),
        64,
    );
    let pad = 2 * locus_storage::PAGE_SIZE + 400;
    run_schedules_parallel(&seeds, |seed| {
        run_schedule_with(seed, IoPolicy::batched(), pad).map(|_| ())
    });
}

#[test]
fn identical_seed_gives_identical_trace() {
    for seed in [3u64, 1983, 0xFEED_FACE] {
        let (ta, ha, sa) = run_schedule(seed).expect("schedule upholds invariants");
        let (tb, hb, sb) = run_schedule(seed).expect("schedule upholds invariants");
        assert_eq!(ta, tb, "seed {seed}: traces diverged between identical runs");
        assert_eq!(
            ha, hb,
            "seed {seed}: latency histograms diverged between identical runs"
        );
        assert_eq!(sa, sb, "seed {seed}: statistics diverged between identical runs");
        assert!(
            !ha.is_empty(),
            "seed {seed}: the schedule must feed the op histograms"
        );
    }
}

/// Identical seed ⇒ byte-identical protocol trace in batched mode too,
/// with fault plans hitting the batched message kinds.
#[test]
fn batched_identical_seed_gives_identical_trace() {
    let pad = 2 * locus_storage::PAGE_SIZE + 400;
    for seed in [3u64, 1983, 0xFEED_FACE] {
        let (ta, ha, sa) = run_schedule_with(seed, IoPolicy::batched(), pad)
            .expect("batched schedule upholds invariants");
        let (tb, hb, sb) = run_schedule_with(seed, IoPolicy::batched(), pad)
            .expect("batched schedule upholds invariants");
        assert_eq!(ta, tb, "seed {seed}: batched traces diverged between runs");
        assert_eq!(
            ha, hb,
            "seed {seed}: batched latency histograms diverged between runs"
        );
        assert_eq!(sa, sb, "seed {seed}: batched statistics diverged between runs");
    }
}

#[test]
fn opens_always_succeed_under_pure_message_loss() {
    // With no topology events — only probabilistic drops at the
    // acceptance-bar maximum of 0.3 — the retry policy must absorb every
    // loss: all opens succeed from every site.
    let fsc = FsClusterBuilder::new()
        .vax_sites(N_SITES as usize)
        .filegroup("root", &CONTAINERS)
        .retry_policy(RetryPolicy {
            max_attempts: 12,
            base_backoff: Ticks::millis(1),
            ..RetryPolicy::default()
        })
        .build();
    let c0 = ctx(&fsc, WRITER);
    let fdn = fd::creat(&fsc, WRITER, &c0, "/chaos", FileType::Untyped, Perms::FILE_DEFAULT)
        .expect("pristine creat");
    fd::write(&fsc, WRITER, fdn, &payload(0)).expect("pristine write");
    fd::close(&fsc, WRITER, fdn).expect("pristine close");
    fsc.settle();

    fsc.net()
        .install_faults(FaultPlan::new(77).default_spec(FaultSpec::drop_rate(0.3)));
    for round in 0..8u32 {
        for i in 0..N_SITES {
            let v = read_version(&fsc, SiteId(i), 0)
                .unwrap_or_else(|e| panic!("round {round}: open from site {i} failed: {e:?}"));
            assert_eq!(v, 0);
        }
    }
    assert!(
        fsc.net().stats().total_retries() > 0,
        "losses were in fact injected and retried"
    );
}

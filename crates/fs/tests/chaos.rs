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

use locus_fs::{FsCluster, FsClusterBuilder, IoPolicy};
use locus_net::{FaultPlan, FaultSpec, ObsEvent, RetryPolicy, SimRng};
use locus_testkit::{
    finish, proptest_seed_set, replays_identically, run_schedules_parallel, Observation,
    VersionedFile,
};
use locus_types::{SiteId, Ticks};

/// Sites holding a container of the root filegroup; site 0 is the CSS.
const CONTAINERS: [u32; 3] = [0, 1, 2];
/// Total sites (the last one is diskless).
const N_SITES: u32 = 4;
/// The single writer (and CSS) site.
const WRITER: SiteId = SiteId(0);
/// Workload steps per schedule.
const STEPS: u32 = 14;

/// The file every schedule fights over, each version padded with `pad`
/// extra bytes.
fn chaos_file(pad: usize) -> VersionedFile {
    VersionedFile { path: "/chaos", pad }
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

/// Runs one complete seeded schedule under the paper-faithful per-page
/// protocols; returns the event stream, latency histograms and statistics on
/// success, or a description of the violated invariant.
fn run_schedule(seed: u64) -> Result<Observation, String> {
    run_schedule_with(seed, IoPolicy::paper_faithful(), 0)
}

/// Runs one complete seeded schedule under the given page-transfer
/// policy, with `pad` extra payload bytes (multi-page versions stress
/// batched reads, readahead windows and write-behind flushes under the
/// same fault plans).
fn run_schedule_with(seed: u64, policy: IoPolicy, pad: usize) -> Result<Observation, String> {
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
    let file = chaos_file(pad);
    file.create(&fsc, WRITER, seed)?;
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
            if file.write(&fsc, WRITER, v).is_ok() {
                confirmed = v;
            }
        } else {
            let us = SiteId(wl.gen_range(0u32..N_SITES));
            let guard_before = open_guard(&fsc, us);
            let t0 = net.now();
            let res = file.read(&fsc, us);
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

    file.check_convergence(&fsc, seed, confirmed, next_version)?;

    // Every schedule's span trace must be complete and audit clean
    // against the protocol invariants (reply matching, idempotent
    // re-issue, bounded circuit reopens, commit/read interleaving,
    // one-way loss accounting).
    let obs = finish(net, seed, &[])?;
    // The commit/read interleaving invariant above is only worth its
    // name if the reads it judged include ones the write-through buffer
    // cache served: every `read.page` note carries the served version
    // whether the page came off the disk or out of a buffer.
    let read_notes = obs
        .0
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
    Ok(obs)
}

#[test]
fn chaos_schedules_preserve_invariants() {
    let seeds = proptest_seed_set(
        concat!(module_path!(), "::chaos_schedules_preserve_invariants"),
        256,
    );
    run_schedules_parallel(&seeds, run_schedule);
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
    run_schedules_parallel(&seeds, |seed| run_schedule_with(seed, IoPolicy::batched(), pad));
}

#[test]
fn identical_seed_gives_identical_trace() {
    for seed in [3u64, 1983, 0xFEED_FACE] {
        let (_, hists, _) = replays_identically(seed, run_schedule).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            !hists.is_empty(),
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
        replays_identically(seed, |seed| run_schedule_with(seed, IoPolicy::batched(), pad))
            .unwrap_or_else(|e| panic!("batched: {e}"));
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
    let file = chaos_file(0);
    file.create(&fsc, WRITER, 77).expect("pristine file");
    fsc.settle();

    fsc.net()
        .install_faults(FaultPlan::new(77).default_spec(FaultSpec::drop_rate(0.3)));
    for round in 0..8u32 {
        for i in 0..N_SITES {
            let v = file
                .read(&fsc, SiteId(i))
                .unwrap_or_else(|e| panic!("round {round}: open from site {i} failed: {e:?}"));
            assert_eq!(v, 0);
        }
    }
    assert!(
        fsc.net().stats().total_retries() > 0,
        "losses were in fact injected and retried"
    );
}

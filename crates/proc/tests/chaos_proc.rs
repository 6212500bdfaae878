//! Chaos harness for the process protocol: seeded fault schedules drive
//! remote fork/exec traffic through the shared RPC engine, asserting the
//! §3 transparency claims survive message loss.
//!
//! Each case builds a 4-site cluster, installs a seed-derived
//! [`FaultPlan`] (drops/duplicates/delays up to 30 % loss, sometimes a
//! site crash window) and forks/exits a stream of children at
//! rng-chosen sites. The invariants:
//!
//! * **A fork either fully succeeds or cleanly fails.** Success means
//!   the child exists at the destination site; failure surfaces as
//!   `Esitedown` (or `Esrch` when the parent's site died mid-schedule)
//!   and leaves no orphan process entry.
//! * **Every successful fork is reapable.** After exiting all children,
//!   the parent reaps exactly the successes — message loss never
//!   creates or destroys a process silently.
//! * **The proc protocol is deterministic in the seed**: a replayed
//!   schedule produces a byte-identical network trace.

use locus_fs::{FsCluster, FsClusterBuilder};
use locus_net::{FaultPlan, FaultSpec, RetryPolicy, SimRng};
use locus_proc::ProcMgr;
use locus_testkit::{finish, proptest_seed_set, run_schedules_parallel, Observation};
use locus_types::{Errno, SiteId, Ticks};

/// Total sites; the root filegroup lives at sites 0 and 1.
const N_SITES: u32 = 4;
/// The parent process's home site.
const HOME: SiteId = SiteId(0);
/// Fork attempts per schedule.
const STEPS: u32 = 10;

fn cluster() -> (FsCluster, ProcMgr) {
    let fsc = FsClusterBuilder::new()
        .vax_sites(N_SITES as usize)
        .filegroup("root", &[0, 1])
        // Exec path resolution under chaos runs through the name cache.
        .name_cache(true)
        .build();
    // A generous budget: the chaos plans push 30 % loss, and the proc
    // protocol's availability claim is about riding out loss, not about
    // a specific attempt count.
    fsc.set_retry_policy(RetryPolicy {
        max_attempts: 12,
        base_backoff: Ticks::millis(1),
        ..RetryPolicy::default()
    });
    (fsc, ProcMgr::new())
}

/// A seed-derived fault plan: the same shape as the filesystem chaos
/// harness (≤ 0.3 drop rate, duplicates, delays, a 50 % chance of a
/// non-home site crash window) so the proc protocol faces the exact
/// fault model the fs protocol is tested under.
fn plan_for(seed: u64) -> FaultPlan {
    let mut rng = SimRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x00F0_27C5);
    let spec = FaultSpec {
        drop: 0.05 + rng.gen_f64() * 0.25,
        duplicate: rng.gen_f64() * 0.10,
        delay_prob: rng.gen_f64() * 0.20,
        delay: Ticks::micros(rng.gen_range(20u64..200)),
        circuit_abort: 0.0,
    };
    let mut plan = FaultPlan::new(seed).default_spec(spec);
    if rng.gen_bool(0.5) {
        let victim = rng.gen_range(1u32..N_SITES);
        let at = Ticks::millis(rng.gen_range(2u64..30));
        let until = Ticks::micros(at.as_micros() + rng.gen_range(2_000u64..12_000));
        plan = plan.crash_window(SiteId(victim), at, until);
    }
    plan
}

/// One schedule: STEPS remote forks at rng-chosen sites under the fault
/// plan, each successful child exited and reaped.
fn run_schedule(seed: u64) -> Result<Observation, String> {
    let (fsc, pm) = cluster();
    fsc.net().set_observing(true);
    fsc.net().install_faults(plan_for(seed));
    let mut rng = SimRng::seed_from_u64(seed ^ 0x00D1_5EA5);
    let parent = pm
        .spawn_init(&fsc, HOME, 1)
        .map_err(|e| format!("spawn_init: {e:?}"))?;

    let mut live = Vec::new();
    for step in 0..STEPS {
        let dest = SiteId(rng.gen_range(0u32..N_SITES));
        match pm.fork(&fsc, parent, Some(dest)) {
            Ok(child) => {
                let at = pm
                    .site_of(child)
                    .map_err(|e| format!("step {step}: forked child vanished: {e:?}"))?;
                if at != dest {
                    return Err(format!("step {step}: child at {at:?}, wanted {dest:?}"));
                }
                live.push(child);
            }
            Err(Errno::Esitedown) => {} // dest crashed or loss exhausted retries
            Err(e) => return Err(format!("step {step}: fork to {dest:?} failed with {e:?}")),
        }
    }

    // Every success is reapable: exit each child, then the parent reaps
    // exactly the successes.
    let expected = live.len();
    for &child in &live {
        pm.exit(&fsc, child, 0)
            .map_err(|e| format!("exit {child:?}: {e:?}"))?;
    }
    let mut reaped = 0;
    loop {
        match pm.wait(parent) {
            Ok(Some(_)) => reaped += 1,
            // No zombies left — or no children at all (every fork failed).
            Ok(None) | Err(Errno::Echild) => break,
            Err(e) => return Err(format!("wait: {e:?}")),
        }
    }
    if reaped != expected {
        return Err(format!("reaped {reaped} children, expected {expected}"));
    }

    // The schedule's span trace must be complete and audit clean.
    finish(fsc.net(), seed, &[])
}

#[test]
fn chaos_schedules_preserve_fork_invariants() {
    let seeds = proptest_seed_set(
        concat!(module_path!(), "::chaos_schedules_preserve_fork_invariants"),
        128,
    );
    run_schedules_parallel(&seeds, run_schedule);
}

/// The acceptance-criterion demonstration: a remote FORK survives an
/// injected drop of its own request message through the shared retry
/// path — the drop is observable in the retry counters, and the fork
/// still succeeds.
#[test]
fn remote_fork_survives_an_injected_request_drop() {
    let (fsc, pm) = cluster();
    fsc.net().install_faults(
        FaultPlan::new(21).kind_spec("FORK req", FaultSpec::drop_rate(0.6)),
    );
    let parent = pm.spawn_init(&fsc, HOME, 1).expect("spawn_init");
    let child = pm
        .fork(&fsc, parent, Some(SiteId(2)))
        .expect("fork rides out the dropped request");
    assert_eq!(pm.site_of(child).unwrap(), SiteId(2));
    let st = fsc.net().stats();
    assert!(
        st.drops("FORK req") > 0,
        "the schedule must actually drop a FORK req"
    );
    assert!(
        st.retries("FORK req") > 0,
        "the shared retry path must have resent it"
    );
    assert_eq!(st.sends("FORK req"), 1, "exactly one request got through");
    assert_eq!(st.sends("PROC page"), 16, "the image still crossed intact");
    assert!(st.service("proc").retries > 0, "retries tagged to the service");
}

/// A remote EXIT notify abandoned after retry exhaustion is no longer
/// silent: the engine counts it as a one-way loss against the proc
/// service.
#[test]
fn lost_exit_notify_is_counted_not_silent() {
    let (fsc, pm) = cluster();
    let parent = pm.spawn_init(&fsc, HOME, 1).expect("spawn_init");
    let child = pm.fork(&fsc, parent, Some(SiteId(1))).expect("fork");
    fsc.net().install_faults(
        FaultPlan::new(3).kind_spec("EXIT notify", FaultSpec::drop_rate(1.0)),
    );
    pm.exit(&fsc, child, 0).expect("exit");
    let st = fsc.net().stats();
    assert_eq!(st.sends("EXIT notify"), 0, "every attempt was dropped");
    assert_eq!(st.one_way_losses("EXIT notify"), 1);
    assert_eq!(st.service("proc").losses, 1);
    // The parent still learns of the death locally (shared process
    // table); a real partition would leave this to §5.6 cleanup.
    assert!(pm.wait(parent).expect("wait").is_some());
}

/// Replaying one schedule must produce a byte-identical event stream:
/// the proc protocol inherits the engine's determinism.
#[test]
fn proc_protocol_trace_is_deterministic() {
    let run = |seed: u64| -> Observation {
        let (fsc, pm) = cluster();
        fsc.net().set_observing(true);
        fsc.net().install_faults(plan_for(seed));
        let _ = run_schedule_traced(seed, &fsc, &pm);
        assert_eq!(fsc.net().obs_truncated(), 0, "trace must be complete");
        (
            fsc.net().take_obs_events(),
            fsc.net().obs_histograms(),
            fsc.net().stats(),
        )
    };
    let (ta, ha, sa) = run(0xFEED);
    let (tb, hb, sb) = run(0xFEED);
    assert_eq!(ta, tb, "protocol traces diverged between identical runs");
    assert_eq!(ha, hb, "latency histograms diverged between identical runs");
    assert_eq!(sa, sb, "statistics diverged between identical runs");
    assert!(ha.keys().any(|(svc, _)| svc == "proc"), "proc ops observed");
}

/// The schedule body reused by the determinism check (faults already
/// installed by the caller so tracing can be enabled first).
fn run_schedule_traced(seed: u64, fsc: &FsCluster, pm: &ProcMgr) -> Result<(), String> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x00D1_5EA5);
    let parent = pm
        .spawn_init(fsc, HOME, 1)
        .map_err(|e| format!("spawn_init: {e:?}"))?;
    for _ in 0..STEPS {
        let dest = SiteId(rng.gen_range(0u32..N_SITES));
        if let Ok(child) = pm.fork(fsc, parent, Some(dest)) {
            let _ = pm.exit(fsc, child, 0);
        }
    }
    Ok(())
}

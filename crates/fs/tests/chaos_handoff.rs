//! Gray-failure chaos: live CSS handoff and replica reconfiguration under
//! one-directional slow links.
//!
//! The schedules here exercise the full robustness loop the health monitor
//! and the handoff protocol promise together:
//!
//! * **Detect.** A one-directional slow link is installed on the CSS's
//!   outbound direction mid-workload (requests reach it fine, replies
//!   crawl — the classic gray failure). The passive health monitor must
//!   notice the latency drift and quarantine the site without any
//!   topology change.
//! * **Isolate.** While quarantined, the site takes no new storage-site
//!   role and refuses commits; the trace auditor's quarantine-isolation
//!   invariant rejects any `commit.begin` inside the window.
//! * **Hand off.** `css_handoff` moves the synchronization role to a
//!   healthy container under a fresh epoch while the workload keeps
//!   running; post-handoff writes must succeed without a stop-the-world
//!   poll. The auditor's CSS-epoch invariant checks each `css.claim` is
//!   strictly newer than the last.
//! * **Recover.** Once the fault lifts, probation probes readmit the site
//!   and the final settle reconverges every replica: zero committed
//!   writes lost, none duplicated, byte-exact content everywhere.
//!
//! A second family races commits, opens and name-cache probes against
//! `css_handoff` / `replica_add` / `replica_remove` with message drops
//! *and* a gray link active. Every seed of both families runs twice and
//! must produce byte-identical protocol traces and latency histograms:
//! reconfiguration never breaks replay determinism.

use locus_fs::{
    css_handoff, probation_probe, replica_add, replica_remove, FsCluster, FsClusterBuilder,
};
use locus_net::{FaultPlan, FaultSpec, HealthPolicy, RetryPolicy, SimRng, SiteHealth};
use locus_testkit::{
    finish, replays_identically, run_schedules_parallel, seed_set, Observation, VersionedFile,
};
use locus_types::{FilegroupId, SiteId, Ticks};

/// Sites holding a container of the root filegroup.
const CONTAINERS: [u32; 3] = [0, 1, 2];
/// Total sites: three containers, a diskless writer, a spare site that
/// the racing schedules turn into a late-added container.
const N_SITES: u32 = 5;
/// The root filegroup.
const FG: FilegroupId = FilegroupId(0);
/// The single writer: diskless, so every open crosses the network.
const WRITER: SiteId = SiteId(3);
/// The build-time CSS (lowest container site) that goes gray.
const OLD_CSS: SiteId = SiteId(0);
/// The healthy container the synchronization role moves to.
const NEW_CSS: SiteId = SiteId(1);

/// The file every schedule fights over.
const GRAY: VersionedFile = VersionedFile::new("/gray");

/// A health policy tuned so latency drift crosses the quarantine bar
/// within a handful of operations (the defaults take a longer workload).
fn trigger_happy_policy() -> HealthPolicy {
    HealthPolicy {
        suspect_score: 6,
        quarantine_score: 12,
        slow_penalty: 4,
        drift_min_samples: 6,
        ..HealthPolicy::default()
    }
}

fn build_cluster() -> FsCluster {
    FsClusterBuilder::new()
        .vax_sites(N_SITES as usize)
        .filegroup("root", &CONTAINERS)
        .retry_policy(RetryPolicy {
            max_attempts: 12,
            base_backoff: Ticks::millis(1),
            ..RetryPolicy::default()
        })
        // The name cache's version-vector probes must stay coherent
        // through every CSS move these schedules perform.
        .name_cache(true)
        .build()
}

/// The acceptance scenario: a one-directional slow link on the CSS's
/// outbound direction mid-workload → latency-drift detection →
/// quarantine → live CSS handoff (writes keep succeeding) → fault lifts
/// → probation probes readmit the site → every replica reconverges.
fn run_gray_handoff_schedule(seed: u64) -> Result<Observation, String> {
    let fsc = build_cluster();
    let net = fsc.net();
    net.enable_health(trigger_happy_policy());
    net.set_observing(true);
    GRAY.create(&fsc, WRITER, seed)?;
    fsc.settle();

    // Phase 1: warm the per-link latency baselines on a healthy network
    // (drift detection needs `drift_min_samples` per directed link).
    for i in 0..10u32 {
        let us = if i % 3 == 2 { SiteId(4) } else { WRITER };
        GRAY.read(&fsc, us)
            .map_err(|e| format!("seed {seed}: warmup read at {us:?} failed: {e:?}"))?;
    }

    // Phase 2: the CSS goes gray — every link *out of* it slows down
    // while inbound traffic is unaffected (asymmetric degradation).
    let mut plan = FaultPlan::new(seed);
    for t in 0..N_SITES {
        if t != OLD_CSS.0 {
            plan = plan.slow_link(OLD_CSS, SiteId(t), 12, Ticks::millis(3));
        }
    }
    net.install_faults(plan);

    // Phase 3: keep the workload running until the monitor quarantines
    // the gray CSS. Pure slowness drops nothing, but an operation that
    // straddles the quarantine transition may be refused mid-commit, so
    // individual failures are tolerated here.
    let mut wl = SimRng::seed_from_u64(seed ^ 0x00D1_5EA5);
    let mut next_version = 1u32;
    let mut confirmed = 0u32;
    let mut steps = 0u32;
    while !net.quarantined(OLD_CSS) && steps < 80 {
        steps += 1;
        if wl.gen_bool(0.5) {
            let v = next_version;
            next_version += 1;
            if GRAY.write(&fsc, WRITER, v).is_ok() {
                confirmed = v;
            }
        } else if let Ok(v) = GRAY.read(&fsc, WRITER) {
            if v < confirmed || v >= next_version {
                return Err(format!(
                    "seed {seed}: read v{v} outside committed window [{confirmed}, {}]",
                    next_version - 1
                ));
            }
        }
    }
    if !net.quarantined(OLD_CSS) {
        return Err(format!(
            "seed {seed}: {steps} gray operations never tripped quarantine \
             (score {})",
            net.health_score(OLD_CSS)
        ));
    }

    // Phase 4: live handoff to a healthy container — no stop-the-world
    // poll, the workload continues immediately after.
    let rep = css_handoff(&fsc, FG, NEW_CSS)
        .map_err(|e| format!("seed {seed}: css_handoff failed: {e:?}"))?;
    if rep.new_css != NEW_CSS || rep.epoch == 0 {
        return Err(format!("seed {seed}: bogus handoff report: {rep:?}"));
    }
    if !rep.state_transferred {
        return Err(format!(
            "seed {seed}: old CSS was reachable (merely slow) — state must transfer"
        ));
    }

    // Phase 5: with the role moved off the gray site, every write and
    // read must succeed outright (the fault is still installed!).
    for _ in 0..5 {
        let v = next_version;
        next_version += 1;
        GRAY.write(&fsc, WRITER, v)
            .map_err(|e| format!("seed {seed}: post-handoff write v{v} failed: {e:?}"))?;
        confirmed = v;
        let us = if wl.gen_bool(0.5) { WRITER } else { SiteId(4) };
        let r = GRAY.read(&fsc, us)
            .map_err(|e| format!("seed {seed}: post-handoff read at {us:?} failed: {e:?}"))?;
        if r != confirmed {
            return Err(format!(
                "seed {seed}: post-handoff read at {us:?} saw v{r}, expected v{confirmed}"
            ));
        }
    }

    // Phase 6: the gray condition clears; probation probes readmit the
    // site instead of leaving it isolated forever.
    net.clear_faults();
    let readmitted = probation_probe(&fsc, WRITER, OLD_CSS, FG, 32)
        .map_err(|e| format!("seed {seed}: probation probe failed: {e:?}"))?;
    if !readmitted {
        return Err(format!(
            "seed {seed}: probation probes did not readmit the healed site"
        ));
    }
    if net.site_health(OLD_CSS) != SiteHealth::Healthy || net.quarantined(OLD_CSS) {
        return Err(format!(
            "seed {seed}: readmitted site is not healthy: {:?}",
            net.site_health(OLD_CSS)
        ));
    }

    // Phase 7: reconvergence — no committed write lost, none invented.
    fsc.settle();
    GRAY.check_convergence(&fsc, seed, confirmed, next_version)?;
    finish(
        net,
        seed,
        &["health.quarantine", "css.claim", "health.probation", "health.readmit"],
    )
}

/// Racing schedule: commits, reads and name-cache probes interleave with
/// CSS handoffs, live replica addition/removal and probabilistic message
/// loss on top of a gray link. Checks the same durability window plus a
/// clean audit; per-operation failures are tolerated (drops can defeat
/// any finite retry budget) but committed data may never be lost.
fn run_reconfig_race_schedule(seed: u64) -> Result<Observation, String> {
    let fsc = build_cluster();
    let net = fsc.net();
    net.enable_health(trigger_happy_policy());
    net.set_observing(true);
    GRAY.create(&fsc, WRITER, seed)?;
    fsc.settle();

    let mut wl = SimRng::seed_from_u64(seed ^ 0x6E47_A110);
    let spec = FaultSpec {
        drop: 0.02 + wl.gen_f64() * 0.10,
        duplicate: wl.gen_f64() * 0.05,
        delay_prob: wl.gen_f64() * 0.15,
        delay: Ticks::micros(wl.gen_range(20u64..150)),
        circuit_abort: 0.0,
    };
    let gray_from = SiteId(CONTAINERS[wl.gen_range(0usize..CONTAINERS.len())]);
    let plan = FaultPlan::new(seed)
        .default_spec(spec)
        .slow_link(gray_from, WRITER, 8, Ticks::millis(2));
    net.install_faults(plan);

    let mut next_version = 1u32;
    let mut confirmed = 0u32;
    for _ in 0..18 {
        let roll = wl.gen_range(0u32..100);
        if roll < 45 {
            let v = next_version;
            next_version += 1;
            // A failed session may still have committed (the ack was
            // lost): `confirmed` stays, but reads may now see `v`.
            if GRAY.write(&fsc, WRITER, v).is_ok() {
                confirmed = v;
            }
        } else if roll < 75 {
            let us = SiteId(wl.gen_range(0u32..N_SITES));
            if let Ok(v) = GRAY.read(&fsc, us) {
                if v < confirmed || v >= next_version {
                    return Err(format!(
                        "seed {seed}: read v{v} outside committed window [{confirmed}, {}]",
                        next_version - 1
                    ));
                }
            }
        } else if roll < 85 {
            // Move the synchronization role to a random original
            // container; refusals (target gray, messages lost) are part
            // of the chaos.
            let target = SiteId(CONTAINERS[wl.gen_range(0usize..CONTAINERS.len())]);
            let _ = css_handoff(&fsc, FG, target);
        } else if roll < 93 {
            let _ = replica_add(&fsc, FG, SiteId(4));
        } else {
            let _ = replica_remove(&fsc, FG, SiteId(4));
        }
    }

    // Heal: lift every fault, walk any quarantined container back in
    // through probation, then settle and require full convergence.
    net.clear_faults();
    for s in 0..N_SITES {
        let s = SiteId(s);
        if !net.quarantined(s) {
            continue;
        }
        let from = if s == WRITER { SiteId(4) } else { WRITER };
        let readmitted = probation_probe(&fsc, from, s, FG, 64)
            .map_err(|e| format!("seed {seed}: probation probe to {s:?} failed: {e:?}"))?;
        if !readmitted {
            return Err(format!(
                "seed {seed}: site {s:?} stayed quarantined on a clean network"
            ));
        }
    }
    fsc.settle();
    GRAY.check_convergence(&fsc, seed, confirmed, next_version)?;
    finish(net, seed, &[])
}

/// Every seed runs the full detect → quarantine → handoff → readmit
/// scenario **twice** and both runs must be byte-identical: the health
/// monitor, the gray fault pipeline and the handoff protocol are all
/// deterministic in the seed.
#[test]
fn gray_handoff_schedules_recover_and_replay_identically() {
    run_schedules_parallel(&seed_set(0x61A4_F00D, 64), |seed| {
        replays_identically(seed, run_gray_handoff_schedule)
    });
}

/// Reconfiguration races (handoff + replica add/remove vs. the live
/// workload under loss and a gray link) preserve the durability window
/// and replay determinism across every seed.
#[test]
fn reconfig_races_preserve_durability_and_determinism() {
    run_schedules_parallel(&seed_set(0x00DD_C0DE, 48), |seed| {
        replays_identically(seed, run_reconfig_race_schedule)
    });
}

//! Placement chaos: adaptive CSS migration under load, racing NotCss
//! redirects, and attempted handoff storms.
//!
//! Three schedule families over a sharded namespace (two shard
//! filegroups mounted under a shared root), each across 64+ seeds with
//! every seed run **twice** — both runs must produce byte-identical
//! protocol traces and statistics, because the placement driver
//! samples only kernel counters and the virtual clock:
//!
//! * **Migration under load.** A shard's CSS goes gray mid-workload;
//!   the health monitor quarantines it and the next placement step must
//!   evacuate the role to the healthy container while writes keep
//!   succeeding, then reconverge byte-exactly once the fault lifts.
//! * **Racing NotCss redirects.** Manual handoffs, placement steps and
//!   a lossy network interleave with a multi-site workload, so opens
//!   constantly chase stale synchronization-site tables. The NotCss
//!   healing path plus CSS-epoch fencing must keep the committed window
//!   intact, and the trace must satisfy every audit invariant.
//! * **Handoff storm.** An adversarial policy (zero hysteresis, no
//!   driver cooldown, load flapping every step) tries to thrash a role
//!   between two containers. The *mechanism* cooldown must bound the
//!   claim rate: the suite asserts no filegroup ever records two
//!   successful claims within [`locus_net::CSS_CLAIM_COOLDOWN`] — the
//!   same bound the offline auditor re-checks as invariant 9.

use std::collections::BTreeMap;

use locus_fs::{
    css_handoff, probation_probe, FsCluster, FsClusterBuilder, PlacementDriver, PlacementPolicy,
};
use locus_net::{
    FaultPlan, FaultSpec, HealthPolicy, Net, ObsEvent, RetryPolicy, SimRng, CSS_CLAIM_COOLDOWN,
};
use locus_testkit::{
    replays_identically, run_schedules_parallel, seed_set, Observation, VersionedFile,
};
use locus_topology::PlacementConfig;
use locus_types::{FilegroupId, SiteId, Ticks};

/// Five sites: site 0 holds the root, sites 1–3 hold the shard
/// containers, site 4 is the diskless writer.
const N_SITES: u32 = 5;
/// Shard one: containers sites 1 and 2, CSS starts at 1.
const FG1: FilegroupId = FilegroupId(1);
/// Shard two: containers sites 2 and 3, CSS starts at 2.
const FG2: FilegroupId = FilegroupId(2);
/// The diskless writer driving every workload.
const WRITER: SiteId = SiteId(4);

/// The shard-one file (`/s0`, containers 1 and 2).
const F0: VersionedFile = VersionedFile::new("/s0/f");
/// The shard-two file (`/s1`, containers 2 and 3).
const F1: VersionedFile = VersionedFile::new("/s1/f");

fn trigger_happy_policy() -> HealthPolicy {
    HealthPolicy {
        suspect_score: 6,
        quarantine_score: 12,
        slow_penalty: 4,
        drift_min_samples: 6,
        ..HealthPolicy::default()
    }
}

/// The sharded cluster: `/s0` (containers 1, 2) and `/s1` (containers
/// 2, 3) under a root filegroup at site 0.
fn build_cluster() -> FsCluster {
    FsClusterBuilder::new()
        .vax_sites(N_SITES as usize)
        .filegroup("root", &[0])
        .filegroup_mounted("s0", &[1, 2], "/s0")
        .css_at(1)
        .filegroup_mounted("s1", &[2, 3], "/s1")
        .css_at(2)
        .retry_policy(RetryPolicy {
            max_attempts: 12,
            base_backoff: Ticks::millis(1),
            ..RetryPolicy::default()
        })
        .name_cache(true)
        .build()
}

/// Seeds `/s0/f` and `/s1/f` at version 0 on a pristine network.
fn seed_files(fsc: &FsCluster, seed: u64) -> Result<(), String> {
    F0.create(fsc, WRITER, seed)?;
    F1.create(fsc, WRITER, seed)?;
    fsc.settle();
    Ok(())
}

/// Common tail: [`locus_testkit::finish`] (whose audit re-checks the
/// claim-cooldown bound as invariant 9), then the same storm bound
/// asserted explicitly, independent of the auditor.
fn finish(net: &Net, seed: u64, required_notes: &[&str]) -> Result<Observation, String> {
    let obs = locus_testkit::finish(net, seed, required_notes)?;
    // No two successful claims for one filegroup within the mechanism
    // cooldown.
    let mut last_claim: BTreeMap<&str, Ticks> = BTreeMap::new();
    for e in &obs.0 {
        if let ObsEvent::Note { at, key, label, .. } = e {
            if key == "css.claim" {
                if let Some(&prev) = last_claim.get(label.as_str()) {
                    if at.saturating_sub(prev) < CSS_CLAIM_COOLDOWN {
                        return Err(format!(
                            "seed {seed}: two `{label}` claims {}us apart (cooldown {}us)",
                            at.saturating_sub(prev).as_micros(),
                            CSS_CLAIM_COOLDOWN.as_micros()
                        ));
                    }
                }
                last_claim.insert(label.as_str(), *at);
            }
        }
    }
    Ok(obs)
}

/// Family 1: the shard-one CSS (site 1) goes gray under load. The
/// placement driver, stepped alongside the workload, must quarantine-
/// evacuate the role to the healthy container (site 2) without being
/// asked, and the workload keeps committing throughout.
fn run_migration_under_load_schedule(seed: u64) -> Result<Observation, String> {
    let fsc = build_cluster();
    let net = fsc.net();
    net.enable_health(trigger_happy_policy());
    net.set_observing(true);
    seed_files(&fsc, seed)?;

    let mut driver = PlacementDriver::new(PlacementPolicy {
        config: PlacementConfig {
            hysteresis_pct: 25,
            min_load: 2,
        },
        ..Default::default()
    });

    // Warm latency baselines, then the shard-one CSS goes gray outbound.
    for _ in 0..10 {
        F0.read(&fsc, WRITER)
            .map_err(|e| format!("seed {seed}: warmup read failed: {e:?}"))?;
    }
    let mut plan = FaultPlan::new(seed);
    for t in 0..N_SITES {
        if t != 1 {
            plan = plan.slow_link(SiteId(1), SiteId(t), 12, Ticks::millis(3));
        }
    }
    net.install_faults(plan);

    let mut wl = SimRng::seed_from_u64(seed ^ 0x00D1_5EA5);
    let mut next_version = 1u32;
    let mut confirmed = 0u32;
    let mut steps = 0u32;
    while fsc.kernel(WRITER).mount.css_of(FG1).unwrap() == SiteId(1) && steps < 80 {
        steps += 1;
        if wl.gen_bool(0.6) {
            let v = next_version;
            next_version += 1;
            if F0.write(&fsc, WRITER, v).is_ok() {
                confirmed = v;
            }
        } else {
            let _ = F0.read(&fsc, WRITER);
        }
        driver.step(&fsc);
    }
    let new_css = fsc.kernel(WRITER).mount.css_of(FG1).unwrap();
    if new_css == SiteId(1) {
        return Err(format!(
            "seed {seed}: {steps} gray operations and placement steps never \
             evacuated the shard-one CSS (health score {})",
            net.health_score(SiteId(1))
        ));
    }
    if new_css != SiteId(2) {
        return Err(format!(
            "seed {seed}: shard-one CSS evacuated to non-container {new_css:?}"
        ));
    }
    if driver.migrations == 0 {
        return Err(format!("seed {seed}: driver recorded no migrations"));
    }

    // The role is off the gray site: every write must succeed outright.
    for _ in 0..5 {
        let v = next_version;
        next_version += 1;
        F0.write(&fsc, WRITER, v)
            .map_err(|e| format!("seed {seed}: post-migration write v{v} failed: {e:?}"))?;
        confirmed = v;
        driver.step(&fsc);
    }

    // Heal, readmit, reconverge.
    net.clear_faults();
    let readmitted = probation_probe(&fsc, WRITER, SiteId(1), FG1, 32)
        .map_err(|e| format!("seed {seed}: probation probe failed: {e:?}"))?;
    if !readmitted {
        return Err(format!(
            "seed {seed}: probation probes did not readmit the healed site"
        ));
    }
    fsc.settle();
    F0.check_convergence(&fsc, seed, confirmed, next_version)?;
    finish(net, seed, &["health.quarantine", "css.claim", "css.depth"])
}

/// Family 2: placement steps, manual handoffs and a lossy network race
/// a two-shard multi-site workload. Stale CSS tables are healed by
/// NotCss redirects mid-open; the committed windows of both shard files
/// survive every interleaving.
fn run_notcss_race_schedule(seed: u64) -> Result<Observation, String> {
    let fsc = build_cluster();
    let net = fsc.net();
    net.enable_health(trigger_happy_policy());
    net.set_observing(true);
    seed_files(&fsc, seed)?;

    let mut driver = PlacementDriver::new(PlacementPolicy {
        config: PlacementConfig {
            hysteresis_pct: 25,
            min_load: 2,
        },
        ..Default::default()
    });

    let mut wl = SimRng::seed_from_u64(seed ^ 0x6E47_A110);
    let spec = FaultSpec {
        drop: 0.02 + wl.gen_f64() * 0.08,
        duplicate: wl.gen_f64() * 0.05,
        delay_prob: wl.gen_f64() * 0.15,
        delay: Ticks::micros(wl.gen_range(20u64..150)),
    };
    net.install_faults(FaultPlan::new(seed).default_spec(spec));

    // Per shard: (file, fg, containers, next_version, confirmed).
    let mut shards = [(F0, FG1, [1u32, 2], 1u32, 0u32), (F1, FG2, [2, 3], 1, 0)];
    for _ in 0..20 {
        let roll = wl.gen_range(0u32..100);
        let which = wl.gen_range(0usize..2);
        let (file, fg, containers, next_version, confirmed) = {
            let s = &mut shards[which];
            (s.0, s.1, s.2, &mut s.3, &mut s.4)
        };
        if roll < 40 {
            let v = *next_version;
            *next_version += 1;
            if file.write(&fsc, WRITER, v).is_ok() {
                *confirmed = v;
            }
        } else if roll < 70 {
            // Reads from any site exercise NotCss healing: a site whose
            // table still names the old CSS is redirected and retries.
            let us = SiteId(wl.gen_range(0u32..N_SITES));
            if let Ok(v) = file.read(&fsc, us) {
                if v < *confirmed || v >= *next_version {
                    return Err(format!(
                        "seed {seed}: read {} v{v} outside committed window [{}, {}]",
                        file.path,
                        *confirmed,
                        *next_version - 1
                    ));
                }
            }
        } else if roll < 85 {
            // A manual migration racing the driver's own decisions;
            // cooldown refusals and lost races are part of the chaos.
            let target = SiteId(containers[wl.gen_range(0usize..2)]);
            let _ = css_handoff(&fsc, fg, target);
        } else {
            driver.step(&fsc);
        }
    }

    // Heal: lift every fault, walk any quarantined site back in through
    // probation, then settle and require full convergence.
    net.clear_faults();
    for s in 0..N_SITES {
        let s = SiteId(s);
        if !net.quarantined(s) {
            continue;
        }
        let from = if s == WRITER { SiteId(0) } else { WRITER };
        let readmitted = probation_probe(&fsc, from, s, FG1, 64)
            .map_err(|e| format!("seed {seed}: probation probe to {s:?} failed: {e:?}"))?;
        if !readmitted {
            return Err(format!(
                "seed {seed}: site {s:?} stayed quarantined on a clean network"
            ));
        }
    }
    fsc.settle();
    for (file, _, _, next_version, confirmed) in shards {
        file.check_convergence(&fsc, seed, confirmed, next_version)?;
    }
    finish(net, seed, &[])
}

/// Family 3: an adversarial policy — zero hysteresis, no driver
/// cooldown, minimal load threshold — plus load that flaps between the
/// two shard-one containers every iteration, trying to thrash the role.
/// The mechanism cooldown must bound the storm; [`finish`] asserts the
/// per-window claim bound explicitly and via audit invariant 9.
fn run_handoff_storm_schedule(seed: u64) -> Result<Observation, String> {
    let fsc = build_cluster();
    let net = fsc.net();
    net.enable_health(trigger_happy_policy());
    net.set_observing(true);
    seed_files(&fsc, seed)?;

    let mut driver = PlacementDriver::new(PlacementPolicy {
        config: PlacementConfig {
            hysteresis_pct: 0,
            min_load: 1,
        },
        fg_cooldown: Ticks::ZERO,
        max_moves_per_step: 8,
    });

    let mut wl = SimRng::seed_from_u64(seed ^ 0x5702_4D00);
    let mut next_version = 1u32;
    let mut confirmed = 0u32;
    let mut refused_total = 0u64;
    for i in 0..30 {
        // Flapping load: reads from alternating container sites skew
        // the served-request attribution back and forth, so the greedy
        // policy proposes a move nearly every step.
        let us = SiteId(1 + (i % 2) as u32);
        let _ = F0.read(&fsc, us);
        if wl.gen_bool(0.4) {
            let v = next_version;
            next_version += 1;
            if F0.write(&fsc, WRITER, v).is_ok() {
                confirmed = v;
            }
        }
        let r = driver.step(&fsc);
        refused_total += r.refused;
    }
    // The greedy policy must actually have been provoked: either moves
    // happened or the mechanism refused them — a storm schedule where
    // neither occurred tested nothing.
    if driver.migrations + refused_total == 0 {
        return Err(format!(
            "seed {seed}: storm schedule provoked no migrations and no refusals"
        ));
    }
    fsc.settle();
    F0.check_convergence(&fsc, seed, confirmed, next_version)?;
    finish(net, seed, &["css.claim"])
}

/// Gray CSS under load: the placement driver evacuates the role on its
/// own, writes keep committing, and every seed replays byte-identically.
#[test]
fn placement_migrates_under_load_and_replays_identically() {
    run_schedules_parallel(&seed_set(0x91AC_E000, 64), |seed| {
        replays_identically(seed, run_migration_under_load_schedule)
    });
}

/// NotCss redirect races under loss preserve both shards' durability
/// windows and replay determinism.
#[test]
fn notcss_races_preserve_durability_and_determinism() {
    run_schedules_parallel(&seed_set(0x007C_55AA, 64), |seed| {
        replays_identically(seed, run_notcss_race_schedule)
    });
}

/// Handoff storms are bounded by the mechanism cooldown on every seed,
/// and replay byte-identically.
#[test]
fn handoff_storms_are_cooldown_bounded() {
    run_schedules_parallel(&seed_set(0x5702_4DFF, 64), |seed| {
        replays_identically(seed, run_handoff_storm_schedule)
    });
}

//! Chaos harness for the reconfiguration protocols: seeded fault
//! schedules drive partition and merge polls through the shared RPC
//! engine, including site crashes that fire *mid-poll*.
//!
//! Each case builds an N-site network, installs a seed-derived
//! [`FaultPlan`] (drops/duplicates/delays up to 30 % loss, and — in
//! every schedule — a site crash window timed to open while the polls
//! are in flight) and runs the §5.4 partition protocol followed by the
//! §5.5 merge protocol. The invariants are the consensus criteria the
//! paper states:
//!
//! * **Termination with the active site included.** The iterative
//!   intersection always converges, and the polling site is a member of
//!   its own partition.
//! * **Consensus: Pα = Pβ for every α, β.** After the announcement,
//!   every member's belief equals the agreed set — message loss may
//!   shrink the partition, but it may never leave two members believing
//!   different partitions.
//! * **Merge extends, never shrinks.** The merged partition contains
//!   the initiator and is a superset of no belief it replaces
//!   arbitrarily: every member's belief becomes exactly the new set.
//! * **Determinism**: replaying one schedule produces a byte-identical
//!   network trace.

use std::collections::{BTreeMap, BTreeSet};

use locus_net::{FaultPlan, FaultSpec, Net, SimRng};
use locus_testkit::{finish, proptest_seed_set, run_schedules_parallel, Observation};
use locus_topology::{merge_protocol, partition_protocol, MergeTimeouts};
use locus_types::{SiteId, Ticks};

/// Sites in the network.
const N_SITES: u32 = 5;
/// The polling / initiating site.
const ACTIVE: SiteId = SiteId(0);

fn full_beliefs() -> BTreeMap<SiteId, BTreeSet<SiteId>> {
    let all: BTreeSet<SiteId> = (0..N_SITES).map(SiteId).collect();
    (0..N_SITES).map(|i| (SiteId(i), all.clone())).collect()
}

/// A seed-derived fault plan. Unlike the fs/proc harnesses, *every*
/// schedule crashes a non-active site, with the window timed in the
/// first few virtual milliseconds so it opens while polls are still
/// being exchanged — the mid-poll failure of the satellite brief.
fn plan_for(seed: u64) -> (FaultPlan, SiteId) {
    let mut rng = SimRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0070_7070);
    let spec = FaultSpec {
        drop: 0.05 + rng.gen_f64() * 0.25,
        duplicate: rng.gen_f64() * 0.10,
        delay_prob: rng.gen_f64() * 0.20,
        delay: Ticks::micros(rng.gen_range(20u64..200)),
    };
    let victim = SiteId(rng.gen_range(1u32..N_SITES));
    let at = Ticks::micros(rng.gen_range(100u64..4_000));
    let until = Ticks::micros(at.as_micros() + rng.gen_range(5_000u64..40_000));
    let plan = FaultPlan::new(seed)
        .default_spec(spec)
        .crash_window(victim, at, until);
    (plan, victim)
}

/// One schedule: partition protocol, then merge protocol, under a crash
/// window that opens mid-poll.
fn run_schedule(seed: u64) -> Result<Observation, String> {
    let net = Net::new(N_SITES as usize);
    net.set_observing(true);
    let (plan, _victim) = plan_for(seed);
    net.install_faults(plan);
    let mut beliefs = full_beliefs();

    let out = partition_protocol(&net, ACTIVE, &mut beliefs);
    if !out.members.contains(&ACTIVE) {
        return Err(format!(
            "active site fell out of its own partition: {out:?}"
        ));
    }
    // Consensus criterion (§5.4): Pα = Pβ for every pair of members.
    for m in &out.members {
        if beliefs.get(m) != Some(&out.members) {
            return Err(format!(
                "member {m:?} believes {:?}, consensus was {:?}",
                beliefs.get(m),
                out.members
            ));
        }
    }

    let mo = merge_protocol(&net, ACTIVE, &mut beliefs, MergeTimeouts::default());
    if !mo.members.contains(&ACTIVE) {
        return Err(format!("initiator missing from its own merge: {mo:?}"));
    }
    if mo.polls != N_SITES - 1 {
        return Err(format!(
            "merge must check all possible sites: polled {} of {}",
            mo.polls,
            N_SITES - 1
        ));
    }
    for m in &mo.members {
        if beliefs.get(m) != Some(&mo.members) {
            return Err(format!(
                "merge member {m:?} believes {:?}, merged set was {:?}",
                beliefs.get(m),
                mo.members
            ));
        }
    }

    // The schedule's span trace must be complete and audit clean.
    finish(&net, seed, &[])
}

#[test]
fn chaos_schedules_preserve_reconfig_consensus() {
    let seeds = proptest_seed_set(
        concat!(
            module_path!(),
            "::chaos_schedules_preserve_reconfig_consensus"
        ),
        128,
    );
    run_schedules_parallel(&seeds, run_schedule);
}

/// A deterministic mid-poll crash: the victim dies while the partition
/// protocol is polling, falls out of the partition, and the survivors
/// still reach consensus with each other.
#[test]
fn mid_poll_crash_excludes_the_victim_and_keeps_consensus() {
    let net = Net::new(N_SITES as usize);
    let victim = SiteId(3);
    // No message faults — the only disturbance is the crash, timed after
    // the first poll exchanges have advanced the clock.
    net.install_faults(FaultPlan::new(1).crash_window(victim, Ticks::micros(300), Ticks::secs(10)));
    let mut beliefs = full_beliefs();
    let out = partition_protocol(&net, ACTIVE, &mut beliefs);
    assert!(
        !out.members.contains(&victim),
        "the mid-poll crash victim must fall out: {:?}",
        out.members
    );
    assert!(out.members.contains(&ACTIVE));
    for m in &out.members {
        assert_eq!(beliefs[m], out.members, "survivors agree");
    }
}

/// Replaying one schedule must produce a byte-identical event stream:
/// the reconfiguration protocols inherit the engine's determinism.
#[test]
fn reconfig_trace_is_deterministic() {
    let run = |seed: u64| -> Observation {
        let net = Net::new(N_SITES as usize);
        net.set_observing(true);
        let (plan, _) = plan_for(seed);
        net.install_faults(plan);
        let mut beliefs = full_beliefs();
        let _ = partition_protocol(&net, ACTIVE, &mut beliefs);
        let _ = merge_protocol(&net, ACTIVE, &mut beliefs, MergeTimeouts::default());
        assert_eq!(net.obs_truncated(), 0, "trace must be complete");
        (net.take_obs_events(), net.stats())
    };
    let (ta, sa) = run(0xACE5);
    let (tb, sb) = run(0xACE5);
    assert_eq!(ta, tb, "protocol traces diverged between identical runs");
    assert_eq!(sa, sb, "statistics diverged between identical runs");
    assert!(
        locus_net::op_stats(&ta)
            .iter()
            .any(|s| s.service == "topology"),
        "topology ops observed"
    );
}

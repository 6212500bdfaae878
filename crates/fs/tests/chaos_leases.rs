//! Lease-coherence chaos: name-cache leases under message loss, crashes,
//! quarantine, CSS handoff and partitions.
//!
//! The lease protocol turns the name cache's pull validation into push
//! invalidation: the CSS grants a per-(site, inode) lease on the
//! validation probe, warm hits are then served locally with zero
//! messages, and every commit path recalls the lease before `commit.end`
//! closes the critical section. These schedules attack exactly the
//! places where a push protocol can go stale:
//!
//! * **recall loss + retry** — recalls ride the idempotent RPC plane
//!   under up to 30% message loss; a lost recall must be retried (or the
//!   holder unilaterally revoked) before the commit completes, so no
//!   read after a committed write may observe the old version;
//! * **mid-recall crash** — a holder crashes across the recall window;
//!   the CSS revokes it unreachable, and the holder's own §5.6 cleanup
//!   on rejoin drops its stale marks before it may serve again;
//! * **quarantine revoke** — a gray holder is quarantined (its warm path
//!   refuses lease serves immediately) and readmission through probation
//!   revokes everything it held, including pre-quarantine page tags;
//! * **handoff transfer race** — `css_handoff` moves the lease table to
//!   the new CSS under the same epoch as the version/lock state, and the
//!   new CSS's first recall must reach holders it never granted to;
//! * **partition → merge full revoke** — both sides run the §5.6
//!   cleanup: the CSS purges rows held by departed sites, the departed
//!   side flushes its own marks, and after heal + settle every site
//!   reconverges with no stale serve in between.
//!
//! Every seed runs its schedule **twice** (replay determinism): both
//! observations (event stream, statistics) must be
//! byte-identical.

use std::collections::BTreeSet;

use locus_fs::ops::cleanup::cleanup_site;
use locus_fs::ops::namei;
use locus_fs::{css_handoff, probation_probe, FsCluster, FsClusterBuilder};
use locus_net::{FaultPlan, FaultSpec, HealthPolicy, RetryPolicy, SimRng, SiteHealth};
use locus_testkit::{
    ctx, finish, replays_identically, run_schedules_parallel, seed_set, Observation, VersionedFile,
};
use locus_types::{FilegroupId, SiteId, Ticks};

/// Sites holding a container of the root filegroup; site 0 is the CSS.
const CONTAINERS: [u32; 3] = [0, 1, 2];
/// Total sites: three containers, a diskless writer, a diskless reader.
const N_SITES: u32 = 5;
/// The root filegroup.
const FG: FilegroupId = FilegroupId(0);
/// The single writer, diskless so every commit crosses the network.
const WRITER: SiteId = SiteId(3);
/// Reader (and so lease-holder) sites.
const READERS: [u32; 3] = [1, 2, 4];
/// The diskless reader that the crash / quarantine / partition families
/// pick on: no container lives there, so the workload stays available.
const VICTIM: SiteId = SiteId(4);

/// The file every schedule fights over.
const LEASED: VersionedFile = VersionedFile::new("/leased");

fn build_cluster() -> FsCluster {
    FsClusterBuilder::new()
        .vax_sites(N_SITES as usize)
        .filegroup("root", &CONTAINERS)
        .retry_policy(RetryPolicy {
            max_attempts: 12,
            base_backoff: Ticks::millis(1),
            ..RetryPolicy::default()
        })
        .name_leases(true)
        .build()
}

/// Seeds `/leased` at version 0 on a pristine network, then warms every
/// reader through two passes so each holds dentry and attribute leases.
/// A read's pathname search leases the directories; the `stat` leases
/// the file itself (a search interrogates no inode).
fn seed_and_warm(fsc: &FsCluster, seed: u64) -> Result<(), String> {
    LEASED.create(fsc, WRITER, seed)?;
    fsc.settle();
    for r in READERS {
        namei::stat(fsc, SiteId(r), &ctx(fsc, SiteId(r)), LEASED.path)
            .map_err(|e| format!("seed {seed}: warm stat at S{r} failed: {e:?}"))?;
        for _ in 0..2 {
            let v = LEASED
                .read(fsc, SiteId(r))
                .map_err(|e| format!("seed {seed}: warm read at S{r} failed: {e:?}"))?;
            if v != 0 {
                return Err(format!(
                    "seed {seed}: warm read at S{r} saw v{v}, expected v0"
                ));
            }
        }
    }
    if fsc.cache_stats().lease_grants == 0 {
        return Err(format!("seed {seed}: warming granted no leases"));
    }
    Ok(())
}

fn family_rng(family: u64, seed: u64) -> SimRng {
    SimRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (family << 56))
}

fn all_sites() -> BTreeSet<SiteId> {
    (0..N_SITES).map(SiteId).collect()
}

// ---------------------------------------------------------------------
// Family 1: recall loss + retry.
// ---------------------------------------------------------------------

/// Writes race reads under up to 30% message loss. Recalls are
/// idempotent RPCs, so a dropped recall is retried until acked (or the
/// holder revoked); after every *completed* write, no read anywhere may
/// return an older version.
fn run_recall_loss(seed: u64) -> Result<Observation, String> {
    let fsc = build_cluster();
    let net = fsc.net();
    net.set_observing(true);
    seed_and_warm(&fsc, seed)?;

    let mut rng = family_rng(1, seed);
    let spec = FaultSpec {
        drop: 0.05 + rng.gen_f64() * 0.25,
        duplicate: rng.gen_f64() * 0.10,
        delay_prob: rng.gen_f64() * 0.20,
        delay: Ticks::micros(rng.gen_range(20u64..200)),
    };
    net.install_faults(FaultPlan::new(seed).default_spec(spec));

    let mut next_version = 1u32;
    let mut confirmed = 0u32;
    for _ in 0..10 {
        if rng.gen_bool(0.6) {
            let v = next_version;
            next_version += 1;
            if LEASED.write(&fsc, WRITER, v).is_ok() {
                confirmed = v;
            }
        } else {
            let us = SiteId(READERS[rng.gen_range(0usize..READERS.len())]);
            if let Ok(v) = LEASED.read(&fsc, us) {
                if v < confirmed || v >= next_version {
                    return Err(format!(
                        "seed {seed}: stale read v{v} at {us:?} outside committed \
                         window [{confirmed}, {}]",
                        next_version - 1
                    ));
                }
            }
        }
    }

    net.clear_faults();
    fsc.settle();
    let s = fsc.cache_stats();
    if s.lease_recalls == 0 {
        return Err(format!(
            "seed {seed}: the write workload never recalled a lease"
        ));
    }
    // Delivered recalls are acked on the RPC plane, but duplicates may
    // count a delivery twice at the holder — so require *some* acked
    // recalls rather than an exact balance.
    if s.lease_recall_acks == 0 {
        return Err(format!(
            "seed {seed}: {} recalls delivered but none ever acked under loss",
            s.lease_recalls
        ));
    }
    LEASED.check_convergence(&fsc, seed, confirmed, next_version)?;
    finish(net, seed, &["lease.grant", "lease.recall"])
}

// ---------------------------------------------------------------------
// Family 2: mid-recall crash.
// ---------------------------------------------------------------------

/// The diskless holder crashes across the write window, so recalls to it
/// fail and the CSS revokes it unreachable. On rejoin, the holder's §5.6
/// cleanup flushes its stale marks before it serves anything.
fn run_midrecall_crash(seed: u64) -> Result<Observation, String> {
    let fsc = build_cluster();
    let net = fsc.net();
    net.set_observing(true);
    seed_and_warm(&fsc, seed)?;

    let mut rng = family_rng(2, seed);
    net.crash(VICTIM);

    // Writes while the holder is dark: the recall RPC to it fails
    // unreachable and the CSS unilaterally revokes the row — the commit
    // must complete regardless.
    let mut next_version = 1u32;
    let mut confirmed = 0u32;
    for _ in 0..rng.gen_range(1u32..3) {
        let v = next_version;
        next_version += 1;
        LEASED
            .write(&fsc, WRITER, v)
            .map_err(|e| format!("seed {seed}: write v{v} with crashed holder failed: {e:?}"))?;
        confirmed = v;
    }
    if fsc.cache_stats().lease_revokes == 0 {
        return Err(format!(
            "seed {seed}: recalls to a crashed holder must end in unilateral revokes"
        ));
    }

    // The holder revives and runs its own §5.6 rejoin cleanup: its
    // marks — granted before the crash, revoked at the CSS while it was
    // dark — must die here, not serve one more stale hit.
    net.revive(VICTIM);
    cleanup_site(&fsc, VICTIM, &all_sites(), &BTreeSet::new());
    if fsc.kernel(VICTIM).name_cache.leases_held() != 0 {
        return Err(format!(
            "seed {seed}: §5.6 cleanup left stale lease marks at the rejoined holder"
        ));
    }
    let got = LEASED
        .read(&fsc, VICTIM)
        .map_err(|e| format!("seed {seed}: post-rejoin read failed: {e:?}"))?;
    if got < confirmed {
        return Err(format!(
            "seed {seed}: rejoined holder read v{got}, committed was v{confirmed}"
        ));
    }

    fsc.settle();
    LEASED.check_convergence(&fsc, seed, confirmed, next_version)?;
    finish(net, seed, &["lease.grant"])
}

// ---------------------------------------------------------------------
// Family 3: quarantine revoke.
// ---------------------------------------------------------------------

/// The holder goes dark to the CSS (every recall to it is dropped and
/// blamed on it), gets quarantined — its warm path refuses lease serves
/// immediately, even though the undelivered recall left its stale marks
/// in place — and probation readmission revokes everything it held,
/// page tags included.
fn run_quarantine_revoke(seed: u64) -> Result<Observation, String> {
    let fsc = build_cluster();
    let net = fsc.net();
    net.enable_health(HealthPolicy::default());
    net.set_observing(true);
    seed_and_warm(&fsc, seed)?;

    // The CSS→holder direction drops everything: the first commit's
    // recall burns its whole retry budget against the holder, each
    // timeout blamed on it — quarantine trips from the recall traffic
    // itself, and the CSS revokes the row unilaterally.
    net.install_faults(FaultPlan::new(seed).link_spec(
        SiteId(0),
        VICTIM,
        FaultSpec::drop_rate(1.0),
    ));
    let mut next_version = 1u32;
    let mut confirmed = 0u32;
    let mut steps = 0u32;
    while !net.quarantined(VICTIM) && steps < 8 {
        steps += 1;
        let v = next_version;
        next_version += 1;
        LEASED
            .write(&fsc, WRITER, v)
            .map_err(|e| format!("seed {seed}: write v{v} against a dark holder failed: {e:?}"))?;
        confirmed = v;
    }
    if !net.quarantined(VICTIM) {
        return Err(format!(
            "seed {seed}: {steps} undeliverable recalls never tripped quarantine (score {})",
            net.health_score(VICTIM)
        ));
    }
    if fsc.cache_stats().lease_revokes == 0 {
        return Err(format!(
            "seed {seed}: undeliverable recalls must end in unilateral revokes"
        ));
    }

    net.clear_faults();

    // The link is healed but the site is still quarantined and still
    // holds the marks the lost recall should have killed. The warm-path
    // quarantine guard must refuse them: any read that succeeds from
    // here on re-validates and sees the committed version, never v0.
    if fsc.kernel(VICTIM).name_cache.leases_held() == 0 {
        return Err(format!(
            "seed {seed}: the lost recall should have left stale marks at the holder \
             (the guard, not delivery, is what this schedule tests)"
        ));
    }
    if let Ok(v) = LEASED.read(&fsc, VICTIM) {
        if v < confirmed {
            return Err(format!(
                "seed {seed}: quarantined holder served stale v{v} from under its \
                 revoked lease (committed: v{confirmed})"
            ));
        }
    }
    let readmitted = probation_probe(&fsc, WRITER, VICTIM, FG, 32)
        .map_err(|e| format!("seed {seed}: probation probe failed: {e:?}"))?;
    if !readmitted {
        return Err(format!(
            "seed {seed}: probation did not readmit the healed holder"
        ));
    }
    if net.site_health(VICTIM) != SiteHealth::Healthy {
        return Err(format!(
            "seed {seed}: readmitted holder not healthy: {:?}",
            net.site_health(VICTIM)
        ));
    }
    // Readmission revoked everything the victim held; its first read
    // must re-validate and see the quarantine-window commit.
    if fsc.kernel(VICTIM).name_cache.leases_held() != 0 {
        return Err(format!(
            "seed {seed}: readmission left lease marks at the probationer"
        ));
    }
    let got = LEASED
        .read(&fsc, VICTIM)
        .map_err(|e| format!("seed {seed}: post-readmit read failed: {e:?}"))?;
    if got < confirmed {
        return Err(format!(
            "seed {seed}: readmitted holder served v{got}, committed was v{confirmed} \
             (pre-quarantine cache entries must not satisfy post-readmit reads)"
        ));
    }

    fsc.settle();
    LEASED.check_convergence(&fsc, seed, confirmed, next_version)?;
    finish(
        net,
        seed,
        &["health.quarantine", "health.readmit", "lease.grant"],
    )
}

// ---------------------------------------------------------------------
// Family 4: handoff transfer race.
// ---------------------------------------------------------------------

/// `css_handoff` moves the lease table with the version/lock state under
/// one epoch; the new CSS's first recall reaches holders the *old* CSS
/// granted to, racing reads and message drops the whole way.
fn run_handoff_transfer(seed: u64) -> Result<Observation, String> {
    let fsc = build_cluster();
    let net = fsc.net();
    net.set_observing(true);
    seed_and_warm(&fsc, seed)?;

    let mut rng = family_rng(4, seed);
    let spec = FaultSpec {
        drop: 0.02 + rng.gen_f64() * 0.10,
        duplicate: rng.gen_f64() * 0.05,
        delay_prob: rng.gen_f64() * 0.15,
        delay: Ticks::micros(rng.gen_range(20u64..150)),
    };
    net.install_faults(FaultPlan::new(seed).default_spec(spec));

    // The handoff target is a healthy container; drops may refuse an
    // attempt, so retry until the role actually moves.
    let target = SiteId(CONTAINERS[1 + rng.gen_range(0usize..CONTAINERS.len() - 1)]);
    let mut transferred = None;
    for _ in 0..8 {
        match css_handoff(&fsc, FG, target) {
            Ok(rep) => {
                transferred = Some(rep);
                break;
            }
            Err(_) => continue,
        }
    }
    let rep = transferred
        .ok_or_else(|| format!("seed {seed}: css_handoff never succeeded under drops"))?;
    if rep.state_transferred && rep.leases_transferred == 0 {
        return Err(format!(
            "seed {seed}: handoff transferred state but carried no lease rows \
             (readers were warmed — the table must move with the role)"
        ));
    }

    // Writes now commit against the new CSS: its recalls must reach the
    // holders the old CSS granted to.
    let mut next_version = 1u32;
    let mut confirmed = 0u32;
    for _ in 0..4 {
        if rng.gen_bool(0.7) {
            let v = next_version;
            next_version += 1;
            if LEASED.write(&fsc, WRITER, v).is_ok() {
                confirmed = v;
            }
        } else {
            let us = SiteId(READERS[rng.gen_range(0usize..READERS.len())]);
            if let Ok(v) = LEASED.read(&fsc, us) {
                if v < confirmed || v >= next_version {
                    return Err(format!(
                        "seed {seed}: stale read v{v} at {us:?} after handoff \
                         (window [{confirmed}, {}])",
                        next_version - 1
                    ));
                }
            }
        }
    }

    net.clear_faults();
    fsc.settle();
    LEASED.check_convergence(&fsc, seed, confirmed, next_version)?;
    finish(net, seed, &["css.claim", "lease.grant"])
}

// ---------------------------------------------------------------------
// Family 5: partition → merge full revoke.
// ---------------------------------------------------------------------

/// The diskless holder lands alone in a minority partition. Both sides
/// run the §5.6 cleanup — the CSS purges the departed holder's rows, the
/// holder flushes its own marks — so the isolated side can never serve a
/// stale warm hit, and after heal + settle everything reconverges.
fn run_partition_merge(seed: u64) -> Result<Observation, String> {
    let fsc = build_cluster();
    let net = fsc.net();
    net.set_observing(true);
    seed_and_warm(&fsc, seed)?;

    let majority: Vec<SiteId> = (0..N_SITES).map(SiteId).filter(|s| *s != VICTIM).collect();
    net.partition(&[majority.clone(), vec![VICTIM]]);
    let majority_alive: BTreeSet<SiteId> = majority.iter().copied().collect();
    let minority_alive: BTreeSet<SiteId> = std::iter::once(VICTIM).collect();
    for &s in &majority {
        cleanup_site(&fsc, s, &majority_alive, &BTreeSet::new());
    }
    cleanup_site(&fsc, VICTIM, &minority_alive, &BTreeSet::new());
    let before = fsc.cache_stats();
    if before.lease_revokes == 0 {
        return Err(format!(
            "seed {seed}: partition cleanup revoked nothing — the CSS held the \
             departed reader's rows"
        ));
    }
    if fsc.kernel(VICTIM).name_cache.leases_held() != 0 {
        return Err(format!(
            "seed {seed}: the isolated holder kept lease marks through its own cleanup"
        ));
    }

    // The majority keeps committing; the isolated holder must fail —
    // not answer stale — because its marks are gone and no replica is
    // reachable from its side.
    let mut rng = family_rng(5, seed);
    let mut next_version = 1u32;
    let mut confirmed = 0u32;
    for _ in 0..3 {
        let v = next_version;
        next_version += 1;
        LEASED
            .write(&fsc, WRITER, v)
            .map_err(|e| format!("seed {seed}: majority write v{v} failed: {e:?}"))?;
        confirmed = v;
        if rng.gen_bool(0.5) {
            match LEASED.read(&fsc, VICTIM) {
                Err(_) => {}
                Ok(v) => {
                    return Err(format!(
                        "seed {seed}: isolated holder answered v{v} with no replica \
                         in its partition (stale serve)"
                    ));
                }
            }
        }
    }

    net.heal();
    fsc.settle();
    LEASED.check_convergence(&fsc, seed, confirmed, next_version)?;
    finish(net, seed, &["lease.grant"])
}

// ---------------------------------------------------------------------
// The suites.
// ---------------------------------------------------------------------

#[test]
fn recall_loss_retries_preserve_coherence() {
    run_schedules_parallel(&seed_set(0x1EA5_E001, 32), |seed| {
        replays_identically(seed, run_recall_loss)
    });
}

#[test]
fn midrecall_crash_revokes_and_rejoins_clean() {
    run_schedules_parallel(&seed_set(0x1EA5_E002, 24), |seed| {
        replays_identically(seed, run_midrecall_crash)
    });
}

#[test]
fn quarantine_revokes_and_readmission_revalidates() {
    run_schedules_parallel(&seed_set(0x1EA5_E003, 24), |seed| {
        replays_identically(seed, run_quarantine_revoke)
    });
}

#[test]
fn handoff_transfers_the_lease_table() {
    run_schedules_parallel(&seed_set(0x1EA5_E004, 24), |seed| {
        replays_identically(seed, run_handoff_transfer)
    });
}

#[test]
fn partition_merge_revokes_both_sides() {
    run_schedules_parallel(&seed_set(0x1EA5_E005, 24), |seed| {
        replays_identically(seed, run_partition_merge)
    });
}

/// `LEASE break` is only the trigger's transport: a commit at a storage
/// site other than the CSS whose break message is lost must still recall
/// every holder before it completes — live leases behind a commit would
/// serve stale attributes (auditor invariant 11).
#[test]
fn lost_lease_break_still_recalls_every_holder() {
    let fsc = build_cluster();
    let net = fsc.net();
    net.set_observing(true);
    seed_and_warm(&fsc, 0).unwrap();
    net.reset_stats();
    net.install_faults(FaultPlan::new(7).kind_spec("LEASE break", FaultSpec::drop_rate(1.0)));
    // Site 1 stores a copy, so it serves its own write: SS = 1, CSS = 0.
    LEASED
        .write(&fsc, SiteId(1), 1)
        .expect("commit at a non-CSS storage site");
    let st = net.stats();
    assert_eq!(
        st.sends("LEASE break"),
        0,
        "every break attempt was dropped"
    );
    assert_eq!(
        st.one_way_losses("LEASE break"),
        1,
        "and counted lost, once"
    );
    assert!(st.sends("LEASE recall") > 0, "the recalls ran regardless");
    net.clear_faults();
    fsc.settle();
    for r in READERS {
        assert_eq!(LEASED.read(&fsc, SiteId(r)), Ok(1), "stale read at S{r}");
    }
    finish(net, 0, &["lease.recall"]).expect("audit clean, invariant 11 included");
}

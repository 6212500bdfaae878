//! Adaptive CSS placement: sample → decide → migrate.
//!
//! With the namespace sharded across many filegroups
//! ([`locus_topology::ShardMap`]), the synchronization load of the
//! cluster is as balanced as the CSS roles are. This module is the
//! stateful driver that keeps them balanced *live*: each
//! [`PlacementDriver::step`] samples every filegroup's served-request
//! count since the last step (the CSS request-queue depth proxy),
//! attributes it to the site currently holding the role, consults the
//! health monitor, and asks the pure policy
//! ([`locus_topology::select_placement`]) whether any role should move.
//! Warranted moves are performed with [`crate::css_handoff`].
//!
//! Three mechanisms prevent handoff storms, in increasing scope:
//!
//! * the handoff mechanism itself refuses a new claim within
//!   [`locus_net::CSS_CLAIM_COOLDOWN`] of the last one (audit
//!   invariant 9) — the driver merely tolerates the `Eagain`;
//! * the driver's own per-filegroup cooldown
//!   ([`PlacementPolicy::fg_cooldown`], several claim-cooldowns long)
//!   keeps a role where it landed long enough for the load picture to
//!   reflect the move;
//! * load hysteresis ([`locus_topology::PlacementConfig`]) ignores
//!   marginal imbalances entirely, and each performed move immediately
//!   re-attributes the moved load in the in-step picture so one cold
//!   site never attracts every role in a single sweep.
//!
//! The driver samples only kernel counters and the virtual clock, and
//! iterates BTree-ordered state, so a given schedule of steps is fully
//! deterministic — chaos suites replay it byte-identically.

use std::collections::BTreeMap;

use locus_net::SiteHealth;
use locus_topology::{select_placement, Candidate, PlacementConfig};
use locus_types::{Errno, FilegroupId, SiteId, Ticks};

use crate::cluster::FsCluster;
use crate::handoff::css_handoff;

/// Tuning knobs for the placement driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlacementPolicy {
    /// Load/hysteresis thresholds of the pure selection policy.
    pub config: PlacementConfig,
    /// Minimum age of a filegroup's current assignment before the driver
    /// proposes another move. An order of magnitude above the claim
    /// cooldown: the mechanism bounds the *rate*, this bounds the
    /// *churn*.
    pub fg_cooldown: Ticks,
    /// Upper bound on migrations per step, a brake on rebalancing sweeps
    /// after mass failures.
    pub max_moves_per_step: usize,
}

impl Default for PlacementPolicy {
    fn default() -> Self {
        PlacementPolicy {
            config: PlacementConfig::default(),
            fg_cooldown: Ticks::millis(50),
            max_moves_per_step: 8,
        }
    }
}

/// What one [`PlacementDriver::step`] did.
#[derive(Clone, Debug, Default)]
pub struct PlacementReport {
    /// Roles moved this step: `(filegroup, from, to)`.
    pub migrated: Vec<(FilegroupId, SiteId, SiteId)>,
    /// Moves the handoff layer refused (`Eagain` cooldown, `Etxtbsy`
    /// lost race) — expected under contention, never fatal.
    pub refused: u64,
    /// Served-request load attributed to each site this window.
    pub site_load: BTreeMap<SiteId, u64>,
}

/// The live CSS load balancer. One instance per cluster; step it from
/// the workload driver or a background maintenance loop.
#[derive(Debug)]
pub struct PlacementDriver {
    policy: PlacementPolicy,
    /// Cumulative served-request counts per filegroup at the last step.
    last_served: BTreeMap<FilegroupId, u64>,
    /// Total migrations performed over the driver's lifetime.
    pub migrations: u64,
    /// Total refused moves over the driver's lifetime.
    pub refusals: u64,
}

impl PlacementDriver {
    /// A driver with the given policy.
    pub fn new(policy: PlacementPolicy) -> Self {
        PlacementDriver {
            policy,
            last_served: BTreeMap::new(),
            migrations: 0,
            refusals: 0,
        }
    }

    /// The policy in effect.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Forgets all load samples. Reconfiguration calls this: partition
    /// and merge transitions reassign CSS roles wholesale, so load
    /// attributed to pre-transition assignments is meaningless.
    pub fn reset(&mut self) {
        self.last_served.clear();
    }

    /// Whether `site` may hold a CSS role right now.
    fn fit(fsc: &FsCluster, site: SiteId) -> bool {
        fsc.net().is_up(site)
            && !fsc.net().quarantined(site)
            && fsc.net().site_health(site) == SiteHealth::Healthy
    }

    /// One sample → decide → migrate round. Also publishes the per-site
    /// queue-depth gauges and cumulative handoff count into
    /// [`locus_net::NetStats`] so benchmarks and JSONL traces can table
    /// them.
    pub fn step(&mut self, fsc: &FsCluster) -> PlacementReport {
        let mut report = PlacementReport::default();

        // Sample: per-filegroup served-request deltas since last step,
        // attributed to the site currently holding the role. The sum
        // over container sites is immune to the role moving mid-window.
        let fgs: Vec<(FilegroupId, SiteId, Vec<SiteId>, Option<Ticks>)> = {
            let k = fsc.kernel(SiteId(0));
            k.mount
                .filegroups()
                .map(|m| {
                    (
                        m.fg,
                        m.css,
                        m.containers.iter().map(|(_, s)| *s).collect(),
                        m.css_claimed_at,
                    )
                })
                .collect()
        };
        let mut fg_load: BTreeMap<FilegroupId, u64> = BTreeMap::new();
        for (fg, css, containers, _) in &fgs {
            let total: u64 = containers
                .iter()
                .map(|&s| fsc.kernel(s).css_served(*fg))
                .sum();
            let prev = self.last_served.insert(*fg, total).unwrap_or(0);
            let delta = total.saturating_sub(prev);
            fg_load.insert(*fg, delta);
            *report.site_load.entry(*css).or_insert(0) += delta;
        }
        for site in fsc.sites() {
            report.site_load.entry(site).or_insert(0);
        }

        // Publish the depth gauges and the cumulative handoff counter.
        for (&site, &load) in &report.site_load {
            fsc.net().set_stat_gauge(&format!("css.depth.{site}"), load);
            if load > 0 {
                fsc.net().obs_note(site, "css.depth", site, load);
            }
        }
        // Decide and migrate, heaviest filegroups first so the per-step
        // move budget goes where it matters. Ties break by filegroup id:
        // fully deterministic.
        let now = fsc.net().now();
        let mut order: Vec<FilegroupId> = fg_load.keys().copied().collect();
        order.sort_by_key(|fg| (u64::MAX - fg_load[fg], fg.0));
        let mut site_load = report.site_load.clone();
        for fg in order {
            if report.migrated.len() >= self.policy.max_moves_per_step {
                break;
            }
            let (_, css, containers, claimed_at) = fgs
                .iter()
                .find(|(f, ..)| *f == fg)
                .expect("fg sampled above");
            if containers.len() < 2 {
                continue;
            }
            // Per-filegroup churn brake: leave a freshly-moved role
            // alone until its load picture has settled.
            if let Some(t0) = claimed_at {
                if now.saturating_sub(*t0) < self.policy.fg_cooldown {
                    continue;
                }
            }
            // An idle role costs nothing where it is: site-level heat
            // from a co-located hot role must not shuffle roles that
            // serve no traffic themselves. Unfit incumbents still
            // evacuate.
            if fg_load[&fg] < self.policy.config.min_load && Self::fit(fsc, *css) {
                continue;
            }
            // A role's load moves with it: a challenger is judged by the
            // load it would carry holding the role, so a lone hot role
            // never trades places with an idle site and back.
            let candidates: Vec<Candidate> = containers
                .iter()
                .map(|&s| Candidate {
                    site: s,
                    load: site_load.get(&s).copied().unwrap_or(0)
                        + if s == *css { 0 } else { fg_load[&fg] },
                    healthy: Self::fit(fsc, s),
                })
                .collect();
            let Some(target) = select_placement(*css, &candidates, &self.policy.config) else {
                continue;
            };
            match css_handoff(fsc, fg, target) {
                Ok(_) => {
                    self.migrations += 1;
                    report.migrated.push((fg, *css, target));
                    // Re-attribute the moved load so later decisions in
                    // this same sweep see the post-move picture.
                    let moved = fg_load[&fg];
                    if let Some(l) = site_load.get_mut(css) {
                        *l = l.saturating_sub(moved);
                    }
                    *site_load.entry(target).or_insert(0) += moved;
                }
                Err(Errno::Eagain) | Err(Errno::Etxtbsy) => {
                    self.refusals += 1;
                    report.refused += 1;
                }
                Err(_) => {} // target died mid-decision; next step retries
            }
        }
        // Publish the cumulative handoff counter, moves of this step
        // included.
        let claims: u64 = fsc.sites().map(|s| fsc.kernel(s).css_claims).sum();
        fsc.net().set_stat_gauge("css.handoffs", claims);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::FsClusterBuilder;
    use crate::ops::{fd, namei};
    use crate::proto::ProcFsCtx;
    use locus_net::CSS_CLAIM_COOLDOWN;
    use locus_types::{FileType, MachineType, OpenMode, Perms};

    use locus_types::FilegroupId;

    /// Three shards, all starting their CSS at site 0; only shard 0's
    /// files are touched from site 1, so load concentrates at site 0.
    fn sharded_cluster() -> FsCluster {
        FsClusterBuilder::new()
            .vax_sites(3)
            .filegroup("root", &[0, 1, 2])
            .filegroup_mounted("s1", &[0, 1, 2], "/s1")
            .css_at(0)
            .filegroup_mounted("s2", &[0, 1, 2], "/s2")
            .css_at(0)
            .build()
    }

    fn ctx(fsc: &FsCluster, site: SiteId) -> ProcFsCtx {
        ProcFsCtx::new(fsc.kernel(site).mount.root().unwrap(), MachineType::Vax)
    }

    fn churn(fsc: &FsCluster, us: SiteId, path: &str, rounds: usize) {
        let c = ctx(fsc, us);
        let f = fd::creat(fsc, us, &c, path, FileType::Untyped, Perms::FILE_DEFAULT).unwrap();
        fd::close(fsc, us, f).unwrap();
        for _ in 0..rounds {
            let f = fd::open(fsc, us, &c, path, OpenMode::Read).unwrap();
            fd::close(fsc, us, f).unwrap();
        }
        fsc.settle();
    }

    /// The two shard filegroups of [`sharded_cluster`].
    const S1: FilegroupId = FilegroupId(1);
    const S2: FilegroupId = FilegroupId(2);

    /// Equal load on both shards, each used from a different site.
    fn churn_both(fsc: &FsCluster) {
        churn(fsc, SiteId(1), "/s1/f", 20);
        churn(fsc, SiteId(2), "/s2/g", 20);
    }

    #[test]
    fn hot_site_sheds_roles_and_gauges_report_depth() {
        let fsc = sharded_cluster();
        let mut driver = PlacementDriver::new(PlacementPolicy::default());
        // Load on two shards, both synchronized at site 0.
        churn(&fsc, SiteId(1), "/s1/f", 20);
        churn(&fsc, SiteId(2), "/s2/g", 20);
        let r = driver.step(&fsc);
        assert!(
            !r.migrated.is_empty(),
            "overloaded site 0 sheds at least one role: {r:?}"
        );
        assert!(
            r.migrated.iter().all(|(_, from, _)| *from == SiteId(0)),
            "moves evacuate the hot site"
        );
        let depth0 = fsc.net().stats().gauge("css.depth.S0");
        assert!(depth0 > 0, "queue-depth gauge published");
        assert_eq!(
            fsc.net().stats().gauge("css.handoffs"),
            driver.migrations,
            "cumulative handoff gauge matches the driver"
        );
        // The moved role still serves: re-open through the new CSS.
        churn(&fsc, SiteId(1), "/s1/f2", 1);
    }

    #[test]
    fn idle_cluster_never_migrates_and_steps_are_deterministic() {
        let fsc = sharded_cluster();
        let mut driver = PlacementDriver::new(PlacementPolicy::default());
        for _ in 0..5 {
            let r = driver.step(&fsc);
            assert!(r.migrated.is_empty(), "no load, no movement");
            assert_eq!(r.refused, 0);
        }
        assert_eq!(driver.migrations, 0);
    }

    #[test]
    fn fg_cooldown_brakes_churn_between_steps() {
        let fsc = sharded_cluster();
        let mut driver = PlacementDriver::new(PlacementPolicy {
            // Far longer than the virtual time the whole test advances.
            fg_cooldown: Ticks::secs(5),
            ..PlacementPolicy::default()
        });
        // Site 0 holds two loaded roles and sheds one.
        churn_both(&fsc);
        let first = driver.step(&fsc);
        assert_eq!(first.migrated.len(), 1, "{first:?}");
        // Hand the other role to the *new* holder too and load both: the
        // new holder is as hot as site 0 was, but both assignments are
        // inside the driver's cooldown, so they stay put — without even
        // consulting the handoff layer (no refusals).
        let (moved, _, to) = first.migrated[0];
        let other = if moved == S1 { S2 } else { S1 };
        crate::handoff::css_handoff(&fsc, other, to).unwrap();
        churn_both(&fsc);
        let second = driver.step(&fsc);
        assert!(
            second.migrated.is_empty(),
            "cooldown keeps the fresh assignments put: {second:?}"
        );
        assert_eq!(second.refused, 0, "skipped, not proposed-and-refused");
        // Once the cooldown passes, rebalancing resumes.
        fsc.net().charge_cpu(Ticks::secs(5));
        churn_both(&fsc);
        let third = driver.step(&fsc);
        assert_eq!(third.migrated.len(), 1, "{third:?}");
        assert_eq!(third.migrated[0].1, to, "the hot site sheds a role");
    }

    #[test]
    fn a_lone_hot_role_never_moves() {
        // Moving the only loaded role just moves the heat: the challenger
        // would carry all of it. (Before the role's own load was counted,
        // the role went to an idle site and came back on the next step.)
        let fsc = sharded_cluster();
        let mut driver = PlacementDriver::new(PlacementPolicy::default());
        for _ in 0..4 {
            churn(&fsc, SiteId(1), "/s1/f", 20);
            let r = driver.step(&fsc);
            assert!(r.migrated.is_empty(), "{r:?}");
            assert_eq!(r.refused, 0, "{r:?}");
            fsc.net().charge_cpu(PlacementPolicy::default().fg_cooldown);
        }
        assert_eq!(driver.migrations, 0);
    }

    #[test]
    fn two_equal_roles_split_once_then_stay() {
        let fsc = sharded_cluster();
        let mut driver = PlacementDriver::new(PlacementPolicy::default());
        churn_both(&fsc);
        let first = driver.step(&fsc);
        assert_eq!(first.migrated.len(), 1, "{first:?}");
        assert_eq!(first.migrated[0].1, SiteId(0), "the hot site sheds");
        // One role per site: every further step leaves them where they are.
        for _ in 0..3 {
            fsc.net().charge_cpu(PlacementPolicy::default().fg_cooldown);
            churn_both(&fsc);
            let r = driver.step(&fsc);
            assert!(r.migrated.is_empty(), "{r:?}");
        }
        assert_eq!(driver.migrations, 1);
    }

    #[test]
    fn mechanism_cooldown_refusals_are_tolerated() {
        let fsc = sharded_cluster();
        let mut driver = PlacementDriver::new(PlacementPolicy {
            // A policy with no churn brake at all: only the mechanism's
            // claim cooldown stands between it and a storm.
            fg_cooldown: Ticks::ZERO,
            ..PlacementPolicy::default()
        });
        churn_both(&fsc);
        // Move both hot roles to one site by hand, `S1` last; the step
        // that follows runs inside `S1`'s claim cooldown. It attributes
        // the whole window's load to the fresh holder, proposes shedding
        // `S1` (the tie goes to the lower id), and the handoff layer
        // refuses with `Eagain` — tolerated, `S1` stays.
        crate::handoff::css_handoff(&fsc, S2, SiteId(1)).unwrap();
        crate::handoff::css_handoff(&fsc, S1, SiteId(1)).unwrap();
        let r = driver.step(&fsc);
        assert!(r.migrated.iter().all(|(fg, ..)| *fg != S1), "{r:?}");
        assert!(r.refused >= 1, "refusal surfaced in the report: {r:?}");
        assert_eq!(driver.refusals, r.refused);
        // Past the cooldown the cluster still serves normally.
        fsc.net().charge_cpu(CSS_CLAIM_COOLDOWN);
        namei::stat(&fsc, SiteId(1), &ctx(&fsc, SiteId(1)), "/s1/f").unwrap();
    }

    #[test]
    fn reset_forgets_samples() {
        let fsc = sharded_cluster();
        let mut driver = PlacementDriver::new(PlacementPolicy::default());
        churn(&fsc, SiteId(1), "/s1/f", 20);
        driver.step(&fsc);
        driver.reset();
        // After reset the first step re-baselines: cumulative counters
        // all look "new", so the deltas equal the totals — but a second
        // idle step must see zero again.
        driver.step(&fsc);
        let idle = driver.step(&fsc);
        assert!(idle.site_load.values().all(|&l| l == 0));
    }
}

//! Namespace sharding and adaptive CSS placement mathematics.
//!
//! The paper pins one synchronization site per filegroup (§2.3.1), so a
//! single-filegroup namespace serializes every open/close at one CSS no
//! matter how many sites the cluster has. The scalable layout *shards*
//! the namespace across many filegroups — the mount mechanism already
//! glues an arbitrary forest of filegroups into one tree (§2.1), so
//! sharding needs no new protocol, only a deterministic map from names
//! to shards and a policy for spreading the shard CSS roles over sites.
//!
//! Everything in this module is pure arithmetic: no clocks, no I/O, no
//! randomness. The stateful driver that samples live queue depths and
//! performs handoffs lives in the filesystem crate; it delegates every
//! *decision* here so the policy is testable in isolation and replays
//! byte-identically.

use locus_types::SiteId;

/// Deterministic map from a flat key space onto `shards` filegroup
/// shards, round-robin. Names hash with FNV-1a so the map is stable
/// across processes and runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMap {
    shards: u32,
}

impl ShardMap {
    /// A map over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: u32) -> Self {
        assert!(shards > 0, "a shard map needs at least one shard");
        ShardMap { shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard of a numeric key (round-robin).
    pub fn shard_of_key(&self, key: u64) -> u32 {
        (key % u64::from(self.shards)) as u32
    }

    /// The shard of a name (FNV-1a, stable across runs).
    pub fn shard_of_name(&self, name: &str) -> u32 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.shard_of_key(h)
    }
}

/// One CSS candidate as the placement policy sees it: the site, the
/// synchronization load it would carry holding the role (served-request
/// count or queue depth in the sampling window), and whether the health
/// monitor considers it fit to hold the role.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// The container site.
    pub site: SiteId,
    /// Synchronization load the site would carry holding the role: the
    /// incumbent's current load, or a challenger's current load plus the
    /// role's own, since a role's load moves with it.
    pub load: u64,
    /// `false` when the site is Suspect/Quarantined/down — it may keep a
    /// role it already holds only if every alternative is also unfit.
    pub healthy: bool,
}

/// Tuning knobs for [`select_placement`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlacementConfig {
    /// Hysteresis: the best candidate must be at least this many percent
    /// lighter than the current CSS before a migration is worth a
    /// handoff. Prevents two near-equal sites from trading the role
    /// back and forth forever.
    pub hysteresis_pct: u32,
    /// Load below which a healthy CSS is never moved — an idle role
    /// costs nothing where it is.
    pub min_load: u64,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig {
            hysteresis_pct: 25,
            min_load: 8,
        }
    }
}

/// Decides whether the CSS of one filegroup should migrate, and where.
///
/// Returns `Some(target)` when a migration is warranted:
///
/// * the current CSS is unfit (unhealthy, or absent from `candidates`)
///   and a healthy candidate exists — migrate to the lightest healthy
///   candidate regardless of hysteresis;
/// * the current CSS is healthy but overloaded: its load is at least
///   [`PlacementConfig::min_load`] and the lightest healthy candidate,
///   holding the role, would still be lighter by the hysteresis margin.
///   Because a challenger's [`Candidate::load`] includes the role's own,
///   a site holding one hot role never sheds it to an idle site only to
///   take it back on the next sample.
///
/// Ties break toward the lowest-numbered site, so every caller computes
/// the same answer from the same snapshot (determinism is what keeps
/// chaos replays byte-identical).
pub fn select_placement(
    current: SiteId,
    candidates: &[Candidate],
    cfg: &PlacementConfig,
) -> Option<SiteId> {
    let cur = candidates.iter().find(|c| c.site == current);
    let best = candidates
        .iter()
        .filter(|c| c.healthy && c.site != current)
        .min_by_key(|c| (c.load, c.site))?;
    match cur {
        Some(c) if c.healthy => {
            // Healthy incumbent: move only past both thresholds.
            if c.load < cfg.min_load {
                return None;
            }
            let margin = best
                .load
                .saturating_mul(u64::from(100 + cfg.hysteresis_pct));
            if margin <= c.load.saturating_mul(100) {
                Some(best.site)
            } else {
                None
            }
        }
        // Unfit or unknown incumbent: any healthy candidate is better.
        _ => Some(best.site),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(site: u32, load: u64, healthy: bool) -> Candidate {
        Candidate {
            site: SiteId(site),
            load,
            healthy,
        }
    }

    #[test]
    fn shard_map_is_deterministic_and_total() {
        let m = ShardMap::new(7);
        for k in 0..100 {
            assert!(m.shard_of_key(k) < 7);
            assert_eq!(m.shard_of_key(k), m.shard_of_key(k));
        }
        assert_eq!(m.shard_of_name("usr"), m.shard_of_name("usr"));
        assert!(m.shard_of_name("usr") < 7);
        // Round-robin keys spread perfectly.
        assert_eq!(m.shard_of_key(0), 0);
        assert_eq!(m.shard_of_key(8), 1);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_a_config_error() {
        ShardMap::new(0);
    }

    #[test]
    fn overloaded_css_moves_to_lightest_healthy_site() {
        let cfg = PlacementConfig::default();
        let cands = [cand(0, 100, true), cand(1, 10, true), cand(2, 5, true)];
        assert_eq!(
            select_placement(SiteId(0), &cands, &cfg),
            Some(SiteId(2)),
            "lightest candidate wins"
        );
    }

    #[test]
    fn hysteresis_blocks_marginal_wins() {
        let cfg = PlacementConfig {
            hysteresis_pct: 25,
            min_load: 8,
        };
        // 100 vs 85: 85 * 1.25 > 100, inside the hysteresis band.
        let near = [cand(0, 100, true), cand(1, 85, true)];
        assert_eq!(select_placement(SiteId(0), &near, &cfg), None);
        // 100 vs 80: exactly on the margin — migrate.
        let edge = [cand(0, 100, true), cand(1, 80, true)];
        assert_eq!(select_placement(SiteId(0), &edge, &cfg), Some(SiteId(1)));
    }

    #[test]
    fn idle_roles_never_move() {
        let cfg = PlacementConfig::default();
        let cands = [cand(0, 3, true), cand(1, 0, true)];
        assert_eq!(
            select_placement(SiteId(0), &cands, &cfg),
            None,
            "below min_load the role stays put"
        );
    }

    #[test]
    fn unhealthy_css_evacuates_regardless_of_load() {
        let cfg = PlacementConfig::default();
        let cands = [cand(0, 0, false), cand(1, 50, true)];
        assert_eq!(
            select_placement(SiteId(0), &cands, &cfg),
            Some(SiteId(1)),
            "an idle role still leaves a gray site"
        );
        // But with no healthy alternative it stays (availability over
        // isolation, as in select_css_excluding).
        let stuck = [cand(0, 0, false), cand(1, 50, false)];
        assert_eq!(select_placement(SiteId(0), &stuck, &cfg), None);
    }

    #[test]
    fn ties_break_toward_the_lowest_site() {
        let cfg = PlacementConfig::default();
        let cands = [cand(3, 100, true), cand(2, 10, true), cand(1, 10, true)];
        assert_eq!(select_placement(SiteId(3), &cands, &cfg), Some(SiteId(1)));
    }

    #[test]
    fn unhealthy_candidates_are_never_targets() {
        let cfg = PlacementConfig::default();
        let cands = [cand(0, 100, true), cand(1, 0, false), cand(2, 30, true)];
        assert_eq!(select_placement(SiteId(0), &cands, &cfg), Some(SiteId(2)));
    }
}

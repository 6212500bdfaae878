//! Gray-failure health monitoring: detect → isolate → recover.
//!
//! Partition detection (§5.4) answers a binary question — can two sites
//! talk at all? A *gray* site answers it wrongly: its links are up but
//! slow or lossy, so every poll succeeds (eventually) while real work
//! degrades. Following the DIR Net's fault-treatment pipeline, this
//! module scores per-site health from the signals the send path already
//! produces — drops, the closed-circuit notices lost replies leave, and
//! latency drift against a per-directed-link running average — and
//! drives a three-stage state machine:
//!
//! * **detect** — penalties accumulate per blamed site; crossing the
//!   suspect threshold marks it [`SiteHealth::Suspect`], crossing the
//!   quarantine threshold [`SiteHealth::Quarantined`];
//! * **isolate** — a quarantined site stays reachable (this is not a
//!   partition) but higher layers exclude it from CSS eligibility and
//!   replica reads via [`crate::Net::quarantined`];
//! * **recover** — an explicit probation (`HealthMonitor::begin_probation`)
//!   readmits the site only after a run of consecutive successful probes;
//!   any failure during probation re-quarantines it.
//!
//! The monitor is **passive and free**: it consumes no RNG rolls, never
//! advances the clock, and sends nothing, so enabling it with no faults
//! injected leaves every trace and statistic byte-identical
//! ("observability must stay free"). It is disabled by default;
//! [`crate::Net::enable_health`] turns it on.

use std::collections::BTreeMap;

use locus_types::{SiteId, Ticks};

/// Where a site stands in the detect → isolate → recover pipeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SiteHealth {
    /// No evidence of gray behaviour.
    #[default]
    Healthy,
    /// Penalties are accumulating but below the quarantine threshold.
    Suspect,
    /// Enough evidence to isolate: excluded from CSS eligibility and
    /// replica reads until probation succeeds.
    Quarantined,
    /// Under readmission probes; still isolated.
    Probation,
}

/// Tuning knobs for the health monitor's scoring and thresholds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Score at which a site becomes [`SiteHealth::Suspect`].
    pub suspect_score: u32,
    /// Score at which a site is quarantined.
    pub quarantine_score: u32,
    /// Penalty per hard fault signal (a drop, a closed-circuit notice).
    pub fault_penalty: u32,
    /// Penalty per latency-drift signal.
    pub slow_penalty: u32,
    /// Score forgiven per clean delivery.
    pub success_reward: u32,
    /// A delivery is "drifted" when its cost exceeds `drift_factor`
    /// times the link's running average.
    pub drift_factor: u32,
    /// Minimum samples on a link before drift detection engages.
    pub drift_min_samples: u64,
    /// Consecutive successful probes required to readmit from probation.
    pub probation_probes: u32,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            suspect_score: 8,
            quarantine_score: 16,
            fault_penalty: 4,
            slow_penalty: 2,
            success_reward: 1,
            drift_factor: 4,
            drift_min_samples: 8,
            probation_probes: 3,
        }
    }
}

/// A state transition worth surfacing (the [`crate::Net`] turns these
/// into `health.quarantine` / `health.readmit` observability notes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum HealthEvent {
    /// The site crossed the quarantine threshold at the given score.
    Quarantined(SiteId, u32),
    /// Probation completed; the site is healthy again.
    Readmitted(SiteId),
}

/// Running latency average of one directed link (integer EWMA, α = ⅛).
#[derive(Clone, Copy, Debug, Default)]
struct LinkHealth {
    ewma_us: u64,
    samples: u64,
}

/// Per-site health accounting fed by the send path.
#[derive(Clone, Debug, Default)]
pub(crate) struct HealthMonitor {
    enabled: bool,
    policy: HealthPolicy,
    scores: BTreeMap<SiteId, u32>,
    states: BTreeMap<SiteId, SiteHealth>,
    links: BTreeMap<(SiteId, SiteId), LinkHealth>,
    /// Consecutive successful probes per site in probation.
    probes: BTreeMap<SiteId, u32>,
}

impl HealthMonitor {
    /// A disabled monitor with the default policy.
    pub fn new() -> Self {
        HealthMonitor::default()
    }

    /// Enables the monitor under `policy` (resetting all accounting).
    pub(crate) fn enable(&mut self, policy: HealthPolicy) {
        *self = HealthMonitor {
            enabled: true,
            policy,
            ..HealthMonitor::default()
        };
    }

    /// The health state of one site.
    pub fn state(&self, site: SiteId) -> SiteHealth {
        self.states.get(&site).copied().unwrap_or_default()
    }

    /// The penalty score of one site.
    pub fn score(&self, site: SiteId) -> u32 {
        self.scores.get(&site).copied().unwrap_or(0)
    }

    /// Whether the site is isolated (quarantined or still in probation).
    pub fn quarantined(&self, site: SiteId) -> bool {
        matches!(
            self.state(site),
            SiteHealth::Quarantined | SiteHealth::Probation
        )
    }

    /// Feeds one clean delivery on `from -> to` that cost `cost`,
    /// crediting `blame` (the remote conversation partner). Returns a
    /// transition if probation completed.
    pub(crate) fn observe_success(
        &mut self,
        from: SiteId,
        to: SiteId,
        blame: SiteId,
        cost: Ticks,
    ) -> Option<HealthEvent> {
        if !self.enabled {
            return None;
        }
        let us = cost.as_micros();
        let link = self.links.entry((from, to)).or_default();
        let drifted = link.samples >= self.policy.drift_min_samples
            && us > link.ewma_us.saturating_mul(self.policy.drift_factor as u64);
        // Drifted samples are excluded from the running average: folding
        // them in would converge the baseline toward the gray latency and
        // silence the detector within a handful of deliveries.
        if !drifted {
            link.ewma_us = if link.samples == 0 {
                us
            } else {
                link.ewma_us - link.ewma_us / 8 + us / 8
            };
            link.samples += 1;
        }
        if drifted {
            return self.penalize(blame, self.policy.slow_penalty);
        }
        self.reward(blame)
    }

    /// Feeds one hard fault signal (a drop, a closed-circuit notice)
    /// blamed on `blame`. Returns a transition if the site crossed into
    /// quarantine.
    pub(crate) fn observe_fault(&mut self, blame: SiteId) -> Option<HealthEvent> {
        if !self.enabled {
            return None;
        }
        self.penalize(blame, self.policy.fault_penalty)
    }

    /// Moves a quarantined site into probation; `false` if it was not
    /// quarantined.
    pub fn begin_probation(&mut self, site: SiteId) -> bool {
        if self.state(site) != SiteHealth::Quarantined {
            return false;
        }
        self.states.insert(site, SiteHealth::Probation);
        self.probes.insert(site, 0);
        true
    }

    fn penalize(&mut self, site: SiteId, penalty: u32) -> Option<HealthEvent> {
        let score = self.scores.entry(site).or_insert(0);
        *score = score.saturating_add(penalty);
        let score = *score;
        match self.state(site) {
            SiteHealth::Quarantined => None,
            SiteHealth::Probation => {
                // A fault during probation re-quarantines without a fresh
                // note: the site never left isolation.
                self.states.insert(site, SiteHealth::Quarantined);
                self.probes.remove(&site);
                None
            }
            _ if score >= self.policy.quarantine_score => {
                self.states.insert(site, SiteHealth::Quarantined);
                Some(HealthEvent::Quarantined(site, score))
            }
            _ if score >= self.policy.suspect_score => {
                self.states.insert(site, SiteHealth::Suspect);
                None
            }
            _ => None,
        }
    }

    fn reward(&mut self, site: SiteId) -> Option<HealthEvent> {
        let score = self.scores.entry(site).or_insert(0);
        *score = score.saturating_sub(self.policy.success_reward);
        let score = *score;
        match self.state(site) {
            SiteHealth::Probation => {
                let n = self.probes.entry(site).or_insert(0);
                *n += 1;
                if *n >= self.policy.probation_probes {
                    self.states.insert(site, SiteHealth::Healthy);
                    self.scores.insert(site, 0);
                    self.probes.remove(&site);
                    Some(HealthEvent::Readmitted(site))
                } else {
                    None
                }
            }
            SiteHealth::Suspect if score < self.policy.suspect_score => {
                self.states.insert(site, SiteHealth::Healthy);
                None
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled() -> HealthMonitor {
        let mut m = HealthMonitor::new();
        m.enable(HealthPolicy::default());
        m
    }

    #[test]
    fn disabled_monitor_scores_nothing() {
        let mut m = HealthMonitor::new();
        for _ in 0..100 {
            assert_eq!(m.observe_fault(SiteId(1)), None);
        }
        assert_eq!(m.state(SiteId(1)), SiteHealth::Healthy);
        assert_eq!(m.score(SiteId(1)), 0);
        assert!(!m.quarantined(SiteId(1)));
    }

    #[test]
    fn faults_walk_a_site_through_suspect_into_quarantine() {
        let mut m = enabled();
        let gray = SiteId(2);
        assert_eq!(m.observe_fault(gray), None);
        assert_eq!(m.observe_fault(gray), None);
        assert_eq!(m.state(gray), SiteHealth::Suspect, "8 points: suspect");
        assert_eq!(m.observe_fault(gray), None);
        assert_eq!(
            m.observe_fault(gray),
            Some(HealthEvent::Quarantined(gray, 16))
        );
        assert!(m.quarantined(gray));
        // Further faults do not re-announce.
        assert_eq!(m.observe_fault(gray), None);
    }

    #[test]
    fn successes_forgive_a_suspect() {
        let mut m = enabled();
        let s = SiteId(1);
        m.observe_fault(s);
        m.observe_fault(s);
        assert_eq!(m.state(s), SiteHealth::Suspect);
        for _ in 0..2 {
            m.observe_success(SiteId(0), s, s, Ticks::micros(100));
        }
        assert_eq!(m.state(s), SiteHealth::Healthy, "score decayed below 8");
    }

    #[test]
    fn latency_drift_penalizes_after_a_baseline_forms() {
        let mut m = enabled();
        let gray = SiteId(1);
        // Build a ~100 µs baseline on the link.
        for _ in 0..8 {
            m.observe_success(gray, SiteId(0), gray, Ticks::micros(100));
        }
        assert_eq!(m.score(gray), 0);
        // A 10x-inflated delivery is drift, not credit.
        m.observe_success(gray, SiteId(0), gray, Ticks::micros(1000));
        assert_eq!(m.score(gray), HealthPolicy::default().slow_penalty);
        // Enough drifted deliveries quarantine the site.
        let mut quarantined = false;
        for _ in 0..16 {
            if let Some(HealthEvent::Quarantined(s, _)) =
                m.observe_success(gray, SiteId(0), gray, Ticks::micros(1000))
            {
                assert_eq!(s, gray);
                quarantined = true;
                break;
            }
        }
        assert!(quarantined, "sustained drift isolates the site");
    }

    #[test]
    fn drift_detection_waits_for_samples() {
        let mut m = enabled();
        // The very first delivery is huge, but there is no baseline yet.
        m.observe_success(SiteId(0), SiteId(1), SiteId(1), Ticks::micros(50_000));
        assert_eq!(m.score(SiteId(1)), 0);
    }

    #[test]
    fn probation_readmits_after_consecutive_clean_probes() {
        let mut m = enabled();
        let gray = SiteId(3);
        for _ in 0..4 {
            m.observe_fault(gray);
        }
        assert!(m.quarantined(gray));
        assert!(
            !m.begin_probation(SiteId(0)),
            "healthy sites have no probation"
        );
        assert!(m.begin_probation(gray));
        assert_eq!(m.state(gray), SiteHealth::Probation);
        assert!(m.quarantined(gray), "probation is still isolation");
        m.observe_success(SiteId(0), gray, gray, Ticks::micros(100));
        m.observe_success(SiteId(0), gray, gray, Ticks::micros(100));
        assert_eq!(m.state(gray), SiteHealth::Probation);
        assert_eq!(
            m.observe_success(SiteId(0), gray, gray, Ticks::micros(100)),
            Some(HealthEvent::Readmitted(gray))
        );
        assert_eq!(m.state(gray), SiteHealth::Healthy);
        assert_eq!(m.score(gray), 0, "readmission clears the record");
    }

    #[test]
    fn a_fault_during_probation_requarantines() {
        let mut m = enabled();
        let gray = SiteId(3);
        for _ in 0..4 {
            m.observe_fault(gray);
        }
        assert!(m.begin_probation(gray));
        m.observe_success(SiteId(0), gray, gray, Ticks::micros(100));
        assert_eq!(m.observe_fault(gray), None, "no fresh quarantine note");
        assert_eq!(m.state(gray), SiteHealth::Quarantined);
        // A fresh probation starts its probe count over.
        assert!(m.begin_probation(gray));
        m.observe_success(SiteId(0), gray, gray, Ticks::micros(100));
        assert_eq!(m.state(gray), SiteHealth::Probation, "count restarted");
    }
}

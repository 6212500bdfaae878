//! Deterministic fault injection for the simulated network.
//!
//! The paper's resilience story is driven by *unreliable* machinery
//! underneath reliable-looking protocols: "no acknowledgements, flow
//! control or any other underlying mechanism" is provided by the network
//! (§2.3.3 fn), and "timeouts drive the reconfiguration protocols"
//! (§5.5). This module supplies the unreliability: a seeded pseudo-random
//! plan of message drops, duplicates and delays, one-directional slow
//! links, and transient link flaps and crash/revive events keyed to the
//! virtual clock. A protocol meets a virtual circuit only through a lost
//! reply: the closed-circuit notice it leaves is the network's business
//! ([`crate::circuit`]), not the injector's.
//!
//! Everything is deterministic: each **source site** owns one [`SimRng`]
//! stream (an xorshift64*), consumed in that site's send order, so the
//! same seed, plan and per-site operation sequence reproduce
//! byte-identical behaviour — statistics, traces and all. That guarantee
//! is what makes the chaos harness in `locus-fs` debuggable: a failing
//! schedule is re-run from its seed alone. Sharding the stream by source
//! site (rather than one global stream in total send order) keeps one
//! site's rolls independent of every other site's traffic; the
//! derivation rule is documented on `site_stream_seed`.

use std::collections::BTreeMap;

use locus_types::{SiteId, Ticks};

/// The workspace's seeded pseudo-random generator (xorshift64*).
///
/// Used by the fault injector, the bench workload generators and the
/// stress tests in place of an external `rand` dependency. Not
/// cryptographic; statistically plenty for simulation.
#[derive(Clone, Debug)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// A generator for the given seed (any value, including 0, is fine).
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform integer in `[range.start, range.end)`.
    pub fn gen_range<T: RangeSample>(&mut self, range: core::ops::Range<T>) -> T {
        T::sample(self, range)
    }
}

/// Integer types [`SimRng::gen_range`] can sample.
pub trait RangeSample: Sized {
    /// Samples uniformly from the half-open range.
    fn sample(rng: &mut SimRng, range: core::ops::Range<Self>) -> Self;
}

macro_rules! impl_range_sample {
    ($($t:ty),*) => {$(
        impl RangeSample for $t {
            fn sample(rng: &mut SimRng, range: core::ops::Range<Self>) -> Self {
                let span = (range.end as i128 - range.start as i128) as u128;
                assert!(span > 0, "gen_range over an empty range");
                (range.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}
impl_range_sample!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Per-message fault probabilities.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultSpec {
    /// Probability the message is lost in transit.
    pub drop: f64,
    /// Probability the message is delivered twice (wire-level duplicate).
    pub duplicate: f64,
    /// Probability the message is delayed by [`FaultSpec::delay`].
    pub delay_prob: f64,
    /// Extra latency charged when a delay fires.
    pub delay: Ticks,
}

impl FaultSpec {
    /// A spec that only drops, with probability `p`.
    pub fn drop_rate(p: f64) -> Self {
        FaultSpec {
            drop: p,
            ..Default::default()
        }
    }
}

/// Deterministic *gray* behaviour of one **directed** link.
///
/// Unlike the probabilistic [`FaultSpec`], a gray spec is a stable
/// property of a direction: every message sent `from -> to` is slowed
/// (latency inflation, not a cut) while the opposite direction keeps its
/// speed. This is the failure mode partition detection cannot see — the
/// link is "up", it is just *slow* — and what the health monitor
/// ([`crate::health`]) exists to catch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct GraySpec {
    /// Multiplies the base transmission latency (0 and 1 both mean
    /// "unchanged").
    pub(crate) slow_factor: u32,
    /// Extra latency added after the multiplication.
    pub(crate) slow_extra: Ticks,
}

impl GraySpec {
    /// A slow-link spec: latency is multiplied by `factor` then `extra`
    /// is added.
    pub fn slow(factor: u32, extra: Ticks) -> Self {
        GraySpec {
            slow_factor: factor,
            slow_extra: extra,
        }
    }

    /// Whether the spec inflates latency.
    pub(crate) fn is_slow(&self) -> bool {
        self.slow_factor > 1 || self.slow_extra > Ticks::ZERO
    }

    /// Applies the inflation to a base transmission cost.
    pub(crate) fn inflate(&self, base: Ticks) -> Ticks {
        let mult = self.slow_factor.max(1) as u64;
        Ticks::micros(base.as_micros().saturating_mul(mult)) + self.slow_extra
    }
}

/// A topology change scheduled against the virtual clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Site crashes: nothing reaches it until it revives.
    Crash(SiteId),
    /// Crashed site comes back up.
    Revive(SiteId),
    /// The physical link between two sites goes down.
    LinkDown(SiteId, SiteId),
    /// The physical link comes back.
    LinkUp(SiteId, SiteId),
}

/// One scheduled fault event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ScheduledFault {
    /// Virtual time at or after which the action fires.
    pub at: Ticks,
    /// What happens.
    pub(crate) action: FaultAction,
}

/// A complete, seeded fault-injection plan.
///
/// Precedence for probabilistic faults: a per-message-kind spec overrides
/// a per-link spec, which overrides the default spec. Scheduled events
/// fire in `at` order as the virtual clock passes them.
///
/// # Examples
///
/// ```
/// use locus_net::{FaultPlan, FaultSpec};
/// use locus_types::{SiteId, Ticks};
///
/// let plan = FaultPlan::new(42)
///     .default_spec(FaultSpec::drop_rate(0.1))
///     .kind_spec("COMMIT req", FaultSpec::drop_rate(0.5))
///     .link_flap(SiteId(0), SiteId(1), Ticks::millis(5), Ticks::millis(9));
/// assert_eq!(plan.seed(), 42);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    default: FaultSpec,
    per_link: BTreeMap<(SiteId, SiteId), FaultSpec>,
    per_kind: BTreeMap<&'static str, FaultSpec>,
    /// Gray behaviour keyed by **ordered** `(from, to)` — a gray fault
    /// is one-directional by definition.
    per_gray: BTreeMap<(SiteId, SiteId), GraySpec>,
    schedule: Vec<ScheduledFault>,
}

fn link_key(a: SiteId, b: SiteId) -> (SiteId, SiteId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the default per-message fault spec.
    pub fn default_spec(mut self, spec: FaultSpec) -> Self {
        self.default = spec;
        self
    }

    /// Overrides the spec for one (unordered) link.
    pub fn link_spec(mut self, a: SiteId, b: SiteId, spec: FaultSpec) -> Self {
        self.per_link.insert(link_key(a, b), spec);
        self
    }

    /// Overrides the spec for one message kind (takes precedence over
    /// link specs).
    pub fn kind_spec(mut self, kind: &'static str, spec: FaultSpec) -> Self {
        self.per_kind.insert(kind, spec);
        self
    }

    /// One-directional slow link: every `from -> to` message's latency
    /// is multiplied by `factor` then `extra` is added; the opposite
    /// direction is unaffected.
    pub fn slow_link(mut self, from: SiteId, to: SiteId, factor: u32, extra: Ticks) -> Self {
        self.per_gray
            .insert((from, to), GraySpec::slow(factor, extra));
        self
    }

    /// The gray spec in force for the directed link `from -> to`, if any.
    pub(crate) fn gray_for(&self, from: SiteId, to: SiteId) -> Option<GraySpec> {
        self.per_gray.get(&(from, to)).copied()
    }

    /// Schedules a raw fault action.
    pub fn schedule(mut self, at: Ticks, action: FaultAction) -> Self {
        self.schedule.push(ScheduledFault { at, action });
        self.schedule.sort_by_key(|ev| ev.at);
        self
    }

    /// Schedules a crash at `at` and a revive at `until`.
    pub fn crash_window(self, site: SiteId, at: Ticks, until: Ticks) -> Self {
        self.schedule(at, FaultAction::Crash(site))
            .schedule(until, FaultAction::Revive(site))
    }

    /// Schedules a transient link flap: down at `at`, back at `until`.
    pub fn link_flap(self, a: SiteId, b: SiteId, at: Ticks, until: Ticks) -> Self {
        self.schedule(at, FaultAction::LinkDown(a, b))
            .schedule(until, FaultAction::LinkUp(a, b))
    }

    /// The effective spec for one message (kind > link > default).
    fn spec_for(&self, from: SiteId, to: SiteId, kind: &str) -> FaultSpec {
        if let Some(s) = self.per_kind.get(kind) {
            return *s;
        }
        if let Some(s) = self.per_link.get(&link_key(from, to)) {
            return *s;
        }
        self.default
    }
}

/// The injector's verdict on one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Deliver normally.
    Deliver,
    /// Deliver, plus a wire-level duplicate.
    Duplicate,
    /// Deliver after extra latency.
    Delay(Ticks),
    /// Lost in transit.
    Drop,
}

/// The golden-ratio multiplier shared with [`SimRng::seed_from_u64`].
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The seed of one source site's RNG stream.
///
/// **Derivation rule** (documented because every pinned chaos
/// fingerprint depends on it): site `s` draws its fault rolls from
/// `SimRng::seed_from_u64(plan_seed ^ GOLDEN · (s + 1))` where `GOLDEN =
/// 0x9E37_79B9_7F4A_7C15`, the same odd multiplier `seed_from_u64`
/// itself uses. Each site's stream depends only on the plan seed and the
/// site id — never on other sites' traffic — so any interleaving of
/// sends from different sites consumes the same rolls per site.
pub(crate) fn site_stream_seed(plan_seed: u64, site: SiteId) -> u64 {
    plan_seed ^ GOLDEN.wrapping_mul(u64::from(site.0) + 1)
}

/// Live injection state: the plan plus its per-source-site RNG streams
/// and schedule cursor.
#[derive(Clone, Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    /// One RNG stream per **source** site, created on first use from
    /// [`site_stream_seed`].
    streams: BTreeMap<SiteId, SimRng>,
    /// Index of the next unfired scheduled event.
    cursor: usize,
}

impl FaultInjector {
    /// An injector that never injects (the default network).
    pub(crate) fn inert() -> Self {
        FaultInjector::new(FaultPlan::default())
    }

    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            streams: BTreeMap::new(),
            cursor: 0,
        }
    }

    /// The stream of one source site, created on demand.
    fn stream(&mut self, site: SiteId) -> &mut SimRng {
        let seed = site_stream_seed(self.plan.seed, site);
        self.streams
            .entry(site)
            .or_insert_with(|| SimRng::seed_from_u64(seed))
    }

    /// Pops every scheduled event due at or before `now`.
    pub(crate) fn due_events(&mut self, now: Ticks) -> Vec<FaultAction> {
        let mut out = Vec::new();
        while let Some(ev) = self.plan.schedule.get(self.cursor) {
            if ev.at > now {
                break;
            }
            out.push(ev.action);
            self.cursor += 1;
        }
        out
    }

    /// Rolls the dice for one message, consuming the **source site's**
    /// stream in a fixed order (drop, then duplicate, then delay) so
    /// decisions are reproducible per seed regardless of which
    /// probabilities are zero.
    pub(crate) fn judge(&mut self, from: SiteId, to: SiteId, kind: &str) -> Verdict {
        let spec = self.plan.spec_for(from, to, kind);
        if spec.drop == 0.0 && spec.duplicate == 0.0 && spec.delay_prob == 0.0 {
            return Verdict::Deliver;
        }
        let rng = self.stream(from);
        let (d, dup, del) = (rng.gen_f64(), rng.gen_f64(), rng.gen_f64());
        if d < spec.drop {
            Verdict::Drop
        } else if dup < spec.duplicate {
            Verdict::Duplicate
        } else if del < spec.delay_prob {
            Verdict::Delay(spec.delay)
        } else {
            Verdict::Deliver
        }
    }

    /// The gray spec for the directed link `from -> to`, if any.
    pub(crate) fn gray_for(&self, from: SiteId, to: SiteId) -> Option<GraySpec> {
        self.plan.gray_for(from, to)
    }
}

/// Bounded-retry, exponential-backoff policy for request messages.
///
/// A retry is the *caller's* reaction to a [`crate::NetError::Dropped`]
/// send: each failed attempt charges `backoff(attempt)` to the virtual
/// clock (the §5.5 "timeouts cost wall-clock time" accounting) before the
/// resend. Replies are never retried — a lost reply closes the virtual
/// circuit and the conversation aborts (§5.1); recovery is the higher
/// protocol's job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total send attempts (1 = no retries).
    pub max_attempts: u32,
    /// Backoff charged after the first failed attempt.
    pub base_backoff: Ticks,
    /// Backoff multiplier per subsequent attempt.
    pub multiplier: u32,
}

impl Default for RetryPolicy {
    /// Four attempts, 2 ms base, doubling: 2 ms, 4 ms, 8 ms of virtual
    /// time charged across a worst-case burst of three retries.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Ticks::millis(2),
            multiplier: 2,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Ticks::ZERO,
            multiplier: 1,
        }
    }

    /// The backoff charged after failed attempt number `attempt`
    /// (0-based).
    pub(crate) fn backoff(&self, attempt: u32) -> Ticks {
        let mut t = self.base_backoff;
        for _ in 0..attempt {
            t = Ticks::micros(t.as_micros().saturating_mul(self.multiplier as u64));
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = SimRng::seed_from_u64(9);
        let mut b = SimRng::seed_from_u64(9);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::seed_from_u64(10);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..500 {
            let v = rng.gen_range(3u32..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(-5i32..5);
            assert!((-5..5).contains(&w));
        }
    }

    #[test]
    fn spec_precedence_kind_over_link_over_default() {
        let plan = FaultPlan::new(0)
            .default_spec(FaultSpec::drop_rate(0.1))
            .link_spec(SiteId(1), SiteId(0), FaultSpec::drop_rate(0.2))
            .kind_spec("OPEN req", FaultSpec::drop_rate(0.3));
        assert_eq!(plan.spec_for(SiteId(2), SiteId(3), "READ req").drop, 0.1);
        // Link specs are unordered.
        assert_eq!(plan.spec_for(SiteId(0), SiteId(1), "READ req").drop, 0.2);
        assert_eq!(plan.spec_for(SiteId(0), SiteId(1), "OPEN req").drop, 0.3);
    }

    #[test]
    fn schedule_fires_in_time_order() {
        let plan = FaultPlan::new(0)
            .schedule(Ticks::micros(30), FaultAction::Revive(SiteId(1)))
            .schedule(Ticks::micros(10), FaultAction::Crash(SiteId(1)));
        let mut inj = FaultInjector::new(plan);
        assert!(inj.due_events(Ticks::micros(5)).is_empty());
        assert_eq!(
            inj.due_events(Ticks::micros(10)),
            vec![FaultAction::Crash(SiteId(1))]
        );
        assert_eq!(
            inj.due_events(Ticks::micros(100)),
            vec![FaultAction::Revive(SiteId(1))]
        );
        assert!(inj.due_events(Ticks::micros(200)).is_empty());
    }

    #[test]
    fn drop_rate_one_always_drops() {
        let plan = FaultPlan::new(3).default_spec(FaultSpec::drop_rate(1.0));
        let mut inj = FaultInjector::new(plan);
        for _ in 0..10 {
            assert_eq!(inj.judge(SiteId(0), SiteId(1), "x"), Verdict::Drop);
        }
    }

    #[test]
    fn inert_injector_consumes_no_randomness() {
        let mut a = FaultInjector::inert();
        assert_eq!(a.judge(SiteId(0), SiteId(1), "x"), Verdict::Deliver);
        assert!(
            a.streams.is_empty(),
            "an inactive plan must not even materialize a stream"
        );
    }

    #[test]
    fn per_site_streams_are_independent_of_interleaving() {
        // The same per-site send sequence must consume the same rolls no
        // matter how sends from different sites interleave.
        let spec = FaultSpec::drop_rate(0.4);
        let plan = || FaultPlan::new(11).default_spec(spec);
        let mut a = FaultInjector::new(plan());
        let mut b = FaultInjector::new(plan());
        // a: all of site 0's sends, then all of site 1's.
        let mut va: Vec<Verdict> = (0..16)
            .map(|_| a.judge(SiteId(0), SiteId(2), "x"))
            .collect();
        va.extend((0..16).map(|_| a.judge(SiteId(1), SiteId(2), "x")));
        // b: the same sends, alternating.
        let mut v0 = Vec::new();
        let mut v1 = Vec::new();
        for _ in 0..16 {
            v0.push(b.judge(SiteId(0), SiteId(2), "x"));
            v1.push(b.judge(SiteId(1), SiteId(2), "x"));
        }
        assert_eq!(&va[..16], &v0[..]);
        assert_eq!(&va[16..], &v1[..]);
    }

    #[test]
    fn gray_specs_are_directional() {
        let plan = FaultPlan::new(0).slow_link(SiteId(0), SiteId(1), 4, Ticks::micros(50));
        let slow = plan.gray_for(SiteId(0), SiteId(1)).expect("installed");
        assert!(slow.is_slow());
        assert_eq!(slow.inflate(Ticks::micros(100)), Ticks::micros(450));
        assert_eq!(plan.gray_for(SiteId(1), SiteId(0)), None, "one-way");
    }

    #[test]
    fn judge_rolls_three_times_per_judged_message() {
        // An active spec consumes exactly three rolls of the per-site RNG
        // stream per judged message (drop, duplicate, delay), with the
        // stream seeded by the documented derivation rule.
        let spec = FaultSpec {
            drop: 0.3,
            duplicate: 0.1,
            delay_prob: 0.2,
            delay: Ticks::micros(10),
        };
        let mut inj = FaultInjector::new(FaultPlan::new(77).default_spec(spec));
        let mut reference = SimRng::seed_from_u64(site_stream_seed(77, SiteId(0)));
        let mut verdicts = Vec::new();
        for _ in 0..32 {
            verdicts.push(inj.judge(SiteId(0), SiteId(1), "x"));
            let (d, dup, del) = (
                reference.gen_f64(),
                reference.gen_f64(),
                reference.gen_f64(),
            );
            let expect = if d < spec.drop {
                Verdict::Drop
            } else if dup < spec.duplicate {
                Verdict::Duplicate
            } else if del < spec.delay_prob {
                Verdict::Delay(spec.delay)
            } else {
                Verdict::Deliver
            };
            assert_eq!(*verdicts.last().unwrap(), expect);
        }
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(0), Ticks::millis(2));
        assert_eq!(p.backoff(1), Ticks::millis(4));
        assert_eq!(p.backoff(2), Ticks::millis(8));
        assert_eq!(RetryPolicy::none().backoff(5), Ticks::ZERO);
    }
}

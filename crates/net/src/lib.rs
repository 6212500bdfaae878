//! The simulated LOCUS network substrate.
//!
//! The original system ran on a 10 Mbit broadcast Ethernet with specialized
//! kernel-to-kernel protocols ("no acknowledgements, flow control or any
//! other underlying mechanism", §2.3.3 fn). This crate reproduces the
//! *properties* that matter to the paper's evaluation:
//!
//! * a reachability matrix with **enforced transitivity** (§5.1: the
//!   high-level protocols assume that if A talks to B and B to C then A
//!   talks to C; the low-level machinery guarantees it) — reachability is
//!   computed over connected components of live links;
//! * **virtual circuits** whose failure mid-conversation (a lost reply)
//!   leaves a closed-circuit notice the pair's next send observes, aborting
//!   the ongoing activity (§5.1);
//! * a **virtual clock** and a latency model calibrated to a 1983 Ethernet,
//!   so experiment harnesses can report simulated elapsed time;
//! * per-message-type **statistics** and one **event stream**
//!   ([`ObsEvent`]) from which the Figure 1 / Figure 2 message sequences
//!   are regenerated and the protocol invariants audited.
//!
//! All state is behind interior mutability so a `&Net` can be threaded
//! through nested simulated remote procedure calls.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
pub mod clock;
pub mod engine;
pub mod fault;
pub mod health;
pub mod latency;
pub mod obs;
pub mod rpc;
pub mod stats;
pub mod topology;

use std::cell::RefCell;
use std::fmt::Display;

use locus_types::{SiteId, SysResult, Ticks};

pub use engine::EngineKind;
pub use fault::{FaultAction, FaultPlan, FaultSpec, RetryPolicy, SimRng};
pub use health::{HealthPolicy, SiteHealth};
pub use latency::LatencyModel;
pub use obs::{
    audit, export_jsonl, op_stats, parse_jsonl, render_op_stats, AuditReport, ObsEvent, OpStat,
    SendOutcome, CSS_CLAIM_COOLDOWN,
};
pub use rpc::{RpcEngine, RpcError, WireMsg};
pub use stats::{KindStats, NetStats, ServiceStats};
pub use topology::Topology;

use circuit::CircuitTable;
use clock::VirtualClock;
use fault::{FaultInjector, Verdict};
use health::{HealthEvent, HealthMonitor};
use obs::Observer;

/// Errors surfaced by the network layer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetError {
    /// Destination site is crashed or in a different partition.
    Unreachable,
    /// The virtual circuit to the destination was closed mid-conversation
    /// (partition change while an operation was in flight, §5.1).
    CircuitClosed,
    /// A site attempted to send a network message to itself; local service
    /// must be performed by direct procedure call (§2.3.3).
    SelfSend,
    /// The message was lost to an injected fault. The destination never
    /// saw it; the sender may safely retry (the [`RpcEngine`] does).
    Dropped,
    /// A *reply* was lost to an injected fault. The request was already
    /// served, so the conversation is ambiguous: the circuit closes
    /// (§5.1) and the next send between the pair observes
    /// [`NetError::CircuitClosed`].
    ReplyLost,
}

impl NetError {
    /// Whether resending the same message can succeed without help from
    /// a reconfiguration step (transient fault, not a topology change).
    pub(crate) fn is_transient(self) -> bool {
        matches!(
            self,
            NetError::Dropped | NetError::ReplyLost | NetError::CircuitClosed
        )
    }
}

impl core::fmt::Display for NetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            NetError::Unreachable => "destination unreachable",
            NetError::CircuitClosed => "virtual circuit closed",
            NetError::SelfSend => "network send to self",
            NetError::Dropped => "message dropped by fault injection",
            NetError::ReplyLost => "reply dropped by fault injection",
        };
        f.write_str(s)
    }
}

impl std::error::Error for NetError {}

/// The simulated network: topology + circuits + clock + accounting.
///
/// # Examples
///
/// ```
/// use locus_net::Net;
/// use locus_types::SiteId;
///
/// let net = Net::new(3);
/// net.send(SiteId(0), SiteId(1), "OPEN req", 64).unwrap();
/// net.partition(&[vec![SiteId(0)], vec![SiteId(1), SiteId(2)]]);
/// assert!(net.send(SiteId(0), SiteId(1), "OPEN req", 64).is_err());
/// ```
pub struct Net {
    inner: RefCell<Inner>,
}

/// Which leg of the one kernel-to-kernel message discipline (§2.3.2) a
/// transmission is: decides the [`ObsEvent`] shape, and whether an
/// injected drop is a lost reply.
pub(crate) enum Leg<'a> {
    /// A request awaiting a reply of kind `reply_kind`.
    Request {
        reply_kind: &'a str,
        idempotent: bool,
    },
    /// The reply to a served request.
    Reply,
    /// A one-way message with only low-level acknowledgement.
    OneWay,
}

struct Inner {
    topology: Topology,
    circuits: CircuitTable,
    clock: VirtualClock,
    latency: LatencyModel,
    stats: NetStats,
    obs: Observer,
    faults: FaultInjector,
    health: HealthMonitor,
    /// Per-site service timelines: when each site's CPU and disk are
    /// next free, indexed by [`Resource`]. Neither ever moves backwards;
    /// either may run ahead of the clock while a detached one-way or a
    /// delayed write is still being served.
    free_at: Vec<[Ticks; 2]>,
}

/// A site resource with a service timeline of its own: one thing is
/// served at a time on each, and the two run side by side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Resource {
    /// The site's processor: kernel and message-handling work.
    Cpu,
    /// The site's disk: page transfers to and from the pack.
    Disk,
}

impl Inner {
    /// Books `cost` of service on `site`'s `res` timeline for work that
    /// arrives now: service starts once the timeline is free, the wait
    /// goes to the queue-wait table and the service to the busy table.
    /// Returns the instant the service ends; the clock does not move.
    fn book(&mut self, site: SiteId, res: Resource, cost: Ticks) -> Ticks {
        let now = self.clock.now();
        let free = &mut self.free_at[site.index()][res as usize];
        let start = now.max(*free);
        let end = start + cost;
        debug_assert!(
            start >= *free,
            "{site} {res:?} service starts before its timeline is free"
        );
        debug_assert!(end >= *free, "{site} {res:?} timeline moves backwards");
        *free = end;
        self.stats.record_wait(site, (start - now).as_micros());
        self.stats.record_busy(site, cost.as_micros());
        end
    }

    /// Records a health transition as an observability note (quarantine
    /// windows are what the trace auditor's isolation invariants replay).
    fn note_health(&mut self, ev: Option<HealthEvent>) {
        let Some(ev) = ev else { return };
        let now = self.clock.now();
        match ev {
            HealthEvent::Quarantined(site, score) => {
                self.obs
                    .note(now, site, "health.quarantine", site, score as u64);
            }
            HealthEvent::Readmitted(site) => {
                self.obs.note(now, site, "health.readmit", site, 0);
            }
        }
    }
    /// Applies every scheduled fault event the virtual clock has passed.
    /// Called lazily on entry to the send and reachability paths, so
    /// crash/revive/flap schedules take effect exactly when simulated time
    /// reaches them, whatever advanced the clock.
    fn apply_due_faults(&mut self) {
        let now = self.clock.now();
        for action in self.faults.due_events(now) {
            match action {
                FaultAction::Crash(site) => self.topology.set_up(site, false),
                FaultAction::Revive(site) => self.topology.set_up(site, true),
                FaultAction::LinkDown(a, b) => self.topology.set_link(a, b, false),
                FaultAction::LinkUp(a, b) => self.topology.set_link(a, b, true),
            }
        }
    }
}

impl Net {
    /// Creates a fully connected network of `n` sites with the default
    /// latency model.
    pub fn new(n: usize) -> Self {
        Net::with_latency(n, LatencyModel::ethernet_1983())
    }

    /// Creates a network with a custom latency model.
    pub fn with_latency(n: usize, latency: LatencyModel) -> Self {
        Net {
            inner: RefCell::new(Inner {
                topology: Topology::new(n),
                circuits: CircuitTable::new(),
                clock: VirtualClock::new(),
                latency,
                stats: NetStats::new(),
                obs: Observer::new(),
                faults: FaultInjector::inert(),
                health: HealthMonitor::new(),
                free_at: vec![[Ticks::ZERO; 2]; n],
            }),
        }
    }

    /// Installs a fault-injection plan (replacing any previous one and
    /// rewinding its RNG to the plan's seed). Already-scheduled events
    /// whose time has passed fire on the next send.
    pub fn install_faults(&self, plan: FaultPlan) {
        self.inner.borrow_mut().faults = FaultInjector::new(plan);
    }

    /// Removes fault injection; subsequent traffic is delivered cleanly.
    pub fn clear_faults(&self) {
        self.inner.borrow_mut().faults = FaultInjector::inert();
    }

    /// Number of sites (live or not).
    pub fn site_count(&self) -> usize {
        self.inner.borrow().topology.site_count()
    }

    /// Sends one message of `bytes` payload from `from` to `to`.
    ///
    /// On success the virtual clock advances by the message latency and
    /// the per-kind statistics are updated. A failed send (unreachable
    /// destination) is counted separately; timeout accounting is the caller's policy. Under an
    /// installed [`FaultPlan`] the message may also be dropped
    /// ([`NetError::Dropped`] — safe to retry), duplicated, or delayed.
    ///
    /// This is the raw wire: no service attribution, no [`ObsEvent`].
    /// Protocol traffic goes through the [`RpcEngine`].
    pub fn send(
        &self,
        from: SiteId,
        to: SiteId,
        kind: &'static str,
        bytes: usize,
    ) -> Result<(), NetError> {
        Self::transmit(
            &mut self.inner.borrow_mut(),
            from,
            to,
            kind,
            bytes,
            false,
            None,
        )
    }

    /// One wire transmission: every send entry point ends here. `service`
    /// is the engine's attribution (none for a raw [`Net::send`]).
    fn transmit(
        g: &mut Inner,
        from: SiteId,
        to: SiteId,
        kind: &'static str,
        bytes: usize,
        is_reply: bool,
        service: Option<&'static str>,
    ) -> Result<(), NetError> {
        g.apply_due_faults();
        if from == to {
            return Err(NetError::SelfSend);
        }
        // Gray-failure signals blame the remote conversation partner: the
        // destination of a request, the *server* (sender) of a reply —
        // the site a waiting requester would accuse of the silence.
        let blame = if is_reply { from } else { to };
        if !g.topology.can_communicate(from, to) {
            g.stats.kind_mut(kind, service).fails += 1;
            return Err(NetError::Unreachable);
        }
        if g.circuits.take_abort(from, to) {
            g.stats.kind_mut(kind, service).fails += 1;
            // A closed-circuit notice is a fault signal: the previous
            // conversation on this pair died mid-flight.
            let ev = g.health.observe_fault(blame);
            g.note_health(ev);
            return Err(NetError::CircuitClosed);
        }
        let verdict = g.faults.judge(from, to, kind);
        // The message reaches the wire in every verdict: the sender pays
        // transmission latency whether or not delivery happens.
        let mut cost = g.latency.message_cost(bytes);
        let row = g.stats.kind_mut(kind, service);
        if let Verdict::Delay(extra) = verdict {
            cost += extra;
            row.delays += 1;
        }
        if verdict == Verdict::Drop {
            row.drops += 1;
        } else {
            row.sends += 1;
            row.bytes += bytes as u64;
            if verdict == Verdict::Duplicate {
                row.dups += 1;
            }
        }
        if let Some(gs) = g.faults.gray_for(from, to) {
            if gs.is_slow() {
                cost = gs.inflate(cost);
            }
        }
        g.clock.advance(cost);
        if verdict == Verdict::Drop {
            let ev = g.health.observe_fault(blame);
            g.note_health(ev);
            return if is_reply {
                g.circuits.abort_pair(from, to);
                Err(NetError::ReplyLost)
            } else {
                Err(NetError::Dropped)
            };
        }
        let ev = g.health.observe_success(from, to, blame, cost);
        g.note_health(ev);
        if verdict == Verdict::Duplicate {
            // The wire delivers a second copy; receivers are idempotent at
            // the message level, so only the clock and the `dups` counter
            // notice.
            let dup_cost = g.latency.message_cost(bytes);
            g.clock.advance(dup_cost);
        }
        Ok(())
    }

    /// The [`RpcEngine`]'s transmission: one attempt of `leg` under
    /// `span`, attributed to `service`, with the statistics rows and the
    /// [`ObsEvent`] written in the same borrow. A dropped
    /// [`Leg::Reply`] is a [`NetError::ReplyLost`] — the request was
    /// already served, so the circuit is closed mid-conversation and the
    /// pair's next send observes [`NetError::CircuitClosed`] (§5.1).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send_as(
        &self,
        service: &'static str,
        span: u64,
        leg: Leg<'_>,
        from: SiteId,
        to: SiteId,
        kind: &'static str,
        bytes: usize,
    ) -> Result<(), NetError> {
        let mut g = self.inner.borrow_mut();
        let is_reply = matches!(leg, Leg::Reply);
        let result = Self::transmit(&mut g, from, to, kind, bytes, is_reply, Some(service));
        if g.obs.enabled() {
            let at = g.clock.now();
            let outcome = SendOutcome::of(&result);
            let (kind, bytes) = (kind.to_owned(), bytes as u64);
            g.obs.record(match leg {
                Leg::Request {
                    reply_kind,
                    idempotent,
                } => ObsEvent::Request {
                    span,
                    at,
                    from,
                    to,
                    kind,
                    reply_kind: reply_kind.to_owned(),
                    bytes,
                    idempotent,
                    outcome,
                },
                Leg::Reply => ObsEvent::Reply {
                    span,
                    at,
                    from,
                    to,
                    kind,
                    bytes,
                    outcome,
                },
                Leg::OneWay => ObsEvent::OneWay {
                    span,
                    at,
                    from,
                    to,
                    kind,
                    bytes,
                    outcome,
                },
            });
        }
        result
    }

    /// Counts one engine-level retry of `kind` (a resent request or a
    /// re-issued RPC), attributed to `service`.
    pub(crate) fn note_retry(&self, service: &'static str, kind: &'static str) {
        let mut g = self.inner.borrow_mut();
        g.stats.kind_mut(kind, Some(service)).retries += 1;
    }

    /// Records a one-way notification of `kind` abandoned after retry
    /// exhaustion under `span`, attributed to `service` (partition
    /// recovery later reconciles what the notification would have
    /// carried, §4).
    pub(crate) fn note_one_way_loss(&self, service: &'static str, span: u64, kind: &'static str) {
        let mut g = self.inner.borrow_mut();
        g.stats.kind_mut(kind, Some(service)).losses += 1;
        if g.obs.enabled() {
            let at = g.clock.now();
            g.obs.record(ObsEvent::OneWayLoss {
                span,
                at,
                kind: kind.to_owned(),
            });
        }
    }

    /// Accounts local (same-site) kernel work of `cost` ticks; used by the
    /// simulated kernels so CPU time shows up on the same clock as wire
    /// time.
    pub fn charge_cpu(&self, cost: Ticks) {
        self.inner.borrow_mut().clock.advance(cost);
    }

    /// Like [`Net::charge_cpu`], but also attributes the cycles to the
    /// site that spent them in the per-site busy table. The single global
    /// clock cannot show *where* load concentrates; the busy table is what
    /// the scale sweep and the CSS placement policy read to find hot
    /// sites.
    ///
    /// Service starts once the site's CPU is free: a site serves one
    /// thing at a time, whether the work before it was an
    /// [`Net::overlap`] leg or a one-way message its sender has stopped
    /// waiting for. The caller resumes when the service ends; the wait,
    /// if any, is recorded in the queue-wait table.
    pub fn charge_cpu_at(&self, site: SiteId, cost: Ticks) {
        self.serve(site, Resource::Cpu, cost);
    }

    /// [`Net::charge_cpu_at`] for the site's disk: a transfer the caller
    /// waits for (a read miss, a commit's own I/O). It queues behind every
    /// transfer booked before it, delayed writes included.
    pub fn charge_disk_at(&self, site: SiteId, cost: Ticks) {
        self.serve(site, Resource::Disk, cost);
    }

    /// Books `cost` on the site's disk without waiting for it: a delayed
    /// write or an asynchronous readahead. The disk is busy for it all
    /// the same, so whatever needs the disk next queues behind it.
    pub fn queue_disk_at(&self, site: SiteId, cost: Ticks) {
        self.inner.borrow_mut().book(site, Resource::Disk, cost);
    }

    /// Waits until every transfer booked on `site`'s disk has finished:
    /// the §2.3.6 ordering point, where the pages of a shadow session must
    /// be on disk before the inode points at them. The wait counts as
    /// queue wait.
    pub fn drain_disk(&self, site: SiteId) {
        let mut g = self.inner.borrow_mut();
        let now = g.clock.now();
        let free = g.free_at[site.index()][Resource::Disk as usize];
        if free > now {
            g.stats.record_wait(site, (free - now).as_micros());
            g.clock.advance(free - now);
        }
    }

    fn serve(&self, site: SiteId, res: Resource, cost: Ticks) {
        let mut g = self.inner.borrow_mut();
        let end = g.book(site, res, cost);
        let now = g.clock.now();
        g.clock.advance(end - now);
    }

    /// Waits until every site's CPU and disk are free: the clock moves to
    /// the end of the last service still running anywhere.
    pub fn wait_idle(&self) {
        let mut g = self.inner.borrow_mut();
        let now = g.clock.now();
        let last = g.free_at.iter().flatten().fold(now, |a, &b| a.max(b));
        g.clock.advance(last - now);
    }

    /// When `site` is next free on `res`: at or before `now` when idle.
    #[cfg(test)]
    fn free_at(&self, site: SiteId, res: Resource) -> Ticks {
        self.inner.borrow().free_at[site.index()][res as usize]
    }

    /// Whether every site's CPU and disk are free by `now`.
    pub fn is_idle(&self) -> bool {
        let g = self.inner.borrow();
        let now = g.clock.now();
        g.free_at.iter().flatten().all(|&t| t <= now)
    }

    /// Runs `leg` forked at the current instant and returns its result
    /// with the instant it ended, leaving the clock back at the fork.
    /// Whatever the leg served stays booked on the sites' timelines. The
    /// fork is where the clock moves backwards: [`Net::overlap`] joins at
    /// its latest leg, and a one-way message joins at the fork, so its
    /// sender resumes at delivery while the destination keeps serving.
    pub(crate) fn fork<T>(&self, leg: impl FnOnce() -> T) -> (T, Ticks) {
        let fork = self.now();
        let out = leg();
        let mut g = self.inner.borrow_mut();
        let end = g.clock.now();
        g.clock.rewind(fork);
        (out, end)
    }

    /// Runs `leg` once per item as work at different sites proceeding side
    /// by side in virtual time: every leg starts at the fork instant, and
    /// the clock resumes at the latest leg's end. Legs still execute one
    /// after another in item order, so every message, handler effect and
    /// random draw is what a serial loop would produce; only the clock
    /// differs. A site's service inside a leg still waits for that site
    /// to be free ([`Net::charge_cpu_at`]), so legs that share a site
    /// serialise there. Results come back in item order.
    pub fn overlap<I: IntoIterator, T>(
        &self,
        items: I,
        mut leg: impl FnMut(I::Item) -> T,
    ) -> Vec<T> {
        let mut join = self.now();
        let out = items
            .into_iter()
            .map(|item| {
                let (r, end) = self.fork(|| leg(item));
                join = join.max(end);
                r
            })
            .collect();
        self.inner.borrow_mut().clock.set(join);
        out
    }

    /// Current virtual time.
    pub fn now(&self) -> Ticks {
        self.inner.borrow().clock.now()
    }

    /// Whether `from` can currently communicate with `to` (both up, same
    /// connected component; a site always reaches itself while up).
    pub fn reachable(&self, from: SiteId, to: SiteId) -> bool {
        let mut g = self.inner.borrow_mut();
        g.apply_due_faults();
        g.topology.can_communicate(from, to)
    }

    /// Whether the site is up.
    pub fn is_up(&self, site: SiteId) -> bool {
        let mut g = self.inner.borrow_mut();
        g.apply_due_faults();
        g.topology.is_up(site)
    }

    /// The current partitions (connected components of live sites).
    pub fn partitions(&self) -> Vec<Vec<SiteId>> {
        let mut g = self.inner.borrow_mut();
        g.apply_due_faults();
        g.topology.components()
    }

    /// Splits the network into the given groups: links inside a group are
    /// restored, links across groups are cut, and a send across groups
    /// fails with [`NetError::Unreachable`].
    pub fn partition(&self, groups: &[Vec<SiteId>]) {
        self.inner.borrow_mut().topology.set_partition(groups);
    }

    /// Restores full connectivity among all live sites.
    pub fn heal(&self) {
        self.inner.borrow_mut().topology.heal();
    }

    /// Cuts the single link between two sites. Note reachability is
    /// transitive, so the pair may still communicate through a third site.
    pub fn cut_link(&self, a: SiteId, b: SiteId) {
        self.inner.borrow_mut().topology.set_link(a, b, false);
    }

    /// Restores the link between two sites.
    pub fn restore_link(&self, a: SiteId, b: SiteId) {
        self.inner.borrow_mut().topology.set_link(a, b, true);
    }

    /// Crashes a site: nothing reaches it until it revives.
    pub fn crash(&self, site: SiteId) {
        self.inner.borrow_mut().topology.set_up(site, false);
    }

    /// Brings a crashed site back up (with its previous links intact).
    pub fn revive(&self, site: SiteId) {
        self.inner.borrow_mut().topology.set_up(site, true);
    }

    /// Snapshot of the statistics.
    pub fn stats(&self) -> NetStats {
        self.inner.borrow().stats.clone()
    }

    /// Resets message statistics (the topology and clock persist).
    pub fn reset_stats(&self) {
        self.inner.borrow_mut().stats = NetStats::new();
    }

    /// Enables or disables span observation ([`obs`]).
    pub fn set_observing(&self, on: bool) {
        self.inner.borrow_mut().obs.set_enabled(on);
    }

    /// Whether span observation is enabled.
    pub(crate) fn observing(&self) -> bool {
        self.inner.borrow().obs.enabled()
    }

    /// Opens an observability span for a syscall-level operation (or a
    /// nested engine RPC) on behalf of `site`; returns the span id to
    /// pass to [`Net::obs_span_close`] (0 while observation is off).
    pub fn obs_span_open(&self, service: &str, op: &str, site: SiteId) -> u64 {
        let mut g = self.inner.borrow_mut();
        let now = g.clock.now();
        g.obs.span_open(now, service, op, site)
    }

    /// Closes an observability span with an outcome label.
    pub fn obs_span_close(&self, span: u64, outcome: &str) {
        let mut g = self.inner.borrow_mut();
        let now = g.clock.now();
        g.obs.span_close(now, span, outcome);
    }

    /// Runs `f` as one observed operation `service/op` on behalf of
    /// `site`: opens a span around it and closes it with the outcome
    /// (`"ok"` or the errno name). A plain call while observation is off.
    pub fn span<T>(
        &self,
        service: &str,
        op: &str,
        site: SiteId,
        f: impl FnOnce() -> SysResult<T>,
    ) -> SysResult<T> {
        if !self.observing() {
            return f();
        }
        let span = self.obs_span_open(service, op, site);
        let out = f();
        let outcome = match &out {
            Ok(_) => "ok".to_owned(),
            Err(e) => format!("{e:?}"),
        };
        self.obs_span_close(span, &outcome);
        out
    }

    /// Records a protocol annotation (e.g. `commit.begin`), attached to
    /// the innermost open span. `label` is rendered only while observing.
    pub fn obs_note(&self, site: SiteId, key: &str, label: impl Display, value: u64) {
        let mut g = self.inner.borrow_mut();
        let now = g.clock.now();
        g.obs.note(now, site, key, label, value);
    }

    /// Drains the recorded observability events.
    pub fn take_obs_events(&self) -> Vec<ObsEvent> {
        self.inner.borrow_mut().obs.take_events()
    }

    /// How many observability events were discarded past the cap since
    /// the last [`Net::take_obs_events`].
    pub fn obs_truncated(&self) -> u64 {
        self.inner.borrow().obs.truncated()
    }

    /// The latency model in force.
    pub fn latency(&self) -> LatencyModel {
        self.inner.borrow().latency
    }

    /// Charges a timeout delay to the virtual clock (a poll that never got
    /// an answer still costs wall-clock time, §5.5). Scheduled fault
    /// events the delay passes over take effect immediately.
    pub fn charge_timeout(&self, span: Ticks) {
        let mut g = self.inner.borrow_mut();
        g.clock.advance(span);
        g.apply_due_faults();
    }

    /// Enables the passive gray-failure health monitor with `policy`,
    /// resetting any previous scores. The monitor consumes only signals
    /// the network layer already produces (send outcomes, per-message
    /// latency) — no probes, no clock charges, no RNG rolls — so enabling
    /// it never perturbs a deterministic schedule ("observability must
    /// stay free").
    pub fn enable_health(&self, policy: HealthPolicy) {
        self.inner.borrow_mut().health.enable(policy);
    }

    /// Whether `site` is currently isolated by the health monitor
    /// (quarantined or still on probation). Quarantined sites must be
    /// skipped for CSS eligibility and replica reads; always `false`
    /// while the monitor is disabled.
    pub fn quarantined(&self, site: SiteId) -> bool {
        self.inner.borrow().health.quarantined(site)
    }

    /// The health state of `site` as scored by the monitor.
    pub fn site_health(&self, site: SiteId) -> SiteHealth {
        self.inner.borrow().health.state(site)
    }

    /// The current suspicion score of `site` (0 = fully healthy).
    pub fn health_score(&self, site: SiteId) -> u32 {
        self.inner.borrow().health.score(site)
    }

    /// Moves a quarantined site to probation: the recovery layer calls
    /// this before issuing probe traffic. The site stays isolated
    /// ([`Net::quarantined`] remains true) until the policy's required
    /// count of consecutive clean probes readmits it; any fault during
    /// probation silently re-quarantines. Returns whether the transition
    /// happened (false if the site was not quarantined).
    pub fn begin_probation(&self, site: SiteId) -> bool {
        let mut g = self.inner.borrow_mut();
        if g.health.begin_probation(site) {
            let now = g.clock.now();
            g.obs.note(now, site, "health.probation", site, 0);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_advances_clock_and_counts() {
        let net = Net::new(2);
        let t0 = net.now();
        net.send(SiteId(0), SiteId(1), "READ req", 32).unwrap();
        assert!(net.now() > t0);
        assert_eq!(net.stats().sends("READ req"), 1);
    }

    #[test]
    fn self_send_is_rejected() {
        let net = Net::new(2);
        assert_eq!(
            net.send(SiteId(0), SiteId(0), "x", 0),
            Err(NetError::SelfSend)
        );
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        let net = Net::new(4);
        net.partition(&[vec![SiteId(0), SiteId(1)], vec![SiteId(2), SiteId(3)]]);
        assert!(net.send(SiteId(0), SiteId(1), "x", 1).is_ok());
        assert_eq!(
            net.send(SiteId(1), SiteId(2), "x", 1),
            Err(NetError::Unreachable)
        );
        net.heal();
        assert!(net.send(SiteId(1), SiteId(2), "x", 1).is_ok());
    }

    #[test]
    fn transitivity_survives_single_link_cut() {
        // §5.4: a single communications failure must not fragment the
        // network — sites 0 and 1 remain mutually reachable through 2.
        let net = Net::new(3);
        net.cut_link(SiteId(0), SiteId(1));
        assert!(net.reachable(SiteId(0), SiteId(1)));
        assert_eq!(net.partitions().len(), 1);
    }

    #[test]
    fn crash_removes_site_from_partition() {
        let net = Net::new(3);
        net.crash(SiteId(2));
        assert!(!net.reachable(SiteId(0), SiteId(2)));
        assert_eq!(net.partitions(), vec![vec![SiteId(0), SiteId(1)]]);
        net.revive(SiteId(2));
        assert!(net.reachable(SiteId(0), SiteId(2)));
    }

    #[test]
    fn failed_send_closes_circuit_and_is_counted() {
        // A crash or a cut link changes only reachability: the sender sees
        // `Unreachable` across it, and success again once it is undone.
        let net = Net::new(2);
        net.send(SiteId(0), SiteId(1), "x", 1).unwrap();
        net.crash(SiteId(1));
        assert_eq!(
            net.send(SiteId(0), SiteId(1), "x", 1),
            Err(NetError::Unreachable)
        );
        assert_eq!(net.stats().kind("x").fails, 1);
        net.revive(SiteId(1));
        assert!(net.send(SiteId(0), SiteId(1), "x", 1).is_ok());
        net.cut_link(SiteId(1), SiteId(0));
        assert_eq!(
            net.send(SiteId(1), SiteId(0), "x", 1),
            Err(NetError::Unreachable)
        );
        net.restore_link(SiteId(0), SiteId(1));
        assert!(net.send(SiteId(1), SiteId(0), "x", 1).is_ok());
        assert_eq!(net.stats().kind("x").fails, 2);
    }

    #[test]
    fn reachability_requires_both_sites_up() {
        let net = Net::new(2);
        net.crash(SiteId(0));
        assert!(!net.reachable(SiteId(0), SiteId(1)));
        assert!(!net.reachable(SiteId(0), SiteId(0)));
        assert!(net.reachable(SiteId(1), SiteId(1)));
    }

    #[test]
    fn injected_drops_surface_and_are_counted() {
        let net = Net::new(2);
        net.install_faults(FaultPlan::new(7).default_spec(FaultSpec::drop_rate(1.0)));
        let t0 = net.now();
        assert_eq!(
            net.send(SiteId(0), SiteId(1), "x", 8),
            Err(NetError::Dropped)
        );
        assert_eq!(net.stats().drops("x"), 1);
        assert_eq!(net.stats().sends("x"), 0);
        assert!(net.now() > t0, "a dropped message still reached the wire");
        // A dropped *request* leaves no closed-circuit notice: the retry
        // goes through.
        net.clear_faults();
        assert!(net.send(SiteId(0), SiteId(1), "x", 8).is_ok());
    }

    #[test]
    fn dropped_reply_closes_circuit_and_surfaces_circuit_closed() {
        // §5.1: failure of a virtual circuit mid-conversation aborts the
        // ongoing activity. The request was served, the reply is lost: the
        // circuit closes and the next send between the pair is refused.
        let net = Net::new(2);
        net.send(SiteId(0), SiteId(1), "OPEN req", 8).unwrap();
        net.install_faults(FaultPlan::new(1).default_spec(FaultSpec::drop_rate(1.0)));
        assert_eq!(
            net.send_as("test", 0, Leg::Reply, SiteId(1), SiteId(0), "OPEN resp", 8),
            Err(NetError::ReplyLost)
        );
        net.clear_faults();
        assert_eq!(
            net.send(SiteId(0), SiteId(1), "OPEN req", 8),
            Err(NetError::CircuitClosed),
            "the caller observes the abort"
        );
        // The notice is observed exactly once; the next send goes through.
        assert!(net.send(SiteId(0), SiteId(1), "OPEN req", 8).is_ok());
        assert_eq!(net.stats().kind("OPEN req").fails, 1);
    }

    #[test]
    fn scheduled_crash_window_follows_the_virtual_clock() {
        let net = Net::new(2);
        let at = net.now() + Ticks::millis(1);
        let until = at + Ticks::millis(5);
        net.install_faults(FaultPlan::new(0).crash_window(SiteId(1), at, until));
        assert!(net.reachable(SiteId(0), SiteId(1)), "before the window");
        net.charge_timeout(Ticks::millis(2));
        assert!(!net.is_up(SiteId(1)), "inside the window");
        assert_eq!(
            net.send(SiteId(0), SiteId(1), "x", 8),
            Err(NetError::Unreachable)
        );
        net.charge_timeout(Ticks::millis(10));
        assert!(net.reachable(SiteId(0), SiteId(1)), "after the window");
        assert!(net.send(SiteId(0), SiteId(1), "x", 8).is_ok());
    }

    #[test]
    fn link_flap_closes_open_circuit_and_recovers() {
        let net = Net::new(2);
        net.send(SiteId(0), SiteId(1), "x", 8).unwrap();
        let at = net.now() + Ticks::micros(1);
        net.install_faults(FaultPlan::new(0).link_flap(
            SiteId(0),
            SiteId(1),
            at,
            at + Ticks::millis(1),
        ));
        net.charge_timeout(Ticks::micros(5));
        assert!(!net.reachable(SiteId(0), SiteId(1)));
        assert_eq!(
            net.send(SiteId(0), SiteId(1), "x", 8),
            Err(NetError::Unreachable),
            "the flap cut the link"
        );
        net.charge_timeout(Ticks::millis(2));
        assert!(net.reachable(SiteId(0), SiteId(1)), "link restored");
        assert!(net.send(SiteId(0), SiteId(1), "x", 8).is_ok());
    }

    #[test]
    fn one_directional_slow_link_inflates_only_that_direction() {
        let net = Net::new(2);
        net.install_faults(FaultPlan::new(0).slow_link(
            SiteId(0),
            SiteId(1),
            8,
            Ticks::micros(200),
        ));
        let t0 = net.now();
        net.send(SiteId(0), SiteId(1), "x", 64).unwrap();
        let slow = net.now() - t0;
        let t1 = net.now();
        net.send(SiteId(1), SiteId(0), "x", 64).unwrap();
        let fast = net.now() - t1;
        assert!(
            slow > fast,
            "gray direction {slow:?} must cost more than clean reverse {fast:?}"
        );
        assert_eq!(fast, net.latency().message_cost(64), "reverse is clean");
        let row = net.stats().kind("x");
        assert_eq!((row.sends, row.drops), (2, 0), "slow, not lossy");
    }

    #[test]
    fn blocked_reply_direction_aborts_the_circuit() {
        let net = Net::new(2);
        net.send(SiteId(0), SiteId(1), "req", 8).unwrap();
        net.install_faults(FaultPlan::new(0).kind_spec("resp", FaultSpec::drop_rate(1.0)));
        assert_eq!(
            net.send_as("test", 0, Leg::Reply, SiteId(1), SiteId(0), "resp", 8),
            Err(NetError::ReplyLost)
        );
        net.clear_faults();
        assert_eq!(
            net.send(SiteId(0), SiteId(1), "req", 8),
            Err(NetError::CircuitClosed),
            "the requester observes the abort once"
        );
        assert!(net.send(SiteId(0), SiteId(1), "req", 8).is_ok());
    }

    #[test]
    fn health_monitor_quarantines_a_gray_site_via_send_outcomes() {
        let net = Net::new(3);
        net.enable_health(HealthPolicy::default());
        let gray = SiteId(2);
        net.install_faults(FaultPlan::new(0).link_spec(SiteId(0), gray, FaultSpec::drop_rate(1.0)));
        let policy = HealthPolicy::default();
        let need = policy.quarantine_score.div_ceil(policy.fault_penalty);
        for _ in 0..need {
            let _ = net.send(SiteId(0), gray, "x", 8);
        }
        assert!(net.quarantined(gray), "drops blamed on the destination");
        assert_eq!(net.site_health(gray), SiteHealth::Quarantined);
        assert!(!net.quarantined(SiteId(0)), "the sender is not blamed");
        // Quarantine and readmission leave an audit trail in obs notes.
        net.clear_faults();
        assert!(net.begin_probation(gray));
        assert!(net.quarantined(gray), "probation is still isolation");
        for _ in 0..policy.probation_probes {
            net.send(SiteId(0), gray, "probe", 8).unwrap();
        }
        assert!(!net.quarantined(gray), "clean probes readmit");
        assert_eq!(net.site_health(gray), SiteHealth::Healthy);
    }

    #[test]
    fn disabled_health_monitor_never_isolates() {
        let net = Net::new(2);
        net.install_faults(FaultPlan::new(0).default_spec(FaultSpec::drop_rate(1.0)));
        for _ in 0..64 {
            let _ = net.send(SiteId(0), SiteId(1), "x", 8);
        }
        assert!(!net.quarantined(SiteId(1)));
        assert_eq!(net.health_score(SiteId(1)), 0);
    }

    #[test]
    fn overlapped_legs_take_the_longest_unless_they_share_a_site() {
        let net = Net::new(3);
        let ms = Ticks::millis;
        let t0 = net.now();
        net.overlap([(SiteId(0), ms(3)), (SiteId(1), ms(5))], |(site, cost)| {
            net.charge_cpu_at(site, cost)
        });
        assert_eq!(net.now() - t0, ms(5), "different sites: the longer leg");
        let t1 = net.now();
        net.overlap([ms(3), ms(5)], |cost| net.charge_cpu_at(SiteId(2), cost));
        assert_eq!(
            net.now() - t1,
            ms(8),
            "one site serves one leg after the other"
        );
        // After the join every site is free by `now` again.
        let t2 = net.now();
        net.charge_cpu_at(SiteId(2), ms(1));
        assert_eq!(net.now() - t2, ms(1));
        assert_eq!(net.stats().busy_micros(SiteId(2)), ms(9).as_micros());
    }

    #[test]
    fn a_leg_returning_early_still_joins() {
        let net = Net::new(2);
        net.crash(SiteId(1));
        let t0 = net.now();
        let legs = net.overlap([Ticks::millis(4), Ticks::ZERO], |wait| {
            net.charge_timeout(wait);
            net.send(SiteId(0), SiteId(1), "x", 8)?;
            Ok::<_, NetError>(wait)
        });
        assert_eq!(legs, vec![Err(NetError::Unreachable); 2]);
        assert_eq!(net.now() - t0, Ticks::millis(4), "joined at the longer leg");
        // The overlap is closed: a site's service is a plain advance.
        let t1 = net.now();
        net.charge_cpu_at(SiteId(0), Ticks::millis(1));
        assert_eq!(net.now() - t1, Ticks::millis(1));
    }

    #[test]
    fn a_read_miss_queues_behind_delayed_writes() {
        let net = Net::new(2);
        let ms = Ticks::millis;
        let site = SiteId(1);
        let t0 = net.now();
        net.queue_disk_at(site, ms(25));
        net.queue_disk_at(site, ms(25));
        assert_eq!(net.now(), t0, "delayed writes keep no one waiting");
        assert_eq!(net.free_at(site, Resource::Disk), t0 + ms(50));
        // The CPU timeline is a separate queue.
        net.charge_cpu_at(site, ms(2));
        assert_eq!(net.now(), t0 + ms(2));
        net.charge_disk_at(site, ms(25));
        assert_eq!(net.now(), t0 + ms(75), "the read starts after both writes");
        assert_eq!(
            net.stats().wait_micros(site),
            ms(25 + 48).as_micros(),
            "the second write queued behind the first, the read behind both"
        );
        assert_eq!(net.stats().busy_micros(site), ms(77).as_micros());
        assert!(net.is_idle());
    }

    #[test]
    fn drain_and_wait_idle_leave_the_sites_free() {
        let net = Net::new(3);
        let ms = Ticks::millis;
        let t0 = net.now();
        net.queue_disk_at(SiteId(1), ms(25));
        net.fork(|| net.charge_cpu_at(SiteId(2), ms(40)));
        assert_eq!(net.now(), t0, "a forked leg leaves the clock at the fork");
        net.drain_disk(SiteId(1));
        assert_eq!(net.now(), t0 + ms(25), "the drain waits for site 1's disk");
        assert!(!net.is_idle(), "site 2 is still serving");
        net.wait_idle();
        assert_eq!(net.now(), t0 + ms(40));
        assert!(net.is_idle());
        for s in 0..3 {
            for res in [Resource::Cpu, Resource::Disk] {
                assert!(net.free_at(SiteId(s), res) <= net.now());
            }
        }
        net.wait_idle();
        assert_eq!(net.now(), t0 + ms(40), "an idle network waits for nothing");
    }

    #[test]
    fn identical_seed_gives_identical_stats_and_clock() {
        let run = || {
            let net = Net::new(3);
            net.install_faults(FaultPlan::new(99).default_spec(FaultSpec {
                drop: 0.3,
                duplicate: 0.1,
                delay_prob: 0.2,
                delay: Ticks::micros(150),
            }));
            for i in 0..40u32 {
                let _ = net.send(SiteId(i % 3), SiteId((i + 1) % 3), "x", 16 + i as usize);
            }
            (net.stats(), net.now())
        };
        let (stats, now) = run();
        assert!(stats.kind("x").drops > 0 && stats.kind("x").dups > 0);
        assert_eq!((stats, now), run());
    }
}

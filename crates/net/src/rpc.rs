//! The subsystem-agnostic RPC engine.
//!
//! LOCUS has exactly *one* kernel-to-kernel message discipline: "the
//! operating system packages up a message and sends it to the relevant
//! foreign site. Typically the kernel then sleeps, waiting for a
//! response" (§2.3.2, Figure 1). Every subsystem — filesystem, process
//! management, reconfiguration, recovery — speaks it. This module is that
//! discipline extracted once: a [`WireMsg`] trait describing a protocol's
//! typed messages (kind labels, wire size, idempotency) and an
//! [`RpcEngine`] owning the send → serve → reply → loss-handling state
//! machine, so retry/backoff, the §5.1 circuit-abort rule and per-service
//! wire accounting are inherited rather than re-implemented per caller.
//!
//! Failure handling follows the filesystem protocol's rules, now shared:
//!
//! * a dropped **request** never reached the handler and is always safe
//!   to resend — each resend charges the [`RetryPolicy`] backoff to the
//!   virtual clock and counts as a retry;
//! * a dropped **reply** means the request was already served: the
//!   virtual circuit closes mid-conversation (§5.1) and the whole RPC is
//!   re-issued only if the message is [idempotent](WireMsg::idempotent);
//! * a `CircuitClosed` notice left by a previous lost reply is local
//!   knowledge, not a wire transmission — reopening spends no attempt,
//!   but consecutive reopenings are bounded by
//!   [`MAX_CONSECUTIVE_REOPENS`] so a flapping circuit cannot spin the
//!   sender forever.

use locus_types::{SiteId, Ticks};

use crate::{Leg, Net, NetError, RetryPolicy};

/// Default upper bound on *consecutive* `CircuitClosed` reopen-retries
/// within one engine call (the default for [`RetryPolicy::max_reopens`]).
/// Reopening spends no [`RetryPolicy`] attempt (the notice is local
/// knowledge, §5.1), so without a bound a circuit that fails on every
/// reopen — a flapping link — would spin the sender forever. The counter
/// resets whenever a send actually reaches the wire.
pub const MAX_CONSECUTIVE_REOPENS: u32 = 16;

/// A typed wire protocol message a subsystem hands to the [`RpcEngine`].
///
/// Implementations are cheap-to-clone enums (one variant per protocol
/// message); the engine clones the message once per delivery attempt so
/// re-issued RPCs serve the identical request.
pub trait WireMsg: Clone {
    /// The originating service, tagged onto every send for the
    /// per-service tables in [`crate::NetStats`] (e.g. `"fs"`, `"proc"`).
    const SERVICE: &'static str;

    /// The request's kind label in statistics and events.
    fn kind(&self) -> &'static str;

    /// The kind label of the reply paired with this request.
    fn reply_kind(&self) -> &'static str;

    /// Approximate wire size of the request in bytes.
    fn wire_bytes(&self) -> usize;

    /// Whether the request may be *re-issued* after its reply was lost —
    /// i.e. the remote handler may already have run once. Queries and
    /// repetition-tolerant registrations qualify; exactly-once state
    /// transitions do not (their reply loss surfaces as an error for the
    /// §5.6 cleanup / recovery procedures to reconcile).
    fn idempotent(&self) -> bool;
}

/// Why an engine call gave up. Callers usually map every variant to one
/// "site down" error; the distinction exists for tests and diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RpcError {
    /// Destination crashed or in another partition (not transient).
    Unreachable,
    /// Transient request losses exhausted the [`RetryPolicy`] attempts.
    RetriesExhausted,
    /// The reply was lost and the request is not idempotent (or attempts
    /// ran out re-issuing it): the conversation is ambiguous (§5.1).
    ReplyLost,
    /// The circuit failed on [`MAX_CONSECUTIVE_REOPENS`] consecutive
    /// reopen attempts — a flapping link, not a lossy one.
    CircuitFlapping,
}

impl RpcError {
    /// Short stable label used as a span outcome in the observability
    /// layer ([`crate::obs`]).
    pub fn code(self) -> &'static str {
        match self {
            RpcError::Unreachable => "unreachable",
            RpcError::RetriesExhausted => "retries-exhausted",
            RpcError::ReplyLost => "reply-lost",
            RpcError::CircuitFlapping => "circuit-flapping",
        }
    }
}

impl core::fmt::Display for RpcError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            RpcError::Unreachable => "destination unreachable",
            RpcError::RetriesExhausted => "request retries exhausted",
            RpcError::ReplyLost => "reply lost mid-conversation",
            RpcError::CircuitFlapping => "virtual circuit flapping",
        };
        f.write_str(s)
    }
}

impl std::error::Error for RpcError {}

/// The shared request/reply state machine, parameterized only by a
/// [`RetryPolicy`]. Engines are cheap value objects — construct one per
/// call site from the policy in force.
#[derive(Clone, Copy, Debug)]
pub struct RpcEngine {
    policy: RetryPolicy,
}

impl RpcEngine {
    /// An engine applying `policy` under message loss.
    pub fn new(policy: RetryPolicy) -> Self {
        RpcEngine { policy }
    }

    /// The policy in force.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Synchronous remote procedure call (§2.3.2): request message,
    /// `serve` runs the remote handler, reply message carries
    /// `reply_bytes(&result)` back. A same-site "call" is a plain
    /// procedure call with no network traffic (§2.3.3).
    ///
    /// `serve` may be invoked more than once: a lost reply re-issues
    /// idempotent requests, re-running the handler exactly as the real
    /// system would re-serve a re-sent message.
    pub fn rpc<M: WireMsg, R>(
        &self,
        net: &Net,
        from: SiteId,
        to: SiteId,
        msg: M,
        reply_bytes: impl Fn(&R) -> usize,
        serve: impl FnMut(M) -> R,
    ) -> Result<R, RpcError> {
        if from == to {
            let mut serve = serve;
            return Ok(serve(msg));
        }
        // Every remote RPC is a span of its own, nested under whatever
        // syscall-level span the caller opened; its attempts, reopens
        // and the reply are recorded as events inside it.
        let span = net.obs_span_open(M::SERVICE, msg.kind(), from);
        let out = self.rpc_remote(net, span, from, to, msg, reply_bytes, serve);
        net.obs_span_close(
            span,
            match &out {
                Ok(_) => "ok",
                Err(e) => e.code(),
            },
        );
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn rpc_remote<M: WireMsg, R>(
        &self,
        net: &Net,
        span: u64,
        from: SiteId,
        to: SiteId,
        msg: M,
        reply_bytes: impl Fn(&R) -> usize,
        mut serve: impl FnMut(M) -> R,
    ) -> Result<R, RpcError> {
        let kind = msg.kind();
        let reply_kind = msg.reply_kind();
        let mut attempt = 0u32;
        let mut reopens = 0u32;
        loop {
            let leg = Leg::Request {
                reply_kind,
                idempotent: msg.idempotent(),
            };
            match net.send_as(M::SERVICE, span, leg, from, to, kind, msg.wire_bytes()) {
                Ok(()) => reopens = 0,
                Err(NetError::CircuitClosed) => {
                    // The closed-circuit notice left by a lost reply (§5.1)
                    // is local knowledge, not a wire transmission:
                    // acknowledge it and reopen immediately, without
                    // spending an attempt — but never unboundedly.
                    if reopens >= self.policy.max_reopens {
                        return Err(RpcError::CircuitFlapping);
                    }
                    reopens += 1;
                    net.note_retry(M::SERVICE, kind);
                    continue;
                }
                Err(e) if e.is_transient() && attempt + 1 < self.policy.max_attempts => {
                    net.charge_timeout(self.policy.backoff(attempt));
                    net.note_retry(M::SERVICE, kind);
                    attempt += 1;
                    continue;
                }
                Err(NetError::Unreachable) => return Err(RpcError::Unreachable),
                Err(_) => return Err(RpcError::RetriesExhausted),
            }
            let result = serve(msg.clone());
            // The reply (even an error reply) crosses the network too; if
            // the partition changed while the handler ran, the reply is
            // lost.
            let bytes = reply_bytes(&result);
            // A reply dropped on the wire and a circuit aborted before
            // the reply reached the wire look identical to the waiting
            // requester: the request was served, the answer never came.
            match net.send_as(M::SERVICE, span, Leg::Reply, to, from, reply_kind, bytes) {
                Ok(()) => return Ok(result),
                Err(NetError::ReplyLost | NetError::CircuitClosed)
                    if msg.idempotent() && attempt + 1 < self.policy.max_attempts =>
                {
                    net.charge_timeout(self.policy.backoff(attempt));
                    net.note_retry(M::SERVICE, kind);
                    attempt += 1;
                }
                Err(NetError::Unreachable) => return Err(RpcError::Unreachable),
                Err(_) => return Err(RpcError::ReplyLost),
            }
        }
    }

    /// Scatter-gather: the same request from `from` to every site in
    /// `dests`, as one [`RpcEngine::rpc`] per destination run as
    /// [`Net::overlap`] legs. Request k leaves once request k − 1 has left
    /// the sender's wire, one `message_cost` later; a leg that put nothing
    /// on the wire (an unreachable destination, a local call) delays no
    /// one. Each leg keeps its own retry, backoff and §5.1 circuit
    /// handling, the caller resumes at the latest reply, and results come
    /// back in destination order. `serve` runs the handler at the
    /// destination it is given.
    pub fn fan_out<M: WireMsg, R>(
        &self,
        net: &Net,
        from: SiteId,
        dests: &[SiteId],
        msg: M,
        reply_bytes: impl Fn(&R) -> usize,
        mut serve: impl FnMut(SiteId, M) -> R,
    ) -> Vec<Result<R, RpcError>> {
        let step = net.latency().message_cost(msg.wire_bytes());
        let mut depart = Ticks::ZERO;
        net.overlap(dests, |&to| {
            // Wait for the sender's wire.
            net.charge_timeout(depart);
            let start = net.now();
            let out = self.rpc(net, from, to, msg.clone(), &reply_bytes, |m| serve(to, m));
            if to != from && net.now() > start {
                depart += step;
            }
            out
        })
    }

    /// One-way message with only low-level acknowledgement (the write
    /// protocol, commit and exit notifications, §2.3.5–2.3.6): the
    /// message is retried within the policy, then `serve` handles it
    /// once at the destination; no reply message crosses the wire.
    ///
    /// A send abandoned after retry exhaustion is recorded as a one-way
    /// *loss* in the statistics — notifications silently missing their
    /// destination are exactly what partition recovery reconciles, and
    /// the accounting makes the silence visible.
    pub fn one_way<M: WireMsg, R>(
        &self,
        net: &Net,
        from: SiteId,
        to: SiteId,
        msg: M,
        serve: impl FnOnce(M) -> R,
    ) -> Result<R, RpcError> {
        if from == to {
            return Ok(serve(msg));
        }
        // One span per one-way call, so "delivered exactly once, or
        // counted lost exactly once" is auditable per call rather than
        // smeared across a whole schedule.
        let span = net.obs_span_open(M::SERVICE, msg.kind(), from);
        let out = self.one_way_remote(net, span, from, to, msg, serve);
        net.obs_span_close(
            span,
            match &out {
                Ok(_) => "ok",
                Err(e) => e.code(),
            },
        );
        out
    }

    fn one_way_remote<M: WireMsg, R>(
        &self,
        net: &Net,
        span: u64,
        from: SiteId,
        to: SiteId,
        msg: M,
        serve: impl FnOnce(M) -> R,
    ) -> Result<R, RpcError> {
        let kind = msg.kind();
        let mut attempt = 0u32;
        let mut reopens = 0u32;
        loop {
            match net.send_as(M::SERVICE, span, Leg::OneWay, from, to, kind, msg.wire_bytes()) {
                Ok(()) => return Ok(serve(msg)),
                Err(NetError::CircuitClosed) => {
                    if reopens >= self.policy.max_reopens {
                        net.note_one_way_loss(M::SERVICE, span, kind);
                        return Err(RpcError::CircuitFlapping);
                    }
                    reopens += 1;
                    net.note_retry(M::SERVICE, kind);
                }
                Err(e) if e.is_transient() && attempt + 1 < self.policy.max_attempts => {
                    net.charge_timeout(self.policy.backoff(attempt));
                    net.note_retry(M::SERVICE, kind);
                    attempt += 1;
                }
                Err(e) => {
                    net.note_one_way_loss(M::SERVICE, span, kind);
                    return Err(match e {
                        NetError::Unreachable => RpcError::Unreachable,
                        _ => RpcError::RetriesExhausted,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, FaultSpec};
    use locus_types::Ticks;

    /// A minimal test protocol.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum TestMsg {
        Query,
        Transition,
    }

    impl WireMsg for TestMsg {
        const SERVICE: &'static str = "test";
        fn kind(&self) -> &'static str {
            match self {
                TestMsg::Query => "TEST query",
                TestMsg::Transition => "TEST transition",
            }
        }
        fn reply_kind(&self) -> &'static str {
            match self {
                TestMsg::Query => "TEST query resp",
                TestMsg::Transition => "TEST transition resp",
            }
        }
        fn wire_bytes(&self) -> usize {
            64
        }
        fn idempotent(&self) -> bool {
            matches!(self, TestMsg::Query)
        }
    }

    #[test]
    fn clean_rpc_sends_request_and_reply() {
        let net = Net::new(2);
        let engine = RpcEngine::new(RetryPolicy::default());
        let out = engine
            .rpc(&net, SiteId(0), SiteId(1), TestMsg::Query, |_: &u32| 32, |_| 7u32)
            .expect("clean rpc");
        assert_eq!(out, 7);
        let st = net.stats();
        assert_eq!(st.sends("TEST query"), 1);
        assert_eq!(st.sends("TEST query resp"), 1);
        assert_eq!(st.service("test").sends, 2);
        assert_eq!(st.service("test").bytes, 64 + 32);
    }

    #[test]
    fn same_site_call_is_a_procedure_call() {
        let net = Net::new(2);
        let engine = RpcEngine::new(RetryPolicy::default());
        let out = engine
            .rpc(&net, SiteId(1), SiteId(1), TestMsg::Query, |_: &u32| 32, |_| 9u32)
            .expect("local call");
        assert_eq!(out, 9);
        assert_eq!(net.stats().total_sends(), 0, "no network traffic");
    }

    #[test]
    fn dropped_request_is_retried_with_backoff() {
        let net = Net::new(2);
        net.install_faults(FaultPlan::new(11).default_spec(FaultSpec::drop_rate(0.5)));
        let engine = RpcEngine::new(RetryPolicy {
            max_attempts: 10,
            ..RetryPolicy::default()
        });
        let mut served = 0u32;
        let t0 = net.now();
        engine
            .rpc(&net, SiteId(0), SiteId(1), TestMsg::Query, |_: &()| 8, |_| served += 1)
            .expect("retries ride out drops");
        assert_eq!(served, 1, "the handler ran exactly once");
        let st = net.stats();
        if st.drops("TEST query") > 0 {
            assert!(st.service("test").retries > 0);
            assert!(net.now() >= t0 + engine.policy().base_backoff);
        }
    }

    #[test]
    fn lost_reply_reissues_idempotent_requests() {
        let net = Net::new(2);
        // Drop exactly the reply kind; requests always get through.
        net.install_faults(
            FaultPlan::new(2).kind_spec("TEST query resp", FaultSpec::drop_rate(0.9)),
        );
        let engine = RpcEngine::new(RetryPolicy {
            max_attempts: 32,
            ..RetryPolicy::default()
        });
        let mut served = 0u32;
        let out = engine.rpc(&net, SiteId(0), SiteId(1), TestMsg::Query, |_: &()| 8, |_| {
            served += 1;
        });
        assert!(out.is_ok(), "idempotent request was re-issued to success");
        assert!(served >= 1);
        assert_eq!(
            served as u64,
            net.stats().sends("TEST query"),
            "one handler run per delivered request"
        );
    }

    #[test]
    fn lost_reply_aborts_non_idempotent_requests() {
        let net = Net::new(2);
        net.install_faults(
            FaultPlan::new(3).kind_spec("TEST transition resp", FaultSpec::drop_rate(1.0)),
        );
        let engine = RpcEngine::new(RetryPolicy::default());
        let mut served = 0u32;
        let out = engine.rpc(
            &net,
            SiteId(0),
            SiteId(1),
            TestMsg::Transition,
            |_: &()| 8,
            |_| served += 1,
        );
        assert_eq!(out, Err(RpcError::ReplyLost));
        assert_eq!(served, 1, "the ambiguity: the handler did run");
        // The §5.1 abort mark is left for the pair's next conversation.
        net.clear_faults();
        let next = engine.rpc(&net, SiteId(0), SiteId(1), TestMsg::Query, |_: &()| 8, |_| ());
        assert!(next.is_ok(), "the next call reopens the circuit and proceeds");
        assert!(net.stats().retries("TEST query") >= 1, "reopen was counted");
    }

    #[test]
    fn unreachable_destination_fails_without_retries() {
        let net = Net::new(2);
        net.crash(SiteId(1));
        let engine = RpcEngine::new(RetryPolicy::default());
        let out = engine.rpc(&net, SiteId(0), SiteId(1), TestMsg::Query, |_: &()| 8, |_| ());
        assert_eq!(out, Err(RpcError::Unreachable));
        assert_eq!(net.stats().retries("TEST query"), 0);
    }

    #[test]
    fn flapping_circuit_rpc_is_bounded() {
        // Regression test for the once-unbounded CircuitClosed fast path:
        // a circuit that fails on *every* reopen (injected circuit aborts
        // with probability 1) must terminate with an error, not spin.
        let net = Net::new(2);
        net.install_faults(FaultPlan::new(5).default_spec(FaultSpec {
            circuit_abort: 1.0,
            ..Default::default()
        }));
        let engine = RpcEngine::new(RetryPolicy::default());
        let out = engine.rpc(&net, SiteId(0), SiteId(1), TestMsg::Query, |_: &()| 8, |_| ());
        assert_eq!(out, Err(RpcError::CircuitFlapping));
        let st = net.stats();
        assert_eq!(
            st.retries("TEST query"),
            MAX_CONSECUTIVE_REOPENS as u64,
            "every reopen attempt was counted, then the engine gave up"
        );
        assert_eq!(st.sends("TEST query"), 0, "nothing ever reached the wire");
    }

    #[test]
    fn flapping_circuit_one_way_is_bounded_and_counted_lost() {
        let net = Net::new(2);
        net.install_faults(FaultPlan::new(5).default_spec(FaultSpec {
            circuit_abort: 1.0,
            ..Default::default()
        }));
        let engine = RpcEngine::new(RetryPolicy::default());
        let mut served = false;
        let out = engine.one_way(&net, SiteId(0), SiteId(1), TestMsg::Query, |_| served = true);
        assert_eq!(out, Err(RpcError::CircuitFlapping));
        assert!(!served);
        let st = net.stats();
        assert_eq!(st.one_way_losses("TEST query"), 1);
        assert_eq!(st.service("test").losses, 1);
    }

    #[test]
    fn reopen_counter_resets_once_a_send_reaches_the_wire() {
        // An intermittent abort (well under the bound per burst) must not
        // accumulate across successful sends into a spurious
        // CircuitFlapping: 40 rpcs at abort probability 0.4 see far more
        // than MAX_CONSECUTIVE_REOPENS aborts in total, yet all succeed.
        let net = Net::new(2);
        net.install_faults(FaultPlan::new(9).default_spec(FaultSpec {
            circuit_abort: 0.4,
            ..Default::default()
        }));
        // A generous attempt budget: reply-side aborts consume attempts,
        // and this test is about the reopen counter, not attempt
        // exhaustion.
        let engine = RpcEngine::new(RetryPolicy {
            max_attempts: 16,
            base_backoff: Ticks::millis(1),
            ..RetryPolicy::default()
        });
        for _ in 0..40 {
            engine
                .rpc(&net, SiteId(0), SiteId(1), TestMsg::Query, |_: &()| 8, |_| ())
                .expect("intermittent aborts are ridden out");
        }
        assert!(
            net.stats().retries("TEST query") > MAX_CONSECUTIVE_REOPENS as u64,
            "the total reopen count exceeded the per-burst bound"
        );
    }

    #[test]
    fn engine_calls_emit_auditable_spans_and_feed_histograms() {
        let net = Net::new(2);
        net.set_observing(true);
        let engine = RpcEngine::new(RetryPolicy::default());
        engine
            .rpc(&net, SiteId(0), SiteId(1), TestMsg::Query, |_: &u32| 32, |_| 7u32)
            .expect("rpc");
        engine
            .one_way(&net, SiteId(0), SiteId(1), TestMsg::Transition, |_| ())
            .expect("one-way");
        let report = crate::obs::audit(&net.take_obs_events());
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.spans, 2);
        assert_eq!(report.requests, 1);
        assert_eq!(report.replies, 1);
        assert_eq!(report.one_ways, 1);
        let stats = net.op_stats();
        assert!(stats
            .iter()
            .any(|s| s.service == "test" && s.op == "TEST query" && s.count == 1));
        assert!(stats
            .iter()
            .any(|s| s.op == "TEST transition" && s.count == 1));
    }

    #[test]
    fn same_site_calls_open_no_spans() {
        let net = Net::new(2);
        net.set_observing(true);
        let engine = RpcEngine::new(RetryPolicy::default());
        engine
            .rpc(&net, SiteId(1), SiteId(1), TestMsg::Query, |_: &u32| 32, |_| 1u32)
            .expect("local call");
        engine
            .one_way(&net, SiteId(1), SiteId(1), TestMsg::Transition, |_| ())
            .expect("local one-way");
        assert!(net.take_obs_events().is_empty(), "§2.3.3: no traffic, no spans");
    }

    #[test]
    fn engine_traffic_under_heavy_faults_audits_clean() {
        // Drops, duplicates, delays, circuit aborts and lost replies all
        // mixed: whatever the engine actually did must satisfy the
        // audited invariants (losses recorded, reopens bounded,
        // re-issue only when idempotent, replies matched).
        let net = Net::new(3);
        net.set_observing(true);
        net.install_faults(FaultPlan::new(42).default_spec(FaultSpec {
            drop: 0.25,
            duplicate: 0.1,
            delay_prob: 0.15,
            delay: Ticks::micros(80),
            circuit_abort: 0.1,
        }));
        let engine = RpcEngine::new(RetryPolicy {
            max_attempts: 8,
            base_backoff: Ticks::millis(1),
            ..RetryPolicy::default()
        });
        for i in 0..60u32 {
            let from = SiteId(i % 3);
            let to = SiteId((i + 1) % 3);
            if i % 3 == 0 {
                let _ = engine.one_way(&net, from, to, TestMsg::Transition, |_| ());
            } else {
                let _ = engine.rpc(&net, from, to, TestMsg::Query, |_: &u32| 16, |_| 1u32);
            }
        }
        assert_eq!(net.obs_truncated(), 0);
        let report = crate::obs::audit(&net.take_obs_events());
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.requests > 0 && report.one_ways > 0);
    }

    #[test]
    fn fan_out_staggers_requests_and_waits_for_the_last_reply() {
        let net = Net::new(4);
        net.crash(SiteId(2));
        let engine = RpcEngine::new(RetryPolicy::default());
        let t0 = net.now();
        let dests = [SiteId(1), SiteId(2), SiteId(3), SiteId(0)];
        let out = engine.fan_out(
            &net,
            SiteId(0),
            &dests,
            TestMsg::Query,
            |_: &u32| 32,
            |to, _| to.0,
        );
        assert_eq!(out, vec![Ok(1), Err(RpcError::Unreachable), Ok(3), Ok(0)]);
        // Site 3's request leaves once site 1's has left the wire; the
        // unreachable site and the local call occupy it not at all.
        let m = net.latency();
        let round_trip = m.message_cost(64) + m.message_cost(32);
        assert_eq!(net.now() - t0, m.message_cost(64) + round_trip);
    }

    #[test]
    fn fan_out_sends_what_a_serial_loop_sends() {
        let run = |fan: bool| {
            let net = Net::new(6);
            net.install_faults(FaultPlan::new(21).default_spec(FaultSpec::drop_rate(0.3)));
            let engine = RpcEngine::new(RetryPolicy {
                max_attempts: 16,
                ..RetryPolicy::default()
            });
            let dests: Vec<SiteId> = (1..6).map(SiteId).collect();
            let t0 = net.now();
            let out = if fan {
                engine.fan_out(
                    &net,
                    SiteId(0),
                    &dests,
                    TestMsg::Query,
                    |_: &u32| 16,
                    |to, _| to.0,
                )
            } else {
                dests
                    .iter()
                    .map(|&to| {
                        engine.rpc(&net, SiteId(0), to, TestMsg::Query, |_: &u32| 16, |_| to.0)
                    })
                    .collect()
            };
            (out, net.stats(), net.now() - t0)
        };
        let (fan, fan_stats, fan_time) = run(true);
        let (serial, serial_stats, serial_time) = run(false);
        assert_eq!(fan, (1..6).map(Ok).collect::<Vec<_>>(), "destination order");
        assert_eq!(fan, serial);
        assert_eq!(fan_stats, serial_stats, "the same sends, drops and retries");
        let drops: std::collections::BTreeSet<u64> = (1..6)
            .map(|d| {
                let (to, back) = (SiteId(d), SiteId(0));
                fan_stats.link(back, to).drops + fan_stats.link(to, back).drops
            })
            .collect();
        assert!(
            drops.len() > 1,
            "legs retried different numbers of times: {drops:?}"
        );
        assert!(fan_time < serial_time, "{fan_time} vs {serial_time}");
    }

    #[test]
    fn one_way_loss_is_recorded_on_retry_exhaustion() {
        let net = Net::new(2);
        net.install_faults(FaultPlan::new(4).default_spec(FaultSpec::drop_rate(1.0)));
        let engine = RpcEngine::new(RetryPolicy::default());
        let out = engine.one_way(&net, SiteId(0), SiteId(1), TestMsg::Query, |_| ());
        assert_eq!(out, Err(RpcError::RetriesExhausted));
        let st = net.stats();
        assert_eq!(st.one_way_losses("TEST query"), 1);
        assert_eq!(st.total_one_way_losses(), 1);
        assert_eq!(st.service("test").losses, 1);
        assert_eq!(
            st.service("test").drops,
            engine.policy().max_attempts as u64,
            "every attempt was dropped and attributed to the service"
        );
    }
}

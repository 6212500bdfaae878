//! Span-based operation observability on the virtual clock.
//!
//! The paper's evaluation is written entirely in observable units —
//! messages per operation (§2.3.3), the Figure 1/2 timelines, and the
//! failure-action tables (§5.6). Flat counters ([`crate::NetStats`])
//! regenerate the counts, but cannot answer *structural* questions: which
//! RPC attempts belonged to which system call, whether a reply matched a
//! request that was actually outstanding, or whether a shadow-page commit
//! overlapped a read of the version being committed.
//!
//! This module is the one event stream that can — every message the
//! [`crate::RpcEngine`] moves is a [`ObsEvent::Request`],
//! [`ObsEvent::Reply`] or [`ObsEvent::OneWay`] in it, which is also what
//! the Figure 1/2 renderers in `locus-bench` draw from:
//!
//! * **Spans.** Each syscall-level operation (open, read, commit, fork,
//!   partition-poll, …) opens a span; every RPC the [`crate::RpcEngine`]
//!   issues on its behalf opens a nested child span. Spans carry the
//!   originating service, the operation label, the site, and an outcome.
//! * **Histograms.** [`op_stats`] pairs each span's open and close events
//!   and feeds its virtual-time duration into a per-(service, op) log₂
//!   latency `Histogram`, so p50/p95/max over [`Ticks`] sit right next
//!   to the message counters.
//! * **JSONL export.** [`export_jsonl`] writes the event stream one flat
//!   JSON object per line (hand-rolled, like the bench report writer —
//!   no dependencies); [`parse_jsonl`] reads it back losslessly.
//! * **The trace auditor.** [`audit`] replays an event stream offline and
//!   checks the protocol invariants the engine is supposed to maintain:
//!   every reply matches an outstanding request; an RPC is re-issued
//!   after reply loss only if the message is idempotent; a closed-circuit
//!   notice is observed once and the reopened send goes through; a
//!   shadow-page commit never interleaves with a read of the committing
//!   version; every one-way send is either delivered or accounted as
//!   exactly one loss.

use std::collections::BTreeMap;
use std::fmt::Display;

use locus_types::{SiteId, Ticks};

use crate::NetError;

/// Retained observability events are capped so a forgotten enabled
/// observer cannot grow without bound; the overflow is counted in
/// [`Observer::truncated`] rather than silently discarded.
pub(crate) const OBS_CAP: usize = 1 << 20;

/// Number of log₂ buckets in a latency [`Histogram`] (covers durations
/// up to 2³⁹ µs ≈ 6 days of virtual time, far beyond any schedule).
pub(crate) const HIST_BUCKETS: usize = 40;

/// How one wire transmission attempt ended, as seen by the sender.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// The message reached its destination.
    Delivered,
    /// An injected fault dropped the message; the destination never saw
    /// it ([`NetError::Dropped`]).
    Dropped,
    /// The destination was crashed or partitioned away
    /// ([`NetError::Unreachable`]).
    Unreachable,
    /// The virtual circuit was closed before the message reached the
    /// wire ([`NetError::CircuitClosed`]).
    CircuitClosed,
    /// A reply was dropped after the request had been served; the
    /// circuit closed mid-conversation ([`NetError::ReplyLost`], §5.1).
    ReplyLost,
    /// A site addressed a network message to itself
    /// ([`NetError::SelfSend`]); the engine's same-site shortcut makes
    /// this unreachable in practice, but the encoding is total.
    SelfSend,
}

impl SendOutcome {
    /// Classifies a raw send result.
    pub fn of(result: &Result<(), NetError>) -> SendOutcome {
        match result {
            Ok(()) => SendOutcome::Delivered,
            Err(NetError::Dropped) => SendOutcome::Dropped,
            Err(NetError::Unreachable) => SendOutcome::Unreachable,
            Err(NetError::CircuitClosed) => SendOutcome::CircuitClosed,
            Err(NetError::ReplyLost) => SendOutcome::ReplyLost,
            Err(NetError::SelfSend) => SendOutcome::SelfSend,
        }
    }

    /// Short stable label used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            SendOutcome::Delivered => "ok",
            SendOutcome::Dropped => "drop",
            SendOutcome::Unreachable => "unreachable",
            SendOutcome::CircuitClosed => "circuit",
            SendOutcome::ReplyLost => "reply-lost",
            SendOutcome::SelfSend => "self",
        }
    }

    /// Inverse of [`SendOutcome::as_str`].
    pub fn parse(s: &str) -> Option<SendOutcome> {
        Some(match s {
            "ok" => SendOutcome::Delivered,
            "drop" => SendOutcome::Dropped,
            "unreachable" => SendOutcome::Unreachable,
            "circuit" => SendOutcome::CircuitClosed,
            "reply-lost" => SendOutcome::ReplyLost,
            "self" => SendOutcome::SelfSend,
            _ => return None,
        })
    }
}

/// One structured observability event. Span ids are per-`Observer`
/// and start at 1; id 0 means "no enclosing span".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObsEvent {
    /// A syscall-level operation (or a nested engine RPC) began.
    SpanOpen {
        /// Span id (unique within the observer, first id is 1).
        id: u64,
        /// Enclosing span id, 0 at top level.
        parent: u64,
        /// Originating service (`"fs"`, `"proc"`, `"topology"`, …).
        service: String,
        /// Operation label (`"open"`, `"commit"`, `"FORK req"`, …).
        op: String,
        /// The site the operation runs on behalf of.
        site: SiteId,
        /// Virtual time the span opened.
        at: Ticks,
    },
    /// A span ended.
    SpanClose {
        /// The span being closed.
        id: u64,
        /// Outcome label (`"ok"`, `"unreachable"`, `"reply-lost"`, …).
        outcome: String,
        /// Virtual time the span closed.
        at: Ticks,
    },
    /// One request transmission attempt by the RPC engine.
    Request {
        /// Enclosing span.
        span: u64,
        /// Virtual time of the attempt.
        at: Ticks,
        /// Requesting site.
        from: SiteId,
        /// Serving site.
        to: SiteId,
        /// Request kind label.
        kind: String,
        /// The kind label of the reply paired with this request.
        reply_kind: String,
        /// Request wire size in bytes.
        bytes: u64,
        /// Whether the request may be re-issued after reply loss.
        idempotent: bool,
        /// How the attempt ended.
        outcome: SendOutcome,
    },
    /// One reply transmission attempt by the RPC engine.
    Reply {
        /// Enclosing span.
        span: u64,
        /// Virtual time of the attempt.
        at: Ticks,
        /// Serving site (the reply's sender).
        from: SiteId,
        /// Requesting site (the reply's destination).
        to: SiteId,
        /// Reply kind label.
        kind: String,
        /// Reply wire size in bytes.
        bytes: u64,
        /// How the attempt ended.
        outcome: SendOutcome,
    },
    /// One one-way transmission attempt (write protocol, notifications).
    OneWay {
        /// Enclosing span.
        span: u64,
        /// Virtual time of the attempt.
        at: Ticks,
        /// Sending site.
        from: SiteId,
        /// Destination site.
        to: SiteId,
        /// Message kind label.
        kind: String,
        /// Wire size in bytes.
        bytes: u64,
        /// How the attempt ended.
        outcome: SendOutcome,
    },
    /// A one-way send was abandoned after retry exhaustion and counted
    /// as a loss for partition recovery to reconcile.
    OneWayLoss {
        /// Enclosing span.
        span: u64,
        /// Virtual time the loss was recorded.
        at: Ticks,
        /// Message kind label.
        kind: String,
    },
    /// A protocol annotation from a subsystem (e.g. `commit.begin` /
    /// `commit.end` bracketing the shadow-page install, or `read.page`
    /// tagging the version a read served).
    Note {
        /// Enclosing span (0 if none was active).
        span: u64,
        /// Virtual time of the annotation.
        at: Ticks,
        /// The site emitting the annotation.
        site: SiteId,
        /// Annotation key (`"commit.begin"`, `"read.page"`, …).
        key: String,
        /// The object the annotation refers to (e.g. a gfid).
        label: String,
        /// A numeric payload (e.g. a version-vector total).
        value: u64,
    },
}

impl ObsEvent {
    /// The virtual time of the event.
    pub fn at(&self) -> Ticks {
        match self {
            ObsEvent::SpanOpen { at, .. }
            | ObsEvent::SpanClose { at, .. }
            | ObsEvent::Request { at, .. }
            | ObsEvent::Reply { at, .. }
            | ObsEvent::OneWay { at, .. }
            | ObsEvent::OneWayLoss { at, .. }
            | ObsEvent::Note { at, .. } => *at,
        }
    }
}

/// A log₂-bucketed latency histogram over virtual time.
///
/// Bucket 0 holds zero-duration samples; bucket *i* ≥ 1 holds durations
/// in `[2^(i-1), 2^i - 1]` µs. Quantiles are reported as the upper edge
/// of the bucket the quantile falls in — deliberately coarse, exactly
/// reproducible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    max: Ticks,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            max: Ticks::ZERO,
        }
    }
}

impl Histogram {
    /// Records one duration sample.
    pub(crate) fn record(&mut self, d: Ticks) {
        let us = d.as_micros();
        let idx = if us == 0 {
            0
        } else {
            ((64 - us.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.max = self.max.max(d);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The exact maximum recorded duration.
    pub fn max(&self) -> Ticks {
        self.max
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper edge of the bucket
    /// it falls in, never above the exact maximum; [`Ticks::ZERO`] when
    /// empty.
    pub(crate) fn quantile(&self, q: f64) -> Ticks {
        if self.count == 0 {
            return Ticks::ZERO;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return if i == 0 {
                    Ticks::ZERO
                } else {
                    Ticks::micros((1u64 << i) - 1).min(self.max)
                };
            }
        }
        self.max
    }
}

/// The span recorder living inside [`crate::Net`]; disabled by default.
///
/// All methods are no-ops while disabled, and [`Observer::span_open`]
/// returns the sentinel id 0 that every other method ignores — callers
/// never need to branch on whether observation is on.
#[derive(Debug, Default)]
pub(crate) struct Observer {
    enabled: bool,
    next_span: u64,
    /// The open spans, innermost last.
    stack: Vec<u64>,
    events: Vec<ObsEvent>,
    truncated: u64,
}

impl Observer {
    /// A disabled, empty observer.
    pub fn new() -> Self {
        Observer::default()
    }

    /// Enables or disables recording.
    pub(crate) fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether recording is enabled.
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    fn push_event(&mut self, ev: ObsEvent) {
        if self.events.len() < OBS_CAP {
            self.events.push(ev);
        } else {
            self.truncated += 1;
        }
    }

    /// Opens a span and returns its id (0 while disabled).
    pub(crate) fn span_open(&mut self, now: Ticks, service: &str, op: &str, site: SiteId) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next_span += 1;
        let id = self.next_span;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        self.push_event(ObsEvent::SpanOpen {
            id,
            parent,
            service: service.to_owned(),
            op: op.to_owned(),
            site,
            at: now,
        });
        id
    }

    /// Closes a span. Id 0 and ids that are not open are ignored.
    pub(crate) fn span_close(&mut self, now: Ticks, id: u64, outcome: &str) {
        let Some(pos) = self.stack.iter().rposition(|&s| s == id) else {
            return;
        };
        self.stack.remove(pos);
        self.push_event(ObsEvent::SpanClose {
            id,
            outcome: outcome.to_owned(),
            at: now,
        });
    }

    /// Records one wire event the send path built (a request, reply or
    /// one-way attempt, or a one-way loss); a no-op while disabled.
    pub(crate) fn record(&mut self, ev: ObsEvent) {
        if self.enabled {
            self.push_event(ev);
        }
    }

    /// Records a protocol annotation, attached to the innermost open
    /// span (0 if none). `label` is rendered only while enabled.
    pub fn note(&mut self, now: Ticks, site: SiteId, key: &str, label: impl Display, value: u64) {
        if !self.enabled {
            return;
        }
        let span = self.stack.last().copied().unwrap_or(0);
        self.push_event(ObsEvent::Note {
            span,
            at: now,
            site,
            key: key.to_owned(),
            label: label.to_string(),
            value,
        });
    }

    /// Drains the recorded events (resetting the truncation counter).
    pub(crate) fn take_events(&mut self) -> Vec<ObsEvent> {
        self.truncated = 0;
        std::mem::take(&mut self.events)
    }

    /// How many events were discarded past [`OBS_CAP`] since the last
    /// [`Observer::take_events`].
    pub fn truncated(&self) -> u64 {
        self.truncated
    }
}

/// One row of the per-operation latency table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpStat {
    /// Originating service.
    pub service: String,
    /// Operation label.
    pub op: String,
    /// Completed spans.
    pub count: u64,
    /// Median virtual-time latency (bucket upper edge).
    pub p50: Ticks,
    /// 95th-percentile virtual-time latency (bucket upper edge).
    pub(crate) p95: Ticks,
    /// Exact maximum virtual-time latency.
    pub max: Ticks,
}

/// Per-(service, op) latency summary rows of an event stream, sorted by
/// service then op. Each [`ObsEvent::SpanClose`] is paired by id with its
/// [`ObsEvent::SpanOpen`], whatever the order of closes, and the span's
/// virtual-time duration feeds that operation's `Histogram`. A close
/// with no open before it is ignored.
pub fn op_stats(events: &[ObsEvent]) -> Vec<OpStat> {
    let mut open: BTreeMap<u64, (&str, &str, Ticks)> = BTreeMap::new();
    let mut hists: BTreeMap<(&str, &str), Histogram> = BTreeMap::new();
    for ev in events {
        match ev {
            ObsEvent::SpanOpen {
                id,
                service,
                op,
                at,
                ..
            } => {
                open.insert(*id, (service, op, *at));
            }
            ObsEvent::SpanClose { id, at, .. } => {
                if let Some((service, op, opened)) = open.remove(id) {
                    hists.entry((service, op)).or_default().record(*at - opened);
                }
            }
            _ => {}
        }
    }
    hists
        .into_iter()
        .map(|((service, op), h)| OpStat {
            service: service.to_owned(),
            op: op.to_owned(),
            count: h.count(),
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            max: h.max(),
        })
        .collect()
}

/// Renders the per-operation latency table next to the message-count
/// tables the benches already print.
pub fn render_op_stats(stats: &[OpStat]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<22} {:>7} {:>12} {:>12} {:>12}\n",
        "service", "op", "count", "p50", "p95", "max"
    ));
    for s in stats {
        out.push_str(&format!(
            "{:<10} {:<22} {:>7} {:>12} {:>12} {:>12}\n",
            s.service,
            s.op,
            s.count,
            s.p50.to_string(),
            s.p95.to_string(),
            s.max.to_string(),
        ));
    }
    out
}

fn esc(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serializes an event stream as JSONL: one flat JSON object per line,
/// hand-rolled like the bench report writer. [`parse_jsonl`] is the
/// exact inverse.
pub fn export_jsonl(events: &[ObsEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        let mut line = String::from("{");
        let f_str = |line: &mut String, k: &str, v: &str| {
            if line.len() > 1 {
                line.push(',');
            }
            line.push('"');
            line.push_str(k);
            line.push_str("\":");
            esc(v, line);
        };
        let f_num = |line: &mut String, k: &str, v: u64| {
            if line.len() > 1 {
                line.push(',');
            }
            line.push('"');
            line.push_str(k);
            line.push_str("\":");
            line.push_str(&v.to_string());
        };
        let f_bool = |line: &mut String, k: &str, v: bool| {
            if line.len() > 1 {
                line.push(',');
            }
            line.push('"');
            line.push_str(k);
            line.push_str("\":");
            line.push_str(if v { "true" } else { "false" });
        };
        match ev {
            ObsEvent::SpanOpen {
                id,
                parent,
                service,
                op,
                site,
                at,
            } => {
                f_str(&mut line, "e", "so");
                f_num(&mut line, "id", *id);
                f_num(&mut line, "parent", *parent);
                f_str(&mut line, "svc", service);
                f_str(&mut line, "op", op);
                f_num(&mut line, "site", site.0 as u64);
                f_num(&mut line, "at", at.as_micros());
            }
            ObsEvent::SpanClose { id, outcome, at } => {
                f_str(&mut line, "e", "sc");
                f_num(&mut line, "id", *id);
                f_str(&mut line, "out", outcome);
                f_num(&mut line, "at", at.as_micros());
            }
            ObsEvent::Request {
                span,
                at,
                from,
                to,
                kind,
                reply_kind,
                bytes,
                idempotent,
                outcome,
            } => {
                f_str(&mut line, "e", "rq");
                f_num(&mut line, "span", *span);
                f_num(&mut line, "at", at.as_micros());
                f_num(&mut line, "from", from.0 as u64);
                f_num(&mut line, "to", to.0 as u64);
                f_str(&mut line, "kind", kind);
                f_str(&mut line, "rk", reply_kind);
                f_num(&mut line, "bytes", *bytes);
                f_bool(&mut line, "idem", *idempotent);
                f_str(&mut line, "out", outcome.as_str());
            }
            ObsEvent::Reply {
                span,
                at,
                from,
                to,
                kind,
                bytes,
                outcome,
            } => {
                f_str(&mut line, "e", "rp");
                f_num(&mut line, "span", *span);
                f_num(&mut line, "at", at.as_micros());
                f_num(&mut line, "from", from.0 as u64);
                f_num(&mut line, "to", to.0 as u64);
                f_str(&mut line, "kind", kind);
                f_num(&mut line, "bytes", *bytes);
                f_str(&mut line, "out", outcome.as_str());
            }
            ObsEvent::OneWay {
                span,
                at,
                from,
                to,
                kind,
                bytes,
                outcome,
            } => {
                f_str(&mut line, "e", "ow");
                f_num(&mut line, "span", *span);
                f_num(&mut line, "at", at.as_micros());
                f_num(&mut line, "from", from.0 as u64);
                f_num(&mut line, "to", to.0 as u64);
                f_str(&mut line, "kind", kind);
                f_num(&mut line, "bytes", *bytes);
                f_str(&mut line, "out", outcome.as_str());
            }
            ObsEvent::OneWayLoss { span, at, kind } => {
                f_str(&mut line, "e", "owl");
                f_num(&mut line, "span", *span);
                f_num(&mut line, "at", at.as_micros());
                f_str(&mut line, "kind", kind);
            }
            ObsEvent::Note {
                span,
                at,
                site,
                key,
                label,
                value,
            } => {
                f_str(&mut line, "e", "nt");
                f_num(&mut line, "span", *span);
                f_num(&mut line, "at", at.as_micros());
                f_num(&mut line, "site", site.0 as u64);
                f_str(&mut line, "key", key);
                f_str(&mut line, "label", label);
                f_num(&mut line, "value", *value);
            }
        }
        line.push_str("}\n");
        out.push_str(&line);
    }
    out
}

/// A parsed flat JSON value — strings, unsigned numbers and booleans are
/// the only value types the export emits.
enum JsonVal {
    Str(String),
    Num(u64),
    Bool(bool),
}

/// Parses one flat JSON object (`{"k":"v","n":1,"b":true}`).
fn parse_flat_object(line: &str) -> Result<BTreeMap<String, JsonVal>, String> {
    let b = line.as_bytes();
    let mut i = 0usize;
    let err = |i: usize, what: &str| format!("byte {i}: {what}");
    let skip_ws = |b: &[u8], mut i: usize| {
        while i < b.len() && (b[i] == b' ' || b[i] == b'\t') {
            i += 1;
        }
        i
    };
    fn parse_string(b: &[u8], mut i: usize) -> Result<(String, usize), String> {
        if b.get(i) != Some(&b'"') {
            return Err(format!("byte {i}: expected '\"'"));
        }
        i += 1;
        let mut s = String::new();
        while i < b.len() {
            match b[i] {
                b'"' => return Ok((s, i + 1)),
                b'\\' => {
                    i += 1;
                    match b.get(i) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'u') => {
                            let hex = b
                                .get(i + 1..i + 5)
                                .ok_or_else(|| format!("byte {i}: short \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| format!("byte {i}: bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("byte {i}: bad \\u escape"))?;
                            s.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| format!("byte {i}: bad codepoint"))?,
                            );
                            i += 4;
                        }
                        _ => return Err(format!("byte {i}: bad escape")),
                    }
                    i += 1;
                }
                _ => {
                    // Multi-byte UTF-8 sequences pass through unchanged.
                    let start = i;
                    while i < b.len() && b[i] != b'"' && b[i] != b'\\' {
                        i += 1;
                    }
                    s.push_str(
                        std::str::from_utf8(&b[start..i])
                            .map_err(|_| format!("byte {start}: invalid utf-8"))?,
                    );
                }
            }
        }
        Err(format!("byte {i}: unterminated string"))
    }
    i = skip_ws(b, i);
    if b.get(i) != Some(&b'{') {
        return Err(err(i, "expected '{'"));
    }
    i += 1;
    let mut map = BTreeMap::new();
    i = skip_ws(b, i);
    if b.get(i) == Some(&b'}') {
        return Ok(map);
    }
    loop {
        i = skip_ws(b, i);
        let (key, ni) = parse_string(b, i)?;
        i = skip_ws(b, ni);
        if b.get(i) != Some(&b':') {
            return Err(err(i, "expected ':'"));
        }
        i = skip_ws(b, i + 1);
        let val = match b.get(i) {
            Some(b'"') => {
                let (s, ni) = parse_string(b, i)?;
                i = ni;
                JsonVal::Str(s)
            }
            Some(b't') if b[i..].starts_with(b"true") => {
                i += 4;
                JsonVal::Bool(true)
            }
            Some(b'f') if b[i..].starts_with(b"false") => {
                i += 5;
                JsonVal::Bool(false)
            }
            Some(c) if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                let n = std::str::from_utf8(&b[start..i])
                    .expect("digits are utf-8")
                    .parse::<u64>()
                    .map_err(|e| err(start, &format!("bad number: {e}")))?;
                JsonVal::Num(n)
            }
            _ => return Err(err(i, "expected a string, number or bool")),
        };
        map.insert(key, val);
        i = skip_ws(b, i);
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => {
                i = skip_ws(b, i + 1);
                if i != b.len() {
                    return Err(err(i, "trailing characters after object"));
                }
                return Ok(map);
            }
            _ => return Err(err(i, "expected ',' or '}'")),
        }
    }
}

fn get_num(m: &BTreeMap<String, JsonVal>, k: &str) -> Result<u64, String> {
    match m.get(k) {
        Some(JsonVal::Num(n)) => Ok(*n),
        _ => Err(format!("missing numeric field `{k}`")),
    }
}

fn get_str(m: &BTreeMap<String, JsonVal>, k: &str) -> Result<String, String> {
    match m.get(k) {
        Some(JsonVal::Str(s)) => Ok(s.clone()),
        _ => Err(format!("missing string field `{k}`")),
    }
}

fn get_bool(m: &BTreeMap<String, JsonVal>, k: &str) -> Result<bool, String> {
    match m.get(k) {
        Some(JsonVal::Bool(v)) => Ok(*v),
        _ => Err(format!("missing bool field `{k}`")),
    }
}

fn get_outcome(m: &BTreeMap<String, JsonVal>, k: &str) -> Result<SendOutcome, String> {
    let s = get_str(m, k)?;
    SendOutcome::parse(&s).ok_or_else(|| format!("unknown outcome `{s}`"))
}

/// Parses a JSONL event stream produced by [`export_jsonl`]. Blank lines
/// are skipped; any malformed line is an error naming its line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<ObsEvent>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let m = parse_flat_object(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let tag = get_str(&m, "e").map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let ev = (|| -> Result<ObsEvent, String> {
            Ok(match tag.as_str() {
                "so" => ObsEvent::SpanOpen {
                    id: get_num(&m, "id")?,
                    parent: get_num(&m, "parent")?,
                    service: get_str(&m, "svc")?,
                    op: get_str(&m, "op")?,
                    site: SiteId(get_num(&m, "site")? as u32),
                    at: Ticks::micros(get_num(&m, "at")?),
                },
                "sc" => ObsEvent::SpanClose {
                    id: get_num(&m, "id")?,
                    outcome: get_str(&m, "out")?,
                    at: Ticks::micros(get_num(&m, "at")?),
                },
                "rq" => ObsEvent::Request {
                    span: get_num(&m, "span")?,
                    at: Ticks::micros(get_num(&m, "at")?),
                    from: SiteId(get_num(&m, "from")? as u32),
                    to: SiteId(get_num(&m, "to")? as u32),
                    kind: get_str(&m, "kind")?,
                    reply_kind: get_str(&m, "rk")?,
                    bytes: get_num(&m, "bytes")?,
                    idempotent: get_bool(&m, "idem")?,
                    outcome: get_outcome(&m, "out")?,
                },
                "rp" => ObsEvent::Reply {
                    span: get_num(&m, "span")?,
                    at: Ticks::micros(get_num(&m, "at")?),
                    from: SiteId(get_num(&m, "from")? as u32),
                    to: SiteId(get_num(&m, "to")? as u32),
                    kind: get_str(&m, "kind")?,
                    bytes: get_num(&m, "bytes")?,
                    outcome: get_outcome(&m, "out")?,
                },
                "ow" => ObsEvent::OneWay {
                    span: get_num(&m, "span")?,
                    at: Ticks::micros(get_num(&m, "at")?),
                    from: SiteId(get_num(&m, "from")? as u32),
                    to: SiteId(get_num(&m, "to")? as u32),
                    kind: get_str(&m, "kind")?,
                    bytes: get_num(&m, "bytes")?,
                    outcome: get_outcome(&m, "out")?,
                },
                "owl" => ObsEvent::OneWayLoss {
                    span: get_num(&m, "span")?,
                    at: Ticks::micros(get_num(&m, "at")?),
                    kind: get_str(&m, "kind")?,
                },
                "nt" => ObsEvent::Note {
                    span: get_num(&m, "span")?,
                    at: Ticks::micros(get_num(&m, "at")?),
                    site: SiteId(get_num(&m, "site")? as u32),
                    key: get_str(&m, "key")?,
                    label: get_str(&m, "label")?,
                    value: get_num(&m, "value")?,
                },
                other => return Err(format!("unknown event tag `{other}`")),
            })
        })()
        .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        out.push(ev);
    }
    Ok(out)
}

/// The result of replaying an event stream through the [`audit`]or.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Total events replayed.
    pub events: u64,
    /// Spans opened.
    pub spans: u64,
    /// Request transmission attempts.
    pub requests: u64,
    /// Reply transmission attempts.
    pub replies: u64,
    /// One-way transmission attempts.
    pub(crate) one_ways: u64,
    /// Protocol annotations.
    pub notes: u64,
    /// The longest burst of consecutive closed-circuit send outcomes
    /// observed in any span (at most 1 in a clean trace).
    pub(crate) max_reopen_burst: u64,
    /// One-way losses recorded.
    pub one_way_losses: u64,
    /// Every invariant violation found, in replay order.
    pub violations: Vec<String>,
}

impl AuditReport {
    /// Whether the trace satisfied every audited invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// A one-line summary for bench/CI output.
    pub fn summary(&self) -> String {
        format!(
            "{} events ({} spans, {} req, {} rep, {} one-way, {} notes), \
             max reopen burst {}, {} one-way losses: {}",
            self.events,
            self.spans,
            self.requests,
            self.replies,
            self.one_ways,
            self.notes,
            self.max_reopen_burst,
            self.one_way_losses,
            if self.is_clean() {
                "clean".to_owned()
            } else {
                format!("{} VIOLATIONS", self.violations.len())
            }
        )
    }
}

/// Minimum virtual-time gap between two successful `css.claim`s for one
/// filegroup. The handoff mechanism refuses a new-epoch claim arriving
/// within this window of the current owner's own claim, so even a
/// flapping placement policy cannot thrash the synchronization role; the
/// auditor checks the same constant offline (invariant 9 of [`audit`]).
pub const CSS_CLAIM_COOLDOWN: Ticks = Ticks::millis(5);

/// Per-span state tracked during the audit replay.
#[derive(Debug, Default)]
struct SpanAudit {
    /// A reply attempt in this span failed; only idempotent requests
    /// may be re-issued afterwards.
    reply_failed: bool,
    /// Consecutive closed-circuit send outcomes (reset on delivery).
    cc_burst: u64,
    /// One-way attempts, deliveries and recorded losses.
    ow_attempts: u64,
    ow_delivered: u64,
    ow_losses: u64,
}

/// Counts one closed-circuit send outcome in span `span`'s burst and
/// reports a burst past the reopen budget (invariant 3 of [`audit`]);
/// `what` names the send in the violation.
fn count_closed_circuit(
    report: &mut AuditReport,
    sa: &mut SpanAudit,
    span: u64,
    at: Ticks,
    what: &str,
) {
    sa.cc_burst += 1;
    report.max_reopen_burst = report.max_reopen_burst.max(sa.cc_burst);
    if sa.cc_burst > 1 {
        report.violations.push(format!(
            "t={at}: span {span} exceeded the reopen budget on {what}: {} consecutive \
             closed-circuit sends (bound 1)",
            sa.cc_burst
        ));
    }
}

/// Replays an exported event stream and checks the protocol invariants
/// the engine and the shadow-page commit protocol promise:
///
/// 1. **Reply matching** — every reply attempt (whatever its outcome)
///    corresponds to a request that was delivered and not yet answered;
///    every delivered request is eventually answered.
/// 2. **Idempotent re-issue** — after a failed reply, further request
///    attempts in the same span are only legal for idempotent messages.
/// 3. **Bounded reopens** — a span meets at most one closed-circuit
///    outcome between two deliveries: the send that observes a lost
///    reply's notice consumes it, so the reopened send reaches the wire.
/// 4. **Commit atomicity** — `commit.begin` / `commit.end` annotations
///    for one object never nest, always pair, and no `read.page` of that
///    object serves the committing (or a newer) version in between
///    (§2.3.4: the shadow page is invisible until the commit installs
///    it).
/// 5. **One-way accounting** — a span's one-way attempts end in exactly
///    one delivery or exactly one recorded loss, never both, never
///    neither.
/// 6. **Span hygiene** — closes match opens and nothing is left open.
/// 7. **CSS-epoch monotonicity** — `css.claim` notes for one filegroup
///    carry strictly increasing epochs: at most one site claims the
///    synchronization role per epoch, and the role never rolls backwards.
/// 8. **Quarantine isolation** — no `commit.begin` is emitted at a site
///    inside a `health.quarantine` … `health.readmit` window: a site the
///    health monitor has isolated for gray failure must not acknowledge
///    commits.
/// 9. **Claim cooldown** — two successful `css.claim`s for one filegroup
///    are never closer than [`CSS_CLAIM_COOLDOWN`] on the virtual clock:
///    the handoff mechanism's rate limit holds even against flapping
///    placement policies (no handoff storms).
/// 10. *Retired.* It checked the delivery order of the parallel
///     engine's cross-epoch run queues, which no longer exist.
/// 11. **Lease coherence** — after a `lease.recall` note targeting a
///     (site, file) pair, no `namecache.hit` note is emitted at that site
///     for that file until a `lease.grant` note re-arms it: a recalled
///     holder must never keep serving the cached entry. The lease notes
///     and the hit notes share the file-id label, so the check is a plain
///     set membership. Only these singular keys arm the check; a plural
///     key such as `lease.recalls`, which no code emits, is ignored.
pub fn audit(events: &[ObsEvent]) -> AuditReport {
    let mut report = AuditReport {
        events: events.len() as u64,
        ..AuditReport::default()
    };
    // Delivered-but-unanswered requests: (requester, server, reply kind)
    // -> outstanding count.
    let mut outstanding: BTreeMap<(u32, u32, String), u64> = BTreeMap::new();
    let mut spans: BTreeMap<u64, SpanAudit> = BTreeMap::new();
    let mut open_spans: BTreeMap<u64, String> = BTreeMap::new();
    // Object label -> version-vector total being committed.
    let mut open_commits: BTreeMap<String, u64> = BTreeMap::new();
    // Filegroup label -> newest CSS-claim epoch seen.
    let mut css_epochs: BTreeMap<String, u64> = BTreeMap::new();
    // Filegroup label -> time of the newest accepted CSS claim.
    let mut css_claim_at: BTreeMap<String, Ticks> = BTreeMap::new();
    // Sites currently inside a quarantine window.
    let mut quarantined: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    // (site, file label) pairs whose coherence lease was recalled and not
    // re-granted: a namecache.hit there is a stale serve.
    let mut lease_recalled: std::collections::BTreeSet<(u32, String)> =
        std::collections::BTreeSet::new();

    for ev in events {
        match ev {
            ObsEvent::SpanOpen { id, op, at, .. } => {
                report.spans += 1;
                if open_spans.insert(*id, op.clone()).is_some() {
                    report
                        .violations
                        .push(format!("t={}: span {id} opened twice", at));
                }
                spans.entry(*id).or_default();
            }
            ObsEvent::SpanClose { id, at, .. } => {
                if open_spans.remove(id).is_none() {
                    report
                        .violations
                        .push(format!("t={}: close of unknown span {id}", at));
                    continue;
                }
                let sa = spans.entry(*id).or_default();
                if sa.ow_attempts > 0 {
                    let ok = (sa.ow_delivered == 1 && sa.ow_losses == 0)
                        || (sa.ow_delivered == 0 && sa.ow_losses == 1);
                    if !ok {
                        report.violations.push(format!(
                            "t={}: span {id} one-way accounting broken: \
                             {} attempts, {} delivered, {} losses \
                             (want exactly one delivery xor one loss)",
                            at, sa.ow_attempts, sa.ow_delivered, sa.ow_losses
                        ));
                    }
                }
            }
            ObsEvent::Request {
                span,
                at,
                from,
                to,
                kind,
                reply_kind,
                idempotent,
                outcome,
                ..
            } => {
                report.requests += 1;
                let sa = spans.entry(*span).or_default();
                if sa.reply_failed && !idempotent {
                    report.violations.push(format!(
                        "t={}: span {span} re-issued non-idempotent `{kind}` \
                         after a lost reply",
                        at
                    ));
                }
                match outcome {
                    SendOutcome::CircuitClosed => {
                        let what = format!("`{kind}`");
                        count_closed_circuit(&mut report, sa, *span, *at, &what);
                    }
                    SendOutcome::Delivered => {
                        sa.cc_burst = 0;
                        *outstanding
                            .entry((from.0, to.0, reply_kind.clone()))
                            .or_insert(0) += 1;
                    }
                    _ => {}
                }
            }
            ObsEvent::Reply {
                span,
                at,
                from,
                to,
                kind,
                outcome,
                ..
            } => {
                report.replies += 1;
                // The reply travels server -> requester; the request it
                // answers was keyed (requester, server, reply kind).
                let key = (to.0, from.0, kind.clone());
                match outstanding.get_mut(&key) {
                    Some(n) if *n > 0 => {
                        *n -= 1;
                        if *n == 0 {
                            outstanding.remove(&key);
                        }
                    }
                    _ => {
                        report.violations.push(format!(
                            "t={}: orphan reply `{kind}` {from} -> {to} \
                             (no outstanding request)",
                            at
                        ));
                    }
                }
                let sa = spans.entry(*span).or_default();
                match outcome {
                    SendOutcome::Delivered => sa.reply_failed = false,
                    _ => sa.reply_failed = true,
                }
            }
            ObsEvent::OneWay {
                span, at, outcome, ..
            } => {
                report.one_ways += 1;
                let sa = spans.entry(*span).or_default();
                sa.ow_attempts += 1;
                match outcome {
                    SendOutcome::Delivered => {
                        sa.cc_burst = 0;
                        sa.ow_delivered += 1;
                    }
                    SendOutcome::CircuitClosed => {
                        count_closed_circuit(&mut report, sa, *span, *at, "a one-way send");
                    }
                    _ => {}
                }
            }
            ObsEvent::OneWayLoss { span, kind, at } => {
                report.one_way_losses += 1;
                let sa = spans.entry(*span).or_default();
                sa.ow_losses += 1;
                if sa.ow_delivered > 0 {
                    report.violations.push(format!(
                        "t={}: span {span} recorded a one-way loss of `{kind}` \
                         after a successful delivery",
                        at
                    ));
                }
            }
            ObsEvent::Note {
                at,
                site,
                key,
                label,
                value,
                ..
            } => {
                report.notes += 1;
                // The guards carry the bookkeeping (insert/remove) so it
                // runs whether or not the arm reports a violation.
                match key.as_str() {
                    "commit.begin" => {
                        if quarantined.contains(&site.0) {
                            report.violations.push(format!(
                                "t={}: commit.begin for `{label}` at quarantined \
                                 site {site} (isolation breached)",
                                at
                            ));
                        }
                        if open_commits.insert(label.clone(), *value).is_some() {
                            report
                                .violations
                                .push(format!("t={}: nested commit.begin for `{label}`", at));
                        }
                    }
                    "commit.end" if open_commits.remove(label).is_none() => {
                        report.violations.push(format!(
                            "t={}: commit.end for `{label}` without commit.begin",
                            at
                        ));
                    }
                    "css.claim" => {
                        let prev = css_epochs.get(label).copied();
                        if prev.is_some_and(|p| *value <= p) {
                            report.violations.push(format!(
                                "t={}: css.claim for `{label}` epoch {value} does not \
                                 exceed prior epoch {} (at most one CSS per epoch)",
                                at,
                                prev.unwrap_or(0)
                            ));
                        } else {
                            css_epochs.insert(label.clone(), *value);
                            if let Some(&prev_at) = css_claim_at.get(label) {
                                if at.saturating_sub(prev_at) < CSS_CLAIM_COOLDOWN {
                                    report.violations.push(format!(
                                        "t={}: css.claim for `{label}` only {}us after \
                                         the previous claim (cooldown {}us)",
                                        at,
                                        at.saturating_sub(prev_at).as_micros(),
                                        CSS_CLAIM_COOLDOWN.as_micros()
                                    ));
                                }
                            }
                            css_claim_at.insert(label.clone(), *at);
                        }
                    }
                    "health.quarantine" => {
                        quarantined.insert(site.0);
                    }
                    "health.readmit" => {
                        quarantined.remove(&site.0);
                    }
                    "lease.recall" => {
                        lease_recalled.insert((site.0, label.clone()));
                    }
                    "lease.grant" => {
                        lease_recalled.remove(&(site.0, label.clone()));
                    }
                    "namecache.hit" if lease_recalled.contains(&(site.0, label.clone())) => {
                        report.violations.push(format!(
                            "t={}: namecache.hit for `{label}` at {site} after \
                             its lease was recalled and before any re-grant \
                             (stale serve)",
                            at
                        ));
                    }
                    "read.page" => {
                        if let Some(&committing) = open_commits.get(label) {
                            if *value >= committing {
                                report.violations.push(format!(
                                    "t={}: read of `{label}` observed version {value} \
                                     while version {committing} was mid-commit \
                                     (shadow page leaked)",
                                    at
                                ));
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    for (id, op) in &open_spans {
        report
            .violations
            .push(format!("span {id} (`{op}`) never closed"));
    }
    for ((req, srv, kind), n) in &outstanding {
        report.violations.push(format!(
            "{n} delivered `{kind}`-awaiting request(s) S{req} -> S{srv} never answered"
        ));
    }
    for (label, v) in &open_commits {
        report
            .violations
            .push(format!("commit of `{label}` (version {v}) never completed"));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::default();
        for us in [0u64, 1, 1, 3, 100, 1000] {
            h.record(Ticks::micros(us));
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), Ticks::micros(1000));
        // rank(0.5 * 6) = 3 -> third sample in bucket order: the 1s live
        // in bucket 1 (upper edge 1), 3 in bucket 2 (upper edge 3).
        assert_eq!(h.quantile(0.5), Ticks::micros(1));
        // The top bucket's edge (1023) lies above every sample in it.
        assert_eq!(h.quantile(1.0), Ticks::micros(1000));
        assert_eq!(Histogram::default().quantile(0.5), Ticks::ZERO);
    }

    #[test]
    fn a_quantile_never_exceeds_the_maximum() {
        let mut h = Histogram::default();
        h.record(Ticks::micros(2_928));
        assert_eq!(h.max(), Ticks::micros(2_928));
        assert_eq!(h.quantile(0.5), h.max());
        assert_eq!(h.quantile(0.95), h.max());
    }

    #[test]
    fn histograms_with_identical_samples_are_equal() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for us in [5u64, 90, 700, 700, 12_000] {
            a.record(Ticks::micros(us));
            b.record(Ticks::micros(us));
        }
        assert_eq!(a, b);
        b.record(Ticks::micros(5));
        assert_ne!(a, b);
    }

    #[test]
    fn observer_nests_spans_and_feeds_histograms() {
        let mut o = Observer::new();
        assert_eq!(
            o.span_open(Ticks::ZERO, "fs", "open", SiteId(0)),
            0,
            "disabled"
        );
        o.set_enabled(true);
        let outer = o.span_open(Ticks::micros(10), "fs", "open", SiteId(0));
        let inner = o.span_open(Ticks::micros(12), "fs", "OPEN req", SiteId(0));
        o.note(Ticks::micros(13), SiteId(1), "read.page", "1:2", 3);
        o.span_close(Ticks::micros(20), inner, "ok");
        o.span_close(Ticks::micros(30), outer, "ok");
        let evs = o.take_events();
        assert_eq!(evs.len(), 5);
        match &evs[1] {
            ObsEvent::SpanOpen { parent, .. } => assert_eq!(*parent, outer),
            other => panic!("expected SpanOpen, got {other:?}"),
        }
        match &evs[2] {
            ObsEvent::Note { span, .. } => assert_eq!(*span, inner),
            other => panic!("expected Note, got {other:?}"),
        }
        let stats = op_stats(&evs);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].op, "OPEN req");
        assert_eq!(stats[0].count, 1);
        assert_eq!(stats[1].op, "open");
        assert_eq!(stats[1].max, Ticks::micros(20));
    }

    #[test]
    fn observer_caps_events_and_counts_truncation() {
        let mut o = Observer::new();
        o.set_enabled(true);
        for _ in 0..(OBS_CAP + 7) {
            o.note(Ticks::ZERO, SiteId(0), "k", "l", 0);
        }
        assert_eq!(o.truncated(), 7);
        assert_eq!(o.take_events().len(), OBS_CAP);
        assert_eq!(o.truncated(), 0, "take resets the counter");
    }

    fn sample_events() -> Vec<ObsEvent> {
        vec![
            ObsEvent::SpanOpen {
                id: 1,
                parent: 0,
                service: "fs".into(),
                op: "OPEN req".into(),
                site: SiteId(0),
                at: Ticks::micros(5),
            },
            ObsEvent::Request {
                span: 1,
                at: Ticks::micros(6),
                from: SiteId(0),
                to: SiteId(1),
                kind: "OPEN req".into(),
                reply_kind: "OPEN resp".into(),
                bytes: 64,
                idempotent: true,
                outcome: SendOutcome::Delivered,
            },
            ObsEvent::Reply {
                span: 1,
                at: Ticks::micros(9),
                from: SiteId(1),
                to: SiteId(0),
                kind: "OPEN resp".into(),
                bytes: 128,
                outcome: SendOutcome::Delivered,
            },
            ObsEvent::SpanClose {
                id: 1,
                outcome: "ok".into(),
                at: Ticks::micros(9),
            },
        ]
    }

    #[test]
    fn jsonl_roundtrips_every_event_shape() {
        let mut evs = sample_events();
        evs.push(ObsEvent::OneWay {
            span: 0,
            at: Ticks::micros(11),
            from: SiteId(2),
            to: SiteId(3),
            kind: "COMMIT \"notify\"\\x".into(),
            bytes: 32,
            outcome: SendOutcome::Dropped,
        });
        evs.push(ObsEvent::OneWayLoss {
            span: 0,
            at: Ticks::micros(12),
            kind: "COMMIT \"notify\"\\x".into(),
        });
        evs.push(ObsEvent::Note {
            span: 0,
            at: Ticks::micros(13),
            site: SiteId(1),
            key: "commit.begin".into(),
            label: "1:\n2".into(),
            value: 42,
        });
        let text = export_jsonl(&evs);
        let back = parse_jsonl(&text).expect("parses");
        assert_eq!(back, evs);
    }

    #[test]
    fn jsonl_rejects_malformed_lines() {
        assert!(parse_jsonl("{\"e\":\"so\"").is_err(), "unterminated");
        assert!(parse_jsonl("{\"e\":\"zz\"}").is_err(), "unknown tag");
        assert!(
            parse_jsonl("{\"e\":\"sc\",\"id\":1,\"at\":2}").is_err(),
            "missing field"
        );
    }

    #[test]
    fn audit_accepts_a_clean_exchange() {
        let report = audit(&sample_events());
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.spans, 1);
        assert_eq!(report.requests, 1);
        assert_eq!(report.replies, 1);
    }

    #[test]
    fn audit_rejects_an_orphan_reply() {
        let mut evs = sample_events();
        evs.insert(
            3,
            ObsEvent::Reply {
                span: 1,
                at: Ticks::micros(10),
                from: SiteId(1),
                to: SiteId(0),
                kind: "OPEN resp".into(),
                bytes: 128,
                outcome: SendOutcome::Delivered,
            },
        );
        let report = audit(&evs);
        assert!(!report.is_clean());
        assert!(
            report.violations[0].contains("orphan reply"),
            "got: {:?}",
            report.violations
        );
    }

    #[test]
    fn audit_rejects_an_unanswered_request() {
        let mut evs = sample_events();
        evs.remove(2); // delete the reply
        let report = audit(&evs);
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("never answered")));
    }

    fn note(at: u64, site: u32, key: &str, label: &str, value: u64) -> ObsEvent {
        ObsEvent::Note {
            span: 0,
            at: Ticks::micros(at),
            site: SiteId(site),
            key: key.into(),
            label: label.into(),
            value,
        }
    }

    #[test]
    fn audit_rejects_nonmonotone_css_claim() {
        // Two claims with increasing epochs (a cooldown apart) are fine…
        let ok = vec![
            note(1, 1, "css.claim", "fg0", 1),
            note(6_000, 2, "css.claim", "fg0", 2),
            note(6_001, 1, "css.claim", "fg1", 1), // other filegroup: own counter
        ];
        assert!(audit(&ok).is_clean());
        // …but a duplicate or stale epoch means two sites claimed the same
        // epoch, which the handoff protocol must never allow.
        let dup = vec![
            note(1, 1, "css.claim", "fg0", 3),
            note(2, 2, "css.claim", "fg0", 3),
        ];
        let report = audit(&dup);
        assert!(!report.is_clean());
        assert!(
            report.violations[0].contains("one CSS per epoch"),
            "got: {:?}",
            report.violations
        );
        let stale = vec![
            note(1, 1, "css.claim", "fg0", 5),
            note(2, 2, "css.claim", "fg0", 4),
        ];
        assert!(!audit(&stale).is_clean());
    }

    /// Invariant 9: legitimate (epoch-increasing) claims for one
    /// filegroup still violate the audit if they land inside the claim
    /// cooldown — the signature of a handoff storm.
    #[test]
    fn audit_rejects_claims_inside_the_cooldown() {
        let gap = CSS_CLAIM_COOLDOWN.as_micros();
        let storm = vec![
            note(1, 1, "css.claim", "fg0", 1),
            note(1 + gap - 1, 2, "css.claim", "fg0", 2),
        ];
        let report = audit(&storm);
        assert!(!report.is_clean());
        assert!(
            report.violations[0].contains("cooldown"),
            "got: {:?}",
            report.violations
        );
        // Exactly a cooldown apart is legal; other filegroups never
        // interfere with fg0's window.
        let calm = vec![
            note(1, 1, "css.claim", "fg0", 1),
            note(2, 2, "css.claim", "fg9", 7),
            note(1 + gap, 2, "css.claim", "fg0", 2),
            note(1 + 2 * gap, 3, "css.claim", "fg0", 3),
        ];
        assert!(audit(&calm).is_clean(), "{:?}", audit(&calm).violations);
    }

    #[test]
    fn audit_rejects_commit_at_quarantined_site() {
        // A commit bracketed inside another site's quarantine window is
        // fine; the same bracket at the quarantined site itself is the
        // isolation breach the invariant exists to catch.
        let ok = vec![
            note(1, 2, "health.quarantine", "S2", 40),
            note(2, 1, "commit.begin", "0:5", 1),
            note(3, 1, "commit.end", "0:5", 1),
            note(4, 2, "health.readmit", "S2", 0),
        ];
        assert!(audit(&ok).is_clean(), "{:?}", audit(&ok).violations);
        let breach = vec![
            note(1, 2, "health.quarantine", "S2", 40),
            note(2, 2, "commit.begin", "0:5", 1),
            note(3, 2, "commit.end", "0:5", 1),
        ];
        let report = audit(&breach);
        assert!(!report.is_clean());
        assert!(
            report.violations[0].contains("quarantined"),
            "got: {:?}",
            report.violations
        );
        // After readmission the site may commit again.
        let readmitted = vec![
            note(1, 2, "health.quarantine", "S2", 40),
            note(2, 2, "health.readmit", "S2", 0),
            note(3, 2, "commit.begin", "0:5", 1),
            note(4, 2, "commit.end", "0:5", 1),
        ];
        assert!(audit(&readmitted).is_clean());
    }

    /// Invariant 11: a locally-served `namecache.hit` after the lease on
    /// that (site, inode) was recalled — and before any re-grant — is a
    /// stale serve the coherence protocol must never allow.
    #[test]
    fn audit_rejects_hit_after_lease_recall() {
        // Hits before the recall, at other sites, or for other inodes
        // are all fine; so is a hit after a fresh grant.
        let ok = vec![
            note(1, 1, "lease.grant", "0:7", 3),
            note(2, 1, "namecache.hit", "0:7", 3),
            note(3, 1, "lease.recall", "0:7", 0),
            note(4, 2, "namecache.hit", "0:7", 3), // other site
            note(5, 1, "namecache.hit", "0:9", 1), // other inode
            note(6, 1, "lease.grant", "0:7", 4),
            note(7, 1, "namecache.hit", "0:7", 4), // re-granted
        ];
        assert!(audit(&ok).is_clean(), "{:?}", audit(&ok).violations);
        let stale = vec![
            note(1, 1, "lease.grant", "0:7", 3),
            note(2, 1, "lease.recall", "0:7", 0),
            note(3, 1, "namecache.hit", "0:7", 3),
        ];
        let report = audit(&stale);
        assert!(!report.is_clean());
        assert!(
            report.violations[0].contains("stale serve"),
            "got: {:?}",
            report.violations
        );
        // Only the singular keys arm the invariant: plural keys, which no
        // code emits, neither arm nor trip it.
        let gauges = vec![
            note(1, 1, "lease.recall", "0:7", 0),
            note(2, 0, "lease.grants", "cluster", 5),
            note(3, 0, "lease.recalls", "cluster", 1),
            note(4, 1, "lease.grant", "0:7", 4),
            note(5, 1, "namecache.hit", "0:7", 4),
        ];
        assert!(audit(&gauges).is_clean(), "{:?}", audit(&gauges).violations);
    }

    #[test]
    fn audit_rejects_over_budget_reopens() {
        let mut evs = vec![ObsEvent::SpanOpen {
            id: 1,
            parent: 0,
            service: "fs".into(),
            op: "READ req".into(),
            site: SiteId(0),
            at: Ticks::ZERO,
        }];
        for i in 0..2 {
            evs.push(ObsEvent::Request {
                span: 1,
                at: Ticks::micros(i),
                from: SiteId(0),
                to: SiteId(1),
                kind: "READ req".into(),
                reply_kind: "READ resp".into(),
                bytes: 32,
                idempotent: true,
                outcome: SendOutcome::CircuitClosed,
            });
        }
        evs.push(ObsEvent::SpanClose {
            id: 1,
            outcome: "unreachable".into(),
            at: Ticks::micros(99),
        });
        let report = audit(&evs);
        assert!(!report.is_clean());
        assert!(
            report.violations[0].contains("reopen budget"),
            "got: {:?}",
            report.violations
        );
        // One closure fewer stays within budget.
        let mut within = evs.clone();
        within.remove(within.len() - 2);
        assert!(audit(&within).is_clean());
    }

    #[test]
    fn audit_rejects_non_idempotent_reissue() {
        let evs = vec![
            ObsEvent::SpanOpen {
                id: 1,
                parent: 0,
                service: "fs".into(),
                op: "COMMIT req".into(),
                site: SiteId(0),
                at: Ticks::ZERO,
            },
            ObsEvent::Request {
                span: 1,
                at: Ticks::micros(1),
                from: SiteId(0),
                to: SiteId(1),
                kind: "COMMIT req".into(),
                reply_kind: "COMMIT resp".into(),
                bytes: 64,
                idempotent: false,
                outcome: SendOutcome::Delivered,
            },
            ObsEvent::Reply {
                span: 1,
                at: Ticks::micros(2),
                from: SiteId(1),
                to: SiteId(0),
                kind: "COMMIT resp".into(),
                bytes: 16,
                outcome: SendOutcome::ReplyLost,
            },
            ObsEvent::Request {
                span: 1,
                at: Ticks::micros(3),
                from: SiteId(0),
                to: SiteId(1),
                kind: "COMMIT req".into(),
                reply_kind: "COMMIT resp".into(),
                bytes: 64,
                idempotent: false,
                outcome: SendOutcome::Delivered,
            },
            ObsEvent::Reply {
                span: 1,
                at: Ticks::micros(4),
                from: SiteId(1),
                to: SiteId(0),
                kind: "COMMIT resp".into(),
                bytes: 16,
                outcome: SendOutcome::Delivered,
            },
            ObsEvent::SpanClose {
                id: 1,
                outcome: "ok".into(),
                at: Ticks::micros(5),
            },
        ];
        let report = audit(&evs);
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("non-idempotent")));
    }

    #[test]
    fn audit_rejects_a_read_inside_a_commit() {
        let evs = vec![
            ObsEvent::Note {
                span: 0,
                at: Ticks::micros(1),
                site: SiteId(1),
                key: "commit.begin".into(),
                label: "1:7".into(),
                value: 4,
            },
            ObsEvent::Note {
                span: 0,
                at: Ticks::micros(2),
                site: SiteId(1),
                key: "read.page".into(),
                label: "1:7".into(),
                value: 4,
            },
            ObsEvent::Note {
                span: 0,
                at: Ticks::micros(3),
                site: SiteId(1),
                key: "commit.end".into(),
                label: "1:7".into(),
                value: 4,
            },
        ];
        let report = audit(&evs);
        assert!(
            report.violations.iter().any(|v| v.contains("mid-commit")),
            "got: {:?}",
            report.violations
        );
        // A read of the *previous* version during the commit is legal.
        let mut old_read = evs.clone();
        if let ObsEvent::Note { value, .. } = &mut old_read[1] {
            *value = 3;
        }
        assert!(audit(&old_read).is_clean());
    }

    #[test]
    fn audit_rejects_unbalanced_commits_and_spans() {
        let evs = vec![
            ObsEvent::SpanOpen {
                id: 1,
                parent: 0,
                service: "fs".into(),
                op: "commit".into(),
                site: SiteId(0),
                at: Ticks::ZERO,
            },
            ObsEvent::Note {
                span: 1,
                at: Ticks::micros(1),
                site: SiteId(1),
                key: "commit.begin".into(),
                label: "1:9".into(),
                value: 2,
            },
        ];
        let report = audit(&evs);
        assert!(report.violations.iter().any(|v| v.contains("never closed")));
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("never completed")));
    }

    #[test]
    fn audit_rejects_a_loss_after_delivery() {
        let evs = vec![
            ObsEvent::SpanOpen {
                id: 1,
                parent: 0,
                service: "fs".into(),
                op: "COMMIT notify".into(),
                site: SiteId(0),
                at: Ticks::ZERO,
            },
            ObsEvent::OneWay {
                span: 1,
                at: Ticks::micros(1),
                from: SiteId(0),
                to: SiteId(1),
                kind: "COMMIT notify".into(),
                bytes: 32,
                outcome: SendOutcome::Delivered,
            },
            ObsEvent::OneWayLoss {
                span: 1,
                at: Ticks::micros(2),
                kind: "COMMIT notify".into(),
            },
            ObsEvent::SpanClose {
                id: 1,
                outcome: "ok".into(),
                at: Ticks::micros(3),
            },
        ];
        let report = audit(&evs);
        assert!(!report.is_clean());
    }

    #[test]
    fn op_stats_pairs_closes_with_opens_by_id() {
        let open = |id: u64, parent: u64, service: &str, op: &str, at: u64| ObsEvent::SpanOpen {
            id,
            parent,
            service: service.into(),
            op: op.into(),
            site: SiteId(0),
            at: Ticks::micros(at),
        };
        let close = |id: u64, at: u64| ObsEvent::SpanClose {
            id,
            outcome: "ok".into(),
            at: Ticks::micros(at),
        };
        let evs = vec![
            open(1, 0, "fs", "open", 0),
            open(2, 1, "fs", "read", 10),
            open(3, 2, "fs", "read", 12),
            // The outer read closes before the read nested in it.
            close(2, 20),
            note(15, 0, "read.page", "1:2", 1),
            close(3, 112),
            close(1, 1000),
            // No open: a close past the stream's start, and a second close.
            close(9, 1100),
            close(3, 1200),
            open(4, 0, "fs", "read", 2000),
            open(5, 0, "proc", "fork", 2001),
            close(4, 2003),
            close(5, 2001),
        ];
        let row = |service: &str, op: &str, count, p50, p95, max| OpStat {
            service: service.into(),
            op: op.into(),
            count,
            p50: Ticks::micros(p50),
            p95: Ticks::micros(p95),
            max: Ticks::micros(max),
        };
        // fs/read samples 10, 100 and 3 µs fall in buckets 4, 7 and 2
        // (upper edges 15, 127, 3): rank 2 of 3 is 15, rank 3 is 127,
        // clamped to the maximum, 100.
        assert_eq!(
            op_stats(&evs),
            vec![
                row("fs", "open", 1, 1000, 1000, 1000),
                row("fs", "read", 3, 15, 100, 100),
                row("proc", "fork", 1, 0, 0, 0),
            ]
        );
        assert!(op_stats(&evs[3..9]).is_empty(), "closes without opens");
    }

    #[test]
    fn render_op_stats_tabulates() {
        let txt = render_op_stats(&[OpStat {
            service: "fs".into(),
            op: "open".into(),
            count: 3,
            p50: Ticks::micros(100),
            p95: Ticks::micros(900),
            max: Ticks::micros(1234),
        }]);
        assert!(txt.contains("service"));
        assert!(txt.contains("open"));
        assert!(txt.contains('3'));
    }
}

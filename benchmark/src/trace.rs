//! The traced run's recorder: host spans around every call the driver
//! makes into the program, and the virtual-clock self time of the
//! program's own spans.
//!
//! Spans stay in memory while the run measures and are written out as
//! JSONL when it ends. Nothing here knows a program type: [`crate::sut`]
//! turns the program's events into the plain numbers recorded here.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// `parent` of a span nothing encloses.
pub const NO_PARENT: u32 = u32::MAX;

/// What the program's own event stream says happened during one call.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallObs {
    /// Messages delivered.
    pub msgs: u32,
    /// Bytes those messages carried.
    pub bytes: u64,
    /// Virtual time spent on the wire (Σ message cost of those bytes).
    pub wire_us: u64,
}

/// One host span: a driver-level op, or one call into the program made
/// on its behalf.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call`, e.g. `fs.open`, or `op.<kind>` for the enclosing op.
    pub name: &'static str,
    /// Wall-clock start, ns since the recorder was created.
    pub start_ns: u64,
    /// Wall-clock end.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The driver-level op this span belongs to (0 outside any op).
    pub op_id: u64,
    /// Virtual time the call took.
    pub sim_us: u64,
    /// The program's own account of the call.
    pub obs: CallObs,
}

/// Per-name summary of the calls recorded: the per-call triple of the
/// per-layer tables.
#[derive(Clone, Debug, Default)]
pub struct CallSummary {
    /// Calls recorded.
    pub calls: u64,
    /// Median wall time per call, µs.
    pub host_us: f64,
    /// Median messages per call.
    pub msgs: f64,
    /// Median virtual time per call, µs.
    pub sim_us: f64,
    /// Total wall time in these calls, ns.
    pub total_host_ns: u64,
}

/// Virtual-clock time attributed to one `service/op` of the program's
/// own spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProgSpanStat {
    /// Spans closed.
    pub count: u64,
    /// Σ duration.
    pub total_us: u64,
    /// Σ duration minus the part child spans cover.
    pub self_us: u64,
}

struct OpenProg {
    id: u64,
    /// Index into `Tracer::prog`.
    key: usize,
    at_us: u64,
    child_us: u64,
}

/// The in-memory recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    current_op: Option<(u32, u64)>,
    prog_stack: Vec<OpenProg>,
    /// `service → op → index into prog`, so a span the recorder has seen
    /// before costs no allocation.
    prog_keys: BTreeMap<String, BTreeMap<String, usize>>,
    prog: Vec<(String, ProgSpanStat)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            current_op: None,
            prog_stack: Vec::new(),
            prog_keys: BTreeMap::new(),
            prog: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the span of one driver-level op; calls recorded until
    /// [`Tracer::end_op`] become its children.
    pub fn begin_op(&mut self, name: &'static str, op_id: u64) {
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: NO_PARENT,
            op_id,
            sim_us: 0,
            obs: CallObs::default(),
        });
        self.current_op = Some((idx, op_id));
    }

    /// Closes the current op span, summing its children into it.
    pub fn end_op(&mut self) {
        let Some((idx, _)) = self.current_op.take() else {
            return;
        };
        let end_ns = self.now_ns();
        let (mut sim_us, mut obs) = (0, CallObs::default());
        for child in &self.spans[idx as usize + 1..] {
            sim_us += child.sim_us;
            obs.msgs += child.obs.msgs;
            obs.bytes += child.obs.bytes;
            obs.wire_us += child.obs.wire_us;
        }
        let op = &mut self.spans[idx as usize];
        op.end_ns = end_ns;
        op.sim_us = sim_us;
        op.obs = obs;
    }

    /// Records one finished call into the program.
    pub fn call(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        sim_us: u64,
        obs: CallObs,
    ) {
        let (parent, op_id) = self.current_op.unwrap_or((NO_PARENT, 0));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id,
            sim_us,
            obs,
        });
    }

    /// A program span opened at virtual time `at_us`.
    pub fn prog_open(&mut self, id: u64, service: &str, op: &str, at_us: u64) {
        let known = self
            .prog_keys
            .get(service)
            .and_then(|ops| ops.get(op))
            .copied();
        let key = known.unwrap_or_else(|| {
            self.prog
                .push((format!("{service}/{op}"), ProgSpanStat::default()));
            let key = self.prog.len() - 1;
            self.prog_keys
                .entry(service.to_string())
                .or_default()
                .insert(op.to_string(), key);
            key
        });
        self.prog_stack.push(OpenProg {
            id,
            key,
            at_us,
            child_us: 0,
        });
    }

    /// A program span closed: its self time is its duration minus what
    /// its children covered.
    pub fn prog_close(&mut self, id: u64, at_us: u64) {
        // The program closes spans in stack order; an unknown id means
        // the open was drained before recording started.
        let Some(pos) = self.prog_stack.iter().rposition(|s| s.id == id) else {
            return;
        };
        let s = self.prog_stack.remove(pos);
        let dur = at_us.saturating_sub(s.at_us);
        let stat = &mut self.prog[s.key].1;
        stat.count += 1;
        stat.total_us += dur;
        stat.self_us += dur.saturating_sub(s.child_us);
        if let Some(parent) = self.prog_stack.last_mut() {
            parent.child_us += dur;
        }
    }

    /// The program's spans by `(service, op)`, largest self time first.
    pub fn prog_spans(&self) -> Vec<(String, ProgSpanStat)> {
        let mut rows = self.prog.clone();
        rows.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summarises the calls whose name is one of `names`, pooled.
    pub fn summary(&self, names: &[&str]) -> CallSummary {
        let (mut host, mut msgs, mut sim) = (Vec::new(), Vec::new(), Vec::new());
        let mut total_host_ns = 0;
        for s in self.spans.iter().filter(|s| names.contains(&s.name)) {
            let d = s.end_ns - s.start_ns;
            total_host_ns += d;
            host.push(d);
            msgs.push(u64::from(s.obs.msgs));
            sim.push(s.sim_us);
        }
        host.sort_unstable();
        msgs.sort_unstable();
        sim.sort_unstable();
        CallSummary {
            calls: host.len() as u64,
            host_us: crate::stats::median_sorted(&host) as f64 / 1e3,
            msgs: crate::stats::median_sorted(&msgs) as f64,
            sim_us: crate::stats::median_sorted(&sim) as f64,
            total_host_ns,
        }
    }

    /// Writes the spans of the first `max_ops` ops as JSONL, one span per
    /// line, and returns how many lines were written.
    pub fn write_jsonl(&self, path: &std::path::Path, max_ops: u64) -> std::io::Result<usize> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut lines = 0;
        let first_op = self
            .spans
            .iter()
            .map(|s| s.op_id)
            .find(|&id| id != 0)
            .unwrap_or(0);
        for (idx, s) in self.spans.iter().enumerate() {
            if s.op_id >= first_op + max_ops {
                break;
            }
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{idx},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"op_id\":{},\"sim_us\":{},\"msgs\":{},\"bytes\":{},\"wire_us\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op_id,
                s.sim_us,
                s.obs.msgs,
                s.obs.bytes,
                s.obs.wire_us
            )?;
            lines += 1;
        }
        out.flush()?;
        Ok(lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let mut t = Tracer::new();
        t.prog_open(1, "fs", "open", 100);
        t.prog_open(2, "fs", "rpc", 150);
        t.prog_close(2, 450);
        t.prog_close(1, 600);
        let rows = t.prog_spans();
        assert_eq!(rows[0].0, "fs/rpc");
        assert_eq!(rows[0].1.self_us, 300);
        assert_eq!(rows[1].0, "fs/open");
        assert_eq!((rows[1].1.total_us, rows[1].1.self_us), (500, 200));
    }

    #[test]
    fn op_span_sums_its_children() {
        let mut t = Tracer::new();
        t.begin_op("op.read", 7);
        let obs = CallObs {
            msgs: 2,
            bytes: 128,
            wire_us: 2128,
        };
        t.call("fs.open", 10, 20, 2500, obs);
        t.call("fs.close", 20, 30, 2500, obs);
        t.end_op();
        let op = &t.spans()[0];
        assert_eq!((op.obs.msgs, op.sim_us, op.op_id), (4, 5000, 7));
        assert_eq!(t.spans()[1].parent, 0);
        let s = t.summary(&["fs.open", "fs.close"]);
        assert_eq!((s.calls, s.msgs, s.sim_us), (2, 2.0, 2500.0));
    }
}

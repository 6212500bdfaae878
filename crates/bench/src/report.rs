//! Machine-readable benchmark reports.
//!
//! Every `e*` experiment binary writes a `BENCH_<name>.json` beside its
//! human-readable output so CI can diff message counts, virtual elapsed
//! time and cache hit ratios against a checked-in baseline. The writer is
//! hand-rolled: the schema is one flat object of numbers and strings, and
//! the container carries no JSON dependency.
//!
//! Output lands in `$BENCH_OUT_DIR` when set, else `target/bench`.

use std::path::PathBuf;

use locus::{Cluster, Ticks};
use locus_net::NetStats;
use locus_storage::CacheStats;

/// Accumulates network and cache totals across one or more clusters so a
/// bin that builds several (e.g. one per sweep point) still reports one
/// summary. Call [`RunTotals::absorb`] once per cluster before dropping
/// it, then [`BenchReport::totals`] once at the end.
#[derive(Default)]
pub struct RunTotals {
    msgs: u64,
    bytes: u64,
    elapsed_us: u64,
    cache: CacheStats,
}

impl RunTotals {
    /// An empty accumulator.
    pub fn new() -> Self {
        RunTotals::default()
    }

    /// Folds in one cluster's message counts (since its last stats
    /// reset), virtual clock and cache counters.
    pub fn absorb(&mut self, cluster: &Cluster) {
        let st = cluster.net().stats();
        self.msgs += st.total_sends();
        self.bytes += st.total_bytes();
        self.elapsed_us += cluster.net().now().as_micros();
        self.cache.merge(&cluster.fs().cache_stats());
    }
}

/// One flat JSON object, written in insertion order.
pub struct BenchReport {
    name: &'static str,
    fields: Vec<(String, String)>,
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl BenchReport {
    /// A report for experiment `name` (e.g. `"e3"`).
    pub fn new(name: &'static str) -> Self {
        BenchReport {
            name,
            fields: Vec::new(),
        }
    }

    /// Records an integer metric.
    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.fields.push((key.to_owned(), v.to_string()));
        self
    }

    /// Records a float metric (non-finite values become `null`).
    pub fn float(&mut self, key: &str, v: f64) -> &mut Self {
        let rendered = if v.is_finite() {
            format!("{v:.4}")
        } else {
            "null".to_owned()
        };
        self.fields.push((key.to_owned(), rendered));
        self
    }

    /// Records a string metric.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.fields
            .push((key.to_owned(), format!("\"{}\"", escape(v))));
        self
    }

    /// Records a virtual elapsed time in microseconds.
    pub fn elapsed(&mut self, key: &str, t: Ticks) -> &mut Self {
        self.int(key, t.as_micros())
    }

    /// Records a message-count snapshot: the total plus one
    /// `<prefix>.msgs.<kind>` entry per message kind (sorted for a
    /// stable field order).
    pub fn messages(&mut self, prefix: &str, stats: &NetStats) -> &mut Self {
        self.int(&format!("{prefix}.msgs_total"), stats.total_sends());
        self.int(&format!("{prefix}.bytes_total"), stats.total_bytes());
        let mut kinds: Vec<(&'static str, u64, u64)> = stats.iter().collect();
        kinds.sort_unstable_by_key(|&(k, _, _)| k);
        for (kind, sends, _) in kinds {
            self.int(&format!("{prefix}.msgs.{kind}"), sends);
        }
        self
    }

    /// Records buffer-cache counters and the derived hit ratio.
    pub fn cache(&mut self, prefix: &str, stats: CacheStats) -> &mut Self {
        self.int(&format!("{prefix}.cache_hits"), stats.hits);
        self.int(&format!("{prefix}.cache_misses"), stats.misses);
        self.int(
            &format!("{prefix}.cache_invalidations"),
            stats.invalidations,
        );
        self.float(&format!("{prefix}.cache_hit_ratio"), stats.hit_ratio());
        self
    }

    /// Records the standard run summary: total messages, bytes, virtual
    /// elapsed microseconds and merged cache counters.
    pub fn totals(&mut self, totals: &RunTotals) -> &mut Self {
        self.int("msgs_total", totals.msgs);
        self.int("bytes_total", totals.bytes);
        self.int("virtual_elapsed_us", totals.elapsed_us);
        self.cache("run", totals.cache)
    }

    /// Renders the JSON document.
    pub(crate) fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            let comma = if i + 1 == self.fields.len() { "" } else { "," };
            out.push_str(&format!("  \"{}\": {v}{comma}\n", escape(k)));
        }
        out.push_str("}\n");
        out
    }

    /// Writes `BENCH_<name>.json` to [`crate::out_dir`] and returns the
    /// path written.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written — an experiment run whose
    /// report is silently lost would defeat the CI guard.
    pub fn write(&self) -> PathBuf {
        let path = crate::out_dir().join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.render())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_flat_object_in_insertion_order() {
        let mut r = BenchReport::new("t");
        r.int("a", 3).float("b", 0.5).str("c", "x\"y");
        let json = r.render();
        assert_eq!(
            json,
            "{\n  \"a\": 3,\n  \"b\": 0.5000,\n  \"c\": \"x\\\"y\"\n}\n"
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut r = BenchReport::new("t");
        r.float("nan", f64::NAN);
        assert!(r.render().contains("\"nan\": null"));
    }
}

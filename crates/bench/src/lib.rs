//! Experiment harness for the LOCUS reproduction.
//!
//! Every figure, table and quantified claim of the paper's evaluation is
//! regenerated by a binary in `src/bin/` (see DESIGN.md §3 for the index
//! and EXPERIMENTS.md for paper-vs-measured results). This library holds
//! the shared pieces:
//!
//! * [`unixfs`] — the "conventional Unix" single-machine baseline the
//!   paper compares local access against (§2.1, §6);
//! * [`workload`] — seeded workload generators;
//! * [`figures`] — the Figure 1 / Figure 2 renderers;
//! * cluster construction and measurement helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod report;
pub mod unixfs;
pub mod workload;

pub use report::{BenchReport, RunTotals};

use locus::{Cluster, Ticks};

/// Where experiment outputs (`BENCH_*.json`, `TRACE_*.jsonl`) land:
/// `$BENCH_OUT_DIR` when set, else `target/bench` (created on demand) so
/// runs never litter the repository root.
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn out_dir() -> std::path::PathBuf {
    let dir = std::env::var_os("BENCH_OUT_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("target/bench"));
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    dir
}

/// Builds the standard experiment cluster: `nsites` VAXen with the root
/// filegroup replicated at the given container sites.
///
/// The gray-failure health monitor runs during every experiment: it is a
/// passive observer of traffic the benches generate anyway, so enabling
/// it here — with `bench_guard` holding the results to the checked-in
/// baselines — is the standing proof that health tracking costs zero
/// messages and zero virtual time on the healthy path.
pub fn standard_cluster(nsites: usize, containers: &[u32]) -> Cluster {
    let cluster = Cluster::builder()
        .vax_sites(nsites)
        .filegroup("root", containers)
        .build();
    cluster
        .net()
        .enable_health(locus_net::HealthPolicy::default());
    cluster
}

/// Measures the virtual time consumed by `f`.
pub fn timed<R>(cluster: &Cluster, f: impl FnOnce() -> R) -> (R, Ticks) {
    let t0 = cluster.net().now();
    let r = f();
    (r, cluster.net().now() - t0)
}

/// Formats a ratio with two decimals.
pub fn ratio(a: Ticks, b: Ticks) -> f64 {
    if b.as_micros() == 0 {
        f64::NAN
    } else {
        a.as_micros() as f64 / b.as_micros() as f64
    }
}

/// Drains the cluster's observability events, prints the per-operation
/// virtual-time latency table, writes `TRACE_<name>.jsonl` beside the
/// bench report (in [`out_dir`]), and runs the offline trace auditor
/// over the export. Returns the file's path and the drained events.
///
/// # Panics
///
/// Panics if any event was discarded past the observer cap (the trace is
/// incomplete), if the JSONL export fails to parse back (the writer and
/// parser disagree), or if the auditor finds a protocol violation — an
/// experiment whose own trace breaks the protocol invariants must not
/// report numbers.
pub fn export_and_audit_trace(
    cluster: &Cluster,
    name: &str,
) -> (std::path::PathBuf, Vec<locus_net::ObsEvent>) {
    let truncated = cluster.net().obs_truncated();
    let events = cluster.net().take_obs_events();
    let stats = locus_net::op_stats(&events);
    if !stats.is_empty() {
        println!("\nper-operation virtual-time latency:");
        print!("{}", locus_net::render_op_stats(&stats));
    }
    assert_eq!(truncated, 0, "observer overflowed; the trace is a prefix");
    let jsonl = locus_net::export_jsonl(&events);
    let path = out_dir().join(format!("TRACE_{name}.jsonl"));
    std::fs::write(&path, &jsonl)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    let parsed = locus_net::parse_jsonl(&jsonl).expect("exported trace parses back");
    assert_eq!(parsed, events, "JSONL export/parse must roundtrip");
    let report = locus_net::audit(&parsed);
    println!("trace audit ({name}): {}", report.summary());
    assert!(
        report.is_clean(),
        "trace audit found protocol violations: {:?}",
        report.violations
    );
    (path, events)
}

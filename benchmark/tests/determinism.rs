//! The benchmark's own guarantees: simulated statistics and the op
//! stream are a pure function of the seed, a different seed gives a
//! different stream, every result agrees with the model, and the metric
//! names printed are exactly the ones `BENCHMARK.json` declares.

use locus_benchmark::driver::{run, RunConfig, RunReport, Stop, PROBE_METRICS};
use locus_benchmark::workload::Kind;

/// One run at 1/100 of the full op count.
fn small(kind: Kind, seed: u64, trace: bool) -> RunReport {
    run(&RunConfig {
        kind,
        seed,
        stop: Stop::Ops((kind.full_ops() / 100).max(100)),
        warmup_ops: (kind.warmup_ops() / 100).max(50),
        setups: 1,
        trace,
        out_dir: None,
    })
    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", kind.name()))
}

/// Everything that must repeat exactly: the `sim_*` metrics, the failure
/// counts and the stream digest.
fn exact(r: &RunReport) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = r
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("sim_"))
        .map(|m| (m.name.clone(), m.value.to_bits()))
        .collect();
    assert_eq!(v.len(), 4, "four simulated end-to-end metrics");
    v.push(("attempted".into(), r.attempted));
    v.push(("errors".into(), r.errors));
    v.push(("oracle_mismatches".into(), r.oracle_mismatches));
    v.push(("stream_digest".into(), r.stream_digest));
    v
}

fn repeats_exactly(kind: Kind) {
    let (a, b) = (small(kind, 1, false), small(kind, 1, false));
    assert_eq!(
        exact(&a),
        exact(&b),
        "{}: same seed, same numbers",
        kind.name()
    );
    assert_eq!(a.failed(), 0, "{}: {:?}", kind.name(), a.notes);
    let c = small(kind, 2, false);
    assert_ne!(
        a.stream_digest,
        c.stream_digest,
        "{}: seed 2 is another stream",
        kind.name()
    );
    assert_eq!(c.oracle_mismatches, 0, "{}: {:?}", kind.name(), c.notes);
    assert_eq!(c.errors, 0, "{}: {:?}", kind.name(), c.notes);
}

#[test]
fn mixed_64_repeats_exactly() {
    repeats_exactly(Kind::Mixed64);
}

#[test]
fn scale_read_512_repeats_exactly() {
    repeats_exactly(Kind::ScaleRead512);
}

#[test]
fn write_share_64_repeats_exactly() {
    repeats_exactly(Kind::WriteShare64);
}

#[test]
fn reconfig_32_repeats_exactly() {
    repeats_exactly(Kind::Reconfig32);
}

/// The `"name": "…"` values inside one top-level array of
/// `BENCHMARK.json` (the file is flat enough that no parser is needed).
fn declared(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn benchmark_json_names_what_the_runs_print() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");

    let workloads: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(declared(&json, "workloads"), workloads);

    let untraced = small(Kind::Reconfig32, 1, false);
    let printed: Vec<String> = untraced.metrics.iter().map(|m| m.name.clone()).collect();
    assert_eq!(declared(&json, "end_to_end"), printed);

    let traced = small(Kind::Reconfig32, 1, true);
    let mut printed: Vec<String> = traced.metrics.iter().map(|m| m.name.clone()).collect();
    printed.extend(PROBE_METRICS.iter().map(|s| s.to_string()));
    let mut want = declared(&json, "per_layer");
    want.sort();
    printed.sort();
    assert_eq!(want, printed);
    assert_eq!(traced.failed(), 0, "{:?}", traced.notes);
}

//! **bench_guard** — CI gate over the `BENCH_<name>.json` reports.
//!
//! Compares freshly-written reports against the checked-in baselines in
//! `crates/bench/baselines/`. The simulator is deterministic, so message
//! counts and virtual times are exactly reproducible, and the one check
//! is exact equality, both ways: every baseline key must be present in
//! the measured report, every numeric key of the report must be in the
//! baseline, and every numeric key must match its baseline bit for bit. The
//! benches run with the gray-failure health monitor enabled, so a pass
//! also proves health tracking is free on the healthy path.
//!
//! **Wall-clock keys are presence-only.** Keys containing `_wall_` or
//! ending in `_speedup` measure host scheduling, not the simulation —
//! they differ run to run — so only their *presence* in the measured
//! report is checked, never their value, and a report may carry one its
//! baseline lacks.
//!
//! Run with `cargo run -p locus-bench --bin bench_guard -- [names...]`
//! (default: `e1 e3 e4 e5 e6 e7 e8 e10 e11 e12 e13 e16`). Reads measured reports from
//! `$BENCH_OUT_DIR` or `target/bench`, baselines from
//! `$BENCH_BASELINE_DIR` or `crates/bench/baselines`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Parses the flat JSON objects [`locus_bench::BenchReport`] writes:
/// one `"key": value` pair per line. Non-numeric values are kept only
/// for presence checks.
fn parse_flat_json(text: &str) -> BTreeMap<String, Option<f64>> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((key, rest)) = rest.split_once('"') else {
            continue;
        };
        let Some(value) = rest.trim_start().strip_prefix(':') else {
            continue;
        };
        out.insert(key.to_owned(), value.trim().parse::<f64>().ok());
    }
    out
}

fn load(path: &Path) -> Result<BTreeMap<String, Option<f64>>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let parsed = parse_flat_json(&text);
    if parsed.is_empty() {
        return Err(format!("{} holds no key/value pairs", path.display()));
    }
    Ok(parsed)
}

/// True for keys that measure the host, not the simulation: wall-clock
/// durations (`*_wall_*`) and the speedups derived from them
/// (`*_speedup`). Their values are never compared against a baseline.
fn is_wall_clock(key: &str) -> bool {
    key.contains("_wall_") || key.ends_with("_speedup")
}

fn compare(
    name: &str,
    baseline: &BTreeMap<String, Option<f64>>,
    measured: &BTreeMap<String, Option<f64>>,
) -> Vec<String> {
    let mut problems = Vec::new();
    for (key, base) in baseline {
        let Some(got) = measured.get(key) else {
            problems.push(format!("{name}: key {key} missing from measured report"));
            continue;
        };
        if is_wall_clock(key) {
            continue; // host timing: presence was the whole check
        }
        let (Some(base), Some(got)) = (base, got) else {
            continue; // non-numeric: presence was the whole check
        };
        if got != base {
            problems.push(format!("{name}: {key} diverged: {got} != baseline {base}"));
        }
    }
    for (key, got) in measured {
        if got.is_some() && !is_wall_clock(key) && !baseline.contains_key(key) {
            problems.push(format!("{name}: key {key} missing from baseline"));
        }
    }
    problems
}

fn check(name: &str, measured_dir: &Path, baseline_dir: &Path) -> Vec<String> {
    let file = format!("BENCH_{name}.json");
    let baseline = match load(&baseline_dir.join(&file)) {
        Ok(b) => b,
        Err(e) => return vec![format!("{name}: baseline: {e}")],
    };
    let measured = match load(&measured_dir.join(&file)) {
        Ok(m) => m,
        Err(e) => return vec![format!("{name}: measured: {e}")],
    };
    compare(name, &baseline, &measured)
}

fn main() -> ExitCode {
    let mut names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = names.iter().find(|a| a.starts_with("--")) {
        eprintln!("bench_guard: unknown flag {flag}");
        return ExitCode::FAILURE;
    }
    if names.is_empty() {
        names = [
            "e1", "e3", "e4", "e5", "e6", "e7", "e8", "e10", "e11", "e12", "e13", "e16",
        ]
        .map(String::from)
        .to_vec();
    }
    let measured_dir = std::env::var_os("BENCH_OUT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/bench"));
    let baseline_dir = std::env::var_os("BENCH_BASELINE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("crates/bench/baselines"));

    let mut problems = Vec::new();
    for name in &names {
        problems.extend(check(name, &measured_dir, &baseline_dir));
    }
    if problems.is_empty() {
        println!(
            "bench_guard: {} report(s) identical to baseline",
            names.len()
        );
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("bench_guard: {p}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(pairs: &[(&str, f64)]) -> BTreeMap<String, Option<f64>> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), Some(*v)))
            .collect()
    }

    /// A wall-clock key whose measured value differs wildly from the
    /// baseline must not fail the guard, while a genuinely simulated key
    /// (`*_msgs`) in the same report still does.
    #[test]
    fn wall_clock_keys_are_never_compared() {
        let baseline = report(&[
            ("e15_wall_ms", 1812.0),
            ("e15_speedup", 3.1),
            ("open_msgs", 6.0),
        ]);
        let measured = report(&[
            ("e15_wall_ms", 95000.0), // loaded runner: 50x slower
            ("e15_speedup", 0.4),
            ("open_msgs", 6.0),
        ]);
        assert!(compare("e15", &baseline, &measured).is_empty());

        // Same report with a real regression: only the _msgs key trips.
        let regressed = report(&[
            ("e15_wall_ms", 95000.0),
            ("e15_speedup", 0.4),
            ("open_msgs", 9.0),
        ]);
        let problems = compare("e15", &baseline, &regressed);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("open_msgs"));
    }

    /// Presence is still required: dropping a wall-clock key from the
    /// measured report is a missing-key failure even though its value is
    /// exempt.
    #[test]
    fn wall_clock_keys_must_still_be_present() {
        let baseline = report(&[("e15_wall_ms", 1812.0), ("s8_msgs_per_op", 6.0)]);
        let measured = report(&[("s8_msgs_per_op", 6.0)]);
        let problems = compare("e15", &baseline, &measured);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("e15_wall_ms missing"));
    }

    /// The check runs both ways: a numeric key the report carries and the
    /// baseline lacks fails, unless it is a wall-clock key.
    #[test]
    fn report_keys_missing_from_the_baseline_fail() {
        let baseline = report(&[("open_msgs", 6.0)]);
        let measured = report(&[("open_msgs", 6.0), ("seq_msgs", 22.0), ("e15_wall_ms", 9.0)]);
        let problems = compare("e3", &baseline, &measured);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("seq_msgs missing from baseline"));
    }

    #[test]
    fn wall_clock_key_shapes() {
        assert!(is_wall_clock("e15_wall_ms"));
        assert!(is_wall_clock("run_wall_us"));
        assert!(is_wall_clock("e15_speedup"));
        assert!(!is_wall_clock("s8_msgs_per_op"));
        assert!(!is_wall_clock("open_us"));
        assert!(!is_wall_clock("commit_ratio"));
    }
}

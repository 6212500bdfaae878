//! The end-to-end driver binary. One invocation runs one workload once:
//!
//! ```text
//! lbench --workload mixed_64 --seed 1 --seconds 15 --trace 0
//! ```
//!
//! It prints every metric as `workload/metric value unit`, diagnostics
//! and notes prefixed with `#`, and — as the last line — one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the per-layer
//! ones, completed from the probe binary's output (`--probes FILE`).
//!
//! Without `--seconds` the window is a fixed op count (`--scale D` divides
//! the workload's full count, `--warmup-scale D` its warm-up), which
//! makes every simulated statistic a pure function of the seed.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use locus_benchmark::driver::{self, Metric, RunConfig, Stop, MAX_SELF_SHARE, PROBE_METRICS};
use locus_benchmark::workload::Kind;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: Option<f64>,
    scale: u64,
    warmup_scale: u64,
    trace: bool,
    setups: Option<u32>,
    probes: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        kind: Kind::Mixed64,
        seed: 1,
        seconds: None,
        scale: 1,
        warmup_scale: 1,
        trace: false,
        setups: None,
        probes: None,
        out: None,
    };
    let mut have_workload = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} wants a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.kind = Kind::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?;
                have_workload = true;
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds wants a value in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--scale" | "--warmup-scale" => {
                let d: u64 = value()?.parse().map_err(|e| format!("{flag}: {e}"))?;
                if d == 0 {
                    return Err(format!("{flag} wants a positive divisor"));
                }
                if flag == "--scale" {
                    a.scale = d;
                } else {
                    a.warmup_scale = d;
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, got {v}")),
                }
            }
            "--setups" => a.setups = Some(value()?.parse().map_err(|e| format!("--setups: {e}"))?),
            "--probes" => a.probes = Some(PathBuf::from(value()?)),
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !have_workload {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// Reads the probe binary's `name value unit` lines.
fn read_probes(path: &PathBuf) -> Result<Vec<Metric>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let mut parts = line.split_whitespace();
        let (Some(name), Some(value), Some(unit)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("malformed probe line: {line}"));
        };
        out.push(Metric {
            name: name.to_string(),
            value: value
                .parse()
                .map_err(|e| format!("probe value in {line}: {e}"))?,
            unit: unit.to_string(),
        });
    }
    Ok(out)
}

fn json_line(report: &driver::RunReport) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed(),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lbench: {e}");
            return ExitCode::from(2);
        }
    };
    let kind = args.kind;
    let cfg = RunConfig {
        kind,
        seed: args.seed,
        stop: match args.seconds {
            Some(s) => Stop::Wall(Duration::from_secs_f64(s)),
            None => Stop::Ops((kind.full_ops() / args.scale).max(100)),
        },
        warmup_ops: (kind.warmup_ops() / args.warmup_scale).max(50),
        // Set-up time is the median of three set-ups; the traced run
        // reports no set-up time and sets up once.
        setups: args.setups.unwrap_or(if args.trace { 1 } else { 3 }),
        trace: args.trace,
        out_dir: args.out.clone(),
    };
    let mut report = match driver::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut refused = Vec::new();
    if args.trace {
        match args.probes.as_ref().map(read_probes) {
            Some(Ok(mut probes)) => report.metrics.append(&mut probes),
            Some(Err(e)) => refused.push(e),
            None => refused.push("--trace 1 wants --probes FILE from the probe binary".into()),
        }
        for name in PROBE_METRICS {
            if !report.metrics.iter().any(|m| m.name == name) {
                refused.push(format!("missing metric {name}"));
            }
        }
    }
    let self_share = report
        .get("core.driver_self_share")
        .or(report.get("driver_self_share"))
        .unwrap_or(0.0);
    if self_share >= MAX_SELF_SHARE {
        refused.push(format!(
            "the driver's own share of the window is {self_share:.4}, limit {MAX_SELF_SHARE}"
        ));
    }
    if !report.correct() {
        refused.push(format!(
            "{} results disagreed with the model",
            report.oracle_mismatches
        ));
    }

    let name = kind.name();
    for m in &report.metrics {
        println!("{name}/{} {} {}", m.name, m.value, m.unit);
    }
    for m in &report.diagnostics {
        println!("# {name}/{} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "# {name}/oracle_mismatches {} count",
        report.oracle_mismatches
    );
    println!("# {name}/op_errors {} count", report.errors);
    println!("# {name}/op_stream_digest {:016x}", report.stream_digest);
    println!("# {name}/noisy {}", u8::from(report.noisy));
    for note in &report.notes {
        println!("# {note}");
    }
    for why in &refused {
        eprintln!("lbench: refused: {why}");
    }
    println!("{}", json_line(&report));
    if refused.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

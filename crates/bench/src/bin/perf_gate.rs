//! Perf-gate: diffs a freshly generated bench trajectory file against the
//! committed baseline and fails the build on regressions.
//!
//! ```text
//! perf_gate check BENCH_meld.json bench-new.json [--tolerance 0.05]
//! ```
//!
//! The candidate file is produced by running the perf benches in smoke
//! mode with `DARM_BENCH_JSON` pointing at it:
//!
//! ```text
//! DARM_BENCH_JSON=bench-new.json cargo bench -p darm-bench --bench serve_replay -- --test
//! DARM_BENCH_JSON=bench-new.json cargo run --release -p darm-bench --bin fig9
//! ```
//!
//! Every metric is a "higher is better" speedup ratio; a candidate more
//! than the tolerance below its committed baseline fails (exit code 1), as
//! does a metric that vanished from the candidate. New metrics pass and
//! start their trajectory — commit the regenerated file to record them.

use darm_bench::perfjson::{self, Verdict};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: perf_gate check <baseline.json> <candidate.json> [--tolerance FRAC]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    if it.next().map(String::as_str) != Some("check") {
        return usage();
    }
    let (Some(baseline_path), Some(candidate_path)) = (it.next(), it.next()) else {
        return usage();
    };
    let mut tolerance = 0.05;
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--tolerance", Some(v)) => match v.parse() {
                Ok(t) => tolerance = t,
                Err(e) => {
                    eprintln!("bad --tolerance `{v}`: {e}");
                    return ExitCode::from(2);
                }
            },
            _ => return usage(),
        }
    }
    let read = |p: &String| {
        perfjson::read(Path::new(p)).unwrap_or_else(|e| {
            eprintln!("{p}: {e}");
            std::process::exit(2);
        })
    };
    let mut baseline = read(baseline_path);
    let candidate = read(candidate_path);
    // `measured/…` keys come from full (non-smoke) bench runs and are
    // informational: CI's smoke-mode candidate never produces them, so
    // gating on them would fail every run after a local measured-mode
    // regeneration of the baseline.
    baseline.retain(|(k, _)| !k.starts_with("measured/"));
    let verdicts = perfjson::compare(&baseline, &candidate, tolerance);
    let mut failed = false;
    println!("| metric | baseline | candidate | verdict |");
    println!("|---|---|---|---|");
    for (metric, verdict) in &verdicts {
        let base = baseline.iter().find(|(k, _)| k == metric).map(|(_, v)| *v);
        let cand = candidate.iter().find(|(k, _)| k == metric).map(|(_, v)| *v);
        let fmt = |v: Option<f64>| v.map_or("—".to_string(), |v| format!("{v:.3}"));
        let label = match verdict {
            Verdict::Ok { ratio } => format!("ok ({:+.1}%)", (ratio - 1.0) * 100.0),
            Verdict::Regressed { ratio } => {
                failed = true;
                format!("REGRESSED ({:+.1}%)", (ratio - 1.0) * 100.0)
            }
            Verdict::Missing => {
                failed = true;
                "MISSING".to_string()
            }
            Verdict::New => "new".to_string(),
        };
        println!("| {metric} | {} | {} | {label} |", fmt(base), fmt(cand));
    }
    if failed {
        eprintln!(
            "perf gate FAILED: candidate fell more than {:.0}% below the committed baseline \
             (or dropped a metric). If the regression is intended, regenerate and commit \
             {baseline_path}.",
            tolerance * 100.0
        );
        return ExitCode::FAILURE;
    }
    println!(
        "perf gate passed ({} metric(s), tolerance {:.0}%)",
        verdicts.len(),
        tolerance * 100.0
    );
    ExitCode::SUCCESS
}

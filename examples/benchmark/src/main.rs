//! The repo's benchmark: four corpora of textual IR, each put through
//! compile → simulate → serve round after round. See README.md beside the
//! manifest for the workloads, the metrics and what each should move.
//!
//! `--trace 0` reports the end-to-end metrics of untraced rounds;
//! `--trace 1` wraps every call into a layer in a span, adds the isolated
//! per-layer probes, and reports the per-layer metrics. The last line of
//! standard output is the result as one JSON object.

mod affinity;
mod bench;
mod corpus;
mod probes;
mod stats;
mod trace;

use bench::{Bench, RoundSample, Tally};
use darm::serve::json::Json;
use darm::simt::KernelStats;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::Tracer;

const USAGE: &str = "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                 [--trace-out FILE] [--check-determinism]
       benchmark --all | --smoke | --repeat N   [--seed N] [--seconds S]
       benchmark --dump-corpus DIR [--seed N]
workloads: paper57, meld-big, decline-big, many-small";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    check_determinism: bool,
    /// `--all` is one repetition, `--repeat N` is N.
    fan_out: Option<usize>,
    dump_corpus: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        check_determinism: false,
        fan_out: None,
        dump_corpus: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: `{v}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = number(value()?)? as u64,
            "--seconds" => o.seconds = number(value()?)?,
            "--trace" => o.trace = number(value()?)? != 0.0,
            "--trace-out" => o.trace_out = Some(value()?),
            "--dump-corpus" => o.dump_corpus = Some(value()?),
            "--check-determinism" => o.check_determinism = true,
            "--all" => o.fan_out = Some(1),
            "--smoke" => (o.fan_out, o.seconds) = (Some(1), 0.0),
            "--repeat" => o.fan_out = Some(number(value()?)? as usize),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(o)
}

/// The unit a metric is reported in follows from its name.
fn unit_of(name: &str) -> &'static str {
    const BY_SUFFIX: [(&str, &str); 20] = [
        ("_ns_per_inst", "ns/inst"),
        ("_ns_per_block", "ns/block"),
        ("_ns_per_cell", "ns/cell"),
        ("_ns_per_pair", "ns/pair"),
        ("_ns_per_byte", "ns/byte"),
        ("ns_per_iteration", "ns/iter"),
        ("_mwi_per_s", "Mwi/s"),
        ("_kinst_per_s", "kinst/s"),
        ("_rps", "1/s"),
        ("_frac", "ratio"),
        ("_ratio", "ratio"),
        ("_speedup", "ratio"),
        ("_per_in", "ratio"),
        ("_eff_base", "ratio"),
        ("_eff_darm", "ratio"),
        ("_pctl", "%"),
        ("_us", "us"),
        ("_ms", "ms"),
        ("_mb", "MiB"),
        ("_s", "s"),
    ];
    BY_SUFFIX
        .iter()
        .find(|(suffix, _)| name.ends_with(suffix))
        .map_or("count", |(_, unit)| unit)
}

/// Metrics in reporting order, each with the spread it was taken from
/// where there is one.
#[derive(Default)]
struct Report {
    rows: Vec<(String, f64, Option<stats::Summary>)>,
}

impl Report {
    fn exact(&mut self, name: &str, value: f64) {
        self.rows.push((name.to_string(), value, None));
    }

    /// A measured value, with the samples whose spread is printed beside it.
    fn timing(&mut self, name: &str, value: f64, samples: &[f64]) {
        self.rows
            .push((name.to_string(), value, Some(stats::summary(samples))));
    }

    fn print(&self, workload: &str, tally: &Tally) {
        println!(
            "{:<38} {:>16} {:<9} q1 / median / q3 (n)",
            "metric", workload, "unit"
        );
        for (name, value, spread) in &self.rows {
            let spread = spread
                .as_ref()
                .map(|s| format!("{:.5} / {:.5} / {:.5} ({})", s.q1, s.median, s.q3, s.n))
                .unwrap_or_default();
            println!("{name:<38} {value:>16.5} {:<9} {spread}", unit_of(name));
        }
        println!(
            "ops_attempted {}  ops_failed {}",
            tally.attempted, tally.failed
        );
        if let Some(why) = &tally.first_failure {
            println!("first failure: {why}");
        }
        let metrics: Vec<(&str, f64, &str)> = self
            .rows
            .iter()
            .map(|(n, v, _)| (n.as_str(), *v, unit_of(n)))
            .collect();
        println!(
            "{}",
            stats::result_line(tally.attempted, tally.failed, &metrics)
        );
    }
}

/// Runs rounds until `budget` is spent, at least `min_rounds`. In a traced
/// run odd rounds are traced and even ones are not, so the two kinds see
/// the same machine.
fn measure(
    bench: &Bench,
    budget: Duration,
    min_rounds: usize,
    traced: bool,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Vec<(bool, RoundSample)> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || start.elapsed() < budget {
        let on = traced && rounds.len() % 2 == 1;
        tr.start_round(on, rounds.len() as u32);
        rounds.push((on, bench.round(tr, tally)));
    }
    tr.start_round(false, 0);
    rounds
}

fn untraced_run(o: &Options, workload: &str) -> Result<(Report, Tally), String> {
    let setups = if o.seconds == 0.0 { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut digests = Vec::new();
    let mut bench = None;
    for _ in 0..setups.max(2 * usize::from(o.check_determinism)) {
        drop(bench.take());
        let t = Instant::now();
        let b = Bench::setup(workload, o.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        digests.push(b.digest());
        bench = Some(b);
    }
    let bench = bench.expect("at least one set-up");
    let mut tally = Tally::default();
    if digests.iter().any(|d| *d != digests[0]) {
        tally.fault(format!(
            "set-ups with one seed disagree: digests {digests:x?}"
        ));
    }
    if o.check_determinism {
        println!(
            "determinism: output digests of {} set-ups {digests:x?}",
            digests.len()
        );
    }
    let rounds = measure(
        &bench,
        Duration::from_secs_f64(o.seconds),
        1,
        false,
        &mut Tracer::new(),
        &mut tally,
    );
    // Each metric is computed from item times (see `stats::item_times`);
    // the same figure per round is summarised beside it.
    let mwi = bench.warp_insts() as f64 / 1e6;
    let kinst = bench.insts_in as f64 / 1e3;
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let mut report = Report::default();
    report.timing("setup_s", stats::median(&setup_s), &setup_s);
    let mut metric =
        |name: &str, series: fn(&RoundSample) -> &Vec<f64>, f: &dyn Fn(&[f64]) -> f64| {
            let per_round: Vec<f64> = rounds.iter().map(|(_, r)| f(series(r))).collect();
            let all: Vec<&Vec<f64>> = rounds.iter().map(|(_, r)| series(r)).collect();
            report.timing(name, f(&stats::item_times(&all)), &per_round);
        };
    metric("compile_kinst_per_s", |r| &r.compile_s, &|v| kinst / sum(v));
    metric("sim_mwi_per_s", |r| &r.sim_s, &|v| mwi / sum(v));
    metric("sim_timed_mwi_per_s", |r| &r.sim_timed_s, &|v| mwi / sum(v));
    metric("serve_cold_p50_ms", |r| &r.cold_s, &|v| {
        1e3 * stats::median(v)
    });
    metric("serve_warm_p50_us", |r| &r.warm_s, &|v| {
        1e6 * stats::median(v)
    });
    // Closed loop, one request outstanding: the pass's wall time is the
    // sum of its request latencies.
    metric("serve_churn_rps", |r| &r.churn_s, &|v| {
        v.len() as f64 / sum(v)
    });
    report.exact(
        "darm_cycle_speedup",
        bench.speedup(0..bench.corpus.cases.len(), |s| s.sim_cycles),
    );
    report.exact("peak_rss_mb", stats::peak_rss_mib());
    Ok((report, tally))
}

fn traced_run(o: &Options, workload: &str) -> Result<(Report, Tally), String> {
    let bench = Bench::setup(workload, o.seed)?;
    let mut tally = Tally::default();
    let mut tr = Tracer::new();
    // Half the time for rounds (one untraced, one traced at least), half
    // for probe passes (one at least).
    let half = Duration::from_secs_f64(o.seconds / 2.0);
    let rounds = measure(&bench, half, 2, true, &mut tr, &mut tally);
    let mut samples = probes::Samples::default();
    let start = Instant::now();
    while samples.counts.is_empty() || start.elapsed() < half {
        probes::pass(&bench, &mut tally, &mut samples);
    }
    for stats in rounds.iter().filter_map(|(_, r)| r.engine_stats.as_ref()) {
        engine_counts(stats, bench.corpus.fns_per_request as f64, &mut samples);
    }

    // Every round's latencies of one pass, in `scale` units per second.
    let pooled = |scale: f64, series: fn(&RoundSample) -> &Vec<f64>| -> Vec<f64> {
        rounds
            .iter()
            .flat_map(|(_, r)| series(r).iter().map(|s| scale * s))
            .collect()
    };
    let cold = pooled(1e3, |r| &r.cold_s);
    let warm = pooled(1e6, |r| &r.warm_s);
    let churn = pooled(1e3, |r| &r.churn_s);
    let mut report = Report::default();
    for (name, values) in &samples.timings {
        report.timing(name, stats::median(values), values);
    }
    for (name, values) in &samples.counts {
        if values.iter().any(|v| *v != values[0]) {
            tally.fault(format!("count {name} did not repeat: {values:?}"));
        }
        report.exact(name, values[0]);
    }
    for (name, value) in simulated(&bench) {
        report.exact(name, value);
    }
    for (value_name, pctl_name, latencies) in [
        ("serve.cold_tail_ms", "serve.cold_tail_pctl", &cold),
        ("serve.warm_tail_us", "serve.warm_tail_pctl", &warm),
        ("serve.churn_tail_ms", "serve.churn_tail_pctl", &churn),
    ] {
        let (pctl, value) = stats::tail(latencies);
        report.exact(value_name, value);
        report.exact(pctl_name, pctl);
    }
    report.timing("serve.churn_p50_ms", stats::median(&churn), &churn);
    let submit_warm = stats::median(&samples.timings["serve.submit_warm_us"]);
    report.exact("serve.transport_us", stats::median(&warm) - submit_warm);
    report.exact("kernels.build_s", bench.setup_parts[0]);
    report.exact("harness.oracle_s", bench.setup_parts[1]);
    report.exact("harness.warmup_s", bench.setup_parts[2]);

    // Trace: how much of a traced round the layer spans account for, and
    // what tracing costs.
    let wall = |on: bool| -> Vec<f64> {
        rounds
            .iter()
            .filter(|(t, _)| *t == on)
            .map(|(_, r)| r.wall_s)
            .collect()
    };
    let totals = tr.totals();
    let round_ns = totals.get("round").map_or(1, |t| t.total_ns.max(1)) as f64;
    let layer = |name: &str| name.split('.').next().unwrap_or(name).to_string();
    let covered: u64 = totals
        .iter()
        .filter(|(n, _)| !matches!(layer(n).as_str(), "round" | "phase" | "harness"))
        .map(|(_, t)| t.self_ns)
        .sum();
    report.exact("trace.coverage_frac", covered as f64 / round_ns);
    report.exact(
        "trace.overhead_frac",
        stats::median(&wall(true)) / stats::median(&wall(false)) - 1.0,
    );

    println!("span                      count      self ms   share of traced rounds");
    let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
    for (name, t) in &totals {
        let share = t.self_ns as f64 / round_ns;
        println!(
            "{name:<24} {:>6} {:>12.3} {share:>8.4}",
            t.count,
            t.self_ns as f64 / 1e6
        );
        *by_layer.entry(layer(name)).or_default() += share;
    }
    let shares: Vec<String> = by_layer
        .iter()
        .map(|(l, s)| format!("{l} {s:.3}"))
        .collect();
    println!("self-time share by layer: {}", shares.join(", "));
    if let Some(path) = &o.trace_out {
        tr.write_jsonl(path).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok((report, tally))
}

/// Counters of one round's engine, from `Engine::stats_json`. A whole-request
/// (fast) hit answers all `fns_per_request` functions of its request.
fn engine_counts(stats: &Json, fns_per_request: f64, out: &mut probes::Samples) {
    let at = |path: &[&str]| {
        path.iter()
            .try_fold(stats, |json, key| json.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX) as f64
    };
    let (hits, misses) = (at(&["cache", "hits"]), at(&["cache", "misses"]));
    let fast = at(&["cache", "fast_hits"]);
    out.count("serve.fast_hits", fast);
    out.count("serve.fn_hits", hits);
    out.count("serve.fn_misses", misses);
    // Functions answered from either cache, over functions requested.
    let hit_fns = fast * fns_per_request + hits;
    out.count("serve.hit_ratio", hit_fns / (hit_fns + misses));
    out.count("serve.evictions", at(&["cache", "evictions"]));
    out.count("serve.overloaded", at(&["overloaded"]));
    out.count("serve.queue_high_water", at(&["queue", "high_water"]));
    out.count("serve.cache_bytes", at(&["cache", "bytes"]));
}

/// Simulated (exact) figures, from the timing-on launches of set-up.
fn simulated(bench: &Bench) -> Vec<(&'static str, f64)> {
    let sum = |variant: usize, key: fn(&KernelStats) -> u64| -> f64 {
        bench
            .golden_stats
            .iter()
            .map(|s| key(&s[2 + variant]))
            .sum::<u64>() as f64
    };
    let eff = |variant: usize| {
        sum(variant, |s| s.thread_instructions)
            / sum(variant, |s| s.warp_instructions * s.warp_size as u64)
    };
    let n = bench.corpus.cases.len();
    let (fig8, fig9) = bench.corpus.fig8.map_or((0..0, 0..0), |k| (0..k, k..n));
    vec![
        ("simt.warp_insts_base", sum(0, |s| s.warp_instructions)),
        ("simt.warp_insts_darm", sum(1, |s| s.warp_instructions)),
        ("simt.sim_cycles_base", sum(0, |s| s.sim_cycles)),
        ("simt.sim_cycles_darm", sum(1, |s| s.sim_cycles)),
        ("simt.stall_cycles_base", sum(0, |s| s.sim_stall_cycles)),
        ("simt.stall_cycles_darm", sum(1, |s| s.sim_stall_cycles)),
        ("simt.issue_slots_base", sum(0, |s| s.sim_issue_slots)),
        ("simt.issue_slots_darm", sum(1, |s| s.sim_issue_slots)),
        (
            "simt.divergent_branches_base",
            sum(0, |s| s.sim_divergent_branches),
        ),
        (
            "simt.divergent_branches_darm",
            sum(1, |s| s.sim_divergent_branches),
        ),
        ("simt.simd_eff_base", eff(0)),
        ("simt.simd_eff_darm", eff(1)),
        ("simt.warp_cycle_speedup", bench.speedup(0..n, |s| s.cycles)),
        // The three geomeans `BENCH_meld.json` commits; 1 (the empty
        // geomean) on the generated workloads.
        (
            "simt.fig8_warp_cycle_speedup",
            bench.speedup(fig8, |s| s.cycles),
        ),
        (
            "simt.fig9_warp_cycle_speedup",
            bench.speedup(fig9.clone(), |s| s.cycles),
        ),
        (
            "simt.fig9_sim_cycle_speedup",
            bench.speedup(fig9, |s| s.sim_cycles),
        ),
    ]
}

fn run_workload(o: &Options, workload: &str) -> ExitCode {
    affinity::pin_to_one_cpu();
    let result = if o.trace {
        traced_run(o, workload)
    } else {
        untraced_run(o, workload)
    };
    match result {
        Ok((report, tally)) => {
            report.print(workload, &tally);
            if tally.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(why) => {
            eprintln!("benchmark: set-up failed: {why}");
            ExitCode::FAILURE
        }
    }
}

/// `"name":{"value":V,...` pairs of a result line this program printed.
fn metrics_of(result_line: &str) -> Vec<(String, f64)> {
    result_line
        .split("\":{\"value\":")
        .collect::<Vec<_>>()
        .windows(2)
        .filter_map(|w| {
            let name = w[0].rsplit('"').next()?;
            let value = w[1].split(',').next()?.parse().ok()?;
            Some((name.to_string(), value))
        })
        .collect()
}

/// `--all`, `--smoke`, `--repeat N`: every workload in a process of its
/// own (so peak memory is per workload), untraced then traced. With more
/// than one repetition only the untraced run is made, each repetition on
/// the next seed, and the spread of every end-to-end metric is printed.
fn fan_out(o: &Options, repeats: usize) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut values: BTreeMap<(String, &str), Vec<f64>> = BTreeMap::new();
    let mut failed = false;
    for rep in 0..repeats {
        for workload in corpus::WORKLOADS {
            for trace in 0..=u8::from(repeats == 1) {
                let out = Command::new(&exe)
                    .args(["--workload", workload])
                    .args(["--seed", &(o.seed + rep as u64).to_string()])
                    .args(["--seconds", &o.seconds.to_string()])
                    .args(["--trace", &trace.to_string()])
                    .stderr(Stdio::inherit())
                    .output()
                    .expect("run a workload");
                let text = String::from_utf8_lossy(&out.stdout);
                failed |= !out.status.success();
                if repeats == 1 || !out.status.success() {
                    print!("{text}");
                }
                for (name, value) in metrics_of(text.lines().last().unwrap_or_default()) {
                    values.entry((name, workload)).or_default().push(value);
                }
            }
        }
    }
    if repeats > 1 {
        println!("metric x workload over {repeats} runs: min / median / max, IQR/median");
        for ((name, workload), v) in &values {
            let s = stats::summary(v);
            let (min, max) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
            println!(
                "{name:<22} {workload:<12} {min:>12.4} / {:>12.4} / {max:>12.4}  {:.4}",
                s.median,
                (s.q3 - s.q1) / s.median
            );
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn dump_corpus(dir: &str, seed: u64) -> std::io::Result<()> {
    for workload in corpus::WORKLOADS {
        let corpus = corpus::build(workload, seed).expect("a known workload");
        let dir = std::path::Path::new(dir).join(workload);
        std::fs::create_dir_all(&dir)?;
        for case in &corpus.cases {
            std::fs::write(
                dir.join(format!("{}.ir", case.func.name())),
                case.func.to_string(),
            )?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let o = match parse_args() {
        Ok(o) => o,
        Err(why) => {
            eprintln!("benchmark: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &o.dump_corpus {
        return match dump_corpus(dir, o.seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("benchmark: {dir}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match (&o.workload, o.fan_out) {
        (Some(workload), _) => run_workload(&o, workload),
        (None, Some(repeats)) => fan_out(&o, repeats),
        (None, None) => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

//! Machine-readable perf trajectory: a flat `metric name → ratio` JSON
//! file (`BENCH_meld.json` at the repo root) that benches append to and CI
//! regenerates and diffs.
//!
//! The benches call [`record`] for every ratio they measure; with the
//! `DARM_BENCH_JSON` environment variable set to a path the value is
//! upserted there (read-modify-write, so the figure binaries accumulate
//! into one file), and without it recording
//! is a no-op — plain bench runs stay file-free. The `perf-gate` binary
//! then [`compare`]s a freshly generated file against the committed baseline
//! and fails on regressions beyond the tolerance.
//!
//! The format is a single flat JSON object with float values, written
//! sorted by key:
//!
//! ```json
//! {
//!   "fig8/darm_geomean": 1.3868,
//!   "fig9/darm_geomean": 1.089
//! }
//! ```
//!
//! What keeps the gate honest instead of flaky:
//!
//! * **Gated metrics are deterministic.** The fig. 8/fig. 9 geomeans come
//!   from simulated cycle counts, so the committed baselines are exact
//!   readings and the ±5% tolerance only ever trips on a changed melding
//!   decision or timing model. Wall-clock speed is not gated here: it is
//!   the absolute ledger (`BENCHMARK.json`), shown in pairs with
//!   `scripts/bench_pair.sh`.
//! * **Keys under `measured/` are informational.** The machine-dependent
//!   parallel-vs-serial wall ratio of `module_batch` records under that
//!   prefix (a single-core container measures thread overhead where CI
//!   measures real speedup); the `perf-gate` binary excludes such keys
//!   from gating, so regenerating the committed file after a measured run
//!   cannot poison CI (whose candidate would otherwise be missing those
//!   keys and fail).
//!
//! Hand-rolled (de)serialization — the build is offline and this grammar
//! is three tokens deep; anything the parser does not recognize is a hard
//! error rather than a silently dropped metric.

use std::path::Path;

/// Records `metric = value` into the file named by `DARM_BENCH_JSON`
/// (upserting into existing content), or does nothing when the variable is
/// unset. IO or parse failures panic: a perf-gate run that cannot record
/// its measurement must not pass silently.
pub fn record(metric: &str, value: f64) {
    let Some(path) = std::env::var_os("DARM_BENCH_JSON") else {
        return;
    };
    let path = Path::new(&path);
    let mut entries = if path.exists() {
        read(path).unwrap_or_else(|e| panic!("{}: unreadable bench json: {e}", path.display()))
    } else {
        Vec::new()
    };
    match entries.iter_mut().find(|(k, _)| k == metric) {
        Some((_, v)) => *v = value,
        None => entries.push((metric.to_string(), value)),
    }
    write(path, &entries).unwrap_or_else(|e| panic!("{}: write failed: {e}", path.display()));
    println!(
        "perfjson: recorded {metric} = {value:.4} -> {}",
        path.display()
    );
}

/// Parses a flat `{"name": float, ...}` file.
///
/// # Errors
///
/// IO failure or any token outside the supported grammar.
pub fn read(path: &Path) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    parse(&text)
}

/// [`read`] on a string, for tests.
///
/// # Errors
///
/// Any token outside the supported grammar.
pub fn parse(text: &str) -> Result<Vec<(String, f64)>, String> {
    let body = text.trim();
    let body = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or("expected a top-level JSON object")?;
    let mut entries = Vec::new();
    for pair in body.split(',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue; // trailing comma / empty object
        }
        let (key, value) = pair
            .split_once(':')
            .ok_or_else(|| format!("bad pair `{pair}`"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("unquoted key in `{pair}`"))?;
        if key.contains('"') || key.contains('\\') {
            return Err(format!("unsupported escape in key `{key}`"));
        }
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|e| format!("bad value in `{pair}`: {e}"))?;
        entries.push((key.to_string(), value));
    }
    Ok(entries)
}

/// Writes the entries as sorted, pretty-printed JSON.
///
/// # Errors
///
/// IO failure.
pub fn write(path: &Path, entries: &[(String, f64)]) -> Result<(), String> {
    let mut sorted: Vec<&(String, f64)> = entries.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::from("{\n");
    for (i, (k, v)) in sorted.iter().enumerate() {
        let sep = if i + 1 == sorted.len() { "" } else { "," };
        out.push_str(&format!("  \"{k}\": {v:.4}{sep}\n"));
    }
    out.push_str("}\n");
    std::fs::write(path, out).map_err(|e| e.to_string())
}

/// One metric's baseline-vs-candidate verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Candidate within tolerance of (or better than) the baseline.
    Ok {
        /// Candidate / baseline.
        ratio: f64,
    },
    /// Candidate fell more than the tolerance below the baseline.
    Regressed {
        /// Candidate / baseline.
        ratio: f64,
    },
    /// Metric present in the baseline but missing from the candidate —
    /// treated as a regression (a silently dropped measurement must not
    /// pass the gate).
    Missing,
    /// Metric new in the candidate (starts its trajectory).
    New,
}

/// Compares `candidate` against `baseline`: for every metric, the
/// candidate value must be at least `(1 - tolerance) ×` the baseline
/// (higher ratios are better throughout the suite). Returns per-metric
/// verdicts over the union of both key sets.
pub fn compare(
    baseline: &[(String, f64)],
    candidate: &[(String, f64)],
    tolerance: f64,
) -> Vec<(String, Verdict)> {
    let mut out = Vec::new();
    for (k, base) in baseline {
        match candidate.iter().find(|(ck, _)| ck == k) {
            None => out.push((k.clone(), Verdict::Missing)),
            Some((_, cand)) => {
                let ratio = cand / base;
                let verdict = if ratio + 1e-9 >= 1.0 - tolerance {
                    Verdict::Ok { ratio }
                } else {
                    Verdict::Regressed { ratio }
                };
                out.push((k.clone(), verdict));
            }
        }
    }
    for (k, _) in candidate {
        if !baseline.iter().any(|(bk, _)| bk == k) {
            out.push((k.clone(), Verdict::New));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_write() {
        let entries = vec![("b/two".to_string(), 0.98), ("a/one".to_string(), 1.2345)];
        let dir = std::env::temp_dir().join("darm_perfjson_test.json");
        write(&dir, &entries).unwrap();
        let back = read(&dir).unwrap();
        // Written sorted; values rounded to 4 places.
        assert_eq!(
            back,
            vec![("a/one".to_string(), 1.2345), ("b/two".to_string(), 0.98)]
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("[1, 2]").is_err());
        assert!(parse("{\"a\": x}").is_err());
        assert!(parse("{a: 1}").is_err());
        assert!(parse("{}").unwrap().is_empty());
    }

    #[test]
    fn compare_flags_regressions_and_missing_metrics() {
        let base = vec![("m".to_string(), 1.20), ("gone".to_string(), 1.0)];
        let cand = vec![("m".to_string(), 1.10), ("new".to_string(), 2.0)];
        let verdicts = compare(&base, &cand, 0.05);
        assert!(matches!(
            verdicts.iter().find(|(k, _)| k == "m").unwrap().1,
            Verdict::Regressed { .. }
        ));
        assert_eq!(
            verdicts.iter().find(|(k, _)| k == "gone").unwrap().1,
            Verdict::Missing
        );
        assert_eq!(
            verdicts.iter().find(|(k, _)| k == "new").unwrap().1,
            Verdict::New
        );
        // 1.15 vs 1.20 is within 5%.
        let ok = compare(&[("m".to_string(), 1.20)], &[("m".to_string(), 1.15)], 0.05);
        assert!(matches!(ok[0].1, Verdict::Ok { .. }));
    }
}

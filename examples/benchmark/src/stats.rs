//! Sample summaries, the process's peak memory, and the benchmark's own
//! flat JSON writer (it shares no codec with the program under test).

/// Quantile by linear interpolation over a sorted slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// What an item (one module's compile, one launch, one request slot) costs
/// on an undisturbed machine: per item, the lower decile of its times over
/// the rounds. The box's noise is one-sided — bursts that slow part of
/// most rounds by 20–40 % — so a round's own total swings with how much of
/// it was hit, while each item's fast decile repeats from run to run.
pub fn item_times(rounds: &[&Vec<f64>]) -> Vec<f64> {
    let items = rounds.iter().map(|r| r.len()).max().unwrap_or(0);
    (0..items)
        .map(|i| {
            let times: Vec<f64> = rounds.iter().filter_map(|r| r.get(i).copied()).collect();
            quantile(&sorted(&times), 0.1)
        })
        .collect()
}

/// Median with quartiles and sample count, printed beside every timing.
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

pub fn summary(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        n: s.len(),
        q1: quantile(&s, 0.25),
        median: quantile(&s, 0.5),
        q3: quantile(&s, 0.75),
    }
}

/// The tail of a latency sample: p99 with a thousand samples or more,
/// else the highest percentile that still has ten samples beyond it (the
/// median when there are too few even for that). Returns `(percentile,
/// value)`.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let n = s.len();
    if n >= 1000 {
        (99.0, s[(n * 99).div_ceil(100) - 1])
    } else if n > 20 {
        (100.0 * (n - 10) as f64 / n as f64, s[n - 11])
    } else {
        (50.0, quantile(&s, 0.5))
    }
}

pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0u32);
    for x in xs {
        log_sum += x.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON string literal for `s`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line the driver reads: one flat JSON object.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite");
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    )
}

//! Result plumbing: the metric list, correctness checks, small statistics
//! helpers and the one-line JSON result.

use std::fmt::Write as _;

/// Metrics in report order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds one metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.items.push((name.to_string(), value, unit));
    }

    /// The value of `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.items.iter().find(|(n, _, _)| n == name).map(|i| i.1)
    }

    /// Keeps only the named metrics, in the given order, reporting 0 for a
    /// layer the workload does not exercise.
    pub fn select(&self, names: &[(&str, &'static str)]) -> Metrics {
        let mut out = Metrics::default();
        for &(name, unit) in names {
            out.set(name, self.get(name).unwrap_or(0.0), unit);
        }
        out
    }
}

/// Correctness bookkeeping of one run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted over every pass.
    pub attempted: u64,
    /// Operations that failed or were found inconsistent.
    pub failed: u64,
    /// Broken checks, with the reason.
    pub broken: Vec<String>,
}

impl Checks {
    /// Records a broken check unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.broken.push(what());
        }
    }
}

/// The `q` quantile of `xs`, interpolated linearly between the two
/// nearest order statistics (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = q * (v.len() - 1) as f64;
    let lo = at.floor() as usize;
    let hi = at.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Seconds a fixed loop takes that chases pointers around a random cycle
/// of 4 MiB: a probe of how fast this host runs right now, reported beside
/// the timings and never used to scale them. The set is twice a core's L2,
/// so the loop runs from the shared L3 that other tenants of the host also
/// fill. On a 2-vCPU Xeon guest its time tracked the replay passes'
/// drift (correlation 0.63).
pub fn calib_s() -> f64 {
    const SLOTS: usize = 1 << 20;
    // Sattolo's shuffle: one cycle through every slot, the same every run.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..SLOTS).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    let start = std::time::Instant::now();
    let mut at = 0u32;
    for _ in 0..500_000 {
        at = next[at as usize];
    }
    std::hint::black_box(at);
    start.elapsed().as_secs_f64()
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`. A run
/// whose checks broke reports no numbers.
pub fn result_json(checks: &Checks, metrics: &Metrics) -> String {
    let correct = checks.broken.is_empty() && checks.failed == 0;
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.attempted.max(1),
        checks.failed
    );
    if correct {
        for (i, (name, value, unit)) in metrics.items.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `+ 0.0` folds -0.0 into 0.0.
            let value = if value.is_finite() { value + 0.0 } else { 0.0 };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("formatting into a String");
        }
    }
    out.push_str("}}");
    out
}

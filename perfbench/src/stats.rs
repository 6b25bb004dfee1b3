//! Order statistics and the per-run report every workload fills in.

use std::fmt::Write as _;

/// Median (mean of the two middle values for even counts); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0 < q ≤ 1); NaN when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile, capped at p99, that leaves at least ten of
/// `n` samples beyond it; the median when `n` is too small for that.
pub fn tail_quantile(n: usize) -> f64 {
    if n < 21 {
        0.5
    } else {
        (((n - 10) as f64 / n as f64) * 100.0).floor().min(99.0) / 100.0
    }
}

/// One metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// What one invocation measured for one workload (or, traced, for all).
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    /// Operations attempted: runs, figures, HTTP jobs, probes.
    pub attempted: u64,
    /// Operations that failed: wrong output, panic, refusal, or over
    /// the latency limit.
    pub failed: u64,
    /// The subset of `failed` whose output was wrong.
    pub mismatches: u64,
    /// The metrics of the final result line.
    pub metrics: Vec<Metric>,
    /// Extra figures printed on the summary line only.
    pub info: Vec<Metric>,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            attempted: 0,
            failed: 0,
            mismatches: 0,
            metrics: Vec::new(),
            info: Vec::new(),
        }
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        self.info.push((name.to_string(), value, unit));
    }

    /// A wrong output: counted and reported, never dropped.
    pub fn mismatch(&mut self, what: String) {
        eprintln!("perfbench: {}: MISMATCH: {what}", self.workload);
        self.failed += 1;
        self.mismatches += 1;
    }

    /// An operation that failed without a wrong output.
    pub fn fail(&mut self, what: String) {
        eprintln!("perfbench: {}: FAILED: {what}", self.workload);
        self.failed += 1;
    }

    /// Job latencies (seconds) → `goodput_jobs_per_s` over `window_s`,
    /// and `latency_p50_ms` with the tail on the summary line taken
    /// over `p50_of`: all of `lat_s`, or the one class of jobs whose
    /// latency is meant. Jobs over `limit_s` count as failed.
    pub fn latencies(&mut self, lat_s: &[f64], p50_of: &[f64], limit_s: f64, window_s: f64) {
        for l in lat_s.iter().filter(|&&l| l > limit_s) {
            self.fail(format!(
                "job took {:.1} ms, over the {:.1} ms limit",
                l * 1e3,
                limit_s * 1e3
            ));
        }
        let good = lat_s.iter().filter(|&&l| l <= limit_s).count();
        let q = tail_quantile(p50_of.len());
        let tail = if q > 0.5 {
            percentile(p50_of, q)
        } else {
            median(p50_of)
        };
        self.put("latency_p50_ms", median(p50_of) * 1e3, "ms");
        self.put("goodput_jobs_per_s", good as f64 / window_s, "jobs/s");
        self.info("latency_tail_ms", tail * 1e3, "ms");
        self.info("latency_tail_quantile", q, "ratio");
        self.info(
            "latency_max_ms",
            lat_s.iter().copied().fold(0.0, f64::max) * 1e3,
            "ms",
        );
        self.info("jobs", lat_s.len() as f64, "count");
    }

    /// The traced run's accounting for one workload: the layer self
    /// times plus `unattributed_s` equal `threads` × traced wall (wall
    /// time for the single-threaded workloads, pool thread-seconds for
    /// the suite).
    pub fn account(&mut self, w: &str, traced: f64, untraced: f64, threads: usize, selfs: &[f64]) {
        let attributed: f64 = selfs.iter().sum();
        self.put(&format!("{w}.traced_wall_s"), traced, "s");
        self.put(
            &format!("{w}.unattributed_s"),
            traced * threads as f64 - attributed,
            "s",
        );
        self.put(&format!("{w}.trace_overhead_s"), traced - untraced, "s");
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of `v`.
pub fn metrics_json(ms: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in ms.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let v = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".to_string()
        };
        let _ = write!(s, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 198.0);
        assert_eq!(percentile(&xs[..20], 0.99), 20.0);
        assert!(median(&[]).is_nan());
        assert_eq!(tail_quantile(1125), 0.99);
        assert_eq!(tail_quantile(27), 0.62);
        assert_eq!(tail_quantile(5), 0.5);
        // Ten samples lie beyond the tail percentile.
        for n in [21usize, 27, 100, 1000, 1125] {
            let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let t = percentile(&xs, tail_quantile(n));
            assert!(xs.iter().filter(|&&x| x > t).count() >= 10, "n = {n}");
        }
    }

    #[test]
    fn accounting_adds_up() {
        let mut r = Report::new("w");
        r.account("w", 10.0, 9.5, 2, &[12.0, 5.0]);
        let get = |n: &str| r.metrics.iter().find(|m| m.0 == n).unwrap().1;
        assert_eq!(get("w.unattributed_s"), 3.0);
        assert_eq!(get("w.trace_overhead_s"), 0.5);
    }
}

//! Metric names, summaries of raw samples, and the result line.

use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics: every workload reports each of them (with
/// `--trace 0`), defined per workload in `README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("write_p50_us", "us"),
    ("ckpt_cycle_s", "s"),
    ("ckpt_tps_ratio", "ratio"),
    ("recovery_s", "s"),
    ("peak_rss_mb", "MB"),
    ("disk_bytes_per_user_byte", "ratio"),
];

/// Per-layer metrics: every workload reports each of them with
/// `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_frac", "ratio"),
    ("op_p99_us", "us"),
    ("write_p99_us", "us"),
    ("engine.checkpoint_now_s.first", "s"),
    ("engine.checkpoint_now_s.last", "s"),
    ("engine.get8_us.p50", "us"),
    ("engine.execute_durable_us.p50", "us"),
    ("engine.committed", "count"),
    ("engine.aborted", "count"),
    ("server.mget_overhead_us", "us"),
    ("server.mput_overhead_us", "us"),
    ("server.busy_replies", "count"),
    ("server.shed_requests", "count"),
    ("server.torn_mgets", "count"),
    ("txn.locks.acquire_release_ns", "ns"),
    ("core.calc.write_hook_rest_ns", "ns"),
    ("core.calc.write_hook_capture_ns", "ns"),
    ("core.capture_s", "s"),
    ("core.quiesce_ms", "ms"),
    ("core.ckpt_bytes", "bytes"),
    ("core.ckpt_parts", "count"),
    ("core.scan_s", "s"),
    ("core.claims_s", "s"),
    ("storage.extra_bytes.peak", "bytes"),
    ("storage.live_bytes", "bytes"),
    ("recovery.gc.batches", "count"),
    ("recovery.gc.avg_batch", "count"),
    ("recovery.gc.fsync_p99_us", "us"),
    ("recovery.read_dir_logs_s", "s"),
    ("recovery.open_s", "s"),
    ("recovery.recover_s", "s"),
    ("recovery.part_load_s", "s"),
    ("recovery.merge_s", "s"),
    ("recovery.replay_s", "s"),
    ("recovery.parts_loaded", "count"),
    ("recovery.replayed", "count"),
    ("self_s.engine", "s"),
    ("self_s.server", "s"),
    ("self_s.txn", "s"),
    ("self_s.core", "s"),
    ("self_s.storage", "s"),
    ("self_s.recovery", "s"),
    ("trace.spans", "count"),
    ("trace.span_ns", "ns"),
    ("trace.overhead_us", "us"),
];

/// What a workload run produced: the outcome counts and every metric it
/// measured, by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// No check found an answer that breaks the engine's stated
    /// guarantees (see `README.md`, "Checks").
    pub correct: bool,
    pub attempted: u64,
    /// Aborts, error or busy replies, and wrong answers.
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: `metrics` holds exactly the names of `wanted`.
    /// Fails if one is missing or not a finite number.
    pub fn result_line(&self, wanted: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(wanted.len());
        for (name, unit) in wanted {
            let v = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is {v}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Nearest-rank quantile of `samples` (sorted in place); 0 when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&mut samples.to_vec(), 0.5)
}

/// Mean of `samples`; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The process's peak resident set in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// One timed operation of a measured window.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    /// Completion time, ns from the start of the window.
    pub end_ns: u64,
    pub us: f64,
    /// Whether a span was recorded around it.
    pub traced: bool,
}

/// Latencies (µs) of the operations with `traced` as given.
pub fn latencies(ops: &[Op], traced: bool) -> Vec<f64> {
    ops.iter()
        .filter(|o| o.traced == traced)
        .map(|o| o.us)
        .collect()
}

/// Operation rate while a checkpoint cycle runs, over the rate while
/// none runs, within `[lo, hi)`. `ends` are operation completion times
/// and `cycles` the `(start, end)` of each cycle, in ns. `None` when the
/// span has no time inside or outside a cycle.
pub fn cycle_rate_ratio(ends: &[u64], cycles: &[(u64, u64)], lo: u64, hi: u64) -> Option<f64> {
    let in_cycle = |t: u64| cycles.iter().any(|&(s, e)| t >= s && t < e);
    let busy_ns: u64 = cycles
        .iter()
        .map(|&(s, e)| e.min(hi).saturating_sub(s.max(lo)))
        .sum();
    let idle_ns = (hi - lo).saturating_sub(busy_ns);
    let in_span = || ends.iter().filter(|&&t| t >= lo && t < hi);
    let during = in_span().filter(|&&t| in_cycle(t)).count();
    let outside = in_span().filter(|&&t| !in_cycle(t)).count();
    if busy_ns == 0 || idle_ns == 0 || outside == 0 {
        return None;
    }
    Some((during as f64 / busy_ns as f64) / (outside as f64 / idle_ns as f64))
}

/// Medians over `n` equal slices of a window: operation rate (1/s),
/// median latency of untraced operations (µs), and the cycle rate ratio
/// (over the slices that have one). Medians over slices keep a burst of
/// interference in one slice from moving the result.
pub struct Sliced {
    pub rate: f64,
    pub p50_us: f64,
    pub ratio: f64,
}

pub fn sliced(ops: &[Op], cycles: &[(u64, u64)], window_ns: u64, n: u64) -> Sliced {
    let width = window_ns / n;
    let ends: Vec<u64> = ops.iter().map(|o| o.end_ns).collect();
    let (mut rates, mut p50s, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..n {
        let (lo, hi) = (i * width, (i + 1) * width);
        let inside: Vec<Op> = ops
            .iter()
            .filter(|o| o.end_ns >= lo && o.end_ns < hi)
            .copied()
            .collect();
        rates.push(inside.len() as f64 / (width as f64 / 1e9));
        p50s.push(median(&latencies(&inside, false)));
        ratios.extend(cycle_rate_ratio(&ends, cycles, lo, hi));
    }
    Sliced {
        rate: median(&rates),
        p50_us: median(&p50s),
        ratio: median(&ratios),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn ratio_compares_rates_inside_and_outside_cycles() {
        // 10 ops in the first half (a cycle), 20 in the second (idle).
        let mut ends: Vec<u64> = (0..10).map(|i| i * 10).collect();
        ends.extend((0..20).map(|i| 100 + i * 5));
        let r = cycle_rate_ratio(&ends, &[(0, 100)], 0, 200).expect("both sides");
        assert!((r - 0.5).abs() < 1e-9);
        assert!(cycle_rate_ratio(&ends, &[(0, 100)], 100, 200).is_none());
    }

    #[test]
    fn slices_take_medians() {
        // Three 100 ns slices: 10, 10 and 40 ops; the median rate is 10
        // per 100 ns whatever the third slice did.
        let op = |end_ns| Op {
            end_ns,
            us: 1.0,
            traced: false,
        };
        let mut ops: Vec<Op> = (0..20).map(|i| op(i * 10)).collect();
        ops.extend((0..40).map(|i| op(200 + i * 2)));
        let s = sliced(&ops, &[], 300, 3);
        assert!((s.rate - 1e8).abs() < 1.0);
        assert_eq!(s.p50_us, 1.0);
    }

    #[test]
    fn result_line_refuses_missing_metrics() {
        let mut o = Outcome::default();
        o.set("setup_s", 1.5);
        assert!(o
            .result_line(&[("setup_s", "s"), ("ops_per_s", "1/s")])
            .is_err());
        let line = o.result_line(&[("setup_s", "s")]).expect("complete");
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }
}

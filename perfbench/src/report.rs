//! Metric names and units, the result line, and small measurement helpers
//! (medians, the host calibration probe, peak resident memory).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("evals_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("err_pct", "%"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("surface.s", "s"),
    ("surface.qpoints", "count"),
    ("system.s", "s"),
    ("system.bytes", "bytes"),
    ("lists.build_s", "s"),
    ("lists.entries", "count"),
    ("lists.bytes", "bytes"),
    ("born.exec_s", "s"),
    ("born.push_s", "s"),
    ("born.near", "count"),
    ("born.far", "count"),
    ("born.ns_per_near", "ns"),
    ("epol.bins_s", "s"),
    ("epol.exec_s", "s"),
    ("epol.near", "count"),
    ("epol.far", "count"),
    ("epol.ns_per_near", "ns"),
    ("delta.apply_s", "s"),
    ("delta.revert_s", "s"),
    ("delta.entries_redone", "count"),
    ("delta.redo_frac", "ratio"),
    ("delta.rebuilds", "count"),
    ("delta.bytes", "bytes"),
    ("procexec.s", "s"),
    ("procexec.inproc_s", "s"),
    ("procexec.transport_s", "s"),
    ("cluster.retries", "count"),
    ("host.calib_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.faults", "count"),
];

/// Evaluation and check accounting of one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Timed evaluations attempted.
    pub attempted: u64,
    /// Evaluations that returned `Err`, a non-finite energy, or failed a
    /// correctness check; plus failed run-level checks (set-up
    /// determinism, accuracy), one each.
    pub failed: u64,
    /// Traced-run decomposition mismatches (never counted as failed
    /// evaluations, but they make the run incorrect).
    pub trace_faults: u64,
}

impl Tally {
    /// Record a failed check with its reason on standard error.
    pub fn fail(&mut self, what: &str) {
        eprintln!("[perfbench] CHECK FAILED: {what}");
        self.failed += 1;
    }

    pub fn trace_fault(&mut self, what: &str) {
        eprintln!("[perfbench] TRACE FAULT: {what}");
        self.trace_faults += 1;
    }
}

/// Metric values by name, checked against the spec when emitted.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric of `spec` with its unit.
pub fn result_line(tally: &Tally, spec: &[(&str, &str)], metrics: &Metrics) -> String {
    let mut correct = tally.failed == 0 && tally.trace_faults == 0 && tally.attempted > 0;
    let mut parts = Vec::with_capacity(spec.len());
    for &(name, unit) in spec {
        let value = match metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            other => {
                eprintln!("[perfbench] metric {name} missing or not finite: {other:?}");
                correct = false;
                0.0
            }
        };
        parts.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    for name in metrics.keys() {
        assert!(
            spec.iter().any(|(n, _)| n == name),
            "metric {name} is not in the spec"
        );
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        parts.join(",")
    )
}

/// Quantile `q` in [0, 1] by linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Iterations of one host-probe sample (about 0.17 ms on the 2-vCPU Xeon
/// development host).
const PROBE_ITERS: u32 = 20_000;
/// Probe samples per probing point; the point's value is their median.
const PROBE_REPS: usize = 3;

/// One host-probe sample (ms): a fixed register-only loop of xorshift,
/// `exp`, `sqrt` and division. It uses the same kinds of operations as
/// the GB kernels but no code of the program under test.
fn probe_once_ms() -> f64 {
    let t = Instant::now();
    let mut s = black_box(0x2545_f491_4f6c_dd1du64);
    let mut acc = 0.0f64;
    for _ in 0..PROBE_ITERS {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let x = 1.0 + (s >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        acc += (-x).exp() / x.sqrt();
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// Program-independent host-speed probe, run between evaluations. On a
/// shared host the speed of the CPU a run gets drifts by tens of percent
/// over seconds to minutes, and the probe time moves with it; a change to
/// the program does not move it.
#[derive(Debug)]
pub struct HostProbe {
    /// CPUs the workload runs on: a probing point probes this many at
    /// once, one thread each, and takes the slowest.
    cpus: usize,
    samples: Vec<f64>,
    /// Per point: the largest share of a probe thread's wall time spent
    /// runnable but waiting for a CPU; `None` if unreadable.
    waits: Vec<Option<f64>>,
    last: Option<f64>,
}

impl HostProbe {
    pub fn new(cpus: usize) -> HostProbe {
        HostProbe {
            cpus: cpus.max(1),
            samples: Vec::new(),
            waits: Vec::new(),
            last: None,
        }
    }

    /// Probe now; the median of this point's samples (ms), on the slowest
    /// CPU. The share of the samples' time the thread spent waiting for a
    /// CPU is taken out: it measures competition, not host speed, so
    /// threads or processes the program leaves running cannot slow the
    /// probe and make the scaled times read too low.
    pub fn sample(&mut self) -> f64 {
        let run = || {
            let before = run_delay_ns();
            let t = Instant::now();
            let samples: Vec<f64> = (0..PROBE_REPS).map(|_| probe_once_ms()).collect();
            let wall_ns = t.elapsed().as_secs_f64() * 1e9;
            let wait = before
                .zip(run_delay_ns())
                .map(|(a, b)| (b.saturating_sub(a) as f64 / wall_ns).min(1.0));
            (median(&samples) * (1.0 - wait.unwrap_or(0.0)), wait)
        };
        let points: Vec<(f64, Option<f64>)> = std::thread::scope(|s| {
            let others: Vec<_> = (1..self.cpus).map(|_| s.spawn(run)).collect();
            let mut points = vec![run()];
            points.extend(
                others
                    .into_iter()
                    .map(|h| h.join().expect("probe thread panicked")),
            );
            points
        });
        let m = points.iter().map(|p| p.0).fold(0.0, f64::max);
        let wait = points
            .iter()
            .map(|p| p.1)
            .try_fold(0.0f64, |w, p| p.map(|p| w.max(p)));
        self.samples.push(m);
        self.waits.push(wait);
        self.last = Some(m);
        m
    }

    /// Probe this many CPUs from the next point on; returns the previous
    /// count.
    pub fn set_cpus(&mut self, cpus: usize) -> usize {
        std::mem::replace(&mut self.cpus, cpus.max(1))
    }

    /// The most recent probing point, probing now if there is none.
    pub fn last(&mut self) -> f64 {
        match self.last {
            Some(m) => m,
            None => self.sample(),
        }
    }

    /// Median probing-point time (ms) over the run: `host.calib_ms`.
    pub fn calib_ms(&self) -> f64 {
        median(&self.samples)
    }

    /// Mean share of probe time spent waiting for a CPU over the run, or
    /// `None` if the scheduler statistics could not be read at some point
    /// (then that point's wait was not taken out).
    pub fn wait_share(&self) -> Option<f64> {
        let waits: Option<Vec<f64>> = self.waits.iter().copied().collect();
        waits.map(|w| w.iter().sum::<f64>() / w.len().max(1) as f64)
    }
}

/// Time (ns) the calling thread has spent runnable but waiting for a CPU:
/// the second field of `/proc/thread-self/schedstat`.
fn run_delay_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut m = Metrics::new();
        for &(n, _) in END_TO_END {
            m.insert(n, 1.5);
        }
        let t = Tally {
            attempted: 3,
            ..Default::default()
        };
        let line = result_line(&t, END_TO_END, &m);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
        for &(n, u) in END_TO_END {
            assert!(line.contains(&format!("\"{n}\":{{\"value\":1.5,\"unit\":\"{u}\"}}")));
        }
        m.insert("err_pct", f64::NAN);
        assert!(result_line(&t, END_TO_END, &m).starts_with("{\"correct\":false"));
    }
}

//! The benchmark's books: outcome tallies, latency histograms, exact
//! sample quantiles, and the result line the benchmark prints last.
//!
//! Latencies go into the runtime's own fixed-size `LatencyHistogram`,
//! so the generator's memory does not grow with run length.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use sdrad_runtime::LatencyHistogram;

use crate::sys;
use crate::trace::Spans;

/// Outcomes of one measured phase, by the failure definition in the
/// README: a benign request that is refused, shed, wrong or timed out is
/// a failure, as is an exploit that is not contained; a contained
/// exploit, or one refused at admission, is the intended outcome.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Requests offered.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Failures that were wrong answers — the oracle's verdict. Any
    /// makes the run incorrect.
    pub mismatches: u64,
    /// Requests that came back with an answer.
    pub answered: u64,
    /// Benign requests refused at admission or shed by backpressure.
    pub benign_refused: u64,
    /// Requests whose answer never came.
    pub timeouts: u64,
    /// Exploits offered.
    pub exploits: u64,
    /// Exploits refused at admission.
    pub exploits_refused: u64,
    /// Requests of any kind refused at admission by the control plane;
    /// backpressure sheds are not counted here.
    pub admission_refused: u64,
}

impl Tally {
    /// Adds `other`'s counts into these.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.answered += other.answered;
        self.benign_refused += other.benign_refused;
        self.timeouts += other.timeouts;
        self.exploits += other.exploits;
        self.exploits_refused += other.exploits_refused;
        self.admission_refused += other.admission_refused;
    }

    /// Books one failure; `wrong` marks an oracle mismatch.
    pub fn fail(&mut self, wrong: bool, what: &str) {
        self.failed += 1;
        self.mismatches += u64::from(wrong);
        // A few examples are enough to debug a failure.
        if self.failed <= 3 {
            let kind = if wrong { "oracle mismatch" } else { "failure" };
            eprintln!("{kind}: {what}");
        }
    }
}

/// Measurement windows a timed phase is cut into. End-to-end metrics
/// are medians over windows: a run on a shared host loses some windows
/// to stolen CPU time, and a median ignores them where a whole-run
/// figure would not.
pub const WINDOWS: usize = 40;

/// What one measurement window saw.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Latency of correctly answered benign requests.
    pub benign: LatencyHistogram,
    /// Latency of contained exploits.
    pub attack: LatencyHistogram,
    /// Requests answered.
    pub answered: u64,
    /// Time inside hand-off calls.
    pub handoff: Duration,
    /// CPU time of the runtime's threads, ns.
    pub cpu_ns: u64,
    /// Window length.
    pub length: Duration,
}

impl Window {
    /// Runtime CPU plus hand-off time per answered request, µs.
    #[must_use]
    pub fn cpu_us_per_req(&self) -> f64 {
        (self.cpu_ns as f64 + self.handoff.as_nanos() as f64) / self.answered.max(1) as f64 / 1e3
    }

    /// Answered requests per second.
    #[must_use]
    pub fn tput(&self) -> f64 {
        self.answered as f64 / self.length.as_secs_f64()
    }
}

/// The `q`-quantile of `hist`, ns, averaged over the quantiles in
/// `q ± 0.02`. `LatencyHistogram` answers with bucket midpoints 3%
/// apart, so on a steady workload a plain quantile repeats to the digit
/// from run to run; the average over a narrow band moves with the
/// samples.
#[must_use]
pub fn band_quantile(hist: &LatencyHistogram, q: f64) -> f64 {
    const STEPS: u32 = 40;
    const HALF_WIDTH: f64 = 0.02;
    let at = |step: u32| q - HALF_WIDTH + 2.0 * HALF_WIDTH * f64::from(step) / f64::from(STEPS);
    (0..=STEPS)
        .map(|step| hist.quantile(at(step)) as f64)
        .sum::<f64>()
        / f64::from(STEPS + 1)
}

/// The median of `values` (0 when empty).
#[must_use]
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Everything the client side measures in one phase.
#[derive(Debug)]
pub struct Books {
    /// Outcomes.
    pub tally: Tally,
    /// Latency of correctly answered benign requests.
    pub benign: LatencyHistogram,
    /// Latency of contained exploits.
    pub attack: LatencyHistogram,
    /// Time inside the call that hands a request to the runtime
    /// (`Runtime::submit`, or `Endpoint::write` on a connection).
    pub handoff: LatencyHistogram,
    /// Total time inside hand-off calls.
    pub handoff_total: Duration,
    /// How late the open-loop generator sent each request.
    pub late: LatencyHistogram,
    /// Sum and count of sampled runtime queue depths.
    pub pending: (u64, u64),
    last_sample: Option<Instant>,
    /// Spans, when the phase is traced.
    pub spans: Option<Spans>,
    /// Phase length, first send to last answer.
    pub elapsed: Duration,
    /// The phase cut into [`WINDOWS`] windows; empty when unwindowed.
    pub windows: Vec<Window>,
    window_len: Duration,
    started: Option<Instant>,
    window_start: Option<Instant>,
    cpu_mark: u64,
}

impl Books {
    /// Empty books; `traced` turns span recording on.
    #[must_use]
    pub fn new(traced: bool) -> Self {
        Books {
            tally: Tally::default(),
            benign: LatencyHistogram::new(),
            attack: LatencyHistogram::new(),
            handoff: LatencyHistogram::new(),
            handoff_total: Duration::ZERO,
            late: LatencyHistogram::new(),
            pending: (0, 0),
            last_sample: None,
            spans: traced.then(|| Spans::new(Instant::now())),
            elapsed: Duration::ZERO,
            windows: Vec::new(),
            window_len: Duration::ZERO,
            started: None,
            window_start: None,
            cpu_mark: 0,
        }
    }

    /// Empty books that cut a phase of `length` into [`WINDOWS`]
    /// windows, each with its own latencies, answers and runtime CPU.
    #[must_use]
    pub fn windowed(length: Duration) -> Self {
        Books {
            window_len: length / WINDOWS as u32,
            ..Self::new(false)
        }
    }

    /// Marks the start of the phase.
    pub fn begin(&mut self) {
        let now = Instant::now();
        self.started = Some(now);
        if !self.window_len.is_zero() {
            self.window_start = Some(now);
            self.cpu_mark = sys::runtime_cpu_ns();
            self.windows.push(Window::default());
        }
    }

    fn close_window(&mut self, now: Instant) {
        let (Some(start), Some(window)) = (self.window_start, self.windows.last_mut()) else {
            return;
        };
        let cpu = sys::runtime_cpu_ns();
        window.cpu_ns = cpu - self.cpu_mark;
        window.length = now - start;
        self.cpu_mark = cpu;
        self.window_start = Some(now);
    }

    /// Moves to the next window when the current one is over; load loops
    /// call it once per loop iteration.
    pub fn tick(&mut self) {
        let Some(start) = self.window_start else {
            return;
        };
        let now = Instant::now();
        if now - start >= self.window_len && self.windows.len() < WINDOWS {
            self.close_window(now);
            self.windows.push(Window::default());
        }
    }

    /// Marks the end of the phase: the last window closes here, after
    /// the outstanding answers were collected.
    pub fn end(&mut self) {
        let now = Instant::now();
        self.close_window(now);
        self.window_start = None;
        self.elapsed = now - self.started.expect("phase begun");
    }

    /// Books one correct answer that took `latency`.
    pub fn answered(&mut self, latency: Duration, exploit: bool) {
        let window = self.windows.last_mut();
        if exploit {
            self.attack.record_duration(latency);
            if let Some(window) = window {
                window.attack.record_duration(latency);
            }
        } else {
            self.benign.record_duration(latency);
            if let Some(window) = window {
                window.benign.record_duration(latency);
            }
        }
    }

    /// Books one hand-off call that ran `start..end`.
    pub fn handoff(&mut self, start: Instant, end: Instant) {
        self.handoff.record_duration(end - start);
        self.handoff_total += end - start;
        if let Some(window) = self.windows.last_mut() {
            window.handoff += end - start;
        }
    }

    /// Counts one answer, correct or not.
    pub fn count_answer(&mut self) {
        self.tally.answered += 1;
        if let Some(window) = self.windows.last_mut() {
            window.answered += 1;
        }
    }

    /// Samples the queue depth at most once per millisecond.
    pub fn sample_pending(&mut self, depth: impl FnOnce() -> usize) {
        let now = Instant::now();
        if self
            .last_sample
            .is_some_and(|last| now - last < Duration::from_millis(1))
        {
            return;
        }
        self.last_sample = Some(now);
        self.pending.0 += depth() as u64;
        self.pending.1 += 1;
    }

    /// Mean sampled queue depth.
    #[must_use]
    pub fn pending_mean(&self) -> f64 {
        self.pending.0 as f64 / self.pending.1.max(1) as f64
    }

    /// The median over windows of `stat`.
    #[must_use]
    pub fn window_median(&self, stat: impl Fn(&Window) -> f64) -> f64 {
        median(self.windows.iter().map(stat).collect())
    }
}

/// Exact quantiles over a bounded sample (replay timings).
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    /// The `q`-quantile by nearest rank (0 when empty).
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }
}

/// Metrics of one run, in the order they were measured.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Adds one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds the 25th, 50th and 75th percentiles of `samples` (plus the
    /// 99th when `p99`) as `<name>_p25` …
    pub fn quartiles(&mut self, name: &str, samples: &Samples, unit: &'static str, p99: bool) {
        for (suffix, q) in [("p25", 0.25), ("p50", 0.5), ("p75", 0.75)] {
            self.push(&format!("{name}_{suffix}"), samples.quantile(q), unit);
        }
        if p99 {
            self.push(&format!("{name}_p99"), samples.quantile(0.99), unit);
        }
    }

    /// Prints every metric by name with its unit on stderr, then the
    /// result object as the last line of stdout.
    pub fn print(&self, correct: bool, tally: &Tally) {
        let mut json = String::new();
        for (name, value, unit) in &self.metrics {
            eprintln!("{name:<32} {value:>18.6} {unit}");
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if json.is_empty() { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        eprintln!(
            "correct={correct} attempted={} failed={} (mismatches={}, timeouts={}, benign_refused={})",
            tally.attempted, tally.failed, tally.mismatches, tally.timeouts, tally.benign_refused
        );
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            tally.attempted, tally.failed
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_quantiles_average_the_band() {
        let mut hist = LatencyHistogram::new();
        assert_eq!(band_quantile(&hist, 0.5), 0.0);
        // Below 32 ns every bucket holds one value, so each quantile is
        // the exact nearest-rank sample.
        for ns in 1..=20 {
            hist.record(ns);
        }
        let expected = (0..=40)
            .map(|step| ((0.48 + 0.001 * f64::from(step)) * 20.0).ceil())
            .sum::<f64>()
            / 41.0;
        let band = band_quantile(&hist, 0.5);
        assert!((band - expected).abs() < 1e-9, "{band} vs {expected}");
        assert!(band > 10.0 && band < 11.0, "{band}");
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(Vec::new()), 0.0);
    }
}

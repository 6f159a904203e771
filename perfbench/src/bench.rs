//! The harness every workload runs under: pinned campaign settings,
//! repeated set-up, interleaved rounds, checks, per-configuration rows and
//! the metrics a run reports.

use crate::plan::round_order;
use crate::spans::Tracer;
use crate::stats::{geomean, min, quartiles};
use atomask::{
    silent_diagnostics, Budget, CampaignConfig, CaptureMode, CheckpointStride, RetryPolicy,
    TraceMode,
};
use std::time::{Duration, Instant};

/// Times set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Every [`CampaignConfig`] field the benchmark relies on, set
/// explicitly: lazy capture, auto checkpoint stride, no flight recorder,
/// silent diagnostics, default budget and retries.
pub fn pinned_config(workers: usize) -> CampaignConfig {
    CampaignConfig {
        budget: Budget::default(),
        retry: RetryPolicy::default(),
        max_failures: None,
        workers,
        capture: CaptureMode::Lazy,
        trace: TraceMode::Off,
        checkpoint_stride: CheckpointStride::Auto,
        diagnostics: silent_diagnostics,
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `us`.
    pub unit: &'static str,
}

/// Timing samples of one round-robin measurement, one vector per
/// configuration. In a traced run, rounds alternate between span
/// recording on (`traced`) and off (`untraced`).
#[derive(Debug, Clone)]
pub struct Samples {
    /// Samples taken with span recording off.
    pub untraced: Vec<Vec<f64>>,
    /// Samples taken with span recording on (empty unless traced).
    pub traced: Vec<Vec<f64>>,
    /// Rounds completed.
    pub rounds: u64,
}

/// Per-configuration fastest samples of `samples`; `None` if any
/// configuration has no sample.
///
/// An op of one configuration repeats the same deterministic work, and the
/// shared host only ever adds time to it: its slow phases last seconds to
/// minutes and can cover most of a window, which moves a median with the
/// host's load. The fastest sample is the op's cost on an unloaded host.
pub fn fastest(samples: &[Vec<f64>]) -> Option<Vec<f64>> {
    samples.iter().map(|s| min(s)).collect()
}

/// Geomean of per-configuration fastest samples (0 when undefined, which
/// fails the run's checks).
pub fn geomean_of_fastest(samples: &[Vec<f64>]) -> f64 {
    fastest(samples).and_then(|m| geomean(&m)).unwrap_or(0.0)
}

/// State shared by every workload of one run.
#[derive(Debug)]
pub struct Bench {
    /// Input seed.
    pub seed: u64,
    /// Measurement window.
    pub window: Duration,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Worker count of sharded legs (`available_parallelism`).
    pub nproc: usize,
    /// Span recorder (enabled only inside traced rounds).
    pub tracer: Tracer,
    /// Ops attempted.
    pub attempted: u64,
    /// Failure messages, one per failed op.
    pub failures: Vec<String>,
    /// Failed run-level checks (a warm-up mismatch, an undefined metric):
    /// any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Set-up wall times, s.
    pub setup_s: Vec<f64>,
    /// End-to-end metrics (reported with `--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (reported with `--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
}

impl Bench {
    /// A fresh harness.
    pub fn new(seed: u64, seconds: u64, traced: bool, nproc: usize) -> Self {
        Bench {
            seed,
            window: Duration::from_secs(seconds),
            traced,
            nproc,
            tracer: Tracer::new(),
            attempted: 0,
            failures: Vec::new(),
            problems: Vec::new(),
            setup_s: Vec::new(),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            lines: Vec::new(),
        }
    }

    /// Runs `setup` [`SETUP_REPS`] times, records each wall time and keeps
    /// the last product.
    pub fn setup<T>(&mut self, mut setup: impl FnMut(&mut Bench) -> T) -> T {
        let mut last = None;
        self.tracer.set_enabled(self.traced);
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            let product = setup(self);
            self.setup_s.push(t0.elapsed().as_secs_f64());
            last = Some(product);
        }
        self.tracer.set_enabled(false);
        self.lines.push(format!(
            "peak_rss_mb after set-up = {}",
            crate::peak_rss_mb().unwrap_or(0.0)
        ));
        last.expect("SETUP_REPS > 0")
    }

    /// Counts one op and, if `problem` is set, its failure.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failures.push(p);
        }
    }

    /// Round-robin measurement over `n` configurations: every round visits
    /// each configuration once, in a seeded order that changes per round,
    /// so host drift lands on all of them alike. A new round starts only
    /// while the window has room for one more round of average length;
    /// traced runs make at least two rounds, alternating span recording
    /// on and off. `op(bench, cfg)` performs and checks one op and returns
    /// its timing sample.
    pub fn rounds(&mut self, n: usize, mut op: impl FnMut(&mut Bench, usize) -> f64) -> Samples {
        let mut samples = Samples {
            untraced: vec![Vec::new(); n],
            traced: vec![Vec::new(); n],
            rounds: 0,
        };
        let min_rounds = if self.traced { 2 } else { 1 };
        let start = Instant::now();
        loop {
            let record = self.traced && samples.rounds.is_multiple_of(2);
            self.tracer.set_enabled(record);
            for cfg in round_order(self.seed, samples.rounds, n) {
                let v = op(self, cfg);
                let into = if record {
                    &mut samples.traced
                } else {
                    &mut samples.untraced
                };
                into[cfg].push(v);
            }
            self.tracer.set_enabled(false);
            samples.rounds += 1;
            let elapsed = start.elapsed();
            let mean_round = elapsed / samples.rounds as u32;
            if samples.rounds >= min_rounds && elapsed + mean_round > self.window {
                break;
            }
        }
        self.lines.push(format!(
            "measured {} rounds x {n} configurations in {:.3} s",
            samples.rounds,
            start.elapsed().as_secs_f64()
        ));
        samples
    }

    /// Records an end-to-end metric (a value of 0 fails the run: every
    /// end-to-end metric is a strictly positive measurement).
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        if !(value.is_finite() && value > 0.0) {
            self.problems
                .push(format!("end-to-end metric {name} is {value}"));
        }
        self.lines.push(format!("metric {name} = {value} {unit}"));
        self.end_to_end.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Records a per-layer metric (an undefined value fails the run).
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.problems
                .push(format!("per-layer metric {name} is {value}"));
        }
        self.lines.push(format!("layer {name} = {value} {unit}"));
        self.per_layer.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Prints a per-configuration row: fastest sample, median, quartiles
    /// and sample count.
    pub fn row(&mut self, metric: &str, label: &str, unit: &str, samples: &[f64]) {
        let line = match (min(samples), quartiles(samples)) {
            (Some(lo), Some([q1, q2, q3])) => format!(
                "row {metric} {label}: min={lo:.4} median={q2:.4} q1={q1:.4} q3={q3:.4} n={} {unit}",
                samples.len()
            ),
            _ => format!("row {metric} {label}: no samples"),
        };
        self.lines.push(line);
    }

    /// Trace overhead of a headline number, %: positive when the traced
    /// rounds did worse. `higher_is_better` picks the direction.
    pub fn trace_overhead(&mut self, traced: f64, untraced: f64, higher_is_better: bool) {
        let pct = if higher_is_better {
            100.0 * (untraced / traced - 1.0)
        } else {
            100.0 * (traced / untraced - 1.0)
        };
        self.layer("trace_overhead_pct", pct, "%");
    }
}

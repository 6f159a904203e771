//! The four closed-loop workloads. Each runs one op at a time (one
//! client): a campaign, a verification, a call batch or a replay.

pub mod detect;
pub mod masked_calls;
pub mod repro;
pub mod verify;

use crate::bench::Bench;
use crate::bench::{fastest, pinned_config};
use atomask::apps::{all_apps, AppSpec};
use atomask::{Campaign, CampaignResult, FnProgram, RunHealth};

/// One Table 1 application, built once per set-up.
pub struct App {
    /// Table 1 row.
    pub spec: AppSpec,
    /// The guest program.
    pub program: FnProgram,
}

/// Builds every Table 1 application, C++ rows first.
pub fn build_apps() -> Vec<App> {
    all_apps()
        .into_iter()
        .map(|spec| App {
            program: spec.program(),
            spec,
        })
        .collect()
}

/// Full detection campaign of one app under the pinned engine settings.
pub fn detect(app: &App, workers: usize) -> CampaignResult {
    Campaign::new(&app.program)
        .config(pinned_config(workers))
        .run()
}

/// `<app>@<workers>`, the label of a per-app, per-worker-count row.
pub fn label(app: &App, workers: usize) -> String {
    format!("{}@{}", app.spec.name, workers)
}

/// Σ points ÷ Σ per-app wall time (ms), in points per second.
pub fn points_per_sec(points: &[u64], ms: &[f64]) -> f64 {
    let total: u64 = points.iter().sum();
    total as f64 * 1e3 / ms.iter().sum::<f64>()
}

/// Per-app fastest samples of one worker-count leg, where configuration
/// `2 * app + leg` is `app` at leg `leg` (empty if any sample is missing).
pub fn leg_fastest(samples: &[Vec<f64>], leg: usize) -> Vec<f64> {
    let per_leg: Vec<Vec<f64>> = samples.iter().skip(leg).step_by(2).cloned().collect();
    fastest(&per_leg).unwrap_or_default()
}

/// Per-layer counts read from each app's `RunHealth`: snapshots and
/// captured bytes per injection point (per app and overall), unhealthy
/// runs and retries.
pub fn health_layers(b: &mut Bench, apps: &[App], healths: &[RunHealth]) {
    let (mut points, mut snapshots, mut bytes, mut unhealthy, mut retries) = (0, 0, 0, 0, 0);
    for (app, h) in apps.iter().zip(healths) {
        let n = h.total().max(1) as f64;
        b.lines.push(format!(
            "row objgraph.snapshots_per_point {}: {} ; objgraph.capture_bytes_per_point: {}",
            app.spec.name,
            h.snapshots as f64 / n,
            h.capture_bytes as f64 / n
        ));
        points += h.total();
        snapshots += h.snapshots;
        bytes += h.capture_bytes;
        unhealthy += h.unhealthy();
        retries += h.retries;
    }
    let n = points.max(1) as f64;
    b.lines.push(format!(
        "layer objgraph.snapshots_per_point = {} count",
        snapshots as f64 / n
    ));
    b.lines.push(format!(
        "layer objgraph.capture_bytes_per_point = {} B",
        bytes as f64 / n
    ));
    b.lines
        .push(format!("layer inject.unhealthy_runs = {unhealthy} count"));
    b.lines
        .push(format!("layer inject.retries = {retries} count"));
}

//! `repro`: one op is one `Campaign::replay(point)`. The points are a
//! seeded stratified draw, [`POINTS_PER_APP`] per app for every seed; each
//! point is replayed once per round and its fastest replay is kept.

use super::{build_apps, detect, App};
use crate::bench::{fastest, pinned_config, Bench};
use crate::plan::stratified_points;
use crate::stats::{median, percentile, reportable_tail};
use atomask::{Campaign, ReplayReport, RunResult};
use std::time::Instant;

/// Points drawn per app: 16 apps × 64 = 1024 per-point values, enough
/// for at least 10 of them to lie beyond the p99.
pub const POINTS_PER_APP: u64 = 64;

/// One drawn point and what its replay must reproduce.
struct Point {
    app: usize,
    point: u64,
    /// The sweep's journaled run for this point, `trace_events` zeroed.
    expected: RunResult,
    trace_emitted: u64,
    diverges: bool,
}

fn replay(app: &App, point: u64) -> ReplayReport {
    Campaign::new(&app.program)
        .config(pinned_config(1))
        .replay(point)
}

/// Compares a replay with the sweep's journaled run, apart from the
/// trace-event count (replay always records a trace; the sweep does not).
fn mismatch(app: &App, p: &Point, report: &ReplayReport) -> Option<String> {
    let mut got = report.run.clone();
    got.trace_events = 0;
    (got != p.expected).then(|| {
        format!(
            "{} point {}: replay {:?} differs from the sweep's journaled {:?}",
            app.spec.name, p.point, got, p.expected
        )
    })
}

/// Runs the workload.
pub fn run(b: &mut Bench) {
    let seed = b.seed;
    let (apps, points) = b.setup(|b| {
        let apps = build_apps();
        let mut points = Vec::new();
        for (i, app) in apps.iter().enumerate() {
            // Sequential: no worker thread touches the allocator, so the
            // peak resident set does not depend on thread scheduling.
            let sweep = detect(app, 1);
            for point in stratified_points(seed, i as u64, sweep.total_points, POINTS_PER_APP) {
                let mut expected = sweep.runs[point as usize - 1].clone();
                assert_eq!(expected.injection_point, point, "runs are in point order");
                expected.trace_events = 0;
                // Warm-up: replay every drawn point once.
                let report = replay(app, point);
                let p = Point {
                    app: i,
                    point,
                    expected,
                    trace_emitted: report.trace_emitted,
                    diverges: report.divergence.is_some(),
                };
                if let Some(problem) = mismatch(app, &p, &report) {
                    b.problems.push(format!("warm-up: {problem}"));
                }
                points.push(p);
            }
        }
        (apps, points)
    });
    let samples = b.rounds(points.len(), |b, cfg| {
        let p = &points[cfg];
        let app = &apps[p.app];
        let t0 = Instant::now();
        let report = b.tracer.op("repro.op", app.spec.name, |t| {
            t.span("inject.Campaign::replay", app.spec.name, || {
                replay(app, p.point)
            })
        });
        let us = t0.elapsed().as_secs_f64() * 1e6;
        b.check(mismatch(app, p, &report));
        us
    });

    let per_point = fastest(&samples.untraced).unwrap_or_default();
    for (i, app) in apps.iter().enumerate() {
        let mine: Vec<f64> = points
            .iter()
            .zip(&per_point)
            .filter(|(p, _)| p.app == i)
            .map(|(_, &us)| us)
            .collect();
        b.row("replay_us(per-point fastest)", app.spec.name, "us", &mine);
    }
    let p50 = median(&per_point).unwrap_or(0.0);
    let (p99, beyond) = percentile(&per_point, 99.0).unwrap_or((0.0, 0));
    match reportable_tail(&per_point) {
        Some((p, _)) if p >= 99.0 => {}
        tail => b.problems.push(format!(
            "{} per-point values do not support a p99 (reportable tail {tail:?})",
            per_point.len()
        )),
    }
    b.e2e("unit_us", p50, "us");
    b.e2e("alt_unit_us", p99, "us");
    b.lines.push(format!(
        "metric replay_us_p50 = {p50} us ; replay_us_p99 = {p99} us \
         (over {} per-point fastest replays, {beyond} beyond p99, {} rounds)",
        per_point.len(),
        samples.rounds
    ));

    if b.traced {
        let traced = median(&fastest(&samples.traced).unwrap_or_default()).unwrap_or(0.0);
        b.trace_overhead(traced, p50, false);
        crate::probe::run(b);
        for (label, us) in b.tracer.self_us_by_label("inject.Campaign::replay") {
            b.row("inject.replay_us", &label, "us", &us);
        }
        for (i, app) in apps.iter().enumerate() {
            let mine: Vec<&Point> = points.iter().filter(|p| p.app == i).collect();
            let n = mine.len().max(1) as f64;
            b.lines.push(format!(
                "row {}: inject.trace_events_per_replay={} inject.divergence_share={}",
                app.spec.name,
                mine.iter().map(|p| p.trace_emitted).sum::<u64>() as f64 / n,
                mine.iter().filter(|p| p.diverges).count() as f64 / n,
            ));
        }
        let n = points.len().max(1) as f64;
        b.lines.push(format!(
            "layer inject.trace_events_per_replay = {} count",
            points.iter().map(|p| p.trace_emitted).sum::<u64>() as f64 / n
        ));
        b.lines.push(format!(
            "layer inject.divergence_share = {}",
            points.iter().filter(|p| p.diverges).count() as f64 / n
        ));
    }
}

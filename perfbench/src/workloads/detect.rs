//! `detect`: one op is one full detection `Campaign::run` of one Table 1
//! app, at 1 worker and at `nproc` workers.

use super::{build_apps, detect, health_layers, label, leg_fastest, points_per_sec, App};
use crate::bench::Bench;
use crate::probe;
use crate::stats::geomean;
use atomask::report::{render_method_classification, render_table1, AppEvaluation};
use atomask::{classify, CampaignResult, MarkFilter, RunHealth};
use std::time::Instant;

/// The committed goldens were rendered from campaigns capped at this many
/// injection points (the golden-report suite's cap); the first `GOLDEN_CAP`
/// runs of a full sweep must classify to them.
const GOLDEN_CAP: usize = 120;

const TABLE1: &str = include_str!("../../../tests/golden/table1.txt");
const FIG2: &str = include_str!("../../../tests/golden/fig2.txt");
const FIG3: &str = include_str!("../../../tests/golden/fig3.txt");

/// The line of `text` naming `app` as a whole word.
fn app_line<'t>(text: &'t str, app: &str) -> Option<&'t str> {
    text.lines()
        .find(|l| l.split_whitespace().any(|word| word == app))
}

/// Compares an app's Table 1 and Fig. 2/3 rows, computed from the first
/// [`GOLDEN_CAP`] runs of `result`, with the committed goldens.
fn golden_mismatch(app: &App, result: &CampaignResult) -> Option<String> {
    let mut capped = result.clone();
    capped.runs.truncate(GOLDEN_CAP);
    let c = classify(&capped, &MarkFilter::default());
    let row = AppEvaluation {
        name: app.spec.name.to_owned(),
        lang: app.spec.lang,
        classes: c.classes.len(),
        methods: c.method_counts.total() as usize,
        injections: result.total_points,
        calls: result.baseline_calls.iter().sum(),
        method_counts: c.method_counts,
        call_counts: c.call_counts,
        class_counts: c.class_counts,
        health: c.health,
    };
    let rows = std::slice::from_ref(&row);
    let figure = match app.spec.lang {
        atomask::Lang::Cpp => FIG2,
        atomask::Lang::Java => FIG3,
    };
    let rendered = [
        (TABLE1, render_table1(rows)),
        (figure, render_method_classification(rows, app.spec.lang)),
    ];
    rendered.iter().find_map(|(golden, actual)| {
        let (want, got) = (app_line(golden, &row.name), app_line(actual, &row.name));
        (want != got).then(|| format!("{}: golden row {want:?}, got {got:?}", row.name))
    })
}

/// Reference output of one app: the warm-up campaign's serialized journal
/// and its golden verdict (`None` = matches the goldens).
struct Reference {
    journal: String,
    golden: Option<String>,
    health: RunHealth,
}

/// Runs the workload.
pub fn run(b: &mut Bench) {
    let nproc = b.nproc;
    let (apps, refs) = b.setup(|_| {
        let apps = build_apps();
        // Warm-up: one sequential campaign per app. Its journal is the
        // first sample every timed sample must reproduce byte for byte.
        let refs: Vec<Reference> = apps
            .iter()
            .map(|app| {
                let result = detect(app, 1);
                Reference {
                    journal: result.journal().serialize(),
                    golden: golden_mismatch(app, &result),
                    health: result.health(),
                }
            })
            .collect();
        (apps, refs)
    });
    let legs = [1, nproc];
    let samples = b.rounds(apps.len() * legs.len(), |b, cfg| {
        let (app, workers) = (&apps[cfg / 2], legs[cfg % 2]);
        let reference = &refs[cfg / 2];
        let name = label(app, workers);
        let t0 = Instant::now();
        let result = b.tracer.op("detect.op", &name, |t| {
            t.span("inject.Campaign::run", &name, || detect(app, workers))
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let health = result.health();
        let problem = if let Some(g) = &reference.golden {
            Some(g.clone())
        } else if health.unhealthy() > 0 {
            Some(format!("{name}: {} unhealthy runs", health.unhealthy()))
        } else if result.journal().serialize() != reference.journal {
            Some(format!("{name}: journal differs from the first sample's"))
        } else {
            None
        };
        b.check(problem);
        ms
    });

    let points: Vec<u64> = refs.iter().map(|r| r.health.total()).collect();
    let seq = leg_fastest(&samples.untraced, 0);
    let par = leg_fastest(&samples.untraced, 1);
    for (i, app) in apps.iter().enumerate() {
        for (leg, &w) in legs.iter().enumerate() {
            b.row(
                "campaign_ms",
                &label(app, w),
                "ms",
                &samples.untraced[2 * i + leg],
            );
        }
    }
    let pps = points_per_sec(&points, &seq);
    let sharded_pps = points_per_sec(&points, &par);
    b.e2e("unit_us", 1e6 / pps, "us");
    b.e2e("alt_unit_us", 1e6 / sharded_pps, "us");
    b.lines.push(format!("metric points_per_sec = {pps} 1/s"));
    b.lines
        .push(format!("metric sharded_points_per_sec = {sharded_pps} 1/s"));

    if b.traced {
        let traced_pps = points_per_sec(&points, &leg_fastest(&samples.traced, 0));
        b.trace_overhead(traced_pps, pps, true);
        campaign_layers(
            b,
            &apps,
            &points,
            &seq,
            &par,
            "inject.Campaign::run",
            "inject.campaign_ms",
        );
        let healths: Vec<RunHealth> = refs.iter().map(|r| r.health).collect();
        health_layers(b, &apps, &healths);
    }
}

/// Per-layer report shared by `detect` and `verify`: the layer probe, the
/// campaign span's self time per app and worker count, program executions
/// per injection run, and the sharding speed-up.
pub fn campaign_layers(
    b: &mut Bench,
    apps: &[App],
    points: &[u64],
    seq_ms: &[f64],
    par_ms: &[f64],
    span_name: &str,
    span_metric: &str,
) {
    let baseline_us = probe::run(b);
    for (label, us) in b.tracer.self_us_by_label(span_name) {
        let ms: Vec<f64> = us.iter().map(|u| u / 1e3).collect();
        b.row(span_metric, &label, "ms", &ms);
    }
    let mut ratios = Vec::new();
    for (i, app) in apps.iter().enumerate() {
        let ratio = seq_ms[i] * 1e3 / (points[i] as f64 * baseline_us[i]);
        b.lines.push(format!(
            "row inject.run_cost_ratio {}: {ratio}",
            app.spec.name
        ));
        ratios.push(ratio);
    }
    let speedups: Vec<f64> = seq_ms.iter().zip(par_ms).map(|(s, p)| s / p).collect();
    b.lines.push(format!(
        "layer inject.run_cost_ratio = {} (geomean)",
        geomean(&ratios).unwrap_or(0.0)
    ));
    b.lines.push(format!(
        "layer inject.shard_speedup = {} (geomean, workers={})",
        geomean(&speedups).unwrap_or(0.0),
        b.nproc
    ));
}

//! `verify`: one op is one `verify_masked_configured(.., DeepCopy, ..)`
//! of one Table 1 app with the mask set `Policy::default()` selects, over
//! the first third of the app's injection points ([`VERIFY_SHARE`]), at 1
//! worker and at `nproc` workers. Detection and classification run in
//! set-up.

use super::detect::campaign_layers;
use super::{build_apps, detect, health_layers, label, leg_fastest, points_per_sec, App};
use crate::bench::{pinned_config, Bench};
use atomask::{
    classify, verify_masked_configured, Classification, MarkFilter, MaskStrategy, MethodId, Policy,
    RunHealth,
};
use std::collections::HashSet;
use std::time::Instant;

/// Each op verifies the first 1/`VERIFY_SHARE` of an app's points. A
/// whole suite pass at both worker counts takes about 9 s, which leaves
/// two samples per configuration in a window, too few for a value that
/// repeats between runs. Later points cost more, so the first third is
/// about 14% of the work and a 30 s window holds about 17 rounds.
const VERIFY_SHARE: u64 = 3;

/// What verification of one app needs from detection.
struct Target {
    mask_set: HashSet<MethodId>,
    filter: MarkFilter,
    /// Points verified per op (the cap).
    points: u64,
    /// All of the app's points.
    total_points: u64,
}

fn verify(app: &App, target: &Target, workers: usize, cap: Option<u64>) -> Classification {
    verify_masked_configured(
        &app.program,
        &target.mask_set,
        &target.filter,
        MaskStrategy::DeepCopy,
        pinned_config(workers),
        cap,
    )
}

/// What is wrong with a verification that should have run `points`
/// points, if anything.
fn problem(name: &str, verified: &Classification, points: u64) -> Option<String> {
    let (counts, h) = (&verified.method_counts, &verified.health);
    if counts.pure_nonatomic > 0 || counts.conditional > 0 {
        Some(format!(
            "{name}: corrected program keeps {} pure and {} conditional non-atomic methods",
            counts.pure_nonatomic, counts.conditional
        ))
    } else if h.unhealthy() > 0 {
        Some(format!("{name}: {} unhealthy runs", h.unhealthy()))
    } else if h.total() != points {
        Some(format!("{name}: {} of {points} points ran", h.total()))
    } else {
        None
    }
}

/// Runs the workload.
pub fn run(b: &mut Bench) {
    let nproc = b.nproc;
    let (apps, targets) = b.setup(|b| {
        let apps = build_apps();
        let policy = Policy::default();
        let targets: Vec<Target> = apps
            .iter()
            .map(|app| {
                let name = app.spec.name;
                // Sequential, like `repro`'s set-up: the peak resident set
                // then depends on thread scheduling only in the timed legs.
                let result = b.tracer.op("verify.setup", name, |t| {
                    t.span("inject.Campaign::run", name, || detect(app, 1))
                });
                let filter = policy.mark_filter();
                let classification = b.tracer.op("verify.setup", name, |t| {
                    t.span("inject.classify", name, || classify(&result, &filter))
                });
                Target {
                    mask_set: policy.mask_set(&classification),
                    filter,
                    points: result.total_points.div_ceil(VERIFY_SHARE),
                    total_points: result.total_points,
                }
            })
            .collect();
        (apps, targets)
    });
    let legs = [1, nproc];
    let mut health = vec![RunHealth::default(); apps.len()];
    let samples = b.rounds(apps.len() * legs.len(), |b, cfg| {
        let (app, workers) = (&apps[cfg / 2], legs[cfg % 2]);
        let target = &targets[cfg / 2];
        let name = label(app, workers);
        let t0 = Instant::now();
        let verified = b.tracer.op("verify.op", &name, |t| {
            t.span("mask.verify_masked_configured", &name, || {
                verify(app, target, workers, Some(target.points))
            })
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        health[cfg / 2] = verified.health;
        b.check(problem(&name, &verified, target.points));
        ms
    });
    // The timed ops cover a third of each app's points, so the traced run
    // also verifies every point once, untimed, and checks the whole
    // corrected program. The untraced run skips it: it would add about
    // 3.5 s and raise the peak resident set it reports.
    if b.traced {
        for (app, target) in apps.iter().zip(&targets) {
            let name = format!("{} (all points)", label(app, nproc));
            let verified = verify(app, target, nproc, None);
            b.check(problem(&name, &verified, target.total_points));
        }
    }

    let points: Vec<u64> = targets.iter().map(|t| t.points).collect();
    let seq = leg_fastest(&samples.untraced, 0);
    let par = leg_fastest(&samples.untraced, 1);
    for (i, app) in apps.iter().enumerate() {
        for (leg, &w) in legs.iter().enumerate() {
            b.row(
                "verify_ms",
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
            "mask.verify_masked_configured",
            "mask.verify_ms",
        );
        for (label, us) in b.tracer.self_us_by_label("inject.classify") {
            b.row("inject.classify_us(setup)", &label, "us", &us);
        }
        health_layers(b, &apps, &health);
    }
}

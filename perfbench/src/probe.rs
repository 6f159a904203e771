//! The layer probe every traced run ends with: the cost of single calls
//! into `mor`, `objgraph` and `inject` on each Table 1 app's post-baseline
//! VM and on the Fig. 5 payload sizes. Samples are interleaved
//! round-robin like the workloads' and each value is a per-app (or
//! per-size) median; a metric's value is the geomean of those medians.

use crate::bench::Bench;
use crate::plan::round_order;
use crate::stats::{geomean, median};
use crate::workloads::{build_apps, detect};
use atomask::overhead::OBJECT_SIZES;
use atomask::synthetic::perf_vm;
use atomask::{
    classify, fingerprint_of_roots, Checkpoint, MarkFilter, ObjId, Program, Snapshot, Vm,
};
use std::hint::black_box;
use std::time::Instant;

/// Probe rounds; every per-app value is a median of this many samples.
const ROUNDS: u64 = 15;

/// Repetitions inside one sample of a sub-microsecond call.
const INNER: u32 = 16;

/// µs per call of `f`, averaged over `reps` back-to-back calls.
fn time_us<R>(reps: u32, mut f: impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    t0.elapsed().as_secs_f64() * 1e6 / reps as f64
}

fn rooted(vm: &Vm) -> Vec<ObjId> {
    let heap = vm.heap();
    heap.iter()
        .map(|(id, _)| id)
        .filter(|&id| heap.root_count(id) > 0)
        .collect()
}

/// Metric names measured per app, in sample order.
const APP_METRICS: [&str; 7] = [
    "mor.build_us",
    "mor.baseline_us",
    "mor.vm_checkpoint_us",
    "mor.vm_restore_us",
    "objgraph.snapshot_us",
    "objgraph.fingerprint_us",
    "inject.classify_us",
];

/// Metric names measured per Fig. 5 payload size.
const SIZE_METRICS: [&str; 2] = [
    "objgraph.checkpoint_capture_us",
    "objgraph.checkpoint_restore_us",
];

/// Runs the probe and records its per-layer metrics on `b`. Returns each
/// app's median uninstrumented `Program::run`, µs, in `all_apps` order.
pub fn run(b: &mut Bench) -> Vec<f64> {
    let apps = build_apps();
    let sweeps: Vec<_> = apps.iter().map(|app| detect(app, b.nproc)).collect();
    let mut payloads: Vec<(Vm, ObjId)> = OBJECT_SIZES.iter().map(|&s| perf_vm(s)).collect();
    let mut app_samples = vec![vec![Vec::new(); apps.len()]; APP_METRICS.len()];
    let mut size_samples = vec![vec![Vec::new(); OBJECT_SIZES.len()]; SIZE_METRICS.len()];
    let filter = MarkFilter::default();
    let n = apps.len() + OBJECT_SIZES.len();
    for round in 0..ROUNDS {
        for cfg in round_order(b.seed, round, n) {
            if let Some(app) = apps.get(cfg) {
                let program = &app.program;
                let mut vm = None;
                let build = time_us(1, || vm = Some(Vm::new(program.build_registry())));
                let mut vm = vm.expect("built above");
                let baseline = time_us(1, || program.run(&mut vm).is_ok());
                let ckpt = vm.checkpoint();
                let roots = rooted(&vm);
                let values = [
                    build,
                    baseline,
                    time_us(INNER, || vm.checkpoint()),
                    time_us(INNER, || vm.restore(&ckpt)),
                    time_us(INNER, || Snapshot::of_roots(vm.heap(), &roots)),
                    time_us(INNER, || fingerprint_of_roots(vm.heap(), &roots)),
                    time_us(1, || classify(&sweeps[cfg], &filter)),
                ];
                for (m, v) in values.into_iter().enumerate() {
                    app_samples[m][cfg].push(v);
                }
            } else {
                let size = cfg - apps.len();
                let (vm, holder) = &mut payloads[size];
                let ckpt = Checkpoint::capture(vm.heap(), &[*holder]);
                size_samples[0][size].push(time_us(INNER, || {
                    Checkpoint::capture(vm.heap(), &[*holder])
                }));
                size_samples[1][size].push(time_us(INNER, || ckpt.restore(vm.heap_mut())));
            }
        }
    }
    let report = |b: &mut Bench, name: &str, labels: &[String], samples: &[Vec<f64>]| {
        let meds: Vec<f64> = samples.iter().map(|s| median(s).unwrap_or(0.0)).collect();
        for (label, s) in labels.iter().zip(samples) {
            b.row(name, label, "us", s);
        }
        b.layer(name, geomean(&meds).unwrap_or(0.0), "us");
        meds
    };
    let app_labels: Vec<String> = apps.iter().map(|a| a.spec.name.to_owned()).collect();
    let size_labels: Vec<String> = OBJECT_SIZES.iter().map(|s| format!("{s}B")).collect();
    let mut baseline_us = Vec::new();
    for (m, name) in APP_METRICS.iter().enumerate() {
        let meds = report(b, name, &app_labels, &app_samples[m]);
        if *name == "mor.baseline_us" {
            baseline_us = meds;
        }
    }
    for (m, name) in SIZE_METRICS.iter().enumerate() {
        report(b, name, &size_labels, &size_samples[m]);
    }
    baseline_us
}

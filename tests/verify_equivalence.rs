//! Differential property of masking verification: over the Table 1
//! suite, the corrected-program campaign on the detection fast path (lazy
//! capture, checkpoint-resume, sharding) must reproduce the reference
//! execution (eager capture, every run from scratch, one worker) under
//! both wrapper strategies — same runs, same journals — and must verify
//! every app as failure atomic, also with both wrapper kinds in one VM.

use atomask_suite::{
    classify, CallHook, Campaign, CampaignConfig, CampaignJournal, CampaignResult, CaptureMode,
    CheckpointStride, HookChain, MaskStrategy, MaskingHook, MethodId, Policy, Program, RunResult,
    TraceMode, UndoMaskingHook,
};
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

/// Cap per app, as in `capture_equivalence.rs`.
const CAP: u64 = 120;

/// Zeroes the capture statistics, which differ between capture modes by
/// design; everything else about a run must match bit for bit.
fn normalized(run: &RunResult) -> RunResult {
    let mut run = run.clone();
    run.snapshots = 0;
    run.capture_bytes = 0;
    run
}

fn normalized_journal(result: &CampaignResult) -> String {
    let mut journal = CampaignJournal::new();
    journal.bind(&result.program);
    journal.record_baseline(result.total_points, &result.baseline_calls);
    for run in &result.runs {
        journal.record_run(&normalized(run));
    }
    journal.serialize()
}

fn config(
    capture: CaptureMode,
    checkpoint_stride: CheckpointStride,
    workers: usize,
) -> CampaignConfig {
    CampaignConfig {
        capture,
        checkpoint_stride,
        workers,
        // Pinned off: a flight recorder disables checkpoint-resume and
        // counts journal events that eager capture never emits.
        trace: TraceMode::Off,
        ..CampaignConfig::default()
    }
}

/// The campaign `verify_masked_configured` runs: the `strategy` wrappers
/// for `mask_set` woven inside the injection wrappers, fresh per run.
fn masked_campaign<'p>(
    program: &'p dyn Program,
    mask_set: &HashSet<MethodId>,
    strategy: MaskStrategy,
) -> Campaign<'p> {
    let mask_set = mask_set.clone();
    Campaign::new(program).with_inner_hook(move |_| -> Rc<RefCell<dyn CallHook>> {
        match strategy {
            MaskStrategy::DeepCopy => Rc::new(RefCell::new(MaskingHook::new(mask_set.clone()))),
            MaskStrategy::UndoLog => Rc::new(RefCell::new(UndoMaskingHook::new(mask_set.clone()))),
        }
    })
}

#[test]
fn fast_path_verification_matches_the_eager_from_scratch_oracle() {
    let policy = Policy::default();
    let filter = policy.mark_filter();
    for spec in atomask_suite::apps::all_apps() {
        let program = spec.program();
        let detection = Campaign::new(&program).max_points(CAP).run();
        let mask_set = policy.mask_set(&classify(&detection, &filter));
        for strategy in [MaskStrategy::DeepCopy, MaskStrategy::UndoLog] {
            let verify = |config: CampaignConfig| {
                let result = masked_campaign(&program, &mask_set, strategy)
                    .config(config)
                    .max_points(CAP)
                    .run();
                let verified = classify(&result, &filter);
                let counts = &verified.method_counts;
                assert_eq!(
                    (
                        counts.pure_nonatomic,
                        counts.conditional,
                        verified.health.unhealthy()
                    ),
                    (0, 0, 0),
                    "{} {strategy:?} {config:?}: corrected program is not failure atomic",
                    spec.name
                );
                result
            };
            let oracle = verify(config(CaptureMode::Eager, CheckpointStride::Off, 1));
            let oracle_journal = normalized_journal(&oracle);
            for stride in [CheckpointStride::Auto, CheckpointStride::Every(7)] {
                for workers in [1, 4] {
                    let fast = verify(config(CaptureMode::Lazy, stride, workers));
                    let label = format!("{} {strategy:?} {stride:?} workers={workers}", spec.name);
                    assert_eq!(oracle.total_points, fast.total_points, "{label}");
                    assert_eq!(oracle.baseline_calls, fast.baseline_calls, "{label}");
                    assert_eq!(oracle.runs.len(), fast.runs.len(), "{label}");
                    for (o, f) in oracle.runs.iter().zip(&fast.runs) {
                        assert_eq!(
                            normalized(o),
                            normalized(f),
                            "{label} point {}: fast path disagrees with the oracle",
                            o.injection_point
                        );
                    }
                    assert_eq!(
                        oracle_journal,
                        normalized_journal(&fast),
                        "{label}: journals diverge"
                    );
                }
            }
        }
    }
}

/// Undo-log and deep-copy wrappers woven into one VM — each wrapping every
/// other method of the mask set — still verify every app as failure
/// atomic: a deep-copy restore only rewrites cells an enclosing undo layer
/// journaled, and rollback cleanup waits for every open layer to close.
#[test]
fn mixed_wrapper_strategies_verify_every_app() {
    let policy = Policy::default();
    let filter = policy.mark_filter();
    for spec in atomask_suite::apps::all_apps() {
        let program = spec.program();
        let detection = Campaign::new(&program).max_points(CAP).run();
        let mut mask_set: Vec<MethodId> = policy
            .mask_set(&classify(&detection, &filter))
            .into_iter()
            .collect();
        mask_set.sort();
        let (undo, deep): (Vec<_>, Vec<_>) =
            mask_set.iter().enumerate().partition(|(i, _)| i % 2 == 0);
        let undo: HashSet<MethodId> = undo.into_iter().map(|(_, m)| *m).collect();
        let deep: HashSet<MethodId> = deep.into_iter().map(|(_, m)| *m).collect();
        let result = Campaign::new(&program)
            .with_inner_hook(move |_| -> Rc<RefCell<dyn CallHook>> {
                Rc::new(RefCell::new(HookChain::new(vec![
                    Rc::new(RefCell::new(UndoMaskingHook::new(undo.clone()))),
                    Rc::new(RefCell::new(MaskingHook::new(deep.clone()))),
                ])))
            })
            .config(config(CaptureMode::Lazy, CheckpointStride::Auto, 1))
            .max_points(CAP)
            .run();
        let verified = classify(&result, &filter);
        let counts = &verified.method_counts;
        assert_eq!(
            (
                counts.pure_nonatomic,
                counts.conditional,
                verified.health.unhealthy()
            ),
            (0, 0, 0),
            "{}: mixed wrappers left the corrected program non-atomic",
            spec.name
        );
    }
}

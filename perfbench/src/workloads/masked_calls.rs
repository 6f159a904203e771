//! `masked-calls`: one op is one batch of guest calls on the Fig. 5
//! `Holder` (`synthetic::perf_vm`), over the grid `OBJECT_SIZES` ×
//! `WRAPPED_PCTS > 0`. Every cell runs unhooked, under `MaskingHook` and
//! under `UndoMaskingHook`, in interleaved batches.

use crate::bench::{geomean_of_fastest, Bench};
use crate::plan::call_sequence;
use crate::stats::min;
use atomask::overhead::{OBJECT_SIZES, WRAPPED_PCTS};
use atomask::synthetic::perf_vm;
use atomask::{CallHook, MaskingHook, ObjId, UndoMaskingHook, Vm};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Calls per batch.
const BATCH: usize = 1000;

/// Untimed batches every VM runs during set-up.
const WARMUP_BATCHES: usize = 8;

/// The three ways a cell's calls run.
const STRATEGIES: [&str; 3] = ["base", "deepcopy", "undolog"];

/// A `Holder` VM together with the number of batches it has run.
struct Driven {
    vm: Vm,
    holder: ObjId,
    batches: u64,
}

impl Driven {
    fn new(bytes: usize) -> Self {
        let (vm, holder) = perf_vm(bytes);
        Driven {
            vm,
            holder,
            batches: 0,
        }
    }

    fn run_batch(&mut self, seq: &[bool]) -> Option<String> {
        self.batches += 1;
        for &wrapped in seq {
            let method = if wrapped { "workWrapped" } else { "work" };
            if let Err(e) = self.vm.call(self.holder, method, &[]) {
                return Some(format!("call to {method} failed: {e:?}"));
            }
        }
        None
    }

    fn fields(&self) -> Vec<atomask::Value> {
        self.vm
            .heap()
            .get(self.holder)
            .map(|o| o.fields().to_vec())
            .unwrap_or_default()
    }
}

/// One grid cell: its call sequence, the three measured VMs, an unhooked
/// reference VM and handles on the two masking hooks.
struct Cell {
    bytes: usize,
    pct: u32,
    seq: Vec<bool>,
    runs: [Driven; 3],
    reference: Driven,
    deep: Rc<RefCell<MaskingHook>>,
    undo: Rc<RefCell<UndoMaskingHook>>,
}

impl Cell {
    fn new(seed: u64, index: u64, bytes: usize, pct: u32) -> Self {
        let mut runs = [Driven::new(bytes), Driven::new(bytes), Driven::new(bytes)];
        let holder = runs[0]
            .vm
            .registry()
            .class_by_name("Holder")
            .expect("perf registry defines Holder");
        let slot = holder
            .method_slot("workWrapped")
            .expect("Holder defines workWrapped");
        let gid = holder.methods[slot].gid;
        let deep = Rc::new(RefCell::new(MaskingHook::wrapping([gid])));
        let undo = Rc::new(RefCell::new(UndoMaskingHook::wrapping([gid])));
        runs[1]
            .vm
            .set_hook(Some(deep.clone() as Rc<RefCell<dyn CallHook>>));
        runs[2]
            .vm
            .set_hook(Some(undo.clone() as Rc<RefCell<dyn CallHook>>));
        Cell {
            bytes,
            pct,
            seq: call_sequence(seed, index, BATCH, pct),
            runs,
            reference: Driven::new(bytes),
            deep,
            undo,
        }
    }

    fn label(&self, strategy: usize) -> String {
        format!("{}B@{}%/{}", self.bytes, self.pct, STRATEGIES[strategy])
    }

    /// Checks run `strategy`'s `Holder` against the reference VM driven
    /// by the same number of batches.
    fn check(&mut self, strategy: usize) -> Option<String> {
        while self.reference.batches < self.runs[strategy].batches {
            if let Some(e) = self.reference.run_batch(&self.seq) {
                return Some(format!("{} reference: {e}", self.label(strategy)));
            }
        }
        (self.runs[strategy].fields() != self.reference.fields()).then(|| {
            format!(
                "{}: Holder fields differ from the unhooked reference",
                self.label(strategy)
            )
        })
    }
}

/// Runs the workload.
pub fn run(b: &mut Bench) {
    let seed = b.seed;
    let mut cells = b.setup(|b| {
        let mut cells = Vec::new();
        for &bytes in &OBJECT_SIZES {
            for &pct in WRAPPED_PCTS.iter().filter(|&&p| p > 0) {
                cells.push(Cell::new(seed, cells.len() as u64, bytes, pct));
            }
        }
        // Warm-up: interleaved batches on every VM, checked like the
        // timed ones.
        for _ in 0..WARMUP_BATCHES {
            for cell in cells.iter_mut() {
                for s in 0..STRATEGIES.len() {
                    let problem = cell.runs[s].run_batch(&cell.seq).or_else(|| cell.check(s));
                    if let Some(p) = problem {
                        b.problems.push(format!("warm-up: {p}"));
                    }
                }
            }
        }
        cells
    });
    let n = STRATEGIES.len();
    let samples = b.rounds(cells.len() * n, |b, cfg| {
        let (cell, strategy) = (&mut cells[cfg / n], cfg % n);
        let name = cell.label(strategy);
        let seq = &cell.seq;
        let run = &mut cell.runs[strategy];
        let t0 = Instant::now();
        let failed = b.tracer.op("masked-calls.op", &name, |t| {
            t.span("mor.Vm::call", &name, || run.run_batch(seq))
        });
        let ns_per_call = t0.elapsed().as_nanos() as f64 / BATCH as f64;
        let problem = failed
            .map(|e| format!("{name}: {e}"))
            .or_else(|| cell.check(strategy));
        b.check(problem);
        ns_per_call
    });

    let per_strategy = |s: &[Vec<f64>], strategy: usize| -> Vec<Vec<f64>> {
        s.iter().skip(strategy).step_by(n).cloned().collect()
    };
    for (i, cell) in cells.iter().enumerate() {
        for s in 0..n {
            b.row(
                "call_ns",
                &cell.label(s),
                "ns",
                &samples.untraced[i * n + s],
            );
        }
    }
    let call_ns: Vec<f64> = (0..n)
        .map(|s| geomean_of_fastest(&per_strategy(&samples.untraced, s)))
        .collect();
    b.e2e("unit_us", call_ns[1] / 1e3, "us");
    b.e2e("alt_unit_us", call_ns[2] / 1e3, "us");
    for (s, ns) in STRATEGIES.iter().zip(&call_ns) {
        b.lines.push(format!("metric {s}_call_ns = {ns} ns"));
    }

    if b.traced {
        let traced = geomean_of_fastest(&per_strategy(&samples.traced, 1));
        b.trace_overhead(traced, call_ns[1], false);
        crate::probe::run(b);
        let calls = |c: &Cell, s: usize| (c.runs[s].batches * BATCH as u64) as f64;
        for (i, cell) in cells.iter().enumerate() {
            let deep = cell.deep.borrow().stats();
            let undo = cell.undo.borrow().stats();
            let m = |s: usize| min(&samples.untraced[i * n + s]).unwrap_or(0.0);
            b.lines.push(format!(
                "row {}B@{}%: mask.checkpoints_per_call={} mask.bytes_per_checkpoint={} \
                 mask.undo_journals_per_call={} mask.overhead_factor(deepcopy)={} \
                 mask.overhead_factor(undolog)={}",
                cell.bytes,
                cell.pct,
                deep.checkpoints as f64 / calls(cell, 1),
                deep.bytes_checkpointed as f64 / deep.checkpoints.max(1) as f64,
                undo.journals as f64 / calls(cell, 2),
                m(1) / m(0),
                m(2) / m(0),
            ));
        }
        for (label, us) in b.tracer.self_us_by_label("mor.Vm::call") {
            let ns: Vec<f64> = us.iter().map(|u| u * 1e3 / BATCH as f64).collect();
            b.row("mor.call_ns(traced)", &label, "ns", &ns);
        }
    }
}

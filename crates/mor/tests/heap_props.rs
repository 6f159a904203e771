//! Property tests of the heap: reference counts always equal in-degrees,
//! reclamation frees exactly the unreachable acyclic garbage, mark–sweep
//! agrees with reachability, journal abort is an exact inverse, and a
//! reclaim deferred by open journal layers frees what an immediate one
//! would.

use atomask_mor::{Heap, ObjId, Profile, RegistryBuilder, Value, Vm};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

#[derive(Debug, Clone)]
enum HeapOp {
    Alloc,
    Link(usize, usize, bool), // (from, to, left-or-right field)
    Unlink(usize, bool),
    Root(usize),
    Unroot(usize),
}

fn heap_op() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        2 => Just(HeapOp::Alloc),
        4 => (any::<usize>(), any::<usize>(), any::<bool>())
            .prop_map(|(a, b, f)| HeapOp::Link(a, b, f)),
        2 => (any::<usize>(), any::<bool>()).prop_map(|(a, f)| HeapOp::Unlink(a, f)),
        1 => any::<usize>().prop_map(HeapOp::Root),
        1 => any::<usize>().prop_map(HeapOp::Unroot),
    ]
}

fn fresh_vm() -> Vm {
    let mut rb = RegistryBuilder::new(Profile::cpp());
    rb.class("N", |c| {
        c.field("l", Value::Null);
        c.field("r", Value::Null);
    });
    Vm::new(rb.build())
}

/// Applies ops; every allocated object is rooted once on allocation so the
/// scripts control liveness purely via Root/Unroot and links.
fn apply(vm: &mut Vm, ops: &[HeapOp]) -> Vec<ObjId> {
    let mut nodes = Vec::new();
    let mut extra_roots: Vec<ObjId> = Vec::new();
    for op in ops {
        match op {
            HeapOp::Alloc => {
                let id = vm.alloc_raw("N");
                vm.root(id);
                nodes.push(id);
            }
            HeapOp::Link(a, b, f) if !nodes.is_empty() => {
                let (x, y) = (nodes[a % nodes.len()], nodes[b % nodes.len()]);
                if vm.heap().is_live(x) && vm.heap().is_live(y) {
                    let field = if *f { "l" } else { "r" };
                    vm.heap_mut().set_field(x, field, Value::Ref(y)).unwrap();
                }
            }
            HeapOp::Unlink(a, f) if !nodes.is_empty() => {
                let x = nodes[a % nodes.len()];
                if vm.heap().is_live(x) {
                    let field = if *f { "l" } else { "r" };
                    vm.heap_mut().set_field(x, field, Value::Null).unwrap();
                }
            }
            HeapOp::Root(a) if !nodes.is_empty() => {
                let x = nodes[a % nodes.len()];
                vm.root(x);
                extra_roots.push(x);
            }
            HeapOp::Unroot(a) if !nodes.is_empty() => {
                let x = nodes[a % nodes.len()];
                // Only release roots we added beyond the allocation root.
                if let Some(pos) = extra_roots.iter().position(|&r| r == x) {
                    extra_roots.swap_remove(pos);
                    vm.unroot(x);
                }
            }
            _ => {}
        }
    }
    nodes
}

fn in_degrees(heap: &Heap) -> HashMap<ObjId, usize> {
    let mut deg = HashMap::new();
    for (_, obj) in heap.iter() {
        for v in obj.fields() {
            if let Value::Ref(t) = v {
                *deg.entry(*t).or_insert(0) += 1;
            }
        }
    }
    deg
}

fn reachable_from_roots(heap: &Heap) -> HashSet<ObjId> {
    let mut seen = HashSet::new();
    let mut stack: Vec<ObjId> = heap
        .iter()
        .map(|(id, _)| id)
        .filter(|id| heap.root_count(*id) > 0)
        .collect();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        if let Some(obj) = heap.get(id) {
            for v in obj.fields() {
                if let Value::Ref(t) = v {
                    stack.push(*t);
                }
            }
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Reference counts always equal in-degrees, whatever the script does.
    #[test]
    fn refcounts_equal_in_degrees(ops in prop::collection::vec(heap_op(), 1..60)) {
        let mut vm = fresh_vm();
        apply(&mut vm, &ops);
        let deg = in_degrees(vm.heap());
        for (id, _) in vm.heap().iter() {
            prop_assert_eq!(
                vm.heap().refcount(id),
                deg.get(&id).copied().unwrap_or(0),
                "refcount mismatch on {}", id
            );
        }
    }

    /// Mark-sweep frees exactly the root-unreachable objects, and the
    /// refcounts it leaves behind are consistent again.
    #[test]
    fn collect_agrees_with_reachability(ops in prop::collection::vec(heap_op(), 1..60)) {
        let mut vm = fresh_vm();
        let nodes = apply(&mut vm, &ops);
        // Drop the allocation roots of a prefix of nodes to create garbage.
        for &n in nodes.iter().take(nodes.len() / 2) {
            vm.unroot(n);
        }
        let reachable = reachable_from_roots(vm.heap());
        let live_before = vm.heap().len();
        let freed = vm.heap_mut().collect();
        prop_assert_eq!(vm.heap().len(), reachable.len());
        prop_assert_eq!(freed, live_before - reachable.len());
        let deg = in_degrees(vm.heap());
        for (id, _) in vm.heap().iter() {
            prop_assert_eq!(vm.heap().refcount(id), deg.get(&id).copied().unwrap_or(0));
        }
    }

    /// reclaim() never frees a reachable object and never leaves acyclic
    /// garbage behind (anything it keeps is reachable or part of a cycle).
    #[test]
    fn reclaim_is_safe_and_complete(ops in prop::collection::vec(heap_op(), 1..60)) {
        let mut vm = fresh_vm();
        let nodes = apply(&mut vm, &ops);
        for &n in nodes.iter().take(nodes.len() / 2) {
            vm.unroot(n);
        }
        let reachable = reachable_from_roots(vm.heap());
        vm.heap_mut().reclaim();
        // Safety: everything reachable survived.
        for id in &reachable {
            prop_assert!(vm.heap().is_live(*id), "{} was reachable but reclaimed", id);
        }
        // Completeness up to cycles: survivors that are unreachable must
        // sit on (or hang off) a reference cycle, which mark-sweep removes.
        let survivors = vm.heap().len();
        let freed_by_gc = vm.heap_mut().collect();
        prop_assert_eq!(vm.heap().len(), reachable.len());
        prop_assert_eq!(survivors - freed_by_gc, reachable.len());
    }

    /// Journal abort after arbitrary journaled mutation restores every
    /// field exactly (spot-checked via full snapshot of all roots).
    #[test]
    fn journal_abort_is_exact(
        setup in prop::collection::vec(heap_op(), 1..30),
        inside in prop::collection::vec(heap_op(), 1..30),
    ) {
        use atomask_objgraph::Snapshot;
        let mut vm = fresh_vm();
        let nodes = apply(&mut vm, &setup);
        prop_assume!(!nodes.is_empty());
        let live: Vec<ObjId> = nodes.iter().copied()
            .filter(|n| vm.heap().is_live(*n)).collect();
        prop_assume!(!live.is_empty());
        let before = Snapshot::of_roots(vm.heap(), &live);
        vm.heap_mut().push_journal();
        // Journaled mutations: links/unlinks only (no new roots, so the
        // liveness set is stable).
        let mutations: Vec<HeapOp> = inside.into_iter()
            .filter(|op| matches!(op, HeapOp::Link(..) | HeapOp::Unlink(..) | HeapOp::Alloc))
            .collect();
        apply_on_existing(&mut vm, &live, &mutations);
        vm.heap_mut().abort_journal();
        prop_assert_eq!(Snapshot::of_roots(vm.heap(), &live), before);
    }
}

/// One step of a layered mutation script.
#[derive(Debug, Clone)]
enum LayerOp {
    Mutate(HeapOp),
    Push,
    Commit,
    Abort,
}

fn layer_op() -> impl Strategy<Value = LayerOp> {
    prop_oneof![
        6 => heap_op().prop_map(LayerOp::Mutate),
        1 => Just(LayerOp::Push),
        1 => Just(LayerOp::Commit),
        1 => Just(LayerOp::Abort),
    ]
}

/// Runs `script` under an outermost journal layer that stays open until
/// the end (inner layers open and close as scripted; allocations are left
/// unrooted so unlinks make garbage), calling `reclaim()` just before step
/// `reclaim_at` when given. Then closes every open layer — inner ones by
/// commit, the outermost by commit or abort per `outer_commit` — checks
/// that a release is due exactly when one was deferred, and calls
/// `reclaim()` once more. Returns the VM and the sorted live ids.
fn run_layered(
    setup: &[HeapOp],
    script: &[LayerOp],
    reclaim_at: Option<usize>,
    outer_commit: bool,
) -> (Vm, Vec<ObjId>) {
    let mut vm = fresh_vm();
    let mut nodes = apply(&mut vm, setup);
    for &n in nodes.iter().take(nodes.len() / 2) {
        vm.unroot(n);
    }
    nodes.retain(|n| vm.heap().is_live(*n));
    vm.heap_mut().push_journal();
    for (i, op) in script.iter().enumerate() {
        if reclaim_at == Some(i) {
            let live = vm.heap().len();
            assert_eq!(vm.heap_mut().reclaim(), 0, "reclaim ran inside a layer");
            assert_eq!(vm.heap().len(), live, "an object died inside a layer");
        }
        let depth = vm.heap().journal_depth();
        match op {
            LayerOp::Push => vm.heap_mut().push_journal(),
            LayerOp::Commit if depth > 1 => vm.heap_mut().commit_journal(),
            LayerOp::Abort if depth > 1 => {
                vm.heap_mut().abort_journal();
            }
            LayerOp::Mutate(HeapOp::Alloc) => nodes.push(vm.alloc_raw("N")),
            LayerOp::Mutate(m @ (HeapOp::Link(..) | HeapOp::Unlink(..))) if !nodes.is_empty() => {
                apply_on_existing(&mut vm, &nodes, std::slice::from_ref(m));
            }
            _ => {}
        }
    }
    let live = vm.heap().len();
    while vm.heap().journal_depth() > 1 {
        vm.heap_mut().commit_journal();
    }
    if outer_commit {
        vm.heap_mut().commit_journal();
    } else {
        vm.heap_mut().abort_journal();
    }
    assert_eq!(vm.heap().len(), live, "closing a layer released an object");
    assert_eq!(vm.heap().release_due(), reclaim_at.is_some());
    vm.heap_mut().reclaim();
    assert!(!vm.heap().release_due());
    let live = vm.heap().iter().map(|(id, _)| id).collect();
    (vm, live)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A `reclaim()` requested inside open layers releases nothing until
    /// they have all closed, and then frees exactly what a `reclaim()`
    /// requested only after they closed would free.
    #[test]
    fn deferred_reclaim_releases_what_an_immediate_one_would(
        setup in prop::collection::vec(heap_op(), 1..30),
        script in prop::collection::vec(layer_op(), 1..40),
        at in any::<usize>(),
        outer_commit in any::<bool>(),
    ) {
        let at = at % script.len();
        let (deferred, deferred_live) = run_layered(&setup, &script, Some(at), outer_commit);
        let (immediate, immediate_live) = run_layered(&setup, &script, None, outer_commit);
        prop_assert_eq!(deferred_live, immediate_live);
        prop_assert_eq!(deferred.heap().stats(), immediate.heap().stats());
        // The release left consistent refcounts and a checkpointable heap.
        let deg = in_degrees(deferred.heap());
        for (id, _) in deferred.heap().iter() {
            prop_assert_eq!(deferred.heap().refcount(id), deg.get(&id).copied().unwrap_or(0));
        }
        deferred.heap().checkpoint();
    }
}

/// Applies link/unlink/alloc mutations against a fixed set of nodes.
fn apply_on_existing(vm: &mut Vm, nodes: &[ObjId], ops: &[HeapOp]) {
    for op in ops {
        match op {
            HeapOp::Alloc => {
                let id = vm.alloc_raw("N");
                vm.root(id);
            }
            HeapOp::Link(a, b, f) => {
                let (x, y) = (nodes[a % nodes.len()], nodes[b % nodes.len()]);
                let field = if *f { "l" } else { "r" };
                vm.heap_mut().set_field(x, field, Value::Ref(y)).unwrap();
            }
            HeapOp::Unlink(a, f) => {
                let x = nodes[a % nodes.len()];
                let field = if *f { "l" } else { "r" };
                vm.heap_mut().set_field(x, field, Value::Null).unwrap();
            }
            _ => {}
        }
    }
}

//! The undo-log atomicity wrapper — the copy-on-write style optimization
//! the paper's §6.2 suggests for very large objects.
//!
//! The deep-copy wrapper ([`crate::MaskingHook`]) pays
//! O(|object graph|) on **every** wrapped call, even successful ones. The
//! undo-log wrapper instead opens a heap write-journal around the call and
//! pays O(#writes actually performed): nothing up front, a reverse replay
//! on failure. For large objects with small mutation footprints this is
//! dramatically cheaper (see the `ablation` bench), at the price of
//! intercepting every field write.
//!
//! Semantics: rollback restores *every* heap write made below the wrapped
//! call, which is a superset of Listing 2's receiver-graph restoration —
//! the corrected program is failure atomic a fortiori. Undo-log and
//! deep-copy wrappers may share one VM: a deep-copy restore bypasses the
//! journal, but it only rewrites cells written since its checkpoint, which
//! an enclosing undo layer has journaled, and [`atomask_mor::Heap::reclaim`]
//! defers rollback cleanup while any layer is open, so no object an
//! enclosing layer names can be released under it.

use atomask_mor::{CallHook, CallSite, Exception, HookGuard, MethodId, MethodResult, Vm};
use std::collections::HashSet;

/// Counters describing undo-log masking activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UndoStats {
    /// Journal layers opened (wrapped calls entered).
    pub journals: u64,
    /// Rollbacks performed (wrapped calls that threw).
    pub rollbacks: u64,
    /// Individual field writes undone across all rollbacks.
    pub writes_undone: u64,
    /// Objects reclaimed by rollback cleanup. Reads 0 for rollbacks nested
    /// inside an open heap journal layer (an enclosing wrapped call's, or
    /// an injection wrapper's), where [`atomask_mor::Heap::reclaim`] defers
    /// the release until the outermost layer closes;
    /// [`atomask_mor::HeapStats::reclaimed`] counts every release.
    pub reclaimed: u64,
}

/// The undo-log atomicity wrapper: journals wrapped calls and replays the
/// journal backwards on exception.
#[derive(Debug)]
pub struct UndoMaskingHook {
    wrapped: HashSet<MethodId>,
    stats: UndoStats,
}

impl UndoMaskingHook {
    /// Creates a hook wrapping exactly `wrapped`.
    pub fn new(wrapped: HashSet<MethodId>) -> Self {
        UndoMaskingHook {
            wrapped,
            stats: UndoStats::default(),
        }
    }

    /// Creates a hook from any iterator of method ids.
    pub fn wrapping(methods: impl IntoIterator<Item = MethodId>) -> Self {
        Self::new(methods.into_iter().collect())
    }

    /// Masking activity counters.
    pub fn stats(&self) -> UndoStats {
        self.stats
    }
}

/// Marker guard: the journal layer itself lives in the heap.
struct JournalOpen;

impl CallHook for UndoMaskingHook {
    fn before(&mut self, vm: &mut Vm, site: &CallSite) -> Result<HookGuard, Exception> {
        if !self.wrapped.contains(&site.method) || !vm.registry().instrumentable(site.method) {
            return Ok(None);
        }
        vm.heap_mut().push_journal();
        self.stats.journals += 1;
        Ok(Some(Box::new(JournalOpen)))
    }

    fn after(
        &mut self,
        vm: &mut Vm,
        site: &CallSite,
        guard: HookGuard,
        outcome: MethodResult,
    ) -> MethodResult {
        if guard.is_some() {
            if outcome.is_ok() {
                vm.heap_mut().commit_journal();
            } else {
                self.stats.writes_undone += vm.heap_mut().abort_journal() as u64;
                vm.trace(atomask_mor::TraceEvent::MaskRestore {
                    method: site.method,
                });
                self.stats.rollbacks += 1;
                self.stats.reclaimed += vm.heap_mut().reclaim() as u64;
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::tests::assert_unlink_then_fail_rolls_back;
    use crate::MaskingHook;
    use atomask_mor::{HookChain, Profile, Registry, RegistryBuilder, Value};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Same planted bug as the deep-copy hook tests: `push` half-inserts,
    /// then `notify` rejects.
    fn registry() -> Registry {
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.exception("NotifyError");
        rb.class("Stack", |c| {
            c.field("head", Value::Null);
            c.field("len", Value::Int(0));
            c.method("push", |ctx, this, args| {
                let node = ctx.new_object("Node", &[])?;
                ctx.set(node, "value", args[0].clone());
                let head = ctx.get(this, "head");
                ctx.set(node, "next", head);
                ctx.set(this, "head", Value::Ref(node));
                let len = ctx.get_int(this, "len");
                ctx.set(this, "len", Value::Int(len + 1));
                ctx.call(this, "notify", &[])?;
                Ok(Value::Null)
            });
            c.method("notify", |ctx, this, _| {
                if ctx.get_int(this, "len") >= 2 {
                    Err(ctx.exception("NotifyError", "listener rejected"))
                } else {
                    Ok(Value::Null)
                }
            });
            // A wrapped method calling another wrapped method, to exercise
            // journal nesting.
            c.method("pushTwice", |ctx, this, args| {
                ctx.call(this, "push", &[args[0].clone()])?;
                ctx.call(this, "push", &[args[1].clone()])?;
                Ok(Value::Null)
            });
        });
        rb.class("Node", |c| {
            c.field("next", Value::Null);
            c.field("value", Value::Null);
        });
        rb.build()
    }

    fn gid(reg: &Registry, name: &str) -> MethodId {
        let stack = reg.class_by_name("Stack").unwrap();
        stack.methods[stack.method_slot(name).unwrap()].gid
    }

    #[test]
    fn undo_rollback_restores_state() {
        let reg = registry();
        let push = gid(&reg, "push");
        let mut vm = atomask_mor::Vm::new(reg);
        let hook = Rc::new(RefCell::new(UndoMaskingHook::wrapping([push])));
        vm.set_hook(Some(hook.clone()));
        let s = vm.construct("Stack", &[]).unwrap();
        vm.root(s);
        vm.call(s, "push", &[Value::Int(1)]).unwrap();
        let err = vm.call(s, "push", &[Value::Int(2)]).unwrap_err();
        assert_eq!(err.message, "listener rejected");
        assert_eq!(vm.heap().field(s, "len"), Some(Value::Int(1)));
        let head = vm.heap().field(s, "head").unwrap().as_ref_id().unwrap();
        assert_eq!(vm.heap().field(head, "value"), Some(Value::Int(1)));
        let stats = hook.borrow().stats();
        assert_eq!(stats.journals, 2);
        assert_eq!(stats.rollbacks, 1);
        assert!(stats.writes_undone >= 3, "node links + len: {stats:?}");
        assert!(stats.reclaimed >= 1, "the failed push's node is garbage");
        assert_eq!(vm.heap().journal_depth(), 0, "no leaked journal layers");
    }

    #[test]
    fn nested_wrapped_calls_roll_back_cleanly() {
        let reg = registry();
        let push = gid(&reg, "push");
        let push_twice = gid(&reg, "pushTwice");
        let mut vm = atomask_mor::Vm::new(reg);
        let hook = Rc::new(RefCell::new(UndoMaskingHook::wrapping([push, push_twice])));
        vm.set_hook(Some(hook.clone()));
        let s = vm.construct("Stack", &[]).unwrap();
        vm.root(s);
        // First push (inside pushTwice) succeeds; second trips notify.
        // Both layers unwind: the stack must be exactly empty again.
        let err = vm
            .call(s, "pushTwice", &[Value::Int(1), Value::Int(2)])
            .unwrap_err();
        assert_eq!(err.message, "listener rejected");
        assert_eq!(vm.heap().field(s, "len"), Some(Value::Int(0)));
        assert!(vm.heap().field(s, "head").unwrap().is_null());
        assert_eq!(vm.heap().journal_depth(), 0);
        assert_eq!(hook.borrow().stats().rollbacks, 2, "inner and outer");
    }

    #[test]
    fn successful_calls_pay_no_rollback() {
        let reg = registry();
        let push = gid(&reg, "push");
        let mut vm = atomask_mor::Vm::new(reg);
        let hook = Rc::new(RefCell::new(UndoMaskingHook::wrapping([push])));
        vm.set_hook(Some(hook.clone()));
        let s = vm.construct("Stack", &[]).unwrap();
        vm.root(s);
        vm.call(s, "push", &[Value::Int(1)]).unwrap();
        let stats = hook.borrow().stats();
        assert_eq!(stats.rollbacks, 0);
        assert_eq!(stats.writes_undone, 0);
        assert_eq!(vm.heap().journal_depth(), 0);
    }

    /// `fail`'s rollback cleanup must not free the `a` that `outer`'s
    /// unwrapped callee unlinked: `outer`'s still-open journal layer is
    /// about to write it back.
    #[test]
    fn nested_rollback_over_an_unlinked_object_restores_it() {
        assert_unlink_then_fail_rolls_back(|outer, fail| {
            Rc::new(RefCell::new(UndoMaskingHook::wrapping([outer, fail])))
        });
    }

    /// `outer` swallows the exception of `inner`, whose rollback leaves
    /// the node it linked as garbage, then allocates a node and returns
    /// it; the unwrapped `caller` links what `outer` returns.
    fn swallow_then_return() -> Registry {
        let mut rb = RegistryBuilder::new(Profile::java());
        rb.exception("Boom");
        rb.class("Maker", |c| {
            c.field("head", Value::Null);
            c.method("caller", |ctx, this, _| {
                let made = ctx.call(this, "outer", &[])?;
                ctx.set(this, "head", made);
                Ok(Value::Null)
            });
            c.method("outer", |ctx, this, _| {
                let _ = ctx.call(this, "inner", &[]);
                let node = ctx.alloc("Node");
                ctx.set(node, "value", Value::Int(7));
                Ok(Value::Ref(node))
            });
            c.method("inner", |ctx, this, _| {
                let node = ctx.alloc("Node");
                ctx.set(this, "head", Value::Ref(node));
                Err(ctx.exception("Boom", "inner"))
            });
        });
        rb.class("Node", |c| {
            c.field("value", Value::Int(0));
        });
        rb.build()
    }

    /// `inner`'s rollback cleanup is deferred while `outer`'s layer is
    /// open; when it runs, the node `outer` returns is still in flight to
    /// its caller and must survive.
    #[test]
    fn object_returned_after_a_swallowed_rollback_survives_the_release() {
        let reg = swallow_then_return();
        let maker = reg.class_by_name("Maker").unwrap();
        let [outer, inner] =
            ["outer", "inner"].map(|m| maker.methods[maker.method_slot(m).unwrap()].gid);
        let mut vm = atomask_mor::Vm::new(reg);
        vm.set_hook(Some(Rc::new(RefCell::new(UndoMaskingHook::wrapping([
            outer, inner,
        ])))));
        let m = vm.construct("Maker", &[]).unwrap();
        vm.root(m);
        // Returned into a caller's frame, which links it.
        vm.call(m, "caller", &[]).unwrap();
        let linked = vm.heap().field(m, "head").unwrap().as_ref_id().unwrap();
        assert!(vm.heap().is_live(linked));
        assert_eq!(vm.heap().field(linked, "value"), Some(Value::Int(7)));
        assert_eq!(vm.heap().stats().reclaimed, 1, "inner's node was released");
        // Returned to the driver, which roots and links it.
        let made = vm.call(m, "outer", &[]).unwrap().as_ref_id().unwrap();
        assert!(vm.heap().is_live(made));
        vm.root(made);
        vm.heap_mut()
            .set_field(m, "head", Value::Ref(made))
            .unwrap();
        assert_eq!(vm.heap().field(made, "value"), Some(Value::Int(7)));
        assert_eq!(vm.heap().stats().reclaimed, 2);
        assert_eq!(vm.heap().journal_depth(), 0);
    }

    /// Both nestings of the two wrapper kinds in one VM: the undo-log
    /// wrapper around a deep-copy-wrapped callee, and the reverse.
    #[test]
    fn undo_log_and_deep_copy_wrappers_mix() {
        let mixed = |undo: MethodId, deep: MethodId| -> Rc<RefCell<dyn CallHook>> {
            Rc::new(RefCell::new(HookChain::new(vec![
                Rc::new(RefCell::new(UndoMaskingHook::wrapping([undo]))),
                Rc::new(RefCell::new(MaskingHook::wrapping([deep]))),
            ])))
        };
        assert_unlink_then_fail_rolls_back(|outer, fail| mixed(outer, fail));
        assert_unlink_then_fail_rolls_back(|outer, fail| mixed(fail, outer));
    }
}

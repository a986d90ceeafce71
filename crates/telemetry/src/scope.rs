//! Scoped metric registries: per-analysis namespaces with no cross-job
//! bleed.
//!
//! A [`TelemetryScope`] owns a private [`crate::registry`]-style metric
//! map. While a thread holds a [`ScopeGuard`] (from
//! [`TelemetryScope::enter`]), every metric lookup made *on that thread*
//! through the crate's free functions ([`crate::counter`],
//! [`crate::histogram`], …) resolves into the scope's map instead of the
//! process-global registry. Instrumented library code is oblivious: the
//! same static metric names simply land in the innermost active scope.
//!
//! Scopes nest. Entering scope B while A is active redirects recording to
//! B until B's guard drops, at which point A is active again — this is how
//! the batch driver attributes model-cache *build* work to the cache's own
//! scope rather than to whichever job happened to trigger the build.
//!
//! # Threading contract
//!
//! The scope stack is **thread-local**: threads spawned while a scope is
//! active (e.g. by a parallel engine) start with an empty stack and record
//! into the global registry. Callers that need complete per-scope
//! attribution should run engines single-threaded inside the scope (the
//! batch driver parallelizes across jobs, not inside them). The
//! [`TelemetryScope`] handle itself is `Send + Sync` — one scope may be
//! entered from several threads, each holding its own guard; the shared
//! metric map is concurrency-safe.
//!
//! Recording is still gated on the process-wide [`crate::enabled`] flag: a
//! scope chooses *where* records land, the flag chooses *whether* any are
//! made.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::registry::{self, MetricMap};
use crate::snapshot::TelemetrySnapshot;

struct ScopeInner {
    name: String,
    map: MetricMap,
}

thread_local! {
    static STACK: RefCell<Vec<Arc<ScopeInner>>> = const { RefCell::new(Vec::new()) };
}

/// Resolves the calling thread's active metric map: the innermost entered
/// scope, or the process-global registry when no scope is active.
pub(crate) fn with_active<R>(f: impl FnOnce(&MetricMap) -> R) -> R {
    STACK.with(|stack| {
        let stack = stack.borrow();
        match stack.last() {
            Some(scope) => f(&scope.map),
            None => f(registry::global()),
        }
    })
}

/// A named, isolated metric registry; see the module-level docs above
/// for the push/pop discipline.
///
/// Cloning is shallow: clones share the same underlying metric map, so a
/// scope can be entered from several worker threads at once.
#[derive(Clone)]
pub struct TelemetryScope {
    inner: Arc<ScopeInner>,
}

impl TelemetryScope {
    /// Creates an empty scope. Nothing records into it until a thread
    /// [`enter`](TelemetryScope::enter)s it.
    pub fn new(name: impl Into<String>) -> TelemetryScope {
        TelemetryScope {
            inner: Arc::new(ScopeInner {
                name: name.into(),
                map: MetricMap::default(),
            }),
        }
    }

    /// The scope's name (a label for reports; not part of metric names).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Makes this scope the calling thread's recording target until the
    /// returned guard is dropped. Guards nest and must drop in reverse
    /// entry order, which Rust's drop order gives for stack-held guards.
    pub fn enter(&self) -> ScopeGuard {
        STACK.with(|stack| stack.borrow_mut().push(self.inner.clone()));
        ScopeGuard {
            entered: self.inner.clone(),
            _not_send: PhantomData,
        }
    }

    /// Freezes the scope's metrics into a deterministic, name-sorted
    /// [`TelemetrySnapshot`].
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.inner.map.snapshot(registry::enabled())
    }

    /// Zeroes the scope's metrics in place; handles stay valid. Same
    /// contract as the global [`crate::reset`], but confined to this scope.
    pub fn reset(&self) {
        self.inner.map.reset();
    }
}

impl std::fmt::Debug for TelemetryScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryScope")
            .field("name", &self.inner.name)
            .finish_non_exhaustive()
    }
}

/// Keeps a [`TelemetryScope`] active on the current thread; leaving is
/// dropping. Deliberately `!Send`: a guard must be dropped on the thread
/// that created it, since the scope stack is thread-local.
pub struct ScopeGuard {
    entered: Arc<ScopeInner>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        STACK.with(|stack| {
            let popped = stack.borrow_mut().pop();
            debug_assert!(
                popped.is_some_and(|top| Arc::ptr_eq(&top, &self.entered)),
                "scope guards dropped out of order"
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::test_guard;

    #[test]
    fn scoped_records_do_not_bleed() {
        let _g = test_guard(true);
        crate::counter("scope.test.bleed").reset();
        let a = TelemetryScope::new("a");
        let b = TelemetryScope::new("b");
        {
            let _in_a = a.enter();
            crate::counter("scope.test.bleed").add(2);
        }
        {
            let _in_b = b.enter();
            crate::counter("scope.test.bleed").add(5);
        }
        assert_eq!(a.snapshot().counter("scope.test.bleed"), 2);
        assert_eq!(b.snapshot().counter("scope.test.bleed"), 5);
        assert_eq!(
            crate::counter("scope.test.bleed").value(),
            0,
            "global registry untouched while scopes were active"
        );
    }

    #[test]
    fn scopes_nest_and_restore() {
        let _g = test_guard(true);
        let outer = TelemetryScope::new("outer");
        let inner = TelemetryScope::new("inner");
        let _in_outer = outer.enter();
        crate::counter("scope.test.nest").inc();
        {
            let _in_inner = inner.enter();
            crate::counter("scope.test.nest").add(10);
        }
        crate::counter("scope.test.nest").inc();
        assert_eq!(outer.snapshot().counter("scope.test.nest"), 2);
        assert_eq!(inner.snapshot().counter("scope.test.nest"), 10);
    }

    #[test]
    fn scope_spans_and_reset() {
        let _g = test_guard(true);
        let scope = TelemetryScope::new("spans");
        {
            let _in = scope.enter();
            let _span = crate::span("scope.test.timer");
        }
        assert_eq!(scope.snapshot().timer("scope.test.timer").count, 1);
        scope.reset();
        assert_eq!(scope.snapshot().timer("scope.test.timer").count, 0);
    }

    #[test]
    fn disabled_flag_gates_scoped_recording() {
        let _g = test_guard(false);
        let scope = TelemetryScope::new("off");
        let _in = scope.enter();
        crate::counter("scope.test.off").inc();
        assert_eq!(scope.snapshot().counter("scope.test.off"), 0);
    }

    #[test]
    fn shared_scope_collects_from_many_threads() {
        let _g = test_guard(true);
        let scope = TelemetryScope::new("shared");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let scope = scope.clone();
                s.spawn(move || {
                    let _in = scope.enter();
                    crate::counter("scope.test.multi").add(3);
                });
            }
        });
        assert_eq!(scope.snapshot().counter("scope.test.multi"), 12);
    }
}

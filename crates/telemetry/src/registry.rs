//! Metric registries — the process-global one plus the [`MetricMap`]
//! machinery that [`crate::TelemetryScope`] reuses — and the enablement
//! flag.
//!
//! The free functions ([`counter`], [`gauge`], …) resolve against the
//! *innermost active scope* of the calling thread when one has been entered
//! (see [`crate::TelemetryScope::enter`]), and fall back to the
//! process-global registry otherwise. Library instrumentation therefore
//! never needs to know whether it runs inside a scoped analysis: the same
//! static metric names land in whichever registry is active.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use crate::metrics::{Counter, Gauge, Histogram, Series, Span, Timer};
use crate::scope;
use crate::snapshot::TelemetrySnapshot;

/// Tri-state enablement: 0 = not yet initialized from the environment,
/// 1 = disabled, 2 = enabled. Steady state is one relaxed load.
static STATE: AtomicU8 = AtomicU8::new(0);

const OFF: u8 = 1;
const ON: u8 = 2;

/// Whether telemetry recording is currently enabled.
///
/// The first call consults the `PA_TELEMETRY` environment variable
/// (`1`/`true`/`on` enable recording); afterwards this is a single relaxed
/// atomic load, which is what makes disabled instrumentation near-free.
///
/// The flag is process-wide and also gates recording into scoped
/// registries: a [`crate::TelemetryScope`] controls *where* records land,
/// this flag controls *whether* anything is recorded at all.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("PA_TELEMETRY")
        .map(|v| matches!(v.trim(), "1" | "true" | "TRUE" | "on" | "ON"))
        .unwrap_or(false);
    let target = if on { ON } else { OFF };
    // A concurrent set_enabled wins: only replace the uninitialized state.
    let _ = STATE.compare_exchange(0, target, Ordering::Relaxed, Ordering::Relaxed);
    STATE.load(Ordering::Relaxed) == ON
}

/// Turns telemetry recording on or off process-wide.
pub fn set_enabled(on: bool) {
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// One registered metric.
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Timer(Arc<Timer>),
    Histogram(Arc<Histogram>),
    Series(Arc<Series>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Timer(_) => "timer",
            Metric::Histogram(_) => "histogram",
            Metric::Series(_) => "series",
        }
    }
}

/// A name-keyed set of metrics: the storage behind both the process-global
/// registry and every [`crate::TelemetryScope`].
#[derive(Default)]
pub(crate) struct MetricMap {
    metrics: RwLock<HashMap<&'static str, Metric>>,
}

impl MetricMap {
    /// Looks up (or registers) a metric of one kind. Panics if `name` is
    /// already registered as a different kind — metric names are a static,
    /// workspace-wide namespace, so a kind clash is a programming error.
    fn lookup<T>(
        &self,
        name: &'static str,
        extract: impl Fn(&Metric) -> Option<Arc<T>>,
        create: impl FnOnce() -> Metric,
    ) -> Arc<T> {
        if let Some(m) = self.metrics.read().expect("registry poisoned").get(name) {
            return extract(m).unwrap_or_else(|| {
                panic!(
                    "telemetry metric `{name}` already registered as a {}",
                    m.kind()
                )
            });
        }
        let mut map = self.metrics.write().expect("registry poisoned");
        let m = map.entry(name).or_insert_with(create);
        extract(m).unwrap_or_else(|| {
            panic!(
                "telemetry metric `{name}` already registered as a {}",
                m.kind()
            )
        })
    }

    pub(crate) fn counter(&self, name: &'static str) -> Arc<Counter> {
        self.lookup(
            name,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || Metric::Counter(Arc::new(Counter::default())),
        )
    }

    pub(crate) fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        self.lookup(
            name,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || Metric::Gauge(Arc::new(Gauge::default())),
        )
    }

    pub(crate) fn timer(&self, name: &'static str) -> Arc<Timer> {
        self.lookup(
            name,
            |m| match m {
                Metric::Timer(t) => Some(t.clone()),
                _ => None,
            },
            || Metric::Timer(Arc::new(Timer::default())),
        )
    }

    pub(crate) fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        self.lookup(
            name,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || Metric::Histogram(Arc::new(Histogram::default())),
        )
    }

    pub(crate) fn series(&self, name: &'static str) -> Arc<Series> {
        self.lookup(
            name,
            |m| match m {
                Metric::Series(s) => Some(s.clone()),
                _ => None,
            },
            || Metric::Series(Arc::new(Series::default())),
        )
    }

    /// Zeroes every registered metric in place. Existing handles stay
    /// valid.
    pub(crate) fn reset(&self) {
        for m in self.metrics.read().expect("registry poisoned").values() {
            match m {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Timer(t) => t.reset(),
                Metric::Histogram(h) => h.reset(),
                Metric::Series(s) => s.reset(),
            }
        }
    }

    /// Freezes every registered metric into a deterministic, name-sorted
    /// [`TelemetrySnapshot`].
    pub(crate) fn snapshot(&self, enabled: bool) -> TelemetrySnapshot {
        let map = self.metrics.read().expect("registry poisoned");
        let mut snap = TelemetrySnapshot::empty(enabled);
        for (name, m) in map.iter() {
            match m {
                Metric::Counter(c) => snap.push_counter(name, c),
                Metric::Gauge(g) => snap.push_gauge(name, g),
                Metric::Timer(t) => snap.push_timer(name, t),
                Metric::Histogram(h) => snap.push_histogram(name, h),
                Metric::Series(s) => snap.push_series(name, s),
            }
        }
        snap.sort();
        snap
    }
}

pub(crate) fn global() -> &'static MetricMap {
    static REGISTRY: OnceLock<MetricMap> = OnceLock::new();
    REGISTRY.get_or_init(MetricMap::default)
}

/// The named [`Counter`] of the active registry, registering it on first
/// use.
pub fn counter(name: &'static str) -> Arc<Counter> {
    scope::with_active(|map| map.counter(name))
}

/// The named [`Gauge`] of the active registry, registering it on first use.
pub fn gauge(name: &'static str) -> Arc<Gauge> {
    scope::with_active(|map| map.gauge(name))
}

/// The named [`Timer`] of the active registry, registering it on first use.
pub fn timer(name: &'static str) -> Arc<Timer> {
    scope::with_active(|map| map.timer(name))
}

/// The named [`Histogram`] of the active registry, registering it on first
/// use.
pub fn histogram(name: &'static str) -> Arc<Histogram> {
    scope::with_active(|map| map.histogram(name))
}

/// The named [`Series`] of the active registry, registering it on first
/// use.
pub fn series(name: &'static str) -> Arc<Series> {
    scope::with_active(|map| map.series(name))
}

/// Starts a [`Span`] recording into the named [`Timer`] of the active
/// registry. While telemetry is disabled this neither reads the clock nor
/// touches any registry.
pub fn span(name: &'static str) -> Span {
    if enabled() {
        Span::started(timer(name))
    } else {
        Span::disabled()
    }
}

/// Zeroes every metric of the **process-global** registry in place.
/// Existing handles stay valid. Scoped registries are unaffected; reset
/// those through [`crate::TelemetryScope::reset`].
///
/// # The reset contract
///
/// The global registry accumulates forever: two analyses run back-to-back
/// add into the *same* counters unless something intervenes. There are
/// three sound ways to separate them, in order of preference:
///
/// 1. **Scopes** — run each analysis under its own
///    [`crate::TelemetryScope`]; nothing accumulates across scopes by
///    construction, and the global registry is untouched.
/// 2. **Delta snapshots** — take a [`snapshot`] before and after, and diff
///    with [`TelemetrySnapshot::delta_since`]; nothing is zeroed, so
///    concurrent readers are unaffected.
/// 3. **`reset`** — zero everything in place. This is process-global and
///    destructive: records made by *other* threads between their last
///    snapshot and the reset are lost. Only use it when the process is
///    quiescent (as the bench harness does between probe runs).
pub fn reset() {
    global().reset();
}

/// Freezes every metric of the **process-global** registry into a
/// deterministic, name-sorted [`TelemetrySnapshot`]. Scoped registries are
/// not included; snapshot those through
/// [`crate::TelemetryScope::snapshot`].
pub fn snapshot() -> TelemetrySnapshot {
    global().snapshot(enabled())
}

/// Test support: serializes tests that touch the global flag and restores
/// the previous state on drop.
#[cfg(test)]
pub(crate) fn test_guard(enable: bool) -> impl Drop {
    use std::sync::Mutex;
    static TEST_MUTEX: Mutex<()> = Mutex::new(());

    struct Guard {
        was_enabled: bool,
        _lock: std::sync::MutexGuard<'static, ()>,
    }
    impl Drop for Guard {
        fn drop(&mut self) {
            set_enabled(self.was_enabled);
        }
    }

    let lock = TEST_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
    let was_enabled = enabled();
    set_enabled(enable);
    Guard {
        was_enabled,
        _lock: lock,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_and_survive_reset() {
        let _g = test_guard(true);
        let a = counter("registry.test.shared");
        let b = counter("registry.test.shared");
        a.inc();
        b.inc();
        assert_eq!(a.value(), 2);
        reset();
        assert_eq!(a.value(), 0, "reset zeroes in place");
        a.inc();
        assert_eq!(b.value(), 1, "handles stay wired after reset");
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_clash_panics() {
        let _g = test_guard(true);
        let _c = counter("registry.test.clash");
        let _h = histogram("registry.test.clash");
    }

    #[test]
    fn span_records_into_named_timer() {
        let _g = test_guard(true);
        timer("registry.test.span").reset();
        {
            let _span = span("registry.test.span");
        }
        let t = timer("registry.test.span");
        assert_eq!(t.count(), 1);
    }

    #[test]
    fn disabled_span_is_inert() {
        let _g = test_guard(false);
        timer("registry.test.span_off").reset();
        {
            let _span = span("registry.test.span_off");
        }
        // The timer was never even registered by `span` while disabled;
        // registering it here and checking emptiness covers both paths.
        assert_eq!(timer("registry.test.span_off").count(), 0);
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let _g = test_guard(true);
        reset();
        counter("registry.test.z").inc();
        counter("registry.test.a").add(3);
        gauge("registry.test.g").set(-4);
        histogram("registry.test.h").record(7);
        series("registry.test.s").push(0.5);
        let snap = snapshot();
        assert!(snap.enabled);
        assert_eq!(snap.counter("registry.test.a"), 3);
        assert_eq!(snap.counter("registry.test.z"), 1);
        assert_eq!(snap.counter("registry.test.missing"), 0);
        assert!(snap
            .counters
            .iter()
            .all(|c| c.name != "registry.test.missing"));
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }
}

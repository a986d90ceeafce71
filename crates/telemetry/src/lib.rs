//! Observability layer for the `timebounds` workspace.
//!
//! The paper's claims are quantitative, so the reproduction needs to *see*
//! what the engines actually did: how many Jacobi sweeps value iteration
//! ran and how the residual fell, how wide each BFS frontier was, how many
//! Monte-Carlo trials fired in which round. This crate is the substrate all
//! of that reports through:
//!
//! * [`Counter`] — monotone `u64` event counts (sweeps, states, trials).
//! * [`Gauge`] — signed instantaneous values with a `set_max` reduction
//!   (peak frontier width, shard imbalance).
//! * [`Timer`] / [`Span`] — monotonic wall-clock accumulation; a [`span`]
//!   guard records its elapsed time into the named timer on drop.
//! * [`Histogram`] — lock-free power-of-two-bucketed `u64` distributions
//!   (rounds-to-fire, frontier widths).
//! * [`Series`] — an ordered `f64` trajectory (per-sweep residuals).
//!
//! All metrics live in name-keyed registries and are looked up with
//! [`counter`], [`gauge`], [`timer`], [`histogram`] and [`series`].
//! Handles are `Arc`s: they stay valid across [`reset`] (which zeroes
//! values in place) and can be cached or re-fetched freely. By default the
//! lookups resolve against a process-global registry; a thread that has
//! entered a [`TelemetryScope`] records into that scope's private registry
//! instead (see below).
//!
//! # Enablement and cost
//!
//! Recording is gated on a single process-global flag ([`set_enabled`],
//! initially taken from the `PA_TELEMETRY` environment variable, default
//! off). While disabled, every record call is one relaxed atomic load and a
//! predicted branch — no locks, no clock reads, no allocation — so
//! instrumented hot paths run at full speed. `tables --bench-json` measures
//! this as part of the benchmark artifact (the `telemetry_overhead` block).
//!
//! # Snapshots
//!
//! [`snapshot`] freezes every registered metric into a
//! [`TelemetrySnapshot`], ordered deterministically by name and
//! serializable to JSON through the workspace serde shim. `pa-bench` embeds
//! one into `BENCH_mdp.json` so the perf trajectory carries engine
//! internals, not just timings.
//!
//! # Scopes and the reset contract
//!
//! The global registry accumulates forever, which bleeds counters across
//! back-to-back analyses. Two non-destructive remedies exist:
//!
//! * **[`TelemetryScope`]** — a private, named registry. While a thread
//!   holds the guard from [`TelemetryScope::enter`], its metric lookups
//!   resolve into the scope instead of the global registry, so concurrent
//!   analyses (one scope per job, as in `pa-batch`) cannot bleed into each
//!   other by construction.
//! * **[`TelemetrySnapshot::delta_since`]** — diff two snapshots to get
//!   exactly what was recorded in between, without zeroing anything; this
//!   is how a long-running driver exports incremental metrics while
//!   engines keep running.
//!
//! Destructive [`reset`] remains for quiescent single-workload processes;
//! its documentation spells out the full contract.
//!
//! # Example
//!
//! ```
//! use pa_telemetry as telemetry;
//!
//! telemetry::set_enabled(true);
//! telemetry::reset();
//! let sweeps = telemetry::counter("vi.sweeps");
//! for _ in 0..4 {
//!     let _span = telemetry::span("vi.sweep_seconds");
//!     sweeps.inc();
//! }
//! telemetry::series("vi.residual").push(0.5);
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.counter("vi.sweeps"), 4);
//! assert_eq!(snap.counter("vi.never_recorded"), 0);
//! telemetry::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod registry;
mod scope;
mod snapshot;

pub use metrics::{Counter, Gauge, Histogram, Series, Span, Timer, SERIES_CAP};
pub use registry::{
    counter, enabled, gauge, histogram, reset, series, set_enabled, snapshot, span, timer,
};
pub use scope::{ScopeGuard, TelemetryScope};
pub use snapshot::{
    CounterSnapshot, GaugeSnapshot, HistogramBucket, HistogramSnapshot, SeriesSnapshot,
    TelemetrySnapshot, TimerSnapshot,
};

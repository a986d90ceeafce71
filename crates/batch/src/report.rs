//! Aggregated batch output: the canonical order-independent JSON, the
//! worker-invariance digest over it, and the full JSONL detail stream.
//!
//! Two serializations with two contracts:
//!
//! * [`BatchReport::canonical_json`] — **bitwise identical for every
//!   worker count.** Jobs sorted by key; carries measured values,
//!   statuses, per-job scoped counters (non-custom jobs, only when
//!   telemetry was enabled), and aggregate cache statistics. Excludes
//!   everything scheduling-dependent: wall-clock durations, timer
//!   metrics, the worker count itself, and which job triggered each cache
//!   build. [`BatchReport::digest`] is an FNV-1a 64 hash over it — the
//!   `worker-invariance digest` of the bench artifact's `batch` block.
//! * [`BatchReport::jsonl`] — one line per job with durations and the
//!   full telemetry snapshot; for humans and dashboards, not for diffing.
//!
//! Both are written through the serde shim's `Object` writer. Their
//! floats use the shim's `Shortest` spelling (`1`, not `1.0`): it is part
//! of `pa-batch/canonical/v1`, so the digest depends on it.

use serde::{Object, Serialize, Shortest};

use crate::spec::{JobResult, JobStatus, JobValue};

/// Aggregate cache statistics of one batch run (all deterministic per
/// job set — see the concurrency notes on [`crate::cache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Model-map accesses served from an existing slot.
    pub model_hits: u64,
    /// Model builds (= distinct `(n, plan)` keys demanded).
    pub model_misses: u64,
    /// Config-map accesses served from an existing slot.
    pub config_hits: u64,
    /// Config explorations (= distinct ring sizes demanded).
    pub config_misses: u64,
    /// Distinct models resident at the end of the run.
    pub distinct_models: usize,
}

impl CacheStats {
    /// Model-cache hit rate in `[0, 1]` (0 when the cache was never hit).
    pub fn hit_rate(&self) -> f64 {
        let total = self.model_hits + self.model_misses;
        if total == 0 {
            0.0
        } else {
            self.model_hits as f64 / total as f64
        }
    }
}

/// Job tallies by terminal status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tally {
    /// Jobs that finished with a value.
    pub done: usize,
    /// Jobs that errored.
    pub failed: usize,
    /// Jobs that hit their timeout.
    pub timed_out: usize,
    /// Jobs cancelled with the batch.
    pub cancelled: usize,
    /// Finished jobs whose value reports a violated claim.
    pub violated: usize,
}

/// The aggregated result of [`crate::run_batch`].
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// All jobs, sorted by key.
    pub jobs: Vec<JobResult>,
    /// Worker threads the run used (report-only; not canonical).
    pub workers: usize,
    /// Wall-clock duration of the whole batch (report-only).
    pub wall_seconds: f64,
    /// Aggregate cache statistics.
    pub cache: CacheStats,
    /// The cache scope's telemetry (exploration/flattening of every
    /// build), for the JSONL stream.
    pub cache_snapshot: pa_telemetry::TelemetrySnapshot,
}

impl CacheStats {
    /// The five counts as an object, left open so the JSONL header can
    /// append the cache telemetry.
    fn fields(&self) -> Object {
        Object::new()
            .field("model_hits", &self.model_hits)
            .field("model_misses", &self.model_misses)
            .field("config_hits", &self.config_hits)
            .field("config_misses", &self.config_misses)
            .field("distinct_models", &self.distinct_models)
    }
}

/// A value is an object tagged by its `"type"`.
impl Serialize for JobValue {
    fn to_json(&self) -> String {
        let tagged = |tag: &str| Object::new().field("type", tag);
        match self {
            JobValue::Prob {
                measured,
                claimed,
                holds,
                worst_state,
                states_checked,
            } => tagged("prob")
                .field("measured", &Shortest(*measured))
                .field("claimed", &Shortest(*claimed))
                .field("holds", holds)
                .field("worst_state", worst_state)
                .field("states_checked", states_checked),
            JobValue::Time {
                expected,
                bound,
                within,
            } => tagged("time")
                .field("expected", &expected.map(Shortest))
                .field("bound", &Shortest(*bound))
                .field("within", within),
            JobValue::Invariant {
                holds,
                states_checked,
            } => tagged("invariant")
                .field("holds", holds)
                .field("states_checked", states_checked),
            JobValue::Lemma {
                name,
                min_prob,
                instances,
                holds,
            } => tagged("lemma")
                .field("name", name)
                .field("min_prob", &Shortest(*min_prob))
                .field("instances", instances)
                .field("holds", holds),
            JobValue::Estimate {
                point,
                lo,
                hi,
                claimed,
                trials,
                hits,
                refuted,
            } => tagged("estimate")
                .field("point", &Shortest(*point))
                .field("lo", &Shortest(*lo))
                .field("hi", &Shortest(*hi))
                .field("claimed", &Shortest(*claimed))
                .field("trials", trials)
                .field("hits", hits)
                .field("refuted", refuted),
            JobValue::Tallies {
                holds,
                violated,
                info,
            } => tagged("tallies")
                .field("holds", holds)
                .field("violated", violated)
                .field("info", info),
        }
        .finish()
    }
}

/// Appends a job's `status` and, when it has one, its `value` or `error`.
fn with_outcome(object: Object, status: &JobStatus) -> Object {
    let object = object.field("status", status.label());
    match status {
        JobStatus::Done(value) => object.field("value", value),
        JobStatus::Failed(message) => object.field("error", message),
        JobStatus::TimedOut | JobStatus::Cancelled => object,
    }
}

/// One job's canonical entry: key, status, value, and (for non-custom jobs
/// with telemetry enabled) its scoped counters as a name → value object —
/// the deterministic subset of the snapshot.
fn canonical_job(job: &JobResult) -> Object {
    let entry = with_outcome(Object::new().field("key", &job.key), &job.status);
    if job.custom || !job.snapshot.enabled {
        return entry;
    }
    let counters = job
        .snapshot
        .counters
        .iter()
        .fold(Object::new(), |counters, c| {
            counters.field(&c.name, &c.value)
        });
    entry.field("counters", &counters)
}

/// One job's JSONL line: identity, outcome, wall-clock and the full
/// scoped snapshot.
fn detail_job(job: &JobResult) -> String {
    let entry = Object::new()
        .field("key", &job.key)
        .field("n", &job.n)
        .field("plan", &job.plan_name);
    with_outcome(entry, &job.status)
        .field("seconds", &Shortest(job.seconds))
        .field("telemetry", &job.snapshot)
        .finish()
}

impl BatchReport {
    /// Tallies jobs by terminal status.
    pub fn tally(&self) -> Tally {
        let mut tally = Tally::default();
        for job in &self.jobs {
            match &job.status {
                JobStatus::Done(value) => {
                    tally.done += 1;
                    if value.violated() {
                        tally.violated += 1;
                    }
                }
                JobStatus::Failed(_) => tally.failed += 1,
                JobStatus::TimedOut => tally.timed_out += 1,
                JobStatus::Cancelled => tally.cancelled += 1,
            }
        }
        tally
    }

    /// The canonical, worker-count-invariant JSON (see module docs).
    pub fn canonical_json(&self) -> String {
        let jobs: Vec<Object> = self.jobs.iter().map(canonical_job).collect();
        Object::new()
            .field("schema", "pa-batch/canonical/v1")
            .field("jobs", &jobs)
            .field("cache", &self.cache.fields())
            .finish()
    }

    /// FNV-1a 64 over [`canonical_json`](BatchReport::canonical_json), as
    /// 16 hex digits — the worker-invariance digest pinned by the bench
    /// baseline.
    pub fn digest(&self) -> String {
        BatchReport::digest_of(&self.canonical_json())
    }

    /// The digest of an already rendered canonical report, for callers
    /// that also keep the canonical string (one serialization, not two).
    pub fn digest_of(canonical_json: &str) -> String {
        format!("{:016x}", pa_store::fnv1a_64(canonical_json.as_bytes()))
    }

    /// The full JSONL stream: a header line (run-level stats, cache
    /// telemetry) followed by one line per job with durations and the
    /// complete scoped snapshot.
    pub fn jsonl(&self) -> String {
        let header = Object::new()
            .field("schema", "pa-batch/jsonl/v1")
            .field("workers", &self.workers)
            .field("wall_seconds", &Shortest(self.wall_seconds))
            .field("digest", &self.digest())
            .field(
                "cache",
                &self.cache.fields().field("telemetry", &self.cache_snapshot),
            )
            .finish();
        let mut out = header + "\n";
        for job in &self.jobs {
            out.push_str(&detail_job(job));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_telemetry::TelemetrySnapshot;

    fn sample_report() -> BatchReport {
        let snapshot = {
            let scope = pa_telemetry::TelemetryScope::new("test");
            scope.snapshot()
        };
        BatchReport {
            jobs: vec![
                JobResult {
                    key: "arrow:0|n=3|plan=none|solver=jacobi|eps=1e-9".into(),
                    n: 3,
                    plan_name: "none".into(),
                    custom: false,
                    status: JobStatus::Done(JobValue::Prob {
                        measured: 0.5,
                        claimed: 0.5,
                        holds: true,
                        worst_state: Some("W0 W1 W2".into()),
                        states_checked: 7,
                    }),
                    seconds: 0.125,
                    snapshot: snapshot.clone(),
                },
                JobResult {
                    key: "custom:probe|n=3|plan=none|solver=jacobi|eps=1e-9".into(),
                    n: 3,
                    plan_name: "none".into(),
                    custom: true,
                    status: JobStatus::Failed("region X unknown".into()),
                    seconds: 0.25,
                    snapshot,
                },
            ],
            workers: 4,
            wall_seconds: 0.5,
            cache: CacheStats {
                model_hits: 3,
                model_misses: 1,
                config_hits: 0,
                config_misses: 1,
                distinct_models: 1,
            },
            cache_snapshot: TelemetrySnapshot {
                enabled: false,
                counters: vec![],
                gauges: vec![],
                timers: vec![],
                histograms: vec![],
                series: vec![],
            },
        }
    }

    #[test]
    fn canonical_json_excludes_timing_and_worker_count() {
        let report = sample_report();
        let json = report.canonical_json();
        assert!(json.contains("\"measured\":0.5"));
        assert!(json.contains("\"error\":\"region X unknown\""));
        assert!(!json.contains("seconds"), "no wall-clock in canonical");
        assert!(!json.contains("workers"), "no worker count in canonical");
        let mut other = report.clone();
        other.workers = 1;
        other.wall_seconds = 99.0;
        other.jobs[0].seconds = 42.0;
        assert_eq!(json, other.canonical_json());
        assert_eq!(report.digest(), other.digest());
    }

    #[test]
    fn digest_is_sensitive_to_values() {
        let report = sample_report();
        let mut other = report.clone();
        match &mut other.jobs[0].status {
            JobStatus::Done(JobValue::Prob { measured, .. }) => *measured = 0.25,
            _ => unreachable!(),
        }
        assert_ne!(report.digest(), other.digest());
        assert_eq!(report.digest().len(), 16);
    }

    #[test]
    fn tally_and_hit_rate() {
        let report = sample_report();
        let tally = report.tally();
        assert_eq!(tally.done, 1);
        assert_eq!(tally.failed, 1);
        assert_eq!(tally.violated, 0);
        assert!((report.cache.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn jsonl_has_header_plus_one_line_per_job() {
        let report = sample_report();
        let jsonl = report.jsonl();
        let lines: Vec<&str> = jsonl.trim_end().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"schema\":\"pa-batch/jsonl/v1\""));
        assert!(lines[0].contains("\"workers\":4"));
        assert!(lines[1].contains("\"seconds\":0.125"));
    }
}

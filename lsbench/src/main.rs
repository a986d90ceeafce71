//! `lsbench` — the repository benchmark.
//!
//! ```text
//! lsbench --workload <exact-n5|stored-n5|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root (every scratch file lives under
//! `.lsbench/` there and is removed on exit). Each workload is one process.
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! runs the same work untraced once, then again through the layers' public
//! functions with every call wrapped in a span, and prints the per-layer
//! metrics and the tracing overhead. The last line of standard output is
//! one JSON object: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//!
//! Every answer is checked (see each workload module); a wrong, failed or
//! rejected answer counts in `failed` and makes the exit code 1.

mod exact;
mod serve;
mod stored;
mod trace;

use std::collections::BTreeMap;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The state limit handed to every exploration.
pub const STATE_LIMIT: usize = 20_000_000;

/// End-to-end metrics: printed by every workload with tracing off.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("answer_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: printed by every workload in the traced run. A layer
/// a workload does not reach reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("explore.protocol_s", "s"),
    ("explore.round_s", "s"),
    ("explore.states", "count"),
    ("explore.transitions", "count"),
    ("explore.states_per_s", "1/s"),
    ("query.bounded_s", "s"),
    ("query.unbounded_s", "s"),
    ("query.flatten_s", "s"),
    ("query.precompute_s", "s"),
    ("query.sweeps", "count"),
    ("query.state_updates", "count"),
    ("query.updates_per_s", "1/s"),
    ("store.spill_s", "s"),
    ("store.open_s", "s"),
    ("store.write_bytes", "B"),
    ("store.spill_bytes_per_state", "B/state"),
    ("store.query_s", "s"),
    ("store.block_faults", "count"),
    ("store.block_hits", "count"),
    ("store.evictions", "count"),
    ("store.peak_resident_bytes", "B"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.rebuilds", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.resident_bytes", "B"),
    ("batch.job_p50_s", "s"),
    ("batch.job_p95_s", "s"),
    ("batch.reference_s", "s"),
    ("serve.parse_s", "s"),
    ("serve.transport_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.persist_bytes_per_job", "B"),
    ("serve.rejected", "count"),
    ("mc.sample_s", "s"),
    ("mc.trajectories_per_s", "1/s"),
    ("mc.steps", "count"),
    ("self.bench_s", "s"),
    ("self.lehmann-rabin_s", "s"),
    ("self.mdp.explore_s", "s"),
    ("self.mdp.query_s", "s"),
    ("self.store_s", "s"),
    ("self.batch_s", "s"),
    ("self.serve_s", "s"),
    ("self.mc_s", "s"),
    ("process.vmhwm_mib", "MiB"),
    ("trace.overhead_frac", "ratio"),
];

/// What a workload hands back: the answer tally, the metric values by
/// name, and human-readable lines printed before the result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Answers checked.
    pub attempted: u64,
    /// Answers that failed, were rejected, or were wrong.
    pub failed: u64,
    /// Metric values by name (end-to-end or per-layer, by mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked answer; a wrong one is counted and described.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let line = format!("WRONG: {}", what());
            eprintln!("lsbench: {line}");
            self.notes.push(line);
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ExactN5,
    StoredN5,
    ServeMixed,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    workload: Workload,
    /// Workload seed (only `serve-mixed` draws inputs from it).
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "exact-n5" => Workload::ExactN5,
                        "stored-n5" => Workload::StoredN5,
                        "serve-mixed" => Workload::ServeMixed,
                        other => return Err(format!("unknown workload {other:?}")),
                    })
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                    })
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// A scratch directory the benchmark owns (`.lsbench/tmp-<pid>` under the
/// working directory), removed when dropped — on success, on error
/// returns, and while unwinding from a panic.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn create() -> std::io::Result<Scratch> {
        let dir = PathBuf::from(".lsbench").join(format!("tmp-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    /// The directory (relative to the working directory, so socket paths
    /// stay short).
    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Fails, harmlessly, while span files remain.
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The process high-water resident set (`VmHWM`), in MiB.
pub fn vmhwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (NaN for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn run(args: &Args) -> Result<Outcome, Box<dyn Error>> {
    let scratch = Scratch::create()?;
    let mut outcome = match args.workload {
        Workload::ExactN5 => exact::run(args)?,
        Workload::StoredN5 => stored::run(args, &scratch)?,
        Workload::ServeMixed => serve::run(args, &scratch)?,
    };
    drop(scratch);
    outcome.note(format!(
        "error_rate {} ratio ({} of {} answers failed, rejected or wrong)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    ));
    Ok(outcome)
}

fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            // A layer the workload never reaches did no work.
            None if trace => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    ))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lsbench: {e}");
            eprintln!(
                "usage: lsbench --workload <exact-n5|stored-n5|serve-mixed> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("lsbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let line = match result_line(&outcome, args.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("lsbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in table {
        println!(
            "{name} {} {unit}",
            outcome.metrics.get(name).copied().unwrap_or(0.0)
        );
    }
    println!("{line}");
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

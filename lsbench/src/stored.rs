//! `stored-n5`: the zero-fault n = 5 `FaultyRoundMdp` quotient spilled to
//! `pa-store` behind a 1 MiB block-cache budget, queried out of core.
//!
//! Set-up is the streamed exploration with its spill, then reopening the
//! file. One answer pass asks `P —1→ C`, `G —5→ P` and `T —13→ C`
//! (horizons 1, 5 and 13) through `StoredCsr::query`, and every answer
//! must equal the in-core value `exact-n5` pins, bit for bit. The inputs
//! are fixed; the seed changes nothing.

use std::error::Error;
use std::path::Path;
use std::time::Instant;

use pa_core::Arrow;
use pa_faults::{
    faulty_round_cost, set_pred_under, FaultPlan, FaultyRoundMdp, FaultyRoundState,
    FaultyStateCodec,
};
use pa_lehmann_rabin::{reachable_configs_quotient, time_to_budget, RoundConfig};
use pa_mdp::{CsrSource, Explore, PackedSpace, QueryObjective, RingRotation, SolveStats};
use pa_store::{SpillTo, StoredCsr, StoredModel};

use crate::exact::{pinned_arrows, N};
use crate::trace::{span, Tracer};
use crate::{median, quantile, vmhwm_mib, Args, Outcome, Scratch, STATE_LIMIT};

/// Block-cache budget of every stored model here.
const CACHE_BUDGET: u64 = 1 << 20;
/// Round-model orbits of the zero-fault n = 5 quotient.
const ORBITS: usize = 961_329;
/// Times set-up runs per process; `setup_s` is the median.
const SETUP_REPS: usize = 2;

type Stored = StoredModel<FaultyRoundState, PackedSpace<FaultyStateCodec>>;

/// `P —1→ C`, `G —5→ P` and `T —13→ C` with their pinned values.
fn stored_arrows() -> Vec<(Arrow, f64)> {
    let pinned = pinned_arrows();
    [4, 3, 5].iter().map(|&i| pinned[i].clone()).collect()
}

/// Streams the quotient into `dir`, then reopens the spilled file.
fn spill(dir: &Path, tr: Option<&Tracer>) -> Result<(Stored, StoredCsr), Box<dyn Error>> {
    let configs = span(tr, "lehmann-rabin", "reachable_configs_quotient", || {
        reachable_configs_quotient(N, STATE_LIMIT)
    })?;
    let model = FaultyRoundMdp::new(RoundConfig::new(N)?, FaultPlan::none())?.with_starts(configs);
    let codec = FaultyStateCodec::new(N, model.round_cap())?;
    let stored = span(tr, "store", "SpillTo::spill_to", || {
        Explore::new(&model)
            .cost(faulty_round_cost)
            .limit(STATE_LIMIT)
            .symmetry(RingRotation::new(N))
            .spill_to(dir, CACHE_BUDGET)
            .run_in(PackedSpace::new(codec))
    })?;
    let reopened = span(tr, "store", "StoredCsr::open", || {
        StoredCsr::open(stored.store().file().path(), CACHE_BUDGET)
    })?;
    Ok((stored, reopened))
}

/// One answer pass over `csr`; returns its wall seconds, pushes each
/// answer's latency (ms) and adds the solver counters to `solve`.
fn answer_pass(
    stored: &Stored,
    csr: &StoredCsr,
    tr: Option<&Tracer>,
    outcome: &mut Outcome,
    latencies: &mut Vec<f64>,
    solve: &mut SolveStats,
) -> Result<f64, Box<dyn Error>> {
    let pass = Instant::now();
    for (arrow, pinned) in stored_arrows() {
        let t = Instant::now();
        let from = set_pred_under(arrow.from())?;
        let to = set_pred_under(arrow.to())?;
        let starts: Vec<usize> = csr
            .initial_states()
            .iter()
            .copied()
            .filter(|&i| {
                let s = stored.state(i);
                from(&s.inner.config, s.crashed_mask(N))
            })
            .collect();
        let target = stored.target_where(|s| to(&s.inner.config, s.crashed_mask(N)));
        let analysis = span(tr, "mdp.query", "Query::run stored", || {
            csr.query()
                .objective(QueryObjective::MinProb)
                .target(target)
                .horizon(time_to_budget(arrow.time()))
                .run()
        })?;
        let worst = starts
            .iter()
            .map(|&i| analysis.values[i])
            .fold(f64::INFINITY, f64::min);
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        solve.sweeps += analysis.stats.sweeps;
        solve.state_updates += analysis.stats.state_updates;
        outcome.check(
            !starts.is_empty() && worst.to_bits() == pinned.to_bits(),
            || format!("stored {arrow}: {worst:?}, in-core {pinned:?}"),
        );
    }
    Ok(pass.elapsed().as_secs_f64())
}

fn file_bytes(stored: &Stored) -> Result<u64, std::io::Error> {
    Ok(std::fs::metadata(stored.store().file().path())?.len())
}

/// Runs the workload.
///
/// # Errors
///
/// Any layer or I/O error; wrong answers are counted, not returned.
pub fn run(args: &Args, scratch: &Scratch) -> Result<Outcome, Box<dyn Error>> {
    let mut outcome = Outcome::default();
    outcome.note("stored-n5: deterministic inputs (the seed changes nothing)");

    if args.trace {
        let tr = Tracer::new();
        let (stored, csr) = spill(&scratch.path().join("spill"), Some(&tr))?;
        let mut latencies = Vec::new();
        let mut solve = SolveStats::default();
        let untraced = answer_pass(
            &stored,
            &csr,
            None,
            &mut outcome,
            &mut latencies,
            &mut solve,
        )?;
        drop(csr);
        let fresh = tr.span("store", "StoredCsr::open", || {
            StoredCsr::open(stored.store().file().path(), CACHE_BUDGET)
        })?;
        let mut solve = SolveStats::default();
        let traced = tr.span("bench", "answer pass", || {
            answer_pass(
                &stored,
                &fresh,
                Some(&tr),
                &mut outcome,
                &mut latencies,
                &mut solve,
            )
        })?;
        let states = stored.num_states() as f64;
        let spill_s = tr.total("SpillTo::spill_to");
        let query_s = tr.total("Query::run stored");
        let bytes = file_bytes(&stored)? as f64;
        let cache = fresh.cache().local_stats();
        outcome.set("explore.protocol_s", tr.total("reachable_configs_quotient"));
        outcome.set("explore.round_s", spill_s);
        outcome.set("explore.states", states);
        outcome.set("explore.transitions", fresh.num_transitions() as f64);
        outcome.set("explore.states_per_s", states / spill_s);
        outcome.set("query.sweeps", solve.sweeps as f64);
        outcome.set("query.state_updates", solve.state_updates as f64);
        outcome.set("query.updates_per_s", solve.state_updates as f64 / query_s);
        outcome.set("store.spill_s", spill_s);
        outcome.set("store.open_s", tr.total("StoredCsr::open"));
        outcome.set("store.write_bytes", bytes);
        outcome.set("store.spill_bytes_per_state", bytes / states);
        outcome.set("store.query_s", query_s);
        outcome.set("store.block_faults", cache.faults as f64);
        outcome.set("store.block_hits", cache.hits as f64);
        outcome.set("store.evictions", cache.evictions as f64);
        outcome.set(
            "store.peak_resident_bytes",
            cache.peak_resident_bytes as f64,
        );
        outcome.set("process.vmhwm_mib", vmhwm_mib());
        outcome.set("trace.overhead_frac", traced / untraced - 1.0);
        outcome.note(format!(
            "traced pass {traced:.3} s vs untraced {untraced:.3} s; honest memory: block cache \
             peak {:.1} MiB (budget {:.1} MiB) vs process VmHWM {:.1} MiB",
            cache.peak_resident_bytes as f64 / (1 << 20) as f64,
            CACHE_BUDGET as f64 / (1 << 20) as f64,
            vmhwm_mib()
        ));
        drop(fresh);
        drop(stored);
        tr.finish(&mut outcome, "stored-n5", args.seed)?;
        return Ok(outcome);
    }

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut current = None;
    for rep in 0..SETUP_REPS {
        // One spill on disk at a time: drop and delete the previous one.
        if let Some((stored, csr, dir)) = current.take() {
            drop((stored, csr));
            std::fs::remove_dir_all(&dir)?;
        }
        let dir = scratch.path().join(format!("spill-{rep}"));
        let t = Instant::now();
        let (stored, csr) = spill(&dir, None)?;
        setups.push(t.elapsed().as_secs_f64());
        outcome.check(stored.num_states() == ORBITS, || {
            format!("spilled {} orbits, expected {ORBITS}", stored.num_states())
        });
        current = Some((stored, csr, dir));
    }
    let (stored, csr, _dir) = current.expect("set-up ran at least once");

    let measuring = Instant::now();
    let mut passes = Vec::new();
    let mut latencies = Vec::new();
    let mut solve = SolveStats::default();
    loop {
        passes.push(answer_pass(
            &stored,
            &csr,
            None,
            &mut outcome,
            &mut latencies,
            &mut solve,
        )?);
        eprintln!("pass {}: {:.3} s", passes.len(), passes[passes.len() - 1]);
        if measuring.elapsed().as_secs_f64() + median(&passes) > args.seconds {
            break;
        }
    }
    let bytes = file_bytes(&stored)?;
    let cache = csr.cache().local_stats();
    outcome.set("setup_s", median(&setups));
    outcome.set("answer_s", median(&passes));
    outcome.set("job_p50_ms", quantile(&latencies, 0.5));
    outcome.set("job_p95_ms", quantile(&latencies, 0.95));
    outcome.set("jobs_per_s", stored_arrows().len() as f64 / median(&passes));
    outcome.set("peak_rss_mib", vmhwm_mib());
    outcome.note(format!(
        "spill_bytes_per_state {} B/state ({bytes} bytes for {} orbits)",
        bytes as f64 / stored.num_states() as f64,
        stored.num_states()
    ));
    outcome.note(format!(
        "stored-n5: {} passes of 3 answers; honest memory: block cache peak {:.1} MiB \
         (budget {:.1} MiB, {} faults) vs process VmHWM {:.1} MiB",
        passes.len(),
        cache.peak_resident_bytes as f64 / (1 << 20) as f64,
        CACHE_BUDGET as f64 / (1 << 20) as f64,
        cache.faults,
        vmhwm_mib()
    ));
    Ok(outcome)
}

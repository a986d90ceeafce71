//! `exact-n5`: the in-core exact check at n = 5 on the rotation quotient.
//!
//! One answer pass runs `check_arrow_quotient` for the five paper arrows
//! and the composed `T —13→ C`, then `max_expected_time_quotient` and
//! `min_expected_time_quotient` for RT→P: eight answers. Set-up is the
//! ring reachability pass (`reachable_configs_quotient`). The inputs are
//! fixed; the seed changes nothing.
//!
//! The traced run repeats the pass through the layers' public functions —
//! reachability, `Explore::run_in`, `Query::run` — exactly as
//! `check_arrow_quotient` composes them, and afterwards probes the
//! qualitative precompute (`CsrMdp::prob0_*`, `CsrMdp::prob1`) on each
//! explored model and target.

use std::error::Error;
use std::time::Instant;

use pa_core::{Arrow, SetExpr};
use pa_lehmann_rabin::{
    check_arrow_quotient, max_expected_time_quotient, min_expected_time_quotient, paper,
    reachable_configs_quotient, round_cost, set_pred, time_to_budget, RoundConfig, RoundMdp,
    RoundState, RoundStateCodec,
};
use pa_mdp::{
    CsrMdp, ExpectedCost, Explore, Explored, Objective, PackedSpace, QueryObjective, RingRotation,
    SolveStats,
};
use pa_prob::Prob;

use crate::trace::Tracer;
use crate::{median, quantile, vmhwm_mib, Args, Outcome, STATE_LIMIT};

/// Ring size of the exact workloads.
pub const N: usize = 5;
/// Reachable configuration orbits at n = 5 under ring rotation.
pub const ORBITS: usize = 39_964;
/// Times set-up runs per process; `setup_s` is the median.
const SETUP_REPS: usize = 10;
/// The RT→P expected-time bracket at n = 5 (both ends equal 94/15 up to
/// the solver's tolerance).
const BRACKET_RT_P: f64 = 94.0 / 15.0;
/// Answers per pass: six arrows and both ends of the bracket.
const ANSWERS: usize = 8;

/// The paper arrows in chain order plus the composed `T —13→ C`, each with
/// its worst-case probability at n = 5. The values are pinned bit for bit;
/// `stored-n5` compares its out-of-core answers against the same table.
pub fn pinned_arrows() -> Vec<(Arrow, f64)> {
    vec![
        (paper::arrow_t_to_rtc(), 1.0),
        (paper::arrow_rt_to_fgp(), 1.0),
        (paper::arrow_f_to_gp(), 0.75),
        (paper::arrow_g_to_p(), 0.5),
        (paper::arrow_p_to_c(), 1.0),
        (paper::arrow_t_to_c(), 0.995_483_398_437_5),
    ]
}

fn bracket_ok(value: f64) -> bool {
    (value - BRACKET_RT_P).abs() <= 1e-6
}

/// One untraced answer pass; returns its wall seconds and pushes each
/// answer's latency (ms).
fn answer_pass(
    mdp: &RoundMdp,
    outcome: &mut Outcome,
    latencies: &mut Vec<f64>,
) -> Result<f64, Box<dyn Error>> {
    let pass = Instant::now();
    for (arrow, pinned) in pinned_arrows() {
        let t = Instant::now();
        let check = check_arrow_quotient(mdp, &arrow, STATE_LIMIT)?;
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        let measured = check.measured.lo().value();
        outcome.check(
            check.holds() && measured.to_bits() == pinned.to_bits(),
            || format!("{arrow}: measured {measured:?}, pinned {pinned:?}"),
        );
    }
    let (rt, p) = (SetExpr::named("RT"), SetExpr::named("P"));
    let t = Instant::now();
    let hi = max_expected_time_quotient(mdp, &rt, &p, STATE_LIMIT)?;
    latencies.push(t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let lo = min_expected_time_quotient(mdp, &rt, &p, STATE_LIMIT)?;
    latencies.push(t.elapsed().as_secs_f64() * 1e3);
    outcome.check(bracket_ok(hi), || format!("max E[RT→P] = {hi}"));
    outcome.check(bracket_ok(lo) && lo <= hi, || {
        format!("min E[RT→P] = {lo} (max {hi})")
    });
    Ok(pass.elapsed().as_secs_f64())
}

type QuotientExplored = Explored<RoundState, PackedSpace<RoundStateCodec>>;

/// Per-layer work of a traced pass.
#[derive(Default)]
struct Work {
    states: u64,
    transitions: u64,
    solve: SolveStats,
}

/// The traced twin of one quotient claim, composed from the layers'
/// public functions exactly as `check_arrow_quotient` (horizon given) and
/// `*_expected_time_quotient` (objective a cost) compose them. Returns the
/// answer plus the explored model and target for the precompute probe.
fn traced_claim(
    tr: &Tracer,
    mdp: &RoundMdp,
    from: &SetExpr,
    to: &SetExpr,
    objective: QueryObjective,
    horizon: Option<u32>,
    work: &mut Work,
) -> Result<(f64, QuotientExplored, Vec<bool>), Box<dyn Error>> {
    let from_pred = set_pred(from)?;
    let to_pred = set_pred(to)?;
    let reachable = tr.span("lehmann-rabin", "reachable_configs_quotient", || {
        reachable_configs_quotient(N, STATE_LIMIT)
    })?;
    let starts = reachable.into_iter().filter(|c| from_pred(c)).collect();
    let absorb = set_pred(to)?;
    let model = mdp
        .clone()
        .with_starts(starts)
        .with_absorb(move |c| absorb(c));
    let space = PackedSpace::new(RoundStateCodec::new(N)?);
    let explored = tr.span("mdp.explore", "Explore::run_in", || {
        Explore::new(&model)
            .cost(round_cost)
            .limit(STATE_LIMIT)
            .parallel()
            .symmetry(RingRotation::new(N))
            .run_in(space)
    })?;
    work.states += explored.num_states() as u64;
    work.transitions += explored.mdp.num_transitions() as u64;
    let target = explored.target_where(|rs| to_pred(&rs.config));
    let query = explored.query().objective(objective).target(target.clone());
    let initial = explored.mdp.initial_states().iter().copied();
    let value = match horizon {
        Some(budget) => {
            let analysis = tr.span("mdp.query", "Query::run bounded", || {
                query.horizon(budget).run()
            })?;
            add_stats(&mut work.solve, &analysis.stats);
            let worst = initial
                .map(|i| analysis.values[i])
                .fold(f64::INFINITY, f64::min);
            Prob::clamped(worst).value()
        }
        None => {
            let analysis = tr.span("mdp.query", "Query::run unbounded", || query.run())?;
            add_stats(&mut work.solve, &analysis.stats);
            let expected = ExpectedCost {
                values: analysis.values,
            };
            expected.max_over(initial)? + 1.0
        }
    };
    Ok((value, explored, target))
}

fn add_stats(total: &mut SolveStats, stats: &SolveStats) {
    total.sweeps += stats.sweeps;
    total.state_updates += stats.state_updates;
}

/// Flattens the explored model and runs the qualitative precompute the
/// objective needs, each call in its own span.
fn precompute_probe(
    tr: &Tracer,
    explored: &QuotientExplored,
    target: &[bool],
    objective: QueryObjective,
) -> Result<(), Box<dyn Error>> {
    tr.span(
        "bench",
        "precompute probe",
        || -> Result<(), Box<dyn Error>> {
            let csr = tr.span("mdp.query", "CsrMdp::from_explicit", || {
                CsrMdp::from_explicit(&explored.mdp)
            });
            if objective == QueryObjective::MinCost {
                tr.span("mdp.query", "CsrMdp::prob0_max", || csr.prob0_max(target))?;
                tr.span("mdp.query", "CsrMdp::prob1", || {
                    csr.prob1(target, Objective::MaxProb)
                })?;
            } else {
                tr.span("mdp.query", "CsrMdp::prob0_min", || csr.prob0_min(target))?;
                tr.span("mdp.query", "CsrMdp::prob1", || {
                    csr.prob1(target, Objective::MinProb)
                })?;
            }
            Ok(())
        },
    )
}

/// One traced pass; returns the seconds its claims took (the probes run
/// between claims and are not counted).
fn traced_pass(
    tr: &Tracer,
    mdp: &RoundMdp,
    outcome: &mut Outcome,
    work: &mut Work,
) -> Result<f64, Box<dyn Error>> {
    let mut claimed = 0.0;
    for (arrow, pinned) in pinned_arrows() {
        let t = Instant::now();
        let (measured, explored, target) = tr.span("bench", "arrow claim", || {
            traced_claim(
                tr,
                mdp,
                arrow.from(),
                arrow.to(),
                QueryObjective::MinProb,
                Some(time_to_budget(arrow.time())),
                work,
            )
        })?;
        claimed += t.elapsed().as_secs_f64();
        outcome.check(
            measured >= arrow.prob().value() && measured.to_bits() == pinned.to_bits(),
            || format!("traced {arrow}: measured {measured:?}, pinned {pinned:?}"),
        );
        precompute_probe(tr, &explored, &target, QueryObjective::MinProb)?;
    }
    let (rt, p) = (SetExpr::named("RT"), SetExpr::named("P"));
    for objective in [QueryObjective::MaxCost, QueryObjective::MinCost] {
        let t = Instant::now();
        let (value, explored, target) = tr.span("bench", "expected-time claim", || {
            traced_claim(tr, mdp, &rt, &p, objective, None, work)
        })?;
        claimed += t.elapsed().as_secs_f64();
        outcome.check(bracket_ok(value), || {
            format!("traced {objective:?} E[RT→P] = {value}")
        });
        precompute_probe(tr, &explored, &target, objective)?;
    }
    Ok(claimed)
}

/// Runs the workload.
///
/// # Errors
///
/// Any layer error; wrong answers are counted, not returned.
pub fn run(args: &Args) -> Result<Outcome, Box<dyn Error>> {
    let mut outcome = Outcome::default();
    outcome.note("exact-n5: deterministic inputs (the seed changes nothing)");
    let mdp = RoundMdp::new(RoundConfig::new(N)?);

    if args.trace {
        let mut latencies = Vec::new();
        let untraced = answer_pass(&mdp, &mut outcome, &mut latencies)?;
        let tr = Tracer::new();
        let mut work = Work::default();
        let traced = traced_pass(&tr, &mdp, &mut outcome, &mut work)?;
        let protocol_s = tr.total("reachable_configs_quotient");
        let round_s = tr.total("Explore::run_in");
        let bounded_s = tr.total("Query::run bounded");
        let unbounded_s = tr.total("Query::run unbounded");
        outcome.set("explore.protocol_s", protocol_s);
        outcome.set("explore.round_s", round_s);
        outcome.set("explore.states", work.states as f64);
        outcome.set("explore.transitions", work.transitions as f64);
        outcome.set("explore.states_per_s", work.states as f64 / round_s);
        outcome.set("query.bounded_s", bounded_s);
        outcome.set("query.unbounded_s", unbounded_s);
        outcome.set("query.flatten_s", tr.total("CsrMdp::from_explicit"));
        outcome.set(
            "query.precompute_s",
            tr.total("CsrMdp::prob0_min")
                + tr.total("CsrMdp::prob0_max")
                + tr.total("CsrMdp::prob1"),
        );
        outcome.set("query.sweeps", work.solve.sweeps as f64);
        outcome.set("query.state_updates", work.solve.state_updates as f64);
        outcome.set(
            "query.updates_per_s",
            work.solve.state_updates as f64 / (bounded_s + unbounded_s),
        );
        outcome.set("process.vmhwm_mib", vmhwm_mib());
        outcome.set("trace.overhead_frac", traced / untraced - 1.0);
        outcome.note(format!(
            "traced pass {traced:.3} s vs untraced {untraced:.3} s; VmHWM {:.1} MiB \
             (store.peak_resident_bytes 0: no block cache on this workload)",
            vmhwm_mib()
        ));
        tr.finish(&mut outcome, "exact-n5", args.seed)?;
        return Ok(outcome);
    }

    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let orbits = reachable_configs_quotient(N, STATE_LIMIT)?.len();
        setups.push(t.elapsed().as_secs_f64());
        outcome.check(orbits == ORBITS, || {
            format!("reachable orbits {orbits}, expected {ORBITS}")
        });
    }

    let measuring = Instant::now();
    let mut passes = Vec::new();
    let mut latencies = Vec::new();
    loop {
        passes.push(answer_pass(&mdp, &mut outcome, &mut latencies)?);
        eprintln!("pass {}: {:.3} s", passes.len(), passes[passes.len() - 1]);
        if measuring.elapsed().as_secs_f64() + median(&passes) > args.seconds {
            break;
        }
    }
    outcome.set("setup_s", median(&setups));
    outcome.set("answer_s", median(&passes));
    outcome.set("job_p50_ms", quantile(&latencies, 0.5));
    outcome.set("job_p95_ms", quantile(&latencies, 0.95));
    outcome.set("jobs_per_s", ANSWERS as f64 / median(&passes));
    outcome.set("peak_rss_mib", vmhwm_mib());
    outcome.note(format!(
        "exact-n5: {} passes of {ANSWERS} answers, {} latency samples; VmHWM {:.1} MiB",
        passes.len(),
        latencies.len(),
        vmhwm_mib()
    ));
    Ok(outcome)
}

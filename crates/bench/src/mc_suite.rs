//! The sampled-tier (`pa-mc`) block of the bench artifact.
//!
//! `tables --mc` cross-validates the Monte-Carlo estimation tier against
//! the exact engine on a small ring: every paper arrow × default-grid
//! fault plan is sampled by replaying the extracted optimal adversary
//! ([`pa_faults::sampled_arrow_under`]), and each 99% interval must
//! contain the exact bounded-query value computed on the same model. A
//! uniform-adversary estimate is additionally pinned against its
//! [`pa_mc::UniformChain`] exact anchor, and the engine's worker-count
//! invariance is probed by running the same seed at 1, 2 and 8 workers
//! and comparing the integer-accumulator digests bitwise.
//!
//! The block's `digest` (FNV-1a 64 over every estimate's integer counts)
//! is pinned by the `mc-smoke` CI baseline: any change to the RNG stream
//! layout, the trajectory semantics, or the estimator accounting shows up
//! as a digest mismatch before it can silently shift the statistics.

use std::error::Error;

use pa_core::SetExpr;
use pa_faults::{
    default_grid, estimate_reach_uniform, exact_reach_uniform, sampled_arrow_under, FaultPlan,
};
use pa_lehmann_rabin::{paper, RoundConfig};
use pa_mc::McConfig;
use pa_prob::stats::Z_99;
use serde::Serialize;

/// One sampled arrow × fault-plan cell with its exact anchor.
#[derive(Debug, Clone, Serialize)]
pub struct McArrowRow {
    /// The arrow, rendered.
    pub arrow: String,
    /// Fault-plan name from the default grid.
    pub plan: String,
    /// Exact worst-case value from the bounded query (the estimand).
    pub exact: f64,
    /// Sampled point estimate.
    pub point: f64,
    /// Lower end of the 99% Wilson interval.
    pub lo: f64,
    /// Upper end of the 99% Wilson interval.
    pub hi: f64,
    /// Interval width `hi - lo`.
    pub width: f64,
    /// Whether the interval contains the exact value. Must be `true` in
    /// every row; gated by `compare_bench`.
    pub contains_exact: bool,
    /// Trajectories sampled.
    pub trials: u64,
}

/// The uniform-adversary cross-check: a no-exploration estimate pinned
/// against the exact value of its [`pa_mc::UniformChain`] wrapping.
#[derive(Debug, Clone, Serialize)]
pub struct McUniformCheck {
    /// Target set, rendered.
    pub target: String,
    /// Time budget per trajectory.
    pub within: u32,
    /// Exact uniform-policy value from the chain query.
    pub exact: f64,
    /// Sampled point estimate.
    pub point: f64,
    /// Lower end of the 99% interval.
    pub lo: f64,
    /// Upper end of the 99% interval.
    pub hi: f64,
    /// Whether the interval contains the exact value. Must be `true`.
    pub contains_exact: bool,
}

/// The sampled-tier block of the bench artifact (schema v6).
#[derive(Debug, Clone, Serialize)]
pub struct McBench {
    /// Ring size of the cross-validation.
    pub n: usize,
    /// Trajectories per estimate.
    pub trajectories: u64,
    /// Base seed of the derived per-trajectory streams.
    pub seed: u64,
    /// One row per non-vacuous arrow × fault-plan cell.
    pub rows: Vec<McArrowRow>,
    /// Cells skipped because the arrow's source region is empty under the
    /// plan (nothing to sample).
    pub skipped_vacuous: u64,
    /// Whether every row's interval contains its exact value. Must be
    /// `true`; gated by `compare_bench`.
    pub all_contain_exact: bool,
    /// The widest 99% interval across the rows.
    pub max_width: f64,
    /// The uniform-adversary chain cross-check.
    pub uniform: McUniformCheck,
    /// FNV-1a 64 over every estimate's integer accounting (16 hex
    /// digits) — the seed-determinism digest the baseline pins exactly.
    pub digest: String,
    /// Whether the same seed produced bitwise-identical accumulators at
    /// 1, 2 and 8 workers. Must be `true`; gated by `compare_bench`.
    pub worker_invariant: bool,
    /// Total trajectories across every estimate in the block.
    pub trajectories_total: u64,
    /// Total trajectory steps.
    pub steps_total: u64,
    /// Trajectories cut off at the step cap.
    pub early_stops_total: u64,
    /// Total RNG words drawn.
    pub rng_draws_total: u64,
}

/// Builds the [`McBench`] block on the ring of `n` processes: every paper
/// arrow × default-grid plan sampled with `trajectories` trajectories at
/// `seed`, the uniform chain cross-check, the worker-invariance probe,
/// and the seed-determinism digest.
///
/// # Errors
///
/// Exploration, analysis, and sampling errors from the fault subsystem.
pub fn mc_bench(
    n: usize,
    trajectories: u64,
    seed: u64,
    limit: usize,
) -> Result<McBench, Box<dyn Error>> {
    let cfg = RoundConfig::new(n)?;
    let grid = default_grid();
    let mc = McConfig::new(trajectories, seed, 0);

    let mut rows = Vec::new();
    let mut skipped_vacuous = 0u64;
    let mut fragments = Vec::new();
    let mut totals = (0u64, 0u64, 0u64, 0u64);
    for (arrow, _why) in paper::all_arrows() {
        for (plan_name, plan) in &grid {
            let Some(sampled) = sampled_arrow_under(cfg, &arrow, plan, limit, &mc)? else {
                skipped_vacuous += 1;
                continue;
            };
            fragments.push(format!(
                "{}|{}|{}",
                sampled.arrow,
                plan_name,
                sampled.estimate.digest_fragment()
            ));
            totals.0 += sampled.estimate.trials();
            totals.1 += sampled.estimate.total_steps();
            totals.2 += sampled.estimate.early_stops();
            totals.3 += sampled.estimate.rng_draws();
            rows.push(McArrowRow {
                arrow: sampled.arrow,
                plan: plan_name.clone(),
                exact: sampled.exact,
                point: sampled.estimate.point(),
                lo: sampled.interval.lo().value(),
                hi: sampled.interval.hi().value(),
                width: sampled.interval.width(),
                contains_exact: sampled.contains_exact,
                trials: sampled.estimate.trials(),
            });
        }
    }
    let all_contain_exact = rows.iter().all(|r| r.contains_exact);
    let max_width = rows.iter().map(|r| r.width).fold(0.0f64, f64::max);

    // The uniform-adversary escape hatch, pinned against its chain anchor.
    let target = SetExpr::named("C");
    let within = 13;
    let uniform_exact = exact_reach_uniform(n, &FaultPlan::none(), &target, within, limit)?;
    let uniform_est = estimate_reach_uniform(n, &FaultPlan::none(), &target, within, &mc)?;
    let uniform_interval = uniform_est.interval(Z_99);
    fragments.push(format!("uniform|{}", uniform_est.digest_fragment()));
    totals.0 += uniform_est.trials();
    totals.1 += uniform_est.total_steps();
    totals.2 += uniform_est.early_stops();
    totals.3 += uniform_est.rng_draws();
    let uniform = McUniformCheck {
        target: target.to_string(),
        within,
        exact: uniform_exact,
        point: uniform_est.point(),
        lo: uniform_interval.lo().value(),
        hi: uniform_interval.hi().value(),
        contains_exact: uniform_interval.contains(pa_prob::Prob::clamped(uniform_exact)),
    };

    // Worker invariance: the same seed must produce bitwise-identical
    // integer accumulators regardless of how trajectories are striped.
    let mut worker_fragments = Vec::new();
    for workers in [1usize, 2, 8] {
        let est = estimate_reach_uniform(
            n,
            &FaultPlan::none(),
            &target,
            within,
            &mc.with_workers(workers),
        )?;
        worker_fragments.push(est.digest_fragment());
    }
    let worker_invariant = worker_fragments.windows(2).all(|w| w[0] == w[1]);

    let digest = format!(
        "{:016x}",
        pa_store::fnv1a_64(fragments.join("\n").as_bytes())
    );
    Ok(McBench {
        n,
        trajectories,
        seed,
        rows,
        skipped_vacuous,
        all_contain_exact,
        max_width,
        uniform,
        digest,
        worker_invariant,
        trajectories_total: totals.0,
        steps_total: totals.1,
        early_stops_total: totals.2,
        rng_draws_total: totals.3,
    })
}

/// The standalone sampled-tier artifact (`pa-bench/mc/v1`) the `mc-smoke`
/// CI job emits and gates — the [`McBench`] block without the throughput
/// suite around it, so the job stays fast.
#[derive(Debug, Clone, Serialize)]
pub struct McReport {
    /// Artifact format tag.
    pub schema: String,
    /// Command that regenerates the artifact.
    pub regenerate: String,
    /// Machine the numbers were taken on.
    pub machine: crate::perf::Machine,
    /// The sampled-tier block.
    pub mc: McBench,
}

/// Builds the standalone `pa-bench/mc/v1` artifact.
///
/// # Errors
///
/// Propagates [`mc_bench`] errors.
pub fn mc_report(
    n: usize,
    trajectories: u64,
    seed: u64,
    limit: usize,
) -> Result<McReport, Box<dyn Error>> {
    Ok(McReport {
        schema: "pa-bench/mc/v1".to_string(),
        regenerate: format!(
            "cargo run --release -p pa-bench --bin tables -- --mc --trajectories {trajectories} \
             --seed {seed}"
        ),
        machine: crate::perf::machine(),
        mc: mc_bench(n, trajectories, seed, limit)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mc_bench_n3_contains_exact_everywhere() {
        let b = mc_bench(3, 2_000, 42, 5_000_000).unwrap();
        assert!(b.all_contain_exact, "rows: {:?}", b.rows);
        assert!(b.uniform.contains_exact);
        assert!(b.worker_invariant);
        assert!(!b.rows.is_empty());
        assert!(b.trajectories_total > 0 && b.rng_draws_total > 0);
        assert_eq!(b.digest.len(), 16);
        // Same seed, same digest — the determinism the baseline pins.
        let again = mc_bench(3, 2_000, 42, 5_000_000).unwrap();
        assert_eq!(b.digest, again.digest);
    }
}

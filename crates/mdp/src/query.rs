//! The unified quantitative-analysis entry point: [`Query`].
//!
//! The crate's original surface grew one free function per analysis —
//! bounded/unbounded reachability, expected cost, policy extraction —
//! each with its own signature for the same knobs (objective, tolerance,
//! workers, target). Those free functions are gone; [`Query`] folds every
//! analysis into one builder:
//!
//! ```
//! use pa_mdp::{Choice, ExplicitMdp, Query, QueryObjective};
//!
//! # fn main() -> Result<(), pa_mdp::MdpError> {
//! // Geometric trial: win a coin flip once per time unit.
//! let m = ExplicitMdp::new(
//!     vec![vec![Choice::dist(1, vec![(1, 0.5), (0, 0.5)])], vec![]],
//!     vec![0],
//! )?;
//! let analysis = Query::over(&m)
//!     .objective(QueryObjective::MinProb)
//!     .target(vec![false, true])
//!     .horizon(3)
//!     .run()?;
//! assert!((analysis.values[0] - 0.875).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```
//!
//! Targets are accepted as a `bool` mask, a list of state indices, or (via
//! [`Query::target_where`]) a predicate, resolving the historical
//! `target: &[bool]`-vs-predicate split between `csr.rs` and `explore.rs`.
//! Every failure surfaces as a single [`MdpError::Query`] carrying the
//! stage that failed and the root cause as its
//! [`source`](std::error::Error::source).
//!
//! # One engine for every backend
//!
//! Every query runs on the block engines of [`crate::source`], whatever the
//! model: a nested [`ExplicitMdp`] (flattened once by [`Query::over`]), an
//! in-core [`CsrMdp`] (a single block) or an out-of-core [`CsrSource`]
//! (many blocks paged through a cache). Sweeps are double-buffered Jacobi
//! iterations, chunked inside each block across [`Query::workers`]
//! threads, and bit-for-bit identical for every worker count and every
//! block split.

use crate::source::{self, CsrSource, SolveStats};
use crate::{
    resolve_workers, BoundedPolicy, CsrMdp, ExplicitMdp, IterOptions, MdpError, Objective,
};

/// What a [`Query`] optimizes, quantifying over all adversaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryObjective {
    /// Minimal probability of reaching the target (the quantifier in the
    /// paper's `U —t→_p U'` statements).
    MinProb,
    /// Maximal probability of reaching the target.
    MaxProb,
    /// Minimal expected accumulated cost to the target.
    MinCost,
    /// Maximal expected accumulated cost to the target (Section 6.2).
    MaxCost,
}

impl From<Objective> for QueryObjective {
    fn from(o: Objective) -> QueryObjective {
        match o {
            Objective::MinProb => QueryObjective::MinProb,
            Objective::MaxProb => QueryObjective::MaxProb,
        }
    }
}

/// Anything [`Query::target`] accepts: a per-state `bool` mask or a list
/// of target state indices.
pub trait IntoTarget {
    /// Resolves to a `bool` mask over `num_states` states.
    fn into_target(self, num_states: usize) -> Result<Vec<bool>, MdpError>;
}

impl IntoTarget for Vec<bool> {
    fn into_target(self, num_states: usize) -> Result<Vec<bool>, MdpError> {
        if self.len() != num_states {
            return Err(MdpError::TargetLengthMismatch {
                got: self.len(),
                expected: num_states,
            });
        }
        Ok(self)
    }
}

impl IntoTarget for &[bool] {
    fn into_target(self, num_states: usize) -> Result<Vec<bool>, MdpError> {
        self.to_vec().into_target(num_states)
    }
}

impl IntoTarget for &Vec<bool> {
    fn into_target(self, num_states: usize) -> Result<Vec<bool>, MdpError> {
        self.clone().into_target(num_states)
    }
}

impl<const N: usize> IntoTarget for &[bool; N] {
    fn into_target(self, num_states: usize) -> Result<Vec<bool>, MdpError> {
        self.as_slice().into_target(num_states)
    }
}

impl IntoTarget for &[usize] {
    fn into_target(self, num_states: usize) -> Result<Vec<bool>, MdpError> {
        let mut mask = vec![false; num_states];
        for &s in self {
            if s >= num_states {
                return Err(MdpError::BadStateIndex {
                    index: s,
                    num_states,
                });
            }
            mask[s] = true;
        }
        Ok(mask)
    }
}

impl IntoTarget for Vec<usize> {
    fn into_target(self, num_states: usize) -> Result<Vec<bool>, MdpError> {
        self.as_slice().into_target(num_states)
    }
}

impl<const N: usize> IntoTarget for &[usize; N] {
    fn into_target(self, num_states: usize) -> Result<Vec<bool>, MdpError> {
        self.as_slice().into_target(num_states)
    }
}

/// The typed result of [`Query::run`].
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The per-state optimal values: probabilities for the `*Prob`
    /// objectives, expected costs (with `f64::INFINITY` marking divergent
    /// states) for the `*Cost` objectives.
    pub values: Vec<f64>,
    /// The optimal cost-indexed policy, when [`Query::with_policy`] was
    /// requested.
    pub policy: Option<BoundedPolicy>,
    /// Work counters of the solve (sweeps, state updates).
    pub stats: SolveStats,
    /// The objective that was solved.
    pub objective: QueryObjective,
    /// The time horizon, if the query was cost-bounded.
    pub horizon: Option<u32>,
}

impl Analysis {
    /// The value of one state.
    pub fn value(&self, state: usize) -> f64 {
        self.values[state]
    }
}

/// The model a query runs against: a CSR flattened and owned by the query
/// itself, or any borrowed [`CsrSource`] backend (an in-core [`CsrMdp`],
/// so repeated queries amortize the flattening, or an out-of-core stored
/// model).
enum QueryModel<'m> {
    Owned(CsrMdp),
    Source(&'m dyn CsrSource),
}

impl QueryModel<'_> {
    fn source(&self) -> &dyn CsrSource {
        match self {
            QueryModel::Owned(m) => m,
            QueryModel::Source(s) => *s,
        }
    }
}

/// A builder for one quantitative analysis over all adversaries: pick an
/// objective, a target, optionally a time horizon / tolerance / worker
/// count / policy extraction, then [`run`](Query::run).
///
/// See the [module docs](self) for an example.
pub struct Query<'m> {
    model: QueryModel<'m>,
    objective: QueryObjective,
    target: Option<Result<Vec<bool>, MdpError>>,
    horizon: Option<u32>,
    options: IterOptions,
    workers: Option<usize>,
    with_policy: bool,
}

impl Query<'static> {
    /// Starts a query over a nested model, flattening it to CSR once.
    pub fn over(mdp: &ExplicitMdp) -> Query<'static> {
        Query::new(QueryModel::Owned(CsrMdp::from_explicit(mdp)))
    }
}

impl<'m> Query<'m> {
    /// Starts a query over an already-flattened model.
    pub fn csr(mdp: &'m CsrMdp) -> Query<'m> {
        Query::new(QueryModel::Source(mdp))
    }

    /// Starts a query over any CSR backend — in-core or out-of-core —
    /// behind the [`CsrSource`] trait. Results are bitwise identical to the
    /// same query over the in-core model (see the [`crate::source`] module
    /// docs).
    pub fn source(src: &'m dyn CsrSource) -> Query<'m> {
        Query::new(QueryModel::Source(src))
    }

    fn new(model: QueryModel<'m>) -> Query<'m> {
        Query {
            model,
            objective: QueryObjective::MinProb,
            target: None,
            horizon: None,
            options: IterOptions::default(),
            workers: None,
            with_policy: false,
        }
    }

    /// Sets the objective (default [`QueryObjective::MinProb`]).
    pub fn objective(mut self, objective: impl Into<QueryObjective>) -> Self {
        self.objective = objective.into();
        self
    }

    /// Sets the target set: a `bool` mask (`Vec<bool>` / `&[bool]`) or a
    /// list of state indices (`Vec<usize>` / `&[usize]`). Resolution
    /// errors are deferred to [`Query::run`].
    pub fn target(mut self, target: impl IntoTarget) -> Self {
        let n = self.model.source().num_states();
        self.target = Some(target.into_target(n));
        self
    }

    /// Sets the target set from a predicate over state indices.
    pub fn target_where(mut self, mut pred: impl FnMut(usize) -> bool) -> Self {
        let n = self.model.source().num_states();
        self.target = Some(Ok((0..n).map(&mut pred).collect()));
        self
    }

    /// Bounds the total accumulated cost (time, under the round-based
    /// model): the query becomes cost-bounded backward induction.
    /// Probability objectives only.
    pub fn horizon(mut self, budget: u32) -> Self {
        self.horizon = Some(budget);
        self
    }

    /// Sets the convergence tolerance of iterative solves.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.options.epsilon = epsilon;
        self
    }

    /// Caps the number of sweeps of iterative solves.
    pub fn max_sweeps(mut self, max_sweeps: usize) -> Self {
        self.options.max_sweeps = max_sweeps;
        self
    }

    /// Sets both iteration options at once.
    pub fn options(mut self, options: IterOptions) -> Self {
        self.options = options;
        self
    }

    /// Forces the worker count of parallel sweeps on every backend
    /// (default: the `PA_MDP_WORKERS` environment variable, then available
    /// parallelism; see [`crate::resolve_workers`]). The values do not
    /// depend on it.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Also extracts the optimal cost-indexed policy (the concrete
    /// worst-case or best-case adversary). Requires a [`Query::horizon`].
    pub fn with_policy(mut self) -> Self {
        self.with_policy = true;
        self
    }

    /// Runs the analysis.
    ///
    /// # Errors
    ///
    /// Always a [`MdpError::Query`] naming the failed stage, with the root
    /// cause in its [`source`](std::error::Error::source) chain:
    /// `"target"` for a missing or malformed target, `"validate"` for an
    /// unsupported setting combination ([`MdpError::InvalidQuery`] inside),
    /// `"solve"` for failures of the underlying analysis.
    pub fn run(self) -> Result<Analysis, MdpError> {
        let wrap = |stage: &'static str| {
            move |e: MdpError| MdpError::Query {
                stage,
                source: Box::new(e),
            }
        };
        let target = self
            .target
            .ok_or(MdpError::InvalidQuery {
                reason: "no target set; call .target(...) or .target_where(...)".into(),
            })
            .and_then(|t| t)
            .map_err(wrap("target"))?;
        let mut stats = SolveStats::default();
        let src = self.model.source();
        let workers = resolve_workers(self.workers);

        let prob_objective = match self.objective {
            QueryObjective::MinProb => Some(Objective::MinProb),
            QueryObjective::MaxProb => Some(Objective::MaxProb),
            QueryObjective::MinCost | QueryObjective::MaxCost => None,
        };
        let values;
        let mut policy = None;
        match (prob_objective, self.horizon) {
            (Some(objective), Some(budget)) => {
                let mut decisions: Vec<Vec<Option<u32>>> = Vec::new();
                values = source::bounded_levels_src(
                    src,
                    &target,
                    budget,
                    objective,
                    workers,
                    self.with_policy.then_some(&mut decisions),
                    &mut |_, _| {},
                    &mut stats,
                )
                .map_err(wrap("solve"))?;
                if self.with_policy {
                    policy = Some(BoundedPolicy {
                        decision: decisions,
                    });
                }
            }
            (Some(objective), None) => {
                if self.with_policy {
                    return Err(wrap("validate")(MdpError::InvalidQuery {
                        reason: "policy extraction requires a horizon (cost-indexed policies \
                                 are only defined for bounded queries)"
                            .into(),
                    }));
                }
                values = source::reach_prob_src(
                    src,
                    &target,
                    objective,
                    self.options,
                    workers,
                    &mut stats,
                )
                .map_err(wrap("solve"))?;
            }
            (None, horizon) => {
                if horizon.is_some() || self.with_policy {
                    return Err(wrap("validate")(MdpError::InvalidQuery {
                        reason: "expected-cost objectives support neither a horizon nor \
                                 policy extraction"
                            .into(),
                    }));
                }
                values = match self.objective {
                    QueryObjective::MaxCost => source::max_expected_cost_src(
                        src,
                        &target,
                        self.options,
                        workers,
                        &mut stats,
                    ),
                    _ => source::min_expected_cost_src(
                        src,
                        &target,
                        self.options,
                        workers,
                        &mut stats,
                    ),
                }
                .map_err(wrap("solve"))?;
            }
        }
        Ok(Analysis {
            values,
            policy,
            stats,
            objective: self.objective,
            horizon: self.horizon,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Choice;

    fn geometric() -> ExplicitMdp {
        ExplicitMdp::new(
            vec![vec![Choice::dist(1, vec![(1, 0.5), (0, 0.5)])], vec![]],
            vec![0],
        )
        .unwrap()
    }

    #[test]
    fn target_accepts_mask_indices_and_predicate() {
        let m = geometric();
        let by_mask = Query::over(&m)
            .target(vec![false, true])
            .horizon(3)
            .run()
            .unwrap();
        let by_index = Query::over(&m).target(vec![1]).horizon(3).run().unwrap();
        let by_pred = Query::over(&m)
            .target_where(|s| s == 1)
            .horizon(3)
            .run()
            .unwrap();
        assert_eq!(by_mask.values, by_index.values);
        assert_eq!(by_mask.values, by_pred.values);
        assert_eq!(by_mask.values[0], 0.875);
    }

    #[test]
    fn missing_target_is_reported_at_the_target_stage() {
        let err = Query::over(&geometric()).horizon(1).run().unwrap_err();
        assert!(matches!(
            err,
            MdpError::Query {
                stage: "target",
                ..
            }
        ));
        assert!(matches!(err.into_root(), MdpError::InvalidQuery { .. }));
    }

    #[test]
    fn out_of_range_index_target_surfaces_bad_state_index() {
        let err = Query::over(&geometric())
            .target(vec![7usize])
            .horizon(1)
            .run()
            .unwrap_err();
        assert_eq!(
            err.into_root(),
            MdpError::BadStateIndex {
                index: 7,
                num_states: 2
            }
        );
    }

    #[test]
    fn horizon_on_cost_objective_is_rejected() {
        let err = Query::over(&geometric())
            .objective(QueryObjective::MaxCost)
            .target(vec![1])
            .horizon(3)
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            MdpError::Query {
                stage: "validate",
                ..
            }
        ));
    }

    #[test]
    fn unbounded_policy_extraction_is_rejected() {
        let err = Query::over(&geometric())
            .target(vec![1])
            .with_policy()
            .run()
            .unwrap_err();
        assert!(matches!(err.into_root(), MdpError::InvalidQuery { .. }));
    }

    #[test]
    fn expected_cost_objective_runs() {
        let a = Query::over(&geometric())
            .objective(QueryObjective::MaxCost)
            .target(vec![1])
            .run()
            .unwrap();
        assert!((a.values[0] - 2.0).abs() < 1e-6);
    }
}

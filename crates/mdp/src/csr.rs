//! Compressed-sparse-row MDP model: the in-core [`CsrSource`].
//!
//! The nested [`ExplicitMdp`] (`Vec<Vec<Choice>>` with a `Vec<(usize,
//! f64)>` per choice) is convenient to build but hostile to sweep over:
//! every state visit chases two levels of pointers and the transition pairs
//! interleave an 8-byte index with an 8-byte probability across thousands
//! of small allocations. [`CsrMdp`] flattens the same model into five
//! contiguous arrays —
//!
//! ```text
//! choice_offsets : n+1      per-state range into the choice arrays
//! trans_offsets  : m+1      per-choice range into the transition arrays
//! costs          : m        per-choice cost
//! targets        : k        per-transition successor (u32)
//! probs          : k        per-transition probability
//! ```
//!
//! — written once, row by row, by [`CsrBuilder`] (from a nested model, or
//! straight from a streamed exploration), so every analysis sweep is a
//! linear walk.
//!
//! A `CsrMdp` is a [`CsrSource`] with a single block spanning every state.
//! It has no solver of its own: its analysis methods are one-line calls
//! into the block engines of [`crate::source`], which are shared with every
//! out-of-core backend and parallelize deterministically inside a block
//! (see the `source` module docs).

use crate::source::{self, CsrRows, CsrSource, SolveStats};
use crate::{resolve_workers, Choice, ExplicitMdp, IterOptions, MdpError, Objective, RowSink};

/// A compressed-sparse-row MDP, written by [`CsrBuilder`].
///
/// Indices are `u32` internally (a model with 4 billion choices or
/// transitions would not fit in memory as nested vectors either); the
/// builder checks the bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMdp {
    /// `choice_offsets[s]..choice_offsets[s+1]` are state `s`'s choices.
    choice_offsets: Vec<u32>,
    /// `trans_offsets[c]..trans_offsets[c+1]` are choice `c`'s transitions.
    trans_offsets: Vec<u32>,
    /// Cost of each choice.
    costs: Vec<u32>,
    /// Successor state of each transition.
    targets: Vec<u32>,
    /// Probability of each transition.
    probs: Vec<f64>,
    /// Initial state indices.
    initial: Vec<usize>,
}

impl CsrMdp {
    /// Flattens a validated nested model. Choice and transition order are
    /// preserved exactly, so analyses on the CSR form visit successors in
    /// the same order (and produce bitwise-identical floating-point
    /// results) as the same algorithm on the nested form.
    pub fn from_explicit(mdp: &ExplicitMdp) -> CsrMdp {
        let mut builder =
            CsrBuilder::with_capacity(mdp.num_states(), mdp.num_choices(), mdp.num_transitions());
        for s in 0..mdp.num_states() {
            builder
                .push_row(mdp.choices(s))
                .expect("model too large for u32 CSR offsets");
        }
        builder.finish(mdp.initial_states().to_vec())
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.choice_offsets.len() - 1
    }

    /// Total number of choices.
    pub fn num_choices(&self) -> usize {
        self.costs.len()
    }

    /// Total number of probabilistic transitions.
    pub fn num_transitions(&self) -> usize {
        self.targets.len()
    }

    /// The initial state indices.
    pub fn initial_states(&self) -> &[usize] {
        &self.initial
    }

    /// Heap bytes held by the flattened arrays (offsets, costs, targets,
    /// probabilities, initial states): the CSR share of what a model
    /// cache accounts a resident slot at when enforcing a byte budget.
    pub fn mem_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.choice_offsets.capacity() * size_of::<u32>()
            + self.trans_offsets.capacity() * size_of::<u32>()
            + self.costs.capacity() * size_of::<u32>()
            + self.targets.capacity() * size_of::<u32>()
            + self.probs.capacity() * size_of::<f64>()
            + self.initial.capacity() * size_of::<usize>()) as u64
    }

    /// The flat choice-index range of a state.
    #[inline]
    pub fn choice_range(&self, s: usize) -> std::ops::Range<usize> {
        self.choice_offsets[s] as usize..self.choice_offsets[s + 1] as usize
    }

    /// The flat transition-index range of a choice.
    #[inline]
    pub fn trans_range(&self, c: usize) -> std::ops::Range<usize> {
        self.trans_offsets[c] as usize..self.trans_offsets[c + 1] as usize
    }

    /// The cost of a flat choice index.
    #[inline]
    pub fn cost(&self, c: usize) -> u32 {
        self.costs[c]
    }

    /// The `(successor, probability)` pair of a flat transition index.
    #[inline]
    pub fn transition(&self, i: usize) -> (usize, f64) {
        (self.targets[i] as usize, self.probs[i])
    }

    /// States with **maximal** reachability probability zero (no path to
    /// the target).
    pub fn prob0_max(&self, target: &[bool]) -> Result<Vec<bool>, MdpError> {
        source::prob0_max_src(self, target)
    }

    /// States with **minimal** reachability probability zero: the
    /// adversary has a strategy that avoids the target surely.
    pub fn prob0_min(&self, target: &[bool]) -> Result<Vec<bool>, MdpError> {
        source::prob0_min_src(self, target)
    }

    /// States whose reachability probability under `objective` is exactly
    /// one, decided on the transition graph alone.
    pub fn prob1(&self, target: &[bool], objective: Objective) -> Result<Vec<bool>, MdpError> {
        source::prob1_src(self, target, objective)
    }

    /// Unbounded reachability `P^opt[eventually reach target]`; semantics
    /// match an unbounded reachability [`crate::Query`], `workers` as in
    /// [`resolve_workers`].
    pub fn reach_prob(
        &self,
        target: &[bool],
        objective: Objective,
        options: IterOptions,
        workers: Option<usize>,
    ) -> Result<Vec<f64>, MdpError> {
        source::reach_prob_src(
            self,
            target,
            objective,
            options,
            resolve_workers(workers),
            &mut SolveStats::default(),
        )
    }

    /// Cost-bounded reachability with a per-level callback; semantics match
    /// [`crate::cost_bounded_reach_levels`].
    pub fn cost_bounded_reach_levels(
        &self,
        target: &[bool],
        budget: u32,
        objective: Objective,
        workers: Option<usize>,
        mut on_level: impl FnMut(u32, &[f64]),
    ) -> Result<Vec<f64>, MdpError> {
        source::bounded_levels_src(
            self,
            target,
            budget,
            objective,
            resolve_workers(workers),
            None,
            &mut on_level,
            &mut SolveStats::default(),
        )
    }

    /// Worst-case expected accumulated cost; semantics match a `MaxCost`
    /// [`crate::Query`].
    pub fn max_expected_cost(
        &self,
        target: &[bool],
        options: IterOptions,
        workers: Option<usize>,
    ) -> Result<Vec<f64>, MdpError> {
        source::max_expected_cost_src(
            self,
            target,
            options,
            resolve_workers(workers),
            &mut SolveStats::default(),
        )
    }

    /// Best-case expected accumulated cost; semantics match
    /// [`crate::min_expected_cost`].
    pub fn min_expected_cost(
        &self,
        target: &[bool],
        options: IterOptions,
        workers: Option<usize>,
    ) -> Result<Vec<f64>, MdpError> {
        source::min_expected_cost_src(
            self,
            target,
            options,
            resolve_workers(workers),
            &mut SolveStats::default(),
        )
    }

    /// Whether the zero-cost off-target transition subgraph has a cycle;
    /// semantics match [`crate::has_zero_cost_cycle`].
    pub fn has_zero_cost_cycle(&self, target: &[bool]) -> Result<bool, MdpError> {
        source::has_zero_cost_cycle_src(self, target)
    }
}

impl From<&ExplicitMdp> for CsrMdp {
    fn from(mdp: &ExplicitMdp) -> CsrMdp {
        CsrMdp::from_explicit(mdp)
    }
}

/// The one writer of [`CsrMdp`]: appends state rows in dense-id order.
///
/// [`CsrMdp::from_explicit`] feeds it the rows of a nested model; as a
/// [`RowSink`] it takes the rows of [`crate::Explore::run_streamed`]
/// directly, so a model can be explored straight into CSR without the
/// nested copy ever being resident.
#[derive(Debug)]
pub struct CsrBuilder {
    choice_offsets: Vec<u32>,
    trans_offsets: Vec<u32>,
    costs: Vec<u32>,
    targets: Vec<u32>,
    probs: Vec<f64>,
}

impl Default for CsrBuilder {
    fn default() -> CsrBuilder {
        CsrBuilder::with_capacity(0, 0, 0)
    }
}

impl CsrBuilder {
    /// An empty builder with room for `states` rows, `choices` choices and
    /// `transitions` transitions.
    pub fn with_capacity(states: usize, choices: usize, transitions: usize) -> CsrBuilder {
        let mut choice_offsets = Vec::with_capacity(states + 1);
        let mut trans_offsets = Vec::with_capacity(choices + 1);
        choice_offsets.push(0);
        trans_offsets.push(0);
        CsrBuilder {
            choice_offsets,
            trans_offsets,
            costs: Vec::with_capacity(choices),
            targets: Vec::with_capacity(transitions),
            probs: Vec::with_capacity(transitions),
        }
    }

    /// Appends the next state's row, keeping choice and transition order.
    ///
    /// # Errors
    ///
    /// [`MdpError::Backend`] once the model outgrows `u32` offsets.
    pub fn push_row(&mut self, choices: &[Choice]) -> Result<(), MdpError> {
        for c in choices {
            self.costs.push(c.cost);
            for &(t, p) in &c.transitions {
                self.targets.push(t as u32);
                self.probs.push(p);
            }
            self.trans_offsets.push(self.targets.len() as u32);
        }
        if self.costs.len() >= u32::MAX as usize || self.targets.len() >= u32::MAX as usize {
            return Err(MdpError::Backend {
                reason: "model too large for u32 CSR offsets".to_string(),
            });
        }
        self.choice_offsets.push(self.costs.len() as u32);
        Ok(())
    }

    /// The finished model with start states `initial`. Growth slack is
    /// released, so [`CsrMdp::mem_bytes`] is what the model holds.
    pub fn finish(mut self, mut initial: Vec<usize>) -> CsrMdp {
        initial.shrink_to_fit();
        self.choice_offsets.shrink_to_fit();
        self.trans_offsets.shrink_to_fit();
        self.costs.shrink_to_fit();
        self.targets.shrink_to_fit();
        self.probs.shrink_to_fit();
        CsrMdp {
            choice_offsets: self.choice_offsets,
            trans_offsets: self.trans_offsets,
            costs: self.costs,
            targets: self.targets,
            probs: self.probs,
            initial,
        }
    }
}

impl RowSink for CsrBuilder {
    fn state_row(&mut self, id: usize, choices: &[Choice]) -> Result<(), MdpError> {
        debug_assert_eq!(id + 1, self.choice_offsets.len(), "rows in dense-id order");
        self.push_row(choices)
    }
}

/// An in-core model is a [`CsrSource`] with a single block spanning every
/// state: its offset arrays already start at 0, so the full slices satisfy
/// the block-relative contract as-is.
impl CsrSource for CsrMdp {
    fn num_states(&self) -> usize {
        CsrMdp::num_states(self)
    }

    fn num_choices(&self) -> u64 {
        CsrMdp::num_choices(self) as u64
    }

    fn num_transitions(&self) -> u64 {
        CsrMdp::num_transitions(self) as u64
    }

    fn initial_states(&self) -> &[usize] {
        CsrMdp::initial_states(self)
    }

    fn num_blocks(&self) -> usize {
        1
    }

    fn block_states(&self, block: usize) -> std::ops::Range<usize> {
        assert_eq!(block, 0, "CsrMdp has a single block");
        0..CsrMdp::num_states(self)
    }

    fn with_rows(&self, block: usize, f: &mut dyn FnMut(CsrRows<'_>)) -> Result<(), MdpError> {
        assert_eq!(block, 0, "CsrMdp has a single block");
        f(CsrRows {
            first_state: 0,
            choice_offsets: &self.choice_offsets,
            trans_offsets: &self.trans_offsets,
            costs: &self.costs,
            targets: &self.targets,
            probs: &self.probs,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escape() -> ExplicitMdp {
        ExplicitMdp::new(
            vec![
                vec![Choice::to(1, 1), Choice::dist(1, vec![(2, 0.5), (0, 0.5)])],
                vec![Choice::to(1, 0)],
                vec![],
            ],
            vec![0],
        )
        .unwrap()
    }

    #[test]
    fn csr_layout_matches_nested_counts() {
        let m = escape();
        let csr = CsrMdp::from_explicit(&m);
        assert_eq!(csr.num_states(), m.num_states());
        assert_eq!(csr.num_choices(), m.num_choices());
        assert_eq!(csr.num_transitions(), m.num_transitions());
        assert_eq!(csr.initial_states(), m.initial_states());
        // Spot-check flattening order: state 0's second choice.
        let c = csr.choice_range(0).nth(1).unwrap();
        assert_eq!(csr.cost(c), 1);
        let r = csr.trans_range(c);
        assert_eq!(csr.transition(r.start), (2, 0.5));
        assert_eq!(csr.transition(r.start + 1), (0, 0.5));
    }

    #[test]
    fn reach_prob_matches_known_values() {
        let csr = CsrMdp::from_explicit(&escape());
        let target = [false, false, true];
        let opts = IterOptions::default();
        let vmax = csr
            .reach_prob(&target, Objective::MaxProb, opts, Some(1))
            .unwrap();
        assert!((vmax[0] - 1.0).abs() < 1e-9);
        let vmin = csr
            .reach_prob(&target, Objective::MinProb, opts, Some(1))
            .unwrap();
        assert_eq!(vmin[0], 0.0);
    }

    #[test]
    fn worker_count_does_not_change_bits() {
        // Small model, but force the parallel path decision logic: with
        // n < PAR_MIN_STATES the sweep is serial either way, so exercise
        // the contract on a chain long enough to split.
        let n = crate::source::PAR_MIN_STATES + 17;
        let mut choices = Vec::with_capacity(n);
        for s in 0..n - 1 {
            choices.push(vec![Choice::dist(
                1,
                vec![(s + 1, 0.7), (s, 0.25), (0, 0.05)],
            )]);
        }
        choices.push(vec![]);
        let m = ExplicitMdp::new(choices, vec![0]).unwrap();
        let csr = CsrMdp::from_explicit(&m);
        let target: Vec<bool> = (0..n).map(|s| s == n - 1).collect();
        let opts = IterOptions {
            epsilon: 1e-10,
            max_sweeps: 50_000,
        };
        let serial = csr
            .reach_prob(&target, Objective::MinProb, opts, Some(1))
            .unwrap();
        let parallel = csr
            .reach_prob(&target, Objective::MinProb, opts, Some(3))
            .unwrap();
        assert_eq!(serial, parallel, "Jacobi sweeps must be chunk-invariant");
    }

    #[test]
    fn zero_cost_cycle_check_matches_semantics() {
        let cyclic = ExplicitMdp::new(
            vec![
                vec![Choice::to(0, 1)],
                vec![Choice::to(0, 0), Choice::to(1, 2)],
                vec![],
            ],
            vec![0],
        )
        .unwrap();
        let csr = CsrMdp::from_explicit(&cyclic);
        assert!(csr.has_zero_cost_cycle(&[false, false, true]).unwrap());
        assert!(!csr.has_zero_cost_cycle(&[true, false, false]).unwrap());
    }
}

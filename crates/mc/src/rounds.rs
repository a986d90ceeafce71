use pa_prob::rng::SplitMix64;

use crate::engine::Trajectory;

/// A system that can be simulated one *time unit* (round) at a time.
///
/// Implementors embed both the probabilistic dynamics (coin flips) and the
/// scheduling policy (a concrete adversary) — the simulator only drives
/// rounds and observes states. One round corresponds to one unit of the
/// paper's time: under the `Unit-Time` schema every ready process takes at
/// least one step per round.
pub trait Simulable {
    /// The observable system state.
    type State: Clone;

    /// Draws an initial state. Most systems are deterministic here; the
    /// RNG allows randomized initial conditions (e.g. random `uᵢ` values —
    /// the paper's start state leaves each `uᵢ` arbitrary).
    fn initial(&self, rng: &mut SplitMix64) -> Self::State;

    /// Advances the state by one time unit.
    fn step_round(&self, state: Self::State, rng: &mut SplitMix64) -> Self::State;
}

/// The trial body of [`crate::estimate_rounds`]: runs one trial until
/// `pred` holds or `max_rounds` elapse. The hit round is 0 when the
/// initial state already satisfies `pred`; `step_round` is never called
/// once the budget is spent.
pub(crate) fn rounds_to_hit<S: Simulable>(
    system: &S,
    pred: impl Fn(&S::State) -> bool,
    max_rounds: u32,
    rng: &mut SplitMix64,
) -> Trajectory {
    let mut state = system.initial(rng);
    if pred(&state) {
        return Trajectory::hit(0, 0);
    }
    for round in 1..=max_rounds {
        state = system.step_round(state, rng);
        if pred(&state) {
            return Trajectory::hit(round, u64::from(round));
        }
    }
    Trajectory::miss(false, u64::from(max_rounds))
}

/// A recorded trajectory: the states after each round, including the
/// initial state at index 0.
#[derive(Debug, Clone)]
pub struct Trace<S> {
    /// `states[k]` is the state after `k` rounds.
    pub states: Vec<S>,
}

impl<S> Trace<S> {
    /// Number of rounds simulated (states minus the initial one).
    pub fn rounds(&self) -> u32 {
        (self.states.len() - 1) as u32
    }

    /// The first round at which `pred` holds, if any.
    pub fn first_hit(&self, pred: impl FnMut(&S) -> bool) -> Option<u32> {
        self.states.iter().position(pred).map(|i| i as u32)
    }
}

/// Records a full trajectory of `rounds` rounds.
pub fn record_trace<S: Simulable>(
    system: &S,
    rounds: u32,
    rng: &mut SplitMix64,
) -> Trace<S::State> {
    let mut states = Vec::with_capacity(rounds as usize + 1);
    let mut state = system.initial(rng);
    states.push(state.clone());
    for _ in 0..rounds {
        state = system.step_round(state, rng);
        states.push(state.clone());
    }
    Trace { states }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    /// A counter that increments by 1 or 2 per round, uniformly.
    struct Counter;

    impl Simulable for Counter {
        type State = u32;

        fn initial(&self, _rng: &mut SplitMix64) -> u32 {
            0
        }

        fn step_round(&self, state: u32, rng: &mut SplitMix64) -> u32 {
            state + if rng.random_bool(0.5) { 2 } else { 1 }
        }
    }

    #[test]
    fn rounds_to_hit_finds_threshold() {
        let mut rng = SplitMix64::new(1);
        let out = rounds_to_hit(&Counter, |s| *s >= 10, 100, &mut rng);
        let hit = out.hit_at.unwrap();
        assert!((5..=10).contains(&hit));
        assert_eq!(out.steps, u64::from(hit));
    }

    #[test]
    fn rounds_to_hit_checks_initial_state() {
        let mut rng = SplitMix64::new(1);
        let out = rounds_to_hit(&Counter, |s| *s == 0, 100, &mut rng);
        assert_eq!((out.hit_at, out.steps), (Some(0), 0));
        assert_eq!(rng.draws(), 0);
    }

    #[test]
    fn rounds_to_hit_censors_at_cap() {
        let mut rng = SplitMix64::new(1);
        let out = rounds_to_hit(&Counter, |s| *s >= 1000, 10, &mut rng);
        assert_eq!((out.hit_at, out.early, out.steps), (None, false, 10));
        // One coin per round, and none after the budget is spent.
        assert_eq!(rng.draws(), 10);
    }

    #[test]
    fn trace_records_every_round() {
        let mut rng = SplitMix64::new(2);
        let trace = record_trace(&Counter, 7, &mut rng);
        assert_eq!(trace.rounds(), 7);
        assert_eq!(trace.states.len(), 8);
        assert_eq!(trace.states[0], 0);
        // Strictly increasing by 1 or 2 per round.
        for w in trace.states.windows(2) {
            assert!(w[1] - w[0] >= 1 && w[1] - w[0] <= 2);
        }
    }

    #[test]
    fn first_hit_matches_threshold_crossing() {
        let mut rng = SplitMix64::new(3);
        let trace = record_trace(&Counter, 50, &mut rng);
        let hit = trace.first_hit(|s| *s >= 10).unwrap();
        assert!(trace.states[hit as usize] >= 10);
        assert!(trace.states[hit as usize - 1] < 10);
        // The trial body sees the same draws, so it finds the same round.
        let out = rounds_to_hit(&Counter, |s| *s >= 10, 50, &mut SplitMix64::new(3));
        assert_eq!(out.hit_at, Some(hit));
    }

    #[test]
    fn same_seed_same_trajectory() {
        let t1 = record_trace(&Counter, 20, &mut SplitMix64::new(9));
        let t2 = record_trace(&Counter, 20, &mut SplitMix64::new(9));
        assert_eq!(t1.states, t2.states);
    }
}

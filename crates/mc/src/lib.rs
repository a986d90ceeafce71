//! Seeded deterministic Monte-Carlo estimation tier for the `timebounds`
//! workspace — the scalability escape hatch when exact value iteration
//! cannot hold the model.
//!
//! The exact `pa-mdp` checker answers `U —t→_p U'` queries by exploring
//! the full reachable state space; on the Lehmann–Rabin ring that wall is
//! around `n = 7` (2.16M states). This crate estimates the same
//! quantities by sampling trajectories of the *implicit* model instead:
//!
//! * [`estimate_reach`] runs a batch of trajectories of any
//!   [`pa_core::Automaton`] under a pluggable [`SamplePolicy`] (the
//!   embedded adversary), accumulating first-hit times against a cost
//!   budget into an [`McEstimate`].
//! * [`estimate_rounds`] runs the same engine over a [`Simulable`] system —
//!   dynamics plus a concrete scheduler, driven one round (time unit) at a
//!   time — and accumulates first-hit rounds. [`McEstimate::prob_within`]
//!   reads the empirical hitting-time CDF off the histogram, and
//!   [`McEstimate::time_stats`] the hitting-time statistics.
//! * Determinism contract: trajectory `i` always runs on the private
//!   stream `SplitMix64::for_trial(seed, i)`, and the accumulator is
//!   integer-only (a first-hit-time histogram), so the result is bitwise
//!   identical for every worker count — the same contract the exact
//!   engine's parallel explorer keeps.
//! * Cross-validation: [`OptimalReplay`] replays the cost-indexed optimal
//!   policy extracted by [`pa_mdp::Query::with_policy`] on the implicit
//!   model (choice order is preserved by [`pa_mdp::Explored`]), so on
//!   small instances the sampled estimand *equals* the exact query value
//!   and the Wilson interval must contain it.
//! * [`UniformChain`] wraps an automaton so that the uniform-random
//!   policy becomes the model's only adversary; exact queries over the
//!   wrapped chain cross-validate [`UniformPolicy`] estimates.
//!
//! Estimates carry Wilson intervals for probabilities
//! ([`McEstimate::interval`]) and CLT intervals for conditional hitting
//! times ([`McEstimate::mean_time_ci`]), both from `pa-prob`.
//!
//! # Example
//!
//! ```
//! use pa_mc::{estimate_rounds, McConfig, Simulable};
//! use pa_prob::rng::SplitMix64;
//! use rand::RngExt;
//!
//! /// A process that wins one fair coin flip per round.
//! struct Coin;
//!
//! impl Simulable for Coin {
//!     type State = bool;
//!     fn initial(&self, _rng: &mut SplitMix64) -> bool { false }
//!     fn step_round(&self, won: bool, rng: &mut SplitMix64) -> bool {
//!         won || rng.random_bool(0.5)
//!     }
//! }
//!
//! # fn main() -> Result<(), pa_mc::McError> {
//! let est = estimate_rounds(&Coin, |w| *w, &McConfig::new(5_000, 42, 3))?;
//! assert!((est.point() - 0.875).abs() < 0.05);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod config;
mod engine;
mod error;
mod estimate;
mod policy;
mod rounds;

pub use chain::{chain_target, ChainAction, ChainState, UniformChain};
pub use config::McConfig;
pub use engine::{estimate_reach, estimate_rounds};
pub use error::McError;
pub use estimate::McEstimate;
pub use policy::{FirstPolicy, OptimalReplay, SamplePolicy, UniformPolicy};
pub use rounds::{record_trace, Simulable, Trace};

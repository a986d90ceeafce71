//! Rate-based fault models: [`FaultModel`] compiles a seeded random fault
//! process into a concrete [`FaultPlan`].
//!
//! Compilation is a pure function of `(model, n)`: each `(round, process)`
//! cell draws from its own [`SplitMix64`] stream derived by
//! [`SplitMix64::for_trial`], in a fixed draw order (crash before drop).
//! Re-compiling with the same seed therefore yields the identical plan —
//! and hence bitwise-identical explored models and survival maps — no
//! matter how many cells other code has drawn in between.

use pa_prob::rng::SplitMix64;
use rand::RngExt;
use serde::Serialize;

use crate::{FaultError, FaultEvent, FaultKind, FaultPlan, MAX_DOWNTIME};

/// A seeded, rate-based fault process over a bounded horizon of rounds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultModel {
    /// Master seed; every `(round, process)` cell derives its own stream.
    pub seed: u64,
    /// Faults are drawn for rounds `1..=horizon`.
    pub horizon: u32,
    /// Per-round, per-process probability of a crash.
    pub crash_rate: f64,
    /// `None` makes crashes permanent (crash-stop); `Some(d)` makes them
    /// crash-restarts with downtime `d`.
    pub restart_downtime: Option<u32>,
    /// Per-round, per-process probability of an obligation drop (drawn
    /// only when the cell did not crash).
    pub drop_rate: f64,
}

impl FaultModel {
    /// Compiles the model into the concrete plan for a ring of `n`.
    ///
    /// # Errors
    ///
    /// [`FaultError::BadRate`] for rates outside `[0, 1]` and
    /// [`FaultError::BadDowntime`] for an unencodable restart downtime.
    pub fn compile(&self, n: usize) -> Result<FaultPlan, FaultError> {
        for (field, value) in [
            ("crash_rate", self.crash_rate),
            ("drop_rate", self.drop_rate),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(FaultError::BadRate { field, value });
            }
        }
        if let Some(d) = self.restart_downtime {
            if d == 0 || d > MAX_DOWNTIME {
                return Err(FaultError::BadDowntime { downtime: d });
            }
        }
        let mut events = Vec::new();
        for round in 1..=self.horizon {
            for process in 0..n {
                let cell = u64::from(round) * n as u64 + process as u64;
                let mut rng = SplitMix64::for_trial(self.seed, cell);
                if rng.random_bool(self.crash_rate) {
                    let kind = match self.restart_downtime {
                        Some(downtime) => FaultKind::CrashRestart { downtime },
                        None => FaultKind::CrashStop,
                    };
                    events.push(FaultEvent {
                        round,
                        process,
                        kind,
                    });
                } else if rng.random_bool(self.drop_rate) {
                    events.push(FaultEvent {
                        round,
                        process,
                        kind: FaultKind::DropObligation,
                    });
                }
            }
        }
        FaultPlan::new(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> FaultModel {
        FaultModel {
            seed: 42,
            horizon: 10,
            crash_rate: 0.2,
            restart_downtime: Some(2),
            drop_rate: 0.3,
        }
    }

    #[test]
    fn compilation_is_deterministic_in_the_seed() {
        let a = model().compile(3).unwrap();
        let b = model().compile(3).unwrap();
        assert_eq!(a, b);
        let mut other = model();
        other.seed = 43;
        assert_ne!(
            other.compile(3).unwrap(),
            a,
            "a different seed must shift faults"
        );
    }

    #[test]
    fn rates_control_which_kinds_appear() {
        let plan = model().compile(3).unwrap();
        assert!(!plan.is_empty(), "20%/30% rates over 30 cells hit w.h.p.");
        assert!(plan.events().iter().all(|e| matches!(
            e.kind,
            FaultKind::CrashRestart { downtime: 2 } | FaultKind::DropObligation
        )));
        let mut stop = model();
        stop.restart_downtime = None;
        stop.drop_rate = 0.0;
        assert!(stop
            .compile(3)
            .unwrap()
            .events()
            .iter()
            .all(|e| e.kind == FaultKind::CrashStop));
    }

    #[test]
    fn zero_rates_compile_to_the_empty_plan() {
        let mut m = model();
        m.crash_rate = 0.0;
        m.drop_rate = 0.0;
        assert_eq!(m.compile(5).unwrap(), FaultPlan::none());
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let mut m = model();
        m.crash_rate = 1.5;
        assert!(matches!(m.compile(3), Err(FaultError::BadRate { .. })));
        let mut m = model();
        m.restart_downtime = Some(15);
        assert!(matches!(m.compile(3), Err(FaultError::BadDowntime { .. })));
    }
}

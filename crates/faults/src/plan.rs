//! Scripted fault schedules: [`FaultPlan`] lists exactly which process
//! suffers which [`FaultKind`] at which round.
//!
//! Rounds are the 1-based time units of the round model
//! ([`pa_lehmann_rabin::RoundMdp`]): round `k` covers the patient-time
//! interval `(k−1, k]`, and an event scheduled for round `r` takes effect
//! at the *start* of round `r` (time `r−1`). A plan is a total, replayable
//! description — the same plan always injects the same faults, which is
//! what makes survival maps reproducible.

use serde::{Object, Serialize};

use crate::FaultError;

/// Maximum encodable crash-restart downtime (the round model packs
/// per-process status into 4-bit nibbles, with `0xF` reserved for
/// crash-stop).
pub const MAX_DOWNTIME: u32 = 14;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The process halts permanently. It keeps any resources it holds —
    /// the adversarial reading of a crash in the Dining Philosophers
    /// setting (a crashed holder blocks its neighbours forever).
    CrashStop,
    /// The process halts and recovers after `downtime` round closures,
    /// resuming from its pre-crash local state.
    CrashRestart {
        /// Rounds the process stays down (`1..=`[`MAX_DOWNTIME`]).
        downtime: u32,
    },
    /// The scheduler silently drops the process's obligation for one
    /// round: the process stays up but is not guaranteed a step, modelling
    /// a transient `Unit-Time` envelope violation.
    DropObligation,
}

impl Serialize for FaultKind {
    fn to_json(&self) -> String {
        match self {
            FaultKind::CrashStop => "crash-stop".to_json(),
            FaultKind::CrashRestart { downtime } => Object::new()
                .field("crash-restart", &Object::new().field("downtime", downtime))
                .finish(),
            FaultKind::DropObligation => "drop-obligation".to_json(),
        }
    }
}

/// One scripted fault: `process` suffers `kind` at the start of `round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct FaultEvent {
    /// The 1-based round at whose start the fault strikes.
    pub round: u32,
    /// The ring index of the affected process.
    pub process: usize,
    /// What happens to it.
    pub kind: FaultKind,
}

/// A validated, replayable fault schedule: events sorted by `(round,
/// process)`, at most one event per process per round.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: no faults ever. Wrapping any model in it is an
    /// identity (the zero-fault column of a survival map).
    pub fn none() -> FaultPlan {
        FaultPlan { events: Vec::new() }
    }

    /// Builds a plan from events, sorting them into canonical order.
    ///
    /// # Errors
    ///
    /// [`FaultError::ZeroRound`] for a round-0 event,
    /// [`FaultError::BadDowntime`] for a crash-restart downtime outside
    /// `1..=`[`MAX_DOWNTIME`], and [`FaultError::DuplicateEvent`] if two
    /// events target the same process in the same round.
    pub fn new(mut events: Vec<FaultEvent>) -> Result<FaultPlan, FaultError> {
        for e in &events {
            if e.round == 0 {
                return Err(FaultError::ZeroRound);
            }
            if let FaultKind::CrashRestart { downtime } = e.kind {
                if downtime == 0 || downtime > MAX_DOWNTIME {
                    return Err(FaultError::BadDowntime { downtime });
                }
            }
        }
        events.sort_by_key(|e| (e.round, e.process));
        for w in events.windows(2) {
            if w[0].round == w[1].round && w[0].process == w[1].process {
                return Err(FaultError::DuplicateEvent {
                    round: w[0].round,
                    process: w[0].process,
                });
            }
        }
        Ok(FaultPlan { events })
    }

    /// Convenience: a single scripted event.
    ///
    /// # Errors
    ///
    /// Same validation as [`FaultPlan::new`].
    pub fn single(round: u32, process: usize, kind: FaultKind) -> Result<FaultPlan, FaultError> {
        FaultPlan::new(vec![FaultEvent {
            round,
            process,
            kind,
        }])
    }

    /// Whether the plan injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scripted events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// All events, in `(round, process)` order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The events striking at the start of `round`.
    pub fn events_at(&self, round: u32) -> &[FaultEvent] {
        let lo = self.events.partition_point(|e| e.round < round);
        let hi = self.events.partition_point(|e| e.round <= round);
        &self.events[lo..hi]
    }

    /// The last round with a scripted event (0 for the empty plan).
    pub fn max_round(&self) -> u32 {
        self.events.last().map_or(0, |e| e.round)
    }

    /// The largest process index named by the plan, if any.
    pub fn max_process(&self) -> Option<usize> {
        self.events.iter().map(|e| e.process).max()
    }

    /// Whether `process` is down (crashed and not yet recovered) during
    /// `round`, per this plan alone. Used by the fragment-level fault
    /// adversary; the round model tracks the same liveness in its state.
    pub fn down_at(&self, process: usize, round: u32) -> bool {
        let mut down_until = 0u64; // exclusive bound; u64::MAX = forever
        for e in &self.events {
            if e.round > round {
                break; // events are sorted by round
            }
            if e.process != process {
                continue;
            }
            match e.kind {
                FaultKind::CrashStop => down_until = u64::MAX,
                FaultKind::CrashRestart { downtime } => {
                    down_until = down_until.max(u64::from(e.round) + u64::from(downtime));
                }
                FaultKind::DropObligation => {}
            }
        }
        down_until == u64::MAX || u64::from(round) < down_until
    }
}

impl Serialize for FaultPlan {
    fn to_json(&self) -> String {
        self.events.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(round: u32, process: usize, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            round,
            process,
            kind,
        }
    }

    #[test]
    fn plan_sorts_and_indexes_events_by_round() {
        let plan = FaultPlan::new(vec![
            ev(3, 1, FaultKind::CrashStop),
            ev(1, 0, FaultKind::DropObligation),
            ev(3, 0, FaultKind::CrashRestart { downtime: 2 }),
        ])
        .unwrap();
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.max_round(), 3);
        assert_eq!(plan.events_at(1).len(), 1);
        assert_eq!(plan.events_at(2).len(), 0);
        let at3 = plan.events_at(3);
        assert_eq!(at3.len(), 2);
        assert_eq!(at3[0].process, 0, "events sorted by process within a round");
    }

    #[test]
    fn validation_rejects_bad_events() {
        assert!(matches!(
            FaultPlan::single(0, 0, FaultKind::CrashStop),
            Err(FaultError::ZeroRound)
        ));
        assert!(matches!(
            FaultPlan::single(1, 0, FaultKind::CrashRestart { downtime: 0 }),
            Err(FaultError::BadDowntime { .. })
        ));
        assert!(matches!(
            FaultPlan::single(1, 0, FaultKind::CrashRestart { downtime: 15 }),
            Err(FaultError::BadDowntime { .. })
        ));
        assert!(matches!(
            FaultPlan::new(vec![
                ev(2, 1, FaultKind::CrashStop),
                ev(2, 1, FaultKind::DropObligation),
            ]),
            Err(FaultError::DuplicateEvent {
                round: 2,
                process: 1
            })
        ));
    }

    #[test]
    fn down_at_tracks_crash_windows() {
        let plan = FaultPlan::new(vec![
            ev(2, 0, FaultKind::CrashRestart { downtime: 3 }),
            ev(4, 1, FaultKind::CrashStop),
            ev(1, 2, FaultKind::DropObligation),
        ])
        .unwrap();
        // Process 0 is down during rounds 2, 3, 4 and back at 5.
        assert!(!plan.down_at(0, 1));
        assert!(plan.down_at(0, 2));
        assert!(plan.down_at(0, 4));
        assert!(!plan.down_at(0, 5));
        // Process 1 stays down forever from round 4.
        assert!(!plan.down_at(1, 3));
        assert!(plan.down_at(1, 4));
        assert!(plan.down_at(1, 1000));
        // Obligation drops do not affect liveness.
        assert!(!plan.down_at(2, 1));
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.max_round(), 0);
        assert!(plan.events_at(1).is_empty());
        assert!(!plan.down_at(0, 7));
    }

    #[test]
    fn plan_serializes_to_json() {
        let plan = FaultPlan::single(2, 1, FaultKind::CrashRestart { downtime: 3 }).unwrap();
        let json = plan.to_json();
        assert!(json.contains("\"round\":2"), "{json}");
        assert!(json.contains("\"downtime\":3"), "{json}");
        assert_eq!(FaultPlan::none().to_json(), "[]");
    }
}

use std::fmt;

use pa_prob::ProbInterval;

use crate::Arrow;

/// The result of checking an [`Arrow`] claim against a model.
///
/// Produced by the exact checker in `pa-lehmann-rabin` (backed by the
/// `pa-mdp` backward-induction engine); the sampled tier (`pa-mc`)
/// estimates the same probabilities under concrete adversaries. The
/// `measured` bracket is the *minimal* probability over all adversaries of
/// the schema of reaching the target within the time bound, minimized
/// over all start states in the source set; the claim holds when the whole
/// bracket sits at or above the claimed probability.
#[derive(Debug, Clone)]
pub struct ArrowCheck {
    /// The claim that was checked.
    pub arrow: Arrow,
    /// The measured worst-case probability (bracket).
    pub measured: ProbInterval,
    /// Rendering of the start state achieving the measured minimum, when
    /// the checker identifies one.
    pub worst_state: Option<String>,
    /// Number of start states quantified over.
    pub states_checked: usize,
}

impl ArrowCheck {
    /// `true` when the measured bracket certifies the claimed bound.
    pub fn holds(&self) -> bool {
        self.measured.certainly_at_least(self.arrow.prob())
    }

    /// Slack between the measured lower endpoint and the claimed bound
    /// (positive when the model beats the paper's bound).
    pub fn slack(&self) -> f64 {
        self.measured.lo().value() - self.arrow.prob().value()
    }
}

impl fmt::Display for ArrowCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: measured {} over {} start states → {}",
            self.arrow,
            self.measured,
            self.states_checked,
            if self.holds() { "HOLDS" } else { "VIOLATED" }
        )?;
        if let Some(w) = &self.worst_state {
            write!(f, " (worst start: {w})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SetExpr;
    use pa_prob::Prob;

    fn check(measured_lo: f64, claimed: f64) -> ArrowCheck {
        ArrowCheck {
            arrow: Arrow::new(
                SetExpr::named("G"),
                SetExpr::named("P"),
                5.0,
                Prob::new(claimed).unwrap(),
            )
            .unwrap(),
            measured: ProbInterval::exact(Prob::new(measured_lo).unwrap()),
            worst_state: Some("⟨W← F W→⟩".into()),
            states_checked: 100,
        }
    }

    #[test]
    fn holds_iff_bracket_clears_claim() {
        assert!(check(0.30, 0.25).holds());
        assert!(check(0.25, 0.25).holds());
        assert!(!check(0.20, 0.25).holds());
    }

    #[test]
    fn slack_is_signed() {
        assert!(check(0.30, 0.25).slack() > 0.0);
        assert!(check(0.20, 0.25).slack() < 0.0);
    }

    #[test]
    fn display_mentions_verdict_and_worst_state() {
        let s = check(0.30, 0.25).to_string();
        assert!(s.contains("HOLDS"));
        assert!(s.contains("worst start"));
        let s = check(0.10, 0.25).to_string();
        assert!(s.contains("VIOLATED"));
    }
}

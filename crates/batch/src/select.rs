//! Budget-driven exact-vs-sampled tier selection.
//!
//! The exact engine explores the (fault-wrapped) round model over the
//! full state space, so its memory footprint is governed by the ring's
//! reachable state count. It is measured (and pinned in `BENCH_mdp.json`'s
//! `rings` block) up to `n = 7`:
//!
//! | n | states |
//! |---|--------|
//! | 3 | 536 |
//! | 4 | 4 252 |
//! | 5 | 33 848 |
//! | 6 | 270 218 |
//! | 7 | 2 161 272 |
//!
//! The space grows by roughly ×8 per process.
//!
//! [`select_kind`] keys on [`estimated_ring_states`]: when the estimate
//! fits the caller's state budget the exact [`JobKind::Arrow`] /
//! [`JobKind::Reach`] tier runs; otherwise the job degrades to
//! [`JobKind::Sampled`], whose memory is constant in `n`.

use pa_core::SetExpr;

use crate::spec::{JobKind, McSettings};

/// Measured reachable-state counts for the saturating Lehmann–Rabin round
/// model, `n = 3..=7` (the values pinned by the bench artifact).
const MEASURED: [(usize, u64); 5] = [
    (3, 536),
    (4, 4_252),
    (5, 33_848),
    (6, 270_218),
    (7, 2_161_272),
];

/// Per-process growth factor used to extrapolate beyond the measured
/// range. The measured ratios are 7.93, 7.96, 7.98, 8.00 — we round up a
/// touch so the extrapolation over-estimates (degrading to sampling early
/// is safe; exhausting memory is not).
const GROWTH: f64 = 8.2;

/// Estimated reachable-state count of the ring of `n` processes.
///
/// Exact (measured) for `n = 3..=7`, extrapolated geometrically beyond;
/// rings below the protocol minimum report 0 (they cannot be built, so
/// any budget "fits").
#[must_use]
pub fn estimated_ring_states(n: usize) -> u64 {
    if n < 3 {
        return 0;
    }
    if let Some(&(_, states)) = MEASURED.iter().find(|&&(m, _)| m == n) {
        return states;
    }
    let (last_n, last_states) = MEASURED[MEASURED.len() - 1];
    let extra = (n - last_n) as i32;
    let estimate = last_states as f64 * GROWTH.powi(extra);
    if estimate >= u64::MAX as f64 {
        u64::MAX
    } else {
        estimate as u64
    }
}

/// Chooses the analysis tier for a reachability claim on the ring of `n`
/// processes: exact ([`JobKind::Reach`]) when the estimated state count
/// fits `state_budget`, sampled ([`JobKind::Sampled`]) otherwise.
#[must_use]
pub fn select_kind(
    n: usize,
    state_budget: u64,
    target: SetExpr,
    within: u32,
    claimed: f64,
    mc: McSettings,
) -> JobKind {
    if estimated_ring_states(n) <= state_budget {
        JobKind::Reach {
            target,
            within,
            claimed,
        }
    } else {
        JobKind::Sampled {
            target,
            within,
            claimed,
            mc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_counts_are_returned_verbatim() {
        assert_eq!(estimated_ring_states(3), 536);
        assert_eq!(estimated_ring_states(7), 2_161_272);
    }

    #[test]
    fn extrapolation_grows_geometrically() {
        let n8 = estimated_ring_states(8);
        let n9 = estimated_ring_states(9);
        assert!(n8 > 17_000_000, "n=8 estimate {n8} too small");
        assert!(n9 > 8 * n8 && n9 < 9 * n8);
    }

    #[test]
    fn selection_degrades_to_sampling_over_budget() {
        let mc = McSettings {
            trajectories: 1_000,
            seed: 1,
        };
        let exact = select_kind(3, 1_000_000, SetExpr::named("C"), 13, 0.125, mc);
        assert!(matches!(exact, JobKind::Reach { .. }));
        let sampled = select_kind(8, 1_000_000, SetExpr::named("C"), 13, 0.125, mc);
        assert!(matches!(sampled, JobKind::Sampled { .. }));
    }
}

//! The round sampler: `estimate_rounds` over `Simulable` systems, checked
//! against closed-form geometric laws and a serial replay of its trials.

use pa_mc::{estimate_rounds, record_trace, McConfig, McEstimate, Simulable};
use pa_prob::rng::SplitMix64;
use pa_prob::stats::Z_99;
use pa_prob::Prob;
use proptest::prelude::*;
use rand::RngExt;

/// A biased coin per round, success probability in 1/256ths; hit = heads.
#[derive(Clone, Copy)]
struct Biased(u8);

impl Simulable for Biased {
    type State = bool;

    fn initial(&self, _rng: &mut SplitMix64) -> bool {
        false
    }

    fn step_round(&self, state: bool, rng: &mut SplitMix64) -> bool {
        state || rng.random_range(0u32..256) < u32::from(self.0)
    }
}

/// A fair coin per round.
const FAIR: Biased = Biased(128);

fn heads(s: &bool) -> bool {
    *s
}

#[test]
fn hitting_prob_matches_geometric_law() {
    let est = estimate_rounds(&FAIR, heads, &McConfig::new(20_000, 42, 3)).unwrap();
    // P[hit within 3 rounds] = 1 - (1/2)^3 = 0.875.
    let ci = est.estimator().wilson_interval(Z_99);
    assert!(ci.contains(Prob::new(0.875).unwrap()), "{ci}");
}

#[test]
fn hitting_time_mean_matches_geometric_expectation() {
    let est = estimate_rounds(&FAIR, heads, &McConfig::new(20_000, 7, 200)).unwrap();
    let (stats, censored) = est.time_stats();
    assert_eq!(censored, 0);
    assert!((stats.mean() - 2.0).abs() < 0.05, "{}", stats.mean());
}

#[test]
fn censoring_counts_trials_past_cap() {
    // Impossible predicate: every trial runs out its 5 rounds and misses.
    let est = estimate_rounds(&FAIR, |_| false, &McConfig::new(100, 1, 5)).unwrap();
    let (stats, censored) = est.time_stats();
    assert_eq!(censored, 100);
    assert_eq!(stats.count(), 0);
    assert_eq!(est.total_steps(), 500);
    assert_eq!(est.early_stops(), 0);
}

#[test]
fn cdf_is_monotone_and_matches_law() {
    let est = estimate_rounds(&FAIR, heads, &McConfig::new(20_000, 11, 30)).unwrap();
    let mut last = 0.0;
    for t in 0..=30 {
        let p = est.prob_within(t).value();
        assert!(p >= last);
        last = p;
    }
    assert!((est.prob_within(1).value() - 0.5).abs() < 0.02);
    assert!((est.prob_within(3).value() - 0.875).abs() < 0.02);
}

proptest! {
    #[test]
    fn cdf_is_monotone_and_bounded(p in 1u8..=255, seed in any::<u64>()) {
        let est = estimate_rounds(&Biased(p), heads, &McConfig::new(500, seed, 30)).unwrap();
        let mut last = 0.0;
        for t in 0..=30 {
            let v = est.prob_within(t).value();
            prop_assert!(v >= last - 1e-12);
            prop_assert!((0.0..=1.0).contains(&v));
            last = v;
        }
        prop_assert_eq!(est.trials(), 500);
    }

    #[test]
    fn cdf_counts_partition_trials(
        hits in prop::collection::vec(0u64..50, 1..10), censored in 0u64..50,
    ) {
        let mut est = McEstimate::empty(hits.len() as u32 - 1);
        for (t, &count) in hits.iter().enumerate() {
            for _ in 0..count {
                est.record(Some(t as u32), false, 0, 0);
            }
        }
        for _ in 0..censored {
            est.record(None, false, 0, 0);
        }
        let total: u64 = hits.iter().sum::<u64>() + censored;
        prop_assert_eq!(est.trials(), total);
        prop_assert_eq!(est.misses(), censored);
        if total > 0 {
            let final_p = est.prob_within(est.max_time()).value();
            let expected = (total - censored) as f64 / total as f64;
            prop_assert!((final_p - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn estimate_matches_a_serial_replay(p in 32u8..=255, seed in any::<u64>(), workers in 1usize..4) {
        let cfg = McConfig::new(400, seed, 200).with_workers(workers);
        let est = estimate_rounds(&Biased(p), heads, &cfg).unwrap();
        // Trial i on its private stream, replayed one by one.
        let mut replay = McEstimate::empty(200);
        for i in 0..400 {
            let mut rng = SplitMix64::for_trial(seed, i);
            let hit = record_trace(&Biased(p), 200, &mut rng).first_hit(heads);
            let rounds = hit.map_or(200, u64::from);
            replay.record(hit, false, rounds, rounds);
        }
        prop_assert_eq!(est.digest_fragment(), replay.digest_fragment());
    }

    #[test]
    fn higher_success_probability_hits_no_later_stochastically(seed in any::<u64>()) {
        let cfg = McConfig::new(2_000, seed, 3);
        let lo = estimate_rounds(&Biased(32), heads, &cfg).unwrap();
        let hi = estimate_rounds(&Biased(224), heads, &cfg).unwrap();
        // 7/8 per round vs 1/8 per round: a large gap that survives noise.
        prop_assert!(hi.point() > lo.point());
    }
}

//! Integration of the Monte-Carlo substrate with the case study, plus the
//! real threaded implementation (experiment E13).

use std::time::Duration;

use timebounds::lehmann_rabin::{concurrent, lemma_6_1_invariant, regions, sims};
use timebounds::mc::{estimate_rounds, record_trace, McConfig, McEstimate};
use timebounds::prob::rng::SplitMix64;

#[test]
fn invariant_holds_along_long_simulated_traces() {
    for n in [2, 3, 5, 8] {
        let sim = sims::LrSim::new(n, sims::UniformRandom)
            .unwrap()
            .with_start(sims::all_trying(n).unwrap());
        let mut rng = SplitMix64::new(n as u64);
        let trace = record_trace(&sim, 300, &mut rng);
        for s in &trace.states {
            assert!(lemma_6_1_invariant(&s.config), "n={n}: {}", s.config);
            assert!(
                timebounds::lehmann_rabin::adjacent_exclusion(&s.config),
                "n={n}: {}",
                s.config
            );
        }
    }
}

/// First rounds with some process eating, sampled from the all-trying
/// start of the ring of `n` under `scheduler`.
fn first_meals<S: sims::RoundScheduler>(n: usize, scheduler: S, cfg: &McConfig) -> McEstimate {
    let sim = sims::LrSim::new(n, scheduler)
        .unwrap()
        .with_start(sims::all_trying(n).unwrap());
    estimate_rounds(&sim, |s| regions::in_c(&s.config), cfg).unwrap()
}

#[test]
fn every_trial_eventually_eats() {
    let (stats, censored) =
        first_meals(4, sims::AntiProgress, &McConfig::new(2_000, 21, 500)).time_stats();
    assert_eq!(censored, 0, "progress must happen with probability 1");
    assert!(stats.mean() >= 4.0, "a meal takes at least 4 rounds");
    assert!(stats.min().unwrap() >= 4.0);
}

#[test]
fn hitting_time_is_deterministic_per_seed() {
    let sim = sims::LrSim::new(3, sims::UniformRandom)
        .unwrap()
        .with_start(sims::all_trying(3).unwrap());
    let first_meal = || {
        record_trace(&sim, 100, &mut SplitMix64::new(77)).first_hit(|s| regions::in_c(&s.config))
    };
    let a = first_meal();
    assert_eq!(a, first_meal());
    assert!(a.is_some());
}

#[test]
fn idle_start_with_eager_user_still_progresses() {
    // From the all-idle start the eager user issues try at round starts;
    // progress follows.
    let sim = sims::LrSim::new(3, sims::RoundRobin).unwrap();
    let trace = record_trace(&sim, 200, &mut SplitMix64::new(3));
    assert!(trace.first_hit(|s| regions::in_c(&s.config)).is_some());
}

/// Pinned hit counts of the round sampler, identical for every worker
/// count: trial `i` runs on its own stream, and the per-worker histograms
/// merge by integer addition.
#[test]
fn round_sampler_counts_are_pinned_and_worker_invariant() {
    let mut runs = Vec::new();
    for workers in [1, 2, 3] {
        let deadline = McConfig::new(20_000, 99, 13).with_workers(workers);
        let hits = [
            first_meals(4, sims::RoundRobin, &deadline),
            first_meals(4, sims::UniformRandom, &deadline),
            first_meals(4, sims::AntiProgress, &deadline),
        ];
        let cap = McConfig::new(30_000, 11, 20).with_workers(workers);
        let capped = first_meals(3, sims::UniformRandom, &cap);
        assert_eq!(
            hits.each_ref().map(McEstimate::hit_count),
            [19_959, 19_962, 19_959],
            "workers={workers}"
        );
        assert_eq!(capped.misses(), 36, "workers={workers}");
        runs.push((hits, capped));
    }
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[1], runs[2]);
}

#[test]
fn threads_always_reach_the_critical_section() {
    let report = concurrent::run_trials(5, 25, 2024, Duration::from_secs(20)).unwrap();
    assert_eq!(report.timeouts, 0);
    assert_eq!(report.crit_entries, 25);
    assert!(report.time_to_crit.max().unwrap() < 10.0);
}

#[test]
fn thread_contention_costs_flips() {
    // More philosophers → at least as many flips in total (each trial
    // flips at least once per participating thread that races).
    let small = concurrent::run_trials(2, 10, 5, Duration::from_secs(10)).unwrap();
    assert!(small.total_flips >= 10);
    let large = concurrent::run_trials(8, 10, 5, Duration::from_secs(10)).unwrap();
    assert!(large.total_flips >= 10);
}

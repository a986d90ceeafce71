//! Monte-Carlo throughput: trials per second of the round simulator under
//! each concrete scheduler, and of the real threaded implementation.

use criterion::{criterion_group, criterion_main, Criterion};
use pa_lehmann_rabin::{concurrent, regions, sims};
use pa_mc::{estimate_rounds, McConfig};
use std::hint::black_box;
use std::time::Duration;

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("monte_carlo_n5");
    group.sample_size(10);
    let mc = McConfig::new(2_000, 7, 13);
    group.bench_function("round_robin", |b| {
        let sim = sims::LrSim::new(5, sims::RoundRobin)
            .expect("ring of 5")
            .with_start(sims::all_trying(5).expect("ring of 5"));
        b.iter(|| {
            estimate_rounds(black_box(&sim), |s| regions::in_c(&s.config), &mc).expect("simulable")
        })
    });
    group.bench_function("uniform_random", |b| {
        let sim = sims::LrSim::new(5, sims::UniformRandom)
            .expect("ring of 5")
            .with_start(sims::all_trying(5).expect("ring of 5"));
        b.iter(|| {
            estimate_rounds(black_box(&sim), |s| regions::in_c(&s.config), &mc).expect("simulable")
        })
    });
    group.bench_function("anti_progress", |b| {
        let sim = sims::LrSim::new(5, sims::AntiProgress)
            .expect("ring of 5")
            .with_start(sims::all_trying(5).expect("ring of 5"));
        b.iter(|| {
            estimate_rounds(black_box(&sim), |s| regions::in_c(&s.config), &mc).expect("simulable")
        })
    });
    group.finish();

    let mut group = c.benchmark_group("concurrent_threads");
    group.sample_size(10);
    group.bench_function("n3_one_trial", |b| {
        b.iter(|| {
            concurrent::run_trials(3, 1, black_box(42), Duration::from_secs(10)).expect("progress")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_simulation);
criterion_main!(benches);

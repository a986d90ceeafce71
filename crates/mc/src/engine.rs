use pa_core::Automaton;
use pa_prob::rng::SplitMix64;

use crate::rounds::{rounds_to_hit, Simulable};
use crate::{McConfig, McError, McEstimate, SamplePolicy};

/// Outcome of a single trajectory.
pub(crate) struct Trajectory {
    /// Time (accumulated cost or rounds) at the first target visit,
    /// `None` for a miss.
    pub(crate) hit_at: Option<u32>,
    /// Whether the per-trajectory step cap fired.
    pub(crate) early: bool,
    /// Steps taken.
    pub(crate) steps: u64,
}

impl Trajectory {
    pub(crate) fn hit(at: u32, steps: u64) -> Trajectory {
        Trajectory {
            hit_at: Some(at),
            early: false,
            steps,
        }
    }

    pub(crate) fn miss(early: bool, steps: u64) -> Trajectory {
        Trajectory {
            hit_at: None,
            early,
            steps,
        }
    }
}

/// Runs one trajectory on its private stream. Semantics mirror the exact
/// bounded value iteration: a visit to the target with accumulated cost
/// `≤ max_time` is a hit; a step whose cost would exceed the budget, a
/// dead end, or the step cap is a miss.
fn run_trajectory<M, P>(
    model: &M,
    start: &M::State,
    target: &(impl Fn(&M::State) -> bool + ?Sized),
    cost_of: &(impl Fn(&M::State, &M::Action) -> u32 + ?Sized),
    policy: &P,
    cfg: &McConfig,
    rng: &mut SplitMix64,
) -> Trajectory
where
    M: Automaton,
    P: SamplePolicy<M>,
{
    let mut state = start.clone();
    let mut spent = 0u32;
    let mut steps_taken = 0u64;
    loop {
        if target(&state) {
            return Trajectory::hit(spent, steps_taken);
        }
        if steps_taken >= cfg.max_steps {
            return Trajectory::miss(true, steps_taken);
        }
        let steps = model.steps(&state);
        if steps.is_empty() {
            // Dead end outside the target: the exact engine values it 0.
            return Trajectory::miss(false, steps_taken);
        }
        let remaining = cfg.max_time - spent;
        let chosen = policy.choose(&state, &steps, remaining, rng);
        let step = &steps[chosen];
        let cost = cost_of(&state, &step.action);
        if cost > remaining {
            // Budget exhausted before the target — exactly the level-0
            // failure of the cost-bounded recursion.
            return Trajectory::miss(false, steps_taken);
        }
        spent += cost;
        state = step.target.sample(rng).clone();
        steps_taken += 1;
    }
}

/// The one trial engine: runs `cfg.trajectories` trials of `trial`, trial
/// `i` on the private stream `SplitMix64::for_trial(cfg.seed, i)`, on
/// `cfg.worker_count()` workers that own the strided indices `w, w+W, …`.
/// Per-worker accumulators merge by integer [`McEstimate::absorb`], so the
/// result is bitwise identical for every worker count.
///
/// Records the `mc.trajectories`, `mc.steps`, `mc.early_stops` and
/// `mc.rng_draws` counters, the `mc.hit_time` histogram (one observation
/// per hit trial) and the `mc.seconds` span.
fn run_trials<F>(cfg: &McConfig, trial: F) -> Result<McEstimate, McError>
where
    F: Fn(&mut SplitMix64) -> Trajectory + Sync,
{
    if cfg.trajectories == 0 {
        return Err(McError::NoTrajectories);
    }
    let _span = pa_telemetry::span("mc.seconds");
    // Resolved on the calling thread (the active telemetry scope), shared
    // by the workers.
    let hit_time = pa_telemetry::enabled().then(|| pa_telemetry::histogram("mc.hit_time"));
    let workers = cfg.worker_count();
    let parts = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..workers {
            let trial = &trial;
            let hit_time = &hit_time;
            let cfg = *cfg;
            handles.push(scope.spawn(move |_| {
                let mut acc = McEstimate::empty(cfg.max_time);
                let mut i = w;
                while i < cfg.trajectories {
                    let mut rng = SplitMix64::for_trial(cfg.seed, i);
                    let out = trial(&mut rng);
                    if let (Some(hist), Some(t)) = (hit_time, out.hit_at) {
                        hist.record(u64::from(t));
                    }
                    acc.record(out.hit_at, out.early, out.steps, rng.draws());
                    i += workers;
                }
                acc
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join())
            .collect::<Result<Vec<McEstimate>, _>>()
    })
    .map_err(|_| McError::WorkerPanicked)?
    .map_err(|_| McError::WorkerPanicked)?;

    // Integer merge: associative, so any partition of the trial index
    // space (any worker count) lands on the same accumulator.
    let mut total = McEstimate::empty(cfg.max_time);
    for part in &parts {
        total.absorb(part);
    }

    if pa_telemetry::enabled() {
        pa_telemetry::counter("mc.trajectories").add(total.trials());
        pa_telemetry::counter("mc.steps").add(total.total_steps());
        pa_telemetry::counter("mc.early_stops").add(total.early_stops());
        pa_telemetry::counter("mc.rng_draws").add(total.rng_draws());
    }
    Ok(total)
}

/// Estimates the probability of reaching `target` from `start` within the
/// cost budget `cfg.max_time`, sampling `cfg.trajectories` trajectories
/// under `policy`.
///
/// Determinism contract: trajectory `i` runs on
/// `SplitMix64::for_trial(cfg.seed, i)` and outcomes are accumulated as
/// integers, so the returned [`McEstimate`] is bitwise identical for
/// every worker count and across runs — only wall-clock time varies.
///
/// Records the `mc.*` telemetry of the trial engine.
///
/// # Errors
///
/// [`McError::NoTrajectories`] for an empty batch,
/// [`McError::WorkerPanicked`] if a worker thread panics.
pub fn estimate_reach<M, P>(
    model: &M,
    start: &M::State,
    target: impl Fn(&M::State) -> bool + Sync,
    cost_of: impl Fn(&M::State, &M::Action) -> u32 + Sync,
    policy: &P,
    cfg: &McConfig,
) -> Result<McEstimate, McError>
where
    M: Automaton + Sync,
    M::State: Send + Sync,
    P: SamplePolicy<M> + Sync,
{
    run_trials(cfg, |rng| {
        run_trajectory(model, start, &target, &cost_of, policy, cfg, rng)
    })
}

/// Estimates the first round at which `pred` holds on a round-driven
/// [`Simulable`] system, sampling `cfg.trajectories` trials of at most
/// `cfg.max_time` rounds each.
///
/// One round costs one time unit: `hit_at` is the first-hit round (0 when
/// the initial state already satisfies `pred`), `steps` counts the rounds
/// run, and a trial that runs `max_time` rounds without a hit is a miss.
/// The round budget bounds every trial, so `cfg.max_steps` does not apply.
/// Trial `i`'s stream is private, so whether it hits by round `d` does not
/// depend on the budget as long as `d ≤ max_time`:
/// [`McEstimate::estimator_within`] reads `P[hit within d]` for every `d`
/// from one batch.
///
/// The determinism contract and telemetry are those of
/// [`estimate_reach`].
///
/// # Errors
///
/// [`McError::NoTrajectories`] for an empty batch,
/// [`McError::WorkerPanicked`] if a worker thread panics.
pub fn estimate_rounds<S>(
    system: &S,
    pred: impl Fn(&S::State) -> bool + Sync,
    cfg: &McConfig,
) -> Result<McEstimate, McError>
where
    S: Simulable + Sync,
{
    run_trials(cfg, |rng| rounds_to_hit(system, &pred, cfg.max_time, rng))
}

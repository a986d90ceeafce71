/// Configuration of one sampled batch.
///
/// The estimate is a pure function of `(trajectories, seed, max_time,
/// max_steps)` and the model; `workers` only changes wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// Number of independent trajectories.
    pub trajectories: u64,
    /// Base seed; trajectory `i` derives its own stream
    /// `SplitMix64::for_trial(seed, i)`.
    pub seed: u64,
    /// Cost budget per trajectory (time units). A trajectory whose next
    /// step would push the accumulated cost past the budget is a miss —
    /// the same semantics the exact bounded value iteration gives a
    /// too-expensive choice at a low level.
    pub max_time: u32,
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Hard cap on steps per trajectory, guarding against zero-cost
    /// scheduler loops under a pathological policy. A trajectory that
    /// exhausts it counts as a miss and an early stop. Round trials
    /// ([`crate::estimate_rounds`]) are bounded by `max_time` instead.
    pub max_steps: u64,
}

impl McConfig {
    /// A configuration with automatic worker count and the default
    /// per-trajectory step cap.
    pub fn new(trajectories: u64, seed: u64, max_time: u32) -> McConfig {
        McConfig {
            trajectories,
            seed,
            max_time,
            workers: 0,
            max_steps: 1_000_000,
        }
    }

    /// Pins the worker count (the estimate itself never depends on it).
    pub fn with_workers(mut self, workers: usize) -> McConfig {
        self.workers = workers;
        self
    }

    /// Resolved worker count: explicit, else one per core, never more
    /// than there are trajectories.
    pub fn worker_count(&self) -> u64 {
        let auto = std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1);
        let chosen = if self.workers == 0 {
            auto
        } else {
            self.workers as u64
        };
        chosen.min(self.trajectories).max(1)
    }
}

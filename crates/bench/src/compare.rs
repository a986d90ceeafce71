//! The bench-regression gate behind the `compare_bench` binary.
//!
//! Compares a freshly measured bench artifact against the checked-in
//! baseline. The gate is *schema-aware*: every known schema version maps
//! to the set of blocks it must carry ([`required_blocks`]), a missing
//! block is a named, actionable failure (instead of the silent pass a
//! `path(..)`-returns-`None` lookup used to produce), and an unknown
//! schema string fails with the list of schemas this gate understands.
//!
//! Check families, from hard to soft:
//!
//! 1. **Structural metrics** (states, choices, transitions per ring) must
//!    match *exactly* — the explored state space is deterministic, so any
//!    drift is a semantic change, not noise.
//! 2. **Speedup ratios** (CSR over seed engine) must not regress by more
//!    than the tolerance; ratios compare a machine against itself so they
//!    transfer across hosts.
//! 3. **Telemetry sanity**: the counters proving the instrumentation
//!    fired must be positive.
//! 4. **Fault-subsystem invariants** (schema ≥ v4): survival tallies
//!    exact, zero-fault bitwise identity, certified-absorbing crashes.
//! 5. **Batch-driver invariants** (schema ≥ v5): job tallies and cache
//!    counts exact, worker invariance, pinned canonical digest.
//! 6. **Sampled-tier invariants** (schema ≥ v6, and the standalone
//!    `pa-bench/mc/v1` artifact): every 99% interval contains its exact
//!    value, the 1/2/8-worker probe is bitwise invariant, and the
//!    seed-determinism digest matches the baseline exactly.
//! 7. **Rotation-quotient invariants** (schema ≥ v7): orbit counts exact
//!    (the quotient state space is deterministic), reduction factors
//!    within the ratio tolerance, the full-vs-quotient lifting check
//!    bitwise equal (hard fail — a drift means quotient lifting is
//!    unsound), and every frontier arrow verdict holding outright.
//! 8. **Service invariants** (schema ≥ v8): socket-submitted batches must
//!    digest identically to direct `run_batch` runs (hard fail — a drift
//!    means the wire codec, eviction rebuilds, or canonical cache stats
//!    leaked scheduling), the service digest must equal both its baseline
//!    and the batch block's invariance digest, the LRU eviction and
//!    rebuild counters must be live under the tiny-budget probe, and the
//!    admission/backpressure/malformed-line tallies are exact.
//! 9. **Out-of-core invariants** (schema ≥ v9): the stored backend's
//!    value digests must equal the in-core digest at both the unbounded
//!    and the one-block cache budget (hard fail — a drift means the
//!    block engines diverged across block splits), the digests
//!    must match the baseline exactly, the structural counts (states,
//!    blocks) are exact, the tight-budget probe must actually fault and
//!    evict, and peak paging residency must stay within budget + two
//!    blocks.

use crate::json::Json;

/// Accumulates gate checks and their failures.
pub struct Gate {
    /// Two-sided tolerance (percent) for the ratio checks.
    pub tolerance_pct: f64,
    /// Human-readable failure messages; empty means the gate passed.
    pub failures: Vec<String>,
    /// Total checks performed (passing and failing).
    pub checks: usize,
}

impl Gate {
    /// A fresh gate at the given ratio tolerance.
    #[must_use]
    pub fn new(tolerance_pct: f64) -> Gate {
        Gate {
            tolerance_pct,
            failures: Vec::new(),
            checks: 0,
        }
    }

    /// Records a failure outright.
    pub fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    /// Exact equality for deterministic metrics.
    pub fn check_exact(&mut self, what: &str, baseline: f64, current: f64) {
        self.checks += 1;
        if baseline != current {
            self.fail(format!("{what}: expected {baseline}, got {current}"));
        }
    }

    /// Ratio metrics where larger is better: fail when `current` drops
    /// more than `tolerance_pct` below `baseline`.
    pub fn check_ratio(&mut self, what: &str, baseline: f64, current: f64) {
        self.checks += 1;
        let floor = baseline * (1.0 - self.tolerance_pct / 100.0);
        if current < floor {
            self.fail(format!(
                "{what}: {current:.3} regressed more than {}% below baseline {baseline:.3}",
                self.tolerance_pct
            ));
        }
    }

    /// Counter metrics that prove a subsystem fired.
    pub fn check_positive(&mut self, what: &str, value: Option<f64>) {
        self.checks += 1;
        match value {
            Some(v) if v > 0.0 => {}
            Some(v) => self.fail(format!("{what}: expected > 0, got {v}")),
            None => self.fail(format!("{what}: missing from the artifact")),
        }
    }

    /// Boolean invariants that must hold outright in the current artifact.
    pub fn check_true(&mut self, what: &str, value: Option<bool>) {
        self.checks += 1;
        match value {
            Some(true) => {}
            Some(false) => self.fail(format!("{what}: expected true, got false")),
            None => self.fail(format!("{what}: missing from the artifact")),
        }
    }

    /// Exact string equality (digests).
    pub fn check_exact_str(&mut self, what: &str, baseline: Option<&str>, current: Option<&str>) {
        self.checks += 1;
        match (baseline, current) {
            (Some(b), Some(c)) if b == c => {}
            (Some(b), Some(c)) => self.fail(format!("{what}: expected {b:?}, got {c:?}")),
            _ => self.fail(format!("{what}: missing from an artifact")),
        }
    }
}

/// Schema strings this gate knows how to check, with the top-level blocks
/// each one must carry.
const SCHEMAS: &[(&str, &[&str])] = &[
    (
        "pa-bench/mdp-throughput/v4",
        &["rings", "telemetry", "telemetry_overhead", "faults"],
    ),
    (
        "pa-bench/mdp-throughput/v5",
        &[
            "rings",
            "telemetry",
            "telemetry_overhead",
            "faults",
            "batch",
        ],
    ),
    (
        "pa-bench/mdp-throughput/v6",
        &[
            "rings",
            "telemetry",
            "telemetry_overhead",
            "faults",
            "batch",
            "mc",
        ],
    ),
    (
        "pa-bench/mdp-throughput/v7",
        &[
            "rings",
            "telemetry",
            "telemetry_overhead",
            "faults",
            "batch",
            "mc",
            "symmetry",
        ],
    ),
    (
        "pa-bench/mdp-throughput/v8",
        &[
            "rings",
            "telemetry",
            "telemetry_overhead",
            "faults",
            "batch",
            "mc",
            "symmetry",
            "serve",
        ],
    ),
    (
        "pa-bench/mdp-throughput/v9",
        &[
            "rings",
            "telemetry",
            "telemetry_overhead",
            "faults",
            "batch",
            "mc",
            "symmetry",
            "serve",
            "store",
        ],
    ),
    ("pa-bench/mc/v1", &["mc"]),
];

/// The top-level blocks a schema version must carry, or `None` for a
/// schema this gate does not understand.
#[must_use]
pub fn required_blocks(schema: &str) -> Option<&'static [&'static str]> {
    SCHEMAS
        .iter()
        .find(|(s, _)| *s == schema)
        .map(|(_, blocks)| *blocks)
}

/// The schema strings this gate understands, for diagnostics.
#[must_use]
pub fn known_schemas() -> Vec<&'static str> {
    SCHEMAS.iter().map(|(s, _)| *s).collect()
}

fn ring_metric(doc: &Json, n: f64, keys: &[&str]) -> Option<f64> {
    doc.get("rings")?
        .as_array()?
        .iter()
        .find(|r| r.get("n").and_then(Json::as_f64) == Some(n))?
        .path(keys)?
        .as_f64()
}

/// Value of a named counter inside the report's `telemetry` block.
fn telemetry_counter(doc: &Json, name: &str) -> Option<f64> {
    doc.path(&["telemetry", "counters"])?
        .as_array()?
        .iter()
        .find(|c| c.get("name").and_then(Json::as_str) == Some(name))?
        .get("value")?
        .as_f64()
}

fn gate_rings(gate: &mut Gate, baseline: &Json, current: &Json) {
    let Some(rings) = baseline.get("rings").and_then(Json::as_array) else {
        gate.fail("baseline `rings` block is not an array".to_string());
        return;
    };
    for ring in rings {
        let Some(n) = ring.get("n").and_then(Json::as_f64) else {
            gate.fail("baseline ring entry without an `n` field".to_string());
            continue;
        };
        for metric in ["states", "choices", "transitions"] {
            let base = ring.get(metric).and_then(Json::as_f64).unwrap_or(f64::NAN);
            match ring_metric(current, n, &[metric]) {
                Some(cur) => gate.check_exact(&format!("n={n} {metric}"), base, cur),
                None => gate.fail(format!("n={n} {metric}: missing from current artifact")),
            }
        }
        for family in ["explore_states_per_sec", "vi_sweeps_per_sec"] {
            let base = ring.path(&[family, "speedup"]).and_then(Json::as_f64);
            let cur = ring_metric(current, n, &[family, "speedup"]);
            match (base, cur) {
                (Some(b), Some(c)) => gate.check_ratio(&format!("n={n} {family}.speedup"), b, c),
                _ => gate.fail(format!("n={n} {family}.speedup: missing")),
            }
        }
    }
}

fn gate_telemetry(gate: &mut Gate, current: &Json, with_mc: bool) {
    for counter in [
        "mdp.vi.sweeps",
        "mdp.explore.states",
        "mc.trajectories",
        "faults.crashes_injected",
        "faults.restarts",
        "faults.obligations_dropped",
        "faults.envelope_violations",
        "mdp.tag.tagged_choices",
    ] {
        gate.check_positive(
            &format!("telemetry {counter}"),
            telemetry_counter(current, counter),
        );
    }
    if with_mc {
        for counter in ["mc.steps", "mc.rng_draws"] {
            gate.check_positive(
                &format!("telemetry {counter}"),
                telemetry_counter(current, counter),
            );
        }
    }
    gate.check_positive(
        "telemetry_overhead.enabled_over_disabled",
        current
            .path(&["telemetry_overhead", "enabled_over_disabled"])
            .and_then(Json::as_f64),
    );
}

fn gate_faults(gate: &mut Gate, baseline: &Json, current: &Json) {
    // The survival-cell tallies are deterministic so they gate exactly;
    // the two structural invariants (zero-fault bitwise identity,
    // certified-absorbing crash states) must hold outright.
    for metric in ["holds", "degraded", "fails"] {
        let base = baseline
            .path(&["faults", metric])
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        match current.path(&["faults", metric]).and_then(Json::as_f64) {
            Some(cur) => gate.check_exact(&format!("faults.{metric}"), base, cur),
            None => gate.fail(format!("faults.{metric}: missing from current artifact")),
        }
    }
    gate.check_true(
        "faults.zero_fault_bitwise_equal",
        current
            .path(&["faults", "zero_fault_bitwise_equal"])
            .and_then(Json::as_bool),
    );
    gate.check_positive(
        "faults.crash_tagged_choices",
        current
            .path(&["faults", "crash_tagged_choices"])
            .and_then(Json::as_f64),
    );
    gate.check_exact(
        "faults.crash_absorbing_violations",
        0.0,
        current
            .path(&["faults", "crash_absorbing_violations"])
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN),
    );
}

fn gate_batch(gate: &mut Gate, baseline: &Json, current: &Json) {
    // Tallies and cache hit counts are deterministic per job set, so they
    // gate exactly; the invariance digest pins the measured values
    // bitwise across runs and machines.
    for metric in [
        "jobs",
        "done",
        "failed",
        "violated",
        "model_cache_hits",
        "model_cache_misses",
        "distinct_models",
    ] {
        let base = baseline
            .path(&["batch", metric])
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        match current.path(&["batch", metric]).and_then(Json::as_f64) {
            Some(cur) => gate.check_exact(&format!("batch.{metric}"), base, cur),
            None => gate.fail(format!("batch.{metric}: missing from current artifact")),
        }
    }
    gate.check_positive(
        "batch.cache_hit_rate",
        current
            .path(&["batch", "cache_hit_rate"])
            .and_then(Json::as_f64),
    );
    gate.check_true(
        "batch.worker_invariant",
        current
            .path(&["batch", "worker_invariant"])
            .and_then(Json::as_bool),
    );
    gate.check_exact_str(
        "batch.invariance_digest",
        baseline
            .path(&["batch", "invariance_digest"])
            .and_then(Json::as_str),
        current
            .path(&["batch", "invariance_digest"])
            .and_then(Json::as_str),
    );
}

fn gate_mc(gate: &mut Gate, baseline: &Json, current: &Json) {
    // The sampling parameters and the integer accounting are
    // deterministic for a pinned seed, so they gate exactly; the
    // statistical verdicts must hold outright in the current artifact.
    for metric in ["n", "trajectories", "seed", "skipped_vacuous"] {
        let base = baseline
            .path(&["mc", metric])
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        match current.path(&["mc", metric]).and_then(Json::as_f64) {
            Some(cur) => gate.check_exact(&format!("mc.{metric}"), base, cur),
            None => gate.fail(format!("mc.{metric}: missing from current artifact")),
        }
    }
    gate.check_true(
        "mc.all_contain_exact",
        current
            .path(&["mc", "all_contain_exact"])
            .and_then(Json::as_bool),
    );
    gate.check_true(
        "mc.uniform.contains_exact",
        current
            .path(&["mc", "uniform", "contains_exact"])
            .and_then(Json::as_bool),
    );
    gate.check_true(
        "mc.worker_invariant",
        current
            .path(&["mc", "worker_invariant"])
            .and_then(Json::as_bool),
    );
    gate.check_exact_str(
        "mc.digest",
        baseline.path(&["mc", "digest"]).and_then(Json::as_str),
        current.path(&["mc", "digest"]).and_then(Json::as_str),
    );
    for metric in ["trajectories_total", "rng_draws_total", "steps_total"] {
        gate.check_positive(
            &format!("mc.{metric}"),
            current.path(&["mc", metric]).and_then(Json::as_f64),
        );
    }
}

fn gate_symmetry(gate: &mut Gate, baseline: &Json, current: &Json) {
    // The quotient state space is deterministic, so orbit counts gate
    // exactly; the reduction factor is a derived ratio and gets the
    // tolerance (it only drifts if the counts do, but a baseline row may
    // legitimately gain a paired `full_states` measurement later).
    let Some(rings) = baseline
        .path(&["symmetry", "rings"])
        .and_then(Json::as_array)
    else {
        gate.fail("baseline `symmetry.rings` block is not an array".to_string());
        return;
    };
    let current_ring = |n: f64, keys: &[&str]| -> Option<f64> {
        current
            .path(&["symmetry", "rings"])?
            .as_array()?
            .iter()
            .find(|r| r.get("n").and_then(Json::as_f64) == Some(n))?
            .path(keys)?
            .as_f64()
    };
    for ring in rings {
        let Some(n) = ring.get("n").and_then(Json::as_f64) else {
            gate.fail("baseline symmetry ring entry without an `n` field".to_string());
            continue;
        };
        let base = ring
            .get("orbit_states")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        match current_ring(n, &["orbit_states"]) {
            Some(cur) => gate.check_exact(&format!("symmetry n={n} orbit_states"), base, cur),
            None => gate.fail(format!("symmetry n={n} orbit_states: missing from current")),
        }
        if let (Some(b), Some(c)) = (
            ring.get("reduction").and_then(Json::as_f64),
            current_ring(n, &["reduction"]),
        ) {
            gate.check_ratio(&format!("symmetry n={n} reduction"), b, c);
        }
    }
    // The lifting check is the soundness witness for every quotient
    // verdict in the artifact: a false here is a correctness bug.
    gate.check_true(
        "symmetry.lifting_bitwise_equal",
        current
            .path(&["symmetry", "lifting_bitwise_equal"])
            .and_then(Json::as_bool),
    );
    gate.check_exact(
        "symmetry.frontier.n",
        baseline
            .path(&["symmetry", "frontier", "n"])
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN),
        current
            .path(&["symmetry", "frontier", "n"])
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN),
    );
    gate.check_true(
        "symmetry.frontier.all_hold",
        current
            .path(&["symmetry", "frontier", "all_hold"])
            .and_then(Json::as_bool),
    );
    gate.check_true(
        "symmetry.frontier.expected_time_within_claim",
        current
            .path(&["symmetry", "frontier", "expected_time_within_claim"])
            .and_then(Json::as_bool),
    );
}

fn gate_serve(gate: &mut Gate, baseline: &Json, current: &Json) {
    // Every tally in the block is deterministic (the probe's submissions
    // and malformed corpus are fixed), so they all gate exactly.
    for metric in [
        "jobs",
        "socket_batches",
        "jobs_accepted",
        "backpressure_rejections",
        "lines_rejected",
        "batches_run",
    ] {
        let base = baseline
            .path(&["serve", metric])
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        match current.path(&["serve", metric]).and_then(Json::as_f64) {
            Some(cur) => gate.check_exact(&format!("serve.{metric}"), base, cur),
            None => gate.fail(format!("serve.{metric}: missing from current artifact")),
        }
    }
    // Socket == direct is the service's headline contract; a false here
    // is a correctness bug in the wire codec or the eviction path, not a
    // perf regression.
    gate.check_true(
        "serve.digest_invariant",
        current
            .path(&["serve", "digest_invariant"])
            .and_then(Json::as_bool),
    );
    gate.check_exact_str(
        "serve.digest",
        baseline.path(&["serve", "digest"]).and_then(Json::as_str),
        current.path(&["serve", "digest"]).and_then(Json::as_str),
    );
    // Cross-block: the service digest must equal the batch block's —
    // both hash the same n = 3 model suite, so a divergence means the
    // socket path changed a measured value.
    gate.check_exact_str(
        "serve.digest == batch.invariance_digest",
        current
            .path(&["batch", "invariance_digest"])
            .and_then(Json::as_str),
        current.path(&["serve", "digest"]).and_then(Json::as_str),
    );
    // Liveness: the tiny-budget daemon must actually evict and rebuild,
    // otherwise its digest equality passed vacuously.
    gate.check_positive(
        "serve.evictions",
        current.path(&["serve", "evictions"]).and_then(Json::as_f64),
    );
    gate.check_positive(
        "serve.rebuilds",
        current.path(&["serve", "rebuilds"]).and_then(Json::as_f64),
    );
}

fn gate_store(gate: &mut Gate, baseline: &Json, current: &Json) {
    // Structure is deterministic: same exploration, same block split.
    for metric in ["n", "states", "csr_blocks", "block_bytes"] {
        let base = baseline
            .path(&["store", metric])
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        match current.path(&["store", metric]).and_then(Json::as_f64) {
            Some(cur) => gate.check_exact(&format!("store.{metric}"), base, cur),
            None => gate.fail(format!("store.{metric}: missing from current artifact")),
        }
    }
    // The headline contract: stored results are bitwise identical to
    // in-core at every budget. A false is an engine-divergence bug, not a
    // perf regression.
    gate.check_true(
        "store.bitwise_identical",
        current
            .path(&["store", "bitwise_identical"])
            .and_then(Json::as_bool),
    );
    for digest in ["digest_in_core", "digest_unbounded", "digest_one_block"] {
        gate.check_exact_str(
            &format!("store.{digest}"),
            baseline.path(&["store", digest]).and_then(Json::as_str),
            current.path(&["store", digest]).and_then(Json::as_str),
        );
    }
    // Liveness: the one-byte budget must actually page and evict,
    // otherwise the tight-budget digest passed without pressure.
    gate.check_positive(
        "store.faults",
        current.path(&["store", "faults"]).and_then(Json::as_f64),
    );
    gate.check_positive(
        "store.evictions",
        current.path(&["store", "evictions"]).and_then(Json::as_f64),
    );
    // The memory bound the subsystem exists for.
    gate.check_true(
        "store.rss_bounded",
        current
            .path(&["store", "rss_bounded"])
            .and_then(Json::as_bool),
    );
}

/// Runs every gate the artifacts' schema requires. Failures (including
/// schema mismatches, unknown schemas, and missing blocks) are collected
/// in the returned [`Gate`]; an empty `failures` list means pass.
#[must_use]
pub fn compare_docs(baseline: &Json, current: &Json, tolerance_pct: f64) -> Gate {
    let mut gate = Gate::new(tolerance_pct);

    let schema_of = |doc: &Json| doc.get("schema").and_then(Json::as_str).map(str::to_string);
    let (base_schema, cur_schema) = (schema_of(baseline), schema_of(current));
    if base_schema != cur_schema {
        gate.fail(format!(
            "schema mismatch: baseline {base_schema:?} vs current {cur_schema:?} — regenerate \
             the baseline with the command in its `regenerate` field"
        ));
    }
    let Some(schema) = cur_schema else {
        gate.fail(format!(
            "current artifact has no `schema` field; known schemas: {}",
            known_schemas().join(", ")
        ));
        return gate;
    };
    let Some(blocks) = required_blocks(&schema) else {
        gate.fail(format!(
            "unknown schema {schema:?}; this gate understands: {}",
            known_schemas().join(", ")
        ));
        return gate;
    };

    // A missing required block is a named failure, never a silent pass.
    let mut missing = false;
    for (doc, which) in [(baseline, "baseline"), (current, "current")] {
        for block in blocks {
            if doc.get(block).is_none() {
                gate.fail(format!(
                    "{which} artifact is missing the `{block}` block required by schema \
                     {schema:?}; regenerate it with the command in its `regenerate` field"
                ));
                missing = true;
            }
        }
    }
    if missing {
        return gate;
    }

    let has = |block: &str| blocks.contains(&block);
    if has("rings") {
        gate_rings(&mut gate, baseline, current);
    }
    if has("telemetry") {
        gate_telemetry(&mut gate, current, has("mc"));
    }
    if has("faults") {
        gate_faults(&mut gate, baseline, current);
    }
    if has("batch") {
        gate_batch(&mut gate, baseline, current);
    }
    if has("mc") {
        gate_mc(&mut gate, baseline, current);
    }
    if has("symmetry") {
        gate_symmetry(&mut gate, baseline, current);
    }
    if has("serve") {
        gate_serve(&mut gate, baseline, current);
    }
    if has("store") {
        gate_store(&mut gate, baseline, current);
    }
    gate
}

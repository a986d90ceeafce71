//! The bench-regression gate behind the `compare_bench` binary.
//!
//! Compares a freshly measured bench artifact against the checked-in
//! baseline. The gate is *schema-aware*: every known schema version maps
//! to the set of blocks it must carry ([`required_blocks`]), a missing
//! block is a named, actionable failure (instead of the silent pass a
//! `path(..)`-returns-`None` lookup used to produce), and an unknown
//! schema string fails with the list of schemas this gate understands.
//!
//! Every block's checks are one row of a table (`BLOCKS`), of four
//! kinds, from hard to soft:
//!
//! * **exact** — deterministic metrics (state and orbit counts, survival
//!   tallies, job, cache and admission tallies, store layout) and
//!   **digests** (batch invariance, MC seed, service, stored backend)
//!   must equal the baseline: any drift is a semantic change, not noise;
//! * **hold** — invariants that must be true in the current artifact
//!   (zero-fault bitwise identity, worker invariance, interval
//!   containment, quotient lifting, socket == direct, stored == in-core,
//!   paging residency within budget): a false is a correctness bug, not
//!   a perf regression;
//! * **ratios** on per-ring rows (CSR speedups, quotient reduction
//!   factors) may not regress past the tolerance: they compare a machine
//!   against itself, so they transfer across hosts;
//! * **positive** — liveness counters proving a probe exercised its path
//!   (evictions, rebuilds, store faults).
//!
//! Three checks do not fit a row (`gate_one_offs`): telemetry counters
//! are looked up by name, crash states must show zero absorbing
//! violations, and the service digest must equal the batch block's.

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

/// The throughput artifact's top-level blocks, in the order its schema
/// versions added them: v4 carries the first four, each later version
/// one more.
const THROUGHPUT_BLOCKS: &[&str] = &[
    "rings",
    "telemetry",
    "telemetry_overhead",
    "faults",
    "batch",
    "mc",
    "symmetry",
    "serve",
    "store",
];

/// Schema strings this gate knows how to check, with the top-level blocks
/// each one must carry.
const SCHEMAS: &[(&str, &[&str])] = &[
    (
        "pa-bench/mdp-throughput/v4",
        THROUGHPUT_BLOCKS.split_at(4).0,
    ),
    (
        "pa-bench/mdp-throughput/v5",
        THROUGHPUT_BLOCKS.split_at(5).0,
    ),
    (
        "pa-bench/mdp-throughput/v6",
        THROUGHPUT_BLOCKS.split_at(6).0,
    ),
    (
        "pa-bench/mdp-throughput/v7",
        THROUGHPUT_BLOCKS.split_at(7).0,
    ),
    (
        "pa-bench/mdp-throughput/v8",
        THROUGHPUT_BLOCKS.split_at(8).0,
    ),
    ("pa-bench/mdp-throughput/v9", THROUGHPUT_BLOCKS),
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

/// Per-`n` rows of a block, matched between the two artifacts by `n`.
struct Rows {
    /// Where the row array sits inside the block (empty: the block is it).
    at: &'static [&'static str],
    /// Prefix of the check labels (`n=…` follows).
    label: &'static str,
    /// Row metrics that must equal the baseline exactly.
    exact: &'static [&'static str],
    /// Row ratios (dotted paths) that may not regress past the tolerance.
    ratios: &'static [&'static str],
    /// Whether a row may lack its ratios on either side.
    ratios_optional: bool,
}

/// The gates of one bench block. Metrics are dotted paths inside the block
/// and are labelled `block.metric` in failures.
struct BlockGates {
    block: &'static str,
    rows: Option<Rows>,
    /// Deterministic metrics: equal to the baseline exactly.
    exact: &'static [&'static str],
    /// Digests: equal to the baseline's string exactly.
    digests: &'static [&'static str],
    /// Invariants that must hold outright in the current artifact.
    hold: &'static [&'static str],
    /// Liveness counters that must be positive in the current artifact.
    positive: &'static [&'static str],
}

const NO_GATES: BlockGates = BlockGates {
    block: "",
    rows: None,
    exact: &[],
    digests: &[],
    hold: &[],
    positive: &[],
};

/// Every table-driven gate, one row per block (see the module docs for
/// why each family is exact, a ratio, an invariant or a liveness check).
/// A block is checked when the artifact's schema requires it.
const BLOCKS: &[BlockGates] = &[
    BlockGates {
        block: "rings",
        rows: Some(Rows {
            at: &[],
            label: "",
            exact: &["states", "choices", "transitions"],
            ratios: &[
                "explore_states_per_sec.speedup",
                "vi_sweeps_per_sec.speedup",
            ],
            ratios_optional: false,
        }),
        ..NO_GATES
    },
    BlockGates {
        block: "telemetry_overhead",
        positive: &["enabled_over_disabled"],
        ..NO_GATES
    },
    BlockGates {
        block: "faults",
        exact: &["holds", "degraded", "fails"],
        hold: &["zero_fault_bitwise_equal"],
        positive: &["crash_tagged_choices"],
        ..NO_GATES
    },
    BlockGates {
        block: "batch",
        exact: &[
            "jobs",
            "done",
            "failed",
            "violated",
            "model_cache_hits",
            "model_cache_misses",
            "distinct_models",
        ],
        digests: &["invariance_digest"],
        hold: &["worker_invariant"],
        positive: &["cache_hit_rate"],
        ..NO_GATES
    },
    BlockGates {
        block: "mc",
        exact: &["n", "trajectories", "seed", "skipped_vacuous"],
        digests: &["digest"],
        hold: &[
            "all_contain_exact",
            "uniform.contains_exact",
            "worker_invariant",
        ],
        positive: &["trajectories_total", "rng_draws_total", "steps_total"],
        ..NO_GATES
    },
    BlockGates {
        block: "symmetry",
        // Quotient-only rows past the largest full ring have no paired
        // full count, hence no reduction factor.
        rows: Some(Rows {
            at: &["rings"],
            label: "symmetry ",
            exact: &["orbit_states"],
            ratios: &["reduction"],
            ratios_optional: true,
        }),
        exact: &["frontier.n"],
        hold: &[
            "lifting_bitwise_equal",
            "frontier.all_hold",
            "frontier.expected_time_within_claim",
        ],
        ..NO_GATES
    },
    BlockGates {
        block: "serve",
        exact: &[
            "jobs",
            "socket_batches",
            "jobs_accepted",
            "backpressure_rejections",
            "lines_rejected",
            "batches_run",
        ],
        digests: &["digest"],
        hold: &["digest_invariant"],
        positive: &["evictions", "rebuilds"],
        ..NO_GATES
    },
    BlockGates {
        block: "store",
        exact: &["n", "states", "csr_blocks", "block_bytes"],
        digests: &["digest_in_core", "digest_unbounded", "digest_one_block"],
        hold: &["bitwise_identical", "rss_bounded"],
        positive: &["faults", "evictions"],
        ..NO_GATES
    },
];

/// The value at a dotted `metric` path below `doc`.
fn lookup<'j>(doc: &'j Json, metric: &str) -> Option<&'j Json> {
    metric.split('.').try_fold(doc, |v, k| v.get(k))
}

/// Checks one exact metric; a metric missing from the current artifact
/// is a named failure.
fn exact(gate: &mut Gate, what: &str, baseline: Option<&Json>, current: Option<&Json>) {
    let base = baseline.and_then(Json::as_f64).unwrap_or(f64::NAN);
    match current.and_then(Json::as_f64) {
        Some(cur) => gate.check_exact(what, base, cur),
        None => gate.fail(format!("{what}: missing from current artifact")),
    }
}

fn row_array<'j>(doc: &'j Json, block: &str, rows: &Rows) -> Option<&'j [Json]> {
    doc.get(block)?.path(rows.at)?.as_array()
}

fn gate_rows(gate: &mut Gate, block: &str, rows: &Rows, baseline: &Json, current: &Json) {
    let path = [&[block], rows.at].concat().join(".");
    let Some(base_rows) = row_array(baseline, block, rows) else {
        gate.fail(format!("baseline `{path}` block is not an array"));
        return;
    };
    let current_rows = row_array(current, block, rows).unwrap_or_default();
    for row in base_rows {
        let Some(n) = row.get("n").and_then(Json::as_f64) else {
            gate.fail(format!("baseline `{path}` entry without an `n` field"));
            continue;
        };
        let cur = current_rows
            .iter()
            .find(|r| r.get("n").and_then(Json::as_f64) == Some(n));
        let label = |metric: &str| format!("{}n={n} {metric}", rows.label);
        for metric in rows.exact {
            let current = cur.and_then(|r| lookup(r, metric));
            exact(gate, &label(metric), lookup(row, metric), current);
        }
        for metric in rows.ratios {
            let base = lookup(row, metric).and_then(Json::as_f64);
            match (base, cur.and_then(|r| lookup(r, metric)?.as_f64())) {
                (Some(b), Some(c)) => gate.check_ratio(&label(metric), b, c),
                _ if rows.ratios_optional => {}
                _ => gate.fail(format!("{}: missing", label(metric))),
            }
        }
    }
}

/// Walks one row of [`BLOCKS`].
fn gate_block(gate: &mut Gate, gates: &BlockGates, baseline: &Json, current: &Json) {
    let block = gates.block;
    if let Some(rows) = &gates.rows {
        gate_rows(gate, block, rows, baseline, current);
    }
    let base = |metric: &str| lookup(baseline.get(block)?, metric);
    let cur = |metric: &str| lookup(current.get(block)?, metric);
    let what = |metric: &str| format!("{block}.{metric}");
    for metric in gates.exact {
        exact(gate, &what(metric), base(metric), cur(metric));
    }
    for metric in gates.digests {
        gate.check_exact_str(
            &what(metric),
            base(metric).and_then(Json::as_str),
            cur(metric).and_then(Json::as_str),
        );
    }
    for metric in gates.hold {
        gate.check_true(&what(metric), cur(metric).and_then(Json::as_bool));
    }
    for metric in gates.positive {
        gate.check_positive(&what(metric), cur(metric).and_then(Json::as_f64));
    }
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

/// The gates that do not fit the table.
fn gate_one_offs(gate: &mut Gate, current: &Json, has: impl Fn(&str) -> bool) {
    if has("telemetry") {
        let mc: &[&str] = if has("mc") {
            &["mc.steps", "mc.rng_draws"]
        } else {
            &[]
        };
        for counter in [
            "mdp.vi.sweeps",
            "mdp.explore.states",
            "mc.trajectories",
            "faults.crashes_injected",
            "faults.restarts",
            "faults.obligations_dropped",
            "faults.envelope_violations",
            "mdp.tag.tagged_choices",
        ]
        .iter()
        .chain(mc)
        {
            gate.check_positive(
                &format!("telemetry {counter}"),
                telemetry_counter(current, counter),
            );
        }
    }
    if has("faults") {
        // Crash states must be certified absorbing: no violation at all.
        let violations = lookup(current, "faults.crash_absorbing_violations");
        let violations = violations.and_then(Json::as_f64).unwrap_or(f64::NAN);
        gate.check_exact("faults.crash_absorbing_violations", 0.0, violations);
    }
    if has("serve") {
        // Both blocks hash the same n = 3 model suite, so a divergence
        // means the socket path changed a measured value.
        gate.check_exact_str(
            "serve.digest == batch.invariance_digest",
            lookup(current, "batch.invariance_digest").and_then(Json::as_str),
            lookup(current, "serve.digest").and_then(Json::as_str),
        );
    }
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
    for gates in BLOCKS.iter().filter(|g| has(g.block)) {
        gate_block(&mut gate, gates, baseline, current);
    }
    gate_one_offs(&mut gate, current, has);
    gate
}

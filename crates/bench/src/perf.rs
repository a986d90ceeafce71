//! Engine-throughput measurements behind `tables --bench-json`.
//!
//! Produces `BENCH_mdp.json`: exploration states/sec and value-iteration
//! sweeps/sec on the Lehmann–Rabin ring (saturating user model, the state
//! space of the paper's progress analysis) for `n = 3..=7`, measured for
//! both the seed engine (serial SipHash exploration, nested Gauss–Seidel
//! sweeps) and the CSR engine this workspace now runs on. The JSON is the
//! perf trajectory artifact: regenerate it after engine changes and diff.
//!
//! Sweep throughput is measured by running value iteration with a
//! *negative* epsilon, which disables early convergence exit in both
//! engines so that exactly `max_sweeps` full sweeps execute.
//!
//! Since schema v4 the report also carries a [`FaultsBench`] block: the
//! `n = 3` claim survival map from `pa-faults` plus the structural
//! invariants (zero-fault bitwise identity, certified-absorbing crash
//! states) that `compare_bench` gates. Schema v5 adds a [`BatchBench`]
//! block: the `pa-batch` worker-invariance probe (job tallies, model-cache
//! hit counts, and the canonical-report digest shared by the 1-worker and
//! 4-worker runs). Schema v6 adds the [`crate::mc_suite::McBench`] block:
//! the sampled-tier cross-validation (every arrow × fault-plan 99%
//! interval must contain its exact value) with its seed-determinism
//! digest and the 1/2/8-worker invariance probe. Schema v7 adds the
//! [`SymmetryBench`] block: the rotation-quotient reduction (orbit counts
//! and reduction factors per ring size, quotient-only rows past the full
//! engine's reach), the full-vs-quotient bitwise lifting check, and the
//! exact-frontier re-verification of every paper arrow on orbit
//! representatives — all gated by `compare_bench`. Schema v8 adds the
//! [`ServeBench`] block: the `pa-serve` daemon probe (socket-submitted
//! batches must digest identically to direct `run_batch` runs across
//! worker counts and cache budgets, LRU evictions must actually fire
//! under a tiny budget, and the admission/backpressure tallies are gated
//! exactly). Schema v9 adds the [`StoreBench`] block: the out-of-core
//! probe (the `n = 4` quotient spilled to a multi-block `pa-store/csr/v2`
//! file must answer every paper arrow bitwise identically to the in-core
//! engine at an unbounded *and* a one-block cache budget, with eviction
//! liveness and the paging-residency bound gated).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use pa_core::Automaton;
use pa_faults::{
    faulty_round_cost, survival_map, FaultEvent, FaultKind, FaultPlan, FaultyRoundMdp, Survival,
    SurvivalMap, TAG_CRASH,
};
use pa_lehmann_rabin::{
    check_arrow_quotient, check_arrow_with_limit, max_expected_time_quotient,
    min_expected_time_quotient, paper, regions, round_cost, sims, LrProtocol, RoundConfig,
    RoundMdp, UserModel,
};
use pa_mdp::{
    reference, Choice, CsrMdp, ExplicitMdp, Explore, IterOptions, MdpError, Objective, Query,
    QueryObjective, RingRotation, StateSpace,
};
use pa_telemetry::TelemetrySnapshot;
use serde::Serialize;

/// The seed engine's exploration, reproduced verbatim for baseline timing:
/// serial BFS interning *cloned* states through a default-SipHash
/// `HashMap`, cloning the source state again for every expansion.
pub fn explore_seed_style<M: Automaton>(
    automaton: &M,
    mut cost_of: impl FnMut(&M::State, &M::Action) -> u32,
    limit: usize,
) -> Result<ExplicitMdp, MdpError> {
    let mut states: Vec<M::State> = Vec::new();
    let mut index: HashMap<M::State, usize> = HashMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut choices: Vec<Vec<Choice>> = Vec::new();

    let intern = |s: M::State,
                  states: &mut Vec<M::State>,
                  index: &mut HashMap<M::State, usize>,
                  queue: &mut VecDeque<usize>|
     -> Result<usize, MdpError> {
        match index.entry(s) {
            Entry::Occupied(e) => Ok(*e.get()),
            Entry::Vacant(e) => {
                let id = states.len();
                if id >= limit {
                    return Err(MdpError::StateLimitExceeded { limit });
                }
                states.push(e.key().clone());
                e.insert(id);
                queue.push_back(id);
                Ok(id)
            }
        }
    };

    let mut initial = Vec::new();
    for s in automaton.start_states() {
        initial.push(intern(s, &mut states, &mut index, &mut queue)?);
    }
    while let Some(id) = queue.pop_front() {
        let state = states[id].clone();
        let mut cs = Vec::new();
        for step in automaton.steps(&state) {
            let cost = cost_of(&state, &step.action);
            let mut transitions = Vec::with_capacity(step.target.len());
            for (t, p) in step.target.iter() {
                let ti = intern(t.clone(), &mut states, &mut index, &mut queue)?;
                transitions.push((ti, p.value()));
            }
            cs.push(Choice { cost, transitions });
        }
        choices.push(cs);
    }
    ExplicitMdp::new(choices, initial)
}

/// Throughput of one exploration or sweep workload, baseline vs CSR.
#[derive(Debug, Clone, Serialize)]
pub struct Throughput {
    /// Work units per second for the seed engine.
    pub baseline_per_sec: f64,
    /// Work units per second for the CSR engine.
    pub csr_per_sec: f64,
    /// `csr_per_sec / baseline_per_sec`.
    pub speedup: f64,
    /// Wall-clock seconds of the baseline run.
    pub baseline_seconds: f64,
    /// Wall-clock seconds of the CSR run.
    pub csr_seconds: f64,
}

fn throughput(units: f64, baseline_seconds: f64, csr_seconds: f64) -> Throughput {
    Throughput {
        baseline_per_sec: units / baseline_seconds,
        csr_per_sec: units / csr_seconds,
        speedup: baseline_seconds / csr_seconds,
        baseline_seconds,
        csr_seconds,
    }
}

/// One ring size's measurements.
#[derive(Debug, Clone, Serialize)]
pub struct RingBench {
    /// Ring size.
    pub n: usize,
    /// Reachable states of the saturating-user protocol automaton.
    pub states: usize,
    /// Total nondeterministic choices.
    pub choices: usize,
    /// Total probabilistic transitions.
    pub transitions: usize,
    /// Full Jacobi/Gauss–Seidel sweeps timed for the sweep metric.
    pub sweeps_timed: usize,
    /// Seconds to flatten the nested model into CSR (one-time cost).
    pub csr_build_seconds: f64,
    /// Exploration throughput in states/sec.
    pub explore_states_per_sec: Throughput,
    /// Value-iteration throughput in sweeps/sec.
    pub vi_sweeps_per_sec: Throughput,
}

/// Machine identification recorded alongside the numbers.
#[derive(Debug, Clone, Serialize)]
pub struct Machine {
    /// CPU model string from `/proc/cpuinfo` (or "unknown").
    pub cpu: String,
    /// Logical cores visible to the process.
    pub logical_cores: usize,
    /// Total memory in GiB from `/proc/meminfo` (0.0 if unreadable).
    pub memory_gib: f64,
    /// `rustc --version` of the toolchain on `PATH` (or "unknown").
    pub rustc: String,
    /// Kernel identification (or "unknown").
    pub os: String,
}

/// Disabled-vs-enabled cost of the telemetry layer on the value-iteration
/// hot loop — the "near-zero-cost when off" microcheck. Timed on the same
/// CSR model with a fixed sweep budget, so the only variable is the
/// per-sweep recording.
#[derive(Debug, Clone, Serialize)]
pub struct TelemetryOverhead {
    /// Ring size of the probe model.
    pub n: usize,
    /// Full Jacobi sweeps timed in each configuration.
    pub sweeps: usize,
    /// Wall-clock seconds with the registry disabled.
    pub vi_disabled_seconds: f64,
    /// Wall-clock seconds with the registry enabled (recording sweeps,
    /// residuals and spans).
    pub vi_enabled_seconds: f64,
    /// `vi_enabled_seconds / vi_disabled_seconds`; ≈ 1.0 means the
    /// instrumentation is invisible at this granularity.
    pub enabled_over_disabled: f64,
}

/// The fault-subsystem block of `BENCH_mdp.json`: the `n = 3` claim
/// survival map plus the two structural invariants the `pa-faults` crate
/// guarantees — the zero-fault column is bitwise equal to the fault-free
/// checker, and total-crash states are certified absorbing self-loops.
#[derive(Debug, Clone, Serialize)]
pub struct FaultsBench {
    /// The `n = 3` survival map over the default fault grid.
    pub map: SurvivalMap,
    /// Cells classified [`Survival::Holds`].
    pub holds: u64,
    /// Cells classified [`Survival::Degraded`].
    pub degraded: u64,
    /// Cells classified [`Survival::Fails`].
    pub fails: u64,
    /// Whether every zero-fault cell is bitwise equal (`f64::to_bits`) to
    /// the fault-free `check_arrow` result for the same arrow. Must be
    /// `true`; gated by `compare_bench`.
    pub zero_fault_bitwise_equal: bool,
    /// `EndRound` self-loop choices tagged [`TAG_CRASH`] in a total-crash
    /// exploration — the absorbing-state audit surface. Must be positive.
    pub crash_tagged_choices: u64,
    /// Tagged choices that are *not* deterministic self-loops. Must be 0.
    pub crash_absorbing_violations: u64,
}

/// Builds the [`FaultsBench`] block: survival map, zero-fault bitwise
/// identity check, and the total-crash absorbing-structure audit, all on
/// the `n = 3` ring.
pub fn faults_bench(limit: usize) -> Result<FaultsBench, Box<dyn std::error::Error>> {
    let cfg = RoundConfig::new(3)?;
    let map = survival_map(3, limit)?;

    let (mut holds, mut degraded, mut fails) = (0u64, 0u64, 0u64);
    for cell in map.rows.iter().flat_map(|r| &r.cells) {
        match cell.survival {
            Survival::Holds => holds += 1,
            Survival::Degraded => degraded += 1,
            Survival::Fails => fails += 1,
        }
    }

    let mdp = RoundMdp::new(cfg);
    let mut zero_fault_bitwise_equal = true;
    for (arrow, _why) in paper::all_arrows() {
        let plain = check_arrow_with_limit(&mdp, &arrow, limit)?;
        let none = map
            .cell(&arrow.to_string(), "none")
            .ok_or("survival map is missing its zero-fault column")?;
        if plain.measured.lo().value().to_bits() != none.measured.to_bits() {
            zero_fault_bitwise_equal = false;
        }
    }

    // Crash every process at round 2 and certify that the resulting dead
    // states are exactly deterministic `EndRound` self-loops — the
    // absorbing structure the solver relies on.
    let total_crash = FaultPlan::new(
        (0..3)
            .map(|process| FaultEvent {
                round: 2,
                process,
                kind: FaultKind::CrashStop,
            })
            .collect(),
    )?;
    let wrapped = FaultyRoundMdp::new(cfg, total_crash)?;
    let explored = Explore::new(&wrapped)
        .cost(faulty_round_cost)
        .limit(limit)
        .parallel()
        .run()?;
    let tags = wrapped.crash_tags(&explored);
    let violations = pa_mdp::tagged_absorbing_violations(&explored.mdp, &tags, TAG_CRASH);

    Ok(FaultsBench {
        map,
        holds,
        degraded,
        fails,
        zero_fault_bitwise_equal,
        crash_tagged_choices: tags.count(TAG_CRASH) as u64,
        crash_absorbing_violations: violations.len() as u64,
    })
}

/// The batch-driver block of `BENCH_mdp.json` (schema v5): the `n = 3`
/// model-backed suite run through `pa-batch` at one and at four workers.
/// Job tallies and cache hit counts are deterministic per job set (the
/// cache builds each key exactly once regardless of scheduling), and the
/// canonical reports of the two runs must be byte-identical — their
/// shared digest is the `invariance_digest` the baseline pins.
#[derive(Debug, Clone, Serialize)]
pub struct BatchBench {
    /// Jobs in the suite.
    pub jobs: u64,
    /// Jobs that finished with a value.
    pub done: u64,
    /// Jobs that errored.
    pub failed: u64,
    /// Finished jobs whose value reports a violated claim. Faulted arrow
    /// cells that degrade under their plan count here — that's expected
    /// (the survival map documents which) — so this is gated *exactly*
    /// rather than required to be zero.
    pub violated: u64,
    /// Model-cache accesses served from an existing slot.
    pub model_cache_hits: u64,
    /// Model builds (= distinct `(ring, plan)` keys demanded).
    pub model_cache_misses: u64,
    /// `hits / (hits + misses)`; the acceptance criterion requires > 0.
    pub cache_hit_rate: f64,
    /// Distinct models resident at the end of the run.
    pub distinct_models: u64,
    /// Whether the 1-worker and 4-worker canonical reports were
    /// byte-identical. Must be `true`; gated by `compare_bench`.
    pub worker_invariant: bool,
    /// FNV-1a 64 digest of the canonical report (16 hex digits), shared
    /// by both runs when `worker_invariant` holds.
    pub invariance_digest: String,
}

/// Builds the [`BatchBench`] block: the `n = 3` model-backed suite at
/// `--workers 1` vs `--workers 4`, compared byte-for-byte.
pub fn batch_bench() -> Result<BatchBench, Box<dyn std::error::Error>> {
    use pa_batch::{run_batch, BatchOptions};
    let specs = crate::batch_suite::model_specs(&[3]);
    let serial = run_batch(&specs, &BatchOptions::with_workers(1))?;
    let parallel = run_batch(&specs, &BatchOptions::with_workers(4))?;
    let worker_invariant = serial.canonical_json() == parallel.canonical_json();
    let tally = parallel.tally();
    Ok(BatchBench {
        jobs: parallel.jobs.len() as u64,
        done: tally.done as u64,
        failed: tally.failed as u64,
        violated: tally.violated as u64,
        model_cache_hits: parallel.cache.model_hits,
        model_cache_misses: parallel.cache.model_misses,
        cache_hit_rate: parallel.cache.hit_rate(),
        distinct_models: parallel.cache.distinct_models as u64,
        worker_invariant,
        invariance_digest: parallel.digest(),
    })
}

/// The service block of `BENCH_mdp.json` (schema v8): the `n = 3`
/// model-backed suite submitted to a `pa-serve` daemon over real unix
/// sockets, across worker counts and cache budgets (one small enough to
/// force LRU evictions), compared digest-for-digest against the direct
/// [`pa_batch::run_batch`] run — plus a backpressure/malformed-input
/// probe whose admission tallies are deterministic and gated exactly.
#[derive(Debug, Clone, Serialize)]
pub struct ServeBench {
    /// Jobs per submitted batch.
    pub jobs: u64,
    /// The canonical-report digest shared by the direct run and every
    /// socket run. Equals `batch.invariance_digest` (same job set);
    /// `compare_bench` gates both equalities.
    pub digest: String,
    /// Whether every socket-submitted batch (cold and warm, every worker
    /// count, every budget) digested identically to the direct run. Must
    /// be `true`; gated hard by `compare_bench`.
    pub digest_invariant: bool,
    /// Socket batches compared (2 batches × 3 budget/worker combos).
    pub socket_batches: u64,
    /// LRU evictions under the 1-byte budget. Must be positive — a zero
    /// means the eviction path went dead while its digest gate passed
    /// vacuously.
    pub evictions: u64,
    /// Rebuilds of evicted models under the 1-byte budget. Must be
    /// positive for the same reason.
    pub rebuilds: u64,
    /// Jobs admitted across every server in the block. Deterministic
    /// (`socket_batches × jobs` + the probe's admissions); gated exactly.
    pub jobs_accepted: u64,
    /// Jobs rejected by the probe's depth-2 queue. Deterministic; gated
    /// exactly.
    pub backpressure_rejections: u64,
    /// Malformed lines rejected by the probe. Deterministic; gated
    /// exactly.
    pub lines_rejected: u64,
    /// Batches executed across every server. Deterministic; gated exactly.
    pub batches_run: u64,
}

/// Submits `specs` over a fresh unix socket `batches` times on one
/// connection and returns the reported digests (then drains the daemon).
fn serve_socket_digests(
    server: &std::sync::Arc<pa_serve::Server>,
    tag: &str,
    specs: &[pa_batch::JobSpec],
    workers: usize,
    batches: usize,
) -> Result<Vec<String>, Box<dyn std::error::Error>> {
    use crate::json::Json;
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let path =
        std::env::temp_dir().join(format!("pa-bench-serve-{}-{tag}.sock", std::process::id()));
    let daemon = {
        let server = std::sync::Arc::clone(server);
        let path = path.clone();
        std::thread::spawn(move || server.serve_unix(&path))
    };
    let stream = {
        let mut attempt = 0;
        loop {
            match UnixStream::connect(&path) {
                Ok(s) => break s,
                Err(e) if attempt < 500 => {
                    attempt += 1;
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    let _ = e;
                }
                Err(e) => return Err(format!("connect {}: {e}", path.display()).into()),
            }
        }
    };
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut exchange = |line: &str| -> Result<Json, Box<dyn std::error::Error>> {
        writeln!(&stream, "{line}")?;
        let mut response = String::new();
        reader.read_line(&mut response)?;
        Ok(Json::parse(response.trim_end())?)
    };
    let mut digests = Vec::new();
    for _ in 0..batches {
        for spec in specs {
            let ack = exchange(&pa_serve::spec_to_wire(spec)?)?;
            if ack.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(format!("job rejected: {ack:?}").into());
            }
        }
        let done = exchange(&format!("{{\"op\":\"run\",\"workers\":{workers}}}"))?;
        let digest = done
            .get("digest")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("run failed: {done:?}"))?;
        digests.push(digest.to_string());
    }
    exchange("{\"op\":\"drain\"}")?;
    daemon
        .join()
        .map_err(|_| "serve daemon panicked")?
        .map_err(|e| format!("serve daemon: {e}"))?;
    Ok(digests)
}

/// Builds the [`ServeBench`] block. Three daemons run the digest matrix
/// (unbounded × 1 worker, unbounded × 4 workers, 1-byte budget × 4
/// workers — two batches each, so the warm repeat exercises tombstone
/// rebuilds under the tiny budget); a fourth daemon runs the
/// admission probe (queue depth 2, three submissions, three malformed
/// lines) through an in-memory stream.
pub fn serve_bench() -> Result<ServeBench, Box<dyn std::error::Error>> {
    use pa_batch::{run_batch, BatchOptions};
    use pa_serve::{CustomRegistry, ServeConfig, Server};

    let specs = crate::batch_suite::model_specs(&[3]);
    let direct = run_batch(&specs, &BatchOptions::with_workers(1))?;
    let expected = direct.digest();

    let mut digest_invariant = true;
    let mut socket_batches = 0u64;
    let mut evictions = 0u64;
    let mut rebuilds = 0u64;
    let mut jobs_accepted = 0u64;
    let mut batches_run = 0u64;
    for (i, (budget, workers)) in [(None, 1usize), (None, 4), (Some(1), 4)].iter().enumerate() {
        let config = ServeConfig {
            cache_budget: *budget,
            ..ServeConfig::default()
        };
        let server = std::sync::Arc::new(Server::new(config, CustomRegistry::new())?);
        let digests = serve_socket_digests(&server, &format!("m{i}"), &specs, *workers, 2)?;
        socket_batches += digests.len() as u64;
        digest_invariant &= digests.iter().all(|d| *d == expected);
        evictions += server.cache().evictions();
        rebuilds += server.cache().rebuilds();
        jobs_accepted += server.jobs_accepted();
        batches_run += server.batches_run();
    }

    // Admission probe: a depth-2 queue rejects the third submission; the
    // malformed corpus is skipped per line without touching the batch.
    let probe = Server::new(
        ServeConfig {
            queue_depth: 2,
            ..ServeConfig::default()
        },
        CustomRegistry::new(),
    )?;
    let mut input = String::new();
    for spec in specs.iter().take(3) {
        input.push_str(&pa_serve::spec_to_wire(spec)?);
        input.push('\n');
    }
    input.push_str("not json\n{\"op\":\"frobnicate\"}\n{\"op\":\"job\",\"n\":3}\n");
    input.push_str("{\"op\":\"run\",\"workers\":1}\n");
    let mut sink = Vec::new();
    probe.handle_stream(std::io::Cursor::new(input.into_bytes()), &mut sink)?;
    jobs_accepted += probe.jobs_accepted();
    batches_run += probe.batches_run();

    Ok(ServeBench {
        jobs: specs.len() as u64,
        digest: expected,
        digest_invariant,
        socket_batches,
        evictions,
        rebuilds,
        jobs_accepted,
        backpressure_rejections: probe.jobs_rejected(),
        lines_rejected: probe.lines_rejected(),
        batches_run,
    })
}

/// The out-of-core block of `BENCH_mdp.json` (schema v9): the `n = 4`
/// rotation-quotient model spilled to a multi-block `pa-store/csr/v2`
/// file (4 KiB blocks, so even the smoke model splits) and re-queried
/// through the block-streamed engines at two cache budgets — unbounded
/// and one byte (exactly one resident block). Every paper arrow's full
/// value vector is digested for all three backends; `compare_bench` gates
/// the digests bitwise-equal, eviction liveness under the tight budget,
/// and the paging-residency bound.
#[derive(Debug, Clone, Serialize)]
pub struct StoreBench {
    /// Ring size of the probe model.
    pub n: usize,
    /// Orbit states spilled.
    pub states: u64,
    /// CSR blocks in the spill file (must be > 1 or the budget probe is
    /// vacuous).
    pub csr_blocks: u64,
    /// Target payload bytes per block the writer was configured with.
    pub block_bytes: u64,
    /// On-disk bytes of the finished spill file.
    pub file_bytes: u64,
    /// Largest single CSR block payload, bytes.
    pub max_block_payload: u64,
    /// FNV-64 digest over the five paper arrows' full value vectors,
    /// in-core CSR engine.
    pub digest_in_core: String,
    /// The same digest from the stored backend, unbounded block cache.
    pub digest_unbounded: String,
    /// The same digest from the stored backend at a one-byte budget
    /// (exactly one resident block at a time).
    pub digest_one_block: String,
    /// Whether all three digests agree. Must be `true`; gated hard.
    pub bitwise_identical: bool,
    /// Block faults of the tight-budget run.
    pub faults: u64,
    /// Block-cache hits of the tight-budget run.
    pub hits: u64,
    /// Evictions of the tight-budget run. Must be positive — zero means
    /// the digest equality above passed without any paging pressure.
    pub evictions: u64,
    /// Peak resident payload bytes of the tight-budget run's cache.
    pub peak_resident_bytes: u64,
    /// The memory-bound contract: peak paging residency stayed within
    /// budget + two blocks (the pinned block plus the one being faulted
    /// in before eviction runs). With a one-byte budget this pins peak
    /// RSS growth to two blocks regardless of model size. Gated hard.
    pub rss_bounded: bool,
    /// Wall seconds of the streamed (spilling) exploration.
    pub spill_seconds: f64,
    /// Wall seconds of the five tight-budget queries.
    pub query_seconds: f64,
}

/// Builds the [`StoreBench`] block; see the type docs. The spill
/// directory lives under the system temp dir and is removed before
/// returning (verified — a stale directory fails the run).
pub fn store_bench(limit: usize) -> Result<StoreBench, Box<dyn std::error::Error>> {
    use pa_faults::{set_pred_under, FaultyStateCodec};
    use pa_lehmann_rabin::{reachable_configs_quotient, time_to_budget};
    use pa_mdp::PackedSpace;
    use pa_store::{SpillTo, StoredCsr};

    let n = 4usize;
    let block_bytes = 4096usize;
    let configs = reachable_configs_quotient(n, limit)?;
    let cfg = RoundConfig::new(n)?;
    let model = pa_faults::FaultyRoundMdp::new(cfg, FaultPlan::none())?.with_starts(configs);
    let codec = FaultyStateCodec::new(n, model.round_cap())?;

    // In-core reference: the exact quotient pipeline the cache runs.
    let explored = Explore::new(&model)
        .cost(faulty_round_cost)
        .limit(limit)
        .parallel()
        .symmetry(RingRotation::new(n))
        .run_in(PackedSpace::new(codec))?;
    let csr = CsrMdp::from_explicit(&explored.mdp);

    let arrows = paper::all_arrows();
    let masks: Vec<(Vec<bool>, u32)> = arrows
        .iter()
        .map(|(arrow, _)| {
            let to = set_pred_under(arrow.to()).expect("paper arrows resolve");
            (
                explored.target_where(|s| to(&s.inner.config, s.crashed_mask(n))),
                time_to_budget(arrow.time()),
            )
        })
        .collect();

    let digest_of = |vectors: &[Vec<f64>]| {
        let mut bytes = Vec::with_capacity(vectors.iter().map(Vec::len).sum::<usize>() * 8);
        for values in vectors {
            for v in values {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        format!("{:016x}", pa_store::fnv1a_64(&bytes))
    };

    let mut in_core = Vec::new();
    for (mask, horizon) in &masks {
        in_core.push(
            Query::csr(&csr)
                .objective(QueryObjective::MinProb)
                .target(mask.clone())
                .horizon(*horizon)
                .run()?
                .values,
        );
    }
    let digest_in_core = digest_of(&in_core);

    // Spill once (streamed, serial) with small blocks so the file splits.
    let dir = std::env::temp_dir().join(format!("pa-bench-store-{}", std::process::id()));
    let t0 = Instant::now();
    let stored = Explore::new(&model)
        .cost(faulty_round_cost)
        .limit(limit)
        .symmetry(RingRotation::new(n))
        .spill_to(&dir, u64::MAX)
        .block_bytes(block_bytes)
        .run_in(PackedSpace::new(codec))?;
    let spill_seconds = t0.elapsed().as_secs_f64();
    let path = stored.store().file().path().to_path_buf();
    let file_bytes = std::fs::metadata(&path)?.len();
    let csr_metas: Vec<_> = stored
        .store()
        .file()
        .blocks()
        .iter()
        .filter(|m| m.kind == pa_store::BlockKind::Csr)
        .cloned()
        .collect();
    let max_block_payload = csr_metas.iter().map(|m| m.payload_len).max().unwrap_or(0);

    let mut unbounded = Vec::new();
    for (mask, horizon) in &masks {
        unbounded.push(
            Query::source(stored.store())
                .objective(QueryObjective::MinProb)
                .target(mask.clone())
                .horizon(*horizon)
                .run()?
                .values,
        );
    }
    let digest_unbounded = digest_of(&unbounded);

    // Reopen at a one-byte budget: exactly one resident block per access.
    let tight = StoredCsr::open(&path, 1)?;
    let t0 = Instant::now();
    let mut one_block = Vec::new();
    for (mask, horizon) in &masks {
        one_block.push(
            Query::source(&tight)
                .objective(QueryObjective::MinProb)
                .target(mask.clone())
                .horizon(*horizon)
                .run()?
                .values,
        );
    }
    let query_seconds = t0.elapsed().as_secs_f64();
    let digest_one_block = digest_of(&one_block);
    let stats = tight.cache().local_stats();
    drop(tight);
    drop(stored);
    std::fs::remove_dir_all(&dir)?;
    if dir.exists() {
        return Err(format!("spill dir {} survived cleanup", dir.display()).into());
    }

    let bitwise_identical =
        digest_in_core == digest_unbounded && digest_in_core == digest_one_block;
    let rss_bounded = stats.peak_resident_bytes <= 1 + 2 * max_block_payload;
    Ok(StoreBench {
        n,
        states: explored.num_states() as u64,
        csr_blocks: csr_metas.len() as u64,
        block_bytes: block_bytes as u64,
        file_bytes,
        max_block_payload,
        digest_in_core,
        digest_unbounded,
        digest_one_block,
        bitwise_identical,
        faults: stats.faults,
        hits: stats.hits,
        evictions: stats.evictions,
        peak_resident_bytes: stats.peak_resident_bytes,
        rss_bounded,
        spill_seconds,
        query_seconds,
    })
}

/// One ring size's rotation-quotient measurement on the protocol
/// automaton: orbit count, reduction factor and the cost of exploring the
/// quotient. Past the largest ring where the full space is still
/// materialized, only the quotient row is recorded (`full_states` is
/// `None`) — those are exactly the sizes the quotient unlocks.
#[derive(Debug, Clone, Serialize)]
pub struct SymmetryRing {
    /// Ring size.
    pub n: usize,
    /// Reachable states of the full protocol automaton, when it was
    /// materialized alongside the quotient.
    pub full_states: Option<u64>,
    /// Reachable orbit representatives of the rotation quotient.
    pub orbit_states: u64,
    /// `full_states / orbit_states`; approaches `n` from below as the
    /// fraction of rotation-symmetric configurations vanishes.
    pub reduction: Option<f64>,
    /// Wall-clock seconds of the quotient exploration.
    pub quotient_explore_seconds: f64,
    /// Bytes held by the quotient's packed state store.
    pub quotient_mem_bytes: u64,
}

/// One paper arrow re-verified on the rotation quotient at the frontier
/// ring size.
#[derive(Debug, Clone, Serialize)]
pub struct FrontierArrow {
    /// The claim, rendered as in the paper.
    pub arrow: String,
    /// Whether the worst-case probability over all orbit starts meets the
    /// claim. Every arrow must hold; gated by `compare_bench`.
    pub holds: bool,
    /// The measured worst-case probability (lower end of the interval).
    pub measured_lo: f64,
    /// Orbit start states the check quantified over.
    pub orbit_starts: u64,
    /// Wall-clock seconds of the check.
    pub seconds: f64,
}

/// The exact frontier: the largest ring on which the round-model engine
/// re-derives every paper arrow and the `T → C` expected-time bracket once
/// the rotation quotient is active. One orbit representative stands in for
/// `n` rotated copies, so the verdicts quantify over the full space.
#[derive(Debug, Clone, Serialize)]
pub struct SymmetryFrontier {
    /// Frontier ring size.
    pub n: usize,
    /// Every paper arrow, checked on orbit representatives.
    pub arrows: Vec<FrontierArrow>,
    /// Whether every arrow held. Must be `true`; gated by `compare_bench`.
    pub all_hold: bool,
    /// Worst-case expected time `T → C` over the quotient.
    pub expected_time_max: f64,
    /// Best-case expected time `T → C` over the quotient.
    pub expected_time_min: f64,
    /// The paper's claimed expected-time bound for `T → C`.
    pub expected_time_claimed: f64,
    /// `expected_time_max <= expected_time_claimed`. Must be `true`;
    /// gated by `compare_bench`.
    pub expected_time_within_claim: bool,
    /// Wall-clock seconds of the whole frontier re-verification.
    pub seconds: f64,
}

/// The `symmetry` block of `BENCH_mdp.json` (schema v7): quotient
/// reduction per ring size, the full-vs-quotient lifting check, and the
/// exact-frontier re-verification.
#[derive(Debug, Clone, Serialize)]
pub struct SymmetryBench {
    /// Ring size of the lifting check.
    pub lifting_n: usize,
    /// Whether every arrow's verdict *and* measured probability are
    /// bitwise equal (`f64::to_bits`) between the full-space checker and
    /// the quotient checker at `lifting_n`. Must be `true`; gated by
    /// `compare_bench` — a `false` here means quotient lifting is
    /// unsound, not slow.
    pub lifting_bitwise_equal: bool,
    /// Per-ring-size quotient measurements.
    pub rings: Vec<SymmetryRing>,
    /// The exact-frontier re-verification.
    pub frontier: SymmetryFrontier,
    /// Peak resident set of the process (`VmHWM`, MiB) after the block's
    /// largest exploration — the memory headline for the quotient rows.
    pub peak_rss_mib: f64,
}

/// Peak resident set of the current process in MiB (`VmHWM` from
/// `/proc/self/status`), or `0.0` where unreadable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Builds the [`SymmetryBench`] block. The smoke size (`max_n <= 4`)
/// pairs full and quotient explorations on `n = 3..=5` and re-verifies the
/// frontier at `n = 4`; the full size extends the paired rows to `n = 7`,
/// records quotient-only rows at `n = 8, 9` (the sizes the full engine
/// cannot materialize), and re-verifies the frontier at `n = 6`.
pub fn symmetry_bench(max_n: usize) -> Result<SymmetryBench, Box<dyn std::error::Error>> {
    let limit = 80_000_000;
    let (paired_max, quotient_max, frontier_n, lifting_n) = if max_n <= 4 {
        (5, 5, 4, 4)
    } else {
        (7, 9, 6, 5)
    };

    // Lifting: every arrow bitwise identical between the two engines.
    let mdp = RoundMdp::new(RoundConfig::new(lifting_n)?);
    let mut lifting_bitwise_equal = true;
    for (arrow, _why) in paper::all_arrows() {
        let full = check_arrow_with_limit(&mdp, &arrow, limit)?;
        let quot = check_arrow_quotient(&mdp, &arrow, limit)?;
        if full.measured.lo().value().to_bits() != quot.measured.lo().value().to_bits()
            || full.holds() != quot.holds()
        {
            lifting_bitwise_equal = false;
        }
    }

    // Reduction table on the protocol automaton.
    let mut rings = Vec::new();
    for n in 3..=quotient_max {
        eprintln!("  quotient ring n={n}…");
        let protocol = LrProtocol::new(n, UserModel::saturating()).expect("valid ring size");
        let full_states = if n <= paired_max {
            let explored = Explore::new(&protocol).limit(limit).parallel().run()?;
            Some(explored.mdp.num_states() as u64)
        } else {
            None
        };
        let t0 = Instant::now();
        let explored = Explore::new(&protocol)
            .limit(limit)
            .parallel()
            .symmetry(RingRotation::new(n))
            .run()?;
        let orbit_states = explored.mdp.num_states() as u64;
        rings.push(SymmetryRing {
            n,
            full_states,
            orbit_states,
            reduction: full_states.map(|f| f as f64 / orbit_states as f64),
            quotient_explore_seconds: t0.elapsed().as_secs_f64(),
            quotient_mem_bytes: explored.mem_bytes(),
        });
    }

    // Frontier: every arrow plus the expected-time bracket on the
    // quotient round model.
    eprintln!("  frontier n={frontier_n}…");
    let t0 = Instant::now();
    let mdp = RoundMdp::new(RoundConfig::new(frontier_n)?);
    let mut arrows = Vec::new();
    for (arrow, _why) in paper::all_arrows() {
        let ta = Instant::now();
        let check = check_arrow_quotient(&mdp, &arrow, limit)?;
        arrows.push(FrontierArrow {
            arrow: arrow.to_string(),
            holds: check.holds(),
            measured_lo: check.measured.lo().value(),
            orbit_starts: check.states_checked as u64,
            seconds: ta.elapsed().as_secs_f64(),
        });
    }
    let all_hold = arrows.iter().all(|a| a.holds);
    let t = pa_core::SetExpr::named("T");
    let c = pa_core::SetExpr::named("C");
    let expected_time_max = max_expected_time_quotient(&mdp, &t, &c, limit)?;
    let expected_time_min = min_expected_time_quotient(&mdp, &t, &c, limit)?;
    let expected_time_claimed = paper::expected_time_t_to_c();
    let frontier = SymmetryFrontier {
        n: frontier_n,
        arrows,
        all_hold,
        expected_time_max,
        expected_time_min,
        expected_time_claimed,
        expected_time_within_claim: expected_time_max <= expected_time_claimed,
        seconds: t0.elapsed().as_secs_f64(),
    };

    Ok(SymmetryBench {
        lifting_n,
        lifting_bitwise_equal,
        rings,
        frontier,
        peak_rss_mib: peak_rss_mib(),
    })
}

/// The whole `BENCH_mdp.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct BenchReport {
    /// Artifact format tag.
    pub schema: String,
    /// Model measured.
    pub model: String,
    /// Command that regenerates the artifact.
    pub regenerate: String,
    /// Machine the numbers were taken on.
    pub machine: Machine,
    /// Per-ring-size measurements.
    pub rings: Vec<RingBench>,
    /// Metrics collected by a fixed instrumented workload (exploration +
    /// value iteration + Monte-Carlo on the `n = 3` round model). The timed
    /// throughput runs above execute with telemetry *disabled* so the
    /// engine comparison stays unbiased; this block is produced by a
    /// separate probe run.
    pub telemetry: TelemetrySnapshot,
    /// The disabled-registry overhead microcheck.
    pub telemetry_overhead: TelemetryOverhead,
    /// The fault-subsystem block: the `n = 3` claim survival map and the
    /// structural invariants `compare_bench` gates.
    pub faults: FaultsBench,
    /// The batch-driver block (schema v5): job tallies, model-cache hit
    /// counts and the worker-invariance digest `compare_bench` gates.
    pub batch: BatchBench,
    /// The sampled-tier block (schema v6): the `n = 3` Monte-Carlo
    /// cross-validation with its seed-determinism digest and worker
    /// invariance probe, all gated by `compare_bench`.
    pub mc: crate::mc_suite::McBench,
    /// The rotation-quotient block (schema v7): orbit counts, reduction
    /// factors, the bitwise lifting check and the exact-frontier
    /// re-verification, all gated by `compare_bench`.
    pub symmetry: SymmetryBench,
    /// The service block (schema v8): socket-vs-direct digest equality
    /// across worker counts and cache budgets, eviction liveness, and the
    /// exact admission tallies, all gated by `compare_bench`.
    pub serve: ServeBench,
    /// The out-of-core block (schema v9): in-core vs stored-backend value
    /// digests at unbounded and one-block cache budgets, eviction
    /// liveness, and the paging-residency bound, all gated by
    /// `compare_bench`.
    pub store: StoreBench,
}

fn read_cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn read_memory_gib() -> f64 {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("MemTotal"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / (1024.0 * 1024.0))
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn os_version() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| format!("Linux {}", s.trim()))
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Identifies the current machine.
pub fn machine() -> Machine {
    Machine {
        cpu: read_cpu_model(),
        logical_cores: std::thread::available_parallelism().map_or(1, |p| p.get()),
        memory_gib: read_memory_gib(),
        rustc: rustc_version(),
        os: os_version(),
    }
}

/// Measures one ring size. Exploration is capped at `limit` states so the
/// largest rings measure throughput without materializing the full space.
pub fn bench_ring(n: usize, limit: usize) -> Result<RingBench, MdpError> {
    let protocol = LrProtocol::new(n, UserModel::saturating()).expect("valid ring size");
    let cost = |_: &pa_lehmann_rabin::Config, _: &pa_lehmann_rabin::LrAction| 1u32;

    // Exploration: seed engine first, then the CSR-era engine. Drop the
    // seed model before the second timed run — keeping gigabytes of nested
    // `Vec`s alive would slow the second explorer's allocations and skew
    // the comparison (measured: the ordering effect exceeded the engine
    // delta at n = 7).
    let t0 = Instant::now();
    let seed_mdp = explore_seed_style(&protocol, cost, limit)?;
    let explore_baseline = t0.elapsed().as_secs_f64();
    let seed_states = seed_mdp.num_states();
    drop(seed_mdp);

    let t0 = Instant::now();
    let mut explored = Explore::new(&protocol)
        .cost(cost)
        .limit(limit)
        .parallel()
        .run()?;
    let explore_csr = t0.elapsed().as_secs_f64();

    assert_eq!(
        seed_states,
        explored.mdp.num_states(),
        "engines must agree on the state space"
    );
    let states = explored.mdp.num_states();
    let choices = explored.mdp.num_choices();
    let transitions = explored.mdp.num_transitions();

    // Value iteration: fix the sweep count by size, disable early exit
    // with a negative epsilon, and time full sweeps to the critical region.
    let sweeps = (60_000_000 / transitions.max(1)).clamp(4, 64);
    let opts = IterOptions {
        epsilon: -1.0,
        max_sweeps: sweeps,
    };
    let target = explored.target_where(regions::in_c);
    // The intern map is dead weight from here on; free it so both VI
    // engines sweep against the same live heap.
    explored.space.clear_index();

    let t0 = Instant::now();
    let gs = reference::reach_prob_gauss_seidel(&explored.mdp, &target, Objective::MaxProb, opts)?;
    let vi_baseline = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let csr = CsrMdp::from_explicit(&explored.mdp);
    let csr_build = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let jacobi = csr.reach_prob(&target, Objective::MaxProb, opts, None)?;
    let vi_csr = t0.elapsed().as_secs_f64();

    // Both engines converge on this model well before the timed sweep
    // budget, so cross-check the fixpoints while we have them.
    let start = explored.mdp.initial_states()[0];
    assert!(
        (gs[start] - jacobi[start]).abs() < 1e-6,
        "engines disagree: {} vs {}",
        gs[start],
        jacobi[start]
    );

    Ok(RingBench {
        n,
        states,
        choices,
        transitions,
        sweeps_timed: sweeps,
        csr_build_seconds: csr_build,
        explore_states_per_sec: throughput(states as f64, explore_baseline, explore_csr),
        vi_sweeps_per_sec: throughput(sweeps as f64, vi_baseline, vi_csr),
    })
}

/// Runs a fixed instrumented workload with telemetry enabled and returns
/// the resulting snapshot: exploration, qualitative + quantitative value
/// iteration and a Monte-Carlo batch, all on the `n = 3` round model. The
/// registry is reset first and left *disabled* afterwards, so the timed
/// throughput runs are never polluted.
pub fn telemetry_probe() -> Result<TelemetrySnapshot, Box<dyn std::error::Error>> {
    pa_telemetry::set_enabled(true);
    pa_telemetry::reset();
    let result = (|| -> Result<TelemetrySnapshot, Box<dyn std::error::Error>> {
        let mdp = RoundMdp::new(RoundConfig::new(3)?);
        let explored = Explore::new(&mdp)
            .cost(round_cost)
            .limit(1_000_000)
            .parallel()
            .run()?;
        let target = explored.target_where(|s| regions::in_c(&s.config));
        let csr = CsrMdp::from_explicit(&explored.mdp);
        let opts = IterOptions {
            epsilon: 1e-9,
            max_sweeps: 10_000,
        };
        csr.reach_prob(&target, Objective::MinProb, opts, None)?;

        let sim = sims::LrSim::new(3, sims::RoundRobin)?.with_start(sims::all_trying(3)?);
        pa_mc::estimate_rounds(
            &sim,
            |s| regions::in_c(&s.config),
            &pa_mc::McConfig::new(2_000, 42, 13),
        )?;

        // One faulted exploration exercising all three fault kinds — a
        // crash-restart, an obligation drop, then a total crash-stop (so
        // dead states exist for the crash-tag audit) — to land the
        // `faults.*` and `mdp.tag.*` counters in the snapshot the CI gate
        // inspects.
        let mut events = vec![
            FaultEvent {
                round: 2,
                process: 0,
                kind: FaultKind::CrashRestart { downtime: 1 },
            },
            FaultEvent {
                round: 3,
                process: 1,
                kind: FaultKind::DropObligation,
            },
        ];
        events.extend((0..3).map(|process| FaultEvent {
            round: 5,
            process,
            kind: FaultKind::CrashStop,
        }));
        let plan = FaultPlan::new(events)?;
        let faulty = FaultyRoundMdp::new(RoundConfig::new(3)?, plan)?;
        let fexplored = Explore::new(&faulty)
            .cost(faulty_round_cost)
            .limit(1_000_000)
            .parallel()
            .run()?;
        faulty.crash_tags(&fexplored);

        // One sampled-tier estimate so the `mc.*` counters (trajectories,
        // steps, rng draws) land in the snapshot the CI gate inspects.
        pa_faults::estimate_reach_uniform(
            3,
            &FaultPlan::none(),
            &pa_core::SetExpr::named("C"),
            13,
            &pa_mc::McConfig::new(500, 42, 0),
        )?;

        Ok(pa_telemetry::snapshot())
    })();
    pa_telemetry::set_enabled(false);
    result
}

/// Times the CSR value iteration with telemetry disabled vs enabled on the
/// `n` saturating-user protocol model, with a fixed sweep budget (negative
/// epsilon disables early exit). Leaves telemetry disabled.
pub fn telemetry_overhead(n: usize) -> Result<TelemetryOverhead, MdpError> {
    pa_telemetry::set_enabled(false);
    let protocol = LrProtocol::new(n, UserModel::saturating()).expect("valid ring size");
    let cost = |_: &pa_lehmann_rabin::Config, _: &pa_lehmann_rabin::LrAction| 1u32;
    let explored = Explore::new(&protocol)
        .cost(cost)
        .limit(1_000_000)
        .parallel()
        .run()?;
    let target = explored.target_where(regions::in_c);
    let csr = CsrMdp::from_explicit(&explored.mdp);
    let sweeps = 64;
    let opts = IterOptions {
        epsilon: -1.0,
        max_sweeps: sweeps,
    };

    let t0 = Instant::now();
    let off = csr.reach_prob(&target, Objective::MaxProb, opts, None)?;
    let vi_disabled = t0.elapsed().as_secs_f64();

    pa_telemetry::set_enabled(true);
    let t0 = Instant::now();
    let on = csr.reach_prob(&target, Objective::MaxProb, opts, None)?;
    let vi_enabled = t0.elapsed().as_secs_f64();
    pa_telemetry::set_enabled(false);

    assert_eq!(off, on, "telemetry must not perturb the values");
    Ok(TelemetryOverhead {
        n,
        sweeps,
        vi_disabled_seconds: vi_disabled,
        vi_enabled_seconds: vi_enabled,
        enabled_over_disabled: vi_enabled / vi_disabled,
    })
}

/// [`bench_ring`], repeated `repeats` times keeping the fastest wall time
/// of each timed segment (the standard noise filter: the minimum is the
/// run least disturbed by the scheduler). The structural counts are
/// identical across repeats; throughputs and speedups are recomputed from
/// the minima. The small CI smoke instances need this — a single
/// microsecond-scale sweep timing can drift ±40% run to run.
pub fn bench_ring_best_of(n: usize, limit: usize, repeats: usize) -> Result<RingBench, MdpError> {
    let mut best = bench_ring(n, limit)?;
    for _ in 1..repeats {
        let next = bench_ring(n, limit)?;
        best.csr_build_seconds = best.csr_build_seconds.min(next.csr_build_seconds);
        for (b, x, units) in [
            (
                &mut best.explore_states_per_sec,
                &next.explore_states_per_sec,
                best.states as f64,
            ),
            (
                &mut best.vi_sweeps_per_sec,
                &next.vi_sweeps_per_sec,
                best.sweeps_timed as f64,
            ),
        ] {
            let baseline = b.baseline_seconds.min(x.baseline_seconds);
            let csr = b.csr_seconds.min(x.csr_seconds);
            *b = throughput(units, baseline, csr);
        }
    }
    Ok(best)
}

/// Runs the suite for `n = 3..=max_n` and renders the report. `max_n = 7`
/// is the full perf-trajectory artifact; `max_n = 4` is the CI smoke size,
/// which also takes best-of-5 timings to keep the regression gate stable.
pub fn bench_report_sized(
    limit: usize,
    max_n: usize,
) -> Result<BenchReport, Box<dyn std::error::Error>> {
    pa_telemetry::set_enabled(false);
    let repeats = if max_n <= 4 { 5 } else { 1 };
    let mut rings = Vec::new();
    for n in 3..=max_n {
        eprintln!("benchmarking ring n={n}…");
        rings.push(bench_ring_best_of(n, limit, repeats)?);
    }
    eprintln!("measuring telemetry overhead…");
    let overhead = telemetry_overhead(4)?;
    eprintln!("running telemetry probe…");
    let telemetry = telemetry_probe()?;
    eprintln!("building fault survival map…");
    let faults = faults_bench(5_000_000)?;
    eprintln!("running batch worker-invariance probe…");
    let batch = batch_bench()?;
    eprintln!("cross-validating the sampled tier…");
    let mc = crate::mc_suite::mc_bench(3, 4_000, 42, 5_000_000)?;
    eprintln!("measuring the rotation quotient…");
    let symmetry = symmetry_bench(max_n)?;
    eprintln!("probing the analysis service over unix sockets…");
    let serve = serve_bench()?;
    eprintln!("spilling the n=4 quotient and re-querying out of core…");
    let store = store_bench(5_000_000)?;
    Ok(BenchReport {
        schema: "pa-bench/mdp-throughput/v9".to_string(),
        model: "Lehmann-Rabin ring, saturating user model, target = critical region".to_string(),
        regenerate: "cargo run --release -p pa-bench --bin tables -- --bench-json".to_string(),
        machine: machine(),
        rings,
        telemetry,
        telemetry_overhead: overhead,
        faults,
        batch,
        mc,
        symmetry,
        serve,
        store,
    })
}

/// Runs the full `n = 3..=7` suite and renders `BENCH_mdp.json`.
pub fn bench_report(limit: usize) -> Result<BenchReport, Box<dyn std::error::Error>> {
    bench_report_sized(limit, 7)
}

/// Re-indents a compact JSON document (2 spaces) so the artifact diffs
/// cleanly between benchmark runs. String-literal aware; assumes valid
/// JSON input, which [`Serialize::to_json`] guarantees.
pub fn pretty_json(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    };
    for c in compact.chars() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                depth += 1;
                newline(&mut out, depth);
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                newline(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, depth);
            }
            ':' => out.push_str(": "),
            _ => out.push(c),
        }
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_style_explore_matches_new_engine() {
        let p = LrProtocol::new(3, UserModel::saturating()).unwrap();
        let cost = |_: &pa_lehmann_rabin::Config, _: &pa_lehmann_rabin::LrAction| 1u32;
        let old = explore_seed_style(&p, cost, 100_000).unwrap();
        let new = Explore::new(&p).cost(cost).limit(100_000).run().unwrap();
        assert_eq!(old.num_states(), new.mdp.num_states());
        assert_eq!(old.num_choices(), new.mdp.num_choices());
        for s in 0..old.num_states() {
            assert_eq!(old.choices(s), new.mdp.choices(s));
        }
    }

    #[test]
    fn bench_ring_produces_sane_numbers() {
        let b = bench_ring(3, 100_000).unwrap();
        assert!(b.states > 0);
        assert!(b.explore_states_per_sec.csr_per_sec > 0.0);
        assert!(b.vi_sweeps_per_sec.baseline_per_sec > 0.0);
        assert!(b.sweeps_timed >= 4);
    }

    #[test]
    fn symmetry_bench_certifies_its_invariants() {
        let s = symmetry_bench(4).unwrap();
        assert!(s.lifting_bitwise_equal, "quotient lifting must be exact");
        assert_eq!(s.rings.len(), 3, "smoke rows are n = 3..=5");
        for ring in &s.rings {
            let full = ring.full_states.expect("smoke rows pair full and quotient");
            assert!(ring.orbit_states < full);
            let reduction = ring.reduction.expect("paired rows carry a factor");
            // The quotient collapses each orbit of up to n rotations.
            assert!(reduction > (ring.n as f64) * 0.8 && reduction <= ring.n as f64 + 1e-9);
        }
        assert_eq!(s.frontier.n, 4);
        assert_eq!(s.frontier.arrows.len(), 5);
        assert!(s.frontier.all_hold);
        assert!(s.frontier.expected_time_within_claim);
        assert!(
            s.frontier.expected_time_min <= s.frontier.expected_time_max,
            "bracket stays ordered"
        );
    }

    #[test]
    fn faults_bench_certifies_its_invariants() {
        let f = faults_bench(5_000_000).unwrap();
        assert_eq!(f.map.n, 3);
        assert_eq!(f.holds + f.degraded + f.fails, 20, "5 arrows × 4 columns");
        assert!(f.zero_fault_bitwise_equal);
        assert!(f.crash_tagged_choices > 0);
        assert_eq!(f.crash_absorbing_violations, 0);
    }

    #[test]
    fn machine_identification_is_populated() {
        let m = machine();
        assert!(m.logical_cores >= 1);
        assert!(!m.cpu.is_empty());
    }

    #[test]
    fn pretty_json_preserves_content() {
        let compact = r#"{"a":[1,2],"b":"x{,}[y]","c":{"d":1.5}}"#;
        let pretty = pretty_json(compact);
        let stripped: String = {
            let mut out = String::new();
            let mut in_string = false;
            let mut escaped = false;
            for c in pretty.chars() {
                if in_string {
                    out.push(c);
                    if escaped {
                        escaped = false;
                    } else if c == '\\' {
                        escaped = true;
                    } else if c == '"' {
                        in_string = false;
                    }
                } else if c == '"' {
                    in_string = true;
                    out.push(c);
                } else if !c.is_whitespace() {
                    out.push(c);
                }
            }
            out
        };
        assert_eq!(stripped, compact);
        assert!(pretty.lines().count() > 5);
    }
}

//! Integration tests for the bench artifact pipeline: the report emitted
//! by `tables --bench-json` must carry a valid, instrumented `telemetry`
//! block, the snapshot must survive the JSON round-trip through the
//! in-repo parser, and the `compare_bench` gate must pass a faithful
//! artifact and fail a regressed one.

use pa_bench::json::Json;
use pa_bench::perf;
use serde::Serialize;

/// One smoke-sized report, parsed back out of its own JSON rendering.
/// Building the report is the expensive part, so the assertions share one.
#[test]
fn bench_report_emits_a_valid_telemetry_block() {
    let report = perf::bench_report_sized(100_000, 3).expect("smoke report");
    let doc = Json::parse(&perf::pretty_json(&report.to_json())).expect("well-formed JSON");

    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("pa-bench/mdp-throughput/v9")
    );
    assert_eq!(
        doc.get("rings").and_then(Json::as_array).map(<[_]>::len),
        Some(1)
    );

    // The probe drove every instrumented crate: exploration, value
    // iteration, round expansion, Monte-Carlo and RNG-stream creation all
    // show up as positive counters.
    let counter = |name: &str| {
        doc.path(&["telemetry", "counters"])
            .and_then(Json::as_array)
            .and_then(|cs| {
                cs.iter()
                    .find(|c| c.get("name").and_then(Json::as_str) == Some(name))
            })
            .and_then(|c| c.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    assert!(counter("mdp.vi.sweeps") > 0.0);
    assert!(counter("mdp.vi.runs") >= 1.0);
    assert!(counter("mdp.explore.states") > 0.0);
    assert!(counter("lr.round.expansions") > 0.0);
    // The probe's 2 000 round trials plus its 500 `estimate_reach`
    // trajectories, both through the one `pa-mc` trial engine.
    assert_eq!(counter("mc.trajectories"), 2500.0);
    assert!(counter("prob.rng.streams") > 0.0);
    assert!(counter("faults.crashes_injected") > 0.0);
    assert!(counter("faults.restarts") > 0.0);
    assert!(counter("faults.obligations_dropped") > 0.0);
    assert!(counter("faults.envelope_violations") > 0.0);
    assert!(counter("mdp.tag.tagged_choices") > 0.0);

    // The faults block carries its two structural invariants plus a full
    // survival map (5 arrows × the 4-column default grid).
    assert_eq!(
        doc.path(&["faults", "zero_fault_bitwise_equal"])
            .and_then(Json::as_bool),
        Some(true)
    );
    let fault_metric = |name: &str| {
        doc.path(&["faults", name])
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("faults.{name} missing"))
    };
    assert_eq!(
        fault_metric("holds") + fault_metric("degraded") + fault_metric("fails"),
        20.0
    );
    assert!(fault_metric("crash_tagged_choices") > 0.0);
    assert_eq!(fault_metric("crash_absorbing_violations"), 0.0);
    assert_eq!(
        doc.path(&["faults", "map", "rows"])
            .and_then(Json::as_array)
            .map(<[_]>::len),
        Some(5)
    );

    // The batch block (schema v5) carries the worker-invariance probe:
    // the model cache must have been hit, the 1- vs 4-worker canonical
    // reports must agree, and the digest is 16 hex digits.
    assert_eq!(
        doc.path(&["batch", "worker_invariant"])
            .and_then(Json::as_bool),
        Some(true)
    );
    let batch_metric = |name: &str| {
        doc.path(&["batch", name])
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("batch.{name} missing"))
    };
    assert!(batch_metric("jobs") > 0.0);
    assert_eq!(batch_metric("failed"), 0.0);
    assert!(batch_metric("model_cache_hits") > 0.0);
    assert!(batch_metric("cache_hit_rate") > 0.0);
    let digest = doc
        .path(&["batch", "invariance_digest"])
        .and_then(Json::as_str)
        .expect("digest present");
    assert_eq!(digest.len(), 16);
    assert!(digest.chars().all(|c| c.is_ascii_hexdigit()));

    // The mc block (schema v6) carries the sampled-tier cross-validation:
    // every 99% interval contains its exact value, the 1/2/8-worker probe
    // is bitwise invariant, and the seed-determinism digest is 16 hex
    // digits.
    assert_eq!(
        doc.path(&["mc", "all_contain_exact"])
            .and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        doc.path(&["mc", "uniform", "contains_exact"])
            .and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        doc.path(&["mc", "worker_invariant"])
            .and_then(Json::as_bool),
        Some(true)
    );
    let mc_digest = doc
        .path(&["mc", "digest"])
        .and_then(Json::as_str)
        .expect("mc digest present");
    assert_eq!(mc_digest.len(), 16);
    assert!(mc_digest.chars().all(|c| c.is_ascii_hexdigit()));
    assert!(
        doc.path(&["mc", "rows"])
            .and_then(Json::as_array)
            .is_some_and(|rows| !rows.is_empty()),
        "mc rows present"
    );
    assert!(counter("mc.trajectories") > 0.0);
    assert!(counter("mc.steps") > 0.0);
    assert!(counter("mc.rng_draws") > 0.0);

    // The symmetry block (schema v7) carries the quotient-reduction
    // table, the bitwise lifting witness and the frontier verdicts.
    assert_eq!(
        doc.path(&["symmetry", "lifting_bitwise_equal"])
            .and_then(Json::as_bool),
        Some(true)
    );
    let sym_rings = doc
        .path(&["symmetry", "rings"])
        .and_then(Json::as_array)
        .expect("symmetry rings present");
    assert!(!sym_rings.is_empty());
    for ring in sym_rings {
        let n = ring.get("n").and_then(Json::as_f64).unwrap();
        let orbits = ring.get("orbit_states").and_then(Json::as_f64).unwrap();
        assert!(orbits > 0.0);
        if let Some(full) = ring.get("full_states").and_then(Json::as_f64) {
            assert!(orbits < full, "n={n}: the quotient must shrink the space");
        }
    }
    assert_eq!(
        doc.path(&["symmetry", "frontier", "all_hold"])
            .and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        doc.path(&["symmetry", "frontier", "expected_time_within_claim"])
            .and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        doc.path(&["symmetry", "frontier", "arrows"])
            .and_then(Json::as_array)
            .map(<[_]>::len),
        Some(5)
    );

    // The serve block (schema v8) carries the socket-vs-direct digest
    // probe: every socket batch digested identically to the direct run,
    // the tiny-budget daemon actually evicted and rebuilt, and the
    // admission tallies are the deterministic values the gate pins.
    assert_eq!(
        doc.path(&["serve", "digest_invariant"])
            .and_then(Json::as_bool),
        Some(true)
    );
    let serve_metric = |name: &str| {
        doc.path(&["serve", name])
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("serve.{name} missing"))
    };
    assert_eq!(serve_metric("socket_batches"), 6.0);
    assert!(serve_metric("evictions") > 0.0);
    assert!(serve_metric("rebuilds") > 0.0);
    assert_eq!(
        serve_metric("jobs_accepted"),
        6.0 * serve_metric("jobs") + 2.0,
        "matrix admissions plus the probe's two"
    );
    assert_eq!(serve_metric("backpressure_rejections"), 1.0);
    assert_eq!(serve_metric("lines_rejected"), 3.0);
    assert_eq!(serve_metric("batches_run"), 7.0);
    assert_eq!(
        doc.path(&["serve", "digest"]).and_then(Json::as_str),
        doc.path(&["batch", "invariance_digest"])
            .and_then(Json::as_str),
        "serve and batch hash the same n=3 suite"
    );

    // The store block (schema v9) carries the out-of-core parity probe:
    // in-core, unbounded-stored, and one-block-stored value digests are
    // all equal, the tight budget actually paged and evicted, and peak
    // paging residency stayed within budget + two blocks.
    assert_eq!(
        doc.path(&["store", "bitwise_identical"])
            .and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        doc.path(&["store", "rss_bounded"]).and_then(Json::as_bool),
        Some(true)
    );
    let store_metric = |name: &str| {
        doc.path(&["store", name])
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("store.{name} missing"))
    };
    assert!(
        store_metric("csr_blocks") > 1.0,
        "probe must be multi-block"
    );
    assert!(store_metric("faults") > 0.0);
    assert!(store_metric("evictions") > 0.0);
    assert_eq!(
        doc.path(&["store", "digest_in_core"])
            .and_then(Json::as_str),
        doc.path(&["store", "digest_one_block"])
            .and_then(Json::as_str),
    );

    // Residual trajectory and rounds-to-fire histogram made it through.
    let residuals = doc
        .path(&["telemetry", "series"])
        .and_then(Json::as_array)
        .and_then(|ss| {
            ss.iter()
                .find(|s| s.get("name").and_then(Json::as_str) == Some("mdp.vi.residual"))
        })
        .and_then(|s| s.get("values"))
        .and_then(Json::as_array)
        .expect("residual series present");
    assert!(!residuals.is_empty());

    let hit_time_hist = doc
        .path(&["telemetry", "histograms"])
        .and_then(Json::as_array)
        .and_then(|hs| {
            hs.iter()
                .find(|h| h.get("name").and_then(Json::as_str) == Some("mc.hit_time"))
        })
        .expect("hit-time histogram present");
    assert!(hit_time_hist.get("count").and_then(Json::as_f64).unwrap() > 0.0);

    // Overhead microcheck: the ratio is a sane positive number. (No upper
    // bound asserted — wall-clock ratios are too noisy for CI — the gate
    // only requires the measurement to exist; the artifact records it for
    // trend tracking.)
    let ratio = doc
        .path(&["telemetry_overhead", "enabled_over_disabled"])
        .and_then(Json::as_f64)
        .expect("overhead ratio present");
    assert!(ratio > 0.0 && ratio.is_finite());

    // Serde round-trip of the snapshot alone: every counter the typed
    // accessor sees is in the JSON with the same value.
    let snap_doc = Json::parse(&report.telemetry.to_json()).expect("snapshot JSON");
    for (name, json_value) in snap_doc
        .get("counters")
        .and_then(Json::as_array)
        .expect("counters array")
        .iter()
        .map(|c| {
            (
                c.get("name").and_then(Json::as_str).unwrap(),
                c.get("value").and_then(Json::as_f64).unwrap(),
            )
        })
    {
        assert_eq!(report.telemetry.counter(name), json_value as u64, "{name}");
    }
    assert_eq!(
        snap_doc.get("enabled").and_then(Json::as_bool),
        Some(report.telemetry.enabled)
    );
}

fn gate_artifact(states: u64, speedup: f64, sweeps: u64) -> String {
    format!(
        r#"{{"schema":"pa-bench/mdp-throughput/v5","rings":[{{"n":3,"states":{states},"choices":10,"transitions":20,"explore_states_per_sec":{{"speedup":{speedup}}},"vi_sweeps_per_sec":{{"speedup":{speedup}}}}}],"telemetry":{{"counters":[{{"name":"mdp.vi.sweeps","value":{sweeps}}},{{"name":"mdp.explore.states","value":{states}}},{{"name":"mc.trajectories","value":2500}},{{"name":"faults.crashes_injected","value":4}},{{"name":"faults.restarts","value":2}},{{"name":"faults.obligations_dropped","value":3}},{{"name":"faults.envelope_violations","value":1}},{{"name":"mdp.tag.tagged_choices","value":8}}]}},"telemetry_overhead":{{"enabled_over_disabled":1.01}},"faults":{{"holds":16,"degraded":0,"fails":4,"zero_fault_bitwise_equal":true,"crash_tagged_choices":8,"crash_absorbing_violations":0}},"batch":{{"jobs":37,"done":37,"failed":0,"violated":4,"model_cache_hits":20,"model_cache_misses":4,"cache_hit_rate":0.833,"distinct_models":4,"worker_invariant":true,"invariance_digest":"00deadbeef00cafe"}}}}"#
    )
}

fn run_gate(baseline: &str, current: &str, tolerance: &str) -> bool {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let base_path = dir.join(format!("pa_bench_gate_base_{pid}_{tolerance}.json"));
    let cur_path = dir.join(format!("pa_bench_gate_cur_{pid}_{tolerance}.json"));
    std::fs::write(&base_path, baseline).unwrap();
    std::fs::write(&cur_path, current).unwrap();
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_compare_bench"))
        .arg(&base_path)
        .arg(&cur_path)
        .args(["--tolerance", tolerance])
        .status()
        .expect("compare_bench runs");
    let _ = std::fs::remove_file(base_path);
    let _ = std::fs::remove_file(cur_path);
    status.success()
}

#[test]
fn compare_bench_passes_identical_artifacts() {
    let artifact = gate_artifact(536, 2.0, 640);
    assert!(run_gate(&artifact, &artifact, "20"));
}

#[test]
fn compare_bench_tolerates_small_speedup_drift() {
    let baseline = gate_artifact(536, 2.0, 640);
    let current = gate_artifact(536, 1.7, 640);
    assert!(
        run_gate(&baseline, &current, "20"),
        "15% drift is within 20%"
    );
}

#[test]
fn compare_bench_fails_speedup_regression() {
    let baseline = gate_artifact(536, 2.0, 640);
    let current = gate_artifact(536, 1.5, 640);
    assert!(!run_gate(&baseline, &current, "20"), "25% drop must fail");
}

#[test]
fn compare_bench_fails_structural_drift() {
    let baseline = gate_artifact(536, 2.0, 640);
    let current = gate_artifact(537, 2.0, 640);
    assert!(!run_gate(&baseline, &current, "20"));
}

#[test]
fn compare_bench_fails_dead_telemetry() {
    let baseline = gate_artifact(536, 2.0, 640);
    let current = gate_artifact(536, 2.0, 0);
    assert!(
        !run_gate(&baseline, &current, "20"),
        "zero sweeps = dead probe"
    );
}

#[test]
fn compare_bench_fails_broken_zero_fault_identity() {
    let baseline = gate_artifact(536, 2.0, 640);
    let current = baseline.replace(
        r#""zero_fault_bitwise_equal":true"#,
        r#""zero_fault_bitwise_equal":false"#,
    );
    assert_ne!(baseline, current, "the replace must hit");
    assert!(!run_gate(&baseline, &current, "20"));
}

#[test]
fn compare_bench_fails_absorbing_violations() {
    let baseline = gate_artifact(536, 2.0, 640);
    let current = baseline.replace(
        r#""crash_absorbing_violations":0"#,
        r#""crash_absorbing_violations":2"#,
    );
    assert_ne!(baseline, current, "the replace must hit");
    assert!(!run_gate(&baseline, &current, "20"));
}

#[test]
fn compare_bench_fails_digest_drift() {
    let baseline = gate_artifact(536, 2.0, 640);
    let current = baseline.replace(
        r#""invariance_digest":"00deadbeef00cafe""#,
        r#""invariance_digest":"00deadbeef00beef""#,
    );
    assert_ne!(baseline, current, "the replace must hit");
    assert!(
        !run_gate(&baseline, &current, "20"),
        "a drifted canonical digest means a measured value changed"
    );
}

#[test]
fn compare_bench_fails_lost_worker_invariance() {
    let baseline = gate_artifact(536, 2.0, 640);
    let current = baseline.replace(r#""worker_invariant":true"#, r#""worker_invariant":false"#);
    assert_ne!(baseline, current, "the replace must hit");
    assert!(!run_gate(&baseline, &current, "20"));
}

#[test]
fn compare_bench_fails_cache_count_drift() {
    let baseline = gate_artifact(536, 2.0, 640);
    let current = baseline.replace(r#""model_cache_hits":20"#, r#""model_cache_hits":19"#);
    assert_ne!(baseline, current, "the replace must hit");
    assert!(
        !run_gate(&baseline, &current, "20"),
        "cache hit counts are deterministic, so any drift must fail"
    );
}

#[test]
fn compare_bench_fails_survival_tally_drift() {
    let baseline = gate_artifact(536, 2.0, 640);
    let current = baseline
        .replace(r#""holds":16"#, r#""holds":15"#)
        .replace(r#""fails":4"#, r#""fails":5"#);
    assert_ne!(baseline, current, "the replace must hit");
    assert!(
        !run_gate(&baseline, &current, "20"),
        "a claim flipping from Holds to Fails must fail the gate"
    );
}

fn mc_block(digest: &str, contains: bool, invariant: bool) -> String {
    format!(
        r#"{{"n":3,"trajectories":4000,"seed":42,"rows":[{{"arrow":"a","plan":"none","exact":0.25,"point":0.26,"lo":0.24,"hi":0.28,"width":0.04,"contains_exact":{contains},"trials":4000}}],"skipped_vacuous":0,"all_contain_exact":{contains},"max_width":0.04,"uniform":{{"target":"C","within":13,"exact":0.3,"point":0.3,"lo":0.28,"hi":0.32,"contains_exact":true}},"digest":"{digest}","worker_invariant":{invariant},"trajectories_total":84000,"steps_total":500000,"early_stops_total":0,"rng_draws_total":400000}}"#
    )
}

/// A v6 artifact: the v5 fixture plus the `mc` block and its telemetry
/// counters.
fn gate_artifact_v6(digest: &str, contains: bool, invariant: bool) -> String {
    let mut doc = gate_artifact(536, 2.0, 640)
        .replace("pa-bench/mdp-throughput/v5", "pa-bench/mdp-throughput/v6")
        .replace(
            r#"{"name":"mdp.tag.tagged_choices","value":8}"#,
            r#"{"name":"mdp.tag.tagged_choices","value":8},{"name":"mc.steps","value":500000},{"name":"mc.rng_draws","value":400000}"#,
        );
    assert_eq!(doc.pop(), Some('}'));
    doc.push_str(&format!(
        r#","mc":{}}}"#,
        mc_block(digest, contains, invariant)
    ));
    doc
}

/// The standalone `pa-bench/mc/v1` artifact the mc-smoke job gates.
fn mc_v1_artifact(digest: &str) -> String {
    format!(
        r#"{{"schema":"pa-bench/mc/v1","regenerate":"tables --mc","mc":{}}}"#,
        mc_block(digest, true, true)
    )
}

#[test]
fn compare_bench_passes_v6_artifacts_with_mc_block() {
    let artifact = gate_artifact_v6("00deadbeef00cafe", true, true);
    assert!(run_gate(&artifact, &artifact, "20"));
}

#[test]
fn compare_bench_fails_mc_digest_drift() {
    let baseline = gate_artifact_v6("00deadbeef00cafe", true, true);
    let current = gate_artifact_v6("00deadbeef00beef", true, true);
    assert!(
        !run_gate(&baseline, &current, "20"),
        "a drifted seed-determinism digest means the RNG stream layout or \
         trajectory semantics changed"
    );
}

#[test]
fn compare_bench_fails_mc_containment_loss() {
    let baseline = gate_artifact_v6("00deadbeef00cafe", true, true);
    let current = gate_artifact_v6("00deadbeef00cafe", false, true);
    assert!(
        !run_gate(&baseline, &current, "20"),
        "an interval that misses its exact value must fail the gate"
    );
}

#[test]
fn compare_bench_fails_mc_worker_variance() {
    let baseline = gate_artifact_v6("00deadbeef00cafe", true, true);
    let current = gate_artifact_v6("00deadbeef00cafe", true, false);
    assert!(!run_gate(&baseline, &current, "20"));
}

fn symmetry_block(orbit_states: u64, lifting: bool, all_hold: bool) -> String {
    format!(
        r#"{{"lifting_n":4,"lifting_bitwise_equal":{lifting},"rings":[{{"n":3,"full_states":536,"orbit_states":{orbit_states},"reduction":2.913,"quotient_explore_seconds":0.01,"quotient_mem_bytes":4096}},{{"n":8,"full_states":null,"orbit_states":2300000,"reduction":null,"quotient_explore_seconds":30.0,"quotient_mem_bytes":90000000}}],"frontier":{{"n":4,"arrows":[{{"arrow":"T -2-> C | RT","holds":{all_hold},"measured_lo":1.0,"orbit_starts":1084,"seconds":0.05}}],"all_hold":{all_hold},"expected_time_max":20.5,"expected_time_min":4.5,"expected_time_claimed":63.0,"expected_time_within_claim":true,"seconds":0.3}},"peak_rss_mib":512.0}}"#
    )
}

/// A v7 artifact: the v6 fixture plus the `symmetry` block.
fn gate_artifact_v7(orbit_states: u64, lifting: bool, all_hold: bool) -> String {
    let mut doc = gate_artifact_v6("00deadbeef00cafe", true, true)
        .replace("pa-bench/mdp-throughput/v6", "pa-bench/mdp-throughput/v7");
    assert_eq!(doc.pop(), Some('}'));
    doc.push_str(&format!(
        r#","symmetry":{}}}"#,
        symmetry_block(orbit_states, lifting, all_hold)
    ));
    doc
}

#[test]
fn compare_bench_passes_v7_artifacts_with_symmetry_block() {
    let artifact = gate_artifact_v7(184, true, true);
    assert!(run_gate(&artifact, &artifact, "20"));
}

#[test]
fn compare_bench_fails_broken_quotient_lifting() {
    let baseline = gate_artifact_v7(184, true, true);
    let current = gate_artifact_v7(184, false, true);
    assert!(
        !run_gate(&baseline, &current, "20"),
        "a non-bitwise lifting means the quotient is unsound, not slow"
    );
}

#[test]
fn compare_bench_fails_orbit_count_drift() {
    let baseline = gate_artifact_v7(184, true, true);
    let current = gate_artifact_v7(185, true, true);
    assert!(
        !run_gate(&baseline, &current, "20"),
        "the quotient state space is deterministic, so any drift must fail"
    );
}

#[test]
fn compare_bench_fails_frontier_arrow_violation() {
    let baseline = gate_artifact_v7(184, true, true);
    let current = gate_artifact_v7(184, true, false);
    assert!(!run_gate(&baseline, &current, "20"));
}

fn serve_block(digest: &str, invariant: bool, evictions: u64, accepted: u64) -> String {
    format!(
        r#"{{"jobs":37,"digest":"{digest}","digest_invariant":{invariant},"socket_batches":6,"evictions":{evictions},"rebuilds":3,"jobs_accepted":{accepted},"backpressure_rejections":1,"lines_rejected":3,"batches_run":7}}"#
    )
}

/// A v8 artifact: the v7 fixture plus the `serve` block. The serve digest
/// matches the batch block's `invariance_digest` unless overridden.
fn gate_artifact_v8(digest: &str, invariant: bool, evictions: u64, accepted: u64) -> String {
    let mut doc = gate_artifact_v7(184, true, true)
        .replace("pa-bench/mdp-throughput/v7", "pa-bench/mdp-throughput/v8");
    assert_eq!(doc.pop(), Some('}'));
    doc.push_str(&format!(
        r#","serve":{}}}"#,
        serve_block(digest, invariant, evictions, accepted)
    ));
    doc
}

#[test]
fn compare_bench_passes_v8_artifacts_with_serve_block() {
    let artifact = gate_artifact_v8("00deadbeef00cafe", true, 4, 224);
    assert!(run_gate(&artifact, &artifact, "20"));
}

#[test]
fn compare_bench_fails_serve_digest_mismatch_with_batch() {
    // Same digest in baseline and current, but different from the batch
    // block's invariance digest: the cross-block equality must fail.
    let artifact = gate_artifact_v8("00deadbeef00beef", true, 4, 224);
    assert!(
        !run_gate(&artifact, &artifact, "20"),
        "serve digest must equal batch.invariance_digest"
    );
}

#[test]
fn compare_bench_fails_serve_socket_divergence() {
    let baseline = gate_artifact_v8("00deadbeef00cafe", true, 4, 224);
    let current = gate_artifact_v8("00deadbeef00cafe", false, 4, 224);
    assert!(
        !run_gate(&baseline, &current, "20"),
        "a socket batch digesting differently from the direct run must fail"
    );
}

#[test]
fn compare_bench_fails_dead_eviction_path() {
    let baseline = gate_artifact_v8("00deadbeef00cafe", true, 4, 224);
    let current = gate_artifact_v8("00deadbeef00cafe", true, 0, 224);
    assert!(
        !run_gate(&baseline, &current, "20"),
        "zero evictions under the tiny budget means the probe went vacuous"
    );
}

#[test]
fn compare_bench_fails_admission_tally_drift() {
    let baseline = gate_artifact_v8("00deadbeef00cafe", true, 4, 224);
    let current = gate_artifact_v8("00deadbeef00cafe", true, 4, 223);
    assert!(
        !run_gate(&baseline, &current, "20"),
        "admission tallies are deterministic and gate exactly"
    );
}

fn store_block(digest_one_block: &str, evictions: u64, rss_bounded: bool) -> String {
    format!(
        r#"{{"n":4,"states":55502,"csr_blocks":700,"block_bytes":4096,"file_bytes":7414992,"max_block_payload":4180,"digest_in_core":"1fdd989c9731faba","digest_unbounded":"1fdd989c9731faba","digest_one_block":"{digest_one_block}","bitwise_identical":{},"faults":54600,"hits":0,"evictions":{evictions},"peak_resident_bytes":8356,"rss_bounded":{rss_bounded},"spill_seconds":0.5,"query_seconds":0.8}}"#,
        digest_one_block == "1fdd989c9731faba",
    )
}

/// A v9 artifact: the v8 fixture plus the `store` block.
fn gate_artifact_v9(digest_one_block: &str, evictions: u64, rss_bounded: bool) -> String {
    let mut doc = gate_artifact_v8("00deadbeef00cafe", true, 4, 224)
        .replace("pa-bench/mdp-throughput/v8", "pa-bench/mdp-throughput/v9");
    assert_eq!(doc.pop(), Some('}'));
    doc.push_str(&format!(
        r#","store":{}}}"#,
        store_block(digest_one_block, evictions, rss_bounded)
    ));
    doc
}

#[test]
fn compare_bench_passes_v9_artifacts_with_store_block() {
    let artifact = gate_artifact_v9("1fdd989c9731faba", 54599, true);
    assert!(run_gate(&artifact, &artifact, "20"));
}

#[test]
fn compare_bench_fails_stored_backend_divergence() {
    let baseline = gate_artifact_v9("1fdd989c9731faba", 54599, true);
    let current = gate_artifact_v9("badbadbadbadbad0", 54599, true);
    assert!(
        !run_gate(&baseline, &current, "20"),
        "a stored-backend digest diverging from in-core must fail"
    );
}

#[test]
fn compare_bench_fails_dead_store_eviction_path() {
    let baseline = gate_artifact_v9("1fdd989c9731faba", 54599, true);
    let current = gate_artifact_v9("1fdd989c9731faba", 0, true);
    assert!(
        !run_gate(&baseline, &current, "20"),
        "zero evictions at the one-byte budget means the probe went vacuous"
    );
}

#[test]
fn compare_bench_fails_unbounded_paging_residency() {
    let baseline = gate_artifact_v9("1fdd989c9731faba", 54599, true);
    let current = gate_artifact_v9("1fdd989c9731faba", 54599, false);
    assert!(
        !run_gate(&baseline, &current, "20"),
        "peak residency past budget + two blocks must fail"
    );
}

#[test]
fn compare_bench_passes_standalone_mc_artifact() {
    let artifact = mc_v1_artifact("00deadbeef00cafe");
    assert!(run_gate(&artifact, &artifact, "20"));
}

#[test]
fn compare_bench_fails_standalone_mc_digest_drift() {
    let baseline = mc_v1_artifact("00deadbeef00cafe");
    let current = mc_v1_artifact("1111111111111111");
    assert!(!run_gate(&baseline, &current, "20"));
}

#[test]
fn unknown_schema_is_a_named_failure_not_a_silent_pass() {
    use pa_bench::compare::compare_docs;
    let doc = gate_artifact(536, 2.0, 640)
        .replace("pa-bench/mdp-throughput/v5", "pa-bench/mdp-throughput/v99");
    let parsed = Json::parse(&doc).unwrap();
    let gate = compare_docs(&parsed, &parsed, 20.0);
    assert_eq!(gate.failures.len(), 1, "{:?}", gate.failures);
    assert!(
        gate.failures[0].contains("unknown schema")
            && gate.failures[0].contains("pa-bench/mdp-throughput/v6"),
        "diagnostic must name the schema and list the known ones: {}",
        gate.failures[0]
    );
}

#[test]
fn missing_required_block_is_a_named_failure() {
    use pa_bench::compare::compare_docs;
    let baseline = Json::parse(&gate_artifact(536, 2.0, 640)).unwrap();
    let current =
        Json::parse(&gate_artifact(536, 2.0, 640).replace(r#""batch":"#, r#""batch_gone":"#))
            .unwrap();
    let gate = compare_docs(&baseline, &current, 20.0);
    assert!(
        gate.failures
            .iter()
            .any(|f| f.contains("`batch`") && f.contains("current") && f.contains("regenerate")),
        "diagnostic must name the missing block and how to fix it: {:?}",
        gate.failures
    );
}

#[test]
fn missing_schema_field_is_a_named_failure() {
    use pa_bench::compare::compare_docs;
    let doc = Json::parse(r#"{"rings":[]}"#).unwrap();
    let gate = compare_docs(&doc, &doc, 20.0);
    assert!(
        gate.failures
            .iter()
            .any(|f| f.contains("no `schema` field")),
        "{:?}",
        gate.failures
    );
}

#[test]
fn required_blocks_table_covers_every_known_schema() {
    use pa_bench::compare::{known_schemas, required_blocks};
    for schema in known_schemas() {
        let blocks = required_blocks(schema).unwrap();
        assert!(!blocks.is_empty());
    }
    assert!(required_blocks("pa-bench/mdp-throughput/v6")
        .unwrap()
        .contains(&"mc"));
    assert!(required_blocks("pa-bench/mdp-throughput/v7")
        .unwrap()
        .contains(&"symmetry"));
    assert!(required_blocks("pa-bench/mdp-throughput/v8")
        .unwrap()
        .contains(&"serve"));
    assert_eq!(required_blocks("pa-bench/mc/v1"), Some(&["mc"][..]));
    assert_eq!(required_blocks("nope"), None);
}

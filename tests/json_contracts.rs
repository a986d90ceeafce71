//! Byte-level contracts of the JSON the workspace emits where a digest, a
//! persisted file or a wire peer depends on the exact bytes.
//!
//! The batch invariance digest is the proof of equivalence for any change
//! to how reports are written, so this file pins it, together with the
//! exact bytes of the `pa-serve/wire/v1` job encoding, the error line,
//! the canonical and JSONL forms of a report holding every value type,
//! one persisted `pa-serve/report/v1` line, and the key order of every
//! service response. A change to any of these bytes is a schema change.

use std::sync::Arc;

use pa_batch::{
    run_batch, run_batch_in, BatchOptions, BatchReport, CacheStats, JobResult, JobStatus, JobValue,
    ModelCache,
};
use pa_serve::json::Json;
use pa_serve::{
    error_line, parse_request, spec_to_wire, CustomRegistry, Request, ServeConfig, Server,
};
use pa_telemetry::{CounterSnapshot, TelemetrySnapshot, TimerSnapshot};

#[test]
fn the_n3_model_suite_digest_is_pinned() {
    // The value `BENCH_baseline.json` pins as `batch.invariance_digest`.
    let specs = pa_bench::batch_suite::model_specs(&[3]);
    let options = BatchOptions::with_workers(2);
    let report = run_batch(&specs, &options).unwrap();
    assert_eq!(report.digest(), "102994e6e3208eed");
    // A one-byte budget keeps only the slot just built, so models are
    // evicted and rebuilt throughout the run; the digest must not move.
    let cache = ModelCache::with_budget(1);
    let report = run_batch_in(&specs, &options, &cache).unwrap();
    assert_eq!(report.digest(), "102994e6e3208eed");
    assert!(cache.evictions() > 0, "the budget did force evictions");
}

/// One job line of every job kind, covering every fault kind, a string
/// that needs escaping and the non-default knobs, exactly as
/// `spec_to_wire` writes it.
const WIRE_LINES: &[&str] = &[
    r#"{"op":"job","kind":{"arrow":2},"n":3,"plan":[],"plan_name":"none","eps":1e-9,"state_limit":20000000}"#,
    r#"{"op":"job","kind":"composed","n":4,"plan":[],"plan_name":"none","eps":1e-9,"state_limit":20000000}"#,
    r#"{"op":"job","kind":{"etime":{"from":["RT"],"to":["C","P"],"bound":60.25}},"n":3,"plan":[],"plan_name":"none","eps":1e-9,"state_limit":20000000}"#,
    r#"{"op":"job","kind":"invariant","n":3,"plan":[],"plan_name":"none","eps":1e-7,"state_limit":20000000}"#,
    r#"{"op":"job","kind":{"lemma":5},"n":3,"plan":[],"plan_name":"none","eps":1e-9,"state_limit":123456}"#,
    r#"{"op":"job","kind":{"reach":{"target":["C"],"within":24,"claimed":1}},"n":5,"plan":[{"round":2,"process":0,"kind":"crash-stop"}],"plan_name":"crash@2","eps":1e-9,"state_limit":20000000}"#,
    r#"{"op":"job","kind":{"sampled":{"target":["C"],"within":24,"claimed":0.125,"trajectories":20000,"seed":12648430}},"n":7,"plan":[{"round":3,"process":1,"kind":{"crash-restart":{"downtime":2}}},{"round":4,"process":2,"kind":"drop-obligation"}],"plan_name":"restart \"q\"","eps":1e-9,"state_limit":20000000}"#,
    r#"{"op":"job","kind":{"custom":"probe"},"n":3,"plan":[],"plan_name":"none","eps":1e-9,"state_limit":20000000}"#,
];

#[test]
fn wire_lines_of_every_job_kind_are_pinned() {
    let mut registry = CustomRegistry::new();
    registry.register(
        "probe",
        Arc::new(|_ctx: &pa_batch::JobCtx<'_>| Err("never run".to_string())),
    );
    for line in WIRE_LINES {
        let Ok(Request::Job(spec)) = parse_request(line, &registry) else {
            panic!("not a job line: {line}");
        };
        assert_eq!(spec_to_wire(&spec).unwrap(), *line);
    }
    assert_eq!(
        error_line("bad-line", "quote \" and\nnewline"),
        r#"{"ok":false,"reason":"bad-line","error":"quote \" and\nnewline"}"#
    );
}

/// A report holding every value type and every status, with integral,
/// tiny and huge floats and strings that need escaping. Jobs `a`, `i`
/// and `j` carry counters; job `h` is custom, so its counters stay out
/// of the canonical form.
#[rustfmt::skip]
fn every_value_report() -> BatchReport {
    use JobStatus::{Cancelled, Done, Failed, TimedOut};
    use JobValue::*;
    let counters = |names: &[(&str, u64)]| names.iter()
        .map(|&(name, value)| CounterSnapshot { name: name.to_string(), value })
        .collect();
    let snapshot = |enabled, counters, timers| TelemetrySnapshot {
        enabled, counters, gauges: vec![], timers, histograms: vec![], series: vec![],
    };
    let sweeps = [("mdp.vi.sweeps", 7), ("mdp.explore.states", 1414)];
    let statuses = [
        ("a-prob", Done(Prob { measured: 1.0, claimed: 0.125, holds: true, worst_state: Some("⟨F R⟩ \"x\"\n".into()), states_checked: 12 })),
        ("b-prob-none", Done(Prob { measured: 1e-20, claimed: 1e21, holds: false, worst_state: None, states_checked: 0 })),
        ("c-time", Done(Time { expected: Some(10.5), bound: 60.0, within: true })),
        ("d-time-divergent", Done(Time { expected: None, bound: 63.0, within: false })),
        ("e-invariant", Done(Invariant { holds: true, states_checked: 1512 })),
        ("f-lemma", Done(Lemma { name: "Lemma A.3".into(), min_prob: 0.5, instances: 4, holds: true })),
        ("g-estimate", Done(Estimate { point: 0.25, lo: 0.1, hi: 0.4, claimed: 0.125, trials: 64, hits: 16, refuted: false })),
        ("h-tallies", Done(Tallies { holds: 3, violated: 1, info: 2 })),
        ("i-failed", Failed("region \"X\" unknown".into())),
        ("j-timed-out", TimedOut),
        ("k-cancelled", Cancelled),
    ];
    let jobs = statuses.into_iter().map(|(key, status)| JobResult {
        key: key.to_string(), n: 3, plan_name: "crash \"2\"".to_string(), custom: key == "h-tallies", status, seconds: 1.0,
        snapshot: snapshot(true, counters(if ["a-prob", "i-failed", "j-timed-out"].contains(&key) { &sweeps } else { &[] }), vec![]),
    });
    let build = TimerSnapshot { name: "cache.build".into(), count: 1, total_seconds: 2.0, mean_seconds: 2.0, max_seconds: 0.5 };
    BatchReport {
        jobs: jobs.collect(), workers: 4, wall_seconds: 3.0,
        cache: CacheStats { model_hits: 5, model_misses: 2, config_hits: 1, config_misses: 1, distinct_models: 2 },
        cache_snapshot: snapshot(false, vec![], vec![build]),
    }
}

/// The canonical form: floats in Rust's shortest `Display` spelling (`1`,
/// not `1.0`), counters as a name → value object.
const CANONICAL: &str = concat!(
    r#"{"schema":"pa-batch/canonical/v1","jobs":["#,
    r#"{"key":"a-prob","status":"done","value":{"type":"prob","measured":1,"claimed":0.125,"holds":true,"worst_state":"⟨F R⟩ \"x\"\n","states_checked":12},"counters":{"mdp.vi.sweeps":7,"mdp.explore.states":1414}},"#,
    r#"{"key":"b-prob-none","status":"done","value":{"type":"prob","measured":0.00000000000000000001,"claimed":1000000000000000000000,"holds":false,"worst_state":null,"states_checked":0},"counters":{}},"#,
    r#"{"key":"c-time","status":"done","value":{"type":"time","expected":10.5,"bound":60,"within":true},"counters":{}},"#,
    r#"{"key":"d-time-divergent","status":"done","value":{"type":"time","expected":null,"bound":63,"within":false},"counters":{}},"#,
    r#"{"key":"e-invariant","status":"done","value":{"type":"invariant","holds":true,"states_checked":1512},"counters":{}},"#,
    r#"{"key":"f-lemma","status":"done","value":{"type":"lemma","name":"Lemma A.3","min_prob":0.5,"instances":4,"holds":true},"counters":{}},"#,
    r#"{"key":"g-estimate","status":"done","value":{"type":"estimate","point":0.25,"lo":0.1,"hi":0.4,"claimed":0.125,"trials":64,"hits":16,"refuted":false},"counters":{}},"#,
    r#"{"key":"h-tallies","status":"done","value":{"type":"tallies","holds":3,"violated":1,"info":2}},"#,
    r#"{"key":"i-failed","status":"failed","error":"region \"X\" unknown","counters":{"mdp.vi.sweeps":7,"mdp.explore.states":1414}},"#,
    r#"{"key":"j-timed-out","status":"timed-out","counters":{"mdp.vi.sweeps":7,"mdp.explore.states":1414}},"#,
    r#"{"key":"k-cancelled","status":"cancelled","counters":{}}],"cache":{"model_hits":5,"model_misses":2,"config_hits":1,"config_misses":1,"distinct_models":2}}"#,
);

/// The JSONL form: a header line, then one line per job with its seconds
/// and full telemetry snapshot (the plain `f64` spelling, `2.0`, inside
/// snapshots).
const JSONL: &str = r#"{"schema":"pa-batch/jsonl/v1","workers":4,"wall_seconds":3,"digest":"0fd8de1a11f771d7","cache":{"model_hits":5,"model_misses":2,"config_hits":1,"config_misses":1,"distinct_models":2,"telemetry":{"enabled":false,"counters":[],"gauges":[],"timers":[{"name":"cache.build","count":1,"total_seconds":2.0,"mean_seconds":2.0,"max_seconds":0.5}],"histograms":[],"series":[]}}}
{"key":"a-prob","n":3,"plan":"crash \"2\"","status":"done","value":{"type":"prob","measured":1,"claimed":0.125,"holds":true,"worst_state":"⟨F R⟩ \"x\"\n","states_checked":12},"seconds":1,"telemetry":{"enabled":true,"counters":[{"name":"mdp.vi.sweeps","value":7},{"name":"mdp.explore.states","value":1414}],"gauges":[],"timers":[],"histograms":[],"series":[]}}
{"key":"b-prob-none","n":3,"plan":"crash \"2\"","status":"done","value":{"type":"prob","measured":0.00000000000000000001,"claimed":1000000000000000000000,"holds":false,"worst_state":null,"states_checked":0},"seconds":1,"telemetry":{"enabled":true,"counters":[],"gauges":[],"timers":[],"histograms":[],"series":[]}}
{"key":"c-time","n":3,"plan":"crash \"2\"","status":"done","value":{"type":"time","expected":10.5,"bound":60,"within":true},"seconds":1,"telemetry":{"enabled":true,"counters":[],"gauges":[],"timers":[],"histograms":[],"series":[]}}
{"key":"d-time-divergent","n":3,"plan":"crash \"2\"","status":"done","value":{"type":"time","expected":null,"bound":63,"within":false},"seconds":1,"telemetry":{"enabled":true,"counters":[],"gauges":[],"timers":[],"histograms":[],"series":[]}}
{"key":"e-invariant","n":3,"plan":"crash \"2\"","status":"done","value":{"type":"invariant","holds":true,"states_checked":1512},"seconds":1,"telemetry":{"enabled":true,"counters":[],"gauges":[],"timers":[],"histograms":[],"series":[]}}
{"key":"f-lemma","n":3,"plan":"crash \"2\"","status":"done","value":{"type":"lemma","name":"Lemma A.3","min_prob":0.5,"instances":4,"holds":true},"seconds":1,"telemetry":{"enabled":true,"counters":[],"gauges":[],"timers":[],"histograms":[],"series":[]}}
{"key":"g-estimate","n":3,"plan":"crash \"2\"","status":"done","value":{"type":"estimate","point":0.25,"lo":0.1,"hi":0.4,"claimed":0.125,"trials":64,"hits":16,"refuted":false},"seconds":1,"telemetry":{"enabled":true,"counters":[],"gauges":[],"timers":[],"histograms":[],"series":[]}}
{"key":"h-tallies","n":3,"plan":"crash \"2\"","status":"done","value":{"type":"tallies","holds":3,"violated":1,"info":2},"seconds":1,"telemetry":{"enabled":true,"counters":[],"gauges":[],"timers":[],"histograms":[],"series":[]}}
{"key":"i-failed","n":3,"plan":"crash \"2\"","status":"failed","error":"region \"X\" unknown","seconds":1,"telemetry":{"enabled":true,"counters":[{"name":"mdp.vi.sweeps","value":7},{"name":"mdp.explore.states","value":1414}],"gauges":[],"timers":[],"histograms":[],"series":[]}}
{"key":"j-timed-out","n":3,"plan":"crash \"2\"","status":"timed-out","seconds":1,"telemetry":{"enabled":true,"counters":[{"name":"mdp.vi.sweeps","value":7},{"name":"mdp.explore.states","value":1414}],"gauges":[],"timers":[],"histograms":[],"series":[]}}
{"key":"k-cancelled","n":3,"plan":"crash \"2\"","status":"cancelled","seconds":1,"telemetry":{"enabled":true,"counters":[],"gauges":[],"timers":[],"histograms":[],"series":[]}}
"#;

#[test]
fn report_forms_of_every_value_type_are_pinned() {
    let report = every_value_report();
    assert_eq!(report.canonical_json(), CANONICAL);
    assert_eq!(report.digest(), "0fd8de1a11f771d7");
    assert_eq!(report.jsonl(), JSONL);
}

/// The line a served batch appends to its report sink.
const PERSISTED: &str = concat!(
    r#"{"schema":"pa-serve/report/v1","digest":"376ad6f7c4d845b4","canonical":{"schema":"pa-batch/canonical/v1","jobs":["#,
    r#"{"key":"arrow:0|n=3|plan=none|solver=jacobi|eps=1e-9","status":"done","value":{"type":"prob","measured":1,"claimed":1,"holds":true,"worst_state":"⟨F R R⟩ obliged=1 status=0 round=1","states_checked":1414}},"#,
    r#"{"key":"etime:NOPE->P|n=3|plan=none|solver=jacobi|eps=1e-9","status":"failed","error":"protocol error: unknown region atom NOPE"},"#,
    r#"{"key":"etime:RT->P|n=3|plan=none|solver=jacobi|eps=1e-9","status":"done","value":{"type":"time","expected":7.333333329297602,"bound":60,"within":true}},"#,
    r#"{"key":"invariant|n=3|plan=none|solver=jacobi|eps=1e-9","status":"done","value":{"type":"invariant","holds":true,"states_checked":1512}},"#,
    r#"{"key":"sampled:C|t=13|traj=64|seed=7|n=3|plan=none|solver=jacobi|eps=1e-9","status":"done","value":{"type":"estimate","point":1,"lo":0.9060696604782167,"hi":1,"claimed":0.125,"trials":64,"hits":64,"refuted":false}}],"#,
    r#""cache":{"model_hits":1,"model_misses":1,"config_hits":0,"config_misses":1,"distinct_models":1}}}"#,
    "\n",
);

/// The keys of a JSON object, in document order, comma-joined.
fn keys(doc: &Json) -> String {
    match doc {
        Json::Object(fields) => fields
            .iter()
            .map(|(k, _)| k.as_str())
            .collect::<Vec<_>>()
            .join(","),
        other => panic!("expected an object, got {other:?}"),
    }
}

#[test]
fn a_served_batch_persists_a_pinned_report_line() {
    let path = std::env::temp_dir().join(format!(
        "timebounds-json-contracts-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let config = ServeConfig {
        report_path: Some(path.clone()),
        ..ServeConfig::default()
    };
    let server = Server::new(config, CustomRegistry::new()).unwrap();
    let input = r#"{"op":"ping"}
{"op":"job","kind":{"arrow":0},"n":3}
{"op":"job","kind":"invariant","n":3}
{"op":"job","kind":{"etime":{"from":"RT","to":"P","bound":60}},"n":3}
{"op":"job","kind":{"sampled":{"target":"C","within":13,"claimed":0.125,"trajectories":64,"seed":7}},"n":3}
{"op":"job","kind":{"etime":{"from":"NOPE","to":"P","bound":60}},"n":3}
{"op":"run","workers":2}
{"op":"stats"}
{"op":"drain"}
"#;
    let mut out = Vec::new();
    assert!(server.handle_stream(input.as_bytes(), &mut out).unwrap());
    let persisted = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(persisted, PERSISTED);

    let out = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 9, "{out}");
    assert_eq!(lines[0], r#"{"ok":true,"pong":true}"#);
    assert_eq!(
        lines[1],
        r#"{"ok":true,"queued":1,"key":"arrow:0|n=3|plan=none|solver=jacobi|eps=1e-9"}"#
    );
    assert_eq!(
        lines[5],
        r#"{"ok":true,"queued":5,"key":"etime:NOPE->P|n=3|plan=none|solver=jacobi|eps=1e-9"}"#
    );
    // The run response is pinned byte for byte around its timing field.
    let (head, tail) = lines[6].split_once(r#""wall_seconds":"#).unwrap();
    assert_eq!(
        head,
        r#"{"ok":true,"digest":"376ad6f7c4d845b4","jobs":5,"done":4,"failed":1,"timed_out":0,"cancelled":0,"violated":0,"workers":2,"#
    );
    let (seconds, tail) = tail.split_once(',').unwrap();
    assert!(seconds.parse::<f64>().unwrap() >= 0.0);
    assert_eq!(tail, r#""persisted":true}"#);
    // The stats response carries process-wide gauges: its keys are pinned.
    let stats = Json::parse(lines[7]).unwrap();
    let body = stats.get("stats").unwrap();
    assert_eq!(keys(&stats), "ok,stats");
    assert_eq!(
        keys(body),
        "schema,jobs_accepted,jobs_rejected,lines_rejected,batches_run,connections_accepted,\
         connections_rejected,pending,draining,cache,store"
    );
    assert_eq!(
        keys(body.get("cache").unwrap()),
        "model_hits,model_misses,rebuilds,evictions,resident_bytes,budget,distinct_models"
    );
    assert_eq!(
        keys(body.get("store").unwrap()),
        "resident_bytes,peak_resident_bytes,faults,hits,evictions,budget_bytes,caches"
    );
    assert_eq!(lines[8], r#"{"ok":true,"draining":true}"#);
}

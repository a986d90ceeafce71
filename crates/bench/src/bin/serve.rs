//! The `pa-serve` daemon and its command-line client.
//!
//! ```text
//! serve --socket /tmp/pa.sock                     # daemon (blocks until
//!                                                 # a client sends drain)
//! serve --socket /tmp/pa.sock --cache-budget 64000000 --reports runs.jsonl
//! serve --stdio                                   # one session over
//!                                                 # stdin/stdout (EOF drains)
//! serve --client --socket /tmp/pa.sock --smoke --workers 4
//!                                                 # submit the E1–E15 smoke
//!                                                 # suite, print the digest
//! serve --client --socket /tmp/pa.sock --smoke --drain
//!                                                 # same, then shut the
//!                                                 # daemon down
//! serve --selftest                                # in-process daemon +
//!                                                 # client + digest check
//! ```
//!
//! The daemon registers every custom job of the experiment suite
//! (`e8-independence`, `e10-soundness-gap`, `e11-scaling`, `e12-ablation`,
//! `e13-concurrent`), so a client can submit the exact `tables --batch`
//! job set as `{"custom":"name"}` lines. CI's `serve-smoke` job runs the
//! client against a daemon and requires the printed digest to equal the
//! one `tables --batch --smoke` reports for the same suite run directly.

use std::error::Error;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use pa_batch::{JobKind, JobSpec};
use pa_bench::batch_suite;
use pa_bench::json::Json;
use pa_serve::{spec_to_wire, CustomRegistry, ServeConfig, Server};
use serde::Object;

/// The custom experiment jobs of the batch suite, keyed by name, so the
/// daemon can resolve `{"custom":"name"}` submissions.
///
/// Only the name crosses the wire, so the registered body must match the
/// shape the client submits: the smoke and full suites reuse the same
/// names (e.g. `e11-scaling`) with different ring-size grids, and a
/// mismatched shape produces different tallies — and a different batch
/// digest — than the same suite run directly. Pass the daemon the same
/// `--smoke`/`--full` choice as the client.
fn suite_registry(full: bool) -> CustomRegistry {
    let mut registry = CustomRegistry::new();
    for spec in batch_suite::suite_specs(full) {
        if let JobKind::Custom { name, run } = spec.kind {
            registry.register(name, run);
        }
    }
    registry
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, Box<dyn Error>>
where
    T::Err: std::fmt::Display,
{
    match value(args, name) {
        None => Ok(None),
        Some(v) => v
            .parse::<T>()
            .map(Some)
            .map_err(|e| format!("{name} {v:?}: {e}").into()),
    }
}

fn config_from(args: &[String]) -> Result<ServeConfig, Box<dyn Error>> {
    let mut config = ServeConfig::default();
    if let Some(workers) = parse::<usize>(args, "--workers")? {
        config.workers = workers.max(1);
    }
    if let Some(depth) = parse::<usize>(args, "--queue-depth")? {
        config.queue_depth = depth.max(1);
    }
    if let Some(cap) = parse::<usize>(args, "--max-connections")? {
        config.max_connections = cap.max(1);
    }
    config.cache_budget = parse::<u64>(args, "--cache-budget")?;
    if let Some(secs) = parse::<f64>(args, "--timeout-secs")? {
        config.timeout = Some(Duration::from_secs_f64(secs));
    }
    config.report_path = value(args, "--reports").map(PathBuf::from);
    Ok(config)
}

/// One client session: submit every spec, run, print the digest line.
fn client_session(
    path: &PathBuf,
    specs: &[JobSpec],
    workers: usize,
    drain: bool,
) -> Result<String, Box<dyn Error>> {
    let stream = {
        let mut last = None;
        let mut connected = None;
        for _ in 0..500 {
            match UnixStream::connect(path) {
                Ok(s) => {
                    connected = Some(s);
                    break;
                }
                Err(e) => {
                    last = Some(e);
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        connected.ok_or_else(|| format!("could not connect to {}: {last:?}", path.display()))?
    };
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut exchange = |line: &str| -> Result<Json, Box<dyn Error>> {
        writeln!(&stream, "{line}")?;
        let mut response = String::new();
        reader.read_line(&mut response)?;
        Ok(Json::parse(response.trim_end())?)
    };
    for spec in specs {
        let ack = exchange(&spec_to_wire(spec)?)?;
        if ack.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("job {} rejected: {ack:?}", spec.key()).into());
        }
    }
    let run = Object::new().field("op", "run").field("workers", &workers);
    let done = exchange(&run.finish())?;
    if done.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("run failed: {done:?}").into());
    }
    let digest = done
        .get("digest")
        .and_then(Json::as_str)
        .ok_or("run response without a digest")?
        .to_string();
    let metric = |name: &str| done.get(name).and_then(Json::as_f64).unwrap_or(f64::NAN);
    println!(
        "serve client: {} jobs, {} done / {} failed / {} violated in {:.2}s",
        metric("jobs"),
        metric("done"),
        metric("failed"),
        metric("violated"),
        metric("wall_seconds"),
    );
    println!("digest {digest}");
    if drain {
        exchange(&Object::new().field("op", "drain").finish())?;
        println!("serve client: daemon drained");
    }
    Ok(digest)
}

fn main() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = flag(&args, "--smoke");
    let workers = parse::<usize>(&args, "--workers")?.unwrap_or(4).max(1);

    if flag(&args, "--selftest") {
        // In-process daemon + socket client + direct run, digests compared.
        // Smoke shape unless --full is asked for explicitly.
        let full = flag(&args, "--full");
        let specs = batch_suite::suite_specs(full);
        let path =
            std::env::temp_dir().join(format!("pa-serve-selftest-{}.sock", std::process::id()));
        let server = Arc::new(Server::new(config_from(&args)?, suite_registry(full))?);
        let daemon = {
            let server = Arc::clone(&server);
            let path = path.clone();
            std::thread::spawn(move || server.serve_unix(&path))
        };
        let socket_digest = client_session(&path, &specs, workers, true)?;
        daemon.join().map_err(|_| "daemon panicked")??;
        let direct = pa_batch::run_batch(&specs, &pa_batch::BatchOptions::with_workers(workers))?;
        println!("direct digest {}", direct.digest());
        if socket_digest != direct.digest() {
            return Err(format!(
                "selftest FAILED: socket digest {socket_digest} != direct {}",
                direct.digest()
            )
            .into());
        }
        println!("selftest ok: socket and direct digests agree");
        return Ok(());
    }

    if flag(&args, "--client") {
        let path = PathBuf::from(value(&args, "--socket").ok_or("--client needs --socket PATH")?);
        let specs = batch_suite::suite_specs(!smoke);
        println!(
            "serve client: submitting {} jobs ({}) to {}…",
            specs.len(),
            if smoke { "smoke, n=3" } else { "full, n=3..5" },
            path.display(),
        );
        client_session(&path, &specs, workers, flag(&args, "--drain"))?;
        return Ok(());
    }

    let config = config_from(&args)?;
    let server = Server::new(config, suite_registry(!smoke))?;
    if flag(&args, "--stdio") {
        return Ok(server.serve_stdio()?);
    }
    let path = PathBuf::from(
        value(&args, "--socket").ok_or("need --socket PATH, --stdio, --client, or --selftest")?,
    );
    eprintln!("pa-serve: listening on {}", path.display());
    server.serve_unix(&path)?;
    eprintln!(
        "pa-serve: drained ({} jobs accepted, {} rejected, {} batches, {} bad lines)",
        server.jobs_accepted(),
        server.jobs_rejected(),
        server.batches_run(),
        server.lines_rejected(),
    );
    Ok(())
}

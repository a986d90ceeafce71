//! Service-mode smoke: the batch suite through a live `pa-serve` daemon.
//!
//! Starts an in-process daemon on a temporary unix socket with a
//! deliberately tiny model-cache byte budget (every slot evicts), then
//! acts as a JSONL client: submits the arrow claims plus the composed
//! `T —13→_{1/8} C` query, runs the batch twice (cold, then warm), asks
//! the daemon for its service stats, and drains it. The demo then runs
//! the identical job set directly through `run_batch` and requires all
//! three digests — cold socket, warm socket, direct — to be bitwise
//! identical: eviction and warmth must never be observable in results.
//! Run with:
//!
//! ```text
//! cargo run --release --example serve_demo [workers]
//! ```
//!
//! Exits nonzero on any digest divergence, rejected job, or dead
//! eviction path (the 1-byte budget must actually evict).

use std::error::Error;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use serde::Object;
use timebounds::batch::{run_batch, BatchOptions, JobKind, JobSpec};
use timebounds::lehmann_rabin::paper;
use timebounds::serve::{spec_to_wire, CustomRegistry, ServeConfig, Server};

/// The demo job set: every axiom arrow at n = 3, one arrow at n = 4 (two
/// distinct models, so the budgeted cache must juggle slots), the
/// composed claim, and the global invariant.
fn specs() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for index in 0..paper::all_arrows().len() {
        specs.push(JobSpec::new(3, JobKind::Arrow { index }));
    }
    specs.push(JobSpec::new(4, JobKind::Arrow { index: 0 }));
    specs.push(JobSpec::new(3, JobKind::ComposedArrow));
    specs.push(JobSpec::new(3, JobKind::Invariant));
    specs
}

/// A minimal line-oriented client over the unix socket.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(path: &PathBuf) -> Result<Self, Box<dyn Error>> {
        for _ in 0..500 {
            if let Ok(stream) = UnixStream::connect(path) {
                return Ok(Client {
                    reader: BufReader::new(stream.try_clone()?),
                    writer: stream,
                });
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err(format!("could not connect to {}", path.display()).into())
    }

    /// Send one JSONL request, return the raw one-line response.
    fn send(&mut self, line: &str) -> Result<String, Box<dyn Error>> {
        writeln!(self.writer, "{line}")?;
        let mut response = String::new();
        self.reader.read_line(&mut response)?;
        Ok(response.trim_end().to_string())
    }
}

/// Pull a `"field":"value"` string out of a response line without a full
/// JSON parser — the demo only needs the digest.
fn field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let needle = format!("\"{name}\":\"");
    let start = line.find(&needle)? + needle.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

fn main() -> Result<(), Box<dyn Error>> {
    let workers: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(2);

    let specs = specs();
    let path = std::env::temp_dir().join(format!("pa-serve-demo-{}.sock", std::process::id()));

    // A 1-byte budget forces an eviction on every slot admission; the
    // digests below prove that is invisible in the results.
    let config = ServeConfig {
        workers,
        cache_budget: Some(1),
        ..ServeConfig::default()
    };
    let server = Arc::new(Server::new(config, CustomRegistry::new())?);
    let daemon = {
        let server = Arc::clone(&server);
        let path = path.clone();
        std::thread::spawn(move || server.serve_unix(&path))
    };

    let mut client = Client::connect(&path)?;
    println!(
        "serve_demo: {} jobs over {} on {workers} workers, cache budget 1 byte\n",
        specs.len(),
        path.display(),
    );

    let mut socket_digests = Vec::new();
    for pass in ["cold", "warm"] {
        for spec in &specs {
            let ack = client.send(&spec_to_wire(spec)?)?;
            if !ack.contains("\"ok\":true") {
                return Err(format!("job {} rejected: {ack}", spec.key()).into());
            }
        }
        let run = Object::new().field("op", "run").field("workers", &workers);
        let done = client.send(&run.finish())?;
        let digest = field(&done, "digest")
            .ok_or_else(|| format!("run failed: {done}"))?
            .to_string();
        println!("{pass:>4} batch digest: {digest}");
        socket_digests.push(digest);
    }

    let stats = client.send(&Object::new().field("op", "stats").finish())?;
    println!("\ndaemon stats: {stats}");
    client.send(&Object::new().field("op", "drain").finish())?;
    daemon.join().map_err(|_| "daemon panicked")??;

    let direct = run_batch(&specs, &BatchOptions::with_workers(workers))?;
    println!("direct digest:    {}", direct.digest());

    if socket_digests.iter().any(|d| *d != direct.digest()) {
        return Err(format!(
            "digest divergence: socket {socket_digests:?} vs direct {}",
            direct.digest()
        )
        .into());
    }
    if server.cache().evictions() == 0 {
        return Err("1-byte budget never evicted: dead eviction path".into());
    }
    println!(
        "\nok: cold, warm, and direct digests agree; {} evictions / {} rebuilds \
         under the 1-byte budget were invisible in results",
        server.cache().evictions(),
        server.cache().rebuilds(),
    );
    Ok(())
}

//! `serve-mixed`: an in-process `pa-serve` daemon on a Unix socket, driven
//! by two closed-loop client connections.
//!
//! The request sequence is generated from the seed: one-job batches from
//! the n = 3..4 model-job grid (`batch_suite::model_specs`: the paper
//! arrows under every `default_grid` fault plan, the composed arrow, the
//! expected-time jobs and the invariant) plus sampled n = 8 jobs. Each
//! block of [`BLOCK`] requests has a fixed mix of cost classes at fixed
//! slots, and inside each class a fixed deck of keys in Zipf proportions
//! (popular keys repeat); the seed shuffles each deck and picks the seeds
//! and horizons of the sampled jobs. The n = 4
//! expected-time jobs (over 1.4 s each on a warm model) and the appendix
//! lemmas (which bypass the model cache) are left out of the mix.
//!
//! The cache budget holds the six hot models (n = 3 under all four
//! plans, n = 4 fault-free and crash-stop) plus one of the two cold n = 4
//! models (crash-restart, drop), and each block asks for the other cold
//! one: hits and rebuilds both happen, at a known rate. Every job's
//! result is persisted, and every response digest must equal the digest
//! of a direct `run_batch_in` of the same key, computed after the timed
//! phase.

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::io::{BufRead, BufReader, Cursor, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pa_batch::{run_batch_in, BatchOptions, JobKind, JobSpec, McSettings, ModelCache};
use pa_bench::batch_suite::model_specs;
use pa_core::SetExpr;
use pa_faults::FaultPlan;
use pa_mc::McConfig;
use pa_serve::json::Json;
use pa_serve::{parse_request, spec_to_wire, CustomRegistry, Request, ServeConfig, Server};

use crate::trace::{span, Tracer};
use crate::{median, quantile, vmhwm_mib, Args, Outcome, Scratch};

/// Requests per block.
pub const BLOCK: usize = 40;
/// Blocks in a run of `--seconds 20`; the count scales with `--seconds`.
const BLOCKS_PER_20S: f64 = 6.0;
/// Client connections (closed loop: each sends its next request only
/// after the previous response).
const CLIENTS: usize = 2;
/// Model-cache budget: the hot set (about 173 MB) plus one cold n = 4
/// model (at most 150 MB), below the 8-model working set (about 467 MB).
const CACHE_BUDGET: u64 = 330_000_000;
/// Trajectories per sampled job.
const MC_TRAJECTORIES: u64 = 4_000;
/// Distinct sampled jobs per sequence.
const SAMPLED_POOL: usize = 2;
/// Times set-up runs per process; `setup_s` is the median.
const SETUP_REPS: usize = 2;

const HOT_PLANS: [&str; 2] = ["none", "crash-stop r2 p0"];
const COLD_PLANS: [&str; 2] = ["crash-restart r2 p0 d2", "drop r2 p0"];

/// SplitMix64: the sequence generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `count` indices below `n` in Zipf proportions (index `k` weighs
    /// 1/(k+1), shares rounded by largest remainder), in seeded order. Each
    /// block draws whole decks, so its mix of keys is fixed and only the
    /// order depends on the seed.
    fn zipf_deck(&mut self, n: usize, count: usize) -> Vec<usize> {
        let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        let exact: Vec<f64> = (0..n)
            .map(|k| count as f64 / (k + 1) as f64 / total)
            .collect();
        let mut copies: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..n).collect();
        by_remainder.sort_by(|&a, &b| {
            (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor()))
        });
        let short = count - copies.iter().sum::<usize>();
        for &k in &by_remainder[..short] {
            copies[k] += 1;
        }
        let mut deck: Vec<usize> = (0..n)
            .flat_map(|k| std::iter::repeat_n(k, copies[k]))
            .collect();
        for i in (1..deck.len()).rev() {
            deck.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
        deck
    }
}

/// The cost classes of a block, with their counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// n = 3 arrow, plans in rotation.
    N3Arrow,
    /// n = 3 composed arrow, expected-time or invariant job.
    N3Other,
    /// n = 4 arrow on a hot model.
    N4Hot,
    /// n = 4 invariant (no model).
    N4Invariant,
    /// n = 4 composed arrow on the fault-free model.
    N4Composed,
    /// Sampled n = 8 job.
    Sampled,
    /// n = 4 arrow on the cold model the cache does not hold.
    N4Cold,
}

const MIX: &[(Class, usize)] = &[
    (Class::N3Arrow, 20),
    (Class::N3Other, 6),
    (Class::N4Hot, 6),
    (Class::N4Invariant, 1),
    (Class::N4Composed, 4),
    (Class::Sampled, 2),
    (Class::N4Cold, 1),
];

/// The block's slot pattern: every class spread evenly over the block,
/// the cold request in the middle.
fn block_pattern() -> Vec<Class> {
    let mut slots: Vec<(f64, usize, Class)> = Vec::new();
    for (order, &(class, count)) in MIX.iter().enumerate() {
        for j in 0..count {
            let pos = if class == Class::N4Cold {
                0.5
            } else {
                (j as f64 + 0.5) / count as f64
            };
            slots.push((pos, order, class));
        }
    }
    slots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    debug_assert_eq!(slots.len(), BLOCK);
    slots.into_iter().map(|(_, _, class)| class).collect()
}

/// The model-job grid, sorted into the pools the classes draw from.
struct Pools {
    /// n = 3 arrows by plan (grid order), five each.
    n3_arrows: Vec<Vec<JobSpec>>,
    /// n = 3 composed, RT→P, T→C and invariant jobs.
    n3_other: Vec<JobSpec>,
    /// n = 4 arrows by plan name.
    n4_arrows: BTreeMap<String, Vec<JobSpec>>,
    n4_composed: JobSpec,
    n4_invariant: JobSpec,
}

impl Pools {
    fn new() -> Pools {
        let mut n3_arrows: Vec<Vec<JobSpec>> = Vec::new();
        let mut n3_other = Vec::new();
        let mut n4_arrows: BTreeMap<String, Vec<JobSpec>> = BTreeMap::new();
        let (mut n4_composed, mut n4_invariant) = (None, None);
        for spec in model_specs(&[3, 4]) {
            match (spec.n, &spec.kind) {
                (3, JobKind::Arrow { .. }) => match n3_arrows.last_mut() {
                    Some(pool) if pool[0].plan_name == spec.plan_name => pool.push(spec),
                    _ => n3_arrows.push(vec![spec]),
                },
                (3, JobKind::ComposedArrow | JobKind::ExpectedTime { .. } | JobKind::Invariant) => {
                    n3_other.push(spec)
                }
                (4, JobKind::Arrow { .. }) => n4_arrows
                    .entry(spec.plan_name.clone())
                    .or_default()
                    .push(spec),
                (4, JobKind::ComposedArrow) => n4_composed = Some(spec),
                (4, JobKind::Invariant) => n4_invariant = Some(spec),
                _ => {}
            }
        }
        Pools {
            n3_arrows,
            n3_other,
            n4_arrows,
            n4_composed: n4_composed.expect("the grid has the n = 4 composed arrow"),
            n4_invariant: n4_invariant.expect("the grid has the n = 4 invariant"),
        }
    }

    fn n4(&self, plan: &str) -> &[JobSpec] {
        &self.n4_arrows[plan]
    }
}

/// A sampled n = 8 job: all-trying start to C within `within` rounds.
fn sampled(within: u32, seed: u64) -> JobSpec {
    JobSpec::new(
        8,
        JobKind::Sampled {
            target: SetExpr::named("C"),
            within,
            claimed: 0.125,
            mc: McSettings {
                trajectories: MC_TRAJECTORIES,
                seed,
            },
        },
    )
}

/// The seeded request sequence: `blocks` blocks of [`BLOCK`] one-job
/// requests.
fn sequence(seed: u64, blocks: usize, pools: &Pools) -> Vec<JobSpec> {
    let mut rng = Rng(seed);
    let pattern = block_pattern();
    // Seeds stay below 2^53: the wire carries JSON numbers.
    let sampled_pool: Vec<JobSpec> = (0..SAMPLED_POOL)
        .map(|_| sampled([5, 8, 13][(rng.next() % 3) as usize], rng.next() >> 11))
        .collect();
    let count = |class| {
        MIX.iter()
            .find(|&&(c, _)| c == class)
            .map_or(0, |&(_, k)| k)
    };
    let (mut n3_turn, mut hot_turn) = (0usize, 0usize);
    let mut out = Vec::with_capacity(blocks * BLOCK);
    for block in 0..blocks {
        let arrows = pools.n3_arrows[0].len();
        let mut n3 = rng.zipf_deck(arrows, count(Class::N3Arrow));
        let mut n3_other = rng.zipf_deck(pools.n3_other.len(), count(Class::N3Other));
        let mut hot = rng.zipf_deck(arrows, count(Class::N4Hot));
        let mut cold = rng.zipf_deck(arrows, count(Class::N4Cold));
        let mut mc = rng.zipf_deck(SAMPLED_POOL, count(Class::Sampled));
        for &class in &pattern {
            let spec = match class {
                Class::N3Arrow => {
                    let pool = &pools.n3_arrows[n3_turn % pools.n3_arrows.len()];
                    n3_turn += 1;
                    &pool[n3.pop().expect("deck sized to the mix")]
                }
                Class::N3Other => &pools.n3_other[n3_other.pop().expect("deck sized to the mix")],
                Class::N4Hot => {
                    let pool = pools.n4(HOT_PLANS[hot_turn % 2]);
                    hot_turn += 1;
                    &pool[hot.pop().expect("deck sized to the mix")]
                }
                Class::N4Invariant => &pools.n4_invariant,
                Class::N4Composed => &pools.n4_composed,
                Class::Sampled => &sampled_pool[mc.pop().expect("deck sized to the mix")],
                Class::N4Cold => {
                    &pools.n4(COLD_PLANS[block % 2])[cold.pop().expect("deck sized to the mix")]
                }
            };
            out.push(spec.clone());
        }
    }
    out
}

/// The untimed warm-up: one cheap arrow on each model the cache keeps —
/// the drop-plan cold model first, so it is the first one evicted.
fn warmup(pools: &Pools) -> Vec<JobSpec> {
    let mut specs = vec![pools.n4(COLD_PLANS[1])[1].clone()];
    specs.extend(HOT_PLANS.iter().map(|plan| pools.n4(plan)[1].clone()));
    specs.extend(pools.n3_arrows.iter().map(|pool| pool[1].clone()));
    specs
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const RUN_LINE: &str = "{\"op\":\"run\"}";

/// One client connection.
struct Conn {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Conn {
    fn connect(path: &Path) -> std::io::Result<Conn> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match UnixStream::connect(path) {
                Ok(stream) => break stream,
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    fn exchange(&mut self, line: &str) -> Result<Json, Box<dyn Error + Send + Sync>> {
        writeln!(self.stream, "{line}")?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err("server closed the connection".into());
        }
        Ok(Json::parse(response.trim_end()).map_err(|e| format!("bad response: {e:?}"))?)
    }
}

/// What one request got back.
#[derive(Debug, Clone)]
struct Reply {
    /// Index into the submitted list.
    index: usize,
    /// Seconds from sending the job line to its acknowledgement.
    stage_s: f64,
    /// Seconds from sending `run` to its response.
    latency_s: f64,
    /// When the response arrived, in seconds since the phase started.
    done_s: f64,
    /// The response, if it was a well-formed one-job batch result.
    result: Option<RunResult>,
}

#[derive(Debug, Clone)]
struct RunResult {
    digest: String,
    wall_seconds: f64,
    violated: bool,
}

fn submit(
    conn: &mut Conn,
    index: usize,
    line: &str,
    phase: Instant,
) -> Result<Reply, Box<dyn Error + Send + Sync>> {
    let t = Instant::now();
    let ack = conn.exchange(line)?;
    let stage_s = t.elapsed().as_secs_f64();
    if ack.get("ok").and_then(Json::as_bool) != Some(true) {
        return Ok(Reply {
            index,
            stage_s,
            latency_s: f64::NAN,
            done_s: phase.elapsed().as_secs_f64(),
            result: None,
        });
    }
    let t = Instant::now();
    let done = conn.exchange(RUN_LINE)?;
    let latency_s = t.elapsed().as_secs_f64();
    let done_s = phase.elapsed().as_secs_f64();
    let num = |key: &str| done.get(key).and_then(Json::as_f64);
    let well_formed = done.get("ok").and_then(Json::as_bool) == Some(true)
        && num("jobs") == Some(1.0)
        && num("done") == Some(1.0)
        && num("failed") == Some(0.0)
        && done.get("persisted").and_then(Json::as_bool) == Some(true);
    let result = match (well_formed, done.get("digest").and_then(Json::as_str)) {
        (true, Some(digest)) => Some(RunResult {
            digest: digest.to_string(),
            wall_seconds: num("wall_seconds").unwrap_or(f64::NAN),
            violated: num("violated").is_some_and(|v| v > 0.0),
        }),
        _ => None,
    };
    Ok(Reply {
        index,
        stage_s,
        latency_s,
        done_s,
        result,
    })
}

/// Sends `lines` over `CLIENTS` closed-loop connections; returns the
/// replies in submission order and the wall seconds from the first send
/// to the last response. With a tracer, each request gets a span.
fn drive(
    path: &Path,
    lines: &[String],
    tr: Option<&Tracer>,
) -> Result<(Vec<Reply>, f64), Box<dyn Error>> {
    let next = AtomicUsize::new(0);
    let replies = Mutex::new(Vec::with_capacity(lines.len()));
    let parent = tr.and_then(Tracer::current);
    let conns: Vec<Conn> = (0..CLIENTS)
        .map(|_| Conn::connect(path))
        .collect::<Result<_, _>>()?;
    let start = Instant::now();
    let results: Vec<Result<(), Box<dyn Error + Send + Sync>>> = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                let (next, replies) = (&next, &replies);
                scope.spawn(move || -> Result<(), Box<dyn Error + Send + Sync>> {
                    let mut client = move || -> Result<(), Box<dyn Error + Send + Sync>> {
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(line) = lines.get(i) else {
                                return Ok(());
                            };
                            let reply =
                                span(tr, "serve", "request", || submit(&mut conn, i, line, start))?;
                            replies.lock().expect("reply list poisoned").push(reply);
                        }
                    };
                    match tr {
                        Some(tr) => tr.within(parent, client),
                        None => client(),
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    for r in results {
        r.map_err(|e| e.to_string())?;
    }
    let mut replies = replies.into_inner().expect("reply list poisoned");
    replies.sort_by_key(|r| r.index);
    Ok((replies, wall))
}

/// A running daemon: the server, its accept thread and its paths.
struct Daemon {
    server: Arc<Server>,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    socket: PathBuf,
    reports: PathBuf,
}

impl Daemon {
    fn start(dir: &Path, name: &str) -> std::io::Result<Daemon> {
        let socket = dir.join(format!("{name}.sock"));
        let reports = dir.join(format!("{name}-reports.jsonl"));
        let config = ServeConfig {
            workers: 2,
            cache_budget: Some(CACHE_BUDGET),
            report_path: Some(reports.clone()),
            ..ServeConfig::default()
        };
        let server = Arc::new(Server::new(config, CustomRegistry::new())?);
        let thread = {
            let (server, socket) = (Arc::clone(&server), socket.clone());
            std::thread::spawn(move || server.serve_unix(&socket))
        };
        Ok(Daemon {
            server,
            thread: Some(thread),
            socket,
            reports,
        })
    }

    /// Drains the daemon and waits for its accept thread.
    fn stop(mut self) -> Result<(), Box<dyn Error>> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), Box<dyn Error>> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let drained = Conn::connect(&self.socket)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.exchange("{\"op\":\"drain\"}").map_err(|e| e.to_string()));
        if drained.is_err() {
            // The accept loop may already be gone; make sure it wakes.
            self.server.request_drain();
            let _ = UnixStream::connect(&self.socket);
        }
        thread.join().map_err(|_| "daemon thread panicked")??;
        drained?;
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Error paths: never leave the accept thread running.
        let _ = self.shutdown();
    }
}

/// Starts a daemon and runs the warm-up through it; returns the daemon,
/// the set-up seconds and the warm-up replies.
fn setup(
    dir: &Path,
    name: &str,
    warm: &[String],
) -> Result<(Daemon, f64, Vec<Reply>), Box<dyn Error>> {
    let t = Instant::now();
    let daemon = Daemon::start(dir, name)?;
    let (replies, _) = drive(&daemon.socket, warm, None)?;
    Ok((daemon, t.elapsed().as_secs_f64(), replies))
}

/// Digests of a direct `run_batch_in` of every distinct key, on a
/// reference cache of its own (two threads, keys grouped by model).
fn reference(specs: &[&JobSpec]) -> Result<BTreeMap<String, String>, Box<dyn Error>> {
    let mut distinct: BTreeMap<String, &JobSpec> = BTreeMap::new();
    for spec in specs {
        distinct.entry(spec.key()).or_insert(spec);
    }
    let mut todo: Vec<&JobSpec> = distinct.into_values().collect();
    todo.sort_by_key(|s| (s.n, s.plan_name.clone(), s.key()));
    let cache = ModelCache::with_budget(CACHE_BUDGET);
    let options = BatchOptions::with_workers(1);
    let next = AtomicUsize::new(0);
    let out = Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| -> Result<(), Box<dyn Error>> {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| -> Result<(), String> {
                    while let Some(spec) = todo.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let report = run_batch_in(std::slice::from_ref(*spec), &options, &cache)
                            .map_err(|e| e.to_string())?;
                        out.lock()
                            .expect("reference map poisoned")
                            .insert(spec.key(), report.digest());
                    }
                    Ok(())
                })
            })
            .collect();
        for w in workers {
            w.join().map_err(|_| "reference thread panicked")??;
        }
        Ok(())
    })?;
    Ok(out.into_inner().expect("reference map poisoned"))
}

/// Checks every reply against the reference digests.
fn verify(
    outcome: &mut Outcome,
    specs: &[JobSpec],
    replies: &[Reply],
    reference: &BTreeMap<String, String>,
) {
    for reply in replies {
        let key = specs[reply.index].key();
        let expected = reference.get(&key);
        let ok = reply
            .result
            .as_ref()
            .is_some_and(|r| Some(&r.digest) == expected);
        outcome.check(ok, || {
            format!(
                "{key}: reply {:?}, direct digest {expected:?}",
                reply.result
            )
        });
    }
}

fn persisted_lines(path: &Path) -> Result<(u64, u64), std::io::Error> {
    let text = std::fs::read_to_string(path)?;
    Ok((text.lines().count() as u64, text.len() as u64))
}

/// Per-request numbers of a measured phase.
struct Phase {
    replies: Vec<Reply>,
    wall: f64,
}

impl Phase {
    /// Latencies of the answered requests (refused or failed ones count
    /// in `failed` instead).
    fn latencies_ms(&self) -> Vec<f64> {
        self.replies
            .iter()
            .filter(|r| r.result.is_some())
            .map(|r| r.latency_s * 1e3)
            .collect()
    }

    /// Seconds each block of [`BLOCK`] requests took: from the last
    /// response of the blocks before it to the last response of its own.
    fn block_seconds(&self) -> Vec<f64> {
        let (mut out, mut last, mut latest) = (Vec::new(), 0.0, 0.0_f64);
        for (i, reply) in self.replies.iter().enumerate() {
            latest = latest.max(reply.done_s);
            if (i + 1) % BLOCK == 0 {
                out.push(latest - last);
                last = latest;
            }
        }
        out
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Transport, daemon or reference errors; wrong answers are counted, not
/// returned.
pub fn run(args: &Args, scratch: &Scratch) -> Result<Outcome, Box<dyn Error>> {
    let mut outcome = Outcome::default();
    let pools = Pools::new();
    let blocks = (args.seconds / 20.0 * BLOCKS_PER_20S).round().max(5.0) as usize;
    let specs = sequence(args.seed, blocks, &pools);
    let lines: Vec<String> = specs.iter().map(spec_to_wire).collect::<Result<_, _>>()?;
    let warm_specs = warmup(&pools);
    let warm: Vec<String> = warm_specs
        .iter()
        .map(spec_to_wire)
        .collect::<Result<_, _>>()?;
    let distinct: BTreeSet<String> = specs.iter().map(JobSpec::key).collect();
    outcome.note(format!(
        "serve-mixed: seed {} -> {} requests ({} blocks of {BLOCK}, {} distinct keys), \
         sequence digest {:016x}; closed loop, {CLIENTS} clients",
        args.seed,
        specs.len(),
        blocks,
        distinct.len(),
        fnv1a(lines.join("\n").as_bytes())
    ));

    let dir = scratch.path();
    let mut setups = Vec::new();
    let mut warm_replies = Vec::new();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut daemon = None;
    for rep in 0..reps {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        let (d, secs, replies) = setup(dir, &format!("setup{rep}"), &warm)?;
        setups.push(secs);
        warm_replies.push(replies);
        daemon = Some(d);
    }
    let daemon = daemon.expect("set-up ran at least once");
    let (replies, wall) = drive(&daemon.socket, &lines, None)?;
    let untraced = Phase { replies, wall };
    let vmhwm = vmhwm_mib();
    let resident = daemon.server.cache().resident_bytes();
    let reports = daemon.reports.clone();
    daemon.stop()?;
    let (persisted, _) = persisted_lines(&reports)?;
    outcome.check(persisted == (warm.len() + lines.len()) as u64, || {
        format!(
            "{persisted} reports persisted for {} jobs",
            warm.len() + lines.len()
        )
    });

    let traced = if args.trace {
        let tr = Tracer::new();
        let (daemon, _, replies) = setup(dir, "traced", &warm)?;
        warm_replies.push(replies);
        let (replies, wall) = tr.span("bench", "measured phase", || {
            drive(&daemon.socket, &lines, Some(&tr))
        })?;
        let phase = Phase { replies, wall };
        let server = &daemon.server;
        let cache = server.cache();
        let (hits, misses, rebuilds) = (
            cache.model_hits() as f64,
            cache.model_misses() as f64,
            cache.rebuilds() as f64,
        );
        outcome.set("cache.hits", hits);
        outcome.set("cache.misses", misses);
        outcome.set("cache.rebuilds", rebuilds);
        outcome.set("cache.evictions", cache.evictions() as f64);
        outcome.set("cache.hit_rate", hits / (hits + misses + rebuilds));
        outcome.set("cache.resident_bytes", cache.resident_bytes() as f64);
        outcome.set(
            "serve.rejected",
            (server.jobs_rejected() + server.lines_rejected() + server.connections_rejected())
                as f64,
        );
        let walls: Vec<f64> = phase
            .replies
            .iter()
            .filter_map(|r| r.result.as_ref().map(|x| x.wall_seconds))
            .collect();
        outcome.set("batch.job_p50_s", quantile(&walls, 0.5));
        outcome.set("batch.job_p95_s", quantile(&walls, 0.95));
        let waits: Vec<f64> = phase
            .replies
            .iter()
            .filter_map(|r| {
                r.result
                    .as_ref()
                    .map(|x| (r.latency_s - x.wall_seconds) * 1e3)
            })
            .collect();
        outcome.set("serve.queue_wait_ms", median(&waits));
        let reports = daemon.reports.clone();
        daemon.stop()?;
        let (count, bytes) = persisted_lines(&reports)?;
        outcome.set(
            "serve.persist_bytes_per_job",
            bytes as f64 / count.max(1) as f64,
        );
        outcome.set("trace.overhead_frac", phase.wall / untraced.wall - 1.0);
        Some((tr, phase))
    } else {
        None
    };

    // The reference, outside every timed phase.
    let t = Instant::now();
    let all: Vec<&JobSpec> = specs.iter().chain(&warm_specs).collect();
    let digests = match &traced {
        Some((tr, _)) => tr.span("batch", "run_batch_in", || reference(&all))?,
        None => reference(&all)?,
    };
    let reference_s = t.elapsed().as_secs_f64();
    for replies in &warm_replies {
        verify(&mut outcome, &warm_specs, replies, &digests);
    }
    verify(&mut outcome, &specs, &untraced.replies, &digests);

    if let Some((tr, phase)) = traced {
        verify(&mut outcome, &specs, &phase.replies, &digests);
        outcome.set("batch.reference_s", reference_s);
        layer_probes(&tr, &mut outcome, &specs, &lines, &phase)?;
        outcome.set("process.vmhwm_mib", vmhwm_mib());
        outcome.note(format!(
            "traced phase {:.3} s vs untraced {:.3} s; honest memory: cache resident {:.1} MiB \
             (budget {:.1} MiB) vs process VmHWM {:.1} MiB",
            phase.wall,
            untraced.wall,
            resident as f64 / (1 << 20) as f64,
            CACHE_BUDGET as f64 / (1 << 20) as f64,
            vmhwm_mib()
        ));
        tr.finish(&mut outcome, "serve-mixed", args.seed)?;
        return Ok(outcome);
    }

    let latencies = untraced.latencies_ms();
    let p95 = quantile(&latencies, 0.95);
    let violated = untraced
        .replies
        .iter()
        .filter(|r| r.result.as_ref().is_some_and(|x| x.violated))
        .count();
    outcome.set("setup_s", median(&setups));
    let block = median(&untraced.block_seconds());
    outcome.set("answer_s", block);
    outcome.set("job_p50_ms", quantile(&latencies, 0.5));
    outcome.set("job_p95_ms", p95);
    outcome.set("jobs_per_s", BLOCK as f64 / block);
    outcome.set("peak_rss_mib", vmhwm);
    outcome.note(format!(
        "serve-mixed: {} latency samples, {} beyond p95; {} blocks in {:.3} s; {violated} jobs \
         answered that a claim is violated (expected under faults); reference {reference_s:.2} s",
        latencies.len(),
        latencies.iter().filter(|&&l| l > p95).count(),
        blocks,
        untraced.wall,
    ));
    outcome.note(format!(
        "honest memory: cache resident {:.1} MiB (budget {:.1} MiB) vs process VmHWM {vmhwm:.1} MiB",
        resident as f64 / (1 << 20) as f64,
        CACHE_BUDGET as f64 / (1 << 20) as f64,
    ));
    Ok(outcome)
}

/// The traced run's direct probes of the wire, transport and sampling
/// layers.
fn layer_probes(
    tr: &Tracer,
    outcome: &mut Outcome,
    specs: &[JobSpec],
    lines: &[String],
    phase: &Phase,
) -> Result<(), Box<dyn Error>> {
    // Wire parsing of every generated line, checked to round-trip.
    let registry = CustomRegistry::new();
    let parsed: Vec<_> = tr.span("serve", "wire::parse_request", || {
        lines
            .iter()
            .map(|line| parse_request(line, &registry))
            .collect()
    });
    for (spec, request) in specs.iter().zip(parsed) {
        let ok = matches!(&request, Ok(Request::Job(parsed)) if parsed.key() == spec.key());
        outcome.check(ok, || {
            format!("{} did not parse back to its key", spec.key())
        });
    }
    outcome.set("serve.parse_s", tr.total("wire::parse_request"));

    // Transport: the job lines' socket round trips minus the same lines
    // handled in memory by `handle_stream` (staging only, no runs).
    let server = Server::new(
        ServeConfig {
            queue_depth: lines.len(),
            ..ServeConfig::default()
        },
        CustomRegistry::new(),
    )?;
    let input = lines.join("\n") + "\n";
    let mut output = Vec::new();
    tr.span("serve", "Server::handle_stream", || {
        server.handle_stream(Cursor::new(input.as_bytes()), &mut output)
    })?;
    let acks = String::from_utf8(output)?;
    outcome.check(
        acks.lines().count() == lines.len() && acks.lines().all(|l| l.starts_with("{\"ok\":true")),
        || "in-memory staging rejected a job line".to_string(),
    );
    let in_memory = tr.total("Server::handle_stream") / lines.len() as f64;
    let staged: Vec<f64> = phase.replies.iter().map(|r| r.stage_s).collect();
    let socket = staged.iter().sum::<f64>() / staged.len() as f64;
    outcome.set("serve.transport_ms", (socket - in_memory) * 1e3);

    // Sampling: the sampled jobs of the sequence, called directly with
    // the settings `run_batch` gives a sampled job.
    let (mut trials, mut steps) = (0u64, 0u64);
    let mut seen = BTreeSet::new();
    for spec in specs {
        let JobKind::Sampled {
            target, within, mc, ..
        } = &spec.kind
        else {
            continue;
        };
        if !seen.insert(spec.key()) {
            continue;
        }
        let estimate = tr.span("mc", "estimate_reach_uniform", || {
            pa_faults::estimate_reach_uniform(
                spec.n,
                &FaultPlan::none(),
                target,
                *within,
                &McConfig::new(mc.trajectories, mc.seed, *within).with_workers(1),
            )
        })?;
        trials += estimate.trials();
        steps += estimate.total_steps();
    }
    let sample_s = tr.total("estimate_reach_uniform");
    outcome.set("mc.sample_s", sample_s);
    outcome.set("mc.trajectories_per_s", trials as f64 / sample_s);
    outcome.set("mc.steps", steps as f64);
    Ok(())
}

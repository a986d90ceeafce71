//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records the layer it enters, the public function called, its
//! start and end (seconds since the tracer was made), the span that caused
//! it, and the thread it ran on. Spans nest through a per-thread stack, so
//! a call made inside another span's closure becomes its child; a worker
//! thread joins a parent explicitly with [`Tracer::within`]. Nothing is
//! written until [`Tracer::write_jsonl`] runs at exit.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// The layers a span may name, in report order.
pub const LAYERS: &[(&str, &str)] = &[
    ("bench", "self.bench_s"),
    ("lehmann-rabin", "self.lehmann-rabin_s"),
    ("mdp.explore", "self.mdp.explore_s"),
    ("mdp.query", "self.mdp.query_s"),
    ("store", "self.store_s"),
    ("batch", "self.batch_s"),
    ("serve", "self.serve_s"),
    ("mc", "self.mc_s"),
];

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer entered (one of [`LAYERS`]).
    pub layer: &'static str,
    /// The public function called.
    pub name: &'static str,
    /// Seconds since the tracer's origin.
    pub start: f64,
    /// Seconds since the tracer's origin (NaN while open).
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Small per-thread id, for reading the span file.
    pub thread: u64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// [`Tracer::span`] when tracing, a plain call otherwise.
pub fn span<T>(
    tr: Option<&Tracer>,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match tr {
        Some(tr) => tr.span(layer, name, f),
        None => f(),
    }
}

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// The span recorder of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span for `layer`/`name`, child of the innermost
    /// open span on this thread.
    pub fn span<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        debug_assert!(
            LAYERS.iter().any(|&(l, _)| l == layer),
            "unknown layer {layer}"
        );
        let parent = STACK.with(|s| s.borrow().last().copied());
        let start = self.origin.elapsed().as_secs_f64();
        let idx = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                layer,
                name,
                start,
                end: f64::NAN,
                parent,
                thread: THREAD.with(|t| *t),
            });
            spans.len() - 1
        };
        let out = self.within(Some(idx), f);
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.lock().expect("span list poisoned")[idx].end = end;
        out
    }

    /// Runs `f` with `parent` as this thread's innermost open span — how
    /// a worker thread attaches its spans to the span that spawned it.
    pub fn within<T>(&self, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let pushed = parent.is_some();
        if let Some(p) = parent {
            STACK.with(|s| s.borrow_mut().push(p));
        }
        let out = f();
        if pushed {
            STACK.with(|s| s.borrow_mut().pop());
        }
        out
    }

    /// The innermost open span on this thread.
    pub fn current(&self) -> Option<usize> {
        STACK.with(|s| s.borrow().last().copied())
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Total seconds of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Self time per layer: each span's duration minus the part of it its
    /// children cover (children on other threads may overlap their parent
    /// only partly and each other fully, so their union is clipped to the
    /// parent's interval before it is subtracted).
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&(l, _)| (l, 0.0)).collect();
        for (i, s) in spans.iter().enumerate() {
            let mut covered: Vec<(f64, f64)> = children[i]
                .iter()
                .map(|&c| (spans[c].start.max(s.start), spans[c].end.min(s.end)))
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut union = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in covered {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        union += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                union += cb - ca;
            }
            *out.entry(s.layer).or_insert(0.0) += s.seconds() - union;
        }
        out
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    ///
    /// Creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"thread\":{},\"layer\":\"{}\",\
                 \"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
                s.thread, s.layer, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }

    /// Records the per-layer self times into `outcome` and writes the span
    /// file `.lsbench/spans-<workload>-seed<seed>.jsonl`.
    ///
    /// # Errors
    ///
    /// Writing the span file.
    pub fn finish(
        &self,
        outcome: &mut crate::Outcome,
        workload: &str,
        seed: u64,
    ) -> std::io::Result<()> {
        let self_times = self.self_seconds();
        for &(layer, metric) in LAYERS {
            outcome.set(metric, self_times.get(layer).copied().unwrap_or(0.0));
        }
        let path = Path::new(".lsbench").join(format!("spans-{workload}-seed{seed}.jsonl"));
        self.write_jsonl(&path)?;
        outcome.note(format!(
            "spans: {} written to {}",
            self.spans().len(),
            path.display()
        ));
        Ok(())
    }
}

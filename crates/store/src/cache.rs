//! The byte-budgeted resident-block cache.
//!
//! [`BlockCache`] mirrors `pa-batch`'s `ModelCache::with_budget`
//! semantics at block granularity: blocks page in on demand (a *fault*,
//! verified against their written digest, so a reload is bitwise identical
//! to the original bytes), stay resident while any caller still holds
//! their [`std::sync::Arc`] (a *pin* — pinned blocks are never evicted),
//! and once the resident total exceeds the budget the least-recently-used
//! unpinned block is dropped. The block a fault just brought in is itself
//! exempt from that fault's eviction pass, so any budget — down to a
//! single byte — leaves exactly the block being swept resident and the
//! engines still terminate.
//!
//! Telemetry: `mdp.store.faults`, `mdp.store.hits`, `mdp.store.evictions`
//! counters, the `mdp.store.fault_bytes` counter and
//! `mdp.store.verify_seconds` timer of the page-ins (map plus digest
//! check), and the `mdp.store.resident_bytes` /
//! `mdp.store.peak_resident_bytes` gauges, plus process-wide totals via
//! [`crate::stats`] (what `pa-serve`'s `stats` verb reports).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pa_mdp::fxhash::FxHashMap;

use crate::error::StoreError;
use crate::format::{MappedBlock, StoreFile};

static RESIDENT: AtomicU64 = AtomicU64::new(0);
static PEAK_RESIDENT: AtomicU64 = AtomicU64::new(0);
static FAULTS: AtomicU64 = AtomicU64::new(0);
static HITS: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);
static BUDGET: AtomicU64 = AtomicU64::new(0);
static CACHES: AtomicU64 = AtomicU64::new(0);

/// A process-wide snapshot of block-cache activity, summed over every live
/// [`BlockCache`] (counters also include caches that have since dropped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Bytes of block payload currently resident across all caches.
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes` over the process lifetime.
    pub peak_resident_bytes: u64,
    /// Blocks paged in from disk.
    pub faults: u64,
    /// Block requests served from residency.
    pub hits: u64,
    /// Blocks dropped to enforce a budget.
    pub evictions: u64,
    /// Sum of the byte budgets of all live caches.
    pub budget_bytes: u64,
    /// Number of live caches.
    pub caches: u64,
}

/// The process-wide [`StoreStats`] snapshot.
pub fn stats() -> StoreStats {
    StoreStats {
        resident_bytes: RESIDENT.load(Ordering::Relaxed),
        peak_resident_bytes: PEAK_RESIDENT.load(Ordering::Relaxed),
        faults: FAULTS.load(Ordering::Relaxed),
        hits: HITS.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
        budget_bytes: BUDGET.load(Ordering::Relaxed),
        caches: CACHES.load(Ordering::Relaxed),
    }
}

fn add_resident(bytes: u64) {
    let now = RESIDENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_RESIDENT.fetch_max(now, Ordering::Relaxed);
    if pa_telemetry::enabled() {
        pa_telemetry::gauge("mdp.store.resident_bytes").set(now as i64);
        pa_telemetry::gauge("mdp.store.peak_resident_bytes").set_max(now as i64);
    }
}

fn sub_resident(bytes: u64) {
    let now = RESIDENT.fetch_sub(bytes, Ordering::Relaxed) - bytes;
    if pa_telemetry::enabled() {
        pa_telemetry::gauge("mdp.store.resident_bytes").set(now as i64);
    }
}

struct Slot {
    block: Arc<MappedBlock>,
    last_use: u64,
    bytes: u64,
}

struct Inner {
    resident: FxHashMap<usize, Slot>,
    clock: u64,
    resident_bytes: u64,
    faults: u64,
    hits: u64,
    evictions: u64,
    peak_resident: u64,
}

/// An LRU cache of mapped blocks with a byte budget; the `cache` module
/// docs give the pin/evict contract.
pub struct BlockCache {
    budget: u64,
    inner: Mutex<Inner>,
}

impl BlockCache {
    /// An empty cache that evicts past `budget` resident payload bytes.
    pub fn with_budget(budget: u64) -> BlockCache {
        BUDGET.fetch_add(budget, Ordering::Relaxed);
        CACHES.fetch_add(1, Ordering::Relaxed);
        BlockCache {
            budget,
            inner: Mutex::new(Inner {
                resident: FxHashMap::default(),
                clock: 0,
                resident_bytes: 0,
                faults: 0,
                hits: 0,
                evictions: 0,
                peak_resident: 0,
            }),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Returns block `idx` of `file`, faulting it in if not resident, then
    /// enforces the budget. The returned [`Arc`] pins the block: it cannot
    /// be evicted while the caller holds it.
    pub fn block(&self, file: &StoreFile, idx: usize) -> Result<Arc<MappedBlock>, StoreError> {
        let mut inner = self.inner.lock().expect("block cache poisoned");
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(slot) = inner.resident.get_mut(&idx) {
            slot.last_use = clock;
            let block = Arc::clone(&slot.block);
            inner.hits += 1;
            HITS.fetch_add(1, Ordering::Relaxed);
            if pa_telemetry::enabled() {
                pa_telemetry::counter("mdp.store.hits").inc();
            }
            return Ok(block);
        }
        // Fault: load and digest-verify under the lock (the solver kernels
        // page blocks in from one thread per model — worker threads only
        // read the pinned block — so there is no concurrent load to
        // overlap with).
        let verify = pa_telemetry::span("mdp.store.verify_seconds");
        let block = Arc::new(file.load_block(idx)?);
        verify.finish();
        let bytes = block.resident_bytes();
        inner.faults += 1;
        FAULTS.fetch_add(1, Ordering::Relaxed);
        if pa_telemetry::enabled() {
            pa_telemetry::counter("mdp.store.faults").inc();
            pa_telemetry::counter("mdp.store.fault_bytes").add(bytes);
        }
        inner.resident.insert(
            idx,
            Slot {
                block: Arc::clone(&block),
                last_use: clock,
                bytes,
            },
        );
        inner.resident_bytes += bytes;
        inner.peak_resident = inner.peak_resident.max(inner.resident_bytes);
        add_resident(bytes);
        while inner.resident_bytes > self.budget {
            // LRU victim among unpinned blocks; the block just faulted in
            // is pinned by the caller-bound Arc above, so it survives.
            let victim = inner
                .resident
                .iter()
                .filter(|(_, s)| Arc::strong_count(&s.block) == 1)
                .min_by_key(|(_, s)| s.last_use)
                .map(|(&k, _)| k);
            let Some(victim) = victim else { break };
            let slot = inner.resident.remove(&victim).expect("victim resident");
            inner.resident_bytes -= slot.bytes;
            inner.evictions += 1;
            EVICTIONS.fetch_add(1, Ordering::Relaxed);
            sub_resident(slot.bytes);
            if pa_telemetry::enabled() {
                pa_telemetry::counter("mdp.store.evictions").inc();
            }
        }
        Ok(block)
    }

    /// This cache's own activity snapshot (budget totals in
    /// `budget_bytes`, `caches == 1`).
    pub fn local_stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("block cache poisoned");
        StoreStats {
            resident_bytes: inner.resident_bytes,
            peak_resident_bytes: inner.peak_resident,
            faults: inner.faults,
            hits: inner.hits,
            evictions: inner.evictions,
            budget_bytes: self.budget,
            caches: 1,
        }
    }
}

impl Drop for BlockCache {
    fn drop(&mut self) {
        let inner = self.inner.get_mut().expect("block cache poisoned");
        if inner.resident_bytes > 0 {
            sub_resident(inner.resident_bytes);
        }
        BUDGET.fetch_sub(self.budget, Ordering::Relaxed);
        CACHES.fetch_sub(1, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.local_stats();
        f.debug_struct("BlockCache")
            .field("budget", &self.budget)
            .field("resident_bytes", &s.resident_bytes)
            .field("faults", &s.faults)
            .field("evictions", &s.evictions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::StoreWriter;
    use pa_mdp::Choice;

    #[test]
    fn page_ins_report_fault_bytes_and_verify_time() {
        let dir = std::env::temp_dir().join(format!("pa-store-cache-tm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = StoreWriter::create(dir.join("model.pacsr"), 0, 4096).unwrap();
        let states = 2_000;
        for s in 0..states {
            w.push_row(s, &[Choice::to(1, (s + 1) % states)]).unwrap();
        }
        let file = w.finish(&[0], states as u64, states as u64).unwrap();
        assert!(file.blocks().len() >= 2);
        let total: u64 = file.blocks().iter().map(|b| b.payload_len).sum();

        pa_telemetry::set_enabled(true);
        let scope = pa_telemetry::TelemetryScope::new("cache");
        let cache = BlockCache::with_budget(1);
        {
            let _in = scope.enter();
            for _ in 0..2 {
                for b in 0..file.blocks().len() {
                    cache.block(&file, b).unwrap();
                }
            }
        }
        let snap = scope.snapshot();
        let faults = cache.local_stats().faults;
        assert_eq!(faults, 2 * file.blocks().len() as u64);
        assert_eq!(snap.counter("mdp.store.faults"), faults);
        assert_eq!(snap.counter("mdp.store.fault_bytes"), 2 * total);
        assert_eq!(snap.timer("mdp.store.verify_seconds").count, faults);
        drop(file);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

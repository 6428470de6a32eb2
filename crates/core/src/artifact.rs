//! Concurrent content-addressed artifact cache.
//!
//! The serving layer compiles the same reference circuits over and over — every
//! session against a suite case needs the case's checked IR, lowered [`Netlist`],
//! emitted Verilog and compiled simulation [`Tape`]. An [`ArtifactCache`] keys all
//! of those on the circuit's process-stable [`Fingerprint`]
//! (see `rechisel_firrtl::fingerprint`), so concurrent requests for the same design
//! share one compilation instead of paying one each.
//!
//! This generalizes the per-instance `OnceLock` caches that `BenchmarkCase` grew in
//! earlier PRs: those deduplicate within one case *instance*; the artifact cache
//! deduplicates across cases, sessions, connections and threads, with observable
//! hit/miss/eviction counters and a byte-budget LRU so a long-lived server stays
//! within a bounded footprint.
//!
//! # Concurrency
//!
//! The map is sharded (16 × `RwLock<HashMap>`) by the low bits of the
//! fingerprint, so unrelated lookups never contend. A miss registers the
//! fingerprint in an in-flight set before compiling **outside** any lock; a second
//! thread requesting the same fingerprint mid-compile blocks on a condvar and is
//! counted as a *hit* when the artifacts land (it did not compile anything).
//! Failed compilations are never cached — diagnostics go back to the caller and the
//! next request retries.
//!
//! # Example
//!
//! ```
//! use rechisel_core::ArtifactCache;
//! use rechisel_hcl::prelude::*;
//!
//! let mut m = ModuleBuilder::new("Pass");
//! let a = m.input("a", Type::uint(8));
//! let out = m.output("out", Type::uint(8));
//! m.connect(&out, &a);
//! let circuit = m.into_circuit();
//!
//! let cache = ArtifactCache::new();
//! let first = cache.get_or_compile(&circuit).unwrap();
//! let second = cache.get_or_compile(&circuit).unwrap();
//! assert!(std::sync::Arc::ptr_eq(&first, &second));
//! let stats = cache.stats();
//! assert_eq!((stats.hits, stats.misses), (1, 1));
//! ```

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use rechisel_firrtl::diagnostics::Diagnostic;
use rechisel_firrtl::fingerprint::Fingerprint;
use rechisel_firrtl::ir::Circuit;
use rechisel_firrtl::lower::Netlist;
use rechisel_sim::{SimError, Tape};

use crate::tools::ChiselCompiler;

/// Number of independent lock shards. A small power of two: enough that a worker
/// pool in the tens of threads rarely contends on one lock, cheap enough to scan
/// for eviction and stats.
const SHARDS: usize = 16;

/// Everything the pipeline produces for one circuit, cached as a unit.
///
/// The tape field holds a `Result`: tape compilation can fail on designs the
/// checker accepts (e.g. unsupported dynamic shapes), and that failure is as
/// cacheable as success — recompiling would fail identically.
#[derive(Debug)]
pub struct CircuitArtifacts {
    /// The content fingerprint these artifacts are keyed on.
    pub fingerprint: Fingerprint,
    /// The lowered, ground-typed netlist.
    pub netlist: Netlist,
    /// The emitted Verilog source.
    pub verilog: String,
    /// The compiled simulation tape (or the deterministic compile error).
    pub tape: Result<Arc<Tape>, SimError>,
    /// Estimated resident size in bytes, used against the cache's byte budget.
    pub bytes: usize,
}

impl CircuitArtifacts {
    /// The compiled tape, or an error for designs the tape compiler rejects.
    pub fn tape(&self) -> Result<Arc<Tape>, SimError> {
        self.tape.clone()
    }
}

/// Point-in-time counters of an [`ArtifactCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache (including waiters that joined an in-flight
    /// compilation).
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Estimated resident bytes.
    pub bytes: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when the cache has served no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One resident entry: the artifacts plus an LRU touch stamp.
struct Entry {
    artifacts: Arc<CircuitArtifacts>,
    /// Logical timestamp of the last lookup, from the cache-wide clock. Updated
    /// with a relaxed store under the shard *read* lock — approximate recency is
    /// all LRU needs.
    touched: AtomicU64,
}

/// A concurrent, content-addressed circuit → compiled-artifacts cache.
///
/// See the [module docs](self) for semantics. Cheap to share: wrap in an [`Arc`]
/// and hand clones to every worker/connection.
pub struct ArtifactCache {
    shards: Vec<RwLock<HashMap<u128, Entry>>>,
    compiler: ChiselCompiler,
    /// Fingerprints currently being compiled, with a condvar for waiters.
    in_flight: Mutex<HashSet<u128>>,
    in_flight_done: Condvar,
    /// Monotonic logical clock driving LRU recency.
    clock: AtomicU64,
    /// Byte budget; `u64::MAX` means unbounded.
    budget: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bytes: AtomicU64,
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactCache").field("stats", &self.stats()).finish_non_exhaustive()
    }
}

impl Default for ArtifactCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ArtifactCache {
    /// An unbounded cache with the default compiler.
    pub fn new() -> Self {
        Self::with_budget(u64::MAX)
    }

    /// A cache that evicts least-recently-used entries once the estimated resident
    /// size exceeds `budget` bytes. A budget of `0` caches nothing (every insert
    /// is immediately evicted) — useful to force cold-compile behaviour in benches.
    pub fn with_budget(budget: u64) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            compiler: ChiselCompiler::new(),
            in_flight: Mutex::new(HashSet::new()),
            in_flight_done: Condvar::new(),
            clock: AtomicU64::new(0),
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// The configured byte budget (`u64::MAX` when unbounded).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    fn shard(&self, fp: Fingerprint) -> &RwLock<HashMap<u128, Entry>> {
        &self.shards[(fp.as_u128() as usize) % SHARDS]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Looks up already-cached artifacts without compiling. Counts neither a hit
    /// nor a miss; refreshes recency on success.
    pub fn peek(&self, fingerprint: Fingerprint) -> Option<Arc<CircuitArtifacts>> {
        let shard = self.shard(fingerprint).read().expect("artifact cache shard poisoned");
        shard.get(&fingerprint.as_u128()).map(|entry| {
            entry.touched.store(self.tick(), Ordering::Relaxed);
            Arc::clone(&entry.artifacts)
        })
    }

    /// Returns the artifacts for `circuit`, compiling at most once per fingerprint
    /// across all threads.
    ///
    /// # Errors
    ///
    /// Propagates the pipeline's error-severity diagnostics when the circuit fails
    /// checking or lowering. Failures are not cached; the reflection loop submits
    /// revised (differently-fingerprinted) candidates anyway.
    pub fn get_or_compile(
        &self,
        circuit: &Circuit,
    ) -> Result<Arc<CircuitArtifacts>, Vec<Diagnostic>> {
        let fingerprint = circuit.fingerprint();
        loop {
            if let Some(hit) = self.peek(fingerprint) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(hit);
            }

            // Not resident: either claim the compile or wait for whoever owns it.
            {
                let mut in_flight =
                    self.in_flight.lock().expect("artifact cache in-flight set poisoned");
                if in_flight.contains(&fingerprint.as_u128()) {
                    // Someone else is compiling this exact circuit; wait and re-check.
                    // Waiters count as hits — they consumed a shared compilation.
                    let _guard = self
                        .in_flight_done
                        .wait_while(in_flight, |set| set.contains(&fingerprint.as_u128()))
                        .expect("artifact cache in-flight set poisoned");
                    continue;
                }
                in_flight.insert(fingerprint.as_u128());
            }

            let result = self.compile_and_insert(circuit, fingerprint);
            {
                let mut in_flight =
                    self.in_flight.lock().expect("artifact cache in-flight set poisoned");
                in_flight.remove(&fingerprint.as_u128());
            }
            self.in_flight_done.notify_all();
            return result;
        }
    }

    /// The slow path: compile outside any shard lock, then publish.
    fn compile_and_insert(
        &self,
        circuit: &Circuit,
        fingerprint: Fingerprint,
    ) -> Result<Arc<CircuitArtifacts>, Vec<Diagnostic>> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let compiled = self.compiler.compile(circuit)?;
        let tape = Tape::compile(&compiled.netlist).map(Arc::new);
        let bytes = estimate_bytes(&compiled.verilog, &tape);
        let artifacts = Arc::new(CircuitArtifacts {
            fingerprint,
            netlist: compiled.netlist,
            verilog: compiled.verilog,
            tape,
            bytes,
        });

        {
            let mut shard = self.shard(fingerprint).write().expect("artifact cache shard poisoned");
            let entry =
                Entry { artifacts: Arc::clone(&artifacts), touched: AtomicU64::new(self.tick()) };
            if shard.insert(fingerprint.as_u128(), entry).is_none() {
                self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            }
        }
        self.enforce_budget();
        Ok(artifacts)
    }

    /// Evicts least-recently-touched entries until resident bytes fit the budget.
    ///
    /// Scans all shards for the oldest stamp per round; eviction is rare (only on
    /// budget pressure) so the O(entries) scan is fine — and keeps the hot lookup
    /// path completely free of LRU bookkeeping structures.
    fn enforce_budget(&self) {
        while self.bytes.load(Ordering::Relaxed) > self.budget {
            let mut oldest: Option<(u64, usize, u128)> = None;
            for (index, shard) in self.shards.iter().enumerate() {
                let shard = shard.read().expect("artifact cache shard poisoned");
                for (key, entry) in shard.iter() {
                    let stamp = entry.touched.load(Ordering::Relaxed);
                    if oldest.is_none_or(|(s, _, _)| stamp < s) {
                        oldest = Some((stamp, index, *key));
                    }
                }
            }
            let Some((_, index, key)) = oldest else { return };
            let mut shard = self.shards[index].write().expect("artifact cache shard poisoned");
            if let Some(entry) = shard.remove(&key) {
                self.bytes.fetch_sub(entry.artifacts.bytes as u64, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drops every entry (counters other than `entries`/`bytes` are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.write().expect("artifact cache shard poisoned");
            for (_, entry) in shard.drain() {
                self.bytes.fetch_sub(entry.artifacts.bytes as u64, Ordering::Relaxed);
            }
        }
    }

    /// A consistent-enough snapshot of the counters (individual loads are relaxed;
    /// exact cross-counter consistency is not needed for monitoring).
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .shards
            .iter()
            .map(|s| s.read().expect("artifact cache shard poisoned").len() as u64)
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

/// Estimated resident footprint of one entry.
///
/// Deliberately coarse: the budget exists to bound a long-running server, not to
/// account bytes exactly. Tape slots and instructions dominate for real designs.
fn estimate_bytes(verilog: &str, tape: &Result<Arc<Tape>, SimError>) -> usize {
    const ENTRY_OVERHEAD: usize = 512;
    let tape_bytes = match tape {
        Ok(tape) => {
            tape.instructions_per_cycle() * 32 + tape.slot_count() * 16 + tape.mem_word_count() * 16
        }
        Err(_) => 0,
    };
    ENTRY_OVERHEAD + verilog.len() + tape_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use rechisel_hcl::prelude::*;

    fn passthrough(name: &str, width: u32) -> Circuit {
        let mut m = ModuleBuilder::new(name);
        let a = m.input("a", Type::uint(width));
        let out = m.output("out", Type::uint(width));
        m.connect(&out, &a);
        m.into_circuit()
    }

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_artifacts() {
        let cache = ArtifactCache::new();
        let circuit = passthrough("Pass", 8);
        let first = cache.get_or_compile(&circuit).unwrap();
        let second = cache.get_or_compile(&circuit).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let tape_a = first.tape().unwrap();
        let tape_b = second.tape().unwrap();
        assert!(Arc::ptr_eq(&tape_a, &tape_b));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn distinct_circuits_get_distinct_entries() {
        let cache = ArtifactCache::new();
        let a = cache.get_or_compile(&passthrough("A", 8)).unwrap();
        let b = cache.get_or_compile(&passthrough("B", 8)).unwrap();
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn compile_failures_propagate_and_are_not_cached() {
        let cache = ArtifactCache::new();
        let mut m = ModuleBuilder::new("Broken");
        let _a = m.input("a", Type::uint(8));
        let _out = m.output("out", Type::uint(8)); // never driven
        let broken = m.into_circuit();
        assert!(!cache.get_or_compile(&broken).unwrap_err().is_empty());
        assert!(!cache.get_or_compile(&broken).unwrap_err().is_empty());
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.misses, 2, "failures must not short-circuit as hits");
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        // Insert A then B into a budget that only fits one entry; touching A after
        // inserting it keeps it resident while B's insert evicts... A is older by
        // the time B lands, so A goes first; then touch B and insert C: B survives?
        // No — budget fits ONE entry, so each insert evicts the previous one.
        let one_entry = {
            let probe = ArtifactCache::new();
            probe.get_or_compile(&passthrough("Probe", 8)).unwrap().bytes as u64
        };
        let cache = ArtifactCache::with_budget(one_entry + one_entry / 2);
        let a = passthrough("A", 8);
        let b = passthrough("B", 8);
        cache.get_or_compile(&a).unwrap();
        cache.get_or_compile(&b).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "budget fits a single entry");
        assert_eq!(stats.evictions, 1);
        assert!(cache.peek(b.fingerprint()).is_some(), "most recent entry survives");
        assert!(cache.peek(a.fingerprint()).is_none(), "LRU entry was evicted");
        // A comes back on demand — eviction is transparent.
        cache.get_or_compile(&a).unwrap();
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn zero_budget_caches_nothing() {
        let cache = ArtifactCache::with_budget(0);
        let circuit = passthrough("Cold", 8);
        cache.get_or_compile(&circuit).unwrap();
        cache.get_or_compile(&circuit).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.evictions, 2);
    }

    #[test]
    fn concurrent_same_circuit_lookups_compile_once() {
        let cache = Arc::new(ArtifactCache::new());
        let circuit = Arc::new(passthrough("Shared", 8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let circuit = Arc::clone(&circuit);
                std::thread::spawn(move || cache.get_or_compile(&circuit).unwrap())
            })
            .collect();
        let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        for pair in results.windows(2) {
            assert!(Arc::ptr_eq(&pair[0], &pair[1]));
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "exactly one thread compiled");
        assert_eq!(stats.hits, 7, "everyone else shared it");
    }

    #[test]
    fn clear_releases_entries_and_bytes() {
        let cache = ArtifactCache::new();
        cache.get_or_compile(&passthrough("A", 8)).unwrap();
        cache.get_or_compile(&passthrough("B", 16)).unwrap();
        assert_eq!(cache.stats().entries, 2);
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.bytes, 0);
        assert_eq!(stats.misses, 2, "counters survive clear");
    }
}

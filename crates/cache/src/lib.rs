//! Canonical-form schedule cache with content-addressed hits.
//!
//! Scheduling a constraint graph is a pure function of the graph's
//! *structure*: vertex names, insertion order, and redundant sequencing
//! edges do not affect offsets, anchor sets, or feasibility. This crate
//! exploits that purity to memoize schedule results across requests that
//! differ only in labeling:
//!
//! 1. [`ConstraintGraph::canonical_key`] relabels the graph into a
//!    deterministic canonical order and serializes it to a byte string
//!    whose FNV-1a hash is the cache key (no canonical graph is built on
//!    the probe path — only the permutation and the serialization).
//! 2. [`ScheduleCache`] is a sharded LRU keyed by that hash; each entry
//!    stores the full canonical bytes (as a collision guard) and the
//!    schedule result *in canonical space*: offsets, anchor sets, and the
//!    iteration count that together form the feasibility certificate —
//!    an entry exists only for graphs proven well-posed by a cold run.
//! 3. On a hit, the cached schedule is mapped back through the query's
//!    own permutation ([`RelativeSchedule::remapped`]), producing a result
//!    bit-identical to what a cold run on the query's labeling would
//!    compute — without touching the iterative kernel.
//!
//! Because each query carries its own permutation and canonical bytes are
//! compared on every probe, a weak hash or a canonicalizer collision can
//! only cost hit rate, never correctness.
//!
//! Only `Ok` results are cached: error witnesses (`Unfeasible`,
//! `IllPosed`) name vertices in the *original* labeling and depend on edge
//! order, and failing runs abort early, so recomputing them is cheap.
//!
//! # Example
//!
//! ```
//! use rsched_cache::{schedule_cached, ScheduleCache};
//! use rsched_graph::{ConstraintGraph, ExecDelay};
//!
//! # fn main() -> Result<(), rsched_core::ScheduleError> {
//! let mut g = ConstraintGraph::new();
//! let a = g.add_operation("a", ExecDelay::Fixed(2));
//! let b = g.add_operation("b", ExecDelay::Fixed(1));
//! g.add_dependency(a, b).unwrap();
//! g.polarize().unwrap();
//!
//! let cache = ScheduleCache::new(64);
//! let (cold, hit) = schedule_cached(&cache, &g)?;
//! assert!(!hit);
//! let (warm, hit) = schedule_cached(&cache, &g)?;
//! assert!(hit);
//! assert_eq!(cold, warm);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rsched_core::{schedule, RelativeSchedule, ScheduleError};
use rsched_graph::{CanonicalKey, ConstraintGraph};

/// Number of independently locked shards. Power of two so the hash can be
/// folded with a mask; small enough that an empty cache stays cheap.
const N_SHARDS: usize = 8;

/// One cache entry: the canonical serialization it was keyed by (compared
/// verbatim on every probe to defeat 64-bit hash collisions) and the
/// schedule in canonical space.
struct Entry {
    bytes: Vec<u8>,
    value: Arc<RelativeSchedule>,
    /// Logical access clock for LRU eviction; bumped on every hit.
    tick: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<u64, Entry>,
    clock: u64,
}

/// Monotonic counters describing cache behaviour since construction.
///
/// `entries` is a point-in-time gauge; the rest only grow. All counters
/// are updated with relaxed atomics: they are observability data, not
/// synchronization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes that returned a cached schedule.
    pub hits: u64,
    /// Probes that found nothing (or mismatched canonical bytes).
    pub misses: u64,
    /// Entries displaced to make room for an insert.
    pub evictions: u64,
    /// Successful inserts (including overwrites of a colliding key).
    pub inserts: u64,
    /// Live entries across all shards right now.
    pub entries: u64,
    /// Total nanoseconds spent serving hits (canonicalize + probe + remap).
    pub hit_nanos: u64,
}

impl CacheStats {
    /// Mean nanoseconds per hit, or 0 when there were no hits.
    pub fn mean_hit_nanos(&self) -> u64 {
        self.hit_nanos.checked_div(self.hits).unwrap_or(0)
    }
}

/// Outcome of [`ScheduleCache::probe`].
#[derive(Debug)]
pub enum Probe {
    /// The cache is disabled: nothing was canonicalized or counted.
    Off,
    /// A byte-verified hit, in the probed graph's own labeling.
    Hit(RelativeSchedule),
    /// A miss, with the probed graph's key for a later insert.
    Miss(CanonicalKey),
}

/// A sharded, content-addressed LRU cache of schedule results.
///
/// Capacity is a total entry budget split evenly across shards; a
/// capacity of `0` disables the cache entirely (every probe misses
/// without counting, inserts are dropped), so callers can hold one
/// unconditionally and let configuration decide.
pub struct ScheduleCache {
    shards: Vec<Mutex<Shard>>,
    /// Max entries per shard; 0 means the cache is disabled.
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inserts: AtomicU64,
    hit_nanos: AtomicU64,
}

impl ScheduleCache {
    /// Create a cache holding at most `capacity` schedules. `0` disables
    /// caching.
    pub fn new(capacity: usize) -> ScheduleCache {
        let shard_capacity = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(N_SHARDS)
        };
        ScheduleCache {
            shards: (0..N_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            hit_nanos: AtomicU64::new(0),
        }
    }

    /// Whether the cache stores anything at all (capacity > 0).
    pub fn enabled(&self) -> bool {
        self.shard_capacity > 0
    }

    fn shard_for(&self, hash: u64) -> &Mutex<Shard> {
        // Fold the high bits in so shard choice is not just the hash's
        // low byte (FNV mixes low bits last).
        let folded = hash ^ (hash >> 32) ^ (hash >> 16);
        &self.shards[(folded as usize) & (N_SHARDS - 1)]
    }

    /// Probe for a canonical form. Returns the canonical-space schedule on
    /// a byte-verified hit; counts a hit or miss either way.
    pub fn lookup(&self, form: &CanonicalKey) -> Option<Arc<RelativeSchedule>> {
        if !self.enabled() {
            return None;
        }
        let mut shard = self
            .shard_for(form.hash)
            .lock()
            .expect("cache shard poisoned");
        shard.clock += 1;
        let clock = shard.clock;
        match shard.map.get_mut(&form.hash) {
            Some(entry) if entry.bytes == form.bytes => {
                entry.tick = clock;
                let value = Arc::clone(&entry.value);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            _ => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a canonical-space schedule for a canonical form, evicting
    /// the least recently used entry of the target shard if it is full.
    ///
    /// The caller is responsible for only inserting schedules produced by
    /// a successful cold run on a graph whose canonical form is `form` —
    /// that proof of well-posedness is what a later hit returns.
    pub fn insert(&self, form: &CanonicalKey, canonical: RelativeSchedule) {
        if !self.enabled() {
            return;
        }
        let mut shard = self
            .shard_for(form.hash)
            .lock()
            .expect("cache shard poisoned");
        shard.clock += 1;
        let clock = shard.clock;
        if shard.map.len() >= self.shard_capacity && !shard.map.contains_key(&form.hash) {
            // LRU eviction by linear scan: shards are small (capacity /
            // N_SHARDS entries) and eviction is dwarfed by the schedule
            // run that preceded the insert.
            if let Some(oldest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| *k)
            {
                shard.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.map.insert(
            form.hash,
            Entry {
                bytes: form.bytes.clone(),
                value: Arc::new(canonical),
                tick: clock,
            },
        );
        drop(shard);
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Canonicalize `graph` and probe. A hit comes back mapped to
    /// `graph`'s own labeling, its latency (canonicalization, probe and
    /// remap) accumulated into the stats; a miss hands back the key, so
    /// the caller can [`insert`](Self::insert) the cold result (mapped
    /// through the key's `perm`) without canonicalizing the graph again.
    pub fn probe(&self, graph: &ConstraintGraph) -> Probe {
        if !self.enabled() {
            return Probe::Off;
        }
        let started = Instant::now();
        let form = graph.canonical_key();
        match self.lookup(&form) {
            Some(canonical) => {
                let out = canonical.remapped(&form.inv);
                self.record_hit_nanos(started.elapsed().as_nanos() as u64);
                Probe::Hit(out)
            }
            None => Probe::Miss(form),
        }
    }

    /// Canonicalize `graph` and store `result` (given in `graph`'s own
    /// labeling, as produced by a successful cold run on it).
    pub fn put(&self, graph: &ConstraintGraph, result: &RelativeSchedule) {
        if !self.enabled() {
            return;
        }
        let form = graph.canonical_key();
        self.insert(&form, result.remapped(&form.perm));
    }

    /// Add `nanos` to the accumulated hit-serving time.
    pub fn record_hit_nanos(&self, nanos: u64) {
        self.hit_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len() as u64)
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            entries,
            hit_nanos: self.hit_nanos.load(Ordering::Relaxed),
        }
    }
}

/// Schedule `graph`, consulting and populating `cache`.
///
/// Returns the schedule in `graph`'s own labeling plus whether it was
/// served from cache. A hit is bit-identical (offsets, anchor sets, and
/// iteration count) to what the cold path would have produced. Errors are
/// never cached; a disabled cache degrades to plain [`schedule`].
pub fn schedule_cached(
    cache: &ScheduleCache,
    graph: &ConstraintGraph,
) -> Result<(RelativeSchedule, bool), ScheduleError> {
    match cache.probe(graph) {
        Probe::Hit(out) => Ok((out, true)),
        Probe::Miss(form) => {
            let cold = schedule(graph)?;
            cache.insert(&form, cold.remapped(&form.perm));
            Ok((cold, false))
        }
        Probe::Off => Ok((schedule(graph)?, false)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsched_graph::ExecDelay;

    /// The Fig. 5-style fixture used across crates: a chain with an
    /// unbounded op and both min and max constraints, built with the
    /// given op insertion order and names.
    fn fixture(order: &[usize], names: &[&str; 4]) -> ConstraintGraph {
        let mut g = ConstraintGraph::new();
        let delays = [
            ExecDelay::Fixed(2),
            ExecDelay::Unbounded,
            ExecDelay::Fixed(1),
            ExecDelay::Fixed(3),
        ];
        let mut ids = [None; 4];
        for &slot in order {
            ids[slot] = Some(g.add_operation(names[slot], delays[slot]));
        }
        let v = |i: usize| ids[i].unwrap();
        g.add_dependency(v(0), v(1)).unwrap();
        g.add_dependency(v(1), v(2)).unwrap();
        g.add_dependency(v(0), v(3)).unwrap();
        g.add_min_constraint(v(0), v(3), 4).unwrap();
        g.add_max_constraint(v(2), v(3), 9).unwrap();
        g.polarize().unwrap();
        g
    }

    #[test]
    fn cold_then_hit_is_bit_identical() {
        let g = fixture(&[0, 1, 2, 3], &["a", "b", "c", "d"]);
        let cache = ScheduleCache::new(16);
        let (cold, hit) = schedule_cached(&cache, &g).unwrap();
        assert!(!hit);
        let (warm, hit) = schedule_cached(&cache, &g).unwrap();
        assert!(hit);
        assert_eq!(cold, warm);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn hit_across_relabeling_matches_cold_run() {
        let g1 = fixture(&[0, 1, 2, 3], &["a", "b", "c", "d"]);
        let g2 = fixture(&[3, 1, 0, 2], &["x", "q", "m", "z"]);
        let cache = ScheduleCache::new(16);
        let (_, hit) = schedule_cached(&cache, &g1).unwrap();
        assert!(!hit);
        // Same structure, different labels and insertion order: must hit,
        // and must equal what a cold run on g2 itself computes.
        let (warm, hit) = schedule_cached(&cache, &g2).unwrap();
        assert!(hit);
        assert_eq!(warm, schedule(&g2).unwrap());
    }

    #[test]
    fn distinct_structures_do_not_collide() {
        let g1 = fixture(&[0, 1, 2, 3], &["a", "b", "c", "d"]);
        let mut g2 = ConstraintGraph::new();
        let a = g2.add_operation("a", ExecDelay::Fixed(2));
        let b = g2.add_operation("b", ExecDelay::Fixed(5));
        g2.add_dependency(a, b).unwrap();
        g2.polarize().unwrap();
        let cache = ScheduleCache::new(16);
        let (_, hit) = schedule_cached(&cache, &g1).unwrap();
        assert!(!hit);
        let (s2, hit) = schedule_cached(&cache, &g2).unwrap();
        assert!(!hit);
        assert_eq!(s2, schedule(&g2).unwrap());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn capacity_bounds_entries_and_counts_evictions() {
        let cache = ScheduleCache::new(8); // 1 entry per shard
        for n in 1..40u64 {
            let mut g = ConstraintGraph::new();
            let mut prev = g.add_operation("op0", ExecDelay::Fixed(1));
            for i in 1..=n {
                let next = g.add_operation(format!("op{i}"), ExecDelay::Fixed(i % 5 + 1));
                g.add_dependency(prev, next).unwrap();
                prev = next;
            }
            g.polarize().unwrap();
            let (_, hit) = schedule_cached(&cache, &g).unwrap();
            assert!(!hit);
        }
        let stats = cache.stats();
        assert!(
            stats.entries <= 8,
            "entries {} exceed capacity",
            stats.entries
        );
        assert_eq!(stats.inserts, 39);
        assert_eq!(stats.evictions, stats.inserts - stats.entries);
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let g = fixture(&[0, 1, 2, 3], &["a", "b", "c", "d"]);
        let cache = ScheduleCache::new(0);
        assert!(!cache.enabled());
        let (s1, hit) = schedule_cached(&cache, &g).unwrap();
        assert!(!hit);
        let (_, hit) = schedule_cached(&cache, &g).unwrap();
        assert!(!hit);
        assert_eq!(s1, schedule(&g).unwrap());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn unfeasible_graphs_are_not_cached() {
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(5));
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        g.add_dependency(a, b).unwrap();
        g.add_max_constraint(a, b, 2).unwrap(); // needs >= 5, allows <= 2
        g.polarize().unwrap();
        let cache = ScheduleCache::new(16);
        assert!(schedule_cached(&cache, &g).is_err());
        assert!(schedule_cached(&cache, &g).is_err());
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.inserts, 0);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn caching_survives_tombstoned_edges() {
        // The serve edit path caches through graphs that have seen
        // remove_edge, whose tombstones leave live EdgeId indices above
        // the live-edge count; canonicalization once indexed a keep mask
        // sized by the live count and panicked. Reproduce the session
        // shape: constrain, over-constrain, remove edges, schedule again.
        let mut g = ConstraintGraph::new();
        let a = g.add_operation("a", ExecDelay::Fixed(2));
        let b = g.add_operation("b", ExecDelay::Fixed(1));
        g.add_dependency(a, b).unwrap();
        g.add_max_constraint(a, b, 5).unwrap();
        g.add_min_constraint(a, b, 9).unwrap(); // min 9 > max 5
        g.polarize().unwrap();
        let cache = ScheduleCache::new(16);
        assert!(schedule_cached(&cache, &g).is_err());
        // Remove the offending min edge (and the dep, for sparser ids).
        let doomed: Vec<_> = g
            .edges()
            .filter(|(_, e)| e.from() == a && e.to() == b)
            .map(|(id, _)| id)
            .take(2)
            .collect();
        for id in doomed {
            g.remove_edge(id).unwrap();
        }
        let (result, hit) = schedule_cached(&cache, &g).unwrap();
        assert!(!hit);
        assert_eq!(result, schedule(&g).unwrap());
        cache.put(&g, &result);
        assert!(matches!(cache.probe(&g), Probe::Hit(hit) if hit == result));
    }

    #[test]
    fn probe_and_put_round_trip_through_canonical_space() {
        let g1 = fixture(&[0, 1, 2, 3], &["a", "b", "c", "d"]);
        let g2 = fixture(&[2, 0, 3, 1], &["p", "q", "r", "s"]);
        let cache = ScheduleCache::new(16);
        let Probe::Miss(key) = cache.probe(&g1) else {
            panic!("empty cache must miss");
        };
        let cold = schedule(&g1).unwrap();
        cache.insert(&key, cold.remapped(&key.perm));
        assert!(matches!(cache.probe(&g1), Probe::Hit(hit) if hit == cold));
        let cold2 = schedule(&g2).unwrap();
        assert!(matches!(cache.probe(&g2), Probe::Hit(hit) if hit == cold2));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (2, 1, 1));
        assert!(matches!(ScheduleCache::new(0).probe(&g1), Probe::Off));
    }
}

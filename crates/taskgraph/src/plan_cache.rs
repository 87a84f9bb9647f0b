//! Interning and lazy compilation of [`KernelPlan`]s.
//!
//! The task-graph builder *interns* the full-range plan shapes its
//! tasks use once, into a per-clique table — (C, C), (C, S) and
//! (parent, S) for each clique `C` with parent separator `S` — and
//! every task, replica and incremental slice copies ids from that
//! table. Two shapes whose (scan-domain, target-domain, entry-range)
//! triples coincide share one entry: the collect marginalization out of
//! a clique and the distribute extension into it use the same
//! (clique, separator) index map, as do all replicas of a
//! [`replicate`](crate::TaskGraph::replicate)d graph.
//!
//! Interning only *registers and validates* a shape — `O(width)`.
//! The plan program itself (the run-length segment list, `O(size /
//! block)` time and memory) is compiled **on first dereference**
//! through [`PlanCache::get`] and cached in the entry thereafter.
//! Keeping graph construction free of per-entry work matters: the
//! simulator builds task graphs for clique tables it never
//! materializes (3¹⁵-entry presets), and a serving model only ever
//! executes the plans its query mix actually touches.
//!
//! The scheduler's Partition module additionally needs plans for
//! δ-sized *subranges*, which are unknown until run time (δ lives in
//! the scheduler's configuration, not the graph). Those are interned
//! on first use through [`PlanCache::for_task_range`] and memoized by
//! `(task, range)`, so a steady-state serving workload registers each
//! subrange plan exactly once and then hits the memo on every query.
//! The hit/miss/interned counters back the serve runtime's plan-cache
//! observability.

use crate::graph::TaskId;
use evprop_potential::plan::KernelPlan;
use evprop_potential::{Domain, EntryRange, PotentialError, Result};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Index of an interned plan in a [`PlanCache`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlanId(pub u32);

impl PlanId {
    /// The id as a `usize` for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PlanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Counter snapshot of a [`PlanCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Ranged lookups answered from the `(task, range)` memo.
    pub hits: u64,
    /// Ranged lookups that had to intern (or at least re-key) a plan.
    pub misses: u64,
    /// Distinct plans interned (structural dedup already applied).
    pub interned: u64,
}

impl PlanCacheStats {
    /// Adds another snapshot counter-wise (for aggregating the
    /// sum-product and max-product graphs of one model).
    pub fn merged(self, other: PlanCacheStats) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            interned: self.interned + other.interned,
        }
    }
}

/// One interned shape and its lazily compiled program. Entries are
/// immutable once registered; `compiled` fills in exactly once, under
/// [`OnceLock`], on the first thread that dereferences the plan.
struct PlanEntry {
    scan: Domain,
    target: Domain,
    range: EntryRange,
    compiled: OnceLock<Arc<KernelPlan>>,
}

#[derive(Default)]
struct Inner {
    plans: Vec<Arc<PlanEntry>>,
    /// Structural interning: (scan, target, range) → plan.
    by_shape: HashMap<(Domain, Domain, EntryRange), PlanId>,
    /// Runtime memo for δ-partitioned subranges.
    by_task_range: HashMap<(TaskId, EntryRange), PlanId>,
}

/// Interned [`KernelPlan`] store owned by a
/// [`TaskGraph`](crate::TaskGraph). Shared references are `Sync`: the
/// scheduler's workers intern lazily through an internal lock while
/// queries are in flight.
pub struct PlanCache {
    inner: RwLock<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache {
            inner: RwLock::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Interns the shape `(scan, target, range)`, validating it but
    /// **not** compiling the program — that happens on the first
    /// [`get`](Self::get). Structurally identical requests return the
    /// same [`PlanId`]. Not counted as a hit or miss — this is the
    /// builder's entry point, not the runtime lookup.
    ///
    /// # Errors
    ///
    /// The same shape errors [`KernelPlan::compile`] reports:
    /// [`PotentialError::NotSubdomain`] if `target` ⊄ `scan`,
    /// [`PotentialError::BadRange`] if `range` exceeds `scan`.
    pub fn intern(&self, scan: &Domain, target: &Domain, range: EntryRange) -> Result<PlanId> {
        let key = (scan.clone(), target.clone(), range);
        if let Some(&id) = self.inner.read().by_shape.get(&key) {
            return Ok(id);
        }
        // Validate up front so `get` can treat compilation as
        // infallible; keep the dispatcher's error precedence
        // (NotSubdomain before BadRange).
        for v in target.vars() {
            if !scan.contains(v.id()) {
                return Err(PotentialError::NotSubdomain { missing: v.id() });
            }
        }
        if range.start > range.end || range.end > scan.size() {
            return Err(PotentialError::BadRange {
                start: range.start,
                end: range.end,
                len: scan.size(),
            });
        }
        let (scan, target) = (scan.clone(), target.clone());
        let mut inner = self.inner.write();
        if let Some(&id) = inner.by_shape.get(&key) {
            return Ok(id); // raced with another interner
        }
        let id = PlanId(u32::try_from(inner.plans.len()).expect("plan count fits u32"));
        inner.plans.push(Arc::new(PlanEntry {
            scan,
            target,
            range,
            compiled: OnceLock::new(),
        }));
        inner.by_shape.insert(key, id);
        Ok(id)
    }

    /// The interned plan with the given id, compiled on first use and
    /// cached in the entry thereafter. Compilation happens outside the
    /// cache lock, so a worker building a large plan never blocks
    /// concurrent lookups.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this cache.
    pub fn get(&self, id: PlanId) -> Arc<KernelPlan> {
        let entry = Arc::clone(&self.inner.read().plans[id.index()]);
        Arc::clone(entry.compiled.get_or_init(|| {
            Arc::new(
                KernelPlan::compile(&entry.scan, &entry.target, entry.range)
                    .expect("interned shapes were validated"),
            )
        }))
    }

    /// The plan id for subrange `range` of task `task`, whose
    /// scan/target domains are `scan`/`target`. First use interns (or
    /// structurally re-keys) the shape and memoizes it under `(task,
    /// range)`; later uses are lock-read cache hits. Counts toward
    /// [`stats`](Self::stats). Dereference through [`get`](Self::get)
    /// to compile.
    ///
    /// # Errors
    ///
    /// Propagates [`intern`](Self::intern) shape errors.
    pub fn for_task_range(
        &self,
        task: TaskId,
        scan: &Domain,
        target: &Domain,
        range: EntryRange,
    ) -> Result<PlanId> {
        if let Some(&id) = self.inner.read().by_task_range.get(&(task, range)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(id);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let id = self.intern(scan, target, range)?;
        self.inner.write().by_task_range.insert((task, range), id);
        Ok(id)
    }

    /// Clears the `(task, range)` memo, keeping its capacity. Required
    /// whenever the owning graph's task ids are reassigned — a slice
    /// scaffold rebuilt by [`TaskGraph`](crate::TaskGraph)`::slice_into`
    /// reuses ids for different tasks, so a stale memo entry would
    /// resolve to a plan for the wrong domains. This is the only memo
    /// keyed by task id: interned shapes, compiled programs and the
    /// graph's resolved-plan table are keyed by shape or [`PlanId`] and
    /// survive.
    pub fn reset_memo(&self) {
        self.inner.write().by_task_range.clear();
    }

    /// Number of distinct interned plans.
    pub fn len(&self) -> usize {
        self.inner.read().plans.len()
    }

    /// Whether no plan has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of compiled plan programs resident in this cache. Only
    /// entries whose program has actually been compiled count —
    /// interned-but-never-dereferenced shapes hold no program memory.
    pub fn resident_bytes(&self) -> usize {
        self.inner
            .read()
            .plans
            .iter()
            .filter_map(|e| e.compiled.get())
            .map(|p| p.resident_bytes())
            .sum()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            interned: self.len() as u64,
        }
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for PlanCache {
    /// Clones the interned shapes and structural index; the immutable
    /// entries (and any already-compiled programs) are shared, so
    /// replicas never recompile each other's plans. The `(task, range)`
    /// memo and the hit/miss counters start fresh — they describe a
    /// particular execution history, not the graph.
    fn clone(&self) -> Self {
        let inner = self.inner.read();
        PlanCache {
            inner: RwLock::new(Inner {
                plans: inner.plans.clone(),
                by_shape: inner.by_shape.clone(),
                by_task_range: HashMap::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        f.debug_struct("PlanCache")
            .field("interned", &s.interned)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evprop_potential::{VarId, Variable};

    fn dom(ids: &[u32]) -> Domain {
        Domain::new(ids.iter().map(|&i| Variable::binary(VarId(i))).collect()).unwrap()
    }

    #[test]
    fn structural_interning_dedups() {
        let cache = PlanCache::new();
        let scan = dom(&[0, 1, 2]);
        let target = dom(&[1]);
        let a = cache.intern(&scan, &target, EntryRange::full(8)).unwrap();
        let b = cache.intern(&scan, &target, EntryRange::full(8)).unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.len(), 1);
        let c = cache
            .intern(&scan, &target, EntryRange { start: 0, end: 4 })
            .unwrap();
        assert_ne!(a, c);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn ranged_lookup_counts_hits_and_misses() {
        let cache = PlanCache::new();
        let scan = dom(&[0, 1]);
        let target = dom(&[0]);
        let r = EntryRange { start: 0, end: 2 };
        let id1 = cache.for_task_range(TaskId(3), &scan, &target, r).unwrap();
        let id2 = cache.for_task_range(TaskId(3), &scan, &target, r).unwrap();
        assert_eq!(id1, id2);
        // compilation is lazy and cached: both derefs share one program
        assert!(Arc::ptr_eq(&cache.get(id1), &cache.get(id2)));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.interned), (1, 1, 1));
        // a different task with the same shape structurally shares the
        // plan but is a fresh (task, range) miss
        let id3 = cache.for_task_range(TaskId(9), &scan, &target, r).unwrap();
        assert_eq!(id3, id1);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().interned, 1);
    }

    #[test]
    fn clone_keeps_plans_resets_history() {
        let cache = PlanCache::new();
        let scan = dom(&[0, 1]);
        let target = dom(&[1]);
        let id = cache.intern(&scan, &target, EntryRange::full(4)).unwrap();
        let _ = cache
            .for_task_range(TaskId(0), &scan, &target, EntryRange::full(4))
            .unwrap();
        let c = cache.clone();
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().hits + c.stats().misses, 0);
        assert_eq!(c.intern(&scan, &target, EntryRange::full(4)).unwrap(), id);
    }

    #[test]
    fn bad_shapes_propagate_errors() {
        let cache = PlanCache::new();
        assert!(cache
            .intern(&dom(&[0]), &dom(&[7]), EntryRange::full(2))
            .is_err());
        assert_eq!(cache.len(), 0);
    }
}

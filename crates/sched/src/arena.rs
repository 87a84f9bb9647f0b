//! The shared table arena the worker threads execute against.
//!
//! # Safety model
//!
//! Interior mutability without per-access locks is what makes the
//! collaborative scheduler fast, and it is sound for the same reason the
//! paper's Pthreads code is: the task dependency graph orders every pair
//! of conflicting accesses —
//!
//! * each buffer has a unique writer task at any moment
//!   ([`TaskGraph::validate`](evprop_taskgraph::TaskGraph) proves all
//!   writers of a buffer are totally ordered by dependency paths);
//! * readers of a buffer are ordered after its relevant writer and before
//!   the next one by the same graph;
//! * partitioned subtasks write **disjoint ranges** of the destination
//!   (or private partial tables, for marginalization);
//! * the scheduler's atomic dependency counters (`fetch_sub` with
//!   `AcqRel`) and ready-list mutexes carry the happens-before edges
//!   between the completing and the launching thread.
//!
//! ## Why references are not enough
//!
//! Range-disjointness makes concurrent *machine* writes fine, but Rust's
//! aliasing rules are stricter than the machine's: two threads holding
//! `&mut PotentialTable` to the same buffer is undefined behavior even
//! if they only ever touch disjoint entries — a `&mut` claims the whole
//! object. The arena therefore never hands workers references to a
//! buffer that could be partially owned. Instead, a job derives one
//! [`ArenaView`] up front ([`TableArena::job_view`]): the raw base
//! pointer of every buffer's entry storage, captured while the job
//! holder is provably the arena's only user. All worker access flows
//! through that view as **windows** —
//!
//! * [`ArenaView::write_range`] → [`RangeView`], a `*mut f64`-backed
//!   `&mut [f64]` over exactly one [`EntryRange`] (a full-buffer range
//!   for non-partitioned tasks, the subtask's own range otherwise);
//! * [`ArenaView::read_range`] → [`ReadView`], a shared window over a
//!   buffer no concurrent task writes.
//!
//! Disjoint `&mut [f64]` windows carved out of one allocation via raw
//! pointers are exactly `split_at_mut` semantics: no two live `&mut`
//! ever overlap, and no reference to the `PotentialTable` structs exists
//! while a job runs. Buffer *shape* (the [`Domain`](evprop_potential::Domain))
//! comes from the task graph's buffer specs, not from the tables, so the
//! raw primitives in [`evprop_potential::raw`] need no table references
//! either.
//!
//! ## The overlap checker (race-detector-lite)
//!
//! With `debug_assertions` on, every live window is registered in the
//! view: creating a window whose range intersects another live window on
//! the same buffer — where at least one of the two is a write — panics
//! with both ranges and owning threads. Release builds compile the
//! checker out entirely; unit tests, the schedule-stress suite, Miri and
//! TSan all run with it enabled, so a scheduler bug that ever *requests*
//! overlapping ownership is caught deterministically even when the
//! racy interleaving itself is never observed.
//!
//! ## Why `unsafe impl Sync` remains sound
//!
//! `TableArena` is `Sync` so `&TableArena` can cross threads, but the
//! only cross-thread access paths are `ArenaView` windows whose
//! preconditions (DAG ordering + disjoint ranges + serialized jobs)
//! reproduce the exclusive-access discipline the borrow checker cannot
//! see. `matches` reads only buffer domains, which no job ever writes.
//! Everything else (`reset`, `tables_mut`, `into_tables`) takes `&mut
//! self` or ownership and is therefore exclusive by construction.
//!
//! ## Reuse across jobs
//!
//! The serving path keeps one arena alive across many scheduler runs
//! ([`TableArena::reset`] instead of a fresh
//! [`TableArena::initialize`]). This is sound under one extra
//! invariant: **jobs on an arena are serialized**. `reset` takes
//! `&mut self`, so the borrow checker proves no worker can hold a
//! window while buffers are being rewritten; a scheduler run derives its
//! `ArenaView` once, borrows the arena shared for its whole duration and
//! joins or parks every worker before returning, so the next `reset` —
//! and the next job's `job_view` — starts only after every access of the
//! previous job happened-before it (the pool's job-completion handshake
//! carries the edge, exactly as the dependency counters do within a
//! job). Buffer *layout* (count and domains, checked by
//! [`TableArena::matches`]) is what ties an arena to a task graph;
//! contents are irrelevant to soundness: every window is bounded by the
//! arena's own table lengths.
//!
//! They matter to the answer, and `reset` rewrites exactly the buffers
//! a job reads before it writes them: the clique potentials (copy plus
//! hard and soft evidence). It leaves the [`BufferInit::Scratch`]
//! buffers (`sep_up` and the distribute `sep_down`, `ratio_down`,
//! `ext_down`) as the last job left them, because every graph the
//! builders emit — two-phase, collect-only, max-product and
//! `replicate`d — writes each scratch buffer over its full length
//! before any task reads it: a marginalization zero-fills its
//! destination before accumulating, divide and extend overwrite
//! theirs, and δ-partitioned parts tile the whole range. A job that was
//! cancelled or panicked halfway leaves scratch half-written, which the
//! next full job overwrites the same way. Incremental slices are the
//! one reader of scratch an earlier job wrote (the cached `sep_up`
//! messages of clean subtrees, a stale edge's stored `sep_down`); they
//! run only after [`TableArena::reset_cliques`] or a full job, never
//! after a bare `reset`. The stale-edge `stash`es
//! ([`BufferInit::SliceScratch`]) are written before they are read by
//! the one slice chain that uses them, so `reset` leaves them too.
//!
//! ## Layout identity
//!
//! Walking every buffer's `Domain` to re-establish that tie costs more
//! than a small query's kernels (1017 comparisons on a 128-clique tree,
//! twice per query), so a graph's buffer table carries an identity —
//! [`TaskGraph::layout_id`], a process-wide counter value taken when
//! the table is built and kept by everything that copies the table
//! unchanged (a clone, a slice scaffold). The arena remembers the
//! identity it was last initialized or reset for, and `matches` is one
//! integer comparison when it is asked about that graph again. Equal
//! ids only ever *shortcut a walk that would have returned `true`*; a
//! different id proves nothing, so `matches` then does the walk, and
//! the `&mut self` entry points adopt the id of whatever graph passed.
//! Soundness never rests on the id: windows are bounded by the arena's
//! own table lengths and every kernel checks its operands' lengths.
//!
//! All `unsafe` access is confined to this module.

use evprop_jtree::CliqueId;
use evprop_potential::{EntryRange, EvidenceSet, PotentialTable};
use evprop_taskgraph::{BufferId, BufferInit, TaskGraph};
use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;

/// The buffers (clique potentials, separators, scratch) shared by all
/// worker threads during one propagation run. See the module docs for
/// the safety model.
pub struct TableArena {
    cells: Vec<UnsafeCell<PotentialTable>>,
    /// [`TaskGraph::layout_id`] of the graph this arena was last
    /// initialized or reset for — what [`TableArena::matches`] compares
    /// before it walks the domains.
    layout_id: u64,
}

// SAFETY: see the module-level safety model; cross-thread access only
// happens through `ArenaView` windows, which are externally synchronized
// by the task DAG, and through `matches`' domain reads, which no job
// writes.
unsafe impl Sync for TableArena {}

impl TableArena {
    /// Allocates and initializes every buffer of `graph`:
    /// clique buffers copy `clique_potentials` (then absorb `evidence`),
    /// scratch starts at zeros (only so a fresh arena's contents are
    /// defined: built graphs write scratch before reading it).
    /// Hard evidence is absorbed into every containing clique
    /// (idempotent); each soft likelihood is multiplied into exactly
    /// **one** clique — applying it twice would double-count the
    /// observation.
    ///
    /// # Panics
    ///
    /// Panics if `clique_potentials` does not cover every clique
    /// referenced by the graph, evidence states are out of range, or an
    /// evidence variable (hard or soft) appears in no clique — caller
    /// bugs that would otherwise silently yield prior posteriors.
    pub fn initialize(
        graph: &TaskGraph,
        clique_potentials: &[PotentialTable],
        evidence: &EvidenceSet,
    ) -> Self {
        let mut cells: Vec<UnsafeCell<PotentialTable>> = graph
            .buffers()
            .iter()
            .map(|spec| {
                let table = match spec.init {
                    BufferInit::CliquePotential(c) => {
                        let mut t = clique_potentials[c.index()].clone();
                        evidence
                            .absorb_into(&mut t)
                            .expect("evidence states are validated upstream");
                        t
                    }
                    BufferInit::Scratch | BufferInit::SliceScratch => {
                        PotentialTable::zeros(spec.domain.clone())
                    }
                };
                UnsafeCell::new(table)
            })
            .collect();
        apply_soft_and_check(graph, evidence, &mut cells);
        TableArena {
            cells,
            layout_id: graph.layout_id(),
        }
    }

    /// `true` when this arena's buffer layout (count and domains) was
    /// built for `graph` — the precondition of [`TableArena::reset`].
    ///
    /// Answered from the graph's [`layout_id`](TaskGraph::layout_id)
    /// when it is the one this arena was last set up for (the
    /// steady-state serving case: one comparison instead of one
    /// `Domain` comparison per buffer); any other graph is compared
    /// structurally, so an equal layout built elsewhere still matches.
    pub fn matches(&self, graph: &TaskGraph) -> bool {
        self.layout_id == graph.layout_id() || self.matches_structurally(graph)
    }

    fn matches_structurally(&self, graph: &TaskGraph) -> bool {
        self.cells.len() == graph.buffers().len()
            && graph.buffers().iter().zip(&self.cells).all(|(spec, cell)| {
                // SAFETY: &self + immutable read of the domain; callers
                // never invoke `matches` while a job is running (jobs
                // borrow the arena for their whole duration).
                let t = unsafe { &*cell.get() };
                *t.domain() == spec.domain
            })
    }

    /// The `matches` assertion of the `&mut self` entry points, which
    /// also adopt `graph`'s identity so the next check is the fast one.
    fn assert_matches_and_adopt(&mut self, graph: &TaskGraph) {
        assert!(
            self.matches(graph),
            "arena layout does not match this task graph"
        );
        self.layout_id = graph.layout_id();
    }

    /// Re-initializes **what a job reads before writing** in place for
    /// a fresh query, with zero allocations: clique buffers copy
    /// `clique_potentials` again and absorb `evidence`.
    /// [`BufferInit::Scratch`] buffers keep whatever the
    /// last job left — every graph the [`TaskGraph`] builders emit
    /// overwrites each of them before any task reads it, so a full job
    /// after `reset` computes bit-for-bit what it computes after
    /// [`TableArena::initialize`]. This is the steady-state serving
    /// path: compile and allocate once, reset per query.
    ///
    /// An incremental slice reads scratch a previous job left behind
    /// and runs after [`TableArena::reset_cliques`] or a full job,
    /// never after a bare `reset`.
    ///
    /// # Panics
    ///
    /// Panics if the arena was not built for this graph (see
    /// [`TableArena::matches`]) or on the evidence conditions of
    /// [`TableArena::initialize`].
    pub fn reset(
        &mut self,
        graph: &TaskGraph,
        clique_potentials: &[PotentialTable],
        evidence: &EvidenceSet,
    ) {
        self.assert_matches_and_adopt(graph);
        for (cell, spec) in self.cells.iter_mut().zip(graph.buffers()) {
            let t = cell.get_mut();
            match spec.init {
                BufferInit::CliquePotential(c) => {
                    t.copy_from(&clique_potentials[c.index()])
                        .expect("matches() verified the domains");
                    evidence
                        .absorb_into(t)
                        .expect("evidence states are validated upstream");
                }
                // Write-before-read in every built graph and slice:
                // see "Reuse across jobs" in the module docs.
                BufferInit::Scratch | BufferInit::SliceScratch => {}
            }
        }
        apply_soft_and_check(graph, evidence, &mut self.cells);
    }

    /// Re-initializes **only the clique buffers of `cliques`** in place:
    /// each one copies its potential back from `clique_potentials`,
    /// absorbs the hard items of `evidence`, and re-applies any soft
    /// likelihood routed to it. Scratch buffers and every other clique
    /// are left untouched — this is the incremental engine's partial
    /// reset, run before a dirty-slice job so re-collected cliques
    /// start from their raw potentials while clean subtrees keep their
    /// cached messages.
    ///
    /// # Panics
    ///
    /// Panics if the arena was not built for this graph (see
    /// [`TableArena::matches`]) or on the evidence conditions of
    /// [`TableArena::initialize`].
    pub fn reset_cliques(
        &mut self,
        graph: &TaskGraph,
        clique_potentials: &[PotentialTable],
        evidence: &EvidenceSet,
        cliques: &[CliqueId],
    ) {
        self.assert_matches_and_adopt(graph);
        for &c in cliques {
            let buf = graph.clique_buffer(c);
            let t = self.cells[buf.index()].get_mut();
            t.copy_from(&clique_potentials[c.index()])
                .expect("matches() verified the domains");
            evidence
                .absorb_into(t)
                .expect("evidence states are validated upstream");
        }
        for lk in evidence.soft() {
            let target = graph
                .clique_buffer_containing(lk.var)
                .expect("soft-evidence variable appears in some clique");
            if cliques.iter().any(|&c| graph.clique_buffer(c) == target) {
                lk.apply_to(self.cells[target.index()].get_mut())
                    .expect("likelihood length matches the variable");
            }
        }
    }

    /// Number of buffers.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when the arena holds no buffers.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Derives the per-job [`ArenaView`]: the raw base pointer and length
    /// of every buffer's entry storage. This is the **only** gateway to
    /// the arena during a scheduler job — workers never see the
    /// `PotentialTable` structs themselves.
    ///
    /// # Safety
    ///
    /// The caller must be the arena's sole user for the lifetime of the
    /// returned view (the *serialized jobs* invariant): no concurrent
    /// `job_view`, `matches`, `tables_mut` or `reset`, and no access to
    /// the buffers except through this view's windows. The pool's
    /// submission lock plus its job-completion handshake provide exactly
    /// this.
    pub unsafe fn job_view(&self) -> ArenaView<'_> {
        let bufs = self
            .cells
            .iter()
            .map(|cell| {
                // A transient exclusive borrow, sound because the caller
                // is the arena's only user right now; it dies before the
                // next iteration, leaving only the raw base pointer.
                let t = &mut *cell.get();
                RawBuf {
                    ptr: t.data_mut().as_mut_ptr(),
                    len: t.len(),
                }
            })
            .collect();
        ArenaView {
            bufs,
            _arena: PhantomData,
            #[cfg(debug_assertions)]
            registry: Registry::default(),
        }
    }

    /// Consumes the arena, returning the final buffer contents (used by
    /// engines to read calibrated clique potentials after a run).
    pub fn into_tables(self) -> Vec<PotentialTable> {
        self.cells.into_iter().map(UnsafeCell::into_inner).collect()
    }

    /// Single-threaded mutable view for sequential engines and tests.
    ///
    /// Replacing a table wholesale through this slice (rather than
    /// mutating entries in place) is allowed as long as the replacement
    /// has the same domain — any later job re-derives its base pointers
    /// via [`TableArena::job_view`], so the swap is observed. (A table of
    /// another domain would break the layout [`TableArena::matches`]
    /// vouches for; the kernels' own length checks then panic.)
    pub fn tables_mut(&mut self) -> &mut [PotentialTable] {
        // SAFETY: &mut self guarantees exclusivity; UnsafeCell<T> has the
        // same layout as T.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.cells.as_mut_ptr() as *mut PotentialTable,
                self.cells.len(),
            )
        }
    }
}

/// Raw base pointer + length of one buffer's entry storage.
#[derive(Clone, Copy)]
struct RawBuf {
    ptr: *mut f64,
    len: usize,
}

/// One job's gateway to the arena: per-buffer raw base pointers captured
/// under exclusivity by [`TableArena::job_view`]. Workers share an
/// `&ArenaView` and carve disjoint windows out of it; see the module
/// docs for why this — and not references to the tables — is the sound
/// shape for range-partitioned subtasks.
pub struct ArenaView<'a> {
    bufs: Vec<RawBuf>,
    _arena: PhantomData<&'a TableArena>,
    #[cfg(debug_assertions)]
    registry: Registry,
}

// SAFETY: the view is a table of raw pointers; all dereferences go
// through the unsafe window constructors whose contracts (task-DAG
// ordering + range disjointness) make cross-thread use sound.
unsafe impl Sync for ArenaView<'_> {}
// SAFETY: same argument — moving the pointer table to another thread
// grants nothing the Sync impl doesn't already.
unsafe impl Send for ArenaView<'_> {}

impl ArenaView<'_> {
    /// Number of buffers in the underlying arena.
    pub fn num_buffers(&self) -> usize {
        self.bufs.len()
    }

    /// Entry count of buffer `b`.
    pub fn buffer_len(&self, b: BufferId) -> usize {
        self.bufs[b.index()].len
    }

    /// An exclusive window over `range` of buffer `b` — the accessor a
    /// partitioned subtask gets for exactly its own [`EntryRange`], and
    /// a non-partitioned task for the full buffer
    /// ([`ArenaView::write_full`]).
    ///
    /// # Safety
    ///
    /// For the lifetime of the returned view, no other thread may read
    /// or write any entry of `b` inside `range` — guaranteed in the
    /// scheduler by the task DAG (sole writer per buffer) plus the
    /// Partition module's disjoint ranges. The debug-assertions overlap
    /// checker verifies this dynamically.
    ///
    /// # Panics
    ///
    /// Panics if `range` exceeds the buffer, or (debug builds) if the
    /// window overlaps another live window in violation of the safety
    /// contract.
    pub unsafe fn write_range(&self, b: BufferId, range: EntryRange) -> RangeView<'_> {
        let buf = self.bufs[b.index()];
        assert!(
            range.start <= range.end && range.end <= buf.len,
            "range {}..{} out of bounds for buffer {} of {} entries",
            range.start,
            range.end,
            b.index(),
            buf.len
        );
        RangeView {
            ptr: buf.ptr.add(range.start),
            len: range.len(),
            _view: PhantomData,
            #[cfg(debug_assertions)]
            reg: self.registry.register(b.index(), range, true),
            #[cfg(debug_assertions)]
            registry: &self.registry,
        }
    }

    /// An exclusive window over all of buffer `b`.
    ///
    /// # Safety
    ///
    /// As [`ArenaView::write_range`] with the full range.
    pub unsafe fn write_full(&self, b: BufferId) -> RangeView<'_> {
        self.write_range(b, EntryRange::full(self.bufs[b.index()].len))
    }

    /// A shared window over `range` of buffer `b`.
    ///
    /// # Safety
    ///
    /// For the lifetime of the returned view, no thread may write any
    /// entry of `b` inside `range` — in the scheduler, sources of a
    /// running task are ordered against all their writers by the task
    /// DAG. Concurrent shared windows may overlap freely.
    ///
    /// # Panics
    ///
    /// As [`ArenaView::write_range`].
    pub unsafe fn read_range(&self, b: BufferId, range: EntryRange) -> ReadView<'_> {
        let buf = self.bufs[b.index()];
        assert!(
            range.start <= range.end && range.end <= buf.len,
            "range {}..{} out of bounds for buffer {} of {} entries",
            range.start,
            range.end,
            b.index(),
            buf.len
        );
        ReadView {
            ptr: buf.ptr.add(range.start) as *const f64,
            len: range.len(),
            _view: PhantomData,
            #[cfg(debug_assertions)]
            reg: self.registry.register(b.index(), range, false),
            #[cfg(debug_assertions)]
            registry: &self.registry,
        }
    }

    /// A shared window over all of buffer `b`.
    ///
    /// # Safety
    ///
    /// As [`ArenaView::read_range`] with the full range.
    pub unsafe fn read_full(&self, b: BufferId) -> ReadView<'_> {
        self.read_range(b, EntryRange::full(self.bufs[b.index()].len))
    }
}

impl fmt::Debug for ArenaView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ArenaView({} buffers)", self.bufs.len())
    }
}

/// An exclusive `*mut f64`-backed window over one [`EntryRange`] of one
/// arena buffer — all a partitioned subtask ever owns of its
/// destination. Created by [`ArenaView::write_range`]; unregisters from
/// the debug overlap checker on drop.
pub struct RangeView<'v> {
    ptr: *mut f64,
    len: usize,
    _view: PhantomData<&'v ArenaView<'v>>,
    #[cfg(debug_assertions)]
    reg: u64,
    #[cfg(debug_assertions)]
    registry: &'v Registry,
}

impl RangeView<'_> {
    /// The window as a mutable slice. Disjointness of live windows
    /// (the constructor's safety contract) makes this exactly
    /// `split_at_mut` semantics.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        // SAFETY: ptr/len denote a live, in-bounds window; the
        // constructor's contract guarantees no concurrent access to it,
        // and &mut self prevents a second slice from this view.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }

    /// Number of entries in the window.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the window covers nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl fmt::Debug for RangeView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RangeView({} entries)", self.len)
    }
}

#[cfg(debug_assertions)]
impl Drop for RangeView<'_> {
    fn drop(&mut self) {
        self.registry.unregister(self.reg);
    }
}

/// A shared window over one [`EntryRange`] of one arena buffer. Created
/// by [`ArenaView::read_range`]; unregisters from the debug overlap
/// checker on drop.
pub struct ReadView<'v> {
    ptr: *const f64,
    len: usize,
    _view: PhantomData<&'v ArenaView<'v>>,
    #[cfg(debug_assertions)]
    reg: u64,
    #[cfg(debug_assertions)]
    registry: &'v Registry,
}

impl std::ops::Deref for ReadView<'_> {
    type Target = [f64];

    #[inline]
    fn deref(&self) -> &[f64] {
        // SAFETY: ptr/len denote a live, in-bounds window; the
        // constructor's contract guarantees no concurrent writer.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl fmt::Debug for ReadView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ReadView({} entries)", self.len)
    }
}

#[cfg(debug_assertions)]
impl Drop for ReadView<'_> {
    fn drop(&mut self) {
        self.registry.unregister(self.reg);
    }
}

/// The debug-assertions-only overlap checker: a registry of every live
/// window. Any new window intersecting a live one on the same buffer —
/// with at least one of the two being a write — is a violation of the
/// arena's safety contract and panics immediately, regardless of whether
/// the racy interleaving would have been observed.
#[cfg(debug_assertions)]
#[derive(Default)]
struct Registry {
    live: parking_lot::Mutex<Vec<LiveAccess>>,
    next: std::sync::atomic::AtomicU64,
}

#[cfg(debug_assertions)]
struct LiveAccess {
    id: u64,
    buf: usize,
    range: EntryRange,
    write: bool,
    owner: std::thread::ThreadId,
}

#[cfg(debug_assertions)]
impl Registry {
    fn register(&self, buf: usize, range: EntryRange, write: bool) -> u64 {
        let id = self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let owner = std::thread::current().id();
        let mut live = self.live.lock();
        for a in live.iter() {
            let intersects = a.buf == buf && a.range.start < range.end && range.start < a.range.end;
            if intersects && (write || a.write) {
                panic!(
                    "arena access overlap on buffer {buf}: {} {}..{} (thread {:?}) vs live {} \
                     {}..{} (thread {:?})",
                    if write { "write" } else { "read" },
                    range.start,
                    range.end,
                    owner,
                    if a.write { "write" } else { "read" },
                    a.range.start,
                    a.range.end,
                    a.owner,
                );
            }
        }
        live.push(LiveAccess {
            id,
            buf,
            range,
            write,
            owner,
        });
        id
    }

    fn unregister(&self, id: u64) {
        self.live.lock().retain(|a| a.id != id);
    }
}

/// Shared tail of [`TableArena::initialize`] and [`TableArena::reset`]:
/// reject evidence no clique covers (a hard observation on a variable
/// outside every clique would be silently dropped by per-table
/// absorption) and multiply each soft likelihood into exactly one
/// clique.
fn apply_soft_and_check(
    graph: &TaskGraph,
    evidence: &EvidenceSet,
    cells: &mut [UnsafeCell<PotentialTable>],
) {
    for e in evidence.iter() {
        assert!(
            graph.clique_buffer_containing(e.var).is_some(),
            "evidence variable {} appears in no clique of this junction tree",
            e.var
        );
    }
    for lk in evidence.soft() {
        let target = graph
            .clique_buffer_containing(lk.var)
            .expect("soft-evidence variable appears in some clique");
        lk.apply_to(cells[target.index()].get_mut())
            .expect("likelihood length matches the variable");
    }
}

impl fmt::Debug for TableArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TableArena({} buffers)", self.cells.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evprop_jtree::TreeShape;
    use evprop_potential::{Domain, VarId, Variable};

    fn two_clique_graph() -> (TaskGraph, Vec<PotentialTable>) {
        let d0 = Domain::new(vec![Variable::binary(VarId(0)), Variable::binary(VarId(1))]).unwrap();
        let d1 = Domain::new(vec![Variable::binary(VarId(1)), Variable::binary(VarId(2))]).unwrap();
        let shape = TreeShape::new(vec![d0.clone(), d1.clone()], &[(0, 1)], 0).unwrap();
        let pots = vec![
            PotentialTable::from_data(d0, vec![0.1, 0.2, 0.3, 0.4]).unwrap(),
            PotentialTable::ones(d1),
        ];
        (TaskGraph::from_shape(&shape), pots)
    }

    #[test]
    fn initialization_follows_specs() {
        let (g, pots) = two_clique_graph();
        let mut ev = EvidenceSet::new();
        ev.observe(VarId(0), 1);
        let mut arena = TableArena::initialize(&g, &pots, &ev);
        assert_eq!(arena.len(), g.buffers().len());
        assert!(!arena.is_empty());
        let tables = arena.tables_mut();
        // clique 0 with evidence V0=1 absorbed
        assert_eq!(tables[0].data(), &[0.0, 0.0, 0.3, 0.4]);
        // clique 1 untouched by that evidence
        assert_eq!(tables[1].data(), &[1.0, 1.0, 1.0, 1.0]);
        // scratch starts at zeros
        for (t, spec) in tables.iter().zip(g.buffers()) {
            if spec.init == BufferInit::Scratch {
                assert!(t.data().iter().all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    fn into_tables_roundtrip() {
        let (g, pots) = two_clique_graph();
        let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
        let tables = arena.into_tables();
        assert_eq!(tables.len(), g.buffers().len());
        assert_eq!(tables[0].data(), pots[0].data());
    }

    /// `reset` restores every buffer a job reads before writing — the
    /// clique buffers — to what `initialize` gives, and
    /// leaves scratch exactly as the last job left it.
    #[test]
    fn reset_equals_fresh_initialize() {
        let (g, pots) = two_clique_graph();
        let mut ev = EvidenceSet::new();
        ev.observe(VarId(0), 1);
        ev.observe_likelihood(VarId(2), vec![0.2, 0.9]);

        // dirty every buffer with a different query first
        let mut dirty_ev = EvidenceSet::new();
        dirty_ev.observe(VarId(2), 0);
        let mut arena = TableArena::initialize(&g, &pots, &dirty_ev);
        for t in arena.tables_mut() {
            t.fill(7.5);
        }
        assert!(arena.matches(&g));
        arena.reset(&g, &pots, &ev);

        let fresh = TableArena::initialize(&g, &pots, &ev);
        let (a, b) = (arena.into_tables(), fresh.into_tables());
        assert_eq!(a.len(), b.len());
        for (i, ((x, y), spec)) in a.iter().zip(&b).zip(g.buffers()).enumerate() {
            if matches!(spec.init, BufferInit::Scratch | BufferInit::SliceScratch) {
                assert!(x.data().iter().all(|&v| v == 7.5), "scratch {i} rewritten");
            } else {
                assert_eq!(x.data(), y.data(), "buffer {i} differs after reset");
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn reset_rejects_foreign_graph() {
        let (g, pots) = two_clique_graph();
        let mut arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
        // a graph with different buffer domains
        let d0 = Domain::new(vec![Variable::binary(VarId(5)), Variable::binary(VarId(6))]).unwrap();
        let d1 = Domain::new(vec![Variable::binary(VarId(6)), Variable::binary(VarId(7))]).unwrap();
        let shape = TreeShape::new(vec![d0, d1], &[(0, 1)], 0).unwrap();
        let other = TaskGraph::from_shape(&shape);
        assert!(!arena.matches(&other));
        arena.reset(&other, &pots, &EvidenceSet::new());
    }

    /// `matches` by identity (a clone, a slice scaffold), by structure
    /// (an equal layout built separately, whose id `reset` then
    /// adopts), and not at all (a different layout, a replicated table).
    #[test]
    fn matches_by_identity_then_by_structure() {
        let (g, pots) = two_clique_graph();
        let mut arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
        assert_eq!(arena.layout_id, g.layout_id());
        for same_table in [g.clone(), g.slice_scaffold()] {
            assert_eq!(same_table.layout_id(), g.layout_id());
            assert!(arena.matches(&same_table));
        }

        let (twin, _) = two_clique_graph();
        assert_ne!(twin.layout_id(), g.layout_id());
        assert!(arena.matches(&twin), "equal layout, foreign graph");
        arena.reset(&twin, &pots, &EvidenceSet::new());
        assert_eq!(arena.layout_id, twin.layout_id());
        assert!(arena.matches(&g), "and back, by structure");

        let batch = g.replicate(2);
        assert_ne!(batch.layout_id(), g.layout_id());
        assert!(!arena.matches(&batch));
    }

    #[test]
    fn arena_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<TableArena>();
        assert_sync::<ArenaView<'static>>();
    }

    #[test]
    fn windows_read_and_write_buffers() {
        let (g, pots) = two_clique_graph();
        let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
        // SAFETY: this test is the arena's only user.
        let view = unsafe { arena.job_view() };
        assert_eq!(view.num_buffers(), g.buffers().len());
        assert_eq!(view.buffer_len(BufferId(0)), 4);
        {
            // SAFETY: disjoint windows of buffer 0, nothing else live.
            let mut lo = unsafe { view.write_range(BufferId(0), EntryRange { start: 0, end: 2 }) };
            let mut hi = unsafe { view.write_range(BufferId(0), EntryRange { start: 2, end: 4 }) };
            lo.as_mut_slice().fill(7.0);
            hi.as_mut_slice().copy_from_slice(&[8.0, 9.0]);
            assert_eq!(lo.len(), 2);
            assert!(!hi.is_empty());
        }
        {
            // SAFETY: the writers above are dropped.
            let all = unsafe { view.read_full(BufferId(0)) };
            assert_eq!(&*all, &[7.0, 7.0, 8.0, 9.0]);
        }
        drop(view);
        assert_eq!(arena.into_tables()[0].data(), &[7.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn overlapping_reads_are_allowed() {
        let (g, pots) = two_clique_graph();
        let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
        // SAFETY: sole user; shared windows may overlap.
        let view = unsafe { arena.job_view() };
        let a = unsafe { view.read_full(BufferId(0)) };
        let b = unsafe { view.read_range(BufferId(0), EntryRange { start: 1, end: 3 }) };
        assert_eq!(a[1], b[0]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "arena access overlap")]
    fn overlap_checker_catches_intersecting_writes() {
        let (g, pots) = two_clique_graph();
        let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
        // SAFETY: deliberately violating the disjointness contract to
        // exercise the checker; the second window must panic before any
        // aliasing slice is materialized.
        let view = unsafe { arena.job_view() };
        let _first = unsafe { view.write_range(BufferId(0), EntryRange { start: 0, end: 3 }) };
        let _second = unsafe { view.write_range(BufferId(0), EntryRange { start: 2, end: 4 }) };
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "arena access overlap")]
    fn overlap_checker_catches_read_under_write() {
        let (g, pots) = two_clique_graph();
        let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
        // SAFETY: deliberate contract violation, as above.
        let view = unsafe { arena.job_view() };
        let _w = unsafe { view.write_full(BufferId(0)) };
        let _r = unsafe { view.read_range(BufferId(0), EntryRange { start: 1, end: 2 }) };
    }

    #[test]
    fn disjoint_windows_on_distinct_buffers_coexist() {
        let (g, pots) = two_clique_graph();
        let arena = TableArena::initialize(&g, &pots, &EvidenceSet::new());
        // SAFETY: sole user; windows target different buffers.
        let view = unsafe { arena.job_view() };
        let mut w0 = unsafe { view.write_full(BufferId(0)) };
        let r1 = unsafe { view.read_full(BufferId(1)) };
        w0.as_mut_slice()[0] = r1[0];
    }
}

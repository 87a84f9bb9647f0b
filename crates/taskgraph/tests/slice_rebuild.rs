//! The slice builder rebuilt through one scaffold: it builds what a
//! fresh scaffold builds, every task's plan id names the plan its own
//! domains compile to, and a warm rebuild performs no heap allocation.

use evprop_jtree::{CliqueId, TreeShape};
use evprop_potential::plan::KernelPlan;
use evprop_potential::EntryRange;
use evprop_taskgraph::{EdgeUpdate, SlicePlan, TaskGraph, TaskId};
use evprop_workloads::{random_tree, TreeParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations of each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` performs on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A random slice: an upward-closed re-collect set (random cliques and
/// their ancestors) and the path to a random target, each clean edge
/// Fresh, Stale or Skip at random.
fn random_plan(shape: &TreeShape, rng: &mut StdRng) -> SlicePlan {
    let n = shape.num_cliques();
    let mut plan = SlicePlan::default_for(n);
    for c in (0..n).map(CliqueId) {
        if rng.gen_bool(0.15) {
            for a in shape.path_from_root(c) {
                plan.recollect[a.index()] = true;
            }
        }
    }
    let target = CliqueId(rng.gen_range(0..n));
    for &c in shape.path_from_root(target).iter().skip(1) {
        let update = if plan.recollect[c.index()] {
            EdgeUpdate::Fresh
        } else {
            [EdgeUpdate::Fresh, EdgeUpdate::Stale, EdgeUpdate::Skip][rng.gen_range(0..3usize)]
        };
        plan.path.push((c, update));
    }
    plan
}

#[test]
fn rebuilding_a_warm_scaffold_allocates_nothing() {
    let shape = random_tree(&TreeParams::new(40, 4, 2, 3).with_seed(7));
    let full = TaskGraph::from_shape(&shape);
    let mut rng = StdRng::seed_from_u64(7);
    let plans: Vec<SlicePlan> = (0..32).map(|_| random_plan(&shape, &mut rng)).collect();
    let mut scratch = full.slice_scaffold();
    let interned = full.plans().stats().interned;
    for plan in &plans {
        full.slice_into(&mut scratch, &shape, plan);
    }
    let (len, scratch_interned) = (scratch.plans().len(), scratch.plans().stats().interned);
    for plan in &plans {
        let allocations = allocations_in(|| full.slice_into(&mut scratch, &shape, plan));
        // Debug builds re-validate every slice they build; that check's
        // own allocations are the only ones allowed.
        let allowed = if cfg!(debug_assertions) {
            allocations_in(|| scratch.validate().unwrap())
        } else {
            0
        };
        assert_eq!(allocations, allowed, "rebuild of {plan:?}");
    }
    assert_eq!(scratch.plans().len(), len);
    assert_eq!(scratch.plans().stats().interned, scratch_interned);
    assert_eq!(full.plans().stats().interned, interned);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One scaffold rebuilt for slice after slice builds each the way
    /// a fresh scaffold does, and every task's plan is the full-range
    /// plan of its own scan and target domains.
    #[test]
    fn rebuilt_slices_match_fresh_ones_and_their_domains(
        seed in 0u64..5000,
        n in 1usize..30,
        w in 2usize..6,
        k in 1usize..5,
    ) {
        let shape = random_tree(&TreeParams::new(n, w, 2, k).with_seed(seed));
        let full = TaskGraph::from_shape(&shape);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = full.slice_scaffold();
        for _ in 0..4 {
            let plan = random_plan(&shape, &mut rng);
            full.slice_into(&mut scratch, &shape, &plan);
            let fresh = full.incremental_slice(&shape, &plan);
            prop_assert_eq!(scratch.num_tasks(), fresh.num_tasks());
            for t in (0..fresh.num_tasks()).map(TaskId) {
                let (a, b) = (scratch.task(t), fresh.task(t));
                prop_assert_eq!(
                    (a.kind, a.weight, a.phase, a.clique, a.plan),
                    (b.kind, b.weight, b.phase, b.clique, b.plan)
                );
                let sorted = |g: &TaskGraph| {
                    let mut s = g.successors(t).to_vec();
                    s.sort();
                    s
                };
                prop_assert_eq!(sorted(&scratch), sorted(&fresh));
                prop_assert_eq!(scratch.dependency_degree(t), fresh.dependency_degree(t));
                if let Some((scan, target)) = scratch.scan_target_domains(t) {
                    let want = KernelPlan::compile(scan, target, EntryRange::full(scan.size()))
                        .expect("slice domains nest");
                    prop_assert_eq!(scratch.task_plan_ref(t), Some(&want));
                    prop_assert_eq!(fresh.task_plan(t).as_deref(), Some(&want));
                }
            }
        }
    }
}

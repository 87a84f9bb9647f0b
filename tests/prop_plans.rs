//! Property tests for compiled kernel plans: the plan interpreter and
//! the streamed `*_raw` entry points must be **bit-for-bit** identical
//! to the stride-walking kernels, for random domains and for every
//! (scan, target) domain pair a random junction tree produces, under
//! every partition grain δ — and the scheduler built on top of the
//! plans must stay bitwise thread-count-invariant.
//!
//! These complement `prop_pipeline.rs` (which checks engines against
//! the brute-force oracle with tolerances); here the assertion is
//! exact equality of `f64::to_bits`.

use evprop::core::{CollaborativeEngine, Engine, SequentialEngine};
use evprop::potential::plan::{KernelPlan, PartialBlock, PlanKind};
use evprop::potential::{raw, AxisWalker, Domain, EntryRange, EvidenceSet, VarId, Variable};
use evprop::sched::SchedulerConfig;
use evprop::taskgraph::TaskGraph;
use evprop::workloads::{materialize, random_tree, TreeParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Partition grains: single-entry subtasks, the awkward prime, and the
/// two grains the serving stack actually uses.
const DELTAS: [usize; 4] = [1, 3, 64, 4096];
const THREADS: [usize; 3] = [1, 2, 4];

/// The block lengths the kernels run as compile-time constants; every
/// other length takes the runtime-length body.
const FIXED_BLOCKS: [usize; 5] = [1, 2, 4, 8, 16];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A random (scan, target ⊆ scan) pair: up to seven axes of 1, 2, 3 or
/// 5 states — binary axes most often, so that uniform suffixes of 2,
/// 4, 8 and 16 entries come up; cardinality-1 axes in any position —
/// with non-consecutive ids, a random subset of them as the target, and
/// at most 512 entries.
fn random_domains(rng: &mut StdRng) -> (Domain, Domain) {
    loop {
        let width = rng.gen_range(0..8usize);
        let vars: Vec<Variable> = (0..width)
            .map(|i| {
                let card = [1, 2, 2, 2, 2, 3, 5][rng.gen_range(0..7usize)];
                Variable::new(VarId(3 * i as u32 + rng.gen_range(0..3u32)), card)
            })
            .collect();
        let keep: Vec<VarId> = vars
            .iter()
            .filter(|_| rng.gen_bool(0.5))
            .map(|v| v.id())
            .collect();
        let scan = Domain::new(vars).expect("distinct ids");
        if scan.size() <= 512 {
            let target = scan.project(&keep);
            return (scan, target);
        }
    }
}

/// Ranges over a table of `len` entries: the empty ranges at both ends
/// and inside, one entry, the whole table, random cuts (which land
/// mid-block whenever blocks are longer than one entry), and every part
/// of the δ-splits the scheduler makes at δ ∈ {1, 3, 7, 64}.
fn ranges_of(len: usize, rng: &mut StdRng) -> Vec<EntryRange> {
    let mut out = vec![
        EntryRange { start: 0, end: 0 },
        EntryRange {
            start: len,
            end: len,
        },
        EntryRange::full(len),
    ];
    for _ in 0..4 {
        let a = rng.gen_range(0..=len);
        let b = rng.gen_range(0..=len);
        out.push(EntryRange {
            start: a.min(b),
            end: a.max(b),
        });
        let one = rng.gen_range(0..len);
        out.push(EntryRange {
            start: one,
            end: one + 1,
        });
    }
    for delta in [1, 3, 7, 64] {
        out.extend(EntryRange::split(len, delta));
    }
    out
}

/// A plan's block stream: kind, block length, head, bases, tail.
type Stream = (
    PlanKind,
    usize,
    Option<PartialBlock>,
    Vec<u32>,
    Option<PartialBlock>,
);

/// The canonical block stream the slow way — the reference for
/// `KernelPlan::compile`: the uniform-suffix block rule applied from
/// scratch and an `AxisWalker` sought afresh at every block.
fn per_block_seek(scan: &Domain, target: &Domain, range: EntryRange) -> Stream {
    let tstrides = scan.strides_in(target);
    let width = scan.width();
    let last_present = width > 0 && tstrides[width - 1] != 0;
    let kind = if width == 0 || last_present {
        PlanKind::Contig
    } else {
        PlanKind::Broadcast
    };
    let block: usize = (0..width)
        .rev()
        .take_while(|&p| (tstrides[p] != 0) == last_present)
        .map(|p| scan.vars()[p].cardinality())
        .product();
    let mut walker = AxisWalker::new(scan, tstrides);
    let (mut head, mut bases, mut tail) = (None, Vec::new(), None);
    let mut pos = range.start;
    while pos < range.end {
        let len = (pos - pos % block + block).min(range.end) - pos;
        walker.seek(scan, pos);
        let base = walker.target_index();
        if !pos.is_multiple_of(block) {
            head = Some(PartialBlock { base, len });
        } else if len == block {
            bases.push(base as u32);
        } else {
            tail = Some(PartialBlock { base, len });
        }
        pos += len;
    }
    (kind, block, head, bases, tail)
}

/// Checks one (scan, target) pair over every range of [`ranges_of`]:
/// `KernelPlan::compile` yields the reference block stream, and the
/// plan's kernels and the streamed `*_raw` entry points each compute
/// the bits of their `*_walker` oracle — sum and max marginalization,
/// extension and multiplication. Returns the pair's block length.
fn check_pair(scan: &Domain, target: &Domain, rng: &mut StdRng) -> usize {
    let scan_data: Vec<f64> = (0..scan.size()).map(|_| rng.gen_range(0.01..1.0)).collect();
    let target_data: Vec<f64> = (0..target.size())
        .map(|_| rng.gen_range(0.01..1.0))
        .collect();
    let mut block = 0;
    for r in ranges_of(scan.size(), rng) {
        let case = format!("scan {scan:?} target {target:?} range {r:?}");
        let plan = KernelPlan::compile(scan, target, r).expect("in bounds");
        let stream = (
            plan.kind(),
            plan.block(),
            plan.head(),
            plan.bases().to_vec(),
            plan.tail(),
        );
        prop_assert_eq!(stream, per_block_seek(scan, target, r), "{}", &case);
        block = plan.block();

        let start: Vec<f64> = (0..target.size())
            .map(|_| rng.gen_range(0.0..1.0))
            .collect();
        for max in [false, true] {
            let mut walk = start.clone();
            let mut streamed = start.clone();
            let mut planned = start.clone();
            if max {
                raw::max_marginalize_range_into_walker(scan, &scan_data, r, target, &mut walk)
                    .unwrap();
                raw::max_marginalize_range_into_raw(scan, &scan_data, r, target, &mut streamed)
                    .unwrap();
                plan.marginalize_max_into(&scan_data, &mut planned).unwrap();
            } else {
                raw::marginalize_range_into_walker(scan, &scan_data, r, target, &mut walk).unwrap();
                raw::marginalize_range_into_raw(scan, &scan_data, r, target, &mut streamed)
                    .unwrap();
                plan.marginalize_sum_into(&scan_data, &mut planned).unwrap();
            }
            prop_assert_eq!(
                bits(&streamed),
                bits(&walk),
                "max {} streamed {}",
                max,
                &case
            );
            prop_assert_eq!(bits(&planned), bits(&walk), "max {} planned {}", max, &case);
        }

        let window = &scan_data[r.start..r.end];
        let mut walk = window.to_vec();
        let mut streamed = window.to_vec();
        let mut planned = window.to_vec();
        raw::extend_range_into_walker(target, &target_data, scan, r, &mut walk).unwrap();
        raw::extend_range_into_raw(target, &target_data, scan, r, &mut streamed).unwrap();
        plan.extend_into(&target_data, &mut planned).unwrap();
        prop_assert_eq!(bits(&streamed), bits(&walk), "extend streamed {}", &case);
        prop_assert_eq!(bits(&planned), bits(&walk), "extend planned {}", &case);

        let mut walk = window.to_vec();
        let mut streamed = window.to_vec();
        let mut planned = window.to_vec();
        raw::multiply_range_into_walker(target, &target_data, scan, r, &mut walk).unwrap();
        raw::multiply_range_into_raw(target, &target_data, scan, r, &mut streamed).unwrap();
        plan.multiply_into(&target_data, &mut planned).unwrap();
        prop_assert_eq!(bits(&streamed), bits(&walk), "multiply streamed {}", &case);
        prop_assert_eq!(bits(&planned), bits(&walk), "multiply planned {}", &case);
    }
    block
}

/// The generator reaches every block length the kernels run as a
/// constant and the runtime-length body, and every one of them matches
/// its oracle.
#[test]
fn every_block_length_dispatch_is_exercised() {
    let mut rng = StdRng::seed_from_u64(0xB10C);
    let (mut fixed, mut runtime) = ([false; FIXED_BLOCKS.len()], false);
    for _ in 0..3000 {
        let (scan, target) = random_domains(&mut rng);
        let block = check_pair(&scan, &target, &mut rng);
        match FIXED_BLOCKS.iter().position(|&b| b == block) {
            Some(i) => fixed[i] = true,
            None => runtime = true,
        }
        if runtime && fixed.iter().all(|&f| f) {
            return;
        }
    }
    panic!("blocks seen: constant lengths {FIXED_BLOCKS:?} -> {fixed:?}, runtime {runtime}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The block walk, collected and streamed, on random domains and
    /// ranges: `KernelPlan::compile` yields the reference head, bases
    /// and tail, and the plans and the streamed `*_raw` entry points
    /// compute the bits of their `*_walker` oracles.
    #[test]
    fn block_walk_matches_per_block_seek_and_walkers(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..16 {
            let (scan, target) = random_domains(&mut rng);
            check_pair(&scan, &target, &mut rng);
        }
    }

    /// Every cross-domain task of a random tree, every δ: interpreting
    /// the interned plans (sum, max, extend, multiply) produces the
    /// same bits as re-deriving the index map with the walker kernels.
    #[test]
    fn plans_match_walkers_bitwise(
        seed in 0u64..5000,
        n in 2usize..20,
        w in 2usize..6,
        k in 1usize..4,
    ) {
        let shape = random_tree(&TreeParams::new(n, w, 2, k).with_seed(seed));
        let graph = TaskGraph::from_shape(&shape);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB17_1DEA);
        for t in (0..graph.num_tasks()).map(evprop::taskgraph::TaskId) {
            let Some((scan, target)) = graph.scan_target_domains(t) else {
                continue; // Divide never crosses domains
            };
            let (scan, target) = (scan.clone(), target.clone());
            let scan_data: Vec<f64> =
                (0..scan.size()).map(|_| rng.gen_range(0.01..1.0)).collect();
            let target_data: Vec<f64> =
                (0..target.size()).map(|_| rng.gen_range(0.01..1.0)).collect();
            for delta in DELTAS {
                let ranges = EntryRange::split(scan.size(), delta);
                // marginalize: accumulate range partials into the target
                let mut sum_p = vec![0.0; target.size()];
                let mut sum_w = vec![0.0; target.size()];
                let mut max_p = vec![0.0; target.size()];
                let mut max_w = vec![0.0; target.size()];
                // extend/multiply: write/scale the scan-side window
                let mut ext_p = vec![0.0; scan.size()];
                let mut ext_w = vec![0.0; scan.size()];
                let mut mul_p = scan_data.clone();
                let mut mul_w = scan_data.clone();
                for &r in &ranges {
                    // the scheduler's lookup path — interns on first use
                    let (_, plan) = graph.ranged_plan(t, r).expect("cross-domain task");
                    plan.marginalize_sum_into(&scan_data, &mut sum_p).unwrap();
                    plan.marginalize_max_into(&scan_data, &mut max_p).unwrap();
                    plan.extend_into(&target_data, &mut ext_p[r.start..r.end]).unwrap();
                    plan.multiply_into(&target_data, &mut mul_p[r.start..r.end]).unwrap();
                    raw::marginalize_range_into_walker(
                        &scan, &scan_data, r, &target, &mut sum_w).unwrap();
                    raw::max_marginalize_range_into_walker(
                        &scan, &scan_data, r, &target, &mut max_w).unwrap();
                    raw::extend_range_into_walker(
                        &target, &target_data, &scan, r, &mut ext_w[r.start..r.end]).unwrap();
                    raw::multiply_range_into_walker(
                        &target, &target_data, &scan, r, &mut mul_w[r.start..r.end]).unwrap();
                }
                prop_assert_eq!(bits(&sum_p), bits(&sum_w), "sum δ={}", delta);
                prop_assert_eq!(bits(&max_p), bits(&max_w), "max δ={}", delta);
                prop_assert_eq!(bits(&ext_p), bits(&ext_w), "extend δ={}", delta);
                prop_assert_eq!(bits(&mul_p), bits(&mul_w), "multiply δ={}", delta);
            }
        }
        let s = graph.plans().stats();
        prop_assert!(s.interned > 0, "plan cache saw no interning");
        prop_assert!(s.hits > 0, "repeated δ passes should hit the memo");
    }

    /// Plan-driven execution is bitwise invariant across thread counts
    /// and δ: concurrency must not perturb a single bit of the
    /// calibrated tables.
    #[test]
    fn plan_execution_is_thread_count_invariant(
        seed in 0u64..5000,
        n in 3usize..24,
        w in 3usize..7,
        k in 1usize..4,
        delta_idx in 0usize..4,
    ) {
        let shape = random_tree(&TreeParams::new(n, w, 2, k).with_seed(seed));
        let jt = materialize(&shape, seed);
        let delta = DELTAS[delta_idx];
        let reference = SequentialEngine
            .propagate(&jt, &EvidenceSet::new())
            .expect("sequential");
        // One-thread partitioned run: partials fold in part order, so
        // it differs from the unpartitioned pass only by float
        // reassociation — bounded — but is the exact-bits baseline for
        // every other thread count.
        let baseline = CollaborativeEngine::new(
            SchedulerConfig::with_threads(1).with_delta(delta))
            .propagate(&jt, &EvidenceSet::new())
            .expect("collaborative baseline");
        prop_assert!(baseline.max_relative_divergence(&reference) < 1e-9);
        for threads in THREADS {
            let got = CollaborativeEngine::new(
                SchedulerConfig::with_threads(threads).with_delta(delta))
                .propagate(&jt, &EvidenceSet::new())
                .expect("collaborative");
            // divergence is exactly 0.0 only when every entry matches
            // bitwise (partials always fold in part order)
            prop_assert_eq!(
                got.max_relative_divergence(&baseline), 0.0,
                "threads={} δ={}", threads, delta
            );
        }
    }
}

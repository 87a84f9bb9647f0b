//! Property tests for compiled kernel plans: the plan interpreter must
//! be **bit-for-bit** identical to the stride-walking kernels, for
//! every (scan, target) domain pair a random junction tree produces,
//! under every partition grain δ — and the scheduler built on top of
//! the plans must stay bitwise thread-count-invariant.
//!
//! These complement `prop_pipeline.rs` (which checks engines against
//! the brute-force oracle with tolerances); here the assertion is
//! exact equality of `f64::to_bits`.

use evprop::core::{CollaborativeEngine, Engine, SequentialEngine};
use evprop::potential::{raw, EntryRange, EvidenceSet};
use evprop::sched::SchedulerConfig;
use evprop::taskgraph::TaskGraph;
use evprop::workloads::{materialize, random_tree, TreeParams};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Partition grains: single-entry subtasks, the awkward prime, and the
/// two grains the serving stack actually uses.
const DELTAS: [usize; 4] = [1, 3, 64, 4096];
const THREADS: [usize; 3] = [1, 2, 4];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

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
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xB17_1DEA);
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

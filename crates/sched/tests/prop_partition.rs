//! Property tests for the collaborative scheduler's Partition module:
//! on random junction trees, partitioned collaborative propagation must
//! match the sequential engine — and must be *deterministic* across
//! thread counts.
//!
//! Two different strengths of "match", on purpose:
//!
//! * **Max-product** (`max = true` marginalization): `max` is exact on
//!   floats, so the partitioned result is compared **bit-for-bit**
//!   against the sequential oracle.
//! * **Sum-product**: FP addition is not associative, so a partitioned
//!   sum legitimately differs from the sequential fold in the last ulps
//!   — the oracle comparison is `1e-9` relative. But because the
//!   combiner folds partials in part order (not arrival order), the
//!   collaborative result itself must be **bitwise identical across
//!   thread counts and schedules** for a fixed δ; that is
//!   asserted exactly.

use evprop_potential::{EvidenceSet, PotentialTable, VarId};
use evprop_sched::{run_collaborative, SchedulerConfig, TableArena};
use evprop_taskgraph::{execute_full, PropagationMode, TaskGraph};
use evprop_workloads::{materialize, random_tree, TreeParams};
use proptest::prelude::*;

/// Sequential reference: all tasks in topological order on plain tables.
fn run_sequential(graph: &TaskGraph, arena: &mut TableArena) {
    let order = graph.topological_order().unwrap();
    let tables = arena.tables_mut();
    for t in order {
        execute_full(&graph.task(t).kind, tables);
    }
}

/// δ values from the issue: 1 and 3 partition every table aggressively,
/// 64 partitions only the larger cliques, 4096 disables partitioning on
/// these small trees (exercising the unpartitioned `exec_full` path).
const DELTAS: [usize; 4] = [1, 3, 64, 4096];
const THREADS: [usize; 4] = [1, 2, 4, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn partitioned_collab_matches_sequential(
        seed in 0u64..1_000_000,
        num_cliques in 2usize..8,
        width in 2usize..4,
        states in 2usize..4,
        degree in 1usize..4,
        delta_idx in 0usize..4,
        max_mode in proptest::bool::ANY,
        observe in proptest::bool::ANY,
    ) {
        let params = TreeParams::new(num_cliques, width, states, degree).with_seed(seed);
        let shape = random_tree(&params);
        let jt = materialize(&shape, seed);
        let mode = if max_mode {
            PropagationMode::MaxProduct
        } else {
            PropagationMode::SumProduct
        };
        let graph = TaskGraph::from_shape_mode(&shape, mode);
        let mut ev = EvidenceSet::new();
        if observe {
            // variable 0 always exists (clique 0 introduces it)
            ev.observe(VarId(0), (seed as usize) % states);
        }

        let mut seq = TableArena::initialize(&graph, jt.potentials(), &ev);
        run_sequential(&graph, &mut seq);
        let oracle = seq.into_tables();

        let delta = DELTAS[delta_idx];
        let mut baseline: Option<Vec<PotentialTable>> = None;
        for &threads in &THREADS {
            let mut cfg = SchedulerConfig::with_threads(threads);
            cfg.partition_threshold = Some(delta);
            let arena = TableArena::initialize(&graph, jt.potentials(), &ev);
            run_collaborative(&graph, &arena, &cfg);
            let got = arena.into_tables();
            prop_assert_eq!(got.len(), oracle.len());

            for (i, (want, have)) in oracle.iter().zip(&got).enumerate() {
                if max_mode {
                    prop_assert_eq!(
                        want.data(), have.data(),
                        "max-mode buffer {} not bit-identical (threads {}, delta {})",
                        i, threads, delta
                    );
                } else {
                    prop_assert!(
                        want.approx_eq(have, 1e-9),
                        "sum-mode buffer {} beyond 1e-9 of oracle (threads {}, delta {})",
                        i, threads, delta
                    );
                }
            }
            match &baseline {
                None => baseline = Some(got),
                Some(base) => {
                    for (i, (a, b)) in base.iter().zip(&got).enumerate() {
                        prop_assert_eq!(
                            a.data(), b.data(),
                            "buffer {} differs across thread counts (threads {}, delta {})",
                            i, threads, delta
                        );
                    }
                }
            }
        }
    }
}

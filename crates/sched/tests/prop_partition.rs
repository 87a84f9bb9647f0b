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
use evprop_sched::{run_collaborative, CollabPool, SchedulerConfig, TableArena};
use evprop_taskgraph::{execute_full, BufferInit, PropagationMode, TaskGraph};
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

    /// `TableArena::reset` leaves scratch alone: on an arena a previous
    /// job used, every `Scratch` buffer filled with NaN, `reset` plus a
    /// job ends bit-for-bit where a freshly initialized arena ends — at
    /// every thread count, δ and algebra. A read of scratch before its
    /// writer would carry the NaN into the answer.
    #[test]
    fn poisoned_scratch_is_never_read(
        seed in 0u64..1_000_000,
        num_cliques in 2usize..10,
        width in 2usize..5,
        degree in 1usize..4,
        max_mode in proptest::bool::ANY,
    ) {
        let shape = random_tree(&TreeParams::new(num_cliques, width, 2, degree).with_seed(seed));
        let jt = materialize(&shape, seed);
        let mode = if max_mode {
            PropagationMode::MaxProduct
        } else {
            PropagationMode::SumProduct
        };
        let graph = TaskGraph::from_shape_mode(&shape, mode);
        let mut ev = EvidenceSet::new();
        ev.observe(VarId(0), (seed % 2) as usize);
        for threads in [1usize, 2, 4] {
            let pool = CollabPool::new(threads);
            for delta in [None, Some(1), Some(64)] {
                let mut cfg = SchedulerConfig::with_threads(threads);
                cfg.partition_threshold = delta;
                let fresh = TableArena::initialize(&graph, jt.potentials(), &ev);
                pool.run(&graph, &fresh, &cfg).expect("job runs");

                let mut used = TableArena::initialize(&graph, jt.potentials(), &EvidenceSet::new());
                pool.run(&graph, &used, &cfg).expect("job runs");
                for (t, spec) in used.tables_mut().iter_mut().zip(graph.buffers()) {
                    if spec.init == BufferInit::Scratch {
                        t.fill(f64::NAN);
                    }
                }
                used.reset(&graph, jt.potentials(), &ev);
                pool.run(&graph, &used, &cfg).expect("job runs");

                for (i, (want, got)) in fresh.into_tables().iter().zip(used.into_tables()).enumerate() {
                    let bits = |t: &PotentialTable| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(
                        bits(want), bits(&got),
                        "buffer {} (threads {}, delta {:?})", i, threads, delta
                    );
                }
            }
        }
    }
}

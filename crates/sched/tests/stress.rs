//! Schedule-stress suite (`-- --ignored`): thousands of tiny-δ,
//! high-thread propagations on one resident [`CollabPool`], each checked
//! against the sequential oracle.
//!
//! One leg runs the same jobs on a one-worker pool, whose walk executes
//! every part inline (the partition branch no default-δ test reaches).
//!
//! δ = 1 with 8 workers on small tables maximizes scheduler churn —
//! every task shatters into single-entry subtasks, the ready lists stay
//! near-empty so every Allocate decision races a Fetch, and the pool's
//! serve-many path (`TableArena::reset` between jobs) is exercised on
//! every iteration. With `debug_assertions` on, every window goes through the
//! arena overlap checker and every job ends with the drained-weights
//! assertion, so a single scheduling bug anywhere in thousands of
//! distinct interleavings fails the suite deterministically.

use evprop_potential::{EvidenceSet, VarId};
use evprop_sched::{CollabPool, SchedulerConfig, TableArena};
use evprop_taskgraph::{execute_full, PropagationMode, TaskGraph};
use evprop_workloads::{materialize, random_tree, TreeParams};

/// Sequential reference: all tasks in topological order on plain tables.
fn run_sequential(graph: &TaskGraph, arena: &mut TableArena) {
    let order = graph.topological_order().unwrap();
    let tables = arena.tables_mut();
    for t in order {
        execute_full(&graph.task(t).kind, tables);
    }
}

#[test]
#[ignore = "stress"]
fn thousands_of_tiny_delta_propagations_match_oracle() {
    tiny_delta_propagations_match_oracle(8);
}

/// The same churn through the one-worker walk: every task shatters
/// into single-entry parts run inline, partials folded by part index,
/// on a pool whose scratch (dependency counters, ready ring) is reused
/// across graphs of different sizes.
#[test]
#[ignore = "stress"]
fn one_worker_tiny_delta_propagations_match_oracle() {
    tiny_delta_propagations_match_oracle(1);
}

fn tiny_delta_propagations_match_oracle(workers: usize) {
    const TREES: u64 = 8;
    const QUERIES_PER_TREE: usize = 125; // × 2 modes × 8 trees = 2000 runs

    let pool = CollabPool::new(workers);
    let mut cfg = SchedulerConfig::with_threads(workers);
    cfg.partition_threshold = Some(1);

    for tree_seed in 0..TREES {
        let params = TreeParams::new(
            3 + (tree_seed as usize % 4), // 3..=6 cliques
            2 + (tree_seed as usize % 2), // width 2..=3
            2,
            2,
        )
        .with_seed(tree_seed);
        let shape = random_tree(&params);
        let jt = materialize(&shape, tree_seed);

        for mode in [PropagationMode::SumProduct, PropagationMode::MaxProduct] {
            let graph = TaskGraph::from_shape_mode(&shape, mode);
            let mut par = TableArena::initialize(&graph, jt.potentials(), &EvidenceSet::new());

            for q in 0..QUERIES_PER_TREE {
                // vary the query: alternate evidence on variable 0
                let mut ev = EvidenceSet::new();
                if q % 3 != 0 {
                    ev.observe(VarId(0), q % 2);
                }

                let mut seq = TableArena::initialize(&graph, jt.potentials(), &ev);
                run_sequential(&graph, &mut seq);
                let oracle = seq.into_tables();

                par.reset(&graph, jt.potentials(), &ev);
                pool.run(&graph, &par, &cfg).expect("no worker panicked");
                // the arena outlives the job, so peek without consuming
                for (i, (want, have)) in oracle.iter().zip(par.tables_mut()).enumerate() {
                    assert!(
                        want.approx_eq(have, 1e-9),
                        "tree {tree_seed} mode {mode:?} query {q}: buffer {i} diverged"
                    );
                }
            }
        }
    }
}

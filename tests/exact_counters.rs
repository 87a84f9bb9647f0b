//! Exact structural counters of the two generated trees the repo
//! benchmark serves (`benchmark/src/inputs.rs`): 128 cliques of width 8
//! and 24 cliques of width 12, all variables binary, shape seed `0xF9`.
//!
//! These numbers move only when the task graph, its buffers or the
//! kernel-plan layout change, so a change that moves one by accident
//! fails here without a benchmark run. A change that means to move one
//! updates the expectation and says why.

use evprop::core::CompiledModel;
use evprop::taskgraph::PlanId;
use evprop::workloads::{materialize, random_tree, TreeParams};

/// The tasks, total weight (entries touched), arena bytes, interned
/// plans and compiled plan bytes of one full-propagation graph.
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    tasks: usize,
    weight: u64,
    buffer_bytes: usize,
    plans: usize,
    plan_bytes: usize,
}

/// The counters of the benchmark's tree with `cliques` cliques of width
/// `width`, potentials drawn from `seed`, after compiling every plan.
fn counters(cliques: usize, width: usize, seed: u64) -> Counters {
    let shape = random_tree(&TreeParams::new(cliques, width, 2, 4).with_seed(0xF9));
    let model = CompiledModel::from_junction_tree(materialize(&shape, seed));
    let graph = model.graph();
    let plans = graph.plans();
    for i in 0..plans.len() {
        plans.get(PlanId(i as u32));
    }
    Counters {
        tasks: graph.num_tasks(),
        weight: graph.total_weight(),
        buffer_bytes: graph.buffers().iter().map(|b| b.domain.size() * 8).sum(),
        plans: plans.len(),
        plan_bytes: plans.resident_bytes(),
    }
}

#[test]
fn tree_counters_are_exact() {
    let want = Counters {
        tasks: 762,
        weight: 164_592,
        buffer_bytes: 587_264,
        plans: 380,
        plan_bytes: 88_576,
    };
    for seed in [1, 2] {
        assert_eq!(counters(128, 8, seed), want, "potential seed {seed}");
    }
}

#[test]
fn wide_counters_are_exact() {
    let want = Counters {
        tasks: 138,
        weight: 472_512,
        buffer_bytes: 1_587_200,
        plans: 70,
        plan_bytes: 146_752,
    };
    for seed in [1, 2] {
        assert_eq!(counters(24, 12, seed), want, "potential seed {seed}");
    }
}

//! Cross-crate simulator invariants: the virtual-time replay must agree
//! with the task graph's analytic bounds and the paper's qualitative
//! claims on the real presets.

use evprop::simcore::{simulate, speedup, CostModel, Policy};
use evprop::taskgraph::TaskGraph;
use evprop::workloads::presets::{jt1, jt2, jt3};
use evprop::workloads::{fig4_template, random_tree, TreeParams};

#[test]
fn makespan_respects_dag_bounds() {
    let model = CostModel::default();
    for seed in 0..5u64 {
        let shape = random_tree(&TreeParams::new(40, 8, 2, 4).with_seed(seed));
        let g = TaskGraph::from_shape(&shape);
        for cores in [1usize, 3, 8] {
            let r = simulate(&g, Policy::collaborative_unpartitioned(), cores, &model);
            // lower bound: total work / P (ignoring overheads)
            let work: u64 = g
                .tasks()
                .iter()
                .map(|t| model.exec_cost(t.kind.primitive(), t.weight))
                .sum();
            assert!(r.makespan as f64 >= work as f64 / cores as f64);
            // upper bound: everything serialized
            let per_task = (model.sigma_sched + model.lambda_lock) as u64;
            assert!(r.makespan <= work + per_task * g.num_tasks() as u64 + 1);
        }
    }
}

#[test]
fn fig5_claims_hold() {
    // speedup from rerooting is bounded by 2 and approaches it once the
    // thread count exceeds the branch count
    let model = CostModel::default();
    for b in [1usize, 2, 4] {
        let original = fig4_template(b, 256, 12);
        let mut rerooted = original.clone();
        let choice = evprop::jtree::select_root(&original);
        rerooted.reroot(choice.root).expect("valid root");
        let g_orig = TaskGraph::from_shape(&original);
        let g_new = TaskGraph::from_shape(&rerooted);
        let sp = |p: usize| {
            let a = simulate(&g_orig, Policy::collaborative_unpartitioned(), p, &model).makespan;
            let c = simulate(&g_new, Policy::collaborative_unpartitioned(), p, &model).makespan;
            a as f64 / c as f64
        };
        let at_1 = sp(1);
        let at_8 = sp(8);
        assert!((0.95..=1.05).contains(&at_1), "b={b}: {at_1}");
        assert!(at_8 > 1.7 && at_8 <= 2.05, "b={b}: {at_8}");
    }
}

#[test]
fn fig7_ordering_holds_on_presets() {
    let model = CostModel::default();
    for shape in [jt1(), jt2()] {
        let g = TaskGraph::from_shape(&shape);
        let collab = speedup(&g, Policy::collaborative(), 8, &model);
        let omp = speedup(&g, Policy::OpenMpStyle, 8, &model);
        assert!(collab > 6.5, "collaborative {collab}");
        assert!(
            collab / omp > 1.7 && collab / omp < 2.7,
            "ratio {}",
            collab / omp
        );
    }
}

#[test]
fn fig6_pnl_rises_after_four_on_all_presets() {
    let model = CostModel::default();
    for shape in [jt1(), jt2(), jt3()] {
        let g = TaskGraph::from_shape(&shape);
        let t1 = simulate(&g, Policy::PnlStyle, 1, &model).makespan;
        let t4 = simulate(&g, Policy::PnlStyle, 4, &model).makespan;
        let t8 = simulate(&g, Policy::PnlStyle, 8, &model).makespan;
        assert!(t4 < t1);
        assert!(t8 > t4);
    }
}

#[test]
fn fig9_small_table_outlier() {
    // w=10, r=2 must scale visibly worse than w=20, r=2
    let model = CostModel::default();
    let small = TaskGraph::from_shape(&random_tree(
        &TreeParams::new(512, 10, 2, 4).with_seed(0xF9),
    ));
    let large = TaskGraph::from_shape(&random_tree(
        &TreeParams::new(512, 20, 2, 4).with_seed(0xF9),
    ));
    let s_small = speedup(&small, Policy::collaborative(), 8, &model);
    let s_large = speedup(&large, Policy::collaborative(), 8, &model);
    assert!(s_large > 7.5, "large {s_large}");
    assert!(
        s_small < s_large - 1.0,
        "small {s_small} vs large {s_large}"
    );
}

#[test]
fn real_scheduler_and_simulator_agree_on_load_balance() {
    // both should distribute weight nearly evenly on a wide tree
    use evprop::potential::EvidenceSet;
    use evprop::sched::{run_collaborative, SchedulerConfig, TableArena};
    use evprop::workloads::materialize;

    // No more workers than the host can run at once. Allocate gives a
    // descheduled worker less — correctly: its weight counter stops
    // falling — so with four workers on two vCPUs the real half
    // measured the hypervisor, not the scheduler (11 failures in 40
    // debug runs). The simulator runs the same count, so both halves
    // speak about one configuration and both bounds stay.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));

    let shape = random_tree(&TreeParams::new(128, 8, 2, 4).with_seed(2));
    let g = TaskGraph::from_shape(&shape);
    let model = CostModel::default();
    let sim = simulate(&g, Policy::collaborative_unpartitioned(), workers, &model);
    assert!(sim.imbalance() < 1.25, "sim imbalance {}", sim.imbalance());

    let jt = materialize(&shape, 2);
    let arena = TableArena::initialize(&g, jt.potentials(), &EvidenceSet::new());
    let cfg = SchedulerConfig::with_threads(workers).without_partitioning();
    let report = run_collaborative(&g, &arena, &cfg);
    assert!(
        report.imbalance() < 1.6,
        "real imbalance {} on {workers} workers",
        report.imbalance()
    );
}

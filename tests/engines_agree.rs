//! Engine cross-agreement on generated junction trees too large for the
//! joint oracle: the collaborative engine at every thread count and δ
//! must reproduce the sequential engine's calibrated tables bit-for-bit
//! (up to fp reassociation in partitioned marginalizations), and one
//! resident engine must answer like a fresh one whatever it ran before.

use evprop::core::{CollaborativeEngine, Engine, SequentialEngine};
use evprop::potential::{EvidenceSet, VarId};
use evprop::sched::SchedulerConfig;
use evprop::workloads::{materialize, random_tree, TreeParams};

fn tree(seed: u64, n: usize, w: usize, r: usize, k: usize) -> evprop::jtree::JunctionTree {
    materialize(
        &random_tree(&TreeParams::new(n, w, r, k).with_seed(seed)),
        seed,
    )
}

#[test]
fn collaborative_matches_sequential_on_many_trees() {
    for (seed, n, w, r, k) in [
        (1u64, 32usize, 8usize, 2usize, 2usize),
        (2, 64, 6, 3, 4),
        (3, 17, 10, 2, 8),
        (4, 100, 5, 2, 1), // pure path: no structural parallelism
    ] {
        let jt = tree(seed, n, w, r, k);
        let reference = SequentialEngine
            .propagate(&jt, &EvidenceSet::new())
            .expect("sequential run");
        for threads in [1usize, 2, 4] {
            for delta in [None, Some(64)] {
                let mut cfg = SchedulerConfig::with_threads(threads);
                cfg.partition_threshold = delta;
                let engine = CollaborativeEngine::new(cfg);
                let got = engine.propagate(&jt, &EvidenceSet::new()).expect("run");
                assert!(
                    got.max_relative_divergence(&reference) < 1e-9,
                    "seed {seed} threads {threads} delta {delta:?}"
                );
            }
        }
    }
}

/// The engine is resident and its arena cache matches by buffer
/// *layout*, so one engine value serves trees that share a shape but
/// not their potentials, and a model's sum- and max-product graphs,
/// out of the same recycled arena. Whatever ran before — other
/// potentials, other evidence, the other algebra — must leave no trace:
/// every answer is bit-identical to a fresh engine's.
#[test]
fn resident_engine_reuse_across_trees_and_modes_matches_fresh() {
    use evprop::jtree::CliqueId;
    use evprop::taskgraph::{PropagationMode, TaskGraph};
    let shape = random_tree(&TreeParams::new(24, 7, 2, 3).with_seed(5));
    let trees = [materialize(&shape, 5), materialize(&shape, 6)];
    assert_ne!(
        trees[0].potentials()[0].data(),
        trees[1].potentials()[0].data(),
        "same layout, different numbers"
    );
    let sum = TaskGraph::from_shape(&shape);
    let max = TaskGraph::from_shape_mode(&shape, PropagationMode::MaxProduct);
    let evidences: Vec<EvidenceSet> = (0..3)
        .map(|i| {
            let mut ev = EvidenceSet::new();
            if i > 0 {
                ev.observe(VarId(0), i % 2);
                ev.observe_likelihood(VarId(i as u32), vec![0.25, 0.75]);
            }
            ev
        })
        .collect();
    for threads in [1usize, 2, 4] {
        for delta in [None, Some(16)] {
            let mut cfg = SchedulerConfig::with_threads(threads);
            cfg.partition_threshold = delta;
            let resident = CollaborativeEngine::new(cfg.clone());
            for (step, ev) in evidences.iter().cycle().take(8).enumerate() {
                let jt = &trees[step % 2];
                let graph = if step % 3 == 2 { &max } else { &sum };
                let got = resident.propagate_graph(jt, graph, ev).expect("resident");
                let fresh = CollaborativeEngine::new(cfg.clone())
                    .propagate_graph(jt, graph, ev)
                    .expect("fresh");
                for c in (0..jt.num_cliques()).map(CliqueId) {
                    assert_eq!(
                        got.clique(c).data(),
                        fresh.clique(c).data(),
                        "threads {threads} delta {delta:?} step {step} clique {c:?}"
                    );
                }
            }
            assert_eq!(
                resident.arenas_allocated(),
                1,
                "both trees and both graphs ran on one recycled arena"
            );
        }
    }
}

#[test]
fn evidence_count_does_not_affect_agreement() {
    // the paper: performance independent of evidence count; correctness
    // must hold for any number of evidence cliques
    let jt = tree(7, 64, 8, 2, 4);
    let engine = CollaborativeEngine::new(SchedulerConfig::with_threads(4).with_delta(100));
    for n_ev in [0usize, 1, 5, 20] {
        let mut ev = EvidenceSet::new();
        for i in 0..n_ev as u32 {
            ev.observe(VarId(i * 3), 0);
        }
        let reference = SequentialEngine.propagate(&jt, &ev).expect("sequential");
        let got = engine.propagate(&jt, &ev).expect("collaborative");
        assert!(
            got.max_relative_divergence(&reference) < 1e-9,
            "n_ev {n_ev}"
        );
    }
}

#[test]
fn repeated_runs_are_stable() {
    // scheduler nondeterminism must not leak into results beyond fp noise
    let jt = tree(8, 32, 9, 2, 4);
    let engine = CollaborativeEngine::new(SchedulerConfig::with_threads(4).with_delta(64));
    let first = engine.propagate(&jt, &EvidenceSet::new()).expect("run");
    for _ in 0..5 {
        let again = engine.propagate(&jt, &EvidenceSet::new()).expect("run");
        assert!(again.max_relative_divergence(&first) < 1e-9);
    }
}

#[test]
fn max_propagation_engines_agree() {
    use evprop::taskgraph::{PropagationMode, TaskGraph};
    let jt = tree(9, 40, 8, 2, 3);
    let g = TaskGraph::from_shape_mode(jt.shape(), PropagationMode::MaxProduct);
    g.validate().expect("max graph valid");
    let reference = SequentialEngine
        .propagate_graph(&jt, &g, &EvidenceSet::new())
        .expect("sequential max run");
    for threads in [1usize, 2, 4] {
        let engine =
            CollaborativeEngine::new(SchedulerConfig::with_threads(threads).with_delta(64));
        let got = engine
            .propagate_graph(&jt, &g, &EvidenceSet::new())
            .expect("collaborative max run");
        assert!(
            got.max_relative_divergence(&reference) < 1e-9,
            "threads {threads}"
        );
    }
}

#[test]
fn max_calibration_cliques_agree_on_peak() {
    use evprop::jtree::CliqueId;
    use evprop::taskgraph::{PropagationMode, TaskGraph};
    // after max-calibration, every clique's max entry equals the joint max
    let jt = tree(10, 24, 6, 2, 2);
    let g = TaskGraph::from_shape_mode(jt.shape(), PropagationMode::MaxProduct);
    let cal = SequentialEngine
        .propagate_graph(&jt, &g, &EvidenceSet::new())
        .expect("sequential max run");
    let peaks: Vec<f64> = (0..jt.num_cliques())
        .map(|c| cal.clique(CliqueId(c)).argmax().1)
        .collect();
    let global = peaks[0];
    for (i, &p) in peaks.iter().enumerate() {
        let rel = (p - global).abs() / global.max(1e-300);
        assert!(rel < 1e-9, "clique {i}: {p} vs {global}");
    }
}

#[test]
fn qmr_network_compiles_and_engines_agree() {
    // the noisy-OR family end-to-end through compilation + both heuristics
    use evprop::bayesnet::{qmr_network, QmrConfig};
    use evprop::jtree::{EliminationHeuristic, JunctionTree};
    let net = qmr_network(&QmrConfig {
        diseases: 10,
        symptoms: 20,
        parents_per_symptom: 2,
        seed: 8,
    })
    .expect("generator yields valid networks");
    let mut ev = EvidenceSet::new();
    ev.observe(VarId(15), 1); // a symptom
    let mut reference: Option<Vec<f64>> = None;
    for h in [
        EliminationHeuristic::MinFill,
        EliminationHeuristic::MinDegree,
    ] {
        let jt = JunctionTree::from_network_with(&net, h).expect("compiles");
        jt.shape().validate().expect("valid tree");
        let cal = SequentialEngine.propagate(&jt, &ev).expect("propagates");
        let posts: Vec<f64> = (0..10u32)
            .map(|d| cal.marginal(VarId(d)).expect("marginal").data()[1])
            .collect();
        match &reference {
            None => reference = Some(posts),
            Some(r) => {
                for (a, b) in r.iter().zip(&posts) {
                    assert!((a - b).abs() < 1e-9, "heuristics disagree: {a} vs {b}");
                }
            }
        }
    }
}

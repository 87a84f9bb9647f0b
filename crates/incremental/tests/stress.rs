//! Opt-in stress suite (`-- --ignored`): long evidence-churn
//! sequences on wider random trees, high thread counts, every answer
//! checked against a fresh sequential propagation.

use evprop_core::{CompiledModel, Engine, SequentialEngine, ShardState};
use evprop_incremental::IncrementalSession;
use evprop_potential::{EvidenceSet, VarId};
use evprop_sched::SchedulerConfig;
use evprop_workloads::{materialize, random_tree, TreeParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

fn churn(seed: u64, n: usize, w: usize, k: usize, threads: usize, steps: usize) {
    let shape = random_tree(&TreeParams::new(n, w, 2, k).with_seed(seed));
    let jt = materialize(&shape, seed);
    let model = Arc::new(CompiledModel::from_junction_tree(jt));
    let shard = ShardState::new(SchedulerConfig::with_threads(threads));
    let mut session = IncrementalSession::new(Arc::clone(&model));
    let vars: Vec<VarId> = shape
        .domains()
        .iter()
        .flat_map(|d| d.var_ids())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut ev = EvidenceSet::new();
    for step in 0..steps {
        let var = vars[rng.gen_range(0..vars.len())];
        if rng.gen_bool(0.25) {
            assert_eq!(session.retract(var), ev.retract(var), "step {step}");
        } else {
            let state = rng.gen_range(0..2usize);
            session.observe(var, state).unwrap();
            ev.observe(var, state);
        }
        let cal = SequentialEngine
            .propagate_graph(model.junction_tree(), model.graph(), &ev)
            .unwrap();
        let q = vars[rng.gen_range(0..vars.len())];
        if ev.state_of(q).is_some() {
            continue;
        }
        let (got, mode) = session.query(&shard, q).unwrap();
        let want = cal.marginal(q).unwrap();
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!(
                (g - w).abs() < 1e-9,
                "step {step} var {q:?} mode {mode:?}: {:?} vs {:?}",
                got.data(),
                want.data()
            );
        }
    }
    assert!(session.stats().incremental > 0, "{:?}", session.stats());
}

#[test]
#[ignore = "stress"]
fn long_churn_small_tree_many_threads() {
    churn(0xC0FFEE, 12, 4, 2, 8, 300);
}

#[test]
#[ignore = "stress"]
fn long_churn_wide_tree() {
    churn(0xBEEF, 48, 6, 3, 4, 150);
}

#[test]
#[ignore = "stress"]
fn long_churn_deep_chain() {
    churn(0xFACADE, 32, 3, 1, 2, 200);
}

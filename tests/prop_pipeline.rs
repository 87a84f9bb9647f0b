//! Property tests over the whole pipeline: random Bayesian networks →
//! junction tree → task graph → engines, checked against the joint
//! oracle and each other.

use evprop::bayesnet::{random_network, JointDistribution, RandomNetworkConfig};
use evprop::core::{CollaborativeEngine, Engine, InferenceSession, SequentialEngine};
use evprop::jtree::{CliqueId, JunctionTree};
use evprop::potential::{Domain, EntryRange, PotentialTable};
use evprop::potential::{EvidenceSet, VarId};
use evprop::sched::SchedulerConfig;
use evprop::taskgraph::{BufferInit, PropagationMode, TaskGraph, MESSAGE_TASKS_PER_EDGE};
use evprop::workloads::{materialize, random_tree, TreeParams};
use proptest::prelude::*;

/// The arena-reset contract on one graph: every task that reads a
/// `Scratch` buffer has a writer of that buffer among its DAG ancestors
/// (tasks write whole buffers, so that writer covered all of it).
fn scratch_is_written_before_read(g: &TaskGraph) -> Result<(), String> {
    let order = g.topological_order().ok_or("cyclic")?;
    // written[t][b]: some strict ancestor of t writes buffer b
    let mut written: Vec<Vec<bool>> = vec![vec![false; g.buffers().len()]; g.num_tasks()];
    for &t in &order {
        for b in g.task(t).kind.reads() {
            if g.buffers()[b.index()].init == BufferInit::Scratch && !written[t.index()][b.index()]
            {
                return Err(format!("{t:?} reads scratch {b:?} before any writer"));
            }
        }
        let mut mine = written[t.index()].clone();
        mine[g.task(t).kind.dst().index()] = true;
        for &s in g.successors(t) {
            for (w, &m) in written[s.index()].iter_mut().zip(&mine) {
                *w |= m;
            }
        }
    }
    Ok(())
}

/// `src` marginalized onto `dom` the way the scheduler runs a
/// `Marginalize` task at grain `delta`: unsplit, or the last part into
/// the zeroed destination and every other part's private partial folded
/// onto it in part order.
fn marginal(src: &PotentialTable, dom: &Domain, max: bool, delta: Option<usize>) -> PotentialTable {
    let ranges = match delta {
        Some(d) if src.len() > d => EntryRange::split(src.len(), d),
        _ => vec![EntryRange::full(src.len())],
    };
    let part = |r: EntryRange| {
        let mut t = PotentialTable::zeros(dom.clone());
        if max {
            src.max_marginalize_range_into(r, &mut t).unwrap();
        } else {
            src.marginalize_range_into(r, &mut t).unwrap();
        }
        t
    };
    let (&last, rest) = ranges.split_last().expect("a table has entries");
    let mut out = part(last);
    for &r in rest {
        if max {
            out.max_assign(&part(r)).unwrap();
        } else {
            out.add_assign(&part(r)).unwrap();
        }
    }
    out
}

/// Two-phase propagation through the paper's 8-task message chain
/// (Fig. 2c) with `PotentialTable` primitives: every message is
/// marginalize → divide by the separator it replaces (all ones on the
/// way up) → extend → multiply, collect in postorder, distribute in
/// preorder.
fn eight_task_reference(jt: &JunctionTree, max: bool, delta: Option<usize>) -> Vec<PotentialTable> {
    let shape = jt.shape();
    let mut cliques = jt.potentials().to_vec();
    let mut sep_up: Vec<Option<PotentialTable>> = vec![None; shape.num_cliques()];
    for c in shape.postorder() {
        let Some(p) = shape.parent(c) else { continue };
        let sep = shape.parent_separator(c);
        let up = marginal(&cliques[c.index()], sep, max, delta);
        let mut ratio = up.clone();
        ratio
            .divide_assign(&PotentialTable::ones(sep.clone()))
            .unwrap();
        let ext = ratio.extend(shape.domain(p)).unwrap();
        cliques[p.index()].multiply_assign(&ext).unwrap();
        sep_up[c.index()] = Some(up);
    }
    for &c in shape.preorder() {
        let Some(p) = shape.parent(c) else { continue };
        let sep = shape.parent_separator(c);
        let mut ratio = marginal(&cliques[p.index()], sep, max, delta);
        ratio
            .divide_assign(sep_up[c.index()].as_ref().expect("collected"))
            .unwrap();
        let ext = ratio.extend(shape.domain(c)).unwrap();
        cliques[c.index()].multiply_assign(&ext).unwrap();
    }
    cliques
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random small networks: sequential engine equals the brute-force
    /// oracle for every variable and random evidence.
    #[test]
    fn sequential_matches_oracle(
        seed in 0u64..5000,
        n_vars in 4usize..10,
        max_parents in 1usize..4,
        ev_var in 0usize..10,
        ev_state in 0usize..2,
    ) {
        let cfg = RandomNetworkConfig {
            num_vars: n_vars,
            max_parents,
            cardinality: (2, 3),
            seed,
        };
        let net = random_network(&cfg).expect("valid network");
        let session = InferenceSession::from_network(&net).expect("compiles");
        let joint = JointDistribution::of(&net).expect("small");
        let mut ev = EvidenceSet::new();
        let var = VarId((ev_var % n_vars) as u32);
        ev.observe(var, ev_state % net.var(var).cardinality());
        // skip impossible-evidence draws
        prop_assume!(joint.probability_of_evidence(&ev).unwrap() > 1e-12);
        let cal = session.propagate(&SequentialEngine, &ev).expect("runs");
        for v in 0..n_vars as u32 {
            if ev.state_of(VarId(v)).is_some() {
                continue;
            }
            let got = cal.marginal(VarId(v)).expect("marginal");
            let want = joint.marginal(VarId(v), &ev).expect("oracle");
            prop_assert!(got.approx_eq(&want, 1e-8), "V{v}");
        }
    }

    /// Random junction trees: the collaborative scheduler under random
    /// thread counts and δ equals the sequential engine.
    #[test]
    fn collaborative_matches_sequential(
        seed in 0u64..5000,
        n in 4usize..40,
        w in 3usize..8,
        k in 1usize..5,
        threads in 1usize..5,
        delta_exp in 0usize..9,
    ) {
        let shape = random_tree(&TreeParams::new(n, w, 2, k).with_seed(seed));
        let jt = materialize(&shape, seed);
        let reference = SequentialEngine
            .propagate(&jt, &EvidenceSet::new())
            .expect("sequential");
        let delta = if delta_exp == 0 { None } else { Some(1usize << delta_exp) };
        let mut cfg = SchedulerConfig::with_threads(threads);
        cfg.partition_threshold = delta;
        let got = CollaborativeEngine::new(cfg)
            .propagate(&jt, &EvidenceSet::new())
            .expect("collaborative");
        prop_assert!(got.max_relative_divergence(&reference) < 1e-9);
    }

    /// Task-graph structural invariants hold for arbitrary generated
    /// trees.
    #[test]
    fn taskgraph_invariants(
        seed in 0u64..5000,
        n in 1usize..60,
        w in 2usize..7,
        k in 1usize..6,
    ) {
        let shape = random_tree(&TreeParams::new(n, w, 2, k).with_seed(seed));
        let g = TaskGraph::from_shape(&shape);
        prop_assert_eq!(g.num_tasks(), MESSAGE_TASKS_PER_EDGE * (n - 1));
        g.validate().expect("valid graph");
        prop_assert!(g.critical_path_weight() <= g.total_weight());
        // every task is reachable: topological order covers all
        prop_assert_eq!(g.topological_order().unwrap().len(), g.num_tasks());
    }

    /// Every graph the builders emit — sum and max, and their replicas
    /// — writes each scratch buffer before any task reads it: what lets
    /// `TableArena::reset` leave scratch alone.
    #[test]
    fn built_graphs_write_scratch_before_reading_it(
        seed in 0u64..5000,
        n in 1usize..40,
        w in 2usize..7,
        k in 1usize..6,
        max in proptest::bool::ANY,
        copies in 1usize..4,
    ) {
        let shape = random_tree(&TreeParams::new(n, w, 2, k).with_seed(seed));
        let mode = if max { PropagationMode::MaxProduct } else { PropagationMode::SumProduct };
        let g = TaskGraph::from_shape_mode(&shape, mode);
        prop_assert!(g.buffers().iter().any(|b| b.init == BufferInit::Scratch) || n == 1);
        for graph in [g.replicate(copies), g] {
            let checked = scratch_is_written_before_read(&graph);
            prop_assert!(checked.is_ok(), "{:?}", checked);
        }
    }

    /// The built graph runs each collect message as `Marginalize →
    /// Multiply` through the (parent, separator) plan; it must calibrate
    /// every clique to the bits of the paper's 8-task chain, in both
    /// algebras, at every thread count and grain.
    #[test]
    fn six_task_chain_matches_the_papers_eight_task_chain(
        seed in 0u64..5000,
        n in 2usize..24,
        w in 2usize..7,
        k in 1usize..5,
        max in proptest::bool::ANY,
    ) {
        let shape = random_tree(&TreeParams::new(n, w, 2, k).with_seed(seed));
        let jt = materialize(&shape, seed);
        let mode = if max { PropagationMode::MaxProduct } else { PropagationMode::SumProduct };
        let graph = TaskGraph::from_shape_mode(&shape, mode);
        for delta in [None, Some(1), Some(64)] {
            let want = eight_task_reference(&jt, max, delta);
            for threads in [1, 2] {
                let mut cfg = SchedulerConfig::with_threads(threads);
                cfg.partition_threshold = delta;
                let got = CollaborativeEngine::new(cfg)
                    .propagate_graph(&jt, &graph, &EvidenceSet::new())
                    .expect("collaborative");
                for c in (0..n).map(CliqueId) {
                    let bits = |t: &PotentialTable| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(
                        bits(got.clique(c)), bits(&want[c.index()]),
                        "clique {:?} threads {} δ {:?}", c, threads, delta
                    );
                }
            }
        }
    }
}

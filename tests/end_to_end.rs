//! End-to-end correctness: every engine, on networks small enough for
//! the brute-force joint oracle, across evidence configurations.

use evprop::bayesnet::{networks, random_network, JointDistribution, RandomNetworkConfig};
use evprop::core::{CollaborativeEngine, Engine, InferenceSession, SequentialEngine};
use evprop::potential::{EvidenceSet, VarId};
use evprop::sched::SchedulerConfig;

/// The sequential oracle plus the collaborative engine at 1/2/4 threads
/// with δ off and with a δ small enough to partition these networks.
fn engines() -> Vec<Box<dyn Engine>> {
    let mut engines: Vec<Box<dyn Engine>> = vec![Box::new(SequentialEngine)];
    for threads in [1, 2, 4] {
        let cfg = SchedulerConfig::with_threads(threads);
        engines.push(Box::new(CollaborativeEngine::new(
            cfg.clone().without_partitioning(),
        )));
        engines.push(Box::new(CollaborativeEngine::new(cfg.with_delta(4))));
    }
    engines
}

fn check_against_oracle(net: &evprop::bayesnet::BayesianNetwork, evidences: &[EvidenceSet]) {
    let session = InferenceSession::from_network(net).expect("network compiles");
    let joint = JointDistribution::of(net).expect("network is small");
    let engines = engines();
    for ev in evidences {
        for engine in &engines {
            let cal = session.propagate(engine.as_ref(), ev).expect("propagation");
            for v in 0..net.num_vars() as u32 {
                if ev.state_of(VarId(v)).is_some() {
                    continue; // observed variables are degenerate
                }
                let got = cal.marginal(VarId(v)).expect("marginal exists");
                let want = joint.marginal(VarId(v), ev).expect("oracle marginal");
                assert!(
                    got.approx_eq(&want, 1e-9),
                    "engine {} disagrees with oracle on V{v} under {ev:?}:\n got {got:?}\nwant {want:?}",
                    engine.name()
                );
            }
            let pe = joint.probability_of_evidence(ev).expect("oracle P(e)");
            assert!(
                (cal.probability_of_evidence() - pe).abs() < 1e-9,
                "engine {} P(e) mismatch",
                engine.name()
            );
        }
    }
}

#[test]
fn classic_networks_all_engines() {
    for net in [networks::sprinkler(), networks::asia(), networks::student()] {
        let n = net.num_vars() as u32;
        let evidences = vec![
            EvidenceSet::new(),
            {
                let mut e = EvidenceSet::new();
                e.observe(VarId(n - 1), 1);
                e
            },
            {
                let mut e = EvidenceSet::new();
                e.observe(VarId(0), 0);
                e.observe(VarId(n - 1), 1);
                e
            },
        ];
        check_against_oracle(&net, &evidences);
    }
}

#[test]
fn random_networks_all_engines() {
    for seed in 0..6 {
        let cfg = RandomNetworkConfig {
            num_vars: 10,
            max_parents: 3,
            cardinality: (2, 3),
            seed,
        };
        let net = random_network(&cfg).expect("generator produces valid networks");
        let mut ev = EvidenceSet::new();
        ev.observe(VarId(seed as u32 % 10), 0);
        check_against_oracle(&net, &[EvidenceSet::new(), ev]);
    }
}

#[test]
fn chain_network_long() {
    // deep trees exercise the critical-path machinery
    let net = networks::chain(16);
    let session = InferenceSession::from_network(&net).expect("chain compiles");
    let joint = JointDistribution::of(&net).expect("16 binary vars fit");
    let mut ev = EvidenceSet::new();
    ev.observe(VarId(0), 1);
    ev.observe(VarId(15), 0);
    for engine in engines() {
        let got = session
            .posterior(engine.as_ref(), VarId(8), &ev)
            .expect("posterior");
        let want = joint.marginal(VarId(8), &ev).expect("oracle");
        assert!(got.approx_eq(&want, 1e-9), "engine {}", engine.name());
    }
}

#[test]
fn impossible_evidence_is_reported() {
    // "either" is a deterministic OR; either=0 with lung=1 is impossible
    let net = networks::asia();
    let session = InferenceSession::from_network(&net).expect("asia compiles");
    let mut ev = EvidenceSet::new();
    ev.observe(VarId(3), 1); // lung cancer present
    ev.observe(VarId(5), 0); // "either" false
    let cal = session.propagate(&SequentialEngine, &ev).expect("runs");
    assert!(cal.probability_of_evidence().abs() < 1e-12);
    assert!(cal.marginal(VarId(4)).is_err());
}

#[test]
fn soft_evidence_matches_oracle() {
    // a noisy sensor on the x-ray: likelihood (0.3, 0.9) over (normal,
    // abnormal) — soft evidence must shift posteriors the same way in
    // every engine and in the brute-force oracle
    let net = networks::asia();
    let session = InferenceSession::from_network(&net).expect("asia compiles");
    let joint = JointDistribution::of(&net).expect("asia is small");
    let mut ev = EvidenceSet::new();
    ev.observe(VarId(2), 1); // smoker (hard)
    ev.observe_likelihood(VarId(6), vec![0.3, 0.9]); // noisy x-ray (soft)
    for engine in engines() {
        let cal = session.propagate(engine.as_ref(), &ev).expect("runs");
        for v in [0u32, 1, 3, 4, 5, 7] {
            let got = cal.marginal(VarId(v)).expect("marginal");
            let want = joint.marginal(VarId(v), &ev).expect("oracle");
            assert!(
                got.approx_eq(&want, 1e-9),
                "engine {} V{v}: {got:?} vs {want:?}",
                engine.name()
            );
        }
        let pe = joint.probability_of_evidence(&ev).expect("oracle mass");
        assert!((cal.probability_of_evidence() - pe).abs() < 1e-9);
    }
    // sanity: the soft abnormal x-ray raises P(lung cancer) vs no x-ray info
    let mut base = EvidenceSet::new();
    base.observe(VarId(2), 1);
    let without = joint.marginal(VarId(3), &base).expect("oracle");
    let with = joint.marginal(VarId(3), &ev).expect("oracle");
    assert!(with.data()[1] > without.data()[1]);
}

#[test]
fn soft_evidence_is_not_double_counted() {
    // Put soft evidence on a variable shared by several cliques (smoke
    // appears in more than one); if the likelihood were absorbed into
    // each containing clique the posterior would over-commit.
    let net = networks::asia();
    let session = InferenceSession::from_network(&net).expect("asia compiles");
    let joint = JointDistribution::of(&net).expect("asia is small");
    let mut ev = EvidenceSet::new();
    ev.observe_likelihood(VarId(2), vec![0.5, 1.0]);
    let cal = session
        .propagate(&SequentialEngine, &ev)
        .expect("sequential run");
    let got = cal.marginal(VarId(2)).expect("marginal");
    let want = joint.marginal(VarId(2), &ev).expect("oracle");
    assert!(got.approx_eq(&want, 1e-9), "{got:?} vs {want:?}");
    // the analytic value: prior (.5,.5) reweighted by (0.5,1.0) -> (1/3, 2/3)
    assert!((got.data()[1] - 2.0 / 3.0).abs() < 1e-9);
}

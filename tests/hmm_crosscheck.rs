//! Junction-tree engines vs the classic HMM algorithms on deep unrolled
//! chains — an *independent* oracle at depths the joint table cannot
//! reach (120 variables here), and exactly the long-critical-path regime
//! the paper's rerooting analysis targets.

use evprop::bayesnet::HiddenMarkovModel;
use evprop::core::{CollaborativeEngine, Engine, InferenceSession, SequentialEngine};
use evprop::potential::EvidenceSet;

const STEPS: usize = 60;

fn setup() -> (HiddenMarkovModel, InferenceSession, Vec<usize>, EvidenceSet) {
    let hmm = HiddenMarkovModel::random(3, 4, 77);
    let net = hmm.unroll(STEPS).expect("unrolls");
    let session = InferenceSession::from_network(&net).expect("compiles");
    // a deterministic pseudo-random observation sequence
    let obs: Vec<usize> = (0..STEPS).map(|t| (t * 7 + 3) % 4).collect();
    let mut ev = EvidenceSet::new();
    for (t, &o) in obs.iter().enumerate() {
        ev.observe(HiddenMarkovModel::observed_var(t), o);
    }
    (hmm, session, obs, ev)
}

#[test]
fn smoothing_matches_forward_backward() {
    let (hmm, session, obs, ev) = setup();
    let (gamma, likelihood) = hmm.smooth(&obs);
    for engine in [
        &SequentialEngine as &dyn Engine,
        &CollaborativeEngine::with_threads(4) as &dyn Engine,
    ] {
        let cal = session.propagate(engine, &ev).expect("propagates");
        // observation likelihood agrees (relative: it underflows absolute)
        let pe = cal.probability_of_evidence();
        assert!(
            ((pe - likelihood) / likelihood).abs() < 1e-6,
            "engine {}: P(o) {pe:e} vs {likelihood:e}",
            engine.name()
        );
        // smoothed hidden posteriors at every step
        for (t, g) in gamma.iter().enumerate() {
            let m = cal
                .marginal(HiddenMarkovModel::hidden_var(t))
                .expect("hidden marginal");
            for (i, &want) in g.iter().enumerate() {
                assert!(
                    (m.data()[i] - want).abs() < 1e-8,
                    "engine {} t={t} state={i}: {} vs {want}",
                    engine.name(),
                    m.data()[i]
                );
            }
        }
    }
}

#[test]
fn mpe_matches_viterbi() {
    let (hmm, session, obs, ev) = setup();
    let (path, p_viterbi) = hmm.viterbi(&obs);
    let mpe = session
        .most_probable_explanation(&CollaborativeEngine::with_threads(2), &ev)
        .expect("mpe");
    // joint max probabilities agree relatively (tiny absolute values)
    assert!(
        ((mpe.probability - p_viterbi) / p_viterbi).abs() < 1e-6,
        "P {:e} vs viterbi {:e}",
        mpe.probability,
        p_viterbi
    );
    // the decoded hidden path matches Viterbi's (strict inequality in the
    // DP makes ties essentially impossible with random parameters)
    for (t, &want) in path.iter().enumerate() {
        assert_eq!(
            mpe.state_of(HiddenMarkovModel::hidden_var(t)),
            Some(want),
            "t = {t}"
        );
    }
}

//! Large-scale noisy-OR diagnosis (QMR-style): 30 diseases, 80 symptoms
//! — a joint distribution of 2¹¹⁰ states, hopeless for brute force, easy
//! for junction-tree propagation.
//!
//! Demonstrates the full pipeline on a network class the paper's
//! introduction motivates (medical diagnosis / consumer help desks), plus
//! the triangulation-heuristic choice.
//!
//! ```sh
//! cargo run --release --example disease_surveillance
//! ```

use evprop::bayesnet::{qmr_network, QmrConfig};
use evprop::core::{CollaborativeEngine, EngineError, InferenceSession};
use evprop::jtree::{EliminationHeuristic, JunctionTree};
use evprop::potential::{EvidenceSet, VarId};
use std::time::Instant;

fn main() -> Result<(), EngineError> {
    let cfg = QmrConfig {
        diseases: 30,
        symptoms: 80,
        parents_per_symptom: 3,
        seed: 2026,
    };
    let net = qmr_network(&cfg).expect("generator yields valid networks");
    println!(
        "QMR-style network: {} diseases, {} symptoms, {} edges",
        cfg.diseases,
        cfg.symptoms,
        net.num_edges()
    );

    // compare triangulation heuristics
    for (name, h) in [
        ("min-fill", EliminationHeuristic::MinFill),
        ("min-degree", EliminationHeuristic::MinDegree),
    ] {
        let jt = JunctionTree::from_network_with(&net, h)?;
        println!(
            "  {name:<10}: {} cliques, max width {}, {:.1} KB of tables",
            jt.num_cliques(),
            jt.shape().max_width(),
            jt.shape().total_state_space() as f64 * 8.0 / 1e3,
        );
    }

    let session = InferenceSession::from_network(&net)?;
    let engine = CollaborativeEngine::with_threads(4);

    // a patient presents with five symptoms
    let mut ev = EvidenceSet::new();
    for s in [0u32, 7, 13, 21, 40] {
        ev.observe(VarId(cfg.diseases as u32 + s), 1);
    }

    let t0 = Instant::now();
    let calibrated = session.propagate(&engine, &ev)?;
    let full_time = t0.elapsed();

    // rank diseases by posterior
    let mut ranked: Vec<(u32, f64)> = (0..cfg.diseases as u32)
        .map(|d| {
            let m = calibrated.marginal(VarId(d)).expect("disease marginal");
            (d, m.data()[1])
        })
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\ntop diagnoses given 5 observed symptoms ({full_time:?} full calibration):");
    for (d, p) in ranked.iter().take(5) {
        println!("  disease {d:>2}: P = {p:.4}");
    }

    // most probable joint explanation of the presentation
    let mpe = session.most_probable_explanation(&engine, &ev)?;
    let active: Vec<u32> = (0..cfg.diseases as u32)
        .filter(|&d| mpe.state_of(VarId(d)) == Some(1))
        .collect();
    println!(
        "\nMPE: {} disease(s) active {:?}, P = {:.3e}",
        active.len(),
        active,
        mpe.probability
    );
    Ok(())
}

//! # evprop — Parallel Evidence Propagation on Multicore Processors
//!
//! A production-quality Rust reproduction of *Xia, Feng, Prasanna,
//! "Parallel Evidence Propagation on Multicore Processors", PACT 2009*:
//! exact inference in Bayesian networks via junction trees, with
//!
//! * the paper's junction-tree **rerooting algorithm** minimizing the
//!   propagation critical path in `O(w_C · N)` ([`jtree::select_root`]);
//! * the node-level-primitive **task DAG** (marginalize / divide /
//!   extend / multiply) built from the clique updating graph
//!   ([`taskgraph::TaskGraph`]);
//! * the **collaborative scheduler** — per-thread ready lists, weight
//!   counters, allocate-to-least-loaded, δ-partitioning of large tasks —
//!   on a resident pool of real threads ([`core::CollaborativeEngine`]),
//!   checked against the sequential oracle ([`core::SequentialEngine`]);
//! * a deterministic **discrete-event multicore simulator** replaying
//!   the collaborative scheduler, its work-stealing ablation and the
//!   paper's OpenMP-style, data-parallel and PNL-style baselines, which
//!   regenerates every figure of the paper's evaluation ([`simcore`]).
//!
//! This crate is a facade re-exporting the workspace. See the individual
//! crate docs for depth, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! # Quickstart
//!
//! ```
//! use evprop::bayesnet::networks;
//! use evprop::core::{InferenceSession, CollaborativeEngine};
//! use evprop::potential::{EvidenceSet, VarId};
//!
//! // Compile the Asia chest-clinic network, re-root, infer in parallel.
//! let session = InferenceSession::from_network(&networks::asia())?;
//! let engine = CollaborativeEngine::with_threads(4);
//! let mut ev = EvidenceSet::new();
//! ev.observe(VarId(7), 1); // patient has dyspnoea
//! let p_lung_cancer = session.posterior(&engine, VarId(3), &ev)?;
//! assert!((p_lung_cancer.sum() - 1.0).abs() < 1e-9);
//! # Ok::<(), evprop::core::EngineError>(())
//! ```

#![warn(missing_docs)]

/// Bayesian networks, CPTs, classic demo networks, brute-force oracle.
pub use evprop_bayesnet as bayesnet;
/// Inference engines and the end-to-end [`core::InferenceSession`].
pub use evprop_core as core;
/// Incremental evidence propagation sessions (resident state, deltas).
pub use evprop_incremental as incremental;
/// Junction trees: compilation, shapes, rerooting (Algorithm 1).
pub use evprop_jtree as jtree;
/// Potential tables and the four node-level primitives.
pub use evprop_potential as potential;
/// Multi-model registry: versioned aliases, hot swap, budgeted eviction.
pub use evprop_registry as registry;
/// The collaborative scheduler on OS threads.
pub use evprop_sched as sched;
/// Sharded serving runtime: admission control, metrics, TCP front-end.
pub use evprop_serve as serve;
/// The discrete-event multicore simulator (virtual-time speedups).
pub use evprop_simcore as simcore;
/// Task definition and dependency-graph construction.
pub use evprop_taskgraph as taskgraph;
/// Span recording, Chrome-trace export, and timeline analysis.
pub use evprop_trace as trace;
/// Workload generators (Fig. 4 template, JT1–3, sweeps).
pub use evprop_workloads as workloads;

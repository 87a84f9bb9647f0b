//! Parallel evidence propagation engines — the public API of the
//! PACT 2009 reproduction.
//!
//! # Pipeline
//!
//! 1. Compile a Bayesian network to a junction tree (or bring your own
//!    tree), 2. re-root it with the paper's Algorithm 1 to minimize the
//!    critical path, 3. build the task dependency graph, 4. propagate
//!    evidence with an [`Engine`]:
//!
//! * [`SequentialEngine`] — the Hugin two-phase reference, and the
//!   oracle every other path is tested against;
//! * [`CollaborativeEngine`] — the paper's contribution: decentralized
//!   scheduling with per-thread ready lists and δ-partitioning of large
//!   tasks. It is [`ShardState`] under the paper's name: worker threads
//!   spawned once, table arenas recycled, so a steady-state query pays
//!   only for propagation (compile once, serve many — see
//!   [`InferenceSession::posterior_batch`]).
//!
//! The paper's OpenMP-style and data-parallel baselines and its
//! work-stealing ablation are simulator policies (`evprop-simcore`),
//! which is where every Fig. 5–9 series comes from.
//!
//! # Example
//!
//! ```
//! use evprop_bayesnet::networks;
//! use evprop_core::{Engine, InferenceSession, SequentialEngine};
//! use evprop_potential::{EvidenceSet, VarId};
//!
//! let net = networks::sprinkler();
//! let session = InferenceSession::from_network(&net)?;
//! let mut ev = EvidenceSet::new();
//! ev.observe(VarId(3), 1); // wet grass observed
//! let calibrated = session.propagate(&SequentialEngine, &ev)?;
//! let p_rain = calibrated.marginal(VarId(2))?;
//! assert!((p_rain.data()[1] - 0.7079).abs() < 5e-4);
//! # Ok::<(), evprop_core::EngineError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod calibrated;
mod calibrated_state;
mod engine;
mod error;
mod model;
mod mpe;
mod sequential;
mod session;
mod shard;

pub use calibrated::{covering_clique, read_out, Calibrated};
pub use calibrated_state::CalibratedState;
pub use engine::Engine;
pub use error::EngineError;
pub use model::CompiledModel;
pub use mpe::{decode_mpe, MostProbableExplanation};
pub use sequential::SequentialEngine;
pub use session::{InferenceSession, Query, QueryBatch};
pub use shard::ShardState;

/// The paper's engine (§6) by the paper's name.
pub type CollaborativeEngine = ShardState;

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, EngineError>;

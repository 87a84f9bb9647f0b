//! Task definition and dependency-graph construction (§5 of the paper).
//!
//! Evidence propagation over a junction tree decomposes into *tasks*, one
//! per node-level primitive execution. This crate turns a
//! [`TreeShape`](evprop_jtree::TreeShape) into the global task DAG the
//! schedulers run:
//!
//! 1. the **clique updating graph** (Fig. 2a) — two symmetric phases:
//!    collect (each clique depends on its children) and distribute (each
//!    clique depends on its parent);
//! 2. each clique update expands into a **local task dependency graph**
//!    (Fig. 2b/c): a distribute message is `Marginalize → Divide →
//!    Extend → Multiply`; a collect message is `Marginalize → Multiply`,
//!    the same chain without its no-op steps (its divide is by an
//!    all-ones separator, and its extension fuses into the multiply
//!    through the edge's index map). Multiplications into the same
//!    clique are serialized.
//!
//! Tasks read and write *buffers* (clique potentials, separators, ratio
//! and extension scratch); the graph carries [`BufferSpec`]s so any
//! engine — real threads or the discrete-event simulator — can allocate
//! and drive them.
//!
//! # Example
//!
//! ```
//! use evprop_bayesnet::networks;
//! use evprop_jtree::JunctionTree;
//! use evprop_taskgraph::{TaskGraph, MESSAGE_TASKS_PER_EDGE};
//!
//! let jt = JunctionTree::from_network(&networks::asia()).unwrap();
//! let g = TaskGraph::from_shape(jt.shape());
//! assert_eq!(g.num_tasks(), MESSAGE_TASKS_PER_EDGE * (jt.num_cliques() - 1));
//! g.validate().unwrap();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod build;
mod dot;
mod execute;
mod graph;
mod plan_cache;
mod slice;

pub use build::MESSAGE_TASKS_PER_EDGE;
pub use execute::{execute_full, execute_range, write_and_read};
pub use graph::{
    BufferId, BufferInit, BufferSpec, DownBuffers, EdgeBuffers, Phase, PropagationMode, Task,
    TaskGraph, TaskGraphError, TaskId, TaskKind,
};
pub use plan_cache::{PlanCache, PlanCacheStats, PlanId};
pub use slice::{EdgeUpdate, SlicePlan};

//! The **collaborative scheduler** (§6 of the paper) on real OS threads.
//!
//! Every worker thread runs the paper's four modules:
//!
//! * **Allocate** — when a task completes, its successors' dependency
//!   degrees are decreased; tasks reaching degree 0 are placed on the
//!   local ready list (LL) of the thread with the smallest weight
//!   counter;
//! * **Fetch** — each thread takes the task at the head of its own LL;
//! * **Partition** — a fetched task whose potential table exceeds the
//!   threshold δ is split into range subtasks: the first runs
//!   immediately, the middle ones are spread across the other threads'
//!   LLs, and a *final* subtask — the only one inheriting the original
//!   task's successors — combines the results (added for
//!   marginalization, concatenated otherwise);
//! * **Execute** — the node-level primitive runs against the shared
//!   table arena.
//!
//! The global task list (GL) of the paper corresponds to the immutable
//! [`TaskGraph`](evprop_taskgraph::TaskGraph) plus an append-only arena
//! of dynamic subtasks; per-task dependency degrees are atomics, so
//! "locking an entry" is a single `fetch_sub`.
//!
//! With one worker every one of those decisions is forced, so a
//! one-worker job runs the same tasks as a private FIFO walk — ready
//! ring and dependency counters owned by the thread, no LL, no weight
//! counter, no atomic read-modify-write — through the same execution
//! code (DESIGN.md §9, "P = 1").
//!
//! There is one executor: the resident [`CollabPool`], whose workers
//! run the loop above job after job. [`run_collaborative`] is the same
//! pool built, used once and dropped. The work-stealing ablation the
//! paper's §8 gestures at lives in the simulator (`evprop-simcore`'s
//! collaborative policy), which is where every published figure comes
//! from.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arena;
mod cancel;
#[cfg(feature = "chaos")]
pub mod chaos;
mod collab;
mod config;
mod pool;

pub use arena::{ArenaView, RangeView, ReadView, TableArena};
pub use cancel::CancelToken;
pub use collab::run_collaborative;
pub use config::SchedulerConfig;
pub use pool::{CollabPool, JobError, JobPanic};
// The statistic types live in `evprop-trace` (shared with the serving
// runtime's metrics and the timeline analyzer); re-exported here so
// scheduler callers keep a single import path.
pub use evprop_trace::{RunReport, ThreadStats};

//! Incremental evidence propagation sessions.
//!
//! A classical serving stack treats every query as independent: reset
//! the arena, absorb the full evidence set, run both propagation
//! phases. Interactive diagnosis does not look like that — a client
//! holds a *case*, toggles one finding at a time, and re-reads a
//! handful of posteriors after each toggle. Between consecutive
//! queries almost all of the junction tree's state is still valid.
//!
//! [`IncrementalSession`] exploits that. It keeps the calibrated
//! clique **and** separator tables resident in a [`TableArena`] after
//! the first propagation, accepts evidence *deltas*
//! ([`IncrementalSession::observe`] / [`IncrementalSession::retract`]),
//! and on the next query re-executes only the slice of the task graph
//! that the deltas invalidated:
//!
//! * **collect** re-runs along the paths from changed-evidence cliques
//!   up to the root, re-multiplying unchanged subtrees' messages from
//!   their cached separators (`sep_up`) — a collect message is the
//!   child's separator marginal, multiplied into the parent through the
//!   edge's index map;
//! * **distribute** runs only along the root-to-target path, using the
//!   Hugin division update against the stored distribute separators
//!   (`ψ**_S`) to refresh cliques calibrated under older evidence in
//!   O(separator) work.
//!
//! The division update is exact only when the stored separator has no
//! zero entry; the session detects that case before running and falls
//! back to a full re-propagation
//! ([`FullReason::ZeroSeparator`]). Execution — full or sliced — goes
//! through an [`evprop_core::ShardState`]'s collaborative pool, so
//! sessions compose with the sharded serving runtime.
//!
//! [`TableArena`]: evprop_sched::TableArena

mod session;

pub use session::{FullReason, IncrementalSession, QueryMode, SessionStats, DIRTY_HIST_BUCKETS};

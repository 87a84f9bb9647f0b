//! **evprop-serve** — sharded concurrent-query serving runtime with
//! admission control and a TCP front-end.
//!
//! The engines in `evprop-core` answer one propagation at a time: a
//! [`ShardState`](evprop_core::ShardState) serializes jobs on its
//! worker pool because the shared table arena demands it. This crate
//! turns that single-file engine into a *service*:
//!
//! * [`ShardedRuntime`] — N shards, each its own pool + recycled
//!   arenas, so N queries run concurrently while each shard keeps the
//!   serialized-jobs invariant locally;
//! * [`AdmissionQueue`] — a bounded MPMC queue in front of the shards:
//!   producers block ([`ShardedRuntime::submit`]) or shed load
//!   ([`ShardedRuntime::try_submit`] → [`ServeError::Overloaded`])
//!   when it fills, and dispatchers micro-batch what they drain;
//! * [`RuntimeStats`] — per-shard and aggregate serving metrics
//!   (served/errors, approximate p50/p95/p99 latency, busy/idle time,
//!   queue high-water);
//! * [`TcpServer`] — a std-only newline-delimited-JSON front-end
//!   (`evprop serve --listen ADDR`), thread-per-connection, with
//!   introspection commands (`{"cmd": "stats"}`, `{"cmd": "trace"}`)
//!   and opt-in per-query `queue_us`/`exec_us` timing (schema
//!   documented on [`parse_request_line`]);
//! * **stateful sessions** — `session-open` / `session-set` /
//!   `session-retract` / `session-query` / `session-close` protocol
//!   commands backed by `evprop-incremental`: each open session pins
//!   resident calibrated tables to one shard and answers repeat
//!   queries by dirty-slice propagation instead of full repropagation
//!   (bounded table, TTL eviction, counters on `{"cmd": "stats"}`);
//! * **multi-model serving** — boot with
//!   [`ShardedRuntime::with_registry`] and every query resolves its
//!   model (an optional `"model"` field, or the default alias) against
//!   an `evprop-registry` [`ModelRegistry`](evprop_registry::ModelRegistry):
//!   `model-load` / `model-swap` / `model-unload` / `model-list`
//!   protocol commands load and retire versions while the dispatchers
//!   keep serving, in-flight queries and open sessions pin the exact
//!   version answering them, and alias swaps land on the next
//!   submission;
//! * **deadline-aware, fault-tolerant serving** — queries carry an
//!   optional `"deadline_ms"`: already-expired work is shed at dequeue
//!   (never executed) and in-flight work is cancelled cooperatively at
//!   task-graph boundaries; dead pool worker threads are reaped and
//!   respawned, failing only the job they were running; the
//!   `{"cmd": "drain"}` command closes admission, answers everything
//!   already admitted, and lets the host exit cleanly
//!   ([`ShardedRuntime::drain`], [`TcpServer::wait_for_drain`]); and
//!   [`ServerOptions`] bounds per-connection line length, idle time,
//!   and total connections.
//!
//! ```
//! use evprop_bayesnet::networks;
//! use evprop_core::{InferenceSession, Query};
//! use evprop_potential::{EvidenceSet, VarId};
//! use evprop_serve::{RuntimeConfig, ShardedRuntime};
//!
//! let session = InferenceSession::from_network(&networks::asia())?;
//! let rt = ShardedRuntime::new(session, RuntimeConfig::new(2, 1));
//! let marginal = rt.query(Query::new(VarId(3), EvidenceSet::new()))?;
//! assert!((marginal.sum() - 1.0).abs() < 1e-9);
//! # Ok::<(), evprop_serve::ServeError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod metrics;
mod protocol;
mod queue;
mod runtime;
mod server;
mod sessions;

pub use metrics::{quantile_of, Counter, FaultStats, LatencyHistogram, RuntimeStats, ShardStats};
pub use protocol::{
    format_drain_ack, format_error, format_model_list, format_model_loaded, format_model_swapped,
    format_model_unloaded, format_response, format_response_timed, format_session_ack,
    format_session_opened, format_session_response, format_stats, format_trace, parse_json,
    parse_request, parse_request_line, parse_request_value, request_model, request_session,
    resolve_finding, resolve_likelihood, with_model_tag, Json, ModelNames, NumericNames, Request,
};
pub use queue::{AdmissionQueue, PushError};
pub use runtime::{
    QuerySummary, QueryTiming, RuntimeConfig, ServeError, ServeResult, ShardedRuntime, Ticket,
};
pub use server::{ServerOptions, TcpServer};
pub use sessions::SessionTableStats;

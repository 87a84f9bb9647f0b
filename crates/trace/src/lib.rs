//! **evprop-trace** — task-level tracing and observability.
//!
//! The paper's claims (near-linear speedup, the collaborative scheduler
//! beating loop-parallel baselines, δ-partitioning filling idle
//! threads) are all claims about *where time goes per thread*. This
//! crate is the layer that makes a schedule observable:
//!
//! * an **event model** ([`SpanKind`], [`TraceEvent`]) covering every
//!   scheduler event — task execute (buffer, primitive kind, weight,
//!   part index), partition decisions, fetches, idle spins,
//!   arena checkouts — plus job- and query-level spans;
//! * per-thread **span recorders** ([`SpanRecorder`]) writing into
//!   fixed-capacity ring buffers: zero allocation on the hot path,
//!   drop-oldest on overflow with a counted [`ThreadTrace::dropped`],
//!   monotonic timestamps from one shared [`TraceClock`] epoch;
//! * a [`TraceSink`] bundling one recorder per worker thread (plus a
//!   control row for job/query/checkout events), drained into a
//!   [`Trace`] snapshot;
//! * a **Chrome-trace exporter** ([`chrome_trace_json`]) whose output
//!   loads directly in `chrome://tracing` / [Perfetto](https://ui.perfetto.dev);
//! * a **timeline analyzer** ([`analyze`]) computing per-thread
//!   busy/idle breakdowns, a load-imbalance score, and the
//!   observed cost rate used to compare wall time against the
//!   reroot critical-path estimate;
//! * the **shared statistic types** the rest of the workspace builds
//!   on: [`ThreadStats`]/[`RunReport`] (re-exported by `evprop-sched`)
//!   and the lock-free [`Counter`]/[`LatencyHistogram`] (backing
//!   `evprop-serve`'s `RuntimeStats`), so the scheduler's and the
//!   serving runtime's numbers come from one implementation and cannot
//!   drift apart.
//!
//! Recording is **per thread** by design: each worker owns one
//! recorder row, so events never interleave across threads within a
//! recorder and the hot path never contends. Merging happens once, at
//! export time ([`TraceSink::drain`]).
//!
//! The schedulers' recording hooks are always compiled too; they call
//! into this crate only while a [`TraceSink`] is attached.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analyze;
mod chrome;
mod clock;
mod event;
mod metrics;
mod recorder;
mod stats;

pub use analyze::{analyze, ThreadTimeline, TimelineAnalysis};
pub use chrome::chrome_trace_json;
pub use clock::TraceClock;
pub use event::{PrimitiveKind, SpanKind, TraceEvent};
pub use metrics::{quantile_of, Counter, LatencyHistogram};
pub use recorder::{SpanRecorder, ThreadTrace, Trace, TraceSink, DEFAULT_CAPACITY};
pub use stats::{imbalance_of, RunReport, ThreadStats};

//! Timeline analysis: turn a raw [`Trace`] into the per-thread
//! busy/idle breakdowns and load-imbalance score the paper's
//! Fig. 5–8 discussion is phrased in.

use crate::event::SpanKind;
use crate::recorder::Trace;
use crate::stats::imbalance_of;

/// What one recorder row's timeline amounts to.
#[derive(Clone, Debug, Default)]
pub struct ThreadTimeline {
    /// The recorder row.
    pub thread: usize,
    /// Nanoseconds inside task spans (primitive execution).
    pub busy_ns: u64,
    /// Nanoseconds inside idle-spin spans.
    pub idle_ns: u64,
    /// Local fetches recorded.
    pub fetches: u64,
    /// (Sub)tasks executed.
    pub tasks: u64,
    /// Total task weight (table entries) executed.
    pub weight: u64,
    /// Events lost to ring overflow (the breakdown above undercounts
    /// if this is nonzero).
    pub dropped: u64,
}

impl ThreadTimeline {
    fn is_worker(&self) -> bool {
        self.tasks > 0 || self.fetches > 0 || self.idle_ns > 0
    }
}

/// Aggregate analysis of a drained trace.
#[derive(Clone, Debug, Default)]
pub struct TimelineAnalysis {
    /// Per-row timelines, in row order (including the control row,
    /// which reports zero busy time).
    pub threads: Vec<ThreadTimeline>,
    /// Span of the whole trace: latest `end_ns` minus earliest
    /// `start_ns` over every event.
    pub wall_ns: u64,
    /// Total busy nanoseconds across worker rows.
    pub busy_ns: u64,
    /// Total idle-spin nanoseconds across worker rows.
    pub idle_ns: u64,
    /// Job spans observed (control row).
    pub jobs: u64,
    /// Query spans observed (control row).
    pub queries: u64,
    /// `max / mean` of per-worker executed weight (1.0 = balanced);
    /// same score as `RunReport::imbalance`.
    pub imbalance: f64,
    /// `busy / (wall × workers)`: the fraction of the parallel
    /// section's capacity spent in primitives.
    pub parallel_efficiency: f64,
    /// Observed cost rate `busy_ns / total weight` — multiply by a
    /// task graph's critical-path weight to estimate the reroot lower
    /// bound on wall time.
    pub ns_per_weight: f64,
}

impl TimelineAnalysis {
    /// Rows that actually ran scheduler work (excludes the control row
    /// and any idle workers that recorded nothing).
    pub fn worker_count(&self) -> usize {
        self.threads.iter().filter(|t| t.is_worker()).count()
    }

    /// Total task weight executed across workers.
    pub fn total_weight(&self) -> u64 {
        self.threads.iter().map(|t| t.weight).sum()
    }

    /// Estimated wall-time lower bound (nanoseconds) for a dependency
    /// chain of `critical_path_weight` table entries, at this trace's
    /// observed cost rate.
    pub fn critical_path_estimate_ns(&self, critical_path_weight: u64) -> u64 {
        (self.ns_per_weight * critical_path_weight as f64) as u64
    }
}

/// Computes per-thread and aggregate timelines from a drained trace.
pub fn analyze(trace: &Trace) -> TimelineAnalysis {
    let mut threads = Vec::with_capacity(trace.threads.len());
    let (mut min_start, mut max_end) = (u64::MAX, 0u64);
    let (mut jobs, mut queries) = (0u64, 0u64);
    for t in &trace.threads {
        let mut tl = ThreadTimeline {
            thread: t.thread,
            dropped: t.dropped_events,
            ..Default::default()
        };
        for e in &t.events {
            min_start = min_start.min(e.start_ns);
            max_end = max_end.max(e.end_ns);
            match e.kind {
                SpanKind::Task { weight, .. } => {
                    tl.busy_ns += e.duration_ns();
                    tl.tasks += 1;
                    tl.weight += weight;
                }
                SpanKind::IdleSpin => tl.idle_ns += e.duration_ns(),
                SpanKind::Fetch => tl.fetches += 1,
                SpanKind::Job { .. } => jobs += 1,
                SpanKind::Query { .. } => queries += 1,
                SpanKind::Partition { .. }
                | SpanKind::ArenaCheckout { .. }
                | SpanKind::PlanCache { .. }
                | SpanKind::Faults { .. } => {}
            }
        }
        threads.push(tl);
    }
    let workers: Vec<&ThreadTimeline> = threads.iter().filter(|t| t.is_worker()).collect();
    let busy_ns: u64 = workers.iter().map(|t| t.busy_ns).sum();
    let idle_ns: u64 = workers.iter().map(|t| t.idle_ns).sum();
    let weights: Vec<u64> = workers.iter().map(|t| t.weight).collect();
    let total_weight: u64 = weights.iter().sum();
    let wall_ns = max_end.saturating_sub(if min_start == u64::MAX { 0 } else { min_start });
    let capacity = wall_ns.saturating_mul(workers.len() as u64);
    TimelineAnalysis {
        imbalance: imbalance_of(&weights),
        parallel_efficiency: if capacity == 0 {
            0.0
        } else {
            busy_ns as f64 / capacity as f64
        },
        ns_per_weight: if total_weight == 0 {
            0.0
        } else {
            busy_ns as f64 / total_weight as f64
        },
        threads,
        wall_ns,
        busy_ns,
        idle_ns,
        jobs,
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PrimitiveKind;
    use crate::recorder::TraceSink;

    fn task(buffer: u32, weight: u64) -> SpanKind {
        SpanKind::Task {
            buffer,
            primitive: PrimitiveKind::Multiply,
            weight,
            part: None,
        }
    }

    #[test]
    fn analyze_reconstructs_per_thread_breakdown() {
        let sink = TraceSink::for_workers(2, 64);
        // worker 0: two tasks (300 ns busy, weight 30) and a fetch
        sink.recorder(0).instant(SpanKind::Fetch, 50);
        sink.recorder(0).span(task(0, 10), 100, 200);
        sink.recorder(0).span(task(1, 20), 200, 400);
        // worker 1: one task (100 ns busy, weight 10) + idle
        sink.recorder(1).instant(SpanKind::Fetch, 90);
        sink.recorder(1).span(task(2, 10), 100, 200);
        sink.recorder(1).span(SpanKind::IdleSpin, 200, 500);
        // control: the job
        sink.control().span(SpanKind::Job { tasks: 3 }, 0, 600);

        let a = analyze(&sink.drain());
        assert_eq!(a.threads.len(), 3);
        assert_eq!(a.worker_count(), 2);
        assert_eq!(a.wall_ns, 600);
        assert_eq!(a.busy_ns, 400);
        assert_eq!(a.idle_ns, 300);
        assert_eq!(a.jobs, 1);
        assert_eq!(a.queries, 0);
        assert_eq!(a.total_weight(), 40);
        let t0 = &a.threads[0];
        assert_eq!(
            (t0.busy_ns, t0.tasks, t0.weight, t0.fetches),
            (300, 2, 30, 1)
        );
        let t1 = &a.threads[1];
        assert_eq!((t1.busy_ns, t1.idle_ns, t1.fetches), (100, 300, 1));
        // weight 30 vs 10: max/mean = 30/20
        assert!((a.imbalance - 1.5).abs() < 1e-12);
        // 400 busy over 600 ns × 2 workers
        assert!((a.parallel_efficiency - 400.0 / 1200.0).abs() < 1e-12);
        // 400 ns / 40 weight = 10 ns per entry
        assert!((a.ns_per_weight - 10.0).abs() < 1e-12);
        assert_eq!(a.critical_path_estimate_ns(25), 250);
    }

    #[test]
    fn empty_trace_analyzes_to_zeroes() {
        let a = analyze(&TraceSink::for_workers(4, 8).drain());
        assert_eq!(a.wall_ns, 0);
        assert_eq!(a.worker_count(), 0);
        assert_eq!(a.parallel_efficiency, 0.0);
        assert_eq!(a.imbalance, 1.0);
    }
}

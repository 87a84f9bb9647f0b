//! Per-thread execution statistics (the measurements behind Fig. 8).
//!
//! These types live here — rather than in `evprop-sched`, which
//! re-exports them — so the timeline analyzer, the serving runtime and
//! the scheduler all report through one set of definitions.

use std::time::Duration;

/// What one worker thread did during a run.
#[derive(Clone, Debug, Default)]
pub struct ThreadStats {
    /// Time spent executing node-level primitives ("computation time" in
    /// the paper's Fig. 8 terminology). A one-worker job that no sink
    /// records reads one clock pair around its whole walk instead of
    /// one per task, so there `busy` also holds the walk's ready-ring
    /// and dependency-counter upkeep.
    pub busy: Duration,
    /// Time spent in the scheduler itself: fetching, allocating,
    /// partitioning, waiting.
    pub overhead: Duration,
    /// The part of `overhead` spent spinning with an empty ready list —
    /// the cost a persistent pool must keep low between a job's
    /// dependency waves.
    pub idle_spin: Duration,
    /// Number of (sub)tasks executed.
    pub tasks_executed: usize,
    /// Total weight (table entries processed) executed.
    pub weight_executed: u64,
    /// Ready (sub)tasks this thread handed to a local list (the
    /// Allocate module ran here).
    pub allocations: u64,
    /// Fresh `PotentialTable`s this thread allocated during execution
    /// (partial tables of partitioned marginalizations) — `0` on the
    /// steady-state pooled path for unpartitioned runs, and the metric
    /// the arena-reuse work drives down.
    pub tables_allocated: u64,
}

impl ThreadStats {
    /// `busy / (busy + overhead)` — the computation-time ratio of
    /// Fig. 8(b); 1.0 for a thread that never waited.
    pub fn compute_ratio(&self) -> f64 {
        let total = self.busy + self.overhead;
        if total.is_zero() {
            return 1.0;
        }
        self.busy.as_secs_f64() / total.as_secs_f64()
    }
}

/// Outcome of one scheduler run (one **job** on a pool).
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Per-thread statistics, indexed by worker id.
    pub threads: Vec<ThreadStats>,
    /// Wall-clock time of the parallel section: for a pooled run this is
    /// the per-job wall time (handoff to last worker done), excluding
    /// thread spawn — which a one-shot run pays inside this figure.
    pub wall: Duration,
    /// How many tasks the Partition module split.
    pub partitioned_tasks: usize,
    /// Total dynamic subtasks spawned by partitioning.
    pub subtasks_spawned: usize,
}

impl RunReport {
    /// Total Allocate-module placements across threads.
    pub fn total_allocations(&self) -> u64 {
        self.threads.iter().map(|t| t.allocations).sum()
    }

    /// Total fresh tables allocated during execution across threads.
    pub fn total_tables_allocated(&self) -> u64 {
        self.threads.iter().map(|t| t.tables_allocated).sum()
    }

    /// Total time threads spent spinning idle (see
    /// [`ThreadStats::idle_spin`]).
    pub fn total_idle_spin(&self) -> Duration {
        self.threads.iter().map(|t| t.idle_spin).sum()
    }

    /// Load imbalance: max over threads of `weight_executed` divided by
    /// the mean (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        let weights: Vec<u64> = self.threads.iter().map(|t| t.weight_executed).collect();
        imbalance_of(&weights)
    }
}

/// Load imbalance of a per-thread weight distribution: `max / mean`
/// (1.0 = perfectly balanced, 1.0 for empty or all-zero input). Used
/// by both [`RunReport::imbalance`] and the timeline analyzer so the
/// two scores are directly comparable.
pub fn imbalance_of(weights: &[u64]) -> f64 {
    if weights.is_empty() {
        return 1.0;
    }
    let max = *weights.iter().max().unwrap() as f64;
    let mean = weights.iter().sum::<u64>() as f64 / weights.len() as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_ratio_bounds() {
        let mut s = ThreadStats::default();
        assert_eq!(s.compute_ratio(), 1.0);
        s.busy = Duration::from_millis(99);
        s.overhead = Duration::from_millis(1);
        let r = s.compute_ratio();
        assert!(r > 0.98 && r < 1.0);
    }

    #[test]
    fn imbalance_of_balanced_run_is_one() {
        let report = RunReport {
            threads: vec![
                ThreadStats {
                    weight_executed: 100,
                    ..Default::default()
                };
                4
            ],
            ..Default::default()
        };
        assert_eq!(report.imbalance(), 1.0);
    }

    #[test]
    fn imbalance_detects_skew() {
        let mut threads = vec![
            ThreadStats {
                weight_executed: 100,
                ..Default::default()
            };
            2
        ];
        threads[1].weight_executed = 300;
        let report = RunReport {
            threads,
            ..Default::default()
        };
        assert_eq!(report.imbalance(), 1.5);
    }

    #[test]
    fn empty_report_defaults() {
        let r = RunReport::default();
        assert_eq!(r.imbalance(), 1.0);
        assert_eq!(r.partitioned_tasks, 0);
        assert_eq!(imbalance_of(&[]), 1.0);
        assert_eq!(imbalance_of(&[0, 0]), 1.0);
    }
}

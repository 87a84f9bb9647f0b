//! Scheduler configuration.

/// Tunables of the collaborative scheduler.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Number of worker threads `P`.
    pub num_threads: usize,
    /// The partition threshold δ (§6): a task whose partitionable table
    /// has more entries than this is split into subtasks of at most δ
    /// entries. `None` disables the Partition module (as the paper does
    /// for the Fig. 5 rerooting experiment).
    pub partition_threshold: Option<usize>,
    /// Fault injection for tests and the robustness harness: the static
    /// task at this index panics when executed, exercising the pool's
    /// panic containment. Hidden because it is not part of the stable
    /// scheduling API — only the fault proptests and `robustness_bench`
    /// set it. One branch per static task when unset.
    #[doc(hidden)]
    pub poison_task: Option<usize>,
}

impl SchedulerConfig {
    /// A configuration with `num_threads` workers, partitioning at the
    /// paper-ish default δ = 4096 entries.
    pub fn with_threads(num_threads: usize) -> Self {
        SchedulerConfig {
            num_threads,
            partition_threshold: Some(4096),
            poison_task: None,
        }
    }

    /// Disables the Partition module (builder-style).
    pub fn without_partitioning(mut self) -> Self {
        self.partition_threshold = None;
        self
    }

    /// Sets the partition threshold δ (builder-style).
    pub fn with_delta(mut self, delta: usize) -> Self {
        assert!(delta > 0, "partition threshold must be positive");
        self.partition_threshold = Some(delta);
        self
    }
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig::with_threads(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let c = SchedulerConfig::with_threads(4).with_delta(128);
        assert_eq!(c.num_threads, 4);
        assert_eq!(c.partition_threshold, Some(128));
        let c = c.without_partitioning();
        assert_eq!(c.partition_threshold, None);
    }

    #[test]
    fn default_has_at_least_one_thread() {
        assert!(SchedulerConfig::default().num_threads >= 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_delta_rejected() {
        let _ = SchedulerConfig::with_threads(1).with_delta(0);
    }
}

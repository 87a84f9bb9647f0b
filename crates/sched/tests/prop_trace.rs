//! Tracing must be an observer, never a participant: on random
//! junction trees, a propagation recorded through an attached
//! [`TraceSink`] must produce **bit-identical** tables to the same
//! propagation with no sink — recording reads the clock, it never
//! reorders, re-times, or re-folds any arithmetic.
//!
//! Also checks the analyzer's accounting against the scheduler's own
//! [`ThreadStats`]: both are fed by the same `Instant` pair per task,
//! so their per-thread busy totals must agree within 1% (the
//! acceptance bar; the deliberate design makes them agree exactly
//! whenever no ring overflow drops events).

use evprop_potential::{EvidenceSet, VarId};
use evprop_sched::{CollabPool, SchedulerConfig, TableArena};
use evprop_taskgraph::{PropagationMode, TaskGraph};
use evprop_trace::{analyze, TraceSink};
use evprop_workloads::{materialize, random_tree, TreeParams};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn traced_propagation_is_bit_identical_to_untraced(
        seed in 0u64..1_000_000,
        num_cliques in 2usize..8,
        width in 2usize..4,
        states in 2usize..4,
        degree in 1usize..4,
        threads in 1usize..5,
        delta_small in proptest::bool::ANY,
        max_mode in proptest::bool::ANY,
        observe in proptest::bool::ANY,
    ) {
        let params = TreeParams::new(num_cliques, width, states, degree).with_seed(seed);
        let shape = random_tree(&params);
        let jt = materialize(&shape, seed);
        let mode = if max_mode {
            PropagationMode::MaxProduct
        } else {
            PropagationMode::SumProduct
        };
        let graph = TaskGraph::from_shape_mode(&shape, mode);
        let mut ev = EvidenceSet::new();
        if observe {
            ev.observe(VarId(0), (seed as usize) % states);
        }
        let mut cfg = SchedulerConfig::with_threads(threads);
        cfg.partition_threshold = Some(if delta_small { 3 } else { 4096 });

        let pool = CollabPool::new(threads);

        // Untraced run: the pool has never seen a sink.
        let plain = TableArena::initialize(&graph, jt.potentials(), &ev);
        pool.run(&graph, &plain, &cfg).expect("untraced job");
        let plain = plain.into_tables();

        // Traced run of the identical job on the same pool.
        let sink = Arc::new(TraceSink::for_workers(threads, 1 << 14));
        pool.set_trace_sink(Some(Arc::clone(&sink)));
        let traced = TableArena::initialize(&graph, jt.potentials(), &ev);
        pool.run(&graph, &traced, &cfg).expect("traced job");
        let traced = traced.into_tables();
        pool.set_trace_sink(None);

        prop_assert_eq!(plain.len(), traced.len());
        for (i, (a, b)) in plain.iter().zip(&traced).enumerate() {
            prop_assert_eq!(
                a.data(), b.data(),
                "buffer {} differs between traced and untraced runs (threads {})",
                i, threads
            );
        }

        // The sink actually saw the job: one Job span on the control
        // row, and at least one task span per executed task.
        let trace = sink.drain();
        let a = analyze(&trace);
        prop_assert_eq!(a.jobs, 1);
        prop_assert!(
            a.threads.iter().map(|t| t.tasks).sum::<u64>() >= graph.num_tasks() as u64,
            "fewer task spans than graph tasks"
        );
    }
}

/// Analyzer busy totals vs the scheduler's own `ThreadStats`, on a
/// bigger tree where per-thread busy time is comfortably measurable.
#[test]
fn analyzer_busy_agrees_with_thread_stats_within_one_percent() {
    let threads = 4;
    let shape = random_tree(&TreeParams::new(48, 9, 2, 3).with_seed(0xF9));
    let jt = materialize(&shape, 0xF9);
    let graph = TaskGraph::from_shape(&shape);
    let mut cfg = SchedulerConfig::with_threads(threads);
    cfg.partition_threshold = Some(4096);

    let pool = CollabPool::new(threads);
    let sink = Arc::new(TraceSink::for_workers(threads, 1 << 16));
    pool.set_trace_sink(Some(Arc::clone(&sink)));

    let runs = 3;
    let mut stats_busy = vec![0u64; threads];
    for _ in 0..runs {
        let arena = TableArena::initialize(&graph, jt.potentials(), &EvidenceSet::new());
        let report = pool.run(&graph, &arena, &cfg).expect("job");
        for (i, t) in report.threads.iter().enumerate() {
            stats_busy[i] += u64::try_from(t.busy.as_nanos()).unwrap();
        }
    }

    let trace = sink.drain();
    assert_eq!(trace.total_dropped(), 0, "ring overflow would skew totals");
    let a = analyze(&trace);
    for (i, &stat_ns) in stats_busy.iter().enumerate() {
        let span_ns = a.threads[i].busy_ns;
        assert!(stat_ns > 0, "thread {i} recorded no busy time");
        let dev = (span_ns as f64 - stat_ns as f64).abs() / stat_ns as f64;
        assert!(
            dev < 0.01,
            "thread {i}: analyzer busy {span_ns} ns vs ThreadStats {stat_ns} ns ({:.3}% off)",
            dev * 100.0
        );
    }
}

/// The one-worker walk reads per-task clocks only while a sink records.
/// Recording: exactly one `Task` span per task on row 0 (nothing here
/// is over δ) and `busy` summed from the spans' own instants. Not
/// recording: `busy` is the walk's one clock pair — still positive,
/// with nothing spun and a finite computation ratio.
#[test]
fn one_worker_walk_is_clocked_per_task_only_while_recording() {
    let shape = random_tree(&TreeParams::new(48, 9, 2, 3).with_seed(0xF9));
    let jt = materialize(&shape, 0xF9);
    let graph = TaskGraph::from_shape(&shape);
    let cfg = SchedulerConfig::with_threads(1).without_partitioning();
    let pool = CollabPool::new(1);
    let run = || {
        let arena = TableArena::initialize(&graph, jt.potentials(), &EvidenceSet::new());
        let report = pool.run(&graph, &arena, &cfg).expect("job");
        report.threads[0].clone()
    };

    let sink = Arc::new(TraceSink::for_workers(1, 1 << 14));
    pool.set_trace_sink(Some(Arc::clone(&sink)));
    let recorded = run();
    pool.set_trace_sink(None);
    let trace = sink.drain();
    assert_eq!(trace.total_dropped(), 0);
    let row = &analyze(&trace).threads[0];
    assert_eq!(row.tasks, graph.num_tasks() as u64);
    assert_eq!(row.fetches, graph.num_tasks() as u64);
    let stat_ns = recorded.busy.as_nanos() as f64;
    assert!(stat_ns > 0.0);
    assert!(
        (row.busy_ns as f64 - stat_ns).abs() / stat_ns < 0.01,
        "analyzer busy {} ns vs ThreadStats {stat_ns} ns",
        row.busy_ns
    );

    let plain = run();
    assert_eq!(plain.tasks_executed, graph.num_tasks());
    assert!(!plain.busy.is_zero());
    assert!(plain.idle_spin.is_zero());
    assert!(plain.compute_ratio().is_finite());
    assert!(
        sink.drain().total_events() == 0,
        "detached sink saw the job"
    );
}

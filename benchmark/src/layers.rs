//! The traced pass (`--trace 1`): every layer measured from outside, by
//! recording spans around calls into its public functions.
//!
//! The pass first runs the workload's own closed loop twice, untraced
//! and traced (their difference is the tracing overhead), then a fixed
//! suite of probes on the workload's models and questions. Every probe
//! runs on every workload, so each per-layer metric exists everywhere;
//! README.md says which end-to-end metric each is predicted to move.
//!
//! Per-query probes replay the same questions in several rounds and keep
//! each question's fastest round before taking the median over questions
//! (see [`Recorder::typical_us`]). A round goes through *all* probes, so
//! the repeats of one question lie seconds apart and a burst of
//! interference cannot cover them all.

use crate::inputs::{max_abs_diff, Inputs, Model, Path, Question, Source, Spec};
use crate::spans::{write_json, Recorder};
use crate::system::{array_field, Connection, System, Window, WORKERS};
use crate::{host, info, stats, Metric, Outcome};
use evprop_bayesnet::bif;
use evprop_core::{CompiledModel, Query, ShardState};
use evprop_incremental::{IncrementalSession, QueryMode};
use evprop_jtree::{compile_network, select_root, CliqueId, JunctionTree, TreeShape};
use evprop_potential::plan::divide_planned;
use evprop_potential::{EntryRange, EvidenceSet, KernelPlan, PotentialTable, VarId};
use evprop_registry::ModelRegistry;
use evprop_sched::{SchedulerConfig, TableArena};
use evprop_serve::{format_response, parse_request_line, TcpServer};
use evprop_taskgraph::{
    execute_full, BufferId, EdgeUpdate, PlanId, SlicePlan, TaskGraph, TaskId, TaskKind,
};
use evprop_workloads::{materialize, random_tree, TreeParams};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Questions each stateless probe replays (the first ones of the stream).
const PROBE_QUESTIONS: usize = 128;
/// Rounds of per-query probes before the layer closure is first checked,
/// and how many more times that many rounds may be added if it fails.
const ROUNDS: usize = 4;
const EXTRA_ATTEMPTS: usize = 2;
/// Times every set-up probe (parse, compile, boot, install…) is run.
const SETUP_REPEATS: usize = 7;
/// Load window of the traced pass, per window (untraced and traced).
const WINDOW_SECONDS: u64 = 4;
const WINDOW_WARM_UP: Duration = Duration::from_secs(1);
/// The blocking-path self times must sum to the median latency within
/// this band, or the pass fails: a layer nobody attributed cannot hide.
const CLOSURE_BAND: f64 = 0.15;

/// Collects metrics and the operation tally of the pass.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Sets a metric (a later value for the same name replaces it).
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => self.metrics.push(Metric { name, value, unit }),
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }

    /// Counts one checked answer.
    fn check(&mut self, got: Option<&[f64]>, q: &Question, tolerance: f64) {
        self.attempted += 1;
        let ok = got
            .and_then(|g| max_abs_diff(g, &q.answer))
            .is_some_and(|d| d <= tolerance);
        self.failed += u64::from(!ok);
    }
}

fn buffer_len(graph: &TaskGraph, buffer: BufferId) -> usize {
    graph.buffers()[buffer.index()].domain.size()
}

/// Bytes of one arena (every buffer of the graph, 8 bytes an entry).
fn arena_bytes(graph: &TaskGraph) -> f64 {
    graph
        .buffers()
        .iter()
        .map(|b| b.domain.size() as f64 * 8.0)
        .sum()
}

/// Bytes one full propagation reads and writes, computed from the
/// buffer sizes of every task (not measured: cache misses are ignored).
fn bytes_per_query(graph: &TaskGraph) -> f64 {
    graph
        .tasks()
        .iter()
        .map(|t| {
            let read: usize = t
                .kind
                .reads()
                .into_iter()
                .map(|b| buffer_len(graph, b))
                .sum();
            (read + buffer_len(graph, t.kind.dst())) as f64 * 8.0
        })
        .sum()
}

/// The smallest clique covering `var` — the one `posterior_on` reads.
fn target_clique(shape: &TreeShape, var: VarId) -> CliqueId {
    (0..shape.num_cliques())
        .map(CliqueId)
        .filter(|&c| shape.domain(c).contains(var))
        .min_by_key(|&c| shape.domain(c).size())
        .expect("targets are variables of the model")
}

/// Replica of `posterior_on`'s read-out: scan for the target clique,
/// marginalise it onto the variable, normalise.
fn read_out(model: &CompiledModel, arena: &mut TableArena, var: VarId) -> PotentialTable {
    let target = target_clique(model.junction_tree().shape(), var);
    let table = &arena.tables_mut()[model.graph().clique_buffer(target).index()];
    let sub = table.domain().project(&[var]);
    let mut marginal = table
        .marginalize(&sub)
        .expect("variable lies in its clique");
    marginal.normalize();
    marginal
}

/// One full propagation in topological order through the interned
/// `KernelPlan`s — the calls a pool worker makes for each task, with no
/// scheduler around them. `plans[t]` is task `t`'s plan and `buffers`
/// holds the data of every arena buffer.
fn execute_planned(
    graph: &TaskGraph,
    order: &[TaskId],
    plans: &[Option<Arc<KernelPlan>>],
    buffers: &mut [Vec<f64>],
) {
    for &t in order {
        let plan = plans[t.index()].as_deref();
        let kind = graph.task(t).kind;
        // Taking the destination out of the table leaves the sources
        // borrowable without any copy or allocation.
        let mut out = std::mem::take(&mut buffers[kind.dst().index()]);
        let done = match kind {
            TaskKind::Marginalize { src, .. } => {
                out.fill(0.0);
                plan.expect("marginalisation has a plan")
                    .marginalize_sum_into(&buffers[src.index()], &mut out)
            }
            TaskKind::Divide { num, den, .. } => {
                let range = EntryRange::full(out.len());
                divide_planned(
                    &buffers[num.index()],
                    &buffers[den.index()],
                    range,
                    &mut out,
                )
            }
            TaskKind::Extend { src, .. } => plan
                .expect("extension has a plan")
                .extend_into(&buffers[src.index()], &mut out),
            TaskKind::Multiply { src, .. } => plan
                .expect("multiplication has a plan")
                .multiply_into(&buffers[src.index()], &mut out),
        };
        done.expect("plans were compiled for these buffers");
        buffers[kind.dst().index()] = out;
    }
}

/// The slice a one-finding delta on `var` needs before `target` can be
/// read: re-collect every clique holding `var` and their ancestors,
/// then distribute along the root-to-target path.
fn one_finding_slice(shape: &TreeShape, var: VarId, target: CliqueId) -> SlicePlan {
    let mut recollect: Vec<bool> = (0..shape.num_cliques())
        .map(|c| shape.domain(CliqueId(c)).contains(var))
        .collect();
    for c in shape.postorder() {
        if let (true, Some(parent)) = (recollect[c.index()], shape.parent(c)) {
            recollect[parent.index()] = true;
        }
    }
    let path = shape
        .path_from_root(target)
        .into_iter()
        .skip(1)
        .map(|c| {
            let update = if recollect[c.index()] {
                EdgeUpdate::Fresh
            } else {
                EdgeUpdate::Stale
            };
            (c, update)
        })
        .collect();
    SlicePlan { recollect, path }
}

/// Set-up layers, each timed on its own: parse, junction-tree
/// compilation, re-rooting, task-graph build, registry install. Returns
/// the last registry installed (every model of the workload, warm).
fn setup_probes(inputs: &Inputs, rec: &mut Recorder, report: &mut Report) -> Arc<ModelRegistry> {
    let mut registry = Arc::new(ModelRegistry::new());
    let (mut interned, mut plan_bytes) = (0usize, 0usize);
    for repeat in 0..SETUP_REPEATS {
        rec.set_operation(repeat as u64);
        let networks: Vec<bif::BifNetwork> = rec.span("bayesnet.bif_parse", || {
            inputs
                .sources
                .iter()
                .filter_map(|s| match s {
                    Source::Bif { text, .. } => Some(bif::parse(text).expect("BIF parses")),
                    Source::Tree { .. } => None,
                })
                .collect()
        });
        // What the jtree crate does on each path: networks are compiled
        // (moralise, triangulate, assign CPTs); generated trees are
        // validated into a `JunctionTree` by `from_parts`.
        let parts: Vec<_> = inputs
            .sources
            .iter()
            .filter_map(|s| match s {
                Source::Tree { params, seed } => {
                    Some(materialize(&random_tree(params), *seed).into_parts())
                }
                Source::Bif { .. } => None,
            })
            .collect();
        let mut trees: Vec<JunctionTree> = rec.span("jtree.compile", || {
            let compiled = networks
                .iter()
                .map(|net| compile_network(&net.network).expect("network compiles"));
            let validated = parts.into_iter().map(|(shape, potentials)| {
                JunctionTree::from_parts(shape, potentials).expect("parts agree")
            });
            compiled.chain(validated).collect()
        });
        rec.span("jtree.reroot", || {
            for jt in &mut trees {
                let choice = select_root(jt.shape());
                jt.reroot(choice.root)
                    .expect("Algorithm 1 returns a clique");
            }
        });
        let graphs: Vec<TaskGraph> = rec.span("taskgraph.build", || {
            trees
                .iter()
                .map(|jt| TaskGraph::from_shape(jt.shape()))
                .collect()
        });
        if repeat == 0 {
            for graph in &graphs {
                let plans = graph.plans();
                for i in 0..plans.len() {
                    black_box(plans.get(PlanId(i as u32)));
                }
                interned += plans.len();
                plan_bytes += plans.resident_bytes();
            }
        }
        // Installs warm a model up (compile every plan, answer one
        // query), so each repeat installs freshly built models.
        let fresh: Vec<Model> = inputs.sources.iter().map(Model::build).collect();
        registry = rec.span("registry.install", || {
            let registry = Arc::new(ModelRegistry::new());
            for m in &fresh {
                registry
                    .install(m.name, Arc::clone(&m.compiled), Arc::clone(&m.names))
                    .expect("model installs");
            }
            registry
        });
    }
    let every = u64::MAX;
    let from_text = inputs
        .sources
        .iter()
        .all(|s| matches!(s, Source::Bif { .. }));
    let parse_us = if from_text {
        rec.typical_us("bayesnet.bif_parse", every)
    } else {
        0.0
    };
    report.put("bayesnet.bif_parse_us", parse_us, "us");
    report.put(
        "jtree.compile_us",
        rec.typical_us("jtree.compile", every),
        "us",
    );
    report.put(
        "jtree.reroot_us",
        rec.typical_us("jtree.reroot", every),
        "us",
    );
    report.put(
        "taskgraph.build_us",
        rec.typical_us("taskgraph.build", every),
        "us",
    );
    report.put("taskgraph.plans_interned", interned as f64, "count");
    report.put("taskgraph.plan_bytes", plan_bytes as f64, "bytes");
    report.put(
        "registry.install_us",
        rec.typical_us("registry.install", every),
        "us",
    );
    registry
}

/// Median nanoseconds per table entry of `kernel`, which processes
/// `entries` entries per call. Calls are batched so one timing covers
/// at least ~20 µs.
fn ns_per_entry(entries: usize, mut kernel: impl FnMut()) -> f64 {
    let calls = (20_000 / entries.max(1)).max(1);
    let samples: Vec<f64> = (0..60)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                kernel();
            }
            start.elapsed().as_nanos() as f64 / (calls * entries) as f64
        })
        .collect();
    stats::median(&samples)
}

/// Whether a task is of one primitive.
type IsKind = fn(&TaskKind) -> bool;

/// The four node-level primitives, each through its `KernelPlan` entry
/// point (the dispatch of [`execute_planned`]) on the heaviest task of
/// its kind among the workload's models.
fn kernel_probes(models: &[Model], report: &mut Report) {
    let kinds: [(&'static str, IsKind); 4] = [
        ("potential.marginalize_ns_per_entry", |k| {
            matches!(k, TaskKind::Marginalize { .. })
        }),
        ("potential.extend_ns_per_entry", |k| {
            matches!(k, TaskKind::Extend { .. })
        }),
        ("potential.multiply_ns_per_entry", |k| {
            matches!(k, TaskKind::Multiply { .. })
        }),
        ("potential.divide_ns_per_entry", |k| {
            matches!(k, TaskKind::Divide { .. })
        }),
    ];
    for (metric, want) in kinds {
        let (graph, task) = models
            .iter()
            .flat_map(|m| {
                let graph = m.compiled.graph();
                (0..graph.num_tasks()).map(move |t| (graph, TaskId(t)))
            })
            .filter(|(g, t)| want(&g.task(*t).kind))
            .max_by_key(|(g, t)| g.task(*t).weight)
            .expect("every graph has every primitive");
        let kind = graph.task(task).kind;
        let mut plans = vec![None; graph.num_tasks()];
        plans[task.index()] = graph.task_plan(task);
        // Sources of ones keep a multiplied or divided destination from
        // drifting to 0 or ∞ over the repeats.
        let mut buffers = vec![Vec::new(); graph.buffers().len()];
        for b in kind.reads() {
            buffers[b.index()] = vec![1.0; buffer_len(graph, b)];
        }
        buffers[kind.dst().index()] = vec![0.5; buffer_len(graph, kind.dst())];
        let ns = ns_per_entry(graph.task(task).weight as usize, || {
            execute_planned(graph, &[task], &plans, black_box(&mut buffers))
        });
        report.put(metric, ns, "ns");
    }
}

/// State the per-query probes keep between rounds.
struct Probes<'a> {
    models: &'a [Model],
    inputs: &'a Inputs,
    /// Whether queries name their model (the runtime serves a registry).
    tagged: bool,
    /// A shard the benchmark owns, configured like the runtime's.
    shard: ShardState,
    registry: Arc<ModelRegistry>,
    /// Per model: topological order and every task's interned plan.
    orders: Vec<Vec<TaskId>>,
    plans: Vec<Vec<Option<Arc<KernelPlan>>>>,
    /// Per model: a session the benchmark owns, a scaffold for slice
    /// builds, and a session opened through the runtime.
    sessions: Vec<IncrementalSession>,
    scaffolds: Vec<TaskGraph>,
    served_sessions: Vec<u64>,
    /// A second front-end on the workload's runtime, and its client.
    _server: TcpServer,
    connection: Connection,
    rounds: usize,
    // Tallies over all rounds.
    jobs: usize,
    tasks: usize,
    busy: Duration,
    scheduled: Duration,
    request_bytes: usize,
    response_bytes: usize,
    responses: usize,
    /// Session query modes of the latest round: (cached, sliced, full,
    /// dirty cliques over the sliced ones).
    modes: (u64, u64, u64, u64),
}

/// One probe applied to one question (its index in the stream given).
type Step<'a> = fn(&mut Probes<'a>, &System, usize, &Question, &mut Recorder, &mut Report);

impl<'a> Probes<'a> {
    fn new(
        models: &'a [Model],
        inputs: &'a Inputs,
        system: &System,
        registry: Arc<ModelRegistry>,
        rec: &mut Recorder,
    ) -> Self {
        let shard = ShardState::new(SchedulerConfig::with_threads(WORKERS));
        let graphs = || models.iter().map(|m| m.compiled.graph());
        // Sessions open from a snapshot of the empty-evidence
        // calibration, as the runtime's do, then take the evidence the
        // cycle's last question leaves behind.
        let mut sessions = Vec::new();
        for (m, model) in models.iter().enumerate() {
            let mut calibrating = IncrementalSession::new(Arc::clone(&model.compiled));
            calibrating
                .calibrate_full(&shard)
                .expect("calibration runs");
            let base = calibrating
                .snapshot()
                .expect("no pending deltas after calibrate");
            let mut session = None;
            for repeat in 0..SETUP_REPEATS {
                rec.set_operation((repeat * models.len() + m) as u64);
                session = Some(rec.span("incremental.open", || {
                    IncrementalSession::from_snapshot(Arc::clone(&model.compiled), &base)
                }));
            }
            let mut session = session.expect("at least one open");
            for e in inputs.evidence_before_cycle(m).iter() {
                session.observe(e.var, e.state).expect("finding is valid");
            }
            sessions.push(session);
        }
        let server = system.bind();
        let connection = Connection::open(&server);
        Probes {
            models,
            inputs,
            tagged: system.registry.is_some(),
            orders: graphs()
                .map(|g| g.topological_order().expect("acyclic"))
                .collect(),
            plans: graphs()
                .map(|g| (0..g.num_tasks()).map(|t| g.task_plan(TaskId(t))).collect())
                .collect(),
            scaffolds: graphs().map(TaskGraph::slice_scaffold).collect(),
            served_sessions: (0..models.len())
                .map(|m| system.open_session(m, inputs))
                .collect(),
            sessions,
            shard,
            registry,
            _server: server,
            connection,
            rounds: 0,
            jobs: 0,
            tasks: 0,
            busy: Duration::ZERO,
            scheduled: Duration::ZERO,
            request_bytes: 0,
            response_bytes: 0,
            responses: 0,
            modes: (0, 0, 0, 0),
        }
    }

    /// One round: every per-query probe once over its questions. Each
    /// probe is a loop of its own, so that — like the closed loop it
    /// stands for — it runs with the caches its own previous operation
    /// left, not those of a different probe.
    fn round(&mut self, system: &System, rec: &mut Recorder, report: &mut Report) {
        let inputs = self.inputs;
        let probe = &inputs.questions[..PROBE_QUESTIONS];
        let cycle = &inputs.questions[..];
        let first_probe = (self.rounds * probe.len()) as u64;
        let first_cycle = (self.rounds * cycle.len()) as u64;
        let steps: [Step<'a>; 6] = [
            Self::decomposed,
            Self::intact,
            Self::sequential,
            Self::planned,
            Self::in_process,
            Self::over_tcp,
        ];
        for step in steps {
            for (i, q) in probe.iter().enumerate() {
                rec.set_operation(first_probe + i as u64);
                step(self, system, i, q, rec, report);
            }
        }
        // The session cycle only closes on itself after all of it.
        self.modes = (0, 0, 0, 0);
        let steps: [Step<'a>; 2] = [Self::own_session, Self::served_session];
        for step in steps {
            for (i, q) in cycle.iter().enumerate() {
                rec.set_operation(first_cycle + i as u64);
                step(self, system, i, q, rec, report);
            }
        }
        self.rounds += 1;
    }

    /// The stateless blocking path taken apart on the benchmark's own
    /// shard: checkout, reset, job, read-out, recycle.
    fn decomposed(
        &mut self,
        _: &System,
        _: usize,
        q: &Question,
        rec: &mut Recorder,
        report: &mut Report,
    ) {
        let shard = &self.shard;
        let model = &self.models[q.model].compiled;
        let (jt, graph) = (model.junction_tree(), model.graph());
        let whole = rec.begin("core.posterior_decomposed");
        let mut arena = rec.span("sched.arena_checkout", || {
            shard.checkout(graph, jt.potentials())
        });
        rec.span("sched.arena_reset", || {
            arena.reset(graph, jt.potentials(), &q.evidence)
        });
        rec.span("sched.run_job", || shard.run_job(graph, &arena))
            .expect("job runs");
        let marginal = rec.span("core.readout", || read_out(model, &mut arena, q.target));
        rec.span("sched.arena_recycle", || shard.recycle(arena));
        rec.end(whole);
        report.check(Some(marginal.data()), q, 1e-12);
        let job = shard.last_report().expect("a job just ran");
        self.jobs += 1;
        for t in &job.threads {
            self.tasks += t.tasks_executed;
            self.busy += t.busy;
            self.scheduled += t.busy + t.overhead;
        }
    }

    /// The same path intact: `posterior_on` on a checked-out arena.
    fn intact(
        &mut self,
        _: &System,
        _: usize,
        q: &Question,
        rec: &mut Recorder,
        report: &mut Report,
    ) {
        let model = &self.models[q.model].compiled;
        let (jt, graph) = (model.junction_tree(), model.graph());
        let mut arena = self.shard.checkout(graph, jt.potentials());
        let answer = rec.span("core.posterior", || {
            self.shard
                .posterior_on(jt, graph, &mut arena, q.target, &q.evidence)
        });
        self.shard.recycle(arena);
        report.check(answer.ok().as_ref().map(|t| t.data()), q, 1e-12);
    }

    /// `execute_full` over the topological order: the plain sequential
    /// engine's propagation.
    fn sequential(
        &mut self,
        _: &System,
        _: usize,
        q: &Question,
        rec: &mut Recorder,
        report: &mut Report,
    ) {
        let model = &self.models[q.model].compiled;
        let (jt, graph) = (model.junction_tree(), model.graph());
        let mut arena = self.shard.checkout(graph, jt.potentials());
        arena.reset(graph, jt.potentials(), &q.evidence);
        rec.span("taskgraph.seq_exec", || {
            let tables = arena.tables_mut();
            for &t in &self.orders[q.model] {
                execute_full(&graph.task(t).kind, tables);
            }
        });
        let answer = read_out(model, &mut arena, q.target);
        self.shard.recycle(arena);
        report.check(Some(answer.data()), q, 1e-12);
    }

    /// The same order through the interned plans — kernel time alone —
    /// and, beside it, building the slice graph one finding's delta needs.
    fn planned(
        &mut self,
        _: &System,
        _: usize,
        q: &Question,
        rec: &mut Recorder,
        report: &mut Report,
    ) {
        let model = &self.models[q.model].compiled;
        let (jt, graph) = (model.junction_tree(), model.graph());
        let mut arena = self.shard.checkout(graph, jt.potentials());
        arena.reset(graph, jt.potentials(), &q.evidence);
        let mut buffers: Vec<Vec<f64>> = arena
            .tables_mut()
            .iter()
            .map(|t| t.data().to_vec())
            .collect();
        rec.span("potential.planned_exec", || {
            execute_planned(
                graph,
                &self.orders[q.model],
                &self.plans[q.model],
                &mut buffers,
            )
        });
        for (table, data) in arena.tables_mut().iter_mut().zip(&buffers) {
            table.data_mut().copy_from_slice(data);
        }
        let answer = read_out(model, &mut arena, q.target);
        self.shard.recycle(arena);
        report.check(Some(answer.data()), q, 1e-12);

        let shape = jt.shape();
        let plan = one_finding_slice(shape, q.enters.0, target_clique(shape, q.target));
        let scaffold = &mut self.scaffolds[q.model];
        rec.span("taskgraph.slice_build", || {
            graph.slice_into(scaffold, shape, &plan)
        });
    }

    /// The serving layer on the workload's own runtime: registry
    /// resolution, request parsing, the in-process query with its queue
    /// / exec split, response formatting.
    fn in_process(
        &mut self,
        system: &System,
        i: usize,
        q: &Question,
        rec: &mut Recorder,
        report: &mut Report,
    ) {
        let model = &self.models[q.model];
        let names = model.names.as_ref();
        let line = &self.inputs.lines[i];
        rec.span("registry.resolve", || self.registry.resolve(model.name))
            .expect("model is installed");
        let parsed = rec.span("serve.parse", || parse_request_line(line.trim_end(), names));
        assert!(parsed.is_ok(), "generated request line parses");

        let query = Query::new(q.target, q.evidence.clone());
        let whole = rec.begin("serve.query");
        let start = Instant::now();
        let answered = system
            .runtime
            .submit_model(query, self.tagged.then_some(model.name))
            .map(|ticket| ticket.wait_timed());
        let wall = start.elapsed();
        rec.end(whole);
        let Ok((Ok(table), timing)) = answered else {
            report.check(None, q, 0.0);
            return;
        };
        let accounted = timing.queue + timing.exec;
        rec.reported_child("serve.queue_wait", whole, Duration::ZERO, timing.queue);
        rec.reported_child("serve.exec", whole, timing.queue, timing.exec);
        rec.reported_child(
            "serve.dispatch_overhead",
            whole,
            accounted,
            wall.saturating_sub(accounted),
        );
        report.check(Some(table.data()), q, 1e-12);

        let response = rec.span("serve.format", || format_response(names, q.target, &table));
        self.request_bytes += line.len();
        self.response_bytes += response.len() + 1;
        self.responses += 1;
    }

    /// The same question as one request line over TCP.
    fn over_tcp(
        &mut self,
        _: &System,
        i: usize,
        q: &Question,
        rec: &mut Recorder,
        report: &mut Report,
    ) {
        let line = &self.inputs.lines[i];
        let answer = rec.span("serve.wire_round_trip", || {
            self.connection
                .round_trip(line)
                .ok()
                .and_then(|r| array_field(r, "marginal"))
        });
        report.check(answer.as_deref(), q, 1e-9);
    }

    /// One operation of the session path on the benchmark's own session.
    fn own_session(
        &mut self,
        _: &System,
        _: usize,
        q: &Question,
        rec: &mut Recorder,
        report: &mut Report,
    ) {
        let session = &mut self.sessions[q.model];
        rec.span("incremental.retract", || session.retract(q.leaves));
        rec.span("incremental.observe", || {
            session.observe(q.enters.0, q.enters.1)
        })
        .expect("finding is valid");
        let answer = rec.span("incremental.query", || session.query(&self.shard, q.target));
        report.check(answer.as_ref().ok().map(|(t, _)| t.data()), q, 1e-9);
        match answer.map(|(_, mode)| mode) {
            Ok(QueryMode::Cached) => self.modes.0 += 1,
            Ok(QueryMode::Incremental { dirty_cliques, .. }) => {
                self.modes.1 += 1;
                self.modes.3 += dirty_cliques as u64;
            }
            Ok(QueryMode::Full { .. }) => self.modes.2 += 1,
            Err(_) => {}
        }
    }

    /// The same operation through the runtime, and then the finding just
    /// set observed again: a no-op inside the session, so that call times
    /// the runtime's session-table lookup and lock alone.
    fn served_session(
        &mut self,
        system: &System,
        _: usize,
        q: &Question,
        rec: &mut Recorder,
        report: &mut Report,
    ) {
        let rt = &system.runtime;
        let id = self.served_sessions[q.model];
        let whole = rec.begin("serve.session_op");
        let retracted = rec.span("serve.session_retract", || rt.session_retract(id, q.leaves));
        let set = rec.span("serve.session_set", || {
            rt.session_set(id, q.enters.0, q.enters.1)
        });
        let answer = rec.span("serve.session_query", || rt.session_query(id, q.target));
        rec.end(whole);
        retracted.expect("session is open");
        set.expect("finding is valid");
        report.check(answer.as_ref().ok().map(|(t, _)| t.data()), q, 1e-9);
        rec.span("serve.session_lookup", || {
            rt.session_set(id, q.enters.0, q.enters.1)
        })
        .expect("finding is valid");
    }

    /// Turns the spans and tallies of every round so far into metrics.
    fn summarise(&self, rec: &Recorder, report: &mut Report) {
        let probe = PROBE_QUESTIONS as u64;
        let cycle = self.inputs.questions.len() as u64;
        let typical = |name: &str, period: u64| rec.typical_us(name, period);

        let run_job = typical("sched.run_job", probe);
        let planned = typical("potential.planned_exec", probe);
        let checkout =
            typical("sched.arena_checkout", probe) + typical("sched.arena_recycle", probe);
        report.put("sched.arena_checkout_us", checkout, "us");
        report.put(
            "sched.arena_reset_us",
            typical("sched.arena_reset", probe),
            "us",
        );
        report.put("sched.run_job_us", run_job, "us");
        report.put(
            "sched.tasks_per_job",
            self.tasks as f64 / self.jobs as f64,
            "count",
        );
        report.put("sched.overhead_us_per_job", run_job - planned, "us");
        report.put(
            "sched.busy_frac",
            self.busy.as_secs_f64() / self.scheduled.as_secs_f64(),
            "ratio",
        );
        report.put(
            "taskgraph.seq_exec_us",
            typical("taskgraph.seq_exec", probe),
            "us",
        );
        report.put(
            "taskgraph.slice_build_us",
            typical("taskgraph.slice_build", probe),
            "us",
        );
        report.put("potential.planned_exec_us", planned, "us");
        report.put("core.posterior_us", typical("core.posterior", probe), "us");
        report.put("core.readout_us", typical("core.readout", probe), "us");

        // Exact properties of the graphs, averaged over the probe's
        // questions (one model's value on the single-model workloads).
        let questions = &self.inputs.questions[..PROBE_QUESTIONS];
        let mean = |f: &dyn Fn(&TaskGraph) -> f64| {
            questions
                .iter()
                .map(|q| f(self.models[q.model].compiled.graph()))
                .sum::<f64>()
                / probe as f64
        };
        let entries = mean(&|g| g.total_weight() as f64);
        report.put("potential.entries_per_query", entries, "count");
        report.put("potential.bytes_per_query", mean(&bytes_per_query), "bytes");
        report.put("potential.ns_per_entry", planned * 1e3 / entries, "ns");
        report.put(
            "taskgraph.critical_path_frac",
            mean(&|g| g.critical_path_weight() as f64 / g.total_weight() as f64),
            "ratio",
        );
        let arenas: f64 = self
            .models
            .iter()
            .map(|m| arena_bytes(m.compiled.graph()))
            .sum();
        report.put("sched.arena_bytes", arenas, "bytes");
        report.put(
            "core.model_resident_bytes",
            self.models
                .iter()
                .map(|m| m.compiled.resident_bytes() as f64)
                .sum(),
            "bytes",
        );

        let opens = (SETUP_REPEATS * self.models.len()) as u64;
        report.put(
            "incremental.open_us",
            typical("incremental.open", opens),
            "us",
        );
        // One resident arena per open session plus the model's shared
        // base snapshot, both the size of the buffer table (computed).
        report.put("incremental.resident_bytes", 2.0 * arenas, "bytes");
        report.put(
            "incremental.observe_us",
            typical("incremental.observe", cycle),
            "us",
        );
        report.put(
            "incremental.retract_us",
            typical("incremental.retract", cycle),
            "us",
        );
        report.put(
            "incremental.query_us",
            typical("incremental.query", cycle),
            "us",
        );
        let (cached, sliced, full, dirty) = self.modes;
        let queries = (cached + sliced + full) as f64;
        report.put("incremental.slice_frac", sliced as f64 / queries, "ratio");
        report.put("incremental.full_frac", full as f64 / queries, "ratio");
        report.put("incremental.cached_frac", cached as f64 / queries, "ratio");
        report.put(
            "incremental.dirty_cliques_per_query",
            dirty as f64 / sliced.max(1) as f64,
            "count",
        );

        let in_process = typical("serve.query", probe);
        report.put(
            "registry.resolve_us",
            typical("registry.resolve", probe),
            "us",
        );
        report.put("serve.parse_us", typical("serve.parse", probe), "us");
        report.put("serve.format_us", typical("serve.format", probe), "us");
        report.put(
            "serve.request_bytes",
            self.request_bytes as f64 / self.responses as f64,
            "bytes",
        );
        report.put(
            "serve.response_bytes",
            self.response_bytes as f64 / self.responses as f64,
            "bytes",
        );
        report.put(
            "serve.queue_wait_us",
            typical("serve.queue_wait", probe),
            "us",
        );
        report.put("serve.exec_us", typical("serve.exec", probe), "us");
        report.put(
            "serve.dispatch_overhead_us",
            typical("serve.dispatch_overhead", probe),
            "us",
        );
        report.put(
            "serve.wire_us",
            typical("serve.wire_round_trip", probe) - in_process,
            "us",
        );
        report.put(
            "serve.session_set_us",
            typical("serve.session_set", cycle),
            "us",
        );
        report.put(
            "serve.session_query_us",
            typical("serve.session_query", cycle),
            "us",
        );
        report.put(
            "serve.session_lookup_us",
            typical("serve.session_lookup", cycle),
            "us",
        );
    }
}

/// Queries per second of `clients` closed-loop in-process clients over
/// `duration`, counting only correct answers.
fn clients_qps(
    system: &System,
    inputs: &Inputs,
    clients: usize,
    duration: Duration,
    report: &mut Report,
) -> f64 {
    let tagged = system.registry.is_some();
    let tallies: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let (mut attempted, mut correct) = (0u64, 0u64);
                    let start = Instant::now();
                    let mut i = c * inputs.questions.len() / clients;
                    while start.elapsed() < duration {
                        let q = &inputs.questions[i % inputs.questions.len()];
                        i += 1;
                        let model = tagged.then_some(system.models[q.model].name);
                        let answer = system
                            .runtime
                            .submit_model(Query::new(q.target, q.evidence.clone()), model)
                            .and_then(|ticket| ticket.wait());
                        attempted += 1;
                        let ok = answer
                            .ok()
                            .and_then(|t| max_abs_diff(t.data(), &q.answer))
                            .is_some_and(|d| d <= 1e-12);
                        correct += u64::from(ok);
                    }
                    (attempted, correct)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let correct: u64 = tallies.iter().map(|t| t.1).sum();
    report.attempted += tallies.iter().map(|t| t.0).sum::<u64>();
    report.failed += tallies.iter().map(|t| t.0 - t.1).sum::<u64>();
    correct as f64 / duration.as_secs_f64()
}

/// The paper's regime, informational only (noise rule 2): a 32-clique
/// width-14 tree whose 12 MB arena is past one core's L2 and whose
/// 16384-entry tables the Partition module splits, run on one and on
/// two workers. The same tree on every workload: it characterises the
/// scheduler on this host, not the workload.
fn paper_regime(seed: u64, report: &mut Report) {
    let params = TreeParams::new(32, 14, 2, 4).with_seed(0xF9);
    let model = CompiledModel::from_junction_tree(materialize(&random_tree(&params), seed));
    let (jt, graph) = (model.junction_tree(), model.graph());
    let evidence = EvidenceSet::new();
    let mut wall_us = [0.0; 2];
    for (slot, workers) in [1usize, 2].into_iter().enumerate() {
        let shard = ShardState::new(SchedulerConfig::with_threads(workers));
        let mut arena = shard.checkout(graph, jt.potentials());
        let mut walls = Vec::new();
        let (mut partitioned, mut subtasks, mut idle) = (0usize, 0usize, Duration::ZERO);
        for _ in 0..24 {
            arena.reset(graph, jt.potentials(), &evidence);
            let start = Instant::now();
            shard.run_job(graph, &arena).expect("job runs");
            walls.push(start.elapsed().as_secs_f64() * 1e6);
            let job = shard.last_report().expect("a job just ran");
            partitioned += job.partitioned_tasks;
            subtasks += job.subtasks_spawned;
            idle += job.total_idle_spin();
        }
        if workers == 2 {
            let jobs = walls.len() as f64;
            report.put(
                "sched.partitioned_tasks_per_job",
                partitioned as f64 / jobs,
                "count",
            );
            report.put("sched.subtasks_per_job", subtasks as f64 / jobs, "count");
            report.put(
                "sched.idle_spin_us_per_job",
                idle.as_secs_f64() * 1e6 / jobs,
                "us",
            );
        }
        wall_us[slot] = stats::quantile(&stats::ascending(walls), 0.25);
        shard.recycle(arena);
    }
    report.put("sched.speedup_2t", wall_us[0] / wall_us[1], "ratio");
}

/// The layers an operation of `path` waits for, as per-layer metrics
/// whose sum should be the operation's median latency.
fn blocking_path(path: Path) -> &'static [&'static str] {
    match path {
        Path::Stateless => &[
            "serve.queue_wait_us",
            "sched.arena_reset_us",
            "sched.run_job_us",
            "core.readout_us",
            "serve.dispatch_overhead_us",
        ],
        Path::Session => &[
            "incremental.retract_us",
            "incremental.observe_us",
            "incremental.query_us",
            "serve.session_lookup_us",
            "serve.session_lookup_us",
            "serve.session_lookup_us",
        ],
        Path::Wire => &[
            "serve.wire_us",
            "serve.queue_wait_us",
            "serve.exec_us",
            "serve.dispatch_overhead_us",
        ],
    }
}

/// The whole operation of `path` as the probes themselves timed it —
/// with the same statistic, in the same rounds as its layers, so that a
/// phase of the host that slows one slows the other.
fn probed_operation_us(path: Path, rec: &Recorder, cycle: usize) -> f64 {
    match path {
        Path::Stateless => rec.typical_us("serve.query", PROBE_QUESTIONS as u64),
        Path::Session => rec.typical_us("serve.session_op", cycle as u64),
        Path::Wire => rec.typical_us("serve.wire_round_trip", PROBE_QUESTIONS as u64),
    }
}

/// Sum of the blocking path's layers.
fn blocking_path_us(path: Path, report: &Report) -> f64 {
    blocking_path(path)
        .iter()
        .map(|name| report.get(name))
        .sum()
}

/// Prints the blocking path by crate, largest first. What a crate's
/// public functions do not expose stays with the caller: a session
/// query's share of scheduling and kernels is counted under
/// `incremental`.
fn print_blocking_path_by_crate(path: Path, report: &Report) {
    let get = |name: &str| report.get(name);
    let mut by_crate: Vec<(&str, f64)> = match path {
        Path::Session => vec![
            ("serve", 3.0 * get("serve.session_lookup_us")),
            ("taskgraph", get("taskgraph.slice_build_us")),
            (
                "incremental",
                get("incremental.retract_us")
                    + get("incremental.observe_us")
                    + get("incremental.query_us")
                    - get("taskgraph.slice_build_us"),
            ),
        ],
        Path::Stateless | Path::Wire => vec![
            (
                "serve",
                get("serve.queue_wait_us") - get("sched.arena_checkout_us")
                    + get("serve.dispatch_overhead_us")
                    + if path == Path::Wire {
                        get("serve.wire_us")
                    } else {
                        0.0
                    },
            ),
            (
                "sched",
                get("sched.arena_checkout_us")
                    + get("sched.arena_reset_us")
                    + get("sched.overhead_us_per_job"),
            ),
            ("potential", get("potential.planned_exec_us")),
            ("core", get("core.readout_us")),
        ],
    };
    by_crate.sort_by(|a, b| b.1.total_cmp(&a.1));
    let shares: Vec<String> = by_crate
        .iter()
        .map(|(name, us)| format!("{name}={us:.1}us"))
        .collect();
    info("blocking_path_by_crate", shares.join(" "));
    info(
        "top_two_layers",
        format!("{} {}", by_crate[0].0, by_crate[1].0),
    );
}

/// Runs the traced pass of `spec` and returns its per-layer metrics.
pub fn traced_pass(
    spec: &Spec,
    inputs: &Inputs,
    reference: &[Model],
    seed: u64,
    seconds: u64,
    pinned: Option<host::Pinned>,
) -> Result<Outcome, String> {
    let mut report = Report::default();
    let mut probes = Recorder::new();
    let mut window_spans = Recorder::new();
    let every = u64::MAX;

    // Cold boots with a span per stage; the last system serves the
    // windows and the serving probes.
    let mut system = None;
    for repeat in 0..SETUP_REPEATS {
        if let Some(previous) = system.take() {
            System::shutdown(previous);
        }
        probes.set_operation(repeat as u64);
        system = Some(System::boot(spec, inputs, Some(&mut probes)));
    }
    let mut system = system.expect("at least one boot");
    report.put(
        "core.compile_model_us",
        probes.typical_us("core.compile_model", every),
        "us",
    );
    report.put(
        "core.cold_query_us",
        probes.typical_us("core.cold_query", every),
        "us",
    );
    report.put(
        "serve.boot_us",
        probes.typical_us("serve.boot", every),
        "us",
    );

    // The workload's own closed loop, untraced then traced.
    let duration = Duration::from_secs(seconds.min(WINDOW_SECONDS));
    let pass = inputs.questions.len();
    let cpu_before = host::cpu_time_us();
    let untraced = Window::run(|| system.operation(inputs), WINDOW_WARM_UP, duration, pass)?;
    let cpu_us = host::cpu_time_us() - cpu_before;
    let traced = {
        let mut recorder = Some(&mut window_spans);
        Window::run(
            || system.operation_traced(inputs, &mut recorder),
            WINDOW_WARM_UP,
            duration,
            pass,
        )?
    };
    // Self time per operation of the traced loop's own spans: `op` keeps
    // what its children (the calls the path is made of) do not cover.
    for (name, us) in window_spans.self_times_us() {
        info(
            "window_self_us_per_op",
            format!("{name} {:.2}", us / traced.attempted as f64),
        );
    }
    report.attempted += untraced.attempted + traced.attempted;
    report.failed += untraced.failed + traced.failed;
    let latency_p50_us = untraced.latency_p50().best_decile;
    info("untraced_qps", untraced.throughput().best_decile);
    info("traced_qps", traced.throughput().best_decile);
    report.put(
        "trace.overhead_frac",
        1.0 - traced.throughput().best_decile / untraced.throughput().best_decile,
        "ratio",
    );
    report.put(
        "serve.cpu_us_per_query",
        cpu_us / untraced.attempted as f64,
        "us",
    );

    let registry = setup_probes(inputs, &mut probes, &mut report);
    kernel_probes(reference, &mut report);

    // Per-query probes, in rounds. The layers must add up to the whole
    // operation as the same rounds timed it. A closure outside the band
    // adds rounds before it fails the pass: an unattributed layer stays
    // outside however often it is measured, a burst of interference does
    // not. The wire path's socket share is not separable from outside,
    // so its closure is printed but not enforced.
    let enforced = spec.path != Path::Wire;
    let mut per_query = Probes::new(reference, inputs, &system, registry, &mut probes);
    let (mut closure, mut operation_us) = (f64::NAN, f64::NAN);
    for _ in 0..=EXTRA_ATTEMPTS {
        for _ in 0..ROUNDS {
            per_query.round(&system, &mut probes, &mut report);
        }
        per_query.summarise(&probes, &mut report);
        operation_us = probed_operation_us(spec.path, &probes, pass);
        closure = blocking_path_us(spec.path, &report) / operation_us;
        if !enforced || (closure - 1.0).abs() <= CLOSURE_BAND {
            break;
        }
    }
    info("probe_rounds", per_query.rounds);
    drop(per_query);
    system.shutdown();

    // The two phases that need both cores run last, on the original
    // affinity mask and a system booted under it. Two closed-loop
    // clients against one is the only place the admission queue and
    // micro-batching see work (noise rule 1 keeps them idle in every
    // end-to-end workload).
    if let Some(pinned) = &pinned {
        pinned.release();
    }
    let system = System::boot(spec, inputs, None);
    let side_phase = Duration::from_secs(2);
    let one = clients_qps(&system, inputs, 1, side_phase, &mut report);
    let two = clients_qps(&system, inputs, 2, side_phase, &mut report);
    report.put("serve.two_client_ratio", two / one, "ratio");
    system.shutdown();
    paper_regime(seed, &mut report);

    info(
        "layer_closure",
        format!(
            "{closure:.3} ({} = {:.1} us of an operation the same rounds timed at {operation_us:.1} us)",
            blocking_path(spec.path).join(" + "),
            blocking_path_us(spec.path, &report)
        ),
    );
    // The probes replay half the questions and keep each one's fastest
    // round; the window reports the best decile of per-slice medians.
    info(
        "probed_operation_vs_window_p50",
        format!(
            "{:.3} ({operation_us:.1} us / {latency_p50_us:.1} us)",
            operation_us / latency_p50_us
        ),
    );
    print_blocking_path_by_crate(spec.path, &report);
    let path = std::path::Path::new("benchmark/out").join(format!("{}.spans.json", spec.name));
    write_json(&path, &[("window", &window_spans), ("probes", &probes)])
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    info("spans_file", path.display());

    let outcome = Outcome {
        attempted: report.attempted,
        failed: report.failed,
        metrics: report.metrics,
    };
    if enforced && (closure - 1.0).abs() > CLOSURE_BAND {
        // Still show what was measured; the run fails without a JSON line.
        crate::print_metrics(&outcome);
        return Err(format!(
            "layer closure {closure:.3} is outside 1 ± {CLOSURE_BAND}: part of the blocking path is unattributed"
        ));
    }
    Ok(outcome)
}

//! Everything a run is fed: the four workload definitions, the models
//! built from `--seed`, the question stream and its oracle answers.
//!
//! Nothing in this file is timed. What decides the amount of work is
//! fixed per workload: the network structure or tree shape, and which
//! variables the question stream observes and asks about (a session's
//! cost follows the cliques a finding dirties: with the variables drawn
//! per seed, two seeds of `tree-session` differed by 9 % in throughput,
//! reproducibly). `--seed` drives every CPT / potential value and every
//! observed state.

use evprop_bayesnet::{bif, networks, BayesianNetwork, BayesianNetworkBuilder};
use evprop_core::{CompiledModel, Engine, SequentialEngine};
use evprop_potential::{EvidenceSet, VarId};
use evprop_registry::ModelNames;
use evprop_workloads::{materialize, random_tree, TreeParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The stream cycles over this many distinct questions, all answered by
/// the oracle at set-up.
pub const QUESTIONS: usize = 256;

/// Seed of every generated tree *shape* and of the variables the stream
/// visits: both belong to the workload, not to the run (the same value
/// `evprop_workloads::presets` sweeps use).
const SHAPE_SEED: u64 = 0xF9;

/// Which public entry point the closed-loop client drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// Newline-delimited JSON over one loopback TCP connection.
    Wire,
    /// In-process `ShardedRuntime::query`.
    Stateless,
    /// In-process `session_retract` + `session_set` + `session_query`.
    Session,
}

/// Where a workload's models come from.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// asia + student, each serialised to BIF text with seeded CPTs.
    SmallNetworks,
    /// `TreeParams::new(cliques, width, 2, 4)` with seeded potentials.
    Tree { cliques: usize, width: usize },
}

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub path: Path,
    pub shape: Shape,
    /// Findings per evidence set (one is replaced per request).
    pub window: usize,
}

/// The four workloads. Each keeps at most one thread runnable and a
/// working set inside one core's L2 (see README, noise rules 1 and 2).
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "wire-small",
        why: "two tiny BIF models over one TCP connection: serve and registry dominate, kernels must show nothing",
        path: Path::Wire,
        shape: Shape::SmallNetworks,
        window: 2,
    },
    Spec {
        name: "tree-stateless",
        why: "128 cliques of width 8, full propagation per query: arena reset, a thousand tiny tasks, clique scan",
        path: Path::Stateless,
        shape: Shape::Tree { cliques: 128, width: 8 },
        window: 4,
    },
    Spec {
        name: "tree-session",
        why: "same tree and questions through one long-lived session: dirty-slice execution instead of full propagation",
        path: Path::Session,
        shape: Shape::Tree { cliques: 128, width: 8 },
        window: 4,
    },
    Spec {
        name: "wide-kernels",
        why: "24 cliques of width 12 (4096-entry tables): time is in the KernelPlan kernels, not in task handoff",
        path: Path::Stateless,
        shape: Shape::Tree { cliques: 24, width: 12 },
        window: 4,
    },
];

/// What a cold boot starts from: BIF text, or generator parameters.
#[derive(Clone, Debug)]
pub enum Source {
    Bif { name: &'static str, text: String },
    Tree { params: TreeParams, seed: u64 },
}

impl Source {
    /// The registry name of the model.
    pub fn name(&self) -> &'static str {
        match self {
            Source::Bif { name, .. } => name,
            Source::Tree { .. } => "tree",
        }
    }
}

/// Positional names (`v7`, states `0`/`1`/…) for generated trees, which
/// have no network to hand to `NumericNames::of`.
#[derive(Debug)]
pub struct DenseNames {
    cardinalities: Vec<usize>,
}

impl ModelNames for DenseNames {
    fn num_vars(&self) -> usize {
        self.cardinalities.len()
    }
    fn var_id(&self, name: &str) -> Option<VarId> {
        let i: usize = name.strip_prefix('v')?.parse().ok()?;
        (i < self.cardinalities.len()).then_some(VarId(i as u32))
    }
    fn var_name(&self, var: VarId) -> String {
        format!("v{}", var.index())
    }
    fn num_states(&self, var: VarId) -> usize {
        self.cardinalities[var.index()]
    }
    fn state_index(&self, var: VarId, state: &str) -> Option<usize> {
        let i: usize = state.parse().ok()?;
        (i < self.cardinalities[var.index()]).then_some(i)
    }
    fn state_name(&self, _var: VarId, state: usize) -> String {
        state.to_string()
    }
}

/// A compiled model with the names the wire protocol addresses it by.
#[derive(Clone)]
pub struct Model {
    pub name: &'static str,
    pub compiled: Arc<CompiledModel>,
    pub names: Arc<dyn ModelNames + Send + Sync>,
}

/// A model source after parsing (BIF) or generation (tree), before
/// compilation.
pub enum Parsed {
    Bif(bif::BifNetwork),
    Tree(evprop_jtree::JunctionTree),
}

impl Model {
    /// First half of a build: BIF text → network, or generator
    /// parameters → junction tree with potentials.
    pub fn parse(source: &Source) -> Parsed {
        match source {
            Source::Bif { text, .. } => {
                Parsed::Bif(bif::parse(text).expect("generated BIF text parses"))
            }
            Source::Tree { params, seed } => Parsed::Tree(materialize(&random_tree(params), *seed)),
        }
    }

    /// Second half: compile (junction tree, re-rooting, task graph,
    /// interned kernel plans) and derive the wire names.
    pub fn compile(name: &'static str, parsed: Parsed) -> Model {
        match parsed {
            Parsed::Bif(parsed) => {
                let compiled = CompiledModel::from_network(&parsed.network)
                    .expect("generated network compiles");
                Model {
                    name,
                    compiled: Arc::new(compiled),
                    names: Arc::new(parsed),
                }
            }
            Parsed::Tree(jt) => {
                let mut cardinalities = Vec::new();
                for v in jt.shape().domains().iter().flat_map(|d| d.vars()) {
                    let i = v.id().index();
                    if cardinalities.len() <= i {
                        cardinalities.resize(i + 1, 0);
                    }
                    cardinalities[i] = v.cardinality();
                }
                Model {
                    name,
                    compiled: Arc::new(CompiledModel::from_junction_tree(jt)),
                    names: Arc::new(DenseNames { cardinalities }),
                }
            }
        }
    }

    /// Source → compiled model: the part of a cold boot that every
    /// workload shares.
    pub fn build(source: &Source) -> Model {
        Model::compile(source.name(), Model::parse(source))
    }

    /// Every variable of the model with its cardinality, by id.
    fn variables(&self) -> Vec<(VarId, usize)> {
        (0..self.names.num_vars())
            .map(|i| VarId(i as u32))
            .map(|v| (v, self.names.num_states(v)))
            .collect()
    }
}

/// One question of the stream with its oracle answer.
#[derive(Clone, Debug)]
pub struct Question {
    /// Index into [`Inputs::sources`].
    pub model: usize,
    pub target: VarId,
    /// The full evidence set (what a stateless query sends).
    pub evidence: EvidenceSet,
    /// The finding this question adds to its predecessor's evidence…
    pub enters: (VarId, usize),
    /// …and the variable whose finding it drops (what a session sends).
    pub leaves: VarId,
    /// `SequentialEngine`'s posterior of `target` under `evidence`.
    pub answer: Vec<f64>,
}

/// The inputs of one run.
pub struct Inputs {
    pub sources: Vec<Source>,
    pub questions: Vec<Question>,
    /// The wire form of each question (with the `"model"` field when
    /// the workload serves a registry).
    pub lines: Vec<String>,
}

/// `net`'s structure with every CPT row redrawn from the seed. Strictly
/// positive rows keep every evidence set possible, so no question can
/// fail with `ImpossibleEvidence` (asia's own OR gate would).
fn reseeded(net: &BayesianNetwork, rng: &mut StdRng) -> BayesianNetwork {
    let mut b = BayesianNetworkBuilder::new();
    for v in net.vars() {
        b.add_variable(v.cardinality());
    }
    for v in net.vars() {
        let parents: Vec<VarId> = net.cpt(v.id()).parents().iter().map(|p| p.id()).collect();
        let configs: usize = net
            .cpt(v.id())
            .parents()
            .iter()
            .map(|p| p.cardinality())
            .product();
        let rows = (0..configs)
            .map(|_| {
                let row: Vec<f64> = (0..v.cardinality())
                    .map(|_| rng.gen_range(0.1..1.0))
                    .collect();
                let total: f64 = row.iter().sum();
                row.into_iter().map(|x| x / total).collect()
            })
            .collect();
        b.set_cpt(v.id(), &parents, rows)
            .expect("rows are normalised");
    }
    b.build().expect("structure is copied from a valid network")
}

/// A cyclic list of `n` findings in which any `window` consecutive ones
/// (wrapping around) name distinct variables, plus one target per
/// position that lies outside the window starting there. Variables and
/// targets come from `structure`, observed states from `values`.
fn question_cycle(
    model: usize,
    vars: &[(VarId, usize)],
    n: usize,
    window: usize,
    structure: &mut StdRng,
    values: &mut StdRng,
) -> Vec<Question> {
    assert!(vars.len() > 2 * window, "too few variables for the window");
    let mut findings: Vec<(VarId, usize)> = Vec::with_capacity(n);
    for j in 0..n {
        let clash = |v: VarId, placed: &[(VarId, usize)]| {
            (1..window).any(|d| {
                let before = j >= d && placed[j - d].0 == v;
                let wrapped = j + d >= n && placed[(j + d) % n].0 == v;
                before || wrapped
            })
        };
        let (var, card) = loop {
            let pick = vars[structure.gen_range(0..vars.len())];
            if !clash(pick.0, &findings) {
                break pick;
            }
        };
        findings.push((var, values.gen_range(0..card)));
    }
    (0..n)
        .map(|i| {
            let mut evidence = EvidenceSet::new();
            for d in 0..window {
                let (v, s) = findings[(i + d) % n];
                evidence.observe(v, s);
            }
            let target = loop {
                let (v, _) = vars[structure.gen_range(0..vars.len())];
                if evidence.state_of(v).is_none() {
                    break v;
                }
            };
            Question {
                model,
                target,
                evidence,
                enters: findings[(i + window - 1) % n],
                leaves: findings[(i + n - 1) % n].0,
                answer: Vec::new(),
            }
        })
        .collect()
}

impl Inputs {
    /// The evidence a session on `model` must hold before the first
    /// operation of the cycle: what the cycle's last question leaves
    /// behind, so that operation 0 replaces one finding like any other.
    pub fn evidence_before_cycle(&self, model: usize) -> &EvidenceSet {
        let last = self.questions.iter().rev().find(|q| q.model == model);
        &last.expect("every model has questions").evidence
    }

    /// Generates sources and questions for `spec` from `seed`, builds
    /// each model once and answers every question with the oracle.
    /// Returns the inputs and those reference models.
    ///
    /// A cold-boot child process is handed the first question's answer
    /// by its parent (`first_answer`) and skips the oracle: a boot only
    /// ever checks that one.
    pub fn generate(
        spec: &Spec,
        seed: u64,
        first_answer: Option<Vec<f64>>,
    ) -> (Inputs, Vec<Model>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut structure = StdRng::seed_from_u64(SHAPE_SEED);
        let sources: Vec<Source> = match spec.shape {
            Shape::SmallNetworks => [("asia", networks::asia()), ("student", networks::student())]
                .into_iter()
                .map(|(name, net)| Source::Bif {
                    name,
                    text: bif::write(&bif::with_generated_names(reseeded(&net, &mut rng), name)),
                })
                .collect(),
            Shape::Tree { cliques, width } => vec![Source::Tree {
                params: TreeParams::new(cliques, width, 2, 4).with_seed(SHAPE_SEED),
                seed,
            }],
        };
        let models: Vec<Model> = sources.iter().map(Model::build).collect();
        let per_model = QUESTIONS / models.len();
        let cycles: Vec<Vec<Question>> = models
            .iter()
            .enumerate()
            .map(|(m, model)| {
                question_cycle(
                    m,
                    &model.variables(),
                    per_model,
                    spec.window,
                    &mut structure,
                    &mut rng,
                )
            })
            .collect();
        // Round-robin over the models: requests alternate models, and
        // filtering by model gives each model's own cycle back in order.
        let mut questions: Vec<Question> = (0..QUESTIONS)
            .map(|i| cycles[i % models.len()][i / models.len()].clone())
            .collect();
        let unanswered = match first_answer {
            Some(answer) => {
                questions[0].answer = answer;
                &mut questions[..0]
            }
            None => &mut questions[..],
        };
        for q in unanswered {
            let compiled = &models[q.model].compiled;
            let calibrated = SequentialEngine
                .propagate_graph(compiled.junction_tree(), compiled.graph(), &q.evidence)
                .expect("sequential propagation cannot fail");
            let marginal = calibrated
                .marginal(q.target)
                .expect("targets are variables of the model");
            q.answer = marginal.data().to_vec();
            assert!(
                q.answer.iter().all(|p| p.is_finite()),
                "oracle answer is not finite: the workload's potentials overflow"
            );
        }
        let tagged = models.len() > 1;
        let lines = questions
            .iter()
            .map(|q| request_line(q, &models[q.model], tagged))
            .collect();
        let inputs = Inputs {
            sources,
            questions,
            lines,
        };
        (inputs, models)
    }
}

/// The request line a wire client sends for `q`. `tagged` adds the
/// `"model"` field (registry mode).
fn request_line(q: &Question, model: &Model, tagged: bool) -> String {
    let names = &model.names;
    let mut line = format!(
        "{{\"target\":\"{}\",\"evidence\":{{",
        names.var_name(q.target)
    );
    for (i, e) in q.evidence.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!(
            "\"{}\":\"{}\"",
            names.var_name(e.var),
            names.state_name(e.var, e.state)
        ));
    }
    line.push('}');
    if tagged {
        line.push_str(&format!(",\"model\":\"{}\"", model.name));
    }
    line.push_str("}\n");
    line
}

/// Largest absolute difference between an answer and the oracle's, or
/// `None` when the shapes differ.
pub fn max_abs_diff(got: &[f64], want: &[f64]) -> Option<f64> {
    (got.len() == want.len()).then(|| {
        got.iter()
            .zip(want)
            .map(|(g, w)| (g - w).abs())
            .fold(0.0, f64::max)
    })
}

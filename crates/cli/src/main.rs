//! `evprop` — command-line exact inference on BIF networks.
//!
//! ```text
//! evprop info <file.bif>
//! evprop query <file.bif> --target VAR [--evidence VAR=STATE]... [--engine E] [--threads N]
//! evprop mpe <file.bif> [--evidence VAR=STATE]... [--engine E] [--threads N]
//! evprop export <sprinkler|asia|student>
//! evprop serve <file.bif> --queries N [--threads P] [--seed S]
//! evprop serve <file.bif> --listen ADDR [--shards K] [--threads-per-shard M] [--model NAME=PATH]... [--model-budget-mb MB]
//! evprop session-bench <file.bif> [--steps N] [--threads P] [--seed S]
//! evprop simulate --cliques N --width W --states R --degree K [--cores P]...
//! ```
//!
//! `serve --listen` has one boot path: it always serves from a model
//! registry whose default alias is the positional network (`--model`
//! adds models, `--model-budget-mb` bounds them). The scheduler's
//! recording hooks are always compiled; `evprop trace` attaches a sink.

use evprop_bayesnet::bif::{self, BifNetwork};
use evprop_bayesnet::networks;
use evprop_core::{
    CollaborativeEngine, Engine, InferenceSession, Query, QueryBatch, SequentialEngine,
};
use evprop_jtree::{critical_path_weight, select_root};
use evprop_potential::EvidenceSet;
use evprop_serve::Json;
use evprop_simcore::{render_gantt, simulate, simulate_collaborative_traced, CostModel, Policy};
use evprop_taskgraph::TaskGraph;
use evprop_workloads::{random_tree, TreeParams};
use std::process::ExitCode;

const USAGE: &str = "usage:
  evprop info <file.bif>
  evprop query <file.bif> --target VAR [--evidence VAR=STATE]... [--likelihood VAR=w:w...]... [--engine seq|collab] [--threads N]
  evprop mpe <file.bif> [--evidence VAR=STATE]... [--engine seq|collab] [--threads N]
  evprop export <sprinkler|asia|student>
  evprop dot <file.bif> [--tasks]
  evprop serve <file.bif> --queries N [--threads P] [--seed S]
  evprop serve <file.bif> --listen ADDR [--shards K] [--threads-per-shard M] [--queue-depth D] [--batch B] [--model NAME=PATH]... [--model-budget-mb MB]
      [--no-partitioning] [--drain-timeout-ms MS] [--max-conns N] [--max-line-bytes B] [--idle-timeout-ms MS]
  evprop session-bench <file.bif> [--steps N] [--threads P] [--seed S]
  evprop trace <file.bif> [--out FILE] [--threads P] [--delta D | --no-partitioning] [--runs N]
  evprop trace --random [--cliques N] [--width W] [--states R] [--degree K] [--seed S] [--out FILE] ...
  evprop trace-validate <trace.json>
  evprop simulate --cliques N --width W --states R --degree K [--cores P]... [--policy collab|openmp|dp|pnl] [--gantt]
  evprop --help";

fn main() -> ExitCode {
    // Exit quietly when stdout is closed early (`evprop query … | head`):
    // std's println! panics on EPIPE, and Rust exposes no stable way to
    // restore SIGPIPE's default disposition without libc.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        let is_pipe = msg.is_some_and(|m| m.contains("Broken pipe"));
        if is_pipe {
            std::process::exit(0);
        }
        default_hook(info);
    }));

    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("info") => cmd_info(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("mpe") => cmd_mpe(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("session-bench") => cmd_session_bench(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("trace-validate") => cmd_trace_validate(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'")),
    }
}

fn load(path: &str) -> Result<BifNetwork, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    bif::parse(&src).map_err(|e| e.to_string())
}

/// Parses `--evidence VAR=STATE` occurrences against the name tables.
fn parse_evidence(bif: &BifNetwork, args: &[String]) -> Result<EvidenceSet, String> {
    let mut ev = EvidenceSet::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--evidence" {
            let spec = args
                .get(i + 1)
                .ok_or("--evidence needs VAR=STATE".to_string())?;
            let (var, state) = spec
                .split_once('=')
                .ok_or_else(|| format!("bad evidence '{spec}', expected VAR=STATE"))?;
            // A state name, else an index: the wire's two forms.
            let state = match state.parse::<f64>() {
                Ok(n) if bif.state_index(var, state).is_none() => Json::Num(n),
                _ => Json::Str(state.to_string()),
            };
            let (v, s) = evprop_serve::resolve_finding(bif, var, &state)?;
            ev.observe(v, s);
            i += 2;
        } else if args[i] == "--likelihood" {
            let spec = args
                .get(i + 1)
                .ok_or("--likelihood needs VAR=w:w:...".to_string())?;
            let (var, weights) = spec
                .split_once('=')
                .ok_or_else(|| format!("bad likelihood '{spec}', expected VAR=w:w"))?;
            let ws: Vec<f64> = weights
                .split(':')
                .map(|w| w.parse::<f64>())
                .collect::<std::result::Result<_, _>>()
                .map_err(|_| format!("bad weights in '{spec}'"))?;
            let v = evprop_serve::resolve_likelihood(bif, var, &ws)?;
            ev.observe_likelihood(v, ws);
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(ev)
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// All values of a repeatable flag, in order (`--model a=x --model b=y`).
fn flag_values<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == name)
        .filter_map(|(i, _)| args.get(i + 1))
        .map(String::as_str)
        .collect()
}

/// All values of a repeatable count flag. Each must be a positive
/// integer: these flags size pools, index per-worker vectors and chunk
/// tables, so 0 is a usage error here rather than a panic downstream.
fn positive_flags(args: &[String], name: &str) -> Result<Vec<usize>, String> {
    flag_values(args, name)
        .into_iter()
        .map(|v| match v.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("{name} needs a positive integer, got '{v}'")),
        })
        .collect()
}

/// The first value of a count flag (positive, see [`positive_flags`]),
/// or `default` when the flag is absent.
fn positive_flag(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    Ok(positive_flags(args, name)?
        .first()
        .copied()
        .unwrap_or(default))
}

/// `--threads P`, defaulting to the host's parallelism.
fn threads_flag(args: &[String]) -> Result<usize, String> {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    positive_flag(args, "--threads", host)
}

fn make_engine(args: &[String]) -> Result<Box<dyn Engine>, String> {
    let threads = threads_flag(args)?;
    Ok(match flag_value(args, "--engine").unwrap_or("collab") {
        "seq" | "sequential" => Box::new(SequentialEngine),
        "collab" | "collaborative" => Box::new(CollaborativeEngine::with_threads(threads)),
        other => return Err(format!("unknown engine '{other}'")),
    })
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("info needs a file".to_string())?;
    let bif = load(path)?;
    let net = &bif.network;
    println!(
        "network: {} ({} variables, {} edges)",
        bif.name,
        net.num_vars(),
        net.num_edges()
    );
    let session = InferenceSession::from_network(net).map_err(|e| e.to_string())?;
    let shape = session.junction_tree().shape();
    println!(
        "junction tree: {} cliques, max width {}, {} table entries total",
        shape.num_cliques(),
        shape.max_width(),
        shape.total_state_space()
    );
    let unrerooted = evprop_jtree::JunctionTree::from_network(net).map_err(|e| e.to_string())?;
    let before = critical_path_weight(unrerooted.shape());
    let choice = select_root(unrerooted.shape());
    println!(
        "critical path: {} -> {} after Algorithm 1 rerooting ({:.2}x)",
        before,
        choice.critical_path,
        before as f64 / choice.critical_path as f64
    );
    let g = session.task_graph();
    println!(
        "task graph: {} tasks, total work {}, critical work {}, inherent parallelism {:.2}",
        g.num_tasks(),
        g.total_weight(),
        g.critical_path_weight(),
        g.total_weight() as f64 / g.critical_path_weight().max(1) as f64
    );
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("query needs a file".to_string())?;
    let bif = load(path)?;
    let target_name = flag_value(args, "--target").ok_or("query needs --target VAR".to_string())?;
    let target = bif
        .var_id(target_name)
        .ok_or_else(|| format!("unknown variable '{target_name}'"))?;
    let ev = parse_evidence(&bif, args)?;
    let engine = make_engine(args)?;
    let session = InferenceSession::from_network(&bif.network).map_err(|e| e.to_string())?;
    let calibrated = session
        .propagate(engine.as_ref(), &ev)
        .map_err(|e| e.to_string())?;
    let marginal = calibrated.marginal(target).map_err(|e| e.to_string())?;
    println!("P({target_name} | evidence) [engine: {}]", engine.name());
    for (s, p) in marginal.data().iter().enumerate() {
        println!("  {} = {:.6}", bif.state_name(target, s), p);
    }
    println!("P(evidence) = {:.6e}", calibrated.probability_of_evidence());
    Ok(())
}

fn cmd_mpe(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("mpe needs a file".to_string())?;
    let bif = load(path)?;
    let ev = parse_evidence(&bif, args)?;
    let engine = make_engine(args)?;
    let session = InferenceSession::from_network(&bif.network).map_err(|e| e.to_string())?;
    let mpe = session
        .most_probable_explanation(engine.as_ref(), &ev)
        .map_err(|e| e.to_string())?;
    println!(
        "most probable explanation [engine: {}], P = {:.6e}",
        engine.name(),
        mpe.probability
    );
    for &(v, s) in &mpe.assignment {
        let observed = ev.state_of(v).is_some();
        println!(
            "  {} = {}{}",
            bif.var_name(v),
            bif.state_name(v, s),
            if observed { "  (observed)" } else { "" }
        );
    }
    Ok(())
}

fn cmd_export(args: &[String]) -> Result<(), String> {
    let which = args
        .first()
        .ok_or("export needs a network name".to_string())?;
    let net = match which.as_str() {
        "sprinkler" => networks::sprinkler(),
        "asia" => networks::asia(),
        "student" => networks::student(),
        other => return Err(format!("unknown builtin network '{other}'")),
    };
    print!("{}", bif::write(&bif::with_generated_names(net, which)));
    Ok(())
}

/// Emits Graphviz DOT: the junction tree by default, the full task
/// dependency graph with `--tasks`.
fn cmd_dot(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("dot needs a file".to_string())?;
    let bif = load(path)?;
    let session = InferenceSession::from_network(&bif.network).map_err(|e| e.to_string())?;
    if args.iter().any(|a| a == "--tasks") {
        print!("{}", session.task_graph().to_dot());
    } else {
        print!("{}", session.junction_tree().shape().to_dot());
    }
    Ok(())
}

/// Builds a deterministic pseudo-random query stream over `net`:
/// each query asks for one target's posterior under single-variable
/// hard evidence (target and evidence variables always distinct).
fn random_queries(net: &evprop_bayesnet::BayesianNetwork, n: usize, seed: u64) -> QueryBatch {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let vars = net.num_vars() as u32;
    (0..n)
        .map(|_| {
            let target = evprop_potential::VarId(rng.gen_range(0..vars));
            let mut ev = EvidenceSet::new();
            if vars > 1 {
                let mut obs = evprop_potential::VarId(rng.gen_range(0..vars));
                while obs == target {
                    obs = evprop_potential::VarId(rng.gen_range(0..vars));
                }
                let card = net.var(obs).cardinality();
                ev.observe(obs, rng.gen_range(0..card));
            }
            Query::new(target, ev)
        })
        .collect()
}

/// Serve-style batch inference: compile the network once, then answer a
/// stream of randomized queries on the session's resident
/// [`CollaborativeEngine`].
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("serve needs a file".to_string())?;
    let bif = load(path)?;
    if let Some(addr) = flag_value(args, "--listen") {
        return cmd_serve_listen(bif, addr, args);
    }
    let queries = match flag_value(args, "--queries") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("bad query count '{v}'"))?,
        None => 200,
    };
    let threads = threads_flag(args)?;
    let seed = match flag_value(args, "--seed") {
        Some(s) => s.parse::<u64>().map_err(|_| format!("bad seed '{s}'"))?,
        None => 0xC0FFEE,
    };

    let session = InferenceSession::from_network(&bif.network).map_err(|e| e.to_string())?;
    let batch = random_queries(&bif.network, queries, seed);

    let start = std::time::Instant::now();
    let engine = session.pooled_engine_with(evprop_sched::SchedulerConfig::with_threads(threads));
    session.posterior_batch(&batch).map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();
    let qps = batch.len() as f64 / elapsed.as_secs_f64().max(1e-12);
    println!(
        "served {} queries [{threads} threads] in {:.3} s ({:.0} queries/s)",
        batch.len(),
        elapsed.as_secs_f64(),
        qps
    );
    if let Some(report) = engine.last_report() {
        println!(
            "last job: wall {:?}, {} tables allocated",
            report.wall,
            report.total_tables_allocated()
        );
    }
    Ok(())
}

/// `evprop serve <file.bif> --listen ADDR`: boot the sharded runtime
/// and answer newline-delimited JSON queries over TCP until killed or
/// drained (`{"cmd": "drain"}` closes admission, answers everything
/// already admitted bounded by `--drain-timeout-ms`, and exits).
fn cmd_serve_listen(bif: BifNetwork, addr: &str, args: &[String]) -> Result<(), String> {
    use evprop_serve::{ServerOptions, TcpServer};
    use std::sync::Arc;
    use std::time::Duration;

    let parse_flag = |flag: &str, default: usize| -> Result<usize, String> {
        match flag_value(args, flag) {
            Some(v) => v.parse().map_err(|_| format!("bad {flag} '{v}'")),
            None => Ok(default),
        }
    };
    let defaults = ServerOptions::default();
    let drain_timeout = Duration::from_millis(parse_flag("--drain-timeout-ms", 5_000)? as u64);
    let options = ServerOptions {
        max_conns: positive_flag(args, "--max-conns", defaults.max_conns)?,
        max_line_bytes: parse_flag("--max-line-bytes", defaults.max_line_bytes)?.max(64),
        read_timeout: match flag_value(args, "--idle-timeout-ms") {
            Some(v) => Some(Duration::from_millis(
                v.parse()
                    .map_err(|_| format!("bad --idle-timeout-ms '{v}'"))?,
            )),
            None => None,
        },
        write_timeout: defaults.write_timeout,
    };

    let runtime = boot_serve_runtime(&bif, args)?;
    let mut server = TcpServer::bind_with(addr, Arc::clone(&runtime), Arc::new(bif), options)
        .map_err(|e| format!("bind {addr}: {e}"))?;
    println!(
        "listening on {} [{} shard(s) x {} thread(s), queue depth {}, batch {}{}]",
        server.local_addr(),
        runtime.config().shards,
        runtime.config().threads_per_shard,
        runtime.config().queue_depth,
        runtime.config().max_batch,
        match runtime.registry().and_then(|r| r.budget_bytes()) {
            Some(bytes) => format!(", model budget {} MB", bytes >> 20),
            None => String::new(),
        },
    );
    // Serve until the process is killed — or until some client sends
    // `{"cmd": "drain"}`, which closes admission and starts a bounded
    // graceful shutdown: answer everything already admitted, close open
    // sessions, and exit cleanly either way.
    server.wait_for_drain();
    let clean = runtime.drain(drain_timeout);
    // Small grace so clients can read the answers they are owed before
    // their connections are torn down.
    std::thread::sleep(Duration::from_millis(100));
    server.stop();
    if clean {
        println!("drained cleanly");
    } else {
        println!(
            "drain timed out after {}ms; forcing shutdown",
            drain_timeout.as_millis()
        );
    }
    Ok(())
}

/// The runtime every `serve --listen` invocation answers from: a model
/// registry holding the positional network as the default alias (under
/// its BIF name) plus one model per `--model NAME=PATH`, evicting
/// under `--model-budget-mb MB` when given. The protocol's
/// `model-load` / `model-swap` / `model-unload` / `model-list`
/// commands manage versions while serving.
fn boot_serve_runtime(
    bif: &BifNetwork,
    args: &[String],
) -> Result<std::sync::Arc<evprop_serve::ShardedRuntime>, String> {
    use evprop_registry::ModelRegistry;
    use evprop_serve::{RuntimeConfig, ShardedRuntime};
    use std::sync::Arc;

    let mut config = RuntimeConfig::new(
        positive_flag(args, "--shards", 2)?,
        positive_flag(args, "--threads-per-shard", 1)?,
    )
    .with_queue_depth(positive_flag(args, "--queue-depth", 64)?)
    .with_max_batch(positive_flag(args, "--batch", 8)?);
    if args.iter().any(|a| a == "--no-partitioning") {
        config = config.without_partitioning();
    }

    let mut registry = ModelRegistry::new();
    if let Some(v) = flag_value(args, "--model-budget-mb") {
        let mb = v
            .parse::<u64>()
            .map_err(|_| format!("bad --model-budget-mb '{v}'"))?;
        registry = registry.with_budget_mb(mb);
    }
    let registry = Arc::new(registry);
    let install = |name: &str, bif: BifNetwork| -> Result<(), String> {
        let session = InferenceSession::from_network(&bif.network).map_err(|e| e.to_string())?;
        registry
            .install(name, Arc::clone(session.model()), Arc::new(bif))
            .map(|_| ())
            .map_err(|e| format!("install {name}: {e}"))
    };
    install(&bif.name, bif.clone())?;
    for spec in flag_values(args, "--model") {
        let (name, path) = spec
            .split_once('=')
            .ok_or_else(|| format!("bad --model '{spec}': expected NAME=PATH"))?;
        install(name, load(path)?)?;
        eprintln!("loaded model {name} from {path}");
    }
    ShardedRuntime::with_registry(Arc::clone(&registry), &bif.name, config)
        .map(Arc::new)
        .map_err(|e| e.to_string())
}

/// `evprop session-bench`: replay an interactive evidence-churn stream
/// (toggle one finding, read one posterior, repeat) two ways — through
/// a resident [`IncrementalSession`](evprop_incremental::IncrementalSession)
/// and through stateless full repropagation — and report the speedup.
/// Evidence states are drawn from the network's MPE assignment, so
/// every configuration along the stream has positive probability.
fn cmd_session_bench(args: &[String]) -> Result<(), String> {
    use evprop_core::ShardState;
    use evprop_incremental::IncrementalSession;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    let path = args
        .first()
        .ok_or("session-bench needs a file".to_string())?;
    let bif = load(path)?;
    let steps = match flag_value(args, "--steps") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("bad step count '{v}'"))?,
        None => 200,
    };
    let threads = threads_flag(args)?;
    let seed = match flag_value(args, "--seed") {
        Some(s) => s.parse::<u64>().map_err(|_| format!("bad seed '{s}'"))?,
        None => 0xC0FFEE,
    };
    if steps == 0 {
        return Err("--steps must be at least 1".to_string());
    }

    let session = InferenceSession::from_network(&bif.network).map_err(|e| e.to_string())?;
    let mpe = session
        .most_probable_explanation(&SequentialEngine, &EvidenceSet::new())
        .map_err(|e| e.to_string())?;
    // Every fourth variable is reserved as a query target; the rest
    // form the observable pool with their MPE states.
    let mut pool = Vec::new();
    let mut targets = Vec::new();
    for (i, &(v, s)) in mpe.assignment.iter().enumerate() {
        if i % 4 == 0 {
            targets.push(v);
        } else {
            pool.push((v, s));
        }
    }
    if pool.is_empty() || targets.is_empty() {
        return Err("network too small for a churn stream".to_string());
    }

    // One toggle + one query per step, fixed ahead of both passes.
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let stream: Vec<(usize, evprop_potential::VarId)> = (0..steps)
        .map(|_| {
            (
                rng.gen_range(0..pool.len()),
                targets[rng.gen_range(0..targets.len())],
            )
        })
        .collect();

    let shard = ShardState::new(evprop_sched::SchedulerConfig::with_threads(threads));
    let jt = session.junction_tree();
    let graph = session.task_graph();

    // Stateless baseline: full repropagation per query.
    let mut ev = EvidenceSet::new();
    let mut arena = shard.checkout(graph, jt.potentials());
    shard
        .posterior_on(jt, graph, &mut arena, stream[0].1, &ev)
        .map_err(|e| e.to_string())?;
    let t0 = std::time::Instant::now();
    for &(slot, target) in &stream {
        let (v, s) = pool[slot];
        if ev.state_of(v).is_some() {
            ev.retract(v);
        } else {
            ev.observe(v, s);
        }
        shard
            .posterior_on(jt, graph, &mut arena, target, &ev)
            .map_err(|e| e.to_string())?;
    }
    let full_secs = t0.elapsed().as_secs_f64();
    shard.recycle(arena);

    // Resident incremental session over the same stream.
    let mut inc = IncrementalSession::new(Arc::clone(session.model()));
    inc.query(&shard, stream[0].1).map_err(|e| e.to_string())?;
    let t0 = std::time::Instant::now();
    for &(slot, target) in &stream {
        let (v, s) = pool[slot];
        if inc.evidence().state_of(v).is_some() {
            inc.retract(v);
        } else {
            inc.observe(v, s).map_err(|e| e.to_string())?;
        }
        inc.query(&shard, target).map_err(|e| e.to_string())?;
    }
    let inc_secs = t0.elapsed().as_secs_f64();

    let full_qps = steps as f64 / full_secs.max(1e-12);
    let inc_qps = steps as f64 / inc_secs.max(1e-12);
    let stats = inc.stats();
    println!(
        "session-bench: {steps} single-finding steps on {} [{threads} thread(s)]",
        path
    );
    println!("  full reprop:  {full_qps:.0} queries/s ({full_secs:.3} s)");
    println!(
        "  incremental:  {inc_qps:.0} queries/s ({inc_secs:.3} s) — {} cached, {} incremental, {} full ({} zero-separator)",
        stats.cached, stats.incremental, stats.full, stats.full_zero_separator
    );
    println!("  speedup: {:.2}x", inc_qps / full_qps);
    Ok(())
}

/// `evprop trace`: run traced propagations on a model and export a
/// Chrome-trace (Perfetto) timeline plus an analyzer summary.
///
/// The model is a BIF file, or `--random` for a materialized random
/// clique tree (the workload generator the scaling experiments use).
fn cmd_trace(args: &[String]) -> Result<(), String> {
    use evprop_trace::{analyze, chrome_trace_json, TraceSink};
    use std::sync::Arc;
    use std::time::Duration;

    let get = |name: &str, default: usize| -> Result<usize, String> {
        match flag_value(args, name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for {name}: '{v}'")),
            None => Ok(default),
        }
    };
    let seed = match flag_value(args, "--seed") {
        Some(s) => s.parse::<u64>().map_err(|_| format!("bad seed '{s}'"))?,
        None => 0xF9,
    };
    let (jt, graph, label) = if args.iter().any(|a| a == "--random") {
        let (n, w) = (get("--cliques", 64)?, get("--width", 8)?);
        let (r, k) = (get("--states", 2)?, get("--degree", 3)?);
        let shape = random_tree(&TreeParams::new(n, w, r, k).with_seed(seed));
        let jt = evprop_workloads::materialize(&shape, seed);
        let graph = TaskGraph::from_shape(&shape);
        (jt, graph, format!("random tree N={n} w={w} r={r} k={k}"))
    } else {
        let path = args
            .first()
            .filter(|a| !a.starts_with("--"))
            .ok_or("trace needs a file or --random".to_string())?;
        let bif = load(path)?;
        let jt =
            evprop_jtree::JunctionTree::from_network(&bif.network).map_err(|e| e.to_string())?;
        let graph = TaskGraph::from_shape(jt.shape());
        (jt, graph, bif.name.clone())
    };

    let threads = threads_flag(args)?;
    let runs = get("--runs", 4)?.max(1);
    let mut cfg = evprop_sched::SchedulerConfig::with_threads(threads);
    if let Some(&d) = positive_flags(args, "--delta")?.first() {
        cfg = cfg.with_delta(d);
    }
    if args.iter().any(|a| a == "--no-partitioning") {
        cfg = cfg.without_partitioning();
    }

    let engine = CollaborativeEngine::new(cfg);
    // Ring capacity: every task yields at most a fetch, a partition,
    // and its subtask spans; pad generously so nothing drops.
    let capacity = graph.num_tasks() * 8 * runs + 4096;
    let sink = Arc::new(TraceSink::for_workers(threads, capacity));
    engine.attach_trace(Some(Arc::clone(&sink)), 0);

    let ev = EvidenceSet::new();
    let mut stats_busy = vec![Duration::ZERO; threads];
    let mut wall_total = Duration::ZERO;
    for _ in 0..runs {
        engine
            .propagate_graph(&jt, &graph, &ev)
            .map_err(|e| e.to_string())?;
        if let Some(report) = engine.last_report() {
            wall_total += report.wall;
            for (i, t) in report.threads.iter().enumerate() {
                stats_busy[i] += t.busy;
            }
        }
    }

    let trace = sink.drain();
    let out = flag_value(args, "--out").unwrap_or("trace.json");
    std::fs::write(out, chrome_trace_json(&trace)).map_err(|e| format!("write {out}: {e}"))?;
    let a = analyze(&trace);
    println!(
        "traced {label}: {runs} run(s) x {} tasks on {threads} thread(s)",
        graph.num_tasks()
    );
    println!(
        "wrote {out}: {} events, {} dropped — load it at https://ui.perfetto.dev",
        trace.total_events(),
        trace.total_dropped()
    );
    println!("thread   busy(us)   idle(us)  tasks      weight");
    let mut max_dev = 0.0f64;
    for t in a.threads.iter().take(threads) {
        println!(
            "{:>6} {:>10} {:>10} {:>6} {:>11}",
            t.thread,
            t.busy_ns / 1_000,
            t.idle_ns / 1_000,
            t.tasks,
            t.weight
        );
        let stat_ns = stats_busy[t.thread].as_nanos() as f64;
        if stat_ns > 0.0 {
            max_dev = max_dev.max((t.busy_ns as f64 - stat_ns).abs() / stat_ns);
        }
    }
    println!(
        "busy agreement with ThreadStats: max deviation {:.3}%",
        max_dev * 100.0
    );
    println!(
        "jobs {}, imbalance {:.2} (max/mean weight), parallel efficiency {:.2}",
        a.jobs, a.imbalance, a.parallel_efficiency
    );
    let cp = graph.critical_path_weight();
    println!(
        "critical-path estimate {:.3} ms/job ({} weight at {:.1} ns/entry) vs measured {:.3} ms/job",
        a.critical_path_estimate_ns(cp) as f64 / 1e6,
        cp,
        a.ns_per_weight,
        wall_total.as_secs_f64() * 1e3 / runs as f64
    );
    Ok(())
}

/// `evprop trace-validate <trace.json>`: structural checks on an
/// exported Chrome-trace file — required fields present, per-thread
/// timestamps monotone — so CI can gate on exporter correctness.
fn cmd_trace_validate(args: &[String]) -> Result<(), String> {
    use evprop_serve::{parse_json, Json};
    use std::collections::BTreeMap;

    let path = args
        .first()
        .ok_or("trace-validate needs a trace.json file".to_string())?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    let v = parse_json(&src).map_err(|e| format!("{path}: {e}"))?;
    let Some(Json::Arr(events)) = v.get("traceEvents") else {
        return Err(format!("{path}: missing \"traceEvents\" array"));
    };
    let mut last_ts: BTreeMap<u64, f64> = BTreeMap::new();
    let mut spans = 0usize;
    for (i, e) in events.iter().enumerate() {
        let field = |k: &str| e.get(k).ok_or(format!("event {i}: missing \"{k}\""));
        let Json::Str(ph) = field("ph")? else {
            return Err(format!("event {i}: \"ph\" must be a string"));
        };
        if !matches!(field("name")?, Json::Str(_)) {
            return Err(format!("event {i}: \"name\" must be a string"));
        }
        let Json::Num(tid) = field("tid")? else {
            return Err(format!("event {i}: \"tid\" must be a number"));
        };
        if !matches!(field("pid")?, Json::Num(_)) {
            return Err(format!("event {i}: \"pid\" must be a number"));
        }
        match ph.as_str() {
            "M" => {} // metadata carries no timestamp
            "X" | "i" => {
                let Json::Num(ts) = field("ts")? else {
                    return Err(format!("event {i}: \"ts\" must be a number"));
                };
                if *ph == *"X" && !matches!(field("dur")?, Json::Num(d) if *d >= 0.0) {
                    return Err(format!("event {i}: \"dur\" must be a non-negative number"));
                }
                let key = *tid as u64;
                if let Some(prev) = last_ts.get(&key) {
                    if *ts < *prev {
                        return Err(format!(
                            "event {i}: ts {ts} goes backwards on tid {key} (prev {prev})"
                        ));
                    }
                }
                last_ts.insert(key, *ts);
                spans += 1;
            }
            other => return Err(format!("event {i}: unexpected ph \"{other}\"")),
        }
    }
    println!(
        "{path}: OK — {} events ({spans} timed) across {} thread(s), per-thread timestamps monotone",
        events.len(),
        last_ts.len()
    );
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let get = |name: &str, default: usize| -> Result<usize, String> {
        match flag_value(args, name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for {name}: '{v}'")),
            None => Ok(default),
        }
    };
    let n = get("--cliques", 256)?;
    let w = get("--width", 12)?;
    let r = get("--states", 2)?;
    let k = get("--degree", 4)?;
    let policy = match flag_value(args, "--policy").unwrap_or("collab") {
        "collab" | "collaborative" => Policy::collaborative(),
        "openmp" => Policy::OpenMpStyle,
        "dp" | "data-parallel" => Policy::DataParallel,
        "pnl" => Policy::PnlStyle,
        other => return Err(format!("unknown policy '{other}'")),
    };
    let mut cores = positive_flags(args, "--cores")?;
    if cores.is_empty() {
        cores = vec![1, 2, 4, 8];
    }

    let shape = random_tree(&TreeParams::new(n, w, r, k).with_seed(0xF9));
    let g = TaskGraph::from_shape(&shape);
    let model = CostModel::default();
    println!(
        "simulating {policy:?} on N={n} w={w} r={r} k={k} ({} tasks)",
        g.num_tasks()
    );
    let base = simulate(&g, policy, 1, &model).makespan;
    println!("cores,makespan,speedup");
    for p in &cores {
        let rep = simulate(&g, policy, *p, &model);
        println!(
            "{p},{},{:.2}",
            rep.makespan,
            base as f64 / rep.makespan as f64
        );
    }
    if args.iter().any(|a| a == "--gantt") {
        if let Policy::Collaborative {
            delta,
            work_stealing,
        } = policy
        {
            let p = cores.last().copied().unwrap_or(4);
            let (_, trace) = simulate_collaborative_traced(&g, p, delta, work_stealing, &model);
            println!("\nschedule on {p} cores (m=marg d=div e=ext x=mul):");
            print!("{}", render_gantt(&trace, p, 72));
        } else {
            eprintln!("--gantt requires the collaborative policy");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asia_file() -> String {
        // Written once: tests run on parallel threads, and a rewrite
        // truncates the file under a concurrent reader.
        static PATH: std::sync::OnceLock<String> = std::sync::OnceLock::new();
        PATH.get_or_init(|| {
            let dir = std::env::temp_dir().join("evprop-cli-tests");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("asia.bif");
            let text = bif::write(&bif::with_generated_names(networks::asia(), "asia"));
            std::fs::write(&path, text).unwrap();
            path.to_string_lossy().into_owned()
        })
        .clone()
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn info_runs() {
        cmd_info(&s(&[&asia_file()])).unwrap();
    }

    #[test]
    fn query_runs_with_evidence() {
        let f = asia_file();
        cmd_query(&s(&[
            &f,
            "--target",
            "v3",
            "--evidence",
            "v7=s1",
            "--engine",
            "seq",
        ]))
        .unwrap();
        // numeric state form
        cmd_query(&s(&[
            &f,
            "--target",
            "v3",
            "--evidence",
            "v7=1",
            "--threads",
            "2",
        ]))
        .unwrap();
        // soft evidence
        cmd_query(&s(&[&f, "--target", "v3", "--likelihood", "v6=0.3:0.9"])).unwrap();
        assert!(cmd_query(&s(&[&f, "--target", "v3", "--likelihood", "v6=x:y"])).is_err());
        for (weights, why) in [
            ("v6=0.3:-0.9", "weight 1 is -0.9"),
            ("v6=1e999:1", "weight 0 is inf"),
            ("v6=NaN:1", "weight 0 is NaN"),
            ("v6=0:0", "is all zero"),
        ] {
            let e = cmd_query(&s(&[&f, "--target", "v3", "--likelihood", weights])).unwrap_err();
            assert!(
                e.starts_with("likelihood of 'v6'") && e.contains(why),
                "{e}"
            );
        }
    }

    /// Finite likelihood weights whose product overflows `f64` used to
    /// print `NaN` posteriors and exit 0 on both engines; exact-zero
    /// evidence keeps its own message.
    #[test]
    fn overflowing_likelihoods_are_an_error() {
        let f = asia_file();
        for engine in ["seq", "collab"] {
            let mut args = s(&[&f, "--target", "v3", "--engine", engine]);
            for v in ["v0", "v1", "v2"] {
                args.extend(s(&["--likelihood", &format!("{v}=1e300:1e-300")]));
            }
            let e = cmd_query(&args).unwrap_err();
            assert!(e.starts_with("evidence overflows f64"), "{engine}: {e}");
        }
        let args = s(&[
            &f,
            "--target",
            "v4",
            "--evidence",
            "v3=s1",
            "--evidence",
            "v5=s0",
        ]);
        let e = cmd_query(&args).unwrap_err();
        assert!(e.contains("probability zero"), "{e}");
    }

    /// Findings the wire rejects used to panic inside the engines (exit
    /// 101): an out-of-range state index, a wrong weight count.
    #[test]
    fn out_of_range_evidence_is_an_error() {
        let f = asia_file();
        for cmd in [cmd_query, cmd_mpe] {
            for (engine, flag, spec, want) in [
                ("collab", "--evidence", "v7=9", "bad state reference: 9"),
                ("seq", "--evidence", "v7=-1", "bad state reference: -1"),
                ("collab", "--evidence", "v7=s9", "unknown state 's9'"),
                (
                    "collab",
                    "--likelihood",
                    "v6=1:1:1",
                    "likelihood of 'v6' needs 2 weights, got 3",
                ),
                (
                    "seq",
                    "--likelihood",
                    "v6=1",
                    "likelihood of 'v6' needs 2 weights, got 1",
                ),
            ] {
                let args = s(&[&f, "--target", "v3", "--engine", engine, flag, spec]);
                let e = cmd(&args).unwrap_err();
                assert!(e.starts_with(want), "{spec}: {e}");
            }
        }
    }

    #[test]
    fn mpe_runs() {
        let f = asia_file();
        cmd_mpe(&s(&[
            &f,
            "--evidence",
            "v7=s1",
            "--engine",
            "collab",
            "--threads",
            "2",
        ]))
        .unwrap();
    }

    #[test]
    fn session_bench_runs() {
        cmd_session_bench(&s(&[
            &asia_file(),
            "--steps",
            "20",
            "--threads",
            "1",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert!(cmd_session_bench(&s(&[&asia_file(), "--steps", "0"])).is_err());
        assert!(cmd_session_bench(&s(&[])).is_err());
    }

    #[test]
    fn export_then_reload() {
        for which in ["sprinkler", "asia", "student"] {
            cmd_export(&s(&[which])).unwrap();
        }
        assert!(cmd_export(&s(&["nope"])).is_err());
    }

    #[test]
    fn dot_runs() {
        let f = asia_file();
        cmd_dot(&s(&[&f])).unwrap();
        cmd_dot(&s(&[&f, "--tasks"])).unwrap();
        assert!(cmd_dot(&s(&[])).is_err());
    }

    #[test]
    fn serve_runs() {
        let f = asia_file();
        cmd_serve(&s(&[&f, "--queries", "8", "--threads", "2", "--seed", "7"])).unwrap();
        assert!(cmd_serve(&s(&[])).is_err());
        assert!(cmd_serve(&s(&[&f, "--queries", "x"])).is_err());
    }

    #[test]
    fn trace_exports_and_validates() {
        let dir = std::env::temp_dir().join("evprop-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let out_bif = dir.join("trace-asia.json").to_string_lossy().into_owned();
        let out_rand = dir.join("trace-rand.json").to_string_lossy().into_owned();
        let f = asia_file();
        cmd_trace(&s(&[
            &f,
            "--threads",
            "2",
            "--runs",
            "2",
            "--out",
            &out_bif,
        ]))
        .unwrap();
        cmd_trace_validate(&s(&[&out_bif])).unwrap();
        cmd_trace(&s(&[
            "--random",
            "--cliques",
            "16",
            "--width",
            "6",
            "--threads",
            "2",
            "--delta",
            "256",
            "--out",
            &out_rand,
        ]))
        .unwrap();
        cmd_trace_validate(&s(&[&out_rand])).unwrap();
        assert!(cmd_trace(&s(&[])).is_err());
        assert!(cmd_trace(&s(&["--out", "x.json"])).is_err());
        assert!(cmd_trace_validate(&s(&["/nonexistent.json"])).is_err());
    }

    #[test]
    fn simulate_runs() {
        cmd_simulate(&s(&[
            "--cliques",
            "32",
            "--width",
            "8",
            "--cores",
            "1",
            "--cores",
            "4",
        ]))
        .unwrap();
        cmd_simulate(&s(&["--cliques", "16", "--width", "6", "--gantt"])).unwrap();
        assert!(cmd_simulate(&s(&["--policy", "bogus"])).is_err());
    }

    /// A zero count is a usage error naming the flag — not a panic
    /// (`trace --threads 0`, `simulate --cores 0`), a dead worker
    /// (`--delta 0` reaches `EntryRange::split`) or a run on one thread
    /// reported as a run on zero.
    #[test]
    fn zero_count_flags_are_usage_errors() {
        let f = asia_file();
        let rejects = |r: Result<(), String>, flag: &str| {
            let e = r.unwrap_err();
            assert!(e.starts_with(flag) && e.contains("positive integer"), "{e}");
        };
        rejects(cmd_trace(&s(&[&f, "--threads", "0"])), "--threads");
        rejects(
            cmd_trace(&s(&[&f, "--threads", "1", "--delta", "0"])),
            "--delta",
        );
        rejects(
            cmd_serve(&s(&[&f, "--queries", "2", "--threads", "0"])),
            "--threads",
        );
        rejects(
            cmd_session_bench(&s(&[&f, "--steps", "2", "--threads", "0"])),
            "--threads",
        );
        rejects(
            cmd_simulate(&s(&["--cliques", "8", "--width", "4", "--cores", "0"])),
            "--cores",
        );
        rejects(
            cmd_query(&s(&[&f, "--target", "v3", "--threads", "x"])),
            "--threads",
        );
        for flag in [
            "--shards",
            "--threads-per-shard",
            "--queue-depth",
            "--batch",
            "--max-conns",
        ] {
            rejects(
                cmd_serve(&s(&[&f, "--listen", "127.0.0.1:0", flag, "0"])),
                flag,
            );
        }
    }

    /// The plain invocation (no `--model`) boots a registry too: the
    /// positional network is listed under its BIF name and answers
    /// both unnamed and named requests.
    #[test]
    fn plain_serve_boots_a_registry_with_the_positional_network() {
        use std::io::{BufRead, BufReader, Write};
        let bif = load(&asia_file()).unwrap();
        let runtime = boot_serve_runtime(&bif, &s(&["--shards", "1"])).unwrap();
        assert_eq!(runtime.default_model(), Some("asia"));
        let mut server = evprop_serve::TcpServer::bind(
            "127.0.0.1:0",
            std::sync::Arc::clone(&runtime),
            std::sync::Arc::new(bif),
        )
        .unwrap();
        let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut ask = |request: &str| {
            writeln!(&stream, "{request}").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line
        };
        let list = ask(r#"{"cmd": "model-list"}"#);
        assert!(
            list.starts_with(r#"{"models":[{"name":"asia","alias":1,"#),
            "got: {list}"
        );
        let plain = ask(r#"{"target": "v3"}"#);
        assert!(plain.contains("\"marginal\"") && !plain.contains("\"model\""));
        assert!(ask(r#"{"model": "asia", "target": "v3"}"#).contains(r#""model":"asia@v1""#));
        server.stop();
    }

    /// Every `"--flag"` literal the parser matches is documented in the
    /// usage text.
    #[test]
    fn every_parsed_flag_is_in_usage() {
        let parser = include_str!("main.rs")
            .split("#[cfg(test)]")
            .next()
            .unwrap()
            .replace(USAGE, "");
        let mut flags: Vec<&str> = parser
            .split('"')
            .filter(|lit| {
                lit.len() > 2
                    && lit.starts_with("--")
                    && lit[2..]
                        .bytes()
                        .all(|b| b.is_ascii_lowercase() || b == b'-')
            })
            .collect();
        flags.sort_unstable();
        flags.dedup();
        assert!(flags.len() > 20, "scan found only {flags:?}");
        for flag in flags {
            let documented = USAGE
                .split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                .any(|word| word == flag);
            assert!(
                documented,
                "{flag} is parsed but missing from the usage text"
            );
        }
    }

    #[test]
    fn bad_inputs_reported() {
        assert!(cmd_info(&s(&["/nonexistent.bif"])).is_err());
        let f = asia_file();
        assert!(cmd_query(&s(&[&f])).is_err());
        assert!(cmd_query(&s(&[&f, "--target", "nope"])).is_err());
        assert!(cmd_query(&s(&[&f, "--target", "v3", "--evidence", "v7"])).is_err());
        assert!(cmd_query(&s(&[&f, "--target", "v3", "--engine", "bogus"])).is_err());
        assert!(run(&s(&["frobnicate"])).is_err());
    }
}

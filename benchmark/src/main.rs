//! `evprop-benchmark --workload W --seed S --seconds N --trace 0|1`
//!
//! One run of one workload. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` is the separate traced pass that records spans
//! around the calls into each layer and prints the per-layer metrics.
//! Every answer is checked against a `SequentialEngine` oracle. The last
//! line of standard output is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`). See README.md for the design and its reasons.

mod host;
mod inputs;
mod layers;
mod spans;
mod stats;
mod system;

use inputs::{Inputs, Spec, WORKLOADS};
use stats::Spread;
use std::time::{Duration, Instant};
use system::{System, Window, SHARDS, WORKERS};

/// Cold boots timed for `setup_s`: at least this many, and as many more
/// as fit in [`SETUP_PHASE`], so that quick boots are sampled often
/// enough for their best decile to hold still.
const MIN_COLD_BOOTS: usize = 30;
const MAX_COLD_BOOTS: usize = 400;
const SETUP_PHASE: Duration = Duration::from_secs(2);

/// Operations before the first slice that are checked but not recorded.
const WARM_UP: Duration = Duration::from_secs(3);

/// One metric as printed and as written to the JSON line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of a pass: what the JSON line holds.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set by the set-up phase on the children it starts: boot once,
    /// check the first answer against these bits, print the time.
    boot_answer: Option<Vec<f64>>,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 24u64, false);
    let mut boot_answer = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            "--boot-answer" => {
                let bits: Result<Vec<u64>, _> = value
                    .split(',')
                    .map(|b| u64::from_str_radix(b, 16))
                    .collect();
                let bits =
                    bits.map_err(|_| format!("{flag}: `{value}` is not a list of hex words"))?;
                boot_answer = Some(bits.into_iter().map(f64::from_bits).collect());
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let workload = workload.ok_or_else(|| format!("--workload is required, one of {names:?}"))?;
    let spec = WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .ok_or_else(|| format!("unknown workload `{workload}`, expected one of {names:?}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
        boot_answer,
    })
}

pub fn info(name: &str, value: impl std::fmt::Display) {
    println!("info {name} {value}");
}

/// Keeps the spread behind a reported best decile visible.
fn info_spread(name: &str, unit: &str, s: &Spread) {
    println!(
        "info {name}_spread q1={} median={} q3={} reported={} {unit}",
        s.q1, s.median, s.q3, s.best_decile
    );
}

/// Noise rule 1 as a start-up check: the benchmark never asks the host
/// for more runnable threads than it has cores. Since only one of its
/// threads is ever runnable, it then binds them all to one core, which
/// takes the guest scheduler's placement out of the measurement.
fn thread_budget_guard() -> Result<Option<host::Pinned>, String> {
    let cores = host::cores();
    let clients = 1;
    info("host_cores", cores);
    info("runnable_threads", 1);
    // One load-generator thread and its one connection share a turn:
    // the client blocks while the connection thread works.
    if clients + SHARDS * WORKERS > cores {
        return Err(format!(
            "{clients} client + {SHARDS} shard x {WORKERS} worker exceed the host's {cores} cores"
        ));
    }
    let pinned = host::pin_to_one_core();
    match &pinned {
        Some(p) => info("pinned_to_core", p.core),
        None => info("pinned_to_core", "refused"),
    }
    Ok(pinned)
}

/// The child side of a cold boot: the process is new, so nothing is
/// warm, mapped or cached by an earlier boot. Times source → first
/// verified answer and prints it.
fn boot_once(spec: &Spec, seed: u64, first_answer: Vec<f64>) {
    let (inputs, reference_models) = Inputs::generate(spec, seed, Some(first_answer));
    drop(reference_models);
    let start = Instant::now();
    let system = System::boot(spec, &inputs, None);
    println!("{}", start.elapsed().as_secs_f64());
    system.shutdown();
}

/// Times cold boots until the set-up phase has its sample. Every boot is
/// a process of its own (this executable again, inheriting the core it
/// is bound to): repeated in one process, a boot takes 2.7 ms or 4.7 ms
/// for whole runs at a time, depending on whether the allocator happens
/// to trim the heap when the previous system is dropped.
fn setup_phase(spec: &Spec, seed: u64, inputs: &Inputs) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let answer: Vec<String> = inputs.questions[0]
        .answer
        .iter()
        .map(|p| format!("{:x}", p.to_bits()))
        .collect();
    let mut boots = Vec::new();
    let phase = Instant::now();
    while boots.len() < MIN_COLD_BOOTS
        || (phase.elapsed() < SETUP_PHASE && boots.len() < MAX_COLD_BOOTS)
    {
        let child = std::process::Command::new(&exe)
            .args(["--workload", spec.name, "--seed", &seed.to_string()])
            .args(["--boot-answer", &answer.join(",")])
            .output()
            .map_err(|e| format!("cannot start a cold boot: {e}"))?;
        let printed = String::from_utf8_lossy(&child.stdout);
        match printed.trim().parse::<f64>() {
            Ok(seconds) if child.status.success() => boots.push(seconds),
            _ => {
                let complaint = String::from_utf8_lossy(&child.stderr);
                return Err(format!("a cold boot failed: {}", complaint.trim()));
            }
        }
    }
    Ok(boots)
}

fn end_to_end(spec: &Spec, seed: u64, inputs: &Inputs, seconds: u64) -> Result<Outcome, String> {
    // The load window comes first, on a freshly booted system, so that
    // peak memory is that of one serving system and not of the hundreds
    // of boots the set-up phase goes through afterwards.
    let mut system = System::boot(spec, inputs, None);
    let (reference_before, steal_before) = (host::reference_loop_ms(), host::steal_ms());
    let window = Window::run(
        || system.operation(inputs),
        WARM_UP,
        Duration::from_secs(seconds),
        inputs.questions.len(),
    )?;
    let (reference_after, steal_after) = (host::reference_loop_ms(), host::steal_ms());
    let rss_mb = host::peak_rss_mb();
    system.shutdown();

    // Set-up phase, on its own, nothing else running.
    let boots = setup_phase(spec, seed, inputs)?;
    info("cold_boots", boots.len());
    let setup = Spread::of(boots, false);

    info("host_ref_ms_before", format!("{reference_before:.3}"));
    info("host_ref_ms_after", format!("{reference_after:.3}"));
    info("steal_ms", steal_after - steal_before);
    let drift = (reference_after - reference_before).abs() / reference_before.min(reference_after);
    info("unsettled", u8::from(drift > 0.10));

    let (throughput, p50, p95) = (
        window.throughput(),
        window.latency_p50(),
        window.latency_p95(),
    );
    info_spread("setup_s", "s", &setup);
    info_spread("throughput_qps", "1/s", &throughput);
    info_spread("latency_p50_us", "us", &p50);
    info_spread("latency_p95_us", "us", &p95);
    info(
        "latency_p99_us_pooled",
        format!("{:.2}", window.pooled_p99_us),
    );
    info(
        "slices",
        format!(
            "{} of {} operations each",
            window.slices.len(),
            inputs.questions.len()
        ),
    );
    Ok(Outcome {
        attempted: window.attempted,
        failed: window.failed,
        metrics: vec![
            Metric {
                name: "throughput_qps",
                value: throughput.best_decile,
                unit: "1/s",
            },
            Metric {
                name: "latency_p50_us",
                value: p50.best_decile,
                unit: "us",
            },
            Metric {
                name: "latency_p95_us",
                value: p95.best_decile,
                unit: "us",
            },
            Metric {
                name: "setup_s",
                value: setup.best_decile,
                unit: "s",
            },
            Metric {
                name: "rss_mb",
                value: rss_mb,
                unit: "MB",
            },
        ],
    })
}

pub fn print_metrics(outcome: &Outcome) {
    for m in &outcome.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
}

fn print_outcome(outcome: &Outcome) {
    print_metrics(outcome);
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if let Some(first_answer) = args.boot_answer {
        boot_once(args.spec, args.seed, first_answer);
        return Ok(());
    }
    info("workload", args.spec.name);
    info("why", args.spec.why);
    info("seed", args.seed);
    let pinned = thread_budget_guard()?;
    let (inputs, reference_models) = Inputs::generate(args.spec, args.seed, None);
    let outcome = if args.trace {
        layers::traced_pass(
            args.spec,
            &inputs,
            &reference_models,
            args.seed,
            args.seconds,
            pinned,
        )?
    } else {
        drop(reference_models);
        end_to_end(args.spec, args.seed, &inputs, args.seconds)?
    };
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    print_outcome(&outcome);
    Ok(())
}

fn main() {
    if let Err(message) = run() {
        eprintln!("evprop-benchmark: {message}");
        std::process::exit(1);
    }
}

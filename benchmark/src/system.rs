//! The system under test as a user meets it: cold boot from a model
//! source to a first verified answer, and the one closed-loop client.
//!
//! Noise rule 1: `RuntimeConfig::new(1, 1)`, one client, no δ /
//! stealing / batch overrides. Client, connection thread, dispatcher
//! and pool worker only ever wait for each other, so at most one thread
//! is runnable at a time.

use crate::inputs::{max_abs_diff, Inputs, Model, Parsed, Path, Spec};
use crate::spans::Recorder;
use crate::stats::{ascending, quantile, LogHistogram, Spread};
use evprop_core::Query;
use evprop_potential::PotentialTable;
use evprop_registry::ModelRegistry;
use evprop_serve::{RuntimeConfig, ShardedRuntime, TcpServer};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shards and workers per shard of every end-to-end workload.
pub const SHARDS: usize = 1;
pub const WORKERS: usize = 1;

/// In-process answers are the sequential engine's arithmetic in another
/// order at worst; wire and session answers go through text or through
/// Hugin division updates.
const IN_PROCESS_TOLERANCE: f64 = 1e-12;
const WIRE_SESSION_TOLERANCE: f64 = 1e-9;

/// One line-oriented client connection.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Connection {
    pub fn open(server: &TcpServer) -> Connection {
        let stream = TcpStream::connect(server.local_addr()).expect("connect to loopback server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        Connection {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
            line: String::new(),
        }
    }

    /// Sends one request line and returns the response line.
    pub fn round_trip(&mut self, request: &str) -> std::io::Result<&str> {
        self.writer.write_all(request.as_bytes())?;
        self.line.clear();
        self.reader.read_line(&mut self.line)?;
        Ok(self.line.trim_end())
    }
}

/// The numbers of the `"key":[…]` array of a response line.
pub fn array_field(line: &str, key: &str) -> Option<Vec<f64>> {
    let start = line.find(&format!("\"{key}\":["))? + key.len() + 4;
    let end = start + line[start..].find(']')?;
    line[start..end]
        .split(',')
        .map(|f| f.trim().parse().ok())
        .collect()
}

/// A booted system plus the client state of its workload's path.
pub struct System {
    pub runtime: Arc<ShardedRuntime>,
    pub registry: Option<Arc<ModelRegistry>>,
    pub models: Vec<Model>,
    server: Option<TcpServer>,
    connection: Option<Connection>,
    session: Option<u64>,
    path: Path,
    /// Index of the next question.
    cursor: usize,
}

/// What the timed calls of one operation returned, before it is checked.
enum Answered<'a> {
    Line(Option<&'a str>),
    Table(Option<PotentialTable>),
}

/// Runs `f` inside a span when a recorder is attached.
fn stage<T>(recorder: &mut Option<&mut Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match recorder {
        Some(r) => r.span(name, f),
        None => f(),
    }
}

impl System {
    /// Cold boot: model source → parse / generate → compile → (registry
    /// install with warm-up) → runtime → (bind and connect, or session
    /// open and first evidence window) → first verified answer. With a
    /// recorder, each stage is a span.
    ///
    /// Panics if that first answer is wrong: nothing measured after a
    /// wrong boot would mean anything.
    pub fn boot(spec: &Spec, inputs: &Inputs, mut recorder: Option<&mut Recorder>) -> System {
        let rec = &mut recorder;
        let parsed: Vec<Parsed> = stage(rec, "boot.source", || {
            inputs.sources.iter().map(Model::parse).collect()
        });
        let models: Vec<Model> = stage(rec, "core.compile_model", || {
            inputs
                .sources
                .iter()
                .zip(parsed)
                .map(|(source, parsed)| Model::compile(source.name(), parsed))
                .collect()
        });
        let registry = (spec.path == Path::Wire).then(|| {
            stage(rec, "registry.install", || {
                let registry = Arc::new(ModelRegistry::new());
                for m in &models {
                    registry
                        .install(m.name, Arc::clone(&m.compiled), Arc::clone(&m.names))
                        .expect("model installs and warms up");
                }
                registry
            })
        });
        let mut system = stage(rec, "serve.boot", || {
            let config = RuntimeConfig::new(SHARDS, WORKERS);
            let runtime = Arc::new(match &registry {
                Some(registry) => {
                    ShardedRuntime::with_registry(Arc::clone(registry), models[0].name, config)
                        .expect("default model resolves")
                }
                None => ShardedRuntime::from_model(Arc::clone(&models[0].compiled), config),
            });
            let mut system = System {
                runtime,
                registry,
                models,
                server: None,
                connection: None,
                session: None,
                path: spec.path,
                cursor: 0,
            };
            match spec.path {
                Path::Wire => {
                    let server = system.bind();
                    system.connection = Some(Connection::open(&server));
                    system.server = Some(server);
                }
                Path::Stateless => {}
                Path::Session => system.session = Some(system.open_session(0, inputs)),
            }
            system
        });
        let first = stage(rec, "core.cold_query", || system.operation(inputs));
        assert!(
            first.is_some(),
            "{}: first answer after boot is wrong",
            spec.name
        );
        system
    }

    /// A TCP front-end on this system's runtime (loopback, any port).
    pub fn bind(&self) -> TcpServer {
        TcpServer::bind(
            "127.0.0.1:0",
            Arc::clone(&self.runtime),
            Arc::clone(&self.models[0].names),
        )
        .expect("bind loopback")
    }

    /// Opens a session on `model` holding the evidence the last
    /// question of that model's cycle leaves behind, so that the
    /// cycle's first operation replaces one finding like any other.
    pub fn open_session(&self, model: usize, inputs: &Inputs) -> u64 {
        let tag = self.registry.is_some().then_some(self.models[model].name);
        let (id, _) = self.runtime.session_open_model(tag).expect("session opens");
        for e in inputs.evidence_before_cycle(model).iter() {
            self.runtime
                .session_set(id, e.var, e.state)
                .expect("finding is valid");
        }
        id
    }

    /// Performs the next operation of the stream and checks its answer
    /// against the oracle. Returns the latency of a correct answer;
    /// `None` for a wrong, refused or errored one. Only the calls into
    /// the system are timed, not the check.
    pub fn operation(&mut self, inputs: &Inputs) -> Option<Duration> {
        self.operation_traced(inputs, &mut None)
    }

    /// [`System::operation`], recording an `op` span around the timed
    /// calls and one child span per call the path is made of.
    pub fn operation_traced(
        &mut self,
        inputs: &Inputs,
        recorder: &mut Option<&mut Recorder>,
    ) -> Option<Duration> {
        let i = self.cursor % inputs.questions.len();
        let id = self.cursor as u64;
        self.cursor += 1;
        let q = &inputs.questions[i];
        let op = recorder.as_mut().map(|r| {
            r.set_operation(id);
            r.begin("op")
        });
        let start = Instant::now();
        let answered = match self.path {
            Path::Wire => {
                let connection = self
                    .connection
                    .as_mut()
                    .expect("wire path has a connection");
                Answered::Line(connection.round_trip(&inputs.lines[i]).ok())
            }
            Path::Stateless => {
                let query = Query::new(q.target, q.evidence.clone());
                let answered = self.runtime.query_timed(query).ok();
                if let (Some(r), Some(op), Some((_, timing))) = (recorder.as_mut(), op, &answered) {
                    r.reported_child("serve.queue_wait", op, Duration::ZERO, timing.queue);
                    r.reported_child("serve.exec", op, timing.queue, timing.exec);
                }
                Answered::Table(answered.map(|(table, _)| table))
            }
            Path::Session => {
                let session = self.session.expect("session path has a session");
                let rt = &self.runtime;
                let rec = &mut *recorder;
                let retracted = stage(rec, "serve.session_retract", || {
                    rt.session_retract(session, q.leaves)
                });
                let set = stage(rec, "serve.session_set", || {
                    rt.session_set(session, q.enters.0, q.enters.1)
                });
                let answer = stage(rec, "serve.session_query", || {
                    rt.session_query(session, q.target)
                });
                Answered::Table(match (retracted, set, answer) {
                    (Ok(_), Ok(()), Ok((table, _mode))) => Some(table),
                    _ => None,
                })
            }
        };
        let latency = start.elapsed();
        if let (Some(r), Some(op)) = (recorder.as_mut(), op) {
            r.end(op);
        }
        let (got, tolerance) = match answered {
            Answered::Line(line) => (array_field(line?, "marginal")?, WIRE_SESSION_TOLERANCE),
            Answered::Table(table) if self.path == Path::Session => {
                (table?.data().to_vec(), WIRE_SESSION_TOLERANCE)
            }
            Answered::Table(table) => (table?.data().to_vec(), IN_PROCESS_TOLERANCE),
        };
        (max_abs_diff(&got, &q.answer)? <= tolerance).then_some(latency)
    }

    /// Stops the server and the runtime and joins their threads.
    pub fn shutdown(mut self) {
        self.connection = None;
        if let Some(mut server) = self.server.take() {
            server.stop();
        }
        self.runtime.shutdown();
    }
}

/// One slice of a load window: one pass over the question cycle.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    /// Correct operations per second over the pass.
    pub throughput: f64,
    /// Median and 95th percentile latency of its correct operations.
    pub p50_us: f64,
    pub p95_us: f64,
}

/// The result of one load window.
#[derive(Debug)]
pub struct Window {
    pub slices: Vec<Slice>,
    pub attempted: u64,
    pub failed: u64,
    /// 99th percentile over every latency sample of the window (read
    /// from a histogram with 1 % wide buckets).
    pub pooled_p99_us: f64,
}

/// A slice needs this many samples for its 95th percentile to have ten
/// samples beyond it.
pub const MIN_OPERATIONS_PER_SLICE: usize = 200;

impl Window {
    /// Closed loop: `warm_up` of operations that are checked but not
    /// recorded, then slices until `duration` has passed. A slice is
    /// `pass` consecutive operations — one pass over the question
    /// cycle, so every slice does exactly the same work and whatever
    /// separates two slices is interference, not input.
    pub fn run(
        mut operation: impl FnMut() -> Option<Duration>,
        warm_up: Duration,
        duration: Duration,
        pass: usize,
    ) -> Result<Window, String> {
        let (mut attempted, mut failed) = (0u64, 0u64);
        let warm = Instant::now();
        while warm.elapsed() < warm_up {
            attempted += 1;
            failed += u64::from(operation().is_none());
        }
        let mut pooled = LogHistogram::new();
        let mut slices = Vec::new();
        let start = Instant::now();
        while start.elapsed() < duration {
            let mut samples = Vec::with_capacity(pass);
            let slice_start = Instant::now();
            for _ in 0..pass {
                match operation() {
                    Some(latency) => samples.push(latency.as_secs_f64() * 1e6),
                    None => failed += 1,
                }
            }
            let seconds = slice_start.elapsed().as_secs_f64();
            attempted += pass as u64;
            if samples.len() < MIN_OPERATIONS_PER_SLICE {
                return Err(format!(
                    "slice {} holds {} correct operations, fewer than the \
                     {MIN_OPERATIONS_PER_SLICE} its 95th percentile needs",
                    slices.len(),
                    samples.len()
                ));
            }
            let sorted = ascending(samples);
            slices.push(Slice {
                throughput: sorted.len() as f64 / seconds,
                p50_us: quantile(&sorted, 0.5),
                p95_us: quantile(&sorted, 0.95),
            });
            for us in sorted {
                pooled.record(us * 1e3);
            }
        }
        Ok(Window {
            slices,
            attempted,
            failed,
            pooled_p99_us: pooled.quantile(0.99) / 1e3,
        })
    }

    /// Correct operations per second across slices.
    pub fn throughput(&self) -> Spread {
        Spread::of(self.slices.iter().map(|s| s.throughput).collect(), true)
    }

    /// Per-slice median latency across slices.
    pub fn latency_p50(&self) -> Spread {
        Spread::of(self.slices.iter().map(|s| s.p50_us).collect(), false)
    }

    /// Per-slice 95th percentile latency across slices.
    pub fn latency_p95(&self) -> Spread {
        Spread::of(self.slices.iter().map(|s| s.p95_us).collect(), false)
    }
}

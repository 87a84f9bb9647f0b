//! std-only TCP front-end: newline-delimited JSON over
//! thread-per-connection, answering on a shared [`ShardedRuntime`].
//!
//! One request line in, one response line out, in order, per
//! connection. Connections are independent — K clients drive K shards
//! concurrently. Shutdown closes the listener (via a wake-up connect)
//! and every tracked connection, so [`TcpServer::stop`] returns
//! promptly even with idle clients attached.

use crate::protocol::{
    format_drain_ack, format_error, format_model_list, format_model_loaded, format_model_swapped,
    format_model_unloaded, format_response, format_response_timed, format_session_ack,
    format_session_opened, format_session_response, format_stats, format_trace, parse_json,
    parse_request_value, request_model, request_session, with_model_tag, ModelNames, Request,
};
use crate::runtime::{ServeError, ShardedRuntime};
use evprop_registry::{ModelHandle, ModelRegistry, RegistryError};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Connection-hygiene knobs of the TCP front-end. The defaults match
/// the pre-options server (no timeouts, a generous line cap), so
/// [`TcpServer::bind`] behaves exactly as before; hardened deployments
/// tighten them via [`TcpServer::bind_with`].
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Maximum concurrently open connections; excess connects receive
    /// one `{"error": …}` line and are closed immediately.
    pub max_conns: usize,
    /// Maximum request-line length in bytes (newline included). An
    /// over-long line gets one error response and the connection is
    /// closed — a client streaming garbage can't balloon server memory.
    pub max_line_bytes: usize,
    /// Per-connection read timeout: a connection idle longer than this
    /// is reaped. `None` (the default) keeps idle clients forever.
    pub read_timeout: Option<Duration>,
    /// Per-connection write timeout: a client that stops reading its
    /// responses is disconnected instead of blocking a handler thread.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            max_conns: 1024,
            max_line_bytes: 1 << 20,
            read_timeout: None,
            write_timeout: None,
        }
    }
}

struct Shared {
    runtime: Arc<ShardedRuntime>,
    names: Arc<dyn ModelNames + Send + Sync>,
    stop: AtomicBool,
    options: ServerOptions,
    /// Clones of live connection streams keyed by connection id, so
    /// `stop` can shut them down and unblock their handler threads
    /// mid-read — and each handler removes its own entry on exit, so
    /// the table tracks *live* connections (the `max_conns` witness),
    /// not every connection ever accepted.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    /// Set by the `drain` protocol command; [`TcpServer::wait_for_drain`]
    /// blocks on it.
    draining: Mutex<bool>,
    drain_cv: Condvar,
}

/// A running TCP front-end; dropping (or [`TcpServer::stop`]) shuts it
/// down.
pub struct TcpServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl TcpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener.
    pub fn bind(
        addr: &str,
        runtime: Arc<ShardedRuntime>,
        names: Arc<dyn ModelNames + Send + Sync>,
    ) -> std::io::Result<Self> {
        Self::bind_with(addr, runtime, names, ServerOptions::default())
    }

    /// [`TcpServer::bind`] with explicit connection-hygiene options.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener.
    pub fn bind_with(
        addr: &str,
        runtime: Arc<ShardedRuntime>,
        names: Arc<dyn ModelNames + Send + Sync>,
        options: ServerOptions,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            runtime,
            names,
            stop: AtomicBool::new(false),
            options,
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            draining: Mutex::new(false),
            drain_cv: Condvar::new(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("evprop-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn accept thread");
        Ok(TcpServer {
            addr: local,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until some client sends the `{"cmd": "drain"}` protocol
    /// command (or the server is stopped). By the time this returns,
    /// runtime admission is already closed; the caller finishes the
    /// shutdown with [`ShardedRuntime::drain`] and [`TcpServer::stop`].
    pub fn wait_for_drain(&self) {
        let mut draining = self.shared.draining.lock();
        while !*draining && !self.shared.stop.load(Ordering::SeqCst) {
            self.shared.drain_cv.wait(&mut draining);
        }
    }

    /// Stops accepting, disconnects clients, and joins the accept
    /// thread. Idempotent; does **not** shut down the runtime (it may
    /// be shared).
    pub fn stop(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Release wait_for_drain, then unblock `accept` by connecting
        // once; the loop re-checks the stop flag before handling the
        // connection.
        self.shared.drain_cv.notify_all();
        let _ = TcpStream::connect(self.addr);
        for (_, conn) in self.shared.conns.lock().drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let conn_id = {
            let mut conns = shared.conns.lock();
            if conns.len() >= shared.options.max_conns {
                drop(conns);
                // Refuse politely with one error line so the client sees
                // *why*, instead of an unexplained reset.
                let mut w = BufWriter::new(stream);
                let _ = w
                    .write_all(format_error("connection limit reached: try again later").as_bytes())
                    .and_then(|()| w.write_all(b"\n"))
                    .and_then(|()| w.flush());
                continue; // dropping `w` closes the stream
            }
            let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
            if let Ok(clone) = stream.try_clone() {
                conns.insert(id, clone);
            }
            id
        };
        let slot = ConnSlot {
            shared: Arc::clone(shared),
            id: conn_id,
        };
        let _ = std::thread::Builder::new()
            .name("evprop-conn".into())
            .spawn(move || {
                let slot = slot; // dropped on return and on unwind alike
                handle_connection(stream, &slot.shared);
            });
    }
}

/// A live connection's entry in [`Shared::conns`], freed on drop — so a
/// handler that panics (or a thread that fails to spawn) gives its
/// `max_conns` slot back like one that returns.
struct ConnSlot {
    shared: Arc<Shared>,
    id: u64,
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.shared.conns.lock().remove(&self.id);
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(shared.options.read_timeout);
    let _ = stream.set_write_timeout(shared.options.write_timeout);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let cap = shared.options.max_line_bytes;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // Read one line, but never buffer more than the cap: the `take`
        // bounds how much a newline-less client can make us hold.
        let n = match (&mut reader)
            .take(cap as u64 + 1)
            .read_until(b'\n', &mut buf)
        {
            Ok(0) => break, // EOF
            Ok(n) => n,
            // A read timeout means the connection idled past its
            // budget: reap it.
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                break
            }
            Err(_) => break,
        };
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        if n > cap && !buf.ends_with(b"\n") {
            // The line is longer than the cap; answer once and hang up
            // (we cannot resynchronize on the next line boundary
            // without buffering the rest).
            let msg = format_error(&format!("request line exceeds {cap} bytes"));
            let _ = writer
                .write_all(msg.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush());
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            break;
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        #[cfg(feature = "chaos")]
        if evprop_sched::chaos::should_drop_conn() {
            // Injected fault: tear the connection down mid-request, as a
            // crashing client or flaky network would.
            let _ = writer.get_ref().shutdown(std::net::Shutdown::Both);
            break;
        }
        let response = answer_line(trimmed, shared);
        if writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
    }
}

/// One request line → one response line (no trailing newline).
fn answer_line(line: &str, shared: &Shared) -> String {
    let v = match parse_json(line) {
        Ok(v) => v,
        Err(e) => return format_error(&e),
    };
    // The optional `"model"` field picks which registry version answers
    // — and whose variable names interpret — this request. Resolving it
    // *before* parsing is what lets two models with different variables
    // share one connection.
    let resolved: Option<Arc<ModelHandle>> = match request_model(&v) {
        Ok(None) => None,
        Ok(Some(spec)) => {
            let Some(registry) = shared.runtime.registry() else {
                return format_error(
                    &ServeError::Registry(RegistryError::UnknownModel(spec)).to_string(),
                );
            };
            match registry.resolve(&spec) {
                Ok(h) => Some(h),
                Err(e) => return format_error(&e.to_string()),
            }
        }
        Err(e) => return format_error(&e),
    };
    // Session-addressed commands speak the language of whatever model
    // their session pinned at open, so look that up before parsing.
    let session_names = request_session(&v).and_then(|id| shared.runtime.session_names(id));
    let names: &dyn ModelNames = match (&resolved, &session_names) {
        (Some(h), _) => h.names().as_ref(),
        (None, Some(n)) => n.as_ref(),
        (None, None) => shared.names.as_ref(),
    };
    match parse_request_value(&v, names) {
        Ok(Request::Stats) => format_stats(&shared.runtime.stats()),
        Ok(Request::Trace) => format_trace(shared.names.as_ref(), &shared.runtime.recent()),
        Ok(Request::Query {
            query,
            timing,
            deadline,
        }) => {
            let target = query.target;
            // Re-resolve by exact tag at submit: the ticket then pins —
            // and the response names — the exact answering version.
            let spec = resolved.as_ref().map(|h| h.tag());
            let ticket = match shared
                .runtime
                .submit_with_deadline(query, spec.as_deref(), deadline)
            {
                Ok(t) => t,
                Err(e) => return format_error(&e.to_string()),
            };
            let tag = ticket.model_tag().map(str::to_string);
            let response = if timing {
                match ticket.wait_timed() {
                    (Ok(marginal), t) => format_response_timed(names, target, &marginal, &t),
                    (Err(e), _) => return format_error(&e.to_string()),
                }
            } else {
                match ticket.wait() {
                    Ok(marginal) => format_response(names, target, &marginal),
                    Err(e) => return format_error(&e.to_string()),
                }
            };
            match tag {
                Some(tag) => with_model_tag(response, &tag),
                None => response,
            }
        }
        Ok(Request::SessionOpen) => {
            let spec = resolved.as_ref().map(|h| h.tag());
            match shared.runtime.session_open_model(spec.as_deref()) {
                Ok((id, Some(tag))) => with_model_tag(format_session_opened(id), &tag),
                Ok((id, None)) => format_session_opened(id),
                Err(e) => format_error(&e.to_string()),
            }
        }
        Ok(Request::SessionSet {
            session,
            var,
            state,
        }) => match shared.runtime.session_set(session, var, state) {
            Ok(()) => format_session_ack(None),
            Err(e) => format_error(&e.to_string()),
        },
        Ok(Request::SessionRetract { session, var }) => {
            match shared.runtime.session_retract(session, var) {
                Ok(removed) => {
                    format_session_ack(removed.map(|s| names.state_name(var, s)).as_deref())
                }
                Err(e) => format_error(&e.to_string()),
            }
        }
        Ok(Request::SessionQuery { session, target }) => {
            match shared.runtime.session_query(session, target) {
                Ok((marginal, mode)) => format_session_response(names, target, &marginal, &mode),
                Err(e) => format_error(&e.to_string()),
            }
        }
        Ok(Request::SessionClose { session }) => match shared.runtime.session_close(session) {
            Ok(()) => format_session_ack(None),
            Err(e) => format_error(&e.to_string()),
        },
        Ok(Request::ModelLoad { path, name }) => answer_model_load(shared, &path, &name),
        Ok(Request::ModelUnload { name, version }) => match registry_of(shared) {
            Ok(registry) => match registry.unload(&name, version) {
                Ok(tags) => format_model_unloaded(&tags),
                Err(e) => format_error(&e.to_string()),
            },
            Err(resp) => resp,
        },
        Ok(Request::ModelList) => match registry_of(shared) {
            Ok(registry) => format_model_list(&registry.list()),
            Err(resp) => resp,
        },
        Ok(Request::ModelSwap { name, version }) => match registry_of(shared) {
            Ok(registry) => match registry.swap(&name, version) {
                Ok(handle) => format_model_swapped(&handle.tag()),
                Err(e) => format_error(&e.to_string()),
            },
            Err(resp) => resp,
        },
        Ok(Request::Drain) => {
            // Close admission immediately — every query already queued
            // still gets its answer — then wake whoever is parked in
            // `wait_for_drain` to run the bounded drain and exit.
            shared.runtime.close_admission();
            *shared.draining.lock() = true;
            shared.drain_cv.notify_all();
            format_drain_ack()
        }
        Err(msg) => format_error(&msg),
    }
}

/// The runtime's registry, or a ready-made error response for a
/// runtime booted without one ([`ShardedRuntime::from_model`]).
fn registry_of(shared: &Shared) -> Result<&Arc<ModelRegistry>, String> {
    shared
        .runtime
        .registry()
        .ok_or_else(|| format_error("runtime has no model registry"))
}

/// Handles `model-load`: parse + compile + warm up the BIF file on the
/// connection thread (the dispatcher threads keep serving throughout),
/// then install it as the next version of `name` and flip the alias.
fn answer_model_load(shared: &Shared, path: &str, name: &str) -> String {
    let registry = match registry_of(shared) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    let src = match std::fs::read_to_string(path) {
        Ok(src) => src,
        Err(e) => return format_error(&format!("cannot read {path}: {e}")),
    };
    let bif = match evprop_bayesnet::bif::parse(&src) {
        Ok(bif) => bif,
        Err(e) => return format_error(&format!("cannot parse {path}: {e}")),
    };
    let session = match evprop_core::InferenceSession::from_network(&bif.network) {
        Ok(s) => s,
        Err(e) => return format_error(&format!("cannot compile {path}: {e}")),
    };
    let model = Arc::clone(session.model());
    match registry.install(name, model, Arc::new(bif)) {
        Ok(handle) => format_model_loaded(&handle.tag(), handle.resident_bytes()),
        Err(e) => format_error(&e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::NumericNames;
    use crate::runtime::RuntimeConfig;
    use evprop_bayesnet::networks;
    use evprop_core::{InferenceSession, SequentialEngine};
    use evprop_potential::{EvidenceSet, VarId};

    fn boot() -> (TcpServer, SocketAddr) {
        let net = networks::asia();
        let session = InferenceSession::from_network(&net).unwrap();
        let runtime = Arc::new(ShardedRuntime::new(
            session,
            RuntimeConfig::new(2, 1).without_partitioning(),
        ));
        let names = Arc::new(NumericNames::of(&net));
        let server = TcpServer::bind("127.0.0.1:0", runtime, names).unwrap();
        let addr = server.local_addr();
        (server, addr)
    }

    fn roundtrip(stream: &TcpStream, request: &str) -> String {
        let mut w = BufWriter::new(stream.try_clone().unwrap());
        writeln!(w, "{request}").unwrap();
        w.flush().unwrap();
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    #[test]
    fn serves_queries_and_errors_over_tcp() {
        let (mut server, addr) = boot();
        let stream = TcpStream::connect(addr).unwrap();

        let response = roundtrip(&stream, r#"{"target": "v3", "evidence": {"v7": 1}}"#);
        // The answer must match the sequential engine bit-for-bit.
        let session = InferenceSession::from_network(&networks::asia()).unwrap();
        let mut ev = EvidenceSet::new();
        ev.observe(VarId(7), 1);
        let want = session.posterior(&SequentialEngine, VarId(3), &ev).unwrap();
        let expected = format_response(&NumericNames::of(&networks::asia()), VarId(3), &want);
        assert_eq!(response, expected);

        let err = roundtrip(&stream, r#"{"target": "bogus"}"#);
        assert!(err.contains("\"error\""), "got: {err}");

        // The connection survives the error and keeps answering.
        let again = roundtrip(&stream, r#"{"target": "v3", "evidence": {"v7": 1}}"#);
        assert_eq!(again, expected);

        server.stop();
    }

    /// Finite weights can still overflow `P(C, e)`: the answer is an
    /// error line naming the overflow, never a `NaN` marginal (which is
    /// not JSON); exact-zero evidence keeps its own error.
    #[test]
    fn overflowing_likelihoods_answer_an_error_line() {
        let (mut server, addr) = boot();
        let stream = TcpStream::connect(addr).unwrap();
        for request in [
            r#"{"target":"v3","likelihood":{"v0":[1e200,1],"v1":[1e200,1]}}"#,
            r#"{"target":"v3","likelihood":{"v0":[1e200,1],"v1":[1e200,1]},"timing":true}"#,
        ] {
            let line = roundtrip(&stream, request);
            let v = crate::protocol::parse_json(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            let Some(crate::protocol::Json::Str(error)) = v.get("error") else {
                panic!("not an error line: {line}");
            };
            assert!(error.starts_with("evidence overflows f64"), "{error}");
        }
        let zero = roundtrip(&stream, r#"{"target":"v4","evidence":{"v3":1,"v5":0}}"#);
        assert!(zero.contains("probability zero"), "{zero}");
        server.stop();
    }

    /// A request object that repeats a member name has no one meaning
    /// (lookups read the first copy, evidence loops apply every copy):
    /// each answers one parse-error line, and the connection carries on.
    #[test]
    fn repeated_keys_answer_one_error_line_each() {
        let (mut server, addr) = boot();
        let stream = TcpStream::connect(addr).unwrap();
        for (request, error) in [
            (
                r#"{"target":"v3","likelihood":{"v0":[1,2],"v0":[2,1]}}"#,
                r#"{"error":"JSON parse error at byte 28: duplicate key \"v0\""}"#,
            ),
            (
                r#"{"target":"v3","evidence":{"v0":"s0","v0":"s1"}}"#,
                r#"{"error":"JSON parse error at byte 26: duplicate key \"v0\""}"#,
            ),
            (
                r#"{"target":"v3","evidence":{"v3":"s1"},"target":"v2"}"#,
                r#"{"error":"JSON parse error at byte 0: duplicate key \"target\""}"#,
            ),
        ] {
            assert_eq!(roundtrip(&stream, request), error, "{request}");
        }
        let answer = roundtrip(&stream, r#"{"target":"v3","evidence":{"v0":1}}"#);
        assert!(answer.starts_with(r#"{"target":"v3","#), "{answer}");
        server.stop();
    }

    #[test]
    fn concurrent_connections_are_isolated() {
        let (mut server, addr) = boot();
        let handles: Vec<_> = (0..4u32)
            .map(|i| {
                std::thread::spawn(move || {
                    let stream = TcpStream::connect(addr).unwrap();
                    let req = format!(r#"{{"target": "v{}", "evidence": {{"v7": 1}}}}"#, i % 8);
                    let resp = roundtrip(&stream, &req);
                    assert!(resp.contains("\"marginal\""), "got: {resp}");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.stop();
    }

    #[test]
    fn timing_fields_are_opt_in() {
        let (mut server, addr) = boot();
        let stream = TcpStream::connect(addr).unwrap();

        // Default: byte-identical to the plain response (golden-stable).
        let plain = roundtrip(&stream, r#"{"target": "v3", "evidence": {"v7": 1}}"#);
        assert!(!plain.contains("queue_us"), "got: {plain}");
        assert!(!plain.contains("exec_us"), "got: {plain}");

        // Opted in: same answer plus a sane timing pair.
        let timed = roundtrip(
            &stream,
            r#"{"target": "v3", "evidence": {"v7": 1}, "timing": true}"#,
        );
        use crate::protocol::{parse_json, Json};
        let v = parse_json(&timed).unwrap();
        let plain_v = parse_json(&plain).unwrap();
        assert_eq!(v.get("marginal"), plain_v.get("marginal"));
        let Some(Json::Num(queue)) = v.get("queue_us") else {
            panic!("missing queue_us: {timed}");
        };
        let Some(Json::Num(exec)) = v.get("exec_us") else {
            panic!("missing exec_us: {timed}");
        };
        assert!(*queue >= 0.0 && *queue < 60_000_000.0, "queue_us {queue}");
        assert!(*exec >= 0.0 && *exec < 60_000_000.0, "exec_us {exec}");
        assert!(matches!(v.get("shard"), Some(Json::Num(_))), "{timed}");
        server.stop();
    }

    #[test]
    fn stats_and_trace_commands() {
        use crate::protocol::{parse_json, Json};
        let (mut server, addr) = boot();
        let stream = TcpStream::connect(addr).unwrap();
        for _ in 0..3 {
            roundtrip(&stream, r#"{"target": "v3", "evidence": {"v7": 1}}"#);
        }

        let stats_line = roundtrip(&stream, r#"{"cmd": "stats"}"#);
        let v = parse_json(&stats_line).unwrap();
        let stats = v.get("stats").expect("stats object");
        assert_eq!(stats.get("served"), Some(&Json::Num(3.0)));
        assert_eq!(stats.get("errors"), Some(&Json::Num(0.0)));
        let Some(Json::Arr(shards)) = stats.get("shards") else {
            panic!("missing shards: {stats_line}");
        };
        assert_eq!(shards.len(), 2);

        let trace_line = roundtrip(&stream, r#"{"cmd": "trace"}"#);
        let v = parse_json(&trace_line).unwrap();
        let Some(Json::Arr(recent)) = v.get("trace").and_then(|t| t.get("recent")) else {
            panic!("missing trace.recent: {trace_line}");
        };
        assert_eq!(recent.len(), 3);
        for q in recent {
            assert_eq!(q.get("target"), Some(&Json::Str("v3".into())));
            assert_eq!(q.get("ok"), Some(&Json::Bool(true)));
            assert!(matches!(q.get("exec_us"), Some(Json::Num(_))));
        }

        let err = roundtrip(&stream, r#"{"cmd": "nonsense"}"#);
        assert!(err.contains("\"error\""), "got: {err}");
        server.stop();
    }

    #[test]
    fn session_commands_over_tcp() {
        use crate::protocol::{parse_json, Json};
        let (mut server, addr) = boot();
        let stream = TcpStream::connect(addr).unwrap();

        let opened = roundtrip(&stream, r#"{"cmd": "session-open"}"#);
        assert_eq!(opened, r#"{"session":1}"#);

        let ack = roundtrip(
            &stream,
            r#"{"cmd": "session-set", "session": 1, "var": "v7", "state": 1}"#,
        );
        assert_eq!(ack, r#"{"ok":true}"#);

        // The session answer matches the stateless path numerically and
        // reports how it was computed.
        let line = roundtrip(
            &stream,
            r#"{"cmd": "session-query", "session": 1, "target": "v3"}"#,
        );
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get("mode"), Some(&Json::Str("incremental".into())));
        assert!(matches!(v.get("dirty"), Some(Json::Num(_))), "{line}");
        let stateless = roundtrip(&stream, r#"{"target": "v3", "evidence": {"v7": 1}}"#);
        let sv = parse_json(&stateless).unwrap();
        let (Some(Json::Arr(got)), Some(Json::Arr(want))) = (v.get("marginal"), sv.get("marginal"))
        else {
            panic!("missing marginal: {line} / {stateless}");
        };
        for (g, w) in got.iter().zip(want) {
            let (Json::Num(g), Json::Num(w)) = (g, w) else {
                panic!()
            };
            assert!((g - w).abs() < 1e-9, "{line} vs {stateless}");
        }

        let removed = roundtrip(
            &stream,
            r#"{"cmd": "session-retract", "session": 1, "var": "v7"}"#,
        );
        assert_eq!(removed, r#"{"ok":true,"removed":"1"}"#);
        let again = roundtrip(
            &stream,
            r#"{"cmd": "session-retract", "session": 1, "var": "v7"}"#,
        );
        assert_eq!(again, r#"{"ok":true}"#, "no-op retraction");

        assert_eq!(
            roundtrip(&stream, r#"{"cmd": "session-close", "session": 1}"#),
            r#"{"ok":true}"#
        );
        let gone = roundtrip(
            &stream,
            r#"{"cmd": "session-query", "session": 1, "target": "v3"}"#,
        );
        assert!(gone.contains("\"error\""), "got: {gone}");

        // Stats now carry the sessions object.
        let stats_line = roundtrip(&stream, r#"{"cmd": "stats"}"#);
        let v = parse_json(&stats_line).unwrap();
        let sessions = v
            .get("stats")
            .and_then(|s| s.get("sessions"))
            .expect("sessions object after first open");
        assert_eq!(sessions.get("opened"), Some(&Json::Num(1.0)));
        assert_eq!(sessions.get("closed"), Some(&Json::Num(1.0)));
        assert_eq!(sessions.get("open"), Some(&Json::Num(0.0)));
        server.stop();
    }

    fn boot_registry() -> (TcpServer, SocketAddr, Arc<ModelRegistry>) {
        let asia = networks::asia();
        let student = networks::student();
        let registry = Arc::new(ModelRegistry::new());
        for (name, net) in [("asia", &asia), ("student", &student)] {
            let session = InferenceSession::from_network(net).unwrap();
            registry
                .install(
                    name,
                    Arc::clone(session.model()),
                    Arc::new(NumericNames::of(net)),
                )
                .unwrap();
        }
        let runtime = Arc::new(
            ShardedRuntime::with_registry(
                Arc::clone(&registry),
                "asia",
                RuntimeConfig::new(1, 1).without_partitioning(),
            )
            .unwrap(),
        );
        let names = Arc::new(NumericNames::of(&asia));
        let server = TcpServer::bind("127.0.0.1:0", runtime, names).unwrap();
        let addr = server.local_addr();
        (server, addr, registry)
    }

    #[test]
    fn model_commands_and_named_queries_over_tcp() {
        use crate::protocol::{parse_json, with_model_tag, Json};
        let (mut server, addr, _registry) = boot_registry();
        let stream = TcpStream::connect(addr).unwrap();

        // A named query is answered by that model's tables and tagged
        // with the exact version — byte-for-byte predictable.
        let line = roundtrip(&stream, r#"{"model": "student", "target": "v2"}"#);
        let student = networks::student();
        let want = InferenceSession::from_network(&student)
            .unwrap()
            .posterior(&SequentialEngine, VarId(2), &EvidenceSet::new())
            .unwrap();
        let expected = with_model_tag(
            format_response(&NumericNames::of(&student), VarId(2), &want),
            "student@v1",
        );
        assert_eq!(line, expected);

        // Default-alias queries stay untagged (golden-stable output).
        let plain = roundtrip(&stream, r#"{"target": "v3"}"#);
        assert!(!plain.contains("\"model\""), "got: {plain}");

        // model-list names both models, sorted and deterministic.
        let list = roundtrip(&stream, r#"{"cmd": "model-list"}"#);
        assert!(
            list.contains(r#""name":"asia""#) && list.contains(r#""name":"student""#),
            "got: {list}"
        );

        // Load a third model over the wire, then query it by name.
        let path = std::env::temp_dir().join("evprop_model_cmd_test.bif");
        let bif_src = evprop_bayesnet::bif::write(&evprop_bayesnet::bif::with_generated_names(
            networks::sprinkler(),
            "sprinkler",
        ));
        std::fs::write(&path, bif_src).unwrap();
        let loaded = roundtrip(
            &stream,
            &format!(
                r#"{{"cmd": "model-load", "path": "{}", "name": "sprinkler"}}"#,
                path.display()
            ),
        );
        assert!(
            loaded.starts_with(r#"{"ok":true,"model":"sprinkler@v1","bytes":"#),
            "got: {loaded}"
        );
        let resp = roundtrip(&stream, r#"{"model": "sprinkler", "target": "v1"}"#);
        let v = parse_json(&resp).unwrap();
        assert_eq!(v.get("model"), Some(&Json::Str("sprinkler@v1".into())));

        // A session pinned to a named model reports its version and
        // keeps answering after the model is unloaded.
        let opened = roundtrip(&stream, r#"{"cmd": "session-open", "model": "student"}"#);
        assert_eq!(opened, r#"{"session":1,"model":"student@v1"}"#);
        let unloaded = roundtrip(&stream, r#"{"cmd": "model-unload", "name": "student"}"#);
        assert_eq!(unloaded, r#"{"ok":true,"unloaded":["student@v1"]}"#);
        let sq = roundtrip(
            &stream,
            r#"{"cmd": "session-query", "session": 1, "target": "v2"}"#,
        );
        assert!(sq.contains("\"marginal\""), "got: {sq}");
        let gone = roundtrip(&stream, r#"{"model": "student", "target": "v2"}"#);
        assert!(gone.contains("\"error\""), "got: {gone}");

        // Swap acks with the exact retargeted version.
        let swapped = roundtrip(
            &stream,
            r#"{"cmd": "model-swap", "name": "asia", "version": 1}"#,
        );
        assert_eq!(swapped, r#"{"ok":true,"model":"asia@v1"}"#);

        server.stop();
        std::fs::remove_file(&path).ok();
    }

    /// `{"cmd":"trace"}` names each target from the table of the
    /// version that answered it — not the default model's, which may be
    /// smaller (this transcript used to kill the connection thread in
    /// `BifNetwork::var_name`) — and positionally once that version is
    /// gone; the ring's weak reference must not keep it alive.
    #[test]
    fn trace_names_targets_by_the_version_that_answered() {
        use evprop_bayesnet::bif::with_generated_names;
        let mut asia = with_generated_names(networks::asia(), "asia");
        asia.var_names[7] = "dysp".to_string();
        let sprinkler = with_generated_names(networks::sprinkler(), "sprinkler");
        let registry = Arc::new(ModelRegistry::new());
        for bif in [&sprinkler, &asia] {
            let session = InferenceSession::from_network(&bif.network).unwrap();
            registry
                .install(
                    &bif.name,
                    Arc::clone(session.model()),
                    Arc::new(bif.clone()),
                )
                .unwrap();
        }
        let runtime = Arc::new(
            ShardedRuntime::with_registry(
                Arc::clone(&registry),
                "sprinkler",
                RuntimeConfig::new(1, 1).without_partitioning(),
            )
            .unwrap(),
        );
        let mut server = TcpServer::bind("127.0.0.1:0", runtime, Arc::new(sprinkler)).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();

        let answer = roundtrip(&stream, r#"{"model": "asia", "target": "dysp"}"#);
        assert!(answer.contains("\"marginal\""), "got: {answer}");
        roundtrip(&stream, r#"{"target": "v1"}"#);
        let trace = roundtrip(&stream, r#"{"cmd": "trace"}"#);
        assert!(
            trace.contains(r#"[{"target":"dysp","#) && trace.contains(r#"{"target":"v1","#),
            "got: {trace}"
        );

        let unloaded = roundtrip(&stream, r#"{"cmd": "model-unload", "name": "asia"}"#);
        assert_eq!(unloaded, r#"{"ok":true,"unloaded":["asia@v1"]}"#);
        assert_eq!(registry.stats().unlinked, 0, "the ring pins no version");
        let trace = roundtrip(&stream, r#"{"cmd": "trace"}"#);
        assert!(trace.contains(r#"[{"target":"v7","#), "got: {trace}");
        server.stop();
    }

    /// A handler thread that dies still gives its `max_conns` slot
    /// back: the table entry is freed by a drop guard, not by code
    /// after the handler returns.
    #[test]
    fn panicking_handler_frees_its_connection_slot() {
        let (mut server, addr) = boot();
        let shared = Arc::clone(&server.shared);
        let id = u64::MAX;
        shared
            .conns
            .lock()
            .insert(id, TcpStream::connect(addr).unwrap());
        let slot = ConnSlot {
            shared: Arc::clone(&shared),
            id,
        };
        let died = std::thread::spawn(move || {
            let _slot = slot;
            panic!("handler died mid-request");
        })
        .join();
        assert!(died.is_err());
        assert!(!shared.conns.lock().contains_key(&id));
        server.stop();
        assert!(shared.conns.lock().is_empty());
    }

    #[test]
    fn model_commands_without_registry_are_rejected() {
        let (mut server, addr) = boot();
        let stream = TcpStream::connect(addr).unwrap();
        let resp = roundtrip(&stream, r#"{"cmd": "model-list"}"#);
        assert!(resp.contains("no model registry"), "got: {resp}");
        let resp = roundtrip(&stream, r#"{"model": "asia", "target": "v3"}"#);
        assert!(resp.contains("\"error\""), "got: {resp}");
        server.stop();
    }

    #[test]
    fn drain_command_acks_and_releases_waiters() {
        let (mut server, addr) = boot();
        let stream = TcpStream::connect(addr).unwrap();
        // Work submitted before the drain is still answered.
        let before = roundtrip(&stream, r#"{"target": "v3", "evidence": {"v7": 1}}"#);
        assert!(before.contains("\"marginal\""), "got: {before}");

        let ack = roundtrip(&stream, r#"{"cmd": "drain"}"#);
        assert_eq!(ack, r#"{"ok":true,"draining":true}"#);
        server.wait_for_drain(); // returns without stop() being called

        // Admission is closed: new queries are refused with a clean
        // error while the connection stays usable for the refusal.
        let refused = roundtrip(&stream, r#"{"target": "v3", "evidence": {"v7": 1}}"#);
        assert!(refused.contains("shutting down"), "got: {refused}");
        server.stop();
    }

    #[test]
    fn stop_releases_wait_for_drain() {
        let (mut server, _addr) = boot();
        let shared = Arc::clone(&server.shared);
        let waiter = std::thread::spawn(move || {
            let mut draining = shared.draining.lock();
            while !*draining && !shared.stop.load(Ordering::SeqCst) {
                shared.drain_cv.wait(&mut draining);
            }
        });
        std::thread::sleep(Duration::from_millis(50));
        server.stop();
        waiter.join().unwrap();
    }

    #[test]
    fn connection_limit_refuses_with_an_error_line() {
        let net = networks::asia();
        let session = InferenceSession::from_network(&net).unwrap();
        let runtime = Arc::new(ShardedRuntime::new(
            session,
            RuntimeConfig::new(1, 1).without_partitioning(),
        ));
        let names = Arc::new(NumericNames::of(&net));
        let options = ServerOptions {
            max_conns: 1,
            ..ServerOptions::default()
        };
        let mut server = TcpServer::bind_with("127.0.0.1:0", runtime, names, options).unwrap();
        let addr = server.local_addr();

        let first = TcpStream::connect(addr).unwrap();
        let ok = roundtrip(&first, r#"{"target": "v3"}"#);
        assert!(ok.contains("\"marginal\""), "got: {ok}");

        // The second connection is refused with one explanatory line.
        let second = TcpStream::connect(addr).unwrap();
        let mut r = BufReader::new(second);
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert!(line.contains("connection limit reached"), "got: {line}");
        line.clear();
        let n = r.read_line(&mut line).unwrap();
        assert_eq!(n, 0, "refused connection is closed after the error");

        // Closing the first connection frees the slot.
        drop(first);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let reused = loop {
            let third = TcpStream::connect(addr).unwrap();
            let resp = roundtrip(&third, r#"{"target": "v3"}"#);
            if resp.contains("\"marginal\"") {
                break true;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "slot never freed: {resp}"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        assert!(reused);
        server.stop();
    }

    #[test]
    fn oversized_request_line_is_rejected_and_connection_closed() {
        let net = networks::asia();
        let session = InferenceSession::from_network(&net).unwrap();
        let runtime = Arc::new(ShardedRuntime::new(
            session,
            RuntimeConfig::new(1, 1).without_partitioning(),
        ));
        let names = Arc::new(NumericNames::of(&net));
        let options = ServerOptions {
            max_line_bytes: 256,
            ..ServerOptions::default()
        };
        let mut server = TcpServer::bind_with("127.0.0.1:0", runtime, names, options).unwrap();
        let addr = server.local_addr();

        let stream = TcpStream::connect(addr).unwrap();
        // A line under the cap still works.
        let ok = roundtrip(&stream, r#"{"target": "v3"}"#);
        assert!(ok.contains("\"marginal\""), "got: {ok}");

        // A line over the cap gets one error and then EOF.
        let huge = format!(r#"{{"target": "v3", "junk": "{}"}}"#, "x".repeat(512));
        let mut w = BufWriter::new(stream.try_clone().unwrap());
        writeln!(w, "{huge}").unwrap();
        w.flush().unwrap();
        let mut r = BufReader::new(stream);
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert!(
            line.contains("request line exceeds 256 bytes"),
            "got: {line}"
        );
        line.clear();
        assert_eq!(r.read_line(&mut line).unwrap(), 0, "connection closed");
        server.stop();
    }

    #[test]
    fn idle_connections_are_reaped_by_read_timeout() {
        let net = networks::asia();
        let session = InferenceSession::from_network(&net).unwrap();
        let runtime = Arc::new(ShardedRuntime::new(
            session,
            RuntimeConfig::new(1, 1).without_partitioning(),
        ));
        let names = Arc::new(NumericNames::of(&net));
        let options = ServerOptions {
            read_timeout: Some(Duration::from_millis(50)),
            ..ServerOptions::default()
        };
        let mut server = TcpServer::bind_with("127.0.0.1:0", runtime, names, options).unwrap();
        let addr = server.local_addr();

        let stream = TcpStream::connect(addr).unwrap();
        // Idle past the timeout: the server hangs up (we observe EOF).
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        let n = r.read_line(&mut line).unwrap_or(0);
        assert_eq!(n, 0, "idle connection should be closed, got: {line}");
        server.stop();
    }

    #[test]
    fn deadline_ms_rides_the_wire() {
        let (mut server, addr) = boot();
        let stream = TcpStream::connect(addr).unwrap();
        // A generous deadline changes nothing about the answer.
        let plain = roundtrip(&stream, r#"{"target": "v3", "evidence": {"v7": 1}}"#);
        let armed = roundtrip(
            &stream,
            r#"{"target": "v3", "evidence": {"v7": 1}, "deadline_ms": 60000}"#,
        );
        assert_eq!(plain, armed, "completed deadline query is bit-identical");
        // An already-expired deadline is a deterministic refusal.
        let shed = roundtrip(
            &stream,
            r#"{"target": "v3", "evidence": {"v7": 1}, "deadline_ms": 0}"#,
        );
        assert!(shed.contains("deadline_exceeded"), "got: {shed}");
        server.stop();
    }

    #[test]
    fn stop_unblocks_idle_clients() {
        let (mut server, addr) = boot();
        let stream = TcpStream::connect(addr).unwrap();
        // An idle client is mid-read when the server stops.
        let reader = std::thread::spawn(move || {
            let mut r = BufReader::new(stream);
            let mut line = String::new();
            r.read_line(&mut line) // unblocked by the shutdown
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        server.stop();
        let n = reader.join().unwrap().unwrap_or(0);
        assert_eq!(n, 0, "client read should see EOF");
    }
}

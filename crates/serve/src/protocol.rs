//! The wire protocol of the TCP front-end: newline-delimited JSON,
//! one request and one response per line.
//!
//! # Query requests
//!
//! ```json
//! {"target": "dysp", "evidence": {"asia": "yes", "smoke": 1}, "likelihood": {"xray": [0.4, 0.8]}}
//! ```
//!
//! `target` is a variable name (or numeric id); `evidence` values are
//! state names (or numeric indices); `likelihood` attaches soft
//! evidence as per-state weights. Response:
//!
//! ```json
//! {"target": "dysp", "states": ["yes", "no"], "marginal": [0.43, 0.57]}
//! ```
//!
//! or `{"error": "..."}`. Adding `"timing": true` to a query request
//! opts into a per-query timing pair on the success response —
//! `"queue_us"` (admission-queue wait, integer microseconds) and
//! `"exec_us"` (the propagation itself) plus the answering `"shard"`:
//!
//! ```json
//! {"target": "dysp", "states": ["yes", "no"], "marginal": [0.43, 0.57], "queue_us": 104, "exec_us": 87, "shard": 0}
//! ```
//!
//! Without the flag the response is byte-identical to the plain form,
//! so golden transcripts stay stable.
//!
//! An optional `"deadline_ms"` field attaches a completion deadline
//! (milliseconds, relative to admission). A query whose deadline
//! expires while queued is shed without ever starting a propagation; a
//! deadline firing mid-flight cancels the propagation cooperatively at
//! a task boundary. Either way the response is a deterministic
//! `{"error": "deadline_exceeded: …"}` line carrying the queue wait —
//! and a query that completes despite its deadline returns its normal,
//! bit-identical answer. Requests without the field take the exact
//! pre-deadline path.
//!
//! # Commands
//!
//! A request object carrying `"cmd"` instead of `"target"` is a
//! command:
//!
//! * `{"cmd": "stats"}` — a live [`RuntimeStats`] snapshot:
//!
//!   ```json
//!   {"stats": {"served": 12, "errors": 0, "queue_depth": 0,
//!     "queue_high_water": 3, "uptime_us": 52417, "mean_latency_us": 131,
//!     "p50_us": 131, "p95_us": 262, "p99_us": 262,
//!     "shards": [{"shard": 0, "served": 6, "errors": 0, "batches": 4,
//!       "busy_us": 410, "idle_us": 52007, "mean_latency_us": 120,
//!       "p50_us": 131, "p95_us": 262, "p99_us": 262,
//!       "arenas_allocated": 1}]}}
//!   ```
//!
//!   A `plan_cache` object with the kernel-plan cache counters follows
//!   when the served model compiles plans.
//!
//! * `{"cmd": "trace"}` — summaries of the most recently completed
//!   queries (oldest first, at most 64), each with its queue/exec
//!   split; a target is named by the model version that answered it
//!   (positionally, `v<i>`, once that version is gone):
//!
//!   ```json
//!   {"trace": {"recent": [{"target": "dysp", "ok": true, "shard": 0,
//!     "queue_us": 104, "exec_us": 87}]}}
//!   ```
//!
//! * `{"cmd": "drain"}` — graceful shutdown: the server acks
//!   immediately with `{"ok":true,"draining":true}`, stops admitting
//!   new queries, answers everything already admitted, closes open
//!   sessions, and exits (bounded by its `--drain-timeout-ms`).
//!
//! Once any fault counter moves (deadline sheds, in-flight
//! cancellations, worker panics, supervised thread restarts), the
//! `stats` response grows a `"faults"` object —
//! `{"shed":N,"cancelled":N,"panics":N,"restarts":N}`; before that it
//! is omitted entirely, keeping fault-free transcripts byte-identical.
//!
//! # Session commands
//!
//! Stateful incremental sessions keep calibrated tables resident on
//! one shard between queries and answer evidence deltas by dirty-slice
//! propagation:
//!
//! ```json
//! {"cmd": "session-open"}                                      → {"session": 1}
//! {"cmd": "session-set", "session": 1, "var": "asia", "state": "yes"}  → {"ok": true}
//! {"cmd": "session-query", "session": 1, "target": "dysp"}
//!     → {"target": "dysp", "states": [...], "marginal": [...], "mode": "incremental", "dirty": 3}
//! {"cmd": "session-retract", "session": 1, "var": "asia"}      → {"ok": true, "removed": "yes"}
//! {"cmd": "session-close", "session": 1}                       → {"ok": true}
//! ```
//!
//! `mode` reports how the query was answered (`cached` /
//! `incremental` / `full`), and incremental answers carry the number
//! of re-collected cliques as `dirty` — both deterministic for a fixed
//! transcript, so session responses are golden-comparable. Unknown or
//! expired session ids answer `{"error": …}`. Once a session has been
//! opened, the `stats` response grows a `"sessions"` object
//! (open/opened/closed/expired/rejected counts plus the merged
//! cached-vs-incremental-vs-full query breakdown and dirty-clique
//! histogram); before that it is omitted entirely, keeping stateless
//! transcripts byte-identical.
//!
//! # Model commands
//!
//! `evprop serve` always boots a model registry (the positional
//! network is its default alias; `--model` adds more). Queries and
//! `session-open` accept an optional `"model"` field — a registry name
//! (`"asia"`, resolved through its alias) or an exact version tag
//! (`"asia@v2"`). Responses to requests that named a model echo the
//! answering version as `"model":"name@vN"`; requests without the field
//! use the default model and get the unadorned response, so clients
//! that never name a model see the same bytes whatever else is loaded.
//! Four commands manage the registry over the wire:
//!
//! ```json
//! {"cmd": "model-load", "path": "/models/asia.bif", "name": "asia"}
//!     → {"ok":true,"model":"asia@v2","bytes":18572}
//! {"cmd": "model-swap", "name": "asia", "version": 1}
//!     → {"ok":true,"model":"asia@v1"}
//! {"cmd": "model-unload", "name": "asia", "version": 2}
//!     → {"ok":true,"unloaded":["asia@v2"]}
//! {"cmd": "model-list"}
//!     → {"models":[{"name":"asia","alias":1,"versions":[
//!          {"version":1,"bytes":18572,"served":41,"pinned":false}]}]}
//! ```
//!
//! `model-load` parses the BIF file server-side, compiles it, runs a
//! warmup query, and only then flips the alias — traffic on the old
//! version is never disturbed. `model-unload` without `"version"`
//! unloads every version and removes the name; unloaded versions stop
//! resolving immediately (new `session-open`s racing the unload get a
//! deterministic `model_unloading: name@vN` error) but keep serving
//! clients that already pinned them. Sessions pin the exact version
//! they opened against — `session-open` with a model answers
//! `{"session":N,"model":"name@vN"}` and every query on that session
//! is answered by that version, across any number of swaps. The
//! `stats` response carries a `"registry"` object (loads / evictions /
//! swaps / resident and unlinked byte counts). An in-process runtime
//! booted from one compiled model without a registry
//! (`ShardedRuntime::from_model`) omits it and answers the four model
//! commands with an error.
//!
//! All `*_us` fields are integer microseconds. The parser below is a
//! deliberately tiny recursive-descent JSON reader — the build
//! environment is offline, so no serde — covering exactly the grammar
//! the protocol uses. It rejects an object that repeats a member name
//! (`duplicate key "v0"`): such a request has no single meaning.
//! Error messages quote an offending value as JSON text.

use crate::metrics::RuntimeStats;
use crate::runtime::{QuerySummary, QueryTiming};
use evprop_core::Query;
use evprop_potential::{EvidenceSet, PotentialTable, VarId};
use evprop_registry::ModelInfo;

// The symbolic-name bridge lives in `evprop-registry` (one name table
// per loaded model); re-exported here so the serving API is unchanged.
pub use evprop_registry::{ModelNames, NumericNames};

// ---------------------------------------------------------------- JSON

/// A parsed JSON value (protocol subset: no exponents beyond `f64`'s
/// own parser, no unicode escapes beyond BMP `\uXXXX`).
///
/// Public so out-of-crate tooling (benchmarks, the golden smoke tests)
/// can inspect protocol lines and merge JSON reports without serde.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (the protocol never needs integers wider than 2⁵³).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs. [`parse_json`] rejects
    /// an object that repeats a key, so each key names one value.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field lookup on an object; `None` on missing keys and non-objects.
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => out.push_str(&n.to_string()),
            // What `JSON.stringify` writes for a number JSON cannot carry
            // (`1e999` parses to infinity).
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => push_quoted(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_quoted(out, key);
                    out.push(':');
                    value.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Compact JSON text — how error messages quote an offending value
/// (`5`, `["v3"]`, `-1`).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write_into(&mut out);
        f.write_str(&out)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Json::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Json::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{kw}'")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }

    /// Reads four hex digits starting at byte offset `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("bad \\u escape"));
        }
        let text = std::str::from_utf8(hex).expect("hex digits are ASCII");
        u32::from_str_radix(text, 16).map_err(|_| self.err("bad \\u escape"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex4(self.pos + 1)?;
                            let ch = match code {
                                // A high surrogate must combine with a
                                // following `\uDC00`–`\uDFFF` escape into
                                // one supplementary-plane scalar; JSON has
                                // no other way to escape astral chars.
                                0xD800..=0xDBFF => {
                                    if self.bytes.get(self.pos + 5..self.pos + 7)
                                        != Some(&b"\\u"[..])
                                    {
                                        return Err(self.err("unpaired surrogate \\u escape"));
                                    }
                                    let low = self.hex4(self.pos + 7)?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(self.err("unpaired surrogate \\u escape"));
                                    }
                                    self.pos += 6;
                                    char::from_u32(
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00),
                                    )
                                    .expect("combined surrogate pair is a scalar")
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(self.err("unpaired surrogate \\u escape"))
                                }
                                _ => char::from_u32(code).expect("non-surrogate BMP scalar"),
                            };
                            out.push(ch);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // copy one UTF-8 scalar verbatim
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = rest.chars().next().expect("non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
        // A repeated key would mean whatever each reader makes of it:
        // lookups answer the first, evidence loops apply every copy.
        if let Some(key) = first_repeated_key(&fields) {
            let mut msg = String::from("duplicate key ");
            push_quoted(&mut msg, key);
            self.pos = start;
            return Err(self.err(&msg));
        }
        Ok(Json::Obj(fields))
    }
}

/// The first key, in document order, that repeats an earlier key of the
/// same object. Sorts indices rather than comparing every pair, so a
/// request line with many keys costs `n log n`, not `n²`.
fn first_repeated_key(fields: &[(String, Json)]) -> Option<&str> {
    if fields.len() < 2 {
        return None;
    }
    let mut order: Vec<usize> = (0..fields.len()).collect();
    order.sort_unstable_by(|&a, &b| fields[a].0.cmp(&fields[b].0).then(a.cmp(&b)));
    order
        .windows(2)
        .filter(|w| fields[w[0]].0 == fields[w[1]].0)
        .map(|w| w[1])
        .min()
        .map(|i| fields[i].0.as_str())
}

/// Parses one complete JSON value (trailing characters are an error).
///
/// # Errors
///
/// A human-readable message with the byte offset of the problem.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let mut p = Parser::new(src);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Appends `s` as a JSON string literal.
fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

// ------------------------------------------------------------ requests

fn resolve_var(names: &dyn ModelNames, v: &Json) -> Result<VarId, String> {
    match v {
        Json::Str(name) => names
            .var_id(name)
            .ok_or_else(|| format!("unknown variable '{name}'")),
        Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && (*n as usize) < names.num_vars() => {
            Ok(VarId(*n as u32))
        }
        other => Err(format!("bad variable reference: {other}")),
    }
}

fn resolve_state(names: &dyn ModelNames, var: VarId, v: &Json) -> Result<usize, String> {
    let card = names.num_states(var);
    match v {
        Json::Str(state) => names.state_index(var, state).ok_or_else(|| {
            format!(
                "unknown state '{state}' of variable '{}'",
                names.var_name(var)
            )
        }),
        Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && (*n as usize) < card => Ok(*n as usize),
        other => Err(format!("bad state reference: {other}")),
    }
}

/// One parsed request line: a query, an introspection command, or a
/// session command.
#[derive(Clone, Debug)]
pub enum Request {
    /// An inference request, with `timing` set when the client opted
    /// into the `queue_us`/`exec_us` pair on the response.
    Query {
        /// The query to answer.
        query: Query,
        /// Whether the response should carry the timing pair.
        timing: bool,
        /// Optional completion deadline (the `"deadline_ms"` field,
        /// relative to admission). Expired queries are shed or
        /// cancelled with a deterministic `deadline_exceeded` error;
        /// `None` (the default) leaves the pre-deadline path untouched.
        deadline: Option<std::time::Duration>,
    },
    /// `{"cmd": "stats"}` — a [`RuntimeStats`] snapshot.
    Stats,
    /// `{"cmd": "trace"}` — recent-query timing summaries.
    Trace,
    /// `{"cmd": "session-open"}` — open an incremental session.
    SessionOpen,
    /// `{"cmd": "session-set", "session": N, "var": …, "state": …}` —
    /// set hard evidence on a session (pending delta).
    SessionSet {
        /// The session id.
        session: u64,
        /// The observed variable.
        var: VarId,
        /// Its observed state.
        state: usize,
    },
    /// `{"cmd": "session-retract", "session": N, "var": …}` — retract
    /// a session's evidence on one variable.
    SessionRetract {
        /// The session id.
        session: u64,
        /// The variable to un-observe.
        var: VarId,
    },
    /// `{"cmd": "session-query", "session": N, "target": …}` — answer
    /// a posterior on a session via dirty-slice propagation.
    SessionQuery {
        /// The session id.
        session: u64,
        /// The queried variable.
        target: VarId,
    },
    /// `{"cmd": "session-close", "session": N}` — close a session.
    SessionClose {
        /// The session id.
        session: u64,
    },
    /// `{"cmd": "model-load", "path": …, "name": …}` — parse a BIF
    /// file server-side, compile and warm it up, and install it as the
    /// next version of `name` (the alias flips to it on success).
    /// Answers `{"ok":true,"model":"name@vN","bytes":B}`.
    ModelLoad {
        /// Filesystem path of the BIF file, as seen by the server.
        path: String,
        /// The registry name to install under.
        name: String,
    },
    /// `{"cmd": "model-unload", "name": …}` (all versions, removing
    /// the name) or `{… , "version": N}` (one version; the alias
    /// retargets to the highest survivor). Unloaded versions stop
    /// resolving immediately but stay alive for whoever already pinned
    /// them. Answers `{"ok":true,"unloaded":["name@vN", …]}`.
    ModelUnload {
        /// The registry name.
        name: String,
        /// One version, or `None` for every version of the name.
        version: Option<u32>,
    },
    /// `{"cmd": "model-list"}` — every registered name with its alias
    /// target and resident versions (bytes, served counts, pin state),
    /// sorted by name then version so transcripts are deterministic.
    /// Answers `{"models":[{"name":…,"alias":N,"versions":[…]}]}`.
    ModelList,
    /// `{"cmd": "model-swap", "name": …, "version": N}` — atomically
    /// retarget `name`'s alias to an already-resident version (roll
    /// forward or back without reloading). In-flight queries finish on
    /// whichever version they resolved. Answers
    /// `{"ok":true,"model":"name@vN"}`.
    ModelSwap {
        /// The registry name.
        name: String,
        /// The resident version to alias.
        version: u32,
    },
    /// `{"cmd": "drain"}` — graceful shutdown: stop admitting, answer
    /// everything already admitted, close sessions, then exit (bounded
    /// by the server's drain timeout). Acks immediately with
    /// `{"ok":true,"draining":true}`.
    Drain,
}

fn session_id(v: &Json) -> Result<u64, String> {
    match v.get("session") {
        Some(Json::Num(n)) if n.fract() == 0.0 && *n >= 0.0 && *n <= (1u64 << 53) as f64 => {
            Ok(*n as u64)
        }
        Some(other) => Err(format!("bad session id: {other}")),
        None => Err("request is missing \"session\"".to_string()),
    }
}

fn session_var(names: &dyn ModelNames, v: &Json, key: &str) -> Result<VarId, String> {
    resolve_var(
        names,
        v.get(key)
            .ok_or_else(|| format!("request is missing \"{key}\""))?,
    )
}

fn string_field(v: &Json, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(other) => Err(format!("\"{key}\" must be a string, got {other}")),
        None => Err(format!("request is missing \"{key}\"")),
    }
}

fn version_field(v: &Json) -> Result<Option<u32>, String> {
    match v.get("version") {
        None => Ok(None),
        Some(Json::Num(n)) if n.fract() == 0.0 && *n >= 1.0 && *n <= u32::MAX as f64 => {
            Ok(Some(*n as u32))
        }
        Some(other) => Err(format!("bad model version: {other}")),
    }
}

/// Extracts the optional `"model"` field of a query or `session-open`
/// request: a registry name (`"asia"`) or exact tag (`"asia@v2"`).
/// `None` means the server's default model — requests without the
/// field behave exactly as before the registry existed.
///
/// # Errors
///
/// A message when the field is present but not a string.
pub fn request_model(v: &Json) -> Result<Option<String>, String> {
    match v.get("model") {
        None => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(other) => Err(format!("\"model\" must be a string, got {other}")),
    }
}

/// The session id a session-addressed command (`session-set` /
/// `session-retract` / `session-query` / `session-close`) targets, if
/// this request is one. The multi-model front-end uses it to interpret
/// and format the command against the names of the model that session
/// pinned — which need not be the server's default.
pub fn request_session(v: &Json) -> Option<u64> {
    match v.get("cmd") {
        Some(Json::Str(c))
            if matches!(
                c.as_str(),
                "session-set" | "session-retract" | "session-query" | "session-close"
            ) => {}
        _ => return None,
    }
    match v.get("session") {
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
        _ => None,
    }
}

/// Parses one request line: either an inference query or a `"cmd"`
/// request (`stats`, `trace`, `session-*`, `model-*`).
///
/// # Errors
///
/// A human-readable message on malformed JSON, unknown commands or
/// names, or out-of-range indices — intended to be echoed back via
/// [`format_error`].
pub fn parse_request_line(line: &str, names: &dyn ModelNames) -> Result<Request, String> {
    let v = parse_json(line)?;
    parse_request_value(&v, names)
}

/// Parses an already-parsed request object against `names` — the
/// multi-model front-end parses the JSON once, resolves the optional
/// [`request_model`] field to a registry handle, and then interprets
/// the request against *that* model's name table.
///
/// # Errors
///
/// As [`parse_request_line`].
pub fn parse_request_value(v: &Json, names: &dyn ModelNames) -> Result<Request, String> {
    if let Some(cmd) = v.get("cmd") {
        return match cmd {
            Json::Str(c) if c == "stats" => Ok(Request::Stats),
            Json::Str(c) if c == "trace" => Ok(Request::Trace),
            Json::Str(c) if c == "session-open" => Ok(Request::SessionOpen),
            Json::Str(c) if c == "session-set" => {
                let session = session_id(v)?;
                let var = session_var(names, v, "var")?;
                let state = resolve_state(
                    names,
                    var,
                    v.get("state").ok_or("request is missing \"state\"")?,
                )?;
                Ok(Request::SessionSet {
                    session,
                    var,
                    state,
                })
            }
            Json::Str(c) if c == "session-retract" => Ok(Request::SessionRetract {
                session: session_id(v)?,
                var: session_var(names, v, "var")?,
            }),
            Json::Str(c) if c == "session-query" => Ok(Request::SessionQuery {
                session: session_id(v)?,
                target: session_var(names, v, "target")?,
            }),
            Json::Str(c) if c == "session-close" => Ok(Request::SessionClose {
                session: session_id(v)?,
            }),
            Json::Str(c) if c == "model-load" => Ok(Request::ModelLoad {
                path: string_field(v, "path")?,
                name: string_field(v, "name")?,
            }),
            Json::Str(c) if c == "model-unload" => Ok(Request::ModelUnload {
                name: string_field(v, "name")?,
                version: version_field(v)?,
            }),
            Json::Str(c) if c == "model-list" => Ok(Request::ModelList),
            Json::Str(c) if c == "model-swap" => {
                let version = version_field(v)?.ok_or("request is missing \"version\"")?;
                Ok(Request::ModelSwap {
                    name: string_field(v, "name")?,
                    version,
                })
            }
            Json::Str(c) if c == "drain" => Ok(Request::Drain),
            other => Err(format!(
                "unknown command {other} (expected \"stats\", \"trace\", \"drain\", \
                 \"session-open\"/\"session-set\"/\"session-retract\"/\"session-query\"/\
                 \"session-close\", or \
                 \"model-load\"/\"model-unload\"/\"model-list\"/\"model-swap\")"
            )),
        };
    }
    let timing = matches!(v.get("timing"), Some(Json::Bool(true)));
    let deadline = deadline_field(v)?;
    Ok(Request::Query {
        query: query_from_json(v, names)?,
        timing,
        deadline,
    })
}

/// Parses the optional `"deadline_ms"` field of a query request: a
/// non-negative integer number of milliseconds, relative to admission.
fn deadline_field(v: &Json) -> Result<Option<std::time::Duration>, String> {
    match v.get("deadline_ms") {
        None => Ok(None),
        Some(Json::Num(n)) if n.fract() == 0.0 && *n >= 0.0 && *n <= (1u64 << 53) as f64 => {
            Ok(Some(std::time::Duration::from_millis(*n as u64)))
        }
        Some(other) => Err(format!(
            "bad \"deadline_ms\": {other} (expected a non-negative integer of milliseconds)"
        )),
    }
}

/// Parses one request line into a [`Query`] (queries only — commands
/// are rejected; the TCP front-end uses [`parse_request_line`]).
///
/// # Errors
///
/// A human-readable message on malformed JSON, unknown names, or
/// out-of-range indices — intended to be echoed back via
/// [`format_error`].
pub fn parse_request(line: &str, names: &dyn ModelNames) -> Result<Query, String> {
    let v = parse_json(line)?;
    query_from_json(&v, names)
}

fn query_from_json(v: &Json, names: &dyn ModelNames) -> Result<Query, String> {
    let target = resolve_var(
        names,
        v.get("target").ok_or("request is missing \"target\"")?,
    )?;
    let mut evidence = EvidenceSet::new();
    if let Some(obj) = v.get("evidence") {
        let Json::Obj(fields) = obj else {
            return Err("\"evidence\" must be an object".to_string());
        };
        for (var_name, state) in fields {
            let (var, s) = resolve_finding(names, var_name, state)?;
            evidence.observe(var, s);
        }
    }
    if let Some(obj) = v.get("likelihood") {
        let Json::Obj(fields) = obj else {
            return Err("\"likelihood\" must be an object".to_string());
        };
        for (var_name, weights) in fields {
            let Json::Arr(items) = weights else {
                return Err(format!("likelihood of '{var_name}' must be an array"));
            };
            let ws: Vec<f64> = items
                .iter()
                .map(|w| match w {
                    Json::Num(x) => Ok(*x),
                    other => Err(format!("bad likelihood weight: {other}")),
                })
                .collect::<Result<_, _>>()?;
            let var = resolve_likelihood(names, var_name, &ws)?;
            evidence.observe_likelihood(var, ws);
        }
    }
    Ok(Query::new(target, evidence))
}

/// Resolves one hard finding `var_name = state`, where `state` is a
/// state name or an index below the variable's cardinality — the one
/// check behind the wire's `"evidence"` field and the CLI's
/// `--evidence`.
///
/// # Errors
///
/// A deterministic message for an unknown variable, an unknown state
/// name or an index out of range.
pub fn resolve_finding(
    names: &dyn ModelNames,
    var_name: &str,
    state: &Json,
) -> Result<(VarId, usize), String> {
    let var = resolve_var(names, &Json::Str(var_name.to_string()))?;
    Ok((var, resolve_state(names, var, state)?))
}

/// Resolves the variable of one soft finding and checks its weights:
/// one per state of the variable, and `check_likelihood_weights` —
/// the one check behind the wire's `"likelihood"` field and the CLI's
/// `--likelihood`.
///
/// # Errors
///
/// A deterministic message for an unknown variable, a weight count
/// that is not the variable's cardinality, or a bad weight.
pub fn resolve_likelihood(
    names: &dyn ModelNames,
    var_name: &str,
    weights: &[f64],
) -> Result<VarId, String> {
    let var = resolve_var(names, &Json::Str(var_name.to_string()))?;
    if weights.len() != names.num_states(var) {
        return Err(format!(
            "likelihood of '{var_name}' needs {} weights, got {}",
            names.num_states(var),
            weights.len()
        ));
    }
    check_likelihood_weights(var_name, weights)?;
    Ok(var)
}

/// Checks one soft-evidence vector where it enters the program (the
/// wire's `"likelihood"` field, the CLI's `--likelihood`): every weight
/// must be finite and non-negative and at least one positive. `1e999`
/// parses to `+inf` and `[0, 0]` zeroes the clique; unchecked, both
/// surface only later, as NaN marginals or `ImpossibleEvidence`.
///
/// # Errors
///
/// A deterministic message naming the variable and the offending
/// weight.
fn check_likelihood_weights(var_name: &str, weights: &[f64]) -> Result<(), String> {
    if let Some((i, w)) = weights
        .iter()
        .enumerate()
        .find(|(_, w)| !(w.is_finite() && **w >= 0.0))
    {
        return Err(format!(
            "likelihood of '{var_name}': weight {i} is {w}, must be finite and >= 0"
        ));
    }
    if weights.iter().all(|&w| w == 0.0) {
        return Err(format!(
            "likelihood of '{var_name}' is all zero: it rules out every state"
        ));
    }
    Ok(())
}

// ----------------------------------------------------------- responses

/// Formats a successful answer as one response line (no trailing
/// newline). Floats use Rust's shortest-roundtrip formatting, so the
/// output is deterministic — the golden-file smoke test depends on it.
///
/// JSON has no `NaN` or `Infinity`: a marginal with a non-finite entry
/// is answered with an error line instead (the engines refuse such
/// marginals first — `EngineError::EvidenceOverflow` — so this only
/// keeps a future regression from putting non-JSON on the wire).
pub fn format_response(names: &dyn ModelNames, target: VarId, marginal: &PotentialTable) -> String {
    response_line(names, target, marginal).unwrap_or_else(|error| error)
}

/// The answer line of [`format_response`], or the error line that
/// replaces it when an entry of `marginal` is not a finite number.
fn response_line(
    names: &dyn ModelNames,
    target: VarId,
    marginal: &PotentialTable,
) -> Result<String, String> {
    if let Some(p) = marginal.data().iter().find(|p| !p.is_finite()) {
        return Err(format_error(&format!(
            "marginal of '{}' has the non-finite entry {p}, which JSON cannot carry",
            names.var_name(target)
        )));
    }
    let mut out = String::from("{\"target\":\"");
    escape_into(&mut out, &names.var_name(target));
    out.push_str("\",\"states\":[");
    for s in 0..names.num_states(target) {
        if s > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(&mut out, &names.state_name(target, s));
        out.push('"');
    }
    out.push_str("],\"marginal\":[");
    for (i, p) in marginal.data().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{p}"));
    }
    out.push_str("]}");
    Ok(out)
}

/// Formats a successful answer with the opt-in timing pair appended:
/// the plain [`format_response`] line plus `"queue_us"`, `"exec_us"`,
/// and `"shard"` fields (integer microseconds).
pub fn format_response_timed(
    names: &dyn ModelNames,
    target: VarId,
    marginal: &PotentialTable,
    timing: &QueryTiming,
) -> String {
    let mut out = match response_line(names, target, marginal) {
        Ok(out) => out,
        Err(error) => return error,
    };
    out.pop(); // reopen the object: drop the trailing '}'
    out.push_str(&format!(
        ",\"queue_us\":{},\"exec_us\":{},\"shard\":{}}}",
        micros(timing.queue),
        micros(timing.exec),
        timing.shard
    ));
    out
}

/// Formats a successful `session-open` as one response line:
/// `{"session":N}`.
pub fn format_session_opened(id: u64) -> String {
    format!("{{\"session\":{id}}}")
}

/// Formats a successful `session-set` / `session-retract` /
/// `session-close` acknowledgement: `{"ok":true}`, with the previously
/// observed state appended as `"removed"` when a retraction actually
/// removed evidence.
pub fn format_session_ack(removed: Option<&str>) -> String {
    match removed {
        Some(state) => {
            let mut out = String::from("{\"ok\":true,\"removed\":\"");
            escape_into(&mut out, state);
            out.push_str("\"}");
            out
        }
        None => "{\"ok\":true}".to_string(),
    }
}

/// Formats a successful `session-query` answer: the plain
/// [`format_response`] line plus how it was answered — a `"mode"`
/// field (`"cached"`, `"incremental"`, or `"full"`) and, for
/// incremental answers, the re-collected clique count as `"dirty"`.
/// Both extras are deterministic for a fixed request transcript, so
/// session responses stay golden-comparable.
pub fn format_session_response(
    names: &dyn ModelNames,
    target: VarId,
    marginal: &PotentialTable,
    mode: &evprop_incremental::QueryMode,
) -> String {
    let mut out = match response_line(names, target, marginal) {
        Ok(out) => out,
        Err(error) => return error,
    };
    out.pop(); // reopen the object: drop the trailing '}'
    out.push_str(&format!(",\"mode\":\"{}\"", mode.label()));
    if let evprop_incremental::QueryMode::Incremental { dirty_cliques, .. } = mode {
        out.push_str(&format!(",\"dirty\":{dirty_cliques}"));
    }
    out.push('}');
    out
}

/// Appends a `"model":"name@vN"` field to an already-formatted
/// response object — used whenever the *request* named a model, so
/// every answer reports exactly which version produced it. Requests
/// that rely on the default alias get the unadorned line, so their
/// transcripts do not depend on what else the registry holds.
pub fn with_model_tag(mut line: String, tag: &str) -> String {
    line.pop(); // reopen the object: drop the trailing '}'
    line.push_str(",\"model\":\"");
    escape_into(&mut line, tag);
    line.push_str("\"}");
    line
}

/// Formats a successful `model-load`:
/// `{"ok":true,"model":"name@vN","bytes":B}`.
pub fn format_model_loaded(tag: &str, bytes: u64) -> String {
    let mut out = String::from("{\"ok\":true,\"model\":\"");
    escape_into(&mut out, tag);
    out.push_str(&format!("\",\"bytes\":{bytes}}}"));
    out
}

/// Formats a successful `model-swap`: `{"ok":true,"model":"name@vN"}`.
pub fn format_model_swapped(tag: &str) -> String {
    let mut out = String::from("{\"ok\":true,\"model\":\"");
    escape_into(&mut out, tag);
    out.push_str("\"}");
    out
}

/// Formats a successful `model-unload`:
/// `{"ok":true,"unloaded":["name@vN", …]}`.
pub fn format_model_unloaded(tags: &[String]) -> String {
    let mut out = String::from("{\"ok\":true,\"unloaded\":[");
    for (i, tag) in tags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(&mut out, tag);
        out.push('"');
    }
    out.push_str("]}");
    out
}

/// Formats a `model-list` answer (schema in the `protocol` module docs).
/// The registry returns names and versions sorted, so the line is
/// deterministic for a fixed command transcript.
pub fn format_model_list(models: &[ModelInfo]) -> String {
    let mut out = String::from("{\"models\":[");
    for (i, m) in models.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_into(&mut out, &m.name);
        out.push_str(&format!("\",\"alias\":{},\"versions\":[", m.alias));
        for (j, v) in m.versions.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"version\":{},\"bytes\":{},\"served\":{},\"pinned\":{}}}",
                v.version, v.bytes, v.served, v.pinned,
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Formats the immediate `drain` acknowledgement:
/// `{"ok":true,"draining":true}`. Sent before the drain completes, so
/// the client knows admission is shut and can disconnect.
pub fn format_drain_ack() -> String {
    "{\"ok\":true,\"draining\":true}".to_string()
}

/// Formats an error as one response line (no trailing newline).
pub fn format_error(message: &str) -> String {
    let mut out = String::from("{\"error\":\"");
    escape_into(&mut out, message);
    out.push_str("\"}");
    out
}

fn micros(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Formats a [`RuntimeStats`] snapshot as one `{"stats": …}` response
/// line (schema in the `protocol` module docs). The kernel-plan cache
/// counters are appended as a `"plan_cache"` object only when the
/// snapshot carries them ([`RuntimeStats::plan_cache`] is `Some`).
pub fn format_stats(stats: &RuntimeStats) -> String {
    let mut out = format!(
        "{{\"stats\":{{\"served\":{},\"errors\":{},\"queue_depth\":{},\
         \"queue_high_water\":{},\"uptime_us\":{},\"mean_latency_us\":{},\
         \"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"shards\":[",
        stats.served,
        stats.errors,
        stats.queue_depth,
        stats.queue_high_water,
        micros(stats.uptime),
        micros(stats.mean_latency),
        micros(stats.p50),
        micros(stats.p95),
        micros(stats.p99),
    );
    for (i, s) in stats.shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"shard\":{},\"served\":{},\"errors\":{},\"batches\":{},\
             \"busy_us\":{},\"idle_us\":{},\"mean_latency_us\":{},\
             \"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"arenas_allocated\":{}}}",
            s.shard,
            s.served,
            s.errors,
            s.batches,
            micros(s.busy),
            micros(s.idle),
            micros(s.mean_latency),
            micros(s.p50),
            micros(s.p95),
            micros(s.p99),
            s.arenas_allocated,
        ));
    }
    out.push(']');
    if let Some(p) = stats.plan_cache {
        out.push_str(&format!(
            ",\"plan_cache\":{{\"hits\":{},\"misses\":{},\"interned\":{}}}",
            p.hits, p.misses, p.interned,
        ));
    }
    if let Some(s) = &stats.sessions {
        let p = &s.propagation;
        out.push_str(&format!(
            ",\"sessions\":{{\"open\":{},\"opened\":{},\"closed\":{},\
             \"expired\":{},\"rejected\":{},\"queries\":{},\"cached\":{},\
             \"incremental\":{},\"full\":{},\"full_zero_separator\":{},\
             \"stale_edges\":{},\"dirty_hist\":[",
            s.open,
            s.opened,
            s.closed,
            s.expired,
            s.rejected,
            p.queries,
            p.cached,
            p.incremental,
            p.full,
            p.full_zero_separator,
            p.stale_edges,
        ));
        for (i, c) in p.dirty_hist.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&c.to_string());
        }
        out.push_str("]}");
    }
    if let Some(r) = &stats.registry {
        out.push_str(&format!(
            ",\"registry\":{{\"loads\":{},\"evictions\":{},\"swaps\":{},\
             \"models\":{},\"versions\":{},\"resident_bytes\":{},\
             \"unlinked\":{},\"unlinked_bytes\":{},\"served\":{}}}",
            r.loads,
            r.evictions,
            r.swaps,
            r.models,
            r.versions,
            r.resident_bytes,
            r.unlinked,
            r.unlinked_bytes,
            r.served,
        ));
    }
    if let Some(fa) = &stats.faults {
        out.push_str(&format!(
            ",\"faults\":{{\"shed\":{},\"cancelled\":{},\"panics\":{},\"restarts\":{}}}",
            fa.shed, fa.cancelled, fa.panics, fa.restarts,
        ));
    }
    out.push_str("}}");
    out
}

/// Formats recent-query summaries as one `{"trace": …}` response line
/// (schema in the `protocol` module docs). Each target is named from the
/// table of the version that answered it — `names` only for summaries
/// that recorded none (a runtime without a registry) — and positionally
/// (`v<i>`) when that version has since been dropped.
pub fn format_trace(names: &dyn ModelNames, recent: &[QuerySummary]) -> String {
    let mut out = String::from("{\"trace\":{\"recent\":[");
    for (i, q) in recent.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"target\":\"");
        let target = match &q.model {
            None => names.var_name(q.target),
            Some(version) => match version.upgrade() {
                Some(handle) => handle.names().var_name(q.target),
                None => format!("v{}", q.target.0),
            },
        };
        escape_into(&mut out, &target);
        out.push_str(&format!(
            "\",\"ok\":{},\"shard\":{},\"queue_us\":{},\"exec_us\":{}}}",
            q.ok,
            q.timing.shard,
            micros(q.timing.queue),
            micros(q.timing.exec),
        ));
    }
    out.push_str("]}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use evprop_bayesnet::networks;

    fn asia_names() -> NumericNames {
        NumericNames::of(&networks::asia())
    }

    #[test]
    fn parses_full_request_with_numeric_names() {
        let names = asia_names();
        let q = parse_request(
            r#"{"target": "v3", "evidence": {"v7": 1, "v0": "0"}, "likelihood": {"v6": [0.4, 0.8]}}"#,
            &names,
        )
        .unwrap();
        assert_eq!(q.target, VarId(3));
        assert_eq!(q.evidence.state_of(VarId(7)), Some(1));
        assert_eq!(q.evidence.state_of(VarId(0)), Some(0));
    }

    #[test]
    fn rejects_malformed_input() {
        let names = asia_names();
        assert!(parse_request("not json", &names).is_err());
        assert!(parse_request("{}", &names).is_err());
        assert!(parse_request(r#"{"target": "nope"}"#, &names).is_err());
        assert!(parse_request(r#"{"target": "v1", "evidence": {"v2": 99}}"#, &names).is_err());
        assert!(
            parse_request(r#"{"target": "v1", "likelihood": {"v2": [0.5]}}"#, &names).is_err(),
            "wrong weight count must be rejected"
        );
        for (weights, why) in [
            ("[0.5, -0.1]", "weight 1 is -0.1, must be finite and >= 0"),
            ("[1e999, 1]", "weight 0 is inf, must be finite and >= 0"),
            ("[0, 0]", "is all zero"),
            ("[-0.0, 0]", "is all zero"),
        ] {
            let line = format!(r#"{{"target": "v1", "likelihood": {{"v2": {weights}}}}}"#);
            let e = parse_request(&line, &names).unwrap_err();
            assert!(
                e.starts_with("likelihood of 'v2'") && e.contains(why),
                "{e}"
            );
        }
        parse_request(
            r#"{"target": "v1", "likelihood": {"v2": [0, 0.5]}}"#,
            &names,
        )
        .unwrap();
        assert!(parse_request(r#"{"target": "v1"} trailing"#, &names).is_err());
    }

    /// Every message that quotes an offending request value quotes it
    /// as the JSON text the client sent, never as a Rust `Debug` dump.
    #[test]
    fn error_messages_quote_values_as_json() {
        let names = asia_names();
        for (line, want) in [
            (r#"{"target":["v3"]}"#, r#"bad variable reference: ["v3"]"#),
            (
                r#"{"target":"v3","evidence":{"v0":true}}"#,
                "bad state reference: true",
            ),
            (
                r#"{"cmd":"session-close","session":"one"}"#,
                r#"bad session id: "one""#,
            ),
            (
                r#"{"cmd":"model-load","path":{"p":null},"name":"x"}"#,
                r#""path" must be a string, got {"p":null}"#,
            ),
            (
                r#"{"cmd":"model-swap","name":"x","version":0.5}"#,
                "bad model version: 0.5",
            ),
            (r#"{"cmd":5}"#, "unknown command 5 (expected"),
            (r#"{"cmd":"frob"}"#, r#"unknown command "frob" (expected"#),
            (
                r#"{"target":"v3","deadline_ms":-1}"#,
                r#"bad "deadline_ms": -1 (expected"#,
            ),
            (
                r#"{"target":"v3","likelihood":{"v0":[1,"x\"y"]}}"#,
                r#"bad likelihood weight: "x\"y""#,
            ),
        ] {
            let e = parse_request_line(line, &names).unwrap_err();
            assert!(e.starts_with(want), "{line}: {e}");
        }
        let v = parse_json(r#"{"target":"v3","model":7}"#).unwrap();
        assert_eq!(
            request_model(&v).unwrap_err(),
            r#""model" must be a string, got 7"#
        );
    }

    /// The writer emits compact JSON that parses back to the same value
    /// (`null` for the non-finite numbers JSON cannot carry).
    #[test]
    fn json_writer_roundtrips() {
        let src = r#"{"a":[1,-2.5,1e-7,true,null],"b":{"c":"q\"\n\u0001"},"d":[]}"#;
        let v = parse_json(src).unwrap();
        assert_eq!(parse_json(&v.to_string()).unwrap(), v);
        assert_eq!(Json::Num(-1.0).to_string(), "-1");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(
            Json::Arr(vec![Json::Str("v3".into())]).to_string(),
            r#"["v3"]"#
        );
    }

    /// An object that repeats a member name is rejected wherever it
    /// nests, naming the first repeated key and the object's offset.
    #[test]
    fn repeated_keys_are_rejected() {
        for (src, want) in [
            (r#"{"a":1,"a":1}"#, r#"at byte 0: duplicate key "a""#),
            (
                r#"[{"x":{"b":1,"c":2,"b":3}}]"#,
                r#"at byte 6: duplicate key "b""#,
            ),
            (
                r#"{"z":1,"y":2,"y":3,"z":4}"#,
                r#"at byte 0: duplicate key "y""#,
            ),
            (r#"{"\u0061":1,"a":2}"#, r#"duplicate key "a""#),
        ] {
            let e = parse_json(src).unwrap_err();
            assert!(e.ends_with(want), "{src}: {e}");
        }
        parse_json(r#"{"a":{"a":1},"b":[{"a":2},{"a":3}]}"#).expect("same key in other objects");
    }

    #[test]
    fn bif_names_resolve_symbolically() {
        let bif = evprop_bayesnet::bif::with_generated_names(networks::asia(), "asia");
        let q = parse_request(
            &format!(
                r#"{{"target": "{}", "evidence": {{"{}": "{}"}}}}"#,
                ModelNames::var_name(&bif, VarId(3)),
                ModelNames::var_name(&bif, VarId(7)),
                ModelNames::state_name(&bif, VarId(7), 1),
            ),
            &bif,
        )
        .unwrap();
        assert_eq!(q.target, VarId(3));
        assert_eq!(q.evidence.state_of(VarId(7)), Some(1));
    }

    #[test]
    fn response_roundtrips_through_the_parser() {
        let names = asia_names();
        let session = evprop_core::InferenceSession::from_network(&networks::asia()).unwrap();
        let m = session
            .posterior(
                &evprop_core::SequentialEngine,
                VarId(3),
                &EvidenceSet::new(),
            )
            .unwrap();
        let line = format_response(&names, VarId(3), &m);
        let v = parse_json(&line).unwrap();
        let Some(Json::Arr(probs)) = v.get("marginal") else {
            panic!("missing marginal: {line}");
        };
        let got: Vec<f64> = probs
            .iter()
            .map(|p| match p {
                Json::Num(x) => *x,
                _ => panic!("non-numeric marginal"),
            })
            .collect();
        assert_eq!(got, m.data(), "shortest-roundtrip floats survive");
        assert_eq!(v.get("target"), Some(&Json::Str("v3".into())));
    }

    /// `NaN` and `inf` are not JSON: every answer formatter turns a
    /// non-finite marginal into a parseable error line.
    #[test]
    fn non_finite_marginals_become_error_lines() {
        let names = asia_names();
        let domain =
            evprop_potential::Domain::new(vec![evprop_potential::Variable::binary(VarId(3))])
                .unwrap();
        let timing = QueryTiming {
            queue: std::time::Duration::ZERO,
            exec: std::time::Duration::ZERO,
            shard: 0,
        };
        let mode = evprop_incremental::QueryMode::Cached;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let m = PotentialTable::from_data(domain.clone(), vec![bad, 0.5]).unwrap();
            for line in [
                format_response(&names, VarId(3), &m),
                format_response_timed(&names, VarId(3), &m, &timing),
                format_session_response(&names, VarId(3), &m, &mode),
            ] {
                let v = parse_json(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
                let Some(Json::Str(error)) = v.get("error") else {
                    panic!("not an error line: {line}");
                };
                assert!(error.contains("non-finite entry"), "{error}");
                assert!(v.get("marginal").is_none(), "{line}");
            }
        }
    }

    #[test]
    fn error_formatting_escapes_quotes() {
        let line = format_error(r#"bad "thing" happened"#);
        let v = parse_json(&line).unwrap();
        assert_eq!(
            v.get("error"),
            Some(&Json::Str(r#"bad "thing" happened"#.into()))
        );
    }

    #[test]
    fn unicode_escapes_combine_surrogate_pairs() {
        // BMP escapes stand alone; astral chars arrive as a
        // high/low surrogate pair that must combine into one scalar.
        let v = parse_json(r#""\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v, Json::Str("A\u{e9}\u{1f600}".into()));
        // The same scalar as raw UTF-8 parses identically.
        assert_eq!(
            parse_json("\"\u{1f600}\"").unwrap(),
            Json::Str("\u{1f600}".into())
        );
        // Pair arithmetic at the plane edges.
        assert_eq!(
            parse_json(r#""\ud800\udc00""#).unwrap(),
            Json::Str("\u{10000}".into())
        );
        assert_eq!(
            parse_json(r#""\udbff\udfff""#).unwrap(),
            Json::Str("\u{10ffff}".into())
        );
    }

    #[test]
    fn unpaired_surrogates_are_rejected() {
        for src in [
            r#""\ud83d""#,       // lone high at end of string
            r#""\ud83d rest""#,  // high followed by plain text
            r#""\ud83d\u0041""#, // high + non-surrogate escape
            r#""\ud83d\ud83d""#, // high paired with another high
            r#""\ude00""#,       // lone low
        ] {
            let e = parse_json(src).unwrap_err();
            assert!(e.contains("surrogate"), "{src}: {e}");
        }
    }

    #[test]
    fn stats_line_parses_without_kernel_backend() {
        let stats = RuntimeStats {
            shards: vec![],
            served: 3,
            errors: 0,
            queue_depth: 1,
            queue_high_water: 2,
            mean_latency: std::time::Duration::from_micros(5),
            p50: std::time::Duration::from_micros(5),
            p95: std::time::Duration::from_micros(9),
            p99: std::time::Duration::from_micros(9),
            uptime: std::time::Duration::from_millis(1),
            plan_cache: None,
            sessions: None,
            registry: None,
            faults: None,
        };
        let line = format_stats(&stats);
        let v = parse_json(&line).unwrap();
        let s = v.get("stats").expect("stats object");
        assert_eq!(s.get("kernel_backend"), None, "one kernel: nothing to name");
        assert_eq!(s.get("served"), Some(&Json::Num(3.0)));
        assert_eq!(s.get("plan_cache"), None);
        assert!(!line.contains("faults"), "absent until a counter moves");
    }

    #[test]
    fn stats_line_faults_appear_only_when_counters_moved() {
        use crate::metrics::FaultStats;
        let mut stats = RuntimeStats {
            shards: vec![],
            served: 0,
            errors: 0,
            queue_depth: 0,
            queue_high_water: 0,
            mean_latency: std::time::Duration::ZERO,
            p50: std::time::Duration::ZERO,
            p95: std::time::Duration::ZERO,
            p99: std::time::Duration::ZERO,
            uptime: std::time::Duration::ZERO,
            plan_cache: None,
            sessions: None,
            registry: None,
            faults: None,
        };
        assert!(!format_stats(&stats).contains("faults"));
        stats.faults = Some(FaultStats {
            shed: 2,
            cancelled: 1,
            panics: 3,
            restarts: 4,
        });
        let line = format_stats(&stats);
        let v = parse_json(&line).unwrap();
        let f = v
            .get("stats")
            .and_then(|s| s.get("faults"))
            .expect("faults object");
        assert_eq!(f.get("shed"), Some(&Json::Num(2.0)));
        assert_eq!(f.get("cancelled"), Some(&Json::Num(1.0)));
        assert_eq!(f.get("panics"), Some(&Json::Num(3.0)));
        assert_eq!(f.get("restarts"), Some(&Json::Num(4.0)));
    }

    #[test]
    fn parses_deadline_and_drain() {
        let names = asia_names();
        // No deadline by default — the pre-deadline path exactly.
        let Ok(Request::Query { deadline, .. }) = parse_request_line(r#"{"target": "v3"}"#, &names)
        else {
            panic!("expected Query");
        };
        assert_eq!(deadline, None);
        let Ok(Request::Query { deadline, .. }) =
            parse_request_line(r#"{"target": "v3", "deadline_ms": 250}"#, &names)
        else {
            panic!("expected Query");
        };
        assert_eq!(deadline, Some(std::time::Duration::from_millis(250)));
        // Zero is legal (shed immediately); junk is rejected.
        assert!(parse_request_line(r#"{"target": "v3", "deadline_ms": 0}"#, &names).is_ok());
        for bad in [
            r#"{"target": "v3", "deadline_ms": -1}"#,
            r#"{"target": "v3", "deadline_ms": 1.5}"#,
            r#"{"target": "v3", "deadline_ms": "fast"}"#,
        ] {
            assert!(parse_request_line(bad, &names).is_err(), "{bad}");
        }
        assert!(matches!(
            parse_request_line(r#"{"cmd": "drain"}"#, &names),
            Ok(Request::Drain)
        ));
        assert_eq!(format_drain_ack(), r#"{"ok":true,"draining":true}"#);
    }

    #[test]
    fn parses_session_commands() {
        let names = asia_names();
        assert!(matches!(
            parse_request_line(r#"{"cmd": "session-open"}"#, &names),
            Ok(Request::SessionOpen)
        ));
        let Ok(Request::SessionSet {
            session,
            var,
            state,
        }) = parse_request_line(
            r#"{"cmd": "session-set", "session": 7, "var": "v2", "state": 1}"#,
            &names,
        )
        else {
            panic!("expected SessionSet");
        };
        assert_eq!((session, var, state), (7, VarId(2), 1));
        assert!(matches!(
            parse_request_line(
                r#"{"cmd": "session-retract", "session": 7, "var": "v2"}"#,
                &names
            ),
            Ok(Request::SessionRetract {
                session: 7,
                var: VarId(2)
            })
        ));
        assert!(matches!(
            parse_request_line(
                r#"{"cmd": "session-query", "session": 7, "target": 3}"#,
                &names
            ),
            Ok(Request::SessionQuery {
                session: 7,
                target: VarId(3)
            })
        ));
        assert!(matches!(
            parse_request_line(r#"{"cmd": "session-close", "session": 7}"#, &names),
            Ok(Request::SessionClose { session: 7 })
        ));
        // Malformed session commands are rejected with a message.
        for bad in [
            r#"{"cmd": "session-set", "var": "v2", "state": 1}"#, // no id
            r#"{"cmd": "session-set", "session": -1, "var": "v2", "state": 1}"#,
            r#"{"cmd": "session-set", "session": 1.5, "var": "v2", "state": 1}"#,
            r#"{"cmd": "session-set", "session": 1, "var": "v2"}"#, // no state
            r#"{"cmd": "session-set", "session": 1, "var": "v2", "state": 99}"#,
            r#"{"cmd": "session-query", "session": 1}"#, // no target
            r#"{"cmd": "session-frobnicate", "session": 1}"#,
        ] {
            assert!(parse_request_line(bad, &names).is_err(), "{bad}");
        }
    }

    #[test]
    fn parses_model_commands() {
        let names = asia_names();
        let Ok(Request::ModelLoad { path, name }) = parse_request_line(
            r#"{"cmd": "model-load", "path": "/tmp/x.bif", "name": "x"}"#,
            &names,
        ) else {
            panic!("expected ModelLoad");
        };
        assert_eq!((path.as_str(), name.as_str()), ("/tmp/x.bif", "x"));
        assert!(matches!(
            parse_request_line(r#"{"cmd": "model-unload", "name": "x"}"#, &names),
            Ok(Request::ModelUnload { version: None, .. })
        ));
        assert!(matches!(
            parse_request_line(
                r#"{"cmd": "model-unload", "name": "x", "version": 2}"#,
                &names
            ),
            Ok(Request::ModelUnload {
                version: Some(2),
                ..
            })
        ));
        assert!(matches!(
            parse_request_line(r#"{"cmd": "model-list"}"#, &names),
            Ok(Request::ModelList)
        ));
        assert!(matches!(
            parse_request_line(
                r#"{"cmd": "model-swap", "name": "x", "version": 3}"#,
                &names
            ),
            Ok(Request::ModelSwap { version: 3, .. })
        ));
        for bad in [
            r#"{"cmd": "model-load", "name": "x"}"#,  // no path
            r#"{"cmd": "model-load", "path": "/p"}"#, // no name
            r#"{"cmd": "model-swap", "name": "x"}"#,  // no version
            r#"{"cmd": "model-swap", "name": "x", "version": 0}"#, // versions start at 1
            r#"{"cmd": "model-swap", "name": "x", "version": 1.5}"#, // non-integer
            r#"{"cmd": "model-unload", "version": 1}"#, // no name
        ] {
            assert!(parse_request_line(bad, &names).is_err(), "{bad}");
        }
    }

    #[test]
    fn model_field_extraction() {
        let v = parse_json(r#"{"target": "v3", "model": "asia@v2"}"#).unwrap();
        assert_eq!(request_model(&v).unwrap(), Some("asia@v2".to_string()));
        let v = parse_json(r#"{"target": "v3"}"#).unwrap();
        assert_eq!(request_model(&v).unwrap(), None);
        let v = parse_json(r#"{"target": "v3", "model": 7}"#).unwrap();
        assert!(request_model(&v).is_err());
    }

    #[test]
    fn session_id_extraction_is_limited_to_session_commands() {
        let v = parse_json(r#"{"cmd": "session-query", "session": 4, "target": "v3"}"#).unwrap();
        assert_eq!(request_session(&v), Some(4));
        let v = parse_json(r#"{"cmd": "session-close", "session": 1}"#).unwrap();
        assert_eq!(request_session(&v), Some(1));
        // session-open has no id yet; plain queries never have one; a
        // malformed id falls back to default names and errors in parse.
        for other in [
            r#"{"cmd": "session-open"}"#,
            r#"{"target": "v3", "session": 4}"#,
            r#"{"cmd": "session-query", "session": -1, "target": "v3"}"#,
            r#"{"cmd": "session-query", "target": "v3"}"#,
        ] {
            assert_eq!(
                request_session(&parse_json(other).unwrap()),
                None,
                "{other}"
            );
        }
    }

    #[test]
    fn model_response_formatting() {
        assert_eq!(
            format_model_loaded("asia@v2", 1234),
            r#"{"ok":true,"model":"asia@v2","bytes":1234}"#
        );
        assert_eq!(
            format_model_swapped("asia@v1"),
            r#"{"ok":true,"model":"asia@v1"}"#
        );
        assert_eq!(
            format_model_unloaded(&["asia@v1".into(), "asia@v2".into()]),
            r#"{"ok":true,"unloaded":["asia@v1","asia@v2"]}"#
        );
        assert_eq!(
            with_model_tag(r#"{"session":3}"#.to_string(), "asia@v1"),
            r#"{"session":3,"model":"asia@v1"}"#
        );
        let list = vec![ModelInfo {
            name: "asia".into(),
            alias: 2,
            versions: vec![evprop_registry::VersionInfo {
                version: 2,
                bytes: 99,
                served: 1,
                pinned: true,
            }],
        }];
        assert_eq!(
            format_model_list(&list),
            r#"{"models":[{"name":"asia","alias":2,"versions":[{"version":2,"bytes":99,"served":1,"pinned":true}]}]}"#
        );
        assert_eq!(format_model_list(&[]), r#"{"models":[]}"#);
    }

    #[test]
    fn session_response_formatting() {
        assert_eq!(format_session_opened(12), r#"{"session":12}"#);
        assert_eq!(format_session_ack(None), r#"{"ok":true}"#);
        assert_eq!(
            format_session_ack(Some("yes")),
            r#"{"ok":true,"removed":"yes"}"#
        );
        let names = asia_names();
        let session = evprop_core::InferenceSession::from_network(&networks::asia()).unwrap();
        let m = session
            .posterior(
                &evprop_core::SequentialEngine,
                VarId(3),
                &EvidenceSet::new(),
            )
            .unwrap();
        let plain = format_response(&names, VarId(3), &m);
        let cached =
            format_session_response(&names, VarId(3), &m, &evprop_incremental::QueryMode::Cached);
        let v = parse_json(&cached).unwrap();
        assert_eq!(v.get("mode"), Some(&Json::Str("cached".into())));
        assert_eq!(v.get("dirty"), None, "dirty only on incremental answers");
        assert_eq!(
            v.get("marginal"),
            parse_json(&plain).unwrap().get("marginal")
        );
        let inc = format_session_response(
            &names,
            VarId(3),
            &m,
            &evprop_incremental::QueryMode::Incremental {
                dirty_cliques: 3,
                stale_edges: 2,
            },
        );
        let v = parse_json(&inc).unwrap();
        assert_eq!(v.get("mode"), Some(&Json::Str("incremental".into())));
        assert_eq!(v.get("dirty"), Some(&Json::Num(3.0)));
    }

    #[test]
    fn stats_line_sessions_are_absent_when_none() {
        use crate::sessions::SessionTableStats;
        let mut stats = RuntimeStats {
            shards: vec![],
            served: 0,
            errors: 0,
            queue_depth: 0,
            queue_high_water: 0,
            mean_latency: std::time::Duration::ZERO,
            p50: std::time::Duration::ZERO,
            p95: std::time::Duration::ZERO,
            p99: std::time::Duration::ZERO,
            uptime: std::time::Duration::ZERO,
            plan_cache: None,
            sessions: None,
            registry: None,
            faults: None,
        };
        let line = format_stats(&stats);
        assert!(!line.contains("sessions"), "{line}");

        let mut table = SessionTableStats {
            open: 1,
            opened: 2,
            closed: 1,
            ..Default::default()
        };
        table.propagation.queries = 5;
        table.propagation.incremental = 3;
        table.propagation.dirty_hist[2] = 3;
        stats.sessions = Some(table);
        let line = format_stats(&stats);
        let v = parse_json(&line).unwrap();
        let s = v
            .get("stats")
            .and_then(|s| s.get("sessions"))
            .expect("sessions object");
        assert_eq!(s.get("open"), Some(&Json::Num(1.0)));
        assert_eq!(s.get("incremental"), Some(&Json::Num(3.0)));
        let Some(Json::Arr(hist)) = s.get("dirty_hist") else {
            panic!("missing dirty_hist: {line}");
        };
        assert_eq!(hist.len(), evprop_incremental::DIRTY_HIST_BUCKETS);
        assert_eq!(hist[2], Json::Num(3.0));
    }

    mod prop {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// Arbitrary strings: any scalar value — controls, quotes,
        /// backslashes, astral chars (surrogate gaps filtered out).
        fn arb_string() -> impl Strategy<Value = String> {
            vec(0u32..0x11_0000, 0..40)
                .prop_map(|codes| codes.into_iter().filter_map(char::from_u32).collect())
        }

        proptest! {
            // Arbitrary strings survive escape → parse unchanged.
            #[test]
            fn error_strings_roundtrip_through_parser(s in arb_string()) {
                let line = format_error(&s);
                let v = parse_json(&line).unwrap();
                prop_assert_eq!(v.get("error"), Some(&Json::Str(s)));
            }

            // Escaped surrogate pairs decode to exactly the scalar
            // whose code units they are.
            #[test]
            fn surrogate_pairs_decode_to_their_scalar(c in 0x1_0000u32..=0x10_ffff) {
                let ch = char::from_u32(c).unwrap();
                let mut buf = [0u16; 2];
                let units = ch.encode_utf16(&mut buf);
                let src = format!(r#""\u{:04x}\u{:04x}""#, units[0], units[1]);
                prop_assert_eq!(parse_json(&src).unwrap(), Json::Str(ch.to_string()));
            }
        }
    }

    #[test]
    fn json_parser_handles_nesting_and_escapes() {
        let v = parse_json(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\nyA"}, "d": null, "e": true}"#)
            .unwrap();
        let Some(Json::Arr(a)) = v.get("a") else {
            panic!()
        };
        assert_eq!(a[2], Json::Num(-300.0));
        let Some(b) = v.get("b") else { panic!() };
        assert_eq!(b.get("c"), Some(&Json::Str("x\nyA".into())));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
    }
}

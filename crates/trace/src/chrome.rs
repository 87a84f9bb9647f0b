//! Chrome-trace (Trace Event Format) export.
//!
//! The emitted JSON loads directly in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev): one `pid 0` process, one `tid`
//! per recorder row (named `worker N`, plus `control` for the sink's
//! control row), complete spans as `ph:"X"` events and zero-duration
//! events as `ph:"i"` instants. Timestamps are microseconds with
//! nanosecond fractions, monotone non-decreasing within each `tid`.

use std::fmt::Write as _;

use crate::event::{SpanKind, TraceEvent};
use crate::recorder::Trace;

/// Appends `ns` nanoseconds as a microsecond decimal (`"12.345"`).
fn push_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

fn event_name(kind: &SpanKind) -> &'static str {
    match kind {
        SpanKind::Task { primitive, .. } => primitive.name(),
        SpanKind::Partition { .. } => "partition",
        SpanKind::Fetch => "fetch",
        SpanKind::IdleSpin => "idle",
        SpanKind::ArenaCheckout { .. } => "arena-checkout",
        SpanKind::Job { .. } => "job",
        SpanKind::Query { .. } => "query",
        SpanKind::PlanCache { .. } => "plan-cache",
        SpanKind::Faults { .. } => "faults",
    }
}

fn push_args(out: &mut String, e: &TraceEvent) {
    let _ = match e.kind {
        SpanKind::Task {
            buffer,
            weight,
            part,
            ..
        } => {
            let _ = write!(out, "\"buffer\":{buffer},\"weight\":{weight},");
            match part {
                Some(p) => write!(out, "\"part\":{p},"),
                None => write!(out, "\"part\":null,"),
            }
        }
        SpanKind::Partition { buffer, parts } => {
            write!(out, "\"buffer\":{buffer},\"parts\":{parts},")
        }
        SpanKind::ArenaCheckout { fresh } => write!(out, "\"fresh\":{fresh},"),
        SpanKind::Job { tasks } => write!(out, "\"tasks\":{tasks},"),
        SpanKind::Query { shard } => write!(out, "\"shard\":{shard},"),
        SpanKind::PlanCache {
            hits,
            misses,
            interned,
        } => write!(
            out,
            "\"hits\":{hits},\"misses\":{misses},\"interned\":{interned},"
        ),
        SpanKind::Faults {
            shed,
            cancelled,
            panics,
            restarts,
        } => write!(
            out,
            "\"shed\":{shed},\"cancelled\":{cancelled},\"panics\":{panics},\"restarts\":{restarts},"
        ),
        SpanKind::Fetch | SpanKind::IdleSpin => Ok(()),
    };
    let _ = write!(out, "\"depth\":{}", e.depth);
}

fn push_event(out: &mut String, tid: usize, e: &TraceEvent) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"{}\",",
        event_name(&e.kind),
        e.kind.category()
    );
    if e.end_ns > e.start_ns {
        out.push_str("\"ph\":\"X\",\"ts\":");
        push_us(out, e.start_ns);
        out.push_str(",\"dur\":");
        push_us(out, e.end_ns - e.start_ns);
    } else {
        out.push_str("\"ph\":\"i\",\"s\":\"t\",\"ts\":");
        push_us(out, e.start_ns);
    }
    let _ = write!(out, ",\"pid\":0,\"tid\":{tid},\"args\":{{");
    push_args(out, e);
    out.push_str("}}");
}

/// Serializes a drained [`Trace`] to Chrome-trace JSON.
///
/// One event object per line inside `traceEvents`; thread-name
/// metadata events come first, then each row's events in start order,
/// so timestamps are monotone per `tid`.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
    };
    let last = trace.threads.len().saturating_sub(1);
    for t in &trace.threads {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"",
            t.thread
        );
        if t.thread == last && trace.threads.len() > 1 {
            out.push_str("control");
        } else {
            let _ = write!(out, "worker {}", t.thread);
        }
        out.push_str("\"}}");
    }
    for t in &trace.threads {
        for e in &t.events {
            sep(&mut out);
            push_event(&mut out, t.thread, e);
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PrimitiveKind;
    use crate::recorder::TraceSink;

    fn sample_trace() -> Trace {
        let sink = TraceSink::for_workers(2, 64);
        sink.recorder(0).span(
            SpanKind::Task {
                buffer: 3,
                primitive: PrimitiveKind::Marginalize,
                weight: 128,
                part: Some(1),
            },
            1_500,
            4_750,
        );
        sink.recorder(0).instant(SpanKind::Fetch, 1_400);
        sink.recorder(1).instant(
            SpanKind::Partition {
                buffer: 3,
                parts: 4,
            },
            2_000,
        );
        sink.control()
            .span(SpanKind::Job { tasks: 7 }, 1_000, 5_000);
        sink.drain()
    }

    #[test]
    fn export_carries_required_fields() {
        let json = chrome_trace_json(&sample_trace());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"thread_name\""));
        assert!(json.contains("\"name\":\"worker 0\""));
        assert!(json.contains("\"name\":\"control\""));
        // The task span: ts 1.5 µs, dur 3.25 µs, with its args.
        assert!(json.contains(
            "{\"name\":\"marginalize\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":1.500,\"dur\":3.250,\
             \"pid\":0,\"tid\":0,\"args\":{\"buffer\":3,\"weight\":128,\"part\":1,\"depth\":0}}"
        ));
        // Instants carry a scope and no dur.
        assert!(
            json.contains("\"name\":\"partition\",\"cat\":\"partition\",\"ph\":\"i\",\"s\":\"t\"")
        );
        assert!(json.contains("\"parts\":4"));
        // The job span lands on the control row (tid 2).
        assert!(json.contains("\"name\":\"job\",\"cat\":\"job\",\"ph\":\"X\",\"ts\":1.000,\"dur\":4.000,\"pid\":0,\"tid\":2"));
    }

    #[test]
    fn braces_and_brackets_balance() {
        let json = chrome_trace_json(&sample_trace());
        let bal = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(bal('{', '}'));
        assert!(bal('[', ']'));
        assert!(!json.contains("}{"), "missing separators");
    }

    #[test]
    fn timestamps_are_monotone_per_tid() {
        let json = chrome_trace_json(&sample_trace());
        // Extract (tid, ts) pairs line by line and check per-tid order.
        let mut last: std::collections::HashMap<u64, f64> = Default::default();
        for line in json.lines().filter(|l| l.contains("\"ts\":")) {
            let grab = |key: &str| -> f64 {
                let at = line.find(key).unwrap() + key.len();
                line[at..]
                    .split([',', '}'])
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap()
            };
            let (tid, ts) = (grab("\"tid\":") as u64, grab("\"ts\":"));
            assert!(
                ts >= *last.get(&tid).unwrap_or(&0.0),
                "tid {tid} went backwards"
            );
            last.insert(tid, ts);
        }
        assert_eq!(last.len(), 3);
    }
}

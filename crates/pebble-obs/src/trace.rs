//! Typed, monotonic-clock-stamped trace events and the sinks that consume
//! them.
//!
//! The engine, schedulers, server and CLI all emit through the process-global
//! sink installed with [`set_sink`]. When no sink is installed the fast path
//! is a single relaxed atomic load ([`enabled`]) — cheap enough to leave the
//! emit calls unconditionally compiled into hot loops. Timestamps are
//! microseconds since a process-wide [`std::time::Instant`] epoch, so events
//! from different threads order consistently and the analyzer can subtract
//! them directly.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One trace event. The JSONL encoding puts the variant name in a `"type"`
/// field (snake_case) next to the variant's payload fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A named phase began.
    SpanStart {
        /// Phase name, e.g. `"cli:solve"` or `"compose:stitch"`.
        name: String,
    },
    /// A named phase ended.
    SpanEnd {
        /// Phase name matching the corresponding [`TraceEvent::SpanStart`].
        name: String,
        /// Wall-clock duration of the span in microseconds.
        dur_us: u64,
    },
    /// A schedule-cache lookup resolved.
    CacheLookup {
        /// `"hit"`, `"miss_absent"` or `"miss_invalid"`.
        outcome: String,
    },
    /// An HTTP request completed.
    Request {
        /// Route label, e.g. `"schedule"`.
        route: String,
        /// HTTP status code returned.
        status: u16,
        /// End-to-end request duration in microseconds.
        dur_us: u64,
    },
}

/// A [`TraceEvent`] with its timestamp in microseconds since the process
/// trace epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamped {
    /// Microseconds since the first use of the trace clock in this process.
    pub t_us: u64,
    /// The event itself.
    pub event: TraceEvent,
}

/// Where stamped events go. Implementations must tolerate concurrent `emit`
/// calls from many threads.
pub trait TraceSink: Send + Sync {
    /// Consume one event.
    fn emit(&self, event: &Stamped);
    /// Flush any buffered output (no-op by default).
    fn flush(&self) {}
}

/// A sink that drops every event. Useful to exercise the emit path in tests
/// and benchmarks without I/O.
#[derive(Debug, Default)]
pub struct DiscardSink;

impl TraceSink for DiscardSink {
    fn emit(&self, _event: &Stamped) {}
}

/// Escape a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Stamped {
    /// Encode as one flat JSON object (one line of a JSONL stream).
    pub fn to_json(&self) -> String {
        let t = self.t_us;
        match &self.event {
            TraceEvent::SpanStart { name } => {
                format!(
                    "{{\"t_us\":{t},\"type\":\"span_start\",\"name\":\"{}\"}}",
                    escape_json(name)
                )
            }
            TraceEvent::SpanEnd { name, dur_us } => {
                format!(
                    "{{\"t_us\":{t},\"type\":\"span_end\",\"name\":\"{}\",\"dur_us\":{dur_us}}}",
                    escape_json(name)
                )
            }
            TraceEvent::CacheLookup { outcome } => {
                format!(
                    "{{\"t_us\":{t},\"type\":\"cache_lookup\",\"outcome\":\"{}\"}}",
                    escape_json(outcome)
                )
            }
            TraceEvent::Request {
                route,
                status,
                dur_us,
            } => {
                format!(
                    "{{\"t_us\":{t},\"type\":\"request\",\"route\":\"{}\",\"status\":{status},\"dur_us\":{dur_us}}}",
                    escape_json(route)
                )
            }
        }
    }
}

/// A sink that writes one JSON object per line to any `Write`.
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlSink {
    /// Wrap any writer (a `File`, a `Vec<u8>` in tests, ...).
    pub fn new(out: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink {
            out: Mutex::new(out),
        }
    }

    /// Open (create/truncate) a file at `path` and write JSONL into it.
    pub fn create(path: &std::path::Path) -> std::io::Result<JsonlSink> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::new(Box::new(std::io::BufWriter::new(file))))
    }
}

impl TraceSink for JsonlSink {
    fn emit(&self, event: &Stamped) {
        let mut out = self.out.lock().expect("trace sink poisoned");
        let _ = writeln!(out, "{}", event.to_json());
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("trace sink poisoned").flush();
    }
}

/// Fast-path flag: true iff a global sink is installed. Checked with one
/// relaxed load before any event is constructed.
static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Arc<dyn TraceSink>>> = Mutex::new(None);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process trace epoch (first use of the clock).
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Install the process-global sink. Subsequent [`emit`] calls go to it.
pub fn set_sink(sink: Arc<dyn TraceSink>) {
    let _ = epoch(); // pin t=0 at installation, not at the first event
    *SINK.lock().expect("trace sink registry poisoned") = Some(sink);
    ENABLED.store(true, Ordering::Release);
}

/// Remove the global sink (flushing it first) and disable tracing.
pub fn clear_sink() {
    ENABLED.store(false, Ordering::Release);
    let sink = SINK.lock().expect("trace sink registry poisoned").take();
    if let Some(sink) = sink {
        sink.flush();
    }
}

/// Flush the global sink if one is installed.
pub fn flush() {
    if let Some(sink) = SINK.lock().expect("trace sink registry poisoned").as_ref() {
        sink.flush();
    }
}

/// Whether a global sink is installed. One relaxed atomic load — callers in
/// hot loops should check this before building event payloads.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Stamp `event` with the monotonic clock and send it to the global sink.
/// No-op (one atomic load) when no sink is installed.
pub fn emit(event: TraceEvent) {
    if !enabled() {
        return;
    }
    let stamped = Stamped {
        t_us: now_us(),
        event,
    };
    if let Some(sink) = SINK.lock().expect("trace sink registry poisoned").as_ref() {
        sink.emit(&stamped);
    }
}

/// A RAII phase marker: emits [`TraceEvent::SpanStart`] on creation and
/// [`TraceEvent::SpanEnd`] (with the measured duration) on drop, and always
/// records the duration into the global `phase_duration_us` histogram so
/// phase timings show up in `/metrics` even when tracing is off.
pub struct Span {
    name: &'static str,
    start: Instant,
}

/// Start a [`Span`] named `name`.
pub fn span(name: &'static str) -> Span {
    if enabled() {
        emit(TraceEvent::SpanStart {
            name: name.to_string(),
        });
    }
    Span {
        name,
        start: Instant::now(),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_us = self.start.elapsed().as_micros() as u64;
        crate::metrics::Registry::global()
            .histogram(
                "phase_duration_us",
                "Wall-clock duration of named phases, microseconds",
                &[("phase", self.name)],
            )
            .observe(dur_us);
        if enabled() {
            emit(TraceEvent::SpanEnd {
                name: self.name.to_string(),
                dur_us,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that collects events into a vector for inspection.
    #[derive(Default)]
    struct VecSink(Mutex<Vec<Stamped>>);

    impl TraceSink for VecSink {
        fn emit(&self, event: &Stamped) {
            self.0.lock().unwrap().push(event.clone());
        }
    }

    #[test]
    fn events_encode_as_flat_json_lines() {
        let e = Stamped {
            t_us: 42,
            event: TraceEvent::SpanEnd {
                name: "compose:stitch".to_string(),
                dur_us: 7,
            },
        };
        assert_eq!(
            e.to_json(),
            "{\"t_us\":42,\"type\":\"span_end\",\"name\":\"compose:stitch\",\"dur_us\":7}"
        );
        let e = Stamped {
            t_us: 0,
            event: TraceEvent::Request {
                route: "schedule".to_string(),
                status: 200,
                dur_us: 1234,
            },
        };
        assert_eq!(
            e.to_json(),
            "{\"t_us\":0,\"type\":\"request\",\"route\":\"schedule\",\"status\":200,\"dur_us\":1234}"
        );
    }

    #[test]
    fn json_escaping_covers_quotes_and_control_chars() {
        let e = Stamped {
            t_us: 1,
            event: TraceEvent::SpanStart {
                name: "a\"b\\c\nd\u{1}".to_string(),
            },
        };
        assert_eq!(
            e.to_json(),
            "{\"t_us\":1,\"type\":\"span_start\",\"name\":\"a\\\"b\\\\c\\nd\\u0001\"}"
        );
    }

    #[test]
    fn global_sink_receives_events_and_clear_disables() {
        let sink = Arc::new(VecSink::default());
        set_sink(sink.clone());
        let hit = || TraceEvent::CacheLookup {
            outcome: "hit".to_string(),
        };
        emit(hit());
        clear_sink();
        emit(hit()); // dropped: no sink
        let events = sink.0.lock().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].event, hit());
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::new(Box::new(Shared(buf.clone())));
        sink.emit(&Stamped {
            t_us: 1,
            event: TraceEvent::SpanStart {
                name: "cli:solve".to_string(),
            },
        });
        sink.emit(&Stamped {
            t_us: 2,
            event: TraceEvent::CacheLookup {
                outcome: "miss_absent".to_string(),
            },
        });
        sink.flush();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"type\":\"span_start\""));
        assert!(lines[1].contains("\"type\":\"cache_lookup\""));
    }
}

//! Offline analysis of JSONL trace streams: parse the events written by
//! [`crate::trace::JsonlSink`] back into [`Stamped`] values and summarize
//! them into a phase-timing breakdown (`prbp trace <file.jsonl>` prints the
//! [`std::fmt::Display`] form).
//!
//! The parser is deliberately minimal: it accepts exactly the flat,
//! string/integer-valued objects our own writer produces, which keeps this
//! crate dependency-free. Unknown `"type"` values are skipped (forward
//! compatibility); malformed lines are hard errors with a line number.

use crate::trace::{Stamped, TraceEvent};
use std::collections::BTreeMap;
use std::fmt;

/// Split the body of a flat JSON object into raw `key -> value-token` pairs.
/// Values are either quoted strings (returned unescaped) or bare tokens
/// (numbers). Nested objects/arrays are rejected — the trace writer never
/// produces them.
fn parse_flat_object(line: &str) -> Result<BTreeMap<String, String>, String> {
    let inner = line
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("not a JSON object")?;
    let mut fields = BTreeMap::new();
    let mut chars = inner.chars().peekable();
    loop {
        // Skip separators/whitespace before a key.
        while matches!(chars.peek(), Some(',') | Some(' ')) {
            chars.next();
        }
        if chars.peek().is_none() {
            return Ok(fields);
        }
        let key = parse_string(&mut chars)?;
        while matches!(chars.peek(), Some(' ')) {
            chars.next();
        }
        if chars.next() != Some(':') {
            return Err(format!("expected `:` after key `{key}`"));
        }
        while matches!(chars.peek(), Some(' ')) {
            chars.next();
        }
        let value = match chars.peek() {
            Some('"') => parse_string(&mut chars)?,
            Some('{') | Some('[') => return Err("nested values are not supported".to_string()),
            _ => {
                let mut tok = String::new();
                while let Some(&c) = chars.peek() {
                    if c == ',' {
                        break;
                    }
                    tok.push(c);
                    chars.next();
                }
                let tok = tok.trim().to_string();
                if tok.is_empty() {
                    return Err(format!("empty value for key `{key}`"));
                }
                tok
            }
        };
        fields.insert(key, value);
    }
}

/// Consume one quoted JSON string (with escapes) from `chars`.
fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected string".to_string());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".to_string()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code =
                        u32::from_str_radix(&hex, 16).map_err(|_| "bad \\u escape".to_string())?;
                    out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                }
                other => return Err(format!("bad escape `\\{other:?}`")),
            },
            Some(c) => out.push(c),
        }
    }
}

fn field_u64(fields: &BTreeMap<String, String>, key: &str) -> Result<u64, String> {
    fields
        .get(key)
        .ok_or_else(|| format!("missing field `{key}`"))?
        .parse::<u64>()
        .map_err(|_| format!("field `{key}` is not a non-negative integer"))
}

fn field_str(fields: &BTreeMap<String, String>, key: &str) -> Result<String, String> {
    fields
        .get(key)
        .cloned()
        .ok_or_else(|| format!("missing field `{key}`"))
}

/// Parse one JSONL line into a [`Stamped`] event. `Ok(None)` means the line
/// carried an unknown event type (skipped for forward compatibility).
fn parse_line(line: &str) -> Result<Option<Stamped>, String> {
    let fields = parse_flat_object(line)?;
    let t_us = field_u64(&fields, "t_us")?;
    let ty = field_str(&fields, "type")?;
    let event = match ty.as_str() {
        "span_start" => TraceEvent::SpanStart {
            name: field_str(&fields, "name")?,
        },
        "span_end" => TraceEvent::SpanEnd {
            name: field_str(&fields, "name")?,
            dur_us: field_u64(&fields, "dur_us")?,
        },
        "cache_lookup" => TraceEvent::CacheLookup {
            outcome: field_str(&fields, "outcome")?,
        },
        "request" => TraceEvent::Request {
            route: field_str(&fields, "route")?,
            status: field_u64(&fields, "status")? as u16,
            dur_us: field_u64(&fields, "dur_us")?,
        },
        _ => return Ok(None),
    };
    Ok(Some(Stamped { t_us, event }))
}

/// Parse a whole JSONL document. Blank lines are skipped; malformed lines
/// are errors naming the 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<Stamped>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Ok(Some(e)) => events.push(e),
            Ok(None) => {}
            Err(err) => return Err(format!("line {}: {err}", i + 1)),
        }
    }
    Ok(events)
}

/// Aggregated timing for one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// Span name.
    pub name: String,
    /// Number of completed spans with this name.
    pub count: u64,
    /// Total microseconds across those spans.
    pub total_us: u64,
}

/// Everything `prbp trace` reports about a JSONL stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Total events parsed.
    pub events: usize,
    /// Per-span-name timing rows, sorted by descending total time.
    pub phases: Vec<PhaseRow>,
}

/// Fold a parsed event stream into a [`TraceSummary`].
pub fn summarize(events: &[Stamped]) -> TraceSummary {
    let mut phases: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for e in events {
        if let TraceEvent::SpanEnd { name, dur_us } = &e.event {
            let entry = phases.entry(name.clone()).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += dur_us;
        }
    }
    let mut phases: Vec<PhaseRow> = phases
        .into_iter()
        .map(|(name, (count, total_us))| PhaseRow {
            name,
            count,
            total_us,
        })
        .collect();
    phases.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
    TraceSummary {
        events: events.len(),
        phases,
    }
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.3}s", us as f64 / 1_000_000.0)
    } else if us >= 1_000 {
        format!("{:.3}ms", us as f64 / 1_000.0)
    } else {
        format!("{us}us")
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "events: {}", self.events)?;
        if !self.phases.is_empty() {
            writeln!(f)?;
            writeln!(f, "phase timings:")?;
            writeln!(f, "  {:<28} {:>7} {:>12}", "phase", "count", "total")?;
            for row in &self.phases {
                writeln!(
                    f,
                    "  {:<28} {:>7} {:>12}",
                    row.name,
                    row.count,
                    fmt_us(row.total_us)
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_the_writer_format() {
        let events = vec![
            Stamped {
                t_us: 10,
                event: TraceEvent::SpanStart {
                    name: "compose:schedule".to_string(),
                },
            },
            Stamped {
                t_us: 900,
                event: TraceEvent::SpanEnd {
                    name: "compose:schedule".to_string(),
                    dur_us: 890,
                },
            },
            Stamped {
                t_us: 2000,
                event: TraceEvent::CacheLookup {
                    outcome: "hit".to_string(),
                },
            },
            Stamped {
                t_us: 2100,
                event: TraceEvent::Request {
                    route: "schedule".to_string(),
                    status: 200,
                    dur_us: 2000,
                },
            },
        ];
        let text: String = events.iter().map(|e| e.to_json() + "\n").collect();
        let parsed = parse_jsonl(&text).expect("parse own output");
        assert_eq!(parsed, events);
    }

    #[test]
    fn unknown_event_types_are_skipped_and_bad_lines_are_named() {
        // Retired event types (`incumbent`, `bound`) are unknown types too.
        let text = "\
{\"t_us\":1,\"type\":\"future_thing\",\"x\":2}

{\"t_us\":2,\"type\":\"incumbent\",\"cost\":9}
{\"t_us\":3,\"type\":\"bound\",\"value\":3}
{\"t_us\":4,\"type\":\"span_start\",\"name\":\"cli:solve\"}
";
        let parsed = parse_jsonl(text).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].t_us, 4);
        let err = parse_jsonl("{\"t_us\":oops}").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn summary_tracks_phase_totals() {
        let text = "\
{\"t_us\":100,\"type\":\"span_start\",\"name\":\"exact\"}
{\"t_us\":500,\"type\":\"span_end\",\"name\":\"exact\",\"dur_us\":450}
{\"t_us\":510,\"type\":\"span_end\",\"name\":\"seed\",\"dur_us\":90}
{\"t_us\":520,\"type\":\"span_end\",\"name\":\"seed\",\"dur_us\":10}
";
        let s = summarize(&parse_jsonl(text).unwrap());
        assert_eq!(s.events, 4);
        // Phases sorted by descending total time.
        assert_eq!(s.phases[0].name, "exact");
        assert_eq!(
            s.phases[1],
            PhaseRow {
                name: "seed".to_string(),
                count: 2,
                total_us: 100,
            }
        );
        // Display renders the table with the totals.
        let text = s.to_string();
        assert!(text.contains("events: 4"), "{text}");
        assert!(text.contains("450us"), "{text}");
    }
}

//! The JSON node/edge interchange document.
//!
//! Schema:
//!
//! ```json
//! {
//!   "name": "optional graph name (ignored)",
//!   "nodes": [
//!     {"id": 0, "label": "in"},
//!     {"id": 1}
//!   ],
//!   "edges": [
//!     [0, 1]
//!   ]
//! }
//! ```
//!
//! `nodes[k].id` must equal `k` (ids are dense and ordered — this is what
//! keeps the format an exact round-trip of [`pebble_dag::Dag`] node ids);
//! `label` is optional and defaults to empty. Edge endpoints are indices into
//! `nodes`; out-of-range endpoints, duplicate edges and self-loops are
//! rejected with the position of the offending token. Unknown object keys are
//! skipped, so documents carrying extra tooling metadata still parse.
//!
//! The parser is hand-rolled rather than serde-based for exactly one reason:
//! line/column-precise errors on malformed input.

use crate::error::{ParseError, ParseErrorKind};
use pebble_dag::{Dag, DagBuilder, DagError, NodeId};
use std::fmt::Write as _;

/// A JSON lexer over characters with 1-based line/col tracking.
struct Lexer<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: usize,
    col: usize,
}

/// JSON values restricted to what the schema needs.
#[derive(Debug, Clone, PartialEq)]
enum Tok {
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Colon,
    Comma,
    Str(String),
    /// Unsigned integer (the only number form the schema uses).
    Int(usize),
    /// `true` / `false` / `null` — valid JSON, never valid in the schema
    /// positions we read, but they must lex so `skip_value` can pass them.
    Word(String),
    /// A valid JSON number that is not an unsigned integer (float, negative,
    /// exponent). Never valid where the schema wants an id, but must lex so
    /// `skip_value` can pass over numeric tooling metadata.
    NonIntNumber,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer {
            chars: input.chars().peekable(),
            line: 1,
            col: 1,
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Read the four hex digits of a `\uXXXX` escape.
    fn hex4(&mut self, esc_line: usize, esc_col: usize) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            match self.bump().and_then(|d| d.to_digit(16)) {
                Some(d) => code = code * 16 + d,
                None => {
                    return Err(ParseError::syntax(esc_line, esc_col, "invalid \\u escape"));
                }
            }
        }
        Ok(code)
    }

    fn tokenize(mut self) -> Result<Vec<(usize, usize, Tok)>, ParseError> {
        let mut out = Vec::new();
        loop {
            match self.chars.peek() {
                None => return Ok(out),
                Some(&c) if c.is_whitespace() => {
                    self.bump();
                    continue;
                }
                Some(_) => {}
            }
            let (line, col) = (self.line, self.col);
            let c = self.bump().expect("peeked");
            let tok = match c {
                '{' => Tok::LBrace,
                '}' => Tok::RBrace,
                '[' => Tok::LBracket,
                ']' => Tok::RBracket,
                ':' => Tok::Colon,
                ',' => Tok::Comma,
                '"' => {
                    let mut s = String::new();
                    loop {
                        match self.bump() {
                            None => {
                                return Err(ParseError::syntax(line, col, "unterminated string"))
                            }
                            Some('"') => break,
                            Some('\\') => {
                                let esc_line = self.line;
                                let esc_col = self.col - 1;
                                match self.bump() {
                                    Some('"') => s.push('"'),
                                    Some('\\') => s.push('\\'),
                                    Some('/') => s.push('/'),
                                    Some('n') => s.push('\n'),
                                    Some('t') => s.push('\t'),
                                    Some('r') => s.push('\r'),
                                    Some('b') => s.push('\u{8}'),
                                    Some('f') => s.push('\u{c}'),
                                    Some('u') => {
                                        let hi = self.hex4(esc_line, esc_col)?;
                                        let code = match hi {
                                            // High surrogate: a \uDC00-\uDFFF
                                            // escape must follow (the JSON way
                                            // of writing astral-plane chars).
                                            0xD800..=0xDBFF => {
                                                if self.bump() != Some('\\')
                                                    || self.bump() != Some('u')
                                                {
                                                    return Err(ParseError::syntax(
                                                        esc_line,
                                                        esc_col,
                                                        "unpaired surrogate in \\u escape",
                                                    ));
                                                }
                                                let lo = self.hex4(esc_line, esc_col)?;
                                                if !(0xDC00..=0xDFFF).contains(&lo) {
                                                    return Err(ParseError::syntax(
                                                        esc_line,
                                                        esc_col,
                                                        "unpaired surrogate in \\u escape",
                                                    ));
                                                }
                                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                            }
                                            0xDC00..=0xDFFF => {
                                                return Err(ParseError::syntax(
                                                    esc_line,
                                                    esc_col,
                                                    "unpaired surrogate in \\u escape",
                                                ))
                                            }
                                            other => other,
                                        };
                                        match char::from_u32(code) {
                                            Some(ch) => s.push(ch),
                                            None => {
                                                return Err(ParseError::syntax(
                                                    esc_line,
                                                    esc_col,
                                                    "invalid \\u escape",
                                                ))
                                            }
                                        }
                                    }
                                    _ => {
                                        return Err(ParseError::syntax(
                                            esc_line,
                                            esc_col,
                                            "invalid escape sequence",
                                        ))
                                    }
                                }
                            }
                            Some(other) => s.push(other),
                        }
                    }
                    Tok::Str(s)
                }
                c if c.is_ascii_digit() || c == '-' => {
                    let negative = c == '-';
                    let mut s = String::new();
                    if !negative {
                        s.push(c);
                    }
                    let mut digits = !negative;
                    while let Some(&n) = self.chars.peek() {
                        if n.is_ascii_digit() {
                            s.push(n);
                            digits = true;
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    if !digits {
                        return Err(ParseError::syntax(line, col, "expected a digit after `-`"));
                    }
                    // Fraction / exponent: still a valid JSON number (so it
                    // must lex for `skip_value` to pass over metadata), but
                    // never an id.
                    let mut non_int = negative;
                    for marker in ['.', 'e'] {
                        if matches!(self.chars.peek(), Some(&m) if m.to_ascii_lowercase() == marker)
                        {
                            non_int = true;
                            self.bump();
                            if marker == 'e' && matches!(self.chars.peek(), Some('+') | Some('-')) {
                                self.bump();
                            }
                            let mut part = false;
                            while matches!(self.chars.peek(), Some(d) if d.is_ascii_digit()) {
                                part = true;
                                self.bump();
                            }
                            if !part {
                                return Err(ParseError::syntax(line, col, "malformed number"));
                            }
                        }
                    }
                    if non_int {
                        Tok::NonIntNumber
                    } else {
                        match s.parse::<usize>() {
                            Ok(v) => Tok::Int(v),
                            Err(_) => {
                                return Err(ParseError::syntax(
                                    line,
                                    col,
                                    format!("number `{s}` is too large"),
                                ))
                            }
                        }
                    }
                }
                c if c.is_ascii_alphabetic() => {
                    let mut s = String::new();
                    s.push(c);
                    while let Some(&n) = self.chars.peek() {
                        if n.is_ascii_alphabetic() {
                            s.push(n);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    if s == "true" || s == "false" || s == "null" {
                        Tok::Word(s)
                    } else {
                        return Err(ParseError::syntax(line, col, format!("unexpected `{s}`")));
                    }
                }
                other => {
                    return Err(ParseError::syntax(
                        line,
                        col,
                        format!("unexpected character `{other}`"),
                    ))
                }
            };
            out.push((line, col, tok));
        }
    }
}

struct Parser {
    toks: Vec<(usize, usize, Tok)>,
    pos: usize,
    eof: (usize, usize),
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, _, t)| t)
    }

    fn here(&self) -> (usize, usize) {
        self.toks
            .get(self.pos)
            .map(|&(l, c, _)| (l, c))
            .unwrap_or(self.eof)
    }

    fn next(&mut self) -> Option<(usize, usize, Tok)> {
        let t = self.toks.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), ParseError> {
        let (line, col) = self.here();
        match self.next() {
            Some((_, _, t)) if t == *want => Ok(()),
            _ => Err(ParseError::syntax(line, col, format!("expected {what}"))),
        }
    }

    fn int(&mut self, what: &str) -> Result<(usize, usize, usize), ParseError> {
        let (line, col) = self.here();
        match self.next() {
            Some((l, c, Tok::Int(v))) => Ok((l, c, v)),
            _ => Err(ParseError::syntax(line, col, format!("expected {what}"))),
        }
    }

    fn string(&mut self, what: &str) -> Result<String, ParseError> {
        let (line, col) = self.here();
        match self.next() {
            Some((_, _, Tok::Str(s))) => Ok(s),
            _ => Err(ParseError::syntax(line, col, format!("expected {what}"))),
        }
    }

    /// Skip one complete JSON value (for unknown object keys).
    fn skip_value(&mut self) -> Result<(), ParseError> {
        let (line, col) = self.here();
        match self.next() {
            Some((_, _, Tok::Str(_) | Tok::Int(_) | Tok::Word(_) | Tok::NonIntNumber)) => Ok(()),
            Some((_, _, Tok::LBracket)) => {
                if self.peek() == Some(&Tok::RBracket) {
                    self.next();
                    return Ok(());
                }
                loop {
                    self.skip_value()?;
                    match self.next() {
                        Some((_, _, Tok::Comma)) => continue,
                        Some((_, _, Tok::RBracket)) => return Ok(()),
                        _ => return Err(ParseError::syntax(line, col, "expected `,` or `]`")),
                    }
                }
            }
            Some((_, _, Tok::LBrace)) => {
                if self.peek() == Some(&Tok::RBrace) {
                    self.next();
                    return Ok(());
                }
                loop {
                    self.string("an object key")?;
                    self.expect(&Tok::Colon, "`:`")?;
                    self.skip_value()?;
                    match self.next() {
                        Some((_, _, Tok::Comma)) => continue,
                        Some((_, _, Tok::RBrace)) => return Ok(()),
                        _ => return Err(ParseError::syntax(line, col, "expected `,` or `}`")),
                    }
                }
            }
            _ => Err(ParseError::syntax(line, col, "expected a JSON value")),
        }
    }
}

/// Parse a JSON node/edge document into a [`Dag`].
pub fn parse(input: &str) -> Result<Dag, ParseError> {
    let toks = Lexer::new(input).tokenize()?;
    let eof = toks.last().map(|&(l, c, _)| (l, c + 1)).unwrap_or((1, 1));
    let mut p = Parser { toks, pos: 0, eof };

    let mut labels: Option<Vec<String>> = None;
    let mut edges: Option<Vec<(usize, usize, usize, usize)>> = None; // (line, col, u, v)

    p.expect(&Tok::LBrace, "`{` (a JSON object)")?;
    if p.peek() == Some(&Tok::RBrace) {
        p.next();
    } else {
        loop {
            let key = p.string("an object key")?;
            p.expect(&Tok::Colon, "`:` after object key")?;
            match key.as_str() {
                "nodes" => labels = Some(parse_nodes(&mut p)?),
                "edges" => edges = Some(parse_edges(&mut p)?),
                _ => p.skip_value()?, // "name" and any tooling metadata
            }
            match p.next() {
                Some((_, _, Tok::Comma)) => continue,
                Some((_, _, Tok::RBrace)) => break,
                _ => {
                    let (l, c) = p.eof;
                    return Err(ParseError::syntax(l, c, "expected `,` or `}`"));
                }
            }
        }
    }
    if p.peek().is_some() {
        let (l, c) = p.here();
        return Err(ParseError::syntax(
            l,
            c,
            "unexpected text after the document",
        ));
    }

    let labels = labels.ok_or_else(|| {
        ParseError::syntax(1, 1, "document is missing the required `nodes` array")
    })?;
    let edges = edges.ok_or_else(|| {
        ParseError::syntax(1, 1, "document is missing the required `edges` array")
    })?;

    // The builder takes the edges before the first unknown endpoint or
    // self-loop; a duplicate it finds among them comes first.
    let n = labels.len();
    let bad = edges
        .iter()
        .position(|&(_, _, u, v)| u >= n || v >= n || u == v);
    let mut b = DagBuilder::new();
    for label in labels {
        b.add_labeled_node(label);
    }
    for &(_, _, u, v) in &edges[..bad.unwrap_or(edges.len())] {
        b.add_edge(NodeId::from_index(u), NodeId::from_index(v));
    }
    match (b.build(), bad) {
        (Err(DagError::DuplicateEdge(u, v)), _) => {
            let (u, v) = (u.index(), v.index());
            let (line, col, _, _) = edges
                .iter()
                .filter(|e| (e.2, e.3) == (u, v))
                .nth(1)
                .expect("the builder found this edge twice");
            Err(ParseError::at(
                *line,
                *col,
                ParseErrorKind::DuplicateEdge {
                    from: u.to_string(),
                    to: v.to_string(),
                },
            ))
        }
        (_, Some(i)) => {
            let (line, col, u, v) = edges[i];
            let kind = if u < n && v < n {
                ParseErrorKind::SelfLoop {
                    node: u.to_string(),
                }
            } else {
                ParseErrorKind::UnknownNode {
                    name: if u >= n { u } else { v }.to_string(),
                }
            };
            Err(ParseError::at(line, col, kind))
        }
        (dag, None) => dag.map_err(ParseError::graph),
    }
}

/// Parse the `nodes` array; returns the labels in id order.
fn parse_nodes(p: &mut Parser) -> Result<Vec<String>, ParseError> {
    p.expect(&Tok::LBracket, "`[` (the nodes array)")?;
    let mut labels = Vec::new();
    if p.peek() == Some(&Tok::RBracket) {
        p.next();
        return Ok(labels);
    }
    loop {
        p.expect(&Tok::LBrace, "`{` (a node object)")?;
        let mut id: Option<(usize, usize, usize)> = None;
        let mut label = String::new();
        if p.peek() == Some(&Tok::RBrace) {
            p.next();
        } else {
            loop {
                let key = p.string("a node object key")?;
                p.expect(&Tok::Colon, "`:` after object key")?;
                match key.as_str() {
                    "id" => id = Some(p.int("an integer node id")?),
                    "label" => label = p.string("a string label")?,
                    _ => p.skip_value()?,
                }
                match p.next() {
                    Some((_, _, Tok::Comma)) => continue,
                    Some((_, _, Tok::RBrace)) => break,
                    _ => {
                        let (l, c) = p.eof;
                        return Err(ParseError::syntax(l, c, "expected `,` or `}`"));
                    }
                }
            }
        }
        let (iline, icol, id) = id.ok_or_else(|| {
            let (l, c) = p.here();
            ParseError::syntax(l, c, "node object is missing its `id`")
        })?;
        if id != labels.len() {
            return Err(ParseError::syntax(
                iline,
                icol,
                format!(
                    "node ids must be dense and ordered: expected {}, found {id}",
                    labels.len()
                ),
            ));
        }
        labels.push(label);
        match p.next() {
            Some((_, _, Tok::Comma)) => continue,
            Some((_, _, Tok::RBracket)) => return Ok(labels),
            _ => {
                let (l, c) = p.eof;
                return Err(ParseError::syntax(l, c, "expected `,` or `]`"));
            }
        }
    }
}

/// Parse the `edges` array of `[u, v]` pairs, with token positions.
fn parse_edges(p: &mut Parser) -> Result<Vec<(usize, usize, usize, usize)>, ParseError> {
    p.expect(&Tok::LBracket, "`[` (the edges array)")?;
    let mut edges = Vec::new();
    if p.peek() == Some(&Tok::RBracket) {
        p.next();
        return Ok(edges);
    }
    loop {
        let (eline, ecol) = p.here();
        p.expect(&Tok::LBracket, "`[` (an edge pair)")?;
        let (_, _, u) = p.int("an integer edge source")?;
        p.expect(&Tok::Comma, "`,` between edge endpoints")?;
        let (_, _, v) = p.int("an integer edge target")?;
        p.expect(&Tok::RBracket, "`]` after the edge pair")?;
        edges.push((eline, ecol, u, v));
        match p.next() {
            Some((_, _, Tok::Comma)) => continue,
            Some((_, _, Tok::RBracket)) => return Ok(edges),
            _ => {
                let (l, c) = p.eof;
                return Err(ParseError::syntax(l, c, "expected `,` or `]`"));
            }
        }
    }
}

/// Escape a string for embedding in a double-quoted JSON string literal.
/// (Note that `str::escape_default` is *not* JSON: it emits `\'` and
/// `\u{..}`, which JSON parsers reject.) Public so every JSON emitter in the
/// workspace — this writer, the `prbp` CLI's report documents — escapes
/// identically.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            other => out.push(other),
        }
    }
    out
}

/// Render `dag` as a JSON node/edge document (pretty-printed, deterministic).
/// Parsing the output reproduces `dag` exactly — ids, labels and edge order
/// included.
pub fn write(dag: &Dag) -> String {
    let mut out = String::from("{\n  \"nodes\": [\n");
    for v in dag.nodes() {
        let label = dag.label(v);
        let sep = if v.index() + 1 == dag.node_count() {
            ""
        } else {
            ","
        };
        if label.is_empty() {
            let _ = writeln!(out, "    {{\"id\": {}}}{sep}", v.0);
        } else {
            let _ = writeln!(
                out,
                "    {{\"id\": {}, \"label\": \"{}\"}}{sep}",
                v.0,
                escape(label)
            );
        }
    }
    out.push_str("  ],\n  \"edges\": [\n");
    for e in dag.edges() {
        let (u, v) = dag.edge_endpoints(e);
        let sep = if e.index() + 1 == dag.edge_count() {
            ""
        } else {
            ","
        };
        let _ = writeln!(out, "    [{}, {}]{sep}", u.0, v.0);
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dag {
        let mut b = DagBuilder::new();
        let a = b.add_labeled_node("in\nquote\"");
        let c = b.add_node();
        let d = b.add_labeled_node("out");
        b.add_edge(a, c);
        b.add_edge(c, d);
        b.build().unwrap()
    }

    #[test]
    fn writer_output_roundtrips_exactly() {
        let g = sample();
        let back = parse(&write(&g)).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        for v in g.nodes() {
            assert_eq!(back.label(v), g.label(v));
        }
        for e in g.edges() {
            assert_eq!(back.edge_endpoints(e), g.edge_endpoints(e));
        }
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        // What ensure_ascii serialisers emit for astral-plane characters.
        let g = parse(
            r#"{"nodes": [{"id": 0, "label": "\ud83d\ude00"}, {"id": 1}], "edges": [[0, 1]]}"#,
        )
        .unwrap();
        assert_eq!(g.label(NodeId(0)), "\u{1F600}");
        for bad in [
            r#"{"nodes": [{"id": 0, "label": "\ud83d"}], "edges": []}"#,
            r#"{"nodes": [{"id": 0, "label": "\ude00"}], "edges": []}"#,
            r#"{"nodes": [{"id": 0, "label": "\ud83dA"}], "edges": []}"#,
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.to_string().contains("unpaired surrogate"), "{err}");
        }
    }

    #[test]
    fn unknown_keys_are_skipped() {
        // Metadata may contain any valid JSON value, including floats,
        // negatives, exponents and keywords the schema itself never uses.
        let text = r#"{"name": "g", "meta": {"tool": [1, 2, {"x": null}],
                "version": 1.5, "offset": -3, "scale": 2e-4, "ok": true},
            "nodes": [{"id": 0, "weight": 3}, {"id": 1}],
            "edges": [[0, 1]]}"#;
        let g = parse(text).unwrap();
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn non_integer_ids_are_rejected_with_position() {
        let err = parse(r#"{"nodes": [{"id": 1.5}], "edges": []}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 1, col 19: expected an integer node id"
        );
        let err = parse(r#"{"nodes": [{"id": 0}], "edges": [[-1, 0]]}"#).unwrap_err();
        assert!(err.to_string().contains("expected an integer edge source"));
    }

    #[test]
    fn out_of_order_ids_are_rejected_with_position() {
        let err = parse(r#"{"nodes": [{"id": 1}], "edges": []}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 1, col 19: node ids must be dense and ordered: expected 0, found 1"
        );
    }

    #[test]
    fn out_of_range_edges_are_located() {
        let err = parse("{\"nodes\": [{\"id\": 0}, {\"id\": 1}],\n \"edges\": [[0, 1], [0, 7]]}")
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 2, col 20: edge references unknown node 7"
        );
    }

    #[test]
    fn duplicate_and_self_loop_edges_are_located() {
        let err = parse("{\"nodes\": [{\"id\": 0}, {\"id\": 1}],\n \"edges\": [[0, 1], [0, 1]]}")
            .unwrap_err();
        assert_eq!(err.to_string(), "line 2, col 20: duplicate edge 0 -> 1");
        let err =
            parse("{\"nodes\": [{\"id\": 0}, {\"id\": 1}],\n \"edges\": [[0, 0]]}").unwrap_err();
        assert_eq!(err.to_string(), "line 2, col 12: self-loop on node 0");
    }

    #[test]
    fn syntax_errors_carry_positions() {
        let err = parse("{\n  \"nodes\": [{\"id\" 0}],\n  \"edges\": []\n}").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 2, col 19: expected `:` after object key"
        );
        let err = parse("{\"nodes\": 3, \"edges\": []}").unwrap_err();
        assert!(err.to_string().contains("expected `[` (the nodes array)"));
    }

    #[test]
    fn missing_sections_are_reported() {
        let err = parse(r#"{"edges": []}"#).unwrap_err();
        assert!(err.to_string().contains("missing the required `nodes`"));
        let err = parse(r#"{"nodes": []}"#).unwrap_err();
        assert!(err.to_string().contains("missing the required `edges`"));
    }

    #[test]
    fn cycles_are_structural_errors() {
        let err =
            parse(r#"{"nodes": [{"id": 0}, {"id": 1}], "edges": [[0, 1], [1, 0]]}"#).unwrap_err();
        assert_eq!(err.location, None);
        assert_eq!(err.to_string(), "edge set contains a directed cycle");
    }
}

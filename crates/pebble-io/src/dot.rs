//! A Graphviz DOT digraph subset.
//!
//! Supported grammar (a practical subset of the DOT language):
//!
//! ```text
//! graph     := 'strict'? 'digraph' name? '{' stmt* '}'
//! stmt      := attr_stmt | default | node_stmt | edge_stmt | ';'
//! attr_stmt := name '=' value ';'?                  (graph attribute, ignored)
//! default   := ('graph'|'node'|'edge') attrs ';'?   (default attributes, ignored)
//! node_stmt := name attrs? ';'?
//! edge_stmt := name ('->' name)+ attrs? ';'?
//! attrs     := '[' (name '=' value (',' | ';')?)* ']'
//! name      := identifier | number | "quoted string"
//! ```
//!
//! Comments (`//…`, `/* … */`, `#…`) are skipped. Undirected graphs
//! (`graph`/`--`), subgraphs and ports are *not* supported and produce a
//! located error.
//!
//! Node ids are assigned by order of first appearance; the only attribute
//! honoured is `label` on node statements (everything else — shapes, colors,
//! rankdir — is accepted and ignored, so the output of
//! [`pebble_dag::export::to_dot`] parses). [`write()`] declares every node in
//! id order before any edge, which is what makes `parse ∘ write` the
//! identity, labels included.

use crate::error::{ParseError, ParseErrorKind};
use pebble_dag::{Dag, DagBuilder, DagError, NodeId};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One lexical token with its 1-based position.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    /// Identifier, number or quoted string (unescaped).
    Name(String),
    Arrow,
    Undirected,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Equals,
    Semi,
    Comma,
}

struct Lexer<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: usize,
    col: usize,
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

    /// Produce the full token stream with positions.
    fn tokenize(mut self) -> Result<Vec<(usize, usize, Tok)>, ParseError> {
        let mut out = Vec::new();
        loop {
            // Skip whitespace and the three comment forms.
            match self.chars.peek() {
                None => return Ok(out),
                Some(&c) if c.is_whitespace() => {
                    self.bump();
                    continue;
                }
                Some('#') => {
                    while let Some(&c) = self.chars.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                    continue;
                }
                Some('/') => {
                    let (line, col) = (self.line, self.col);
                    self.bump();
                    match self.chars.peek() {
                        Some('/') => {
                            while let Some(&c) = self.chars.peek() {
                                if c == '\n' {
                                    break;
                                }
                                self.bump();
                            }
                            continue;
                        }
                        Some('*') => {
                            self.bump();
                            let mut prev = '\0';
                            loop {
                                match self.bump() {
                                    None => {
                                        return Err(ParseError::syntax(
                                            line,
                                            col,
                                            "unterminated block comment",
                                        ))
                                    }
                                    Some('/') if prev == '*' => break,
                                    Some(c) => prev = c,
                                }
                            }
                            continue;
                        }
                        _ => return Err(ParseError::syntax(line, col, "unexpected character `/`")),
                    }
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
                '=' => Tok::Equals,
                ';' => Tok::Semi,
                ',' => Tok::Comma,
                '-' => match self.chars.peek() {
                    Some('>') => {
                        self.bump();
                        Tok::Arrow
                    }
                    Some('-') => {
                        self.bump();
                        Tok::Undirected
                    }
                    _ => {
                        return Err(ParseError::syntax(
                            line,
                            col,
                            "expected `->` (or `--`) after `-`",
                        ))
                    }
                },
                '"' => {
                    let mut s = String::new();
                    loop {
                        match self.bump() {
                            None => {
                                return Err(ParseError::syntax(line, col, "unterminated string"))
                            }
                            Some('"') => break,
                            Some('\\') => match self.bump() {
                                Some('"') => s.push('"'),
                                Some('\\') => s.push('\\'),
                                Some('n') => s.push('\n'),
                                Some(other) => {
                                    // DOT keeps unknown escapes verbatim.
                                    s.push('\\');
                                    s.push(other);
                                }
                                None => {
                                    return Err(ParseError::syntax(
                                        line,
                                        col,
                                        "unterminated string",
                                    ))
                                }
                            },
                            Some(other) => s.push(other),
                        }
                    }
                    Tok::Name(s)
                }
                c if c.is_alphanumeric() || c == '_' || c == '.' => {
                    let mut s = String::new();
                    s.push(c);
                    while let Some(&n) = self.chars.peek() {
                        if n.is_alphanumeric() || n == '_' || n == '.' {
                            s.push(n);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    Tok::Name(s)
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

/// Token cursor for the recursive-descent parser.
struct Parser {
    toks: Vec<(usize, usize, Tok)>,
    pos: usize,
    /// Position just past the last token, for end-of-input errors.
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

    /// Consume a name token (identifier / number / quoted string).
    fn name(&mut self, what: &str) -> Result<(usize, usize, String), ParseError> {
        let (line, col) = self.here();
        match self.next() {
            Some((l, c, Tok::Name(s))) => Ok((l, c, s)),
            _ => Err(ParseError::syntax(line, col, format!("expected {what}"))),
        }
    }

    /// Parse an `[ … ]` attribute list, returning the last `label` value.
    fn attrs(&mut self) -> Result<Option<String>, ParseError> {
        let mut label = None;
        while self.peek() == Some(&Tok::LBracket) {
            self.next();
            loop {
                match self.peek() {
                    Some(Tok::RBracket) => {
                        self.next();
                        break;
                    }
                    Some(Tok::Comma) | Some(Tok::Semi) => {
                        self.next();
                    }
                    _ => {
                        let (_, _, key) = self.name("an attribute name or `]`")?;
                        self.expect(&Tok::Equals, "`=` after attribute name")?;
                        let (_, _, value) = self.name("an attribute value")?;
                        if key == "label" {
                            label = Some(value);
                        }
                    }
                }
            }
        }
        Ok(label)
    }
}

/// Incrementally built graph: interns node names in order of first
/// appearance and keeps each edge with the position of its target token.
#[derive(Default)]
struct GraphAcc {
    ids: HashMap<String, usize>,
    labels: Vec<String>,
    /// `(line, col, u, v)` per edge, in document order.
    edges: Vec<(usize, usize, usize, usize)>,
}

impl GraphAcc {
    fn intern(&mut self, name: &str) -> usize {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.labels.len();
        self.ids.insert(name.to_string(), id);
        self.labels.push(String::new());
        id
    }

    fn add_edge(
        &mut self,
        line: usize,
        col: usize,
        from: &str,
        to: &str,
    ) -> Result<(), ParseError> {
        let u = self.intern(from);
        let v = self.intern(to);
        if u == v {
            return Err(ParseError::at(
                line,
                col,
                ParseErrorKind::SelfLoop {
                    node: from.to_string(),
                },
            ));
        }
        self.edges.push((line, col, u, v));
        Ok(())
    }

    /// Build the DAG; the builder's duplicate check is the only one, and a
    /// duplicate it finds is reported at its second occurrence.
    fn build(self) -> Result<Dag, ParseError> {
        let mut b = DagBuilder::new();
        for label in self.labels {
            b.add_labeled_node(label);
        }
        for &(_, _, u, v) in &self.edges {
            b.add_edge(NodeId::from_index(u), NodeId::from_index(v));
        }
        b.build().map_err(|err| match err {
            DagError::DuplicateEdge(u, v) => {
                let (u, v) = (u.index(), v.index());
                let (line, col, _, _) = self
                    .edges
                    .iter()
                    .filter(|e| (e.2, e.3) == (u, v))
                    .nth(1)
                    .expect("the builder found this edge twice");
                let name = |id| {
                    let (name, _) = self.ids.iter().find(|&(_, &i)| i == id).expect("interned");
                    name.clone()
                };
                ParseError::at(
                    *line,
                    *col,
                    ParseErrorKind::DuplicateEdge {
                        from: name(u),
                        to: name(v),
                    },
                )
            }
            err => ParseError::graph(err),
        })
    }
}

/// Parse a DOT digraph document into a [`Dag`].
pub fn parse(input: &str) -> Result<Dag, ParseError> {
    let toks = Lexer::new(input).tokenize()?;
    let eof = toks.last().map(|&(l, c, _)| (l, c + 1)).unwrap_or((1, 1));
    let mut p = Parser { toks, pos: 0, eof };
    let mut acc = GraphAcc::default();
    match statements(&mut p, &mut acc) {
        Ok(()) => acc.build(),
        // A duplicate among the edges read so far comes first.
        Err(err) => Err(match acc.build() {
            Err(
                dup @ ParseError {
                    kind: ParseErrorKind::DuplicateEdge { .. },
                    ..
                },
            ) => dup,
            _ => err,
        }),
    }
}

/// The header and statements of the document, edges and nodes into `acc`.
fn statements(p: &mut Parser, acc: &mut GraphAcc) -> Result<(), ParseError> {
    // Header: ['strict'] 'digraph' [name] '{'
    let (line, col, head) = p.name("`digraph`")?;
    let head = if head == "strict" {
        let (_, _, h) = p.name("`digraph`")?;
        h
    } else {
        head
    };
    if head == "graph" {
        return Err(ParseError::syntax(
            line,
            col,
            "undirected `graph` is not supported; use `digraph`",
        ));
    }
    if head != "digraph" {
        return Err(ParseError::syntax(
            line,
            col,
            format!("expected `digraph`, found `{head}`"),
        ));
    }
    if matches!(p.peek(), Some(Tok::Name(_))) {
        p.next(); // graph name, ignored
    }
    p.expect(&Tok::LBrace, "`{`")?;

    loop {
        match p.peek() {
            None => {
                let (l, c) = p.eof;
                return Err(ParseError::syntax(l, c, "expected `}`"));
            }
            Some(Tok::RBrace) => {
                p.next();
                break;
            }
            Some(Tok::Semi) => {
                p.next();
            }
            Some(Tok::Name(_)) => {
                let (_, _, name) = p.name("a node name")?;
                match p.peek() {
                    // Graph attribute: name = value
                    Some(Tok::Equals) => {
                        p.next();
                        p.name("an attribute value")?;
                    }
                    // Edge chain: name (-> name)+
                    Some(Tok::Arrow) => {
                        let mut prev = name;
                        while p.peek() == Some(&Tok::Arrow) {
                            p.next();
                            let (eline, ecol, next) = p.name("a node name after `->`")?;
                            acc.add_edge(eline, ecol, &prev, &next)?;
                            prev = next;
                        }
                        p.attrs()?; // edge attributes, ignored
                    }
                    Some(Tok::Undirected) => {
                        let (l, c) = p.here();
                        return Err(ParseError::syntax(
                            l,
                            c,
                            "undirected edge `--` is not supported; use `->`",
                        ));
                    }
                    // Node statement (possibly a default-attribute statement).
                    _ => {
                        let label = p.attrs()?;
                        match name.as_str() {
                            // Default attribute statements: targets, not nodes.
                            "graph" | "node" | "edge" => {}
                            _ => {
                                let id = acc.intern(&name);
                                if let Some(label) = label {
                                    acc.labels[id] = label;
                                }
                            }
                        }
                    }
                }
            }
            Some(_) => {
                let (l, c) = p.here();
                return Err(ParseError::syntax(l, c, "expected a statement or `}`"));
            }
        }
    }
    if let Some(_t) = p.peek() {
        let (l, c) = p.here();
        return Err(ParseError::syntax(l, c, "unexpected text after `}`"));
    }
    Ok(())
}

use pebble_dag::export::dot_escape as escape;

/// Render `dag` in the DOT subset this module parses: every node is declared
/// (in id order, with its label when non-empty) before the edges, so parsing
/// the output reproduces `dag` exactly — ids, labels and edge order included.
pub fn write(dag: &Dag, graph_name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph {graph_name} {{");
    for v in dag.nodes() {
        let label = dag.label(v);
        if label.is_empty() {
            let _ = writeln!(out, "  n{};", v.0);
        } else {
            let _ = writeln!(out, "  n{} [label=\"{}\"];", v.0, escape(label));
        }
    }
    for e in dag.edges() {
        let (u, v) = dag.edge_endpoints(e);
        let _ = writeln!(out, "  n{} -> n{};", u.0, v.0);
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_dag::export;

    fn sample() -> Dag {
        let mut b = DagBuilder::new();
        let a = b.add_labeled_node("in \"x\"");
        let c = b.add_node();
        let d = b.add_labeled_node("out");
        b.add_edge(a, c);
        b.add_edge(c, d);
        b.add_edge(a, d);
        b.build().unwrap()
    }

    #[test]
    fn writer_output_roundtrips_exactly() {
        let g = sample();
        let text = write(&g, "sample");
        let back = parse(&text).unwrap();
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
    fn parses_export_to_dot_output_structurally() {
        let g = sample();
        let back = parse(&export::to_dot(&g, "viz")).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        for e in g.edges() {
            assert_eq!(back.edge_endpoints(e), g.edge_endpoints(e));
        }
    }

    #[test]
    fn accepts_chains_comments_and_defaults() {
        let text = "// chain\nstrict digraph g {\n  graph [rankdir=LR];\n  node [shape=box];\n  a -> b -> c [color=red];\n  /* d is labelled */\n  d [label=\"last\"];\n  c -> d\n}\n";
        let g = parse(text).unwrap();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.label(NodeId(3)), "last");
    }

    #[test]
    fn missing_target_reports_position() {
        let err = parse("digraph g {\n  a -> ;\n}\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 2, col 8: expected a node name after `->`"
        );
    }

    #[test]
    fn undirected_is_rejected() {
        let err = parse("graph g { a -- b }").unwrap_err();
        assert!(err.to_string().contains("use `digraph`"));
        let err = parse("digraph g { a -- b }").unwrap_err();
        assert!(err.to_string().contains("use `->`"));
    }

    #[test]
    fn unterminated_string_is_located() {
        let err = parse("digraph g {\n  a [label=\"oops];\n}\n").unwrap_err();
        assert_eq!(err.to_string(), "line 2, col 12: unterminated string");
    }

    #[test]
    fn duplicate_edges_and_cycles_are_rejected() {
        let err = parse("digraph g { a -> b; a -> b; }").unwrap_err();
        assert_eq!(err.to_string(), "line 1, col 26: duplicate edge a -> b");
        let err = parse("digraph g { a -> b; b -> a; }").unwrap_err();
        assert_eq!(err.to_string(), "edge set contains a directed cycle");
    }

    #[test]
    fn quoted_names_with_escapes_work() {
        let g = parse("digraph g { \"a b\" -> \"c\\\"d\"; }").unwrap();
        assert_eq!(g.node_count(), 2);
    }
}

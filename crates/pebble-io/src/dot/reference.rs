//! The DOT parser as it was before duplicates moved into
//! [`DagBuilder::build`]: a `HashSet` duplicate check per edge as the
//! statements are read. The lexer and the token cursor are shared with
//! [`super::parse`], which the test below compares with this copy on seeded
//! random documents.

use super::{Lexer, Parser, Tok};
use crate::error::{ParseError, ParseErrorKind};
use pebble_dag::{Dag, DagBuilder, NodeId};
use std::collections::HashMap;

/// Incrementally built graph: interns node names in order of first
/// appearance and checks edges as they arrive.
#[derive(Default)]
struct GraphAcc {
    ids: HashMap<String, usize>,
    labels: Vec<String>,
    edges: Vec<(usize, usize)>,
    seen: std::collections::HashSet<(usize, usize)>,
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
        if !self.seen.insert((u, v)) {
            return Err(ParseError::at(
                line,
                col,
                ParseErrorKind::DuplicateEdge {
                    from: from.to_string(),
                    to: to.to_string(),
                },
            ));
        }
        self.edges.push((u, v));
        Ok(())
    }

    fn build(self) -> Result<Dag, ParseError> {
        let mut b = DagBuilder::new();
        for label in self.labels {
            b.add_labeled_node(label);
        }
        for (u, v) in self.edges {
            b.add_edge(NodeId::from_index(u), NodeId::from_index(v));
        }
        b.build().map_err(ParseError::graph)
    }
}

/// Parse a DOT digraph document into a [`Dag`].
pub(crate) fn parse(input: &str) -> Result<Dag, ParseError> {
    let toks = Lexer::new(input).tokenize()?;
    let eof = toks.last().map(|&(l, c, _)| (l, c + 1)).unwrap_or((1, 1));
    let mut p = Parser { toks, pos: 0, eof };

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

    let mut acc = GraphAcc::default();
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
    acc.build()
}

#[cfg(test)]
mod tests {
    use crate::dag_eq;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Separators: comments, line breaks, `\x0b` and non-ASCII whitespace.
    const SPACES: [&str; 8] = [
        " ",
        "\n",
        "\n\n  ",
        "\x0b",
        "\u{a0}",
        "\u{3000}",
        " /* c */ ",
        " // c\n",
    ];

    /// Node names; `007` and `7` are different names.
    const NAMES: [&str; 8] = ["a", "b", "c", "7", "007", "n_1", "\"q r\"", "x.y"];

    fn space(rng: &mut ChaCha8Rng) -> &'static str {
        SPACES[rng.gen_range(0..SPACES.len())]
    }

    /// One statement, or with `rate` a fault: a duplicate, a self-loop or a
    /// syntax error.
    fn statement(
        rng: &mut ChaCha8Rng,
        k: usize,
        rate: f64,
        edges: &mut Vec<(usize, usize)>,
    ) -> String {
        let s = space(rng);
        let v = rng.gen_range(0..k);
        if rng.gen_bool(rate) {
            return match rng.gen_range(0..7usize) {
                0 if !edges.is_empty() => {
                    let (u, v) = edges[rng.gen_range(0..edges.len())];
                    format!("{} ->{s}{};", NAMES[u], NAMES[v])
                }
                1 => format!("{0} -> {0};", NAMES[v]),
                2 => format!("{} -> ;", NAMES[v]),
                3 => format!("{} -- {};", NAMES[v], NAMES[(v + 1) % k]),
                4 => format!("{} = ;", NAMES[v]),
                5 => format!("{} [label];", NAMES[v]),
                _ => format!(
                    "{} -> {} [color=red];",
                    NAMES[v],
                    NAMES[rng.gen_range(0..k)]
                ),
            };
        }
        match rng.gen_range(0..6usize) {
            0 => format!("{}{s}[label=\"L{v}\"];", NAMES[v]),
            1 => format!("{};", NAMES[v]),
            2 => "rankdir = LR".to_string(),
            _ => {
                let u = rng.gen_range(0..k - 1);
                let w = rng.gen_range(u + 1..k);
                edges.push((u, w));
                if w + 1 < k && rng.gen_bool(0.3) {
                    edges.push((w, w + 1));
                    format!("{} -> {}{s}-> {}", NAMES[u], NAMES[w], NAMES[w + 1])
                } else {
                    format!("{} ->{s}{}", NAMES[u], NAMES[w])
                }
            }
        }
    }

    /// A random digraph over up to eight names with faults planted at
    /// `rate` per statement.
    fn document(rng: &mut ChaCha8Rng, rate: f64) -> String {
        let k = rng.gen_range(2..=NAMES.len());
        let mut edges = Vec::new();
        let statements: Vec<String> = (0..rng.gen_range(1..3 * k))
            .map(|_| statement(rng, k, rate, &mut edges))
            .collect();
        let close = if rng.gen_bool(rate) { "" } else { "}" };
        format!(
            "digraph g {{{}{}{}{close}\n",
            space(rng),
            statements.join(&format!(";{}", space(rng))),
            space(rng)
        )
    }

    #[test]
    fn matches_the_hashing_parser_on_random_documents() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let mut outcomes = std::collections::BTreeMap::<String, usize>::new();
        for round in 0..3000 {
            let doc = document(&mut rng, [0.0, 0.03, 0.1, 0.3][round % 4]);
            let kind = match (super::parse(&doc), crate::dot::parse(&doc)) {
                (Ok(want), Ok(got)) => {
                    assert!(dag_eq(&want, &got), "DAGs differ on {doc:?}");
                    "ok".to_string()
                }
                (Err(want), Err(got)) => {
                    assert_eq!(want.to_string(), got.to_string(), "on {doc:?}");
                    let kind = format!("{:?}", want.kind);
                    kind.split(['(', ' ']).next().unwrap().to_string()
                }
                (want, got) => panic!("on {doc:?}: reference {want:?}, parser {got:?}"),
            };
            *outcomes.entry(kind).or_default() += 1;
        }
        for kind in ["ok", "DuplicateEdge", "SelfLoop", "Syntax", "Graph"] {
            assert!(
                outcomes.get(kind).copied().unwrap_or(0) >= 30,
                "{outcomes:?}"
            );
        }
    }
}

//! The JSON parser's edge checks as they were before duplicates moved into
//! [`DagBuilder::build`]: a `HashSet` duplicate check per edge, in the
//! parser. The lexer and the syntax are shared with [`super::parse`], which
//! the test below compares with this copy on seeded random documents.

use super::{parse_edges, parse_nodes, Lexer, Parser, Tok};
use crate::error::{ParseError, ParseErrorKind};
use pebble_dag::{Dag, DagBuilder, NodeId};
use std::collections::HashSet;

pub(crate) fn parse(input: &str) -> Result<Dag, ParseError> {
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

    let n = labels.len();
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    let mut b = DagBuilder::new();
    for label in labels {
        b.add_labeled_node(label);
    }
    for (line, col, u, v) in edges {
        if u >= n || v >= n {
            let bad = if u >= n { u } else { v };
            return Err(ParseError::at(
                line,
                col,
                ParseErrorKind::UnknownNode {
                    name: bad.to_string(),
                },
            ));
        }
        if u == v {
            return Err(ParseError::at(
                line,
                col,
                ParseErrorKind::SelfLoop {
                    node: u.to_string(),
                },
            ));
        }
        if !seen.insert((u, v)) {
            return Err(ParseError::at(
                line,
                col,
                ParseErrorKind::DuplicateEdge {
                    from: u.to_string(),
                    to: v.to_string(),
                },
            ));
        }
        b.add_edge(NodeId::from_index(u), NodeId::from_index(v));
    }
    b.build().map_err(ParseError::graph)
}

#[cfg(test)]
mod tests {
    use crate::dag_eq;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Token separators, `\x0b`, line breaks and non-ASCII whitespace
    /// included.
    const SPACES: [&str; 7] = ["", " ", "\n", "\n\n  ", "\x0b", "\u{a0}", "\u{3000}"];

    fn space(rng: &mut ChaCha8Rng) -> &'static str {
        SPACES[rng.gen_range(0..SPACES.len())]
    }

    /// An endpoint as written: sometimes with leading zeros.
    fn id(rng: &mut ChaCha8Rng, v: usize) -> String {
        if rng.gen_bool(0.15) {
            format!("00{v}")
        } else {
            v.to_string()
        }
    }

    /// One edge pair, or with `rate` a fault: a duplicate, a self-loop, an
    /// unknown id, a one- or three-element pair, or a lexical error.
    fn edge(rng: &mut ChaCha8Rng, k: usize, rate: f64, edges: &mut Vec<(usize, usize)>) -> String {
        let s = space(rng);
        if rng.gen_bool(rate) {
            let v = rng.gen_range(0..k);
            return match rng.gen_range(0..7usize) {
                0 if !edges.is_empty() => {
                    let (u, v) = edges[rng.gen_range(0..edges.len())];
                    format!("[{},{s}{}]", id(rng, u), id(rng, v))
                }
                1 => format!("[{v}, {}]", id(rng, v)),
                2 => format!("[{v}, {}]", k + rng.gen_range(0..3usize)),
                3 => format!("[{v}]"),
                4 => format!("[0, 1,{s}{v}]"),
                5 => format!("[{v} {v}]"),
                _ => format!("[{v}, @]"),
            };
        }
        let u = rng.gen_range(0..k - 1);
        let v = rng.gen_range(u + 1..k);
        edges.push((u, v));
        format!("[{},{s}{}]", id(rng, u), id(rng, v))
    }

    /// A random node/edge document over `k` nodes, some labelled, with
    /// faults planted at `rate` per edge.
    fn document(rng: &mut ChaCha8Rng, rate: f64) -> String {
        let k = rng.gen_range(2..12);
        let nodes: Vec<String> = (0..k)
            .map(|i| match rng.gen_range(0..3usize) {
                0 => format!("{{\"id\": {i}, \"label\": \"n{i}\"}}"),
                _ => format!("{{\"id\":{}{i}}}", space(rng)),
            })
            .collect();
        let mut edges = Vec::new();
        let pairs: Vec<String> = (0..rng.gen_range(1..3 * k))
            .map(|_| edge(rng, k, rate, &mut edges))
            .collect();
        let sep = format!(",{}", space(rng));
        format!(
            "{{\"name\": \"g\",{}\"nodes\": [{}],\n\"edges\": [{}]}}{}",
            space(rng),
            nodes.join(&sep),
            pairs.join(&sep),
            space(rng)
        )
    }

    #[test]
    fn matches_the_hashing_parser_on_random_documents() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let mut outcomes = std::collections::BTreeMap::<String, usize>::new();
        for round in 0..3000 {
            let doc = document(&mut rng, [0.0, 0.03, 0.1, 0.3][round % 4]);
            let kind = match (super::parse(&doc), crate::json::parse(&doc)) {
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
        for kind in [
            "ok",
            "DuplicateEdge",
            "SelfLoop",
            "UnknownNode",
            "Syntax",
            "Graph",
        ] {
            assert!(
                outcomes.get(kind).copied().unwrap_or(0) >= 30,
                "{outcomes:?}"
            );
        }
    }
}

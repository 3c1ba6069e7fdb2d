//! The edge-list parser as it was before duplicates moved into
//! [`DagBuilder::build`]: a `Vec` of tokens per line, an intermediate edge
//! vector and a `HashSet` duplicate check at each line. The test below
//! compares it with [`super::parse`] on seeded random documents.

use super::parse_id;
use crate::error::{ParseError, ParseErrorKind};
use pebble_dag::{Dag, DagBuilder, NodeId};
use std::collections::HashSet;

fn tokens(line: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut start: Option<(usize, usize)> = None; // (col, byte offset)
    for (col0, (bytes, c)) in line.char_indices().enumerate() {
        if c == '#' {
            if let Some((col, b)) = start.take() {
                out.push((col + 1, &line[b..bytes]));
            }
            return out;
        }
        if c.is_whitespace() {
            if let Some((col, b)) = start.take() {
                out.push((col + 1, &line[b..bytes]));
            }
        } else if start.is_none() {
            start = Some((col0, bytes));
        }
    }
    if let Some((col, b)) = start.take() {
        out.push((col + 1, &line[b..]));
    }
    out
}

pub(crate) fn parse(input: &str) -> Result<Dag, ParseError> {
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    let mut max_id = 0usize;
    let mut any = false;
    for (lno0, line) in input.lines().enumerate() {
        let lno = lno0 + 1;
        let toks = tokens(line);
        match toks.as_slice() {
            [] => continue,
            [(ucol, utok), (vcol, vtok)] => {
                let u = parse_id(lno, *ucol, utok)?;
                let v = parse_id(lno, *vcol, vtok)?;
                if u == v {
                    return Err(ParseError::at(
                        lno,
                        *ucol,
                        ParseErrorKind::SelfLoop {
                            node: u.to_string(),
                        },
                    ));
                }
                if !seen.insert((u, v)) {
                    return Err(ParseError::at(
                        lno,
                        *ucol,
                        ParseErrorKind::DuplicateEdge {
                            from: u.to_string(),
                            to: v.to_string(),
                        },
                    ));
                }
                max_id = max_id.max(u).max(v);
                any = true;
                edges.push((u, v));
            }
            [(_, _)] => {
                let end = line.chars().count() + 1;
                return Err(ParseError::syntax(
                    lno,
                    end,
                    "edge line needs two node ids, found one",
                ));
            }
            [_, _, (col, tok), ..] => {
                return Err(ParseError::syntax(
                    lno,
                    *col,
                    format!("unexpected token `{tok}` after edge"),
                ));
            }
        }
    }
    if !any {
        return Err(ParseError::graph(pebble_dag::DagError::Empty));
    }
    let mut b = DagBuilder::new();
    b.add_nodes(max_id + 1);
    for (u, v) in edges {
        b.add_edge(NodeId::from_index(u), NodeId::from_index(v));
    }
    b.build().map_err(ParseError::graph)
}

#[cfg(test)]
mod tests {
    use crate::dag_eq;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Token separators: the byte-level reader's blanks (space, tab, a
    /// lone `\r`) and what only the general reader takes (`\x0b`, `\x0c`,
    /// non-ASCII whitespace).
    const SPACES: [&str; 8] = [" ", "\t", "  ", "\r", "\x0b", "\x0c", "\u{a0}", "\u{3000}"];

    fn space(rng: &mut ChaCha8Rng) -> &'static str {
        SPACES[rng.gen_range(0..SPACES.len())]
    }

    /// An id as written: sometimes with leading zeros, zero-padded to nine
    /// digits (past the byte-level reader's eight), or with the leading `+`
    /// that `usize::from_str` accepts.
    fn id(rng: &mut ChaCha8Rng, v: usize) -> String {
        match rng.gen_range(0..20usize) {
            0..=2 => format!("00{v}"),
            3 => format!("{v:09}"),
            4 => format!("+{v}"),
            _ => v.to_string(),
        }
    }

    /// One `u v` line, padded and commented at random.
    fn edge_line(rng: &mut ChaCha8Rng, u: usize, v: usize) -> String {
        let lead = if rng.gen_bool(0.2) { space(rng) } else { "" };
        let (a, sep, b) = (id(rng, u), space(rng), id(rng, v));
        let tail = match rng.gen_range(0..7usize) {
            0 => " # note",
            1 => "#x",
            2 => space(rng),
            3 => " \t\r ",
            _ => "",
        };
        format!("{lead}{a}{sep}{b}{tail}")
    }

    /// A line that breaks the document, or a benign one.
    fn planted(rng: &mut ChaCha8Rng, k: usize, edges: &[(usize, usize)]) -> String {
        let v = rng.gen_range(0..k);
        match rng.gen_range(0..10usize) {
            0 if !edges.is_empty() => {
                let (u, v) = edges[rng.gen_range(0..edges.len())];
                edge_line(rng, u, v) // duplicate
            }
            1 => edge_line(rng, v, v),                    // self-loop
            2 => format!("{}{}", space(rng), id(rng, v)), // one token
            3 => format!("0 1{}{v}", space(rng)),         // three tokens
            4 => format!("{v}{}x{v}", space(rng)),        // bad token
            5 => format!("{v} 123456789"),                // id above the maximum
            6 => "# a comment".to_string(),
            7 => String::new(),
            8 => space(rng).to_string(),
            _ => {
                let u = rng.gen_range(0..k);
                edge_line(rng, u, v) // any order: cycles and isolated ids
            }
        }
    }

    /// A random layered edge list over `k` ids with faults planted at
    /// `rate` per line.
    fn document(rng: &mut ChaCha8Rng, rate: f64) -> String {
        let k = rng.gen_range(2..12);
        let mut edges = Vec::new();
        let mut lines = Vec::new();
        for _ in 0..rng.gen_range(1..3 * k) {
            if rng.gen_bool(rate) {
                lines.push(planted(rng, k, &edges));
            } else {
                let u = rng.gen_range(0..k - 1);
                let v = rng.gen_range(u + 1..k);
                edges.push((u, v));
                lines.push(edge_line(rng, u, v));
            }
        }
        let mut doc = lines.join(if rng.gen_bool(0.1) { "\r\n" } else { "\n" });
        if rng.gen_bool(0.5) {
            doc.push('\n');
        }
        doc
    }

    fn assert_same(doc: &str) -> String {
        match (super::parse(doc), crate::edgelist::parse(doc)) {
            (Ok(want), Ok(got)) => {
                assert!(dag_eq(&want, &got), "DAGs differ on {doc:?}");
                "ok".to_string()
            }
            (Err(want), Err(got)) => {
                assert_eq!(want.to_string(), got.to_string(), "on {doc:?}");
                format!("{:?}", want.kind)
                    .split(['(', ' '])
                    .next()
                    .unwrap()
                    .to_string()
            }
            (want, got) => panic!("on {doc:?}: reference {want:?}, parser {got:?}"),
        }
    }

    #[test]
    fn matches_the_hashing_parser_on_random_documents() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let mut outcomes = std::collections::BTreeMap::<String, usize>::new();
        for round in 0..4000 {
            let rate = [0.0, 0.03, 0.1, 0.3][round % 4];
            let doc = document(&mut rng, rate);
            *outcomes.entry(assert_same(&doc)).or_default() += 1;
        }
        for kind in ["ok", "DuplicateEdge", "SelfLoop", "Syntax", "Graph"] {
            assert!(
                outcomes.get(kind).copied().unwrap_or(0) >= 50,
                "{outcomes:?}"
            );
        }
    }

    #[test]
    fn a_duplicate_is_reported_before_a_later_error() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut duplicate_first = 0;
        for _ in 0..500 {
            let doc = document(&mut rng, 0.0);
            let mut lines: Vec<String> = doc.lines().map(str::to_string).collect();
            let n = lines.len();
            let (first, second) = (rng.gen_range(0..=n), rng.gen_range(0..=n));
            lines.insert(first, "0 1".to_string());
            lines.insert(first.max(second) + 1, "0 1".to_string());
            let late = rng.gen_range(0..=lines.len());
            let bad = ["0 1 2", "3", "x 1", "2 2", "0 999999999"][rng.gen_range(0..5usize)];
            lines.insert(late, bad.to_string());
            if assert_same(&lines.join("\n")) == "DuplicateEdge" {
                duplicate_first += 1;
            }
        }
        assert!(duplicate_first >= 100, "{duplicate_first}");
    }

    /// The defects planted into an otherwise plain document, each a line
    /// the byte loop must hand to the tokenizer or an edge it must reject.
    const DEFECTS: [&str; 9] = [
        "comment",
        "blank",
        "plus",
        "nine digits",
        "form feed",
        "self-loop",
        "duplicate",
        "one id",
        "nine-digit overflow",
    ];

    /// A long document of lines the byte loop reads inline — a random DAG
    /// on dense ids, its ids sometimes zero-padded to the eight digits the
    /// loop still takes — with one `defect` at a random line, `\r\n` line
    /// ends at random and no final newline at random.
    fn plain_document(rng: &mut ChaCha8Rng, defect: &str) -> String {
        let k = rng.gen_range(20..400);
        let mut seen = std::collections::HashSet::new();
        let mut edges: Vec<(usize, usize)> = (1..k).map(|v| (rng.gen_range(0..v), v)).collect();
        seen.extend(edges.iter().copied());
        for _ in 0..rng.gen_range(0..3 * k) {
            let u = rng.gen_range(0..k - 1);
            let v = rng.gen_range(u + 1..k);
            if seen.insert((u, v)) {
                edges.push((u, v));
            }
        }
        edges.shuffle(rng);
        let plain = |rng: &mut ChaCha8Rng, u: usize, v: usize| {
            let id = |rng: &mut ChaCha8Rng, x: usize| match rng.gen_range(0..8usize) {
                0 => format!("{x:08}"),
                _ => x.to_string(),
            };
            let blanks = [" ", "\t", "  ", " \t", "\r "];
            let lead = if rng.gen_bool(0.1) {
                blanks[rng.gen_range(0..5usize)]
            } else {
                ""
            };
            let sep = blanks[rng.gen_range(0..4usize)];
            let tail = if rng.gen_bool(0.1) {
                blanks[rng.gen_range(0..5usize)]
            } else {
                ""
            };
            format!("{lead}{}{sep}{}{tail}", id(rng, u), id(rng, v))
        };
        let mut lines: Vec<String> = edges.iter().map(|&(u, v)| plain(rng, u, v)).collect();
        let at = rng.gen_range(0..lines.len());
        let (u, v) = edges[at];
        match defect {
            "comment" => lines.insert(at, "# a comment".to_string()),
            "blank" => lines.insert(at, ["", " ", "\t"][rng.gen_range(0..3usize)].to_string()),
            "plus" => lines[at] = format!("+{u} {v}"),
            "nine digits" => lines[at] = format!("{u} {v:09}"),
            "form feed" => lines[at] = format!("{u}\x0c{v}"),
            "self-loop" => lines.insert(at, format!("{v} {v}")),
            "duplicate" => {
                let copy = lines[rng.gen_range(0..=at)].clone();
                lines.insert(at + 1, copy);
            }
            "one id" => lines.insert(at, format!("{u}")),
            "nine-digit overflow" => lines[at] = format!("{u} 123456789"),
            _ => unreachable!("{defect}"),
        }
        let mut doc = lines.join(if rng.gen_bool(0.3) { "\r\n" } else { "\n" });
        if rng.gen_bool(0.7) {
            doc.push('\n');
        }
        doc
    }

    /// The one-pass byte loop against the reference on long plain
    /// documents: the hand-off of a single defective line to the tokenizer,
    /// and the return to the inline path after it, at any line.
    #[test]
    fn matches_the_hashing_parser_on_plain_documents_with_one_defect() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let mut outcomes = std::collections::BTreeMap::<String, usize>::new();
        for round in 0..360 {
            let defect = DEFECTS[round % DEFECTS.len()];
            let doc = plain_document(&mut rng, defect);
            *outcomes.entry(assert_same(&doc)).or_default() += 1;
        }
        for kind in ["ok", "DuplicateEdge", "SelfLoop", "Syntax"] {
            assert!(
                outcomes.get(kind).copied().unwrap_or(0) >= 30,
                "{outcomes:?}"
            );
        }
    }

    /// A large document with its only error on the last line: the parser
    /// and the reference agree, and both find it.
    #[cfg(not(debug_assertions))]
    #[test]
    fn a_last_line_error_in_fft_16384_matches() {
        let base = pebble_dag::export::to_edge_list(&pebble_dag::generators::fft(16384).dag);
        let first = base.lines().next().unwrap().to_string();
        for last in [first.as_str(), "0 1 2", "7 7", "x"] {
            let doc = format!("{base}{last}\n");
            let kind = assert_same(&doc);
            assert_ne!(kind, "ok", "{last}");
        }
        assert_eq!(assert_same(&base), "ok");
    }
}

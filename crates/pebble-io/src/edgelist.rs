//! The whitespace edge-list format.
//!
//! Grammar (one record per line):
//!
//! ```text
//! line    := ws* (edge ws*)? comment?
//! edge    := id ws+ id
//! id      := decimal integer in 0 ..= 99_999_999
//! comment := '#' anything-to-end-of-line
//! ```
//!
//! Node ids must be dense: the graph has nodes `0 ..= max id`, and since a
//! computational DAG has no isolated nodes, every id in that range must
//! appear in some edge. Labels are not representable. Self-loops are
//! rejected at their source line; cycles are rejected after parsing.
//!
//! The document is read in one pass of bytes, without splitting it into
//! lines first. A line of the common shape — blanks, one to eight ASCII
//! digits, blanks, one to eight digits, blanks, then `\n` or the end of the
//! document, where a blank is a space, a tab or `\r` — naming two distinct
//! ids is read inline (`plain_edge`). Every other line, comments, errors
//! and long or signed ids included, is handed with its line number to a
//! tokenizer that splits it into at most three tokens without allocating
//! (`edge`), which keeps every error text and location of the general
//! reader; the pass then goes on from the next line. Either way the edge
//! goes straight into the [`DagBuilder`]. Duplicate edges are found by
//! the builder's one O(n + m) check. Only on that error path is the document
//! read again, to report the duplicate at its second `u v` line. Before a
//! located error on a later line is returned, the edges read so far are
//! checked the same way, so the first error in the document is the one
//! reported.

use crate::error::{ParseError, ParseErrorKind};
use pebble_dag::export;
use pebble_dag::{Dag, DagBuilder, DagError, NodeId};

/// The largest node id the parsers accept. Guards against a single malformed
/// line (`0 99999999999999`) allocating an absurd node table.
pub const MAX_NODE_ID: usize = 99_999_999;

/// The first three tokens of a line as `(1-based char column, token)`,
/// stopping at a `#` comment. A valid line has at most two, so a third is
/// all an error needs.
fn tokens(line: &str) -> [Option<(usize, &str)>; 3] {
    let bytes = line.as_bytes();
    let mut out = [None; 3];
    let mut found = 0;
    let mut start: Option<(usize, usize)> = None; // (col, byte offset)
    let (mut i, mut col) = (0, 1);
    while i < bytes.len() && found < 3 {
        let (space, len) = match bytes[i] {
            b'#' => break,
            b @ 0..=0x7f => (matches!(b, b'\t'..=b'\r' | b' '), 1),
            _ => {
                let c = line[i..].chars().next().expect("a char starts here");
                (c.is_whitespace(), c.len_utf8())
            }
        };
        if space {
            if let Some((c, b)) = start.take() {
                out[found] = Some((c, &line[b..i]));
                found += 1;
            }
        } else if start.is_none() {
            start = Some((col, i));
        }
        i += len;
        col += 1;
    }
    if let Some((c, b)) = start {
        out[found] = Some((c, &line[b..i]));
    }
    out
}

/// Parse a node id token, with a precise error on anything else.
pub(crate) fn parse_id(line: usize, col: usize, tok: &str) -> Result<usize, ParseError> {
    // Up to eight digits never exceed the maximum.
    if tok.len() <= 8 && tok.bytes().all(|b| b.is_ascii_digit()) {
        return Ok(tok.bytes().fold(0, |id, b| id * 10 + usize::from(b - b'0')));
    }
    match tok.parse::<usize>() {
        Ok(id) if id <= MAX_NODE_ID => Ok(id),
        Ok(id) => Err(ParseError::syntax(
            line,
            col,
            format!("node id {id} exceeds the supported maximum {MAX_NODE_ID}"),
        )),
        Err(_) => Err(ParseError::syntax(
            line,
            col,
            format!("expected a node id, found `{tok}`"),
        )),
    }
}

/// The edge of the line starting at `at` if the line has the common shape
/// (see the module docs), with the start of the next line. Otherwise the
/// offset at which the line left that shape: no line end comes before it.
fn plain_edge(bytes: &[u8], mut at: usize) -> Result<((usize, usize), usize), usize> {
    let blanks = |mut at: usize| {
        while bytes
            .get(at)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r'))
        {
            at += 1;
        }
        at
    };
    let mut ids = [0usize; 2];
    for id in &mut ids {
        // A second id needs a blank before it, which the digit run of the
        // first already ensures: it stops only at a non-digit.
        at = blanks(at);
        let first = at;
        while let Some(&b) = bytes.get(at).filter(|b| b.is_ascii_digit()) {
            if at - first == 8 {
                return Err(at);
            }
            *id = *id * 10 + usize::from(b - b'0');
            at += 1;
        }
        if at == first {
            return Err(at);
        }
    }
    at = blanks(at);
    let [u, v] = ids;
    match bytes.get(at) {
        None if u != v => Ok(((u, v), at)),
        Some(b'\n') if u != v => Ok(((u, v), at + 1)),
        _ => Err(at),
    }
}

/// The edge on line `lno`, if the line holds one.
fn edge(lno: usize, line: &str) -> Result<Option<(usize, usize)>, ParseError> {
    match tokens(line) {
        [None, ..] => Ok(None),
        [Some((ucol, utok)), Some((vcol, vtok)), None] => {
            let u = parse_id(lno, ucol, utok)?;
            let v = parse_id(lno, vcol, vtok)?;
            if u == v {
                return Err(ParseError::at(
                    lno,
                    ucol,
                    ParseErrorKind::SelfLoop {
                        node: u.to_string(),
                    },
                ));
            }
            Ok(Some((u, v)))
        }
        [Some(_), None, _] => Err(ParseError::syntax(
            lno,
            line.chars().count() + 1,
            "edge line needs two node ids, found one",
        )),
        [_, _, Some((col, tok))] => Err(ParseError::syntax(
            lno,
            col,
            format!("unexpected token `{tok}` after edge"),
        )),
    }
}

/// Parse a whitespace edge-list document into a [`Dag`].
pub fn parse(input: &str) -> Result<Dag, ParseError> {
    let bytes = input.as_bytes();
    let mut b = DagBuilder::new();
    let mut max_id = 0usize;
    let (mut at, mut lno) = (0, 0);
    while at < bytes.len() {
        lno += 1;
        let (parsed, next) = match plain_edge(bytes, at) {
            Ok((uv, next)) => (Ok(Some(uv)), next),
            Err(stop) => {
                // The line as `str::lines` yields it: up to its `\n`, less
                // one `\r` before that `\n`.
                let end = input[stop..].find('\n').map_or(input.len(), |i| stop + i);
                let mut line = &input[at..end];
                if end < input.len() {
                    line = line.strip_suffix('\r').unwrap_or(line);
                }
                (edge(lno, line), end + 1)
            }
        };
        match parsed {
            Ok(None) => {}
            Ok(Some((u, v))) => {
                max_id = max_id.max(u).max(v);
                b.add_edge(NodeId::from_index(u), NodeId::from_index(v));
            }
            Err(err) => {
                // A duplicate on an earlier line comes first.
                return Err(match build(input, b, max_id) {
                    Err(
                        dup @ ParseError {
                            kind: ParseErrorKind::DuplicateEdge { .. },
                            ..
                        },
                    ) => dup,
                    _ => err,
                });
            }
        }
        at = next;
    }
    if b.edge_count() == 0 {
        return Err(ParseError::graph(DagError::Empty));
    }
    build(input, b, max_id)
}

/// Build the DAG on nodes `0 ..= max_id`, locating a duplicate edge in
/// `input`.
fn build(input: &str, mut b: DagBuilder, max_id: usize) -> Result<Dag, ParseError> {
    // `add_node` one at a time: `add_nodes` would collect ids nobody reads.
    for _ in 0..=max_id {
        b.add_node();
    }
    b.build().map_err(|err| match err {
        DagError::DuplicateEdge(u, v) => locate_duplicate(input, u.index(), v.index()),
        err => ParseError::graph(err),
    })
}

/// The duplicate-edge error for `u v`, at its second line. Every line up to
/// there holds a valid edge.
fn locate_duplicate(input: &str, u: usize, v: usize) -> ParseError {
    let id = |tok: &str| tok.parse::<usize>().ok();
    let mut lines = input
        .lines()
        .enumerate()
        .filter_map(|(lno0, line)| match tokens(line) {
            [Some((col, a)), Some((_, b)), None] if id(a) == Some(u) && id(b) == Some(v) => {
                Some((lno0 + 1, col))
            }
            _ => None,
        });
    let (line, col) = lines.nth(1).expect("the builder found this edge twice");
    ParseError::at(
        line,
        col,
        ParseErrorKind::DuplicateEdge {
            from: u.to_string(),
            to: v.to_string(),
        },
    )
}

/// Render `dag` as a whitespace edge-list (delegates to
/// [`pebble_dag::export::to_edge_list`], which this parser round-trips).
pub fn write(dag: &Dag) -> String {
    export::to_edge_list(dag)
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_blank_lines_and_edges() {
        let g = parse("# a chain\n\n0 1   # inline comment\n  1   2\n").unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(2)));
    }

    #[test]
    fn roundtrips_the_export_writer() {
        let g = parse("0 2\n2 1\n0 1\n").unwrap();
        let again = parse(&write(&g)).unwrap();
        assert_eq!(again.node_count(), g.node_count());
        for e in g.edges() {
            assert_eq!(again.edge_endpoints(e), g.edge_endpoints(e));
        }
    }

    #[test]
    fn bad_token_reports_line_and_col() {
        let err = parse("0 1\n1 x2\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 2, col 3: expected a node id, found `x2`"
        );
    }

    #[test]
    fn missing_endpoint_reports_line_end() {
        let err = parse("0 1\n3\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 2, col 2: edge line needs two node ids, found one"
        );
    }

    #[test]
    fn a_line_left_to_the_tokenizer_keeps_the_line_reader_columns() {
        // A `\r` before `\n` ends the line; a last line keeps its `\r`, as
        // `str::lines` yields them.
        let err = parse("0 1\r\n3\r\n1 2\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 2, col 2: edge line needs two node ids, found one"
        );
        let err = parse("0 1\n1 2\n3\r").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 3, col 3: edge line needs two node ids, found one"
        );
        // The pass goes back to the inline reader after a handed-off line.
        let g = parse("0 1 # c\n+1 2\n2\x0c3\n3 4").unwrap();
        assert_eq!(g.edge_count(), 4);
        assert!(g.has_edge(NodeId(3), NodeId(4)));
    }

    #[test]
    fn extra_token_is_rejected() {
        let err = parse("0 1 2\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 1, col 5: unexpected token `2` after edge"
        );
    }

    #[test]
    fn duplicate_edge_and_self_loop_are_located() {
        let err = parse("0 1\n0 1\n").unwrap_err();
        assert_eq!(err.to_string(), "line 2, col 1: duplicate edge 0 -> 1");
        let err = parse("0 1\n2 2\n").unwrap_err();
        assert_eq!(err.to_string(), "line 2, col 1: self-loop on node 2");
    }

    #[test]
    fn cycle_and_empty_are_structural() {
        let err = parse("0 1\n1 0\n").unwrap_err();
        assert_eq!(err.location, None);
        assert_eq!(err.to_string(), "edge set contains a directed cycle");
        assert!(parse("# nothing\n").is_err());
    }

    #[test]
    fn sparse_ids_fail_as_isolated_nodes() {
        let err = parse("0 2\n").unwrap_err();
        assert!(err.to_string().contains("isolated"));
    }

    #[test]
    fn oversized_ids_are_rejected() {
        let err = parse("0 999999999999\n").unwrap_err();
        assert!(err.to_string().contains("exceeds the supported maximum"));
    }
}

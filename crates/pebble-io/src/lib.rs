//! # pebble-io
//!
//! DAG interchange: parse and write computational DAGs in three formats so
//! workloads the repository did *not* generate can be scheduled and
//! certified.
//!
//! * [`edgelist`] — whitespace edge-list (`u v` per line, `#` comments);
//! * [`dot`] — a Graphviz DOT digraph subset (node labels honoured);
//! * [`json`] — a JSON node/edge document (node labels honoured).
//!
//! Beyond interchange, [`store`] is the versioned, checksummed binary format
//! for *certified schedules*: the on-disk representation behind the
//! content-addressed schedule cache of `pebble-serve`.
//!
//! All three parsers report **line/column-precise errors**
//! ([`ParseError`]), reject duplicate edges and self-loops at the offending
//! token, and reject cycles / isolated nodes / empty graphs after parsing
//! (the structural invariants of [`pebble_dag::Dag`]). No parser hashes
//! edges: duplicates are found by one O(n + m) check in
//! [`pebble_dag::DagBuilder::build`] and located at the offending token only
//! on that error path. Before a parser reports a later located error, it
//! runs the same check on the edges read so far, so the first error in the
//! document is the one reported. All three writers are
//! exact round-trips: `parse(write(dag))` reproduces node ids, edge order
//! and — for DOT and JSON — labels. The edge-list writer is
//! [`pebble_dag::export::to_edge_list`]; the DOT parser also accepts the
//! diagnostic output of [`pebble_dag::export::to_dot`].

#![deny(missing_docs)]

pub mod dot;
pub mod edgelist;
pub mod error;
pub mod json;
pub mod store;

pub use error::{Location, ParseError, ParseErrorKind};

use pebble_dag::Dag;

/// The supported interchange formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Whitespace edge-list (`.el`, `.edges`, `.edgelist`, `.txt`).
    EdgeList,
    /// DOT digraph subset (`.dot`, `.gv`).
    Dot,
    /// JSON node/edge document (`.json`).
    Json,
}

impl Format {
    /// Stable lowercase name (`edge-list`, `dot`, `json`).
    pub fn name(self) -> &'static str {
        match self {
            Format::EdgeList => "edge-list",
            Format::Dot => "dot",
            Format::Json => "json",
        }
    }

    /// Guess the format from a file path's extension.
    pub fn from_path(path: &str) -> Option<Format> {
        let ext = path.rsplit('.').next()?.to_ascii_lowercase();
        match ext.as_str() {
            "el" | "edges" | "edgelist" | "txt" => Some(Format::EdgeList),
            "dot" | "gv" => Some(Format::Dot),
            "json" => Some(Format::Json),
            _ => None,
        }
    }

    /// Guess the format from the document text itself: `{` opens JSON,
    /// `digraph` / `graph` / `strict` (or a comment introducing them) opens
    /// DOT, anything else is treated as an edge-list.
    pub fn sniff(input: &str) -> Format {
        for line in input.lines() {
            let t = line.trim_start();
            if t.is_empty() || t.starts_with('#') || t.starts_with("//") {
                continue;
            }
            if t.starts_with('{') {
                return Format::Json;
            }
            if t.starts_with("digraph")
                || t.starts_with("strict")
                || t.starts_with("graph")
                || t.starts_with("/*")
            {
                return Format::Dot;
            }
            return Format::EdgeList;
        }
        Format::EdgeList
    }
}

impl std::str::FromStr for Format {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "edgelist" | "edge-list" | "el" => Ok(Format::EdgeList),
            "dot" | "gv" => Ok(Format::Dot),
            "json" => Ok(Format::Json),
            other => Err(format!(
                "unknown format `{other}` (expected edgelist, dot or json)"
            )),
        }
    }
}

impl std::fmt::Display for Format {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parse `input` as `format`.
pub fn parse(input: &str, format: Format) -> Result<Dag, ParseError> {
    match format {
        Format::EdgeList => edgelist::parse(input),
        Format::Dot => dot::parse(input),
        Format::Json => json::parse(input),
    }
}

/// Render `dag` as `format`. DOT output uses the graph name `g`.
pub fn write(dag: &Dag, format: Format) -> String {
    match format {
        Format::EdgeList => edgelist::write(dag),
        Format::Dot => dot::write(dag, "g"),
        Format::Json => json::write(dag),
    }
}

/// Structural equality of two DAGs: same node count, labels, and edge
/// sequence (endpoints in [`pebble_dag::EdgeId`] order). This is the
/// round-trip contract of the writers.
pub fn dag_eq(a: &Dag, b: &Dag) -> bool {
    a.node_count() == b.node_count()
        && a.edge_count() == b.edge_count()
        && a.nodes().all(|v| a.label(v) == b.label(v))
        && a.edges()
            .all(|e| a.edge_endpoints(e) == b.edge_endpoints(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_dag::DagBuilder;

    fn sample() -> Dag {
        let mut b = DagBuilder::new();
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1]);
        b.add_edge(n[1], n[2]);
        b.build().unwrap()
    }

    #[test]
    fn extension_detection() {
        assert_eq!(Format::from_path("a/b/c.el"), Some(Format::EdgeList));
        assert_eq!(Format::from_path("x.edges"), Some(Format::EdgeList));
        assert_eq!(Format::from_path("x.DOT"), Some(Format::Dot));
        assert_eq!(Format::from_path("x.gv"), Some(Format::Dot));
        assert_eq!(Format::from_path("x.json"), Some(Format::Json));
        assert_eq!(Format::from_path("x.bin"), None);
    }

    #[test]
    fn content_sniffing() {
        assert_eq!(Format::sniff("# c\n0 1\n"), Format::EdgeList);
        assert_eq!(Format::sniff("// c\ndigraph g {}\n"), Format::Dot);
        assert_eq!(Format::sniff("strict digraph {}\n"), Format::Dot);
        assert_eq!(Format::sniff("  {\"nodes\": []}"), Format::Json);
        assert_eq!(Format::sniff(""), Format::EdgeList);
    }

    #[test]
    fn dispatch_roundtrips_every_format() {
        let g = sample();
        for f in [Format::EdgeList, Format::Dot, Format::Json] {
            let text = write(&g, f);
            let back = parse(&text, f).unwrap_or_else(|e| panic!("{f}: {e}"));
            assert!(dag_eq(&g, &back), "{f} round-trip changed the DAG");
        }
    }

    #[test]
    fn format_names_parse_back() {
        for f in [Format::EdgeList, Format::Dot, Format::Json] {
            assert_eq!(f.name().parse::<Format>().unwrap(), f);
        }
        assert!("yaml".parse::<Format>().is_err());
    }
}

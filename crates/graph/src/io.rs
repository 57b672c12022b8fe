//! Plain-text graph interchange: a whitespace edge-list format and
//! Graphviz DOT export.
//!
//! The edge-list format is one header line `n <node-count>` followed by
//! one `u v latency` triple per line; `#` starts a comment. It
//! round-trips through [`to_edge_list`] / [`from_edge_list`] and is
//! handy for checking experiment graphs into fixtures or piping them to
//! external tools.

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use crate::error::GraphError;
use crate::graph::Graph;

/// Errors from [`from_edge_list`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseGraphError {
    /// The `n <count>` header line is missing or malformed.
    MissingHeader,
    /// A line did not parse as `u v latency`.
    BadLine {
        /// 1-based line number.
        line: usize,
    },
    /// The parsed edges failed graph validation.
    Invalid(GraphError),
}

impl fmt::Display for ParseGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseGraphError::MissingHeader => write!(f, "missing `n <count>` header line"),
            ParseGraphError::BadLine { line } => {
                write!(f, "line {line} is not a `u v latency` triple")
            }
            ParseGraphError::Invalid(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl Error for ParseGraphError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseGraphError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for ParseGraphError {
    fn from(e: GraphError) -> Self {
        ParseGraphError::Invalid(e)
    }
}

/// Serializes a graph to the edge-list format.
///
/// # Example
///
/// ```
/// use latency_graph::{io, Graph};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = Graph::from_edges(3, [(0, 1, 2), (1, 2, 7)])?;
/// let text = io::to_edge_list(&g);
/// let back = io::from_edge_list(&text)?;
/// assert_eq!(g, back);
/// # Ok(())
/// # }
/// ```
pub fn to_edge_list(g: &Graph) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "n {}", g.node_count());
    for (u, v, l) in g.edges() {
        let _ = writeln!(s, "{} {} {}", u.index(), v.index(), l.get());
    }
    s
}

/// Parses the edge-list format.
///
/// # Errors
///
/// Returns [`ParseGraphError`] on a missing header, malformed line
/// (including a node id that does not fit 32 bits), or invalid edge set
/// (self-loop, duplicate, out of range, more than `u32::MAX` nodes).
pub fn from_edge_list(text: &str) -> Result<Graph, ParseGraphError> {
    let mut n: Option<usize> = None;
    let mut edges = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        if n.is_none() {
            if parts.len() == 2 && parts[0] == "n" {
                n = Some(
                    parts[1]
                        .parse()
                        .map_err(|_| ParseGraphError::MissingHeader)?,
                );
                continue;
            }
            return Err(ParseGraphError::MissingHeader);
        }
        if parts.len() != 3 {
            return Err(ParseGraphError::BadLine { line: idx + 1 });
        }
        // Node ids and latencies are all 32-bit.
        let parse = |s: &str| {
            s.parse::<u32>()
                .map_err(|_| ParseGraphError::BadLine { line: idx + 1 })
        };
        let (u, v, l) = (parse(parts[0])?, parse(parts[1])?, parse(parts[2])?);
        if l == 0 {
            return Err(ParseGraphError::BadLine { line: idx + 1 });
        }
        edges.push((u as usize, v as usize, l));
    }
    let n = n.ok_or(ParseGraphError::MissingHeader)?;
    Ok(Graph::from_edges(n, edges)?)
}

/// Renders the graph as Graphviz DOT (undirected), labeling edges with
/// their latencies. Fast (latency-1) edges are drawn bold — matching
/// the paper's Figure 1 convention of thick fast links.
pub fn to_dot(g: &Graph, name: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "graph {name} {{");
    for v in g.nodes() {
        let _ = writeln!(s, "  {};", v.index());
    }
    for (u, v, l) in g.edges() {
        let style = if l.get() == 1 { ", style=bold" } else { "" };
        let _ = writeln!(
            s,
            "  {} -- {} [label=\"{}\"{style}];",
            u.index(),
            v.index(),
            l.get()
        );
    }
    let _ = writeln!(s, "}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn round_trip_random_graphs() {
        for seed in 0..5 {
            let base = generators::connected_erdos_renyi(20, 0.2, seed).expect("connected sample");
            let g = generators::uniform_random_latencies(&base, 1, 9, seed);
            let text = to_edge_list(&g);
            assert_eq!(from_edge_list(&text).unwrap(), g);
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# a graph\nn 3\n\n0 1 2  # fast-ish\n1 2 7\n";
        let g = from_edge_list(text).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn missing_header_rejected() {
        assert_eq!(
            from_edge_list("0 1 2\n"),
            Err(ParseGraphError::MissingHeader)
        );
        assert_eq!(from_edge_list(""), Err(ParseGraphError::MissingHeader));
    }

    #[test]
    fn bad_lines_rejected_with_position() {
        let text = "n 3\n0 1 2\n0 2\n";
        assert_eq!(
            from_edge_list(text),
            Err(ParseGraphError::BadLine { line: 3 })
        );
        let zero_lat = "n 3\n0 1 0\n";
        assert_eq!(
            from_edge_list(zero_lat),
            Err(ParseGraphError::BadLine { line: 2 })
        );
    }

    #[test]
    fn ids_beyond_u32_are_errors_not_panics() {
        assert_eq!(
            from_edge_list("n 4\n5000000000 1 1\n"),
            Err(ParseGraphError::BadLine { line: 2 })
        );
        assert_eq!(
            from_edge_list("n 4\n0 1 1\n5000000000 5000000000 1\n"),
            Err(ParseGraphError::BadLine { line: 3 })
        );
        assert!(matches!(
            from_edge_list("n 5000000000\n"),
            Err(ParseGraphError::Invalid(GraphError::TooLarge {
                nodes: 5_000_000_000,
                ..
            }))
        ));
    }

    #[test]
    fn invalid_graph_surfaces_source() {
        let dup = "n 3\n0 1 2\n1 0 5\n";
        let err = from_edge_list(dup).unwrap_err();
        assert!(matches!(err, ParseGraphError::Invalid(_)));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn dot_marks_fast_edges_bold() {
        let g = Graph::from_edges(3, [(0, 1, 1), (1, 2, 9)]).unwrap();
        let dot = to_dot(&g, "g");
        assert!(dot.contains("0 -- 1 [label=\"1\", style=bold];"));
        assert!(dot.contains("1 -- 2 [label=\"9\"];"));
        assert!(dot.starts_with("graph g {"));
    }
}

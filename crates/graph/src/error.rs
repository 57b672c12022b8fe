//! Error types for graph construction and analysis.

use std::error::Error;
use std::fmt;

use crate::ids::NodeId;

/// Errors produced when building or analysing a [`Graph`](crate::Graph).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// An edge connected a node to itself.
    SelfLoop(NodeId),
    /// The same undirected edge was added twice.
    DuplicateEdge(NodeId, NodeId),
    /// An edge endpoint was `>= n`.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// The graph's node count.
        len: usize,
    },
    /// The graph has no nodes.
    Empty,
    /// The operation requires a connected graph.
    Disconnected,
    /// The operation is only feasible for small graphs (e.g. exact
    /// conductance by cut enumeration) and the graph is too large — or
    /// the graph itself would need more nodes than the 32-bit
    /// [`NodeId`] can name.
    TooLarge {
        /// The graph's node count.
        nodes: usize,
        /// The operation's limit.
        max: usize,
    },
    /// A generator that retries until its sample is connected found
    /// none: the edge probability is below the connectivity threshold
    /// `ln(n)/n` of `G(n, p)`.
    NoConnectedSample {
        /// The requested node count `n`.
        nodes: usize,
        /// How many samples were drawn.
        attempts: u32,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::SelfLoop(v) => write!(f, "self-loop at node {v}"),
            GraphError::DuplicateEdge(u, v) => write!(f, "duplicate edge between {u} and {v}"),
            GraphError::NodeOutOfRange { node, len } => {
                write!(f, "node {node} out of range for graph of {len} nodes")
            }
            GraphError::Empty => write!(f, "graph has no nodes"),
            GraphError::Disconnected => write!(f, "graph is not connected"),
            GraphError::TooLarge { nodes, max } => {
                write!(
                    f,
                    "graph of {nodes} nodes exceeds the limit of {max} for this operation"
                )
            }
            GraphError::NoConnectedSample { nodes, attempts } => {
                let n = *nodes as f64;
                write!(
                    f,
                    "no connected G({nodes}, p) sample in {attempts} attempts; \
                     p must exceed the connectivity threshold ln(n)/n = {:.4}",
                    n.ln() / n
                )
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_without_period() {
        let msgs = [
            GraphError::SelfLoop(NodeId::new(1)).to_string(),
            GraphError::DuplicateEdge(NodeId::new(0), NodeId::new(2)).to_string(),
            GraphError::NodeOutOfRange {
                node: NodeId::new(9),
                len: 4,
            }
            .to_string(),
            GraphError::Empty.to_string(),
            GraphError::Disconnected.to_string(),
            GraphError::TooLarge {
                nodes: 100,
                max: 24,
            }
            .to_string(),
            GraphError::NoConnectedSample {
                nodes: 50,
                attempts: 64,
            }
            .to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(!m.ends_with('.'), "no trailing period: {m}");
            assert!(m.chars().next().unwrap().is_lowercase() || m.starts_with("node"));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}

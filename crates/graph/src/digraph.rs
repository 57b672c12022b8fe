//! [`DiGraph`]: a directed graph with latencies, used for oriented
//! spanners.
//!
//! Theorem 14 of the paper produces an `O(log n)`-spanner together with an
//! *orientation* of its edges such that every node has out-degree
//! `O(log n)`; RR Broadcast (Algorithm 2) then activates only out-edges in
//! round-robin order. `DiGraph` is that artifact: each arc `u → v` means
//! "`u` is responsible for initiating exchanges over `(u, v)`".

use crate::graph::Graph;
use crate::ids::{Latency, NodeId};

/// A directed graph with integer arc latencies.
///
/// # Example
///
/// ```
/// use latency_graph::{DiGraph, Latency, NodeId};
///
/// let d = DiGraph::from_arcs(3, [(0, 1, 1), (0, 2, 4)]);
/// assert_eq!(d.out_degree(NodeId::new(0)), 2);
/// assert_eq!(d.max_out_degree(), 2);
/// let g = d.to_undirected();
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiGraph {
    offsets: Vec<usize>,
    adj: Vec<(NodeId, Latency)>,
    arc_count: usize,
}

impl DiGraph {
    /// Builds a directed graph on `n` nodes from `(from, to, latency)`
    /// triples. Duplicate arcs are collapsed (keeping the smallest
    /// latency).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`, if an arc is a self-loop, or if a
    /// latency is 0.
    pub fn from_arcs(n: usize, arcs: impl IntoIterator<Item = (usize, usize, u32)>) -> DiGraph {
        let mut list: Vec<(NodeId, NodeId, Latency)> = arcs
            .into_iter()
            .map(|(u, v, l)| {
                assert!(u < n && v < n, "arc endpoint out of range");
                assert_ne!(u, v, "self-loop arc");
                (NodeId::new(u), NodeId::new(v), Latency::new(l))
            })
            .collect();
        list.sort_unstable();
        list.dedup_by_key(|&mut (u, v, _)| (u, v));
        let mut offsets = vec![0usize; n + 1];
        for &(u, _, _) in &list {
            offsets[u.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let adj = list.iter().map(|&(_, v, l)| (v, l)).collect();
        DiGraph {
            offsets,
            adj,
            arc_count: list.len(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of arcs.
    #[inline]
    pub fn arc_count(&self) -> usize {
        self.arc_count
    }

    /// The out-neighbors of `v`, sorted by id, with arc latencies.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[(NodeId, Latency)] {
        let i = v.index();
        &self.adj[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        let i = v.index();
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Maximum out-degree `Δ_out` over all nodes.
    pub fn max_out_degree(&self) -> usize {
        (0..self.node_count())
            .map(|i| self.offsets[i + 1] - self.offsets[i])
            .max()
            .unwrap_or(0)
    }

    /// Iterates over all arcs as `(from, to, latency)`.
    pub fn arcs(&self) -> impl Iterator<Item = (NodeId, NodeId, Latency)> + '_ {
        (0..self.node_count()).flat_map(move |i| {
            self.out_neighbors(NodeId::new(i))
                .iter()
                .map(move |&(v, l)| (NodeId::new(i), v, l))
        })
    }

    /// Forgets the orientation, producing the underlying undirected graph.
    ///
    /// If both `u → v` and `v → u` exist they collapse into one undirected
    /// edge (keeping the smaller latency, though orientations produced by
    /// the spanner construction never disagree on latency).
    pub fn to_undirected(&self) -> Graph {
        let mut edges: Vec<(NodeId, NodeId, Latency)> = self
            .arcs()
            .map(|(u, v, l)| if u < v { (u, v, l) } else { (v, u, l) })
            .collect();
        edges.sort_unstable();
        edges.dedup_by_key(|&mut (u, v, _)| (u, v));
        Graph::assemble(self.node_count(), &edges.into_iter().collect())
            .expect("antiparallel arcs were just deduplicated")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arcs_and_degrees() {
        let d = DiGraph::from_arcs(4, [(0, 1, 1), (0, 2, 2), (3, 0, 5)]);
        assert_eq!(d.node_count(), 4);
        assert_eq!(d.arc_count(), 3);
        assert_eq!(d.out_degree(NodeId::new(0)), 2);
        assert_eq!(d.out_degree(NodeId::new(1)), 0);
        assert_eq!(d.out_degree(NodeId::new(3)), 1);
        assert_eq!(d.max_out_degree(), 2);
    }

    #[test]
    fn duplicate_arcs_collapse() {
        let d = DiGraph::from_arcs(2, [(0, 1, 3), (0, 1, 7)]);
        assert_eq!(d.arc_count(), 1);
        assert_eq!(
            d.out_neighbors(NodeId::new(0)),
            &[(NodeId::new(1), Latency::new(3))]
        );
    }

    #[test]
    fn to_undirected_merges_antiparallel() {
        let d = DiGraph::from_arcs(3, [(0, 1, 2), (1, 0, 2), (1, 2, 1)]);
        let g = d.to_undirected();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(
            g.latency(NodeId::new(0), NodeId::new(1)),
            Some(Latency::new(2))
        );
    }

    #[test]
    fn arcs_iterator_is_complete() {
        let d = DiGraph::from_arcs(3, [(2, 0, 1), (0, 1, 1)]);
        let all: Vec<_> = d.arcs().collect();
        assert_eq!(all.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_endpoint_panics() {
        let _ = DiGraph::from_arcs(2, [(0, 4, 1)]);
    }
}

//! The [`Graph`] type: an undirected graph with integer edge latencies.

use std::cmp::Ordering;

use crate::error::GraphError;
use crate::ids::{Latency, NodeId};

/// Node ids are 32-bit: the most nodes a [`Graph`] can have.
const MAX_NODES: usize = u32::MAX as usize;

/// An undirected graph whose edges carry integer latencies.
///
/// `Graph` is immutable once built (use [`GraphBuilder`]) and stored in
/// structure-of-arrays compressed sparse row form: neighbor ids and
/// edge latencies live in separate parallel arrays
/// ([`neighbor_ids`](Graph::neighbor_ids) /
/// [`neighbor_latencies`](Graph::neighbor_latencies)), so id-only scans
/// (binary searches, BFS) touch half the memory, and the simulation
/// engine can borrow both slices directly instead of copying the
/// adjacency. `latency(u, v)` is an interpolation-guided search of
/// `u`'s row ([`neighbor_index`](Graph::neighbor_index)). Node ids are
/// dense `0..n`.
///
/// The CSR arrays are the only representation: 4 bytes per directed
/// edge (the neighbor id in each endpoint's row), 4 bytes more per
/// directed edge only when the latencies differ, plus 8 bytes per node
/// of row offsets. When every edge has the same latency `ℓ` — classical
/// gossip, `ℓ ≡ 1`, is that case — the latencies are one shared row of
/// `Δ` copies of `ℓ`, and [`neighbor_latencies`](Graph::neighbor_latencies)
/// returns a prefix of it: still a slice parallel to
/// [`neighbor_ids`](Graph::neighbor_ids). The representation follows
/// from the edge set alone, so equal graphs compare `==` however they
/// were built. There is no separate edge list —
/// [`edges`](Graph::edges) walks the rows — and everything a run asks
/// of the whole graph ([`node_count`](Graph::node_count),
/// [`edge_count`](Graph::edge_count),
/// [`max_degree`](Graph::max_degree),
/// [`max_latency`](Graph::max_latency)) is fixed at build time and
/// answered in O(1).
///
/// This is the network model of *Gossiping with Latencies*, Section 1: a
/// connected, undirected graph `G = (V, E)` where every edge has an
/// integer latency `≥ 1`. (Connectivity is not enforced by the builder —
/// lower-bound constructions are assembled piecewise — but can be checked
/// with [`Graph::is_connected`].)
///
/// # Example
///
/// ```
/// use latency_graph::{Graph, GraphBuilder, Latency, NodeId};
///
/// # fn main() -> Result<(), latency_graph::GraphError> {
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1, 1)?;
/// b.add_edge(1, 2, 5)?;
/// let g = b.build()?;
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.latency(NodeId::new(1), NodeId::new(2)), Some(Latency::new(5)));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    adj_ids: Vec<NodeId>,
    /// Parallel to `adj_ids` when the latencies differ; otherwise one
    /// shared row of `max_degree` copies of the only latency. A shared
    /// row is shorter than `adj_ids` (`Δ ≤ m < 2m`) unless the graph is
    /// edgeless, where both are empty and either reading is right.
    adj_lats: Vec<Latency>,
    max_degree: usize,
    max_latency: Option<Latency>,
}

impl Graph {
    /// Builds a graph directly from an edge list over `n` nodes.
    ///
    /// Convenience wrapper around [`GraphBuilder`].
    ///
    /// # Errors
    ///
    /// Returns the first validation error: self-loop, duplicate edge,
    /// out-of-range endpoint, or more nodes than ids (see [`GraphError`]).
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (usize, usize, u32)>,
    ) -> Result<Graph, GraphError> {
        let mut b = GraphBuilder::new(n);
        for (u, v, l) in edges {
            b.add_edge(u, v, l)?;
        }
        b.build()
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.adj_ids.len() / 2
    }

    /// Iterates over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Iterates over all undirected edges as `(u, v, latency)` with
    /// `u < v`, in ascending `(u, v)` order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Latency)> + '_ {
        self.nodes().flat_map(move |u| {
            // Rows are sorted and hold no self-loop: the neighbors above
            // `u` are a suffix of its row.
            let ids = self.neighbor_ids(u);
            let above = ids.partition_point(|&w| w < u);
            ids[above..]
                .iter()
                .zip(&self.neighbor_latencies(u)[above..])
                .map(move |(&v, &l)| (u, v, l))
        })
    }

    /// Internal: the adjacency range of `v` in the CSR arrays.
    #[inline]
    fn adj_range(&self, v: NodeId) -> std::ops::Range<usize> {
        let i = v.index();
        self.offsets[i]..self.offsets[i + 1]
    }

    /// The neighbors of `v` with the latency of the connecting edge,
    /// sorted by neighbor id.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(
        &self,
        v: NodeId,
    ) -> impl ExactSizeIterator<Item = (NodeId, Latency)> + Clone + '_ {
        self.neighbor_ids(v)
            .iter()
            .zip(self.neighbor_latencies(v))
            .map(|(&w, &l)| (w, l))
    }

    /// The ids of `v`'s neighbors, sorted. Indexable in parallel with
    /// [`neighbor_latencies`](Graph::neighbor_latencies).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbor_ids(&self, v: NodeId) -> &[NodeId] {
        &self.adj_ids[self.adj_range(v)]
    }

    /// The latencies of `v`'s incident edges, in the same order as
    /// [`neighbor_ids`](Graph::neighbor_ids): position `i` (e.g. from
    /// [`neighbor_index`](Graph::neighbor_index)) is the latency of the
    /// edge to `neighbor_ids(v)[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbor_latencies(&self, v: NodeId) -> &[Latency] {
        if self.shared_latency_row() {
            &self.adj_lats[..self.degree(v)]
        } else {
            &self.adj_lats[self.adj_range(v)]
        }
    }

    /// Internal: whether `adj_lats` is the one shared row of a graph
    /// whose edges all have the same latency.
    #[inline]
    fn shared_latency_row(&self) -> bool {
        self.adj_lats.len() != self.adj_ids.len()
    }

    /// The degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let i = v.index();
        self.offsets[i + 1] - self.offsets[i]
    }

    /// The maximum degree `Δ` over all nodes (0 for an edgeless graph).
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// The latency of edge `(u, v)`, or `None` if the edge is absent.
    pub fn latency(&self, u: NodeId, v: NodeId) -> Option<Latency> {
        self.neighbor_index(u, v)
            .map(|i| self.neighbor_latencies(u)[i])
    }

    /// The position of `v` within `u`'s sorted adjacency slice, usable
    /// to index [`Graph::neighbor_ids`]`(u)` and
    /// [`Graph::neighbor_latencies`]`(u)` directly. `None` if `(u, v)`
    /// is not an edge.
    ///
    /// The search guesses first: it interpolates `v`'s position from the
    /// row's first and last ids, gallops outward from the guess, and
    /// binary-searches the bracket it lands in. That is one probe (one
    /// cache line) when the row's ids are spread evenly — a clique, a
    /// ring of cliques — and O(log degree) probes on any sorted row, with
    /// the same answer as `binary_search`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbor_index(&self, u: NodeId, v: NodeId) -> Option<usize> {
        interpolation_search(self.neighbor_ids(u), v)
    }

    /// Whether the undirected edge `(u, v)` exists.
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbor_index(u, v).is_some()
    }

    /// The largest edge latency `ℓ_max`, or `None` for an edgeless graph.
    pub fn max_latency(&self) -> Option<Latency> {
        self.max_latency
    }

    /// A canonical 64-bit digest of the topology: node count plus the
    /// sorted `(u, v, ℓ)` edge list, FNV-folded. Two graphs hash equal
    /// iff they have the same nodes and the same latency-weighted edge
    /// set, regardless of construction order. The `gossip-net`
    /// connect/accept handshake exchanges this digest so two processes
    /// refuse to pair up when their topology files disagree.
    pub fn topology_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64
            ^ u64::try_from(self.node_count()).expect("node count fits u64");
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x100_0000_01b3);
            h ^= h >> 29;
        };
        for (u, v, l) in self.edges() {
            mix(u64::from(u32::from(u)));
            mix(u64::from(u32::from(v)));
            mix(l.rounds());
        }
        h
    }

    /// The sorted, deduplicated set of latencies occurring in the graph.
    ///
    /// These are the only values of `ℓ` at which the weight-`ℓ`
    /// conductance profile `Φ(G)` can change.
    pub fn distinct_latencies(&self) -> Vec<Latency> {
        if self.shared_latency_row() {
            return self.max_latency.into_iter().collect();
        }
        let mut ls: Vec<Latency> = self.edges().map(|(_, _, l)| l).collect();
        ls.sort_unstable();
        ls.dedup();
        ls
    }

    /// Whether the graph is connected (a graph with a single node is
    /// connected; an empty graph is not).
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n == 0 {
            return false;
        }
        // One walk from node 0, counting the nodes it reaches.
        let mut seen = vec![false; n];
        seen[0] = true;
        let (mut stack, mut reached) = (vec![0], 1);
        while let Some(u) = stack.pop() {
            for &w in self.neighbor_ids(NodeId::new(u)) {
                if !std::mem::replace(&mut seen[w.index()], true) {
                    reached += 1;
                    stack.push(w.index());
                }
            }
        }
        reached == n
    }

    /// The connected components, each a sorted list of node ids; the
    /// components are ordered by their smallest member.
    pub fn connected_components(&self) -> Vec<Vec<NodeId>> {
        let n = self.node_count();
        let mut seen = vec![false; n];
        let mut components = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut stack = vec![start];
            seen[start] = true;
            let mut members = vec![NodeId::new(start)];
            while let Some(u) = stack.pop() {
                for &w in self.neighbor_ids(NodeId::new(u)) {
                    if !seen[w.index()] {
                        seen[w.index()] = true;
                        members.push(w);
                        stack.push(w.index());
                    }
                }
            }
            members.sort_unstable();
            components.push(members);
        }
        components
    }

    /// The induced subgraph on `members` (an indicator of length `n`),
    /// *preserving node ids* — excluded nodes remain as isolated
    /// vertices, so distances and protocols keep their indexing.
    ///
    /// # Panics
    ///
    /// Panics if `members.len() != n`.
    pub fn induced_subgraph(&self, members: &[bool]) -> Graph {
        assert_eq!(
            members.len(),
            self.node_count(),
            "indicator length must equal node count"
        );
        self.edge_subgraph(|&(u, v, _)| members[u.index()] && members[v.index()])
    }

    /// Returns the subgraph `G_≤ℓ` keeping every node but only edges with
    /// latency `≤ ℓ`.
    ///
    /// This is the edge set `E_ℓ` used throughout the paper (Definition 1,
    /// the `ℓ`-DTG protocol, the spanner algorithm's `G_k`).
    pub fn latency_filtered(&self, max_latency: Latency) -> Graph {
        self.edge_subgraph(|&(_, _, l)| l <= max_latency)
    }

    /// Returns a graph with identical topology whose latencies are
    /// `f(u, v, old_latency)`.
    ///
    /// Useful for re-weighting a generated topology, e.g. assigning
    /// bimodal fast/slow latencies to a grid.
    pub fn map_latencies(&self, mut f: impl FnMut(NodeId, NodeId, Latency) -> Latency) -> Graph {
        let edges: EdgeList = self.edges().map(|(u, v, l)| (u, v, f(u, v, l))).collect();
        Graph::assemble(self.node_count(), &edges)
            .expect("the edge set of a simple graph, relabeled")
    }

    /// The volume `Vol(U)`: the number of edge endpoints in `U`, i.e. the
    /// sum of degrees of nodes in `U` (paper, Section 2).
    ///
    /// `members` is an indicator slice of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `members.len() != n`.
    pub fn volume(&self, members: &[bool]) -> u64 {
        assert_eq!(
            members.len(),
            self.node_count(),
            "indicator length must equal node count"
        );
        members
            .iter()
            .enumerate()
            .filter(|&(_, &inside)| inside)
            .map(|(i, _)| self.degree(NodeId::new(i)) as u64)
            .sum()
    }

    /// Internal: the subgraph on every node keeping the edges `keep` accepts.
    fn edge_subgraph(&self, keep: impl FnMut(&(NodeId, NodeId, Latency)) -> bool) -> Graph {
        let edges: EdgeList = self.edges().filter(keep).collect();
        Graph::assemble(self.node_count(), &edges).expect("a subset of a simple graph's edges")
    }

    /// Internal: the graph on `n` nodes with the edges of `edges`
    /// (endpoints `< n`, no self-loops, either orientation, any order).
    /// A list with one latency ends in the shared latency row.
    ///
    /// # Errors
    ///
    /// [`GraphError::DuplicateEdge`] with the smallest duplicated
    /// `(u, v)`, `u < v`.
    pub(crate) fn assemble(n: usize, edges: &EdgeList) -> Result<Graph, GraphError> {
        Ok(if edges.per_edge.is_empty() {
            // `latency` is `None` only for an edgeless list, where the
            // shared latency is never read.
            Rows::of(n, &edges.ends)?.into_graph(edges.latency.unwrap_or(Latency::UNIT))
        } else {
            Rows::of(n, &edges.per_edge)?.into_graph(Latency::UNIT)
        })
    }

    /// Internal: the graph whose row `v` is `ids[offsets[v]..offsets[v + 1]]`.
    /// The caller vouches for the rows: `offsets` starts at 0 and ends at
    /// `ids.len()`, each row is strictly increasing and holds no self-loop,
    /// and `u` is in `v`'s row iff `v` is in `u`'s, with the same latency.
    /// Per-entry latencies are for rows whose latencies differ: one
    /// latency is passed as [`RowLatencies::Shared`], so the layout
    /// follows from the edge set alone.
    ///
    /// This is the one place that fixes `max_degree`, `max_latency` and
    /// the shared latency row.
    pub(crate) fn from_rows(offsets: Vec<usize>, ids: Vec<NodeId>, lats: RowLatencies) -> Graph {
        debug_assert_eq!(offsets.first(), Some(&0));
        debug_assert_eq!(offsets.last(), Some(&ids.len()));
        let max_degree = offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        let (adj_lats, max_latency) = match lats {
            RowLatencies::Shared(_) if ids.is_empty() => (Vec::new(), None),
            RowLatencies::Shared(l) => (vec![l; max_degree], Some(l)),
            RowLatencies::PerEntry(lats) => {
                let max = lats.iter().copied().max();
                debug_assert_eq!(lats.len(), ids.len());
                debug_assert!(
                    lats.iter().any(|&l| Some(l) != max),
                    "one latency: share it"
                );
                (lats, max)
            }
        };
        Graph {
            offsets,
            adj_ids: ids,
            adj_lats,
            max_degree,
            max_latency,
        }
    }
}

/// Internal: the latencies [`Graph::from_rows`] is given with the rows.
pub(crate) enum RowLatencies {
    /// One latency per entry of the neighbor ids, parallel to them; at
    /// least two differ.
    PerEntry(Vec<Latency>),
    /// The latency every edge has (ignored when there is no edge).
    Shared(Latency),
}

/// Internal: `row.binary_search(&v).ok()` on a strictly increasing row,
/// guessing first (see [`Graph::neighbor_index`]). The guess
/// interpolates between the row's end ids; a miss gallops toward `v` in
/// doubling steps until it has a bracket, which a binary search
/// finishes — O(log d) probes, whatever the spacing of the ids.
fn interpolation_search(row: &[NodeId], v: NodeId) -> Option<usize> {
    let (&first, &last) = (row.first()?, row.last()?);
    if v < first || v > last {
        return None;
    }
    // Distinct sorted ids: `v - first ≤ last - first`, so the guess
    // lands in the row; both factors are below 2³², the product too.
    let (first, last, at) = (u32::from(first), u32::from(last), u32::from(v));
    let guess = match last - first {
        0 => 0,
        span => {
            let width = u64::try_from(row.len() - 1).expect("degree fits u64");
            let nth = u64::from(at - first) * width / u64::from(span);
            usize::try_from(nth).expect("a row position fits usize")
        }
    };
    let (lo, hi) = match row[guess].cmp(&v) {
        Ordering::Equal => return Some(guess),
        // Everything before `lo` is below `v`.
        Ordering::Less => {
            let (mut lo, mut step) = (guess + 1, 1);
            loop {
                let probe = guess + step;
                if probe >= row.len() {
                    break (lo, row.len());
                }
                if row[probe] >= v {
                    break (lo, probe + 1);
                }
                (lo, step) = (probe + 1, 2 * step);
            }
        }
        // Everything from `hi` on is above `v`.
        Ordering::Greater => {
            let (mut hi, mut step) = (guess, 1);
            loop {
                if step > guess {
                    break (0, hi);
                }
                let probe = guess - step;
                if row[probe] <= v {
                    break (probe, hi);
                }
                (hi, step) = (probe, 2 * step);
            }
        }
    };
    row[lo..hi].binary_search(&v).ok().map(|i| lo + i)
}

/// Internal: an edge as [`Rows::of`] reads it — endpoints, and a
/// latency when the list stores one per edge.
trait ListedEdge: Copy {
    const PER_EDGE: bool;
    fn ends(self) -> (NodeId, NodeId);
    fn latency(self) -> Latency;
}

impl ListedEdge for (NodeId, NodeId) {
    const PER_EDGE: bool = false;
    fn ends(self) -> (NodeId, NodeId) {
        self
    }
    fn latency(self) -> Latency {
        unreachable!("an endpoint pair carries no latency")
    }
}

impl ListedEdge for (NodeId, NodeId, Latency) {
    const PER_EDGE: bool = true;
    fn ends(self) -> (NodeId, NodeId) {
        (self.0, self.1)
    }
    fn latency(self) -> Latency {
        self.2
    }
}

/// Internal: CSR arrays whose rows may still be out of order; `lats` is
/// empty unless the edges carry a latency each. Row `v` is
/// `ids[offsets[v]..offsets[v + 1]]`, and `u` is in `v`'s row iff `v`
/// is in `u`'s, with the same latency.
pub(crate) struct Rows {
    pub(crate) offsets: Vec<usize>,
    pub(crate) ids: Vec<NodeId>,
    pub(crate) lats: Vec<Latency>,
}

impl Rows {
    /// Counting-sorts `edges` straight into the CSR arrays, then
    /// [`sort`](Rows::sort)s them.
    fn of<E: ListedEdge>(n: usize, edges: &[E]) -> Result<Rows, GraphError> {
        let mut offsets = vec![0usize; n + 1];
        for &e in edges {
            let (u, v) = e.ends();
            offsets[u.index() + 1] += 1;
            offsets[v.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut ids = vec![NodeId::default(); 2 * edges.len()];
        let mut lats = vec![Latency::UNIT; if E::PER_EDGE { ids.len() } else { 0 }];
        for &e in edges {
            let (u, v) = e.ends();
            for (from, to) in [(u, v), (v, u)] {
                let slot = &mut cursor[from.index()];
                ids[*slot] = to;
                if E::PER_EDGE {
                    lats[*slot] = e.latency();
                }
                *slot += 1;
            }
        }
        let mut rows = Rows { offsets, ids, lats };
        rows.sort()?;
        Ok(rows)
    }

    /// Sorts each row the scatter left out of order — edges scattered
    /// in ascending `(u, v)` order sort nothing — carrying per-entry
    /// latencies along. A duplicate edge shows up as two equal
    /// neighbors in a sorted row.
    ///
    /// # Errors
    ///
    /// [`GraphError::DuplicateEdge`] with the smallest duplicated
    /// `(u, v)`, `u < v`.
    pub(crate) fn sort(&mut self) -> Result<(), GraphError> {
        let per_entry = !self.lats.is_empty();
        let mut row: Vec<(NodeId, Latency)> = Vec::new();
        for (i, bounds) in self.offsets.windows(2).enumerate() {
            let range = bounds[0]..bounds[1];
            let ids = &mut self.ids[range.clone()];
            if ids.windows(2).all(|w| w[0] < w[1]) {
                continue;
            }
            if per_entry {
                let lats = &mut self.lats[range];
                row.clear();
                row.extend(ids.iter().copied().zip(lats.iter().copied()));
                row.sort_unstable_by_key(|&(w, _)| w);
                for (k, &(w, l)) in row.iter().enumerate() {
                    ids[k] = w;
                    lats[k] = l;
                }
            } else {
                ids.sort_unstable();
            }
            // Rows are visited in ascending order, so the first repeated
            // neighbor `w` of the first row `i` holding one has `i < w`
            // and `(i, w)` is the smallest duplicated pair.
            if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
                return Err(GraphError::DuplicateEdge(NodeId::new(i), w[0]));
            }
        }
        Ok(())
    }

    /// The graph of these sorted rows: with their per-entry latencies,
    /// or `shared` on every edge when `lats` is empty.
    pub(crate) fn into_graph(self, shared: Latency) -> Graph {
        let lats = if self.lats.is_empty() {
            RowLatencies::Shared(shared)
        } else {
            RowLatencies::PerEntry(self.lats)
        };
        Graph::from_rows(self.offsets, self.ids, lats)
    }
}

/// Internal: an undirected edge list that stores a latency per edge
/// only once two edges differ — 8 bytes per edge while every latency
/// is the same, 12 after. What [`Graph::assemble`] reads.
#[derive(Clone, Debug, Default)]
pub(crate) struct EdgeList {
    /// The edges while every one has latency `latency`.
    ends: Vec<(NodeId, NodeId)>,
    /// The one latency of `ends` (`None` while there is no edge).
    latency: Option<Latency>,
    /// Every edge, once two latencies differ; `ends` is empty then.
    per_edge: Vec<(NodeId, NodeId, Latency)>,
}

impl EdgeList {
    fn len(&self) -> usize {
        self.ends.len() + self.per_edge.len()
    }

    #[inline]
    fn push(&mut self, u: NodeId, v: NodeId, l: Latency) {
        if !self.per_edge.is_empty() {
            self.per_edge.push((u, v, l));
        } else if self.latency == Some(l) {
            self.ends.push((u, v));
        } else {
            self.first_differs(u, v, l);
        }
    }

    /// Internal: `l` is the first latency, or the second distinct one —
    /// from here on every edge stores its own.
    #[cold]
    fn first_differs(&mut self, u: NodeId, v: NodeId, l: Latency) {
        match self.latency {
            None => {
                self.latency = Some(l);
                self.ends.push((u, v));
            }
            Some(first) => {
                let ends = std::mem::take(&mut self.ends);
                self.per_edge.reserve_exact(ends.capacity());
                self.per_edge
                    .extend(ends.iter().map(|&(a, b)| (a, b, first)));
                self.per_edge.push((u, v, l));
            }
        }
    }
}

impl FromIterator<(NodeId, NodeId, Latency)> for EdgeList {
    fn from_iter<I: IntoIterator<Item = (NodeId, NodeId, Latency)>>(iter: I) -> EdgeList {
        let mut edges = EdgeList::default();
        iter.into_iter().for_each(|(u, v, l)| edges.push(u, v, l));
        edges
    }
}

/// Incremental, validating constructor for [`Graph`]. It holds 8 bytes
/// per edge while every latency added is the same, and 12 once a second
/// distinct one arrives.
///
/// # Example
///
/// ```
/// use latency_graph::GraphBuilder;
///
/// # fn main() -> Result<(), latency_graph::GraphError> {
/// let mut b = GraphBuilder::new(4);
/// for i in 0..3 {
///     b.add_edge(i, i + 1, 2)?;
/// }
/// let path = b.build()?;
/// assert!(path.is_connected());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: EdgeList,
}

impl GraphBuilder {
    /// Starts a builder for a graph on `n` nodes (ids `0..n`).
    pub fn new(n: usize) -> GraphBuilder {
        GraphBuilder {
            n,
            edges: EdgeList::default(),
        }
    }

    /// Number of nodes the builder was created with.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds the undirected edge `(u, v)` with the given latency.
    ///
    /// # Errors
    ///
    /// * [`GraphError::TooLarge`] if an endpoint does not fit a
    ///   [`NodeId`] (`> u32::MAX`): no graph has that many nodes.
    /// * [`GraphError::SelfLoop`] if `u == v`.
    /// * [`GraphError::NodeOutOfRange`] if an endpoint is `>= n`.
    ///
    /// Duplicate edges are detected at [`build`](Self::build) time.
    ///
    /// # Panics
    ///
    /// Panics if `latency == 0` (latencies are `≥ 1`).
    pub fn add_edge(&mut self, u: usize, v: usize, latency: u32) -> Result<(), GraphError> {
        let id = |w: usize| {
            u32::try_from(w)
                .map(NodeId::from)
                .map_err(|_| GraphError::TooLarge {
                    nodes: w.saturating_add(1),
                    max: MAX_NODES,
                })
        };
        let (u, v) = (id(u)?, id(v)?);
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        for w in [u, v] {
            if w.index() >= self.n {
                return Err(GraphError::NodeOutOfRange {
                    node: w,
                    len: self.n,
                });
            }
        }
        self.edges.push(u, v, Latency::new(latency));
        Ok(())
    }

    /// Adds the undirected edge `(u, v)` with unit latency.
    ///
    /// # Errors
    ///
    /// Same as [`add_edge`](Self::add_edge).
    pub fn add_unit_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        self.add_edge(u, v, 1)
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    ///
    /// * [`GraphError::Empty`] if `n == 0`.
    /// * [`GraphError::TooLarge`] if `n > u32::MAX` (node ids are 32-bit).
    /// * [`GraphError::DuplicateEdge`] if the same undirected edge was
    ///   added more than once (regardless of latency); of several, the
    ///   smallest `(u, v)` is reported.
    pub fn build(self) -> Result<Graph, GraphError> {
        if self.n == 0 {
            return Err(GraphError::Empty);
        }
        if self.n > MAX_NODES {
            return Err(GraphError::TooLarge {
                nodes: self.n,
                max: MAX_NODES,
            });
        }
        Graph::assemble(self.n, &self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.max_latency(), Some(Latency::new(3)));
    }

    #[test]
    fn topology_hash_is_construction_order_invariant() {
        let a = triangle();
        let b = Graph::from_edges(3, [(2, 0, 3), (1, 0, 1), (2, 1, 2)]).unwrap();
        assert_eq!(a.topology_hash(), b.topology_hash());
        // Different latency on one edge, different node count, and a
        // different edge set must all produce different digests.
        let c = Graph::from_edges(3, [(0, 1, 1), (1, 2, 2), (0, 2, 4)]).unwrap();
        assert_ne!(a.topology_hash(), c.topology_hash());
        let d = Graph::from_edges(4, [(0, 1, 1), (1, 2, 2), (0, 2, 3)]).unwrap();
        assert_ne!(a.topology_hash(), d.topology_hash());
        let e = Graph::from_edges(3, [(0, 1, 1), (1, 2, 2)]).unwrap();
        assert_ne!(a.topology_hash(), e.topology_hash());
    }

    /// Digests captured before the edge list left `Graph`: a peer running
    /// that build must still pass the reactor handshake.
    #[test]
    fn topology_hash_is_pinned() {
        use crate::generators;
        assert_eq!(generators::clique(8).topology_hash(), 0xf877_1e3d_9660_3156);
        assert_eq!(
            generators::ring_of_cliques(4, 4, 3).topology_hash(),
            0x1771_64f5_6f00_c04a
        );
    }

    #[test]
    fn neighbors_sorted_with_latencies() {
        let g = triangle();
        let ns: Vec<_> = g.neighbors(NodeId::new(0)).collect();
        assert_eq!(
            ns,
            vec![
                (NodeId::new(1), Latency::new(1)),
                (NodeId::new(2), Latency::new(3))
            ]
        );
        assert_eq!(
            g.neighbor_ids(NodeId::new(0)),
            &[NodeId::new(1), NodeId::new(2)]
        );
        assert_eq!(
            g.neighbor_latencies(NodeId::new(0)),
            &[Latency::new(1), Latency::new(3)]
        );
    }

    #[test]
    fn neighbor_index_matches_adjacency() {
        let g = triangle();
        for u in 0..3 {
            let u = NodeId::new(u);
            for v in 0..3 {
                let v = NodeId::new(v);
                match g.neighbor_index(u, v) {
                    Some(i) => {
                        let (w, l) = (g.neighbor_ids(u)[i], g.neighbor_latencies(u)[i]);
                        assert_eq!(w, v);
                        assert_eq!(g.latency(u, v), Some(l));
                    }
                    None => assert!(u == v || !g.contains_edge(u, v)),
                }
            }
        }
    }

    #[test]
    fn latency_lookup_both_directions() {
        let g = triangle();
        let (a, b) = (NodeId::new(1), NodeId::new(2));
        assert_eq!(g.latency(a, b), Some(Latency::new(2)));
        assert_eq!(g.latency(b, a), Some(Latency::new(2)));
        assert_eq!(g.latency(a, a), None);
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(
            b.add_edge(1, 1, 1),
            Err(GraphError::SelfLoop(NodeId::new(1)))
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.add_edge(0, 5, 1),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn duplicate_rejected_even_with_different_latency() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1).unwrap();
        b.add_edge(1, 0, 9).unwrap();
        assert!(matches!(b.build(), Err(GraphError::DuplicateEdge(_, _))));
    }

    #[test]
    fn smallest_duplicated_pair_is_reported() {
        // (3,4) is duplicated first in insertion order; (1,2) is smaller.
        assert_eq!(
            Graph::from_edges(5, [(3, 4, 1), (2, 1, 1), (1, 2, 7), (4, 3, 2)]),
            Err(GraphError::DuplicateEdge(NodeId::new(1), NodeId::new(2)))
        );
    }

    #[test]
    fn ids_beyond_u32_are_errors_not_panics() {
        let big = 5_000_000_000usize;
        let too_large = GraphError::TooLarge {
            nodes: big + 1,
            max: MAX_NODES,
        };
        let mut b = GraphBuilder::new(4);
        assert_eq!(b.add_edge(big, 1, 1), Err(too_large.clone()));
        assert_eq!(b.add_edge(1, big, 1), Err(too_large.clone()));
        assert_eq!(b.add_edge(big, big, 1), Err(too_large));
        assert_eq!(b.edge_count(), 0);
        assert_eq!(
            GraphBuilder::new(big).build(),
            Err(GraphError::TooLarge {
                nodes: big,
                max: MAX_NODES
            })
        );
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(GraphBuilder::new(0).build().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn connectivity() {
        let g = triangle();
        assert!(g.is_connected());
        let h = Graph::from_edges(4, [(0, 1, 1), (2, 3, 1)]).unwrap();
        assert!(!h.is_connected());
        let single = Graph::from_edges(1, []).unwrap();
        assert!(single.is_connected());
    }

    #[test]
    fn is_connected_agrees_with_components() {
        let connected = Graph::from_edges(5, [(0, 1, 1), (1, 2, 4), (3, 2, 1), (4, 0, 2)]).unwrap();
        let disconnected = Graph::from_edges(5, [(0, 1, 1), (2, 3, 1), (3, 4, 2)]).unwrap();
        let single = Graph::from_edges(1, []).unwrap();
        for (g, expected) in [(connected, true), (disconnected, false), (single, true)] {
            assert_eq!(g.is_connected(), expected);
            assert_eq!(g.is_connected(), g.connected_components().len() == 1);
        }
    }

    #[test]
    fn components_enumerated_sorted() {
        let g = Graph::from_edges(6, [(0, 1, 1), (1, 2, 1), (4, 3, 1)]).unwrap();
        let comps = g.connected_components();
        assert_eq!(comps.len(), 3);
        assert_eq!(
            comps[0],
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]
        );
        assert_eq!(comps[1], vec![NodeId::new(3), NodeId::new(4)]);
        assert_eq!(comps[2], vec![NodeId::new(5)]);
    }

    #[test]
    fn induced_subgraph_preserves_ids() {
        let g = triangle();
        let sub = g.induced_subgraph(&[true, true, false]);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 1);
        assert!(sub.contains_edge(NodeId::new(0), NodeId::new(1)));
        assert_eq!(sub.degree(NodeId::new(2)), 0);
    }

    #[test]
    #[should_panic(expected = "indicator length")]
    fn induced_subgraph_validates_length() {
        let _ = triangle().induced_subgraph(&[true, false]);
    }

    #[test]
    fn latency_filtered_keeps_nodes_drops_slow_edges() {
        let g = triangle();
        let f = g.latency_filtered(Latency::new(2));
        assert_eq!(f.node_count(), 3);
        assert_eq!(f.edge_count(), 2);
        assert!(!f.contains_edge(NodeId::new(0), NodeId::new(2)));
    }

    #[test]
    fn map_latencies_rewrites() {
        let g = triangle().map_latencies(|_, _, l| Latency::new(l.get() * 10));
        assert_eq!(
            g.latency(NodeId::new(0), NodeId::new(1)),
            Some(Latency::new(10))
        );
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn distinct_latencies_sorted_dedup() {
        let g = Graph::from_edges(4, [(0, 1, 5), (1, 2, 1), (2, 3, 5), (0, 3, 2)]).unwrap();
        let ls: Vec<u32> = g.distinct_latencies().iter().map(|l| l.get()).collect();
        assert_eq!(ls, vec![1, 2, 5]);
    }

    #[test]
    fn volume_is_degree_sum() {
        let g = triangle();
        assert_eq!(g.volume(&[true, true, true]), 6);
        assert_eq!(g.volume(&[true, false, false]), 2);
        assert_eq!(g.volume(&[false, false, false]), 0);
    }

    #[test]
    fn edges_iterate_canonical() {
        let g = Graph::from_edges(4, [(3, 0, 4), (2, 1, 2), (0, 2, 3), (1, 0, 1)]).unwrap();
        let es: Vec<_> = g
            .edges()
            .map(|(u, v, l)| (u.index(), v.index(), l.get()))
            .collect();
        assert_eq!(es, vec![(0, 1, 1), (0, 2, 3), (0, 3, 4), (1, 2, 2)]);
        assert_eq!(g.max_latency(), Some(Latency::new(4)));
        assert_eq!(Graph::from_edges(2, []).unwrap().max_latency(), None);
    }
}

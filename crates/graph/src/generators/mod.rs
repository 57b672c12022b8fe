//! Graph generators: standard families, latency assigners, and the
//! paper's lower-bound constructions.
//!
//! Standard topologies ([`clique`], [`star`], [`path`], [`cycle`],
//! [`grid`], [`hypercube`], [`complete_bipartite`], [`barbell`],
//! [`erdos_renyi`], [`random_geometric`], [`balanced_binary_tree`]) are
//! produced with unit latencies; re-weight them with
//! [`uniform_random_latencies`] or [`bimodal_latencies`] (or
//! [`Graph::map_latencies`]).
//!
//! The paper-specific constructions live in submodules:
//! [`gadget`] (Fig. 1's guessing-game gadgets and the Theorem 6/7
//! networks) and [`layered_ring`] (Fig. 2 / Theorem 8).

pub mod extra;
pub mod gadget;
pub mod layered_ring;

pub use extra::{
    chung_lu, geometric_latencies, hub_penalty_latencies, random_regular, ring_of_cliques, torus,
};
pub use gadget::{theorem6_network, theorem7_network, Gadget, GadgetSpec};
pub use layered_ring::{LayeredRing, LayeredRingSpec};

use std::iter;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::GraphError;
use crate::graph::{Graph, GraphBuilder, RowLatencies, Rows};
use crate::ids::{Latency, NodeId};

/// The complete graph `K_n` with unit latencies.
///
/// The rows are written in place rather than through [`GraphBuilder`]:
/// row `v` is `0..v` followed by `v + 1..n`, already strictly
/// increasing, so `K_n` needs no edge list, no counting sort and no
/// duplicate check. The result is the graph the builder makes from
/// every `add_unit_edge(u, v)`, `u < v`.
///
/// # Panics
///
/// Panics if `n == 0` or `n > u32::MAX` (node ids are 32-bit).
pub fn clique(n: usize) -> Graph {
    assert!(n > 0, "clique needs at least one node");
    let top = u32::try_from(n).expect("clique node count exceeds u32::MAX");
    let degree = n - 1;
    let offsets = (0..=n).map(|v| v * degree).collect();
    let mut ids = Vec::with_capacity(n * degree);
    for v in 0..top {
        ids.extend((0..v).map(NodeId::from));
        ids.extend((v + 1..top).map(NodeId::from));
    }
    Graph::from_rows(offsets, ids, RowLatencies::Shared(Latency::UNIT))
}

/// The star `S_{n-1}`: node 0 is the hub. Footnote 2 of the paper uses
/// the star to separate push-only from push-pull.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> Graph {
    assert!(n > 0, "star needs at least one node");
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_unit_edge(0, v).expect("valid star edge");
    }
    b.build().expect("star is valid")
}

/// The path `P_n` with unit latencies.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize) -> Graph {
    assert!(n > 0, "path needs at least one node");
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_unit_edge(v - 1, v).expect("valid path edge");
    }
    b.build().expect("path is valid")
}

/// The cycle `C_n` with unit latencies.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least three nodes");
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_unit_edge(v - 1, v).expect("valid cycle edge");
    }
    b.add_unit_edge(n - 1, 0).expect("valid closing edge");
    b.build().expect("cycle is valid")
}

/// The `rows × cols` grid with unit latencies; node `(r, c)` has index
/// `r * cols + c`.
///
/// # Panics
///
/// Panics if `rows == 0 || cols == 0`.
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows > 0 && cols > 0, "grid needs positive dimensions");
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                b.add_unit_edge(v, v + 1).expect("valid grid edge");
            }
            if r + 1 < rows {
                b.add_unit_edge(v, v + cols).expect("valid grid edge");
            }
        }
    }
    b.build().expect("grid is valid")
}

/// The `d`-dimensional hypercube `Q_d` on `2^d` nodes, unit latencies.
///
/// # Panics
///
/// Panics if `d == 0` or `d > 20`.
pub fn hypercube(d: u32) -> Graph {
    assert!((1..=20).contains(&d), "hypercube dimension must be 1..=20");
    let n = 1usize << d;
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if u > v {
                b.add_unit_edge(v, u).expect("valid hypercube edge");
            }
        }
    }
    b.build().expect("hypercube is valid")
}

/// The complete bipartite graph `K_{a,b}` (left `0..a`, right `a..a+b`),
/// unit latencies.
///
/// # Panics
///
/// Panics if `a == 0 || b == 0`.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    assert!(a > 0 && b > 0, "bipartite sides must be nonempty");
    let mut builder = GraphBuilder::new(a + b);
    for u in 0..a {
        for v in a..a + b {
            builder.add_unit_edge(u, v).expect("valid bipartite edge");
        }
    }
    builder.build().expect("bipartite graph is valid")
}

/// A complete balanced binary tree on `n` nodes (heap indexing), unit
/// latencies.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn balanced_binary_tree(n: usize) -> Graph {
    assert!(n > 0, "tree needs at least one node");
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_unit_edge((v - 1) / 2, v).expect("valid tree edge");
    }
    b.build().expect("tree is valid")
}

/// The barbell graph: two cliques `K_k` joined by a single bridge of the
/// given latency. A canonical low-conductance family.
///
/// # Panics
///
/// Panics if `k < 2` or `bridge_latency == 0`.
pub fn barbell(k: usize, bridge_latency: u32) -> Graph {
    assert!(k >= 2, "barbell cliques need at least two nodes");
    let mut b = GraphBuilder::new(2 * k);
    for base in [0, k] {
        for u in base..base + k {
            for v in (u + 1)..base + k {
                b.add_unit_edge(u, v).expect("valid clique edge");
            }
        }
    }
    b.add_edge(k - 1, k, bridge_latency).expect("valid bridge");
    b.build().expect("barbell is valid")
}

/// An Erdős–Rényi graph `G(n, p)` with unit latencies, seeded. The result
/// may be disconnected for small `p`; check [`Graph::is_connected`] or
/// use [`connected_erdos_renyi`].
///
/// # Panics
///
/// Panics if `n == 0` or `p` is not in `[0, 1]`.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Graph {
    assert!(n > 0, "graph needs at least one node");
    assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random::<f64>() < p {
                b.add_unit_edge(u, v).expect("valid random edge");
            }
        }
    }
    b.build().expect("random graph is valid")
}

/// An Erdős–Rényi graph retried (with incremented seeds) until connected.
///
/// # Errors
///
/// [`GraphError::NoConnectedSample`] if none of 64 samples is connected
/// — choose `p` above the connectivity threshold `ln(n)/n`.
///
/// # Panics
///
/// Panics if `n == 0` or `p` is not in `[0, 1]`.
pub fn connected_erdos_renyi(n: usize, p: f64, seed: u64) -> Result<Graph, GraphError> {
    const ATTEMPTS: u32 = 64;
    for attempt in 0..ATTEMPTS {
        let g = erdos_renyi(n, p, seed.wrapping_add(u64::from(attempt)));
        if g.is_connected() {
            return Ok(g);
        }
    }
    Err(GraphError::NoConnectedSample {
        nodes: n,
        attempts: ATTEMPTS,
    })
}

/// A random geometric graph: `n` points uniform in the unit square,
/// edges between pairs within `radius`, with latency equal to the
/// Euclidean distance scaled by `latency_scale` (rounded up, minimum 1).
///
/// A natural model for sensor networks where latency grows with physical
/// distance.
///
/// The rows are written in place rather than through [`GraphBuilder`]:
/// the pairs are enumerated twice, once to count degrees and once to
/// scatter the neighbor ids (and per-entry latencies, only once two
/// differ) into the CSR arrays, so no edge list is ever held. The
/// result is the graph the builder makes from the same pairs, and
/// distances and latencies are the all-pairs sweep's float
/// expressions, so a given `(n, radius, latency_scale, seed)` always
/// yields the same graph.
///
/// # Panics
///
/// Panics if `n == 0`, `n > u32::MAX` (node ids are 32-bit),
/// `radius <= 0`, or `latency_scale <= 0`.
pub fn random_geometric(n: usize, radius: f64, latency_scale: f64, seed: u64) -> Graph {
    assert!(n > 0, "graph needs at least one node");
    assert!(radius > 0.0, "radius must be positive");
    assert!(latency_scale > 0.0, "latency scale must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.random(), rng.random())).collect();
    let cells = Cells::of(pts, radius);
    // `⌈dist · latency_scale⌉`, at least 1. Only a product above 1
    // needs rounding, which without SSE4.1 is a call into libm.
    let latency = |dist: f64| match dist * latency_scale {
        scaled if scaled > 1.0 => Latency::new(scaled.ceil() as u32),
        _ => Latency::UNIT,
    };

    // Pass 1: each point's degree, by cell position, so the counts stay
    // in cache.
    let mut at = vec![0usize; n];
    cells.for_each_edge(radius, |a, b, _| {
        at[a] += 1;
        at[b] += 1;
    });
    // The rows by id; then `at[k]` becomes the write cursor of the row
    // of the point at position `k`, starting at the row's start.
    let mut offsets = vec![0usize; n + 1];
    for (&id, &degree) in cells.ids.iter().zip(&at) {
        offsets[id as usize + 1] = degree;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    for (cursor, &id) in at.iter_mut().zip(&cells.ids) {
        *cursor = offsets[id as usize];
    }

    // Pass 2: scatter both directions of every edge. Per-entry
    // latencies are allocated when the first latency other than the
    // first edge's turns up: every entry written before it has the
    // first edge's latency, and every later one is written.
    let mut ids = vec![NodeId::default(); offsets[n]];
    let (mut first, mut lats) = (None, Vec::new());
    cells.for_each_edge(radius, |a, b, dist| {
        let l = latency(dist);
        if lats.is_empty() && *first.get_or_insert(l) != l {
            lats = vec![first.unwrap_or(l); ids.len()];
        }
        for (from, to) in [(a, b), (b, a)] {
            let slot = &mut at[from];
            ids[*slot] = NodeId::from(cells.ids[to]);
            if let Some(entry) = lats.get_mut(*slot) {
                *entry = l;
            }
            *slot += 1;
        }
    });
    let mut rows = Rows { offsets, ids, lats };
    rows.sort().expect("each pair is enumerated once");
    // `first` is `None` only for an edgeless graph, where the shared
    // latency is never read.
    rows.into_graph(first.unwrap_or(Latency::UNIT))
}

/// Internal: the points of [`random_geometric`] bucketed into a grid of
/// square cells with side `≥ radius`, so any pair within `radius` of
/// each other lies in the same or an adjacent cell. One counting sort
/// puts the points in cell order: cell `c` holds positions
/// `starts[c]..starts[c + 1]`, in ascending id order, and position `k`
/// is point `pts[k]` with id `ids[k]`. Scanning a cell reads its points
/// from consecutive memory.
struct Cells {
    per_axis: usize,
    starts: Vec<usize>,
    ids: Vec<u32>,
    pts: Vec<(f64, f64)>,
}

impl Cells {
    fn of(pts: Vec<(f64, f64)>, radius: f64) -> Cells {
        let n = u32::try_from(pts.len()).expect("geometric node count exceeds u32::MAX");
        let per_axis = cells_per_axis(pts.len(), radius);
        let cell_of = |&(x, y): &(f64, f64)| {
            let axis = |t: f64| ((t * per_axis as f64) as usize).min(per_axis - 1);
            axis(y) * per_axis + axis(x)
        };
        let mut starts = vec![0; per_axis * per_axis + 1];
        for p in &pts {
            starts[cell_of(p) + 1] += 1;
        }
        for c in 1..starts.len() {
            starts[c] += starts[c - 1];
        }
        // Scatter with `starts[c]` as cell `c`'s cursor, then shift the
        // cursors (now the ends) back one cell to recover the starts.
        let mut ids = vec![0; pts.len()];
        let mut sorted = vec![(0.0, 0.0); pts.len()];
        for (id, p) in (0..n).zip(&pts) {
            let slot = &mut starts[cell_of(p)];
            (ids[*slot], sorted[*slot]) = (id, *p);
            *slot += 1;
        }
        starts.rotate_right(1);
        starts[0] = 0;
        Cells {
            per_axis,
            starts,
            ids,
            pts: sorted,
        }
    }

    /// Calls `f(a, b, distance)` once for each pair of positions `a < b`
    /// within `radius` of each other. Each cell is scanned against
    /// itself and its forward half-neighborhood (E, SW, S, SE), which
    /// covers each adjacent cell pair exactly once.
    ///
    /// A third of the candidates are edges, so a branch on each distance
    /// would mispredict often: the scan packs a point's edges into a
    /// buffer without branching, then hands them to `f`, 64 at most at
    /// a time.
    fn for_each_edge(&self, radius: f64, mut f: impl FnMut(usize, usize, f64)) {
        const FORWARD: [(isize, isize); 4] = [(1, 0), (-1, 1), (0, 1), (1, 1)];
        const CHUNK: usize = 64;
        let (per_axis, starts, pts) = (self.per_axis, &self.starts[..], &self.pts[..]);
        let cell = |cx: usize, cy: usize| {
            let c = cy * per_axis + cx;
            starts[c]..starts[c + 1]
        };
        let mut hits = [(0usize, 0.0f64); CHUNK];
        for cy in 0..per_axis {
            for cx in 0..per_axis {
                let here = cell(cx, cy);
                let forward = FORWARD.map(|(ox, oy)| {
                    let (nx, ny) = (cx.wrapping_add_signed(ox), cy.wrapping_add_signed(oy));
                    if nx < per_axis && ny < per_axis {
                        cell(nx, ny)
                    } else {
                        0..0
                    }
                });
                for a in here.clone() {
                    let (x, y) = pts[a];
                    let mut found = 0;
                    for candidates in iter::once(a + 1..here.end).chain(forward.clone()) {
                        for b in candidates {
                            let (dx, dy) = (x - pts[b].0, y - pts[b].1);
                            let dist = (dx * dx + dy * dy).sqrt();
                            hits[found] = (b, dist);
                            found += usize::from(dist <= radius);
                            if found == CHUNK {
                                hits.iter().for_each(|&(b, dist)| f(a, b, dist));
                                found = 0;
                            }
                        }
                    }
                    hits[..found].iter().for_each(|&(b, dist)| f(a, b, dist));
                }
            }
        }
    }
}

/// Internal: how many cells a side the grid of [`Cells`] has. The side
/// `1/per_axis` must be at least `radius`; within that, the grid is as
/// fine as `⌈√n⌉` cells a side — about one point a cell — and no
/// finer, so a tiny radius does not allocate a grid of empty cells.
/// Expected cost of the scan is then O(n + n²·radius²), i.e.
/// O(n + |E|), instead of the Θ(n²) all-pairs sweep; any grid with
/// side `≥ radius` yields the same pairs.
fn cells_per_axis(n: usize, radius: f64) -> usize {
    let ceil_sqrt = n.isqrt() + usize::from(n.isqrt().pow(2) < n);
    ((1.0 / radius).floor() as usize).clamp(1, ceil_sqrt)
}

/// Re-weights a graph with independent uniform random latencies in
/// `lo..=hi`.
///
/// # Panics
///
/// Panics if `lo == 0` or `lo > hi`.
pub fn uniform_random_latencies(g: &Graph, lo: u32, hi: u32, seed: u64) -> Graph {
    assert!(
        lo >= 1 && lo <= hi,
        "latency range must satisfy 1 <= lo <= hi"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    g.map_latencies(|_, _, _| Latency::new(rng.random_range(lo..=hi)))
}

/// Re-weights a graph bimodally: each edge is fast (`fast` latency) with
/// probability `p_fast`, otherwise slow (`slow` latency).
///
/// This is the latency structure of the paper's lower-bound gadgets
/// (Theorem 7) applied to an arbitrary topology.
///
/// # Panics
///
/// Panics if latencies are 0 or `p_fast` is not in `[0, 1]`.
pub fn bimodal_latencies(g: &Graph, fast: u32, slow: u32, p_fast: f64, seed: u64) -> Graph {
    assert!(fast >= 1 && slow >= 1, "latencies must be at least 1");
    assert!(
        (0.0..=1.0).contains(&p_fast),
        "probability must be in [0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    g.map_latencies(|_, _, _| {
        if rng.random::<f64>() < p_fast {
            Latency::new(fast)
        } else {
            Latency::new(slow)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn clique_counts() {
        let g = clique(6);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 15);
        assert_eq!(g.max_degree(), 5);
        assert!(g.is_connected());
        // The directly written rows against the builder's `K_n`, which
        // stays the reference: the edgeless `K_1`, and row widths on both
        // sides of 64.
        for n in [1usize, 2, 3, 63, 64, 65, 200] {
            let mut b = GraphBuilder::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    b.add_unit_edge(u, v).unwrap();
                }
            }
            let (want, got) = (b.build().unwrap(), clique(n));
            assert_eq!(got, want, "n = {n}");
            assert_eq!(got.topology_hash(), want.topology_hash(), "n = {n}");
            assert_eq!(got.edge_count(), n * (n - 1) / 2, "n = {n}");
            assert_eq!(got.edge_count(), want.edge_count(), "n = {n}");
            let unit = (n > 1).then_some(Latency::UNIT);
            assert_eq!(got.max_latency(), unit, "n = {n}");
            assert_eq!(got.max_latency(), want.max_latency(), "n = {n}");
            for v in got.nodes() {
                assert_eq!(
                    got.neighbor_latencies(v),
                    want.neighbor_latencies(v),
                    "n = {n}, v = {v}"
                );
            }
        }
    }

    #[test]
    fn star_degrees() {
        let g = star(10);
        assert_eq!(g.degree(crate::NodeId::new(0)), 9);
        assert_eq!(g.degree(crate::NodeId::new(5)), 1);
        assert_eq!(metrics::weighted_diameter(&g), 2);
    }

    #[test]
    fn path_and_cycle_diameters() {
        assert_eq!(metrics::weighted_diameter(&path(10)), 9);
        assert_eq!(metrics::weighted_diameter(&cycle(10)), 5);
    }

    #[test]
    fn grid_structure() {
        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert_eq!(metrics::weighted_diameter(&g), 5);
    }

    #[test]
    fn hypercube_structure() {
        let g = hypercube(4);
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 32);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(metrics::weighted_diameter(&g), 4);
    }

    #[test]
    fn bipartite_structure() {
        let g = complete_bipartite(3, 5);
        assert_eq!(g.edge_count(), 15);
        assert_eq!(g.max_degree(), 5);
        assert!(g.is_connected());
    }

    #[test]
    fn tree_is_acyclic_connected() {
        let g = balanced_binary_tree(15);
        assert_eq!(g.edge_count(), 14);
        assert!(g.is_connected());
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn barbell_bridge_latency() {
        let g = barbell(4, 7);
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.edge_count(), 13);
        assert_eq!(
            g.latency(crate::NodeId::new(3), crate::NodeId::new(4)),
            Some(Latency::new(7))
        );
    }

    #[test]
    fn erdos_renyi_deterministic_per_seed() {
        let a = erdos_renyi(30, 0.3, 99);
        let b = erdos_renyi(30, 0.3, 99);
        assert_eq!(a, b);
        let c = erdos_renyi(30, 0.3, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn erdos_renyi_extreme_p() {
        assert_eq!(erdos_renyi(10, 0.0, 1).edge_count(), 0);
        assert_eq!(erdos_renyi(10, 1.0, 1).edge_count(), 45);
    }

    #[test]
    fn connected_er_is_connected() {
        let g = connected_erdos_renyi(40, 0.15, 5).expect("p is above the threshold");
        assert!(g.is_connected());
    }

    #[test]
    fn connected_er_below_the_threshold_is_an_error() {
        assert_eq!(
            connected_erdos_renyi(50, 0.01, 0),
            Err(GraphError::NoConnectedSample {
                nodes: 50,
                attempts: 64
            })
        );
    }

    #[test]
    fn geometric_latency_scales_with_distance() {
        let g = random_geometric(50, 0.4, 10.0, 3);
        for (_, _, l) in g.edges() {
            assert!(l.get() >= 1 && l.get() <= 4 + 1); // ≤ ceil(0.4·10)=4 (+slack)
        }
    }

    /// The cell-bucketed scan builds exactly the graph the all-pairs
    /// sweep would: same points (same RNG stream), same distances, same
    /// latencies, so the canonical topology hashes agree.
    #[test]
    fn geometric_bucketing_matches_all_pairs_sweep() {
        fn all_pairs(n: usize, radius: f64, latency_scale: f64, seed: u64) -> Graph {
            let mut rng = StdRng::seed_from_u64(seed);
            let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.random(), rng.random())).collect();
            let mut b = GraphBuilder::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    let (dx, dy) = (pts[u].0 - pts[v].0, pts[u].1 - pts[v].1);
                    let dist = (dx * dx + dy * dy).sqrt();
                    if dist <= radius {
                        let lat = (dist * latency_scale).ceil().max(1.0) as u32;
                        b.add_edge(u, v, lat).expect("valid geometric edge");
                    }
                }
            }
            b.build().expect("geometric graph is valid")
        }
        // Radii straddling the bucketing regimes: > 1 (single cell),
        // coarse grids, and fine grids with many empty cells.
        for (n, radius, scale, seed) in [
            (1, 0.5, 10.0, 0),
            (40, 1.5, 3.0, 1),
            (60, 0.5, 10.0, 2),
            (80, 0.21, 25.0, 3),
            (120, 0.09, 100.0, 4),
            (200, 0.04, 7.5, 5),
        ] {
            let fast = random_geometric(n, radius, scale, seed);
            let slow = all_pairs(n, radius, scale, seed);
            assert_eq!(
                fast.topology_hash(),
                slow.topology_hash(),
                "n={n} radius={radius} seed={seed}"
            );
            assert_eq!(fast.edge_count(), slow.edge_count());
        }
    }

    /// The all-pairs geometric graph through [`GraphBuilder`], found
    /// without the cell grid: the points are swept in `x` order and a
    /// scan stops once the `x` gap alone exceeds `radius` (the distance
    /// is at least that gap). Pairs go in in sweep order, which leaves
    /// most rows for the builder to sort.
    fn swept_geometric(n: usize, radius: f64, latency_scale: f64, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.random(), rng.random())).collect();
        let mut by_x: Vec<usize> = (0..n).collect();
        by_x.sort_by(|&a, &b| pts[a].0.total_cmp(&pts[b].0));
        let mut b = GraphBuilder::new(n);
        for (i, &u) in by_x.iter().enumerate() {
            for &v in &by_x[i + 1..] {
                let (dx, dy) = (pts[u].0 - pts[v].0, pts[u].1 - pts[v].1);
                if -dx > radius {
                    break;
                }
                let dist = (dx * dx + dy * dy).sqrt();
                if dist <= radius {
                    let lat = (dist * latency_scale).ceil().max(1.0) as u32;
                    b.add_edge(v, u, lat).expect("valid geometric edge");
                }
            }
        }
        b.build().expect("geometric graph is valid")
    }

    /// `random_geometric` is the graph [`GraphBuilder`] makes from the
    /// same pairs, `==` and not just hash-equal, in both latency layouts.
    #[test]
    fn geometric_graph_is_the_builders_graph_of_its_pairs() {
        let degree_18 = |n: usize| (18.0 / (std::f64::consts::PI * n as f64)).sqrt();
        // Expected degree 18 as in the benchmark's graph, plus one cell
        // holding every point, where a point has hundreds of neighbors.
        let cases = [1, 2, 700, 5_000, 20_000].map(|n| (n, degree_18(n).min(0.9)));
        for (seed, (n, radius)) in (0..).zip(cases.into_iter().chain([(300, 0.9)])) {
            // Scale 1 with `radius < 1`: every latency is 1, one shared
            // row. Scale 1000: the latencies differ, one per entry.
            for scale in [1.0, 1000.0] {
                let (got, want) = (
                    random_geometric(n, radius, scale, seed),
                    swept_geometric(n, radius, scale, seed),
                );
                assert_eq!(got, want, "n = {n}, seed = {seed}, scale = {scale}");
                let shared = got.distinct_latencies().len() <= 1;
                assert_eq!(shared, scale == 1.0 || n < 3, "n = {n}, scale = {scale}");
            }
        }
    }

    /// A radius far below `1/√n` does not size the grid: `⌊1/radius⌋`
    /// a side would be 10⁸ cells for 1000 points at `radius = 10⁻⁴`.
    /// The grid is at most `⌈√n⌉` a side, and its pairs are still the
    /// all-pairs ones.
    #[test]
    fn a_tiny_radius_grid_is_sized_by_n() {
        assert_eq!(cells_per_axis(1000, 1e-4), 32);
        assert_eq!(cells_per_axis(1024, 1e-4), 32);
        assert_eq!(cells_per_axis(20_000, 4e-4), 142);
        assert_eq!(cells_per_axis(1, 1e-4), 1);
        assert_eq!(cells_per_axis(262_144, 0.004_675), 213);
        for (n, radius, seed) in [(1000, 1e-4, 10), (20_000, 4e-4, 11)] {
            let got = random_geometric(n, radius, 1e5, seed);
            assert_eq!(got, swept_geometric(n, radius, 1e5, seed), "n = {n}");
            assert!(
                n < 20_000 || got.edge_count() > 0,
                "n = {n}: no edges to compare"
            );
        }
    }

    #[test]
    fn uniform_latencies_in_range() {
        let g = uniform_random_latencies(&clique(8), 3, 9, 11);
        for (_, _, l) in g.edges() {
            assert!((3..=9).contains(&l.get()));
        }
    }

    #[test]
    fn bimodal_latencies_two_values() {
        let g = bimodal_latencies(&clique(10), 1, 50, 0.5, 4);
        let distinct = g.distinct_latencies();
        assert!(distinct.iter().all(|l| l.get() == 1 || l.get() == 50));
        assert_eq!(distinct.len(), 2, "with 45 edges both modes appear whp");
    }

    #[test]
    fn bimodal_extremes() {
        let g0 = bimodal_latencies(&clique(6), 1, 50, 0.0, 4);
        assert!(g0.edges().all(|(_, _, l)| l.get() == 50));
        let g1 = bimodal_latencies(&clique(6), 1, 50, 1.0, 4);
        assert!(g1.edges().all(|(_, _, l)| l.get() == 1));
    }
}

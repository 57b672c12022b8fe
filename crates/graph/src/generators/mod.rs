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

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::graph::{Graph, GraphBuilder};
use crate::ids::Latency;

/// The complete graph `K_n` with unit latencies.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn clique(n: usize) -> Graph {
    assert!(n > 0, "clique needs at least one node");
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_unit_edge(u, v).expect("valid clique edge");
        }
    }
    b.build().expect("clique is valid")
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
/// # Panics
///
/// Panics if no connected sample is found within 64 retries — choose
/// `p ≳ ln n / n`.
pub fn connected_erdos_renyi(n: usize, p: f64, seed: u64) -> Graph {
    for attempt in 0..64 {
        let g = erdos_renyi(n, p, seed.wrapping_add(attempt));
        if g.is_connected() {
            return g;
        }
    }
    panic!("no connected G({n}, {p}) sample in 64 attempts; increase p");
}

/// A random geometric graph: `n` points uniform in the unit square,
/// edges between pairs within `radius`, with latency equal to the
/// Euclidean distance scaled by `latency_scale` (rounded up, minimum 1).
///
/// A natural model for sensor networks where latency grows with physical
/// distance.
///
/// # Panics
///
/// Panics if `n == 0`, `radius <= 0`, or `latency_scale <= 0`.
pub fn random_geometric(n: usize, radius: f64, latency_scale: f64, seed: u64) -> Graph {
    // Forward half-neighborhood: E, SW, S, SE. Together with the
    // within-cell scan this covers each adjacent (or equal) cell pair
    // exactly once.
    const FORWARD: [(isize, isize); 4] = [(1, 0), (-1, 1), (0, 1), (1, 1)];
    assert!(n > 0, "graph needs at least one node");
    assert!(radius > 0.0, "radius must be positive");
    assert!(latency_scale > 0.0, "latency scale must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.random(), rng.random())).collect();

    // Bucket the unit square into a grid of cells with side ≥ `radius`:
    // any pair within `radius` of each other lies in the same or an
    // adjacent cell, so scanning each cell against its forward
    // half-neighborhood visits every candidate pair exactly once.
    // Expected cost is O(n + n²·radius²) — i.e. O(n + |E|) — instead of
    // the Θ(n²) all-pairs sweep, which is what makes 10⁶-node instances
    // generable in-process. The edge *set* is identical to the all-pairs
    // sweep's (distance and latency are computed with the same float
    // expressions) and every adjacency row is sorted at assembly
    // whatever the insertion order, so callers see byte-identical
    // graphs for a given `(n, radius, latency_scale, seed)`.
    let per_axis = ((1.0 / radius).floor() as usize).clamp(1, 4096);
    let cell_of = |x: f64| ((x * per_axis as f64) as usize).min(per_axis - 1);
    let mut cells: Vec<Vec<usize>> = vec![Vec::new(); per_axis * per_axis];
    for (i, &(x, y)) in pts.iter().enumerate() {
        cells[cell_of(y) * per_axis + cell_of(x)].push(i);
    }

    let mut b = GraphBuilder::new(n);
    let try_pair = |b: &mut GraphBuilder, u: usize, v: usize| {
        let (dx, dy) = (pts[u].0 - pts[v].0, pts[u].1 - pts[v].1);
        let dist = (dx * dx + dy * dy).sqrt();
        if dist <= radius {
            let lat = (dist * latency_scale).ceil().max(1.0) as u32;
            b.add_edge(u.min(v), u.max(v), lat)
                .expect("valid geometric edge");
        }
    };
    for cy in 0..per_axis {
        for cx in 0..per_axis {
            let here = &cells[cy * per_axis + cx];
            for (i, &u) in here.iter().enumerate() {
                for &v in &here[i + 1..] {
                    try_pair(&mut b, u, v);
                }
            }
            for (ox, oy) in FORWARD {
                let (nx, ny) = (cx.wrapping_add_signed(ox), cy.wrapping_add_signed(oy));
                if nx >= per_axis || ny >= per_axis {
                    continue;
                }
                let there = &cells[ny * per_axis + nx];
                for &u in here {
                    for &v in there {
                        try_pair(&mut b, u, v);
                    }
                }
            }
        }
    }
    b.build().expect("geometric graph is valid")
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
        let g = connected_erdos_renyi(40, 0.15, 5);
        assert!(g.is_connected());
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Randomized **(2k−1)-spanner** construction after Baswana–Sen, with
//! the edge *orientation* of *Gossiping with Latencies* (Appendix D).
//!
//! Given a weighted graph `G` and parameter `k`, [`build_spanner`]
//! computes a subgraph `S` with `O(k · n^{1+1/k})` edges such that
//! `dist_S(u, v) ≤ (2k−1) · dist_G(u, v)` for all pairs. Following the
//! paper, every spanner edge is added by exactly one endpoint and
//! oriented *away* from it, giving each node out-degree
//! `O(n̂^{1/k} log n)` w.h.p. even when only an estimate
//! `n ≤ n̂ ≤ n^c` of the network size is known (Lemma 13). With
//! `k = log n` this is the `O(log n)`-spanner with `O(log n)` out-degree
//! that Theorem 14's EID algorithm floods over.
//!
//! The construction is the distributed algorithm's *local* computation:
//! each decision depends only on a node's `≤ k`-hop neighborhood and on
//! shared (public-coin) cluster sampling, which is why EID can execute
//! it after `O(log n)` rounds of neighborhood discovery. Here it runs
//! centrally on the collected topology, exactly as each simulated node
//! would run it.
//!
//! # Example
//!
//! ```
//! use baswana_sen::{build_spanner, SpannerConfig};
//! use latency_graph::generators;
//!
//! let g = generators::connected_erdos_renyi(64, 0.2, 7).expect("connected sample");
//! let result = build_spanner(&g, &SpannerConfig { k: 3, ..SpannerConfig::default() });
//! assert!(result.spanner.arc_count() <= g.edge_count());
//! assert_eq!(result.stretch_bound, 5);
//! let worst = baswana_sen::verify::max_stretch(&g, &result.spanner.to_undirected());
//! assert!(worst <= 5.0);
//! ```

use std::collections::{BTreeMap, BTreeSet};

use latency_graph::{splitmix64, DiGraph, Graph, Latency, NodeId};

pub mod verify;

/// Configuration for [`build_spanner`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpannerConfig {
    /// Stretch parameter: the result is a `(2k−1)`-spanner. `k = 1`
    /// returns the whole graph.
    pub k: usize,
    /// The size estimate `n̂` used for the sampling probability
    /// `n̂^{−1/k}`; defaults to the exact `n`. Lemma 13 allows any
    /// `n ≤ n̂ ≤ n^c` at the cost of a larger out-degree.
    pub size_estimate: Option<usize>,
    /// Seed for the public-coin cluster sampling.
    pub seed: u64,
}

impl Default for SpannerConfig {
    fn default() -> Self {
        SpannerConfig {
            k: 2,
            size_estimate: None,
            seed: 0,
        }
    }
}

/// The output of [`build_spanner`].
#[derive(Clone, Debug)]
pub struct SpannerResult {
    /// The oriented spanner; arc `u → v` means `u` added (and is
    /// responsible for) the edge.
    pub spanner: DiGraph,
    /// The guaranteed stretch `2k − 1`.
    pub stretch_bound: usize,
    /// The final clustering after phase 1: `centers[v]` is the center of
    /// `v`'s cluster in `C_{k−1}`, or `None` if `v` left the clustering
    /// via Rule 1.
    pub centers: Vec<Option<NodeId>>,
}

impl SpannerResult {
    /// Maximum out-degree of the orientation (`Δ_out`), the quantity
    /// bounding RR Broadcast's round cost (Lemma 15).
    pub fn max_out_degree(&self) -> usize {
        self.spanner.max_out_degree()
    }
}

/// The public coin deciding whether cluster `center` stays sampled in
/// `iteration`: a hash of `(seed, center, iteration)` compared against
/// the sampling probability `p`.
///
/// Because the coin is a pure function of public data (not a sequential
/// RNG), every node of a distributed execution that knows a cluster's
/// center can evaluate it locally and *agree* — this is what lets EID
/// (Theorem 14) run the spanner construction as a purely local
/// computation after neighborhood discovery.
pub fn sampled_coin(seed: u64, center: NodeId, iteration: u64, p: f64) -> bool {
    let h = splitmix64(seed ^ splitmix64(u64::from(u32::from(center)) ^ (iteration << 32)));
    (h as f64 / u64::MAX as f64) < p
}

/// Strict total order on edges: latency first, node ids as tie-breaker
/// (the paper: "the algorithm assumes all edge weights are distinct; we
/// ensure this by using the unique node IDs to break ties").
type EdgeKey = (u32, u32, u32);

fn edge_key(l: Latency, u: NodeId, v: NodeId) -> EdgeKey {
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    (l.get(), u32::from(a), u32::from(b))
}

/// Builds the oriented `(2k−1)`-spanner.
///
/// # Panics
///
/// Panics if `config.k == 0` or `size_estimate < n`.
pub fn build_spanner(g: &Graph, config: &SpannerConfig) -> SpannerResult {
    let n = g.node_count();
    let k = config.k;
    assert!(k >= 1, "stretch parameter k must be at least 1");
    let n_hat = config.size_estimate.unwrap_or(n);
    assert!(n_hat >= n, "size estimate must be at least n");

    if k == 1 {
        // A 1-spanner is the graph itself; orient from the smaller id.
        let arcs: Vec<(usize, usize, u32)> = g
            .edges()
            .map(|(u, v, l)| (u.index(), v.index(), l.get()))
            .collect();
        return SpannerResult {
            spanner: DiGraph::from_arcs(n, arcs),
            stretch_bound: 1,
            centers: (0..n).map(|i| Some(NodeId::new(i))).collect(),
        };
    }

    let p = (n_hat as f64).powf(-1.0 / k as f64);

    // cluster[v] = Some(center) while v participates; None once removed
    // by Rule 1.
    let mut cluster: Vec<Option<NodeId>> = (0..n).map(|i| Some(NodeId::new(i))).collect();
    let mut discarded: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    let mut arcs: Vec<(usize, usize, u32)> = Vec::new();

    let discard = |set: &mut BTreeSet<(NodeId, NodeId)>, u: NodeId, v: NodeId| {
        let key = if u < v { (u, v) } else { (v, u) };
        set.insert(key);
    };
    let is_discarded = |set: &BTreeSet<(NodeId, NodeId)>, u: NodeId, v: NodeId| {
        let key = if u < v { (u, v) } else { (v, u) };
        set.contains(&key)
    };

    // Least-weight working edge from v to each adjacent cluster.
    let adjacent_clusters = |v: NodeId,
                             cluster: &[Option<NodeId>],
                             discarded: &BTreeSet<(NodeId, NodeId)>|
     -> BTreeMap<NodeId, (EdgeKey, NodeId, Latency)> {
        let my = cluster[v.index()];
        let mut best: BTreeMap<NodeId, (EdgeKey, NodeId, Latency)> = BTreeMap::new();
        for (u, l) in g.neighbors(v) {
            let Some(cu) = cluster[u.index()] else {
                continue;
            };
            if Some(cu) == my || is_discarded(discarded, v, u) {
                continue;
            }
            let key = edge_key(l, v, u);
            match best.get(&cu) {
                Some(&(existing, _, _)) if existing <= key => {}
                _ => {
                    best.insert(cu, (key, u, l));
                }
            }
        }
        best
    };

    // Phase 1: iterations 1 .. k-1.
    for iteration in 1..k {
        let centers: BTreeSet<NodeId> = cluster.iter().flatten().copied().collect();
        let sampled: BTreeSet<NodeId> = centers
            .into_iter()
            .filter(|&c| sampled_coin(config.seed, c, iteration as u64, p))
            .collect();

        let snapshot = cluster.clone();
        for i in 0..n {
            let v = NodeId::new(i);
            let Some(cv) = snapshot[i] else { continue };
            if sampled.contains(&cv) {
                continue; // v stays in its (sampled) cluster.
            }
            let best = adjacent_clusters(v, &snapshot, &discarded);
            let best_sampled = best
                .iter()
                .filter(|(c, _)| sampled.contains(c))
                .min_by_key(|&(_, &(key, _, _))| key)
                .map(|(&c, &(key, u, l))| (c, key, u, l));

            match best_sampled {
                None => {
                    // Rule 1: no adjacent sampled cluster. Connect to
                    // every adjacent cluster with the least-weight edge,
                    // discard everything else, and leave the clustering.
                    for (&c, &(_, u, l)) in &best {
                        arcs.push((v.index(), u.index(), l.get()));
                        for (w, _) in g.neighbors(v) {
                            if snapshot[w.index()] == Some(c) {
                                discard(&mut discarded, v, w);
                            }
                        }
                    }
                    cluster[i] = None;
                }
                Some((c, key_c, u_c, l_c)) => {
                    // Rule 2: join the sampled cluster with the cheapest
                    // edge; also connect to every strictly cheaper
                    // adjacent cluster.
                    arcs.push((v.index(), u_c.index(), l_c.get()));
                    cluster[i] = Some(c);
                    for (&c2, &(key2, u2, l2)) in &best {
                        if c2 == c {
                            continue;
                        }
                        if key2 < key_c {
                            arcs.push((v.index(), u2.index(), l2.get()));
                            for (w, _) in g.neighbors(v) {
                                if snapshot[w.index()] == Some(c2) {
                                    discard(&mut discarded, v, w);
                                }
                            }
                        }
                    }
                    // Discard all remaining edges from v into cluster c.
                    for (w, _) in g.neighbors(v) {
                        if snapshot[w.index()] == Some(c) && w != u_c {
                            discard(&mut discarded, v, w);
                        }
                    }
                }
            }
        }

        // Remove intra-cluster edges of the new clustering.
        for i in 0..n {
            let v = NodeId::new(i);
            let Some(cv) = cluster[i] else { continue };
            for (u, _) in g.neighbors(v) {
                if cluster[u.index()] == Some(cv) {
                    discard(&mut discarded, v, u);
                }
            }
        }
    }

    // Phase 2 (the k-th iteration): every clustered vertex adds the
    // least-weight edge to each adjacent cluster of C_{k−1}.
    for i in 0..n {
        let v = NodeId::new(i);
        if cluster[i].is_none() {
            continue;
        }
        for &(_, u, l) in adjacent_clusters(v, &cluster, &discarded).values() {
            arcs.push((v.index(), u.index(), l.get()));
        }
    }

    SpannerResult {
        spanner: DiGraph::from_arcs(n, arcs),
        stretch_bound: 2 * k - 1,
        centers: cluster,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latency_graph::generators;

    #[test]
    fn k1_returns_whole_graph() {
        let g = generators::clique(8);
        let r = build_spanner(
            &g,
            &SpannerConfig {
                k: 1,
                ..Default::default()
            },
        );
        assert_eq!(r.spanner.arc_count(), g.edge_count());
        assert_eq!(r.stretch_bound, 1);
    }

    #[test]
    fn spanner_preserves_connectivity() {
        for seed in 0..5 {
            let g = generators::connected_erdos_renyi(50, 0.2, seed).expect("connected sample");
            let r = build_spanner(
                &g,
                &SpannerConfig {
                    k: 3,
                    seed,
                    ..Default::default()
                },
            );
            assert!(r.spanner.to_undirected().is_connected(), "seed {seed}");
        }
    }

    #[test]
    fn stretch_bound_holds_on_random_graphs() {
        for seed in 0..5 {
            let g =
                generators::connected_erdos_renyi(40, 0.25, seed + 100).expect("connected sample");
            for k in [2, 3, 4] {
                let r = build_spanner(
                    &g,
                    &SpannerConfig {
                        k,
                        seed,
                        ..Default::default()
                    },
                );
                let worst = verify::max_stretch(&g, &r.spanner.to_undirected());
                assert!(
                    worst <= (2 * k - 1) as f64 + 1e-9,
                    "k={k} seed={seed}: stretch {worst}"
                );
            }
        }
    }

    #[test]
    fn stretch_bound_holds_with_latencies() {
        for seed in 0..5 {
            let base =
                generators::connected_erdos_renyi(40, 0.25, seed + 31).expect("connected sample");
            let g = generators::uniform_random_latencies(&base, 1, 20, seed);
            let r = build_spanner(
                &g,
                &SpannerConfig {
                    k: 3,
                    seed,
                    ..Default::default()
                },
            );
            let worst = verify::max_stretch(&g, &r.spanner.to_undirected());
            assert!(worst <= 5.0 + 1e-9, "seed={seed}: stretch {worst}");
        }
    }

    #[test]
    fn spanner_is_sparse_on_clique() {
        // K_n has Θ(n²) = 2016 edges; a k=2 spanner has
        // O(k·n^{1+1/k}) = O(2·64·8) = O(1024) edges.
        let g = generators::clique(64);
        let r = build_spanner(
            &g,
            &SpannerConfig {
                k: 2,
                seed: 1,
                ..Default::default()
            },
        );
        assert!(
            r.spanner.arc_count() < 3 * 64 * 8,
            "arcs {} vs edges {}",
            r.spanner.arc_count(),
            g.edge_count()
        );
    }

    #[test]
    fn out_degree_is_small_on_clique() {
        let g = generators::clique(100);
        let r = build_spanner(
            &g,
            &SpannerConfig {
                k: 4,
                seed: 3,
                ..Default::default()
            },
        );
        // n^{1/4} ≈ 3.2; with log factor expect well under 40 … vs the
        // trivial 99.
        assert!(r.max_out_degree() <= 40, "Δout = {}", r.max_out_degree());
    }

    #[test]
    fn size_estimate_accepted_and_checked() {
        let g = generators::cycle(16);
        let r = build_spanner(
            &g,
            &SpannerConfig {
                k: 3,
                size_estimate: Some(16 * 16),
                seed: 0,
            },
        );
        assert!(r.spanner.to_undirected().is_connected());
        let worst = verify::max_stretch(&g, &r.spanner.to_undirected());
        assert!(worst <= 5.0);
    }

    #[test]
    #[should_panic(expected = "at least n")]
    fn too_small_estimate_rejected() {
        let g = generators::cycle(16);
        let _ = build_spanner(
            &g,
            &SpannerConfig {
                k: 3,
                size_estimate: Some(4),
                seed: 0,
            },
        );
    }

    #[test]
    fn tree_spanner_is_whole_tree() {
        // A tree has no redundant edges; every edge must survive.
        let g = generators::balanced_binary_tree(31);
        let r = build_spanner(
            &g,
            &SpannerConfig {
                k: 3,
                seed: 2,
                ..Default::default()
            },
        );
        assert_eq!(r.spanner.to_undirected().edge_count(), 30);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::connected_erdos_renyi(30, 0.3, 9).expect("connected sample");
        let a = build_spanner(
            &g,
            &SpannerConfig {
                k: 3,
                seed: 5,
                ..Default::default()
            },
        );
        let b = build_spanner(
            &g,
            &SpannerConfig {
                k: 3,
                seed: 5,
                ..Default::default()
            },
        );
        assert_eq!(a.spanner, b.spanner);
    }

    #[test]
    fn same_seed_twice_identical_edge_sets() {
        // The clustering state is ordered (`BTreeSet`), so two runs with
        // the same seed must produce the *same arcs in the same order* —
        // not merely equal-as-sets. This is the determinism contract the
        // tidy `determinism-zone` rule protects: a hash-ordered set here
        // passes every stretch test while silently breaking replay.
        for seed in [0, 5, 91] {
            let base =
                generators::connected_erdos_renyi(48, 0.25, seed + 17).expect("connected sample");
            let g = generators::uniform_random_latencies(&base, 1, 30, seed);
            let cfg = SpannerConfig {
                k: 3,
                seed,
                ..Default::default()
            };
            let a = build_spanner(&g, &cfg);
            let b = build_spanner(&g, &cfg);
            let arcs_a: Vec<_> = a.spanner.arcs().collect();
            let arcs_b: Vec<_> = b.spanner.arcs().collect();
            assert_eq!(arcs_a, arcs_b, "seed {seed}: arc streams diverged");
            assert_eq!(a.centers, b.centers, "seed {seed}: clusterings diverged");
        }
    }

    #[test]
    fn centers_cover_clustered_nodes() {
        let g = generators::connected_erdos_renyi(40, 0.3, 4).expect("connected sample");
        let r = build_spanner(
            &g,
            &SpannerConfig {
                k: 3,
                seed: 8,
                ..Default::default()
            },
        );
        for c in r.centers.iter().flatten() {
            assert!(c.index() < 40);
        }
    }
}

//! Property tests for the graph substrate: CSR construction, filtering,
//! metrics, and the `G_ℓ` multiplicity graph.

use latency_graph::induced::EdgeInducedGraph;
use latency_graph::{conductance, metrics, Graph, GraphBuilder, GraphError, Latency, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

type Edge = (usize, usize, u32);

/// Arbitrary valid edge list over `n` nodes (possibly disconnected).
///
/// The edges come sorted ascending with `u < v` — the order
/// [`Graph::edges`] promises.
fn edge_list(max_n: usize) -> impl Strategy<Value = (usize, Vec<Edge>)> {
    (2..=max_n).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 1u32..20).prop_filter_map("no self-loops", |(u, v, l)| {
            (u != v).then_some(if u < v { (u, v, l) } else { (v, u, l) })
        });
        prop::collection::vec(edge, 0..3 * n).prop_map(move |mut es| {
            es.sort_unstable();
            es.dedup_by_key(|&mut (u, v, _)| (u, v));
            (n, es)
        })
    })
}

/// [`edge_list`] plus the same edges the way a caller may insert them:
/// shuffled, each with a random endpoint orientation.
fn scrambled_edge_list(max_n: usize) -> impl Strategy<Value = (usize, Vec<Edge>, Vec<Edge>)> {
    (edge_list(max_n), any::<u64>()).prop_map(|((n, es), seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inserted = es.clone();
        inserted.shuffle(&mut rng);
        for e in &mut inserted {
            if rng.random::<bool>() {
                *e = (e.1, e.0, e.2);
            }
        }
        (n, es, inserted)
    })
}

fn plain(g: &Graph) -> Vec<Edge> {
    g.edges()
        .map(|(u, v, l)| (u.index(), v.index(), l.get()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// CSR round-trip: whatever the insertion order and orientation,
    /// `edges()` is the input sorted ascending with `u < v`, and the
    /// whole-graph answers fixed at build time agree with it.
    #[test]
    fn csr_round_trip((n, es, inserted) in scrambled_edge_list(24)) {
        let g = Graph::from_edges(n, inserted).unwrap();
        prop_assert_eq!(plain(&g), es.clone());
        prop_assert_eq!(g.edge_count(), es.len());
        let lmax = es.iter().map(|&(_, _, l)| Latency::new(l)).max();
        prop_assert_eq!(g.max_latency(), lmax);
        let sorted = Graph::from_edges(n, es).unwrap();
        prop_assert_eq!(g.topology_hash(), sorted.topology_hash());
        prop_assert_eq!(g, sorted);
    }

    /// Neighbor lists are sorted and degree sums equal 2m.
    #[test]
    fn degrees_sum_to_2m((n, _, inserted) in scrambled_edge_list(24)) {
        let g = Graph::from_edges(n, inserted).unwrap();
        let mut total = 0usize;
        for v in g.nodes() {
            let ns = g.neighbor_ids(v);
            for w in ns.windows(2) {
                prop_assert!(w[0] < w[1], "sorted neighbors");
            }
            prop_assert_eq!(ns.len(), g.neighbor_latencies(v).len());
            total += ns.len();
        }
        prop_assert_eq!(total, 2 * g.edge_count());
    }

    /// `latency(u, v)` agrees with the edge list symmetrically.
    #[test]
    fn latency_lookup_symmetric((n, es, inserted) in scrambled_edge_list(20)) {
        let g = Graph::from_edges(n, inserted).unwrap();
        for &(u, v, l) in &es {
            let (a, b) = (NodeId::new(u), NodeId::new(v));
            prop_assert_eq!(g.latency(a, b), Some(Latency::new(l)));
            prop_assert_eq!(g.latency(b, a), Some(Latency::new(l)));
        }
    }

    /// Filtering then mapping commutes with direct construction.
    #[test]
    fn filter_is_monotone((n, es) in edge_list(20), cut in 1u32..20) {
        let g = Graph::from_edges(n, es.iter().copied()).unwrap();
        let fg = g.latency_filtered(Latency::new(cut));
        prop_assert!(fg.edge_count() <= g.edge_count());
        for (u, v, l) in fg.edges() {
            prop_assert!(l.get() <= cut);
            prop_assert_eq!(g.latency(u, v), Some(l));
        }
        // Re-filtering at a larger threshold is the identity.
        prop_assert_eq!(fg.latency_filtered(Latency::new(20)), fg.clone());
    }

    /// Duplicate edges are always rejected at build time, naming the
    /// smallest duplicated pair wherever the repeats were inserted.
    #[test]
    fn duplicates_rejected(
        (n, es, mut inserted) in scrambled_edge_list(16),
        picks in prop::collection::vec((any::<usize>(), any::<usize>()), 1..3),
    ) {
        prop_assume!(!es.is_empty());
        let mut smallest = (usize::MAX, usize::MAX);
        for (pick, at) in picks {
            // Re-add an edge reversed, with a different latency.
            let (u, v, l) = es[pick % es.len()];
            inserted.insert(at % (inserted.len() + 1), (v, u, (l % 19) + 1));
            smallest = smallest.min((u, v));
        }
        let mut b = GraphBuilder::new(n);
        for (u, v, l) in inserted {
            b.add_edge(u, v, l).unwrap();
        }
        let want = GraphError::DuplicateEdge(NodeId::new(smallest.0), NodeId::new(smallest.1));
        prop_assert_eq!(b.build(), Err(want));
    }

    /// BFS hop distances lower-bound weighted distances and weighted
    /// distances lower-bound hop × ℓ_max.
    #[test]
    fn hops_bound_weighted((n, es) in edge_list(20)) {
        let g = Graph::from_edges(n, es.iter().copied()).unwrap();
        let lmax = g.max_latency().map_or(1, latency_graph::Latency::rounds);
        let src = NodeId::new(0);
        let hops = metrics::bfs_hops(&g, src);
        let dist = metrics::dijkstra(&g, src);
        for i in 0..n {
            if hops[i] == metrics::INFINITY {
                prop_assert_eq!(dist[i], metrics::INFINITY);
            } else {
                prop_assert!(dist[i] >= hops[i], "weighted ≥ hops");
                prop_assert!(dist[i] <= hops[i] * lmax, "weighted ≤ hops · ℓmax");
            }
        }
    }

    /// The multiplicity graph G_ℓ preserves volumes and its cut
    /// conductance equals φ_ℓ on random cuts.
    #[test]
    fn induced_graph_volume_and_phi((n, es) in edge_list(14), cut_mask in any::<u64>(), ell in 1u32..20) {
        let g = Graph::from_edges(n, es.iter().copied()).unwrap();
        let gl = EdgeInducedGraph::new(&g, Latency::new(ell));
        for v in g.nodes() {
            prop_assert_eq!(gl.volume_of(v), g.degree(v) as u64);
        }
        let members: Vec<bool> = (0..n).map(|i| cut_mask >> (i % 64) & 1 == 1).collect();
        let a = gl.cut_conductance(&members);
        let b = conductance::cut_phi(&g, &members, Latency::new(ell));
        match (a, b) {
            (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-12),
            (None, None) => {}
            other => prop_assert!(false, "mismatch {:?}", other),
        }
    }

    /// The derived-graph constructors equal the graph rebuilt from the
    /// filtered / mapped edge list, and `map_latencies` calls its
    /// closure once per undirected edge in ascending `(u, v)` order
    /// (callers pass stateful RNG closures).
    #[test]
    fn derived_graphs_equal_rebuilds(
        (n, es, inserted) in scrambled_edge_list(20),
        cut in 1u32..20,
        mask in any::<u64>(),
    ) {
        let g = Graph::from_edges(n, inserted).unwrap();
        let same = |got: Graph, want: Vec<Edge>| {
            let want = Graph::from_edges(n, want).unwrap();
            got == want && got.topology_hash() == want.topology_hash()
        };

        let kept = es.iter().copied().filter(|&(_, _, l)| l <= cut).collect();
        prop_assert!(same(g.latency_filtered(Latency::new(cut)), kept));

        let members: Vec<bool> = (0..n).map(|i| mask >> (i % 64) & 1 == 1).collect();
        let kept = es.iter().copied().filter(|&(u, v, _)| members[u] && members[v]).collect();
        prop_assert!(same(g.induced_subgraph(&members), kept));

        let mut calls = Vec::new();
        let mapped = g.map_latencies(|u, v, l| {
            calls.push((u.index(), v.index(), l.get()));
            Latency::new(l.get() + u32::try_from(calls.len()).unwrap())
        });
        prop_assert_eq!(&calls, &es);
        let want = (1u32..).zip(&es).map(|(k, &(u, v, l))| (u, v, l + k)).collect();
        prop_assert!(same(mapped, want));
    }

    /// map_latencies preserves topology exactly.
    #[test]
    fn map_latencies_preserves_topology((n, es) in edge_list(20), delta in 1u32..5) {
        let g = Graph::from_edges(n, es.iter().copied()).unwrap();
        let h = g.map_latencies(|_, _, l| Latency::new(l.get() + delta));
        prop_assert_eq!(h.edge_count(), g.edge_count());
        for (u, v, l) in g.edges() {
            prop_assert_eq!(h.latency(u, v), Some(Latency::new(l.get() + delta)));
        }
        prop_assert_eq!(g.is_connected(), h.is_connected());
    }
}

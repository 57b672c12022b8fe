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

/// How [`latency_case`] assigns latencies.
#[derive(Clone, Copy, Debug)]
enum Lats {
    /// Every edge has latency `c`.
    AllEqual,
    /// Independent per-edge latencies.
    PerEdge,
    /// Every edge has latency `c` except the last one inserted: the
    /// builder switches to per-edge storage on the final `add_edge`.
    AllButLast,
}

/// A graph on `1..=max_n` nodes (one-node and edgeless ones included)
/// as inserted — shuffled, random orientations — with latencies drawn
/// per [`Lats`].
fn latency_case(max_n: usize) -> impl Strategy<Value = (usize, Vec<Edge>, Lats)> {
    let mode = (0usize..3).prop_map(|k| [Lats::AllEqual, Lats::PerEdge, Lats::AllButLast][k]);
    (1..=max_n, mode, 1u32..6, any::<u64>()).prop_flat_map(|(n, mode, c, seed)| {
        prop::collection::vec((0..n, 0..n, 1u32..6), 0..3 * n).prop_map(move |raw| {
            let mut seen = std::collections::BTreeSet::new();
            let mut es: Vec<Edge> = raw
                .into_iter()
                .filter(|&(u, v, _)| u != v && seen.insert((u.min(v), u.max(v))))
                .collect();
            let mut rng = StdRng::seed_from_u64(seed);
            es.shuffle(&mut rng);
            let last = es.len().wrapping_sub(1);
            for (i, e) in es.iter_mut().enumerate() {
                e.2 = match mode {
                    Lats::PerEdge => e.2,
                    Lats::AllButLast if i == last => c + 1,
                    Lats::AllEqual | Lats::AllButLast => c,
                };
            }
            (n, es, mode)
        })
    })
}

/// The FNV fold [`Graph::topology_hash`] documents, over an oracle edge
/// list sorted ascending with `u < v`.
fn oracle_hash(n: usize, es: &[Edge]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ n as u64;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100_0000_01b3);
        h ^= h >> 29;
    };
    for &(u, v, l) in es {
        mix(u as u64);
        mix(v as u64);
        mix(u64::from(l));
    }
    h
}

/// Every accessor of `g` against the naive edge list `es` (sorted
/// ascending, `u < v`) over `n` nodes.
fn check_against_oracle(g: &Graph, n: usize, es: &[Edge]) -> Result<(), TestCaseError> {
    prop_assert_eq!(g.node_count(), n);
    prop_assert_eq!(g.edge_count(), es.len());
    prop_assert_eq!(plain(g), es.to_vec());
    let mut rows: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
    for &(u, v, l) in es {
        rows[u].push((v, l));
        rows[v].push((u, l));
    }
    for (v, row) in rows.iter_mut().enumerate() {
        row.sort_unstable();
        let id = NodeId::new(v);
        let ids: Vec<usize> = g.neighbor_ids(id).iter().map(|w| w.index()).collect();
        let lats: Vec<u32> = g.neighbor_latencies(id).iter().map(|l| l.get()).collect();
        prop_assert_eq!(lats.len(), g.degree(id));
        prop_assert_eq!(ids.into_iter().zip(lats).collect::<Vec<_>>(), row.clone());
        for w in 0..n {
            let want = row
                .iter()
                .find(|&&(x, _)| x == w)
                .map(|&(_, l)| Latency::new(l));
            prop_assert_eq!(g.latency(id, NodeId::new(w)), want);
        }
    }
    prop_assert_eq!(g.max_degree(), rows.iter().map(Vec::len).max().unwrap_or(0));
    let mut distinct: Vec<u32> = es.iter().map(|&(_, _, l)| l).collect();
    distinct.sort_unstable();
    distinct.dedup();
    prop_assert_eq!(g.max_latency().map(Latency::get), distinct.last().copied());
    let got: Vec<u32> = g.distinct_latencies().iter().map(|l| l.get()).collect();
    prop_assert_eq!(got, distinct);
    prop_assert_eq!(g.topology_hash(), oracle_hash(n, es));
    Ok(())
}

fn canonical(es: &[Edge]) -> Vec<Edge> {
    let mut es: Vec<Edge> = es
        .iter()
        .map(|&(u, v, l)| (u.min(v), u.max(v), l))
        .collect();
    es.sort_unstable();
    es
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Whether a graph stores one latency row or one latency per edge
    /// is invisible: every accessor, every derived graph and every
    /// error agrees with a naive edge-list oracle, whichever way the
    /// latencies were assigned.
    #[test]
    fn latency_representation_is_invisible(
        (n, inserted, mode) in latency_case(16),
        cut in 1u32..7,
        mask in any::<u64>(),
        dup in (any::<usize>(), any::<usize>()),
    ) {
        let es = canonical(&inserted);
        let g = Graph::from_edges(n, inserted.iter().copied()).unwrap();
        check_against_oracle(&g, n, &es)?;
        if let (Lats::AllButLast, Some(&(u, v, l))) = (mode, inserted.last()) {
            prop_assert_eq!(g.latency(NodeId::new(u), NodeId::new(v)), Some(Latency::new(l)));
        }

        // Into and out of one latency: equal to the graph built directly.
        let into: Vec<Edge> = es.iter().map(|&(u, v, _)| (u, v, 7)).collect();
        let g7 = g.map_latencies(|_, _, _| Latency::new(7));
        check_against_oracle(&g7, n, &into)?;
        prop_assert_eq!(&g7, &Graph::from_edges(n, into).unwrap());
        let out: Vec<Edge> = es.iter().map(|&(u, v, l)| (u, v, l + (u % 2) as u32)).collect();
        let back = g7.map_latencies(|u, v, _| {
            let (u, v) = (u.index(), v.index());
            Latency::new(es.iter().find(|e| (e.0, e.1) == (u, v)).unwrap().2 + (u % 2) as u32)
        });
        check_against_oracle(&back, n, &out)?;
        prop_assert_eq!(&back, &Graph::from_edges(n, out).unwrap());

        let kept: Vec<Edge> = es.iter().copied().filter(|&(_, _, l)| l <= cut).collect();
        check_against_oracle(&g.latency_filtered(Latency::new(cut)), n, &kept)?;
        let members: Vec<bool> = (0..n).map(|i| mask >> (i % 64) & 1 == 1).collect();
        let kept: Vec<Edge> = es.iter().copied().filter(|&(u, v, _)| members[u] && members[v]).collect();
        check_against_oracle(&g.induced_subgraph(&members), n, &kept)?;

        // A repeated edge is reported as the same pair whether the
        // repeat keeps the list at one latency or adds a second.
        if !inserted.is_empty() {
            let (u, v, l) = inserted[dup.0 % inserted.len()];
            let want = Err(GraphError::DuplicateEdge(NodeId::new(u.min(v)), NodeId::new(u.max(v))));
            for repeat in [l, l + 1] {
                let mut with_dup = inserted.clone();
                with_dup.insert(dup.1 % (inserted.len() + 1), (v, u, repeat));
                prop_assert_eq!(Graph::from_edges(n, with_dup), want.clone());
            }
        }
    }
}

/// Every row of `g` against every probe `v ∈ 0..n` (absent ids below,
/// inside and above each row included): the guessing
/// [`Graph::neighbor_index`] answers exactly what `binary_search` does.
fn check_neighbor_index(g: &Graph) -> Result<(), TestCaseError> {
    for u in g.nodes() {
        let row = g.neighbor_ids(u);
        for v in g.nodes() {
            prop_assert_eq!(
                g.neighbor_index(u, v),
                row.binary_search(&v).ok(),
                "row of {} (degree {}), probe {}",
                u.index(),
                row.len(),
                v.index()
            );
        }
    }
    Ok(())
}

/// A hub (node 0) whose row is skewed: ids `⌊(n − 1)·(i/k)^power⌋`
/// cluster at the low end and thin out toward the top, so an
/// interpolated guess lands far from its target; node `n − 1` is left
/// isolated (degree 0) unless the row reaches it.
fn skewed_hub(n: usize, k: usize, power: i32) -> Graph {
    let top = (n - 1) as f64;
    let mut ids: Vec<usize> = (1..=k)
        .map(|i| ((top - 1.0) * (i as f64 / k as f64).powi(power)) as usize + 1)
        .collect();
    ids.dedup();
    Graph::from_edges(n, ids.into_iter().map(|v| (0, v, 1))).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Arbitrary small graphs: degree 0 and 1 rows, random id gaps.
    #[test]
    fn neighbor_index_matches_binary_search((n, es) in edge_list(40)) {
        check_neighbor_index(&Graph::from_edges(n, es).unwrap())?;
    }

    /// Generator shapes with uneven rows: a star's hub (every id) and
    /// leaves (one), a path (degree ≤ 2), a ring of cliques (a dense
    /// block plus one far bridge id), a random geometric graph (ids
    /// clustered by location), and power-law-skewed hub rows with a
    /// random subset of gaps carved out.
    #[test]
    fn neighbor_index_matches_binary_search_on_skewed_rows(
        n in 3usize..160,
        k in 1usize..48,
        power in 1i32..6,
        s in 1usize..9,
        seed in any::<u64>(),
    ) {
        use latency_graph::generators;
        check_neighbor_index(&generators::star(n))?;
        check_neighbor_index(&generators::path(n))?;
        check_neighbor_index(&generators::ring_of_cliques(3 + n % 5, s, 2))?;
        check_neighbor_index(&generators::random_geometric(n, 0.2, 10.0, seed))?;
        check_neighbor_index(&skewed_hub(n, k, power))?;
        let mut rng = StdRng::seed_from_u64(seed);
        let gapped = (1..n).filter(|_| rng.random::<u32>() % 4 == 0).map(|v| (0, v, 1));
        check_neighbor_index(&Graph::from_edges(n, gapped).unwrap())?;
    }
}

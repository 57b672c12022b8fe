//! Adjacent-latency **discovery** (Section 4.2): measuring unknown edge
//! latencies in `Õ(D + Δ)` rounds.
//!
//! When nodes do not know the latencies of their incident edges, they
//! can measure them: "for `Δ` rounds, each node broadcasts a request to
//! each neighbor (sequentially) and then waits up to `D` rounds for a
//! response". An edge whose response has not returned after `D` rounds
//! has latency `> D` and is never useful. After discovery, the
//! known-latency algorithms (EID) apply — giving the
//! `O((D + Δ) log³ n)` branch of Theorem 20.

use gossip_sim::{Context, Exchange, Protocol, Round, Scheduling, SimConfig, Simulator};
use latency_graph::{Graph, Latency, NodeId};

/// Per-node discovery state.
#[derive(Clone, Debug)]
pub struct DiscoveryNode {
    /// Measured latencies for neighbors whose response returned, as
    /// `(neighbor, latency)` pairs in probe order.
    pub measured: Vec<(NodeId, Latency)>,
    cursor: usize,
}

impl Protocol for DiscoveryNode {
    // Latency probing pings outstanding neighbors every round.
    const SCHEDULING: Scheduling = Scheduling::EveryRound;

    type Payload = ();

    fn payload(&self) {}

    fn on_round(&mut self, ctx: &mut Context<'_>) {
        // Probe each neighbor once, one per round.
        if self.cursor < ctx.degree() {
            let v = ctx.neighbor_ids()[self.cursor];
            self.cursor += 1;
            ctx.initiate(v);
        }
    }

    fn on_exchange(&mut self, _ctx: &mut Context<'_>, x: &Exchange<()>) {
        if x.initiated_by_me {
            self.measured.push((x.peer, x.measured_latency()));
        }
    }
}

/// The result of a discovery run.
#[derive(Clone, Debug)]
pub struct DiscoveryOutcome {
    /// Rounds consumed: `Δ + D_cap` (probe phase plus waiting window).
    pub rounds: Round,
    /// Per-node measured adjacency `(neighbor, latency)`, containing
    /// exactly the incident edges of latency `≤ D_cap`.
    pub measured: Vec<Vec<(NodeId, Latency)>>,
    /// Whether every edge of the graph was measured (true iff
    /// `ℓ_max ≤ D_cap`).
    pub complete: bool,
}

impl DiscoveryOutcome {
    /// Materializes the measured edges as a graph (the working graph
    /// for a subsequent known-latency algorithm).
    pub fn to_graph(&self, n: usize) -> Graph {
        let mut edges = std::collections::BTreeSet::new();
        for (i, list) in self.measured.iter().enumerate() {
            for &(v, l) in list {
                let (a, b) = if i < v.index() {
                    (i, v.index())
                } else {
                    (v.index(), i)
                };
                edges.insert((a, b, l.get()));
            }
        }
        Graph::from_edges(n, edges).expect("measured edges are valid")
    }
}

/// Runs latency discovery with waiting window `d_cap` (the current
/// diameter guess): every node probes each neighbor once and keeps the
/// responses that return within the window.
///
/// Completes in exactly `Δ + d_cap` rounds.
///
/// # Panics
///
/// Panics if `d_cap == 0`.
pub fn discover_latencies(g: &Graph, d_cap: u64) -> DiscoveryOutcome {
    assert!(d_cap >= 1, "waiting window must be positive");
    let delta = u64::try_from(g.max_degree()).expect("degree fits u64");
    let horizon = delta + d_cap;
    let cfg = SimConfig {
        max_rounds: horizon,
        ..SimConfig::default()
    };
    let out = Simulator::new(g, cfg).run(
        |_, _| DiscoveryNode {
            measured: Vec::new(),
            cursor: 0,
        },
        |_, _| false,
    );
    // Keep only responses that returned within d_cap of their probe —
    // i.e. edges of latency ≤ d_cap. (The simulation horizon already
    // drops most; filter makes the window exact per probe.)
    let measured: Vec<Vec<(NodeId, Latency)>> = out
        .nodes
        .into_iter()
        .map(|n| {
            n.measured
                .into_iter()
                .filter(|&(_, l)| l.rounds() <= d_cap)
                .collect()
        })
        .collect();
    let total_measured: usize = measured.iter().map(Vec::len).sum();
    DiscoveryOutcome {
        rounds: horizon,
        complete: total_measured == 2 * g.edge_count(),
        measured,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latency_graph::generators;

    #[test]
    fn measures_all_latencies_with_generous_window() {
        let base = generators::connected_erdos_renyi(20, 0.3, 1).expect("connected sample");
        let g = generators::uniform_random_latencies(&base, 1, 8, 2);
        let out = discover_latencies(&g, 16);
        assert!(out.complete);
        for v in g.nodes() {
            for &(u, l) in &out.measured[v.index()] {
                assert_eq!(g.latency(v, u), Some(l), "measured latency must match edge");
            }
            assert_eq!(out.measured[v.index()].len(), g.degree(v));
        }
    }

    #[test]
    fn window_excludes_slow_edges() {
        let g = Graph::from_edges(3, [(0, 1, 2), (1, 2, 50)]).unwrap();
        let out = discover_latencies(&g, 10);
        assert!(!out.complete);
        assert_eq!(out.measured[0], vec![(NodeId::new(1), Latency::new(2))]);
        assert!(
            out.measured[2].is_empty(),
            "latency-50 edge exceeds the window"
        );
    }

    #[test]
    fn rounds_are_delta_plus_window() {
        let g = generators::star(10); // Δ = 9
        let out = discover_latencies(&g, 5);
        assert_eq!(out.rounds, 9 + 5);
    }

    #[test]
    fn to_graph_round_trips() {
        let base = generators::cycle(12);
        let g = generators::uniform_random_latencies(&base, 1, 4, 7);
        let out = discover_latencies(&g, 8);
        assert!(out.complete);
        assert_eq!(out.to_graph(12), g);
    }

    #[test]
    fn discovered_subgraph_feeds_eid() {
        // The Section 4.2 pipeline: discover, then run EID on what was
        // measured.
        let base = generators::cycle(10);
        let g = generators::uniform_random_latencies(&base, 1, 3, 4);
        let d = latency_graph::metrics::weighted_diameter(&g);
        let disc = discover_latencies(&g, d);
        assert!(disc.complete);
        let working = disc.to_graph(10);
        let out = crate::eid::eid(
            &working,
            &crate::eid::EidConfig {
                diameter: d,
                seed: 1,
                ..Default::default()
            },
        );
        assert!(out.complete);
    }

    use latency_graph::Graph;
}

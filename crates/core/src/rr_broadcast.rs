//! **RR Broadcast** (Algorithm 2, Lemma 15): deterministic round-robin
//! flooding over a *directed spanner*.
//!
//! Each node repeatedly activates its out-edges of latency `≤ k`
//! one-by-one in round-robin order, merging every rumor set it sees.
//! Lemma 15: after `k·Δ_out + k` rounds, any two nodes at distance
//! `≤ k` in the spanner have exchanged rumors — on a stretch-`σ`
//! spanner of a diameter-`D` graph, `k = σ·D` yields all-to-all
//! dissemination (Corollary 16).

use gossip_sim::{Context, Exchange, Protocol, Round, RumorSet, Scheduling, SimConfig, Simulator};
use latency_graph::{DiGraph, Graph, NodeId};

use crate::common::latency_cap;

/// A node's round-robin sweep over its out-neighbors (Algorithm 2's
/// schedule, which the termination check reuses): one initiation a
/// round, cycling through the list in order.
#[derive(Clone, Debug)]
pub(crate) struct RoundRobin {
    out: Vec<NodeId>,
    cursor: usize,
}

impl RoundRobin {
    pub(crate) fn new(out: Vec<NodeId>) -> RoundRobin {
        RoundRobin { out, cursor: 0 }
    }

    /// Initiates with the next out-neighbor, if the node has any.
    pub(crate) fn step(&mut self, ctx: &mut Context<'_>) {
        if self.out.is_empty() {
            return;
        }
        let v = self.out[self.cursor % self.out.len()];
        self.cursor += 1;
        ctx.initiate(v);
    }
}

/// The RR Broadcast protocol node.
#[derive(Clone, Debug)]
pub struct RrNode {
    /// Current rumor set (copy-on-write; payload snapshots are free).
    pub rumors: RumorSet,
    schedule: RoundRobin,
}

impl RrNode {
    /// Creates a node with the given initial rumors and eligible
    /// out-neighbors.
    pub fn new(rumors: RumorSet, out: Vec<NodeId>) -> RrNode {
        RrNode {
            rumors,
            schedule: RoundRobin::new(out),
        }
    }
}

impl Protocol for RrNode {
    // Round-robin spanner flooding initiates every round until its
    // neighbor sweep completes; it predates the wakeup API.
    const SCHEDULING: Scheduling = Scheduling::EveryRound;

    type Payload = RumorSet;

    fn payload(&self) -> RumorSet {
        self.rumors.snapshot()
    }

    fn payload_weight(payload: &RumorSet) -> u64 {
        u64::try_from(payload.len()).expect("rumor count fits u64")
    }

    fn on_round(&mut self, ctx: &mut Context<'_>) {
        self.schedule.step(ctx);
    }

    fn on_exchange(&mut self, _ctx: &mut Context<'_>, x: &Exchange<RumorSet>) {
        self.rumors.union_with(&x.payload);
    }
}

/// Outcome of an RR Broadcast run.
#[derive(Clone, Debug)]
pub struct RrOutcome {
    /// Final per-node rumor sets.
    pub rumors: Vec<RumorSet>,
    /// Rounds charged (the Lemma 15 budget, unless `charge_actual`).
    pub rounds: Round,
    /// Whether every node's rumor set was full at the end.
    pub all_full: bool,
    /// The Lemma 15 budget that was used: `k·Δ_out + k`.
    pub budget: Round,
    /// Simulator counters (exchanges, payload units).
    pub metrics: gossip_sim::SimMetrics,
}

/// The round-robin schedule of parameter `k`: each node's spanner
/// out-neighbors over arcs of latency `≤ k`, in arc order.
pub(crate) fn out_arcs(spanner: &DiGraph, k: u64) -> Vec<Vec<NodeId>> {
    let k_lat = latency_cap(k);
    (0..spanner.node_count())
        .map(|i| {
            spanner
                .out_neighbors(NodeId::new(i))
                .iter()
                .filter(|&&(_, l)| l <= k_lat)
                .map(|&(v, _)| v)
                .collect()
        })
        .collect()
}

/// The Lemma 15 round budget `k·Δ_out + k` for parameter `k` on the
/// given spanner (using only arcs of latency `≤ k`).
pub fn budget(spanner: &DiGraph, k: u64) -> Round {
    let max_out = out_arcs(spanner, k).iter().map(Vec::len).max().unwrap_or(0);
    let max_out = u64::try_from(max_out).expect("out-degree fits u64");
    k * max_out + k
}

/// Runs RR Broadcast with parameter `k` over `spanner` (arcs restricted
/// to latency `≤ k`), starting from the given rumor states, for the
/// Lemma 15 budget.
///
/// If `charge_actual` is true and all rumor sets fill early, the actual
/// round count is reported instead of the budget.
///
/// # Panics
///
/// Panics if `states.len() != n`, if `k == 0`, or if the spanner has a
/// different node count than `g`.
pub fn run(
    g: &Graph,
    spanner: &DiGraph,
    k: u64,
    states: Vec<RumorSet>,
    charge_actual: bool,
) -> RrOutcome {
    assert!(k >= 1, "parameter k must be positive");
    assert_eq!(states.len(), g.node_count(), "one rumor set per node");
    assert_eq!(
        spanner.node_count(),
        g.node_count(),
        "spanner must cover the graph"
    );
    let rounds_budget = budget(spanner, k);
    let mut out_lists = out_arcs(spanner, k);
    let mut slots: Vec<Option<RumorSet>> = states.into_iter().map(Some).collect();
    let cfg = SimConfig {
        max_rounds: rounds_budget,
        ..SimConfig::default()
    };
    let stop_full = charge_actual;
    let out = Simulator::new(g, cfg).run(
        |id, _| {
            RrNode::new(
                slots[id.index()].take().expect("state taken once"),
                std::mem::take(&mut out_lists[id.index()]),
            )
        },
        |nodes: &[RrNode], _| stop_full && nodes.iter().all(|p| p.rumors.is_full()),
    );
    let all_full = out.nodes.iter().all(|p| p.rumors.is_full());
    let rounds = if charge_actual {
        out.rounds
    } else {
        rounds_budget
    };
    RrOutcome {
        rumors: out.nodes.into_iter().map(|p| p.rumors).collect(),
        rounds,
        all_full,
        budget: rounds_budget,
        metrics: out.metrics,
    }
}

/// Fresh singleton rumor states for `n` nodes.
pub fn fresh_states(n: usize) -> Vec<RumorSet> {
    (0..n)
        .map(|i| RumorSet::singleton(n, NodeId::new(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use baswana_sen::{build_spanner, SpannerConfig};
    use latency_graph::{generators, metrics, Latency};

    /// Orient a graph's own edges from the lower id (an identity
    /// "spanner" for testing).
    fn identity_spanner(g: &Graph) -> DiGraph {
        DiGraph::from_arcs(
            g.node_count(),
            g.edges().map(|(u, v, l)| (u.index(), v.index(), l.get())),
        )
    }

    #[test]
    fn lemma15_budget_formula() {
        let d = DiGraph::from_arcs(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)]);
        // Δout = 3, k = 5 ⇒ 5·3 + 5 = 20.
        assert_eq!(budget(&d, 5), 20);
        // With k = 1 the latency-1 arcs still qualify: 1·3+1 = 4.
        assert_eq!(budget(&d, 1), 4);
    }

    #[test]
    fn budget_ignores_slow_arcs() {
        let d = DiGraph::from_arcs(3, [(0, 1, 1), (0, 2, 50)]);
        assert_eq!(budget(&d, 2), 4); // 2·Δout(1) + 2
    }

    #[test]
    fn path_all_to_all_within_budget() {
        let g = generators::path(10);
        let sp = identity_spanner(&g);
        let k = metrics::weighted_diameter(&g);
        let out = run(&g, &sp, k, fresh_states(10), false);
        assert!(
            out.all_full,
            "all-to-all must complete within the Lemma 15 budget"
        );
        assert_eq!(out.rounds, out.budget);
    }

    #[test]
    fn distance_k_pairs_exchange_within_budget() {
        // Lemma 15 exactly: pairs at distance ≤ k exchange, pairs
        // further may not.
        let g = generators::path(30);
        let sp = identity_spanner(&g);
        let k = 5;
        let out = run(&g, &sp, k, fresh_states(30), false);
        // Node 0 and node 5 are at distance 5 = k.
        assert!(out.rumors[0].contains(NodeId::new(5)));
        assert!(out.rumors[5].contains(NodeId::new(0)));
        assert!(!out.all_full);
    }

    #[test]
    fn works_on_real_spanner() {
        let g = generators::connected_erdos_renyi(40, 0.25, 3).expect("connected sample");
        let sp = build_spanner(
            &g,
            &SpannerConfig {
                k: 3,
                seed: 1,
                ..Default::default()
            },
        );
        let d = metrics::weighted_diameter(&g);
        let k = d * sp.stretch_bound as u64;
        let out = run(&g, &sp.spanner, k, fresh_states(40), true);
        assert!(out.all_full);
        assert!(out.rounds <= out.budget);
    }

    #[test]
    fn weighted_edges_respected() {
        // Path with latency-3 edges: k must cover weighted distance.
        let g = generators::path(6).map_latencies(|_, _, _| Latency::new(3));
        let sp = identity_spanner(&g);
        let too_small = run(&g, &sp, 3, fresh_states(6), false);
        assert!(!too_small.all_full);
        let enough = run(&g, &sp, 15, fresh_states(6), false);
        assert!(enough.all_full);
    }

    #[test]
    fn charge_actual_stops_early() {
        let g = generators::clique(12);
        let sp = identity_spanner(&g);
        let fixed = run(&g, &sp, 12, fresh_states(12), false);
        let actual = run(&g, &sp, 12, fresh_states(12), true);
        assert!(actual.all_full && fixed.all_full);
        assert!(actual.rounds <= fixed.rounds);
    }

    #[test]
    fn carried_states_merge() {
        // Start node 0 already knowing everything: one RR round spreads
        // a lot.
        let g = generators::star(8);
        let sp = identity_spanner(&g);
        let mut states = fresh_states(8);
        states[0] = RumorSet::full(8);
        let out = run(&g, &sp, 2, states, false);
        assert!(out.rumors.iter().filter(|r| r.is_full()).count() >= 2);
    }
}

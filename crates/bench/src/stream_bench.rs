//! The `bench-stream` mode of the experiments binary: completion-time
//! curves for the multi-rumor streaming workload, emitted as
//! `BENCH_stream.json` so CI can archive the selection-policy
//! comparison next to the engine and network baselines.
//!
//! The grid is rumor count `k ∈ {1, 16, 256}` × per-direction budget
//! `b ∈ {1, 4, 16}` × topology (64-node clique, 64-node layered ring,
//! Theorem 7 gadget), each cell run under both selection policies:
//! round-robin (`rr`) and random-linear-combination algebraic gossip
//! (`rlc`). The headline number per cell is rounds-to-all-delivered —
//! the round by which *every* rumor has reached *every* node.
//!
//! The interesting regime is high `k` / low `b`: round-robin wastes
//! budget re-sending rumors the peer already holds, while every RLC
//! combination is useful to any peer below full rank, so `rlc` should
//! win there. [`run`] asserts that at least one such cell does, making
//! a policy regression loud in CI.

use std::fmt::Write as _;
use std::time::Instant;

use gossip_core::stream::{self, StreamConfig, StreamOutcome};
use gossip_sim::{EngineMode, StreamSpec};
use latency_graph::generators;
use latency_graph::Graph;

use crate::engine_bench::layered_ring_exact;

/// Node count shared by all three topologies (the Theorem 7 gadget has
/// `2m` nodes, so its `m` is half this).
pub const STREAM_N: usize = 64;

/// Rumor-universe sizes the grid sweeps.
pub const RUMOR_COUNTS: [usize; 3] = [1, 16, 256];

/// Per-direction payload budgets the grid sweeps.
pub const BUDGETS: [usize; 3] = [1, 4, 16];

/// Topologies the grid sweeps.
pub const TOPOLOGIES: [&str; 3] = ["clique", "layered-ring", "theorem7"];

/// Round cap: generous — the slowest cell (`k = 256`, `b = 1` on the
/// gadget's latency-64 slow edges) finishes three orders of magnitude
/// below it.
const MAX_ROUNDS: u64 = 1_000_000;

/// Builds the named streaming topology at [`STREAM_N`] nodes.
///
/// # Panics
///
/// Panics on an unknown topology name.
pub fn stream_graph(topology: &str, seed: u64) -> Graph {
    match topology {
        "clique" => generators::clique(STREAM_N),
        // Thin layers, moderately slow cross edges: the wavefront
        // regime where budget pressure shows up as a long pipeline.
        "layered-ring" => layered_ring_exact(STREAM_N, 4, 8, seed).graph,
        // G(Random_φ): two m-cliques, each cross edge fast (ℓ = 4)
        // w.p. φ = 0.1 and slow (latency 2m = 64) otherwise.
        "theorem7" => generators::theorem7_network(STREAM_N / 2, 0.1, 4, seed).graph,
        other => panic!("unknown stream topology {other}"),
    }
}

/// One measured cell: a single policy on one (topology, k, budget).
#[derive(Clone, Debug)]
pub struct StreamPoint {
    /// Topology name from [`TOPOLOGIES`].
    pub topology: &'static str,
    /// Selection policy: `"rr"` or `"rlc"`.
    pub policy: &'static str,
    /// Node count.
    pub n: usize,
    /// Rumor-universe size.
    pub k: usize,
    /// Per-direction payload budget.
    pub budget: usize,
    /// Rounds until every rumor reached every node.
    pub rounds: u64,
    /// Round by which each rumor individually had reached every node.
    pub completions: Vec<u64>,
    /// Total rumor-payload units delivered.
    pub payload_units: u64,
    /// Exchanges delivered.
    pub delivered: u64,
    /// Wall-clock seconds of the simulation.
    pub secs: f64,
}

/// Runs one cell under one policy and returns the measurement.
///
/// # Panics
///
/// Panics if the run hits the round cap before full delivery — every
/// grid cell must complete.
pub fn measure_stream(
    topology: &'static str,
    policy: &'static str,
    k: usize,
    budget: usize,
) -> StreamPoint {
    let g = stream_graph(topology, 1);
    let spec = StreamSpec::spread(k, budget, g.node_count());
    let cfg = StreamConfig {
        max_rounds: MAX_ROUNDS,
        mode: EngineMode::Frontier,
        ..StreamConfig::default()
    };
    let start = Instant::now();
    let out: StreamOutcome = match policy {
        "rr" => stream::rr_stream(&g, &spec, &cfg, 0x5eed),
        "rlc" => stream::rlc_stream(&g, &spec, &cfg, 0x5eed),
        other => panic!("unknown policy {other}"),
    };
    let secs = start.elapsed().as_secs_f64();
    assert!(
        out.complete,
        "{topology}/{policy} k={k} b={budget}: cap hit before full delivery"
    );
    let completions = out
        .completions
        .iter()
        .map(|c| c.expect("complete run has every completion round"))
        .collect();
    StreamPoint {
        topology,
        policy,
        n: g.node_count(),
        k,
        budget,
        rounds: out.rounds,
        completions,
        payload_units: out.metrics.payload_units,
        delivered: out.metrics.delivered,
        secs,
    }
}

/// Runs the full grid (both policies on every cell) and renders the
/// `BENCH_stream.json` document.
///
/// # Panics
///
/// Panics unless `rlc` strictly beats `rr` on rounds-to-all-delivered
/// in at least one high-`k`/low-budget cell (`k ≥ 256`, `b = 1`) — the
/// algebraic policy's raison d'être; a regression here fails CI.
pub fn run() -> String {
    let mut points = Vec::new();
    for &topology in &TOPOLOGIES {
        for &k in &RUMOR_COUNTS {
            for &budget in &BUDGETS {
                for policy in ["rr", "rlc"] {
                    points.push(measure_stream(topology, policy, k, budget));
                }
            }
        }
    }
    let rlc_wins_high_k = points.iter().any(|rlc| {
        rlc.policy == "rlc"
            && rlc.k >= 256
            && rlc.budget == 1
            && points.iter().any(|rr| {
                rr.policy == "rr"
                    && (rr.topology, rr.k, rr.budget) == (rlc.topology, rlc.k, rlc.budget)
                    && rlc.rounds < rr.rounds
            })
    });
    assert!(
        rlc_wins_high_k,
        "rlc no longer beats rr on any high-k/low-budget cell"
    );
    to_json(&points)
}

/// Renders measurements as a small, dependency-free JSON document.
pub fn to_json(points: &[StreamPoint]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"bench\": \"stream/multi_rumor\",\n");
    s.push_str(
        "  \"workload\": \"k-rumor streaming to all nodes under a per-exchange payload budget\",\n",
    );
    s.push_str("  \"unit\": \"rounds until every rumor reached every node\",\n");
    s.push_str("  \"cells\": [\n");
    for (i, p) in points.iter().enumerate() {
        let last = p.completions.iter().copied().max().unwrap_or(0);
        let _ = writeln!(
            s,
            "    {{\"topology\": \"{}\", \"policy\": \"{}\", \"n\": {}, \"k\": {}, \"budget\": {}, \
             \"rounds\": {}, \"last_completion\": {}, \"payload_units\": {}, \"delivered\": {}, \
             \"secs\": {:.6}}}{}",
            p.topology,
            p.policy,
            p.n,
            p.k,
            p.budget,
            p.rounds,
            last,
            p.payload_units,
            p.delivered,
            p.secs,
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n");
    // The policy comparison CI cares about: per (topology, k, budget),
    // round-robin rounds over RLC rounds (> 1 means RLC finished
    // first).
    s.push_str("  \"rr_over_rlc_rounds\": [\n");
    let rlcs: Vec<&StreamPoint> = points.iter().filter(|p| p.policy == "rlc").collect();
    for (i, rlc) in rlcs.iter().enumerate() {
        let rr = points
            .iter()
            .find(|p| {
                p.policy == "rr" && (p.topology, p.k, p.budget) == (rlc.topology, rlc.k, rlc.budget)
            })
            .expect("every rlc cell has an rr twin");
        let _ = writeln!(
            s,
            "    {{\"topology\": \"{}\", \"k\": {}, \"budget\": {}, \"rr_rounds\": {}, \
             \"rlc_rounds\": {}, \"ratio\": {:.2}}}{}",
            rlc.topology,
            rlc.k,
            rlc.budget,
            rr.rounds,
            rlc.rounds,
            rr.rounds as f64 / rlc.rounds as f64,
            if i + 1 < rlcs.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use latency_graph::generators::extra;

    #[test]
    fn stream_graphs_are_connected_and_sized() {
        for topology in TOPOLOGIES {
            let g = stream_graph(topology, 1);
            assert_eq!(g.node_count(), STREAM_N, "{topology}");
            assert!(g.is_connected(), "{topology}");
        }
    }

    #[test]
    fn measure_completes_a_small_cell() {
        let p = measure_stream("clique", "rr", 4, 2);
        assert_eq!((p.n, p.k, p.budget), (STREAM_N, 4, 2));
        assert!(p.rounds > 0);
        assert_eq!(p.completions.len(), 4);
        assert!(p.completions.iter().all(|&c| c <= p.rounds));
    }

    #[test]
    fn json_shape_is_stable() {
        let points = [
            StreamPoint {
                topology: "clique",
                policy: "rr",
                n: 64,
                k: 16,
                budget: 1,
                rounds: 40,
                completions: vec![30, 40],
                payload_units: 1000,
                delivered: 500,
                secs: 0.25,
            },
            StreamPoint {
                topology: "clique",
                policy: "rlc",
                n: 64,
                k: 16,
                budget: 1,
                rounds: 20,
                completions: vec![18, 20],
                payload_units: 900,
                delivered: 450,
                secs: 0.25,
            },
        ];
        let j = to_json(&points);
        assert!(j.contains("\"bench\": \"stream/multi_rumor\""));
        assert!(j.contains("\"policy\": \"rr\""));
        assert!(j.contains("\"last_completion\": 40"));
        assert!(j.contains("\"rr_over_rlc_rounds\""));
        assert!(j.contains("\"ratio\": 2.00"));
        assert!(!j.contains(",\n  ]"), "no trailing comma: {j}");
    }

    #[test]
    fn ring_of_cliques_also_streams() {
        // Not part of the committed grid (the golden suite pins it),
        // but the generator must stay compatible with the bench entry
        // points.
        let g = extra::ring_of_cliques(3, 4, 2);
        let spec = StreamSpec::spread(4, 2, g.node_count());
        let cfg = StreamConfig {
            max_rounds: MAX_ROUNDS,
            mode: EngineMode::Frontier,
            ..StreamConfig::default()
        };
        let out = stream::rr_stream(&g, &spec, &cfg, 7);
        assert!(out.complete);
    }
}

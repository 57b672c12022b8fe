//! E24 — multi-rumor streaming under a per-exchange payload budget:
//! round-robin (`rr`) against random-linear-combination algebraic
//! gossip (`rlc`).

use gossip_core::stream::{self, StreamConfig, StreamOutcome};
use gossip_sim::StreamSpec;
use latency_graph::{generators, Graph};

use crate::graphs::layered_ring_exact;
use crate::table::Table;

/// Node count shared by all three topologies (the Theorem 7 gadget has
/// `2m` nodes, so its `m` is half this).
const STREAM_N: usize = 64;

const RUMOR_COUNTS: [usize; 3] = [1, 16, 256];
const BUDGETS: [usize; 3] = [1, 4, 16];

/// Round cap: the slowest cell (`k = 256`, `b = 1` on the gadget's
/// latency-64 slow edges) finishes three orders of magnitude below it.
const MAX_ROUNDS: u64 = 1_000_000;

fn stream_graphs() -> [(&'static str, Graph); 3] {
    [
        ("clique", generators::clique(STREAM_N)),
        // Thin layers, moderately slow cross edges: the wavefront
        // regime where budget pressure shows up as a long pipeline.
        ("layered-ring", layered_ring_exact(STREAM_N, 4, 8, 1).graph),
        // G(Random_φ): two m-cliques, each cross edge fast (ℓ = 4)
        // w.p. φ = 0.1 and slow (latency 2m = 64) otherwise.
        (
            "theorem7",
            generators::theorem7_network(STREAM_N / 2, 0.1, 4, 1).graph,
        ),
    ]
}

/// Runs one cell under both policies, `(rr, rlc)`.
///
/// # Panics
///
/// Panics if either run hits the round cap before full delivery —
/// every grid cell must complete.
fn run_cell(g: &Graph, k: usize, budget: usize) -> (StreamOutcome, StreamOutcome) {
    let spec = StreamSpec::spread(k, budget, g.node_count());
    let cfg = StreamConfig {
        max_rounds: MAX_ROUNDS,
        ..StreamConfig::default()
    };
    let rr = stream::rr_stream(g, &spec, &cfg, 0x5eed);
    let rlc = stream::rlc_stream(g, &spec, &cfg, 0x5eed);
    assert!(
        rr.complete && rlc.complete,
        "k={k} b={budget}: cap hit before full delivery"
    );
    (rr, rlc)
}

/// E24 — rumor count `k ∈ {1, 16, 256}` × per-direction budget
/// `b ∈ {1, 4, 16}` × topology (64-node clique, 64-node layered ring,
/// Theorem 7 gadget), each cell under both selection policies. The
/// headline number per cell is rounds-to-all-delivered: the round by
/// which *every* rumor has reached *every* node.
pub fn e24_stream_grid() -> Table {
    let mut t = Table::new(
        "E24 — k-rumor streaming under budget b: round-robin vs GF(2) random linear combinations",
        &[
            "topology",
            "k",
            "b",
            "rr rounds",
            "rlc rounds",
            "rr/rlc",
            "rr units",
            "rlc units",
            "rr delivered",
            "rlc delivered",
        ],
    );
    for (topology, g) in stream_graphs() {
        for k in RUMOR_COUNTS {
            for budget in BUDGETS {
                let (rr, rlc) = run_cell(&g, k, budget);
                t.row(vec![
                    topology.into(),
                    k.to_string(),
                    budget.to_string(),
                    rr.rounds.to_string(),
                    rlc.rounds.to_string(),
                    format!("{:.2}", rr.rounds as f64 / rlc.rounds as f64),
                    rr.metrics.payload_units.to_string(),
                    rlc.metrics.payload_units.to_string(),
                    rr.metrics.delivered.to_string(),
                    rlc.metrics.delivered.to_string(),
                ]);
            }
        }
    }
    t.note("rounds = round by which every rumor reached every node (n = 64); units = rumor-payload units delivered, both directions; delivered = exchanges");
    t.note("expectation: at k = 1 the budget never binds and the policies tie; at high k / low b round-robin re-sends rumors the peer already holds while every rlc combination is useful to any peer below full rank, so rlc needs several-fold fewer rounds");
    t.note("read against Haeupler (arXiv:1205.6961): uniform algebraic gossip delivers k messages in O((k + log n + D)·Δ) rounds on any graph — k enters additively, so with b combinations per exchange the rlc column should fall like k/b until a topology term takes over");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_graphs_are_connected_and_sized() {
        for (topology, g) in stream_graphs() {
            assert_eq!(g.node_count(), STREAM_N, "{topology}");
            assert!(g.is_connected(), "{topology}");
        }
    }

    #[test]
    fn rlc_beats_rr_at_high_k_low_budget() {
        // The algebraic policy's raison d'être, on the grid's cheapest
        // k = 256, b = 1 cell (EXPERIMENTS.md E24 records 1137 vs 148).
        let (rr, rlc) = run_cell(&generators::clique(STREAM_N), 256, 1);
        assert_eq!((rr.rounds, rlc.rounds), (1137, 148));
        assert!(rlc.rounds < rr.rounds);
    }
}

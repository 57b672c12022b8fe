//! Randomized **Superstep** local broadcast (Censor-Hillel et al. \[1\])
//! — the alternative to DTG that the paper cites (Appendix C: "the
//! (randomized) Superstep algorithm by Censor-Hillel et al. and the
//! Deterministic Tree Gossip algorithm by Haeupler solve this problem").
//!
//! Each round, every node that has not yet heard from all of its `≤ ℓ`
//! neighbors initiates an exchange with a *uniformly random unheard*
//! neighbor; payloads carry the accumulated data and origin set exactly
//! as in [`crate::dtg`]. The original analysis gives `O(log³ n)` rounds
//! for unit latencies (a log factor worse than DTG); because it needs no
//! global schedule, it is simpler and naturally latency-adaptive — the
//! `ℓ`-variant just restricts the neighbor pool and lets exchanges
//! complete at their own pace.
//!
//! Provided for the DTG-vs-Superstep ablation (experiment E21) and as a
//! drop-in [`Mergeable`]-generic local-broadcast primitive.

use gossip_sim::{Context, Exchange, Protocol, Round, Scheduling};
use latency_graph::{Graph, Latency, NodeId};
use rand::Rng as _;

use crate::common::{BroadcastOutcome, Mergeable};
use crate::dtg::{self, DtgPhaseOutcome, DtgState};

/// The Superstep protocol node.
#[derive(Clone, Debug)]
pub struct SuperstepNode<M> {
    state: DtgState<M>,
    ell: Latency,
    fast: Vec<NodeId>,
}

impl<M: Mergeable> SuperstepNode<M> {
    /// Creates a node from carried-over state.
    pub fn new(state: DtgState<M>, ell: Latency) -> SuperstepNode<M> {
        SuperstepNode {
            state,
            ell,
            fast: Vec::new(),
        }
    }

    /// Consumes the node, returning its state.
    pub fn into_state(self) -> DtgState<M> {
        self.state
    }

    fn unheard(&self) -> Vec<NodeId> {
        self.fast
            .iter()
            .copied()
            .filter(|&v| !self.state.heard.contains(v))
            .collect()
    }
}

impl<M: Mergeable> Protocol for SuperstepNode<M> {
    // The superstep state machine advances unconditionally each round,
    // so the node must be stepped every round.
    const SCHEDULING: Scheduling = Scheduling::EveryRound;

    type Payload = DtgState<M>;

    fn payload(&self) -> DtgState<M> {
        self.state.clone()
    }

    fn payload_weight(payload: &DtgState<M>) -> u64 {
        payload.data.weight()
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.fast = dtg::fast_neighbors(ctx, self.ell);
    }

    fn on_round(&mut self, ctx: &mut Context<'_>) {
        let unheard = self.unheard();
        if unheard.is_empty() {
            return;
        }
        let i = ctx.rng().random_range(0..unheard.len());
        ctx.initiate(unheard[i]);
    }

    fn on_exchange(&mut self, _ctx: &mut Context<'_>, x: &Exchange<DtgState<M>>) {
        self.state.absorb(x.peer, &x.payload);
    }

    fn is_done(&self) -> bool {
        self.state.heard_all(&self.fast)
    }
}

/// Runs Superstep `ℓ`-local broadcast over carried-in states until all
/// nodes are done or `max_rounds` elapse; `rounds` is the actual count.
///
/// # Panics
///
/// Panics if `states.len() != n`.
pub fn run_phase<M: Mergeable>(
    g: &Graph,
    ell: Latency,
    states: Vec<DtgState<M>>,
    max_rounds: Round,
    seed: u64,
) -> DtgPhaseOutcome<M> {
    dtg::run_nodes(
        g,
        states,
        max_rounds,
        seed,
        |s| SuperstepNode::new(s, ell),
        SuperstepNode::into_state,
    )
}

/// Standalone Superstep `ℓ`-local broadcast with rumor payloads.
pub fn local_broadcast(g: &Graph, ell: Latency, seed: u64) -> BroadcastOutcome {
    let n = g.node_count();
    // Generous cap: O(ℓ log³ n) with slack.
    // ceil(log2 n) computed exactly in integers: next_power_of_two().ilog2().
    let logn = u64::from(n.max(2).next_power_of_two().ilog2()) + 1;
    let cap = 64 * ell.rounds() * logn * logn * logn;
    run_phase(g, ell, dtg::fresh_states(n), cap, seed).into_broadcast()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtg;
    use latency_graph::generators;

    #[test]
    fn completes_on_unit_families() {
        for g in [
            generators::clique(32),
            generators::star(32),
            generators::cycle(32),
        ] {
            let o = local_broadcast(&g, Latency::UNIT, 1);
            assert!(o.complete);
            assert!(dtg::verify_local_broadcast(&g, Latency::UNIT, &o.rumors));
        }
    }

    #[test]
    fn respects_latency_threshold() {
        let g = latency_graph::Graph::from_edges(
            6,
            [
                (0, 1, 1),
                (1, 2, 1),
                (0, 2, 1),
                (3, 4, 1),
                (4, 5, 1),
                (3, 5, 1),
                (2, 3, 9),
            ],
        )
        .unwrap();
        let o = local_broadcast(&g, Latency::UNIT, 2);
        assert!(o.complete);
        assert!(
            !o.rumors[2].contains(NodeId::new(3)),
            "slow bridge must be ignored"
        );
    }

    #[test]
    fn rounds_polylog_on_clique() {
        let g = generators::clique(128);
        let o = local_broadcast(&g, Latency::UNIT, 3);
        assert!(o.complete);
        let logn = (128f64).log2();
        assert!(
            (o.rounds as f64) <= 8.0 * logn * logn * logn,
            "rounds {} vs log³n",
            o.rounds
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::connected_erdos_renyi(24, 0.25, 2);
        let a = local_broadcast(&g, Latency::UNIT, 9);
        let b = local_broadcast(&g, Latency::UNIT, 9);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn carried_state_monotone() {
        let g = generators::path(4);
        let p1 = run_phase(&g, Latency::UNIT, dtg::fresh_states(4), 1000, 0);
        assert!(p1.complete);
        let len_before: Vec<usize> = p1.states.iter().map(|s| s.data.len()).collect();
        let p2 = run_phase(&g, Latency::UNIT, p1.states, 1000, 0);
        for (s, before) in p2.states.iter().zip(len_before) {
            assert!(s.data.len() >= before);
        }
    }
}

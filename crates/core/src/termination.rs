//! The **distributed Termination Check** (Algorithm 1, Lemma 18) as an
//! actual protocol, not just a centrally evaluated predicate.
//!
//! After an all-to-all attempt, every node
//!
//! 1. sets its *flag bit* if some `G`-neighbor's rumor is missing from
//!    its rumor set (the first condition of Algorithm 1),
//! 2. repeatedly broadcasts `(fingerprint(Rᵥ), flag, failed)` over its
//!    spanner out-edges in round-robin order for twice the Lemma 15
//!    budget (the "broadcast and gather responses, then broadcast the
//!    failed message" double pass),
//! 3. marks itself **failed** the moment it observes a peer with a
//!    different rumor fingerprint, a raised flag, or an already-failed
//!    peer — failure is a monotone infection, which is what makes all
//!    nodes agree (Lemma 18: "all nodes terminate in the same round").
//!
//! [`distributed_check`] runs the protocol and reports each node's
//! decision plus the rounds consumed; tests verify Lemma 18's two
//! claims — no premature termination, and unanimous decisions —
//! against the central predicate
//! [`termination_check`](crate::eid::termination_check).

use gossip_sim::{Context, Exchange, Protocol, Round, RumorSet, Scheduling, SimConfig, Simulator};
use latency_graph::{DiGraph, Graph, NodeId};

use crate::rr_broadcast::{self, RoundRobin};

/// The Algorithm 1 flag bits (line 1): node `v` raises its flag when
/// the rumor of some `G`-neighbor is missing from `rumors[v]`.
///
/// # Panics
///
/// Panics if `rumors.len() != n`.
pub fn flags(g: &Graph, rumors: &[RumorSet]) -> Vec<bool> {
    assert_eq!(rumors.len(), g.node_count(), "one rumor set per node");
    g.nodes()
        .map(|v| {
            g.neighbor_ids(v)
                .iter()
                .any(|&w| !rumors[v.index()].contains(w))
        })
        .collect()
}

/// What a node gossips during the check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckPayload {
    /// Fingerprint of the node's rumor set.
    pub fingerprint: u64,
    /// The Algorithm 1 flag bit (missing-neighbor detector).
    pub flag: bool,
    /// Whether the node has already observed a failure.
    pub failed: bool,
}

/// The per-node check protocol.
#[derive(Clone, Debug)]
pub struct CheckNode {
    fingerprint: u64,
    flag: bool,
    failed: bool,
    schedule: RoundRobin,
}

impl CheckNode {
    /// Creates a check node from its rumor set, flag bit, and spanner
    /// out-neighbors.
    pub fn new(rumors: &RumorSet, flag: bool, out: Vec<NodeId>) -> CheckNode {
        CheckNode {
            fingerprint: rumors.fingerprint(),
            flag,
            failed: false,
            schedule: RoundRobin::new(out),
        }
    }

    /// The node's final verdict: `true` means "terminate".
    pub fn decides_terminate(&self) -> bool {
        !self.failed && !self.flag
    }
}

impl Protocol for CheckNode {
    // The echo-wave bookkeeping inspects its phase clock each round.
    const SCHEDULING: Scheduling = Scheduling::EveryRound;

    type Payload = CheckPayload;

    fn payload(&self) -> CheckPayload {
        CheckPayload {
            fingerprint: self.fingerprint,
            flag: self.flag,
            failed: self.failed,
        }
    }

    fn on_round(&mut self, ctx: &mut Context<'_>) {
        self.schedule.step(ctx);
    }

    fn on_exchange(&mut self, _ctx: &mut Context<'_>, x: &Exchange<CheckPayload>) {
        if x.payload.fingerprint != self.fingerprint || x.payload.flag || x.payload.failed {
            self.failed = true;
        }
    }
}

/// Outcome of the distributed check.
#[derive(Clone, Debug)]
pub struct DistributedCheckOutcome {
    /// Per-node decision: `true` = terminate.
    pub decisions: Vec<bool>,
    /// Rounds consumed (twice the Lemma 15 budget).
    pub rounds: Round,
    /// Whether every node reached the same decision (Lemma 18's second
    /// claim; always expected to hold).
    pub unanimous: bool,
}

impl DistributedCheckOutcome {
    /// The common decision, if unanimous.
    pub fn verdict(&self) -> Option<bool> {
        self.unanimous
            .then(|| self.decisions.first().copied().unwrap_or(true))
    }
}

/// Runs the distributed Termination Check over the spanner with
/// RR parameter `k` (arcs of latency `≤ k`), starting from the given
/// rumor sets.
///
/// # Panics
///
/// Panics if `rumors.len() != n` or `k == 0`.
pub fn distributed_check(
    g: &Graph,
    spanner: &DiGraph,
    k: u64,
    rumors: &[RumorSet],
) -> DistributedCheckOutcome {
    assert!(k >= 1, "parameter k must be positive");
    let flags = flags(g, rumors);
    let mut out_lists = rr_broadcast::out_arcs(spanner, k);
    // Two passes of the Lemma 15 budget: gather + failed propagation.
    let budget = 2 * rr_broadcast::budget(spanner, k);
    let cfg = SimConfig {
        max_rounds: budget,
        ..SimConfig::default()
    };
    let out = Simulator::new(g, cfg).run(
        |id, _| {
            CheckNode::new(
                &rumors[id.index()],
                flags[id.index()],
                std::mem::take(&mut out_lists[id.index()]),
            )
        },
        |_, _| false,
    );
    let decisions: Vec<bool> = out.nodes.iter().map(CheckNode::decides_terminate).collect();
    let unanimous = decisions.windows(2).all(|w| w[0] == w[1]);
    DistributedCheckOutcome {
        decisions,
        rounds: budget,
        unanimous,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eid::{self, termination_check, EidConfig};
    use crate::rr_broadcast;
    use latency_graph::{generators, metrics};

    fn identity_spanner(g: &Graph) -> DiGraph {
        DiGraph::from_arcs(
            g.node_count(),
            g.edges().map(|(u, v, l)| (u.index(), v.index(), l.get())),
        )
    }

    #[test]
    fn complete_states_terminate_unanimously() {
        for g in [
            generators::cycle(12),
            generators::grid(3, 5),
            generators::clique(10),
        ] {
            let rumors = vec![RumorSet::full(g.node_count()); g.node_count()];
            let k = metrics::weighted_diameter(&g);
            let out = distributed_check(&g, &identity_spanner(&g), k, &rumors);
            assert!(out.unanimous);
            assert_eq!(out.verdict(), Some(true));
        }
    }

    #[test]
    fn incomplete_states_fail_unanimously() {
        // Rumor sets from a partial run: node 0 knows everyone, the rest
        // know only themselves and node 0.
        let g = generators::cycle(10);
        let n = 10;
        let mut rumors = rr_broadcast::fresh_states(n);
        rumors[0] = RumorSet::full(n);
        for (i, r) in rumors.iter_mut().enumerate().skip(1) {
            r.insert(NodeId::new(0));
            let _ = i;
        }
        let k = metrics::weighted_diameter(&g);
        let out = distributed_check(&g, &identity_spanner(&g), k, &rumors);
        assert!(out.unanimous, "Lemma 18: same decision everywhere");
        assert_eq!(out.verdict(), Some(false));
    }

    #[test]
    fn agrees_with_central_predicate_across_seeds() {
        // Run EID attempts at various (often wrong) diameter guesses and
        // check the distributed verdict equals the central one.
        for seed in 0..6u64 {
            let base = generators::connected_erdos_renyi(14, 0.3, seed).expect("connected sample");
            let g = generators::uniform_random_latencies(&base, 1, 5, seed);
            let d = metrics::weighted_diameter(&g);
            for guess in [1, d.div_ceil(2).max(1), d] {
                let out = eid::eid(
                    &g,
                    &EidConfig {
                        diameter: guess,
                        seed,
                        ..Default::default()
                    },
                );
                let central = termination_check(&g, &out.rumors).success();
                let sp = &out.spanner.spanner;
                let k = guess * out.spanner.stretch_bound as u64;
                let dist = distributed_check(&g, sp, k, &out.rumors);
                assert!(dist.unanimous, "seed {seed} guess {guess}");
                assert_eq!(
                    dist.verdict(),
                    Some(central),
                    "seed {seed} guess {guess}: distributed vs central"
                );
            }
        }
    }

    #[test]
    fn single_differing_node_infects_everyone() {
        // All full except one node missing one rumor: every node must
        // decide continue.
        let g = generators::grid(4, 4);
        let n = 16;
        let mut rumors = vec![RumorSet::full(n); n];
        let mut partial = RumorSet::full(n);
        // Rebuild without node 3's rumor.
        let mut missing_one = RumorSet::new(n);
        for v in partial.iter() {
            if v != NodeId::new(3) {
                missing_one.insert(v);
            }
        }
        partial = missing_one;
        rumors[9] = partial;
        let k = metrics::weighted_diameter(&g);
        let out = distributed_check(&g, &identity_spanner(&g), k, &rumors);
        assert!(out.unanimous);
        assert_eq!(out.verdict(), Some(false));
    }

    #[test]
    fn rounds_are_twice_the_rr_budget() {
        let g = generators::path(6);
        let sp = identity_spanner(&g);
        let rumors = vec![RumorSet::full(6); 6];
        let out = distributed_check(&g, &sp, 5, &rumors);
        assert_eq!(out.rounds, 2 * rr_broadcast::budget(&sp, 5));
    }

    #[test]
    fn fingerprints_separate_different_sets() {
        let a = RumorSet::full(32);
        let b = RumorSet::singleton(32, NodeId::new(1));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), RumorSet::full(32).fingerprint());
    }
}

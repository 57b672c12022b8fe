//! The classical **push-pull** random phone-call protocol on weighted
//! graphs (Theorem 12).
//!
//! Every round, every node initiates an exchange with a uniformly
//! random neighbor; the exchange (over an edge of latency `ℓ`) merges
//! both rumor sets `ℓ` rounds later. Theorem 12 shows broadcast
//! completes w.h.p. within `O((ℓ*/φ*) log n)` rounds, where `φ*` is the
//! weighted conductance and `ℓ*` the critical latency — the analysis
//! couples `ℓ*` consecutive rounds of push-pull on `G` to one round of
//! push-pull on the strongly edge-induced graph `G_{ℓ*}`
//! ([`latency_graph::induced`]).
//!
//! The module also provides the degenerate **push-only** and
//! **pull-only** modes: footnote 2 of the paper observes that without
//! pull, a star requires `Ω(n·D)` time, which
//! [`broadcast`] + [`Mode::PushOnly`] reproduces empirically.

use gossip_sim::{Context, Exchange, Protocol, RumorSet, Scheduling, Simulator};
use latency_graph::{Graph, NodeId};

use crate::common::{sim_config, BroadcastOutcome, Goal};

/// Direction of information flow honored by a node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Mode {
    /// Full bidirectional exchange (the paper's model).
    #[default]
    PushPull,
    /// Only the responder learns (initiator pushes, ignores response).
    PushOnly,
    /// Only the initiator learns (initiator pulls, sends nothing — the
    /// responder ignores the incoming payload).
    PullOnly,
}

/// Configuration for the push-pull family.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PushPullConfig {
    /// Which directions of each exchange are honored.
    pub mode: Mode,
    /// Round cap (0 means the simulator default).
    pub max_rounds: u64,
}

/// The per-node protocol state. Exposed so it can be composed (e.g. by
/// [`crate::unified`]).
#[derive(Clone, Debug)]
pub struct PushPullNode {
    /// Rumors currently known (copy-on-write; snapshots are free).
    pub rumors: RumorSet,
    mode: Mode,
}

impl PushPullNode {
    /// Creates a node knowing only its own rumor.
    pub fn new(id: NodeId, n: usize, mode: Mode) -> PushPullNode {
        PushPullNode {
            rumors: RumorSet::singleton(n, id),
            mode,
        }
    }
}

impl Protocol for PushPullNode {
    // Every node contacts a uniformly random neighbor each round
    // (Algorithm 1), so every node is live every round.
    const SCHEDULING: Scheduling = Scheduling::EveryRound;

    type Payload = RumorSet;

    fn payload(&self) -> RumorSet {
        self.rumors.snapshot()
    }

    fn payload_weight(payload: &RumorSet) -> u64 {
        u64::try_from(payload.len()).expect("rumor count fits u64")
    }

    fn on_round(&mut self, ctx: &mut Context<'_>) {
        let d = ctx.degree();
        if d == 0 {
            return;
        }
        // Routed through the engine's nondeterminism point: in a normal
        // run this is byte-identical to `rng().random_range(0..d)`, and
        // under `gossip check` the branch is enumerated instead.
        let i = ctx.choose(d);
        ctx.initiate_nth(i);
    }

    fn on_exchange(&mut self, _ctx: &mut Context<'_>, x: &Exchange<RumorSet>) {
        let learn = match self.mode {
            Mode::PushPull => true,
            Mode::PushOnly => !x.initiated_by_me,
            Mode::PullOnly => x.initiated_by_me,
        };
        if learn {
            self.rumors.union_with(&x.payload);
        }
    }
}

/// Runs push-pull on `g` until every node's rumor set meets `goal`.
fn run_until(g: &Graph, goal: &Goal, config: &PushPullConfig, seed: u64) -> BroadcastOutcome {
    let mode = config.mode;
    let out = Simulator::new(g, sim_config(config.max_rounds, seed)).run(
        |id, n| PushPullNode::new(id, n, mode),
        |nodes: &[PushPullNode], _| goal.met_by_all(nodes.iter().map(|p| &p.rumors)),
    );
    BroadcastOutcome::from_parts(
        out.rounds,
        out.reason,
        out.metrics,
        out.nodes.into_iter().map(|p| p.rumors).collect(),
    )
}

/// One-to-all broadcast from `source`: runs until every node knows the
/// source's rumor.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn broadcast(
    g: &Graph,
    source: NodeId,
    config: &PushPullConfig,
    seed: u64,
) -> BroadcastOutcome {
    assert!(source.index() < g.node_count(), "source out of range");
    run_until(g, &Goal::Broadcast(source), config, seed)
}

/// Multi-source broadcast (the paper's intro: "one (or more) nodes in a
/// network have some information"): runs until every node knows the
/// rumor of *every* source.
///
/// # Panics
///
/// Panics if `sources` is empty or contains an out-of-range node.
pub fn broadcast_from_set(
    g: &Graph,
    sources: &[NodeId],
    config: &PushPullConfig,
    seed: u64,
) -> BroadcastOutcome {
    assert!(!sources.is_empty(), "need at least one source");
    for &s in sources {
        assert!(s.index() < g.node_count(), "source {s} out of range");
    }
    run_until(g, &Goal::FromSet(sources.to_vec()), config, seed)
}

/// All-to-all information dissemination: runs until every node knows
/// every rumor.
pub fn all_to_all(g: &Graph, config: &PushPullConfig, seed: u64) -> BroadcastOutcome {
    run_until(g, &Goal::AllToAll, config, seed)
}

/// Mean broadcast rounds over `trials` seeds; `(mean, completed)`.
pub fn mean_broadcast_rounds(
    g: &Graph,
    source: NodeId,
    config: &PushPullConfig,
    base_seed: u64,
    trials: u64,
) -> (f64, u64) {
    let mut total = 0u64;
    let mut ok = 0u64;
    for t in 0..trials {
        let o = broadcast(g, source, config, base_seed.wrapping_add(t));
        if o.completed() {
            total += o.rounds;
            ok += 1;
        }
    }
    (
        if ok > 0 {
            total as f64 / ok as f64
        } else {
            f64::NAN
        },
        ok,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use latency_graph::generators;

    #[test]
    fn clique_broadcast_logarithmic() {
        // Karp et al.: O(log n) on the complete graph.
        let g = generators::clique(128);
        let (mean, ok) =
            mean_broadcast_rounds(&g, NodeId::new(0), &PushPullConfig::default(), 1, 10);
        assert_eq!(ok, 10);
        // log2(128) = 7; allow generous constant.
        assert!(mean <= 4.0 * 7.0, "mean = {mean}");
        assert!(mean >= 3.0, "mean = {mean}");
    }

    #[test]
    fn push_pull_beats_push_only_on_star() {
        // Footnote 2: on a star, push-only needs Ω(n) (the hub must push
        // to each leaf individually), push-pull needs O(log n)-ish (every
        // leaf pulls from the hub each round... actually O(1) rounds).
        let g = generators::star(64);
        let pp = broadcast(&g, NodeId::new(0), &PushPullConfig::default(), 3);
        let po = broadcast(
            &g,
            NodeId::new(0),
            &PushPullConfig {
                mode: Mode::PushOnly,
                max_rounds: 100_000,
            },
            3,
        );
        assert!(pp.completed() && po.completed());
        assert!(pp.rounds <= 5, "push-pull on star: {}", pp.rounds);
        assert!(
            po.rounds >= 20,
            "push-only should pay ~n ln n coupon-collector rounds, got {}",
            po.rounds
        );
    }

    #[test]
    fn pull_only_from_leaf_source_is_fast_on_star() {
        // With the rumor at a leaf, pull-only: the hub pulls from a random
        // leaf (hits eventually), leaves pull from the hub every round.
        let g = generators::star(32);
        let o = broadcast(
            &g,
            NodeId::new(5),
            &PushPullConfig {
                mode: Mode::PullOnly,
                max_rounds: 100_000,
            },
            7,
        );
        assert!(o.completed());
    }

    #[test]
    fn slow_edges_slow_broadcast_within_ell_factor() {
        // A clique with all-latency-L edges: each exchange takes L, so
        // the Theorem 12 charge is L · (unit-latency rounds). The
        // *non-blocking* model pipelines L overlapping waves, so the
        // measured slowdown sits between Ω(1) + L and the full L×
        // super-round bound.
        let unit = generators::clique(32);
        let slow = unit.map_latencies(|_, _, _| latency_graph::Latency::new(10));
        let (mu, _) =
            mean_broadcast_rounds(&unit, NodeId::new(0), &PushPullConfig::default(), 5, 8);
        let (ms, _) =
            mean_broadcast_rounds(&slow, NodeId::new(0), &PushPullConfig::default(), 5, 8);
        let ratio = ms / mu;
        assert!(ratio > 2.0, "slow edges must cost extra: ratio = {ratio}");
        assert!(
            ratio <= 10.5,
            "never worse than the ℓ× super-round bound: {ratio}"
        );
        assert!(ms >= 10.0, "broadcast cannot beat one edge latency");
    }

    #[test]
    fn multi_source_no_slower_than_slowest_single() {
        // More sources only helps each individual rumor's spread is
        // independent; k-source completion is bounded by completing all
        // three single-source goals under the same coins.
        let g = generators::connected_erdos_renyi(40, 0.15, 8);
        let sources = [NodeId::new(0), NodeId::new(7), NodeId::new(23)];
        let multi = broadcast_from_set(&g, &sources, &PushPullConfig::default(), 5);
        assert!(multi.completed());
        for &s in &sources {
            assert!(multi.rumors.iter().all(|r| r.contains(s)));
        }
        // And a single source under identical coins is never slower than
        // the joint goal restricted to it.
        let single = broadcast(&g, sources[0], &PushPullConfig::default(), 5);
        assert!(single.rounds <= multi.rounds);
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn multi_source_rejects_empty() {
        let g = generators::cycle(4);
        let _ = broadcast_from_set(&g, &[], &PushPullConfig::default(), 0);
    }

    #[test]
    fn all_to_all_completes_and_dominates_broadcast() {
        let g = generators::connected_erdos_renyi(48, 0.15, 2);
        let b = broadcast(&g, NodeId::new(0), &PushPullConfig::default(), 9);
        let a = all_to_all(&g, &PushPullConfig::default(), 9);
        assert!(b.completed() && a.completed());
        assert!(a.rounds >= b.rounds);
        assert!(a.rumors.iter().all(gossip_sim::RumorSet::is_full));
    }

    #[test]
    fn informed_count_monotone_with_cap() {
        let g = generators::cycle(64);
        let capped = broadcast(
            &g,
            NodeId::new(0),
            &PushPullConfig {
                max_rounds: 10,
                ..Default::default()
            },
            1,
        );
        assert!(!capped.completed());
        let partial = capped.informed_count(NodeId::new(0));
        assert!((2..64).contains(&partial), "partial = {partial}");
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::connected_erdos_renyi(32, 0.2, 0);
        let a = broadcast(&g, NodeId::new(0), &PushPullConfig::default(), 77);
        let b = broadcast(&g, NodeId::new(0), &PushPullConfig::default(), 77);
        assert_eq!(a.rounds, b.rounds);
    }
}

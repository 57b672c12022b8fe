//! Frontier-sparse dissemination: [`Scheduling::OnDemand`] protocols
//! whose idle nodes cost the engine nothing.
//!
//! These are the million-node counterparts of [`flooding`](crate::flooding)
//! and [`push_pull`](crate::push_pull). Two representation choices make
//! the scale reachable:
//!
//! * **Scheduling.** Nodes register wakeups only while they have work
//!   ([`Context::wake_in`]); an uninformed node sleeps until an
//!   exchange delivers to it. On sparse, high-diameter, high-`ℓ*`
//!   families (layered rings, random-geometric graphs — the regimes
//!   the paper's lower bounds live in) the engine's per-round cost is
//!   the frontier size, not `n`, and dead latency gaps are skipped
//!   outright.
//! * **Payloads.** Rumor state is a [`CompactRumorSet`], so one-to-all
//!   flooding carries O(1) words per node instead of an `n`-bit set —
//!   at `n = 10⁶` the difference between ~16 bytes and ~2 TB of
//!   worst-case payload traffic (cf. Dufoulon–Moses–Pandurangan on
//!   small-message rumor spreading). Those bytes sit inside the value,
//!   with no heap block behind them: every payload here is ∅ or
//!   {source}, so `payload()` is a 48-byte copy and `on_exchange` a
//!   subset scan, and a run allocates only the engine's own arrays.
//!
//! Wakeup contract recap (see [`Scheduling::OnDemand`]): round 0 steps
//! every node once; afterwards a node runs only when an exchange
//! completes at it or a registered wakeup falls due, and `on_round`
//! must re-register if it wants another turn.

use gossip_sim::{
    CompactRumorSet, Context, EngineMode, EngineStats, Exchange, Protocol, Round, Scheduling,
    SimMetrics, Simulator, StopReason,
};
use latency_graph::{Graph, NodeId};
use rand::Rng;

use crate::common::sim_config;

/// Configuration shared by the sparse protocols.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SparseConfig {
    /// Round cap (0 means the simulator default).
    pub max_rounds: u64,
    /// Ignored — results were always byte-identical for any value; kept
    /// only because the repo benchmark's struct literals name it.
    pub threads: usize,
    /// Ignored — the enum has one variant; kept only because the repo
    /// benchmark's struct literals name it.
    pub mode: EngineMode,
}

/// The result of a sparse dissemination run.
#[derive(Clone, Debug)]
pub struct SparseOutcome {
    /// Rounds until every node was informed (or the cap was hit).
    pub rounds: Round,
    /// Whether every node was informed within the cap.
    pub complete: bool,
    /// Simulator counters.
    pub metrics: SimMetrics,
    /// Engine execution counters (frontier occupancy, skipped rounds).
    pub stats: EngineStats,
    /// Final per-node rumor sets (compressed).
    pub rumors: Vec<CompactRumorSet>,
}

impl SparseOutcome {
    /// Whether the run reached its goal.
    pub fn completed(&self) -> bool {
        self.complete
    }

    /// Number of nodes holding `source`'s rumor.
    pub fn informed_count(&self, source: NodeId) -> usize {
        self.rumors.iter().filter(|r| r.contains(source)).count()
    }
}

/// One-to-all **round-robin flooding**, on demand: an informed node
/// contacts each neighbor exactly once, one per round, then goes
/// silent; an uninformed node sleeps until informed. The engine's
/// total stepping work is `Σ_v deg(v) = 2|E|`, independent of how many
/// rounds the latencies stretch the run over.
#[derive(Clone, Debug)]
pub struct SparseFloodNode {
    /// Rumors currently known (`⊆ {source}` in a one-to-all run).
    pub rumors: CompactRumorSet,
    source: NodeId,
    cursor: usize,
}

impl SparseFloodNode {
    /// Creates a node for a broadcast from `source`; only the source
    /// starts informed.
    pub fn new(id: NodeId, n: usize, source: NodeId) -> SparseFloodNode {
        let rumors = if id == source {
            CompactRumorSet::singleton(n, source)
        } else {
            CompactRumorSet::new(n)
        };
        SparseFloodNode {
            rumors,
            source,
            cursor: 0,
        }
    }

    fn knows(&self) -> bool {
        self.rumors.contains(self.source)
    }
}

impl Protocol for SparseFloodNode {
    const SCHEDULING: Scheduling = Scheduling::OnDemand;

    type Payload = CompactRumorSet;

    fn payload(&self) -> CompactRumorSet {
        self.rumors.clone()
    }

    fn payload_weight(payload: &CompactRumorSet) -> u64 {
        u64::try_from(payload.len()).expect("rumor count fits u64")
    }

    fn on_round(&mut self, ctx: &mut Context<'_>) {
        // Uninformed: sleep. Delivery of the rumor is itself a wakeup,
        // so no standing timer is needed.
        if !self.knows() || self.cursor >= ctx.degree() {
            return;
        }
        ctx.initiate_nth(self.cursor);
        self.cursor += 1;
        if self.cursor < ctx.degree() {
            ctx.wake_in(1);
        }
    }

    fn on_exchange(&mut self, _ctx: &mut Context<'_>, x: &Exchange<CompactRumorSet>) {
        self.rumors.union_with(&x.payload);
    }

    fn on_rejected(&mut self, ctx: &mut Context<'_>, _peer: NodeId) {
        // Retry the same neighbor next round (the cursor already moved
        // past it when the initiation was attempted).
        self.cursor -= 1;
        ctx.wake_in(1);
    }

    fn is_done(&self) -> bool {
        // Done = informed: `AllDone` fires in the exact round the last
        // node learns the rumor, which is the broadcast time.
        self.knows()
    }
}

/// One-to-all **random push**, on demand: every informed node contacts
/// one uniformly random neighbor per round (keeping a standing wakeup)
/// until the rumor has reached everyone. The classic push process,
/// with the frontier = the informed set.
#[derive(Clone, Debug)]
pub struct SparsePushNode {
    /// Rumors currently known (`⊆ {source}` in a one-to-all run).
    pub rumors: CompactRumorSet,
    source: NodeId,
}

impl SparsePushNode {
    /// Creates a node for a broadcast from `source`; only the source
    /// starts informed.
    pub fn new(id: NodeId, n: usize, source: NodeId) -> SparsePushNode {
        let rumors = if id == source {
            CompactRumorSet::singleton(n, source)
        } else {
            CompactRumorSet::new(n)
        };
        SparsePushNode { rumors, source }
    }

    fn knows(&self) -> bool {
        self.rumors.contains(self.source)
    }
}

impl Protocol for SparsePushNode {
    const SCHEDULING: Scheduling = Scheduling::OnDemand;

    type Payload = CompactRumorSet;

    fn payload(&self) -> CompactRumorSet {
        self.rumors.clone()
    }

    fn payload_weight(payload: &CompactRumorSet) -> u64 {
        u64::try_from(payload.len()).expect("rumor count fits u64")
    }

    fn on_round(&mut self, ctx: &mut Context<'_>) {
        let d = ctx.degree();
        if !self.knows() || d == 0 {
            return;
        }
        let i = ctx.rng().random_range(0..d);
        ctx.initiate_nth(i);
        ctx.wake_in(1);
    }

    fn on_exchange(&mut self, _ctx: &mut Context<'_>, x: &Exchange<CompactRumorSet>) {
        self.rumors.union_with(&x.payload);
    }

    fn is_done(&self) -> bool {
        self.knows()
    }
}

fn finish<P, F>(out: gossip_sim::Outcome<P>, rumors: F) -> SparseOutcome
where
    F: FnMut(P) -> CompactRumorSet,
{
    SparseOutcome {
        rounds: out.rounds,
        complete: out.reason != StopReason::MaxRounds,
        metrics: out.metrics,
        stats: out.stats,
        rumors: out.nodes.into_iter().map(rumors).collect(),
    }
}

/// One-to-all broadcast from `source` by on-demand round-robin
/// flooding.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn flood_broadcast(
    g: &Graph,
    source: NodeId,
    config: &SparseConfig,
    seed: u64,
) -> SparseOutcome {
    assert!(source.index() < g.node_count(), "source out of range");
    let out = Simulator::new(g, sim_config(config.max_rounds, seed)).run(
        |id, n| SparseFloodNode::new(id, n, source),
        |_: &[SparseFloodNode], _| false,
    );
    finish(out, |p| p.rumors)
}

/// One-to-all broadcast from `source` by on-demand random push.
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn push_broadcast(
    g: &Graph,
    source: NodeId,
    config: &SparseConfig,
    seed: u64,
) -> SparseOutcome {
    assert!(source.index() < g.node_count(), "source out of range");
    let out = Simulator::new(g, sim_config(config.max_rounds, seed)).run(
        |id, n| SparsePushNode::new(id, n, source),
        |_: &[SparsePushNode], _| false,
    );
    finish(out, |p| p.rumors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flooding::{self, FloodingConfig};
    use latency_graph::{generators, metrics};

    #[test]
    fn flood_informs_path_in_diameter_time() {
        let g = generators::path(20);
        let o = flood_broadcast(&g, NodeId::new(0), &SparseConfig::default(), 1);
        assert!(o.completed());
        assert_eq!(o.informed_count(NodeId::new(0)), 20);
        let d = metrics::weighted_diameter(&g);
        assert!(
            o.rounds >= d && o.rounds <= 3 * d,
            "rounds {} vs D {d}",
            o.rounds
        );
    }

    #[test]
    fn flood_from_star_center_sweeps_one_leaf_per_round() {
        // The center pushes to leaf `i` in round `i`; the last of the
        // `n − 1` leaves learns the rumor at round `n − 1` exactly.
        let g = generators::star(12);
        let sparse = flood_broadcast(&g, NodeId::new(0), &SparseConfig::default(), 7);
        assert!(sparse.completed());
        let leaves = u64::try_from(g.node_count() - 1).expect("fits");
        assert_eq!(sparse.rounds, leaves);
        // Flooding's pull half lets every leaf learn the rumor from its
        // own round-0 initiation — strictly fewer rounds than push-only
        // sparse flooding, never more.
        let dense = flooding::broadcast(&g, NodeId::new(0), &FloodingConfig::default(), 7);
        assert!(dense.completed());
        assert!(dense.rounds <= sparse.rounds);
    }

    #[test]
    fn frontier_skips_dead_gaps_on_slow_path() {
        // A 2-node graph with one slow edge: the run is `ℓ` rounds long
        // but only rounds 0 and ℓ hold events.
        let g = generators::uniform_random_latencies(&generators::path(2), 64, 64, 0);
        let o = flood_broadcast(&g, NodeId::new(0), &SparseConfig::default(), 0);
        assert!(o.completed());
        assert_eq!(o.rounds, 64);
        assert!(
            o.stats.skipped_rounds >= 62,
            "expected dead-gap skipping, got {:?}",
            o.stats
        );
        assert!(
            o.stats.stepped <= 6,
            "stepping stayed sparse: {:?}",
            o.stats
        );
    }

    #[test]
    fn flood_stepping_is_bounded_by_edges() {
        let g = generators::connected_erdos_renyi(40, 0.15, 3).expect("connected sample");
        let o = flood_broadcast(&g, NodeId::new(5), &SparseConfig::default(), 3);
        assert!(o.completed());
        // Frontier membership = round-0 sweep (n) + delivery endpoints
        // (2 per exchange) + due wakeups (≤ 1 per initiation), so total
        // stepping is O(|E|) regardless of how many rounds elapse.
        let bound = u64::try_from(g.node_count()).expect("fits") + 3 * o.metrics.initiated;
        assert!(
            o.stats.stepped <= bound,
            "stepped {} > bound {bound}",
            o.stats.stepped
        );
    }

    #[test]
    fn push_informs_clique() {
        let g = generators::clique(32);
        let o = push_broadcast(&g, NodeId::new(3), &SparseConfig::default(), 11);
        assert!(o.completed());
        assert_eq!(o.informed_count(NodeId::new(3)), 32);
    }

    #[test]
    fn one_to_all_sets_stay_empty_or_source() {
        // The premise the inline sparse tier is sized for: no node of a
        // one-to-all run ever holds more than {source}.
        let g = generators::random_geometric(512, 0.106, 20.0, 4);
        assert!(g.is_connected());
        let source = NodeId::new(17);
        for broadcast in [flood_broadcast, push_broadcast] {
            let o = broadcast(&g, source, &SparseConfig::default(), 4);
            for r in &o.rumors {
                assert_eq!(r.len(), 1);
                assert!(r.repr_words() <= 1);
                assert!(r.contains(source));
            }
            assert!(o.completed());
        }
    }

    #[test]
    fn cap_respected() {
        let g = generators::path(50);
        let cfg = SparseConfig {
            max_rounds: 5,
            ..SparseConfig::default()
        };
        let o = flood_broadcast(&g, NodeId::new(0), &cfg, 0);
        assert!(!o.completed());
        assert_eq!(o.rounds, 5);
    }
}

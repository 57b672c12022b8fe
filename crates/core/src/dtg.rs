//! Deterministic Tree Gossip (DTG) local broadcast and its latency-aware
//! variant **`ℓ`-DTG** (paper: Section 5.1, Appendix C, Algorithm 5;
//! originally Haeupler \[3\]).
//!
//! `ℓ`-local broadcast requires every node to exchange rumors with all
//! neighbors connected by an edge of latency `≤ ℓ`. The `ℓ`-DTG protocol
//! runs the unit-latency DTG schedule on the subgraph `G_ℓ`, charging
//! `ℓ` rounds per exchange slot, for a total of `O(ℓ log² n)` rounds.
//!
//! The schedule: in iteration `i` (of at most `⌈log₂ n̂⌉ + O(1)`), a
//! still-active node links one new neighbor `u_i` and performs a
//! PUSH (`j = i…1`) / PULL (`j = 1…i`) / PULL / PUSH pipeline over its
//! linked neighbors `u_1…u_i`, one exchange per `ℓ`-round slot
//! (iteration `i` = `4i` slots). Pipelining along the implicit binomial
//! `i`-trees (paper Figs. 4–5) is what bounds the iteration count
//! logarithmically.
//!
//! Two simplifications, both conservative:
//! * the per-sequence working sets `R'`, `R''` of Algorithm 5 are
//!   replaced by the monotone accumulated state (merging supersets can
//!   only speed dissemination up, never break correctness);
//! * payloads carry an explicit `heard` origin set so the protocol works
//!   for any [`Mergeable`] data (rumors, topology knowledge), with
//!   activity decided by `Γ_ℓ(v) ⊆ heard` exactly as `Γ(v)∖R = ∅` in
//!   the paper.

use gossip_sim::{Context, Exchange, Protocol, Round, RumorSet, Scheduling, SimConfig, Simulator};
use latency_graph::{Graph, Latency, NodeId};

use crate::common::{BroadcastOutcome, Mergeable};
use crate::rr_broadcast;

/// Iteration cap used when a polynomial size bound `n̂` is known:
/// `⌈log₂ n̂⌉ + 2` (the binomial-tree argument caps active iterations at
/// `log₂ n`).
pub fn default_iteration_cap(n_hat: usize) -> usize {
    usize::try_from(n_hat.max(2).next_power_of_two().trailing_zeros()).expect("log2 fits usize") + 2
}

/// The fixed length, in rounds, of a full `ℓ`-DTG schedule with the
/// given iteration cap: `Σ_{i=1..cap} 4·i·ℓ = 2·ℓ·cap·(cap+1)`.
pub fn schedule_length(ell: Latency, cap: usize) -> Round {
    let cap = u64::try_from(cap).expect("iteration cap fits u64");
    2 * ell.rounds() * cap * (cap + 1)
}

/// State carried through (and between) DTG phases: the mergeable data
/// plus the set of origins already incorporated.
#[derive(Clone, Debug)]
pub struct DtgState<M> {
    /// Accumulated mergeable data (rumors, knowledge, …).
    pub data: M,
    /// Node ids whose contribution is reflected in `data` (the paper's
    /// rumor set `R` keyed by origin). Always contains the owner.
    pub heard: RumorSet,
}

impl<M: Mergeable> DtgState<M> {
    /// Initial state for node `id` in an `n`-node network.
    pub fn new(id: NodeId, n: usize, data: M) -> DtgState<M> {
        DtgState {
            data,
            heard: RumorSet::singleton(n, id),
        }
    }

    /// Absorbs the state `peer` sent in an exchange: its data, its
    /// origins, and `peer` itself.
    pub(crate) fn absorb(&mut self, peer: NodeId, other: &DtgState<M>) {
        self.data.merge(&other.data);
        self.heard.union_with(&other.heard);
        self.heard.insert(peer);
    }

    /// Whether every node of `nodes` is among the heard origins.
    pub(crate) fn heard_all(&self, nodes: &[NodeId]) -> bool {
        nodes.iter().all(|&v| self.heard.contains(v))
    }
}

/// One state per node, node `i` carrying `data[i]`.
pub(crate) fn states<M: Mergeable>(data: Vec<M>) -> Vec<DtgState<M>> {
    let n = data.len();
    data.into_iter()
        .enumerate()
        .map(|(i, d)| DtgState::new(NodeId::new(i), n, d))
        .collect()
}

/// `Γ_ℓ(v)`: the node's neighbors over edges of latency `≤ ℓ`. If the
/// model hides latencies (no `latency_to`), every neighbor qualifies —
/// the caller must then guarantee `ℓ ≥ ℓ_max` (as EID's D-DTG does).
pub(crate) fn fast_neighbors(ctx: &Context<'_>, ell: Latency) -> Vec<NodeId> {
    ctx.neighbor_ids()
        .iter()
        .copied()
        .filter(|&v| ctx.latency_to(v).is_none_or(|l| l <= ell))
        .collect()
}

/// Where a round falls in the DTG schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Position {
    /// Iteration, 1-based.
    iteration: usize,
    /// Slot within the iteration, `0..4·iteration`.
    slot: usize,
    /// Round within the slot, `0..ℓ`.
    tick: u64,
}

fn position(round: Round, ell: Latency, cap: usize) -> Option<Position> {
    let mut r = round;
    for i in 1..=cap {
        let len = 4 * u64::try_from(i).expect("iteration fits u64") * ell.rounds();
        if r < len {
            let slot = usize::try_from(r / ell.rounds()).expect("slot index fits usize");
            return Some(Position {
                iteration: i,
                slot,
                tick: r % ell.rounds(),
            });
        }
        r -= len;
    }
    None
}

/// The 1-based linked-neighbor index addressed in `slot` of `iteration`
/// (PUSH `i…1`, PULL `1…i`, PULL `1…i`, PUSH `i…1`).
fn partner(iteration: usize, slot: usize) -> usize {
    let i = iteration;
    match slot {
        s if s < i => i - s,
        s if s < 2 * i => s - i + 1,
        s if s < 3 * i => s - 2 * i + 1,
        s => i - (s - 3 * i),
    }
}

/// The `ℓ`-DTG protocol node.
#[derive(Clone, Debug)]
pub struct DtgNode<M> {
    state: DtgState<M>,
    ell: Latency,
    cap: usize,
    linked: Vec<NodeId>,
    fast: Vec<NodeId>,
    active_this_iteration: bool,
}

impl<M: Mergeable> DtgNode<M> {
    /// Creates a node from carried-over state (fresh linked list).
    pub fn new(state: DtgState<M>, ell: Latency, cap: usize) -> DtgNode<M> {
        DtgNode {
            state,
            ell,
            cap,
            linked: Vec::new(),
            fast: Vec::new(),
            active_this_iteration: false,
        }
    }

    /// The node's current state (for extraction after a phase).
    pub fn state(&self) -> &DtgState<M> {
        &self.state
    }

    /// Consumes the node, returning its state.
    pub fn into_state(self) -> DtgState<M> {
        self.state
    }
}

impl<M: Mergeable> Protocol for DtgNode<M> {
    // The DTG schedule is clock-driven: each node consults the shared
    // round counter every round.
    const SCHEDULING: Scheduling = Scheduling::EveryRound;

    type Payload = DtgState<M>;

    fn payload(&self) -> DtgState<M> {
        self.state.clone()
    }

    fn payload_weight(payload: &DtgState<M>) -> u64 {
        payload.data.weight()
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.fast = fast_neighbors(ctx, self.ell);
    }

    fn on_round(&mut self, ctx: &mut Context<'_>) {
        let Some(pos) = position(ctx.round(), self.ell, self.cap) else {
            return;
        };
        if pos.tick != 0 {
            return;
        }
        if pos.slot == 0 {
            // Iteration start: link a new unheard neighbor, if any.
            self.active_this_iteration = !self.state.heard_all(&self.fast);
            if self.active_this_iteration {
                let next = self
                    .fast
                    .iter()
                    .copied()
                    .find(|&v| !self.state.heard.contains(v) && !self.linked.contains(&v));
                if let Some(u) = next {
                    self.linked.push(u);
                }
            }
        }
        if !self.active_this_iteration {
            return;
        }
        let j = partner(pos.iteration, pos.slot);
        if j >= 1 && j <= self.linked.len() {
            ctx.initiate(self.linked[j - 1]);
        }
    }

    fn on_exchange(&mut self, _ctx: &mut Context<'_>, x: &Exchange<DtgState<M>>) {
        self.state.absorb(x.peer, &x.payload);
    }

    fn is_done(&self) -> bool {
        self.state.heard_all(&self.fast)
    }
}

/// Outcome of an `ℓ`-local-broadcast phase (DTG or Superstep).
#[derive(Clone, Debug)]
pub struct DtgPhaseOutcome<M> {
    /// Final per-node states.
    pub states: Vec<DtgState<M>>,
    /// Rounds charged: the actual rounds until every node was done (or
    /// the cap), except that a DTG phase run without `charge_actual`
    /// charges its full fixed schedule length.
    pub rounds: Round,
    /// Whether every node heard all its `≤ ℓ` neighbors.
    pub complete: bool,
    /// Simulator counters (exchanges, payload units).
    pub metrics: gossip_sim::SimMetrics,
}

impl<M> DtgPhaseOutcome<M> {
    /// The per-node data, without the heard origins.
    pub(crate) fn into_data(self) -> Vec<M> {
        self.states.into_iter().map(|s| s.data).collect()
    }
}

impl DtgPhaseOutcome<RumorSet> {
    /// The phase as a rumor dissemination run.
    pub(crate) fn into_broadcast(self) -> BroadcastOutcome {
        BroadcastOutcome {
            rounds: self.rounds,
            complete: self.complete,
            metrics: self.metrics,
            rumors: self.into_data(),
        }
    }
}

/// The one local-broadcast phase runner behind [`run_phase`] and
/// [`crate::superstep::run_phase`]: builds node `i` from `states[i]`
/// with `node`, runs the known-latency engine for at most `max_rounds`
/// rounds, and hands back each node's state through `state`.
pub(crate) fn run_nodes<M: Mergeable, P: Protocol>(
    g: &Graph,
    states: Vec<DtgState<M>>,
    max_rounds: Round,
    seed: u64,
    node: impl Fn(DtgState<M>) -> P,
    state: impl Fn(P) -> DtgState<M>,
) -> DtgPhaseOutcome<M> {
    assert_eq!(states.len(), g.node_count(), "one state per node");
    let mut slots: Vec<Option<DtgState<M>>> = states.into_iter().map(Some).collect();
    let cfg = SimConfig {
        latency_known: true,
        max_rounds,
        seed,
        ..SimConfig::default()
    };
    let out = Simulator::new(g, cfg).run(
        |id, _| node(slots[id.index()].take().expect("state taken once")),
        |_, _| false,
    );
    let complete = out.nodes.iter().all(Protocol::is_done);
    DtgPhaseOutcome {
        states: out.nodes.into_iter().map(state).collect(),
        rounds: out.rounds,
        complete,
        metrics: out.metrics,
    }
}

/// Fresh rumor states, node `i` holding and having heard only itself.
pub(crate) fn fresh_states(n: usize) -> Vec<DtgState<RumorSet>> {
    states(rr_broadcast::fresh_states(n))
}

/// Runs one `ℓ`-DTG phase over carried-in states.
///
/// If `charge_actual` is true the reported `rounds` is the actual round
/// at which every node was done (the standalone measurement mode);
/// otherwise the full deterministic [`schedule_length`] is charged (the
/// composition mode — a distributed node cannot detect global
/// completion without paying for it).
///
/// # Panics
///
/// Panics if `states.len() != n` or `cap == 0`.
pub fn run_phase<M: Mergeable>(
    g: &Graph,
    ell: Latency,
    cap: usize,
    states: Vec<DtgState<M>>,
    charge_actual: bool,
) -> DtgPhaseOutcome<M> {
    assert!(cap >= 1, "iteration cap must be positive");
    let schedule = schedule_length(ell, cap);
    // DTG draws no coins: the seed is the engine default.
    let seed = SimConfig::default().seed;
    let mut phase = run_nodes(
        g,
        states,
        schedule,
        seed,
        |s| DtgNode::new(s, ell, cap),
        DtgNode::into_state,
    );
    if !charge_actual {
        phase.rounds = schedule;
    }
    phase
}

/// Standalone `ℓ`-local broadcast with rumor payloads: every node ends
/// up knowing the rumor of each neighbor within latency `ℓ` (and vice
/// versa). Returns the actual rounds used.
pub fn local_broadcast(g: &Graph, ell: Latency) -> BroadcastOutcome {
    let n = g.node_count();
    run_phase(g, ell, default_iteration_cap(n), fresh_states(n), true).into_broadcast()
}

/// Checks the `ℓ`-local-broadcast postcondition: for every edge of
/// latency `≤ ℓ`, both endpoints know each other's rumor.
pub fn verify_local_broadcast(g: &Graph, ell: Latency, rumors: &[RumorSet]) -> bool {
    g.edges()
        .filter(|&(_, _, l)| l <= ell)
        .all(|(u, v, _)| rumors[u.index()].contains(v) && rumors[v.index()].contains(u))
}

#[cfg(test)]
mod tests {
    use super::*;
    use latency_graph::generators;

    #[test]
    fn schedule_arithmetic() {
        // cap 3, ℓ=2: 4·1·2 + 4·2·2 + 4·3·2 = 8+16+24 = 48.
        assert_eq!(schedule_length(Latency::new(2), 3), 48);
        assert_eq!(
            position(0, Latency::new(2), 3),
            Some(Position {
                iteration: 1,
                slot: 0,
                tick: 0
            })
        );
        assert_eq!(
            position(7, Latency::new(2), 3),
            Some(Position {
                iteration: 1,
                slot: 3,
                tick: 1
            })
        );
        assert_eq!(
            position(8, Latency::new(2), 3),
            Some(Position {
                iteration: 2,
                slot: 0,
                tick: 0
            })
        );
        assert_eq!(
            position(47, Latency::new(2), 3),
            Some(Position {
                iteration: 3,
                slot: 11,
                tick: 1
            })
        );
        assert_eq!(position(48, Latency::new(2), 3), None);
    }

    #[test]
    fn partner_pipeline_order() {
        // Iteration 3: PUSH 3,2,1; PULL 1,2,3; PULL 1,2,3; PUSH 3,2,1.
        let got: Vec<usize> = (0..12).map(|s| partner(3, s)).collect();
        assert_eq!(got, vec![3, 2, 1, 1, 2, 3, 1, 2, 3, 3, 2, 1]);
    }

    #[test]
    fn default_cap_grows_logarithmically() {
        assert_eq!(default_iteration_cap(2), 3);
        assert_eq!(default_iteration_cap(16), 6);
        assert_eq!(default_iteration_cap(1000), 12);
    }

    #[test]
    fn local_broadcast_on_clique() {
        let g = generators::clique(32);
        let o = local_broadcast(&g, Latency::UNIT);
        assert!(o.complete);
        assert!(verify_local_broadcast(&g, Latency::UNIT, &o.rumors));
        // O(log² n): log2(32)=5, so ≈ 2·1·cap(cap+1) = 2·7·8 = 112 max;
        // actual should be well below the cap-schedule.
        assert!(o.rounds <= schedule_length(Latency::UNIT, default_iteration_cap(32)));
    }

    #[test]
    fn local_broadcast_on_star_and_path() {
        for g in [generators::star(40), generators::path(40)] {
            let o = local_broadcast(&g, Latency::UNIT);
            assert!(o.complete);
            assert!(verify_local_broadcast(&g, Latency::UNIT, &o.rumors));
        }
    }

    #[test]
    fn ell_dtg_ignores_slow_edges() {
        // Two triangles joined by a slow bridge: 1-local broadcast must
        // complete without ever crossing the latency-9 bridge.
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
        let o = local_broadcast(&g, Latency::UNIT);
        assert!(o.complete);
        assert!(verify_local_broadcast(&g, Latency::UNIT, &o.rumors));
        // The bridge endpoints never exchanged.
        assert!(!o.rumors[2].contains(NodeId::new(3)));
    }

    #[test]
    fn ell_scales_rounds_linearly() {
        let base = generators::cycle(24);
        let mut rounds = Vec::new();
        for ell in [1u32, 4, 8] {
            let g = base.map_latencies(|_, _, _| Latency::new(ell));
            let o = local_broadcast(&g, Latency::new(ell));
            assert!(o.complete);
            rounds.push(o.rounds as f64);
        }
        let r1 = rounds[1] / rounds[0];
        let r2 = rounds[2] / rounds[1];
        assert!(r1 > 2.5 && r1 < 6.0, "4× latency ⇒ ~4× rounds, got {r1}");
        assert!(r2 > 1.5 && r2 < 3.0, "2× latency ⇒ ~2× rounds, got {r2}");
    }

    #[test]
    fn log_squared_upper_bound() {
        // Rounds / log²n stays bounded as n grows (the O(log² n) bound;
        // on cliques the transitive `heard` growth finishes even faster,
        // so the ratio may shrink — it must never grow).
        let mut ratios = Vec::new();
        for n in [16usize, 64, 256] {
            let g = generators::clique(n);
            let o = local_broadcast(&g, Latency::UNIT);
            assert!(o.complete, "n = {n}");
            let log2n = (n as f64).log2();
            ratios.push(o.rounds as f64 / (log2n * log2n));
        }
        for w in ratios.windows(2) {
            assert!(w[1] <= w[0] * 2.0, "ratio must not blow up: {ratios:?}");
        }
        assert!(
            ratios.iter().all(|&r| r < 4.0),
            "bounded by O(log² n): {ratios:?}"
        );
    }

    #[test]
    fn phase_carries_state_between_calls() {
        // Path 0-1-2 (unit latencies): after one 1-DTG phase node 0 has
        // heard 1 but maybe not 2; a second phase with carried state
        // cannot lose information.
        let g = generators::path(3);
        let p1 = run_phase(&g, Latency::UNIT, 3, fresh_states(3), false);
        assert!(p1.complete);
        let heard0: Vec<bool> = (0..3)
            .map(|i| p1.states[0].heard.contains(NodeId::new(i)))
            .collect();
        let p2 = run_phase(&g, Latency::UNIT, 3, p1.states, false);
        let heard0b: Vec<bool> = (0..3)
            .map(|i| p2.states[0].heard.contains(NodeId::new(i)))
            .collect();
        for (a, b) in heard0.iter().zip(&heard0b) {
            assert!(!a | b, "monotone heard sets");
        }
        assert_eq!(p1.rounds, schedule_length(Latency::UNIT, 3));
    }

    #[test]
    fn payload_shares_heard_until_the_node_learns() {
        let (n, me) = (200, NodeId::new(3));
        let state = DtgState::new(me, n, RumorSet::singleton(n, me));
        let mut node = DtgNode::new(state, Latency::UNIT, 2);
        let in_flight = node.payload();
        assert!(in_flight.heard.ptr_eq(&node.state.heard), "no words copied");
        assert!(in_flight.data.ptr_eq(&node.state.data));
        assert!(node.state.heard.insert(NodeId::new(150)));
        assert!(!in_flight.heard.ptr_eq(&node.state.heard));
        assert_eq!(in_flight.heard, RumorSet::singleton(n, me));
        assert_eq!(node.state.heard.len(), 2);
    }

    #[test]
    fn charge_actual_leq_schedule() {
        let g = generators::clique(16);
        let n = 16;
        let cap = default_iteration_cap(n);
        let actual = run_phase(&g, Latency::UNIT, cap, fresh_states(n), true);
        let fixed = run_phase(&g, Latency::UNIT, cap, fresh_states(n), false);
        assert!(actual.rounds <= fixed.rounds);
        assert_eq!(fixed.rounds, schedule_length(Latency::UNIT, cap));
    }
}

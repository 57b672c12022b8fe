//! The reactor equivalence suite: the same nine cases as
//! `loopback_equivalence.rs`, run through [`gossip_net::run_reactor_mode_with_stats`] —
//! a whole cluster hosted by one epoll reactor over its real TCP self
//! link, drain-paced so rounds are virtual. The
//! outcome must equal the simulator's *exactly*: same stop reason,
//! round count, metrics, and final per-node rumor sets. This is the
//! strongest check that link multiplexing and the routed envelope,
//! under the runner's hold to `t + ℓ`, preserve the paper's round
//! semantics (DESIGN.md §14).

use gossip_core::flooding::FloodingNode;
use gossip_core::push_pull::{Mode, PushPullNode};
use gossip_core::stream::{RlcStreamNode, RrStreamNode};
use gossip_core::Goal;
use gossip_net::{
    run_loopback_mode_with_stats, run_reactor_mode_with_stats, PayloadMode, WireAccounting,
};
use gossip_sim::{
    completion_rounds, EngineStats, Outcome, Protocol, Round, SimConfig, Simulator, StopReason,
    StreamSpec,
};
use latency_graph::{generators, Graph, NodeId};

/// A snapshot-mode reactor run.
fn run_reactor<P, F, S>(g: &Graph, cfg: &SimConfig, factory: F, stop: S) -> Outcome<P>
where
    P: Protocol,
    P::Payload: gossip_net::WirePayload,
    F: FnMut(NodeId, usize) -> P,
    S: FnMut(&[&P], Round) -> bool,
{
    run_reactor_mode_with_stats(g, cfg, PayloadMode::Snapshot, factory, stop).0
}

fn config(seed: u64, max_rounds: u64, latency_known: bool) -> SimConfig {
    SimConfig {
        seed,
        max_rounds,
        latency_known,
        ..SimConfig::default()
    }
}

/// Asserts outcome equality, comparing rumor sets by fingerprint.
fn assert_equiv<P: Protocol>(
    label: &str,
    engine: &Outcome<P>,
    net: &Outcome<P>,
    fingerprint: impl Fn(&P) -> u64,
) {
    assert_eq!(engine.reason, net.reason, "{label}: stop reason");
    assert_eq!(engine.rounds, net.rounds, "{label}: rounds");
    assert_eq!(engine.metrics, net.metrics, "{label}: metrics");
    // A net run visits the dead-gap rounds the engine skips, so
    // `skipped_rounds` is the engine's alone; every other counter —
    // `event_rounds` included, as a skipped round has no event — matches.
    let engine_stats = EngineStats {
        skipped_rounds: 0,
        ..engine.stats
    };
    assert_eq!(engine_stats, net.stats, "{label}: engine stats");
    assert_eq!(engine.nodes.len(), net.nodes.len(), "{label}: node count");
    for (i, (a, b)) in engine.nodes.iter().zip(&net.nodes).enumerate() {
        assert_eq!(
            fingerprint(a),
            fingerprint(b),
            "{label}: node {i} final state"
        );
    }
}

fn check_push_pull(label: &str, g: &Graph, goal: &Goal, seed: u64, max_rounds: u64) {
    let cfg = config(seed, max_rounds, false);
    let engine = Simulator::new(g, cfg).run(
        |id, n| PushPullNode::new(id, n, Mode::PushPull),
        |nodes: &[PushPullNode], _| goal.met_by_all(nodes.iter().map(|p| &p.rumors)),
    );
    let net = run_reactor(
        g,
        &cfg,
        |id, n| PushPullNode::new(id, n, Mode::PushPull),
        |nodes: &[&PushPullNode], _| goal.met_by_all(nodes.iter().map(|p| &p.rumors)),
    );
    assert_equiv(label, &engine, &net, |p: &PushPullNode| {
        p.rumors.fingerprint()
    });
    // Delta mode changes only the bytes on the wire, never the outcome.
    let (delta, _, acct) = run_reactor_mode_with_stats(
        g,
        &cfg,
        PayloadMode::Delta,
        |id, n| PushPullNode::new(id, n, Mode::PushPull),
        |nodes: &[&PushPullNode], _| goal.met_by_all(nodes.iter().map(|p| &p.rumors)),
    );
    assert_equiv(&format!("{label}/delta"), &engine, &delta, |p| {
        p.rumors.fingerprint()
    });
    assert!(
        acct.payload_bytes <= acct.snapshot_bytes,
        "{label}: delta mode never exceeds the snapshot-equivalent bytes \
         ({} > {})",
        acct.payload_bytes,
        acct.snapshot_bytes,
    );
}

fn check_flooding(label: &str, g: &Graph, goal: &Goal, seed: u64, max_rounds: u64) {
    let cfg = config(seed, max_rounds, false);
    let engine = Simulator::new(g, cfg).run(FloodingNode::new, |nodes: &[FloodingNode], _| {
        goal.met_by_all(nodes.iter().map(|p| &p.rumors))
    });
    let net = run_reactor(g, &cfg, FloodingNode::new, |nodes: &[&FloodingNode], _| {
        goal.met_by_all(nodes.iter().map(|p| &p.rumors))
    });
    assert_equiv(label, &engine, &net, |p: &FloodingNode| {
        p.rumors.fingerprint()
    });
    let (delta, _, _) = run_reactor_mode_with_stats(
        g,
        &cfg,
        PayloadMode::Delta,
        FloodingNode::new,
        |nodes: &[&FloodingNode], _| goal.met_by_all(nodes.iter().map(|p| &p.rumors)),
    );
    assert_equiv(&format!("{label}/delta"), &engine, &delta, |p| {
        p.rumors.fingerprint()
    });
}

#[test]
fn cycle_broadcast_matches_engine() {
    let g = generators::cycle(16);
    for seed in [0, 1, 0xDECAF] {
        check_push_pull(
            "cycle/push-pull",
            &g,
            &Goal::Broadcast(NodeId::new(0)),
            seed,
            10_000,
        );
    }
    check_flooding(
        "cycle/flooding",
        &g,
        &Goal::Broadcast(NodeId::new(3)),
        7,
        10_000,
    );
}

#[test]
fn star_broadcast_matches_engine() {
    // complete_bipartite(1, k) is a star with hub 0.
    let g = generators::complete_bipartite(1, 15);
    for seed in [2, 0xFEED] {
        check_push_pull(
            "star/push-pull",
            &g,
            &Goal::Broadcast(NodeId::new(1)),
            seed,
            10_000,
        );
    }
}

#[test]
fn clique_all_to_all_matches_engine() {
    let g = generators::clique(24);
    for seed in [0, 5, 123_456] {
        check_push_pull("clique/push-pull", &g, &Goal::AllToAll, seed, 10_000);
    }
    check_flooding("clique/flooding", &g, &Goal::AllToAll, 9, 10_000);
}

#[test]
fn ring_of_cliques_matches_engine() {
    // The ISSUE's golden topology case: 8 cliques of 8, slow bridges.
    let g = generators::ring_of_cliques(8, 8, 6);
    for seed in [0, 42] {
        check_push_pull(
            "ring-of-cliques/push-pull",
            &g,
            &Goal::AllToAll,
            seed,
            10_000,
        );
    }
}

#[test]
fn heterogeneous_latencies_match_engine() {
    // Bimodal edge latencies exercise nontrivial ℓ in the runner's hold
    // (the envelope's release round is the reply's due round).
    let g = generators::bimodal_latencies(
        &generators::connected_erdos_renyi(20, 0.25, 3).expect("connected sample"),
        1,
        9,
        0.4,
        11,
    );
    for seed in [1, 0xB0BA] {
        check_push_pull("bimodal/push-pull", &g, &Goal::AllToAll, seed, 10_000);
    }
    check_flooding(
        "bimodal/flooding",
        &g,
        &Goal::Broadcast(NodeId::new(7)),
        4,
        10_000,
    );
}

#[test]
fn max_rounds_cap_matches_engine() {
    // Stop by MaxRounds: the cap fires identically (including the
    // engine's quirk that `on_round` runs for rounds 0..cap).
    let g = generators::path(30);
    check_push_pull(
        "path/capped",
        &g,
        &Goal::AllToAll,
        3,
        4, // far too few rounds to finish
    );
}

#[test]
fn all_done_stop_matches_engine() {
    // A protocol with its own `is_done` so the AllDone stop path (not
    // the Condition closure) terminates both executions.
    #[derive(Clone)]
    struct DoneWhenFull {
        inner: PushPullNode,
    }
    impl Protocol for DoneWhenFull {
        type Payload = <PushPullNode as Protocol>::Payload;
        fn payload(&self) -> Self::Payload {
            self.inner.payload()
        }
        fn payload_weight(payload: &Self::Payload) -> u64 {
            <PushPullNode as Protocol>::payload_weight(payload)
        }
        fn on_round(&mut self, ctx: &mut gossip_sim::Context<'_>) {
            self.inner.on_round(ctx);
        }
        fn on_exchange(
            &mut self,
            ctx: &mut gossip_sim::Context<'_>,
            x: &gossip_sim::Exchange<Self::Payload>,
        ) {
            self.inner.on_exchange(ctx, x);
        }
        fn is_done(&self) -> bool {
            self.inner.rumors.is_full()
        }
    }
    let g = generators::clique(12);
    let cfg = config(17, 10_000, false);
    let factory = |id: NodeId, n: usize| DoneWhenFull {
        inner: PushPullNode::new(id, n, Mode::PushPull),
    };
    let engine = Simulator::new(&g, cfg).run(factory, |_: &[DoneWhenFull], _| false);
    let net = run_reactor(&g, &cfg, factory, |_: &[&DoneWhenFull], _| false);
    assert_eq!(engine.reason, StopReason::AllDone);
    assert_equiv("clique/all-done", &engine, &net, |p: &DoneWhenFull| {
        p.inner.rumors.fingerprint()
    });
}

#[test]
fn latency_known_visibility_matches_engine() {
    // `latency_known = true` exposes latencies through the Context on
    // both sides; a latency-greedy protocol must behave identically.
    #[derive(Clone)]
    struct GreedyFastEdge {
        rumors: gossip_sim::RumorSet,
    }
    impl Protocol for GreedyFastEdge {
        type Payload = gossip_sim::RumorSet;
        fn payload(&self) -> Self::Payload {
            self.rumors.snapshot()
        }
        fn on_round(&mut self, ctx: &mut gossip_sim::Context<'_>) {
            // Pick the fastest visible edge, breaking ties by round so
            // the choice rotates; falls back to neighbor 0 when
            // latencies are hidden.
            let round = usize::try_from(ctx.round()).expect("round fits usize");
            let d = ctx.degree();
            if d == 0 {
                return;
            }
            let mut best = round % d;
            let mut best_l = u64::MAX;
            for i in 0..d {
                let v = ctx.neighbor_ids()[(round + i) % d];
                if let Some(l) = ctx.latency_to(v) {
                    if l.rounds() < best_l {
                        best_l = l.rounds();
                        best = (round + i) % d;
                    }
                }
            }
            ctx.initiate_nth(best);
        }
        fn on_exchange(
            &mut self,
            _ctx: &mut gossip_sim::Context<'_>,
            x: &gossip_sim::Exchange<Self::Payload>,
        ) {
            self.rumors.union_with(&x.payload);
        }
    }
    let g = generators::bimodal_latencies(&generators::clique(10), 1, 7, 0.3, 2);
    let goal = Goal::AllToAll;
    for known in [false, true] {
        let cfg = SimConfig {
            seed: 5,
            max_rounds: 10_000,
            latency_known: known,
            ..SimConfig::default()
        };
        let factory = |id: NodeId, n: usize| GreedyFastEdge {
            rumors: gossip_sim::RumorSet::singleton(n, id),
        };
        let goal_e = goal.clone();
        let engine = Simulator::new(&g, cfg).run(factory, |nodes: &[GreedyFastEdge], _| {
            goal_e.met_by_all(nodes.iter().map(|p| &p.rumors))
        });
        let goal_n = goal.clone();
        let net = run_reactor(&g, &cfg, factory, |nodes: &[&GreedyFastEdge], _| {
            goal_n.met_by_all(nodes.iter().map(|p| &p.rumors))
        });
        assert_equiv(
            &format!("greedy/latency_known={known}"),
            &engine,
            &net,
            |p: &GreedyFastEdge| p.rumors.fingerprint(),
        );
    }
}

#[test]
fn stream_policies_match_engine_over_the_self_link() {
    // Both budgeted streaming policies, over a real TCP self link: outcome,
    // per-node acquisition fingerprints, and the per-rumor completion
    // curve must all equal the engine's.
    fn check<P: Protocol + Send>(
        label: &str,
        g: &Graph,
        cfg: &SimConfig,
        factory: impl Fn(NodeId, usize) -> P + Copy,
        log: impl Fn(&P) -> &gossip_sim::CompletionLog,
    ) where
        P::Payload: gossip_net::WirePayload + Send,
    {
        let engine = Simulator::new(g, *cfg).run(factory, |_: &[P], _| false);
        let net = run_reactor(g, cfg, factory, |_: &[&P], _| false);
        assert_eq!(engine.reason, StopReason::AllDone, "{label}: finished");
        assert_equiv(label, &engine, &net, |p: &P| log(p).fingerprint());
        assert_eq!(
            completion_rounds(engine.nodes.iter().map(&log)),
            completion_rounds(net.nodes.iter().map(&log)),
            "{label}: per-rumor completion curve"
        );
    }
    let g = generators::ring_of_cliques(3, 4, 2);
    let cfg = config(11, 100_000, false);
    let spec = StreamSpec::spread(6, 2, 12);
    check(
        "self-link/rr-stream",
        &g,
        &cfg,
        |id, _| RrStreamNode::new(id, &spec),
        RrStreamNode::log,
    );
    check(
        "self-link/rlc-stream",
        &g,
        &cfg,
        |id, _| RlcStreamNode::new(id, &spec),
        RlcStreamNode::log,
    );
}

#[test]
fn stop_closure_sees_rounds_in_engine_order() {
    // The stop closure's round argument must match the engine's: record
    // the rounds at which it fires.
    let g = generators::cycle(6);
    let cfg = config(1, 50, false);
    let mut engine_rounds: Vec<Round> = Vec::new();
    let _ = Simulator::new(&g, cfg).run(
        |id, n| PushPullNode::new(id, n, Mode::PushPull),
        |_: &[PushPullNode], r| {
            engine_rounds.push(r);
            false
        },
    );
    let mut net_rounds: Vec<Round> = Vec::new();
    let _ = run_reactor(
        &g,
        &cfg,
        |id, n| PushPullNode::new(id, n, Mode::PushPull),
        |_: &[&PushPullNode], r| {
            net_rounds.push(r);
            false
        },
    );
    assert_eq!(engine_rounds, net_rounds);
}

#[test]
fn delta_bytes_on_slow_edges_are_pinned_across_transports() {
    // Delta push-pull soaks for 40 rounds on edges with ℓ > 1, where an
    // exchange's reply reaches its initiator before the exchange is due.
    // Where the initiator's confirmed basis is installed decides which
    // basis its next request to that peer references, and so the bytes:
    // both transports must put the pinned counts on the wire.
    // `(payload_bytes, delta_frames, snapshot_frames)` per seed 1, 2, 3.
    type Pins = [(u64, u64, u64); 3];
    fn check(label: &str, g: &Graph, snapshot_bytes: u64, frames_sent: u64, pins: Pins) {
        for (seed, (payload_bytes, delta_frames, snapshot_frames)) in (1..).zip(pins) {
            let cfg = config(seed, 40, false);
            let factory = |id, n| PushPullNode::new(id, n, Mode::PushPull);
            let soak = |_: &[&PushPullNode], _| false;
            let (looped, loop_stats, loop_acct) =
                run_loopback_mode_with_stats(g, &cfg, PayloadMode::Delta, factory, soak);
            let (reacted, reactor_stats, reactor_acct) =
                run_reactor_mode_with_stats(g, &cfg, PayloadMode::Delta, factory, soak);
            let label = format!("{label}/seed {seed}");
            assert_equiv(&label, &looped, &reacted, |p| p.rumors.fingerprint());
            assert_eq!(loop_acct, reactor_acct, "{label}: wire accounting");
            assert_eq!(
                loop_stats.frames_sent, reactor_stats.frames_sent,
                "{label}: frames sent"
            );
            assert_eq!(loop_stats.frames_sent, frames_sent, "{label}: frames sent");
            assert_eq!(
                loop_acct,
                WireAccounting {
                    payload_bytes,
                    snapshot_bytes,
                    delta_frames,
                    snapshot_frames,
                    stream_units: 0,
                },
                "{label}: pinned wire accounting"
            );
        }
    }
    check(
        "ring-of-cliques(8, 8, 3)",
        &generators::ring_of_cliques(8, 8, 3),
        61_440,
        5_120,
        [
            (36_798, 2_738, 2_382),
            (37_932, 2_612, 2_508),
            (38_949, 2_499, 2_621),
        ],
    );
    check(
        "uniform(clique 48, 1..5)",
        &generators::uniform_random_latencies(&generators::clique(48), 1, 5, 7),
        46_080,
        3_840,
        [
            (30_681, 1_711, 2_129),
            (30_537, 1_727, 2_113),
            (30_447, 1_737, 2_103),
        ],
    );
}

#[test]
fn delta_bytes_with_older_bases_are_pinned_over_sockets() {
    // The seed-1 bimodal soak of `loopback_equivalence.rs`: requests
    // reference bases older than the responder's newest, and the reactor
    // must put the loopback's pinned counts on the wire.
    let g = generators::bimodal_latencies(
        &generators::connected_erdos_renyi(20, 0.25, 3).expect("connected sample"),
        1,
        9,
        0.4,
        11,
    );
    let cfg = SimConfig {
        seed: 1,
        max_rounds: 200,
        ..SimConfig::default()
    };
    let (_, _, acct) = run_reactor_mode_with_stats(
        &g,
        &cfg,
        PayloadMode::Delta,
        |id, n| PushPullNode::new(id, n, Mode::PushPull),
        |_: &[&PushPullNode], _| false,
    );
    assert_eq!(
        acct,
        WireAccounting {
            payload_bytes: 30_543,
            snapshot_bytes: 96_000,
            delta_frames: 7_273,
            snapshot_frames: 727,
            stream_units: 0,
        }
    );
}

//! The loopback equivalence suite: a cluster of [`gossip_net`] runners
//! over the deterministic loopback transport must reproduce the
//! simulator's executions *exactly* — same stop reason, same round
//! count, same metrics, same final per-node rumor sets — for the same
//! graph, protocol, and seed. This is the golden cross-check behind
//! DESIGN.md §11: the runner's per-node phase schedule is a projection
//! of the engine's, and payloads survive the wire codec losslessly.

use gossip_core::flooding::FloodingNode;
use gossip_core::push_pull::{Mode, PushPullNode};
use gossip_core::stream::{RlcStreamNode, RrStreamNode};
use gossip_core::Goal;
use gossip_net::{run_loopback, run_loopback_mode_with_stats, PayloadMode, WireAccounting};
use gossip_sim::{
    completion_rounds, EngineStats, Outcome, Protocol, Round, Scheduling, SimConfig, Simulator,
    StopReason, StreamSpec,
};
use latency_graph::{generators, Graph, NodeId};

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
    let net = run_loopback(
        g,
        &cfg,
        |id, n| PushPullNode::new(id, n, Mode::PushPull),
        |nodes: &[&PushPullNode], _| goal.met_by_all(nodes.iter().map(|p| &p.rumors)),
    );
    assert_equiv(label, &engine, &net, |p: &PushPullNode| {
        p.rumors.fingerprint()
    });
    // Delta mode changes only the bytes on the wire, never the outcome.
    let (delta, _, acct) = run_loopback_mode_with_stats(
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
    let net = run_loopback(g, &cfg, FloodingNode::new, |nodes: &[&FloodingNode], _| {
        goal.met_by_all(nodes.iter().map(|p| &p.rumors))
    });
    assert_equiv(label, &engine, &net, |p: &FloodingNode| {
        p.rumors.fingerprint()
    });
    let (delta, _, _) = run_loopback_mode_with_stats(
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
fn geometric_graph_matches_engine() {
    // A random geometric graph stores its rows, and the node table
    // hosting all of it stores the protocol states, in grid-cell order
    // rather than id order: the runner reads every slot through the id-keyed
    // accessor, in snapshot and delta mode alike.
    let g = generators::random_geometric(60, 0.3, 4.0, 5);
    assert!(g.is_connected());
    for seed in [1, 9] {
        check_push_pull("geometric/push-pull", &g, &Goal::AllToAll, seed, 10_000);
    }
    check_flooding(
        "geometric/flooding",
        &g,
        &Goal::Broadcast(NodeId::new(11)),
        2,
        10_000,
    );
}

#[test]
fn heterogeneous_latencies_match_engine() {
    // Bimodal edge latencies exercise nontrivial ℓ in the hold queue:
    // replies arrive before their exchange is due.
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
fn delta_bytes_with_older_bases_are_pinned() {
    // Delta push-pull soaks to its round cap. On the bimodal graph a
    // request often references a basis older than the responder's newest
    // (about 1 500 times per run); on the clique every request names the
    // newest. Which bases a responder keeps, finds and prunes decides
    // which frames are deltas and how large they are, so the exact
    // accounting is the check that the knowledge cache keeps its
    // semantics. `reactor_equivalence.rs` pins the seed-1 bimodal case
    // over real sockets to the same counts.
    fn soak(g: &Graph, seed: u64, max_rounds: u64) -> WireAccounting {
        let cfg = SimConfig {
            seed,
            max_rounds,
            ..SimConfig::default()
        };
        run_loopback_mode_with_stats(
            g,
            &cfg,
            PayloadMode::Delta,
            |id, n| PushPullNode::new(id, n, Mode::PushPull),
            |_: &[&PushPullNode], _| false,
        )
        .2
    }
    let pin = |payload_bytes, snapshot_bytes, delta_frames, snapshot_frames| WireAccounting {
        payload_bytes,
        snapshot_bytes,
        delta_frames,
        snapshot_frames,
        stream_units: 0,
    };
    let bimodal = generators::bimodal_latencies(
        &generators::connected_erdos_renyi(20, 0.25, 3).expect("connected sample"),
        1,
        9,
        0.4,
        11,
    );
    assert_eq!(
        soak(&bimodal, 1, 200),
        pin(30_543, 96_000, 7_273, 727),
        "bimodal, seed 1"
    );
    assert_eq!(
        soak(&bimodal, 0xB0BA, 200),
        pin(30_183, 96_000, 7_313, 687),
        "bimodal, seed 0xB0BA"
    );
    assert_eq!(
        soak(&generators::clique(64), 1, 128),
        pin(86_871, 196_608, 12_193, 4_191),
        "clique(64), seed 1"
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
    let net = run_loopback(&g, &cfg, factory, |_: &[&DoneWhenFull], _| false);
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
        let net = run_loopback(&g, &cfg, factory, |nodes: &[&GreedyFastEdge], _| {
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

/// The streaming half of the obligation: both budgeted selection
/// policies must reproduce engine runs over the wire — stop reason,
/// rounds, metrics, per-node acquisition fingerprints, and the folded
/// per-rumor completion curve — and the stream-unit wire accounting
/// must cover every delivered payload unit.
fn check_stream<P: Protocol + Send>(
    label: &str,
    g: &Graph,
    cfg: &SimConfig,
    factory: impl Fn(NodeId, usize) -> P + Copy,
    log: impl Fn(&P) -> &gossip_sim::CompletionLog,
) where
    P::Payload: gossip_net::WirePayload + Send,
{
    let engine = Simulator::new(g, *cfg).run(factory, |_: &[P], _| false);
    let (net, _, acct) =
        run_loopback_mode_with_stats(g, cfg, PayloadMode::Snapshot, factory, |_: &[&P], _| false);
    assert_eq!(
        engine.reason,
        StopReason::AllDone,
        "{label}: engine finished"
    );
    assert_equiv(label, &engine, &net, |p: &P| log(p).fingerprint());
    let curve_e = completion_rounds(engine.nodes.iter().map(&log));
    let curve_n = completion_rounds(net.nodes.iter().map(&log));
    assert_eq!(curve_e, curve_n, "{label}: per-rumor completion curve");
    assert!(
        curve_e.iter().all(Option::is_some),
        "{label}: every rumor completed"
    );
    assert!(
        acct.stream_units >= net.metrics.payload_units,
        "{label}: sent stream units ({}) cover delivered payload units ({})",
        acct.stream_units,
        net.metrics.payload_units,
    );
}

#[test]
fn rr_stream_matches_engine() {
    let spec = StreamSpec::spread(8, 2, 16);
    let cfg = config(21, 100_000, false);
    let g = generators::cycle(16);
    check_stream(
        "cycle/rr-stream",
        &g,
        &cfg,
        |id, _| RrStreamNode::new(id, &spec),
        RrStreamNode::log,
    );
    let rc = generators::ring_of_cliques(4, 4, 3);
    let spec_rc = StreamSpec::spread(8, 2, 16);
    check_stream(
        "ring-of-cliques/rr-stream",
        &rc,
        &cfg,
        |id, _| RrStreamNode::new(id, &spec_rc),
        RrStreamNode::log,
    );
}

#[test]
fn rlc_stream_matches_engine() {
    let spec = StreamSpec::spread(8, 2, 16);
    let cfg = config(33, 100_000, false);
    let g = generators::cycle(16);
    check_stream(
        "cycle/rlc-stream",
        &g,
        &cfg,
        |id, _| RlcStreamNode::new(id, &spec),
        RlcStreamNode::log,
    );
    let rc = generators::ring_of_cliques(4, 4, 3);
    let spec_rc = StreamSpec::spread(8, 2, 16);
    check_stream(
        "ring-of-cliques/rlc-stream",
        &rc,
        &cfg,
        |id, _| RlcStreamNode::new(id, &spec_rc),
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
    let _ = run_loopback(
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

/// Records every RNG draw and the chosen peer, so engine-driven and
/// runner-driven instances can be compared draw for draw.
struct Recorder {
    draws: Vec<u64>,
    peers: Vec<NodeId>,
}

impl Protocol for Recorder {
    type Payload = ();
    fn payload(&self) {}
    fn on_round(&mut self, ctx: &mut gossip_sim::Context<'_>) {
        use rand::Rng as _;
        let d = ctx.degree();
        let i = ctx.rng().random_range(0..d);
        self.draws.push(u64::try_from(i).expect("index fits u64"));
        self.peers.push(ctx.neighbor_ids()[i]);
        ctx.initiate_nth(i);
    }
    fn on_exchange(&mut self, _: &mut gossip_sim::Context<'_>, _: &gossip_sim::Exchange<()>) {}
}

#[test]
fn runner_matches_engine_rng_stream() {
    // The shard runner seeds and views every node as the engine does:
    // same RNG derivation, same context, same draws and peer choices.
    let g = generators::cycle(7);
    let cfg = config(0xDECAF, 5, false);
    let make = |_, _| Recorder {
        draws: Vec::new(),
        peers: Vec::new(),
    };
    let engine = Simulator::new(&g, cfg).run(make, |_: &[Recorder], _| false);
    let net = run_loopback(&g, &cfg, make, |_: &[&Recorder], _| false);
    assert_eq!((engine.reason, engine.rounds), (net.reason, net.rounds));
    assert_eq!(engine.metrics, net.metrics);
    for (v, (e, n)) in engine.nodes.iter().zip(&net.nodes).enumerate() {
        // `on_round` runs for rounds 0..max_rounds.
        assert_eq!(e.draws.len(), 5, "node {v} stepped every round");
        assert_eq!(e.draws, n.draws, "node {v} draw stream");
        assert_eq!(e.peers, n.peers, "node {v} peer choices");
    }
}

/// On demand: initiates toward its first neighbor at round 0 and after
/// each of its first `limit` exchanges, and sleeps in between — so a
/// latency gap leaves whole rounds with no event for the engine to skip.
struct Sleeper {
    exchanges: u64,
    limit: u64,
}

impl Protocol for Sleeper {
    const SCHEDULING: Scheduling = Scheduling::OnDemand;
    type Payload = ();
    fn payload(&self) {}
    fn on_round(&mut self, ctx: &mut gossip_sim::Context<'_>) {
        if self.exchanges <= self.limit {
            ctx.initiate_nth(0);
        }
    }
    fn on_exchange(&mut self, _: &mut gossip_sim::Context<'_>, _: &gossip_sim::Exchange<()>) {
        self.exchanges += 1;
    }
}

#[test]
fn idle_gaps_skipped_by_the_engine_match() {
    let g = generators::uniform_random_latencies(&generators::cycle(8), 6, 9, 3);
    let make = |_, _| Sleeper {
        exchanges: 0,
        limit: 2,
    };
    let cfg = config(5, 60, false);
    let engine = Simulator::new(&g, cfg).run(make, |_: &[Sleeper], _| false);
    assert!(engine.stats.skipped_rounds > 0, "{:?}", engine.stats);
    let net = run_loopback(&g, &cfg, make, |_: &[&Sleeper], _| false);
    assert_eq!(net.stats.skipped_rounds, 0, "a net run visits every round");
    assert_equiv("cycle/idle-gaps", &engine, &net, |p| p.exchanges);
}

/// Push-pull on a cycle with latencies 1–6 for 40 rounds, where the
/// blocking and capped models reject a large share of initiations.
fn run_restricted(cfg: SimConfig) {
    let g = generators::uniform_random_latencies(&generators::cycle(16), 1, 6, 5);
    let _ = run_loopback(
        &g,
        &cfg,
        |id, n| PushPullNode::new(id, n, Mode::PushPull),
        |_: &[&PushPullNode], _| false,
    );
}

#[test]
#[should_panic(expected = "no blocking model")]
fn blocking_is_refused_not_ignored() {
    run_restricted(SimConfig {
        blocking: true,
        ..config(3, 40, false)
    });
}

#[test]
#[should_panic(expected = "no connection cap")]
fn connection_cap_is_refused_not_ignored() {
    run_restricted(SimConfig {
        connection_cap: Some(1),
        ..config(3, 40, false)
    });
}

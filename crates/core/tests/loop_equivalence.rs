//! Pins the two ways of driving the engine's one round loop against
//! each other.
//!
//! `gossip-mc` drives [`Stepper`](gossip_sim::Stepper) by hand: one
//! `deliver`, its stop checks, one `advance` — every round number
//! visited, `all_done` consulted every round. [`Simulator::run`]
//! drives the same `Stepper` but consults its stop checks on event
//! rounds only and jumps over event-free rounds. For what the checker
//! proves to carry over to what ships, that gating and skipping must
//! not be observable. This suite drives each shipped
//! [`Scheduling::OnDemand`] protocol through a hand-rolled `deliver` /
//! `all_done` / `at_round_cap` / `advance` loop and through
//! [`Simulator::run`], and asserts equal stop reason, rounds,
//! [`SimMetrics`] and per-node state digests — unfaulted and under a
//! crash plus a link drop.
//!
//! [`Scheduling::OnDemand`]: gossip_sim::Scheduling::OnDemand

use gossip_core::sparse::{SparseFloodNode, SparsePushNode};
use gossip_core::stream::{RlcStreamNode, RrStreamNode};
use gossip_sim::{
    FaultPlan, Outcome, Protocol, Round, SimConfig, SimMetrics, Simulator, StopReason, StreamSpec,
};
use latency_graph::generators::{extra, gadget};
use latency_graph::{Graph, NodeId};

/// The model checker's driving loop, verbatim: one `deliver`, the stop
/// checks, one `advance`.
fn drive_stepper<P: Protocol>(
    sim: &Simulator<'_>,
    factory: impl FnMut(NodeId, usize) -> P,
) -> Outcome<P> {
    let mut st = sim.stepper(factory);
    loop {
        st.deliver();
        if st.all_done() {
            return st.into_outcome(StopReason::AllDone);
        }
        if st.at_round_cap() {
            return st.into_outcome(StopReason::MaxRounds);
        }
        st.advance();
    }
}

/// Runs `factory`'s protocol both ways, asserts they agree on
/// everything the determinism contract pins, and returns the shared
/// `(rounds, metrics)`.
fn both_ways<P: Protocol>(
    g: &Graph,
    faults: &FaultPlan,
    factory: impl Fn(NodeId, usize) -> P,
    digest: impl Fn(&P) -> u64,
) -> (Round, SimMetrics) {
    let cfg = SimConfig {
        seed: 7,
        max_rounds: 200,
        ..SimConfig::default()
    };
    let sim = Simulator::new(g, cfg).with_faults(faults.clone());
    let stepped = drive_stepper(&sim, &factory);
    let shipped = sim.run(&factory, |_: &[P], _| false);
    let summary = |o: &Outcome<P>| {
        let digests: Vec<u64> = o.nodes.iter().map(&digest).collect();
        (o.reason, o.rounds, o.metrics, digests)
    };
    assert_eq!(
        summary(&shipped),
        summary(&stepped),
        "Simulator::run diverged from the hand-driven Stepper"
    );
    (stepped.rounds, stepped.metrics)
}

fn flood(g: &Graph, faults: &FaultPlan) -> (Round, SimMetrics) {
    let source = NodeId::new(0);
    both_ways(
        g,
        faults,
        |id, n| SparseFloodNode::new(id, n, source),
        |p| p.rumors.fingerprint(),
    )
}

fn push(g: &Graph, faults: &FaultPlan) -> (Round, SimMetrics) {
    let source = NodeId::new(0);
    both_ways(
        g,
        faults,
        |id, n| SparsePushNode::new(id, n, source),
        |p| p.rumors.fingerprint(),
    )
}

fn rr(g: &Graph, faults: &FaultPlan) -> (Round, SimMetrics) {
    let spec = StreamSpec::spread(8, 2, g.node_count());
    both_ways(
        g,
        faults,
        |id, _| RrStreamNode::new(id, &spec),
        |p| p.log().fingerprint() ^ p.ledger().spent().rotate_left(32),
    )
}

fn rlc(g: &Graph, faults: &FaultPlan) -> (Round, SimMetrics) {
    let spec = StreamSpec::spread(8, 2, g.node_count());
    both_ways(
        g,
        faults,
        |id, _| RlcStreamNode::new(id, &spec),
        |p| {
            let rank = u64::try_from(p.rank()).expect("rank fits u64");
            p.log().fingerprint() ^ p.ledger().spent().rotate_left(32) ^ rank
        },
    )
}

#[test]
fn ring_of_cliques_unfaulted() {
    let g = extra::ring_of_cliques(4, 4, 3);
    let none = FaultPlan::none();
    // (rounds, initiated, payload units), pinned so that a change which
    // moves both drivers together still shows up.
    for (name, (rounds, m), expected) in [
        ("flood", flood(&g, &none), (14, 44, 71)),
        ("push", push(&g, &none), (23, 178, 334)),
        ("rr", rr(&g, &none), (21, 336, 446)),
        ("rlc", rlc(&g, &none), (20, 320, 1122)),
    ] {
        assert_eq!((rounds, m.initiated, m.payload_units), expected, "{name}");
        assert_eq!(m.lost, 0, "{name}");
    }
}

#[test]
fn theorem7_gadget_unfaulted() {
    // Fast (ℓ = 2) and slow (ℓ = 2m = 12) cross edges side by side:
    // stragglers land long after their endpoints went idle, which is
    // where `Simulator::run` skips rounds and the hand-driven loop
    // does not.
    let g = gadget::theorem7_network(6, 0.4, 2, 1).graph;
    let none = FaultPlan::none();
    for (rounds, m) in [
        flood(&g, &none),
        push(&g, &none),
        rr(&g, &none),
        rlc(&g, &none),
    ] {
        assert!(rounds < 200);
        assert_eq!(m.lost, 0);
    }
}

#[test]
fn ring_of_cliques_with_crash_and_link_drop() {
    let g = extra::ring_of_cliques(4, 4, 3);
    let plan =
        FaultPlan::none()
            .crash(NodeId::new(5), 3)
            .drop_link(NodeId::new(0), NodeId::new(1), 2);
    // The crashed node is never done, so every run hits the cap — at
    // the same round number whether rounds are visited or skipped.
    for (rounds, m) in [
        flood(&g, &plan),
        push(&g, &plan),
        rr(&g, &plan),
        rlc(&g, &plan),
    ] {
        assert_eq!(rounds, 200);
        assert!(m.lost > 0, "the plan must swallow at least one exchange");
    }
}

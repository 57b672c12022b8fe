//! Property tests for the frontier-sparse engine's determinism
//! contract: for [`Scheduling::OnDemand`] protocols,
//! [`Simulator::run`] (calendar-gap skipping) and a hand-driven
//! [`Stepper`](gossip_sim::Stepper) (every round number visited)
//! produce identical outcomes — rounds, stop reason, metrics, per-node
//! states, and the skip-independent engine counters — over random
//! connected topologies crossed with random fault plans, connection
//! caps, and stop conditions.

use gossip_sim::{
    Context, Exchange, FaultPlan, Outcome, Protocol, RumorSet, Scheduling, SimConfig, Simulator,
    StopReason,
};
use latency_graph::{Graph, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random connected weighted graph (spanning tree + extras), with
/// latencies up to 12 so calendar gaps actually open up.
fn connected_graph(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = latency_graph::GraphBuilder::new(n);
    let mut edges = std::collections::BTreeSet::new();
    for v in 1..n {
        edges.insert((rng.random_range(0..v), v));
    }
    for _ in 0..n {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v {
            edges.insert((u.min(v), u.max(v)));
        }
    }
    for (u, v) in edges {
        b.add_edge(u, v, rng.random_range(1..=12)).unwrap();
    }
    b.build().unwrap()
}

/// Random crashes and link drops derived from the graph.
fn fault_plan(g: &Graph, seed: u64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17);
    let n = g.node_count();
    let mut plan = FaultPlan::none();
    for _ in 0..rng.random_range(0..3usize) {
        plan = plan.crash(NodeId::new(rng.random_range(0..n)), rng.random_range(0..25));
    }
    for _ in 0..rng.random_range(0..3usize) {
        let u = NodeId::new(rng.random_range(0..n));
        if let Some(&v) = g.neighbor_ids(u).first() {
            plan = plan.drop_link(u, v, rng.random_range(0..25));
        }
    }
    plan
}

/// An adversarial on-demand protocol: random staggered start wakes,
/// probabilistic initiations, random re-wake delays (including from
/// exchange delivery), and a retry wake on rejection — every way a
/// protocol can land on or leave the frontier.
struct Jitter {
    rumors: RumorSet,
}

impl Protocol for Jitter {
    const SCHEDULING: Scheduling = Scheduling::OnDemand;

    type Payload = RumorSet;

    fn payload(&self) -> RumorSet {
        self.rumors.clone()
    }

    fn payload_weight(p: &RumorSet) -> u64 {
        u64::try_from(p.len()).expect("fits u64")
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let delay = ctx.rng().random_range(1..6u64);
        if ctx.rng().random_range(0..4u8) > 0 {
            ctx.wake_at(delay);
        }
    }

    fn on_round(&mut self, ctx: &mut Context<'_>) {
        let d = ctx.degree();
        if d == 0 {
            return;
        }
        let roll: u8 = ctx.rng().random_range(0..4);
        if roll < 3 {
            let i = ctx.rng().random_range(0..d);
            ctx.initiate_nth(i);
        }
        if roll > 0 {
            let delay = ctx.rng().random_range(1..5u64);
            ctx.wake_in(delay);
        }
    }

    fn on_exchange(&mut self, ctx: &mut Context<'_>, x: &Exchange<RumorSet>) {
        self.rumors.union_with(&x.payload);
        if ctx.rng().random_range(0..3u8) == 0 {
            let delay = ctx.rng().random_range(1..4u64);
            ctx.wake_in(delay);
        }
    }

    fn on_rejected(&mut self, ctx: &mut Context<'_>, _peer: NodeId) {
        ctx.wake_in(1);
    }
}

/// A digest of everything the contract pins.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    rounds: u64,
    reason: &'static str,
    initiated: u64,
    delivered: u64,
    lost: u64,
    rejected: u64,
    payload_units: u64,
    fingerprints: Vec<u64>,
    stepped: u64,
    woken: u64,
    event_rounds: u64,
    peak_frontier: usize,
}

/// Which driver runs the simulation.
#[derive(Clone, Copy)]
enum Driver {
    /// [`Simulator::run`]: event-free rounds are skipped.
    Run,
    /// `deliver → (event round? stop) → cap → advance` by hand: every
    /// round number is visited.
    ByHand,
}

fn run_once(
    g: &Graph,
    faults: &FaultPlan,
    seed: u64,
    cap: Option<usize>,
    target: usize,
    driver: Driver,
) -> Digest {
    let cfg = SimConfig {
        seed,
        max_rounds: 40,
        connection_cap: cap,
        ..SimConfig::default()
    };
    let sim = Simulator::new(g, cfg).with_faults(faults.clone());
    let factory = |id, n| Jitter {
        rumors: RumorSet::singleton(n, id),
    };
    let stop = |ns: &[Jitter]| ns.iter().map(|x| x.rumors.len()).sum::<usize>() >= target;
    let out: Outcome<Jitter> = match driver {
        Driver::Run => sim.run(factory, |ns, _| stop(ns)),
        Driver::ByHand => {
            let mut st = sim.stepper(factory);
            let reason = loop {
                st.deliver();
                if st.is_event_round() && stop(st.nodes()) {
                    break StopReason::Condition;
                }
                if st.at_round_cap() {
                    break StopReason::MaxRounds;
                }
                st.advance();
            };
            st.into_outcome(reason)
        }
    };
    Digest {
        rounds: out.rounds,
        reason: if out.stopped_by_condition() {
            "condition"
        } else {
            "max-rounds"
        },
        initiated: out.metrics.initiated,
        delivered: out.metrics.delivered,
        lost: out.metrics.lost,
        rejected: out.metrics.rejected,
        payload_units: out.metrics.payload_units,
        fingerprints: out.nodes.iter().map(|x| x.rumors.fingerprint()).collect(),
        stepped: out.stats.stepped,
        woken: out.stats.woken,
        event_rounds: out.stats.event_rounds,
        peak_frontier: out.stats.peak_frontier,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Skipping and visiting agree on every pinned observable.
    #[test]
    fn skipped_and_visited_rounds_agree(
        n in 2usize..14,
        gseed in 0u64..500,
        seed in 0u64..200,
        cap_raw in 0usize..3,
        target_frac in 0usize..3,
    ) {
        let g = connected_graph(n, gseed);
        let faults = fault_plan(&g, gseed);
        let cap = (cap_raw > 0).then_some(cap_raw);
        // target_frac 0 ⇒ unreachable target (runs to MaxRounds);
        // otherwise stop mid-flight via the closure.
        let target = match target_frac {
            0 => usize::MAX,
            1 => n * n / 2,
            _ => n + n / 2,
        };
        let skipping = run_once(&g, &faults, seed, cap, target, Driver::Run);
        let visiting = run_once(&g, &faults, seed, cap, target, Driver::ByHand);
        prop_assert_eq!(&visiting, &skipping);
    }

    /// Round skipping never changes the event structure:
    /// `event_rounds + skipped_rounds`-style accounting aside, a run
    /// whose protocol goes fully idle ends at the same `MaxRounds`
    /// boundary either way.
    #[test]
    fn max_rounds_boundary_identical(n in 2usize..10, gseed in 0u64..200, seed in 0u64..100) {
        let g = connected_graph(n, gseed);
        let faults = FaultPlan::none();
        let a = run_once(&g, &faults, seed, None, usize::MAX, Driver::Run);
        let b = run_once(&g, &faults, seed, None, usize::MAX, Driver::ByHand);
        prop_assert_eq!(a.rounds, b.rounds);
        prop_assert_eq!(a.rounds, 40, "idle-capable runs still stop exactly at the cap");
        prop_assert_eq!(a.reason, "max-rounds");
    }
}

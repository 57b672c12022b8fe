//! Property tests for the frontier-sparse engine's determinism
//! contract: for [`Scheduling::OnDemand`] protocols, the
//! [`EngineMode::Frontier`] path (calendar-gap skipping) and the
//! [`EngineMode::Dense`] path (every round number visited) produce
//! identical outcomes —
//! rounds, stop reason, metrics, per-node states, and the
//! mode-independent engine counters — over random connected topologies
//! crossed with random fault plans, connection caps, and stop
//! conditions.

use gossip_sim::{
    Context, EngineMode, Exchange, FaultPlan, Protocol, RumorSet, Scheduling, SimConfig, Simulator,
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

fn run_once(
    g: &Graph,
    faults: &FaultPlan,
    seed: u64,
    cap: Option<usize>,
    target: usize,
    mode: EngineMode,
) -> Digest {
    let cfg = SimConfig {
        seed,
        max_rounds: 40,
        connection_cap: cap,
        mode,
        ..SimConfig::default()
    };
    let out = Simulator::new(g, cfg).with_faults(faults.clone()).run(
        |id, n| Jitter {
            rumors: RumorSet::singleton(n, id),
        },
        move |ns: &[Jitter], _| ns.iter().map(|x| x.rumors.len()).sum::<usize>() >= target,
    );
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

    /// Dense and Frontier agree on every pinned observable.
    #[test]
    fn dense_and_frontier_agree(
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
        let frontier = run_once(&g, &faults, seed, cap, target, EngineMode::Frontier);
        let dense = run_once(&g, &faults, seed, cap, target, EngineMode::Dense);
        prop_assert_eq!(&dense, &frontier);
    }

    /// Frontier-mode round skipping never changes the event structure:
    /// `event_rounds + skipped_rounds`-style accounting aside, a run
    /// whose protocol goes fully idle ends at the same `MaxRounds`
    /// boundary in both modes.
    #[test]
    fn max_rounds_boundary_identical(n in 2usize..10, gseed in 0u64..200, seed in 0u64..100) {
        let g = connected_graph(n, gseed);
        let faults = FaultPlan::none();
        let a = run_once(&g, &faults, seed, None, usize::MAX, EngineMode::Frontier);
        let b = run_once(&g, &faults, seed, None, usize::MAX, EngineMode::Dense);
        prop_assert_eq!(a.rounds, b.rounds);
        prop_assert_eq!(a.rounds, 40, "idle-capable runs still stop exactly at the cap");
        prop_assert_eq!(a.reason, "max-rounds");
    }
}

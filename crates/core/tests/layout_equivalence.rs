//! Layout equivalence: a random geometric graph stores its rows, and a
//! run on it stores its per-node state, in the generator's grid-cell
//! order rather than id order (`Graph::positions`). That order is a
//! memory layout, not a model input: every run on the geometric graph
//! must equal the run on the [`GraphBuilder`]'s graph of the same
//! pairs, which is stored in id order — same rounds, [`SimMetrics`],
//! [`EngineStats`] and per-node states in id order — and a stop
//! closure that folds the nodes must see each of them exactly once.
//! (Where both layouts are id order, as for a graph of one cell, the
//! suite passes trivially.)
//!
//! Push-pull carries a dense `n`-bit rumor set per node, so it runs on
//! the graphs up to 700 nodes; the two sparse protocols run on all.
//! Random push keeps every informed node stepping each round, so its
//! runs stop at [`PUSH_ROUNDS`] where they have not finished: a state
//! cut short at the cap must be as layout-independent as a final one.
//!
//! [`GraphBuilder`]: latency_graph::GraphBuilder

use gossip_core::push_pull::{self, Mode, PushPullConfig, PushPullNode};
use gossip_core::sparse::{self, SparseConfig, SparseFloodNode, SparsePushNode};
use gossip_sim::{
    Context, EngineMode, EngineStats, Exchange, Protocol, Round, Scheduling, SimConfig, SimMetrics,
    Simulator, StopReason,
};
use latency_graph::{generators, Graph, NodeId};

/// Rounds enough for every flood and push-pull case to finish.
const MAX_ROUNDS: u64 = 20_000;

/// The round cap of the random-push runs.
const PUSH_ROUNDS: u64 = 256;

/// A node that carries its own id beside the protocol it wraps, so a
/// stop closure can tell which node each state belongs to.
#[derive(Clone)]
struct Tagged<P> {
    id: NodeId,
    inner: P,
}

impl<P: Protocol> Protocol for Tagged<P> {
    const SCHEDULING: Scheduling = P::SCHEDULING;
    type Payload = P::Payload;

    fn payload(&self) -> P::Payload {
        self.inner.payload()
    }
    fn payload_weight(payload: &P::Payload) -> u64 {
        P::payload_weight(payload)
    }
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_start(ctx);
    }
    fn on_round(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_round(ctx);
    }
    fn on_exchange(&mut self, ctx: &mut Context<'_>, exchange: &Exchange<P::Payload>) {
        self.inner.on_exchange(ctx, exchange);
    }
    fn on_rejected(&mut self, ctx: &mut Context<'_>, peer: NodeId) {
        self.inner.on_rejected(ctx, peer);
    }
    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

/// What one run leaves that the layout must not change.
#[derive(Debug, PartialEq, Eq)]
struct Summary {
    reason: StopReason,
    rounds: Round,
    metrics: SimMetrics,
    stats: EngineStats,
    /// Per-node state digests, in id order.
    states: Vec<u64>,
    /// How many times the stop closure ran.
    stop_calls: u64,
}

/// Runs `factory`'s protocol on `g` until `goal` holds over every
/// node. The stop closure checks that it sees each node exactly once
/// before folding `goal` over them, and the outcome is checked to be
/// in id order.
fn run<P: Protocol>(
    g: &Graph,
    (seed, max_rounds): (u64, Round),
    factory: impl Fn(NodeId, usize) -> P,
    goal: impl Fn(&P) -> bool,
    digest: impl Fn(&P) -> u64,
) -> Summary {
    let config = SimConfig {
        seed,
        max_rounds,
        ..SimConfig::default()
    };
    let n = g.node_count();
    // `seen[v] == calls` ⇔ node `v` was met in the current call.
    let (mut seen, mut stop_calls) = (vec![0u64; n], 0u64);
    let out = Simulator::new(g, config).run(
        |id, n| Tagged {
            id,
            inner: factory(id, n),
        },
        |nodes: &[Tagged<P>], _| {
            stop_calls += 1;
            assert_eq!(nodes.len(), n, "the stop closure sees every node");
            for t in nodes {
                let at = &mut seen[t.id.index()];
                assert_eq!(*at, stop_calls - 1, "{} seen twice", t.id);
                *at = stop_calls;
            }
            nodes.iter().all(|t| goal(&t.inner))
        },
    );
    assert!(
        out.nodes.iter().zip(g.nodes()).all(|(t, v)| t.id == v),
        "the outcome's states are in id order"
    );
    Summary {
        reason: out.reason,
        rounds: out.rounds,
        metrics: out.metrics,
        stats: out.stats,
        states: out.nodes.iter().map(|t| digest(&t.inner)).collect(),
        stop_calls,
    }
}

/// The geometric graph of `(n, scale, seed)` at expected degree 18, and
/// the builder's graph of its pairs, which is stored in id order.
fn layouts(n: usize, scale: f64, seed: u64) -> (Graph, Graph) {
    let radius = (18.0 / (std::f64::consts::PI * n as f64)).sqrt().min(0.9);
    let geometric = generators::random_geometric(n, radius, scale, seed);
    let built = Graph::from_edges(
        n,
        geometric
            .edges()
            .map(|(u, v, l)| (u.index(), v.index(), l.get())),
    )
    .expect("a simple graph's edges");
    assert_eq!(geometric, built, "n = {n}: the same rows by id");
    (geometric, built)
}

/// Every `(n, seed, scale)` case, with both of its layouts.
fn cases() -> impl Iterator<Item = (String, Graph, Graph)> {
    [2, 700, 20_000].into_iter().flat_map(|n| {
        [(1, 200.0), (1, 1000.0), (7, 200.0), (7, 1000.0)].map(|(seed, scale)| {
            let (geometric, built) = layouts(n, scale, seed);
            (
                format!("n = {n}, seed = {seed}, scale = {scale}"),
                geometric,
                built,
            )
        })
    })
}

#[test]
fn sparse_flood_is_layout_independent() {
    let config = SparseConfig {
        max_rounds: MAX_ROUNDS,
        threads: 1,
        mode: EngineMode::Frontier,
    };
    for (label, geometric, built) in cases() {
        let source = NodeId::new(geometric.node_count() / 3);
        let [a, b] = [&geometric, &built].map(|g| sparse::flood_broadcast(g, source, &config, 3));
        assert_eq!(
            (a.rounds, a.complete, a.metrics, a.stats),
            (b.rounds, b.complete, b.metrics, b.stats),
            "{label}"
        );
        assert!(a.rumors == b.rumors, "{label}: final rumor sets");
        let [a, b] = [&geometric, &built].map(|g| {
            run(
                g,
                (3, MAX_ROUNDS),
                |id, n| SparseFloodNode::new(id, n, source),
                |p| p.rumors.contains(source),
                |p| p.rumors.fingerprint(),
            )
        });
        assert_eq!(a, b, "{label}");
    }
}

#[test]
fn sparse_push_is_layout_independent() {
    let config = SparseConfig {
        max_rounds: PUSH_ROUNDS,
        threads: 1,
        mode: EngineMode::Frontier,
    };
    for (label, geometric, built) in cases() {
        let source = NodeId::new(geometric.node_count() / 2);
        let [a, b] = [&geometric, &built].map(|g| sparse::push_broadcast(g, source, &config, 5));
        assert_eq!(
            (a.rounds, a.complete, a.metrics, a.stats),
            (b.rounds, b.complete, b.metrics, b.stats),
            "{label}"
        );
        assert!(a.rumors == b.rumors, "{label}: final rumor sets");
        // The RNG streams are per node id: another run seed, other draws.
        let [a, b] = [&geometric, &built].map(|g| {
            run(
                g,
                (0x5EED, PUSH_ROUNDS),
                |id, n| SparsePushNode::new(id, n, source),
                |p| p.rumors.contains(source),
                |p| p.rumors.fingerprint(),
            )
        });
        assert_eq!(a, b, "{label}");
    }
}

#[test]
fn push_pull_is_layout_independent() {
    let config = PushPullConfig {
        mode: Mode::PushPull,
        max_rounds: MAX_ROUNDS,
    };
    for (label, geometric, built) in cases().filter(|(_, g, _)| g.node_count() <= 700) {
        let source = NodeId::new(geometric.node_count() - 1);
        let [a, b] = [&geometric, &built].map(|g| push_pull::broadcast(g, source, &config, 11));
        assert_eq!(
            (a.rounds, a.complete, a.metrics),
            (b.rounds, b.complete, b.metrics),
            "{label}"
        );
        assert!(a.rumors == b.rumors, "{label}: final rumor sets");
        let [a, b] = [&geometric, &built].map(|g| {
            run(
                g,
                (11, MAX_ROUNDS),
                |id, n| PushPullNode::new(id, n, Mode::PushPull),
                |p| p.rumors.contains(source),
                |p| p.rumors.fingerprint(),
            )
        });
        assert_eq!(a, b, "{label}");
    }
}

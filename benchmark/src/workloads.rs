//! The seven workloads: how each builds its inputs from the seed, what
//! one rep runs, and the answer a rep must produce.
//!
//! A plain rep calls the public driver a user would call
//! (`push_pull::all_to_all`, `sparse::flood_broadcast`,
//! `stream::rlc_stream`, `run_loopback_mode_with_stats`,
//! `run_reactor_mode_with_stats`). A traced rep runs the same
//! computation with every node wrapped in [`Timed`] and a stop closure
//! that timestamps each (event) round; [`Answer`] equality between the
//! two is asserted by the caller.

use std::sync::Arc;
use std::time::Instant;

use gossip_core::common::Goal;
use gossip_core::push_pull::{self, Mode, PushPullConfig, PushPullNode};
use gossip_core::sparse::{self, SparseConfig, SparseFloodNode};
use gossip_core::stream::{self, RlcStreamNode, StreamConfig};
use gossip_net::{
    run_loopback_mode_with_stats, run_reactor_mode_with_stats, PayloadMode, TransportStats,
    WireAccounting, WirePayload,
};
use gossip_sim::{
    CompactRumorSet, EngineMode, EngineStats, Outcome, Protocol, SharedRumorSet, SimConfig,
    SimMetrics, Simulator, StopReason, StreamSpec,
};
use latency_graph::generators::layered_ring::{LayeredRing, LayeredRingSpec};
use latency_graph::{generators, Graph, NodeId};

use crate::procfs;
use crate::stats::{fnv1a, FNV_OFFSET};
use crate::timed::{Probe, Timed};

/// One benchmark workload. Sizes are fixed; see `README.md` for why
/// each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Push-pull all-to-all on a 4096-clique, 20 seeds per rep.
    CliquePushpull,
    /// Frontier flooding on the 10⁶-node layered ring.
    RingFlood,
    /// Frontier flooding on a 262 144-node random-geometric graph.
    GeoFlood,
    /// Push-pull to convergence over the loopback transport, 10 seeds.
    LoopbackRing,
    /// 128-round anti-entropy soak on the reactor, snapshot payloads.
    SoakSnapshot,
    /// The same soak with delta payloads.
    SoakDelta,
    /// RLC algebraic streaming on two Theorem 7 gadgets.
    StreamRlc,
}

/// Every workload, in the order `run` executes them.
pub const ALL: [Workload; 7] = [
    Workload::CliquePushpull,
    Workload::RingFlood,
    Workload::GeoFlood,
    Workload::LoopbackRing,
    Workload::SoakSnapshot,
    Workload::SoakDelta,
    Workload::StreamRlc,
];

const CLIQUE_SEEDS: u64 = 20;
const LOOPBACK_SEEDS: u64 = 10;
const SOAK_HORIZON: u64 = 128;
/// The Theorem 7 instances `stream_rlc` streams over. Pinned, not drawn
/// from `--seed`: completion time is bimodal in the *graph* seed (88 to
/// 134 rounds, 0.39 to 0.86 s — a right node without a fast cross edge
/// waits a full slow latency), which would bury a 10 % regression under
/// input variance. `--seed` drives the peer choices and the random
/// combinations instead, where RLC's randomness lives.
const STREAM_GRAPH_SEEDS: [u64; 2] = [1, 2];

const FLOOD_CONFIG: SparseConfig = SparseConfig {
    max_rounds: 100_000_000,
    threads: 1,
    mode: EngineMode::Frontier,
};
const STREAM_CONFIG: StreamConfig = StreamConfig {
    max_rounds: 1_000_000,
    threads: 1,
    mode: EngineMode::Frontier,
};

impl Workload {
    /// The name used on the command line and in every result file.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CliquePushpull => "clique_pushpull",
            Workload::RingFlood => "ring_flood",
            Workload::GeoFlood => "geo_flood",
            Workload::LoopbackRing => "loopback_ring",
            Workload::SoakSnapshot => "soak_snapshot",
            Workload::SoakDelta => "soak_delta",
            Workload::StreamRlc => "stream_rlc",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// How the workload runs over the net stack; `None` for the four
    /// in-process workloads.
    pub fn net(self) -> Option<NetPlan> {
        let soak = |mode| NetPlan {
            rung: Rung::Reactor,
            mode,
            seeds: 1,
            max_rounds: SOAK_HORIZON,
            converge: false,
        };
        match self {
            Workload::LoopbackRing => Some(NetPlan {
                rung: Rung::Loopback,
                mode: PayloadMode::Snapshot,
                seeds: LOOPBACK_SEEDS,
                max_rounds: 100_000,
                converge: true,
            }),
            Workload::SoakSnapshot => Some(soak(PayloadMode::Snapshot)),
            Workload::SoakDelta => Some(soak(PayloadMode::Delta)),
            Workload::CliquePushpull
            | Workload::RingFlood
            | Workload::GeoFlood
            | Workload::StreamRlc => None,
        }
    }
}

/// The 15-line `layered_ring_exact` of `gossip-bench`'s engine bench,
/// copied so this package does not depend on it: a layered ring with
/// exactly `total = k · layer` nodes.
fn layered_ring_exact(total: usize, layer: usize, ell: u32, seed: u64) -> LayeredRing {
    assert!(layer >= 2 && total.is_multiple_of(layer) && total / layer >= 3);
    let k = total / layer;
    let mut c = 1.5f64;
    for _ in 0..32 {
        c = 0.75 + 0.25 * (9.0 - 8.0 * c / layer as f64).sqrt();
    }
    let ring = LayeredRing::generate(&LayeredRingSpec {
        n: total / 2,
        alpha: 2.0 / (k as f64 * c),
        ell,
        seed,
    });
    assert_eq!(ring.graph.node_count(), total, "exact sizing failed");
    ring
}

/// `gossip-bench`'s `connected_geometric`: a random-geometric graph of
/// expected degree `target_degree`, retried on the next seed until
/// connected.
fn connected_geometric(n: usize, target_degree: f64, seed: u64) -> Graph {
    let radius = (target_degree / (std::f64::consts::PI * n as f64)).sqrt();
    (0..8)
        .map(|attempt| generators::random_geometric(n, radius, 200.0, seed.wrapping_add(attempt)))
        .find(Graph::is_connected)
        .expect("a connected geometric sample within 8 attempts")
}

/// What a workload runs on: everything built before the first rep.
#[derive(Debug)]
pub struct Inputs {
    /// The topology (two for `stream_rlc`).
    pub graphs: Vec<Graph>,
    stream: Option<StreamSpec>,
}

/// Builds `workload`'s inputs from `seed`. This is what `setup_s` and
/// `graph.build_s` time.
pub fn build_inputs(workload: Workload, seed: u64) -> Inputs {
    let one = |g: Graph| Inputs {
        graphs: vec![g],
        stream: None,
    };
    match workload {
        Workload::CliquePushpull => one(generators::clique(4096)),
        Workload::RingFlood => one(layered_ring_exact(1_000_000, 4, 1024, seed).graph),
        Workload::GeoFlood => one(connected_geometric(262_144, 18.0, seed)),
        Workload::LoopbackRing => one(generators::ring_of_cliques(32, 8, 3)),
        Workload::SoakSnapshot | Workload::SoakDelta => one(generators::clique(1024)),
        Workload::StreamRlc => Inputs {
            graphs: STREAM_GRAPH_SEEDS
                .iter()
                .map(|&s| generators::theorem7_network(32, 0.1, 4, s).graph)
                .collect(),
            stream: Some(StreamSpec::spread(256, 16, 64)),
        },
    }
}

/// Cluster-wide wire totals of a rep's net runs (zeros in-process).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetTotals {
    /// `TransportStats::frames_sent`.
    pub frames_sent: u64,
    /// `TransportStats::bytes_sent`, headers included.
    pub bytes_sent: u64,
    /// `WireAccounting::payload_bytes`.
    pub payload_bytes: u64,
    /// `WireAccounting::snapshot_bytes`: the always-snapshot cost.
    pub snapshot_bytes: u64,
    /// Payload frames sent in delta form.
    pub delta_frames: u64,
    /// Payload frames sent in snapshot form.
    pub snapshot_frames: u64,
}

impl NetTotals {
    fn of(stats: &TransportStats, wire: &WireAccounting) -> NetTotals {
        NetTotals {
            frames_sent: stats.frames_sent,
            bytes_sent: stats.bytes_sent,
            payload_bytes: wire.payload_bytes,
            snapshot_bytes: wire.snapshot_bytes,
            delta_frames: wire.delta_frames,
            snapshot_frames: wire.snapshot_frames,
        }
    }
}

/// What one rep computed, summed over its runs. Everything here is
/// simulated or counted, so it repeats exactly for a given seed: plain
/// reps must equal each other, the traced rep and (at the default seed)
/// the pins in `expected.json`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    /// Every run reached its goal (or, for a soak, its horizon).
    pub complete: bool,
    /// Simulated rounds — the paper's cost.
    pub rounds: u64,
    /// Engine counters (one op = one initiated exchange).
    pub metrics: SimMetrics,
    /// Frontier-engine execution counters (zeros for `EveryRound`
    /// protocols and net runs).
    pub stats: EngineStats,
    /// FNV-1a over every run's per-node state fingerprints, in order.
    pub digest: u64,
    /// Wire totals.
    pub net: NetTotals,
}

impl Answer {
    fn new() -> Answer {
        Answer {
            complete: true,
            rounds: 0,
            metrics: SimMetrics::default(),
            stats: EngineStats::default(),
            digest: FNV_OFFSET,
            net: NetTotals::default(),
        }
    }

    fn absorb(
        &mut self,
        complete: bool,
        rounds: u64,
        metrics: &SimMetrics,
        stats: &EngineStats,
        fingerprints: impl Iterator<Item = u64>,
    ) {
        self.complete &= complete;
        self.rounds += rounds;
        self.metrics.initiated += metrics.initiated;
        self.metrics.delivered += metrics.delivered;
        self.metrics.lost += metrics.lost;
        self.metrics.rejected += metrics.rejected;
        self.metrics.payload_units += metrics.payload_units;
        self.stats.stepped += stats.stepped;
        self.stats.woken += stats.woken;
        self.stats.event_rounds += stats.event_rounds;
        self.stats.skipped_rounds += stats.skipped_rounds;
        self.stats.peak_frontier = self.stats.peak_frontier.max(stats.peak_frontier);
        self.digest = fnv1a(self.digest, fingerprints);
    }

    fn absorb_outcome<P>(&mut self, complete: bool, out: &Outcome<P>, fp: impl Fn(&P) -> u64) {
        self.absorb(
            complete,
            out.rounds,
            &out.metrics,
            &out.stats,
            out.nodes.iter().map(fp),
        );
    }

    fn absorb_net(&mut self, net: &NetTotals) {
        self.net.frames_sent += net.frames_sent;
        self.net.bytes_sent += net.bytes_sent;
        self.net.payload_bytes += net.payload_bytes;
        self.net.snapshot_bytes += net.snapshot_bytes;
        self.net.delta_frames += net.delta_frames;
        self.net.snapshot_frames += net.snapshot_frames;
    }

    /// The transport-independent part: what engine, loopback and
    /// reactor must agree on.
    pub fn outcome(&self) -> (bool, u64, SimMetrics, u64) {
        (self.complete, self.rounds, self.metrics, self.digest)
    }

    /// Exchanges that failed: lost or rejected ones, and every
    /// exchange of a rep that did not complete.
    pub fn ops_failed(&self) -> u64 {
        if self.complete {
            self.metrics.lost + self.metrics.rejected
        } else {
            self.metrics.initiated
        }
    }
}

/// One engine or transport run inside a traced rep.
#[derive(Clone, Copy, Debug)]
pub struct RunSpan {
    /// When the run's driver was called.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// Index into [`Tracer::ticks`] of the run's first round tick.
    pub first_tick: usize,
}

/// What a traced rep records, kept in memory until the process ends.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Callback counts and sampled times, shared by every node.
    pub probe: Arc<Probe>,
    /// One timestamp per stop-closure call, i.e. per (event) round.
    pub ticks: Vec<Instant>,
    /// The runs of the rep, in order.
    pub runs: Vec<RunSpan>,
    /// Most OS threads seen from the stop closure of a net run.
    pub threads_peak: u64,
}

impl Tracer {
    fn run<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let first_tick = self.ticks.len();
        let start = Instant::now();
        let out = f(self);
        self.runs.push(RunSpan {
            start,
            end: Instant::now(),
            first_tick,
        });
        out
    }
}

/// One traced engine run: `make`'s nodes wrapped in [`Timed`], a tick
/// per stop-closure call.
fn traced_sim<P>(
    g: &Graph,
    config: SimConfig,
    tracer: &mut Tracer,
    mut make: impl FnMut(NodeId, usize) -> P,
    mut stop: impl FnMut(&[Timed<P>]) -> bool,
) -> Outcome<Timed<P>>
where
    P: Protocol + Send,
    P::Payload: Send,
{
    tracer.run(|tracer| {
        let probe = tracer.probe.clone();
        let ticks = &mut tracer.ticks;
        Simulator::new(g, config).run(
            |id, n| Timed::new(make(id, n), probe.clone()),
            |nodes, _| {
                ticks.push(Instant::now());
                stop(nodes)
            },
        )
    })
}

/// The engine configuration the library drivers build from their own
/// config structs: one thread, frontier mode, everything else default.
fn sim_config(seed: u64, max_rounds: u64) -> SimConfig {
    SimConfig {
        seed,
        max_rounds,
        ..SimConfig::default()
    }
}

/// A flood node's state for the digest. `CompactRumorSet::fingerprint`
/// is Θ(universe) by contract (bit-identical to the dense set's), which
/// over 10⁶ nodes costs twenty times the run itself; in a one-to-all
/// flood a node holds either nothing or the source's rumor, so the
/// count says everything the fingerprint would.
fn flood_state(rumors: &CompactRumorSet) -> u64 {
    rumors.len() as u64
}

/// Runs one rep of `workload`: plain when `tracer` is `None`, traced
/// otherwise. Both compute the same [`Answer`].
pub fn run_rep(
    workload: Workload,
    inputs: &Inputs,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
) -> Answer {
    let mut answer = Answer::new();
    let source = NodeId::new(0);
    match workload {
        Workload::CliquePushpull => {
            let g = &inputs.graphs[0];
            for s in (0..CLIQUE_SEEDS).map(|i| seed.wrapping_add(i)) {
                if let Some(tracer) = tracer.as_deref_mut() {
                    let out = traced_sim(
                        g,
                        sim_config(s, SimConfig::default().max_rounds),
                        tracer,
                        |id, n| PushPullNode::new(id, n, Mode::PushPull),
                        |nodes| Goal::AllToAll.met_by_all(nodes.iter().map(|t| &t.inner.rumors)),
                    );
                    answer.absorb_outcome(out.completed(), &out, |t| t.inner.rumors.fingerprint());
                } else {
                    let out = push_pull::all_to_all(g, &PushPullConfig::default(), s);
                    answer.absorb(
                        out.complete,
                        out.rounds,
                        &out.metrics,
                        &EngineStats::default(),
                        out.rumors.iter().map(gossip_sim::RumorSet::fingerprint),
                    );
                }
            }
        }
        Workload::RingFlood | Workload::GeoFlood => {
            let g = &inputs.graphs[0];
            if let Some(tracer) = tracer {
                let out = traced_sim(
                    g,
                    sim_config(seed, FLOOD_CONFIG.max_rounds),
                    tracer,
                    |id, n| SparseFloodNode::new(id, n, source),
                    |_| false,
                );
                answer.absorb_outcome(out.completed(), &out, |t| flood_state(&t.inner.rumors));
            } else {
                let out = sparse::flood_broadcast(g, source, &FLOOD_CONFIG, seed);
                answer.absorb(
                    out.complete,
                    out.rounds,
                    &out.metrics,
                    &out.stats,
                    out.rumors.iter().map(flood_state),
                );
            }
        }
        Workload::StreamRlc => {
            let spec = inputs.stream.as_ref().expect("stream_rlc has a spec");
            let seeds = (0..).map(|i| seed.wrapping_add(i));
            for (g, s) in inputs.graphs.iter().zip(seeds) {
                if let Some(tracer) = tracer.as_deref_mut() {
                    let out = traced_sim(
                        g,
                        sim_config(s, STREAM_CONFIG.max_rounds),
                        tracer,
                        |id, _| RlcStreamNode::new(id, spec),
                        |_| false,
                    );
                    answer.absorb_outcome(out.completed(), &out, |t| t.inner.log().fingerprint());
                } else {
                    let out = stream::rlc_stream(g, spec, &STREAM_CONFIG, s);
                    answer.absorb(
                        out.complete,
                        out.rounds,
                        &out.metrics,
                        &out.stats,
                        out.logs.iter().map(gossip_sim::CompletionLog::fingerprint),
                    );
                }
            }
        }
        Workload::LoopbackRing | Workload::SoakSnapshot | Workload::SoakDelta => {
            let plan = workload.net().expect("a net workload has a plan");
            return run_net(plan, &inputs.graphs[0], seed, tracer);
        }
    }
    answer
}

/// The three ways the repo can run one schedule. Its engine ≡ loopback
/// ≡ reactor contract makes them the same computation, so the time
/// between two rungs is the cost of the layer the upper one adds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// `Simulator::run`: no wire, no runner.
    Sim,
    /// `run_loopback_mode_with_stats`: runner, hold queues and wire
    /// codec, zero I/O.
    Loopback,
    /// `run_reactor_mode_with_stats`: the same over real sockets on the
    /// host loopback interface.
    Reactor,
}

/// One push-pull schedule over the net stack: `seeds` runs, each to
/// all-to-all dissemination (`converge`) or soaking to `max_rounds`.
/// The ladder re-runs a workload's plan with only `rung` (or `mode`)
/// changed.
#[derive(Clone, Copy, Debug)]
pub struct NetPlan {
    /// Which driver runs the schedule.
    pub rung: Rung,
    /// Snapshot or delta payload frames (ignored by [`Rung::Sim`]).
    pub mode: PayloadMode,
    /// Consecutive seeds per rep.
    pub seeds: u64,
    /// Round cap; the horizon of a soak.
    pub max_rounds: u64,
    /// Stop at all-to-all dissemination instead of soaking.
    pub converge: bool,
}

/// Runs push-pull nodes built by `make` on `rung` and folds the
/// outcome. `converge` stops at all-to-all dissemination; otherwise
/// the run soaks to `config.max_rounds`.
#[allow(clippy::too_many_arguments)] // one call shape for three drivers
fn push_pull_on<P>(
    rung: Rung,
    g: &Graph,
    config: &SimConfig,
    mode: PayloadMode,
    converge: bool,
    make: impl FnMut(NodeId, usize) -> P,
    rumors: impl Fn(&P) -> &SharedRumorSet,
    mut tick: impl FnMut(),
    answer: &mut Answer,
) where
    P: Protocol + Send,
    P::Payload: WirePayload + Send,
{
    let (out, net) = match rung {
        Rung::Sim => {
            let stop = |nodes: &[P], _| {
                tick();
                converge && nodes.iter().all(|p| rumors(p).is_full())
            };
            let out = Simulator::new(g, *config).run(make, stop);
            (out, NetTotals::default())
        }
        Rung::Loopback | Rung::Reactor => {
            let stop = |nodes: &[&P], _| {
                tick();
                converge && nodes.iter().all(|p| rumors(p).is_full())
            };
            let (out, stats, wire) = if rung == Rung::Loopback {
                run_loopback_mode_with_stats(g, config, mode, make, stop)
            } else {
                run_reactor_mode_with_stats(g, config, mode, make, stop)
            };
            (out, NetTotals::of(&stats, &wire))
        }
    };
    let complete = if converge {
        out.reason == StopReason::Condition
    } else {
        out.reason == StopReason::MaxRounds && out.rounds == config.max_rounds
    };
    answer.absorb_outcome(complete, &out, |p| rumors(p).fingerprint());
    answer.absorb_net(&net);
}

/// One rep of `plan` on `g`: plain when `tracer` is `None`, traced
/// (nodes wrapped in [`Timed`], a tick and a thread-count sample per
/// round) otherwise.
pub fn run_net(plan: NetPlan, g: &Graph, seed: u64, mut tracer: Option<&mut Tracer>) -> Answer {
    let NetPlan {
        rung,
        mode,
        seeds,
        max_rounds,
        converge,
    } = plan;
    let bare = |id, n| PushPullNode::new(id, n, Mode::PushPull);
    let mut answer = Answer::new();
    for s in (0..seeds).map(|i| seed.wrapping_add(i)) {
        let config = sim_config(s, max_rounds);
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.run(|tracer| {
                let probe = tracer.probe.clone();
                let (ticks, threads_peak) = (&mut tracer.ticks, &mut tracer.threads_peak);
                push_pull_on(
                    rung,
                    g,
                    &config,
                    mode,
                    converge,
                    |id, n| Timed::new(bare(id, n), probe.clone()),
                    |t| &t.inner.rumors,
                    || {
                        ticks.push(Instant::now());
                        *threads_peak = (*threads_peak).max(procfs::threads());
                    },
                    &mut answer,
                );
            });
        } else {
            push_pull_on(
                rung,
                g,
                &config,
                mode,
                converge,
                bare,
                |p| &p.rumors,
                || {},
                &mut answer,
            );
        }
    }
    answer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    /// The copied generator helpers still land on exact sizes.
    #[test]
    fn copied_generators_size_exactly() {
        let ring = layered_ring_exact(1024, 4, 8, 7);
        assert_eq!(ring.graph.node_count(), 1024);
        assert_eq!(ring.layer_size, 4);
        let geo = connected_geometric(512, 18.0, 1);
        assert!(geo.is_connected());
        assert_eq!(geo.node_count(), 512);
    }

    /// Plain and traced reps agree, and so do the three rungs, on the
    /// one net workload small enough for a unit test.
    #[test]
    fn loopback_ring_plain_traced_and_rungs_agree() {
        let w = Workload::LoopbackRing;
        let inputs = build_inputs(w, 1);
        let plain = run_rep(w, &inputs, 1, None);
        assert!(plain.complete && plain.ops_failed() == 0);
        assert!(plain.net.frames_sent > 0 && plain.net.delta_frames == 0);
        let mut tracer = Tracer::default();
        let traced = run_rep(w, &inputs, 1, Some(&mut tracer));
        assert_eq!(plain, traced);
        assert_eq!(tracer.runs.len(), 10);
        assert_eq!(tracer.ticks.len() as u64, plain.rounds + 10);
        assert_eq!(tracer.probe.on_round.calls(), plain.metrics.initiated);
        let plan = w.net().expect("a net workload");
        let g = &inputs.graphs[0];
        for rung in [Rung::Sim, Rung::Reactor] {
            let other = run_net(NetPlan { rung, ..plan }, g, 1, None);
            assert_eq!(plain.outcome(), other.outcome(), "{rung:?} diverged");
        }
        let mode = PayloadMode::Delta;
        let delta = run_net(NetPlan { mode, ..plan }, g, 1, None);
        assert_eq!(plain.outcome(), delta.outcome());
        assert!(delta.net.payload_bytes < plain.net.payload_bytes);
    }

    #[test]
    fn an_incomplete_rep_fails_every_op() {
        let mut a = Answer::new();
        let m = SimMetrics {
            initiated: 10,
            delivered: 7,
            lost: 2,
            rejected: 1,
            payload_units: 0,
        };
        a.absorb(true, 5, &m, &EngineStats::default(), [1, 2].into_iter());
        assert_eq!(a.ops_failed(), 3);
        a.absorb(false, 5, &m, &EngineStats::default(), [3].into_iter());
        assert_eq!(a.ops_failed(), 20);
    }
}

//! `Timed<P>`: a transparent protocol wrapper that times callbacks from
//! outside the engine, the way `gossip_sim::trace::Traced` records
//! events.
//!
//! One `Instant::now()` pair per callback would dominate a run (a
//! `clique_pushpull` rep makes 4.9 M callbacks of ~100 ns each, a
//! `ring_flood` rep 71 M of ~10 ns), so every callback is *counted* but
//! only every [`STRIDE`]-th call of each kind is *timed*, and the total
//! is the timed calls' mean scaled by the call count. A callback that
//! costs less than the clock read itself (~40 ns here) is estimated to
//! within the calibration error of that read, not better.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gossip_sim::{Context, Exchange, Protocol, Scheduling};
use latency_graph::NodeId;

/// Every `STRIDE`-th call of a callback kind is timed. One in 17, not
/// the round 16: the engine calls nodes in id order, and a stride that
/// divides the node count (64, 256, 1024 and 4096 here) would time the
/// same few nodes every round.
pub const STRIDE: u64 = 17;

/// Calls, timed calls and timed nanoseconds of one callback kind.
/// Atomics only because `Protocol::payload` takes `&self` and the
/// engine wants `Send` nodes; the benchmark drives every run from one
/// thread, so each counter has a single writer and is bumped with a
/// relaxed load and store — a locked `fetch_add` per callback cost
/// `ring_flood` 15 % on its own. (With engine threads the counts would
/// be approximate; no workload uses any.)
#[derive(Debug, Default)]
pub struct Kind {
    calls: AtomicU64,
    sampled: AtomicU64,
    sampled_ns: AtomicU64,
}

/// Single-writer add; returns the previous value.
#[inline]
fn bump(counter: &AtomicU64, by: u64) -> u64 {
    let before = counter.load(Ordering::Relaxed);
    counter.store(before + by, Ordering::Relaxed);
    before
}

impl Kind {
    /// Runs `f`, counting the call and timing it if it falls on the
    /// stride.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        if !bump(&self.calls, 1).is_multiple_of(STRIDE) {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        bump(&self.sampled, 1);
        bump(&self.sampled_ns, ns);
        out
    }

    /// Calls counted so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Calls timed so far.
    pub fn sampled(&self) -> u64 {
        self.sampled.load(Ordering::Relaxed)
    }

    /// Mean nanoseconds a timed call read.
    pub fn mean_timed_ns(&self) -> f64 {
        match self.sampled() {
            0 => 0.0,
            sampled => self.sampled_ns.load(Ordering::Relaxed) as f64 / sampled as f64,
        }
    }

    /// Estimated seconds spent in all calls: the timed calls' mean,
    /// less `empty_ns` (what timing an empty closure reads — the part
    /// of the clock reads that falls inside every interval), times the
    /// call count.
    pub fn estimated_seconds(&self, empty_ns: f64) -> f64 {
        (self.mean_timed_ns() - empty_ns).max(0.0) * self.calls() as f64 / 1e9
    }
}

/// The three callback kinds every workload's protocol spends time in.
#[derive(Debug, Default)]
pub struct Probe {
    /// `Protocol::payload` — the snapshot taken per exchange endpoint.
    pub payload: Kind,
    /// `Protocol::on_round`.
    pub on_round: Kind,
    /// `Protocol::on_exchange` — the merge on delivery.
    pub on_exchange: Kind,
}

/// A protocol that behaves exactly like `inner` and reports where its
/// callbacks' time went to a shared [`Probe`].
#[derive(Clone, Debug)]
pub struct Timed<P> {
    /// The wrapped protocol (public for stop closures and digests).
    pub inner: P,
    probe: Arc<Probe>,
}

impl<P> Timed<P> {
    /// Wraps `inner`, reporting into `probe`.
    pub fn new(inner: P, probe: Arc<Probe>) -> Timed<P> {
        Timed { inner, probe }
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    const SCHEDULING: Scheduling = P::SCHEDULING;

    type Payload = P::Payload;

    fn payload(&self) -> P::Payload {
        self.probe.payload.time(|| self.inner.payload())
    }

    fn payload_weight(payload: &P::Payload) -> u64 {
        P::payload_weight(payload)
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_>) {
        self.probe.on_round.time(|| self.inner.on_round(ctx));
    }

    fn on_exchange(&mut self, ctx: &mut Context<'_>, x: &Exchange<P::Payload>) {
        self.probe
            .on_exchange
            .time(|| self.inner.on_exchange(ctx, x));
    }

    fn on_rejected(&mut self, ctx: &mut Context<'_>, peer: NodeId) {
        self.inner.on_rejected(ctx, peer);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_core::push_pull::{Mode, PushPullNode};
    use gossip_core::stream::RrStreamNode;
    use gossip_net::run_loopback;
    use gossip_sim::{SimConfig, SimMetrics, Simulator, StreamSpec};
    use latency_graph::generators;

    type Summary = (u64, SimMetrics, Vec<u64>);

    fn config() -> SimConfig {
        SimConfig {
            seed: 7,
            max_rounds: 10_000,
            ..SimConfig::default()
        }
    }

    /// Bare and wrapped push-pull (an `EveryRound` protocol) on a
    /// 64-clique, in the engine and over loopback.
    fn push_pull_runs() -> [Summary; 4] {
        let g = generators::clique(64);
        let probe = Arc::new(Probe::default());
        let bare = |id, n| PushPullNode::new(id, n, Mode::PushPull);
        let wrapped = |id, n| Timed::new(bare(id, n), probe.clone());
        let fp = |p: &PushPullNode| p.rumors.fingerprint();
        let e = Simulator::new(&g, config()).run(bare, |ns: &[PushPullNode], _| {
            ns.iter().all(|p| p.rumors.is_full())
        });
        let te = Simulator::new(&g, config()).run(wrapped, |ns: &[Timed<PushPullNode>], _| {
            ns.iter().all(|p| p.inner.rumors.is_full())
        });
        let l = run_loopback(&g, &config(), bare, |ns: &[&PushPullNode], _| {
            ns.iter().all(|p| p.rumors.is_full())
        });
        let tl = run_loopback(&g, &config(), wrapped, |ns: &[&Timed<PushPullNode>], _| {
            ns.iter().all(|p| p.inner.rumors.is_full())
        });
        assert!(probe.on_round.calls() > 0 && probe.on_exchange.calls() > 0);
        assert!(probe.payload.calls() > 0 && probe.on_round.sampled() > 0);
        [
            (e.rounds, e.metrics, e.nodes.iter().map(fp).collect()),
            (
                te.rounds,
                te.metrics,
                te.nodes.iter().map(|t| fp(&t.inner)).collect(),
            ),
            (l.rounds, l.metrics, l.nodes.iter().map(fp).collect()),
            (
                tl.rounds,
                tl.metrics,
                tl.nodes.iter().map(|t| fp(&t.inner)).collect(),
            ),
        ]
    }

    #[test]
    fn timed_is_transparent_for_an_every_round_protocol() {
        let [engine, timed_engine, loopback, timed_loopback] = push_pull_runs();
        assert!(engine.0 > 0 && engine.1.delivered > 0);
        assert_eq!(engine, timed_engine);
        assert_eq!(engine, loopback);
        assert_eq!(engine, timed_loopback);
    }

    #[test]
    fn timed_is_transparent_for_an_on_demand_protocol() {
        let g = generators::clique(64);
        let spec = StreamSpec::spread(16, 2, 64);
        let probe = Arc::new(Probe::default());
        let bare = |id, _| RrStreamNode::new(id, &spec);
        let wrapped = |id, n| Timed::new(bare(id, n), probe.clone());
        let fp = |p: &RrStreamNode| p.log().fingerprint();
        assert_eq!(
            <Timed<RrStreamNode> as Protocol>::SCHEDULING,
            Scheduling::OnDemand
        );
        let e = Simulator::new(&g, config()).run(bare, |_: &[RrStreamNode], _| false);
        let te = Simulator::new(&g, config()).run(wrapped, |_: &[Timed<RrStreamNode>], _| false);
        let l = run_loopback(&g, &config(), bare, |_: &[&RrStreamNode], _| false);
        let tl = run_loopback(&g, &config(), wrapped, |_: &[&Timed<RrStreamNode>], _| {
            false
        });
        let engine: Summary = (e.rounds, e.metrics, e.nodes.iter().map(fp).collect());
        assert!(e.completed() && engine.1.delivered > 0);
        assert_eq!(e.stats, te.stats, "the wrapper changed engine scheduling");
        let timed = |o: &gossip_sim::Outcome<Timed<RrStreamNode>>| -> Summary {
            (
                o.rounds,
                o.metrics,
                o.nodes.iter().map(|t| fp(&t.inner)).collect(),
            )
        };
        assert_eq!(engine, timed(&te));
        assert_eq!(
            engine,
            (l.rounds, l.metrics, l.nodes.iter().map(fp).collect())
        );
        assert_eq!(engine, timed(&tl));
    }

    /// Timing every 17th call and scaling lands within 5 % of timing
    /// every call, on a synthetic callback of steady cost.
    #[test]
    fn stride_sampling_scales_to_full_timing() {
        let work = |i: u64| {
            let mut x = i;
            for _ in 0..2_000 {
                x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).rotate_left(7));
            }
            x
        };
        let calls = 3_000 * STRIDE;
        // Best of a few attempts: a preempted attempt inflates one side
        // only, and the claim is about the estimator, not the host.
        let mut best = f64::MAX;
        for _ in 0..5 {
            let kind = Kind::default();
            let mut full_ns = 0_u128;
            for i in 0..calls {
                let start = Instant::now();
                std::hint::black_box(kind.time(|| work(i)));
                full_ns += start.elapsed().as_nanos();
            }
            assert_eq!(kind.calls(), calls);
            assert_eq!(kind.sampled(), calls / STRIDE);
            let full = full_ns as f64 / 1e9;
            let error = (kind.estimated_seconds(0.0) - full).abs() / full;
            best = best.min(error);
            if best < 0.05 {
                break;
            }
        }
        assert!(best < 0.05, "stride estimate off by {:.1} %", best * 100.0);
    }
}

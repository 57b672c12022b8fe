//! The `bench-net` mode of the experiments binary: throughput of the
//! `gossip-net` runtime, emitted as `BENCH_net.json`.
//!
//! Four sections mirror the runtime's layers. The `loopback` section
//! runs push-pull all-to-all through the full runner + wire-codec stack
//! on the virtual clock, so it prices the network layer itself
//! (framing, hold queues, pacing) with zero I/O. The `reactor` section
//! runs it single-process on the epoll reactor, still on the virtual
//! clock — thousands of nodes, a handful of OS threads — which is where
//! the large sizes live. The `wall` section runs the same reactor on
//! the wall clock (the `run-net --transport tcp` / `serve`
//! configuration), so it prices round pacing and reply shaping: its
//! seconds are rounds × round length, not throughput. The `codec` row
//! prices the wire codec alone (scratch-buffer encode, incremental
//! decode), the unit cost under everything else.
//!
//! Every row carries payload byte accounting — `payload_bytes` actually
//! sent versus the `snapshot_equivalent_bytes` an always-snapshot run
//! would have cost, and their ratio — so a delta-mode row prices its
//! compression in the same table. The `mode_comparison` section is the
//! delta-exchange headline: the same fixed-horizon anti-entropy soak
//! run twice, snapshot mode versus delta mode, with outcome equality
//! asserted (same rounds, metrics, and per-node fingerprints) so the
//! byte reduction is provably free.
//!
//! Every row reports `peak_threads`, sampled from `/proc/self/status`
//! inside the convergence check: it must not grow with `n` on any row.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use gossip_core::push_pull::{Mode, PushPullNode};
pub use gossip_net::PayloadMode;
use gossip_net::{
    run_loopback_mode_with_stats, run_reactor_cluster_mode, run_reactor_mode_with_stats, Frame,
    NodeStopReason, ReactorConfig, WireAccounting,
};
use gossip_sim::{SimConfig, StopReason};
use latency_graph::{generators, Graph, NodeId};

/// One measured topology on one transport.
#[derive(Clone, Debug)]
pub struct NetPoint {
    /// Topology label (`clique` or `ring-of-cliques`).
    pub topology: &'static str,
    /// Node count.
    pub n: usize,
    /// Seeds run (after one discarded warm-up for loopback); for
    /// `reactor` rows, repeats of one seed (see [`measure_reactor`]).
    pub trials: u64,
    /// Total rounds to convergence across all trials (`reactor` rows:
    /// this and every count below are those of one execution).
    pub rounds: u64,
    /// Total wall-clock seconds across all trials (`reactor` rows: the
    /// median trial).
    pub secs: f64,
    /// Frames sent, cluster-wide, across all trials.
    pub frames: u64,
    /// Bytes sent, cluster-wide, across all trials.
    pub bytes: u64,
    /// Payload byte accounting across all trials (see
    /// [`WireAccounting`]).
    pub wire: WireAccounting,
    /// Peers declared lost (must be 0 on a healthy localhost run).
    pub losses: u64,
    /// Peak OS thread count observed during the runs (0 when the
    /// platform offers no `/proc/self/status`).
    pub peak_threads: u64,
}

impl NetPoint {
    /// Frames sent per wall-clock second.
    pub fn frames_per_sec(&self) -> f64 {
        self.frames as f64 / self.secs
    }

    /// Bytes sent per wall-clock second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bytes as f64 / self.secs
    }

    /// Bytes sent per (cumulative) round.
    pub fn bytes_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.bytes as f64 / self.rounds as f64
        }
    }
}

/// The wire codec priced alone: scratch-buffer encode and incremental
/// (`FrameReader`-style) decode of trunk-enveloped reply frames.
#[derive(Clone, Debug)]
pub struct CodecPoint {
    /// Frames per direction.
    pub frames: u64,
    /// Payload bytes per frame.
    pub payload: usize,
    /// Total encoded bytes.
    pub bytes: u64,
    /// Wall-clock seconds encoding all frames into one reused buffer.
    pub encode_secs: f64,
    /// Wall-clock seconds decoding them back out of it.
    pub decode_secs: f64,
}

impl CodecPoint {
    /// Frames encoded per wall-clock second.
    pub fn encode_frames_per_sec(&self) -> f64 {
        self.frames as f64 / self.encode_secs
    }

    /// Frames decoded per wall-clock second.
    pub fn decode_frames_per_sec(&self) -> f64 {
        self.frames as f64 / self.decode_secs
    }
}

/// The delta-exchange headline: one fixed-horizon anti-entropy soak
/// (every node keeps initiating for `rounds` rounds, far past
/// convergence — the steady state where snapshots are pure waste), run
/// in both payload modes with outcome equality asserted.
#[derive(Clone, Debug)]
pub struct ModeComparison {
    /// Topology label.
    pub topology: &'static str,
    /// Node count.
    pub n: usize,
    /// The fixed horizon both runs were held to.
    pub rounds: u64,
    /// Wall-clock seconds of the snapshot-mode run.
    pub snapshot_secs: f64,
    /// Wall-clock seconds of the delta-mode run.
    pub delta_secs: f64,
    /// Payload bytes the snapshot-mode run put on the wire.
    pub snapshot_payload_bytes: u64,
    /// Payload bytes the delta-mode run put on the wire.
    pub delta_payload_bytes: u64,
    /// What the delta run's frames would have cost as snapshots
    /// (equals the snapshot run's actual bytes; asserted).
    pub snapshot_equivalent_bytes: u64,
    /// Delta-form frames in the delta run.
    pub delta_frames: u64,
    /// Snapshot-form frames in the delta run (the fallback ladder).
    pub fallback_frames: u64,
}

impl ModeComparison {
    /// Byte reduction of delta mode: `snapshot_equivalent_bytes /
    /// delta_payload_bytes`.
    pub fn compression_ratio(&self) -> f64 {
        if self.delta_payload_bytes == 0 {
            1.0
        } else {
            self.snapshot_equivalent_bytes as f64 / self.delta_payload_bytes as f64
        }
    }
}

/// The current OS thread count of this process, from
/// `/proc/self/status`; 0 where that file does not exist.
pub fn current_threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("Threads:")
                    .and_then(|v| v.trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

fn topology(name: &'static str, n: usize) -> Graph {
    match name {
        "clique" => generators::clique(n),
        "ring-of-cliques" => generators::ring_of_cliques(n / 8, 8, 3),
        other => unreachable!("unknown bench topology {other}"),
    }
}

/// Push-pull all-to-all over loopback on `topology(name, n)`.
///
/// # Panics
///
/// Panics if a run fails to converge within the round cap — that would
/// be a runtime bug, not a measurement.
pub fn measure_loopback(name: &'static str, n: usize, trials: u64, mode: PayloadMode) -> NetPoint {
    let g = topology(name, n);
    let mut peak = 0_u64;
    let run = |seed: u64, peak: &mut u64| {
        run_loopback_mode_with_stats(
            &g,
            &SimConfig {
                seed,
                max_rounds: 100_000,
                ..SimConfig::default()
            },
            mode,
            |id, n| PushPullNode::new(id, n, Mode::PushPull),
            |nodes: &[&PushPullNode], _| {
                *peak = (*peak).max(current_threads());
                nodes.iter().all(|p| p.rumors.is_full())
            },
        )
    };
    let _ = run(0x5eed, &mut peak); // warm-up, not timed
    let mut point = NetPoint {
        topology: name,
        n,
        trials,
        rounds: 0,
        secs: 0.0,
        frames: 0,
        bytes: 0,
        wire: WireAccounting::default(),
        losses: 0,
        peak_threads: 0,
    };
    let start = Instant::now();
    for t in 0..trials {
        let (o, stats, wire) = run(1 + t, &mut peak);
        assert_eq!(o.reason, StopReason::Condition, "loopback must converge");
        point.rounds += o.rounds;
        point.frames += stats.frames_sent;
        point.bytes += stats.bytes_sent;
        point.wire.absorb(&wire);
    }
    point.secs = start.elapsed().as_secs_f64();
    point.peak_threads = peak;
    point
}

/// Push-pull all-to-all on one wall-paced reactor hosting every node
/// of `topology(name, n)`, `round` per round. Socket setup is inside
/// the timed region on purpose: it is part of what a real-socket run
/// charges.
///
/// # Panics
///
/// Panics if the cluster fails to start or any node misses the
/// convergence barrier.
pub fn measure_wall(
    name: &'static str,
    n: usize,
    round: Duration,
    trials: u64,
    mode: PayloadMode,
) -> NetPoint {
    let g = topology(name, n);
    let cfg = ReactorConfig {
        round,
        ..ReactorConfig::default()
    };
    let hosted: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    let peak = Cell::new(0_u64);
    let mut point = NetPoint {
        topology: name,
        n,
        trials,
        rounds: 0,
        secs: 0.0,
        frames: 0,
        bytes: 0,
        wire: WireAccounting::default(),
        losses: 0,
        peak_threads: 0,
    };
    let start = Instant::now();
    for t in 0..trials {
        let outcomes = run_reactor_cluster_mode(
            &g,
            &SimConfig {
                seed: 1 + t,
                max_rounds: 5_000,
                ..SimConfig::default()
            },
            &cfg,
            &hosted,
            mode,
            |_| BTreeMap::new(), // every node is hosted; nothing to exchange
            |id, n| PushPullNode::new(id, n, Mode::PushPull),
            |p: &PushPullNode, _view| {
                peak.set(peak.get().max(current_threads()));
                p.rumors.is_full()
            },
        )
        .expect("wall-paced cluster starts");
        point.rounds += outcomes.iter().map(|o| o.rounds).max().unwrap_or(0);
        for o in &outcomes {
            assert_eq!(o.reason, NodeStopReason::Barrier, "wall must converge");
            point.frames += o.stats.frames_sent;
            point.bytes += o.stats.bytes_sent;
            point.wire.absorb(&o.accounting);
            point.losses += o.losses.len() as u64;
        }
    }
    point.secs = start.elapsed().as_secs_f64();
    point.peak_threads = peak.get();
    point
}

/// Push-pull all-to-all single-process on the epoll reactor (drain
/// pacing, so the virtual clock runs as fast as the sockets allow).
/// This is the large-n section, and socket setup is part of the price.
///
/// Unlike the other sections every trial is the *same* seed-1
/// execution: drain pacing is deterministic, so the trials must agree
/// on every count (asserted before any time is reported), the row's
/// counts are those of one execution, and `secs` is the median trial.
///
/// # Panics
///
/// Panics if the reactor fails, a run misses convergence, two trials
/// disagree on a count, or `trials` is 0.
pub fn measure_reactor(name: &'static str, n: usize, trials: u64, mode: PayloadMode) -> NetPoint {
    let g = topology(name, n);
    let mut peak = 0_u64;
    let mut answer = None;
    let mut secs = Vec::new();
    for _ in 0..trials {
        let start = Instant::now();
        let (o, stats, wire) = run_reactor_mode_with_stats(
            &g,
            &SimConfig {
                seed: 1,
                max_rounds: 100_000,
                ..SimConfig::default()
            },
            mode,
            |id, n| PushPullNode::new(id, n, Mode::PushPull),
            |nodes: &[&PushPullNode], _| {
                peak = peak.max(current_threads());
                nodes.iter().all(|p| p.rumors.is_full())
            },
        );
        secs.push(start.elapsed().as_secs_f64());
        assert_eq!(o.reason, StopReason::Condition, "reactor must converge");
        let counts = (
            o.rounds,
            stats.frames_sent,
            stats.bytes_sent,
            wire,
            o.metrics.lost,
        );
        assert_eq!(*answer.get_or_insert(counts), counts, "trials disagree");
    }
    secs.sort_by(f64::total_cmp);
    let (rounds, frames, bytes, wire, losses) = answer.expect("at least one trial");
    NetPoint {
        topology: name,
        n,
        trials,
        rounds,
        secs: secs[secs.len() / 2],
        frames,
        bytes,
        wire,
        losses,
        peak_threads: peak,
    }
}

/// Runs the fixed-horizon anti-entropy soak on the reactor in both
/// payload modes and proves the delta run changes nothing but bytes:
/// same stop reason, rounds, metrics, and per-node fingerprints.
///
/// # Panics
///
/// Panics if the two runs diverge in any outcome field, or if the delta
/// run's snapshot-equivalent byte count disagrees with the snapshot
/// run's actual bytes (they price the same frames).
pub fn measure_mode_comparison(name: &'static str, n: usize, horizon: u64) -> ModeComparison {
    let g = topology(name, n);
    let run = |mode: PayloadMode| {
        let start = Instant::now();
        let (o, _, wire) = run_reactor_mode_with_stats(
            &g,
            &SimConfig {
                seed: 1,
                max_rounds: horizon,
                ..SimConfig::default()
            },
            mode,
            |id, n| PushPullNode::new(id, n, Mode::PushPull),
            |_: &[&PushPullNode], _| false, // soak: never stop early
        );
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(o.reason, StopReason::MaxRounds, "soak runs to the horizon");
        assert_eq!(o.rounds, horizon);
        (o, wire, secs)
    };
    let (snap, snap_wire, snapshot_secs) = run(PayloadMode::Snapshot);
    let (delta, delta_wire, delta_secs) = run(PayloadMode::Delta);
    assert_eq!(snap.reason, delta.reason, "mode changed the stop reason");
    assert_eq!(snap.rounds, delta.rounds, "mode changed the round count");
    assert_eq!(snap.metrics, delta.metrics, "mode changed the metrics");
    for (i, (s, d)) in snap.nodes.iter().zip(&delta.nodes).enumerate() {
        assert_eq!(
            s.rumors.fingerprint(),
            d.rumors.fingerprint(),
            "mode changed node {i}'s final rumor set"
        );
    }
    assert_eq!(
        delta_wire.snapshot_bytes, snap_wire.payload_bytes,
        "the two modes priced different frame sequences"
    );
    ModeComparison {
        topology: name,
        n,
        rounds: horizon,
        snapshot_secs,
        delta_secs,
        snapshot_payload_bytes: snap_wire.payload_bytes,
        delta_payload_bytes: delta_wire.payload_bytes,
        snapshot_equivalent_bytes: delta_wire.snapshot_bytes,
        delta_frames: delta_wire.delta_frames,
        fallback_frames: delta_wire.snapshot_frames,
    }
}

/// Round-trips `frames` trunk-enveloped replies of `payload` bytes
/// through one reused encode buffer and an incremental decode, the
/// steady-state path of the reactor's write queue and frame reader.
///
/// # Panics
///
/// Panics if a frame fails to round-trip — a codec bug, not a
/// measurement.
pub fn measure_codec(frames: u64, payload: usize) -> CodecPoint {
    let inner = Frame::Reply {
        seq: 7,
        round: 12,
        payload: vec![0xA5; payload],
    };
    let frame = Frame::Routed {
        src: NodeId::new(3),
        dst: NodeId::new(11),
        release: 13,
        inner: Box::new(inner),
    };
    let mut buf = Vec::new();
    let encode_start = Instant::now();
    for _ in 0..frames {
        buf.clear();
        frame.encode_into(&mut buf).expect("bench frame fits");
    }
    let encode_secs = encode_start.elapsed().as_secs_f64();
    let bytes = buf.len() as u64 * frames;
    let decode_start = Instant::now();
    for _ in 0..frames {
        let (back, used) = Frame::decode(&buf).expect("encoded frame decodes");
        assert_eq!(used, buf.len());
        assert!(matches!(back, Frame::Routed { .. }));
    }
    let decode_secs = decode_start.elapsed().as_secs_f64();
    CodecPoint {
        frames,
        payload,
        bytes,
        encode_secs,
        decode_secs,
    }
}

/// Runs all sections at the committed sizes and renders
/// `BENCH_net.json`. `round` is the wall-paced round length; `trials`
/// scales the virtual-clock (loopback) section.
pub fn run(trials: u64, round: Duration) -> String {
    let loopback = vec![
        measure_loopback("clique", 64, trials, PayloadMode::Snapshot),
        measure_loopback("clique", 256, trials, PayloadMode::Snapshot),
        measure_loopback("ring-of-cliques", 64, trials, PayloadMode::Snapshot),
        measure_loopback("ring-of-cliques", 256, trials, PayloadMode::Snapshot),
    ];
    // Wall-paced sizes stay modest: these rows cost rounds × round
    // length however fast the host is.
    let wall = vec![
        measure_wall("clique", 16, round, 3, PayloadMode::Snapshot),
        measure_wall("ring-of-cliques", 64, round, 3, PayloadMode::Snapshot),
    ];
    // 4096 nodes is ~8.4M edges of clique, all multiplexed over a
    // handful of trunk sockets on one thread.
    let reactor = vec![
        measure_reactor("clique", 256, 3, PayloadMode::Snapshot),
        measure_reactor("ring-of-cliques", 256, 3, PayloadMode::Snapshot),
        measure_reactor("clique", 1024, 3, PayloadMode::Snapshot),
        measure_reactor("clique", 4096, 3, PayloadMode::Snapshot),
    ];
    let comparison = measure_mode_comparison("clique", 1024, 128);
    let codec = measure_codec(200_000, 512);
    to_json(&loopback, &wall, &reactor, &comparison, &codec, round)
}

/// Renders the sections as a small, dependency-free JSON document.
pub fn to_json(
    loopback: &[NetPoint],
    wall: &[NetPoint],
    reactor: &[NetPoint],
    comparison: &ModeComparison,
    codec: &CodecPoint,
    round: Duration,
) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"bench\": \"net/runtime\",\n");
    s.push_str("  \"workload\": \"push-pull all-to-all over the gossip-net runtime\",\n");
    let _ = writeln!(s, "  \"wall_round_ms\": {},", round.as_millis());
    let _ = writeln!(
        s,
        "  \"codec\": {{\"frames\": {}, \"payload_bytes\": {}, \"bytes\": {}, \"encode_frames_per_sec\": {:.2}, \"decode_frames_per_sec\": {:.2}}},",
        codec.frames,
        codec.payload,
        codec.bytes,
        codec.encode_frames_per_sec(),
        codec.decode_frames_per_sec(),
    );
    let _ = writeln!(
        s,
        "  \"mode_comparison\": {{\"topology\": \"{}\", \"n\": {}, \"rounds\": {}, \"snapshot_secs\": {:.6}, \"delta_secs\": {:.6}, \"snapshot_payload_bytes\": {}, \"delta_payload_bytes\": {}, \"snapshot_equivalent_bytes\": {}, \"delta_frames\": {}, \"fallback_frames\": {}, \"compression_ratio\": {:.2}}},",
        comparison.topology,
        comparison.n,
        comparison.rounds,
        comparison.snapshot_secs,
        comparison.delta_secs,
        comparison.snapshot_payload_bytes,
        comparison.delta_payload_bytes,
        comparison.snapshot_equivalent_bytes,
        comparison.delta_frames,
        comparison.fallback_frames,
        comparison.compression_ratio(),
    );
    for (section, points) in [("loopback", loopback), ("wall", wall), ("reactor", reactor)] {
        let _ = writeln!(s, "  \"{section}\": [");
        for (i, p) in points.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"topology\": \"{}\", \"n\": {}, \"trials\": {}, \"total_rounds\": {}, \"total_secs\": {:.6}, \"frames_sent\": {}, \"bytes_sent\": {}, \"bytes_per_round\": {:.2}, \"payload_bytes\": {}, \"snapshot_equivalent_bytes\": {}, \"compression_ratio\": {:.2}, \"frames_per_sec\": {:.2}, \"bytes_per_sec\": {:.2}, \"peer_losses\": {}, \"peak_threads\": {}}}{}",
                p.topology,
                p.n,
                p.trials,
                p.rounds,
                p.secs,
                p.frames,
                p.bytes,
                p.bytes_per_round(),
                p.wire.payload_bytes,
                p.wire.snapshot_bytes,
                p.wire.ratio(),
                p.frames_per_sec(),
                p.bytes_per_sec(),
                p.losses,
                p.peak_threads,
                if i + 1 < points.len() { "," } else { "" }
            );
        }
        let comma = if section == "reactor" { "" } else { "," };
        let _ = writeln!(s, "  ]{comma}");
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_measure_reports_throughput() {
        let p = measure_loopback("clique", 16, 2, PayloadMode::Snapshot);
        assert_eq!(p.n, 16);
        assert!(p.rounds > 0);
        assert!(p.frames > 0 && p.bytes > p.frames);
        assert!(p.frames_per_sec() > 0.0);
        assert_eq!(p.losses, 0);
        // Snapshot mode: every payload frame is snapshot-form, ratio 1.
        assert_eq!(p.wire.delta_frames, 0);
        assert_eq!(p.wire.payload_bytes, p.wire.snapshot_bytes);
    }

    #[test]
    fn loopback_delta_measure_converges_with_fewer_bytes() {
        let snap = measure_loopback("clique", 32, 2, PayloadMode::Snapshot);
        let delta = measure_loopback("clique", 32, 2, PayloadMode::Delta);
        assert_eq!(snap.rounds, delta.rounds, "mode changed convergence");
        assert_eq!(snap.losses, 0);
        assert_eq!(delta.losses, 0);
        assert!(
            delta.wire.payload_bytes < snap.wire.payload_bytes,
            "delta mode must shrink payload bytes on a converging clique \
             ({} >= {})",
            delta.wire.payload_bytes,
            snap.wire.payload_bytes,
        );
        assert_eq!(delta.wire.snapshot_bytes, snap.wire.payload_bytes);
    }

    #[test]
    fn wall_measure_converges_cleanly_on_one_thread() {
        let p = measure_wall(
            "clique",
            4,
            Duration::from_millis(5),
            2,
            PayloadMode::Snapshot,
        );
        assert_eq!(p.n, 4);
        assert!(p.rounds >= 2, "rounds total over both trials");
        assert!(p.frames > 0);
        assert_eq!(p.losses, 0);
        assert!(p.peak_threads > 0, "thread sampling works on this target");
        assert!(p.peak_threads <= 8, "peak threads: {}", p.peak_threads);
    }

    #[test]
    fn reactor_measure_converges_on_one_thread() {
        let p = measure_reactor("clique", 32, 2, PayloadMode::Snapshot);
        assert_eq!((p.n, p.trials), (32, 2));
        assert!(p.rounds > 0);
        assert!(p.frames > 0 && p.bytes > p.frames);
        assert_eq!(p.losses, 0);
        // The whole cluster runs on the calling thread; the sampled
        // count must stay at the harness baseline.
        assert!(p.peak_threads <= 8, "peak threads: {}", p.peak_threads);
    }

    #[test]
    fn mode_comparison_soak_is_outcome_identical_and_compresses() {
        // A small soak (the committed size runs in bench-net): past
        // convergence every exchange is redundant, so deltas approach
        // empty and the ratio climbs well past 2. The universe must be
        // big enough for snapshots to dominate the fixed per-frame
        // overhead — at n = 64 a snapshot is only 12 bytes and the
        // ratio saturates below 2.
        let c = measure_mode_comparison("clique", 256, 48);
        assert_eq!(c.rounds, 48);
        assert!(c.delta_frames > 0, "the soak must ride delta frames");
        assert!(
            c.compression_ratio() > 2.0,
            "soak compression ratio {:.2} too low",
            c.compression_ratio()
        );
    }

    #[test]
    fn codec_measure_round_trips() {
        let c = measure_codec(1_000, 128);
        assert_eq!(c.frames, 1_000);
        assert!(c.bytes > 128 * 1_000);
        assert!(c.encode_frames_per_sec() > 0.0);
        assert!(c.decode_frames_per_sec() > 0.0);
    }

    #[test]
    fn json_shape_is_stable() {
        let point = NetPoint {
            topology: "clique",
            n: 64,
            trials: 3,
            rounds: 30,
            secs: 0.5,
            frames: 600,
            bytes: 60_000,
            wire: WireAccounting {
                payload_bytes: 20_000,
                snapshot_bytes: 40_000,
                delta_frames: 500,
                snapshot_frames: 100,
                stream_units: 0,
            },
            losses: 0,
            peak_threads: 5,
        };
        let codec = CodecPoint {
            frames: 1_000,
            payload: 512,
            bytes: 541_000,
            encode_secs: 0.25,
            decode_secs: 0.5,
        };
        let comparison = ModeComparison {
            topology: "clique",
            n: 1024,
            rounds: 128,
            snapshot_secs: 2.0,
            delta_secs: 1.5,
            snapshot_payload_bytes: 1_000_000,
            delta_payload_bytes: 100_000,
            snapshot_equivalent_bytes: 1_000_000,
            delta_frames: 9_000,
            fallback_frames: 1_000,
        };
        let j = to_json(
            std::slice::from_ref(&point),
            std::slice::from_ref(&point),
            std::slice::from_ref(&point),
            &comparison,
            &codec,
            Duration::from_millis(5),
        );
        assert!(j.contains("\"bench\": \"net/runtime\""));
        assert!(j.contains("\"wall_round_ms\": 5"));
        assert!(j.contains("\"loopback\": ["));
        assert!(j.contains("\"wall\": ["));
        assert!(j.contains("\"reactor\": ["));
        assert!(j.contains("\"codec\": {\"frames\": 1000, \"payload_bytes\": 512"));
        assert!(j.contains("\"encode_frames_per_sec\": 4000.00"));
        assert!(j.contains("\"decode_frames_per_sec\": 2000.00"));
        assert!(j.contains("\"frames_per_sec\": 1200.00"));
        assert!(j.contains("\"bytes_per_sec\": 120000.00"));
        assert!(j.contains("\"bytes_per_round\": 2000.00"));
        assert!(j.contains("\"payload_bytes\": 20000, \"snapshot_equivalent_bytes\": 40000, \"compression_ratio\": 2.00"));
        assert!(j.contains(
            "\"mode_comparison\": {\"topology\": \"clique\", \"n\": 1024, \"rounds\": 128"
        ));
        assert!(j.contains("\"snapshot_payload_bytes\": 1000000, \"delta_payload_bytes\": 100000"));
        assert!(j.contains(
            "\"delta_frames\": 9000, \"fallback_frames\": 1000, \"compression_ratio\": 10.00"
        ));
        assert!(j.contains("\"peak_threads\": 5"));
        assert!(!j.contains(",\n  ]"), "no trailing comma: {j}");
        assert!(!j.contains("],\n}"), "no trailing comma: {j}");
    }

    /// `ring_of_cliques(n/8, 8)` really has `n` nodes at both bench
    /// sizes.
    #[test]
    fn bench_topologies_have_declared_sizes() {
        for n in [64, 256] {
            assert_eq!(topology("ring-of-cliques", n).node_count(), n);
            assert_eq!(topology("clique", n).node_count(), n);
        }
    }

    /// The wall-paced done predicate used by the bench ignores the view, so a
    /// healthy cluster must see zero gone peers; pin that the graph is
    /// symmetric enough for it (every node reachable).
    #[test]
    fn ring_of_cliques_is_connected() {
        assert!(topology("ring-of-cliques", 64).is_connected());
    }
}

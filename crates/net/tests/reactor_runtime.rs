//! Reactor runtime tests: localhost convergence, fault paths (a peer
//! killed mid-run yields a typed `PeerLoss` and the survivors converge
//! on the remaining component, a peer that says goodbye does not),
//! handshake topology validation, and clusters split across several
//! reactors — many nodes per reactor, non-blocking sockets, wall-clock
//! round pacing. Every test is bounded by an explicit watchdog — a hang
//! is a failure, not a timeout in CI.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::Duration;

use gossip_core::push_pull::{Mode, PushPullNode};
use gossip_net::{
    Frame, LoopbackHub, NetError, NodeOutcome, NodeStopReason, Pacing, PayloadMode, Reactor,
    ReactorConfig, RunView, ShardRunner, Transport,
};
use gossip_sim::{SimConfig, Simulator};
use latency_graph::{generators, Graph, GraphBuilder, NodeId};

fn fast_reactor() -> ReactorConfig {
    ReactorConfig {
        round: Duration::from_millis(10),
        connect_timeout: Duration::from_millis(500),
        start_timeout: Duration::from_secs(15),
        retry_base: Duration::from_millis(10),
        retry_cap: Duration::from_millis(50),
        max_retries: 3,
        ..ReactorConfig::default()
    }
}

fn sim_config(seed: u64, max_rounds: u64) -> SimConfig {
    SimConfig {
        seed,
        max_rounds,
        ..SimConfig::default()
    }
}

/// Local done predicate: rumors of every node that is still reachable.
fn component_done(n: usize) -> impl Fn(&PushPullNode, &RunView<'_>) -> bool + Sync {
    move |p, view| {
        (0..n).all(|i| {
            let v = NodeId::new(i);
            view.is_gone(v) || p.rumors.contains(v)
        })
    }
}

fn push_pull(id: NodeId, n: usize) -> PushPullNode {
    PushPullNode::new(id, n, Mode::PushPull)
}

/// Runs push-pull on the shard `hosted` of `g`, on a reactor of its
/// own, until every hosted node stops. `exchange` receives the
/// reactor's listen address and returns the remote neighbors'.
fn run_shard(
    g: &Graph,
    cfg: &SimConfig,
    hosted: Range<usize>,
    mode: PayloadMode,
    exchange: impl FnOnce(&str) -> BTreeMap<NodeId, String>,
    done: impl Fn(&PushPullNode, &RunView<'_>) -> bool,
) -> Result<Vec<NodeOutcome<PushPullNode>>, NetError> {
    let mut reactor = Reactor::new(g, hosted.clone(), fast_reactor())?;
    for (node, addr) in exchange(&reactor.local_addr()) {
        reactor.set_peer(node, addr);
    }
    ShardRunner::new(g, hosted, cfg, mode, push_pull, reactor).run_barrier(done)
}

fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

/// Runs one push-pull cluster split into `shards`, each on a reactor of
/// its own — the first on the calling thread, the rest on one thread
/// apiece (the in-process shape of one `serve` per shard) — and returns
/// the per-shard outcomes plus the peak OS thread count the first shard
/// saw while running. Listen addresses travel through a shared book; a
/// shard that never announces fails the test instead of hanging it.
fn run_shards(
    g: &Graph,
    cfg: &SimConfig,
    mode: PayloadMode,
    shards: &[Range<usize>],
) -> (Vec<Vec<NodeOutcome<PushPullNode>>>, usize) {
    let n = g.node_count();
    let book = (Mutex::new(BTreeMap::new()), Condvar::new());
    let peak = AtomicUsize::new(0);
    let run = |k: usize| {
        let done = component_done(n);
        run_shard(
            g,
            cfg,
            shards[k].clone(),
            mode,
            |local| {
                let (addrs, announced) = &book;
                let mut addrs = addrs.lock().expect("address book");
                addrs.extend(
                    shards[k]
                        .clone()
                        .map(|u| (NodeId::new(u), local.to_owned())),
                );
                announced.notify_all();
                let (addrs, wait) = announced
                    .wait_timeout_while(addrs, Duration::from_secs(10), |a| a.len() < n)
                    .expect("address book");
                assert!(!wait.timed_out(), "a shard never announced its address");
                addrs.clone()
            },
            |p, view| {
                if k == 0 {
                    peak.fetch_max(os_threads(), Ordering::Relaxed);
                }
                done(p, view)
            },
        )
        .unwrap_or_else(|e| panic!("shard {k} failed: {e}"))
    };
    let outcomes = std::thread::scope(|s| {
        let run = &run;
        let rest: Vec<_> = (1..shards.len()).map(|k| s.spawn(move || run(k))).collect();
        let mut outcomes = vec![run(0)];
        outcomes.extend(rest.into_iter().map(|h| h.join().expect("shard thread")));
        outcomes
    });
    (outcomes, peak.into_inner())
}

#[test]
fn triangle_converges_to_engine_rumor_sets() {
    let g = generators::clique(3);
    let cfg = sim_config(7, 300);
    let outcomes = run_shard(
        &g,
        &cfg,
        0..3,
        PayloadMode::Snapshot,
        |_| BTreeMap::new(), // every node is hosted; nothing to exchange
        component_done(3),
    )
    .expect("shard runs");
    assert_eq!(outcomes.len(), 3);
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(o.reason, NodeStopReason::Barrier, "node {i}");
        assert!(o.losses.is_empty(), "node {i} lost peers: {:?}", o.losses);
        assert!(o.protocol.rumors.is_full(), "node {i} rumor set incomplete");
        assert!(o.stats.frames_sent > 0 && o.stats.frames_received > 0);
    }
    // Same final rumor sets as any complete engine run (all full).
    let engine = Simulator::new(&g, cfg).run(
        |id, n| PushPullNode::new(id, n, Mode::PushPull),
        |nodes: &[PushPullNode], _| nodes.iter().all(|p| p.rumors.is_full()),
    );
    for (o, e) in outcomes.iter().zip(&engine.nodes) {
        assert_eq!(o.protocol.rumors.fingerprint(), e.rumors.fingerprint());
    }
}

#[test]
fn ring_of_cliques_64_converges_full() {
    // The acceptance-scale case on one reactor: 64 nodes, one thread,
    // full all-to-all dissemination over real (self-connected) sockets.
    let g = generators::ring_of_cliques(8, 8, 3);
    let n = g.node_count();
    assert_eq!(n, 64);
    let outcomes = run_shard(
        &g,
        &sim_config(11, 2_000),
        0..n,
        PayloadMode::Snapshot,
        |_| BTreeMap::new(),
        component_done(n),
    )
    .expect("shard runs");
    for (i, o) in outcomes.iter().enumerate() {
        assert_eq!(
            o.reason,
            NodeStopReason::Barrier,
            "node {i}: {:?}",
            o.reason
        );
        assert!(o.protocol.rumors.is_full(), "node {i} rumor set incomplete");
    }
}

#[test]
fn killed_peer_yields_typed_loss_and_survivors_converge() {
    let g = generators::clique(3);
    let cfg = sim_config(3, 400);

    // Two shards: a reactor hosting the survivors {0, 1}, and a second
    // reactor hosting the victim {2}, which dies without a goodbye.
    let (victim_addr_tx, victim_addr_rx) = mpsc::channel::<String>();
    let (survivor_addr_tx, survivor_addr_rx) = mpsc::channel::<String>();
    let (out_tx, out_rx) = mpsc::channel();

    std::thread::scope(|s| {
        let g = &g;
        s.spawn(move || {
            let outcomes = run_shard(
                g,
                &cfg,
                0..2,
                PayloadMode::Snapshot,
                |local| {
                    survivor_addr_tx.send(local.to_owned()).expect("announce");
                    let victim = victim_addr_rx.recv().expect("victim address");
                    BTreeMap::from([(NodeId::new(2), victim)])
                },
                component_done(3),
            );
            out_tx.send(outcomes).expect("report");
        });
        s.spawn(move || {
            // The victim: participates for three rounds, then aborts —
            // its reactor tears down and the sockets vanish as if the
            // process was killed.
            let mut reactor = Reactor::new(g, 2..3, fast_reactor()).expect("victim reactor");
            victim_addr_tx
                .send(reactor.local_addr())
                .expect("announce victim");
            let survivor = survivor_addr_rx.recv().expect("survivor address");
            reactor.set_peer(NodeId::new(0), survivor.clone());
            reactor.set_peer(NodeId::new(1), survivor);
            let mut runner =
                ShardRunner::new(g, 2..3, &cfg, PayloadMode::Snapshot, push_pull, reactor);
            runner.start().expect("victim start");
            for r in 0..3 {
                runner.begin_round(r).expect("victim round");
                runner.launch(r).expect("victim launch");
                runner.settle(r).expect("victim settle");
            }
            drop(runner);
        });

        // 30-second hard budget: the fault path must be bounded.
        let outcomes = out_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the survivor shard hung past the watchdog")
            .expect("survivor shard failed");
        assert_eq!(outcomes.len(), 2);
        for (i, out) in outcomes.iter().enumerate() {
            assert_eq!(
                out.reason,
                NodeStopReason::Barrier,
                "survivor {i}: {:?}",
                out.reason
            );
            // The typed fault outcome: exactly one loss, naming the
            // victim, after the configured number of attempts.
            assert_eq!(out.losses.len(), 1, "survivor {i}: {:?}", out.losses);
            assert_eq!(out.losses[0].peer, NodeId::new(2));
            assert!(out.losses[0].attempts >= 1);
            // Survivors hold each other's rumors (the surviving
            // component).
            assert!(out.protocol.rumors.contains(NodeId::new(0)));
            assert!(out.protocol.rumors.contains(NodeId::new(1)));
            assert!(out.metrics.lost > 0 || out.metrics.delivered > 0);
        }
    });
}

#[test]
fn killed_peer_in_delta_mode_falls_back_and_survivors_converge() {
    // The delta-specific fault case: the whole cluster runs in delta
    // mode; node 2 completes a few exchanges (so the survivors hold
    // confirmed bases for it), then dies without a goodbye. The
    // survivors must (a) surface the typed loss, (b) drop the dead
    // edge's knowledge cache, and (c) keep exchanging with each other —
    // where the very first post-start contact is snapshot-equivalent
    // (empty basis) and later rounds ride deltas.
    let g = generators::clique(3);
    let cfg = sim_config(5, 400);

    let (victim_addr_tx, victim_addr_rx) = mpsc::channel::<String>();
    let (survivor_addr_tx, survivor_addr_rx) = mpsc::channel::<String>();
    let (out_tx, out_rx) = mpsc::channel();

    std::thread::scope(|s| {
        let g = &g;
        s.spawn(move || {
            let outcomes = run_shard(
                g,
                &cfg,
                0..2,
                PayloadMode::Delta,
                |local| {
                    survivor_addr_tx.send(local.to_owned()).expect("announce");
                    let victim = victim_addr_rx.recv().expect("victim address");
                    BTreeMap::from([(NodeId::new(2), victim)])
                },
                component_done(3),
            );
            out_tx.send(outcomes).expect("report");
        });
        s.spawn(move || {
            // The victim participates in delta mode too, then aborts —
            // sockets vanish as if the process was killed.
            let mut reactor = Reactor::new(g, 2..3, fast_reactor()).expect("victim reactor");
            victim_addr_tx
                .send(reactor.local_addr())
                .expect("announce victim");
            let survivor = survivor_addr_rx.recv().expect("survivor address");
            reactor.set_peer(NodeId::new(0), survivor.clone());
            reactor.set_peer(NodeId::new(1), survivor);
            let mut runner =
                ShardRunner::new(g, 2..3, &cfg, PayloadMode::Delta, push_pull, reactor);
            runner.start().expect("victim start");
            for r in 0..3 {
                runner.begin_round(r).expect("victim round");
                runner.launch(r).expect("victim launch");
                runner.settle(r).expect("victim settle");
            }
            drop(runner);
        });

        let outcomes = out_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the survivor shard hung past the watchdog")
            .expect("survivor shard failed");
        assert_eq!(outcomes.len(), 2);
        for (i, out) in outcomes.iter().enumerate() {
            assert_eq!(
                out.reason,
                NodeStopReason::Barrier,
                "survivor {i}: {:?}",
                out.reason
            );
            assert_eq!(out.losses.len(), 1, "survivor {i}: {:?}", out.losses);
            assert_eq!(out.losses[0].peer, NodeId::new(2));
            assert!(out.protocol.rumors.contains(NodeId::new(0)));
            assert!(out.protocol.rumors.contains(NodeId::new(1)));
            // Delta-mode accounting: every payload-carrying frame is
            // classified, nothing costs more than its snapshot, and the
            // loss never forced the runner out of delta mode wholesale.
            let acct = out.accounting;
            assert!(
                acct.delta_frames + acct.snapshot_frames > 0,
                "survivor {i} accounted no payload frames"
            );
            assert!(
                acct.payload_bytes <= acct.snapshot_bytes,
                "survivor {i}: delta bytes exceed snapshot-equivalent"
            );
        }
    });
}

#[test]
fn foreign_universe_frame_is_a_typed_error_on_loopback_and_reactor() {
    // A neighbor's delta request against the empty basis (`basis_seq`
    // 0) declaring nine ids — varint(9), sparse tag, count 0 — at a
    // two-node cluster. It decodes cleanly; merged into the node's own
    // two-id set it would be a `union_with` panic, so the runner must
    // hand it back as the peer's violation instead.
    fn refused(g: &Graph, mut shard: impl Transport) {
        let (me, peer) = (NodeId::new(0), NodeId::new(1));
        shard.start().expect("start");
        let frame = Frame::RequestDelta {
            seq: 1,
            round: 0,
            basis_seq: 0,
            payload: vec![9, 0, 0],
        };
        // The rogue sends through the shard's transport before the
        // runner takes it over.
        shard.send(peer, 0, me, 0, &frame).expect("send");
        let mut runner = ShardRunner::new(
            g,
            0..2,
            &sim_config(1, 10),
            PayloadMode::Delta,
            push_pull,
            shard,
        );
        runner.start().expect("start");
        let err = runner.begin_round(0).expect_err("foreign universe");
        assert!(
            matches!(&err, NetError::ProtocolViolation(why) if why.contains("universe 9")),
            "unexpected error: {err}"
        );
    }
    let g = generators::clique(2);
    refused(&g, LoopbackHub::new(2));
    // Drain pacing: the poll pumps the self link until the frame is in.
    let drain = ReactorConfig {
        pacing: Pacing::Drain,
        ..fast_reactor()
    };
    refused(&g, Reactor::new(&g, 0..2, drain).expect("reactor"));
}

#[test]
fn topology_mismatch_refuses_to_pair() {
    // Two reactors whose graphs disagree (same structure, different
    // edge latency, hence different topology hashes) must not exchange
    // any protocol frame; each dialer fails fast with a descriptive
    // loss.
    let g_fast = {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1).expect("edge");
        b.build().expect("graph")
    };
    let g_slow = {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 2).expect("edge");
        b.build().expect("graph")
    };
    assert_ne!(g_fast.topology_hash(), g_slow.topology_hash());

    let mut a = Reactor::new(&g_fast, 0..1, fast_reactor()).expect("reactor a");
    let (addr_tx, addr_rx) = mpsc::channel::<String>();
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let a_addr = a.local_addr();
    std::thread::scope(|s| {
        let g_slow = &g_slow;
        s.spawn(move || {
            let mut b = Reactor::new(g_slow, 1..2, fast_reactor()).expect("reactor b");
            addr_tx.send(b.local_addr()).expect("announce");
            b.set_peer(NodeId::new(0), a_addr);
            let _ = b.start(); // fails or settles lost; either is fine
                               // Keep pumping so a's handshake is answered even if b's own
                               // barrier settled first; exit once a has seen its loss.
            for round in 0.. {
                if stop_rx.try_recv().is_ok() {
                    break;
                }
                let _ = b.poll(round, &mut Vec::new());
            }
        });
        a.set_peer(NodeId::new(1), addr_rx.recv().expect("b address"));
        a.start()
            .expect("start settles: the peer is conclusively lost");
        let mut events = Vec::new();
        a.poll(0, &mut events).expect("poll");
        let lost: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                gossip_net::NetEvent::PeerLost { loss, .. } => Some(loss),
                gossip_net::NetEvent::Frame { .. } => None,
            })
            .collect();
        assert_eq!(lost.len(), 1, "events: {events:?}");
        assert_eq!(lost[0].peer, NodeId::new(1));
        assert!(
            lost[0].error.contains("topology mismatch"),
            "error: {}",
            lost[0].error
        );
        stop_tx.send(()).expect("b still pumping");
        a.shutdown();
    });
}

#[test]
fn start_barrier_times_out_without_peers() {
    // A reactor whose remote neighbor never appears must fail its start
    // barrier within the budget, naming the missing peer.
    let mut cfg = fast_reactor();
    cfg.start_timeout = Duration::from_millis(600);
    cfg.max_retries = 50; // retries alone must not satisfy the barrier
    let dead = {
        // An address that is bound, then immediately released: nothing
        // listens there during the test.
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
        l.local_addr().expect("probe addr").to_string()
    };
    let g = generators::path(2);
    let mut r = Reactor::new(&g, 0..1, cfg).expect("reactor");
    r.set_peer(NodeId::new(1), dead);
    let err = r.start().expect_err("barrier cannot hold");
    match err {
        gossip_net::NetError::StartTimeout { waiting } => {
            assert_eq!(waiting, vec![NodeId::new(1)]);
        }
        other => panic!("expected StartTimeout, got {other}"),
    }
}

#[test]
fn shard_and_one_node_reactors_converge_without_losses() {
    // One reactor hosts nodes 0..32 on this thread while nodes 32..64
    // each run a one-node reactor on a thread of their own — `serve`
    // with one node per process, in one process. Nodes finish (and say
    // goodbye) rounds apart; a clique-mate that outlives a departed
    // neighbor must not report it lost. The whole 64-node ring of
    // cliques reaches full all-to-all dissemination on one thread per
    // reactor and nothing more.
    let g = generators::ring_of_cliques(8, 8, 3);
    let n = g.node_count();
    assert_eq!(n, 64);
    let half = n / 2;
    let shards: Vec<Range<usize>> = std::iter::once(0..half)
        .chain((half..n).map(|i| i..i + 1))
        .collect();
    let before = os_threads();
    let (outcomes, peak) = run_shards(&g, &sim_config(21, 2_000), PayloadMode::Snapshot, &shards);
    for (k, shard) in outcomes.iter().enumerate() {
        for o in shard {
            assert_eq!(o.reason, NodeStopReason::Barrier, "shard {k}");
            assert!(o.losses.is_empty(), "shard {k}: {:?}", o.losses);
            assert!(
                o.protocol.rumors.is_full(),
                "shard {k} rumor set incomplete"
            );
        }
    }
    assert_eq!(outcomes.iter().map(Vec::len).sum::<usize>(), n);
    // 32 spawned threads plus whatever the other cases in this file
    // have in flight (at most 6); thread-per-peer sockets peaked at
    // 1 057 on this graph.
    assert!(
        peak <= before + half + 6,
        "peak {peak} OS threads, {before} before the run"
    );
}

#[test]
fn delta_mode_shards_converge_with_capability_handshake() {
    // Delta frames over remote edges: on the complete bipartite graph
    // between two shards every edge crosses reactors, so every peer's
    // capability bits arrive in a Hello handshake (never read off a
    // co-hosted node) and every delta frame sent proves CAP_DELTA made
    // it across.
    let g = {
        let mut b = GraphBuilder::new(16);
        for u in 0..8 {
            for v in 8..16 {
                b.add_edge(u, v, 1).expect("edge");
            }
        }
        b.build().expect("graph")
    };
    let shards = [0..8, 8..16];
    let (outcomes, _) = run_shards(&g, &sim_config(13, 600), PayloadMode::Delta, &shards);
    let mut delta_frames = 0;
    for (i, o) in outcomes.iter().flatten().enumerate() {
        assert_eq!(o.reason, NodeStopReason::Barrier, "node {i}");
        assert!(o.losses.is_empty(), "node {i} lost peers: {:?}", o.losses);
        assert!(o.protocol.rumors.is_full(), "node {i} rumor set incomplete");
        assert!(
            o.accounting.payload_bytes <= o.accounting.snapshot_bytes,
            "node {i}: delta bytes exceed snapshot-equivalent"
        );
        delta_frames += o.accounting.delta_frames;
    }
    assert!(
        delta_frames > 0,
        "a converging delta-mode cluster sends at least one delta frame"
    );
}

//! Sockets between reactors follow the number of peer reactors, not
//! the number of cross-shard edges: two reactors each hosting half of
//! a clique reach each other over one routed link apiece. Its own test
//! binary, so `/proc/self/fd` counts only this run's descriptors.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use gossip_core::push_pull::{Mode, PushPullNode};
use gossip_net::{NodeStopReason, PayloadMode, Reactor, ReactorConfig, ShardRunner};
use gossip_sim::SimConfig;
use latency_graph::{generators, NodeId};

/// The wall-paced config of `tests/reactor_runtime.rs`.
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

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").map_or(0, Iterator::count)
}

#[test]
fn two_half_clique_shards_share_one_link_each_way() {
    // clique(32) split in halves: 16 · 16 = 256 cross edges each way.
    // With a socket per cross edge the two start barriers alone need
    // 512 connections; with a link per peer reactor each side holds a
    // listener, an epoll instance, its self link's two ends and two
    // link sockets.
    let n = 32;
    let g = generators::clique(n);
    let cfg = SimConfig {
        seed: 17,
        max_rounds: 2_000,
        ..SimConfig::default()
    };
    let peak = AtomicUsize::new(0);
    let (addr_txs, addr_rxs): (Vec<_>, Vec<_>) = (0..2).map(|_| mpsc::channel::<String>()).unzip();
    let shards: [Range<usize>; 2] = [0..n / 2, n / 2..n];
    let outcomes = std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .iter()
            .zip(addr_rxs)
            .enumerate()
            .map(|(k, (hosted, addr_rx))| {
                let (g, cfg, peak) = (&g, &cfg, &peak);
                let announce = addr_txs[1 - k].clone();
                s.spawn(move || {
                    let mut reactor =
                        Reactor::new(g, hosted.clone(), fast_reactor()).expect("reactor");
                    announce.send(reactor.local_addr()).expect("announce");
                    let other = addr_rx
                        .recv_timeout(Duration::from_secs(10))
                        .expect("the other shard announces");
                    for v in (0..n).filter(|v| !hosted.contains(v)) {
                        reactor.set_peer(NodeId::new(v), other.clone());
                    }
                    let runner = ShardRunner::new(
                        g,
                        hosted.clone(),
                        cfg,
                        PayloadMode::Snapshot,
                        |id, n| PushPullNode::new(id, n, Mode::PushPull),
                        reactor,
                    );
                    runner.run_barrier(|p: &PushPullNode, _| {
                        peak.fetch_max(open_fds(), Ordering::Relaxed);
                        p.rumors.is_full()
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread"))
            .collect::<Vec<_>>()
    });
    for (k, shard) in outcomes.into_iter().enumerate() {
        let shard = shard.unwrap_or_else(|e| panic!("shard {k} failed: {e}"));
        assert_eq!(shard.len(), n / 2);
        for o in &shard {
            assert_eq!(o.reason, NodeStopReason::Barrier, "shard {k}");
            assert!(o.losses.is_empty(), "shard {k}: {:?}", o.losses);
            assert!(
                o.protocol.rumors.is_full(),
                "shard {k} rumor set incomplete"
            );
        }
    }
    let peak = peak.into_inner();
    assert!(peak <= 64, "peak {peak} open file descriptors");
}

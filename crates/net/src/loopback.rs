//! Deterministic in-process transport on the virtual clock.
//!
//! A [`LoopbackHub`] is the mailroom of a cluster whose every node is
//! one shard: `send` appends a frame to one queue, and a
//! [`poll`](crate::Transport::poll) call hands over everything queued,
//! in send order. The hub never holds a frame back by round — a reply
//! reaches its initiator before its due round, and the runner's hold
//! applies it at `t + ℓ`. There is no wall clock anywhere: time
//! advances exactly when the runner says it does, which makes loopback
//! runs bit-for-bit reproducible and is the substrate for the
//! simulator-equivalence proof (DESIGN.md §11).
//!
//! Frames still make a full trip through the wire codec: the hub stores
//! encoded bytes and every poll decodes them, so the codec's
//! losslessness is exercised by every loopback test, not assumed. The
//! bytes live in buffers from one capped free list: `send` encodes into
//! a recycled buffer, `poll` decodes each payload into another and
//! returns the envelope's, and the runner returns the payload's
//! ([`Transport::recycle`]) — a steady-state frame allocates nothing.

use std::collections::VecDeque;

use gossip_sim::Round;
use latency_graph::NodeId;

use crate::error::NetError;
use crate::transport::{NetEvent, Transport, TransportStats};
use crate::wire::{BufPool, Frame};

struct Envelope {
    from: NodeId,
    to: NodeId,
    bytes: Vec<u8>,
}

/// The in-process [`Transport`] of a cluster of `n` nodes, all hosted
/// by one runner.
pub struct LoopbackHub {
    /// Frames not yet polled, in send order.
    ready: VecDeque<Envelope>,
    /// Per-node traffic counters.
    stats: Vec<TransportStats>,
    /// The shard's advertised capability bits. Loopback has no
    /// handshake, and every node is in the one shard.
    caps: u32,
    /// Envelope and payload buffers waiting for reuse.
    pool: BufPool,
}

impl LoopbackHub {
    /// Creates a hub for `n` nodes.
    pub fn new(n: usize) -> LoopbackHub {
        LoopbackHub {
            ready: VecDeque::new(),
            stats: vec![TransportStats::default(); n],
            caps: 0,
            pool: BufPool::default(),
        }
    }
}

impl Transport for LoopbackHub {
    fn set_caps(&mut self, caps: u32) {
        self.caps = caps;
    }

    fn peer_caps(&self, _peer: NodeId) -> u32 {
        self.caps
    }

    /// The hub has no adjacency to hold `_nth` against: it refuses only
    /// ids outside the cluster. The frame is queued at once, whatever
    /// its `_release`.
    fn send(
        &mut self,
        from: NodeId,
        _release: Round,
        to: NodeId,
        _nth: usize,
        frame: &Frame,
    ) -> Result<(), NetError> {
        for v in [from, to] {
            if v.index() >= self.stats.len() {
                return Err(NetError::UnknownPeer(v));
            }
        }
        let mut bytes = self.pool.take();
        if let Err(e) = frame.encode_into(&mut bytes) {
            self.pool.put(bytes);
            return Err(e.into());
        }
        let stats = &mut self.stats[from.index()];
        stats.frames_sent += 1;
        stats.bytes_sent += bytes.len() as u64;
        self.ready.push_back(Envelope { from, to, bytes });
        Ok(())
    }

    fn poll(&mut self, _round: Round, out: &mut Vec<NetEvent>) -> Result<(), NetError> {
        while let Some(env) = self.ready.pop_front() {
            let (decoded, used) = Frame::decode_with(&env.bytes, &mut self.pool)?;
            if used != env.bytes.len() {
                return Err(NetError::ProtocolViolation(
                    "loopback envelope held trailing bytes".to_owned(),
                ));
            }
            let stats = &mut self.stats[env.to.index()];
            stats.frames_received += 1;
            stats.bytes_received += env.bytes.len() as u64;
            self.pool.put(env.bytes);
            out.push(NetEvent::Frame {
                from: env.from,
                to: env.to,
                frame: decoded.into_frame(),
            });
        }
        Ok(())
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        self.pool.put(buf);
    }

    fn stats(&self, node: NodeId) -> TransportStats {
        self.stats[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::POOL_BYTES;

    fn poll(hub: &mut LoopbackHub, round: Round) -> Vec<NetEvent> {
        let mut out = Vec::new();
        hub.poll(round, &mut out).expect("poll");
        out
    }

    #[test]
    fn frames_surface_at_the_next_poll_in_send_order() {
        let mut hub = LoopbackHub::new(2);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        hub.send(a, 2, b, 0, &Frame::Done { round: 2 })
            .expect("send");
        hub.send(b, 0, a, 0, &Frame::Done { round: 0 })
            .expect("send");
        let got: Vec<(NodeId, NodeId, Frame)> = poll(&mut hub, 0)
            .into_iter()
            .map(|event| match event {
                NetEvent::Frame { from, to, frame } => (from, to, frame),
                NetEvent::PeerLost { loss, .. } => panic!("unexpected loss: {loss}"),
            })
            .collect();
        assert_eq!(
            got,
            [
                (a, b, Frame::Done { round: 2 }),
                (b, a, Frame::Done { round: 0 })
            ],
            "a later release does not hold a frame back"
        );
        assert!(poll(&mut hub, 2).is_empty(), "each frame surfaces once");
        assert_eq!(hub.stats(a).frames_sent, 1);
        assert_eq!(hub.stats(b).frames_received, 1);
    }

    #[test]
    fn buffers_are_recycled_and_the_free_list_stays_capped() {
        let mut hub = LoopbackHub::new(2);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let request = Frame::Request {
            seq: 1,
            round: 0,
            payload: vec![5; 100],
        };
        hub.send(a, 0, b, 0, &request).expect("send");
        let mut got = poll(&mut hub, 0);
        let Some(NetEvent::Frame {
            frame: Frame::Request { payload, .. },
            ..
        }) = got.pop()
        else {
            panic!("expected the request");
        };
        assert_eq!(payload, [5; 100]);
        // The payload buffer goes back; the next send encodes into it.
        let recycled = payload.as_ptr();
        hub.recycle(payload);
        hub.send(a, 1, b, 0, &Frame::Done { round: 1 })
            .expect("send");
        let queued = hub.ready.back().map(|env| env.bytes.as_ptr());
        assert_eq!(
            queued,
            Some(recycled),
            "the envelope reuses the recycled buffer"
        );
        // Handing back far more than the cap keeps at most the cap.
        for _ in 0..2 * POOL_BYTES / 4096 {
            hub.recycle(Vec::with_capacity(4096));
        }
        let retained = hub.pool.retained();
        assert!(retained <= POOL_BYTES && retained > POOL_BYTES - 4096);
    }

    #[test]
    fn sending_outside_the_cluster_is_rejected() {
        let mut hub = LoopbackHub::new(2);
        let err = hub
            .send(NodeId::new(0), 0, NodeId::new(2), 0, &Frame::Bye)
            .expect_err("node 2 is outside a two-node hub");
        assert!(matches!(err, NetError::UnknownPeer(v) if v == NodeId::new(2)));
        assert_eq!(hub.stats(NodeId::new(0)).frames_sent, 0);
        assert!(hub.ready.is_empty(), "nothing queued");
    }
}

//! Deterministic in-process transport on the virtual clock.
//!
//! A [`LoopbackHub`] holds one shared mailroom for a cluster of
//! in-process endpoints: `send` appends a frame to its destination's
//! queue, and a [`poll`](crate::Transport::poll) call hands over
//! everything queued, in global send order. The hub never holds a frame
//! back by round — a reply reaches its initiator before its due round,
//! and the runner's hold applies it at `t + ℓ`. There is no wall clock
//! anywhere: time advances exactly when the cluster driver says it
//! does, which makes loopback runs bit-for-bit reproducible and is the
//! substrate for the simulator-equivalence proof (DESIGN.md §11).
//!
//! Frames still make a full trip through the wire codec: the hub stores
//! encoded bytes and every poll decodes them, so the codec's
//! losslessness is exercised by every loopback test, not assumed.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use gossip_sim::Round;
use latency_graph::NodeId;

use crate::error::NetError;
use crate::transport::{NetEvent, Transport, TransportStats};
use crate::wire::Frame;

struct Envelope {
    from: NodeId,
    bytes: Vec<u8>,
}

struct HubState {
    /// Frames not yet polled, per destination, in send order.
    ready: Vec<VecDeque<Envelope>>,
    /// Per-endpoint traffic counters.
    stats: Vec<TransportStats>,
    /// Per-endpoint advertised capability bits. Loopback has no
    /// handshake, so the hub itself is the capability registry.
    caps: Vec<u32>,
}

/// Shared mailroom for a cluster of [`LoopbackTransport`] endpoints.
///
/// Cheaply cloneable (`Rc`); single-threaded by design — the loopback
/// cluster driver runs all nodes on one thread precisely so execution
/// order is a pure function of the schedule.
#[derive(Clone)]
pub struct LoopbackHub {
    state: Rc<RefCell<HubState>>,
    n: usize,
}

impl LoopbackHub {
    /// Creates a hub for `n` nodes.
    pub fn new(n: usize) -> LoopbackHub {
        LoopbackHub {
            state: Rc::new(RefCell::new(HubState {
                ready: (0..n).map(|_| VecDeque::new()).collect(),
                stats: vec![TransportStats::default(); n],
                caps: vec![0; n],
            })),
            n,
        }
    }

    /// Returns `node`'s endpoint.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for the hub.
    pub fn endpoint(&self, node: NodeId) -> LoopbackTransport {
        assert!(node.index() < self.n, "endpoint out of range");
        LoopbackTransport {
            state: Rc::clone(&self.state),
            node,
        }
    }
}

/// One node's view of a [`LoopbackHub`].
pub struct LoopbackTransport {
    state: Rc<RefCell<HubState>>,
    node: NodeId,
}

impl Transport for LoopbackTransport {
    fn local(&self) -> NodeId {
        self.node
    }

    fn start(&mut self) -> Result<(), NetError> {
        Ok(())
    }

    fn set_caps(&mut self, caps: u32) {
        self.state.borrow_mut().caps[self.node.index()] = caps;
    }

    fn peer_caps(&self, peer: NodeId) -> u32 {
        self.state
            .borrow()
            .caps
            .get(peer.index())
            .copied()
            .unwrap_or(0)
    }

    /// The hub has no adjacency to hold `_nth` against: it refuses only
    /// ids outside the cluster. The frame is queued at once, whatever
    /// its `_release`.
    fn send(
        &mut self,
        _release: Round,
        to: NodeId,
        _nth: usize,
        frame: &Frame,
    ) -> Result<(), NetError> {
        let mut state = self.state.borrow_mut();
        if to.index() >= state.ready.len() {
            return Err(NetError::UnknownPeer(to));
        }
        let bytes = frame.encode()?;
        let stats = &mut state.stats[self.node.index()];
        stats.frames_sent += 1;
        stats.bytes_sent += bytes.len() as u64;
        state.ready[to.index()].push_back(Envelope {
            from: self.node,
            bytes,
        });
        Ok(())
    }

    fn poll(&mut self, _round: Round, out: &mut Vec<NetEvent>) -> Result<(), NetError> {
        let mut state = self.state.borrow_mut();
        while let Some(env) = state.ready[self.node.index()].pop_front() {
            let (frame, used) = Frame::decode(&env.bytes)?;
            if used != env.bytes.len() {
                return Err(NetError::ProtocolViolation(
                    "loopback envelope held trailing bytes".to_owned(),
                ));
            }
            let stats = &mut state.stats[self.node.index()];
            stats.frames_received += 1;
            stats.bytes_received += env.bytes.len() as u64;
            out.push(NetEvent::Frame {
                from: env.from,
                frame,
            });
        }
        Ok(())
    }

    fn stats(&self) -> TransportStats {
        self.state.borrow().stats[self.node.index()]
    }

    fn shutdown(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poll(t: &mut LoopbackTransport, round: Round) -> Vec<NetEvent> {
        let mut out = Vec::new();
        t.poll(round, &mut out).expect("poll");
        out
    }

    #[test]
    fn frames_surface_at_the_next_poll_in_send_order() {
        let hub = LoopbackHub::new(2);
        let mut a = hub.endpoint(NodeId::new(0));
        let mut b = hub.endpoint(NodeId::new(1));
        a.send(2, NodeId::new(1), 0, &Frame::Done { round: 2 })
            .expect("send");
        a.send(0, NodeId::new(1), 0, &Frame::Done { round: 0 })
            .expect("send");
        let got: Vec<(NodeId, Frame)> = poll(&mut b, 0)
            .into_iter()
            .map(|event| match event {
                NetEvent::Frame { from, frame } => (from, frame),
                NetEvent::PeerLost(l) => panic!("unexpected loss: {l}"),
            })
            .collect();
        let from = NodeId::new(0);
        assert_eq!(
            got,
            [
                (from, Frame::Done { round: 2 }),
                (from, Frame::Done { round: 0 })
            ],
            "a later release does not hold a frame back"
        );
        assert!(poll(&mut b, 2).is_empty(), "each frame surfaces once");
        assert_eq!(a.stats().frames_sent, 2);
        assert_eq!(b.stats().frames_received, 2);
    }

    #[test]
    fn sending_outside_the_cluster_is_rejected() {
        let hub = LoopbackHub::new(2);
        let mut a = hub.endpoint(NodeId::new(0));
        let err = a
            .send(0, NodeId::new(2), 0, &Frame::Bye)
            .expect_err("node 2 is outside a two-node hub");
        assert!(matches!(err, NetError::UnknownPeer(v) if v == NodeId::new(2)));
        assert_eq!(a.stats().frames_sent, 0);
        assert!(
            hub.state.borrow().ready.iter().all(VecDeque::is_empty),
            "nothing queued"
        );
    }
}

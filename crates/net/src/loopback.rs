//! Deterministic in-process transport on the virtual clock.
//!
//! A [`LoopbackHub`] holds one shared mailroom for a cluster of
//! in-process endpoints. Frames are *queued by release round* — the
//! round at which the runner allows the receiver to observe them — and
//! a [`poll(round)`](crate::Transport::poll) call moves every frame with
//! release ≤ `round` into its destination's ready queue. There is no
//! wall clock anywhere: time advances exactly when the cluster driver
//! says it does, which makes loopback runs bit-for-bit reproducible and
//! is the substrate for the simulator-equivalence proof (DESIGN.md §11).
//!
//! Frames still make a full trip through the wire codec: the hub stores
//! encoded bytes and every poll decodes them, so the codec's
//! losslessness is exercised by every loopback test, not assumed.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
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
    /// Frames not yet released, keyed by release round. Within a round,
    /// order of insertion (= global send order) is preserved.
    pending: BTreeMap<Round, Vec<(NodeId, Envelope)>>,
    /// Released frames, per destination, in release order.
    ready: Vec<VecDeque<Envelope>>,
    /// Per-endpoint traffic counters.
    stats: Vec<TransportStats>,
    /// Per-endpoint advertised capability bits. Loopback has no
    /// handshake, so the hub itself is the capability registry.
    caps: Vec<u32>,
}

impl HubState {
    /// Moves every frame with release ≤ `round` to its ready queue.
    fn advance(&mut self, round: Round) {
        while let Some((&due, _)) = self.pending.first_key_value() {
            if due > round {
                break;
            }
            let batch = self.pending.remove(&due).expect("first key exists");
            for (to, env) in batch {
                self.ready[to.index()].push_back(env);
            }
        }
    }
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
                pending: BTreeMap::new(),
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
    /// ids outside the cluster.
    fn send(
        &mut self,
        release: Round,
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
        state.pending.entry(release).or_default().push((
            to,
            Envelope {
                from: self.node,
                bytes,
            },
        ));
        Ok(())
    }

    fn poll(&mut self, round: Round, out: &mut Vec<NetEvent>) -> Result<(), NetError> {
        let mut state = self.state.borrow_mut();
        state.advance(round);
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
    fn frames_release_at_their_round_in_send_order() {
        let hub = LoopbackHub::new(2);
        let mut a = hub.endpoint(NodeId::new(0));
        let mut b = hub.endpoint(NodeId::new(1));
        a.send(2, NodeId::new(1), 0, &Frame::Done { round: 2 })
            .expect("send");
        a.send(0, NodeId::new(1), 0, &Frame::Done { round: 0 })
            .expect("send");
        let r0 = poll(&mut b, 0);
        assert_eq!(r0.len(), 1, "only the release-0 frame is visible");
        assert!(poll(&mut b, 1).is_empty());
        let r2 = poll(&mut b, 2);
        assert_eq!(r2.len(), 1);
        let NetEvent::Frame { from, frame } = &r2[0] else {
            panic!("expected frame");
        };
        assert_eq!(*from, NodeId::new(0));
        assert_eq!(*frame, Frame::Done { round: 2 });
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
        assert!(hub.state.borrow().pending.is_empty(), "nothing queued");
    }
}

//! The [`Transport`] abstraction: framed, round-paced message movement
//! for one shard of nodes. A transport promises only that a frame
//! reaches the receiver's [`poll`](Transport::poll) by the `release`
//! round passed to [`Transport::send`], and at most once; the
//! [`ShardRunner`](crate::ShardRunner)'s hold alone decides when it
//! takes effect (`t + ℓ`), which is why the same runner is exact over
//! the virtual-clock loopback and merely *faithful* over TCP.

use gossip_sim::Round;
use latency_graph::NodeId;

use crate::error::{NetError, PeerLoss};
use crate::wire::Frame;

/// Counters a transport keeps per hosted node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames handed to the wire (after successful write, for TCP).
    pub frames_sent: u64,
    /// Bytes handed to the wire, headers included.
    pub bytes_sent: u64,
    /// Frames received and decoded.
    pub frames_received: u64,
    /// Bytes received, headers included.
    pub bytes_received: u64,
}

impl TransportStats {
    /// Adds `other`'s counters into `self` (for cluster-wide totals).
    pub fn absorb(&mut self, other: &TransportStats) {
        self.frames_sent += other.frames_sent;
        self.bytes_sent += other.bytes_sent;
        self.frames_received += other.frames_received;
        self.bytes_received += other.bytes_received;
    }
}

/// Something a [`Transport::poll`] call can hand back to the runner,
/// addressed to one hosted node.
#[derive(Debug)]
pub enum NetEvent {
    /// A decoded frame from a peer.
    Frame {
        /// The sending node.
        from: NodeId,
        /// The hosted node it is addressed to.
        to: NodeId,
        /// The frame.
        frame: Frame,
    },
    /// The transport exhausted its retry budget for `loss.peer`, a
    /// neighbor of hosted node `to`. Delivered at most once per edge;
    /// the runner reroutes around the loss.
    PeerLost {
        /// The hosted node that lost the peer.
        to: NodeId,
        /// Who was lost, and why.
        loss: PeerLoss,
    },
}

/// A framed, round-paced link layer serving one shard: a contiguous
/// range of hosted nodes, driven by one runner on one thread, which
/// calls [`set_caps`](Transport::set_caps), then
/// [`start`](Transport::start), then per round `poll`, `send`s and
/// `recycle`s, and finally [`shutdown`](Transport::shutdown).
///
/// **Delivery is at most once.** A request (`Request` / `RequestDelta`)
/// surfaces from `poll` at most once per sequence number, so the runner
/// answers whatever it is handed. Loopback and the reactor's self link
/// never duplicate a frame; the one path that can re-send — a link to a
/// peer reactor that reconnects and replays the frame a dying
/// connection cut — is deduplicated by the receiving reactor with one
/// sequence high-water mark per inbound link (DESIGN.md §11).
pub trait Transport {
    /// Brings connections up and blocks until the start barrier holds
    /// (every link, the reactor's own included, connected both ways),
    /// or fails with [`NetError::StartTimeout`]. Idempotent. The
    /// default, for a transport with no connections, does nothing.
    fn start(&mut self) -> Result<(), NetError> {
        Ok(())
    }

    /// Advertises capability bits ([`CAP_DELTA`], …) for every hosted
    /// node: they travel in every subsequent handshake. Must be called
    /// before [`start`](Transport::start) so every peer sees them.
    ///
    /// [`CAP_DELTA`]: crate::wire::CAP_DELTA
    fn set_caps(&mut self, caps: u32);

    /// The capability bits `peer` advertised, or 0 when unknown
    /// (handshake not yet observed). Capabilities only ever gate frame
    /// *encodings*, never outcomes, so a stale 0 is always safe — it
    /// merely forces the snapshot fallback.
    fn peer_caps(&self, peer: NodeId) -> u32;

    /// Queues `frame` from hosted node `from` for `to`, observable by
    /// `to`'s poll of round `release` — the round by which `to` needs
    /// it; a transport may hand it over earlier. `nth` is `to`'s
    /// position in `from`'s adjacency row
    /// (`graph.neighbor_ids(from)[nth]`), which the runner always holds,
    /// so a transport that knows the adjacency checks the peer in O(1).
    /// A peer the transport can tell is wrong — a position naming
    /// another node or past the row (reactor), an id outside the
    /// cluster (loopback, which knows only the node count) — is
    /// [`NetError::UnknownPeer`] and queues nothing. Sending to a peer
    /// already reported lost is a silent no-op.
    fn send(
        &mut self,
        from: NodeId,
        release: Round,
        to: NodeId,
        nth: usize,
        frame: &Frame,
    ) -> Result<(), NetError>;

    /// Blocks until `round` has begun on the shard's clock (wall clock
    /// for TCP, no-op for loopback), then appends everything that has
    /// arrived for any hosted node to `out`, the caller's reusable
    /// inbox. A second call for the same round does not block: it is
    /// the drain the runner uses at the end of a round to answer
    /// freshly arrived requests.
    fn poll(&mut self, round: Round, out: &mut Vec<NetEvent>) -> Result<(), NetError>;

    /// Takes back the payload buffer of a frame [`poll`](Transport::poll)
    /// handed over, once the runner has decoded it, for a later decode
    /// to refill instead of allocating. The default drops it.
    fn recycle(&mut self, _buf: Vec<u8>) {}

    /// Hosted node `node`'s traffic counters.
    fn stats(&self, node: NodeId) -> TransportStats;

    /// Releases sockets; idempotent. The default does nothing.
    fn shutdown(&mut self) {}
}

//! The [`Transport`] abstraction: framed, round-paced message movement.
//!
//! A transport moves encoded [`Frame`]s between nodes and paces the
//! local node's rounds. It does **not** interpret round semantics: the
//! [`NetRunner`](crate::NetRunner) alone decides *when* a frame takes
//! effect, holding every exchange to its due round `t + ℓ`. The
//! transport promises two things only: a frame reaches the receiver's
//! [`poll`](Transport::poll) by the `release` round passed to
//! [`Transport::send`], and at most once. It may hand a frame over
//! earlier; the runner's hold makes arrival jitter invisible, which is
//! why the same driver code is exact over the virtual-clock loopback
//! and merely *faithful* over TCP.

use gossip_sim::Round;
use latency_graph::NodeId;

use crate::error::{NetError, PeerLoss};
use crate::wire::Frame;

/// Counters kept by every transport endpoint.
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

/// Something a [`Transport::poll`] call can hand back to the runner.
#[derive(Debug)]
pub enum NetEvent {
    /// A decoded frame from a peer.
    Frame {
        /// The sending node.
        from: NodeId,
        /// The frame.
        frame: Frame,
    },
    /// The transport exhausted its retry budget for a peer. Delivered at
    /// most once per peer; the runner reroutes around the loss.
    PeerLost(PeerLoss),
}

/// A framed, round-paced link layer.
///
/// Contract, in the order the runner exercises it:
///
/// 1. [`start`](Transport::start) — bring up connections and block until
///    the start barrier holds (every neighbor connected both ways), or
///    fail with [`NetError::StartTimeout`].
/// 2. [`poll(round, out)`](Transport::poll) — block until `round` has
///    begun on the local clock (wall clock for TCP, no-op for
///    loopback), then append everything that has arrived to `out`, the
///    caller's reusable inbox. Calling it again with the same round
///    must not block again: the second call is the non-blocking drain
///    the runner uses at the end of a round to answer freshly arrived
///    requests.
/// 3. [`send(release, to, nth, frame)`](Transport::send) — queue
///    `frame` so the receiver can observe it by its poll of round
///    `release`, the round by which the receiver needs it (earlier is
///    fine).
///    `nth` is `to`'s position in the sender's adjacency row, which
///    the runner always already holds, so a transport that knows the
///    adjacency checks the peer in O(1) instead of searching the row.
///    Sending to a peer already reported lost is a silent no-op.
/// 4. [`shutdown`](Transport::shutdown) — release sockets; idempotent.
///
/// **Delivery is at most once.** A request (`Request` / `RequestDelta`)
/// surfaces from `poll` at most once per sequence number, so the runner
/// answers whatever it is handed. Loopback and the reactor's trunks
/// never duplicate a frame; the one path that can re-send — an outbound
/// reactor edge that reconnects and replays the frame a dying
/// connection cut — is deduplicated by the receiving reactor with a
/// per-edge sequence high-water mark (DESIGN.md §11).
pub trait Transport {
    /// The node this endpoint belongs to.
    fn local(&self) -> NodeId;

    /// Brings the transport up; blocks until the start barrier holds.
    fn start(&mut self) -> Result<(), NetError>;

    /// Advertises capability bits ([`CAP_DELTA`], …) to peers: they
    /// travel in every subsequent handshake this endpoint sends. Must
    /// be called before [`start`](Transport::start) so every peer sees
    /// them. The default discards them — a transport that never
    /// handshakes (loopback) overrides this with its own registry.
    ///
    /// [`CAP_DELTA`]: crate::wire::CAP_DELTA
    fn set_caps(&mut self, _caps: u32) {}

    /// The capability bits `peer` advertised to this endpoint, or 0
    /// when unknown (handshake not yet observed). Capabilities only
    /// ever gate frame *encodings*, never outcomes, so a stale 0 is
    /// always safe — it merely forces the snapshot fallback.
    fn peer_caps(&self, _peer: NodeId) -> u32 {
        0
    }

    /// Queues `frame` for `to`, observable by `to`'s poll of round
    /// `release`, the round by which `to` needs it; a transport may
    /// hand it over earlier. `nth` is `to`'s position in the local
    /// node's adjacency row (`graph.neighbor_ids(local)[nth]`). A peer
    /// the transport can tell is wrong — a position naming another
    /// node or past the row (reactor), an id outside the cluster
    /// (loopback, which knows only the node count) — is
    /// [`NetError::UnknownPeer`] and queues nothing.
    fn send(
        &mut self,
        release: Round,
        to: NodeId,
        nth: usize,
        frame: &Frame,
    ) -> Result<(), NetError>;

    /// Blocks until `round` has begun locally, then drains arrivals
    /// onto the end of `out`.
    fn poll(&mut self, round: Round, out: &mut Vec<NetEvent>) -> Result<(), NetError>;

    /// This endpoint's traffic counters.
    fn stats(&self) -> TransportStats;

    /// Tears the endpoint down; idempotent.
    fn shutdown(&mut self);
}

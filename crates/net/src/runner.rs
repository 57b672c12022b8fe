//! [`NetRunner`]: the round-pacing driver that runs one protocol node
//! over any [`Transport`], plus [`run_loopback`], the single-threaded
//! cluster driver whose executions match the simulator's exactly.
//!
//! # Round structure
//!
//! Each runner executes the simulator's per-round phases, projected onto
//! one node (the numbering follows `gossip_sim::engine`):
//!
//! 1. **Ingest + deliver** ([`begin_round`](NetRunner::begin_round)):
//!    poll the transport, answer freshly arrived requests (snapshotting
//!    our payload *before* this round's deliveries mutate it — the
//!    engine takes responder snapshots during the initiation round, and
//!    our state has not changed since then), queue replies and request
//!    payloads on the hold queue at their due round `t + ℓ`, then apply
//!    every held exchange due this round, sorted by
//!    `(initiated_at, initiator)` — the engine's per-node delivery
//!    order. The hold is the only place `t + ℓ` is enforced: a
//!    transport may hand a frame over any time before its due round.
//! 2. **Stop checks** (driver's responsibility — global closure for the
//!    loopback cluster, distributed done barrier for TCP).
//! 3. **`on_round`** + **launch** ([`launch`](NetRunner::launch)): run
//!    the protocol's round callback and send this round's request, if
//!    any, recording our payload snapshot's weight for metrics.
//! 4. **Settle** ([`settle`](NetRunner::settle)): poll again (without
//!    blocking — the round has begun) so requests sent *this* round over
//!    the loopback are answered this round, after every node's
//!    `on_round` ran.
//!
//! Metrics are counted at the initiator only — `initiated` at launch,
//! `delivered` and both directions of `payload_units` when the reply is
//! applied at `t + ℓ` — so summing runner metrics over a cluster
//! reproduces the engine's [`SimMetrics`].

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use gossip_sim::pacing::NodePacer;
use gossip_sim::{
    EngineStats, Exchange, Outcome, Protocol, Round, SimConfig, SimMetrics, StopReason,
};
use latency_graph::{Graph, NodeId};

use crate::error::{NetError, PeerLoss};
use crate::loopback::LoopbackHub;
use crate::transport::{NetEvent, Transport, TransportStats};
use crate::wire::{Frame, WirePayload, CAP_DELTA, MAX_BODY};

/// Why a self-driven [`NetRunner::run`] stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeStopReason {
    /// The distributed stop barrier held: this node's done predicate was
    /// true and every neighbor had announced done (or departed).
    Barrier,
    /// The round cap was reached first.
    MaxRounds,
    /// Every neighbor was lost or departed while this node was not yet
    /// done; no further progress was possible.
    Isolated,
}

/// What one node's [`NetRunner::run`] produced.
#[derive(Debug)]
pub struct NodeOutcome<P> {
    /// Why the node stopped.
    pub reason: NodeStopReason,
    /// Rounds elapsed when it stopped.
    pub rounds: Round,
    /// This node's share of the cluster metrics (initiator-side
    /// counting; see the module docs).
    pub metrics: SimMetrics,
    /// Peers the transport gave up on.
    pub losses: Vec<PeerLoss>,
    /// Transport traffic counters.
    pub stats: TransportStats,
    /// Payload byte accounting (delta-vs-snapshot compression).
    pub accounting: WireAccounting,
    /// Final protocol state.
    pub protocol: P,
}

/// The runner's view of cluster health, passed to done predicates so
/// survivors of a partition can declare victory over the remaining
/// component instead of waiting forever for the dead.
#[derive(Debug)]
pub struct RunView<'a> {
    /// Neighbors that departed (sent [`Frame::Bye`]) or were lost.
    gone: &'a BTreeSet<NodeId>,
}

impl RunView<'_> {
    /// Whether `v` departed or was lost.
    pub fn is_gone(&self, v: NodeId) -> bool {
        self.gone.contains(&v)
    }
}

/// How a runner encodes exchange payloads on the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PayloadMode {
    /// Every request and reply carries a full payload snapshot.
    #[default]
    Snapshot,
    /// Requests and replies prefer delta frames against per-neighbor
    /// exchange bases, falling back to full snapshots whenever the
    /// delta would be larger or no basis is shared. Outcome-identical
    /// to [`PayloadMode::Snapshot`] — only the bytes on the wire (and
    /// [`WireAccounting`]) change.
    Delta,
}

/// Payload-level byte accounting: what a runner actually put on the
/// wire versus what an always-snapshot run would have, over the same
/// payload-carrying frames (requests and replies; counted send-side, so
/// cluster totals count each frame once). Frame headers are identical
/// across modes and excluded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireAccounting {
    /// Payload bytes actually sent (delta or snapshot encodings).
    pub payload_bytes: u64,
    /// Payload bytes the same frames would have cost as snapshots.
    pub snapshot_bytes: u64,
    /// Payload-carrying frames sent in delta form.
    pub delta_frames: u64,
    /// Payload-carrying frames sent in snapshot form.
    pub snapshot_frames: u64,
    /// Rumor-payload units carried by the sent frames under a streaming
    /// workload ([`WirePayload::stream_units`] summed send-side): the
    /// per-rumor traffic ledger `gossip run-net` reports next to the
    /// byte counters. 0 for non-streaming payload types.
    pub stream_units: u64,
}

impl WireAccounting {
    /// Adds `other`'s counters into `self` (for cluster-wide totals).
    pub fn absorb(&mut self, other: &WireAccounting) {
        self.payload_bytes += other.payload_bytes;
        self.snapshot_bytes += other.snapshot_bytes;
        self.delta_frames += other.delta_frames;
        self.snapshot_frames += other.snapshot_frames;
        self.stream_units += other.stream_units;
    }

    /// Compression ratio versus always-snapshot:
    /// `snapshot_bytes / payload_bytes` (1.0 when nothing was sent).
    pub fn ratio(&self) -> f64 {
        if self.payload_bytes == 0 {
            1.0
        } else {
            self.snapshot_bytes as f64 / self.payload_bytes as f64
        }
    }
}

struct PendingInit<Pl> {
    peer: NodeId,
    /// `peer`'s adjacency position, from `Initiation` like `latency`:
    /// the reply finds the edge's knowledge slot without a search.
    nth: usize,
    round: Round,
    /// The edge latency [`Initiation`](gossip_sim::pacing::Initiation)
    /// resolved at launch: the reply is held to `round + latency`
    /// without searching the adjacency row again.
    latency: Round,
    weight: u64,
    /// The payload snapshot this request carried — retained in delta
    /// mode only, as the decode basis for a [`Frame::ReplyDelta`] and
    /// one half of the confirmed basis the reply completes.
    sent: Option<Pl>,
}

/// A decoded request on its way to the reply: the requester's adjacency
/// position is found once, at ingest, and travels with it to the due
/// round, the knowledge slot and the reply's send.
struct Inbound<Pl> {
    from: NodeId,
    nth: usize,
    seq: u64,
    theirs: Pl,
}

/// An exchange waiting for its due round (`completed_at`), with what
/// our own initiation applies then besides the payload.
struct Held<Pl> {
    exchange: Exchange<Pl>,
    /// Our initiation: the request payload's weight, counted into
    /// `payload_units` beside the reply's (0 for exchanges we answered).
    weight: u64,
    /// Our initiation toward a delta peer: `(nth, seq, sent ∪ theirs)`,
    /// the edge's confirmed basis from the due round on.
    confirm: Option<(usize, u64, Pl)>,
}

/// Per-neighbor knowledge cache for delta mode: what this node and one
/// peer provably both hold, per directed edge. Invalidated wholesale on
/// peer loss — a stale or missing basis only costs bytes (the snapshot
/// fallback), never rumors.
struct EdgeCache<Pl> {
    /// Basis of the newest *completed* exchange we initiated toward the
    /// peer: `(our request seq, our payload ∪ theirs)`. Our next
    /// [`Frame::RequestDelta`] references it by `basis_seq`.
    confirmed: Option<(u64, Pl)>,
    /// Bases of exchanges we *answered*, as `(the peer's request seq,
    /// basis)`; the peer's next delta request references one. Pruned to
    /// `≥ basis_seq` whenever a request references a basis — references
    /// are monotone because `confirmed` keeps the max seq — so it holds
    /// the one or two exchanges since the peer's last reference.
    bases: Vec<(u64, Pl)>,
}

impl<Pl> Default for EdgeCache<Pl> {
    fn default() -> Self {
        EdgeCache {
            confirmed: None,
            bases: Vec::new(),
        }
    }
}

/// [`Knowledge::slot`] entry of a neighbor with no cache yet.
const NO_CACHE: u32 = u32::MAX;

/// Delta mode's per-neighbor [`EdgeCache`]s, found by adjacency
/// position as the engine indexes its CSR rows: one `u32` per neighbor
/// (4 B × degree, allocated on the first delta exchange) and a dense
/// table holding only the peers actually exchanged with.
struct Knowledge<Pl> {
    /// Adjacency position → index into `caches`, or [`NO_CACHE`].
    slot: Vec<u32>,
    caches: Vec<EdgeCache<Pl>>,
}

impl<Pl> Knowledge<Pl> {
    fn new() -> Self {
        Knowledge {
            slot: Vec::new(),
            caches: Vec::new(),
        }
    }

    fn index(&self, nth: usize) -> Option<usize> {
        match self.slot.get(nth) {
            Some(&s) if s != NO_CACHE => Some(usize::try_from(s).expect("slot fits usize")),
            _ => None,
        }
    }

    fn get(&self, nth: usize) -> Option<&EdgeCache<Pl>> {
        self.index(nth).map(|i| &self.caches[i])
    }

    fn get_mut(&mut self, nth: usize) -> Option<&mut EdgeCache<Pl>> {
        self.index(nth).map(|i| &mut self.caches[i])
    }

    /// The cache of the neighbor at `nth` of a `degree`-long row,
    /// created empty on first use.
    fn entry(&mut self, nth: usize, degree: usize) -> &mut EdgeCache<Pl> {
        if self.slot.is_empty() {
            self.slot = vec![NO_CACHE; degree];
        }
        let i = match self.index(nth) {
            Some(i) => i,
            None => {
                self.slot[nth] = u32::try_from(self.caches.len()).expect("cache count fits u32");
                self.caches.push(EdgeCache::default());
                self.caches.len() - 1
            }
        };
        &mut self.caches[i]
    }
}

/// Fixed body bytes of a snapshot `Request`/`Reply` (`seq` + `round`);
/// a delta frame carries 8 more (`basis_seq`).
const SNAPSHOT_FIXED: usize = 16;

/// Encodes `payload` for one wire frame into `out` (cleared first): the
/// delta form when the mode, the peer's advertised capabilities, and
/// the byte math all favor it — or when the snapshot body would exceed
/// [`MAX_BODY`] and a delta is the frame's only way onto the wire —
/// otherwise the plain snapshot. Returns `Some(basis_seq)` when the
/// bytes are a delta. Every choice lands in `acct`.
fn encode_for_wire<Pl: WirePayload>(
    acct: &mut WireAccounting,
    mode: PayloadMode,
    peer_caps: u32,
    payload: &Pl,
    basis: Option<(u64, &Pl)>,
    out: &mut Vec<u8>,
) -> Option<u64> {
    out.clear();
    let snap_len = payload.snapshot_len();
    acct.stream_units += payload.stream_units();
    if mode == PayloadMode::Delta && Pl::supports_delta() && peer_caps & CAP_DELTA != 0 {
        let (basis_seq, basis) = match basis {
            Some((seq, b)) => (seq, Some(b)),
            None => (0, None),
        };
        if payload.encode_delta(basis, out) {
            let oversized =
                SNAPSHOT_FIXED + snap_len > usize::try_from(MAX_BODY).expect("cap fits usize");
            if out.len() + 8 < snap_len || oversized {
                acct.payload_bytes += u64::try_from(out.len()).expect("length fits u64");
                acct.snapshot_bytes += u64::try_from(snap_len).expect("length fits u64");
                acct.delta_frames += 1;
                return Some(basis_seq);
            }
        }
        out.clear();
    }
    payload.encode_payload(out);
    acct.payload_bytes += u64::try_from(out.len()).expect("length fits u64");
    acct.snapshot_bytes += u64::try_from(snap_len).expect("length fits u64");
    acct.snapshot_frames += 1;
    None
}

/// The payload buffer of an exchange frame, handed back after `send`
/// so the next [`encode_for_wire`] reuses its allocation.
fn into_payload(frame: Frame) -> Vec<u8> {
    match frame {
        Frame::Request { payload, .. }
        | Frame::Reply { payload, .. }
        | Frame::RequestDelta { payload, .. }
        | Frame::ReplyDelta { payload, .. } => payload,
        Frame::Hello { .. } | Frame::Done { .. } | Frame::Bye | Frame::Routed { .. } => Vec::new(),
    }
}

/// Drives one protocol node over a [`Transport`], enforcing the paper's
/// pacing contract: at most one initiation per round, exchanges applied
/// at exactly `t + ℓ`, payload snapshots taken at `t`.
pub struct NetRunner<'g, P: Protocol, T: Transport> {
    graph: &'g Graph,
    pacer: NodePacer<'g, P>,
    transport: T,
    max_rounds: Round,
    /// The id universe of this node's own payload, read once: a decoded
    /// payload over any other is refused ([`check_universe`](Self::check_universe)).
    universe: Option<usize>,
    /// Received exchanges awaiting their due round (`completed_at`), in
    /// no particular order: [`deliver_due`](Self::deliver_due) sorts
    /// the due ones to the front and takes them out.
    hold: Vec<Held<P::Payload>>,
    /// The transport's [`poll`](Transport::poll) target, drained by
    /// every ingest and kept between rounds.
    inbox: Vec<NetEvent>,
    /// The payload bytes of the frame being built, recovered from the
    /// frame after every send ([`into_payload`]).
    scratch: Vec<u8>,
    /// Our requests by seq: entry `i` is seq `pending_base + i`, `None`
    /// once its reply landed or it was written off. Each sent request
    /// takes the next seq, so the deque is dense and a reply is an
    /// index; answered entries are trimmed off the front.
    pending: VecDeque<Option<PendingInit<P::Payload>>>,
    /// Seq of `pending`'s front entry (seqs start at 1: `basis_seq` 0
    /// names the empty basis).
    pending_base: u64,
    /// Requests that arrived *before* their initiation round on our
    /// clock (possible over TCP when a peer's epoch leads ours): held
    /// (already decoded — delta requests must resolve their basis in
    /// arrival order) until our `on_round` of that round has run, so the
    /// reply snapshot is taken from the state the engine would have
    /// snapshotted.
    deferred: BTreeMap<Round, Vec<Inbound<P::Payload>>>,
    /// Payload encoding mode; [`PayloadMode::Snapshot`] unless
    /// [`with_payload_mode`](Self::with_payload_mode) switched it.
    mode: PayloadMode,
    /// Per-neighbor knowledge caches; populated in delta mode only.
    knowledge: Knowledge<P::Payload>,
    accounting: WireAccounting,
    metrics: SimMetrics,
    peers_done: BTreeSet<NodeId>,
    peers_gone: BTreeSet<NodeId>,
    losses: Vec<PeerLoss>,
    done_round: Option<Round>,
}

impl<'g, P, T> NetRunner<'g, P, T>
where
    P: Protocol,
    P::Payload: WirePayload,
    T: Transport,
{
    /// Creates a runner for `node`.
    ///
    /// `config` supplies the seed (each node draws the *same* RNG stream
    /// the engine would give it — see `gossip_sim::pacing::node_seed`),
    /// the round cap, and the latency-visibility flag. The transport
    /// must already be bound to `node`.
    ///
    /// # Panics
    ///
    /// Panics if `transport.local() != node`.
    pub fn new(
        graph: &'g Graph,
        node: NodeId,
        protocol: P,
        config: &SimConfig,
        mut transport: T,
    ) -> Self {
        assert_eq!(transport.local(), node, "transport bound to the wrong node");
        // Payload-type capabilities (CAP_STREAM for streaming payloads)
        // ride every handshake from the start; with_payload_mode ORs in
        // the mode bits on top.
        transport.set_caps(P::Payload::caps());
        let pacer = NodePacer::new(graph, node, protocol, config);
        NetRunner {
            graph,
            universe: pacer.payload().wire_universe(),
            pacer,
            transport,
            max_rounds: config.max_rounds,
            hold: Vec::new(),
            inbox: Vec::new(),
            scratch: Vec::new(),
            pending: VecDeque::new(),
            pending_base: 1,
            deferred: BTreeMap::new(),
            mode: PayloadMode::Snapshot,
            knowledge: Knowledge::new(),
            accounting: WireAccounting::default(),
            metrics: SimMetrics::default(),
            peers_done: BTreeSet::new(),
            peers_gone: BTreeSet::new(),
            losses: Vec::new(),
            done_round: None,
        }
    }

    /// This runner's node id.
    pub fn node(&self) -> NodeId {
        self.pacer.id()
    }

    /// The protocol state (for global stop closures).
    pub fn protocol(&self) -> &P {
        self.pacer.protocol()
    }

    /// The protocol's local termination flag.
    pub fn is_done(&self) -> bool {
        self.pacer.is_done()
    }

    /// This node's share of the cluster metrics so far.
    pub fn metrics(&self) -> SimMetrics {
        self.metrics
    }

    /// Payload byte accounting so far (see [`WireAccounting`]).
    pub fn accounting(&self) -> WireAccounting {
        self.accounting
    }

    /// Selects the payload encoding mode. Must be called before
    /// [`start`](Self::start): delta mode advertises [`CAP_DELTA`]
    /// through the transport's handshakes, which is the only time peers
    /// learn of it. A payload type with no delta form
    /// ([`WirePayload::supports_delta`] is `false`) silently stays in
    /// snapshot mode.
    #[must_use]
    pub fn with_payload_mode(mut self, mode: PayloadMode) -> Self {
        self.mode = if P::Payload::supports_delta() {
            mode
        } else {
            PayloadMode::Snapshot
        };
        if self.mode == PayloadMode::Delta {
            self.transport.set_caps(CAP_DELTA | P::Payload::caps());
        }
        self
    }

    /// Brings the transport up (blocking on its start barrier) and runs
    /// the protocol's `on_start`.
    pub fn start(&mut self) -> Result<(), NetError> {
        self.transport.start()?;
        self.pacer.on_start();
        Ok(())
    }

    /// Phase 1: poll the transport (blocking until `round` begins on its
    /// clock), ingest everything, then apply the exchanges due.
    pub fn begin_round(&mut self, round: Round) -> Result<(), NetError> {
        self.poll_and_ingest(round)?;
        self.deliver_due(round);
        Ok(())
    }

    /// Phase 3 + 4: run `on_round`, then send this round's request (if
    /// the protocol initiated one).
    pub fn launch(&mut self, round: Round) -> Result<(), NetError> {
        let Some(init) = self.pacer.on_round(round) else {
            return Ok(());
        };
        self.metrics.initiated += 1;
        if self.peers_gone.contains(&init.peer) {
            // The engine counts initiations toward crashed peers as
            // lost; a departed or unreachable TCP peer is the same.
            self.metrics.lost += 1;
            return Ok(());
        }
        let payload = self.pacer.payload();
        let weight = P::payload_weight(&payload);
        let basis = self
            .knowledge
            .get(init.nth)
            .and_then(|k| k.confirmed.as_ref())
            .map(|&(seq, ref b)| (seq, b));
        let mut bytes = std::mem::take(&mut self.scratch);
        let delta_basis = encode_for_wire(
            &mut self.accounting,
            self.mode,
            self.transport.peer_caps(init.peer),
            &payload,
            basis,
            &mut bytes,
        );
        let seq = self.pending_base + u64::try_from(self.pending.len()).expect("count fits u64");
        let frame = match delta_basis {
            Some(basis_seq) => Frame::RequestDelta {
                seq,
                round,
                basis_seq,
                payload: bytes,
            },
            None => Frame::Request {
                seq,
                round,
                payload: bytes,
            },
        };
        self.pending.push_back(Some(PendingInit {
            peer: init.peer,
            nth: init.nth,
            round,
            latency: init.latency.rounds(),
            weight,
            sent: (self.mode == PayloadMode::Delta).then_some(payload),
        }));
        let sent = self.transport.send(round, init.peer, init.nth, &frame);
        self.scratch = into_payload(frame);
        sent
    }

    /// Phase 4b: a second, non-blocking poll of the same round, so
    /// requests initiated this round are answered this round (after
    /// every node's `on_round` — which is when the engine snapshots
    /// responders).
    pub fn settle(&mut self, round: Round) -> Result<(), NetError> {
        // Deferred requests for this round first: their initiation round
        // has now begun locally and `on_round` has run, so the reply
        // snapshot is taken from the correct state.
        while let Some((&t, _)) = self.deferred.first_key_value() {
            if t > round {
                break;
            }
            let batch = self.deferred.remove(&t).expect("first key exists");
            for req in batch {
                self.answer_request(t, req)?;
            }
        }
        self.poll_and_ingest(round)
    }

    /// Polls the transport into the reused inbox and ingests it.
    fn poll_and_ingest(&mut self, now: Round) -> Result<(), NetError> {
        let mut inbox = std::mem::take(&mut self.inbox);
        let result = match self.transport.poll(now, &mut inbox) {
            Ok(()) => self.ingest(now, &mut inbox),
            Err(e) => Err(e),
        };
        inbox.clear();
        self.inbox = inbox;
        result
    }

    fn ingest(&mut self, now: Round, events: &mut Vec<NetEvent>) -> Result<(), NetError> {
        for event in events.drain(..) {
            match event {
                NetEvent::Frame { from, frame } => self.ingest_frame(now, from, frame)?,
                NetEvent::PeerLost(loss) => {
                    // A peer that already said `Bye` departed; its
                    // sockets closing behind it are not a fault.
                    let departed = self.peers_gone.contains(&loss.peer);
                    self.mark_gone(loss.peer);
                    if !departed {
                        self.losses.push(loss);
                    }
                }
            }
        }
        Ok(())
    }

    /// `from`'s position in our adjacency row: the one search an
    /// answered exchange does (see [`Inbound`]).
    fn position_of(&self, from: NodeId) -> Result<usize, NetError> {
        self.graph
            .neighbor_index(self.node(), from)
            .ok_or(NetError::UnknownPeer(from))
    }

    /// Requests are answered as they come: the transport delivers each
    /// at most once (see [`Transport`]), so no seq is checked here.
    fn ingest_frame(&mut self, now: Round, from: NodeId, frame: Frame) -> Result<(), NetError> {
        match frame {
            Frame::Request {
                seq,
                round,
                payload,
            } => {
                let nth = self.position_of(from)?;
                let theirs = P::Payload::decode_payload(&payload)?;
                self.check_universe(from, &theirs)?;
                self.stage_request(
                    now,
                    round,
                    Inbound {
                        from,
                        nth,
                        seq,
                        theirs,
                    },
                )
            }
            Frame::RequestDelta {
                seq,
                round,
                basis_seq,
                payload,
            } => {
                if self.mode != PayloadMode::Delta {
                    return Err(NetError::ProtocolViolation(format!(
                        "delta request from node {}, but this node never advertised CAP_DELTA",
                        from.index()
                    )));
                }
                let nth = self.position_of(from)?;
                let basis = if basis_seq == 0 {
                    None
                } else {
                    let found = self.knowledge.get(nth).and_then(|k| {
                        k.bases
                            .iter()
                            .find(|&&(s, _)| s == basis_seq)
                            .map(|(_, b)| b)
                    });
                    if found.is_none() {
                        return Err(NetError::ProtocolViolation(format!(
                            "request {seq} from node {} references unknown basis {basis_seq}",
                            from.index()
                        )));
                    }
                    found
                };
                let theirs = P::Payload::decode_delta(&payload, basis)?;
                self.check_universe(from, &theirs)?;
                if basis_seq != 0 {
                    if let Some(cache) = self.knowledge.get_mut(nth) {
                        // References are monotone (see `EdgeCache`), so
                        // older bases are dead weight.
                        cache.bases.retain(|&(s, _)| s >= basis_seq);
                    }
                }
                self.stage_request(
                    now,
                    round,
                    Inbound {
                        from,
                        nth,
                        seq,
                        theirs,
                    },
                )
            }
            Frame::Reply {
                seq,
                round,
                payload,
            } => self.accept_reply(from, seq, round, &payload, None),
            Frame::ReplyDelta {
                seq,
                round,
                basis_seq,
                payload,
            } => {
                if self.mode != PayloadMode::Delta {
                    return Err(NetError::ProtocolViolation(format!(
                        "delta reply from node {}, but this node never advertised CAP_DELTA",
                        from.index()
                    )));
                }
                self.accept_reply(from, seq, round, &payload, Some(basis_seq))
            }
            Frame::Done { .. } => {
                self.peers_done.insert(from);
                Ok(())
            }
            Frame::Bye => {
                // A graceful departure: the peer's replies were queued
                // FIFO ahead of this Bye on the same edge or trunk, so
                // exchanges already initiated toward it stay pending and
                // their replies are still honored.
                self.peers_gone.insert(from);
                Ok(())
            }
            Frame::Hello { .. } => Err(NetError::ProtocolViolation(format!(
                "mid-stream handshake from node {}",
                from.index()
            ))),
            Frame::Routed { .. } => Err(NetError::ProtocolViolation(format!(
                "unwrapped trunk envelope from node {} reached the runner",
                from.index()
            ))),
        }
    }

    /// Refuses a decoded payload over a different id universe than this
    /// node's own. A codec can only validate a body against the universe
    /// the body declares; protocols merge payloads into their state, and
    /// merging across universes is a panic, not an error — so the frame
    /// stops here, as the peer's violation.
    fn check_universe(&self, from: NodeId, theirs: &P::Payload) -> Result<(), NetError> {
        let Some(got) = theirs.wire_universe() else {
            return Ok(());
        };
        match self.universe {
            Some(want) if want != got => Err(NetError::ProtocolViolation(format!(
                "payload from node {} ranges over universe {got}, this node's over {want}",
                from.index()
            ))),
            _ => Ok(()),
        }
    }

    /// Routes a decoded request initiated at `round` to its reply point:
    /// answered now, or deferred until our clock reaches that round.
    fn stage_request(
        &mut self,
        now: Round,
        round: Round,
        req: Inbound<P::Payload>,
    ) -> Result<(), NetError> {
        if round > now {
            self.deferred.entry(round).or_default().push(req);
            Ok(())
        } else {
            self.answer_request(round, req)
        }
    }

    /// A peer initiated toward us at round `t`: snapshot our payload
    /// *now* (our state equals what it was after `t`'s `on_round`, which
    /// is when the engine snapshots responders), reply, and hold the
    /// peer's payload until the exchange's due round.
    fn answer_request(&mut self, t: Round, req: Inbound<P::Payload>) -> Result<(), NetError> {
        let Inbound {
            from,
            nth,
            seq,
            theirs,
        } = req;
        let me = self.node();
        let due = t + self.graph.neighbor_latencies(me)[nth].rounds();
        let caps = self.transport.peer_caps(from);
        let mine = self.pacer.payload();
        let mut bytes = std::mem::take(&mut self.scratch);
        let delta_basis = encode_for_wire(
            &mut self.accounting,
            self.mode,
            caps,
            &mine,
            Some((seq, &theirs)),
            &mut bytes,
        );
        let frame = match delta_basis {
            Some(basis_seq) => Frame::ReplyDelta {
                seq,
                round: t,
                basis_seq,
                payload: bytes,
            },
            None => Frame::Reply {
                seq,
                round: t,
                payload: bytes,
            },
        };
        let sent = self.transport.send(due, from, nth, &frame);
        self.scratch = into_payload(frame);
        sent?;
        if self.mode == PayloadMode::Delta && caps & CAP_DELTA != 0 {
            if let Some(merged) = mine.merge_basis(&theirs) {
                let degree = self.graph.neighbor_ids(me).len();
                self.knowledge.entry(nth, degree).bases.push((seq, merged));
            }
        }
        self.hold.push(Held {
            exchange: Exchange {
                peer: from,
                payload: theirs,
                initiated_at: t,
                completed_at: due,
                initiated_by_me: false,
            },
            weight: 0,
            confirm: None,
        });
        Ok(())
    }

    /// Our own initiation came back: hold the peer's payload until the
    /// due round, with what completing the exchange counts and confirms
    /// then.
    fn accept_reply(
        &mut self,
        from: NodeId,
        seq: u64,
        t: Round,
        payload: &[u8],
        basis_seq: Option<u64>,
    ) -> Result<(), NetError> {
        let Some(pend) = self.take_pending(seq) else {
            // A reply whose request we wrote off when the peer was lost,
            // or one to a seq we never issued: ignore. Loopback
            // exactness does not rest on this check — it is proven by
            // outcome equality against the engine.
            return Ok(());
        };
        if pend.peer != from || pend.round != t {
            return Err(NetError::ProtocolViolation(format!(
                "reply {seq} does not match its request (peer {}, round {t})",
                from.index()
            )));
        }
        let due = t + pend.latency;
        let theirs = match basis_seq {
            None => P::Payload::decode_payload(payload)?,
            Some(0) => P::Payload::decode_delta(payload, None)?,
            Some(b) if b == seq => {
                let Some(sent) = pend.sent.as_ref() else {
                    return Err(NetError::ProtocolViolation(format!(
                        "delta reply {seq} from node {}, but the request payload was not retained",
                        from.index()
                    )));
                };
                P::Payload::decode_delta(payload, Some(sent))?
            }
            Some(b) => {
                return Err(NetError::ProtocolViolation(format!(
                    "reply {seq} references unknown basis {b}"
                )));
            }
        };
        self.check_universe(from, &theirs)?;
        let confirm = match pend.sent {
            Some(sent)
                if self.mode == PayloadMode::Delta
                    && self.transport.peer_caps(from) & CAP_DELTA != 0 =>
            {
                sent.merge_basis(&theirs)
                    .map(|merged| (pend.nth, seq, merged))
            }
            _ => None,
        };
        self.hold.push(Held {
            exchange: Exchange {
                peer: from,
                payload: theirs,
                initiated_at: t,
                completed_at: due,
                initiated_by_me: true,
            },
            weight: pend.weight,
            confirm,
        });
        Ok(())
    }

    /// Applies every held exchange due at or before `round`, in the
    /// engine's per-node delivery order: ascending `initiated_at`, ties
    /// by initiator id (the engine admits same-round initiations in node
    /// order). Our own initiations count their delivery (both payload
    /// directions, initiator-side) and confirm their basis here.
    fn deliver_due(&mut self, round: Round) {
        let me = self.node();
        let degree = self.graph.neighbor_ids(me).len();
        // A late arrival (wall pacing) sorts with the exchanges due now.
        self.hold.sort_unstable_by_key(|h| {
            let x = &h.exchange;
            let initiator = if x.initiated_by_me { me } else { x.peer };
            (x.completed_at.max(round), x.initiated_at, initiator)
        });
        let due = self
            .hold
            .partition_point(|h| h.exchange.completed_at <= round);
        for held in self.hold.drain(..due) {
            let x = &held.exchange;
            if x.initiated_by_me {
                self.metrics.delivered += 1;
                self.metrics.payload_units += held.weight + P::payload_weight(&x.payload);
            }
            if let Some((nth, seq, basis)) = held.confirm {
                let cache = self.knowledge.entry(nth, degree);
                if cache.confirmed.as_ref().is_none_or(|&(s, _)| s < seq) {
                    cache.confirmed = Some((seq, basis));
                }
            }
            self.pacer.deliver(round, x);
        }
    }

    /// Takes `seq`'s request out of `pending` if it is still in flight,
    /// then trims the settled front.
    fn take_pending(&mut self, seq: u64) -> Option<PendingInit<P::Payload>> {
        let at = usize::try_from(seq.checked_sub(self.pending_base)?).ok()?;
        let pend = self.pending.get_mut(at)?.take();
        self.trim_pending();
        pend
    }

    fn trim_pending(&mut self) {
        while let Some(None) = self.pending.front() {
            self.pending.pop_front();
            self.pending_base += 1;
        }
    }

    fn mark_gone(&mut self, peer: NodeId) {
        self.peers_gone.insert(peer);
        // Any shared bases died with the connection: a peer that comes
        // back (or a late frame) must renegotiate from full snapshots.
        if let Some(cache) = self
            .graph
            .neighbor_index(self.node(), peer)
            .and_then(|nth| self.knowledge.get_mut(nth))
        {
            *cache = EdgeCache::default();
        }
        for held in &mut self.hold {
            if held.exchange.peer == peer {
                held.confirm = None;
            }
        }
        // Initiations in flight toward the departed peer will never be
        // answered: count them lost, as the engine does for crashes.
        for entry in &mut self.pending {
            if entry.as_ref().is_some_and(|p| p.peer == peer) {
                *entry = None;
                self.metrics.lost += 1;
            }
        }
        self.trim_pending();
    }

    /// Neighbors not departed or lost, with their adjacency positions.
    fn live_neighbors(&self) -> impl Iterator<Item = (usize, NodeId)> + '_ {
        self.graph
            .neighbor_ids(self.node())
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, v)| !self.peers_gone.contains(v))
    }

    /// Self-driving loop for distributed transports (TCP): runs rounds
    /// until the distributed stop barrier holds, the round cap is hit,
    /// or every neighbor is gone.
    ///
    /// `done` is this node's *local* done predicate (typically
    /// [`gossip_core::Goal::locally_met`] over the protocol's rumor set,
    /// restricted to the surviving component via the [`RunView`]). When
    /// it first turns true the node announces [`Frame::Done`] to its
    /// neighbors and keeps participating — its neighbors may still need
    /// it — until every neighbor has announced done too (or departed).
    /// That barrier is sound for monotone, neighbor-mediated goals:
    /// each node's remaining need is served by its own neighbors, who
    /// only exit once that need is met.
    ///
    /// The run is bounded: the transport's start barrier is bounded by
    /// its timeout, every poll is bounded by the round pace, and the
    /// loop is bounded by `max_rounds`.
    pub fn run<D>(mut self, done: D) -> Result<NodeOutcome<P>, NetError>
    where
        D: Fn(&P, &RunView<'_>) -> bool,
    {
        self.start()?;
        let mut round: Round = 0;
        loop {
            if let Some(reason) = self.step_round(round, &done)? {
                return Ok(self.into_outcome(round, reason));
            }
            round += 1;
        }
    }

    /// One self-driven round: phase 1, the done announcement, the
    /// barrier / isolation / round-cap checks, then (when the node is
    /// not stopping) launch + settle. Returns the stop reason once the
    /// node is finished — exactly the loop body of [`run`](Self::run),
    /// exposed so a cooperative cluster driver (the reactor hosts many
    /// runners on one thread) can interleave rounds across nodes.
    pub fn step_round<D>(
        &mut self,
        round: Round,
        done: &D,
    ) -> Result<Option<NodeStopReason>, NetError>
    where
        D: Fn(&P, &RunView<'_>) -> bool,
    {
        self.begin_round(round)?;
        if self.done_round.is_none() {
            let view = RunView {
                gone: &self.peers_gone,
            };
            if self.pacer.is_done() || done(self.pacer.protocol(), &view) {
                self.done_round = Some(round);
                let live: Vec<(usize, NodeId)> = self.live_neighbors().collect();
                for (nth, peer) in live {
                    self.transport
                        .send(round, peer, nth, &Frame::Done { round })?;
                }
            }
        }
        if self.done_round.is_some()
            && self
                .graph
                .neighbor_ids(self.node())
                .iter()
                .all(|v| self.peers_done.contains(v) || self.peers_gone.contains(v))
        {
            return Ok(Some(NodeStopReason::Barrier));
        }
        if self.done_round.is_none() && self.live_neighbors().next().is_none() {
            return Ok(Some(NodeStopReason::Isolated));
        }
        if round >= self.max_rounds {
            return Ok(Some(NodeStopReason::MaxRounds));
        }
        self.launch(round)?;
        self.settle(round)?;
        Ok(None)
    }

    /// Finishes the node: best-effort [`Frame::Bye`] to live neighbors,
    /// transport teardown, and the final [`NodeOutcome`].
    pub fn into_outcome(mut self, rounds: Round, reason: NodeStopReason) -> NodeOutcome<P> {
        let live: Vec<(usize, NodeId)> = self.live_neighbors().collect();
        for (nth, peer) in live {
            // Best-effort goodbye; a peer that cannot be reached is
            // already accounted for.
            let _ = self.transport.send(rounds, peer, nth, &Frame::Bye);
        }
        self.transport.shutdown();
        let stats = self.transport.stats();
        NodeOutcome {
            reason,
            rounds,
            metrics: self.metrics,
            losses: self.losses,
            stats,
            accounting: self.accounting,
            protocol: self.pacer.into_protocol(),
        }
    }

    /// Tears the runner down abruptly — no goodbye frames, no barrier —
    /// returning `(metrics, transport stats, wire accounting, protocol)`.
    /// The loopback cluster driver uses this once the global stop
    /// condition holds; the socket fault tests use it to simulate a crash
    /// (peers observe a dead socket, not a [`Frame::Bye`]).
    pub fn abort(mut self) -> (SimMetrics, TransportStats, WireAccounting, P) {
        self.transport.shutdown();
        let stats = self.transport.stats();
        (
            self.metrics,
            stats,
            self.accounting,
            self.pacer.into_protocol(),
        )
    }
}

/// Runs a whole cluster over the deterministic loopback transport and
/// returns the simulator-shaped [`Outcome`].
///
/// The lockstep cluster loop interleaves the runners exactly as the engine
/// interleaves its per-node phases, so for any
/// deterministic-given-the-seed protocol the outcome — stop reason,
/// round count, metrics, final states — equals
/// `Simulator::new(graph, config).run(factory, stop)` with the same
/// arguments. The equivalence argument is spelled out in DESIGN.md §11
/// and checked case-by-case in `tests/loopback_equivalence.rs`.
///
/// The `stop` closure receives references (the protocols live inside
/// their runners) but is otherwise the engine's stop closure.
///
/// # Panics
///
/// Panics only if the loopback transport misbehaves, which would be a
/// bug in this crate, not in the caller.
pub fn run_loopback<P, F, S>(graph: &Graph, config: &SimConfig, factory: F, stop: S) -> Outcome<P>
where
    P: Protocol,
    P::Payload: WirePayload,
    F: FnMut(NodeId, usize) -> P,
    S: FnMut(&[&P], Round) -> bool,
{
    run_loopback_mode_with_stats(graph, config, PayloadMode::Snapshot, factory, stop).0
}

/// Like [`run_loopback`], with an explicit [`PayloadMode`] and the
/// cluster-wide transport totals and payload [`WireAccounting`]
/// alongside. Delta mode reproduces snapshot mode's outcome exactly —
/// same stop reason, round count, metrics, and final states — only the
/// wire bytes (and hence the accounting and transport stats) differ; the
/// equivalence suites assert this case by case.
///
/// # Panics
///
/// See [`run_loopback`].
pub fn run_loopback_mode_with_stats<P, F, S>(
    graph: &Graph,
    config: &SimConfig,
    mode: PayloadMode,
    factory: F,
    stop: S,
) -> (Outcome<P>, TransportStats, WireAccounting)
where
    P: Protocol,
    P::Payload: WirePayload,
    F: FnMut(NodeId, usize) -> P,
    S: FnMut(&[&P], Round) -> bool,
{
    let hub = LoopbackHub::new(graph.node_count());
    run_lockstep(graph, config, mode, factory, stop, |node| {
        hub.endpoint(node)
    })
}

/// The lockstep cluster loop behind [`run_loopback`] and
/// [`run_reactor`](crate::run_reactor): one runner per node of `graph`
/// over the transport `endpoint` hands out, stepped phase by phase as
/// the engine steps its nodes — every `begin_round` (deliveries), the
/// stop checks in Condition → AllDone → MaxRounds order, every `launch`
/// (`on_round` and the request, in node order), then every `settle`
/// (responder snapshots after all launches). Returns the
/// simulator-shaped [`Outcome`] with the cluster-wide transport and
/// payload totals.
///
/// # Panics
///
/// Panics on any transport error: every node lives in this process, so
/// a failure is a bug or an environment limit (socket exhaustion), not
/// a recoverable protocol condition.
pub(crate) fn run_lockstep<P, T, F, S, E>(
    graph: &Graph,
    config: &SimConfig,
    mode: PayloadMode,
    mut factory: F,
    mut stop: S,
    mut endpoint: E,
) -> (Outcome<P>, TransportStats, WireAccounting)
where
    P: Protocol,
    P::Payload: WirePayload,
    T: Transport,
    F: FnMut(NodeId, usize) -> P,
    S: FnMut(&[&P], Round) -> bool,
    E: FnMut(NodeId) -> T,
{
    fn ok(step: Result<(), NetError>) {
        step.unwrap_or_else(|e| panic!("lockstep cluster transport failed: {e}"));
    }
    let n = graph.node_count();
    // Every runner is constructed (advertising its capabilities) before
    // any starts, so no handshake can race a capability store.
    let mut runners: Vec<NetRunner<'_, P, T>> = (0..n)
        .map(|i| {
            let node = NodeId::new(i);
            NetRunner::new(graph, node, factory(node, n), config, endpoint(node))
                .with_payload_mode(mode)
        })
        .collect();
    for r in &mut runners {
        ok(r.start());
    }
    let mut round: Round = 0;
    let reason = loop {
        for r in &mut runners {
            ok(r.begin_round(round));
        }
        let protocols: Vec<&P> = runners.iter().map(NetRunner::protocol).collect();
        if stop(&protocols, round) {
            break StopReason::Condition;
        }
        if runners.iter().all(NetRunner::is_done) {
            break StopReason::AllDone;
        }
        if round >= config.max_rounds {
            break StopReason::MaxRounds;
        }
        for r in &mut runners {
            ok(r.launch(round));
        }
        for r in &mut runners {
            ok(r.settle(round));
        }
        round += 1;
    };
    let mut metrics = SimMetrics::default();
    let mut totals = TransportStats::default();
    let mut wire = WireAccounting::default();
    let mut nodes = Vec::with_capacity(n);
    for r in runners {
        let (m, stats, acct, p) = r.abort();
        metrics.absorb(&m);
        totals.absorb(&stats);
        wire.absorb(&acct);
        nodes.push(p);
    }
    (
        Outcome {
            reason,
            rounds: round,
            metrics,
            stats: EngineStats::default(),
            nodes,
        },
        totals,
        wire,
    )
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use gossip_sim::RumorSet;
    use latency_graph::generators;

    use super::*;
    use crate::error::PeerLoss;

    /// A transport the test scripts directly: `poll` drains a hand-fed
    /// inbox, `send` records frames, and peer capabilities are whatever
    /// the test says they are.
    struct Scripted {
        node: NodeId,
        caps: BTreeMap<NodeId, u32>,
        inbox: VecDeque<NetEvent>,
        sent: std::rc::Rc<std::cell::RefCell<Vec<(Round, NodeId, Frame)>>>,
    }

    impl Transport for Scripted {
        fn local(&self) -> NodeId {
            self.node
        }
        fn start(&mut self) -> Result<(), NetError> {
            Ok(())
        }
        fn peer_caps(&self, peer: NodeId) -> u32 {
            self.caps.get(&peer).copied().unwrap_or(0)
        }
        fn send(
            &mut self,
            release: Round,
            to: NodeId,
            _nth: usize,
            frame: &Frame,
        ) -> Result<(), NetError> {
            self.sent.borrow_mut().push((release, to, frame.clone()));
            Ok(())
        }
        fn poll(&mut self, _round: Round, out: &mut Vec<NetEvent>) -> Result<(), NetError> {
            out.extend(self.inbox.drain(..));
            Ok(())
        }
        fn stats(&self) -> TransportStats {
            TransportStats::default()
        }
        fn shutdown(&mut self) {}
    }

    /// Initiates toward neighbor 0 every round; payload is its rumor set.
    #[derive(Clone)]
    struct FirstNeighbor {
        rumors: RumorSet,
    }

    impl Protocol for FirstNeighbor {
        type Payload = RumorSet;
        fn payload(&self) -> RumorSet {
            self.rumors.clone()
        }
        fn on_round(&mut self, ctx: &mut gossip_sim::Context<'_>) {
            ctx.initiate_nth(0);
        }
        fn on_exchange(
            &mut self,
            _ctx: &mut gossip_sim::Context<'_>,
            x: &gossip_sim::Exchange<RumorSet>,
        ) {
            self.rumors.union_with(&x.payload);
        }
    }

    type SentLog = std::rc::Rc<std::cell::RefCell<Vec<(Round, NodeId, Frame)>>>;

    fn delta_runner<'g>(
        graph: &'g Graph,
        caps: &[(u32, u32)],
    ) -> (NetRunner<'g, FirstNeighbor, Scripted>, SentLog) {
        let node = NodeId::new(0);
        let sent: SentLog = std::rc::Rc::default();
        let transport = Scripted {
            node,
            caps: caps
                .iter()
                .map(|&(peer, c)| (NodeId::new(peer as usize), c))
                .collect(),
            inbox: VecDeque::new(),
            sent: std::rc::Rc::clone(&sent),
        };
        let protocol = FirstNeighbor {
            rumors: RumorSet::singleton(graph.node_count(), node),
        };
        let cfg = SimConfig::default();
        let runner = NetRunner::new(graph, node, protocol, &cfg, transport)
            .with_payload_mode(PayloadMode::Delta);
        (runner, sent)
    }

    #[test]
    fn knowledge_cache_drives_bases_and_loss_invalidates_it() {
        // Large enough that a sparse delta beats the 20-byte snapshot
        // (the +8 basis_seq overhead makes tiny universes snapshot-only).
        let g = generators::clique(128);
        let peer = NodeId::new(1);
        let (mut runner, sent) = delta_runner(&g, &[(1, CAP_DELTA), (2, CAP_DELTA)]);
        runner.start().expect("start");

        // Round 0: first contact has no confirmed basis — the request is
        // a delta against the *empty* basis, i.e. full snapshot content.
        runner.begin_round(0).expect("round 0");
        runner.launch(0).expect("launch 0");
        let (_, to, first) = sent.borrow().last().expect("one frame sent").clone();
        assert_eq!(to, peer);
        let Frame::RequestDelta {
            seq,
            basis_seq,
            payload,
            ..
        } = first
        else {
            panic!("expected a delta request, got {first:?}");
        };
        assert_eq!(basis_seq, 0, "no cache yet: empty basis");
        let decoded = RumorSet::decode_delta(&payload, None).expect("request decodes");
        assert_eq!(decoded, RumorSet::singleton(128, NodeId::new(0)));

        // The peer answers with its snapshot {1}, delta-coded against the
        // request's own payload.
        let mut theirs = RumorSet::new(128);
        theirs.insert(peer);
        let mut reply_delta = Vec::new();
        assert!(theirs.encode_delta(Some(&decoded), &mut reply_delta));
        runner.transport.inbox.push_back(NetEvent::Frame {
            from: peer,
            frame: Frame::ReplyDelta {
                seq,
                round: 0,
                basis_seq: seq,
                payload: reply_delta,
            },
        });
        runner.settle(0).expect("settle 0");
        let no_exchange_yet = RumorSet::singleton(128, NodeId::new(0));
        assert_eq!(
            runner.protocol().rumors,
            no_exchange_yet,
            "exchange applies at its due round, not on receipt"
        );
        // Peer 1 is position 0 of node 0's row.
        assert!(
            runner
                .knowledge
                .get(0)
                .is_none_or(|k| k.confirmed.is_none()),
            "the basis is confirmed at the due round, not on receipt"
        );

        // Round 1: completing the exchange records the confirmed basis
        // {0, 1} for this edge, and the next request toward the same
        // peer references it by seq.
        runner.begin_round(1).expect("round 1");
        let confirmed = runner
            .knowledge
            .get(0)
            .and_then(|k| k.confirmed.as_ref())
            .expect("completed exchange confirms a basis");
        assert_eq!(confirmed.0, seq);
        let mut both = RumorSet::singleton(128, NodeId::new(0));
        both.insert(peer);
        assert_eq!(confirmed.1, both);
        runner.launch(1).expect("launch 1");
        let (_, _, second) = sent.borrow().last().expect("second frame").clone();
        let Frame::RequestDelta { basis_seq, .. } = second else {
            panic!("expected a delta request, got {second:?}");
        };
        assert_eq!(
            basis_seq, seq,
            "cache hit: delta against the confirmed basis"
        );

        // The transport reports the peer lost: the whole edge cache dies
        // with the connection, and the in-flight initiation is written
        // off as lost.
        runner
            .transport
            .inbox
            .push_back(NetEvent::PeerLost(PeerLoss {
                peer,
                attempts: 3,
                error: "injected".to_owned(),
            }));
        runner.settle(1).expect("settle 1");
        assert!(
            runner
                .knowledge
                .get(0)
                .is_none_or(|k| k.confirmed.is_none() && k.bases.is_empty()),
            "loss invalidates the peer's knowledge cache"
        );
        assert!(runner.pending.is_empty(), "in-flight request written off");
        assert_eq!(runner.metrics.lost, 1);

        // If the peer comes back (the transport re-admits it after a
        // reconnect), nothing of the old cache survives: the next
        // request falls back to the empty basis — full snapshot content.
        runner.peers_gone.remove(&peer);
        runner.begin_round(2).expect("round 2");
        runner.launch(2).expect("launch 2");
        let (_, to, third) = sent.borrow().last().expect("third frame").clone();
        assert_eq!(to, peer);
        let Frame::RequestDelta { basis_seq, .. } = third else {
            panic!("expected a delta request, got {third:?}");
        };
        assert_eq!(
            basis_seq, 0,
            "reconnect renegotiates from the full snapshot"
        );
    }

    /// The path 0 —5— 1 —2— 2: node 1's row is `[0, 2]`, so its
    /// `FirstNeighbor` launches over the ℓ = 5 edge.
    fn slow_fast_path() -> Graph {
        let mut b = latency_graph::GraphBuilder::new(3);
        b.add_edge(0, 1, 5).expect("edge");
        b.add_edge(1, 2, 2).expect("edge");
        b.build().expect("graph")
    }

    #[test]
    fn exchanges_are_held_to_their_own_edge_latency() {
        // Node 1 launches over its ℓ = 5 edge (row position 0) and
        // answers a request over its ℓ = 2 edge.
        let g = slow_fast_path();
        let (me, slow, fast) = (NodeId::new(1), NodeId::new(0), NodeId::new(2));
        let sent: SentLog = std::rc::Rc::default();
        let transport = Scripted {
            node: me,
            caps: BTreeMap::new(),
            inbox: VecDeque::new(),
            sent: std::rc::Rc::clone(&sent),
        };
        let protocol = FirstNeighbor {
            rumors: RumorSet::singleton(3, me),
        };
        let mut runner = NetRunner::new(&g, me, protocol, &SimConfig::default(), transport);
        runner.start().expect("start");
        runner.begin_round(0).expect("round 0");
        runner.launch(0).expect("launch 0");
        let (release, to, request) = sent.borrow().last().expect("request sent").clone();
        assert_eq!((release, to), (0, slow));
        let Frame::Request { seq, .. } = request else {
            panic!("expected a request, got {request:?}");
        };
        let snapshot = |v: NodeId| {
            let mut bytes = Vec::new();
            RumorSet::singleton(3, v).encode_payload(&mut bytes);
            bytes
        };
        runner.transport.inbox.extend([
            NetEvent::Frame {
                from: slow,
                frame: Frame::Reply {
                    seq,
                    round: 0,
                    payload: snapshot(slow),
                },
            },
            NetEvent::Frame {
                from: fast,
                frame: Frame::Request {
                    seq: 1,
                    round: 0,
                    payload: snapshot(fast),
                },
            },
        ]);
        runner.settle(0).expect("settle 0");
        let (release, to, _) = sent.borrow().last().expect("reply sent").clone();
        assert_eq!((release, to), (2, fast), "reply released at t + 2");
        let mut held: Vec<(NodeId, Round)> = runner
            .hold
            .iter()
            .map(|h| (h.exchange.peer, h.exchange.completed_at))
            .collect();
        held.sort();
        assert_eq!(held, [(slow, 5), (fast, 2)]);
        let knows = |r: &NetRunner<'_, FirstNeighbor, Scripted>| {
            [slow, fast].map(|v| r.protocol().rumors.contains(v))
        };
        for (round, want) in [(1, [false, false]), (2, [false, true]), (4, [false, true])] {
            runner.begin_round(round).expect("round");
            assert_eq!(knows(&runner), want, "round {round}");
        }
        runner.begin_round(5).expect("round 5");
        assert_eq!(knows(&runner), [true, true], "round 5");
        assert!(runner.hold.is_empty());
    }

    #[test]
    fn an_early_reply_takes_effect_at_its_due_round() {
        // Node 1 initiates over its ℓ = 5 edge in round 0 and the reply
        // is handed over in that same round. Nothing it changes — the
        // delivery count, payload units, the edge's confirmed basis, the
        // protocol's rumors — may move before round 5.
        let g = slow_fast_path();
        let (me, slow) = (NodeId::new(1), NodeId::new(0));
        let sent: SentLog = std::rc::Rc::default();
        let transport = Scripted {
            node: me,
            caps: BTreeMap::from([(slow, CAP_DELTA), (NodeId::new(2), CAP_DELTA)]),
            inbox: VecDeque::new(),
            sent: std::rc::Rc::clone(&sent),
        };
        let protocol = FirstNeighbor {
            rumors: RumorSet::singleton(3, me),
        };
        let mut runner = NetRunner::new(&g, me, protocol, &SimConfig::default(), transport)
            .with_payload_mode(PayloadMode::Delta);
        runner.start().expect("start");
        runner.begin_round(0).expect("round 0");
        runner.launch(0).expect("launch 0");
        let (_, to, request) = sent.borrow().last().expect("request sent").clone();
        assert_eq!(to, slow);
        let (Frame::Request { seq, .. } | Frame::RequestDelta { seq, .. }) = request else {
            panic!("expected a request, got {request:?}");
        };
        let mut payload = Vec::new();
        RumorSet::singleton(3, slow).encode_payload(&mut payload);
        runner.transport.inbox.push_back(NetEvent::Frame {
            from: slow,
            frame: Frame::Reply {
                seq,
                round: 0,
                payload,
            },
        });
        runner.settle(0).expect("settle 0");
        assert!(runner.pending.is_empty(), "the reply was accepted");
        let effects = |r: &NetRunner<'_, FirstNeighbor, Scripted>| {
            let confirmed = r.knowledge.get(0).and_then(|k| k.confirmed.clone());
            (
                r.metrics.delivered,
                r.metrics.payload_units,
                confirmed,
                r.protocol().rumors.contains(slow),
            )
        };
        let before = (0, 0, None, false);
        assert_eq!(effects(&runner), before, "on receipt");
        for round in 1..5 {
            runner.begin_round(round).expect("round");
            assert_eq!(effects(&runner), before, "round {round}");
        }
        runner.begin_round(5).expect("round 5");
        let mut both = RumorSet::singleton(3, me);
        both.insert(slow);
        assert_eq!(effects(&runner), (1, 2, Some((seq, both)), true), "round 5");
    }

    /// Initiates toward neighbor `round mod degree`: a star's center
    /// walks its leaves in order.
    struct RoundRobin {
        rumors: RumorSet,
    }

    impl Protocol for RoundRobin {
        type Payload = RumorSet;
        fn payload(&self) -> RumorSet {
            self.rumors.clone()
        }
        fn on_round(&mut self, ctx: &mut gossip_sim::Context<'_>) {
            let round = usize::try_from(ctx.round()).expect("round fits usize");
            ctx.initiate_nth(round % ctx.degree());
        }
        fn on_exchange(
            &mut self,
            _ctx: &mut gossip_sim::Context<'_>,
            x: &gossip_sim::Exchange<RumorSet>,
        ) {
            self.rumors.union_with(&x.payload);
        }
    }

    #[test]
    fn pending_ring_settles_out_of_order_and_writes_off_a_lost_peer() {
        // The center of a star with leaf latencies 1, 3, 5 launches
        // seqs 1, 2, 3 toward leaves 1, 2, 3 in rounds 0, 1, 2.
        let mut b = latency_graph::GraphBuilder::new(4);
        for (leaf, ell) in [(1, 1), (2, 3), (3, 5)] {
            b.add_edge(0, leaf, ell).expect("edge");
        }
        let g = b.build().expect("graph");
        let me = NodeId::new(0);
        let sent: SentLog = std::rc::Rc::default();
        let transport = Scripted {
            node: me,
            caps: BTreeMap::new(),
            inbox: VecDeque::new(),
            sent: std::rc::Rc::clone(&sent),
        };
        let protocol = RoundRobin {
            rumors: RumorSet::singleton(4, me),
        };
        let mut runner = NetRunner::new(&g, me, protocol, &SimConfig::default(), transport);
        runner.start().expect("start");
        for round in 0..3 {
            runner.begin_round(round).expect("round");
            runner.launch(round).expect("launch");
            let (release, to, frame) = sent.borrow().last().expect("request sent").clone();
            let leaf = usize::try_from(round).expect("round fits usize") + 1;
            assert_eq!((release, to), (round, NodeId::new(leaf)));
            assert!(
                matches!(frame, Frame::Request { seq, .. } if seq == round + 1),
                "seqs are dense from 1: {frame:?}"
            );
        }
        assert_eq!(runner.pending.len(), 3, "three requests in flight");
        let reply = |leaf: usize, seq: u64, round: Round| {
            let mut payload = Vec::new();
            RumorSet::singleton(4, NodeId::new(leaf)).encode_payload(&mut payload);
            NetEvent::Frame {
                from: NodeId::new(leaf),
                frame: Frame::Reply {
                    seq,
                    round,
                    payload,
                },
            }
        };
        let lost = NetEvent::PeerLost(PeerLoss {
            peer: NodeId::new(2),
            attempts: 3,
            error: "injected".to_owned(),
        });

        // The newest request's reply lands first: a hole at the back.
        runner.transport.inbox.push_back(reply(3, 3, 2));
        runner.settle(2).expect("settle");
        assert_eq!(runner.pending.len(), 3, "the front is still in flight");
        // Leaf 2 is lost mid-flight: its one pending is written off in
        // place, and only its.
        runner.transport.inbox.push_back(lost);
        runner.settle(2).expect("settle");
        assert_eq!(runner.metrics.lost, 1);
        assert_eq!(runner.pending.len(), 3, "seq 1 still holds the front");
        // The oldest reply lands last: every seq is settled and the ring
        // drains.
        runner.transport.inbox.push_back(reply(1, 1, 0));
        runner.settle(2).expect("settle");
        assert!(runner.pending.is_empty());
        assert_eq!(runner.pending_base, 4, "the next request is seq 4");
        assert_eq!(
            (runner.metrics.delivered, runner.metrics.lost),
            (0, 1),
            "a reply counts as delivered when it applies, not on receipt"
        );

        // A late reply to the written-off seq, and replies to seqs never
        // issued (past the newest, and 0), are ignored.
        runner
            .transport
            .inbox
            .extend([reply(2, 2, 1), reply(1, 9, 2), reply(3, 0, 2)]);
        runner.settle(2).expect("late replies are not errors");
        assert_eq!((runner.metrics.delivered, runner.metrics.lost), (0, 1));
        assert!(runner.pending.is_empty());
        let mut held: Vec<(NodeId, Round)> = runner
            .hold
            .iter()
            .map(|h| (h.exchange.peer, h.exchange.completed_at))
            .collect();
        held.sort();
        assert_eq!(
            held,
            [(NodeId::new(1), 1), (NodeId::new(3), 7)],
            "each reply held to its own edge's t + ℓ"
        );
        // Seq 1 was due in round 1 and applies at the next round begun;
        // seq 3 waits for round 7.
        for (round, delivered) in [(3, 1), (6, 1), (7, 2)] {
            runner.begin_round(round).expect("round");
            assert_eq!(runner.metrics.delivered, delivered, "round {round}");
        }
    }

    #[test]
    fn loss_after_bye_is_a_departure_not_a_fault() {
        // Peer 1 says goodbye and its sockets then close behind it; peer
        // 2 just vanishes. Both are gone, only peer 2 is a loss.
        let g = generators::clique(3);
        let (mut runner, _) = delta_runner(&g, &[]);
        runner.start().expect("start");
        let lost = |peer: usize| {
            NetEvent::PeerLost(PeerLoss {
                peer: NodeId::new(peer),
                attempts: 3,
                error: "connection refused".to_owned(),
            })
        };
        runner.transport.inbox.extend([
            NetEvent::Frame {
                from: NodeId::new(1),
                frame: Frame::Bye,
            },
            lost(1),
            lost(2),
        ]);
        runner.begin_round(0).expect("round 0");
        assert_eq!(runner.peers_gone.len(), 2);
        assert_eq!(runner.losses.len(), 1, "{:?}", runner.losses);
        assert_eq!(runner.losses[0].peer, NodeId::new(2));
    }

    #[test]
    fn snapshot_peers_never_get_deltas_and_grow_no_cache() {
        // Peer 1 never advertised CAP_DELTA: even in delta mode every
        // frame toward it is a plain snapshot and no basis is retained.
        let g = generators::clique(3);
        let (mut runner, sent) = delta_runner(&g, &[(2, CAP_DELTA)]);
        runner.start().expect("start");
        runner.begin_round(0).expect("round 0");
        runner.launch(0).expect("launch 0");
        let (_, to, frame) = sent.borrow().last().expect("one frame").clone();
        assert_eq!(to, NodeId::new(1));
        let Frame::Request { seq, payload, .. } = frame else {
            panic!("expected a snapshot request, got {frame:?}");
        };
        let mut theirs = RumorSet::new(3);
        theirs.insert(NodeId::new(1));
        let mut bytes = Vec::new();
        theirs.encode_payload(&mut bytes);
        runner.transport.inbox.push_back(NetEvent::Frame {
            from: NodeId::new(1),
            frame: Frame::Reply {
                seq,
                round: 0,
                payload: bytes,
            },
        });
        runner.settle(0).expect("settle 0");
        assert!(
            runner.knowledge.get(0).is_none(),
            "no basis is cached for a snapshot-only peer"
        );
        let _ = RumorSet::decode_payload(&payload).expect("snapshot request decodes");
        assert_eq!(runner.accounting.delta_frames, 0);
        assert_eq!(runner.accounting.snapshot_frames, 1);
    }

    #[test]
    fn foreign_universe_payloads_are_protocol_violations() {
        // Well-formed bodies over nine ids at a three-node cluster: each
        // decodes cleanly, and `union_with` would panic on any of them.
        let g = generators::clique(3);
        let peer = NodeId::new(1);
        let foreign = RumorSet::singleton(9, NodeId::new(8));
        let (mut snapshot, mut delta) = (Vec::new(), Vec::new());
        foreign.encode_payload(&mut snapshot);
        assert!(foreign.encode_delta(None, &mut delta));
        let refused = |frame: Frame, launch_first: bool| {
            let (mut runner, _) = delta_runner(&g, &[(1, CAP_DELTA)]);
            runner.start().expect("start");
            if launch_first {
                runner.begin_round(0).expect("round 0");
                runner.launch(0).expect("launch 0");
            }
            runner
                .transport
                .inbox
                .push_back(NetEvent::Frame { from: peer, frame });
            let err = runner.settle(0).expect_err("foreign universe is refused");
            assert!(
                matches!(&err, NetError::ProtocolViolation(why) if why.contains("universe 9")),
                "unexpected error: {err}"
            );
            assert!(runner.hold.is_empty() && runner.deferred.is_empty());
        };
        let (seq, round) = (1, 0);
        refused(
            Frame::Request {
                seq,
                round,
                payload: snapshot.clone(),
            },
            false,
        );
        refused(
            Frame::RequestDelta {
                seq,
                round,
                basis_seq: 0,
                payload: delta,
            },
            false,
        );
        refused(
            Frame::Reply {
                seq,
                round,
                payload: snapshot,
            },
            true,
        );
    }

    #[test]
    fn unknown_basis_and_mode_mismatch_are_protocol_violations() {
        let g = generators::clique(3);
        let peer = NodeId::new(1);

        // A delta request referencing a basis we never recorded.
        let (mut runner, _) = delta_runner(&g, &[(1, CAP_DELTA)]);
        runner.start().expect("start");
        let mut delta = Vec::new();
        assert!(RumorSet::singleton(3, peer).encode_delta(None, &mut delta));
        runner.transport.inbox.push_back(NetEvent::Frame {
            from: peer,
            frame: Frame::RequestDelta {
                seq: 1,
                round: 0,
                basis_seq: 99,
                payload: delta.clone(),
            },
        });
        let err = runner.begin_round(0).expect_err("unknown basis is refused");
        assert!(
            err.to_string().contains("unknown basis"),
            "unexpected error: {err}"
        );

        // A delta frame at a node that never advertised CAP_DELTA.
        let node = NodeId::new(0);
        let transport = Scripted {
            node,
            caps: BTreeMap::new(),
            inbox: VecDeque::from([NetEvent::Frame {
                from: peer,
                frame: Frame::RequestDelta {
                    seq: 1,
                    round: 0,
                    basis_seq: 0,
                    payload: delta,
                },
            }]),
            sent: std::rc::Rc::default(),
        };
        let protocol = FirstNeighbor {
            rumors: RumorSet::singleton(3, node),
        };
        let cfg = SimConfig::default();
        let mut snapshot_runner = NetRunner::new(&g, node, protocol, &cfg, transport);
        let err = snapshot_runner
            .begin_round(0)
            .expect_err("delta frame at a snapshot-mode node is refused");
        assert!(
            err.to_string().contains("CAP_DELTA"),
            "unexpected error: {err}"
        );
    }
}

//! [`ShardRunner`]: the round driver that runs the protocol nodes of one
//! shard over a [`Transport`] on the engine's own per-node state
//! ([`NodeTable`]), plus [`run_loopback`], whose executions match the
//! simulator's exactly.
//!
//! A shard is a contiguous range of node ids hosted together: every
//! node of a loopback or drain-paced reactor run, the range of
//! `serve --nodes A..B`, or a single node. Its state is arrays indexed
//! by hosted slot and by *edge offset* — slot `s`'s adjacency row
//! occupies offsets `offsets[s]..offsets[s + 1]`, the prefix sums of
//! the hosted degrees.
//!
//! Each round runs the engine's phases over the whole shard:
//! [`begin_round`](ShardRunner::begin_round) ingests arrivals and
//! applies the round's due exchanges, the driver checks its stop
//! condition, [`launch`](ShardRunner::launch) steps the frontier and
//! sends the requests, and [`settle`](ShardRunner::settle) answers the
//! requests sent this round. Replies and request payloads wait on the
//! hold calendar for their due round `t + ℓ` — the only place it is
//! enforced: a transport may hand a frame over any time before.
//!
//! Metrics are counted at the initiator only — `initiated` at launch,
//! `delivered` and both directions of `payload_units` when the reply is
//! applied at `t + ℓ` — so summing them over a cluster reproduces the
//! engine's [`SimMetrics`].

use std::collections::{BTreeMap, VecDeque};
use std::ops::{Range, RangeBounds};

use gossip_sim::{
    CalendarQueue, Exchange, Launch, NodeTable, Outcome, Protocol, Round, SimConfig, SimMetrics,
    StopReason,
};
use latency_graph::{Graph, Latency, NodeId};

use crate::error::{NetError, PeerLoss};
use crate::loopback::LoopbackHub;
use crate::transport::{NetEvent, Transport, TransportStats};
use crate::wire::{Frame, WirePayload, CAP_DELTA, MAX_BODY};

/// Why a node of a [`ShardRunner::run_barrier`] run stopped.
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

/// What one node of a [`ShardRunner::run_barrier`] run produced.
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
pub struct RunView<'a> {
    graph: &'a Graph,
    node: NodeId,
    /// The shard's gone bits; `node`'s row starts at `offset`.
    gone: &'a [u64],
    offset: usize,
    /// Whether any neighbor of `node` is gone.
    any: bool,
}

impl RunView<'_> {
    /// Whether `v` is a neighbor that departed or was lost.
    pub fn is_gone(&self, v: NodeId) -> bool {
        self.any
            && self
                .graph
                .neighbor_index(self.node, v)
                .is_some_and(|nth| bit(self.gone, self.offset + nth))
    }
}

/// Bit `i` of a bitset.
fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// Sets bit `i`, returning whether it was clear.
fn set_bit(words: &mut [u64], i: usize) -> bool {
    let fresh = !bit(words, i);
    words[i / 64] |= 1 << (i % 64);
    fresh
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

/// One of our requests awaiting its reply.
struct PendingInit<Pl> {
    /// The initiating slot.
    slot: usize,
    peer: NodeId,
    /// `peer`'s position in the initiator's row: the reply finds the
    /// edge's records without a search.
    nth: usize,
    round: Round,
    /// The edge latency the launch carried: the reply is held to
    /// `round + latency` without searching the adjacency row again.
    latency: Round,
    weight: u64,
    /// The payload snapshot this request carried — retained in delta
    /// mode only, as the decode basis for a [`Frame::ReplyDelta`] and
    /// one half of the confirmed basis the reply completes.
    sent: Option<Pl>,
}

/// A decoded request on its way to the reply, with the requester's
/// adjacency position, found once at ingest.
struct Inbound<Pl> {
    from: NodeId,
    nth: usize,
    seq: u64,
    theirs: Pl,
}

/// An entry of the hold calendar, filed under the round it falls due.
enum Held<Pl> {
    /// An exchange `slot` applies at its due round (`completed_at`).
    Exchange {
        slot: usize,
        exchange: Exchange<Pl>,
        /// Our initiation: the request payload's weight, counted into
        /// `payload_units` beside the reply's (0 for exchanges we
        /// answered).
        weight: u64,
        /// Our initiation toward a delta peer: `(nth, seq, sent ∪
        /// theirs)`, the edge's confirmed basis from the due round on.
        confirm: Option<(usize, u64, Pl)>,
    },
    /// A request that arrived before its initiation round on our clock
    /// (possible over TCP when a peer's epoch leads ours), filed under
    /// that round: answered in its settle, after `slot`'s `on_round`,
    /// so the reply snapshot is taken from the state the engine would
    /// have snapshotted. Kept decoded — delta requests must resolve
    /// their basis in arrival order.
    Early { slot: usize, req: Inbound<Pl> },
}

impl<Pl> Held<Pl> {
    /// The due batch's order, `(initiated_at, initiator)` — the engine
    /// admits same-round initiations in node order — which puts every
    /// slot's own entries in the engine's per-node delivery order. No
    /// slot sees one key twice: a node initiates once per round.
    fn key(&self, base: usize) -> (Round, NodeId) {
        match self {
            Held::Exchange { slot, exchange, .. } => {
                let initiator = if exchange.initiated_by_me {
                    NodeId::new(base + slot)
                } else {
                    exchange.peer
                };
                (exchange.initiated_at, initiator)
            }
            // Every request of a batch was initiated in its round.
            Held::Early { req, .. } => (0, req.from),
        }
    }
}

/// Records per block of an [`EdgeBases`] arena.
const RECORD_BLOCK: usize = 1024;

/// Flag on an [`EdgeBases::rows`] entry: the edge has bases in the
/// spill. The other 31 bits are the arena index.
const SPILLED: u32 = 1 << 31;

/// One exchanged edge's newest basis: `(seq, basis)`, `None` only while
/// the record is on the arena's free list.
struct Record<Pl> {
    seq: u64,
    basis: Option<Pl>,
}

// A rumor-set basis is one pointer: a record is 16 bytes.
const _: () = assert!(std::mem::size_of::<Record<gossip_sim::RumorSet>>() == 16);

/// Where an edge's record is found: the hosting slot, the edge offset
/// its row starts at, and the edge's own offset (see
/// [`ShardRunner::offsets`]).
#[derive(Clone, Copy)]
struct EdgeAt {
    slot: usize,
    row: usize,
    edge: usize,
}

/// Delta mode's knowledge of one role, per directed edge: what this node
/// and one peer provably both hold. The runner keeps two —
/// [`ShardRunner::confirmed`] and [`ShardRunner::answered`] — and builds
/// both empty in snapshot mode, where they never allocate.
///
/// An edge costs one bit until the role first exchanges over it; then
/// it gets a 16-byte [`Record`] in an arena of fixed blocks of
/// [`RECORD_BLOCK`], which never move or grow by copying, and a `u32`
/// arena index in its slot's row list, at the edge's rank among the
/// row's recorded edges. A basis its record no longer holds waits in
/// one shard-wide ordered spill until a reference prunes it. Invalidated
/// per edge on peer loss — a stale or missing basis only costs bytes
/// (the snapshot fallback), never rumors.
struct EdgeBases<Pl> {
    /// One bit per hosted edge: whether it has a record.
    recorded: Vec<u64>,
    /// Per slot, the arena indices of its recorded edges in row order,
    /// each tagged [`SPILLED`] while the edge has spilled bases: most
    /// never do, and never touch the spill.
    rows: Vec<Vec<u32>>,
    /// The arena: record `i` is `blocks[i / RECORD_BLOCK][i % RECORD_BLOCK]`,
    /// and every block but the last is full.
    blocks: Vec<Vec<Record<Pl>>>,
    /// Arena indices whose edge was cleared, reused first.
    free: Vec<u32>,
    /// Bases pushed out of their edge's record, by `(edge, seq)`.
    spill: BTreeMap<(usize, u64), Pl>,
}

/// The arena index an [`EdgeBases::rows`] or [`EdgeBases::free`] entry
/// names.
fn arena_index(entry: u32) -> usize {
    usize::try_from(entry & !SPILLED).expect("arena index fits usize")
}

/// Set bits of `words` at positions `from..to`.
fn ones_in(words: &[u64], from: usize, to: usize) -> usize {
    if from >= to {
        return 0;
    }
    let (first, last) = (from / 64, (to - 1) / 64);
    let head = u64::MAX << (from % 64);
    let tail = u64::MAX >> (63 - (to - 1) % 64);
    let ones = if first == last {
        (words[first] & head & tail).count_ones()
    } else {
        words[first + 1..last]
            .iter()
            .map(|w| w.count_ones())
            .sum::<u32>()
            + (words[first] & head).count_ones()
            + (words[last] & tail).count_ones()
    };
    usize::try_from(ones).expect("count fits usize")
}

impl<Pl> EdgeBases<Pl> {
    /// The store of a shard of `slots` slots and `edges` hosted edges;
    /// `EdgeBases::new(0, 0)` is the empty store of snapshot mode.
    fn new(slots: usize, edges: usize) -> Self {
        EdgeBases {
            recorded: vec![0; edges.div_ceil(64)],
            rows: (0..slots).map(|_| Vec::new()).collect(),
            blocks: Vec::new(),
            free: Vec::new(),
            spill: BTreeMap::new(),
        }
    }

    /// Whether `at` has a record, and if so its position in its row list.
    fn rank(&self, at: EdgeAt) -> Option<usize> {
        let word = *self.recorded.get(at.edge / 64)?;
        (word >> (at.edge % 64) & 1 == 1).then(|| ones_in(&self.recorded, at.row, at.edge))
    }

    /// `at`'s row-list entry, if it has a record.
    fn entry(&self, at: EdgeAt) -> Option<u32> {
        let rank = self.rank(at)?;
        Some(self.rows[at.slot][rank])
    }

    /// The record a row-list or free-list entry names.
    fn record(&self, entry: u32) -> &Record<Pl> {
        let i = arena_index(entry);
        &self.blocks[i / RECORD_BLOCK][i % RECORD_BLOCK]
    }

    fn record_mut(&mut self, entry: u32) -> &mut Record<Pl> {
        let i = arena_index(entry);
        &mut self.blocks[i / RECORD_BLOCK][i % RECORD_BLOCK]
    }

    /// `at`'s record: its newest basis.
    fn get(&self, at: EdgeAt) -> Option<(u64, &Pl)> {
        let record = self.record(self.entry(at)?);
        let basis = record.basis.as_ref().expect("a recorded edge has a basis");
        Some((record.seq, basis))
    }

    /// Makes `(seq, basis)` `at`'s record and returns the one it replaces.
    fn set(&mut self, at: EdgeAt, seq: u64, basis: Pl) -> Option<(u64, Pl)> {
        self.set_if(at, seq, basis, |_| true)
    }

    /// Makes `(seq, basis)` `at`'s record unless it holds a basis as new.
    fn raise(&mut self, at: EdgeAt, seq: u64, basis: Pl) {
        self.set_if(at, seq, basis, |old| old < seq);
    }

    /// [`set`](Self::set) where `at` has no record or `replace` accepts
    /// its seq; one lookup either way.
    fn set_if(
        &mut self,
        at: EdgeAt,
        seq: u64,
        basis: Pl,
        replace: impl FnOnce(u64) -> bool,
    ) -> Option<(u64, Pl)> {
        let record = Record {
            seq,
            basis: Some(basis),
        };
        if let Some(entry) = self.entry(at) {
            let current = self.record_mut(entry);
            if !replace(current.seq) {
                return None;
            }
            let old = std::mem::replace(current, record);
            return old.basis.map(|b| (old.seq, b));
        }
        let i = match self.free.pop() {
            Some(free) => {
                *self.record_mut(free) = record;
                arena_index(free)
            }
            None => {
                if self.blocks.last().is_none_or(|b| b.len() == RECORD_BLOCK) {
                    self.blocks.push(Vec::with_capacity(RECORD_BLOCK));
                }
                let i = (self.blocks.len() - 1) * RECORD_BLOCK;
                let last = self.blocks.last_mut().expect("a block with room");
                last.push(record);
                i + last.len() - 1
            }
        };
        let index = u32::try_from(i)
            .ok()
            .filter(|&i| i < SPILLED)
            .expect("record count fits 31 bits");
        self.recorded[at.edge / 64] |= 1 << (at.edge % 64);
        let rank = ones_in(&self.recorded, at.row, at.edge);
        self.rows[at.slot].insert(rank, index);
        None
    }

    /// Sets or clears the [`SPILLED`] flag of `at`, which has a record.
    fn mark_spilled(&mut self, at: EdgeAt, spilled: bool) {
        let rank = self.rank(at).expect("a spilled edge has a record");
        let entry = &mut self.rows[at.slot][rank];
        *entry = if spilled {
            *entry | SPILLED
        } else {
            *entry & !SPILLED
        };
    }

    /// Makes `(seq, basis)` `at`'s record, spilling the basis it replaces.
    fn push(&mut self, at: EdgeAt, seq: u64, basis: Pl) {
        if let Some((old, spilled)) = self.set(at, seq, basis) {
            self.spill.insert((at.edge, old), spilled);
            self.mark_spilled(at, true);
        }
    }

    /// `at`'s basis `seq`, inline or spilled.
    fn find(&self, at: EdgeAt, seq: u64) -> Option<&Pl> {
        let entry = self.entry(at)?;
        let record = self.record(entry);
        if record.seq == seq {
            record.basis.as_ref()
        } else if entry & SPILLED != 0 {
            self.spill.get(&(at.edge, seq))
        } else {
            None
        }
    }

    /// Drops every basis of `at` older than `seq`; the newest spilled
    /// survivor, if any, takes the place of a dropped record.
    fn retain_from(&mut self, at: EdgeAt, seq: u64) {
        let Some(entry) = self.entry(at) else {
            return;
        };
        let mut newest = self.record(entry).seq;
        if entry & SPILLED != 0 {
            self.drop_spilled((at.edge, 0)..(at.edge, seq));
            let mut spilled = self.spill.range((at.edge, seq)..=(at.edge, u64::MAX));
            let survivor = spilled.next_back().map(|(&key, _)| key);
            let more = spilled.next().is_some();
            match survivor {
                Some(key) if newest < seq => {
                    let basis = self.spill.remove(&key).expect("a spilled survivor");
                    self.set(at, key.1, basis);
                    newest = key.1;
                    self.mark_spilled(at, more);
                }
                Some(_) => {}
                None => self.mark_spilled(at, false),
            }
        }
        if newest < seq {
            self.clear(at);
        }
    }

    /// Drops the spilled bases whose `(edge, seq)` keys fall in `keys`.
    fn drop_spilled(&mut self, keys: impl RangeBounds<(usize, u64)>) {
        let dead: Vec<(usize, u64)> = self.spill.range(keys).map(|(&key, _)| key).collect();
        for key in dead {
            self.spill.remove(&key);
        }
    }

    /// Forgets every basis of `at`.
    fn clear(&mut self, at: EdgeAt) {
        let Some(rank) = self.rank(at) else {
            return;
        };
        let entry = self.rows[at.slot].remove(rank);
        if entry & SPILLED != 0 {
            self.drop_spilled((at.edge, 0)..=(at.edge, u64::MAX));
        }
        self.record_mut(entry).basis = None;
        self.free.push(entry & !SPILLED);
        self.recorded[at.edge / 64] &= !(1 << (at.edge % 64));
    }

    /// The store's heap bytes, from its buffers' capacities; the spill
    /// counts its entries' bytes but not its tree nodes.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.recorded.capacity() * size_of::<u64>()
            + self.rows.capacity() * size_of::<Vec<u32>>()
            + self
                .rows
                .iter()
                .map(|r| r.capacity() * size_of::<u32>())
                .sum::<usize>()
            + self.blocks.capacity() * size_of::<Vec<Record<Pl>>>()
            + self
                .blocks
                .iter()
                .map(|b| b.capacity() * size_of::<Record<Pl>>())
                .sum::<usize>()
            + self.free.capacity() * size_of::<u32>()
            + self.spill.len() * size_of::<((usize, u64), Pl)>()
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

/// The payload buffer of an exchange frame: handed back after `send`
/// so the next [`encode_for_wire`] reuses its allocation, and to the
/// transport after ingest ([`Transport::recycle`]).
fn into_payload(frame: Frame) -> Vec<u8> {
    match frame {
        Frame::Request { payload, .. }
        | Frame::Reply { payload, .. }
        | Frame::RequestDelta { payload, .. }
        | Frame::ReplyDelta { payload, .. } => payload,
        Frame::Hello { .. } | Frame::Done { .. } | Frame::Bye | Frame::Routed { .. } => Vec::new(),
    }
}

/// Drives the protocol nodes of one shard over a [`Transport`],
/// enforcing the paper's pacing contract: at most one initiation per
/// node per round, exchanges applied at exactly `t + ℓ`, payload
/// snapshots taken at `t`. Every exchange goes through the wire codec,
/// even between two nodes of the shard.
pub struct ShardRunner<'g, P: Protocol, T: Transport> {
    graph: &'g Graph,
    /// The engine's per-node state for the hosted nodes.
    table: NodeTable<'g, P>,
    transport: T,
    max_rounds: Round,
    /// Payload encoding mode, normalized to [`PayloadMode::Snapshot`]
    /// for payload types with no delta form.
    mode: PayloadMode,
    /// The hosted node ids; slot `s` is node `shard.start + s`.
    shard: Range<usize>,
    /// Edge offsets: slot `s`'s row is `offsets[s]..offsets[s + 1]`.
    offsets: Vec<usize>,
    /// Each slot's payload id universe ([`check_universe`](Self::check_universe)).
    universe: Vec<Option<usize>>,
    /// Received exchanges and early requests, filed under the round
    /// they fall due. Every round is collected, in order.
    hold: CalendarQueue<Held<P::Payload>>,
    /// The earliest round the hold has not collected yet.
    next_due: Round,
    /// The due batch, reused every round.
    due: Vec<Held<P::Payload>>,
    /// Early requests of the current round, answered in its settle.
    early: Vec<(usize, Inbound<P::Payload>)>,
    /// Reused buffers: the transport's [`poll`](Transport::poll)
    /// target, and this round's initiations.
    inbox: Vec<NetEvent>,
    launches: Vec<Launch>,
    /// The payload bytes of the frame being built, recovered from the
    /// frame after every send ([`into_payload`]).
    scratch: Vec<u8>,
    /// Our requests by seq: entry `i` is seq `pending_base + i`, `None`
    /// once answered or written off (and trimmed off the front). Seqs
    /// are shard-wide, hence rising on every directed edge and reactor
    /// link, as delta bases and the reactor's replay mark require.
    pending: VecDeque<Option<PendingInit<P::Payload>>>,
    /// Seq of `pending`'s front entry (seqs start at 1: `basis_seq` 0
    /// names the empty basis).
    pending_base: u64,
    /// Delta mode's initiator-side knowledge: per edge, the basis of
    /// the newest *completed* exchange we initiated, `(our request seq,
    /// our payload ∪ theirs)`. Our next [`Frame::RequestDelta`] toward
    /// the peer references it by `basis_seq`.
    confirmed: EdgeBases<P::Payload>,
    /// Delta mode's responder-side knowledge: per edge, the bases of
    /// exchanges we *answered*, `(the peer's request seq, basis)`; the
    /// peer's next delta request references one. Pruned to `≥
    /// basis_seq` whenever a request references a basis — references
    /// are monotone because `confirmed` keeps the max seq — so an edge
    /// holds the one or two exchanges since the peer's last reference.
    answered: EdgeBases<P::Payload>,
    /// Edges whose neighbor announced done, one bit per edge offset.
    done: Vec<u64>,
    /// Edges whose neighbor departed or was lost.
    gone: Vec<u64>,
    /// Per slot: neighbors done or gone, and neighbors gone.
    settled: Vec<usize>,
    gone_count: Vec<usize>,
    /// Per slot: whether it announced [`Frame::Done`], and whether it
    /// stopped — why, when, and its transport counters then. A stopped
    /// node is no longer stepped, and its frames are dropped.
    announced: Vec<bool>,
    stopped: Vec<Option<(NodeStopReason, Round, TransportStats)>>,
    metrics: Vec<SimMetrics>,
    accounting: Vec<WireAccounting>,
    losses: Vec<Vec<PeerLoss>>,
}

impl<'g, P, T> ShardRunner<'g, P, T>
where
    P: Protocol,
    P::Payload: WirePayload,
    T: Transport,
{
    /// Creates the runner of the nodes in `shard`, built by
    /// `factory(id, n)` and seeded as the engine seeds them, on
    /// `transport`, which must serve exactly these nodes; advertises
    /// the payload type's and `mode`'s capability bits. A payload type
    /// with no delta form stays in snapshot mode.
    ///
    /// # Panics
    ///
    /// Panics if `config` asks for [`SimConfig::blocking`] or a
    /// [`SimConfig::connection_cap`]: both need a global view of every
    /// exchange in flight, which a distributed runtime does not have,
    /// and ignoring them would silently run a different model.
    pub fn new<F>(
        graph: &'g Graph,
        shard: Range<usize>,
        config: &SimConfig,
        mode: PayloadMode,
        factory: F,
        mut transport: T,
    ) -> Self
    where
        F: FnMut(NodeId, usize) -> P,
    {
        assert!(!config.blocking, "the net runtime has no blocking model");
        assert!(
            config.connection_cap.is_none(),
            "the net runtime has no connection cap"
        );
        let table = NodeTable::new(graph, config, shard.clone(), factory, |_| true);
        let delta = mode == PayloadMode::Delta && P::Payload::supports_delta();
        transport.set_caps(if delta { CAP_DELTA } else { 0 });
        let mut offsets = Vec::with_capacity(shard.len() + 1);
        offsets.push(0);
        for i in shard.clone() {
            offsets.push(offsets[offsets.len() - 1] + graph.degree(NodeId::new(i)));
        }
        let n = shard.len();
        let words = offsets[n].div_ceil(64);
        let l_max = graph.max_latency().map_or(0, Latency::rounds);
        let (store_slots, store_edges) = if delta { (n, offsets[n]) } else { (0, 0) };
        ShardRunner {
            graph,
            universe: table
                .nodes()
                .iter()
                .map(|p| p.payload().wire_universe())
                .collect(),
            table,
            transport,
            max_rounds: config.max_rounds,
            mode: if delta {
                PayloadMode::Delta
            } else {
                PayloadMode::Snapshot
            },
            shard,
            hold: CalendarQueue::new(l_max),
            next_due: 0,
            due: Vec::new(),
            early: Vec::new(),
            inbox: Vec::new(),
            launches: Vec::new(),
            scratch: Vec::new(),
            pending: VecDeque::new(),
            pending_base: 1,
            confirmed: EdgeBases::new(store_slots, store_edges),
            answered: EdgeBases::new(store_slots, store_edges),
            offsets,
            done: vec![0; words],
            gone: vec![0; words],
            settled: vec![0; n],
            gone_count: vec![0; n],
            announced: vec![false; n],
            stopped: vec![None; n],
            metrics: vec![SimMetrics::default(); n],
            accounting: vec![WireAccounting::default(); n],
            losses: vec![Vec::new(); n],
        }
    }

    /// Brings the transport up (blocking on its start barrier).
    pub fn start(&mut self) -> Result<(), NetError> {
        self.transport.start()
    }

    /// Phase 1: poll the transport (blocking until `round` begins on its
    /// clock), ingest everything, then apply the exchanges due.
    pub fn begin_round(&mut self, round: Round) -> Result<(), NetError> {
        self.poll_and_ingest(round)?;
        self.deliver_due(round);
        Ok(())
    }

    /// Phases 3 and 4: the table's `on_round` step over the live
    /// frontier, then this round's requests.
    pub fn launch(&mut self, round: Round) -> Result<(), NetError> {
        let mut launches = std::mem::take(&mut self.launches);
        let (stopped, base) = (&self.stopped, self.shard.start);
        self.table.step(
            round,
            |v| stopped[v.index() - base].is_none(),
            &mut launches,
        );
        let sent = launches.iter().try_for_each(|&(slot, peer, nth, latency)| {
            self.send_request(round, slot, peer, nth, latency)
        });
        launches.clear();
        self.launches = launches;
        self.table.end_round(round);
        sent
    }

    /// Phase 4b: answers the round's early requests, then a second,
    /// non-blocking poll of the same round, so requests initiated this
    /// round are answered this round (after every node's `on_round` —
    /// which is when the engine snapshots responders).
    pub fn settle(&mut self, round: Round) -> Result<(), NetError> {
        for (slot, req) in std::mem::take(&mut self.early) {
            if self.stopped[slot].is_none() {
                self.answer_request(round, slot, req)?;
            }
        }
        self.poll_and_ingest(round)
    }

    fn send_request(
        &mut self,
        round: Round,
        slot: usize,
        peer: NodeId,
        nth: usize,
        latency: Latency,
    ) -> Result<(), NetError> {
        self.metrics[slot].initiated += 1;
        let edge = self.offsets[slot] + nth;
        if bit(&self.gone, edge) {
            // The engine counts initiations toward crashed peers as
            // lost; a departed or unreachable TCP peer is the same.
            self.metrics[slot].lost += 1;
            return Ok(());
        }
        let payload = self.table.nodes()[slot].payload();
        let weight = P::payload_weight(&payload);
        let basis = self.confirmed.get(self.edge_at(slot, nth));
        let mut bytes = std::mem::take(&mut self.scratch);
        let delta_basis = encode_for_wire(
            &mut self.accounting[slot],
            self.mode,
            self.transport.peer_caps(peer),
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
            slot,
            peer,
            nth,
            round,
            latency: latency.rounds(),
            weight,
            sent: (self.mode == PayloadMode::Delta).then_some(payload),
        }));
        let sent = self
            .transport
            .send(self.table.id(slot), round, peer, nth, &frame);
        self.scratch = into_payload(frame);
        sent
    }

    /// Polls the transport into the reused inbox and ingests it.
    fn poll_and_ingest(&mut self, now: Round) -> Result<(), NetError> {
        let mut inbox = std::mem::take(&mut self.inbox);
        let result = self
            .transport
            .poll(now, &mut inbox)
            .and_then(|()| self.ingest(now, &mut inbox));
        inbox.clear();
        self.inbox = inbox;
        result
    }

    fn ingest(&mut self, now: Round, events: &mut Vec<NetEvent>) -> Result<(), NetError> {
        for event in events.drain(..) {
            match event {
                NetEvent::Frame { from, to, frame } => {
                    let ingested = self
                        .slot_of(to)
                        .and_then(|slot| self.ingest_frame(now, slot, from, &frame));
                    // Decoded or refused, the payload bytes are spent.
                    self.transport.recycle(into_payload(frame));
                    ingested?;
                }
                NetEvent::PeerLost { to, loss } => {
                    let slot = self.slot_of(to)?;
                    let nth = self.position_of(slot, loss.peer)?;
                    // A peer that already said `Bye` departed; its
                    // sockets closing behind it are not a fault.
                    if self.stopped[slot].is_none() && self.mark_gone(slot, nth, loss.peer) {
                        self.losses[slot].push(loss);
                    }
                }
            }
        }
        Ok(())
    }

    /// The edge to the neighbor at `nth` of `slot`'s row.
    fn edge_at(&self, slot: usize, nth: usize) -> EdgeAt {
        let row = self.offsets[slot];
        EdgeAt {
            slot,
            row,
            edge: row + nth,
        }
    }

    /// Hosted node `v`'s slot.
    fn slot_of(&self, v: NodeId) -> Result<usize, NetError> {
        v.index()
            .checked_sub(self.shard.start)
            .filter(|&slot| slot < self.shard.len())
            .ok_or_else(|| {
                NetError::ProtocolViolation(format!(
                    "frame for node {}, which this shard does not host",
                    v.index()
                ))
            })
    }

    /// `from`'s position in slot `slot`'s adjacency row: the one search
    /// an answered exchange does (see [`Inbound`]).
    fn position_of(&self, slot: usize, from: NodeId) -> Result<usize, NetError> {
        self.graph
            .neighbor_index(self.table.id(slot), from)
            .ok_or(NetError::UnknownPeer(from))
    }

    /// Requests are answered as they come — or filed until our clock
    /// reaches their initiation round: the transport delivers each at
    /// most once (see [`Transport`]), so no seq is checked here. A
    /// stopped node's frames are dropped.
    fn ingest_frame(
        &mut self,
        now: Round,
        slot: usize,
        from: NodeId,
        frame: &Frame,
    ) -> Result<(), NetError> {
        let delta = matches!(frame, Frame::RequestDelta { .. } | Frame::ReplyDelta { .. });
        if delta && self.mode != PayloadMode::Delta {
            return Err(NetError::ProtocolViolation(format!(
                "delta frame from node {}, but this node never advertised CAP_DELTA",
                from.index()
            )));
        }
        if self.stopped[slot].is_some() {
            return Ok(());
        }
        match *frame {
            Frame::Request {
                seq,
                round,
                ref payload,
            }
            | Frame::RequestDelta {
                seq,
                round,
                ref payload,
                ..
            } => {
                let nth = self.position_of(slot, from)?;
                // The or-pattern leaves `Request` for the `else`.
                let theirs = if let Frame::RequestDelta { basis_seq, .. } = *frame {
                    let at = self.edge_at(slot, nth);
                    let basis = match basis_seq {
                        0 => None,
                        b => Some(self.answered.find(at, b).ok_or_else(|| {
                            NetError::ProtocolViolation(format!(
                                "request {seq} from node {} references unknown basis {b}",
                                from.index()
                            ))
                        })?),
                    };
                    let theirs = P::Payload::decode_delta(payload, basis)?;
                    if basis_seq != 0 {
                        // References are monotone (see `answered`), so
                        // older bases are dead weight.
                        self.answered.retain_from(at, basis_seq);
                    }
                    theirs
                } else {
                    P::Payload::decode_payload(payload)?
                };
                self.check_universe(slot, from, &theirs)?;
                let req = Inbound {
                    from,
                    nth,
                    seq,
                    theirs,
                };
                if round > now {
                    self.file(round, Held::Early { slot, req });
                    return Ok(());
                }
                self.answer_request(round, slot, req)
            }
            Frame::Reply {
                seq,
                round,
                ref payload,
            } => self.accept_reply(slot, from, seq, round, payload, None),
            Frame::ReplyDelta {
                seq,
                round,
                basis_seq,
                ref payload,
            } => self.accept_reply(slot, from, seq, round, payload, Some(basis_seq)),
            Frame::Done { .. } => {
                let edge = self.offsets[slot] + self.position_of(slot, from)?;
                if set_bit(&mut self.done, edge) {
                    self.settled[slot] += usize::from(!bit(&self.gone, edge));
                }
                Ok(())
            }
            Frame::Bye => {
                // A graceful departure: its replies came FIFO ahead of
                // this Bye, and it answers nothing more, so what is
                // still pending toward it is dropped, not lost.
                let nth = self.position_of(slot, from)?;
                self.set_gone(slot, nth);
                self.drop_pending(slot, Some(from));
                Ok(())
            }
            Frame::Hello { .. } => Err(NetError::ProtocolViolation(format!(
                "mid-stream handshake from node {}",
                from.index()
            ))),
            Frame::Routed { .. } => Err(NetError::ProtocolViolation(format!(
                "unwrapped routed envelope from node {} reached the runner",
                from.index()
            ))),
        }
    }

    /// Refuses a decoded payload over a different id universe than the
    /// receiving node's own. A codec can only validate a body against
    /// the universe the body declares; protocols merge payloads into
    /// their state, and merging across universes is a panic, not an
    /// error — so the frame stops here, as the peer's violation.
    fn check_universe(
        &self,
        slot: usize,
        from: NodeId,
        theirs: &P::Payload,
    ) -> Result<(), NetError> {
        let Some(got) = theirs.wire_universe() else {
            return Ok(());
        };
        match self.universe[slot] {
            Some(want) if want != got => Err(NetError::ProtocolViolation(format!(
                "payload from node {} ranges over universe {got}, this node's over {want}",
                from.index()
            ))),
            _ => Ok(()),
        }
    }

    /// Files `entry` on the hold under round `at`, or under the next
    /// round to be collected if `at` has passed (a late wall-paced
    /// arrival).
    fn file(&mut self, at: Round, entry: Held<P::Payload>) {
        let at = at.max(self.next_due);
        self.hold.schedule(self.next_due, at - self.next_due, entry);
    }

    /// A peer initiated toward `slot` at round `t`: snapshot its payload
    /// *now* (its state equals what it was after `t`'s `on_round`, which
    /// is when the engine snapshots responders), reply, and hold the
    /// peer's payload until the exchange's due round.
    fn answer_request(
        &mut self,
        t: Round,
        slot: usize,
        req: Inbound<P::Payload>,
    ) -> Result<(), NetError> {
        let Inbound {
            from,
            nth,
            seq,
            theirs,
        } = req;
        let me = self.table.id(slot);
        let due = t + self.graph.neighbor_latencies(me)[nth].rounds();
        let caps = self.transport.peer_caps(from);
        let mine = self.table.nodes()[slot].payload();
        let mut bytes = std::mem::take(&mut self.scratch);
        let delta_basis = encode_for_wire(
            &mut self.accounting[slot],
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
        let sent = self.transport.send(me, due, from, nth, &frame);
        self.scratch = into_payload(frame);
        sent?;
        if self.mode == PayloadMode::Delta && caps & CAP_DELTA != 0 {
            if let Some(merged) = mine.merge_basis(&theirs) {
                self.answered.push(self.edge_at(slot, nth), seq, merged);
            }
        }
        self.file(
            due,
            Held::Exchange {
                slot,
                exchange: Exchange {
                    peer: from,
                    payload: theirs,
                    initiated_at: t,
                    completed_at: due,
                    initiated_by_me: false,
                },
                weight: 0,
                confirm: None,
            },
        );
        Ok(())
    }

    /// Our own initiation came back: hold the peer's payload until the
    /// due round, with what completing the exchange counts and confirms
    /// then.
    fn accept_reply(
        &mut self,
        slot: usize,
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
        if pend.slot != slot || pend.peer != from || pend.round != t {
            return Err(NetError::ProtocolViolation(format!(
                "reply {seq} does not match its request (peer {}, round {t})",
                from.index()
            )));
        }
        let due = t + pend.latency;
        // A delta reply's basis is the empty one or our request's own
        // payload, which delta mode retains.
        let theirs = match basis_seq {
            None => P::Payload::decode_payload(payload)?,
            Some(0) => P::Payload::decode_delta(payload, None)?,
            Some(b) if b == seq => P::Payload::decode_delta(payload, pend.sent.as_ref())?,
            Some(b) => {
                return Err(NetError::ProtocolViolation(format!(
                    "reply {seq} references unknown basis {b}"
                )));
            }
        };
        self.check_universe(slot, from, &theirs)?;
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
        self.file(
            due,
            Held::Exchange {
                slot,
                exchange: Exchange {
                    peer: from,
                    payload: theirs,
                    initiated_at: t,
                    completed_at: due,
                    initiated_by_me: true,
                },
                weight: pend.weight,
                confirm,
            },
        );
        Ok(())
    }

    /// Applies the round's due batch — every hold entry filed under a
    /// round up to `round` — in the engine's per-node delivery order.
    /// Our own initiations count their delivery (both payload
    /// directions, initiator-side) and confirm their basis here; early
    /// requests wait for this round's settle.
    fn deliver_due(&mut self, round: Round) {
        let mut due = std::mem::take(&mut self.due);
        while self.next_due <= round {
            self.hold.collect_due(self.next_due, &mut due);
            self.next_due += 1;
        }
        // Filed in send order, the batch is a few runs already sorted by
        // initiator, which a stable sort merges in linear time.
        let base = self.shard.start;
        due.sort_by_key(|h| h.key(base));
        let mut had_due = false;
        for held in due.drain(..) {
            match held {
                Held::Early { slot, req } => self.early.push((slot, req)),
                Held::Exchange { slot, .. } if self.stopped[slot].is_some() => {}
                Held::Exchange {
                    slot,
                    exchange,
                    weight,
                    confirm,
                } => {
                    had_due = true;
                    if exchange.initiated_by_me {
                        let m = &mut self.metrics[slot];
                        m.delivered += 1;
                        m.payload_units += weight + P::payload_weight(&exchange.payload);
                    }
                    if let Some((nth, seq, basis)) = confirm {
                        // A lost peer's bases died with the connection.
                        let at = self.edge_at(slot, nth);
                        if !bit(&self.gone, at.edge) {
                            self.confirmed.raise(at, seq, basis);
                        }
                    }
                    self.table.deliver(slot, round, &exchange);
                }
            }
        }
        self.due = due;
        self.table.settle_frontier(round, had_due);
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

    /// Marks the neighbor at `nth` of `slot`'s row departed or lost;
    /// returns whether it was still live.
    fn set_gone(&mut self, slot: usize, nth: usize) -> bool {
        let edge = self.offsets[slot] + nth;
        let fresh = set_bit(&mut self.gone, edge);
        if fresh {
            self.gone_count[slot] += 1;
            self.settled[slot] += usize::from(!bit(&self.done, edge));
        }
        fresh
    }

    /// The neighbor at `nth` of `slot`'s row, `peer`, was lost; returns
    /// whether it was still live (had not departed).
    fn mark_gone(&mut self, slot: usize, nth: usize, peer: NodeId) -> bool {
        let fresh = self.set_gone(slot, nth);
        // Any shared bases died with the connection: a peer that comes
        // back (or a late frame) must renegotiate from full snapshots.
        let at = self.edge_at(slot, nth);
        self.confirmed.clear(at);
        self.answered.clear(at);
        // Initiations in flight toward the departed peer will never be
        // answered: count them lost, as the engine does for crashes.
        self.metrics[slot].lost += self.drop_pending(slot, Some(peer));
        fresh
    }

    /// Clears `slot`'s requests in flight (toward `peer` only, if
    /// given) and returns how many: in the shard-wide ring, one no reply
    /// settles would hold every later request until the run ends.
    fn drop_pending(&mut self, slot: usize, peer: Option<NodeId>) -> u64 {
        let mut dropped = 0;
        for entry in &mut self.pending {
            if entry
                .as_ref()
                .is_some_and(|p| p.slot == slot && peer.is_none_or(|q| p.peer == q))
            {
                *entry = None;
                dropped += 1;
            }
        }
        self.trim_pending();
        dropped
    }

    /// Stops `slot`: a best-effort [`Frame::Bye`] (a peer that cannot be
    /// reached is already accounted for), and no more requests in flight.
    fn stop(&mut self, slot: usize, reason: NodeStopReason, round: Round) {
        let _ = self.send_to_live(slot, round, &Frame::Bye);
        let stats = self.transport.stats(self.table.id(slot));
        self.stopped[slot] = Some((reason, round, stats));
        self.drop_pending(slot, None);
    }

    /// Sends `frame` from `slot` to every neighbor not departed or lost,
    /// stopping at the first error.
    fn send_to_live(&mut self, slot: usize, round: Round, frame: &Frame) -> Result<(), NetError> {
        let me = self.table.id(slot);
        let offset = self.offsets[slot];
        for (nth, &peer) in self.graph.neighbor_ids(me).iter().enumerate() {
            if !bit(&self.gone, offset + nth) {
                self.transport.send(me, round, peer, nth, frame)?;
            }
        }
        Ok(())
    }

    /// Runs the lockstep loop, `Simulator::run`'s shape — stop closure
    /// and all-done check on event rounds, the round cap every round —
    /// and returns the simulator-shaped [`Outcome`] with the shard-wide
    /// transport and payload totals.
    ///
    /// # Panics
    ///
    /// Panics on any transport error: every node lives in this process,
    /// so a failure is a bug or an environment limit (socket
    /// exhaustion), not a recoverable protocol condition.
    pub fn run_until<S>(mut self, mut stop: S) -> (Outcome<P>, TransportStats, WireAccounting)
    where
        S: FnMut(&[&P], Round) -> bool,
    {
        fn ok(step: Result<(), NetError>) {
            step.unwrap_or_else(|e| panic!("lockstep cluster transport failed: {e}"));
        }
        ok(self.start());
        let mut round: Round = 0;
        let reason = loop {
            ok(self.begin_round(round));
            if self.table.is_event_round() {
                let protocols: Vec<&P> = self.table.nodes().iter().collect();
                if stop(&protocols, round) {
                    break StopReason::Condition;
                }
                if self.table.all_done() {
                    break StopReason::AllDone;
                }
            }
            if round >= self.max_rounds {
                break StopReason::MaxRounds;
            }
            ok(self.launch(round));
            ok(self.settle(round));
            round += 1;
        };
        self.transport.shutdown();
        let mut metrics = SimMetrics::default();
        let mut totals = TransportStats::default();
        let mut wire = WireAccounting::default();
        for slot in 0..self.shard.len() {
            metrics.absorb(&self.metrics[slot]);
            totals.absorb(&self.transport.stats(self.table.id(slot)));
            wire.absorb(&self.accounting[slot]);
        }
        let stats = self.table.stats();
        let outcome = Outcome {
            reason,
            rounds: round,
            metrics,
            stats,
            nodes: self.table.into_nodes(),
        };
        (outcome, totals, wire)
    }

    /// Runs the barrier loop for distributed transports (TCP) until
    /// every hosted node has stopped — at the done barrier, the round
    /// cap, or isolation — and returns their outcomes in slot order.
    ///
    /// `done` is a node's *local* done predicate (typically the goal
    /// over its rumor set, restricted to the surviving component via
    /// the [`RunView`]). Once it holds, the node announces
    /// [`Frame::Done`] and keeps serving its neighbors until each has
    /// announced done too or departed; then it says [`Frame::Bye`] and
    /// stops. That is sound for monotone, neighbor-mediated goals.
    /// The start barrier, every poll and the round count are bounded.
    ///
    /// # Errors
    ///
    /// Any error (start timeout, protocol violation, transport I/O
    /// failure) aborts the whole shard.
    pub fn run_barrier<D>(mut self, done: D) -> Result<Vec<NodeOutcome<P>>, NetError>
    where
        D: Fn(&P, &RunView<'_>) -> bool,
    {
        self.start()?;
        let mut live = self.shard.len();
        let mut round: Round = 0;
        while live > 0 {
            self.begin_round(round)?;
            for slot in 0..self.shard.len() {
                if self.stopped[slot].is_some() {
                    continue;
                }
                if let Some(reason) = self.barrier_check(slot, round, &done)? {
                    self.stop(slot, reason, round);
                    live -= 1;
                }
            }
            if live > 0 {
                self.launch(round)?;
                self.settle(round)?;
                round += 1;
            }
        }
        self.transport.shutdown();
        let stopped = std::mem::take(&mut self.stopped);
        let outcomes = stopped
            .into_iter()
            .zip(self.table.into_nodes())
            .enumerate()
            .map(|(slot, (stop, protocol))| {
                let (reason, rounds, stats) = stop.expect("every node stopped");
                NodeOutcome {
                    reason,
                    rounds,
                    metrics: self.metrics[slot],
                    losses: std::mem::take(&mut self.losses[slot]),
                    stats,
                    accounting: self.accounting[slot],
                    protocol,
                }
            })
            .collect();
        Ok(outcomes)
    }

    /// One node's barrier step: the done announcement, then the
    /// barrier / isolation / round-cap checks.
    fn barrier_check<D>(
        &mut self,
        slot: usize,
        round: Round,
        done: &D,
    ) -> Result<Option<NodeStopReason>, NetError>
    where
        D: Fn(&P, &RunView<'_>) -> bool,
    {
        let degree = self.offsets[slot + 1] - self.offsets[slot];
        if !self.announced[slot] {
            let view = RunView {
                graph: self.graph,
                node: self.table.id(slot),
                gone: &self.gone,
                offset: self.offsets[slot],
                any: self.gone_count[slot] > 0,
            };
            let p = &self.table.nodes()[slot];
            if p.is_done() || done(p, &view) {
                self.announced[slot] = true;
                self.send_to_live(slot, round, &Frame::Done { round })?;
            }
        }
        Ok(if self.announced[slot] && self.settled[slot] == degree {
            Some(NodeStopReason::Barrier)
        } else if !self.announced[slot] && self.gone_count[slot] == degree {
            Some(NodeStopReason::Isolated)
        } else if round >= self.max_rounds {
            Some(NodeStopReason::MaxRounds)
        } else {
            None
        })
    }
}

/// Runs a whole cluster over the deterministic loopback transport and
/// returns the simulator-shaped [`Outcome`]: [`run_loopback_mode_with_stats`]
/// in snapshot mode.
///
/// # Panics
///
/// See [`run_loopback_mode_with_stats`].
pub fn run_loopback<P, F, S>(graph: &Graph, config: &SimConfig, factory: F, stop: S) -> Outcome<P>
where
    P: Protocol,
    P::Payload: WirePayload,
    F: FnMut(NodeId, usize) -> P,
    S: FnMut(&[&P], Round) -> bool,
{
    run_loopback_mode_with_stats(graph, config, PayloadMode::Snapshot, factory, stop).0
}

/// Runs a whole cluster over one [`LoopbackHub`] in payload mode `mode`
/// and returns the simulator-shaped [`Outcome`] with the cluster-wide
/// transport totals and payload [`WireAccounting`].
///
/// One [`ShardRunner`] runs the engine's phase order on the engine's
/// node state, so for a deterministic-given-the-seed protocol the
/// outcome — stop reason, rounds, metrics, engine stats, final states
/// — equals `Simulator::new(graph, config).run(factory, stop)`'s in
/// either mode (DESIGN.md §11; `tests/loopback_equivalence.rs`).
/// `stop` receives references but is otherwise the engine's.
///
/// # Panics
///
/// Panics if `config` asks for the blocking or capped model (see
/// [`ShardRunner::new`]), or if the loopback transport misbehaves,
/// which would be a bug in this crate, not in the caller.
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
    let n = graph.node_count();
    ShardRunner::new(graph, 0..n, config, mode, factory, LoopbackHub::new(n)).run_until(stop)
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, VecDeque};

    use gossip_sim::RumorSet;
    use latency_graph::generators;

    use super::*;
    use crate::error::PeerLoss;

    /// A transport the test scripts directly: `poll` drains a hand-fed
    /// inbox, `send` records frames, and peer capabilities are whatever
    /// the test says they are.
    #[derive(Default)]
    struct Scripted {
        caps: BTreeMap<NodeId, u32>,
        inbox: VecDeque<NetEvent>,
        /// `(release, to, frame)` per send.
        sent: Vec<(Round, NodeId, Frame)>,
    }

    impl Scripted {
        fn last(&self) -> (Round, NodeId, Frame) {
            self.sent.last().expect("a frame was sent").clone()
        }
    }

    impl Transport for Scripted {
        fn set_caps(&mut self, _caps: u32) {}
        fn peer_caps(&self, peer: NodeId) -> u32 {
            self.caps.get(&peer).copied().unwrap_or(0)
        }
        fn send(
            &mut self,
            _from: NodeId,
            release: Round,
            to: NodeId,
            _nth: usize,
            frame: &Frame,
        ) -> Result<(), NetError> {
            self.sent.push((release, to, frame.clone()));
            Ok(())
        }
        fn poll(&mut self, _round: Round, out: &mut Vec<NetEvent>) -> Result<(), NetError> {
            out.extend(self.inbox.drain(..));
            Ok(())
        }
        fn stats(&self, _node: NodeId) -> TransportStats {
            TransportStats::default()
        }
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

    type Runner<'g, P = FirstNeighbor> = ShardRunner<'g, P, Scripted>;

    /// A one-node shard hosting `me`, its protocol built by `make`.
    fn one_node<'g, P>(
        graph: &'g Graph,
        me: usize,
        mode: PayloadMode,
        transport: Scripted,
        make: impl Fn(RumorSet) -> P,
    ) -> Runner<'g, P>
    where
        P: Protocol<Payload = RumorSet>,
    {
        let n = graph.node_count();
        let factory = |id, _| make(RumorSet::singleton(n, id));
        let cfg = SimConfig::default();
        ShardRunner::new(graph, me..me + 1, &cfg, mode, factory, transport)
    }

    /// Node 0 alone, in delta mode, with the given peer capabilities.
    fn delta_runner<'g>(graph: &'g Graph, caps: &[(u32, u32)]) -> Runner<'g> {
        let transport = Scripted {
            caps: caps
                .iter()
                .map(|&(peer, c)| (NodeId::new(peer as usize), c))
                .collect(),
            ..Scripted::default()
        };
        one_node(graph, 0, PayloadMode::Delta, transport, |rumors| {
            FirstNeighbor { rumors }
        })
    }

    fn lost(peer: usize, to: usize, error: &str) -> NetEvent {
        NetEvent::PeerLost {
            to: NodeId::new(to),
            loss: PeerLoss {
                peer: NodeId::new(peer),
                attempts: 3,
                error: error.to_owned(),
            },
        }
    }

    fn frame(from: NodeId, to: NodeId, frame: Frame) -> NetEvent {
        NetEvent::Frame { from, to, frame }
    }

    #[test]
    fn knowledge_cache_drives_bases_and_loss_invalidates_it() {
        // Large enough that a sparse delta beats the 20-byte snapshot
        // (the +8 basis_seq overhead makes tiny universes snapshot-only).
        let g = generators::clique(128);
        let (me, peer) = (NodeId::new(0), NodeId::new(1));
        let mut runner = delta_runner(&g, &[(1, CAP_DELTA), (2, CAP_DELTA)]);
        runner.start().expect("start");

        // Round 0: first contact has no confirmed basis — the request is
        // a delta against the *empty* basis, i.e. full snapshot content.
        runner.begin_round(0).expect("round 0");
        runner.launch(0).expect("launch 0");
        let (_, to, first) = runner.transport.last();
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
        assert_eq!(decoded, RumorSet::singleton(128, me));

        // The peer answers with its snapshot {1}, delta-coded against the
        // request's own payload.
        let mut theirs = RumorSet::new(128);
        theirs.insert(peer);
        let mut reply_delta = Vec::new();
        assert!(theirs.encode_delta(Some(&decoded), &mut reply_delta));
        runner.transport.inbox.push_back(frame(
            peer,
            me,
            Frame::ReplyDelta {
                seq,
                round: 0,
                basis_seq: seq,
                payload: reply_delta,
            },
        ));
        runner.settle(0).expect("settle 0");
        assert_eq!(
            runner.table.nodes()[0].rumors,
            RumorSet::singleton(128, me),
            "exchange applies at its due round, not on receipt"
        );
        // Peer 1 is position 0 of node 0's row: edge offset 0.
        let edge = runner.edge_at(0, 0);
        assert!(
            runner.confirmed.get(edge).is_none(),
            "the basis is confirmed at the due round, not on receipt"
        );

        // Round 1: completing the exchange records the confirmed basis
        // {0, 1} for this edge, and the next request toward the same
        // peer references it by seq.
        runner.begin_round(1).expect("round 1");
        let confirmed = runner
            .confirmed
            .get(edge)
            .expect("completed exchange confirms a basis");
        assert_eq!(confirmed.0, seq);
        let mut both = RumorSet::singleton(128, me);
        both.insert(peer);
        assert_eq!(*confirmed.1, both);
        runner.launch(1).expect("launch 1");
        let (_, _, second) = runner.transport.last();
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
        runner.transport.inbox.push_back(lost(1, 0, "injected"));
        runner.settle(1).expect("settle 1");
        assert!(
            runner.confirmed.get(edge).is_none() && runner.answered.get(edge).is_none(),
            "loss invalidates the peer's knowledge cache"
        );
        assert!(runner.pending.is_empty(), "in-flight request written off");
        assert_eq!(runner.metrics[0].lost, 1);

        // If the peer comes back (the transport re-admits it after a
        // reconnect), nothing of the old cache survives: the next
        // request falls back to the empty basis — full snapshot content.
        runner.gone[0] = 0;
        runner.begin_round(2).expect("round 2");
        runner.launch(2).expect("launch 2");
        let (_, to, third) = runner.transport.last();
        assert_eq!(to, peer);
        let Frame::RequestDelta { basis_seq, .. } = third else {
            panic!("expected a delta request, got {third:?}");
        };
        assert_eq!(
            basis_seq, 0,
            "reconnect renegotiates from the full snapshot"
        );
    }

    #[test]
    fn an_older_basis_decodes_until_a_newer_reference_prunes_it() {
        let g = generators::clique(128);
        let (me, peer) = (NodeId::new(0), NodeId::new(1));
        let set = |ids: &[usize]| {
            let mut s = RumorSet::new(128);
            for &v in ids {
                s.insert(NodeId::new(v));
            }
            s
        };
        let delta_against = |payload: &RumorSet, basis: &RumorSet| {
            let mut bytes = Vec::new();
            assert!(payload.encode_delta(Some(basis), &mut bytes));
            bytes
        };
        let mut runner = delta_runner(&g, &[(1, CAP_DELTA), (2, CAP_DELTA)]);
        runner.start().expect("start");
        // Rounds 0 and 1: the peer's requests 3 and 7 are answered, so
        // the runner holds the bases {0} ∪ {1} and {0, 1} ∪ {1, 5}.
        for (round, seq, theirs) in [(0, 3, set(&[1])), (1, 7, set(&[1, 5]))] {
            runner.begin_round(round).expect("begin");
            runner.launch(round).expect("launch");
            let mut payload = Vec::new();
            theirs.encode_payload(&mut payload);
            runner.transport.inbox.push_back(frame(
                peer,
                me,
                Frame::Request {
                    seq,
                    round,
                    payload,
                },
            ));
            runner.settle(round).expect("settle");
        }
        let (basis3, basis7) = (set(&[0, 1]), set(&[0, 1, 5]));

        // Round 2: a request against the older basis 3 decodes to what
        // the peer sent. The reply is a delta against the request's own
        // payload, so it decodes back to the runner's snapshot only if
        // the request was decoded against basis 3 and not basis 7.
        runner.begin_round(2).expect("round 2");
        runner.launch(2).expect("launch 2");
        let theirs = set(&[1, 7]);
        runner.transport.inbox.push_back(frame(
            peer,
            me,
            Frame::RequestDelta {
                seq: 9,
                round: 2,
                basis_seq: 3,
                payload: delta_against(&theirs, &basis3),
            },
        ));
        runner.settle(2).expect("settle 2");
        let (_, to, reply) = runner.transport.last();
        assert_eq!(to, peer);
        let Frame::ReplyDelta {
            seq: 9,
            basis_seq: 9,
            payload,
            ..
        } = reply
        else {
            panic!("expected a delta reply to request 9, got {reply:?}");
        };
        let mine = RumorSet::decode_delta(&payload, Some(&theirs)).expect("reply decodes");
        assert_eq!(mine, basis7, "request 9 was decoded against basis 3");

        // Round 3: a reference to basis 7 prunes basis 3 ...
        runner.begin_round(3).expect("round 3");
        runner.launch(3).expect("launch 3");
        runner.transport.inbox.push_back(frame(
            peer,
            me,
            Frame::RequestDelta {
                seq: 11,
                round: 3,
                basis_seq: 7,
                payload: delta_against(&set(&[1, 9]), &basis7),
            },
        ));
        runner.settle(3).expect("settle 3");
        // ... so a later reference to basis 3 is a violation.
        let unknown = |err: NetError, basis: u64| {
            let want = format!("unknown basis {basis}");
            assert!(
                matches!(&err, NetError::ProtocolViolation(why) if why.contains(&want)),
                "unexpected error: {err}"
            );
        };
        runner.begin_round(4).expect("round 4");
        runner.launch(4).expect("launch 4");
        runner.transport.inbox.push_back(frame(
            peer,
            me,
            Frame::RequestDelta {
                seq: 12,
                round: 4,
                basis_seq: 3,
                payload: delta_against(&set(&[1]), &basis3),
            },
        ));
        unknown(runner.settle(4).expect_err("basis 3 was pruned"), 3);

        // After a loss, basis 7 died with the connection too.
        runner.transport.inbox.push_back(lost(1, 0, "injected"));
        runner.transport.inbox.push_back(frame(
            peer,
            me,
            Frame::RequestDelta {
                seq: 13,
                round: 5,
                basis_seq: 7,
                payload: delta_against(&set(&[1]), &basis7),
            },
        ));
        unknown(
            runner.begin_round(5).expect_err("the loss cleared basis 7"),
            7,
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

    fn snapshot(v: NodeId, n: usize) -> Vec<u8> {
        let mut bytes = Vec::new();
        RumorSet::singleton(n, v).encode_payload(&mut bytes);
        bytes
    }

    #[test]
    fn exchanges_are_held_to_their_own_edge_latency() {
        // Node 1 launches over its ℓ = 5 edge (row position 0) and
        // answers a request over its ℓ = 2 edge.
        let g = slow_fast_path();
        let (me, slow, fast) = (NodeId::new(1), NodeId::new(0), NodeId::new(2));
        let mut runner = one_node(
            &g,
            1,
            PayloadMode::Snapshot,
            Scripted::default(),
            |rumors| FirstNeighbor { rumors },
        );
        runner.start().expect("start");
        runner.begin_round(0).expect("round 0");
        runner.launch(0).expect("launch 0");
        let (release, to, request) = runner.transport.last();
        assert_eq!((release, to), (0, slow));
        let Frame::Request { seq, .. } = request else {
            panic!("expected a request, got {request:?}");
        };
        runner.transport.inbox.extend([
            frame(
                slow,
                me,
                Frame::Reply {
                    seq,
                    round: 0,
                    payload: snapshot(slow, 3),
                },
            ),
            frame(
                fast,
                me,
                Frame::Request {
                    seq: 1,
                    round: 0,
                    payload: snapshot(fast, 3),
                },
            ),
        ]);
        runner.settle(0).expect("settle 0");
        let (release, to, _) = runner.transport.last();
        assert_eq!((release, to), (2, fast), "reply released at t + 2");
        assert!(!runner.hold.is_empty(), "both exchanges held");
        let knows = |r: &Runner<'_>| [slow, fast].map(|v| r.table.nodes()[0].rumors.contains(v));
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
        let transport = Scripted {
            caps: BTreeMap::from([(slow, CAP_DELTA), (NodeId::new(2), CAP_DELTA)]),
            ..Scripted::default()
        };
        let mut runner = one_node(&g, 1, PayloadMode::Delta, transport, |rumors| {
            FirstNeighbor { rumors }
        });
        runner.start().expect("start");
        runner.begin_round(0).expect("round 0");
        runner.launch(0).expect("launch 0");
        let (_, to, request) = runner.transport.last();
        assert_eq!(to, slow);
        let (Frame::Request { seq, .. } | Frame::RequestDelta { seq, .. }) = request else {
            panic!("expected a request, got {request:?}");
        };
        runner.transport.inbox.push_back(frame(
            slow,
            me,
            Frame::Reply {
                seq,
                round: 0,
                payload: snapshot(slow, 3),
            },
        ));
        runner.settle(0).expect("settle 0");
        assert!(runner.pending.is_empty(), "the reply was accepted");
        let effects = |r: &Runner<'_>| {
            let confirmed = r
                .confirmed
                .get(r.edge_at(0, 0))
                .map(|(seq, basis)| (seq, basis.clone()));
            (
                r.metrics[0].delivered,
                r.metrics[0].payload_units,
                confirmed,
                r.table.nodes()[0].rumors.contains(slow),
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
        let mut runner = one_node(
            &g,
            0,
            PayloadMode::Snapshot,
            Scripted::default(),
            |rumors| RoundRobin { rumors },
        );
        runner.start().expect("start");
        for round in 0..3 {
            runner.begin_round(round).expect("round");
            runner.launch(round).expect("launch");
            let (release, to, frame) = runner.transport.last();
            let leaf = usize::try_from(round).expect("round fits usize") + 1;
            assert_eq!((release, to), (round, NodeId::new(leaf)));
            assert!(
                matches!(frame, Frame::Request { seq, .. } if seq == round + 1),
                "seqs are dense from 1: {frame:?}"
            );
        }
        assert_eq!(runner.pending.len(), 3, "three requests in flight");
        let reply = |leaf: usize, seq: u64, round: Round| {
            frame(
                NodeId::new(leaf),
                me,
                Frame::Reply {
                    seq,
                    round,
                    payload: snapshot(NodeId::new(leaf), 4),
                },
            )
        };

        // The newest request's reply lands first: a hole at the back.
        runner.transport.inbox.push_back(reply(3, 3, 2));
        runner.settle(2).expect("settle");
        assert_eq!(runner.pending.len(), 3, "the front is still in flight");
        // Leaf 2 is lost mid-flight: its one pending is written off in
        // place, and only its.
        runner.transport.inbox.push_back(lost(2, 0, "injected"));
        runner.settle(2).expect("settle");
        assert_eq!(runner.metrics[0].lost, 1);
        assert_eq!(runner.pending.len(), 3, "seq 1 still holds the front");
        // The oldest reply lands last: every seq is settled and the ring
        // drains.
        runner.transport.inbox.push_back(reply(1, 1, 0));
        runner.settle(2).expect("settle");
        assert!(runner.pending.is_empty());
        assert_eq!(runner.pending_base, 4, "the next request is seq 4");
        assert_eq!(
            (runner.metrics[0].delivered, runner.metrics[0].lost),
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
        assert_eq!(
            (runner.metrics[0].delivered, runner.metrics[0].lost),
            (0, 1)
        );
        assert!(runner.pending.is_empty());
        assert!(!runner.hold.is_empty(), "the answered exchanges are held");
        // Seq 1 was due in round 1 and applies at the next round begun;
        // seq 3 waits for its own edge's t + ℓ, round 7.
        for (round, delivered) in [(3, 1), (6, 1), (7, 2)] {
            runner.begin_round(round).expect("round");
            assert_eq!(runner.metrics[0].delivered, delivered, "round {round}");
        }
    }

    #[test]
    fn a_stopped_node_leaves_no_request_pending() {
        // A triangle over loopback, every node walking its neighbors.
        // Node 0 stops in round 2 with a request in flight, after its
        // neighbors sent theirs toward it: it drops their requests, and
        // its reply reaches a stopped node. None of the three may hold
        // the shard-wide ring's front while nodes 1 and 2 go on.
        let g = generators::clique(3);
        let factory = |id, _| RoundRobin {
            rumors: RumorSet::singleton(3, id),
        };
        let cfg = SimConfig::default();
        let hub = LoopbackHub::new(3);
        let mut runner = ShardRunner::new(&g, 0..3, &cfg, PayloadMode::Snapshot, factory, hub);
        runner.start().expect("start");
        for round in 0..40 {
            runner.begin_round(round).expect("round");
            runner.launch(round).expect("launch");
            if round == 2 {
                assert!(
                    runner.pending.iter().flatten().any(|p| p.slot == 0),
                    "node 0 has a request in flight"
                );
                runner.stop(0, NodeStopReason::Barrier, round);
            }
            runner.settle(round).expect("settle");
            if round == 2 {
                let lost: Vec<u64> = runner.metrics.iter().map(|m| m.lost).collect();
                assert_eq!(lost, [0, 0, 0], "a departure loses nothing in flight");
            }
            assert!(
                runner.pending.len() <= 3,
                "round {round}: {} requests held",
                runner.pending.len()
            );
        }
        assert!(runner.gone_count[1] == 1 && runner.gone_count[2] == 1);
    }

    #[test]
    fn loss_after_bye_is_a_departure_not_a_fault() {
        // Peer 1 says goodbye and its sockets then close behind it; peer
        // 2 just vanishes. Both are gone, only peer 2 is a loss.
        let g = generators::clique(3);
        let mut runner = delta_runner(&g, &[]);
        runner.start().expect("start");
        runner.transport.inbox.extend([
            frame(NodeId::new(1), NodeId::new(0), Frame::Bye),
            lost(1, 0, "connection refused"),
            lost(2, 0, "connection refused"),
        ]);
        runner.begin_round(0).expect("round 0");
        assert_eq!(runner.gone_count[0], 2);
        assert_eq!(runner.losses[0].len(), 1, "{:?}", runner.losses);
        assert_eq!(runner.losses[0][0].peer, NodeId::new(2));
    }

    #[test]
    fn delta_knowledge_costs_a_bit_per_edge_and_a_record_per_exchange() {
        // One shard hosting the 1024-clique, as the delta soak does; its
        // node 0 records a basis per role on each of its 1023 edges, in
        // an order that is not row order.
        let g = generators::clique(1024);
        let (n, edges) = (g.node_count(), 2 * g.edge_count());
        let degree = g.degree(NodeId::new(0));
        let per_role = |records: usize| {
            use std::mem::size_of;
            24 * records + edges.div_ceil(64) * size_of::<u64>() + n * size_of::<Vec<u32>>()
        };
        let at = |nth| EdgeAt {
            slot: 0,
            row: 0,
            edge: nth,
        };
        let order = (0..degree).map(|i| i * 7 % degree);
        let mut confirmed = EdgeBases::new(n, edges);
        let mut answered = EdgeBases::new(n, edges);
        for nth in order.clone() {
            let seq = u64::try_from(nth).expect("fits") + 1;
            confirmed.set(at(nth), seq, RumorSet::singleton(n, NodeId::new(nth)));
            answered.push(at(nth), seq, RumorSet::singleton(n, NodeId::new(nth)));
        }
        for nth in [0, 1, 500, degree - 1] {
            let seq = u64::try_from(nth).expect("fits") + 1;
            let want = RumorSet::singleton(n, NodeId::new(nth));
            assert_eq!(confirmed.get(at(nth)), Some((seq, &want)), "edge {nth}");
            assert_eq!(answered.find(at(nth), seq), Some(&want), "edge {nth}");
        }
        // Four bytes per hosted edge (4 MB here) or 56 per recorded one
        // would each break the bound.
        for (role, bytes) in [
            ("confirmed", confirmed.heap_bytes()),
            ("answered", answered.heap_bytes()),
        ] {
            assert!(
                bytes <= per_role(degree),
                "{role}: {bytes} B for {degree} records, bound {}",
                per_role(degree)
            );
        }
        // A cleared edge's record is reused, not added.
        let arena = |s: &EdgeBases<RumorSet>| s.blocks.iter().map(Vec::len).sum::<usize>();
        for nth in order {
            answered.clear(at(nth));
            answered.push(at(nth), 5_000, RumorSet::new(n));
        }
        assert_eq!(arena(&answered), degree);
        assert_eq!(answered.get(at(9)).map(|(seq, _)| seq), Some(5_000));
        // Snapshot mode's store has no heap block at all.
        assert_eq!(EdgeBases::<RumorSet>::new(0, 0).heap_bytes(), 0);
    }

    #[test]
    fn done_and_gone_are_kept_by_adjacency_position() {
        // Node 0 of the path 0 — 1 — 2 has the one neighbor 1; node 2
        // is not adjacent.
        let g = generators::path(3);
        let me = NodeId::new(0);
        for stray in [Frame::Done { round: 0 }, Frame::Bye] {
            let mut runner = delta_runner(&g, &[]);
            runner.start().expect("start");
            runner
                .transport
                .inbox
                .push_back(frame(NodeId::new(2), me, stray));
            let err = runner
                .begin_round(0)
                .expect_err("a non-neighbor is refused");
            assert!(matches!(err, NetError::UnknownPeer(v) if v == NodeId::new(2)));
        }
        let mut runner = delta_runner(&g, &[]);
        runner.start().expect("start");
        let view_gone = |r: &Runner<'_>| {
            let view = RunView {
                graph: &g,
                node: me,
                gone: &r.gone,
                offset: 0,
                any: r.gone_count[0] > 0,
            };
            [1, 2].map(|v| view.is_gone(NodeId::new(v)))
        };
        assert_eq!(view_gone(&runner), [false, false]);
        runner
            .transport
            .inbox
            .push_back(frame(NodeId::new(1), me, Frame::Bye));
        runner.begin_round(0).expect("round 0");
        assert!(bit(&runner.gone, 0));
        assert_eq!(view_gone(&runner), [true, false], "only neighbors are gone");
        // With its one neighbor departed, the node stops isolated.
        let stop = runner.barrier_check(0, 1, &|_: &FirstNeighbor, _: &RunView<'_>| false);
        assert_eq!(stop.expect("round 1"), Some(NodeStopReason::Isolated));
    }

    #[test]
    fn snapshot_peers_never_get_deltas_and_grow_no_cache() {
        // Peer 1 never advertised CAP_DELTA: even in delta mode every
        // frame toward it is a plain snapshot and no basis is retained.
        let g = generators::clique(3);
        let mut runner = delta_runner(&g, &[(2, CAP_DELTA)]);
        runner.start().expect("start");
        runner.begin_round(0).expect("round 0");
        runner.launch(0).expect("launch 0");
        let (_, to, sent) = runner.transport.last();
        assert_eq!(to, NodeId::new(1));
        let Frame::Request { seq, payload, .. } = sent else {
            panic!("expected a snapshot request, got {sent:?}");
        };
        runner.transport.inbox.push_back(frame(
            NodeId::new(1),
            NodeId::new(0),
            Frame::Reply {
                seq,
                round: 0,
                payload: snapshot(NodeId::new(1), 3),
            },
        ));
        runner.settle(0).expect("settle 0");
        let edge = runner.edge_at(0, 0);
        assert!(
            runner.confirmed.get(edge).is_none() && runner.answered.get(edge).is_none(),
            "no basis is cached for a snapshot-only peer"
        );
        let _ = RumorSet::decode_payload(&payload).expect("snapshot request decodes");
        assert_eq!(runner.accounting[0].delta_frames, 0);
        assert_eq!(runner.accounting[0].snapshot_frames, 1);
    }

    #[test]
    fn foreign_universe_payloads_are_protocol_violations() {
        // Well-formed bodies over nine ids at a three-node cluster: each
        // decodes cleanly, and `union_with` would panic on any of them.
        let g = generators::clique(3);
        let (me, peer) = (NodeId::new(0), NodeId::new(1));
        let foreign = RumorSet::singleton(9, NodeId::new(8));
        let (mut snapshot, mut delta) = (Vec::new(), Vec::new());
        foreign.encode_payload(&mut snapshot);
        assert!(foreign.encode_delta(None, &mut delta));
        let refused = |sent: Frame, launch_first: bool| {
            let mut runner = delta_runner(&g, &[(1, CAP_DELTA)]);
            runner.start().expect("start");
            if launch_first {
                runner.begin_round(0).expect("round 0");
                runner.launch(0).expect("launch 0");
            }
            runner.transport.inbox.push_back(frame(peer, me, sent));
            let err = runner.settle(0).expect_err("foreign universe is refused");
            assert!(
                matches!(&err, NetError::ProtocolViolation(why) if why.contains("universe 9")),
                "unexpected error: {err}"
            );
            assert!(runner.hold.is_empty());
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
        let (me, peer) = (NodeId::new(0), NodeId::new(1));

        // A delta request referencing a basis we never recorded.
        let mut runner = delta_runner(&g, &[(1, CAP_DELTA)]);
        runner.start().expect("start");
        let mut delta = Vec::new();
        assert!(RumorSet::singleton(3, peer).encode_delta(None, &mut delta));
        runner.transport.inbox.push_back(frame(
            peer,
            me,
            Frame::RequestDelta {
                seq: 1,
                round: 0,
                basis_seq: 99,
                payload: delta.clone(),
            },
        ));
        let err = runner.begin_round(0).expect_err("unknown basis is refused");
        assert!(
            err.to_string().contains("unknown basis"),
            "unexpected error: {err}"
        );

        // A delta frame at a node that never advertised CAP_DELTA.
        let transport = Scripted {
            inbox: VecDeque::from([frame(
                peer,
                me,
                Frame::RequestDelta {
                    seq: 1,
                    round: 0,
                    basis_seq: 0,
                    payload: delta,
                },
            )]),
            ..Scripted::default()
        };
        let mut snapshot_runner = one_node(&g, 0, PayloadMode::Snapshot, transport, |rumors| {
            FirstNeighbor { rumors }
        });
        let err = snapshot_runner
            .begin_round(0)
            .expect_err("delta frame at a snapshot-mode node is refused");
        assert!(
            err.to_string().contains("CAP_DELTA"),
            "unexpected error: {err}"
        );
    }
}

//! The simulation engine: [`Protocol`], [`Context`], [`Simulator`].

use std::collections::BTreeMap;
use std::mem;
use std::ops::Range;

use latency_graph::{splitmix64, Graph, Latency, NodeId};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

use crate::faults::FaultPlan;
use crate::Round;

/// How the engine schedules a protocol's [`on_round`](Protocol::on_round)
/// callbacks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduling {
    /// `on_round` runs for every live node in every round: the
    /// frontier is everyone, every round is an event round, cost Θ(n)
    /// per round.
    EveryRound,
    /// `on_round` runs only for nodes on the **active frontier**: nodes
    /// that received a delivery this round, registered a wakeup for it
    /// ([`Context::wake_in`] / [`Context::wake_at`]), or — in round 0,
    /// which steps everyone — are simply alive. Idle nodes cost
    /// nothing, and [`Simulator::run`] skips dead gaps directly to the
    /// next scheduled event.
    ///
    /// Contract for `OnDemand` protocols:
    /// * Round 0 is a universal wakeup: every live node gets `on_round`
    ///   once, after `on_start`. A node that wants further rounds must
    ///   register a wakeup (`ctx.wake_in(1)` reproduces the dense
    ///   cadence) — there is no implicit "every round" stepping.
    /// * Delivery is a wakeup: both endpoints of a delivered exchange
    ///   are stepped in the completion round (after `on_exchange`).
    /// * A *lost* exchange (crash / link fault) wakes no one; protocols
    ///   that must make progress despite losses (or under
    ///   [`SimConfig::blocking`]) should keep a standing wakeup.
    /// * The caller's stop closure and the [`StopReason::AllDone`] check
    ///   are evaluated only on **event rounds** (rounds with a
    ///   delivery, a due wakeup, or round 0), so a run that skips the
    ///   rounds in between and a hand-driven [`Stepper`] that visits
    ///   them remain byte-identical.
    OnDemand,
}

/// A gossip protocol, instantiated once per node.
///
/// The engine drives each node through rounds:
///
/// 1. At the start of each round, completed exchanges are delivered via
///    [`on_exchange`](Protocol::on_exchange) (to both endpoints).
/// 2. Then [`on_round`](Protocol::on_round) runs; the node may call
///    [`Context::initiate`] to start one exchange this round.
///
/// Payload snapshots of *both* endpoints are taken at initiation time
/// (via [`payload`](Protocol::payload)) and delivered when the exchange
/// completes, `latency` rounds later.
pub trait Protocol: Sized {
    /// The scheduling discipline for this protocol's `on_round`. The
    /// default, [`Scheduling::EveryRound`], preserves the classic dense
    /// semantics; [`Scheduling::OnDemand`] opts into frontier-sparse
    /// stepping (see [`Scheduling`] for the wakeup contract).
    const SCHEDULING: Scheduling = Scheduling::EveryRound;

    /// The data exchanged between two nodes (e.g. a
    /// [`RumorSet`](crate::RumorSet)).
    type Payload: Clone;

    /// Snapshot of this node's exchangeable state. Called whenever an
    /// exchange involving this node is initiated (by either side).
    fn payload(&self) -> Self::Payload;

    /// The size of a payload in protocol-defined units (rumors carried,
    /// topology edges, …), accumulated into
    /// [`SimMetrics::payload_units`] for message-complexity accounting
    /// (the paper's Section 6 discusses which algorithms need large
    /// messages). Defaults to 1 unit per payload.
    fn payload_weight(payload: &Self::Payload) -> u64 {
        let _ = payload;
        1
    }

    /// Called once, before round 0's `on_round`.
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// Called every round. Call [`Context::initiate`] to start an
    /// exchange.
    fn on_round(&mut self, ctx: &mut Context<'_>);

    /// Called when an exchange involving this node completes.
    fn on_exchange(&mut self, ctx: &mut Context<'_>, exchange: &Exchange<Self::Payload>);

    /// Called when this node's initiation was rejected because it or
    /// the chosen peer exceeded the per-round connection cap
    /// ([`SimConfig::connection_cap`] — the restricted model of the
    /// paper's conclusion, after Daum et al. \[24\]). Only invoked in the
    /// capped model; the default does nothing.
    fn on_rejected(&mut self, ctx: &mut Context<'_>, peer: NodeId) {
        let _ = (ctx, peer);
    }

    /// Local termination flag; when every node reports `true` the
    /// simulation stops with [`StopReason::AllDone`].
    fn is_done(&self) -> bool {
        false
    }
}

/// A completed exchange, as seen by one endpoint.
#[derive(Clone, Debug)]
pub struct Exchange<P> {
    /// The other endpoint.
    pub peer: NodeId,
    /// The peer's payload snapshot, taken at [`initiated_at`](Self::initiated_at).
    pub payload: P,
    /// The round the exchange was initiated.
    pub initiated_at: Round,
    /// The round the exchange completed (current round); the edge
    /// latency is `completed_at − initiated_at`, which is how protocols
    /// *measure* unknown latencies (Section 4.2 of the paper).
    pub completed_at: Round,
    /// Whether this endpoint was the initiator.
    pub initiated_by_me: bool,
}

impl<P> Exchange<P> {
    /// The measured latency of the edge used.
    pub fn measured_latency(&self) -> Latency {
        Latency::new(
            u32::try_from(self.completed_at - self.initiated_at).expect("latency fits u32"),
        )
    }
}

/// Per-node view handed to protocol callbacks.
#[derive(Debug)]
pub struct Context<'a> {
    node: NodeId,
    round: Round,
    n: usize,
    size_hint: usize,
    neighbor_ids: &'a [NodeId],
    latencies: Option<&'a [Latency]>,
    /// The hosted nodes' RNGs, seeded on the first draw by any of them.
    rngs: &'a mut NodeRngs,
    /// The chosen peer's position in the node's adjacency slice, or
    /// [`NO_INITIATION`]. [`NodeTable::step`] resolves the peer id and
    /// the edge latency after the round's `on_round` calls.
    pending: &'a mut PendingSlot,
    /// The wakeup request slot ([`Context::wake_at`]), 0 for none. Last
    /// write wins within a round; [`Stepper::advance`] files it into the
    /// wake calendar at the end of the round. `None` for
    /// [`Scheduling::EveryRound`] protocols (every node is stepped
    /// anyway).
    wake: Option<&'a mut WakeSlot>,
    /// Choice tape installed by a model checker ([`Stepper`]'s
    /// `set_choice_tape`): when present, [`Context::choose`] reads
    /// scripted branches from it instead of the node RNG. `None` in
    /// every normal run.
    tape: Option<&'a mut ChoiceTape>,
}

impl<'a> Context<'a> {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// The current round.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The exact network size `n`. Most of the paper's algorithms only
    /// assume a polynomial upper bound — prefer
    /// [`size_hint`](Self::size_hint) in protocol logic and reserve
    /// `n` for bookkeeping (rumor-set universes).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The polynomial upper bound `n̂ ≥ n` the protocol is allowed to
    /// know (paper, Section 1 and Lemma 13). Equals `n` unless
    /// configured otherwise.
    pub fn size_hint(&self) -> usize {
        self.size_hint
    }

    /// This node's degree.
    pub fn degree(&self) -> usize {
        self.neighbor_ids.len()
    }

    /// The ids of this node's neighbors, sorted.
    pub fn neighbor_ids(&self) -> &[NodeId] {
        self.neighbor_ids
    }

    /// The latency of the edge to neighbor `v`, if the model grants the
    /// node knowledge of adjacent latencies
    /// ([`SimConfig::latency_known`]); `None` otherwise or if `v` is not
    /// a neighbor. Unknown latencies must be *measured* by timing
    /// exchanges ([`Exchange::measured_latency`]).
    pub fn latency_to(&self, v: NodeId) -> Option<Latency> {
        let latencies = self.latencies?;
        self.neighbor_index(v).map(|i| latencies[i])
    }

    /// The position of `v` in this node's sorted adjacency slice (the
    /// node-local analogue of [`Graph::neighbor_index`]), or `None` if
    /// `v` is not a neighbor.
    ///
    /// [`Graph::neighbor_index`]: latency_graph::Graph::neighbor_index
    fn neighbor_index(&self, v: NodeId) -> Option<usize> {
        self.neighbor_ids.binary_search(&v).ok()
    }

    /// Initiates an exchange with neighbor `v` this round. At most one
    /// initiation takes effect per round; calling again overwrites the
    /// previous choice.
    ///
    /// Only the adjacency position the membership search found is
    /// recorded; the engine resolves the peer and the edge latency from
    /// it after the round's `on_round` calls.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a neighbor of this node.
    pub fn initiate(&mut self, v: NodeId) {
        let Some(i) = self.neighbor_index(v) else {
            panic!("{} attempted to initiate with non-neighbor {v}", self.node);
        };
        self.record_initiation(i);
    }

    /// Initiates an exchange with the `i`-th neighbor (an index into
    /// [`neighbor_ids`](Self::neighbor_ids)). Equivalent to
    /// `initiate(self.neighbor_ids()[i])` but skips the membership
    /// search and loads nothing from the adjacency row — the fast path
    /// for protocols that already choose their peer by adjacency index
    /// (e.g. uniform random neighbor selection). The engine resolves
    /// the peer after the round's `on_round` calls.
    ///
    /// # Panics
    ///
    /// Panics if `i >= degree()`.
    pub fn initiate_nth(&mut self, i: usize) {
        assert!(
            i < self.degree(),
            "{} attempted to initiate with neighbor index {i} of degree {}",
            self.node,
            self.degree(),
        );
        self.record_initiation(i);
    }

    /// Records adjacency position `i < degree()` as this round's
    /// initiation.
    fn record_initiation(&mut self, i: usize) {
        // A position is below the degree, which is at most
        // `u32::MAX - 1`, so it never reads as `NO_INITIATION`.
        *self.pending = PendingSlot::try_from(i).expect("degree fits u32");
    }

    /// Registers a wakeup: under [`Scheduling::OnDemand`] this node
    /// will be stepped ([`Protocol::on_round`]) again in round `round`,
    /// even if nothing is delivered to it. Calling again in the same
    /// round overwrites the previous request (at most one wakeup is
    /// registered per node per round); wakeups registered in different
    /// rounds accumulate independently. Under
    /// [`Scheduling::EveryRound`] this is a no-op — every node is
    /// stepped every round already, and the engine keeps no wake slot.
    ///
    /// # Boundary semantics (audited)
    ///
    /// A wakeup at or before the current round is a **panic**, not a
    /// clamp-to-next-round: the frontier for the current round is
    /// already being processed, so such a request could never fire,
    /// and silently rounding it up would hide an off-by-one in the
    /// protocol's own schedule arithmetic (the exact bug class this
    /// assert exists to catch). Protocols that want "next round" say
    /// so explicitly with `wake_in(1)`. Both boundary cases are pinned
    /// by engine unit tests (`wake_at_current_round_panics`,
    /// `wake_at_next_round_fires_exactly_once`).
    ///
    /// # Panics
    ///
    /// Panics if `round` is not strictly in the future: a wakeup for
    /// the current round could never fire (the frontier for this round
    /// is already being processed).
    pub fn wake_at(&mut self, round: Round) {
        assert!(
            round > self.round,
            "{} requested a wakeup at round {round}, not after the current round {}",
            self.node,
            self.round,
        );
        // `round > self.round ≥ 0`, so a request is never the slot's
        // "none" value 0.
        if let Some(wake) = self.wake.as_deref_mut() {
            *wake = round;
        }
    }

    /// Registers a wakeup `delay ≥ 1` rounds from now:
    /// `wake_at(round() + delay)`. `wake_in(1)` reproduces the dense
    /// every-round cadence.
    ///
    /// # Panics
    ///
    /// Panics if `delay == 0` (see [`wake_at`](Self::wake_at)).
    pub fn wake_in(&mut self, delay: u64) {
        self.wake_at(self.round + delay);
    }

    /// This node's deterministic random number generator: the stream
    /// `StdRng::seed_from_u64(node_seed(seed, id))`. The engine seeds
    /// its hosted nodes' RNGs on the first draw by any of them, so a
    /// protocol that never draws keeps none.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rngs.get(self.node)
    }

    /// Resolves a `k`-way nondeterministic branch.
    ///
    /// In a normal run this draws a uniform index in `0..k` from the
    /// node RNG — byte-identical to calling
    /// `self.rng().random_range(0..k)` directly, so routing a
    /// protocol's peer selection through `choose` changes no trace.
    /// Under a model checker ([`Stepper`] with a [`ChoiceTape`]
    /// installed) the branch is scripted instead: the tape records the
    /// arity `k` and returns the scheduled alternative, which is how
    /// `gossip check` enumerates *every* peer-selection interleaving
    /// rather than sampling one.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (there is no branch to take) or if a tape
    /// scripts an out-of-range alternative.
    pub fn choose(&mut self, k: usize) -> usize {
        assert!(k > 0, "{} asked to choose among zero options", self.node);
        match self.tape.as_deref_mut() {
            Some(tape) => tape.next(k),
            None => self.rngs.get(self.node).random_range(0..k),
        }
    }
}

/// A script of nondeterministic-branch outcomes for one [`Stepper`]
/// transition, consumed by [`Context::choose`].
///
/// The tape starts with a caller-supplied `script`; each `choose(k)`
/// takes the scripted alternative at its position (or `0` past the
/// script's end — the default branch), and records both the outcome
/// and the arity `k`. A model checker replays a state with the empty
/// script, inspects [`arities`](Self::arities), and enqueues sibling
/// scripts that flip each position through its remaining
/// alternatives — the standard incremental discovery of a choice
/// tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChoiceTape {
    script: Vec<u32>,
    taken: Vec<u32>,
    arities: Vec<u32>,
}

impl ChoiceTape {
    /// A tape that will play back `script` and then default to branch 0.
    pub fn new(script: Vec<u32>) -> ChoiceTape {
        ChoiceTape {
            script,
            taken: Vec::new(),
            arities: Vec::new(),
        }
    }

    /// Resolves the next choice point of arity `k`.
    ///
    /// # Panics
    ///
    /// Panics if the scripted alternative is `≥ k`: a script recorded
    /// against one state never fits a different one, and silently
    /// clamping would explore a phantom branch.
    pub fn next(&mut self, k: usize) -> usize {
        let pos = self.taken.len();
        let arity = u32::try_from(k).expect("choice arity fits u32");
        let c = self.script.get(pos).copied().unwrap_or(0);
        assert!(
            c < arity,
            "scripted choice {c} at position {pos} out of range 0..{arity}"
        );
        self.taken.push(c);
        self.arities.push(arity);
        usize::try_from(c).expect("choice index fits usize")
    }

    /// The alternatives actually taken, one per choice point hit.
    pub fn taken(&self) -> &[u32] {
        &self.taken
    }

    /// The arity of each choice point hit, parallel to
    /// [`taken`](Self::taken).
    pub fn arities(&self) -> &[u32] {
        &self.arities
    }
}

/// Configuration for a [`Simulator`] run.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Hard cap on rounds; exceeding it stops with
    /// [`StopReason::MaxRounds`].
    pub max_rounds: Round,
    /// Whether nodes know the latencies of adjacent edges (Section 5)
    /// or must measure them (Sections 3–4).
    pub latency_known: bool,
    /// The polynomial upper bound `n̂` exposed to protocols; defaults to
    /// the exact `n`.
    pub size_hint: Option<usize>,
    /// Master seed; every node derives an independent RNG from it.
    pub seed: u64,
    /// Per-round cap on the number of *new* exchanges a node may engage
    /// in (its own initiation plus accepted incoming initiations).
    /// `None` is the paper's main model (unbounded incoming); `Some(c)`
    /// is the restricted model of the conclusion / Daum et al. \[24\].
    /// Excess initiations are rejected in a seeded-random order and the
    /// initiator is notified via [`Protocol::on_rejected`].
    pub connection_cap: Option<usize>,
    /// Blocking communication: a node with one of its *own* exchanges
    /// still in flight may not initiate another (Appendix E's variant —
    /// Path Discovery tolerates it; the default Section 1 model is
    /// non-blocking). Blocked initiations are rejected (the node wastes
    /// the round): counted in [`SimMetrics::rejected`] and reported via
    /// [`Protocol::on_rejected`].
    pub blocking: bool,
}

/// Kept only because the frozen repo benchmark's struct literals name
/// `EngineMode::Frontier` (see `SparseConfig::mode` in `gossip-core`):
/// [`Simulator::run`] always skips event-free rounds for
/// [`Scheduling::OnDemand`] protocols, and the every-round reference
/// is the hand-driven [`Stepper`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineMode {
    /// Skip event-free rounds.
    #[default]
    Frontier,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_rounds: 10_000_000,
            latency_known: false,
            size_hint: None,
            seed: 0,
            connection_cap: None,
            blocking: false,
        }
    }
}

/// Why a simulation stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The caller's stop condition returned `true`.
    Condition,
    /// Every node reported [`Protocol::is_done`].
    AllDone,
    /// The round cap was reached.
    MaxRounds,
}

/// Counters accumulated during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimMetrics {
    /// Exchanges initiated (edge activations).
    pub initiated: u64,
    /// Exchanges successfully delivered.
    pub delivered: u64,
    /// Exchanges lost to crashes or dropped links.
    pub lost: u64,
    /// Initiations rejected by the per-round connection cap.
    pub rejected: u64,
    /// Total payload size delivered, in protocol-defined units
    /// ([`Protocol::payload_weight`]); both directions of every
    /// delivered exchange count.
    pub payload_units: u64,
}

impl SimMetrics {
    /// Adds `other`'s counters into `self` (for cluster-wide totals over
    /// per-node shares).
    pub fn absorb(&mut self, other: &SimMetrics) {
        self.initiated += other.initiated;
        self.delivered += other.delivered;
        self.lost += other.lost;
        self.rejected += other.rejected;
        self.payload_units += other.payload_units;
    }
}

/// Engine-internal execution counters, reported per run. Unlike
/// [`SimMetrics`] these describe *how* the engine executed, not what
/// the protocol did, and are **not** part of the determinism contract
/// between [`Simulator::run`] and a hand-driven [`Stepper`]
/// (`skipped_rounds` is zero for the latter, and for a net run, by
/// construction). Reported for [`Scheduling::OnDemand`] runs only:
/// [`Scheduling::EveryRound`] runs report zeros, in the engine and the
/// net runtime alike, which the frozen `benchmark/expected.json` pins
/// for its every-round workloads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// `on_round` callbacks executed.
    pub stepped: u64,
    /// Due wakeups consumed ([`Context::wake_at`] deliveries).
    pub woken: u64,
    /// Rounds with at least one event (delivery, wakeup, or round 0).
    pub event_rounds: u64,
    /// Dead-gap rounds skipped without being visited.
    pub skipped_rounds: u64,
    /// Largest single-round frontier.
    pub peak_frontier: usize,
}

/// The result of a simulation run.
#[derive(Debug)]
pub struct Outcome<P> {
    /// Why the run stopped.
    pub reason: StopReason,
    /// The round at which it stopped (number of elapsed rounds).
    pub rounds: Round,
    /// Counters.
    pub metrics: SimMetrics,
    /// Engine execution counters (frontier occupancy, skipped rounds).
    pub stats: EngineStats,
    /// Final per-node protocol states.
    pub nodes: Vec<P>,
}

impl<P> Outcome<P> {
    /// Whether the run stopped because the caller's condition held.
    pub fn stopped_by_condition(&self) -> bool {
        self.reason == StopReason::Condition
    }

    /// Whether the run finished before hitting the round cap.
    pub fn completed(&self) -> bool {
        self.reason != StopReason::MaxRounds
    }
}

#[derive(Clone)]
struct InFlight<P> {
    a: NodeId,
    b: NodeId,
    payload_a: P,
    payload_b: P,
    initiated_at: Round,
}

/// Ring slots beyond this are not allocated; rarer, larger delays
/// spill into the overflow map. Bounds scheduler memory at ~96 KiB of
/// slot headers even for graphs with enormous `ℓ_max`.
const MAX_RING_SLOTS: u64 = 4096;

/// Calendar-queue scheduler: items filed under the round they fall
/// due. The engine keeps two — in-flight exchanges
/// (`CalendarQueue<InFlight<_>>`) and registered wakeups
/// (`CalendarQueue<u32>` of node ids) — and the `gossip-net` shard
/// runner keeps its hold of received exchanges on one.
///
/// Every round must be collected, in order: a ring slot is reused for
/// the round `slots` rounds later.
///
/// A ring of `min(max_delay + 1, MAX_RING_SLOTS)` reusable buckets
/// indexed by `due_at % slots`. An item goes into the ring only when
/// its delay is shorter than the ring, so it always falls due before
/// the ring wraps back to its slot — each slot holds items for exactly
/// one round at a time. Slots keep their `Vec` capacity across rounds,
/// so after warm-up the scheduler allocates nothing, unlike the
/// `BTreeMap<Round, Vec<_>>` it replaced (which churned a node
/// allocation plus a fresh batch `Vec` per round). Longer delays fall
/// back to a `BTreeMap` overflow. An exchange needs a latency
/// `≥ MAX_RING_SLOTS` for that (pathological constructions only).
/// Wakeup delays are unbounded, but the order of a round's wakeups is
/// irrelevant (the frontier is sorted), so ring length buys nothing and
/// the wake ring is sized like the exchange ring, which keeps a
/// [`Stepper`] clone light.
#[derive(Clone)]
pub struct CalendarQueue<T> {
    ring: Vec<Vec<T>>,
    overflow: BTreeMap<Round, Vec<T>>,
    /// Emptied overflow batches, kept for reuse: `schedule` pulls a
    /// recycled buffer instead of allocating a fresh `Vec` per
    /// overflow round, and `collect_due` pushes the drained batch
    /// back. Stays empty unless some delay reaches beyond the ring.
    spare: Vec<Vec<T>>,
    /// Items currently queued (ring + overflow); answers "is anything
    /// scheduled?" in O(1).
    len: usize,
}

/// Maps a round onto its calendar-ring slot.
///
/// `slots ≤ MAX_RING_SLOTS`, so the modulo result always fits `usize`;
/// the checked conversion keeps the (impossible) truncation loud
/// instead of silent, per the tidy `narrowing-cast` rule.
#[inline]
fn round_to_slot(round: Round, slots: u64) -> usize {
    usize::try_from(round % slots).expect("ring slot index fits usize")
}

/// Widens a validated adjacency index (stored as `u32` by
/// [`Context::initiate`]) back to a `usize` for indexing the node's
/// adjacency row and its parallel latency array.
#[inline]
fn latency_to_index(i: u32) -> usize {
    usize::try_from(i).expect("adjacency index fits usize")
}

/// Widens a frontier slot (stored as `u32` — [`NodeTable::new`]
/// asserts the slot count fits) back to a `usize` index.
#[inline]
fn frontier_index(i: u32) -> usize {
    usize::try_from(i).expect("node index fits usize")
}

/// Narrows a slot into the frontier's `u32` id space; infallible after
/// [`NodeTable::new`]'s assertion.
#[inline]
fn frontier_id(i: usize) -> u32 {
    u32::try_from(i).expect("node index fits u32")
}

impl<T> CalendarQueue<T> {
    /// An empty queue whose ring covers delays up to `max_delay`
    /// (longer ones take the overflow map).
    pub fn new(max_delay: u64) -> CalendarQueue<T> {
        let slots = (max_delay + 1).min(MAX_RING_SLOTS);
        CalendarQueue {
            ring: (0..slots).map(|_| Vec::new()).collect(),
            overflow: BTreeMap::new(),
            spare: Vec::new(),
            len: 0,
        }
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn slots(&self) -> u64 {
        u64::try_from(self.ring.len()).expect("ring length fits u64")
    }

    /// Files `item` to fall due at round `now + delay`, where `now` is
    /// the round collected last (then `delay ≥ 1`) or the next one to
    /// be collected.
    #[inline]
    pub fn schedule(&mut self, now: Round, delay: u64, item: T) {
        self.len += 1;
        if delay < self.slots() {
            let slot = round_to_slot(now + delay, self.slots());
            self.ring[slot].push(item);
        } else {
            self.overflow
                .entry(now + delay)
                .or_insert_with(|| self.spare.pop().unwrap_or_default())
                .push(item);
        }
    }

    /// Appends every item due at `round` onto `due` (scheduling
    /// order), leaving the slot's capacity in place for reuse.
    pub fn collect_due(&mut self, round: Round, due: &mut Vec<T>) {
        let before = due.len();
        // Overflow entries carry a delay ≥ the ring length while ring
        // entries carry less, so everything in the overflow batch was
        // scheduled strictly earlier than anything in the slot —
        // draining overflow first preserves the old scheduler's
        // chronological delivery order exactly.
        if let Some(mut batch) = self.overflow.remove(&round) {
            due.append(&mut batch);
            // `append` leaves `batch` empty with its capacity intact;
            // recycle it so the next overflow round allocates nothing.
            self.spare.push(batch);
        }
        let slot = round_to_slot(round, self.slots());
        due.append(&mut self.ring[slot]);
        self.len -= due.len() - before;
    }

    /// The earliest round strictly after `round` with an item due, or
    /// `None` if the queue is empty. O(slots) worst case, O(gap)
    /// typical; only consulted when skipping idle rounds.
    ///
    /// Correctness rests on the slot invariant (each occupied slot
    /// holds items for exactly one round, strictly within
    /// `(round, round + slots)` once round `round` itself has been
    /// drained), so a non-empty slot at ring distance `d` means an
    /// item due at exactly `round + d`.
    fn next_occupied_after(&self, round: Round) -> Option<Round> {
        if self.is_empty() {
            return None;
        }
        let ring = (1..self.slots())
            .find(|&d| !self.ring[round_to_slot(round + d, self.slots())].is_empty())
            .map(|d| round + d);
        let over = self.overflow.range(round + 1..).next().map(|(&r, _)| r);
        [ring, over].into_iter().flatten().min()
    }
}

/// Drives a set of [`Protocol`] instances over a
/// [`latency_graph::Graph`] under the paper's communication
/// model.
pub struct Simulator<'g> {
    graph: &'g Graph,
    config: SimConfig,
    faults: FaultPlan,
}

impl<'g> Simulator<'g> {
    /// Creates a simulator for `graph`. O(1): the graph's
    /// structure-of-arrays adjacency ([`Graph::neighbor_ids`] /
    /// [`Graph::neighbor_latencies`]) is borrowed directly, never
    /// copied.
    pub fn new(graph: &'g Graph, config: SimConfig) -> Simulator<'g> {
        Simulator {
            graph,
            config,
            faults: FaultPlan::none(),
        }
    }

    /// Injects a fault plan (crashes, link drops) into the run.
    pub fn with_faults(mut self, faults: FaultPlan) -> Simulator<'g> {
        self.faults = faults;
        self
    }

    /// Runs the simulation: a thin driver over [`Stepper`], the same
    /// stepping machinery the model checker snapshots and branches —
    /// checked code is shipped code.
    ///
    /// `factory(id, n)` builds each node's protocol instance; `stop`
    /// is evaluated over all node states after the round's deliveries
    /// and ends the run when it returns `true` — every round for
    /// [`Scheduling::EveryRound`] protocols, on event rounds only for
    /// [`Scheduling::OnDemand`] ones (see there), whose event-free
    /// rounds are skipped without being visited. The
    /// [`SimConfig::max_rounds`] cap is honored at the round number a
    /// hand-driven [`Stepper`] reaches it (skip targets are clamped to
    /// the cap).
    pub fn run<P, F, S>(&self, factory: F, mut stop: S) -> Outcome<P>
    where
        P: Protocol,
        F: FnMut(NodeId, usize) -> P,
        S: FnMut(&[P], Round) -> bool,
    {
        let mut st = self.stepper(factory);
        loop {
            st.deliver();
            if st.is_event_round() {
                if stop(st.nodes(), st.round()) {
                    return st.into_outcome(StopReason::Condition);
                }
                if st.all_done() {
                    return st.into_outcome(StopReason::AllDone);
                }
            }
            if st.at_round_cap() {
                return st.into_outcome(StopReason::MaxRounds);
            }
            st.advance();
            if Stepper::<P>::ON_DEMAND {
                st.skip_idle_rounds();
            }
        }
    }

    /// Builds a [`Stepper`] over this simulator's graph, config, and
    /// fault plan: the round loop as an inspectable value, for callers
    /// (the `gossip-mc` model checker) that need to pause between
    /// phases, snapshot/restore the full simulation state, or inject
    /// faults and scripted choices mid-run. [`Simulator::run`] drives
    /// exactly this machinery.
    pub fn stepper<P, F>(&self, factory: F) -> Stepper<'g, P>
    where
        P: Protocol,
        F: FnMut(NodeId, usize) -> P,
    {
        Stepper::new(self.graph, self.config, self.faults.clone(), factory)
    }
}

/// One exchange completion observed by [`Stepper::deliver_observed`]:
/// who initiated (`a`), the partner (`b`), when it was initiated and
/// completed, and whether a fault swallowed it (`lost`). The model
/// checker's latency, at-most-once, and spanner-orientation properties
/// are predicates over these records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// The initiating endpoint.
    pub a: NodeId,
    /// The partner endpoint.
    pub b: NodeId,
    /// The round the exchange was initiated.
    pub initiated_at: Round,
    /// The round the exchange completed (the round it was observed).
    pub completed_at: Round,
    /// Whether a crash or link fault swallowed the delivery: `true`
    /// means neither endpoint received an `on_exchange`.
    pub lost: bool,
}

/// A read-only view of one exchange still queued in a [`Stepper`],
/// with its completion round reconstructed from its calendar-ring
/// position. Yielded by [`Stepper::in_flight`] in delivery order
/// (completion round ascending; within a round, overflow batch before
/// ring slot — exactly the order `deliver` will drain them), which
/// gives the model checker a canonical encoding of the queue.
#[derive(Clone, Copy, Debug)]
pub struct InFlightView<'a, T> {
    /// The initiating endpoint.
    pub a: NodeId,
    /// The partner endpoint.
    pub b: NodeId,
    /// The round the exchange was initiated.
    pub initiated_at: Round,
    /// The round the exchange will complete.
    pub completes_at: Round,
    /// The initiator's payload snapshot (taken at initiation).
    pub payload_a: &'a T,
    /// The partner's payload snapshot (taken at initiation).
    pub payload_b: &'a T,
}

/// The engine's per-node RNG seed: node `v` under master seed `seed`
/// gets the stream `StdRng::seed_from_u64(node_seed(seed, v))`.
pub fn node_seed(seed: u64, node: NodeId) -> u64 {
    let i = u64::try_from(node.index()).expect("node index fits u64");
    splitmix64(seed ^ splitmix64(i))
}

/// One launch [`NodeTable::step`] yields: the initiating slot, the
/// chosen peer, its position in the initiator's adjacency row, and the
/// latency of the edge between them.
pub type Launch = (usize, NodeId, usize, Latency);

/// A pending initiation: the chosen peer's adjacency position, or
/// [`NO_INITIATION`].
type PendingSlot = u32;
const NO_INITIATION: PendingSlot = PendingSlot::MAX;
const _: () = assert!(mem::size_of::<PendingSlot>() == 4);

/// A wake request: the round to step the node in, or 0 for none
/// ([`Context::wake_at`] only accepts rounds after the current one).
type WakeSlot = Round;
const _: () = assert!(mem::size_of::<WakeSlot>() == 8);

/// The RNGs of a table's hosted nodes. Empty until the first draw by
/// any hosted node, which seeds all of them at once, node `v` with
/// `StdRng::seed_from_u64(node_seed(seed, v))` — the streams do not
/// depend on when the first draw happens, and a protocol that never
/// draws (the floods) keeps no RNG state at all.
#[derive(Clone, Debug)]
struct NodeRngs {
    seed: u64,
    hosted: Range<usize>,
    rngs: Vec<StdRng>,
}

impl NodeRngs {
    /// Hosted node `v`'s RNG, seeding every hosted node's on first use.
    fn get(&mut self, v: NodeId) -> &mut StdRng {
        if self.rngs.is_empty() {
            let seed = self.seed;
            self.rngs = self
                .hosted
                .clone()
                .map(|i| StdRng::seed_from_u64(node_seed(seed, NodeId::new(i))))
                .collect();
        }
        &mut self.rngs[v.index() - self.hosted.start]
    }
}

/// The per-node half of the round loop: every piece of state the §1
/// model keeps per node, for the contiguous id range a driver hosts —
/// protocols, RNGs (seeded on the first draw), the pending-initiation
/// slots (an adjacency position each, 4 B), the wake slots (a round
/// each, 8 B; [`Scheduling::OnDemand`] only), the frontier with its
/// stamps and wake calendar, done flags, the event flag,
/// [`EngineStats`] and the checker's choice tape. Slot `s` holds node
/// `base + s`.
///
/// [`Stepper`] drives one over every node of the graph; the
/// `gossip-net` shard runner drives one over the nodes a shard hosts.
/// Both run the same phase order on the same state, which is what
/// makes a net run replay the engine's:
///
/// 1. [`deliver`](Self::deliver) each exchange completing this round,
///    oldest initiation first per node, then
///    [`settle_frontier`](Self::settle_frontier);
/// 2. the driver's stop checks;
/// 3. [`step`](Self::step) — `on_round` over the frontier's live
///    nodes — and the launch (or [`reject`](Self::reject)) of each
///    initiation it yields, with payload snapshots taken now;
/// 4. [`end_round`](Self::end_round).
#[derive(Clone)]
pub struct NodeTable<'g, P: Protocol> {
    graph: &'g Graph,
    /// Node id of slot 0.
    base: usize,
    size_hint: usize,
    latency_known: bool,
    nodes: Vec<P>,
    /// Empty until the first draw by any hosted node.
    rngs: NodeRngs,
    /// Pending initiations, written by [`Context::initiate`] /
    /// [`Context::initiate_nth`]: an adjacency position, or
    /// [`NO_INITIATION`]. `step` resolves the peers.
    pending: Vec<PendingSlot>,
    /// Wake-request slots, written by [`Context::wake_at`], 0 for none.
    /// `end_round` files the frontier's requests into `wakes`; empty
    /// under [`Scheduling::EveryRound`].
    wake: Vec<WakeSlot>,
    /// This round's frontier, as ascending slots. Seeded with every
    /// slot for round 0; under [`Scheduling::EveryRound`] it stays that
    /// way, under [`Scheduling::OnDemand`] `end_round` empties it (and
    /// frees round 0's n slots) and the next round's deliveries and due
    /// wakeups refill it.
    frontier: Vec<u32>,
    /// `stamp[s] == round` ⇔ slot `s` is already listed on this round's
    /// frontier ([`Scheduling::OnDemand`] only).
    stamp: Vec<Round>,
    /// Registered wakeups ([`Scheduling::OnDemand`] only).
    wakes: CalendarQueue<u32>,
    /// All-done bookkeeping: protocol state changes only inside
    /// callbacks, so refreshing the flags of frontier members keeps
    /// the counter exact.
    done_flags: Vec<bool>,
    done_count: usize,
    /// Whether the current round is an event round — round 0, a
    /// delivery or a due wakeup; always, under
    /// [`Scheduling::EveryRound`]. Set by `settle_frontier`.
    event: bool,
    stats: EngineStats,
    /// Checker-installed choice script threaded into every callback
    /// [`Context`]; `None` in normal runs, making [`Context::choose`]
    /// fall through to the node RNG.
    tape: Option<ChoiceTape>,
}

impl<'g, P: Protocol> NodeTable<'g, P> {
    const ON_DEMAND: bool = matches!(P::SCHEDULING, Scheduling::OnDemand);

    /// Builds the round-0 state of the nodes in `hosted`: protocol
    /// instances from `factory(id, n)`, RNGs to be seeded by
    /// [`node_seed`] on the first draw, the universal round-0 frontier,
    /// and `on_start` for every node `live` accepts. Only the model
    /// fields of `config` (`seed`, `latency_known`, `size_hint`) are
    /// read.
    ///
    /// # Panics
    ///
    /// Panics if `hosted` reaches past the graph or holds more than
    /// `u32::MAX` nodes.
    pub fn new<F>(
        graph: &'g Graph,
        config: &SimConfig,
        hosted: Range<usize>,
        mut factory: F,
        mut live: impl FnMut(NodeId) -> bool,
    ) -> NodeTable<'g, P>
    where
        F: FnMut(NodeId, usize) -> P,
    {
        let n = graph.node_count();
        assert!(hosted.end <= n, "hosted nodes {hosted:?} outside {n} nodes");
        let len = hosted.len();
        let slots = u32::try_from(len).expect("the engine indexes nodes with u32 ids");
        let l_max = graph.max_latency().map_or(0, Latency::rounds);
        let mut table = NodeTable {
            graph,
            base: hosted.start,
            size_hint: config.size_hint.unwrap_or(n),
            latency_known: config.latency_known,
            nodes: hosted.clone().map(|i| factory(NodeId::new(i), n)).collect(),
            rngs: NodeRngs {
                seed: config.seed,
                hosted: hosted.clone(),
                rngs: Vec::new(),
            },
            pending: vec![NO_INITIATION; len],
            wake: vec![0; if Self::ON_DEMAND { len } else { 0 }],
            frontier: (0..slots).collect(),
            stamp: vec![0; if Self::ON_DEMAND { len } else { 0 }],
            wakes: CalendarQueue::new(if Self::ON_DEMAND { l_max } else { 0 }),
            done_flags: vec![false; len],
            done_count: 0,
            event: true,
            stats: EngineStats::default(),
            tape: None,
        };
        // Wake requests registered in `on_start` are honored like any
        // other.
        for slot in 0..len {
            if live(table.id(slot)) {
                table.with_node(slot, 0, P::on_start);
            }
        }
        table.refresh_done();
        table.file_wakeups(0);
        table
    }

    /// The node held in `slot`.
    pub fn id(&self, slot: usize) -> NodeId {
        NodeId::new(self.base + slot)
    }

    /// Runs `f` on slot `slot`'s protocol with its callback view.
    fn with_node<R>(
        &mut self,
        slot: usize,
        round: Round,
        f: impl FnOnce(&mut P, &mut Context<'_>) -> R,
    ) -> R {
        let v = self.id(slot);
        let mut ctx = Context {
            node: v,
            round,
            n: self.graph.node_count(),
            size_hint: self.size_hint,
            neighbor_ids: self.graph.neighbor_ids(v),
            latencies: self.latency_known.then(|| self.graph.neighbor_latencies(v)),
            rngs: &mut self.rngs,
            pending: &mut self.pending[slot],
            wake: self.wake.get_mut(slot),
            tape: self.tape.as_mut(),
        };
        f(&mut self.nodes[slot], &mut ctx)
    }

    /// Phase 1: hands `exchange`, completing at `round`, to slot
    /// `slot`'s `on_exchange`, putting the node on the round's
    /// frontier.
    pub fn deliver(&mut self, slot: usize, round: Round, exchange: &Exchange<P::Payload>) {
        // Round 0 is a universal wakeup: `new` seeded the frontier with
        // everyone.
        if Self::ON_DEMAND && round > 0 && mem::replace(&mut self.stamp[slot], round) != round {
            self.frontier.push(frontier_id(slot));
        }
        self.with_node(slot, round, |p, ctx| p.on_exchange(ctx, exchange));
    }

    /// Closes phase 1 of `round`: joins the due wakeups to the
    /// delivered endpoints and marks the round an event round when
    /// anything fell due (`had_due`, lost exchanges included) or
    /// anyone is on the frontier.
    pub fn settle_frontier(&mut self, round: Round, had_due: bool) {
        if Self::ON_DEMAND && round > 0 {
            // Due wakeups join the delivered endpoints, unless the
            // stamp says the node is listed already; canonical frontier
            // order is ascending slot.
            let delivered = self.frontier.len();
            self.wakes.collect_due(round, &mut self.frontier);
            let woken = self.frontier.len() - delivered;
            self.stats.woken += u64::try_from(woken).expect("wake count fits u64");
            let (stamp, mut seen) = (&mut self.stamp, 0);
            self.frontier.retain(|&id| {
                seen += 1;
                seen <= delivered || mem::replace(&mut stamp[frontier_index(id)], round) != round
            });
            self.frontier.sort_unstable();
        }
        self.stats.peak_frontier = self.stats.peak_frontier.max(self.frontier.len());
        self.event = had_due || !self.frontier.is_empty() || round == 0;
        self.stats.event_rounds += u64::from(self.event);
        // Delivery callbacks may have changed done states, and the
        // caller's stop checks come next.
        self.refresh_done();
    }

    /// Phase 3: `on_round` for every frontier node `live` accepts (a
    /// refused node's pending initiation is dropped), appending each
    /// initiation made to `out` in frontier order. The peers and edge
    /// latencies are resolved from the recorded adjacency positions in
    /// one pass after the `on_round` calls — no search of a row, and no
    /// row load inside a callback.
    pub fn step(
        &mut self,
        round: Round,
        mut live: impl FnMut(NodeId) -> bool,
        out: &mut Vec<Launch>,
    ) {
        let first = out.len();
        for k in 0..self.frontier.len() {
            let slot = frontier_index(self.frontier[k]);
            let v = self.id(slot);
            if !live(v) {
                self.pending[slot] = NO_INITIATION;
                continue;
            }
            self.stats.stepped += 1;
            self.with_node(slot, round, P::on_round);
            let nth = mem::replace(&mut self.pending[slot], NO_INITIATION);
            if nth != NO_INITIATION {
                // Peer and latency are placeholders until the pass below.
                out.push((slot, v, latency_to_index(nth), Latency::UNIT));
            }
        }
        for (slot, peer, nth, latency) in &mut out[first..] {
            let v = self.id(*slot);
            *peer = self.graph.neighbor_ids(v)[*nth];
            *latency = self.graph.neighbor_latencies(v)[*nth];
        }
    }

    /// Refuses slot `slot`'s initiation toward `peer` in `round`
    /// ([`Protocol::on_rejected`]); a rejection cannot re-initiate.
    pub fn reject(&mut self, slot: usize, round: Round, peer: NodeId) {
        self.with_node(slot, round, |p, ctx| p.on_rejected(ctx, peer));
        self.pending[slot] = NO_INITIATION;
    }

    /// Phase 4's bookkeeping, after the launches: done flags and wake
    /// requests of the frontier, which `round + 1`'s deliveries then
    /// rebuild ([`Scheduling::OnDemand`]). Round 0's frontier was every
    /// slot; an on-demand table gives that capacity back.
    pub fn end_round(&mut self, round: Round) {
        self.refresh_done();
        self.file_wakeups(round);
        if Self::ON_DEMAND {
            self.frontier.clear();
            if round == 0 {
                self.frontier.shrink_to_fit();
            }
        }
    }

    /// How many hosted nodes have a seeded RNG: none, or all of them.
    #[cfg(test)]
    fn seeded_rngs(&self) -> usize {
        self.rngs.rngs.len()
    }

    /// The frontier's allocated capacity, in slots.
    #[cfg(test)]
    fn frontier_capacity(&self) -> usize {
        self.frontier.capacity()
    }

    /// Re-reads [`Protocol::is_done`] for the frontier's nodes — the
    /// only ones whose state can have changed — into the done counter.
    fn refresh_done(&mut self) {
        for &id in &self.frontier {
            let i = frontier_index(id);
            let done = self.nodes[i].is_done();
            self.done_count = self.done_count + usize::from(done) - usize::from(self.done_flags[i]);
            self.done_flags[i] = done;
        }
    }

    /// Files the wake requests of the frontier's nodes — the only ones
    /// that can have made one — into the wake calendar.
    fn file_wakeups(&mut self, now: Round) {
        if !Self::ON_DEMAND {
            return;
        }
        for &id in &self.frontier {
            let at = mem::take(&mut self.wake[frontier_index(id)]);
            if at != 0 {
                self.wakes.schedule(now, at - now, id);
            }
        }
    }

    /// The protocol instances, by slot.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Consumes the table into its protocol instances, by slot.
    pub fn into_nodes(self) -> Vec<P> {
        self.nodes
    }

    /// Whether every node reports [`Protocol::is_done`]; O(1).
    pub fn all_done(&self) -> bool {
        self.done_count == self.nodes.len()
    }

    /// Whether the round `settle_frontier` last closed is an event
    /// round (see [`Scheduling::OnDemand`]).
    pub fn is_event_round(&self) -> bool {
        self.event
    }

    /// The execution counters — zeros for a [`Scheduling::EveryRound`]
    /// protocol, the documented [`EngineStats`] contract.
    pub fn stats(&self) -> EngineStats {
        if Self::ON_DEMAND {
            self.stats
        } else {
            EngineStats::default()
        }
    }
}

/// Settles one exchange completing at `round`. Frees the initiator's
/// blocking slot (at completion time, whether or not the exchange is
/// delivered), applies the crash / link fault filter, and counts the
/// outcome into `metrics`. Returns each endpoint's view of the
/// exchange, initiator first, with the payload snapshots moved in (the
/// delivery path never clones a payload) — or `None` when a fault
/// swallowed it.
fn settle<P: Protocol>(
    x: InFlight<P::Payload>,
    round: Round,
    config: &SimConfig,
    faults: &FaultPlan,
    outstanding: &mut [u32],
    metrics: &mut SimMetrics,
) -> Option<[(NodeId, Exchange<P::Payload>); 2]> {
    let InFlight {
        a,
        b,
        payload_a,
        payload_b,
        initiated_at,
    } = x;
    if config.blocking {
        outstanding[a.index()] = outstanding[a.index()].saturating_sub(1);
    }
    if faults.is_crashed(a, round)
        || faults.is_crashed(b, round)
        || faults.is_link_down(a, b, round)
    {
        metrics.lost += 1;
        return None;
    }
    metrics.delivered += 1;
    metrics.payload_units += P::payload_weight(&payload_a) + P::payload_weight(&payload_b);
    let view = |peer, payload, initiated_by_me| Exchange {
        peer,
        payload,
        initiated_at,
        completed_at: round,
        initiated_by_me,
    };
    Some([
        (a, view(b, payload_b, true)),
        (b, view(a, payload_a, false)),
    ])
}

/// The round loop of the paper's §1 model, reified as a steppable
/// value — the engine's only one.
///
/// Each round has a **frontier**: the nodes [`advance`](Self::advance)
/// steps. Under [`Scheduling::EveryRound`] it is every node, always;
/// under [`Scheduling::OnDemand`] it is every node in round 0 and
/// afterwards the endpoints of the round's delivered exchanges plus
/// the nodes whose wakeups fell due, as settled by
/// [`deliver`](Self::deliver). Every callback recipient of a round is
/// on its frontier, so all per-round bookkeeping is O(frontier).
///
/// [`Simulator::run`] is a thin driver over this type for every
/// protocol, so anything a verifier proves about `Stepper` transitions
/// it proves about the shipping engine — checked code is shipped code.
/// Beyond plain stepping, the `gossip-mc` model checker:
///
/// * clones it (`Clone` is a deep snapshot — every piece of mutable
///   simulation state is plain owned data);
/// * installs a [`ChoiceTape`] so [`Context::choose`] branches are
///   enumerated instead of sampled;
/// * injects crashes and link drops mid-run
///   ([`inject_crash`](Self::inject_crash) /
///   [`inject_link_drop`](Self::inject_link_drop));
/// * observes deliveries ([`deliver_observed`](Self::deliver_observed))
///   and the queued exchanges ([`in_flight`](Self::in_flight)) to
///   evaluate properties.
///
/// One full round is exactly one `deliver()`, the caller's stop checks
/// ([`all_done`](Self::all_done) / [`at_round_cap`](Self::at_round_cap)
/// / a custom condition over [`nodes`](Self::nodes)), then one
/// [`advance`](Self::advance) — the phase order of
/// [`Simulator::run`]. A hand-driven stepper visits every round
/// number; skipping event-free rounds is [`Simulator::run`]'s private
/// shortcut.
#[derive(Clone)]
pub struct Stepper<'g, P: Protocol> {
    graph: &'g Graph,
    config: SimConfig,
    faults: FaultPlan,
    /// Everything kept per node, frontier included.
    table: NodeTable<'g, P>,
    queue: CalendarQueue<InFlight<P::Payload>>,
    /// Delivery batch, reused every round.
    due: Vec<InFlight<P::Payload>>,
    /// This round's initiations, reused every round.
    launches: Vec<Launch>,
    /// Blocking mode: outstanding own-initiated exchanges per node.
    outstanding: Vec<u32>,
    /// Capped model only: per-node `(round, engagements)` counters — a
    /// count is valid iff its round stamp is current, so per-round
    /// resets are O(touched), not O(n).
    engaged: Vec<(Round, usize)>,
    metrics: SimMetrics,
    round: Round,
}

impl<'g, P: Protocol> Stepper<'g, P> {
    const ON_DEMAND: bool = matches!(P::SCHEDULING, Scheduling::OnDemand);

    /// Builds the round-0 state: the node table (whose `on_start`
    /// sweep skips nodes crashed at round 0), empty queues and
    /// counters. `on_start` runs without a choice tape (none can be
    /// installed yet); none of the shipped protocols branch there.
    fn new<F>(graph: &'g Graph, config: SimConfig, faults: FaultPlan, factory: F) -> Stepper<'g, P>
    where
        F: FnMut(NodeId, usize) -> P,
    {
        let n = graph.node_count();
        let l_max = graph.max_latency().map_or(0, Latency::rounds);
        let table = NodeTable::new(graph, &config, 0..n, factory, |v| !faults.is_crashed(v, 0));
        Stepper {
            graph,
            config,
            faults,
            table,
            queue: CalendarQueue::new(l_max),
            due: Vec::new(),
            launches: Vec::new(),
            outstanding: vec![0; if config.blocking { n } else { 0 }],
            engaged: vec![
                (Round::MAX, 0);
                if config.connection_cap.is_some() {
                    n
                } else {
                    0
                }
            ],
            metrics: SimMetrics::default(),
            round: 0,
        }
    }

    /// The current round — the one `deliver` and `advance` operate on.
    pub fn round(&self) -> Round {
        self.round
    }

    /// The node protocol instances, in id order.
    pub fn nodes(&self) -> &[P] {
        self.table.nodes()
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> SimMetrics {
        self.metrics
    }

    /// The graph being simulated.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The fault plan currently in force, including injected faults.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Whether every node reports [`Protocol::is_done`]. O(1): reads
    /// the done counter `deliver` and `advance` keep current.
    pub fn all_done(&self) -> bool {
        self.table.all_done()
    }

    /// Whether the round counter has reached [`SimConfig::max_rounds`].
    pub fn at_round_cap(&self) -> bool {
        self.round >= self.config.max_rounds
    }

    /// Whether the round `deliver` last settled is an event round
    /// (see [`Scheduling::OnDemand`]; always, under
    /// [`Scheduling::EveryRound`]): [`Simulator::run`] consults its
    /// stop checks only then, and a hand-driven loop that wants its
    /// stop rounds must do the same.
    pub fn is_event_round(&self) -> bool {
        self.table.is_event_round()
    }

    /// Installs a choice tape: until [taken
    /// back](Self::take_choice_tape), every [`Context::choose`] inside
    /// `deliver`/`advance` callbacks is scripted by it instead of drawn
    /// from the node RNG.
    pub fn set_choice_tape(&mut self, tape: ChoiceTape) {
        self.table.tape = Some(tape);
    }

    /// Removes and returns the installed choice tape, carrying its
    /// recorded `taken`/`arities` trail.
    pub fn take_choice_tape(&mut self) -> Option<ChoiceTape> {
        self.table.tape.take()
    }

    /// Crashes node `v` as of the current round: it is no longer
    /// stepped, and every exchange touching it from now on is lost.
    pub fn inject_crash(&mut self, v: NodeId) {
        let plan = mem::replace(&mut self.faults, FaultPlan::none());
        self.faults = plan.crash(v, self.round);
    }

    /// Permanently drops the link `{u, v}` as of the current round.
    pub fn inject_link_drop(&mut self, u: NodeId, v: NodeId) {
        let plan = mem::replace(&mut self.faults, FaultPlan::none());
        self.faults = plan.drop_link(u, v, self.round);
    }

    /// Phase 1 of the round: delivers every exchange completing now
    /// (fault-filtered), invoking `on_exchange` at both endpoints, and
    /// settles the round's frontier.
    pub fn deliver(&mut self) {
        self.deliver_inner(None);
    }

    /// [`deliver`](Self::deliver), additionally appending one
    /// [`DeliveryRecord`] per completing exchange — lost ones included
    /// — to `log`: the model checker's observation channel.
    pub fn deliver_observed(&mut self, log: &mut Vec<DeliveryRecord>) {
        self.deliver_inner(Some(log));
    }

    fn deliver_inner(&mut self, mut log: Option<&mut Vec<DeliveryRecord>>) {
        let round = self.round;
        let mut due = mem::take(&mut self.due);
        self.queue.collect_due(round, &mut due);
        let had_due = !due.is_empty();
        for x in due.drain(..) {
            let (a, b, initiated_at) = (x.a, x.b, x.initiated_at);
            let views = settle::<P>(
                x,
                round,
                &self.config,
                &self.faults,
                &mut self.outstanding,
                &mut self.metrics,
            );
            if let Some(log) = log.as_deref_mut() {
                log.push(DeliveryRecord {
                    a,
                    b,
                    initiated_at,
                    completed_at: round,
                    lost: views.is_none(),
                });
            }
            for (me, exchange) in views.into_iter().flatten() {
                self.table.deliver(me.index(), round, &exchange);
            }
        }
        self.due = due;
        self.table.settle_frontier(round, had_due);
    }

    /// Phases 3–4 of the round — `on_round` for the frontier's live
    /// nodes, then the launch of admitted initiations with payload
    /// snapshots taken now — followed by the end-of-round bookkeeping
    /// and the round increment (by exactly one).
    pub fn advance(&mut self) {
        let round = self.round;
        let mut launches = mem::take(&mut self.launches);
        let faults = &self.faults;
        self.table
            .step(round, |v| !faults.is_crashed(v, round), &mut launches);

        // Under a connection cap initiations are admitted in a
        // seeded-random order — the stable sort of the ascending
        // launches gives the same relative order a sort of all n nodes
        // would — and an initiation counts one engagement at each
        // endpoint, rejected when either side is full.
        let cap = self.config.connection_cap;
        if cap.is_some() {
            let seed = self.config.seed;
            launches.sort_by_key(|&(i, ..)| {
                splitmix64(seed ^ round.wrapping_mul(0x5851_F42D) ^ u64::from(frontier_id(i)))
            });
        }
        let engagements = |(at, count): (Round, usize)| if at == round { count } else { 0 };
        for &(i, v, _, lat) in &launches {
            let mut admitted = !(self.config.blocking && self.outstanding[i] > 0);
            if let (true, Some(cap)) = (admitted, cap) {
                let mine = engagements(self.engaged[i]);
                let theirs = engagements(self.engaged[v.index()]);
                admitted = mine < cap && theirs < cap;
                if admitted {
                    self.engaged[i] = (round, mine + 1);
                    self.engaged[v.index()] = (round, theirs + 1);
                }
            }
            if !admitted {
                self.metrics.rejected += 1;
                self.table.reject(i, round, v);
                continue;
            }
            self.metrics.initiated += 1;
            if self.config.blocking {
                self.outstanding[i] += 1;
            }
            let nodes = self.table.nodes();
            self.queue.schedule(
                round,
                lat.rounds(),
                InFlight {
                    a: NodeId::new(i),
                    b: v,
                    payload_a: nodes[i].payload(),
                    payload_b: nodes[v.index()].payload(),
                    initiated_at: round,
                },
            );
        }
        launches.clear();
        self.launches = launches;
        // Steps and rejections may have changed done states.
        self.table.end_round(round);
        self.round += 1;
    }

    /// [`Simulator::run`]'s shortcut, taken right after `advance`:
    /// jumps the round counter over event-free rounds to the next
    /// exchange completion or wakeup, clamped to the cap (where
    /// `MaxRounds` fires at the identical round number).
    fn skip_idle_rounds(&mut self) {
        let last = self.round - 1;
        let next = [
            self.queue.next_occupied_after(last),
            self.table.wakes.next_occupied_after(last),
        ]
        .into_iter()
        .flatten()
        .min()
        // Quiescent: no exchange in flight, no wakeup registered —
        // nothing can ever happen again.
        .unwrap_or(self.config.max_rounds)
        .min(self.config.max_rounds);
        self.table.stats.skipped_rounds += next - self.round;
        self.round = next;
    }

    /// Every exchange still queued, in delivery order (completion
    /// round ascending; within a round, overflow batch before ring
    /// slot), with completion rounds reconstructed from ring positions
    /// via the slot invariant: each occupied slot holds exactly one
    /// completion round, within `[round, round + slots)`.
    pub fn in_flight(&self) -> Vec<InFlightView<'_, P::Payload>> {
        let slots = self.queue.slots();
        let mut entries: Vec<(Round, u8, &InFlight<P::Payload>)> = Vec::new();
        for (&at, batch) in &self.queue.overflow {
            entries.extend(batch.iter().map(|x| (at, 0, x)));
        }
        for (s, slot) in self.queue.ring.iter().enumerate() {
            if slot.is_empty() {
                continue;
            }
            let s = u64::try_from(s).expect("ring slot index fits u64");
            let at = self.round + (s + slots - self.round % slots) % slots;
            entries.extend(slot.iter().map(|x| (at, 1, x)));
        }
        // Stable sort: initiation order within a slot is preserved.
        entries.sort_by_key(|&(at, tier, _)| (at, tier));
        entries
            .into_iter()
            .map(|(at, _, x)| InFlightView {
                a: x.a,
                b: x.b,
                initiated_at: x.initiated_at,
                completes_at: at,
                payload_a: &x.payload_a,
                payload_b: &x.payload_b,
            })
            .collect()
    }

    /// Consumes the stepper into a terminal [`Outcome`].
    pub fn into_outcome(self, reason: StopReason) -> Outcome<P> {
        Outcome {
            reason,
            rounds: self.round,
            metrics: self.metrics,
            stats: self.table.stats(),
            nodes: self.table.into_nodes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rumor::RumorSet;
    use latency_graph::{generators, Graph};

    /// Flood: every round exchange with a round-robin neighbor. Uses the
    /// copy-on-write payload, so these tests double as engine-level
    /// coverage of `RumorSet` snapshot semantics.
    #[derive(Clone)]
    struct Flood {
        rumors: RumorSet,
        cursor: usize,
    }

    impl Protocol for Flood {
        type Payload = RumorSet;
        fn payload(&self) -> RumorSet {
            self.rumors.snapshot()
        }
        fn on_round(&mut self, ctx: &mut Context<'_>) {
            if ctx.degree() == 0 {
                return;
            }
            let i = self.cursor % ctx.degree();
            self.cursor += 1;
            ctx.initiate_nth(i);
        }
        fn on_exchange(&mut self, _ctx: &mut Context<'_>, x: &Exchange<RumorSet>) {
            self.rumors.union_with(&x.payload);
        }
    }

    fn flood_factory(id: NodeId, n: usize) -> Flood {
        Flood {
            rumors: RumorSet::singleton(n, id),
            cursor: 0,
        }
    }

    fn all_know_source(nodes: &[Flood], src: NodeId) -> bool {
        nodes.iter().all(|f| f.rumors.contains(src))
    }

    #[test]
    fn two_nodes_unit_latency_one_round() {
        let g = Graph::from_edges(2, [(0, 1, 1)]).unwrap();
        let out = Simulator::new(&g, SimConfig::default()).run(flood_factory, |ns, _| {
            all_know_source(ns, NodeId::new(0)) && all_know_source(ns, NodeId::new(1))
        });
        assert_eq!(out.rounds, 1);
        assert_eq!(out.reason, StopReason::Condition);
    }

    #[test]
    fn latency_delays_delivery_exactly() {
        let g = Graph::from_edges(2, [(0, 1, 7)]).unwrap();
        let out = Simulator::new(&g, SimConfig::default())
            .run(flood_factory, |ns, _| ns[1].rumors.contains(NodeId::new(0)));
        assert_eq!(out.rounds, 7);
    }

    #[test]
    fn exchange_is_bidirectional() {
        let g = Graph::from_edges(2, [(0, 1, 3)]).unwrap();
        // Only node 0 initiates (node 1 has cursor too, but exchange from
        // 0 delivers to both; check both learned).
        let out = Simulator::new(&g, SimConfig::default()).run(flood_factory, |ns, _| {
            ns[0].rumors.is_full() && ns[1].rumors.is_full()
        });
        assert_eq!(out.rounds, 3);
    }

    #[test]
    fn snapshot_taken_at_initiation() {
        // Path 0 -1- 1 -5- 2. Node 2's exchange with 1 initiated at round
        // 0 carries 1's round-0 state, which does NOT include 0's rumor:
        // rumor 0 reaches node 1 at round 1, so node 2 can only learn it
        // from an exchange initiated at round ≥ 1, completing at ≥ 6.
        let g = Graph::from_edges(3, [(0, 1, 1), (1, 2, 5)]).unwrap();
        let out = Simulator::new(&g, SimConfig::default())
            .run(flood_factory, |ns, _| ns[2].rumors.contains(NodeId::new(0)));
        assert_eq!(out.rounds, 6);
    }

    #[test]
    fn non_blocking_pipelining() {
        // Star with slow spokes: hub initiates a new exchange every round
        // even though each takes 5 rounds. Rumor of spoke i (contacted at
        // round i-1... hub contacts spokes round-robin) arrives at 5, 6, 7.
        let g = Graph::from_edges(4, [(0, 1, 5), (0, 2, 5), (0, 3, 5)]).unwrap();
        let out = Simulator::new(&g, SimConfig::default())
            .run(flood_factory, |ns, _| ns[0].rumors.is_full());
        // Hub contacts 1 at round 0, 2 at round 1, 3 at round 2 ⇒ full at 7.
        // (Spokes also initiate toward the hub at round 0, delivering
        // their rumor at round 5, which can only make this earlier.)
        assert!(out.rounds <= 7, "rounds = {}", out.rounds);
        assert!(out.rounds >= 5);
    }

    #[test]
    fn flood_completes_on_cycle() {
        let g = generators::cycle(16);
        let out = Simulator::new(&g, SimConfig::default())
            .run(flood_factory, |ns, _| ns.iter().all(|f| f.rumors.is_full()));
        assert_eq!(out.reason, StopReason::Condition);
        assert!(out.rounds <= 32);
        assert!(out.metrics.delivered > 0);
    }

    #[test]
    fn max_rounds_respected() {
        let g = generators::path(4);
        // Impossible condition.
        let cfg = SimConfig {
            max_rounds: 10,
            ..SimConfig::default()
        };
        let out = Simulator::new(&g, cfg).run(flood_factory, |_, _| false);
        assert_eq!(out.reason, StopReason::MaxRounds);
        assert_eq!(out.rounds, 10);
    }

    #[test]
    fn deterministic_given_seed() {
        struct RandomCall {
            rumors: RumorSet,
            log: Vec<NodeId>,
        }
        impl Protocol for RandomCall {
            type Payload = RumorSet;
            fn payload(&self) -> RumorSet {
                self.rumors.clone()
            }
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                use rand::Rng as _;
                let d = ctx.degree();
                let i = ctx.rng().random_range(0..d);
                let v = ctx.neighbor_ids()[i];
                self.log.push(v);
                ctx.initiate(v);
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, x: &Exchange<RumorSet>) {
                self.rumors.union_with(&x.payload);
            }
        }
        let g = generators::clique(10);
        let mk = |id: NodeId, n: usize| RandomCall {
            rumors: RumorSet::singleton(n, id),
            log: vec![],
        };
        let cfg = SimConfig {
            seed: 11,
            ..SimConfig::default()
        };
        let a = Simulator::new(&g, cfg).run(mk, |ns, _| ns.iter().all(|x| x.rumors.is_full()));
        let b = Simulator::new(&g, cfg).run(mk, |ns, _| ns.iter().all(|x| x.rumors.is_full()));
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.nodes[0].log, b.nodes[0].log);
        let cfg2 = SimConfig {
            seed: 12,
            ..SimConfig::default()
        };
        let c = Simulator::new(&g, cfg2).run(mk, |ns, _| ns.iter().all(|x| x.rumors.is_full()));
        assert_ne!(a.nodes[0].log, c.nodes[0].log);
    }

    #[test]
    fn latency_knowledge_gated() {
        struct Peek {
            saw: Option<Latency>,
        }
        impl Protocol for Peek {
            type Payload = ();
            fn payload(&self) {}
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                self.saw = ctx.latency_to(ctx.neighbor_ids()[0]);
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, _: &Exchange<()>) {}
        }
        let g = Graph::from_edges(2, [(0, 1, 9)]).unwrap();
        let hidden =
            Simulator::new(&g, SimConfig::default()).run(|_, _| Peek { saw: None }, |_, r| r >= 1);
        assert_eq!(hidden.nodes[0].saw, None);
        let known = Simulator::new(
            &g,
            SimConfig {
                latency_known: true,
                ..SimConfig::default()
            },
        )
        .run(|_, _| Peek { saw: None }, |_, r| r >= 1);
        assert_eq!(known.nodes[0].saw, Some(Latency::new(9)));
    }

    #[test]
    fn measured_latency_matches_edge() {
        struct Measure {
            measured: Option<Latency>,
            fired: bool,
        }
        impl Protocol for Measure {
            type Payload = ();
            fn payload(&self) {}
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                if !self.fired && ctx.id() == NodeId::new(0) {
                    self.fired = true;
                    ctx.initiate(NodeId::new(1));
                }
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, x: &Exchange<()>) {
                self.measured = Some(x.measured_latency());
            }
        }
        let g = Graph::from_edges(2, [(0, 1, 6)]).unwrap();
        let out = Simulator::new(&g, SimConfig::default()).run(
            |_, _| Measure {
                measured: None,
                fired: false,
            },
            |ns: &[Measure], _| ns[0].measured.is_some(),
        );
        assert_eq!(out.nodes[0].measured, Some(Latency::new(6)));
        assert_eq!(out.nodes[1].measured, Some(Latency::new(6)));
    }

    #[test]
    fn size_hint_defaults_to_n_and_overrides() {
        struct SeeHint {
            hint: usize,
        }
        impl Protocol for SeeHint {
            type Payload = ();
            fn payload(&self) {}
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                self.hint = ctx.size_hint();
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, _: &Exchange<()>) {}
        }
        let g = generators::path(5);
        let d =
            Simulator::new(&g, SimConfig::default()).run(|_, _| SeeHint { hint: 0 }, |_, r| r >= 1);
        assert_eq!(d.nodes[0].hint, 5);
        let h = Simulator::new(
            &g,
            SimConfig {
                size_hint: Some(25),
                ..SimConfig::default()
            },
        )
        .run(|_, _| SeeHint { hint: 0 }, |_, r| r >= 1);
        assert_eq!(h.nodes[0].hint, 25);
    }

    #[test]
    fn all_done_stops_run() {
        struct OneShot {
            done: bool,
        }
        impl Protocol for OneShot {
            type Payload = ();
            fn payload(&self) {}
            fn on_round(&mut self, _: &mut Context<'_>) {
                self.done = true;
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, _: &Exchange<()>) {}
            fn is_done(&self) -> bool {
                self.done
            }
        }
        let g = generators::path(3);
        let out = Simulator::new(&g, SimConfig::default())
            .run(|_, _| OneShot { done: false }, |_, _| false);
        assert_eq!(out.reason, StopReason::AllDone);
        assert_eq!(out.rounds, 1);
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn initiate_non_neighbor_panics() {
        struct Bad;
        impl Protocol for Bad {
            type Payload = ();
            fn payload(&self) {}
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                ctx.initiate(NodeId::new(2)); // not adjacent in a path 0-1-2
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, _: &Exchange<()>) {}
        }
        let g = generators::path(3);
        let _ = Simulator::new(&g, SimConfig::default()).run(|_, _| Bad, |_, _| false);
    }

    #[test]
    fn connection_cap_serializes_star_broadcast() {
        // Restricted model (conclusion / Daum et al. [24]): with cap 1,
        // the hub engages one exchange per round, so informing all n−1
        // leaves takes Θ(n) rounds instead of 1.
        let n = 32;
        let g = generators::star(n);
        let capped = SimConfig {
            connection_cap: Some(1),
            ..SimConfig::default()
        };
        let out = Simulator::new(&g, capped).run(flood_factory, |ns: &[Flood], _| {
            ns.iter().all(|f| f.rumors.contains(NodeId::new(0)))
        });
        assert!(out.rounds >= (n as u64 - 1) / 2, "rounds = {}", out.rounds);
        assert!(out.metrics.rejected > 0);
        let free = Simulator::new(&g, SimConfig::default())
            .run(flood_factory, |ns: &[Flood], _| {
                ns.iter().all(|f| f.rumors.contains(NodeId::new(0)))
            });
        assert_eq!(free.rounds, 1);
        assert_eq!(free.metrics.rejected, 0);
    }

    #[test]
    fn generous_cap_equals_uncapped() {
        let g = generators::cycle(12);
        let capped = SimConfig {
            connection_cap: Some(12),
            ..SimConfig::default()
        };
        let a = Simulator::new(&g, capped).run(flood_factory, |ns: &[Flood], _| {
            ns.iter().all(|f| f.rumors.is_full())
        });
        let b = Simulator::new(&g, SimConfig::default()).run(flood_factory, |ns: &[Flood], _| {
            ns.iter().all(|f| f.rumors.is_full())
        });
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.metrics.rejected, 0);
    }

    #[test]
    fn rejection_callback_fires() {
        struct CountReject {
            rumors: RumorSet,
            rejections: usize,
        }
        impl Protocol for CountReject {
            type Payload = RumorSet;
            fn payload(&self) -> RumorSet {
                self.rumors.clone()
            }
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                // Everyone hammers node 0.
                let target = NodeId::new(0);
                if ctx.id() != target && ctx.neighbor_ids().contains(&target) {
                    ctx.initiate(target);
                }
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, x: &Exchange<RumorSet>) {
                self.rumors.union_with(&x.payload);
            }
            fn on_rejected(&mut self, _: &mut Context<'_>, peer: NodeId) {
                assert_eq!(peer, NodeId::new(0));
                self.rejections += 1;
            }
        }
        let g = generators::star(8);
        let cfg = SimConfig {
            connection_cap: Some(1),
            max_rounds: 3,
            ..SimConfig::default()
        };
        let out = Simulator::new(&g, cfg).run(
            |id, n| CountReject {
                rumors: RumorSet::singleton(n, id),
                rejections: 0,
            },
            |_, _| false,
        );
        let total: usize = out.nodes.iter().map(|x| x.rejections).sum();
        assert!(total > 0, "some initiations must be rejected");
        assert_eq!(total as u64, out.metrics.rejected);
    }

    #[test]
    fn blocking_serializes_own_initiations() {
        // Only the hub initiates, over latency-5 spokes. Non-blocking:
        // probes launch at rounds 0,1,2 and the hub is full at 7.
        // Blocking: probes serialize at rounds 0,5,10 ⇒ full at 15.
        struct HubOnly {
            rumors: RumorSet,
            cursor: usize,
        }
        impl Protocol for HubOnly {
            type Payload = RumorSet;
            fn payload(&self) -> RumorSet {
                self.rumors.clone()
            }
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                if ctx.id() == NodeId::new(0) {
                    let v = ctx.neighbor_ids()[self.cursor % ctx.degree()];
                    self.cursor += 1;
                    ctx.initiate(v);
                }
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, x: &Exchange<RumorSet>) {
                self.rumors.union_with(&x.payload);
            }
        }
        let mk = |id: NodeId, n: usize| HubOnly {
            rumors: RumorSet::singleton(n, id),
            cursor: 0,
        };
        let g = Graph::from_edges(4, [(0, 1, 5), (0, 2, 5), (0, 3, 5)]).unwrap();
        let free = Simulator::new(&g, SimConfig::default())
            .run(mk, |ns: &[HubOnly], _| ns[0].rumors.is_full());
        let blocked = Simulator::new(
            &g,
            SimConfig {
                blocking: true,
                ..SimConfig::default()
            },
        )
        .run(mk, |ns: &[HubOnly], _| ns[0].rumors.is_full());
        assert_eq!(free.rounds, 7, "non-blocking pipelines");
        assert_eq!(blocked.rounds, 15, "blocking serializes the probes");
        assert!(blocked.metrics.rejected > 0);
    }

    #[test]
    fn blocking_noop_on_unit_latencies() {
        // With unit latencies every exchange completes before the next
        // round, so blocking never rejects anything.
        let g = generators::cycle(10);
        let free = Simulator::new(&g, SimConfig::default())
            .run(flood_factory, |ns: &[Flood], _| {
                ns.iter().all(|f| f.rumors.is_full())
            });
        let blocked = Simulator::new(
            &g,
            SimConfig {
                blocking: true,
                ..SimConfig::default()
            },
        )
        .run(flood_factory, |ns: &[Flood], _| {
            ns.iter().all(|f| f.rumors.is_full())
        });
        assert_eq!(free.rounds, blocked.rounds);
        assert_eq!(blocked.metrics.rejected, 0);
    }

    #[test]
    fn metrics_count_initiations_and_deliveries() {
        let g = Graph::from_edges(2, [(0, 1, 2)]).unwrap();
        let out = Simulator::new(&g, SimConfig::default())
            .run(flood_factory, |ns, _| ns.iter().all(|f| f.rumors.is_full()));
        // Both nodes initiate at round 0 and 1; completion at round 2.
        assert_eq!(out.rounds, 2);
        assert_eq!(out.metrics.initiated, 4);
        assert_eq!(out.metrics.delivered, 2);
    }

    #[test]
    fn latency_beyond_ring_uses_overflow() {
        // One edge slower than the calendar ring has slots for: the
        // exchange must take the overflow path and still deliver at
        // exactly `latency` rounds.
        let slow = u32::try_from(MAX_RING_SLOTS + 17).unwrap();
        let g = Graph::from_edges(2, [(0, 1, slow)]).unwrap();
        let out = Simulator::new(&g, SimConfig::default())
            .run(flood_factory, |ns, _| ns[1].rumors.contains(NodeId::new(0)));
        assert_eq!(out.rounds, u64::from(slow));
    }

    #[test]
    fn calendar_queue_delivers_in_initiation_order() {
        // Schedule exchanges whose completion rounds collide across the
        // ring/overflow boundary; collection must be chronological by
        // initiation round.
        let target = MAX_RING_SLOTS + 50;
        let mut q: CalendarQueue<InFlight<u64>> = CalendarQueue::new(MAX_RING_SLOTS + 100);
        let mk = |tag: u64, initiated_at: Round| InFlight {
            a: NodeId::new(0),
            b: NodeId::new(1),
            payload_a: tag,
            payload_b: tag,
            initiated_at,
        };
        // Initiated at round 0 with huge latency (overflow)...
        q.schedule(0, target, mk(0, 0));
        // ...and at a later round with a small latency (ring), both
        // completing at `target`. Rounds advance one at a time, as in
        // the engine: collect, then schedule that round's initiations.
        let mut due = Vec::new();
        for round in 0..target {
            q.collect_due(round, &mut due);
            assert!(due.is_empty(), "nothing completes before round {target}");
            if round == target - 3 {
                q.schedule(round, 3, mk(1, round));
            }
        }
        q.collect_due(target, &mut due);
        let tags: Vec<u64> = due.iter().map(|x| x.payload_a).collect();
        assert_eq!(tags, [0, 1], "overflow (older) before ring (newer)");
        due.clear();
    }

    #[test]
    fn calendar_queue_reuses_slot_capacity() {
        let mut q: CalendarQueue<InFlight<()>> = CalendarQueue::new(1);
        assert_eq!(q.slots(), 2);
        let mk = |r: Round| InFlight {
            a: NodeId::new(0),
            b: NodeId::new(1),
            payload_a: (),
            payload_b: (),
            initiated_at: r,
        };
        let mut due = Vec::new();
        for round in 0..100u64 {
            q.schedule(round, 1, mk(round));
            q.collect_due(round, &mut due);
            due.drain(..);
        }
        // Unit-latency traffic ping-pongs between the two slots; after
        // warm-up both retain their buffers and nothing reallocates.
        assert!(q.ring.iter().all(|s| s.capacity() >= 1));
        assert!(q.overflow.is_empty());
    }

    #[test]
    fn calendar_queue_recycles_overflow_buffers() {
        // Repeated overflow rounds must reuse one recycled buffer
        // rather than allocating a fresh Vec per hit, and each batch
        // must come out in initiation order.
        let mut q: CalendarQueue<InFlight<u64>> = CalendarQueue::new(MAX_RING_SLOTS + 10);
        let mk = |tag: u64, initiated_at: Round| InFlight {
            a: NodeId::new(0),
            b: NodeId::new(1),
            payload_a: tag,
            payload_b: tag,
            initiated_at,
        };
        let mut due = Vec::new();
        for burst in 0..5u64 {
            let start = burst * (MAX_RING_SLOTS + 2);
            // Two exchanges initiated in order, completing in the same
            // overflow round.
            q.schedule(start, MAX_RING_SLOTS + 2, mk(2 * burst, start));
            q.schedule(start + 1, MAX_RING_SLOTS + 1, mk(2 * burst + 1, start + 1));
            q.collect_due(start + MAX_RING_SLOTS + 2, &mut due);
            let tags: Vec<u64> = due.drain(..).map(|x| x.payload_a).collect();
            assert_eq!(tags, [2 * burst, 2 * burst + 1], "initiation order");
            assert!(q.overflow.is_empty());
            assert_eq!(q.spare.len(), 1, "one buffer recycled, not re-allocated");
            assert!(q.spare[0].capacity() >= 2, "capacity survives recycling");
        }
    }

    #[test]
    fn shared_payload_snapshot_isolated_at_engine_level() {
        // Node 0 keeps mutating its rumor set every round while its
        // latency-4 exchange is in flight; the snapshot delivered to
        // node 1 must reflect round-0 state only. `Grow` inserts its
        // *own* id repeatedly plus marker ids it learns over time.
        struct Grow {
            rumors: RumorSet,
            fired: bool,
        }
        impl Protocol for Grow {
            type Payload = RumorSet;
            fn payload(&self) -> RumorSet {
                self.rumors.snapshot()
            }
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                // After round 0, node 0 "learns" synthetic rumors
                // locally (ids 2..), mutating the shared buffer while a
                // snapshot is outstanding.
                if ctx.id() == NodeId::new(0) {
                    let r = usize::try_from(ctx.round()).unwrap();
                    self.rumors.insert(NodeId::new(2 + r % 8));
                    if !self.fired {
                        self.fired = true;
                        ctx.initiate(NodeId::new(1));
                    }
                }
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, x: &Exchange<RumorSet>) {
                self.rumors.union_with(&x.payload);
            }
        }
        let g = Graph::from_edges(2, [(0, 1, 4)]).unwrap();
        let out = Simulator::new(&g, SimConfig::default()).run(
            |id, n| Grow {
                rumors: RumorSet::singleton(10.max(n), id),
                fired: false,
            },
            |ns: &[Grow], _| ns[1].rumors.contains(NodeId::new(0)),
        );
        assert_eq!(out.rounds, 4);
        // The snapshot was taken at round 0, before any synthetic rumor
        // beyond id 2 existed (round 0 inserts id 2 *before* initiating,
        // in on_round order). Later inserts (ids 3, 4, 5 at rounds 1-3)
        // must NOT leak into the delivered payload.
        let n1 = &out.nodes[1].rumors;
        assert!(n1.contains(NodeId::new(0)));
        assert!(n1.contains(NodeId::new(2)), "round-0 state travels");
        for later in 3..6 {
            assert!(
                !n1.contains(NodeId::new(later)),
                "rumor {later} inserted after initiation leaked into the snapshot"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not after the current round")]
    fn wake_at_current_round_panics() {
        // Boundary case pinned by the `Context::wake_at` docs: a wakeup
        // at (or before) the current round is a programming error, not
        // a clamp-to-next-round.
        struct BadWaker;
        impl Protocol for BadWaker {
            const SCHEDULING: Scheduling = Scheduling::OnDemand;
            type Payload = ();
            fn payload(&self) {}
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                let now = ctx.round();
                ctx.wake_at(now);
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, _: &Exchange<()>) {}
        }
        let g = generators::path(2);
        let _ = Simulator::new(&g, SimConfig::default()).run(|_, _| BadWaker, |_, _| false);
    }

    /// On-demand node that logs the rounds it is stepped in and, in
    /// round 0, registers its one wakeup.
    struct Waker {
        at: Round,
        steps: Vec<Round>,
    }

    impl Protocol for Waker {
        const SCHEDULING: Scheduling = Scheduling::OnDemand;
        type Payload = ();
        fn payload(&self) {}
        fn on_round(&mut self, ctx: &mut Context<'_>) {
            self.steps.push(ctx.round());
            if ctx.round() == 0 {
                ctx.wake_at(self.at);
            }
        }
        fn on_exchange(&mut self, _: &mut Context<'_>, _: &Exchange<()>) {}
    }

    #[test]
    fn wake_at_next_round_fires_exactly_once() {
        // The other boundary: `wake_at(round + 1)` is the earliest legal
        // wakeup, and it steps the node exactly once.
        let g = generators::path(2);
        let waker = |_, _| Waker {
            at: 1,
            steps: vec![],
        };
        let cfg = SimConfig {
            max_rounds: 5,
            ..SimConfig::default()
        };
        let out = Simulator::new(&g, cfg).run(waker, |_, _| false);
        assert_eq!(out.reason, StopReason::MaxRounds);
        for node in &out.nodes {
            assert_eq!(node.steps, vec![0, 1]);
        }
        // A hand-driven stepper honors the same contract: visiting
        // every round number does not mean stepping every node.
        let mut st = Simulator::new(&g, SimConfig::default()).stepper(waker);
        for _ in 0..5 {
            st.deliver();
            st.advance();
        }
        for node in st.nodes() {
            assert_eq!(node.steps, vec![0, 1]);
        }
    }

    #[test]
    fn every_round_runs_report_zero_engine_stats() {
        // The `EngineStats` contract the frozen benchmark pins rely on:
        // zeros for an every-round protocol, real counts on demand.
        let g = generators::path(2);
        let flood = Simulator::new(&g, SimConfig::default())
            .run(flood_factory, |ns, _| ns.iter().all(|f| f.rumors.is_full()));
        assert!(flood.rounds > 0);
        assert_eq!(flood.stats, EngineStats::default());
        let waker = |_, _| Waker {
            at: 1,
            steps: vec![],
        };
        let woken = Simulator::new(&g, SimConfig::default()).run(waker, |_, r| r >= 1);
        assert!(woken.stats.stepped > 0);
    }

    #[test]
    fn wake_beyond_short_ring_fires_exactly_once() {
        // Unit latencies give the wake calendar a 2-slot ring, so both
        // delays take the overflow path — one inside what a
        // full-length ring would hold, one beyond even that.
        let g = generators::path(2);
        let at = [10, MAX_RING_SLOTS + 5];
        let waker = |id: NodeId, _| Waker {
            at: at[id.index()],
            steps: vec![],
        };
        let cfg = SimConfig {
            max_rounds: MAX_RING_SLOTS + 10,
            ..SimConfig::default()
        };
        let sim = Simulator::new(&g, cfg);
        // The reference visits every round number by hand.
        let mut st = sim.stepper(waker);
        assert_eq!(st.table.wakes.slots(), 2);
        loop {
            st.deliver();
            if st.at_round_cap() {
                break;
            }
            st.advance();
        }
        let visited = st.into_outcome(StopReason::MaxRounds);
        let skipping = sim.run(waker, |_, _| false);
        assert_eq!(skipping.reason, StopReason::MaxRounds);
        for out in [&visited, &skipping] {
            for (node, at) in out.nodes.iter().zip(at) {
                assert_eq!(node.steps, vec![0, at]);
            }
        }
        let expected = EngineStats {
            stepped: 4,
            woken: 2,
            event_rounds: 3,
            skipped_rounds: 0,
            peak_frontier: 2,
        };
        assert_eq!(visited.stats, expected);
        // Rounds 0, 10, `MAX_RING_SLOTS + 5` and the cap are visited.
        let skipped_rounds = MAX_RING_SLOTS + 10 - 3;
        assert_eq!(
            skipping.stats,
            EngineStats {
                skipped_rounds,
                ..expected
            }
        );
    }

    #[test]
    fn choice_tape_scripts_and_records() {
        // With a tape installed, `Context::choose` plays back the script
        // (defaulting to branch 0 past its end) and records every
        // arity — the discovery loop the model checker runs.
        struct Choosy {
            rumors: RumorSet,
            picks: Vec<usize>,
        }
        impl Protocol for Choosy {
            type Payload = RumorSet;
            fn payload(&self) -> RumorSet {
                self.rumors.clone()
            }
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                let i = ctx.choose(ctx.degree());
                self.picks.push(i);
                ctx.initiate_nth(i);
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, x: &Exchange<RumorSet>) {
                self.rumors.union_with(&x.payload);
            }
        }
        let g = generators::clique(4);
        let mk = |id: NodeId, n: usize| Choosy {
            rumors: RumorSet::singleton(n, id),
            picks: vec![],
        };
        let sim = Simulator::new(&g, SimConfig::default());
        let mut st = sim.stepper(mk);
        st.set_choice_tape(ChoiceTape::new(vec![2, 0, 1]));
        st.deliver();
        st.advance();
        let tape = st.take_choice_tape().expect("tape still installed");
        // One choice point per node, in id order; the script covers the
        // first three, the fourth defaults to 0.
        assert_eq!(tape.taken(), &[2, 0, 1, 0]);
        assert_eq!(tape.arities(), &[3, 3, 3, 3]);
        assert_eq!(st.nodes()[0].picks, vec![2]);
        assert_eq!(st.nodes()[3].picks, vec![0]);
    }

    #[test]
    fn stepper_in_flight_view_and_observed_delivery() {
        struct OneShot {
            rumors: RumorSet,
            fired: bool,
        }
        impl Protocol for OneShot {
            type Payload = RumorSet;
            fn payload(&self) -> RumorSet {
                self.rumors.clone()
            }
            fn on_round(&mut self, ctx: &mut Context<'_>) {
                if !self.fired {
                    self.fired = true;
                    ctx.initiate_nth(0);
                }
            }
            fn on_exchange(&mut self, _: &mut Context<'_>, x: &Exchange<RumorSet>) {
                self.rumors.union_with(&x.payload);
            }
        }
        let g = Graph::from_edges(2, [(0, 1, 7)]).unwrap();
        let sim = Simulator::new(&g, SimConfig::default());
        let mut st = sim.stepper(|id, n| OneShot {
            rumors: RumorSet::singleton(n, id),
            fired: false,
        });
        st.deliver();
        st.advance();
        // Both endpoints initiated at round 0 over the latency-7 edge.
        let queued = st.in_flight();
        assert_eq!(queued.len(), 2);
        for x in &queued {
            assert_eq!(x.initiated_at, 0);
            assert_eq!(x.completes_at, 7, "ring position maps back to round 7");
        }
        while st.round() < 7 {
            st.deliver();
            st.advance();
        }
        let mut log = Vec::new();
        st.deliver_observed(&mut log);
        assert_eq!(log.len(), 2);
        for d in &log {
            assert_eq!((d.initiated_at, d.completed_at, d.lost), (0, 7, false));
        }
        // The initiator field distinguishes the two directions.
        assert_eq!(log[0].a, NodeId::new(0));
        assert_eq!(log[1].a, NodeId::new(1));
        assert!(st.in_flight().is_empty());
        assert!(st.nodes().iter().all(|x| x.rumors.is_full()));
    }

    #[test]
    fn stepper_injected_crash_loses_exchange() {
        let g = Graph::from_edges(2, [(0, 1, 3)]).unwrap();
        let sim = Simulator::new(&g, SimConfig::default());
        let mut st = sim.stepper(flood_factory);
        st.deliver();
        st.advance();
        // Crash node 1 while the round-0 exchanges are in flight: both
        // are lost at completion time.
        st.inject_crash(NodeId::new(1));
        let mut log = Vec::new();
        while st.round() < 3 {
            st.deliver();
            st.advance();
        }
        st.deliver_observed(&mut log);
        let completions: Vec<_> = log.iter().filter(|d| d.initiated_at == 0).collect();
        assert_eq!(completions.len(), 2);
        assert!(completions.iter().all(|d| d.lost));
        assert!(!st.nodes()[0].rumors.contains(NodeId::new(1)));
    }

    #[test]
    fn stepper_clone_branches_independently() {
        // The checker's snapshot/restore: a cloned stepper explores a
        // different future without perturbing the original.
        let g = generators::cycle(5);
        let sim = Simulator::new(&g, SimConfig::default());
        let mut a = sim.stepper(flood_factory);
        a.deliver();
        let mut b = a.clone();
        b.inject_crash(NodeId::new(2));
        for st in [&mut a, &mut b] {
            for _ in 0..12 {
                st.advance();
                st.deliver();
            }
        }
        assert!(a.nodes().iter().all(|x| x.rumors.is_full()));
        assert!(!b.nodes().iter().all(|x| x.rumors.is_full()));
        assert_eq!(a.metrics().lost, 0);
        assert!(b.metrics().lost > 0);
    }

    /// Logs one `u64` per round from its RNG, from round `id` on, so
    /// node `v` makes its first draw in round `v`.
    struct LateDrawer {
        draws: Vec<u64>,
    }

    impl Protocol for LateDrawer {
        type Payload = ();
        fn payload(&self) {}
        fn on_round(&mut self, ctx: &mut Context<'_>) {
            if ctx.round() >= u64::try_from(ctx.id().index()).expect("id fits u64") {
                let draw = ctx.rng().random();
                self.draws.push(draw);
            }
        }
        fn on_exchange(&mut self, _: &mut Context<'_>, _: &Exchange<()>) {}
    }

    #[test]
    fn late_first_draws_see_the_node_seed_stream() {
        let g = generators::path(6);
        let cfg = SimConfig {
            seed: 23,
            max_rounds: 9,
            ..SimConfig::default()
        };
        let out = Simulator::new(&g, cfg).run(|_, _| LateDrawer { draws: vec![] }, |_, _| false);
        for (v, node) in out.nodes.iter().enumerate() {
            let mut fresh = StdRng::seed_from_u64(node_seed(23, NodeId::new(v)));
            let expected: Vec<u64> = (v..9).map(|_| fresh.random()).collect();
            assert_eq!(node.draws, expected, "node {v}");
        }
    }

    /// On-demand round-robin flood with no RNG draw — the shape of
    /// `gossip-core`'s `SparseFloodNode`, which this crate cannot name.
    struct SparseFlood {
        informed: bool,
        cursor: usize,
    }

    impl Protocol for SparseFlood {
        const SCHEDULING: Scheduling = Scheduling::OnDemand;
        type Payload = bool;
        fn payload(&self) -> bool {
            self.informed
        }
        fn on_round(&mut self, ctx: &mut Context<'_>) {
            if !self.informed || self.cursor >= ctx.degree() {
                return;
            }
            ctx.initiate_nth(self.cursor);
            self.cursor += 1;
            if self.cursor < ctx.degree() {
                ctx.wake_in(1);
            }
        }
        fn on_exchange(&mut self, _: &mut Context<'_>, x: &Exchange<bool>) {
            self.informed |= x.payload;
        }
    }

    /// Push-pull with a uniformly random neighbor drawn from the node
    /// RNG every round.
    struct RandomPushPull {
        rumors: RumorSet,
    }

    impl Protocol for RandomPushPull {
        type Payload = RumorSet;
        fn payload(&self) -> RumorSet {
            self.rumors.clone()
        }
        fn on_round(&mut self, ctx: &mut Context<'_>) {
            let d = ctx.degree();
            let i = ctx.rng().random_range(0..d);
            ctx.initiate_nth(i);
        }
        fn on_exchange(&mut self, _: &mut Context<'_>, x: &Exchange<RumorSet>) {
            self.rumors.union_with(&x.payload);
        }
    }

    #[test]
    fn rng_seeding_is_all_or_nothing() {
        let g = generators::cycle(12);
        let sim = Simulator::new(&g, SimConfig::default());
        let mut flood = sim.stepper(|id: NodeId, _| SparseFlood {
            informed: id.index() == 0,
            cursor: 0,
        });
        for _ in 0..12 {
            flood.deliver();
            flood.advance();
        }
        assert!(flood.nodes().iter().all(|x| x.informed));
        assert_eq!(flood.table.seeded_rngs(), 0);
        let mut push_pull = sim.stepper(|id: NodeId, n| RandomPushPull {
            rumors: RumorSet::singleton(n, id),
        });
        push_pull.deliver();
        push_pull.advance();
        assert_eq!(push_pull.table.seeded_rngs(), 12);
    }

    #[test]
    fn on_demand_frontier_gives_back_round_zero_capacity() {
        let g = generators::cycle(64);
        let sim = Simulator::new(&g, SimConfig::default());
        let mut flood = sim.stepper(|id: NodeId, _| SparseFlood {
            informed: id.index() == 0,
            cursor: 0,
        });
        assert_eq!(flood.table.frontier_capacity(), 64);
        flood.deliver();
        flood.advance();
        assert!(flood.table.frontier_capacity() < 64);
        while !flood.nodes().iter().all(|x| x.informed) {
            flood.deliver();
            flood.advance();
            assert!(flood.table.frontier_capacity() < 64);
        }
        // An every-round frontier stays every slot.
        let mut every = sim.stepper(flood_factory);
        every.deliver();
        every.advance();
        assert_eq!(every.table.frontier.len(), 64);
    }

    /// One scripted initiation: by peer id or by adjacency position.
    #[derive(Clone, Copy)]
    enum Pick {
        Peer(usize),
        Nth(usize),
    }

    /// On-demand node that makes its scripted initiations, in order, in
    /// each callback.
    #[derive(Clone, Default)]
    struct Scripted {
        start: Vec<Pick>,
        round: Vec<Pick>,
        exchange: Vec<Pick>,
    }

    fn make_picks(ctx: &mut Context<'_>, picks: &[Pick]) {
        for &pick in picks {
            match pick {
                Pick::Peer(v) => ctx.initiate(NodeId::new(v)),
                Pick::Nth(i) => ctx.initiate_nth(i),
            }
        }
    }

    impl Protocol for Scripted {
        const SCHEDULING: Scheduling = Scheduling::OnDemand;
        type Payload = ();
        fn payload(&self) {}
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            make_picks(ctx, &self.start);
        }
        fn on_round(&mut self, ctx: &mut Context<'_>) {
            make_picks(ctx, &self.round);
        }
        fn on_exchange(&mut self, ctx: &mut Context<'_>, _: &Exchange<()>) {
            make_picks(ctx, &self.exchange);
        }
    }

    /// Path 0 -2- 1 -5- 2: node 1's row is `[0, 2]`, latencies `[2, 5]`.
    fn scripted_path() -> Graph {
        Graph::from_edges(3, [(0, 1, 2), (1, 2, 5)]).unwrap()
    }

    /// A table over every node of `g` with `middle`'s script at node 1.
    fn scripted_table(g: &Graph, middle: Scripted) -> NodeTable<'_, Scripted> {
        let mut middle = Some(middle);
        NodeTable::new(
            g,
            &SimConfig::default(),
            0..g.node_count(),
            |id, _| match id.index() {
                1 => middle.take().unwrap_or_default(),
                _ => Scripted::default(),
            },
            |_| true,
        )
    }

    #[test]
    fn initiation_in_on_exchange_launches_in_that_rounds_step() {
        let g = scripted_path();
        let mut table = scripted_table(
            &g,
            Scripted {
                exchange: vec![Pick::Peer(2)],
                ..Scripted::default()
            },
        );
        let mut out = Vec::new();
        table.settle_frontier(0, false);
        table.step(0, |_| true, &mut out);
        table.end_round(0);
        assert!(out.is_empty());
        let x = Exchange {
            peer: NodeId::new(0),
            payload: (),
            initiated_at: 0,
            completed_at: 2,
            initiated_by_me: false,
        };
        table.deliver(1, 2, &x);
        table.settle_frontier(2, true);
        table.step(2, |_| true, &mut out);
        assert_eq!(out, vec![(1, NodeId::new(2), 1, Latency::new(5))]);
    }

    #[test]
    fn last_initiation_of_a_round_wins() {
        let g = scripted_path();
        let cases = [
            (
                vec![Pick::Peer(0), Pick::Nth(1)],
                (1, NodeId::new(2), 1, Latency::new(5)),
            ),
            (
                vec![Pick::Nth(1), Pick::Peer(0)],
                (1, NodeId::new(0), 0, Latency::new(2)),
            ),
        ];
        for (round, launch) in cases {
            let mut table = scripted_table(
                &g,
                Scripted {
                    round,
                    ..Scripted::default()
                },
            );
            let mut out = Vec::new();
            table.settle_frontier(0, false);
            table.step(0, |_| true, &mut out);
            assert_eq!(out, vec![launch]);
        }
    }

    #[test]
    #[should_panic]
    fn initiate_nth_at_degree_panics() {
        let g = scripted_path();
        let _ = scripted_table(
            &g,
            Scripted {
                start: vec![Pick::Nth(2)],
                ..Scripted::default()
            },
        );
    }

    #[test]
    fn a_node_that_is_not_live_drops_its_pending_initiation() {
        let g = scripted_path();
        let mut table = scripted_table(
            &g,
            Scripted {
                start: vec![Pick::Nth(0)],
                ..Scripted::default()
            },
        );
        let mut out = Vec::new();
        table.settle_frontier(0, false);
        table.step(0, |v| v.index() != 1, &mut out);
        assert!(out.is_empty());
        // Stepped again, live this time: the `on_start` pick is gone.
        table.step(0, |_| true, &mut out);
        assert!(out.is_empty());
    }
}

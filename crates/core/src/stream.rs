//! Streaming selection policies: what to send when an exchange cannot
//! carry everything.
//!
//! Under a [`StreamSpec`] workload (`k` rumors, per-direction budget
//! `b` — see [`gossip_sim::stream`]) the payload is no longer "my
//! whole rumor set"; a node must *choose* `≤ b` rumor-payload units
//! per exchange direction, and the choice rule **is** the algorithm.
//! Two policies ship as first-class [`Protocol`]s:
//!
//! * [`RrStreamNode`] — **round-robin over un-gossiped rumors** with
//!   per-peer need tracking: a rotating cursor packs the next heard
//!   rumors this node has never sent to (or received from) the chosen
//!   peer, the multi-rumor analogue of the per-peer knowledge cache
//!   the delta-exchange runtime keeps per edge.
//! * [`RlcStreamNode`] — **random linear combination (algebraic)
//!   gossip over GF(2)**: each exchange direction carries `≤ b`
//!   uniformly random GF(2) combinations of the sender's known rumor
//!   vectors, decoded by the incremental eliminator in
//!   [`crate::gf2`]; rank is the progress measure, and a rumor counts
//!   as held exactly when it is decodable.
//!
//! Both are [`Scheduling::OnDemand`] protocols that keep a standing
//! wakeup and initiate with a uniformly chosen neighbor every round —
//! pull-enabled: initiating with a better-informed peer retrieves its
//! staged batch — until the global all-heard stop fires, so the run
//! length *is* the completion round of the slowest rumor. Batches are
//! staged in `on_round` (where the peer choice and the RNG live) and
//! snapshotted by `payload`, which keeps the engine's
//! payload-purity contract; budget debits and first-heard records go
//! through the confined [`BudgetLedger`]/[`CompletionLog`] APIs.
//!
//! A staged batch is one shared buffer — a [`StreamPayload`] is a
//! copy-on-write snapshot — so `payload` is a reference-count bump and
//! every exchange that snapshots a node in one round shares that
//! round's batch. [`RlcStreamNode`] writes its combinations straight
//! into the batch's rows through
//! [`Gf2Decoder::random_combination_into`], one allocation per staged
//! round; [`RrStreamNode`] packs its ids and shares them the same way.

use gossip_sim::stream::{BudgetLedger, CompletionLog, RowBatch, StreamPayload, StreamSpec};
use gossip_sim::{
    completion_rounds, Context, EngineMode, EngineStats, Exchange, Protocol, Round, Scheduling,
    SimMetrics, Simulator, StopReason,
};
use latency_graph::{Graph, NodeId};

use crate::common::sim_config;
use crate::gf2::Gf2Decoder;

/// Configuration shared by the streaming runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamConfig {
    /// Round cap (0 means the simulator default).
    pub max_rounds: u64,
    /// Ignored — results were always byte-identical for any value; kept
    /// only because the repo benchmark's struct literals name it.
    pub threads: usize,
    /// Ignored — the enum has one variant; kept only because the repo
    /// benchmark's struct literals name it.
    pub mode: EngineMode,
}

/// The result of a streaming run: the completion *curve*, not just a
/// stop round.
#[derive(Clone, Debug)]
pub struct StreamOutcome {
    /// Rounds until every rumor reached every node (or the cap).
    pub rounds: Round,
    /// Whether every rumor reached every node within the cap.
    pub complete: bool,
    /// Simulator counters.
    pub metrics: SimMetrics,
    /// Engine execution counters.
    pub stats: EngineStats,
    /// Per-rumor global completion rounds (entry `i` = first round
    /// every node held rumor `i`; `None` if the cap hit first).
    pub completions: Vec<Option<Round>>,
    /// Per-node acquisition logs (first-heard round per rumor).
    pub logs: Vec<CompletionLog>,
}

impl StreamOutcome {
    /// Whether the run reached its goal.
    pub fn completed(&self) -> bool {
        self.complete
    }
}

/// Sorted `(round, rumor)` injection schedule for one node, with an
/// absorb pointer — shared by both policies.
#[derive(Clone, Debug)]
struct InjectionFeed {
    /// `(round, rumor)`, sorted ascending.
    due: Vec<(Round, usize)>,
    next: usize,
}

impl InjectionFeed {
    fn new(spec: &StreamSpec, id: NodeId) -> InjectionFeed {
        let mut due: Vec<(Round, usize)> = spec
            .injections_at(id)
            .into_iter()
            .map(|(rumor, round)| (round, rumor))
            .collect();
        due.sort_unstable();
        InjectionFeed { due, next: 0 }
    }

    /// Yields every injection due by `now`, in (round, rumor) order.
    fn absorb(&mut self, now: Round, mut take: impl FnMut(usize, Round)) {
        while let Some(&(round, rumor)) = self.due.get(self.next) {
            if round > now {
                break;
            }
            take(rumor, round);
            self.next += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Round-robin policy
// ---------------------------------------------------------------------

/// Round-robin streaming: per-peer need tracking plus a rotating
/// cursor over the rumor universe.
#[derive(Clone, Debug)]
pub struct RrStreamNode {
    /// Acquisition log (also the held-set source of truth).
    log: CompletionLog,
    ledger: BudgetLedger,
    injections: InjectionFeed,
    staged: StreamPayload,
    /// Per-neighbor k-bit masks of rumors known to be held by (or
    /// already sent to) that peer; lazily sized to the degree.
    known_to_peer: Vec<Vec<u64>>,
    /// Rotating pack cursor over the universe.
    cursor: usize,
    k: usize,
}

impl RrStreamNode {
    /// A node hosting its share of `spec`'s injections.
    pub fn new(id: NodeId, spec: &StreamSpec) -> RrStreamNode {
        RrStreamNode {
            log: CompletionLog::new(spec.k),
            ledger: BudgetLedger::new(spec.budget),
            injections: InjectionFeed::new(spec, id),
            staged: StreamPayload::empty_ids(),
            known_to_peer: Vec::new(),
            cursor: 0,
            k: spec.k,
        }
    }

    /// The node's acquisition log.
    pub fn log(&self) -> &CompletionLog {
        &self.log
    }

    /// The node's budget ledger (read-only).
    pub fn ledger(&self) -> &BudgetLedger {
        &self.ledger
    }

    /// Whether this node holds every rumor.
    pub fn heard_all(&self) -> bool {
        self.log.heard_all()
    }

    /// Appends the canonical forward-relevant state bytes: held-rumor
    /// bits, per-peer knowledge masks, and the pack cursor. This is
    /// what the model checker deduplicates on — recorded first-heard
    /// *rounds* and the ledger counters are observational (they never
    /// influence future staging) and are deliberately excluded, as is
    /// the staged batch, which callers encode via [`Self::payload`]
    /// like any in-flight snapshot.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        for w in self.log.heard_words() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        for peer in &self.known_to_peer {
            for w in peer {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        let cursor = u64::try_from(self.cursor).expect("cursor fits u64");
        out.extend_from_slice(&cursor.to_le_bytes());
    }

    fn mark_known(&mut self, peer_idx: usize, rumor: usize) {
        self.known_to_peer[peer_idx][rumor / 64] |= 1u64 << (rumor % 64);
    }

    fn peer_knows(&self, peer_idx: usize, rumor: usize) -> bool {
        self.known_to_peer[peer_idx][rumor / 64] & (1u64 << (rumor % 64)) != 0
    }

    /// Packs the next `≤ budget` heard-but-unsent rumors for `peer_idx`
    /// into the staged batch, round-robin from the cursor.
    fn stage_for(&mut self, peer_idx: usize) {
        let allowance = usize::try_from(self.ledger.grant()).expect("budget fits usize");
        let mut batch = Vec::new();
        let mut c = self.cursor;
        for _ in 0..self.k {
            if batch.len() >= allowance {
                break;
            }
            if self.log.heard(c) && !self.peer_knows(peer_idx, c) {
                batch.push(u32::try_from(c).expect("rumor id fits u32"));
                self.mark_known(peer_idx, c);
            }
            c = (c + 1) % self.k;
        }
        if !batch.is_empty() {
            self.cursor = c;
        }
        let units = u64::try_from(batch.len()).expect("batch fits u64");
        assert!(self.ledger.spend(units), "batch exceeds the granted budget");
        self.staged = StreamPayload::Ids(batch.into());
    }
}

impl Protocol for RrStreamNode {
    const SCHEDULING: Scheduling = Scheduling::OnDemand;

    type Payload = StreamPayload;

    fn payload(&self) -> StreamPayload {
        self.staged.clone()
    }

    fn payload_weight(payload: &StreamPayload) -> u64 {
        payload.units()
    }

    fn on_round(&mut self, ctx: &mut Context<'_>) {
        let d = ctx.degree();
        if d == 0 {
            return;
        }
        if self.known_to_peer.is_empty() {
            self.known_to_peer = vec![vec![0u64; self.k.div_ceil(64)]; d];
        }
        let now = ctx.round();
        let log = &mut self.log;
        self.injections.absorb(now, |rumor, _| {
            let _ = log.record(rumor, now);
        });
        let peer = ctx.choose(d);
        self.stage_for(peer);
        ctx.initiate_nth(peer);
        // Standing wakeup: streaming nodes serve pulls until the
        // global all-heard stop, so every node runs every round and
        // no round is ever skipped.
        ctx.wake_in(1);
    }

    fn on_exchange(&mut self, ctx: &mut Context<'_>, x: &Exchange<StreamPayload>) {
        let ids = match &x.payload {
            StreamPayload::Ids(ids) => ids,
            StreamPayload::Rows(_) => {
                panic!("round-robin stream received a coefficient payload")
            }
        };
        let peer_idx = ctx
            .neighbor_ids()
            .binary_search(&x.peer)
            .expect("exchange peer is a neighbor");
        if self.known_to_peer.is_empty() {
            self.known_to_peer = vec![vec![0u64; self.k.div_ceil(64)]; ctx.degree()];
        }
        for &id in ids.iter() {
            let rumor = usize::try_from(id).expect("rumor id fits usize");
            let _ = self.log.record(rumor, x.completed_at);
            self.mark_known(peer_idx, rumor);
        }
    }

    fn is_done(&self) -> bool {
        self.heard_all()
    }
}

// ---------------------------------------------------------------------
// Random-linear-combination (algebraic) policy
// ---------------------------------------------------------------------

/// Algebraic streaming: budgeted random GF(2) combinations, decoded by
/// incremental elimination; a rumor is held when decodable.
#[derive(Clone, Debug)]
pub struct RlcStreamNode {
    /// Acquisition log: first round each rumor became decodable here.
    log: CompletionLog,
    ledger: BudgetLedger,
    injections: InjectionFeed,
    staged: StreamPayload,
    decoder: Gf2Decoder,
    k: usize,
}

impl RlcStreamNode {
    /// A node hosting its share of `spec`'s injections.
    pub fn new(id: NodeId, spec: &StreamSpec) -> RlcStreamNode {
        RlcStreamNode {
            log: CompletionLog::new(spec.k),
            ledger: BudgetLedger::new(spec.budget),
            injections: InjectionFeed::new(spec, id),
            staged: StreamPayload::empty_rows(spec.k),
            decoder: Gf2Decoder::new(spec.k),
            k: spec.k,
        }
    }

    /// The node's acquisition log.
    pub fn log(&self) -> &CompletionLog {
        &self.log
    }

    /// The node's budget ledger (read-only).
    pub fn ledger(&self) -> &BudgetLedger {
        &self.ledger
    }

    /// The decoder's current rank — the algebraic progress measure.
    pub fn rank(&self) -> usize {
        self.decoder.rank()
    }

    /// Whether this node can decode every rumor.
    pub fn heard_all(&self) -> bool {
        self.log.heard_all()
    }

    /// Inserts `row` and logs what it made decodable. Takes the two
    /// fields, not `self`, so the injection feed can call it while it
    /// is itself mutably borrowed.
    fn absorb_row(decoder: &mut Gf2Decoder, log: &mut CompletionLog, row: &[u64], now: Round) {
        for rumor in decoder.insert(row).newly_decoded {
            let _ = log.record(rumor, now);
        }
    }

    /// Stages `≤ budget` random combinations of the known row space,
    /// written straight into the round's one shared batch: the full
    /// allowance once the rank is positive, nothing before.
    fn stage(&mut self, ctx: &mut Context<'_>) {
        let allowance = usize::try_from(self.ledger.grant()).expect("budget fits usize");
        let count = if self.decoder.rank() == 0 {
            0
        } else {
            allowance
        };
        let (decoder, rng) = (&self.decoder, ctx.rng());
        let batch = RowBatch::from_fn(self.k, count, |row| {
            let filled = decoder.random_combination_into(rng, row);
            debug_assert!(filled, "rank is positive");
        });
        let units = u64::try_from(batch.len()).expect("batch fits u64");
        assert!(self.ledger.spend(units), "batch exceeds the granted budget");
        self.staged = StreamPayload::Rows(batch);
    }
}

impl Protocol for RlcStreamNode {
    const SCHEDULING: Scheduling = Scheduling::OnDemand;

    type Payload = StreamPayload;

    fn payload(&self) -> StreamPayload {
        self.staged.clone()
    }

    fn payload_weight(payload: &StreamPayload) -> u64 {
        payload.units()
    }

    fn on_round(&mut self, ctx: &mut Context<'_>) {
        let d = ctx.degree();
        if d == 0 {
            return;
        }
        let now = ctx.round();
        let (decoder, log) = (&mut self.decoder, &mut self.log);
        self.injections.absorb(now, |rumor, _| {
            let mut row = vec![0u64; decoder.words()];
            row[rumor / 64] |= 1u64 << (rumor % 64);
            Self::absorb_row(decoder, log, &row, now);
        });
        let peer = ctx.choose(d);
        self.stage(ctx);
        ctx.initiate_nth(peer);
        ctx.wake_in(1);
    }

    fn on_exchange(&mut self, _ctx: &mut Context<'_>, x: &Exchange<StreamPayload>) {
        let batch = match &x.payload {
            StreamPayload::Rows(batch) => {
                assert_eq!(batch.k(), self.k, "peer streams a different universe");
                batch
            }
            StreamPayload::Ids(_) => panic!("algebraic stream received an id payload"),
        };
        for row in batch.rows() {
            Self::absorb_row(&mut self.decoder, &mut self.log, row, x.completed_at);
        }
    }

    fn is_done(&self) -> bool {
        self.heard_all()
    }
}

// ---------------------------------------------------------------------
// Run helpers
// ---------------------------------------------------------------------

fn finish<P>(out: gossip_sim::Outcome<P>, log: impl Fn(&P) -> &CompletionLog) -> StreamOutcome {
    let logs: Vec<CompletionLog> = out.nodes.iter().map(|p| log(p).clone()).collect();
    let completions = completion_rounds(logs.iter());
    StreamOutcome {
        rounds: out.rounds,
        complete: out.reason != StopReason::MaxRounds,
        metrics: out.metrics,
        stats: out.stats,
        completions,
        logs,
    }
}

/// Runs the round-robin policy on `spec` until every rumor reaches
/// every node (or the round cap).
pub fn rr_stream(g: &Graph, spec: &StreamSpec, config: &StreamConfig, seed: u64) -> StreamOutcome {
    let out = Simulator::new(g, sim_config(config.max_rounds, seed)).run(
        |id, _| RrStreamNode::new(id, spec),
        |_: &[RrStreamNode], _| false,
    );
    finish(out, RrStreamNode::log)
}

/// Runs the algebraic (RLC) policy on `spec` until every rumor reaches
/// every node (or the round cap).
pub fn rlc_stream(g: &Graph, spec: &StreamSpec, config: &StreamConfig, seed: u64) -> StreamOutcome {
    let out = Simulator::new(g, sim_config(config.max_rounds, seed)).run(
        |id, _| RlcStreamNode::new(id, spec),
        |_: &[RlcStreamNode], _| false,
    );
    finish(out, RlcStreamNode::log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_sim::all_delivered_round;
    use latency_graph::generators::{self, extra};

    fn capped() -> StreamConfig {
        StreamConfig {
            max_rounds: 100_000,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn rr_completes_on_a_cycle() {
        let g = generators::cycle(12);
        let spec = StreamSpec::spread(6, 2, 12);
        let o = rr_stream(&g, &spec, &capped(), 7);
        assert!(o.completed(), "rr did not finish: {:?}", o.completions);
        assert_eq!(all_delivered_round(&o.completions), Some(o.rounds));
        assert!(o.completions.iter().all(Option::is_some));
    }

    #[test]
    fn rlc_completes_on_a_clique() {
        let g = generators::clique(8);
        let spec = StreamSpec::spread(5, 1, 8);
        let o = rlc_stream(&g, &spec, &capped(), 3);
        assert!(o.completed(), "rlc did not finish: {:?}", o.completions);
        assert_eq!(all_delivered_round(&o.completions), Some(o.rounds));
    }

    #[test]
    fn completion_curve_respects_injection_rounds() {
        let g = extra::ring_of_cliques(3, 4, 2);
        let spec = StreamSpec::spread(8, 2, 12);
        let o = rr_stream(
            &g,
            &spec,
            &StreamConfig {
                max_rounds: 100_000,
                ..StreamConfig::default()
            },
            1,
        );
        assert!(o.completed());
        for (rumor, done) in o.completions.iter().enumerate() {
            let origin = spec.origin(rumor).round;
            assert!(
                done.expect("completed run") >= origin,
                "rumor {rumor} completed before it was injected"
            );
        }
    }

    #[test]
    fn budget_is_respected_in_every_staged_batch() {
        // The ledger invariant (debits ≤ credits) plus the per-batch
        // cap: stage k ≫ budget rumors at one node, drain the run, and
        // check the global unit counters stay within budget × grants.
        let g = generators::clique(6);
        let spec = StreamSpec::new(
            9,
            2,
            (0..9)
                .map(|i| gossip_sim::Injection {
                    rumor: i,
                    node: latency_graph::NodeId::new(0),
                    round: 0,
                })
                .collect(),
        );
        let o = rr_stream(
            &g,
            &spec,
            &StreamConfig {
                max_rounds: 10_000,
                ..StreamConfig::default()
            },
            5,
        );
        assert!(o.completed());
        // Every delivered payload carried ≤ budget units; the engine's
        // payload_units counter sums the two directions of every
        // delivered exchange, so it is bounded by 2 · budget per
        // delivery.
        assert!(o.metrics.payload_units <= o.metrics.delivered * 2 * 2);
    }
}

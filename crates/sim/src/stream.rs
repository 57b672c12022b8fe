//! The k-rumor streaming universe: injection schedules, per-exchange
//! bandwidth budgets, and per-rumor completion accounting.
//!
//! The single-rumor-universe workloads elsewhere in the repo let every
//! exchange carry a node's whole rumor set. The streaming model studied
//! by the small-message rumor-spreading literature (and exercised by
//! `gossip-core`'s `stream` protocols) breaks that assumption three
//! ways, and this module owns all three:
//!
//! * **Injection schedule** ([`StreamSpec`]): `k` rumors, each
//!   *originating* at one configured `(node, round)` injection point
//!   rather than all being present at round 0.
//! * **Budget** ([`BudgetLedger`]): an exchange carries at most
//!   `budget` rumor-payload units per direction, so a node must
//!   *choose* what to send. The ledger is the single bookkeeping site
//!   for budget credits (one grant per staged exchange) and debits
//!   (units actually packed); tidy family 12 (`budget-confinement`)
//!   pins its counters — and the completion counters below — to this
//!   module.
//! * **Per-rumor completion** ([`CompletionLog`]): metrics are a
//!   *curve* — for each rumor, the first round every node holds it —
//!   not a single stop round. Logs record locally; the global curve is
//!   folded post-hoc with [`completion_rounds`], which works
//!   identically on engine outcomes, golden traces, and net runners.
//!
//! The wire-facing [`StreamPayload`] (rumor-id batches for round-robin
//! selection, GF(2) coefficient rows for algebraic gossip) also lives
//! here so the `gossip-net` codec can encode it without depending on
//! the policy implementations in `gossip-core`. It is a copy-on-write
//! snapshot like [`RumorSet`](crate::RumorSet): each flavor keeps its
//! batch in one shared buffer — the rows of a [`RowBatch`] back to back
//! — so the payload an exchange captures at initiation and holds for
//! `ℓ` rounds costs a reference count, and every exchange that
//! snapshots one node in one round shares that node's single batch.

use std::sync::Arc;

use latency_graph::NodeId;

use crate::Round;

/// One rumor origin: rumor `rumor` appears at `node` in round `round`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Injection {
    /// The rumor id, in `0..k`.
    pub rumor: usize,
    /// The originating node.
    pub node: NodeId,
    /// The round the rumor first exists.
    pub round: Round,
}

/// A streaming workload: `k` rumors, a per-direction exchange budget,
/// and one injection point per rumor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamSpec {
    /// Universe size: rumors are `0..k`.
    pub k: usize,
    /// Most rumor-payload units one exchange direction may carry.
    pub budget: usize,
    /// Exactly one origin per rumor, sorted by rumor id.
    injections: Vec<Injection>,
}

impl StreamSpec {
    /// Builds a spec from explicit injection points.
    ///
    /// # Panics
    ///
    /// Panics unless `k ≥ 1`, `budget ≥ 1`, and `injections` names
    /// every rumor in `0..k` exactly once.
    pub fn new(k: usize, budget: usize, mut injections: Vec<Injection>) -> StreamSpec {
        assert!(k >= 1, "a stream needs at least one rumor");
        assert!(budget >= 1, "a zero budget can never deliver anything");
        assert_eq!(injections.len(), k, "need exactly one injection per rumor");
        injections.sort_by_key(|i| i.rumor);
        for (r, inj) in injections.iter().enumerate() {
            assert_eq!(inj.rumor, r, "injections must cover rumors 0..k exactly");
        }
        StreamSpec {
            k,
            budget,
            injections,
        }
    }

    /// The deterministic default workload used by the golden traces,
    /// the benches, and the CLI: rumor `i` originates at node
    /// `(i · 17 + 3) mod n` in round `i mod 4` — spread across the
    /// graph and staggered over the first four rounds so early
    /// exchanges run under-budget while later ones contend.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (there is no node to inject at) or the
    /// [`StreamSpec::new`] preconditions fail.
    pub fn spread(k: usize, budget: usize, n: usize) -> StreamSpec {
        assert!(n > 0, "cannot inject into an empty graph");
        let injections = (0..k)
            .map(|i| Injection {
                rumor: i,
                node: NodeId::new((i * 17 + 3) % n),
                round: Round::try_from(i % 4).expect("stagger fits a round"),
            })
            .collect();
        StreamSpec::new(k, budget, injections)
    }

    /// All injections, sorted by rumor id.
    pub fn injections(&self) -> &[Injection] {
        &self.injections
    }

    /// The injection point of one rumor.
    ///
    /// # Panics
    ///
    /// Panics if `rumor ≥ k`.
    pub fn origin(&self, rumor: usize) -> Injection {
        self.injections[rumor]
    }

    /// The `(rumor, round)` injections hosted by `node`, in rumor
    /// order. Protocol nodes call this once at construction.
    pub fn injections_at(&self, node: NodeId) -> Vec<(usize, Round)> {
        self.injections
            .iter()
            .filter(|i| i.node == node)
            .map(|i| (i.rumor, i.round))
            .collect()
    }

    /// The latest injection round — before it, `heard_all` is
    /// unreachable anywhere.
    pub fn last_injection_round(&self) -> Round {
        self.injections.iter().map(|i| i.round).max().unwrap_or(0)
    }
}

/// Per-node budget bookkeeping: one credit of `budget` units per staged
/// exchange direction, debits for the units actually packed.
///
/// The ledger is written **only inside this module** (tidy family 12):
/// protocols stage batches through [`BudgetLedger::grant`] and
/// [`BudgetLedger::spend`] and read the counters back through the
/// getters, so "an exchange never carries more than `budget` units" is
/// checkable at one site instead of at every call site.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BudgetLedger {
    per_exchange: u64,
    credited: u64,
    debited: u64,
}

impl BudgetLedger {
    /// A ledger granting `budget` units per exchange direction.
    pub fn new(budget: usize) -> BudgetLedger {
        BudgetLedger {
            per_exchange: u64::try_from(budget).expect("budget fits u64"),
            credited: 0,
            debited: 0,
        }
    }

    /// The per-direction budget.
    pub fn per_exchange(&self) -> u64 {
        self.per_exchange
    }

    /// Credits one staged exchange direction and returns the unit
    /// allowance for its batch.
    pub fn grant(&mut self) -> u64 {
        self.credited += self.per_exchange;
        self.per_exchange
    }

    /// Debits `units` against the open credit. Returns `false` — and
    /// debits nothing — if the spend would exceed everything granted
    /// so far, which a correctly budgeted scheduler never does.
    #[must_use]
    pub fn spend(&mut self, units: u64) -> bool {
        if self.debited + units > self.credited {
            return false;
        }
        self.debited += units;
        true
    }

    /// Total units granted across all staged exchanges.
    pub fn granted(&self) -> u64 {
        self.credited
    }

    /// Total units packed across all staged exchanges.
    pub fn spent(&self) -> u64 {
        self.debited
    }
}

/// Per-node, per-rumor acquisition records: for each rumor, the first
/// round this node held it (decoded it, for algebraic gossip).
///
/// Writes happen **only inside this module** (tidy family 12), through
/// [`CompletionLog::record`]; everything else reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompletionLog {
    first_heard: Vec<Option<Round>>,
    heard_count: usize,
}

impl CompletionLog {
    /// An empty log over a `k`-rumor universe.
    pub fn new(k: usize) -> CompletionLog {
        CompletionLog {
            first_heard: vec![None; k],
            heard_count: 0,
        }
    }

    /// The universe size `k`.
    pub fn k(&self) -> usize {
        self.first_heard.len()
    }

    /// Records that `rumor` is held from `round` on. Returns `true`
    /// the first time (the acquisition), `false` for re-deliveries
    /// (first-heard rounds never move).
    ///
    /// # Panics
    ///
    /// Panics if `rumor ≥ k`.
    pub fn record(&mut self, rumor: usize, round: Round) -> bool {
        if self.first_heard[rumor].is_some() {
            return false;
        }
        self.first_heard[rumor] = Some(round);
        self.heard_count += 1;
        true
    }

    /// Whether `rumor` is held.
    ///
    /// # Panics
    ///
    /// Panics if `rumor ≥ k`.
    pub fn heard(&self, rumor: usize) -> bool {
        self.first_heard[rumor].is_some()
    }

    /// The round `rumor` was first held, if it is.
    ///
    /// # Panics
    ///
    /// Panics if `rumor ≥ k`.
    pub fn first_heard(&self, rumor: usize) -> Option<Round> {
        self.first_heard[rumor]
    }

    /// How many rumors are held.
    pub fn count(&self) -> usize {
        self.heard_count
    }

    /// Whether every rumor in the universe is held.
    pub fn heard_all(&self) -> bool {
        self.heard_count == self.first_heard.len()
    }

    /// The held set as a little-endian bitmask, one bit per rumor —
    /// the forward-relevant projection model checkers encode (the
    /// first-heard *rounds* are observational).
    pub fn heard_words(&self) -> Vec<u64> {
        let mut words = vec![0u64; self.first_heard.len().div_ceil(64)];
        for (r, h) in self.first_heard.iter().enumerate() {
            if h.is_some() {
                words[r / 64] |= 1u64 << (r % 64);
            }
        }
        words
    }

    /// An FNV-style fold of the `(rumor, first-heard)` pairs: the
    /// golden traces pin this per node, so a schedule change that
    /// shifts *when* any node acquired any rumor is caught even when
    /// the final held sets agree.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (r, heard) in self.first_heard.iter().enumerate() {
            h ^= u64::try_from(r).expect("rumor id fits u64");
            h = h.wrapping_mul(0x100_0000_01b3);
            h ^= heard.map_or(u64::MAX, |round| round.wrapping_add(1));
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

/// Folds per-node logs into the global completion curve: entry `i` is
/// the first round *every* node held rumor `i` (`None` while any node
/// still misses it).
pub fn completion_rounds<'a>(logs: impl Iterator<Item = &'a CompletionLog>) -> Vec<Option<Round>> {
    let mut curve: Vec<Option<Round>> = Vec::new();
    let mut nodes = 0usize;
    for log in logs {
        nodes += 1;
        if curve.is_empty() {
            curve = vec![Some(0); log.k()];
        }
        assert_eq!(curve.len(), log.k(), "logs disagree on the universe size");
        for (r, slot) in curve.iter_mut().enumerate() {
            match (slot.as_mut(), log.first_heard(r)) {
                (Some(max), Some(here)) => *max = (*max).max(here),
                (Some(_), None) => *slot = None,
                (None, _) => {}
            }
        }
    }
    assert!(nodes > 0, "no logs to fold");
    curve
}

/// The round every rumor reached every node, if the stream completed.
pub fn all_delivered_round(curve: &[Option<Round>]) -> Option<Round> {
    curve
        .iter()
        .copied()
        .try_fold(0, |acc, c| c.map(|r| acc.max(r)))
}

/// A budgeted multi-rumor exchange payload: what one direction of one
/// exchange carries under a streaming workload.
///
/// Both selection policies in `gossip-core` snapshot into this type,
/// and `gossip-net` gives it a wire form (rumor-id bodies and
/// coefficient-row bodies riding the varint machinery), so engine runs
/// and net runs exchange byte-for-byte equivalent information.
///
/// Like [`RumorSet`](crate::RumorSet), a payload is a copy-on-write
/// snapshot: both flavors keep their batch behind one `Arc`, so `clone`
/// — what a node's `payload()` returns to every exchange that captures
/// it — bumps a reference count and copies nothing. A node stages one
/// batch per round; every exchange that snapshots it in that round
/// shares the buffer (observable only through [`ptr_eq`](Self::ptr_eq)),
/// and a later staging replaces the node's handle without touching the
/// batches still in flight.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamPayload {
    /// Explicit rumor ids, at most `budget` of them (round-robin
    /// selection). Order is the sender's packing order.
    Ids(Arc<[u32]>),
    /// GF(2) coefficient rows over a `k`-rumor universe, at most
    /// `budget` of them (algebraic gossip).
    Rows(RowBatch),
}

/// `count` GF(2) coefficient rows over a `k`-rumor universe, in one
/// flat shared buffer: row `i` is `words()[i·w..(i + 1)·w]` with
/// `w = ⌈k/64⌉` little-endian words, and bit `j` of a row means rumor
/// `j` is in the combination. Rows keep the sender's packing order.
///
/// Every row has the same width by construction, so a ragged batch is
/// unrepresentable. The count is stored rather than derived from the
/// buffer length because at `k = 0` a row is zero words wide.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowBatch {
    k: u32,
    count: u32,
    words: Arc<[u64]>,
}

impl RowBatch {
    /// `count` rows over `0..k` in one allocation, each zeroed and then
    /// written in place by `fill`, first row first.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `count` exceeds `u32`.
    pub fn from_fn(k: usize, count: usize, mut fill: impl FnMut(&mut [u64])) -> RowBatch {
        let width = k.div_ceil(64);
        let mut words: Arc<[u64]> = std::iter::repeat_n(0, count * width).collect();
        let buf = Arc::get_mut(&mut words).expect("a fresh buffer is unshared");
        for i in 0..count {
            fill(&mut buf[i * width..(i + 1) * width]);
        }
        RowBatch {
            k: u32::try_from(k).expect("universe size fits u32"),
            count: u32::try_from(count).expect("batch fits u32"),
            words,
        }
    }

    /// The batch of `rows`, copied into one buffer; `None` if any row
    /// is not exactly `⌈k/64⌉` words wide.
    ///
    /// # Panics
    ///
    /// Panics if `k` or the row count exceeds `u32`.
    pub fn from_rows<R: AsRef<[u64]>>(k: usize, rows: &[R]) -> Option<RowBatch> {
        let width = k.div_ceil(64);
        if rows.iter().any(|row| row.as_ref().len() != width) {
            return None;
        }
        let mut next = rows.iter();
        Some(RowBatch::from_fn(k, rows.len(), |row| {
            row.copy_from_slice(next.next().expect("one source per row").as_ref());
        }))
    }

    /// The universe size the rows are over.
    pub fn k(&self) -> usize {
        usize::try_from(self.k).expect("u32 fits usize")
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        usize::try_from(self.count).expect("u32 fits usize")
    }

    /// Whether the batch holds no row.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Every row's words, back to back in row order.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The rows in packing order, each `⌈k/64⌉` words wide.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[u64]> + '_ {
        let width = self.k().div_ceil(64);
        (0..self.len()).map(move |i| &self.words[i * width..(i + 1) * width])
    }
}

impl StreamPayload {
    /// The empty payload of the id flavor.
    pub fn empty_ids() -> StreamPayload {
        StreamPayload::Ids(Arc::from([]))
    }

    /// The empty payload of the coefficient flavor.
    pub fn empty_rows(k: usize) -> StreamPayload {
        StreamPayload::Rows(RowBatch::from_fn(k, 0, |_| {}))
    }

    /// Rumor-payload units carried: ids or rows, whichever flavor.
    pub fn units(&self) -> u64 {
        let count = match self {
            StreamPayload::Ids(ids) => ids.len(),
            StreamPayload::Rows(batch) => batch.len(),
        };
        u64::try_from(count).expect("batch fits u64")
    }

    /// Whether `self` and `other` share one batch buffer — snapshots of
    /// one staging do. Observable for tests; protocol results never
    /// depend on it.
    pub fn ptr_eq(&self, other: &StreamPayload) -> bool {
        match (self, other) {
            (StreamPayload::Ids(a), StreamPayload::Ids(b)) => Arc::ptr_eq(a, b),
            (StreamPayload::Rows(a), StreamPayload::Rows(b)) => Arc::ptr_eq(&a.words, &b.words),
            _ => false,
        }
    }

    /// The rumors this payload *mentions*, as a `⌈k/64⌉`-word bitmask:
    /// the ids themselves, or the support of every coefficient row.
    /// A receiver can only have learned rumors mentioned by some
    /// payload delivered to it — the causal upper bound the
    /// `no-phantom-rumor` model-checking property folds.
    ///
    /// # Panics
    ///
    /// Panics if an id is outside `0..k`, or if the rows are not
    /// `⌈k/64⌉` words wide.
    pub fn support_words(&self, k: usize) -> Vec<u64> {
        let mut words = vec![0u64; k.div_ceil(64)];
        match self {
            StreamPayload::Ids(ids) => {
                for &id in ids.iter() {
                    let id = usize::try_from(id).expect("rumor id fits usize");
                    assert!(id < k, "payload mentions rumor {id} outside universe {k}");
                    words[id / 64] |= 1u64 << (id % 64);
                }
            }
            StreamPayload::Rows(batch) => {
                assert!(
                    batch.k().div_ceil(64) == words.len(),
                    "coefficient row width mismatch"
                );
                for row in batch.rows() {
                    for (w, r) in words.iter_mut().zip(row) {
                        *w |= r;
                    }
                }
            }
        }
        words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validates_and_looks_up() {
        let spec = StreamSpec::spread(8, 2, 10);
        assert_eq!(spec.k, 8);
        assert_eq!(spec.budget, 2);
        assert_eq!(spec.injections().len(), 8);
        assert_eq!(spec.origin(0).node, NodeId::new(3));
        assert_eq!(spec.origin(0).round, 0);
        assert_eq!(spec.origin(5).round, 1);
        assert_eq!(spec.last_injection_round(), 3);
        let hosted = spec.injections_at(NodeId::new(3));
        assert!(hosted.contains(&(0, 0)));
    }

    #[test]
    #[should_panic(expected = "exactly one injection per rumor")]
    fn spec_rejects_missing_rumors() {
        let _ = StreamSpec::new(
            2,
            1,
            vec![Injection {
                rumor: 0,
                node: NodeId::new(0),
                round: 0,
            }],
        );
    }

    #[test]
    fn ledger_credits_and_debits() {
        let mut l = BudgetLedger::new(3);
        assert_eq!(l.grant(), 3);
        assert!(l.spend(2));
        assert!(l.spend(1));
        assert!(!l.spend(1), "over-budget spend must be refused");
        assert_eq!(l.granted(), 3);
        assert_eq!(l.spent(), 3);
        let _ = l.grant();
        assert!(l.spend(3));
        assert_eq!(l.spent(), 6);
    }

    #[test]
    fn completion_log_records_first_only() {
        let mut log = CompletionLog::new(3);
        assert!(log.record(1, 5));
        assert!(!log.record(1, 9), "re-delivery must not move first-heard");
        assert_eq!(log.first_heard(1), Some(5));
        assert_eq!(log.count(), 1);
        assert!(!log.heard_all());
        assert!(log.record(0, 2));
        assert!(log.record(2, 7));
        assert!(log.heard_all());
        assert_eq!(log.heard_words(), vec![0b111]);
    }

    #[test]
    fn completion_fold_takes_worst_node() {
        let mut a = CompletionLog::new(2);
        let mut b = CompletionLog::new(2);
        assert!(a.record(0, 1));
        assert!(b.record(0, 4));
        assert!(a.record(1, 2));
        let curve = completion_rounds([a, b].iter());
        assert_eq!(curve, vec![Some(4), None]);
        assert_eq!(all_delivered_round(&curve), None);
        let mut b2 = CompletionLog::new(2);
        assert!(b2.record(0, 4));
        assert!(b2.record(1, 6));
        let mut a2 = CompletionLog::new(2);
        assert!(a2.record(0, 1));
        assert!(a2.record(1, 2));
        let done = completion_rounds([a2, b2].iter());
        assert_eq!(all_delivered_round(&done), Some(6));
    }

    #[test]
    fn payload_support_and_units() {
        let p = StreamPayload::Ids(Arc::from([0, 65]));
        assert_eq!(p.units(), 2);
        assert_eq!(p.support_words(66), vec![1, 2]);
        let q = StreamPayload::Rows(
            RowBatch::from_rows(66, &[vec![0b101, 0], vec![0, 0b10]]).expect("equal widths"),
        );
        assert_eq!(q.units(), 2);
        assert_eq!(q.support_words(66), vec![0b101, 0b10]);
        assert_eq!(StreamPayload::empty_ids().units(), 0);
        assert_eq!(StreamPayload::empty_rows(66).units(), 0);
    }

    #[test]
    fn log_fingerprint_distinguishes_rounds() {
        let mut a = CompletionLog::new(2);
        let mut b = CompletionLog::new(2);
        assert!(a.record(0, 3));
        assert!(b.record(0, 4));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}

//! [`RumorSet`]: a fixed-universe, copy-on-write bitset tracking which
//! nodes' rumors a node currently knows.
//!
//! All-to-all information dissemination completes when every node's
//! rumor set is full; one-to-all broadcast completes when every node's
//! set contains the source.

use latency_graph::NodeId;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Population count of one bitset word, widened checked (`u32` → at
/// most 64 always fits `usize`).
#[inline]
fn ones(word: u64) -> usize {
    usize::try_from(word.count_ones()).expect("popcount fits usize")
}

/// A set of node ids over the fixed universe `0..n`, backed by `u64`
/// words behind an [`Arc`]: a one-pointer, copy-on-write handle.
///
/// The engine snapshots a node's payload at initiation time and
/// delivers it rounds later. `clone` (and [`snapshot`](Self::snapshot),
/// its name at payload-capture sites) is a refcount bump, and the
/// buffer is copied lazily — only when a set is mutated *while* another
/// handle to the same buffer is alive, and the mutation actually
/// changes something. Nothing observable (contents, `==`, `Hash`,
/// [`fingerprint`](Self::fingerprint), [`as_words`](Self::as_words))
/// depends on whether two handles share a buffer.
///
/// # Example
///
/// ```
/// use gossip_sim::RumorSet;
/// use latency_graph::NodeId;
///
/// let mut a = RumorSet::singleton(100, NodeId::new(3));
/// let b = RumorSet::singleton(100, NodeId::new(70));
/// let in_flight = a.snapshot();      // O(1): shares a's buffer
/// assert!(a.union_with(&b));         // changed — a gets its own buffer
/// assert!(!a.union_with(&b));        // already contained
/// assert_eq!(a.len(), 2);
/// assert!(a.contains(NodeId::new(70)));
/// assert!(!a.is_full());
/// assert_eq!(in_flight.len(), 1);    // the snapshot did not move
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct RumorSet {
    inner: Arc<Bits>,
}

// The dense regime moves one of these per exchange endpoint; a wider
// handle measurably slows `clique_pushpull` (DESIGN.md §12).
const _: () = assert!(std::mem::size_of::<RumorSet>() == std::mem::size_of::<usize>());

/// The former name of the copy-on-write bitset, which is now
/// [`RumorSet`] itself. Kept only because the frozen `benchmark/`
/// package imports it (ROADMAP.md, "Next `benchmark` issue").
pub type SharedRumorSet = RumorSet;

/// The shared body of a [`RumorSet`]. `count` caches the population
/// count of `words`; bits at or beyond `universe` are always clear.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Bits {
    words: Vec<u64>,
    universe: usize,
    count: usize,
}

impl RumorSet {
    fn from_parts(words: Vec<u64>, universe: usize, count: usize) -> RumorSet {
        RumorSet {
            inner: Arc::new(Bits {
                words,
                universe,
                count,
            }),
        }
    }

    /// An empty set over the universe `0..n`.
    pub fn new(n: usize) -> RumorSet {
        RumorSet::from_parts(vec![0; n.div_ceil(64)], n, 0)
    }

    /// A set containing exactly `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.index() >= n`.
    pub fn singleton(n: usize, v: NodeId) -> RumorSet {
        let mut s = RumorSet::new(n);
        s.insert(v);
        s
    }

    /// A full set over the universe `0..n`: whole `u64` words set at
    /// once, with the final partial word masked down to the tail bits.
    pub fn full(n: usize) -> RumorSet {
        let mut words = vec![u64::MAX; n.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            let tail = n % 64;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        RumorSet::from_parts(words, n, n)
    }

    /// An O(1) snapshot of the current contents (refcount bump — no
    /// bits are copied). Semantically identical to `clone`; the name
    /// marks payload-capture sites in protocol code.
    #[inline]
    pub fn snapshot(&self) -> RumorSet {
        self.clone()
    }

    /// Whether `self` and `other` currently share one buffer (the
    /// copy-on-write fast path). Observable for tests; protocol results
    /// never depend on it.
    pub fn ptr_eq(&self, other: &RumorSet) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The universe size `n` this set ranges over.
    pub fn universe(&self) -> usize {
        self.inner.universe
    }

    /// Number of rumors known.
    pub fn len(&self) -> usize {
        self.inner.count
    }

    /// Whether no rumor is known.
    pub fn is_empty(&self) -> bool {
        self.inner.count == 0
    }

    /// Whether every rumor in the universe is known.
    pub fn is_full(&self) -> bool {
        self.inner.count == self.inner.universe
    }

    /// Whether `v`'s rumor is known.
    ///
    /// # Panics
    ///
    /// Panics if `v.index() >= universe`.
    pub fn contains(&self, v: NodeId) -> bool {
        let i = v.index();
        assert!(i < self.inner.universe, "node outside rumor universe");
        self.inner.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Inserts `v`'s rumor; returns `true` if it was new. Copies the
    /// buffer only if it is shared *and* the bit was actually absent.
    ///
    /// # Panics
    ///
    /// Panics if `v.index() >= universe`.
    pub fn insert(&mut self, v: NodeId) -> bool {
        if self.contains(v) {
            return false;
        }
        let bits = Arc::make_mut(&mut self.inner);
        bits.words[v.index() / 64] |= 1u64 << (v.index() % 64);
        bits.count += 1;
        true
    }

    /// Unions `other` into `self`; returns `true` if anything changed.
    ///
    /// Copy-on-write, in at most two passes over the word arrays. One
    /// fused scan classifies the pair: if `other` adds nothing the call
    /// is a no-op (no copy); if `other` is a strict superset, `self`
    /// adopts `other`'s buffer in O(1); otherwise a genuine merge is
    /// needed. The merge ORs in place when the buffer is unshared, and
    /// when it *is* shared (snapshots in flight) it builds the merged
    /// buffer directly rather than cloning first and merging second —
    /// the delivery hot path never copies a word it is about to
    /// overwrite.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union_with(&mut self, other: &RumorSet) -> bool {
        assert_eq!(
            self.universe(),
            other.universe(),
            "rumor universes must match"
        );
        if self.ptr_eq(other) || self.is_full() {
            return false;
        }
        let theirs = &other.inner.words;
        // Fused classification scan; exits early once a merge is known
        // to be unavoidable.
        let mut other_adds = false;
        let mut self_extra = false;
        for (&a, &b) in self.inner.words.iter().zip(theirs) {
            other_adds |= b & !a != 0;
            self_extra |= a & !b != 0;
            if other_adds && self_extra {
                break;
            }
        }
        if !other_adds {
            return false;
        }
        if !self_extra {
            self.inner = Arc::clone(&other.inner);
            return true;
        }
        if let Some(bits) = Arc::get_mut(&mut self.inner) {
            let mut count = 0usize;
            for (a, &b) in bits.words.iter_mut().zip(theirs) {
                *a |= b;
                count += ones(*a);
            }
            bits.count = count;
        } else {
            let mut count = 0usize;
            let merged = self.inner.words.iter().zip(theirs).map(|(&a, &b)| {
                count += ones(a | b);
                a | b
            });
            let words = merged.collect();
            *self = RumorSet::from_parts(words, self.universe(), count);
        }
        true
    }

    /// Whether `self` is a superset of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn is_superset(&self, other: &RumorSet) -> bool {
        assert_eq!(
            self.universe(),
            other.universe(),
            "rumor universes must match"
        );
        let (mine, theirs) = (&self.inner.words, &other.inner.words);
        mine.iter().zip(theirs).all(|(&a, &b)| b & !a == 0)
    }

    /// A 64-bit fingerprint of the set contents (equal sets ⇒ equal
    /// fingerprints; unequal sets collide with probability ≈ 2⁻⁶⁴).
    ///
    /// The distributed Termination Check (paper, Algorithm 1) compares
    /// rumor sets across nodes; exchanging fingerprints instead of full
    /// sets keeps those comparison messages small.
    pub fn fingerprint(&self) -> u64 {
        let universe = u64::try_from(self.universe()).expect("universe fits u64");
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ universe;
        for &w in &self.inner.words {
            h ^= w;
            h = h.wrapping_mul(0x100_0000_01b3);
            h ^= h >> 29;
        }
        h
    }

    /// The backing bitset words (little-endian bit order: bit `b` of
    /// word `w` is node `64w + b`). Exposed for wire encoders that
    /// serialize the set verbatim; pair with
    /// [`from_words`](Self::from_words) on the decode side.
    pub fn as_words(&self) -> &[u64] {
        &self.inner.words
    }

    /// Rebuilds a set over universe `n` from raw bitset words (the
    /// inverse of [`as_words`](Self::as_words)). Returns `None` when
    /// the words cannot encode a valid set: wrong word count for the
    /// universe, or set bits beyond the universe in the final partial
    /// word — a decoder must treat that as a malformed message, not a
    /// panic.
    pub fn from_words(n: usize, words: Vec<u64>) -> Option<RumorSet> {
        if words.len() != n.div_ceil(64) {
            return None;
        }
        if let Some(&last) = words.last() {
            let tail = n % 64;
            if tail != 0 && last >> tail != 0 {
                return None;
            }
        }
        let count = words.iter().map(|&w| ones(w)).sum();
        Some(RumorSet::from_parts(words, n, count))
    }

    /// Iterates over the known rumors in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.inner.words.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word >> b & 1 == 1)
                .map(move |b| NodeId::new(w * 64 + b))
        })
    }

    /// The symmetric difference `self ⊕ basis` as a compact set: one
    /// fused XOR + popcount scan over the word arrays, whose count alone
    /// picks the tier. Two handles sharing one buffer, or two full sets
    /// (the cached counts say so), short-circuit to the empty delta
    /// without touching a word.
    ///
    /// Together with [`apply_delta`](Self::apply_delta) this is an
    /// exact reconstruction pair: for any two sets over one universe,
    /// `basis.apply_delta(&set.diff(&basis))` yields `set` bit for bit
    /// (and therefore fingerprint for fingerprint).
    ///
    /// # Panics
    ///
    /// Panics if the universes differ, or if the universe exceeds
    /// `u32` range (compact ids are 32-bit).
    pub fn diff(&self, basis: &RumorSet) -> CompactRumorSet {
        assert_eq!(
            self.universe(),
            basis.universe(),
            "rumor universes must match"
        );
        if self.ptr_eq(basis) || (self.is_full() && basis.is_full()) {
            return CompactRumorSet::new(self.universe());
        }
        let mut words = Vec::with_capacity(self.inner.words.len());
        let mut count = 0usize;
        for (&a, &b) in self.inner.words.iter().zip(&basis.inner.words) {
            let x = a ^ b;
            count += ones(x);
            words.push(x);
        }
        CompactRumorSet::from_counted_words(self.universe(), Cow::Owned(words), count)
    }

    /// XORs `delta` into `self` in one fused scan (symmetric
    /// difference in place), recounting as it goes. Applying the delta
    /// produced by [`diff`](Self::diff) against the same basis
    /// reconstructs the original set exactly, preserving bit-identical
    /// fingerprints. Copy-on-write: an empty delta is a no-op and never
    /// copies.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn apply_delta(&mut self, delta: &CompactRumorSet) {
        assert_eq!(
            self.universe(),
            delta.universe(),
            "rumor universes must match"
        );
        if delta.is_empty() {
            return;
        }
        let bits = Arc::make_mut(&mut self.inner);
        let mut count = 0usize;
        for (a, d) in bits.words.iter_mut().zip(delta.words()) {
            *a ^= d;
            count += ones(*a);
        }
        bits.count = count;
    }
}

/// Sparse representation capacity: a [`CompactRumorSet`] holding at
/// most this many ids stays an id list. Chosen so the sparse form never
/// exceeds the footprint of a 2048-node bitset (32 × `u32` = 16 words).
/// The first `INLINE` of them live inside the value itself; only a
/// longer list owns a heap block.
pub const SPARSE_MAX: usize = 32;

/// How many ids the sparse tier keeps inside the value. Not a tunable:
/// `len` + five `u32`s are 21 bytes, the most that fits in the 24 bytes
/// a `Vec` header would occupy in the same place, so the inline form
/// makes [`CompactRumorSet`] no larger (asserted below the type) and
/// the payloads the engine holds in flight do not grow.
const INLINE: usize = 5;

/// The sparse tier's strictly increasing id list. Canonical: a list of
/// at most [`INLINE`] ids is always `Inline`, so a one-to-all run —
/// whose every set is ∅ or {source} — never touches the allocator.
/// Reads go through `Deref<Target = [u32]>`.
#[derive(Clone, Debug)]
enum Ids {
    /// `buf[..len]` holds the ids.
    Inline { len: u8, buf: [u32; INLINE] },
    /// More than [`INLINE`] ids (sets only grow, so never fewer).
    Heap(Vec<u32>),
}

impl Ids {
    /// Copies a strictly increasing id list into its canonical form.
    fn from_sorted(ids: &[u32]) -> Ids {
        if ids.len() <= INLINE {
            let mut buf = [0; INLINE];
            buf[..ids.len()].copy_from_slice(ids);
            Ids::Inline {
                len: u8::try_from(ids.len()).expect("inline length fits u8"),
                buf,
            }
        } else {
            Ids::Heap(ids.to_vec())
        }
    }

    /// Inserts `id` at position `p`, spilling to the heap when the
    /// inline buffer is full.
    fn insert(&mut self, p: usize, id: u32) {
        match self {
            Ids::Inline { len, buf } => {
                let n = usize::from(*len);
                if n < INLINE {
                    buf.copy_within(p..n, p + 1);
                    buf[p] = id;
                    *len += 1;
                } else {
                    let mut ids = buf.to_vec();
                    ids.insert(p, id);
                    *self = Ids::Heap(ids);
                }
            }
            Ids::Heap(ids) => ids.insert(p, id),
        }
    }
}

impl std::ops::Deref for Ids {
    type Target = [u32];

    #[inline]
    fn deref(&self) -> &[u32] {
        match self {
            Ids::Inline { len, buf } => &buf[..usize::from(*len)],
            Ids::Heap(ids) => ids,
        }
    }
}

/// The internal representation tiers of a [`CompactRumorSet`].
///
/// The tier is a function of the count alone: `Full` when the set
/// covers its universe, else `Sparse` up to [`SPARSE_MAX`] ids, else
/// `Bitset`. Rumor sets only grow, so promotion is monotone and equal
/// contents always sit in the same tier.
#[derive(Clone, Debug)]
enum Repr {
    /// Strictly increasing ids; at most [`SPARSE_MAX`] of them, the
    /// first [`INLINE`] stored in place.
    Sparse(Ids),
    /// Plain bitset words, exactly as in [`RumorSet`]; more than
    /// [`SPARSE_MAX`] ids.
    Bitset(Vec<u64>),
    /// Every id in the universe: O(1) memory regardless of `n`.
    Full,
}

/// A borrowed view of a [`CompactRumorSet`]'s representation tier,
/// exposed by [`CompactRumorSet::as_parts`] so wire codecs can read
/// each tier natively instead of scanning bits.
///
/// The invariants of the private representation hold on every view:
/// `Sparse` ids are strictly increasing and at most [`SPARSE_MAX`],
/// and `Bitset` words carry more than [`SPARSE_MAX`] ids and no bits
/// at or beyond the universe.
#[derive(Clone, Copy, Debug)]
pub enum CompactParts<'a> {
    /// Strictly increasing ids.
    Sparse(&'a [u32]),
    /// Plain bitset words, exactly as in [`RumorSet::as_words`].
    Bitset(&'a [u64]),
    /// Every id in the universe.
    Full,
}

/// A [`RumorSet`] with a tiered, automatically-promoting
/// representation: id list → bitset → constant "full" marker.
///
/// Behaviorally identical to a `RumorSet` over the same universe —
/// `insert`, `union_with`, `contains`, `len`, `is_superset`, `iter`,
/// and crucially [`fingerprint`](Self::fingerprint) (computed over the
/// *materialized word stream*, so it is bit-for-bit the `RumorSet`
/// fingerprint of the same contents). The difference is the memory
/// model: one-to-all dissemination states (a handful of ids, or "all
/// of them") cost O(1) words per node instead of `⌈n/64⌉` — and those
/// words are inside the value, not behind a pointer: up to five ids
/// are stored in place, so creating, cloning, merging and dropping such
/// a set never allocates. That is what makes million-node simulation
/// fit in RAM and keeps its per-exchange cost off the allocator.
///
/// `==` compares contents (the tier follows from the count, so equal
/// sets share one); the type is deliberately not `Hash`.
///
/// # Example
///
/// ```
/// use gossip_sim::{CompactRumorSet, RumorSet};
/// use latency_graph::NodeId;
///
/// let n = 1_000_000;
/// let mut c = CompactRumorSet::singleton(n, NodeId::new(3));
/// c.insert(NodeId::new(7));          // two ids, stored in place
/// let dense = {
///     let mut s = RumorSet::singleton(n, NodeId::new(3));
///     s.insert(NodeId::new(7));
///     s
/// };
/// assert_eq!(c.fingerprint(), dense.fingerprint());
/// ```
#[derive(Clone)]
pub struct CompactRumorSet {
    repr: Repr,
    universe: usize,
    count: usize,
}

// The layout argument `INLINE` rests on: the inline sparse tier costs
// no bytes over the `Vec`-headed tiers beside it.
const _: () = assert!(std::mem::size_of::<CompactRumorSet>() <= 48);

impl PartialEq for CompactRumorSet {
    /// Equality of contents. Equal counts over one universe share a
    /// tier, and each tier's form is canonical, so the backing slices
    /// decide.
    fn eq(&self, other: &CompactRumorSet) -> bool {
        if self.universe != other.universe || self.count != other.count {
            return false;
        }
        match (&self.repr, &other.repr) {
            (Repr::Sparse(a), Repr::Sparse(b)) => a[..] == b[..],
            (Repr::Bitset(a), Repr::Bitset(b)) => a == b,
            (Repr::Full, Repr::Full) => true,
            _ => unreachable!("equal counts over one universe share a tier"),
        }
    }
}

impl Eq for CompactRumorSet {}

/// Widens a compact 32-bit id to a `usize` index (always fits: the
/// compact universe is validated to fit `u32`, and `usize ≥ 32` bits on
/// every supported target).
#[inline]
fn wide(id: u32) -> usize {
    usize::try_from(id).expect("compact id fits usize")
}

impl CompactRumorSet {
    /// An empty set over the universe `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32` range (compact ids are 32-bit).
    pub fn new(n: usize) -> CompactRumorSet {
        assert!(
            u32::try_from(n).is_ok(),
            "compact rumor universe must fit u32"
        );
        if n == 0 {
            // count == universe, so the empty universe is Full — the
            // invariant every mutation below maintains.
            return CompactRumorSet {
                repr: Repr::Full,
                universe: 0,
                count: 0,
            };
        }
        CompactRumorSet {
            repr: Repr::Sparse(Ids::from_sorted(&[])),
            universe: n,
            count: 0,
        }
    }

    /// A set containing exactly `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.index() >= n`.
    pub fn singleton(n: usize, v: NodeId) -> CompactRumorSet {
        let mut s = CompactRumorSet::new(n);
        s.insert(v);
        s
    }

    /// The full set over `0..n` — O(1) time and memory at any `n`.
    pub fn full(n: usize) -> CompactRumorSet {
        assert!(
            u32::try_from(n).is_ok(),
            "compact rumor universe must fit u32"
        );
        CompactRumorSet {
            repr: Repr::Full,
            universe: n,
            count: n,
        }
    }

    /// Builds the compact form of a plain bitset, choosing the smallest
    /// representation tier that fits its contents. The set's words are
    /// read in place: only the bitset tier copies them.
    ///
    /// # Panics
    ///
    /// Panics if the universe exceeds `u32` range.
    pub fn from_set(set: &RumorSet) -> CompactRumorSet {
        CompactRumorSet::from_counted_words(
            set.universe(),
            Cow::Borrowed(set.as_words()),
            set.len(),
        )
    }

    /// Classifies pre-counted bitset words (the output of a fused XOR
    /// or union scan) by their count: full, an id list, or the words
    /// themselves. Borrowed words are copied only for that bitset.
    ///
    /// # Panics
    ///
    /// Panics if `universe` exceeds `u32` range.
    fn from_counted_words(universe: usize, words: Cow<'_, [u64]>, count: usize) -> CompactRumorSet {
        assert!(
            u32::try_from(universe).is_ok(),
            "compact rumor universe must fit u32"
        );
        if count == universe {
            return CompactRumorSet::full(universe);
        }
        if count <= SPARSE_MAX {
            let mut ids = [0u32; SPARSE_MAX];
            let mut len = 0;
            for (wi, &word) in words.iter().enumerate() {
                let mut w = word;
                let base = u32::try_from(wi * 64).expect("bit offset fits u32");
                while w != 0 {
                    ids[len] = base + w.trailing_zeros();
                    len += 1;
                    w &= w - 1;
                }
            }
            return CompactRumorSet {
                repr: Repr::Sparse(Ids::from_sorted(&ids[..len])),
                universe,
                count,
            };
        }
        CompactRumorSet {
            repr: Repr::Bitset(words.into_owned()),
            universe,
            count,
        }
    }

    /// The universe size `n` this set ranges over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of rumors known.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether no rumor is known.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Whether every rumor in the universe is known.
    pub fn is_full(&self) -> bool {
        self.count == self.universe
    }

    /// A borrowed view of the current representation tier — see
    /// [`CompactParts`]. Serializers read the id list or the words in
    /// place instead of materializing them.
    pub fn as_parts(&self) -> CompactParts<'_> {
        match &self.repr {
            Repr::Sparse(ids) => CompactParts::Sparse(ids),
            Repr::Bitset(words) => CompactParts::Bitset(words),
            Repr::Full => CompactParts::Full,
        }
    }

    /// The number of `u64` words in the backing store of this set's
    /// current representation (0 for `Full`) — the memory-model
    /// observable the promotion tests pin.
    pub fn repr_words(&self) -> usize {
        match &self.repr {
            Repr::Sparse(ids) => ids.len().div_ceil(2),
            Repr::Bitset(words) => words.len(),
            Repr::Full => 0,
        }
    }

    /// Whether `v`'s rumor is known.
    ///
    /// # Panics
    ///
    /// Panics if `v.index() >= universe`.
    pub fn contains(&self, v: NodeId) -> bool {
        let i = v.index();
        assert!(i < self.universe, "node outside rumor universe");
        let id = u32::try_from(i).expect("id fits u32");
        match &self.repr {
            Repr::Sparse(ids) => ids.binary_search(&id).is_ok(),
            Repr::Bitset(words) => words[i / 64] >> (i % 64) & 1 == 1,
            Repr::Full => true,
        }
    }

    /// Inserts `v`'s rumor; returns `true` if it was new. Promotes the
    /// representation when the current tier overflows.
    ///
    /// # Panics
    ///
    /// Panics if `v.index() >= universe`.
    pub fn insert(&mut self, v: NodeId) -> bool {
        let i = v.index();
        assert!(i < self.universe, "node outside rumor universe");
        let id = u32::try_from(i).expect("id fits u32");
        let inserted = match &mut self.repr {
            Repr::Sparse(ids) => match ids.binary_search(&id) {
                Ok(_) => false,
                Err(p) => {
                    ids.insert(p, id);
                    true
                }
            },
            Repr::Bitset(words) => {
                let mask = 1u64 << (i % 64);
                if words[i / 64] & mask == 0 {
                    words[i / 64] |= mask;
                    true
                } else {
                    false
                }
            }
            Repr::Full => false,
        };
        if inserted {
            self.count += 1;
            self.normalize();
        }
        inserted
    }

    /// Unions `other` into `self`; returns `true` if anything changed.
    ///
    /// Same-tier pairs merge with a single fused scan (sorted-list
    /// merge, or the bitset OR+popcount pass of
    /// [`RumorSet::union_with`]); a sparse `self` first promotes to a
    /// bitset operand's tier. A `Full` operand short-circuits in O(1),
    /// and a sparse operand that adds nothing returns before any write
    /// — the case at all but `n − 1` delivery endpoints of a one-to-all
    /// run.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union_with(&mut self, other: &CompactRumorSet) -> bool {
        assert_eq!(self.universe, other.universe, "rumor universes must match");
        if other.count == 0 || self.is_full() {
            return false;
        }
        if other.is_full() {
            self.repr = Repr::Full;
            self.count = self.universe;
            return true;
        }
        // A sparse self promotes to a bitset operand's tier, so the merge
        // below is always same-tier or bitset-absorbs-sparse.
        if matches!(other.repr, Repr::Bitset(_)) {
            self.promote_to_bitset();
        }
        let old = self.count;
        match (&mut self.repr, &other.repr) {
            (Repr::Sparse(a), Repr::Sparse(b)) => {
                if is_sorted_subset(b, a) {
                    return false;
                }
                let mut merged = [0u32; 2 * SPARSE_MAX];
                let len = merge_sorted(a, b, &mut merged);
                self.count = len;
                *a = Ids::from_sorted(&merged[..len]);
            }
            // Sparse operands only touch the words they cover.
            (Repr::Bitset(words), Repr::Sparse(b)) => {
                let mut added = 0usize;
                for &id in b.iter() {
                    let (w, bit) = (wide(id) / 64, 1u64 << (id % 64));
                    if words[w] & bit == 0 {
                        words[w] |= bit;
                        added += 1;
                    }
                }
                self.count += added;
            }
            // Fused OR + popcount scan, exactly as the plain bitset union.
            (Repr::Bitset(words), Repr::Bitset(b)) => {
                let mut count = 0usize;
                for (a, &bw) in words.iter_mut().zip(b) {
                    *a |= bw;
                    count += ones(*a);
                }
                self.count = count;
            }
            (Repr::Full, _) | (_, Repr::Full) => unreachable!("full operands handled above"),
            (Repr::Sparse(_), Repr::Bitset(_)) => unreachable!("self was promoted to other's tier"),
        }
        self.normalize();
        self.count != old
    }

    /// Whether `self` is a superset of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn is_superset(&self, other: &CompactRumorSet) -> bool {
        assert_eq!(self.universe, other.universe, "rumor universes must match");
        if other.count > self.count {
            return false;
        }
        self.words().zip(other.words()).all(|(a, b)| b & !a == 0)
    }

    /// A 64-bit fingerprint of the set contents, computed over the
    /// materialized word stream — **bit-identical to
    /// [`RumorSet::fingerprint`]** of the same contents, so golden
    /// traces cannot tell the representations apart.
    pub fn fingerprint(&self) -> u64 {
        let universe = u64::try_from(self.universe).expect("universe fits u64");
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ universe;
        for w in self.words() {
            h ^= w;
            h = h.wrapping_mul(0x100_0000_01b3);
            h ^= h >> 29;
        }
        h
    }

    /// Materializes the equivalent plain bitset.
    pub fn to_set(&self) -> RumorSet {
        RumorSet::from_words(self.universe, self.words().collect())
            .expect("compact words are well-formed")
    }

    /// Iterates over the known rumors in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        let per_repr: Box<dyn Iterator<Item = usize> + '_> = match &self.repr {
            Repr::Sparse(ids) => Box::new(ids.iter().map(|&v| wide(v))),
            Repr::Bitset(words) => Box::new(words.iter().enumerate().flat_map(|(w, &word)| {
                (0..64)
                    .filter(move |b| word >> b & 1 == 1)
                    .map(move |b| w * 64 + b)
            })),
            Repr::Full => Box::new(0..self.universe),
        };
        per_repr.map(NodeId::new)
    }

    /// The set as a stream of bitset words (little-endian bit order,
    /// `⌈n/64⌉` words), materialized lazily from whatever the current
    /// representation is.
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        let nwords = self.universe.div_ceil(64);
        let tail = self.universe % 64;
        (0..nwords).scan(0usize, move |cursor, w| {
            // Word `w` ends before bit `hi`; compare in u64 so `hi`
            // cannot overflow at the top of the u32 range.
            let hi = u64::try_from(w * 64 + 64).expect("bit offset fits u64");
            Some(match &self.repr {
                Repr::Sparse(ids) => {
                    let mut word = 0u64;
                    while *cursor < ids.len() && u64::from(ids[*cursor]) < hi {
                        word |= 1u64 << (ids[*cursor] % 64);
                        *cursor += 1;
                    }
                    word
                }
                Repr::Bitset(words) => words[w],
                Repr::Full => {
                    if w + 1 == nwords && tail != 0 {
                        (1u64 << tail) - 1
                    } else {
                        u64::MAX
                    }
                }
            })
        })
    }

    /// Re-establishes the representation invariants after a mutation:
    /// an overflowing id list promotes to a bitset, and a set covering
    /// its universe collapses to the O(1) `Full` marker.
    fn normalize(&mut self) {
        if self.count == self.universe {
            self.repr = Repr::Full;
            return;
        }
        if matches!(&self.repr, Repr::Sparse(ids) if ids.len() > SPARSE_MAX) {
            self.promote_to_bitset();
        }
    }

    fn promote_to_bitset(&mut self) {
        if matches!(self.repr, Repr::Sparse(_)) {
            self.repr = Repr::Bitset(self.words().collect());
        }
    }
}

/// Whether every id of `sub` occurs in `sup` (both strictly
/// increasing): one forward scan of `sup`, resumed from where the
/// previous id was found.
fn is_sorted_subset(sub: &[u32], sup: &[u32]) -> bool {
    let mut rest = sup.iter();
    sub.len() <= sup.len() && sub.iter().all(|id| rest.find(|&s| s >= id) == Some(id))
}

/// Merges two strictly increasing id lists (set union) into the front
/// of `out`, which must hold `a.len() + b.len()` ids; returns how many
/// it wrote.
fn merge_sorted(a: &[u32], b: &[u32], out: &mut [u32]) -> usize {
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out[k] = a[i];
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out[k] = b[j];
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out[k] = a[i];
                i += 1;
                j += 1;
            }
        }
        k += 1;
    }
    for rest in [&a[i..], &b[j..]] {
        out[k..k + rest.len()].copy_from_slice(rest);
        k += rest.len();
    }
    k
}

impl fmt::Debug for CompactRumorSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tier = match &self.repr {
            Repr::Sparse(_) => "sparse",
            Repr::Bitset(_) => "bitset",
            Repr::Full => "full",
        };
        write!(
            f,
            "CompactRumorSet[{tier}]({}/{})",
            self.count, self.universe
        )
    }
}

impl From<&RumorSet> for CompactRumorSet {
    fn from(set: &RumorSet) -> CompactRumorSet {
        CompactRumorSet::from_set(set)
    }
}

impl fmt::Debug for RumorSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RumorSet({}/{}; ", self.len(), self.universe())?;
        let mut first = true;
        for v in self.iter().take(8) {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
            first = false;
        }
        if self.len() > 8 {
            write!(f, ", …")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = RumorSet::new(130);
        assert!(s.insert(NodeId::new(0)));
        assert!(s.insert(NodeId::new(64)));
        assert!(s.insert(NodeId::new(129)));
        assert!(!s.insert(NodeId::new(64)));
        assert_eq!(s.len(), 3);
        assert!(s.contains(NodeId::new(129)));
        assert!(!s.contains(NodeId::new(1)));
    }

    #[test]
    fn union_tracks_change_and_count() {
        let mut a = RumorSet::singleton(10, NodeId::new(1));
        let mut b = RumorSet::singleton(10, NodeId::new(2));
        b.insert(NodeId::new(1));
        assert!(a.union_with(&b));
        assert_eq!(a.len(), 2);
        assert!(!a.union_with(&b));
    }

    #[test]
    fn shared_snapshot_is_isolated_from_later_mutation() {
        let mut live = RumorSet::singleton(100, NodeId::new(3));
        let snap = live.snapshot();
        assert!(snap.ptr_eq(&live), "snapshot is a refcount bump");
        assert!(live.insert(NodeId::new(7)));
        assert!(!snap.ptr_eq(&live), "mutation under sharing must clone");
        assert!(!snap.contains(NodeId::new(7)), "snapshot sees old state");
        assert!(live.contains(NodeId::new(7)));
        assert_eq!(snap.len(), 1);
        assert_eq!(live.len(), 2);
    }

    #[test]
    fn shared_union_noop_never_clones() {
        let mut a = RumorSet::full(128);
        let snap = a.snapshot();
        let b = RumorSet::singleton(128, NodeId::new(5));
        assert!(!a.union_with(&b), "superset union is a no-op");
        assert!(snap.ptr_eq(&a), "no-op union must not unshare");
        assert!(!a.insert(NodeId::new(5)), "present-bit insert is a no-op");
        assert!(snap.ptr_eq(&a));
    }

    #[test]
    fn shared_union_adopts_superset_buffer() {
        let mut a = RumorSet::singleton(64, NodeId::new(1));
        let mut b = RumorSet::singleton(64, NodeId::new(1));
        b.insert(NodeId::new(2));
        assert!(a.union_with(&b));
        assert!(a.ptr_eq(&b), "subset side adopts the superset buffer");
        assert_eq!(a.len(), 2);
        // Overlapping-but-incomparable sets merge word-by-word.
        let c = RumorSet::singleton(64, NodeId::new(9));
        let mut d = a.snapshot();
        assert!(d.union_with(&c));
        assert!(!d.ptr_eq(&a) && !d.ptr_eq(&c));
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn full_matches_insert_loop() {
        // Word-filled construction must equal bit-by-bit insertion for
        // universes hitting every tail-mask case: empty, sub-word,
        // word-aligned, word+1, and multi-word.
        for n in [0usize, 1, 5, 63, 64, 65, 127, 128, 129, 1000] {
            let mut by_insert = RumorSet::new(n);
            for i in 0..n {
                by_insert.insert(NodeId::new(i));
            }
            let filled = RumorSet::full(n);
            assert_eq!(filled, by_insert, "universe {n}");
            assert_eq!(filled.len(), n);
            assert!(n == 0 || filled.is_full());
            assert_eq!(filled.fingerprint(), by_insert.fingerprint());
        }
    }

    #[test]
    fn words_round_trip() {
        for n in [0usize, 1, 63, 64, 65, 130] {
            let mut s = RumorSet::new(n);
            for i in (0..n).step_by(3) {
                s.insert(NodeId::new(i));
            }
            let rebuilt = RumorSet::from_words(n, s.as_words().to_vec())
                .expect("valid words must round-trip");
            assert_eq!(rebuilt, s, "universe {n}");
            assert_eq!(rebuilt.len(), s.len());
        }
    }

    #[test]
    fn from_words_rejects_malformed() {
        // Wrong word count for the universe.
        assert!(RumorSet::from_words(100, vec![0; 1]).is_none());
        assert!(RumorSet::from_words(100, vec![0; 3]).is_none());
        // Bits set beyond the universe in the final partial word.
        assert!(RumorSet::from_words(10, vec![1 << 10]).is_none());
        // Exactly the tail bits is fine.
        assert!(RumorSet::from_words(10, vec![(1 << 10) - 1]).is_some());
    }

    #[test]
    fn full_and_empty() {
        let f = RumorSet::full(77);
        assert!(f.is_full());
        assert_eq!(f.len(), 77);
        let e = RumorSet::new(77);
        assert!(e.is_empty());
        assert!(f.is_superset(&e));
        assert!(!e.is_superset(&f));
    }

    #[test]
    fn iter_in_order() {
        let mut s = RumorSet::new(200);
        for i in [5usize, 63, 64, 65, 199] {
            s.insert(NodeId::new(i));
        }
        let got: Vec<usize> = s.iter().map(latency_graph::NodeId::index).collect();
        assert_eq!(got, vec![5, 63, 64, 65, 199]);
    }

    #[test]
    fn superset_reflexive() {
        let s = RumorSet::singleton(10, NodeId::new(4));
        assert!(s.is_superset(&s.clone()));
    }

    #[test]
    #[should_panic(expected = "universe")]
    fn contains_out_of_universe_panics() {
        let s = RumorSet::new(10);
        let _ = s.contains(NodeId::new(10));
    }

    #[test]
    #[should_panic(expected = "universes must match")]
    fn union_mismatched_universe_panics() {
        let mut a = RumorSet::new(10);
        let b = RumorSet::new(11);
        a.union_with(&b);
    }

    #[test]
    fn debug_truncates() {
        let f = RumorSet::full(20);
        let d = format!("{f:?}");
        assert!(d.contains("20/20"));
        assert!(d.contains('…'));
    }

    // --- CompactRumorSet ---

    fn tier(c: &CompactRumorSet) -> &'static str {
        match format!("{c:?}") {
            s if s.contains("[sparse]") => "sparse",
            s if s.contains("[bitset]") => "bitset",
            _ => "full",
        }
    }

    #[test]
    fn compact_matches_bitset_on_inserts() {
        let n = 500;
        let mut c = CompactRumorSet::new(n);
        let mut s = RumorSet::new(n);
        for i in [3usize, 64, 65, 66, 67, 499, 3, 128] {
            assert_eq!(c.insert(NodeId::new(i)), s.insert(NodeId::new(i)), "id {i}");
            assert_eq!(c.len(), s.len());
            assert_eq!(c.fingerprint(), s.fingerprint());
        }
        assert!(c.contains(NodeId::new(66)));
        assert!(!c.contains(NodeId::new(4)));
        assert_eq!(c.to_set(), s);
        let ids: Vec<usize> = c.iter().map(NodeId::index).collect();
        let want: Vec<usize> = s.iter().map(NodeId::index).collect();
        assert_eq!(ids, want);
    }

    #[test]
    fn compact_promotes_sparse_bitset_full() {
        let n = 10_000;
        let mut c = CompactRumorSet::new(n);
        assert_eq!(tier(&c), "sparse");
        for i in 0..SPARSE_MAX {
            c.insert(NodeId::new(i));
        }
        assert_eq!(tier(&c), "sparse");
        // One id past the sparse capacity promotes to a bitset, however
        // few runs cover the set.
        c.insert(NodeId::new(SPARSE_MAX));
        assert_eq!(tier(&c), "bitset");
        assert_eq!(c.repr_words(), n.div_ceil(64));
        // Covering the universe collapses to the O(1) full marker.
        let mut tiny = CompactRumorSet::new(70);
        for i in 0..70 {
            tiny.insert(NodeId::new(i));
        }
        assert_eq!(tier(&tiny), "full");
        assert_eq!(tiny.repr_words(), 0);
        assert!(tiny.is_full());
        assert_eq!(tiny.fingerprint(), RumorSet::full(70).fingerprint());
    }

    #[test]
    fn compact_full_is_constant_size() {
        let c = CompactRumorSet::full(1_000_000);
        assert_eq!(c.repr_words(), 0);
        assert_eq!(c.len(), 1_000_000);
        assert!(c.contains(NodeId::new(999_999)));
        assert_eq!(c.fingerprint(), RumorSet::full(1_000_000).fingerprint());
    }

    #[test]
    fn compact_union_all_tier_pairs() {
        // Build one operand per tier over the same universe and union
        // every ordered pair; results must match plain bitset unions.
        let n = 4096;
        let make = |ids: &[usize]| {
            let mut c = CompactRumorSet::new(n);
            let mut s = RumorSet::new(n);
            for &i in ids {
                c.insert(NodeId::new(i));
                s.insert(NodeId::new(i));
            }
            (c, s)
        };
        let sparse: Vec<usize> = (0..8).map(|i| i * 17).collect();
        let scattered: Vec<usize> = (0..200).map(|i| i * 3).collect();
        let everything: Vec<usize> = (0..n).collect();
        let operands = [make(&sparse), make(&scattered), make(&everything)];
        assert_eq!(tier(&operands[0].0), "sparse");
        assert_eq!(tier(&operands[1].0), "bitset");
        assert_eq!(tier(&operands[2].0), "full");
        for (ca, sa) in &operands {
            for (cb, sb) in &operands {
                let mut c = ca.clone();
                let mut s = sa.clone();
                assert_eq!(c.union_with(cb), s.union_with(sb));
                assert_eq!(c.len(), s.len());
                assert_eq!(c.fingerprint(), s.fingerprint(), "{ca:?} ∪ {cb:?}");
                assert!(c.is_superset(cb));
            }
        }
    }

    #[test]
    fn compact_from_set_round_trips() {
        let n = 300;
        for ids in [
            Vec::new(),
            vec![5usize],
            (0..100).collect::<Vec<_>>(),
            (0..n).step_by(2).collect::<Vec<_>>(),
            (0..n).collect::<Vec<_>>(),
        ] {
            let mut s = RumorSet::new(n);
            for &i in &ids {
                s.insert(NodeId::new(i));
            }
            let c = CompactRumorSet::from_set(&s);
            assert_eq!(c.len(), s.len());
            assert_eq!(c.fingerprint(), s.fingerprint());
            assert_eq!(c.to_set(), s);
        }
    }

    #[test]
    #[should_panic(expected = "universes must match")]
    fn compact_union_mismatched_universe_panics() {
        let mut a = CompactRumorSet::new(10);
        let b = CompactRumorSet::new(11);
        a.union_with(&b);
    }

    fn compact_of(n: usize, ids: &[usize]) -> CompactRumorSet {
        let mut c = CompactRumorSet::new(n);
        for &i in ids {
            c.insert(NodeId::new(i));
        }
        c
    }

    fn is_inline(c: &CompactRumorSet) -> bool {
        matches!(c.repr, Repr::Sparse(Ids::Inline { .. }))
    }

    fn is_heap(c: &CompactRumorSet) -> bool {
        matches!(c.repr, Repr::Sparse(Ids::Heap(_)))
    }

    #[test]
    fn sparse_tier_is_inline_up_to_five_ids_whatever_built_it() {
        let n = 1000;
        let five = [900usize, 3, 64, 500, 7];
        let by_insert = compact_of(n, &five);
        let by_union = {
            let mut c = compact_of(n, &five[..3]);
            assert!(c.union_with(&compact_of(n, &five[2..])));
            c
        };
        let by_diff = set_of(n, &five).diff(&RumorSet::new(n));
        let by_clone = by_insert.clone();
        let sorted = compact_of(n, &[3, 7, 64, 500, 900]);
        for c in [&by_insert, &by_union, &by_diff, &by_clone] {
            assert!(is_inline(c), "{c:?} left the inline form");
            assert_eq!(c.len(), 5);
            assert_eq!(*c, sorted, "canonical form is order-independent");
        }
        assert!(is_inline(&CompactRumorSet::new(n)));
        // The sixth id spills, by every route, and equal contents stay
        // equal across the two builds.
        let six = [900usize, 3, 64, 500, 7, 8];
        let mut spilled = by_insert.clone();
        assert!(spilled.insert(NodeId::new(8)));
        let mut merged = compact_of(n, &six[..4]);
        assert!(merged.union_with(&compact_of(n, &six[2..])));
        let diffed = set_of(n, &six).diff(&RumorSet::new(n));
        for c in [&spilled, &merged, &diffed, &spilled.clone()] {
            assert!(is_heap(c), "{c:?} should have spilled");
            assert_eq!(c.len(), 6);
            assert_eq!(*c, spilled);
        }
        // Overlapping operands whose lengths sum past five but whose
        // union does not: still inline.
        let mut overlap = compact_of(n, &[1, 2, 3, 4]);
        assert!(overlap.union_with(&compact_of(n, &[2, 3, 4, 5])));
        assert!(is_inline(&overlap));
        assert_eq!(overlap, compact_of(n, &[5, 4, 3, 2, 1]));
    }

    #[test]
    fn subset_union_reports_no_change_and_writes_nothing() {
        let n = 1000;
        for ids in [&[7usize][..], &[1, 5, 9], &[1, 2, 3, 4, 5, 6, 7, 8]] {
            let mut c = compact_of(n, ids);
            let before = format!("{:?}", c.repr);
            for sub in [&ids[..0], &ids[..1], &ids[ids.len() / 2..], ids] {
                assert!(!c.union_with(&compact_of(n, sub)), "{sub:?} ⊆ {ids:?}");
                assert_eq!(format!("{:?}", c.repr), before);
                assert_eq!(c.len(), ids.len());
            }
            // Same length, different contents: not a subset.
            let mut shifted = compact_of(n, &ids.iter().map(|i| i + 10).collect::<Vec<_>>());
            assert!(shifted.union_with(&c));
            assert_eq!(shifted.len(), 2 * ids.len());
        }
    }

    #[test]
    fn equality_is_by_contents_whatever_built_it() {
        // Evens first, then odds: {0 ..= 66} promoted by inserts,
        // against the same set classified from its words at once.
        let n = 1000;
        let mut x = CompactRumorSet::new(n);
        for i in (0..=66).step_by(2).chain((1..=66).step_by(2)) {
            x.insert(NodeId::new(i));
        }
        let y = CompactRumorSet::from_set(&set_of(n, &(0..=66).collect::<Vec<_>>()));
        assert_eq!((tier(&x), tier(&y)), ("bitset", "bitset"));
        assert_eq!(x.fingerprint(), y.fingerprint());
        assert_eq!(x, y);
        assert_eq!(y, x);
        let mut z = y.clone();
        z.insert(NodeId::new(500));
        assert_ne!(x, z);
        assert_ne!(
            CompactRumorSet::singleton(10, NodeId::new(3)),
            CompactRumorSet::singleton(11, NodeId::new(3)),
            "same ids, different universes"
        );
    }

    /// Builds a `RumorSet` over `n` from explicit ids.
    fn set_of(n: usize, ids: &[usize]) -> RumorSet {
        let mut s = RumorSet::new(n);
        for &i in ids {
            s.insert(NodeId::new(i));
        }
        s
    }

    #[test]
    fn diff_apply_round_trips_exactly() {
        let n = 300;
        let shapes: Vec<Vec<usize>> = vec![
            Vec::new(),
            vec![5],
            (0..100).collect(),
            (0..n).step_by(2).collect(),
            (0..n).step_by(7).collect(),
            (0..n).collect(),
            (40..200).collect(),
        ];
        for a_ids in &shapes {
            for b_ids in &shapes {
                let a = set_of(n, a_ids);
                let b = set_of(n, b_ids);
                let delta = a.diff(&b);
                // apply_delta(b, a ⊕ b) reconstructs a bit for bit.
                let mut back = b.clone();
                back.apply_delta(&delta);
                assert_eq!(back, a);
                assert_eq!(back.fingerprint(), a.fingerprint());
                assert_eq!(back.len(), a.len());
                // Symmetry: applying the same delta to a yields b.
                let mut other = a.clone();
                other.apply_delta(&delta);
                assert_eq!(other, b);
            }
        }
    }

    #[test]
    fn diff_tier_follows_the_count() {
        let n = 4096;
        // Identical sets: empty delta stays sparse with zero words.
        let a = set_of(n, &(0..n).step_by(3).collect::<Vec<_>>());
        assert_eq!(a.diff(&a).len(), 0);
        assert_eq!(a.diff(&a).repr_words(), 0);
        // One new rumor: a single-id sparse delta.
        let mut b = a.clone();
        b.insert(NodeId::new(1));
        let d = b.diff(&a);
        assert_eq!(d.len(), 1);
        assert!(d.contains(NodeId::new(1)));
        // Full vs empty: the O(1) full marker.
        let d = RumorSet::full(n).diff(&RumorSet::new(n));
        assert_eq!(d.len(), n);
        assert_eq!(d.repr_words(), 0);
        // Anything past the sparse capacity is bitset words, contiguous
        // or not.
        let d = set_of(n, &(0..=SPARSE_MAX).collect::<Vec<_>>()).diff(&RumorSet::new(n));
        assert_eq!(d.repr_words(), n / 64);
        let odd = set_of(n, &(1..n).step_by(2).collect::<Vec<_>>());
        let d = RumorSet::new(n).diff(&odd);
        assert_eq!(d.len(), n / 2);
        assert_eq!(d.repr_words(), n / 64);
    }

    #[test]
    fn shared_diff_and_apply_preserve_cow() {
        let n = 200;
        let mut a = RumorSet::singleton(n, NodeId::new(3));
        let snap = a.snapshot();
        // Shared-buffer diff short-circuits to the empty delta.
        assert!(a.diff(&snap).is_empty());
        let mut b = RumorSet::new(n);
        b.insert(NodeId::new(100));
        let delta = a.diff(&b);
        // Applying onto `b` while `a`'s snapshot is untouched.
        b.apply_delta(&delta);
        assert_eq!(b.fingerprint(), a.fingerprint());
        // Empty delta never clones the shared buffer.
        let empty = CompactRumorSet::new(n);
        a.apply_delta(&empty);
        assert!(a.ptr_eq(&snap));
    }

    #[test]
    fn full_sets_on_distinct_buffers_diff_to_empty() {
        for n in [0, 1, 64, 200, 4096] {
            let (a, mut b) = (RumorSet::full(n), RumorSet::new(n));
            for v in (0..n).rev() {
                b.insert(NodeId::new(v));
            }
            assert!(!a.ptr_eq(&b) && b.is_full());
            let delta = a.diff(&b);
            assert!(delta.is_empty(), "n = {n}");
            let mut back = b.clone();
            back.apply_delta(&delta);
            assert_eq!(back.fingerprint(), a.fingerprint());
        }
    }

    #[test]
    #[should_panic(expected = "universes must match")]
    fn diff_mismatched_universe_panics() {
        let a = RumorSet::new(10);
        let b = RumorSet::new(11);
        let _ = a.diff(&b);
    }

    #[test]
    fn as_parts_exposes_the_tier() {
        let n = 4096;
        match CompactRumorSet::singleton(n, NodeId::new(7)).as_parts() {
            CompactParts::Sparse(ids) => assert_eq!(ids, [7]),
            other => panic!("expected sparse parts, got {other:?}"),
        }
        match CompactRumorSet::full(n).as_parts() {
            CompactParts::Full => {}
            other => panic!("expected full parts, got {other:?}"),
        }
        let odd = set_of(n, &(1..n).step_by(2).collect::<Vec<_>>());
        match CompactRumorSet::from_set(&odd).as_parts() {
            CompactParts::Bitset(words) => assert_eq!(words.len(), n / 64),
            other => panic!("expected bitset parts, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "universe")]
    fn compact_contains_out_of_universe_panics() {
        let s = CompactRumorSet::new(10);
        let _ = s.contains(NodeId::new(10));
    }
}

//! Property tests: [`CompactRumorSet`] — through every representation
//! tier (sparse list, bitset, constant full-set) and every promotion
//! between them — is observationally equivalent to the plain
//! [`RumorSet`] bitset.
//!
//! Each case interleaves point inserts, interval inserts, and
//! set-to-set unions on a compact/plain pair (plus a second pair to
//! union *between* independently-promoted representations), then checks
//! `contains`/`len`/`is_full`/`fingerprint`/iteration agree exactly.
//! A third generator keeps both sets at 0 ..= 8 ids, the range that
//! straddles the sparse tier's five-id inline buffer. A fourth turns
//! on `RumorSet` itself: handles that share buffers through
//! `snapshot` must behave as copies that never shared one.

use gossip_sim::{CompactRumorSet, RumorSet};
use latency_graph::NodeId;
use proptest::prelude::*;

/// One step of the interleaved workload, decoded from a raw
/// `(kind, payload)` pair. Point inserts keep a set in the sparse
/// tier, runs and scattered inserts force the bitset tier, and
/// covering runs reach the full-set tier — so random sequences cross
/// every promotion edge.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Insert one id into A (resp. B).
    Insert { into_b: bool, v: usize },
    /// Insert the run `start..start+len` (clamped to the universe).
    Run {
        into_b: bool,
        start: usize,
        len: usize,
    },
    /// Insert a pseudorandom scatter of `count` ids derived from `salt`.
    Scatter {
        into_b: bool,
        salt: u64,
        count: usize,
    },
    /// `A.union_with(B)`.
    Merge,
    /// Swap the roles of A and B.
    Swap,
}

impl Op {
    fn decode(kind: u8, payload: u64) -> Op {
        let into_b = payload & 1 == 1;
        let x = usize::try_from((payload >> 1) & 0xFFFF).expect("fits usize");
        let y = usize::try_from((payload >> 17) & 0xFF).expect("fits usize");
        match kind % 5 {
            0 => Op::Insert { into_b, v: x },
            1 => Op::Run {
                into_b,
                start: x,
                len: y.max(1),
            },
            2 => Op::Scatter {
                into_b,
                salt: splitmix(payload),
                count: y % 48 + 1,
            },
            3 => Op::Merge,
            _ => Op::Swap,
        }
    }
}

/// A compact set and its plain-bitset mirror, kept in lockstep.
#[derive(Clone)]
struct Pair {
    compact: CompactRumorSet,
    plain: RumorSet,
}

impl Pair {
    fn new(universe: usize) -> Pair {
        Pair {
            compact: CompactRumorSet::new(universe),
            plain: RumorSet::new(universe),
        }
    }

    fn insert(&mut self, v: usize) {
        let id = NodeId::new(v);
        let a = self.compact.insert(id);
        let b = self.plain.insert(id);
        assert_eq!(a, b, "insert({v}) changed-flag mismatch");
    }

    /// `self ∪ other` on both mirrors, changed-flags compared.
    fn merged(&self, other: &Pair) -> Pair {
        let mut m = self.clone();
        let changed_c = m.compact.union_with(&other.compact);
        let changed_p = m.plain.union_with(&other.plain);
        assert_eq!(changed_c, changed_p, "union changed-flag mismatch");
        m
    }

    fn check(&self, universe: usize) {
        assert_eq!(self.compact.len(), self.plain.len());
        assert_eq!(self.compact.is_empty(), self.plain.is_empty());
        assert_eq!(self.compact.is_full(), self.plain.is_full());
        assert_eq!(
            self.compact.fingerprint(),
            self.plain.fingerprint(),
            "fingerprint diverged (repr holds {} words)",
            self.compact.repr_words()
        );
        for v in 0..universe {
            let id = NodeId::new(v);
            assert_eq!(
                self.compact.contains(id),
                self.plain.contains(id),
                "contains({v}) diverged"
            );
        }
        let a: Vec<NodeId> = self.compact.iter().collect();
        let b: Vec<NodeId> = self.plain.iter().collect();
        assert_eq!(a, b, "iteration order diverged");
        assert_eq!(self.compact.to_set(), self.plain);
    }
}

/// A copy of `set` in a buffer of its own — the `as_words` /
/// `from_words` round trip, which no handle can share.
fn unshared(set: &RumorSet) -> RumorSet {
    RumorSet::from_words(set.universe(), set.as_words().to_vec()).expect("valid words")
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Interleaved inserts/runs/scatters/unions keep the compact set
    /// equivalent to the plain bitset at every step.
    #[test]
    fn compact_equals_plain_bitset(
        universe in 1usize..192,
        raw_ops in prop::collection::vec((0u8..5, 0u64..u64::MAX), 0..40),
    ) {
        let mut a = Pair::new(universe);
        let mut b = Pair::new(universe);
        for (kind, payload) in raw_ops {
            match Op::decode(kind, payload) {
                Op::Insert { into_b, v } => {
                    let t = if into_b { &mut b } else { &mut a };
                    t.insert(v % universe);
                }
                Op::Run { into_b, start, len } => {
                    let t = if into_b { &mut b } else { &mut a };
                    let start = start % universe;
                    for v in start..(start + len).min(universe) {
                        t.insert(v);
                    }
                }
                Op::Scatter { into_b, salt, count } => {
                    let t = if into_b { &mut b } else { &mut a };
                    for i in 0..count as u64 {
                        let v = usize::try_from(splitmix(salt ^ i) % universe as u64)
                            .expect("fits usize");
                        t.insert(v);
                    }
                }
                Op::Merge => a = a.merged(&b),
                Op::Swap => {
                    std::mem::swap(&mut a, &mut b);
                }
            }
            a.check(universe);
            b.check(universe);
        }
        // A full covering run promotes to the constant tier and stays
        // equivalent.
        for v in 0..universe {
            a.insert(v);
        }
        a.check(universe);
        prop_assert!(a.compact.is_full());
        prop_assert!(a.compact.repr_words() <= 1, "full set must be O(1) words");
    }

    /// `union_with` is idempotent and commutative in effect, across
    /// whatever representation tiers the operands happen to occupy.
    #[test]
    fn union_order_irrelevant(
        universe in 1usize..160,
        xs in prop::collection::vec(0usize..160, 0..30),
        ys in prop::collection::vec(0usize..160, 0..30),
    ) {
        let mut x = CompactRumorSet::new(universe);
        let mut y = CompactRumorSet::new(universe);
        for &v in &xs { x.insert(NodeId::new(v % universe)); }
        for &v in &ys { y.insert(NodeId::new(v % universe)); }
        let mut xy = x.clone();
        xy.union_with(&y);
        let mut yx = y.clone();
        yx.union_with(&x);
        prop_assert_eq!(xy.fingerprint(), yx.fingerprint());
        prop_assert_eq!(xy.len(), yx.len());
        let again = xy.union_with(&y);
        prop_assert!(!again, "re-union must report no change");
        prop_assert!(xy.is_superset(&x) && xy.is_superset(&y));
    }

    /// Sets of 0 ..= 8 ids sit on both sides of the sparse tier's
    /// inline/heap boundary: every insert, both union orders, a union
    /// with a bitset-tier operand in both orders, and the plain
    /// diff/apply_delta round trip stay equivalent to the plain bitset.
    #[test]
    fn small_sets_cross_the_inline_boundary(
        universe in 40usize..192,
        xs in prop::collection::vec(0usize..192, 0..9),
        ys in prop::collection::vec(0usize..192, 0..9),
        run_start in 0usize..192,
    ) {
        let mut a = Pair::new(universe);
        let mut b = Pair::new(universe);
        for &v in &xs {
            a.insert(v % universe);
            a.check(universe);
        }
        for &v in &ys {
            b.insert(v % universe);
            b.check(universe);
        }
        // 34 consecutive ids overflow the sparse tier into a bitset.
        let mut run = Pair::new(universe);
        let start = run_start % (universe - 34);
        for v in start..start + 34 {
            run.insert(v);
        }
        for (x, y) in [(&a, &b), (&b, &a), (&a, &run), (&run, &a)] {
            let m = x.merged(y);
            m.check(universe);
            prop_assert!(m.compact.is_superset(&x.compact) && m.compact.is_superset(&y.compact));
            prop_assert_eq!(&m.compact, &CompactRumorSet::from_set(&m.plain));
        }
        // a ⊕ b rebuilds a from b.
        let delta = a.plain.diff(&b.plain);
        let mut back = b.plain.clone();
        back.apply_delta(&delta);
        prop_assert_eq!(&back, &a.plain);
    }

    /// Copy-on-write is unobservable: any interleaving of `snapshot`,
    /// `insert`, `union_with` and `apply_delta` over three handles that
    /// share buffers leaves each equal — words, length, fingerprint,
    /// changed-flags — to a mirror that ran the same ops in a buffer no
    /// other handle ever pointed at.
    #[test]
    fn shared_handles_equal_never_shared_copies(
        universe in 1usize..192,
        ops in prop::collection::vec((0u8..4, 0usize..3, 0usize..3, 0usize..192), 0..60),
    ) {
        let mut shared = vec![RumorSet::new(universe); 3];
        let mut owned: Vec<RumorSet> = shared.iter().map(unshared).collect();
        for (kind, i, j, v) in ops {
            match kind {
                0 => {
                    shared[i] = shared[j].snapshot();
                    owned[i] = unshared(&owned[j]);
                }
                1 => {
                    let id = NodeId::new(v % universe);
                    prop_assert_eq!(shared[i].insert(id), owned[i].insert(id));
                }
                2 => {
                    // The mirror's operand is a temporary: adopting its
                    // buffer (the superset path) still shares nothing.
                    let (other, temp) = (shared[j].snapshot(), unshared(&owned[j]));
                    prop_assert_eq!(shared[i].union_with(&other), owned[i].union_with(&temp));
                }
                _ => {
                    let k = v % 3;
                    let delta = shared[j].diff(&shared[k]);
                    prop_assert_eq!(&delta, &owned[j].diff(&owned[k]));
                    shared[i].apply_delta(&delta);
                    owned[i].apply_delta(&delta);
                }
            }
            for (a, s) in shared.iter().enumerate() {
                let o = &owned[a];
                prop_assert_eq!(s, o);
                prop_assert_eq!(s.as_words(), o.as_words());
                prop_assert_eq!((s.len(), s.fingerprint()), (o.len(), o.fingerprint()));
                for (b, other) in owned.iter().enumerate() {
                    prop_assert!(!s.ptr_eq(other), "mirror {b} leaked into the shared side");
                    prop_assert!(a == b || !o.ptr_eq(other), "mirrors {a} and {b} share");
                }
            }
        }
    }
}

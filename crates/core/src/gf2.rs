//! Incremental Gaussian elimination over GF(2) on bit-packed rows —
//! the decoder behind random-linear-combination (algebraic) gossip.
//!
//! A node's knowledge is the row space of the coefficient vectors it
//! has received (plus unit vectors for rumors it originated). The
//! decoder maintains that space in **reduced row echelon form** over
//! `⌈k/64⌉`-word rows — one flat row-major `Vec<u64>`, reduced with
//! one word-parallel XOR per pivot bit the incoming vector hits — so:
//!
//! * **rank** is the progress measure (each innovative row raises it
//!   by one), and
//! * a rumor `i` is **decoded** exactly when the unit vector `e_i`
//!   lies in the row space — in RREF that is decidable locally: the
//!   pivot row for column `i` *is* `e_i`. Decoded rumors are monotone:
//!   back-substitution never disturbs a unit row (its only bit is its
//!   pivot, and pivot columns are cleared from every other row).
//!
//! Full rank `k` therefore decodes the entire universe, which is the
//! exact-reconstruction half of the proptest contract; the other half
//! (incremental agrees with from-scratch) is checked against
//! [`batch_rank`], an independent textbook elimination.

use rand::rngs::StdRng;
use rand::Rng;

/// The outcome of one [`Gf2Decoder::insert`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Whether the row was innovative (rank increased by one).
    pub innovative: bool,
    /// Rumors that became decodable by this insertion, ascending.
    pub newly_decoded: Vec<usize>,
}

/// An incremental GF(2) eliminator over a `k`-rumor universe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Gf2Decoder {
    k: usize,
    words: usize,
    /// RREF basis, flat row-major: row `i` is
    /// `basis[i * words..(i + 1) * words]`, in insertion order.
    basis: Vec<u64>,
    /// `row index → pivot column`, one entry per basis row.
    pivot_of_row: Vec<u32>,
    /// `pivot column → row index`, `k` entries.
    row_of_pivot: Vec<Option<u32>>,
    /// Decoded flags, one per rumor; monotone.
    decoded: Vec<bool>,
    decoded_count: usize,
}

fn xor_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// Words the masked XOR below accumulates in registers at a time.
const LANES: usize = 4;

/// `out ^= ⊕ᵢ rowᵢ & masks[i]` over the `out.len()`-word rows of
/// `block`. A full `LANES`-word tile of `out` accumulates in a
/// fixed-size array the compiler keeps in registers — through `out`
/// itself every row would wait on the previous row's store; a narrower
/// last tile folds row by row.
fn xor_masked_rows(out: &mut [u64], block: &[u64], masks: &[u64]) {
    let words = out.len();
    for (t, tile) in out.chunks_mut(LANES).enumerate() {
        let lo = t * LANES;
        let rows = block.chunks_exact(words).zip(masks);
        if let Ok(tile) = <&mut [u64; LANES]>::try_from(&mut *tile) {
            let mut acc = *tile;
            for (row, mask) in rows {
                let lanes: &[u64; LANES] = row[lo..lo + LANES].try_into().expect("a full tile");
                for (a, w) in acc.iter_mut().zip(lanes) {
                    *a ^= w & mask;
                }
            }
            *tile = acc;
        } else {
            for (row, mask) in rows {
                for (o, w) in tile.iter_mut().zip(&row[lo..]) {
                    *o ^= w & mask;
                }
            }
        }
    }
}

fn has_bit(row: &[u64], bit: usize) -> bool {
    row[bit / 64] & (1u64 << (bit % 64)) != 0
}

fn is_unit(row: &[u64], pivot: usize) -> bool {
    row.iter().enumerate().all(|(i, w)| {
        if i == pivot / 64 {
            *w == 1u64 << (pivot % 64)
        } else {
            *w == 0
        }
    })
}

fn bit_index(word: usize, bit: u32) -> usize {
    word * 64 + usize::try_from(bit).expect("bit index fits usize")
}

impl Gf2Decoder {
    /// An empty decoder over rumors `0..k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Gf2Decoder {
        assert!(k >= 1, "a zero-rumor universe has nothing to decode");
        Gf2Decoder {
            k,
            words: k.div_ceil(64),
            basis: Vec::new(),
            pivot_of_row: Vec::new(),
            row_of_pivot: vec![None; k],
            decoded: vec![false; k],
            decoded_count: 0,
        }
    }

    /// The universe size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Words per packed row (`⌈k/64⌉`).
    pub fn words(&self) -> usize {
        self.words
    }

    /// The current rank of the received row space.
    pub fn rank(&self) -> usize {
        self.pivot_of_row.len()
    }

    /// Whether rumor `i` is decodable from the rows seen so far.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ k`.
    pub fn is_decoded(&self, i: usize) -> bool {
        self.decoded[i]
    }

    /// How many rumors are decodable.
    pub fn decoded_count(&self) -> usize {
        self.decoded_count
    }

    /// Whether the whole universe is decodable (rank `k`).
    pub fn decoded_all(&self) -> bool {
        self.decoded_count == self.k
    }

    /// The RREF basis rows (pivot order follows insertion).
    pub fn basis(&self) -> std::slice::ChunksExact<'_, u64> {
        self.basis.chunks_exact(self.words)
    }

    /// Inserts one coefficient row, reducing it against the basis and
    /// back-substituting if it is innovative. Returns whether rank
    /// grew and which rumors became decodable.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not exactly [`words`](Self::words) long, or
    /// if its last word has a bit set at a column `≥ k`.
    pub fn insert(&mut self, row: &[u64]) -> InsertOutcome {
        let words = self.words;
        assert_eq!(row.len(), words, "coefficient row width mismatch");
        assert_eq!(
            row[words - 1] & !(u64::MAX >> (words * 64 - self.k)),
            0,
            "coefficient bits beyond the universe"
        );
        let rank = self.rank();
        if rank == self.k {
            return InsertOutcome::default(); // full rank: every row is in the span
        }
        // The row is reduced in the tail of the flat basis: it stays
        // there if innovative and is truncated away if not, so neither
        // outcome allocates and the basis rows are borrowed, not cloned.
        self.basis.extend_from_slice(row);
        let (basis, r) = self.basis.split_at_mut(rank * words);
        // Fully reduce: clear every pivot column the basis owns, not
        // just leading ones. Basis rows are themselves reduced (no
        // foreign pivot bits), so each XOR clears one owned column and
        // toggles only unowned ones: the rows to fold in are exactly
        // the owners of the incoming row's set bits, whatever the order.
        for (w, &word) in row.iter().enumerate() {
            let mut pending = word;
            while pending != 0 {
                if let Some(idx) = self.row_of_pivot[bit_index(w, pending.trailing_zeros())] {
                    let at = usize::try_from(idx).expect("row index fits usize") * words;
                    xor_into(r, &basis[at..at + words]);
                }
                pending &= pending - 1;
            }
        }
        let Some(w) = r.iter().position(|w| *w != 0) else {
            self.basis.truncate(rank * words);
            return InsertOutcome::default(); // dependent: in the span already
        };
        let p = bit_index(w, r[w].trailing_zeros());
        let mut outcome = InsertOutcome {
            innovative: true,
            newly_decoded: Vec::new(),
        };
        // Back-substitute: clear column p from every existing row, so
        // the basis stays *reduced* (unit-row detection is local), and
        // refresh the decoded flag of each row rewritten on the way.
        // Unit rows are never rewritten, so decodedness is monotone.
        for (existing, &pivot) in basis.chunks_exact_mut(words).zip(&self.pivot_of_row) {
            if has_bit(existing, p) {
                xor_into(existing, r);
                let pivot = usize::try_from(pivot).expect("pivot fits usize");
                if is_unit(existing, pivot) {
                    self.decoded[pivot] = true;
                    outcome.newly_decoded.push(pivot);
                }
            }
        }
        if is_unit(r, p) {
            self.decoded[p] = true;
            outcome.newly_decoded.push(p);
        }
        self.decoded_count += outcome.newly_decoded.len();
        outcome.newly_decoded.sort_unstable();
        self.row_of_pivot[p] = Some(u32::try_from(rank).expect("basis size fits u32"));
        self.pivot_of_row
            .push(u32::try_from(p).expect("pivot fits u32"));
        outcome
    }

    /// Writes a uniformly random GF(2) combination of the basis rows
    /// into `out`, never the zero vector (if every coin lands tails the
    /// first basis row is included — a deterministic, tape-friendly
    /// fixup). Returns `false`, drawing nothing and leaving `out` as it
    /// was, when the decoder has rank 0 and there is nothing to combine.
    ///
    /// This is the one combine kernel: a stream node stages its batch
    /// by pointing it at each row of one shared buffer in turn, so no
    /// row is allocated. It draws exactly one `rng.random::<bool>()`
    /// per basis row, in insertion order: the engine's RNG stream — and
    /// with it every golden trace — depends on that count and order.
    ///
    /// # Panics
    ///
    /// Panics if the rank is positive and `out` is not exactly
    /// [`words`](Self::words) long.
    pub fn random_combination_into(&self, rng: &mut StdRng, out: &mut [u64]) -> bool {
        if self.basis.is_empty() {
            return false;
        }
        let words = self.words;
        assert_eq!(out.len(), words, "coefficient row width mismatch");
        out.fill(0);
        let mut any = false;
        // Two passes per block of ≤ 64 rows: draw the coins into
        // all-ones/zero masks, then XOR the masked rows branch-free.
        // Fused, the serial RNG chain and the XORs stall each other.
        let mut masks = [0u64; 64];
        for block in self.basis.chunks(masks.len() * words) {
            let coins = &mut masks[..block.len() / words];
            for mask in coins.iter_mut() {
                let coin = rng.random::<bool>();
                any |= coin;
                *mask = u64::from(coin).wrapping_neg();
            }
            xor_masked_rows(out, block, coins);
        }
        if !any {
            // A sum of *no* rows is zero; patch with the first row so
            // every sent combination carries information.
            out.copy_from_slice(&self.basis[..words]);
        }
        debug_assert!(
            out.iter().any(|w| *w != 0),
            "a sum of distinct RREF rows is never zero"
        );
        true
    }

    /// [`random_combination_into`](Self::random_combination_into) into
    /// a freshly allocated row; `None` at rank 0. Same coins, same row.
    /// Kept only because the frozen `benchmark/` package times it
    /// (ROADMAP.md, "Next `benchmark` issue"); protocol code stages
    /// through the kernel.
    pub fn random_combination(&self, rng: &mut StdRng) -> Option<Vec<u64>> {
        let mut out = vec![0u64; self.words];
        self.random_combination_into(rng, &mut out).then_some(out)
    }
}

/// Independent from-scratch elimination for the proptest contract:
/// ranks `rows` and reports which unit vectors lie in their span,
/// using plain forward elimination + back-substitution over a matrix
/// copy (no incremental bookkeeping shared with [`Gf2Decoder`]).
pub fn batch_rank(k: usize, rows: &[Vec<u64>]) -> (usize, Vec<bool>) {
    let words = k.div_ceil(64);
    let mut m: Vec<Vec<u64>> = rows
        .iter()
        .inspect(|r| assert_eq!(r.len(), words, "coefficient row width mismatch"))
        .cloned()
        .collect();
    let mut pivots: Vec<(usize, usize)> = Vec::new(); // (column, row index)
    for col in 0..k {
        let Some(pr) = m
            .iter()
            .enumerate()
            .position(|(i, row)| pivots.iter().all(|&(_, p)| p != i) && has_bit(row, col))
        else {
            continue;
        };
        let pivot_row = m[pr].clone();
        for (i, row) in m.iter_mut().enumerate() {
            if i != pr && has_bit(row, col) {
                xor_into(row, &pivot_row);
            }
        }
        pivots.push((col, pr));
    }
    let mut decoded = vec![false; k];
    for &(col, pr) in &pivots {
        decoded[col] = is_unit(&m[pr], col);
    }
    (pivots.len(), decoded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn unit(k: usize, i: usize) -> Vec<u64> {
        let mut r = vec![0u64; k.div_ceil(64)];
        r[i / 64] |= 1u64 << (i % 64);
        r
    }

    #[test]
    fn units_decode_immediately() {
        let mut d = Gf2Decoder::new(70);
        let out = d.insert(&unit(70, 69));
        assert!(out.innovative);
        assert_eq!(out.newly_decoded, vec![69]);
        assert!(d.is_decoded(69));
        assert_eq!(d.rank(), 1);
    }

    #[test]
    fn dependent_rows_are_ignored() {
        let mut d = Gf2Decoder::new(4);
        assert!(d.insert(&[0b0011]).innovative);
        assert!(d.insert(&[0b0101]).innovative);
        let dup = d.insert(&[0b0110]); // xor of the first two
        assert!(!dup.innovative);
        assert_eq!(d.rank(), 2);
        assert_eq!(d.decoded_count(), 0, "no unit vector in the span yet");
    }

    #[test]
    fn completing_rank_decodes_everything() {
        let mut d = Gf2Decoder::new(3);
        assert!(d.insert(&[0b011]).innovative);
        assert!(d.insert(&[0b110]).innovative);
        assert_eq!(d.decoded_count(), 0);
        let out = d.insert(&[0b100]);
        assert!(out.innovative);
        assert_eq!(out.newly_decoded, vec![0, 1, 2]);
        assert!(d.decoded_all());
    }

    #[test]
    fn batch_agrees_on_a_small_case() {
        let rows = vec![vec![0b011u64], vec![0b110], vec![0b101], vec![0b100]];
        let mut d = Gf2Decoder::new(3);
        for r in &rows {
            let _ = d.insert(r);
        }
        let (rank, decoded) = batch_rank(3, &rows);
        assert_eq!(rank, d.rank());
        let inc: Vec<bool> = (0..3).map(|i| d.is_decoded(i)).collect();
        assert_eq!(decoded, inc);
    }

    #[test]
    fn random_combination_is_nonzero_and_in_span() {
        let mut d = Gf2Decoder::new(8);
        let _ = d.insert(&[0b0000_0011]);
        let _ = d.insert(&[0b0000_1100]);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..32 {
            let c = d.random_combination(&mut rng).expect("rank is positive");
            assert!(c.iter().any(|w| *w != 0));
            // In the span: inserting it must not be innovative.
            let mut probe = d.clone();
            assert!(!probe.insert(&c).innovative);
        }
        assert!(Gf2Decoder::new(4).random_combination(&mut rng).is_none());
    }

    #[test]
    fn the_kernel_overwrites_a_dirty_row_and_matches_the_wrapper() {
        let mut d = Gf2Decoder::new(130);
        let mut feed = StdRng::seed_from_u64(3);
        while d.rank() < 40 {
            let mut row: Vec<u64> = (0..d.words()).map(|_| feed.random()).collect();
            row[2] &= 0b11;
            let _ = d.insert(&row);
        }
        let (mut a, mut b) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
        for _ in 0..16 {
            let mut out = [u64::MAX; 3];
            assert!(d.random_combination_into(&mut a, &mut out));
            assert_eq!(Some(out.to_vec()), d.random_combination(&mut b));
            assert_eq!(a, b, "the kernel and the wrapper draw the same coins");
        }
        let mut untouched = [7u64; 3];
        assert!(!Gf2Decoder::new(130).random_combination_into(&mut a, &mut untouched));
        assert_eq!(untouched, [7; 3]);
        assert_eq!(a, b, "rank 0 draws nothing");
    }

    #[test]
    #[should_panic(expected = "coefficient bits beyond the universe")]
    fn stray_bits_beyond_the_universe_are_rejected() {
        let mut d = Gf2Decoder::new(70);
        let _ = d.insert(&[0, 1u64 << (104 - 64)]);
    }

    /// The coin contract the golden traces rely on: one
    /// `random::<bool>()` per basis row, in insertion order, with the
    /// first-row fixup when every coin lands tails.
    #[test]
    fn random_combination_draws_one_coin_per_row_in_insertion_order() {
        let k = 300; // five words: one full register tile plus a one-word tail
        let mut feed = StdRng::seed_from_u64(11);
        let mut d = Gf2Decoder::new(k);
        while d.rank() < 150 {
            let mut row: Vec<u64> = (0..d.words()).map(|_| feed.random()).collect();
            row[4] &= (1u64 << (k - 256)) - 1;
            let _ = d.insert(&row);
        }
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..64 {
            let mut naive_rng = rng.clone();
            let mut want = vec![0u64; d.words()];
            let mut any = false;
            for row in d.basis() {
                if naive_rng.random::<bool>() {
                    xor_into(&mut want, row);
                    any = true;
                }
            }
            if !any {
                want.copy_from_slice(d.basis().next().expect("rank is positive"));
            }
            assert_eq!(d.random_combination(&mut rng), Some(want));
            assert_eq!(rng, naive_rng, "coin count drifted");
        }
    }
}

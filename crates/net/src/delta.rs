//! Interval/run-length-coded rumor deltas for the
//! [`RequestDelta`]/[`ReplyDelta`] wire frames.
//!
//! A delta is the symmetric difference `snapshot ⊕ basis` produced by
//! [`RumorSet::diff`]. [`encode_rumor_delta`] alone picks its body from
//! the [`CompactRumorSet`] tier and the set's shape: a gap-coded id
//! list for a sparse set, gap-coded `[start, end)` runs for a full set
//! or a bitset that at most 32 runs cover, and raw bitset words
//! otherwise. All variable-size integers are LEB128 varints, so the
//! common late-run deltas ("one new rumor", "nothing new", "everything
//! — one run") cost single-digit bytes instead of `⌈n/64⌉` words.
//!
//! Decoding is panic-free and exact: [`decode_rumor_delta`] validates
//! every id, run, and tail bit against the declared universe, XORs the
//! delta into the basis, and returns the reconstructed snapshot —
//! `decode(encode(s.diff(b)), b) == s` bit for bit, which is what lets
//! delta mode reproduce snapshot-mode outcomes (fingerprints included)
//! exactly.
//!
//! ```text
//! delta    := varint(universe) tag body
//! tag      := 0 (sparse) | 1 (runs) | 2 (words)
//! sparse   := varint(count) { varint(gap) }*        id = prev + gap; prev' = id + 1
//! runs     := varint(count) { varint(gap) varint(len-1) }*
//!                                                   start = prev_end + gap
//! words    := ⌈universe/64⌉ × u64 LE
//! ```
//!
//! [`RequestDelta`]: crate::wire::Frame::RequestDelta
//! [`ReplyDelta`]: crate::wire::Frame::ReplyDelta

use gossip_sim::{CompactParts, CompactRumorSet, RumorSet};

use crate::error::CodecError;

/// Tag byte for the gap-coded id-list body.
pub const TAG_SPARSE: u8 = 0;
/// Tag byte for the gap-coded run-interval body.
pub const TAG_RUNS: u8 = 1;
/// Tag byte for the raw bitset-words body.
pub const TAG_WORDS: u8 = 2;

/// The most `[start, end)` runs a [`TAG_RUNS`] body carries; a bitset
/// that needs more goes as raw words. 32 runs, like the sparse tier's
/// 32 ids, never cost more than a 2048-node bitset's 32 words.
const RUNS_MAX: usize = 32;

/// Appends a LEB128 varint.
pub(crate) fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = u8::try_from(v & 0x7F).expect("low 7 bits fit u8");
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Byte length of `v`'s LEB128 varint ([`push_varint`]): one byte per
/// started 7 bits, and one for 0.
pub(crate) fn varint_len(v: u64) -> usize {
    let bits = u64::BITS - (v | 1).leading_zeros();
    usize::try_from(bits.div_ceil(7)).expect("at most 10 bytes")
}

/// Bounds-checked cursor over a delta body (also used by the stream
/// payload codec in `wire.rs`, which shares the varint format).
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(CodecError::BadBody("delta body shorter than required"))?;
        self.pos += 1;
        Ok(b)
    }

    /// The next `len` bytes, consumed.
    pub(crate) fn bytes(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        let bytes = self
            .pos
            .checked_add(len)
            .and_then(|end| self.buf.get(self.pos..end))
            .ok_or(CodecError::BadBody("delta body shorter than required"))?;
        self.pos += len;
        Ok(bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        let end = self.pos + 8;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or(CodecError::BadBody("delta body shorter than required"))?;
        self.pos = end;
        Ok(u64::from_le_bytes(
            bytes.try_into().expect("slice is 8 bytes"),
        ))
    }

    pub(crate) fn varint(&mut self) -> Result<u64, CodecError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(CodecError::BadBody("delta varint overflows u64"));
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::BadBody("delta varint overflows u64"));
            }
        }
    }

    pub(crate) fn finish(self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError::BadBody("trailing bytes in delta body"))
        }
    }
}

/// Sets bits `start..end` (absolute bit offsets, `end` exclusive) in a
/// word array whose length covers `end`.
fn set_span(words: &mut [u64], start: u64, end: u64) {
    debug_assert!(start < end);
    let first = start / 64;
    let last = (end - 1) / 64;
    for w in first..=last {
        let lo = if w == first { start % 64 } else { 0 };
        let hi = if w == last { (end - 1) % 64 + 1 } else { 64 };
        let width = hi - lo;
        let mask = if width == 64 {
            u64::MAX
        } else {
            ((1u64 << width) - 1) << lo
        };
        words[usize::try_from(w).expect("word index fits usize")] |= mask;
    }
}

/// Serializes a delta set (the output of [`RumorSet::diff`]) into
/// `out`. The body follows the set's tier: a sparse set sends its ids,
/// a full one a single run, and a bitset its runs when at most 32
/// (`RUNS_MAX`) cover it, else its words.
pub fn encode_rumor_delta(delta: &CompactRumorSet, out: &mut Vec<u8>) {
    let universe = u64::try_from(delta.universe()).expect("universe fits u64");
    push_varint(out, universe);
    match delta.as_parts() {
        CompactParts::Sparse(ids) => {
            out.push(TAG_SPARSE);
            push_varint(out, u64::try_from(ids.len()).expect("count fits u64"));
            let mut prev = 0u64;
            for &id in ids {
                let id = u64::from(id);
                push_varint(out, id - prev);
                prev = id + 1;
            }
        }
        CompactParts::Full => {
            let end = u32::try_from(delta.universe()).expect("compact universe fits u32");
            // A universe-0 set is vacuously full; encode the empty run
            // list rather than the degenerate run `(0, 0)`.
            if end == 0 {
                encode_runs(std::iter::empty(), 0, out);
            } else {
                encode_runs([(0u32, end)].into_iter(), 1, out);
            }
        }
        CompactParts::Bitset(words) => match runs_from_words(words) {
            Some(runs) => encode_runs(runs.iter().copied(), runs.len(), out),
            None => {
                out.push(TAG_WORDS);
                for &w in words {
                    out.extend_from_slice(&w.to_le_bytes());
                }
            }
        },
    }
}

/// Extracts the maximal `[start, end)` runs of a bitset word array a
/// run at a time (no per-bit loop), bailing out with `None` as soon as
/// more than [`RUNS_MAX`] runs exist.
fn runs_from_words(words: &[u64]) -> Option<Vec<(u32, u32)>> {
    let mut runs: Vec<(u32, u32)> = Vec::new();
    for (wi, &word) in words.iter().enumerate() {
        let mut w = word;
        let base = u32::try_from(wi * 64).expect("bit offset fits u32");
        while w != 0 {
            let start = w.trailing_zeros();
            // Length of the lowest 1-run: the trailing ones of the
            // shifted word, counted on its complement.
            let len = (!(w >> start)).trailing_zeros();
            let (lo, hi) = (base + start, base + start + len);
            match runs.last_mut() {
                Some(r) if r.1 == lo => r.1 = hi,
                _ => {
                    if runs.len() == RUNS_MAX {
                        return None;
                    }
                    runs.push((lo, hi));
                }
            }
            // Adding the lowest set bit carries through the run and
            // clears it (wrapping off the top for a run ending at 64).
            w &= w.wrapping_add(w & w.wrapping_neg());
        }
    }
    Some(runs)
}

/// Writes the [`TAG_RUNS`] body: gap-from-previous-end plus `len - 1`
/// varints per run.
fn encode_runs(runs: impl Iterator<Item = (u32, u32)>, count: usize, out: &mut Vec<u8>) {
    out.push(TAG_RUNS);
    push_varint(out, u64::try_from(count).expect("run count fits u64"));
    let mut prev_end = 0u64;
    for (start, end) in runs {
        let (start, end) = (u64::from(start), u64::from(end));
        debug_assert!(start >= prev_end && end > start);
        push_varint(out, start - prev_end);
        push_varint(out, end - start - 1);
        prev_end = end;
    }
}

/// Reconstructs the exact snapshot from a delta body and its basis
/// (`None` is the empty basis): decodes the delta's bit words with full
/// validation, XORs them into the basis, and re-checks the result
/// against the universe. Every malformed input — universe mismatch,
/// id or run out of bounds, non-monotone gaps, stray tail bits,
/// trailing bytes — maps to a typed [`CodecError`], never a panic.
///
/// An empty id or run list ("nothing new", the steady state of a soak)
/// decodes to the basis itself: a refcount bump that shares its buffer,
/// as the engine's payload snapshots do, with no word array built.
pub fn decode_rumor_delta(bytes: &[u8], basis: Option<&RumorSet>) -> Result<RumorSet, CodecError> {
    let mut cur = Cursor::new(bytes);
    let wide = cur.varint()?;
    if u32::try_from(wide).is_err() {
        return Err(CodecError::BadBody("delta universe exceeds u32"));
    }
    let universe = usize::try_from(wide).expect("u32-ranged universe fits usize");
    if let Some(b) = basis {
        if b.universe() != universe {
            return Err(CodecError::BadBody("delta universe differs from basis"));
        }
    }
    let tag = cur.u8()?;
    let count = match tag {
        TAG_SPARSE | TAG_RUNS => {
            let count = cur.varint()?;
            if count > wide {
                return Err(CodecError::BadBody(if tag == TAG_SPARSE {
                    "delta id count exceeds universe"
                } else {
                    "delta run count exceeds universe"
                }));
            }
            if count == 0 {
                cur.finish()?;
                return Ok(basis.map_or_else(|| RumorSet::new(universe), RumorSet::clone));
            }
            count
        }
        TAG_WORDS => 0,
        _ => return Err(CodecError::BadBody("unknown delta tag")),
    };
    let mut words = vec![0u64; universe.div_ceil(64)];
    match tag {
        TAG_SPARSE => {
            let mut prev = 0u64;
            for _ in 0..count {
                let gap = cur.varint()?;
                let id = prev
                    .checked_add(gap)
                    .filter(|&id| id < wide)
                    .ok_or(CodecError::BadBody("delta id outside universe"))?;
                let w = usize::try_from(id / 64).expect("word index fits usize");
                words[w] |= 1u64 << (id % 64);
                prev = id + 1;
            }
        }
        TAG_RUNS => {
            let mut prev_end = 0u64;
            for _ in 0..count {
                let gap = cur.varint()?;
                let len = cur
                    .varint()?
                    .checked_add(1)
                    .ok_or(CodecError::BadBody("delta run length overflow"))?;
                let start = prev_end
                    .checked_add(gap)
                    .ok_or(CodecError::BadBody("delta run start overflow"))?;
                let end = start
                    .checked_add(len)
                    .filter(|&end| end <= wide)
                    .ok_or(CodecError::BadBody("delta run outside universe"))?;
                set_span(&mut words, start, end);
                prev_end = end;
            }
        }
        // TAG_WORDS, the one tag left after the check above.
        _ => {
            for w in &mut words {
                *w = cur.u64()?;
            }
        }
    }
    cur.finish()?;
    if let Some(b) = basis {
        for (w, &bw) in words.iter_mut().zip(b.as_words()) {
            *w ^= bw;
        }
    }
    RumorSet::from_words(universe, words)
        .ok_or(CodecError::BadBody("delta bits inconsistent with universe"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use latency_graph::NodeId;

    fn set_of(n: usize, ids: &[usize]) -> RumorSet {
        let mut s = RumorSet::new(n);
        for &i in ids {
            s.insert(NodeId::new(i));
        }
        s
    }

    #[test]
    fn every_tier_round_trips_exactly() {
        let n = 4096;
        let shapes: Vec<Vec<usize>> = vec![
            Vec::new(),                   // empty delta
            vec![17],                     // sparse, one id
            (100..140).collect(),         // runs
            (0..n).step_by(2).collect(),  // dense scattered → words
            (0..n).collect(),             // full → one run
            (0..n).step_by(64).collect(), // sparse spanning many words
        ];
        for snap_ids in &shapes {
            for basis_ids in &shapes {
                let snap = set_of(n, snap_ids);
                let basis = set_of(n, basis_ids);
                let delta = snap.diff(&basis);
                let mut bytes = Vec::new();
                encode_rumor_delta(&delta, &mut bytes);
                let back = decode_rumor_delta(&bytes, Some(&basis)).expect("delta decodes");
                assert_eq!(back, snap);
                assert_eq!(back.fingerprint(), snap.fingerprint());
            }
        }
    }

    /// The body each delta shape is sent as, byte for byte: the wire
    /// form the benchmark's pinned `payload_bytes` rest on.
    #[test]
    fn delta_body_choice_is_pinned() {
        let n = 256;
        // varint(256) = 0x80 0x02.
        let head = |tag: u8| vec![0x80, 0x02, tag];
        let encoded = |ids: &[usize]| {
            let mut bytes = Vec::new();
            encode_rumor_delta(&set_of(n, ids).diff(&RumorSet::new(n)), &mut bytes);
            bytes
        };
        // 32 ids: sparse, gap 0 then 31 gaps of 1.
        let evens32: Vec<usize> = (0..64).step_by(2).collect();
        let mut want = head(TAG_SPARSE);
        want.extend([32, 0]);
        want.extend([1; 31]);
        assert_eq!(encoded(&evens32), want);
        // 33 contiguous ids: one run, gap 10 and length − 1 = 32.
        let mut want = head(TAG_RUNS);
        want.extend([1, 10, 32]);
        assert_eq!(encoded(&(10..43).collect::<Vec<_>>()), want);
        // 33 ids in 32 runs: {0, 1} then 31 singletons 3, 5, …, 63.
        let runs32: Vec<usize> = [0, 1].into_iter().chain((3..64).step_by(2)).collect();
        let mut want = head(TAG_RUNS);
        want.extend([32, 0, 1]);
        want.extend([1, 0].repeat(31));
        assert_eq!(encoded(&runs32), want);
        // 33 isolated ids need 33 runs: the raw words.
        let mut want = head(TAG_WORDS);
        for w in [0x5555_5555_5555_5555u64, 1, 0, 0] {
            want.extend(w.to_le_bytes());
        }
        assert_eq!(encoded(&(0..=64).step_by(2).collect::<Vec<_>>()), want);
        // The full set: one run, length − 1 = 255 = varint 0xFF 0x01.
        let mut want = head(TAG_RUNS);
        want.extend([1, 0, 0xFF, 0x01]);
        assert_eq!(encoded(&(0..n).collect::<Vec<_>>()), want);
        let mut full = Vec::new();
        encode_rumor_delta(&CompactRumorSet::full(n), &mut full);
        assert_eq!(full, want);
        // Universe 0: an empty run list.
        let mut empty = Vec::new();
        encode_rumor_delta(&RumorSet::new(0).diff(&RumorSet::new(0)), &mut empty);
        assert_eq!(empty, [0, TAG_RUNS, 0]);
    }

    #[test]
    fn empty_delta_shares_its_basis() {
        let n = 300;
        let basis = set_of(n, &[1, 2, 299]);
        let mut sparse = Vec::new();
        encode_rumor_delta(&basis.diff(&basis.snapshot()), &mut sparse);
        assert_eq!(
            sparse[2..],
            [TAG_SPARSE, 0],
            "two-byte universe, empty id list"
        );
        let mut runs = Vec::new();
        push_varint(&mut runs, 300);
        runs.extend_from_slice(&[TAG_RUNS, 0]);
        for empty in [&sparse, &runs] {
            let back = decode_rumor_delta(empty, Some(&basis)).expect("empty delta decodes");
            assert!(back.ptr_eq(&basis), "nothing new: the basis itself");
            let none = decode_rumor_delta(empty, None).expect("empty delta decodes");
            assert_eq!(none, RumorSet::new(n));
            // A zero count is still a whole body: a byte after it is
            // corruption, whatever the basis.
            let mut long = empty.clone();
            long.push(0);
            for b in [Some(&basis), None] {
                assert_eq!(
                    decode_rumor_delta(&long, b),
                    Err(CodecError::BadBody("trailing bytes in delta body"))
                );
            }
            // And the universe still has to be the basis's.
            assert!(decode_rumor_delta(empty, Some(&RumorSet::new(n + 1))).is_err());
        }
    }

    #[test]
    fn empty_basis_is_a_plain_snapshot() {
        let snap = set_of(300, &[0, 1, 2, 3, 299]);
        let delta = CompactRumorSet::from_set(&snap);
        let mut bytes = Vec::new();
        encode_rumor_delta(&delta, &mut bytes);
        let back = decode_rumor_delta(&bytes, None).expect("delta decodes");
        assert_eq!(back, snap);
    }

    #[test]
    fn common_deltas_are_tiny() {
        let n = 1_000_000;
        // Nothing new: 4 bytes (3-byte universe varint + tag + count 0).
        let full = RumorSet::full(n);
        let mut bytes = Vec::new();
        encode_rumor_delta(&full.diff(&full), &mut bytes);
        assert!(bytes.len() <= 5, "empty delta took {} bytes", bytes.len());
        // One new rumor near the top of the id space.
        let all_but_last = set_of(n, &(0..n - 1).collect::<Vec<_>>());
        let mut bytes = Vec::new();
        encode_rumor_delta(&full.diff(&all_but_last), &mut bytes);
        assert!(bytes.len() <= 10, "1-id delta took {} bytes", bytes.len());
        // Everything vs nothing: one run over the universe.
        let mut bytes = Vec::new();
        encode_rumor_delta(&full.diff(&RumorSet::new(n)), &mut bytes);
        assert!(bytes.len() <= 12, "full delta took {} bytes", bytes.len());
    }

    #[test]
    fn malformed_deltas_are_typed_errors() {
        let n = 128;
        let basis = RumorSet::new(n);
        // Unknown tag.
        assert!(decode_rumor_delta(&[128, 1, 9], Some(&basis)).is_err());
        // Universe mismatch with the basis.
        let snap = set_of(n, &[3]);
        let mut bytes = Vec::new();
        encode_rumor_delta(&snap.diff(&basis), &mut bytes);
        assert!(decode_rumor_delta(&bytes, Some(&RumorSet::new(n + 1))).is_err());
        // Truncation at every split point is typed, never a panic.
        for cut in 0..bytes.len() {
            assert!(decode_rumor_delta(&bytes[..cut], Some(&basis)).is_err());
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_rumor_delta(&long, Some(&basis)).is_err());
        // An id outside the universe.
        let big = set_of(n, &[n - 1]);
        let mut oob = Vec::new();
        encode_rumor_delta(&big.diff(&basis), &mut oob);
        // Rewrite the declared universe smaller than the id.
        let mut shrunk = vec![64u8];
        shrunk.extend_from_slice(&oob[1..]);
        assert!(decode_rumor_delta(&shrunk, None).is_err());
        // A words-tagged body with stray tail bits.
        let mut tail = Vec::new();
        push_varint(&mut tail, 3);
        tail.push(TAG_WORDS);
        tail.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_rumor_delta(&tail, None).is_err());
        // Varint that overflows u64.
        let over = [0xFFu8; 11];
        assert!(decode_rumor_delta(&over, None).is_err());
    }
}

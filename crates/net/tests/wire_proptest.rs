//! Property tests for the wire codec: round trips over arbitrary
//! payload sizes (including the empty rumor set and the max-frame
//! boundary), panic-free typed rejection of truncated, oversized, and
//! garbage input, and the delta-frame laws the runner's exchange path
//! depends on (delta ⊕ basis == snapshot, split-read reassembly,
//! corruption safety).

use gossip_net::conn::FrameReader;
use gossip_net::wire::{Frame, HEADER_LEN, MAGIC, VERSION};
use gossip_net::{CodecError, WirePayload, CAP_DELTA, MAX_BODY};
use gossip_sim::{RowBatch, RumorSet, StreamPayload};
use latency_graph::NodeId;
use proptest::prelude::*;
use rand::Rng;

/// Frames with arbitrary contents; payload sizes range from empty up to
/// several words past typical rumor-set sizes.
fn arb_frame() -> impl Strategy<Value = Frame> {
    (0u8..8, any::<u64>(), any::<u64>(), 0usize..600).prop_map(|(kind, a, b, len)| {
        let payload: Vec<u8> = (0..len).map(|i| (a ^ i as u64) as u8).collect();
        match kind {
            0 => Frame::Hello {
                node: NodeId::from((a % 10_000) as u32),
                to: NodeId::from((b % 10_000) as u32),
                n: (b % 100_000) as u32,
                topology_hash: a.wrapping_mul(b),
                caps: (a >> 32) as u32,
            },
            1 => Frame::Request {
                seq: a,
                round: b,
                payload,
            },
            2 => Frame::Reply {
                seq: a,
                round: b,
                payload,
            },
            3 => Frame::Done { round: a },
            4 => Frame::Bye,
            5 => Frame::RequestDelta {
                seq: a,
                round: b,
                basis_seq: a ^ b,
                payload,
            },
            6 => Frame::ReplyDelta {
                seq: a,
                round: b,
                basis_seq: b.wrapping_add(1),
                payload,
            },
            // Routed envelopes nest exactly one plain frame.
            _ => Frame::Routed {
                src: NodeId::from((a % 10_000) as u32),
                dst: NodeId::from((b % 10_000) as u32),
                release: a ^ b,
                inner: Box::new(Frame::ReplyDelta {
                    seq: b,
                    round: a,
                    basis_seq: b,
                    payload,
                }),
            },
        }
    })
}

/// A rumor set over `universe` with roughly `fill` density.
fn arb_set(universe: usize, seed: u64, fill: u32) -> RumorSet {
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = RumorSet::new(universe);
    for v in 0..universe {
        if rng.random_range(0u32..100) < fill {
            set.insert(NodeId::new(v));
        }
    }
    set
}

proptest! {
    #[test]
    fn any_frame_round_trips(frame in arb_frame()) {
        let bytes = frame.encode().expect("frame fits the body cap");
        let (back, used) = Frame::decode(&bytes).expect("encoded frame decodes");
        prop_assert_eq!(back, frame);
        prop_assert_eq!(used, bytes.len());
    }

    #[test]
    fn any_prefix_truncation_is_typed(frame in arb_frame(), frac in 0.0f64..1.0) {
        let bytes = frame.encode().expect("frame fits the body cap");
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut < bytes.len() {
            let err = Frame::decode(&bytes[..cut]).expect_err("prefix rejected");
            prop_assert!(matches!(err, CodecError::Truncated { .. }), "got {:?}", err);
        }
    }

    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Any result is fine; what is being tested is "no panic" and
        // that success implies internal consistency.
        if let Ok((frame, used)) = Frame::decode(&bytes) {
            prop_assert!(used <= bytes.len());
            let re = frame.encode().expect("decoded frame re-encodes");
            prop_assert_eq!(Frame::decode(&re).expect("re-decode").0, frame);
        }
    }

    #[test]
    fn rumor_payloads_round_trip(universe in 0usize..600, seed in any::<u64>()) {
        let set = arb_set(universe, seed, 33);
        let mut bytes = Vec::new();
        set.encode_payload(&mut bytes);
        let back = RumorSet::decode_payload(&bytes).expect("payload decodes");
        prop_assert_eq!(back, set);
    }

    #[test]
    fn corrupted_rumor_payloads_never_panic(
        universe in 0usize..300,
        flip in any::<u64>(),
        chop in 0usize..16,
    ) {
        let mut bytes = Vec::new();
        RumorSet::full(universe).encode_payload(&mut bytes);
        if !bytes.is_empty() {
            let i = (flip as usize) % bytes.len();
            bytes[i] ^= (flip >> 32) as u8 | 1;
            let keep = bytes.len().saturating_sub(chop);
            bytes.truncate(keep);
        }
        // Either a clean decode of some set or a typed error; no panic.
        let _ = RumorSet::decode_payload(&bytes);
    }

    // ---- Delta payload laws -------------------------------------------

    /// The fundamental reconstruction law: for any snapshot S and basis
    /// B over the same universe, decode_delta(encode_delta(S, B), B)
    /// yields exactly S. Exercised across sparse, balanced, and dense
    /// fills so every delta encoding tag is hit.
    #[test]
    fn delta_against_any_basis_reconstructs_snapshot(
        universe in 0usize..600,
        seed in any::<u64>(),
        fill_s in 0u32..=100,
        fill_b in 0u32..=100,
    ) {
        let snapshot = arb_set(universe, seed, fill_s);
        let basis = arb_set(universe, seed.wrapping_add(1), fill_b);
        let mut delta = Vec::new();
        prop_assert!(snapshot.encode_delta(Some(&basis), &mut delta));
        let back = RumorSet::decode_delta(&delta, Some(&basis))
            .expect("delta decodes against its basis");
        prop_assert_eq!(&back, &snapshot);

        // The empty basis is the degenerate case of the same law.
        let mut delta0 = Vec::new();
        prop_assert!(snapshot.encode_delta(None, &mut delta0));
        let back0 = RumorSet::decode_delta(&delta0, None)
            .expect("delta decodes against the empty basis");
        prop_assert_eq!(&back0, &snapshot);
    }

    /// Corrupting or truncating delta bytes yields a typed error or a
    /// clean decode of *some* set — never a panic.
    #[test]
    fn corrupted_delta_payloads_never_panic(
        universe in 0usize..300,
        seed in any::<u64>(),
        flip in any::<u64>(),
        chop in 0usize..16,
    ) {
        let snapshot = arb_set(universe, seed, 50);
        let basis = arb_set(universe, seed ^ 0x9E37, 50);
        let mut bytes = Vec::new();
        prop_assert!(snapshot.encode_delta(Some(&basis), &mut bytes));
        if !bytes.is_empty() {
            let i = (flip as usize) % bytes.len();
            bytes[i] ^= (flip >> 32) as u8 | 1;
            bytes.truncate(bytes.len().saturating_sub(chop));
        }
        let _ = RumorSet::decode_delta(&bytes, Some(&basis));
        // A mismatched basis universe must also be a typed rejection.
        let _ = RumorSet::decode_delta(&bytes, None);
    }

    /// Delta frames survive arbitrary read fragmentation: a stream of
    /// frames chopped at random points reassembles to the same frames.
    #[test]
    fn delta_frames_reassemble_across_split_reads(
        seed in any::<u64>(),
        universe in 1usize..400,
        cuts in proptest::collection::vec(any::<u16>(), 1..8),
    ) {
        let snapshot = arb_set(universe, seed, 60);
        let basis = arb_set(universe, seed ^ 1, 60);
        let mut delta = Vec::new();
        prop_assert!(snapshot.encode_delta(Some(&basis), &mut delta));
        let frames = vec![
            Frame::RequestDelta { seq: seed | 1, round: 3, basis_seq: 0, payload: delta.clone() },
            Frame::ReplyDelta { seq: seed | 1, round: 3, basis_seq: seed | 1, payload: delta },
            Frame::Bye,
        ];
        let mut stream = Vec::new();
        for f in &frames {
            f.encode_into(&mut stream).expect("frame fits");
        }
        // Split in two at every byte boundary (`extend` fills the
        // reader's spare room in place, the path a socket read takes).
        for cut in 0..=stream.len() {
            let mut reader = FrameReader::new();
            let mut seen = Vec::new();
            for half in [&stream[..cut], &stream[cut..]] {
                reader.extend(half);
                while let Some((f, _)) = reader.next_frame().expect("well-formed stream") {
                    seen.push(f);
                }
            }
            prop_assert_eq!(&seen, &frames);
            prop_assert!(reader.at_boundary());
        }
        // Then split it at the (sorted, deduped) cut points.
        let mut points: Vec<usize> =
            cuts.iter().map(|&c| c as usize % stream.len().max(1)).collect();
        points.sort_unstable();
        points.dedup();
        points.push(stream.len());
        let mut reader = FrameReader::new();
        let mut seen = Vec::new();
        let mut prev = 0;
        for p in points {
            reader.extend(&stream[prev..p]);
            prev = p;
            while let Some((f, _)) = reader.next_frame().expect("well-formed stream") {
                seen.push(f);
            }
        }
        prop_assert_eq!(seen, frames);
        prop_assert!(reader.at_boundary());
    }
}

#[test]
fn empty_rumor_set_round_trips() {
    for universe in [0, 1, 63, 64, 65] {
        let set = RumorSet::new(universe);
        let mut bytes = Vec::new();
        set.encode_payload(&mut bytes);
        let back = RumorSet::decode_payload(&bytes).expect("empty set decodes");
        assert_eq!(back, set);
        assert!(back.is_empty());
        assert_eq!(back.universe(), universe);
    }
}

#[test]
fn max_frame_boundary() {
    // Request overhead: 8 bytes seq + 8 bytes round. The largest legal
    // payload fills the body exactly to MAX_BODY.
    let overhead = 16usize;
    let max_payload = MAX_BODY as usize - overhead;
    let frame = Frame::Request {
        seq: 7,
        round: 9,
        payload: vec![0xAB; max_payload],
    };
    let bytes = frame.encode().expect("exactly-at-cap frame encodes");
    assert_eq!(bytes.len(), HEADER_LEN + MAX_BODY as usize);
    let (back, used) = Frame::decode(&bytes).expect("max-size frame decodes");
    assert_eq!(back, frame);
    assert_eq!(used, bytes.len());

    // One byte past the cap must be rejected on decode…
    let mut over = bytes;
    over[4..8].copy_from_slice(&(MAX_BODY + 1).to_le_bytes());
    over.push(0);
    assert_eq!(
        Frame::decode(&over),
        Err(CodecError::Oversized {
            len: MAX_BODY + 1,
            max: MAX_BODY
        })
    );
}

#[test]
fn oversized_encode_is_a_typed_error_at_the_exact_boundary() {
    // Encoding refuses oversized bodies with a typed error the runner
    // can catch and fall back from — never a panic, never truncation.
    let at_cap = Frame::Request {
        seq: 0,
        round: 0,
        payload: vec![0; MAX_BODY as usize - 16],
    };
    assert!(at_cap.encode().is_ok(), "body exactly at cap encodes");

    let over = Frame::Request {
        seq: 0,
        round: 0,
        payload: vec![0; MAX_BODY as usize - 15],
    };
    let err = over.encode().expect_err("one byte over the cap is refused");
    assert_eq!(
        err,
        CodecError::FrameTooLarge {
            len: MAX_BODY as usize + 1,
            max: MAX_BODY
        }
    );
    // encode_into must leave the output untouched on refusal.
    let mut out = vec![0xEE; 3];
    assert!(over.encode_into(&mut out).is_err());
    assert_eq!(out, vec![0xEE; 3], "failed encode appends nothing");
}

#[test]
fn header_layout_is_pinned() {
    // The on-wire layout is a compatibility contract; pin it.
    let bytes = Frame::Done { round: 0x0102_0304 }
        .encode()
        .expect("done frame fits");
    assert_eq!(bytes[0], MAGIC);
    assert_eq!(bytes[1], VERSION);
    assert_eq!(bytes[2], 3); // Done kind
    assert_eq!(bytes[3], 0); // flags
    assert_eq!(&bytes[4..8], &8u32.to_le_bytes()); // body: one u64
    assert_eq!(&bytes[8..16], &0x0102_0304u64.to_le_bytes());

    // The delta kinds and the capability bit are wire contract too.
    let delta = Frame::RequestDelta {
        seq: 1,
        round: 2,
        basis_seq: 3,
        payload: vec![0xCD],
    }
    .encode()
    .expect("delta frame fits");
    assert_eq!(delta[2], 6); // RequestDelta kind
    assert_eq!(&delta[4..8], &25u32.to_le_bytes()); // 3 × u64 + 1 payload byte
    let reply = Frame::ReplyDelta {
        seq: 1,
        round: 2,
        basis_seq: 1,
        payload: vec![],
    }
    .encode()
    .expect("delta reply fits");
    assert_eq!(reply[2], 7); // ReplyDelta kind
    assert_eq!(CAP_DELTA, 1, "capability bit assignment is pinned");
}

/// `(k, rows)` of a coefficient-row stream payload: `k = 0` included,
/// rows of `⌈k/64⌉` words with a partial last word whenever `k` is not
/// a multiple of 64.
fn arb_rows(k: u32, count: usize, seed: u64) -> Vec<Vec<u64>> {
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let words = (k as usize).div_ceil(64);
    (0..count)
        .map(|_| (0..words).map(|_| rng.random::<u64>()).collect())
        .collect()
}

proptest! {
    /// `snapshot_len` — what delta accounting compares against, called
    /// for every payload-carrying frame — is exactly the length
    /// `encode_payload` writes, for every payload type.
    #[test]
    fn snapshot_len_is_the_encoded_length(
        universe in 0usize..600,
        seed in any::<u64>(),
        ids in proptest::collection::vec(any::<u32>(), 0..40),
        k in 1u32..300,
        count in 0usize..6,
    ) {
        fn check<P: WirePayload + std::fmt::Debug>(p: &P) -> Result<(), TestCaseError> {
            let mut bytes = Vec::new();
            p.encode_payload(&mut bytes);
            prop_assert_eq!(p.snapshot_len(), bytes.len(), "{:?}", p);
            Ok(())
        }
        check(&arb_set(universe, seed, 33))?;
        check(&StreamPayload::Ids(ids.into()))?;
        check(&StreamPayload::empty_ids())?;
        for k in [k, 0, 64, 128] {
            let batch = RowBatch::from_rows(k as usize, &arb_rows(k, count, seed));
            check(&StreamPayload::Rows(batch.expect("rows of one width")))?;
            check(&StreamPayload::empty_rows(k as usize))?;
        }
        check(&())?;
    }
}

proptest! {
    /// A coefficient batch holds rows of one width only: its
    /// constructor refuses a row list with one row a word too long or
    /// too short, and accepts the same list once that row is resized
    /// back to `⌈k/64⌉` words. (The wire form, `count` rows of
    /// `⌈k/64⌉` words, never had room for a ragged batch.)
    #[test]
    fn the_batch_constructor_refuses_ragged_rows(
        k in 0u32..300,
        count in 1usize..6,
        seed in any::<u64>(),
        at in 0usize..6,
    ) {
        let words = (k as usize).div_ceil(64);
        let mut rows = arb_rows(k, count, seed);
        let row = &mut rows[at % count];
        if words > 0 && seed % 2 == 0 {
            row.pop();
        } else {
            row.push(seed);
        }
        prop_assert!(RowBatch::from_rows(k as usize, &rows).is_none());
        rows[at % count].resize(words, 0);
        prop_assert!(RowBatch::from_rows(k as usize, &rows).is_some());
    }
}

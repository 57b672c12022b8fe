//! Property tests for the GF(2) decoder behind algebraic gossip: the
//! three-clause contract from DESIGN.md §16 — decoded rumors never
//! exceed what was injected, full rank reconstructs the injected set
//! exactly, and the incremental eliminator agrees with an independent
//! from-scratch elimination.

use gossip_core::gf2::{batch_rank, Gf2Decoder, InsertOutcome};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn unit(k: usize, i: usize) -> Vec<u64> {
    let mut r = vec![0u64; k.div_ceil(64)];
    r[i / 64] |= 1u64 << (i % 64);
    r
}

fn xor_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// A nonzero random GF(2) combination of the given unit vectors —
/// exactly the shape of a coefficient row a node could legally emit
/// after hearing some subset of `injected`.
fn combo(k: usize, injected: &[usize], rng: &mut StdRng) -> Vec<u64> {
    let mut row = vec![0u64; k.div_ceil(64)];
    let mut any = false;
    for &i in injected {
        if rng.random::<bool>() {
            xor_into(&mut row, &unit(k, i));
            any = true;
        }
    }
    if !any {
        xor_into(&mut row, &unit(k, injected[0]));
    }
    row
}

/// A uniformly random row over a `k`-rumor universe (no stray bits
/// beyond column `k`).
fn random_row(k: usize, rng: &mut StdRng) -> Vec<u64> {
    let words = k.div_ceil(64);
    let mut row: Vec<u64> = (0..words).map(|_| rng.random::<u64>()).collect();
    row[words - 1] &= u64::MAX >> (words * 64 - k);
    row
}

/// `(k, injected_rumors)`: a universe plus a nonempty subset of it
/// playing the role of the rumors actually injected somewhere.
fn universe() -> impl Strategy<Value = (usize, Vec<usize>)> {
    (1usize..=320, 0u64..1000).prop_map(|(k, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut injected: Vec<usize> = (0..k).filter(|_| rng.random::<bool>()).collect();
        if injected.is_empty() {
            injected.push(rng.random_range(0..k));
        }
        (k, injected)
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Safety: feeding only combinations of injected rumors can never
    /// decode a rumor outside the injected set, no matter how many
    /// rows arrive — and rank is capped by the injected count.
    #[test]
    fn decoded_is_a_subset_of_injected(
        (k, injected) in universe(),
        seed in 0u64..1000,
        extra in 0usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Gf2Decoder::new(k);
        for _ in 0..extra {
            let _ = d.insert(&combo(k, &injected, &mut rng));
        }
        prop_assert!(d.rank() <= injected.len());
        for i in 0..k {
            if d.is_decoded(i) {
                prop_assert!(injected.contains(&i), "phantom rumor {i} decoded");
            }
        }
    }

    /// Liveness: once the received rows span the injected units —
    /// guaranteed here by mixing the units themselves into the feed —
    /// the decoded set equals the injected set exactly.
    #[test]
    fn full_rank_reconstructs_exactly(
        (k, injected) in universe(),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Gf2Decoder::new(k);
        // Interleave opaque combinations with the units that make the
        // span whole; order is randomized, full rank is certain.
        let mut feed: Vec<Vec<u64>> = injected.iter().map(|&i| unit(k, i)).collect();
        for _ in 0..injected.len() {
            feed.push(combo(k, &injected, &mut rng));
        }
        for i in (1..feed.len()).rev() {
            feed.swap(i, rng.random_range(0..=i));
        }
        for row in &feed {
            let _ = d.insert(row);
        }
        prop_assert_eq!(d.rank(), injected.len());
        prop_assert_eq!(d.decoded_count(), injected.len());
        for i in 0..k {
            prop_assert_eq!(d.is_decoded(i), injected.contains(&i));
        }
    }

    /// The incremental decoder agrees with an independent from-scratch
    /// elimination after every prefix of an arbitrary row sequence:
    /// same rank, same decoded set, `innovative` exactly when rank
    /// grew, `newly_decoded` exactly the decoded-set difference
    /// (ascending) — and once rank reaches `k` every further insert is
    /// a no-op that leaves the basis untouched. Half the cases draw a
    /// small universe so the sequence runs past full rank.
    #[test]
    fn incremental_matches_from_scratch(
        k in (1usize..=320, any::<bool>()).prop_map(|(k, small)| if small { k % 24 + 1 } else { k }),
        seed in 0u64..1000,
        count in 1usize..30,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<u64>> = (0..count).map(|_| random_row(k, &mut rng)).collect();
        let mut d = Gf2Decoder::new(k);
        let mut flags = vec![false; k];
        for (i, row) in rows.iter().enumerate() {
            let before = d.rank();
            let untouched = d.clone();
            let out = d.insert(row);
            let (rank, decoded) = batch_rank(k, &rows[..=i]);
            prop_assert_eq!(d.rank(), rank);
            prop_assert_eq!(out.innovative, rank > before, "row {}", i);
            let fresh: Vec<usize> = (0..k).filter(|&r| decoded[r] && !flags[r]).collect();
            prop_assert_eq!(&out.newly_decoded, &fresh, "row {}", i);
            flags = decoded;
            prop_assert_eq!(d.decoded_count(), flags.iter().filter(|f| **f).count());
            for (r, &want) in flags.iter().enumerate() {
                prop_assert_eq!(d.is_decoded(r), want, "rumor {} after row {}", r, i);
            }
            if before == k {
                prop_assert_eq!(out, InsertOutcome::default());
                prop_assert_eq!(&d, &untouched);
            }
        }
    }

    /// Full rank is a fixed point at every row width: fill a universe
    /// of up to five words with random rows until rank `k`, then any
    /// further row returns the default outcome and moves nothing.
    #[test]
    fn full_rank_absorbs_every_row(k in 1usize..=320, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Gf2Decoder::new(k);
        let mut fed = Vec::new();
        while d.rank() < k {
            fed.push(random_row(k, &mut rng));
            let _ = d.insert(fed.last().expect("just pushed"));
        }
        let (rank, decoded) = batch_rank(k, &fed);
        prop_assert_eq!(rank, k);
        prop_assert!(decoded.iter().all(|f| *f) && d.decoded_all());
        let full = d.clone();
        for _ in 0..4 {
            prop_assert_eq!(d.insert(&random_row(k, &mut rng)), InsertOutcome::default());
        }
        prop_assert_eq!(d, full);
    }
}

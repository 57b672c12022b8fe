//! Micro-loops: the unit cost of each layer's hot operation, taken by
//! calling its public function in a loop on seeded inputs shaped like
//! the workloads' (universe 4096 for `clique_pushpull`, 1024 for the
//! soaks, 36- and 132-byte payloads for the wire codec, `k = 256` for
//! GF(2)). A layer optimisation should move its number here *and* the
//! end-to-end metric README.md names for it.

use std::hint::black_box;
use std::time::Instant;

use gossip_core::gf2::Gf2Decoder;
use gossip_net::{Frame, WirePayload};
use gossip_sim::{
    CompactRumorSet, Context, Exchange, Protocol, RumorSet, SharedRumorSet, SimConfig, Simulator,
};
use latency_graph::{generators, NodeId};

use crate::stats::{median, SplitMix64};
use crate::timed::{Kind, STRIDE};

/// Timed batches per micro-loop; the median batch is reported.
const BATCHES: usize = 5;
/// Target length of one batch.
const BATCH_SECONDS: f64 = 0.01;

/// Median nanoseconds per call of `op`: the iteration count is doubled
/// until a batch lasts [`BATCH_SECONDS`], then [`BATCHES`] batches are
/// timed.
pub fn ns_per_op(mut op: impl FnMut()) -> f64 {
    let mut time_batch = |iters: u64| {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        start.elapsed().as_secs_f64()
    };
    let mut iters = 16_u64;
    while time_batch(iters) < BATCH_SECONDS && iters < 1 << 30 {
        iters *= 2;
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| time_batch(iters) * 1e9 / iters as f64)
        .collect();
    median(&samples)
}

/// What timing costs on this host, in nanoseconds: `(now, empty)`.
/// `now` is one `Instant::now()` — a timed callback pays two, a round
/// tick one. `empty` is what [`Kind::time`] reads around an empty
/// closure: the share of those reads that lands *inside* a timed
/// interval, which the traced run subtracts from every one.
pub fn timer_costs() -> (f64, f64) {
    let now = ns_per_op(|| {
        black_box(Instant::now());
    });
    let kind = Kind::default();
    for _ in 0..20_000 * STRIDE {
        kind.time(|| black_box(()));
    }
    (now, kind.mean_timed_ns())
}

/// A set over `0..universe` holding each rumor with probability ½.
fn half_full(universe: usize, rng: &mut SplitMix64) -> RumorSet {
    let mut words: Vec<u64> = (0..universe.div_ceil(64)).map(|_| rng.next_u64()).collect();
    if !universe.is_multiple_of(64) {
        let last = words.len() - 1;
        words[last] &= (1u64 << (universe % 64)) - 1;
    }
    RumorSet::from_words(universe, words).expect("masked words fit the universe")
}

/// Unit costs of the `sim::rumor` operations at one universe size.
#[derive(Clone, Copy, Debug)]
pub struct RumorCosts {
    /// `RumorSet::union_with`, in place, half-full operands.
    pub union_ns: f64,
    /// What a `PushPullNode::payload` snapshot costs once the node next
    /// learns something: `SharedRumorSet::snapshot` plus the
    /// copy-on-write merge it forces on `union_with`.
    pub snapshot_ns: f64,
    /// `CompactRumorSet::union_with` on the compact forms (clone of
    /// the left operand included — the union consumes it).
    pub compact_union_ns: f64,
    /// `RumorSet::diff`, the scan delta mode runs per payload frame.
    pub diff_ns: f64,
}

/// Times the rumor-set operations on two independent half-full sets.
pub fn rumor_costs(universe: usize, seed: u64) -> RumorCosts {
    let mut rng = SplitMix64(seed);
    let (a, b) = (half_full(universe, &mut rng), half_full(universe, &mut rng));
    let mut acc = a.clone();
    let union_ns = ns_per_op(|| {
        black_box(acc.union_with(black_box(&b)));
    });
    let (sa, sb) = (
        SharedRumorSet::from(a.clone()),
        SharedRumorSet::from(b.clone()),
    );
    let snapshot_ns = ns_per_op(|| {
        let mut in_flight = sa.snapshot();
        black_box(in_flight.union_with(black_box(&sb)));
    });
    let (ca, cb) = (CompactRumorSet::from_set(&a), CompactRumorSet::from_set(&b));
    let compact_union_ns = ns_per_op(|| {
        let mut x = ca.clone();
        black_box(x.union_with(black_box(&cb)));
    });
    let diff_ns = ns_per_op(|| {
        black_box(a.diff(black_box(&b)));
    });
    RumorCosts {
        union_ns,
        snapshot_ns,
        compact_union_ns,
        diff_ns,
    }
}

/// Unit costs of `core::gf2` at `k = 256`.
#[derive(Clone, Copy, Debug)]
pub struct Gf2Costs {
    /// Mean `Gf2Decoder::insert` while filling an empty decoder to full
    /// rank with seeded random rows.
    pub insert_ns: f64,
    /// `Gf2Decoder::random_combination` at full rank.
    pub combine_ns: f64,
}

const GF2_K: usize = 256;

/// Fills a fresh decoder to full rank; returns it and the inserts made.
fn fill_decoder(rng: &mut SplitMix64) -> (Gf2Decoder, u64) {
    let mut decoder = Gf2Decoder::new(GF2_K);
    let mut inserts = 0;
    while decoder.rank() < GF2_K {
        let row: Vec<u64> = (0..decoder.words()).map(|_| rng.next_u64()).collect();
        black_box(decoder.insert(&row));
        inserts += 1;
    }
    (decoder, inserts)
}

/// `random_combination` draws from the engine's `StdRng`, which only a
/// protocol callback can borrow (`Context::rng`) — `rand` is vendored
/// and this package must not reach into `vendor/`. So the loop runs
/// inside the first `on_round` of a two-node simulation.
struct CombineLoop {
    decoder: Gf2Decoder,
    ns_per_op: f64,
}

impl Protocol for CombineLoop {
    type Payload = ();

    fn payload(&self) {}

    fn on_round(&mut self, ctx: &mut Context<'_>) {
        if ctx.id() == NodeId::new(0) && ctx.round() == 0 {
            let decoder = &self.decoder;
            self.ns_per_op = ns_per_op(|| {
                black_box(decoder.random_combination(ctx.rng()));
            });
        }
    }

    fn on_exchange(&mut self, _: &mut Context<'_>, _: &Exchange<()>) {}
}

/// Times the GF(2) decoder on seeded rows.
pub fn gf2_costs(seed: u64) -> Gf2Costs {
    let mut rng = SplitMix64(seed);
    let mut samples = Vec::with_capacity(BATCHES);
    let mut full = None;
    for _ in 0..BATCHES {
        let start = Instant::now();
        let (decoder, inserts) = fill_decoder(&mut rng);
        samples.push(start.elapsed().as_secs_f64() * 1e9 / inserts as f64);
        full = Some(decoder);
    }
    let decoder = full.expect("at least one batch");
    let config = SimConfig {
        seed,
        max_rounds: 1,
        ..SimConfig::default()
    };
    let out = Simulator::new(&generators::path(2), config).run(
        |_, _| CombineLoop {
            decoder: decoder.clone(),
            ns_per_op: 0.0,
        },
        |_: &[CombineLoop], _| false,
    );
    Gf2Costs {
        insert_ns: median(&samples),
        combine_ns: out.nodes[0].ns_per_op,
    }
}

/// Unit costs of the delta payload codec on a 1024-rumor universe,
/// against a half-full basis.
#[derive(Clone, Copy, Debug)]
pub struct DeltaCosts {
    /// `encode_delta` of a set equal to its basis (the soak's steady
    /// state: an empty delta).
    pub encode_ns_d0: f64,
    /// `encode_delta` of the basis plus 8 new rumors.
    pub encode_ns_d8: f64,
    /// `decode_delta` of the empty delta.
    pub decode_ns_d0: f64,
    /// `decode_delta` of the 8-rumor delta.
    pub decode_ns_d8: f64,
}

/// Times `WirePayload::encode_delta`/`decode_delta` for `RumorSet`.
pub fn delta_costs(seed: u64) -> DeltaCosts {
    let universe = 1024;
    let basis = half_full(universe, &mut SplitMix64(seed));
    let mut grown = basis.clone();
    let mut added = 0;
    for v in (0..universe).map(NodeId::new) {
        if added < 8 && grown.insert(v) {
            added += 1;
        }
    }
    let cost = |value: &RumorSet| {
        let mut buf = Vec::new();
        let encode = ns_per_op(|| {
            buf.clear();
            black_box(value.encode_delta(Some(black_box(&basis)), &mut buf));
        });
        let decode = ns_per_op(|| {
            let back = RumorSet::decode_delta(black_box(&buf), Some(&basis));
            black_box(back.expect("an encoded delta decodes"));
        });
        (encode, decode)
    };
    let (encode_ns_d0, decode_ns_d0) = cost(&basis);
    let (encode_ns_d8, decode_ns_d8) = cost(&grown);
    DeltaCosts {
        encode_ns_d0,
        encode_ns_d8,
        decode_ns_d0,
        decode_ns_d8,
    }
}

/// `(encode_ns, decode_ns)` of one trunk-enveloped reply frame of
/// `payload` bytes through one reused buffer — `gossip-bench`'s
/// `measure_codec` loop at the payload sizes the workloads send.
pub fn wire_costs(payload: usize) -> (f64, f64) {
    let frame = Frame::Routed {
        src: NodeId::new(3),
        dst: NodeId::new(11),
        release: 13,
        inner: Box::new(Frame::Reply {
            seq: 7,
            round: 12,
            payload: vec![0xA5; payload],
        }),
    };
    let mut buf = Vec::new();
    let encode = ns_per_op(|| {
        buf.clear();
        black_box(&frame)
            .encode_into(&mut buf)
            .expect("bench frame fits");
    });
    let decode = ns_per_op(|| {
        let (back, used) = Frame::decode(black_box(&buf)).expect("encoded frame decodes");
        assert_eq!(used, buf.len());
        black_box(back);
    });
    (encode, decode)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_full_sets_are_about_half_full_and_seeded() {
        for universe in [1000, 1024, 4096] {
            let a = half_full(universe, &mut SplitMix64(9));
            let b = half_full(universe, &mut SplitMix64(9));
            assert_eq!(a.fingerprint(), b.fingerprint());
            assert_eq!(a.universe(), universe);
            let share = a.len() as f64 / universe as f64;
            assert!((0.4..0.6).contains(&share), "{share}");
        }
    }

    #[test]
    fn decoder_fills_to_full_rank() {
        let (decoder, inserts) = fill_decoder(&mut SplitMix64(1));
        assert!(decoder.decoded_all());
        assert!(inserts >= 256);
    }

    #[test]
    fn every_micro_loop_reports_a_positive_cost() {
        let r = rumor_costs(1024, 1);
        assert!(r.union_ns > 0.0 && r.snapshot_ns > 0.0);
        assert!(r.compact_union_ns > 0.0 && r.diff_ns > 0.0);
        let g = gf2_costs(1);
        assert!(g.insert_ns > 0.0 && g.combine_ns > 0.0);
        let d = delta_costs(1);
        assert!(d.encode_ns_d0 > 0.0 && d.decode_ns_d8 > 0.0);
        let (e, dcd) = wire_costs(36);
        assert!(e > 0.0 && dcd > 0.0);
        let (now, empty) = timer_costs();
        assert!(now > 0.0 && empty > 0.0);
    }
}

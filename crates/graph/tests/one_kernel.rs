//! The three single-threshold entry points run one kernel.
//!
//! `conductance::sweep_cut_estimate`, `spectral::spectral_gap` and the
//! first threshold of `profile::estimate_profile` each build the
//! latency-sorted CSR, seed a workspace, advance it to one threshold,
//! power-iterate and (for the two cut estimators) sweep. On the fixed
//! topologies that `gossip-bench`'s `golden_conductance` pins, at the
//! smallest distinct latency, with the same step cap, the default
//! tolerance and the same seed, all three must agree bit for bit with
//! the kernel driven by hand: the same φ (`to_bits`), the same witness,
//! the same λ₂ and the same step count.

use latency_graph::generators::{LayeredRing, LayeredRingSpec};
use latency_graph::profile::{estimate_profile, LatencyCsr, ProfileConfig, SpectralWorkspace};
use latency_graph::{conductance, generators, spectral, Graph, Latency};

/// The fixtures of `golden_conductance`, each with the step cap and
/// seed its pin uses.
fn fixtures() -> Vec<(&'static str, Graph, usize, u64)> {
    let cap = ProfileConfig::default().max_iterations;
    vec![
        (
            "ring_of_cliques(3,4,7)",
            generators::ring_of_cliques(3, 4, 7),
            cap,
            0,
        ),
        ("barbell(5,9)", generators::barbell(5, 9), cap, 0),
        (
            "bimodal_clique(14, 1/28, 30% fast)",
            generators::bimodal_latencies(&generators::clique(14), 1, 28, 0.3, 1),
            cap,
            0,
        ),
        ("barbell(20,12)", generators::barbell(20, 12), 400, 11),
        (
            "theorem7_network(32,0.35,4,9)",
            generators::theorem7_network(32, 0.35, 4, 9).graph,
            400,
            5,
        ),
        (
            "layered_ring(60,0.1,16,2)",
            LayeredRing::generate(&LayeredRingSpec {
                n: 60,
                alpha: 0.1,
                ell: 16,
                seed: 2,
            })
            .graph,
            400,
            3,
        ),
    ]
}

/// A cut result's φ (as bits) and witness, read from its `Debug` form
/// so the pin does not depend on the result type's field names: a cut
/// result prints exactly one `f64` (φ) and one `bool` list (the
/// witness); its latency prints as `ℓN` and its counts without a point.
fn phi_and_witness(result: &impl std::fmt::Debug) -> (u64, Vec<bool>) {
    let text = format!("{result:?}");
    let mut floats = Vec::new();
    let mut witness = Vec::new();
    for token in text.split(|c: char| " {}[](),:".contains(c)) {
        match token {
            "true" => witness.push(true),
            "false" => witness.push(false),
            t if t.contains('.') || t.contains('e') || t == "inf" || t == "NaN" => {
                if let Ok(v) = t.parse::<f64>() {
                    floats.push(v.to_bits());
                }
            }
            _ => {}
        }
    }
    assert_eq!(floats.len(), 1, "one φ in {text}");
    (floats[0], witness)
}

#[test]
fn three_entry_points_share_one_kernel() {
    for (name, g, cap, seed) in fixtures() {
        let ell: Latency = g.distinct_latencies()[0];

        // The kernel, driven by hand.
        let csr = LatencyCsr::new(&g);
        let mut ws = SpectralWorkspace::new(&csr, seed);
        assert!(ws.advance_threshold(&csr, ell) > 0, "{name}: edges at ℓ");
        let it = ws.power_iterate(&csr, cap, ProfileConfig::default().tolerance, seed);
        let phi = ws.sweep_cut(&csr).expect("proper cut").to_bits();
        let witness = ws.witness().to_vec();

        let sweep = conductance::sweep_cut_estimate(&g, ell, cap, seed).expect("edges at ℓ");
        assert_eq!(
            phi_and_witness(&sweep),
            (phi, witness.clone()),
            "{name}: sweep cut"
        );

        let gap = spectral::spectral_gap(&g, ell, cap, seed).expect("edges at ℓ");
        assert_eq!(gap.lambda2.to_bits(), it.lambda2.to_bits(), "{name}: λ₂");
        assert_eq!(gap.iterations, it.iterations, "{name}: spectral steps");

        let cfg = ProfileConfig {
            max_iterations: cap,
            seed,
            ..ProfileConfig::default()
        };
        let profile = estimate_profile(&g, &cfg);
        let first = &profile.entries()[0];
        assert_eq!(first.ell, ell, "{name}: first threshold");
        assert_eq!(first.iterations, it.iterations, "{name}: profile steps");
        assert_eq!(
            phi_and_witness(first),
            (phi, witness),
            "{name}: profile entry"
        );
    }
}

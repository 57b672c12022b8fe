//! Golden `φ*`/`ℓ*` values for the fixed topologies the experiment
//! suite (E4, E13) is built on.
//!
//! These pins keep the *science* stable: a refactor of the conductance
//! machinery that silently shifts the weighted conductance of the
//! barbell or the Theorem 7 gadget would invalidate every
//! bound-vs-measured comparison downstream. Exact values are pinned to
//! 1e-9 (they are small rationals); spectral estimates are pinned to
//! 1e-3 with the critical latency exact.

use latency_graph::generators::{LayeredRing, LayeredRingSpec};
use latency_graph::profile::{estimate_profile, ProfileConfig};
use latency_graph::{conductance, generators, Graph, Latency};

fn assert_golden(wc: &conductance::WeightedConductance, phi: f64, ell: u32, tol: f64, name: &str) {
    assert!(
        (wc.phi_star - phi).abs() < tol,
        "{name}: φ* drifted: got {}, pinned {phi}",
        wc.phi_star
    );
    assert_eq!(wc.critical_latency, Latency::new(ell), "{name}: ℓ* drifted");
}

/// Exact enumeration on the small fixed topologies (pins to 1e-9).
#[test]
fn exact_golden_values() {
    let cases: Vec<(&str, Graph, f64, u32)> = vec![
        // Three 4-cliques in a ring, bridges at latency 7: cutting one
        // clique off severs 2 bridges over volume 14 ⇒ φ* = 1/7 at ℓ* = 7.
        (
            "ring_of_cliques(3,4,7)",
            generators::ring_of_cliques(3, 4, 7),
            1.0 / 7.0,
            7,
        ),
        // Two 5-cliques, bridge latency 9: 1 bridge over volume 21.
        ("barbell(5,9)", generators::barbell(5, 9), 1.0 / 21.0, 9),
        // Bimodal K14 (30% fast): the fast subgraph alone already gives
        // the best φ_ℓ/ℓ, at ℓ* = 1.
        (
            "bimodal_clique(14, 1/28, 30% fast)",
            generators::bimodal_latencies(&generators::clique(14), 1, 28, 0.3, 1),
            1.0 / 13.0,
            1,
        ),
    ];
    for (name, g, phi, ell) in cases {
        let wc = conductance::exact_weighted_conductance(&g).expect("connected");
        assert_golden(&wc, phi, ell, 1e-9, name);
    }
}

/// Pipeline estimates on the larger fixed topologies used by E4/E13,
/// with the exact seeds/iteration caps those experiments use (pins to
/// 1e-3; ℓ* exact).
#[test]
fn estimated_golden_values() {
    // E4's barbell: bridge 1 over volume 381 ⇒ φ* = 1/381 at ℓ* = 12.
    let g = generators::barbell(20, 12);
    let wc = estimate_profile(
        &g,
        &ProfileConfig {
            max_iterations: 400,
            seed: 11,
            ..ProfileConfig::default()
        },
    )
    .weighted_conductance()
    .expect("connected");
    assert_golden(&wc, 1.0 / 381.0, 12, 1e-3, "barbell(20,12)");

    // E13's Theorem 7 gadget at p = 0.35: φ* = Θ(p) at ℓ* = ℓ = 4.
    let g = generators::theorem7_network(32, 0.35, 4, 9).graph;
    let wc = estimate_profile(
        &g,
        &ProfileConfig {
            max_iterations: 400,
            seed: 5,
            ..ProfileConfig::default()
        },
    )
    .weighted_conductance()
    .expect("connected");
    assert_golden(&wc, 5.0 / 32.0, 4, 1e-3, "theorem7_network(32,0.35,4,9)");

    // E13's layered ring (Lemmas 9–11): φ* ≈ α = 0.1 at ℓ* = ℓ = 16.
    let ring = LayeredRing::generate(&LayeredRingSpec {
        n: 60,
        alpha: 0.1,
        ell: 16,
        seed: 2,
    });
    let wc = estimate_profile(
        &ring.graph,
        &ProfileConfig {
            max_iterations: 400,
            seed: 3,
            ..ProfileConfig::default()
        },
    )
    .weighted_conductance()
    .expect("connected");
    assert_golden(&wc, 9.0 / 91.0, 16, 1e-3, "layered_ring(60,0.1,16,2)");
}

/// The exact pins are invariant to how the profile is computed: the
/// Gray-code enumerator and the spectral pipeline must both respect
/// them (pipeline upper-bounds the exact value).
#[test]
fn estimates_upper_bound_exact_pins() {
    for (g, exact_phi) in [
        (generators::ring_of_cliques(3, 4, 7), 1.0 / 7.0),
        (generators::barbell(5, 9), 1.0 / 21.0),
    ] {
        let est = estimate_profile(&g, &ProfileConfig::default());
        let exact = conductance::exact_conductance_profile(&g).expect("connected");
        for e in est.entries() {
            assert!(
                e.phi >= exact.phi_at(e.ell) - 1e-12,
                "estimate must upper-bound exact at ℓ = {}",
                e.ell
            );
        }
        let wc = conductance::exact_weighted_conductance(&g).expect("connected");
        assert!((wc.phi_star - exact_phi).abs() < 1e-9);
    }
}

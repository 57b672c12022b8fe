//! Spectral analysis of the latency-thresholded random walk: the
//! spectral gap of `G_ℓ`, Cheeger-style bounds on `φ_ℓ`, and mixing
//! time estimates.
//!
//! The walk is the one Theorem 12's proof couples push-pull to: from
//! `u`, pick a uniform incident edge of `G`; traverse it if its latency
//! is `≤ ℓ`, else stay put (the strongly edge-induced graph
//! [`crate::induced::EdgeInducedGraph`]). Its lazy version has second
//! eigenvalue `λ₂`; the gap `γ = 1 − λ₂` satisfies the Cheeger
//! inequalities `γ/2 ≤ φ_ℓ ≤ √(2γ)`, and the mixing time is
//! `Θ(1/γ · log n)` — the quantity behind push-pull's
//! `O(log n / φ)` behavior.

use crate::graph::Graph;
use crate::ids::Latency;
use crate::profile::{self, PowerIteration};

/// The Cheeger bounds and mixing scale of an estimated `λ₂`.
impl PowerIteration {
    /// The gap `γ = 1 − λ₂`.
    pub fn gap(&self) -> f64 {
        1.0 - self.lambda2
    }

    /// Cheeger lower bound: `φ_ℓ ≥ γ/2`.
    pub fn phi_lower_bound(&self) -> f64 {
        (self.gap() / 2.0).max(0.0)
    }

    /// Cheeger upper bound: `φ_ℓ ≤ √(2γ)`.
    pub fn phi_upper_bound(&self) -> f64 {
        (2.0 * self.gap().max(0.0)).sqrt()
    }

    /// Mixing-time scale `(1/γ)·ln n` — the push-pull round scale on a
    /// `φ_ℓ`-connected graph before the `ℓ` charging.
    pub fn mixing_scale(&self, n: usize) -> f64 {
        if self.gap() <= 0.0 {
            f64::INFINITY
        } else {
            (n.max(2) as f64).ln() / self.gap()
        }
    }
}

/// Estimates the spectral gap of the lazy `G_ℓ` walk by power iteration
/// on the degree-weighted complement of the stationary direction.
///
/// It is the first threshold of [`crate::profile::estimate_profile`]'s
/// step, as [`crate::conductance::sweep_cut_estimate`] is: the same
/// latency-sorted CSR, the same seeded start vector, and the same
/// residual-based early stop (at [`profile::DEFAULT_TOLERANCE`]) with
/// `iterations` as the step cap — [`PowerIteration::iterations`]
/// reports how many steps were actually needed.
///
/// Returns `None` for graphs with fewer than 2 nodes or no `≤ ℓ` edges.
/// The estimate converges from below on `λ₂` (so the gap converges from
/// above).
pub fn spectral_gap(
    g: &Graph,
    ell: Latency,
    iterations: usize,
    seed: u64,
) -> Option<PowerIteration> {
    profile::threshold_steps(g, &[ell], iterations, profile::DEFAULT_TOLERANCE, seed)
        .pop()
        .map(|(it, _)| it)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{conductance, generators};

    #[test]
    fn clique_has_large_gap() {
        let g = generators::clique(16);
        let s = spectral_gap(&g, Latency::UNIT, 300, 1).unwrap();
        // Lazy walk on K_n: λ₂ = 1/2 + (−1/(n−1))/2 ≈ 0.467 ⇒ gap ≈ 0.53.
        assert!(s.gap() > 0.4, "gap = {}", s.gap());
    }

    #[test]
    fn dumbbell_has_tiny_gap() {
        let g = generators::barbell(8, 1);
        let s = spectral_gap(&g, Latency::UNIT, 500, 1).unwrap();
        assert!(s.gap() < 0.05, "bottleneck ⇒ tiny gap, got {}", s.gap());
    }

    #[test]
    fn cheeger_sandwich_holds_exactly() {
        // On small graphs we can compute φ_ℓ exactly and verify
        // γ/2 ≤ φ_ℓ ≤ √(2γ).
        for g in [
            generators::cycle(10),
            generators::barbell(5, 1),
            generators::clique(8),
            generators::grid(3, 4),
        ] {
            let s = spectral_gap(&g, Latency::UNIT, 800, 3).unwrap();
            let phi = conductance::exact_conductance_profile(&g)
                .unwrap()
                .phi_at(Latency::UNIT);
            assert!(
                s.phi_lower_bound() <= phi + 0.02,
                "lower bound violated: γ/2 = {} vs φ = {phi}",
                s.phi_lower_bound()
            );
            assert!(
                s.phi_upper_bound() >= phi - 0.02,
                "upper bound violated: √(2γ) = {} vs φ = {phi}",
                s.phi_upper_bound()
            );
        }
    }

    #[test]
    fn gap_shrinks_when_fast_edges_vanish() {
        // Bimodal clique: at ℓ = 1 only the sparse fast subgraph walks;
        // at ℓ = slow the whole clique does.
        let g = generators::bimodal_latencies(&generators::clique(16), 1, 30, 0.2, 4);
        let fast = spectral_gap(&g, Latency::new(1), 400, 2).unwrap();
        let slow = spectral_gap(&g, Latency::new(30), 400, 2).unwrap();
        assert!(slow.gap() > fast.gap(), "more usable edges ⇒ bigger gap");
    }

    #[test]
    fn mixing_scale_tracks_push_pull_shape() {
        let g = generators::clique(64);
        let s = spectral_gap(&g, Latency::UNIT, 300, 5).unwrap();
        let scale = s.mixing_scale(64);
        // Push-pull broadcast on K_64 measured earlier ≈ 6 rounds; the
        // mixing scale ln n / γ ≈ 4.2/0.5 ≈ 8 — same order.
        assert!(scale > 2.0 && scale < 30.0, "scale = {scale}");
    }

    #[test]
    fn residual_early_stop_fires_and_matches_analytic_value() {
        // Lazy walk on K16: λ₂ = ½ + ½·(−1/15) ≈ 0.4667. The gap to λ₃
        // is large, so the residual stop fires long before the cap and
        // the answer still has many stable digits.
        let g = generators::clique(16);
        let s = spectral_gap(&g, Latency::UNIT, 10_000, 1).unwrap();
        assert!(
            s.iterations < 1_000,
            "early stop should fire well before the 10k cap, took {}",
            s.iterations
        );
        let analytic = 0.5 - 1.0 / 30.0;
        assert!((s.lambda2 - analytic).abs() < 1e-6, "λ₂ = {}", s.lambda2);
    }

    #[test]
    fn early_stop_agrees_with_exhausted_iteration() {
        // Running to the cap (no early benefit beyond convergence) must
        // not change the estimate materially.
        let g = generators::barbell(6, 3);
        let short = spectral_gap(&g, Latency::new(3), 5_000, 9).unwrap();
        let long = spectral_gap(&g, Latency::new(3), 20_000, 9).unwrap();
        assert!((short.lambda2 - long.lambda2).abs() < 1e-9);
    }

    #[test]
    fn none_for_degenerate_inputs() {
        let single = Graph::from_edges(1, []).unwrap();
        assert!(spectral_gap(&single, Latency::UNIT, 10, 0).is_none());
        let slow_only = Graph::from_edges(3, [(0, 1, 9), (1, 2, 9)]).unwrap();
        assert!(spectral_gap(&slow_only, Latency::new(2), 10, 0).is_none());
    }

    use crate::Graph;
}

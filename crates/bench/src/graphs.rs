//! Graph builders shared by the criterion benches and the stream grid
//! (E24): generator wrappers that pin a size or a property the raw
//! generators only approximate.

use latency_graph::generators::layered_ring::{LayeredRing, LayeredRingSpec};
use latency_graph::{generators, Graph};

/// A layered ring ([`LayeredRing::generate`]) with exactly
/// `total = k·s` nodes: `s = layer` nodes per layer, `k = total/layer`
/// layers. Solves the spec's self-consistent `c` by fixed-point
/// iteration so the generate-time rounding lands on `(k, s)` exactly.
///
/// # Panics
///
/// Panics unless `layer ≥ 2` divides `total` and `total/layer ≥ 3`.
pub fn layered_ring_exact(total: usize, layer: usize, ell: u32, seed: u64) -> LayeredRing {
    assert!(layer >= 2 && total.is_multiple_of(layer) && total / layer >= 3);
    let k = total / layer;
    let mut c = 1.5f64;
    for _ in 0..32 {
        c = 0.75 + 0.25 * (9.0 - 8.0 * c / layer as f64).sqrt();
    }
    let ring = LayeredRing::generate(&LayeredRingSpec {
        n: total / 2,
        alpha: 2.0 / (k as f64 * c),
        ell,
        seed,
    });
    assert_eq!(ring.graph.node_count(), total, "exact sizing failed");
    assert_eq!(ring.layer_size, layer);
    ring
}

/// A connected random-geometric graph with expected degree
/// `target_degree`, retried with incremented seeds until connected.
///
/// # Panics
///
/// Panics if no connected sample is found within 8 retries — choose
/// `target_degree ≳ ln n`.
pub fn connected_geometric(n: usize, target_degree: f64, seed: u64) -> Graph {
    let radius = (target_degree / (std::f64::consts::PI * n as f64)).sqrt();
    for attempt in 0..8 {
        let g = generators::random_geometric(n, radius, 200.0, seed.wrapping_add(attempt));
        if g.is_connected() {
            return g;
        }
    }
    panic!("no connected geometric sample with degree {target_degree} at n={n} in 8 attempts");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layered_ring_exact_sizes() {
        let ring = layered_ring_exact(1024, 32, 4, 7);
        assert_eq!(ring.graph.node_count(), 1024);
        assert_eq!(ring.layer_size, 32);
        assert_eq!(ring.layers, 32);
        assert!(ring.graph.is_connected());
    }

    #[test]
    fn connected_geometric_is_connected() {
        let g = connected_geometric(512, 18.0, 1);
        assert!(g.is_connected());
        assert_eq!(g.node_count(), 512);
    }
}

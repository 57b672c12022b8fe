//! Equivalence of the incremental multi-threshold pipeline with the
//! seed's per-`ℓ`-from-scratch analysis path.
//!
//! Two references are copied (not imported) from the pre-pipeline
//! implementation so refactors of the library cannot silently change
//! what is being compared against:
//!
//! * `legacy_profile` — the old `estimate_weighted_conductance` shape:
//!   for every distinct latency independently, a cold-started power
//!   iteration that scans **all** `m` edges per step (no latency-sorted
//!   prefix, no warm start, no shared buffers), followed by the same
//!   sweep cut. The one change from the seed is that it stops on the
//!   same relative-residual rule as the pipeline instead of a fixed
//!   iteration count, so the comparison isolates the incremental
//!   machinery rather than iteration-count truncation.
//! * `rescan_exact_profile` — the old exact enumerator that recomputes
//!   `vol(U)` and the per-latency cut counts from scratch for every
//!   mask; the Gray-code rewrite must be **byte-equal** to it
//!   (identical `f64` bits, identical witnesses).

use latency_graph::profile::{estimate_profile, ProfileConfig, ThresholdSet};
use latency_graph::{conductance, generators, Graph, Latency, NodeId};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Legacy reference 1: per-ℓ-from-scratch spectral estimator.
// ---------------------------------------------------------------------

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn seeded_start(seed: u64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let h = splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            (h as f64 / u64::MAX as f64) - 0.5
        })
        .collect()
}

/// The seed's `sweep_cut_estimate`: cold start, full edge scan per
/// iteration, with the pipeline's residual stop bolted on.
fn legacy_sweep_cut(
    g: &Graph,
    ell: Latency,
    max_iterations: usize,
    tolerance: f64,
    seed: u64,
) -> Option<(f64, Vec<bool>)> {
    let n = g.node_count();
    if n < 2 {
        return None;
    }
    let degrees: Vec<f64> = g.nodes().map(|v| g.degree(v) as f64).collect();
    let total_vol: f64 = degrees.iter().sum();
    let mut x = seeded_start(seed, n);
    for _ in 0..max_iterations.max(1) {
        let mean: f64 = x.iter().zip(&degrees).map(|(&xi, &d)| xi * d).sum::<f64>() / total_vol;
        for xi in &mut x {
            *xi -= mean;
        }
        // Full scan: filter every incident edge by latency, every step.
        let mut y = vec![0.0f64; n];
        for u in 0..n {
            if degrees[u] == 0.0 {
                y[u] = x[u];
                continue;
            }
            let mut acc = 0.0;
            let mut fast = 0.0;
            for (v, l) in g.neighbors(NodeId::new(u)) {
                if l <= ell {
                    acc += x[v.index()];
                    fast += 1.0;
                }
            }
            let stay = (degrees[u] - fast) * x[u];
            y[u] = 0.5 * x[u] + 0.5 * (acc + stay) / degrees[u];
        }
        // Residual stop (same rule as the pipeline kernel).
        let mut converged = false;
        let den: f64 = x.iter().zip(&degrees).map(|(&xi, &d)| xi * xi * d).sum();
        if tolerance > 0.0 && den > 1e-300 {
            let num: f64 = y
                .iter()
                .zip(&x)
                .zip(&degrees)
                .map(|((&yi, &xi), &d)| yi * xi * d)
                .sum();
            let lambda = num / den;
            let res2: f64 = y
                .iter()
                .zip(&x)
                .zip(&degrees)
                .map(|((&yi, &xi), &d)| {
                    let r = yi - lambda * xi;
                    r * r * d
                })
                .sum();
            let y2: f64 = y.iter().zip(&degrees).map(|(&yi, &d)| yi * yi * d).sum();
            if y2 > 1e-300 && res2 <= tolerance * tolerance * y2 {
                converged = true;
            }
        }
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm < 1e-300 {
            break;
        }
        for v in &mut y {
            *v /= norm;
        }
        x = y;
        if converged {
            break;
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| x[a].partial_cmp(&x[b]).expect("finite eigenvector entries"));
    let mut members = vec![false; n];
    let mut vol_u = 0.0f64;
    let mut cut_edges = 0i64;
    let mut best: Option<(f64, usize)> = None;
    for (prefix, &u) in order.iter().enumerate().take(n - 1) {
        members[u] = true;
        vol_u += degrees[u];
        for (v, l) in g.neighbors(NodeId::new(u)) {
            if l <= ell {
                if members[v.index()] {
                    cut_edges -= 1;
                } else {
                    cut_edges += 1;
                }
            }
        }
        let denom = vol_u.min(total_vol - vol_u);
        if denom <= 0.0 {
            continue;
        }
        let phi = cut_edges as f64 / denom;
        if best.is_none_or(|(b, _)| phi < b) {
            best = Some((phi, prefix));
        }
    }
    let (phi_upper, best_prefix) = best?;
    let mut cut = vec![false; n];
    for &u in order.iter().take(best_prefix + 1) {
        cut[u] = true;
    }
    Some((phi_upper, cut))
}

/// The seed's `estimate_weighted_conductance` shape: evaluate every
/// distinct latency independently, keep the best `φ_ℓ/ℓ`.
fn legacy_profile(
    g: &Graph,
    max_iterations: usize,
    tolerance: f64,
    seed: u64,
) -> Vec<(Latency, f64, Vec<bool>)> {
    g.distinct_latencies()
        .into_iter()
        .filter_map(|ell| {
            legacy_sweep_cut(g, ell, max_iterations, tolerance, seed)
                .map(|(phi, cut)| (ell, phi, cut))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Legacy reference 2: mask-rescan exact enumerator.
// ---------------------------------------------------------------------

/// The seed's `exact_conductance_profile`: `O(n + m)` full recount per
/// mask. Returns `(ℓ, φ_ℓ, witness)` triples.
fn rescan_exact_profile(g: &Graph) -> Vec<(Latency, f64, Vec<bool>)> {
    let n = g.node_count();
    let latencies = g.distinct_latencies();
    assert!(!latencies.is_empty(), "caller ensures edges exist");
    let edges: Vec<(usize, usize, usize)> = g
        .edges()
        .map(|(u, v, l)| {
            let li = latencies.binary_search(&l).expect("distinct latency");
            (u.index(), v.index(), li)
        })
        .collect();
    let degrees: Vec<u64> = g.nodes().map(|v| g.degree(v) as u64).collect();
    let total_vol: u64 = degrees.iter().sum();

    let num_l = latencies.len();
    let mut best = vec![(f64::INFINITY, 0u64); num_l];
    let limit: u64 = 1 << (n - 1);
    let mut cut_by_lat = vec![0u64; num_l];
    for mask in 1..limit {
        let mut vol_u = 0u64;
        for (i, &d) in degrees.iter().enumerate().take(n - 1) {
            if mask >> i & 1 == 1 {
                vol_u += d;
            }
        }
        let denom = vol_u.min(total_vol - vol_u);
        if denom == 0 {
            continue;
        }
        cut_by_lat.iter_mut().for_each(|c| *c = 0);
        for &(u, v, li) in &edges {
            let in_u = |x: usize| x < n - 1 && mask >> x & 1 == 1;
            if in_u(u) != in_u(v) {
                cut_by_lat[li] += 1;
            }
        }
        let mut cum = 0u64;
        for li in 0..num_l {
            cum += cut_by_lat[li];
            let phi = cum as f64 / denom as f64;
            if phi < best[li].0 {
                best[li] = (phi, mask);
            }
        }
    }
    latencies
        .into_iter()
        .enumerate()
        .map(|(li, ell)| {
            let (phi, mask) = best[li];
            let witness: Vec<bool> = (0..n).map(|i| i < n - 1 && mask >> i & 1 == 1).collect();
            (ell, if phi.is_finite() { phi } else { 0.0 }, witness)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Strategies.
// ---------------------------------------------------------------------

/// A connected graph with random latencies: a random-latency Hamiltonian
/// path as the connected backbone plus random extra edges.
fn connected_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (3..=max_n).prop_flat_map(|n| {
        let backbone = prop::collection::vec(1u32..12, (n - 1)..n);
        let extra = prop::collection::vec((0..n, 0..n, 1u32..12), 0..2 * n);
        (backbone, extra).prop_map(move |(bb, extra)| {
            let mut edges: Vec<(usize, usize, u32)> =
                bb.iter().enumerate().map(|(i, &l)| (i, i + 1, l)).collect();
            for (u, v, l) in extra {
                if u != v {
                    edges.push((u.min(v), u.max(v), l));
                }
            }
            edges.sort_unstable();
            edges.dedup_by_key(|&mut (u, v, _)| (u, v));
            Graph::from_edges(n, edges).expect("valid edge list")
        })
    })
}

// ---------------------------------------------------------------------
// The equivalence properties.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Pipeline vs per-ℓ-from-scratch: φ_ℓ at every threshold, the
    /// maximizing (φ*, ℓ*), and the witness cuts' conductances all agree
    /// to 1e-9.
    #[test]
    fn pipeline_matches_from_scratch_path(g in connected_graph(24), seed in 0u64..1000) {
        let cfg = ProfileConfig {
            thresholds: ThresholdSet::All,
            max_iterations: 20_000,
            seed,
            ..ProfileConfig::default()
        };
        let pipeline = estimate_profile(&g, &cfg);
        let legacy = legacy_profile(&g, cfg.max_iterations, cfg.tolerance, seed);
        prop_assert_eq!(pipeline.entries().len(), legacy.len());
        for (e, (ell, phi, cut)) in pipeline.entries().iter().zip(&legacy) {
            prop_assert_eq!(e.ell, *ell);
            prop_assert!(
                (e.phi - phi).abs() < 1e-9,
                "φ_{} mismatch: pipeline {} vs legacy {}", ell, e.phi, phi
            );
            // Both witnesses certify their reported value.
            let pc = conductance::cut_phi(&g, &e.witness, *ell).expect("proper cut");
            prop_assert!((pc - e.phi).abs() < 1e-9, "pipeline witness drifted");
            let lc = conductance::cut_phi(&g, cut, *ell).expect("proper cut");
            prop_assert!((lc - phi).abs() < 1e-9, "legacy witness drifted");
        }
        // Weighted conductance: same φ*, same ℓ*.
        let pw = pipeline.weighted_conductance();
        let lw = legacy
            .iter()
            .filter(|(_, phi, _)| *phi > 0.0)
            .max_by(|a, b| {
                let ra = a.1 / a.0.rounds() as f64;
                let rb = b.1 / b.0.rounds() as f64;
                ra.partial_cmp(&rb).expect("finite ratios")
            });
        match (pw, lw) {
            (Some(p), Some((ell, phi, _))) => {
                prop_assert_eq!(p.critical_latency, *ell);
                prop_assert!((p.phi_star - phi).abs() < 1e-9);
            }
            (None, None) => {}
            other => prop_assert!(false, "φ* presence mismatch: {:?}", other),
        }
    }

    /// Gray-code enumerator vs mask rescan: identical to the last bit,
    /// witnesses included, on random ≤16-node graphs (connectivity not
    /// required — disconnected thresholds must agree too).
    #[test]
    fn gray_code_byte_equal_to_rescan(g in connected_graph(16)) {
        let new = conductance::exact_conductance_profile(&g).expect("has edges");
        let old = rescan_exact_profile(&g);
        prop_assert_eq!(new.entries().len(), old.len());
        for (e, (ell, phi, witness)) in new.entries().iter().zip(&old) {
            prop_assert_eq!(e.ell, *ell);
            prop_assert_eq!(e.phi.to_bits(), phi.to_bits(), "φ must be bit-identical");
            prop_assert_eq!(&e.witness, witness, "witness cut must be identical");
        }
    }
}

/// Byte-equality of the Gray-code enumerator on every fixed ≤16-node
/// fixture family used elsewhere in the repo.
#[test]
fn gray_code_byte_equal_on_fixture_families() {
    let fixtures: Vec<Graph> = vec![
        generators::clique(8),
        generators::cycle(16),
        generators::star(12),
        generators::path(9),
        generators::grid(3, 4),
        generators::barbell(5, 9),
        generators::ring_of_cliques(3, 4, 7),
        generators::balanced_binary_tree(15),
        generators::bimodal_latencies(&generators::clique(14), 1, 28, 0.3, 1),
        generators::uniform_random_latencies(
            &generators::connected_erdos_renyi(14, 0.3, 5).expect("connected sample"),
            1,
            9,
            5,
        ),
        generators::hub_penalty_latencies(&generators::star(10), 1, 2),
        Graph::from_edges(
            6,
            [
                (0, 1, 1),
                (1, 2, 1),
                (0, 2, 1),
                (3, 4, 1),
                (4, 5, 1),
                (3, 5, 1),
                (2, 3, 9),
            ],
        )
        .expect("valid"),
    ];
    for g in &fixtures {
        assert!(g.node_count() <= 16, "fixture too large for rescan");
        let new = conductance::exact_conductance_profile(g).expect("has edges");
        let old = rescan_exact_profile(g);
        assert_eq!(new.entries().len(), old.len());
        for (e, (ell, phi, witness)) in new.entries().iter().zip(&old) {
            assert_eq!(e.ell, *ell);
            assert_eq!(e.phi.to_bits(), phi.to_bits(), "n={}", g.node_count());
            assert_eq!(&e.witness, witness, "n={}", g.node_count());
        }
    }
}

/// The wrapper `estimate_weighted_conductance` is the pipeline at
/// `ThresholdSet::All`, so it must agree with the legacy path too.
#[test]
fn wrapper_matches_legacy_on_fixture() {
    let g = generators::uniform_random_latencies(
        &generators::connected_erdos_renyi(40, 0.15, 7).expect("connected sample"),
        1,
        10,
        7,
    );
    let wc = conductance::estimate_weighted_conductance(&g, 20_000, 11).expect("connected");
    let legacy = legacy_profile(&g, 20_000, 1e-12, 11);
    let (ell, phi, _) = legacy
        .iter()
        .filter(|(_, phi, _)| *phi > 0.0)
        .max_by(|a, b| {
            let ra = a.1 / a.0.rounds() as f64;
            let rb = b.1 / b.0.rounds() as f64;
            ra.partial_cmp(&rb).expect("finite ratios")
        })
        .expect("connected");
    assert_eq!(wc.critical_latency, *ell);
    assert!((wc.phi_star - phi).abs() < 1e-9);
}

//! Weight-`ℓ` conductance, the conductance profile `Φ(G)`, weighted
//! conductance `φ*`, and critical latency `ℓ*` (paper, Section 2).
//!
//! For a node set `U` and integer `ℓ`, the paper defines (Definition 1)
//!
//! ```text
//! φ_ℓ(U) = |E_ℓ(U, V∖U)| / min{Vol(U), Vol(V∖U)}
//! ```
//!
//! where `E_ℓ` keeps only cut edges of latency `≤ ℓ` and `Vol` counts
//! *all* edge endpoints (any latency). `φ_ℓ(G)` is the minimum over all
//! cuts; the profile is `Φ(G) = {φ_1, …, φ_ℓmax}`; and (Definition 2) the
//! **weighted conductance** `φ*` is the `φ_ℓ` maximizing `φ_ℓ/ℓ`, with
//! `ℓ*` the maximizing latency. If all edges have latency 1, `φ*` is the
//! classical conductance.
//!
//! Exact computation enumerates all cuts and is exponential, so it is
//! restricted to small graphs ([`MAX_EXACT_NODES`]); for larger graphs use
//! [`sweep_cut_estimate`], a spectral sweep-cut heuristic that returns a
//! certified *upper bound* (it exhibits a concrete cut).

use crate::error::GraphError;
use crate::graph::Graph;
use crate::ids::Latency;
use crate::profile;

/// Largest graph (in nodes) for which exact cut enumeration is attempted.
pub const MAX_EXACT_NODES: usize = 22;

/// The weight-`ℓ` conductance of a specific cut `U` (Definition 1).
///
/// `members` is an indicator slice of length `n` marking `U`.
///
/// Returns `None` when the conductance is undefined, i.e. `U` or its
/// complement has volume 0 (this cannot happen on a connected graph with
/// nonempty proper `U`).
///
/// # Panics
///
/// Panics if `members.len() != n`.
///
/// # Example
///
/// ```
/// use latency_graph::{Graph, Latency, conductance};
///
/// # fn main() -> Result<(), latency_graph::GraphError> {
/// // Two triangles joined by one slow edge.
/// let g = Graph::from_edges(6, [
///     (0, 1, 1), (1, 2, 1), (0, 2, 1),
///     (3, 4, 1), (4, 5, 1), (3, 5, 1),
///     (2, 3, 10),
/// ])?;
/// let left = [true, true, true, false, false, false];
/// // At ℓ = 1 the bridge does not count: φ_1(U) = 0.
/// assert_eq!(conductance::cut_phi(&g, &left, Latency::new(1)), Some(0.0));
/// // At ℓ = 10 it does: φ_10(U) = 1/7.
/// assert_eq!(conductance::cut_phi(&g, &left, Latency::new(10)), Some(1.0 / 7.0));
/// # Ok(())
/// # }
/// ```
pub fn cut_phi(g: &Graph, members: &[bool], ell: Latency) -> Option<f64> {
    assert_eq!(
        members.len(),
        g.node_count(),
        "indicator length must equal node count"
    );
    let vol_u = g.volume(members);
    let total: u64 = 2 * g.edge_count() as u64;
    let vol_comp = total - vol_u;
    let denom = vol_u.min(vol_comp);
    if denom == 0 {
        return None;
    }
    let cut = g
        .edges()
        .filter(|&(u, v, l)| l <= ell && members[u.index()] != members[v.index()])
        .count() as u64;
    Some(cut as f64 / denom as f64)
}

/// A value of the conductance profile: `φ_ℓ` together with the cut
/// that attains it.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileEntry {
    /// The latency threshold `ℓ`.
    pub ell: Latency,
    /// `φ_ℓ(witness)`: from [`exact_conductance_profile`] the graph
    /// conductance `φ_ℓ(G) = min_U φ_ℓ(U)`; from the sweep-cut
    /// estimators an upper bound on it.
    pub phi: f64,
    /// An indicator (length `n`) of the cut `U` attaining `phi`.
    pub witness: Vec<bool>,
    /// Power-iteration steps spent on this threshold (0 for exact
    /// enumeration; with warm starts the pipeline's count drops sharply
    /// after the first threshold).
    pub iterations: usize,
}

/// The conductance profile `Φ(G)`, sorted by latency: at every distinct
/// latency of the graph (the only points where it can change) when
/// exact or estimated at [`profile::ThresholdSet::All`], at the
/// selected thresholds otherwise.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ConductanceProfile {
    entries: Vec<ProfileEntry>,
}

/// The weighted conductance `φ*` and critical latency `ℓ*` of
/// Definition 2.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeightedConductance {
    /// `φ* = φ_{ℓ*}(G)`.
    pub phi_star: f64,
    /// The critical latency `ℓ*` maximizing `φ_ℓ/ℓ`.
    pub critical_latency: Latency,
}

impl WeightedConductance {
    /// The objective `φ*/ℓ*` that `ℓ*` maximizes. The push-pull bound of
    /// Theorem 12 is `O(log n / (φ*/ℓ*))`.
    pub fn ratio(&self) -> f64 {
        self.phi_star / self.critical_latency.rounds() as f64
    }
}

impl ConductanceProfile {
    /// Creates a profile from its entries.
    ///
    /// # Panics
    ///
    /// Panics if entries are not strictly increasing in `ℓ`.
    pub fn from_entries(entries: Vec<ProfileEntry>) -> ConductanceProfile {
        for w in entries.windows(2) {
            assert!(
                w[0].ell < w[1].ell,
                "profile entries must be sorted by latency"
            );
        }
        ConductanceProfile { entries }
    }

    /// The profile entries, sorted by latency.
    pub fn entries(&self) -> &[ProfileEntry] {
        &self.entries
    }

    /// `φ_ℓ(G)` for an arbitrary `ℓ`: the value at the largest recorded
    /// latency `≤ ℓ` (0 below the smallest).
    pub fn phi_at(&self, ell: Latency) -> f64 {
        let mut phi = 0.0;
        for e in &self.entries {
            if e.ell <= ell {
                phi = e.phi;
            } else {
                break;
            }
        }
        phi
    }

    /// The weighted conductance `φ*` and critical latency `ℓ*`
    /// (Definition 2): the entry maximizing `φ_ℓ/ℓ`. For an estimated
    /// profile, `φ*` is the conductance of an exhibited cut.
    ///
    /// Returns `None` if the profile is empty or every `φ_ℓ` is 0 (the
    /// graph is disconnected at every latency).
    pub fn weighted_conductance(&self) -> Option<WeightedConductance> {
        self.entries
            .iter()
            .filter(|e| e.phi > 0.0)
            .max_by(|a, b| {
                let ra = a.phi / a.ell.rounds() as f64;
                let rb = b.phi / b.ell.rounds() as f64;
                ra.partial_cmp(&rb).expect("conductance ratios are finite")
            })
            .map(|e| WeightedConductance {
                phi_star: e.phi,
                critical_latency: e.ell,
            })
    }
}

/// Exact `φ_ℓ(G)` for every distinct latency `ℓ` of the graph, by full
/// cut enumeration in **Gray-code order**: consecutive subsets differ by
/// one flipped node, so `Vol(U)` and the per-latency cut counts are
/// updated in `O(deg(flipped node))` instead of being recomputed in
/// `O(n + m)` per subset. Ties in `φ_ℓ` are broken toward the
/// numerically smallest subset mask, which makes the result (witnesses
/// included) identical to a naive ascending-mask rescan.
///
/// # Errors
///
/// * [`GraphError::TooLarge`] if `n > MAX_EXACT_NODES`.
/// * [`GraphError::Empty`] if the graph has no edges (no profile).
pub fn exact_conductance_profile(g: &Graph) -> Result<ConductanceProfile, GraphError> {
    let n = g.node_count();
    if n > MAX_EXACT_NODES {
        return Err(GraphError::TooLarge {
            nodes: n,
            max: MAX_EXACT_NODES,
        });
    }
    let latencies = g.distinct_latencies();
    if latencies.is_empty() {
        return Err(GraphError::Empty);
    }
    // Flat adjacency with latency *indices* (position in the sorted
    // distinct-latency list) for O(deg) incremental cut maintenance.
    let adj: Vec<Vec<(usize, usize)>> = g
        .nodes()
        .map(|v| {
            g.neighbor_ids(v)
                .iter()
                .zip(g.neighbor_latencies(v))
                .map(|(&w, &l)| {
                    let li = latencies
                        .binary_search(&l)
                        .expect("edge latency occurs in distinct_latencies");
                    (w.index(), li)
                })
                .collect()
        })
        .collect();
    let degrees: Vec<u64> = g.nodes().map(|v| g.degree(v) as u64).collect();
    let total_vol: u64 = degrees.iter().sum();

    let num_l = latencies.len();
    let mut best = vec![(f64::INFINITY, 0u64); num_l]; // (phi, subset mask)

    // Fix node n-1 outside U: every cut {U, V∖U} is enumerated once.
    // Walk the binary-reflected Gray code gray(i) = i ^ (i >> 1): step i
    // flips exactly bit trailing_zeros(i), and i ∈ 1..2^(n-1) visits
    // every nonempty subset of {0..n-2} exactly once.
    let limit: u64 = 1 << (n - 1);
    let mut in_u = vec![false; n];
    let mut cut_by_lat = vec![0i64; num_l];
    let mut vol_u = 0u64;
    for i in 1..limit {
        let flipped = i.trailing_zeros() as usize;
        let entering = !in_u[flipped];
        in_u[flipped] = entering;
        // Each incident edge (flipped, w) toggles its cut status: an
        // entering node cuts edges to outside-U neighbors and heals
        // edges to inside-U neighbors; a leaving node does the reverse.
        if entering {
            vol_u += degrees[flipped];
            for &(w, li) in &adj[flipped] {
                cut_by_lat[li] += if in_u[w] { -1 } else { 1 };
            }
        } else {
            vol_u -= degrees[flipped];
            for &(w, li) in &adj[flipped] {
                cut_by_lat[li] += if in_u[w] { 1 } else { -1 };
            }
        }
        let denom = vol_u.min(total_vol - vol_u);
        if denom == 0 {
            continue;
        }
        let mask = i ^ (i >> 1);
        let mut cum = 0i64;
        for li in 0..num_l {
            cum += cut_by_lat[li];
            debug_assert!(cum >= 0, "cut counts stay non-negative");
            let phi = cum as f64 / denom as f64;
            let (bphi, bmask) = best[li];
            if phi < bphi || (phi == bphi && mask < bmask) {
                best[li] = (phi, mask);
            }
        }
    }

    let entries = latencies
        .into_iter()
        .enumerate()
        .map(|(li, ell)| {
            let (phi, mask) = best[li];
            let witness: Vec<bool> = (0..n).map(|i| i < n - 1 && mask >> i & 1 == 1).collect();
            ProfileEntry {
                ell,
                phi: if phi.is_finite() { phi } else { 0.0 },
                witness,
                iterations: 0,
            }
        })
        .collect();
    Ok(ConductanceProfile::from_entries(entries))
}

/// Exact weighted conductance `(φ*, ℓ*)` by cut enumeration.
///
/// # Errors
///
/// Same as [`exact_conductance_profile`]; additionally returns
/// [`GraphError::Disconnected`] if every `φ_ℓ` is 0.
pub fn exact_weighted_conductance(g: &Graph) -> Result<WeightedConductance, GraphError> {
    exact_conductance_profile(g)?
        .weighted_conductance()
        .ok_or(GraphError::Disconnected)
}

/// Estimates `φ_ℓ(G)` from above with a spectral sweep cut.
///
/// Runs power iteration for the second eigenvector of the lazy random
/// walk on the strongly edge-induced graph `G_ℓ` (the walk that moves
/// along a uniformly random incident edge of latency `≤ ℓ` and otherwise
/// stays put — exactly the multiplicity graph of Theorem 12, eq. 3),
/// sorts nodes by the eigenvector, and takes the best prefix cut. It is
/// the first threshold of [`profile::estimate_profile`]'s step
/// (latency-sorted CSR, residual-based early stop at
/// [`profile::DEFAULT_TOLERANCE`], seeded start vector), with
/// `iterations` as the step cap.
///
/// The entry's `phi` is a guaranteed **upper bound** on `φ_ℓ(G)` (it
/// is the conductance of the exhibited `witness`); by Cheeger's
/// inequality it is within a quadratic factor of optimal in the usual
/// case.
///
/// Returns `None` for graphs with no edge of latency `≤ ℓ` or fewer than
/// 2 nodes.
pub fn sweep_cut_estimate(
    g: &Graph,
    ell: Latency,
    iterations: usize,
    seed: u64,
) -> Option<ProfileEntry> {
    profile::threshold_steps(g, &[ell], iterations, profile::DEFAULT_TOLERANCE, seed)
        .pop()?
        .1
}

/// Estimated weighted conductance for large graphs: the incremental
/// multi-threshold pipeline ([`profile::estimate_profile`]) at
/// [`profile::ThresholdSet::All`], maximizing `φ_ℓ/ℓ` over the
/// resulting profile.
///
/// Because each `φ_ℓ` is an upper bound attained by a real cut, the
/// reported `φ*` estimate is a genuine `φ_ℓ(U)` value; treat it as an
/// approximation of Definition 2, suitable for the experiment harness.
/// `iterations` caps the power-iteration steps per threshold; the warm
/// start usually converges far sooner.
pub fn estimate_weighted_conductance(
    g: &Graph,
    iterations: usize,
    seed: u64,
) -> Option<WeightedConductance> {
    profile::estimate_profile(
        g,
        &profile::ProfileConfig {
            thresholds: profile::ThresholdSet::All,
            max_iterations: iterations,
            tolerance: profile::DEFAULT_TOLERANCE,
            seed,
        },
    )
    .weighted_conductance()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn clique_conductance_is_half() {
        // K4: any cut of one node has φ = 3/3 = 1; balanced cut 4/6 = 2/3;
        // minimum is 2/3... classical conductance of K_n is n/(2(n-1)).
        let g = generators::clique(4);
        let p = exact_conductance_profile(&g).unwrap();
        let phi1 = p.phi_at(Latency::new(1));
        assert!((phi1 - 2.0 / 3.0).abs() < 1e-9, "phi1 = {phi1}");
    }

    #[test]
    fn dumbbell_conductance() {
        // Two triangles + unit bridge: min cut = bridge, vol(side) = 7.
        let g = Graph::from_edges(
            6,
            [
                (0, 1, 1),
                (1, 2, 1),
                (0, 2, 1),
                (3, 4, 1),
                (4, 5, 1),
                (3, 5, 1),
                (2, 3, 1),
            ],
        )
        .unwrap();
        let p = exact_conductance_profile(&g).unwrap();
        assert!((p.phi_at(Latency::new(1)) - 1.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn profile_monotone_in_latency() {
        let g = Graph::from_edges(
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
        .unwrap();
        let p = exact_conductance_profile(&g).unwrap();
        let phis: Vec<f64> = p.entries().iter().map(|e| e.phi).collect();
        assert_eq!(phis.len(), 2);
        assert!(phis[0] <= phis[1]);
        assert_eq!(phis[0], 0.0); // bridge is slow: disconnected at ℓ=1
    }

    #[test]
    fn weighted_conductance_picks_best_ratio() {
        // Bridge latency 9: φ_1 = 0, φ_9 = 1/7. Only ℓ=9 has φ > 0.
        let g = Graph::from_edges(
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
        .unwrap();
        let wc = exact_weighted_conductance(&g).unwrap();
        assert_eq!(wc.critical_latency, Latency::new(9));
        assert!((wc.phi_star - 1.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn unit_latency_weighted_equals_classical() {
        // Paper, Section 2: if all edges have latency 1, φ* is the
        // classical conductance.
        let g = generators::cycle(8);
        let wc = exact_weighted_conductance(&g).unwrap();
        assert_eq!(wc.critical_latency, Latency::UNIT);
        // Cycle C8: balanced cut has 2 cut edges, volume 8 ⇒ φ = 1/4.
        assert!((wc.phi_star - 0.25).abs() < 1e-9);
    }

    #[test]
    fn critical_latency_prefers_fast_edges_when_dense_enough() {
        // Clique at latency 1 on 4 nodes plus a slow matching cannot
        // improve φ_ℓ/ℓ at the higher latency.
        let mut b = crate::GraphBuilder::new(8);
        for u in 0..4 {
            for v in (u + 1)..4 {
                b.add_edge(u, v, 1).unwrap();
            }
        }
        for u in 4..8 {
            for v in (u + 1)..8 {
                b.add_edge(u, v, 1).unwrap();
            }
        }
        for u in 0..4 {
            b.add_edge(u, u + 4, 20).unwrap();
        }
        let g = b.build().unwrap();
        let wc = exact_weighted_conductance(&g).unwrap();
        assert_eq!(wc.critical_latency, Latency::new(20));
        // φ_1 = 0 (two components at ℓ=1) so ℓ* must be 20.
    }

    #[test]
    fn cut_phi_rejects_trivial_cuts() {
        let g = generators::clique(4);
        assert_eq!(cut_phi(&g, &[false; 4], Latency::UNIT), None);
        assert_eq!(cut_phi(&g, &[true; 4], Latency::UNIT), None);
    }

    #[test]
    fn too_large_is_reported() {
        let g = generators::cycle(MAX_EXACT_NODES + 1);
        assert!(matches!(
            exact_conductance_profile(&g),
            Err(GraphError::TooLarge { .. })
        ));
    }

    #[test]
    fn sweep_cut_finds_dumbbell_bottleneck() {
        // Two cliques of 8 joined by a single edge: sweep cut should find
        // (or beat) the bridge cut φ = 1/57 ≈ 0.0175.
        let mut b = crate::GraphBuilder::new(16);
        for base in [0usize, 8] {
            for u in base..base + 8 {
                for v in (u + 1)..base + 8 {
                    b.add_edge(u, v, 1).unwrap();
                }
            }
        }
        b.add_edge(7, 8, 1).unwrap();
        let g = b.build().unwrap();
        let est = sweep_cut_estimate(&g, Latency::UNIT, 200, 42).unwrap();
        assert!(est.phi <= 1.0 / 57.0 + 1e-9, "estimate {}", est.phi);
        let exact = exact_conductance_profile(&g).unwrap().phi_at(Latency::UNIT);
        assert!(est.phi >= exact - 1e-12);
    }

    #[test]
    fn sweep_none_when_no_fast_edges() {
        let g = Graph::from_edges(3, [(0, 1, 5), (1, 2, 5)]).unwrap();
        assert!(sweep_cut_estimate(&g, Latency::new(2), 50, 1).is_none());
    }

    #[test]
    fn estimate_weighted_matches_exact_on_small_graph() {
        let g = Graph::from_edges(
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
        .unwrap();
        let exact = exact_weighted_conductance(&g).unwrap();
        let est = estimate_weighted_conductance(&g, 300, 7).unwrap();
        assert_eq!(est.critical_latency, exact.critical_latency);
        assert!(est.phi_star >= exact.phi_star - 1e-12);
    }

    #[test]
    fn profile_phi_at_interpolates_flat() {
        let g = Graph::from_edges(
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
        .unwrap();
        let p = exact_conductance_profile(&g).unwrap();
        assert_eq!(p.phi_at(Latency::new(5)), p.phi_at(Latency::new(1)));
        assert_eq!(p.phi_at(Latency::new(100)), p.phi_at(Latency::new(9)));
    }
}

//! Incremental multi-threshold conductance pipeline.
//!
//! The paper's central quantity, the weighted conductance
//! `φ* = max_ℓ φ_ℓ/ℓ` (Definition 2), requires `φ_ℓ` at **every**
//! distinct latency `ℓ` of the graph. Estimating each `φ_ℓ`
//! independently — a fresh power iteration over all `m` edges per
//! threshold — costs `O(L · iters · m)` and dominates every
//! conductance-parameterized experiment. This module replaces that with
//! a single ascending-`ℓ` sweep built from three ingredients:
//!
//! 1. **Latency-sorted CSR** ([`LatencyCsr`]): a one-time re-ordering of
//!    each node's adjacency by edge latency, so the edge set `E_ℓ` of
//!    any threshold is a contiguous **prefix** of each node's slice. The
//!    lazy-walk step for `G_ℓ` touches exactly `Vol(E_ℓ)` entries
//!    instead of filtering all `2m`.
//! 2. **Warm-started, convergence-stopped power iteration**
//!    ([`SpectralWorkspace`]): thresholds are visited in ascending
//!    order, and each threshold's iteration starts from the previous
//!    threshold's converged eigenvector. Adjacent `G_ℓ` walks differ
//!    only in the edges whose latency lies between the two thresholds,
//!    so the previous eigenvector is an excellent initializer and a
//!    residual-based stop usually fires after a handful of iterations.
//!    All buffers (`x`, `y`, sweep order, cut indicator) are reused
//!    across thresholds — zero steady-state allocation.
//! 3. **One threshold step** shared by
//!    [`crate::conductance::sweep_cut_estimate`],
//!    [`crate::spectral::spectral_gap`], and the pipeline itself: the
//!    same CSR, seeded start vector, power iteration and sweep, so a
//!    single-threshold call is bit-identical to the pipeline's first
//!    threshold. The cut results are
//!    [`crate::conductance::ProfileEntry`] values, exactly as exact
//!    enumeration's are, and the λ₂ result is [`PowerIteration`].
//!
//! [`ThresholdSet`] selects which latencies to evaluate: [`ThresholdSet::All`]
//! reproduces the full profile, [`ThresholdSet::Quantiles`] trades
//! resolution for speed on latency-rich graphs.
//!
//! # Example
//!
//! ```
//! use latency_graph::{generators, profile};
//!
//! let g = generators::bimodal_latencies(&generators::clique(24), 1, 16, 0.4, 7);
//! let sweep = profile::estimate_profile(&g, &profile::ProfileConfig::default());
//! let wc = sweep.weighted_conductance().unwrap();
//! assert!(wc.phi_star > 0.0);
//! ```

use crate::conductance::{ConductanceProfile, ProfileEntry};
use crate::graph::Graph;
use crate::ids::{Latency, NodeId};
use crate::splitmix64;

/// Default relative residual at which power iteration is considered
/// converged (see [`ProfileConfig::tolerance`]).
pub const DEFAULT_TOLERANCE: f64 = 1e-12;

/// Default cap on power-iteration steps per threshold.
pub const DEFAULT_MAX_ITERATIONS: usize = 300;

/// Which latency thresholds the pipeline evaluates.
///
/// The conductance profile `Φ(G)` can only change at latencies that
/// occur in the graph, so thresholds are always drawn from
/// [`Graph::distinct_latencies`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThresholdSet {
    /// Every distinct latency — the full profile (the default).
    All,
    /// `k` quantiles of the distinct-latency list (always including the
    /// largest latency, so the fully-connected threshold is covered).
    /// Falls back to [`ThresholdSet::All`] when the graph has at most
    /// `k` distinct latencies or `k == 0`.
    Quantiles(usize),
}

impl ThresholdSet {
    /// The ascending latency thresholds this policy selects for `g`.
    pub fn thresholds(&self, g: &Graph) -> Vec<Latency> {
        let all = g.distinct_latencies();
        match *self {
            ThresholdSet::All => all,
            ThresholdSet::Quantiles(k) => {
                if k == 0 || all.len() <= k {
                    return all;
                }
                let mut picked: Vec<Latency> =
                    (1..=k).map(|j| all[j * all.len() / k - 1]).collect();
                picked.dedup();
                picked
            }
        }
    }
}

/// Configuration for [`estimate_profile`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProfileConfig {
    /// Which thresholds to evaluate.
    pub thresholds: ThresholdSet,
    /// Upper bound on power-iteration steps per threshold. The warm
    /// start means later thresholds rarely come close to this cap.
    pub max_iterations: usize,
    /// Relative residual `‖Wx − λx‖_π / ‖Wx‖_π` below which the
    /// iteration stops early. `0.0` disables early stopping (the
    /// iteration always runs `max_iterations` steps).
    pub tolerance: f64,
    /// Seed for the deterministic start vector.
    pub seed: u64,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            thresholds: ThresholdSet::All,
            max_iterations: DEFAULT_MAX_ITERATIONS,
            tolerance: DEFAULT_TOLERANCE,
            seed: 0,
        }
    }
}

/// Per-node adjacency re-sorted by `(latency, neighbor id)`, with the
/// structure-of-arrays split of [`Graph`]'s CSR.
///
/// For any threshold `ℓ`, the incident edges of latency `≤ ℓ` form a
/// contiguous prefix of each node's slice; [`SpectralWorkspace`] tracks
/// the prefix lengths as cursors that only ever advance during an
/// ascending-`ℓ` sweep.
#[derive(Clone, Debug)]
pub struct LatencyCsr {
    offsets: Vec<usize>,
    ids: Vec<NodeId>,
    lats: Vec<Latency>,
    degrees: Vec<f64>,
    total_vol: f64,
}

impl LatencyCsr {
    /// Builds the latency-sorted CSR from a graph (one `O(m log Δ)`
    /// pass; everything afterwards is allocation-free).
    pub fn new(g: &Graph) -> LatencyCsr {
        let n = g.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut entries: Vec<(Latency, NodeId)> = Vec::with_capacity(2 * g.edge_count());
        for v in g.nodes() {
            let start = entries.len();
            entries.extend(
                g.neighbor_ids(v)
                    .iter()
                    .zip(g.neighbor_latencies(v))
                    .map(|(&w, &l)| (l, w)),
            );
            entries[start..].sort_unstable();
            offsets.push(entries.len());
        }
        let ids = entries.iter().map(|&(_, w)| w).collect();
        let lats = entries.iter().map(|&(l, _)| l).collect();
        let degrees: Vec<f64> = g.nodes().map(|v| g.degree(v) as f64).collect();
        let total_vol = degrees.iter().sum();
        LatencyCsr {
            offsets,
            ids,
            lats,
            degrees,
            total_vol,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The degree of node `u` as a float (walk arithmetic).
    #[inline]
    fn degree(&self, u: usize) -> f64 {
        self.degrees[u]
    }

    /// The ids of `u`'s `fast` lowest-latency neighbors.
    #[inline]
    fn prefix_ids(&self, u: usize, fast: usize) -> &[NodeId] {
        &self.ids[self.offsets[u]..self.offsets[u] + fast]
    }
}

/// Reusable buffers for the power-iteration + sweep-cut kernel.
///
/// Created once per graph and reused across thresholds (and across
/// calls): after warm-up no step of the pipeline allocates.
#[derive(Clone, Debug)]
pub struct SpectralWorkspace {
    /// Current iterate / converged eigenvector estimate.
    x: Vec<f64>,
    /// Scratch for the next iterate.
    y: Vec<f64>,
    /// Per-node count of adjacency-prefix edges with latency `≤` the
    /// current threshold (monotone cursors).
    fast: Vec<usize>,
    /// Sum of `fast` over all nodes (fast-edge volume).
    fast_vol: usize,
    /// The threshold the cursors currently reflect.
    current: Option<Latency>,
    /// Node order sorted by eigenvector value (sweep phase).
    order: Vec<usize>,
    /// Cut indicator scratch (sweep phase).
    members: Vec<bool>,
}

/// Outcome of one threshold's power iteration; its Cheeger bounds and
/// mixing scale are methods in [`crate::spectral`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerIteration {
    /// Rayleigh-quotient estimate of the lazy walk's second eigenvalue.
    pub lambda2: f64,
    /// Iterations actually performed: fewer than the cap when the
    /// residual-based early stop fired.
    pub iterations: usize,
}

impl SpectralWorkspace {
    /// Creates a workspace (with a seeded start vector) for `csr`.
    pub fn new(csr: &LatencyCsr, seed: u64) -> SpectralWorkspace {
        let n = csr.node_count();
        let mut x = vec![0.0f64; n];
        seeded_start(seed, &mut x);
        SpectralWorkspace {
            x,
            y: vec![0.0; n],
            fast: vec![0; n],
            fast_vol: 0,
            current: None,
            order: vec![0; n],
            members: vec![false; n],
        }
    }

    /// Advances the per-node prefix cursors to threshold `ell` and
    /// returns the fast-edge volume (`Σ_u deg^ℓ_u`).
    ///
    /// Thresholds must be visited in ascending order; cursors never
    /// rewind.
    ///
    /// # Panics
    ///
    /// Panics if `ell` is smaller than a previously advanced threshold.
    pub fn advance_threshold(&mut self, csr: &LatencyCsr, ell: Latency) -> usize {
        if let Some(prev) = self.current {
            assert!(
                ell >= prev,
                "thresholds must ascend: {ell} after {prev} rewinds the prefix cursors"
            );
        }
        self.current = Some(ell);
        for u in 0..csr.node_count() {
            let (start, end) = (csr.offsets[u], csr.offsets[u + 1]);
            let mut f = self.fast[u];
            while start + f < end && csr.lats[start + f] <= ell {
                f += 1;
            }
            self.fast_vol += f - self.fast[u];
            self.fast[u] = f;
        }
        self.fast_vol
    }

    /// The current eigenvector estimate (valid after
    /// [`SpectralWorkspace::power_iterate`]).
    pub fn eigenvector(&self) -> &[f64] {
        &self.x
    }

    /// Runs the lazy-walk power iteration at the current threshold
    /// until the relative residual drops below `tolerance` or
    /// `max_iterations` steps have been taken.
    ///
    /// The iterate starts from whatever [`SpectralWorkspace::eigenvector`]
    /// currently holds — the seeded start vector on the first call, the
    /// previous threshold's converged eigenvector afterwards (the warm
    /// start). A tiny seeded perturbation is mixed in on each call so
    /// that a warm start orthogonal to the new dominant eigenvector
    /// (possible on symmetric graphs) cannot trap the iteration.
    pub fn power_iterate(
        &mut self,
        csr: &LatencyCsr,
        max_iterations: usize,
        tolerance: f64,
        perturb_seed: u64,
    ) -> PowerIteration {
        let n = csr.node_count();
        debug_assert_eq!(self.x.len(), n);
        // Escape hatch for exactly-orthogonal warm starts: nudge by a
        // seeded vector scaled far below the convergence tolerance's
        // effect on the sweep, but far above the rounding floor.
        let scale = self.x.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        if scale > 0.0 {
            for (i, xi) in self.x.iter_mut().enumerate() {
                let h = splitmix64(perturb_seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                *xi += (h as f64 / u64::MAX as f64 - 0.5) * scale * 1e-6;
            }
        }
        let mut lambda2 = 0.0f64;
        let mut iterations = 0usize;
        let mut converged = false;
        for _ in 0..max_iterations.max(1) {
            iterations += 1;
            // Deflate the stationary direction (π_i ∝ deg_i).
            deflate(&mut self.x, &csr.degrees, csr.total_vol);
            // One lazy-walk step on G_ℓ.
            lazy_step(csr, &self.fast, &self.x, &mut self.y);
            // Rayleigh quotient in the degree inner product.
            let num: f64 = self
                .y
                .iter()
                .zip(&self.x)
                .zip(&csr.degrees)
                .map(|((&yi, &xi), &d)| yi * xi * d)
                .sum();
            let den: f64 = self
                .x
                .iter()
                .zip(&csr.degrees)
                .map(|(&xi, &d)| xi * xi * d)
                .sum();
            if den > 1e-300 {
                lambda2 = num / den;
            }
            // Relative residual ‖y − λ·x·(‖y‖/‖x‖-free scaling)‖: the
            // iterate x is not normalized, so compare y against λx
            // directly in the degree norm relative to ‖y‖_π.
            if tolerance > 0.0 && den > 1e-300 {
                let res2: f64 = self
                    .y
                    .iter()
                    .zip(&self.x)
                    .zip(&csr.degrees)
                    .map(|((&yi, &xi), &d)| {
                        let r = yi - lambda2 * xi;
                        r * r * d
                    })
                    .sum();
                let y2: f64 = self
                    .y
                    .iter()
                    .zip(&csr.degrees)
                    .map(|(&yi, &d)| yi * yi * d)
                    .sum();
                if y2 > 1e-300 && res2 <= tolerance * tolerance * y2 {
                    converged = true;
                }
            }
            // Normalize to unit length to avoid under/overflow and
            // adopt y as the next iterate.
            let norm = self.y.iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm < 1e-300 {
                break;
            }
            for v in &mut self.y {
                *v /= norm;
            }
            std::mem::swap(&mut self.x, &mut self.y);
            if converged {
                break;
            }
        }
        PowerIteration {
            lambda2: lambda2.clamp(0.0, 1.0),
            iterations,
        }
    }

    /// Sweeps prefix cuts of the eigenvector order at the current
    /// threshold and returns the best `(φ_ℓ(U), prefix_len)`; the
    /// witness is left in the workspace's members buffer (see
    /// [`SpectralWorkspace::witness`]).
    ///
    /// Returns `None` when every proper prefix has zero volume on one
    /// side (impossible for a graph with at least one edge).
    pub fn sweep_cut(&mut self, csr: &LatencyCsr) -> Option<f64> {
        let n = csr.node_count();
        if n < 2 {
            return None;
        }
        for (i, slot) in self.order.iter_mut().enumerate() {
            *slot = i;
        }
        let x = &self.x;
        self.order
            .sort_by(|&a, &b| x[a].partial_cmp(&x[b]).expect("finite eigenvector entries"));
        self.members.fill(false);
        let mut vol_u = 0.0f64;
        let mut cut_edges = 0i64;
        let mut best: Option<(f64, usize)> = None;
        for (prefix, &u) in self.order.iter().enumerate().take(n - 1) {
            self.members[u] = true;
            vol_u += csr.degree(u);
            for &w in csr.prefix_ids(u, self.fast[u]) {
                if self.members[w.index()] {
                    cut_edges -= 1;
                } else {
                    cut_edges += 1;
                }
            }
            let denom = vol_u.min(csr.total_vol - vol_u);
            if denom <= 0.0 {
                continue;
            }
            let phi = cut_edges as f64 / denom;
            if best.is_none_or(|(b, _)| phi < b) {
                best = Some((phi, prefix));
            }
        }
        let (phi, best_prefix) = best?;
        self.members.fill(false);
        for &u in self.order.iter().take(best_prefix + 1) {
            self.members[u] = true;
        }
        Some(phi)
    }

    /// The witness cut left by the last [`SpectralWorkspace::sweep_cut`].
    pub fn witness(&self) -> &[bool] {
        &self.members
    }
}

/// Runs the incremental multi-threshold pipeline: one latency-sorted
/// CSR build, then an ascending sweep over `cfg.thresholds` with
/// warm-started power iterations sharing a single workspace.
///
/// Each entry's `phi` is the conductance of its sweep-cut witness, an
/// upper bound on `φ_ℓ(G)`. Returns an empty profile for graphs with
/// fewer than 2 nodes or no edges.
pub fn estimate_profile(g: &Graph, cfg: &ProfileConfig) -> ConductanceProfile {
    let steps = threshold_steps(
        g,
        &cfg.thresholds.thresholds(g),
        cfg.max_iterations,
        cfg.tolerance,
        cfg.seed,
    );
    ConductanceProfile::from_entries(steps.into_iter().filter_map(|(_, e)| e).collect())
}

/// The one threshold step behind [`estimate_profile`],
/// [`crate::conductance::sweep_cut_estimate`] and
/// [`crate::spectral::spectral_gap`]: one latency-sorted CSR and one
/// seeded workspace, then for each ascending threshold
/// `advance_threshold`, a power iteration warm-started from the
/// previous threshold, and the sweep cut (`None` when no prefix is a
/// proper cut). A threshold with no edge of latency `≤ ℓ` is skipped;
/// a graph with fewer than 2 nodes yields nothing.
pub(crate) fn threshold_steps(
    g: &Graph,
    thresholds: &[Latency],
    max_iterations: usize,
    tolerance: f64,
    seed: u64,
) -> Vec<(PowerIteration, Option<ProfileEntry>)> {
    if g.node_count() < 2 || thresholds.is_empty() {
        return Vec::new();
    }
    let csr = LatencyCsr::new(g);
    let mut ws = SpectralWorkspace::new(&csr, seed);
    let mut steps = Vec::with_capacity(thresholds.len());
    for (ti, &ell) in thresholds.iter().enumerate() {
        if ws.advance_threshold(&csr, ell) == 0 {
            continue;
        }
        let perturb = seed ^ (ti as u64).wrapping_mul(0xD134_2543_DE82_EF95);
        let it = ws.power_iterate(&csr, max_iterations, tolerance, perturb);
        let entry = ws.sweep_cut(&csr).map(|phi| ProfileEntry {
            ell,
            phi,
            witness: ws.witness().to_vec(),
            iterations: it.iterations,
        });
        steps.push((it, entry));
    }
    steps
}

/// Fills `x` with the deterministic pseudo-random start vector derived
/// from `seed` — the single start-vector convention of every estimator
/// (they all start in [`threshold_steps`]).
fn seeded_start(seed: u64, x: &mut [f64]) {
    for (i, xi) in x.iter_mut().enumerate() {
        let h = splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        *xi = (h as f64 / u64::MAX as f64) - 0.5;
    }
}

/// Subtracts the degree-weighted mean: removes the component along the
/// lazy walk's stationary direction.
fn deflate(x: &mut [f64], degrees: &[f64], total_vol: f64) {
    let mean: f64 = x.iter().zip(degrees).map(|(&xi, &d)| xi * d).sum::<f64>() / total_vol;
    for xi in x {
        *xi -= mean;
    }
}

/// One step of the lazy random walk on `G_ℓ`:
/// `y_u = ½ x_u + ½ [ Σ_{(u,v)∈E_ℓ} x_v + (deg_u − deg^ℓ_u)·x_u ] / deg_u`
/// where the `E_ℓ` sum runs over the latency-sorted prefix only.
fn lazy_step(csr: &LatencyCsr, fast: &[usize], x: &[f64], y: &mut [f64]) {
    for (u, yu) in y.iter_mut().enumerate() {
        let deg = csr.degree(u);
        if deg == 0.0 {
            *yu = x[u];
            continue;
        }
        let mut acc = 0.0;
        for &w in csr.prefix_ids(u, fast[u]) {
            acc += x[w.index()];
        }
        let stay = (deg - fast[u] as f64) * x[u];
        *yu = 0.5 * x[u] + 0.5 * (acc + stay) / deg;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conductance;
    use crate::generators;

    #[test]
    fn threshold_set_all_is_distinct_latencies() {
        let g = generators::bimodal_latencies(&generators::clique(10), 1, 9, 0.5, 3);
        assert_eq!(ThresholdSet::All.thresholds(&g), g.distinct_latencies());
    }

    #[test]
    fn quantiles_subset_includes_max_and_ascends() {
        let g = generators::uniform_random_latencies(&generators::clique(24), 1, 40, 5);
        let all = g.distinct_latencies();
        for k in [1usize, 2, 3, 5, 8, 1000] {
            let q = ThresholdSet::Quantiles(k).thresholds(&g);
            assert!(!q.is_empty());
            assert_eq!(q.last(), all.last(), "max latency always covered (k={k})");
            for w in q.windows(2) {
                assert!(w[0] < w[1], "strictly ascending");
            }
            for l in &q {
                assert!(all.contains(l), "quantiles are actual latencies");
            }
            if k >= all.len() {
                assert_eq!(q, all, "k ≥ L degenerates to All");
            } else {
                assert!(q.len() <= k);
            }
        }
        assert_eq!(ThresholdSet::Quantiles(0).thresholds(&g), all);
    }

    #[test]
    fn csr_prefix_is_latency_sorted() {
        let g = generators::uniform_random_latencies(
            &generators::connected_erdos_renyi(20, 0.3, 3).expect("connected sample"),
            1,
            9,
            3,
        );
        let csr = LatencyCsr::new(&g);
        for u in 0..csr.node_count() {
            let (s, e) = (csr.offsets[u], csr.offsets[u + 1]);
            assert_eq!(e - s, g.degree(NodeId::new(u)));
            for w in csr.lats[s..e].windows(2) {
                assert!(w[0] <= w[1], "latency-sorted adjacency");
            }
        }
    }

    #[test]
    fn cursors_advance_to_full_volume() {
        let g = generators::uniform_random_latencies(
            &generators::connected_erdos_renyi(16, 0.4, 1).expect("connected sample"),
            1,
            6,
            1,
        );
        let csr = LatencyCsr::new(&g);
        let mut ws = SpectralWorkspace::new(&csr, 0);
        let mut last = 0;
        for ell in g.distinct_latencies() {
            let vol = ws.advance_threshold(&csr, ell);
            assert!(vol >= last);
            last = vol;
        }
        assert_eq!(last, 2 * g.edge_count(), "final prefix covers every edge");
    }

    #[test]
    #[should_panic(expected = "thresholds must ascend")]
    fn cursor_rewind_rejected() {
        let g = generators::bimodal_latencies(&generators::clique(6), 1, 9, 0.5, 2);
        let csr = LatencyCsr::new(&g);
        let mut ws = SpectralWorkspace::new(&csr, 0);
        ws.advance_threshold(&csr, Latency::new(9));
        ws.advance_threshold(&csr, Latency::new(1));
    }

    #[test]
    fn pipeline_entries_are_certified_upper_bounds() {
        let g = generators::bimodal_latencies(&generators::clique(14), 1, 28, 0.3, 1);
        let sweep = estimate_profile(&g, &ProfileConfig::default());
        let exact = conductance::exact_conductance_profile(&g).unwrap();
        assert_eq!(sweep.entries().len(), g.distinct_latencies().len());
        for e in sweep.entries() {
            // Witness consistency: the reported φ is the witness cut's φ.
            let certified = conductance::cut_phi(&g, &e.witness, e.ell).expect("proper cut");
            assert!((certified - e.phi).abs() < 1e-12);
            // Upper bound on the exact value.
            assert!(e.phi >= exact.phi_at(e.ell) - 1e-12);
        }
    }

    #[test]
    fn warm_start_converges_faster_than_cold() {
        // Isolate the warm start by re-running every threshold from a
        // cold seeded vector in a fresh workspace and comparing total
        // iteration counts at identical tolerance/cap. (Comparing the
        // first threshold against later ones would confound the start
        // vector with each G_ℓ's own eigenvalue gap.)
        let g = generators::uniform_random_latencies(
            &generators::connected_erdos_renyi(96, 0.08, 11).expect("connected sample"),
            1,
            32,
            11,
        );
        let cfg = ProfileConfig {
            max_iterations: 2000,
            ..ProfileConfig::default()
        };
        let sweep = estimate_profile(&g, &cfg);
        assert!(sweep.entries().len() >= 8);
        let warm_total: usize = sweep.entries().iter().map(|e| e.iterations).sum();

        let csr = LatencyCsr::new(&g);
        let mut cold_total = 0;
        for (ti, ell) in cfg.thresholds.thresholds(&g).into_iter().enumerate() {
            let mut ws = SpectralWorkspace::new(&csr, cfg.seed);
            if ws.advance_threshold(&csr, ell) == 0 {
                continue;
            }
            let perturb = cfg.seed ^ (ti as u64).wrapping_mul(0xD134_2543_DE82_EF95);
            cold_total += ws
                .power_iterate(&csr, cfg.max_iterations, cfg.tolerance, perturb)
                .iterations;
        }
        assert!(
            warm_total < cold_total,
            "warm-started sweep should need fewer total iterations \
             (warm = {warm_total}, cold = {cold_total})"
        );
    }

    #[test]
    fn pipeline_matches_estimator_wrapper() {
        let g = generators::uniform_random_latencies(
            &generators::connected_erdos_renyi(40, 0.15, 9).expect("connected sample"),
            1,
            8,
            9,
        );
        let via_pipeline = estimate_profile(
            &g,
            &ProfileConfig {
                max_iterations: 400,
                seed: 3,
                ..ProfileConfig::default()
            },
        )
        .weighted_conductance();
        let via_wrapper = conductance::estimate_weighted_conductance(&g, 400, 3);
        assert_eq!(via_pipeline, via_wrapper);
    }

    #[test]
    fn degenerate_graphs_give_empty_profile() {
        let single = Graph::from_edges(1, []).unwrap();
        assert!(estimate_profile(&single, &ProfileConfig::default())
            .entries()
            .is_empty());
        let edgeless = Graph::from_edges(3, []).unwrap();
        assert!(estimate_profile(&edgeless, &ProfileConfig::default())
            .entries()
            .is_empty());
    }

    #[test]
    fn quantile_pipeline_agrees_on_selected_thresholds() {
        let g = generators::uniform_random_latencies(
            &generators::connected_erdos_renyi(48, 0.15, 4).expect("connected sample"),
            1,
            24,
            4,
        );
        let full = estimate_profile(&g, &ProfileConfig::default());
        let q = estimate_profile(
            &g,
            &ProfileConfig {
                thresholds: ThresholdSet::Quantiles(4),
                ..ProfileConfig::default()
            },
        );
        assert!(q.entries().len() <= 4);
        // Each quantile threshold appears in the full profile with a
        // certified (possibly different-witness) upper bound; both are
        // genuine cut conductances at that ℓ.
        for e in q.entries() {
            let phi = conductance::cut_phi(&g, &e.witness, e.ell).expect("proper cut");
            assert!((phi - e.phi).abs() < 1e-12);
            assert!(full.entries().iter().any(|f| f.ell == e.ell));
        }
    }
}

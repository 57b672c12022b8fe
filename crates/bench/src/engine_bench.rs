//! The `bench-engine` mode of the experiments binary: a small,
//! self-timed throughput baseline for the simulation engine, emitted as
//! `BENCH_engine.json` so CI can archive engine performance next to the
//! criterion micro-benchmarks.
//!
//! The workload is the headline one from the engine rewrite: push-pull
//! all-to-all dissemination on a clique (every round costs `n`
//! initiations, `n` payload snapshots, and up to `n` deliveries), at
//! `n ∈ {256, 1024, 4096}`. Reported throughput is simulated
//! rounds per wall-clock second, aggregated over several seeds.

use std::fmt::Write as _;
use std::time::Instant;

use gossip_core::push_pull::{self, PushPullConfig};
use gossip_core::sparse::{self, SparseConfig, SparseOutcome};
use gossip_sim::{EngineMode, EngineStats};
use latency_graph::generators::layered_ring::{LayeredRing, LayeredRingSpec};
use latency_graph::{generators, Graph, NodeId};

/// Sizes the baseline covers.
pub const SIZES: [usize; 3] = [256, 1024, 4096];

/// One measured size.
#[derive(Clone, Copy, Debug)]
pub struct EnginePoint {
    /// Clique size `n`.
    pub n: usize,
    /// Seeds run (after one discarded warm-up).
    pub trials: u64,
    /// Total simulated rounds across all trials.
    pub rounds: u64,
    /// Total wall-clock seconds across all trials.
    pub secs: f64,
}

impl EnginePoint {
    /// Simulated rounds per wall-clock second.
    pub fn rounds_per_sec(&self) -> f64 {
        self.rounds as f64 / self.secs
    }
}

/// Runs push-pull all-to-all on an `n`-clique over `trials` seeds and
/// returns the aggregate measurement.
pub fn measure_clique(n: usize, trials: u64) -> EnginePoint {
    let g = generators::clique(n);
    let cfg = PushPullConfig::default();
    // Warm-up run (allocator, page faults) — not timed.
    let _ = push_pull::all_to_all(&g, &cfg, 0x5eed);
    let mut rounds = 0u64;
    let start = Instant::now();
    for t in 0..trials {
        let out = push_pull::all_to_all(&g, &cfg, 1 + t);
        assert!(out.completed(), "all-to-all must complete on a clique");
        rounds += out.rounds;
    }
    EnginePoint {
        n,
        trials,
        rounds,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// Sizes the `large_n` frontier-engine section covers.
pub const LARGE_SIZES: [usize; 2] = [65_536, 1_000_000];

/// Nodes per layer used for `large_n` layered rings
/// ([`layered_ring_exact`]). The construction's regular degree is
/// `3s − 1`, so per-round event work scales with the layer size, not
/// with `n`: thin layers are the regime where broadcast is a long
/// quiet wave down the ring — `Θ(k) = Θ(n/s)` rounds with `O(s)`
/// active nodes each — and the engine's idle-node elimination shows
/// up undiluted.
pub const LARGE_RING_LAYER: usize = 4;

/// Slow cross-edge latency of the `large_n` layered rings: the
/// `ℓ ≫ Δ` regime of the paper's `ℓ*`-dependent bounds. The wavefront
/// advances through each layer pair's one hidden fast edge while the
/// `Θ(s²)` slow flights per gadget land as stragglers ℓ rounds later —
/// long after their endpoints went idle — so almost all of the
/// timeline is near-empty event rounds, which the engine prices at
/// O(occupancy).
pub const LARGE_RING_ELL: u32 = 1024;

/// Peak resident-set size of this process so far, from
/// `/proc/self/status` `VmHWM`, in kB (0 where unavailable). A process
/// high-water mark: within one run, report it after each workload in
/// increasing-size order.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

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

/// One `large_n` measurement: a single frontier-engine broadcast run.
#[derive(Clone, Copy, Debug)]
pub struct LargePoint {
    /// Graph family: `"random-geometric"` or `"layered-ring"`.
    pub family: &'static str,
    /// Protocol: `"flood"` ([`sparse::flood_broadcast`]) or `"push"`
    /// ([`sparse::push_broadcast`]).
    pub protocol: &'static str,
    /// Node count.
    pub n: usize,
    /// Edge count.
    pub edges: usize,
    /// Simulated rounds to full dissemination.
    pub rounds: u64,
    /// Wall-clock seconds of the simulation (graph build excluded).
    pub secs: f64,
    /// Engine execution counters.
    pub stats: EngineStats,
    /// Process peak RSS (kB) observed after this run.
    pub peak_rss_kb: u64,
}

impl LargePoint {
    /// Simulated rounds per wall-clock second.
    pub fn rounds_per_sec(&self) -> f64 {
        self.rounds as f64 / self.secs
    }

    /// Mean frontier occupancy over event rounds, as a fraction of `n`
    /// — the engine's per-round cost relative to a dense sweep.
    pub fn mean_frontier_fraction(&self) -> f64 {
        if self.stats.event_rounds == 0 {
            return 0.0;
        }
        self.stats.stepped as f64 / (self.stats.event_rounds as f64 * self.n as f64)
    }
}

fn timed_broadcast(g: &Graph, protocol: &'static str, mode: EngineMode) -> (SparseOutcome, f64) {
    let cfg = SparseConfig {
        max_rounds: 100_000_000,
        mode,
        ..SparseConfig::default()
    };
    let start = Instant::now();
    let out = match protocol {
        "flood" => sparse::flood_broadcast(g, NodeId::new(0), &cfg, 0x5eed),
        "push" => sparse::push_broadcast(g, NodeId::new(0), &cfg, 0x5eed),
        other => panic!("unknown protocol {other}"),
    };
    let secs = start.elapsed().as_secs_f64();
    assert!(out.completed(), "{protocol} must disseminate fully");
    (out, secs)
}

/// Builds the named `large_n` graph.
pub fn large_graph(family: &'static str, n: usize) -> Graph {
    match family {
        "random-geometric" => connected_geometric(n, 18.0, 1),
        "layered-ring" => layered_ring_exact(n, LARGE_RING_LAYER, LARGE_RING_ELL, 1).graph,
        other => panic!("unknown family {other}"),
    }
}

/// Runs one `large_n` cell on the frontier engine.
pub fn measure_large(family: &'static str, protocol: &'static str, n: usize) -> LargePoint {
    let g = large_graph(family, n);
    let (out, secs) = timed_broadcast(&g, protocol, EngineMode::Frontier);
    LargePoint {
        family,
        protocol,
        n: g.node_count(),
        edges: g.edge_count(),
        rounds: out.rounds,
        secs,
        stats: out.stats,
        peak_rss_kb: peak_rss_kb(),
    }
}

/// Dense-vs-frontier comparison on one `large_n` cell: both modes run
/// the identical simulation (asserted) on the same frontier-stepping
/// kernel, the dense one visiting every round number instead of
/// skipping the event-free ones.
#[derive(Clone, Copy, Debug)]
pub struct ModeComparison {
    /// Graph family compared on.
    pub family: &'static str,
    /// Protocol compared with.
    pub protocol: &'static str,
    /// Node count.
    pub n: usize,
    /// Wall-clock seconds of the dense-mode run.
    pub dense_secs: f64,
    /// Wall-clock seconds of the frontier-mode run.
    pub frontier_secs: f64,
    /// Simulated rounds (identical across modes by construction).
    pub rounds: u64,
}

impl ModeComparison {
    /// Dense wall-clock over frontier wall-clock.
    pub fn speedup(&self) -> f64 {
        self.dense_secs / self.frontier_secs
    }
}

/// Times the same broadcast under both engine modes and checks the
/// outcomes are identical (rounds, metrics, and per-node rumor
/// fingerprints).
pub fn compare_modes(family: &'static str, protocol: &'static str, n: usize) -> ModeComparison {
    let g = large_graph(family, n);
    let (frontier, frontier_secs) = timed_broadcast(&g, protocol, EngineMode::Frontier);
    let (dense, dense_secs) = timed_broadcast(&g, protocol, EngineMode::Dense);
    assert_eq!(frontier.rounds, dense.rounds, "mode-dependent rounds");
    assert_eq!(frontier.metrics, dense.metrics, "mode-dependent metrics");
    let same_states = frontier
        .rumors
        .iter()
        .zip(&dense.rumors)
        .all(|(a, b)| a.fingerprint() == b.fingerprint());
    assert!(same_states, "mode-dependent node states");
    ModeComparison {
        family,
        protocol,
        n: g.node_count(),
        dense_secs,
        frontier_secs,
        rounds: frontier.rounds,
    }
}

/// The `large_n` grid: one-to-all flooding on both families at both
/// [`LARGE_SIZES`]; random push everywhere its cost is not
/// diameter-dominated. Push on the layered ring and on the 10⁶-node
/// geometric graph keeps every informed node awake for the whole
/// `Θ(D)`-round tail, so those cells are listed in the document's
/// `large_n_omitted` note instead of silently dropped.
pub const LARGE_CELLS: [(&str, &str, usize); 5] = [
    ("random-geometric", "flood", LARGE_SIZES[0]),
    ("random-geometric", "push", LARGE_SIZES[0]),
    ("layered-ring", "flood", LARGE_SIZES[0]),
    ("random-geometric", "flood", LARGE_SIZES[1]),
    ("layered-ring", "flood", LARGE_SIZES[1]),
];

/// Cells intentionally left out of [`LARGE_CELLS`], with the reason.
pub const LARGE_OMITTED: [(&str, &str, usize, &str); 3] = [
    (
        "layered-ring",
        "push",
        LARGE_SIZES[0],
        "push keeps all informed nodes awake across the ring's Θ(k·ℓ) diameter",
    ),
    (
        "layered-ring",
        "push",
        LARGE_SIZES[1],
        "push keeps all informed nodes awake across the ring's Θ(k·ℓ) diameter",
    ),
    (
        "random-geometric",
        "push",
        LARGE_SIZES[1],
        "Θ(n) awake nodes over the Θ(√n)-hop tail; flooding covers the 10⁶ point",
    ),
];

/// Runs the full baseline (`SIZES`, then the `large_n` frontier grid
/// and the dense-vs-frontier comparison) and renders the
/// `BENCH_engine.json` document.
pub fn run(trials: u64) -> String {
    let points: Vec<EnginePoint> = SIZES.iter().map(|&n| measure_clique(n, trials)).collect();
    let large: Vec<LargePoint> = LARGE_CELLS
        .iter()
        .map(|&(family, protocol, n)| measure_large(family, protocol, n))
        .collect();
    let comparison = compare_modes("layered-ring", "flood", LARGE_SIZES[0]);
    to_json(&points, &large, Some(&comparison))
}

/// CI smoke variant of the `large_n` section: one-to-all flooding at
/// `n = 65 536` on both graph families (frontier engine only — no dense
/// baseline, whose wall clock would dominate a smoke job), asserting
/// the process peak RSS stays under `rss_ceiling_kb`. Returns the
/// rendered rows; panics on an incomplete broadcast or an RSS breach,
/// failing the CI step.
pub fn run_large_smoke(rss_ceiling_kb: u64) -> String {
    let large: Vec<LargePoint> = [
        ("random-geometric", "flood", LARGE_SIZES[0]),
        ("layered-ring", "flood", LARGE_SIZES[0]),
    ]
    .iter()
    .map(|&(family, protocol, n)| measure_large(family, protocol, n))
    .collect();
    let peak = peak_rss_kb();
    assert!(
        peak > 0 && peak <= rss_ceiling_kb,
        "peak RSS {peak} kB exceeds the {rss_ceiling_kb} kB smoke ceiling"
    );
    to_json(&[], &large, None)
}

/// Renders measurements as a small, dependency-free JSON document.
/// `large` holds the frontier-engine `large_n` grid and `comparison`
/// the dense-vs-frontier timing.
pub fn to_json(
    points: &[EnginePoint],
    large: &[LargePoint],
    comparison: Option<&ModeComparison>,
) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"bench\": \"engine/push_pull_clique\",\n");
    s.push_str("  \"workload\": \"push-pull all-to-all on an n-clique\",\n");
    s.push_str("  \"unit\": \"simulated rounds per wall-clock second\",\n");
    s.push_str("  \"sizes\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"n\": {}, \"trials\": {}, \"total_rounds\": {}, \"total_secs\": {:.6}, \"rounds_per_sec\": {:.2}}}{}",
            p.n,
            p.trials,
            p.rounds,
            p.secs,
            p.rounds_per_sec(),
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n");
    s.push_str("  \"large_n\": [\n");
    for (i, p) in large.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"family\": \"{}\", \"protocol\": \"{}\", \"n\": {}, \"edges\": {}, \"rounds\": {}, \"secs\": {:.6}, \"rounds_per_sec\": {:.2}, \"stepped\": {}, \"woken\": {}, \"event_rounds\": {}, \"skipped_rounds\": {}, \"peak_frontier\": {}, \"mean_frontier_fraction\": {:.6}, \"peak_rss_kb\": {}}}{}",
            p.family,
            p.protocol,
            p.n,
            p.edges,
            p.rounds,
            p.secs,
            p.rounds_per_sec(),
            p.stats.stepped,
            p.stats.woken,
            p.stats.event_rounds,
            p.stats.skipped_rounds,
            p.stats.peak_frontier,
            p.mean_frontier_fraction(),
            p.peak_rss_kb,
            if i + 1 < large.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n");
    s.push_str("  \"large_n_omitted\": [\n");
    for (i, &(family, protocol, n, why)) in LARGE_OMITTED.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"family\": \"{family}\", \"protocol\": \"{protocol}\", \"n\": {n}, \"why\": \"{why}\"}}{}",
            if i + 1 < LARGE_OMITTED.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n");
    s.push_str("  \"mode_comparison\": ");
    match comparison {
        Some(c) => {
            let _ = writeln!(
                s,
                "{{\"family\": \"{}\", \"protocol\": \"{}\", \"n\": {}, \"rounds\": {}, \"dense_secs\": {:.6}, \"frontier_secs\": {:.6}, \"frontier_speedup\": {:.2}}}",
                c.family,
                c.protocol,
                c.n,
                c.rounds,
                c.dense_secs,
                c.frontier_secs,
                c.speedup()
            );
        }
        None => s.push_str("null\n"),
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_positive_throughput() {
        let p = measure_clique(64, 2);
        assert_eq!(p.n, 64);
        assert_eq!(p.trials, 2);
        assert!(p.rounds > 0);
        assert!(p.secs > 0.0);
        assert!(p.rounds_per_sec() > 0.0);
    }

    #[test]
    fn json_shape_is_stable() {
        let points = [
            EnginePoint {
                n: 256,
                trials: 3,
                rounds: 30,
                secs: 0.5,
            },
            EnginePoint {
                n: 1024,
                trials: 3,
                rounds: 36,
                secs: 2.0,
            },
        ];
        let large = [LargePoint {
            family: "layered-ring",
            protocol: "flood",
            n: 65_536,
            edges: 3_000_000,
            rounds: 50_000,
            secs: 0.5,
            stats: EngineStats {
                stepped: 6_000_000,
                woken: 5_000_000,
                event_rounds: 40_000,
                skipped_rounds: 10_000,
                peak_frontier: 96,
            },
            peak_rss_kb: 500_000,
        }];
        let cmp = ModeComparison {
            family: "layered-ring",
            protocol: "flood",
            n: 65_536,
            dense_secs: 10.0,
            frontier_secs: 0.5,
            rounds: 50_000,
        };
        let j = to_json(&points, &large, Some(&cmp));
        assert!(j.contains("\"bench\": \"engine/push_pull_clique\""));
        assert!(j.contains("\"n\": 256"));
        assert!(j.contains("\"rounds_per_sec\": 60.00"));
        assert!(j.contains("\"rounds_per_sec\": 18.00"));
        assert!(j.contains("\"large_n\""));
        assert!(j.contains("\"peak_frontier\": 96"));
        assert!(j.contains("\"peak_rss_kb\": 500000"));
        assert!(j.contains("\"large_n_omitted\""));
        assert!(j.contains("\"mode_comparison\""));
        assert!(j.contains("\"frontier_speedup\": 20.00"));
        assert!(!j.contains(",\n  ]"), "no trailing comma: {j}");
    }

    #[test]
    fn json_without_comparison_is_null() {
        let j = to_json(&[], &[], None);
        assert!(j.contains("\"mode_comparison\": null"));
    }

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

    #[test]
    fn measure_large_small_cell() {
        // Same code path as the real grid, at a toy size.
        let g = large_graph("layered-ring", 256);
        let (out, _) = timed_broadcast(&g, "flood", EngineMode::Frontier);
        assert!(out.completed());
        assert!(out.stats.peak_frontier > 0);
    }

    #[test]
    fn compare_modes_agree_on_small_ring() {
        let c = compare_modes("layered-ring", "flood", 256);
        assert_eq!(c.n, 256);
        assert!(c.rounds > 0);
        assert!(c.dense_secs > 0.0 && c.frontier_secs > 0.0);
    }
}

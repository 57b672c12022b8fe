//! E7 — spanner size, out-degree, and stretch (Lemma 13, Theorem 14).

use baswana_sen::{build_spanner, verify, SpannerConfig};
use latency_graph::generators;

use crate::table::{f, Table};

/// E7 — with `k = log n`, the spanner has `O(n log n)` edges, each node
/// `O(log n)` out-degree, and stretch `≤ 2k−1`; with an inflated size
/// estimate `n̂ = n²` (Lemma 13), the out-degree grows by only the
/// predicted `n̂^{1/k}` factor.
pub fn e7_spanner_properties() -> Table {
    let mut t = Table::new(
        "E7 — spanner properties (Lemma 13 / Theorem 14)",
        &[
            "n",
            "n̂",
            "k",
            "arcs",
            "arcs/(n·log n)",
            "Δout",
            "Δout/log n",
            "stretch",
            "2k−1",
        ],
    );
    for n in [64usize, 128, 256] {
        let p = (10.0 / n as f64).min(1.0);
        let base = generators::connected_erdos_renyi(n, p, 17).expect("connected sample");
        let g = generators::uniform_random_latencies(&base, 1, 8, 17);
        let k = (n as f64).log2().ceil() as usize;
        let log2n = (n as f64).log2();
        for n_hat in [n, n * n] {
            let r = build_spanner(
                &g,
                &SpannerConfig {
                    k,
                    size_estimate: Some(n_hat),
                    seed: 5,
                },
            );
            let und = r.spanner.to_undirected();
            let stretch = if n <= 128 {
                verify::max_stretch(&g, &und)
            } else {
                verify::sampled_max_stretch(&g, &und, 16, 9)
            };
            assert!(stretch <= (2 * k - 1) as f64 + 1e-9);
            t.row(vec![
                n.to_string(),
                if n_hat == n { "n".into() } else { "n²".into() },
                k.to_string(),
                r.spanner.arc_count().to_string(),
                f(r.spanner.arc_count() as f64 / (n as f64 * log2n)),
                r.max_out_degree().to_string(),
                f(r.max_out_degree() as f64 / log2n),
                f(stretch),
                (2 * k - 1).to_string(),
            ]);
        }
    }
    t.note("expectation: arcs/(n log n) and Δout/log n bounded; stretch ≤ 2k−1; n̂=n² inflates Δout mildly");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_bounds_hold() {
        let t = e7_spanner_properties();
        for r in &t.rows {
            let arcs_norm: f64 = r[4].parse().unwrap();
            let dout_norm: f64 = r[6].parse().unwrap();
            assert!(arcs_norm < 6.0, "size blowup: {r:?}");
            assert!(dout_norm < 8.0, "out-degree blowup: {r:?}");
        }
    }
}

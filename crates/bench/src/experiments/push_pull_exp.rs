//! E4, E14 — push-pull upper bound (Theorem 12) and the push-only
//! separation (footnote 2).

use gossip_core::push_pull::{self, Mode, PushPullConfig};
use latency_graph::profile::{estimate_profile, ProfileConfig};
use latency_graph::{conductance, generators, NodeId};

use crate::table::{f, Table};

/// E4 — Theorem 12: measured push-pull broadcast rounds stay within a
/// constant factor of `(ℓ*/φ*)·ln n` across graph families and latency
/// structures (exact `φ*` on small graphs, sweep-cut estimate on
/// larger).
pub fn e4_theorem12_bound() -> Table {
    let mut t = Table::new(
        "E4 — push-pull vs the O((ℓ*/φ*)·log n) bound (Theorem 12)",
        &[
            "family",
            "n",
            "φ*",
            "ℓ*",
            "bound",
            "measured",
            "measured/bound",
        ],
    );
    let families: Vec<(&str, latency_graph::Graph)> = vec![
        ("clique (unit)", generators::clique(64)),
        (
            "clique (bimodal 1/80, 20% fast)",
            generators::bimodal_latencies(&generators::clique(64), 1, 80, 0.2, 3),
        ),
        ("barbell bridge=12", generators::barbell(20, 12)),
        (
            "cycle (latencies 1..6)",
            generators::uniform_random_latencies(&generators::cycle(48), 1, 6, 1),
        ),
        (
            "ER(64, 0.15) latencies 1..10",
            generators::uniform_random_latencies(
                &generators::connected_erdos_renyi(64, 0.15, 7).expect("connected sample"),
                1,
                10,
                7,
            ),
        ),
        ("grid 8×8", generators::grid(8, 8)),
    ];
    for (name, g) in families {
        let n = g.node_count();
        let wc = if n <= conductance::MAX_EXACT_NODES {
            conductance::exact_weighted_conductance(&g).expect("connected")
        } else {
            estimate_profile(
                &g,
                &ProfileConfig {
                    max_iterations: 400,
                    seed: 11,
                    ..ProfileConfig::default()
                },
            )
            .weighted_conductance()
            .expect("connected")
        };
        let bound = wc.critical_latency.rounds() as f64 / wc.phi_star * (n as f64).ln();
        let (mean, ok) =
            push_pull::mean_broadcast_rounds(&g, NodeId::new(0), &PushPullConfig::default(), 13, 8);
        assert_eq!(ok, 8, "{name}");
        t.row(vec![
            name.into(),
            n.to_string(),
            f(wc.phi_star),
            wc.critical_latency.to_string(),
            f(bound),
            f(mean),
            f(mean / bound),
        ]);
    }
    t.note("expectation: measured/bound ≤ O(1) everywhere (the bound may be loose — ratios ≪ 1 are fine)");
    t
}

/// E14 — footnote 2: without pull, a star takes `Ω(n)` (the hub must
/// push to every leaf; coupon collection costs `n ln n`), while
/// push-pull finishes in `O(1)`–`O(log n)`.
pub fn e14_star_push_only() -> Table {
    let mut t = Table::new(
        "E14 — push-only vs push-pull on the star (footnote 2)",
        &[
            "n",
            "push-pull",
            "push-only",
            "push-only/(n ln n)",
            "separation",
        ],
    );
    for n in [16usize, 32, 64, 128] {
        let g = generators::star(n);
        let (pp, _) =
            push_pull::mean_broadcast_rounds(&g, NodeId::new(0), &PushPullConfig::default(), 1, 5);
        let (po, _) = push_pull::mean_broadcast_rounds(
            &g,
            NodeId::new(0),
            &PushPullConfig {
                mode: Mode::PushOnly,
                max_rounds: 10_000_000,
            },
            1,
            5,
        );
        let coupon = n as f64 * (n as f64).ln();
        t.row(vec![
            n.to_string(),
            f(pp),
            f(po),
            f(po / coupon),
            f(po / pp),
        ]);
    }
    t.note("expectation: push-only/(n ln n) ≈ constant (coupon collector); push-pull stays O(1)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e14_separation_grows() {
        let t = e14_star_push_only();
        let seps: Vec<f64> = t.rows.iter().map(|r| r[4].parse().unwrap()).collect();
        assert!(
            seps.last().unwrap() > seps.first().unwrap(),
            "separation must widen with n: {seps:?}"
        );
        assert!(*seps.last().unwrap() > 50.0);
        // Fitted exponent of push-only rounds vs n: n ln n looks like
        // slope ≈ 1.0–1.4 on a log–log fit over this range.
        let ns: Vec<f64> = t.rows.iter().map(|r| r[0].parse().unwrap()).collect();
        let po: Vec<f64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        let slope = crate::stats::loglog_slope(&ns, &po);
        assert!((0.8..=1.6).contains(&slope), "Ω(n) exponent: {slope}");
    }
}

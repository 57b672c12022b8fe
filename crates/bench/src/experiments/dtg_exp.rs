//! E5, E6 — DTG local broadcast scaling (Appendix C, Section 5.1).

use gossip_core::dtg;
use latency_graph::{generators, Latency};

use crate::table::{f, Table};

/// E5 — DTG solves local broadcast in `O(log² n)` rounds on unit
/// latency graphs; sweep `n` over three families and report
/// `rounds / log² n`.
pub fn e5_dtg_scaling() -> Table {
    let mut t = Table::new(
        "E5 — DTG local broadcast vs O(log² n) (Appendix C)",
        &["family", "n", "rounds", "log²n", "rounds/log²n"],
    );
    for n in [32usize, 64, 128, 256] {
        for (name, g) in [
            ("clique", generators::clique(n)),
            ("star", generators::star(n)),
            ("ER p=8/n", {
                let p = (8.0 / n as f64).min(1.0);
                generators::connected_erdos_renyi(n, p, 5).expect("connected sample")
            }),
        ] {
            let o = dtg::local_broadcast(&g, Latency::UNIT);
            assert!(o.complete, "{name} n={n}");
            let l2 = (n as f64).log2().powi(2);
            t.row(vec![
                name.into(),
                n.to_string(),
                o.rounds.to_string(),
                f(l2),
                f(o.rounds as f64 / l2),
            ]);
        }
    }
    t.note("expectation: rounds/log²n bounded (≤ O(1)); may shrink on dense graphs");
    t
}

/// E6 — `ℓ`-DTG costs `O(ℓ log² n)`: at fixed topology, rounds grow
/// linearly in the uniform latency `ℓ`.
pub fn e6_ell_scaling() -> Table {
    let mut t = Table::new(
        "E6 — ℓ-DTG linear scaling in ℓ (Section 5.1)",
        &["topology", "ℓ", "rounds", "rounds/ℓ"],
    );
    for (name, base) in [
        ("cycle(48)", generators::cycle(48)),
        ("grid 6×8", generators::grid(6, 8)),
    ] {
        for ell in [1u32, 2, 4, 8, 16] {
            let g = base.map_latencies(|_, _, _| Latency::new(ell));
            let o = dtg::local_broadcast(&g, Latency::new(ell));
            assert!(o.complete);
            t.row(vec![
                name.into(),
                ell.to_string(),
                o.rounds.to_string(),
                f(o.rounds as f64 / ell as f64),
            ]);
        }
    }
    t.note("expectation: rounds/ℓ ≈ constant per topology");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6_linear_in_ell() {
        let t = e6_ell_scaling();
        let cycle_ratios: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| r[0] == "cycle(48)")
            .map(|r| r[3].parse().unwrap())
            .collect();
        let max = cycle_ratios.iter().copied().fold(0.0, f64::max);
        let min = cycle_ratios.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            max / min < 2.5,
            "rounds/ℓ must be near-constant: {cycle_ratios:?}"
        );
    }
}

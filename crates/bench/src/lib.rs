#![forbid(unsafe_code)]

//! Experiment harness for the *Gossiping with Latencies* reproduction.
//!
//! The paper is a theory paper: it has no measurement tables of its
//! own, so "reproducing the evaluation" means **empirically validating
//! every theorem, lemma, and construction**. Each experiment `E1…E24`
//! (indexed in `DESIGN.md` and recorded in `EXPERIMENTS.md`) regenerates
//! one result as a table:
//!
//! ```sh
//! cargo run --release -p gossip-bench --bin experiments -- all
//! cargo run --release -p gossip-bench --bin experiments -- e3 e12
//! ```
//!
//! Criterion micro-benchmarks for the underlying machinery live in
//! `benches/`.

pub mod experiments;
pub mod graphs;
pub mod parallel;
pub mod stats;
pub mod table;

pub use table::Table;

/// One registry entry: `(id, paper anchor, runner)`.
pub type ExperimentEntry = (&'static str, &'static str, fn() -> Table);

/// The experiment registry.
pub fn registry() -> Vec<ExperimentEntry> {
    use experiments::*;
    vec![
        (
            "e1",
            "Lemma 4 + Theorem 6 (Ω(Δ) via singleton gadget)",
            lower_bounds::e1_delta_lower_bound as fn() -> Table,
        ),
        (
            "e2",
            "Lemma 5 + Theorem 7 (Ω(1/φ), Ω(log n/φ) via Random_p gadget)",
            lower_bounds::e2_conductance_lower_bound,
        ),
        (
            "e3",
            "Theorem 8 (min(Δ+D, ℓ/φ) trade-off on the layered ring)",
            ring::e3_tradeoff,
        ),
        (
            "e4",
            "Theorem 12 (push-pull ≤ O((ℓ*/φ*) log n))",
            push_pull_exp::e4_theorem12_bound,
        ),
        (
            "e5",
            "DTG local broadcast O(log² n) (Appendix C)",
            dtg_exp::e5_dtg_scaling,
        ),
        (
            "e6",
            "ℓ-DTG linear in ℓ (Section 5.1)",
            dtg_exp::e6_ell_scaling,
        ),
        (
            "e7",
            "Lemma 13 + Theorem 14 (spanner size/out-degree/stretch)",
            spanner_exp::e7_spanner_properties,
        ),
        (
            "e8",
            "Lemma 17 / Corollary 16 (EID = O(D log³ n))",
            eid_exp::e8_eid_scaling,
        ),
        (
            "e9",
            "Lemma 18 + Theorem 19 (guess-and-double, termination)",
            eid_exp::e9_guess_and_double,
        ),
        (
            "e10",
            "Lemmas 24–26 (Path Discovery vs EID)",
            eid_exp::e10_path_discovery,
        ),
        (
            "e11",
            "Theorem 20 (unified algorithm portfolio)",
            eid_exp::e11_unified_portfolio,
        ),
        (
            "e12",
            "Lemmas 4–5 (pure guessing game scaling)",
            lower_bounds::e12_pure_game,
        ),
        (
            "e13",
            "Definitions 1–2, Lemmas 9–11, Claim 21 (conductance validation)",
            conductance_exp::e13_conductance_validation,
        ),
        (
            "e14",
            "footnote 2 (push-only vs push-pull on the star)",
            push_pull_exp::e14_star_push_only,
        ),
        (
            "e15",
            "Section 7 (robustness under faults)",
            robustness::e15_fault_tolerance,
        ),
        (
            "e16",
            "Section 7 open question (restricted connections/round)",
            extensions::e16_restricted_connections,
        ),
        (
            "e17",
            "ablation: spanner parameter k in EID",
            extensions::e17_spanner_k_ablation,
        ),
        (
            "e18",
            "ablation: latency-discovery window (Section 4.2)",
            extensions::e18_discovery_window_ablation,
        ),
        (
            "e19",
            "ablation: RR Broadcast over spanner vs full graph",
            extensions::e19_rr_on_spanner_vs_full,
        ),
        (
            "e20",
            "Section 6 (message complexity: push-pull vs EID)",
            extensions::e20_message_complexity,
        ),
        (
            "e21",
            "Appendix C ablation (DTG vs Superstep local broadcast)",
            extensions::e21_dtg_vs_superstep,
        ),
        (
            "e22",
            "dissemination curves (informed-fraction quartiles)",
            extensions::e22_dissemination_curves,
        ),
        (
            "e23",
            "Appendix E blocking-model variant (DTG immune, push-pull not)",
            extensions::e23_blocking_model,
        ),
        (
            "e24",
            "streaming selection policies (round-robin vs GF(2) algebraic gossip)",
            stream_exp::e24_stream_grid,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_unique_and_ordered() {
        let reg = registry();
        assert_eq!(reg.len(), 24);
        for (i, (id, _, _)) in reg.iter().enumerate() {
            assert_eq!(*id, format!("e{}", i + 1));
        }
    }
}

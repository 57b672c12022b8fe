//! E16–E18 — extensions beyond the paper's main results: the
//! restricted-connection model posed in the conclusion, and ablations
//! of the pipeline's design choices.

use gossip_core::discovery;
use gossip_core::eid::{self, EidConfig};
use gossip_core::push_pull::PushPullNode;
use gossip_core::rr_broadcast;
use gossip_sim::{Protocol, SimConfig, Simulator};
use latency_graph::{generators, metrics, NodeId};

use crate::table::{f, Table};

/// E16 — the restricted model of the conclusion (after Daum et al.
/// \[24\]): each node may engage in at most `c` new exchanges per round,
/// incoming included. On the star, cap 1 serializes the hub and
/// broadcast degrades from `O(1)` to `Θ(n)`; on the clique, random
/// matching loses only a constant factor.
pub fn e16_restricted_connections() -> Table {
    let mut t = Table::new(
        "E16 — restricted connections per round (Section 7 open question)",
        &["graph", "n", "cap", "rounds", "rejected", "vs uncapped"],
    );
    for n in [16usize, 32, 64] {
        for (name, g) in [
            ("star", generators::star(n)),
            ("clique", generators::clique(n)),
        ] {
            let source = NodeId::new(0);
            let mut uncapped_rounds = 0f64;
            for cap in [None, Some(2), Some(1)] {
                let trials = 5u64;
                let mut rounds_total = 0u64;
                let mut rejected_total = 0u64;
                for s in 0..trials {
                    let cfg = SimConfig {
                        connection_cap: cap,
                        seed: s,
                        ..SimConfig::default()
                    };
                    let out = Simulator::new(&g, cfg).run(
                        |id, n| PushPullNode::new(id, n, Default::default()),
                        |nodes: &[PushPullNode], _| nodes.iter().all(|p| p.rumors.contains(source)),
                    );
                    rounds_total += out.rounds;
                    rejected_total += out.metrics.rejected;
                }
                let mean = rounds_total as f64 / trials as f64;
                if cap.is_none() {
                    uncapped_rounds = mean;
                }
                t.row(vec![
                    name.into(),
                    n.to_string(),
                    cap.map_or("∞".into(), |c| c.to_string()),
                    f(mean),
                    f(rejected_total as f64 / trials as f64),
                    f(mean / uncapped_rounds),
                ]);
            }
        }
    }
    t.note("expectation: star under cap 1 degrades to Θ(n); clique loses only a constant factor");
    t
}

/// E17 — ablation of the spanner parameter `k` (EID uses `k = log n`):
/// small `k` keeps the spanner dense (large `Δout` ⇒ large RR budget);
/// large `k` inflates the stretch (large RR parameter). `k ≈ log n`
/// balances the product.
pub fn e17_spanner_k_ablation() -> Table {
    let mut t = Table::new(
        "E17 — ablation: spanner parameter k in EID (Theorem 14's k = log n)",
        &[
            "k",
            "stretch 2k−1",
            "arcs",
            "Δout",
            "RR budget",
            "EID total",
            "complete",
        ],
    );
    let base = generators::connected_erdos_renyi(48, 0.2, 11).expect("connected sample");
    let g = generators::uniform_random_latencies(&base, 1, 6, 11);
    let d = metrics::weighted_diameter(&g);
    let logn = eid::default_spanner_k(48);
    for k in [2usize, 3, logn, 2 * logn] {
        let out = eid::eid(
            &g,
            &EidConfig {
                diameter: d,
                spanner_k: Some(k),
                seed: 4,
                ..Default::default()
            },
        );
        t.row(vec![
            format!("{k}{}", if k == logn { " (=log n)" } else { "" }),
            (2 * k - 1).to_string(),
            out.spanner.spanner.arc_count().to_string(),
            out.spanner.max_out_degree().to_string(),
            out.rr_budget.to_string(),
            out.total_rounds().to_string(),
            out.complete.to_string(),
        ]);
    }
    t.note("RR budget = (D·(2k−1))·(Δout+1): the stretch factor grows linearly in k while Δout ~ n^{1/k} shrinks");
    t.note("at n = 48 the stretch term dominates, so small k wins; k = log n is the asymptotic balance (see E19 for the dense-graph regime where small k's Δout explodes)");
    t
}

/// E18 — ablation of the discovery window (Section 4.2): a window below
/// `ℓ_max` leaves slow edges unmeasured; the pipeline still succeeds as
/// soon as the measured subgraph is connected and covers the diameter —
/// "clearly we do not want to use any edges with latency > D".
pub fn e18_discovery_window_ablation() -> Table {
    let mut t = Table::new(
        "E18 — ablation: latency-discovery window (Section 4.2)",
        &[
            "window",
            "edges measured",
            "measured graph connected",
            "EID on measured",
            "rounds(discovery)",
        ],
    );
    // Cycle with latency 1..4 plus chords of latency 20: the chords are
    // never needed (D without them is small).
    let mut b = latency_graph::GraphBuilder::new(16);
    for v in 0..16 {
        b.add_edge(v, (v + 1) % 16, 1 + (v as u32 % 4))
            .expect("valid edge");
    }
    for v in 0..4 {
        b.add_edge(v, v + 8, 20).expect("valid chord");
    }
    let g = b.build().expect("valid graph");
    let m = g.edge_count();
    for window in [2u64, 4, 8, 20] {
        let disc = discovery::discover_latencies(&g, window);
        let measured: usize = disc.measured.iter().map(Vec::len).sum::<usize>() / 2;
        let sub = disc.to_graph(16);
        let connected = sub.is_connected();
        let eid_ok = if connected {
            let d = metrics::weighted_diameter(&sub);
            eid::eid(
                &sub,
                &EidConfig {
                    diameter: d,
                    seed: 1,
                    ..Default::default()
                },
            )
            .complete
            .to_string()
        } else {
            "-".into()
        };
        t.row(vec![
            window.to_string(),
            format!("{measured}/{m}"),
            connected.to_string(),
            eid_ok,
            disc.rounds.to_string(),
        ]);
    }
    t.note("expectation: window ≥ 4 (the cycle's ℓ_max) suffices — the latency-20 chords are never needed");
    t
}

/// E19 — ablation: RR Broadcast on the spanner vs on the full graph.
/// The orientation's small `Δout` is what makes the budget small; the
/// full graph's Δ would blow it up (the whole point of Theorem 14).
pub fn e19_rr_on_spanner_vs_full() -> Table {
    let mut t = Table::new(
        "E19 — ablation: RR Broadcast over spanner vs full graph (Lemma 15 budget)",
        &[
            "graph",
            "n",
            "Δ(G)",
            "Δout(spanner)",
            "budget full",
            "budget spanner",
            "saving",
        ],
    );
    let cases: Vec<(&str, latency_graph::Graph)> = vec![
        (
            "ER sparse",
            generators::connected_erdos_renyi(128, 12.0 / 128.0, 13).expect("connected sample"),
        ),
        ("clique", generators::clique(128)),
        ("clique", generators::clique(512)),
        ("clique", generators::clique(2048)),
    ];
    for (name, g) in cases {
        let n = g.node_count();
        let d = metrics::weighted_diameter(&g);
        let k_s = eid::default_spanner_k(n);
        let sp = baswana_sen::build_spanner(
            &g,
            &baswana_sen::SpannerConfig {
                k: k_s,
                seed: 2,
                ..Default::default()
            },
        );
        let k_rr = d * sp.stretch_bound as u64;
        // "Full graph" = every edge oriented both ways, flooded at
        // parameter D.
        let full = latency_graph::DiGraph::from_arcs(
            n,
            g.edges().flat_map(|(u, v, l)| {
                [
                    (u.index(), v.index(), l.get()),
                    (v.index(), u.index(), l.get()),
                ]
            }),
        );
        let b_full = rr_broadcast::budget(&full, d);
        let b_spanner = rr_broadcast::budget(&sp.spanner, k_rr);
        t.row(vec![
            name.into(),
            n.to_string(),
            g.max_degree().to_string(),
            sp.max_out_degree().to_string(),
            b_full.to_string(),
            b_spanner.to_string(),
            f(b_full as f64 / b_spanner as f64),
        ]);
    }
    t.note("full graph floods at parameter D over out-degree Δ; the spanner pays the 2k−1 stretch in the parameter but its Δout = O(log n)");
    t.note("expectation: on sparse graphs (Δ small) the full graph is fine; on dense graphs the saving grows ~ Δ/log²n — the point of Theorem 14");
    t
}

/// E20 — message complexity (Section 6): push-pull spreads one small
/// rumor per message, while EID's discovery phase ships whole topology
/// maps. We compare total payload units (rumors resp. topology edges
/// carried) for one-to-all dissemination.
pub fn e20_message_complexity() -> Table {
    use gossip_core::push_pull::{self, PushPullConfig};
    let mut t = Table::new(
        "E20 — message complexity: payload units exchanged (Section 6)",
        &[
            "graph",
            "n",
            "push-pull units",
            "EID units",
            "EID/pp",
            "pp units/(n log n)",
        ],
    );
    for (name, g) in [
        ("clique(24)", generators::clique(24)),
        ("cycle(24)", generators::cycle(24)),
        (
            "ER(32, .2)",
            generators::connected_erdos_renyi(32, 0.2, 3).expect("connected sample"),
        ),
    ] {
        let n = g.node_count();
        let d = metrics::weighted_diameter(&g);
        let pp = push_pull::broadcast(&g, NodeId::new(0), &PushPullConfig::default(), 7);
        assert!(pp.completed());
        let eo = eid::eid(
            &g,
            &EidConfig {
                diameter: d,
                seed: 1,
                ..Default::default()
            },
        );
        assert!(eo.complete);
        let nlogn = n as f64 * (n as f64).log2();
        t.row(vec![
            name.into(),
            n.to_string(),
            pp.metrics.payload_units.to_string(),
            eo.payload_units.to_string(),
            f(eo.payload_units as f64 / pp.metrics.payload_units as f64),
            f(pp.metrics.payload_units as f64 / nlogn),
        ]);
    }
    t.note("units: rumors carried per delivered exchange (push-pull/RR) or topology edges carried (EID discovery)");
    t.note("expectation: EID's knowledge payloads cost orders of magnitude more than push-pull's rumor sets");
    t
}

/// E21 — ablation: the two local-broadcast building blocks the paper
/// cites (Appendix C): Haeupler's deterministic DTG (`O(log² n)`) vs
/// the randomized Superstep of Censor-Hillel et al. (`O(log³ n)`).
pub fn e21_dtg_vs_superstep() -> Table {
    use gossip_core::{dtg, superstep};
    use latency_graph::Latency;
    let mut t = Table::new(
        "E21 — ablation: DTG vs Superstep local broadcast (Appendix C)",
        &[
            "family",
            "n",
            "DTG rounds",
            "Superstep rounds",
            "DTG exch.",
            "Superstep exch.",
        ],
    );
    for n in [32usize, 128] {
        for (name, g) in [
            ("clique", generators::clique(n)),
            ("star", generators::star(n)),
            (
                "ER p=8/n",
                generators::connected_erdos_renyi(n, (8.0 / n as f64).min(1.0), 5)
                    .expect("connected sample"),
            ),
            ("cycle", generators::cycle(n)),
        ] {
            let d = dtg::local_broadcast(&g, Latency::UNIT);
            assert!(d.complete, "{name} n={n}");
            let mut ss_rounds = 0u64;
            let mut ss_exch = 0u64;
            let trials = 5u64;
            for s in 0..trials {
                let ss = superstep::local_broadcast(&g, Latency::UNIT, s);
                assert!(ss.complete, "{name} n={n} seed={s}");
                ss_rounds += ss.rounds;
                ss_exch += ss.metrics.initiated;
            }
            t.row(vec![
                name.into(),
                n.to_string(),
                d.rounds.to_string(),
                f(ss_rounds as f64 / trials as f64),
                d.metrics.initiated.to_string(),
                f(ss_exch as f64 / trials as f64),
            ]);
        }
    }
    t.note("both are polylog; DTG's pipelined schedule is deterministic, Superstep trades a log factor for simplicity and adaptivity");
    t
}

/// E22 — dissemination curves: rounds until 25/50/75/100% of nodes are
/// informed, for push-pull on contrasting structures. Well-connected
/// graphs show the classic S-curve (exponential middle, short tail);
/// the lower-bound gadgets show a long tail — the right side waits for
/// hidden fast edges, which is where the `Ω` bounds live.
pub fn e22_dissemination_curves() -> Table {
    let mut t = Table::new(
        "E22 — push-pull dissemination curve quartiles (rounds to reach X% informed)",
        &["graph", "n", "25%", "50%", "75%", "100%", "tail = r100/r50"],
    );
    let cases: Vec<(&str, latency_graph::Graph)> = vec![
        ("clique(64)", generators::clique(64)),
        ("barbell(32) bridge 16", generators::barbell(32, 16)),
        (
            "Theorem6 gadget Δ=24",
            generators::theorem6_network(48, 24, 5).0,
        ),
        (
            "Theorem7 gadget p=.1 ℓ=4",
            generators::theorem7_network(32, 0.1, 4, 5).graph.clone(),
        ),
    ];
    for (name, g) in cases {
        let n = g.node_count();
        let source = NodeId::new(0);
        let marks = [n.div_ceil(4), n.div_ceil(2), 3 * n / 4, n];
        let mut at = [0u64; 4];
        let mut next = 0usize;
        let cfg = SimConfig {
            seed: 3,
            max_rounds: 1_000_000,
            ..SimConfig::default()
        };
        let out = Simulator::new(&g, cfg).run(
            |id, n| PushPullNode::new(id, n, Default::default()),
            |nodes: &[PushPullNode], round| {
                let informed = nodes.iter().filter(|p| p.rumors.contains(source)).count();
                while next < 4 && informed >= marks[next] {
                    at[next] = round;
                    next += 1;
                }
                next == 4
            },
        );
        assert!(out.stopped_by_condition(), "{name}");
        t.row(vec![
            name.into(),
            n.to_string(),
            at[0].to_string(),
            at[1].to_string(),
            at[2].to_string(),
            at[3].to_string(),
            f(at[3] as f64 / at[1].max(1) as f64),
        ]);
    }
    t.note("expectation: short tail (ratio ≈ 1–2) on the clique; long tail on the gadgets where the last quartile hunts hidden fast edges");
    t
}

/// E23 — Appendix E's blocking-model claim: "This algorithm works even
/// when nodes cannot initiate a new exchange in every round, and wait
/// till the acknowledgement of the previous message." `ℓ`-DTG performs
/// one exchange per `ℓ`-round slot, so the blocking restriction never
/// rejects anything and costs zero extra rounds; push-pull, by
/// contrast, relies on non-blocking pipelining and slows down by up to
/// the edge latency.
pub fn e23_blocking_model() -> Table {
    use gossip_core::dtg::{self, DtgState};
    use gossip_core::push_pull::PushPullNode;
    use gossip_sim::RumorSet;
    use latency_graph::Latency;

    let mut t = Table::new(
        "E23 — blocking communication (Appendix E's model variant)",
        &[
            "algorithm",
            "graph",
            "non-blocking",
            "blocking",
            "slowdown",
            "rejections",
        ],
    );

    // ℓ-DTG on a latency-6 cycle, run manually under both models.
    let ell = Latency::new(6);
    let g = generators::cycle(24).map_latencies(|_, _, _| ell);
    let n = g.node_count();
    let cap = dtg::default_iteration_cap(n);
    let run_dtg = |blocking: bool| {
        let mut slots: Vec<Option<DtgState<RumorSet>>> = (0..n)
            .map(|i| {
                Some(DtgState::new(
                    NodeId::new(i),
                    n,
                    RumorSet::singleton(n, NodeId::new(i)),
                ))
            })
            .collect();
        let cfg = SimConfig {
            latency_known: true,
            blocking,
            max_rounds: dtg::schedule_length(ell, cap),
            ..SimConfig::default()
        };
        Simulator::new(&g, cfg).run(
            |id, _| dtg::DtgNode::new(slots[id.index()].take().expect("one take"), ell, cap),
            |_, _| false,
        )
    };
    let free = run_dtg(false);
    let blocked = run_dtg(true);
    assert!(
        blocked.nodes.iter().all(Protocol::is_done),
        "ℓ-DTG must survive blocking"
    );
    t.row(vec![
        "ℓ-DTG (ℓ=6)".into(),
        "cycle(24)".into(),
        free.rounds.to_string(),
        blocked.rounds.to_string(),
        f(blocked.rounds as f64 / free.rounds as f64),
        blocked.metrics.rejected.to_string(),
    ]);

    // Push-pull on a latency-10 clique under both models.
    let slow = generators::clique(32).map_latencies(|_, _, _| Latency::new(10));
    let source = NodeId::new(0);
    let run_pp = |blocking: bool| {
        let trials = 5u64;
        let mut rounds = 0u64;
        let mut rejected = 0u64;
        for s in 0..trials {
            let cfg = SimConfig {
                blocking,
                seed: s,
                ..SimConfig::default()
            };
            let out = Simulator::new(&slow, cfg).run(
                |id, n| PushPullNode::new(id, n, Default::default()),
                |nodes: &[PushPullNode], _| nodes.iter().all(|p| p.rumors.contains(source)),
            );
            rounds += out.rounds;
            rejected += out.metrics.rejected;
        }
        (
            rounds as f64 / trials as f64,
            rejected as f64 / trials as f64,
        )
    };
    let (pp_free, _) = run_pp(false);
    let (pp_blocked, pp_rej) = run_pp(true);
    t.row(vec![
        "push-pull".into(),
        "clique(32), ℓ=10".into(),
        f(pp_free),
        f(pp_blocked),
        f(pp_blocked / pp_free),
        f(pp_rej),
    ]);
    t.note("expectation: ℓ-DTG pays no penalty and is never rejected (Appendix E); push-pull loses its pipelining (slowdown → ~2×)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e23_dtg_immune_push_pull_not() {
        let t = e23_blocking_model();
        let dtg_row = &t.rows[0];
        assert_eq!(dtg_row[5], "0", "DTG must never be rejected under blocking");
        let slowdown: f64 = dtg_row[4].parse().unwrap();
        assert!(
            (slowdown - 1.0).abs() < 1e-9,
            "DTG slowdown must be exactly 1"
        );
        let pp_row = &t.rows[1];
        let pp_slowdown: f64 = pp_row[4].parse().unwrap();
        assert!(pp_slowdown > 1.2, "push-pull must slow down: {pp_slowdown}");
    }

    #[test]
    fn e22_gadget_has_longer_tail_than_clique() {
        let t = e22_dissemination_curves();
        let tail = |name: &str| -> f64 {
            t.rows.iter().find(|r| r[0].starts_with(name)).unwrap()[6]
                .parse()
                .unwrap()
        };
        assert!(
            tail("Theorem7") > tail("clique"),
            "gadget tail must dominate"
        );
    }

    #[test]
    fn e21_both_complete_and_polylog() {
        let t = e21_dtg_vs_superstep();
        for r in &t.rows {
            let n: f64 = r[1].parse().unwrap();
            let dtg_rounds: f64 = r[2].parse().unwrap();
            let ss_rounds: f64 = r[3].parse().unwrap();
            let l = n.log2();
            assert!(dtg_rounds <= 4.0 * l * l, "DTG polylog: {r:?}");
            assert!(ss_rounds <= 8.0 * l * l * l, "Superstep polylog: {r:?}");
        }
    }

    #[test]
    fn e20_eid_pays_more_messages() {
        let t = e20_message_complexity();
        for r in &t.rows {
            let ratio: f64 = r[4].parse().unwrap();
            assert!(ratio > 2.0, "EID must carry more payload: {r:?}");
        }
    }

    #[test]
    fn e16_star_degrades_linearly() {
        let t = e16_restricted_connections();
        // star rows with cap 1: rounds ≈ Θ(n).
        let rows: Vec<(usize, f64)> = t
            .rows
            .iter()
            .filter(|r| r[0] == "star" && r[2] == "1")
            .map(|r| (r[1].parse().unwrap(), r[3].parse().unwrap()))
            .collect();
        for (n, rounds) in &rows {
            assert!(*rounds >= *n as f64 / 4.0, "n={n}: rounds {rounds}");
        }
        // clique rows with cap 1: small constant-factor slowdown.
        for r in t.rows.iter().filter(|r| r[0] == "clique" && r[2] == "1") {
            let factor: f64 = r[5].parse().unwrap();
            assert!(factor < 8.0, "clique cap-1 blowup: {r:?}");
        }
    }

    #[test]
    fn e18_small_window_breaks_large_window_works() {
        let t = e18_discovery_window_ablation();
        let first = &t.rows[0];
        assert_eq!(first[2], "false", "window 2 must disconnect");
        let last = &t.rows[t.rows.len() - 1];
        assert_eq!(last[3], "true", "full window must succeed");
        // Window 4 and 8 measure the same edges (nothing between 4 and 20).
        let w4 = t.rows.iter().find(|r| r[0] == "4").unwrap();
        let w8 = t.rows.iter().find(|r| r[0] == "8").unwrap();
        assert_eq!(w4[1], w8[1]);
    }
}

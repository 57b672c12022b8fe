//! Cross-crate integration tests: the full pipelines of the paper, end
//! to end.

use gossip_latencies::graph::{conductance, generators, metrics, Latency, NodeId};
use gossip_latencies::protocols::{discovery, dtg, eid, path_discovery, push_pull, unified};
use gossip_latencies::spanner::{build_spanner, verify, SpannerConfig};

/// Theorem 20, known latencies: both pipelines complete on a portfolio
/// of graph families, and the unified report picks the minimum.
#[test]
fn unified_portfolio_known_latencies() {
    let families: Vec<(&str, _)> = vec![
        ("clique", generators::clique(24)),
        ("cycle", generators::cycle(24)),
        ("grid", generators::grid(5, 5)),
        ("star", generators::star(24)),
        ("hypercube", generators::hypercube(4)),
        ("barbell", generators::barbell(12, 5)),
    ];
    for (name, g) in families {
        let cfg = unified::UnifiedConfig {
            latency_known: true,
            ..Default::default()
        };
        let r = unified::all_to_all(&g, &cfg, 7);
        assert!(
            r.push_pull_rounds.is_some(),
            "{name}: push-pull must complete"
        );
        assert!(
            r.spanner_rounds.is_some(),
            "{name}: spanner pipeline must complete"
        );
        let best = r.best_rounds();
        assert!(
            best <= r.push_pull_rounds.unwrap() && best <= r.spanner_rounds.unwrap(),
            "{name}: best must be the min"
        );
    }
}

/// Section 4.2's full unknown-latency chain: discover latencies, build
/// the working graph, run General EID on it — end to end.
#[test]
fn discovery_then_eid_chain() {
    let base = generators::connected_erdos_renyi(28, 0.25, 3).expect("connected sample");
    let g = generators::uniform_random_latencies(&base, 1, 6, 9);
    let d = metrics::weighted_diameter(&g);

    let disc = discovery::discover_latencies(&g, d);
    assert!(disc.complete, "window D measures every edge");
    assert_eq!(
        disc.to_graph(28),
        g,
        "discovery reconstructs the graph exactly"
    );

    let out = eid::general_eid(&disc.to_graph(28), 5, d * 4);
    assert!(out.complete);
    assert!(out.rumors.iter().all(|r| r.is_full()));
}

/// The guessing-game reduction (Lemma 3) meets a real gossip run: a
/// push-pull execution on the Theorem 7 gadget, with its cross-edge
/// activations replayed as guesses, solves the game no earlier than the
/// gossip run informs the right side.
#[test]
fn lemma3_reduction_on_gadget() {
    use gossip_latencies::game::reduction::{cross_pair, ActivationLog};
    use gossip_latencies::sim::{Context, Exchange, Protocol, RumorSet, SimConfig, Simulator};
    use rand::Rng as _;

    let m = 16;
    let phi = 0.2;
    let gd = generators::theorem7_network(m, phi, 2, 5);
    let g = &gd.graph;
    let n = g.node_count();

    // Push-pull that logs its own cross-edge activations.
    struct Logging {
        rumors: RumorSet,
        m: usize,
        activations: Vec<(u64, (usize, usize))>,
    }
    impl Protocol for Logging {
        type Payload = RumorSet;
        fn payload(&self) -> RumorSet {
            self.rumors.clone()
        }
        fn on_round(&mut self, ctx: &mut Context<'_>) {
            let d = ctx.degree();
            let i = ctx.rng().random_range(0..d);
            let v = ctx.neighbor_ids()[i];
            if let Some(pair) = cross_pair(self.m, ctx.id().index(), v.index()) {
                self.activations.push((ctx.round(), pair));
            }
            ctx.initiate(v);
        }
        fn on_exchange(&mut self, _: &mut Context<'_>, x: &Exchange<RumorSet>) {
            self.rumors.union_with(&x.payload);
        }
    }

    // Local broadcast goal on the left side's rumors: every right node
    // hears some left rumor through a fast edge... we use "right side
    // fully informed of node 0" as the dissemination event.
    let source = NodeId::new(0);
    let out = Simulator::new(
        g,
        SimConfig {
            seed: 3,
            max_rounds: 200_000,
            ..Default::default()
        },
    )
    .run(
        |id, n| Logging {
            rumors: RumorSet::singleton(n, id),
            m,
            activations: vec![],
        },
        |nodes: &[Logging], _| nodes.iter().all(|x| x.rumors.contains(source)),
    );
    assert!(out.reason == gossip_latencies::sim::StopReason::Condition);

    // Replay all activations as guesses.
    let mut log = ActivationLog::new();
    for node in &out.nodes {
        for &(round, pair) in &node.activations {
            log.record(round, pair);
        }
    }
    let outcome = gossip_latencies::game::reduction::replay(m, gd.target.clone(), &log);
    // The gossip run succeeded, so (by Lemma 3) its activation log must
    // solve the game within the same number of rounds.
    assert!(
        outcome.solved_at.is_some(),
        "a successful local broadcast must solve the game"
    );
    assert!(outcome.solved_at.unwrap() <= out.rounds + 1);
    let _ = n;
}

/// Theorem 12's charged bound: measured push-pull rounds stay below
/// c · (ℓ*/φ*) · ln n across latency structures, with exact weighted
/// conductance on small graphs.
#[test]
fn push_pull_within_weighted_conductance_bound() {
    let configs = [
        (generators::clique(12), "unit clique"),
        (
            generators::bimodal_latencies(&generators::clique(12), 1, 24, 0.3, 2),
            "bimodal clique",
        ),
        (generators::barbell(6, 8), "barbell"),
        (
            generators::uniform_random_latencies(&generators::cycle(12), 1, 5, 3),
            "weighted cycle",
        ),
    ];
    for (g, name) in configs {
        let wc = conductance::exact_weighted_conductance(&g).expect("connected");
        let bound =
            wc.critical_latency.rounds() as f64 / wc.phi_star * (g.node_count() as f64).ln();
        let (mean, ok) = push_pull::mean_broadcast_rounds(
            &g,
            NodeId::new(0),
            &push_pull::PushPullConfig::default(),
            11,
            10,
        );
        assert_eq!(ok, 10, "{name}");
        assert!(
            mean <= 4.0 * bound + wc.critical_latency.rounds() as f64,
            "{name}: mean {mean} vs bound {bound}"
        );
    }
}

/// EID's spanner phase really produces what Theorem 14 promises:
/// O(log n) stretch, O(n log n) edges, O(log n) out-degree — checked
/// against the verifier from the spanner crate.
#[test]
fn theorem14_spanner_properties() {
    let g = generators::connected_erdos_renyi(60, 0.2, 8).expect("connected sample");
    let k = eid::default_spanner_k(60);
    let r = build_spanner(
        &g,
        &SpannerConfig {
            k,
            seed: 4,
            ..Default::default()
        },
    );
    assert_eq!(r.stretch_bound, 2 * k - 1);
    let worst = verify::max_stretch(&g, &r.spanner.to_undirected());
    assert!(worst <= r.stretch_bound as f64, "stretch {worst}");
    let log2n = (60f64).log2();
    assert!(
        (r.spanner.arc_count() as f64) <= 4.0 * 60.0 * log2n,
        "size {} vs n log n",
        r.spanner.arc_count()
    );
    assert!(
        (r.max_out_degree() as f64) <= 6.0 * log2n,
        "out-degree {}",
        r.max_out_degree()
    );
}

/// Path Discovery and General EID agree on the final rumor sets (both
/// solve all-to-all) though their costs differ.
#[test]
fn path_discovery_and_eid_agree() {
    let base = generators::cycle(12);
    let g = generators::uniform_random_latencies(&base, 1, 4, 6);
    let pd = path_discovery::path_discovery(&g, 1 << 10);
    let ge = eid::general_eid(&g, 2, 1 << 10);
    assert!(pd.complete && ge.complete);
    assert_eq!(pd.rumors, ge.rumors, "both must converge to full sets");
}

/// ℓ-DTG composes with the conductance machinery: local broadcast at
/// the critical latency ℓ* touches exactly the fast subgraph.
#[test]
fn ell_dtg_at_critical_latency() {
    let g = generators::bimodal_latencies(&generators::clique(14), 1, 28, 0.4, 1);
    let wc = conductance::exact_weighted_conductance(&g).expect("connected");
    let o = dtg::local_broadcast(&g, wc.critical_latency);
    assert!(o.complete);
    assert!(dtg::verify_local_broadcast(
        &g,
        wc.critical_latency,
        &o.rumors
    ));
}

/// The weighted diameter of a Theorem 7 gadget is O(ℓ) while its hop
/// diameter is O(1) — the separation that makes weighted conductance
/// necessary.
#[test]
fn gadget_separates_hop_and_weighted_diameter() {
    let gd = generators::theorem7_network(24, 0.3, 6, 2);
    let hop = metrics::hop_diameter(&gd.graph);
    let weighted = metrics::weighted_diameter(&gd.graph);
    assert!(hop <= 3, "hop diameter {hop}");
    assert!(weighted >= 6, "weighted diameter {weighted} must pay ℓ");
    assert!(weighted <= 3 * 6 + 3, "but stays O(ℓ): {weighted}");
}

/// Latency filtering and the conductance profile agree with the
/// simulator: at ℓ below the bridge latency, push-pull confined by a
/// round cap below the bridge latency cannot cross a slow bridge.
#[test]
fn slow_bridge_gates_dissemination() {
    let g = generators::barbell(8, 50);
    // φ_1 = 0: at ℓ=1 the graph is disconnected.
    let profile = conductance::exact_conductance_profile(&g).unwrap();
    assert_eq!(profile.phi_at(Latency::new(1)), 0.0);
    // And indeed no algorithm can inform the far side in < 50 rounds.
    let o = push_pull::broadcast(
        &g,
        NodeId::new(0),
        &push_pull::PushPullConfig {
            max_rounds: 49,
            ..Default::default()
        },
        3,
    );
    assert!(!o.completed());
    let far_informed = (8..16)
        .filter(|&i| o.rumors[i].contains(NodeId::new(0)))
        .count();
    assert_eq!(
        far_informed, 0,
        "information cannot outrun the bridge latency"
    );
}

//! Integration tests across gossip-core modules: the algorithms
//! composed the way the paper composes them.

use gossip_core::dtg::DtgState;
use gossip_core::eid::{self, EidConfig, KnowledgeMap};
use gossip_core::push_pull::{self, PushPullConfig};
use gossip_core::{discovery, path_discovery, superstep, termination};
use gossip_sim::{RumorSet, SimConfig, Simulator};
use latency_graph::{generators, metrics, NodeId};

/// Superstep can replace DTG in the neighborhood-discovery role: after
/// enough repetitions with knowledge payloads, every node's view covers
/// its k-hop neighborhood and the public-coin spanner computed locally
/// agrees with the centralized one.
#[test]
fn superstep_discovery_supports_local_spanner_agreement() {
    let g = generators::connected_erdos_renyi(16, 0.3, 11).expect("connected sample");
    let n = g.node_count();
    let k_s = eid::default_spanner_k(n);
    let ell = g.max_latency().unwrap();

    let mut knowledge: Vec<KnowledgeMap> = (0..n)
        .map(|i| KnowledgeMap::initial(&g, NodeId::new(i)))
        .collect();
    for rep in 0..=(k_s as u64) {
        let states: Vec<DtgState<KnowledgeMap>> = knowledge
            .iter()
            .enumerate()
            .map(|(i, km)| DtgState::new(NodeId::new(i), n, km.clone()))
            .collect();
        let phase = superstep::run_phase(&g, ell, states, 100_000, rep);
        assert!(phase.complete, "rep {rep}");
        knowledge = phase.states.into_iter().map(|s| s.data).collect();
    }
    assert!(eid::knowledge_covers_radius(
        &g,
        &knowledge,
        (k_s + 1) as u64
    ));
    for v in g.nodes() {
        assert!(
            eid::local_spanner_agrees(&g, &knowledge, v, k_s, 9),
            "node {v} disagrees"
        );
    }
}

/// The full unknown-everything pipeline of Theorem 20's first branch:
/// measure latencies, run General EID on the measured subgraph, then
/// let the distributed termination check certify the outcome.
#[test]
fn discovery_general_eid_distributed_check_chain() {
    let base = generators::cycle(12);
    let g = generators::uniform_random_latencies(&base, 1, 5, 8);
    let d = metrics::weighted_diameter(&g);

    let disc = discovery::discover_latencies(&g, d);
    assert!(disc.complete);
    let working = disc.to_graph(12);

    let out = eid::general_eid(&working, 4, 1 << 12);
    assert!(out.complete);

    // Re-certify with a fresh distributed check over a fresh spanner.
    let final_guess = out.attempts.last().unwrap().guess;
    let sp = eid::eid(
        &working,
        &EidConfig {
            diameter: final_guess,
            seed: 4,
            ..Default::default()
        },
    );
    let check = termination::distributed_check(
        &working,
        &sp.spanner.spanner,
        final_guess * sp.spanner.stretch_bound as u64,
        &out.rumors,
    );
    assert_eq!(check.verdict(), Some(true));
}

/// Push-pull still solves broadcast under the restricted
/// connections-per-round model, just slower; completion is preserved
/// on every family.
#[test]
fn push_pull_completes_under_connection_cap() {
    for g in [
        generators::clique(20),
        generators::star(20),
        generators::cycle(20),
        generators::grid(4, 5),
    ] {
        let cfg = SimConfig {
            connection_cap: Some(1),
            max_rounds: 1_000_000,
            seed: 3,
            ..SimConfig::default()
        };
        let source = NodeId::new(0);
        let out = Simulator::new(&g, cfg).run(
            |id, n| push_pull::PushPullNode::new(id, n, Default::default()),
            |nodes: &[push_pull::PushPullNode], _| nodes.iter().all(|p| p.rumors.contains(source)),
        );
        assert!(
            out.stopped_by_condition(),
            "capped push-pull must still complete"
        );
    }
}

/// Message-complexity ordering (Section 6): push-pull < Path Discovery
/// < EID in payload units on the same graph.
#[test]
fn payload_ordering_matches_section6() {
    let g = generators::cycle(16);
    let d = metrics::weighted_diameter(&g);
    let pp = push_pull::broadcast(&g, NodeId::new(0), &PushPullConfig::default(), 5);
    let pd = path_discovery::run_t_sequence(&g, d.next_power_of_two(), None);
    let ed = eid::eid(
        &g,
        &EidConfig {
            diameter: d,
            seed: 5,
            ..Default::default()
        },
    );
    assert!(pp.completed() && ed.complete);
    assert!(pd.rumors.iter().all(gossip_sim::RumorSet::is_full));
    assert!(
        pp.metrics.payload_units < pd.payload_units,
        "push-pull {} vs path discovery {}",
        pp.metrics.payload_units,
        pd.payload_units
    );
    assert!(
        pd.payload_units < ed.payload_units,
        "path discovery {} vs EID {} (knowledge payloads dominate)",
        pd.payload_units,
        ed.payload_units
    );
}

/// DTG and Superstep produce identical *postconditions* (full ℓ-local
/// broadcast) even though their schedules differ completely.
#[test]
fn dtg_and_superstep_agree_on_postcondition() {
    let base = generators::connected_erdos_renyi(20, 0.25, 6).expect("connected sample");
    let g = generators::uniform_random_latencies(&base, 1, 4, 6);
    for ell in g.distinct_latencies() {
        let a = gossip_core::dtg::local_broadcast(&g, ell);
        let b = superstep::local_broadcast(&g, ell, 2);
        assert!(a.complete && b.complete, "ℓ = {ell}");
        for (u, v, l) in g.edges() {
            if l <= ell {
                assert!(a.rumors[u.index()].contains(v));
                assert!(b.rumors[u.index()].contains(v));
            }
        }
    }
}

/// The termination check is sound under adversarial rumor states: for
/// random subsets of "complete" nodes, the distributed verdict is
/// exactly `all complete`.
#[test]
fn distributed_check_sound_over_random_states() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let g = generators::grid(3, 4);
    let n = 12;
    let sp = latency_graph::DiGraph::from_arcs(
        n,
        g.edges().map(|(u, v, l)| (u.index(), v.index(), l.get())),
    );
    let k = metrics::weighted_diameter(&g);
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..20 {
        let all_complete = rng.random::<f64>() < 0.5;
        let rumors: Vec<RumorSet> = (0..n)
            .map(|i| {
                if all_complete || rng.random::<f64>() < 0.7 {
                    RumorSet::full(n)
                } else {
                    RumorSet::singleton(n, NodeId::new(i))
                }
            })
            .collect();
        let truly_complete = rumors.iter().all(gossip_sim::RumorSet::is_full);
        let check = termination::distributed_check(&g, &sp, k, &rumors);
        assert!(check.unanimous);
        assert_eq!(check.verdict(), Some(truly_complete));
    }
}

/// Latency knowledge changes nothing about push-pull (it never reads
/// latencies): identical rounds with and without.
#[test]
fn push_pull_oblivious_to_latency_knowledge() {
    let base = generators::connected_erdos_renyi(24, 0.2, 4).expect("connected sample");
    let g = generators::uniform_random_latencies(&base, 1, 7, 4);
    let source = NodeId::new(0);
    let run = |known: bool| {
        let cfg = SimConfig {
            latency_known: known,
            seed: 11,
            ..SimConfig::default()
        };
        Simulator::new(&g, cfg)
            .run(
                |id, n| push_pull::PushPullNode::new(id, n, Default::default()),
                |nodes: &[push_pull::PushPullNode], _| {
                    nodes.iter().all(|p| p.rumors.contains(source))
                },
            )
            .rounds
    };
    assert_eq!(run(false), run(true));
}

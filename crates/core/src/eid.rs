//! **Efficient Information Dissemination** (EID): the paper's
//! `O(D log³ n)` all-to-all algorithm for known latencies
//! (Section 5, Algorithms 1, 3 and 4, Theorems 14 and 19).
//!
//! The pipeline, per Algorithm 3:
//!
//! 1. **Neighborhood discovery** — `O(log n)` repetitions of `D`-DTG
//!    local broadcast carrying *topology knowledge* payloads; after `r`
//!    repetitions each node knows its `r`-hop neighborhood
//!    (`O(D log³ n)` rounds total).
//! 2. **Local spanner computation** — every node runs the Baswana–Sen
//!    construction with *public coins*
//!    ([`baswana_sen::sampled_coin`]) on its collected knowledge; the
//!    decisions only depend on `k`-hop neighborhoods, so all local runs
//!    agree (verified by [`local_spanner_agrees`]). No communication.
//! 3. **RR Broadcast** over the oriented spanner with parameter
//!    `O(D log n)` (`O(D log² n)` rounds, Corollary 16).
//!
//! For unknown diameter, [`general_eid`] wraps the pipeline in
//! guess-and-double with the Termination Check of Algorithm 1
//! (Lemma 18: no node terminates before it has exchanged rumors with
//! everyone, and all nodes terminate in the same round).

use std::collections::BTreeSet;

use baswana_sen::{build_spanner, SpannerConfig, SpannerResult};
use gossip_sim::{Round, RumorSet};
use latency_graph::{Graph, Latency, NodeId};

use crate::common::{self, latency_cap, Attempt, Mergeable};
use crate::dtg;
use crate::rr_broadcast;
use crate::termination;

/// Topology knowledge: the set of `(u, v, latency)` edges a node has
/// learned, as raw indices (canonical `u < v`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KnowledgeMap {
    edges: BTreeSet<(u32, u32, u32)>,
}

impl KnowledgeMap {
    /// A node's initial knowledge: its own incident edges (it knows its
    /// neighbors and — in the known-latency model — their latencies).
    pub fn initial(g: &Graph, v: NodeId) -> KnowledgeMap {
        let mut edges = BTreeSet::new();
        for (u, l) in g.neighbors(v) {
            let (a, b) = if v < u { (v, u) } else { (u, v) };
            edges.insert((u32::from(a), u32::from(b), l.get()));
        }
        KnowledgeMap { edges }
    }

    /// Number of known edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether nothing is known.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Whether the edge `(u, v)` is known.
    pub fn contains(&self, u: NodeId, v: NodeId, latency: Latency) -> bool {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges
            .contains(&(u32::from(a), u32::from(b), latency.get()))
    }

    /// Materializes the knowledge as a graph over the same `n` nodes
    /// (unknown regions are simply absent).
    pub fn to_graph(&self, n: usize) -> Graph {
        Graph::from_edges(
            n,
            self.edges.iter().map(|&(a, b, l)| {
                (
                    usize::try_from(a).expect("node id fits usize"),
                    usize::try_from(b).expect("node id fits usize"),
                    l,
                )
            }),
        )
        .expect("knowledge edges are valid")
    }
}

impl Mergeable for KnowledgeMap {
    fn merge(&mut self, other: &Self) -> bool {
        let before = self.edges.len();
        self.edges.extend(other.edges.iter().copied());
        self.edges.len() != before
    }

    fn weight(&self) -> u64 {
        u64::try_from(self.edges.len()).expect("edge count fits u64")
    }
}

/// Configuration for one [`eid`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EidConfig {
    /// The known (or guessed) weighted diameter `D`. Edges with latency
    /// `> D` are ignored (w.l.o.g., Section 5.1).
    pub diameter: u64,
    /// Spanner parameter `k`; defaults to `⌈log₂ n⌉` (stretch
    /// `O(log n)`).
    pub spanner_k: Option<usize>,
    /// Public-coin seed shared by all nodes.
    pub seed: u64,
    /// Report actual RR rounds when it finishes early (measurement
    /// mode) instead of the deterministic budget.
    pub charge_actual_rr: bool,
}

impl Default for EidConfig {
    fn default() -> Self {
        EidConfig {
            diameter: 1,
            spanner_k: None,
            seed: 0,
            charge_actual_rr: false,
        }
    }
}

/// The result of one EID pipeline run.
#[derive(Clone, Debug)]
pub struct EidOutcome {
    /// Rounds spent in neighborhood discovery (phase 1).
    pub discovery_rounds: Round,
    /// Rounds spent in RR Broadcast (phase 3).
    pub rr_rounds: Round,
    /// The RR budget (used by the termination check's cost accounting).
    pub rr_budget: Round,
    /// Whether all-to-all dissemination completed.
    pub complete: bool,
    /// Final rumor sets.
    pub rumors: Vec<RumorSet>,
    /// The spanner used in phase 3.
    pub spanner: SpannerResult,
    /// Whether every node's collected knowledge covered its
    /// `(k+1)`-hop neighborhood (the precondition for consistent local
    /// spanner computation).
    pub knowledge_sufficient: bool,
    /// Per-node knowledge after phase 1 (for inspection / the
    /// [`local_spanner_agrees`] check).
    pub knowledge: Vec<KnowledgeMap>,
    /// Total payload units exchanged across both phases — the paper's
    /// Section 6 point that the spanner pipeline needs large messages
    /// (topology knowledge) while push-pull does not.
    pub payload_units: u64,
}

impl EidOutcome {
    /// Total rounds of the pipeline (discovery + RR; the spanner step is
    /// local computation).
    pub fn total_rounds(&self) -> Round {
        self.discovery_rounds + self.rr_rounds
    }
}

/// The spanner parameter default: `⌈log₂ n⌉`, at least 2.
pub fn default_spanner_k(n: usize) -> usize {
    usize::try_from(n.max(2).next_power_of_two().trailing_zeros())
        .expect("log2 fits usize")
        .max(2)
}

/// Runs the EID pipeline (Algorithm 3) for a known/guessed diameter.
///
/// # Panics
///
/// Panics if `config.diameter == 0`.
pub fn eid(g: &Graph, config: &EidConfig) -> EidOutcome {
    assert!(config.diameter >= 1, "diameter guess must be positive");
    let n = g.node_count();
    let d_lat = latency_cap(config.diameter);
    let working = g.latency_filtered(d_lat);
    let k_s = config.spanner_k.unwrap_or_else(|| default_spanner_k(n));

    // Phase 1: (k_s + 1) repetitions of D-DTG with knowledge payloads;
    // repetition r extends every node's view to its r-hop neighborhood.
    let reps = k_s + 1;
    let cap = dtg::default_iteration_cap(n);
    let mut knowledge: Vec<KnowledgeMap> = (0..n)
        .map(|i| KnowledgeMap::initial(&working, NodeId::new(i)))
        .collect();
    let mut discovery_rounds: Round = 0;
    let mut payload_units: u64 = 0;
    for _ in 0..reps {
        let phase = dtg::run_phase(&working, d_lat, cap, dtg::states(knowledge), false);
        discovery_rounds += phase.rounds;
        payload_units += phase.metrics.payload_units;
        knowledge = phase.into_data();
    }

    let radius = u64::try_from(k_s + 1).expect("spanner parameter fits u64");
    let knowledge_sufficient = knowledge_covers_radius(&working, &knowledge, radius);

    // Phase 2: local spanner computation with public coins (run once
    // centrally; `local_spanner_agrees` certifies the local/global
    // agreement on demand).
    let spanner = build_spanner(
        &working,
        &SpannerConfig {
            k: k_s,
            size_estimate: None,
            seed: config.seed,
        },
    );

    // Phase 3: RR Broadcast with parameter D · (2k−1) ≥ any spanner
    // distance between nodes at graph distance ≤ D.
    let k_rr = config.diameter * u64::try_from(spanner.stretch_bound).expect("stretch fits u64");
    let rr = rr_broadcast::run(
        &working,
        &spanner.spanner,
        k_rr,
        rr_broadcast::fresh_states(n),
        config.charge_actual_rr,
    );

    EidOutcome {
        discovery_rounds,
        rr_rounds: rr.rounds,
        rr_budget: rr.budget,
        complete: rr.all_full,
        payload_units: payload_units + rr.metrics.payload_units,
        rumors: rr.rumors,
        spanner,
        knowledge_sufficient,
        knowledge,
    }
}

/// Whether every node's knowledge contains all edges with both
/// endpoints within `radius` hops of it.
pub fn knowledge_covers_radius(g: &Graph, knowledge: &[KnowledgeMap], radius: u64) -> bool {
    g.nodes().all(|v| {
        let hops = latency_graph::metrics::bfs_hops(g, v);
        g.edges()
            .filter(|&(a, b, _)| hops[a.index()] < radius && hops[b.index()] < radius)
            .all(|(a, b, l)| knowledge[v.index()].contains(a, b, l))
    })
}

/// Certifies Theorem 14's local-computation claim: node `v`, running the
/// spanner construction on *its own knowledge graph* with the shared
/// public coins, derives exactly the out-arcs the centralized run
/// assigns it.
pub fn local_spanner_agrees(
    g: &Graph,
    knowledge: &[KnowledgeMap],
    v: NodeId,
    k_s: usize,
    seed: u64,
) -> bool {
    let n = g.node_count();
    let config = SpannerConfig {
        k: k_s,
        size_estimate: Some(n),
        seed,
    };
    let local = build_spanner(&knowledge[v.index()].to_graph(n), &config);
    let global = build_spanner(g, &config);
    local.spanner.out_neighbors(v) == global.spanner.out_neighbors(v)
}

/// The distributed Termination Check of Algorithm 1, evaluated over the
/// final states (the simulation-level verdict; its communication cost is
/// `2×` the RR budget and is charged by [`general_eid`]).
#[derive(Clone, Debug)]
pub struct TerminationVerdict {
    /// Per-node flag bits: node `v` raises its flag if some neighbor's
    /// rumor is missing from `R_v`.
    pub flags: Vec<bool>,
    /// Whether all rumor sets are identical.
    pub all_equal: bool,
}

impl TerminationVerdict {
    /// The check passes — all nodes terminate — iff no flag is raised
    /// and all rumor sets agree.
    pub fn success(&self) -> bool {
        self.all_equal && self.flags.iter().all(|&f| !f)
    }
}

/// Evaluates the Termination Check predicate on final rumor states.
///
/// # Panics
///
/// Panics if `rumors.len() != n`.
pub fn termination_check(g: &Graph, rumors: &[RumorSet]) -> TerminationVerdict {
    let flags = termination::flags(g, rumors);
    let all_equal = rumors.windows(2).all(|w| w[0] == w[1]);
    TerminationVerdict { flags, all_equal }
}

/// The result of [`general_eid`].
#[derive(Clone, Debug)]
pub struct GeneralEidOutcome {
    /// Every attempt, in order of guesses `1, 2, 4, …`: the EID
    /// pipeline's rounds, and the check's (2× the RR budget).
    pub attempts: Vec<Attempt>,
    /// Total rounds over all attempts (Theorem 19's `O(D log³ n)` —
    /// geometric doubling keeps the total within a constant factor of
    /// the final attempt).
    pub total_rounds: Round,
    /// Whether dissemination completed within `max_guess`.
    pub complete: bool,
    /// Total payload units exchanged over all attempts.
    pub payload_units: u64,
    /// Final rumor sets.
    pub rumors: Vec<RumorSet>,
}

/// General EID (Algorithm 4): guess-and-double over the unknown
/// diameter, with the **distributed** Termination Check
/// ([`crate::termination::distributed_check`]) after every attempt —
/// the decision to stop or double is made by the simulated nodes
/// themselves (Lemma 18 guarantees they agree), not by an external
/// observer.
///
/// # Panics
///
/// Panics if `max_guess == 0`.
pub fn general_eid(g: &Graph, seed: u64, max_guess: u64) -> GeneralEidOutcome {
    let mut payload_units: u64 = 0;
    let mut rumors = Vec::new();
    let attempts = common::guess_and_double(common::guesses(max_guess), |guess| {
        let out = eid(
            g,
            &EidConfig {
                diameter: guess,
                seed,
                ..Default::default()
            },
        );
        let k_check = guess * u64::try_from(out.spanner.stretch_bound).expect("stretch fits u64");
        let check = termination::distributed_check(g, &out.spanner.spanner, k_check, &out.rumors);
        debug_assert!(check.unanimous, "Lemma 18: decisions must be unanimous");
        payload_units += out.payload_units;
        let attempt = Attempt {
            guess,
            rounds: out.total_rounds(),
            check_rounds: check.rounds,
            success: check.verdict() == Some(true),
        };
        rumors = out.rumors;
        attempt
    });
    GeneralEidOutcome {
        total_rounds: common::total_rounds(&attempts),
        complete: attempts.last().is_some_and(|a| a.success),
        attempts,
        payload_units,
        rumors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latency_graph::{generators, metrics};

    #[test]
    fn knowledge_map_merge_and_graph() {
        let g = generators::path(4);
        let mut a = KnowledgeMap::initial(&g, NodeId::new(0));
        let b = KnowledgeMap::initial(&g, NodeId::new(1));
        assert_eq!(a.len(), 1);
        assert!(a.merge(&b));
        assert!(!a.merge(&b));
        assert_eq!(a.len(), 2);
        let kg = a.to_graph(4);
        assert!(kg.contains_edge(NodeId::new(1), NodeId::new(2)));
        assert!(!kg.contains_edge(NodeId::new(2), NodeId::new(3)));
    }

    #[test]
    fn eid_completes_on_unit_graphs() {
        for g in [generators::cycle(16), generators::grid(4, 4)] {
            let d = metrics::weighted_diameter(&g);
            let out = eid(
                &g,
                &EidConfig {
                    diameter: d,
                    seed: 1,
                    ..Default::default()
                },
            );
            assert!(out.complete, "EID must finish at the true diameter");
            assert!(out.knowledge_sufficient);
            assert!(out.rumors.iter().all(gossip_sim::RumorSet::is_full));
        }
    }

    #[test]
    fn eid_completes_with_latencies() {
        let base = generators::connected_erdos_renyi(24, 0.25, 5).expect("connected sample");
        let g = generators::uniform_random_latencies(&base, 1, 6, 3);
        let d = metrics::weighted_diameter(&g);
        let out = eid(
            &g,
            &EidConfig {
                diameter: d,
                seed: 2,
                ..Default::default()
            },
        );
        assert!(out.complete);
    }

    #[test]
    fn eid_too_small_guess_fails_check() {
        // Latency-5 edges: a guess of 2 filters out every edge, so the
        // working graph is disconnected and dissemination cannot finish.
        let g = generators::path(16).map_latencies(|_, _, _| Latency::new(5));
        let out = eid(
            &g,
            &EidConfig {
                diameter: 2,
                seed: 0,
                ..Default::default()
            },
        );
        assert!(!out.complete);
        let verdict = termination_check(&g, &out.rumors);
        assert!(
            !verdict.success(),
            "the distributed check must detect failure"
        );
    }

    #[test]
    fn small_guess_may_legitimately_succeed_on_unit_graphs() {
        // On a unit-latency path, EID(1) already floods everything
        // (the RR budget k·Δout + k with k = 2·spanner stretch covers
        // D); the guess-and-double loop then stops at the first guess —
        // allowed and optimal.
        let g = generators::path(10);
        let out = general_eid(&g, 3, 64);
        assert!(out.complete);
        assert_eq!(out.attempts.last().unwrap().guess, 1);
    }

    #[test]
    fn knowledge_radius_grows_with_reps() {
        let g = generators::cycle(16);
        let d = metrics::weighted_diameter(&g);
        let out = eid(
            &g,
            &EidConfig {
                diameter: d,
                seed: 1,
                ..Default::default()
            },
        );
        // After k+1 reps, radius k+1 must be covered.
        let k = default_spanner_k(16);
        assert!(knowledge_covers_radius(&g, &out.knowledge, (k + 1) as u64));
    }

    #[test]
    fn local_spanner_computation_agrees() {
        // Theorem 14's core claim: local views + public coins ⇒ the same
        // spanner. Check for every node of a small graph.
        let g = generators::connected_erdos_renyi(18, 0.3, 7).expect("connected sample");
        let d = metrics::weighted_diameter(&g);
        let out = eid(
            &g,
            &EidConfig {
                diameter: d,
                seed: 9,
                ..Default::default()
            },
        );
        assert!(out.knowledge_sufficient);
        let k_s = default_spanner_k(18);
        for v in g.nodes() {
            assert!(
                local_spanner_agrees(&g, &out.knowledge, v, k_s, 9),
                "node {v} derived different out-arcs"
            );
        }
    }

    #[test]
    fn termination_check_flags_missing_neighbor() {
        let g = generators::path(3);
        let mut rumors = rr_broadcast::fresh_states(3);
        // Node 0 heard everyone; node 1 and 2 heard nothing new.
        rumors[0] = RumorSet::full(3);
        let v = termination_check(&g, &rumors);
        assert!(v.flags[1], "node 1 misses neighbor 2's rumor");
        assert!(!v.all_equal);
        assert!(!v.success());
    }

    #[test]
    fn termination_check_passes_when_full() {
        let g = generators::cycle(5);
        let rumors = vec![RumorSet::full(5); 5];
        assert!(termination_check(&g, &rumors).success());
    }

    #[test]
    fn general_eid_doubles_to_success() {
        // Latency-6 edges force the guess up to ≥ 6 before the working
        // graph is even connected.
        let g = generators::path(6).map_latencies(|_, _, _| Latency::new(6));
        let out = general_eid(&g, 3, 64);
        assert!(out.complete);
        let final_guess = out.attempts.last().unwrap().guess;
        assert!((6..=16).contains(&final_guess), "guess {final_guess}");
        // All earlier attempts failed their checks.
        for a in &out.attempts[..out.attempts.len() - 1] {
            assert!(!a.success);
        }
        assert!(out.rumors.iter().all(gossip_sim::RumorSet::is_full));
    }

    #[test]
    fn general_eid_total_within_constant_of_last() {
        let g = generators::path(12);
        let out = general_eid(&g, 0, 64);
        assert!(out.complete);
        let last = out.attempts.last().unwrap();
        let last_cost = last.rounds + last.check_rounds;
        assert!(
            out.total_rounds <= 4 * last_cost,
            "geometric doubling: total {} vs last {last_cost}",
            out.total_rounds
        );
    }

    #[test]
    fn general_eid_respects_max_guess() {
        // Latency-32 edges: guesses up to 4 never connect the graph.
        let g = generators::path(6).map_latencies(|_, _, _| Latency::new(32));
        let out = general_eid(&g, 0, 4);
        assert!(!out.complete);
        assert_eq!(out.attempts.last().unwrap().guess, 4);
    }

    #[test]
    fn d_log3n_shape() {
        // total rounds / (D log³ n) bounded across sizes on cycles.
        let mut ratios = Vec::new();
        for n in [8usize, 16, 32] {
            let g = generators::cycle(n);
            let d = metrics::weighted_diameter(&g) as f64;
            let out = eid(
                &g,
                &EidConfig {
                    diameter: d as u64,
                    seed: 1,
                    ..Default::default()
                },
            );
            assert!(out.complete);
            let l = (n as f64).log2();
            ratios.push(out.total_rounds() as f64 / (d * l * l * l));
        }
        let max = ratios.iter().copied().fold(0.0, f64::max);
        let min = ratios.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max / min < 8.0, "ratios {ratios:?}");
    }
}

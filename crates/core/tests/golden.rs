//! Golden-trace determinism suite.
//!
//! Pins the exact `rounds`, `SimMetrics` counters, and final rumor-set
//! fingerprints produced by fixed seeds on a portfolio of topologies
//! (cycle, star, clique, ring of cliques, and a heterogeneous-latency
//! cycle). The `rounds`/metrics constants were captured from the
//! pre-calendar-queue engine; every later engine change (the calendar
//! queue, the frontier loop) must reproduce them bit-for-bit, which
//! proves the optimizations are behavior-preserving. The Section 5
//! entries (local broadcast, EID, the guess-and-double loops, the
//! distributed termination check, latency discovery) pin the same way
//! what each entry point reports; the guess-and-double attempts are
//! read through `Debug`, by field order, not by field name.
//!
//! If a trace ever changes **intentionally** (e.g. the RNG stream or
//! the engagement ordering is deliberately altered), regenerate the
//! table by running this test and copying the `actual:` lines from the
//! failure output — but treat any unplanned diff here as an engine
//! regression.

use gossip_core::eid::{self, EidConfig};
use gossip_core::flooding::{self, FloodingConfig};
use gossip_core::push_pull::{self, Mode, PushPullConfig, PushPullNode};
use gossip_core::sparse::{self, SparseConfig, SparseOutcome};
use gossip_core::stream::{StreamConfig, StreamOutcome};
use gossip_core::unified::{self, UnifiedConfig};
use gossip_core::{discovery, dtg, path_discovery, superstep, termination};
use gossip_sim::{FaultPlan, Outcome, RumorSet, SimConfig, Simulator, StreamSpec};
use latency_graph::generators::layered_ring::{LayeredRing, LayeredRingSpec};
use latency_graph::generators::{self, extra};
use latency_graph::{metrics, Graph, Latency, NodeId};

/// Order-independent fold of per-node rumor fingerprints (FNV-style),
/// pinning the exact final state of every node, not just the counters.
fn fold_fingerprints<'a>(sets: impl Iterator<Item = &'a RumorSet>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in sets {
        h ^= s.fingerprint();
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One pinned trace: a machine-comparable summary of an [`Outcome`].
fn fmt(rounds: u64, m: &gossip_sim::SimMetrics, fingerprint: u64) -> String {
    format!(
        "rounds={} initiated={} delivered={} lost={} rejected={} payload_units={} fingerprint={:016x}",
        rounds, m.initiated, m.delivered, m.lost, m.rejected, m.payload_units, fingerprint
    )
}

/// Formats a high-level [`gossip_core::common::BroadcastOutcome`].
fn fmt_broadcast(o: &gossip_core::common::BroadcastOutcome) -> String {
    fmt(o.rounds, &o.metrics, fold_fingerprints(o.rumors.iter()))
}

/// Formats a [`SparseOutcome`]; [`CompactRumorSet::fingerprint`] is
/// bit-identical to the plain bitset's, so the fold matches what an
/// uncompressed run would pin.
fn fmt_sparse(o: &SparseOutcome) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in &o.rumors {
        h ^= s.fingerprint();
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    fmt(o.rounds, &o.metrics, h)
}

fn sparse_config() -> SparseConfig {
    SparseConfig {
        max_rounds: 1_000_000,
        ..SparseConfig::default()
    }
}

/// [`fmt_sparse`] plus the run's [`gossip_sim::EngineStats`]: how the
/// frontier engine executed, not only what the protocol did.
fn fmt_sparse_with_stats(o: &SparseOutcome) -> String {
    let s = &o.stats;
    format!(
        "{} stepped={} woken={} event_rounds={} skipped_rounds={} peak_frontier={}",
        fmt_sparse(o),
        s.stepped,
        s.woken,
        s.event_rounds,
        s.skipped_rounds,
        s.peak_frontier
    )
}

/// Formats a [`StreamOutcome`]: the shared counter line (fingerprint
/// folds the per-node acquisition logs) plus the per-rumor global
/// completion-round curve, pinned literally.
fn fmt_stream(o: &StreamOutcome) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for l in &o.logs {
        h ^= l.fingerprint();
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    let curve: Vec<String> = o
        .completions
        .iter()
        .map(|c| c.map_or_else(|| "-".to_string(), |r| r.to_string()))
        .collect();
    format!(
        "{} completions=[{}]",
        fmt(o.rounds, &o.metrics, h),
        curve.join(",")
    )
}

fn stream(
    g: &Graph,
    spec: &StreamSpec,
    seed: u64,
    run: fn(&Graph, &StreamSpec, &StreamConfig, u64) -> StreamOutcome,
) -> String {
    let cfg = StreamConfig {
        max_rounds: 1_000_000,
        ..StreamConfig::default()
    };
    fmt_stream(&run(g, spec, &cfg, seed))
}

fn fmt_outcome(out: &Outcome<PushPullNode>) -> String {
    fmt(
        out.rounds,
        &out.metrics,
        fold_fingerprints(out.nodes.iter().map(|p| &p.rumors)),
    )
}

/// Runs push-pull all-the-way (every node learns every rumor) under a
/// raw `SimConfig`, so the golden table can exercise `connection_cap`
/// and `blocking` — knobs the high-level wrappers don't expose.
fn raw_push_pull(g: &Graph, cfg: SimConfig) -> String {
    let out = Simulator::new(g, cfg).run(
        |id, n| PushPullNode::new(id, n, Mode::PushPull),
        |nodes: &[PushPullNode], _| nodes.iter().all(|p| p.rumors.is_full()),
    );
    fmt_outcome(&out)
}

/// Like [`raw_push_pull`] but with a [`FaultPlan`] applied. Crashed
/// nodes can never become full, so the run is bounded by
/// `cfg.max_rounds` and the trace pins the loss accounting as well as
/// the schedule.
fn faulty_push_pull(g: &Graph, cfg: SimConfig, plan: FaultPlan) -> String {
    let out = Simulator::new(g, cfg).with_faults(plan).run(
        |id, n| PushPullNode::new(id, n, Mode::PushPull),
        |nodes: &[PushPullNode], _| nodes.iter().all(|p| p.rumors.is_full()),
    );
    fmt_outcome(&out)
}

/// The Section 5 portfolio graph: 24 nodes, latencies 1..=3, so the
/// `ℓ = 2` local broadcasts drop some edges and the diameter guesses
/// of the guess-and-double loops fail before they succeed.
fn section5_graph() -> Graph {
    let base = generators::connected_erdos_renyi(24, 0.25, 5);
    generators::uniform_random_latencies(&base, 1, 3, 3)
}

/// The field values of a `Debug`-printed attempt record, in order,
/// without the field names: `guess/rounds/check_rounds/success`.
fn attempt_values(debug: &str) -> String {
    let body = &debug[debug.find('{').expect("a struct") + 1..debug.rfind('}').expect("a struct")];
    body.split(", ")
        .map(|field| field.split(": ").nth(1).expect("name: value").trim())
        .collect::<Vec<_>>()
        .join("/")
}

/// Every attempt of a guess-and-double run, as [`attempt_values`].
fn fmt_attempts<A: std::fmt::Debug>(attempts: &[A]) -> String {
    let values: Vec<String> = attempts
        .iter()
        .map(|a| attempt_values(&format!("{a:?}")))
        .collect();
    format!("attempts=[{}]", values.join(","))
}

struct Case {
    name: &'static str,
    expected: &'static str,
    /// Replays the case; the output must match `expected`.
    run: fn() -> String,
}

/// The golden table. `expected` strings are captured engine output.
fn cases() -> Vec<Case> {
    vec![
        // --- cycle(64), unit latencies ---
        Case {
            name: "cycle64/push_pull/broadcast/seed7",
            expected:
                "rounds=41 initiated=2624 delivered=2624 lost=0 rejected=0 payload_units=163227 fingerprint=00a268ccb405a934",
            run: || {
                let g = generators::cycle(64);
                let o = push_pull::broadcast(&g, NodeId::new(0), &PushPullConfig::default(), 7);
                fmt_broadcast(&o)
            },
        },
        Case {
            name: "cycle64/push_pull/all_to_all/seed11",
            expected:
                "rounds=48 initiated=3072 delivered=3072 lost=0 rejected=0 payload_units=217877 fingerprint=11a0815ea2a37c65",
            run: || {
                let g = generators::cycle(64);
                let o = push_pull::all_to_all(&g, &PushPullConfig::default(), 11);
                fmt_broadcast(&o)
            },
        },
        Case {
            name: "cycle64/flooding/broadcast/seed3",
            expected:
                "rounds=32 initiated=2048 delivered=2048 lost=0 rejected=0 payload_units=4096 fingerprint=30699bd6903ebbb0",
            run: || {
                let g = generators::cycle(64);
                let o = flooding::broadcast(&g, NodeId::new(0), &FloodingConfig::default(), 3);
                fmt_broadcast(&o)
            },
        },
        // --- star(65): hub contention, rejection paths under a cap ---
        Case {
            name: "star65/push_pull/broadcast/seed7",
            expected: "rounds=1 initiated=65 delivered=65 lost=0 rejected=0 payload_units=130 fingerprint=e008c646d417a73b",
            run: || {
                let g = generators::star(65);
                let o = push_pull::broadcast(&g, NodeId::new(0), &PushPullConfig::default(), 7);
                fmt_broadcast(&o)
            },
        },
        Case {
            name: "star65/push_pull/raw/cap1/seed5",
            expected:
                "rounds=443 initiated=443 delivered=443 lost=0 rejected=28352 payload_units=45132 fingerprint=a60adbcb6b5ecc84",
            run: || {
                let g = generators::star(65);
                let cfg = SimConfig {
                    seed: 5,
                    max_rounds: 100_000,
                    connection_cap: Some(1),
                    ..SimConfig::default()
                };
                raw_push_pull(&g, cfg)
            },
        },
        Case {
            name: "star65/push_pull/raw/blocking/seed5",
            expected: "rounds=2 initiated=130 delivered=130 lost=0 rejected=0 payload_units=4485 fingerprint=a60adbcb6b5ecc84",
            run: || {
                let g = generators::star(65);
                let cfg = SimConfig {
                    seed: 5,
                    max_rounds: 100_000,
                    blocking: true,
                    ..SimConfig::default()
                };
                raw_push_pull(&g, cfg)
            },
        },
        // --- clique(32): dense, fast mixing ---
        Case {
            name: "clique32/push_pull/broadcast/seed7",
            expected: "rounds=5 initiated=160 delivered=160 lost=0 rejected=0 payload_units=3820 fingerprint=d92fe44449501ee4",
            run: || {
                let g = generators::clique(32);
                let o = push_pull::broadcast(&g, NodeId::new(0), &PushPullConfig::default(), 7);
                fmt_broadcast(&o)
            },
        },
        Case {
            name: "clique32/push_pull/all_to_all/seed2",
            expected: "rounds=7 initiated=224 delivered=224 lost=0 rejected=0 payload_units=7826 fingerprint=e6ddda157291a285",
            run: || {
                let g = generators::clique(32);
                let o = push_pull::all_to_all(&g, &PushPullConfig::default(), 2);
                fmt_broadcast(&o)
            },
        },
        Case {
            name: "clique32/flooding/all_to_all/seed9",
            expected: "rounds=3 initiated=96 delivered=96 lost=0 rejected=0 payload_units=192 fingerprint=e6ddda157291a285",
            run: || {
                let g = generators::clique(32);
                let o = flooding::all_to_all(&g, &FloodingConfig::default(), 9);
                fmt_broadcast(&o)
            },
        },
        // --- ring_of_cliques(6, 8, bridge latency 4): multi-round
        //     in-flight exchanges exercise the scheduler's ring slots ---
        Case {
            name: "ring_of_cliques_6x8_l4/push_pull/broadcast/seed7",
            expected:
                "rounds=35 initiated=1680 delivered=1675 lost=0 rejected=0 payload_units=92754 fingerprint=cede52272ac0d415",
            run: || {
                let g = extra::ring_of_cliques(6, 8, 4);
                let o = push_pull::broadcast(&g, NodeId::new(0), &PushPullConfig::default(), 7);
                fmt_broadcast(&o)
            },
        },
        Case {
            name: "ring_of_cliques_6x8_l4/push_pull/all_to_all/seed13",
            expected:
                "rounds=35 initiated=1680 delivered=1672 lost=0 rejected=0 payload_units=91039 fingerprint=cede52272ac0d415",
            run: || {
                let g = extra::ring_of_cliques(6, 8, 4);
                let o = push_pull::all_to_all(&g, &PushPullConfig::default(), 13);
                fmt_broadcast(&o)
            },
        },
        Case {
            name: "ring_of_cliques_6x8_l4/push_pull/raw/cap2/seed1",
            expected:
                "rounds=43 initiated=1459 delivered=1458 lost=0 rejected=605 payload_units=79009 fingerprint=cede52272ac0d415",
            run: || {
                let g = extra::ring_of_cliques(6, 8, 4);
                let cfg = SimConfig {
                    seed: 1,
                    max_rounds: 100_000,
                    connection_cap: Some(2),
                    ..SimConfig::default()
                };
                raw_push_pull(&g, cfg)
            },
        },
        // --- cycle(48) with geometric latencies in 1..=9: heterogeneous
        //     completion times stress slot indexing `round % (ℓ_max+1)` ---
        Case {
            name: "geom_cycle48/push_pull/broadcast/seed7",
            expected:
                "rounds=47 initiated=2256 delivered=2225 lost=0 rejected=0 payload_units=103076 fingerprint=6574062dfdf109f7",
            run: || {
                let g = extra::geometric_latencies(&generators::cycle(48), 0.5, 9, 42);
                let o = push_pull::broadcast(&g, NodeId::new(0), &PushPullConfig::default(), 7);
                fmt_broadcast(&o)
            },
        },
        Case {
            name: "geom_cycle48/flooding/broadcast/seed4",
            expected:
                "rounds=40 initiated=1920 delivered=1886 lost=0 rejected=0 payload_units=3772 fingerprint=3af6fe58549903aa",
            run: || {
                let g = extra::geometric_latencies(&generators::cycle(48), 0.5, 9, 42);
                let o = flooding::broadcast(&g, NodeId::new(0), &FloodingConfig::default(), 4);
                fmt_broadcast(&o)
            },
        },
        Case {
            name: "geom_cycle48/push_pull/raw/blocking/seed8",
            expected:
                "rounds=64 initiated=2135 delivered=2125 lost=0 rejected=937 payload_units=111601 fingerprint=cede52272ac0d415",
            run: || {
                let g = extra::geometric_latencies(&generators::cycle(48), 0.5, 9, 42);
                let cfg = SimConfig {
                    seed: 8,
                    max_rounds: 100_000,
                    blocking: true,
                    ..SimConfig::default()
                };
                raw_push_pull(&g, cfg)
            },
        },
        // --- fault injection: crashes and link drops must perturb the
        //     schedule in exactly the same way on every run ---
        Case {
            name: "cycle64/push_pull/faults/crashes/seed7",
            expected:
                "rounds=60 initiated=3673 delivered=3501 lost=172 rejected=0 payload_units=184792 fingerprint=3572052c06002dfa",
            run: || {
                let g = generators::cycle(64);
                let cfg = SimConfig {
                    seed: 7,
                    max_rounds: 60,
                    ..SimConfig::default()
                };
                let plan = FaultPlan::none()
                    .crash(NodeId::new(5), 3)
                    .crash(NodeId::new(40), 10)
                    .crash(NodeId::new(63), 0);
                faulty_push_pull(&g, cfg, plan)
            },
        },
        Case {
            name: "ring_of_cliques_6x8_l4/push_pull/faults/link_drops/seed13",
            expected:
                "rounds=80 initiated=3840 delivered=3797 lost=39 rejected=0 payload_units=210079 fingerprint=07fff6ffa6acba65",
            run: || {
                let g = extra::ring_of_cliques(6, 8, 4);
                let cfg = SimConfig {
                    seed: 13,
                    max_rounds: 80,
                    ..SimConfig::default()
                };
                // Sever two of the six latency-4 bridges mid-run; the
                // in-flight exchanges crossing them at the drop round are
                // lost, not delivered late.
                let plan = FaultPlan::none()
                    .drop_link(NodeId::new(7), NodeId::new(8), 6)
                    .drop_link(NodeId::new(23), NodeId::new(24), 12);
                faulty_push_pull(&g, cfg, plan)
            },
        },
        // --- frontier-sparse engine: on-demand flooding with compact
        //     rumor payloads ---
        Case {
            name: "layered_ring_21x48_l512/sparse_flood/seed3",
            expected: "rounds=1392 initiated=131863 delivered=92166 lost=0 rejected=0 payload_units=155486 fingerprint=e1274af3f72ca815",
            run: || {
                // The Theorem 8 construction: latency-1 layer cliques,
                // slow (ℓ = 512) bipartite gadgets, one hidden fast
                // edge per layer pair. Straggler deliveries on the slow
                // edges pepper the whole timeline, so this pins the
                // frontier engine's busy-round path (no calendar gaps);
                // the 2-node slow-path test in `sparse` pins gap
                // skipping.
                let ring = LayeredRing::generate(&LayeredRingSpec {
                    n: 512,
                    alpha: 0.0625,
                    ell: 512,
                    seed: 3,
                });
                fmt_sparse(&sparse::flood_broadcast(&ring.graph, NodeId::new(0), &sparse_config(), 3))
            },
        },
        // --- streaming workloads: k = 8 rumors, budget = 2 payload
        //     units per exchange direction, staggered injections
        //     (DESIGN.md §16). The completion curve is the per-rumor
        //     global completion round, literally ---
        Case {
            name: "cycle64/rr_stream/k8b2/seed7",
            expected:
                "rounds=73 initiated=4672 delivered=4672 lost=0 rejected=0 payload_units=1045 fingerprint=c87931fd34e1647c completions=[61,64,67,68,62,68,67,73]",
            run: || {
                let g = generators::cycle(64);
                let spec = StreamSpec::spread(8, 2, 64);
                stream(&g, &spec, 7, gossip_core::stream::rr_stream)
            },
        },
        Case {
            name: "cycle64/rlc_stream/k8b2/seed7",
            expected:
                "rounds=68 initiated=4352 delivered=4352 lost=0 rejected=0 payload_units=16248 fingerprint=275f482803f2c51d completions=[56,54,68,56,57,53,57,54]",
            run: || {
                let g = generators::cycle(64);
                let spec = StreamSpec::spread(8, 2, 64);
                stream(&g, &spec, 7, gossip_core::stream::rlc_stream)
            },
        },
        Case {
            name: "ring_of_cliques_6x8_l4/rr_stream/k8b2/seed13",
            expected:
                "rounds=44 initiated=2112 delivered=2108 lost=0 rejected=0 payload_units=2765 fingerprint=0e5e11ebb2b66029 completions=[27,44,37,38,31,30,34,43]",
            run: || {
                let g = extra::ring_of_cliques(6, 8, 4);
                let spec = StreamSpec::spread(8, 2, 48);
                stream(&g, &spec, 13, gossip_core::stream::rr_stream)
            },
        },
        Case {
            name: "ring_of_cliques_6x8_l4/rlc_stream/k8b2/seed13",
            expected:
                "rounds=47 initiated=2256 delivered=2255 lost=0 rejected=0 payload_units=8440 fingerprint=9db5275b0a19894f completions=[31,37,29,41,25,37,46,47]",
            run: || {
                let g = extra::ring_of_cliques(6, 8, 4);
                let spec = StreamSpec::spread(8, 2, 48);
                stream(&g, &spec, 13, gossip_core::stream::rlc_stream)
            },
        },
        Case {
            name: "random_geometric_100k/sparse_flood/seed1",
            expected: "rounds=707 initiated=1787954 delivered=1787907 lost=0 rejected=0 payload_units=3428047 fingerprint=b533b772e8bf7b25",
            run: || {
                // 10⁵ nodes: only viable because the engine steps the
                // O(frontier) active set and payloads stay O(1) words
                // (one-rumor CompactRumorSet), pinning the sparse path
                // at scale.
                let g = generators::random_geometric(100_000, 0.00757, 200.0, 1);
                fmt_sparse(&sparse::flood_broadcast(&g, NodeId::new(0), &sparse_config(), 1))
            },
        },
        Case {
            name: "random_geometric_2048/sparse_push/seed5eed",
            expected: "rounds=324 initiated=340203 delivered=326835 lost=0 rejected=0 payload_units=646496 fingerprint=09cb053efd287b25 stepped=342250 woken=340203 event_rounds=325 skipped_rounds=0 peak_frontier=2048",
            run: || {
                // The RNG-driven on-demand protocol: every informed
                // node keeps a standing wakeup and draws a neighbor
                // per round, so — unlike the floods — the trace moves
                // with the per-node RNG stream and with how `wake_in`
                // re-files the frontier.
                let g = generators::random_geometric(2048, 0.0529, 200.0, 1);
                assert!(g.is_connected());
                let o = sparse::push_broadcast(&g, NodeId::new(0), &sparse_config(), 0x5eed);
                fmt_sparse_with_stats(&o)
            },
        },
        // --- Section 5: local broadcast, EID, the guess-and-double
        //     loops and their termination check, latency discovery ---
        Case {
            name: "section5_er24/dtg/local_broadcast/ell2",
            expected: "rounds=11 initiated=132 delivered=124 lost=0 rejected=0 payload_units=2037 fingerprint=e36f3259747f9e27",
            run: || fmt_broadcast(&dtg::local_broadcast(&section5_graph(), Latency::new(2))),
        },
        Case {
            name: "section5_er24/superstep/local_broadcast/ell2/seed5",
            expected: "rounds=6 initiated=84 delivered=82 lost=0 rejected=0 payload_units=523 fingerprint=3428b21fa1ef4b67",
            run: || {
                fmt_broadcast(&superstep::local_broadcast(
                    &section5_graph(),
                    Latency::new(2),
                    5,
                ))
            },
        },
        Case {
            name: "section5_er24/eid/true_diameter/seed2",
            expected: "discovery_rounds=4704 rr_rounds=504 rr_budget=504 complete=true knowledge_sufficient=true payload_units=678424 fingerprint=18c0d88aaf03c905",
            run: || {
                let g = section5_graph();
                let cfg = EidConfig {
                    diameter: metrics::weighted_diameter(&g),
                    seed: 2,
                    ..EidConfig::default()
                };
                let o = eid::eid(&g, &cfg);
                format!(
                    "discovery_rounds={} rr_rounds={} rr_budget={} complete={} knowledge_sufficient={} payload_units={} fingerprint={:016x}",
                    o.discovery_rounds,
                    o.rr_rounds,
                    o.rr_budget,
                    o.complete,
                    o.knowledge_sufficient,
                    o.payload_units,
                    fold_fingerprints(o.rumors.iter())
                )
            },
        },
        Case {
            name: "section5_er24/general_eid/seed4",
            expected: "total_rounds=2502 complete=true payload_units=280822 fingerprint=18c0d88aaf03c905 attempts=[1/708/72/false,2/1470/252/true]",
            run: || {
                let o = eid::general_eid(&section5_graph(), 4, 1 << 10);
                format!(
                    "total_rounds={} complete={} payload_units={} fingerprint={:016x} {}",
                    o.total_rounds,
                    o.complete,
                    o.payload_units,
                    fold_fingerprints(o.rumors.iter()),
                    fmt_attempts(&o.attempts)
                )
            },
        },
        Case {
            name: "path12_l4/general_eid/capped5/seed1",
            expected: "total_rounds=3255 complete=true payload_units=16163 fingerprint=c6f4502e2c4301d5 attempts=[1/427/14/false,2/854/28/false,4/1764/168/true]",
            run: || {
                // D = 44 > 5: every guess fails, the last one clamped.
                let g = generators::path(12).map_latencies(|_, _, _| Latency::new(4));
                let o = eid::general_eid(&g, 1, 5);
                format!(
                    "total_rounds={} complete={} payload_units={} fingerprint={:016x} {}",
                    o.total_rounds,
                    o.complete,
                    o.payload_units,
                    fold_fingerprints(o.rumors.iter()),
                    fmt_attempts(&o.attempts)
                )
            },
        },
        Case {
            name: "section5_er24/path_discovery",
            expected: "total_rounds=5712 complete=true fingerprint=18c0d88aaf03c905 attempts=[1/112/224/false,2/448/896/false,4/1344/2688/true]",
            run: || {
                let o = path_discovery::path_discovery(&section5_graph(), 1 << 10);
                format!(
                    "total_rounds={} complete={} fingerprint={:016x} {}",
                    o.total_rounds,
                    o.complete,
                    fold_fingerprints(o.rumors.iter()),
                    fmt_attempts(&o.attempts)
                )
            },
        },
        Case {
            name: "path12_l4/path_discovery/capped5",
            expected: "total_rounds=4284 complete=false fingerprint=aecc3bdf1a99d279 attempts=[1/84/168/false,2/336/672/false,4/1008/2016/false]",
            run: || {
                // Guesses stay powers of two: 1, 2, 4 under a cap of 5.
                let g = generators::path(12).map_latencies(|_, _, _| Latency::new(4));
                let o = path_discovery::path_discovery(&g, 5);
                format!(
                    "total_rounds={} complete={} fingerprint={:016x} {}",
                    o.total_rounds,
                    o.complete,
                    fold_fingerprints(o.rumors.iter()),
                    fmt_attempts(&o.attempts)
                )
            },
        },
        Case {
            name: "section5_er24/unified/known/seed3",
            expected: "UnifiedReport { push_pull_rounds: Some(11), spanner_rounds: Some(2340), discovery_rounds: 0, winner: PushPull }",
            run: || {
                let cfg = UnifiedConfig {
                    latency_known: true,
                    ..UnifiedConfig::default()
                };
                format!("{:?}", unified::all_to_all(&section5_graph(), &cfg, 3))
            },
        },
        Case {
            name: "section5_er24/unified/unknown/seed3",
            expected: "UnifiedReport { push_pull_rounds: Some(11), spanner_rounds: Some(2380), discovery_rounds: 40, winner: PushPull }",
            run: || {
                format!(
                    "{:?}",
                    unified::all_to_all(&section5_graph(), &UnifiedConfig::default(), 3)
                )
            },
        },
        Case {
            name: "section5_er24/distributed_check/truncated_eid/guess1/seed6",
            expected: "rumor_fingerprint=4d4d367f943c1955 rounds=72 unanimous=true verdict=Some(false) decisions=000000000000000000000000",
            run: || {
                // EID at guess 1 drops every latency-2 and -3 edge, so
                // the check runs on rumor sets that are not all full.
                let g = section5_graph();
                let cfg = EidConfig {
                    diameter: 1,
                    seed: 6,
                    ..EidConfig::default()
                };
                let o = eid::eid(&g, &cfg);
                let k = u64::try_from(o.spanner.stretch_bound).unwrap();
                let check = termination::distributed_check(&g, &o.spanner.spanner, k, &o.rumors);
                let decisions: String = check
                    .decisions
                    .iter()
                    .map(|&d| if d { '1' } else { '0' })
                    .collect();
                format!(
                    "rumor_fingerprint={:016x} rounds={} unanimous={} verdict={:?} decisions={decisions}",
                    fold_fingerprints(o.rumors.iter()),
                    check.rounds,
                    check.unanimous,
                    check.verdict()
                )
            },
        },
        Case {
            name: "section5_er24/discover_latencies/window2",
            expected: "rounds=13 complete=false measured_arcs=108 measured=d5e54c51aa21ec75",
            run: || {
                let o = discovery::discover_latencies(&section5_graph(), 2);
                // FNV-style fold of every measured (node, neighbor,
                // latency) triple, in measurement order.
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                let mut arcs = 0;
                for (u, list) in o.measured.iter().enumerate() {
                    for &(v, l) in list {
                        for x in [u, v.index(), l.rounds() as usize] {
                            h ^= x as u64;
                            h = h.wrapping_mul(0x100_0000_01b3);
                        }
                        arcs += 1;
                    }
                }
                format!(
                    "rounds={} complete={} measured_arcs={arcs} measured={h:016x}",
                    o.rounds, o.complete
                )
            },
        },
    ]
}

#[test]
fn golden_traces_hold() {
    let mut failures = Vec::new();
    for c in cases() {
        let actual = (c.run)();
        if actual != c.expected {
            failures.push(format!(
                "{}\n  expected: {}\n  actual:   {}",
                c.name, c.expected, actual
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} golden trace(s) diverged:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

//! Peer-to-peer publish–subscribe under link churn — the paper's third
//! motivating workload, plus its concluding observation: "push-pull is
//! relatively robust to failures, while our other approaches are not."
//!
//! An overlay network of peers with heterogeneous link latencies
//! publishes an event from one peer. Overlay links fail (drop) with a
//! growing probability. Push-pull randomizes over *all* of the dense
//! overlay's links and routes around failures; the precomputed spanner
//! has no redundancy — every lost arc is structural — so its broadcast
//! stalls or disconnects.
//!
//! ```sh
//! cargo run --example p2p_pubsub
//! ```

use gossip_latencies::graph::{generators, metrics, NodeId};
use gossip_latencies::protocols::eid::{self, EidConfig};
use gossip_latencies::protocols::push_pull::PushPullNode;
use gossip_latencies::protocols::rr_broadcast;
use gossip_latencies::sim::{FaultPlan, RumorSet, SimConfig, Simulator};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn main() {
    // A 64-peer overlay: dense random graph, latencies 1–8. The
    // spanner prunes 773 edges down to ~300 arcs — efficiency that
    // becomes fragility under churn.
    let base = generators::connected_erdos_renyi(64, 0.4, 4).expect("connected sample");
    let g = generators::uniform_random_latencies(&base, 1, 8, 4);
    let n = g.node_count();
    let d = metrics::weighted_diameter(&g);
    let source = NodeId::new(0);
    println!("overlay: n = {n}, m = {}, D = {d}", g.edge_count());

    // Precompute the spanner once (as a pub-sub overlay would).
    let pipeline = eid::eid(
        &g,
        &EidConfig {
            diameter: d,
            seed: 2,
            ..Default::default()
        },
    );
    let spanner = &pipeline.spanner.spanner;
    println!(
        "precomputed spanner: {} arcs, Δout = {}",
        spanner.arc_count(),
        pipeline.spanner.max_out_degree()
    );

    let horizon = 60u64;
    println!("\nlink-drop%      push-pull            spanner        (cap {horizon} rounds)");
    for drop_percent in [0u32, 20, 40, 60, 80] {
        let p = drop_percent as f64 / 100.0;
        // Drop each overlay link independently with probability p at
        // round 2, mid-broadcast.
        let mut rng = StdRng::seed_from_u64(1000 + drop_percent as u64);
        let mut faults = FaultPlan::none();
        for (u, v, _) in g.edges() {
            if rng.random::<f64>() < p {
                faults = faults.drop_link(u, v, 2);
            }
        }

        let cfg = SimConfig {
            max_rounds: horizon,
            seed: 7,
            ..SimConfig::default()
        };
        let pp = Simulator::new(&g, cfg).with_faults(faults.clone()).run(
            |id, n| PushPullNode::new(id, n, Default::default()),
            |nodes: &[PushPullNode], _| nodes.iter().all(|x| x.rumors.contains(source)),
        );
        let pp_informed = pp
            .nodes
            .iter()
            .filter(|x| x.rumors.contains(source))
            .count();

        let rr = Simulator::new(&g, cfg).with_faults(faults).run(
            |id, n| {
                rr_broadcast::RrNode::new(
                    RumorSet::singleton(n, id),
                    spanner.out_neighbors(id).iter().map(|&(v, _)| v).collect(),
                )
            },
            |nodes: &[rr_broadcast::RrNode], _| nodes.iter().all(|x| x.rumors.contains(source)),
        );
        let rr_informed = rr
            .nodes
            .iter()
            .filter(|x| x.rumors.contains(source))
            .count();

        let fmt = |informed: usize, rounds: u64| {
            if informed == n {
                format!("{rounds:>3} rounds")
            } else {
                format!("{informed}/{n} informed")
            }
        };
        println!(
            "{drop_percent:>9}%  {:>18}   {:>18}",
            fmt(pp_informed, pp.rounds),
            fmt(rr_informed, rr.rounds),
        );
    }
    println!(
        "\npush-pull randomizes over every surviving overlay link and routes \
         around failures;\nthe spanner spent its redundancy on efficiency and \
         cannot (paper, Section 7)."
    );
}

//! E15 — robustness under faults (the paper's concluding observation).

use gossip_core::eid::{self, EidConfig};
use gossip_core::push_pull::PushPullNode;
use gossip_core::rr_broadcast::RrNode;
use gossip_sim::{FaultPlan, RumorSet, SimConfig, Simulator};
use latency_graph::{generators, metrics, NodeId};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::table::{f, Table};

/// E15 — drop a growing fraction of links mid-broadcast on a dense
/// overlay: push-pull reroutes over surviving edges; the precomputed
/// spanner, having traded redundancy for efficiency, stalls and
/// eventually strands nodes ("push-pull is relatively robust to
/// failures, while our other approaches are not", Section 7).
pub fn e15_fault_tolerance() -> Table {
    let mut t = Table::new(
        "E15 — robustness under link failures (Section 7)",
        &[
            "drop %",
            "push-pull informed",
            "push-pull rounds",
            "spanner informed",
            "spanner rounds",
        ],
    );
    let base = generators::connected_erdos_renyi(64, 0.4, 4).expect("connected sample");
    let g = generators::uniform_random_latencies(&base, 1, 8, 4);
    let n = g.node_count();
    let d = metrics::weighted_diameter(&g);
    let source = NodeId::new(0);
    let pipeline = eid::eid(
        &g,
        &EidConfig {
            diameter: d,
            seed: 2,
            ..Default::default()
        },
    );
    let spanner = &pipeline.spanner.spanner;

    let horizon = 80u64;
    for drop_percent in [0u32, 20, 40, 60, 80] {
        let p = drop_percent as f64 / 100.0;
        let trials = 3u64;
        let per_trial = crate::parallel::parallel_trials_auto(trials, |trial| {
            let mut rng = StdRng::seed_from_u64(1000 + drop_percent as u64 * 17 + trial);
            let mut faults = FaultPlan::none();
            for (u, v, _) in g.edges() {
                if rng.random::<f64>() < p {
                    faults = faults.drop_link(u, v, 2);
                }
            }
            let cfg = SimConfig {
                max_rounds: horizon,
                seed: 7 + trial,
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
                    RrNode::new(
                        RumorSet::singleton(n, id),
                        spanner.out_neighbors(id).iter().map(|&(v, _)| v).collect(),
                    )
                },
                |nodes: &[RrNode], _| nodes.iter().all(|x| x.rumors.contains(source)),
            );
            let rr_informed = rr
                .nodes
                .iter()
                .filter(|x| x.rumors.contains(source))
                .count();
            (pp_informed, pp.rounds, rr_informed, rr.rounds)
        });
        let mut pp_informed_total = 0usize;
        let mut pp_rounds_total = 0u64;
        let mut rr_informed_total = 0usize;
        let mut rr_rounds_total = 0u64;
        for (ppi, ppr, rri, rrr) in per_trial {
            pp_informed_total += ppi;
            pp_rounds_total += ppr;
            rr_informed_total += rri;
            rr_rounds_total += rrr;
        }
        let tf = trials as f64;
        t.row(vec![
            drop_percent.to_string(),
            format!("{}/{n}", f(pp_informed_total as f64 / tf)),
            f(pp_rounds_total as f64 / tf),
            format!("{}/{n}", f(rr_informed_total as f64 / tf)),
            f(rr_rounds_total as f64 / tf),
        ]);
    }
    t.note("expectation: push-pull coverage stays near n/n with mildly growing rounds; spanner coverage collapses at high drop rates");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e15_push_pull_more_robust_at_high_drop() {
        let t = e15_fault_tolerance();
        let last = t.rows.last().unwrap();
        let pp: f64 = last[1].split('/').next().unwrap().parse().unwrap();
        let rr: f64 = last[3].split('/').next().unwrap().parse().unwrap();
        assert!(
            pp >= rr,
            "push-pull must not be less robust: pp={pp} rr={rr}"
        );
    }
}

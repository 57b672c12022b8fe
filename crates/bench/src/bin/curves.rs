//! Emits CSV curve data for plotting: dissemination curves (informed
//! fraction per round) for several algorithms, and guessing-game
//! survival curves against the Lemma 4 analytic bound.
//!
//! ```sh
//! cargo run --release -p gossip-bench --bin curves -- dissemination > diss.csv
//! cargo run --release -p gossip-bench --bin curves -- survival > surv.csv
//! ```

use gossip_core::flooding::FloodingNode;
use gossip_core::push_pull::PushPullNode;
use gossip_sim::{Protocol, SimConfig, Simulator};
use guessing_game::strategy::{ColumnSweep, RandomMatching};
use guessing_game::{analysis, Predicate};
use latency_graph::{generators, Graph, NodeId};

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();
    match mode.as_str() {
        "dissemination" => dissemination(),
        "survival" => survival(),
        _ => {
            eprintln!("usage: curves <dissemination | survival>");
            std::process::exit(2);
        }
    }
}

/// Tracks the informed count per round for any rumor-carrying protocol.
fn informed_curve<P, F>(g: &Graph, factory: F, informed: impl Fn(&P) -> bool) -> Vec<usize>
where
    P: Protocol,
    F: FnMut(NodeId, usize) -> P,
{
    let curve = std::cell::RefCell::new(Vec::new());
    let n = g.node_count();
    let _ = Simulator::new(
        g,
        SimConfig {
            seed: 7,
            max_rounds: 1_000_000,
            ..Default::default()
        },
    )
    .run(factory, |nodes: &[P], _| {
        let count = nodes.iter().filter(|p| informed(p)).count();
        curve.borrow_mut().push(count);
        count == n
    });
    curve.into_inner()
}

fn dissemination() {
    let source = NodeId::new(0);
    let graphs: Vec<(&str, Graph)> = vec![
        ("clique64", generators::clique(64)),
        ("barbell32_lat16", generators::barbell(32, 16)),
        (
            "gadget_p0.1_l4",
            generators::theorem7_network(32, 0.1, 4, 5).graph,
        ),
    ];
    println!("graph,algorithm,round,informed,n");
    for (name, g) in graphs {
        let n = g.node_count();
        let pp = informed_curve(
            &g,
            |id, n| PushPullNode::new(id, n, Default::default()),
            |p: &PushPullNode| p.rumors.contains(source),
        );
        for (round, count) in pp.iter().enumerate() {
            println!("{name},push-pull,{round},{count},{n}");
        }
        let fl = informed_curve(&g, FloodingNode::new, |p: &FloodingNode| {
            p.rumors.contains(source)
        });
        for (round, count) in fl.iter().enumerate() {
            println!("{name},flooding,{round},{count},{n}");
        }
    }
}

fn survival() {
    let m = 32;
    let horizon = 14;
    let trials = 500;
    println!("round,analytic_lower_bound,adaptive_measured,oblivious_measured");
    let adaptive = analysis::empirical_survival(
        m,
        &Predicate::Singleton,
        ColumnSweep::new,
        horizon,
        trials,
        1,
    );
    let oblivious = analysis::empirical_survival(
        m,
        &Predicate::Singleton,
        RandomMatching::new,
        horizon,
        trials,
        2,
    );
    for t in 0..horizon as usize {
        println!(
            "{},{:.4},{:.4},{:.4}",
            t + 1,
            analysis::lemma4_survival_bound(m, t as u64 + 1),
            adaptive[t],
            oblivious[t]
        );
    }
}

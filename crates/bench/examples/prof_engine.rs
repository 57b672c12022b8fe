//! Ad-hoc phase profiler for the engine hot path (not a benchmark —
//! run with `cargo run --release -p gossip-bench --example prof_engine`).

use gossip_sim::{Context, Exchange, Protocol, RumorSet, SimConfig, Simulator};
use rand::Rng as _;
use std::time::Instant;

struct NoLearn {
    rumors: RumorSet,
}

impl Protocol for NoLearn {
    type Payload = RumorSet;
    fn payload(&self) -> RumorSet {
        self.rumors.snapshot()
    }
    fn on_round(&mut self, ctx: &mut Context<'_>) {
        let d = ctx.degree();
        if d == 0 {
            return;
        }
        let i = ctx.rng().random_range(0..d);
        ctx.initiate_nth(i);
    }
    fn on_exchange(&mut self, _ctx: &mut Context<'_>, _x: &Exchange<RumorSet>) {}
}

fn main() {
    let n = 4096;
    let g = latency_graph::generators::clique(n);
    let _ = gossip_core::push_pull::all_to_all(&g, &Default::default(), 42);

    let t0 = Instant::now();
    for s in 0..3u64 {
        let sim = Simulator::new(
            &g,
            SimConfig {
                seed: 42 + s,
                ..Default::default()
            },
        );
        std::hint::black_box(&sim);
    }
    println!("Simulator::new x3:        {:?}", t0.elapsed());

    let t1 = Instant::now();
    let mut rounds = 0;
    for s in 0..3u64 {
        let o = gossip_core::push_pull::all_to_all(&g, &Default::default(), 42 + s);
        rounds = o.rounds;
        std::hint::black_box(o.rounds);
    }
    println!(
        "all_to_all x3:            {:?}  (rounds={rounds})",
        t1.elapsed()
    );

    // Same round count, unions disabled: engine + snapshot + rng cost.
    let t2 = Instant::now();
    for s in 0..3u64 {
        let o = Simulator::new(
            &g,
            SimConfig {
                seed: 42 + s,
                ..Default::default()
            },
        )
        .run(
            |id, nn| NoLearn {
                rumors: RumorSet::singleton(nn, id),
            },
            |_: &[NoLearn], r| r >= rounds,
        );
        std::hint::black_box(o.metrics.delivered);
    }
    println!("no-learn same rounds x3:  {:?}", t2.elapsed());

    // Full protocol pinned to the same round count: adds the unions
    // back but skips the adaptive is_full stop scan.
    let t3 = Instant::now();
    for s in 0..3u64 {
        let o = Simulator::new(
            &g,
            SimConfig {
                seed: 42 + s,
                ..Default::default()
            },
        )
        .run(
            |id, nn| gossip_core::push_pull::PushPullNode::new(id, nn, Default::default()),
            |_: &[gossip_core::push_pull::PushPullNode], r| r >= rounds,
        );
        std::hint::black_box(o.metrics.delivered);
    }
    println!("push-pull same rounds x3: {:?}", t3.elapsed());
}

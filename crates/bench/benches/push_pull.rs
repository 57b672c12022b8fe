//! Criterion benches for push-pull (Theorem 12): broadcast cost across
//! sizes and latency structures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gossip_core::push_pull::{self, PushPullConfig};
use latency_graph::{generators, NodeId};
use std::hint::black_box;

fn bench_broadcast_clique(c: &mut Criterion) {
    let mut group = c.benchmark_group("push_pull/broadcast_clique");
    group.sample_size(10);
    for n in [32usize, 64, 128] {
        let g = generators::clique(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(push_pull::broadcast(
                    g,
                    NodeId::new(0),
                    &PushPullConfig::default(),
                    seed,
                ))
            });
        });
    }
    group.finish();
}

fn bench_broadcast_bimodal(c: &mut Criterion) {
    let mut group = c.benchmark_group("push_pull/broadcast_bimodal_clique");
    group.sample_size(10);
    for p_fast in [0.1f64, 0.3] {
        let g = generators::bimodal_latencies(&generators::clique(64), 1, 40, p_fast, 3);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("p_fast={p_fast}")),
            &g,
            |b, g| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    black_box(push_pull::broadcast(
                        g,
                        NodeId::new(0),
                        &PushPullConfig::default(),
                        seed,
                    ))
                });
            },
        );
    }
    group.finish();
}

fn bench_all_to_all(c: &mut Criterion) {
    let mut group = c.benchmark_group("push_pull/all_to_all_er64");
    group.sample_size(10);
    let g = generators::connected_erdos_renyi(64, 0.15, 7).expect("connected sample");
    group.bench_function("unit", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(push_pull::all_to_all(&g, &PushPullConfig::default(), seed))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_broadcast_clique,
    bench_broadcast_bimodal,
    bench_all_to_all
);
criterion_main!(benches);

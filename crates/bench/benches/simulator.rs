//! Criterion benches for the round-simulation engine itself: rounds per
//! second under flooding load.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gossip_core::flooding::{self, FloodingConfig};
use latency_graph::generators;
use std::hint::black_box;

fn bench_flood_round_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/flooding_all_to_all");
    group.sample_size(10);
    for n in [64usize, 256, 1024] {
        let p = (8.0 / n as f64).min(1.0);
        let g = generators::connected_erdos_renyi(n, p, 3).expect("connected sample");
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| black_box(flooding::all_to_all(g, &FloodingConfig::default(), 0)));
        });
    }
    group.finish();
}

fn bench_high_latency_queueing(c: &mut Criterion) {
    // Stress the in-flight exchange queue: large latencies mean many
    // outstanding exchanges.
    let mut group = c.benchmark_group("simulator/high_latency_grid");
    group.sample_size(10);
    for lat in [1u32, 16, 64] {
        let g = generators::grid(8, 8).map_latencies(|_, _, _| latency_graph::Latency::new(lat));
        group.bench_with_input(BenchmarkId::from_parameter(lat), &g, |b, g| {
            b.iter(|| black_box(flooding::all_to_all(g, &FloodingConfig::default(), 0)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_flood_round_throughput,
    bench_high_latency_queueing
);
criterion_main!(benches);

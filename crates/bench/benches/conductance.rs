//! Criterion benches for the weighted-conductance machinery
//! (Definitions 1–2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use latency_graph::profile::{estimate_profile, ProfileConfig, ThresholdSet};
use latency_graph::{conductance, generators, Latency};
use std::hint::black_box;

fn bench_exact_profile(c: &mut Criterion) {
    let mut group = c.benchmark_group("conductance/exact_profile");
    group.sample_size(10);
    for n in [12usize, 16, 18] {
        let g = generators::bimodal_latencies(&generators::clique(n), 1, 20, 0.3, 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| black_box(conductance::exact_conductance_profile(g).unwrap()));
        });
    }
    group.finish();
}

fn bench_sweep_estimate(c: &mut Criterion) {
    let mut group = c.benchmark_group("conductance/sweep_estimate");
    group.sample_size(10);
    for n in [128usize, 512, 1024] {
        let p = (10.0 / n as f64).min(1.0);
        let base = generators::connected_erdos_renyi(n, p, 7).expect("connected sample");
        let g = generators::bimodal_latencies(&base, 1, 20, 0.5, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| {
                black_box(conductance::sweep_cut_estimate(g, Latency::UNIT, 100, 3).unwrap())
            });
        });
    }
    group.finish();
}

fn bench_weighted_estimate(c: &mut Criterion) {
    let mut group = c.benchmark_group("conductance/estimate_weighted");
    group.sample_size(10);
    let base = generators::connected_erdos_renyi(256, 0.06, 9).expect("connected sample");
    let g = generators::uniform_random_latencies(&base, 1, 10, 9);
    group.bench_function("er256", |b| {
        b.iter(|| black_box(conductance::estimate_weighted_conductance(&g, 100, 3).unwrap()));
    });
    group.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis/weighted_conductance");
    group.sample_size(10);
    // The pipeline's home turf: one graph, many distinct latencies.
    for lmax in [8u32, 64] {
        let base = generators::connected_erdos_renyi(512, 0.03, 9).expect("connected sample");
        let g = generators::uniform_random_latencies(&base, 1, lmax, 9);
        let cfg = ProfileConfig {
            max_iterations: 100,
            seed: 3,
            ..ProfileConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::new("er512_all", lmax),
            &(g.clone(), cfg),
            |b, (g, cfg)| {
                b.iter(|| black_box(estimate_profile(g, cfg).weighted_conductance().unwrap()));
            },
        );
        let quant = ProfileConfig {
            thresholds: ThresholdSet::Quantiles(8),
            ..cfg
        };
        group.bench_with_input(
            BenchmarkId::new("er512_quantiles8", lmax),
            &(g, quant),
            |b, (g, cfg)| {
                b.iter(|| black_box(estimate_profile(g, cfg).weighted_conductance().unwrap()));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_exact_profile,
    bench_sweep_estimate,
    bench_weighted_estimate,
    bench_pipeline
);
criterion_main!(benches);

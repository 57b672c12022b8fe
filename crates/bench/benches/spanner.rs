//! Criterion benches for the Baswana–Sen spanner (Appendix D,
//! Lemma 13).

use baswana_sen::{build_spanner, SpannerConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use latency_graph::generators;
use std::hint::black_box;

fn bench_build_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("spanner/build_er");
    group.sample_size(10);
    for n in [128usize, 256, 512] {
        let p = (12.0 / n as f64).min(1.0);
        let base = generators::connected_erdos_renyi(n, p, 17).expect("connected sample");
        let g = generators::uniform_random_latencies(&base, 1, 8, 17);
        let k = (n as f64).log2().ceil() as usize;
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(build_spanner(
                    g,
                    &SpannerConfig {
                        k,
                        seed,
                        ..Default::default()
                    },
                ))
            });
        });
    }
    group.finish();
}

fn bench_build_clique(c: &mut Criterion) {
    let mut group = c.benchmark_group("spanner/build_clique128");
    group.sample_size(10);
    let g = generators::clique(128);
    for k in [2usize, 4, 7] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(build_spanner(
                    &g,
                    &SpannerConfig {
                        k,
                        seed,
                        ..Default::default()
                    },
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build_sizes, bench_build_clique);
criterion_main!(benches);

//! Criterion benches for DTG / ℓ-DTG local broadcast (Appendix C).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gossip_core::dtg;
use latency_graph::{generators, Latency};
use std::hint::black_box;

fn bench_local_broadcast_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("dtg/local_broadcast_er");
    group.sample_size(10);
    for n in [64usize, 128, 256] {
        let p = (8.0 / n as f64).min(1.0);
        let g = generators::connected_erdos_renyi(n, p, 5).expect("connected sample");
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| black_box(dtg::local_broadcast(g, Latency::UNIT)));
        });
    }
    group.finish();
}

fn bench_ell_dtg(c: &mut Criterion) {
    let mut group = c.benchmark_group("dtg/ell_dtg_cycle48");
    group.sample_size(10);
    for ell in [1u32, 4, 16] {
        let g = generators::cycle(48).map_latencies(|_, _, _| Latency::new(ell));
        group.bench_with_input(BenchmarkId::from_parameter(ell), &g, |b, g| {
            b.iter(|| black_box(dtg::local_broadcast(g, Latency::new(ell))));
        });
    }
    group.finish();
}

fn bench_superstep(c: &mut Criterion) {
    let mut group = c.benchmark_group("superstep/local_broadcast_er");
    group.sample_size(10);
    for n in [64usize, 256] {
        let p = (8.0 / n as f64).min(1.0);
        let g = generators::connected_erdos_renyi(n, p, 5).expect("connected sample");
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(gossip_core::superstep::local_broadcast(
                    g,
                    Latency::UNIT,
                    seed,
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_local_broadcast_sizes,
    bench_ell_dtg,
    bench_superstep
);
criterion_main!(benches);

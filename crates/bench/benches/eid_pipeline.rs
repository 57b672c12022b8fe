//! Criterion benches for the EID pipeline and Path Discovery
//! (Section 5, Appendix E).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gossip_core::eid::{self, EidConfig};
use gossip_core::path_discovery;
use latency_graph::{generators, metrics};
use std::hint::black_box;

fn bench_eid(c: &mut Criterion) {
    let mut group = c.benchmark_group("eid/known_diameter");
    group.sample_size(10);
    for n in [12usize, 24, 48] {
        let g = generators::cycle(n);
        let d = metrics::weighted_diameter(&g);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| {
                black_box(eid::eid(
                    g,
                    &EidConfig {
                        diameter: d,
                        seed: 1,
                        ..Default::default()
                    },
                ))
            });
        });
    }
    group.finish();
}

fn bench_general_eid(c: &mut Criterion) {
    let mut group = c.benchmark_group("eid/general_guess_and_double");
    group.sample_size(10);
    let g = generators::cycle(6).map_latencies(|_, _, _| latency_graph::Latency::new(8));
    group.bench_function("latency8_cycle6", |b| {
        b.iter(|| black_box(eid::general_eid(&g, 1, 1 << 12)));
    });
    group.finish();
}

fn bench_path_discovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("path_discovery/t_sequence");
    group.sample_size(10);
    for n in [12usize, 24] {
        let g = generators::path(n);
        let k = metrics::weighted_diameter(&g).next_power_of_two();
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| black_box(path_discovery::run_t_sequence(g, k, None)));
        });
    }
    group.finish();
}

fn bench_distributed_termination_check(c: &mut Criterion) {
    use gossip_core::termination;
    use gossip_sim::RumorSet;
    let mut group = c.benchmark_group("termination/distributed_check");
    group.sample_size(10);
    for n in [32usize, 128] {
        let p = (8.0 / n as f64).min(1.0);
        let g = generators::connected_erdos_renyi(n, p, 3).expect("connected sample");
        let sp = latency_graph::DiGraph::from_arcs(
            n,
            g.edges().map(|(u, v, l)| (u.index(), v.index(), l.get())),
        );
        let k = metrics::weighted_diameter(&g);
        let rumors = vec![RumorSet::full(n); n];
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(termination::distributed_check(&g, &sp, k, &rumors)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_eid,
    bench_general_eid,
    bench_path_discovery,
    bench_distributed_termination_check
);
criterion_main!(benches);

//! Criterion benches for the paper's constructions (Figs. 1–2) and the
//! graph substrate: what a graph costs to build, and what a run pays
//! to be constructed over one already built.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gossip_sim::{Context, Exchange, Protocol, SimConfig, Simulator};
use latency_graph::generators::{self, GadgetSpec, LayeredRing, LayeredRingSpec};
use latency_graph::metrics;
use std::hint::black_box;

fn bench_gadget(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators/gadget");
    group.sample_size(10);
    for m in [64usize, 128, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, &m| {
            b.iter(|| {
                let t = generators::gadget::random_target(m, 0.2, 3);
                black_box(generators::gadget::gadget(&GadgetSpec::paper(m, true), &t))
            });
        });
    }
    group.finish();
}

fn bench_layered_ring(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators/layered_ring");
    group.sample_size(10);
    for n in [60usize, 120, 240] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                black_box(LayeredRing::generate(&LayeredRingSpec {
                    n,
                    alpha: 0.1,
                    ell: 16,
                    seed: 5,
                }))
            });
        });
    }
    group.finish();
}

fn bench_dijkstra(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics/weighted_diameter");
    group.sample_size(10);
    for n in [64usize, 128, 256] {
        let p = (10.0 / n as f64).min(1.0);
        let base = generators::connected_erdos_renyi(n, p, 7);
        let g = generators::uniform_random_latencies(&base, 1, 10, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| black_box(metrics::weighted_diameter(g)));
        });
    }
    group.finish();
}

/// The two large benchmark topologies: the dense one inserts its edges
/// in ascending order (no row is sorted), the geometric one in grid-cell
/// order (every row is). Both have unit latencies, so both build one
/// shared latency row; the re-weighted clique is the per-edge path.
fn bench_graph_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph/build");
    group.sample_size(10);
    group.bench_function("clique/4096", |b| {
        b.iter(|| black_box(generators::clique(4096)));
    });
    let clique = generators::clique(4096);
    group.bench_function("uniform_random_latencies/clique/4096", |b| {
        b.iter(|| black_box(generators::uniform_random_latencies(&clique, 1, 10, 7)));
    });
    // Mean degree n·π·r² = 18.
    let n = 65_536usize;
    let radius = (18.0 / (n as f64 * std::f64::consts::PI)).sqrt();
    group.bench_function("random_geometric/65536", |b| {
        b.iter(|| black_box(generators::random_geometric(n, radius, 200.0, 7)));
    });
    group.finish();
}

/// A protocol that does nothing, so constructing a run over it costs
/// only what the engine itself sets up.
struct Idle;

impl Protocol for Idle {
    type Payload = ();
    fn payload(&self) {}
    fn on_round(&mut self, _: &mut Context<'_>) {}
    fn on_exchange(&mut self, _: &mut Context<'_>, _: &Exchange<()>) {}
}

/// The fixed cost every seed pays before its first round: a `Stepper`
/// over a prebuilt graph. It must not grow with the edge count.
fn bench_simulator_new(c: &mut Criterion) {
    let g = generators::clique(4096);
    let sim = Simulator::new(&g, SimConfig::default());
    c.bench_function("simulator/new/clique4096", |b| {
        b.iter(|| black_box(sim.stepper(|_, _| Idle)));
    });
}

criterion_group!(
    benches,
    bench_gadget,
    bench_layered_ring,
    bench_dijkstra,
    bench_graph_build,
    bench_simulator_new
);
criterion_main!(benches);

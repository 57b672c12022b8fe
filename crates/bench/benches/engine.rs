//! Engine hot-loop microbenchmarks: the workloads the calendar-queue /
//! zero-copy rewrite targets.
//!
//! `push_pull_clique` is the headline number — an all-to-all push-pull
//! run on a clique maximizes exchanges per round (n initiations, each
//! snapshotting an O(n)-bit rumor set), so payload copying and
//! scheduler churn dominate. `push_pull_ring_of_cliques` adds latency-4
//! bridges so deliveries land several rounds out (calendar-ring slot
//! reuse), and `flooding_clique` isolates scheduler + scratch overhead
//! with O(1) payloads. `flood_geometric` is the frontier engine's
//! one-to-all flood — every payload ∅ or {source} — and
//! `rumor/compact_small` the unit cost of the two payload operations
//! it performs per exchange endpoint: snapshot (`clone`) and merge
//! (`union_with`) of a `CompactRumorSet` that fits its inline buffer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gossip_bench::graphs::connected_geometric;
use gossip_core::flooding::{self, FloodingConfig};
use gossip_core::push_pull::{self, PushPullConfig};
use gossip_core::sparse::{self, SparseConfig};
use gossip_sim::CompactRumorSet;
use latency_graph::generators::{self, extra};
use latency_graph::NodeId;
use std::hint::black_box;

fn push_pull_clique(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/push_pull_clique");
    group.sample_size(10);
    for n in [256usize, 1024, 4096] {
        let g = generators::clique(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| push_pull::all_to_all(g, &PushPullConfig::default(), 42));
        });
    }
    group.finish();
}

fn push_pull_ring_of_cliques(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/push_pull_ring_of_cliques");
    group.sample_size(10);
    for k in [8usize, 32] {
        let g = extra::ring_of_cliques(k, 16, 4);
        group.throughput(Throughput::Elements((k * 16) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(k * 16), &g, |b, g| {
            b.iter(|| push_pull::all_to_all(g, &PushPullConfig::default(), 42));
        });
    }
    group.finish();
}

fn flooding_clique(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/flooding_clique");
    group.sample_size(10);
    for n in [256usize, 1024] {
        let g = generators::clique(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| flooding::all_to_all(g, &FloodingConfig::default(), 42));
        });
    }
    group.finish();
}

fn flood_geometric(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/flood_geometric");
    group.sample_size(10);
    let n = 16_384usize;
    let g = connected_geometric(n, 18.0, 42);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
        b.iter(|| sparse::flood_broadcast(g, NodeId::new(0), &SparseConfig::default(), 42));
    });
    group.finish();
}

fn compact_small(c: &mut Criterion) {
    let n = 262_144usize;
    let of = |ids: &[usize]| {
        let mut set = CompactRumorSet::new(n);
        for &i in ids {
            set.insert(NodeId::new(i));
        }
        set
    };
    let mut group = c.benchmark_group("rumor/compact_small");
    for (name, a, b) in [
        ("singleton", of(&[77]), of(&[77])),
        (
            "4_and_2",
            of(&[5, 900, 70_000, 200_000]),
            of(&[900, 131_072]),
        ),
    ] {
        group.bench_function(name, |bench| {
            bench.iter(|| {
                let mut snapshot = black_box(&a).clone();
                let changed = snapshot.union_with(black_box(&b));
                black_box((snapshot, changed))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    push_pull_clique,
    push_pull_ring_of_cliques,
    flooding_clique,
    flood_geometric,
    compact_small
);
criterion_main!(benches);

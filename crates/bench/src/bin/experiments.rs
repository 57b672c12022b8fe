//! CLI for the experiment harness.
//!
//! ```sh
//! cargo run --release -p gossip-bench --bin experiments -- all
//! cargo run --release -p gossip-bench --bin experiments -- e3 e12
//! cargo run --release -p gossip-bench --bin experiments -- --markdown all
//! cargo run --release -p gossip-bench --bin experiments -- --csv e3
//! cargo run --release -p gossip-bench --bin experiments -- bench-engine
//! ```
//!
//! `bench-engine` is special: instead of a table it times the engine's
//! headline workload (push-pull all-to-all on cliques of 256 / 1024 /
//! 4096 nodes) and writes the throughput baseline to
//! `BENCH_engine.json` (override the path with `--out <file>`).
//! `bench-analysis` does the same for the multi-threshold conductance
//! pipeline (profile wall time at n ∈ {1024, 4096} × {8, 64, 256}
//! latencies, plus the legacy-vs-pipeline speedup), writing
//! `BENCH_analysis.json`. `bench-net` times the network runtime
//! (push-pull all-to-all over the loopback transport and the
//! localhost-socket reactor), writing `BENCH_net.json`.

use std::time::Instant;

/// 3 GiB: the 65 536-node cells peak well under 1 GiB; the ceiling
/// guards against a regression to dense Θ(n)-per-round state or
/// uncompressed rumor payloads.
const SMOKE_RSS_CEILING_KB: u64 = 3 * 1024 * 1024;

/// The reactor hosts its whole cluster on the calling thread; beyond
/// the test-harness baseline, a 1024-node run must not spawn workers.
const NET_SMOKE_THREAD_CEILING: u64 = 8;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let markdown = args.iter().any(|a| a == "--markdown");
    let csv = args.iter().any(|a| a == "--csv");
    let mut out_path: Option<String> = None;
    let mut rest = Vec::new();
    let mut it = args
        .into_iter()
        .filter(|a| a != "--markdown" && a != "--csv");
    while let Some(a) = it.next() {
        if a == "--out" {
            match it.next() {
                Some(p) => out_path = Some(p),
                None => {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                }
            }
        } else {
            rest.push(a.to_lowercase());
        }
    }
    let selected = rest;
    let registry = gossip_bench::registry();

    if selected.is_empty() || selected.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: experiments [--markdown | --csv] <all | e1 … e23 | bench-engine | bench-large-smoke | bench-mode-compare | bench-analysis | bench-net | bench-stream | net-smoke>\n"
        );
        eprintln!("experiments:");
        for (id, what, _) in &registry {
            eprintln!("  {id:<4} {what}");
        }
        eprintln!(
            "  bench-engine    engine throughput baseline -> BENCH_engine.json (--out <file>)"
        );
        eprintln!("  bench-large-smoke  frontier large-n smoke (n = 65 536, RSS ceiling asserted)");
        eprintln!(
            "  bench-mode-compare  dense vs frontier wall clock on the 65 536-node layered ring"
        );
        eprintln!(
            "  bench-analysis  conductance pipeline baseline -> BENCH_analysis.json (--out <file>)"
        );
        eprintln!("  bench-net       network runtime baseline -> BENCH_net.json (--out <file>)");
        eprintln!(
            "  bench-stream    streaming completion curves, rr vs rlc -> BENCH_stream.json (--out <file>)"
        );
        eprintln!(
            "  net-smoke       reactor smoke (n = 1024 single-process, thread ceiling asserted)"
        );
        std::process::exit(2);
    }

    let mut ran = 0;
    if selected.iter().any(|a| a == "bench-engine") {
        ran += 1;
        let path = out_path
            .clone()
            .unwrap_or_else(|| String::from("BENCH_engine.json"));
        eprintln!(
            "running bench-engine: push-pull all-to-all cliques n ∈ {:?} …",
            gossip_bench::engine_bench::SIZES
        );
        let start = Instant::now();
        let json = gossip_bench::engine_bench::run(3);
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        print!("{json}");
        eprintln!(
            "bench-engine finished in {:.2?}; wrote {path}\n",
            start.elapsed()
        );
    }

    if selected.iter().any(|a| a == "bench-large-smoke") {
        ran += 1;
        eprintln!(
            "running bench-large-smoke: frontier flooding at n = {} (RSS ceiling {} kB) …",
            gossip_bench::engine_bench::LARGE_SIZES[0],
            SMOKE_RSS_CEILING_KB
        );
        let start = Instant::now();
        let json = gossip_bench::engine_bench::run_large_smoke(SMOKE_RSS_CEILING_KB);
        print!("{json}");
        eprintln!(
            "bench-large-smoke finished in {:.2?}; peak RSS {} kB\n",
            start.elapsed(),
            gossip_bench::engine_bench::peak_rss_kb()
        );
    }

    if selected.iter().any(|a| a == "bench-mode-compare") {
        ran += 1;
        eprintln!(
            "running bench-mode-compare: dense vs frontier, layered-ring flooding at n = {} …",
            gossip_bench::engine_bench::LARGE_SIZES[0]
        );
        let start = Instant::now();
        let c = gossip_bench::engine_bench::compare_modes(
            "layered-ring",
            "flood",
            gossip_bench::engine_bench::LARGE_SIZES[0],
        );
        println!(
            "{{\"family\": \"{}\", \"protocol\": \"{}\", \"n\": {}, \"rounds\": {}, \
             \"dense_secs\": {:.6}, \"frontier_secs\": {:.6}, \"frontier_speedup\": {:.2}}}",
            c.family,
            c.protocol,
            c.n,
            c.rounds,
            c.dense_secs,
            c.frontier_secs,
            c.speedup()
        );
        eprintln!("bench-mode-compare finished in {:.2?}\n", start.elapsed());
    }

    if selected.iter().any(|a| a == "bench-analysis") {
        ran += 1;
        let path = out_path
            .clone()
            .unwrap_or_else(|| String::from("BENCH_analysis.json"));
        eprintln!(
            "running bench-analysis: conductance profiles n ∈ {:?} × {:?} latencies …",
            gossip_bench::analysis_bench::PROFILE_SIZES,
            gossip_bench::analysis_bench::LATENCY_COUNTS
        );
        let start = Instant::now();
        let json = gossip_bench::analysis_bench::run(3);
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        print!("{json}");
        eprintln!(
            "bench-analysis finished in {:.2?}; wrote {path}\n",
            start.elapsed()
        );
    }

    if selected.iter().any(|a| a == "bench-net") {
        ran += 1;
        let path = out_path
            .clone()
            .unwrap_or_else(|| String::from("BENCH_net.json"));
        eprintln!(
            "running bench-net: push-pull all-to-all over loopback and the reactor (virtual and wall clock) …"
        );
        let start = Instant::now();
        let json = gossip_bench::net_bench::run(3, std::time::Duration::from_millis(10));
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        print!("{json}");
        eprintln!(
            "bench-net finished in {:.2?}; wrote {path}\n",
            start.elapsed()
        );
    }

    if selected.iter().any(|a| a == "bench-stream") {
        ran += 1;
        let path = out_path
            .clone()
            .unwrap_or_else(|| String::from("BENCH_stream.json"));
        eprintln!(
            "running bench-stream: k ∈ {:?} × budget ∈ {:?} × {:?}, rr vs rlc …",
            gossip_bench::stream_bench::RUMOR_COUNTS,
            gossip_bench::stream_bench::BUDGETS,
            gossip_bench::stream_bench::TOPOLOGIES
        );
        let start = Instant::now();
        let json = gossip_bench::stream_bench::run();
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        print!("{json}");
        eprintln!(
            "bench-stream finished in {:.2?}; wrote {path}\n",
            start.elapsed()
        );
    }

    if selected.iter().any(|a| a == "net-smoke") {
        ran += 1;
        eprintln!(
            "running net-smoke: reactor push-pull all-to-all, clique n = 1024, single process \
             (thread ceiling {NET_SMOKE_THREAD_CEILING}) …"
        );
        let start = Instant::now();
        let p = gossip_bench::net_bench::measure_reactor(
            "clique",
            1024,
            1,
            gossip_bench::net_bench::PayloadMode::Snapshot,
        );
        println!(
            "{{\"topology\": \"{}\", \"n\": {}, \"rounds\": {}, \"secs\": {:.6}, \
             \"frames_sent\": {}, \"bytes_sent\": {}, \"peer_losses\": {}, \"peak_threads\": {}}}",
            p.topology, p.n, p.rounds, p.secs, p.frames, p.bytes, p.losses, p.peak_threads
        );
        assert_eq!(p.losses, 0, "net-smoke: peer losses in a single process");
        assert!(
            p.peak_threads <= NET_SMOKE_THREAD_CEILING,
            "net-smoke: reactor run used {} OS threads (ceiling {NET_SMOKE_THREAD_CEILING}) — \
             the single-threaded runtime regressed to spawning workers",
            p.peak_threads
        );
        // The delta-exchange soak: the same clique held past
        // convergence in both payload modes. Outcome equality (stop
        // reason, rounds, metrics, per-node fingerprints) is asserted
        // inside; here we additionally hold the byte reduction to a
        // conservative floor so a regression in the knowledge cache or
        // the delta codec fails CI loudly.
        let c = gossip_bench::net_bench::measure_mode_comparison("clique", 1024, 128);
        println!(
            "{{\"mode_comparison\": \"{}\", \"n\": {}, \"rounds\": {}, \
             \"delta_payload_bytes\": {}, \"snapshot_equivalent_bytes\": {}, \
             \"compression_ratio\": {:.2}}}",
            c.topology,
            c.n,
            c.rounds,
            c.delta_payload_bytes,
            c.snapshot_equivalent_bytes,
            c.compression_ratio()
        );
        assert!(
            c.compression_ratio() >= 5.0,
            "net-smoke: delta soak compressed only {:.2}× vs snapshot-equivalent bytes \
             (floor 5×) — the per-peer knowledge cache or delta codec regressed",
            c.compression_ratio()
        );
        eprintln!("net-smoke finished in {:.2?}\n", start.elapsed());
    }

    let run_all = selected.iter().any(|a| a == "all");
    for (id, what, runner) in &registry {
        if !run_all && !selected.iter().any(|a| a == id) {
            continue;
        }
        ran += 1;
        eprintln!("running {id}: {what} …");
        let start = Instant::now();
        let table = runner();
        let elapsed = start.elapsed();
        if markdown {
            println!("{}", table.to_markdown());
        } else if csv {
            println!("{}", table.to_csv());
        } else {
            println!("{table}");
        }
        eprintln!("{id} finished in {elapsed:.2?}\n");
    }
    if ran == 0 {
        eprintln!("no experiment matched {selected:?}; try `all`, e1…e23, bench-engine, bench-large-smoke, bench-analysis, bench-net, or net-smoke");
        std::process::exit(2);
    }
}

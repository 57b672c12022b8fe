//! The metric tables: every name the benchmark prints, with its unit
//! and which direction is better. `BENCHMARK.json` at the repo root
//! declares the same names (a test keeps the two in step); README.md
//! says how each is taken and which end-to-end metric each layer metric
//! should move.

/// One metric's declaration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, as printed and as keyed in every result file.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// The host-time end-to-end metrics `BENCHMARK.json` puts a regression
/// bound on. A plain run reports exactly these in its result line.
pub const END_TO_END: [MetricDef; 5] = [
    lower("setup_s", "s"),
    lower("wall_s", "s"),
    lower("cpu_s", "s"),
    higher("exchanges_per_s", "1/s"),
    lower("peak_rss_mb", "MB"),
];

/// The three end-to-end metrics that are simulated or counted, not
/// timed: they repeat exactly for a seed, so they are compared with
/// `==` (by the `expected.json` pins and by `compare`) instead of
/// carrying a relative bound. `BENCHMARK.json` cannot hold them as
/// end-to-end metrics — its bounds are shares of a median taken across
/// *different* seeds, and two of the three are 0 on most workloads — so
/// it lists the first two per layer and `ops_failed` travels as the
/// result line's `failed` of `attempted`.
pub const EXACT: [MetricDef; 3] = [
    lower("sim_rounds", "rounds"),
    lower("wire_payload_bytes", "bytes"),
    lower("ops_failed", "count"),
];

/// Every per-layer metric, in print order. A traced run reports all of
/// them; one that does not apply to the workload (a reactor number on an
/// in-process workload) reads 0.
pub const PER_LAYER: [MetricDef; 76] = [
    lower("sim_rounds", "rounds"),
    lower("wire_payload_bytes", "bytes"),
    // latency-graph
    lower("graph.build_s", "s"),
    lower("graph.nodes", "count"),
    lower("graph.edges", "count"),
    lower("graph.rss_mb_after_build", "MB"),
    // gossip-core protocol callbacks, through Timed<P>
    lower("core.payload_s", "s"),
    lower("core.payload_calls", "count"),
    lower("core.on_round_s", "s"),
    lower("core.on_round_calls", "count"),
    lower("core.on_exchange_s", "s"),
    lower("core.on_exchange_calls", "count"),
    lower("core.callback_share", "ratio"),
    // gossip-sim engine: what is left of a rep outside the callbacks
    lower("sim.engine.self_s", "s"),
    lower("sim.engine.self_share", "ratio"),
    lower("sim.engine.ns_per_step", "ns"),
    lower("sim.engine.stepped", "count"),
    lower("sim.engine.woken", "count"),
    lower("sim.engine.event_rounds", "count"),
    higher("sim.engine.skipped_rounds", "count"),
    lower("sim.engine.peak_frontier", "count"),
    lower("sim.engine.mean_frontier_fraction", "ratio"),
    lower("sim.engine.initiated", "count"),
    lower("sim.engine.delivered", "count"),
    lower("sim.engine.lost", "count"),
    lower("sim.engine.rejected", "count"),
    lower("sim.engine.round_us_p50", "us"),
    lower("sim.engine.round_us_p99", "us"),
    // gossip-sim rumor sets, micro-loops
    lower("sim.rumor.union_ns.u4096", "ns"),
    lower("sim.rumor.union_ns.u1024", "ns"),
    lower("sim.rumor.snapshot_ns.u4096", "ns"),
    lower("sim.rumor.snapshot_ns.u1024", "ns"),
    lower("sim.rumor.compact_union_ns.u4096", "ns"),
    lower("sim.rumor.compact_union_ns.u1024", "ns"),
    lower("sim.rumor.diff_ns.u4096", "ns"),
    lower("sim.rumor.diff_ns.u1024", "ns"),
    // gossip-core GF(2) and streaming
    lower("core.gf2.insert_ns", "ns"),
    lower("core.gf2.combine_ns", "ns"),
    higher("core.stream.useful_ratio", "ratio"),
    // gossip-net: the sim -> loopback -> reactor ladder
    lower("net.ladder.sim_s", "s"),
    lower("net.ladder.loopback_s", "s"),
    lower("net.ladder.reactor_s", "s"),
    lower("net.runner.overhead_s", "s"),
    lower("net.reactor.socket_s", "s"),
    lower("net.reactor.cpu_user_s", "s"),
    lower("net.reactor.cpu_sys_s", "s"),
    lower("net.reactor.sys_share", "ratio"),
    lower("net.delta.cost_s", "s"),
    lower("net.delta.encode_ns.d0", "ns"),
    lower("net.delta.encode_ns.d8", "ns"),
    lower("net.delta.decode_ns.d0", "ns"),
    lower("net.delta.decode_ns.d8", "ns"),
    higher("net.delta.hit_ratio", "ratio"),
    higher("net.delta.compression_ratio", "ratio"),
    lower("net.wire.encode_ns.b36", "ns"),
    lower("net.wire.encode_ns.b132", "ns"),
    lower("net.wire.decode_ns.b36", "ns"),
    lower("net.wire.decode_ns.b132", "ns"),
    lower("net.wire.overhead_bytes_per_frame", "bytes"),
    lower("net.wire.frames_sent", "count"),
    lower("net.wire.bytes_sent", "bytes"),
    lower("net.reactor.start_s", "s"),
    higher("net.reactor.frames_per_s", "1/s"),
    higher("net.reactor.mb_per_s", "MB/s"),
    lower("net.reactor.round_ms_p50", "ms"),
    lower("net.reactor.round_ms_p99", "ms"),
    lower("net.reactor.os_threads_peak", "count"),
    lower("net.reactor.peer_losses", "count"),
    higher("net.loopback.frames_per_s", "1/s"),
    higher("net.loopback.mb_per_s", "MB/s"),
    // did anything disturb the run, and what did tracing cost
    lower("proc.ctx_switches_invol", "count"),
    lower("proc.loadavg_start", "load"),
    lower("proc.timer_ns", "ns"),
    lower("proc.timer_empty_ns", "ns"),
    lower("trace.overhead_ratio", "ratio"),
    lower("trace.reps", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    type Row = (String, String, String);

    fn declared(doc: &Json, section: &str) -> Vec<Row> {
        let field = |m: &Json, key: &str| {
            m.get(key)
                .and_then(Json::as_str)
                .expect("string field")
                .to_string()
        };
        doc.get(section)
            .expect("section")
            .as_arr()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    fn rows(table: &[MetricDef]) -> Vec<Row> {
        table
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    }

    /// `BENCHMARK.json` declares exactly the tables above, in order,
    /// and stays inside the contract's limits.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).expect("valid JSON");
        assert_eq!(declared(&doc, "end_to_end"), rows(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), rows(&PER_LAYER));
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let mut names: Vec<&str> = Vec::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{m:?}");
            assert!(m.name.chars().next().is_some_and(char::is_alphanumeric));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(!names.contains(&m.name), "{} declared twice", m.name);
            names.push(m.name);
        }
        for m in doc.get("end_to_end").expect("section").as_arr() {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .expect("section")
            .as_arr()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        // The driver's list is a selection of ours, in our order (README:
        // its time limit pays for four workloads at a steady run length).
        let ours: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name()).collect();
        let listed: Vec<&str> = ours
            .iter()
            .copied()
            .filter(|w| workloads.contains(w))
            .collect();
        assert_eq!(workloads, listed);
        assert!((2..=8).contains(&workloads.len()));
        for w in doc.get("workloads").expect("section").as_arr() {
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }
}

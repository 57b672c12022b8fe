//! The `run` subcommand: one workload in this process (plain or
//! traced), or every workload one after another, each in a fresh child
//! process of this binary so that `VmHWM` and allocator state belong to
//! one workload.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use gossip_net::PayloadMode;

use crate::expected::{self, DEFAULT_SEED};
use crate::json::{self, quote};
use crate::metrics::{MetricDef, END_TO_END, EXACT, PER_LAYER};
use crate::micro;
use crate::procfs::{self, Provenance};
use crate::stats::{max, median, min, percentile};
use crate::workloads::{
    build_inputs, run_net, run_rep, Answer, Inputs, NetPlan, Rung, Tracer, Workload, ALL,
};

/// Plain reps never number fewer than this, however short `--seconds`.
const MIN_REPS: usize = 3;
/// Set-up is timed at least this often, and until [`SETUP_SECONDS`]
/// have been spent on it, so that a sub-millisecond graph build still
/// yields a steady median.
const MIN_SETUPS: usize = 4;
const SETUP_SECONDS: f64 = 0.25;
const MAX_SETUPS: usize = 2_000;
/// Reps of a traced run (each a plain and a traced execution), and of
/// each ladder rung.
const TRACED_REPS: usize = 3;
/// A run span's ticks are thinned to at most this many in the trace
/// file (`ring_flood` has 1.17 M event rounds per rep).
const MAX_TICKS_WRITTEN: usize = 2_048;

/// What `run` was asked to do.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// One workload in this process; `None` runs all, each in a child.
    pub workload: Option<Workload>,
    /// Base seed of every seeded input.
    pub seed: u64,
    /// How long the plain reps measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of plain (end-to-end).
    pub trace: bool,
    /// Where the all-workloads run writes its result document.
    pub out: Option<PathBuf>,
}

/// The directory result and trace files go to: `benchmark/out`.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn detail_path(workload: Workload, trace: bool) -> PathBuf {
    let suffix = if trace { "-trace" } else { "" };
    out_dir().join(format!("result-{}{suffix}.json", workload.name()))
}

/// Writes `text` to `path`, creating the directory; a failure is
/// reported but does not fail the run (the result line is what counts).
fn write_file(path: &Path, text: &str) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// One reported metric with the samples behind it.
#[derive(Clone, Debug)]
struct Reported {
    def: MetricDef,
    value: f64,
    samples: Vec<f64>,
}

impl Reported {
    /// A metric whose value is the median of `samples`.
    fn median_of(def: MetricDef, samples: Vec<f64>) -> Reported {
        Reported {
            def,
            value: median(&samples),
            samples,
        }
    }

    fn single(def: MetricDef, value: f64) -> Reported {
        Reported {
            def,
            value,
            samples: vec![value],
        }
    }

    fn print(&self) {
        let spread = if self.samples.len() > 1 {
            format!(
                "  (min {}, max {}, n {})",
                short(min(&self.samples)),
                short(max(&self.samples)),
                self.samples.len()
            )
        } else {
            String::new()
        };
        println!(
            "  {:<40} {:>16} {}{spread}",
            self.def.name,
            short(self.value),
            self.def.unit
        );
    }

    fn detail_json(&self) -> String {
        format!(
            "{}: {{\"value\": {}, \"unit\": {}, \"better\": {}, \"samples\": {}}}",
            quote(self.def.name),
            json::number(self.value),
            quote(self.def.unit),
            quote(self.def.better),
            json::number_array(&self.samples),
        )
    }
}

/// Six significant digits for the human-readable lines (result files
/// and the result line keep every digit).
fn short(x: f64) -> String {
    if x == 0.0 || (x.fract() == 0.0 && x.abs() < 1e15) {
        format!("{x}")
    } else {
        let digits = (5 - x.abs().log10().floor() as i32).clamp(0, 9);
        format!("{x:.*}", digits as usize)
    }
}

/// Checks every rep's answer before any time is believed: against the
/// warm-up rep's (same seed, so it must repeat exactly), against the
/// `expected.json` pin at the default seed, and — for ladder rungs —
/// for equal outcomes across transports.
struct Checker {
    reference: Answer,
    pin_ok: bool,
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Checker {
    fn new(workload: Workload, seed: u64, reference: Answer) -> Checker {
        let mut pin_ok = true;
        if seed == DEFAULT_SEED {
            match expected::pinned(workload) {
                Some(pin) if pin == reference => {}
                Some(pin) => {
                    pin_ok = false;
                    eprintln!(
                        "ANSWER MISMATCH on {}:\n  expected {}\n  got      {}",
                        workload.name(),
                        expected::answer_json(&pin),
                        expected::answer_json(&reference)
                    );
                }
                None => {
                    pin_ok = false;
                    eprintln!(
                        "no pin for {} in expected.json (see `pin`)",
                        workload.name()
                    );
                }
            }
        }
        if !reference.complete {
            eprintln!("{}: the rep did not complete", workload.name());
        }
        Checker {
            correct: pin_ok && reference.complete,
            reference,
            pin_ok,
            attempted: 0,
            failed: 0,
        }
    }

    /// Accounts one rep's ops; all of them fail if its answer is wrong.
    fn rep(&mut self, answer: &Answer) {
        let ok = self.pin_ok && *answer == self.reference;
        if !ok && self.pin_ok {
            eprintln!(
                "ANSWER NOT REPEATABLE:\n  first {}\n  now   {}",
                expected::answer_json(&self.reference),
                expected::answer_json(answer)
            );
        }
        self.attempted += answer.metrics.initiated;
        self.failed += if ok {
            answer.ops_failed()
        } else {
            answer.metrics.initiated
        };
        self.correct &= ok && answer.complete;
    }

    /// A ladder rung must compute what the workload's own rung did.
    fn same_outcome(&mut self, rung: Rung, answer: &Answer) {
        if answer.outcome() != self.reference.outcome() {
            eprintln!(
                "LADDER BROKEN at {rung:?}:\n  workload {}\n  rung     {}",
                expected::answer_json(&self.reference),
                expected::answer_json(answer)
            );
            self.correct = false;
        }
    }
}

/// What a single-workload run hands back to `main`.
pub struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Reported>,
}

impl ChildResult {
    /// The one-line JSON object the benchmark contract asks for.
    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(m.def.name),
                    json::number(m.value),
                    quote(m.def.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn detail_document(
    opts: &RunOptions,
    workload: Workload,
    reps: usize,
    result: &ChildResult,
    extra: &[Reported],
    answer: &Answer,
) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .chain(extra)
        .map(Reported::detail_json)
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"reps\": {reps}, \
         \"correct\": {}, \"ops_attempted\": {}, \"ops_failed\": {}, \"answer\": {}, \
         \"metrics\": {{{}}}}}",
        quote(workload.name()),
        opts.seed,
        json::number(opts.seconds),
        opts.trace,
        result.correct,
        result.attempted,
        result.failed,
        expected::answer_json(answer),
        metrics.join(", ")
    )
}

/// Builds the inputs repeatedly (see [`MIN_SETUPS`]); returns the last
/// build and every timed build's seconds. Like the reps, the builds
/// start with an untimed warm-up: the first one takes its pages fresh
/// from the OS and reads up to twice the rest. Each build is dropped
/// before the next starts, so two 383 MB cliques never coexist.
fn timed_setup(workload: Workload, seed: u64) -> (Inputs, Vec<f64>) {
    drop(build_inputs(workload, seed));
    let mut samples = Vec::new();
    loop {
        let start = Instant::now();
        let inputs = build_inputs(workload, seed);
        samples.push(start.elapsed().as_secs_f64());
        let spent: f64 = samples.iter().sum();
        if (samples.len() >= MIN_SETUPS && spent >= SETUP_SECONDS) || samples.len() >= MAX_SETUPS {
            return (inputs, samples);
        }
    }
}

/// What a call cost: wall-clock, user and system CPU seconds.
struct Cost {
    wall: f64,
    user: f64,
    sys: f64,
}

fn measure<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    let (user0, sys0) = procfs::cpu_seconds();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    let (user1, sys1) = procfs::cpu_seconds();
    let cost = Cost {
        wall,
        user: user1 - user0,
        sys: sys1 - sys0,
    };
    (out, cost)
}

/// The plain run: end-to-end metrics, tracing off.
fn run_plain(opts: &RunOptions, workload: Workload) -> ChildResult {
    let (inputs, setup) = timed_setup(workload, opts.seed);
    // Warm-up rep: allocator, page faults, branch predictors. Untimed,
    // and the answer every timed rep must repeat.
    let reference = run_rep(workload, &inputs, opts.seed, None);
    let mut check = Checker::new(workload, opts.seed, reference.clone());
    let (mut wall, mut cpu, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let measuring = Instant::now();
    // Stop before the rep that would overrun `--seconds`, not after it:
    // the driver's time limit covers every run, and a 3 s rep started at
    // 27.9 s of 28 is 10 % of a run nobody budgeted.
    while wall.len() < MIN_REPS || measuring.elapsed().as_secs_f64() + median(&wall) <= opts.seconds
    {
        let (answer, cost) = measure(|| run_rep(workload, &inputs, opts.seed, None));
        check.rep(&answer);
        wall.push(cost.wall);
        cpu.push(cost.user + cost.sys);
        rate.push(answer.metrics.delivered as f64 / cost.wall);
    }
    let reps = wall.len();
    let [setup_s, wall_s, cpu_s, exchanges_per_s, peak_rss_mb] = END_TO_END;
    let [sim_rounds, wire_payload_bytes, ops_failed] = EXACT;
    // One rep's CPU reading moves in 10 ms ticks (1.3 % of a
    // `clique_pushpull` rep), so the median of such readings is a coarse
    // number that can read the same on every run. All timed reps together
    // give the CPU-per-wall ratio to 0.05 %; the median rep is charged at
    // that ratio. The per-rep readings stay as the samples.
    let busy = cpu.iter().sum::<f64>() / wall.iter().sum::<f64>();
    let result = ChildResult {
        correct: check.correct,
        attempted: check.attempted,
        failed: check.failed,
        metrics: vec![
            Reported::median_of(setup_s, setup),
            Reported::median_of(wall_s, wall.clone()),
            Reported {
                def: cpu_s,
                value: median(&wall) * busy,
                samples: cpu,
            },
            Reported::median_of(exchanges_per_s, rate),
            Reported::single(peak_rss_mb, procfs::peak_rss_mb()),
        ],
    };
    let exact = [
        Reported::single(sim_rounds, reference.rounds as f64),
        Reported::single(wire_payload_bytes, reference.net.payload_bytes as f64),
        Reported::single(ops_failed, check.failed as f64),
    ];
    println!(
        "== {} (seed {}, plain, {reps} reps, {} ops attempted)",
        workload.name(),
        opts.seed,
        check.attempted
    );
    for m in result.metrics.iter().chain(&exact) {
        m.print();
    }
    write_file(
        &detail_path(workload, false),
        &detail_document(opts, workload, reps, &result, &exact, &reference),
    );
    result
}

/// Spans kept in memory during a traced run and written out at its end.
struct Spans {
    origin: Instant,
    rows: Vec<String>,
}

impl Spans {
    fn us(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a span and returns its id. `extra` is appended to the
    /// JSON object (`""` or `, "key": value…`).
    fn add(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        extra: &str,
    ) -> usize {
        let id = self.rows.len();
        let parent = parent.map_or("null".to_string(), |p| p.to_string());
        self.rows.push(format!(
            "{{\"id\": {id}, \"parent\": {parent}, \"name\": {}, \"start_us\": {}, \
             \"end_us\": {}{extra}}}",
            quote(name),
            json::number(self.us(start)),
            json::number(self.us(end)),
        ));
        id
    }
}

/// Per-rep layer numbers of the traced run, one sample per rep each.
#[derive(Default)]
struct LayerSamples {
    by_name: BTreeMap<&'static str, Vec<f64>>,
}

impl LayerSamples {
    fn push(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a declared per-layer metric"
        );
        self.by_name.entry(name).or_default().push(value);
    }

    /// Every declared per-layer metric, in table order: the median of
    /// its samples, or 0 where the workload has none.
    fn reported(mut self) -> Vec<Reported> {
        PER_LAYER
            .iter()
            .map(|&def| match self.by_name.remove(def.name) {
                Some(samples) => Reported::median_of(def, samples),
                None => Reported::single(def, 0.0),
            })
            .collect()
    }
}

/// Runs the workload's schedule up the sim → loopback → reactor ladder
/// with bare nodes, asserting equal outcomes, and derives what each
/// layer adds.
fn ladder(
    plan: NetPlan,
    inputs: &Inputs,
    seed: u64,
    check: &mut Checker,
    layers: &mut LayerSamples,
) {
    let g = &inputs.graphs[0];
    let rungs: &[Rung] = if plan.rung == Rung::Reactor {
        &[Rung::Sim, Rung::Loopback, Rung::Reactor]
    } else {
        &[Rung::Sim, Rung::Loopback]
    };
    for _ in 0..TRACED_REPS {
        let mut secs = Vec::with_capacity(rungs.len());
        for &rung in rungs {
            let (answer, cost) = measure(|| run_net(NetPlan { rung, ..plan }, g, seed, None));
            check.same_outcome(rung, &answer);
            let (name, rates) = match rung {
                Rung::Sim => ("net.ladder.sim_s", None),
                Rung::Loopback => (
                    "net.ladder.loopback_s",
                    Some(("net.loopback.frames_per_s", "net.loopback.mb_per_s")),
                ),
                Rung::Reactor => (
                    "net.ladder.reactor_s",
                    Some(("net.reactor.frames_per_s", "net.reactor.mb_per_s")),
                ),
            };
            layers.push(name, cost.wall);
            if let Some((frames, mb)) = rates {
                layers.push(frames, answer.net.frames_sent as f64 / cost.wall);
                layers.push(mb, answer.net.bytes_sent as f64 / 1e6 / cost.wall);
            }
            if rung == Rung::Reactor {
                layers.push("net.reactor.cpu_user_s", cost.user);
                layers.push("net.reactor.cpu_sys_s", cost.sys);
                layers.push("net.reactor.sys_share", cost.sys / (cost.user + cost.sys));
                layers.push("net.reactor.peer_losses", answer.metrics.lost as f64);
            }
            secs.push(cost.wall);
        }
        let (sim, loopback) = (secs[0], secs[1]);
        layers.push("net.runner.overhead_s", loopback - sim);
        if let Some(reactor) = secs.get(2) {
            layers.push("net.reactor.socket_s", reactor - loopback);
        }
        if plan.mode == PayloadMode::Delta {
            // The same schedule in snapshot frames, one rung down from
            // any socket: the difference is what diff + varint +
            // knowledge cache cost.
            let snapshot = NetPlan {
                rung: Rung::Loopback,
                mode: PayloadMode::Snapshot,
                ..plan
            };
            let (answer, cost) = measure(|| run_net(snapshot, g, seed, None));
            check.same_outcome(Rung::Loopback, &answer);
            layers.push("net.delta.cost_s", loopback - cost.wall);
        }
        if plan.rung == Rung::Reactor {
            // A zero-horizon run: sockets, handshakes and teardown only.
            let start_only = NetPlan {
                max_rounds: 0,
                converge: false,
                seeds: 1,
                ..plan
            };
            let (answer, cost) = measure(|| run_net(start_only, g, seed, None));
            layers.push("net.reactor.start_s", cost.wall);
            check.correct &= answer.complete;
        }
    }
}

/// The workload-independent unit costs.
fn micro_loops(seed: u64, layers: &mut LayerSamples) {
    for (universe, names) in [
        (
            4096,
            [
                "sim.rumor.union_ns.u4096",
                "sim.rumor.snapshot_ns.u4096",
                "sim.rumor.compact_union_ns.u4096",
                "sim.rumor.diff_ns.u4096",
            ],
        ),
        (
            1024,
            [
                "sim.rumor.union_ns.u1024",
                "sim.rumor.snapshot_ns.u1024",
                "sim.rumor.compact_union_ns.u1024",
                "sim.rumor.diff_ns.u1024",
            ],
        ),
    ] {
        let c = micro::rumor_costs(universe, seed);
        let values = [c.union_ns, c.snapshot_ns, c.compact_union_ns, c.diff_ns];
        for (name, value) in names.into_iter().zip(values) {
            layers.push(name, value);
        }
    }
    let gf2 = micro::gf2_costs(seed);
    layers.push("core.gf2.insert_ns", gf2.insert_ns);
    layers.push("core.gf2.combine_ns", gf2.combine_ns);
    let delta = micro::delta_costs(seed);
    layers.push("net.delta.encode_ns.d0", delta.encode_ns_d0);
    layers.push("net.delta.encode_ns.d8", delta.encode_ns_d8);
    layers.push("net.delta.decode_ns.d0", delta.decode_ns_d0);
    layers.push("net.delta.decode_ns.d8", delta.decode_ns_d8);
    let (encode, decode) = micro::wire_costs(36);
    layers.push("net.wire.encode_ns.b36", encode);
    layers.push("net.wire.decode_ns.b36", decode);
    let (encode, decode) = micro::wire_costs(132);
    layers.push("net.wire.encode_ns.b132", encode);
    layers.push("net.wire.decode_ns.b132", decode);
}

/// Splits one traced rep's wall time into callback time (through the
/// probe), timer cost and the remainder — the engine's own time, or on
/// a net workload engine-equivalent work plus runner and transport.
/// Returns the rep's callback row for the trace file.
fn rep_layers(
    rep: usize,
    tracer: &Tracer,
    wall: f64,
    (timer_ns, empty_ns): (f64, f64),
    layers: &mut LayerSamples,
) -> String {
    let probe = &tracer.probe;
    let kinds = [
        ("core.payload_s", "core.payload_calls", &probe.payload),
        ("core.on_round_s", "core.on_round_calls", &probe.on_round),
        (
            "core.on_exchange_s",
            "core.on_exchange_calls",
            &probe.on_exchange,
        ),
    ];
    let mut in_callbacks = 0.0;
    let mut timed_calls = 0;
    let mut rows = Vec::new();
    for (seconds, calls, kind) in kinds {
        let estimate = kind.estimated_seconds(empty_ns);
        layers.push(seconds, estimate);
        layers.push(calls, kind.calls() as f64);
        in_callbacks += estimate;
        timed_calls += kind.sampled();
        rows.push(format!(
            "{}: {{\"calls\": {}, \"timed\": {}, \"seconds\": {}}}",
            quote(seconds),
            kind.calls(),
            kind.sampled(),
            json::number(estimate)
        ));
    }
    // Each timed call reads the clock twice, each tick once; the part of
    // a timed call's reads that sits inside its interval is already out
    // of the callback estimate.
    let timer_cost = ((2.0 * timer_ns - empty_ns).max(0.0) * timed_calls as f64
        + timer_ns * tracer.ticks.len() as f64)
        / 1e9;
    let engine_self = (wall - in_callbacks - timer_cost).max(0.0);
    layers.push("core.callback_share", in_callbacks / wall);
    layers.push("sim.engine.self_s", engine_self);
    layers.push("sim.engine.self_share", engine_self / wall);
    layers.push(
        "sim.engine.ns_per_step",
        engine_self * 1e9 / probe.on_round.calls() as f64,
    );
    format!("{{\"rep\": {rep}, {}}}", rows.join(", "))
}

/// The counts of the reference answer: simulated, so they repeat
/// exactly and a host-speed change must not move them.
fn answer_layers(workload: Workload, inputs: &Inputs, a: &Answer, layers: &mut LayerSamples) {
    layers.push("sim_rounds", a.rounds as f64);
    layers.push("wire_payload_bytes", a.net.payload_bytes as f64);
    layers.push("sim.engine.stepped", a.stats.stepped as f64);
    layers.push("sim.engine.woken", a.stats.woken as f64);
    layers.push("sim.engine.event_rounds", a.stats.event_rounds as f64);
    layers.push("sim.engine.skipped_rounds", a.stats.skipped_rounds as f64);
    layers.push("sim.engine.peak_frontier", a.stats.peak_frontier as f64);
    if a.stats.event_rounds > 0 {
        // Each run steps its own graph; `stream_rlc`'s two are equal-sized.
        let n = inputs.graphs[0].node_count() as f64;
        layers.push(
            "sim.engine.mean_frontier_fraction",
            a.stats.stepped as f64 / (a.stats.event_rounds as f64 * n),
        );
    }
    layers.push("sim.engine.initiated", a.metrics.initiated as f64);
    layers.push("sim.engine.delivered", a.metrics.delivered as f64);
    layers.push("sim.engine.lost", a.metrics.lost as f64);
    layers.push("sim.engine.rejected", a.metrics.rejected as f64);
    if workload == Workload::StreamRlc {
        // Innovations needed: every node must gain every rumor but the
        // ones injected at it — (n·k − k) per run, n = 64, k = 256.
        let needed = (64 * 256 - 256) * inputs.graphs.len();
        layers.push(
            "core.stream.useful_ratio",
            needed as f64 / a.metrics.payload_units as f64,
        );
    }
    if a.net.frames_sent > 0 {
        layers.push("net.wire.frames_sent", a.net.frames_sent as f64);
        layers.push("net.wire.bytes_sent", a.net.bytes_sent as f64);
        layers.push(
            "net.wire.overhead_bytes_per_frame",
            (a.net.bytes_sent - a.net.payload_bytes) as f64 / a.net.frames_sent as f64,
        );
        let payload_frames = a.net.delta_frames + a.net.snapshot_frames;
        layers.push(
            "net.delta.hit_ratio",
            a.net.delta_frames as f64 / payload_frames as f64,
        );
        layers.push(
            "net.delta.compression_ratio",
            a.net.snapshot_bytes as f64 / a.net.payload_bytes as f64,
        );
    }
}

/// The traced run: per-layer metrics, with `Timed<P>` in place, the
/// ladder and the micro-loops. Its end-to-end times are not reported —
/// those always come from the plain run.
fn run_traced(opts: &RunOptions, workload: Workload) -> ChildResult {
    let origin = Instant::now();
    let mut spans = Spans {
        origin,
        rows: Vec::new(),
    };
    let mut layers = LayerSamples::default();
    layers.push("proc.loadavg_start", procfs::loadavg());
    let (timer_ns, empty_ns) = micro::timer_costs();
    layers.push("proc.timer_ns", timer_ns);
    layers.push("proc.timer_empty_ns", empty_ns);

    let start = Instant::now();
    let inputs = build_inputs(workload, opts.seed);
    let built = Instant::now();
    spans.add("graph.build", None, start, built, "");
    layers.push("graph.build_s", built.duration_since(start).as_secs_f64());
    layers.push("graph.rss_mb_after_build", procfs::peak_rss_mb());
    let nodes: usize = inputs
        .graphs
        .iter()
        .map(latency_graph::Graph::node_count)
        .sum();
    let edges: usize = inputs
        .graphs
        .iter()
        .map(latency_graph::Graph::edge_count)
        .sum();
    layers.push("graph.nodes", nodes as f64);
    layers.push("graph.edges", edges as f64);

    let reference = run_rep(workload, &inputs, opts.seed, None);
    let mut check = Checker::new(workload, opts.seed, reference.clone());
    let on_reactor = workload.net().is_some_and(|p| p.rung == Rung::Reactor);
    let (mut plain_wall, mut traced_wall) = (Vec::new(), Vec::new());
    let mut round_us = Vec::new();
    let mut callbacks = Vec::new();
    let mut threads_peak = 0;
    for rep in 0..TRACED_REPS {
        let start = Instant::now();
        let plain = run_rep(workload, &inputs, opts.seed, None);
        let end = Instant::now();
        check.rep(&plain);
        plain_wall.push(end.duration_since(start).as_secs_f64());
        spans.add("rep.plain", None, start, end, &format!(", \"rep\": {rep}"));

        let mut tracer = Tracer::default();
        let start = Instant::now();
        let traced = run_rep(workload, &inputs, opts.seed, Some(&mut tracer));
        let end = Instant::now();
        check.rep(&traced);
        let wall = end.duration_since(start).as_secs_f64();
        traced_wall.push(wall);
        let rep_span = spans.add("rep.traced", None, start, end, &format!(", \"rep\": {rep}"));

        callbacks.push(rep_layers(
            rep,
            &tracer,
            wall,
            (timer_ns, empty_ns),
            &mut layers,
        ));

        for (i, run) in tracer.runs.iter().enumerate() {
            let last_tick = tracer
                .runs
                .get(i + 1)
                .map_or(tracer.ticks.len(), |r| r.first_tick);
            let ticks = &tracer.ticks[run.first_tick..last_tick];
            round_us.extend(
                ticks
                    .windows(2)
                    .map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e6),
            );
            let stride = ticks.len().div_ceil(MAX_TICKS_WRITTEN).max(1);
            let written: Vec<f64> = ticks.iter().step_by(stride).map(|&t| spans.us(t)).collect();
            let extra = format!(
                ", \"ticks\": {}, \"tick_stride\": {stride}, \"ticks_us\": {}",
                ticks.len(),
                json::number_array(&written)
            );
            spans.add("run", Some(rep_span), run.start, run.end, &extra);
        }
        threads_peak = threads_peak.max(tracer.threads_peak);
    }
    layers.push("trace.reps", TRACED_REPS as f64);
    layers.push(
        "trace.overhead_ratio",
        median(&traced_wall) / median(&plain_wall),
    );
    layers.push("sim.engine.round_us_p50", percentile(&round_us, 50.0));
    layers.push("sim.engine.round_us_p99", percentile(&round_us, 99.0));
    if on_reactor {
        layers.push(
            "net.reactor.round_ms_p50",
            percentile(&round_us, 50.0) / 1e3,
        );
        layers.push(
            "net.reactor.round_ms_p99",
            percentile(&round_us, 99.0) / 1e3,
        );
        layers.push("net.reactor.os_threads_peak", threads_peak as f64);
    }

    answer_layers(workload, &inputs, &reference, &mut layers);

    if let Some(plan) = workload.net() {
        let start = Instant::now();
        ladder(plan, &inputs, opts.seed, &mut check, &mut layers);
        spans.add("ladder", None, start, Instant::now(), "");
    }
    let start = Instant::now();
    micro_loops(opts.seed, &mut layers);
    spans.add("micro_loops", None, start, Instant::now(), "");
    layers.push(
        "proc.ctx_switches_invol",
        procfs::ctx_switches_involuntary() as f64,
    );

    let result = ChildResult {
        correct: check.correct,
        attempted: check.attempted,
        failed: check.failed,
        metrics: layers.reported(),
    };
    println!(
        "== {} (seed {}, traced, {TRACED_REPS} reps, {} ops attempted)",
        workload.name(),
        opts.seed,
        check.attempted
    );
    for m in &result.metrics {
        m.print();
    }
    write_file(
        &out_dir().join(format!("trace-{}.json", workload.name())),
        &format!(
            "{{\"workload\": {}, \"seed\": {}, \"timer_ns\": {}, \"timer_empty_ns\": {}, \
             \"callback_stride\": {}, \"callbacks\": [{}],\n \"spans\": [\n  {}\n ]}}\n",
            quote(workload.name()),
            opts.seed,
            json::number(timer_ns),
            json::number(empty_ns),
            crate::timed::STRIDE,
            callbacks.join(", "),
            spans.rows.join(",\n  ")
        ),
    );
    write_file(
        &detail_path(workload, true),
        &detail_document(opts, workload, TRACED_REPS, &result, &[], &reference),
    );
    result
}

/// Runs one workload in this process and prints the result line last.
/// Returns whether every answer was correct.
pub fn run_one(opts: &RunOptions, workload: Workload) -> bool {
    let result = if opts.trace {
        run_traced(opts, workload)
    } else {
        run_plain(opts, workload)
    };
    println!("{}", result.result_line());
    result.correct && result.failed == 0
}

/// Runs every workload, each in a fresh child process of this binary,
/// and writes the result document. Returns whether all were correct.
pub fn run_all(opts: &RunOptions) -> bool {
    let exe = std::env::current_exe().expect("the path of this binary");
    let provenance = Provenance::collect();
    let mut all_correct = true;
    let mut details = Vec::new();
    for workload in ALL {
        let detail = detail_path(workload, opts.trace);
        // A stale file must not pass for this run's result.
        let _ = std::fs::remove_file(&detail);
        let status = Command::new(&exe)
            .args(["run", "--workload", workload.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .status();
        let ok = status.is_ok_and(|s| s.success());
        if !ok {
            eprintln!("{}: the workload's process failed", workload.name());
        }
        all_correct &= ok;
        match std::fs::read_to_string(&detail) {
            Ok(text) => details.push(text),
            Err(e) => {
                eprintln!(
                    "{}: no result at {}: {e}",
                    workload.name(),
                    detail.display()
                );
                all_correct = false;
            }
        }
    }
    let default_name = if opts.trace {
        "results-trace.json"
    } else {
        "results.json"
    };
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(default_name));
    write_file(
        &path,
        &format!(
            "{{\"schema\": \"gossip-benchmark/1\",\n \"provenance\": {},\n \"seed\": {}, \
             \"seconds\": {}, \"trace\": {},\n \"runs\": [\n  {}\n ]}}\n",
            provenance.to_json(),
            opts.seed,
            json::number(opts.seconds),
            opts.trace,
            details.join(",\n  ")
        ),
    );
    println!("results: {}", path.display());
    all_correct
}

/// The `pin` subcommand: one rep of every workload at the default
/// seed, rendered as a fresh `expected.json` on standard output.
pub fn pin() {
    let pins: Vec<(Workload, Answer)> = ALL
        .into_iter()
        .map(|w| {
            eprintln!("pinning {}", w.name());
            let inputs = build_inputs(w, DEFAULT_SEED);
            let first = run_rep(w, &inputs, DEFAULT_SEED, None);
            let again = run_rep(w, &inputs, DEFAULT_SEED, None);
            assert_eq!(first, again, "{} does not repeat", w.name());
            assert!(first.complete, "{} did not complete", w.name());
            (w, first)
        })
        .collect();
    print!("{}", expected::render(&pins));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_keeps_six_significant_digits() {
        assert_eq!(short(0.0), "0");
        assert_eq!(short(241.0), "241");
        assert_eq!(short(0.812_345_678), "0.812346");
        assert_eq!(short(1_234.567_89), "1234.57");
        assert_eq!(short(0.000_123_456_789), "0.000123457");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = ChildResult {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: vec![Reported::median_of(END_TO_END[1], vec![0.3, 0.1, 0.2])],
        };
        let doc = json::parse(&result.result_line()).expect("valid JSON");
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        // `attempted` is at least 1 by contract.
        assert_eq!(doc.get("attempted").and_then(json::Json::as_f64), Some(1.0));
        let wall = doc
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.get("value").and_then(json::Json::as_f64), Some(0.2));
        assert_eq!(wall.get("unit").and_then(json::Json::as_str), Some("s"));
    }

    #[test]
    fn undeclared_layer_names_are_rejected_and_missing_ones_read_zero() {
        let mut layers = LayerSamples::default();
        layers.push("graph.build_s", 2.0);
        layers.push("graph.build_s", 4.0);
        let reported = layers.reported();
        assert_eq!(reported.len(), PER_LAYER.len());
        let get = |name: &str| {
            reported
                .iter()
                .find(|m| m.def.name == name)
                .map(|m| m.value)
        };
        assert_eq!(get("graph.build_s"), Some(3.0));
        assert_eq!(get("net.ladder.reactor_s"), Some(0.0));
        let undeclared = std::panic::catch_unwind(|| {
            LayerSamples::default().push("no.such.metric", 1.0);
        });
        assert!(undeclared.is_err());
    }

    /// A rep that differs from the first fails all its ops.
    #[test]
    fn checker_fails_every_op_of_a_wrong_rep() {
        let w = Workload::LoopbackRing;
        let inputs = build_inputs(w, 2);
        let good = run_rep(w, &inputs, 2, None);
        let mut check = Checker::new(w, 2, good.clone());
        check.rep(&good);
        assert!(check.correct);
        assert_eq!((check.attempted, check.failed), (good.metrics.initiated, 0));
        let mut bad = good.clone();
        bad.digest ^= 1;
        check.rep(&bad);
        assert!(!check.correct);
        assert_eq!(check.failed, good.metrics.initiated);
        let mut other = Checker::new(w, 2, good.clone());
        other.same_outcome(Rung::Sim, &bad);
        assert!(!other.correct);
    }
}

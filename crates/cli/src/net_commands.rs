//! The network-runtime subcommands: `gossip run-net` drives a whole
//! cluster in one process (deterministic loopback, or the
//! single-threaded reactor on the virtual clock or the wall clock), and
//! `gossip serve --nodes A..B` runs a reactor-hosted shard of nodes —
//! one node or many — over real sockets so a cluster can be assembled
//! from independent processes (or terminals).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::time::Duration;

use gossip_core::flooding::FloodingNode;
use gossip_core::push_pull::{Mode, PushPullNode};
use gossip_core::stream::{RlcStreamNode, RrStreamNode};
use gossip_core::Goal;
use gossip_net::{
    run_loopback_mode_with_stats, run_reactor_mode_with_stats, NetError, NodeOutcome,
    NodeStopReason, PayloadMode, Reactor, ReactorConfig, RunView, ShardRunner, TransportStats,
    WireAccounting, WirePayload,
};
use gossip_sim::{
    completion_rounds, CompletionLog, Protocol, RumorSet, SimConfig, SimMetrics, StopReason,
    StreamSpec,
};
use latency_graph::{Graph, NodeId};

use crate::args::Args;
use crate::error::CliError;
use crate::load_graph;

/// Shared flag parsing for both subcommands: goal, seed, pacing,
/// payload mode.
struct NetArgs {
    goal: Goal,
    algorithm: String,
    sim: SimConfig,
    round: Duration,
    mode: PayloadMode,
}

fn parse_net_args(args: &mut Args, algorithm: String, g: &Graph) -> Result<NetArgs, CliError> {
    let seed: u64 = args.flag_or("seed", 0)?;
    let max_rounds: u64 = args.flag_or("max-rounds", 10_000)?;
    let round_ms: u64 = args.flag_or("round-ms", 20)?;
    let source_idx: usize = args.flag_or("source", 0)?;
    let payload_mode: String = args.flag_or("payload-mode", "snapshot".to_owned())?;
    let all_to_all = args.switch("all-to-all");
    let mode = match payload_mode.as_str() {
        "snapshot" => PayloadMode::Snapshot,
        "delta" => PayloadMode::Delta,
        other => {
            return Err(CliError::BadArgument {
                what: "payload-mode",
                value: other.to_string(),
            })
        }
    };
    if source_idx >= g.node_count() {
        return Err(CliError::BadArgument {
            what: "source",
            value: source_idx.to_string(),
        });
    }
    let goal = if all_to_all {
        Goal::AllToAll
    } else {
        Goal::Broadcast(NodeId::new(source_idx))
    };
    Ok(NetArgs {
        goal,
        algorithm,
        sim: SimConfig {
            seed,
            max_rounds,
            ..SimConfig::default()
        },
        round: Duration::from_millis(round_ms.max(1)),
        mode,
    })
}

fn net_error(e: NetError) -> CliError {
    CliError::Net(e.to_string())
}

/// The per-node done predicate the distributed runs report through the
/// done barrier: the goal, restricted to peers that are still present
/// (a broadcast whose source crashed, or an all-to-all with a dead
/// node, should stop at the reachable component rather than spin to the
/// round cap).
fn locally_done(goal: &Goal, n: usize, rumors: &RumorSet, view: &RunView<'_>) -> bool {
    match goal {
        Goal::AllToAll => (0..n).all(|i| {
            let v = NodeId::new(i);
            view.is_gone(v) || rumors.contains(v)
        }),
        Goal::Broadcast(src) => view.is_gone(*src) || rumors.contains(*src),
        g => g.locally_met(rumors),
    }
}

fn write_metrics(out: &mut String, m: &SimMetrics, stats: &TransportStats) {
    let _ = writeln!(
        out,
        "exchanges = {} initiated, {} delivered, {} lost",
        m.initiated, m.delivered, m.lost
    );
    let _ = writeln!(out, "payload units = {}", m.payload_units);
    let _ = writeln!(
        out,
        "frames = {} sent ({} bytes), {} received ({} bytes)",
        stats.frames_sent, stats.bytes_sent, stats.frames_received, stats.bytes_received
    );
}

/// Reports delta-mode byte accounting; snapshot runs skip the line
/// since payload bytes already appear under `frames =`.
fn write_accounting(out: &mut String, mode: PayloadMode, acct: &WireAccounting) {
    if mode == PayloadMode::Delta {
        let _ = writeln!(
            out,
            "payload bytes = {} sent, {} snapshot-equivalent ({:.2}x), {} delta frames, {} snapshot frames",
            acct.payload_bytes,
            acct.snapshot_bytes,
            acct.ratio(),
            acct.delta_frames,
            acct.snapshot_frames
        );
    }
}

/// Cluster-wide totals over the per-node outcomes of a wall-paced run.
struct Totals {
    /// The last node's stopping round.
    rounds: u64,
    /// Whether every node stopped at the done barrier.
    barrier: bool,
    metrics: SimMetrics,
    stats: TransportStats,
    acct: WireAccounting,
    losses: usize,
}

fn totals<P>(outcomes: &[NodeOutcome<P>]) -> Totals {
    let mut t = Totals {
        rounds: 0,
        barrier: true,
        metrics: SimMetrics::default(),
        stats: TransportStats::default(),
        acct: WireAccounting::default(),
        losses: 0,
    };
    for o in outcomes {
        t.rounds = t.rounds.max(o.rounds);
        t.barrier &= o.reason == NodeStopReason::Barrier;
        t.metrics.absorb(&o.metrics);
        t.stats.absorb(&o.stats);
        t.acct.absorb(&o.accounting);
        t.losses += o.losses.len();
    }
    t
}

/// `--transport tcp`: every node hosted by one wall-paced reactor —
/// real localhost sockets, `round` per round, and no remote shard to
/// exchange addresses with.
fn run_wall_cluster<P, F, D>(
    g: &Graph,
    sim: &SimConfig,
    round: Duration,
    mode: PayloadMode,
    factory: F,
    done: D,
) -> Result<Vec<NodeOutcome<P>>, CliError>
where
    P: Protocol,
    P::Payload: WirePayload,
    F: FnMut(NodeId, usize) -> P,
    D: Fn(&P, &RunView<'_>) -> bool,
{
    let cfg = ReactorConfig {
        round,
        ..ReactorConfig::default()
    };
    let n = g.node_count();
    let reactor = Reactor::new(g, 0..n, cfg).map_err(net_error)?;
    ShardRunner::new(g, 0..n, sim, mode, factory, reactor)
        .run_barrier(done)
        .map_err(net_error)
}

fn run_net_generic<P, F, R>(
    g: &Graph,
    net: &NetArgs,
    transport: &str,
    factory: F,
    rumors: R,
) -> Result<String, CliError>
where
    P: Protocol,
    P::Payload: WirePayload,
    F: FnMut(NodeId, usize) -> P,
    R: Fn(&P) -> &RumorSet,
{
    let mut out = String::new();
    let _ = writeln!(out, "algorithm = {}", net.algorithm);
    let _ = writeln!(out, "transport = {transport}");
    let _ = writeln!(out, "goal = {:?}", net.goal);
    match transport {
        "loopback" | "reactor" => {
            let goal = net.goal.clone();
            let stop = |nodes: &[&P], _| goal.met_by_all(nodes.iter().map(|p| rumors(p)));
            // Both run the engine's schedule exactly; the reactor does it
            // over real (self-connected) non-blocking sockets.
            let (o, stats, acct) = if transport == "reactor" {
                run_reactor_mode_with_stats(g, &net.sim, net.mode, factory, stop)
            } else {
                run_loopback_mode_with_stats(g, &net.sim, net.mode, factory, stop)
            };
            let _ = writeln!(out, "rounds = {}", o.rounds);
            let _ = writeln!(out, "complete = {}", o.reason != StopReason::MaxRounds);
            write_metrics(&mut out, &o.metrics, &stats);
            write_accounting(&mut out, net.mode, &acct);
        }
        "tcp" => {
            let n = g.node_count();
            let goal = net.goal.clone();
            let done = move |p: &P, view: &RunView<'_>| locally_done(&goal, n, rumors(p), view);
            let outcomes = run_wall_cluster(g, &net.sim, net.round, net.mode, factory, done)?;
            let t = totals(&outcomes);
            let _ = writeln!(out, "nodes = {}", outcomes.len());
            let _ = writeln!(out, "rounds = {}", t.rounds);
            let _ = writeln!(out, "complete = {}", t.barrier);
            write_metrics(&mut out, &t.metrics, &t.stats);
            write_accounting(&mut out, net.mode, &t.acct);
            let _ = writeln!(out, "peer losses = {}", t.losses);
        }
        other => {
            return Err(CliError::BadArgument {
                what: "transport",
                value: other.to_string(),
            })
        }
    }
    Ok(out)
}

/// Runs the streaming workload over one transport, generic over the
/// selection policy. Mirrors [`run_net_generic`], with the stop/done
/// barrier on per-node completion logs instead of rumor sets, and
/// per-rumor completion rounds in the report.
fn run_net_stream_generic<P, F, L>(
    g: &Graph,
    transport: &str,
    policy: &str,
    sim: &SimConfig,
    round: Duration,
    factory: F,
    log: L,
) -> Result<String, CliError>
where
    P: Protocol,
    P::Payload: WirePayload,
    F: FnMut(NodeId, usize) -> P,
    L: Fn(&P) -> &CompletionLog,
{
    let fmt_completions = |completions: &[Option<u64>]| {
        let cells: Vec<String> = completions
            .iter()
            .map(|c| c.map_or_else(|| "-".to_string(), |r| r.to_string()))
            .collect();
        format!("[{}]", cells.join(","))
    };
    let mut out = String::new();
    let _ = writeln!(out, "workload = stream ({policy})");
    let _ = writeln!(out, "transport = {transport}");
    match transport {
        "loopback" | "reactor" => {
            let stop = |nodes: &[&P], _| nodes.iter().all(|p| log(p).heard_all());
            let (o, stats, acct) = if transport == "reactor" {
                run_reactor_mode_with_stats(g, sim, PayloadMode::Snapshot, factory, stop)
            } else {
                run_loopback_mode_with_stats(g, sim, PayloadMode::Snapshot, factory, stop)
            };
            let _ = writeln!(out, "rounds = {}", o.rounds);
            let _ = writeln!(out, "complete = {}", o.reason != StopReason::MaxRounds);
            write_metrics(&mut out, &o.metrics, &stats);
            let _ = writeln!(out, "stream units = {}", acct.stream_units);
            let completions = completion_rounds(o.nodes.iter().map(&log));
            let _ = writeln!(out, "completions = {}", fmt_completions(&completions));
        }
        "tcp" => {
            let done = |p: &P, _: &RunView<'_>| log(p).heard_all();
            let outcomes = run_wall_cluster(g, sim, round, PayloadMode::Snapshot, factory, done)?;
            let t = totals(&outcomes);
            let _ = writeln!(out, "nodes = {}", outcomes.len());
            let _ = writeln!(out, "rounds = {}", t.rounds);
            let _ = writeln!(out, "complete = {}", t.barrier);
            write_metrics(&mut out, &t.metrics, &t.stats);
            let _ = writeln!(out, "stream units = {}", t.acct.stream_units);
            let completions = completion_rounds(outcomes.iter().map(|o| log(&o.protocol)));
            let _ = writeln!(out, "completions = {}", fmt_completions(&completions));
            let _ = writeln!(out, "peer losses = {}", t.losses);
        }
        other => {
            return Err(CliError::BadArgument {
                what: "transport",
                value: other.to_string(),
            })
        }
    }
    Ok(out)
}

/// `gossip run-net --workload stream`: the streaming workload over a
/// transport (loopback, tcp, or reactor).
fn run_net_stream(args: &mut Args) -> Result<String, CliError> {
    let path: String = args.require("graph file")?;
    let transport: String = args.flag_or("transport", "loopback".to_owned())?;
    let seed: u64 = args.flag_or("seed", 0)?;
    let max_rounds: u64 = args.flag_or("max-rounds", 10_000)?;
    let round_ms: u64 = args.flag_or("round-ms", 20)?;
    let rumors: usize = args.flag_or("rumors", 8)?;
    let budget: usize = args.flag_or("budget", 1)?;
    let policy: String = args.flag_or("policy", "rr".to_owned())?;
    args.finish()?;
    if rumors == 0 {
        return Err(CliError::BadArgument {
            what: "rumors",
            value: rumors.to_string(),
        });
    }
    if budget == 0 {
        return Err(CliError::BadArgument {
            what: "budget",
            value: budget.to_string(),
        });
    }
    let g = load_graph(&path)?;
    let spec = StreamSpec::spread(rumors, budget, g.node_count());
    let sim = SimConfig {
        seed,
        max_rounds,
        ..SimConfig::default()
    };
    let round = Duration::from_millis(round_ms.max(1));
    match policy.as_str() {
        "rr" => run_net_stream_generic(
            &g,
            &transport,
            "rr",
            &sim,
            round,
            |id, _| RrStreamNode::new(id, &spec),
            RrStreamNode::log,
        ),
        "rlc" => run_net_stream_generic(
            &g,
            &transport,
            "rlc",
            &sim,
            round,
            |id, _| RlcStreamNode::new(id, &spec),
            RlcStreamNode::log,
        ),
        other => Err(CliError::BadArgument {
            what: "policy",
            value: other.to_string(),
        }),
    }
}

/// `gossip run-net`: run a protocol cluster over a chosen transport.
pub fn run_net(args: &mut Args) -> Result<String, CliError> {
    if let Some(workload) = args.flag_raw("workload") {
        if workload != "stream" {
            return Err(CliError::BadArgument {
                what: "workload",
                value: workload,
            });
        }
        return run_net_stream(args);
    }
    let algorithm: String = args.require("algorithm")?;
    let path: String = args.require("graph file")?;
    let transport: String = args.flag_or("transport", "loopback".to_owned())?;
    let g = load_graph(&path)?;
    let net = parse_net_args(args, algorithm, &g)?;
    args.finish()?;
    match net.algorithm.as_str() {
        "push-pull" | "push-only" => {
            let mode = if net.algorithm == "push-only" {
                Mode::PushOnly
            } else {
                Mode::PushPull
            };
            run_net_generic(
                &g,
                &net,
                &transport,
                |id, n| PushPullNode::new(id, n, mode),
                |p: &PushPullNode| &p.rumors,
            )
        }
        "flooding" => run_net_generic(
            &g,
            &net,
            &transport,
            FloodingNode::new,
            |p: &FloodingNode| &p.rumors,
        ),
        other => Err(CliError::BadArgument {
            what: "algorithm",
            value: other.to_string(),
        }),
    }
}

/// Parses a peers file: `<node-id> <host:port>` per line; `#` comments
/// and blank lines are ignored.
fn parse_peers_file(text: &str, n: usize) -> Result<BTreeMap<NodeId, String>, CliError> {
    let bad = |line: &str| CliError::BadArgument {
        what: "peers file line",
        value: line.to_string(),
    };
    let mut peers = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(id), Some(addr), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(bad(line));
        };
        let id: usize = id.parse().map_err(|_| bad(line))?;
        if id >= n {
            return Err(bad(line));
        }
        peers.insert(NodeId::new(id), addr.to_string());
    }
    Ok(peers)
}

/// Parses a `--nodes A..B` shard range (half-open, non-empty, within
/// the graph).
fn parse_node_range(s: &str, n: usize) -> Result<Range<usize>, CliError> {
    let bad = || CliError::BadArgument {
        what: "nodes",
        value: s.to_string(),
    };
    let (a, b) = s.split_once("..").ok_or_else(bad)?;
    let a: usize = a.parse().map_err(|_| bad())?;
    let b: usize = b.parse().map_err(|_| bad())?;
    if a >= b || b > n {
        return Err(bad());
    }
    Ok(a..b)
}

/// Runs a reactor-hosted shard of `nodes` (`serve --nodes A..B`): one
/// listener, one thread, every hosted runner stepped cooperatively.
fn serve_shard_generic<P, F, R>(
    g: &Graph,
    nodes: Range<usize>,
    net: &NetArgs,
    cfg: ReactorConfig,
    peers: BTreeMap<NodeId, String>,
    factory: F,
    rumors: R,
) -> Result<String, CliError>
where
    P: Protocol,
    P::Payload: WirePayload,
    F: FnMut(NodeId, usize) -> P,
    R: Fn(&P) -> &RumorSet,
{
    let n = g.node_count();
    let goal = net.goal.clone();
    let mut reactor = Reactor::new(g, nodes.clone(), cfg).map_err(net_error)?;
    let listen_addr = reactor.local_addr();
    for (node, addr) in peers {
        reactor.set_peer(node, addr);
    }
    let outcomes = ShardRunner::new(g, nodes.clone(), &net.sim, net.mode, factory, reactor)
        .run_barrier(|p, view| locally_done(&goal, n, rumors(p), view))
        .map_err(net_error)?;
    let mut out = String::new();
    let _ = writeln!(out, "algorithm = {}", net.algorithm);
    let _ = writeln!(
        out,
        "shard = {} nodes of {} (listened on {})",
        nodes.len(),
        n,
        listen_addr
    );
    let t = totals(&outcomes);
    let goal_met = outcomes
        .iter()
        .all(|o| net.goal.locally_met(rumors(&o.protocol)));
    let _ = writeln!(out, "rounds = {}", t.rounds);
    let _ = writeln!(out, "barrier = {}", t.barrier);
    let _ = writeln!(out, "goal met = {goal_met}");
    write_metrics(&mut out, &t.metrics, &t.stats);
    for (node, o) in nodes.map(NodeId::new).zip(&outcomes) {
        for loss in &o.losses {
            let _ = writeln!(
                out,
                "peer lost = {} (seen by {}) after {} attempts ({})",
                loss.peer.index(),
                node.index(),
                loss.attempts,
                loss.error
            );
        }
    }
    Ok(out)
}

/// `gossip serve`: run a reactor-hosted shard of nodes (`--nodes A..B`;
/// `I..I+1` is a single node) of a cluster in this process.
pub fn serve(args: &mut Args) -> Result<String, CliError> {
    let path: String = args.require("graph file")?;
    let nodes_range: Option<String> = args.flag_opt("nodes")?;
    let listen: String = args.flag_or("listen", "127.0.0.1:0".to_owned())?;
    let peers_path: Option<String> = args.flag_opt("peers")?;
    let algorithm: String = args.flag_or("algorithm", "push-pull".to_owned())?;
    let g = load_graph(&path)?;
    let net = parse_net_args(args, algorithm, &g)?;
    args.finish()?;
    let n = g.node_count();
    let range = nodes_range.ok_or(CliError::MissingArgument("--nodes <A..B>"))?;
    let nodes = parse_node_range(&range, n)?;
    let peers = match &peers_path {
        Some(p) => {
            let text =
                std::fs::read_to_string(p).map_err(|e| CliError::Io(p.clone(), e.to_string()))?;
            parse_peers_file(&text, n)?
        }
        // A shard hosting every neighbor needs no peers file.
        None => BTreeMap::new(),
    };
    // A remote neighbor without an address fails fast, before any run.
    let unaddressed = nodes
        .clone()
        .flat_map(|u| g.neighbor_ids(NodeId::new(u)))
        .find(|v| !nodes.contains(&v.index()) && !peers.contains_key(v));
    if let Some(&v) = unaddressed {
        return Err(net_error(NetError::UnknownPeer(v)));
    }
    let cfg = ReactorConfig {
        listen,
        round: net.round,
        ..ReactorConfig::default()
    };
    match net.algorithm.as_str() {
        "push-pull" | "push-only" => {
            let mode = if net.algorithm == "push-only" {
                Mode::PushOnly
            } else {
                Mode::PushPull
            };
            serve_shard_generic(
                &g,
                nodes,
                &net,
                cfg,
                peers,
                |id, n| PushPullNode::new(id, n, mode),
                |p: &PushPullNode| &p.rumors,
            )
        }
        "flooding" => serve_shard_generic(
            &g,
            nodes,
            &net,
            cfg,
            peers,
            FloodingNode::new,
            |p: &FloodingNode| &p.rumors,
        ),
        other => Err(CliError::BadArgument {
            what: "algorithm",
            value: other.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(parts: &[&str]) -> Result<String, CliError> {
        let argv: Vec<String> = parts.iter().map(std::string::ToString::to_string).collect();
        crate::run(&argv)
    }

    fn temp_file(name: &str, contents: &str) -> String {
        let dir = std::env::temp_dir().join("gossip-cli-net-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path.to_str().unwrap().to_string()
    }

    fn temp_graph(name: &str, spec: &[&str]) -> String {
        temp_file(name, &call(spec).unwrap())
    }

    #[test]
    fn run_net_loopback_matches_run() {
        let p = temp_graph("lo.txt", &["generate", "cycle", "10"]);
        for alg in ["push-pull", "push-only", "flooding"] {
            let out = call(&["run-net", alg, &p, "--seed", "4"]).unwrap();
            assert!(out.contains("transport = loopback"), "{out}");
            assert!(out.contains("complete = true"), "{alg}: {out}");
        }
        let a2a = call(&["run-net", "push-pull", &p, "--all-to-all"]).unwrap();
        assert!(a2a.contains("complete = true"), "{a2a}");
    }

    #[test]
    fn run_net_tcp_triangle() {
        let p = temp_graph("tcp3.txt", &["generate", "clique", "3"]);
        let out = call(&[
            "run-net",
            "push-pull",
            &p,
            "--transport",
            "tcp",
            "--all-to-all",
            "--round-ms",
            "5",
        ])
        .unwrap();
        assert!(out.contains("transport = tcp"), "{out}");
        assert!(out.contains("complete = true"), "{out}");
        assert!(out.contains("peer losses = 0"), "{out}");
    }

    #[test]
    fn run_net_reactor_matches_loopback() {
        // The reactor replays the engine's schedule exactly, so its
        // round count and exchange metrics equal loopback's.
        let p = temp_graph("reactor10.txt", &["generate", "cycle", "10"]);
        let lo = call(&["run-net", "push-pull", &p, "--seed", "4", "--all-to-all"]).unwrap();
        let re = call(&[
            "run-net",
            "push-pull",
            &p,
            "--transport",
            "reactor",
            "--seed",
            "4",
            "--all-to-all",
        ])
        .unwrap();
        assert!(re.contains("transport = reactor"), "{re}");
        assert!(re.contains("complete = true"), "{re}");
        let tail = |s: &str| {
            s.lines()
                .filter(|l| l.starts_with("rounds") || l.starts_with("exchanges"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(tail(&lo), tail(&re), "loopback:\n{lo}\nreactor:\n{re}");
    }

    #[test]
    fn run_net_delta_mode_matches_snapshot_outcome() {
        // Delta mode must change the bytes, never the execution: every
        // schedule-derived output line (rounds, exchanges, payload
        // units) is identical across modes, on every transport.
        let p = temp_graph("delta128.txt", &["generate", "clique", "128"]);
        let tail = |s: &str| {
            s.lines()
                .filter(|l| {
                    l.starts_with("rounds")
                        || l.starts_with("exchanges")
                        || l.starts_with("payload units")
                        || l.starts_with("complete")
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        for transport in ["loopback", "reactor"] {
            let base = &[
                "run-net",
                "push-pull",
                &p,
                "--transport",
                transport,
                "--seed",
                "9",
                "--all-to-all",
            ];
            let snap = call(base).unwrap();
            let mut argv = base.to_vec();
            argv.extend(["--payload-mode", "delta"]);
            let delta = call(&argv).unwrap();
            assert_eq!(tail(&snap), tail(&delta), "{transport}:\n{snap}\n{delta}");
            assert!(delta.contains("payload bytes = "), "{transport}: {delta}");
            // A 128-clique re-sends enough redundant state that delta
            // frames must actually be chosen.
            assert!(!delta.contains("0 delta frames"), "{transport}: {delta}");
        }
    }

    #[test]
    fn run_net_tcp_delta_converges() {
        let p = temp_graph("tcpdelta.txt", &["generate", "clique", "3"]);
        let out = call(&[
            "run-net",
            "push-pull",
            &p,
            "--transport",
            "tcp",
            "--all-to-all",
            "--round-ms",
            "5",
            "--payload-mode",
            "delta",
        ])
        .unwrap();
        assert!(out.contains("complete = true"), "{out}");
        assert!(out.contains("peer losses = 0"), "{out}");
        assert!(out.contains("payload bytes = "), "{out}");
    }

    #[test]
    fn run_net_stream_all_transports() {
        // The streaming workload must complete with identical rounds
        // and per-rumor completion curves on the engine-schedule
        // transports (loopback and reactor replay the same schedule);
        // tcp paces real sockets, so only completion is asserted.
        let p = temp_graph("stream-net.txt", &["generate", "cycle", "8"]);
        for policy in ["rr", "rlc"] {
            let base = |transport: &str| {
                call(&[
                    "run-net",
                    "--workload",
                    "stream",
                    &p,
                    "--transport",
                    transport,
                    "--rumors",
                    "4",
                    "--budget",
                    "2",
                    "--policy",
                    policy,
                    "--seed",
                    "5",
                    "--round-ms",
                    "5",
                ])
                .unwrap()
            };
            let lo = base("loopback");
            let re = base("reactor");
            let schedule = |s: &str| {
                s.lines()
                    .filter(|l| {
                        l.starts_with("rounds")
                            || l.starts_with("exchanges")
                            || l.starts_with("completions")
                    })
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert!(lo.contains("complete = true"), "{policy}: {lo}");
            assert!(lo.contains("stream units = "), "{policy}: {lo}");
            assert_eq!(schedule(&lo), schedule(&re), "{policy}:\n{lo}\n{re}");
            let tcp = base("tcp");
            assert!(tcp.contains("complete = true"), "{policy}: {tcp}");
            assert!(tcp.contains("peer losses = 0"), "{policy}: {tcp}");
            let completions = tcp.lines().find(|l| l.starts_with("completions")).unwrap();
            assert!(!completions.contains('-'), "uncompleted rumor: {tcp}");
        }
    }

    #[test]
    fn run_net_rejects_bad_payload_mode() {
        let p = temp_graph("badmode.txt", &["generate", "path", "4"]);
        assert!(matches!(
            call(&["run-net", "push-pull", &p, "--payload-mode", "diff"]),
            Err(CliError::BadArgument {
                what: "payload-mode",
                ..
            })
        ));
    }

    #[test]
    fn run_net_rejects_bad_inputs() {
        let p = temp_graph("bad.txt", &["generate", "path", "4"]);
        assert!(matches!(
            call(&["run-net", "push-pull", &p, "--transport", "carrier-pigeon"]),
            Err(CliError::BadArgument {
                what: "transport",
                ..
            })
        ));
        assert!(matches!(
            call(&["run-net", "eid", &p]),
            Err(CliError::BadArgument {
                what: "algorithm",
                ..
            })
        ));
        assert!(matches!(
            call(&["run-net", "push-pull", &p, "--source", "99"]),
            Err(CliError::BadArgument { what: "source", .. })
        ));
    }

    #[test]
    fn peers_file_parses_and_rejects() {
        let ok = parse_peers_file("# map\n0 127.0.0.1:9000\n\n1 127.0.0.1:9001\n", 2).unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok[&NodeId::new(0)], "127.0.0.1:9000");
        for bad in ["5 127.0.0.1:9000", "zero 127.0.0.1:9000", "0 x y"] {
            assert!(parse_peers_file(bad, 2).is_err(), "{bad}");
        }
    }

    #[test]
    fn serve_requires_nodes_and_peer_addresses() {
        let p = temp_graph("srv.txt", &["generate", "path", "2"]);
        assert!(matches!(
            call(&["serve", &p]),
            Err(CliError::MissingArgument("--nodes <A..B>"))
        ));
        // A neighbor without an address fails fast, before any run —
        // with no peers file at all, or with one that omits it.
        assert!(matches!(
            call(&["serve", &p, "--nodes", "0..1"]),
            Err(CliError::Net(_))
        ));
        let peers = temp_file("empty-peers.txt", "");
        assert!(matches!(
            call(&["serve", &p, "--nodes", "0..1", "--peers", &peers]),
            Err(CliError::Net(_))
        ));
    }

    #[test]
    fn node_range_parses_and_rejects() {
        assert_eq!(parse_node_range("0..3", 8).unwrap(), 0..3);
        for bad in ["3..3", "5..2", "0..9", "x..2", "0-2", "2"] {
            assert!(parse_node_range(bad, 8).is_err(), "{bad}");
        }
    }

    #[test]
    fn serve_shard_hosts_whole_cluster_without_peers() {
        // `--nodes 0..N` hosting everything needs no peers file.
        let p = temp_graph("shard-all.txt", &["generate", "clique", "6"]);
        let out = call(&[
            "serve",
            &p,
            "--nodes",
            "0..6",
            "--all-to-all",
            "--round-ms",
            "5",
        ])
        .unwrap();
        assert!(out.contains("shard = 6 nodes of 6"), "{out}");
        assert!(out.contains("barrier = true"), "{out}");
        assert!(out.contains("goal met = true"), "{out}");
    }

    #[test]
    fn serve_rejects_bad_node_ranges() {
        let p = temp_graph("shard-bad.txt", &["generate", "path", "4"]);
        assert!(matches!(
            call(&["serve", &p, "--nodes", "2..2"]),
            Err(CliError::BadArgument { what: "nodes", .. })
        ));
        assert!(matches!(
            call(&["serve", &p, "--node", "0", "--nodes", "0..4"]),
            Err(CliError::UnknownFlag(_))
        ));
    }

    #[test]
    fn serve_two_shards_converge() {
        // The README sharded quickstart, in-process: two `serve --nodes`
        // invocations split a clique across two reactors and both
        // shards reach the barrier with the goal met.
        let p = temp_graph("shards.txt", &["generate", "clique", "8"]);
        let reserve = || {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = l.local_addr().unwrap().to_string();
            drop(l);
            addr
        };
        let (addr_a, addr_b) = (reserve(), reserve());
        // Each shard's peers file points every remote node at the other
        // shard's one listener.
        let peers_a = temp_file(
            "shard-a-peers.txt",
            &(4..8)
                .map(|i| format!("{i} {addr_b}\n"))
                .collect::<String>(),
        );
        let peers_b = temp_file(
            "shard-b-peers.txt",
            &(0..4)
                .map(|i| format!("{i} {addr_a}\n"))
                .collect::<String>(),
        );
        let mut handles = Vec::new();
        for (range, addr, peers) in [("0..4", addr_a, peers_a), ("4..8", addr_b, peers_b)] {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                call(&[
                    "serve",
                    &p,
                    "--nodes",
                    range,
                    "--listen",
                    &addr,
                    "--peers",
                    &peers,
                    "--all-to-all",
                    "--round-ms",
                    "5",
                ])
            }));
        }
        for h in handles {
            let out = h.join().expect("serve thread").expect("shard runs");
            assert!(out.contains("shard = 4 nodes of 8"), "{out}");
            assert!(out.contains("barrier = true"), "{out}");
            assert!(out.contains("goal met = true"), "{out}");
        }
    }

    #[test]
    fn serve_two_terminals_converge() {
        // The README quickstart, in-process: two one-node `serve`
        // invocations on pre-agreed ports form a 2-node cluster and both
        // reach the barrier with the full rumor set. Whichever node
        // finishes first says goodbye; the other must not call that a
        // loss.
        let p = temp_graph("pair.txt", &["generate", "path", "2"]);
        let reserve = || {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = l.local_addr().unwrap().to_string();
            drop(l);
            addr
        };
        let (addr0, addr1) = (reserve(), reserve());
        let peers = temp_file("pair-peers.txt", &format!("0 {addr0}\n1 {addr1}\n"));
        let mut handles = Vec::new();
        for (range, addr) in [("0..1", addr0), ("1..2", addr1)] {
            let p = p.clone();
            let peers = peers.clone();
            handles.push(std::thread::spawn(move || {
                call(&[
                    "serve",
                    &p,
                    "--nodes",
                    range,
                    "--listen",
                    &addr,
                    "--peers",
                    &peers,
                    "--all-to-all",
                    "--round-ms",
                    "5",
                ])
            }));
        }
        for h in handles {
            let out = h.join().expect("serve thread").expect("serve runs");
            assert!(out.contains("shard = 1 nodes of 2"), "{out}");
            assert!(out.contains("barrier = true"), "{out}");
            assert!(out.contains("goal met = true"), "{out}");
            assert!(!out.contains("peer lost"), "{out}");
        }
    }
}

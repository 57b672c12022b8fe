//! The `gossip` subcommands.

use std::fmt::{Display, Write as _};
use std::ops::Bound::{Excluded, Unbounded};
use std::ops::RangeBounds;

use latency_graph::{conductance, generators, io, metrics, profile, Graph, Latency, NodeId};

use crate::args::Args;
use crate::error::CliError;
use crate::load_graph;

/// `value` if it lies in `range`, else a [`CliError::BadArgument`] for
/// `what`. The library asserts these preconditions; the CLI checks
/// them first so that a bad value exits 2 instead of panicking.
fn within<T: PartialOrd + Display>(
    value: T,
    range: impl RangeBounds<T>,
    what: &'static str,
) -> Result<T, CliError> {
    if range.contains(&value) {
        Ok(value)
    } else {
        Err(bad_argument(what, value))
    }
}

fn bad_argument(what: &'static str, value: impl Display) -> CliError {
    CliError::BadArgument {
        what,
        value: value.to_string(),
    }
}

/// `gossip help`.
pub fn help() -> String {
    "\
gossip — latency-aware gossip toolkit (reproduction of 'Gossiping with Latencies')

USAGE
  gossip generate <family> <params…> [--seed S] [--latencies SPEC]
  gossip stats <file|->
  gossip conductance <file|-> [--exact | --estimate] [--ell L]
                              [--thresholds all|quantiles:K] [--iterations N] [--seed S]
  gossip spectral <file|-> [--ell L] [--iterations N] [--seed S]
  gossip spanner <file|-> [--k K] [--seed S] [--n-hat N]
  gossip run <algorithm> <file|-> [--source V] [--seed S] [--all-to-all]
                                  [--ell L] [--diameter D] [--max-guess G]
                                  [--latency-known]
  gossip run --workload stream <file|-> [--rumors K] [--budget B]
             [--policy rr|rlc] [--seed S] [--max-rounds R]
  gossip curve <file|-> [--source V] [--seed S]
  gossip game <m> <singleton | random:P> <adaptive | oblivious | systematic>
              [--seed S] [--trials T]
  gossip run-net <algorithm> <file|-> [--transport tcp|loopback|reactor]
                 [--seed S] [--source V] [--all-to-all] [--round-ms MS]
                 [--max-rounds R] [--payload-mode snapshot|delta]
  gossip run-net --workload stream <file|-> [--transport tcp|loopback|reactor]
                 [--rumors K] [--budget B] [--policy rr|rlc] [--seed S]
                 [--round-ms MS] [--max-rounds R]
  gossip serve <file|-> --nodes A..B [--peers FILE]
               [--listen ADDR] [--algorithm A] [--seed S] [--source V]
               [--all-to-all] [--round-ms MS] [--max-rounds R]
               [--payload-mode snapshot|delta]
  gossip check --family <cycle|star|clique|ring-of-cliques> --n K
               [--faults B] [--prop all|NAME] [--format human|json]
  gossip check --corpus [--faults B] [--prop all|NAME] [--format human|json]
  gossip dot <file|->
  gossip help

`run-net` runs a whole cluster in one process: `loopback` replays the
engine's schedule exactly on a virtual clock; `reactor` multiplexes
every node onto one thread of non-blocking sockets (same exact schedule
as loopback, thousands of nodes per process); `tcp` is that reactor on
the wall clock, `--round-ms` per round. `serve` joins a TCP cluster
spanning processes: `--nodes A..B` runs a shard of nodes — one or many
— on one reactor. The peers file maps remote node ids to addresses
(`<id> <host:port>` per line); reactor-hosted
neighbors share their shard's one listen address. Net algorithms:
push-pull | push-only | flooding. `--payload-mode delta` sends
rumor-set deltas against per-peer cached knowledge instead of full
snapshots — same outcome bit for bit, far fewer bytes.

FAMILIES (for generate)
  clique N | star N | path N | cycle N | grid R C | torus R C
  hypercube D | tree N | barbell K BRIDGE_LAT | er N P | regular N D
  chunglu N BETA MEAN_DEG | ring-of-cliques K S BRIDGE_LAT
  geometric N RADIUS SCALE | gadget M P ELL | layered-ring N ALPHA ELL

LATENCY SPECS (re-weight a generated topology)
  uniform:LO:HI          independent uniform latencies
  bimodal:FAST:SLOW:P    fast with probability P, else slow
  geometric:Q:CAP        geometric-tail latencies
  hub:BASE:DIVISOR       latency grows with endpoint degrees

ALGORITHMS (for run)
  push-pull | push-only | flooding | dtg | superstep
  eid | general-eid | path-discovery | unified

`--workload stream` (for run and run-net) streams K rumors to every
node, each exchange direction carrying at most B rumor-payload units;
`--policy rr` round-robins over un-gossiped rumors, `--policy rlc`
sends random GF(2) combinations decoded by Gaussian elimination.

PROPERTIES (for check; n <= 5, exhaustively verified)
  lemma18-no-early-stop | same-round-termination | latency-respected
  spanner-out-degree | at-most-once-delivery | termination
  no-phantom-rumor
`check --corpus` sweeps the pinned regression corpus at budgets 0..=B
and runs the mutation suite; `--format json` emits mc-report.json.

Graphs are read and written as edge lists: `n <count>` then `u v latency`
lines; `-` means stdin.
"
    .to_string()
}

/// `gossip generate`.
pub fn generate(args: &mut Args) -> Result<String, CliError> {
    let family: String = args.require("family")?;
    let seed: u64 = args.flag_or("seed", 0)?;
    let base = match family.as_str() {
        "clique" => generators::clique(within(args.require("n")?, 1.., "n")?),
        "star" => generators::star(within(args.require("n")?, 1.., "n")?),
        "path" => generators::path(within(args.require("n")?, 1.., "n")?),
        "cycle" => generators::cycle(within(args.require("n")?, 3.., "n")?),
        "grid" => generators::grid(
            within(args.require("rows")?, 1.., "rows")?,
            within(args.require("cols")?, 1.., "cols")?,
        ),
        "torus" => generators::torus(
            within(args.require("rows")?, 3.., "rows")?,
            within(args.require("cols")?, 3.., "cols")?,
        ),
        "hypercube" => {
            generators::hypercube(within(args.require("dimension")?, 1..=20, "dimension")?)
        }
        "tree" => generators::balanced_binary_tree(within(args.require("n")?, 1.., "n")?),
        "barbell" => generators::barbell(
            within(args.require("k")?, 2.., "k")?,
            within(args.require("bridge latency")?, 1.., "bridge latency")?,
        ),
        "er" => generators::connected_erdos_renyi(
            within(args.require("n")?, 1.., "n")?,
            within(
                args.require("edge probability")?,
                0.0..=1.0,
                "edge probability",
            )?,
            seed,
        ),
        "regular" => {
            let n: usize = args.require("n")?;
            let d: usize = within(args.require("degree")?, ..n, "degree")?;
            if n % 2 == 1 && d % 2 == 1 {
                // n·d odd: no d-regular graph on n nodes.
                return Err(bad_argument("degree", d));
            }
            generators::random_regular(n, d, seed)
        }
        "chunglu" => generators::chung_lu(
            within(args.require("n")?, 1.., "n")?,
            within(args.require("beta")?, (Excluded(2.0), Unbounded), "beta")?,
            within(
                args.require("mean degree")?,
                (Excluded(0.0), Unbounded),
                "mean degree",
            )?,
            seed,
        ),
        "ring-of-cliques" => generators::ring_of_cliques(
            within(args.require("cliques")?, 3.., "cliques")?,
            within(args.require("clique size")?, 1.., "clique size")?,
            within(args.require("bridge latency")?, 1.., "bridge latency")?,
        ),
        "geometric" => generators::random_geometric(
            within(args.require("n")?, 1.., "n")?,
            within(
                args.require("radius")?,
                (Excluded(0.0), Unbounded),
                "radius",
            )?,
            within(
                args.require("latency scale")?,
                (Excluded(0.0), Unbounded),
                "latency scale",
            )?,
            seed,
        ),
        "gadget" => {
            let m: usize = within(args.require("m")?, 1.., "m")?;
            let p: f64 = within(
                args.require("fast-edge probability")?,
                0.0..=1.0,
                "fast-edge probability",
            )?;
            let ell: u32 = within(args.require("fast latency")?, 1.., "fast latency")?;
            generators::theorem7_network(m, p, ell, seed).graph
        }
        "layered-ring" => {
            let n: usize = args.require("n")?;
            let alpha: f64 = args.require("alpha")?;
            // n·α ≥ 1, computed as the generator computes it (a NaN α
            // fails too).
            let one_node_per_layer = n as f64 * alpha >= 1.0;
            if !one_node_per_layer {
                return Err(bad_argument("alpha", alpha));
            }
            let ell: u32 = within(args.require("ell")?, 1.., "ell")?;
            generators::LayeredRing::generate(&generators::LayeredRingSpec {
                n,
                alpha,
                ell,
                seed,
            })
            .graph
        }
        other => {
            return Err(CliError::BadArgument {
                what: "family",
                value: other.to_string(),
            })
        }
    };
    let g = apply_latency_spec(&base, args.flag_raw("latencies"), seed)?;
    args.finish()?;
    Ok(io::to_edge_list(&g))
}

fn apply_latency_spec(g: &Graph, spec: Option<String>, seed: u64) -> Result<Graph, CliError> {
    let Some(spec) = spec else {
        return Ok(g.clone());
    };
    let parts: Vec<&str> = spec.split(':').collect();
    let bad = || CliError::BadArgument {
        what: "latencies",
        value: spec.clone(),
    };
    // Every latency is at least 1; the assigners assert it.
    let num = |s: &str| s.parse::<u32>().ok().filter(|&v| v >= 1).ok_or_else(bad);
    let fnum = |s: &str| s.parse::<f64>().map_err(|_| bad());
    let check = |ok: bool| if ok { Ok(()) } else { Err(bad()) };
    match parts.as_slice() {
        ["uniform", lo, hi] => {
            let (lo, hi) = (num(lo)?, num(hi)?);
            check(lo <= hi)?;
            Ok(generators::uniform_random_latencies(g, lo, hi, seed))
        }
        ["bimodal", fast, slow, p] => {
            let p = fnum(p)?;
            check((0.0..=1.0).contains(&p))?;
            Ok(generators::bimodal_latencies(
                g,
                num(fast)?,
                num(slow)?,
                p,
                seed,
            ))
        }
        ["geometric", q, cap] => {
            let q = fnum(q)?;
            check(q > 0.0 && q < 1.0)?;
            Ok(generators::geometric_latencies(g, q, num(cap)?, seed))
        }
        ["hub", base, div] => Ok(generators::hub_penalty_latencies(g, num(base)?, num(div)?)),
        _ => Err(bad()),
    }
}

/// `gossip stats`.
pub fn stats(args: &mut Args) -> Result<String, CliError> {
    let path: String = args.require("graph file")?;
    args.finish()?;
    let g = load_graph(&path)?;
    let (dmin, dmax, dmean) = metrics::degree_stats(&g);
    let connected = g.is_connected();
    let mut out = String::new();
    let _ = writeln!(out, "n = {}", g.node_count());
    let _ = writeln!(out, "m = {}", g.edge_count());
    let _ = writeln!(out, "degree min/mean/max = {dmin}/{dmean:.2}/{dmax}");
    let _ = writeln!(
        out,
        "latencies = {:?}",
        g.distinct_latencies()
            .iter()
            .map(|l| l.get())
            .collect::<Vec<_>>()
    );
    let _ = writeln!(out, "connected = {connected}");
    if connected {
        let _ = writeln!(
            out,
            "weighted diameter D = {}",
            metrics::weighted_diameter(&g)
        );
        let _ = writeln!(out, "hop diameter = {}", metrics::hop_diameter(&g));
    }
    Ok(out)
}

/// Parses a `--thresholds` spec: `all` or `quantiles:K` with `K ≥ 1`.
fn parse_threshold_set(spec: Option<String>) -> Result<profile::ThresholdSet, CliError> {
    let Some(spec) = spec else {
        return Ok(profile::ThresholdSet::All);
    };
    if spec == "all" {
        return Ok(profile::ThresholdSet::All);
    }
    if let Some(k) = spec.strip_prefix("quantiles:") {
        if let Ok(k) = k.parse::<usize>() {
            if k > 0 {
                return Ok(profile::ThresholdSet::Quantiles(k));
            }
        }
    }
    Err(CliError::BadArgument {
        what: "thresholds",
        value: spec,
    })
}

/// `gossip conductance`.
pub fn conductance(args: &mut Args) -> Result<String, CliError> {
    let path: String = args.require("graph file")?;
    let exact = args.switch("exact");
    let estimate = args.switch("estimate");
    let ell: Option<u32> = args
        .flag_opt("ell")?
        .map(|l| within(l, 1.., "ell"))
        .transpose()?;
    let iterations: usize = args.flag_or("iterations", 300)?;
    let seed: u64 = args.flag_or("seed", 0)?;
    let thresholds = parse_threshold_set(args.flag_raw("thresholds"))?;
    args.finish()?;
    let g = load_graph(&path)?;
    let mut out = String::new();
    let use_exact = if exact {
        true
    } else if estimate {
        false
    } else {
        g.node_count() <= conductance::MAX_EXACT_NODES
    };
    if use_exact {
        let profile = conductance::exact_conductance_profile(&g)
            .map_err(|e| CliError::Unsupported(e.to_string()))?;
        if let Some(l) = ell {
            let _ = writeln!(out, "phi_{l} = {:.6}", profile.phi_at(Latency::new(l)));
        } else {
            for e in profile.entries() {
                let _ = writeln!(out, "phi_{} = {:.6}", e.ell, e.phi);
            }
        }
        match profile.weighted_conductance() {
            Some(wc) => {
                let _ = writeln!(
                    out,
                    "phi* = {:.6} at l* = {} (phi*/l* = {:.6}) [exact]",
                    wc.phi_star,
                    wc.critical_latency,
                    wc.ratio()
                );
            }
            None => {
                let _ = writeln!(out, "graph disconnected at every latency");
            }
        }
    } else {
        if let Some(l) = ell {
            match conductance::sweep_cut_estimate(&g, Latency::new(l), iterations, seed) {
                Some(est) => {
                    let _ = writeln!(out, "phi_{l} <= {:.6} [sweep-cut upper bound]", est.phi);
                }
                None => {
                    let _ = writeln!(out, "no edges of latency <= {l}");
                }
            }
        }
        let cfg = profile::ProfileConfig {
            thresholds,
            max_iterations: iterations,
            seed,
            ..profile::ProfileConfig::default()
        };
        let prof = profile::estimate_profile(&g, &cfg);
        if ell.is_none() {
            for e in prof.entries() {
                let _ = writeln!(
                    out,
                    "phi_{} <= {:.6} [sweep-cut upper bound, {} iters]",
                    e.ell, e.phi, e.iterations
                );
            }
        }
        match prof.weighted_conductance() {
            Some(wc) => {
                let _ = writeln!(
                    out,
                    "phi* ~= {:.6} at l* = {} (phi*/l* = {:.6}) [sweep-cut estimate]",
                    wc.phi_star,
                    wc.critical_latency,
                    wc.ratio()
                );
            }
            None => {
                let _ = writeln!(out, "graph disconnected at every latency");
            }
        }
    }
    Ok(out)
}

/// `gossip spanner`.
pub fn spanner(args: &mut Args) -> Result<String, CliError> {
    let path: String = args.require("graph file")?;
    let seed: u64 = args.flag_or("seed", 0)?;
    let g = load_graph(&path)?;
    let default_k = gossip_core::eid::default_spanner_k(g.node_count());
    let k: usize = within(args.flag_or("k", default_k)?, 1.., "k")?;
    let n_hat: Option<usize> = args
        .flag_opt("n-hat")?
        .map(|h| within(h, g.node_count().., "n-hat"))
        .transpose()?;
    args.finish()?;
    let r = baswana_sen::build_spanner(
        &g,
        &baswana_sen::SpannerConfig {
            k,
            size_estimate: n_hat,
            seed,
        },
    );
    let und = r.spanner.to_undirected();
    let stretch = if g.node_count() <= 128 {
        baswana_sen::verify::max_stretch(&g, &und)
    } else {
        baswana_sen::verify::sampled_max_stretch(&g, &und, 16, seed)
    };
    let mut out = String::new();
    let _ = writeln!(out, "k = {k} (stretch bound {})", r.stretch_bound);
    let _ = writeln!(
        out,
        "arcs = {} (graph edges: {})",
        r.spanner.arc_count(),
        g.edge_count()
    );
    let _ = writeln!(out, "max out-degree = {}", r.max_out_degree());
    let _ = writeln!(out, "measured stretch = {stretch:.3}");
    let _ = writeln!(out, "connected = {}", und.is_connected());
    Ok(out)
}

/// `gossip run --workload stream`: the multi-rumor streaming workload.
/// `--rumors K` rumors are injected at the spread schedule's origins,
/// every exchange direction carries at most `--budget B` rumor-payload
/// units, and `--policy` picks the selection policy: `rr` (round-robin
/// over un-gossiped rumors) or `rlc` (random-linear-combination
/// algebraic gossip over GF(2)).
fn run_stream(args: &mut Args) -> Result<String, CliError> {
    use gossip_core::stream::{self, StreamConfig};
    use gossip_sim::StreamSpec;

    let path: String = args.require("graph file")?;
    let seed: u64 = args.flag_or("seed", 0)?;
    let rumors: usize = args.flag_or("rumors", 8)?;
    let budget: usize = args.flag_or("budget", 1)?;
    let policy: String = args.flag_or("policy", "rr".to_owned())?;
    let max_rounds: u64 = args.flag_or("max-rounds", 1_000_000)?;
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
    let cfg = StreamConfig {
        max_rounds,
        ..StreamConfig::default()
    };
    let o = match policy.as_str() {
        "rr" => stream::rr_stream(&g, &spec, &cfg, seed),
        "rlc" => stream::rlc_stream(&g, &spec, &cfg, seed),
        other => {
            return Err(CliError::BadArgument {
                what: "policy",
                value: other.to_string(),
            })
        }
    };
    let mut out = String::new();
    let _ = writeln!(out, "workload = stream ({policy})");
    let _ = writeln!(out, "rumors = {rumors}, budget = {budget}");
    let _ = writeln!(out, "rounds = {}", o.rounds);
    let _ = writeln!(out, "complete = {}", o.complete);
    let _ = writeln!(out, "exchanges = {}", o.metrics.initiated);
    let _ = writeln!(out, "payload units = {}", o.metrics.payload_units);
    let completions: Vec<String> = o
        .completions
        .iter()
        .map(|c| c.map_or_else(|| "-".to_string(), |r| r.to_string()))
        .collect();
    let _ = writeln!(out, "completions = [{}]", completions.join(","));
    Ok(out)
}

/// `gossip run`.
pub fn run_algorithm(args: &mut Args) -> Result<String, CliError> {
    use gossip_core::{dtg, eid, flooding, path_discovery, push_pull, superstep, unified};

    if let Some(workload) = args.flag_raw("workload") {
        if workload != "stream" {
            return Err(CliError::BadArgument {
                what: "workload",
                value: workload,
            });
        }
        return run_stream(args);
    }
    let algorithm: String = args.require("algorithm")?;
    let path: String = args.require("graph file")?;
    let seed: u64 = args.flag_or("seed", 0)?;
    let source_idx: usize = args.flag_or("source", 0)?;
    let all_to_all = args.switch("all-to-all");
    let g = load_graph(&path)?;
    if source_idx >= g.node_count() {
        return Err(CliError::BadArgument {
            what: "source",
            value: source_idx.to_string(),
        });
    }
    let source = NodeId::new(source_idx);
    let mut out = String::new();
    match algorithm.as_str() {
        "push-pull" | "push-only" => {
            let mode = if algorithm == "push-only" {
                push_pull::Mode::PushOnly
            } else {
                push_pull::Mode::PushPull
            };
            let cfg = push_pull::PushPullConfig {
                mode,
                ..Default::default()
            };
            args.finish()?;
            let o = if all_to_all {
                push_pull::all_to_all(&g, &cfg, seed)
            } else {
                push_pull::broadcast(&g, source, &cfg, seed)
            };
            let _ = writeln!(out, "algorithm = {algorithm}");
            let _ = writeln!(out, "rounds = {}", o.rounds);
            let _ = writeln!(out, "complete = {}", o.completed());
            let _ = writeln!(out, "exchanges = {}", o.metrics.initiated);
            let _ = writeln!(out, "payload units = {}", o.metrics.payload_units);
        }
        "flooding" => {
            args.finish()?;
            let cfg = flooding::FloodingConfig::default();
            let o = if all_to_all {
                flooding::all_to_all(&g, &cfg, seed)
            } else {
                flooding::broadcast(&g, source, &cfg, seed)
            };
            let _ = writeln!(out, "algorithm = flooding");
            let _ = writeln!(out, "rounds = {}", o.rounds);
            let _ = writeln!(out, "complete = {}", o.completed());
        }
        "dtg" | "superstep" => {
            let default_ell = g.max_latency().map_or(1, Latency::get);
            let ell: u32 = within(args.flag_or("ell", default_ell)?, 1.., "ell")?;
            args.finish()?;
            let o = if algorithm == "dtg" {
                dtg::local_broadcast(&g, Latency::new(ell))
            } else {
                superstep::local_broadcast(&g, Latency::new(ell), seed)
            };
            let _ = writeln!(
                out,
                "algorithm = {algorithm} (ℓ-local broadcast, ℓ = {ell})"
            );
            let _ = writeln!(out, "rounds = {}", o.rounds);
            let _ = writeln!(out, "complete = {}", o.complete);
        }
        "eid" => {
            let d = match args.flag_opt::<u64>("diameter")? {
                Some(d) => within(d, 1.., "diameter")?,
                // A one-node graph has D = 0; EID needs a positive guess.
                None => metrics::weighted_diameter(&g).max(1),
            };
            args.finish()?;
            let o = eid::eid(
                &g,
                &eid::EidConfig {
                    diameter: d,
                    seed,
                    ..Default::default()
                },
            );
            let _ = writeln!(out, "algorithm = eid (diameter {d})");
            let _ = writeln!(out, "discovery rounds = {}", o.discovery_rounds);
            let _ = writeln!(out, "rr rounds = {}", o.rr_rounds);
            let _ = writeln!(out, "total rounds = {}", o.total_rounds());
            let _ = writeln!(out, "spanner arcs = {}", o.spanner.spanner.arc_count());
            let _ = writeln!(out, "complete = {}", o.complete);
        }
        "general-eid" => {
            let max_guess: u64 = within(args.flag_or("max-guess", 1 << 20)?, 1.., "max-guess")?;
            args.finish()?;
            let o = eid::general_eid(&g, seed, max_guess);
            let _ = writeln!(out, "algorithm = general-eid");
            let _ = writeln!(out, "attempts = {}", o.attempts.len());
            let _ = writeln!(
                out,
                "final guess = {}",
                o.attempts.last().map_or(0, |a| a.guess)
            );
            let _ = writeln!(out, "total rounds = {}", o.total_rounds);
            let _ = writeln!(out, "complete = {}", o.complete);
        }
        "path-discovery" => {
            let max_guess: u64 = within(args.flag_or("max-guess", 1 << 20)?, 1.., "max-guess")?;
            args.finish()?;
            let o = path_discovery::path_discovery(&g, max_guess);
            let _ = writeln!(out, "algorithm = path-discovery");
            let _ = writeln!(out, "attempts = {}", o.attempts.len());
            let _ = writeln!(out, "total rounds = {}", o.total_rounds);
            let _ = writeln!(out, "complete = {}", o.complete);
        }
        "unified" => {
            let latency_known = args.switch("latency-known");
            let max_guess: u64 = within(args.flag_or("max-guess", 1 << 20)?, 1.., "max-guess")?;
            args.finish()?;
            let cfg = unified::UnifiedConfig {
                latency_known,
                max_guess,
                ..Default::default()
            };
            let r = unified::all_to_all(&g, &cfg, seed);
            let _ = writeln!(out, "algorithm = unified (Theorem 20)");
            let _ = writeln!(out, "push-pull rounds = {:?}", r.push_pull_rounds);
            let _ = writeln!(out, "spanner pipeline rounds = {:?}", r.spanner_rounds);
            let _ = writeln!(out, "winner = {:?}", r.winner);
        }
        other => {
            return Err(CliError::BadArgument {
                what: "algorithm",
                value: other.to_string(),
            })
        }
    }
    Ok(out)
}

/// `gossip spectral`: spectral gap, Cheeger bounds, and mixing scale of
/// the `G_l` walk.
pub fn spectral(args: &mut Args) -> Result<String, CliError> {
    let path: String = args.require("graph file")?;
    let ell: Option<u32> = args
        .flag_opt("ell")?
        .map(|l| within(l, 1.., "ell"))
        .transpose()?;
    let iters: usize = args.flag_or("iterations", 400)?;
    let seed: u64 = args.flag_or("seed", 0)?;
    args.finish()?;
    let g = load_graph(&path)?;
    let mut out = String::new();
    let thresholds: Vec<Latency> = match ell {
        Some(l) => vec![Latency::new(l)],
        None => g.distinct_latencies(),
    };
    for ell in thresholds {
        match latency_graph::spectral::spectral_gap(&g, ell, iters, seed) {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "ell = {ell}: lambda2 = {:.4}, gap = {:.4}, Cheeger {:.4} <= phi_{ell} <= {:.4}, mixing scale = {:.1}",
                    s.lambda2,
                    s.gap(),
                    s.phi_lower_bound(),
                    s.phi_upper_bound(),
                    s.mixing_scale(g.node_count())
                );
            }
            None => {
                let _ = writeln!(out, "ell = {ell}: no usable edges");
            }
        }
    }
    Ok(out)
}

/// `gossip game`: play the Section 3.1 guessing game.
pub fn game(args: &mut Args) -> Result<String, CliError> {
    use guessing_game::strategy::{ColumnSweep, RandomMatching, Strategy, Systematic};
    use guessing_game::{run_game, trial_mean_rounds, GameConfig, Predicate};

    let m: usize = args.require("side size m")?;
    let predicate_raw: String = args.require("predicate (singleton | random:P)")?;
    let strategy_name: String = args.require("strategy (adaptive | oblivious | systematic)")?;
    let seed: u64 = args.flag_or("seed", 0)?;
    let trials: u64 = args.flag_or("trials", 1)?;
    args.finish()?;

    let predicate = if predicate_raw == "singleton" {
        Predicate::Singleton
    } else if let Some(p) = predicate_raw.strip_prefix("random:") {
        let p: f64 = p.parse().map_err(|_| CliError::BadArgument {
            what: "predicate",
            value: predicate_raw.clone(),
        })?;
        Predicate::Random { p }
    } else {
        return Err(CliError::BadArgument {
            what: "predicate",
            value: predicate_raw,
        });
    };

    let mut out = String::new();
    let cfg = GameConfig {
        m,
        max_rounds: 10_000_000,
        seed,
    };
    if trials <= 1 {
        let mut strategy: Box<dyn Strategy> = match strategy_name.as_str() {
            "adaptive" => Box::new(ColumnSweep::new()),
            "oblivious" => Box::new(RandomMatching::new()),
            "systematic" => Box::new(Systematic::new()),
            other => {
                return Err(CliError::BadArgument {
                    what: "strategy",
                    value: other.to_string(),
                })
            }
        };
        let r = run_game(&cfg, &predicate, strategy.as_mut());
        let _ = writeln!(out, "game = Guessing(2·{m}, {predicate_raw})");
        let _ = writeln!(out, "strategy = {strategy_name}");
        let _ = writeln!(out, "initial target = {}", r.initial_target);
        let _ = writeln!(out, "solved = {}", r.solved);
        let _ = writeln!(out, "rounds = {}", r.rounds);
        let _ = writeln!(out, "guesses = {}", r.guesses);
    } else {
        let (mean, solved) = match strategy_name.as_str() {
            "adaptive" => trial_mean_rounds(&cfg, &predicate, ColumnSweep::new, trials),
            "oblivious" => trial_mean_rounds(&cfg, &predicate, RandomMatching::new, trials),
            "systematic" => trial_mean_rounds(&cfg, &predicate, Systematic::new, trials),
            other => {
                return Err(CliError::BadArgument {
                    what: "strategy",
                    value: other.to_string(),
                })
            }
        };
        let _ = writeln!(out, "game = Guessing(2·{m}, {predicate_raw})");
        let _ = writeln!(out, "strategy = {strategy_name}");
        let _ = writeln!(out, "trials = {trials} (solved {solved})");
        let _ = writeln!(out, "mean rounds = {mean:.2}");
    }
    Ok(out)
}

/// `gossip curve`: per-round informed counts for a push-pull broadcast,
/// as CSV (plus an ASCII sparkline), for plotting dissemination
/// dynamics.
pub fn curve(args: &mut Args) -> Result<String, CliError> {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    use gossip_core::push_pull::PushPullNode;
    use gossip_sim::{SimConfig, Simulator};

    let path: String = args.require("graph file")?;
    let seed: u64 = args.flag_or("seed", 0)?;
    let source_idx: usize = args.flag_or("source", 0)?;
    args.finish()?;
    let g = load_graph(&path)?;
    if source_idx >= g.node_count() {
        return Err(CliError::BadArgument {
            what: "source",
            value: source_idx.to_string(),
        });
    }
    let source = NodeId::new(source_idx);
    let n = g.node_count();

    let curve = std::cell::RefCell::new(Vec::<usize>::new());
    let cfg = SimConfig {
        seed,
        max_rounds: 2_000_000,
        ..SimConfig::default()
    };
    let out = Simulator::new(&g, cfg).run(
        |id, n| PushPullNode::new(id, n, Default::default()),
        |nodes: &[PushPullNode], _| {
            let informed = nodes.iter().filter(|p| p.rumors.contains(source)).count();
            curve.borrow_mut().push(informed);
            informed == n
        },
    );
    if !out.completed() {
        return Err(CliError::Unsupported(
            "broadcast did not complete".to_string(),
        ));
    }
    let curve = curve.into_inner();
    let mut s = String::new();
    let _ = writeln!(s, "round,informed");
    for (round, informed) in curve.iter().enumerate() {
        let _ = writeln!(s, "{round},{informed}");
    }
    // Sparkline.
    let spark: String = curve
        .iter()
        .map(|&c| BARS[(c * (BARS.len() - 1)).div_ceil(n).min(BARS.len() - 1)])
        .collect();
    let _ = writeln!(s, "# {spark}");
    Ok(s)
}

/// `gossip dot`.
pub fn dot(args: &mut Args) -> Result<String, CliError> {
    let path: String = args.require("graph file")?;
    args.finish()?;
    let g = load_graph(&path)?;
    Ok(io::to_dot(&g, "gossip"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(parts: &[&str]) -> Result<String, CliError> {
        let argv: Vec<String> = parts.iter().map(std::string::ToString::to_string).collect();
        crate::run(&argv)
    }

    fn temp_graph(name: &str, spec: &[&str]) -> String {
        let text = call(spec).unwrap();
        let dir = std::env::temp_dir().join("gossip-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn generate_all_families() {
        for spec in [
            vec!["generate", "clique", "6"],
            vec!["generate", "star", "6"],
            vec!["generate", "path", "6"],
            vec!["generate", "cycle", "6"],
            vec!["generate", "grid", "3", "4"],
            vec!["generate", "torus", "3", "4"],
            vec!["generate", "hypercube", "3"],
            vec!["generate", "tree", "7"],
            vec!["generate", "barbell", "4", "9"],
            vec!["generate", "er", "12", "0.4", "--seed", "3"],
            vec!["generate", "regular", "10", "3", "--seed", "3"],
            vec!["generate", "chunglu", "30", "2.5", "4", "--seed", "3"],
            vec!["generate", "ring-of-cliques", "3", "4", "7"],
            vec!["generate", "geometric", "20", "0.5", "8", "--seed", "3"],
            vec!["generate", "gadget", "6", "0.3", "2", "--seed", "3"],
            vec!["generate", "layered-ring", "40", "0.1", "8", "--seed", "3"],
        ] {
            let text = call(&spec).unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            assert!(latency_graph::io::from_edge_list(&text).is_ok(), "{spec:?}");
        }
    }

    #[test]
    fn generate_with_latency_specs() {
        for spec in [
            "uniform:2:9",
            "bimodal:1:40:0.3",
            "geometric:0.5:8",
            "hub:1:2",
        ] {
            let text = call(&[
                "generate",
                "clique",
                "8",
                "--latencies",
                spec,
                "--seed",
                "1",
            ])
            .unwrap();
            let g = latency_graph::io::from_edge_list(&text).unwrap();
            assert_eq!(g.edge_count(), 28, "{spec}");
        }
    }

    #[test]
    fn bad_latency_spec_rejected() {
        let r = call(&["generate", "clique", "8", "--latencies", "nonsense:1"]);
        assert!(matches!(
            r,
            Err(CliError::BadArgument {
                what: "latencies",
                ..
            })
        ));
    }

    #[test]
    fn unknown_family_rejected() {
        assert!(matches!(
            call(&["generate", "mobius", "8"]),
            Err(CliError::BadArgument { what: "family", .. })
        ));
    }

    #[test]
    fn typo_flag_rejected() {
        assert!(matches!(
            call(&["generate", "clique", "8", "--sed", "1"]),
            Err(CliError::UnknownFlag(_))
        ));
    }

    #[test]
    fn threads_flag_rejected_like_any_typo() {
        let p = temp_graph("removed-flag.txt", &["generate", "cycle", "8"]);
        for cmd in [
            vec!["run", "push-pull", &p],
            vec!["run", "dtg", &p],
            vec!["run", "--workload", "stream", &p],
            vec!["curve", &p],
        ] {
            let mut argv = cmd.clone();
            argv.extend(["--threads", "2"]);
            assert!(
                matches!(call(&argv), Err(CliError::UnknownFlag(f)) if f == "--threads"),
                "{cmd:?}"
            );
        }
    }

    #[test]
    fn conductance_exact_and_estimate() {
        let p = temp_graph("cond.txt", &["generate", "barbell", "5", "9"]);
        let exact = call(&["conductance", &p, "--exact"]).unwrap();
        assert!(exact.contains("phi* ="), "{exact}");
        assert!(exact.contains("l* = 9"));
        let est = call(&["conductance", &p, "--estimate"]).unwrap();
        assert!(est.contains("sweep-cut estimate"), "{est}");
    }

    #[test]
    fn conductance_threshold_policies() {
        let p = temp_graph(
            "thr.txt",
            &[
                "generate",
                "er",
                "30",
                "0.2",
                "--seed",
                "7",
                "--latencies",
                "uniform:1:12",
            ],
        );
        let all = call(&["conductance", &p, "--estimate", "--thresholds", "all"]).unwrap();
        assert!(all.contains("sweep-cut estimate"), "{all}");
        let q = call(&[
            "conductance",
            &p,
            "--estimate",
            "--thresholds",
            "quantiles:3",
        ])
        .unwrap();
        assert!(q.contains("sweep-cut estimate"), "{q}");
        assert!(q.matches("upper bound").count() <= 3, "{q}");
        for bad in ["quantiles:0", "median", "quantiles:x"] {
            assert!(
                matches!(
                    call(&["conductance", &p, "--thresholds", bad]),
                    Err(CliError::BadArgument {
                        what: "thresholds",
                        ..
                    })
                ),
                "{bad} should be rejected"
            );
        }
    }

    #[test]
    fn spanner_reports_properties() {
        let p = temp_graph("span.txt", &["generate", "er", "40", "0.3", "--seed", "5"]);
        let out = call(&["spanner", &p, "--k", "3"]).unwrap();
        assert!(out.contains("stretch bound 5"));
        assert!(out.contains("connected = true"));
    }

    #[test]
    fn run_push_pull_and_flooding() {
        let p = temp_graph("run.txt", &["generate", "cycle", "10"]);
        for alg in ["push-pull", "flooding"] {
            let out = call(&["run", alg, &p, "--seed", "4"]).unwrap();
            assert!(out.contains("complete = true"), "{alg}: {out}");
        }
        let a2a = call(&["run", "push-pull", &p, "--all-to-all"]).unwrap();
        assert!(a2a.contains("complete = true"));
    }

    #[test]
    fn run_local_broadcasts() {
        let p = temp_graph("lb.txt", &["generate", "grid", "3", "4"]);
        for alg in ["dtg", "superstep"] {
            let out = call(&["run", alg, &p]).unwrap();
            assert!(out.contains("complete = true"), "{alg}: {out}");
        }
    }

    #[test]
    fn run_pipelines() {
        let p = temp_graph("pipe.txt", &["generate", "cycle", "8"]);
        let eid = call(&["run", "eid", &p]).unwrap();
        assert!(eid.contains("complete = true"), "{eid}");
        let ge = call(&["run", "general-eid", &p]).unwrap();
        assert!(ge.contains("complete = true"), "{ge}");
        let pd = call(&["run", "path-discovery", &p]).unwrap();
        assert!(pd.contains("complete = true"), "{pd}");
        let un = call(&["run", "unified", &p, "--latency-known"]).unwrap();
        assert!(un.contains("winner"), "{un}");
    }

    /// `call` must refuse `parts` with a bad `what` (exit 2), not panic.
    fn assert_bad(parts: &[&str], what: &str) {
        match call(parts) {
            Err(CliError::BadArgument { what: w, .. }) if w == what => {}
            other => panic!("{parts:?}: expected a bad {what}, got {other:?}"),
        }
    }

    #[test]
    fn run_local_broadcast_rejects_ell_zero() {
        let p = temp_graph("lb0.txt", &["generate", "cycle", "6"]);
        assert_bad(&["run", "dtg", &p, "--ell", "0"], "ell");
        assert_bad(&["run", "superstep", &p, "--ell", "0"], "ell");
    }

    #[test]
    fn run_eid_rejects_diameter_zero() {
        let p = temp_graph("eid0.txt", &["generate", "cycle", "6"]);
        assert_bad(&["run", "eid", &p, "--diameter", "0"], "diameter");
    }

    #[test]
    fn run_eid_on_one_node_uses_a_positive_diameter() {
        let p = temp_graph("eid1.txt", &["generate", "clique", "1"]);
        let out = call(&["run", "eid", &p]).unwrap();
        assert!(out.contains("complete = true"), "{out}");
    }

    #[test]
    fn run_guess_and_double_rejects_max_guess_zero() {
        let p = temp_graph("guess0.txt", &["generate", "cycle", "6"]);
        for alg in ["general-eid", "path-discovery", "unified"] {
            assert_bad(&["run", alg, &p, "--max-guess", "0"], "max-guess");
        }
    }

    #[test]
    fn conductance_rejects_ell_zero() {
        let p = temp_graph("cond0.txt", &["generate", "cycle", "6"]);
        assert_bad(&["conductance", &p, "--ell", "0"], "ell");
        assert_bad(&["conductance", &p, "--estimate", "--ell", "0"], "ell");
    }

    #[test]
    fn spectral_rejects_ell_zero() {
        let p = temp_graph("spec0.txt", &["generate", "cycle", "6"]);
        assert_bad(&["spectral", &p, "--ell", "0"], "ell");
    }

    #[test]
    fn spanner_rejects_k_zero_and_a_small_n_hat() {
        let p = temp_graph("span0.txt", &["generate", "cycle", "6"]);
        assert_bad(&["spanner", &p, "--k", "0"], "k");
        assert_bad(&["spanner", &p, "--n-hat", "5"], "n-hat");
        assert!(call(&["spanner", &p, "--n-hat", "6"]).is_ok());
    }

    #[test]
    fn generate_rejects_sizes_the_generators_refuse() {
        assert_bad(&["generate", "cycle", "0"], "n");
        assert_bad(&["generate", "cycle", "2"], "n");
        assert_bad(&["generate", "grid", "0", "3"], "rows");
        assert_bad(&["generate", "grid", "3", "0"], "cols");
        assert_bad(&["generate", "torus", "2", "3"], "rows");
        assert_bad(&["generate", "hypercube", "0"], "dimension");
        assert_bad(&["generate", "hypercube", "21"], "dimension");
        assert_bad(&["generate", "regular", "5", "3"], "degree");
        assert_bad(&["generate", "regular", "4", "4"], "degree");
        assert_bad(&["generate", "clique", "0"], "n");
        assert_bad(&["generate", "barbell", "1", "9"], "k");
        assert_bad(&["generate", "ring-of-cliques", "2", "3", "4"], "cliques");
        assert_bad(
            &["generate", "ring-of-cliques", "3", "3", "0"],
            "bridge latency",
        );
        assert_bad(&["generate", "barbell", "3", "0"], "bridge latency");
        assert_bad(&["generate", "er", "0", "0.5"], "n");
        assert_bad(&["generate", "er", "5", "1.5"], "edge probability");
        assert_bad(&["generate", "chunglu", "10", "1.5", "3"], "beta");
        assert_bad(&["generate", "geometric", "10", "0", "1"], "radius");
        assert_bad(&["generate", "gadget", "0", "0.5", "3"], "m");
        assert_bad(
            &["generate", "gadget", "3", "1.5", "2"],
            "fast-edge probability",
        );
        assert_bad(&["generate", "gadget", "3", "0.5", "0"], "fast latency");
        assert_bad(&["generate", "layered-ring", "16", "0.01", "4"], "alpha");
        assert_bad(&["generate", "layered-ring", "16", "0.5", "0"], "ell");
        for spec in [
            "uniform:0:3",
            "uniform:3:2",
            "bimodal:0:3:0.5",
            "bimodal:1:3:2",
            "geometric:1.5:4",
            "geometric:0.5:0",
            "hub:0:1",
        ] {
            assert_bad(
                &["generate", "cycle", "6", "--latencies", spec],
                "latencies",
            );
        }
        assert!(call(&["generate", "regular", "6", "3"]).is_ok());
        assert!(call(&["generate", "hypercube", "1"]).is_ok());
        assert!(call(&["generate", "layered-ring", "16", "0.0625", "4"]).is_ok());
    }

    #[test]
    fn run_stream_workload_both_policies() {
        let p = temp_graph("stream.txt", &["generate", "cycle", "12"]);
        for policy in ["rr", "rlc"] {
            let out = call(&[
                "run",
                "--workload",
                "stream",
                &p,
                "--rumors",
                "6",
                "--budget",
                "2",
                "--policy",
                policy,
                "--seed",
                "7",
            ])
            .unwrap();
            assert!(
                out.contains(&format!("workload = stream ({policy})")),
                "{out}"
            );
            assert!(out.contains("rumors = 6, budget = 2"), "{out}");
            assert!(out.contains("complete = true"), "{out}");
            let completions = out.lines().find(|l| l.starts_with("completions")).unwrap();
            assert_eq!(completions.matches(',').count(), 5, "{completions}");
            assert!(!completions.contains('-'), "{completions}");
        }
    }

    #[test]
    fn run_stream_rejects_bad_inputs() {
        let p = temp_graph("stream-bad.txt", &["generate", "cycle", "6"]);
        assert!(matches!(
            call(&["run", "--workload", "parade", &p]),
            Err(CliError::BadArgument {
                what: "workload",
                ..
            })
        ));
        assert!(matches!(
            call(&["run", "--workload", "stream", &p, "--policy", "fountain"]),
            Err(CliError::BadArgument { what: "policy", .. })
        ));
        assert!(matches!(
            call(&["run", "--workload", "stream", &p, "--rumors", "0"]),
            Err(CliError::BadArgument { what: "rumors", .. })
        ));
        assert!(matches!(
            call(&["run", "--workload", "stream", &p, "--budget", "0"]),
            Err(CliError::BadArgument { what: "budget", .. })
        ));
    }

    #[test]
    fn run_bad_source_rejected() {
        let p = temp_graph("src.txt", &["generate", "path", "4"]);
        assert!(matches!(
            call(&["run", "push-pull", &p, "--source", "99"]),
            Err(CliError::BadArgument { what: "source", .. })
        ));
    }

    #[test]
    fn spectral_reports_cheeger_sandwich() {
        let p = temp_graph("spec.txt", &["generate", "barbell", "6", "9"]);
        let out = call(&["spectral", &p]).unwrap();
        assert!(out.contains("ell = 1:"), "{out}");
        assert!(out.contains("ell = 9:"), "{out}");
        assert!(out.contains("Cheeger"));
        let one_ell = call(&["spectral", &p, "--ell", "9"]).unwrap();
        assert_eq!(one_ell.lines().count(), 1);
    }

    #[test]
    fn game_single_and_trials() {
        let single = call(&["game", "12", "singleton", "systematic", "--seed", "2"]).unwrap();
        assert!(single.contains("solved = true"), "{single}");
        let multi = call(&["game", "12", "random:0.3", "adaptive", "--trials", "10"]).unwrap();
        assert!(multi.contains("trials = 10 (solved 10)"), "{multi}");
        assert!(multi.contains("mean rounds ="));
    }

    #[test]
    fn game_rejects_bad_inputs() {
        assert!(matches!(
            call(&["game", "12", "weird", "adaptive"]),
            Err(CliError::BadArgument {
                what: "predicate",
                ..
            })
        ));
        assert!(matches!(
            call(&["game", "12", "singleton", "psychic"]),
            Err(CliError::BadArgument {
                what: "strategy",
                ..
            })
        ));
        assert!(matches!(
            call(&["game", "12", "random:xyz", "adaptive"]),
            Err(CliError::BadArgument {
                what: "predicate",
                ..
            })
        ));
    }

    #[test]
    fn curve_outputs_csv_and_sparkline() {
        let p = temp_graph("curve.txt", &["generate", "clique", "16"]);
        let out = call(&["curve", &p, "--seed", "4"]).unwrap();
        assert!(out.starts_with("round,informed"));
        let last_csv = out
            .lines()
            .rfind(|l| !l.starts_with('#') && !l.starts_with("round"))
            .unwrap();
        assert!(
            last_csv.ends_with(",16"),
            "final row fully informed: {last_csv}"
        );
        assert!(
            out.lines().last().unwrap().starts_with("# "),
            "sparkline present"
        );
    }

    #[test]
    fn dot_output() {
        let p = temp_graph("dot.txt", &["generate", "path", "3"]);
        let out = call(&["dot", &p]).unwrap();
        assert!(out.starts_with("graph gossip {"));
        assert!(out.contains("0 -- 1"));
    }

    #[test]
    fn stats_on_missing_file() {
        assert!(matches!(
            call(&["stats", "/definitely/not/here.txt"]),
            Err(CliError::Io(_, _))
        ));
    }
}

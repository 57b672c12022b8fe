#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The repo benchmark: seven workloads, end-to-end metrics from a plain
//! run and per-layer metrics from a traced run, every layer measured
//! from outside through the public functions of `crates/{graph, sim,
//! core, net}`. `BENCHMARK.json` at the repo root declares the command,
//! the workloads and the metrics; `README.md` here explains them.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run
//!     [--workload NAME] [--seed S] [--seconds T] [--trace [0|1]] [--out FILE]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare A.json B.json
//! cargo run --release --manifest-path benchmark/Cargo.toml -- pin > benchmark/expected.json
//! ```

mod compare;
mod expected;
mod json;
mod metrics;
mod micro;
mod procfs;
mod run;
mod stats;
mod timed;
mod workloads;

use std::process::ExitCode;

use run::RunOptions;
use workloads::Workload;

const USAGE: &str = "usage:
  gossip-benchmark run [--workload NAME] [--seed S] [--seconds T] [--trace [0|1]] [--out FILE]
  gossip-benchmark compare A.json B.json
  gossip-benchmark pin
workloads: clique_pushpull ring_flood geo_flood loopback_ring soak_snapshot soak_delta stream_rlc";

/// Parses the arguments after `run`.
fn parse_run(args: &[String]) -> Result<RunOptions, String> {
    let mut opts = RunOptions {
        workload: None,
        seed: expected::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            // Bare `--trace` means 1; the driver passes `--trace 0|1`.
            opts.trace = match it.next_if(|v| *v == "0" || *v == "1") {
                Some(v) => v == "1",
                None => true,
            };
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                opts.workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--out" => opts.out = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).map(|opts| match opts.workload {
            Some(workload) => run::run_one(&opts, workload),
            None => run::run_all(&opts),
        }),
        Some((cmd, [a, b])) if cmd == "compare" => compare::compare(a, b),
        Some((cmd, [])) if cmd == "pin" => {
            run::pin();
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_invocation() {
        let o = parse_run(&args(
            "--workload geo_flood --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(o.workload, Some(Workload::GeoFlood));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, true));
        let o = parse_run(&args("--trace 0 --seed 3")).expect("valid");
        assert_eq!((o.workload, o.seed, o.trace), (None, 3, false));
    }

    #[test]
    fn bare_trace_flag_and_defaults() {
        let o = parse_run(&args("--trace --out x.json")).expect("valid");
        assert!(o.trace);
        assert_eq!(o.seed, expected::DEFAULT_SEED);
        assert_eq!(o.out.as_deref(), Some(std::path::Path::new("x.json")));
        assert!(!parse_run(&[]).expect("valid").trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds -1",
            "--frobnicate 1",
            "--seed",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad}");
        }
    }
}

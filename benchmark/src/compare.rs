//! The `compare` subcommand: judges result document B against A, one
//! row per workload and end-to-end metric, by each metric's bound from
//! `BENCHMARK.json`. This is what "two sets of runs agree" runs, and
//! what a later change uses to show no other workload regressed.

use crate::json::{self, Json};
use crate::metrics::{MetricDef, END_TO_END, EXACT};
use crate::stats::quartile_spread;

/// What happened to one metric on one workload between A and B.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound (or at all, for an exact metric).
    Improved,
    /// Within the bound (or equal, for an exact metric).
    Unchanged,
    /// Worse by more than the bound (or at all, for an exact metric).
    Regressed,
    /// The run-to-run spread of either side is wider than the bound, so
    /// a move of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: a metric's reported value and the per-rep
/// samples behind it.
#[derive(Clone, Debug)]
pub struct Side {
    /// The reported value (a median for timings).
    pub value: f64,
    /// Every sample; one element for a metric measured once per run.
    pub samples: Vec<f64>,
}

/// Judges `b` against `a`. `bound` is the share of `a` by which the
/// metric may worsen (`None`: the metric is exact and compared with
/// `==`); `higher_is_better` gives the direction.
pub fn verdict(a: &Side, b: &Side, bound: Option<f64>, higher_is_better: bool) -> Verdict {
    // Positive = B is worse than A.
    let worse_by = if higher_is_better {
        a.value - b.value
    } else {
        b.value - a.value
    };
    let Some(bound) = bound else {
        return match worse_by {
            w if w > 0.0 => Verdict::Regressed,
            w if w < 0.0 => Verdict::Improved,
            _ => Verdict::Unchanged,
        };
    };
    let noisy = |s: &Side| quartile_spread(&s.samples).is_some_and(|spread| spread > bound);
    if noisy(a) || noisy(b) {
        // Still decidable when every run of B beats every run of A.
        let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
        let b_always_better = b
            .samples
            .iter()
            .all(|&y| a.samples.iter().all(|&x| better(y, x)));
        return if b_always_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let share = worse_by / a.value.abs();
    if share > bound {
        Verdict::Regressed
    } else if share < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn side(run: &Json, metric: &str) -> Option<Side> {
    let m = run.get("metrics")?.get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        samples: m
            .get("samples")?
            .as_arr()
            .iter()
            .filter_map(Json::as_f64)
            .collect(),
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn runs(doc: &Json) -> &[Json] {
    doc.get("runs").map_or(&[], Json::as_arr)
}

/// The bound of each end-to-end metric, read from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(MetricDef, Option<f64>)>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = load(path)?;
    let declared = doc.get("end_to_end").map_or(&[][..], Json::as_arr);
    let mut out = Vec::new();
    for def in END_TO_END {
        let bound = declared
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(def.name))
            .and_then(|m| m.get("bound"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}: no bound for {}", def.name))?;
        out.push((def, Some(bound)));
    }
    out.extend(EXACT.map(|def| (def, None)));
    Ok(out)
}

/// Prints one verdict per workload and metric; returns whether nothing
/// regressed.
///
/// # Errors
///
/// Returns a message if a file cannot be read or is not a result
/// document of `run`.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let bounds = bounds()?;
    let (runs_a, runs_b) = (runs(&a), runs(&b));
    if runs_a.is_empty() {
        return Err(format!(
            "{path_a}: no runs (is it a result document of `run`?)"
        ));
    }
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "A", "B", "B vs A"
    );
    let mut ok = true;
    for run_a in runs_a {
        let name = run_a.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(run_b) = runs_b
            .iter()
            .find(|r| r.get("workload").and_then(Json::as_str) == Some(name))
        else {
            println!("{name:<16} missing from {path_b}");
            ok = false;
            continue;
        };
        for &(def, bound) in &bounds {
            let (Some(sa), Some(sb)) = (side(run_a, def.name), side(run_b, def.name)) else {
                println!("{name:<16} {:<20} missing", def.name);
                ok = false;
                continue;
            };
            let v = verdict(&sa, &sb, bound, def.better == "higher");
            ok &= v != Verdict::Regressed;
            let change = if sa.value == 0.0 {
                "-".to_string()
            } else {
                format!("{:+.1}%", (sb.value - sa.value) / sa.value * 100.0)
            };
            println!(
                "{name:<16} {:<20} {:>14.6} {:>14.6} {change:>9}  {}",
                def.name,
                sa.value,
                sb.value,
                v.label()
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady(value: f64) -> Side {
        Side {
            value,
            samples: vec![value * 0.995, value, value, value * 1.005],
        }
    }

    #[test]
    fn bounded_metrics_move_only_past_the_bound() {
        let a = steady(1.0);
        let judge = |b: f64| verdict(&a, &steady(b), Some(0.10), false);
        assert_eq!(judge(1.05), Verdict::Unchanged);
        assert_eq!(judge(0.95), Verdict::Unchanged);
        assert_eq!(judge(1.11), Verdict::Regressed);
        assert_eq!(judge(0.89), Verdict::Improved);
        // Higher-is-better flips the direction.
        let up = |b: f64| verdict(&a, &steady(b), Some(0.10), true);
        assert_eq!(up(1.2), Verdict::Improved);
        assert_eq!(up(0.8), Verdict::Regressed);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let noisy = Side {
            value: 1.0,
            samples: vec![0.8, 0.9, 1.0, 1.1, 1.2],
        };
        assert_eq!(
            verdict(&noisy, &steady(1.3), Some(0.10), false),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&steady(1.0), &noisy, Some(0.10), false),
            Verdict::Unresolved
        );
        // Every run of B below every run of A: decidable despite noise.
        assert_eq!(
            verdict(&noisy, &steady(0.5), Some(0.10), false),
            Verdict::Improved
        );
    }

    #[test]
    fn exact_metrics_compare_with_equality() {
        let one = |v: f64| Side {
            value: v,
            samples: vec![v],
        };
        assert_eq!(
            verdict(&one(241.0), &one(241.0), None, false),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&one(241.0), &one(242.0), None, false),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&one(241.0), &one(240.0), None, false),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&one(0.0), &one(0.0), None, false),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_single_sample_has_no_spread_and_is_judged_on_its_value() {
        let one = |v: f64| Side {
            value: v,
            samples: vec![v],
        };
        assert_eq!(
            verdict(&one(400.0), &one(410.0), Some(0.05), false),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&one(400.0), &one(430.0), Some(0.05), false),
            Verdict::Regressed
        );
    }
}

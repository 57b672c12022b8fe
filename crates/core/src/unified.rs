//! The **unified algorithm** (Theorem 20): run push-pull and the
//! spanner pipeline in parallel; finish with whichever completes first.
//!
//! * Unknown latencies: `O(min((D + Δ) log³ n, (ℓ*/φ*) log n))` —
//!   push-pull needs no latency knowledge, while the spanner branch
//!   first pays `Õ(D + Δ)` for latency [`crate::discovery`].
//! * Known latencies: `O(min(D log³ n, (ℓ*/φ*) log n))`.
//!
//! Running two protocols "in parallel" costs a constant factor (a node
//! interleaves their initiations); this module measures each pipeline
//! independently and reports the minimum, plus which side won — the
//! quantity every experiment in the paper's trade-off discussion
//! (Theorem 8) is about.

use gossip_sim::Round;
use latency_graph::Graph;

use crate::discovery;
use crate::eid;
use crate::push_pull::{self, PushPullConfig};

/// Which pipeline finished first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Winner {
    /// The conductance-driven randomized pipeline.
    PushPull,
    /// The diameter-driven spanner pipeline.
    Spanner,
    /// Neither completed within its cap.
    Neither,
}

/// Configuration for the unified run.
#[derive(Clone, Copy, Debug)]
pub struct UnifiedConfig {
    /// Whether nodes know adjacent latencies (Section 5) or must
    /// discover them first (Section 4.2).
    pub latency_known: bool,
    /// Cap on push-pull rounds.
    pub max_rounds: u64,
    /// Cap on the guess-and-double diameter for the spanner pipeline.
    pub max_guess: u64,
}

impl Default for UnifiedConfig {
    fn default() -> Self {
        UnifiedConfig {
            latency_known: false,
            max_rounds: 2_000_000,
            max_guess: 1 << 20,
        }
    }
}

/// The unified report: both pipelines' costs and the winner.
#[derive(Clone, Debug)]
pub struct UnifiedReport {
    /// Push-pull all-to-all rounds, if it completed.
    pub push_pull_rounds: Option<Round>,
    /// Spanner-pipeline rounds (discovery if needed + General EID), if
    /// it completed.
    pub spanner_rounds: Option<Round>,
    /// Rounds spent on latency discovery (0 when latencies are known).
    pub discovery_rounds: Round,
    /// Which pipeline won.
    pub winner: Winner,
}

impl UnifiedReport {
    /// The unified completion time: the minimum of the two pipelines
    /// (`u64::MAX` if neither completed).
    pub fn best_rounds(&self) -> Round {
        match (self.push_pull_rounds, self.spanner_rounds) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => Round::MAX,
        }
    }
}

/// Runs both pipelines on `g` and reports the Theorem 20 minimum.
pub fn all_to_all(g: &Graph, config: &UnifiedConfig, seed: u64) -> UnifiedReport {
    // Pipeline 1: push-pull (never needs latency knowledge).
    let pp = push_pull::all_to_all(
        g,
        &PushPullConfig {
            max_rounds: config.max_rounds,
            ..Default::default()
        },
        seed,
    );
    let push_pull_rounds = pp.completed().then_some(pp.rounds);

    // Pipeline 2: (discovery +) General EID.
    let mut discovery_rounds: Round = 0;
    let spanner_rounds = if config.latency_known {
        let out = eid::general_eid(g, seed, config.max_guess);
        out.complete.then_some(out.total_rounds)
    } else {
        // Discover latencies with the final (doubled) window; the
        // guess-and-double overhead is a constant factor which we fold
        // into the reported discovery cost by charging the doubling sum.
        let mut window = 1u64;
        let mut spent: Round = 0;
        loop {
            let disc = discovery::discover_latencies(g, window);
            spent += disc.rounds;
            if disc.complete || window >= config.max_guess {
                discovery_rounds = spent;
                if !disc.complete {
                    break None;
                }
                let working = disc.to_graph(g.node_count());
                let out = eid::general_eid(&working, seed, config.max_guess);
                break out.complete.then_some(spent + out.total_rounds);
            }
            window = (window * 2).min(config.max_guess);
        }
    };

    let winner = match (push_pull_rounds, spanner_rounds) {
        (None, None) => Winner::Neither,
        (Some(_), None) => Winner::PushPull,
        (None, Some(_)) => Winner::Spanner,
        (Some(a), Some(b)) => {
            if a <= b {
                Winner::PushPull
            } else {
                Winner::Spanner
            }
        }
    };
    UnifiedReport {
        push_pull_rounds,
        spanner_rounds,
        discovery_rounds,
        winner,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latency_graph::{generators, Latency};

    #[test]
    fn push_pull_wins_on_well_connected_graph() {
        // Clique with unit latencies: ℓ*/φ* · log n ≈ log n beats
        // D log³n-with-constants easily.
        let g = generators::clique(32);
        let r = all_to_all(&g, &UnifiedConfig::default(), 1);
        assert_eq!(r.winner, Winner::PushPull);
        assert!(r.best_rounds() < 64);
    }

    #[test]
    fn spanner_pipeline_completes_on_low_conductance_graph() {
        // A long path: push-pull pays ≥ D as well, but both should
        // complete; the report must contain both costs.
        let g = generators::path(24);
        let r = all_to_all(
            &g,
            &UnifiedConfig {
                latency_known: true,
                ..Default::default()
            },
            2,
        );
        assert!(r.push_pull_rounds.is_some());
        assert!(r.spanner_rounds.is_some());
        assert_ne!(r.winner, Winner::Neither);
    }

    #[test]
    fn unknown_latencies_charge_discovery() {
        let base = generators::cycle(12);
        let g = generators::uniform_random_latencies(&base, 1, 4, 3);
        let r = all_to_all(&g, &UnifiedConfig::default(), 3);
        assert!(r.discovery_rounds > 0);
        assert!(r.spanner_rounds.is_some());
        assert!(r.spanner_rounds.unwrap() > r.discovery_rounds);
    }

    #[test]
    fn discovery_windows_stop_at_the_cap() {
        // Latency 8 edges: no window up to the cap of 5 measures them.
        let g = generators::cycle(6).map_latencies(|_, _, _| Latency::new(8));
        let r = all_to_all(
            &g,
            &UnifiedConfig {
                max_guess: 5,
                ..Default::default()
            },
            1,
        );
        let windows: Round = [1, 2, 4, 5]
            .into_iter()
            .map(|w| discovery::discover_latencies(&g, w).rounds)
            .sum();
        assert_eq!(r.discovery_rounds, windows);
        assert_eq!(r.spanner_rounds, None);
    }

    #[test]
    fn known_latencies_skip_discovery() {
        let g = generators::cycle(12);
        let r = all_to_all(
            &g,
            &UnifiedConfig {
                latency_known: true,
                ..Default::default()
            },
            3,
        );
        assert_eq!(r.discovery_rounds, 0);
    }

    #[test]
    fn best_rounds_is_min() {
        let r = UnifiedReport {
            push_pull_rounds: Some(100),
            spanner_rounds: Some(40),
            discovery_rounds: 0,
            winner: Winner::Spanner,
        };
        assert_eq!(r.best_rounds(), 40);
        let neither = UnifiedReport {
            push_pull_rounds: None,
            spanner_rounds: None,
            discovery_rounds: 0,
            winner: Winner::Neither,
        };
        assert_eq!(neither.best_rounds(), u64::MAX);
    }
}

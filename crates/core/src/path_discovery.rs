//! The `T(k)` doubling sequence and **Path Discovery** (Appendix E):
//! all-to-all dissemination in `O(D log² n log D)` without knowing any
//! bound on `n`.
//!
//! The sequence is defined recursively —
//! `T(1) = 1‑DTG`, `T(2k) = T(k) · 2k‑DTG · T(k)` — producing the
//! ruler pattern `1, 2, 1, 4, 1, 2, 1, 8, …`. Lemma 24 proves by
//! induction that after executing `T(k)`, every pair of nodes at
//! weighted distance `≤ k` has exchanged rumors: heavy edges are used
//! only after as much information as possible has been collected near
//! their endpoints. [`path_discovery`] wraps the sequence in the usual
//! guess-and-double with the Termination Check.

use gossip_sim::{Round, RumorSet};
use latency_graph::Graph;

use crate::common::{self, latency_cap, Attempt};
use crate::dtg;
use crate::eid::termination_check;
use crate::rr_broadcast::fresh_states;

/// The `T(k)` sequence of `ℓ`-DTG parameters, for `k` a power of two.
///
/// # Panics
///
/// Panics if `k` is 0 or not a power of two.
///
/// # Example
///
/// ```
/// assert_eq!(gossip_core::path_discovery::t_sequence(4), vec![1, 2, 1, 4, 1, 2, 1]);
/// ```
pub fn t_sequence(k: u64) -> Vec<u64> {
    assert!(
        k >= 1 && k.is_power_of_two(),
        "T(k) requires k a power of two"
    );
    if k == 1 {
        return vec![1];
    }
    let half = t_sequence(k / 2);
    let mut seq = half.clone();
    seq.push(k);
    seq.extend(half);
    seq
}

/// Outcome of running a full `T(k)` sequence.
#[derive(Clone, Debug)]
pub struct TSequenceOutcome {
    /// Rounds charged: the sum of the fixed `ℓ`-DTG schedules.
    pub rounds: Round,
    /// Final rumor sets.
    pub rumors: Vec<RumorSet>,
    /// Number of `ℓ`-DTG invocations executed.
    pub invocations: usize,
    /// Total payload units exchanged.
    pub payload_units: u64,
}

/// Executes `T(k)` over the given starting rumor sets (fresh singletons
/// if `None`). Each `ℓ`-DTG invocation is a fresh local broadcast
/// (Algorithm 5 reinitializes `R = {v}`) disseminating each node's
/// *accumulated* rumor collection to all `≤ ℓ` neighbors.
///
/// # Panics
///
/// Panics if `k` is not a power of two or `start` has the wrong length.
pub fn run_t_sequence(g: &Graph, k: u64, start: Option<Vec<RumorSet>>) -> TSequenceOutcome {
    let n = g.node_count();
    let mut rumors = start.unwrap_or_else(|| fresh_states(n));
    assert_eq!(rumors.len(), n, "one rumor set per node");
    let cap = dtg::default_iteration_cap(n);
    let seq = t_sequence(k);
    let invocations = seq.len();
    let mut rounds: Round = 0;
    let mut payload_units: u64 = 0;
    for ell in seq {
        let phase = dtg::run_phase(g, latency_cap(ell), cap, dtg::states(rumors), false);
        rounds += phase.rounds;
        payload_units += phase.metrics.payload_units;
        rumors = phase.into_data();
    }
    TSequenceOutcome {
        rounds,
        rumors,
        invocations,
        payload_units,
    }
}

/// Checks Lemma 24's postcondition: every pair at weighted distance
/// `≤ k` has exchanged rumors.
pub fn verify_distance_k_exchange(g: &Graph, k: u64, rumors: &[RumorSet]) -> bool {
    for v in g.nodes() {
        let dist = latency_graph::metrics::dijkstra(g, v);
        for u in g.nodes() {
            if u != v && dist[u.index()] <= k && !rumors[v.index()].contains(u) {
                return false;
            }
        }
    }
    true
}

/// The result of [`path_discovery`].
#[derive(Clone, Debug)]
pub struct PathDiscoveryOutcome {
    /// Attempts in order of guesses `1, 2, 4, …`, none above the cap:
    /// the rounds of `T(k)`, and the Termination Check's (2× the `T(k)`
    /// cost — the check broadcasts via the same sequence, Appendix B).
    pub attempts: Vec<Attempt>,
    /// Total rounds including checks.
    pub total_rounds: Round,
    /// Whether all-to-all dissemination completed.
    pub complete: bool,
    /// Final rumor sets.
    pub rumors: Vec<RumorSet>,
}

/// Path Discovery (Algorithm 6): guess-and-double `T(k)` with the
/// Termination Check, requiring no bound on `n`.
///
/// Rumor state persists across attempts (information is never lost), so
/// the doubling loop converges once `k ≥ D`.
///
/// # Panics
///
/// Panics if `max_guess == 0`.
pub fn path_discovery(g: &Graph, max_guess: u64) -> PathDiscoveryOutcome {
    let mut rumors = fresh_states(g.node_count());
    // Guesses stay powers of two (`T(k)` needs one): a clamped last
    // guess is skipped.
    let powers = common::guesses(max_guess).filter(|k| k.is_power_of_two());
    let attempts = common::guess_and_double(powers, |guess| {
        let out = run_t_sequence(g, guess, Some(std::mem::take(&mut rumors)));
        rumors = out.rumors;
        Attempt {
            guess,
            rounds: out.rounds,
            check_rounds: 2 * out.rounds,
            success: termination_check(g, &rumors).success(),
        }
    });
    PathDiscoveryOutcome {
        total_rounds: common::total_rounds(&attempts),
        complete: attempts.last().is_some_and(|a| a.success),
        attempts,
        rumors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latency_graph::{generators, metrics, Latency, NodeId};

    #[test]
    fn t_sequence_ruler_pattern() {
        assert_eq!(t_sequence(1), vec![1]);
        assert_eq!(t_sequence(2), vec![1, 2, 1]);
        assert_eq!(
            t_sequence(8),
            vec![1, 2, 1, 4, 1, 2, 1, 8, 1, 2, 1, 4, 1, 2, 1]
        );
        assert_eq!(t_sequence(16).len(), 31);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn t_sequence_rejects_non_power() {
        let _ = t_sequence(6);
    }

    #[test]
    fn lemma24_on_weighted_path() {
        // Path with mixed latencies 1 and 2; D = sum.
        let g =
            Graph::from_edges(6, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 4, 2), (4, 5, 1)]).unwrap();
        let d = metrics::weighted_diameter(&g); // 7
        let k = d.next_power_of_two(); // 8
        let out = run_t_sequence(&g, k, None);
        assert!(verify_distance_k_exchange(&g, k, &out.rumors));
        assert!(out.rumors.iter().all(gossip_sim::RumorSet::is_full));
    }

    #[test]
    fn partial_sequence_covers_partial_distance() {
        // After T(k) with k < D, only distance-k pairs are guaranteed.
        let g = generators::path(20).map_latencies(|_, _, _| Latency::new(2));
        let out = run_t_sequence(&g, 4, None);
        assert!(verify_distance_k_exchange(&g, 4, &out.rumors));
        // Distant pairs must NOT all be covered (D = 38 > 4).
        assert!(!out.rumors[0].contains(NodeId::new(19)));
    }

    #[test]
    fn heavy_edge_used_after_local_collection() {
        // Two unit-latency cliques joined by one latency-4 bridge:
        // T(4) = 1,2,1,4,1,2,1 — by the time the 4-DTG runs, each side
        // has fully aggregated, so one bridge exchange finishes the job.
        let g = generators::barbell(5, 4);
        let out = run_t_sequence(&g, 4, None);
        assert!(out.rumors.iter().all(gossip_sim::RumorSet::is_full));
    }

    #[test]
    fn path_discovery_converges() {
        let g = generators::path(9); // D = 8
        let out = path_discovery(&g, 64);
        assert!(out.complete);
        let final_guess = out.attempts.last().unwrap().guess;
        assert!(final_guess <= 16, "guess {final_guess}");
        assert!(out.rumors.iter().all(gossip_sim::RumorSet::is_full));
        for a in &out.attempts[..out.attempts.len() - 1] {
            assert!(!a.success);
        }
    }

    #[test]
    fn path_discovery_converges_with_latencies() {
        let base = generators::cycle(10);
        let g = generators::uniform_random_latencies(&base, 1, 5, 2);
        let out = path_discovery(&g, 256);
        assert!(out.complete);
    }

    #[test]
    fn path_discovery_respects_cap() {
        let g = generators::path(40).map_latencies(|_, _, _| Latency::new(4)); // D = 156
        let out = path_discovery(&g, 4);
        assert!(!out.complete);
        assert_eq!(out.attempts.last().unwrap().guess, 4);
    }

    #[test]
    fn path_discovery_stops_at_the_last_power_of_two_under_the_cap() {
        let g = generators::path(40).map_latencies(|_, _, _| Latency::new(4));
        let out = path_discovery(&g, 5);
        assert!(!out.complete);
        let guesses: Vec<u64> = out.attempts.iter().map(|a| a.guess).collect();
        assert_eq!(guesses, [1, 2, 4]);
    }

    #[test]
    fn rounds_scale_near_d_log2n_logd() {
        // Shape check (Lemma 25): rounds / (D log²n log D) bounded.
        let mut ratios = Vec::new();
        for n in [8usize, 16, 32] {
            let g = generators::path(n);
            let d = metrics::weighted_diameter(&g);
            let k = d.next_power_of_two().max(2);
            let out = run_t_sequence(&g, k, None);
            assert!(out.rumors.iter().all(gossip_sim::RumorSet::is_full));
            let logn = (n as f64).log2();
            let logd = (d.max(2) as f64).log2();
            ratios.push(out.rounds as f64 / (d as f64 * logn * logn * logd));
        }
        let max = ratios.iter().copied().fold(0.0, f64::max);
        let min = ratios.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max / min < 8.0, "ratios {ratios:?}");
    }
}

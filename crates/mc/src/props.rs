//! The pluggable properties.
//!
//! Each constructor returns a [`Property`] closing over whatever
//! instance-level precomputation it needs (distance matrices, spanner
//! arc sets, the centralized Lemma 18 oracle). Properties are *pure
//! observers*: they read an [`Obs`] and never touch the stepper, so
//! adding one can never perturb the state space.
//!
//! | name | quantified claim |
//! |------|------------------|
//! | `latency-respected`     | every exchange takes exactly `ℓ(u,v)` rounds over a real edge, and no rumor outruns the weighted distance from its origin |
//! | `at-most-once-delivery` | no exchange completes twice, and every non-lost completion is applied exactly once per endpoint |
//! | `termination`           | fault-free paths reach the goal before the bound (liveness via bounded exploration) |
//! | `lemma18-no-early-stop` | a node decides *terminate* iff the centralized termination oracle agrees |
//! | `same-round-termination`| all nodes decide identically at a terminal observation |
//! | `spanner-out-degree`    | all traffic stays on the spanner orientation and respects its out-degree cap |
//! | `no-phantom-rumor`      | every rumor a node holds is causally explained: injected here, or carried by the support of a received payload |

use std::collections::BTreeSet;

use gossip_sim::{Protocol, Round, RumorSet};
use latency_graph::{metrics, Graph, NodeId};

use crate::checker::{Obs, Property, Terminal};
use crate::models::{Decider, RumorNode, StreamObserver};

/// Every exchange's duration equals the latency of a real edge, and no
/// rumor is held closer to its origin than the weighted distance
/// allows (`x ∈ rumors(u)` at round `r` implies `dist_w(origin(x), u) ≤ r`).
///
/// The provenance half is the paper's Section 1 observation that
/// latency-`ℓ` edges delay information by `ℓ` rounds — the invariant a
/// latency-ignoring engine bug would break first.
pub fn latency_respected<N>(g: &Graph) -> Property<N>
where
    N: Protocol + RumorNode,
{
    let dist = metrics::all_pairs_distances(g);
    Property {
        name: "latency-respected",
        check: Box::new(move |obs: &Obs<'_, N>| {
            for d in obs.deliveries {
                let Some(l) = obs.graph.latency(d.a, d.b) else {
                    return Err(format!("exchange {}–{} crosses a non-edge", d.a, d.b));
                };
                let took = d.completed_at - d.initiated_at;
                if took != l.rounds() {
                    return Err(format!(
                        "exchange {}–{} took {took} rounds over a latency-{} edge",
                        d.a,
                        d.b,
                        l.get()
                    ));
                }
            }
            for (u, node) in obs.nodes() {
                for x in node.rumor_set().iter() {
                    let need = dist[x.index()][u.index()];
                    if need > obs.round {
                        return Err(format!(
                            "rumor {x} reached {u} at round {} but is {need} away",
                            obs.round
                        ));
                    }
                }
            }
            Ok(())
        }),
    }
}

/// No exchange completes twice in one observation, and the cumulative
/// per-node application count matches the engine's delivery count
/// exactly (each non-lost exchange applied once at each endpoint:
/// `Σ applied = 2 · delivered`).
pub fn at_most_once_delivery<N>() -> Property<N>
where
    N: Protocol + RumorNode,
{
    Property {
        name: "at-most-once-delivery",
        check: Box::new(|obs: &Obs<'_, N>| {
            let mut keys = BTreeSet::new();
            for d in obs.deliveries {
                if !keys.insert((d.a, d.b, d.initiated_at)) {
                    return Err(format!(
                        "exchange {}–{} (initiated round {}) completed twice",
                        d.a, d.b, d.initiated_at
                    ));
                }
            }
            let applied: u64 = obs.nodes().map(|(_, node)| node.applied()).sum();
            let expected = 2 * obs.metrics.delivered;
            if applied != expected {
                return Err(format!(
                    "{applied} exchange applications for {} deliveries (expected {expected})",
                    obs.metrics.delivered
                ));
            }
            Ok(())
        }),
    }
}

/// Liveness via bounded exploration: a fault-free path that hits the
/// round bound without meeting the goal is a violation. Only sound for
/// models whose bound provably suffices absent faults (the
/// deterministic round-robin flood); the adversarial push-pull model
/// omits it — the choice adversary can legitimately starve progress.
pub fn termination<N: Protocol>() -> Property<N> {
    Property {
        name: "termination",
        check: Box::new(|obs: &Obs<'_, N>| {
            if obs.terminal == Some(Terminal::Bound) && obs.faults_used == 0 {
                return Err(format!(
                    "fault-free run hit the round bound ({}) without reaching the goal",
                    obs.round
                ));
            }
            Ok(())
        }),
    }
}

/// Lemma 18 soundness *and* completeness at every terminal
/// observation: a node decides *terminate* exactly when the
/// centralized oracle ([`gossip_core::eid::termination_check`]) says
/// dissemination is complete for the configured rumor assignment.
pub fn lemma18_no_early_stop<N>(g: &Graph, rumors: Vec<RumorSet>) -> Property<N>
where
    N: Protocol + Decider,
{
    let central_ok = gossip_core::eid::termination_check(g, &rumors).success();
    Property {
        name: "lemma18-no-early-stop",
        check: Box::new(move |obs: &Obs<'_, N>| {
            if obs.terminal.is_none() {
                return Ok(());
            }
            for (v, node) in obs.nodes() {
                if node.decides() && !central_ok {
                    return Err(format!(
                        "{v} decided terminate but the centralized check fails"
                    ));
                }
                if !node.decides() && central_ok {
                    return Err(format!(
                        "centralized check passes but {v} did not decide terminate"
                    ));
                }
            }
            Ok(())
        }),
    }
}

/// At a terminal observation all nodes agree: either everyone decides
/// *terminate* or nobody does (the "same round" half of Lemma 18).
pub fn same_round_termination<N>() -> Property<N>
where
    N: Protocol + Decider,
{
    Property {
        name: "same-round-termination",
        check: Box::new(|obs: &Obs<'_, N>| {
            if obs.terminal.is_none() {
                return Ok(());
            }
            let first = obs.nodes().next().map(|(_, node)| node.decides());
            for (v, node) in obs.nodes() {
                if Some(node.decides()) != first {
                    return Err(format!(
                        "split decision at round {}: v0={:?} but {v}={}",
                        obs.round,
                        first,
                        node.decides()
                    ));
                }
            }
            Ok(())
        }),
    }
}

/// All traffic stays on the spanner orientation (`(initiator, peer)`
/// is an oriented spanner arc) and the orientation's out-degree stays
/// within the Baswana–Sen cap `k · ⌈n^(1/k)⌉ + k`.
pub fn spanner_out_degree<N: Protocol>(
    arcs: BTreeSet<(NodeId, NodeId)>,
    cap: usize,
    max_out: usize,
) -> Property<N> {
    Property {
        name: "spanner-out-degree",
        check: Box::new(move |obs: &Obs<'_, N>| {
            if max_out > cap {
                return Err(format!(
                    "spanner out-degree {max_out} exceeds the cap {cap}"
                ));
            }
            for d in obs.deliveries {
                if !arcs.contains(&(d.a, d.b)) {
                    return Err(format!(
                        "exchange {}→{} is not an oriented spanner arc",
                        d.a, d.b
                    ));
                }
            }
            Ok(())
        }),
    }
}

/// The streaming safety invariant: a node's held set stays inside its
/// causal set (own injections ∪ support of received payloads) at every
/// observation. A selection policy that conjures a rumor id, mislabels
/// a payload, or decodes outside the received row space violates this
/// at the first bad observation — the multi-rumor analogue of the
/// provenance half of `latency-respected`.
pub fn no_phantom_rumor<N>() -> Property<N>
where
    N: Protocol + StreamObserver,
{
    Property {
        name: "no-phantom-rumor",
        check: Box::new(|obs: &Obs<'_, N>| {
            for (v, node) in obs.nodes() {
                let heard = node.heard_words();
                let causal = node.causal_words();
                for (word, (h, c)) in heard.iter().zip(causal).enumerate() {
                    let phantom = h & !c;
                    if phantom != 0 {
                        let bit = usize::try_from(phantom.trailing_zeros())
                            .expect("bit index fits usize");
                        return Err(format!(
                            "{v} holds rumor {} it neither injected nor received",
                            word * 64 + bit
                        ));
                    }
                }
            }
            Ok(())
        }),
    }
}

/// Bound sanity used by the liveness-capable model: the reference
/// fault-free number of rounds the deterministic flood needs.
pub fn reference_flood_rounds(g: &Graph) -> Round {
    use gossip_core::flooding::FloodingNode;
    use gossip_sim::{SimConfig, Simulator, StopReason};

    let sim = Simulator::new(
        g,
        SimConfig {
            // Generous cap; the flood's real round count is what we
            // measure here.
            max_rounds: 64 * metrics::weighted_diameter(g).max(1),
            ..SimConfig::default()
        },
    );
    let n = g.node_count();
    let out = sim.run(
        |id, _| FloodingNode::new(id, n),
        |nodes: &[FloodingNode], _| nodes.iter().all(|x| x.rumors.is_full()),
    );
    assert_eq!(
        out.reason,
        StopReason::Condition,
        "reference flood must terminate on {} nodes",
        n
    );
    out.rounds
}

#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `gossip-mc` — exhaustive explicit-state model checking for the
//! protocol state machines.
//!
//! The golden traces and proptests *sample* the behavior space; the
//! paper's guarantees are universally quantified over all fault
//! interleavings. This crate closes that gap for small instances
//! (n ≤ 5): it treats
//!
//! (per-node protocol states × in-flight exchanges × crash/drop fault
//! choices × peer-selection nondeterminism)
//!
//! as a nondeterministic automaton and enumerates **every** reachable
//! state by BFS with canonical-byte deduplication. Crucially, the
//! checker does not reimplement the round semantics: it drives the
//! shipping [`gossip_sim::Stepper`] — the engine's one round loop,
//! which `Simulator::run` drives for every protocol, on-demand ones
//! included — and resolves each [`Context::choose`] branch through a
//! [`ChoiceTape`] script — checked code is shipped code.
//!
//! [`Context::choose`]: gossip_sim::Context::choose
//! [`ChoiceTape`]: gossip_sim::ChoiceTape
//!
//! # Layout
//!
//! * [`checker`] — the BFS engine: the one [`Model`] type,
//!   state encoding, fault/choice enumeration, minimal
//!   counterexamples, and replay.
//! * [`props`] — the pluggable properties (`Lemma18NoEarlyStop`,
//!   `SameRoundTermination`, `LatencyRespected`, `SpannerOutDegree`,
//!   `AtMostOnceDelivery`, `NoPhantomRumor`, plus
//!   liveness-via-`Termination`).
//! * [`models`] — the checked models: nondeterministic push-pull
//!   broadcast, deterministic round-robin flooding, the Lemma 18
//!   distributed termination check, the spanner orientation, and the
//!   multi-rumor round-robin stream.
//! * [`mutants`] — deliberately broken protocol variants the checker
//!   must reject (the mutation suite proving the harness has teeth).
//! * [`report`] — per-instance run reports and the `mc-report.json`
//!   serialization used by CI and `gossip check`.
//!
//! # Quickstart
//!
//! ```
//! use gossip_mc::{checker, models, Family, PropSelect};
//!
//! let inst = gossip_mc::instance(Family::Cycle, 4).unwrap();
//! let model = models::nd_broadcast(&inst.graph, PropSelect::All);
//! let cfg = checker::CheckConfig { fault_budget: 1, ..Default::default() };
//! let out = checker::check(&model, &cfg);
//! assert!(out.violation.is_none());
//! assert!(out.explored > 100);
//! ```

pub mod checker;
pub mod models;
pub mod mutants;
pub mod props;
pub mod report;

pub use checker::{
    CheckConfig, CheckOutcome, Counterexample, FaultAction, Model, Obs, Property, RoundAction,
    Terminal,
};
pub use report::{run_instance, run_instance_models, RunReport};

use latency_graph::{generators, Graph};

/// The instance families `gossip check --family` accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `cycle n` — the n-cycle with unit latencies.
    Cycle,
    /// `star n` — one hub, `n − 1` leaves, unit latencies.
    Star,
    /// `clique n` — the complete graph with unit latencies.
    Clique,
    /// `ring-of-cliques n` — two cliques of size `n/2` joined by two
    /// latency-2 bridges (the heterogeneous-latency instance).
    RingOfCliques,
}

impl Family {
    /// Parses a `--family` argument.
    pub fn parse(s: &str) -> Option<Family> {
        match s {
            "cycle" => Some(Family::Cycle),
            "star" => Some(Family::Star),
            "clique" => Some(Family::Clique),
            "ring-of-cliques" => Some(Family::RingOfCliques),
            _ => None,
        }
    }

    /// The kebab-case family name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Cycle => "cycle",
            Family::Star => "star",
            Family::Clique => "clique",
            Family::RingOfCliques => "ring-of-cliques",
        }
    }
}

/// A named small instance: what one checker run explores.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Display name, e.g. `cycle4`.
    pub name: String,
    /// The instance graph.
    pub graph: Graph,
}

/// Builds a checkable instance. Exhaustive exploration is only
/// tractable for tiny graphs, so `n` is capped at 5.
///
/// # Errors
///
/// Returns a message when `n` is out of range for the family.
pub fn instance(family: Family, n: usize) -> Result<Instance, String> {
    if !(2..=5).contains(&n) {
        return Err(format!("exhaustive checking needs 2 <= n <= 5, got n={n}"));
    }
    let graph = match family {
        Family::Cycle => {
            if n < 3 {
                return Err("cycle needs n >= 3".to_string());
            }
            generators::cycle(n)
        }
        Family::Star => generators::star(n),
        Family::Clique => generators::clique(n),
        Family::RingOfCliques => {
            // generators::ring_of_cliques wants >= 3 cliques; the
            // checkable 2-clique variant is built by hand: two
            // unit-latency cliques of size n/2 bridged by two
            // latency-2 edges (bridge ends chosen as in the
            // generator: last node of each clique to first of the
            // next).
            if n != 4 {
                return Err("ring-of-cliques needs n = 4 (two 2-cliques)".to_string());
            }
            Graph::from_edges(4, [(0, 1, 1), (2, 3, 1), (1, 2, 2), (3, 0, 2)])
                .expect("hand-built 4-node instance is well-formed")
        }
    };
    Ok(Instance {
        name: format!("{}{n}", family.name()),
        graph,
    })
}

/// The pinned regression corpus: every instance the state-space counts
/// are committed for (see `tests/corpus.rs`) and the set CI verifies
/// under `gossip check --corpus`.
///
/// # Panics
///
/// Never: every member is a valid [`instance`] call.
pub fn corpus() -> Vec<Instance> {
    [
        (Family::Cycle, 3),
        (Family::Cycle, 4),
        (Family::Star, 4),
        (Family::Clique, 3),
        (Family::Clique, 4),
        (Family::RingOfCliques, 4),
    ]
    .into_iter()
    .map(|(f, n)| instance(f, n).expect("corpus members are valid instances"))
    .collect()
}

/// Selects which properties a model evaluates.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum PropSelect {
    /// Evaluate every property the model owns.
    #[default]
    All,
    /// Evaluate only the named property (kebab-case, see
    /// [`PROPERTY_NAMES`]).
    One(String),
}

impl PropSelect {
    /// Whether the named property should be evaluated.
    pub fn wants(&self, name: &str) -> bool {
        match self {
            PropSelect::All => true,
            PropSelect::One(p) => p == name,
        }
    }
}

/// Every property name `gossip check --prop` accepts (besides `all`).
pub const PROPERTY_NAMES: &[&str] = &[
    "lemma18-no-early-stop",
    "same-round-termination",
    "latency-respected",
    "spanner-out-degree",
    "at-most-once-delivery",
    "termination",
    "no-phantom-rumor",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_parse_round_trips() {
        for f in [
            Family::Cycle,
            Family::Star,
            Family::Clique,
            Family::RingOfCliques,
        ] {
            assert_eq!(Family::parse(f.name()), Some(f));
        }
        assert_eq!(Family::parse("torus"), None);
    }

    #[test]
    fn instance_bounds_enforced() {
        assert!(instance(Family::Cycle, 6).is_err());
        assert!(instance(Family::Cycle, 2).is_err());
        assert!(instance(Family::RingOfCliques, 5).is_err());
        assert_eq!(instance(Family::Clique, 5).unwrap().name, "clique5");
    }

    #[test]
    fn corpus_is_six_instances() {
        let names: Vec<String> = corpus().into_iter().map(|i| i.name).collect();
        assert_eq!(
            names,
            [
                "cycle3",
                "cycle4",
                "star4",
                "clique3",
                "clique4",
                "ring-of-cliques4"
            ]
        );
    }

    #[test]
    fn ring_of_cliques_has_latency_2_bridges() {
        use latency_graph::NodeId;
        let inst = instance(Family::RingOfCliques, 4).unwrap();
        let l = |u: usize, v: usize| {
            inst.graph
                .latency(NodeId::new(u), NodeId::new(v))
                .map(latency_graph::Latency::get)
        };
        assert_eq!(l(0, 1), Some(1));
        assert_eq!(l(2, 3), Some(1));
        assert_eq!(l(1, 2), Some(2));
        assert_eq!(l(3, 0), Some(2));
    }
}

//! The BFS engine: exhaustive exploration of one [`Model`].
//!
//! # State space
//!
//! A *state* is a [`Stepper`] snapshot observed **pre-delivery**: the
//! start of a round, before that round's due exchanges land. The root
//! state is round 0 right after `on_start`. One *transition* fixes
//!
//! 1. an optional **fault action** (crash one live node, or drop one
//!    live link, charged against the fault budget — `None` is always
//!    available, which is how schedules with fewer faults than the
//!    budget arise), and
//! 2. a **choice script** resolving every [`Context::choose`] branch
//!    hit while delivering and advancing the round,
//!
//! and runs the shipped engine one round forward: deliver → property
//! observation → advance. Transitions whose observation is *terminal*
//! (the model's goal holds, or the round bound is reached) produce no
//! child. Everything else is encoded to canonical bytes and
//! deduplicated in a `BTreeSet` — exact, not hashed, so the pinned
//! state counts in the regression corpus can never collide.
//!
//! # Choice enumeration
//!
//! Scripts are discovered, not guessed: a transition first runs with
//! the empty script (every branch defaults to 0), the [`ChoiceTape`]
//! records the arity of each branch actually hit, and the checker
//! re-queues one sibling script per untaken alternative
//! (`taken[..p] ++ [c]` for every position `p` at or past the scripted
//! prefix and every `c` in `1..arity[p]`). Each leaf of the choice
//! tree is visited exactly once.
//!
//! # Counterexamples
//!
//! BFS explores states in round order, so the first violation found is
//! a shortest path by construction. The path's [`RoundAction`]s replay
//! deterministically ([`replay`]) and serialize ([`Counterexample::case`])
//! with a final line in the golden-trace case format
//! (`rounds=… initiated=… … fingerprint=…`), so every bug found
//! becomes a permanent regression test.
//!
//! [`Context::choose`]: gossip_sim::Context::choose

use std::collections::{BTreeSet, VecDeque};

use gossip_sim::{
    ChoiceTape, DeliveryRecord, Protocol, Round, SimConfig, SimMetrics, Simulator, Stepper,
};
use latency_graph::{Graph, NodeId};

/// Why an observation ended its path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Terminal {
    /// The model's goal predicate held (maps to `StopReason::Condition`
    /// / `AllDone` in a live run).
    Goal,
    /// The model's round bound was reached (maps to
    /// `StopReason::MaxRounds`).
    Bound,
}

/// One observation point: the world right after a round's deliveries,
/// before the round's `on_round` sweep. Properties are evaluated here.
pub struct Obs<'a, N: Protocol> {
    /// The instance graph.
    pub graph: &'a Graph,
    /// The observed round.
    pub round: Round,
    /// Per-node protocol states, in the stepper's storage order; read
    /// them through [`nodes`](Obs::nodes).
    stored: &'a [N],
    /// Every exchange that completed this round (including lost ones).
    pub deliveries: &'a [DeliveryRecord],
    /// Cumulative engine counters along this path.
    pub metrics: SimMetrics,
    /// Fault actions injected along this path so far.
    pub faults_used: u32,
    /// Whether this observation ends the path, and why.
    pub terminal: Option<Terminal>,
}

impl<'a, N: Protocol> Obs<'a, N> {
    /// Every node with its protocol state, in id order, however the
    /// engine stores them.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &'a N)> + '_ {
        self.graph
            .nodes()
            .map(|v| (v, &self.stored[self.graph.position(v)]))
    }
}

/// A named, pluggable property evaluated at every observation.
pub struct Property<N: Protocol> {
    /// Stable kebab-case name (see [`crate::PROPERTY_NAMES`]).
    pub name: &'static str,
    /// Returns `Err(message)` on violation.
    #[allow(clippy::type_complexity)]
    pub check: Box<dyn Fn(&Obs<'_, N>) -> Result<(), String>>,
}

/// What the checker explores: a graph, a node factory, a canonical
/// state encoding, a goal, a bound, and the properties to evaluate.
///
/// Every checked model — shipped or mutant — is a value of this one
/// type; the constructors in [`crate::models`] fill it in. [`check`]
/// asks `N: Clone`: that is what makes snapshot-and-restore free, as
/// the checker forks [`Stepper`]s instead of re-simulating prefixes.
///
/// The encoding contract: two states with equal encodings must behave
/// identically under every future action sequence. Round, fault plan,
/// and in-flight exchanges are encoded by the checker itself; models
/// encode exactly the node state that influences future behavior
/// (derived observables like applied-counters may be excluded).
pub struct Model<N: Protocol> {
    /// Display name for reports.
    pub name: String,
    /// The instance graph.
    pub graph: Graph,
    /// Builds node `id` of `n` (the `Simulator::run` factory).
    pub factory: Box<dyn Fn(NodeId, usize) -> N>,
    /// The exploration horizon: observations at `round >= bound` are
    /// terminal.
    pub bound: Round,
    /// The largest fault budget this model is sound under; [`check`]
    /// clamps [`CheckConfig::fault_budget`] to it. The Lemma 18 and
    /// stream models use 0; everything else `u32::MAX`.
    pub fault_cap: u32,
    /// The properties evaluated at every observation, already filtered
    /// by the caller's [`PropSelect`](crate::PropSelect).
    pub properties: Vec<Property<N>>,
    /// Appends the canonical bytes of one node's state.
    pub encode_node: fn(&N, &mut Vec<u8>),
    /// Appends the canonical bytes of one in-flight payload snapshot.
    pub encode_payload: fn(&N::Payload, &mut Vec<u8>),
    /// The goal predicate (terminal success): a fold over every node's
    /// state, which it sees in the stepper's storage order.
    pub goal: fn(&[N]) -> bool,
    /// Per-node fingerprint folded into the counterexample trace line.
    pub fingerprint: fn(&N) -> u64,
}

/// One nondeterministic fault choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Crash the node at the current round (permanent).
    Crash(NodeId),
    /// Drop the link at the current round (permanent).
    DropLink(NodeId, NodeId),
}

/// One resolved transition: the fault injected (if any) plus the
/// recorded choice-tape values for the round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundAction {
    /// The fault action, if one was injected this round.
    pub fault: Option<FaultAction>,
    /// The choices taken, in the order the engine consumed them.
    pub choices: Vec<u32>,
}

/// Checker limits.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    /// Maximum number of fault actions over the whole path.
    pub fault_budget: u32,
    /// Safety valve: exploration stops enqueuing past this many
    /// distinct states ([`CheckOutcome::truncated`] is set).
    pub max_states: usize,
}

impl Default for CheckConfig {
    fn default() -> CheckConfig {
        CheckConfig {
            fault_budget: 0,
            max_states: 1 << 21,
        }
    }
}

/// A minimal violating run, ready to be replayed.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The violated property's name.
    pub property: &'static str,
    /// The violation message.
    pub message: String,
    /// The round of the violating observation.
    pub round: Round,
    /// The full action script from the initial state (shortest by BFS
    /// construction).
    pub actions: Vec<RoundAction>,
    /// Serialized case: the action script plus a final line in the
    /// golden-trace format (`rounds=… initiated=… … fingerprint=…`).
    pub case: String,
}

/// The result of one exhaustive run.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// The model's display name.
    pub model: String,
    /// Distinct reachable states (pre-delivery snapshots, including
    /// the root).
    pub explored: u64,
    /// Transitions executed (fault choice × choice script edges).
    pub transitions: u64,
    /// Transitions that ended in a terminal observation.
    pub terminals: u64,
    /// Whether the `max_states` valve tripped (counts are then lower
    /// bounds).
    pub truncated: bool,
    /// The first (minimal) violation, if any; exploration stops there.
    pub violation: Option<Counterexample>,
}

/// What [`replay`] reports after driving a recorded action script.
#[derive(Clone, Debug)]
pub struct Replay {
    /// The re-triggered violation, if the script ends in one.
    pub violation: Option<(&'static str, String)>,
    /// Rounds elapsed at the end of the script.
    pub rounds: Round,
    /// Engine counters at the end of the script.
    pub metrics: SimMetrics,
    /// Order-independent FNV fold of per-node fingerprints (the same
    /// fold the golden-trace suite pins).
    pub fingerprint: u64,
}

/// Result of running one transition on a cloned stepper.
struct StepEnd {
    terminal: Option<Terminal>,
    violation: Option<(usize, String)>,
    taken: Vec<u32>,
    arities: Vec<u32>,
}

/// Exhaustively explores `model` under `cfg`.
///
/// # Panics
///
/// Panics if the model's protocol drives the engine into a state the
/// engine itself rejects (e.g. initiating with a non-neighbor) — such
/// a panic is itself a finding.
pub fn check<N: Protocol + Clone>(model: &Model<N>, cfg: &CheckConfig) -> CheckOutcome {
    let g = &model.graph;
    let budget = cfg.fault_budget.min(model.fault_cap);
    let props = &model.properties;
    let sim = Simulator::new(g, sim_config(model));
    let root = sim.stepper(&*model.factory);

    let mut seen: BTreeSet<Vec<u8>> = BTreeSet::new();
    let mut arena: Vec<(usize, RoundAction)> = Vec::new();
    let mut queue: VecDeque<(Stepper<'_, N>, u32, usize)> = VecDeque::new();
    let mut out = CheckOutcome {
        model: model.name.clone(),
        explored: 0,
        transitions: 0,
        terminals: 0,
        truncated: false,
        violation: None,
    };
    seen.insert(encode_state(model, &root, 0));
    queue.push_back((root, 0, usize::MAX));

    while let Some((state, used, path)) = queue.pop_front() {
        for fault in fault_actions(g, &state, used, budget) {
            let used_after = used + u32::from(fault.is_some());
            let mut scripts: Vec<Vec<u32>> = vec![Vec::new()];
            while let Some(script) = scripts.pop() {
                out.transitions += 1;
                let mut child = state.clone();
                let end = step_once(model, &mut child, fault, &script, used_after);
                // Sibling scripts: one per untaken alternative at or
                // past the scripted prefix (positions before it are
                // already fixed by an ancestor script).
                for p in script.len()..end.arities.len() {
                    for c in 1..end.arities[p] {
                        let mut s = end.taken[..p].to_vec();
                        s.push(c);
                        scripts.push(s);
                    }
                }
                if let Some((pi, msg)) = end.violation {
                    let last = RoundAction {
                        fault,
                        choices: end.taken.clone(),
                    };
                    let actions = reconstruct(&arena, path, last);
                    out.violation = Some(build_counterexample(
                        model,
                        props[pi].name,
                        msg,
                        child.round(),
                        actions,
                    ));
                    out.explored = state_count(&seen);
                    return out;
                }
                if end.terminal.is_some() {
                    out.terminals += 1;
                    continue;
                }
                if seen.len() >= cfg.max_states {
                    out.truncated = true;
                    continue;
                }
                let key = encode_state(model, &child, used_after);
                if seen.insert(key) {
                    arena.push((
                        path,
                        RoundAction {
                            fault,
                            choices: end.taken.clone(),
                        },
                    ));
                    queue.push_back((child, used_after, arena.len() - 1));
                }
            }
        }
    }
    out.explored = state_count(&seen);
    out
}

/// Re-executes a recorded action script on a fresh stepper; the same
/// engine, the same deterministic transition function. A
/// counterexample's script must re-trigger its violation.
pub fn replay<N: Protocol + Clone>(model: &Model<N>, actions: &[RoundAction]) -> Replay {
    let sim = Simulator::new(&model.graph, sim_config(model));
    let mut st = sim.stepper(&*model.factory);
    let mut used = 0u32;
    let mut violation = None;
    for a in actions {
        used += u32::from(a.fault.is_some());
        let end = step_once(model, &mut st, a.fault, &a.choices, used);
        if let Some((pi, msg)) = end.violation {
            violation = Some((model.properties[pi].name, msg));
            break;
        }
        if end.terminal.is_some() {
            break;
        }
    }
    let fingerprint = fold_fingerprints(model, &st);
    Replay {
        violation,
        rounds: st.round(),
        metrics: st.metrics(),
        fingerprint,
    }
}

fn sim_config<N: Protocol>(model: &Model<N>) -> SimConfig {
    SimConfig {
        max_rounds: model.bound.saturating_add(1),
        ..SimConfig::default()
    }
}

/// Runs one transition in place: inject fault, script the tape,
/// deliver, observe, and (when the path continues) advance.
fn step_once<N: Protocol + Clone>(
    model: &Model<N>,
    st: &mut Stepper<'_, N>,
    fault: Option<FaultAction>,
    script: &[u32],
    faults_used: u32,
) -> StepEnd {
    match fault {
        Some(FaultAction::Crash(v)) => st.inject_crash(v),
        Some(FaultAction::DropLink(u, v)) => st.inject_link_drop(u, v),
        None => {}
    }
    st.set_choice_tape(ChoiceTape::new(script.to_vec()));
    let mut records = Vec::new();
    st.deliver_observed(&mut records);
    let terminal = if (model.goal)(st.nodes()) {
        Some(Terminal::Goal)
    } else if st.round() >= model.bound {
        Some(Terminal::Bound)
    } else {
        None
    };
    let mut violation = None;
    {
        let obs = Obs {
            graph: &model.graph,
            round: st.round(),
            stored: st.nodes(),
            deliveries: &records,
            metrics: st.metrics(),
            faults_used,
            terminal,
        };
        for (i, p) in model.properties.iter().enumerate() {
            if let Err(msg) = (p.check)(&obs) {
                violation = Some((i, msg));
                break;
            }
        }
    }
    if violation.is_none() && terminal.is_none() {
        st.advance();
    }
    let tape = st
        .take_choice_tape()
        .expect("tape installed at transition start");
    StepEnd {
        terminal,
        violation,
        taken: tape.taken().to_vec(),
        arities: tape.arities().to_vec(),
    }
}

/// The fault actions available from a state: `None`, plus (budget
/// permitting) crashing any live node or dropping any live link.
fn fault_actions<N: Protocol>(
    g: &Graph,
    st: &Stepper<'_, N>,
    used: u32,
    budget: u32,
) -> Vec<Option<FaultAction>> {
    let mut actions = vec![None];
    if used >= budget {
        return actions;
    }
    let round = st.round();
    for v in g.nodes() {
        if !st.faults().is_crashed(v, round) {
            actions.push(Some(FaultAction::Crash(v)));
        }
    }
    for (u, v, _) in g.edges() {
        if !st.faults().is_link_down(u, v, round) {
            actions.push(Some(FaultAction::DropLink(u, v)));
        }
    }
    actions
}

/// Canonical bytes of a pre-delivery state: round, faults used,
/// crashed/dropped bitmaps, per-node state, and the in-flight queue in
/// the engine's chronological order. RNG state is deliberately
/// excluded — every nondeterministic branch is resolved by the tape,
/// so the RNG never influences a checked run.
fn encode_state<N: Protocol>(model: &Model<N>, st: &Stepper<'_, N>, used: u32) -> Vec<u8> {
    let g = &model.graph;
    let round = st.round();
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&round.to_le_bytes());
    out.push(u8::try_from(used).expect("fault budget fits u8"));
    for v in g.nodes() {
        out.push(u8::from(st.faults().is_crashed(v, round)));
    }
    for (u, v, _) in g.edges() {
        out.push(u8::from(st.faults().is_link_down(u, v, round)));
    }
    for v in g.nodes() {
        (model.encode_node)(st.node(v), &mut out);
    }
    for x in st.in_flight() {
        out.extend_from_slice(&x.initiated_at.to_le_bytes());
        out.extend_from_slice(&x.completes_at.to_le_bytes());
        push_node_id(&mut out, x.a);
        push_node_id(&mut out, x.b);
        (model.encode_payload)(x.payload_a, &mut out);
        (model.encode_payload)(x.payload_b, &mut out);
    }
    out
}

fn push_node_id(out: &mut Vec<u8>, v: NodeId) {
    let idx = u32::try_from(v.index()).expect("node id fits u32");
    out.extend_from_slice(&idx.to_le_bytes());
}

fn state_count(seen: &BTreeSet<Vec<u8>>) -> u64 {
    u64::try_from(seen.len()).expect("state count fits u64")
}

/// Walks the parent arena back to the root and appends the final
/// (violating) action.
fn reconstruct(
    arena: &[(usize, RoundAction)],
    mut idx: usize,
    last: RoundAction,
) -> Vec<RoundAction> {
    let mut actions = vec![last];
    while idx != usize::MAX {
        let (parent, action) = &arena[idx];
        actions.push(action.clone());
        idx = *parent;
    }
    actions.reverse();
    actions
}

/// FNV fold of per-node fingerprints in id order — the same fold the
/// golden-trace suite pins for rumor sets.
fn fold_fingerprints<N: Protocol>(model: &Model<N>, st: &Stepper<'_, N>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in model.graph.nodes() {
        h ^= (model.fingerprint)(st.node(v));
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn fmt_fault(fault: Option<FaultAction>) -> String {
    match fault {
        None => "none".to_string(),
        Some(FaultAction::Crash(v)) => format!("crash({v})"),
        Some(FaultAction::DropLink(u, v)) => format!("drop({u}-{v})"),
    }
}

fn build_counterexample<N: Protocol + Clone>(
    model: &Model<N>,
    property: &'static str,
    message: String,
    round: Round,
    actions: Vec<RoundAction>,
) -> Counterexample {
    let rep = replay(model, &actions);
    let mut case = format!(
        "# mc counterexample: model={} prop={property}\n",
        model.name
    );
    for (i, a) in actions.iter().enumerate() {
        case.push_str(&format!(
            "step {i}: fault={} choices={:?}\n",
            fmt_fault(a.fault),
            a.choices
        ));
    }
    case.push_str(&format!("violation at round {round}: {message}\n"));
    // The final line is the golden-trace case format, byte for byte.
    case.push_str(&format!(
        "rounds={} initiated={} delivered={} lost={} rejected={} payload_units={} fingerprint={:016x}\n",
        rep.rounds,
        rep.metrics.initiated,
        rep.metrics.delivered,
        rep.metrics.lost,
        rep.metrics.rejected,
        rep.metrics.payload_units,
        rep.fingerprint
    ));
    Counterexample {
        property,
        message,
        round,
        actions,
        case,
    }
}

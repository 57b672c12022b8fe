//! The mutation suite: deliberately broken protocol variants the
//! checker must reject.
//!
//! A model checker that has never failed proves nothing — maybe the
//! properties are tautologies, maybe the state space is empty. Each
//! mutant here is a *shipped* node with one edit: a [`Mutant`] wrapper
//! that swaps its `on_round` or `on_exchange`, or a constructor
//! argument changed. Its model comes from the same constructor code as
//! the shipped model's (same graph, bound, fault cap and properties —
//! only the node factory changes), and [`run_all`] asserts the checker
//! finds the bug, names the right property, and produces a
//! counterexample whose replay re-triggers the violation.
//!
//! | mutant | edit | caught by |
//! |--------|------|-----------|
//! | `early-stop`      | `CheckNode` sees every incoming fingerprint as its own | `lemma18-no-early-stop` |
//! | `deaf`            | `CheckNode` sees every incoming `flag` and `failed` cleared | `same-round-termination` |
//! | `eager-rumor`     | `FloodingNode` starts with a distance-2 rumor | `latency-respected` |
//! | `fat-orientation` | `CheckNode` handed every graph neighbor as its out-list | `spanner-out-degree` |
//! | `stall`           | `Counted<FloodingNode>` with `on_round` skipped | `termination` |
//! | `double-apply`    | `Counted<FloodingNode>` with `on_exchange` applied twice | `at-most-once-delivery` |
//! | `phantom-rumor`   | a stream node holding a rumor injected elsewhere it never received | `no-phantom-rumor` |
//!
//! `phantom-rumor` alone is a hand-written node: the shipped
//! `RrStreamNode` records rumors only in `on_round`, so it cannot hold
//! one at the first observation, where this mutant is caught.

use gossip_core::flooding::FloodingNode;
use gossip_core::termination::{CheckNode, CheckPayload};
use gossip_sim::{CompletionLog, Context, Exchange, Protocol, RumorSet, StreamPayload, StreamSpec};
use latency_graph::{Graph, NodeId};

use crate::checker::{check, replay, CheckConfig, CheckOutcome, Model};
use crate::models::{
    custom_spanner_model, lemma18_models_of, rr_flood, rr_flood_of, rr_stream_of, CheckFactory,
    Counted, Decider, RumorNode, StreamObserver,
};
use crate::{instance, Family, PropSelect};

/// A shipped node with one edit: `on_round` and `on_exchange` run
/// through these functions of the node instead of its own methods.
/// Everything else — payload, state, observers — is the node's.
#[derive(Clone)]
pub struct Mutant<P: Protocol> {
    inner: P,
    on_round: fn(&mut P, &mut Context<'_>),
    on_exchange: fn(&mut P, &mut Context<'_>, &Exchange<P::Payload>),
}

impl<P: Protocol> Mutant<P> {
    /// `inner` with `on_round` replaced by `edit`.
    pub fn round(inner: P, edit: fn(&mut P, &mut Context<'_>)) -> Mutant<P> {
        Mutant {
            inner,
            on_round: edit,
            on_exchange: P::on_exchange,
        }
    }

    /// `inner` with `on_exchange` replaced by `edit`.
    pub fn exchange(
        inner: P,
        edit: fn(&mut P, &mut Context<'_>, &Exchange<P::Payload>),
    ) -> Mutant<P> {
        Mutant {
            inner,
            on_round: P::on_round,
            on_exchange: edit,
        }
    }
}

impl<P: Protocol> Protocol for Mutant<P> {
    const SCHEDULING: gossip_sim::Scheduling = P::SCHEDULING;
    type Payload = P::Payload;

    fn payload(&self) -> P::Payload {
        self.inner.payload()
    }

    fn payload_weight(payload: &P::Payload) -> u64 {
        P::payload_weight(payload)
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_>) {
        (self.on_round)(&mut self.inner, ctx);
    }

    fn on_exchange(&mut self, ctx: &mut Context<'_>, exchange: &Exchange<P::Payload>) {
        (self.on_exchange)(&mut self.inner, ctx, exchange);
    }

    fn on_rejected(&mut self, ctx: &mut Context<'_>, peer: NodeId) {
        self.inner.on_rejected(ctx, peer);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

impl<P: Protocol + Decider> Decider for Mutant<P> {
    fn decides(&self) -> bool {
        self.inner.decides()
    }
}

impl<P: Protocol + RumorNode> RumorNode for Mutant<P> {
    fn rumor_set(&self) -> &RumorSet {
        self.inner.rumor_set()
    }

    fn applied(&self) -> u64 {
        self.inner.applied()
    }
}

/// The verdict on one mutant.
#[derive(Clone, Debug)]
pub struct MutantRun {
    /// The mutant's name.
    pub name: &'static str,
    /// The property expected (and required) to catch it.
    pub property: &'static str,
    /// The checker outcome (must contain a violation).
    pub outcome: CheckOutcome,
    /// Whether replaying the counterexample's action script from
    /// scratch re-triggered the same property violation.
    pub replay_confirmed: bool,
}

impl MutantRun {
    /// A mutant is killed when the checker found a violation of the
    /// expected property and its counterexample replays.
    pub fn killed(&self) -> bool {
        self.replay_confirmed
            && self
                .outcome
                .violation
                .as_ref()
                .is_some_and(|cx| cx.property == self.property)
    }
}

fn graph(family: Family, n: usize) -> Graph {
    instance(family, n)
        .expect("mutant instances are valid")
        .graph
}

/// Checks `model`, renamed `<model>[<name>]`, and replays the
/// counterexample it finds.
fn run<N: Protocol + Clone>(
    mut model: Model<N>,
    name: &'static str,
    property: &'static str,
) -> MutantRun {
    model.name = format!("{}[{name}]", model.name);
    let outcome = check(&model, &CheckConfig::default());
    let replay_confirmed = outcome.violation.as_ref().is_some_and(|cx| {
        replay(&model, &cx.actions)
            .violation
            .is_some_and(|(p, _)| p == cx.property)
    });
    MutantRun {
        name,
        property,
        outcome,
        replay_confirmed,
    }
}

/// Runs the Lemma 18 models over `node` on cycle 4 until one of them
/// catches it.
fn lemma18_mutant<N>(name: &'static str, property: &'static str, node: CheckFactory<N>) -> MutantRun
where
    N: Protocol<Payload = CheckPayload> + Clone + Decider + 'static,
{
    let g = graph(Family::Cycle, 4);
    let select = PropSelect::One(property.to_string());
    let mut last = None;
    for model in lemma18_models_of(&g, &select, node) {
        let run = run(model, name, property);
        if run.outcome.violation.is_some() {
            return run;
        }
        last = Some(run);
    }
    last.expect("lemma18_models is never empty")
}

/// The early-stop mutant: a [`CheckNode`] that ignores fingerprint
/// mismatches, so only an explicit peer flag or failure report trips
/// it and it terminates while a rumor is still missing somewhere
/// off-neighborhood. Must be caught by `lemma18-no-early-stop` on some
/// cycle-4 rumor configuration.
pub fn early_stop() -> MutantRun {
    lemma18_mutant("early-stop", "lemma18-no-early-stop", |r, f, o| {
        Mutant::exchange(CheckNode::new(r, f, o), |node, ctx, x| {
            let mut x = x.clone();
            x.payload.fingerprint = node.payload().fingerprint;
            node.on_exchange(ctx, &x);
        })
    })
}

/// The deaf mutant: a [`CheckNode`] that detects local fingerprint
/// mismatches but is deaf to *propagated* evidence (peer flag / failed
/// bits), so nodes whose own neighborhood looks consistent decide
/// terminate while others refuse. Must be caught by
/// `same-round-termination` on some cycle-4 rumor configuration.
pub fn deaf() -> MutantRun {
    lemma18_mutant("deaf", "same-round-termination", |r, f, o| {
        Mutant::exchange(CheckNode::new(r, f, o), |node, ctx, x| {
            let mut x = x.clone();
            x.payload.flag = false;
            x.payload.failed = false;
            node.on_exchange(ctx, &x);
        })
    })
}

/// The eager-rumor mutant: node `v` conjures the rumor of the node two
/// hops away at construction, beating the weighted distance. Caught by
/// `latency-respected` at round 0.
pub fn eager_rumor() -> MutantRun {
    let g = graph(Family::Cycle, 4);
    let select = PropSelect::One("latency-respected".to_string());
    let mut model = rr_flood(&g, select);
    model.factory = Box::new(|id, n| {
        let mut inner = FloodingNode::new(id, n);
        inner.rumors.insert(NodeId::new((id.index() + 2) % n));
        Counted::new(inner)
    });
    run(model, "eager-rumor", "latency-respected")
}

/// The stall mutant: never initiates an exchange, so the fault-free
/// path hits the round bound with rumors undelivered. Must be caught
/// by `termination` on the deterministic flood model.
pub fn stall() -> MutantRun {
    let g = graph(Family::Cycle, 4);
    let select = PropSelect::One("termination".to_string());
    let model = rr_flood_of(&g, &select, |id, n| {
        Mutant::round(Counted::new(FloodingNode::new(id, n)), |_, _| {})
    });
    run(model, "stall", "termination")
}

/// The double-apply mutant: applies (and counts) every delivered
/// exchange twice, breaking `Σ applied = 2 · delivered` at the very
/// first delivery. Must be caught by `at-most-once-delivery`.
pub fn double_apply() -> MutantRun {
    let g = graph(Family::Cycle, 3);
    let select = PropSelect::One("at-most-once-delivery".to_string());
    let model = rr_flood_of(&g, &select, |id, n| {
        Mutant::exchange(Counted::new(FloodingNode::new(id, n)), |node, ctx, x| {
            node.on_exchange(ctx, x);
            node.on_exchange(ctx, x);
        })
    });
    run(model, "double-apply", "at-most-once-delivery")
}

/// The fat-orientation mutant: a [`CheckNode`] that round-robins over
/// *all* its graph neighbors instead of its assigned out-arcs, checked
/// against a hand-built star-4 orientation (`1→0, 2→0, 3→0, 0→1`)
/// where the hub's second initiation (`0→2`) is off-orientation.
pub fn fat_orientation() -> MutantRun {
    let g = graph(Family::Star, 4);
    let select = PropSelect::One("spanner-out-degree".to_string());
    let mut model = custom_spanner_model(&g, &[(1, 0), (2, 0), (3, 0), (0, 1)], 4, &select);
    model.factory = Box::new(move |id, n| {
        CheckNode::new(&RumorSet::full(n), false, g.neighbor_ids(id).to_vec())
    });
    run(model, "fat-orientation", "spanner-out-degree")
}

/// Holds a rumor it can't causally explain: the constructor records a
/// rumor that is injected at *another* node, with no received payload
/// to support it — the held set escapes the causal set at the very
/// first observation.
#[derive(Clone, Debug)]
pub struct PhantomStreamNode {
    log: CompletionLog,
    causal: Vec<u64>,
    k: usize,
}

impl PhantomStreamNode {
    fn new(id: NodeId, spec: &StreamSpec) -> PhantomStreamNode {
        let mut log = CompletionLog::new(spec.k);
        // Claim the first rumor that originates elsewhere (spread
        // schedules guarantee one exists for n >= 2).
        if let Some(rumor) = (0..spec.k).find(|&r| spec.origin(r).node != id) {
            let _ = log.record(rumor, 0);
        }
        PhantomStreamNode {
            log,
            causal: vec![0u64; spec.k.div_ceil(64)],
            k: spec.k,
        }
    }
}

impl Protocol for PhantomStreamNode {
    type Payload = StreamPayload;

    fn payload(&self) -> StreamPayload {
        StreamPayload::empty_ids()
    }

    fn on_round(&mut self, _ctx: &mut Context<'_>) {}

    fn on_exchange(&mut self, _ctx: &mut Context<'_>, x: &Exchange<StreamPayload>) {
        for (w, s) in self.causal.iter_mut().zip(x.payload.support_words(self.k)) {
            *w |= s;
        }
    }
}

impl StreamObserver for PhantomStreamNode {
    fn heard_words(&self) -> Vec<u64> {
        self.log.heard_words()
    }

    fn causal_words(&self) -> &[u64] {
        &self.causal
    }

    fn all_heard(&self) -> bool {
        self.log.heard_all()
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        for w in self.log.heard_words() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        for w in &self.causal {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
}

/// The phantom-rumor mutant: must be caught by `no-phantom-rumor` on
/// the streaming model.
pub fn phantom_rumor() -> MutantRun {
    let g = graph(Family::Cycle, 4);
    let select = PropSelect::One("no-phantom-rumor".to_string());
    let model = rr_stream_of(&g, &select, PhantomStreamNode::new);
    run(model, "phantom-rumor", "no-phantom-rumor")
}

/// Runs the whole suite. Every entry must report
/// [`killed`](MutantRun::killed); CI fails otherwise.
pub fn run_all() -> Vec<MutantRun> {
    vec![
        early_stop(),
        deaf(),
        eager_rumor(),
        fat_orientation(),
        stall(),
        double_apply(),
        phantom_rumor(),
    ]
}

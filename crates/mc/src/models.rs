//! The checked models: shipped protocol nodes wrapped into the one
//! [`Model`] type.
//!
//! Five model families cover the crate's property matrix:
//!
//! * [`nd_broadcast`] — push-pull broadcast with **adversarial** peer
//!   selection: every [`Context::choose`] branch is explored. Safety
//!   only (`latency-respected`, `at-most-once-delivery`); the choice
//!   adversary can legitimately starve progress (e.g. on `cycle4` it
//!   can pair 0↔1 and 2↔3 forever), so liveness is not claimed.
//! * [`rr_flood`] — deterministic round-robin flooding. No choice
//!   branches, so the nondeterminism is purely the fault schedule;
//!   this is the model that also carries `termination` (fault-free
//!   paths must reach all-full before the reference bound).
//! * [`lemma18_models`] — the Lemma 18 distributed termination check
//!   ([`CheckNode`]) over every interesting rumor configuration:
//!   fresh singletons, full dissemination, and full-except-one for
//!   every (holder, rumor) pair. Each configuration is a separate
//!   deterministic model compared against the centralized oracle.
//! * [`spanner_model`] — [`CheckNode`] traffic constrained to the
//!   Baswana–Sen spanner orientation, checking `spanner-out-degree`.
//! * [`rr_stream_model`] — the shipped round-robin streaming node
//!   ([`RrStreamNode`]) under adversarial peer selection, wrapped in
//!   a causal-knowledge [`StreamWitness`] and checked against
//!   `no-phantom-rumor`. Safety only, like `nd-broadcast`: the choice
//!   adversary can starve rumor completion.
//!
//! Each constructor owns its family's property list and keeps the
//! properties the [`PropSelect`] wants, so a model with an empty
//! list is one the selection does not touch. The flood, Lemma 18 and
//! stream constructors are thin calls into builders that take the node
//! factory as a parameter; the mutation suite ([`crate::mutants`])
//! calls the same builders with a broken node, so graph, bound, fault
//! cap and properties stay identical — the suite checks the
//! *protocol*, never a differently-configured harness.
//!
//! [`Context::choose`]: gossip_sim::Context::choose

use std::collections::BTreeSet;

use gossip_core::flooding::FloodingNode;
use gossip_core::push_pull::{Mode, PushPullNode};
use gossip_core::stream::RrStreamNode;
use gossip_core::termination::{self, CheckNode, CheckPayload};
use gossip_core::{eid, rr_broadcast};
use gossip_sim::{
    Context, Exchange, Protocol, Round, RumorSet, Scheduling, StreamPayload, StreamSpec,
};
use latency_graph::{metrics, DiGraph, Graph, NodeId};

use crate::checker::{Model, Property};
use crate::props;
use crate::PropSelect;

/// Read access to a node's rumor state, for rumor-carrying protocols.
pub trait RumorHolder {
    /// The node's current rumor set.
    fn rumors(&self) -> &RumorSet;
}

impl RumorHolder for PushPullNode {
    fn rumors(&self) -> &RumorSet {
        &self.rumors
    }
}

impl RumorHolder for FloodingNode {
    fn rumors(&self) -> &RumorSet {
        &self.rumors
    }
}

/// What the broadcast properties observe: rumors plus an
/// exchange-application counter.
pub trait RumorNode {
    /// The node's current rumor set.
    fn rumor_set(&self) -> &RumorSet;
    /// How many times `on_exchange` has applied a payload to this node.
    fn applied(&self) -> u64;
}

/// What the termination properties observe.
pub trait Decider {
    /// Whether the node has decided *terminate*.
    fn decides(&self) -> bool;
}

impl Decider for CheckNode {
    fn decides(&self) -> bool {
        self.decides_terminate()
    }
}

/// A transparent [`Protocol`] wrapper that counts `on_exchange`
/// applications, backing the `at-most-once-delivery` invariant
/// `Σ applied = 2 · delivered` without touching the shipped nodes.
#[derive(Clone, Debug)]
pub struct Counted<P> {
    /// The wrapped protocol node.
    pub inner: P,
    /// Number of `on_exchange` applications so far.
    pub applied: u64,
}

impl<P> Counted<P> {
    /// Wraps a node with a zeroed counter.
    pub fn new(inner: P) -> Counted<P> {
        Counted { inner, applied: 0 }
    }
}

impl<P: Protocol> Protocol for Counted<P> {
    const SCHEDULING: Scheduling = P::SCHEDULING;
    type Payload = P::Payload;

    fn payload(&self) -> Self::Payload {
        self.inner.payload()
    }

    fn payload_weight(payload: &Self::Payload) -> u64 {
        P::payload_weight(payload)
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_round(ctx);
    }

    fn on_exchange(&mut self, ctx: &mut Context<'_>, exchange: &Exchange<Self::Payload>) {
        self.applied += 1;
        self.inner.on_exchange(ctx, exchange);
    }

    fn on_rejected(&mut self, ctx: &mut Context<'_>, peer: NodeId) {
        self.inner.on_rejected(ctx, peer);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

impl<P: RumorHolder> RumorNode for Counted<P> {
    fn rumor_set(&self) -> &RumorSet {
        self.inner.rumors()
    }

    fn applied(&self) -> u64 {
        self.applied
    }
}

/// Keeps the properties `select` wants, in order.
fn selected<N: Protocol>(select: &PropSelect, props: Vec<Property<N>>) -> Vec<Property<N>> {
    props.into_iter().filter(|p| select.wants(p.name)).collect()
}

/// FNV-1a over the canonical bytes `encode` writes for `node`: the
/// trace-line fingerprint of nodes that carry no rumor set.
fn fnv<N>(node: &N, encode: fn(&N, &mut Vec<u8>)) -> u64 {
    let mut bytes = Vec::new();
    encode(node, &mut bytes);
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn encode_rumors(rumors: &RumorSet, out: &mut Vec<u8>) {
    for w in rumors.as_words() {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// A rumor-broadcast model: nodes start with their own rumor, the goal
/// is every rumor everywhere.
fn broadcast_model<N>(
    name: &str,
    g: &Graph,
    node: impl Fn(NodeId, usize) -> N + 'static,
    bound: Round,
    properties: Vec<Property<N>>,
) -> Model<N>
where
    N: Protocol<Payload = RumorSet> + Clone + RumorNode,
{
    Model {
        name: name.to_string(),
        graph: g.clone(),
        factory: Box::new(node),
        bound,
        fault_cap: u32::MAX,
        properties,
        // The rumor set is the node's entire forward-relevant state:
        // round-robin cursors track the (encoded) round, and the
        // applied counter is observational.
        encode_node: |node, out| encode_rumors(node.rumor_set(), out),
        encode_payload: encode_rumors,
        goal: |nodes| nodes.iter().all(|x| x.rumor_set().is_full()),
        // Match the golden-trace fingerprint semantics for rumor
        // protocols so counterexample trace lines are comparable.
        fingerprint: |node| node.rumor_set().fingerprint(),
    }
}

/// Push-pull broadcast under an adversarial peer-selection schedule.
/// Safety-only: see the module docs for why liveness is not claimed.
pub fn nd_broadcast(g: &Graph, select: PropSelect) -> Model<Counted<PushPullNode>> {
    let props = vec![props::latency_respected(g), props::at_most_once_delivery()];
    broadcast_model(
        "nd-broadcast",
        g,
        |id, n| Counted::new(PushPullNode::new(id, n, Mode::PushPull)),
        // Any live schedule floods within 2·D_w rounds; +1 gives the
        // final deliveries a round to be observed.
        2 * metrics::weighted_diameter(g).max(1) + 1,
        selected(&select, props),
    )
}

/// Deterministic round-robin flooding; the only nondeterminism is the
/// fault schedule, so the `termination` property is sound: the bound
/// is the measured fault-free reference round count.
pub fn rr_flood(g: &Graph, select: PropSelect) -> Model<Counted<FloodingNode>> {
    rr_flood_of(g, &select, |id, n| Counted::new(FloodingNode::new(id, n)))
}

/// [`rr_flood`] over any node factory.
pub(crate) fn rr_flood_of<N>(
    g: &Graph,
    select: &PropSelect,
    node: impl Fn(NodeId, usize) -> N + 'static,
) -> Model<N>
where
    N: Protocol<Payload = RumorSet> + Clone + RumorNode,
{
    let props = vec![
        props::latency_respected(g),
        props::at_most_once_delivery(),
        props::termination(),
    ];
    let bound = props::reference_flood_rounds(g);
    broadcast_model("rr-flood", g, node, bound, selected(select, props))
}

/// How a check model builds a node from its rumor set, flag bit and
/// out-list ([`CheckNode::new`]'s signature).
pub(crate) type CheckFactory<N> = fn(&RumorSet, bool, Vec<NodeId>) -> N;

fn encode_check_payload(payload: &CheckPayload, out: &mut Vec<u8>) {
    out.extend_from_slice(&payload.fingerprint.to_le_bytes());
    out.push(u8::from(payload.flag));
    out.push(u8::from(payload.failed));
}

/// The payload snapshot (fingerprint, flag, failed) is exactly a check
/// node's forward-relevant state: out-lists are static and the
/// round-robin cursor tracks the round.
fn encode_check_node<N: Protocol<Payload = CheckPayload>>(node: &N, out: &mut Vec<u8>) {
    encode_check_payload(&node.payload(), out);
}

/// A termination-check model: node `v` is `node(init[v])`, explored to
/// the horizon and judged there.
fn check_model<N>(
    name: String,
    g: &Graph,
    init: Vec<(RumorSet, bool, Vec<NodeId>)>,
    node: CheckFactory<N>,
    bound: Round,
    fault_cap: u32,
    properties: Vec<Property<N>>,
) -> Model<N>
where
    N: Protocol<Payload = CheckPayload> + Clone + 'static,
{
    Model {
        name,
        graph: g.clone(),
        factory: Box::new(move |id, _| {
            let (rumors, flag, out) = &init[id.index()];
            node(rumors, *flag, out.clone())
        }),
        bound,
        fault_cap,
        properties,
        encode_node: encode_check_node,
        encode_payload: encode_check_payload,
        // The check protocol has no success state mid-run.
        goal: |_| false,
        fingerprint: |node| fnv(node, encode_check_node),
    }
}

/// Every Lemma 18 model for `g`: the fresh-start configuration (all
/// singletons), the fully-disseminated one, and — the load-bearing
/// family — full-except-one for every (holder, rumor) pair, where the
/// centralized oracle and a sound distributed check must both refuse
/// to terminate.
pub fn lemma18_models(g: &Graph, select: &PropSelect) -> Vec<Model<CheckNode>> {
    lemma18_models_of(g, select, CheckNode::new)
}

/// [`lemma18_models`] over any node factory.
pub(crate) fn lemma18_models_of<N>(
    g: &Graph,
    select: &PropSelect,
    node: CheckFactory<N>,
) -> Vec<Model<N>>
where
    N: Protocol<Payload = CheckPayload> + Clone + Decider + 'static,
{
    let n = g.node_count();
    // Horizon: twice the round-robin broadcast budget over the full
    // bidirectional orientation — enough for any failure evidence to
    // echo back across the instance.
    let arcs: Vec<(usize, usize, u32)> = g
        .edges()
        .flat_map(|(u, v, l)| {
            [
                (u.index(), v.index(), l.get()),
                (v.index(), u.index(), l.get()),
            ]
        })
        .collect();
    let orientation = DiGraph::from_arcs(n, arcs);
    let k = g
        .max_latency()
        .map_or(1, latency_graph::Latency::rounds)
        .max(1);
    let bound = 2 * rr_broadcast::budget(&orientation, k);

    let model = |name: String, rumors: Vec<RumorSet>| {
        let flags = termination::flags(g, &rumors);
        let init = g
            .nodes()
            .map(|v| {
                let i = v.index();
                (rumors[i].clone(), flags[i], g.neighbor_ids(v).to_vec())
            })
            .collect();
        let props = vec![
            props::lemma18_no_early_stop(g, rumors),
            props::same_round_termination(),
        ];
        // Lemma 18 quantifies over fault-free executions of the check
        // protocol; under faults the oracle comparison is vacuous, so
        // the budget is pinned to zero.
        check_model(name, g, init, node, bound, 0, selected(select, props))
    };
    let mut models = vec![
        model(
            "lemma18[fresh]".to_string(),
            g.nodes().map(|v| RumorSet::singleton(n, v)).collect(),
        ),
        model("lemma18[full]".to_string(), vec![RumorSet::full(n); n]),
    ];
    for u in g.nodes() {
        for x in g.nodes().filter(|&x| x != u) {
            let mut rumors = vec![RumorSet::full(n); n];
            let mut missing = RumorSet::new(n);
            for w in g.nodes().filter(|&w| w != x) {
                missing.insert(w);
            }
            rumors[u.index()] = missing;
            models.push(model(format!("lemma18[full-except-{u}:{x}]"), rumors));
        }
    }
    models
}

/// An orientation model: every rumor set full, no flag raised, node `v`
/// round-robins over `out[v]`, and `spanner-out-degree` holds traffic
/// to exactly those arcs and their out-degree to `cap`.
fn orientation_model(
    name: &str,
    g: &Graph,
    out: Vec<Vec<NodeId>>,
    cap: usize,
    select: &PropSelect,
) -> Model<CheckNode> {
    let n = g.node_count();
    let arcs: BTreeSet<(NodeId, NodeId)> = out
        .iter()
        .zip(g.nodes())
        .flat_map(|(vs, u)| vs.iter().map(move |&v| (u, v)))
        .collect();
    let max_out = out.iter().map(Vec::len).max().unwrap_or(0);
    let init = out
        .into_iter()
        .map(|vs| (RumorSet::full(n), false, vs))
        .collect();
    let props = vec![props::spanner_out_degree(arcs, cap, max_out)];
    check_model(
        name.to_string(),
        g,
        init,
        CheckNode::new,
        metrics::weighted_diameter(g).max(1) + 3,
        u32::MAX,
        selected(select, props),
    )
}

/// A spanner-style model over an explicit, hand-built orientation:
/// every node round-robins over its listed out-arcs, and the
/// `spanner-out-degree` property holds traffic to exactly `arcs`.
/// Used by the mutation suite, where a *predictable* orientation is
/// needed to show a node straying off it.
pub fn custom_spanner_model(
    g: &Graph,
    arcs: &[(usize, usize)],
    cap: usize,
    select: &PropSelect,
) -> Model<CheckNode> {
    let mut out = vec![Vec::new(); g.node_count()];
    for &(u, v) in arcs {
        out[u].push(NodeId::new(v));
    }
    orientation_model("spanner-custom", g, out, cap, select)
}

/// The spanner-orientation model: check traffic must stay on the
/// Baswana–Sen orientation and within its out-degree cap.
pub fn spanner_model(g: &Graph, select: &PropSelect) -> Model<CheckNode> {
    let n = g.node_count();
    let k = eid::default_spanner_k(n);
    let result = baswana_sen::build_spanner(
        g,
        &baswana_sen::SpannerConfig {
            k,
            ..baswana_sen::SpannerConfig::default()
        },
    );
    // The Baswana–Sen out-degree bound: k · ⌈n^(1/k)⌉ + k.
    let root = (n as f64).powf(1.0 / k as f64).ceil() as usize;
    let cap = k * root + k;
    let out = g
        .nodes()
        .map(|v| {
            result
                .spanner
                .out_neighbors(v)
                .iter()
                .map(|&(w, _)| w)
                .collect()
        })
        .collect();
    orientation_model("spanner", g, out, cap, select)
}

// ---------------------------------------------------------------------
// Multi-rumor streaming model
// ---------------------------------------------------------------------

/// Canonical bytes of a [`StreamPayload`] snapshot (shared by node and
/// in-flight encodings).
fn encode_stream_payload(payload: &StreamPayload, out: &mut Vec<u8>) {
    match payload {
        StreamPayload::Ids(ids) => {
            out.push(0);
            for id in ids.iter() {
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        StreamPayload::Rows(batch) => {
            out.push(1);
            let k = u32::try_from(batch.k()).expect("universe size fits u32");
            out.extend_from_slice(&k.to_le_bytes());
            for w in batch.words() {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
    }
}

/// What the `no-phantom-rumor` property observes: the rumors a node
/// *holds* versus the rumors it can *causally explain* (its own
/// injections plus the support of every payload it received).
pub trait StreamObserver {
    /// Bit-packed held set (`⌈k/64⌉` words).
    fn heard_words(&self) -> Vec<u64>;
    /// Bit-packed causal set (`⌈k/64⌉` words).
    fn causal_words(&self) -> &[u64];
    /// Whether every rumor is held.
    fn all_heard(&self) -> bool;
    /// Appends the canonical forward-relevant state bytes.
    fn encode_state(&self, out: &mut Vec<u8>);
}

/// A transparent [`Protocol`] wrapper that shadows a streaming node
/// with its **causal knowledge set**: the rumors injected at this node
/// so far, unioned with the support of every payload applied to it.
/// The `no-phantom-rumor` property demands `held ⊆ causal` at every
/// observation — a policy that conjures, mislabels, or leaks rumor
/// identities breaks it immediately. The wrapper never touches the
/// inner node's behavior, mirroring [`Counted`].
#[derive(Clone, Debug)]
pub struct StreamWitness<P> {
    /// The wrapped policy node.
    pub inner: P,
    /// Bit-packed causal set.
    causal: Vec<u64>,
    /// This node's injection schedule, `(rumor, round)`.
    own: Vec<(usize, Round)>,
    k: usize,
}

impl<P> StreamWitness<P> {
    /// Wraps `inner`, which hosts `id`'s share of `spec`'s injections.
    pub fn new(inner: P, id: NodeId, spec: &StreamSpec) -> StreamWitness<P> {
        StreamWitness {
            inner,
            causal: vec![0u64; spec.k.div_ceil(64)],
            own: spec.injections_at(id),
            k: spec.k,
        }
    }
}

impl<P: Protocol<Payload = StreamPayload>> Protocol for StreamWitness<P> {
    const SCHEDULING: Scheduling = P::SCHEDULING;
    type Payload = StreamPayload;

    fn payload(&self) -> StreamPayload {
        self.inner.payload()
    }

    fn payload_weight(payload: &StreamPayload) -> u64 {
        P::payload_weight(payload)
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_round(&mut self, ctx: &mut Context<'_>) {
        for &(rumor, due) in &self.own {
            if due <= ctx.round() {
                self.causal[rumor / 64] |= 1u64 << (rumor % 64);
            }
        }
        self.inner.on_round(ctx);
    }

    fn on_exchange(&mut self, ctx: &mut Context<'_>, exchange: &Exchange<StreamPayload>) {
        for (w, s) in self
            .causal
            .iter_mut()
            .zip(exchange.payload.support_words(self.k))
        {
            *w |= s;
        }
        self.inner.on_exchange(ctx, exchange);
    }

    fn on_rejected(&mut self, ctx: &mut Context<'_>, peer: NodeId) {
        self.inner.on_rejected(ctx, peer);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

impl StreamObserver for StreamWitness<RrStreamNode> {
    fn heard_words(&self) -> Vec<u64> {
        self.inner.log().heard_words()
    }

    fn causal_words(&self) -> &[u64] {
        &self.causal
    }

    fn all_heard(&self) -> bool {
        self.inner.heard_all()
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        self.inner.encode_state(out);
        // The causal set is observational for the *shipped* node but
        // part of the property's verdict, so it stays in the encoding:
        // merging states with different causal sets could hide a
        // deeper violation behind an innocent twin.
        for w in &self.causal {
            out.extend_from_slice(&w.to_le_bytes());
        }
        encode_stream_payload(&self.inner.payload(), out);
    }
}

/// The shipped round-robin streaming policy under adversarial peer
/// selection: two rumors, per-direction budget 1 — the smallest
/// universe where an exchange must *choose* what to carry, which is
/// exactly the code path a phantom could slip through. The universe is
/// deliberately minimal: per-peer knowledge masks multiply the state
/// space by `2^(k·Σdeg)`, so k = 2 is what keeps the n = 4 instances
/// exhaustively checkable. Safety only — the choice adversary can
/// starve completion, so the model carries `no-phantom-rumor` and no
/// liveness claim.
pub fn rr_stream_model(g: &Graph, select: PropSelect) -> Model<StreamWitness<RrStreamNode>> {
    rr_stream_of(g, &select, |id, spec| {
        StreamWitness::new(RrStreamNode::new(id, spec), id, spec)
    })
}

/// [`rr_stream_model`] over any node factory.
pub(crate) fn rr_stream_of<N>(
    g: &Graph,
    select: &PropSelect,
    node: fn(NodeId, &StreamSpec) -> N,
) -> Model<N>
where
    N: Protocol<Payload = StreamPayload> + Clone + StreamObserver + 'static,
{
    let n = g.node_count();
    let spec = StreamSpec::spread(2, 1, n);
    // Horizon: every injection is in flight by `last_injection_round`;
    // 2·D_w + 1 more rounds give any live schedule room to finish (and
    // bound the adversarial ones).
    let bound = spec.last_injection_round() + 2 * metrics::weighted_diameter(g).max(1) + 1;
    Model {
        name: "rr-stream".to_string(),
        graph: g.clone(),
        factory: Box::new(move |id, _| node(id, &spec)),
        bound,
        // Pinned to zero, like Lemma 18: the fault adversary can only
        // *remove* exchanges, and the streaming policies have no
        // loss-handling code path, so budget 0 already reaches every
        // payload-application path a phantom could slip through —
        // while keeping the dense n = 4 instances exhaustively
        // checkable inside the corpus sweep.
        fault_cap: 0,
        properties: selected(select, vec![props::no_phantom_rumor()]),
        encode_node: N::encode_state,
        encode_payload: encode_stream_payload,
        goal: |nodes| nodes.iter().all(StreamObserver::all_heard),
        fingerprint: |node| fnv(node, N::encode_state),
    }
}

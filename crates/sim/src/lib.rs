#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Synchronous round simulator for the **gossip with latencies** model.
//!
//! This crate implements, exactly, the communication model of
//! *Gossiping with Latencies* (Section 1):
//!
//! * Time proceeds in synchronous rounds (`u64`).
//! * In each round, each node may **initiate** at most one bidirectional
//!   exchange with a chosen neighbor. If the connecting edge has latency
//!   `ℓ`, the exchange **completes at round `t + ℓ`**; at completion,
//!   each endpoint receives the other's payload *snapshot taken at
//!   initiation time `t`* (the paper's "round-trip exchange takes time
//!   `ℓ`" push-pull-equivalent exchange).
//! * Communication is **non-blocking**: a node may initiate a new
//!   exchange every round while earlier ones are still in flight.
//! * Responses are automatic and do not consume the responder's
//!   initiation for the round.
//!
//! Protocols implement the [`Protocol`] trait and are driven by
//! [`Simulator`]. Rumor bookkeeping uses one of two sets: [`RumorSet`],
//! a one-pointer copy-on-write bitset whose `clone()` — the payload
//! snapshot — is a refcount bump (the dense, all-to-all regime), and
//! [`CompactRumorSet`], a 48-byte value that is an id list (the first
//! five held in place), a bitset or a full marker as its count grows
//! (the one-to-all regime at 10⁵–10⁶ nodes).
//! Crash and link failures (for the robustness experiments suggested in
//! the paper's conclusion) are injected with [`FaultPlan`].
//!
//! # Example: single-round neighbor exchange
//!
//! ```
//! use gossip_sim::{Context, Exchange, Protocol, RumorSet, SimConfig, Simulator};
//! use latency_graph::generators;
//!
//! struct Hello { rumors: RumorSet }
//!
//! impl Protocol for Hello {
//!     type Payload = RumorSet;
//!     fn payload(&self) -> RumorSet { self.rumors.clone() }
//!     fn on_round(&mut self, ctx: &mut Context<'_>) {
//!         // Always talk to our lowest-id neighbor.
//!         if let Some(v) = ctx.neighbor_ids().first().copied() {
//!             ctx.initiate(v);
//!         }
//!     }
//!     fn on_exchange(&mut self, _ctx: &mut Context<'_>, x: &Exchange<RumorSet>) {
//!         self.rumors.union_with(&x.payload);
//!     }
//! }
//!
//! let g = generators::cycle(8);
//! let outcome = Simulator::new(&g, SimConfig::default())
//!     .run(|id, _| Hello { rumors: RumorSet::singleton(8, id) },
//!          |nodes, _| nodes.iter().all(|n| n.rumors.len() >= 3));
//! assert!(outcome.stopped_by_condition());
//! ```

pub mod engine;
pub mod faults;
pub mod rumor;
pub mod stream;

// The net runner's hold, outside the determinism zone, files on the
// engine's calendar queue: a re-export, not a second writer.
// tidy:allow(frontier-confinement)
pub use engine::CalendarQueue;
pub use engine::{
    node_seed, ChoiceTape, Context, DeliveryRecord, EngineMode, EngineStats, Exchange,
    InFlightView, Launch, NodeTable, Outcome, Protocol, Scheduling, SimConfig, SimMetrics,
    Simulator, Stepper, StopReason,
};
pub use faults::FaultPlan;
pub use rumor::{CompactParts, CompactRumorSet, RumorSet, SharedRumorSet};
pub use stream::{
    all_delivered_round, completion_rounds, BudgetLedger, CompletionLog, Injection, RowBatch,
    StreamPayload, StreamSpec,
};

/// Simulation time, in synchronous rounds.
pub type Round = u64;

// `deny` rather than `forbid`: the reactor's epoll shim
// (`reactor::sys`) carries a scoped `#[allow(unsafe_code)]`; everything
// else in the crate stays unsafe-free (and `cargo xtask tidy` confines
// raw-fd APIs to `src/reactor/`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

//! Network runtime for the gossip protocols: runs unmodified
//! [`gossip_sim::Protocol`] implementations over real sockets — or over a
//! deterministic in-process loopback — while preserving the paper's
//! synchronous-round semantics.
//!
//! The crate is layered:
//!
//! * [`wire`] — a length-prefixed binary codec ([`Frame`]) plus the
//!   [`WirePayload`] trait that serializes protocol payloads.
//! * [`delta`] — the interval/run-length-coded rumor-delta bodies
//!   carried by [`Frame::RequestDelta`]/[`Frame::ReplyDelta`]: exchange
//!   cost proportional to *new information* instead of `⌈n/64⌉` words,
//!   with exact snapshot reconstruction (DESIGN.md §15).
//! * [`transport`] — the [`Transport`] abstraction: framed send/recv for
//!   one shard of nodes, at most once and by the round the receiver
//!   needs it, plus round pacing.
//! * [`loopback`] — [`LoopbackHub`], an in-process transport on the
//!   *virtual* clock. A loopback run reproduces the simulator's
//!   executions exactly (round counts, metrics, final states) — see
//!   [`run_loopback`] and DESIGN.md §11 for the equivalence argument.
//! * [`conn`] — connection state machinery (handshake validation,
//!   reconnect backoff schedule, incremental frame reassembly), kept
//!   apart from the event loop so it is testable without a socket.
//! * [`reactor`] — [`Reactor`], the real-socket transport: one epoll
//!   readiness loop hosts every connection of a shard's nodes in a
//!   single thread, with deadlines bounding its wait in place of every
//!   sleep (DESIGN.md §14). Thousands of nodes per process; a reactor
//!   hosting one node is the one-node-per-process deployment.
//! * [`runner`] — [`ShardRunner`], the round driver of one shard: the
//!   engine's own per-node state (`gossip_sim::NodeTable`) stepped in
//!   the engine's phase order, with the start/stop barriers on top of
//!   any [`Transport`].
//!
//! The paper's model travels intact across all of this because the
//! runner, not the transport, owns round semantics: a request initiated
//! at round `t` over an edge of latency `ℓ` is *applied* — on both
//! endpoints — at round `t + ℓ`, with payload snapshots taken at `t`.
//! Transports merely move bytes no later than the runner needs them.

pub mod conn;
pub mod delta;
pub mod error;
pub mod loopback;
pub mod reactor;
pub mod runner;
pub mod transport;
pub mod wire;

pub use error::{CodecError, NetError, PeerLoss};
pub use loopback::LoopbackHub;
pub use reactor::{run_reactor_mode_with_stats, Pacing, Reactor, ReactorConfig};
pub use runner::{
    run_loopback, run_loopback_mode_with_stats, NodeOutcome, NodeStopReason, PayloadMode, RunView,
    ShardRunner, WireAccounting,
};
pub use transport::{NetEvent, Transport, TransportStats};
pub use wire::{Frame, WirePayload, CAP_DELTA, MAX_BODY};

//! Stream payloads are copy-on-write snapshots.
//!
//! An exchange captures both endpoints' payloads when it is initiated
//! and holds them for `ℓ` rounds (DESIGN.md §7). For both streaming
//! policies this suite checks, on a node that has staged a non-empty
//! batch, that
//!
//! * a `payload()` taken earlier keeps its contents after later
//!   stagings replace the node's batch;
//! * every `payload()` of one round — the node's own calls and the
//!   snapshots the engine holds in flight — shares one buffer;
//! * cloning a payload allocates nothing (a per-thread allocation
//!   counter around the clone).

#![allow(unsafe_code)] // the counting allocator below, nothing else

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gossip_core::stream::{RlcStreamNode, RrStreamNode};
use gossip_sim::{Protocol, SimConfig, Simulator, StreamPayload, StreamSpec};
use latency_graph::generators::extra;
use latency_graph::NodeId;

thread_local! {
    /// Allocations made by this thread so far.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread — so tests
/// running in parallel do not see each other's.
struct Counting;

// The counter is a const-initialized thread-local `Cell`, which
// never allocates, so counting cannot recurse into the allocator.
// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` obligations pass through.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        // SAFETY: as above.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr` came from `System.alloc` with this `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Rumor 0 of `StreamSpec::spread` starts at node 3 in round 0, so node
/// 3 stages a non-empty batch from round 0 on under either policy.
const WATCHED: usize = 3;

/// Drives `make`'s nodes by hand on a ring of cliques whose bridges
/// hold exchanges for three rounds, and checks the three snapshot
/// properties on the watched node.
fn snapshots_stay_snapshots<P>(make: fn(NodeId, &StreamSpec) -> P)
where
    P: Protocol<Payload = StreamPayload>,
{
    let g = extra::ring_of_cliques(3, 4, 3);
    let spec = StreamSpec::spread(8, 3, g.node_count());
    let sim = Simulator::new(
        &g,
        SimConfig {
            seed: 5,
            ..SimConfig::default()
        },
    );
    let mut stepper = sim.stepper(|id, _| make(id, &spec));
    stepper.deliver();
    stepper.advance();

    let early = stepper.node(NodeId::new(WATCHED)).payload();
    assert!(early.units() > 0, "the watched node staged nothing");
    let early_contents = format!("{early:?}");

    // One round, one buffer: repeated `payload()` calls and every
    // exchange that snapshot the watched node in that round.
    assert!(early.ptr_eq(&stepper.node(NodeId::new(WATCHED)).payload()));
    let watched = NodeId::new(WATCHED);
    let mut in_flight = 0;
    for x in stepper.in_flight() {
        for (end, payload) in [(x.a, x.payload_a), (x.b, x.payload_b)] {
            if end == watched {
                in_flight += 1;
                assert!(payload.ptr_eq(&early), "an exchange holds its own copy");
            }
        }
    }
    assert!(in_flight > 0, "no exchange snapshot the watched node");

    // A clone is a reference-count bump.
    let before = allocations();
    let copy = early.clone();
    assert_eq!(allocations(), before, "cloning a payload allocated");
    assert!(copy.ptr_eq(&early) && copy == early);

    // Later stagings replace the node's batch, never the snapshot.
    for _ in 0..6 {
        stepper.deliver();
        stepper.advance();
        assert!(!stepper.node(NodeId::new(WATCHED)).payload().ptr_eq(&early));
    }
    assert_eq!(format!("{early:?}"), early_contents, "a snapshot moved");
}

#[test]
fn round_robin_payloads_are_shared_snapshots() {
    snapshots_stay_snapshots(RrStreamNode::new);
}

#[test]
fn algebraic_payloads_are_shared_snapshots() {
    snapshots_stay_snapshots(RlcStreamNode::new);
}

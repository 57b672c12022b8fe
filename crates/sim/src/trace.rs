//! Execution tracing: a compact, queryable log of everything the
//! engine did.
//!
//! Wrap any protocol in [`Traced`] and share a [`TraceLog`] across the
//! run; every initiation, delivery, and rejection is recorded with its
//! round. Useful for debugging protocols, for the CLI's curve output,
//! and for asserting fine-grained model properties in tests.

use std::cell::{Ref, RefCell};
use std::rc::Rc;

use latency_graph::NodeId;

use crate::engine::{Context, Exchange, Protocol};
use crate::Round;

/// One traced event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// `from` initiated an exchange with `to` in `round`.
    Initiated {
        /// The round of initiation.
        round: Round,
        /// Initiator.
        from: NodeId,
        /// Chosen neighbor.
        to: NodeId,
    },
    /// An exchange between `a` (initiator) and `b` completed.
    Delivered {
        /// Completion round.
        round: Round,
        /// Initiator.
        a: NodeId,
        /// Responder.
        b: NodeId,
        /// Initiation round (latency = round − initiated_at).
        initiated_at: Round,
    },
    /// `from`'s initiation toward `to` was rejected by the connection
    /// cap.
    Rejected {
        /// The round of the rejected initiation.
        round: Round,
        /// Initiator.
        from: NodeId,
        /// Chosen neighbor.
        to: NodeId,
    },
}

impl TraceEvent {
    /// The round the event occurred in.
    pub fn round(&self) -> Round {
        match *self {
            TraceEvent::Initiated { round, .. }
            | TraceEvent::Delivered { round, .. }
            | TraceEvent::Rejected { round, .. } => round,
        }
    }
}

/// A shared, append-only event log.
///
/// Cloning is cheap (reference-counted): every [`Traced`] node of a
/// run holds a clone and appends to the same event list, in the
/// engine's (deterministic) callback order.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    events: Rc<RefCell<Vec<TraceEvent>>>,
}

impl TraceLog {
    /// An empty log.
    pub fn new() -> TraceLog {
        TraceLog::default()
    }

    fn push(&self, e: TraceEvent) {
        self.events.borrow_mut().push(e);
    }

    /// The recorded events. No borrow outlives a method of this type,
    /// so this never meets `push`'s mutable borrow.
    fn read(&self) -> Ref<'_, Vec<TraceEvent>> {
        self.events.borrow()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Snapshot of all events, in recording order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.read().clone()
    }

    /// Events of a specific round.
    ///
    /// The engine emits events in nondecreasing round order (every
    /// event of round `r` — deliveries, initiations, rejections — is
    /// recorded *during* round `r`), so instead of a linear scan the
    /// round's contiguous block is located with two
    /// `partition_point` binary searches over the round bounds:
    /// O(log E + k) for k matching events.
    pub fn in_round(&self, round: Round) -> Vec<TraceEvent> {
        let events = self.read();
        let lo = events.partition_point(|e| e.round() < round);
        let hi = lo + events[lo..].partition_point(|e| e.round() == round);
        events[lo..hi].to_vec()
    }

    /// Count of delivered exchanges per round, up to and including
    /// `horizon` (index = round).
    pub fn delivery_curve(&self, horizon: Round) -> Vec<u64> {
        let len = usize::try_from(horizon).expect("horizon fits usize") + 1;
        let mut curve = vec![0u64; len];
        for e in self.read().iter() {
            if let TraceEvent::Delivered { round, .. } = *e {
                if round <= horizon {
                    curve[usize::try_from(round).expect("round fits usize")] += 1;
                }
            }
        }
        curve
    }
}

/// A transparent protocol wrapper that records events into a
/// [`TraceLog`].
#[derive(Clone, Debug)]
pub struct Traced<P> {
    /// The wrapped protocol (public for post-run inspection).
    pub inner: P,
    log: TraceLog,
}

impl<P> Traced<P> {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: P, log: TraceLog) -> Traced<P> {
        Traced { inner, log }
    }
}

impl<P: Protocol> Protocol for Traced<P> {
    const SCHEDULING: crate::engine::Scheduling = P::SCHEDULING;

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
        let before = ctx.pending_target();
        self.inner.on_round(ctx);
        let after = ctx.pending_target();
        if after != before {
            if let Some(to) = after {
                self.log.push(TraceEvent::Initiated {
                    round: ctx.round(),
                    from: ctx.id(),
                    to,
                });
            }
        }
    }

    fn on_exchange(&mut self, ctx: &mut Context<'_>, x: &Exchange<P::Payload>) {
        if x.initiated_by_me {
            self.log.push(TraceEvent::Delivered {
                round: x.completed_at,
                a: ctx.id(),
                b: x.peer,
                initiated_at: x.initiated_at,
            });
        }
        self.inner.on_exchange(ctx, x);
    }

    fn on_rejected(&mut self, ctx: &mut Context<'_>, peer: NodeId) {
        self.log.push(TraceEvent::Rejected {
            round: ctx.round(),
            from: ctx.id(),
            to: peer,
        });
        self.inner.on_rejected(ctx, peer);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulator};
    use crate::rumor::RumorSet;
    use latency_graph::generators;

    struct Flood {
        rumors: RumorSet,
        cursor: usize,
    }
    impl Protocol for Flood {
        type Payload = RumorSet;
        fn payload(&self) -> RumorSet {
            self.rumors.clone()
        }
        fn on_round(&mut self, ctx: &mut Context<'_>) {
            if ctx.degree() > 0 {
                let v = ctx.neighbor_ids()[self.cursor % ctx.degree()];
                self.cursor += 1;
                ctx.initiate(v);
            }
        }
        fn on_exchange(&mut self, _: &mut Context<'_>, x: &Exchange<RumorSet>) {
            self.rumors.union_with(&x.payload);
        }
    }

    #[test]
    fn records_initiations_and_deliveries() {
        let g = generators::path(4);
        let log = TraceLog::new();
        let mk_log = log.clone();
        let out = Simulator::new(&g, SimConfig::default()).run(
            move |id, n| {
                Traced::new(
                    Flood {
                        rumors: RumorSet::singleton(n, id),
                        cursor: 0,
                    },
                    mk_log.clone(),
                )
            },
            |ns: &[Traced<Flood>], _| ns.iter().all(|t| t.inner.rumors.is_full()),
        );
        let events = log.events();
        let initiated = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Initiated { .. }))
            .count();
        let delivered = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Delivered { .. }))
            .count();
        assert_eq!(initiated as u64, out.metrics.initiated);
        assert_eq!(delivered as u64, out.metrics.delivered);
        assert!(!log.is_empty());
    }

    #[test]
    fn delivery_curve_sums_to_total() {
        let g = generators::cycle(8);
        let log = TraceLog::new();
        let mk_log = log.clone();
        let out = Simulator::new(
            &g,
            SimConfig {
                max_rounds: 10,
                ..Default::default()
            },
        )
        .run(
            move |id, n| {
                Traced::new(
                    Flood {
                        rumors: RumorSet::singleton(n, id),
                        cursor: 0,
                    },
                    mk_log.clone(),
                )
            },
            |_, _| false,
        );
        let curve = log.delivery_curve(out.rounds);
        assert_eq!(curve.iter().sum::<u64>(), out.metrics.delivered);
        assert_eq!(curve[0], 0, "nothing can deliver at round 0");
    }

    #[test]
    fn rejections_traced_under_cap() {
        let g = generators::star(6);
        let log = TraceLog::new();
        let mk_log = log.clone();
        let cfg = SimConfig {
            connection_cap: Some(1),
            max_rounds: 4,
            ..Default::default()
        };
        let out = Simulator::new(&g, cfg).run(
            move |id, n| {
                Traced::new(
                    Flood {
                        rumors: RumorSet::singleton(n, id),
                        cursor: 0,
                    },
                    mk_log.clone(),
                )
            },
            |_, _| false,
        );
        let rejected = log
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Rejected { .. }))
            .count();
        assert_eq!(rejected as u64, out.metrics.rejected);
        assert!(rejected > 0);
    }

    /// `in_round`'s binary search returns exactly what the old linear
    /// scan did, on a randomized nondecreasing-round trace covering
    /// empty rounds, runs of equal rounds, and the extremes.
    #[test]
    fn in_round_binary_search_matches_linear_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xF00D);
        for trial in 0..50u64 {
            let log = TraceLog::new();
            let mut round: Round = 0;
            let len = rng.random_range(0..200usize);
            for _ in 0..len {
                // Advance 0..3 rounds, so rounds repeat and some are
                // skipped entirely.
                round += rng.random_range(0..3u64);
                let from = NodeId::new(rng.random_range(0..8usize));
                let to = NodeId::new(rng.random_range(0..8usize));
                let e = match rng.random_range(0..3u8) {
                    0 => TraceEvent::Initiated { round, from, to },
                    1 => TraceEvent::Delivered {
                        round,
                        a: from,
                        b: to,
                        initiated_at: round.saturating_sub(1),
                    },
                    _ => TraceEvent::Rejected { round, from, to },
                };
                log.push(e);
            }
            let events = log.events();
            for query in 0..=round + 1 {
                let scan: Vec<TraceEvent> = events
                    .iter()
                    .filter(|e| e.round() == query)
                    .cloned()
                    .collect();
                assert_eq!(
                    log.in_round(query),
                    scan,
                    "trial {trial}, round {query} of {round}"
                );
            }
        }
    }

    #[test]
    fn in_round_filters() {
        let g = generators::path(3);
        let log = TraceLog::new();
        let mk_log = log.clone();
        let _ = Simulator::new(
            &g,
            SimConfig {
                max_rounds: 3,
                ..Default::default()
            },
        )
        .run(
            move |id, n| {
                Traced::new(
                    Flood {
                        rumors: RumorSet::singleton(n, id),
                        cursor: 0,
                    },
                    mk_log.clone(),
                )
            },
            |_, _| false,
        );
        for e in log.in_round(1) {
            assert_eq!(e.round(), 1);
        }
    }
}

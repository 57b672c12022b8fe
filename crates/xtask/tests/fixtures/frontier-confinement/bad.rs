//! Deliberately violates family 10: frontier bookkeeping outside
//! `sim::engine` — a private calendar queue and direct writes to the
//! engine's execution counters.

struct CalendarQueue {
    len: usize,
}

fn reschedule(stats: &mut EngineStats, q: &mut CalendarQueue) {
    stats.skipped_rounds += 7;
    stats.peak_frontier = 1;
    q.len -= 1;
    let woken = 3;
    let _ = woken;
}

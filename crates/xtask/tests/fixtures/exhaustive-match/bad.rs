//! Bad: a wildcard `_ =>` arm in a match over a protocol-critical enum.

fn classify(stop: StopReason) -> u32 {
    match stop {
        StopReason::AllDone => 0,
        _ => 1,
    }
}

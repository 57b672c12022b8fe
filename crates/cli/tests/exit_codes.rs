//! The `gossip` binary's error contract, end to end: a request the
//! program cannot satisfy exits 2 with a one-line `error:` message on
//! stderr — never a panic (exit 101) with a backtrace.

use std::process::Command;

#[test]
fn generate_er_below_the_connectivity_threshold_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_gossip"))
        .args(["generate", "er", "50", "0.01"])
        .output()
        .expect("the gossip binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(stderr.contains("ln(n)/n = 0.0782"), "{stderr}");
}

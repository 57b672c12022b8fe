//! Fixture corpus: every rule family has at least one `bad` fixture it
//! must catch and one `good` fixture it must pass. Fixtures live under
//! `tests/fixtures/<family>/` and are fed through the checkers with a
//! synthetic in-zone path (the scanner itself skips the fixture tree).

use std::fs;
use std::path::PathBuf;

use xtask::rules::{check_crate_root, check_manifest, check_rust_file, RULES};

/// A determinism-zone path: inside every source-rule zone at once, so a
/// `good` fixture passing here is clean across all families.
const ZONE_PATH: &str = "crates/sim/src/fixture.rs";

fn fixture(family: &str, name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(family)
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Violations of one family when a fixture is checked as zone source.
fn source_findings(family: &str, name: &str) -> Vec<xtask::rules::Violation> {
    check_rust_file(ZONE_PATH, &fixture(family, name))
        .into_iter()
        .filter(|v| v.rule == family)
        .collect()
}

#[test]
fn determinism_zone_bad_fires() {
    let v = source_findings("determinism-zone", "bad.rs");
    assert!(
        v.len() >= 4,
        "expected HashMap/HashSet/Instant/thread_rng findings, got {v:?}"
    );
    let msgs: Vec<&str> = v.iter().map(|v| v.message.as_str()).collect();
    for needle in ["HashMap", "HashSet", "Instant", "thread_rng"] {
        assert!(
            msgs.iter().any(|m| m.contains(needle)),
            "no finding mentions {needle}: {msgs:?}"
        );
    }
}

#[test]
fn determinism_zone_good_passes() {
    let all = check_rust_file(ZONE_PATH, &fixture("determinism-zone", "good.rs"));
    assert!(
        all.is_empty(),
        "good fixture must be clean across all families: {all:?}"
    );
}

#[test]
fn safety_comment_bad_fires() {
    let v = source_findings("safety-comment", "bad.rs");
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].line, 3);
}

#[test]
fn safety_comment_good_passes() {
    let all = check_rust_file(ZONE_PATH, &fixture("safety-comment", "good.rs"));
    assert!(all.is_empty(), "{all:?}");
}

#[test]
fn panic_policy_bad_fires() {
    let v = source_findings("panic-policy", "bad.rs");
    assert_eq!(v.len(), 2, "bare unwrap + empty expect: {v:?}");
}

#[test]
fn panic_policy_good_passes() {
    let all = check_rust_file(ZONE_PATH, &fixture("panic-policy", "good.rs"));
    assert!(all.is_empty(), "{all:?}");
}

#[test]
fn narrowing_cast_bad_fires() {
    let v = source_findings("narrowing-cast", "bad.rs");
    assert_eq!(v.len(), 2, "`as u64` and `as usize`: {v:?}");
}

#[test]
fn narrowing_cast_good_passes() {
    let all = check_rust_file(ZONE_PATH, &fixture("narrowing-cast", "good.rs"));
    assert!(
        all.is_empty(),
        "float casts and test code must pass: {all:?}"
    );
}

#[test]
fn doc_coverage_bad_fires() {
    let v = source_findings("doc-coverage", "bad.rs");
    assert_eq!(v.len(), 3, "undocumented fn, struct, const: {v:?}");
}

#[test]
fn doc_coverage_good_passes() {
    let all = check_rust_file(ZONE_PATH, &fixture("doc-coverage", "good.rs"));
    assert!(all.is_empty(), "{all:?}");
}

#[test]
fn import_hygiene_bad_source_fires() {
    let v = source_findings("import-hygiene", "bad.rs");
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].line, 2);
}

#[test]
fn import_hygiene_good_source_passes() {
    let all = check_rust_file(ZONE_PATH, &fixture("import-hygiene", "good.rs"));
    assert!(all.is_empty(), "{all:?}");
}

#[test]
fn import_hygiene_manifest_fixtures() {
    let bad = check_manifest(
        "crates/fixture/Cargo.toml",
        &fixture("import-hygiene", "bad.Cargo.toml"),
    );
    assert!(
        bad.iter().any(|v| v.rule == "import-hygiene"),
        "vendor path dependency must be flagged: {bad:?}"
    );
    let good = check_manifest(
        "crates/fixture/Cargo.toml",
        &fixture("import-hygiene", "good.Cargo.toml"),
    );
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn lint_hardening_crate_root_fixtures() {
    let bad = check_crate_root(
        "crates/fixture/src/lib.rs",
        &fixture("lint-hardening", "bad_root.rs"),
    );
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert_eq!(bad[0].rule, "lint-hardening");
    let good = check_crate_root(
        "crates/fixture/src/lib.rs",
        &fixture("lint-hardening", "good_root.rs"),
    );
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn lint_hardening_manifest_fixtures() {
    let bad = check_manifest(
        "crates/fixture/Cargo.toml",
        &fixture("lint-hardening", "bad.Cargo.toml"),
    );
    assert!(
        bad.iter().any(|v| v.rule == "lint-hardening"),
        "missing [lints] opt-in must be flagged: {bad:?}"
    );
    let good = check_manifest(
        "crates/fixture/Cargo.toml",
        &fixture("lint-hardening", "good.Cargo.toml"),
    );
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn concurrency_confinement_bad_fires() {
    let v = source_findings("concurrency-confinement", "bad.rs");
    assert!(
        v.len() >= 5,
        "expected Mutex/RwLock/Atomic/mpsc/std::thread findings, got {v:?}"
    );
    let msgs: Vec<&str> = v.iter().map(|v| v.message.as_str()).collect();
    for needle in ["Mutex", "RwLock", "AtomicU64", "mpsc", "std::thread"] {
        assert!(
            msgs.iter().any(|m| m.contains(needle)),
            "no finding mentions {needle}: {msgs:?}"
        );
    }
}

#[test]
fn concurrency_confinement_good_passes() {
    let all = check_rust_file(ZONE_PATH, &fixture("concurrency-confinement", "good.rs"));
    assert!(
        all.is_empty(),
        "Arc and test-only locks must pass all families: {all:?}"
    );
}

/// No zone module is a sanctioned home for threads and channels: the
/// bad fixture fires at the retired worker pool's path like anywhere
/// else.
#[test]
fn concurrency_confinement_pool_module_not_exempt() {
    let v: Vec<_> = check_rust_file(
        "crates/sim/src/pool.rs",
        &fixture("concurrency-confinement", "bad.rs"),
    )
    .into_iter()
    .filter(|v| v.rule == "concurrency-confinement")
    .collect();
    assert!(v.len() >= 5, "pool.rs must not be exempt: {v:?}");
}

#[test]
fn net_confinement_bad_fires() {
    let v = source_findings("net-confinement", "bad.rs");
    assert!(
        v.len() >= 4,
        "expected TcpStream/TcpListener/UdpSocket/std::net findings, got {v:?}"
    );
    let msgs: Vec<&str> = v.iter().map(|v| v.message.as_str()).collect();
    for needle in ["TcpStream", "TcpListener", "UdpSocket", "std::net"] {
        assert!(
            msgs.iter().any(|m| m.contains(needle)),
            "no finding mentions {needle}: {msgs:?}"
        );
    }
}

#[test]
fn net_confinement_good_passes() {
    let all = check_rust_file(ZONE_PATH, &fixture("net-confinement", "good.rs"));
    assert!(
        all.is_empty(),
        "transport-only code and test sockets must pass all families: {all:?}"
    );
}

/// The net crate itself is the sanctioned home for sockets: the same
/// bad fixture is clean when checked at one of its source paths.
#[test]
fn net_confinement_net_crate_exempt() {
    let v: Vec<_> = check_rust_file(
        "crates/net/src/conn.rs",
        &fixture("net-confinement", "bad.rs"),
    )
    .into_iter()
    .filter(|v| v.rule == "net-confinement")
    .collect();
    assert!(v.is_empty(), "crates/net must be exempt: {v:?}");
}

/// Raw-fd / epoll tokens are confined one level tighter than sockets:
/// they fire both in the determinism zone *and* in the rest of the net
/// crate, and are clean only inside `crates/net/src/reactor/`.
#[test]
fn net_confinement_ffi_confined_to_reactor() {
    let zone = source_findings("net-confinement", "bad_ffi.rs");
    assert!(
        zone.len() >= 5,
        "expected RawFd/AsRawFd/as_raw_fd/epoll_* findings, got {zone:?}"
    );
    let msgs: Vec<&str> = zone.iter().map(|v| v.message.as_str()).collect();
    for needle in [
        "RawFd",
        "as_raw_fd",
        "epoll_create1",
        "epoll_ctl",
        "epoll_wait",
    ] {
        assert!(
            msgs.iter().any(|m| m.contains(needle)),
            "no finding mentions {needle}: {msgs:?}"
        );
    }
    let net_crate: Vec<_> = check_rust_file(
        "crates/net/src/conn.rs",
        &fixture("net-confinement", "bad_ffi.rs"),
    )
    .into_iter()
    .filter(|v| v.rule == "net-confinement")
    .collect();
    assert!(
        !net_crate.is_empty(),
        "raw-fd tokens must fire even inside crates/net (outside reactor/)"
    );
    let reactor: Vec<_> = check_rust_file(
        "crates/net/src/reactor/sys.rs",
        &fixture("net-confinement", "bad_ffi.rs"),
    )
    .into_iter()
    .filter(|v| v.rule == "net-confinement")
    .collect();
    assert!(
        reactor.is_empty(),
        "reactor module must be exempt: {reactor:?}"
    );
}

#[test]
fn frontier_confinement_bad_fires() {
    let v = source_findings("frontier-confinement", "bad.rs");
    assert!(
        v.len() >= 4,
        "expected CalendarQueue/counter-write findings, got {v:?}"
    );
    let msgs: Vec<&str> = v.iter().map(|v| v.message.as_str()).collect();
    for needle in ["CalendarQueue", "skipped_rounds", "peak_frontier"] {
        assert!(
            msgs.iter().any(|m| m.contains(needle)),
            "no finding mentions {needle}: {msgs:?}"
        );
    }
    // `let woken = 3;` initializes a local, which the write heuristic
    // flags by design — one writer, one module, no look-alikes.
    assert!(msgs.iter().any(|m| m.contains("`woken`")), "{msgs:?}");
}

#[test]
fn frontier_confinement_good_passes() {
    let all = check_rust_file(ZONE_PATH, &fixture("frontier-confinement", "good.rs"));
    assert!(
        all.is_empty(),
        "counter reads and Context wake requests must pass all families: {all:?}"
    );
}

/// The engine module itself is the sanctioned home for frontier
/// bookkeeping: the same bad fixture is clean when checked at its path.
#[test]
fn frontier_confinement_engine_module_exempt() {
    let v: Vec<_> = check_rust_file(
        "crates/sim/src/engine.rs",
        &fixture("frontier-confinement", "bad.rs"),
    )
    .into_iter()
    .filter(|v| v.rule == "frontier-confinement")
    .collect();
    assert!(v.is_empty(), "sim::engine must be exempt: {v:?}");
}

#[test]
fn exhaustive_match_bad_fires() {
    let v = source_findings("exhaustive-match", "bad.rs");
    assert_eq!(v.len(), 1, "the StopReason wildcard arm: {v:?}");
    assert_eq!(v[0].line, 6, "{v:?}");
    assert!(v[0].message.contains("StopReason"), "{v:?}");
}

#[test]
fn exhaustive_match_good_passes() {
    let all = check_rust_file(ZONE_PATH, &fixture("exhaustive-match", "good.rs"));
    assert!(
        all.is_empty(),
        "named catch-alls, sub-pattern wildcards and non-critical matches \
         must pass all families: {all:?}"
    );
}

/// Like families 1–4, family 11's allowlist is pinned empty: a
/// non-exhaustive critical match is never sound by exemption.
#[test]
fn exhaustive_match_allowlist_is_empty() {
    assert!(
        xtask::rules::ALLOWLIST
            .iter()
            .all(|e| e.rule != "exhaustive-match"),
        "exhaustive-match must not be allowlisted"
    );
}

#[test]
fn budget_confinement_bad_fires() {
    let v = source_findings("budget-confinement", "bad.rs");
    assert_eq!(
        v.len(),
        4,
        "credited/debited/first_heard[…]/heard_count writes: {v:?}"
    );
    let msgs: Vec<&str> = v.iter().map(|v| v.message.as_str()).collect();
    for needle in ["credited", "debited", "first_heard", "heard_count"] {
        assert!(
            msgs.iter().any(|m| m.contains(needle)),
            "no finding mentions {needle}: {msgs:?}"
        );
    }
}

#[test]
fn budget_confinement_good_passes() {
    let all = check_rust_file(ZONE_PATH, &fixture("budget-confinement", "good.rs"));
    assert!(
        all.is_empty(),
        "getter reads and grant/spend/record calls must pass all families: {all:?}"
    );
}

/// The stream scheduler module itself is the sanctioned home for the
/// accounting: the same bad fixture is clean when checked at its path.
#[test]
fn budget_confinement_stream_module_exempt() {
    let v: Vec<_> = check_rust_file(
        "crates/sim/src/stream.rs",
        &fixture("budget-confinement", "bad.rs"),
    )
    .into_iter()
    .filter(|v| v.rule == "budget-confinement")
    .collect();
    assert!(v.is_empty(), "sim::stream must be exempt: {v:?}");
}

/// Like families 1–4 and 11, family 12's allowlist is pinned empty: a
/// second writer to the stream accounting is never sound by exemption.
#[test]
fn budget_confinement_allowlist_is_empty() {
    assert!(
        xtask::rules::ALLOWLIST
            .iter()
            .all(|e| e.rule != "budget-confinement"),
        "budget-confinement must not be allowlisted"
    );
}

/// Every declared rule family is exercised by at least one fixture
/// directory of the same name.
#[test]
fn every_family_has_fixtures() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for rule in RULES {
        let dir = root.join(rule.name);
        assert!(
            dir.is_dir(),
            "no fixture directory for family `{}`",
            rule.name
        );
        let entries = fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("read_dir {}: {e}", dir.display()))
            .count();
        assert!(
            entries >= 2,
            "family `{}` needs a bad and a good fixture",
            rule.name
        );
    }
}

/// The scanner skips the fixture tree: a clean repo stays clean even
/// though the fixtures are deliberately full of violations.
#[test]
fn scanner_skips_fixture_tree() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves");
    let result = xtask::scan_repo(&root).expect("scan succeeds");
    assert!(
        result
            .violations
            .iter()
            .all(|v| !v.path.contains("fixtures")),
        "fixture files must never appear in repo scans"
    );
}

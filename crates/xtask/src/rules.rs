//! The tidy rule families and their engine.
//!
//! Every rule works on the [`lexer`](crate::lexer) token stream (never
//! on raw text), so string literals and comments can't produce false
//! positives. Rules are scoped by repo-relative path; test code
//! (`#[cfg(test)]` / `#[test]` items, `tests/`, `benches/` and
//! `examples/` trees) is exempt from the style rules but **not** from
//! `safety-comment`. See DESIGN.md §8 for the contract each family
//! enforces and how to amend it.

use crate::lexer::{lex, Lexed, Tok, TokKind};

/// A single finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Rule family that fired (kebab-case, stable across releases).
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the finding.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// Static description of one rule family (for `--list` and reports).
pub struct RuleInfo {
    /// Stable kebab-case name.
    pub name: &'static str,
    /// One-line summary shown by `cargo xtask tidy --list`.
    pub summary: &'static str,
}

/// All rule families, in family order (1–12).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "determinism-zone",
        summary: "no HashMap/HashSet, std::time, or ambient RNG in sim/core/graph/spanner/guessing",
    },
    RuleInfo {
        name: "safety-comment",
        summary: "every `unsafe` must carry a `// SAFETY:` comment",
    },
    RuleInfo {
        name: "panic-policy",
        summary: "no bare .unwrap() or empty .expect(\"\") in library code",
    },
    RuleInfo {
        name: "narrowing-cast",
        summary: "no `as`-casts to integer types in round/latency arithmetic (sim, core)",
    },
    RuleInfo {
        name: "doc-coverage",
        summary: "every pub item in graph/sim/core is documented",
    },
    RuleInfo {
        name: "import-hygiene",
        summary: "vendored crates only via workspace aliases, never by path",
    },
    RuleInfo {
        name: "lint-hardening",
        summary: "crates opt into [workspace.lints] and forbid unsafe_code at the root",
    },
    RuleInfo {
        name: "concurrency-confinement",
        summary: "no OS concurrency (std::thread, locks, channels, atomics) in the determinism zone (Arc exempt)",
    },
    RuleInfo {
        name: "net-confinement",
        summary: "std::net socket APIs (TcpStream/TcpListener/UdpSocket) only inside crates/net; \
                  epoll/raw-fd APIs only inside its reactor module",
    },
    RuleInfo {
        name: "frontier-confinement",
        summary: "frontier bookkeeping (wake/calendar queues, engine-counter writes) only in sim::engine",
    },
    RuleInfo {
        name: "exhaustive-match",
        summary: "no wildcard `_ =>` arms in matches over protocol-critical enums (core, sim, net)",
    },
    RuleInfo {
        name: "budget-confinement",
        summary: "budget debit/credit and per-rumor completion counters written only in sim::stream",
    },
];

/// One allowlist entry: suppresses `rule` for every path with the given
/// prefix. The determinism contract (ISSUE 2) requires this table to
/// stay **empty for families 1–4**, the model-checking contract
/// (ISSUE 7) pins it **empty for family 11** — a non-exhaustive
/// critical match is never sound by exemption — and the streaming
/// contract (ISSUE 10) pins it **empty for family 12**: a second
/// writer to the budget ledger or the completion counters would
/// invalidate every per-rumor curve the bench suite reports. Entries
/// for the other families must carry a reason and should be rare.
pub struct AllowEntry {
    /// Rule family name the entry suppresses.
    pub rule: &'static str,
    /// Repo-relative path prefix it applies to.
    pub path_prefix: &'static str,
    /// Why the exemption is sound.
    pub reason: &'static str,
}

/// The per-crate/per-path allowlist. Add entries here (with a reason)
/// only for code that *cannot* comply, and never for families 1–4.
pub const ALLOWLIST: &[AllowEntry] = &[AllowEntry {
    rule: "lint-hardening",
    path_prefix: "crates/net/src/lib.rs",
    reason: "The reactor transport needs one unsafe FFI module (`reactor::sys`, the epoll \
                 shim), so the crate root downgrades `forbid(unsafe_code)` to `deny` and the \
                 shim re-allows it locally with SAFETY comments. The net-confinement rule keeps \
                 the raw-fd surface pinned to `src/reactor/`.",
}];

/// Whether `path` is allowlisted for `rule`.
fn allowlisted(rule: &str, path: &str) -> bool {
    ALLOWLIST
        .iter()
        .any(|e| e.rule == rule && path.starts_with(e.path_prefix))
}

/// Inline waiver: a comment `tidy:allow(<rule>)` on the offending line
/// or the line above suppresses that single finding. Use sparingly and
/// document why in the same comment.
fn waived(lexed: &Lexed, rule: &str, line: u32) -> bool {
    lexed.comment_near(line, 1, &format!("tidy:allow({rule})"))
}

/// The crates whose `src/` trees form the determinism zone: replayable
/// simulation state must not depend on hash-seed iteration order,
/// wall-clock time, or OS entropy.
const DETERMINISM_ZONE: &[&str] = &[
    "crates/sim/src/",
    "crates/core/src/",
    "crates/graph/src/",
    "crates/spanner/src/",
    "crates/guessing/src/",
];

/// Crates whose round/latency arithmetic must use checked conversions
/// instead of narrowing `as` casts (rule family 4).
const CAST_ZONE: &[&str] = &["crates/sim/src/", "crates/core/src/"];

/// Crates whose public API must be fully documented (rule family 5).
const DOC_ZONE: &[&str] = &[
    "crates/graph/src/",
    "crates/sim/src/",
    "crates/core/src/",
    "crates/net/src/",
];

/// Library code held to the panic policy (rule family 3). `crates/bench`
/// is the experiment harness (bench-exempt per the contract);
/// `vendor/*` is third-party.
const PANIC_ZONE: &[&str] = &[
    "crates/graph/src/",
    "crates/sim/src/",
    "crates/core/src/",
    "crates/spanner/src/",
    "crates/guessing/src/",
    "crates/cli/src/",
    "crates/net/src/",
    "crates/mc/src/",
    "crates/xtask/src/",
    "src/",
];

fn in_zone(zone: &[&str], path: &str) -> bool {
    zone.iter().any(|p| path.starts_with(p))
}

/// Whether the file as a whole is test/bench/example code.
fn is_test_tree(path: &str) -> bool {
    path.contains("/tests/")
        || path.contains("/benches/")
        || path.starts_with("tests/")
        || path.starts_with("examples/")
        || path.starts_with("benches/")
}

/// Token-index spans (half-open) of `#[cfg(test)]` / `#[test]` items.
///
/// An attribute whose identifier list starts with `cfg` and mentions
/// `test`, or is exactly `test`, marks the following item (through its
/// closing brace or terminating semicolon) as test code.
fn test_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !is_punct(toks.get(i), b'#') {
            i += 1;
            continue;
        }
        let attr_start = i;
        let mut j = i + 1;
        if is_punct(toks.get(j), b'!') {
            // Inner attribute (`#![…]`): applies to the enclosing scope,
            // never introduces a test item. Skip it.
            i = j + 1;
            continue;
        }
        if !is_punct(toks.get(j), b'[') {
            i += 1;
            continue;
        }
        // Collect the attribute's identifiers up to the matching `]`.
        let mut depth = 0i32;
        let mut ids: Vec<&str> = Vec::new();
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct(b'[') => depth += 1,
                TokKind::Punct(b']') => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                TokKind::Ident => ids.push(&toks[j].text),
                _ => {}
            }
            j += 1;
        }
        let is_test_attr = match ids.first().copied() {
            Some("cfg") => ids.contains(&"test"),
            Some("test") => true,
            _ => false,
        };
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip any further attributes, then consume the annotated item:
        // everything up to the first top-level `;` or through the first
        // top-level `{…}` block.
        while is_punct(toks.get(j), b'#') && is_punct(toks.get(j + 1), b'[') {
            let mut d = 0i32;
            j += 1;
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Punct(b'[') => d += 1,
                    TokKind::Punct(b']') => {
                        d -= 1;
                        if d == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        let mut brace = 0i32;
        let mut entered = false;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct(b'{') => {
                    brace += 1;
                    entered = true;
                }
                TokKind::Punct(b'}') => {
                    brace -= 1;
                    if entered && brace == 0 {
                        j += 1;
                        break;
                    }
                }
                TokKind::Punct(b';') if !entered => {
                    j += 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        spans.push((attr_start, j));
        i = j;
    }
    spans
}

fn is_punct(t: Option<&Tok>, c: u8) -> bool {
    t.is_some_and(|t| t.kind == TokKind::Punct(c))
}

fn is_ident(t: Option<&Tok>, s: &str) -> bool {
    t.is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
}

fn in_spans(spans: &[(usize, usize)], i: usize) -> bool {
    spans.iter().any(|&(a, b)| a <= i && i < b)
}

fn source_line(src: &str, line: u32) -> String {
    src.lines()
        .nth(line.saturating_sub(1) as usize)
        .unwrap_or("")
        .trim()
        .to_string()
}

fn push(
    out: &mut Vec<Violation>,
    lexed: &Lexed,
    src: &str,
    rule: &'static str,
    path: &str,
    line: u32,
    message: String,
) {
    if allowlisted(rule, path) || waived(lexed, rule, line) {
        return;
    }
    out.push(Violation {
        rule,
        path: path.to_string(),
        line,
        message,
        snippet: source_line(src, line),
    });
}

/// Runs every source-level rule family on one Rust file.
pub fn check_rust_file(path: &str, src: &str) -> Vec<Violation> {
    let lexed = lex(src);
    let spans = test_spans(&lexed.toks);
    let mut out = Vec::new();
    determinism_zone(path, src, &lexed, &spans, &mut out);
    safety_comment(path, src, &lexed, &mut out);
    panic_policy(path, src, &lexed, &spans, &mut out);
    narrowing_cast(path, src, &lexed, &spans, &mut out);
    doc_coverage(path, src, &lexed, &spans, &mut out);
    import_hygiene_source(path, src, &lexed, &mut out);
    concurrency_confinement(path, src, &lexed, &spans, &mut out);
    net_confinement(path, src, &lexed, &spans, &mut out);
    frontier_confinement(path, src, &lexed, &spans, &mut out);
    exhaustive_match(path, src, &lexed, &spans, &mut out);
    budget_confinement(path, src, &lexed, &spans, &mut out);
    out
}

/// Family 1 — determinism zone.
///
/// Hash-based collections iterate in hash-seed order, `std::time` and
/// ambient RNG (`thread_rng`, `from_entropy`, `from_os_rng`) read
/// non-replayable environment state. Any of these inside the zone can
/// silently break bit-for-bit replay (the golden-trace suite) even when
/// all tests still pass. Use `BTreeMap`/`BTreeSet`/sorted `Vec`s and
/// seed-derived RNGs instead.
fn determinism_zone(
    path: &str,
    src: &str,
    lexed: &Lexed,
    spans: &[(usize, usize)],
    out: &mut Vec<Violation>,
) {
    const BANNED: &[(&str, &str)] = &[
        (
            "HashMap",
            "iteration order depends on the hash seed; use BTreeMap or a sorted Vec",
        ),
        (
            "HashSet",
            "iteration order depends on the hash seed; use BTreeSet or a sorted Vec",
        ),
        (
            "thread_rng",
            "ambient OS-seeded RNG; derive an RNG from the simulation seed",
        ),
        (
            "from_entropy",
            "OS entropy is not replayable; derive the seed from SimConfig",
        ),
        (
            "from_os_rng",
            "OS entropy is not replayable; derive the seed from SimConfig",
        ),
        (
            "Instant",
            "wall-clock time is not part of the simulation model",
        ),
        (
            "SystemTime",
            "wall-clock time is not part of the simulation model",
        ),
    ];
    if !in_zone(DETERMINISM_ZONE, path) || is_test_tree(path) {
        return;
    }
    for (i, t) in lexed.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_spans(spans, i) {
            continue;
        }
        for &(name, why) in BANNED {
            if t.text == name {
                push(
                    out,
                    lexed,
                    src,
                    "determinism-zone",
                    path,
                    t.line,
                    format!("`{name}` in the determinism zone: {why}"),
                );
            }
        }
        // `std::time::…` in paths/uses, without naming a banned type.
        if t.text == "std"
            && is_punct(lexed.toks.get(i + 1), b':')
            && is_punct(lexed.toks.get(i + 2), b':')
            && is_ident(lexed.toks.get(i + 3), "time")
        {
            push(
                out,
                lexed,
                src,
                "determinism-zone",
                path,
                t.line,
                "`std::time` in the determinism zone: wall-clock time is not replayable"
                    .to_string(),
            );
        }
    }
}

/// Family 8 — concurrency confinement.
///
/// No OS concurrency in the determinism zone: the engine is
/// single-threaded (DESIGN.md §9), and a thread, lock, channel, or
/// atomic anywhere in the zone introduces scheduling-dependent
/// behaviour that no single test run reliably catches. More cores are
/// used by running whole independent seeds side by side
/// (`gossip_bench::parallel_trials`), outside the zone. `Arc` is
/// deliberately *not* banned: immutable copy-on-write sharing (payload
/// snapshots) has no ordering component.
fn concurrency_confinement(
    path: &str,
    src: &str,
    lexed: &Lexed,
    spans: &[(usize, usize)],
    out: &mut Vec<Violation>,
) {
    const BANNED: &[&str] = &[
        "Mutex", "RwLock", "Condvar", "Barrier", "OnceLock", "LazyLock", "mpsc",
    ];
    if !in_zone(DETERMINISM_ZONE, path) || is_test_tree(path) {
        return;
    }
    for (i, t) in lexed.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_spans(spans, i) {
            continue;
        }
        if BANNED.contains(&t.text.as_str()) || t.text.starts_with("Atomic") {
            push(
                out,
                lexed,
                src,
                "concurrency-confinement",
                path,
                t.line,
                format!(
                    "`{}` in the determinism zone: no OS concurrency here — the engine is \
                     single-threaded; parallelise across whole runs outside the zone",
                    t.text
                ),
            );
        }
        // `std::thread::…` in paths/uses.
        if t.text == "std"
            && is_punct(lexed.toks.get(i + 1), b':')
            && is_punct(lexed.toks.get(i + 2), b':')
            && is_ident(lexed.toks.get(i + 3), "thread")
        {
            push(
                out,
                lexed,
                src,
                "concurrency-confinement",
                path,
                t.line,
                "`std::thread` in the determinism zone: no OS concurrency here — parallelise \
                 across whole runs outside the zone"
                    .to_string(),
            );
        }
    }
}

/// Family 9 — net confinement.
///
/// Real sockets live in `crates/net` and nowhere else. Everywhere else,
/// code reaches the network through the `gossip_net::Transport`
/// abstraction, which is what keeps every protocol runnable over the
/// deterministic loopback transport (and keeps the loopback equivalence
/// proof meaningful — see DESIGN.md §11). Test code is exempt: tests may
/// bind probe listeners to reserve ports or simulate dead peers.
///
/// A second, tighter ring guards the reactor's epoll shim: raw file
/// descriptors and the `epoll_*` syscall surface (DESIGN.md §14) are
/// confined to `crates/net/src/reactor/` — even the rest of the net
/// crate talks to sockets through `std::net` types and the reactor's
/// safe wrappers, so the crate's one `unsafe` module stays one module.
fn net_confinement(
    path: &str,
    src: &str,
    lexed: &Lexed,
    spans: &[(usize, usize)],
    out: &mut Vec<Violation>,
) {
    /// The crate allowed to own sockets (sources *and* its test trees).
    const NET_CRATE: &str = "crates/net/";
    /// The module allowed to own raw fds and the epoll FFI.
    const REACTOR_DIR: &str = "crates/net/src/reactor/";
    const BANNED: &[&str] = &["TcpStream", "TcpListener", "UdpSocket"];
    const RAW_FD: &[&str] = &[
        "epoll_create1",
        "epoll_ctl",
        "epoll_wait",
        "RawFd",
        "AsRawFd",
        "as_raw_fd",
    ];
    if path.starts_with(REACTOR_DIR) || is_test_tree(path) {
        return;
    }
    let sockets_ok = path.starts_with(NET_CRATE);
    for (i, t) in lexed.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_spans(spans, i) {
            continue;
        }
        if !sockets_ok && BANNED.contains(&t.text.as_str()) {
            push(
                out,
                lexed,
                src,
                "net-confinement",
                path,
                t.line,
                format!(
                    "`{}` outside `crates/net`: socket I/O is confined to the gossip-net \
                     crate; run protocols through its `Transport` API",
                    t.text
                ),
            );
        }
        if RAW_FD.contains(&t.text.as_str()) {
            push(
                out,
                lexed,
                src,
                "net-confinement",
                path,
                t.line,
                format!(
                    "`{}` outside `crates/net/src/reactor`: raw file descriptors and the \
                     epoll shim are confined to the reactor module; use its `Poller` / \
                     readiness API instead",
                    t.text
                ),
            );
        }
        // `std::net::…` in paths/uses, without naming a banned type.
        if !sockets_ok
            && t.text == "std"
            && is_punct(lexed.toks.get(i + 1), b':')
            && is_punct(lexed.toks.get(i + 2), b':')
            && is_ident(lexed.toks.get(i + 3), "net")
        {
            push(
                out,
                lexed,
                src,
                "net-confinement",
                path,
                t.line,
                "`std::net` outside `crates/net`: socket I/O is confined to the gossip-net crate"
                    .to_string(),
            );
        }
    }
}

/// Family 10 — frontier confinement.
///
/// The frontier engine's determinism contract (byte-identical traces
/// whether idle rounds are skipped or visited — DESIGN.md §12) rests
/// on one invariant: frontier membership and round-skipping state are
/// mutated in exactly one place, `sim::engine`'s event loop. Protocols
/// influence scheduling only through the `Context::wake_at`/`wake_in`
/// API. So, inside the determinism zone but outside
/// `crates/sim/src/engine.rs`, naming the scheduling queue type
/// (`CalendarQueue`) or *writing* an `EngineStats` counter field is a
/// confinement breach: the one round loop is the single writer, and a
/// second one could put a node on or off a frontier — or miscount it —
/// in ways no single golden run catches. Reading the counters (they
/// ship on `Outcome.stats`) is fine anywhere.
fn frontier_confinement(
    path: &str,
    src: &str,
    lexed: &Lexed,
    spans: &[(usize, usize)],
    out: &mut Vec<Violation>,
) {
    /// The one zone module allowed to own frontier bookkeeping.
    const ENGINE_MODULE: &str = "crates/sim/src/engine.rs";
    const QUEUES: &[&str] = &["CalendarQueue"];
    const COUNTERS: &[&str] = &[
        "stepped",
        "woken",
        "event_rounds",
        "skipped_rounds",
        "peak_frontier",
    ];
    if !in_zone(DETERMINISM_ZONE, path) || is_test_tree(path) || path == ENGINE_MODULE {
        return;
    }
    for (i, t) in lexed.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_spans(spans, i) {
            continue;
        }
        if QUEUES.contains(&t.text.as_str()) {
            push(
                out,
                lexed,
                src,
                "frontier-confinement",
                path,
                t.line,
                format!(
                    "`{}` outside `sim::engine`: the scheduling queues are frontier \
                     bookkeeping; request wakeups through `Context::wake_at`/`wake_in`",
                    t.text
                ),
            );
        }
        if COUNTERS.contains(&t.text.as_str()) && is_written(lexed, i) {
            push(
                out,
                lexed,
                src,
                "frontier-confinement",
                path,
                t.line,
                format!(
                    "write to engine counter `{}` outside `sim::engine`: `EngineStats` \
                     has exactly one writer, the engine event loop",
                    t.text
                ),
            );
        }
    }
}

/// Family 12 — budget confinement.
///
/// The streaming workloads' accounting (DESIGN.md §16) is meaningful
/// only while it has exactly one writer: `sim::stream` owns the
/// [`BudgetLedger`] debit/credit pair and the [`CompletionLog`]'s
/// per-rumor completion counters, and every protocol goes through
/// `grant`/`spend`/`record`. A write to any of those fields elsewhere
/// in the determinism zone could mint payload units out of thin air or
/// double-count a completion — the completion-time curves would still
/// *look* plausible, so no golden run catches it. Reading the counters
/// (`credits()`, `debits()`, `first_heard()`, `heard()`) is fine
/// anywhere.
fn budget_confinement(
    path: &str,
    src: &str,
    lexed: &Lexed,
    spans: &[(usize, usize)],
    out: &mut Vec<Violation>,
) {
    /// The one zone module allowed to mutate stream accounting.
    const STREAM_MODULE: &str = "crates/sim/src/stream.rs";
    /// The ledger's debit/credit pair.
    const LEDGER: &[&str] = &["credited", "debited"];
    /// The per-rumor completion counters.
    const COMPLETION: &[&str] = &["first_heard", "heard_count"];
    if !in_zone(DETERMINISM_ZONE, path) || is_test_tree(path) || path == STREAM_MODULE {
        return;
    }
    for (i, t) in lexed.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_spans(spans, i) {
            continue;
        }
        if LEDGER.contains(&t.text.as_str()) && (is_written(lexed, i) || is_indexed_write(lexed, i))
        {
            push(
                out,
                lexed,
                src,
                "budget-confinement",
                path,
                t.line,
                format!(
                    "write to budget-ledger field `{}` outside `sim::stream`: payload units \
                     are debited and credited only through `BudgetLedger::grant`/`spend`",
                    t.text
                ),
            );
        }
        if COMPLETION.contains(&t.text.as_str())
            && (is_written(lexed, i) || is_indexed_write(lexed, i))
        {
            push(
                out,
                lexed,
                src,
                "budget-confinement",
                path,
                t.line,
                format!(
                    "write to completion counter `{}` outside `sim::stream`: per-rumor \
                     completions are recorded only through `CompletionLog::record`",
                    t.text
                ),
            );
        }
    }
}

/// Family 11 — exhaustive match.
///
/// The protocol state machines advance on a handful of enums whose
/// variant lists *are* the protocol: `StopReason`, `Scheduling`, and
/// the wire `Frame`. A wildcard `_ =>` arm in a
/// match over one of these silently absorbs any variant added later —
/// the compiler stays quiet, the golden traces stay green, and the new
/// state is simply mishandled. Library code in the match zone must
/// name every variant (a *named* catch-all like `other =>` is allowed:
/// it is a visible, greppable decision, and it still binds the value
/// for logging or error paths).
///
/// Detection is lexical: a match is "critical" when a critical enum
/// name appears in its scrutinee or body (arms name variants through
/// `Enum::Variant` paths, so the enum name is present whenever the
/// match is really over one of these types). Wildcards nested inside
/// tuple or struct patterns (`(_, x) =>`, `Foo { kind: _ } =>`) are
/// fine — only a bare `_ =>` arm at the top level of the match body
/// fires.
fn exhaustive_match(
    path: &str,
    src: &str,
    lexed: &Lexed,
    spans: &[(usize, usize)],
    out: &mut Vec<Violation>,
) {
    /// Crates whose library matches over critical enums must be
    /// exhaustive.
    const MATCH_ZONE: &[&str] = &["crates/core/src/", "crates/sim/src/", "crates/net/src/"];
    /// The enums whose variant lists are protocol surface.
    const CRITICAL_ENUMS: &[&str] = &["StopReason", "Scheduling", "Frame"];
    if !in_zone(MATCH_ZONE, path) || is_test_tree(path) {
        return;
    }
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "match" || in_spans(spans, i) {
            continue;
        }
        // Scrutinee: tokens up to the body-opening `{` at bracket
        // depth 0 (match scrutinees cannot contain bare struct
        // literals, so the first such brace opens the arm list).
        let mut j = i + 1;
        let mut depth = 0i32;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Punct(b'(' | b'[') => depth += 1,
                TokKind::Punct(b')' | b']') => depth -= 1,
                TokKind::Punct(b'{') if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() {
            continue;
        }
        let open = j;
        // Body: through the matching `}`.
        let mut brace = 0i32;
        let mut close = open;
        while close < toks.len() {
            match toks[close].kind {
                TokKind::Punct(b'{') => brace += 1,
                TokKind::Punct(b'}') => {
                    brace -= 1;
                    if brace == 0 {
                        break;
                    }
                }
                _ => {}
            }
            close += 1;
        }
        let critical: Vec<&str> = CRITICAL_ENUMS
            .iter()
            .filter(|&&name| {
                toks[i + 1..close]
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && t.text == name)
            })
            .copied()
            .collect();
        if critical.is_empty() {
            continue;
        }
        // Bare `_ =>` arms at depth 1 of this match's body. Wildcards
        // inside tuple/struct sub-patterns sit at deeper bracket depth
        // or are followed by `,`/`)` rather than `=>`; arms of a
        // nested match sit at brace depth >= 2 and are judged when the
        // iteration reaches that inner `match` token.
        let mut brace = 1i32;
        let mut k = open + 1;
        while k < close {
            match toks[k].kind {
                TokKind::Punct(b'{') => brace += 1,
                TokKind::Punct(b'}') => brace -= 1,
                TokKind::Ident
                    if brace == 1
                        && toks[k].text == "_"
                        && is_punct(toks.get(k + 1), b'=')
                        && is_punct(toks.get(k + 2), b'>') =>
                {
                    push(
                        out,
                        lexed,
                        src,
                        "exhaustive-match",
                        path,
                        toks[k].line,
                        format!(
                            "wildcard `_ =>` arm in a match over protocol-critical enum \
                             ({}): name every variant, or bind a named catch-all",
                            critical.join(", ")
                        ),
                    );
                }
                _ => {}
            }
            k += 1;
        }
    }
}

/// Whether the identifier at token index `i` is the base of an indexed
/// assignment: `x[…] = …` (not `==`), `x[…] += …`, or `x[…] -= …`.
/// Reads through an index (`x[…]` in an expression) don't qualify.
fn is_indexed_write(lexed: &Lexed, i: usize) -> bool {
    if !is_punct(lexed.toks.get(i + 1), b'[') {
        return false;
    }
    let mut depth = 0i32;
    let mut j = i + 1;
    while let Some(t) = lexed.toks.get(j) {
        match t.kind {
            TokKind::Punct(b'[') => depth += 1,
            TokKind::Punct(b']') => {
                depth -= 1;
                if depth == 0 {
                    return is_written(lexed, j);
                }
            }
            _ => {}
        }
        j += 1;
    }
    false
}

/// Whether the identifier at token index `i` is the target of an
/// assignment: `x = …` (not `==`), `x += …`, or `x -= …`.
fn is_written(lexed: &Lexed, i: usize) -> bool {
    let next = lexed.toks.get(i + 1);
    let after = lexed.toks.get(i + 2);
    if is_punct(next, b'=') && !is_punct(after, b'=') {
        return true;
    }
    (is_punct(next, b'+') || is_punct(next, b'-')) && is_punct(after, b'=')
}

/// Family 2 — SAFETY comments.
///
/// Every `unsafe` token (block or fn) must be justified by a comment
/// containing `SAFETY:` on the same line or the two lines above it.
/// Applies everywhere, including tests: an undocumented proof
/// obligation is wrong wherever it lives.
fn safety_comment(path: &str, src: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
    for t in &lexed.toks {
        if t.kind == TokKind::Ident
            && t.text == "unsafe"
            && !lexed.comment_near(t.line, 2, "SAFETY:")
        {
            push(
                out,
                lexed,
                src,
                "safety-comment",
                path,
                t.line,
                "`unsafe` without a `// SAFETY:` comment justifying the invariants".to_string(),
            );
        }
    }
}

/// Family 3 — panic policy.
///
/// Library code must not `.unwrap()`: use `expect("why this cannot
/// fail")` so a panic message identifies the violated invariant, or
/// propagate a real error. `.expect("")` defeats the same purpose.
fn panic_policy(
    path: &str,
    src: &str,
    lexed: &Lexed,
    spans: &[(usize, usize)],
    out: &mut Vec<Violation>,
) {
    if !in_zone(PANIC_ZONE, path) || is_test_tree(path) {
        return;
    }
    for (i, t) in lexed.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_spans(spans, i) {
            continue;
        }
        if t.text == "unwrap"
            && is_punct(lexed.toks.get(i.wrapping_sub(1)), b'.')
            && is_punct(lexed.toks.get(i + 1), b'(')
            && is_punct(lexed.toks.get(i + 2), b')')
        {
            push(
                out,
                lexed,
                src,
                "panic-policy",
                path,
                t.line,
                "bare `.unwrap()` in library code: use `expect(\"invariant…\")` or return an error"
                    .to_string(),
            );
        }
        if t.text == "expect"
            && is_punct(lexed.toks.get(i.wrapping_sub(1)), b'.')
            && is_punct(lexed.toks.get(i + 1), b'(')
            && lexed
                .toks
                .get(i + 2)
                .is_some_and(|a| a.kind == TokKind::Str && a.text.is_empty())
        {
            push(
                out,
                lexed,
                src,
                "panic-policy",
                path,
                t.line,
                "`.expect(\"\")` with an empty message: state the invariant that failed"
                    .to_string(),
            );
        }
    }
}

/// Family 4 — narrowing casts.
///
/// Round and latency arithmetic (`crates/sim`, `crates/core`) must not
/// use `as` to reach an integer type: a silent truncation there skews
/// schedules without failing any assertion. Use `From`/`try_from` with
/// an `expect` naming the invariant, or the engine's `round_to_slot` /
/// `latency_to_index` helpers.
fn narrowing_cast(
    path: &str,
    src: &str,
    lexed: &Lexed,
    spans: &[(usize, usize)],
    out: &mut Vec<Violation>,
) {
    const INT_TYPES: &[&str] = &[
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    ];
    if !in_zone(CAST_ZONE, path) || is_test_tree(path) {
        return;
    }
    for (i, t) in lexed.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "as" || in_spans(spans, i) {
            continue;
        }
        let Some(target) = lexed.toks.get(i + 1) else {
            continue;
        };
        if target.kind == TokKind::Ident && INT_TYPES.contains(&target.text.as_str()) {
            push(
                out,
                lexed,
                src,
                "narrowing-cast",
                path,
                t.line,
                format!(
                    "`as {}` cast in round/latency arithmetic: use a checked conversion \
                     (`try_from(…).expect(…)` or a helper)",
                    target.text
                ),
            );
        }
    }
}

/// Byte spans of attributes (`#[…]` / `#![…]`), as line ranges, used to
/// classify lines when walking upward from a `pub` item.
fn attr_line_spans(lexed: &Lexed) -> Vec<(u32, u32)> {
    let toks = &lexed.toks;
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if is_punct(toks.get(i), b'#') {
            let start_line = toks[i].line;
            let mut j = i + 1;
            if is_punct(toks.get(j), b'!') {
                j += 1;
            }
            if is_punct(toks.get(j), b'[') {
                let mut d = 0i32;
                while j < toks.len() {
                    match toks[j].kind {
                        TokKind::Punct(b'[') => d += 1,
                        TokKind::Punct(b']') => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let end_line = toks.get(j).map_or(start_line, |t| t.line);
                spans.push((start_line, end_line));
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    spans
}

/// Family 5 — doc coverage.
///
/// Every `pub` item in the documented zone must carry a doc comment
/// (`///` above it, possibly separated by attributes). This mirrors
/// `#![warn(missing_docs)]` but runs without compiling and also covers
/// items the compiler lint skips. `pub use` re-exports and restricted
/// visibility (`pub(crate)`, `pub(super)`, `pub(in …)`) are exempt.
fn doc_coverage(
    path: &str,
    src: &str,
    lexed: &Lexed,
    spans: &[(usize, usize)],
    out: &mut Vec<Violation>,
) {
    const ITEM_KINDS: &[&str] = &[
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
    ];
    if !in_zone(DOC_ZONE, path) || is_test_tree(path) {
        return;
    }
    let attr_spans = attr_line_spans(lexed);
    let lines: Vec<&str> = src.lines().collect();
    let doc_lines: Vec<u32> = lexed
        .comments
        .iter()
        .filter(|c| {
            let t = c.text.trim_start();
            t.starts_with("///") || t.starts_with("/**")
        })
        .flat_map(|c| c.line..=c.end_line)
        .collect();

    for (i, t) in lexed.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "pub" || in_spans(spans, i) {
            continue;
        }
        // Restricted visibility is not public API.
        if is_punct(lexed.toks.get(i + 1), b'(') {
            continue;
        }
        // Find the item keyword, skipping qualifiers (`unsafe`, `async`,
        // `const fn`, `extern "C" fn`).
        let mut j = i + 1;
        while is_ident(lexed.toks.get(j), "unsafe")
            || is_ident(lexed.toks.get(j), "async")
            || is_ident(lexed.toks.get(j), "extern")
            || lexed.toks.get(j).is_some_and(|t| t.kind == TokKind::Str)
            || (is_ident(lexed.toks.get(j), "const") && is_ident(lexed.toks.get(j + 1), "fn"))
        {
            j += 1;
        }
        let Some(kw) = lexed.toks.get(j) else {
            continue;
        };
        if kw.kind != TokKind::Ident || !ITEM_KINDS.contains(&kw.text.as_str()) {
            continue; // `pub use`, `pub impl`… — not checked
        }
        // `pub mod name;` (out-of-line module): its documentation lives
        // as `//!` inner docs in the module file, which `missing_docs`
        // checks there — only inline `pub mod name { … }` needs docs at
        // the declaration.
        if kw.text == "mod" && is_punct(lexed.toks.get(j + 2), b';') {
            continue;
        }
        let name = lexed
            .toks
            .get(j + 1)
            .filter(|t| t.kind == TokKind::Ident)
            .map_or("<unnamed>", |t| t.text.as_str());
        // Walk upward from the `pub` line over attributes and blanks;
        // the item is documented iff we land on a doc-comment line.
        let mut l = t.line - 1; // line above the item
        let documented = loop {
            if l == 0 {
                break false;
            }
            if doc_lines.contains(&l) {
                break true;
            }
            let text = lines.get(l as usize - 1).map_or("", |s| s.trim());
            let in_attr = attr_spans.iter().any(|&(a, b)| a <= l && l <= b);
            if text.is_empty() || in_attr {
                l -= 1;
                continue;
            }
            break false;
        };
        if !documented {
            push(
                out,
                lexed,
                src,
                "doc-coverage",
                path,
                t.line,
                format!("public {} `{}` has no doc comment", kw.text, name),
            );
        }
    }
}

/// Family 6 (source half) — import hygiene.
///
/// Library sources must reach vendored crates only through their
/// workspace alias (`rand::…`), never via a `vendor` path segment or
/// `#[path]` trickery.
fn import_hygiene_source(path: &str, src: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
    if path.starts_with("vendor/") {
        return;
    }
    for (i, t) in lexed.toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && t.text == "vendor"
            && (is_punct(lexed.toks.get(i + 1), b':')
                || is_punct(lexed.toks.get(i.wrapping_sub(1)), b':'))
        {
            push(
                out,
                lexed,
                src,
                "import-hygiene",
                path,
                t.line,
                "path through `vendor`: import vendored crates via their workspace alias"
                    .to_string(),
            );
        }
    }
}

/// Family 6 (manifest half) — import hygiene for `Cargo.toml`.
///
/// Member crates must depend on vendored crates via `workspace = true`;
/// only the root `[workspace.dependencies]` table may name a
/// `vendor/…` path (that *is* the alias definition).
pub fn check_manifest(path: &str, src: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let is_root = path == "Cargo.toml";
    let mut section = String::new();
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        let lineno = u32::try_from(idx + 1).expect("line number fits u32");
        if line.starts_with('[') {
            section = line.to_string();
            continue;
        }
        let vendor_path = line.contains("path") && line.contains("vendor/");
        if vendor_path && !(is_root && section == "[workspace.dependencies]") {
            out.push(Violation {
                rule: "import-hygiene",
                path: path.to_string(),
                line: lineno,
                message: "dependency points into vendor/ by path: use `workspace = true` \
                          (the alias lives in the root [workspace.dependencies])"
                    .to_string(),
                snippet: raw.trim().to_string(),
            });
        }
    }
    // Family 7 (manifest half): member crates must opt into the
    // workspace lint set.
    if !is_root && !path.starts_with("vendor/") {
        let has_lints = src
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != "[lints]")
            .any(|l| l.replace(' ', "") == "workspace=true");
        if !has_lints {
            out.push(Violation {
                rule: "lint-hardening",
                path: path.to_string(),
                line: 1,
                message: "crate does not opt into the workspace lint set: add \
                          `[lints]\\nworkspace = true`"
                    .to_string(),
                snippet: src.lines().next().unwrap_or("").trim().to_string(),
            });
        }
    }
    out
}

/// Family 7 (source half) — crate roots must forbid `unsafe_code`.
///
/// `path` must be a crate root (`lib.rs` / `main.rs`); callers select
/// those. The engine is pure safe Rust today; this keeps any future
/// `unsafe` an explicit, reviewed decision (the attribute must be
/// *removed* before the compiler will accept one).
pub fn check_crate_root(path: &str, src: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let lexed = lex(src);
    let has_forbid = src
        .lines()
        .any(|l| l.replace(' ', "").starts_with("#![forbid(unsafe_code)]"));
    if !has_forbid && !allowlisted("lint-hardening", path) {
        push(
            &mut out,
            &lexed,
            src,
            "lint-hardening",
            path,
            1,
            "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_spans_cover_cfg_test_modules() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn after() {}";
        let lexed = lex(src);
        let spans = test_spans(&lexed.toks);
        assert_eq!(spans.len(), 1);
        let unwrap_idx = lexed
            .toks
            .iter()
            .position(|t| t.text == "unwrap")
            .expect("unwrap token present");
        assert!(in_spans(&spans, unwrap_idx));
        let after_idx = lexed
            .toks
            .iter()
            .position(|t| t.text == "after")
            .expect("after token present");
        assert!(!in_spans(&spans, after_idx));
    }

    #[test]
    fn unwrap_in_lib_fires_in_tests_does_not() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }";
        let v = check_rust_file("crates/sim/src/x.rs", src);
        let panics: Vec<_> = v.iter().filter(|v| v.rule == "panic-policy").collect();
        assert_eq!(panics.len(), 1);
        assert_eq!(panics[0].line, 1);
    }

    #[test]
    fn waiver_suppresses() {
        let src = "// tidy:allow(panic-policy): demo\nfn f() { x.unwrap(); }";
        let v = check_rust_file("crates/sim/src/x.rs", src);
        assert!(v.iter().all(|v| v.rule != "panic-policy"));
    }

    #[test]
    fn zone_scoping() {
        let src = "use std::collections::HashMap;";
        assert!(check_rust_file("crates/sim/src/x.rs", src)
            .iter()
            .any(|v| v.rule == "determinism-zone"));
        // Outside the zone: no finding.
        assert!(check_rust_file("crates/bench/src/x.rs", src)
            .iter()
            .all(|v| v.rule != "determinism-zone"));
    }

    #[test]
    fn manifest_vendor_path_flagged_only_outside_root_table() {
        let root = "[workspace.dependencies]\nrand = { path = \"vendor/rand\" }\n";
        assert!(check_manifest("Cargo.toml", root).is_empty());
        let member =
            "[lints]\nworkspace = true\n[dependencies]\nrand = { path = \"../../vendor/rand\" }\n";
        let v = check_manifest("crates/sim/Cargo.toml", member);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "import-hygiene");
    }
}

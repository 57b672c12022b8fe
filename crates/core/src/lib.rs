#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The algorithms of *Gossiping with Latencies*: this crate is the
//! paper's primary contribution, implemented on the
//! [`gossip_sim`] communication model.
//!
//! # Algorithms
//!
//! | Module | Paper | Guarantee |
//! |---|---|---|
//! | [`push_pull`] | Theorem 12 | broadcast in `O((ℓ*/φ*) log n)` w.h.p. |
//! | [`flooding`] | footnote 2 baseline | `O(Δ·D)`-ish; push-only on a star is `Ω(n)` |
//! | [`dtg`] | Appendix C, \[3\] | `ℓ`-local broadcast in `O(ℓ log² n)` |
//! | [`superstep`] | Appendix C, \[1\] | randomized `ℓ`-local broadcast, `O(ℓ log³ n)` |
//! | [`rr_broadcast`] | Algorithm 2, Lemma 15 | spanner flood in `O(k·Δout + k)` |
//! | [`eid`] | Algorithms 3–4, Theorem 19 | all-to-all in `O(D log³ n)` |
//! | [`path_discovery`] | Appendix E, Lemmas 24–26 | all-to-all in `O(D log² n log D)`, no `n̂` needed |
//! | [`discovery`] | Section 4.2 | adjacent-latency discovery in `Õ(D + Δ)` |
//! | [`sparse`] | Section 1 model at scale | on-demand flooding/push, `O(|E|)` total stepping |
//! | [`unified`] | Theorem 20 | `min` of the push-pull and spanner pipelines |
//! | [`termination`] | Algorithm 1, Lemma 18 | distributed termination check; no early stop, unanimous verdict |
//! | [`stream`] | Section 1 model, `k` rumors | budgeted multi-rumor selection policies |
//! | [`gf2`] | algebraic gossip decoder | incremental GF(2) elimination, rank = progress |
//!
//! All algorithms are exercised end to end inside the round simulator —
//! the round counts they report are genuine executions of the model, not
//! formula evaluations.
//!
//! # Example: the unified algorithm picks the right pipeline
//!
//! ```
//! use gossip_core::unified::{self, UnifiedConfig};
//! use latency_graph::generators;
//!
//! // A well-connected graph with bimodal latencies: push-pull wins.
//! let g = generators::bimodal_latencies(&generators::clique(24), 1, 60, 0.3, 5);
//! let report = unified::all_to_all(&g, &UnifiedConfig::default(), 42);
//! assert!(report.best_rounds() > 0);
//! ```

pub mod common;
pub mod discovery;
pub mod dtg;
pub mod eid;
pub mod flooding;
pub mod gf2;
pub mod path_discovery;
pub mod push_pull;
pub mod rr_broadcast;
pub mod sparse;
pub mod stream;
pub mod superstep;
pub mod termination;
pub mod unified;

pub use common::{BroadcastOutcome, Goal, Mergeable};

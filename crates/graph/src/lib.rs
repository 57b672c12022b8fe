#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Weighted-graph substrate for *Gossiping with Latencies*.
//!
//! This crate provides the graph model that the rest of the workspace is
//! built on: undirected graphs whose edges carry integer **latencies**
//! (the number of rounds a bidirectional exchange over the edge takes),
//! together with
//!
//! * [`Graph`] / [`GraphBuilder`] — validated, CSR-backed weighted graphs,
//! * [`DiGraph`] — oriented subgraphs (used for spanner orientations),
//! * [`generators`] — standard families plus the paper's lower-bound
//!   constructions (the guessing-game gadgets of Fig. 1 and the layered
//!   ring of Theorem 8),
//! * [`metrics`] — weighted diameter, hop diameter, degree statistics,
//! * [`conductance`] — the paper's weight-`ℓ` conductance `φ_ℓ`
//!   (Definition 1), the weighted conductance `φ*` and critical latency
//!   `ℓ*` (Definition 2), exact and estimated,
//! * [`profile`] — the incremental multi-threshold conductance
//!   pipeline: latency-sorted CSR, warm-started power iteration, and
//!   the [`profile::ThresholdSet`] resolution policy,
//! * [`induced`] — the strongly edge-induced multiplicity graph `G_ℓ`
//!   used in the proof of Theorem 12.
//!
//! # Example
//!
//! ```
//! use latency_graph::{generators, conductance};
//!
//! // A 12-node cycle with unit latencies.
//! let g = generators::cycle(12);
//! let profile = conductance::exact_conductance_profile(&g).unwrap();
//! let weighted = profile.weighted_conductance().unwrap();
//! assert_eq!(weighted.critical_latency.get(), 1);
//! ```

pub mod conductance;
pub mod digraph;
pub mod error;
pub mod generators;
pub mod graph;
pub mod ids;
pub mod induced;
pub mod io;
pub mod metrics;
pub mod profile;
pub mod spectral;

pub use digraph::DiGraph;
pub use error::GraphError;
pub use graph::{Graph, GraphBuilder};
pub use ids::{Latency, NodeId};

/// SplitMix64 (Steele, Lea and Flood's finalizer): a fixed, seedless
/// 64-bit mixing hash. The workspace's public coins are built on it —
/// the conductance estimator's seeded start vector, the spanner's
/// cluster-sampling coin, and the engine's per-node seeds and
/// tie-breaks — so its output is part of every golden trace and must
/// never change.
///
/// ```
/// assert_eq!(latency_graph::splitmix64(0), 0xE220_A839_7B1D_CDAF);
/// ```
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

//! The experiments, grouped by theme. See the crate docs and
//! `DESIGN.md` for the experiment index.

pub mod conductance_exp;
pub mod dtg_exp;
pub mod eid_exp;
pub mod extensions;
pub mod lower_bounds;
pub mod push_pull_exp;
pub mod ring;
pub mod robustness;
pub mod spanner_exp;
pub mod stream_exp;

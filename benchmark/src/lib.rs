//! The repo benchmark: four workloads, six end-to-end metrics per workload,
//! and a per-layer traced pass, all measured from outside the crates — by
//! timing calls into their public functions. See `README.md` beside this
//! package for why each workload exists and what each metric means.

#![warn(missing_docs)]

pub mod alloc;
pub mod cli;
pub mod host;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;

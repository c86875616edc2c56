//! # wfp — website fingerprinting attack harness
//!
//! Reproduces the adversary of §7: an observer on the client↔guard link
//! recording packet direction, size and timing, trying to identify which of
//! a closed world of sites the client visited. The paper evaluates the
//! Deep Fingerprinting CNN; this crate implements the same experiment with
//! two from-scratch classifiers (k-NN on trace features and Gaussian naive
//! Bayes) and reports the stronger — any competent classifier over
//! direction/size/burst features reproduces Table 1's accuracy staircase
//! (see DESIGN.md).
//!
//! * [`trace`] — the adversary's view: a timestamped, directional record.
//! * [`features`] — the feature vector (volumes, bursts, direction
//!   signature, timing).
//! * [`knn`], [`bayes`] — the classifiers.
//! * [`browse`] — a client-side page fetcher over Tor (the *undefended*
//!   baseline: the traffic dynamics fingerprinting feeds on).
//! * [`collect`] — run the full network simulation under a given defense
//!   and harvest labeled traces.
//! * [`eval`] — closed-world train/test evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bayes;
pub mod browse;
pub mod collect;
pub mod eval;
pub mod features;
pub mod knn;
pub mod trace;

pub use collect::{collect_traces, CollectConfig, Defense};
pub use eval::{closed_world_accuracy, evaluate, Classifier, EvalReport};
pub use trace::Trace;

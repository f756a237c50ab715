//! Baseline autoscalers reproduced for comparison (§6.1).
//!
//! * [`grandslam`] — GrandSLAm \[22\]: latency targets proportional to each
//!   microservice's *mean* latency across workloads;
//! * [`rhythm`] — Rhythm \[45\]: per-microservice contribution as the
//!   normalised product of mean latency, latency variance, and the
//!   correlation between microservice latency and end-to-end latency;
//! * [`firm`] — Firm \[35\]: critical-component localisation per critical
//!   path plus an incremental (RL-style) tuner that adjusts the bottleneck
//!   microservice's containers step by step;
//! * [`stats`] — the latency statistics those heuristics consume, derived
//!   by sweeping the ground-truth latency profiles across workloads.
//!
//! All baselines size containers through the same back-end as Erms
//! ([`erms_core::scaling::invert_profile`]) — schemes differ only in how
//! latency *targets* are chosen, so comparisons isolate the decision
//! quality, exactly as in the paper's evaluation.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod firm;
pub mod grandslam;
pub mod rhythm;
pub mod stats;
pub mod targets;

pub use firm::Firm;
pub use grandslam::GrandSlam;
pub use rhythm::Rhythm;

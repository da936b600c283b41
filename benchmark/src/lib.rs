//! The repository benchmark as a library, so the smoke test can read the
//! declarations; `main.rs` is the command line.

pub mod decl;
pub mod expected;
pub mod hostclock;
pub mod json;
pub mod kernels;
pub mod layers;
pub mod measure;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;

//! The repository's benchmark: four workloads driven through the public
//! system-call surface, measured on two clocks (virtual and wall), with a
//! separately traced run for per-layer numbers.
//!
//! Everything the benchmark knows about the program lives in [`sut`]; the
//! other modules see only that adapter. `README.md` next to this package
//! describes the workloads, every metric and how to read the output.

#![forbid(unsafe_code)]

pub mod driver;
pub mod model;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workload;

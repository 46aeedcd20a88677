//! # saath-bench
//!
//! The reproduction harness: one function per table and figure of the
//! paper's evaluation (§2.3, §6, §7, Appendix A), shared by the `repro`
//! binary and the workspace integration tests. Table 2's
//! schedule-compute latencies come from `repro table2` (by phase, on
//! the FB trace) and `repro scale` (by phase and cluster size, committed
//! to `BENCH_scalability.json`).
//!
//! Run `cargo run -p saath-bench --release --bin repro -- all` to
//! regenerate every experiment; each also writes CSV under `results/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod diff;
pub mod figs;
pub mod lab;

pub use lab::Lab;

//! # saath-simulator
//!
//! The trace-replay simulator of the Saath reproduction — the Rust
//! equivalent of the paper's 4 KLoC C++ fluid simulator (§6).
//!
//! ## Model
//!
//! * **Big-switch fabric** with congestion only at the `2N` edge ports
//!   (uplink + downlink per node), 1 Gbps each unless the trace says
//!   otherwise. Stragglers scale a node's port capacity; failures
//!   restart its flows.
//! * **δ-quantized coordination**: the global scheduler recomputes rates
//!   at every δ boundary (default 8 ms — "the time required to send 1 MB
//!   at a port"). Between boundaries, local ports *comply with the
//!   previous schedule* (§5): a flow that completes mid-interval frees
//!   capacity that stays idle until the next boundary, and a CoFlow that
//!   arrives mid-interval waits for one. That is exactly the staleness
//!   the δ-sensitivity experiment (Fig 14c) measures.
//! * **Event-exact fluid advance** between boundaries: integer
//!   arithmetic computes each flow's completion analytically, so results
//!   are deterministic and independent of any tick size.
//!
//! ## Entry points
//!
//! [`simulate`] drives one scheduler over one trace. [`Policy`] is a
//! factory covering every scheduler in the workspace, so harness code
//! can sweep them uniformly: [`run_policy`] builds, runs, and returns
//! the per-CoFlow records that `saath-metrics` consumes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod policy;
pub(crate) mod snapshot;

pub use engine::{
    simulate, simulate_reference, simulate_resumable, ReplayHooks, SimConfig, SimError, SimOutput,
};
pub use policy::{run_policy, Policy};

//! # saath-fabric
//!
//! The network substrate of the Saath reproduction: a *big-switch*
//! model of a datacenter fabric, exactly as the paper (and Varys/Aalo
//! before it) assumes — full bisection bandwidth in the core, congestion
//! only at the `2N` edge ports (each node's uplink and downlink,
//! 1 Gbps each by default).
//!
//! Everything a CoFlow scheduler does to the network reduces to *rate
//! allocation*: deciding, for every flow, how many bytes per second it
//! may move, subject to per-port capacity. This crate provides the
//! allocation primitives the schedulers share:
//!
//! * [`PortBank`] — per-port capacity and remaining-capacity accounting
//!   for one scheduling round;
//! * [`gang`] — Saath's equal-rate *all-or-none* CoFlow allocation
//!   (§4.2-D2: "the rate of the slowest flow is assigned to all the
//!   flows") and the greedy per-flow allocation used for work
//!   conservation and for Aalo's independent ports;
//! * [`madd`] — Varys' Minimum-Allocation-for-Desired-Duration for
//!   clairvoyant baselines;
//! * [`maxmin`] — global max-min fairness (progressive filling), the
//!   UC-TCP baseline's "what TCP would converge to" approximation.
//!
//! All primitives are pure functions over integer rates — no wall-clock,
//! no I/O — so they are trivially testable and deterministic.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gang;
pub mod madd;
pub mod maxmin;
pub mod port;

pub use gang::{
    footprint_gang_allocate, footprint_gang_rate, footprint_into, gang_allocate, gang_rate,
    gang_rate_with, greedy_fill, greedy_fill_into, FlowEndpoints,
};
pub use madd::{
    bottleneck_time, bottleneck_time_with, madd_rates, madd_rates_into, madd_rates_with,
    MaddScratch,
};
pub use maxmin::{max_min_fair, max_min_fair_into, MaxMinScratch};
pub use port::PortBank;

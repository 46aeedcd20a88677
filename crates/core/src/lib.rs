//! # saath-core
//!
//! The paper's contribution and every baseline it is evaluated against,
//! behind one trait:
//!
//! * [`saath::Saath`] — the online scheduler this reproduction is about:
//!   **all-or-none** gang admission (§3.1), **per-flow queue
//!   thresholds** (§3.2, Eq. 1), **Least-Contention-First** ordering
//!   (§3.3), work conservation (D4), FIFO-derived starvation deadlines
//!   (D5), and the SRTF-style re-queue heuristic for cluster dynamics
//!   (§4.3). Ablation flags expose the A/N and A/N+PF configurations of
//!   Fig 10.
//! * [`aalo::Aalo`] — the prior-art online scheduler (SIGCOMM'15) as the
//!   Saath paper models it: global priority queues by total bytes sent,
//!   ports acting independently with strict priority + FIFO.
//! * [`offline::OfflineScheduler`] — the clairvoyant orderings: SEBF
//!   (= Varys), SCF, SRTF, and LWTF, all allocating with MADD plus
//!   greedy backfill.
//! * [`uctcp::UcTcp`] — the uncoordinated baseline: every flow gets its
//!   global max-min fair share, approximating per-flow TCP.
//!
//! A scheduler is a pure policy: each round it receives a
//! [`view::ClusterView`] (what the coordinator knows) and a
//! [`saath_fabric::PortBank`] of capacities, and fills a
//! [`view::Schedule`] of per-flow rates. The simulator and the
//! distributed runtime both drive the same implementations, so
//! simulation and "testbed" numbers come from identical policy code —
//! as in the paper, where the simulator mirrors the deployed scheduler.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aalo;
pub mod common;
pub mod config;
pub mod offline;
pub mod order;
pub mod saath;
pub mod timing;
pub mod uctcp;
pub mod view;

pub use aalo::Aalo;
pub use config::QueueConfig;
pub use offline::{OfflinePolicy, OfflineScheduler};
pub use saath::{Saath, SaathConfig};
pub use timing::SchedTimings;
pub use uctcp::UcTcp;
pub use view::{ClusterView, CoflowScheduler, CoflowView, FlowView, Schedule};

//! # saath-runtime
//!
//! The distributed half of the Saath reproduction: a real **global
//! coordinator** and real **local agents** exchanging framed messages,
//! the architecture of Fig 6 and §5. Where `saath-simulator` models the
//! coordination loop analytically, this crate *runs* it: agents (one
//! per node, as the paper's agents are one per machine) enforce rates
//! on emulated NICs, report flow statistics every δ — the flows still
//! in flight, and each finish once, so every per-δ step costs what is
//! live rather than the trace's history — and comply with the last
//! schedule until a new one arrives; the coordinator's policy keeps
//! nothing the latest reports do not give it again, the property the
//! paper uses for failover ("since the coordinator makes scheduling
//! decisions on the latest flow stats … it is easy … to recover from
//! failures"). Its observation table is soft state with a rebuild
//! path: a restarted coordinator asks the agents for one full wave (see
//! [`coordinator`]).
//!
//! This is the substitute for the paper's 150-node Azure testbed
//! (§7): the observable behaviour that determines CCTs — pipelined
//! δ-interval coordination, schedule staleness, per-flow rate
//! enforcement, restarts — is reproduced; moving real gigabits is not,
//! because a token-bucket byte counter drains exactly like a socket
//! under the fluid model. An [`transport::Transport`] abstraction lets
//! the same coordinator/agent code run over in-process channels (fast,
//! used by tests) or real TCP sockets with length-prefixed frames
//! (`bytes`-based, used by the `testbed_emulation` example).
//!
//! There is one code path per job. Agents are [`agent::AgentCore`] state
//! machines with one driver, [`host::run_agent_host`], which runs
//! [`EmulationConfig::multiplex`] of them per thread over one link
//! (default 1). The coordinator is one epoch loop
//! ([`coordinator::run_coordinator`]: drain stats → complete CoFlows,
//! build views → schedule → push → publish), and there is one
//! coordinator, as in the paper (§4.1). Counters and latencies go to
//! one plane, the [`MetricsHub`].
//!
//! Time runs on a scaled clock ([`clock::EmuClock`]): one wall second
//! is `scale` simulated seconds, so an hour-long trace replays in
//! seconds while every δ-interval mechanism still executes for real.

#![warn(missing_docs)]
// `deny`, not `forbid`: the `poll` module carries a scoped
// `#[allow(unsafe_code)]` for its single libc-level `poll(2)`
// declaration — the readiness primitive behind the multiplexed agent
// host. Everything else in the crate remains unsafe-free.
#![deny(unsafe_code)]

pub mod agent;
pub mod clock;
pub mod coordinator;
pub mod harness;
pub mod host;
pub mod metrics;
pub mod poll;
pub mod proto;
pub mod transport;

pub use clock::EmuClock;
pub use harness::{emulate, EmulationConfig, EmulationReport, TransportKind};
pub use host::run_agent_host;
pub use metrics::{MetricsHub, MetricsServer};
pub use transport::TransportStats;

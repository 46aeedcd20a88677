//! # saath-simcore
//!
//! Deterministic discrete-event simulation substrate for the Saath
//! (CoNEXT'17) reproduction.
//!
//! The Saath paper evaluates its CoFlow scheduler with a 4 KLoC C++
//! fluid-flow simulator. This crate provides the foundations that
//! simulator needs, with two hard guarantees the rest of the workspace
//! relies on:
//!
//! * **Determinism.** All quantities are integers: [`Time`] and
//!   [`Duration`] are nanoseconds, [`Bytes`] are bytes, [`Rate`] is
//!   bytes/second. Completion times and queue-threshold crossings are
//!   computed with ceiling division, so two runs with the same seed are
//!   bit-identical on every platform — no floating-point drift, and no
//!   iteration-order surprises (the [`event::EventQueue`] breaks ties
//!   with a monotone sequence number).
//! * **No wall-clock dependence.** Nothing here reads the system clock;
//!   simulated time only advances when the caller advances it.
//!
//! The crate is intentionally dependency-light (only `serde`'s derives
//! for serializable records; the seeded generator is its own) in the
//! spirit of the smoltcp design notes: simplicity and robustness over
//! cleverness.
//!
//! ## Layout
//!
//! * [`codec`] — the bounds-checked byte cursor and append helpers every
//!   binary format reads and writes through.
//! * [`time`] — [`Time`] / [`Duration`] newtypes and grid quantization
//!   (the coordinator's δ interval lives on this grid).
//! * [`units`] — [`Bytes`] and [`Rate`] plus exact transfer arithmetic.
//! * [`event`] — a deterministic event queue with stable tie-breaking.
//! * [`fasthash`] — a non-cryptographic hasher ([`FastHashMap`] /
//!   [`FastHashSet`]) for the schedulers' internal integer-keyed maps.
//! * [`rng`] — named, seed-derived random streams so adding a new
//!   consumer never perturbs existing ones.
//! * [`ids`] — typed identifiers shared across the workspace
//!   ([`CoflowId`], [`FlowId`], [`NodeId`], [`PortId`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod event;
pub mod fasthash;
pub mod ids;
pub mod rng;
pub mod time;
pub mod units;

pub use event::EventQueue;
pub use fasthash::{FastHashMap, FastHashSet};
pub use ids::{CoflowId, FlowId, JobId, NodeId, PortId};
pub use rng::DetRng;
pub use time::{Duration, Time};
pub use units::{Bytes, Rate};

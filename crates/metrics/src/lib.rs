//! # saath-metrics
//!
//! The evaluation toolbox of the Saath reproduction: per-CoFlow result
//! records, percentile/CDF statistics, speedup distributions, the
//! paper's Table-1 size×width binning, the normalized FCT-deviation
//! analysis of §2.3, and plain-text/CSV table rendering for the
//! reproduction harness.
//!
//! Everything operates on [`CoflowRecord`]s — what one simulator or
//! testbed run says about one CoFlow — so the same analysis code serves
//! simulations, the runtime emulation, and unit tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bins;
pub mod deviation;
pub mod record;
pub mod speedup;
pub mod stats;
pub mod table;
pub mod telemetry_report;

pub use bins::{bin_of, Bin};
pub use record::CoflowRecord;
pub use speedup::{speedups, SpeedupSummary};
pub use stats::{cdf_points, mean, median, percentile};
pub use telemetry_report::{
    avg_p90_ms, engine_table, eventlog_line, mech_breakdown_line, mech_table, phase_table,
};

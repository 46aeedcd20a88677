//! The out-of-sync analysis of §2.3 (Figs 2 and 13).
//!
//! For each multi-flow CoFlow, the paper measures the standard deviation
//! of its flows' completion times, normalized by their mean — a direct
//! readout of how far out of sync the flows finished. The same statistic
//! over ground-truth flow *lengths* (Fig 2b) separates inherent
//! unevenness from scheduler-induced skew.

use crate::record::CoflowRecord;
use crate::stats::{mean, stddev};

/// `stddev / mean` of a sample set; `None` for fewer than two samples or
/// a zero mean.
pub fn normalized_deviation(samples: &[f64]) -> Option<f64> {
    if samples.len() < 2 {
        return None;
    }
    let m = mean(samples)?;
    if m <= 0.0 {
        return None;
    }
    Some(stddev(samples)? / m)
}

/// Normalized FCT deviation of one CoFlow (Fig 2c / Fig 13), `None`
/// for single-flow CoFlows (the paper excludes them).
pub fn fct_deviation(r: &CoflowRecord) -> Option<f64> {
    let fcts: Vec<f64> = r.flow_fcts.iter().map(|d| d.as_nanos() as f64).collect();
    normalized_deviation(&fcts)
}

/// Normalized flow-*length* deviation of one CoFlow (Fig 2b).
pub fn length_deviation(r: &CoflowRecord) -> Option<f64> {
    let sizes: Vec<f64> = r.flow_sizes.iter().map(|s| s.as_u64() as f64).collect();
    normalized_deviation(&sizes)
}

/// The two populations Figs 2c and 13 plot: normalized FCT deviations of
/// multi-flow CoFlows, split into (equal-flow-length, unequal).
pub fn fct_deviation_split(records: &[CoflowRecord]) -> (Vec<f64>, Vec<f64>) {
    let mut equal = Vec::new();
    let mut unequal = Vec::new();
    for r in records {
        if let Some(d) = fct_deviation(r) {
            if r.has_equal_flows() {
                equal.push(d);
            } else {
                unequal.push(d);
            }
        }
    }
    (equal, unequal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saath_simcore::{Bytes, CoflowId, Duration, Time};

    fn rec(fcts_ms: &[u64], sizes_mb: &[u64]) -> CoflowRecord {
        CoflowRecord {
            id: CoflowId(0),
            job: None,
            arrival: Time::ZERO,
            released: Time::ZERO,
            finish: Time::from_millis(*fcts_ms.iter().max().unwrap_or(&0)),
            width: fcts_ms.len(),
            total_bytes: Bytes::mb(sizes_mb.iter().sum()),
            flow_fcts: fcts_ms.iter().map(|&m| Duration::from_millis(m)).collect(),
            flow_sizes: sizes_mb.iter().map(|&m| Bytes::mb(m)).collect(),
        }
    }

    #[test]
    fn perfectly_synced_flows_have_zero_deviation() {
        let r = rec(&[100, 100, 100], &[1, 1, 1]);
        assert_eq!(fct_deviation(&r), Some(0.0));
        assert_eq!(length_deviation(&r), Some(0.0));
    }

    #[test]
    fn out_of_sync_flows_have_positive_deviation() {
        // Flows finishing at t and 2t: mean 1.5t, stddev 0.5t → 1/3.
        let r = rec(&[100, 200], &[1, 1]);
        let d = fct_deviation(&r).unwrap();
        assert!((d - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_flow_coflows_are_excluded() {
        let r = rec(&[100], &[1]);
        assert_eq!(fct_deviation(&r), None);
        assert_eq!(normalized_deviation(&[]), None);
        assert_eq!(normalized_deviation(&[0.0, 0.0]), None, "zero mean");
    }

    #[test]
    fn split_separates_equal_and_unequal() {
        let records = vec![
            rec(&[100, 100], &[1, 1]), // equal lengths, synced
            rec(&[100, 300], &[1, 5]), // unequal lengths
            rec(&[100], &[1]),         // single flow: dropped
        ];
        let (eq, uneq) = fct_deviation_split(&records);
        assert_eq!(eq.len(), 1);
        assert_eq!(uneq.len(), 1);
        assert_eq!(eq[0], 0.0);
        assert!(uneq[0] > 0.4);
    }
}

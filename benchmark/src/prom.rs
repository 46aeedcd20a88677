//! Reads the Prometheus text page `EmulationReport.metrics` returns.
//! Only the few series the per-layer metrics need; a series the page
//! does not carry reads as `None`, never as zero.

/// The value of the sample line that is exactly `series` (name plus
/// label body, as rendered) followed by an integer.
pub fn sample(page: &str, series: &str) -> Option<u64> {
    page.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        l.strip_prefix(series)?
            .strip_prefix(' ')?
            .trim()
            .parse()
            .ok()
    })
}

/// Mean of a latency phase in microseconds, from its `_sum` and
/// `_count` lines (nanoseconds). `None` when either line is missing or
/// the count is zero.
pub fn phase_mean_us(page: &str, phase: &str) -> Option<f64> {
    let sum = sample(
        page,
        &format!("saath_epoch_phase_ns_sum{{phase=\"{phase}\"}}"),
    )?;
    let count = sample(
        page,
        &format!("saath_epoch_phase_ns_count{{phase=\"{phase}\"}}"),
    )?;
    (count > 0).then(|| sum as f64 / count as f64 / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: &str = "\
# --- deterministic ---
# HELP saath_coord_epochs_total Schedule epochs pushed by the coordinator
# TYPE saath_coord_epochs_total counter
saath_coord_epochs_total 42
saath_coord_stats_msgs_total 4200
saath_transport_bytes_sent_total{link=\"agent\"} 123456
saath_transport_bytes_sent_total{link=\"shard\"} 9
# --- wall-clock (nondeterministic values, stable layout) ---
saath_epoch_phase_ns{phase=\"coord_schedule\",quantile=\"0.5\"} 255
saath_epoch_phase_ns_count{phase=\"coord_schedule\"} 4
saath_epoch_phase_ns_sum{phase=\"coord_schedule\"} 10000
saath_epoch_phase_ns_count{phase=\"coord_broadcast\"} 0
saath_epoch_phase_ns_sum{phase=\"coord_broadcast\"} 0
saath_epoch_phase_ns_count{phase=\"agent_apply\"} 3
";

    #[test]
    fn samples_match_the_whole_series_name() {
        assert_eq!(sample(PAGE, "saath_coord_epochs_total"), Some(42));
        assert_eq!(
            sample(PAGE, "saath_transport_bytes_sent_total{link=\"agent\"}"),
            Some(123456)
        );
        // A prefix of another series' name is not that series.
        assert_eq!(sample(PAGE, "saath_coord_epochs"), None);
        assert_eq!(sample(PAGE, "saath_transport_bytes_sent_total"), None);
        // Comment lines never match.
        assert_eq!(sample(PAGE, "# HELP saath_coord_epochs_total"), None);
    }

    #[test]
    fn phase_mean_needs_both_lines_and_a_nonzero_count() {
        assert_eq!(phase_mean_us(PAGE, "coord_schedule"), Some(2.5));
        // Absent series: omitted, not zero.
        assert_eq!(phase_mean_us(PAGE, "coord_obs_recv"), None);
        // `_sum` line missing.
        assert_eq!(phase_mean_us(PAGE, "agent_apply"), None);
        // Present but never observed.
        assert_eq!(phase_mean_us(PAGE, "coord_broadcast"), None);
    }
}

//! End-of-run telemetry rendering: turns a [`Telemetry`] handle (and a
//! policy's [`MechCounters`]) into the harness's standard [`Table`]s,
//! plus the one-line per-policy mechanism breakdown `repro trace`
//! prints (e.g. "saath: 412 queue transitions, 9 deadline rescues,
//! 3.1% stale heap pops") and the event-log summary line.

use crate::table::Table;
use saath_telemetry::{Counter, Hist, LogHist, MechCounters, Telemetry};

fn hist_cells(name: &str, h: &Hist) -> [String; 6] {
    [
        name.to_string(),
        h.count.to_string(),
        h.min.to_string(),
        format!("{:.1}", h.mean()),
        h.max.to_string(),
        "-".into(),
    ]
}

fn loghist_cells(name: &str, h: &LogHist) -> [String; 6] {
    [
        name.to_string(),
        h.count.to_string(),
        h.p50().to_string(),
        format!("{:.1}", h.mean()),
        h.max.to_string(),
        h.p99().to_string(),
    ]
}

/// Renders the engine-side counters and histograms as one table.
///
/// Set-size histograms ([`Hist`]) report count/min/mean/max;
/// wall-time histograms ([`LogHist`]) report count/p50/mean/max/p99
/// (the `min` column doubles as p50 — the header names both).
pub fn engine_table(policy: &str, tele: &Telemetry) -> Table {
    let mut t = Table::new(
        format!("engine telemetry — {policy}"),
        &["counter", "count", "min|p50", "mean", "max", "p99"],
    );
    for (name, v) in tele.counter_rows() {
        // Counters have no distribution; fill the stat columns with "-".
        t.row(&[
            name.to_string(),
            v.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
    }
    t.row(&[
        "stale_pop_ratio".to_string(),
        format!("{:.3}", tele.stale_pop_ratio()),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    for (name, h) in [
        ("dirty_set_size", &tele.dirty_set),
        ("heap_len", &tele.heap_len),
        ("active_coflows", &tele.active_coflows),
    ] {
        if h.count > 0 {
            t.row(&hist_cells(name, h));
        }
    }
    if tele.round_wall_ns.count > 0 {
        t.row(&loghist_cells("round_wall_ns", &tele.round_wall_ns));
    }
    for (name, h) in tele.spans.rows() {
        t.row(&loghist_cells(&format!("span:{name}"), h));
    }
    t
}

/// Renders a per-phase latency table (p50/p90/p99/max in
/// milliseconds, plus sample count) from any span profiler — the
/// scheduler's `SchedTimings::spans` or a `Telemetry`'s engine spans.
pub fn phase_table(title: &str, spans: &saath_telemetry::SpanProfiler) -> Table {
    let mut t = Table::new(
        format!("phase latency — {title}"),
        &["phase", "count", "p50 ms", "p90 ms", "p99 ms", "max ms"],
    );
    let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
    for (name, h) in spans.rows() {
        t.row(&[
            name.to_string(),
            h.count.to_string(),
            ms(h.p50()),
            ms(h.p90()),
            ms(h.p99()),
            ms(h.max),
        ]);
    }
    t
}

/// Renders a policy's mechanism counters (paper levers D1–D5).
pub fn mech_table(policy: &str, mech: &MechCounters) -> Table {
    let mut t = Table::new(
        format!("mechanism counters — {policy}"),
        &["mechanism", "count"],
    );
    for (name, v) in mech.rows() {
        t.row(&[name.to_string(), v.to_string()]);
    }
    t
}

/// The one-line per-policy breakdown `repro trace` prints.
pub fn mech_breakdown_line(policy: &str, mech: &MechCounters, tele: &Telemetry) -> String {
    format!(
        "{policy}: {} queue transitions, {} deadline rescues, {} gang rejections, \
         {} wc backfills, {:.1}% stale heap pops, mean dirty set {:.1}",
        mech.queue_transitions,
        mech.deadline_expiries,
        mech.gang_rejections,
        mech.wc_backfills,
        tele.stale_pop_ratio() * 100.0,
        tele.dirty_set.mean(),
    )
}

/// The one-line event-log summary `repro trace` prints under the
/// mechanism breakdown: the four event-log counters plus the stale-pop
/// ratio, so log overhead and heap health are visible without the full
/// engine table.
pub fn eventlog_line(policy: &str, tele: &Telemetry) -> String {
    format!(
        "{policy}: eventlog {} rounds appended, {} bytes written, {} snapshots, \
         {} chain verifies, {:.1}% stale heap pops",
        tele.counter(Counter::LogRoundsAppended),
        tele.counter(Counter::LogBytesWritten),
        tele.counter(Counter::LogSnapshots),
        tele.counter(Counter::LogChainVerifies),
        tele.stale_pop_ratio() * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use saath_telemetry::{Counter, Phase};

    #[test]
    fn tables_render_without_samples() {
        let tele = Telemetry::new();
        let t = engine_table("saath", &tele);
        let txt = t.render();
        assert!(txt.contains("heap_pushes"));
        assert!(txt.contains("stale_pop_ratio"));
        // The event-log counters are first-class rows.
        assert!(txt.contains("log_rounds_appended"));
        assert!(txt.contains("log_bytes_written"));
        assert!(txt.contains("log_snapshots"));
        assert!(txt.contains("log_chain_verifies"));
        // Histograms with no samples are omitted.
        assert!(!txt.contains("round_wall_ns"));

        let m = mech_table("saath", &MechCounters::default());
        assert!(m.render().contains("queue_transitions"));
    }

    #[test]
    fn engine_table_shows_wall_time_percentiles() {
        let mut tele = Telemetry::new();
        for v in [1_000u64, 2_000, 4_000] {
            tele.round_wall_ns.observe(v);
        }
        tele.spans.observe(Phase::EngineViewSync, 10_000);
        let txt = engine_table("saath", &tele).render();
        assert!(txt.contains("round_wall_ns"));
        assert!(txt.contains("span:engine_view_sync"));
    }

    #[test]
    fn phase_table_renders_ms_columns() {
        let mut spans = saath_telemetry::SpanProfiler::new();
        spans.observe(Phase::SchedTotal, 2_000_000); // 2 ms
        spans.observe(Phase::SchedOrder, 500_000);
        let txt = phase_table("saath", &spans).render();
        assert!(txt.contains("sched_total"));
        assert!(txt.contains("sched_order"));
        assert!(txt.contains("p99 ms"));
    }

    #[test]
    fn breakdown_line_mentions_the_mechanisms() {
        let mut tele = Telemetry::new();
        tele.incr(Counter::HeapPopStale);
        tele.incr(Counter::HeapPopCurrent);
        let mech = MechCounters {
            queue_transitions: 412,
            deadline_expiries: 9,
            ..Default::default()
        };
        let line = mech_breakdown_line("saath", &mech, &tele);
        assert!(line.starts_with("saath: 412 queue transitions, 9 deadline rescues"));
        if saath_telemetry::enabled() {
            assert!(line.contains("50.0% stale heap pops"));
        }
    }

    #[test]
    fn eventlog_line_surfaces_all_four_counters() {
        let mut tele = Telemetry::new();
        tele.add(Counter::LogRoundsAppended, 12);
        tele.add(Counter::LogBytesWritten, 3456);
        tele.add(Counter::LogSnapshots, 2);
        tele.incr(Counter::LogChainVerifies);
        let line = eventlog_line("saath", &tele);
        if saath_telemetry::enabled() {
            assert!(line.contains("12 rounds appended"));
            assert!(line.contains("3456 bytes written"));
            assert!(line.contains("2 snapshots"));
            assert!(line.contains("1 chain verifies"));
        } else {
            assert!(line.contains("0 rounds appended"));
        }
    }
}

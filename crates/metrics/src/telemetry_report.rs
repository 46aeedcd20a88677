//! End-of-run telemetry rendering: turns a [`Telemetry`] handle (and a
//! policy's [`MechCounters`]) into the harness's standard [`Table`]s,
//! plus the one-line per-policy mechanism breakdown `repro trace`
//! prints (e.g. "saath: 412 queue transitions, 9 deadline rescues, …,
//! 7.7 flows in 1.4 rate classes per step") and the event-log summary
//! line.

use crate::table::Table;
use saath_telemetry::{Counter, LogHist, MechCounters, SpanProfiler, Telemetry};

fn loghist_cells(name: &str, h: &LogHist) -> [String; 7] {
    [
        name.to_string(),
        h.count.to_string(),
        h.min.to_string(),
        h.p50().to_string(),
        format!("{:.1}", h.mean()),
        h.max.to_string(),
        h.p99().to_string(),
    ]
}

/// Renders the engine-side counters and histograms as one table:
/// set sizes in their own unit, `span:` rows in nanoseconds.
pub fn engine_table(policy: &str, tele: &Telemetry) -> Table {
    let mut t = Table::new(
        format!("engine telemetry — {policy}"),
        &["counter", "count", "min", "p50", "mean", "max", "p99"],
    );
    // Counters have no distribution; fill the stat columns with "-".
    let mut scalar = |name: &str, value: String| {
        let mut cells = vec![name.to_string(), value];
        cells.resize(7, "-".into());
        t.row(&cells);
    };
    for (name, v) in tele.counter_rows() {
        scalar(name, v.to_string());
    }
    for (name, h) in [
        ("dirty_set_size", &tele.dirty_set),
        ("pending_flows", &tele.pending),
        ("active_coflows", &tele.active_coflows),
        ("step_classes", &tele.step_classes),
        ("step_flows", &tele.step_flows),
    ] {
        if h.count > 0 {
            t.row(&loghist_cells(name, h));
        }
    }
    for (name, h) in tele.spans.rows() {
        t.row(&loghist_cells(&format!("span:{name}"), h));
    }
    t
}

/// `(average, p90)` of a nanosecond histogram, in milliseconds — the
/// two numbers the paper's Table 2 reports per phase. The average is
/// exact (`sum / count`); the P90 is the histogram's conservative
/// bucket bound (≤ 12.5 % over, never under).
pub fn avg_p90_ms(h: &LogHist) -> (f64, f64) {
    (h.mean() / 1e6, h.p90() as f64 / 1e6)
}

/// Renders a per-phase latency table (p50/p90/p99/max in
/// milliseconds, plus sample count) from any span profiler — the
/// scheduler's `SchedTimings::spans` or a `Telemetry`'s engine spans.
pub fn phase_table(title: &str, spans: &SpanProfiler) -> Table {
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
         {} wc backfills, mean dirty set {:.1}, {:.1} flows in {:.1} rate classes per step",
        mech.queue_transitions,
        mech.deadline_expiries,
        mech.gang_rejections,
        mech.wc_backfills,
        tele.dirty_set.mean(),
        tele.step_flows.mean(),
        tele.step_classes.mean(),
    )
}

/// The one-line event-log summary `repro trace` prints under the
/// mechanism breakdown: the four event-log counters, so log overhead is
/// visible without the full engine table.
pub fn eventlog_line(policy: &str, tele: &Telemetry) -> String {
    format!(
        "{policy}: eventlog {} rounds appended, {} bytes written, {} snapshots, \
         {} chain verifies",
        tele.counter(Counter::LogRoundsAppended),
        tele.counter(Counter::LogBytesWritten),
        tele.counter(Counter::LogSnapshots),
        tele.counter(Counter::LogChainVerifies),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use saath_telemetry::{Counter, Phase};

    #[test]
    fn tables_render_without_samples() {
        let txt = engine_table("saath", &Telemetry::new()).render();
        assert!(txt.contains("class_joins"));
        // Histograms with no samples are omitted.
        assert!(!txt.contains("pending_flows"));
        assert!(!txt.contains("span:"));

        let m = mech_table("saath", &MechCounters::default());
        assert!(m.render().contains("queue_transitions"));
    }

    /// Golden string: set sizes and spans share one row shape with
    /// real `min` and `p50` columns (one histogram type, one renderer).
    #[test]
    fn engine_table_golden() {
        let mut tele = Telemetry::new();
        for v in [3u64, 5, 40] {
            tele.dirty_set.observe(v);
        }
        tele.pending.observe(7);
        for v in [1_000u64, 2_000, 4_000] {
            tele.spans.observe(Phase::EngineRound, v);
        }
        assert_eq!(
            engine_table("saath", &tele).render(),
            "== engine telemetry — saath ==\n\
             counter              count  min   p50   mean    max   p99\n\
             ----------------------------------------------------------\n\
             class_joins          0      -     -     -       -     -\n\
             sched_rounds         0      -     -     -       -     -\n\
             rounds_elided        0      -     -     -       -     -\n\
             rounds_jumped        0      -     -     -       -     -\n\
             log_rounds_appended  0      -     -     -       -     -\n\
             log_bytes_written    0      -     -     -       -     -\n\
             log_snapshots        0      -     -     -       -     -\n\
             log_chain_verifies   0      -     -     -       -     -\n\
             dirty_set_size       3      3     5     16.0    40    40\n\
             pending_flows        1      7     7     7.0     7     7\n\
             span:engine_round    3      1000  2047  2333.3  4000  4000\n"
        );
    }

    #[test]
    fn phase_table_golden() {
        let mut spans = SpanProfiler::new();
        for ns in [1_500_000u64, 2_000_000, 40_000_000] {
            spans.observe(Phase::SchedTotal, ns);
        }
        spans.observe(Phase::SchedOrder, 500_000);
        assert_eq!(
            phase_table("saath", &spans).render(),
            "== phase latency — saath ==\n\
             phase        count  p50 ms  p90 ms  p99 ms  max ms\n\
             --------------------------------------------------\n\
             sched_total  3      2.097   40.000  40.000  40.000\n\
             sched_order  1      0.500   0.500   0.500   0.500\n"
        );
        let (avg, p90) = avg_p90_ms(spans.hist(Phase::SchedTotal));
        assert!((avg - 14.5).abs() < 1e-9, "exact mean, got {avg}");
        assert_eq!(p90, 40.0);
        assert_eq!(avg_p90_ms(&LogHist::new()), (0.0, 0.0));
    }

    #[test]
    fn breakdown_line_mentions_the_mechanisms() {
        let mut tele = Telemetry::new();
        for (classes, flows) in [(1u64, 4u64), (2, 11)] {
            tele.step_classes.observe(classes);
            tele.step_flows.observe(flows);
        }
        let mech = MechCounters {
            queue_transitions: 412,
            deadline_expiries: 9,
            ..Default::default()
        };
        let line = mech_breakdown_line("saath", &mech, &tele);
        assert!(line.starts_with("saath: 412 queue transitions, 9 deadline rescues"));
        assert!(line.ends_with("7.5 flows in 1.5 rate classes per step"));
    }

    #[test]
    fn eventlog_line_surfaces_all_four_counters() {
        let mut tele = Telemetry::new();
        tele.add(Counter::LogRoundsAppended, 12);
        tele.add(Counter::LogBytesWritten, 3456);
        tele.add(Counter::LogSnapshots, 2);
        tele.incr(Counter::LogChainVerifies);
        let line = eventlog_line("saath", &tele);
        assert!(line.contains("12 rounds appended"));
        assert!(line.contains("3456 bytes written"));
        assert!(line.contains("2 snapshots"));
        assert!(line.contains("1 chain verifies"));
    }
}

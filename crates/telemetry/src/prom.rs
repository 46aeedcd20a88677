//! Deterministic Prometheus text exposition (format 0.0.4).
//!
//! One renderer for the whole workspace, so the runtime's `/metrics`
//! endpoint and the bench `--metrics-out` dumps share a single layout
//! discipline:
//!
//! - **Families appear in the order the caller emits them** and series
//!   within a family in the order given — callers are expected to feed
//!   sorted series (the runtime hub iterates `BTreeMap`s), which makes
//!   the whole page byte-stable for a given metric state.
//! - **Values are integers only.** Deterministic series (message
//!   counts, bytes, epochs) are exactly reproducible across runs;
//!   wall-time families (nanosecond histograms) are integers too but
//!   vary run to run, so they are emitted under an explicit
//!   `wall-clock` section banner — a diff of two expositions separates
//!   "the run behaved differently" from "the run was merely
//!   slower/faster".
//! - Latency histograms render as Prometheus summaries with quantile
//!   labels `0.5`/`0.9`/`0.99`/`1` (the last is the exact max), plus
//!   `_count` and `_sum` series.
//!
//! The vendored serde is an API stub, so — like every other artifact
//! in the workspace — the exposition is hand-formatted.

use crate::SpanProfiler;
use std::fmt::Write as _;

/// An in-progress Prometheus text page.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    /// An empty page.
    pub fn new() -> PromText {
        PromText::default()
    }

    /// Emits a section banner comment separating metric groups (used
    /// to fence deterministic families from wall-clock families).
    pub fn section(&mut self, title: &str) {
        let _ = writeln!(self.out, "# --- {title} ---");
    }

    fn family(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    fn series(&mut self, name: &str, labels: &str, value: u64) {
        if labels.is_empty() {
            let _ = writeln!(self.out, "{name} {value}");
        } else {
            let _ = writeln!(self.out, "{name}{{{labels}}} {value}");
        }
    }

    /// Emits one counter family. `series` pairs are
    /// `(rendered-labels, value)` with `""` for an unlabeled series;
    /// the caller supplies them pre-sorted.
    pub fn counter(&mut self, name: &str, help: &str, series: &[(&str, u64)]) {
        self.family(name, help, "counter");
        for (labels, v) in series {
            self.series(name, labels, *v);
        }
    }

    /// Emits one gauge family (same conventions as [`PromText::counter`]).
    pub fn gauge(&mut self, name: &str, help: &str, series: &[(&str, u64)]) {
        self.family(name, help, "gauge");
        for (labels, v) in series {
            self.series(name, labels, *v);
        }
    }

    /// Emits one summary family with a `phase` label per phase that
    /// has samples, in display order: quantile series 0.5/0.9/0.99/1
    /// (1 = exact max) plus `_count`/`_sum`. Nothing at all when no
    /// phase has samples.
    pub fn phase_summary(&mut self, name: &str, help: &str, spans: &SpanProfiler) {
        let rows = spans.rows();
        if rows.is_empty() {
            return;
        }
        self.family(name, help, "summary");
        for (phase, h) in &rows {
            for (q, v) in [
                ("0.5", h.p50()),
                ("0.9", h.p90()),
                ("0.99", h.p99()),
                ("1", h.max),
            ] {
                let _ = writeln!(self.out, "{name}{{phase=\"{phase}\",quantile=\"{q}\"}} {v}");
            }
        }
        for (phase, h) in &rows {
            let _ = writeln!(self.out, "{name}_count{{phase=\"{phase}\"}} {}", h.count);
            let _ = writeln!(self.out, "{name}_sum{{phase=\"{phase}\"}} {}", h.sum);
        }
    }

    /// The finished page.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Renders `labels` as a Prometheus label body (`k1="v1",k2="v2"`).
/// Values must not contain `"` or `\` — the workspace only labels by
/// identifiers and small integers, so no escaping is implemented.
pub fn label_body(labels: &[(&str, &str)]) -> String {
    let mut s = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{k}=\"{v}\"");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The golden layout test: a synthetic page must render
    /// byte-stable — family order = emission order, series order =
    /// caller order, integer values only, quantile ladder fixed.
    #[test]
    fn exposition_layout_is_byte_stable() {
        let mut spans = SpanProfiler::new();
        for v in [100u64, 200, 400] {
            spans.observe(crate::Phase::CoordSchedule, v);
        }
        let mut p = PromText::new();
        p.section("deterministic");
        p.counter(
            "saath_coord_epochs_total",
            "Coordinator sync epochs completed",
            &[("", 42)],
        );
        p.counter(
            "saath_host_ready_events_total",
            "Readiness wake-ups observed by the host loop",
            &[("host=\"0\"", 7), ("host=\"1\"", 9)],
        );
        p.gauge(
            "saath_host_agents",
            "Emulated agents multiplexed on this agent host",
            &[("host=\"0\"", 0), ("host=\"1\"", 2)],
        );
        p.section("wall-clock (nondeterministic values, stable layout)");
        p.phase_summary(
            "saath_epoch_phase_ns",
            "Epoch lifecycle phase latency in nanoseconds",
            &spans,
        );
        let got = p.finish();
        let want = "\
# --- deterministic ---
# HELP saath_coord_epochs_total Coordinator sync epochs completed
# TYPE saath_coord_epochs_total counter
saath_coord_epochs_total 42
# HELP saath_host_ready_events_total Readiness wake-ups observed by the host loop
# TYPE saath_host_ready_events_total counter
saath_host_ready_events_total{host=\"0\"} 7
saath_host_ready_events_total{host=\"1\"} 9
# HELP saath_host_agents Emulated agents multiplexed on this agent host
# TYPE saath_host_agents gauge
saath_host_agents{host=\"0\"} 0
saath_host_agents{host=\"1\"} 2
# --- wall-clock (nondeterministic values, stable layout) ---
# HELP saath_epoch_phase_ns Epoch lifecycle phase latency in nanoseconds
# TYPE saath_epoch_phase_ns summary
saath_epoch_phase_ns{phase=\"coord_schedule\",quantile=\"0.5\"} 207
saath_epoch_phase_ns{phase=\"coord_schedule\",quantile=\"0.9\"} 400
saath_epoch_phase_ns{phase=\"coord_schedule\",quantile=\"0.99\"} 400
saath_epoch_phase_ns{phase=\"coord_schedule\",quantile=\"1\"} 400
saath_epoch_phase_ns_count{phase=\"coord_schedule\"} 3
saath_epoch_phase_ns_sum{phase=\"coord_schedule\"} 700
";
        assert_eq!(got, want);
    }

    #[test]
    fn label_body_renders_pairs_in_order() {
        assert_eq!(label_body(&[]), "");
        assert_eq!(label_body(&[("host", "3")]), "host=\"3\"");
        assert_eq!(label_body(&[("a", "1"), ("b", "x")]), "a=\"1\",b=\"x\"");
    }
}

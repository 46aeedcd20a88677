//! Metric names and units, the one-line JSON result a run ends with,
//! and the reader the all-workloads driver uses on its children's
//! lines.

use crate::workloads::Family;

/// Which workloads' runs enter the code a metric measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum On {
    All,
    Sim,
    Emu,
}

impl On {
    pub fn covers(self, family: Family) -> bool {
        matches!(
            (self, family),
            (On::All, _) | (On::Sim, Family::Sim) | (On::Emu, Family::Emu { .. })
        )
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// End to end: the family the issue defined the metric for; every
    /// workload still measures and prints it, because the driver wants
    /// every name from every workload, and the all-workloads table
    /// marks the other family's value with `*`. Per layer: the family
    /// whose run enters the layer; there a missing value is a failed
    /// check, elsewhere the metric prints 0.
    pub on: On,
}

const fn m(name: &'static str, unit: &'static str, on: On) -> Metric {
    Metric { name, unit, on }
}

/// Every end-to-end metric, in print order. Each is a median over the
/// suite's runs.
pub const END_TO_END: [Metric; 9] = [
    m("setup_s", "s", On::All),
    m("sim_rounds_per_s", "1/s", On::Sim),
    m("avg_cct_s", "sim_s", On::Sim),
    m("cct_speedup_p50", "x", On::Sim),
    m("cct_speedup_p90", "x", On::Sim),
    m("cct_inflation", "ratio", On::Emu),
    m("epoch_busy_p50_ms", "ms", On::Emu),
    m("emu_wall_s", "s", On::Emu),
    m("peak_rss_mb", "MB", On::All),
];

/// Every per-layer metric (traced invocation).
pub const PER_LAYER: [Metric; 42] = [
    m("workload.gen_s", "s", On::All),
    m("core.sched_s", "s", On::All),
    m("core.sched_share", "ratio", On::All),
    m("core.round_p50_us", "us", On::All),
    m("core.round_p99_us", "us", On::All),
    m("core.active_coflows_p50", "count", On::All),
    m("core.active_flows_p50", "count", On::All),
    m("core.granted_flows_mean", "count", On::All),
    m("core.round_rebuild_p50_us", "us", On::All),
    m("core.round_rebuild_p99_us", "us", On::All),
    m("core.rebuild_over_incremental", "ratio", On::All),
    m("fabric.madd_ns_per_flow", "ns", On::All),
    m("fabric.gang_rate_ns_per_flow", "ns", On::All),
    m("fabric.bank_reset_ns_per_port", "ns", On::All),
    m("simulator.rounds", "count", On::Sim),
    m("simulator.engine_s", "s", On::Sim),
    m("simulator.engine_ns_per_round", "ns", On::Sim),
    m("runtime.epochs", "count", On::Emu),
    m("runtime.epoch_period_p50_ms", "ms", On::Emu),
    m("runtime.epoch_busy_p90_ms", "ms", On::Emu),
    m("runtime.epoch_busy_p99_ms", "ms", On::Emu),
    m("runtime.epoch_sched_p50_us", "us", On::Emu),
    m("runtime.epoch_nonsched_p50_ms", "ms", On::Emu),
    m("runtime.obs_recv_mean_us", "us", On::Emu),
    m("runtime.schedule_mean_us", "us", On::Emu),
    m("runtime.broadcast_mean_us", "us", On::Emu),
    m("runtime.agent_apply_mean_us", "us", On::Emu),
    m("runtime.sched_bytes_per_epoch", "B", On::Emu),
    m("runtime.stats_frames_per_epoch", "count", On::Emu),
    m("runtime.epoch_unattributed_share", "ratio", On::Emu),
    m("runtime.agent_epochs_min_share", "ratio", On::Emu),
    m("runtime.proto_sched_encode_ns_per_rate", "ns", On::Emu),
    m("runtime.proto_sched_decode_ns_per_rate", "ns", On::Emu),
    m("runtime.proto_stats_encode_ns_per_flow", "ns", On::Emu),
    m("runtime.proto_stats_decode_ns_per_flow", "ns", On::Emu),
    m("runtime.tcp_frame_rtt_us", "us", On::Emu),
    m("runtime.tcp_idle_poll_us", "us", On::Emu),
    m("runtime.tcp_drain_wave_us", "us", On::Emu),
    m("runtime.inproc_frame_us", "us", On::Emu),
    m("runtime.agent_apply_us", "us", On::Emu),
    m("runtime.agent_advance_ns_per_flow", "ns", On::Emu),
    m("bench.trace_overhead_pct", "%", On::All),
];

/// What one invocation on one workload found.
#[derive(Debug, Default, PartialEq)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// CoFlows × runs.
    pub attempted: u64,
    /// CoFlows left unfinished, or belonging to a run that hit its
    /// deadline or failed a check.
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
    /// Why checks failed, for the human reader (not in the JSON line).
    pub faults: Vec<String>,
}

impl Outcome {
    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Reads a line [`Outcome::json_line`] wrote. Not a JSON parser: it
    /// knows this one shape.
    pub fn parse(line: &str) -> Option<Outcome> {
        let field = |key: &str| {
            let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
            Some(&rest[..rest.find([',', '}'])?])
        };
        let (_, mut rest) = line.split_once("\"metrics\": {")?;
        let mut metrics = Vec::new();
        while let Some(open) = rest.find('"') {
            rest = &rest[open + 1..];
            let (name, tail) = rest.split_once("\": {\"value\": ")?;
            let (value, tail) = tail.split_once(", \"unit\": \"")?;
            let (unit, tail) = tail.split_once("\"}")?;
            metrics.push((name.to_string(), value.parse().ok()?, unit.to_string()));
            rest = tail;
        }
        Some(Outcome {
            correct: field("correct")? == "true",
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            metrics,
            faults: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_round_trips() {
        let o = Outcome {
            correct: true,
            attempted: 1200,
            failed: 3,
            metrics: vec![
                ("setup_s".into(), 0.8127, "s".into()),
                ("sim_rounds_per_s".into(), 123456.75, "1/s".into()),
                ("bench.trace_overhead_pct".into(), -0.5, "%".into()),
            ],
            faults: Vec::new(),
        };
        let line = o.json_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1200, \"failed\": 3, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"sim_rounds_per_s\": {\"value\": 123456.75, \"unit\": \"1/s\"}, \
             \"bench.trace_overhead_pct\": {\"value\": -0.5, \"unit\": \"%\"}}}"
        );
        assert_eq!(Outcome::parse(&line), Some(o));
        assert_eq!(Outcome::parse("cargo said something else"), None);
    }

    #[test]
    fn benchmark_json_names_what_the_program_prints() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let names = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| (m.name, m.unit))
            .chain(crate::workloads::WORKLOADS.iter().map(|w| (w.name, "")));
        let mut expected = 0;
        for (name, unit) in names {
            expected += 1;
            let entry = format!("\"name\": \"{name}\"");
            assert!(
                manifest.contains(&entry),
                "{name} missing from BENCHMARK.json"
            );
            if !unit.is_empty() {
                let with_unit = format!("{entry}, \"unit\": \"{unit}\"");
                assert!(
                    manifest.contains(&with_unit),
                    "{name} has another unit there"
                );
            }
        }
        assert_eq!(manifest.matches("\"name\": ").count(), expected);
        for w in &crate::workloads::WORKLOADS {
            assert!(manifest.contains(w.why), "{}: another reason there", w.name);
        }
    }
}

//! One function per table/figure of the paper. Each returns the
//! rendered text (what `repro` prints) and writes CSV artifacts.

use crate::diff::Json;
use crate::lab::{Lab, Workload};
use saath_core::SaathConfig;
use saath_metrics::record::join_runs;
use saath_metrics::table::{fmt_pct, fmt_x, Table};
use saath_metrics::{
    bins, cdf_points, deviation, percentile, speedups, CoflowRecord, SpeedupSummary,
};
use saath_simulator::Policy;
use saath_telemetry::Phase;
use saath_workload::transform::scale_arrivals;

fn cdf_csv(samples: &[f64]) -> String {
    let mut out = String::from("value,cdf\n");
    for (v, p) in cdf_points(samples) {
        out.push_str(&format!("{v},{p}\n"));
    }
    out
}

/// **Fig 2** — the out-of-sync problem under Aalo (§2.3): (a) flows per
/// CoFlow, (b) normalized σ of flow lengths, (c) normalized σ of FCTs
/// for equal- and unequal-length multi-flow CoFlows.
pub fn fig2(lab: &mut Lab) -> String {
    let trace = lab.trace(Workload::Fb).clone();
    let aalo = lab.run(Workload::Fb, &Policy::aalo()).to_vec();

    // (a) width distribution of the trace itself (empty-trace safe).
    let widths: Vec<f64> = trace.coflows.iter().map(|c| c.width() as f64).collect();
    let n = widths.len().max(1) as f64;
    let single = widths.iter().filter(|&&w| w == 1.0).count() as f64 / n;
    let equal = trace
        .coflows
        .iter()
        .filter(|c| c.width() > 1 && c.has_equal_flows())
        .count() as f64
        / n;
    let uneven = 1.0 - single - equal;

    // (b) flow-length deviation per CoFlow (ground truth).
    let len_dev: Vec<f64> = aalo
        .iter()
        .filter_map(deviation::length_deviation)
        .collect();

    // (c) FCT deviation under Aalo, split.
    let (eq_dev, uneq_dev) = deviation::fct_deviation_split(&aalo);

    lab.write_csv("fig2a_width_cdf.csv", &cdf_csv(&widths));
    lab.write_csv("fig2b_length_dev_cdf.csv", &cdf_csv(&len_dev));
    lab.write_csv("fig2c_fct_dev_equal_cdf.csv", &cdf_csv(&eq_dev));
    lab.write_csv("fig2c_fct_dev_unequal_cdf.csv", &cdf_csv(&uneq_dev));

    let mut t = Table::new(
        "Fig 2 — out-of-sync under Aalo (FB trace)",
        &["metric", "paper", "measured"],
    );
    t.row(&["single-flow CoFlows".into(), "23%".into(), fmt_pct(single)]);
    t.row(&["multi, equal-length".into(), "50%".into(), fmt_pct(equal)]);
    t.row(&["multi, uneven-length".into(), "27%".into(), fmt_pct(uneven)]);
    t.row(&[
        "P50 FCT deviation (equal)".into(),
        ">12%".into(),
        fmt_pct(percentile(&eq_dev, 50.0).unwrap_or(0.0)),
    ]);
    t.row(&[
        "P80 FCT deviation (equal)".into(),
        ">39%".into(),
        fmt_pct(percentile(&eq_dev, 80.0).unwrap_or(0.0)),
    ]);
    t.row(&[
        "P50 FCT deviation (uneven)".into(),
        ">27%".into(),
        fmt_pct(percentile(&uneq_dev, 50.0).unwrap_or(0.0)),
    ]);
    t.row(&[
        "P80 FCT deviation (uneven)".into(),
        ">50%".into(),
        fmt_pct(percentile(&uneq_dev, 80.0).unwrap_or(0.0)),
    ]);
    t.render()
}

/// **Fig 3** — offline SCF vs SRTF vs LWTF speedups over Aalo, with
/// CoFlow sizes known (§2.4): contention-awareness beats pure SJF.
pub fn fig3(lab: &mut Lab) -> String {
    let aalo = lab.run(Workload::Fb, &Policy::aalo()).to_vec();
    let mut t = Table::new(
        "Fig 3 — clairvoyant orderings over Aalo (FB trace)",
        &["policy", "P25", "median", "P75", "overall CCT speedup"],
    );
    for policy in [Policy::Scf, Policy::Srtf, Policy::Lwtf] {
        let ours = lab.run(Workload::Fb, &policy).to_vec();
        let per = speedups(&aalo, &ours);
        let s = SpeedupSummary::compute(&aalo, &ours).unwrap();
        lab.write_csv(
            &format!("fig3_{}_speedup_cdf.csv", policy.name()),
            &cdf_csv(&per),
        );
        t.row(&[
            policy.name().into(),
            fmt_x(percentile(&per, 25.0).unwrap()),
            fmt_x(s.median),
            fmt_x(percentile(&per, 75.0).unwrap()),
            fmt_x(s.overall),
        ]);
    }
    t.render()
}

/// **Fig 9** — Saath speedup over Aalo, Varys (SEBF) and UC-TCP on both
/// workloads (median with P10/P90 error bars).
pub fn fig9(lab: &mut Lab) -> String {
    let mut t = Table::new(
        "Fig 9 — per-CoFlow CCT speedup of Saath over other schedulers",
        &[
            "trace",
            "baseline",
            "P10",
            "median",
            "P90",
            "paper median (P90)",
        ],
    );
    for w in [Workload::Fb, Workload::Osp] {
        let saath = lab.run(w, &Policy::saath()).to_vec();
        for (base, paper) in [
            (
                Policy::aalo(),
                if w == Workload::Fb {
                    "1.53x (4.5x)"
                } else {
                    "1.42x (37x)"
                },
            ),
            (Policy::Varys, "~1x (Saath ≈ offline SEBF)"),
            (
                Policy::UcTcp,
                if w == Workload::Fb { "154x" } else { "121x" },
            ),
        ] {
            let baseline = lab.run(w, &base).to_vec();
            let s = SpeedupSummary::compute(&baseline, &saath).unwrap();
            let per = speedups(&baseline, &saath);
            lab.write_csv(
                &format!("fig9_{}_vs_{}.csv", w.label(), base.name()),
                &cdf_csv(&per),
            );
            t.row(&[
                w.label().into(),
                base.name().into(),
                fmt_x(s.p10),
                fmt_x(s.median),
                fmt_x(s.p90),
                paper.into(),
            ]);
        }
    }
    t.render()
}

/// The three Fig 10 design points.
fn breakdown_policies() -> [(&'static str, Policy); 3] {
    [
        ("A/N", Policy::Saath(SaathConfig::ablation_an())),
        ("A/N+P/F", Policy::Saath(SaathConfig::ablation_an_pf())),
        ("Saath (A/N+P/F+LCoF)", Policy::saath()),
    ]
}

/// **Fig 10** — speedup breakdown across the three design ideas.
pub fn fig10(lab: &mut Lab) -> String {
    let mut t = Table::new(
        "Fig 10 — breakdown of Saath's ideas (speedup over Aalo)",
        &["trace", "design", "median", "P90"],
    );
    for w in [Workload::Fb, Workload::Osp] {
        let aalo = lab.run(w, &Policy::aalo()).to_vec();
        for (label, p) in breakdown_policies() {
            let ours = lab.run(w, &p).to_vec();
            let s = SpeedupSummary::compute(&aalo, &ours).unwrap();
            t.row(&[
                w.label().into(),
                label.into(),
                fmt_x(s.median),
                fmt_x(s.p90),
            ]);
        }
    }
    t.render()
}

fn fig_bins(lab: &mut Lab, w: Workload, title: &str, csv: &str) -> String {
    let aalo = lab.run(w, &Policy::aalo()).to_vec();
    let mut t = Table::new(title, &["design", "bin-1", "bin-2", "bin-3", "bin-4"]);
    let mut fracs_row: Option<Vec<String>> = None;
    let mut csv_out = String::from("design,bin,fraction,median_speedup\n");
    for (label, p) in breakdown_policies() {
        let ours = lab.run(w, &p).to_vec();
        let joined = join_runs(&aalo, &ours);
        let pairs: Vec<(bins::Bin, f64)> = joined
            .iter()
            .map(|(_, b, s)| {
                (
                    bins::bin_of(b),
                    b.cct().as_nanos() as f64 / s.cct().as_nanos() as f64,
                )
            })
            .collect();
        let groups = bins::group_by_bin(&pairs);
        let mut row = vec![label.to_string()];
        for (i, (g, frac)) in groups.iter().enumerate() {
            let med = percentile(g, 50.0).unwrap_or(f64::NAN);
            row.push(fmt_x(med));
            csv_out.push_str(&format!("{label},bin-{},{frac},{med}\n", i + 1));
        }
        if fracs_row.is_none() {
            let mut fr = vec!["(bin fraction)".to_string()];
            fr.extend(groups.iter().map(|(_, f)| fmt_pct(*f)));
            fracs_row = Some(fr);
        }
        t.row(&row);
    }
    if let Some(fr) = fracs_row {
        t.row(&fr);
    }
    lab.write_csv(csv, &csv_out);
    t.render()
}

/// **Fig 11** — per-bin breakdown, FB trace (Table 1 bins).
pub fn fig11(lab: &mut Lab) -> String {
    fig_bins(
        lab,
        Workload::Fb,
        "Fig 11 — median speedup over Aalo by size×width bin (FB)",
        "fig11_bins.csv",
    )
}

/// **Fig 12** — per-bin breakdown, OSP trace.
pub fn fig12(lab: &mut Lab) -> String {
    fig_bins(
        lab,
        Workload::Osp,
        "Fig 12 — median speedup over Aalo by size×width bin (OSP)",
        "fig12_bins.csv",
    )
}

/// **Fig 13** — normalized FCT deviation, Saath vs Aalo (FB): Saath's
/// gang scheduling collapses the out-of-sync spread.
pub fn fig13(lab: &mut Lab) -> String {
    let aalo = lab.run(Workload::Fb, &Policy::aalo()).to_vec();
    let saath = lab.run(Workload::Fb, &Policy::saath()).to_vec();
    let (a_eq, a_uneq) = deviation::fct_deviation_split(&aalo);
    let (s_eq, s_uneq) = deviation::fct_deviation_split(&saath);
    lab.write_csv("fig13_aalo_equal.csv", &cdf_csv(&a_eq));
    lab.write_csv("fig13_saath_equal.csv", &cdf_csv(&s_eq));
    lab.write_csv("fig13_aalo_unequal.csv", &cdf_csv(&a_uneq));
    lab.write_csv("fig13_saath_unequal.csv", &cdf_csv(&s_uneq));

    let frac0 = |v: &[f64]| saath_metrics::stats::fraction_at_most(v, 1e-9);
    let frac10 = |v: &[f64]| saath_metrics::stats::fraction_at_most(v, 0.10);
    let mut t = Table::new(
        "Fig 13 — normalized FCT deviation of multi-flow CoFlows (FB)",
        &["metric", "paper", "Aalo", "Saath"],
    );
    t.row(&[
        "equal-length, fully in sync (dev = 0)".into(),
        "20% → 40%".into(),
        fmt_pct(frac0(&a_eq)),
        fmt_pct(frac0(&s_eq)),
    ]);
    t.row(&[
        "equal-length, dev < 10%".into(),
        "47% → 71%".into(),
        fmt_pct(frac10(&a_eq)),
        fmt_pct(frac10(&s_eq)),
    ]);
    t.row(&[
        "uneven-length median dev".into(),
        "(lower is better)".into(),
        fmt_pct(percentile(&a_uneq, 50.0).unwrap_or(0.0)),
        fmt_pct(percentile(&s_uneq, 50.0).unwrap_or(0.0)),
    ]);
    t.render()
}

/// **Fig 14** — sensitivity analysis. `panel` is one of
/// `s, e, delta, a, d` (or `all`).
pub fn fig14(lab: &mut Lab, panel: &str) -> String {
    let mut out = String::new();
    let run_all = panel == "all";

    // Baseline: default Aalo on the unmodified trace at default δ.
    let base = lab.run(Workload::Fb, &Policy::aalo()).to_vec();
    let med = |records: &[CoflowRecord]| {
        SpeedupSummary::compute(&base, records)
            .map(|s| s.median)
            .unwrap_or(f64::NAN)
    };

    if run_all || panel == "s" {
        let mut t = Table::new(
            "Fig 14(a) — start queue threshold S (speedup vs default Aalo)",
            &["S", "Aalo", "Saath"],
        );
        for mb in [1u64, 10, 100, 1000, 10_000] {
            let q = saath_core::QueueConfig {
                first_threshold: saath_simcore::Bytes::mb(mb),
                ..Default::default()
            };
            let aalo = lab.run(Workload::Fb, &Policy::Aalo(q.clone())).to_vec();
            let saath = lab
                .run_named_saath(
                    Workload::Fb,
                    &format!("s={mb}"),
                    SaathConfig {
                        queues: q,
                        ..Default::default()
                    },
                )
                .to_vec();
            t.row(&[format!("{mb} MB"), fmt_x(med(&aalo)), fmt_x(med(&saath))]);
        }
        out.push_str(&t.render());
    }

    if run_all || panel == "e" {
        let mut t = Table::new(
            "Fig 14(b) — threshold growth factor E",
            &["E", "Aalo", "Saath"],
        );
        for e in [2u64, 4, 8, 16, 32] {
            let q = saath_core::QueueConfig {
                growth: e,
                ..Default::default()
            };
            let aalo = lab.run(Workload::Fb, &Policy::Aalo(q.clone())).to_vec();
            let saath = lab
                .run_named_saath(
                    Workload::Fb,
                    &format!("e={e}"),
                    SaathConfig {
                        queues: q,
                        ..Default::default()
                    },
                )
                .to_vec();
            t.row(&[format!("{e}"), fmt_x(med(&aalo)), fmt_x(med(&saath))]);
        }
        out.push_str(&t.render());
    }

    if run_all || panel == "delta" {
        let mut t = Table::new(
            "Fig 14(c) — coordination interval δ",
            &["δ", "Aalo", "Saath"],
        );
        for ms in [1u64, 8, 50, 200, 1000] {
            let ns = ms * 1_000_000;
            let aalo = lab
                .run_with_delta(Workload::Fb, &Policy::aalo(), ns)
                .to_vec();
            let saath = lab
                .run_with_delta(Workload::Fb, &Policy::saath(), ns)
                .to_vec();
            t.row(&[format!("{ms} ms"), fmt_x(med(&aalo)), fmt_x(med(&saath))]);
        }
        out.push_str(&t.render());
    }

    if run_all || panel == "a" {
        let mut t = Table::new(
            "Fig 14(d) — arrival compression A (contention; vs default Aalo at A=1)",
            &["A", "Aalo", "Saath", "Saath/Aalo"],
        );
        for (num, den) in [(1u64, 2u64), (1, 1), (2, 1), (4, 1)] {
            let trace = scale_arrivals(lab.trace(Workload::Fb), num, den);
            let aalo = lab.run_trace(&trace, &Policy::aalo(), 8_000_000);
            let saath = lab.run_trace(&trace, &Policy::saath(), 8_000_000);
            let rel = SpeedupSummary::compute(&aalo, &saath)
                .map(|s| s.median)
                .unwrap();
            t.row(&[
                format!("{:.1}", num as f64 / den as f64),
                fmt_x(med(&aalo)),
                fmt_x(med(&saath)),
                fmt_x(rel),
            ]);
        }
        out.push_str(&t.render());
    }

    if run_all || panel == "d" {
        let mut t = Table::new("Fig 14(e) — starvation deadline factor d", &["d", "Saath"]);
        for d in [1u64, 2, 4, 8, 16] {
            let saath = lab
                .run_named_saath(
                    Workload::Fb,
                    &format!("d={d}"),
                    SaathConfig {
                        deadline_factor: d,
                        ..Default::default()
                    },
                )
                .to_vec();
            t.row(&[format!("{d}"), fmt_x(med(&saath))]);
        }
        out.push_str(&t.render());
    }
    out
}

/// The lab's FB trace folded onto at most `nodes_cap` nodes (node `i`
/// becomes `i % nodes_cap`), which preserves contention: the
/// emulations run on fewer agents than the trace has nodes.
/// `nodes_cap` must be positive (`repro` refuses `--nodes 0`).
fn folded_fb_trace(lab: &Lab, nodes_cap: usize) -> saath_workload::Trace {
    assert!(nodes_cap > 0, "cannot fold a trace onto 0 nodes");
    let mut trace = lab.trace(Workload::Fb).clone();
    if trace.num_nodes > nodes_cap {
        for c in &mut trace.coflows {
            for f in &mut c.flows {
                f.src = saath_simcore::NodeId(f.src.0 % nodes_cap as u32);
                f.dst = saath_simcore::NodeId(f.dst.0 % nodes_cap as u32);
            }
        }
        trace.num_nodes = nodes_cap;
    }
    trace
}

/// **Figs 15 & 16** — the testbed emulation: real coordinator/agent
/// threads over the runtime crate. Returns the rendered tables.
/// `scale` trades wall time for fidelity (50 = the default).
pub fn fig15_16(lab: &mut Lab, scale: u64, nodes_cap: usize) -> String {
    use saath_runtime::{emulate, EmulationConfig};
    use saath_workload::dag::{job_completion_time, ShuffleFractionModel};

    // A scaled-down slice of the FB-like trace keeps the emulation in
    // seconds of wall time; the full trace works too (just slower).
    let trace = folded_fb_trace(lab, nodes_cap);
    let horizon = std::time::Duration::from_secs(600);

    let cfg = EmulationConfig {
        scale,
        wall_deadline: horizon,
        ..Default::default()
    };
    let aalo = emulate(
        &trace,
        &|| Box::new(saath_core::Aalo::with_defaults()),
        &cfg,
    );
    let saath = emulate(
        &trace,
        &|| Box::new(saath_core::Saath::with_defaults()),
        &cfg,
    );
    assert!(
        !aalo.coordinator.timed_out && !saath.coordinator.timed_out,
        "emulation timed out"
    );

    let ratios = speedups(&aalo.coordinator.records, &saath.coordinator.records);
    lab.write_csv("fig15_cct_ratio_cdf.csv", &cdf_csv(&ratios));

    let mut t = Table::new(
        "Fig 15 — [testbed emulation] CCT ratio Aalo/Saath",
        &["metric", "paper", "measured"],
    );
    let n = ratios.len().max(1) as f64;
    t.row(&[
        "range".into(),
        "0.09x – 12.15x".into(),
        format!(
            "{} – {}",
            fmt_x(ratios.iter().cloned().fold(f64::INFINITY, f64::min)),
            fmt_x(ratios.iter().cloned().fold(0.0, f64::max))
        ),
    ]);
    t.row(&[
        "average".into(),
        "1.88x".into(),
        fmt_x(ratios.iter().sum::<f64>() / n),
    ]);
    t.row(&[
        "median".into(),
        "1.43x".into(),
        fmt_x(percentile(&ratios, 50.0).unwrap()),
    ]);
    t.row(&[
        "CoFlows improved".into(),
        ">70%".into(),
        fmt_pct(ratios.iter().filter(|&&r| r > 1.0).count() as f64 / n),
    ]);
    let mut out = t.render();

    // Fig 16: job completion time via shuffle fractions.
    let model = ShuffleFractionModel::default();
    let mut rng = saath_simcore::DetRng::derive(lab.seed(), "fig16/shuffle");
    let joined = join_runs(&aalo.coordinator.records, &saath.coordinator.records);
    let mut by_bucket: [Vec<f64>; 4] = Default::default();
    let mut all = Vec::new();
    let mut csv = String::from("shuffle_fraction,jct_speedup\n");
    for (_, a, s) in &joined {
        let f = model.sample(&mut rng);
        let jct_a = job_completion_time(a.cct(), a.cct(), f);
        let jct_s = job_completion_time(a.cct(), s.cct(), f);
        let sp = jct_a.as_nanos() as f64 / jct_s.as_nanos().max(1) as f64;
        let b = ((f * 4.0) as usize).min(3);
        by_bucket[b].push(sp);
        all.push(sp);
        csv.push_str(&format!("{f},{sp}\n"));
    }
    lab.write_csv("fig16_jct_speedup.csv", &csv);

    let mut t = Table::new(
        "Fig 16 — [testbed emulation] job completion time speedup vs shuffle fraction",
        &["shuffle fraction", "mean", "P50", "P90", "n"],
    );
    for (i, bucket) in by_bucket.iter().enumerate() {
        let label = format!("{}–{}%", i * 25, (i + 1) * 25);
        if bucket.is_empty() {
            t.row(&[label, "-".into(), "-".into(), "-".into(), "0".into()]);
            continue;
        }
        t.row(&[
            label,
            fmt_x(bucket.iter().sum::<f64>() / bucket.len() as f64),
            fmt_x(percentile(bucket, 50.0).unwrap()),
            fmt_x(percentile(bucket, 90.0).unwrap()),
            bucket.len().to_string(),
        ]);
    }
    t.row(&[
        "all jobs (paper: mean 1.42x, P50 1.07x, P90 1.98x)".into(),
        fmt_x(all.iter().sum::<f64>() / all.len().max(1) as f64),
        fmt_x(percentile(&all, 50.0).unwrap_or(f64::NAN)),
        fmt_x(percentile(&all, 90.0).unwrap_or(f64::NAN)),
        all.len().to_string(),
    ]);
    out.push_str(&t.render());
    out
}

/// **Table 2** — scheduling overhead: schedule-compute latency, broken
/// into ordering (LCoF), all-or-none, and work-conservation phases.
pub fn table2(lab: &mut Lab) -> String {
    use saath_metrics::avg_p90_ms;
    use saath_simulator::{simulate, SimConfig};
    use saath_workload::DynamicsSpec;

    let trace = lab.trace(Workload::Fb).clone();

    let (cfg, none) = (SimConfig::default(), DynamicsSpec::none());
    let mut saath = saath_core::Saath::with_defaults();
    let saath_out = simulate(&trace, &mut saath, &cfg, &none).unwrap();
    let mut aalo = saath_core::Aalo::with_defaults();
    let aalo_out = simulate(&trace, &mut aalo, &cfg, &none).unwrap();

    let mut t = Table::new(
        "Table 2 — coordinator schedule-compute time (this implementation)",
        &[
            "column",
            "Saath avg (ms)",
            "Saath P90 (ms)",
            "Aalo avg (ms)",
            "Aalo P90 (ms)",
        ],
    );
    // Average is exact (sum / count); P90 is the histogram's bucket
    // bound — never under, at most 12.5 % over.
    let cells = |t: &saath_core::SchedTimings, phase: Phase| {
        let (avg, p90) = avg_p90_ms(t.spans.hist(phase));
        [format!("{avg:.4}"), format!("{p90:.4}")]
    };
    let mut row = |column: &str, saath: [String; 2], aalo: [String; 2]| {
        t.row(&[vec![column.to_string()], saath.into(), aalo.into()].concat());
    };
    row(
        "total (paper: 0.57 / 2.85 vs 0.1 / 0.2)",
        cells(&saath.timings, Phase::SchedTotal),
        cells(&aalo.timings, Phase::SchedTotal),
    );
    for (column, phase) in [
        ("ordering+LCoF (paper: 0.02 / 0.03)", Phase::SchedOrder),
        ("all-or-none (paper: 0.24 / 0.7)", Phase::SchedMadd),
        ("work conservation (rest)", Phase::SchedWc),
    ] {
        row(
            column,
            cells(&saath.timings, phase),
            ["-".into(), "-".into()],
        );
    }
    // The paper prices the coordinator per δ. The rows above are per
    // round that ran `compute` (what `SchedTimings` samples); the
    // engine reuses a schedule that cannot have changed, so the cost
    // per δ is the same total spread over every round of the replay.
    let per_delta_ms = |t: &saath_core::SchedTimings, rounds: u64| {
        let total_ms = t.spans.hist(Phase::SchedTotal).sum as f64 / 1e6;
        [
            format!("{:.4}", total_ms / rounds.max(1) as f64),
            "-".into(),
        ]
    };
    row(
        "total per δ, reused rounds included",
        per_delta_ms(&saath.timings, saath_out.rounds),
        per_delta_ms(&aalo.timings, aalo_out.rounds),
    );
    // Both policies' round counts are the replay's (`SimOutput`): one
    // basis, whatever share of them each policy had to compute.
    t.row(&[
        "rounds: computed / total, max active CoFlows".into(),
        format!("{} / {}", saath.timings.rounds(), saath_out.rounds),
        saath.timings.active_coflows.max.to_string(),
        format!("{} / {}", aalo.timings.rounds(), aalo_out.rounds),
        aalo.timings.active_coflows.max.to_string(),
    ]);
    // A round with an expired CoFlow is never reused (its horizon is
    // zero), so `starvation_kicks` counts every such round of the run.
    t.row(&[
        "starvation rounds (paper: <1%)".into(),
        fmt_pct(saath.starvation_kicks as f64 / saath_out.rounds.max(1) as f64),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    t.render()
}

/// **Dynamics ablation** (§4.3, beyond the paper's figures): inject
/// stragglers and node failures into the FB-like replay and compare
/// Saath with and without the SRTF-style re-queue heuristic, plus the
/// skew-aware threshold extension the paper sketches. This is the
/// ablation DESIGN.md commits to for the cluster-dynamics design
/// choices.
pub fn dynamics(lab: &mut Lab) -> String {
    use saath_simulator::{run_policy, SimConfig};
    use saath_workload::DynamicsSpec;

    let trace = lab.trace(Workload::Fb).clone();
    let horizon = trace.arrival_span();
    let spec = DynamicsSpec::random(
        lab.seed(),
        trace.num_nodes,
        horizon,
        0.20,                                   // 20% of nodes straggle…
        saath_simcore::Duration::from_secs(60), // …for 60 s…
        1,
        10,   // …at 1/10 capacity
        0.15, // 15% of nodes fail once
        saath_simcore::Duration::from_secs(2),
    );
    // CoFlows whose flows touch a failed node — the population the §4.3
    // heuristic exists for (gang scheduling keeps straggler-slowed
    // CoFlows synchronized, so restarts are where estimates help).
    let failed_nodes: std::collections::HashSet<_> = spec
        .events
        .iter()
        .filter_map(|e| match e {
            saath_workload::DynamicsEvent::NodeFailure { node, .. } => Some(*node),
            _ => None,
        })
        .collect();
    let affected: std::collections::HashSet<_> = trace
        .coflows
        .iter()
        .filter(|c| {
            c.flows
                .iter()
                .any(|f| failed_nodes.contains(&f.src) || failed_nodes.contains(&f.dst))
        })
        .map(|c| c.id)
        .collect();

    let mut t = Table::new(
        format!(
            "Dynamics ablation — stragglers + failures on the FB trace              ({} CoFlows touch a failed node)",
            affected.len()
        ),
        &["variant", "avg CCT (s)", "P90 (s)", "affected avg (s)", "affected P90 (s)"],
    );
    let variants: Vec<(&str, SaathConfig)> = vec![
        ("saath (full, §4.3 heuristic on)", SaathConfig::default()),
        (
            "saath without dynamics re-queue",
            SaathConfig {
                dynamics_srtf: false,
                ..Default::default()
            },
        ),
        (
            "saath + skew-aware thresholds",
            SaathConfig {
                skew_aware_thresholds: true,
                ..Default::default()
            },
        ),
    ];
    for (label, cfg) in variants {
        let out = run_policy(&trace, &Policy::Saath(cfg), &SimConfig::default(), &spec)
            .expect("dynamics run");
        let ccts: Vec<f64> = out.records.iter().map(|r| r.cct().as_secs_f64()).collect();
        let hit: Vec<f64> = out
            .records
            .iter()
            .filter(|r| affected.contains(&r.id))
            .map(|r| r.cct().as_secs_f64())
            .collect();
        t.row(&[
            label.into(),
            format!("{:.3}", ccts.iter().sum::<f64>() / ccts.len().max(1) as f64),
            format!("{:.3}", percentile(&ccts, 90.0).unwrap_or(f64::NAN)),
            format!("{:.3}", hit.iter().sum::<f64>() / hit.len().max(1) as f64),
            format!("{:.3}", percentile(&hit, 90.0).unwrap_or(f64::NAN)),
        ]);
    }
    t.render()
}

/// **Fig 17 / Appendix A** — the exact worked example: SJF (via SEBF)
/// vs contention-aware LWTF.
pub fn fig17(lab: &Lab) -> String {
    let trace = saath_workload::paper_examples::fig17_sjf_suboptimal();
    let sebf = lab.run_trace(&trace, &Policy::Varys, 8_000_000);
    let lwtf = lab.run_trace(&trace, &Policy::Lwtf, 8_000_000);
    let avg = |r: &[CoflowRecord]| {
        if r.is_empty() {
            0.0
        } else {
            r.iter().map(|x| x.cct().as_secs_f64()).sum::<f64>() / r.len() as f64
        }
    };
    let mut t = Table::new(
        "Fig 17 — SJF is sub-optimal for CoFlows (t = 1 s units)",
        &["policy", "C1", "C2", "C3", "average (paper)"],
    );
    let row = |r: &[CoflowRecord], name: &str, paper: &str| {
        let c = |i: usize| format!("{:.2}", r[i].cct().as_secs_f64());
        vec![
            name.to_string(),
            c(0),
            c(1),
            c(2),
            format!("{:.2} ({paper})", avg(r)),
        ]
    };
    t.row(&row(&sebf, "SJF/SEBF", "9.3"));
    t.row(&row(&lwtf, "LWTF", "8.3"));
    t.render()
}

/// Number of flows in a trace.
fn flow_count(t: &saath_workload::Trace) -> usize {
    t.coflows.iter().map(|c| c.flows.len()).sum::<usize>()
}

/// Event-log options for `repro scale` (`--log PATH`,
/// `--snapshot-every N`, `--resume-from PATH`). When active, the
/// sweep's first point gains one extra *untimed* replay that records
/// the hash-chained event log (and resumes from a prior log's
/// snapshot), so the timed runs never carry logging overhead.
pub struct LogOptions {
    /// Write the replay's event log to this path.
    pub log: Option<std::path::PathBuf>,
    /// Snapshot cadence in rounds (0 disables snapshots).
    pub snapshot_every: u64,
    /// The snapshot to resume from, taken from a previously recorded
    /// log by [`LogOptions::load`].
    pub resume: Option<saath_eventlog::SnapshotRef>,
}

impl LogOptions {
    /// The options as given on the command line. The log to resume
    /// from is read here, so a file that is not an event log, or holds
    /// no snapshot, is refused with a message naming it before anything
    /// is replayed. The resume point is the log's last snapshot that
    /// still has rounds after it (a cadence hitting the final round
    /// exactly would otherwise make the continuation trivially empty),
    /// else its very last one. The log to write is created here too (after
    /// the one to resume from is read), so a path that cannot be written
    /// is refused before the replays as well.
    pub fn load(
        log: Option<std::path::PathBuf>,
        snapshot_every: u64,
        resume_from: Option<&std::path::Path>,
    ) -> Result<LogOptions, String> {
        let resume = match resume_from {
            None => None,
            Some(path) => {
                let bytes = std::fs::read(path)
                    .map_err(|e| format!("--resume-from: cannot read {}: {e}", path.display()))?;
                let idx = saath_eventlog::index_log(&bytes).map_err(|e| {
                    format!("--resume-from: {} is not an event log: {e}", path.display())
                })?;
                let total = idx.rounds.last().map(|r| r.round + 1);
                let snap = idx.snapshots.iter().rev().find(|s| Some(s.round) < total);
                let snap = snap.or(idx.last_snapshot()).cloned().ok_or_else(|| {
                    format!(
                        "--resume-from: {} holds no snapshot (record it with --snapshot-every N)",
                        path.display()
                    )
                })?;
                Some(snap)
            }
        };
        if let Some(path) = &log {
            std::fs::File::create(path)
                .map_err(|e| format!("--log: cannot create {}: {e}", path.display()))?;
        }
        Ok(LogOptions {
            log,
            snapshot_every,
            resume,
        })
    }

    fn active(&self) -> bool {
        self.log.is_some() || self.resume.is_some()
    }
}

/// The extra untimed replay behind `--log` / `--resume-from`: replays
/// `trace` under a fresh default Saath with the event-log sink attached,
/// chain-verifies the recorded log, asserts the records byte-match
/// `expect` (the timed benchmark run), and reports the log telemetry
/// counters. Panics on any mismatch — a benchmark whose log diverges
/// from its own timed run is a bug, not a degraded result.
///
/// With `--log PATH` the log streams through a buffered writer into
/// the file and is verified from there, so memory stays flat however
/// many snapshots it holds; a resume with no `--log` keeps its
/// continuation in memory.
fn logged_replay(
    trace: &saath_workload::Trace,
    cfg: &saath_simulator::SimConfig,
    dynamics: &saath_workload::DynamicsSpec,
    opts: &LogOptions,
    expect: &[CoflowRecord],
) -> String {
    use saath_core::CoflowScheduler as _;
    use saath_eventlog::{verify, verify_path, ChainDigest, EventLogWriter, LogHeader};
    use saath_simulator::{simulate_resumable, ReplayHooks};
    use saath_telemetry::{Counter, Telemetry};

    let snap = opts.resume.as_ref();
    let (start_round, start_digest) = snap
        .map(|s| (s.round, s.digest))
        .unwrap_or((0, ChainDigest::ZERO));
    let header = LogHeader {
        num_nodes: trace.num_nodes as u64,
        port_rate: trace.port_rate.as_u64(),
        delta_ns: cfg.delta.as_nanos(),
        scheduler: saath_core::Saath::with_defaults().name().into(),
        trace_digest: ChainDigest::ZERO,
        start_round,
        start_digest,
    };
    let mut tele = Telemetry::new();
    // Replays into `w`, checks the records, flushes, and returns the
    // log's length.
    let mut record = |w: &mut dyn std::io::Write| -> u64 {
        let mut w = EventLogWriter::new(w, &header).expect("event-log header write failed");
        let out = simulate_resumable(
            trace,
            &mut saath_core::Saath::with_defaults(),
            cfg,
            dynamics,
            ReplayHooks {
                tele: Some(&mut tele),
                sink: Some(&mut w),
                snapshot_every: opts.snapshot_every,
                resume_from: snap.map(|s| s.blob.as_slice()),
            },
        )
        .unwrap_or_else(|e| panic!("logged replay failed: {e}"));
        assert_eq!(
            out.records, expect,
            "logged/resumed replay diverged from the timed benchmark run"
        );
        let len = w.bytes_written();
        w.into_inner().expect("event-log flush failed");
        len
    };
    let (summary, len) = match &opts.log {
        Some(path) => {
            // `LogOptions::load` created it already.
            let file = std::fs::File::create(path).expect("event log no longer writable");
            let len = record(&mut std::io::BufWriter::new(file));
            let summary = verify_path(path).unwrap_or_else(|e| {
                panic!("event log {} failed verification: {e}", path.display())
            });
            (summary, len)
        }
        None => {
            let mut bytes = Vec::new();
            let len = record(&mut bytes);
            let summary =
                verify(&bytes[..]).expect("freshly recorded log failed chain verification");
            (summary, len)
        }
    };
    tele.incr(Counter::LogChainVerifies);
    let mut line = format!(
        "event log: rounds {}..{} ({} new), {} snapshot(s), {len} B, chain {}, \
         records identical to the timed run",
        summary.start_round,
        summary.start_round + summary.rounds,
        summary.rounds,
        summary.snapshots,
        summary.digest.to_hex(),
    );
    if let Some(path) = &opts.log {
        line.push_str(&format!("\nevent log written to {}", path.display()));
    }
    line.push_str(&format!(
        "\nlog counters: log_rounds_appended={} log_bytes_written={} \
         log_snapshots={} log_chain_verifies={}",
        tele.counter(Counter::LogRoundsAppended),
        tele.counter(Counter::LogBytesWritten),
        tele.counter(Counter::LogSnapshots),
        tele.counter(Counter::LogChainVerifies),
    ));
    line
}

/// **verify** — streams a recorded event log through the O(1)-memory
/// chain verifier and returns the summary line; a broken chain (or bad
/// framing / I/O) comes back as `Err` so the CLI can exit nonzero.
pub fn verify_log(path: &std::path::Path) -> Result<String, String> {
    let s = saath_eventlog::verify_path(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(format!(
        "{}: OK — rounds {}..{} ({} round(s)), {} snapshot(s), chain digest {}",
        path.display(),
        s.start_round,
        s.start_round + s.rounds,
        s.rounds,
        s.snapshots,
        s.digest.to_hex(),
    ))
}

/// **diff** — the differential harness: aligns two recorded logs,
/// binary-searches the chained digests to the first divergent round,
/// and renders the minimal field-level diff of that round's schedule.
/// Returns the report plus whether a divergence was found (CLI exit
/// status).
pub fn diff_cmd(a: &std::path::Path, b: &std::path::Path) -> Result<(String, bool), String> {
    let ab = std::fs::read(a).map_err(|e| format!("cannot read {}: {e}", a.display()))?;
    let bb = std::fs::read(b).map_err(|e| format!("cannot read {}: {e}", b.display()))?;
    let d = saath_eventlog::diff_logs(&ab, &bb).map_err(|e| e.to_string())?;
    let report = format!("A = {}\nB = {}\n{}", a.display(), b.display(), d.render());
    Ok((report, d.first_divergent_round.is_some()))
}

/// Renders a simulator run's instrumentation as a Prometheus text page
/// (the same exposition format the runtime's live `/metrics` endpoint
/// serves): the deterministic round counts first, then the per-phase
/// wall-time summary under the section banner. `spans` is the merged
/// scheduler + engine profiler — its `sched_total` samples are the
/// rounds that ran `compute`; `rounds` the replay's round count and
/// `jumped` the rounds whose boundary the engine never stopped at.
fn sim_metrics_page(spans: &saath_telemetry::SpanProfiler, rounds: u64, jumped: u64) -> String {
    use saath_telemetry::prom::PromText;
    let mut p = PromText::new();
    p.section("deterministic");
    p.counter(
        "saath_sim_rounds_total",
        "Scheduling rounds the replay executed",
        &[("", rounds)],
    );
    p.counter(
        "saath_sim_rounds_elided_total",
        "Rounds among them that reused the previous schedule instead of computing one",
        &[(
            "",
            rounds.saturating_sub(spans.hist(Phase::SchedTotal).count),
        )],
    );
    p.counter(
        "saath_sim_rounds_jumped_total",
        "Rounds among the elided ones whose boundary the engine never stopped at",
        &[("", jumped)],
    );
    p.section("wall-clock (nondeterministic values, stable layout)");
    p.phase_summary(
        "saath_epoch_phase_ns",
        "Epoch lifecycle phase latency in nanoseconds",
        spans,
    );
    p.finish()
}

/// Writes a metrics page to `path` (`--metrics-out`), reporting on
/// stderr so `--json` stdout stays a clean document.
fn write_metrics_out(path: &std::path::Path, page: &str) {
    match std::fs::write(path, page) {
        Ok(()) => eprintln!("metrics exposition written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// **emulate** — runs the runtime coordinator/agent emulation once
/// (Saath policy, the fig 15/16 machinery) with the live metrics plane
/// attached: serves `/metrics` at `metrics_addr` for the run's
/// duration (default loopback, ephemeral port) and, with
/// `metrics_out`, dumps the final exposition page to a file. This is
/// the observability smoke entry — CCT analysis stays with `fig15`.
pub fn emulate_cmd(
    lab: &Lab,
    scale: u64,
    nodes_cap: usize,
    metrics_addr: Option<String>,
    metrics_out: Option<&std::path::Path>,
) -> String {
    use saath_runtime::{emulate, EmulationConfig};

    let trace = folded_fb_trace(lab, nodes_cap);

    // The harness reports the resolved (possibly ephemeral) address on
    // stderr once the endpoint is bound.
    let addr = metrics_addr.unwrap_or_else(|| "127.0.0.1:0".into());
    let cfg = EmulationConfig {
        scale,
        metrics_addr: Some(addr),
        wall_deadline: std::time::Duration::from_secs(600),
        ..Default::default()
    };
    let report = emulate(
        &trace,
        &|| Box::new(saath_core::Saath::with_defaults()),
        &cfg,
    );

    let mut t = Table::new(
        "Runtime emulation — live metrics plane",
        &["metric", "value"],
    );
    t.row(&["nodes".into(), trace.num_nodes.to_string()]);
    t.row(&["coflows".into(), trace.coflows.len().to_string()]);
    t.row(&[
        "completed".into(),
        report.coordinator.records.len().to_string(),
    ]);
    t.row(&["epochs".into(), report.coordinator.epochs.to_string()]);
    t.row(&[
        "timed out".into(),
        if report.coordinator.timed_out {
            "YES".into()
        } else {
            "no".into()
        },
    ]);
    let mut out = t.render();

    let page = report.metrics.expect("metrics_addr was set");
    if let Some(path) = metrics_out {
        write_metrics_out(path, &page);
    }
    // The deterministic section is small and worth printing; the
    // wall-clock phase summary follows for the curious.
    out.push_str(&page);
    out
}

/// Saath, stamping the wall clock on entry to every round: the
/// coordinator's epoch period as seen from its scheduler call.
struct StampedSaath {
    inner: saath_core::Saath,
    entries: std::sync::Arc<std::sync::Mutex<Vec<std::time::Instant>>>,
}

impl saath_core::CoflowScheduler for StampedSaath {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn compute(
        &mut self,
        view: &saath_core::ClusterView<'_>,
        bank: &mut saath_fabric::PortBank,
        out: &mut saath_core::Schedule,
    ) {
        self.entries
            .lock()
            .expect("stamp list poisoned")
            .push(std::time::Instant::now());
        self.inner.compute(view, bank, out);
    }
}

/// Microseconds one coordinator drain pass takes over `links` idle
/// links — one `recv_timeout(ZERO)` each, nothing to deliver: the cost
/// of merely having that many links. Median of 9 passes.
fn idle_drain_us(transport: saath_runtime::TransportKind, links: usize) -> f64 {
    use saath_runtime::transport::{inproc_pair, TcpTransport, Transport};
    use saath_runtime::TransportKind;

    // Both ends are kept: dropping the far one would hang the link up.
    let mut pairs: Vec<(Box<dyn Transport>, Box<dyn Transport>)> = match transport {
        TransportKind::InProc => (0..links)
            .map(|_| {
                let (near, far) = inproc_pair(1);
                (Box::new(near) as Box<dyn Transport>, Box::new(far) as _)
            })
            .collect(),
        TransportKind::Tcp => {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("local addr").to_string();
            (0..links)
                .map(|_| {
                    let far = TcpTransport::connect(&addr).expect("connect");
                    let (stream, _) = listener.accept().expect("accept");
                    let near = TcpTransport::new(stream).expect("wrap");
                    (Box::new(near) as Box<dyn Transport>, Box::new(far) as _)
                })
                .collect()
        }
    };
    let mut passes: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = std::time::Instant::now();
            for (near, _far) in &mut pairs {
                let got = near.recv_timeout(std::time::Duration::ZERO);
                assert!(matches!(got, Ok(None)), "idle link delivered {got:?}");
            }
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    passes.sort_by(f64::total_cmp);
    passes[passes.len() / 2]
}

/// **emulate --multiplex** — the readiness-driven host sweep: emulated
/// cluster sizes up to `--nodes`, each run multiplexing the agents
/// onto at most 64 host threads ([`saath_runtime::run_agent_host`])
/// instead of one thread per node. The workload is a synthetic
/// width-2 coflow set spread across the whole port range, so schedule
/// pushes and stats traverse many hosts while the active flow count
/// stays bounded — the sweep measures the host fabric (thread count,
/// shared links, readiness loop, hello wave), not the scheduler.
/// Every point runs in-process; the smallest is replayed over
/// loopback TCP as well — the many-link case, where a per-link cost
/// in the coordinator's drain shows as an epoch period above δ.
/// Writes `BENCH_emulate_scale.json` (skipped for `small` smoke runs);
/// with `json`, returns the JSON document instead of the table.
pub fn emulate_scale_cmd(
    lab: &Lab,
    scale: u64,
    nodes_cap: usize,
    small: bool,
    json: bool,
) -> String {
    use saath_runtime::{emulate, EmulationConfig, TransportKind};
    use saath_simcore::{Bytes, CoflowId, NodeId, Rate, Time};
    use saath_workload::{CoflowSpec, FlowSpec, Trace};

    /// Host-thread ceiling: every sweep point runs on at most this
    /// many agent threads (and links), whatever its node count.
    const MAX_HOSTS: usize = 64;

    let top = nodes_cap.max(8);
    let mut points = vec![top.div_ceil(25).max(8), top.div_ceil(5).max(8), top];
    points.sort_unstable();
    points.dedup();
    let n_coflows = if small { 4 } else { 16 };
    let flow_mb = if small { 5 } else { 20 };

    let synth = |nodes: usize| -> Trace {
        let half = (nodes / 2).max(1);
        let coflows = (0..n_coflows)
            .map(|i| {
                let src = (i * 97) % half;
                let dst = half + (i * 131) % (nodes - half).max(1);
                CoflowSpec::new(
                    CoflowId(i as u32),
                    Time::from_millis(100 * i as u64),
                    vec![
                        FlowSpec::new(NodeId(src as u32), NodeId(dst as u32), Bytes::mb(flow_mb)),
                        FlowSpec::new(
                            NodeId(((i * 53 + 1) % half) as u32),
                            NodeId(dst as u32),
                            Bytes::mb(flow_mb),
                        ),
                    ],
                )
            })
            .collect();
        Trace {
            num_nodes: nodes,
            port_rate: Rate::gbps(1),
            coflows,
        }
    };

    let mut t = Table::new(
        "Multiplexed emulation sweep — N emulated ports on O(hosts) threads",
        &[
            "nodes",
            "transport",
            "links",
            "agents/host",
            "coflows",
            "completed",
            "epochs",
            "period p50 ms",
            "stats entries/epoch",
            "idle drain us",
            "wall ms",
        ],
    );
    let mut docs = Vec::new();
    let runs = points
        .iter()
        .map(|&nodes| (nodes, TransportKind::InProc))
        .chain([(points[0], TransportKind::Tcp)]);
    for (nodes, transport) in runs {
        let per_host = nodes.div_ceil(MAX_HOSTS);
        let hosts = nodes.div_ceil(per_host);
        let name = match transport {
            TransportKind::InProc => "inproc",
            TransportKind::Tcp => "tcp",
        };
        let trace = synth(nodes);
        let cfg = EmulationConfig {
            scale,
            transport,
            multiplex: per_host,
            wall_deadline: std::time::Duration::from_secs(600),
            ..Default::default()
        };
        let entries = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let t0 = std::time::Instant::now();
        let report = emulate(
            &trace,
            &|| {
                Box::new(StampedSaath {
                    inner: saath_core::Saath::with_defaults(),
                    entries: std::sync::Arc::clone(&entries),
                })
            },
            &cfg,
        );
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(
            !report.coordinator.timed_out,
            "emulate sweep point {nodes}/{name} hit the wall deadline"
        );
        let completed = report.coordinator.records.len();
        assert_eq!(
            completed,
            trace.coflows.len(),
            "emulate sweep point {nodes}/{name} lost coflows"
        );
        // Median interval between consecutive rounds; a run of a
        // single epoch has none.
        let mut periods: Vec<f64> = entries
            .lock()
            .expect("stamp list poisoned")
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect();
        periods.sort_by(f64::total_cmp);
        let period = periods.get(periods.len() / 2).copied();
        let period_cell = period.map_or("null".to_string(), |p| format!("{p:.2}"));
        // Per-flow entries the coordinator ingested per epoch: what its
        // drain costs, and what should track the live flows, not the
        // trace's history.
        let stats_entries =
            report.coordinator.stats_entries as f64 / report.coordinator.epochs.max(1) as f64;
        let idle_us = idle_drain_us(transport, hosts);
        eprintln!(
            "[emulate-scale] {nodes} nodes on {hosts} {name} links ({per_host}/host): \
             {completed} coflows in {wall_ms:.0} ms, epoch period {period_cell} ms, \
             {stats_entries:.1} stats entries/epoch, idle drain {idle_us:.1} us"
        );
        t.row(&[
            nodes.to_string(),
            name.to_string(),
            hosts.to_string(),
            per_host.to_string(),
            trace.coflows.len().to_string(),
            completed.to_string(),
            report.coordinator.epochs.to_string(),
            period_cell,
            format!("{stats_entries:.1}"),
            format!("{idle_us:.1}"),
            format!("{wall_ms:.1}"),
        ]);
        docs.push(Json::obj([
            ("nodes", nodes.into()),
            ("transport", name.into()),
            ("links", hosts.into()),
            ("agents_per_host", per_host.into()),
            ("coflows", trace.coflows.len().into()),
            ("completed", completed.into()),
            ("epochs", report.coordinator.epochs.into()),
            (
                "epoch_period_p50_ms",
                period.map_or(Json::Null, |p| rounded(p, 2)),
            ),
            ("stats_entries_per_epoch", rounded(stats_entries, 1)),
            ("idle_drain_us", rounded(idle_us, 1)),
            ("wall_ms", rounded(wall_ms, 1)),
        ]));
    }
    let doc = Json::obj([
        ("experiment", "emulate_scale".into()),
        ("seed", lab.seed().into()),
        ("scale", scale.into()),
        // δ in wall time: what `epoch_period_p50_ms` is to be read against.
        (
            "delta_ms",
            rounded(
                EmulationConfig::default().delta.as_secs_f64() * 1e3 / scale as f64,
                1,
            ),
        ),
        ("max_hosts", MAX_HOSTS.into()),
        ("points", Json::Arr(docs)),
    ]);
    if !small {
        write_bench("BENCH_emulate_scale.json", &doc);
    }
    if json {
        return doc.to_string();
    }
    t.render()
}

/// The full scalability sweep's points, `(nodes, flows at least)`.
/// The first is also the workload of `repro trace` and `gen-trace`.
const SWEEP: [(usize, usize); 4] = [
    (150, 10_000),
    (300, 25_000),
    (600, 50_000),
    (1_000, 100_000),
];

/// An FB-like trace at an explicit cluster size, grown until it carries
/// at least `target_flows` flows (arrivals compressed into 100 s so the
/// active set — and with it the per-round contention work — scales with
/// the flow count).
fn grown_trace_at(seed: u64, nodes: usize, target_flows: usize) -> saath_workload::Trace {
    use saath_workload::gen;
    let mut gcfg = gen::fb_like(seed);
    gcfg.num_nodes = nodes;
    gcfg.max_width = (nodes * nodes).min(gcfg.max_width);
    gcfg.span = saath_simcore::Duration::from_secs(100);
    let mut trace = gen::generate(&gcfg);
    while flow_count(&trace) < target_flows {
        // Jump proportionally instead of stepping: 100k-flow points
        // would otherwise regenerate the trace hundreds of times.
        let have = flow_count(&trace).max(1);
        gcfg.num_coflows = (gcfg.num_coflows * target_flows)
            .div_ceil(have)
            .max(gcfg.num_coflows + 50);
        trace = gen::generate(&gcfg);
    }
    trace
}

/// The trace of the sweep's first point: ≥ 10k flows on 150 nodes.
fn first_point_trace(seed: u64) -> saath_workload::Trace {
    let (nodes, flows) = SWEEP[0];
    grown_trace_at(seed, nodes, flows)
}

/// **gen-trace** — writes the first scalability-sweep point's workload
/// (≥ 10k flows on 150 nodes) to `out` in the published
/// `coflow-benchmark` text format. The real Facebook trace is not
/// redistributable with this repository; this produces a full-size
/// stand-in in the identical format, so `repro scale --trace <out>`
/// exercises the exact file-streaming ingestion path the published
/// trace would.
pub fn gen_trace(seed: u64, out: &std::path::Path) -> String {
    let trace = first_point_trace(seed);
    let text = saath_workload::io::write_coflow_benchmark(&trace);
    if let Err(e) = std::fs::write(out, &text) {
        return format!("error: could not write {}: {e}", out.display());
    }
    format!(
        "wrote {}: {} nodes, {} coflows, {} flows, {} bytes (coflow-benchmark format)",
        out.display(),
        trace.num_nodes,
        trace.coflows.len(),
        flow_count(&trace),
        text.len()
    )
}

/// One timed replay of one scalability-sweep point.
struct ScaleRun {
    wall_ms: f64,
    rounds: u64,
    records: Vec<saath_metrics::CoflowRecord>,
    spans: saath_telemetry::SpanProfiler,
}

impl ScaleRun {
    /// Total time the scheduler spent in `phase`, in milliseconds.
    fn phase_ms(&self, phase: Phase) -> f64 {
        self.spans.hist(phase).sum as f64 / 1e6
    }

    /// Wall time outside the scheduler — the engine loop's — so that
    /// wall = sched + engine holds for every replay.
    fn engine_ms(&self) -> f64 {
        self.wall_ms - self.phase_ms(Phase::SchedTotal)
    }
}

/// Median, minimum and maximum of a reading over a point's repeats.
/// Every reading the sweep reports is the median, so one disturbed
/// replay moves a row's min or max and not the row.
#[derive(Clone, Copy)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn over(runs: &[ScaleRun], reading: impl Fn(&ScaleRun) -> f64) -> Spread {
        use saath_metrics::stats::percentile;
        let readings: Vec<f64> = runs.iter().map(reading).collect();
        let at = |p: f64| percentile(&readings, p).expect("at least one repeat");
        Spread {
            median: at(50.0),
            min: at(0.0),
            max: at(100.0),
        }
    }

    /// `<key>`, `<key>_min` and `<key>_max`, rounded to 0.1 — `<key>`
    /// is the reading bench-diff lines up against older documents.
    fn members(self, key: &str) -> [(String, Json); 3] {
        [
            (key.to_string(), rounded(self.median, 1)),
            (format!("{key}_min"), rounded(self.min, 1)),
            (format!("{key}_max"), rounded(self.max, 1)),
        ]
    }
}

/// `x` rounded to `places` decimals: a BENCH reading carries no more
/// digits than its noise.
fn rounded(x: f64, places: i32) -> Json {
    let scale = 10f64.powi(places);
    Json::Num((x * scale).round() / scale)
}

/// Writes a BENCH document to `file` in the working directory.
fn write_bench(file: &str, doc: &Json) {
    if let Err(e) = std::fs::write(file, format!("{doc}\n")) {
        eprintln!("warning: could not write {file}: {e}");
    }
}

/// Machine, toolchain and tree the numbers were taken on — the fields
/// of `benchmark/BASELINE.md`'s stamp; `unknown` where one cannot be
/// read. The commit is `git describe --always --dirty`, so a sweep run
/// on an uncommitted tree says so.
fn env_stamp() -> Json {
    let file = |path: &str| std::fs::read_to_string(path).ok();
    let tool = |program: &str, args: &[&str]| {
        let out = std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output();
        let out = out.ok().filter(|o| o.status.success());
        out.map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let cpu = file("/proc/cpuinfo").and_then(|s| {
        let model = s.lines().find(|l| l.starts_with("model name"));
        model
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    });
    let nproc = std::thread::available_parallelism().map(|n| n.get().to_string());
    let fields = [
        ("nproc", nproc.ok()),
        ("cpu", cpu),
        (
            "kernel",
            file("/proc/sys/kernel/osrelease").map(|s| s.trim().to_string()),
        ),
        ("rustc", tool("rustc", &["-V"])),
        ("commit", tool("git", &["describe", "--always", "--dirty"])),
    ];
    Json::obj(
        fields.map(|(key, value)| (key, Json::Str(value.unwrap_or_else(|| "unknown".into())))),
    )
}

/// **Scalability sweep** (Fig 9's scale axis, §5.4) — not a CCT figure:
/// rounds/sec of the full replay loop as cluster size and flow count
/// grow from 150 nodes × 10k flows to 1k nodes × 100k flows, with the
/// wall time split into the engine loop and the scheduler's phases
/// (contention, ordering, all-or-none, work conservation), so that
/// wall = sched + engine for every replay. A full sweep replays every
/// point three times and reports the median of every timing (with its
/// min and max in the JSON); records and round counts must repeat
/// exactly. One more
/// *untimed* replay per point, instrumented, counts what the engine did
/// (rounds not visited, class joins, classes and flows per step,
/// dirty-set sizes) and
/// must produce the same records. The first point is also replayed
/// through the O(state)-per-step reference loop and must produce the
/// same records; `small` smoke runs replay each of their two points once
/// and pin every one to the reference loop. Writes
/// `BENCH_scalability.json` (skipped for `small`); with `json`, returns
/// the JSON document instead of the rendered table.
///
/// With `file` the lab's FB trace — read from `--trace PATH` — is the
/// only point and no BENCH file is written. (The published Facebook
/// trace is not redistributable here; `repro gen-trace` writes a
/// full-size stand-in in the same format.)
pub fn scale(
    lab: &Lab,
    json: bool,
    small: bool,
    file: bool,
    log: &LogOptions,
    metrics_out: Option<&std::path::Path>,
) -> String {
    use saath_simulator::{
        simulate, simulate_reference, simulate_resumable, ReplayHooks, SimConfig,
    };
    use saath_telemetry::Counter;
    use saath_workload::DynamicsSpec;
    use std::time::Instant;

    let sizes: &[(usize, usize)] = match (file, small) {
        (true, _) => &[],
        (false, true) => &[(40, 1_000), (80, 2_500)],
        (false, false) => &SWEEP,
    };
    let traces = file
        .then(|| lab.trace(Workload::Fb).clone())
        .into_iter()
        .chain(sizes.iter().map(|&(n, f)| grown_trace_at(lab.seed(), n, f)));
    let repeats: usize = if small { 1 } else { 3 };
    let cfg = SimConfig::default();
    let dynamics = DynamicsSpec::none();
    let phases = [
        ("sched_ms", Phase::SchedTotal),
        ("contention_ms", Phase::SchedContention),
        ("ordering_ms", Phase::SchedOrder),
        ("all_or_none_ms", Phase::SchedMadd),
        ("work_conservation_ms", Phase::SchedWc),
    ];

    let replay = |trace: &saath_workload::Trace| -> ScaleRun {
        let mut sched = saath_core::Saath::with_defaults();
        let t = Instant::now();
        let out = simulate(trace, &mut sched, &cfg, &dynamics).expect("scale-sweep run failed");
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        ScaleRun {
            wall_ms,
            rounds: out.rounds,
            records: out.records,
            spans: sched.timings.spans,
        }
    };

    let mut t = Table::new(
        "Scalability sweep — rounds/sec, and wall time split into the engine loop and the \
         scheduler's phases (median of the repeats; ordering includes k_c)",
        &[
            "nodes", "flows", "rounds", "computed", "jumped", "rounds/s", "wall ms", "eng ms",
            "sched ms", "k_c ms", "order ms", "A/N ms", "WC ms",
        ],
    );
    let mut point_docs = Vec::new();
    // Per-phase latency distribution, pooled across every sweep point
    // (each point feeds its per-round samples).
    let mut pooled_spans = saath_telemetry::SpanProfiler::new();
    let (mut pooled_rounds, mut pooled_jumped) = (0u64, 0u64);
    for (pi, trace) in traces.enumerate() {
        let (nodes, flows) = (trace.num_nodes, flow_count(&trace));
        let runs: Vec<ScaleRun> = (0..repeats).map(|_| replay(&trace)).collect();
        let first = &runs[0];
        for run in &runs[1..] {
            assert_eq!(
                (run.rounds, &run.records),
                (first.rounds, &first.records),
                "a repeat changed the schedule at {nodes} nodes"
            );
        }
        // The untimed instrumented replay: engine counters and spans,
        // kept out of the timed runs above.
        let mut tele = saath_telemetry::Telemetry::new();
        let instrumented = simulate_resumable(
            &trace,
            &mut saath_core::Saath::with_defaults(),
            &cfg,
            &dynamics,
            ReplayHooks {
                tele: Some(&mut tele),
                ..ReplayHooks::none()
            },
        )
        .expect("instrumented scale-sweep run failed");
        assert_eq!(
            instrumented.records, first.records,
            "the instrumented replay diverged from the timed one at {nodes} nodes"
        );
        let jumped = tele.counter(Counter::RoundsJumped);
        // One repeat's samples stand for the point in the pooled
        // latency table; pooling all of them would only triple counts.
        pooled_spans.merge(&first.spans);
        pooled_spans.merge(&tele.spans);
        let rounds = first.rounds;
        let computed = first.spans.hist(Phase::SchedTotal).count;
        pooled_rounds += rounds;
        pooled_jumped += jumped;
        if pi == 0 && log.active() {
            // `--log` / `--resume-from` record the sweep's first point
            // (the one a prior invocation with the same seed also ran),
            // untimed, pinned to the timed records.
            eprintln!(
                "{}",
                logged_replay(&trace, &cfg, &dynamics, log, &first.records)
            );
        }
        if pi == 0 || small {
            // The original O(state)-per-step reference loop, an
            // independent implementation, must produce the exact same
            // records. Untimed: it is the executable spec, not a path
            // anything runs in production.
            let refr = simulate_reference(
                &trace,
                &mut saath_core::Saath::with_defaults(),
                &cfg,
                &dynamics,
            )
            .expect("scale-sweep reference run failed");
            assert_eq!(
                refr.records, first.records,
                "scheduling records diverged from the reference loop at {nodes} nodes"
            );
        }
        let wall = Spread::over(&runs, |run| run.wall_ms);
        let rounds_per_sec = rounds as f64 / (wall.median / 1e3).max(1e-9);
        let engine = Spread::over(&runs, ScaleRun::engine_ms);
        let phase_spreads =
            phases.map(|(key, phase)| (key, Spread::over(&runs, |run| run.phase_ms(phase))));
        let mut row = vec![
            nodes.to_string(),
            flows.to_string(),
            rounds.to_string(),
            computed.to_string(),
            jumped.to_string(),
            format!("{rounds_per_sec:.1}"),
            format!("{:.1}", wall.median),
            format!("{:.1}", engine.median),
        ];
        row.extend(
            phase_spreads
                .iter()
                .map(|(_, s)| format!("{:.1}", s.median)),
        );
        t.row(&row);
        let counts = [
            ("nodes", nodes.into()),
            ("coflows", trace.coflows.len().into()),
            ("flows", flows.into()),
            ("rounds", rounds.into()),
            ("rounds_computed", computed.into()),
            ("rounds_jumped", jumped.into()),
            ("records_identical", true.into()),
            ("rounds_per_sec", rounded(rounds_per_sec, 1)),
        ];
        let timings = [("wall_ms", wall), ("engine_ms", engine)]
            .into_iter()
            .chain(phase_spreads);
        let engine_counters = [
            ("class_joins", tele.counter(Counter::ClassJoins).into()),
            ("mean_step_classes", rounded(tele.step_classes.mean(), 2)),
            ("mean_step_flows", rounded(tele.step_flows.mean(), 2)),
            ("mean_dirty_set", rounded(tele.dirty_set.mean(), 1)),
            ("max_pending", tele.pending.max.into()),
        ];
        point_docs.push(Json::obj(
            counts
                .map(|(key, v)| (key.to_string(), v))
                .into_iter()
                .chain(timings.flat_map(|(key, s)| s.members(key)))
                .chain(engine_counters.map(|(key, v)| (key.to_string(), v))),
        ));
    }

    let doc = Json::obj([
        ("experiment", "scalability_sweep".into()),
        ("seed", lab.seed().into()),
        ("delta_ms", (cfg.delta.as_nanos() as f64 / 1e6).into()),
        ("repeats", repeats.into()),
        ("env", env_stamp()),
        ("points", Json::Arr(point_docs)),
    ]);
    if !small && !file {
        write_bench("BENCH_scalability.json", &doc);
    }
    if let Some(path) = metrics_out {
        write_metrics_out(
            path,
            &sim_metrics_page(&pooled_spans, pooled_rounds, pooled_jumped),
        );
    }
    if json {
        return doc.to_string();
    }
    let mut rendered = t.render();
    rendered.push_str(
        &saath_metrics::phase_table("scalability sweep (all points)", &pooled_spans).render(),
    );
    rendered
}

/// **Trace diagnosis** — not a paper figure: runs Saath and Aalo over
/// the same FB-like workload with full instrumentation, writes each
/// run's deterministic JSONL round trace to `results/trace_<policy>.jsonl`,
/// and prints the per-policy mechanism breakdown that maps the run back
/// to the paper's design levers (D1 LCoF ordering, D2 all-or-none,
/// D3 queue transitions, D4 work conservation, D5 starvation
/// deadlines). `small` uses the lab's FB trace instead of the
/// scalability sweep's first point, ≥ 10k flows on 150 nodes (CI smoke
/// test).
pub fn trace_diag(lab: &Lab, small: bool) -> String {
    use saath_metrics::avg_p90_ms;
    use saath_simulator::{simulate_resumable, ReplayHooks, SimConfig};
    use saath_workload::DynamicsSpec;

    let trace = if small {
        lab.trace(Workload::Fb).clone()
    } else {
        first_point_trace(lab.seed())
    };
    let cfg = SimConfig::default();
    let dynamics = DynamicsSpec::none();

    let mut out = String::new();
    let mut lines = Vec::new();
    // Concrete scheduler types (not `Policy`) so the per-policy
    // `MechCounters` stay reachable after the run.
    for policy in ["saath", "aalo"] {
        let mut tele = saath_telemetry::Telemetry::with_jsonl();
        let mut replay = |s: &mut dyn saath_core::CoflowScheduler| {
            let hooks = ReplayHooks {
                tele: Some(&mut tele),
                ..ReplayHooks::none()
            };
            simulate_resumable(&trace, s, &cfg, &dynamics, hooks)
                .unwrap_or_else(|e| panic!("trace diagnosis: {policy} failed: {e}"))
                .rounds
        };
        let (mech, rounds, computed) = match policy {
            "saath" => {
                let mut s = saath_core::Saath::with_defaults();
                let rounds = replay(&mut s);
                // Wall-clock phase spans stay out of the deterministic
                // JSONL; report them here alongside the counters.
                let (ca, cp) = avg_p90_ms(s.timings.spans.hist(Phase::SchedContention));
                out.push_str(&format!(
                    "saath contention phase: {ca:.4} ms avg / {cp:.4} ms P90\n"
                ));
                out.push_str(
                    &saath_metrics::phase_table("saath scheduler phases", &s.timings.spans)
                        .render(),
                );
                (s.mech, rounds, s.timings.rounds())
            }
            _ => {
                let mut s = saath_core::Aalo::with_defaults();
                let rounds = replay(&mut s);
                (s.mech, rounds, s.timings.rounds())
            }
        };
        // Every round is counted, logged and traced; the engine runs
        // `compute` only where the previous schedule may not stand, and
        // stops only at boundaries where something can happen.
        out.push_str(&format!(
            "{policy} rounds: {computed} computed + {} reused ({} not visited)\n",
            rounds - computed,
            tele.counter(saath_telemetry::Counter::RoundsJumped)
        ));
        lab.write_csv(&format!("trace_{policy}.jsonl"), tele.jsonl());
        out.push_str(&saath_metrics::engine_table(policy, &tele).render());
        out.push_str(&saath_metrics::mech_table(policy, &mech).render());
        lines.push(saath_metrics::mech_breakdown_line(policy, &mech, &tele));
        lines.push(saath_metrics::eventlog_line(policy, &tele));
    }
    out.push_str("== mechanism breakdown ==\n");
    for l in &lines {
        out.push_str(l);
        out.push('\n');
    }
    out.push_str(&format!(
        "JSONL round traces written to {}/trace_saath.jsonl and trace_aalo.jsonl\n",
        lab.out_dir.display()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full harness runs end-to-end on small traces and produces
    /// non-empty, well-formed tables.
    #[test]
    fn all_figures_render_on_small_lab() {
        let mut lab = Lab::small(5);
        lab.out_dir = std::env::temp_dir().join("saath-bench-test");
        for (name, text) in [
            ("fig2", fig2(&mut lab)),
            ("fig3", fig3(&mut lab)),
            ("fig9", fig9(&mut lab)),
            ("fig10", fig10(&mut lab)),
            ("fig11", fig11(&mut lab)),
            ("fig12", fig12(&mut lab)),
            ("fig13", fig13(&mut lab)),
            ("fig17", fig17(&lab)),
            ("table2", table2(&mut lab)),
            ("dynamics", dynamics(&mut lab)),
        ] {
            assert!(
                text.lines().count() >= 4,
                "{name} produced no rows:\n{text}"
            );
            assert!(text.contains("=="), "{name} missing title");
        }
    }

    #[test]
    fn fig14_panels_render() {
        let mut lab = Lab::small(6);
        lab.out_dir = std::env::temp_dir().join("saath-bench-test");
        for panel in ["delta", "d"] {
            let text = fig14(&mut lab, panel);
            assert!(text.contains("Fig 14"), "panel {panel} missing:\n{text}");
        }
    }

    #[test]
    fn emulation_figures_render_small() {
        let mut lab = Lab::small(7);
        lab.out_dir = std::env::temp_dir().join("saath-bench-test");
        // High scale → fast wall time; small node cap keeps threads low.
        let text = fig15_16(&mut lab, 100, 12);
        assert!(text.contains("Fig 15"));
        assert!(text.contains("Fig 16"));
    }
}

//! `repro` — regenerates every table and figure of the Saath paper.
//!
//! ```text
//! repro <experiment> [options]
//!
//! experiments:
//!   fig2 fig3 fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17 table2 dynamics
//!   scale          Fig 9-style scalability sweep: rounds/sec, engine-loop
//!                  and scheduler phase times at 150→1k nodes × 10k→100k
//!                  flows, three replays a point plus an untimed
//!                  instrumented one (writes BENCH_scalability.json; with
//!                  --trace PATH, replays that file as the only point and
//!                  writes no BENCH file)
//!   trace          instrumented Saath + Aalo runs: mechanism breakdown tables
//!                  and deterministic JSONL round traces in results/
//!   gen-trace      write a full-size FB-like trace in coflow-benchmark format
//!                  to --out PATH (offline stand-in for the published trace)
//!   emulate        runtime emulation (one coordinator; every node an
//!                  agent in its own host event loop) with a live Prometheus
//!                  /metrics endpoint (default 127.0.0.1:0; see
//!                  --metrics-addr / --metrics-out); with --multiplex,
//!                  runs the readiness-driven host sweep instead:
//!                  cluster sizes up to --nodes, agents multiplexed on
//!                  at most 64 host threads (writes
//!                  BENCH_emulate_scale.json unless --small)
//!   verify PATH    stream a recorded event log through the O(1)-memory
//!                  hash-chain verifier; exits 1 (naming the first bad
//!                  round) if the chain is broken
//!   diff A B       differential harness: binary-search two logs' chained
//!                  digests to the first divergent round and print the
//!                  minimal field-level diff of that round's schedule;
//!                  exits 1 when a divergence is found
//!   bench-diff A B regression gate: compare two BENCH_*.json documents
//!                  field by field (content-keyed sweep points); exits 1
//!                  when a gated field regresses past --tolerance-pct
//!   all            run everything
//!
//! options:
//!   --seed N       generator seed (default 1)
//!   --panel P      fig14 panel: s | e | delta | a | d | all (default all)
//!   --trace PATH   use a real coflow-benchmark file for the FB workload
//!                  (scale: the only point)
//!   --out PATH     gen-trace output path (default fb_trace.txt)
//!   --scale N      emulation time scale for fig15/fig16 (default 50)
//!   --nodes N      emulation node cap for fig15/fig16 (default 40);
//!                  with emulate --multiplex, the sweep's largest point
//!   --multiplex    emulate only: readiness-driven multiplexed host
//!                  sweep (O(hosts) threads, not one per node)
//!   --small        use small traces (smoke test, seconds instead of minutes)
//!   --json         scale / emulate --multiplex: print the BENCH JSON
//!                  document instead of the table
//!   --log PATH     scale only: record a hash-chained event log of an
//!                  extra untimed replay of the first point (records
//!                  asserted identical to the timed run) to PATH
//!   --snapshot-every N
//!                  with --log: serialize a full engine snapshot into the
//!                  log every N rounds (0, the default, disables snapshots)
//!   --resume-from PATH
//!                  scale only: resume the untimed replay from the
//!                  last snapshot in a previously recorded log; the
//!                  continuation chains to the same digest as a full run
//!   --metrics-out PATH
//!                  scale/emulate: dump the final Prometheus
//!                  exposition page to PATH
//!   --metrics-addr ADDR
//!                  emulate only: bind the live /metrics endpoint to ADDR
//!                  (default 127.0.0.1:0, port printed on stderr)
//!   --tolerance-pct N
//!                  bench-diff only: regression tolerance in percent
//!                  (default 10)
//! ```
//!
//! A flag not listed above ends the run (exit 2) naming it, as does a
//! numeric option whose value does not parse, an option given no
//! value, `--nodes 0`, `--scale 0` and a `--resume-from` file that is
//! not an event log with a snapshot. CSV artifacts land in `results/`.

use saath_bench::{figs, Lab};

/// Every flag `repro` reads; [`main`] refuses any other.
const FLAGS: &[&str] = &[
    "--seed",
    "--panel",
    "--trace",
    "--out",
    "--scale",
    "--nodes",
    "--multiplex",
    "--small",
    "--json",
    "--log",
    "--snapshot-every",
    "--resume-from",
    "--metrics-out",
    "--metrics-addr",
    "--tolerance-pct",
];

/// Prints `text` and a newline on stdout. A reader that has gone away
/// (`repro bench-diff A B | head -1`) ends the output, not the run: the
/// rest is dropped and the exit status stays the one the run computes.
fn emit(text: &str) {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    if let Err(e) = writeln!(out, "{text}").and_then(|()| out.flush()) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("repro: cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// The value after `key`, `None` when the flag is absent. A flag that
/// comes last, or right before another flag, ends the run (exit 2)
/// naming it, instead of being dropped or taking that flag as its value.
fn arg_value(args: &[String], key: &str) -> Option<String> {
    let i = args.iter().position(|a| a == key)?;
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Some(v.clone()),
        _ => {
            eprintln!("repro: {key} takes a value");
            std::process::exit(2)
        }
    }
}

/// The value of `key` as a `T`, `None` when the flag is absent; a
/// value that does not parse ends the run (exit 2) instead of quietly
/// becoming the default.
fn arg_parsed<T: std::str::FromStr>(args: &[String], key: &str) -> Option<T> {
    arg_value(args, key).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("repro: {key} takes a number, got `{v}`");
            std::process::exit(2)
        })
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().cloned().unwrap_or_else(|| {
        eprintln!("usage: repro <fig2|fig3|fig9|fig10|fig11|fig12|fig13|fig14|fig15|fig16|fig17|table2|dynamics|scale|trace|emulate|gen-trace|verify|diff|bench-diff|all> [--seed N] [--panel P] [--trace PATH] [--out PATH] [--scale N] [--nodes N] [--multiplex] [--small] [--json] [--log PATH] [--snapshot-every N] [--resume-from PATH] [--metrics-out PATH] [--metrics-addr ADDR] [--tolerance-pct N]");
        std::process::exit(2);
    });
    // A flag nothing reads would otherwise be ignored, and a stale
    // command line would run a different experiment than it names.
    if let Some(flag) = args
        .iter()
        .find(|a| a.starts_with("--") && !FLAGS.contains(&a.as_str()))
    {
        eprintln!("repro: unknown flag `{flag}`");
        std::process::exit(2);
    }
    let seed: u64 = arg_parsed(&args, "--seed").unwrap_or(1);
    let panel = arg_value(&args, "--panel").unwrap_or_else(|| "all".into());
    let scale: u64 = arg_parsed(&args, "--scale").unwrap_or(50);
    let nodes: usize = arg_parsed(&args, "--nodes").unwrap_or(40);
    // The emulations fold the cluster onto `--nodes` agents and run
    // `--scale` simulated seconds per wall second: neither can be 0.
    for (flag, zero) in [("--scale", scale == 0), ("--nodes", nodes == 0)] {
        if zero {
            eprintln!("repro: {flag} takes a positive number, got `0`");
            std::process::exit(2);
        }
    }
    let multiplex = args.iter().any(|a| a == "--multiplex");
    let small = args.iter().any(|a| a == "--small");
    let json = args.iter().any(|a| a == "--json");
    let log_opts = figs::LogOptions::load(
        arg_value(&args, "--log").map(std::path::PathBuf::from),
        arg_parsed(&args, "--snapshot-every").unwrap_or(0),
        arg_value(&args, "--resume-from")
            .as_deref()
            .map(std::path::Path::new),
    )
    .unwrap_or_else(|e| {
        eprintln!("repro: {e}");
        std::process::exit(2)
    });
    let metrics_out = arg_value(&args, "--metrics-out").map(std::path::PathBuf::from);

    // Log-file subcommands need no Lab (no trace generation): handle
    // them before the lab is built, like `gen-trace` below.
    if what == "verify" {
        let path = args.get(1).cloned().unwrap_or_else(|| {
            eprintln!("usage: repro verify <log>");
            std::process::exit(2);
        });
        match figs::verify_log(std::path::Path::new(&path)) {
            Ok(summary) => emit(&summary),
            Err(e) => {
                eprintln!("verification FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if what == "diff" {
        let (a, b) = match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => (a.clone(), b.clone()),
            _ => {
                eprintln!("usage: repro diff <log-a> <log-b>");
                std::process::exit(2);
            }
        };
        match figs::diff_cmd(std::path::Path::new(&a), std::path::Path::new(&b)) {
            Ok((report, diverged)) => {
                emit(&report);
                if diverged {
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("diff failed: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    if what == "bench-diff" {
        let (a, b) = match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => (a.clone(), b.clone()),
            _ => {
                eprintln!("usage: repro bench-diff <old.json> <new.json> [--tolerance-pct N]");
                std::process::exit(2);
            }
        };
        let tolerance: f64 = arg_parsed(&args, "--tolerance-pct").unwrap_or(10.0);
        match saath_bench::diff::bench_diff_cmd(
            std::path::Path::new(&a),
            std::path::Path::new(&b),
            tolerance,
        ) {
            Ok((report, regressed)) => {
                emit(&report);
                if regressed {
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("bench-diff failed: {e}");
                std::process::exit(2);
            }
        }
        return;
    }

    let mut lab = if small {
        Lab::small(seed)
    } else {
        Lab::new(seed)
    };
    let trace_path = arg_value(&args, "--trace");
    if let Some(path) = &trace_path {
        let trace = saath_workload::io::read_coflow_benchmark(
            std::path::Path::new(path),
            saath_simcore::Rate::gbps(1),
        )
        .unwrap_or_else(|e| {
            eprintln!("cannot read trace {path}: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "using real trace {path}: {} nodes, {} coflows",
            trace.num_nodes,
            trace.coflows.len()
        );
        lab = lab.with_fb_trace(trace);
    }

    let t0 = std::time::Instant::now();
    let run = |lab: &mut Lab, id: &str| -> Option<String> {
        match id {
            "fig2" => Some(figs::fig2(lab)),
            "fig3" => Some(figs::fig3(lab)),
            "fig9" => Some(figs::fig9(lab)),
            "fig10" => Some(figs::fig10(lab)),
            "fig11" => Some(figs::fig11(lab)),
            "fig12" => Some(figs::fig12(lab)),
            "fig13" => Some(figs::fig13(lab)),
            "fig14" => Some(figs::fig14(lab, &panel)),
            "fig15" | "fig16" | "fig15_16" => Some(figs::fig15_16(lab, scale, nodes)),
            "fig17" => Some(figs::fig17(lab)),
            "table2" => Some(figs::table2(lab)),
            "dynamics" => Some(figs::dynamics(lab)),
            "scale" => Some(figs::scale(
                lab,
                json,
                small,
                trace_path.is_some(),
                &log_opts,
                metrics_out.as_deref(),
            )),
            "trace" => Some(figs::trace_diag(lab, small)),
            "emulate" => Some(if multiplex {
                figs::emulate_scale_cmd(lab, scale, nodes, small, json)
            } else {
                figs::emulate_cmd(
                    lab,
                    scale,
                    nodes,
                    arg_value(&args, "--metrics-addr"),
                    metrics_out.as_deref(),
                )
            }),
            _ => None,
        }
    };

    if what == "gen-trace" {
        let out = arg_value(&args, "--out").unwrap_or_else(|| "fb_trace.txt".into());
        emit(&figs::gen_trace(seed, std::path::Path::new(&out)));
        return;
    }

    if what == "all" {
        for id in [
            "fig2", "fig3", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15_16",
            "fig17", "table2", "dynamics",
        ] {
            emit(&run(&mut lab, id).unwrap());
        }
    } else {
        match run(&mut lab, &what) {
            Some(text) => emit(&text),
            None => {
                eprintln!("unknown experiment `{what}`");
                std::process::exit(2);
            }
        }
    }
    eprintln!(
        "[repro] done in {:.1?} (seed {seed}); CSVs in results/",
        t0.elapsed()
    );
}

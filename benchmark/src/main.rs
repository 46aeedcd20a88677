//! The repository's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! saath-benchmark run [--workload W] [--seed N] [--seconds 20] [--trace 0|1]
//! saath-benchmark check
//! saath-benchmark spread [--seed N]
//! ```
//!
//! `run --workload W` measures one workload in this process and ends
//! with one JSON line. Without `--workload`, `run` measures every
//! workload, each invocation in a child process of its own, and prints
//! every metric; `check` does the same at a twentieth of the size;
//! `spread` repeats the end-to-end run over ten consecutive seeds and
//! prints each metric's quartile spread.

#![forbid(unsafe_code)]

mod probes;
mod prom;
mod recorder;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Size, Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`: about how long the timed part of
/// a full-size invocation lasts. The suites are sized for it, so the
/// driver's `--seconds` is accepted only with this value.
const RUN_SECONDS: u64 = 20;
/// Seeds `spread` covers, as the driver does.
const SPREAD_SEEDS: u64 = 10;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    traced: bool,
}

fn parse_args(rest: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        traced: false,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let known = || WORKLOADS.map(|w| w.name).join(", ");
                args.workload = Some(
                    workloads::find(value)
                        .ok_or_else(|| format!("unknown workload {value}; one of {}", known()))?,
                );
            }
            "--seed" => args.seed = number()?,
            "--seconds" => {
                if number()? != RUN_SECONDS {
                    return Err(format!(
                        "--seconds {value}: the suites are sized for {RUN_SECONDS}"
                    ));
                }
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let usage =
        "usage: saath-benchmark run [--workload W] [--seed N] [--seconds 20] [--trace 0|1]\n\
                 \x20      saath-benchmark check\n\
                 \x20      saath-benchmark spread [--seed N]";
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{usage}");
            return ExitCode::from(2);
        }
    };
    // `check --workload W` is how `check` starts its children.
    let ok = match (command.as_str(), args.workload) {
        ("run", Some(w)) => run_one(w, &args, Size::Full),
        ("check", Some(w)) => run_one(w, &args, Size::Check),
        ("run", None) => run_all(args.seed, Size::Full),
        ("check", None) => run_all(args.seed, Size::Check),
        ("spread", None) => spread(args.seed),
        _ => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload, in this process. The JSON line is the last line of
/// standard output; everything else goes to standard error.
fn run_one(w: &Workload, args: &Args, size: Size) -> bool {
    let outcome = if args.traced {
        run::per_layer(w, args.seed, size)
    } else {
        run::end_to_end(w, args.seed, size)
    };
    for fault in &outcome.faults {
        eprintln!("{}: FAILED CHECK: {fault}", w.name);
    }
    println!("{}", outcome.json_line());
    outcome.correct && outcome.failed == 0
}

/// Runs this program again on one workload and reads its line. A
/// process of its own gives each invocation its own `VmHWM`.
fn child(w: &Workload, seed: u64, traced: bool, size: Size) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg(if size == Size::Full { "run" } else { "check" })
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: cannot start child: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let outcome = stdout
        .lines()
        .last()
        .and_then(Outcome::parse)
        .ok_or_else(|| format!("{}: child printed no result ({})", w.name, output.status))?;
    if !output.status.success() && outcome.correct && outcome.failed == 0 {
        return Err(format!("{}: child {}", w.name, output.status));
    }
    Ok(outcome)
}

/// Where the machine, toolchain and commit are read from; `unknown`
/// where one cannot be.
fn environment(seed: u64) -> Vec<(&'static str, String)> {
    let file = |path: &str| std::fs::read_to_string(path).ok();
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let cpu = file("/proc/cpuinfo").and_then(|s| {
        s.lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    });
    let nproc = std::thread::available_parallelism().map(|n| n.get().to_string());
    let unknown = || "unknown".to_string();
    vec![
        ("seed", seed.to_string()),
        ("nproc", nproc.unwrap_or_else(|_| unknown())),
        ("cpu", cpu.unwrap_or_else(unknown)),
        (
            "kernel",
            file("/proc/sys/kernel/osrelease").map_or_else(unknown, |s| s.trim().to_string()),
        ),
        ("rustc", tool("rustc", &["-V"]).unwrap_or_else(unknown)),
        (
            "commit",
            tool("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        ),
    ]
}

/// Every workload, end to end and traced, each in its own child.
fn run_all(seed: u64, size: Size) -> bool {
    let env = environment(seed);
    for (key, value) in &env {
        println!("{key:<8} {value}");
    }
    let mut ok = true;
    let mut columns: Vec<Vec<Outcome>> = Vec::new();
    for w in &WORKLOADS {
        println!("\n{} — {}", w.name, w.why);
        let mut both = Vec::new();
        for traced in [false, true] {
            match child(w, seed, traced, size) {
                Ok(o) => {
                    ok &= o.correct && o.failed == 0;
                    both.push(o);
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                    both.push(Outcome::default());
                }
            }
        }
        println!(
            "  ops_failed / ops_attempted   {} / {} CoFlows (end to end), {} / {} (traced)",
            both[0].failed, both[0].attempted, both[1].failed, both[1].attempted
        );
        columns.push(both);
    }

    println!();
    print!("{:<40} {:>6}", "metric", "unit");
    for w in &WORKLOADS {
        print!(" {:>16}", w.name);
    }
    println!();
    for (traced, catalogue) in [&END_TO_END[..], &PER_LAYER[..]].into_iter().enumerate() {
        for m in catalogue {
            print!("{:<40} {:>6}", m.name, m.unit);
            for (w, both) in WORKLOADS.iter().zip(&columns) {
                // End to end, a value outside the metric's own family.
                let star = if traced == 0 && !m.on.covers(w.family) {
                    "*"
                } else {
                    ""
                };
                match both[traced].metrics.iter().find(|v| v.0 == m.name) {
                    Some((_, value, _)) => print!(" {:>16}", format_value(*value) + star),
                    None => print!(" {:>16}", "missing"),
                }
            }
            println!();
        }
    }
    println!(
        "* not one of the issue's pairs: measured because the driver wants every \
         name from every workload (README, End-to-end metrics)"
    );
    if let Err(e) = write_report(&env, &columns) {
        eprintln!("out/report.json: {e}");
        ok = false;
    }
    println!(
        "\n{}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    ok
}

/// Four significant digits, for the table only.
fn format_value(v: f64) -> String {
    if v == 0.0 || v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        let digits = 3 - v.abs().log10().floor() as i32;
        format!("{v:.*}", digits.clamp(0, 9) as usize)
    }
}

/// The same numbers, with all their digits, as `out/report.json`.
fn write_report(env: &[(&'static str, String)], columns: &[Vec<Outcome>]) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let env: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace(['"', '\\'], "'")))
        .collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .zip(columns)
        .map(|(w, both)| {
            format!(
                "\"{}\": {{\"end_to_end\": {}, \"per_layer\": {}}}",
                w.name,
                both[0].json_line(),
                both[1].json_line()
            )
        })
        .collect();
    std::fs::write(
        dir.join("report.json"),
        format!(
            "{{\"environment\": {{{}}},\n \"workloads\": {{\n  {}\n }}}}\n",
            env.join(", "),
            workloads.join(",\n  ")
        ),
    )
}

/// The driver's acceptance rule, run here: one end-to-end invocation
/// per workload on each of ten consecutive seeds, then each metric's
/// quartile spread as a share of its median.
fn spread(first_seed: u64) -> bool {
    let mut ok = true;
    println!(
        "{:<16} {:<20} {:>12} {:>8}   values",
        "workload", "metric", "median", "spread"
    );
    for w in &WORKLOADS {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for seed in first_seed..first_seed + SPREAD_SEEDS {
            match child(w, seed, false, Size::Full) {
                Ok(o) => {
                    ok &= o.correct && o.failed == 0;
                    for (slot, (_, value, _)) in samples.iter_mut().zip(&o.metrics) {
                        slot.push(*value);
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
        for (m, values) in END_TO_END.iter().zip(&samples) {
            let values_text: Vec<String> = values.iter().map(|v| format_value(*v)).collect();
            println!(
                "{:<16} {:<20} {:>12} {:>8}   {}",
                w.name,
                m.name,
                stats::median(values).map_or("-".into(), format_value),
                stats::spread(values).map_or("-".into(), |s| format!("{:.1}%", s * 100.0)),
                values_text.join(" ")
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload emu-tcp-150 --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.unwrap().name, "emu-tcp-150");
        assert_eq!((a.seed, a.traced), (7, true));
        assert!(parse_args(&argv("--seconds 5")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        let defaults = parse_args(&[]).unwrap();
        assert_eq!((defaults.seed, defaults.traced), (1, false));
    }

    #[test]
    fn run_seconds_matches_benchmark_json() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        assert!(manifest.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
    }

    #[test]
    fn table_values_keep_four_digits() {
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(1.23456), "1.235");
        assert_eq!(format_value(0.00123456), "0.001235");
        assert_eq!(format_value(123456.7), "123457");
        assert_eq!(format_value(-12.3456), "-12.35");
    }
}

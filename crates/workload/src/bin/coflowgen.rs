//! `coflowgen` — generate, inspect, and convert CoFlow traces in the
//! public `coflow-benchmark` text format.
//!
//! ```text
//! coflowgen gen   --preset fb|osp|small --seed N [--out FILE]
//! coflowgen stats FILE
//! ```
//!
//! `gen` writes a trace to stdout (or `--out`); `stats` prints the
//! workload statistics the paper's Table 1 / Fig 2 analysis uses, for
//! any file in the format — including the real published Facebook
//! trace.

use saath_simcore::Rate;
use saath_workload::{gen, io, Trace};

fn fail(msg: &str) -> ! {
    eprintln!("coflowgen: {msg}");
    eprintln!("usage: coflowgen gen --preset fb|osp|small --seed N [--out FILE]");
    eprintln!("       coflowgen stats FILE");
    std::process::exit(2);
}

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

fn print_stats(trace: &Trace) {
    println!(
        "nodes: {}   coflows: {}   flows: {}   total: {:.2} GB   span: {:.1}s",
        trace.num_nodes,
        trace.coflows.len(),
        trace.num_flows(),
        trace.total_bytes().as_u64() as f64 / 1e9,
        trace.arrival_span().as_secs_f64(),
    );
    let n = trace.coflows.len() as f64;
    let single = trace.coflows.iter().filter(|c| c.width() == 1).count() as f64;
    let equal = trace
        .coflows
        .iter()
        .filter(|c| c.width() > 1 && c.has_equal_flows())
        .count() as f64;
    println!(
        "flow-length mix: {:.0}% single, {:.0}% multi-equal, {:.0}% multi-uneven",
        single / n * 100.0,
        equal / n * 100.0,
        (n - single - equal) / n * 100.0
    );
    let mut bins = [0usize; 4];
    for c in &trace.coflows {
        let wide = c.width() > 10;
        let long = c.total_size() > saath_simcore::Bytes::mb(100);
        bins[match (long, wide) {
            (false, false) => 0,
            (false, true) => 1,
            (true, false) => 2,
            (true, true) => 3,
        }] += 1;
    }
    for (i, b) in bins.iter().enumerate() {
        println!("bin-{} : {:>5.1}%", i + 1, *b as f64 / n * 100.0);
    }
    let mut widths: Vec<usize> = trace.coflows.iter().map(|c| c.width()).collect();
    widths.sort_unstable();
    println!(
        "width: p50 {}  p90 {}  max {}",
        widths[widths.len() / 2],
        widths[widths.len() * 9 / 10],
        widths.last().unwrap()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => {
            let seed: u64 = arg_value(&args, "--seed").map_or(1, |v| {
                v.parse()
                    .unwrap_or_else(|_| fail(&format!("--seed takes a number, got `{v}`")))
            });
            let cfg = match arg_value(&args, "--preset").as_deref() {
                Some("fb") | None => gen::fb_like(seed),
                Some("osp") => gen::osp_like(seed),
                Some("small") => gen::small(seed, 20, 60),
                Some(other) => fail(&format!("unknown preset `{other}`")),
            };
            let trace = gen::generate(&cfg);
            let text = io::write_coflow_benchmark(&trace);
            match arg_value(&args, "--out") {
                Some(path) => {
                    std::fs::write(&path, text)
                        .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
                    eprintln!("wrote {} coflows to {path}", trace.coflows.len());
                }
                None => print!("{text}"),
            }
        }
        Some("stats") => {
            let path = args.get(1).unwrap_or_else(|| fail("stats needs a file"));
            let trace = io::read_coflow_benchmark(std::path::Path::new(path), Rate::gbps(1))
                .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
            print_stats(&trace);
        }
        _ => fail("missing subcommand"),
    }
}

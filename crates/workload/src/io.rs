//! Reading and writing the `coflow-benchmark` trace format.
//!
//! The Facebook trace the paper replays is published at
//! `github.com/coflow/coflow-benchmark` as a whitespace-separated text
//! file:
//!
//! ```text
//! <num_ports> <num_coflows>
//! <id> <arrival_ms> <M> <m_1> … <m_M> <R> <r_1>:<mb_1> … <r_R>:<mb_R>
//! ```
//!
//! Each line is one CoFlow: `M` mapper machines, then `R` reducer
//! entries of the form `machine:megabytes`, where `megabytes` is the
//! *total* volume that reducer receives. Following `coflowsim`, that
//! volume is split equally across the `M` mappers, giving an `M × R`
//! all-to-all shuffle of `M·R` flows.
//!
//! Machine numbers in the published file are 1-based; we auto-detect
//! 0-based files (any index equal to 0) for robustness and say so in the
//! parse result.

use crate::spec::{CoflowSpec, FlowSpec, Trace};
use saath_simcore::{Bytes, CoflowId, NodeId, Rate, Time};
use std::fmt;

/// A parse failure, with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parses a `coflow-benchmark` trace from a string. `port_rate` is the
/// uniform port speed to attach (the file does not carry one; the paper
/// uses 1 Gbps).
pub fn parse_coflow_benchmark(text: &str, port_rate: Rate) -> Result<Trace, ParseError> {
    parse_from_lines(
        text.lines().map(Ok::<_, std::convert::Infallible>),
        port_rate,
    )
}

/// The line-oriented core behind [`parse_coflow_benchmark`] and
/// [`read_coflow_benchmark`]: consumes lines one at a time (borrowed
/// from an in-memory string, or owned from a [`std::io::BufRead`]), so
/// file ingestion never materializes the whole trace text. Read
/// failures surface as [`ParseError`]s on the line they interrupted.
fn parse_from_lines<S, E, I>(lines: I, port_rate: Rate) -> Result<Trace, ParseError>
where
    S: AsRef<str>,
    E: fmt::Display,
    I: Iterator<Item = Result<S, E>>,
{
    let mut lines = lines
        .enumerate()
        .map(|(i, r)| {
            r.map(|l| (i, l))
                .map_err(|e| err(i + 1, format!("read failed: {e}")))
        })
        .filter(|r| !matches!(r, Ok((_, l)) if l.as_ref().trim().is_empty()));

    let (hline, header) = lines.next().ok_or_else(|| err(1, "empty file"))??;
    let header = header.as_ref();
    let mut head = header.split_whitespace();
    let num_nodes: usize = head
        .next()
        .ok_or_else(|| err(hline + 1, "missing port count"))?
        .parse()
        .map_err(|_| err(hline + 1, "bad port count"))?;
    let num_coflows: usize = head
        .next()
        .ok_or_else(|| err(hline + 1, "missing coflow count"))?
        .parse()
        .map_err(|_| err(hline + 1, "bad coflow count"))?;
    if num_nodes == 0 {
        return Err(err(hline + 1, "zero ports"));
    }
    // Ports are numbered `0..2·num_nodes` in a `u32`.
    if num_nodes > (u32::MAX / 2) as usize {
        return Err(err(
            hline + 1,
            format!("{num_nodes} ports exceed the port id space"),
        ));
    }

    // First pass: raw records, tracking whether any machine index is 0
    // (then the file is 0-based) — the published FB file is 1-based.
    struct Raw {
        line: usize,
        id: u32,
        arrival_ms: u64,
        mappers: Vec<u64>,
        reducers: Vec<(u64, f64)>,
    }
    let mut raws: Vec<Raw> = Vec::with_capacity(num_coflows.min(1 << 20));
    let mut saw_zero = false;
    for item in lines {
        let (lineno, line) = item?;
        let line = line.as_ref();
        let ln = lineno + 1;
        let mut tok = line.split_whitespace();
        let id: u32 = tok
            .next()
            .ok_or_else(|| err(ln, "missing coflow id"))?
            .parse()
            .map_err(|_| err(ln, "bad coflow id"))?;
        let arrival_ms: u64 = tok
            .next()
            .ok_or_else(|| err(ln, "missing arrival time"))?
            .parse()
            .map_err(|_| err(ln, "bad arrival time"))?;
        let in_clock = |ns| Time(ns) <= Time::LATEST;
        if !arrival_ms.checked_mul(1_000_000).is_some_and(in_clock) {
            return Err(err(ln, "arrival time is past the clock's latest instant"));
        }
        let m: usize = tok
            .next()
            .ok_or_else(|| err(ln, "missing mapper count"))?
            .parse()
            .map_err(|_| err(ln, "bad mapper count"))?;
        if m == 0 {
            return Err(err(ln, "zero mappers"));
        }
        // Counts size nothing past the tokens the line holds.
        let mut mappers = Vec::with_capacity(m.min(line.len()));
        for _ in 0..m {
            let v: u64 = tok
                .next()
                .ok_or_else(|| err(ln, "truncated mapper list"))?
                .parse()
                .map_err(|_| err(ln, "bad mapper machine"))?;
            saw_zero |= v == 0;
            mappers.push(v);
        }
        let r: usize = tok
            .next()
            .ok_or_else(|| err(ln, "missing reducer count"))?
            .parse()
            .map_err(|_| err(ln, "bad reducer count"))?;
        if r == 0 {
            return Err(err(ln, "zero reducers"));
        }
        let mut reducers = Vec::with_capacity(r.min(line.len()));
        for _ in 0..r {
            let entry = tok
                .next()
                .ok_or_else(|| err(ln, "truncated reducer list"))?;
            let (machine, mb) = entry
                .split_once(':')
                .ok_or_else(|| err(ln, format!("reducer entry `{entry}` missing `:`")))?;
            let machine: u64 = machine
                .parse()
                .map_err(|_| err(ln, "bad reducer machine"))?;
            let mb: f64 = mb.parse().map_err(|_| err(ln, "bad reducer size"))?;
            if !mb.is_finite() {
                return Err(err(ln, "non-finite reducer size"));
            }
            if mb <= 0.0 {
                return Err(err(ln, "non-positive reducer size"));
            }
            if mb * 1e6 >= u64::MAX as f64 {
                return Err(err(ln, "reducer size overflows a byte count"));
            }
            saw_zero |= machine == 0;
            reducers.push((machine, mb));
        }
        if tok.next().is_some() {
            return Err(err(ln, "trailing tokens"));
        }
        raws.push(Raw {
            line: ln,
            id,
            arrival_ms,
            mappers,
            reducers,
        });
    }

    if raws.len() != num_coflows {
        return Err(err(
            1,
            format!(
                "header promises {num_coflows} coflows, file has {}",
                raws.len()
            ),
        ));
    }

    let base = if saw_zero { 0 } else { 1 };
    let mut coflows = Vec::with_capacity(raws.len());
    for raw in &raws {
        let mut flows = Vec::with_capacity(raw.mappers.len() * raw.reducers.len());
        for &(red, mb) in &raw.reducers {
            let red = red
                .checked_sub(base)
                .filter(|&v| (v as usize) < num_nodes)
                .ok_or_else(|| err(raw.line, format!("reducer machine {red} out of range")))?;
            // Total reducer volume split equally across mappers, as in
            // coflowsim. Round up per-flow so no flow is zero-sized.
            let per_flow_bytes = ((mb * 1e6).ceil() as u64)
                .div_ceil(raw.mappers.len() as u64)
                .max(1);
            for &map in &raw.mappers {
                let map = map
                    .checked_sub(base)
                    .filter(|&v| (v as usize) < num_nodes)
                    .ok_or_else(|| err(raw.line, format!("mapper machine {map} out of range")))?;
                flows.push(FlowSpec::new(
                    NodeId(map as u32),
                    NodeId(red as u32),
                    Bytes(per_flow_bytes),
                ));
            }
        }
        coflows.push(CoflowSpec::new(
            CoflowId(raw.id),
            Time::from_millis(raw.arrival_ms),
            flows,
        ));
    }
    coflows.sort_by_key(|c| (c.arrival, c.id));

    let trace = Trace {
        num_nodes,
        port_rate,
        coflows,
    };
    trace
        .validate()
        .map_err(|e| err(1, format!("structurally invalid trace: {e}")))?;
    Ok(trace)
}

/// Reads a trace file from disk, streaming it line-by-line through a
/// buffered reader — the full text is never held in memory, so
/// full-size published traces ingest in `O(one line + parsed trace)`
/// space (see [`parse_coflow_benchmark`] for the format).
pub fn read_coflow_benchmark(
    path: &std::path::Path,
    port_rate: Rate,
) -> Result<Trace, Box<dyn std::error::Error>> {
    use std::io::BufRead;
    let reader = std::io::BufReader::new(std::fs::File::open(path)?);
    Ok(parse_from_lines(reader.lines(), port_rate)?)
}

/// Writes a trace in `coflow-benchmark` format (1-based machines).
///
/// The format models an `M × R` shuffle per CoFlow; an arbitrary
/// [`Trace`] is lowered by grouping flows per reducer and emitting the
/// union of senders as the mapper list. Per-mapper volumes are equalized
/// by the format, so a round-trip preserves CoFlow totals per reducer
/// and the port sets, but not unequal per-flow splits — exactly the
/// information the published trace carries. (Traces produced by the
/// generators in [`crate::gen`] with `equal` splits round-trip
/// losslessly.)
pub fn write_coflow_benchmark(trace: &Trace) -> String {
    use std::collections::BTreeMap;
    let mut out = String::new();
    out.push_str(&format!("{} {}\n", trace.num_nodes, trace.coflows.len()));
    for c in &trace.coflows {
        let mut mappers: Vec<u64> = c.flows.iter().map(|f| f.src.0 as u64 + 1).collect();
        mappers.sort_unstable();
        mappers.dedup();
        let mut per_reducer: BTreeMap<u64, u64> = BTreeMap::new();
        for f in &c.flows {
            *per_reducer.entry(f.dst.0 as u64 + 1).or_insert(0) += f.size.as_u64();
        }
        out.push_str(&format!(
            "{} {} {}",
            c.id.0,
            c.arrival.as_millis(),
            mappers.len()
        ));
        for m in &mappers {
            out.push_str(&format!(" {m}"));
        }
        out.push_str(&format!(" {}", per_reducer.len()));
        for (r, bytes) in &per_reducer {
            // Megabytes with enough precision to round-trip integer MB.
            let mb = *bytes as f64 / 1e6;
            if (mb.fract()).abs() < 1e-9 {
                out.push_str(&format!(" {r}:{}", mb as u64));
            } else {
                out.push_str(&format!(" {r}:{mb:.6}"));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
4 2
0 0 2 1 2 2 3:8 4:4
1 5 1 4 1 1:2
";

    #[test]
    fn parses_the_documented_format() {
        let t = parse_coflow_benchmark(SAMPLE, Rate::gbps(1)).unwrap();
        assert_eq!(t.num_nodes, 4);
        assert_eq!(t.coflows.len(), 2);

        let c0 = &t.coflows[0];
        assert_eq!(c0.id, CoflowId(0));
        assert_eq!(c0.arrival, Time::ZERO);
        // 2 mappers × 2 reducers = 4 flows; reducer 3 gets 8 MB → 4 MB
        // per mapper; reducer 4 gets 4 MB → 2 MB per mapper.
        assert_eq!(c0.width(), 4);
        assert_eq!(c0.total_size(), Bytes::mb(12));
        // 1-based machines shifted down.
        assert!(c0.flows.iter().all(|f| f.src.index() <= 1));
        assert!(c0.flows.iter().all(|f| f.dst.index() >= 2));

        let c1 = &t.coflows[1];
        assert_eq!(c1.arrival, Time::from_millis(5));
        assert_eq!(c1.width(), 1);
        assert_eq!(c1.total_size(), Bytes::mb(2));
        assert_eq!(c1.flows[0].src, NodeId(3));
        assert_eq!(c1.flows[0].dst, NodeId(0));
    }

    #[test]
    fn detects_zero_based_files() {
        let text = "4 1\n0 0 1 0 1 3:6\n";
        let t = parse_coflow_benchmark(text, Rate::gbps(1)).unwrap();
        assert_eq!(t.coflows[0].flows[0].src, NodeId(0));
        assert_eq!(t.coflows[0].flows[0].dst, NodeId(3));
    }

    #[test]
    fn fractional_megabytes_are_supported() {
        let text = "2 1\n0 0 1 1 1 2:0.5\n";
        let t = parse_coflow_benchmark(text, Rate::gbps(1)).unwrap();
        assert_eq!(t.coflows[0].total_size(), Bytes(500_000));
    }

    #[test]
    fn error_cases_carry_line_numbers() {
        let cases: &[(&str, &str)] = &[
            ("", "empty file"),
            ("x 2\n", "bad port count"),
            ("4\n", "missing coflow count"),
            ("4 1\n0 0 0 1 1:2\n", "zero mappers"),
            ("4 1\n0 0 1 1 1 5:2\n", "out of range"),
            ("4 1\n0 0 1 1 1 2\n", "missing `:`"),
            ("4 1\n0 0 1 1 1 2:-3\n", "non-positive"),
            ("4 2\n0 0 1 1 1 2:2\n", "header promises 2"),
            ("4 1\n0 0 1 1 1 2:2 junk\n", "trailing"),
        ];
        for (text, needle) in cases {
            let e = parse_coflow_benchmark(text, Rate::gbps(1)).unwrap_err();
            assert!(
                e.message.contains(needle),
                "for {text:?}: got `{}`, wanted `{needle}`",
                e.message
            );
        }
    }

    #[test]
    fn streaming_file_read_matches_in_memory_parse() {
        let t = parse_coflow_benchmark(SAMPLE, Rate::gbps(1)).unwrap();
        let path = std::env::temp_dir().join("saath-io-streaming-test.txt");
        std::fs::write(&path, SAMPLE).unwrap();
        let streamed = read_coflow_benchmark(&path, Rate::gbps(1)).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(t, streamed);
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let t = parse_coflow_benchmark(SAMPLE, Rate::gbps(1)).unwrap();
        let written = write_coflow_benchmark(&t);
        let t2 = parse_coflow_benchmark(&written, Rate::gbps(1)).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn arrivals_are_sorted_after_parse() {
        // File deliberately out of order.
        let text = "4 2\n1 50 1 1 1 2:2\n0 10 1 3 1 4:2\n";
        let t = parse_coflow_benchmark(text, Rate::gbps(1)).unwrap();
        assert_eq!(t.coflows[0].id, CoflowId(0));
        assert_eq!(t.coflows[1].id, CoflowId(1));
        assert!(t.validate().is_ok());
    }

    /// A mapper count far past the tokens on the line is refused; it
    /// used to size the mapper list, and the allocation overflowed.
    #[test]
    fn a_huge_count_is_refused_without_sizing_anything() {
        let e = parse_coflow_benchmark("4 1\n1 0 18446744073709551615 1\n", Rate::gbps(1));
        assert!(e.unwrap_err().message.contains("truncated mapper list"));
        let e = parse_coflow_benchmark("4 1\n1 0 1 1 18446744073709551615 1:2\n", Rate::gbps(1));
        assert!(e.unwrap_err().message.contains("truncated reducer list"));
    }

    /// An arrival whose nanoseconds do not fit a `u64` is refused, not
    /// wrapped to a small instant; so is one past [`Time::LATEST`],
    /// which the engine could not snapshot.
    #[test]
    fn an_arrival_past_the_clock_is_refused() {
        for ms in ["18446744073710", "18446744073709", "4611686018428"] {
            let e = parse_coflow_benchmark(&format!("4 1\n0 {ms} 1 1 1 2:2\n"), Rate::gbps(1));
            assert!(e.unwrap_err().message.contains("past the clock"), "{ms}");
        }
        let last = "4 1\n0 4611686018427 1 1 1 2:2\n";
        let t = parse_coflow_benchmark(last, Rate::gbps(1)).unwrap();
        assert_eq!(t.validate(), Ok(()));
    }

    /// `inf` and `nan` parse as floats but are no size.
    #[test]
    fn non_finite_sizes_are_refused() {
        for size in ["inf", "-inf", "nan", "1e300"] {
            let text = format!("4 1\n0 0 1 1 1 2:{size}\n");
            assert!(
                parse_coflow_benchmark(&text, Rate::gbps(1)).is_err(),
                "{size} accepted"
            );
        }
    }

    /// Tokens the format reads, and the values at its edges.
    const TOKENS: [&str; 16] = [
        "0",
        "1",
        "2",
        "3",
        "4",
        "18446744073709551615",
        "18446744073710",
        "1:2",
        "2:0.5",
        "3:1e300",
        "2:inf",
        "2:nan",
        "4:-1",
        "0:7",
        "x",
        "9:",
    ];

    proptest::proptest! {
        /// Arbitrary text, and lines of plausible tokens, parse to `Ok`
        /// or `Err`: never a panic.
        #[test]
        fn arbitrary_lines_never_panic(
            raw in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200),
            lines in proptest::collection::vec(proptest::collection::vec(0usize..TOKENS.len(), 0..12), 0..5),
        ) {
            let _ = parse_coflow_benchmark(&String::from_utf8_lossy(&raw), Rate::gbps(1));
            let text: Vec<String> = lines
                .iter()
                .map(|l| l.iter().map(|&t| TOKENS[t]).collect::<Vec<_>>().join(" "))
                .collect();
            if let Ok(trace) = parse_coflow_benchmark(&text.join("\n"), Rate::gbps(1)) {
                proptest::prop_assert!(trace.validate().is_ok());
            }
        }
    }

    #[test]
    fn per_flow_rounding_never_yields_zero() {
        // 1 MB over 3 mappers: 333,334 B per flow (rounded up).
        let text = "4 1\n0 0 3 1 2 3 1 4:1\n";
        let t = parse_coflow_benchmark(text, Rate::gbps(1)).unwrap();
        assert_eq!(t.coflows[0].width(), 3);
        for f in &t.coflows[0].flows {
            assert_eq!(f.size, Bytes(333_334));
        }
    }
}

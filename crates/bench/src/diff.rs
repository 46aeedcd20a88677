//! `repro bench-diff` — the performance-regression gate — and the one
//! JSON value type every `BENCH_*.json` document is built from.
//!
//! The harness builds each document as a [`Json`] value and prints it
//! through [`Json`]'s `Display`; the gate reads it back with
//! [`parse_json`], so the writer and the parser meet in one type. The
//! workspace's vendored serde is an API stub that can neither serialize
//! nor deserialize, hence this small module.
//!
//! ## Layout
//!
//! Two-space indent, one member or element per line; numbers print
//! through `f64`'s `Display` (shortest round-trip form, so an integer
//! has no fraction — round a timing before it goes in); strings escape
//! `"`, `\` and every control character. A CI gate can therefore grep a
//! sweep point's field as `^      "key": `.
//!
//! ## Matching
//!
//! Numeric fields are flattened to dotted paths. Array elements are
//! keyed *by content*, not index: entries of `points` by their
//! `nodes` value — with their `transport` where they carry one (the
//! emulate sweep replays a point over TCP, so `nodes` alone would
//! collide). Re-ordered or partially-overlapping sweeps still line up,
//! and a `--small` smoke document simply has zero comparable points
//! against a full baseline (the gate passes vacuously rather than
//! misfiring).
//!
//! ## Direction
//!
//! Only fields with a known "better" direction gate the exit code:
//! `*_ms` is lower-better, `*rounds_per_sec` / `*speedup` are
//! higher-better. Everything else (counts, seeds, flags) is reported
//! as informational drift but never fails the gate.

use std::fmt::{self, Write as _};

/// A JSON value (numbers as f64 — the documents are machine-written
/// with modest precision).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; a non-finite one prints as `null`
    Num(f64),
    /// A string (escapes decoded)
    Str(String),
    /// An array
    Arr(Vec<Json>),
    /// An object, insertion-ordered
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object with `members` in the order given.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Writes `self` with its nested lines indented past `indent`.
    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return f.write_str("null"),
            Json::Bool(b) => return write!(f, "{b}"),
            Json::Num(n) if n.is_finite() => return write!(f, "{n}"),
            Json::Num(_) => return f.write_str("null"),
            Json::Str(s) => return write_escaped(f, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(members) => (
                '{',
                '}',
                members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        f.write_char(open)?;
        for (i, (key, value)) in items.iter().enumerate() {
            f.write_str(if i == 0 { "\n" } else { ",\n" })?;
            write!(f, "{:1$}", "", indent + 2)?;
            if let Some(key) = key {
                write_escaped(f, key)?;
                f.write_str(": ")?;
            }
            value.write(f, indent + 2)?;
        }
        if !items.is_empty() {
            write!(f, "\n{:1$}", "", indent)?;
        }
        f.write_char(close)
    }
}

/// The document as every `BENCH_*.json` is written (see the module's
/// "Layout"); [`parse_json`] reads it back to an equal value.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

/// `s` as a JSON string literal: `"`, `\` and control characters
/// escaped, everything else (multi-byte UTF-8 included) as is.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            c if c < ' ' => write!(f, "\\u{:04x}", u32::from(c))?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

macro_rules! json_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}

json_from_number!(f64, u64, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.into())
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The harness's
/// documents nest at most 3 deep; the bound keeps a hostile file from
/// recursing the parser off the end of the stack.
const MAX_DEPTH: usize = 64;

/// Parses a JSON document. Errors carry a byte offset.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let b = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(text, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = text.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(text, pos, depth + 1)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                fields.push((key, parse_value(text, pos, depth + 1)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                // Copy the run up to the next quote, escape or control
                // character whole: all are ASCII, so the run ends on a
                // char boundary and multi-byte UTF-8 arrives intact.
                let run = *pos;
                while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\' | 0..=0x1f) {
                    *pos += 1;
                }
                s.push_str(&text[run..*pos]);
                match b.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(&c) if c < 0x20 => {
                        return Err(format!("unescaped control character at byte {pos}"))
                    }
                    _ => {
                        // A backslash.
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'r') => s.push('\r'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'u') => {
                                // Four hex digits naming one char; the
                                // writer never splits a char into a
                                // surrogate pair, so one is refused.
                                let hex = text
                                    .get(*pos + 1..*pos + 5)
                                    .filter(|h| h.bytes().all(|d| d.is_ascii_hexdigit()));
                                let c = hex
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .and_then(char::from_u32)
                                    .ok_or_else(|| format!("invalid \\u escape at byte {pos}"))?;
                                s.push(c);
                                *pos += 4;
                            }
                            other => return Err(format!("unsupported escape {other:?}")),
                        }
                        *pos += 1;
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("invalid number at byte {start}"))
        }
    }
}

/// Flattens every numeric field to `(dotted path, value)`, keying
/// `points` entries by `(nodes, transport)` (see module docs).
/// Bools flatten as 0/1 so flag drift is visible.
pub fn flatten(doc: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    walk(doc, "", &mut out);
    out
}

fn walk(v: &Json, path: &str, out: &mut Vec<(String, f64)>) {
    match v {
        Json::Num(n) => out.push((path.to_string(), *n)),
        Json::Bool(flag) => out.push((path.to_string(), f64::from(*flag))),
        Json::Obj(fields) => {
            for (k, child) in fields {
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                walk(child, &sub, out);
            }
        }
        Json::Arr(items) => {
            // Content keying: sweeps line up across re-orderings and
            // differently-sized runs. A discriminator an entry lacks is
            // left out of its key (the scale sweep has no transport).
            let disc: &[&str] = match path.rsplit('.').next().unwrap_or(path) {
                "points" => &["nodes", "transport"],
                _ => &[],
            };
            for (i, item) in items.iter().enumerate() {
                let parts: Vec<String> = disc
                    .iter()
                    .filter_map(|d| match item.get(d) {
                        Some(Json::Num(n)) => Some(format!("{d}={n}")),
                        Some(Json::Str(s)) => Some(format!("{d}={s}")),
                        _ => None,
                    })
                    .collect();
                let key = if parts.is_empty() {
                    i.to_string()
                } else {
                    parts.join(",")
                };
                walk(item, &format!("{path}.{key}"), out);
            }
        }
        Json::Null | Json::Str(_) => {}
    }
}

/// Which way a field is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    LowerBetter,
    HigherBetter,
    Informational,
}

fn direction(path: &str) -> Direction {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    // `delta_ms` is the configured scheduling interval, not a
    // measurement — drift there is config drift, reported but ungated.
    if leaf == "delta_ms" {
        Direction::Informational
    } else if leaf.ends_with("_ms") {
        Direction::LowerBetter
    } else if leaf.ends_with("rounds_per_sec") || leaf.contains("speedup") {
        Direction::HigherBetter
    } else {
        Direction::Informational
    }
}

/// One field's comparison.
pub struct FieldDiff {
    /// Dotted, content-keyed path.
    pub path: String,
    /// Old and new values.
    pub old: f64,
    /// New value.
    pub new: f64,
    /// Signed percent change, `new` relative to `old`.
    pub delta_pct: f64,
    /// Whether this field fails the gate at the given tolerance.
    pub regressed: bool,
}

/// The outcome of comparing two benchmark documents.
pub struct DiffReport {
    /// Per-field comparisons, gated fields first, worst first.
    pub fields: Vec<FieldDiff>,
    /// Count of gated (direction-known) fields compared.
    pub gated: usize,
    /// Count of fields present in only one document (ignored).
    pub unmatched: usize,
}

impl DiffReport {
    /// Whether any gated field regressed beyond tolerance.
    pub fn regressed(&self) -> bool {
        self.fields.iter().any(|f| f.regressed)
    }

    /// Renders the human-readable comparison.
    pub fn render(&self, tolerance_pct: f64) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== bench-diff — {} comparable fields ({} gated, tolerance {tolerance_pct}%) ==",
            self.fields.len(),
            self.gated
        );
        if self.unmatched > 0 {
            let _ = writeln!(
                s,
                "   ({} fields present in only one document were ignored)",
                self.unmatched
            );
        }
        for f in &self.fields {
            let verdict = if f.regressed {
                "REGRESSED"
            } else {
                match direction(&f.path) {
                    Direction::Informational => "info",
                    _ => "ok",
                }
            };
            let _ = writeln!(
                s,
                "{verdict:>9}  {:<60} {:>12.2} -> {:>12.2}  ({:+.1}%)",
                f.path, f.old, f.new, f.delta_pct
            );
        }
        if self.gated == 0 {
            let _ = writeln!(
                s,
                "no gated fields in common (e.g. smoke vs full baseline) — gate passes vacuously"
            );
        }
        s
    }
}

/// Compares two parsed documents at `tolerance_pct`.
pub fn compare(old: &Json, new: &Json, tolerance_pct: f64) -> DiffReport {
    let old_fields = flatten(old);
    let new_fields = flatten(new);
    let mut fields = Vec::new();
    let mut gated = 0usize;
    let mut matched_new = vec![false; new_fields.len()];
    let mut unmatched = 0usize;
    for (path, old_v) in &old_fields {
        let Some(j) = new_fields.iter().position(|(p, _)| p == path) else {
            unmatched += 1;
            continue;
        };
        matched_new[j] = true;
        let new_v = new_fields[j].1;
        let delta_pct = if *old_v == 0.0 {
            if new_v == 0.0 {
                0.0
            } else {
                100.0 * new_v.signum()
            }
        } else {
            (new_v - old_v) / old_v.abs() * 100.0
        };
        let dir = direction(path);
        if dir != Direction::Informational {
            gated += 1;
        }
        let regressed = match dir {
            Direction::LowerBetter => delta_pct > tolerance_pct,
            Direction::HigherBetter => delta_pct < -tolerance_pct,
            Direction::Informational => false,
        };
        fields.push(FieldDiff {
            path: path.clone(),
            old: *old_v,
            new: new_v,
            delta_pct,
            regressed,
        });
    }
    unmatched += matched_new.iter().filter(|m| !**m).count();
    // Gate failures first, then gated fields by |delta|, then info.
    fields.sort_by(|a, b| {
        let rank = |f: &FieldDiff| (!f.regressed, direction(&f.path) == Direction::Informational);
        rank(a)
            .cmp(&rank(b))
            .then(b.delta_pct.abs().total_cmp(&a.delta_pct.abs()))
            .then(a.path.cmp(&b.path))
    });
    DiffReport {
        fields,
        gated,
        unmatched,
    }
}

/// The `repro bench-diff OLD NEW` entry point: reads, parses, compares.
/// Returns the rendered report and whether the gate failed.
pub fn bench_diff_cmd(
    old_path: &std::path::Path,
    new_path: &std::path::Path,
    tolerance_pct: f64,
) -> Result<(String, bool), String> {
    let read = |p: &std::path::Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let old = parse_json(&read(old_path)?)
        .map_err(|e| format!("{}: invalid JSON: {e}", old_path.display()))?;
    let new = parse_json(&read(new_path)?)
        .map_err(|e| format!("{}: invalid JSON: {e}", new_path.display()))?;
    let report = compare(&old, &new, tolerance_pct);
    Ok((report.render(tolerance_pct), report.regressed()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALE_DOC: &str = r#"{
  "experiment": "scalability_sweep",
  "seed": 1,
  "delta_ms": 8,
  "points": [
    { "nodes": 150, "flows": 10000, "wall_ms": 290.0, "rounds_per_sec": 344.0 },
    { "nodes": 300, "flows": 25000, "wall_ms": 1170.0, "rounds_per_sec": 140.0 }
  ]
}"#;

    #[test]
    fn parser_round_trips_the_harness_shapes() {
        let doc = parse_json(SCALE_DOC).unwrap();
        assert_eq!(
            doc.get("experiment"),
            Some(&Json::Str("scalability_sweep".into()))
        );
        let flat = flatten(&doc);
        let get = |p: &str| flat.iter().find(|(k, _)| k == p).map(|(_, v)| *v);
        // Content-keyed paths, not positional.
        assert_eq!(get("points.nodes=150.wall_ms"), Some(290.0));
        assert_eq!(get("points.nodes=300.wall_ms"), Some(1170.0));
        assert_eq!(get("seed"), Some(1.0));

        // The emulate sweep replays one node count over two transports:
        // the rows must not collide on `nodes`.
        let emu = parse_json(
            r#"{ "points": [
                { "nodes": 4000, "transport": "inproc", "links": 64, "epoch_period_p50_ms": 8.3 },
                { "nodes": 4000, "transport": "tcp", "links": 64, "epoch_period_p50_ms": 8.4 }
            ] }"#,
        )
        .unwrap();
        let flat = flatten(&emu);
        let get = |p: &str| flat.iter().find(|(k, _)| k == p).map(|(_, v)| *v);
        assert_eq!(
            get("points.nodes=4000,transport=inproc.epoch_period_p50_ms"),
            Some(8.3)
        );
        assert_eq!(
            get("points.nodes=4000,transport=tcp.epoch_period_p50_ms"),
            Some(8.4)
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("\"a\u{1}b\"").is_err());
        assert!(parse_json("\"\\ud834\\udd1e\"").is_err());
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("{\"a\": 1} trailing").is_err());
    }

    #[test]
    fn parser_keeps_multibyte_utf8_intact() {
        let doc = parse_json(r#"{"δ_µs": 1, "e\"\\€": "𝄞 x"}"#).unwrap();
        assert_eq!(
            doc,
            Json::Obj(vec![
                ("δ_µs".into(), Json::Num(1.0)),
                ("e\"\\€".into(), Json::Str("𝄞 x".into())),
            ])
        );
    }

    #[test]
    fn parser_bounds_its_nesting_depth() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        let err = parse_json(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
        // Far past any stack: an error, not an overflow.
        assert!(parse_json(&"[".repeat(200_000)).is_err());
        assert!(parse_json(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn identical_documents_pass() {
        let a = parse_json(SCALE_DOC).unwrap();
        let b = parse_json(SCALE_DOC).unwrap();
        let report = compare(&a, &b, 5.0);
        assert!(!report.regressed());
        assert!(report.gated > 0, "sweep docs must have gated fields");
        assert!(report.fields.iter().all(|f| f.delta_pct == 0.0));
    }

    #[test]
    fn doubled_wall_time_is_flagged() {
        let a = parse_json(SCALE_DOC).unwrap();
        let b = parse_json(&SCALE_DOC.replace("\"wall_ms\": 290.0", "\"wall_ms\": 580.0")).unwrap();
        let report = compare(&a, &b, 5.0);
        assert!(report.regressed(), "2x regression must fail the gate");
        let bad = report
            .fields
            .iter()
            .find(|f| f.regressed)
            .expect("a regressed field");
        assert_eq!(bad.path, "points.nodes=150.wall_ms");
        assert!((bad.delta_pct - 100.0).abs() < 1e-9);
        // Failures sort first.
        assert!(report.fields[0].regressed);
    }

    #[test]
    fn slower_rounds_per_sec_is_flagged_and_faster_is_not() {
        let a = parse_json(SCALE_DOC).unwrap();
        // 344 → 170 rounds/sec: a higher-is-better field halving.
        let slower = parse_json(
            &SCALE_DOC.replace("\"rounds_per_sec\": 344.0", "\"rounds_per_sec\": 170.0"),
        )
        .unwrap();
        assert!(compare(&a, &slower, 5.0).regressed());
        // 344 → 700 rounds/sec: an improvement, never a regression.
        let faster = parse_json(
            &SCALE_DOC.replace("\"rounds_per_sec\": 344.0", "\"rounds_per_sec\": 700.0"),
        )
        .unwrap();
        assert!(!compare(&a, &faster, 5.0).regressed());
    }

    #[test]
    fn tolerance_absorbs_noise() {
        let a = parse_json(SCALE_DOC).unwrap();
        // +4% on a lower-better field, under the 5% tolerance.
        let b = parse_json(&SCALE_DOC.replace("\"wall_ms\": 290.0", "\"wall_ms\": 301.6")).unwrap();
        assert!(!compare(&a, &b, 5.0).regressed());
        assert!(compare(&a, &b, 3.0).regressed());
    }

    #[test]
    fn disjoint_sweeps_pass_vacuously() {
        // A --small smoke doc: different nodes values.
        let small = r#"{
  "experiment": "scalability_sweep",
  "seed": 1,
  "delta_ms": 8,
  "points": [
    { "nodes": 40, "wall_ms": 10.0, "rounds_per_sec": 900.0 }
  ]
}"#;
        let a = parse_json(SCALE_DOC).unwrap();
        let b = parse_json(small).unwrap();
        let report = compare(&a, &b, 5.0);
        assert_eq!(report.gated, 0, "no point overlap → nothing gated");
        assert!(!report.regressed());
        assert!(report.render(5.0).contains("vacuously"));
        assert!(report.unmatched > 0);
    }

    #[test]
    fn flat_documents_compare_directly() {
        let old = r#"{ "experiment": "flat", "total_ms": 120.0,
                       "loop_speedup": 4.2, "rounds": 12500 }"#;
        let new = r#"{ "experiment": "flat", "total_ms": 118.0,
                       "loop_speedup": 1.1, "rounds": 12500 }"#;
        let report = compare(&parse_json(old).unwrap(), &parse_json(new).unwrap(), 5.0);
        // wall time fine, but the speedup collapsed — gate fails.
        assert!(report.regressed());
        let bad = report.fields.iter().find(|f| f.regressed).unwrap();
        assert_eq!(bad.path, "loop_speedup");
    }

    /// The layout the CI gates grep: a sweep point's members sit on
    /// lines of their own, six spaces in; integers print bare.
    #[test]
    fn writer_puts_one_member_on_a_line() {
        let doc = Json::obj([
            ("seed", Json::from(1u64)),
            ("empty", Json::Arr(vec![])),
            (
                "points",
                Json::Arr(vec![Json::obj([
                    ("nodes", Json::from(150usize)),
                    ("wall_ms", Json::from(70.7)),
                    ("ok", Json::from(true)),
                    ("period", Json::Num(f64::NAN)),
                ])]),
            ),
            ("tag", Json::from("a\"b\\c\u{1}")),
        ]);
        assert_eq!(
            doc.to_string(),
            "{\n  \"seed\": 1,\n  \"empty\": [],\n  \"points\": [\n    {\n      \
             \"nodes\": 150,\n      \"wall_ms\": 70.7,\n      \"ok\": true,\n      \
             \"period\": null\n    }\n  ],\n  \"tag\": \"a\\\"b\\\\c\\u0001\"\n}"
        );
    }
}

//! `repro bench-diff` reads whatever file it is handed, so its JSON
//! parser is a hostile-input decoder: on any string it must return,
//! never panic. Every `BENCH_*.json` the repository commits must parse
//! and flatten to numbers the gate can compare. And the writer the
//! harness prints those documents with must be read back by the parser
//! to the value it printed.

use proptest::prelude::*;
use saath_bench::diff::{flatten, parse_json, Json};

/// The committed `BENCH_*.json` documents at the workspace root, as
/// `(file name, text)`.
fn committed_bench_docs() -> Vec<(String, String)> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut docs: Vec<(String, String)> = std::fs::read_dir(root)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).unwrap())
        })
        .collect();
    docs.sort();
    docs
}

/// Parses `text` and, if it parsed, flattens it: the two steps
/// `bench-diff` takes on every file. Returning at all is the property.
fn parse_and_flatten(text: &str) {
    if let Ok(doc) = parse_json(text) {
        let _ = flatten(&doc);
    }
}

#[test]
fn every_committed_bench_file_parses_and_flattens() {
    let docs = committed_bench_docs();
    for want in ["BENCH_emulate_scale.json", "BENCH_scalability.json"] {
        assert!(docs.iter().any(|(name, _)| name == want), "no {want}");
    }
    for (name, text) in &docs {
        let doc = parse_json(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!flatten(&doc).is_empty(), "{name} has no numeric field");
        let reprinted = parse_json(&doc.to_string()).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(reprinted, doc, "{name} does not survive a re-print");
    }
}

/// Arbitrary [`Json`] trees at most `depth` arrays/objects deep, with
/// finite numbers of every magnitude and strings full of what a writer
/// must escape.
struct AnyJson {
    depth: u32,
}

impl Strategy for AnyJson {
    type Value = Json;

    fn sample(&self, rng: &mut TestRng) -> Json {
        let child = AnyJson {
            depth: self.depth.saturating_sub(1),
        };
        match rng.below(if self.depth == 0 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(any::<bool>().sample(rng)),
            2 => Json::Num(finite_f64(rng)),
            3 => Json::Str(string(rng)),
            4 => Json::Arr((0..rng.below(5)).map(|_| child.sample(rng)).collect()),
            _ => Json::Obj(
                (0..rng.below(5))
                    .map(|_| (string(rng), child.sample(rng)))
                    .collect(),
            ),
        }
    }
}

/// An integer of any size, a timing rounded to 0.1, or any finite bit
/// pattern (subnormals and ±0 included).
fn finite_f64(rng: &mut TestRng) -> f64 {
    match rng.below(3) {
        0 => (rng.next_u64() as i64 >> rng.below(64)) as f64,
        1 => ((rng.unit_f64() - 0.5) * 2e7).round() / 10.0,
        _ => loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break x;
            }
        },
    }
}

/// Quotes, backslashes, every control character, multi-byte UTF-8
/// and, half the time, any char at all.
fn string(rng: &mut TestRng) -> String {
    const PICKS: &[char] = &['"', '\\', '/', 'u', 'a', ' ', '\u{7f}', 'δ', 'µ', '€', '𝄞'];
    (0..rng.below(12))
        .map(|_| match rng.below(4) {
            0 => char::from_u32(rng.below(0x20) as u32).unwrap(),
            1 => PICKS[rng.below(PICKS.len() as u64) as usize],
            _ => loop {
                if let Some(c) = char::from_u32(rng.below(0x11_0000) as u32) {
                    break c;
                }
            },
        })
        .collect()
}

/// JSON's structural characters, escapes, digits, whitespace and
/// multi-byte UTF-8, so random strings get deep into the parser.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', ':', ',', '"', '\\', '/', 'n', 't', 'r', 'u', 'e', 'f', 'a', 'l', 's', '0',
    '1', '9', '-', '+', '.', 'E', ' ', '\n', 'δ', 'µ', '€', '𝄞',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn printed_documents_parse_back_to_themselves(doc in AnyJson { depth: 4 }) {
        let text = doc.to_string();
        prop_assert_eq!(parse_json(&text), Ok(doc), "{}", text);
    }

    #[test]
    fn parser_returns_on_arbitrary_strings(
        picks in proptest::collection::vec(any::<u8>(), 0..256),
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let text: String = picks.iter().map(|&i| ALPHABET[i as usize % ALPHABET.len()]).collect();
        parse_and_flatten(&text);
        parse_and_flatten(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parser_returns_on_damaged_bench_files(
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 1..4),
        cut in any::<usize>(),
    ) {
        for (_, text) in committed_bench_docs() {
            let mut bytes = text.clone().into_bytes();
            for &(at, mask) in &flips {
                let at = at % bytes.len();
                bytes[at] ^= mask;
            }
            parse_and_flatten(&String::from_utf8_lossy(&bytes));
            let cut = cut % (text.len() + 1);
            parse_and_flatten(&String::from_utf8_lossy(&text.as_bytes()[..cut]));
        }
    }
}

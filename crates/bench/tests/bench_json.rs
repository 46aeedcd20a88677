//! `repro bench-diff` reads whatever file it is handed, so its JSON
//! parser is a hostile-input decoder: on any string it must return,
//! never panic. And every `BENCH_*.json` the repository commits must
//! parse and flatten to numbers the gate can compare.

use proptest::prelude::*;
use saath_bench::diff::{flatten, parse_json};

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
    for want in [
        "BENCH_emulate_scale.json",
        "BENCH_epoch_loop.json",
        "BENCH_scalability.json",
    ] {
        assert!(docs.iter().any(|(name, _)| name == want), "no {want}");
    }
    for (name, text) in &docs {
        let doc = parse_json(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!flatten(&doc).is_empty(), "{name} has no numeric field");
    }
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

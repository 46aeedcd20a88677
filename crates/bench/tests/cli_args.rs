//! `repro` refuses a numeric option it cannot parse: `--seed 1O` used
//! to run seed 1 and exit 0, so `repro scale --seed 1O` would have
//! overwritten a committed baseline under the wrong label. It refuses a
//! flag it does not know, and an option given no value, for the same
//! reason. A `bench-diff` document it cannot parse, or a
//! `--resume-from` file it cannot resume from, ends the run with a
//! message, never a signal, and a closed stdout ends only the output.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("repro did not start")
}

#[test]
fn an_unparseable_number_is_refused_by_name() {
    let out = repro(&["fig17", "--seed", "1O"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--seed takes a number, got `1O`"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "the experiment ran anyway");

    let out = repro(&["fig17", "--seed", "10"]);
    assert!(out.status.success(), "{out:?}");
    assert!(!out.stdout.is_empty());
}

/// A removed flag on a stale command line is refused, not ignored: the
/// run it names is not the run it would have been.
#[test]
fn an_unknown_flag_is_refused_by_name() {
    let out = repro(&["scale", "--shards", "2", "--small"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--shards`"), "{stderr}");
    assert!(out.stdout.is_empty(), "the experiment ran anyway");
}

/// An option with no value is refused, not dropped: `fig17 --seed` ran
/// seed 1, and `--log --json` wrote the event log to a file named
/// `--json`.
#[test]
fn an_option_without_its_value_is_refused_by_name() {
    for (args, flag) in [
        (&["fig17", "--seed"][..], "--seed"),
        (&["scale", "--small", "--log", "--json"][..], "--log"),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} takes a value")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "the experiment ran anyway");
    }
}

/// `--nodes 0` and `--scale 0` are refused with a message: the
/// emulations fold the cluster onto `--nodes` agents, and a fold onto
/// none divided by zero; an emulation clock at scale 0 never moves.
#[test]
fn zero_nodes_is_refused_by_name() {
    for (args, flag) in [
        (&["emulate", "--small", "--nodes", "0"][..], "--nodes"),
        (&["emulate", "--small", "--scale", "0"][..], "--scale"),
        (&["fig15", "--scale", "0"][..], "--scale"),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} takes a positive number, got `0`")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "the experiment ran anyway");
    }
}

/// A `--resume-from` file that is not an event log, or a log with no
/// snapshot in it, is refused up front with exit 2 and its name, not
/// by a panic after the timed replays.
#[test]
fn an_unusable_resume_log_is_refused_by_name() {
    use saath_eventlog::{ChainDigest, EventLogWriter, LogHeader};

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let text = dir.join("not_a_log.txt");
    std::fs::write(&text, "1 2\n").unwrap();
    // A log as `--log` writes it without `--snapshot-every`: a header
    // and rounds, no snapshot (here no rounds either).
    let header = LogHeader {
        num_nodes: 40,
        port_rate: 125_000_000,
        delta_ns: 8_000_000,
        scheduler: "saath".into(),
        trace_digest: ChainDigest::ZERO,
        start_round: 0,
        start_digest: ChainDigest::ZERO,
    };
    let bytes = EventLogWriter::new(Vec::new(), &header)
        .unwrap()
        .into_inner()
        .unwrap();
    let no_snapshot = dir.join("no_snapshot.saev");
    std::fs::write(&no_snapshot, bytes).unwrap();

    for (path, why) in [
        (&text, "is not an event log"),
        (&no_snapshot, "holds no snapshot"),
    ] {
        let path = path.to_str().unwrap();
        let out = repro(&["scale", "--small", "--resume-from", path]);
        assert_eq!(out.status.code(), Some(2), "{path}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("--resume-from: {path} {why}")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "the experiment ran anyway");
    }
}

/// A hostile document is refused with exit 2 and a message, not a
/// signal: 200 000 nested `[` must not recurse the parser off the stack.
#[test]
fn bench_diff_refuses_a_too_deep_document() {
    let deep = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("deep.json");
    std::fs::write(&deep, "[".repeat(200_000)).unwrap();
    let deep = deep.to_str().unwrap();
    let out = repro(&["bench-diff", deep, deep]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nesting deeper than 64"), "{stderr}");
}

/// A reader that has gone away (`repro bench-diff A B | true`) ends the
/// output, not the run: no "failed printing to stdout" panic (exit
/// 101), and the exit status is the run's own. The child's stdout is a
/// pipe whose read end is closed before it starts, so its first write
/// fails whatever the timing.
#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    let bench = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scalability.json");
    for args in [&["bench-diff", bench, bench][..], &["fig17"][..]] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .stdout(writer)
            .output()
            .expect("repro did not start");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

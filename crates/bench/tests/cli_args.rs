//! `repro` refuses a numeric option it cannot parse: `--seed 1O` used
//! to run seed 1 and exit 0, so `repro epoch --seed 1O` would have
//! overwritten a committed baseline under the wrong label. It refuses a
//! flag it does not know for the same reason.

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

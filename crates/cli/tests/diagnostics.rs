//! Black-box diagnostics tests for `fifoms-repro`: `analyze` and
//! `check-bench` must exit non-zero with a one-line `error:` message on
//! truncated, corrupted or missing inputs — never a panic/backtrace —
//! `check-bench` must refuse the removed `--baseline` comparison the
//! same way, and a sweep resume's cut-back warning must say what the
//! cut bytes were and which cells run again.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fifoms-repro"))
        .args(args)
        .output()
        .expect("spawn fifoms-repro")
}

fn tmp_file(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("fifoms-diag-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp fixture");
    path
}

/// Assert a failed invocation carried exactly one diagnostic line on
/// stderr, starting with `error:`, and no panic machinery.
fn assert_clean_failure(out: &Output, context: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{context}: expected failure");
    assert!(
        !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
        "{context}: panicked instead of erroring:\n{stderr}"
    );
    let lines: Vec<&str> = stderr.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(lines.len(), 1, "{context}: expected one diagnostic:\n{stderr}");
    assert!(
        lines[0].starts_with("error: "),
        "{context}: diagnostic not prefixed: {}",
        lines[0]
    );
}

#[test]
fn analyze_rejects_missing_and_corrupt_traces() {
    let missing = repro(&["analyze", "/nonexistent/trace.jsonl"]);
    assert_clean_failure(&missing, "missing trace");

    // A trace truncated mid-record, as a killed sweep would leave it.
    let corrupt = tmp_file(
        "truncated.jsonl",
        "{\"event\":\"run_meta\",\"scope\":\"S\",\"switch\":\"FIFOMS\",\"traffic\":\"b\",\"ports\":8,\"params\":{}}\n{\"event\":\"slot_sch",
    );
    let out = repro(&["analyze", corrupt.to_str().unwrap()]);
    std::fs::remove_file(&corrupt).ok();
    assert_clean_failure(&out, "corrupt trace");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 2"),
        "diagnostic names the bad line: {stderr}"
    );

    // Valid JSONL that is not a trace at all.
    let alien = tmp_file("alien.jsonl", "{\"foo\": 1}\n");
    let out = repro(&["analyze", alien.to_str().unwrap()]);
    std::fs::remove_file(&alien).ok();
    assert_clean_failure(&out, "non-trace JSONL");
}

#[test]
fn check_bench_rejects_corrupt_artifacts() {
    // Run from the workspace root, where the schemas live: one artifact
    // that parses but breaks the core-bench schema, one cut off mid-array.
    let corrupt = tmp_file("gate-corrupt.json", "{\"rows\": [{\"switch\": 3}]}");
    let truncated = tmp_file("gate-truncated.json", "{\"rows\": [");
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

    for (bad, names) in [
        (&corrupt, "violates schemas/bench_core.schema.json"),
        (&truncated, "gate-truncated.json"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fifoms-repro"))
            .current_dir(root)
            .args(["check-bench", "--current", bad.to_str().unwrap()])
            .output()
            .expect("spawn fifoms-repro");
        assert_clean_failure(&out, "corrupt bench artifact");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(names), "diagnostic names {names}: {stderr}");
    }

    for p in [corrupt, truncated] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn usage_errors_are_one_liners() {
    for argv in [
        &["analyze"][..],
        &["check-bench", "--tolerance", "0"][..],
        &["check-bench", "--baseline", "BENCH_core.json"][..],
        &["sweep", "--packet-trace", "bogus"][..],
    ] {
        let out = repro(argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{argv:?} succeeded");
        assert!(
            !stderr.contains("panicked"),
            "{argv:?} panicked:\n{stderr}"
        );
        assert!(
            stderr.lines().next().unwrap_or("").starts_with("error: "),
            "{argv:?}: {stderr}"
        );
    }
}

#[test]
fn resume_warns_that_a_zero_filled_tail_reruns_no_cell() {
    let dir = std::env::temp_dir().join(format!("fifoms-diag-{}-journal", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let journal = dir.join("s.journal");
    let journal = journal.to_str().expect("temp path is UTF-8");
    let sweep = |flag: &str| {
        let mut args = vec!["sweep", "--quick", "--n", "8", "--points", "3"];
        args.extend(["--seed", "9", "--threads", "1", flag, journal]);
        let out = repro(&args);
        assert!(out.status.success(), "sweep {flag} failed: {out:?}");
        out
    };
    let full = sweep("--journal");
    // A filesystem that zero-fills an unwritten tail leaves whole zero
    // "records" behind the last real one.
    let mut bytes = std::fs::read(journal).expect("read journal");
    bytes.extend([0u8; 8]);
    std::fs::write(journal, bytes).expect("extend journal");
    let resumed = sweep("--resume");
    let _ = std::fs::remove_dir_all(&dir);

    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("cutting 8 zero byte(s)") && !stderr.contains("torn"),
        "the warning names zero bytes: {stderr}"
    );
    assert!(
        stderr.contains("all 12 cells are in the journal and none will re-run"),
        "the warning announces no re-run: {stderr}"
    );
    let from_line_2 = |out: &Output| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .skip(1)
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(from_line_2(&resumed), from_line_2(&full));
}

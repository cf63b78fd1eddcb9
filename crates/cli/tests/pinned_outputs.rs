//! Pinned stdout: runs that go through the engine's hooked slot loop —
//! the chaos campaign, the fairness table and trace replay — and the
//! throughput table, the only command that runs PIM, must print exactly
//! the text under `tests/pinned/`. The only part that may vary is the
//! trace directory `record` and `replay` print, rendered as `<DIR>` in
//! the pinned text.

use std::path::Path;
use std::process::Command;

fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_fifoms-repro"))
        .args(args)
        .output()
        .expect("spawn fifoms-repro");
    assert!(
        out.status.success(),
        "fifoms-repro {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn assert_pinned(actual: &str, pinned: &str, what: &str) {
    if actual != pinned {
        let line = actual
            .lines()
            .zip(pinned.lines())
            .position(|(a, p)| a != p)
            .map_or_else(
                || "a missing or extra line".to_string(),
                |i| format!("line {}", i + 1),
            );
        panic!("{what}: stdout differs from the pinned text at {line}:\n{actual}");
    }
}

#[test]
fn chaos_smoke_campaign_is_pinned() {
    assert_pinned(
        &stdout_of(&["chaos", "--smoke", "--seed", "2026"]),
        include_str!("pinned/chaos_smoke_seed2026.txt"),
        "chaos --smoke --seed 2026",
    );
}

#[test]
fn fairness_table_is_pinned() {
    assert_pinned(
        &stdout_of(&["fairness", "--quick", "--seed", "9"]),
        include_str!("pinned/fairness_quick_seed9.txt"),
        "fairness --quick --seed 9",
    );
}

#[test]
fn throughput_table_is_pinned() {
    assert_pinned(
        &stdout_of(&["throughput", "--quick", "--seed", "9"]),
        include_str!("pinned/throughput_quick_seed9.txt"),
        "throughput --quick --seed 9",
    );
}

#[test]
fn record_then_replay_is_pinned() {
    let dir = std::env::temp_dir().join(format!("fifoms-pinned-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_text = dir.to_str().expect("temp path is UTF-8");
    let run = |command: &str| {
        stdout_of(&[command, "--quick", "--seed", "9", "--csv-dir", dir_text])
            .replace(dir_text, "<DIR>")
    };
    assert_pinned(
        &run("record"),
        include_str!("pinned/record_quick_seed9.txt"),
        "record --quick --seed 9",
    );
    assert!(Path::new(&dir).join("trace.txt").is_file());
    assert_pinned(
        &run("replay"),
        include_str!("pinned/replay_quick_seed9.txt"),
        "replay --quick --seed 9",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

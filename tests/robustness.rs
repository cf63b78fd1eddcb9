//! Fault-isolated sweep runner: checkpoint/resume equivalence, panic and
//! hang containment, and the re-run of failed cells on resume.

use std::time::Duration;

use fifoms::prelude::*;

fn temp_path(name: &str) -> String {
    let dir = std::env::temp_dir().join("fifoms-robustness");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name).to_str().expect("utf-8 path").to_string()
}

fn small_sweep(seed: u64) -> Sweep {
    Sweep {
        n: 8,
        switches: vec![SwitchKind::Fifoms, SwitchKind::Tatra, SwitchKind::OqFifo],
        points: (1..=3)
            .map(|i| {
                let load = 0.2 * i as f64;
                (load, TrafficKind::bernoulli_at_load(load, 0.25, 8))
            })
            .collect(),
        run: RunConfig::quick(2_000),
        seed,
    }
}

/// Kill/resume equivalence: cut the journal at byte offsets (a killed
/// process tears its last record anywhere) and verify the resumed sweep
/// reproduces the uninterrupted result set bit-for-bit. A second resume
/// must then find every cell completed in the journal the first resume
/// left behind, and reproduce the same set again.
#[test]
fn killed_sweep_resumes_to_identical_results() {
    let sweep = small_sweep(11);
    let policy = CellPolicy::default();
    let full_path = temp_path("full.journal");
    let full = sweep
        .run_checkpointed(4, &policy, &full_path, false)
        .expect("uninterrupted run");
    let reference = format!("{full:?}");
    let bytes = std::fs::read(&full_path).expect("journal exists");
    let header_path = temp_path("header.journal");
    CheckpointJournal::create(&header_path, &sweep, &policy).expect("header only");
    let header = std::fs::metadata(&header_path).expect("header").len() as usize;
    let body = bytes.len() - header;

    for cut in [
        header,
        header + 1,
        header + body / 3,
        header + body / 2,
        bytes.len() - 1,
        bytes.len(),
    ] {
        let path = temp_path(&format!("resume-{cut}.journal"));
        std::fs::write(&path, &bytes[..cut]).expect("write cut journal");
        let resumed = sweep
            .run_checkpointed(4, &policy, &path, true)
            .expect("resumed run");
        assert_eq!(reference, format!("{resumed:?}"), "cut at byte {cut}");
        let (_journal, loaded) =
            CheckpointJournal::resume(&path, &sweep, &policy).expect("second resume");
        assert!(
            loaded.iter().all(Option::is_some),
            "cut at byte {cut}: the second resume must reuse every cell"
        );
        let again = sweep
            .run_checkpointed(4, &policy, &path, true)
            .expect("second resumed run");
        assert_eq!(
            reference,
            format!("{again:?}"),
            "second resume, cut at byte {cut}"
        );
    }
}

/// A panicking scheduler configuration produces structured `Failed` rows
/// while every other cell of the grid still completes.
#[test]
fn panicking_scheduler_is_contained_as_failed_rows() {
    let mut sweep = small_sweep(5);
    sweep.switches.push(SwitchKind::ChaosPanic { at: 50 });
    let outcomes = sweep.run_robust(4, &CellPolicy::default());
    assert_eq!(outcomes.len(), 12);
    let failed: Vec<&FailedCell> = outcomes.iter().filter_map(|o| o.failure()).collect();
    assert_eq!(failed.len(), 3, "one failure per chaos load point");
    assert_eq!(outcomes.iter().filter(|o| o.row().is_some()).count(), 9);
    for f in failed {
        assert!(
            matches!(&f.reason, CellFailureReason::Panic(msg) if msg.contains("chaos")),
            "{:?}",
            f.reason
        );
    }
}

/// A hung scheduler trips the per-cell watchdog instead of wedging the
/// sweep.
#[test]
fn hung_scheduler_trips_the_watchdog() {
    let mut sweep = small_sweep(5);
    sweep.switches = vec![SwitchKind::Fifoms, SwitchKind::ChaosStall { at: 10 }];
    sweep.points.truncate(1);
    let policy = CellPolicy {
        timeout: Some(Duration::from_millis(250)),
        ..CellPolicy::default()
    };
    let outcomes = sweep.run_robust(2, &policy);
    assert!(outcomes[0].row().is_some(), "healthy cell completes");
    let failure = outcomes[1].failure().expect("stalled cell fails");
    assert!(
        matches!(failure.reason, CellFailureReason::Timeout { millis: 250 }),
        "{:?}",
        failure.reason
    );
}

/// Failed cells are not journaled, so a resume runs them again; with a
/// deterministic failure the resumed grid matches the original.
#[test]
fn failed_cells_are_rerun_on_resume() {
    let mut sweep = small_sweep(13);
    sweep.switches = vec![SwitchKind::Fifoms, SwitchKind::ChaosPanic { at: 50 }];
    sweep.points.truncate(2);
    let policy = CellPolicy::default();
    let path = temp_path("failures.journal");
    let first = sweep
        .run_checkpointed(2, &policy, &path, false)
        .expect("first run");
    assert_eq!(first.iter().filter(|o| o.failure().is_some()).count(), 2);
    let (_journal, loaded) = CheckpointJournal::resume(&path, &sweep, &policy).expect("reload");
    let journaled: Vec<bool> = loaded.iter().map(Option::is_some).collect();
    let completed: Vec<bool> = first.iter().map(|o| o.row().is_some()).collect();
    assert_eq!(
        journaled, completed,
        "exactly the completed cells are journaled"
    );
    let resumed = sweep
        .run_checkpointed(2, &policy, &path, true)
        .expect("resume");
    assert_eq!(format!("{first:?}"), format!("{resumed:?}"));
}

/// Invariant checking and fault injection compose with the checkpointed
/// runner, and a fault-injected grid still completes every cell.
#[test]
fn checked_and_faulty_sweep_completes_under_checkpointing() {
    let sweep = small_sweep(17);
    let policy = CellPolicy {
        check_every: Some(100),
        faults: Some(FaultConfig::moderate(3)),
        ..CellPolicy::default()
    };
    let path = temp_path("faulty.journal");
    let outcomes = sweep
        .run_checkpointed(2, &policy, &path, false)
        .expect("run");
    for o in &outcomes {
        assert!(o.row().is_some(), "{:?}", o.failure());
    }
    // A journal written under one fault schedule must not satisfy a
    // resume under a different one — faults change results.
    let other = CellPolicy {
        faults: Some(FaultConfig::moderate(4)),
        ..policy.clone()
    };
    let err = sweep
        .run_checkpointed(2, &other, &path, true)
        .expect_err("different fault schedule must be rejected");
    assert!(matches!(err, SimError::JournalMismatch { .. }), "{err}");
}

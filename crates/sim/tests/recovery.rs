//! Kill-and-recover property tests (DESIGN.md §15).
//!
//! The recovery invariant under test: a checkpointed run killed at ANY
//! slot and resumed from its state directory produces a byte-for-byte
//! identical event trace, an identical write-ahead arrival log, and a
//! bit-identical [`RunResult`] compared to the same run left
//! uninterrupted. The first test drives that invariant over 100 random
//! `(seed, kill-slot, checkpoint-interval)` triples, including the edge
//! geometries (kill before the first checkpoint, kill exactly on a
//! checkpoint slot, kill during warmup, kill on the last slot).
//!
//! The second half is the corruption corpus: random mutations of valid
//! checkpoint envelopes and whole checkpoint files must be rejected
//! *structurally* — a typed error from the codec, a silent fallback to
//! the previous valid checkpoint from the store — and must never panic.

use std::fs;
use std::path::{Path, PathBuf};

use fifoms_core::MulticastVoqSwitch;
use fifoms_fabric::Switch;
use fifoms_obs::{CountingWriter, JsonlSink, PhaseProfiler, RecordingSink, Telemetry, WindowStats};
use fifoms_sim::{
    run, truncate_file, try_simulate_recoverable, CheckedSwitch, CheckpointConfig, CheckpointStore,
    FaultConfig, FaultyFabric, InstrumentedSwitch, Observer, RecoveryRuntime, RunConfig, RunResult,
    SlotHook, SwitchKind, TelemetryChannel, TrafficKind,
};
use fifoms_types::{frame_state, unframe_state, InvariantViolation, SimError, StateReader};

/// xorshift64* — deterministic, dependency-free pseudo-randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

fn test_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fifoms-recovery-prop-{tag}-{}", std::process::id()))
}

/// One recoverable run against the public API: FIFOMS at n=8 under
/// Bernoulli multicast, trace streamed through a byte-counting JSONL
/// sink so checkpoints can record (and recovery can restore) the exact
/// trace offset.
fn recoverable_run(
    dir: &Path,
    trace: &Path,
    cfg: &RunConfig,
    every: u64,
    seed: u64,
    kill: Option<u64>,
    resume: bool,
) -> Result<RunResult, SimError> {
    let mut switch = SwitchKind::Fifoms.build(8, seed);
    let mut traffic = TrafficKind::Bernoulli { p: 0.35, b: 0.25 }.try_build(8, seed ^ 0x5a5a)?;
    let (mut rec, sink) = open_recovery(dir, trace, every, kill, resume)?;
    let mut obs = Observer {
        sink: Some((&sink, "recovery-prop")),
        profiler: None,
        telemetry: None,
    };
    try_simulate_recoverable(switch.as_mut(), traffic.as_mut(), cfg, &mut obs, &mut rec)
}

/// Open (or resume) `dir` and the trace file behind a byte-counting JSONL
/// sink whose offset the checkpoints record.
fn open_recovery(
    dir: &Path,
    trace: &Path,
    every: u64,
    kill: Option<u64>,
    resume: bool,
) -> Result<(RecoveryRuntime, JsonlSink<CountingWriter<fs::File>>), SimError> {
    let ck = CheckpointConfig {
        dir: dir.to_path_buf(),
        every,
    };
    let mut rec = if resume {
        RecoveryRuntime::open(&ck)?
    } else {
        RecoveryRuntime::fresh(&ck)?
    };
    if let Some(slot) = kill {
        rec.kill_at(slot);
    }
    let file = if resume {
        // A resume that found no checkpoint restarts at slot 0: the
        // trace truncates to offset 0 and is rewritten from scratch.
        truncate_file(trace, rec.trace_resume_offset().unwrap_or(0))?;
        fs::OpenOptions::new()
            .append(true)
            .open(trace)
            .expect("reopen trace")
    } else {
        fs::File::create(trace).expect("create trace")
    };
    let (writer, offset) = CountingWriter::new(file);
    rec.attach_trace(offset);
    Ok((rec, JsonlSink::new(writer)))
}

/// Kill-and-recover one random geometry; panics with the triple in the
/// message on any divergence so a failure pinpoints its inputs.
fn check_triple(base: &Path, case: usize, seed: u64, slots: u64, every: u64, kill: u64) {
    let label = format!("case {case}: seed={seed} slots={slots} every={every} kill={kill}");
    let cfg = RunConfig {
        slots,
        warmup: slots / 4,
        backlog_cap: 100_000,
        sample_every: 25,
    };

    let ref_dir = base.join(format!("ref-{case}"));
    let ref_trace = ref_dir.join("trace.jsonl");
    let reference = recoverable_run(&ref_dir, &ref_trace, &cfg, every, seed, None, false)
        .unwrap_or_else(|e| panic!("{label}: reference run failed: {e}"));

    let dir = base.join(format!("kill-{case}"));
    let trace = dir.join("trace.jsonl");
    match recoverable_run(&dir, &trace, &cfg, every, seed, Some(kill), false) {
        Err(SimError::Killed { slot }) => assert_eq!(slot, kill, "{label}"),
        other => panic!("{label}: expected Killed, got {other:?}"),
    }
    let recovered = recoverable_run(&dir, &trace, &cfg, every, seed, None, true)
        .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));

    // Debug formatting of f64 is shortest-roundtrip, so string equality
    // here is bit equality over every field of the result.
    assert_eq!(
        format!("{reference:?}"),
        format!("{recovered:?}"),
        "{label}: RunResult diverged"
    );
    let ref_bytes = fs::read(&ref_trace).expect("read reference trace");
    let got_bytes = fs::read(&trace).expect("read recovered trace");
    assert_eq!(ref_bytes, got_bytes, "{label}: trace bytes diverged");
    let ref_wal = fs::read(ref_dir.join("arrivals.wal")).expect("read reference wal");
    let got_wal = fs::read(dir.join("arrivals.wal")).expect("read recovered wal");
    assert_eq!(ref_wal, got_wal, "{label}: WAL bytes diverged");

    let _ = fs::remove_dir_all(&ref_dir);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn killed_runs_recover_bit_identically_across_100_random_geometries() {
    let base = test_dir("triples");
    let _ = fs::remove_dir_all(&base);
    let mut rng = Rng(0x5eed_f1f0_u64);
    // Four pinned edge geometries, then random triples up to 100.
    // slots=600: kill before the first checkpoint (fresh restart), kill
    // exactly on a checkpoint slot, kill during warmup, kill on the
    // last slot.
    let pinned: [(u64, u64, u64, u64); 4] = [
        (11, 600, 200, 150),
        (12, 600, 200, 400),
        (13, 600, 200, 100),
        (14, 600, 200, 599),
    ];
    for (case, &(seed, slots, every, kill)) in pinned.iter().enumerate() {
        check_triple(&base, case, seed, slots, every, kill);
    }
    for case in pinned.len()..100 {
        let seed = rng.next();
        let slots = rng.range(300, 900);
        let every = rng.range(40, slots / 2);
        let kill = rng.range(1, slots - 1);
        check_triple(&base, case, seed, slots, every, kill);
    }
    let _ = fs::remove_dir_all(&base);
}

/// Random mutations of a valid framed state envelope must come back as
/// typed codec errors — never a panic, and never a bogus `Ok`.
#[test]
fn mutated_state_envelopes_are_rejected_structurally() {
    let payload: Vec<u8> = (0..257u32).map(|i| (i % 251) as u8).collect();
    let blob = frame_state("corpus-kind", 1, &payload);
    assert!(unframe_state(&blob, "corpus-kind").is_ok());

    // Every truncation length.
    for len in 0..blob.len() {
        assert!(
            unframe_state(&blob[..len], "corpus-kind").is_err(),
            "truncation to {len} bytes accepted"
        );
    }
    // Single-byte flips at every offset: CRC (or magic/kind parsing)
    // must catch all of them.
    for at in 0..blob.len() {
        let mut bad = blob.clone();
        bad[at] ^= 0x41;
        assert!(
            unframe_state(&bad, "corpus-kind").is_err(),
            "bit flip at {at} accepted"
        );
    }
    // Random garbage of random lengths.
    let mut rng = Rng(0xdead_c0de);
    for _ in 0..200 {
        let len = (rng.next() % 512) as usize;
        let junk: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        // Must not panic, and a random blob cannot carry a valid
        // CRC-guarded frame with this kind string:
        if let Ok((version, body)) = unframe_state(&junk, "corpus-kind") {
            panic!("random junk accepted as version {version} with {} bytes", body.len());
        }
    }
    // Wrong kind on an otherwise valid frame.
    assert!(unframe_state(&blob, "other-kind").is_err());
}

/// Whole-file corruption: damage the newest checkpoint file in a real
/// state directory in random ways; opening the directory must fall back
/// to the previous valid checkpoint (or start fresh when both rotation
/// files are destroyed) and never panic or fail.
#[test]
fn corrupt_checkpoint_files_fall_back_never_panic() {
    let base = test_dir("files");
    let _ = fs::remove_dir_all(&base);
    let pristine = base.join("pristine");
    let trace = pristine.join("trace.jsonl");
    let cfg = RunConfig {
        slots: 400,
        warmup: 100,
        backlog_cap: 100_000,
        sample_every: 25,
    };
    // Kill at 250 with checkpoints every 100: seq 1 (odd -> b) and
    // seq 2 (even -> a) are on disk at the crash.
    match recoverable_run(&pristine, &trace, &cfg, 100, 21, Some(250), false) {
        Err(SimError::Killed { slot }) => assert_eq!(slot, 250),
        other => panic!("expected Killed, got {other:?}"),
    }

    let mut rng = Rng(0xfa11_bacc);
    for round in 0..30 {
        let dir = base.join(format!("round-{round}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("round dir");
        for name in ["checkpoint-a.bin", "checkpoint-b.bin", "arrivals.wal"] {
            fs::copy(pristine.join(name), dir.join(name)).expect("copy state");
        }
        // Corrupt the newest checkpoint (seq 2 in checkpoint-a.bin); on
        // some rounds destroy the fallback too.
        let newest = dir.join("checkpoint-a.bin");
        let bytes = fs::read(&newest).expect("read newest");
        let mutated = match rng.next() % 4 {
            0 => bytes[..(rng.next() as usize) % bytes.len()].to_vec(),
            1 => {
                let mut b = bytes.clone();
                let at = (rng.next() as usize) % b.len();
                b[at] ^= 1 << (rng.next() % 8);
                b
            }
            2 => Vec::new(),
            _ => (0..bytes.len()).map(|_| rng.next() as u8).collect(),
        };
        fs::write(&newest, &mutated).expect("write corrupted");
        let both_destroyed = round % 5 == 4;
        if both_destroyed {
            fs::write(dir.join("checkpoint-b.bin"), b"also gone").expect("destroy fallback");
        }

        let ck = CheckpointConfig { dir: dir.clone(), every: 100 };
        let rec = RecoveryRuntime::open(&ck)
            .unwrap_or_else(|e| panic!("round {round}: open failed structurally: {e}"));
        match rec.resume_info() {
            Some(info) => {
                assert!(!both_destroyed, "round {round}: resumed from destroyed state");
                // The corrupted seq-2 file must have been skipped; only
                // the intact seq-1 fallback is acceptable (a mutation
                // cannot produce a valid frame, CRC-guarded).
                assert_eq!(info.seq, 1, "round {round}: resumed from corrupted checkpoint");
                assert_eq!(info.slot, 100, "round {round}");
                assert_eq!(info.rejected, 1, "round {round}: rejected count");
            }
            None => assert!(
                both_destroyed,
                "round {round}: fallback checkpoint not used"
            ),
        }
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&base);
}

/// What one campaign-stack run leaves behind for comparison.
struct CampaignRun {
    result: Result<RunResult, SimError>,
    violation: Option<InvariantViolation>,
    /// Every closed telemetry window, then the run totals, with the
    /// wall-clock fields zeroed.
    windows: Vec<WindowStats>,
}

/// The stack campaigns run, fully observed: `CheckedSwitch` outside an
/// egress `FaultyFabric` (event recording on) outside
/// `InstrumentedSwitch` outside FIFOMS at N=8, Bernoulli load 0.6 with
/// b=0.25, a trace sink and a telemetry window of 500 slots, a
/// checkpoint every 1000 slots.
fn campaign_run(dir: &Path, trace: &Path, kill: Option<u64>, resume: bool) -> CampaignRun {
    const N: usize = 8;
    const SEED: u64 = 2026;
    let cfg = RunConfig::quick(6_000);
    let core = MulticastVoqSwitch::new(N, SEED).with_quarantine_slots(200);
    let mut switch = CheckedSwitch::new(
        FaultyFabric::new(InstrumentedSwitch::new(core), FaultConfig::egress(SEED))
            .with_event_recording(),
    );
    let mut traffic = TrafficKind::bernoulli_at_load(0.6, 0.25, N).build(N, SEED ^ 0x5a5a);
    let mut telemetry = Telemetry::new(N, 500);
    let result = open_recovery(dir, trace, 1_000, kill, resume).and_then(|(mut rec, sink)| {
        let mut obs = Observer {
            sink: Some((&sink, "campaign")),
            profiler: None,
            telemetry: Some(TelemetryChannel {
                telemetry: &mut telemetry,
                series: None,
                bus: None,
            }),
        };
        try_simulate_recoverable(&mut switch, traffic.as_mut(), &cfg, &mut obs, &mut rec)
    });
    let masked = |w: &WindowStats| WindowStats {
        sched_ns: 0,
        wall_ns: 0,
        ..*w
    };
    CampaignRun {
        result,
        violation: switch.violation().cloned(),
        windows: telemetry
            .windows()
            .chain(std::iter::once(telemetry.totals()))
            .map(masked)
            .collect(),
    }
}

#[test]
fn killed_campaign_stack_with_observer_recovers_bit_identically() {
    let base = test_dir("campaign");
    let _ = fs::remove_dir_all(&base);
    let ref_dir = base.join("ref");
    let ref_trace = ref_dir.join("trace.jsonl");
    let reference = campaign_run(&ref_dir, &ref_trace, None, false);
    let reference_result = reference.result.expect("reference run");

    let dir = base.join("kill");
    let trace = dir.join("trace.jsonl");
    match campaign_run(&dir, &trace, Some(4_321), false).result {
        Err(SimError::Killed { slot }) => assert_eq!(slot, 4_321),
        other => panic!("expected Killed, got {other:?}"),
    }
    let recovered = campaign_run(&dir, &trace, None, true);
    let recovered_result = recovered.result.expect("recovered run");

    assert_eq!(
        format!("{reference_result:?}"),
        format!("{recovered_result:?}"),
        "RunResult diverged"
    );
    let ref_bytes = fs::read(&ref_trace).expect("read reference trace");
    let got_bytes = fs::read(&trace).expect("read recovered trace");
    assert!(ref_bytes == got_bytes, "trace bytes diverged");
    assert_eq!(
        reference.violation, recovered.violation,
        "violation diverged"
    );
    assert!(
        reference.windows.len() > 6_000 / 500,
        "every window retained"
    );
    assert_eq!(
        reference.windows, recovered.windows,
        "telemetry windows diverged"
    );
    let _ = fs::remove_dir_all(&base);
}

/// A drain window and nothing else: a checkpoint holds no hook fields,
/// so a resumed run takes a fresh one.
struct Drain(u64);

impl<S: Switch + ?Sized> SlotHook<S> for Drain {
    fn drain_window(&self) -> Option<u64> {
        Some(self.0)
    }
}

const MATRIX_SLOTS: u64 = 1_500;
const MATRIX_EVERY: u64 = 400;
/// A loaded slot between the checkpoints at 1200 and 1600.
const MATRIX_LOADED_KILL: u64 = 1_300;
/// A drain slot after the checkpoint at 1600.
const MATRIX_DRAIN_KILL: u64 = 1_650;

const SINK: u32 = 1;
const PROFILER: u32 = 2;
const TELEMETRY: u32 = 4;
const RECOVERY: u32 = 8;
const HOOK: u32 = 16;

/// One attempt of one matrix cell: the campaign stack at N=8 with egress
/// faults under the attachments the `cell` bits name. With `RECOVERY`,
/// `rec` is the cell's recovery runtime.
fn matrix_attempt(cell: u32, rec: Option<&mut RecoveryRuntime>) -> Result<RunResult, SimError> {
    const N: usize = 8;
    const SEED: u64 = 41;
    let cfg = RunConfig {
        slots: MATRIX_SLOTS,
        warmup: MATRIX_SLOTS / 4,
        backlog_cap: 100_000,
        sample_every: 50,
    };
    let core = MulticastVoqSwitch::new(N, SEED).with_quarantine_slots(200);
    let mut switch = CheckedSwitch::new(
        FaultyFabric::new(InstrumentedSwitch::new(core), FaultConfig::egress(SEED))
            .with_event_recording(),
    );
    let mut traffic = TrafficKind::bernoulli_at_load(1.05, 0.25, N).build(N, SEED ^ 0x5a5a);
    let sink = RecordingSink::new();
    let mut profiler = PhaseProfiler::new();
    let mut telemetry = Telemetry::new(N, 250);
    let mut obs = Observer {
        sink: (cell & SINK != 0).then_some((&sink as &dyn fifoms_obs::EventSink, "matrix")),
        profiler: (cell & PROFILER != 0).then_some((&mut profiler, 7)),
        telemetry: (cell & TELEMETRY != 0).then_some(TelemetryChannel {
            telemetry: &mut telemetry,
            series: None,
            bus: None,
        }),
    };
    if cell & HOOK != 0 {
        run(
            &mut switch,
            traffic.as_mut(),
            &cfg,
            &mut obs,
            rec,
            &mut Drain(300),
        )
    } else {
        run(&mut switch, traffic.as_mut(), &cfg, &mut obs, rec, &mut ())
    }
}

/// Features that can be enabled together are tested together: every
/// subset of {sink, profiler, telemetry, recovery with a kill, a hook
/// with a drain window} gives the `RunResult` of the bare run, or of the
/// run with only the hook when the hook is attached. In hooked recovery
/// cells the kill falls inside the drain phase.
#[test]
fn every_attachment_subset_gives_the_reference_result() {
    let base = test_dir("matrix");
    let _ = fs::remove_dir_all(&base);
    let bare = format!("{:?}", matrix_attempt(0, None).expect("bare run"));
    let hooked = matrix_attempt(HOOK, None).expect("hooked run");
    assert!(
        hooked.slots_run > MATRIX_DRAIN_KILL,
        "the drain phase must outlast the kill: {}",
        hooked.slots_run
    );
    let hooked = format!("{hooked:?}");
    for cell in 0..32u32 {
        let result = if cell & RECOVERY != 0 {
            let ck = CheckpointConfig {
                dir: base.join(format!("cell-{cell}")),
                every: MATRIX_EVERY,
            };
            let kill = if cell & HOOK != 0 {
                MATRIX_DRAIN_KILL
            } else {
                MATRIX_LOADED_KILL
            };
            let mut rec = RecoveryRuntime::fresh(&ck).expect("fresh state dir");
            rec.kill_at(kill);
            match matrix_attempt(cell, Some(&mut rec)) {
                Err(SimError::Killed { slot }) => assert_eq!(slot, kill, "cell {cell}"),
                other => panic!("cell {cell}: expected the kill, got {other:?}"),
            }
            drop(rec);
            let mut rec = RecoveryRuntime::open(&ck).expect("reopen state dir");
            let info = rec.resume_info().expect("a checkpoint to resume from");
            assert_eq!(info.slot, kill / MATRIX_EVERY * MATRIX_EVERY, "cell {cell}");
            matrix_attempt(cell, Some(&mut rec))
        } else {
            matrix_attempt(cell, None)
        };
        let got = format!(
            "{:?}",
            result.unwrap_or_else(|e| panic!("cell {cell}: {e}"))
        );
        let want = if cell & HOOK != 0 { &hooked } else { &bare };
        assert_eq!(&got, want, "cell {cell} diverged");
    }
    let _ = fs::remove_dir_all(&base);
}

/// The switch-stack blob inside the newest valid checkpoint in `dir`:
/// the run state is `slot | trace offset | engine | switch | ...`.
fn newest_switch_blob(dir: &Path) -> Vec<u8> {
    let store = CheckpointStore::open(dir).expect("open checkpoint store");
    let (_, run_state) = store
        .load_candidates()
        .into_iter()
        .next()
        .expect("a checkpoint");
    let (_, payload) = unframe_state(&run_state, "fifoms-run").expect("run state envelope");
    let mut r = StateReader::new(payload);
    r.get_u64().expect("slot");
    r.get_u64().expect("trace offset");
    r.get_bytes().expect("engine state");
    r.get_bytes().expect("switch state").to_vec()
}

/// A recoverable run with no sink and no telemetry hands the stack's
/// pending events on to nowhere before each checkpoint, so no checkpoint
/// carries one. The matrix's campaign stack buffers events every slot,
/// and a declared capacity below its backlog makes `CheckedSwitch` hold
/// an unreported violation from slot 3 on. The kill falls on the first
/// checkpoint slot, right after the checkpoint is written, so the
/// violation is still unreported when the engine reaches it.
#[test]
fn unobserved_checkpoints_hold_no_pending_events() {
    const N: usize = 8;
    const SEED: u64 = 41;
    const KILL: u64 = MATRIX_EVERY;
    let stack = || {
        let core = MulticastVoqSwitch::new(N, SEED).with_quarantine_slots(200);
        CheckedSwitch::new(
            FaultyFabric::new(InstrumentedSwitch::new(core), FaultConfig::egress(SEED))
                .with_event_recording(),
        )
        .with_capacity(16)
    };
    let cfg = RunConfig {
        slots: MATRIX_SLOTS,
        warmup: MATRIX_SLOTS / 4,
        backlog_cap: 100_000,
        sample_every: 50,
    };
    let dir = test_dir("unobserved");
    let _ = fs::remove_dir_all(&dir);
    let ck = CheckpointConfig {
        dir: dir.clone(),
        every: MATRIX_EVERY,
    };
    let mut rec = RecoveryRuntime::fresh(&ck).expect("fresh state dir");
    rec.kill_at(KILL);
    let mut switch = stack();
    let mut traffic = TrafficKind::bernoulli_at_load(1.05, 0.25, N).build(N, SEED ^ 0x5a5a);
    match try_simulate_recoverable(
        &mut switch,
        traffic.as_mut(),
        &cfg,
        &mut Observer::none(),
        &mut rec,
    ) {
        Err(SimError::Killed { slot }) => assert_eq!(slot, KILL),
        other => panic!("expected the kill, got {other:?}"),
    }
    assert!(
        switch.violation().is_some(),
        "the capacity was never exceeded"
    );

    let mut pending = Vec::new();
    switch.drain_events(&mut pending);
    assert!(
        pending.is_empty(),
        "the stack still held {} event(s) at the checkpoint",
        pending.len()
    );
    let mut restored = stack();
    restored
        .load_state(&newest_switch_blob(&dir))
        .expect("restore the newest checkpoint");
    assert_eq!(restored.violation(), switch.violation());
    restored.drain_events(&mut pending);
    assert!(
        pending.is_empty(),
        "the checkpoint restored {} pending event(s), the first {:?}",
        pending.len(),
        pending.first()
    );
    let _ = fs::remove_dir_all(&dir);
}

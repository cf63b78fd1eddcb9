//! Supervised long-running service mode: a checkpointed run under a
//! restart supervisor.
//!
//! [`serve`] drives one `(switch, traffic)` pair exactly like
//! [`try_simulate_recoverable`](crate::try_simulate_recoverable), but in
//! a *worker* thread under the shared cell guard
//! ([`guarded`](crate::guarded)). When the worker crashes
//! (panics, returns an error, or is deliberately killed through the
//! [`SimError::Killed`] injection hook) or wedges (the watchdog fires),
//! the supervisor restarts it from the newest valid checkpoint in the
//! state directory, with exponential backoff between restarts. A
//! restart budget bounds the loop: once it is exhausted the supervisor
//! escalates with a structured [`SimError::Recovery`] instead of
//! retrying forever. A [`SimError::State`] is not retried at all: a
//! checkpoint the built stack cannot save or restore fails the same way
//! on every attempt, so the session ends after the first.
//!
//! Supervisor-visible lifecycle events (`recovery_started`,
//! `recovery_completed`) go to the supervisor's own [`EventSink`] —
//! never to the deterministic run trace, which an uninterrupted run
//! must reproduce byte-for-byte (`checkpoint_written` is the only
//! recovery-adjacent event that belongs there, and the engine emits it).
//!
//! Because every restart reopens the state directory through
//! [`RecoveryRuntime::open`], corrupt checkpoint files are skipped
//! exactly as in the chaos corruption campaign: the supervisor falls
//! back to the previous valid checkpoint rather than dying on a torn or
//! bit-flipped file.

use std::sync::Arc;
use std::time::Duration;

use fifoms_fabric::Switch;
use fifoms_obs::EventSink;
use fifoms_traffic::TrafficModel;
use fifoms_types::{ObsEvent, SimError, Slot};

use crate::engine::{try_simulate_recoverable, Observer, RunConfig, RunResult};
use crate::guard::{guarded, CellFailureReason};
use crate::recover::{CheckpointConfig, RecoveryRuntime, ResumeInfo};

/// Event-scope tag under which the supervisor emits its lifecycle
/// events.
pub const SERVE_SCOPE: &str = "serve";

/// Supervisor policy for one [`serve`] session.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// The simulation run the worker executes.
    pub run: RunConfig,
    /// Where checkpoints and the arrival WAL live, and how often the
    /// worker checkpoints.
    pub checkpoint: CheckpointConfig,
    /// Restarts allowed before the supervisor escalates. `0` means a
    /// single attempt with no retry.
    pub max_restarts: u32,
    /// Backoff before the first restart, in milliseconds; doubles per
    /// restart.
    pub backoff_base_millis: u64,
    /// Upper bound on the exponential backoff, in milliseconds.
    pub backoff_cap_millis: u64,
    /// Wall-clock budget per worker attempt: a worker silent for this
    /// long is declared wedged and abandoned.
    pub worker_timeout_millis: u64,
    /// Crash-injection hook: kill the *first* attempt at this slot (via
    /// [`RecoveryRuntime::kill_at`]). Later attempts run unharmed, so a
    /// supervised session with `die_at` set exercises exactly one
    /// crash-and-recover cycle. Testing/demo only.
    pub die_at: Option<u64>,
}

impl ServeConfig {
    /// Sensible defaults around a run and state directory: 3 restarts,
    /// 100 ms base backoff capped at 5 s, 10-minute worker watchdog.
    pub fn new(run: RunConfig, checkpoint: CheckpointConfig) -> ServeConfig {
        ServeConfig {
            run,
            checkpoint,
            max_restarts: 3,
            backoff_base_millis: 100,
            backoff_cap_millis: 5_000,
            worker_timeout_millis: 600_000,
            die_at: None,
        }
    }
}

/// What a completed [`serve`] session did.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// The final run result (bit-identical to an uninterrupted run of
    /// the same configuration, per the recovery invariant).
    pub result: RunResult,
    /// Worker attempts launched, including the successful one.
    pub attempts: u32,
    /// Restarts performed (`attempts - 1`).
    pub restarts: u32,
    /// What the successful attempt resumed from, if it recovered from a
    /// checkpoint rather than starting fresh.
    pub resumed_from: Option<ResumeInfo>,
    /// WAL records the successful attempt replayed and verified.
    pub replayed: u64,
}

/// One worker attempt: open (or resume) the state directory, build a
/// fresh switch/traffic stack, and run to completion. The supervisor
/// runs this under [`guarded`], so a panic anywhere in here surfaces as
/// a structured failure rather than a wedge.
fn attempt<FS, FT>(
    cfg: &ServeConfig,
    build_switch: &FS,
    build_traffic: &FT,
    sink: Option<&Arc<dyn EventSink>>,
    die_at: Option<u64>,
) -> Result<(RunResult, Option<ResumeInfo>, u64), SimError>
where
    FS: Fn() -> Box<dyn Switch>,
    FT: Fn() -> Result<Box<dyn TrafficModel>, SimError>,
{
    let mut rec = RecoveryRuntime::open(&cfg.checkpoint)?;
    let resumed_from = rec.resume_info();
    if let Some(info) = resumed_from {
        if let Some(sink) = sink {
            sink.emit(
                SERVE_SCOPE,
                &ObsEvent::RecoveryStarted {
                    slot: Slot(info.slot),
                    seq: info.seq,
                },
            );
        }
    }
    if let Some(slot) = die_at {
        rec.kill_at(slot);
    }
    let mut switch = build_switch();
    let mut traffic = build_traffic()?;
    let result = try_simulate_recoverable(
        switch.as_mut(),
        traffic.as_mut(),
        &cfg.run,
        &mut Observer::none(),
        &mut rec,
    )?;
    let replayed = rec.replayed();
    if let (Some(info), Some(sink)) = (resumed_from, sink) {
        sink.emit(
            SERVE_SCOPE,
            &ObsEvent::RecoveryCompleted {
                slot: Slot(info.slot + replayed),
                replayed,
            },
        );
    }
    Ok((result, resumed_from, replayed))
}

/// Exponential backoff for the `k`-th restart (1-based), capped.
fn backoff_millis(cfg: &ServeConfig, restart: u32) -> u64 {
    let doublings = restart.saturating_sub(1).min(20);
    cfg.backoff_base_millis
        .saturating_mul(1u64 << doublings)
        .min(cfg.backoff_cap_millis)
}

/// Run a supervised, checkpointed simulation session to completion.
///
/// `build_switch` / `build_traffic` construct a *fresh* stack for every
/// attempt (recovery then overwrites its state from the checkpoint, so
/// the builders must be deterministic — same seed, same topology).
/// `sink`, when given, receives the supervisor's `recovery_started` /
/// `recovery_completed` events under the [`SERVE_SCOPE`] scope.
///
/// Returns the final [`ServeReport`] on success; past the restart
/// budget, escalates with [`SimError::Recovery`] naming the budget and
/// the last failure. An attempt that fails with [`SimError::State`]
/// ends the session at once, with a [`SimError::Recovery`] naming the
/// state directory and the error.
pub fn serve<FS, FT>(
    cfg: &ServeConfig,
    build_switch: FS,
    build_traffic: FT,
    sink: Option<Arc<dyn EventSink>>,
) -> Result<ServeReport, SimError>
where
    FS: Fn() -> Box<dyn Switch> + Send + Sync + Clone + 'static,
    FT: Fn() -> Result<Box<dyn TrafficModel>, SimError> + Send + Sync + Clone + 'static,
{
    let mut attempts: u32 = 0;
    let mut restarts: u32 = 0;
    let mut last_failure;
    loop {
        let worker_cfg = cfg.clone();
        let worker_switch = build_switch.clone();
        let worker_traffic = build_traffic.clone();
        let worker_sink = sink.clone();
        // The deliberate-crash hook arms only the first attempt, so a
        // `die_at` session exercises exactly one recover cycle.
        let die_at = if attempts == 0 { cfg.die_at } else { None };
        // The whole attempt — builders included — runs under the guard,
        // so a panic anywhere in the worker surfaces as a structured
        // failure instead of looking like a wedge. The attempt's own
        // error comes back whole, so the supervisor can tell its kind.
        let limit = Duration::from_millis(cfg.worker_timeout_millis);
        let outcome = guarded(Some(limit), move || {
            Ok(attempt(
                &worker_cfg,
                &worker_switch,
                &worker_traffic,
                worker_sink.as_ref(),
                die_at,
            ))
        });
        attempts = attempts.saturating_add(1);
        match outcome {
            Ok(Ok((result, resumed_from, replayed))) => {
                return Ok(ServeReport {
                    result,
                    attempts,
                    restarts,
                    resumed_from,
                    replayed,
                });
            }
            Ok(Err(e @ SimError::State(_))) => {
                return Err(SimError::Recovery {
                    message: format!(
                        "state directory {}: {e}; stopped after {attempts} attempt(s), as a \
                         restart cannot heal a state error",
                        cfg.checkpoint.dir.display()
                    ),
                });
            }
            Ok(Err(e)) => last_failure = e.to_string(),
            Err(CellFailureReason::Error(msg)) => last_failure = msg,
            Err(CellFailureReason::Panic(msg)) => last_failure = format!("worker panicked: {msg}"),
            Err(CellFailureReason::Timeout { millis }) => {
                last_failure = format!("worker wedged: watchdog fired after {millis}ms")
            }
        }
        if restarts >= cfg.max_restarts {
            return Err(SimError::Recovery {
                message: format!(
                    "restart budget ({}) exhausted after {attempts} attempt(s); \
                     last failure: {last_failure}",
                    cfg.max_restarts
                ),
            });
        }
        restarts = restarts.saturating_add(1);
        std::thread::sleep(std::time::Duration::from_millis(backoff_millis(
            cfg, restarts,
        )));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifoms_core::MulticastVoqSwitch;
    use fifoms_obs::JsonlSink;
    use crate::spec::{SwitchKind, TrafficKind};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("fifoms-serve-{tag}-{}", std::process::id()))
    }

    #[allow(clippy::type_complexity)]
    fn builders() -> (
        impl Fn() -> Box<dyn Switch> + Send + Sync + Clone + 'static,
        impl Fn() -> Result<Box<dyn TrafficModel>, SimError> + Send + Sync + Clone + 'static,
    ) {
        (
            || Box::new(MulticastVoqSwitch::new(8, 7)) as Box<dyn Switch>,
            || TrafficKind::Bernoulli { p: 0.3, b: 0.25 }.try_build(8, 7 ^ 0x5a5a),
        )
    }

    fn serve_cfg(dir: &std::path::Path) -> ServeConfig {
        let mut cfg = ServeConfig::new(
            RunConfig {
                slots: 1_500,
                warmup: 400,
                backlog_cap: 100_000,
                sample_every: 50,
            },
            CheckpointConfig {
                dir: dir.to_path_buf(),
                every: 400,
            },
        );
        cfg.backoff_base_millis = 1;
        cfg.worker_timeout_millis = 60_000;
        cfg
    }

    #[test]
    fn supervisor_recovers_a_killed_worker_bit_identically() {
        let dir = temp_dir("recover");
        let _ = std::fs::remove_dir_all(&dir);

        // Uninterrupted reference session.
        let (bs, bt) = builders();
        let reference = serve(&serve_cfg(&dir), bs, bt, None)
            .expect("reference serve session");
        assert_eq!(reference.attempts, 1);
        assert_eq!(reference.restarts, 0);
        assert!(reference.resumed_from.is_none());
        let _ = std::fs::remove_dir_all(&dir);

        // Crash the first attempt at slot 1 000 (after checkpoint seq 2
        // at slot 800), with the supervisor logging to a JSONL sink.
        let log_path = dir.join("supervisor.jsonl");
        let mut cfg = serve_cfg(&dir);
        cfg.die_at = Some(1_000);
        let (bs, bt) = builders();
        std::fs::create_dir_all(&dir).expect("state dir");
        let log = std::fs::File::create(&log_path).expect("supervisor log");
        let sink: Arc<dyn EventSink> = Arc::new(JsonlSink::new(log));
        let report = serve(&cfg, bs, bt, Some(sink)).expect("supervised session");

        assert_eq!(report.attempts, 2);
        assert_eq!(report.restarts, 1);
        let info = report.resumed_from.expect("second attempt resumed");
        assert_eq!(info.seq, 2);
        assert_eq!(info.slot, 800);
        assert_eq!(report.replayed, 200); // slots 800..1000 from the WAL
        let a = &report.result;
        let b = &reference.result;
        assert_eq!(a.packets_admitted, b.packets_admitted);
        assert_eq!(a.copies_delivered, b.copies_delivered);
        assert_eq!(a.slots_run, b.slots_run);
        assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
        assert_eq!(
            a.delay.mean_output_oriented.to_bits(),
            b.delay.mean_output_oriented.to_bits()
        );
        assert_eq!(a.occupancy.mean.to_bits(), b.occupancy.mean.to_bits());

        let log = std::fs::read_to_string(&log_path).expect("read supervisor log");
        assert!(log.contains("\"event\":\"recovery_started\""), "log: {log}");
        assert!(log.contains("\"event\":\"recovery_completed\""), "log: {log}");
        assert!(log.contains("\"scope\":\"serve\""), "log: {log}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn supervisor_escalates_past_the_restart_budget() {
        let dir = temp_dir("budget");
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = serve_cfg(&dir);
        cfg.max_restarts = 2;
        let bs = || Box::new(MulticastVoqSwitch::new(8, 7)) as Box<dyn Switch>;
        // A traffic builder that always fails: every attempt dies before
        // the run starts, so the budget must trip.
        let bt = || -> Result<Box<dyn TrafficModel>, SimError> {
            Err(SimError::Usage("deliberately broken builder".to_string()))
        };
        let err = match serve(&cfg, bs, bt, None) {
            Err(e) => e,
            Ok(_) => panic!("session with a broken builder cannot succeed"),
        };
        let msg = err.to_string();
        assert!(msg.contains("restart budget (2) exhausted"), "got: {msg}");
        assert!(msg.contains("deliberately broken builder"), "got: {msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn supervisor_stops_at_once_on_a_checkpoint_it_cannot_restore() {
        let dir = temp_dir("refused");
        let _ = std::fs::remove_dir_all(&dir);
        // A FIFOMS session leaves its checkpoints in the state directory.
        let (bs, bt) = builders();
        serve(&serve_cfg(&dir), bs, bt, None).expect("FIFOMS session");
        // OQ-FIFO refuses a FIFOMS checkpoint, and would on every restart.
        let built = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let count = built.clone();
        let bs = move || -> Box<dyn Switch> {
            count.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            SwitchKind::OqFifo.build(8, 7)
        };
        let (_, bt) = builders();
        let err = match serve(&serve_cfg(&dir), bs, bt, None) {
            Err(e) => e,
            Ok(_) => panic!("OQ-FIFO cannot resume a FIFOMS checkpoint"),
        };
        assert_eq!(
            built.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "one attempt, no restart"
        );
        let msg = err.to_string();
        assert!(msg.contains(&dir.display().to_string()), "got: {msg}");
        assert!(msg.contains("checkpoint kind mismatch"), "got: {msg}");
        assert!(msg.contains("1 attempt(s)"), "got: {msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_refused_session_leaves_the_logged_gap_for_the_next() {
        let dir = temp_dir("gap-kept");
        let _ = std::fs::remove_dir_all(&dir);
        // A session killed at slot 1,000 with no restart budget leaves the
        // slot-800 checkpoint and the arrivals of slots 800..1,000.
        let mut cfg = serve_cfg(&dir);
        cfg.max_restarts = 0;
        cfg.die_at = Some(1_000);
        let (bs, bt) = builders();
        assert!(serve(&cfg, bs, bt, None).is_err(), "killed, no restart");
        let wal = dir.join("arrivals.wal");
        let logged = std::fs::read(&wal).expect("wal");
        // A stack that refuses the checkpoint stops without touching it.
        let (_, bt) = builders();
        let bs = || SwitchKind::OqFifo.build(8, 7);
        assert!(serve(&serve_cfg(&dir), bs, bt, None).is_err(), "refused");
        assert_eq!(std::fs::read(&wal).expect("wal"), logged);
        // The right stack resumes and verifies the whole gap.
        let (bs, bt) = builders();
        let report = serve(&serve_cfg(&dir), bs, bt, None).expect("resume");
        assert_eq!(report.resumed_from.map(|info| info.slot), Some(800));
        assert_eq!(report.replayed, 200);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn supervisor_detects_a_wedged_worker() {
        let dir = temp_dir("wedge");
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = serve_cfg(&dir);
        cfg.max_restarts = 1;
        cfg.worker_timeout_millis = 40;
        let bs = || -> Box<dyn Switch> {
            // Wedge the worker during construction; the watchdog must
            // abandon it rather than wait.
            std::thread::sleep(std::time::Duration::from_secs(30));
            Box::new(MulticastVoqSwitch::new(8, 7))
        };
        let (_, bt) = builders();
        let started = std::time::Instant::now();
        let err = match serve(&cfg, bs, bt, None) {
            Err(e) => e,
            Ok(_) => panic!("session with a wedged builder cannot succeed"),
        };
        assert!(started.elapsed() < std::time::Duration::from_secs(10));
        let msg = err.to_string();
        assert!(msg.contains("watchdog fired"), "got: {msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn supervisor_recovers_a_panicking_worker() {
        let dir = temp_dir("panic");
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = serve_cfg(&dir);
        cfg.die_at = None;
        cfg.max_restarts = 1;
        // First attempt panics in the builder; the retry succeeds.
        let panicked = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = panicked.clone();
        let bs = move || -> Box<dyn Switch> {
            if !flag.swap(true, std::sync::atomic::Ordering::SeqCst) {
                panic!("injected builder panic");
            }
            Box::new(MulticastVoqSwitch::new(8, 7))
        };
        let (_, bt) = builders();
        let report = serve(&cfg, bs, bt, None).expect("supervised session");
        assert_eq!(report.attempts, 2);
        assert_eq!(report.restarts, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

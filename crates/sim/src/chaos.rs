//! Chaos campaign harness for the egress fault runtime.
//!
//! A campaign sweeps seeded [`ChaosScenario`]s — each one an egress-mode
//! fault schedule plus a workload — through the fully armoured stack
//! `CheckedSwitch<FaultyFabric<MulticastVoqSwitch>>` (the checker is
//! *outside* the fault layer, so every invariant is enforced on the
//! post-fault view the rest of the system actually sees). Each run goes
//! through the engine's slot loop: a [`SlotHook`] adds the drain phase,
//! the ledger drains, the scoreboard audit and the stop on the first
//! violation. Each run records recovery metrics (time-to-recover, loss
//! counts, scoreboard accuracy) into a [`RecoveryRecorder`] from the
//! `copy_killed` / `copy_recovered` observability events, and verifies
//! the egress conservation law
//!
//! ```text
//! admitted copies == delivered + reconciled drops + backlog
//! ```
//!
//! When a scenario fails — an invariant violation, unreconciled
//! `fanoutCounter`s, or a switch that never drains — [`shrink_scenario`]
//! delta-debugs it against the default scenario, one parameter at a
//! time, down to a minimal reproducer that prints as a ready-to-run
//! `fifoms-repro chaos --scenario ...` invocation.

use std::ops::ControlFlow;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use fifoms_core::{AdmissionPolicy, BufferConfig, MulticastVoqSwitch};
use fifoms_fabric::{CheckedSwitch, FaultConfig, FaultMode, FaultStats, FaultyFabric, Switch};
use fifoms_obs::EventSink;
use fifoms_stats::{RecoveryRecorder, RecoverySummary};
use fifoms_types::{
    splitmix64, AdmissionDrop, DroppedCopy, ObsEvent, PortId, SimError, Slot, SlotOutcome,
    SPLITMIX64_GAMMA,
};

use crate::engine::{run, Observer, RunConfig, SlotHook, TelemetrySpec};
use crate::guard::guarded;
use crate::spec::TrafficKind;

/// Slots between scoreboard-vs-ground-truth audits during a run.
const AUDIT_EVERY: u64 = 64;

/// Per-output destination probability of the campaign workload.
const CHAOS_B: f64 = 0.25;

/// One seeded fault scenario: everything that determines a chaos run.
///
/// Every field has a default (see [`ChaosScenario::default`]); a
/// scenario's identity for reporting and shrinking is its set of
/// *non-default* parameters, rendered as `name=value,...` by
/// [`ChaosScenario::cli_spec`] and parsed back by
/// [`ChaosScenario::parse`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ChaosScenario {
    /// Switch size.
    pub n: usize,
    /// Seed for the switch, workload and fault schedule.
    pub seed: u64,
    /// Loaded slots before the drain phase begins.
    pub slots: u64,
    /// Effective Bernoulli-multicast load during the loaded phase.
    pub load: f64,
    /// Output flap period in slots (`0` disables flaps).
    pub flap_period: u64,
    /// Slots an output stays down within each flap period.
    pub flap_duration: u64,
    /// Number of crosspoints killed at `crosspoint_at` (`0` disables).
    pub crosspoint_faults: usize,
    /// Slot the crosspoint faults strike.
    pub crosspoint_at: u64,
    /// Slots until a failed crosspoint recovers (`u64::MAX` never).
    pub crosspoint_duration: u64,
    /// Kills one copy survives before its structured drop.
    pub retry_budget: u32,
    /// Scoreboard quarantine window in slots.
    pub quarantine: u64,
    /// Per-VOQ address-cell cap (`0` = unbounded, the default).
    pub voq_cap: usize,
    /// Per-input aggregate copy cap (`0` = unbounded, the default).
    pub input_cap: usize,
    /// Admission policy applied when a cap is finite (inert otherwise).
    pub admission: AdmissionPolicy,
}

impl Default for ChaosScenario {
    fn default() -> ChaosScenario {
        ChaosScenario {
            n: 8,
            seed: 1,
            slots: 2_000,
            load: 0.6,
            flap_period: 0,
            flap_duration: 0,
            crosspoint_faults: 0,
            crosspoint_at: 0,
            crosspoint_duration: 0,
            retry_budget: 3,
            quarantine: 200,
            voq_cap: 0,
            input_cap: 0,
            admission: AdmissionPolicy::DropTail,
        }
    }
}

/// Field names in shrink order (fault knobs first: zeroing them disables
/// whole fault dimensions, which is the biggest single-step reduction).
const FIELDS: &[&str] = &[
    "flap_period",
    "flap_duration",
    "crosspoint_faults",
    "crosspoint_at",
    "crosspoint_duration",
    "voq_cap",
    "input_cap",
    "admission",
    "retry_budget",
    "quarantine",
    "load",
    "slots",
    "n",
    "seed",
];

impl ChaosScenario {
    /// The value of one named field, rendered as its spec string.
    fn get(&self, name: &str) -> String {
        match name {
            "n" => self.n.to_string(),
            "seed" => self.seed.to_string(),
            "slots" => self.slots.to_string(),
            "load" => self.load.to_string(),
            "flap_period" => self.flap_period.to_string(),
            "flap_duration" => self.flap_duration.to_string(),
            "crosspoint_faults" => self.crosspoint_faults.to_string(),
            "crosspoint_at" => self.crosspoint_at.to_string(),
            "crosspoint_duration" => self.crosspoint_duration.to_string(),
            "retry_budget" => self.retry_budget.to_string(),
            "quarantine" => self.quarantine.to_string(),
            "voq_cap" => self.voq_cap.to_string(),
            "input_cap" => self.input_cap.to_string(),
            "admission" => self.admission.as_str().to_string(),
            other => unreachable!("unknown scenario field {other}"),
        }
    }

    /// Set one named field from its spec string.
    fn set(&mut self, name: &str, value: &str) -> Result<(), String> {
        fn num<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("bad value {value} for {name}"))
        }
        match name {
            "n" => self.n = num(name, value)?,
            "seed" => self.seed = num(name, value)?,
            "slots" => self.slots = num(name, value)?,
            "load" => self.load = num(name, value)?,
            "flap_period" => self.flap_period = num(name, value)?,
            "flap_duration" => self.flap_duration = num(name, value)?,
            "crosspoint_faults" => self.crosspoint_faults = num(name, value)?,
            "crosspoint_at" => self.crosspoint_at = num(name, value)?,
            "crosspoint_duration" => {
                self.crosspoint_duration = if value == "never" {
                    u64::MAX
                } else {
                    num(name, value)?
                }
            }
            "retry_budget" => self.retry_budget = num(name, value)?,
            "quarantine" => self.quarantine = num(name, value)?,
            "voq_cap" => self.voq_cap = num(name, value)?,
            "input_cap" => self.input_cap = num(name, value)?,
            "admission" => {
                self.admission = match value {
                    "drop_tail" => AdmissionPolicy::DropTail,
                    "pushout" => AdmissionPolicy::Pushout,
                    "fair_shed" => AdmissionPolicy::FairShed,
                    other => return Err(format!("unknown admission policy {other}")),
                }
            }
            other => return Err(format!("unknown scenario field {other}")),
        }
        Ok(())
    }

    /// Parse a `name=value,...` spec over the default scenario.
    pub fn parse(spec: &str) -> Result<ChaosScenario, SimError> {
        let mut sc = ChaosScenario::default();
        let err = |m: String| SimError::Usage(format!("--scenario {spec}: {m}"));
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (name, value) = pair
                .split_once('=')
                .ok_or_else(|| err(format!("expected name=value, got {pair}")))?;
            sc.set(name.trim(), value.trim()).map_err(err)?;
        }
        sc.validate().map_err(err)?;
        Ok(sc)
    }

    /// Reject scenarios the runner cannot execute meaningfully.
    fn validate(&self) -> Result<(), String> {
        if !(2..=64).contains(&self.n) {
            return Err(format!("n={} outside 2..=64", self.n));
        }
        if self.slots == 0 || self.slots > 10_000_000 {
            return Err(format!("slots={} outside 1..=10^7", self.slots));
        }
        // p = load/(b·n) must stay a probability. Infinite buffers also
        // require an admissible load (<= 1.0) or the drain phase never
        // ends; finite buffers bound the backlog by construction, so
        // buffer-pressure campaigns may offer inadmissible loads.
        let load_cap = if self.buffer_config().is_bounded() {
            (CHAOS_B * self.n as f64).min(2.0)
        } else {
            (CHAOS_B * self.n as f64).min(1.0)
        };
        if !(self.load > 0.0 && self.load <= load_cap) {
            return Err(format!("load={} not in (0, {load_cap}]", self.load));
        }
        if self.flap_period > 0 && self.flap_duration >= self.flap_period {
            return Err("flap_duration must be < flap_period".into());
        }
        Ok(())
    }

    /// The non-default parameters, in [`FIELDS`] order.
    pub fn non_default_params(&self) -> Vec<(&'static str, String)> {
        let base = ChaosScenario::default();
        FIELDS
            .iter()
            .filter(|f| self.get(f) != base.get(f))
            .map(|f| {
                let v = match (*f, self.crosspoint_duration) {
                    ("crosspoint_duration", u64::MAX) => "never".to_string(),
                    _ => self.get(f),
                };
                (*f, v)
            })
            .collect()
    }

    /// The `--scenario` spec reproducing this scenario (empty string for
    /// the all-defaults scenario).
    pub fn cli_spec(&self) -> String {
        self.non_default_params()
            .into_iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The buffer limits this scenario runs under (`unbounded` when both
    /// caps are 0, which is the default and keeps legacy scenarios
    /// bit-identical).
    pub fn buffer_config(&self) -> BufferConfig {
        BufferConfig::bounded(self.voq_cap, self.input_cap).with_policy(self.admission)
    }

    /// The egress-mode fault schedule this scenario injects.
    pub fn fault_config(&self) -> FaultConfig {
        FaultConfig {
            seed: self.seed ^ 0xC0DE,
            flap_period: self.flap_period,
            flap_duration: self.flap_duration,
            crosspoint_faults: self.crosspoint_faults,
            crosspoint_at: self.crosspoint_at,
            crosspoint_duration: self.crosspoint_duration,
            mode: FaultMode::Egress,
            retry_budget: self.retry_budget,
        }
    }
}

/// Everything measured and checked in one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// The scenario that was run.
    pub scenario: ChaosScenario,
    /// First invariant violation, rendered (`None` when clean).
    pub violation: Option<String>,
    /// Whether the backlog fully drained within the drain budget (a
    /// `false` here is the campaign's deadlock detector).
    pub drained: bool,
    /// `admitted − delivered − reconciled − backlog` at end of run: the
    /// egress conservation residue. Nonzero means a `fanoutCounter` was
    /// lost or double-counted.
    pub unreconciled: i64,
    /// Copies admitted through the checker.
    pub admitted_copies: u64,
    /// Copies delivered through the checker.
    pub delivered_copies: u64,
    /// Structured drops reconciled against admissions.
    pub reconciled_drops: u64,
    /// Copies refused or pushed out at admission (nonzero only when the
    /// scenario runs with finite buffers).
    pub admission_drops: u64,
    /// Recovery metrics distilled from the observability events.
    pub recovery: RecoverySummary,
    /// The fault layer's own accounting.
    pub fault_stats: FaultStats,
    /// Slots executed including the drain phase.
    pub slots_run: u64,
}

impl ChaosOutcome {
    /// Whether this run must fail the campaign.
    pub fn failed(&self) -> bool {
        self.violation.is_some() || !self.drained || self.unreconciled != 0
    }

    /// One status word for tables.
    pub fn status(&self) -> &'static str {
        if self.violation.is_some() {
            "VIOLATION"
        } else if !self.drained {
            "DEADLOCK"
        } else if self.unreconciled != 0 {
            "UNRECONCILED"
        } else {
            "ok"
        }
    }
}

/// Run one scenario on the real stack:
/// `CheckedSwitch<FaultyFabric<MulticastVoqSwitch>>`, scoreboard audits
/// enabled.
pub fn run_scenario(sc: &ChaosScenario) -> ChaosOutcome {
    run_scenario_observed(sc, None, "chaos")
}

/// [`run_scenario`] with live telemetry attached under `scope`: windowed
/// counters stream to the spec's series sink and snapshot bus while the
/// scenario runs. Telemetry is read-only, so the returned outcome is
/// bit-identical to [`run_scenario`]'s.
pub fn run_scenario_observed(
    sc: &ChaosScenario,
    telemetry: Option<&TelemetrySpec>,
    scope: &str,
) -> ChaosOutcome {
    let core = MulticastVoqSwitch::new(sc.n, sc.seed)
        .with_buffers(sc.buffer_config())
        .with_quarantine_slots(sc.quarantine);
    let audit = |sw: &MulticastVoqSwitch, i: PortId, o: PortId, now: Slot| {
        sw.scoreboard().is_quarantined(i, o, now)
    };
    drive(sc, core, Some(&audit), telemetry.map(|t| (t, scope)))
}

/// Run one scenario with a caller-supplied core switch (test fixtures
/// seed deliberate bugs this way); scoreboard audits are skipped because
/// a generic [`Switch`] exposes none.
pub fn run_scenario_on<S: Switch>(sc: &ChaosScenario, core: S) -> ChaosOutcome {
    drive::<S>(sc, core, None, None)
}

/// Ground truth for the scoreboard audit: whether the core has path
/// `(input, output)` quarantined at `now`.
type ScoreboardProbe<'a, S> = &'a dyn Fn(&S, PortId, PortId, Slot) -> bool;

fn drive<S: Switch>(
    sc: &ChaosScenario,
    core: S,
    audit: Option<ScoreboardProbe<'_, S>>,
    telemetry: Option<(&TelemetrySpec, &str)>,
) -> ChaosOutcome {
    debug_assert!(sc.validate().is_ok(), "unvalidated scenario: {sc:?}");
    let fabric = FaultyFabric::new(core, sc.fault_config()).with_event_recording();
    let mut checked = CheckedSwitch::new(fabric);
    if let Some(capacity) = sc.buffer_config().max_copies(sc.n) {
        checked = checked.with_capacity(capacity);
    }
    let mut traffic = TrafficKind::bernoulli_at_load(sc.load, CHAOS_B, sc.n)
        .build(sc.n, sc.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));

    // The recorder folds the copy_killed / copy_recovered events the
    // engine forwards; telemetry rides along through the engine's own
    // channel when attached.
    let events = RecoveryEvents(Mutex::new(RecoveryRecorder::new()));
    let mut tele = telemetry.map(|(spec, _)| spec.new_telemetry(sc.n));
    let mut obs = Observer {
        sink: Some((&events, "chaos")),
        profiler: None,
        telemetry: match (telemetry, tele.as_mut()) {
            (Some((spec, scope)), Some(t)) => Some(spec.channel(t, scope)),
            _ => None,
        },
    };
    let mut hook = ChaosHook {
        stall_window: stall_window(sc),
        audit,
        recorder: &events.0,
        drops: Vec::new(),
        admission_drops: Vec::new(),
    };
    // No warmup and no backlog cap: a scenario runs every loaded slot,
    // then drains.
    let cfg = RunConfig {
        slots: sc.slots,
        warmup: 0,
        backlog_cap: usize::MAX,
        sample_every: 100,
    };
    let result = run(
        &mut checked,
        traffic.as_mut(),
        &cfg,
        &mut obs,
        None,
        &mut hook,
    )
    .expect("a validated scenario meets the engine's preconditions");
    let recovery = lock(&events.0).summary();

    let backlog = checked.backlog();
    let admitted = checked.admitted_copies();
    let delivered = checked.delivered_copies();
    let reconciled = checked.reconciled_copies();
    let admission_drops = checked.admission_dropped_copies();
    ChaosOutcome {
        scenario: *sc,
        violation: checked.violation().map(|v| v.to_string()),
        drained: backlog.is_empty(),
        unreconciled: admitted as i64
            - delivered as i64
            - reconciled as i64
            - admission_drops as i64
            - backlog.copies as i64,
        admitted_copies: admitted,
        delivered_copies: delivered,
        // Every drained drop is recorded as one lost copy.
        reconciled_drops: recovery.copies_lost,
        admission_drops,
        recovery,
        fault_stats: checked.inner().stats(),
        slots_run: result.slots_run,
    }
}

/// The drain phase's deadlock rule. The backlog is non-increasing once
/// admissions stop (a requeued copy stays in the count), so "no decrease
/// across a full stall window" means no copy will ever move again. The
/// window covers everything that can legitimately stall progress: a dead
/// path gates each of its retry-budget+1 kill cycles behind a quarantine
/// window before the re-probe, a flapped output is down for up to a
/// period, and a transient crosspoint outage lasts
/// `crosspoint_duration`. A deadline that resets on every backlog
/// decrease lets a permanent fault serialize a deep VOQ through its
/// kill/requeue cycles however long that takes, while a genuinely wedged
/// switch is flagged after one quiet window.
fn stall_window(sc: &ChaosScenario) -> u64 {
    let transient_outage = if sc.crosspoint_duration == u64::MAX {
        0
    } else {
        sc.crosspoint_duration
    };
    (u64::from(sc.retry_budget) + 2) * sc.quarantine.max(1)
        + sc.flap_period
        + transient_outage
        + 1_000
}

/// Folds the fault layer's recovery events into a [`RecoveryRecorder`].
struct RecoveryEvents(Mutex<RecoveryRecorder>);

impl EventSink for RecoveryEvents {
    fn emit(&self, _scope: &str, event: &ObsEvent) {
        match *event {
            ObsEvent::CopyKilled { requeued, .. } => lock(&self.0).record_kill(requeued),
            ObsEvent::CopyRecovered { kills, latency, .. } => {
                lock(&self.0).record_recovery(kills, latency)
            }
            _ => {}
        }
    }
}

fn lock(recorder: &Mutex<RecoveryRecorder>) -> MutexGuard<'_, RecoveryRecorder> {
    recorder.lock().expect("no lock holder panicked")
}

/// A chaos scenario's per-slot work on top of the engine: ledger drains,
/// the scoreboard audit, the drain phase's stall window and the stop on
/// the first invariant violation.
struct ChaosHook<'a, S> {
    stall_window: u64,
    audit: Option<ScoreboardProbe<'a, S>>,
    recorder: &'a Mutex<RecoveryRecorder>,
    drops: Vec<DroppedCopy>,
    admission_drops: Vec<AdmissionDrop>,
}

impl<S: Switch> SlotHook<CheckedSwitch<FaultyFabric<S>>> for ChaosHook<'_, S> {
    fn drain_window(&self) -> Option<u64> {
        Some(self.stall_window)
    }

    fn after_slot(
        &mut self,
        checked: &mut CheckedSwitch<FaultyFabric<S>>,
        now: Slot,
        _outcome: &SlotOutcome,
    ) -> ControlFlow<()> {
        checked.drain_reconciled_drops(&mut self.drops);
        if !self.drops.is_empty() {
            let mut recorder = lock(self.recorder);
            for _ in self.drops.drain(..) {
                recorder.record_loss();
            }
        }
        // Admission drops are per-copy records; draining every slot
        // keeps the core's ledger bounded over long campaigns.
        checked.drain_admission_drops(&mut self.admission_drops);
        self.admission_drops.clear();

        if let Some(audit) = self.audit {
            if now.0 % AUDIT_EVERY == AUDIT_EVERY - 1 {
                let (mut hits, mut false_alarms, mut misses) = (0u64, 0u64, 0u64);
                let n = checked.ports();
                let fabric = checked.inner();
                let core = fabric.inner();
                for i in 0..n {
                    for o in 0..n {
                        let (i, o) = (PortId::new(i), PortId::new(o));
                        let truth = fabric.path_down(i, o, now);
                        let marked = audit(core, i, o, now);
                        match (truth, marked) {
                            (true, true) => hits += 1,
                            (false, true) => false_alarms += 1,
                            (true, false) => misses += 1,
                            (false, false) => {}
                        }
                    }
                }
                lock(self.recorder).record_scoreboard_audit(hits, false_alarms, misses);
            }
        }

        // The first violation ends the run; the scenario failed.
        if checked.violation().is_some() {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// The deterministic scenario list of a campaign: `count` scenarios
/// derived from `seed`, cycling through crosspoint-only, flap-only and
/// combined fault flavours with varied budgets, windows and loads.
/// `smoke` shortens the loaded phase so a CI campaign stays in seconds.
pub fn campaign_scenarios(seed: u64, count: usize, smoke: bool) -> Vec<ChaosScenario> {
    let mut state = seed ^ 0xCAFE_F00D;
    (0..count)
        .map(|k| {
            let r = splitmix64(state);
            state = state.wrapping_add(SPLITMIX64_GAMMA);
            let mut sc = ChaosScenario {
                seed: seed.wrapping_add(k as u64).wrapping_mul(2).wrapping_add(1),
                slots: if smoke { 1_200 } else { 4_000 },
                // Integer hundredths so the spec renders as `0.4`, not
                // an accumulated-error float like `0.39999999999999997`.
                load: (35 + 5 * (r % 8)) as f64 / 100.0,
                retry_budget: ((r >> 8) % 5) as u32,
                quarantine: [50, 100, 200][(r >> 16) as usize % 3],
                ..ChaosScenario::default()
            };
            match (r >> 32) % 3 {
                0 | 2 => {
                    sc.crosspoint_faults = 1 + (r >> 40) as usize % 3;
                    sc.crosspoint_at = sc.slots / 8 + (r >> 48) % (sc.slots / 4);
                    sc.crosspoint_duration = if (r >> 56).is_multiple_of(4) {
                        u64::MAX // permanent: exercises the drop path
                    } else {
                        50 + (r >> 57) % 350
                    };
                }
                _ => {}
            }
            if (r >> 32) % 3 >= 1 {
                sc.flap_period = 200 + (r >> 44) % 800;
                sc.flap_duration = 10 + (r >> 52) % 70;
            }
            sc
        })
        .collect()
}

/// The deterministic buffer-pressure campaign: `count` scenarios of
/// bursty *inadmissible* load (1.1–1.6 offered) against tiny finite
/// buffers, cycling admission policies and layering egress faults on
/// top — the worst-case mix for admission accounting. Finite buffers
/// bound every backlog, so these scenarios drain and terminate like any
/// other; what they stress is the extended conservation law
/// (`admitted == delivered + reconciled + admission drops + backlog`).
pub fn buffer_pressure_scenarios(seed: u64, count: usize, smoke: bool) -> Vec<ChaosScenario> {
    let mut state = seed ^ 0xBEEF_CAFE;
    let policies = [
        AdmissionPolicy::DropTail,
        AdmissionPolicy::Pushout,
        AdmissionPolicy::FairShed,
    ];
    (0..count)
        .map(|k| {
            let r = splitmix64(state);
            state = state.wrapping_add(SPLITMIX64_GAMMA);
            let mut sc = ChaosScenario {
                seed: seed.wrapping_add(k as u64).wrapping_mul(2).wrapping_add(1),
                slots: if smoke { 800 } else { 3_000 },
                // Inadmissible by construction: 1.1 .. 1.6 in integer
                // hundredths so specs render cleanly.
                load: (110 + 10 * (r % 6)) as f64 / 100.0,
                voq_cap: [2, 4, 8][(r >> 8) as usize % 3],
                input_cap: [8, 16, 32][(r >> 12) as usize % 3],
                admission: policies[k % policies.len()],
                retry_budget: ((r >> 16) % 3) as u32,
                quarantine: [40, 80][(r >> 20) as usize % 2],
                ..ChaosScenario::default()
            };
            // Every other scenario also takes egress faults, so pushout
            // and requeue interleave with admission sheds.
            if k % 2 == 1 {
                sc.crosspoint_faults = 1 + (r >> 24) as usize % 2;
                sc.crosspoint_at = sc.slots / 4;
                sc.crosspoint_duration = 60 + (r >> 28) % 200;
            }
            sc
        })
        .collect()
}

/// Shrink a failing scenario to a minimal reproducer.
///
/// Greedy delta-debugging against [`ChaosScenario::default`]: for each
/// parameter (fault knobs first) try resetting it to its default; keep
/// the reset whenever `still_fails` says the reduced scenario still
/// reproduces the failure. Passes repeat until a full pass changes
/// nothing. Returns the reduced scenario and how many oracle runs the
/// shrink spent.
pub fn shrink_scenario(
    start: &ChaosScenario,
    still_fails: impl Fn(&ChaosScenario) -> bool,
) -> (ChaosScenario, usize) {
    let base = ChaosScenario::default();
    let mut current = *start;
    let mut runs = 0usize;
    loop {
        let mut changed = false;
        for field in FIELDS {
            if current.get(field) == base.get(field) {
                continue;
            }
            let mut candidate = current;
            candidate
                .set(field, &base.get(field))
                .expect("default value round-trips");
            if candidate.validate().is_err() {
                continue;
            }
            runs += 1;
            if still_fails(&candidate) {
                current = candidate;
                changed = true;
            }
        }
        if !changed {
            return (current, runs);
        }
    }
}

/// [`shrink_scenario`] with a watchdog re-armed around *every* probe.
///
/// Shrink candidates of a wedged scenario are themselves livelock-prone
/// — often more so, since the shrink strips the faults that eventually
/// broke the livelock. Each probe therefore runs under its own
/// [`guarded`] window of `limit_millis`; a probe that panics or fails to
/// report in time counts as "still fails" (the reproducer of a hang is
/// a hang) and a timed-out probe's thread is abandoned. The unguarded
/// [`shrink_scenario`] with a raw `run_scenario` oracle must only be
/// used where the probes are known to terminate.
pub fn shrink_scenario_guarded<F>(
    start: &ChaosScenario,
    limit_millis: u64,
    probe: F,
) -> (ChaosScenario, usize)
where
    F: Fn(&ChaosScenario) -> ChaosOutcome + Clone + Send + 'static,
{
    shrink_scenario(start, move |candidate| {
        let cell = *candidate;
        let probe = probe.clone();
        guarded(Some(Duration::from_millis(limit_millis)), move || {
            Ok(probe(&cell))
        })
        .map_or(true, |out| out.failed())
    })
}

/// Checkpoint-file fault modes the corruption campaign injects between a
/// simulated crash and its recovery (DESIGN.md §15).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckpointFault {
    /// The newest checkpoint file is cut mid-payload (a torn write that
    /// somehow bypassed the atomic temp+rename, e.g. filesystem loss).
    TornWrite,
    /// One byte of the newest checkpoint is flipped (media corruption).
    BitFlip,
    /// The newest checkpoint is truncated to a few header bytes.
    Truncation,
    /// A stale `.tmp` from a crashed atomic write litters the directory
    /// (the checkpoints themselves stay valid; startup must sweep it).
    StaleTmp,
}

impl CheckpointFault {
    /// Every mode, in campaign order.
    pub const ALL: [CheckpointFault; 4] = [
        CheckpointFault::TornWrite,
        CheckpointFault::BitFlip,
        CheckpointFault::Truncation,
        CheckpointFault::StaleTmp,
    ];

    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            CheckpointFault::TornWrite => "torn-write",
            CheckpointFault::BitFlip => "bit-flip",
            CheckpointFault::Truncation => "truncation",
            CheckpointFault::StaleTmp => "stale-tmp",
        }
    }
}

/// Verdict of one corruption-campaign cell.
#[derive(Clone, Debug)]
pub struct CorruptionOutcome {
    /// The fault injected.
    pub fault: CheckpointFault,
    /// Checkpoint sequence the recovery actually restored from.
    pub resumed_seq: Option<u64>,
    /// Sequence it *should* restore from (the previous valid checkpoint
    /// for corrupting faults; the newest for the stale-tmp fault).
    pub expected_seq: u64,
    /// Whether the resumed run completed without error.
    pub recovered: bool,
    /// Whether the resumed run's results are bit-identical to the
    /// uninterrupted reference run.
    pub bit_identical: bool,
    /// Failure detail, when any check failed.
    pub detail: Option<String>,
}

impl CorruptionOutcome {
    /// Whether the cell proved the fallback it was meant to prove.
    pub fn ok(&self) -> bool {
        self.recovered && self.bit_identical && self.resumed_seq == Some(self.expected_seq)
    }
}

/// Workload + kill geometry of every corruption cell: 1 200 slots with a
/// checkpoint every 300, killed at slot 1 000 — so checkpoints seq 1–3
/// exist at the crash and seq 3 (the newest) is the corruption target,
/// leaving seq 2 in the *other* rotation file as the fallback.
const CORRUPTION_SLOTS: u64 = 1_200;
const CORRUPTION_EVERY: u64 = 300;
const CORRUPTION_KILL: u64 = 1_000;

fn corruption_run(
    seed: u64,
    dir: &std::path::Path,
    kill: Option<u64>,
    resume: bool,
) -> Result<crate::engine::RunResult, SimError> {
    let cfg = crate::engine::RunConfig {
        slots: CORRUPTION_SLOTS,
        warmup: CORRUPTION_SLOTS / 4,
        backlog_cap: 100_000,
        sample_every: 50,
    };
    let ck = crate::recover::CheckpointConfig {
        dir: dir.to_path_buf(),
        every: CORRUPTION_EVERY,
    };
    let mut rec = if resume {
        crate::recover::RecoveryRuntime::open(&ck)?
    } else {
        crate::recover::RecoveryRuntime::fresh(&ck)?
    };
    if let Some(slot) = kill {
        rec.kill_at(slot);
    }
    let mut switch = MulticastVoqSwitch::new(8, seed);
    let mut traffic = TrafficKind::Bernoulli { p: 0.3, b: CHAOS_B }.try_build(8, seed ^ 0x5a5a)?;
    crate::engine::try_simulate_recoverable(
        &mut switch,
        traffic.as_mut(),
        &cfg,
        &mut crate::engine::Observer::none(),
        &mut rec,
    )
}

fn inject_checkpoint_fault(dir: &std::path::Path, fault: CheckpointFault) -> std::io::Result<()> {
    // Seq 3 (newest, odd) lives in checkpoint-b.bin.
    let newest = dir.join("checkpoint-b.bin");
    match fault {
        CheckpointFault::TornWrite => {
            let bytes = std::fs::read(&newest)?;
            std::fs::write(&newest, &bytes[..bytes.len() / 2])
        }
        CheckpointFault::BitFlip => {
            let mut bytes = std::fs::read(&newest)?;
            let mid = bytes.len() / 2;
            if let Some(b) = bytes.get_mut(mid) {
                *b ^= 0x20;
            }
            std::fs::write(&newest, &bytes)
        }
        CheckpointFault::Truncation => {
            let bytes = std::fs::read(&newest)?;
            std::fs::write(&newest, &bytes[..bytes.len().min(10)])
        }
        CheckpointFault::StaleTmp => {
            std::fs::write(dir.join("checkpoint-b.bin.tmp"), b"half-written garbage")
        }
    }
}

/// Run the checkpoint-corruption campaign: for each [`CheckpointFault`],
/// crash a checkpointed run between checkpoints, inject the fault, and
/// verify recovery falls back to the expected checkpoint and reproduces
/// the uninterrupted run bit-for-bit.
pub fn run_corruption_campaign(seed: u64, base_dir: &std::path::Path) -> Vec<CorruptionOutcome> {
    let mut outcomes = Vec::with_capacity(CheckpointFault::ALL.len());
    // One uninterrupted reference run shared by every cell.
    let ref_dir = base_dir.join("reference");
    let _ = std::fs::remove_dir_all(&ref_dir);
    let reference = corruption_run(seed, &ref_dir, None, false);
    for fault in CheckpointFault::ALL {
        outcomes.push(run_corruption_cell(seed, base_dir, fault, reference.as_ref()));
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
    outcomes
}

fn run_corruption_cell(
    seed: u64,
    base_dir: &std::path::Path,
    fault: CheckpointFault,
    reference: Result<&crate::engine::RunResult, &SimError>,
) -> CorruptionOutcome {
    let expected_seq = match fault {
        // Corrupting faults lose the newest checkpoint (seq 3); the
        // fallback is the previous valid one in the other rotation file.
        CheckpointFault::TornWrite | CheckpointFault::BitFlip | CheckpointFault::Truncation => 2,
        // A stale tmp file must not cost any checkpoint.
        CheckpointFault::StaleTmp => 3,
    };
    let mut out = CorruptionOutcome {
        fault,
        resumed_seq: None,
        expected_seq,
        recovered: false,
        bit_identical: false,
        detail: None,
    };
    let reference = match reference {
        Ok(r) => r,
        Err(e) => {
            out.detail = Some(format!("reference run failed: {e}"));
            return out;
        }
    };
    let dir = base_dir.join(fault.name());
    let _ = std::fs::remove_dir_all(&dir);
    match corruption_run(seed, &dir, Some(CORRUPTION_KILL), false) {
        Err(SimError::Killed { .. }) => {}
        Err(e) => {
            out.detail = Some(format!("crash phase failed unexpectedly: {e}"));
            return out;
        }
        Ok(_) => {
            out.detail = Some("crash phase completed instead of dying".to_string());
            return out;
        }
    }
    if let Err(e) = inject_checkpoint_fault(&dir, fault) {
        out.detail = Some(format!("fault injection failed: {e}"));
        return out;
    }
    // Peek at what the resume will find, then run it for real.
    let ck = crate::recover::CheckpointConfig {
        dir: dir.clone(),
        every: CORRUPTION_EVERY,
    };
    match crate::recover::RecoveryRuntime::open(&ck) {
        Ok(rec) => out.resumed_seq = rec.resume_info().map(|i| i.seq),
        Err(e) => {
            out.detail = Some(format!("recovery open failed: {e}"));
            return out;
        }
    }
    match corruption_run(seed, &dir, None, true) {
        Ok(result) => {
            out.recovered = true;
            out.bit_identical = result.packets_admitted == reference.packets_admitted
                && result.copies_delivered == reference.copies_delivered
                && result.slots_run == reference.slots_run
                && result.throughput.to_bits() == reference.throughput.to_bits()
                && result.delay.mean_output_oriented.to_bits()
                    == reference.delay.mean_output_oriented.to_bits()
                && result.occupancy.mean.to_bits() == reference.occupancy.mean.to_bits();
            if !out.bit_identical {
                out.detail = Some("recovered results diverge from reference".to_string());
            }
        }
        Err(e) => {
            out.detail = Some(format!("recovery run failed: {e}"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifoms_fabric::Backlog;
    use fifoms_obs::RecordingSink;
    use fifoms_types::Packet;
    use std::sync::Arc;

    #[test]
    fn scenario_spec_roundtrips() {
        let sc = ChaosScenario {
            crosspoint_faults: 2,
            crosspoint_duration: u64::MAX,
            retry_budget: 1,
            ..ChaosScenario::default()
        };
        let spec = sc.cli_spec();
        assert_eq!(
            spec,
            "crosspoint_faults=2,crosspoint_duration=never,retry_budget=1"
        );
        assert_eq!(ChaosScenario::parse(&spec).unwrap(), sc);
        assert_eq!(ChaosScenario::parse("").unwrap(), ChaosScenario::default());
    }

    #[test]
    fn scenario_parse_rejects_nonsense() {
        for bad in [
            "n=1",
            "load=0",
            "load=1.5",
            "slots=0",
            "wibble=3",
            "n",
            "flap_period=10,flap_duration=10",
        ] {
            assert!(ChaosScenario::parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn campaign_is_deterministic_and_varied() {
        let a = campaign_scenarios(7, 8, true);
        let b = campaign_scenarios(7, 8, true);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert!(a.iter().any(|s| s.crosspoint_faults > 0));
        assert!(a.iter().any(|s| s.flap_period > 0));
        let c = campaign_scenarios(8, 8, true);
        assert_ne!(a, c, "different seeds must give different campaigns");
        for sc in a.iter().chain(&c) {
            sc.validate().expect("generated scenario invalid");
        }
    }

    #[test]
    fn default_scenario_runs_clean_without_faults() {
        let out = run_scenario(&ChaosScenario {
            slots: 400,
            ..ChaosScenario::default()
        });
        assert!(!out.failed(), "{out:?}");
        assert_eq!(out.fault_stats.copies_killed, 0);
        assert_eq!(out.recovery.copies_killed, 0);
        assert_eq!(out.unreconciled, 0);
        assert_eq!(out.delivered_copies, out.admitted_copies);
    }

    #[test]
    fn transient_crosspoint_fault_recovers_without_loss() {
        let out = run_scenario(
            &ChaosScenario::parse("slots=600,crosspoint_faults=2,crosspoint_at=100,crosspoint_duration=80,quarantine=50")
                .unwrap(),
        );
        assert!(!out.failed(), "{out:?}");
        assert!(out.fault_stats.copies_killed > 0, "fault never fired");
        assert!(out.recovery.copies_recovered > 0, "nothing recovered");
        assert_eq!(out.unreconciled, 0);
    }

    #[test]
    fn permanent_fault_escalates_to_reconciled_drops() {
        let out = run_scenario(
            &ChaosScenario::parse(
                "slots=600,crosspoint_faults=2,crosspoint_at=50,crosspoint_duration=never,retry_budget=1,quarantine=40",
            )
            .unwrap(),
        );
        assert!(!out.failed(), "{out:?}");
        assert!(out.reconciled_drops > 0, "no drops despite permanent fault");
        assert_eq!(
            out.admitted_copies,
            out.delivered_copies + out.reconciled_drops,
            "conservation with drops"
        );
        assert!(out.recovery.copies_lost > 0);
    }

    #[test]
    fn telemetry_is_read_only_and_its_windows_sum_to_the_outcome() {
        // chaos#0 of `fifoms-repro chaos --smoke --seed 2026`.
        let sc = campaign_scenarios(2026, 1, true)[0];
        let plain = run_scenario(&sc);
        let series = Arc::new(RecordingSink::new());
        let spec = TelemetrySpec {
            series: Some(series.clone()),
            bus: None,
            window: 200,
        };
        let observed = run_scenario_observed(&sc, Some(&spec), "chaos#0");
        assert_eq!(format!("{plain:?}"), format!("{observed:?}"));

        let (mut delivered, mut kills, mut recoveries) = (0u64, 0u64, 0u64);
        for (_, event) in series.events() {
            if let ObsEvent::WindowSummary {
                delivered_copies,
                copy_kills,
                copy_recoveries,
                ..
            } = event
            {
                delivered += delivered_copies;
                kills += copy_kills;
                recoveries += copy_recoveries;
            }
        }
        assert_eq!(
            (delivered, kills, recoveries),
            (
                observed.delivered_copies,
                observed.recovery.copies_killed,
                observed.recovery.copies_recovered
            )
        );
        assert_eq!((delivered, kills, recoveries), (5900, 248, 246));
    }

    #[test]
    fn smoke_campaign_is_clean_on_the_real_stack() {
        for sc in campaign_scenarios(42, 4, true) {
            let out = run_scenario(&sc);
            assert!(!out.failed(), "scenario {} failed: {out:?}", sc.cli_spec());
        }
    }

    /// A core switch with a deliberately seeded invariant bug: once
    /// crosspoint kills start requeueing copies, it "helpfully" serves
    /// the requeued copy a second time (duplicate delivery), which the
    /// outside checker must flag as a fanout overrun.
    struct DoubleRetry {
        inner: MulticastVoqSwitch,
        dup: Option<fifoms_types::Departure>,
    }

    impl Switch for DoubleRetry {
        fn name(&self) -> String {
            "double-retry".into()
        }
        fn ports(&self) -> usize {
            self.inner.ports()
        }
        fn admit(&mut self, packet: Packet) {
            self.inner.admit(packet);
        }
        fn run_slot(&mut self, now: Slot) -> SlotOutcome {
            let mut out = self.inner.run_slot(now);
            if let Some(d) = self.dup.take() {
                out.departures.push(d);
                out.connections += 1;
            }
            out
        }
        fn queue_sizes(&self, out: &mut Vec<usize>) {
            self.inner.queue_sizes(out);
        }
        fn backlog(&self) -> Backlog {
            self.inner.backlog()
        }
        fn copy_failed(
            &mut self,
            d: &fifoms_types::Departure,
            now: Slot,
            requeue: bool,
        ) -> fifoms_types::RetryDisposition {
            self.dup = Some(*d); // the bug: replay the killed copy
            self.inner.copy_failed(d, now, requeue)
        }
    }

    #[test]
    fn buffer_pressure_campaign_is_deterministic_and_inadmissible() {
        let a = buffer_pressure_scenarios(3, 6, true);
        assert_eq!(a, buffer_pressure_scenarios(3, 6, true));
        assert_eq!(a.len(), 6);
        for sc in &a {
            sc.validate().expect("generated scenario invalid");
            assert!(sc.load > 1.0, "pressure scenarios must be inadmissible");
            assert!(sc.buffer_config().is_bounded());
        }
        assert!(a.iter().any(|s| s.admission == AdmissionPolicy::Pushout));
        assert!(a.iter().any(|s| s.crosspoint_faults > 0));
    }

    #[test]
    fn buffer_pressure_cells_prove_the_extended_law() {
        for sc in buffer_pressure_scenarios(11, 3, true) {
            let out = run_scenario(&sc);
            assert!(!out.failed(), "scenario {} failed: {out:?}", sc.cli_spec());
            assert!(
                out.admission_drops > 0,
                "inadmissible load on tiny buffers must shed: {}",
                sc.cli_spec()
            );
            assert_eq!(
                out.admitted_copies,
                out.delivered_copies + out.reconciled_drops + out.admission_drops,
                "drained run must balance exactly: {out:?}"
            );
        }
    }

    #[test]
    fn bounded_scenarios_may_offer_inadmissible_load() {
        assert!(ChaosScenario::parse("load=1.4").is_err(), "unbounded stays <= 1");
        let sc = ChaosScenario::parse("load=1.4,voq_cap=4,admission=pushout").unwrap();
        assert_eq!(sc.admission, AdmissionPolicy::Pushout);
        let spec = sc.cli_spec();
        assert_eq!(spec, "voq_cap=4,admission=pushout,load=1.4");
        assert_eq!(ChaosScenario::parse(&spec).unwrap(), sc);
        assert!(
            ChaosScenario::parse("voq_cap=4,load=2.5").is_err(),
            "even bounded loads stop at min(2, b*n)"
        );
        assert!(ChaosScenario::parse("admission=sometimes").is_err());
    }

    #[test]
    fn guarded_shrink_rearms_the_watchdog_on_every_probe() {
        // Regression: the shrink oracle used to call run_scenario
        // unguarded, so a shrink candidate that wedged hung the whole
        // delta-debug loop even though the original cell had a watchdog.
        // Here *every* probe wedges far longer than the limit; the shrink
        // must still terminate in bounded time, counting each timed-out
        // probe as "still fails" and reducing all the way to the default.
        let start = ChaosScenario {
            crosspoint_faults: 1,
            crosspoint_at: 500,
            crosspoint_duration: 100,
            retry_budget: 2,
            ..ChaosScenario::default()
        };
        let began = std::time::Instant::now();
        let (min, runs) = shrink_scenario_guarded(&start, 40, |_| {
            std::thread::sleep(std::time::Duration::from_millis(5_000));
            run_scenario(&ChaosScenario {
                slots: 10,
                ..ChaosScenario::default()
            })
        });
        assert!(runs > 0);
        assert_eq!(min, ChaosScenario::default());
        assert!(
            began.elapsed() < std::time::Duration::from_millis(4_000),
            "shrink blocked on a wedged probe: {:?}",
            began.elapsed()
        );
    }

    #[test]
    fn corruption_campaign_proves_checkpoint_fallback() {
        let dir = std::env::temp_dir().join(format!(
            "fifoms-corruption-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let outcomes = run_corruption_campaign(11, &dir);
        assert_eq!(outcomes.len(), CheckpointFault::ALL.len());
        for out in &outcomes {
            assert!(
                out.ok(),
                "{} cell failed: resumed from {:?} (expected {}), {}",
                out.fault.name(),
                out.resumed_seq,
                out.expected_seq,
                out.detail.as_deref().unwrap_or("no detail")
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A stack with a deliberately seeded *accounting* bug: the first
    /// admission-drop record the finite-buffered core produces is
    /// swallowed instead of surfaced, so one shed copy vanishes from
    /// the ledger and the extended conservation law cannot balance.
    struct LeakyAdmission {
        inner: MulticastVoqSwitch,
        leaked: bool,
    }

    impl Switch for LeakyAdmission {
        fn name(&self) -> String {
            "leaky-admission".into()
        }
        fn ports(&self) -> usize {
            self.inner.ports()
        }
        fn admit(&mut self, packet: Packet) {
            self.inner.admit(packet);
        }
        fn run_slot(&mut self, now: Slot) -> SlotOutcome {
            self.inner.run_slot(now)
        }
        fn queue_sizes(&self, out: &mut Vec<usize>) {
            self.inner.queue_sizes(out);
        }
        fn backlog(&self) -> Backlog {
            self.inner.backlog()
        }
        fn copy_failed(
            &mut self,
            d: &fifoms_types::Departure,
            now: Slot,
            requeue: bool,
        ) -> fifoms_types::RetryDisposition {
            self.inner.copy_failed(d, now, requeue)
        }
        fn drain_admission_drops(&mut self, out: &mut Vec<AdmissionDrop>) {
            let before = out.len();
            self.inner.drain_admission_drops(out);
            if !self.leaked && out.len() > before {
                out.remove(before); // the bug: one record vanishes
                self.leaked = true;
            }
        }
    }

    #[test]
    fn leaked_admission_accounting_shrinks_to_a_minimal_reproducer() {
        let fails = |sc: &ChaosScenario| {
            let core = MulticastVoqSwitch::new(sc.n, sc.seed).with_buffers(sc.buffer_config());
            let out = run_scenario_on(
                sc,
                LeakyAdmission {
                    inner: core,
                    leaked: false,
                },
            );
            out.failed()
        };
        // An over-specified buffer-pressure scenario carrying the bug.
        let start = ChaosScenario::parse(
            "seed=9,slots=900,load=1.4,voq_cap=2,input_cap=16,admission=pushout,\
             crosspoint_faults=1,crosspoint_at=100,crosspoint_duration=200,\
             retry_budget=2,quarantine=50,flap_period=400,flap_duration=30",
        )
        .unwrap();
        assert!(fails(&start), "seeded accounting bug did not trigger");
        let (min, runs) = shrink_scenario(&start, fails);
        assert!(fails(&min), "shrunk scenario no longer reproduces");
        let params = min.non_default_params();
        assert!(
            params.len() <= 3,
            "reproducer has {} params ({}), ran {} probes",
            params.len(),
            min.cli_spec(),
            runs
        );
        // The bug needs a finite buffer to shed at all, so a cap
        // survives; the fault knobs are irrelevant and must shrink away.
        assert!(min.voq_cap > 0 || min.input_cap > 0);
        assert_eq!(min.crosspoint_faults, 0);
        assert_eq!(min.flap_period, 0);
    }

    #[test]
    fn the_first_violation_ends_the_run() {
        let sc = ChaosScenario::parse(
            "seed=5,slots=800,load=0.5,crosspoint_faults=2,crosspoint_at=100,\
             crosspoint_duration=300,retry_budget=4,quarantine=60",
        )
        .unwrap();
        let core = MulticastVoqSwitch::new(sc.n, sc.seed);
        let out = run_scenario_on(
            &sc,
            DoubleRetry {
                inner: core,
                dup: None,
            },
        );
        assert!(
            out.violation.is_some(),
            "seeded bug did not trigger: {out:?}"
        );
        assert!(
            out.slots_run < sc.slots,
            "the run went on for {} slots after its violation",
            out.slots_run
        );
    }

    #[test]
    fn seeded_bug_is_caught_and_shrinks_to_three_params() {
        let fails = |sc: &ChaosScenario| {
            let core = MulticastVoqSwitch::new(sc.n, sc.seed);
            let out = run_scenario_on(sc, DoubleRetry { inner: core, dup: None });
            out.failed()
        };
        // A deliberately over-specified failing scenario.
        let start = ChaosScenario::parse(
            "seed=5,slots=800,load=0.5,crosspoint_faults=2,crosspoint_at=100,\
             crosspoint_duration=300,retry_budget=4,quarantine=60,flap_period=500,\
             flap_duration=40",
        )
        .unwrap();
        assert!(fails(&start), "seeded bug did not trigger");
        let (min, runs) = shrink_scenario(&start, fails);
        assert!(fails(&min), "shrunk scenario no longer reproduces");
        let params = min.non_default_params();
        assert!(
            params.len() <= 3,
            "reproducer has {} params ({}), ran {} probes",
            params.len(),
            min.cli_spec(),
            runs
        );
        // The bug needs egress kills, so the crosspoint knobs survive.
        assert!(min.crosspoint_faults > 0);
        assert_eq!(min.flap_period, 0, "irrelevant flap knobs must shrink away");
    }
}

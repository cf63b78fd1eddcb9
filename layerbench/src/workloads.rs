//! The three workloads, their switch stacks, and one repetition of each.
//!
//! Every repetition of a workload simulates the same fixed number of slots
//! from the same seed, so repetitions are true repeats: host time is the
//! only thing that may differ between them, and their `RunResult`s must
//! be identical.

use std::fs;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use fifoms_core::MulticastVoqSwitch;
use fifoms_fabric::{
    CheckedSwitch, FaultConfig, FaultMode, FaultStats, FaultyFabric, InstrumentedSwitch, Switch,
};
use fifoms_obs::{Json, SnapshotBus, Telemetry};
use fifoms_sim::{
    try_simulate, try_simulate_recoverable, CheckpointConfig, CheckpointStore, Observer,
    RecoveryRuntime, RunConfig, RunResult, TelemetryChannel, TrafficKind, WalWriter,
};
use fifoms_types::{SimError, Slot};

use crate::layers::{
    hol_probe, Mode, Shim, Tracer, TrafficShim, CHECKED, CORE, FAULTY, INSTRUMENTED,
};

/// The seed whose `RunResult`s are pinned in [`pinned`].
pub const DEFAULT_SEED: u64 = 1;

/// campaign-n8 runs at `ChaosScenario::default()`: N=8, Bernoulli
/// multicast with b=0.25 at load 0.6, scoreboard quarantine 200 slots.
const CAMPAIGN_LOAD: f64 = 0.6;
const CAMPAIGN_B: f64 = 0.25;
const CAMPAIGN_QUARANTINE: u64 = 200;
/// Telemetry window of the README's chaos example.
pub const TELEMETRY_WINDOW: u64 = 500;
/// `fifoms-repro serve`'s default checkpoint interval.
pub const CHECKPOINT_EVERY: u64 = 10_000;

/// `FaultConfig::egress(seed)` as defined when the benchmark was written,
/// spelled out so a later change to that constructor cannot silently
/// change the workload: every output flaps down 50 of every 1000 slots,
/// two crosspoints fail at slot 500 for 2000 slots, faults strike in
/// flight, and a killed copy is retried up to 3 times.
fn campaign_faults(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        flap_period: 1_000,
        flap_duration: 50,
        crosspoint_faults: 2,
        crosspoint_at: 500,
        crosspoint_duration: 2_000,
        mode: FaultMode::Egress,
        retry_budget: 3,
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    BernoulliN64,
    BurstN16,
    CampaignN8,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BernoulliN64,
        Workload::BurstN16,
        Workload::CampaignN8,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BernoulliN64 => "bernoulli-n64",
            Workload::BurstN16 => "burst-n16",
            Workload::CampaignN8 => "campaign-n8",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn ports(self) -> usize {
        match self {
            Workload::BernoulliN64 => 64,
            Workload::BurstN16 => 16,
            Workload::CampaignN8 => 8,
        }
    }

    /// Slots per repetition: one to three seconds of host time at this
    /// commit. Long enough that the slowest 0.1% of slots span several of
    /// the workload's congestion episodes, so the tail depends little on
    /// the seed; short enough that a 30 s run holds at least one block of
    /// repetitions for the per-slot minimum.
    pub fn slots(self) -> u64 {
        match self {
            Workload::BernoulliN64 => 48_000,
            Workload::BurstN16 => 192_000,
            Workload::CampaignN8 => 80_000,
        }
    }

    /// Offered load per output (effective load).
    pub fn load(self) -> f64 {
        match self {
            Workload::BernoulliN64 => 0.9,
            Workload::BurstN16 => 0.8,
            Workload::CampaignN8 => CAMPAIGN_LOAD,
        }
    }

    pub fn traffic(self) -> TrafficKind {
        let (n, load) = (self.ports(), self.load());
        match self {
            Workload::BernoulliN64 => TrafficKind::bernoulli_at_load(load, 0.2, n),
            Workload::BurstN16 => TrafficKind::burst_at_load(load, 16.0, 0.5, n),
            Workload::CampaignN8 => TrafficKind::bernoulli_at_load(load, CAMPAIGN_B, n),
        }
    }

    pub fn run_config(self) -> RunConfig {
        RunConfig::paper(self.slots())
    }

    pub fn is_campaign(self) -> bool {
        self == Workload::CampaignN8
    }

    /// Every parameter that defines the workload, for the result record.
    pub fn provenance(self, seeds: &Seeds) -> Json {
        let cfg = self.run_config();
        let mut traffic = Json::object();
        match self.traffic() {
            TrafficKind::Bernoulli { p, b } => {
                traffic.set("model", "bernoulli");
                traffic.set("p", p);
                traffic.set("b", b);
            }
            TrafficKind::Burst { e_off, e_on, b } => {
                traffic.set("model", "burst");
                traffic.set("e_off", e_off);
                traffic.set("e_on", e_on);
                traffic.set("b", b);
            }
            other => {
                traffic.set("model", format!("{other:?}"));
            }
        }
        traffic.set("load", self.load());
        let mut seed_obj = Json::object();
        seed_obj.set("workload", seeds.workload);
        // Derived seeds use all 64 bits; strings keep them exact in JSON.
        seed_obj.set("switch", seeds.switch.to_string());
        seed_obj.set("traffic", seeds.traffic.to_string());
        seed_obj.set("fault", seeds.fault.to_string());
        let mut doc = Json::object();
        doc.set("workload", self.name());
        doc.set("seed", seeds.workload);
        doc.set("seeds", seed_obj);
        doc.set("n", self.ports() as u64);
        doc.set("traffic", traffic);
        doc.set("slots_per_rep", cfg.slots);
        doc.set("warmup", cfg.warmup);
        doc.set("backlog_cap", cfg.backlog_cap as u64);
        doc.set("scheduler", "FIFOMS (FifomsConfig::default)");
        if self.is_campaign() {
            let f = campaign_faults(seeds.fault);
            let mut fault = Json::object();
            fault.set("mode", "egress");
            fault.set("seed", f.seed.to_string());
            fault.set("flap_period", f.flap_period);
            fault.set("flap_duration", f.flap_duration);
            fault.set("crosspoint_faults", f.crosspoint_faults as u64);
            fault.set("crosspoint_at", f.crosspoint_at);
            fault.set("crosspoint_duration", f.crosspoint_duration);
            fault.set("retry_budget", u64::from(f.retry_budget));
            fault.set("event_recording", true);
            doc.set(
                "stack",
                "CheckedSwitch>FaultyFabric>InstrumentedSwitch>FIFOMS",
            );
            doc.set("fault", fault);
            doc.set("quarantine_slots", CAMPAIGN_QUARANTINE);
            doc.set("telemetry_window", TELEMETRY_WINDOW);
            doc.set("checkpoint_every", CHECKPOINT_EVERY);
            doc.set("entry", "try_simulate_recoverable");
        } else {
            doc.set("stack", "FIFOMS");
            doc.set("fault", Json::Null);
            doc.set("telemetry_window", Json::Null);
            doc.set("checkpoint_every", Json::Null);
            doc.set("entry", "try_simulate");
        }
        doc
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Component seeds, all derived from the one workload seed.
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    pub workload: u64,
    pub switch: u64,
    pub traffic: u64,
    pub fault: u64,
}

impl Seeds {
    pub fn derive(workload: u64) -> Seeds {
        Seeds {
            workload,
            switch: splitmix64(workload ^ 0x5717_C400_0000_0001),
            traffic: splitmix64(workload ^ 0x7AFF_1C00_0000_0002),
            fault: splitmix64(workload ^ 0xFA17_0000_0000_0003),
        }
    }
}

/// Every `RunResult` field, floats at full precision: two results are
/// bit-identical exactly when these strings are equal.
pub fn canonical(r: &RunResult) -> String {
    let d = &r.delay;
    let o = &r.occupancy;
    format!(
        "switch={};traffic={};load={:?};params={:?};delay_in={:?};delay_out={:?};\
         delay_p99={:?};delay_max={:?};completed={};delivered={};occ_mean={:?};occ_max={};\
         occ_slots={};rounds={:?};verdict={:?};slots={};packets={};copies={};throughput={:?}",
        r.switch_name,
        r.traffic_name,
        r.offered_load,
        r.workload,
        d.mean_input_oriented,
        d.mean_output_oriented,
        d.p99_output,
        d.max_output,
        d.completed_packets,
        d.delivered_copies,
        o.mean,
        o.max,
        o.slots_sampled,
        r.mean_rounds,
        r.verdict,
        r.slots_run,
        r.packets_admitted,
        r.copies_delivered,
        r.throughput,
    )
}

/// [`canonical`] of each workload's `RunResult` at [`DEFAULT_SEED`], as
/// produced by the simulator when the benchmark was written.
pub fn pinned(w: Workload) -> &'static str {
    match w {
        Workload::BernoulliN64 => {
            "switch=FIFOMS;traffic=bernoulli(p=0.0703,b=0.20);load=Some(0.9);\
             params=[(\"p\", 0.0703125), (\"b\", 0.2)];delay_in=14.907237371355665;\
             delay_out=6.091219850910262;delay_p99=Some(25);delay_max=Some(48);\
             completed=108147;delivered=1383997;occ_mean=1.0495384114583524;occ_max=10;\
             occ_slots=24000;rounds=2.320041666666664;verdict=Stable;slots=48000;\
             packets=215910;copies=1383997;throughput=0.9010397135416667"
        }
        Workload::BurstN16 => {
            "switch=FIFOMS;traffic=burst(Eoff=144.0,Eon=16.0,b=0.50);load=Some(0.8);\
             params=[(\"e_off\", 144.0), (\"e_on\", 16.0), (\"b\", 0.5)];\
             delay_in=152.19586823292153;delay_out=97.82059863983102;delay_p99=Some(358);\
             delay_max=Some(526);completed=154849;delivered=1243519;\
             occ_mean=15.336498697916781;occ_max=163;occ_slots=96000;\
             rounds=3.2269505766922584;verdict=Stable;slots=192000;packets=307643;\
             copies=1243519;throughput=0.8095826822916666"
        }
        Workload::CampaignN8 => {
            "switch=FIFOMS;traffic=bernoulli(p=0.3000,b=0.25);load=Some(0.6);\
             params=[(\"p\", 0.3), (\"b\", 0.25)];delay_in=99.60239524722596;\
             delay_out=63.16634365709617;delay_p99=Some(202);delay_max=Some(241);\
             completed=95439;delivered=212584;occ_mean=29.69128437499947;occ_max=69;\
             occ_slots=40000;rounds=3.2744818620465446;verdict=Stable;slots=80000;\
             packets=191589;copies=212584;throughput=0.664325"
        }
    }
}

/// Newest checkpoint sequence a run of `slots` slots writes: checkpoints
/// fall at the top of every slot `t > 0` with `t % every == 0`.
pub fn newest_checkpoint_seq(slots: u64) -> u64 {
    slots.saturating_sub(1) / CHECKPOINT_EVERY
}

/// What campaign-n8 leaves behind beyond the `RunResult`.
pub struct CampaignEnd {
    pub violation: Option<String>,
    pub faults: FaultStats,
    pub bus_write_errors: u64,
    /// Checkpoint seq `RecoveryRuntime::open` resumes from.
    pub resumed_seq: Result<Option<u64>, String>,
}

/// The counted repetition's end state, kept for timing the layers the
/// engine calls directly (checkpoint store, WAL, snapshot bus).
pub struct Retained {
    pub stack: Box<dyn Switch>,
    pub telemetry: Telemetry,
    pub dir: PathBuf,
}

pub struct Rep {
    pub result: Result<RunResult, SimError>,
    pub tracer: Rc<Tracer>,
    /// Host ns from the start of set-up to the first slot.
    pub setup_ns: u64,
    /// Copies still queued, reconciled (egress) drops and admission drops
    /// at the end of the run, read through the outermost boundary.
    pub backlog: u64,
    pub reconciled_drops: u64,
    pub admission_drops: u64,
    pub campaign: Option<CampaignEnd>,
    pub retained: Option<Retained>,
}

/// Campaign stack accessors, for both the bare and the shimmed stack.
trait CampaignStack: Switch {
    fn violation_text(&self) -> Option<String>;
    fn fault_stats(&self) -> FaultStats;
}

type Campaign = CheckedSwitch<FaultyFabric<InstrumentedSwitch<MulticastVoqSwitch>>>;
type ShimmedCampaign =
    Shim<CheckedSwitch<Shim<FaultyFabric<Shim<InstrumentedSwitch<Shim<MulticastVoqSwitch>>>>>>>;

impl CampaignStack for Campaign {
    fn violation_text(&self) -> Option<String> {
        self.violation().map(ToString::to_string)
    }
    fn fault_stats(&self) -> FaultStats {
        self.inner().stats()
    }
}

impl CampaignStack for ShimmedCampaign {
    fn violation_text(&self) -> Option<String> {
        self.inner().violation().map(ToString::to_string)
    }
    fn fault_stats(&self) -> FaultStats {
        self.inner().inner().inner().stats()
    }
}

/// Options of one repetition.
pub struct RepSpec<'a> {
    pub workload: Workload,
    pub seeds: &'a Seeds,
    pub mode: Mode,
    /// Fresh state directory (campaign only); removed after the run unless
    /// retained.
    pub dir: PathBuf,
    /// Self-test: the outermost shim drops one departure after warmup.
    pub sabotage: bool,
    /// Keep the end state for [`cost_end_state`] (campaign, counted).
    pub retain: bool,
    /// Plain mode: the block's per-slot minimum host ns (see [`Tracer::new`]).
    pub slot_min: Vec<u32>,
}

fn shim_core(core: MulticastVoqSwitch, tracer: &Rc<Tracer>) -> Shim<MulticastVoqSwitch> {
    Shim::new(core, CORE, tracer).with_probe(hol_probe)
}

fn sabotage_slot(spec: &RepSpec<'_>) -> Slot {
    Slot(spec.workload.run_config().warmup)
}

/// Read the run's end state through the outermost boundary. The tracer is
/// disarmed by now, so these calls are not recorded.
fn end_state(rep: &mut Rep, sw: &mut dyn Switch) {
    rep.backlog = sw.backlog().copies as u64;
    let mut drops = Vec::new();
    sw.drain_reconciled_drops(&mut drops);
    rep.reconciled_drops = drops.len() as u64;
    let mut adrops = Vec::new();
    sw.drain_admission_drops(&mut adrops);
    rep.admission_drops = adrops.len() as u64;
}

pub fn run_rep(mut spec: RepSpec<'_>) -> Rep {
    let w = spec.workload;
    let tracer = Tracer::new(spec.mode, w.ports(), std::mem::take(&mut spec.slot_min));
    let mut rep = Rep {
        result: Err(SimError::Usage("not run".into())),
        tracer: Rc::clone(&tracer),
        setup_ns: 0,
        backlog: 0,
        reconciled_drops: 0,
        admission_drops: 0,
        campaign: None,
        retained: None,
    };
    let start = Instant::now();
    if w.is_campaign() {
        run_campaign(&spec, &tracer, &mut rep);
    } else {
        run_bare(&spec, &tracer, &mut rep);
    }
    if let Some(first) = tracer.first_slot() {
        rep.setup_ns = first.saturating_duration_since(start).as_nanos() as u64;
    }
    rep
}

fn run_bare(spec: &RepSpec<'_>, tracer: &Rc<Tracer>, rep: &mut Rep) {
    let w = spec.workload;
    let cfg = w.run_config();
    let inner = match w.traffic().try_build(w.ports(), spec.seeds.traffic) {
        Ok(t) => t,
        Err(e) => {
            rep.result = Err(e);
            return;
        }
    };
    let mut traffic = TrafficShim::new(inner, tracer);
    let core = MulticastVoqSwitch::new(w.ports(), spec.seeds.switch);
    let mut run = |sw: &mut dyn Switch| {
        rep.result = try_simulate(sw, &mut traffic, &cfg);
        tracer.finish(Instant::now());
        end_state(rep, sw);
    };
    if spec.mode == Mode::Plain {
        let mut sw = core;
        run(&mut sw);
    } else {
        let mut sw = shim_core(core, tracer);
        if spec.sabotage {
            sw = sw.with_sabotage(sabotage_slot(spec));
        }
        run(&mut sw);
    }
}

fn run_campaign(spec: &RepSpec<'_>, tracer: &Rc<Tracer>, rep: &mut Rep) {
    let w = spec.workload;
    let n = w.ports();
    let cfg = w.run_config();
    let ckpt = CheckpointConfig {
        dir: spec.dir.clone(),
        every: CHECKPOINT_EVERY,
    };
    let inner = match w.traffic().try_build(n, spec.seeds.traffic) {
        Ok(t) => t,
        Err(e) => {
            rep.result = Err(e);
            return;
        }
    };
    let mut traffic = TrafficShim::new(inner, tracer);
    let mut recovery = match RecoveryRuntime::fresh(&ckpt) {
        Ok(r) => r,
        Err(e) => {
            rep.result = Err(e);
            remove_dir(&spec.dir);
            return;
        }
    };
    let bus = SnapshotBus::new(
        Some(spec.dir.join("snapshot.json")),
        Some(spec.dir.join("metrics.prom")),
    );
    let mut telemetry = Telemetry::new(n, TELEMETRY_WINDOW);
    let core =
        MulticastVoqSwitch::new(n, spec.seeds.switch).with_quarantine_slots(CAMPAIGN_QUARANTINE);
    let faults = campaign_faults(spec.seeds.fault);

    let mut run = |sw: &mut dyn Switch| {
        let mut obs = Observer {
            sink: None,
            profiler: None,
            telemetry: Some(TelemetryChannel {
                telemetry: &mut telemetry,
                series: None,
                bus: Some((&bus, w.name())),
            }),
        };
        rep.result = try_simulate_recoverable(sw, &mut traffic, &cfg, &mut obs, &mut recovery);
        tracer.finish(Instant::now());
        end_state(rep, sw);
    };
    let (violation, fault_stats, stack): (_, _, Option<Box<dyn Switch>>) =
        if spec.mode == Mode::Plain {
            let mut sw: Campaign = CheckedSwitch::new(
                FaultyFabric::new(InstrumentedSwitch::new(core), faults).with_event_recording(),
            );
            run(&mut sw);
            (sw.violation_text(), sw.fault_stats(), None)
        } else {
            let instrumented = Shim::new(
                InstrumentedSwitch::new(shim_core(core, tracer)),
                INSTRUMENTED,
                tracer,
            );
            let faulty = Shim::new(
                FaultyFabric::new(instrumented, faults).with_event_recording(),
                FAULTY,
                tracer,
            );
            let mut sw: ShimmedCampaign = Shim::new(CheckedSwitch::new(faulty), CHECKED, tracer);
            if spec.sabotage {
                sw = sw.with_sabotage(sabotage_slot(spec));
            }
            run(&mut sw);
            let (violation, faults) = (sw.violation_text(), sw.fault_stats());
            (
                violation,
                faults,
                spec.retain.then(|| Box::new(sw) as Box<dyn Switch>),
            )
        };
    // Close the WAL before reopening the directory the way a restarted
    // process would.
    drop(recovery);
    let resumed_seq = RecoveryRuntime::open(&ckpt)
        .map(|r| r.resume_info().map(|i| i.seq))
        .map_err(|e| e.to_string());
    rep.campaign = Some(CampaignEnd {
        violation,
        faults: fault_stats,
        bus_write_errors: bus.write_errors(),
        resumed_seq,
    });
    match stack {
        Some(stack) => {
            rep.retained = Some(Retained {
                stack,
                telemetry,
                dir: spec.dir.clone(),
            })
        }
        None => remove_dir(&spec.dir),
    }
}

pub fn remove_dir(dir: &Path) {
    let _ = fs::remove_dir_all(dir);
}

/// Host cost of the layers the engine calls as concrete types, timed on a
/// counted repetition's end state.
#[derive(Clone, Copy, Default, Debug)]
pub struct Costs {
    pub checkpoint_ms: f64,
    pub checkpoint_bytes: f64,
    pub publish_us: f64,
    pub snapshot_bytes: f64,
    pub wal_append_ns: f64,
    pub wal_bytes_per_slot: f64,
}

fn median(mut xs: Vec<f64>) -> f64 {
    crate::stats::median(&mut xs)
}

const CHECKPOINT_SAMPLES: u64 = 9;
const PUBLISH_SAMPLES: usize = 41;
const WAL_SLOTS: u64 = 4_096;

pub fn cost_end_state(w: Workload, seeds: &Seeds, kept: &Retained) -> Result<Costs, String> {
    let dir = kept.dir.join("costing");
    let err = |e: SimError| e.to_string();
    let store = CheckpointStore::open(&dir).map_err(err)?;
    let mut ckpt_ms = Vec::new();
    let mut ckpt_bytes = 0;
    for seq in 0..CHECKPOINT_SAMPLES {
        let t0 = Instant::now();
        let blob = kept.stack.save_state().map_err(|e| e.to_string())?;
        ckpt_bytes = store.save(seq, &blob).map_err(err)?;
        ckpt_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    let snapshot = dir.join("snapshot.json");
    let prom = dir.join("metrics.prom");
    let bus = SnapshotBus::new(Some(snapshot.clone()), Some(prom.clone()));
    let mut publish_us = Vec::new();
    for _ in 0..PUBLISH_SAMPLES {
        let t0 = Instant::now();
        bus.publish(w.name(), &kept.telemetry, true);
        publish_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    if bus.write_errors() != 0 {
        return Err(format!("snapshot bus: {} write errors", bus.write_errors()));
    }
    let file_len = |p: &Path| fs::metadata(p).map(|m| m.len()).map_err(|e| e.to_string());
    let snapshot_bytes = file_len(&snapshot)? + file_len(&prom)?;

    // The same arrivals the run logged: the traffic model rebuilt from the
    // same seed regenerates them exactly.
    let mut traffic = w
        .traffic()
        .try_build(w.ports(), seeds.traffic)
        .map_err(err)?;
    let wal_path = dir.join("arrivals.wal");
    let mut wal = WalWriter::open(&wal_path).map_err(err)?;
    let mut arrivals = Vec::new();
    let mut append_ns = Vec::new();
    let slots = WAL_SLOTS.min(w.slots());
    for t in 0..slots {
        traffic.next_slot(Slot(t), &mut arrivals);
        let t0 = Instant::now();
        wal.append(t, &arrivals).map_err(err)?;
        append_ns.push(t0.elapsed().as_nanos() as f64);
    }
    drop(wal);
    let wal_bytes = file_len(&wal_path)?;

    Ok(Costs {
        checkpoint_ms: median(ckpt_ms),
        checkpoint_bytes: ckpt_bytes as f64,
        publish_us: median(publish_us),
        snapshot_bytes: snapshot_bytes as f64,
        wal_append_ns: median(append_ns),
        wal_bytes_per_slot: wal_bytes as f64 / slots as f64,
    })
}

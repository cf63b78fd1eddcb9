//! Self-profiling: where does the engine's wall time go?
//!
//! [`profile_run`] executes one `(switch, traffic)` run while sampling the
//! engine's four phases — traffic generation, admission, scheduling
//! (`run_slot`), and statistics — into a
//! [`PhaseProfiler`](fifoms_obs::PhaseProfiler). Only every `sample_every`-th
//! slot is timed, so the clock reads cannot dominate what they measure;
//! the whole-run wall clock and end-to-end slots/sec are exact.
//!
//! The profiled run takes the same engine code path as an unprofiled one
//! (profiling only adds predicted-untaken branches), so the returned
//! [`RunResult`] is bit-identical to [`try_simulate`](crate::try_simulate)
//! on the same inputs — asserted by the observability suite. This is the
//! baseline harness behind `fifoms-repro profile` and `BENCH_profile.json`:
//! future perf PRs are measured against its phase breakdown.

use std::time::Instant;

use fifoms_fabric::Switch;
use fifoms_obs::{Json, PhaseProfiler};
use fifoms_traffic::TrafficModel;
use fifoms_types::SimError;

use crate::engine::{run, Observer, RunConfig, RunResult};

/// One profiled run: the (unperturbed) measurement plus the phase timings.
#[derive(Debug)]
pub struct ProfileReport {
    /// The run's result — bit-identical to an unprofiled run.
    pub result: RunResult,
    /// Per-phase wall-clock attribution over the sampled slots.
    pub profiler: PhaseProfiler,
    /// The sampling stride that was used (every `k`-th slot timed).
    pub sample_every: u64,
    /// End-to-end wall time of the whole run, in nanoseconds (exact, not
    /// sampled).
    pub total_ns: u64,
}

impl ProfileReport {
    /// End-to-end simulation rate in slots per second.
    pub fn slots_per_sec(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.result.slots_run as f64 / (self.total_ns as f64 / 1e9)
    }

    /// Render as the `BENCH_profile.json` document (validated by
    /// `schemas/bench_profile.schema.json`).
    ///
    /// Emits the `fifoms-bench-profile-v2` shape: `phases` carries the
    /// hierarchical snapshot (each entry has a `path` and `depth`), and a
    /// `slot_time` object summarizes the sampled per-slot wall-time
    /// distribution. The validator still accepts v1 documents.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("schema", "fifoms-bench-profile-v2");
        obj.set("switch", self.result.switch_name.as_str());
        obj.set("traffic", self.result.traffic_name.as_str());
        obj.set("slots_run", self.result.slots_run);
        obj.set("sample_every", self.sample_every);
        obj.set("total_ns", self.total_ns);
        obj.set("slots_per_sec", self.slots_per_sec());
        obj.set("throughput", self.result.throughput);
        obj.set("phases", self.profiler.snapshot());
        let st = self.profiler.slot_times();
        if !st.is_empty() {
            let mut slot_time = Json::object();
            slot_time.set("count", st.count());
            slot_time.set("p50_ns", st.quantile(0.5));
            slot_time.set("p99_ns", st.quantile(0.99));
            slot_time.set("p999_ns", st.quantile(0.999));
            slot_time.set("max_ns", st.max());
            obj.set("slot_time", slot_time);
        }
        obj
    }
}

/// Run one `(switch, traffic)` pair under `cfg`, timing the engine phases
/// on every `sample_every`-th slot (`0` is treated as 1 — every slot).
pub fn profile_run(
    switch: &mut dyn Switch,
    traffic: &mut dyn TrafficModel,
    cfg: &RunConfig,
    sample_every: u64,
) -> Result<ProfileReport, SimError> {
    let sample_every = sample_every.max(1);
    let mut profiler = PhaseProfiler::new();
    let started = Instant::now();
    let result = run(
        switch,
        traffic,
        cfg,
        &mut Observer {
            sink: None,
            profiler: Some((&mut profiler, sample_every)),
            telemetry: None,
        },
        None,
        &mut (),
    )?;
    let total_ns = started.elapsed().as_nanos() as u64;
    Ok(ProfileReport {
        result,
        profiler,
        sample_every,
        total_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SwitchKind, TrafficKind};
    use fifoms_obs::schema;

    #[test]
    fn profile_covers_all_four_phases() {
        let mut sw = SwitchKind::Fifoms.build(8, 1);
        let mut tr = TrafficKind::bernoulli_at_load(0.4, 0.25, 8).build(8, 2);
        let report = profile_run(sw.as_mut(), tr.as_mut(), &RunConfig::quick(2_000), 10).unwrap();
        for phase in ["traffic", "admit", "schedule", "stats"] {
            let s = report.profiler.stats(phase).unwrap_or_else(|| {
                panic!("phase {phase} missing from profile");
            });
            assert_eq!(s.calls, 200, "phase {phase}: every 10th of 2000 slots");
        }
        assert!(report.total_ns > 0);
        assert!(report.slots_per_sec() > 0.0);
    }

    #[test]
    fn profiling_does_not_perturb_the_result() {
        let cfg = RunConfig::quick(3_000);
        let mut sw = SwitchKind::Fifoms.build(8, 1);
        let mut tr = TrafficKind::bernoulli_at_load(0.5, 0.25, 8).build(8, 2);
        let plain = crate::try_simulate(sw.as_mut(), tr.as_mut(), &cfg).unwrap();
        let mut sw = SwitchKind::Fifoms.build(8, 1);
        let mut tr = TrafficKind::bernoulli_at_load(0.5, 0.25, 8).build(8, 2);
        let profiled = profile_run(sw.as_mut(), tr.as_mut(), &cfg, 7).unwrap();
        assert_eq!(format!("{plain:?}"), format!("{:?}", profiled.result));
    }

    #[test]
    fn schedule_phase_nests_switch_sub_spans() {
        let mut sw = SwitchKind::Fifoms.build(8, 1);
        let mut tr = TrafficKind::bernoulli_at_load(0.5, 0.25, 8).build(8, 2);
        let report = profile_run(sw.as_mut(), tr.as_mut(), &RunConfig::quick(2_000), 10).unwrap();
        let sched = report.profiler.stats("schedule").expect("schedule phase");
        assert!(
            sched.exclusive_ns < sched.inclusive_ns,
            "schedule should have time attributed to child spans"
        );
        let mut child_incl = 0u64;
        let mut children = 0usize;
        for name in ["voq_scan", "request", "grant", "commit"] {
            let s = report
                .profiler
                .stats(name)
                .unwrap_or_else(|| panic!("sub-span {name} missing"));
            assert!(s.calls > 0, "sub-span {name} never recorded");
            child_incl += s.inclusive_ns;
            children += 1;
        }
        assert!(children >= 3, "need at least 3 nested spans under schedule");
        assert_eq!(
            sched.exclusive_ns + child_incl,
            sched.inclusive_ns,
            "child inclusive times must account exactly for the parent split"
        );
        assert!(!report.profiler.slot_times().is_empty());
    }

    #[test]
    fn json_report_validates_against_checked_in_schema() {
        let mut sw = SwitchKind::Islip(None).build(4, 1);
        let mut tr = TrafficKind::bernoulli_at_load(0.2, 0.5, 4).build(4, 2);
        let report = profile_run(sw.as_mut(), tr.as_mut(), &RunConfig::quick(500), 5).unwrap();
        let doc = report.to_json();
        let schema_text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../schemas/bench_profile.schema.json"
        ))
        .expect("schema file present");
        let schema_doc = Json::parse(&schema_text).expect("schema parses");
        schema::validate(&doc, &schema_doc).expect("profile JSON conforms");
    }
}

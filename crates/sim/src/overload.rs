//! The finite-buffer loss-rate sweep (DESIGN.md §12).
//!
//! Under admissible load a FIFOMS switch needs none of this. Under
//! *inadmissible* load (offered > 1.0 per output) an infinite-buffer
//! model diverges, and a finite-buffer one must choose what to lose —
//! the switch's admission policy makes that choice at admission.
//! [`loss_sweep`] is the stability-region experiment: a load grid
//! crossing the admissible boundary, run against the infinite-buffer
//! baseline and each finite-buffer admission policy under a
//! [`CheckedSwitch`] proving the extended conservation law, yielding one
//! [`LossPoint`] per (load, policy) cell.

use fifoms_core::{AdmissionPolicy, BufferConfig, MulticastVoqSwitch};
use fifoms_fabric::{CheckedSwitch, Switch};
use fifoms_traffic::BernoulliMulticast;

use crate::engine::{run, Observer, RunConfig, TelemetrySpec};

/// One (load, policy) cell of the loss sweep.
#[derive(Clone, Debug)]
pub struct LossPoint {
    /// Offered effective load (per output, in units of link capacity).
    pub load: f64,
    /// `"baseline"` (infinite buffers) or the admission policy tag.
    pub policy: String,
    /// Copies offered to admission over the run.
    pub admitted: u64,
    /// Copies delivered over the run.
    pub delivered: u64,
    /// Copies refused or pushed out at admission.
    pub admission_dropped: u64,
    /// Copies still queued when the run ended.
    pub backlog: u64,
    /// `admission_dropped / admitted` (0 when nothing was offered).
    pub loss_rate: f64,
    /// Whether the saturation detector called the point sustainable.
    pub stable: bool,
    /// Mean output-oriented copy delay over the measured window.
    pub mean_delay: f64,
}

/// Parameters of one [`loss_sweep`].
#[derive(Clone, Debug)]
pub struct LossSweepConfig {
    /// Switch size `N`.
    pub n: usize,
    /// Slots per cell.
    pub slots: u64,
    /// Base RNG seed (each cell derives its own).
    pub seed: u64,
    /// The offered-load grid; points above 1.0 are inadmissible and are
    /// exactly where the policies separate.
    pub loads: Vec<f64>,
    /// Per-VOQ address-cell cap for the finite-buffer cells.
    pub voq_cap: usize,
    /// Per-input aggregate cap for the finite-buffer cells.
    pub input_cap: usize,
}

impl LossSweepConfig {
    /// A small default grid crossing the admissible boundary:
    /// loads 0.6 .. 1.6 over `points` cells.
    pub fn quick(n: usize, slots: u64, seed: u64, points: usize) -> LossSweepConfig {
        let points = points.max(2);
        let loads = (0..points)
            .map(|i| 0.6 + (1.6 - 0.6) * i as f64 / (points - 1) as f64)
            .collect();
        LossSweepConfig {
            n,
            slots,
            seed,
            loads,
            voq_cap: 16,
            input_cap: 64,
        }
    }

    /// The largest representable offered load for this `n`: `b·N` with
    /// the sweep's fixed Bernoulli fanout `b = 1/4`. Loads above this
    /// would need a per-slot arrival probability greater than 1.
    pub fn max_load(&self) -> f64 {
        SWEEP_B * self.n as f64
    }
}

/// The Bernoulli fanout probability used by every sweep cell. With
/// `b = 1/4` and the per-slot arrival probability `p = load / (b·N)`,
/// loads up to `b·N` (2.0 at `N = 8`) stay representable with `p <= 1`.
const SWEEP_B: f64 = 0.25;

/// The finite-buffer policies each load point is run under, alongside
/// the infinite-buffer baseline.
const SWEEP_POLICIES: [AdmissionPolicy; 3] = [
    AdmissionPolicy::DropTail,
    AdmissionPolicy::Pushout,
    AdmissionPolicy::FairShed,
];

/// Run the loss-rate / stability-region sweep: every load in the grid
/// against the infinite-buffer baseline and each finite-buffer policy,
/// all under [`CheckedSwitch`] so each cell proves the extended
/// conservation law as it runs.
///
/// # Panics
///
/// Panics if a cell's checker reports an invariant violation (the
/// sweep's entire point is that the law holds), if `cfg.loads` contains
/// a load outside `(0, b·N]`, or if `voq_cap`/`input_cap` are 0.
pub fn loss_sweep(cfg: &LossSweepConfig) -> Vec<LossPoint> {
    loss_sweep_observed(cfg, None)
}

/// [`loss_sweep`] with live telemetry attached: each cell streams
/// windowed counters under the scope `"<policy>@<load>"`. Telemetry is
/// read-only, so the returned points are bit-identical to
/// [`loss_sweep`]'s.
pub fn loss_sweep_observed(
    cfg: &LossSweepConfig,
    telemetry: Option<&TelemetrySpec>,
) -> Vec<LossPoint> {
    assert!(cfg.voq_cap > 0 && cfg.input_cap > 0, "caps must be finite");
    let mut out = Vec::new();
    for (i, &load) in cfg.loads.iter().enumerate() {
        let max_load = cfg.max_load();
        assert!(
            load > 0.0 && load <= max_load,
            "load {load} outside (0, {max_load}]"
        );
        let cell_seed = cfg.seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        out.push(run_cell(cfg, load, cell_seed, None, telemetry));
        for policy in SWEEP_POLICIES {
            out.push(run_cell(cfg, load, cell_seed, Some(policy), telemetry));
        }
    }
    out
}

fn run_cell(
    cfg: &LossSweepConfig,
    load: f64,
    seed: u64,
    policy: Option<AdmissionPolicy>,
    telemetry: Option<&TelemetrySpec>,
) -> LossPoint {
    let p = load / (SWEEP_B * cfg.n as f64);
    let mut traffic =
        BernoulliMulticast::new(cfg.n, p, SWEEP_B, seed).expect("sweep cell parameters valid");
    let mut core = MulticastVoqSwitch::new(cfg.n, seed);
    let mut checker = match policy {
        Some(policy) => {
            let buffers =
                BufferConfig::bounded(cfg.voq_cap, cfg.input_cap).with_policy(policy);
            let capacity = buffers
                .max_copies(cfg.n)
                .expect("bounded config has a capacity");
            core = core.with_buffers(buffers);
            CheckedSwitch::new(core).with_capacity(capacity)
        }
        None => CheckedSwitch::new(core),
    };
    let policy_name = policy.map_or_else(|| "baseline".to_string(), |p| p.as_str().to_string());
    let scope = format!("{policy_name}@{load}");
    let mut cell_telemetry = telemetry.map(|t| t.new_telemetry(cfg.n));
    let mut obs = Observer {
        sink: None,
        profiler: None,
        telemetry: match (telemetry, cell_telemetry.as_mut()) {
            (Some(spec), Some(t)) => Some(spec.channel(t, &scope)),
            _ => None,
        },
    };
    let result = run(
        &mut checker,
        &mut traffic,
        &RunConfig::quick(cfg.slots),
        &mut obs,
        None,
        &mut (),
    )
    .expect("sweep cell preconditions hold");
    if let Some(v) = checker.violation() {
        panic!("loss sweep cell (load {load}, {:?}) violated: {v}", policy);
    }
    let admitted = checker.admitted_copies();
    let dropped = checker.admission_dropped_copies();
    let backlog = checker.backlog().copies as u64;
    LossPoint {
        load,
        policy: policy_name,
        admitted,
        delivered: checker.delivered_copies(),
        admission_dropped: dropped,
        backlog,
        loss_rate: if admitted == 0 {
            0.0
        } else {
            dropped as f64 / admitted as f64
        },
        stable: result.is_stable(),
        mean_delay: result.delay.mean_output_oriented,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_sweep_separates_finite_policies_from_the_baseline() {
        let cfg = LossSweepConfig {
            n: 8,
            slots: 3_000,
            seed: 7,
            loads: vec![0.6, 1.4],
            voq_cap: 8,
            input_cap: 32,
        };
        let points = loss_sweep(&cfg);
        assert_eq!(points.len(), 2 * 4, "each load x (baseline + 3 policies)");
        for pt in &points {
            assert!(
                pt.admitted >= pt.delivered + pt.admission_dropped,
                "{pt:?}"
            );
            if pt.policy == "baseline" {
                assert_eq!(pt.admission_dropped, 0, "baseline never drops: {pt:?}");
            }
        }
        // Under inadmissible load, finite buffers must shed; under
        // admissible load they should barely shed at all.
        let hot_drop = points
            .iter()
            .find(|p| p.load > 1.0 && p.policy == "drop_tail")
            .unwrap();
        assert!(hot_drop.loss_rate > 0.05, "knee missing: {hot_drop:?}");
        let cool_drop = points
            .iter()
            .find(|p| p.load < 1.0 && p.policy == "drop_tail")
            .unwrap();
        assert!(
            cool_drop.loss_rate < hot_drop.loss_rate,
            "loss must rise across the knee: {cool_drop:?} vs {hot_drop:?}"
        );
    }

    #[test]
    fn max_load_offers_a_packet_on_every_input_in_every_slot() {
        let cfg = LossSweepConfig {
            n: 8,
            slots: 200,
            seed: 3,
            loads: vec![2.0],
            voq_cap: 4,
            input_cap: 16,
        };
        assert_eq!(cfg.max_load(), 2.0);
        let points = loss_sweep(&cfg);
        assert_eq!(points.len(), 4);
        for pt in &points {
            // Every cell sees the same arrivals, and the checker's law
            // holds copy for copy.
            assert_eq!(pt.admitted, points[0].admitted, "{pt:?}");
            assert_eq!(
                pt.admitted,
                pt.delivered + pt.admission_dropped + pt.backlog,
                "{pt:?}"
            );
        }
        // Twice what the outputs can carry, one copy per output per
        // slot: the baseline queues the excess, and a finite buffer sheds
        // close to half.
        let baseline = &points[0];
        assert_eq!(baseline.admission_dropped, 0);
        assert!(baseline.delivered <= 200 * 8, "{baseline:?}");
        assert!(baseline.backlog > baseline.delivered, "{baseline:?}");
        assert!(points[1..].iter().all(|p| p.loss_rate > 0.4), "{points:?}");
    }

    #[test]
    #[should_panic(expected = "load 2.5 outside (0, 2]")]
    fn a_load_past_max_load_is_refused() {
        let mut cfg = LossSweepConfig::quick(8, 100, 1, 2);
        cfg.loads = vec![2.5];
        loss_sweep(&cfg);
    }
}

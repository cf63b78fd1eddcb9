//! Integration tests for the extension systems: 2DRR, finite-speedup OQ,
//! the restricted-fanout ablation and the §IV hardware model fed with
//! measured convergence rounds.

use fifoms::core::hardware::{ControlUnitModel, QueueMemoryModel};
use fifoms::prelude::*;

const N: usize = 16;

fn run(sk: SwitchKind, tk: TrafficKind, slots: u64, seed: u64) -> RunResult {
    let mut sw = sk.build(N, seed);
    let mut tr = tk.build(N, seed ^ 0xC0FFEE);
    try_simulate(sw.as_mut(), tr.as_mut(), &RunConfig::paper(slots)).expect("run")
}

/// 2DRR sustains high uniform unicast load (its published full-throughput
/// property) where the single-FIFO TATRA has long saturated.
#[test]
fn twodrr_full_throughput_uniform_unicast() {
    let tk = TrafficKind::uniform_at_load(0.9, 1);
    let twodrr = run(SwitchKind::TwoDrr, tk, 60_000, 1);
    assert!(twodrr.is_stable(), "2DRR unstable at 0.9 unicast");
    assert!(twodrr.throughput > 0.85);
    assert!(run(SwitchKind::Tatra, tk, 60_000, 1).verdict.is_saturated());
}

/// Like iSLIP, 2DRR schedules multicast as copies, so FIFOMS beats it on
/// multicast delay.
#[test]
fn twodrr_loses_to_fifoms_on_multicast() {
    let tk = TrafficKind::bernoulli_at_load(0.6, 0.2, N);
    let fifoms = run(SwitchKind::Fifoms, tk, 40_000, 2);
    let twodrr = run(SwitchKind::TwoDrr, tk, 40_000, 2);
    assert!(fifoms.is_stable());
    assert!(
        fifoms.delay.mean_output_oriented < twodrr.delay.mean_output_oriented,
        "FIFOMS {} vs 2DRR {}",
        fifoms.delay.mean_output_oriented,
        twodrr.delay.mean_output_oriented
    );
}

/// §I, measured: the OQ switch needs internal speedup to sustain load —
/// S = 1 saturates at moderate unicast load, S = N matches the ideal
/// OQ-FIFO, and delay decreases monotonically-ish in S.
#[test]
fn oq_speedup_requirement() {
    let tk = TrafficKind::uniform_at_load(0.85, 1);
    let s1 = run(SwitchKind::OqSpeedup(1), tk, 50_000, 3);
    let s4 = run(SwitchKind::OqSpeedup(4), tk, 50_000, 3);
    let sn = run(SwitchKind::OqSpeedup(N), tk, 50_000, 3);
    let ideal = run(SwitchKind::OqFifo, tk, 50_000, 3);
    assert!(s1.verdict.is_saturated(), "S=1 must be HOL-bound at 0.85");
    assert!(s4.is_stable());
    assert!(sn.is_stable());
    // S = N tracks the direct-placement idealisation closely
    assert!(
        (sn.delay.mean_output_oriented - ideal.delay.mean_output_oriented).abs()
            < 0.2 * ideal.delay.mean_output_oriented + 0.2,
        "OQ(S=N) {} vs ideal {}",
        sn.delay.mean_output_oriented,
        ideal.delay.mean_output_oriented
    );
}

/// Restricting the per-slot grant fanout (reference [15]'s limitation)
/// costs multicast delay relative to full-crossbar FIFOMS.
#[test]
fn restricted_fanout_costs_delay() {
    let tk = TrafficKind::bernoulli_at_load(0.6, 0.25, N); // mean fanout 4
    let full = run(SwitchKind::Fifoms, tk, 40_000, 4);
    let capped = run(SwitchKind::FifomsFanoutCap(1), tk, 40_000, 4);
    assert!(full.is_stable());
    assert!(
        full.delay.mean_input_oriented < capped.delay.mean_input_oriented,
        "full {} vs fanout-capped {}",
        full.delay.mean_input_oriented,
        capped.delay.mean_input_oriented
    );
    // a generous cap behaves like no cap
    let wide = run(SwitchKind::FifomsFanoutCap(N), tk, 40_000, 4);
    assert!(
        (wide.delay.mean_output_oriented - full.delay.mean_output_oriented).abs()
            < 0.15 * full.delay.mean_output_oriented + 0.05
    );
}

/// Feed measured Fig. 5 convergence rounds into the §IV latency model: a
/// 16-port parallel-comparator FIFOMS scheduler fits a 10 Gb/s slot
/// budget with real round counts, and the memory model confirms the
/// linear-in-N queue cost.
#[test]
fn hardware_model_consistent_with_measured_rounds() {
    let tk = TrafficKind::bernoulli_at_load(0.8, 0.2, N);
    let r = run(SwitchKind::Fifoms, tk, 40_000, 5);
    assert!(r.is_stable());
    let ctrl = ControlUnitModel::typical(N);
    let slot = ctrl.slot_latency_ps(r.mean_rounds);
    let budget = ControlUnitModel::slot_budget_ps(10.0);
    assert!(
        slot < budget,
        "scheduling {slot} ps exceeds 10G slot budget {budget} ps at {} rounds",
        r.mean_rounds
    );
    // §IV-C worst case: N rounds still bounded by N * round latency
    assert!(ctrl.worst_slot_latency_ps() >= slot as u64);

    // §IV-B: the multicast VOQ structure is a fraction of copy-based
    // storage, and the measured max queue fits a modest buffer depth.
    let mem = QueueMemoryModel::typical(N, (r.occupancy.max * 4).max(64));
    assert!(mem.overhead_ratio() < 0.25, "ratio {}", mem.overhead_ratio());
}

/// The Fig. 5 metric itself: FIFOMS's measured mean rounds stay far below
/// the §IV-C worst case of N across the stable load range.
#[test]
fn convergence_rounds_far_below_worst_case() {
    for load in [0.3, 0.6, 0.9] {
        let tk = TrafficKind::bernoulli_at_load(load, 0.2, N);
        let r = run(SwitchKind::Fifoms, tk, 30_000, 6);
        assert!(r.is_stable(), "load {load}");
        assert!(
            r.mean_rounds < N as f64 / 4.0,
            "load {load}: mean rounds {} vs N = {N}",
            r.mean_rounds
        );
    }
}

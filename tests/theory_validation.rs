//! Simulator-vs-closed-form validation: the OQ baseline must track
//! Karol's 1987 formulas, the input-queued FIFO switch must saturate at
//! the 0.586 bound, and the traffic models must hit their analytic
//! fanout means. Agreement here validates the slot loop, the delay
//! accounting and the workload generators in one shot.

use fifoms::prelude::*;
use fifoms_analytic::{fanout, karol, mdone};

const N: usize = 16;

fn run(sk: SwitchKind, tk: TrafficKind, slots: u64, seed: u64) -> RunResult {
    let mut sw = sk.build(N, seed);
    let mut tr = tk.build(N, seed ^ 0x7777);
    try_simulate(sw.as_mut(), tr.as_mut(), &RunConfig::paper(slots)).expect("run")
}

/// OQ-FIFO mean delay vs Karol eq. (2), across the load range.
#[test]
fn oq_delay_matches_karol_formula() {
    for rho in [0.3, 0.5, 0.7, 0.8, 0.9] {
        let r = run(
            SwitchKind::OqFifo,
            TrafficKind::uniform_at_load(rho, 1),
            400_000,
            10,
        );
        assert!(r.is_stable(), "rho {rho}");
        let theory = karol::oq_mean_wait(N, rho);
        let measured = r.delay.mean_output_oriented;
        let tol = 0.05 * theory + 0.02;
        assert!(
            (measured - theory).abs() < tol,
            "rho {rho}: measured {measured:.4} vs Karol {theory:.4}"
        );
    }
}

/// The measured OQ delay is below the M/D/1 bound (which dominates the
/// finite-N formula).
#[test]
fn oq_delay_below_mdone_bound() {
    let rho = 0.85;
    let r = run(
        SwitchKind::OqFifo,
        TrafficKind::uniform_at_load(rho, 1),
        200_000,
        11,
    );
    assert!(r.is_stable());
    assert!(
        r.delay.mean_output_oriented < mdone::mean_wait(rho) * 1.05,
        "measured {} vs M/D/1 {}",
        r.delay.mean_output_oriented,
        mdone::mean_wait(rho)
    );
}

/// The single-FIFO input-queued switch (the HOL-blocked architecture
/// TATRA and WBA inherit, here as OQ with speedup 1) saturates at
/// Karol's 2−√2 under uniform unicast: stable below, saturated above.
#[test]
fn input_queued_saturation_brackets_karol_bound() {
    let bound = karol::input_queued_saturation();
    let below = run(
        SwitchKind::OqSpeedup(1),
        TrafficKind::uniform_at_load(bound - 0.06, 1),
        120_000,
        12,
    );
    let above = run(
        SwitchKind::OqSpeedup(1),
        TrafficKind::uniform_at_load(bound + 0.06, 1),
        120_000,
        12,
    );
    assert!(
        below.is_stable(),
        "stable below the Karol bound expected, verdict {:?}",
        below.verdict
    );
    assert!(
        above.verdict.is_saturated(),
        "saturation above the Karol bound expected"
    );
    // TATRA shows the same ceiling (its FIFO is the same bottleneck).
    let tatra_above = run(
        SwitchKind::Tatra,
        TrafficKind::uniform_at_load(bound + 0.06, 1),
        120_000,
        12,
    );
    assert!(tatra_above.verdict.is_saturated());
}

/// Measured Bernoulli throughput matches the truncation-corrected load
/// from the analytic fanout module.
#[test]
fn bernoulli_truncation_correction_observed() {
    let (b, nominal) = (0.2, 0.5);
    let r = run(
        SwitchKind::OqFifo,
        TrafficKind::bernoulli_at_load(nominal, b, N),
        300_000,
        13,
    );
    assert!(r.is_stable());
    let corrected = nominal * fanout::bernoulli_load_correction(N, b);
    assert!(
        (r.throughput - corrected).abs() < 0.01,
        "throughput {} vs corrected {}",
        r.throughput,
        corrected
    );
    // and the nominal (uncorrected) value is visibly too low
    assert!(r.throughput > nominal + 0.005);
}

/// FIFOMS under unicast sits between the OQ floor and a constant factor
/// above it across the stable range — no closed form exists, but the
/// bracketing documents where it lives relative to theory.
#[test]
fn fifoms_unicast_delay_bracketed_by_theory() {
    for rho in [0.5, 0.7, 0.85] {
        let r = run(
            SwitchKind::Fifoms,
            TrafficKind::uniform_at_load(rho, 1),
            150_000,
            14,
        );
        assert!(r.is_stable(), "rho {rho}");
        let floor = karol::oq_mean_wait(N, rho);
        let measured = r.delay.mean_output_oriented;
        assert!(
            measured >= floor - 0.05,
            "rho {rho}: {measured} below OQ floor {floor}"
        );
        assert!(
            measured <= 4.0 * floor + 0.5,
            "rho {rho}: {measured} far above OQ floor {floor}"
        );
    }
}

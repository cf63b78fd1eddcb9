//! The paper's headline claims, asserted as executable integration tests
//! (small-scale versions of the Figs. 4–8 relationships; EXPERIMENTS.md
//! holds the full-size sweeps).

use fifoms::prelude::*;

const N: usize = 16;

fn run(sk: SwitchKind, tk: TrafficKind, slots: u64, seed: u64) -> RunResult {
    let mut sw = sk.build(N, seed);
    let mut tr = tk.build(N, seed ^ 0xA5A5);
    try_simulate(sw.as_mut(), tr.as_mut(), &RunConfig::paper(slots)).expect("run")
}

/// §VI: "Achieves 100% throughput under uniformly distributed traffic" —
/// FIFOMS stays stable at 95% multicast load where TATRA has long
/// collapsed.
#[test]
fn fifoms_sustains_high_uniform_multicast_load() {
    let tk = TrafficKind::uniform_at_load(0.95, 8);
    let fifoms = run(SwitchKind::Fifoms, tk, 60_000, 1);
    assert!(
        fifoms.is_stable(),
        "FIFOMS unstable at 0.95 uniform load: {:?}",
        fifoms.verdict
    );
    assert!(fifoms.throughput > 0.90, "throughput {}", fifoms.throughput);
}

/// Fig. 6 / [13]: TATRA's single input FIFO saturates near 0.586 under
/// uniform unicast; FIFOMS does not.
#[test]
fn tatra_unicast_saturation_near_karol_bound() {
    let at = |load: f64, sk: SwitchKind| run(sk, TrafficKind::uniform_at_load(load, 1), 40_000, 2);
    // comfortably below the bound: stable
    assert!(at(0.50, SwitchKind::Tatra).is_stable());
    // comfortably above: saturated
    assert!(at(0.70, SwitchKind::Tatra).verdict.is_saturated());
    // FIFOMS fine at both
    assert!(at(0.70, SwitchKind::Fifoms).is_stable());
    assert!(at(0.90, SwitchKind::Fifoms).is_stable());
}

/// Fig. 4: under Bernoulli multicast at moderate-high load, FIFOMS beats
/// iSLIP-with-copies on both delays and stays within the OQ regime.
#[test]
fn fig4_relationships_at_moderate_load() {
    let tk = TrafficKind::bernoulli_at_load(0.7, 0.2, N);
    let fifoms = run(SwitchKind::Fifoms, tk, 40_000, 3);
    let islip = run(SwitchKind::Islip(None), tk, 40_000, 3);
    let oq = run(SwitchKind::OqFifo, tk, 40_000, 3);
    let tatra = run(SwitchKind::Tatra, tk, 40_000, 3);
    for r in [&fifoms, &islip, &oq, &tatra] {
        assert!(r.is_stable(), "{} unstable at 0.7", r.switch_name);
    }
    assert!(fifoms.delay.mean_output_oriented < islip.delay.mean_output_oriented);
    assert!(fifoms.delay.mean_input_oriented < islip.delay.mean_input_oriented);
    assert!(oq.delay.mean_output_oriented <= fifoms.delay.mean_output_oriented + 0.05);
    // FIFOMS close to OQ (within a small constant factor at this load)
    assert!(
        fifoms.delay.mean_output_oriented < oq.delay.mean_output_oriented * 4.0 + 1.0,
        "FIFOMS {} vs OQ {}",
        fifoms.delay.mean_output_oriented,
        oq.delay.mean_output_oriented
    );
    // smallest buffers among all four (paper: "outperforms all other three
    // algorithms in terms of both average and maximum queue size")
    for other in [&islip, &tatra, &oq] {
        assert!(
            fifoms.occupancy.mean <= other.occupancy.mean + 0.05,
            "FIFOMS queue {} vs {} {}",
            fifoms.occupancy.mean,
            other.switch_name,
            other.occupancy.mean
        );
    }
}

/// Fig. 4 high-load: TATRA destabilises beyond ~0.8 effective load where
/// FIFOMS still tracks OQ-FIFO.
#[test]
fn tatra_collapses_past_080_multicast() {
    let tk = TrafficKind::bernoulli_at_load(0.9, 0.2, N);
    assert!(run(SwitchKind::Tatra, tk, 50_000, 4).verdict.is_saturated());
    assert!(run(SwitchKind::Fifoms, tk, 50_000, 4).is_stable());
}

/// Fig. 5: FIFOMS and iSLIP converge in a similar, small number of rounds,
/// insensitive to load while both are stable.
#[test]
fn fig5_convergence_rounds_similar_and_small() {
    for load in [0.2, 0.5, 0.8] {
        let tk = TrafficKind::bernoulli_at_load(load, 0.2, N);
        let fifoms = run(SwitchKind::Fifoms, tk, 30_000, 5);
        let islip = run(SwitchKind::Islip(None), tk, 30_000, 5);
        assert!(fifoms.is_stable() && islip.is_stable());
        assert!(
            fifoms.mean_rounds < 4.0 && islip.mean_rounds < 4.0,
            "load {load}: rounds {} / {}",
            fifoms.mean_rounds,
            islip.mean_rounds
        );
        assert!(
            fifoms.mean_rounds <= islip.mean_rounds + 0.5,
            "load {load}: FIFOMS {} vs iSLIP {}",
            fifoms.mean_rounds,
            islip.mean_rounds
        );
    }
}

/// Fig. 6: under pure unicast, FIFOMS matches iSLIP's delay (and beats it
/// on buffers) — "even under the pure unicast traffic, the performance of
/// FIFOMS can also match the specifically designed unicast scheduling
/// algorithms".
#[test]
fn fig6_unicast_fifoms_matches_islip() {
    let tk = TrafficKind::uniform_at_load(0.7, 1);
    let fifoms = run(SwitchKind::Fifoms, tk, 40_000, 6);
    let islip = run(SwitchKind::Islip(None), tk, 40_000, 6);
    assert!(fifoms.is_stable() && islip.is_stable());
    assert!(
        fifoms.delay.mean_output_oriented < islip.delay.mean_output_oriented * 1.5 + 0.5,
        "FIFOMS {} vs iSLIP {}",
        fifoms.delay.mean_output_oriented,
        islip.delay.mean_output_oriented
    );
    // buffer requirement in the same regime (paper plots them nearly
    // overlapping in Fig. 6(c); FIFOMS's edge there is within run noise)
    assert!(
        fifoms.occupancy.mean <= islip.occupancy.mean * 1.3 + 0.1,
        "FIFOMS queue {} vs iSLIP {}",
        fifoms.occupancy.mean,
        islip.occupancy.mean
    );
}

/// Fig. 8: under bursty multicast, iSLIP's copy expansion serialises each
/// burst through one input, inflating its delay an order of magnitude
/// over FIFOMS (the paper's iSLIP curve leaves the visible plot range);
/// TATRA destabilises first among the multicast-aware schedulers while
/// FIFOMS keeps the smallest queues.
#[test]
fn fig8_burst_orderings() {
    let tk = TrafficKind::burst_at_load(0.45, 16.0, 0.5, N);
    let fifoms = run(SwitchKind::Fifoms, tk, 60_000, 7);
    let islip = run(SwitchKind::Islip(None), tk, 60_000, 7);
    let oq = run(SwitchKind::OqFifo, tk, 60_000, 7);
    assert!(fifoms.is_stable(), "FIFOMS unstable at 0.45 burst load");
    assert!(oq.is_stable());
    // iSLIP: either already saturated, or stable with an order-of-magnitude
    // worse delay and queue (the paper's "cannot even be seen" curve)
    assert!(
        islip.verdict.is_saturated()
            || islip.delay.mean_output_oriented > 4.0 * fifoms.delay.mean_output_oriented,
        "iSLIP delay {} vs FIFOMS {}",
        islip.delay.mean_output_oriented,
        fifoms.delay.mean_output_oriented
    );
    assert!(islip.occupancy.mean > 3.0 * fifoms.occupancy.mean);
    // OQ is the delay floor under burst too
    assert!(oq.delay.mean_output_oriented <= fifoms.delay.mean_output_oriented);
    // FIFOMS smallest queue space (Fig. 8(c)) — beats even OQ's output
    // buffers because it stores one data cell per multicast packet
    assert!(
        fifoms.occupancy.mean < oq.occupancy.mean,
        "FIFOMS queue {} vs OQ {}",
        fifoms.occupancy.mean,
        oq.occupancy.mean
    );
    // TATRA destabilises well before FIFOMS: at 0.80 burst load it is
    // saturated while FIFOMS still holds small queues
    let tk_hi = TrafficKind::burst_at_load(0.80, 16.0, 0.5, N);
    assert!(run(SwitchKind::Tatra, tk_hi, 60_000, 7).verdict.is_saturated());
    assert!(run(SwitchKind::Fifoms, tk_hi, 60_000, 7).is_stable());
}

/// §VI fanout splitting claim, at system level: the no-splitting ablation
/// saturates at a load the splitting switch sustains.
#[test]
fn fanout_splitting_required_for_throughput() {
    let tk = TrafficKind::bernoulli_at_load(0.6, 0.25, N);
    let split = run(SwitchKind::McFifo { splitting: true }, tk, 40_000, 8);
    let nosplit = run(SwitchKind::McFifo { splitting: false }, tk, 40_000, 8);
    assert!(split.is_stable());
    assert!(nosplit.verdict.is_saturated());
    assert!(split.throughput > nosplit.throughput);
}

/// Extension: FIFOMS's one-shot multicast matters — the single-request
/// ablation behaves like a unicast scheduler and loses on multicast delay.
#[test]
fn single_request_ablation_hurts_multicast() {
    let tk = TrafficKind::bernoulli_at_load(0.6, 0.2, N);
    let full = run(SwitchKind::Fifoms, tk, 40_000, 9);
    let ablated = run(SwitchKind::FifomsSingleRequest, tk, 40_000, 9);
    assert!(full.is_stable());
    assert!(
        full.delay.mean_input_oriented < ablated.delay.mean_input_oriented,
        "full {} vs single-request {}",
        full.delay.mean_input_oriented,
        ablated.delay.mean_input_oriented
    );
}

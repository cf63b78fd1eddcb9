//! The paper's §IV complexity analysis as a printed cost sheet.
//!
//! Combines the comparator-level control-unit model and the queue-memory
//! model with *measured* convergence rounds (the Fig. 5 statistic) to
//! answer: for a given switch size and line rate, does FIFOMS fit in a
//! slot, and how much memory does the multicast VOQ structure save?
//!
//! Run with: `cargo run --release --example hardware_cost`

use fifoms::core::hardware::{ControlUnitModel, QueueMemoryModel};
use fifoms::prelude::*;

fn measured_rounds(n: usize) -> f64 {
    // Measure mean convergence rounds at 70% Bernoulli multicast load.
    let mut sw = SwitchKind::Fifoms.build(n, 7);
    let mut tr = TrafficKind::bernoulli_at_load(0.7, 4.0 / n as f64, n).build(n, 9);
    try_simulate(sw.as_mut(), tr.as_mut(), &RunConfig::quick(20_000))
        .expect("run")
        .mean_rounds
}

fn main() {
    println!("FIFOMS hardware cost sheet (paper §IV)\n");
    println!(
        "{:>4} {:>12} {:>8} {:>12} {:>10} {:>12} {:>14} {:>12}",
        "N",
        "comparators",
        "stages",
        "round (ps)",
        "rounds*",
        "slot (ps)",
        "budget@10G",
        "fits?"
    );
    for n in [8usize, 16, 32, 64] {
        let ctrl = ControlUnitModel::typical(n);
        let rounds = measured_rounds(n);
        let slot_ps = ctrl.slot_latency_ps(rounds);
        let budget = ControlUnitModel::slot_budget_ps(10.0);
        println!(
            "{:>4} {:>12} {:>8} {:>12} {:>10.2} {:>12.0} {:>14.0} {:>12}",
            n,
            ctrl.total_comparators(),
            ctrl.selection_stages(),
            ctrl.round_latency_ps(),
            rounds,
            slot_ps,
            budget,
            if slot_ps < budget { "yes" } else { "NO" },
        );
    }
    println!("\n(*mean request/grant rounds measured at 70% multicast load, mean fanout 4)");

    println!("\nQueue memory per input port (1024-cell buffer, 64-byte cells):\n");
    println!(
        "{:>4} {:>12} {:>16} {:>16} {:>16} {:>10}",
        "N", "addr bits", "addr mem (KiB)", "VOQ total (KiB)", "copy-based (KiB)", "ratio"
    );
    for n in [8usize, 16, 32, 64] {
        let mem = QueueMemoryModel::typical(n, 1024);
        let kib = |bits: usize| bits as f64 / 8.0 / 1024.0;
        println!(
            "{:>4} {:>12} {:>16.1} {:>16.1} {:>16.1} {:>10.3}",
            n,
            mem.address_cell_bits(),
            kib(mem.address_memory_bits_per_input()),
            kib(mem.total_bits_per_input()),
            kib(mem.copy_based_bits_per_input()),
            mem.overhead_ratio(),
        );
    }
    println!(
        "\nThe separated data/address structure stores each payload once: the\n\
         queue memory grows linearly in N (not 2^N queues, not N payload\n\
         copies), which is the §II/§IV-B argument in numbers."
    );
}

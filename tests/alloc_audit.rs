//! Steady-state allocation audit with a real counting global allocator.
//!
//! Integration tests compile as their own crates, so installing a
//! `#[global_allocator]` here taxes only this test binary — the library
//! crates stay `forbid(unsafe_code)` and the workspace's other tests run
//! on the plain system allocator. The audit harness itself is
//! [`fifoms_sim::alloc_audit`], which runs the engine's own slot loop;
//! this file supplies the counter it needs and asserts the headline
//! claim: after warmup, that loop performs **zero** heap allocations for
//! both FIFOMS and iSLIP at N=8 and N=64, and for FIFOMS at N=256, where
//! every port set spills past its inline words. At N=256 the traffic
//! phase is exempt: each generated `Packet` owns a heap-spilled
//! destination set. FIFOMS at N=8 stays clean with live telemetry
//! attached. The campaign stack (checker, egress faults,
//! instrumentation, telemetry) is audited too, and its per-phase counts
//! are printed, not asserted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fifoms::fabric::FaultMode;
use fifoms::prelude::*;
use fifoms::sim::TelemetryChannel;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every operation defers verbatim to `System`, which upholds the
// GlobalAlloc contract; the relaxed counter increment does not touch the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards to `System::alloc` under the caller's obligations.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: `ptr`/`layout` come from a matching `alloc` on `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards to `System::realloc` under the caller's
    // obligations.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_events() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Every audit runs sequentially in one test: a second thread would share
/// the process-wide counter, so parallel test execution could
/// cross-attribute allocations.
#[test]
fn steady_state_slot_loop_is_allocation_free() {
    let audit = |label: &str, kind: SwitchKind, n: usize, measure: u64| {
        let mut sw = kind.build(n, 1);
        let mut tr = TrafficKind::bernoulli_at_load(0.6, 0.25, n).build(n, 2);
        let report = alloc_audit(
            sw.as_mut(),
            tr.as_mut(),
            3_000,
            measure,
            &alloc_events,
            &mut Observer::none(),
        )
        .unwrap();
        assert!(
            report.packets_admitted > 0 && report.copies_delivered > 0,
            "{label} N={n}: audit must exercise real load"
        );
        report
    };
    for n in [8, 64] {
        let measure = if n == 8 { 3_000 } else { 300 };
        for (label, kind) in [
            ("FIFOMS", SwitchKind::Fifoms),
            ("iSLIP", SwitchKind::Islip(None)),
        ] {
            let report = audit(label, kind, n, measure);
            assert!(
                report.is_clean(),
                "{label} N={n}: steady-state slot loop allocated: {:?}",
                report.phase_allocs
            );
        }
    }
    // Live telemetry folds each slot into integer counters and closes
    // windows into a pre-sized ring, so attaching it keeps the loop clean.
    let mut sw = SwitchKind::Fifoms.build(8, 1);
    let mut tr = TrafficKind::bernoulli_at_load(0.6, 0.25, 8).build(8, 2);
    let mut telemetry = Telemetry::new(8, 500);
    let mut obs = Observer {
        sink: None,
        profiler: None,
        telemetry: Some(TelemetryChannel {
            telemetry: &mut telemetry,
            series: None,
            bus: None,
        }),
    };
    let report =
        alloc_audit(sw.as_mut(), tr.as_mut(), 3_000, 3_000, &alloc_events, &mut obs).unwrap();
    assert!(
        report.is_clean(),
        "FIFOMS N=8 with telemetry: steady-state slot loop allocated: {:?}",
        report.phase_allocs
    );

    let report = audit("FIFOMS", SwitchKind::Fifoms, 256, 300);
    for (phase, allocs) in report.phase_allocs {
        if phase == "traffic" {
            println!("FIFOMS N=256: traffic allocated {allocs} times in 300 slots");
        } else {
            assert_eq!(
                allocs, 0,
                "FIFOMS N=256: {phase} allocated: {:?}",
                report.phase_allocs
            );
        }
    }

    // The campaign stack: Checked ▸ Faulty (egress, events on) ▸
    // Instrumented ▸ FIFOMS at N=8 with telemetry attached. Reported, not
    // gated: the wrappers' per-packet tables still allocate, nearly all
    // at admission (InstrumentedSwitch's B-tree ledger, CheckedSwitch's
    // map) and a few times in the schedule phase.
    let faults = FaultConfig {
        seed: 3,
        flap_period: 1_000,
        flap_duration: 50,
        crosspoint_faults: 2,
        crosspoint_at: 500,
        crosspoint_duration: 2_000,
        mode: FaultMode::Egress,
        retry_budget: 3,
    };
    let core = MulticastVoqSwitch::new(8, 1).with_quarantine_slots(200);
    let mut sw = CheckedSwitch::new(
        FaultyFabric::new(InstrumentedSwitch::new(core), faults).with_event_recording(),
    );
    let mut tr = TrafficKind::bernoulli_at_load(0.6, 0.25, 8).build(8, 2);
    let mut telemetry = Telemetry::new(8, 500);
    let mut obs = Observer {
        sink: None,
        profiler: None,
        telemetry: Some(TelemetryChannel {
            telemetry: &mut telemetry,
            series: None,
            bus: None,
        }),
    };
    let report = alloc_audit(
        &mut sw,
        tr.as_mut(),
        10_000,
        10_000,
        &alloc_events,
        &mut obs,
    )
    .unwrap();
    assert!(report.packets_admitted > 0 && report.copies_delivered > 0);
    println!(
        "campaign stack N=8, slots 10000-19999: {} allocations {:?}",
        report.total_allocs(),
        report.phase_allocs
    );
}

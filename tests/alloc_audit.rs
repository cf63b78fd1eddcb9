//! Steady-state allocation audit with a real counting global allocator.
//!
//! Integration tests compile as their own crates, so installing a
//! `#[global_allocator]` here taxes only this test binary — the library
//! crates stay `forbid(unsafe_code)` and the workspace's other tests run
//! on the plain system allocator. The audit harness itself is
//! [`fifoms_sim::alloc_audit`]; this file supplies the counter it needs
//! and asserts the headline claim: after warmup, the engine's slot loop
//! (`traffic → admit → run_slot → stats`) performs **zero** heap
//! allocations for both FIFOMS and iSLIP at N=8 and N=64, and for FIFOMS
//! at N=256, where every port set spills past its inline words. At N=256
//! the traffic phase is exempt: each generated `Packet` owns a heap-spilled
//! destination set.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fifoms::prelude::*;

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
        let report = alloc_audit(sw.as_mut(), tr.as_mut(), 3_000, measure, &alloc_events).unwrap();
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
}

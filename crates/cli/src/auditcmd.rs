//! `fifoms-repro alloc-audit`: prove the steady-state slot loop never
//! touches the heap.
//!
//! The harness itself lives in [`fifoms_sim::alloc_audit`]; this module
//! supplies the one piece that needs `unsafe` — a counting
//! [`GlobalAlloc`](std::alloc::GlobalAlloc) wrapper around the system
//! allocator — and keeps it behind the `alloc-audit` cargo feature so
//! ordinary builds pay nothing. Without the feature the command explains
//! how to rebuild instead of silently reporting a vacuous pass.

use fifoms_types::SimError;

use crate::args::Options;

#[cfg(feature = "alloc-audit")]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Allocation events (alloc + realloc) since process start.
    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// Monotonic allocation-event counter read by the audit harness.
    pub fn alloc_events() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }

    /// [`System`] with an event counter in front. Counts allocation
    /// *events*, not bytes: the audit's claim is "the slot loop never
    /// calls the allocator", and a count of calls is exactly that.
    struct CountingAlloc;

    // SAFETY: every operation defers verbatim to `System`, which upholds
    // the GlobalAlloc contract; the relaxed counter increment does not
    // touch the returned memory.
    unsafe impl GlobalAlloc for CountingAlloc {
        // SAFETY: forwards to `System::alloc` under the caller's layout
        // obligations, unchanged.
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        // SAFETY: `ptr`/`layout` were produced by a matching `alloc` on
        // `System` (the only allocator behind this wrapper).
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        // SAFETY: forwards to `System::realloc` under the caller's
        // obligations, unchanged.
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

/// Audit FIFOMS and iSLIP at the reference operating point (Bernoulli
/// b=0.2, load 0.6): after half the run as warmup, every counted slot of
/// `traffic → admit → run_slot → stats` must perform zero allocations.
/// Exits nonzero if either scheduler's measured window allocated.
#[cfg(feature = "alloc-audit")]
pub fn alloc_audit_cmd(opts: &Options) -> Result<(), SimError> {
    use fifoms_sim::{alloc_audit, Observer, SwitchKind, TrafficKind};

    let warmup = (opts.slots / 2).max(1_000);
    let measure = warmup;
    let counter = counting::alloc_events;
    let mut reports = Vec::new();
    for sk in [SwitchKind::Fifoms, SwitchKind::Islip(None)] {
        let mut sw = sk.build(opts.n, opts.seed);
        let mut tr = TrafficKind::bernoulli_at_load(0.6, 0.2, opts.n)
            .try_build(opts.n, opts.seed ^ 0xBEEF)?;
        let report = alloc_audit(
            sw.as_mut(),
            tr.as_mut(),
            warmup,
            measure,
            &counter,
            &mut Observer::none(),
        )?;
        println!(
            "alloc-audit: {} under {} — {} measured slots after {} warmup, \
             {} admitted, {} delivered",
            report.switch_name,
            report.traffic_name,
            report.measured_slots,
            report.warmup_slots,
            report.packets_admitted,
            report.copies_delivered
        );
        for (phase, allocs) in report.phase_allocs {
            println!("  {phase:<9} {allocs:>8} allocations");
        }
        println!(
            "  => {} ({} total)",
            if report.is_clean() { "CLEAN" } else { "ALLOCATING" },
            report.total_allocs()
        );
        reports.push(report);
    }
    if let Some(path) = opts.json_out.as_deref() {
        let docs: Vec<_> = reports.iter().map(|r| r.to_json()).collect();
        let mut doc = fifoms_obs::Json::object();
        doc.set("schema", "fifoms-alloc-audit-v1");
        doc.set("audits", docs);
        std::fs::write(path, format!("{doc}\n"))
            .map_err(|e| SimError::Usage(format!("{path}: {e}")))?;
        println!("wrote {path}");
    }
    let dirty: Vec<&str> = reports
        .iter()
        .filter(|r| !r.is_clean())
        .map(|r| r.switch_name.as_str())
        .collect();
    if dirty.is_empty() {
        println!("alloc-audit: steady-state slot loop is allocation-free");
        Ok(())
    } else {
        Err(SimError::Usage(format!(
            "alloc-audit: steady-state allocations detected in {}",
            dirty.join(", ")
        )))
    }
}

/// Featureless stub: a count of zero from the ordinary allocator would be
/// indistinguishable from a real pass, so refuse to run instead.
#[cfg(not(feature = "alloc-audit"))]
pub fn alloc_audit_cmd(_opts: &Options) -> Result<(), SimError> {
    Err(SimError::Usage(
        "alloc-audit needs the counting allocator compiled in; rerun as \
         `cargo run --release -p fifoms-cli --features alloc-audit -- alloc-audit`"
            .into(),
    ))
}

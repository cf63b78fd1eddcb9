//! Integration tests for the packet-level flight recorder and the
//! `analyze` trace-forensics engine: full-sampling FIFOMS traces must
//! pass the Theorem 1 starvation audit with zero inversions, per-copy
//! delay decompositions must sum to the raw measured delays, disabling
//! the recorder must be bit-identical, and the FIFOMS-vs-iSLIP
//! comparison must show the multicast transmission advantage.

use std::collections::BTreeMap;
use std::sync::Arc;

use fifoms::obs::analysis::compare_scopes;
use fifoms::obs::event_to_json;
use fifoms::prelude::*;

const N: usize = 8;
const SLOTS: u64 = 4_000;
const LOAD: f64 = 0.6;

/// Run one single-switch sweep cell at `LOAD` with the given recorder
/// mode, returning the recorded `(scope, event)` stream.
fn traced_cell(kind: SwitchKind, mode: PacketTraceMode) -> Vec<(String, ObsEvent)> {
    let sweep = Sweep {
        n: N,
        switches: vec![kind],
        points: vec![(LOAD, TrafficKind::bernoulli_at_load(LOAD, 0.2, N))],
        run: RunConfig::quick(SLOTS),
        seed: 11,
    };
    let rec = Arc::new(RecordingSink::new());
    let observer = SweepObserver {
        trace: Some(rec.clone() as Arc<dyn EventSink>),
        packet_trace: mode,
        ..SweepObserver::disabled()
    };
    let outcomes = sweep.run_robust_observed(1, &CellPolicy::isolated(), &observer);
    assert!(outcomes.iter().all(|o| o.row().is_some()), "cell failed");
    rec.events()
}

/// Serialise a recorded event stream to the JSONL text `--trace-out`
/// would have produced.
fn trace_text(events: &[(String, ObsEvent)]) -> String {
    let mut text = String::new();
    for (scope, event) in events {
        text.push_str(&event_to_json(scope, event).to_string());
        text.push('\n');
    }
    text
}

/// The paper's Theorem 1, checked over an actual traced FIFOMS run: at
/// every backlogged slot some globally-oldest packet sends a copy — the
/// audit reports zero inversions and zero blocked slots. The per-copy
/// delay decomposition must also agree with the raw recorder events:
/// each copy's components sum to its measured `sent - arrival`.
#[test]
fn fifoms_full_trace_passes_audit_and_decomposition() {
    let events = traced_cell(SwitchKind::Fifoms, PacketTraceMode::All);
    let analysis = analyze_trace(&trace_text(&events)).expect("trace parses");
    assert_eq!(analysis.scopes.len(), 1);
    let s = &analysis.scopes[0];
    assert_eq!(s.switch, "FIFOMS");
    assert_eq!(s.ports, Some(N as u32));
    assert!(s.complete, "full sampling yields complete lifecycles");

    // Starvation-freedom: the audit ran and found nothing.
    assert!(s.audit.checked);
    assert!(s.audit.backlogged_slots > 0, "run was not trivially idle");
    assert_eq!(s.audit.inversions, 0, "FIFOMS never bypasses the oldest");
    assert_eq!(s.audit.max_inversion, 0);
    assert_eq!(s.audit.blocked_slots, 0, "backlogged slots always serve");

    // Delay decomposition: recompute raw per-copy delays from the
    // recorder events independently of the analyser's VOQ model.
    let mut arrival_of: BTreeMap<u64, u64> = BTreeMap::new();
    for (_, event) in &events {
        if let ObsEvent::PacketArrived { id, slot, .. } = event {
            arrival_of.insert(id.0, slot.0);
        }
    }
    assert!(!s.copies.is_empty());
    for c in &s.copies {
        let raw_arrival = arrival_of[&c.packet];
        assert_eq!(c.arrival, raw_arrival, "copy {c:?}");
        assert_eq!(c.total, c.sent - raw_arrival, "copy {c:?}");
        assert_eq!(c.hol + c.contention + c.split, c.total, "copy {c:?}");
    }
    assert_eq!(s.order_anomalies, 0, "FIFOMS VOQ service is FIFO");

    // Convergence profile: at least one round per matched slot, within
    // the scheduler's N-round bound, and the log2 N reference is wired.
    assert!(s.rounds.mean >= 1.0);
    assert!(s.rounds.max as usize <= N);
    assert_eq!(s.rounds.log2_n, Some((N as f64).log2()));

    // Explicit idleness: the run_end marker makes utilisation exact.
    assert_eq!(s.slots_run, Some(SLOTS));
    let u = s.utilisation.expect("run_end present");
    assert!(u > 0.0 && u <= 1.0, "utilisation {u} out of range");
}

/// The recorder must be invisible when off and read-only when on:
/// simulation results are bit-identical across no instrumentation,
/// `Off`, `All` and `Ring` modes — and `Off` emits no packet events.
#[test]
fn disabled_recorder_is_bit_identical() {
    let run = |mode: Option<PacketTraceMode>| {
        let mut tr = TrafficKind::bernoulli_at_load(LOAD, 0.2, N).build(N, 7);
        let cfg = RunConfig::quick(2_000);
        match mode {
            None => {
                let mut sw = SwitchKind::Fifoms.build(N, 3);
                (
                    format!(
                        "{:?}",
                        try_simulate(sw.as_mut(), tr.as_mut(), &cfg).expect("run")
                    ),
                    0,
                )
            }
            Some(mode) => {
                let mut sw =
                    InstrumentedSwitch::with_packet_trace(SwitchKind::Fifoms.build(N, 3), mode);
                let sink = RecordingSink::new();
                let mut obs = Observer {
                    sink: Some((&sink, "cell")),
                    profiler: None,
                    telemetry: None,
                };
                let result = fifoms::sim::run(&mut sw, tr.as_mut(), &cfg, &mut obs, None, &mut ())
                    .expect("observed run");
                let packet_events = sink
                    .events()
                    .iter()
                    .filter(|(_, e)| {
                        matches!(
                            e.kind(),
                            "packet_arrived" | "copy_sent" | "packet_completed"
                        )
                    })
                    .count();
                (format!("{result:?}"), packet_events)
            }
        }
    };

    let (plain, _) = run(None);
    let (off, off_events) = run(Some(PacketTraceMode::Off));
    let (all, all_events) = run(Some(PacketTraceMode::All));
    let (ring, ring_events) = run(Some(PacketTraceMode::Ring(64)));

    assert_eq!(plain, off, "Off-mode instrumentation changed the result");
    assert_eq!(plain, all, "full recording changed the result");
    assert_eq!(plain, ring, "ring recording changed the result");
    assert_eq!(off_events, 0, "Off mode leaked packet events");
    assert!(all_events > 0, "All mode recorded nothing");
    assert!(
        ring_events > 0 && ring_events <= 64,
        "ring retained {ring_events} events, capacity 64"
    );
}

/// Sampled and ring traces cannot prove starvation freedom: the
/// analyser marks them incomplete and skips the audit instead of
/// reporting false verdicts — but still summarises what was kept.
#[test]
fn partial_traces_skip_the_audit() {
    for mode in [PacketTraceMode::OneIn(4), PacketTraceMode::Ring(256)] {
        let events = traced_cell(SwitchKind::Fifoms, mode);
        let analysis = analyze_trace(&trace_text(&events)).expect("trace parses");
        let s = &analysis.scopes[0];
        assert!(!s.complete, "{mode:?} must not claim completeness");
        assert!(!s.audit.checked, "{mode:?} must not run the audit");
        assert!(s.copies_sent > 0, "{mode:?} kept nothing");
    }
}

/// The split-vs-expand differential of the paper: iSLIP expands a
/// fanout-k packet into k unicast transmissions while FIFOMS fans out
/// in the crossbar, so on the same multicast workload iSLIP needs at
/// least as many transmissions — strictly more here — to deliver its
/// copies.
#[test]
fn compare_shows_multicast_transmission_advantage() {
    let fifoms_events = traced_cell(SwitchKind::Fifoms, PacketTraceMode::All);
    let islip_events = traced_cell(SwitchKind::Islip(None), PacketTraceMode::All);
    let fifoms = analyze_trace(&trace_text(&fifoms_events)).unwrap();
    let islip = analyze_trace(&trace_text(&islip_events)).unwrap();
    let (f, i) = (&fifoms.scopes[0], &islip.scopes[0]);

    // Native multicast: some transmissions carry several copies.
    assert!(f.transmissions < f.copies_sent, "no multicast slots traced");
    // Unicast expansion: every transmission carries exactly one copy.
    assert_eq!(i.transmissions, i.copies_sent);
    // The acceptance criterion: iSLIP's transmission count dominates.
    assert!(
        i.transmissions > f.transmissions,
        "iSLIP {} vs FIFOMS {}",
        i.transmissions,
        f.transmissions
    );

    let cmp = compare_scopes(f, i);
    assert_eq!(cmp.transmissions, (f.transmissions, i.transmissions));
    assert!(!cmp.fanout_delay.is_empty());
}

/// Truncated or corrupted JSONL must be a structured error naming the
/// line — analyze runs on files from killed sweeps.
#[test]
fn truncated_traces_error_with_line_numbers() {
    let events = traced_cell(SwitchKind::Fifoms, PacketTraceMode::All);
    let mut text = trace_text(&events);
    let keep = text.len() * 2 / 3;
    text.truncate(keep);
    let err = analyze_trace(&text).expect_err("truncated trace accepted");
    assert!(err.contains("line "), "diagnostic lacks a line number: {err}");
}

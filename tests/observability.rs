//! Integration tests for the observability layer: tracing must never
//! change simulation results, JSONL traces must parse and be
//! self-describing, FIFOMS iteration counts in traces must respect the
//! scheduler's bounds, and fault injection must surface as structured
//! events with their firing slots.

use std::sync::Arc;

use fifoms::prelude::*;
use fifoms::sim::SweepRow;

const N: usize = 8;

/// A small FIFOMS-only sweep grid shared by the tests.
fn tiny_sweep(slots: u64) -> Sweep {
    Sweep {
        n: N,
        switches: vec![SwitchKind::Fifoms],
        points: vec![
            (0.4, TrafficKind::bernoulli_at_load(0.4, 0.2, N)),
            (0.8, TrafficKind::bernoulli_at_load(0.8, 0.2, N)),
        ],
        run: RunConfig::quick(slots),
        seed: 11,
    }
}

fn completed_rows(outcomes: &[CellOutcome]) -> Vec<&SweepRow> {
    outcomes
        .iter()
        .map(|o| o.row().expect("cell completed"))
        .collect()
}

/// Attaching a trace sink (or an explicitly disabled observer) must not
/// perturb results: the RunResults are bit-identical to the untraced run.
#[test]
fn tracing_does_not_change_results() {
    let sweep = tiny_sweep(2_000);
    let policy = CellPolicy::isolated();

    let plain = sweep.run_robust(2, &policy);
    let disabled = sweep.run_robust_observed(2, &policy, &SweepObserver::disabled());
    let rec = Arc::new(RecordingSink::new());
    let observer = SweepObserver {
        trace: Some(rec.clone() as Arc<dyn EventSink>),
        ..SweepObserver::disabled()
    };
    let traced = sweep.run_robust_observed(2, &policy, &observer);

    assert!(!rec.is_empty(), "traced run recorded no events");
    for ((a, b), c) in completed_rows(&plain)
        .iter()
        .zip(completed_rows(&disabled))
        .zip(completed_rows(&traced))
    {
        assert_eq!(format!("{:?}", a.result), format!("{:?}", b.result));
        assert_eq!(format!("{:?}", a.result), format!("{:?}", c.result));
    }
}

/// A JSONL trace written by the engine parses line-by-line, starts with a
/// self-describing `run_meta` record (workload parameters included), and
/// its per-slot records carry the scheduler dynamics fields.
#[test]
fn jsonl_trace_round_trips() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("fifoms-obs-trace-{}.jsonl", std::process::id()));

    {
        let file = std::fs::File::create(&path).expect("create trace file");
        let sink = JsonlSink::new(std::io::BufWriter::new(file));
        let mut sw = InstrumentedSwitch::new(SwitchKind::Fifoms.build(N, 1));
        let mut tr = TrafficKind::bernoulli_at_load(0.6, 0.2, N).build(N, 2);
        let mut obs = Observer {
            sink: Some((&sink, "FIFOMS@0.6")),
            profiler: None,
            telemetry: None,
        };
        run(
            &mut sw,
            tr.as_mut(),
            &RunConfig::quick(2_000),
            &mut obs,
            None,
            &mut (),
        )
        .expect("traced run");
        sink.flush();
        assert_eq!(sink.write_errors(), 0);
    }

    let text = std::fs::read_to_string(&path).expect("read trace back");
    std::fs::remove_file(&path).ok();
    let mut metas = 0u32;
    let mut scheds = 0u64;
    let mut run_ends = 0u32;
    for line in text.lines() {
        let doc = Json::parse(line).unwrap_or_else(|e| panic!("unparseable line `{line}`: {e}"));
        assert_eq!(
            doc.get("scope").and_then(Json::as_str),
            Some("FIFOMS@0.6"),
            "every record carries its cell scope"
        );
        match doc.get("event").and_then(Json::as_str).expect("event tag") {
            "run_meta" => {
                metas += 1;
                assert_eq!(doc.get("switch").and_then(Json::as_str), Some("FIFOMS"));
                assert_eq!(
                    doc.get("ports").and_then(Json::as_f64),
                    Some(N as f64),
                    "run_meta carries the switch size"
                );
                let params = doc.get("params").expect("workload params");
                assert!(
                    params.get("p").and_then(Json::as_f64).is_some(),
                    "run_meta is self-describing (carries the Bernoulli p)"
                );
            }
            "slot_sched" => {
                scheds += 1;
                for field in ["slot", "rounds", "connections", "backlog_packets"] {
                    assert!(
                        doc.get(field).and_then(Json::as_f64).is_some(),
                        "slot_sched record missing `{field}`: {line}"
                    );
                }
                let rounds = doc.get("rounds").and_then(Json::as_f64).unwrap();
                let connections = doc.get("connections").and_then(Json::as_f64).unwrap();
                assert!(rounds <= N as f64, "FIFOMS needs at most N rounds");
                if connections > 0.0 {
                    assert!(rounds >= 1.0, "a matched slot took at least one round");
                }
            }
            "run_end" => {
                run_ends += 1;
                let slots_run = doc.get("slots_run").and_then(Json::as_f64);
                assert_eq!(slots_run, Some(2_000.0), "run_end reports the slots run");
            }
            other => panic!("unexpected event kind `{other}` in an un-faulted run"),
        }
    }
    assert_eq!(metas, 1, "exactly one run_meta per run");
    assert_eq!(run_ends, 1, "exactly one run_end per run");
    assert!(scheds > 500, "expected per-slot records, got {scheds}");
}

/// With an explicit iteration cap, every traced slot stays within the
/// cap — and matched slots still report at least one round.
#[test]
fn traced_rounds_respect_explicit_cap() {
    const CAP: u32 = 2;
    let sweep = Sweep {
        switches: vec![SwitchKind::FifomsMaxRounds(CAP)],
        points: vec![(0.9, TrafficKind::bernoulli_at_load(0.9, 0.2, N))],
        ..tiny_sweep(2_000)
    };
    let rec = Arc::new(RecordingSink::new());
    let observer = SweepObserver {
        trace: Some(rec.clone() as Arc<dyn EventSink>),
        ..SweepObserver::disabled()
    };
    let outcomes = sweep.run_robust_observed(1, &CellPolicy::isolated(), &observer);
    assert!(outcomes.iter().all(|o| o.row().is_some()));

    let mut matched_slots = 0u64;
    for (_, event) in rec.events() {
        if let ObsEvent::SlotSched {
            rounds,
            connections,
            ..
        } = event
        {
            assert!(rounds <= CAP, "round cap violated: {rounds} > {CAP}");
            if connections > 0 {
                assert!(rounds >= 1);
                matched_slots += 1;
            }
        }
    }
    assert!(matched_slots > 500, "high-load run should match most slots");
}

/// Attaching a span profiler (stride 1: every slot timed) must not
/// perturb results either — the profiled run is bit-identical to the
/// plain run, while the profiler still captures the engine phases, the
/// switch's nested scheduling sub-spans, and the slot-time histogram.
#[test]
fn profiler_attachment_is_bit_identical() {
    let cfg = RunConfig::quick(2_000);
    let mut sw = InstrumentedSwitch::new(SwitchKind::Fifoms.build(N, 7));
    let mut tr = TrafficKind::bernoulli_at_load(0.7, 0.2, N).build(N, 9);
    let plain = try_simulate(&mut sw, tr.as_mut(), &cfg).expect("plain run");

    let mut sw = InstrumentedSwitch::new(SwitchKind::Fifoms.build(N, 7));
    let mut tr = TrafficKind::bernoulli_at_load(0.7, 0.2, N).build(N, 9);
    let mut prof = PhaseProfiler::new();
    let mut obs = Observer {
        sink: None,
        profiler: Some((&mut prof, 1)),
        telemetry: None,
    };
    let profiled = run(&mut sw, tr.as_mut(), &cfg, &mut obs, None, &mut ()).expect("profiled run");

    assert_eq!(format!("{plain:?}"), format!("{profiled:?}"));

    let sched = prof.stats("schedule").expect("schedule phase timed");
    assert!(sched.calls > 0);
    for sub in ["voq_scan", "request", "grant", "commit"] {
        let calls = prof.stats(sub).map_or(0, |s| s.calls);
        assert!(calls > 0, "profiled run missing nested sub-span `{sub}`");
    }
    assert!(prof.slot_times().count() > 0, "slot-time histogram empty");
}

/// Names for randomly generated span trees. Repeats are deliberate: the
/// same name may recur at several depths, exercising the profiler's
/// `(parent, name)` node identity.
const SPAN_NAMES: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];

/// Interpret `codes` as a pre-order walk: values < 4 open a (possibly
/// nested) span, values >= 4 close the current one. Depth is capped so
/// every generated tree stays small and balanced.
fn drive_span_tree(p: &mut PhaseProfiler, codes: &[u8], pos: &mut usize, depth: usize) {
    while *pos < codes.len() {
        let c = codes[*pos];
        *pos += 1;
        if depth > 0 && c >= 4 {
            return;
        }
        let name = SPAN_NAMES[usize::from(c) % SPAN_NAMES.len()];
        p.enter(name);
        if depth < 3 {
            drive_span_tree(p, codes, pos, depth + 1);
        }
        p.exit(name);
    }
}

proptest::proptest! {
    /// For any span tree, every parent's inclusive time decomposes
    /// exactly: inclusive == exclusive + Σ direct children's inclusive.
    /// Verified through the snapshot's `path`/`depth` fields, so the
    /// public artifact format carries enough structure to audit the
    /// books, not just the in-memory tree.
    #[test]
    fn prop_span_tree_time_decomposes_exactly(
        codes in proptest::collection::vec(0u8..6, 1..48),
    ) {
        let mut p = PhaseProfiler::new();
        let mut pos = 0;
        drive_span_tree(&mut p, &codes, &mut pos, 0);
        proptest::prop_assert_eq!(p.depth(), 0, "walk left spans open");

        let snap = p.snapshot();
        let spans: Vec<(String, u64, u64)> = snap
            .as_arr()
            .expect("snapshot is an array")
            .iter()
            .map(|o| {
                (
                    o.get("path").and_then(Json::as_str).expect("path").to_string(),
                    o.get("inclusive_ns").and_then(Json::as_f64).expect("inclusive") as u64,
                    o.get("exclusive_ns").and_then(Json::as_f64).expect("exclusive") as u64,
                )
            })
            .collect();

        for (path, inclusive, exclusive) in &spans {
            // Direct children are exactly one path segment deeper.
            let prefix = format!("{path}/");
            let child_sum: u64 = spans
                .iter()
                .filter(|(p2, _, _)| {
                    p2.strip_prefix(&prefix).is_some_and(|rest| !rest.contains('/'))
                })
                .map(|&(_, inc, _)| inc)
                .sum();
            proptest::prop_assert!(
                exclusive + child_sum <= *inclusive,
                "children overflow parent at {path}: excl {exclusive} + children {child_sum} > incl {inclusive}"
            );
            proptest::prop_assert_eq!(
                exclusive + child_sum,
                *inclusive,
                "unattributed time at {}",
                path
            );
        }
    }
}

/// Fault injection shows up in the trace: masked arrivals are recorded
/// with their firing slot and input port, and the run still completes.
#[test]
fn fault_injection_emits_masked_events() {
    let slots = 4_000;
    let sweep = Sweep {
        points: vec![(0.6, TrafficKind::bernoulli_at_load(0.6, 0.2, N))],
        ..tiny_sweep(slots)
    };
    let policy = CellPolicy {
        faults: Some(FaultConfig::moderate(3)),
        ..CellPolicy::isolated()
    };
    let rec = Arc::new(RecordingSink::new());
    let observer = SweepObserver {
        trace: Some(rec.clone() as Arc<dyn EventSink>),
        ..SweepObserver::disabled()
    };
    let outcomes = sweep.run_robust_observed(1, &policy, &observer);
    assert!(outcomes.iter().all(|o| o.row().is_some()));

    let faults: Vec<(String, ObsEvent)> = rec
        .events()
        .into_iter()
        .filter(|(_, e)| matches!(e, ObsEvent::FaultMasked { .. }))
        .collect();
    assert!(
        !faults.is_empty(),
        "moderate fault schedule should mask at least one arrival"
    );
    for (scope, event) in &faults {
        assert_eq!(scope, "FIFOMS@0.6");
        let ObsEvent::FaultMasked {
            slot,
            input,
            copies_dropped,
            ..
        } = event
        else {
            unreachable!()
        };
        assert!(slot.0 < slots, "fault fired inside the run: slot {slot:?}");
        assert!(input.index() < N);
        assert!(*copies_dropped >= 1);
    }
}

//! Integration tests for the live-telemetry layer: windowed counters
//! must sum exactly to the run's end-of-run aggregates at every window
//! stride, window boundaries must tile the run with no gaps or overlap,
//! and attaching the full telemetry stack (time-series sink + snapshot
//! bus, stride 1: a window per slot) must leave the simulation result
//! bit-identical to the plain run.

use std::sync::Arc;

use fifoms::prelude::*;

const N: usize = 8;
const SLOTS: u64 = 2_000;

/// Run one FIFOMS cell with a time-series sink attached at `stride`
/// and return the result plus everything the sink saw. Warmup is zero
/// so `copies_delivered` covers the whole run, same as the windows.
fn run_with_series(stride: u64) -> (RunResult, Vec<(String, ObsEvent)>) {
    let cfg = RunConfig {
        warmup: 0,
        ..RunConfig::quick(SLOTS)
    };
    let mut sw = InstrumentedSwitch::new(SwitchKind::Fifoms.build(N, 3));
    let mut tr = TrafficKind::bernoulli_at_load(0.7, 0.2, N).build(N, 5);
    let rec = Arc::new(RecordingSink::new());
    let spec = TelemetrySpec {
        series: Some(rec.clone() as Arc<dyn EventSink>),
        ..TelemetrySpec::new(stride)
    };
    let mut telemetry = spec.new_telemetry(N);
    let mut obs = Observer {
        sink: None,
        profiler: None,
        telemetry: Some(spec.channel(&mut telemetry, "cell")),
    };
    let result = run(&mut sw, tr.as_mut(), &cfg, &mut obs, None, &mut ()).expect("telemetry run");
    (result, rec.events())
}

/// The conservation property the windows exist for: at every stride —
/// including one window per slot and one window for the whole run —
/// the per-window counters tile the run contiguously and sum exactly
/// to the engine's end-of-run aggregates.
#[test]
fn windows_tile_the_run_and_sum_to_the_aggregates() {
    for stride in [1, 3, 7, 64, 1_000] {
        let (result, events) = run_with_series(stride);
        assert_eq!(result.slots_run, SLOTS, "stride {stride}: run completed");

        let metas = events
            .iter()
            .filter(|(_, e)| matches!(e, ObsEvent::WindowMeta { .. }))
            .count();
        assert_eq!(metas, 1, "stride {stride}: exactly one window_meta");
        match &events.first().expect("stream non-empty").1 {
            ObsEvent::WindowMeta {
                stride: s, ports, ..
            } => {
                assert_eq!(*s, stride, "meta leads the stream with the stride");
                assert_eq!(*ports as usize, N);
            }
            other => panic!("stream must start with window_meta, got {other:?}"),
        }

        let mut next_window = 0u64;
        let mut next_start = 0u64;
        let mut admitted = 0u64;
        let mut delivered = 0u64;
        let mut completed = 0u64;
        for (scope, event) in &events {
            let ObsEvent::WindowSummary {
                window,
                start_slot,
                slots,
                admitted_packets,
                delivered_copies,
                completed_packets,
                ..
            } = event
            else {
                continue;
            };
            assert_eq!(scope, "cell");
            assert_eq!(*window, next_window, "stride {stride}: windows in order");
            assert_eq!(*start_slot, next_start, "stride {stride}: no gap/overlap");
            assert!(*slots > 0 && *slots <= stride, "stride {stride}: slot count");
            next_window += 1;
            next_start += slots;
            admitted += admitted_packets;
            delivered += delivered_copies;
            completed += completed_packets;
        }
        assert_eq!(next_start, SLOTS, "stride {stride}: windows cover every slot");
        assert_eq!(next_window, SLOTS.div_ceil(stride), "stride {stride}: count");
        assert_eq!(
            admitted, result.packets_admitted,
            "stride {stride}: windowed admissions sum to the aggregate"
        );
        assert_eq!(
            delivered, result.copies_delivered,
            "stride {stride}: windowed deliveries sum to the aggregate"
        );
        assert!(
            completed <= result.packets_admitted,
            "stride {stride}: completions cannot exceed admissions"
        );
    }
}

/// Attaching the *full* telemetry stack at the most intrusive setting —
/// stride 1, so a window closes (and the snapshot bus publishes) after
/// every single slot — must leave the RunResult bit-identical to the
/// plain, unobserved run. This is the invariant that makes telemetry
/// safe to leave on in production campaigns.
#[test]
fn full_telemetry_at_stride_one_is_bit_identical() {
    let cfg = RunConfig::quick(SLOTS);
    let mut sw = InstrumentedSwitch::new(SwitchKind::Fifoms.build(N, 7));
    let mut tr = TrafficKind::bernoulli_at_load(0.8, 0.2, N).build(N, 9);
    let plain = try_simulate(&mut sw, tr.as_mut(), &cfg).expect("plain run");

    let dir = std::env::temp_dir();
    let snap = dir.join(format!("fifoms-tele-snap-{}.json", std::process::id()));
    let prom = dir.join(format!("fifoms-tele-{}.prom", std::process::id()));
    let rec = Arc::new(RecordingSink::new());
    let bus = Arc::new(SnapshotBus::new(Some(snap.clone()), Some(prom.clone())));
    let spec = TelemetrySpec {
        series: Some(rec.clone() as Arc<dyn EventSink>),
        bus: Some(bus.clone()),
        window: 1,
    };
    let mut telemetry = spec.new_telemetry(N);
    let mut sw = InstrumentedSwitch::new(SwitchKind::Fifoms.build(N, 7));
    let mut tr = TrafficKind::bernoulli_at_load(0.8, 0.2, N).build(N, 9);
    let mut obs = Observer {
        sink: None,
        profiler: None,
        telemetry: Some(spec.channel(&mut telemetry, "cell")),
    };
    let observed = run(&mut sw, tr.as_mut(), &cfg, &mut obs, None, &mut ()).expect("observed run");

    assert_eq!(format!("{plain:?}"), format!("{observed:?}"));
    assert!(!rec.is_empty(), "stride-1 run recorded no windows");
    assert_eq!(bus.write_errors(), 0, "snapshot publication failed");

    // The final snapshot on disk is the complete picture of the run.
    let text = std::fs::read_to_string(&snap).expect("snapshot written");
    std::fs::remove_file(&snap).ok();
    let doc = Json::parse(&text).expect("snapshot parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("fifoms-telemetry-snapshot-v1")
    );
    let cell = doc
        .get("scopes")
        .and_then(|s| s.get("cell"))
        .expect("our scope published");
    assert_eq!(cell.get("complete"), Some(&Json::Bool(true)));
    assert_eq!(
        cell.get("slots").and_then(Json::as_f64),
        Some(SLOTS as f64),
        "snapshot covers the whole run"
    );
    // Telemetry covers every slot; `copies_delivered` excludes warmup,
    // so compare against the whole-run admission aggregate instead.
    assert_eq!(
        cell.get("totals")
            .and_then(|t| t.get("admitted_packets"))
            .and_then(Json::as_f64),
        Some(observed.packets_admitted as f64),
        "snapshot totals match the run result"
    );

    let prom_text = std::fs::read_to_string(&prom).expect("prometheus written");
    std::fs::remove_file(&prom).ok();
    assert!(
        prom_text.contains("fifoms_slots_total{scope=\"cell\"}"),
        "exposition carries the scoped counter: {prom_text}"
    );
}

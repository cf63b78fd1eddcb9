//! Event sinks: where [`ObsEvent`]s go.
//!
//! A sink receives `(scope, event)` pairs, where `scope` identifies the
//! run the event belongs to (for a single run it is the switch label; for
//! a sweep it is `"<switch>@<load>"` so one JSONL file can hold a whole
//! grid). Sinks take `&self` and must be `Send + Sync`: the sweep runner
//! shares one sink across worker threads behind an `Arc`.
//!
//! [`NullSink`] is the disabled default — every call is an empty inlined
//! body, so the instrumented paths cost nothing beyond the events they
//! chose not to construct. [`RecordingSink`] buffers in memory for tests;
//! [`JsonlSink`] streams one JSON object per line to a writer.

use crate::json::Json;
use fifoms_types::ObsEvent;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A consumer of observability events.
pub trait EventSink: Send + Sync {
    /// Accept one event from the run identified by `scope`.
    fn emit(&self, scope: &str, event: &ObsEvent);

    /// Flush any buffered output (default: nothing to do).
    fn flush(&self) {}
}

/// The disabled sink: discards everything.
#[derive(Clone, Copy, Default, Debug)]
pub struct NullSink;

impl EventSink for NullSink {
    #[inline(always)]
    fn emit(&self, _scope: &str, _event: &ObsEvent) {}
}

/// An in-memory sink for tests and programmatic inspection.
#[derive(Default, Debug)]
pub struct RecordingSink {
    events: Mutex<Vec<(String, ObsEvent)>>,
}

impl RecordingSink {
    /// A new, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of all `(scope, event)` pairs received so far.
    pub fn events(&self) -> Vec<(String, ObsEvent)> {
        self.events.lock().expect("recording sink poisoned").clone()
    }

    /// Number of events received so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("recording sink poisoned").len()
    }

    /// Whether no events have been received.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for RecordingSink {
    fn emit(&self, scope: &str, event: &ObsEvent) {
        self.events
            .lock()
            .expect("recording sink poisoned")
            .push((scope.to_string(), event.clone()));
    }
}

/// A writer adapter that counts every byte successfully written through
/// it, readable from outside via a shared [`TraceOffset`] handle.
///
/// The crash-recovery checkpoint (DESIGN.md §15) wraps the trace writer in
/// one of these *before* handing it to [`JsonlSink`], so the engine can
/// capture the exact trace byte offset at each checkpoint without a way to
/// reach inside the sink's mutex: on recovery, the trace file is truncated
/// back to the recorded offset and resumed append-only, keeping the
/// recovered trace bit-identical to an uninterrupted run's.
pub struct CountingWriter<W> {
    inner: W,
    written: TraceOffset,
}

/// Shared byte counter of a [`CountingWriter`] (clone freely).
#[derive(Clone, Default, Debug)]
pub struct TraceOffset(Arc<AtomicU64>);

impl TraceOffset {
    /// Bytes written through the owning [`CountingWriter`] so far. The
    /// caller flushes the sink first; the counter advances when bytes
    /// reach the wrapped writer.
    pub fn bytes(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

impl<W: Write> CountingWriter<W> {
    /// Wrap `inner`, returning the writer and its offset handle.
    pub fn new(inner: W) -> (CountingWriter<W>, TraceOffset) {
        let written = TraceOffset::default();
        (
            CountingWriter {
                inner,
                written: written.clone(),
            },
            written,
        )
    }
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written.0.fetch_add(n as u64, Ordering::AcqRel);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Streams events as JSON Lines: one compact object per event.
///
/// Write errors are counted, not propagated — tracing must never abort a
/// simulation. Check [`JsonlSink::write_errors`] after the run if the
/// trace file matters.
pub struct JsonlSink<W: Write + Send> {
    inner: Mutex<JsonlInner<W>>,
}

struct JsonlInner<W> {
    writer: W,
    write_errors: u64,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wrap a writer (typically a `BufWriter<File>`).
    pub fn new(writer: W) -> Self {
        Self {
            inner: Mutex::new(JsonlInner {
                writer,
                write_errors: 0,
            }),
        }
    }

    /// Number of lines that failed to write.
    pub fn write_errors(&self) -> u64 {
        self.inner.lock().expect("jsonl sink poisoned").write_errors
    }
}

impl<W: Write + Send> Drop for JsonlSink<W> {
    /// Flush the underlying writer when the sink is dropped, so a run
    /// killed mid-campaign (watchdog abort, ctrl-C unwinding, a panicking
    /// cell) leaves a parseable partial trace instead of losing whatever
    /// sat in the `BufWriter`. A poisoned mutex (a cell panicked while
    /// emitting) is recovered rather than propagated: the sink holds only
    /// counters and a writer, both valid at any interruption point.
    fn drop(&mut self) {
        let inner = self
            .inner
            .get_mut()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let _ = inner.writer.flush();
    }
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn emit(&self, scope: &str, event: &ObsEvent) {
        let line = event_to_json(scope, event).to_string();
        let mut inner = self.inner.lock().expect("jsonl sink poisoned");
        if writeln!(inner.writer, "{line}").is_err() {
            inner.write_errors += 1;
        }
    }

    fn flush(&self) {
        let mut inner = self.inner.lock().expect("jsonl sink poisoned");
        if inner.writer.flush().is_err() {
            inner.write_errors += 1;
        }
    }
}

/// Render one event as the JSONL object written by [`JsonlSink`].
///
/// Every line carries `event` (the kind tag) and `scope`; slot-scoped
/// events carry `slot`. The remaining fields are kind-specific and match
/// the field names of [`ObsEvent`].
pub fn event_to_json(scope: &str, event: &ObsEvent) -> Json {
    let mut obj = Json::object();
    obj.set("event", event.kind());
    obj.set("scope", scope);
    if let Some(slot) = event.slot() {
        obj.set("slot", slot.0);
    }
    match event {
        ObsEvent::RunMeta {
            switch,
            traffic,
            ports,
            params,
        } => {
            obj.set("switch", switch.as_str());
            obj.set("traffic", traffic.as_str());
            obj.set("ports", *ports);
            let mut p = Json::object();
            for (name, value) in params {
                p.set(name, *value);
            }
            obj.set("params", p);
        }
        ObsEvent::SlotSched {
            slot: _,
            active_ports,
            matched_inputs,
            rounds,
            connections,
            multicast_inputs,
            fanout_splits,
            completed_packets,
            backlog_packets,
            backlog_copies,
            oldest_age,
        } => {
            obj.set("active_ports", *active_ports);
            obj.set("matched_inputs", *matched_inputs);
            obj.set("rounds", *rounds);
            obj.set("connections", *connections);
            obj.set("multicast_inputs", *multicast_inputs);
            obj.set("fanout_splits", *fanout_splits);
            obj.set("completed_packets", *completed_packets);
            obj.set("backlog_packets", *backlog_packets);
            obj.set("backlog_copies", *backlog_copies);
            obj.set("oldest_age", *oldest_age);
        }
        ObsEvent::FaultMasked {
            slot: _,
            input,
            copies_dropped,
            packet_dropped,
        } => {
            obj.set("input", u64::from(input.0));
            obj.set("copies_dropped", *copies_dropped);
            obj.set("packet_dropped", *packet_dropped);
        }
        ObsEvent::InvariantViolated { slot: _, detail } => {
            obj.set("detail", detail.as_str());
        }
        ObsEvent::RecorderMeta { mode, param } => {
            obj.set("mode", mode.as_str());
            obj.set("param", *param);
        }
        ObsEvent::PacketArrived {
            id,
            slot: _,
            input,
            fanout,
        } => {
            obj.set("id", id.0);
            obj.set("input", u64::from(input.0));
            obj.set("fanout", *fanout);
        }
        ObsEvent::CopySent {
            id,
            slot: _,
            output,
            split,
        } => {
            obj.set("id", id.0);
            obj.set("output", u64::from(output.0));
            obj.set("split", *split);
        }
        ObsEvent::PacketCompleted { id, slot: _ } => {
            obj.set("id", id.0);
        }
        ObsEvent::CopyKilled {
            slot: _,
            input,
            output,
            packet,
            requeued,
            retry,
        } => {
            obj.set("input", u64::from(input.0));
            obj.set("output", u64::from(output.0));
            obj.set("packet", packet.0);
            obj.set("requeued", *requeued);
            obj.set("retry", u64::from(*retry));
        }
        ObsEvent::CopyRecovered {
            slot: _,
            input,
            output,
            packet,
            kills,
            latency,
        } => {
            obj.set("input", u64::from(input.0));
            obj.set("output", u64::from(output.0));
            obj.set("packet", packet.0);
            obj.set("kills", u64::from(*kills));
            obj.set("latency", *latency);
        }
        ObsEvent::AdmissionDropped {
            slot: _,
            input,
            packet,
            copies,
            cause,
        } => {
            obj.set("input", u64::from(input.0));
            obj.set("packet", packet.0);
            obj.set("copies", u64::from(*copies));
            obj.set("cause", cause.as_str());
        }
        ObsEvent::VoqHighWater {
            slot: _,
            input,
            output,
            depth,
        } => {
            obj.set("input", u64::from(input.0));
            obj.set("output", u64::from(output.0));
            obj.set("depth", *depth);
        }
        ObsEvent::PhaseTimed {
            phase,
            calls,
            inclusive_ns,
            exclusive_ns,
        } => {
            obj.set("phase", phase.as_str());
            obj.set("calls", *calls);
            obj.set("inclusive_ns", *inclusive_ns);
            obj.set("exclusive_ns", *exclusive_ns);
        }
        ObsEvent::SlotTimeSummary {
            samples,
            p50_ns,
            p99_ns,
            p999_ns,
            max_ns,
        } => {
            obj.set("samples", *samples);
            obj.set("p50_ns", *p50_ns);
            obj.set("p99_ns", *p99_ns);
            obj.set("p999_ns", *p999_ns);
            obj.set("max_ns", *max_ns);
        }
        ObsEvent::WindowMeta {
            stride,
            ring,
            ports,
        } => {
            // The meta record opens a telemetry stream, so it carries the
            // artifact version tag the CI smoke greps for.
            obj.set("schema", "fifoms-timeseries-v1");
            obj.set("stride", *stride);
            obj.set("ring", u64::from(*ring));
            obj.set("ports", u64::from(*ports));
        }
        ObsEvent::WindowSummary {
            window,
            start_slot,
            slots,
            admitted_packets,
            delivered_copies,
            completed_packets,
            drop_tail_full,
            drop_pushout,
            drop_fair_shed,
            copy_kills,
            copy_recoveries,
            voq_high_water,
            backlog_copies,
            quarantined_paths,
            sched_ns,
            wall_ns,
        } => {
            obj.set("window", *window);
            obj.set("start_slot", *start_slot);
            obj.set("slots", *slots);
            obj.set("admitted_packets", *admitted_packets);
            obj.set("delivered_copies", *delivered_copies);
            obj.set("completed_packets", *completed_packets);
            obj.set("drop_tail_full", *drop_tail_full);
            obj.set("drop_pushout", *drop_pushout);
            obj.set("drop_fair_shed", *drop_fair_shed);
            obj.set("copy_kills", *copy_kills);
            obj.set("copy_recoveries", *copy_recoveries);
            obj.set("voq_high_water", *voq_high_water);
            obj.set("backlog_copies", *backlog_copies);
            obj.set("quarantined_paths", u64::from(*quarantined_paths));
            obj.set("sched_ns", *sched_ns);
            obj.set("wall_ns", *wall_ns);
        }
        ObsEvent::RunEnd { slots_run } => {
            obj.set("slots_run", *slots_run);
        }
        ObsEvent::CheckpointWritten {
            slot: _,
            seq,
            bytes,
        } => {
            obj.set("seq", *seq);
            obj.set("bytes", *bytes);
        }
        ObsEvent::RecoveryStarted { slot: _, seq } => {
            obj.set("seq", *seq);
        }
        ObsEvent::RecoveryCompleted { slot: _, replayed } => {
            obj.set("replayed", *replayed);
        }
    }
    obj
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifoms_types::{PortId, Slot};

    fn sample_sched() -> ObsEvent {
        ObsEvent::SlotSched {
            slot: Slot(42),
            active_ports: 5,
            matched_inputs: 4,
            rounds: 2,
            connections: 7,
            multicast_inputs: 2,
            fanout_splits: 1,
            completed_packets: 3,
            backlog_packets: 11,
            backlog_copies: 19,
            oldest_age: Some(6),
        }
    }

    #[test]
    fn recording_sink_keeps_order_and_scope() {
        let sink = RecordingSink::new();
        assert!(sink.is_empty());
        sink.emit("a", &sample_sched());
        sink.emit(
            "b",
            &ObsEvent::FaultMasked {
                slot: Slot(1),
                input: PortId(0),
                copies_dropped: 1,
                packet_dropped: false,
            },
        );
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].0, "a");
        assert_eq!(events[1].1.kind(), "fault_masked");
    }

    /// A writer whose backing buffer stays readable after the sink that
    /// owns it is dropped — `JsonlSink` implements `Drop`, so tests can
    /// no longer move the writer back out of it.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(buf.clone());
        sink.emit("FIFOMS@0.9", &sample_sched());
        sink.emit(
            "FIFOMS@0.9",
            &ObsEvent::RunMeta {
                switch: "FIFOMS".into(),
                traffic: "bernoulli".into(),
                ports: 16,
                params: vec![("p".into(), 0.3), ("b".into(), 0.2)],
            },
        );
        sink.flush();
        assert_eq!(sink.write_errors(), 0);
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let sched = Json::parse(lines[0]).unwrap();
        assert_eq!(sched.get("event").and_then(Json::as_str), Some("slot_sched"));
        assert_eq!(sched.get("slot").and_then(Json::as_f64), Some(42.0));
        assert_eq!(sched.get("rounds").and_then(Json::as_f64), Some(2.0));
        let meta = Json::parse(lines[1]).unwrap();
        assert_eq!(
            meta.get("params").and_then(|p| p.get("b")).and_then(Json::as_f64),
            Some(0.2)
        );
        assert_eq!(meta.get("slot"), None);
    }

    #[test]
    fn counting_writer_tracks_the_trace_byte_offset() {
        let buf = SharedBuf::default();
        let (writer, offset) = CountingWriter::new(buf.clone());
        let sink = JsonlSink::new(writer);
        assert_eq!(offset.bytes(), 0);
        sink.emit("run", &sample_sched());
        sink.flush();
        let after_one = offset.bytes();
        assert_eq!(after_one, buf.contents().len() as u64);
        sink.emit("run", &ObsEvent::RunEnd { slots_run: 7 });
        sink.flush();
        assert!(offset.bytes() > after_one);
        assert_eq!(offset.bytes(), buf.contents().len() as u64);
    }

    #[test]
    fn checkpoint_events_serialise_their_fields() {
        use fifoms_types::Slot;
        let j = event_to_json(
            "run",
            &ObsEvent::CheckpointWritten {
                slot: Slot(2000),
                seq: 2,
                bytes: 4096,
            },
        );
        assert_eq!(j.get("event").and_then(Json::as_str), Some("checkpoint_written"));
        assert_eq!(j.get("slot").and_then(Json::as_f64), Some(2000.0));
        assert_eq!(j.get("seq").and_then(Json::as_f64), Some(2.0));
        assert_eq!(j.get("bytes").and_then(Json::as_f64), Some(4096.0));
        let j = event_to_json("sup", &ObsEvent::RecoveryStarted { slot: Slot(2000), seq: 2 });
        assert_eq!(j.get("event").and_then(Json::as_str), Some("recovery_started"));
        let j = event_to_json(
            "sup",
            &ObsEvent::RecoveryCompleted {
                slot: Slot(2400),
                replayed: 400,
            },
        );
        assert_eq!(j.get("event").and_then(Json::as_str), Some("recovery_completed"));
        assert_eq!(j.get("replayed").and_then(Json::as_f64), Some(400.0));
    }

    #[test]
    fn dropping_an_unflushed_sink_flushes_buffered_lines() {
        let buf = SharedBuf::default();
        {
            // BufWriter with a capacity far above one line: nothing
            // reaches the backing buffer until a flush happens.
            let writer = std::io::BufWriter::with_capacity(1 << 20, buf.clone());
            let sink = JsonlSink::new(writer);
            sink.emit("kill@0.9", &sample_sched());
            sink.emit("kill@0.9", &ObsEvent::RunEnd { slots_run: 1 });
            assert_eq!(
                buf.contents().len(),
                0,
                "lines must still be buffered before the drop"
            );
            // No explicit flush: the sink goes out of scope as it would
            // when a watchdog abandons a cell mid-campaign.
        }
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "drop must flush the buffered tail");
        for line in lines {
            Json::parse(line).expect("every recovered line parses");
        }
    }

    #[test]
    fn telemetry_window_events_serialise_with_their_fields() {
        let meta = event_to_json(
            "s",
            &ObsEvent::WindowMeta {
                stride: 1000,
                ring: 64,
                ports: 16,
            },
        );
        assert_eq!(meta.get("event").and_then(Json::as_str), Some("window_meta"));
        assert_eq!(
            meta.get("schema").and_then(Json::as_str),
            Some("fifoms-timeseries-v1")
        );
        assert_eq!(meta.get("stride").and_then(Json::as_f64), Some(1000.0));
        assert_eq!(meta.get("slot"), None, "window_meta is run-scoped");
        let summary = event_to_json(
            "s",
            &ObsEvent::WindowSummary {
                window: 2,
                start_slot: 2000,
                slots: 1000,
                admitted_packets: 400,
                delivered_copies: 1600,
                completed_packets: 390,
                drop_tail_full: 7,
                drop_pushout: 1,
                drop_fair_shed: 0,
                copy_kills: 3,
                copy_recoveries: 2,
                voq_high_water: 64,
                backlog_copies: 123,
                quarantined_paths: 2,
                sched_ns: 500_000,
                wall_ns: 900_000,
            },
        );
        assert_eq!(
            summary.get("event").and_then(Json::as_str),
            Some("window_summary")
        );
        assert_eq!(summary.get("window").and_then(Json::as_f64), Some(2.0));
        assert_eq!(summary.get("delivered_copies").and_then(Json::as_f64), Some(1600.0));
        assert_eq!(summary.get("drop_tail_full").and_then(Json::as_f64), Some(7.0));
        assert_eq!(summary.get("quarantined_paths").and_then(Json::as_f64), Some(2.0));
        assert_eq!(summary.get("wall_ns").and_then(Json::as_f64), Some(900_000.0));
        let reparsed = Json::parse(&summary.to_string()).unwrap();
        assert_eq!(reparsed, summary);
    }

    #[test]
    fn packet_events_serialise_with_ids_and_slots() {
        use fifoms_types::PacketId;
        let sent = event_to_json(
            "s",
            &ObsEvent::CopySent {
                id: PacketId(31),
                slot: Slot(9),
                output: PortId(4),
                split: true,
            },
        );
        assert_eq!(sent.get("event").and_then(Json::as_str), Some("copy_sent"));
        assert_eq!(sent.get("slot").and_then(Json::as_f64), Some(9.0));
        assert_eq!(sent.get("id").and_then(Json::as_f64), Some(31.0));
        assert_eq!(sent.get("output").and_then(Json::as_f64), Some(4.0));
        assert_eq!(sent.get("split"), Some(&Json::Bool(true)));
        let end = event_to_json("s", &ObsEvent::RunEnd { slots_run: 500 });
        assert_eq!(end.get("slot"), None, "run_end is run-scoped");
        assert_eq!(end.get("slots_run").and_then(Json::as_f64), Some(500.0));
        let reparsed = Json::parse(&sent.to_string()).unwrap();
        assert_eq!(reparsed, sent);
    }

    #[test]
    fn overload_events_serialise_with_their_fields() {
        use fifoms_types::PacketId;
        let dropped = event_to_json(
            "s",
            &ObsEvent::AdmissionDropped {
                slot: Slot(3),
                input: PortId(1),
                packet: PacketId(7),
                copies: 2,
                cause: fifoms_types::DropCause::TailFull,
            },
        );
        assert_eq!(
            dropped.get("event").and_then(Json::as_str),
            Some("admission_dropped")
        );
        assert_eq!(dropped.get("copies").and_then(Json::as_f64), Some(2.0));
        assert_eq!(dropped.get("cause").and_then(Json::as_str), Some("tail_full"));
        let high = event_to_json(
            "s",
            &ObsEvent::VoqHighWater {
                slot: Slot(4),
                input: PortId(0),
                output: PortId(5),
                depth: 1024,
            },
        );
        assert_eq!(high.get("depth").and_then(Json::as_f64), Some(1024.0));
        let reparsed = Json::parse(&dropped.to_string()).unwrap();
        assert_eq!(reparsed, dropped);
    }

    #[test]
    fn profiler_events_serialise_with_their_fields() {
        let phase = event_to_json(
            "s",
            &ObsEvent::PhaseTimed {
                phase: "grant".into(),
                calls: 625,
                inclusive_ns: 10_000,
                exclusive_ns: 9_000,
            },
        );
        assert_eq!(phase.get("event").and_then(Json::as_str), Some("phase_timed"));
        assert_eq!(phase.get("slot"), None, "phase_timed is run-scoped");
        assert_eq!(phase.get("phase").and_then(Json::as_str), Some("grant"));
        assert_eq!(phase.get("calls").and_then(Json::as_f64), Some(625.0));
        assert_eq!(phase.get("inclusive_ns").and_then(Json::as_f64), Some(10_000.0));
        assert_eq!(phase.get("exclusive_ns").and_then(Json::as_f64), Some(9_000.0));
        let st = event_to_json(
            "s",
            &ObsEvent::SlotTimeSummary {
                samples: 625,
                p50_ns: 2048,
                p99_ns: 8192,
                p999_ns: 16384,
                max_ns: 20000,
            },
        );
        assert_eq!(st.get("event").and_then(Json::as_str), Some("slot_time"));
        assert_eq!(st.get("samples").and_then(Json::as_f64), Some(625.0));
        assert_eq!(st.get("p999_ns").and_then(Json::as_f64), Some(16384.0));
        assert_eq!(st.get("max_ns").and_then(Json::as_f64), Some(20000.0));
        let reparsed = Json::parse(&st.to_string()).unwrap();
        assert_eq!(reparsed, st);
    }

    #[test]
    fn oldest_age_none_serialises_as_null() {
        let mut event = sample_sched();
        if let ObsEvent::SlotSched { oldest_age, .. } = &mut event {
            *oldest_age = None;
        }
        let json = event_to_json("s", &event);
        assert_eq!(json.get("oldest_age"), Some(&Json::Null));
    }
}

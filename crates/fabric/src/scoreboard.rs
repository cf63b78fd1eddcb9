//! Per-input learning of dead egress paths from observed failures.

use fifoms_types::{PortId, Slot, StateError, StateReader, StateWriter};

/// A per-input fault scoreboard: which `(input, output)` paths have
/// recently killed a transmission.
///
/// Egress faults are invisible at admission — the line card only learns a
/// crosspoint or output is dead when a scheduled copy fails to traverse
/// it. The scoreboard records each observed failure and *quarantines* the
/// path for a fixed number of slots: while quarantined, FIFOMS request
/// generation skips the path, so scheduler iterations are not wasted on
/// grants that the fabric will kill anyway.
///
/// Quarantine uses **timed forgetting**: a mark expires `quarantine`
/// slots after the last failure, after which the path is re-probed by the
/// next scheduled copy. Recovered hardware therefore returns to service
/// automatically at the cost of one probe copy per expiry (which the
/// bounded retransmission path absorbs); a still-dead path re-marks
/// itself on that probe.
///
/// The scoreboard is deliberately *pessimistic only about what it saw*:
/// it never marks a path without an observed kill, so with fault
/// injection disabled it stays empty and [`FaultScoreboard::is_empty`]
/// lets the scheduler skip consulting it entirely — the unfaulted path
/// stays bit-identical.
#[derive(Clone, Debug)]
pub struct FaultScoreboard {
    ports: usize,
    /// Last observed failure slot per `input * ports + output`; `None`
    /// means the path has never failed (or the mark was cleared).
    last_failure: Vec<Option<Slot>>,
    /// Slots a mark stays effective after its last failure.
    quarantine: u64,
    /// Number of `Some` marks (fast emptiness check; expired marks still
    /// count until overwritten, so emptiness is conservative).
    marks: usize,
}

impl FaultScoreboard {
    /// A scoreboard for an `n × n` switch quarantining failed paths for
    /// `quarantine` slots.
    pub fn new(n: usize, quarantine: u64) -> FaultScoreboard {
        FaultScoreboard {
            ports: n,
            last_failure: vec![None; n * n],
            quarantine,
            marks: 0,
        }
    }

    fn idx(&self, input: PortId, output: PortId) -> usize {
        debug_assert!(
            input.index() < self.ports && output.index() < self.ports,
            "port outside the N*N scoreboard grid"
        );
        input.index() * self.ports + output.index()
    }

    /// The configured quarantine window in slots.
    pub fn quarantine_slots(&self) -> u64 {
        self.quarantine
    }

    /// Whether no failure has ever been recorded (conservative: expired
    /// marks keep this `false` until the path is re-proved live).
    pub fn is_empty(&self) -> bool {
        self.marks == 0
    }

    /// Record a kill observed on `(input, output)` at `slot`.
    pub fn record_failure(&mut self, input: PortId, output: PortId, slot: Slot) {
        let i = self.idx(input, output);
        if self.last_failure[i].is_none() {
            self.marks += 1;
        }
        self.last_failure[i] = Some(slot);
    }

    /// Record a successful traversal of `(input, output)`: clear any mark
    /// so the path returns to full service immediately.
    pub fn record_success(&mut self, input: PortId, output: PortId) {
        let i = self.idx(input, output);
        if self.last_failure[i].take().is_some() {
            self.marks -= 1;
        }
    }

    /// Whether `(input, output)` is quarantined at `now`: a failure was
    /// recorded within the last `quarantine` slots. Expired marks report
    /// `false` (timed forgetting), so the path will be re-probed.
    pub fn is_quarantined(&self, input: PortId, output: PortId, now: Slot) -> bool {
        match self.last_failure[self.idx(input, output)] {
            Some(last) => now.0.saturating_sub(last.0) < self.quarantine,
            None => false,
        }
    }

    /// Serialise every mark — including *expired* ones. An expired mark
    /// still counts toward [`FaultScoreboard::is_empty`], which gates
    /// whether the scheduler consults the scoreboard at all, so dropping
    /// expired marks on restore would change the schedule path taken.
    pub fn write_state(&self, w: &mut StateWriter) {
        w.put_usize(self.last_failure.len());
        for mark in &self.last_failure {
            w.put_opt_u64(mark.map(|s| s.0));
        }
        w.put_usize(self.marks);
    }

    /// Restore state captured by [`FaultScoreboard::write_state`] into a
    /// scoreboard configured with the same `n` and quarantine window.
    pub fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let count = r.get_usize()?;
        if count != self.last_failure.len() {
            return Err(StateError::Malformed {
                what: format!(
                    "scoreboard has {} paths, snapshot has {count}",
                    self.last_failure.len()
                ),
            });
        }
        let mut marks = 0usize;
        let mut last_failure = Vec::with_capacity(count);
        for _ in 0..count {
            let mark = r.get_opt_u64()?.map(Slot);
            if mark.is_some() {
                marks += 1;
            }
            last_failure.push(mark);
        }
        let stored_marks = r.get_usize()?;
        if stored_marks != marks {
            return Err(StateError::Malformed {
                what: format!("scoreboard mark count {stored_marks} != {marks} marks"),
            });
        }
        self.last_failure = last_failure;
        self.marks = marks;
        Ok(())
    }

    /// All paths quarantined at `now`, for scoreboard-accuracy probes.
    pub fn quarantined_paths(&self, now: Slot) -> Vec<(PortId, PortId)> {
        let mut out = Vec::new();
        self.quarantined_paths_into(now, &mut out);
        out
    }

    /// Append all paths quarantined at `now` to `out` in ascending
    /// `(input, output)` order, without clearing it. The allocation-free
    /// form behind [`Switch::quarantined_paths`](crate::Switch): live
    /// telemetry polls it at window close with a pre-sized buffer.
    pub fn quarantined_paths_into(&self, now: Slot, out: &mut Vec<(PortId, PortId)>) {
        for i in 0..self.ports {
            for o in 0..self.ports {
                let (i, o) = (PortId::new(i), PortId::new(o));
                if self.is_quarantined(i, o, now) {
                    out.push((i, o));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_and_unquarantined() {
        let sb = FaultScoreboard::new(4, 100);
        assert!(sb.is_empty());
        assert!(!sb.is_quarantined(PortId(0), PortId(1), Slot(0)));
        assert!(sb.quarantined_paths(Slot(0)).is_empty());
    }

    #[test]
    fn failure_quarantines_until_timed_forgetting() {
        let mut sb = FaultScoreboard::new(4, 100);
        sb.record_failure(PortId(1), PortId(2), Slot(50));
        assert!(!sb.is_empty());
        assert!(sb.is_quarantined(PortId(1), PortId(2), Slot(50)));
        assert!(sb.is_quarantined(PortId(1), PortId(2), Slot(149)));
        // Mark expires: the path is re-probed, not dead forever.
        assert!(!sb.is_quarantined(PortId(1), PortId(2), Slot(150)));
        // Other paths are unaffected.
        assert!(!sb.is_quarantined(PortId(2), PortId(1), Slot(60)));
    }

    #[test]
    fn repeated_failures_extend_the_window() {
        let mut sb = FaultScoreboard::new(4, 100);
        sb.record_failure(PortId(0), PortId(0), Slot(0));
        sb.record_failure(PortId(0), PortId(0), Slot(90));
        assert!(sb.is_quarantined(PortId(0), PortId(0), Slot(150)));
        assert!(!sb.is_quarantined(PortId(0), PortId(0), Slot(190)));
    }

    #[test]
    fn success_clears_the_mark() {
        let mut sb = FaultScoreboard::new(4, 100);
        sb.record_failure(PortId(3), PortId(1), Slot(10));
        sb.record_success(PortId(3), PortId(1));
        assert!(sb.is_empty());
        assert!(!sb.is_quarantined(PortId(3), PortId(1), Slot(11)));
        // Clearing an unmarked path is a no-op.
        sb.record_success(PortId(3), PortId(1));
        assert!(sb.is_empty());
    }

    #[test]
    fn quarantined_paths_lists_active_marks_only() {
        let mut sb = FaultScoreboard::new(3, 10);
        sb.record_failure(PortId(0), PortId(2), Slot(0));
        sb.record_failure(PortId(1), PortId(1), Slot(5));
        assert_eq!(
            sb.quarantined_paths(Slot(7)),
            vec![(PortId(0), PortId(2)), (PortId(1), PortId(1))]
        );
        // First mark expired at slot 10, second at 15.
        assert_eq!(sb.quarantined_paths(Slot(12)), vec![(PortId(1), PortId(1))]);
    }

    #[test]
    fn quarantined_paths_into_appends_without_clearing() {
        let mut sb = FaultScoreboard::new(2, 10);
        assert_eq!(sb.quarantine_slots(), 10);
        sb.record_failure(PortId(1), PortId(0), Slot(3));
        let mut out = vec![(PortId(9), PortId(9))];
        sb.quarantined_paths_into(Slot(4), &mut out);
        assert_eq!(out, vec![(PortId(9), PortId(9)), (PortId(1), PortId(0))]);
        sb.quarantined_paths_into(Slot(13), &mut out);
        assert_eq!(out.len(), 2, "an expired mark appends nothing");
    }

    #[test]
    fn state_keeps_expired_marks_and_refuses_inconsistent_snapshots() {
        let mut sb = FaultScoreboard::new(2, 10);
        sb.record_failure(PortId(0), PortId(1), Slot(0));
        sb.record_failure(PortId(1), PortId(1), Slot(20));
        let mut w = StateWriter::new();
        sb.write_state(&mut w);
        let bytes = w.into_bytes();

        let mut back = FaultScoreboard::new(2, 10);
        back.read_state(&mut StateReader::new(&bytes))
            .expect("restore");
        // The slot-0 mark has expired at slot 25 but still counts: the
        // scheduler keeps consulting the scoreboard, as before the save.
        assert!(!back.is_empty());
        assert_eq!(
            back.quarantined_paths(Slot(25)),
            vec![(PortId(1), PortId(1))]
        );
        back.record_success(PortId(1), PortId(1));
        assert!(!back.is_empty(), "the expired mark survived the restore");
        back.record_success(PortId(0), PortId(1));
        assert!(back.is_empty());

        let err = FaultScoreboard::new(3, 10)
            .read_state(&mut StateReader::new(&bytes))
            .unwrap_err();
        assert!(matches!(err, StateError::Malformed { .. }), "{err}");
        // The trailing mark count disagrees with the marks listed.
        let mut tampered = bytes.clone();
        let n = tampered.len();
        tampered[n - 8..].copy_from_slice(&3u64.to_le_bytes());
        let err = FaultScoreboard::new(2, 10)
            .read_state(&mut StateReader::new(&tampered))
            .unwrap_err();
        assert!(
            matches!(&err, StateError::Malformed { what } if what.contains("mark count 3")),
            "{err}"
        );
    }
}

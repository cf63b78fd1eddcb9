//! Checkpoint journals for resumable sweeps.
//!
//! A journal is an append-only log in the arrival WAL's framing,
//! `u32 len | payload | u32 crc32(payload)` (the sealing function and the
//! valid-prefix reader live in [`crate::recover`]), with every payload
//! encoded by the checkpoint codec ([`StateWriter`]/[`StateReader`]). It
//! is written as a sweep runs, one record per completed cell, and read on
//! `--resume` to skip the cells that already completed.
//!
//! * **Header** (record 0): an `FMCK` envelope of kind
//!   `fifoms-sweep-journal` holding the sweep's *identity* — everything
//!   that determines its result set: switch size, seed, run
//!   configuration, scheduler list, load points and the fault schedule.
//!   Timeouts, retry budgets and the check interval only affect failure
//!   detection and may change between a run and its resume, so they stay
//!   out. A resume compares the identity bytes exactly.
//! * **Cell record**: the cell index, the grid fingerprint (the `crc32`
//!   of the identity), the load and every [`RunResult`] field, floats as
//!   bit patterns, so a resumed row is bit-identical to the row that was
//!   written. A record whose fingerprint or index does not belong to the
//!   sweep is a [`SimError::JournalMismatch`]; of duplicate records the
//!   last wins.
//!
//! A resume reads the valid prefix — the records before the first one
//! that fails its length or CRC check — and cuts the file back to it
//! before appending, so a tail torn by a killed run can never run into
//! the next record. Cells after the prefix re-run, which reproduces their
//! rows exactly because every cell is deterministically seeded. Only
//! completed cells are journaled: a failed cell always re-runs.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::sync::Mutex;

use fifoms_stats::{DelaySummary, OccupancySummary, SaturationVerdict};
use fifoms_types::{
    crc32, frame_state, unframe_state, SimError, StateError, StateReader, StateWriter,
};

use crate::engine::RunResult;
use crate::recover::{seal_record, valid_records};
use crate::sweep::{CellPolicy, Sweep, SweepRow};

/// Envelope kind of the header record.
const JOURNAL_KIND: &str = "fifoms-sweep-journal";
/// Layout version of the header and cell records.
const JOURNAL_V1: u16 = 1;
/// Verdicts in declaration order, so a verdict's record tag is
/// `verdict as u8`.
const VERDICTS: [SaturationVerdict; 3] = [
    SaturationVerdict::Stable,
    SaturationVerdict::Saturated,
    SaturationVerdict::CapExceeded,
];

// FINGERPRINT: the sweep's identity, compared byte for byte on resume.
// Loads travel as bit patterns; the `Debug` renderings of the scheduler,
// workload and fault specs print their floats in shortest round-trip form.
fn sweep_identity(sweep: &Sweep, policy: &CellPolicy) -> Vec<u8> {
    let mut w = StateWriter::new();
    w.put_usize(sweep.n);
    w.put_u64(sweep.seed);
    w.put_u64(sweep.run.slots);
    w.put_u64(sweep.run.warmup);
    w.put_usize(sweep.run.backlog_cap);
    w.put_u64(sweep.run.sample_every);
    w.put_usize(sweep.switches.len());
    for sk in &sweep.switches {
        w.put_str(&format!("{sk:?}"));
    }
    w.put_usize(sweep.points.len());
    for (load, tk) in &sweep.points {
        w.put_u64(load.to_bits());
        w.put_str(&format!("{tk:?}"));
    }
    w.put_str(&format!("{:?}", policy.faults));
    w.into_bytes()
}

/// The identity a header record carries, if `payload` is one.
fn header_identity(payload: &[u8]) -> Option<&[u8]> {
    let envelope = StateReader::new(payload).get_bytes().ok()?;
    match unframe_state(envelope, JOURNAL_KIND) {
        Ok((JOURNAL_V1, identity)) => Some(identity),
        _ => None,
    }
}

/// One completed cell as a sealed record.
fn cell_record(fingerprint: u32, idx: usize, row: &SweepRow) -> Vec<u8> {
    let r = &row.result;
    seal_record(Vec::new(), |w| {
        w.put_u32(fingerprint);
        w.put_usize(idx);
        w.put_f64(row.load);
        w.put_str(&r.switch_name);
        w.put_str(&r.traffic_name);
        w.put_opt_u64(r.offered_load.map(f64::to_bits));
        w.put_usize(r.workload.len());
        for (name, value) in &r.workload {
            w.put_str(name);
            w.put_f64(*value);
        }
        w.put_f64(r.delay.mean_input_oriented);
        w.put_f64(r.delay.mean_output_oriented);
        w.put_opt_u64(r.delay.p99_output);
        w.put_opt_u64(r.delay.max_output);
        w.put_u64(r.delay.completed_packets);
        w.put_u64(r.delay.delivered_copies);
        w.put_f64(r.occupancy.mean);
        w.put_usize(r.occupancy.max);
        w.put_u64(r.occupancy.slots_sampled);
        w.put_f64(r.mean_rounds);
        w.put_u8(r.verdict as u8);
        w.put_u64(r.slots_run);
        w.put_u64(r.packets_admitted);
        w.put_u64(r.copies_delivered);
        w.put_f64(r.throughput);
    })
}

/// Decode a cell record's payload into `(fingerprint, index, load,
/// result)`.
fn decode_cell(payload: &[u8]) -> Result<(u32, usize, f64, RunResult), StateError> {
    let mut r = StateReader::new(payload);
    let fingerprint = r.get_u32()?;
    let idx = r.get_usize()?;
    let load = r.get_f64()?;
    let switch_name = r.get_str()?.to_string();
    let traffic_name = r.get_str()?.to_string();
    let offered_load = r.get_opt_u64()?.map(f64::from_bits);
    let mut workload = Vec::new();
    for _ in 0..r.get_usize()? {
        workload.push((r.get_str()?.to_string(), r.get_f64()?));
    }
    let result = RunResult {
        switch_name,
        traffic_name,
        offered_load,
        workload,
        delay: DelaySummary {
            mean_input_oriented: r.get_f64()?,
            mean_output_oriented: r.get_f64()?,
            p99_output: r.get_opt_u64()?,
            max_output: r.get_opt_u64()?,
            completed_packets: r.get_u64()?,
            delivered_copies: r.get_u64()?,
        },
        occupancy: OccupancySummary {
            mean: r.get_f64()?,
            max: r.get_usize()?,
            slots_sampled: r.get_u64()?,
        },
        mean_rounds: r.get_f64()?,
        verdict: {
            let tag = r.get_u8()?;
            *VERDICTS
                .get(usize::from(tag))
                .ok_or_else(|| StateError::Malformed {
                    what: format!("verdict tag {tag}"),
                })?
        },
        slots_run: r.get_u64()?,
        packets_admitted: r.get_u64()?,
        copies_delivered: r.get_u64()?,
        throughput: r.get_f64()?,
    };
    r.expect_exhausted()?;
    Ok((fingerprint, idx, load, result))
}

fn io_err(path: &str, e: std::io::Error) -> SimError {
    SimError::Journal {
        path: path.to_string(),
        message: e.to_string(),
    }
}

fn mismatch(message: String) -> SimError {
    SimError::JournalMismatch { message }
}

/// An open checkpoint journal, positioned for appending.
///
/// Each record reaches the file in a single write, serialised through an
/// internal mutex, so parallel workers can record cells directly and a
/// killed process tears at most the record being written.
pub struct CheckpointJournal {
    path: String,
    /// `crc32` of the sweep identity, stamped on every cell record.
    fingerprint: u32,
    file: Mutex<File>,
}

impl CheckpointJournal {
    /// Create (truncate) a journal for `sweep` at `path` and write its
    /// header.
    pub fn create(
        path: &str,
        sweep: &Sweep,
        policy: &CellPolicy,
    ) -> Result<CheckpointJournal, SimError> {
        let identity = sweep_identity(sweep, policy);
        let header = seal_record(Vec::new(), |w| {
            w.put_bytes(&frame_state(JOURNAL_KIND, JOURNAL_V1, &identity));
        });
        let mut file = File::create(path).map_err(|e| io_err(path, e))?;
        file.write_all(&header).map_err(|e| io_err(path, e))?;
        Ok(CheckpointJournal {
            path: path.to_string(),
            fingerprint: crc32(&identity),
            file: Mutex::new(file),
        })
    }

    /// Open an existing journal, validate it against `sweep`, cut it back
    /// to its valid prefix and return it (positioned for appending) with
    /// the completed rows it holds, by grid index. A missing file starts a
    /// fresh journal with no rows.
    ///
    /// A file without this sweep's header (another sweep's journal, a text
    /// journal of an earlier release, any other file) or with a cell
    /// record of another grid is a hard [`SimError::JournalMismatch`]:
    /// reusing it would silently misattribute results.
    pub fn resume(
        path: &str,
        sweep: &Sweep,
        policy: &CellPolicy,
    ) -> Result<(CheckpointJournal, Vec<Option<SweepRow>>), SimError> {
        let cells = sweep.switches.len() * sweep.points.len();
        if !std::path::Path::new(path).exists() {
            return Ok((Self::create(path, sweep, policy)?, vec![None; cells]));
        }
        let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
        let (records, valid_len) = valid_records(&bytes);
        let identity = sweep_identity(sweep, policy);
        let fingerprint = crc32(&identity);
        match records.first().and_then(|header| header_identity(header)) {
            None => return Err(mismatch(format!("{path} is not a sweep journal"))),
            Some(found) if found != identity => {
                return Err(mismatch(format!(
                    "{path} was written for a different sweep \
                     (fingerprint {:08x} vs expected {fingerprint:08x})",
                    crc32(found)
                )))
            }
            Some(_) => {}
        }
        let mut loaded = vec![None; cells];
        for (k, payload) in records.iter().enumerate().skip(1) {
            let cell = decode_cell(payload)
                .ok()
                .filter(|&(fp, idx, ..)| fp == fingerprint && idx < cells);
            let Some((_, idx, load, result)) = cell else {
                return Err(mismatch(format!(
                    "{path}: record {k} is not a cell of this sweep \
                     (fingerprint {fingerprint:08x})"
                )));
            };
            loaded[idx] = Some(SweepRow {
                switch: sweep.switches[idx / sweep.points.len()],
                load,
                result,
            });
        }
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        if valid_len < bytes.len() {
            // A filesystem can zero-fill a tail it never wrote; those bytes
            // held no record. Either way, the cells that run again are the
            // ones the whole records do not hold.
            let tail = &bytes[valid_len..];
            let kind = if tail.iter().all(|&b| b == 0) {
                "zero"
            } else {
                "torn"
            };
            let missing = loaded.iter().filter(|row| row.is_none()).count();
            let reruns = if missing == 0 {
                format!("all {cells} cells are in the journal and none will re-run")
            } else {
                format!("{missing} of {cells} cells are not in the journal and will run")
            };
            eprintln!(
                "warning: {path}: cutting {} {kind} byte(s) after the last whole \
                 record; {reruns}",
                tail.len()
            );
            file.set_len(valid_len as u64)
                .map_err(|e| io_err(path, e))?;
        }
        Ok((
            CheckpointJournal {
                path: path.to_string(),
                fingerprint,
                file: Mutex::new(file),
            },
            loaded,
        ))
    }

    /// Append one completed cell in a single write.
    pub fn record(&self, idx: usize, row: &SweepRow) -> Result<(), SimError> {
        let record = cell_record(self.fingerprint, idx, row);
        // Recover rather than propagate poisoning: the journal itself never
        // panics while holding the lock, and a poisoned-but-intact file
        // is still the right place to append.
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        file.write_all(&record).map_err(|e| io_err(&self.path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SwitchKind, TrafficKind};
    use crate::RunConfig;

    fn sweep() -> Sweep {
        Sweep {
            n: 8,
            switches: vec![SwitchKind::Fifoms, SwitchKind::OqFifo],
            points: vec![
                (0.2, TrafficKind::bernoulli_at_load(0.2, 0.25, 8)),
                (0.4, TrafficKind::bernoulli_at_load(0.4, 0.25, 8)),
            ],
            run: RunConfig::quick(2_000),
            seed: 7,
        }
    }

    fn sample_row(sweep: &Sweep) -> SweepRow {
        let (load, tk) = sweep.points[1];
        let mut sw = sweep.switches[0].build(sweep.n, 1);
        let mut tr = tk.build(sweep.n, 2);
        let result =
            crate::engine::try_simulate(sw.as_mut(), tr.as_mut(), &sweep.run).expect("run");
        SweepRow {
            switch: sweep.switches[0],
            load,
            result,
        }
    }

    fn temp_path(name: &str) -> String {
        let dir = std::env::temp_dir().join("fifoms-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_str().unwrap().to_string()
    }

    fn resume_err(path: &str, s: &Sweep, p: &CellPolicy) -> SimError {
        CheckpointJournal::resume(path, s, p)
            .map(|_| ())
            .expect_err("resume must refuse this file")
    }

    #[test]
    fn encode_decode_roundtrips_exactly() {
        let s = sweep();
        let row = sample_row(&s);
        // Every verdict, and the optional fields both present and absent.
        let mut saturated = row.clone();
        saturated.result.verdict = SaturationVerdict::Saturated;
        saturated.result.offered_load = None;
        let mut capped = row.clone();
        capped.result.verdict = SaturationVerdict::CapExceeded;
        capped.result.delay.p99_output = None;
        capped.result.delay.max_output = None;
        capped.result.workload.clear();
        for (idx, want) in [(1, &row), (2, &saturated), (3, &capped)] {
            let record = cell_record(0xfeed_f00d, idx, want);
            let (payloads, valid_len) = valid_records(&record);
            assert_eq!((payloads.len(), valid_len), (1, record.len()));
            let payload = payloads[0];
            let (fingerprint, got_idx, load, result) = decode_cell(payload).expect("decode");
            assert_eq!((fingerprint, got_idx), (0xfeed_f00d, idx));
            assert_eq!(load.to_bits(), want.load.to_bits());
            assert_eq!(format!("{result:?}"), format!("{:?}", want.result));

            // A cut or padded payload and an unknown verdict tag are
            // errors, never a row.
            for cut in 0..payload.len() {
                assert!(decode_cell(&payload[..cut]).is_err(), "cut at byte {cut}");
            }
            let mut padded = payload.to_vec();
            padded.push(0);
            assert!(matches!(
                decode_cell(&padded),
                Err(StateError::TrailingBytes { .. })
            ));
            // The tag precedes three counters and the throughput.
            let tag_at = payload.len() - 33;
            assert_eq!(payload[tag_at], want.result.verdict as u8);
            let mut bad_tag = payload.to_vec();
            bad_tag[tag_at] = VERDICTS.len() as u8;
            assert!(matches!(
                decode_cell(&bad_tag),
                Err(StateError::Malformed { .. })
            ));
        }
    }

    #[test]
    fn journal_records_and_reloads_cells() {
        let path = temp_path("reload.journal");
        let s = sweep();
        let p = CellPolicy::default();
        let row = sample_row(&s);
        let mut saturated = row.clone();
        saturated.result.verdict = SaturationVerdict::Saturated;
        {
            let journal = CheckpointJournal::create(&path, &s, &p).unwrap();
            journal.record(0, &row).unwrap();
            journal.record(2, &row).unwrap();
            journal.record(2, &saturated).unwrap(); // duplicates: the last wins
        }
        let (_journal, loaded) = CheckpointJournal::resume(&path, &s, &p).unwrap();
        assert_eq!(loaded.len(), 4);
        assert!(loaded[1].is_none() && loaded[3].is_none());
        for (idx, want) in [(0, &row), (2, &saturated)] {
            let got = loaded[idx].as_ref().expect("cell reloaded");
            assert_eq!(got.load.to_bits(), want.load.to_bits());
            assert_eq!(format!("{:?}", got.result), format!("{:?}", want.result));
        }
        // The scheduler comes from the cell's grid position.
        assert_eq!(loaded[0].as_ref().unwrap().switch, SwitchKind::Fifoms);
        assert_eq!(loaded[2].as_ref().unwrap().switch, SwitchKind::OqFifo);
    }

    #[test]
    fn resume_cuts_a_torn_tail_back_at_every_byte() {
        let path = temp_path("torn.journal");
        let s = sweep();
        let p = CellPolicy::default();
        let row = sample_row(&s);
        let journal = CheckpointJournal::create(&path, &s, &p).unwrap();
        journal.record(0, &row).unwrap();
        let last_start = std::fs::metadata(&path).unwrap().len() as usize;
        journal.record(1, &row).unwrap();
        drop(journal);
        let full = std::fs::read(&path).unwrap();
        for cut in last_start..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (journal, loaded) = CheckpointJournal::resume(&path, &s, &p)
                .unwrap_or_else(|e| panic!("cut at byte {cut}: {e}"));
            assert!(loaded[0].is_some(), "cut at byte {cut} lost cell 0");
            assert!(
                loaded[1].is_none(),
                "cut at byte {cut} resurrected the torn cell"
            );
            // A cell recorded after the resume must survive the next one,
            // which needs the torn bytes gone from under it.
            journal.record(2, &row).unwrap();
            drop(journal);
            let (_journal, loaded) = CheckpointJournal::resume(&path, &s, &p)
                .unwrap_or_else(|e| panic!("second resume after cut {cut}: {e}"));
            assert!(
                loaded[0].is_some() && loaded[1].is_none() && loaded[2].is_some(),
                "second resume after cut at byte {cut}"
            );
        }
        // The intact file loads both cells.
        std::fs::write(&path, &full).unwrap();
        let (_journal, loaded) = CheckpointJournal::resume(&path, &s, &p).unwrap();
        assert!(loaded[0].is_some() && loaded[1].is_some());
        // A zero-filled tail reads as an empty record whose CRC checks; it
        // is cut back like a torn one, and every cell is reused.
        std::fs::write(&path, [&full[..], &[0; 8]].concat()).unwrap();
        let (_journal, loaded) = CheckpointJournal::resume(&path, &s, &p).unwrap();
        assert!(loaded[0].is_some() && loaded[1].is_some());
        assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, full.len());
    }

    #[test]
    fn resume_cuts_back_at_a_corrupt_record() {
        let path = temp_path("corrupt.journal");
        let s = sweep();
        let p = CellPolicy::default();
        let row = sample_row(&s);
        let journal = CheckpointJournal::create(&path, &s, &p).unwrap();
        journal.record(0, &row).unwrap();
        let corrupt_start = std::fs::metadata(&path).unwrap().len() as usize;
        journal.record(1, &row).unwrap();
        journal.record(2, &row).unwrap();
        drop(journal);
        // Flip the low bit of cell 1's index (after the length and the
        // fingerprint): its CRC fails, so the valid prefix ends before it
        // and cell 2, intact behind it, re-runs as well.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[corrupt_start + 8] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (journal, loaded) = CheckpointJournal::resume(&path, &s, &p).unwrap();
        assert!(loaded[0].is_some(), "cell 0 precedes the corrupt record");
        assert!(
            loaded[1].is_none() && loaded[2].is_none(),
            "cells at and after the corrupt record must re-run"
        );
        assert_eq!(
            std::fs::metadata(&path).unwrap().len() as usize,
            corrupt_start,
            "resume must cut the file back to the valid prefix"
        );
        journal.record(3, &row).unwrap();
        drop(journal);
        let (_journal, loaded) = CheckpointJournal::resume(&path, &s, &p).unwrap();
        assert!(
            loaded[0].is_some() && loaded[1].is_none() && loaded[2].is_none(),
            "second resume"
        );
        assert!(
            loaded[3].is_some(),
            "a cell recorded after the cut survives"
        );
    }

    #[test]
    fn resume_rejects_foreign_journals() {
        let s = sweep();
        let p = CellPolicy::default();

        // A text journal of an earlier release.
        let text = temp_path("text.journal");
        std::fs::write(
            &text,
            "# fifoms sweep journal v1\n\
             # grid=4b1e6f1f11653286 cells=4 seed=7 n=8\n\
             cell=0\tkey=833751704400c516\tstatus=ok\tload=0.2\tsw=FIFOMS\n",
        )
        .unwrap();
        let err = resume_err(&text, &s, &p);
        assert!(err.to_string().contains("not a sweep journal"), "{err}");

        // A journal for another seed, refused on its header alone: no
        // cell has completed in it yet.
        let mut other = s.clone();
        other.seed = 99;
        let foreign = temp_path("foreign.journal");
        CheckpointJournal::create(&foreign, &other, &p).unwrap();
        let err = resume_err(&foreign, &s, &p);
        assert!(
            err.to_string()
                .contains("written for a different sweep (fingerprint"),
            "{err}"
        );
    }

    #[test]
    fn resume_rejects_cells_of_another_grid() {
        let s = sweep();
        let p = CellPolicy::default();
        let row = sample_row(&s);

        // This sweep's header followed by a cell record of another seed's
        // grid.
        let mut other = s.clone();
        other.seed = 99;
        let foreign = temp_path("foreign-cell.journal");
        let journal = CheckpointJournal::create(&foreign, &other, &p).unwrap();
        let foreign_header_len = std::fs::metadata(&foreign).unwrap().len() as usize;
        journal.record(1, &row).unwrap();
        drop(journal);

        let spliced = temp_path("spliced.journal");
        CheckpointJournal::create(&spliced, &s, &p).unwrap();
        let mut bytes = std::fs::read(&spliced).unwrap();
        bytes.extend_from_slice(&std::fs::read(&foreign).unwrap()[foreign_header_len..]);
        std::fs::write(&spliced, &bytes).unwrap();
        let err = resume_err(&spliced, &s, &p);
        assert!(matches!(err, SimError::JournalMismatch { .. }), "{err}");

        // A record of this grid at an index outside it.
        let outside = temp_path("outside.journal");
        CheckpointJournal::create(&outside, &s, &p)
            .unwrap()
            .record(4, &row)
            .unwrap();
        let err = resume_err(&outside, &s, &p);
        assert!(matches!(err, SimError::JournalMismatch { .. }), "{err}");
    }

    #[test]
    fn identity_tracks_result_affecting_fields_only() {
        let s = sweep();
        let p = CellPolicy::default();
        let base = sweep_identity(&s, &p);
        let mut s2 = s.clone();
        s2.seed = 8;
        assert_ne!(base, sweep_identity(&s2, &p));
        let mut s3 = s.clone();
        s3.run.slots = 4_000;
        assert_ne!(base, sweep_identity(&s3, &p));
        let mut p2 = p.clone();
        p2.faults = Some(fifoms_fabric::FaultConfig::moderate(1));
        assert_ne!(base, sweep_identity(&s, &p2));
        // Timeouts, retry budgets and the check interval do not
        // invalidate a journal.
        let mut p3 = p.clone();
        p3.timeout = Some(std::time::Duration::from_secs(5));
        p3.retries = 9;
        p3.check_every = Some(100);
        assert_eq!(base, sweep_identity(&s, &p3));
    }

    #[test]
    fn egress_mode_and_retry_budget_change_the_identity() {
        let s = sweep();
        let with = |fc| {
            sweep_identity(
                &s,
                &CellPolicy {
                    faults: Some(fc),
                    ..CellPolicy::default()
                },
            )
        };
        let ingress = fifoms_fabric::FaultConfig::moderate(3);
        let egress = fifoms_fabric::FaultConfig {
            mode: fifoms_fabric::FaultMode::Egress,
            ..ingress
        };
        let budgeted = fifoms_fabric::FaultConfig {
            retry_budget: 1,
            ..ingress
        };
        assert_ne!(with(egress), with(ingress));
        assert_ne!(with(budgeted), with(ingress));
    }
}

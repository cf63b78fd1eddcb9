//! Crash-safe run checkpointing and bit-identical recovery (DESIGN.md §15).
//!
//! Three pieces cooperate so a run killed at *any* slot and restarted from
//! disk produces the same trace bytes, the same metrics and the same final
//! [`RunResult`](crate::RunResult) as the uninterrupted run:
//!
//! * [`CheckpointStore`] — two rotating checkpoint files
//!   (`checkpoint-a.bin` / `checkpoint-b.bin`, selected by `seq % 2`),
//!   each written atomically (temp + rename) and wrapped in the
//!   CRC-guarded `FMCK` envelope. A torn, flipped or truncated file fails
//!   envelope validation and [`CheckpointStore::load_candidates`] falls
//!   back to the *other* file — corruption costs one checkpoint interval,
//!   never the run.
//! * The arrival WAL (`arrivals.wal`) — one CRC-guarded record per slot
//!   holding that slot's raw arrival vector. Recovery replays the gap
//!   between the last checkpoint and the crash in lockstep with the
//!   restored traffic model, *verifying* that the regenerated arrivals
//!   match the logged ones (a divergence means the checkpoint and the
//!   model disagree, and surfaces as [`SimError::Recovery`] rather than a
//!   silently different run). The WAL is truncated at every checkpoint.
//! * [`RecoveryRuntime`] — the engine-facing driver: decides when a
//!   checkpoint is due, captures/encodes/applies the full run state
//!   (one framed blob each for the engine state, the switch stack, the
//!   traffic model and the optional telemetry), tracks the absolute trace
//!   byte offset so a resumed trace continues exactly where the
//!   checkpoint left it, and hosts the deliberate `kill_at` crash hook
//!   the kill-and-recover tests drive.
//!
//! Bit-identity hinges on one ordering rule: the checkpoint is taken at
//! the *top* of slot `t`, before the slot's traffic draw, and the trace
//! offset is captured *before* the `checkpoint_written` event is emitted.
//! A resumed run restarts at slot `t`, re-fires the due checkpoint
//! (idempotently rewriting the same file and re-emitting the identical
//! event) and proceeds — so the recovered trace is byte-for-byte the
//! uninterrupted one.

use std::collections::VecDeque;
use std::fs;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use fifoms_fabric::Switch;
use fifoms_obs::{sweep_stale_tmp, write_atomically, Telemetry, TraceOffset};
use fifoms_traffic::TrafficModel;
use fifoms_types::{
    crc32, frame_state, unframe_state, Checkpoint, PortSet, SimError, StateError, StateReader,
    StateWriter,
};

use crate::engine::EngineState;

/// Envelope kind of a checkpoint *file* (the on-disk wrapper carrying the
/// sequence number plus the run-state blob).
const FILE_KIND: &str = "fifoms-checkpoint-file";
/// Payload layout version of the file envelope.
const FILE_V1: u16 = 1;
/// Envelope kind of the run-state blob itself.
const RUN_KIND: &str = "fifoms-run";
/// Payload layout version of the run-state blob: `slot | trace_offset |
/// engine | switch | traffic | telemetry?`, each part after the two
/// counters one framed component blob. Version 1 wrote the engine's
/// fields inline.
const RUN_V2: u16 = 2;

/// Where and how often to checkpoint a run.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory holding the checkpoint files and the arrival WAL.
    pub dir: PathBuf,
    /// Checkpoint interval in slots (a checkpoint is due at every slot
    /// `t` with `t % every == 0 && t != 0`).
    pub every: u64,
}

fn io_recovery(path: &Path, what: &str, e: std::io::Error) -> SimError {
    SimError::Recovery {
        message: format!("{what} {}: {e}", path.display()),
    }
}

/// The rotating two-file checkpoint store.
///
/// Writes land alternately in `checkpoint-a.bin` and `checkpoint-b.bin`
/// (by sequence parity), so the previous checkpoint is never overwritten
/// by the one currently being written: a crash mid-write costs at most
/// one interval of progress.
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Open (creating if needed) the store directory, sweeping any
    /// orphaned `*.tmp` files a crashed writer left behind.
    pub fn open(dir: &Path) -> Result<CheckpointStore, SimError> {
        fs::create_dir_all(dir).map_err(|e| io_recovery(dir, "create checkpoint dir", e))?;
        sweep_stale_tmp(dir);
        Ok(CheckpointStore {
            dir: dir.to_path_buf(),
        })
    }

    fn file_path(&self, seq: u64) -> PathBuf {
        self.dir.join(if seq.is_multiple_of(2) {
            "checkpoint-a.bin"
        } else {
            "checkpoint-b.bin"
        })
    }

    /// Atomically persist checkpoint `seq`, returning the bytes written.
    pub fn save(&self, seq: u64, state: &[u8]) -> Result<u64, SimError> {
        let mut w = StateWriter::new();
        w.put_u64(seq);
        w.put_bytes(state);
        let blob = frame_state(FILE_KIND, FILE_V1, &w.into_bytes());
        let path = self.file_path(seq);
        write_atomically(&path, &blob).map_err(|e| io_recovery(&path, "write checkpoint", e))?;
        Ok(blob.len() as u64)
    }

    /// All decodable checkpoints on disk, newest first.
    ///
    /// Unreadable, torn, bit-flipped or truncated files are silently
    /// skipped — that *is* the corruption fallback: the caller restores
    /// from the newest candidate that fully decodes.
    pub fn load_candidates(&self) -> Vec<(u64, Vec<u8>)> {
        let mut found = Vec::new();
        for name in ["checkpoint-a.bin", "checkpoint-b.bin"] {
            let path = self.dir.join(name);
            let Ok(blob) = fs::read(&path) else {
                continue;
            };
            let Ok((version, payload)) = unframe_state(&blob, FILE_KIND) else {
                continue;
            };
            if version != FILE_V1 {
                continue;
            }
            let mut r = StateReader::new(payload);
            let Ok(seq) = r.get_u64() else { continue };
            let Ok(state) = r.get_bytes() else { continue };
            if !r.is_exhausted() {
                continue;
            }
            found.push((seq, state.to_vec()));
        }
        found.sort_by_key(|(seq, _)| std::cmp::Reverse(*seq));
        found
    }
}

/// Append-side handle on the arrival WAL.
///
/// Record layout: `u32 len | payload | u32 crc32(payload)`, all
/// little-endian ([`seal_record`], the framing the sweep journal shares).
/// Each record is encoded into one reused buffer and handed to the kernel
/// with a single write, so the log survives the process.
pub struct WalWriter {
    file: fs::File,
    path: PathBuf,
    /// The record being encoded; kept between appends for its capacity.
    record: Vec<u8>,
}

impl WalWriter {
    /// Open the WAL at `path`, truncating any previous contents (callers
    /// read the old log *before* opening the writer).
    pub fn open(path: &Path) -> Result<WalWriter, SimError> {
        WalWriter::open_with(path, true)
    }

    /// Open the WAL at `path` for writing, creating it if missing; with
    /// `truncate` false its previous contents stay until the first
    /// [`WalWriter::reset`].
    fn open_with(path: &Path, truncate: bool) -> Result<WalWriter, SimError> {
        let file = fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(truncate)
            .open(path)
            .map_err(|e| io_recovery(path, "open WAL", e))?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            record: Vec::new(),
        })
    }

    /// Append one slot's arrival vector.
    pub fn append(&mut self, slot: u64, arrivals: &[Option<PortSet>]) -> Result<(), SimError> {
        let record = seal_record(std::mem::take(&mut self.record), |w| {
            w.put_u64(slot);
            w.put_usize(arrivals.len());
            for a in arrivals {
                match a {
                    Some(dests) => {
                        w.put_bool(true);
                        w.put_port_set(dests);
                    }
                    None => w.put_bool(false),
                }
            }
        });
        let written = self
            .file
            .write_all(&record)
            .and_then(|()| self.file.flush())
            .map_err(|e| io_recovery(&self.path, "append WAL", e));
        self.record = record;
        written
    }

    /// Discard every record (called when a checkpoint supersedes them).
    pub fn reset(&mut self) -> Result<(), SimError> {
        self.file
            .set_len(0)
            .and_then(|()| self.file.seek(SeekFrom::Start(0)).map(|_| ()))
            .map_err(|e| io_recovery(&self.path, "reset WAL", e))
    }
}

/// Encode one log record into `buf`'s allocation (its contents are
/// discarded): `u32 len | payload | u32 crc32(payload)`, all
/// little-endian, where `encode` writes the payload. The arrival WAL and
/// the sweep journal both frame their records with this one function.
pub(crate) fn seal_record(buf: Vec<u8>, encode: impl FnOnce(&mut StateWriter)) -> Vec<u8> {
    // A length placeholder, the payload, then the real length and the CRC.
    let mut w = StateWriter::reusing(buf);
    w.put_u32(0);
    encode(&mut w);
    let mut record = w.into_bytes();
    let payload_len = (record.len() - 4) as u32;
    record[..4].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32(&record[4..]);
    record.extend_from_slice(&crc.to_le_bytes());
    record
}

/// The valid prefix of a log of [`seal_record`] records: the payloads of
/// the leading records whose length and CRC check, and the byte length
/// of that prefix. The first torn, truncated or CRC-mismatching record
/// (the tail a crash tore off, or a corrupt record) ends it, and so does
/// an empty one: no writer seals an empty payload, but eight zero bytes,
/// a tail a filesystem zero-filled, would pass as one (`crc32` of no
/// bytes is 0).
pub(crate) fn valid_records(bytes: &[u8]) -> (Vec<&[u8]>, usize) {
    let le_u32 = |at: usize| Some(u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?));
    let mut payloads = Vec::new();
    let mut pos = 0usize;
    while let Some(len) = le_u32(pos).filter(|&len| len != 0) {
        let end = pos + 4 + len as usize;
        let (Some(payload), Some(crc)) = (bytes.get(pos + 4..end), le_u32(end)) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        payloads.push(payload);
        pos = end + 4;
    }
    (payloads, pos)
}

/// Read the valid prefix of a WAL: decoding stops at the first torn,
/// truncated or CRC-mismatching record (the tail a crash tore off).
pub fn read_wal(path: &Path) -> Vec<(u64, Vec<Option<PortSet>>)> {
    let bytes = fs::read(path).unwrap_or_default();
    valid_records(&bytes)
        .0
        .into_iter()
        .map_while(decode_wal_payload)
        .collect()
}

fn decode_wal_payload(payload: &[u8]) -> Option<(u64, Vec<Option<PortSet>>)> {
    let mut r = StateReader::new(payload);
    let slot = r.get_u64().ok()?;
    let count = r.get_usize().ok()?;
    // Arrival vectors are one entry per port; anything larger than the
    // widest supported switch is a corrupt length, not a real record.
    if count > u16::MAX as usize {
        return None;
    }
    let mut arrivals = Vec::with_capacity(count);
    for _ in 0..count {
        if r.get_bool().ok()? {
            arrivals.push(Some(r.get_port_set().ok()?));
        } else {
            arrivals.push(None);
        }
    }
    if !r.is_exhausted() {
        return None;
    }
    Some((slot, arrivals))
}

/// The component blobs of the checkpoint a runtime resumes from.
struct Resume {
    slot: u64,
    trace_offset: u64,
    engine: Vec<u8>,
    switch: Vec<u8>,
    traffic: Vec<u8>,
    telemetry: Option<Vec<u8>>,
}

fn encode_run_state<S: Switch + ?Sized>(
    slot: u64,
    trace_offset: u64,
    engine: &EngineState,
    switch: &S,
    traffic: &dyn TrafficModel,
    telemetry: Option<&Telemetry>,
) -> Result<Vec<u8>, SimError> {
    let mut w = StateWriter::new();
    w.put_u64(slot);
    w.put_u64(trace_offset);
    w.put_bytes(&engine.snapshot_state());
    w.put_bytes(&switch.save_state()?);
    w.put_bytes(&traffic.save_state()?);
    match telemetry {
        Some(t) => {
            w.put_bool(true);
            w.put_bytes(&t.snapshot_state());
        }
        None => w.put_bool(false),
    }
    Ok(frame_state(RUN_KIND, RUN_V2, &w.into_bytes()))
}

fn decode_run_state(blob: &[u8]) -> Result<Resume, StateError> {
    let (version, payload) = unframe_state(blob, RUN_KIND)?;
    if version != RUN_V2 {
        return Err(StateError::VersionUnsupported {
            kind: RUN_KIND.to_string(),
            got: version,
        });
    }
    let mut r = StateReader::new(payload);
    let resume = Resume {
        slot: r.get_u64()?,
        trace_offset: r.get_u64()?,
        engine: r.get_bytes()?.to_vec(),
        switch: r.get_bytes()?.to_vec(),
        traffic: r.get_bytes()?.to_vec(),
        telemetry: if r.get_bool()? {
            Some(r.get_bytes()?.to_vec())
        } else {
            None
        },
    };
    r.expect_exhausted()?;
    Ok(resume)
}

/// What a resume found on disk — surfaced so the supervisor can emit
/// `recovery_started` / `recovery_completed` with real numbers.
#[derive(Clone, Copy, Debug)]
pub struct ResumeInfo {
    /// Sequence number of the checkpoint restored.
    pub seq: u64,
    /// Slot the run restarts at.
    pub slot: u64,
    /// Valid WAL records found for the gap replay.
    pub wal_records: usize,
    /// Checkpoint files present on disk that were skipped: those that
    /// failed validation, and newer ones whose run state did not decode
    /// (the corruption-fallback count). A checkpoint an earlier build
    /// wrote in another run-state version counts here too.
    pub rejected: usize,
}

/// The engine-facing driver of checkpointing and recovery.
pub struct RecoveryRuntime {
    store: CheckpointStore,
    wal: WalWriter,
    every: u64,
    kill_at: Option<u64>,
    trace_counter: Option<TraceOffset>,
    trace_base: u64,
    resume: Option<Resume>,
    resume_info: Option<ResumeInfo>,
    replay: VecDeque<(u64, Vec<Option<PortSet>>)>,
    replayed: u64,
}

impl RecoveryRuntime {
    /// Start a *fresh* recoverable run: any previous checkpoints and WAL
    /// in the directory are ignored (the WAL is truncated; checkpoint
    /// files are overwritten as the run progresses).
    pub fn fresh(cfg: &CheckpointConfig) -> Result<RecoveryRuntime, SimError> {
        RecoveryRuntime::build(cfg, false)
    }

    /// Open the directory and resume from the newest valid checkpoint if
    /// one exists, else start fresh. Corrupt checkpoint files, and those
    /// whose run state does not decode, are skipped (falling back to the
    /// other rotation slot); their count is reported in
    /// [`ResumeInfo::rejected`].
    pub fn open(cfg: &CheckpointConfig) -> Result<RecoveryRuntime, SimError> {
        RecoveryRuntime::build(cfg, true)
    }

    fn build(cfg: &CheckpointConfig, resume: bool) -> Result<RecoveryRuntime, SimError> {
        if cfg.every == 0 {
            return Err(SimError::Usage(
                "checkpoint interval must be at least 1 slot".to_string(),
            ));
        }
        let store = CheckpointStore::open(&cfg.dir)?;
        let wal_path = cfg.dir.join("arrivals.wal");
        let mut decoded = None;
        let mut info = None;
        let mut replay = VecDeque::new();
        if resume {
            let candidates = store.load_candidates();
            let invalid = count_checkpoint_files(&cfg.dir).saturating_sub(candidates.len());
            // The newest candidate whose run state decodes; the `skipped`
            // newer ones did not.
            let newest = candidates
                .iter()
                .enumerate()
                .find_map(|(skipped, (seq, state))| {
                    decode_run_state(state)
                        .ok()
                        .map(|state| (skipped, *seq, state))
                });
            if let Some((skipped, seq, state)) = newest {
                let records: VecDeque<_> = read_wal(&wal_path)
                    .into_iter()
                    .filter(|(slot, _)| *slot >= state.slot)
                    .collect();
                info = Some(ResumeInfo {
                    seq,
                    slot: state.slot,
                    wal_records: records.len(),
                    rejected: invalid + skipped,
                });
                replay = records;
                decoded = Some(state);
            }
        }
        // Opening the writer truncates the WAL, unless a restore is
        // pending: `apply_resume` truncates it once the restore succeeds,
        // so an attempt whose restore is refused leaves the replay gap for
        // a build that can resume the directory.
        let wal = WalWriter::open_with(&wal_path, decoded.is_none())?;
        Ok(RecoveryRuntime {
            store,
            wal,
            every: cfg.every,
            kill_at: None,
            trace_counter: None,
            trace_base: 0,
            resume: decoded,
            resume_info: info,
            replay,
            replayed: 0,
        })
    }

    /// Arrange for the run to abort with [`SimError::Killed`] at the top
    /// of `slot` (after any due checkpoint) — the crash-injection hook.
    pub fn kill_at(&mut self, slot: u64) {
        self.kill_at = Some(slot);
    }

    /// Whether the deliberate kill fires at `slot`.
    pub(crate) fn kill_due(&self, slot: u64) -> bool {
        self.kill_at == Some(slot)
    }

    /// Whether a checkpoint is due at the top of `slot`.
    pub(crate) fn checkpoint_due(&self, slot: u64) -> bool {
        slot != 0 && slot.is_multiple_of(self.every)
    }

    /// What the resume found, if this runtime is resuming.
    pub fn resume_info(&self) -> Option<ResumeInfo> {
        self.resume_info
    }

    /// WAL records verified against regenerated arrivals so far.
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Byte length the trace file must be truncated to before reopening
    /// it for a resumed run (the offset recorded in the checkpoint).
    pub fn trace_resume_offset(&self) -> Option<u64> {
        self.resume.as_ref().map(|rs| rs.trace_offset)
    }

    /// Wire the byte counter of the trace's [`CountingWriter`]
    /// (fifoms-obs) so checkpoints record absolute trace offsets.
    pub fn attach_trace(&mut self, counter: TraceOffset) {
        self.trace_counter = Some(counter);
    }

    fn absolute_trace_offset(&self) -> u64 {
        self.trace_base + self.trace_counter.as_ref().map_or(0, TraceOffset::bytes)
    }

    /// Restore `engine`, the switch stack, the traffic model and
    /// (optionally) telemetry from the pending resume state, returning
    /// the slot the run restarts at: 0 when there is nothing to resume.
    /// A resume truncates the WAL only once every restore succeeded:
    /// replayed slots are re-appended as the resumed loop re-executes
    /// them, so the WAL converges to the uninterrupted run's contents.
    pub(crate) fn apply_resume<S: Switch + ?Sized>(
        &mut self,
        engine: &mut EngineState,
        switch: &mut S,
        traffic: &mut dyn TrafficModel,
        telemetry: Option<&mut Telemetry>,
    ) -> Result<u64, SimError> {
        let Some(rs) = self.resume.take() else {
            return Ok(0);
        };
        engine.restore_state(&rs.engine)?;
        switch.load_state(&rs.switch)?;
        traffic.load_state(&rs.traffic)?;
        match (telemetry, rs.telemetry) {
            (Some(t), Some(blob)) => t.restore_state(&blob)?,
            (None, None) => {}
            (Some(_), None) => {
                return Err(SimError::Recovery {
                    message: "telemetry attached but checkpoint has no telemetry state"
                        .to_string(),
                })
            }
            (None, Some(_)) => {
                return Err(SimError::Recovery {
                    message: "checkpoint carries telemetry state but none is attached"
                        .to_string(),
                })
            }
        }
        self.trace_base = rs.trace_offset;
        self.wal.reset()?;
        Ok(rs.slot)
    }

    /// Capture, encode and atomically persist a checkpoint at the top of
    /// `slot`, recording the absolute trace offset, then truncate the WAL
    /// it supersedes. Returns `(seq, bytes_written)` for the
    /// `checkpoint_written` event.
    pub(crate) fn write_checkpoint<S: Switch + ?Sized>(
        &mut self,
        slot: u64,
        engine: &EngineState,
        switch: &S,
        traffic: &dyn TrafficModel,
        telemetry: Option<&Telemetry>,
    ) -> Result<(u64, u64), SimError> {
        let trace_offset = self.absolute_trace_offset();
        let state = encode_run_state(slot, trace_offset, engine, switch, traffic, telemetry)?;
        let seq = slot / self.every;
        let bytes = self.store.save(seq, &state)?;
        self.wal.reset()?;
        Ok((seq, bytes))
    }

    /// Log one slot's arrivals to the WAL; while inside the replay window
    /// of a resumed run, first verify the regenerated arrivals match the
    /// logged ones (divergence means the restored traffic model is not
    /// reproducing the pre-crash run).
    pub(crate) fn record_arrivals(
        &mut self,
        slot: u64,
        arrivals: &[Option<PortSet>],
    ) -> Result<(), SimError> {
        if let Some((logged_slot, logged)) = self.replay.front() {
            if *logged_slot == slot {
                if logged.as_slice() != arrivals {
                    return Err(SimError::Recovery {
                        message: format!(
                            "WAL divergence at slot {slot}: replayed arrivals differ from log"
                        ),
                    });
                }
                self.replay.pop_front();
                self.replayed += 1;
            }
        }
        self.wal.append(slot, arrivals)
    }
}

fn count_checkpoint_files(dir: &Path) -> usize {
    ["checkpoint-a.bin", "checkpoint-b.bin"]
        .iter()
        .filter(|name| dir.join(name).is_file())
        .count()
}

/// Truncate `path` to `len` bytes — used to rewind a trace file to the
/// offset a checkpoint recorded before a resumed run reopens it in
/// append mode.
pub fn truncate_file(path: &Path, len: u64) -> Result<(), SimError> {
    let f = fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| io_recovery(path, "open for truncate", e))?;
    f.set_len(len)
        .map_err(|e| io_recovery(path, "truncate", e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{try_simulate_recoverable, Observer, RunConfig, RunResult};
    use fifoms_core::MulticastVoqSwitch;
    use fifoms_obs::{CountingWriter, JsonlSink};
    use fifoms_traffic::BernoulliMulticast;
    use fifoms_types::PortId;

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fifoms-recover-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    fn some_arrivals(n: usize, salt: u64) -> Vec<Option<PortSet>> {
        (0..n)
            .map(|i| {
                if (i as u64 + salt).is_multiple_of(3) {
                    let mut s = PortSet::new();
                    s.insert(PortId::new((i + 1) % n));
                    s.insert(PortId::new((i + salt as usize) % n));
                    Some(s)
                } else {
                    None
                }
            })
            .collect()
    }

    #[test]
    fn wal_record_bytes_are_pinned() {
        // Two records as the per-append-allocating encoder wrote them; the
        // second is shorter than the first, so a reused buffer that kept
        // stale bytes would show.
        const PINNED: &str = "2800000007000000000000000800000000000000000001020000000100030000\
                              000102000000040006000000022c73ee24000000010000000000000008000000\
                              000000000000010100000003000000010100000006000000c5d4edd9";
        let dir = test_dir("wal-bytes");
        let path = dir.join("arrivals.wal");
        let mut w = WalWriter::open(&path).expect("open");
        w.append(7, &some_arrivals(8, 7)).expect("append");
        w.append(1, &some_arrivals(8, 1)).expect("append");
        drop(w);
        let hex: String = fs::read(&path)
            .expect("read")
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, PINNED);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_round_trips_and_discards_torn_tail() {
        let dir = test_dir("wal");
        let path = dir.join("arrivals.wal");
        let mut w = WalWriter::open(&path).expect("open");
        for slot in 0..20u64 {
            w.append(slot, &some_arrivals(8, slot)).expect("append");
        }
        drop(w);
        let full = read_wal(&path);
        assert_eq!(full.len(), 20);
        for (slot, arrivals) in &full {
            assert_eq!(arrivals, &some_arrivals(8, *slot));
        }
        // Tear bytes off the tail: the valid prefix survives, the torn
        // record is dropped, and nothing panics at any cut point.
        let bytes = fs::read(&path).expect("read");
        for cut in (0..bytes.len()).rev().step_by(7) {
            fs::write(&path, &bytes[..cut]).expect("tear");
            let prefix = read_wal(&path);
            assert!(prefix.len() <= 20);
            assert_eq!(&full[..prefix.len()], prefix.as_slice(), "cut {cut}");
        }
        // Flip a bit mid-file: records after the flip are discarded.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        fs::write(&path, &bad).expect("flip");
        let prefix = read_wal(&path);
        assert!(prefix.len() < 20);
        assert_eq!(&full[..prefix.len()], prefix.as_slice());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn valid_records_reports_the_whole_record_prefix() {
        // Three records of different lengths.
        let records = [
            seal_record(Vec::new(), |w| w.put_u64(7)),
            seal_record(Vec::new(), |w| w.put_bool(true)),
            seal_record(Vec::new(), |w| w.put_str("the third record")),
        ];
        let log = records.concat();
        let ends: Vec<usize> = records
            .iter()
            .scan(0, |end, r| {
                *end += r.len();
                Some(*end)
            })
            .collect();
        // Cut at every byte: exactly the records that end at or before the
        // cut are returned, and the prefix length is where the last ends.
        for cut in 0..=log.len() {
            let (payloads, valid_len) = valid_records(&log[..cut]);
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            assert_eq!(payloads.len(), whole, "cut {cut}");
            assert_eq!(
                valid_len,
                whole.checked_sub(1).map_or(0, |k| ends[k]),
                "cut {cut}"
            );
            for (got, r) in payloads.iter().zip(&records) {
                assert_eq!(*got, &r[4..r.len() - 4], "cut {cut}");
            }
        }
        // A CRC mismatch ends the prefix with whole records behind it, and
        // so does a length field that runs past the end of the log.
        let mut bad_crc = log.clone();
        bad_crc[ends[1] - 1] ^= 0x80;
        let (payloads, valid_len) = valid_records(&bad_crc);
        assert_eq!((payloads.len(), valid_len), (1, ends[0]));
        let mut overrun = log.clone();
        overrun[ends[0]..ends[0] + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let (payloads, valid_len) = valid_records(&overrun);
        assert_eq!((payloads.len(), valid_len), (1, ends[0]));
        // An empty record ends the prefix too, though its CRC checks: it
        // is what a zero-filled tail reads as.
        let empty = seal_record(Vec::new(), |_| {});
        assert_eq!(empty, [0; 8]);
        let with_empty = [&records[0][..], &empty, &records[2]].concat();
        let (payloads, valid_len) = valid_records(&with_empty);
        assert_eq!((payloads.len(), valid_len), (1, ends[0]));
    }

    #[test]
    fn store_skips_corrupt_files_and_falls_back() {
        let dir = test_dir("store");
        let store = CheckpointStore::open(&dir).expect("open");
        store.save(4, b"state-four").expect("save 4");
        store.save(5, b"state-five").expect("save 5");
        let best = store.load_candidates();
        assert_eq!(best.len(), 2);
        assert_eq!(best[0].0, 5);
        assert_eq!(best[0].1, b"state-five");
        // Corrupt the newest (seq 5 → checkpoint-b.bin): fallback returns
        // the older valid file instead.
        let b = dir.join("checkpoint-b.bin");
        let mut bytes = fs::read(&b).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&b, &bytes).expect("corrupt");
        let best = store.load_candidates();
        assert_eq!(best.len(), 1);
        assert_eq!(best[0].0, 4);
        assert_eq!(best[0].1, b"state-four");
        // Truncate the survivor too: no candidates, never a panic.
        let a = dir.join("checkpoint-a.bin");
        let bytes = fs::read(&a).expect("read");
        fs::write(&a, &bytes[..bytes.len() / 3]).expect("truncate");
        assert!(store.load_candidates().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_on_empty_dir_starts_fresh() {
        let dir = test_dir("empty");
        let rec = RecoveryRuntime::open(&CheckpointConfig {
            dir: dir.clone(),
            every: 100,
        })
        .expect("open");
        assert!(rec.resume_info().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_interval_is_a_usage_error() {
        let dir = test_dir("zero");
        let err = match RecoveryRuntime::fresh(&CheckpointConfig {
            dir: dir.clone(),
            every: 0,
        }) {
            Err(e) => e,
            Ok(_) => panic!("zero interval accepted"),
        };
        assert!(matches!(err, SimError::Usage(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    fn run_to_completion(
        dir: &Path,
        trace: &Path,
        cfg: &RunConfig,
        every: u64,
        kill: Option<u64>,
        resume: bool,
    ) -> Result<RunResult, SimError> {
        let mut switch = MulticastVoqSwitch::new(8, 3);
        let mut traffic = BernoulliMulticast::new(8, 0.3, 0.25, 9).expect("traffic");
        let ck = CheckpointConfig {
            dir: dir.to_path_buf(),
            every,
        };
        let mut rec = if resume {
            RecoveryRuntime::open(&ck)?
        } else {
            RecoveryRuntime::fresh(&ck)?
        };
        if let Some(slot) = kill {
            rec.kill_at(slot);
        }
        let file = if resume {
            if let Some(offset) = rec.trace_resume_offset() {
                truncate_file(trace, offset)?;
            }
            fs::OpenOptions::new()
                .append(true)
                .open(trace)
                .expect("reopen trace")
        } else {
            fs::File::create(trace).expect("create trace")
        };
        let (writer, offset) = CountingWriter::new(file);
        rec.attach_trace(offset);
        let sink = JsonlSink::new(writer);
        let mut obs = Observer {
            sink: Some((&sink, "recover-test")),
            profiler: None,
            telemetry: None,
        };
        try_simulate_recoverable(&mut switch, &mut traffic, cfg, &mut obs, &mut rec)
    }

    #[test]
    fn killed_run_recovers_bit_identically() {
        let cfg = RunConfig {
            slots: 2_000,
            warmup: 500,
            backlog_cap: 100_000,
            sample_every: 50,
        };
        // Reference: the same recoverable run, never killed.
        let ref_dir = test_dir("ref");
        let ref_trace = ref_dir.join("trace.jsonl");
        let reference =
            run_to_completion(&ref_dir, &ref_trace, &cfg, 400, None, false).expect("reference");

        // Kill at a slot between checkpoints, then resume: the replay gap
        // (1200..1300) is verified against the WAL. The resumed run is
        // killed again after writing the checkpoint at 1600, whose trace
        // offset must count the bytes written before the first kill too.
        let dir = test_dir("kill");
        let trace = dir.join("trace.jsonl");
        let err = run_to_completion(&dir, &trace, &cfg, 400, Some(1_300), false)
            .expect_err("kill must abort");
        assert_eq!(err, SimError::Killed { slot: 1_300 });
        let err = run_to_completion(&dir, &trace, &cfg, 400, Some(1_700), true)
            .expect_err("second kill must abort");
        assert_eq!(err, SimError::Killed { slot: 1_700 });
        let recovered = run_to_completion(&dir, &trace, &cfg, 400, None, true).expect("recover");

        assert_eq!(recovered.slots_run, reference.slots_run);
        assert_eq!(recovered.packets_admitted, reference.packets_admitted);
        assert_eq!(recovered.copies_delivered, reference.copies_delivered);
        assert_eq!(
            recovered.throughput.to_bits(),
            reference.throughput.to_bits()
        );
        assert_eq!(
            recovered.delay.mean_output_oriented.to_bits(),
            reference.delay.mean_output_oriented.to_bits()
        );
        assert_eq!(
            recovered.occupancy.mean.to_bits(),
            reference.occupancy.mean.to_bits()
        );
        assert_eq!(
            recovered.mean_rounds.to_bits(),
            reference.mean_rounds.to_bits()
        );
        let ref_bytes = fs::read(&ref_trace).expect("read reference trace");
        let rec_bytes = fs::read(&trace).expect("read recovered trace");
        assert!(!ref_bytes.is_empty());
        assert_eq!(ref_bytes, rec_bytes, "traces must be byte-identical");
        // The WALs converge too.
        assert_eq!(
            fs::read(ref_dir.join("arrivals.wal")).expect("ref wal"),
            fs::read(dir.join("arrivals.wal")).expect("rec wal")
        );
        let _ = fs::remove_dir_all(&ref_dir);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_replays_the_wal_gap() {
        let cfg = RunConfig::quick(1_000);
        let dir = test_dir("gap");
        let trace = dir.join("trace.jsonl");
        let err = run_to_completion(&dir, &trace, &cfg, 200, Some(650), false)
            .expect_err("kill must abort");
        assert_eq!(err, SimError::Killed { slot: 650 });

        let ck = CheckpointConfig {
            dir: dir.clone(),
            every: 200,
        };
        let rec = RecoveryRuntime::open(&ck).expect("open");
        let info = rec.resume_info().expect("resuming");
        assert_eq!(info.slot, 600);
        assert_eq!(info.seq, 3);
        assert_eq!(info.wal_records, 50, "slots 600..650 were logged");
        assert_eq!(info.rejected, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_resumed_run_logs_only_its_own_slots_under_another_interval() {
        let cfg = RunConfig::quick(1_000);
        let dir = test_dir("other-interval");
        let trace = dir.join("trace.jsonl");
        let err = run_to_completion(&dir, &trace, &cfg, 200, Some(650), false)
            .expect_err("kill must abort");
        assert_eq!(err, SimError::Killed { slot: 650 });
        // Resumed every 250 slots, slot 600 is no checkpoint slot, so no
        // re-fired checkpoint resets the log; the restore itself must.
        let err = run_to_completion(&dir, &trace, &cfg, 250, Some(620), true)
            .expect_err("second kill must abort");
        assert_eq!(err, SimError::Killed { slot: 620 });
        // Slots 620..650 of the first attempt are not left behind the
        // resumed attempt's records.
        let info = RecoveryRuntime::open(&CheckpointConfig {
            dir: dir.clone(),
            every: 250,
        })
        .expect("open")
        .resume_info()
        .expect("resuming");
        assert_eq!((info.slot, info.wal_records), (600, 20));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_refused_restore_leaves_the_logged_gap_in_place() {
        let cfg = RunConfig::quick(1_000);
        let dir = test_dir("refused");
        let trace = dir.join("trace.jsonl");
        let err = run_to_completion(&dir, &trace, &cfg, 200, Some(650), false)
            .expect_err("kill must abort");
        assert_eq!(err, SimError::Killed { slot: 650 });
        let wal_path = dir.join("arrivals.wal");
        let logged = fs::read(&wal_path).expect("wal");
        assert!(!logged.is_empty());
        let ck = CheckpointConfig {
            dir: dir.clone(),
            every: 200,
        };
        // Opening a runtime only to read what a resume would find changes
        // nothing on disk.
        drop(RecoveryRuntime::open(&ck).expect("open"));
        assert_eq!(fs::read(&wal_path).expect("wal"), logged);

        // A stack that refuses the checkpoint fails the attempt and leaves
        // the log for one that can resume it.
        let mut rec = RecoveryRuntime::open(&ck).expect("open");
        let mut other = fifoms_baselines::OqFifoSwitch::new(8);
        let mut traffic = BernoulliMulticast::new(8, 0.3, 0.25, 9).expect("traffic");
        let mut obs = Observer {
            sink: None,
            profiler: None,
            telemetry: None,
        };
        let err = try_simulate_recoverable(&mut other, &mut traffic, &cfg, &mut obs, &mut rec)
            .expect_err("kind mismatch");
        assert!(
            matches!(err, SimError::State(StateError::KindMismatch { .. })),
            "{err}"
        );
        assert_eq!(fs::read(&wal_path).expect("wal"), logged);
        let info = RecoveryRuntime::open(&ck)
            .expect("open")
            .resume_info()
            .expect("resuming");
        assert_eq!((info.slot, info.wal_records), (600, 50));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpoint_whose_run_state_does_not_decode_is_rejected() {
        let cfg = RunConfig::quick(1_000);
        let dir = test_dir("undecodable");
        let trace = dir.join("trace.jsonl");
        let err = run_to_completion(&dir, &trace, &cfg, 400, Some(500), false)
            .expect_err("kill must abort");
        assert_eq!(err, SimError::Killed { slot: 500 });
        // A newer checkpoint whose file frame is valid but whose run state
        // does not decode, like one an earlier build wrote in run-state
        // version 1.
        CheckpointStore::open(&dir)
            .expect("store")
            .save(2, b"not a run state")
            .expect("save");
        let rec = RecoveryRuntime::open(&CheckpointConfig {
            dir: dir.clone(),
            every: 400,
        })
        .expect("open");
        let info = rec.resume_info().expect("resuming");
        assert_eq!((info.seq, info.slot), (1, 400));
        assert_eq!(info.rejected, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}

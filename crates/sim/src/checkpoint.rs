//! Checkpoint journals for resumable sweeps.
//!
//! A journal is a human-readable text file with one line per finished grid
//! cell, written incrementally as a sweep runs and replayed on `--resume`
//! to skip work that already completed. The format is append-only and
//! crash-tolerant: a process killed mid-write leaves at most one torn
//! final line, which the loader simply treats as not-yet-run (the cell is
//! deterministic, so re-running it reproduces the identical row).
//!
//! ```text
//! # fifoms sweep journal v1
//! # grid=<hex16> cells=<count> seed=<seed> n=<n>
//! cell=3  key=<hex16>  status=ok  load=0.4  sw=FIFOMS  ... result fields ...
//! cell=5  key=<hex16>  status=failed  attempts=2  reason=panic  msg=...
//! ```
//!
//! Every line is tab-separated `key=value` tokens. Free-text values
//! (names, panic messages) are sanitised so they cannot contain tabs or
//! newlines. Floating-point values are written with Rust's shortest
//! round-trip formatting, so a parsed row is bit-identical to the row that
//! was written — the property the resume-equivalence test relies on.
//!
//! Identity is established by two FNV-1a hashes:
//!
//! * the **grid hash** covers everything that determines the result set —
//!   switch size, seed, scheduler list, load points, run configuration and
//!   the fault-injection schedule (but *not* timeouts or retry budgets,
//!   which only affect failure detection and may legitimately change
//!   between a run and its resume);
//! * the **cell key** additionally binds a line to its grid position, so a
//!   journal from a reordered or edited sweep is rejected rather than
//!   silently misattributed.
//!
//! Completed cells are reused on resume; failed cells are re-run (their
//! journal line records the failure for forensics, but a resume is the
//! natural moment to retry them, e.g. with a longer `--cell-timeout`).

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::sync::Mutex;

use fifoms_stats::{DelaySummary, OccupancySummary, SaturationVerdict};
use fifoms_types::SimError;

use crate::engine::RunResult;
use crate::guard::CellFailureReason;
use crate::sweep::{CellOutcome, CellPolicy, FailedCell, Sweep, SweepRow};

const MAGIC: &str = "# fifoms sweep journal v1";

/// FNV-1a over a byte stream.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]); // field separator
    }
    fn finish(self) -> u64 {
        self.0
    }
}

/// Hash of everything that determines a sweep's result set.
pub(crate) fn grid_hash(sweep: &Sweep, policy: &CellPolicy) -> u64 {
    let mut h = Fnv::new();
    h.write_str(&format!("n={}", sweep.n));
    h.write_str(&format!("seed={}", sweep.seed));
    h.write_str(&format!(
        "run={},{},{},{}",
        sweep.run.slots, sweep.run.warmup, sweep.run.backlog_cap, sweep.run.sample_every
    ));
    for sk in &sweep.switches {
        h.write_str(&format!("switch={sk:?}"));
    }
    for (load, tk) in &sweep.points {
        h.write_str(&format!("point={},{tk:?}", load.to_bits()));
    }
    // The fault schedule changes results; checking/timeouts/retries don't.
    h.write_str(&format!("faults={}", fault_fingerprint(policy.faults.as_ref())));
    h.finish()
}

/// Render the fault schedule for the grid hash.
///
/// Ingress configs with no retry budget are rendered in the field set the
/// struct had before the egress fault model existed, so journals written
/// by earlier releases keep their grid hash and stay resumable. Egress
/// configs (or a nonzero retry budget) genuinely change the result set
/// and get the full rendering.
fn fault_fingerprint(faults: Option<&fifoms_fabric::FaultConfig>) -> String {
    use fifoms_fabric::FaultMode;
    match faults {
        None => "None".to_string(),
        Some(fc) if fc.mode == FaultMode::Ingress && fc.retry_budget == 0 => format!(
            "Some(FaultConfig {{ seed: {}, flap_period: {}, flap_duration: {}, \
             crosspoint_faults: {}, crosspoint_at: {}, crosspoint_duration: {} }})",
            fc.seed,
            fc.flap_period,
            fc.flap_duration,
            fc.crosspoint_faults,
            fc.crosspoint_at,
            fc.crosspoint_duration
        ),
        Some(fc) => format!("Some({fc:?})"),
    }
}

/// Key binding one journal line to one grid cell of one sweep.
pub(crate) fn cell_key(grid: u64, idx: usize, sweep: &Sweep) -> u64 {
    let points = sweep.points.len().max(1);
    let (si, pi) = (idx / points, idx % points);
    let mut h = Fnv::new();
    h.write(&grid.to_le_bytes());
    h.write_str(&format!("cell={idx}"));
    if let (Some(sk), Some((load, tk))) = (sweep.switches.get(si), sweep.points.get(pi)) {
        h.write_str(&format!("{sk:?}"));
        h.write_str(&format!("{},{tk:?}", load.to_bits()));
    }
    h.finish()
}

/// Replace characters that would break the line format.
fn sanitize(s: &str) -> String {
    s.replace(['\t', '\n', '\r'], " ")
}

fn fmt_opt_f64(v: Option<f64>) -> String {
    v.map_or_else(|| "none".into(), |x| x.to_string())
}

fn fmt_opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "none".into(), |x| x.to_string())
}

fn verdict_str(v: SaturationVerdict) -> &'static str {
    match v {
        SaturationVerdict::Stable => "stable",
        SaturationVerdict::Saturated => "saturated",
        SaturationVerdict::CapExceeded => "cap",
    }
}

/// Serialise one cell outcome as a journal line (no trailing newline).
pub(crate) fn encode_line(idx: usize, key: u64, outcome: &CellOutcome) -> String {
    let mut t = vec![format!("cell={idx}"), format!("key={key:016x}")];
    match outcome {
        CellOutcome::Completed(row) => {
            let r = &row.result;
            t.push("status=ok".into());
            t.push(format!("load={}", row.load));
            t.push(format!("sw={}", sanitize(&r.switch_name)));
            t.push(format!("tr={}", sanitize(&r.traffic_name)));
            t.push(format!("ol={}", fmt_opt_f64(r.offered_load)));
            let wl = r
                .workload
                .iter()
                .map(|(k, v)| format!("{}:{v}", sanitize(k).replace([';', ':'], " ")))
                .collect::<Vec<_>>()
                .join(";");
            t.push(format!("wl={wl}"));
            t.push(format!("din={}", r.delay.mean_input_oriented));
            t.push(format!("dout={}", r.delay.mean_output_oriented));
            t.push(format!("p99={}", fmt_opt_u64(r.delay.p99_output)));
            t.push(format!("dmax={}", fmt_opt_u64(r.delay.max_output)));
            t.push(format!("done={}", r.delay.completed_packets));
            t.push(format!("dcop={}", r.delay.delivered_copies));
            t.push(format!("qmean={}", r.occupancy.mean));
            t.push(format!("qmax={}", r.occupancy.max));
            t.push(format!("qslots={}", r.occupancy.slots_sampled));
            t.push(format!("rounds={}", r.mean_rounds));
            t.push(format!("verdict={}", verdict_str(r.verdict)));
            t.push(format!("slots={}", r.slots_run));
            t.push(format!("adm={}", r.packets_admitted));
            t.push(format!("cdel={}", r.copies_delivered));
            t.push(format!("thr={}", r.throughput));
        }
        CellOutcome::Failed(f) => {
            t.push("status=failed".into());
            t.push(format!("load={}", f.load));
            t.push(format!("attempts={}", f.attempts));
            match &f.reason {
                CellFailureReason::Panic(msg) => {
                    t.push("reason=panic".into());
                    t.push(format!("msg={}", sanitize(msg)));
                }
                CellFailureReason::Timeout { millis } => {
                    t.push("reason=timeout".into());
                    t.push(format!("msg=cell exceeded {millis} ms"));
                }
                CellFailureReason::Error(msg) => {
                    t.push("reason=error".into());
                    t.push(format!("msg={}", sanitize(msg)));
                }
            }
        }
    }
    t.join("\t")
}

/// One token of a journal line.
fn field<'a>(tokens: &'a [(&str, &str)], key: &str) -> Result<&'a str, String> {
    tokens
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .ok_or_else(|| format!("missing field {key}"))
}

fn parse_num<T: std::str::FromStr>(tokens: &[(&str, &str)], key: &str) -> Result<T, String> {
    let raw = field(tokens, key)?;
    raw.parse()
        .map_err(|_| format!("bad value {raw} for {key}"))
}

fn parse_opt_f64(tokens: &[(&str, &str)], key: &str) -> Result<Option<f64>, String> {
    let raw = field(tokens, key)?;
    if raw == "none" {
        return Ok(None);
    }
    raw.parse()
        .map(Some)
        .map_err(|_| format!("bad value {raw} for {key}"))
}

/// Decode the `wl=` workload-provenance field. Journals written before the
/// field existed simply lack it; those rows decode with an empty workload
/// rather than failing, so PR 1 journals stay resumable.
fn parse_workload(tokens: &[(&str, &str)]) -> Result<Vec<(String, f64)>, String> {
    let raw = field(tokens, "wl").unwrap_or("");
    let mut out = Vec::new();
    for pair in raw.split(';').filter(|p| !p.is_empty()) {
        let (k, v) = pair
            .split_once(':')
            .ok_or_else(|| format!("bad workload pair {pair}"))?;
        let num: f64 = v.parse().map_err(|_| format!("bad workload value {v}"))?;
        out.push((k.to_string(), num));
    }
    Ok(out)
}

fn parse_opt_u64(tokens: &[(&str, &str)], key: &str) -> Result<Option<u64>, String> {
    let raw = field(tokens, key)?;
    if raw == "none" {
        return Ok(None);
    }
    raw.parse()
        .map(Some)
        .map_err(|_| format!("bad value {raw} for {key}"))
}

/// Parse one journal line back into `(cell index, outcome)`.
///
/// `Err` means the line is torn or malformed (ignorable); a parseable line
/// whose key disagrees with the sweep is reported through `key_mismatch`
/// by the caller instead.
pub(crate) fn decode_line(line: &str, sweep: &Sweep) -> Result<(usize, u64, CellOutcome), String> {
    let tokens: Vec<(&str, &str)> = line
        .split('\t')
        .filter_map(|tok| tok.split_once('='))
        .collect();
    let idx: usize = parse_num(&tokens, "cell")?;
    let key = u64::from_str_radix(field(&tokens, "key")?, 16).map_err(|_| "bad key")?;
    let points = sweep.points.len().max(1);
    let sk = *sweep
        .switches
        .get(idx / points)
        .ok_or("cell index out of range")?;
    let load: f64 = parse_num(&tokens, "load")?;
    let outcome = match field(&tokens, "status")? {
        "ok" => CellOutcome::Completed(SweepRow {
            switch: sk,
            load,
            result: RunResult {
                switch_name: field(&tokens, "sw")?.to_string(),
                traffic_name: field(&tokens, "tr")?.to_string(),
                offered_load: parse_opt_f64(&tokens, "ol")?,
                workload: parse_workload(&tokens)?,
                delay: DelaySummary {
                    mean_input_oriented: parse_num(&tokens, "din")?,
                    mean_output_oriented: parse_num(&tokens, "dout")?,
                    p99_output: parse_opt_u64(&tokens, "p99")?,
                    max_output: parse_opt_u64(&tokens, "dmax")?,
                    completed_packets: parse_num(&tokens, "done")?,
                    delivered_copies: parse_num(&tokens, "dcop")?,
                },
                occupancy: OccupancySummary {
                    mean: parse_num(&tokens, "qmean")?,
                    max: parse_num(&tokens, "qmax")?,
                    slots_sampled: parse_num(&tokens, "qslots")?,
                },
                mean_rounds: parse_num(&tokens, "rounds")?,
                verdict: match field(&tokens, "verdict")? {
                    "stable" => SaturationVerdict::Stable,
                    "saturated" => SaturationVerdict::Saturated,
                    "cap" => SaturationVerdict::CapExceeded,
                    other => return Err(format!("bad verdict {other}")),
                },
                slots_run: parse_num(&tokens, "slots")?,
                packets_admitted: parse_num(&tokens, "adm")?,
                copies_delivered: parse_num(&tokens, "cdel")?,
                throughput: parse_num(&tokens, "thr")?,
            },
        }),
        "failed" => {
            let msg = field(&tokens, "msg").unwrap_or("").to_string();
            let reason = match field(&tokens, "reason")? {
                "panic" => CellFailureReason::Panic(msg),
                "timeout" => CellFailureReason::Timeout {
                    millis: msg
                        .split_whitespace()
                        .nth(2)
                        .and_then(|w| w.parse().ok())
                        .unwrap_or(0),
                },
                "error" => CellFailureReason::Error(msg),
                other => return Err(format!("bad reason {other}")),
            };
            CellOutcome::Failed(FailedCell {
                switch: sk,
                load,
                attempts: parse_num(&tokens, "attempts")?,
                reason,
            })
        }
        other => return Err(format!("bad status {other}")),
    };
    Ok((idx, key, outcome))
}

/// An open, append-mode checkpoint journal.
///
/// Appends are serialised through an internal mutex and flushed per line,
/// so parallel workers can record cells directly and a killed process
/// loses at most the line being written.
pub struct CheckpointJournal {
    path: String,
    grid: u64,
    writer: Mutex<BufWriter<File>>,
}

impl CheckpointJournal {
    fn io_err(path: &str, e: impl std::fmt::Display) -> SimError {
        SimError::Journal {
            path: path.to_string(),
            message: e.to_string(),
        }
    }

    /// Create (truncate) a journal for `sweep` at `path`.
    pub fn create(
        path: &str,
        sweep: &Sweep,
        policy: &CellPolicy,
    ) -> Result<CheckpointJournal, SimError> {
        let grid = grid_hash(sweep, policy);
        let file = File::create(path).map_err(|e| Self::io_err(path, e))?;
        let mut writer = BufWriter::new(file);
        let cells = sweep.switches.len() * sweep.points.len();
        writeln!(writer, "{MAGIC}").map_err(|e| Self::io_err(path, e))?;
        writeln!(
            writer,
            "# grid={grid:016x} cells={cells} seed={} n={}",
            sweep.seed, sweep.n
        )
        .map_err(|e| Self::io_err(path, e))?;
        writer.flush().map_err(|e| Self::io_err(path, e))?;
        Ok(CheckpointJournal {
            path: path.to_string(),
            grid,
            writer: Mutex::new(writer),
        })
    }

    /// Open an existing journal, validate it against `sweep`, and return
    /// the journal (positioned for appending) plus the per-cell outcomes
    /// it already holds. Missing file ⇒ fresh journal with no outcomes.
    ///
    /// Torn or malformed lines are skipped (their cells simply re-run);
    /// a line whose cell key disagrees with this sweep is a hard
    /// [`SimError::JournalMismatch`] — the journal belongs to a different
    /// grid and reusing it would silently misattribute results.
    #[allow(clippy::type_complexity)]
    pub fn resume(
        path: &str,
        sweep: &Sweep,
        policy: &CellPolicy,
    ) -> Result<(CheckpointJournal, Vec<Option<CellOutcome>>), SimError> {
        let cells = sweep.switches.len() * sweep.points.len();
        if !std::path::Path::new(path).exists() {
            return Ok((Self::create(path, sweep, policy)?, vec![None; cells]));
        }
        let grid = grid_hash(sweep, policy);
        let mut text = String::new();
        File::open(path)
            .and_then(|mut f| f.read_to_string(&mut text))
            .map_err(|e| Self::io_err(path, e))?;
        // A file that does not end in '\n' was torn mid-append. The torn
        // tail must be discarded even when it *parses*: a prefix of a
        // valid line can decode with a silently truncated numeric field
        // (`thr=0.95` torn to `thr=0.9`), which would poison the resumed
        // grid with a wrong-but-plausible row.
        let torn_tail = !text.is_empty() && !text.ends_with('\n');
        let mut all_lines: Vec<&str> = text.lines().collect();
        if torn_tail {
            if let Some(torn) = all_lines.pop() {
                eprintln!(
                    "warning: {path}: discarding torn final journal line \
                     ({} bytes); its cell will re-run",
                    torn.len()
                );
            }
        }
        let mut lines = all_lines.into_iter();
        let magic_ok = lines.next().is_some_and(|l| l.trim_end() == MAGIC);
        if !magic_ok {
            return Err(SimError::JournalMismatch {
                message: format!("{path} is not a sweep journal"),
            });
        }
        let header = lines.next().unwrap_or("");
        let header_grid = header
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("grid="))
            .and_then(|v| u64::from_str_radix(v, 16).ok());
        if header_grid != Some(grid) {
            let found = header_grid.map_or_else(|| "missing".to_string(), |g| format!("{g:016x}"));
            return Err(SimError::JournalMismatch {
                message: format!(
                    "{path} was written for a different sweep \
                     (grid {found} vs expected {grid:016x})"
                ),
            });
        }
        let mut loaded: Vec<Option<CellOutcome>> = vec![None; cells];
        for line in lines {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Ok((idx, key, outcome)) = decode_line(line, sweep) else {
                continue; // torn final line from a killed run
            };
            if idx >= cells || key != cell_key(grid, idx, sweep) {
                return Err(SimError::JournalMismatch {
                    message: format!("{path}: cell {idx} keyed for a different sweep"),
                });
            }
            loaded[idx] = Some(outcome); // duplicates: last write wins
        }
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| Self::io_err(path, e))?;
        Ok((
            CheckpointJournal {
                path: path.to_string(),
                grid,
                writer: Mutex::new(BufWriter::new(file)),
            },
            loaded,
        ))
    }

    /// Append one finished cell and flush it to disk.
    pub fn record(&self, idx: usize, sweep: &Sweep, outcome: &CellOutcome) -> Result<(), SimError> {
        let line = encode_line(idx, cell_key(self.grid, idx, sweep), outcome);
        // Recover rather than propagate poisoning: the journal itself never
        // panics while holding the lock, and a poisoned-but-intact writer
        // is still the right place to append.
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        writeln!(writer, "{line}")
            .and_then(|()| writer.flush())
            .map_err(|e| Self::io_err(&self.path, e))
    }

    /// The journal's path.
    pub fn path(&self) -> &str {
        &self.path
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

    fn sample_row(sweep: &Sweep) -> CellOutcome {
        let (load, tk) = sweep.points[1];
        let mut sw = sweep.switches[0].build(sweep.n, 1);
        let mut tr = tk.build(sweep.n, 2);
        let result = crate::engine::simulate(sw.as_mut(), tr.as_mut(), &sweep.run);
        CellOutcome::Completed(SweepRow {
            switch: sweep.switches[0],
            load,
            result,
        })
    }

    #[test]
    fn encode_decode_roundtrips_exactly() {
        let s = sweep();
        let outcome = sample_row(&s);
        let key = cell_key(grid_hash(&s, &CellPolicy::default()), 1, &s);
        let line = encode_line(1, key, &outcome);
        let (idx, k, decoded) = decode_line(&line, &s).expect("parse");
        assert_eq!((idx, k), (1, key));
        let (CellOutcome::Completed(a), CellOutcome::Completed(b)) = (&outcome, &decoded) else {
            panic!("wrong status");
        };
        assert_eq!(a.switch, b.switch);
        assert_eq!(a.load, b.load);
        assert_eq!(format!("{:?}", a.result), format!("{:?}", b.result));
    }

    #[test]
    fn lines_without_workload_field_still_decode() {
        // Journals written before the `wl=` field existed must stay
        // resumable; a missing field decodes as an empty workload.
        let s = sweep();
        let outcome = sample_row(&s);
        let line = encode_line(1, 3, &outcome);
        let stripped: String = line
            .split('\t')
            .filter(|tok| !tok.starts_with("wl="))
            .collect::<Vec<_>>()
            .join("\t");
        assert_ne!(line, stripped, "encoded line should carry wl=");
        let (_, _, decoded) = decode_line(&stripped, &s).expect("legacy line parses");
        let CellOutcome::Completed(row) = decoded else {
            panic!("wrong status");
        };
        assert!(row.result.workload.is_empty());
    }

    #[test]
    fn failed_rows_roundtrip() {
        let s = sweep();
        for reason in [
            CellFailureReason::Panic("index out of bounds: len 4".into()),
            CellFailureReason::Timeout { millis: 1500 },
            CellFailureReason::Error("invalid port count 0: must be in 1..=4096".into()),
        ] {
            let outcome = CellOutcome::Failed(FailedCell {
                switch: s.switches[1],
                load: 0.2,
                attempts: 3,
                reason: reason.clone(),
            });
            let line = encode_line(2, 1, &outcome);
            let (_, _, decoded) = decode_line(&line, &s).expect("parse");
            let CellOutcome::Failed(f) = decoded else {
                panic!("wrong status");
            };
            assert_eq!(f.attempts, 3);
            assert_eq!(f.reason, reason);
        }
    }

    #[test]
    fn resume_discards_a_byte_truncated_final_line() {
        let dir = std::env::temp_dir().join("fifoms-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.journal");
        let path = path.to_str().unwrap();
        let s = sweep();
        let p = CellPolicy::default();
        let outcome = sample_row(&s);
        {
            let journal = CheckpointJournal::create(path, &s, &p).unwrap();
            journal.record(0, &s, &outcome).unwrap();
            journal.record(1, &s, &outcome).unwrap();
        }
        let full = std::fs::read(path).unwrap();
        // Truncate the final line at every byte offset, including cuts
        // that leave a *parseable* prefix (e.g. a shortened float); the
        // resume must never surface cell 1 from a torn tail, and cell 0
        // (safely newline-terminated) must always survive.
        let line_start = full[..full.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        for cut in line_start..full.len() - 1 {
            std::fs::write(path, &full[..cut]).unwrap();
            let (_j, loaded) = CheckpointJournal::resume(path, &s, &p)
                .unwrap_or_else(|e| panic!("cut at byte {cut}: {e}"));
            assert!(loaded[0].is_some(), "cut at byte {cut} lost cell 0");
            assert!(loaded[1].is_none(), "cut at byte {cut} resurrected the torn cell");
        }
        // The intact file still loads both.
        std::fs::write(path, &full).unwrap();
        let (_j, loaded) = CheckpointJournal::resume(path, &s, &p).unwrap();
        assert!(loaded[0].is_some() && loaded[1].is_some());
    }

    #[test]
    fn ingress_fault_fingerprint_keeps_the_pre_egress_shape() {
        // Grid hashes of ingress-mode schedules must not change now that
        // FaultConfig carries egress fields, or old journals with fault
        // sweeps would refuse to resume.
        let fc = fifoms_fabric::FaultConfig::moderate(3);
        assert_eq!(
            fault_fingerprint(Some(&fc)),
            "Some(FaultConfig { seed: 3, flap_period: 1000, flap_duration: 50, \
             crosspoint_faults: 2, crosspoint_at: 500, crosspoint_duration: 2000 })"
        );
        // Egress mode (and a retry budget) genuinely change the results,
        // so they must change the fingerprint.
        let eg = fifoms_fabric::FaultConfig::egress(3);
        assert_ne!(fault_fingerprint(Some(&eg)), fault_fingerprint(Some(&fc)));
        let mut budgeted = fc;
        budgeted.retry_budget = 1;
        assert_ne!(fault_fingerprint(Some(&budgeted)), fault_fingerprint(Some(&fc)));
    }

    #[test]
    fn grid_hash_tracks_result_affecting_fields_only() {
        let s = sweep();
        let p = CellPolicy::default();
        let base = grid_hash(&s, &p);
        let mut s2 = s.clone();
        s2.seed = 8;
        assert_ne!(base, grid_hash(&s2, &p));
        let mut s3 = s.clone();
        s3.run.slots = 4_000;
        assert_ne!(base, grid_hash(&s3, &p));
        let mut p2 = p.clone();
        p2.faults = Some(fifoms_fabric::FaultConfig::moderate(1));
        assert_ne!(base, grid_hash(&s, &p2));
        // Timeout and retry budgets do not invalidate a journal.
        let mut p3 = p.clone();
        p3.timeout = Some(std::time::Duration::from_secs(5));
        p3.retries = 9;
        assert_eq!(base, grid_hash(&s, &p3));
    }

    #[test]
    fn resume_rejects_foreign_and_corrupt_journals() {
        let dir = std::env::temp_dir().join("fifoms-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let s = sweep();
        let p = CellPolicy::default();

        // Not a journal at all.
        let bogus = dir.join("bogus.journal");
        std::fs::write(&bogus, "hello\nworld\n").unwrap();
        let err = CheckpointJournal::resume(bogus.to_str().unwrap(), &s, &p)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, SimError::JournalMismatch { .. }), "{err}");

        // A journal for a different sweep.
        let other = dir.join("other.journal");
        let mut s2 = s.clone();
        s2.seed = 99;
        CheckpointJournal::create(other.to_str().unwrap(), &s2, &p).unwrap();
        let err = CheckpointJournal::resume(other.to_str().unwrap(), &s, &p)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, SimError::JournalMismatch { .. }), "{err}");
    }

    #[test]
    fn journal_records_and_reloads_cells() {
        let dir = std::env::temp_dir().join("fifoms-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reload.journal");
        let path = path.to_str().unwrap();
        let s = sweep();
        let p = CellPolicy::default();
        let outcome = sample_row(&s);
        {
            let journal = CheckpointJournal::create(path, &s, &p).unwrap();
            journal.record(1, &s, &outcome).unwrap();
        }
        let (_journal, loaded) = CheckpointJournal::resume(path, &s, &p).unwrap();
        assert_eq!(loaded.len(), 4);
        assert!(loaded[0].is_none() && loaded[2].is_none() && loaded[3].is_none());
        let Some(CellOutcome::Completed(row)) = &loaded[1] else {
            panic!("cell 1 not reloaded: {:?}", loaded[1]);
        };
        let CellOutcome::Completed(orig) = &outcome else {
            unreachable!()
        };
        assert_eq!(format!("{:?}", row.result), format!("{:?}", orig.result));

        // A torn final line is skipped, not fatal.
        let mut text = std::fs::read_to_string(path).unwrap();
        text.push_str("cell=2\tkey=00000000");
        std::fs::write(path, text).unwrap();
        let (_journal, loaded) = CheckpointJournal::resume(path, &s, &p).unwrap();
        assert!(loaded[1].is_some() && loaded[2].is_none());
    }
}

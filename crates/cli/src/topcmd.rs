//! The `top` subcommand: an in-terminal live view of a running campaign.
//!
//! `fifoms-repro top <snapshot.json>` attaches to the snapshot file a
//! campaign publishes via `--snapshot-out` and re-renders it every
//! `--interval-ms` until every scope reports `complete` — windowed
//! rates, per-window scheduling share, the per-slot wall-time tail from
//! the live [`Log2Histogram`](fifoms_obs::Log2Histogram), and the
//! per-input fault scoreboard. `--once` renders a single frame and
//! exits, which is what CI and scripts use; `--timeseries <file.jsonl>`
//! additionally validates a `--timeseries-out` stream line-by-line
//! against `schemas/timeseries.schema.json`.
//!
//! Every snapshot read is validated against
//! `schemas/snapshot.schema.json` (both schemas are compiled in with
//! `include_str!`, so `top` works from any working directory). Reads
//! race the producer safely: the bus writes through a temp file and an
//! atomic rename, so a frame is either the previous snapshot or the
//! next one, never a torn file.
//!
//! This module also owns [`telemetry_spec`], the shared builder that
//! turns the `--timeseries-out` / `--snapshot-out` / `--prom-out` flags
//! into the [`TelemetrySpec`] the campaign commands (`sweep`, `chaos`,
//! `overload`) attach to their runs.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fifoms_obs::{schema, Json, JsonlSink, SnapshotBus};
use fifoms_sim::TelemetrySpec;
use fifoms_types::SimError;

use crate::args::Options;

const SNAPSHOT_SCHEMA: &str = include_str!("../../../schemas/snapshot.schema.json");
const TIMESERIES_SCHEMA: &str = include_str!("../../../schemas/timeseries.schema.json");

/// Trailing windows shown per scope.
const SHOW_WINDOWS: usize = 5;

/// Live mode gives the producer this long to create the snapshot file
/// before giving up (a campaign publishes its first window quickly; a
/// missing file after this is almost certainly a wrong path).
const WAIT_LIMIT_MS: u64 = 60_000;

/// Build the live-telemetry spec from the `--timeseries-out`,
/// `--snapshot-out` and `--prom-out` flags; `None` when none is given,
/// so unobserved campaigns take the plain (bit-identical) path.
pub fn telemetry_spec(opts: &Options) -> Result<Option<TelemetrySpec>, SimError> {
    if opts.timeseries_out.is_none() && opts.snapshot_out.is_none() && opts.prom_out.is_none() {
        return Ok(None);
    }
    let mut spec = TelemetrySpec::new(opts.window);
    if let Some(path) = &opts.timeseries_out {
        let file = std::fs::File::create(path)
            .map_err(|e| SimError::Usage(format!("cannot create {path}: {e}")))?;
        spec.series = Some(Arc::new(JsonlSink::new(std::io::BufWriter::new(file))));
    }
    if opts.snapshot_out.is_some() || opts.prom_out.is_some() {
        spec.bus = Some(Arc::new(SnapshotBus::new(
            opts.snapshot_out.as_deref().map(PathBuf::from),
            opts.prom_out.as_deref().map(PathBuf::from),
        )));
    }
    Ok(Some(spec))
}

/// Print one `wrote <path>` line per telemetry output a campaign
/// produced, so the follow-up `top` invocation is copy-pasteable.
pub fn report_telemetry_outputs(opts: &Options) {
    for path in [&opts.timeseries_out, &opts.snapshot_out, &opts.prom_out]
        .into_iter()
        .flatten()
    {
        println!("wrote {path}");
    }
}

/// Entry point for `fifoms-repro top`.
pub fn top(opts: &Options) -> Result<(), SimError> {
    let path = opts
        .input
        .as_deref()
        .expect("parse enforced the positional snapshot path");
    let schema_doc =
        Json::parse(SNAPSHOT_SCHEMA).expect("checked-in snapshot schema parses");

    if opts.once {
        let doc = load_snapshot(path, &schema_doc)?;
        print!("{}", render(&doc));
        if let Some(ts) = opts.timeseries.as_deref() {
            println!("{}", check_timeseries(ts)?);
        }
        return Ok(());
    }

    let interval = std::time::Duration::from_millis(opts.interval_ms);
    let mut waited_ms = 0u64;
    loop {
        if !Path::new(path).exists() {
            if waited_ms >= WAIT_LIMIT_MS {
                return Err(SimError::Usage(format!(
                    "top: {path} did not appear within {}s — is the campaign \
                     running with --snapshot-out {path}?",
                    WAIT_LIMIT_MS / 1_000
                )));
            }
            println!("top: waiting for {path} ...");
            std::thread::sleep(interval);
            waited_ms += opts.interval_ms;
            continue;
        }
        let doc = load_snapshot(path, &schema_doc)?;
        // ANSI clear + home, then the frame: a plain full-screen redraw
        // (no cursor tricks, so it degrades fine in pipes and logs).
        print!("\x1b[2J\x1b[H{}", render(&doc));
        if all_complete(&doc) {
            println!("top: all scopes complete");
            if let Some(ts) = opts.timeseries.as_deref() {
                println!("{}", check_timeseries(ts)?);
            }
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// Read, parse and schema-validate one snapshot frame.
fn load_snapshot(path: &str, schema_doc: &Json) -> Result<Json, SimError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SimError::Usage(format!("top: cannot read {path}: {e}")))?;
    let doc = Json::parse(&text)
        .map_err(|e| SimError::Usage(format!("top: {path} is not valid JSON: {e}")))?;
    schema::validate(&doc, schema_doc).map_err(|e| {
        SimError::Usage(format!(
            "top: {path} is not a fifoms-telemetry-snapshot-v1 document: {e}"
        ))
    })?;
    Ok(doc)
}

/// Whether every scope in the snapshot has published its final,
/// completion-marked frame.
fn all_complete(doc: &Json) -> bool {
    match doc.get("scopes") {
        Some(Json::Obj(scopes)) => {
            !scopes.is_empty()
                && scopes
                    .iter()
                    .all(|(_, body)| matches!(body.get("complete"), Some(Json::Bool(true))))
        }
        _ => false,
    }
}

fn num(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64
}

/// Human-scale rate: `912`, `14.2k`, `1.3M`.
fn human_rate(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Slots per second from a window's slot count and wall nanoseconds.
fn window_rate(slots: u64, wall_ns: u64) -> String {
    if wall_ns == 0 {
        return "-".to_string();
    }
    human_rate(slots as f64 / (wall_ns as f64 / 1e9))
}

/// Render one full frame of the live view.
fn render(doc: &Json) -> String {
    let mut out = String::new();
    let seq = num(doc, "seq");
    let empty = Vec::new();
    let scopes = match doc.get("scopes") {
        Some(Json::Obj(pairs)) => pairs,
        _ => &empty,
    };
    let done = scopes
        .iter()
        .filter(|(_, b)| matches!(b.get("complete"), Some(Json::Bool(true))))
        .count();
    let _ = writeln!(
        out,
        "fifoms top — snapshot seq {seq}, {} scope(s), {done} complete",
        scopes.len()
    );
    for (scope, body) in scopes {
        render_scope(&mut out, scope, body);
    }
    out
}

/// Render one scope's panel: totals, health, tail, trailing windows and
/// the per-input fault scoreboard.
fn render_scope(out: &mut String, scope: &str, body: &Json) {
    let state = if matches!(body.get("complete"), Some(Json::Bool(true))) {
        "DONE"
    } else {
        "RUNNING"
    };
    let _ = writeln!(
        out,
        "\n── {scope} ─ {state} ─ {} slots ({} ports, window {})",
        num(body, "slots"),
        num(body, "ports"),
        num(body, "stride"),
    );
    if let Some(totals) = body.get("totals") {
        let _ = writeln!(
            out,
            "   totals   admitted {} pkts   delivered {} copies   completed {} pkts",
            num(totals, "admitted_packets"),
            num(totals, "delivered_copies"),
            num(totals, "completed_packets"),
        );
        let _ = writeln!(
            out,
            "   faults   drops tail {} / pushout {} / fair-shed {}   kills {}   recoveries {}",
            num(totals, "drop_tail_full"),
            num(totals, "drop_pushout"),
            num(totals, "drop_fair_shed"),
            num(totals, "copy_kills"),
            num(totals, "copy_recoveries"),
        );
    }
    let _ = writeln!(
        out,
        "   health   backlog {} copies   voq high-water {}   quarantined paths {}",
        num(body, "backlog_copies"),
        num(body, "voq_high_water"),
        num(body, "quarantined_paths"),
    );
    if let Some(tail) = body.get("slot_ns") {
        let _ = writeln!(
            out,
            "   slot ns  p50 {}   p99 {}   p99.9 {}   max {}   ({} samples)",
            num(tail, "p50_ns"),
            num(tail, "p99_ns"),
            num(tail, "p999_ns"),
            num(tail, "max_ns"),
            num(tail, "samples"),
        );
    }
    if let Some(windows) = body.get("windows").and_then(Json::as_arr) {
        if !windows.is_empty() {
            let shown = &windows[windows.len().saturating_sub(SHOW_WINDOWS)..];
            let _ = writeln!(
                out,
                "   windows  (last {} of {} ringed)",
                shown.len(),
                windows.len()
            );
            let _ = writeln!(
                out,
                "     {:>6} {:>7} {:>7} {:>8} {:>9} {:>7}",
                "win", "slots", "admit", "deliver", "slots/s", "sched%"
            );
            for w in shown {
                let wall = num(w, "wall_ns");
                let sched_pct = if wall == 0 {
                    "-".to_string()
                } else {
                    format!("{:.1}", 100.0 * num(w, "sched_ns") as f64 / wall as f64)
                };
                let _ = writeln!(
                    out,
                    "     {:>6} {:>7} {:>7} {:>8} {:>9} {:>7}",
                    num(w, "window"),
                    num(w, "slots"),
                    num(w, "admitted_packets"),
                    num(w, "delivered_copies"),
                    window_rate(num(w, "slots"), wall),
                    sched_pct,
                );
            }
        }
    }
    if let Some(inputs) = body.get("inputs").and_then(Json::as_arr) {
        for i in inputs {
            let (kills, recov, drops, quar) = (
                num(i, "kills"),
                num(i, "recoveries"),
                num(i, "admission_drops"),
                num(i, "quarantined"),
            );
            if kills + recov + drops + quar == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "   input #{}  kills {kills}  recoveries {recov}  admission drops {drops}{}",
                num(i, "input"),
                if quar > 0 {
                    format!("  [{quar} quarantined path(s)]")
                } else {
                    String::new()
                },
            );
        }
    }
}

/// Validate a `--timeseries-out` stream line-by-line against
/// `schemas/timeseries.schema.json` and summarize it.
fn check_timeseries(path: &str) -> Result<String, SimError> {
    let schema_doc =
        Json::parse(TIMESERIES_SCHEMA).expect("checked-in timeseries schema parses");
    let text = std::fs::read_to_string(path)
        .map_err(|e| SimError::Usage(format!("top: cannot read {path}: {e}")))?;
    let mut records = 0u64;
    let mut windows = 0u64;
    let mut scopes: BTreeSet<String> = BTreeSet::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| {
            SimError::Usage(format!("top: {path}:{}: not valid JSON: {e}", lineno + 1))
        })?;
        schema::validate(&doc, &schema_doc).map_err(|e| {
            SimError::Usage(format!(
                "top: {path}:{}: violates fifoms-timeseries-v1: {e}",
                lineno + 1
            ))
        })?;
        records += 1;
        if doc.get("event").and_then(Json::as_str) == Some("window_summary") {
            windows += 1;
        }
        if let Some(scope) = doc.get("scope").and_then(Json::as_str) {
            scopes.insert(scope.to_string());
        }
    }
    if records == 0 {
        return Err(SimError::Usage(format!(
            "top: {path} holds no fifoms-timeseries-v1 records"
        )));
    }
    Ok(format!(
        "timeseries {path}: {records} record(s) valid against fifoms-timeseries-v1 \
         ({windows} window(s) across {} scope(s))",
        scopes.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_scope() -> Json {
        let mut totals = Json::object();
        totals.set("admitted_packets", 500u64);
        totals.set("delivered_copies", 1_000u64);
        totals.set("completed_packets", 500u64);
        totals.set("drop_tail_full", 3u64);
        totals.set("drop_pushout", 0u64);
        totals.set("drop_fair_shed", 0u64);
        totals.set("copy_kills", 2u64);
        totals.set("copy_recoveries", 2u64);
        let mut w = Json::object();
        w.set("window", 1u64);
        w.set("slots", 100u64);
        w.set("admitted_packets", 50u64);
        w.set("delivered_copies", 100u64);
        w.set("wall_ns", 1_000_000u64);
        w.set("sched_ns", 400_000u64);
        let mut input = Json::object();
        input.set("input", 3u64);
        input.set("kills", 2u64);
        input.set("recoveries", 2u64);
        input.set("admission_drops", 0u64);
        input.set("quarantined", 1u64);
        let mut body = Json::object();
        body.set("complete", true);
        body.set("ports", 8u64);
        body.set("stride", 100u64);
        body.set("slots", 1_000u64);
        body.set("totals", totals);
        body.set("backlog_copies", 0u64);
        body.set("voq_high_water", 14u64);
        body.set("quarantined_paths", 1u64);
        body.set("windows", Json::Arr(vec![w]));
        body.set("inputs", Json::Arr(vec![input]));
        body
    }

    fn sample_snapshot() -> Json {
        let mut scopes = Json::object();
        scopes.set("baseline@0.5", sample_scope());
        let mut doc = Json::object();
        doc.set("schema", "fifoms-telemetry-snapshot-v1");
        doc.set("seq", 7u64);
        doc.set("scopes", scopes);
        doc
    }

    #[test]
    fn sample_snapshot_validates_and_renders() {
        let doc = sample_snapshot();
        let schema_doc = Json::parse(SNAPSHOT_SCHEMA).unwrap();
        schema::validate(&doc, &schema_doc).expect("sample conforms");
        let frame = render(&doc);
        assert!(frame.contains("baseline@0.5"), "{frame}");
        assert!(frame.contains("DONE"), "{frame}");
        assert!(frame.contains("delivered 1000 copies"), "{frame}");
        assert!(frame.contains("voq high-water 14"), "{frame}");
        assert!(frame.contains("input #3"), "{frame}");
        assert!(frame.contains("sched%"), "{frame}");
        assert!(all_complete(&doc));
    }

    #[test]
    fn incomplete_scopes_keep_the_view_live() {
        let mut doc = sample_snapshot();
        let mut running = sample_scope();
        running.set("complete", false);
        let Some(Json::Obj(scopes)) = doc.get("scopes").cloned().map(|mut s| {
            s.set("chaos#1", running);
            s
        }) else {
            panic!("scopes is an object");
        };
        doc.set("scopes", Json::Obj(scopes));
        assert!(!all_complete(&doc));
        let frame = render(&doc);
        assert!(frame.contains("RUNNING"), "{frame}");
        assert!(frame.contains("1 complete"), "{frame}");
    }

    #[test]
    fn rates_render_humanely() {
        assert_eq!(human_rate(912.0), "912");
        assert_eq!(human_rate(14_200.0), "14.2k");
        assert_eq!(human_rate(1_300_000.0), "1.3M");
        assert_eq!(window_rate(100, 0), "-");
        // 100 slots in 1ms = 100k slots/sec.
        assert_eq!(window_rate(100, 1_000_000), "100.0k");
    }

    #[test]
    fn timeseries_checker_accepts_real_lines_and_rejects_junk() {
        let dir = std::env::temp_dir();
        let good = dir.join(format!("fifoms-top-ts-good-{}.jsonl", std::process::id()));
        std::fs::write(
            &good,
            concat!(
                "{\"event\":\"window_meta\",\"scope\":\"s\",\"schema\":\"fifoms-timeseries-v1\",",
                "\"stride\":100,\"ring\":64,\"ports\":8}\n",
                "{\"event\":\"window_summary\",\"scope\":\"s\",\"window\":0,\"start_slot\":0,",
                "\"slots\":100,\"admitted_packets\":50,\"delivered_copies\":100,",
                "\"completed_packets\":50,\"drop_tail_full\":0,\"drop_pushout\":0,",
                "\"drop_fair_shed\":0,\"copy_kills\":0,\"copy_recoveries\":0,",
                "\"voq_high_water\":3,\"backlog_copies\":0,\"quarantined_paths\":0,",
                "\"sched_ns\":1000,\"wall_ns\":2000}\n",
            ),
        )
        .unwrap();
        let summary = check_timeseries(good.to_str().unwrap()).expect("valid stream");
        assert!(summary.contains("2 record(s)"), "{summary}");
        assert!(summary.contains("1 window(s)"), "{summary}");
        std::fs::remove_file(&good).ok();

        let bad = dir.join(format!("fifoms-top-ts-bad-{}.jsonl", std::process::id()));
        std::fs::write(&bad, "{\"event\":\"run_meta\",\"scope\":\"s\"}\n").unwrap();
        assert!(check_timeseries(bad.to_str().unwrap()).is_err());
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn telemetry_spec_is_none_without_flags() {
        let opts = Options::default();
        assert!(telemetry_spec(&opts).unwrap().is_none());
        let dir = std::env::temp_dir();
        let snap = dir.join(format!("fifoms-top-spec-{}.json", std::process::id()));
        let opts = Options {
            snapshot_out: Some(snap.to_str().unwrap().to_string()),
            window: 250,
            ..Options::default()
        };
        let spec = telemetry_spec(&opts).unwrap().expect("bus-only spec");
        assert!(spec.series.is_none());
        assert!(spec.bus.is_some());
        assert_eq!(spec.window, 250);
    }
}

//! Observability commands: the self-profiling harness (`profile`),
//! benchmark-artifact validation with the slots/sec ledger
//! (`check-bench`), and per-phase regression attribution (`perf-diff`).

use std::collections::BTreeMap;

use fifoms_obs::{schema, Json};
use fifoms_sim::{profile_run, RunConfig, SwitchKind, TrafficKind};
use fifoms_types::SimError;

use crate::args::Options;

fn io_err(path: &str, e: impl std::fmt::Display) -> SimError {
    SimError::Usage(format!("{path}: {e}"))
}

/// `fifoms-repro profile`: run the paper's reference workload (FIFOMS,
/// Bernoulli b=0.2 at load 0.6) once, timing the engine's four phases on
/// every `--sample-every`-th slot, and write the breakdown as
/// `BENCH_profile.json` (override with `--out`). The profiled run takes
/// the ordinary engine path, so the measurement itself is representative.
pub fn profile(opts: &Options) -> Result<(), SimError> {
    let out = opts.out.as_deref().unwrap_or("BENCH_profile.json");
    let (load, b) = (0.6, 0.2);
    let mut sw = SwitchKind::Fifoms.build(opts.n, opts.seed);
    let mut tr =
        TrafficKind::bernoulli_at_load(load, b, opts.n).try_build(opts.n, opts.seed ^ 0xBEEF)?;
    let cfg = RunConfig::paper(opts.slots);
    let report = profile_run(sw.as_mut(), tr.as_mut(), &cfg, opts.sample_every)?;

    let doc = report.to_json();
    std::fs::write(out, format!("{doc}\n")).map_err(|e| io_err(out, e))?;

    println!(
        "profile: {} under {} ({} slots, phases sampled every {} slots)",
        report.result.switch_name, report.result.traffic_name, report.result.slots_run,
        report.sample_every
    );
    println!(
        "  wall time {:.3} s | {:.0} slots/s | throughput {:.4}",
        report.total_ns as f64 / 1e9,
        report.slots_per_sec(),
        report.result.throughput
    );
    let mut table = fifoms_sim::report::Table::new(vec![
        "phase".to_string(),
        "calls".to_string(),
        "exclusive-ms".to_string(),
        "share".to_string(),
    ]);
    let total_excl: u64 = report.profiler.phases().map(|(_, s)| s.exclusive_ns).sum();
    for (phase, s) in report.profiler.phases() {
        let share = if total_excl > 0 {
            100.0 * s.exclusive_ns as f64 / total_excl as f64
        } else {
            0.0
        };
        table.push_row(vec![
            phase.to_string(),
            format!("{}", s.calls),
            format!("{:.3}", s.exclusive_ns as f64 / 1e6),
            format!("{share:.1}%"),
        ]);
    }
    print!("{}", table.render());
    println!("wrote {out}");
    Ok(())
}

/// `fifoms-repro check-bench`: validate whichever benchmark artifacts
/// exist in the working directory against their checked-in schemas
/// (`--current` names the core-bench artifact). Fails if an artifact is
/// malformed — or if none exist at all. It compares no slots/sec, and
/// refuses `--baseline`, so a script written for the removed wall-clock
/// gate fails instead of passing.
pub fn check_bench(opts: &Options) -> Result<(), SimError> {
    if opts.baseline.is_some() {
        return Err(SimError::Usage(
            "check-bench compares no slots/sec; --baseline was removed".into(),
        ));
    }
    let core_path = opts.current.as_deref().unwrap_or("BENCH_core.json");
    let pairs = [
        ("BENCH_profile.json", "schemas/bench_profile.schema.json"),
        (core_path, "schemas/bench_core.schema.json"),
    ];
    let mut checked = 0;
    for (doc_path, schema_path) in pairs {
        if !std::path::Path::new(doc_path).exists() {
            println!("check-bench: {doc_path} absent, skipped");
            continue;
        }
        let doc = read_json(doc_path)?;
        let schema_doc = read_json(schema_path)?;
        schema::validate(&doc, &schema_doc)
            .map_err(|e| SimError::Usage(format!("{doc_path} violates {schema_path}: {e}")))?;
        println!("check-bench: {doc_path} conforms to {schema_path}");
        checked += 1;
    }
    if checked == 0 {
        return Err(SimError::Usage(
            "check-bench: no BENCH_*.json artifacts found (run `fifoms-repro profile` \
             and `cargo bench -p fifoms-bench --bench core` first)"
                .into(),
        ));
    }
    if let Some(ledger) = opts.ledger.as_deref() {
        append_ledger(ledger, core_path, opts.ledger_note.as_deref())?;
    }
    Ok(())
}

/// Append one `fifoms-bench-ledger-v1` record to the JSONL ledger: the
/// current core-bench artifact's `(cell -> slots/sec)` table plus a
/// free-form note (`scripts/bench.sh` stores the commit id there), so
/// throughput history accumulates across runs without a database.
fn append_ledger(ledger: &str, source: &str, note: Option<&str>) -> Result<(), SimError> {
    let cells = bench_rows(source)?;
    let mut doc = Json::object();
    doc.set("schema", "fifoms-bench-ledger-v1");
    doc.set("source", source);
    if let Some(note) = note {
        doc.set("note", note);
    }
    let rows: Vec<Json> = cells
        .iter()
        .map(|(key, sps)| {
            let mut row = Json::object();
            row.set("key", key.as_str());
            row.set("slots_per_sec", *sps);
            row
        })
        .collect();
    doc.set("rows", Json::Arr(rows));
    append_jsonl(ledger, &doc)?;
    println!(
        "check-bench: appended {} cell(s) from {source} to {ledger}",
        cells.len()
    );
    Ok(())
}

/// Append one JSON document as a line to a JSONL ledger, creating parent
/// directories as needed. Shared by the bench ledger (`check-bench
/// --ledger`) and the lint rule-hit ledger (`lint --stats`) so every
/// history file in `results/` is written the same way.
pub(crate) fn append_jsonl(path: &str, doc: &Json) -> Result<(), SimError> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| io_err(path, e))?;
        }
    }
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| io_err(path, e))?;
    writeln!(f, "{doc}").map_err(|e| io_err(path, e))?;
    Ok(())
}

/// One `(cell key) -> slots/sec` row of a core-bench artifact. The key is
/// `switch@load@nN`; rows without their own `n` (v1 artifacts) inherit
/// the document-level `n`, so ledger rows of old and new artifacts line
/// up.
fn bench_rows(path: &str) -> Result<Vec<(String, f64)>, SimError> {
    let doc = read_json(path)?;
    let doc_n = doc.get("n").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| SimError::Usage(format!("{path}: missing rows array")))?;
    let mut out = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let get_num = |key: &str| {
            row.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| SimError::Usage(format!("{path}: row {i} missing {key}")))
        };
        let switch = row
            .get("switch")
            .and_then(Json::as_str)
            .ok_or_else(|| SimError::Usage(format!("{path}: row {i} missing switch")))?;
        let n = row.get("n").and_then(Json::as_f64).map_or(doc_n, |v| v as u64);
        let load = get_num("load")?;
        out.push((format!("{switch}@{load:.4}@n{n}"), get_num("slots_per_sec")?));
    }
    Ok(out)
}

/// `path -> (exclusive_ns, calls)` span table of one profile artifact.
type SpanTable = BTreeMap<String, (u64, u64)>;

/// Per-span exclusive time of one profile artifact, keyed by tree path
/// (`schedule/grant`), plus the artifact's end-to-end slots/sec. v1 flat
/// artifacts have no `path` field and key by phase name — the attribution
/// then simply has no nested rows to name.
fn profile_spans(path: &str) -> Result<(f64, SpanTable), SimError> {
    let doc = read_json(path)?;
    let slots_per_sec = doc
        .get("slots_per_sec")
        .and_then(Json::as_f64)
        .ok_or_else(|| SimError::Usage(format!("{path}: missing slots_per_sec")))?;
    let phases = doc
        .get("phases")
        .and_then(Json::as_arr)
        .ok_or_else(|| {
            SimError::Usage(format!("{path}: missing phases array (not a profile artifact?)"))
        })?;
    let mut spans = BTreeMap::new();
    for (i, row) in phases.iter().enumerate() {
        let name = row
            .get("path")
            .or_else(|| row.get("phase"))
            .and_then(Json::as_str)
            .ok_or_else(|| SimError::Usage(format!("{path}: phase row {i} missing name")))?;
        let get_u64 = |key: &str| {
            row.get(key)
                .and_then(Json::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| SimError::Usage(format!("{path}: phase row {i} missing {key}")))
        };
        spans.insert(name.to_string(), (get_u64("exclusive_ns")?, get_u64("calls")?));
    }
    Ok((slots_per_sec, spans))
}

/// `fifoms-repro perf-diff <baseline.json> <current.json>`: attribute a
/// slots/sec delta between two profile artifacts to named spans. Prints
/// every span's exclusive ns/call on both sides; fails when end-to-end
/// slots/sec regressed past `--tolerance`, naming the span whose
/// per-call cost grew the most — the prime suspect the attribution
/// exists to identify.
pub fn perf_diff(opts: &Options) -> Result<(), SimError> {
    let baseline = opts.baseline.as_deref().expect("parse guaranteed baseline");
    let current = opts.current.as_deref().expect("parse guaranteed current");
    let tolerance = opts.tolerance;
    let (base_sps, base_spans) = profile_spans(baseline)?;
    let (cur_sps, cur_spans) = profile_spans(current)?;

    let mut table = fifoms_sim::report::Table::new(vec![
        "span".to_string(),
        "base ns/call".to_string(),
        "cur ns/call".to_string(),
        "delta".to_string(),
    ]);
    let per_call = |(ns, calls): (u64, u64)| ns as f64 / (calls.max(1)) as f64;
    // Largest per-call growth among spans present on both sides; ties to
    // the worst absolute growth so tiny noisy spans don't win the blame.
    let mut suspect: Option<(String, f64)> = None;
    for (span, &cur_cost) in &cur_spans {
        let Some(&base_cost) = base_spans.get(span) else {
            println!("perf-diff: span {span} not in baseline, skipped");
            continue;
        };
        let (base_npc, cur_npc) = (per_call(base_cost), per_call(cur_cost));
        let grew_ns = cur_npc - base_npc;
        table.push_row(vec![
            span.clone(),
            format!("{base_npc:.0}"),
            format!("{cur_npc:.0}"),
            format!("{grew_ns:+.0} ns"),
        ]);
        if suspect.as_ref().is_none_or(|(_, w)| grew_ns > *w) {
            suspect = Some((span.clone(), grew_ns));
        }
    }
    for span in base_spans.keys() {
        if !cur_spans.contains_key(span) {
            println!("perf-diff: span {span} vanished from current, skipped");
        }
    }
    print!("{}", table.render());

    let drop = (base_sps - cur_sps) / base_sps.max(f64::MIN_POSITIVE);
    println!(
        "perf-diff: {base_sps:.0} -> {cur_sps:.0} slots/s ({:+.1}%)",
        -drop * 100.0
    );
    if drop > tolerance {
        let blame = match &suspect {
            Some((span, grew_ns)) if *grew_ns > 0.0 => {
                format!("; prime suspect: {span} ({grew_ns:+.0} ns/call)")
            }
            _ => "; no span grew — suspect unprofiled time".to_string(),
        };
        return Err(SimError::Usage(format!(
            "perf-diff: slots/sec regressed {:.1}% (tolerance {:.1}%){blame}",
            drop * 100.0,
            tolerance * 100.0
        )));
    }
    println!(
        "perf-diff: within tolerance {:.1}% of {baseline}",
        tolerance * 100.0
    );
    Ok(())
}

fn read_json(path: &str) -> Result<Json, SimError> {
    let text = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    Json::parse(&text).map_err(|e| io_err(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_appends_one_validated_row_per_invocation() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let source = dir.join(format!("fifoms-ledger-src-{pid}.json"));
        let ledger = dir.join(format!("fifoms-ledger-{pid}.jsonl"));
        std::fs::remove_file(&ledger).ok();
        std::fs::write(
            &source,
            "{\"n\":8,\"rows\":[\
             {\"switch\":\"fifoms\",\"load\":0.6,\"slots_per_sec\":123456.0},\
             {\"switch\":\"islip\",\"load\":0.6,\"slots_per_sec\":98765.0}]}\n",
        )
        .unwrap();

        for note in ["first", "second"] {
            append_ledger(
                ledger.to_str().unwrap(),
                source.to_str().unwrap(),
                Some(note),
            )
            .expect("ledger append succeeds");
        }

        let text = std::fs::read_to_string(&ledger).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "one JSONL record per invocation");
        for (i, line) in lines.iter().enumerate() {
            let doc = Json::parse(line).expect("ledger line parses");
            assert_eq!(
                doc.get("schema").and_then(Json::as_str),
                Some("fifoms-bench-ledger-v1")
            );
            assert_eq!(
                doc.get("note").and_then(Json::as_str),
                Some(["first", "second"][i])
            );
            let rows = doc.get("rows").and_then(Json::as_arr).expect("rows array");
            assert_eq!(rows.len(), 2);
            assert_eq!(
                rows[0].get("key").and_then(Json::as_str),
                Some("fifoms@0.6000@n8")
            );
            assert_eq!(
                rows[0].get("slots_per_sec").and_then(Json::as_f64),
                Some(123456.0)
            );
        }
        std::fs::remove_file(&source).ok();
        std::fs::remove_file(&ledger).ok();
    }
}

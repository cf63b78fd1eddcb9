//! The `chaos` subcommand: seeded egress-fault campaigns with automatic
//! reproducer shrinking.
//!
//! A campaign runs [`campaign_scenarios`] plus the finite-buffer
//! [`buffer_pressure_scenarios`] through the armoured stack
//! (`CheckedSwitch` outside `FaultyFabric` outside the FIFOMS switch),
//! prints one table row per scenario with its recovery metrics, and —
//! when a scenario fails — delta-debugs it with [`shrink_scenario`] down
//! to a minimal `--scenario` spec printed as a ready-to-run reproducer.
//! Every cell runs under the shared cell guard ([`guarded`]): a
//! livelocked buffer-pressure cell times out and a panicking one is
//! reported as a panic, each failing the campaign instead of hanging or
//! killing CI; `--cell-timeout` overrides the watchdog limit. The
//! process exits nonzero if any scenario fails, panics or times out,
//! which is what the CI smoke stage keys on.

use std::time::Duration;

use fifoms_sim::{
    buffer_pressure_scenarios, campaign_scenarios, guarded, run_corruption_campaign,
    run_scenario_observed, shrink_scenario_guarded, CellFailureReason, ChaosOutcome, ChaosScenario,
    CheckpointFault, CorruptionOutcome, TelemetrySpec,
};
use fifoms_types::SimError;

use crate::args::Options;
use crate::topcmd;

/// Runs one chaos cell: the scenario, its telemetry wiring and scope.
type CellRunner = fn(&ChaosScenario, Option<&TelemetrySpec>, &str) -> ChaosOutcome;

/// Entry point for `fifoms-repro chaos`.
pub fn chaos(opts: &Options) -> Result<(), SimError> {
    campaign(opts, run_scenario_observed)
}

/// The campaign with its cell runner injectable, so tests can plant a
/// panicking cell.
fn campaign(opts: &Options, run: CellRunner) -> Result<(), SimError> {
    let scenarios = match &opts.scenario {
        Some(spec) => vec![ChaosScenario::parse(spec)?],
        None => {
            let mut list = campaign_scenarios(opts.seed, opts.scenarios, opts.smoke);
            list.extend(buffer_pressure_scenarios(
                opts.seed,
                (opts.scenarios / 2).max(3),
                opts.smoke,
            ));
            list
        }
    };
    let label = if opts.scenario.is_some() {
        "scenario"
    } else if opts.smoke {
        "smoke campaign"
    } else {
        "campaign"
    };
    // Wall-clock budget per cell: generous defaults (a healthy cell
    // finishes in well under a second) so only a genuine wedge trips it.
    let limit_millis = opts
        .cell_timeout
        .map_or(if opts.smoke { 60_000 } else { 600_000 }, |s| s * 1_000);
    println!(
        "chaos {label}: {} scenario(s), seed {}, cell watchdog {}s",
        scenarios.len(),
        opts.seed,
        limit_millis / 1_000
    );
    println!();
    print_header();

    // Live telemetry, when requested: every scenario streams windowed
    // counters under its own `chaos#k` scope (the spec is Arc-based, so
    // the per-cell clones share one sink and one snapshot bus). Shrink
    // probes below stay unobserved — reproducers must not depend on the
    // observer being attached.
    let telemetry = topcmd::telemetry_spec(opts)?;
    let mut outcomes: Vec<ChaosOutcome> = Vec::with_capacity(scenarios.len());
    let mut aborted: Vec<(ChaosScenario, CellFailureReason)> = Vec::new();
    let limit = Some(Duration::from_millis(limit_millis));
    for (k, sc) in scenarios.iter().enumerate() {
        let cell = *sc;
        let cell_telemetry = telemetry.clone();
        let scope = format!("chaos#{k}");
        match guarded(limit, move || Ok(run(&cell, cell_telemetry.as_ref(), &scope))) {
            Ok(out) => {
                print_row(k, &out);
                outcomes.push(out);
            }
            Err(reason) => {
                println!("{}", aborted_row(k, sc, &reason));
                aborted.push((*sc, reason));
            }
        }
    }
    println!();
    print_recovery_summary(&outcomes);
    topcmd::report_telemetry_outputs(opts);

    // Checkpoint-corruption campaign (skipped in single-`--scenario`
    // reproducer mode): crash a checkpointed run between checkpoints,
    // damage the newest checkpoint file one fault mode at a time, and
    // prove recovery falls back to the previous valid checkpoint and
    // still reproduces the uninterrupted run bit-for-bit.
    let mut corruption_failures = 0usize;
    if opts.scenario.is_none() {
        println!();
        println!(
            "checkpoint-corruption campaign: {} fault mode(s), seed {}",
            CheckpointFault::ALL.len(),
            opts.seed
        );
        let dir = std::env::temp_dir().join(format!(
            "fifoms-chaos-corruption-{}",
            std::process::id()
        ));
        let cells = run_corruption_campaign(opts.seed, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        for cell in &cells {
            print_corruption_row(cell);
            if !cell.ok() {
                corruption_failures += 1;
            }
        }
    }

    let failures: Vec<&ChaosOutcome> = outcomes.iter().filter(|o| o.failed()).collect();
    if failures.is_empty() && aborted.is_empty() && corruption_failures == 0 {
        println!();
        println!(
            "all {} scenario(s) ok: zero invariant violations, zero unreconciled fanout counters",
            outcomes.len()
        );
        return Ok(());
    }

    for out in &failures {
        let headline = format!(
            "scenario FAILED [{}]: {}",
            out.status(),
            out.violation.as_deref().unwrap_or("(no invariant message)")
        );
        shrink_and_report(&out.scenario, &headline, limit_millis, run);
    }
    for (sc, reason) in &aborted {
        shrink_and_report(sc, &format!("scenario ABORTED: {reason}"), limit_millis, run);
    }
    let count = |timeout: bool| {
        aborted
            .iter()
            .filter(|(_, r)| matches!(r, CellFailureReason::Timeout { .. }) == timeout)
            .count()
    };
    Err(SimError::Usage(format!(
        "chaos {label} FAILED: {}/{} scenario(s) bad ({} timed out, {} panicked), \
         {corruption_failures} corruption cell(s) bad",
        failures.len() + aborted.len(),
        scenarios.len(),
        count(true),
        count(false)
    )))
}

fn print_header() {
    println!(
        "{:>3}  {:<12}  {:>9} {:>9} {:>7} {:>7}  {:>6} {:>6} {:>5}  {:>7} {:>6} {:>6}  {:>7}  spec",
        "#",
        "status",
        "admitted",
        "delivered",
        "drops",
        "shed", // admission drops (finite buffers)
        "killed",
        "recov",
        "lost",
        "ttr", // mean time-to-recover
        "sb-p", // scoreboard precision
        "sb-r", // scoreboard recall
        "slots",
    );
}

fn print_row(k: usize, out: &ChaosOutcome) {
    let r = &out.recovery;
    let spec = out.scenario.cli_spec();
    println!(
        "{:>3}  {:<12}  {:>9} {:>9} {:>7} {:>7}  {:>6} {:>6} {:>5}  {:>7.1} {:>6.2} {:>6.2}  {:>7}  {}",
        k,
        out.status(),
        out.admitted_copies,
        out.delivered_copies,
        out.reconciled_drops,
        out.admission_drops,
        r.copies_killed,
        r.copies_recovered,
        r.copies_lost,
        r.mean_time_to_recover,
        r.scoreboard_precision,
        r.scoreboard_recall,
        out.slots_run,
        if spec.is_empty() { "(defaults)" } else { &spec },
    );
}

/// The table row of a cell the guard aborted: `TIMEOUT` when the
/// watchdog fired, `PANIC` when the cell panicked.
fn aborted_row(k: usize, sc: &ChaosScenario, reason: &CellFailureReason) -> String {
    let (status, detail) = match reason {
        CellFailureReason::Timeout { millis } => (
            "TIMEOUT",
            format!("watchdog fired after {millis}ms — cell abandoned"),
        ),
        CellFailureReason::Panic(msg) => ("PANIC", format!("cell panicked: {msg}")),
        CellFailureReason::Error(msg) => ("ERROR", format!("cell failed: {msg}")),
    };
    let spec = sc.cli_spec();
    format!(
        "{:>3}  {:<12}  {}  {}",
        k,
        status,
        detail,
        if spec.is_empty() { "(defaults)" } else { &spec },
    )
}

fn print_corruption_row(cell: &CorruptionOutcome) {
    let verdict = if cell.ok() { "ok" } else { "FAILED" };
    let resumed = cell
        .resumed_seq
        .map_or_else(|| "-".to_string(), |s| s.to_string());
    let detail = cell
        .detail
        .as_deref()
        .map(|d| format!(" — {d}"))
        .unwrap_or_default();
    println!(
        "  {:<12} {:<8} resumed from checkpoint seq {} (expected {}){}",
        cell.fault.name(),
        verdict,
        resumed,
        cell.expected_seq,
        detail,
    );
}

/// Campaign-wide recovery aggregates (copy counts sum; latency and
/// scoreboard figures average over the scenarios that measured them).
fn print_recovery_summary(outcomes: &[ChaosOutcome]) {
    let killed: u64 = outcomes.iter().map(|o| o.recovery.copies_killed).sum();
    let recovered: u64 = outcomes.iter().map(|o| o.recovery.copies_recovered).sum();
    let lost: u64 = outcomes.iter().map(|o| o.recovery.copies_lost).sum();
    let shed: u64 = outcomes.iter().map(|o| o.admission_drops).sum();
    let max_ttr = outcomes
        .iter()
        .map(|o| o.recovery.max_time_to_recover)
        .max()
        .unwrap_or(0);
    let with_recovery: Vec<&ChaosOutcome> = outcomes
        .iter()
        .filter(|o| o.recovery.copies_recovered > 0)
        .collect();
    let mean_ttr = if with_recovery.is_empty() {
        0.0
    } else {
        with_recovery
            .iter()
            .map(|o| o.recovery.mean_time_to_recover)
            .sum::<f64>()
            / with_recovery.len() as f64
    };
    println!(
        "recovery: {killed} copies killed, {recovered} recovered \
         (mean ttr {mean_ttr:.1} slots, max {max_ttr}), {lost} escalated to drops, \
         {shed} copies shed at admission"
    );
}

/// Shrink one failing or aborted scenario and print the minimal
/// reproducer.
///
/// The oracle runs `run` unobserved (reproducers must not depend on an
/// observer being attached) under the same `--cell-timeout` guard as the
/// campaign cells, re-armed on every shrink step: a shrink candidate of
/// a *failing* scenario can still wedge (stripping the fault that broke
/// a livelock), and an unguarded probe would hang the whole report. A
/// probe that times out or panics again counts as a reproduction.
fn shrink_and_report(sc: &ChaosScenario, headline: &str, limit_millis: u64, run: CellRunner) {
    println!();
    println!("{headline}");
    println!("  shrinking (guarded probes) ...");
    let (min, runs) = shrink_scenario_guarded(sc, limit_millis, move |c| run(c, None, "chaos"));
    print_reproducer(&min, runs);
}

fn print_reproducer(min: &ChaosScenario, runs: usize) {
    let spec = min.cli_spec();
    println!(
        "  minimal reproducer after {runs} probe run(s), {} non-default parameter(s):",
        min.non_default_params().len()
    );
    if spec.is_empty() {
        println!("    fifoms-repro chaos --scenario \"\"   # default scenario already fails");
    } else {
        println!("    fifoms-repro chaos --scenario {spec}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panicking_cell_is_reported_as_a_panic_and_fails_the_campaign() {
        let opts = Options {
            scenario: Some("slots=50".to_string()),
            ..Options::default()
        };
        let err = campaign(&opts, |_, _, _| panic!("injected cell panic"))
            .expect_err("a panicked cell must fail the campaign");
        let msg = err.to_string();
        assert!(msg.contains("1/1 scenario(s) bad"), "{msg}");
        assert!(msg.contains("0 timed out, 1 panicked"), "{msg}");

        let sc = ChaosScenario::parse("slots=50").unwrap();
        let row = aborted_row(0, &sc, &CellFailureReason::Panic("boom".to_string()));
        assert!(row.contains("PANIC"), "{row}");
        assert!(row.contains("cell panicked: boom"), "{row}");
        assert!(!row.contains("TIMEOUT"), "{row}");
        let row = aborted_row(0, &sc, &CellFailureReason::Timeout { millis: 40 });
        assert!(
            row.contains("TIMEOUT") && row.contains("after 40ms"),
            "{row}"
        );
    }
}

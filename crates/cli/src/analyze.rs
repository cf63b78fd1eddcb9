//! `fifoms-repro analyze`: trace forensics over a `--trace-out` JSONL
//! file — per-copy delay decomposition, the Theorem 1 starvation audit,
//! convergence-round histograms and fanout-split tables, with an
//! optional `--compare` diff against a second trace (typically iSLIP vs
//! FIFOMS over the same workload) and an optional `--json` report.

use fifoms_obs::analysis::{
    analyze_trace, compare_scopes, ScopeAnalysis, ScopeComparison, TraceAnalysis,
};
use fifoms_obs::{schema, Json};
use fifoms_sim::report::Table;
use fifoms_types::SimError;

use crate::args::Options;

fn load_analysis(path: &str) -> Result<TraceAnalysis, SimError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SimError::Usage(format!("{path}: {e}")))?;
    analyze_trace(&text).map_err(|e| SimError::Usage(format!("{path}: {e}")))
}

/// Entry point for the `analyze` command.
pub fn analyze(opts: &Options) -> Result<(), SimError> {
    let Some(input) = opts.input.as_deref() else {
        return Err(SimError::Usage(
            "analyze requires a trace file: fifoms-repro analyze <trace.jsonl>".into(),
        ));
    };
    let analysis = load_analysis(input)?;
    if analysis.scopes.is_empty() {
        return Err(SimError::Usage(format!("{input}: trace holds no events")));
    }

    println!("analyze: {input} ({} scope(s))", analysis.scopes.len());
    for scope in &analysis.scopes {
        print_scope(scope);
    }

    let mut compared: Vec<ScopeComparison> = Vec::new();
    if let Some(other_path) = opts.compare.as_deref() {
        let other = load_analysis(other_path)?;
        compared = pair_scopes(&analysis, &other);
        if compared.is_empty() {
            return Err(SimError::Usage(format!(
                "--compare {other_path}: no scopes pair with {input} \
                 (matched by their @load suffix)"
            )));
        }
        println!("\ncompare: {input} (left) vs {other_path} (right)");
        for cmp in &compared {
            print_comparison(cmp);
        }
    }

    if let Some(out) = opts.json_out.as_deref() {
        let mut doc = analysis.to_json();
        if !compared.is_empty() {
            doc.set(
                "compare",
                Json::Arr(compared.iter().map(ScopeComparison::to_json).collect()),
            );
        }
        // Self-check against the pinned schema when it is reachable
        // (running from the repo root); skip quietly elsewhere.
        let schema_path = "schemas/analysis.schema.json";
        if std::path::Path::new(schema_path).exists() {
            let text = std::fs::read_to_string(schema_path)
                .map_err(|e| SimError::Usage(format!("{schema_path}: {e}")))?;
            let schema_doc = Json::parse(&text)
                .map_err(|e| SimError::Usage(format!("{schema_path}: {e}")))?;
            schema::validate(&doc, &schema_doc).map_err(|e| {
                SimError::Usage(format!("analysis report violates {schema_path}: {e}"))
            })?;
        }
        std::fs::write(out, format!("{doc}\n"))
            .map_err(|e| SimError::Usage(format!("{out}: {e}")))?;
        println!("\nwrote {out}");
    }
    Ok(())
}

/// Pair scopes across two traces for `--compare`: first by identical
/// `@load` suffix (`FIFOMS@0.60` pairs with `iSLIP@0.60`), falling back
/// to positional order when the labels carry no load.
fn pair_scopes(left: &TraceAnalysis, right: &TraceAnalysis) -> Vec<ScopeComparison> {
    let suffix = |s: &str| s.rsplit_once('@').map(|(_, load)| load.to_string());
    let mut out = Vec::new();
    let mut used = vec![false; right.scopes.len()];
    for l in &left.scopes {
        let want = suffix(&l.scope);
        let matched = right.scopes.iter().enumerate().find(|(i, r)| {
            !used[*i] && want.is_some() && suffix(&r.scope) == want
        });
        if let Some((i, r)) = matched {
            used[i] = true;
            out.push(compare_scopes(l, r));
        }
    }
    if out.is_empty() {
        for (l, r) in left.scopes.iter().zip(&right.scopes) {
            out.push(compare_scopes(l, r));
        }
    }
    out
}

fn print_scope(s: &ScopeAnalysis) {
    println!("\nscope {} ({} under {})", s.scope, s.switch, s.traffic);
    match &s.recorder {
        Some((mode, param)) if param > &0 => println!("  recorder: {mode} ({param})"),
        Some((mode, _)) => println!("  recorder: {mode}"),
        None => println!("  recorder: none (slot-level trace only)"),
    }
    if !s.complete {
        println!("  note: sampled/partial lifecycles - per-packet stats cover kept packets only");
    }
    match (s.slots_run, s.utilisation) {
        (Some(slots), Some(u)) => println!(
            "  slots: {slots} run, {} busy (utilisation {:.1}%)",
            s.busy_slots,
            u * 100.0
        ),
        _ => println!("  slots: {} busy (no run_end marker - utilisation unknown)", s.busy_slots),
    }
    println!(
        "  packets: {} arrived, {} completed, {} split | copies: {} over {} transmissions",
        s.packets_arrived, s.packets_completed, s.split_packets, s.copies_sent, s.transmissions
    );
    if s.faults_masked > 0 || s.invariant_violations > 0 {
        println!(
            "  faults masked: {} | invariant violations: {}",
            s.faults_masked, s.invariant_violations
        );
    }
    if s.order_anomalies > 0 {
        println!("  warning: {} non-FIFO VOQ service anomalies", s.order_anomalies);
    }

    if !s.copies.is_empty() {
        let (total, hol, contention, split) = s.mean_delays();
        let mut t = Table::new(vec![
            "delay component".to_string(),
            "mean slots".to_string(),
            "share".to_string(),
        ]);
        let share = |x: f64| {
            if total > 0.0 {
                format!("{:.1}%", 100.0 * x / total)
            } else {
                "-".into()
            }
        };
        t.push_row(vec!["HOL wait".into(), format!("{hol:.3}"), share(hol)]);
        t.push_row(vec![
            "output contention".into(),
            format!("{contention:.3}"),
            share(contention),
        ]);
        t.push_row(vec![
            "split residue".into(),
            format!("{split:.3}"),
            share(split),
        ]);
        t.push_row(vec!["total".into(), format!("{total:.3}"), "100.0%".into()]);
        print!("{}", t.render());
        if let Some((p50, p99, p999)) = s.delay_percentiles() {
            println!(
                "  delay tail (slots, log2-bucket lower bounds): p50 {p50} | p99 {p99} | p999 {p999}"
            );
        }
    }

    if !s.rounds.histogram.is_empty() {
        let reference = s
            .rounds
            .log2_n
            .map_or_else(|| "?".into(), |x| format!("{x:.2}"));
        println!(
            "  convergence: mean {:.3} rounds, max {} (log2 N = {reference})",
            s.rounds.mean, s.rounds.max
        );
        let matched: u64 = s.rounds.histogram.values().sum();
        for (rounds, slots) in &s.rounds.histogram {
            let pct = 100.0 * *slots as f64 / matched.max(1) as f64;
            println!("    {rounds} round(s): {slots} slots ({pct:.1}%)");
        }
    }

    let fanout = s.fanout_table();
    if !fanout.is_empty() {
        let mut t = Table::new(vec![
            "fanout".to_string(),
            "packets".to_string(),
            "split".to_string(),
            "mean-life".to_string(),
            "max-life".to_string(),
            "mean-delay".to_string(),
        ]);
        for row in fanout {
            t.push_row(vec![
                format!("{}", row.fanout),
                format!("{}", row.packets),
                format!("{}", row.split_packets),
                format!("{:.3}", row.mean_lifetime),
                format!("{}", row.max_lifetime),
                format!("{:.3}", row.mean_copy_delay),
            ]);
        }
        print!("{}", t.render());
    }

    if s.audit.checked {
        println!(
            "  starvation audit: {} backlogged slots, {} inversions, {} blocked{}",
            s.audit.backlogged_slots,
            s.audit.inversions,
            s.audit.blocked_slots,
            if s.audit.inversions == 0 && s.audit.blocked_slots == 0 {
                " - Theorem 1 holds"
            } else {
                ""
            }
        );
        if s.audit.inversions > 0 {
            println!(
                "    max inversion {} slots, first at slot {}",
                s.audit.max_inversion,
                s.audit.first_inversion_slot.unwrap_or(0)
            );
        }
    } else {
        println!("  starvation audit: skipped (requires --packet-trace all)");
    }
}

fn print_comparison(cmp: &ScopeComparison) {
    println!("\n  {} vs {}", cmp.left, cmp.right);
    println!(
        "    copies delivered: {} vs {} | transmissions: {} vs {}",
        cmp.copies.0, cmp.copies.1, cmp.transmissions.0, cmp.transmissions.1
    );
    if cmp.transmissions.1 > cmp.transmissions.0 {
        println!(
            "    multicast saved {} transmissions (fanout splitting vs unicast expansion)",
            cmp.transmissions.1 - cmp.transmissions.0
        );
    }
    println!(
        "    mean copy delay: {:.3} vs {:.3} | mean rounds: {:.3} vs {:.3}",
        cmp.mean_delay.0, cmp.mean_delay.1, cmp.mean_rounds.0, cmp.mean_rounds.1
    );
    if !cmp.fanout_delay.is_empty() {
        let mut t = Table::new(vec![
            "fanout".to_string(),
            "left-delay".to_string(),
            "right-delay".to_string(),
            "delta".to_string(),
        ]);
        for (fanout, l, r, d) in &cmp.fanout_delay {
            t.push_row(vec![
                format!("{fanout}"),
                format!("{l:.3}"),
                format!("{r:.3}"),
                format!("{d:+.3}"),
            ]);
        }
        print!("{}", t.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(labels: &[&str]) -> TraceAnalysis {
        TraceAnalysis {
            scopes: labels
                .iter()
                .map(|&scope| ScopeAnalysis {
                    scope: scope.to_string(),
                    ..ScopeAnalysis::default()
                })
                .collect(),
        }
    }

    fn pairs(cmp: &[ScopeComparison]) -> Vec<(&str, &str)> {
        cmp.iter()
            .map(|c| (c.left.as_str(), c.right.as_str()))
            .collect()
    }

    #[test]
    fn scopes_pair_by_load_suffix_each_right_scope_once() {
        let left = trace(&["FIFOMS@0.60", "FIFOMS@0.90", "FIFOMS@0.95"]);
        let right = trace(&["iSLIP@0.90", "iSLIP@0.60", "iSLIP@0.60"]);
        // 0.95 has no partner and is left out; the second 0.60 on the
        // right is never paired twice.
        assert_eq!(
            pairs(&pair_scopes(&left, &right)),
            [("FIFOMS@0.60", "iSLIP@0.60"), ("FIFOMS@0.90", "iSLIP@0.90")]
        );
    }

    #[test]
    fn scopes_without_a_common_load_pair_in_order() {
        let left = trace(&["a", "b", "c"]);
        let right = trace(&["x@0.5", "y"]);
        assert_eq!(
            pairs(&pair_scopes(&left, &right)),
            [("a", "x@0.5"), ("b", "y")]
        );
        assert!(pair_scopes(&trace(&[]), &right).is_empty());
    }
}

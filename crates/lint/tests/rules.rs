//! Fixture tests for the fifoms-lint rules: one good and one bad
//! exemplar per rule under `tests/fixtures/`. The fixtures are data, not
//! code — the engine's walker skips `fixtures/` directories, and cargo
//! never compiles them — so they can contain arbitrary violations.
//!
//! Fixtures are checked through `check_file` with a *synthetic* relative
//! path: the path picks the crate domain, so the same source can be
//! asserted flagged inside a rule's domain and ignored outside it. The
//! structural rules (R7/R8) run the same fixtures through the program
//! model instead.

use fifoms_lint::matcher::Matcher;
use fifoms_lint::rules::{check_file, check_vocabulary, Finding};
use fifoms_lint::structural::{
    r7_wrapper_forwarding, r8_checkpoint_coverage, r9_schema_drift, state_entries,
};
use fifoms_lint::Program;
use fifoms_obs::Json;

fn run(rel: &str, src: &str) -> Vec<Finding> {
    let m = Matcher::new(src);
    check_file(rel, &m)
}

fn count(findings: &[Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

// ---------------------------------------------------------------- R1 --

#[test]
fn r1_flags_every_nondeterminism_source() {
    let f = run(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/r1_bad.rs"),
    );
    // for over self.seen, counts.iter(), counts.keys(),
    // Instant::now, SystemTime::now, thread_rng, rand::random.
    assert_eq!(count(&f, "R1"), 7, "{f:#?}");
    assert!(f.iter().any(|x| x.message.contains("hash-ordered `counts`")));
    assert!(f.iter().any(|x| x.message.contains("wall-clock")));
    assert!(f.iter().any(|x| x.message.contains("unseeded RNG")));
}

#[test]
fn r1_accepts_keyed_access_sorted_projections_and_tests() {
    let f = run(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/r1_good.rs"),
    );
    assert_eq!(f, Vec::new(), "good fixture must be fully clean");
}

#[test]
fn r1_does_not_apply_outside_its_domain() {
    // The same nondeterminism soup in an analysis crate is legal: only
    // result-bearing crates carry the determinism contract.
    let f = run(
        "crates/obs/src/fixture.rs",
        include_str!("fixtures/r1_bad.rs"),
    );
    assert_eq!(count(&f, "R1"), 0, "{f:#?}");
}

// ---------------------------------------------------------------- R2 --

/// The regression the rule exists for: an egress-fault retry path that
/// re-stamps the retried copy. Both the fresh mint and the
/// non-preserving `Packet::new` must flag.
#[test]
fn r2_catches_stamp_minting_retransmission() {
    let f = run(
        "crates/fabric/src/fixture.rs",
        include_str!("fixtures/r2_bad.rs"),
    );
    // now_slot, Slot::now, Timestamp::now mints + two bad Packet::new.
    assert_eq!(count(&f, "R2"), 5, "{f:#?}");
    assert!(f
        .iter()
        .any(|x| x.message.contains("non-preserved arrival stamp `fresh`")));
    assert!(f.iter().any(|x| x.message.contains("ORIGINAL arrival")));
}

/// The overload-protection variant of the same bug class: a pushout
/// admission policy that re-mints the evicted copy's arrival stamp at
/// the eviction slot. Stamp-preserving pushout is what keeps finite
/// buffers inside Theorem 1; the rule must flag the re-mint in the core
/// domain where pushout lives.
#[test]
fn r2_catches_pushout_restamping_evicted_copies() {
    let f = run(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/r2_pushout_bad.rs"),
    );
    // now_slot + Slot::now mints, plus two non-preserving Packet::new.
    assert_eq!(count(&f, "R2"), 4, "{f:#?}");
    assert!(f
        .iter()
        .any(|x| x.message.contains("non-preserved arrival stamp `eviction_slot`")));
    assert!(f.iter().any(|x| x.message.contains("ORIGINAL arrival")));
}

#[test]
fn r2_accepts_preserved_arrival_stamps() {
    let f = run(
        "crates/fabric/src/fixture.rs",
        include_str!("fixtures/r2_good.rs"),
    );
    assert_eq!(f, Vec::new(), "good fixture must be fully clean");
}

#[test]
fn r2_exempts_admission_modules_by_domain() {
    // Admission (sim/traffic/cli) legitimately mints stamps: the same
    // minting source outside core/fabric/baselines is clean.
    let f = run(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/r2_bad.rs"),
    );
    assert_eq!(count(&f, "R2"), 0, "{f:#?}");
}

// ---------------------------------------------------------------- R3 --

#[test]
fn r3_flags_unwrap_expect_and_panics() {
    let f = run(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/r3_bad.rs"),
    );
    // unwrap, expect, panic!, unreachable! — indexing moved to R10.
    assert_eq!(count(&f, "R3"), 4, "{f:#?}");
    assert!(f.iter().any(|x| x.message.contains("`.unwrap`")));
    assert!(f.iter().any(|x| x.message.contains("`panic!`")));
    // `xs[i]` is guarded only by `if i > xs.len()`, which still admits
    // i == xs.len(): R10 keeps flagging it.
    assert_eq!(count(&f, "R10"), 1, "{f:#?}");
    assert!(f.iter().any(|x| x.message.contains("slice indexing")));
}

#[test]
fn r3_accepts_get_debug_assert_allow_and_test_code() {
    let f = run(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/r3_good.rs"),
    );
    assert_eq!(f, Vec::new(), "good fixture must be fully clean");
}

#[test]
fn r3_does_not_apply_outside_hot_path_crates() {
    let f = run(
        "crates/cli/src/fixture.rs",
        include_str!("fixtures/r3_bad.rs"),
    );
    assert_eq!(count(&f, "R3"), 0, "{f:#?}");
    assert_eq!(count(&f, "R10"), 0, "{f:#?}");
}

// ---------------------------------------------------------------- R4 --

fn schema() -> Json {
    Json::parse(
        r#"{"type": "object", "required": ["event"],
            "properties": {"event": {"enum": ["run_meta", "run_end"]}}}"#,
    )
    .expect("fixture schema parses")
}

#[test]
fn r4_accepts_matching_vocabulary() {
    let f = check_vocabulary(
        "crates/types/src/obs.rs",
        include_str!("fixtures/r4_obs_good.rs"),
        "schemas/events.schema.json",
        &schema(),
    );
    assert_eq!(f, Vec::new(), "{f:#?}");
}

#[test]
fn r4_flags_drift_in_both_directions() {
    let f = check_vocabulary(
        "crates/types/src/obs.rs",
        include_str!("fixtures/r4_obs_bad.rs"),
        "schemas/events.schema.json",
        &schema(),
    );
    assert_eq!(count(&f, "R4"), 2, "{f:#?}");
    // Emitted but not in the schema: consumers cannot validate it.
    assert!(f
        .iter()
        .any(|x| x.message.contains("\"mystery_event\" is emitted but absent")));
    // Promised by the schema but never emitted: dead vocabulary.
    assert!(f
        .iter()
        .any(|x| x.message.contains("\"run_end\" but no ObsEvent::kind() arm")));
}

// ---------------------------------------------------------------- R9 --

#[test]
fn r9_derived_schema_tracks_constructed_events_bidirectionally() {
    // r4_obs_good's vocabulary: run_meta and run_end. A telemetry layer
    // constructing only RunEnd, with a schema admitting exactly run_end,
    // is in lock-step.
    let obs = include_str!("fixtures/r4_obs_good.rs");
    let tele = "fn close(&self) -> ObsEvent { ObsEvent::RunEnd { slots_run: 1 } }";
    let exact = Json::parse(
        r#"{"type": "object", "required": ["event"],
            "properties": {"event": {"enum": ["run_end"]}}}"#,
    )
    .unwrap();
    let f = r9_schema_drift(
        obs,
        ("crates/obs/src/telemetry.rs", tele),
        ("schemas/timeseries.schema.json", &exact),
        &[],
        &[],
    );
    assert_eq!(f, Vec::new(), "{f:#?}");

    // Admitting a kind the telemetry layer never constructs is drift
    // (this was legal under PR 8's one-way subset check).
    let dead = Json::parse(
        r#"{"type": "object", "required": ["event"],
            "properties": {"event": {"enum": ["run_end", "run_meta"]}}}"#,
    )
    .unwrap();
    let f = r9_schema_drift(
        obs,
        ("crates/obs/src/telemetry.rs", tele),
        ("schemas/timeseries.schema.json", &dead),
        &[],
        &[],
    );
    assert_eq!(count(&f, "R9"), 1, "{f:#?}");
    assert!(f.iter().any(|x| x.key == "schema-only run_meta"));

    // Constructing a kind the schema rejects is the other direction.
    let tele_extra = "fn close(&self) -> ObsEvent { ObsEvent::RunEnd { slots_run: 1 } }\nfn meta(&self) -> ObsEvent { ObsEvent::RunMeta { seed: 7 } }";
    let f = r9_schema_drift(
        obs,
        ("crates/obs/src/telemetry.rs", tele_extra),
        ("schemas/timeseries.schema.json", &exact),
        &[],
        &[],
    );
    assert_eq!(count(&f, "R9"), 1, "{f:#?}");
    assert!(f.iter().any(|x| x.key == "emit-only run_meta"));

    // Pattern-matching a variant (match arms, if-let) is not emission.
    let tele_match = "fn close(&self) -> ObsEvent { ObsEvent::RunEnd { slots_run: 1 } }\nfn fold(&mut self, ev: &ObsEvent) { if let ObsEvent::RunMeta { seed } = ev { self.seed = *seed; } }";
    let f = r9_schema_drift(
        obs,
        ("crates/obs/src/telemetry.rs", tele_match),
        ("schemas/timeseries.schema.json", &exact),
        &[],
        &[],
    );
    assert_eq!(f, Vec::new(), "{f:#?}");
}

#[test]
fn r9_schema_ids_must_be_emitted_somewhere() {
    let obs = include_str!("fixtures/r4_obs_good.rs");
    let ts = Json::parse(
        r#"{"properties": {"event": {"enum": ["run_end"]},
            "schema": {"enum": ["fifoms-timeseries-v1"]}}}"#,
    )
    .unwrap();
    let tele = "fn close(&self) -> ObsEvent { ObsEvent::RunEnd { slots_run: 1 } }";
    let emitters = vec![(
        "crates/obs/src/sink.rs".to_string(),
        "fn header() { row.set(\"schema\", \"fifoms-timeseries-v1\"); }".to_string(),
    )];
    let derived = [("schemas/timeseries.schema.json", &ts)];
    let f = r9_schema_drift(
        obs,
        ("crates/obs/src/telemetry.rs", tele),
        ("schemas/timeseries.schema.json", &ts),
        &derived,
        &emitters,
    );
    assert_eq!(f, Vec::new(), "{f:#?}");

    // Same schema with no emitter producing the id literal: dead schema.
    let f = r9_schema_drift(
        obs,
        ("crates/obs/src/telemetry.rs", tele),
        ("schemas/timeseries.schema.json", &ts),
        &derived,
        &[],
    );
    assert_eq!(count(&f, "R9"), 1, "{f:#?}");
    assert!(f
        .iter()
        .any(|x| x.key == "dead-schema-id fifoms-timeseries-v1"));
}

// ---------------------------------------------------------------- R7 --

fn program(files: &[(&str, &str)]) -> Program {
    Program::build(
        files
            .iter()
            .map(|(rel, src)| (rel.to_string(), src.to_string()))
            .collect(),
    )
}

#[test]
fn r7_flags_missed_forwards_and_non_delegating_overrides() {
    let p = program(&[
        (
            "crates/fabric/src/switch.rs",
            include_str!("fixtures/r7_trait.rs"),
        ),
        (
            "crates/fabric/src/logging.rs",
            include_str!("fixtures/r7_bad.rs"),
        ),
    ]);
    let f = r7_wrapper_forwarding(&p);
    assert_eq!(count(&f, "R7"), 2, "{f:#?}");
    assert!(f.iter().any(|x| x.key == "missing-forward drain_spans"));
    assert!(f.iter().any(|x| x.key == "no-delegate recycle"));
    assert!(f.iter().any(|x| x.message.contains("LoggingSwitch")));
}

#[test]
fn r7_accepts_complete_wrappers_boxes_and_plain_impls() {
    let p = program(&[
        (
            "crates/fabric/src/switch.rs",
            include_str!("fixtures/r7_trait.rs"),
        ),
        (
            "crates/fabric/src/logging.rs",
            include_str!("fixtures/r7_good.rs"),
        ),
    ]);
    let f = r7_wrapper_forwarding(&p);
    assert_eq!(f, Vec::new(), "good fixture must be fully clean");
}

// ---------------------------------------------------------------- R8 --

#[test]
fn r8_flags_unsaved_and_unrestored_fields() {
    let p = program(&[(
        "crates/core/src/counters.rs",
        include_str!("fixtures/r8_bad.rs"),
    )]);
    let f = r8_checkpoint_coverage(&p);
    // high_water missing both ways, dropped missing on restore only.
    assert_eq!(count(&f, "R8"), 3, "{f:#?}");
    assert!(f.iter().any(|x| x.key == "unsaved high_water"));
    assert!(f.iter().any(|x| x.key == "unrestored high_water"));
    assert!(f.iter().any(|x| x.key == "unrestored dropped"));
}

#[test]
fn r8_accepts_full_coverage_generics_and_documented_exclusions() {
    let p = program(&[(
        "crates/core/src/counters.rs",
        include_str!("fixtures/r8_good.rs"),
    )]);
    let f = r8_checkpoint_coverage(&p);
    assert_eq!(f, Vec::new(), "good fixture must be fully clean");
}

#[test]
fn r8_fingerprints_only_the_fields_write_state_serializes() {
    let good = include_str!("fixtures/r8_good.rs");
    let fingerprint = |src: &str| {
        let entries = state_entries(&program(&[("crates/core/src/counters.rs", src)]));
        assert_eq!(entries.len(), 1, "{entries:?}");
        entries[0].fingerprint.clone()
    };
    let base = fingerprint(good);
    // Dropping the documented scratch field, or retyping the
    // configuration field, leaves the checkpoint's bytes and the
    // fingerprint as they were.
    let scratch = "    scratch: Vec<u64>,\n";
    assert_eq!(fingerprint(&good.replace(scratch, "")), base);
    let retyped = good.replace("ring_cap: usize", "ring_cap: u32");
    assert_eq!(fingerprint(&retyped), base);
    // Retyping a serialized field changes the fingerprint.
    let retyped = good.replace("dropped: u64", "dropped: u32");
    assert_ne!(fingerprint(&retyped), base);
    // A scratch field named nowhere in the impl is still uncovered.
    let undocumented = good.replace(scratch, "    spare: Vec<u64>,\n");
    let p = program(&[("crates/core/src/counters.rs", &undocumented)]);
    let f = r8_checkpoint_coverage(&p);
    assert_eq!(
        f.iter().map(|x| x.key.as_str()).collect::<Vec<_>>(),
        vec!["unsaved spare", "unrestored spare"]
    );
    assert_eq!(fingerprint(&undocumented), base);
}

// --------------------------------------------------------------- R10 --

#[test]
fn r10_flags_undischarged_index_sites() {
    let f = run(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/r10_bad.rs"),
    );
    // bare, wrong_base, not_dominated, unchecked_helper.
    assert_eq!(count(&f, "R10"), 4, "{f:#?}");
    assert!(f.iter().any(|x| x.message.contains("dominating bound check")));
}

#[test]
fn r10_accepts_every_discharge_form() {
    let f = run(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/r10_good.rs"),
    );
    assert_eq!(f, Vec::new(), "good fixture must be fully clean");
}

#[test]
fn r10_does_not_apply_outside_hot_path_crates() {
    let f = run(
        "crates/cli/src/fixture.rs",
        include_str!("fixtures/r10_bad.rs"),
    );
    assert_eq!(count(&f, "R10"), 0, "{f:#?}");
}

// ---------------------------------------------------------------- R5 --

#[test]
fn r5_flags_unjustified_unsafe_and_empty_invariant() {
    let f = run(
        "crates/obs/src/fixture.rs",
        include_str!("fixtures/r5_bad.rs"),
    );
    assert_eq!(count(&f, "R5"), 2, "{f:#?}");
    assert!(f.iter().any(|x| x.message.contains("SAFETY")));
    assert!(f.iter().any(|x| x.message.contains("INVARIANT")));
}

#[test]
fn r5_accepts_justified_unsafe_and_invariants() {
    let f = run(
        "crates/obs/src/fixture.rs",
        include_str!("fixtures/r5_good.rs"),
    );
    assert_eq!(f, Vec::new(), "good fixture must be fully clean");
}

// ---------------------------------------------------------------- R6 --

#[test]
fn r6_flags_float_text_in_fingerprints() {
    let f = run(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/r6_bad.rs"),
    );
    // grid_hash (named) and cell_identity (FINGERPRINT-marked).
    assert_eq!(count(&f, "R6"), 2, "{f:#?}");
    assert!(f.iter().any(|x| x.line < 13), "named fn finding {f:#?}");
    assert!(f.iter().any(|x| x.line > 13), "marked fn finding {f:#?}");
}

#[test]
fn r6_accepts_to_bits_and_non_fingerprint_formatting() {
    let f = run(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/r6_good.rs"),
    );
    assert_eq!(f, Vec::new(), "good fixture must be fully clean");
}

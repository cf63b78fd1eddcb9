//! The structural disciplines R7–R9, run over the cross-file
//! [`Program`] model rather than single token streams.
//!
//! * **R7 wrapper-forwarding completeness** — any `impl T for W` where
//!   `W` wraps an inner `T` (an impl generic parameter bounded by `T`
//!   appearing in the self type or a field type) must override *and
//!   delegate* every trait method that has a default body. A missed
//!   override silently runs the trait's no-op default on the wrapper
//!   while the wrapped switch's state goes undrained — the exact bug
//!   class PRs 6–9 hand-threaded across four wrappers per hook.
//! * **R8 checkpoint field coverage** — every `impl Checkpoint` must
//!   reference each field of its struct in both `write_state` and
//!   `read_state`, unless the field's type is a generic parameter (the
//!   wrapped inner switch travels in its own frame) or a comment inside
//!   the impl names the field (the documented-exclusion convention:
//!   serialize it or say why not). A fingerprint of the fields that
//!   `write_state` references is registered in
//!   `lint-state-fingerprints.json`; changing those fields without
//!   bumping `state_version` is an error the manifest refuses to paper
//!   over. Fields `write_state` never touches (documented scratch,
//!   configuration) stay out of the fingerprint, so adding one leaves
//!   old checkpoints readable.
//! * **R9 schema drift** — derived event schemas must stay in lock-step
//!   with their emitters in *both* directions: the timeseries schema's
//!   `event` enum equals the set of kinds the telemetry layer
//!   constructs, and every derived schema's `schema` id constant is a
//!   string the obs crate actually emits.

use fifoms_obs::Json;

use crate::ast::{ImplDef, ImplMethod, Span};
use crate::lexer::TokKind;
use crate::matcher::Matcher;
use crate::model::Program;
use crate::rules::Finding;

/// Whether `word` occurs in `text` delimited by non-identifier chars.
fn mentions_word(text: &str, word: &str) -> bool {
    if word.is_empty() {
        return false;
    }
    let mut from = 0;
    while let Some(i) = text[from..].find(word) {
        let at = from + i;
        let before_ok = at == 0
            || !text[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + word.len();
        let after_ok = after >= text.len()
            || !text[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        from = after;
    }
    false
}

/// Whether the body span mentions `name` as an identifier token.
fn body_mentions(m: &Matcher, body: &Span, name: &str) -> bool {
    (body.lo..body.hi.min(m.len()))
        .any(|si| m.tok(si).kind == TokKind::Ident && m.text(si) == name)
}

/// Whether the body span contains `. name` — the delegation signature
/// (`self.inner.name(...)`, `(**self).name(...)`).
fn body_delegates(m: &Matcher, body: &Span, name: &str) -> bool {
    (body.lo..body.hi.min(m.len()).saturating_sub(1))
        .any(|si| m.text(si) == "." && m.text(si + 1) == name)
}

/// Delegation evidence with one hop through same-type helpers: the
/// method body either contains `. dm (` directly, or calls
/// `self.helper(..)` where `helper` — defined in any impl block for the
/// same self type in the same file — contains it (the
/// `absorb_inner_drops` pattern: the wrapper drains the inner switch
/// inside a shared bookkeeping helper).
fn delegates(m: &Matcher, file: &crate::model::ProgramFile, imp: &ImplDef, body: &Span, dm: &str) -> bool {
    if body_delegates(m, body, dm) {
        return true;
    }
    let hi = body.hi.min(m.len());
    for si in body.lo..hi.saturating_sub(3) {
        if m.text(si) != "self"
            || m.text(si + 1) != "."
            || m.tok(si + 2).kind != TokKind::Ident
            || m.text(si + 3) != "("
        {
            continue;
        }
        let helper = m.text(si + 2);
        if helper == dm {
            continue;
        }
        let found = file
            .ast
            .impls
            .iter()
            .filter(|other| other.self_ty_name == imp.self_ty_name)
            .filter_map(|other| other.method(helper))
            .any(|hm| body_delegates(m, &hm.body, dm));
        if found {
            return true;
        }
    }
    false
}

/// Push a finding unless an allow directive suppresses it.
#[allow(clippy::too_many_arguments)]
fn push(
    out: &mut Vec<Finding>,
    m: &Matcher,
    rel: &str,
    rule: &'static str,
    line: usize,
    key: String,
    message: String,
) {
    if m.allowed(rule, line) {
        return;
    }
    out.push(Finding {
        rule,
        path: rel.to_string(),
        line,
        col: 1,
        key,
        message,
    });
}

// ---------------------------------------------------------------- R7 --

/// An impl is a *wrapper* of `trait_name` when one of its generic
/// parameters is bounded by that trait and the parameter appears in the
/// self type (`Box<T>`) or in a field type of the resolved struct
/// (`CheckedSwitch<S> { inner: S, .. }`).
fn is_wrapper(program: &Program, imp: &ImplDef, trait_name: &str) -> bool {
    let Some(param) = imp.param_bounded_by(trait_name) else {
        return false;
    };
    if imp
        .self_ty
        .split_whitespace()
        .any(|w| w == param.name)
    {
        return true;
    }
    program
        .struct_def(&imp.self_ty_name)
        .is_some_and(|(_, s)| {
            s.fields
                .iter()
                .any(|f| f.ty.split_whitespace().any(|w| w == param.name))
        })
}

/// R7: every default-bodied method of a workspace trait must be
/// overridden and delegated by every wrapper impl of that trait.
pub fn r7_wrapper_forwarding(program: &Program) -> Vec<Finding> {
    let mut out = Vec::new();
    // Collect (trait name, default-bodied method names) pairs first so
    // the borrow of `program` is released before the impl walk.
    let traits: Vec<(String, Vec<String>)> = program
        .files
        .iter()
        .flat_map(|f| f.ast.traits.iter())
        .map(|t| {
            (
                t.name.clone(),
                t.methods
                    .iter()
                    .filter(|m| m.has_default_body)
                    .map(|m| m.name.clone())
                    .collect::<Vec<_>>(),
            )
        })
        .filter(|(_, defaulted)| !defaulted.is_empty())
        .collect();
    for file in &program.files {
        if file.ast.impls.iter().all(|i| i.test_only || i.trait_name.is_none()) {
            continue;
        }
        let m = file.matcher();
        for imp in &file.ast.impls {
            if imp.test_only {
                continue;
            }
            let Some(tn) = imp.trait_name.as_deref() else {
                continue;
            };
            let Some((_, defaulted)) = traits.iter().find(|(name, _)| name == tn) else {
                continue;
            };
            if !is_wrapper(program, imp, tn) {
                continue;
            }
            for dm in defaulted {
                match imp.method(dm) {
                    None => push(
                        &mut out,
                        &m,
                        &file.rel,
                        "R7",
                        imp.line,
                        format!("missing-forward {dm}"),
                        format!(
                            "wrapper `{}` does not override default-bodied `{tn}::{dm}`; \
                             the trait's no-op default swallows the wrapped switch's behavior — forward it",
                            imp.self_ty
                        ),
                    ),
                    Some(method) => {
                        if !delegates(&m, file, imp, &method.body, dm) {
                            push(
                                &mut out,
                                &m,
                                &file.rel,
                                "R7",
                                method.line,
                                format!("no-delegate {dm}"),
                                format!(
                                    "wrapper `{}` overrides `{tn}::{dm}` but never calls `.{dm}(..)` \
                                     on the wrapped value; the inner switch's hook is silently dropped",
                                    imp.self_ty
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------- R8 --

/// One `impl Checkpoint` as the manifest sees it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StateEntry {
    /// The `state_kind()` tag (`"fifoms-core"`).
    pub kind: String,
    /// The declared `state_version()` (trait default 1 when absent).
    pub version: u64,
    /// FNV-1a 64 hex fingerprint over the ordered `(name, type)` list of
    /// the checkpointed struct's fields that `write_state` references.
    pub fingerprint: String,
    /// The struct the impl checkpoints.
    pub struct_name: String,
    /// File and line of the impl, for finding anchors.
    pub rel: String,
    /// 1-based line of the `impl` keyword.
    pub line: usize,
}

/// FNV-1a 64 over `bytes`, as a 16-digit hex string.
fn fnv1a_hex(parts: &[(&str, &str)]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (name, ty) in parts {
        eat(name.as_bytes());
        eat(b":");
        eat(ty.as_bytes());
        eat(b";");
    }
    format!("{h:016x}")
}

/// The first string literal inside the body of `method`, unquoted.
fn first_str(m: &Matcher, method: &ImplMethod) -> Option<String> {
    (method.body.lo..method.body.hi.min(m.len()))
        .find(|&si| m.tok(si).kind == TokKind::Str)
        .map(|si| m.text(si).trim_matches('"').to_string())
}

/// The first integer literal inside the body of `method`.
fn first_num(m: &Matcher, method: &ImplMethod) -> Option<u64> {
    (method.body.lo..method.body.hi.min(m.len()))
        .find(|&si| m.tok(si).kind == TokKind::Num)
        .and_then(|si| m.text(si).replace('_', "").parse().ok())
}

/// Every non-test `impl Checkpoint` in the program, with kind, version
/// and the fingerprint of the fields its `write_state` serializes: a
/// field the body never names is not part of the checkpoint's bytes.
/// Impls whose struct or `state_kind` literal cannot be resolved are
/// skipped (nothing to fingerprint).
pub fn state_entries(program: &Program) -> Vec<StateEntry> {
    let mut out = Vec::new();
    for file in &program.files {
        if file
            .ast
            .impls
            .iter()
            .all(|i| i.test_only || i.trait_name.as_deref() != Some("Checkpoint"))
        {
            continue;
        }
        let m = file.matcher();
        for imp in &file.ast.impls {
            if imp.test_only || imp.trait_name.as_deref() != Some("Checkpoint") {
                continue;
            }
            let Some((_, st)) = program.struct_def(&imp.self_ty_name) else {
                continue;
            };
            let Some(kind) = imp.method("state_kind").and_then(|me| first_str(&m, me)) else {
                continue;
            };
            let version = imp
                .method("state_version")
                .and_then(|me| first_num(&m, me))
                .unwrap_or(1);
            let serialized = |name: &str| {
                imp.method("write_state")
                    .is_some_and(|me| body_mentions(&m, &me.body, name))
            };
            let parts: Vec<(&str, &str)> = st
                .fields
                .iter()
                .filter(|f| serialized(&f.name))
                .map(|f| (f.name.as_str(), f.ty.as_str()))
                .collect();
            out.push(StateEntry {
                kind,
                version,
                fingerprint: fnv1a_hex(&parts),
                struct_name: st.name.clone(),
                rel: file.rel.clone(),
                line: imp.line,
            });
        }
    }
    out.sort_by(|a, b| a.kind.cmp(&b.kind));
    out
}

/// The comment text concatenated from all comments inside an impl's
/// byte span.
fn impl_comments(m: &Matcher, imp: &ImplDef) -> String {
    if imp.span.lo >= m.len() {
        return String::new();
    }
    let lo = m.tok(imp.span.lo).start;
    let hi = if imp.span.hi == 0 || imp.span.hi > m.len() {
        m.lexed.src.len()
    } else {
        m.tok(imp.span.hi - 1).end
    };
    let mut text = String::new();
    for i in 0..m.lexed.toks.len() {
        let t = &m.lexed.toks[i];
        if t.start >= lo
            && t.end <= hi
            && matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
        {
            text.push_str(m.lexed.text(i));
            text.push('\n');
        }
    }
    text
}

/// R8 (coverage half): every field of a checkpointed struct must be
/// referenced in both `write_state` and `read_state`, be typed as a
/// generic parameter, or be named in a comment inside the impl.
pub fn r8_checkpoint_coverage(program: &Program) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in &program.files {
        if file
            .ast
            .impls
            .iter()
            .all(|i| i.test_only || i.trait_name.as_deref() != Some("Checkpoint"))
        {
            continue;
        }
        let m = file.matcher();
        for imp in &file.ast.impls {
            if imp.test_only || imp.trait_name.as_deref() != Some("Checkpoint") {
                continue;
            }
            let Some((_, st)) = program.struct_def(&imp.self_ty_name) else {
                continue;
            };
            let comments = impl_comments(&m, imp);
            for (dir, verb, consequence) in [
                ("write_state", "unsaved", "checkpoints silently omit it"),
                (
                    "read_state",
                    "unrestored",
                    "recovery silently diverges from the saved run",
                ),
            ] {
                let Some(method) = imp.method(dir) else {
                    continue; // required method; the compiler enforces it
                };
                for field in &st.fields {
                    if st.generics.contains(&field.ty) {
                        continue; // the wrapped inner value has its own frame
                    }
                    if mentions_word(&comments, &field.name) {
                        continue; // documented exclusion
                    }
                    if body_mentions(&m, &method.body, &field.name) {
                        continue;
                    }
                    push(
                        &mut out,
                        &m,
                        &file.rel,
                        "R8",
                        method.line,
                        format!("{verb} {}", field.name),
                        format!(
                            "`{}::{}` never references field `{}` — {consequence}; \
                             serialize it or document the exclusion in a comment inside the impl",
                            st.name, dir, field.name
                        ),
                    );
                }
            }
        }
    }
    out
}

/// R8 (drift half): compare the program's checkpoint impls against the
/// committed fingerprint manifest. `manifest` is `None` when the file
/// does not exist yet.
pub fn r8_state_drift(
    program: &Program,
    manifest_rel: &str,
    manifest: Option<&Json>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let entries = state_entries(program);
    let recorded = manifest.map(parse_manifest).unwrap_or_default();
    for e in &entries {
        let m = program
            .files
            .iter()
            .find(|f| f.rel == e.rel)
            .map(|f| f.matcher());
        let allowed = m.as_ref().is_some_and(|m| m.allowed("R8", e.line));
        if allowed {
            continue;
        }
        match recorded.iter().find(|(k, _, _)| k == &e.kind) {
            None => out.push(Finding {
                rule: "R8",
                path: e.rel.clone(),
                line: e.line,
                col: 1,
                key: format!("unregistered {}", e.kind),
                message: format!(
                    "checkpoint state kind \"{}\" is not registered in {manifest_rel}; \
                     run `fifoms-repro lint --write-baseline` to register it",
                    e.kind
                ),
            }),
            Some((_, mv, mf)) => {
                if *mv == e.version && *mf != e.fingerprint {
                    out.push(Finding {
                        rule: "R8",
                        path: e.rel.clone(),
                        line: e.line,
                        col: 1,
                        key: format!("fingerprint-drift {}", e.kind),
                        message: format!(
                            "checkpointed fields of `{}` changed but state_version is still {}; \
                             old \"{}\" checkpoints would be misread — bump state_version, then \
                             re-run --write-baseline",
                            e.struct_name, e.version, e.kind
                        ),
                    });
                } else if *mv != e.version {
                    out.push(Finding {
                        rule: "R8",
                        path: e.rel.clone(),
                        line: e.line,
                        col: 1,
                        key: format!("version-drift {}", e.kind),
                        message: format!(
                            "state_version of \"{}\" is {} but {manifest_rel} records {}; \
                             run --write-baseline to re-register the new version",
                            e.kind, e.version, mv
                        ),
                    });
                }
            }
        }
    }
    for (kind, _, _) in &recorded {
        if !entries.iter().any(|e| &e.kind == kind) {
            out.push(Finding {
                rule: "R8",
                path: manifest_rel.to_string(),
                line: 1,
                col: 1,
                key: format!("retired {kind}"),
                message: format!(
                    "{manifest_rel} registers \"{kind}\" but no Checkpoint impl produces it; \
                     run --write-baseline to drop the dead entry"
                ),
            });
        }
    }
    out
}

/// `(kind, version, fingerprint)` rows of a parsed manifest document.
fn parse_manifest(doc: &Json) -> Vec<(String, u64, String)> {
    doc.get("entries")
        .and_then(Json::as_arr)
        .map(|entries| {
            entries
                .iter()
                .filter_map(|e| {
                    let kind = e.get("kind").and_then(Json::as_str)?;
                    let version = e.get("state_version").and_then(Json::as_f64)?;
                    let fp = e.get("fingerprint").and_then(Json::as_str)?;
                    Some((kind.to_string(), version as u64, fp.to_string()))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Render the fingerprint manifest (`fifoms-lint-state-v1`), one entry
/// per line. The manifest is itself a ratchet: an old entry whose
/// fingerprint changed at an *unchanged* version is kept as-is, so
/// `--write-baseline` cannot silently bless a field change that skipped
/// the version bump — the only ways out are bumping `state_version` or
/// reverting the fields.
pub fn render_state_manifest(entries: &[StateEntry], old: Option<&Json>) -> String {
    let recorded = old.map(parse_manifest).unwrap_or_default();
    let mut rows: Vec<(String, u64, String)> = entries
        .iter()
        .map(|e| {
            match recorded.iter().find(|(k, _, _)| k == &e.kind) {
                Some((_, mv, mf)) if *mv == e.version && *mf != e.fingerprint => {
                    (e.kind.clone(), *mv, mf.clone()) // refused: bump the version
                }
                _ => (e.kind.clone(), e.version, e.fingerprint.clone()),
            }
        })
        .collect();
    rows.sort();
    let mut out =
        String::from("{\n  \"schema\": \"fifoms-lint-state-v1\",\n  \"entries\": [\n");
    for (i, (kind, version, fp)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"kind\": {}, \"state_version\": {version}, \"fingerprint\": {}}}{comma}\n",
            Json::Str(kind.clone()),
            Json::Str(fp.clone()),
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------- R9 --

/// The `ObsEvent` variant → kind-string map, from the `fn kind` match
/// arms of the vocabulary source (`ObsEvent::WindowMeta { .. } =>
/// "window_meta"`).
fn variant_kind_map(obs_src: &str) -> Vec<(String, String)> {
    let m = Matcher::new(obs_src);
    let mut map = Vec::new();
    for si in 0..m.len() {
        if m.text(si) != "fn" || si + 1 >= m.len() || m.text(si + 1) != "kind" {
            continue;
        }
        let mut depth = 0i64;
        let mut open = None;
        for k in si..m.len() {
            match m.text(k) {
                "(" => depth += 1,
                ")" => depth -= 1,
                "{" if depth == 0 => {
                    open = Some(k);
                    break;
                }
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        let Some(close) = m.matching_close(open) else {
            continue;
        };
        // Arms: ObsEvent :: Variant { .. } = > "kind".
        let mut k = open + 1;
        while k + 3 < close {
            if m.text(k) == "ObsEvent" && m.text(k + 1) == ":" && m.text(k + 2) == ":" {
                let variant = m.text(k + 3).to_string();
                let mut j = k + 4;
                if j < close && m.text(j) == "{" {
                    match m.matching_close(j) {
                        Some(c) => j = c + 1,
                        None => break,
                    }
                }
                // Skip the `=` `>` arrow, then expect the kind literal.
                while j < close && matches!(m.text(j), "=" | ">") {
                    j += 1;
                }
                if j < close && m.tok(j).kind == TokKind::Str {
                    map.push((variant, m.text(j).trim_matches('"').to_string()));
                }
                k = j + 1;
                continue;
            }
            k += 1;
        }
    }
    map
}

/// `ObsEvent` variants *constructed* (not pattern-matched) in non-test
/// code of `src`, with their lines. A variant use followed by `=` after
/// its brace group is a pattern (`=> arm` or `if let ... =`); anything
/// else is a construction.
fn constructed_variants(src: &str) -> Vec<(String, usize)> {
    let m = Matcher::new(src);
    let mut out = Vec::new();
    for si in 0..m.len().saturating_sub(3) {
        if m.text(si) != "ObsEvent" || m.text(si + 1) != ":" || m.text(si + 2) != ":" {
            continue;
        }
        if m.in_test_code(m.tok(si).start) {
            continue;
        }
        let variant = m.text(si + 3);
        if m.tok(si + 3).kind != TokKind::Ident {
            continue;
        }
        let mut j = si + 4;
        if j < m.len() && m.text(j) == "{" {
            match m.matching_close(j) {
                Some(c) => j = c + 1,
                None => continue,
            }
        }
        if j < m.len() && m.text(j) == "=" {
            continue; // match arm or `if let` binding: a pattern
        }
        let (line, _) = m.line_col(si);
        out.push((variant.to_string(), line));
    }
    out
}

/// The `properties.schema.enum` id of a schema document, if declared.
fn schema_id(schema: &Json) -> Option<String> {
    schema
        .get("properties")
        .and_then(|p| p.get("schema"))
        .and_then(|s| s.get("enum"))
        .and_then(Json::as_arr)
        .and_then(|vals| vals.first())
        .and_then(Json::as_str)
        .map(str::to_string)
}

/// R9: bidirectional drift check between the telemetry emitter and the
/// timeseries schema, plus schema-id liveness for every derived schema.
///
/// * `obs_src` — the `ObsEvent` vocabulary source (variant → kind map);
/// * `telemetry` — `(rel, src)` of the telemetry layer whose
///   constructed events make up the timeseries stream;
/// * `timeseries` — `(rel, parsed schema)` of the stream's schema;
/// * `derived` — `(rel, parsed schema)` of every derived schema whose
///   `schema` id constant must be emitted somewhere in `emitter_srcs`.
pub fn r9_schema_drift(
    obs_src: &str,
    telemetry: (&str, &str),
    timeseries: (&str, &Json),
    derived: &[(&str, &Json)],
    emitter_srcs: &[(String, String)],
) -> Vec<Finding> {
    let mut out = Vec::new();
    let kind_of = variant_kind_map(obs_src);
    let (tele_rel, tele_src) = telemetry;
    let (ts_rel, ts_schema) = timeseries;
    let enum_kinds = crate::rules::schema_event_enum(ts_schema);
    if enum_kinds.is_empty() {
        out.push(Finding {
            rule: "R9",
            path: ts_rel.to_string(),
            line: 1,
            col: 1,
            key: "missing-event-enum".into(),
            message: format!("{ts_rel} declares no properties.event.enum vocabulary"),
        });
    } else {
        let emitted: Vec<(String, usize)> = constructed_variants(tele_src)
            .into_iter()
            .filter_map(|(variant, line)| {
                kind_of
                    .iter()
                    .find(|(v, _)| *v == variant)
                    .map(|(_, kind)| (kind.clone(), line))
            })
            .collect();
        for (kind, line) in &emitted {
            if !enum_kinds.iter().any(|k| k == kind) {
                out.push(Finding {
                    rule: "R9",
                    path: tele_rel.to_string(),
                    line: *line,
                    col: 1,
                    key: format!("emit-only {kind}"),
                    message: format!(
                        "telemetry emits \"{kind}\" into the timeseries stream but {ts_rel} \
                         does not admit it; stream consumers reject valid records"
                    ),
                });
            }
        }
        for kind in &enum_kinds {
            if !emitted.iter().any(|(k, _)| k == kind) {
                out.push(Finding {
                    rule: "R9",
                    path: ts_rel.to_string(),
                    line: 1,
                    col: 1,
                    key: format!("schema-only {kind}"),
                    message: format!(
                        "{ts_rel} admits \"{kind}\" but the telemetry layer never constructs \
                         it; dead vocabulary"
                    ),
                });
            }
        }
    }
    for (rel, schema) in derived {
        let Some(id) = schema_id(schema) else { continue };
        let live = emitter_srcs.iter().any(|(_, src)| {
            let m = Matcher::new(src);
            (0..m.len()).any(|si| {
                m.tok(si).kind == TokKind::Str
                    && m.text(si).trim_matches('"') == id
                    && !m.in_test_code(m.tok(si).start)
            })
        });
        if !live {
            out.push(Finding {
                rule: "R9",
                path: rel.to_string(),
                line: 1,
                col: 1,
                key: format!("dead-schema-id {id}"),
                message: format!(
                    "{rel} declares schema id \"{id}\" but no emitting source produces that \
                     literal; the schema validates nothing"
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRAIT: &str = "pub trait Switch {\n fn name(&self) -> String;\n fn drain_spans(&mut self, out: &mut Vec<u8>) { let _ = out; }\n fn recycle(&mut self, x: u8) { let _ = x; }\n}";

    fn program(files: &[(&str, &str)]) -> Program {
        Program::build(
            files
                .iter()
                .map(|(r, s)| (r.to_string(), s.to_string()))
                .collect(),
        )
    }

    #[test]
    fn r7_flags_missing_forward_and_non_delegating_override() {
        let wrapper = "pub struct W<S> { inner: S }\nimpl<S: Switch> Switch for W<S> {\n fn name(&self) -> String { self.inner.name() }\n fn drain_spans(&mut self, out: &mut Vec<u8>) { let _ = out; }\n}";
        let p = program(&[
            ("crates/fabric/src/switch.rs", TRAIT),
            ("crates/fabric/src/wrap.rs", wrapper),
        ]);
        let f = r7_wrapper_forwarding(&p);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.key == "missing-forward recycle"));
        assert!(f.iter().any(|x| x.key == "no-delegate drain_spans"));
    }

    #[test]
    fn r7_accepts_complete_wrappers_and_skips_plain_impls() {
        let good = "pub struct W<S> { inner: S }\nimpl<S: Switch> Switch for W<S> {\n fn name(&self) -> String { self.inner.name() }\n fn drain_spans(&mut self, out: &mut Vec<u8>) { self.inner.drain_spans(out) }\n fn recycle(&mut self, x: u8) { self.inner.recycle(x) }\n}\nimpl<T: Switch + ?Sized> Switch for Box<T> {\n fn name(&self) -> String { (**self).name() }\n fn drain_spans(&mut self, out: &mut Vec<u8>) { (**self).drain_spans(out) }\n fn recycle(&mut self, x: u8) { (**self).recycle(x) }\n}\npub struct Plain { q: u8 }\nimpl Switch for Plain {\n fn name(&self) -> String { String::new() }\n}";
        let p = program(&[
            ("crates/fabric/src/switch.rs", TRAIT),
            ("crates/fabric/src/wrap.rs", good),
        ]);
        let f = r7_wrapper_forwarding(&p);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn r7_accepts_delegation_through_same_type_helpers() {
        let src = "pub struct W<S> { inner: S, buf: Vec<u8> }\nimpl<S: Switch> W<S> {\n fn absorb(&mut self) { let mut d = Vec::new(); self.inner.drain_spans(&mut d); self.buf.extend(d); }\n}\nimpl<S: Switch> Switch for W<S> {\n fn name(&self) -> String { self.inner.name() }\n fn drain_spans(&mut self, out: &mut Vec<u8>) { self.absorb(); out.append(&mut self.buf); }\n fn recycle(&mut self, x: u8) { self.inner.recycle(x) }\n}";
        let p = program(&[
            ("crates/fabric/src/switch.rs", TRAIT),
            ("crates/fabric/src/wrap.rs", src),
        ]);
        let f = r7_wrapper_forwarding(&p);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn r7_skips_test_only_impls() {
        let toy = "#[cfg(test)]\nmod tests {\n struct Toy<S> { inner: S }\n impl<S: Switch> Switch for Toy<S> {\n  fn name(&self) -> String { String::new() }\n }\n}";
        let p = program(&[
            ("crates/fabric/src/switch.rs", TRAIT),
            ("crates/fabric/src/toy.rs", toy),
        ]);
        assert!(r7_wrapper_forwarding(&p).is_empty());
    }

    const CKPT: &str = "pub struct S { a: u32, b: u64, cap: usize }\nimpl Checkpoint for S {\n fn state_kind(&self) -> &'static str { \"s\" }\n fn state_version(&self) -> u32 { 2 }\n fn write_state(&self, w: &mut W) { w.u32(self.a); w.u64(self.b); }\n fn read_state(&mut self, r: &mut R) { self.a = r.u32(); self.b = r.u64(); }\n}";

    #[test]
    fn r8_flags_uncovered_fields_in_both_directions() {
        let p = program(&[("crates/core/src/s.rs", CKPT)]);
        let f = r8_checkpoint_coverage(&p);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.key == "unsaved cap"));
        assert!(f.iter().any(|x| x.key == "unrestored cap"));
    }

    #[test]
    fn r8_comment_mention_and_generic_fields_are_exempt() {
        let src = "pub struct S<T> { inner: T, a: u32, cap: usize }\nimpl<T> Checkpoint for S<T> {\n fn state_kind(&self) -> &'static str { \"s\" }\n // cap is configuration, rebuilt by the constructor\n fn write_state(&self, w: &mut W) { w.u32(self.a); }\n fn read_state(&mut self, r: &mut R) { self.a = r.u32(); }\n}";
        let p = program(&[("crates/core/src/s.rs", src)]);
        let f = r8_checkpoint_coverage(&p);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn r8_word_boundaries_prevent_substring_exemption() {
        assert!(mentions_word("n, p and b are configuration", "p"));
        assert!(!mentions_word("capacity is configuration", "cap"));
        assert!(!mentions_word("the ports field", "port"));
        assert!(mentions_word("`ring_cap` is sizing", "ring_cap"));
    }

    #[test]
    fn r8_drift_detects_fingerprint_change_without_version_bump() {
        let p = program(&[("crates/core/src/s.rs", CKPT)]);
        let entries = state_entries(&p);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].kind, "s");
        assert_eq!(entries[0].version, 2);

        // No manifest at all: unregistered.
        let f = r8_state_drift(&p, "lint-state-fingerprints.json", None);
        assert!(f.iter().any(|x| x.key == "unregistered s"), "{f:?}");

        // Matching manifest: clean.
        let manifest = render_state_manifest(&entries, None);
        let doc = Json::parse(&manifest).expect("manifest parses");
        assert!(r8_state_drift(&p, "m.json", Some(&doc)).is_empty());

        // Same version, different fingerprint: drift.
        let tampered = manifest.replace(&entries[0].fingerprint, "0000000000000000");
        let doc = Json::parse(&tampered).expect("parses");
        let f = r8_state_drift(&p, "m.json", Some(&doc));
        assert!(f.iter().any(|x| x.key == "fingerprint-drift s"), "{f:?}");

        // The manifest ratchet refuses to re-bless at the same version.
        let rewritten = render_state_manifest(&entries, Some(&doc));
        assert!(
            rewritten.contains("0000000000000000"),
            "same-version fingerprint change must not be silently re-registered"
        );

        // Version bumped in code: the manifest regenerates cleanly.
        let bumped = CKPT.replace("{ 2 }", "{ 3 }");
        let p2 = program(&[("crates/core/src/s.rs", &bumped)]);
        let e2 = state_entries(&p2);
        let f = r8_state_drift(&p2, "m.json", Some(&doc));
        assert!(f.iter().any(|x| x.key == "version-drift s"), "{f:?}");
        let refreshed = render_state_manifest(&e2, Some(&doc));
        assert!(refreshed.contains("\"state_version\": 3"));
    }

    #[test]
    fn r8_retired_kinds_are_reported() {
        let p = program(&[("crates/core/src/s.rs", CKPT)]);
        let doc = Json::parse(
            "{\"schema\":\"fifoms-lint-state-v1\",\"entries\":[{\"kind\":\"s\",\"state_version\":2,\"fingerprint\":\"x\"},{\"kind\":\"gone\",\"state_version\":1,\"fingerprint\":\"y\"}]}",
        )
        .expect("parses");
        let f = r8_state_drift(&p, "m.json", Some(&doc));
        assert!(f.iter().any(|x| x.key == "retired gone"), "{f:?}");
    }

    const OBS: &str = "impl ObsEvent { pub fn kind(&self) -> &'static str { match self { ObsEvent::WindowMeta { .. } => \"window_meta\", ObsEvent::WindowSummary { .. } => \"window_summary\", ObsEvent::RunEnd { .. } => \"run_end\" } } }";

    #[test]
    fn r9_bidirectional_timeseries_check() {
        let tele = "fn meta(&self) -> ObsEvent { ObsEvent::WindowMeta { ports: self.ports } }\nfn fold(&mut self, ev: &ObsEvent) { match ev { ObsEvent::RunEnd { .. } => {} _ => {} } }";
        let schema =
            Json::parse("{\"properties\":{\"event\":{\"enum\":[\"window_meta\",\"window_summary\"]}}}")
                .expect("parses");
        let f = r9_schema_drift(
            OBS,
            ("crates/obs/src/telemetry.rs", tele),
            ("schemas/timeseries.schema.json", &schema),
            &[],
            &[],
        );
        // window_summary is admitted but never constructed; the matched
        // (not constructed) RunEnd must NOT count as emitted.
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].key, "schema-only window_summary");

        let tele_full = "fn meta(&self) -> ObsEvent { ObsEvent::WindowMeta { ports: 1 } }\nfn close(&self) -> ObsEvent { ObsEvent::WindowSummary { slots: 1 } }";
        let f = r9_schema_drift(
            OBS,
            ("crates/obs/src/telemetry.rs", tele_full),
            ("schemas/timeseries.schema.json", &schema),
            &[],
            &[],
        );
        assert!(f.is_empty(), "{f:?}");

        let tele_extra = "fn meta(&self) -> ObsEvent { ObsEvent::WindowMeta { ports: 1 } }\nfn close(&self) -> ObsEvent { ObsEvent::WindowSummary { slots: 1 } }\nfn leak(&self) -> ObsEvent { ObsEvent::RunEnd { slots_run: 1 } }";
        let f = r9_schema_drift(
            OBS,
            ("crates/obs/src/telemetry.rs", tele_extra),
            ("schemas/timeseries.schema.json", &schema),
            &[],
            &[],
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].key, "emit-only run_end");
    }

    #[test]
    fn r9_dead_schema_id_is_flagged() {
        let snap = Json::parse(
            "{\"properties\":{\"schema\":{\"enum\":[\"fifoms-telemetry-snapshot-v1\"]}}}",
        )
        .expect("parses");
        let ts = Json::parse("{\"properties\":{\"event\":{\"enum\":[]}}}").expect("parses");
        let live = vec![(
            "crates/obs/src/t.rs".to_string(),
            "fn publish(&self) { doc.set(\"schema\", \"fifoms-telemetry-snapshot-v1\"); }"
                .to_string(),
        )];
        let f = r9_schema_drift(
            OBS,
            ("t.rs", ""),
            ("ts.json", &ts),
            &[("schemas/snapshot.schema.json", &snap)],
            &live,
        );
        assert!(
            !f.iter().any(|x| x.key.starts_with("dead-schema-id")),
            "{f:?}"
        );
        let f = r9_schema_drift(OBS, ("t.rs", ""), ("ts.json", &ts), &[("schemas/snapshot.schema.json", &snap)], &[]);
        assert!(f.iter().any(|x| x.key == "dead-schema-id fifoms-telemetry-snapshot-v1"));
    }
}

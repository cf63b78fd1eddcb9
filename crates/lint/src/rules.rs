//! The token-level FIFOMS source disciplines.
//!
//! Each rule guards an invariant the simulator's correctness story
//! depends on (DESIGN.md §11 and §16):
//!
//! * **R1 determinism** — result-bearing crates (`core`, `fabric`, `sim`,
//!   `traffic`) must not iterate hash-ordered collections, read wall
//!   clocks, or construct unseeded RNGs. Keyed `HashMap` *lookup* is
//!   deterministic and allowed; *iteration* order is not. Bit-identical
//!   replay (§8) and chaos shrinking (§10) both assume this.
//! * **R2 timestamp discipline** — Theorem 1's starvation-freedom weighs
//!   packets by their *original arrival stamp*. Outside admission code,
//!   `Packet::new` may only be called with a preserved `*.arrival`
//!   stamp, and `now_slot`-style stamp minting is forbidden entirely, so
//!   no retry or requeue path can silently refresh a timestamp.
//! * **R3 panic freedom** — hot-path scheduler/fabric code must not
//!   `unwrap`/`expect`/`panic!` outside `#[cfg(test)]`: the sweep
//!   runner's fault isolation treats a panic as a cell failure, so
//!   every avoidable panic is an avoidable lost cell.
//! * **R4 event vocabulary** — the `ObsEvent::kind()` tags and the
//!   checked-in `schemas/events.schema.json` enum must agree exactly in
//!   both directions, so traces and their consumers cannot drift.
//! * **R5 justification audit** — every `unsafe` block needs a
//!   `// SAFETY:` comment and every `INVARIANT:` tag needs a non-empty
//!   justification.
//! * **R6 fingerprint floats** — functions feeding the checkpoint
//!   journal's grid-hash identity must not format floating-point values
//!   except through `to_bits()`: `0.30000000000000004` and platform
//!   formatting differences would silently fork resume identities.
//! * **R10 guarded indexing** — `x[i]` in hot-path code must be
//!   *discharged*: dominated by a `len` bound check (`assert!`/
//!   `debug_assert!`/`if`) in the same function, or fed by a checked
//!   accessor whose body proves the bound. Undischarged sites are
//!   findings. (R10 took over indexing from R3 once the intra-function
//!   dataflow pass could tell a proven bound from a hopeful one.)
//!
//! The cross-file structural rules R7–R9 live in
//! [`structural`](crate::structural).

use crate::lexer::{is_float_literal, TokKind};
use crate::matcher::Matcher;

/// One lint finding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Finding {
    /// Rule id, `"R1"`..`"R10"`.
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the finding.
    pub line: usize,
    /// 1-based byte column of the finding.
    pub col: usize,
    /// Reformat-stable token snippet the finding is baselined under.
    pub key: String,
    /// Human-readable explanation.
    pub message: String,
}

/// Rule metadata for reports: `(id, name, discipline)`.
pub const RULES: &[(&str, &str, &str)] = &[
    ("R1", "determinism", "no hash-order iteration, wall clocks or unseeded RNGs in result-bearing crates"),
    ("R2", "timestamp-discipline", "arrival stamps are minted at admission only; retries must preserve them"),
    ("R3", "panic-freedom", "no unwrap/expect/panic! in hot-path scheduler and fabric code"),
    ("R4", "event-vocabulary", "ObsEvent kinds and schemas/events.schema.json agree in both directions"),
    ("R5", "justification-audit", "every unsafe block has SAFETY:, every INVARIANT: tag a justification"),
    ("R6", "fingerprint-floats", "grid-hash fingerprint code formats floats only via to_bits()"),
    ("R7", "wrapper-forwarding", "wrapper impls override and delegate every default-bodied trait method"),
    ("R8", "checkpoint-coverage", "Checkpoint impls cover every struct field both ways; changes to serialized fields need a state_version bump"),
    ("R9", "schema-drift", "derived schemas match their emitters bidirectionally and every schema id is emitted somewhere"),
    ("R10", "guarded-index", "hot-path slice indexing is dominated by a len check or fed by a checked accessor"),
];

/// Extended per-rule documentation for `lint --explain`:
/// `(id, rationale, example violation, escape hatch)`.
pub const RULE_DOCS: &[(&str, &str, &str, &str)] = &[
    (
        "R1",
        "Bit-identical replay (DESIGN.md §8) and chaos shrinking (§10) require results to be a pure function of the seed. Hash-map iteration order, wall clocks and unseeded RNGs all smuggle in ambient state. Keyed HashMap *lookup* is deterministic and stays allowed.",
        "for (port, q) in &self.queues { ... }   // queues: HashMap<Port, Voq>",
        "iterate a sorted projection (BTreeMap / collect-and-sort), or annotate the one sanctioned site with `// fifoms-lint: allow(R1) <reason>`",
    ),
    (
        "R2",
        "Theorem 1's starvation-freedom weighs packets by their ORIGINAL arrival stamp. A retry or requeue path that mints a fresh stamp silently resets a packet's age and breaks the FIFO fairness argument.",
        "self.q.push_front(Packet::new(d.packet, now, d.input, dests));",
        "carry the old stamp (`d.arrival`) through the requeue; `// fifoms-lint: allow(R2) <reason>` for genuine admission sites",
    ),
    (
        "R3",
        "The sweep runner treats a panic as a fault-isolated cell failure, so every avoidable unwrap/expect/panic! in scheduler or fabric code is an avoidable lost sweep cell.",
        "let grant = self.pending.pop_front().unwrap();",
        "return a structured error, or `.expect(\"...\")` + `// fifoms-lint: allow(R3) INVARIANT: <why it cannot fail>`",
    ),
    (
        "R4",
        "Trace consumers validate against schemas/events.schema.json. A kind emitted but not listed fails validation downstream; a kind listed but never emitted is dead vocabulary that hides real drift.",
        "ObsEvent::NewThing { .. } => \"new_thing\"   // absent from the schema enum",
        "add the kind to the schema enum (emit side) or delete it from the enum (schema side); there is no allow for vocabulary drift",
    ),
    (
        "R5",
        "`unsafe` and `INVARIANT:` are claims about non-local facts. An unjustified claim is indistinguishable from a stale one.",
        "unsafe { *ptr }   // no SAFETY: comment above",
        "write the justification: `// SAFETY: <why>` within three lines above, or a non-empty `INVARIANT:` tail",
    ),
    (
        "R6",
        "Checkpoint identity hashes cover formatted parameter values. Decimal float formatting differs across platforms and rounds (0.30000000000000004), silently forking resume identities; to_bits() is exact.",
        "h.write_str(&format!(\"load={load}\"));   // inside grid_hash",
        "format `load.to_bits()` instead; mark additional identity functions with a `// FINGERPRINT` comment",
    ),
    (
        "R7",
        "Default-bodied trait methods are silent no-ops on wrappers that forget to forward them: the wrapped switch's spans/drops/state go undrained and no runtime test fails until that hook matters. Four wrappers were hand-threaded in PRs 6-9; R7 makes the discipline mechanical.",
        "impl<S: Switch> Switch for CheckedSwitch<S> { /* no drain_spans */ }",
        "forward the method (`self.inner.drain_spans(out)`), or `// fifoms-lint: allow(R7) <reason>` on the impl line for a deliberate interception",
    ),
    (
        "R8",
        "A Checkpoint impl that skips a field diverges silently on recovery. A change to the fields write_state serializes, without a state_version bump, misreads old checkpoints. Fields typed by a generic parameter travel in their own frame; comment-documented exclusions are honored, and fields write_state never references stay out of the fingerprint, so a new scratch field needs no version bump.",
        "fn read_state(..) { self.rng = r.u64()?; /* scoreboard never restored */ }",
        "serialize the field, name it in a comment inside the impl (documented exclusion), or bump state_version and re-run --write-baseline when a serialized field changes",
    ),
    (
        "R9",
        "Derived streams (timeseries, snapshot) have their own schemas. A constructed event kind the schema rejects breaks consumers; an admitted-but-never-constructed kind is dead vocabulary; a schema id no emitter produces validates nothing.",
        "ObsEvent::RunEnd { .. }   // constructed in telemetry.rs, absent from timeseries enum",
        "update the schema enum or stop emitting the kind; schema ids must match the emitting literal exactly",
    ),
    (
        "R10",
        "`x[i]` panics on a bad index, and R3's blanket ban produced a 20-entry grandfathered baseline. R10 discharges sites a local dataflow pass can prove safe: a dominating assert!/debug_assert!/if that bounds the index against the base's len in the same function, or an index produced by a checked accessor (a fn whose body asserts the bound).",
        "let cell = self.entries[idx];   // no bound check in this fn",
        "add `debug_assert!(idx < self.entries.len());` above the site, use get()/get_mut(), route through a checked accessor, or `// fifoms-lint: allow(R10) <reason>`",
    ),
];

/// The crate a workspace-relative path belongs to (`crates/core/src/x.rs`
/// → `core`; the root `src/` → `fifoms`).
pub fn crate_of(rel: &str) -> Option<&str> {
    if let Some(rest) = rel.strip_prefix("crates/") {
        return rest.split('/').next();
    }
    if rel.starts_with("src/") {
        return Some("fifoms");
    }
    None
}

/// Run every per-file rule on one lexed file.
pub fn check_file(rel: &str, m: &Matcher) -> Vec<Finding> {
    let mut out = Vec::new();
    let krate = crate_of(rel).unwrap_or("");
    if matches!(krate, "core" | "fabric" | "sim" | "traffic") {
        r1_determinism(rel, m, &mut out);
    }
    if matches!(krate, "core" | "fabric" | "baselines") {
        r2_timestamps(rel, m, &mut out);
    }
    if matches!(krate, "core" | "fabric") {
        r3_panic_freedom(rel, m, &mut out);
        r10_guarded_index(rel, m, &mut out);
    }
    r5_justifications(rel, m, &mut out);
    r6_fingerprint_floats(rel, m, &mut out);
    out
}

/// Push a finding unless it sits in test code or under an allow
/// directive.
fn push(
    out: &mut Vec<Finding>,
    m: &Matcher,
    rel: &str,
    rule: &'static str,
    si: usize,
    key: String,
    message: String,
) {
    let offset = m.tok(si).start;
    if m.in_test_code(offset) {
        return;
    }
    let (line, col) = m.line_col(si);
    if m.allowed(rule, line) {
        return;
    }
    out.push(Finding {
        rule,
        path: rel.to_string(),
        line,
        col,
        key,
        message,
    });
}

// ---------------------------------------------------------------- R1 --

const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

fn r1_determinism(rel: &str, m: &Matcher, out: &mut Vec<Finding>) {
    // Wall clocks and unseeded RNGs. `crates/sim/src/profile.rs` is the
    // one sanctioned wall-clock reader: self-profiling measures time by
    // definition and its output never feeds simulation results.
    let clock_exempt = rel == "crates/sim/src/profile.rs";
    for si in 0..m.len() {
        let t = m.text(si);
        if !clock_exempt && (t == "SystemTime" || m.matches(si, &["Instant", ":", ":", "now"])) {
            push(
                out,
                m,
                rel,
                "R1",
                si,
                m.snippet(si, si + 4, 4),
                "wall-clock read in result-bearing code; results must be a function of the seed only".into(),
            );
        }
        if t == "thread_rng" || t == "from_entropy" || m.matches(si, &["rand", ":", ":", "random"])
        {
            push(
                out,
                m,
                rel,
                "R1",
                si,
                m.snippet(si, si + 4, 4),
                "unseeded RNG construction; use SmallRng::seed_from_u64 so runs replay bit-identically".into(),
            );
        }
    }
    // Hash-ordered iteration: collect names declared as HashMap/HashSet,
    // then flag iteration over them. Keyed lookup stays allowed.
    let mut hash_names: Vec<&str> = Vec::new();
    for si in 0..m.len() {
        if !matches!(m.text(si), "HashMap" | "HashSet") {
            continue;
        }
        // `name: [path::]HashMap<...>` — walk back over path segments to
        // the single ascription colon.
        let mut j = si;
        while j >= 3 && m.text(j - 1) == ":" && m.text(j - 2) == ":" {
            j -= 3; // step over `:: segment`
        }
        if j >= 2 && m.text(j - 1) == ":" && m.tok(j - 2).kind == TokKind::Ident {
            hash_names.push(m.text(j - 2));
        }
        // `let [mut] name = HashMap::...`.
        if si >= 2 && m.text(si - 1) == "=" && m.tok(si - 2).kind == TokKind::Ident {
            let name_si = si - 2;
            if si >= 3 && matches!(m.text(si - 3), "let" | "mut") {
                hash_names.push(m.text(name_si));
            }
        }
    }
    hash_names.sort_unstable();
    hash_names.dedup();
    for si in 0..m.len() {
        if m.tok(si).kind != TokKind::Ident || !hash_names.contains(&m.text(si)) {
            continue;
        }
        // Receiver must be the bare name or `self.name`, not `x.name`.
        let plain_receiver = si == 0
            || m.text(si - 1) != "."
            || (si >= 2 && m.text(si - 2) == "self");
        if !plain_receiver {
            continue;
        }
        // `name.iter()` and friends.
        if si + 3 < m.len()
            && m.text(si + 1) == "."
            && HASH_ITER_METHODS.contains(&m.text(si + 2))
            && m.text(si + 3) == "("
        {
            push(
                out,
                m,
                rel,
                "R1",
                si,
                m.snippet(si, si + 5, 6),
                format!(
                    "iteration over hash-ordered `{}`; hash order is nondeterministic — collect into a sorted Vec/BTreeMap instead",
                    m.text(si)
                ),
            );
        }
        // `for x in [&][mut] [self.]name {`.
        let mut j = si;
        if j >= 2 && m.text(j - 1) == "." && m.text(j - 2) == "self" {
            j -= 2;
        }
        while j >= 1 && matches!(m.text(j - 1), "&" | "mut") {
            j -= 1;
        }
        if j >= 1 && m.text(j - 1) == "in" && si + 1 < m.len() && m.text(si + 1) == "{" {
            push(
                out,
                m,
                rel,
                "R1",
                si,
                m.snippet(j - 1, si + 1, 8),
                format!(
                    "`for` loop over hash-ordered `{}`; iterate a sorted projection instead",
                    m.text(si)
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- R2 --

fn r2_timestamps(rel: &str, m: &Matcher, out: &mut Vec<Finding>) {
    for si in 0..m.len() {
        // Stamp minting is forbidden outright outside admission.
        if m.text(si) == "now_slot"
            || m.matches(si, &["Slot", ":", ":", "now"])
            || m.matches(si, &["Timestamp", ":", ":", "now"])
        {
            push(
                out,
                m,
                rel,
                "R2",
                si,
                m.snippet(si, si + 4, 4),
                "fresh timestamp minted outside admission; Theorem 1 weighs the ORIGINAL arrival stamp".into(),
            );
        }
        // `Packet::new(id, <arrival>, ...)` must preserve an existing
        // stamp: the arrival argument has to be an `arrival` projection
        // (`d.arrival`, `p.arrival`, a bound `arrival`), the pattern
        // `restore_destination` established in the retransmission path.
        if !m.matches(si, &["Packet", ":", ":", "new", "("]) {
            continue;
        }
        let open = si + 4;
        let Some(close) = m.matching_close(open) else {
            continue;
        };
        let args = m.split_args(open, close);
        if args.len() < 2 {
            continue;
        }
        let (lo, hi) = args[1];
        let preserved = (lo..hi)
            .rev()
            .find(|&k| m.tok(k).kind == TokKind::Ident)
            .is_some_and(|k| m.text(k) == "arrival");
        if !preserved {
            push(
                out,
                m,
                rel,
                "R2",
                si,
                m.snippet(si, hi + 1, 12),
                format!(
                    "Packet::new with a non-preserved arrival stamp `{}`; outside admission, re-queued packets must carry their original arrival (see restore_destination)",
                    m.snippet(lo, hi, 8)
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- R3 --

const EXPR_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "dyn", "else", "enum", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "trait", "type", "unsafe", "use", "where", "while", "yield",
];

fn r3_panic_freedom(rel: &str, m: &Matcher, out: &mut Vec<Finding>) {
    for si in 0..m.len() {
        // `.unwrap()` / `.expect(...)`.
        if si + 2 < m.len()
            && m.text(si) == "."
            && matches!(m.text(si + 1), "unwrap" | "expect")
            && m.text(si + 2) == "("
        {
            push(
                out,
                m,
                rel,
                "R3",
                si + 1,
                m.snippet(si.saturating_sub(3), si + 3, 8),
                format!(
                    "`.{}` in hot-path code; a panic here costs a sweep cell — return a structured error or restructure",
                    m.text(si + 1)
                ),
            );
        }
        // `panic!`-family macros.
        if si + 1 < m.len()
            && matches!(
                m.text(si),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && m.text(si + 1) == "!"
        {
            push(
                out,
                m,
                rel,
                "R3",
                si,
                m.snippet(si, si + 2, 4),
                format!("`{}!` in hot-path code; prefer a structured error or a debug_assert!", m.text(si)),
            );
        }
    }
}

// --------------------------------------------------------------- R10 --

/// A bound-check span a guard can discharge index sites from: the
/// argument group of `assert!`/`debug_assert!` or the condition of an
/// `if`/`while`, as a significant-token range.
struct Guard {
    lo: usize,
    hi: usize,
}

/// Function bodies of the file, as `(body_open, body_close)` spans —
/// the dominance scope of the R10 dataflow pass.
fn fn_bodies(m: &Matcher) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for si in 0..m.len() {
        if m.text(si) != "fn" || si + 1 >= m.len() || m.tok(si + 1).kind != TokKind::Ident {
            continue;
        }
        let Some(popen) = (si..m.len()).find(|&k| m.text(k) == "(") else {
            continue;
        };
        let Some(pclose) = m.matching_close(popen) else {
            continue;
        };
        let mut open = None;
        for k in pclose..m.len() {
            match m.text(k) {
                "{" => {
                    open = Some(k);
                    break;
                }
                ";" => break, // required trait method / extern decl
                _ => {}
            }
        }
        let Some(bopen) = open else { continue };
        if let Some(bclose) = m.matching_close(bopen) {
            out.push((bopen, bclose));
        }
    }
    out
}

/// The bound-check spans inside `lo..hi`.
fn guards_in(m: &Matcher, lo: usize, hi: usize) -> Vec<Guard> {
    let mut out = Vec::new();
    let mut k = lo;
    while k < hi {
        if matches!(m.text(k), "assert" | "debug_assert")
            && k + 2 < hi
            && m.text(k + 1) == "!"
            && m.text(k + 2) == "("
        {
            if let Some(close) = m.matching_close(k + 2) {
                out.push(Guard {
                    lo: k + 3,
                    hi: close,
                });
                k += 3;
                continue;
            }
        }
        if matches!(m.text(k), "if" | "while") {
            // Condition runs to the block-opening `{` at depth 0.
            let mut depth = 0i64;
            for j in k + 1..hi {
                match m.text(j) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        out.push(Guard { lo: k + 1, hi: j });
                        break;
                    }
                    ";" if depth == 0 => break, // `if` never materialized
                    _ => {}
                }
            }
        }
        k += 1;
    }
    out
}

/// Whether the token texts `needle` occur contiguously inside
/// `lo..hi`, returning the match position.
fn find_seq(m: &Matcher, lo: usize, hi: usize, needle: &[&str]) -> Option<usize> {
    if needle.is_empty() || hi < needle.len() {
        return None;
    }
    (lo..=hi.saturating_sub(needle.len()))
        .find(|&p| needle.iter().enumerate().all(|(i, t)| m.text(p + i) == *t))
}

/// Whether a guard span proves `base[idx]` in bounds: it compares the
/// index tokens with `<` (or `>` the other way round) and mentions
/// `base.len`.
fn guard_discharges(m: &Matcher, g: &Guard, base: &[&str], idx: &[&str]) -> bool {
    let Some(at) = find_seq(m, g.lo, g.hi, idx) else {
        return false;
    };
    let mut after = at + idx.len();
    while after < g.hi && m.text(after) == ")" {
        after += 1;
    }
    let mut before = at;
    while before > g.lo && m.text(before - 1) == "(" {
        before -= 1;
    }
    let compared = (after < g.hi && matches!(m.text(after), "<"))
        || (before > g.lo && matches!(m.text(before - 1), ">"));
    if !compared {
        return false;
    }
    // The bound side must reference the indexed base's len.
    (g.lo..g.hi.saturating_sub(base.len() + 1)).any(|p| {
        base.iter().enumerate().all(|(i, t)| m.text(p + i) == *t)
            && m.text(p + base.len()) == "."
            && m.text(p + base.len() + 1) == "len"
    })
}

/// Names of functions in this file whose bodies assert a `<` bound —
/// the "checked accessor" set (`fn idx(..) { debug_assert!(i < n); .. }`).
fn checked_accessors<'m>(m: &'m Matcher) -> Vec<&'m str> {
    let mut out = Vec::new();
    for si in 0..m.len() {
        if m.text(si) != "fn" || si + 1 >= m.len() || m.tok(si + 1).kind != TokKind::Ident {
            continue;
        }
        let name = m.text(si + 1);
        let Some(popen) = (si..m.len()).find(|&k| m.text(k) == "(") else {
            continue;
        };
        let Some(pclose) = m.matching_close(popen) else {
            continue;
        };
        let Some(bopen) = (pclose..m.len()).find(|&k| m.text(k) == "{") else {
            continue;
        };
        let Some(bclose) = m.matching_close(bopen) else {
            continue;
        };
        let asserts_bound = (bopen..bclose).any(|k| {
            matches!(m.text(k), "assert" | "debug_assert")
                && k + 2 < bclose
                && m.text(k + 1) == "!"
                && m.text(k + 2) == "("
                && m
                    .matching_close(k + 2)
                    .is_some_and(|c| (k + 3..c).any(|j| m.text(j) == "<"))
        });
        if asserts_bound {
            out.push(name);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Whether the index expression `idx` (tokens `si+1..close`) is the
/// value of a checked accessor: directly `[self.]F(..)`, or a single
/// local bound earlier in the body via `let v = [self.]F(..)`.
fn accessor_discharges(
    m: &Matcher,
    body_lo: usize,
    si: usize,
    close: usize,
    checked: &[&str],
) -> bool {
    let call_of = |at: usize| -> Option<&str> {
        if at >= m.len() {
            return None;
        }
        let f = if m.text(at) == "self" && at + 1 < m.len() && m.text(at + 1) == "." {
            at + 2
        } else {
            at
        };
        if f + 1 >= m.len() {
            return None;
        }
        (m.tok(f).kind == TokKind::Ident && m.text(f + 1) == "(").then(|| m.text(f))
    };
    if call_of(si + 1).is_some_and(|f| checked.binary_search(&f).is_ok()) {
        return true;
    }
    // Single-ident index: trace one `let v = [self.]F(..)` binding back.
    if close != si + 2 || m.tok(si + 1).kind != TokKind::Ident {
        return false;
    }
    let v = m.text(si + 1);
    for k in body_lo..si {
        if m.text(k) != "let" {
            continue;
        }
        let mut at = k + 1;
        if at < si && m.text(at) == "mut" {
            at += 1;
        }
        if at + 1 >= si || m.text(at) != v || m.text(at + 1) != "=" {
            continue;
        }
        if call_of(at + 2).is_some_and(|f| checked.binary_search(&f).is_ok()) {
            return true;
        }
    }
    false
}

/// R10: flag `x[i]` sites no local proof discharges. Indexing inside
/// `debug_assert!` is itself the sanctioned check and exempt.
fn r10_guarded_index(rel: &str, m: &Matcher, out: &mut Vec<Finding>) {
    let bodies = fn_bodies(m);
    let checked = checked_accessors(m);
    for si in 0..m.len() {
        if m.text(si) != "["
            || si == 0
            || m.in_debug_assert(m.tok(si).start)
            || !(matches!(m.text(si - 1), ")" | "]")
                || (m.tok(si - 1).kind == TokKind::Ident
                    && !EXPR_KEYWORDS.contains(&m.text(si - 1))))
        {
            continue;
        }
        let close = m.matching_close(si).unwrap_or(si);
        // The indexed base: the `ident`/`self`/`.` chain ending at `[`.
        let mut base_lo = si;
        while base_lo > 0
            && (m.text(base_lo - 1) == "."
                || m.text(base_lo - 1) == "self"
                || (m.tok(base_lo - 1).kind == TokKind::Ident
                    && !EXPR_KEYWORDS.contains(&m.text(base_lo - 1))))
        {
            base_lo -= 1;
        }
        let base: Vec<&str> = (base_lo..si).map(|k| m.text(k)).collect();
        let idx: Vec<&str> = (si + 1..close).map(|k| m.text(k)).collect();
        // The innermost enclosing fn body scopes the dominance search.
        let body = bodies
            .iter()
            .filter(|(lo, hi)| *lo < si && si < *hi)
            .max_by_key(|(lo, _)| *lo)
            .copied();
        let discharged = body.is_some_and(|(blo, bhi)| {
            let dominated = !base.is_empty()
                && !idx.is_empty()
                && guards_in(m, blo, bhi)
                    .iter()
                    .filter(|g| g.lo <= si)
                    .any(|g| guard_discharges(m, g, &base, &idx));
            dominated || accessor_discharges(m, blo, si, close, &checked)
        });
        if !discharged {
            push(
                out,
                m,
                rel,
                "R10",
                si,
                m.snippet(si.saturating_sub(3), close + 1, 10),
                "slice indexing can panic on the hot path and no dominating bound check was found; prove the bound with assert!/debug_assert!/if against .len(), use get()/get_mut(), or route through a checked accessor".into(),
            );
        }
    }
}

// ---------------------------------------------------------------- R4 --

/// Cross-check the `ObsEvent::kind()` vocabulary against the checked-in
/// events schema. `obs_src` is `crates/types/src/obs.rs`; `schema` is the
/// parsed `schemas/events.schema.json`. Returns findings anchored to the
/// given paths.
pub fn check_vocabulary(
    obs_rel: &str,
    obs_src: &str,
    schema_rel: &str,
    schema: &fifoms_obs::Json,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let kinds = event_kinds(obs_src);
    let schema_kinds = schema_event_enum(schema);
    if schema_kinds.is_empty() {
        out.push(Finding {
            rule: "R4",
            path: schema_rel.to_string(),
            line: 1,
            col: 1,
            key: "missing-event-enum".into(),
            message: "events schema declares no properties.event.enum vocabulary".into(),
        });
        return out;
    }
    for (kind, line) in &kinds {
        if !schema_kinds.iter().any(|s| s == kind) {
            out.push(Finding {
                rule: "R4",
                path: obs_rel.to_string(),
                line: *line,
                col: 1,
                key: format!("emit-only {kind}"),
                message: format!(
                    "ObsEvent kind \"{kind}\" is emitted but absent from {schema_rel}; trace consumers cannot validate it"
                ),
            });
        }
    }
    for kind in &schema_kinds {
        if !kinds.iter().any(|(k, _)| k == kind) {
            out.push(Finding {
                rule: "R4",
                path: schema_rel.to_string(),
                line: 1,
                col: 1,
                key: format!("schema-only {kind}"),
                message: format!(
                    "events schema lists \"{kind}\" but no ObsEvent::kind() arm produces it; dead vocabulary"
                ),
            });
        }
    }
    out
}

/// Event kinds = string literals inside `fn kind(...) -> ... { ... }`
/// of the observability vocabulary source, with their source lines.
fn event_kinds(obs_src: &str) -> Vec<(String, usize)> {
    let m = Matcher::new(obs_src);
    let mut kinds: Vec<(String, usize)> = Vec::new();
    for si in 0..m.len() {
        if m.text(si) != "fn" || si + 1 >= m.len() || m.text(si + 1) != "kind" {
            continue;
        }
        // First top-level `{` after the signature opens the body.
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
        for k in open..close {
            if m.tok(k).kind == TokKind::Str {
                let text = m.text(k).trim_matches('"').to_string();
                let (line, _) = m.line_col(k);
                kinds.push((text, line));
            }
        }
    }
    kinds
}

/// The `properties.event.enum` vocabulary of a parsed event schema.
/// Shared with the R9 drift checks in [`crate::structural`].
pub(crate) fn schema_event_enum(schema: &fifoms_obs::Json) -> Vec<String> {
    schema
        .get("properties")
        .and_then(|p| p.get("event"))
        .and_then(|e| e.get("enum"))
        .and_then(fifoms_obs::Json::as_arr)
        .map(|vals| {
            vals.iter()
                .filter_map(fifoms_obs::Json::as_str)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

// ---------------------------------------------------------------- R5 --

fn r5_justifications(rel: &str, m: &Matcher, out: &mut Vec<Finding>) {
    // `unsafe` needs a SAFETY: justification in a comment within the
    // three lines above it (or on its own line). A line window rather
    // than strict adjacency: the justification conventionally sits above
    // the `fn` while the `unsafe` block opens inside the body.
    let safety_lines: Vec<usize> = (0..m.lexed.toks.len())
        .filter(|&i| {
            matches!(
                m.lexed.toks[i].kind,
                TokKind::LineComment | TokKind::BlockComment
            ) && comment_tail(m.lexed.text(i), "SAFETY:").is_some_and(|t| !t.is_empty())
        })
        .map(|i| m.lexed.line_col(m.lexed.toks[i].end.saturating_sub(1)).0)
        .collect();
    for si in 0..m.len() {
        if m.text(si) != "unsafe" {
            continue;
        }
        let (line, _) = m.line_col(si);
        let justified = safety_lines
            .iter()
            .any(|&sl| sl <= line && sl + 3 >= line);
        if !justified {
            push(
                out,
                m,
                rel,
                "R5",
                si,
                m.snippet(si, si + 3, 4),
                "`unsafe` without a `// SAFETY:` justification in the comment above".into(),
            );
        }
    }
    // `INVARIANT:` tags need non-empty text after the colon.
    for i in 0..m.lexed.toks.len() {
        if !matches!(
            m.lexed.toks[i].kind,
            TokKind::LineComment | TokKind::BlockComment
        ) {
            continue;
        }
        let text = m.lexed.text(i);
        if let Some(tail) = comment_tail(text, "INVARIANT:") {
            if tail.is_empty() {
                let (line, col) = m.lexed.line_col(m.lexed.toks[i].start);
                if !m.in_test_code(m.lexed.toks[i].start) && !m.allowed("R5", line) {
                    out.push(Finding {
                        rule: "R5",
                        path: rel.to_string(),
                        line,
                        col,
                        key: "empty INVARIANT:".into(),
                        message: "INVARIANT: tag with no justification; state the invariant and why it holds".into(),
                    });
                }
            }
        }
    }
}

/// If `comment` contains `tag`, the trimmed text after it (block-comment
/// closers stripped).
fn comment_tail<'a>(comment: &'a str, tag: &str) -> Option<&'a str> {
    comment
        .split_once(tag)
        .map(|(_, tail)| tail.trim_end_matches("*/").trim())
}

// ---------------------------------------------------------------- R6 --

const FINGERPRINT_FNS: &[&str] = &["grid_hash", "fault_fingerprint", "cell_key"];
const FORMAT_SINKS: &[&str] = &["write_str", "write_fmt", "to_string", "push_str"];

fn r6_fingerprint_floats(rel: &str, m: &Matcher, out: &mut Vec<Finding>) {
    for si in 0..m.len() {
        if m.text(si) != "fn" || si + 1 >= m.len() {
            continue;
        }
        let name = m.text(si + 1);
        let marked = {
            // A `// FINGERPRINT` comment run above the fn opts it in.
            let raw_idx = m.sig[si];
            let mut j = raw_idx;
            let mut found = false;
            while j > 0 {
                j -= 1;
                match m.lexed.toks[j].kind {
                    TokKind::Whitespace => continue,
                    TokKind::LineComment | TokKind::BlockComment => {
                        if m.lexed.text(j).contains("FINGERPRINT") {
                            found = true;
                        }
                        continue;
                    }
                    _ => break,
                }
            }
            found
        };
        if !FINGERPRINT_FNS.contains(&name) && !marked {
            continue;
        }
        // Parameter list and body.
        let Some(popen) = (si..m.len()).find(|&k| m.text(k) == "(") else {
            continue;
        };
        let Some(pclose) = m.matching_close(popen) else {
            continue;
        };
        let Some(bopen) = (pclose..m.len()).find(|&k| m.text(k) == "{") else {
            continue;
        };
        let Some(bclose) = m.matching_close(bopen) else {
            continue;
        };
        // Float-typed names: `name: [&][mut] f64` params and
        // `let [mut] name: f64` / `let [mut] name = <float literal>`.
        let mut float_names: Vec<&str> = Vec::new();
        for k in popen..pclose {
            if m.text(k) == ":" {
                let mut v = k + 1;
                while v < pclose && matches!(m.text(v), "&" | "mut") {
                    v += 1;
                }
                if v < pclose
                    && matches!(m.text(v), "f64" | "f32")
                    && k >= 1
                    && m.tok(k - 1).kind == TokKind::Ident
                {
                    float_names.push(m.text(k - 1));
                }
            }
        }
        for k in bopen..bclose {
            if m.text(k) != "let" {
                continue;
            }
            let mut v = k + 1;
            if v < bclose && m.text(v) == "mut" {
                v += 1;
            }
            if v >= bclose || m.tok(v).kind != TokKind::Ident {
                continue;
            }
            let name_si = v;
            if v + 2 < bclose && m.text(v + 1) == ":" && matches!(m.text(v + 2), "f64" | "f32") {
                float_names.push(m.text(name_si));
            }
            if v + 2 < bclose
                && m.text(v + 1) == "="
                && m.tok(v + 2).kind == TokKind::Num
                && is_float_literal(m.text(v + 2))
            {
                float_names.push(m.text(name_si));
            }
        }
        // Statement scan: a formatting sink consuming float evidence must
        // carry a to_bits() in the same statement.
        let mut stmt_lo = bopen + 1;
        let mut depth = 0i64;
        for k in bopen + 1..=bclose {
            match m.text(k) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                _ => {}
            }
            let stmt_ends = (m.text(k) == ";" && depth == 0) || k == bclose;
            if !stmt_ends {
                continue;
            }
            let (lo, hi) = (stmt_lo, k);
            stmt_lo = k + 1;
            let has_sink = (lo..hi).any(|s| {
                FORMAT_SINKS.contains(&m.text(s))
                    || (m.text(s) == "format" && s + 1 < hi && m.text(s + 1) == "!")
            });
            if !has_sink {
                continue;
            }
            let float_evidence = (lo..hi).find(|&s| {
                (m.tok(s).kind == TokKind::Num && is_float_literal(m.text(s)))
                    || (m.tok(s).kind == TokKind::Ident && float_names.contains(&m.text(s)))
                    || (m.tok(s).kind == TokKind::Str && {
                        let text = m.text(s);
                        // Precision specs and inline captures of known
                        // float names ("{load}", "{load:?}") count too.
                        text.contains("{:.")
                            || float_names.iter().any(|n| {
                                text.contains(&format!("{{{n}}}"))
                                    || text.contains(&format!("{{{n}:"))
                            })
                    })
            });
            let has_to_bits = (lo..hi).any(|s| m.text(s) == "to_bits");
            if let Some(ev) = float_evidence {
                if !has_to_bits {
                    push(
                        out,
                        m,
                        rel,
                        "R6",
                        ev,
                        m.snippet(lo, hi, 12),
                        format!(
                            "float value formatted into fingerprint function `{name}` without to_bits(); decimal rendering forks the grid-hash identity across platforms"
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(rel: &str, src: &str) -> Vec<Finding> {
        check_file(rel, &Matcher::new(src))
    }

    #[test]
    fn crate_classification() {
        assert_eq!(crate_of("crates/core/src/voq.rs"), Some("core"));
        assert_eq!(crate_of("src/lib.rs"), Some("fifoms"));
        assert_eq!(crate_of("README.md"), None);
    }

    #[test]
    fn r1_flags_hash_iteration_not_lookup() {
        let src = "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }\nimpl S {\n fn get(&self) -> Option<&u32> { self.m.get(&1) }\n fn bad(&self) { for (k, v) in &self.m { let _ = (k, v); } }\n fn also_bad(&self) -> Vec<u32> { self.m.keys().copied().collect() }\n}\n";
        let f = findings("crates/core/src/x.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == "R1").count(), 2, "{f:?}");
    }

    #[test]
    fn r1_flags_clocks_and_unseeded_rngs() {
        let src = "fn t() -> std::time::Instant { Instant::now() }\nfn r() { let _ = thread_rng(); }\n";
        let f = findings("crates/sim/src/engine.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == "R1").count(), 2, "{f:?}");
        // The self-profiler is the sanctioned wall-clock reader.
        let f = findings("crates/sim/src/profile.rs", "fn t() { Instant::now(); }");
        assert!(f.iter().all(|f| f.rule != "R1"), "{f:?}");
        // Out-of-domain crates are not checked.
        let f = findings("crates/cli/src/main.rs", "fn t() { Instant::now(); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn r2_accepts_preserved_arrival_and_rejects_minting() {
        let good = "fn requeue(&mut self, d: &Departure) { self.q.push_front(Packet::new(d.packet, d.arrival, d.input, dests)); }";
        assert!(findings("crates/fabric/src/faults.rs", good).is_empty());
        let bad = "fn requeue(&mut self, d: &Departure, now: Slot) { self.q.push_front(Packet::new(d.packet, now, d.input, dests)); }";
        let f = findings("crates/fabric/src/faults.rs", bad);
        assert_eq!(f.iter().filter(|f| f.rule == "R2").count(), 1, "{f:?}");
        let minted = "fn stamp() -> Slot { Timestamp::now() }";
        let f = findings("crates/core/src/voq.rs", minted);
        assert_eq!(f.iter().filter(|f| f.rule == "R2").count(), 1, "{f:?}");
    }

    #[test]
    fn r3_flags_panics_and_r10_flags_unproven_indexing() {
        let src = "fn hot(&self, q: &[u32], i: usize) -> u32 {\n debug_assert!(q[i] > 0);\n let x = q[i];\n let y = self.opt.unwrap();\n x + y\n}\n#[cfg(test)]\nmod tests { fn t(q: &[u32]) { q[0]; None::<u32>.unwrap(); } }\n";
        let f = findings("crates/core/src/scheduler.rs", src);
        let r3: Vec<_> = f.iter().filter(|f| f.rule == "R3").collect();
        assert_eq!(r3.len(), 1, "{r3:?}");
        assert!(r3[0].key.contains("unwrap"));
        // `q[i] > 0` proves non-emptiness, not the bound — R10 fires.
        let r10: Vec<_> = f.iter().filter(|f| f.rule == "R10").collect();
        assert_eq!(r10.len(), 1, "{r10:?}");
        assert!(r10[0].key.contains("[ i ]"));
    }

    #[test]
    fn r10_dominating_len_guards_discharge() {
        // assert!/debug_assert! bound in the same function.
        let src = "fn hot(q: &[u32], i: usize) -> u32 { debug_assert!(i < q.len()); q[i] }";
        assert!(findings("crates/core/src/scheduler.rs", src).is_empty());
        // `if` bound, site inside the guarded block.
        let src = "fn hot(q: &[u32], i: usize) -> u32 { if i < q.len() { q[i] } else { 0 } }";
        assert!(findings("crates/core/src/scheduler.rs", src).is_empty());
        // Reversed comparison (`len > i`) counts too.
        let src = "fn hot(q: &[u32], i: usize) -> u32 { assert!(q.len() > i); q[i] }";
        assert!(findings("crates/core/src/scheduler.rs", src).is_empty());
        // A guard over a DIFFERENT base does not discharge.
        let src = "fn hot(q: &[u32], r: &[u32], i: usize) -> u32 { debug_assert!(i < r.len()); q[i] }";
        let f = findings("crates/core/src/scheduler.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == "R10").count(), 1, "{f:?}");
        // A guard in a DIFFERENT function does not dominate.
        let src = "fn a(q: &[u32], i: usize) { debug_assert!(i < q.len()); }\nfn b(q: &[u32], i: usize) -> u32 { q[i] }";
        let f = findings("crates/core/src/scheduler.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == "R10").count(), 1, "{f:?}");
        // Field bases work: `self.entries[idx]` under `idx < self.entries.len()`.
        let src = "impl S { fn get(&self, idx: usize) -> u8 { assert!(idx < self.entries.len(), \"stale\"); self.entries[idx] } }";
        assert!(findings("crates/core/src/slab.rs", src).is_empty());
    }

    #[test]
    fn r10_checked_accessors_discharge() {
        // Direct accessor call in index position.
        let src = "impl S {\n fn idx(&self, a: usize, b: usize) -> usize { debug_assert!(a < self.ports && b < self.ports); a * self.ports + b }\n fn look(&self, a: usize, b: usize) -> u64 { self.last[self.idx(a, b)] }\n}";
        assert!(findings("crates/fabric/src/scoreboard.rs", src).is_empty());
        // Accessor value bound to a local first.
        let src = "impl S {\n fn idx(&self, a: usize) -> usize { debug_assert!(a < self.n); a }\n fn look(&self, a: usize) -> u64 { let k = self.idx(a); self.last[k] }\n}";
        assert!(findings("crates/fabric/src/scoreboard.rs", src).is_empty());
        // An unchecked helper does not discharge.
        let src = "impl S {\n fn idx(&self, a: usize) -> usize { a * 2 }\n fn look(&self, a: usize) -> u64 { self.last[self.idx(a)] }\n}";
        let f = findings("crates/fabric/src/scoreboard.rs", src);
        assert_eq!(f.iter().filter(|f| f.rule == "R10").count(), 1, "{f:?}");
    }

    #[test]
    fn r10_allow_directive_with_reason_suppresses() {
        let src = "fn hot(q: &[u32]) -> u32 {\n // fifoms-lint: allow(R10) index bounded by the N*N grid allocation\n q[0]\n}\n";
        assert!(findings("crates/core/src/voq.rs", src).is_empty());
    }

    #[test]
    fn r5_safety_and_invariant_audit() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n// INVARIANT:\nstruct S;\n";
        let f = findings("crates/stats/src/x.rs", bad);
        assert_eq!(f.iter().filter(|f| f.rule == "R5").count(), 2, "{f:?}");
        let good = "// SAFETY: caller guarantees p is valid for reads\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n// INVARIANT: len <= cap by construction in new()\nstruct S;\n";
        assert!(findings("crates/stats/src/x.rs", good).is_empty());
    }

    #[test]
    fn r6_fingerprint_requires_to_bits() {
        let bad = "fn grid_hash(load: f64) -> u64 { let mut h = Fnv::new(); h.write_str(&format!(\"point={load}\")); h.finish() }";
        let f = findings("crates/sim/src/checkpoint.rs", bad);
        assert_eq!(f.iter().filter(|f| f.rule == "R6").count(), 1, "{f:?}");
        let good = "fn grid_hash(load: f64) -> u64 { let mut h = Fnv::new(); h.write_str(&format!(\"point={}\", load.to_bits())); h.finish() }";
        assert!(findings("crates/sim/src/checkpoint.rs", good).is_empty());
        // Non-fingerprint functions are not constrained.
        let other = "fn render(load: f64) -> String { format!(\"{load}\") }";
        assert!(findings("crates/sim/src/report.rs", other).is_empty());
    }
}

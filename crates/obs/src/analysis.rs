//! Trace forensics: reconstruct per-packet lifecycles from a JSONL trace.
//!
//! This module is the consuming end of the packet-level flight recorder
//! (DESIGN.md §9). It streams a JSONL trace back through [`Json::parse`]
//! line by line, groups records by their cell `scope`, joins
//! `packet_arrived` / `copy_sent` / `packet_completed` records into
//! per-copy lifecycles, and derives:
//!
//! * a **delay decomposition** per copy — HOL wait behind older cells in
//!   the same VOQ, output-contention wait at the head, and split-residue
//!   wait after the packet's first partial service — three components
//!   that sum exactly to the copy's total delay;
//! * a **starvation-freedom audit**, the checkable form of the paper's
//!   Theorem 1: at every slot with a non-empty backlog, some packet
//!   holding the globally minimal arrival stamp must send at least one
//!   copy. Violations are reported with their worst inversion (how many
//!   slots younger the oldest served packet was than the true minimum);
//! * a **rounds-to-convergence histogram** against the `log2 N`
//!   reference;
//! * a **fanout-split lifetime table** (slots between a packet's first
//!   and last copy, grouped by fanout);
//! * exact **utilisation**, using the engine's `run_end` marker to
//!   distinguish idle slots from trace gaps.
//!
//! Parsing is strict and total: any malformed line yields a structured
//! `Err` naming the line, never a panic — `analyze` runs on untrusted
//! files.

use std::collections::BTreeMap;

use crate::json::Json;

/// One analysed JSONL trace, one entry per cell scope found in the file.
#[derive(Clone, Debug)]
pub struct TraceAnalysis {
    /// Per-scope analyses, in first-appearance order.
    pub scopes: Vec<ScopeAnalysis>,
}

/// Everything derived from one cell scope of a trace.
#[derive(Clone, Debug, Default)]
pub struct ScopeAnalysis {
    /// The cell scope label (`"<switch>@<load>"` for sweep traces).
    pub scope: String,
    /// Scheduler name from `run_meta` (empty if the record is missing).
    pub switch: String,
    /// Workload name from `run_meta`.
    pub traffic: String,
    /// Switch size `N` from `run_meta`, if present.
    pub ports: Option<u32>,
    /// Flight-recorder `(mode, param)` from `recorder_meta`, if present.
    pub recorder: Option<(String, u64)>,
    /// Slots executed, from the `run_end` marker, if present.
    pub slots_run: Option<u64>,
    /// Non-idle slots (one `slot_sched` record each).
    pub busy_slots: u64,
    /// Busy share of the run: `busy_slots / slots_run`, when `run_end`
    /// made the denominator known.
    pub utilisation: Option<f64>,
    /// `fault_masked` records seen (fault injection was active).
    pub faults_masked: u64,
    /// `copy_killed` records seen (egress fault injection was active).
    pub copies_killed: u64,
    /// `copy_killed` records with `requeued == false`: structured drops.
    pub copies_dropped: u64,
    /// `copy_recovered` records: killed copies that finally got through.
    pub copies_recovered: u64,
    /// Mean slots from first kill to delivery over recovered copies
    /// (`None` when nothing recovered).
    pub mean_recovery_latency: Option<f64>,
    /// `invariant_violated` records seen.
    pub invariant_violations: u64,
    /// `admission_dropped` records seen. These are emitted outside the
    /// flight recorder's packet-sampling gate, so even `sample` and
    /// `ring` traces carry every drop and this tally is always exact.
    pub admission_drop_events: u64,
    /// Total copies refused or pushed out at admission (sum of the
    /// `copies` fields of the `admission_dropped` records).
    pub admission_copies_dropped: u64,
    /// `voq_high_water` soft-warning records seen (latched, so at most
    /// one per VOQ per run).
    pub high_water_events: u64,
    /// Packets with a recorded arrival.
    pub packets_arrived: u64,
    /// Packets whose final copy was recorded.
    pub packets_completed: u64,
    /// Copies recorded crossing the fabric (`copy_sent` records).
    pub copies_sent: u64,
    /// Cell transmissions: distinct `(packet, slot)` service pairs. A
    /// native-multicast scheduler sends several copies per transmission;
    /// a unicast-expansion scheduler (iSLIP) needs one transmission per
    /// copy, so this is the split-vs-expand differential metric.
    pub transmissions: u64,
    /// Packets served over more than one slot (fanout splitting).
    pub split_packets: u64,
    /// Per-copy delay decompositions (copies whose packet has a recorded
    /// arrival, in trace order).
    pub copies: Vec<CopyDelay>,
    /// Copies whose VOQ predecessor departed *after* them — impossible
    /// for FIFO VOQs, so nonzero values flag a scheduler (or trace) whose
    /// per-VOQ service is not FIFO; their HOL wait is clamped.
    pub order_anomalies: u64,
    /// Rounds-to-convergence histogram over matched slots.
    pub rounds: RoundsProfile,
    /// The Theorem 1 audit (only `checked` under full sampling).
    pub audit: StarvationAudit,
    /// Whether every analysis is sound: full sampling (`mode == "all"`),
    /// and no copy referenced a packet with no recorded arrival.
    pub complete: bool,
}

/// One copy's delay, decomposed into three additive waits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CopyDelay {
    /// The packet id.
    pub packet: u64,
    /// Input port of the packet.
    pub input: u16,
    /// Output port of this copy.
    pub output: u16,
    /// The packet's fanout.
    pub fanout: u32,
    /// Arrival slot (the FIFOMS timestamp).
    pub arrival: u64,
    /// The slot this copy departed.
    pub sent: u64,
    /// Total delay in slots (`sent - arrival`).
    pub total: u64,
    /// Slots spent queued behind earlier-arrived cells of the same VOQ
    /// (head-of-line wait).
    pub hol: u64,
    /// Slots spent at the VOQ head losing output contention, before the
    /// packet's first service.
    pub contention: u64,
    /// Slots spent as split residue: the packet was already partially
    /// served, this copy waited for a later slot.
    pub split: u64,
}

/// Request/grant iteration statistics over the matched slots of a scope.
#[derive(Clone, Debug, Default)]
pub struct RoundsProfile {
    /// `rounds -> matched slots` histogram.
    pub histogram: BTreeMap<u32, u64>,
    /// Mean rounds over matched slots.
    pub mean: f64,
    /// Maximum rounds observed.
    pub max: u32,
    /// The `log2 N` reference the paper compares convergence against
    /// (present when `run_meta` carried the port count).
    pub log2_n: Option<f64>,
}

/// The checkable form of the paper's Theorem 1 over one traced run.
///
/// FIFOMS grants by minimal timestamp, so at every slot where any packet
/// is backlogged, some packet holding the globally minimal arrival stamp
/// must send at least one copy. An *inversion* is a backlogged slot where
/// service happened but only to strictly younger packets; its magnitude
/// is `oldest_served_arrival - min_backlogged_arrival` in slots. A
/// *blocked* slot is a backlogged slot with no service at all (never
/// happens under a maximal-matching scheduler).
#[derive(Clone, Debug, Default)]
pub struct StarvationAudit {
    /// Whether the audit ran (requires full sampling and complete
    /// lifecycles; sampled or ring traces cannot prove anything).
    pub checked: bool,
    /// Slots at which at least one packet was backlogged.
    pub backlogged_slots: u64,
    /// Backlogged slots violating the minimal-stamp-service property.
    pub inversions: u64,
    /// Worst inversion magnitude, in slots.
    pub max_inversion: u64,
    /// First violating slot, for drill-down.
    pub first_inversion_slot: Option<u64>,
    /// Backlogged slots with no service at all.
    pub blocked_slots: u64,
}

/// Per-fanout lifetime row of the fanout-split table.
#[derive(Clone, Copy, Debug)]
pub struct FanoutRow {
    /// The fanout class.
    pub fanout: u32,
    /// Packets of this fanout with recorded service.
    pub packets: u64,
    /// How many were served across more than one slot (split).
    pub split_packets: u64,
    /// Mean slots between first and last copy.
    pub mean_lifetime: f64,
    /// Worst observed lifetime.
    pub max_lifetime: u64,
    /// Mean per-copy total delay in this fanout class.
    pub mean_copy_delay: f64,
}

impl ScopeAnalysis {
    /// The fanout-split lifetime table, ascending by fanout.
    pub fn fanout_table(&self) -> Vec<FanoutRow> {
        struct Acc {
            packets: u64,
            split: u64,
            lifetime_sum: u64,
            lifetime_max: u64,
            copy_delay_sum: u64,
            copy_count: u64,
        }
        let mut per_packet: BTreeMap<u64, (u32, u64, u64, u64)> = BTreeMap::new();
        for c in &self.copies {
            let e = per_packet
                .entry(c.packet)
                .or_insert((c.fanout, u64::MAX, 0, 0));
            e.1 = e.1.min(c.sent);
            e.2 = e.2.max(c.sent);
            e.3 += 1;
        }
        let mut classes: BTreeMap<u32, Acc> = BTreeMap::new();
        for (fanout, first, last, _) in per_packet.values() {
            let a = classes.entry(*fanout).or_insert(Acc {
                packets: 0,
                split: 0,
                lifetime_sum: 0,
                lifetime_max: 0,
                copy_delay_sum: 0,
                copy_count: 0,
            });
            a.packets += 1;
            let lifetime = last - first;
            if lifetime > 0 {
                a.split += 1;
            }
            a.lifetime_sum += lifetime;
            a.lifetime_max = a.lifetime_max.max(lifetime);
        }
        for c in &self.copies {
            if let Some(a) = classes.get_mut(&c.fanout) {
                a.copy_delay_sum += c.total;
                a.copy_count += 1;
            }
        }
        classes
            .into_iter()
            .map(|(fanout, a)| FanoutRow {
                fanout,
                packets: a.packets,
                split_packets: a.split,
                mean_lifetime: a.lifetime_sum as f64 / a.packets.max(1) as f64,
                max_lifetime: a.lifetime_max,
                mean_copy_delay: a.copy_delay_sum as f64 / a.copy_count.max(1) as f64,
            })
            .collect()
    }

    /// Mean of each delay component over all decomposed copies:
    /// `(total, hol, contention, split)`.
    pub fn mean_delays(&self) -> (f64, f64, f64, f64) {
        if self.copies.is_empty() {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let n = self.copies.len() as f64;
        let (mut t, mut h, mut c, mut s) = (0u64, 0u64, 0u64, 0u64);
        for d in &self.copies {
            t += d.total;
            h += d.hol;
            c += d.contention;
            s += d.split;
        }
        (t as f64 / n, h as f64 / n, c as f64 / n, s as f64 / n)
    }

    /// Tail quantiles of the per-copy total delay, `(p50, p99, p999)` in
    /// slots, via a log₂-bucketed histogram (each value is its bucket's
    /// lower bound, so quantiles are conservative lower bounds within
    /// 2×). `None` when no copy was decomposed. Means hide tails; the
    /// paper's delay story is about the tail under load.
    pub fn delay_percentiles(&self) -> Option<(u64, u64, u64)> {
        if self.copies.is_empty() {
            return None;
        }
        let mut hist = fifoms_stats::Log2Histogram::new();
        for c in &self.copies {
            hist.record(c.total);
        }
        Some((hist.quantile(0.5), hist.quantile(0.99), hist.quantile(0.999)))
    }

    /// Render this scope as the JSON object of the `analyze --json`
    /// report (schema `schemas/analysis.schema.json`). Per-copy detail is
    /// summarised, not dumped — reports stay small even for long traces.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("scope", self.scope.as_str());
        obj.set("switch", self.switch.as_str());
        obj.set("traffic", self.traffic.as_str());
        obj.set("ports", self.ports);
        if let Some((mode, param)) = &self.recorder {
            let mut r = Json::object();
            r.set("mode", mode.as_str());
            r.set("param", *param);
            obj.set("recorder", r);
        } else {
            obj.set("recorder", Json::Null);
        }
        obj.set("complete", self.complete);
        obj.set("slots_run", self.slots_run);
        obj.set("busy_slots", self.busy_slots);
        obj.set("utilisation", self.utilisation);
        obj.set("packets_arrived", self.packets_arrived);
        obj.set("packets_completed", self.packets_completed);
        obj.set("copies_sent", self.copies_sent);
        obj.set("transmissions", self.transmissions);
        obj.set("split_packets", self.split_packets);
        obj.set("faults_masked", self.faults_masked);
        if self.copies_killed > 0 {
            let mut rec = Json::object();
            rec.set("copies_killed", self.copies_killed);
            rec.set("copies_dropped", self.copies_dropped);
            rec.set("copies_recovered", self.copies_recovered);
            rec.set("mean_recovery_latency", self.mean_recovery_latency);
            obj.set("recovery", rec);
        }
        obj.set("invariant_violations", self.invariant_violations);
        if self.admission_drop_events > 0 || self.high_water_events > 0 {
            let mut ov = Json::object();
            ov.set("admission_drop_events", self.admission_drop_events);
            ov.set("admission_copies_dropped", self.admission_copies_dropped);
            ov.set("high_water_events", self.high_water_events);
            obj.set("overload", ov);
        }
        obj.set("order_anomalies", self.order_anomalies);

        let (total, hol, contention, split) = self.mean_delays();
        let mut delay = Json::object();
        delay.set("copies", self.copies.len());
        delay.set("mean_total", total);
        delay.set("mean_hol", hol);
        delay.set("mean_contention", contention);
        delay.set("mean_split", split);
        if let Some((p50, p99, p999)) = self.delay_percentiles() {
            delay.set("p50", p50);
            delay.set("p99", p99);
            delay.set("p999", p999);
        }
        obj.set("delay", delay);

        let mut rounds = Json::object();
        rounds.set("mean", self.rounds.mean);
        rounds.set("max", self.rounds.max);
        rounds.set("log2_n", self.rounds.log2_n);
        let hist: Vec<Json> = self
            .rounds
            .histogram
            .iter()
            .map(|(r, n)| {
                let mut h = Json::object();
                h.set("rounds", *r);
                h.set("slots", *n);
                h
            })
            .collect();
        rounds.set("histogram", Json::Arr(hist));
        obj.set("rounds", rounds);

        let mut audit = Json::object();
        audit.set("checked", self.audit.checked);
        audit.set("backlogged_slots", self.audit.backlogged_slots);
        audit.set("inversions", self.audit.inversions);
        audit.set("max_inversion", self.audit.max_inversion);
        audit.set("first_inversion_slot", self.audit.first_inversion_slot);
        audit.set("blocked_slots", self.audit.blocked_slots);
        obj.set("audit", audit);

        let fanout: Vec<Json> = self
            .fanout_table()
            .into_iter()
            .map(|row| {
                let mut f = Json::object();
                f.set("fanout", row.fanout);
                f.set("packets", row.packets);
                f.set("split_packets", row.split_packets);
                f.set("mean_lifetime", row.mean_lifetime);
                f.set("max_lifetime", row.max_lifetime);
                f.set("mean_copy_delay", row.mean_copy_delay);
                f
            })
            .collect();
        obj.set("fanout", Json::Arr(fanout));
        obj
    }
}

impl TraceAnalysis {
    /// A scope by its label.
    pub fn scope(&self, label: &str) -> Option<&ScopeAnalysis> {
        self.scopes.iter().find(|s| s.scope == label)
    }

    /// The full `analyze --json` document.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::object();
        doc.set("schema", "fifoms-analysis-v1");
        doc.set(
            "scopes",
            Json::Arr(self.scopes.iter().map(ScopeAnalysis::to_json).collect()),
        );
        doc
    }
}

// ---------------------------------------------------------------------
// Trace ingestion
// ---------------------------------------------------------------------

/// `slot -> [(arrival, packet_id)]` index used by the audit sweep.
type SlotIndex = BTreeMap<u64, Vec<(u64, u64)>>;
/// `(input, output) -> [(arrival, packet_id, sent)]` VOQ reconstruction.
type VoqIndex = BTreeMap<(u16, u16), Vec<(u64, u64, u64)>>;

/// One packet's raw lifecycle as joined from the trace.
#[derive(Clone, Debug, Default)]
struct PacketLife {
    /// `(arrival_slot, input, fanout)` from `packet_arrived`, if kept.
    arrival: Option<(u64, u16, u32)>,
    /// `(sent_slot, output, split)` per copy, in trace order.
    copies: Vec<(u64, u16, bool)>,
    completed: Option<u64>,
}

#[derive(Debug, Default)]
struct ScopeAcc {
    meta: Option<(String, String, Option<u32>)>,
    recorder: Option<(String, u64)>,
    slots_run: Option<u64>,
    busy_slots: u64,
    faults_masked: u64,
    invariant_violations: u64,
    rounds_hist: BTreeMap<u32, u64>,
    rounds_sum: u64,
    rounds_slots: u64,
    rounds_max: u32,
    max_event_slot: u64,
    copies_killed: u64,
    copies_dropped: u64,
    copies_recovered: u64,
    recovery_latency_sum: u64,
    admission_drop_events: u64,
    admission_copies_dropped: u64,
    high_water_events: u64,
    packets: BTreeMap<u64, PacketLife>,
}

fn field<'a>(doc: &'a Json, key: &str, line: usize) -> Result<&'a Json, String> {
    doc.get(key)
        .ok_or_else(|| format!("line {line}: record missing field `{key}`"))
}

fn num_field(doc: &Json, key: &str, line: usize) -> Result<f64, String> {
    field(doc, key, line)?
        .as_f64()
        .ok_or_else(|| format!("line {line}: field `{key}` is not a number"))
}

fn unum_field(doc: &Json, key: &str, line: usize) -> Result<u64, String> {
    let x = num_field(doc, key, line)?;
    if x < 0.0 || x.fract() != 0.0 || x > 9e15 {
        return Err(format!(
            "line {line}: field `{key}` is not a non-negative integer"
        ));
    }
    Ok(x as u64)
}

fn str_field<'a>(doc: &'a Json, key: &str, line: usize) -> Result<&'a str, String> {
    field(doc, key, line)?
        .as_str()
        .ok_or_else(|| format!("line {line}: field `{key}` is not a string"))
}

/// Analyse a complete JSONL trace. Any malformed or truncated line is a
/// structured error naming the 1-based line number — never a panic.
pub fn analyze_trace(text: &str) -> Result<TraceAnalysis, String> {
    let mut order: Vec<String> = Vec::new();
    let mut scopes: BTreeMap<String, ScopeAcc> = BTreeMap::new();

    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        if raw.trim().is_empty() {
            // A blank final line is a normal artifact of line-oriented
            // writers; blank lines elsewhere are tolerated the same way.
            continue;
        }
        let doc = Json::parse(raw).map_err(|e| format!("line {line}: {e}"))?;
        let kind = str_field(&doc, "event", line)?.to_string();
        let scope = str_field(&doc, "scope", line)?.to_string();
        if !scopes.contains_key(&scope) {
            order.push(scope.clone());
        }
        let acc = scopes.entry(scope).or_default();
        match kind.as_str() {
            "run_meta" => {
                let ports = match doc.get("ports") {
                    Some(p) => Some(
                        p.as_f64()
                            .filter(|x| *x >= 1.0 && x.fract() == 0.0)
                            .ok_or_else(|| format!("line {line}: bad `ports`"))?
                            as u32,
                    ),
                    None => None, // pre-PR-3 traces lack the field
                };
                acc.meta = Some((
                    str_field(&doc, "switch", line)?.to_string(),
                    str_field(&doc, "traffic", line)?.to_string(),
                    ports,
                ));
            }
            "slot_sched" => {
                acc.busy_slots += 1;
                let slot = unum_field(&doc, "slot", line)?;
                acc.max_event_slot = acc.max_event_slot.max(slot);
                let rounds = unum_field(&doc, "rounds", line)? as u32;
                let connections = unum_field(&doc, "connections", line)?;
                if connections > 0 {
                    *acc.rounds_hist.entry(rounds).or_insert(0) += 1;
                    acc.rounds_sum += u64::from(rounds);
                    acc.rounds_slots += 1;
                    acc.rounds_max = acc.rounds_max.max(rounds);
                }
            }
            "recorder_meta" => {
                acc.recorder = Some((
                    str_field(&doc, "mode", line)?.to_string(),
                    unum_field(&doc, "param", line)?,
                ));
            }
            "packet_arrived" => {
                let id = unum_field(&doc, "id", line)?;
                let slot = unum_field(&doc, "slot", line)?;
                let input = unum_field(&doc, "input", line)? as u16;
                let fanout = unum_field(&doc, "fanout", line)? as u32;
                acc.max_event_slot = acc.max_event_slot.max(slot);
                acc.packets.entry(id).or_default().arrival = Some((slot, input, fanout));
            }
            "copy_sent" => {
                let id = unum_field(&doc, "id", line)?;
                let slot = unum_field(&doc, "slot", line)?;
                let output = unum_field(&doc, "output", line)? as u16;
                let split = matches!(field(&doc, "split", line)?, Json::Bool(true));
                acc.max_event_slot = acc.max_event_slot.max(slot);
                acc.packets
                    .entry(id)
                    .or_default()
                    .copies
                    .push((slot, output, split));
            }
            "packet_completed" => {
                let id = unum_field(&doc, "id", line)?;
                let slot = unum_field(&doc, "slot", line)?;
                acc.max_event_slot = acc.max_event_slot.max(slot);
                acc.packets.entry(id).or_default().completed = Some(slot);
            }
            "run_end" => {
                acc.slots_run = Some(unum_field(&doc, "slots_run", line)?);
            }
            "fault_masked" => acc.faults_masked += 1,
            "invariant_violated" => acc.invariant_violations += 1,
            "copy_killed" => {
                acc.copies_killed += 1;
                if !matches!(field(&doc, "requeued", line)?, Json::Bool(true)) {
                    acc.copies_dropped += 1;
                }
            }
            "copy_recovered" => {
                acc.copies_recovered += 1;
                acc.recovery_latency_sum += unum_field(&doc, "latency", line)?;
            }
            "admission_dropped" => {
                acc.admission_drop_events += 1;
                acc.admission_copies_dropped += unum_field(&doc, "copies", line)?;
            }
            "voq_high_water" => acc.high_water_events += 1,
            // Unknown kinds are skipped: newer emitters may add events
            // this analyser does not understand yet.
            _ => {}
        }
    }

    let scopes = order
        .into_iter()
        .map(|label| {
            let acc = scopes.remove(&label).expect("scope recorded on insert");
            finish_scope(label, acc)
        })
        .collect();
    Ok(TraceAnalysis { scopes })
}

fn finish_scope(label: String, acc: ScopeAcc) -> ScopeAnalysis {
    let mut out = ScopeAnalysis {
        scope: label,
        ..ScopeAnalysis::default()
    };
    if let Some((switch, traffic, ports)) = acc.meta {
        out.switch = switch;
        out.traffic = traffic;
        out.ports = ports;
    }
    out.recorder = acc.recorder;
    out.slots_run = acc.slots_run;
    out.busy_slots = acc.busy_slots;
    out.utilisation = acc
        .slots_run
        .filter(|s| *s > 0)
        .map(|s| acc.busy_slots as f64 / s as f64);
    out.faults_masked = acc.faults_masked;
    out.copies_killed = acc.copies_killed;
    out.copies_dropped = acc.copies_dropped;
    out.copies_recovered = acc.copies_recovered;
    out.mean_recovery_latency = (acc.copies_recovered > 0)
        .then(|| acc.recovery_latency_sum as f64 / acc.copies_recovered as f64);
    out.invariant_violations = acc.invariant_violations;
    out.admission_drop_events = acc.admission_drop_events;
    out.admission_copies_dropped = acc.admission_copies_dropped;
    out.high_water_events = acc.high_water_events;
    out.rounds = RoundsProfile {
        histogram: acc.rounds_hist,
        mean: if acc.rounds_slots > 0 {
            acc.rounds_sum as f64 / acc.rounds_slots as f64
        } else {
            0.0
        },
        max: acc.rounds_max,
        log2_n: out.ports.map(|n| f64::from(n).log2()),
    };

    // Raw lifecycle tallies.
    let mut incomplete_lifecycles = false;
    for life in acc.packets.values() {
        if life.arrival.is_some() {
            out.packets_arrived += 1;
        }
        if life.completed.is_some() {
            out.packets_completed += 1;
        }
        out.copies_sent += life.copies.len() as u64;
        if !life.copies.is_empty() {
            let mut slots: Vec<u64> = life.copies.iter().map(|(s, _, _)| *s).collect();
            slots.sort_unstable();
            slots.dedup();
            out.transmissions += slots.len() as u64;
            if slots.len() > 1 {
                out.split_packets += 1;
            }
            if life.arrival.is_none() {
                incomplete_lifecycles = true;
            }
        }
    }
    out.complete = matches!(&out.recorder, Some((mode, _)) if mode == "all")
        && !incomplete_lifecycles;

    decompose_delays(&mut out, &acc.packets);
    if out.complete {
        out.audit = starvation_audit(&acc.packets, acc.slots_run, acc.max_event_slot);
    }
    out
}

/// Split every copy's delay into HOL + contention + split-residue waits.
///
/// For copy `c` of packet `p` (arrival `a`) to output `o`, sent at `s`:
/// the copy reaches the head of VOQ `(input, o)` at
/// `h = max(a, pred_sent + 1)` where `pred` is the previously-arrived
/// copy in the same VOQ (service within a VOQ is FIFO). With `fs` the
/// packet's first service slot:
///
/// * `hol = h - a` — waiting behind earlier cells;
/// * `split = s - max(h, fs)` if `fs < s`, else 0 — head-of-queue slots
///   spent at or after the packet's first (partial) service: the copy
///   was residue of an already-started packet;
/// * `contention = (s - h) - split` — head-of-queue slots strictly
///   before first service, lost to output contention.
///
/// The three sum to `s - a` by construction; the packet-trace
/// integration suite asserts it against the recorder's raw events.
fn decompose_delays(out: &mut ScopeAnalysis, packets: &BTreeMap<u64, PacketLife>) {
    // First service slot per packet.
    let mut first_service: BTreeMap<u64, u64> = BTreeMap::new();
    for (id, life) in packets {
        if let Some(min) = life.copies.iter().map(|(s, _, _)| *s).min() {
            first_service.insert(*id, min);
        }
    }
    // VOQ membership: (input, output) -> [(arrival, packet, sent)].
    let mut voqs: VoqIndex = BTreeMap::new();
    for (id, life) in packets {
        let Some((arrival, input, _)) = life.arrival else {
            continue;
        };
        for (sent, output, _) in &life.copies {
            voqs.entry((input, *output))
                .or_default()
                .push((arrival, *id, *sent));
        }
    }
    let mut decomposed: Vec<CopyDelay> = Vec::new();
    for ((input, output), mut entries) in voqs {
        // One arrival per input per slot, so (arrival, id) orders the VOQ
        // uniquely and in admission order.
        entries.sort_unstable();
        let mut pred_sent: Option<u64> = None;
        for (arrival, id, sent) in entries {
            let mut h = match pred_sent {
                Some(ps) => arrival.max(ps + 1),
                None => arrival,
            };
            if h > sent {
                // Non-FIFO VOQ service (not possible for the paper's
                // schedulers) — clamp rather than underflow and flag it.
                out.order_anomalies += 1;
                h = sent;
            }
            let fs = first_service.get(&id).copied().unwrap_or(sent);
            let split = if fs < sent {
                sent.saturating_sub(h.max(fs))
            } else {
                0
            };
            let contention = (sent - h) - split;
            let life = &packets[&id];
            let (_, _, fanout) = life.arrival.expect("arrival present in VOQ path");
            decomposed.push(CopyDelay {
                packet: id,
                input,
                output,
                fanout,
                arrival,
                sent,
                total: sent - arrival,
                hol: h - arrival,
                contention,
                split,
            });
            pred_sent = Some(sent);
        }
    }
    decomposed.sort_unstable_by_key(|c| (c.sent, c.packet, c.output));
    out.copies = decomposed;
}

/// Sweep the slot axis, maintaining the backlogged set ordered by
/// arrival stamp, and check the minimal-stamp-service property.
fn starvation_audit(
    packets: &BTreeMap<u64, PacketLife>,
    slots_run: Option<u64>,
    max_event_slot: u64,
) -> StarvationAudit {
    // Per-packet interval: backlogged during [arrival, last_sent]. A
    // packet never completed in the trace stays backlogged to the end.
    let horizon = slots_run.map_or(max_event_slot + 1, |s| s.max(max_event_slot + 1));
    let mut arrivals_at: SlotIndex = BTreeMap::new(); // slot -> [(arrival, id)] entering
    let mut departs_at: SlotIndex = BTreeMap::new(); // slot -> [(arrival, id)] leaving
    let mut min_served_at: BTreeMap<u64, u64> = BTreeMap::new(); // slot -> min arrival served
    for (id, life) in packets {
        let Some((arrival, _, _)) = life.arrival else {
            continue;
        };
        // Backlogged during [arrival, last service]; the departure index
        // is exclusive. A packet never completed in the trace stays
        // backlogged through the end of the run.
        let gone_after = if life.completed.is_some() {
            life.copies.iter().map(|(s, _, _)| *s).max().unwrap_or(arrival)
        } else {
            horizon
        };
        arrivals_at.entry(arrival).or_default().push((arrival, *id));
        departs_at
            .entry(gone_after + 1)
            .or_default()
            .push((arrival, *id));
        for (sent, _, _) in &life.copies {
            min_served_at
                .entry(*sent)
                .and_modify(|m| *m = (*m).min(arrival))
                .or_insert(arrival);
        }
    }

    let mut audit = StarvationAudit {
        checked: true,
        ..StarvationAudit::default()
    };
    let mut active: std::collections::BTreeSet<(u64, u64)> = std::collections::BTreeSet::new();
    for t in 0..horizon {
        if let Some(arrived) = arrivals_at.get(&t) {
            for &(a, id) in arrived {
                active.insert((a, id));
            }
        }
        if let Some(departed) = departs_at.get(&t) {
            for key in departed {
                active.remove(key);
            }
        }
        let Some(&(min_backlogged, _)) = active.first() else {
            continue;
        };
        audit.backlogged_slots += 1;
        match min_served_at.get(&t) {
            None => audit.blocked_slots += 1,
            Some(&oldest_served) if oldest_served > min_backlogged => {
                audit.inversions += 1;
                let magnitude = oldest_served - min_backlogged;
                audit.max_inversion = audit.max_inversion.max(magnitude);
                audit.first_inversion_slot.get_or_insert(t);
            }
            Some(_) => {}
        }
    }
    audit
}

// ---------------------------------------------------------------------
// Comparison (FIFOMS vs iSLIP on the same workload)
// ---------------------------------------------------------------------

/// A side-by-side diff of two analysed scopes over the same workload.
#[derive(Clone, Debug)]
pub struct ScopeComparison {
    /// Left scope label.
    pub left: String,
    /// Right scope label.
    pub right: String,
    /// `copies_sent` of left / right (equal when both runs drained the
    /// same arrivals — copy conservation).
    pub copies: (u64, u64),
    /// Cell transmissions of left / right: the split-vs-expand
    /// differential (unicast expansion needs one transmission per copy).
    pub transmissions: (u64, u64),
    /// Mean total per-copy delay of left / right.
    pub mean_delay: (f64, f64),
    /// Mean convergence rounds of left / right.
    pub mean_rounds: (f64, f64),
    /// Per-fanout mean-copy-delay deltas: `(fanout, left, right,
    /// right - left)`, over fanouts present on either side.
    pub fanout_delay: Vec<(u32, f64, f64, f64)>,
}

/// Compare two scopes (typically FIFOMS vs iSLIP traces of the same
/// seeded workload).
pub fn compare_scopes(left: &ScopeAnalysis, right: &ScopeAnalysis) -> ScopeComparison {
    let lf = left.fanout_table();
    let rf = right.fanout_table();
    let mut fanouts: Vec<u32> = lf.iter().chain(&rf).map(|r| r.fanout).collect();
    fanouts.sort_unstable();
    fanouts.dedup();
    let lookup = |table: &[FanoutRow], f: u32| {
        table
            .iter()
            .find(|r| r.fanout == f)
            .map_or(0.0, |r| r.mean_copy_delay)
    };
    let fanout_delay = fanouts
        .into_iter()
        .map(|f| {
            let l = lookup(&lf, f);
            let r = lookup(&rf, f);
            (f, l, r, r - l)
        })
        .collect();
    ScopeComparison {
        left: left.scope.clone(),
        right: right.scope.clone(),
        copies: (left.copies_sent, right.copies_sent),
        transmissions: (left.transmissions, right.transmissions),
        mean_delay: (left.mean_delays().0, right.mean_delays().0),
        mean_rounds: (left.rounds.mean, right.rounds.mean),
        fanout_delay,
    }
}

impl ScopeComparison {
    /// The JSON rendering embedded in `analyze --json` under `"compare"`.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("left", self.left.as_str());
        obj.set("right", self.right.as_str());
        let pair = |a: Json, b: Json| Json::Arr(vec![a, b]);
        obj.set(
            "copies",
            pair(self.copies.0.into(), self.copies.1.into()),
        );
        obj.set(
            "transmissions",
            pair(self.transmissions.0.into(), self.transmissions.1.into()),
        );
        obj.set(
            "mean_delay",
            pair(self.mean_delay.0.into(), self.mean_delay.1.into()),
        );
        obj.set(
            "mean_rounds",
            pair(self.mean_rounds.0.into(), self.mean_rounds.1.into()),
        );
        let rows: Vec<Json> = self
            .fanout_delay
            .iter()
            .map(|(f, l, r, d)| {
                let mut row = Json::object();
                row.set("fanout", *f);
                row.set("left", *l);
                row.set("right", *r);
                row.set("delta", *d);
                row
            })
            .collect();
        obj.set("fanout_delay", Json::Arr(rows));
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-written three-packet trace exercising every event kind.
    ///
    /// Slot axis (input 0, outputs 0/1):
    ///   t=0: p1 (fanout 2, outputs 0+1) arrives; copy->0 sent (split),
    ///        p2 (fanout 1, output 1) arrives at input 1, copy->1 sent.
    ///   t=1: p1 residue ->1 sent (completes).
    ///   t=2..3: idle.
    ///   t=4: p3 (fanout 1, output 0) arrives and is served same slot.
    ///   run_end: slots_run = 6.
    fn sample_trace() -> String {
        let lines = [
            r#"{"event":"run_meta","scope":"S","switch":"FIFOMS","traffic":"bernoulli","ports":4,"params":{"p":0.5}}"#,
            r#"{"event":"recorder_meta","scope":"S","mode":"all","param":0}"#,
            r#"{"event":"packet_arrived","scope":"S","slot":0,"id":1,"input":0,"fanout":2}"#,
            r#"{"event":"packet_arrived","scope":"S","slot":0,"id":2,"input":1,"fanout":1}"#,
            r#"{"event":"slot_sched","scope":"S","slot":0,"active_ports":2,"matched_inputs":2,"rounds":2,"connections":2,"multicast_inputs":0,"fanout_splits":1,"completed_packets":1,"backlog_packets":1,"backlog_copies":1,"oldest_age":0}"#,
            r#"{"event":"copy_sent","scope":"S","slot":0,"id":1,"output":0,"split":true}"#,
            r#"{"event":"copy_sent","scope":"S","slot":0,"id":2,"output":1,"split":false}"#,
            r#"{"event":"packet_completed","scope":"S","slot":0,"id":2}"#,
            r#"{"event":"slot_sched","scope":"S","slot":1,"active_ports":1,"matched_inputs":1,"rounds":1,"connections":1,"multicast_inputs":0,"fanout_splits":0,"completed_packets":1,"backlog_packets":0,"backlog_copies":0,"oldest_age":null}"#,
            r#"{"event":"copy_sent","scope":"S","slot":1,"id":1,"output":1,"split":false}"#,
            r#"{"event":"packet_completed","scope":"S","slot":1,"id":1}"#,
            r#"{"event":"packet_arrived","scope":"S","slot":4,"id":3,"input":0,"fanout":1}"#,
            r#"{"event":"slot_sched","scope":"S","slot":4,"active_ports":1,"matched_inputs":1,"rounds":1,"connections":1,"multicast_inputs":0,"fanout_splits":0,"completed_packets":1,"backlog_packets":0,"backlog_copies":0,"oldest_age":null}"#,
            r#"{"event":"copy_sent","scope":"S","slot":4,"id":3,"output":0,"split":false}"#,
            r#"{"event":"packet_completed","scope":"S","slot":4,"id":3}"#,
            r#"{"event":"run_end","scope":"S","slots_run":6}"#,
        ];
        lines.join("\n") + "\n"
    }

    #[test]
    fn reconstructs_lifecycles_and_utilisation() {
        let a = analyze_trace(&sample_trace()).unwrap();
        assert_eq!(a.scopes.len(), 1);
        let s = &a.scopes[0];
        assert_eq!(s.switch, "FIFOMS");
        assert_eq!(s.ports, Some(4));
        assert!(s.complete);
        assert_eq!(s.packets_arrived, 3);
        assert_eq!(s.packets_completed, 3);
        assert_eq!(s.copies_sent, 4);
        // p1 served over two slots (2 transmissions), p2 and p3 over one.
        assert_eq!(s.transmissions, 4);
        assert_eq!(s.split_packets, 1);
        // 3 busy slots out of 6: idleness is explicit, not guessed.
        assert_eq!(s.busy_slots, 3);
        assert_eq!(s.slots_run, Some(6));
        assert!((s.utilisation.unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn recovery_events_are_tallied() {
        let lines = [
            r#"{"event":"copy_killed","scope":"S","slot":1,"input":0,"output":2,"packet":1,"requeued":true,"retry":1}"#,
            r#"{"event":"copy_killed","scope":"S","slot":2,"input":0,"output":2,"packet":1,"requeued":true,"retry":2}"#,
            r#"{"event":"copy_killed","scope":"S","slot":3,"input":1,"output":3,"packet":2,"requeued":false,"retry":4}"#,
            r#"{"event":"copy_recovered","scope":"S","slot":5,"input":0,"output":2,"packet":1,"kills":2,"latency":4}"#,
        ];
        let a = analyze_trace(&(lines.join("\n") + "\n")).unwrap();
        let s = &a.scopes[0];
        assert_eq!(s.copies_killed, 3);
        assert_eq!(s.copies_dropped, 1);
        assert_eq!(s.copies_recovered, 1);
        assert_eq!(s.mean_recovery_latency, Some(4.0));
        let json = s.to_json().to_string();
        assert!(json.contains(r#""recovery""#), "recovery block missing: {json}");
    }

    #[test]
    fn delay_components_sum_to_totals() {
        let a = analyze_trace(&sample_trace()).unwrap();
        let s = &a.scopes[0];
        assert_eq!(s.copies.len(), 4);
        for c in &s.copies {
            assert_eq!(c.hol + c.contention + c.split, c.total, "{c:?}");
            assert_eq!(c.total, c.sent - c.arrival, "{c:?}");
        }
        // p1's residue copy to output 1 waited one slot purely as split
        // residue (it was at its VOQ head from arrival; the packet's
        // first service was slot 0).
        let residue = s
            .copies
            .iter()
            .find(|c| c.packet == 1 && c.output == 1)
            .unwrap();
        assert_eq!(
            (residue.hol, residue.contention, residue.split),
            (0, 0, 1),
            "{residue:?}"
        );
        assert_eq!(s.order_anomalies, 0);
    }

    #[test]
    fn fanout_table_separates_split_lifetimes_by_class() {
        let a = analyze_trace(&sample_trace()).unwrap();
        let rows = a.scopes[0].fanout_table();
        assert_eq!(rows.len(), 2, "{rows:?}");
        // Fanout 1: p2 and p3, each served whole in its arrival slot.
        let unicast = &rows[0];
        assert_eq!(
            (unicast.fanout, unicast.packets, unicast.split_packets),
            (1, 2, 0)
        );
        assert_eq!((unicast.mean_lifetime, unicast.max_lifetime), (0.0, 0));
        assert_eq!(unicast.mean_copy_delay, 0.0);
        // Fanout 2: p1, first copy in slot 0 and its residue in slot 1.
        let multicast = &rows[1];
        assert_eq!(
            (multicast.fanout, multicast.packets, multicast.split_packets),
            (2, 1, 1)
        );
        assert_eq!((multicast.mean_lifetime, multicast.max_lifetime), (1.0, 1));
        assert_eq!(multicast.mean_copy_delay, 0.5);
        assert!(ScopeAnalysis::default().fanout_table().is_empty());
    }

    #[test]
    fn mean_delays_average_each_component_over_copies() {
        let a = analyze_trace(&sample_trace()).unwrap();
        // Four copies; only p1's residue waited, one slot, as split residue.
        assert_eq!(a.scopes[0].mean_delays(), (0.25, 0.0, 0.0, 0.25));
        assert_eq!(ScopeAnalysis::default().mean_delays(), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn delay_percentiles_come_from_the_histogram() {
        let a = analyze_trace(&sample_trace()).unwrap();
        let s = &a.scopes[0];
        // Copy delays in the sample trace: 0, 0, 0, 1 slots. The log2
        // histogram reports bucket lower bounds, so p50 = 0 and the
        // tail quantiles land in the delay-1 bucket.
        let (p50, p99, p999) = s.delay_percentiles().unwrap();
        assert_eq!(p50, 0);
        assert_eq!(p99, 1);
        assert_eq!(p999, 1);
        let json = s.to_json().to_string();
        assert!(json.contains(r#""p999""#), "tail fields missing: {json}");

        // No decomposed copies -> no percentile fields (additive schema).
        let empty = ScopeAnalysis::default();
        assert!(empty.delay_percentiles().is_none());
        assert!(!empty.to_json().to_string().contains(r#""p999""#));
    }

    #[test]
    fn starvation_audit_passes_on_a_faithful_trace() {
        let a = analyze_trace(&sample_trace()).unwrap();
        let s = &a.scopes[0];
        assert!(s.audit.checked);
        assert_eq!(s.audit.backlogged_slots, 3, "slots 0, 1 and 4");
        assert_eq!(s.audit.inversions, 0);
        assert_eq!(s.audit.blocked_slots, 0);
        assert_eq!(s.audit.max_inversion, 0);
    }

    #[test]
    fn starvation_audit_flags_a_bypassed_oldest_packet() {
        // p1 (stamp 0) backlogged while only p2 (stamp 1) is served at
        // t=1: a 1-slot inversion. p1 finally served at t=2.
        let lines = [
            r#"{"event":"recorder_meta","scope":"S","mode":"all","param":0}"#,
            r#"{"event":"packet_arrived","scope":"S","slot":0,"id":1,"input":0,"fanout":1}"#,
            r#"{"event":"packet_arrived","scope":"S","slot":1,"id":2,"input":1,"fanout":1}"#,
            r#"{"event":"copy_sent","scope":"S","slot":1,"id":2,"output":1,"split":false}"#,
            r#"{"event":"packet_completed","scope":"S","slot":1,"id":2}"#,
            r#"{"event":"copy_sent","scope":"S","slot":2,"id":1,"output":0,"split":false}"#,
            r#"{"event":"packet_completed","scope":"S","slot":2,"id":1}"#,
            r#"{"event":"run_end","scope":"S","slots_run":3}"#,
        ];
        let a = analyze_trace(&(lines.join("\n") + "\n")).unwrap();
        let s = &a.scopes[0];
        assert!(s.audit.checked);
        assert_eq!(s.audit.inversions, 1);
        assert_eq!(s.audit.max_inversion, 1);
        assert_eq!(s.audit.first_inversion_slot, Some(1));
        // t=0: p1 backlogged, nothing served at all -> blocked.
        assert_eq!(s.audit.blocked_slots, 1);
    }

    #[test]
    fn sampled_traces_are_marked_incomplete_and_skip_the_audit() {
        let lines = [
            r#"{"event":"recorder_meta","scope":"S","mode":"sample","param":4}"#,
            r#"{"event":"packet_arrived","scope":"S","slot":0,"id":4,"input":0,"fanout":1}"#,
            r#"{"event":"copy_sent","scope":"S","slot":0,"id":4,"output":0,"split":false}"#,
            r#"{"event":"packet_completed","scope":"S","slot":0,"id":4}"#,
            r#"{"event":"run_end","scope":"S","slots_run":1}"#,
        ];
        let a = analyze_trace(&(lines.join("\n") + "\n")).unwrap();
        let s = &a.scopes[0];
        assert!(!s.complete);
        assert!(!s.audit.checked);
        // Per-copy statistics still work on what was kept.
        assert_eq!(s.copies.len(), 1);
    }

    #[test]
    fn ring_traces_tolerate_missing_arrivals() {
        // The ring evicted p1's packet_arrived; its copies must not be
        // decomposed, but tallies still count them.
        let lines = [
            r#"{"event":"recorder_meta","scope":"S","mode":"ring","param":2}"#,
            r#"{"event":"copy_sent","scope":"S","slot":5,"id":1,"output":0,"split":false}"#,
            r#"{"event":"packet_completed","scope":"S","slot":5,"id":1}"#,
            r#"{"event":"run_end","scope":"S","slots_run":6}"#,
        ];
        let a = analyze_trace(&(lines.join("\n") + "\n")).unwrap();
        let s = &a.scopes[0];
        assert!(!s.complete);
        assert_eq!(s.copies_sent, 1);
        assert!(s.copies.is_empty(), "no arrival, no decomposition");
    }

    #[test]
    fn sampled_traces_reconcile_admission_drops_exactly() {
        // A 1/K sampled trace: packet lifecycles are thinned (p2's
        // arrival was not kept), but admission_dropped records bypass
        // the sampling gate, so the drop ledger must stay exact.
        let lines = [
            r#"{"event":"recorder_meta","scope":"S","mode":"sample","param":4}"#,
            r#"{"event":"packet_arrived","scope":"S","slot":0,"id":4,"input":0,"fanout":2}"#,
            r#"{"event":"admission_dropped","scope":"S","slot":1,"input":0,"packet":5,"copies":3,"cause":"tail_full"}"#,
            r#"{"event":"copy_sent","scope":"S","slot":1,"id":4,"output":0,"split":false}"#,
            r#"{"event":"admission_dropped","scope":"S","slot":2,"input":1,"packet":6,"copies":1,"cause":"pushout"}"#,
            r#"{"event":"voq_high_water","scope":"S","slot":2,"input":1,"output":0,"depth":1024}"#,
            r#"{"event":"run_end","scope":"S","slots_run":5}"#,
        ];
        let a = analyze_trace(&(lines.join("\n") + "\n")).unwrap();
        let s = &a.scopes[0];
        assert!(!s.complete, "sampled traces stay incomplete");
        assert_eq!(s.admission_drop_events, 2);
        assert_eq!(s.admission_copies_dropped, 4, "3 shed + 1 pushed out");
        assert_eq!(s.high_water_events, 1);
        let json = s.to_json().to_string();
        assert!(json.contains(r#""overload""#), "overload block missing: {json}");
    }

    #[test]
    fn ring_traces_reconcile_admission_drops_exactly() {
        // A ring:C trace that evicted every packet lifecycle record:
        // the drop ledger is still complete because admission_dropped
        // is written outside the ring.
        let lines = [
            r#"{"event":"recorder_meta","scope":"S","mode":"ring","param":2}"#,
            r#"{"event":"admission_dropped","scope":"S","slot":7,"input":2,"packet":9,"copies":2,"cause":"fair_shed"}"#,
            r#"{"event":"admission_dropped","scope":"S","slot":8,"input":2,"packet":10,"copies":5,"cause":"tail_full"}"#,
            r#"{"event":"run_end","scope":"S","slots_run":9}"#,
        ];
        let a = analyze_trace(&(lines.join("\n") + "\n")).unwrap();
        let s = &a.scopes[0];
        assert_eq!(s.admission_drop_events, 2);
        assert_eq!(s.admission_copies_dropped, 7);
        // No drops in the baseline sample trace -> no overload block.
        let clean = analyze_trace(&sample_trace()).unwrap();
        let json = clean.scopes[0].to_json().to_string();
        assert!(!json.contains(r#""overload""#), "spurious block: {json}");
    }

    #[test]
    fn malformed_lines_are_structured_errors() {
        let cases: [(&str, &str); 4] = [
            ("{\"event\":\"run_end\",\"scope\":\"S\",\"slots_run\":1}\n{\"truncat", "line 2"),
            ("not json at all", "line 1"),
            (r#"{"scope":"S"}"#, "missing field `event`"),
            (
                r#"{"event":"copy_sent","scope":"S","slot":-3,"id":1,"output":0,"split":false}"#,
                "non-negative",
            ),
        ];
        for (text, needle) in cases {
            let err = analyze_trace(text).unwrap_err();
            assert!(err.contains(needle), "{err:?} missing {needle:?}");
        }
    }

    #[test]
    fn comparison_pairs_fanout_classes() {
        let a = analyze_trace(&sample_trace()).unwrap();
        let s = &a.scopes[0];
        let cmp = compare_scopes(s, s);
        assert_eq!(cmp.copies.0, cmp.copies.1);
        assert_eq!(cmp.transmissions.0, cmp.transmissions.1);
        for (_, l, r, d) in &cmp.fanout_delay {
            assert_eq!(l, r);
            assert_eq!(*d, 0.0);
        }
        let json = cmp.to_json();
        assert!(json.get("transmissions").is_some());
    }

    #[test]
    fn report_json_is_self_describing() {
        let a = analyze_trace(&sample_trace()).unwrap();
        let doc = a.to_json();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("fifoms-analysis-v1")
        );
        let scopes = doc.get("scopes").and_then(Json::as_arr).unwrap();
        assert_eq!(scopes.len(), 1);
        let reparsed = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(reparsed, doc);
    }
}

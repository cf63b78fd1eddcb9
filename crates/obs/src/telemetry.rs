//! Live telemetry: windowed per-run time-series and snapshot publishing.
//!
//! Everything post-hoc in this crate (JSONL traces, `analyze`, the span
//! profiler) answers *what happened*; this module answers *what is
//! happening*. The engine feeds a [`Telemetry`] instance from the slot
//! loop — existing [`ObsEvent`]s plus one integer-only `record_slot` call
//! per slot — and the accumulator closes a window every `stride` slots,
//! emitting an [`ObsEvent::WindowSummary`] and (optionally) publishing a
//! whole-campaign snapshot through a [`SnapshotBus`].
//!
//! Design constraints, in priority order (see `DESIGN.md` §14):
//!
//! 1. **Bit-identity.** Telemetry is read-only over events and counters
//!    the run already produces; attaching it never changes a result.
//! 2. **No steady-state allocation.** Window summaries are all-integer
//!    [`ObsEvent`]s, the closed-window ring is pre-sized and recycles its
//!    slots, and per-input tallies live in fixed vectors sized at
//!    construction. Snapshot publication copies counters into a buffer
//!    sized at the scope's first publication; the transient JSON is
//!    built on the [`SnapshotBus`]'s own thread.
//! 3. **No new dependencies.** Snapshots reuse the hand-rolled [`Json`];
//!    the Prometheus exposition is plain text.

use crate::json::Json;
use fifoms_stats::Log2Histogram;
use fifoms_types::{Checkpoint, DropCause, ObsEvent, PortId, StateError, StateReader, StateWriter};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How often the snapshot publisher looks for pending publications.
/// Plain publications do not wake it: a woken thread tends to be placed
/// on the waker's CPU, where its render would stall the slot loop that
/// published. Barriers wake it at once. The tick bounds the rewrite rate
/// at 100 a second and the snapshot's staleness at 10 ms.
const PUBLISH_TICK: Duration = Duration::from_millis(10);

/// Closed windows retained in the live ring by default. 64 windows at
/// the default stride of 1000 slots is a minute-scale trend view at
/// typical smoke speeds without unbounded growth on long campaigns.
pub const DEFAULT_RING: usize = 64;

/// The counters of one telemetry window. Mirrors
/// [`ObsEvent::WindowSummary`] field for field; kept as a plain struct so
/// the ring can store closed windows without heap indirection.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct WindowStats {
    /// Zero-based window index within the run.
    pub window: u64,
    /// First slot aggregated into this window.
    pub start_slot: u64,
    /// Slots aggregated so far (equals the stride once closed, except
    /// for a partial final window).
    pub slots: u64,
    /// Packets admitted this window.
    pub admitted_packets: u64,
    /// Copies delivered across the fabric this window.
    pub delivered_copies: u64,
    /// Packets whose final copy departed this window.
    pub completed_packets: u64,
    /// Copies refused by drop-tail admission.
    pub drop_tail_full: u64,
    /// Copies evicted by pushout.
    pub drop_pushout: u64,
    /// Copies shed by fair shedding.
    pub drop_fair_shed: u64,
    /// Copies killed at crosspoint traversal.
    pub copy_kills: u64,
    /// Killed copies that finally crossed the fabric.
    pub copy_recoveries: u64,
    /// Deepest VOQ high-water crossing observed this window.
    pub voq_high_water: u64,
    /// Backlog copies when the window closed.
    pub backlog_copies: u64,
    /// Quarantined `(input, output)` paths when the window closed.
    pub quarantined_paths: u32,
    /// Wall ns inside the scheduler's `run_slot` this window.
    pub sched_ns: u64,
    /// Wall ns of the whole slot loop this window.
    pub wall_ns: u64,
}

impl WindowStats {
    /// Render as the matching [`ObsEvent::WindowSummary`]. All-integer:
    /// constructing the event performs no heap allocation.
    pub fn to_event(&self) -> ObsEvent {
        ObsEvent::WindowSummary {
            window: self.window,
            start_slot: self.start_slot,
            slots: self.slots,
            admitted_packets: self.admitted_packets,
            delivered_copies: self.delivered_copies,
            completed_packets: self.completed_packets,
            drop_tail_full: self.drop_tail_full,
            drop_pushout: self.drop_pushout,
            drop_fair_shed: self.drop_fair_shed,
            copy_kills: self.copy_kills,
            copy_recoveries: self.copy_recoveries,
            voq_high_water: self.voq_high_water,
            backlog_copies: self.backlog_copies,
            quarantined_paths: self.quarantined_paths,
            sched_ns: self.sched_ns,
            wall_ns: self.wall_ns,
        }
    }

    /// Render as a JSON object (snapshot `windows[]` entry).
    fn to_json(self) -> Json {
        let mut obj = Json::object();
        obj.set("window", self.window);
        obj.set("start_slot", self.start_slot);
        obj.set("slots", self.slots);
        obj.set("admitted_packets", self.admitted_packets);
        obj.set("delivered_copies", self.delivered_copies);
        obj.set("completed_packets", self.completed_packets);
        obj.set("drop_tail_full", self.drop_tail_full);
        obj.set("drop_pushout", self.drop_pushout);
        obj.set("drop_fair_shed", self.drop_fair_shed);
        obj.set("copy_kills", self.copy_kills);
        obj.set("copy_recoveries", self.copy_recoveries);
        obj.set("voq_high_water", self.voq_high_water);
        obj.set("backlog_copies", self.backlog_copies);
        obj.set("quarantined_paths", u64::from(self.quarantined_paths));
        obj.set("sched_ns", self.sched_ns);
        obj.set("wall_ns", self.wall_ns);
        obj
    }
}

/// Per-input fault-scoreboard tallies, rendered in snapshots so `top`
/// can show which inputs are absorbing kills, drops and quarantines.
#[derive(Clone, Copy, Default, Debug)]
struct InputStats {
    kills: u64,
    recoveries: u64,
    admission_drops: u64,
    quarantined: u32,
}

/// The windowed time-series accumulator for one run.
///
/// Feed it every drained [`ObsEvent`] via [`Telemetry::observe_event`]
/// and one [`Telemetry::record_slot`] per slot; poll
/// [`Telemetry::window_full`] and call [`Telemetry::close_window`] when
/// it fires. After the run, [`Telemetry::finish`] closes a partial final
/// window. None of the per-slot calls allocate once constructed.
#[derive(Debug)]
pub struct Telemetry {
    ports: usize,
    stride: u64,
    ring_cap: usize,
    /// The currently accumulating window.
    cur: WindowStats,
    /// Closed windows, oldest first, capped at `ring_cap`.
    ring: VecDeque<WindowStats>,
    /// Run-wide totals. `window`/`start_slot` are unused; `slots` is the
    /// run's slot count, `voq_high_water` the run-wide deepest crossing,
    /// `backlog_copies`/`quarantined_paths` the latest observed values.
    totals: WindowStats,
    inputs: Vec<InputStats>,
    /// Per-slot wall-time distribution (telemetry-clocked slots).
    slot_ns: Log2Histogram,
}

impl Telemetry {
    /// A new accumulator for an `N`-port run closing a window every
    /// `stride` slots (`stride` is clamped to at least 1), with the
    /// default ring depth.
    pub fn new(ports: usize, stride: u64) -> Telemetry {
        Telemetry {
            ports,
            stride: stride.max(1),
            ring_cap: DEFAULT_RING,
            cur: WindowStats::default(),
            ring: VecDeque::with_capacity(DEFAULT_RING),
            totals: WindowStats::default(),
            inputs: vec![InputStats::default(); ports],
            slot_ns: Log2Histogram::new(),
        }
    }

    /// Override the closed-window ring depth (minimum 1).
    pub fn with_ring(mut self, cap: usize) -> Telemetry {
        self.ring_cap = cap.max(1);
        self.ring = VecDeque::with_capacity(self.ring_cap);
        self
    }

    /// Slots per window.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// The stream-opening [`ObsEvent::WindowMeta`] for this accumulator.
    pub fn meta_event(&self) -> ObsEvent {
        ObsEvent::WindowMeta {
            stride: self.stride,
            ring: self.ring_cap as u32,
            ports: self.ports as u32,
        }
    }

    /// Absorb one drained event into the current window. Events outside
    /// the telemetry vocabulary are ignored; the caller does not filter.
    pub fn observe_event(&mut self, event: &ObsEvent) {
        match event {
            ObsEvent::AdmissionDropped {
                input,
                copies,
                cause,
                ..
            } => {
                let copies = u64::from(*copies);
                match cause {
                    DropCause::TailFull => self.cur.drop_tail_full += copies,
                    DropCause::Pushout => self.cur.drop_pushout += copies,
                    DropCause::FairShed => self.cur.drop_fair_shed += copies,
                }
                if let Some(i) = self.inputs.get_mut(input.0 as usize) {
                    i.admission_drops += copies;
                }
            }
            ObsEvent::CopyKilled { input, .. } => {
                self.cur.copy_kills += 1;
                if let Some(i) = self.inputs.get_mut(input.0 as usize) {
                    i.kills += 1;
                }
            }
            ObsEvent::CopyRecovered { input, .. } => {
                self.cur.copy_recoveries += 1;
                if let Some(i) = self.inputs.get_mut(input.0 as usize) {
                    i.recoveries += 1;
                }
            }
            ObsEvent::VoqHighWater { depth, .. } => {
                self.cur.voq_high_water = self.cur.voq_high_water.max(*depth);
            }
            _ => {}
        }
    }

    /// Record one executed slot: packets admitted, copies delivered,
    /// packets completed, plus the slot's schedule-phase and wall ns
    /// (pass 0 when the caller does not time the slot).
    pub fn record_slot(
        &mut self,
        admitted_packets: u64,
        delivered_copies: u64,
        completed_packets: u64,
        sched_ns: u64,
        wall_ns: u64,
    ) {
        self.cur.slots += 1;
        self.cur.admitted_packets += admitted_packets;
        self.cur.delivered_copies += delivered_copies;
        self.cur.completed_packets += completed_packets;
        self.cur.sched_ns += sched_ns;
        self.cur.wall_ns += wall_ns;
        self.slot_ns.record(wall_ns);
    }

    /// Whether the current window has accumulated a full stride.
    pub fn window_full(&self) -> bool {
        self.cur.slots >= self.stride
    }

    /// Refresh the quarantine view from the fault scoreboard's current
    /// `(input, output)` path list. Called at window close, not per slot.
    pub fn set_path_state(&mut self, quarantined: &[(PortId, PortId)]) {
        for i in &mut self.inputs {
            i.quarantined = 0;
        }
        for (input, _) in quarantined {
            if let Some(i) = self.inputs.get_mut(input.0 as usize) {
                i.quarantined += 1;
            }
        }
        self.cur.quarantined_paths = quarantined.len() as u32;
    }

    /// Close the current window: fold it into the totals, push it onto
    /// the ring (evicting the oldest at capacity — no allocation), and
    /// return its [`ObsEvent::WindowSummary`].
    pub fn close_window(&mut self, backlog_copies: u64) -> ObsEvent {
        self.cur.backlog_copies = backlog_copies;
        let closed = self.cur;

        self.totals.slots += closed.slots;
        self.totals.admitted_packets += closed.admitted_packets;
        self.totals.delivered_copies += closed.delivered_copies;
        self.totals.completed_packets += closed.completed_packets;
        self.totals.drop_tail_full += closed.drop_tail_full;
        self.totals.drop_pushout += closed.drop_pushout;
        self.totals.drop_fair_shed += closed.drop_fair_shed;
        self.totals.copy_kills += closed.copy_kills;
        self.totals.copy_recoveries += closed.copy_recoveries;
        self.totals.sched_ns += closed.sched_ns;
        self.totals.wall_ns += closed.wall_ns;
        self.totals.voq_high_water = self.totals.voq_high_water.max(closed.voq_high_water);
        self.totals.backlog_copies = closed.backlog_copies;
        self.totals.quarantined_paths = closed.quarantined_paths;

        if self.ring.len() == self.ring_cap {
            self.ring.pop_front();
        }
        self.ring.push_back(closed);

        self.cur = WindowStats {
            window: closed.window + 1,
            start_slot: closed.start_slot + closed.slots,
            ..WindowStats::default()
        };
        closed.to_event()
    }

    /// Close a partial final window at end-of-run, if anything is
    /// pending. Returns the summary to emit, or `None` when the run
    /// ended exactly on a window boundary with nothing since. A window
    /// with zero slots but nonzero counters (events drained during
    /// teardown, after the last `record_slot`) is still closed, so no
    /// event is lost from the windowed totals.
    pub fn finish(&mut self, backlog_copies: u64) -> Option<ObsEvent> {
        let untouched = WindowStats {
            window: self.cur.window,
            start_slot: self.cur.start_slot,
            ..WindowStats::default()
        };
        if self.cur == untouched {
            return None;
        }
        Some(self.close_window(backlog_copies))
    }

    /// Closed windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &WindowStats> {
        self.ring.iter()
    }

    /// Run-wide totals across all closed windows.
    pub fn totals(&self) -> &WindowStats {
        &self.totals
    }

    /// The per-slot wall-time distribution.
    pub fn slot_ns(&self) -> &Log2Histogram {
        &self.slot_ns
    }

    /// Render the accumulator as one scope document of a
    /// `fifoms-telemetry-snapshot-v1` snapshot. Allocates; the slot loop
    /// never calls it (a [`SnapshotBus`] renders on its own thread).
    pub fn snapshot(&self, complete: bool) -> Json {
        let mut counters = ScopeCounters::default();
        counters.copy_from(self, complete);
        counters.to_json()
    }
}

/// One scope's counters as of its latest publication: everything
/// [`Telemetry::snapshot`] reads, copied out of the accumulator so the
/// bus's publisher thread can render them while the run goes on.
#[derive(Clone, Default)]
struct ScopeCounters {
    /// Bus sequence number of this scope's latest publication.
    seq: u64,
    complete: bool,
    ports: usize,
    stride: u64,
    totals: WindowStats,
    windows: Vec<WindowStats>,
    inputs: Vec<InputStats>,
    slot_ns: Log2Histogram,
}

impl ScopeCounters {
    /// Overwrite with `t`'s current state. The vectors keep their
    /// capacity (the window buffer is sized to the whole ring on the first
    /// copy), so every copy after the first allocates nothing.
    fn copy_from(&mut self, t: &Telemetry, complete: bool) {
        self.complete = complete;
        self.ports = t.ports;
        self.stride = t.stride;
        self.totals = t.totals;
        self.windows.clear();
        self.windows.reserve(t.ring_cap);
        self.windows.extend(t.ring.iter().copied());
        self.inputs.clear();
        self.inputs.extend_from_slice(&t.inputs);
        self.slot_ns = t.slot_ns.clone();
    }

    /// Render as one scope document, without its `seq`.
    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("complete", self.complete);
        obj.set("ports", self.ports as u64);
        obj.set("stride", self.stride);
        obj.set("slots", self.totals.slots);

        let mut totals = Json::object();
        totals.set("admitted_packets", self.totals.admitted_packets);
        totals.set("delivered_copies", self.totals.delivered_copies);
        totals.set("completed_packets", self.totals.completed_packets);
        totals.set("drop_tail_full", self.totals.drop_tail_full);
        totals.set("drop_pushout", self.totals.drop_pushout);
        totals.set("drop_fair_shed", self.totals.drop_fair_shed);
        totals.set("copy_kills", self.totals.copy_kills);
        totals.set("copy_recoveries", self.totals.copy_recoveries);
        totals.set("sched_ns", self.totals.sched_ns);
        totals.set("wall_ns", self.totals.wall_ns);
        obj.set("totals", totals);

        obj.set("backlog_copies", self.totals.backlog_copies);
        obj.set("voq_high_water", self.totals.voq_high_water);
        obj.set(
            "quarantined_paths",
            u64::from(self.totals.quarantined_paths),
        );

        let mut tail = Json::object();
        tail.set("samples", self.slot_ns.count());
        tail.set("p50_ns", self.slot_ns.quantile(0.50));
        tail.set("p99_ns", self.slot_ns.quantile(0.99));
        tail.set("p999_ns", self.slot_ns.quantile(0.999));
        tail.set("max_ns", self.slot_ns.max());
        obj.set("slot_ns", tail);

        obj.set(
            "windows",
            Json::Arr(self.windows.iter().map(|w| w.to_json()).collect()),
        );
        obj.set(
            "inputs",
            Json::Arr(
                self.inputs
                    .iter()
                    .enumerate()
                    .map(|(idx, i)| {
                        let mut row = Json::object();
                        row.set("input", idx as u64);
                        row.set("kills", i.kills);
                        row.set("recoveries", i.recoveries);
                        row.set("admission_drops", i.admission_drops);
                        row.set("quarantined", u64::from(i.quarantined));
                        row
                    })
                    .collect(),
            ),
        );
        obj
    }
}

fn put_window(w: &mut StateWriter, ws: &WindowStats) {
    w.put_u64(ws.window);
    w.put_u64(ws.start_slot);
    w.put_u64(ws.slots);
    w.put_u64(ws.admitted_packets);
    w.put_u64(ws.delivered_copies);
    w.put_u64(ws.completed_packets);
    w.put_u64(ws.drop_tail_full);
    w.put_u64(ws.drop_pushout);
    w.put_u64(ws.drop_fair_shed);
    w.put_u64(ws.copy_kills);
    w.put_u64(ws.copy_recoveries);
    w.put_u64(ws.voq_high_water);
    w.put_u64(ws.backlog_copies);
    w.put_u32(ws.quarantined_paths);
    w.put_u64(ws.sched_ns);
    w.put_u64(ws.wall_ns);
}

fn get_window(r: &mut StateReader<'_>) -> Result<WindowStats, StateError> {
    Ok(WindowStats {
        window: r.get_u64()?,
        start_slot: r.get_u64()?,
        slots: r.get_u64()?,
        admitted_packets: r.get_u64()?,
        delivered_copies: r.get_u64()?,
        completed_packets: r.get_u64()?,
        drop_tail_full: r.get_u64()?,
        drop_pushout: r.get_u64()?,
        drop_fair_shed: r.get_u64()?,
        copy_kills: r.get_u64()?,
        copy_recoveries: r.get_u64()?,
        voq_high_water: r.get_u64()?,
        backlog_copies: r.get_u64()?,
        quarantined_paths: r.get_u32()?,
        sched_ns: r.get_u64()?,
        wall_ns: r.get_u64()?,
    })
}

impl Checkpoint for Telemetry {
    fn state_kind(&self) -> &'static str {
        "telemetry"
    }

    /// Version 2 removed the overload-governor level from each window.
    fn state_version(&self) -> u16 {
        2
    }

    fn write_state(&self, w: &mut StateWriter) {
        // `ports`, `stride` and `ring_cap` are configuration (rebuilt by
        // the caller); everything accumulated is state.
        put_window(w, &self.cur);
        w.put_usize(self.ring.len());
        for ws in &self.ring {
            put_window(w, ws);
        }
        put_window(w, &self.totals);
        w.put_usize(self.inputs.len());
        for i in &self.inputs {
            w.put_u64(i.kills);
            w.put_u64(i.recoveries);
            w.put_u64(i.admission_drops);
            w.put_u32(i.quarantined);
        }
        self.slot_ns.write_state(w);
    }

    fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.cur = get_window(r)?;
        let ring_len = r.get_usize()?;
        if ring_len > self.ring_cap {
            return Err(StateError::Malformed {
                what: format!("ring holds {ring_len} windows, cap is {}", self.ring_cap),
            });
        }
        self.ring.clear();
        for _ in 0..ring_len {
            self.ring.push_back(get_window(r)?);
        }
        self.totals = get_window(r)?;
        let inputs = r.get_usize()?;
        if inputs != self.inputs.len() {
            return Err(StateError::Malformed {
                what: format!(
                    "telemetry has {} inputs, snapshot has {inputs}",
                    self.inputs.len()
                ),
            });
        }
        for i in &mut self.inputs {
            i.kills = r.get_u64()?;
            i.recoveries = r.get_u64()?;
            i.admission_drops = r.get_u64()?;
            i.quarantined = r.get_u32()?;
        }
        self.slot_ns.read_state(r)
    }
}

/// Shared publisher for live snapshots: collects the latest per-scope
/// telemetry and keeps a `fifoms-telemetry-snapshot-v1` JSON file (and,
/// optionally, a Prometheus-style text exposition) current, rewriting
/// each atomically.
///
/// Publication is a hand-off (DESIGN.md §14). [`SnapshotBus::publish`]
/// copies the scope's counters into a buffer the bus owns and returns; a
/// publisher thread, spawned at the first publication, picks them up on
/// its next tick, renders both documents and writes the files. When
/// publications outpace the writes, the thread renders only the newest
/// state of each scope. A `complete` publication,
/// [`SnapshotBus::write_errors`] and [`SnapshotBus::document`] are
/// barriers: each wakes the thread and returns once a finished write
/// contains every publication made before it. Dropping the bus writes
/// anything pending and joins the thread.
///
/// The bus is `Sync` — sweep workers running different cells publish
/// concurrently behind one `Arc`. The top-level `seq` counts
/// publications, and each scope carries the `seq` of its latest one (no
/// wall-clock timestamps: snapshots from the same campaign replay
/// byte-identically).
pub struct SnapshotBus {
    shared: Arc<Shared>,
}

/// What the publishing callers and the publisher thread share.
struct Shared {
    snapshot_path: Option<PathBuf>,
    prom_path: Option<PathBuf>,
    state: Mutex<BusState>,
    /// Wakes the publisher: a barrier is waiting or the bus is closing.
    work: Condvar,
    /// Wakes barrier waiters: a write finished or the publisher stopped.
    done: Condvar,
}

#[derive(Default)]
struct BusState {
    /// Publications so far.
    seq: u64,
    /// The highest `seq` that a finished write contains.
    written: u64,
    scopes: BTreeMap<String, ScopeCounters>,
    write_errors: u64,
    /// The publisher thread, once spawned.
    publisher: Option<JoinHandle<()>>,
    /// Whether the publisher is serving; barriers stop waiting once it is
    /// not, so a failed spawn or a dead thread never blocks a caller.
    running: bool,
    /// Set by `Drop`: the publisher writes what is pending, then exits.
    closing: bool,
}

impl SnapshotBus {
    /// A bus writing the JSON snapshot to `snapshot_path` and/or the
    /// Prometheus exposition to `prom_path` after publications.
    pub fn new(snapshot_path: Option<PathBuf>, prom_path: Option<PathBuf>) -> SnapshotBus {
        SnapshotBus {
            shared: Arc::new(Shared {
                snapshot_path,
                prom_path,
                state: Mutex::default(),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
        }
    }

    /// Publish the current state of one scope's telemetry: copy its
    /// counters for the publisher thread and return. No rendering, no
    /// file I/O and no wake-up happen here, and after the scope's first
    /// publication no allocation either. A `complete` publication also
    /// waits until a finished write contains it. Failures are counted in
    /// [`SnapshotBus::write_errors`], never propagated (telemetry must
    /// not abort a campaign).
    pub fn publish(&self, scope: &str, telemetry: &Telemetry, complete: bool) {
        let mut st = self.shared.lock();
        st.seq += 1;
        let seq = st.seq;
        let fill = |counters: &mut ScopeCounters| {
            counters.copy_from(telemetry, complete);
            counters.seq = seq;
        };
        match st.scopes.get_mut(scope) {
            Some(counters) => fill(counters),
            None => {
                let mut counters = ScopeCounters::default();
                fill(&mut counters);
                st.scopes.insert(scope.to_string(), counters);
            }
        }
        if !st.running {
            self.spawn_publisher(&mut st);
        }
        if complete {
            drop(self.shared.settle(st, seq));
        }
    }

    fn spawn_publisher(&self, st: &mut BusState) {
        if let Some(stopped) = st.publisher.take() {
            // It panicked and has already counted that as a write error.
            let _ = stopped.join();
        }
        let shared = Arc::clone(&self.shared);
        let spawned = thread::Builder::new()
            .name("snapshot-publisher".into())
            .spawn(move || shared.run_publisher());
        match spawned {
            Ok(handle) => {
                st.publisher = Some(handle);
                st.running = true;
            }
            Err(_) => st.write_errors += 1,
        }
    }

    /// File writes that failed so far, once every publication made before
    /// the call is written.
    pub fn write_errors(&self) -> u64 {
        let st = self.shared.lock();
        let seq = st.seq;
        self.shared.settle(st, seq).write_errors
    }

    /// The current snapshot document: what the files contain once every
    /// publication made before the call is written, which this waits for.
    pub fn document(&self) -> Json {
        let st = self.shared.lock();
        let seq = st.seq;
        let st = self.shared.settle(st, seq);
        let (seq, scopes) = (st.seq, st.scopes.clone());
        drop(st);
        render_document(seq, &scopes)
    }
}

impl Drop for SnapshotBus {
    fn drop(&mut self) {
        let publisher = {
            let mut st = self.shared.lock();
            st.closing = true;
            self.shared.work.notify_one();
            st.publisher.take()
        };
        if let Some(handle) = publisher {
            // A panicked publisher was already counted as a write error.
            let _ = handle.join();
        }
    }
}

impl Shared {
    /// Lock the bus state. A lock poisoned by a panicking holder is
    /// recovered and counted as a write error: every update made under
    /// the lock leaves the state valid at each step.
    fn lock(&self) -> MutexGuard<'_, BusState> {
        self.state
            .lock()
            .unwrap_or_else(|p| self.recovered(p.into_inner()))
    }

    /// Wait on `cv` for at most one tick; callers re-check their
    /// condition, so a missed signal costs a tick, never a hang.
    fn wait<'a>(&self, cv: &Condvar, st: MutexGuard<'a, BusState>) -> MutexGuard<'a, BusState> {
        cv.wait_timeout(st, PUBLISH_TICK)
            .map(|(st, _)| st)
            .unwrap_or_else(|p| self.recovered(p.into_inner().0))
    }

    fn recovered<'a>(&self, mut st: MutexGuard<'a, BusState>) -> MutexGuard<'a, BusState> {
        self.state.clear_poison();
        st.write_errors += 1;
        st
    }

    /// Wake the publisher and wait until a finished write contains
    /// publication `seq`, or until no publisher is running to make one.
    fn settle<'a>(&self, mut st: MutexGuard<'a, BusState>, seq: u64) -> MutexGuard<'a, BusState> {
        self.work.notify_one();
        while st.running && st.written < seq {
            st = self.wait(&self.done, st);
        }
        st
    }

    /// The publisher thread: once a tick, or when woken, copy the scopes
    /// that changed since its last write, render and write outside the
    /// lock, and repeat. Once the bus is closing and nothing is pending,
    /// exit.
    fn run_publisher(&self) {
        let _stop = PublisherStop(self);
        let mut scopes: BTreeMap<String, ScopeCounters> = BTreeMap::new();
        loop {
            let seq = {
                let mut st = self.lock();
                while st.written == st.seq && !st.closing {
                    st = self.wait(&self.work, st);
                }
                if st.written == st.seq {
                    return;
                }
                for (name, counters) in &st.scopes {
                    match scopes.get_mut(name) {
                        Some(mine) if mine.seq == counters.seq => {}
                        Some(mine) => mine.clone_from(counters),
                        None => {
                            scopes.insert(name.clone(), counters.clone());
                        }
                    }
                }
                st.seq
            };
            let failed = self.write_files(seq, &scopes);
            let mut st = self.lock();
            st.written = seq;
            st.write_errors += failed;
            self.done.notify_all();
        }
    }

    /// Render the document for `seq` and write each configured file
    /// atomically. Returns the number of failed writes.
    fn write_files(&self, seq: u64, scopes: &BTreeMap<String, ScopeCounters>) -> u64 {
        let doc = render_document(seq, scopes);
        let mut failed = 0;
        if let Some(path) = &self.snapshot_path {
            failed += u64::from(write_atomically(path, doc.to_string().as_bytes()).is_err());
        }
        if let Some(path) = &self.prom_path {
            let text = render_prometheus(&doc);
            failed += u64::from(write_atomically(path, text.as_bytes()).is_err());
        }
        failed
    }
}

/// Marks the publisher stopped when its thread exits, normally or by
/// panic, and wakes every barrier waiter so that none waits forever.
struct PublisherStop<'a>(&'a Shared);

impl Drop for PublisherStop<'_> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.running = false;
        if thread::panicking() {
            st.write_errors += 1;
        }
        self.0.done.notify_all();
    }
}

/// The `fifoms-telemetry-snapshot-v1` document: the bus `seq`, then each
/// scope in name order, tagged with the `seq` of its latest publication.
fn render_document(seq: u64, scopes: &BTreeMap<String, ScopeCounters>) -> Json {
    let mut doc = Json::object();
    doc.set("schema", "fifoms-telemetry-snapshot-v1");
    doc.set("seq", seq);
    let scopes = scopes
        .iter()
        .map(|(name, counters)| {
            let mut body = counters.to_json();
            body.set("seq", counters.seq);
            (name.clone(), body)
        })
        .collect();
    doc.set("scopes", Json::Obj(scopes));
    doc
}

/// Write `bytes` to `path` via a sibling `<path>.tmp` file and an atomic
/// rename, so a concurrent reader never observes a torn file. Shared by
/// the snapshot bus and the crash-recovery checkpoint writer; both leave
/// at most one orphaned `.tmp` sibling when killed mid-write, which
/// [`sweep_stale_tmp`] removes on the next startup.
pub fn write_atomically(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
    }
    std::fs::rename(&tmp, path)
}

/// Remove orphaned `*.tmp` files (torn [`write_atomically`] writes from a
/// killed process) directly inside `dir`. Returns the number removed.
/// Best-effort: unreadable directories and failed removals are skipped —
/// a stale temp file is cosmetic, never load-bearing, because readers only
/// ever open the rename target.
pub fn sweep_stale_tmp(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        let is_tmp = path.extension().is_some_and(|e| e == "tmp");
        if is_tmp && path.is_file() && std::fs::remove_file(&path).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// Escape a Prometheus label value: backslash, double quote, newline.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Format a JSON number the way Prometheus expects: integers without a
/// trailing `.0`, everything else as plain decimal.
fn prom_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Render a `fifoms-telemetry-snapshot-v1` document as a Prometheus-style
/// text exposition (version 0.0.4 format): `# HELP`/`# TYPE` headers per
/// metric family, one sample per scope, labels on the `scope` dimension.
pub fn render_prometheus(doc: &Json) -> String {
    let scopes: Vec<(&str, &Json)> = match doc.get("scopes") {
        Some(Json::Obj(entries)) => entries
            .iter()
            .map(|(name, body)| (name.as_str(), body))
            .collect(),
        _ => Vec::new(),
    };
    let mut out = String::new();

    let num = |body: &Json, path: &[&str]| -> f64 {
        let mut cur = body;
        for key in path {
            match cur.get(key) {
                Some(next) => cur = next,
                None => return 0.0,
            }
        }
        cur.as_f64().unwrap_or(0.0)
    };

    struct Family<'a> {
        name: &'a str,
        kind: &'a str,
        help: &'a str,
        path: &'a [&'a str],
    }
    let families = [
        Family {
            name: "fifoms_slots_total",
            kind: "counter",
            help: "Slots executed.",
            path: &["slots"],
        },
        Family {
            name: "fifoms_admitted_packets_total",
            kind: "counter",
            help: "Packets admitted.",
            path: &["totals", "admitted_packets"],
        },
        Family {
            name: "fifoms_delivered_copies_total",
            kind: "counter",
            help: "Copies delivered across the fabric.",
            path: &["totals", "delivered_copies"],
        },
        Family {
            name: "fifoms_completed_packets_total",
            kind: "counter",
            help: "Packets whose final copy departed.",
            path: &["totals", "completed_packets"],
        },
        Family {
            name: "fifoms_copy_kills_total",
            kind: "counter",
            help: "Copies killed at crosspoint traversal.",
            path: &["totals", "copy_kills"],
        },
        Family {
            name: "fifoms_copy_recoveries_total",
            kind: "counter",
            help: "Killed copies eventually delivered.",
            path: &["totals", "copy_recoveries"],
        },
        Family {
            name: "fifoms_backlog_copies",
            kind: "gauge",
            help: "Undelivered copies queued at the latest window close.",
            path: &["backlog_copies"],
        },
        Family {
            name: "fifoms_voq_high_water",
            kind: "gauge",
            help: "Deepest VOQ high-water crossing observed.",
            path: &["voq_high_water"],
        },
        Family {
            name: "fifoms_quarantined_paths",
            kind: "gauge",
            help: "Paths quarantined by the fault scoreboard.",
            path: &["quarantined_paths"],
        },
        Family {
            name: "fifoms_run_complete",
            kind: "gauge",
            help: "1 once the scope's run has finished.",
            path: &["complete"],
        },
    ];
    for f in &families {
        out.push_str(&format!("# HELP {} {}\n", f.name, f.help));
        out.push_str(&format!("# TYPE {} {}\n", f.name, f.kind));
        for (scope, body) in &scopes {
            let value = if f.path == ["complete"] {
                match body.get("complete") {
                    Some(Json::Bool(true)) => 1.0,
                    _ => 0.0,
                }
            } else {
                num(body, f.path)
            };
            out.push_str(&format!(
                "{}{{scope=\"{}\"}} {}\n",
                f.name,
                escape_label(scope),
                prom_num(value)
            ));
        }
    }

    // Admission drops: one family, labelled by cause.
    out.push_str("# HELP fifoms_admission_drops_total Copies refused or evicted by admission control.\n");
    out.push_str("# TYPE fifoms_admission_drops_total counter\n");
    for (scope, body) in &scopes {
        for (cause, key) in [
            ("tail_full", "drop_tail_full"),
            ("pushout", "drop_pushout"),
            ("fair_shed", "drop_fair_shed"),
        ] {
            out.push_str(&format!(
                "fifoms_admission_drops_total{{scope=\"{}\",cause=\"{}\"}} {}\n",
                escape_label(scope),
                cause,
                prom_num(num(body, &["totals", key]))
            ));
        }
    }

    // Slot wall-time tails as a quantile-labelled summary.
    out.push_str("# HELP fifoms_slot_ns Per-slot wall time, log2-bucketed quantiles (ns).\n");
    out.push_str("# TYPE fifoms_slot_ns summary\n");
    for (scope, body) in &scopes {
        for (q, key) in [("0.5", "p50_ns"), ("0.99", "p99_ns"), ("0.999", "p999_ns")] {
            out.push_str(&format!(
                "fifoms_slot_ns{{scope=\"{}\",quantile=\"{}\"}} {}\n",
                escape_label(scope),
                q,
                prom_num(num(body, &["slot_ns", key]))
            ));
        }
        out.push_str(&format!(
            "fifoms_slot_ns_count{{scope=\"{}\"}} {}\n",
            escape_label(scope),
            prom_num(num(body, &["slot_ns", "samples"]))
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fifoms_types::{PacketId, Slot};

    fn drop_event(cause: DropCause, copies: u32) -> ObsEvent {
        ObsEvent::AdmissionDropped {
            slot: Slot(1),
            input: PortId(2),
            packet: PacketId(1),
            copies,
            cause,
        }
    }

    #[test]
    fn windows_close_on_stride_and_sum_into_totals() {
        let mut t = Telemetry::new(4, 3);
        assert_eq!(t.stride(), 3);
        for slot in 0..7u64 {
            t.observe_event(&drop_event(DropCause::TailFull, 2));
            t.record_slot(1, 2, 1, 10, 20);
            if t.window_full() {
                let ev = t.close_window(5);
                assert_eq!(ev.kind(), "window_summary");
            }
            let _ = slot;
        }
        // 7 slots at stride 3: two closed windows, one partial pending.
        assert_eq!(t.windows().count(), 2);
        let final_ev = t.finish(9).expect("partial window pending");
        if let ObsEvent::WindowSummary { slots, window, start_slot, .. } = final_ev {
            assert_eq!(slots, 1);
            assert_eq!(window, 2);
            assert_eq!(start_slot, 6);
        } else {
            panic!("finish must return a window_summary");
        }
        assert!(t.finish(9).is_none(), "no second partial window");
        let totals = t.totals();
        assert_eq!(totals.slots, 7);
        assert_eq!(totals.admitted_packets, 7);
        assert_eq!(totals.delivered_copies, 14);
        assert_eq!(totals.drop_tail_full, 14);
        assert_eq!(totals.backlog_copies, 9);
        assert_eq!(t.slot_ns().count(), 7);
    }

    #[test]
    fn checkpoint_round_trip_is_bit_identical() {
        let mut original = Telemetry::new(4, 3).with_ring(5);
        for slot in 0..17u64 {
            original.observe_event(&drop_event(DropCause::TailFull, 2));
            if slot % 4 == 0 {
                original.observe_event(&drop_event(DropCause::Pushout, 1));
            }
            original.record_slot(1, 2, 1, 10 + slot, 20 + slot);
            if original.window_full() {
                let _ = original.close_window(slot);
            }
        }
        let blob = Checkpoint::snapshot_state(&original);
        let mut twin = Telemetry::new(4, 3).with_ring(5);
        twin.restore_state(&blob).expect("restore");
        assert_eq!(Checkpoint::snapshot_state(&twin), blob);
        // Both continue identically, including the partial window.
        for slot in 17..30u64 {
            for t in [&mut original, &mut twin] {
                t.observe_event(&drop_event(DropCause::FairShed, 3));
                t.record_slot(2, 1, 0, 5, 7);
                if t.window_full() {
                    let _ = t.close_window(slot);
                }
            }
        }
        assert_eq!(
            Checkpoint::snapshot_state(&original),
            Checkpoint::snapshot_state(&twin)
        );
        assert_eq!(original.totals(), twin.totals());
    }

    #[test]
    fn checkpoint_restore_rejects_port_mismatch() {
        let small = Telemetry::new(2, 3);
        let blob = Checkpoint::snapshot_state(&small);
        let mut big = Telemetry::new(4, 3);
        assert!(matches!(
            big.restore_state(&blob),
            Err(StateError::Malformed { .. })
        ));
    }

    #[test]
    fn stale_tmp_sweep_removes_only_orphaned_temp_files() {
        let dir = std::env::temp_dir().join("fifoms-tmp-sweep-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("snapshot.json"), b"{}").unwrap();
        std::fs::write(dir.join("snapshot.json.tmp"), b"torn").unwrap();
        std::fs::write(dir.join("ckpt.bin.tmp"), b"torn").unwrap();
        std::fs::create_dir_all(dir.join("nested.tmp")).unwrap();
        assert_eq!(sweep_stale_tmp(&dir), 2);
        assert!(dir.join("snapshot.json").exists(), "real file kept");
        assert!(dir.join("nested.tmp").exists(), "directories kept");
        assert!(!dir.join("snapshot.json.tmp").exists());
        assert_eq!(sweep_stale_tmp(&dir), 0, "sweep is idempotent");
        assert_eq!(sweep_stale_tmp(&dir.join("missing")), 0);
    }

    #[test]
    fn atomic_writes_replace_the_whole_file_and_leave_no_temp() {
        let dir = std::env::temp_dir().join(format!("fifoms-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        write_atomically(&path, b"a longer first version").unwrap();
        write_atomically(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!dir.join("state.json.tmp").exists());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        // No directory to write into: the error surfaces and nothing
        // appears at the target.
        let missing = dir.join("missing").join("state.json");
        let err = write_atomically(&missing, b"x").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
        assert!(!missing.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_and_window_events_mirror_the_accumulator() {
        let t = Telemetry::new(4, 0).with_ring(0);
        assert_eq!(
            t.meta_event(),
            ObsEvent::WindowMeta {
                stride: 1,
                ring: 1,
                ports: 4
            }
        );
        let mut t = Telemetry::new(4, 2).with_ring(3);
        t.observe_event(&drop_event(DropCause::Pushout, 3));
        t.record_slot(5, 4, 2, 100, 250);
        t.record_slot(1, 0, 0, 30, 40);
        let closed = t.close_window(17);
        let window = t.windows().last().expect("one closed window");
        assert_eq!(window.to_event(), closed);
        assert_eq!(
            closed,
            ObsEvent::WindowSummary {
                window: 0,
                start_slot: 0,
                slots: 2,
                admitted_packets: 6,
                delivered_copies: 4,
                completed_packets: 2,
                drop_tail_full: 0,
                drop_pushout: 3,
                drop_fair_shed: 0,
                copy_kills: 0,
                copy_recoveries: 0,
                voq_high_water: 0,
                backlog_copies: 17,
                quarantined_paths: 0,
                sched_ns: 130,
                wall_ns: 290,
            }
        );
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_newest_windows() {
        let mut t = Telemetry::new(2, 1).with_ring(3);
        for i in 0..10u64 {
            t.record_slot(i, 0, 0, 0, 0);
            let _ = t.close_window(0);
        }
        let windows: Vec<u64> = t.windows().map(|w| w.window).collect();
        assert_eq!(windows, vec![7, 8, 9]);
        assert_eq!(t.totals().slots, 10);
    }

    #[test]
    fn events_split_by_cause_input_and_kind() {
        let mut t = Telemetry::new(4, 10);
        t.observe_event(&drop_event(DropCause::TailFull, 1));
        t.observe_event(&drop_event(DropCause::Pushout, 2));
        t.observe_event(&drop_event(DropCause::FairShed, 3));
        t.observe_event(&ObsEvent::CopyKilled {
            slot: Slot(0),
            input: PortId(1),
            output: PortId(0),
            packet: PacketId(5),
            requeued: true,
            retry: 1,
        });
        t.observe_event(&ObsEvent::CopyRecovered {
            slot: Slot(2),
            input: PortId(1),
            output: PortId(0),
            packet: PacketId(5),
            kills: 1,
            latency: 2,
        });
        t.observe_event(&ObsEvent::VoqHighWater {
            slot: Slot(3),
            input: PortId(0),
            output: PortId(1),
            depth: 77,
        });
        // Events outside the vocabulary are ignored.
        t.observe_event(&ObsEvent::RunEnd { slots_run: 1 });
        t.set_path_state(&[(PortId(1), PortId(0)), (PortId(1), PortId(2))]);
        t.record_slot(0, 0, 0, 0, 0);
        let ev = t.finish(0).expect("one pending window");
        if let ObsEvent::WindowSummary {
            drop_tail_full,
            drop_pushout,
            drop_fair_shed,
            copy_kills,
            copy_recoveries,
            voq_high_water,
            quarantined_paths,
            ..
        } = ev
        {
            assert_eq!(drop_tail_full, 1);
            assert_eq!(drop_pushout, 2);
            assert_eq!(drop_fair_shed, 3);
            assert_eq!(copy_kills, 1);
            assert_eq!(copy_recoveries, 1);
            assert_eq!(voq_high_water, 77);
            assert_eq!(quarantined_paths, 2);
        } else {
            panic!("expected window_summary");
        }
        let snap = t.snapshot(true);
        let inputs = snap.get("inputs").and_then(Json::as_arr).unwrap();
        assert_eq!(inputs.len(), 4);
        assert_eq!(
            inputs[1].get("kills").and_then(Json::as_f64),
            Some(1.0),
            "input 1 absorbed the kill"
        );
        assert_eq!(
            inputs[1].get("quarantined").and_then(Json::as_f64),
            Some(2.0)
        );
        assert_eq!(
            inputs[2].get("admission_drops").and_then(Json::as_f64),
            Some(6.0),
            "all drop events targeted input 2"
        );
    }

    #[test]
    fn snapshot_bus_writes_schema_valid_documents_atomically() {
        let dir = std::env::temp_dir().join(format!(
            "fifoms-telemetry-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let snap_path = dir.join("snap.json");
        let prom_path = dir.join("metrics.prom");
        let bus = SnapshotBus::new(Some(snap_path.clone()), Some(prom_path.clone()));

        let mut t = Telemetry::new(2, 2);
        t.record_slot(3, 6, 3, 100, 200);
        t.record_slot(2, 4, 2, 100, 200);
        let _ = t.close_window(1);
        bus.publish("FIFOMS@0.9", &t, false);
        bus.publish("FIFOMS@0.9", &t, true);
        assert_eq!(bus.write_errors(), 0);

        let text = std::fs::read_to_string(&snap_path).unwrap();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("fifoms-telemetry-snapshot-v1")
        );
        assert_eq!(doc.get("seq").and_then(Json::as_f64), Some(2.0));
        let scope = doc.get("scopes").and_then(|s| s.get("FIFOMS@0.9")).unwrap();
        assert_eq!(scope.get("complete"), Some(&Json::Bool(true)));
        assert_eq!(scope.get("slots").and_then(Json::as_f64), Some(2.0));

        let prom = std::fs::read_to_string(&prom_path).unwrap();
        assert!(prom.contains("# TYPE fifoms_slots_total counter"));
        assert!(prom.contains("fifoms_slots_total{scope=\"FIFOMS@0.9\"} 2"));
        assert!(prom.contains("fifoms_run_complete{scope=\"FIFOMS@0.9\"} 1"));
        assert!(prom.contains("fifoms_admission_drops_total{scope=\"FIFOMS@0.9\",cause=\"tail_full\"} 0"));

        std::fs::remove_dir_all(&dir).ok();
    }

    /// A fresh directory for one bus test.
    fn bus_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fifoms-bus-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Parse the snapshot file as it is on disk right now.
    fn read_snapshot(path: &Path) -> Json {
        Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn num(doc: &Json, path: &[&str]) -> Option<f64> {
        let mut cur = doc;
        for key in path {
            cur = cur.get(key)?;
        }
        cur.as_f64()
    }

    #[test]
    fn complete_publication_is_on_disk_when_publish_returns() {
        let dir = bus_dir("complete");
        let snap = dir.join("snap.json");
        let bus = SnapshotBus::new(Some(snap.clone()), Some(dir.join("metrics.prom")));
        let mut t = Telemetry::new(2, 1);
        for slot in 1..=30u64 {
            t.record_slot(1, 1, 1, 0, 0);
            let _ = t.close_window(0);
            bus.publish("cell", &t, false);
            if slot % 10 == 0 {
                bus.publish("cell", &t, true);
                // No write_errors() first: the complete publication itself
                // is the barrier.
                let doc = read_snapshot(&snap);
                let seq = (slot + slot / 10) as f64;
                assert_eq!(num(&doc, &["seq"]), Some(seq));
                assert_eq!(num(&doc, &["scopes", "cell", "seq"]), Some(seq));
                assert_eq!(num(&doc, &["scopes", "cell", "slots"]), Some(slot as f64));
                let scope = doc.get("scopes").and_then(|s| s.get("cell")).unwrap();
                assert_eq!(scope.get("complete"), Some(&Json::Bool(true)));
            }
        }
        assert_eq!(bus.write_errors(), 0);
        drop(bus);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_publishers_coalesce_into_one_consistent_document() {
        const THREADS: usize = 4;
        const PUBLICATIONS: u64 = 200;
        let dir = bus_dir("concurrent");
        let snap = dir.join("snap.json");
        let bus = SnapshotBus::new(Some(snap.clone()), Some(dir.join("metrics.prom")));
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for worker in 0..THREADS {
                let (bus, start) = (&bus, &start);
                s.spawn(move || {
                    let scope = format!("worker-{worker}");
                    let mut t = Telemetry::new(4, 1);
                    start.wait();
                    for _ in 0..PUBLICATIONS {
                        t.record_slot(1, 2, 1, 0, 0);
                        let _ = t.close_window(0);
                        bus.publish(&scope, &t, false);
                    }
                });
            }
        });
        assert_eq!(bus.write_errors(), 0);
        let doc = read_snapshot(&snap);
        assert_eq!(
            num(&doc, &["seq"]),
            Some((THREADS as u64 * PUBLICATIONS) as f64)
        );
        let Some(Json::Obj(scopes)) = doc.get("scopes") else {
            panic!("scopes is an object");
        };
        assert_eq!(scopes.len(), THREADS);
        let mut scope_seqs = Vec::new();
        for worker in 0..THREADS {
            let name = format!("worker-{worker}");
            assert_eq!(
                num(&doc, &["scopes", &name, "slots"]),
                Some(PUBLICATIONS as f64),
                "{name} holds its final state"
            );
            scope_seqs.push(num(&doc, &["scopes", &name, "seq"]).unwrap() as u64);
        }
        // Each scope keeps the seq of its own latest publication: distinct
        // across scopes, and the last of them is the bus's last.
        scope_seqs.sort_unstable();
        scope_seqs.dedup();
        assert_eq!(scope_seqs.len(), THREADS, "per-scope seqs {scope_seqs:?}");
        assert_eq!(scope_seqs.last(), Some(&(THREADS as u64 * PUBLICATIONS)));
        drop(bus);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unwritable_paths_count_errors_and_never_hang() {
        let missing = std::env::temp_dir()
            .join(format!("fifoms-bus-missing-{}", std::process::id()))
            .join("no-such-dir");
        let bus = SnapshotBus::new(
            Some(missing.join("snap.json")),
            Some(missing.join("m.prom")),
        );
        let mut t = Telemetry::new(2, 1);
        t.record_slot(1, 1, 1, 0, 0);
        let _ = t.close_window(0);
        bus.publish("cell", &t, false);
        bus.publish("cell", &t, true);
        let errors = bus.write_errors();
        assert!(errors > 0, "writes into a missing directory must fail");
        bus.publish("cell", &t, true);
        assert!(bus.write_errors() > errors, "every failed write is counted");
        assert!(!missing.exists());
    }

    #[test]
    fn dropping_the_bus_writes_the_pending_publication() {
        let dir = bus_dir("drop");
        let snap = dir.join("snap.json");
        let bus = SnapshotBus::new(Some(snap.clone()), None);
        let mut t = Telemetry::new(2, 1);
        for _ in 0..100 {
            t.record_slot(1, 1, 1, 0, 0);
            let _ = t.close_window(0);
            bus.publish("cell", &t, false);
        }
        drop(bus);
        let doc = read_snapshot(&snap);
        assert_eq!(num(&doc, &["seq"]), Some(100.0));
        assert_eq!(num(&doc, &["scopes", "cell", "slots"]), Some(100.0));
        let scope = doc.get("scopes").and_then(|s| s.get("cell")).unwrap();
        assert_eq!(scope.get("complete"), Some(&Json::Bool(false)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prometheus_labels_are_escaped() {
        let mut t = Telemetry::new(1, 1);
        t.record_slot(0, 0, 0, 0, 0);
        let _ = t.close_window(0);
        let bus = SnapshotBus::new(None, None);
        bus.publish("odd\"scope\\name", &t, false);
        let text = render_prometheus(&bus.document());
        assert!(text.contains("scope=\"odd\\\"scope\\\\name\""));
    }
}

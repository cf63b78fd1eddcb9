//! Exact matching-work counts: FIFOMS and iSLIP over a fixed grid.
//!
//! Both schedulers count the work of each slot in builds with debug
//! assertions ([`WorkCounts`]): ports taken up, queue tests made, and
//! requests (FIFOMS) or grants (iSLIP) sent. The counts are functions of
//! the seeded run alone, so this test pins their totals exactly, where a
//! wall-clock gate could only bound a noisy sample. A change that does
//! more (or less) matching work for the same schedule fails here on
//! every run. A change that alters the work on purpose re-pins the table
//! and says why in CHANGES.md; on a mismatch the test prints the table's
//! new rows.
//!
//! The grid covers N ∈ {16, 64, 128, 256}: N=128 is the most ports a
//! `PortSet` holds inline and N=256 spills to the heap.

#![cfg(debug_assertions)]

use std::ops::ControlFlow;

use fifoms::prelude::*;
use fifoms::sim::{run, SlotHook};
use fifoms::types::{SlotOutcome, WorkCounts};

const B: f64 = 0.2;
const SWITCH_SEED: u64 = 1;
const TRAFFIC_SEED: u64 = 2;

/// Slots per cell: fewer for larger switches, so the grid stays quick.
fn slots_for(n: usize) -> u64 {
    match n {
        16 => 2_000,
        64 => 1_000,
        128 => 400,
        _ => 200,
    }
}

/// The pinned totals over every slot of a cell's run:
/// `(scheduler, N, load, visited, examined, requests, rounds)`.
type Row = (&'static str, usize, f64, u64, u64, u64, u64);

const GRID: [Row; 24] = [
    ("FIFOMS", 16, 0.3, 56_364, 12_775, 12_230, 1795),
    ("FIFOMS", 16, 0.6, 57_129, 42_333, 32_896, 2452),
    ("FIFOMS", 16, 0.9, 77_783, 401_296, 81_933, 6152),
    ("FIFOMS", 64, 0.3, 121_041, 24_877, 24_035, 940),
    ("FIFOMS", 64, 0.6, 125_815, 82_171, 70_686, 1160),
    ("FIFOMS", 64, 0.9, 156_741, 412_626, 170_671, 2264),
    ("FIFOMS", 128, 0.3, 98_060, 19_466, 19_179, 377),
    ("FIFOMS", 128, 0.6, 103_260, 65_576, 59_410, 455),
    ("FIFOMS", 128, 0.9, 130_356, 436_243, 189_477, 894),
    ("FIFOMS", 256, 0.3, 96_355, 17_194, 17_091, 179),
    ("FIFOMS", 256, 0.6, 101_441, 58_637, 55_371, 208),
    ("FIFOMS", 256, 0.9, 129_720, 298_701, 186_793, 384),
    ("iSLIP", 16, 0.3, 63_953, 873_085, 21_573, 2883),
    ("iSLIP", 16, 0.6, 62_089, 692_429, 37_218, 4270),
    ("iSLIP", 16, 0.9, 44_148, 299_363, 40_551, 4846),
    ("iSLIP", 64, 0.3, 169_631, 7_854_873, 70_909, 2286),
    ("iSLIP", 64, 0.6, 172_360, 6_137_425, 114_710, 3475),
    ("iSLIP", 64, 0.9, 140_226, 3_597_474, 120_639, 4296),
    ("iSLIP", 128, 0.3, 152_740, 13_148_145, 69_160, 1076),
    ("iSLIP", 128, 0.6, 156_693, 10_437_227, 106_199, 1587),
    ("iSLIP", 128, 0.9, 143_320, 7_604_388, 118_519, 2066),
    ("iSLIP", 256, 0.3, 169_579, 27_225_033, 84_072, 582),
    ("iSLIP", 256, 0.6, 174_613, 23_508_546, 112_090, 801),
    ("iSLIP", 256, 0.9, 188_042, 22_011_030, 145_742, 1094),
];

/// A switch whose last slot's matching work can be read.
trait Counted: Switch {
    fn work(&self) -> WorkCounts;
}

impl Counted for MulticastVoqSwitch {
    fn work(&self) -> WorkCounts {
        self.last_work().expect("debug builds count the work")
    }
}

impl Counted for IslipSwitch {
    fn work(&self) -> WorkCounts {
        self.last_work().expect("debug builds count the work")
    }
}

impl<S: Counted> Counted for FaultyFabric<S> {
    fn work(&self) -> WorkCounts {
        self.inner().work()
    }
}

/// Sums each slot's work and rounds over a run.
#[derive(Default)]
struct Totals {
    work: WorkCounts,
    rounds: u64,
}

impl<S: Counted> SlotHook<S> for Totals {
    fn after_slot(&mut self, switch: &mut S, _now: Slot, outcome: &SlotOutcome) -> ControlFlow<()> {
        let w = switch.work();
        self.work.visited += w.visited;
        self.work.examined += w.examined;
        self.work.requests += w.requests;
        self.rounds += u64::from(outcome.rounds);
        ControlFlow::Continue(())
    }
}

fn run_cell<S: Counted>(mut switch: S, n: usize, load: f64) -> Totals {
    let mut traffic = TrafficKind::bernoulli_at_load(load, B, n).build(n, TRAFFIC_SEED);
    let cfg = RunConfig::paper(slots_for(n));
    let mut totals = Totals::default();
    let result = run(
        &mut switch,
        traffic.as_mut(),
        &cfg,
        &mut Observer::none(),
        None,
        &mut totals,
    )
    .expect("grid cell runs");
    assert_eq!(result.slots_run, cfg.slots);
    totals
}

/// Run every grid row of `scheduler` and compare it with the table,
/// printing all of its rows as they now read when any differs.
fn check_grid(scheduler: &str, cell: impl Fn(usize, f64) -> Totals) {
    let pinned: Vec<Row> = GRID.iter().copied().filter(|r| r.0 == scheduler).collect();
    let got: Vec<Row> = pinned
        .iter()
        .map(|&(name, n, load, ..)| {
            let t = cell(n, load);
            let w = t.work;
            (name, n, load, w.visited, w.examined, w.requests, t.rounds)
        })
        .collect();
    if got != pinned {
        let rows: String = got.iter().map(|r| format!("    {r:?},\n")).collect();
        panic!("{scheduler}'s matching work moved; the rows now read:\n{rows}");
    }
}

#[test]
fn fifoms_grid_work_is_pinned() {
    check_grid("FIFOMS", |n, load| {
        run_cell(MulticastVoqSwitch::new(n, SWITCH_SEED), n, load)
    });
}

#[test]
fn islip_grid_work_is_pinned() {
    check_grid("iSLIP", |n, load| run_cell(IslipSwitch::new(n), n, load));
}

#[test]
fn empty_switches_pay_the_idle_floor_every_slot() {
    // FIFOMS scans every free input once and finds no HOL cell; iSLIP's
    // grant step takes up every output and tests every input for it.
    for n in [16, 64, 128, 256] {
        let n64 = n as u64;
        let mut fifoms = MulticastVoqSwitch::new(n, SWITCH_SEED);
        let mut islip = IslipSwitch::new(n);
        for t in 0..5 {
            let out = fifoms.run_slot(Slot(t));
            assert_eq!((out.rounds, out.departures.len()), (0, 0));
            assert_eq!(
                fifoms.work(),
                WorkCounts {
                    visited: n64,
                    examined: 0,
                    requests: 0
                },
                "FIFOMS N={n} slot {t}"
            );
            fifoms.recycle(out);
            let out = islip.run_slot(Slot(t));
            assert_eq!((out.rounds, out.departures.len()), (0, 0));
            assert_eq!(
                islip.work(),
                WorkCounts {
                    visited: n64,
                    examined: n64 * n64,
                    requests: 0
                },
                "iSLIP N={n} slot {t}"
            );
            islip.recycle(out);
        }
    }
}

#[test]
fn egress_faults_count_the_quarantine_path() {
    // Egress faults kill copies in flight; each kill marks its path on
    // the switch's scoreboard, and the scheduler then skips the path's
    // HOL cell. A skipped cell still counts as examined.
    struct Quarantined(Totals, u64);
    impl SlotHook<FaultyFabric<MulticastVoqSwitch>> for Quarantined {
        fn after_slot(
            &mut self,
            switch: &mut FaultyFabric<MulticastVoqSwitch>,
            now: Slot,
            outcome: &SlotOutcome,
        ) -> ControlFlow<()> {
            if !switch.inner().scoreboard().is_empty() {
                self.1 += 1;
            }
            self.0.after_slot(switch, now, outcome)
        }
    }
    let n = 16;
    let mut switch = FaultyFabric::new(
        MulticastVoqSwitch::new(n, SWITCH_SEED),
        FaultConfig::egress(3),
    );
    let mut traffic = TrafficKind::bernoulli_at_load(0.6, B, n).build(n, TRAFFIC_SEED);
    let cfg = RunConfig::paper(slots_for(n));
    let mut hook = Quarantined(Totals::default(), 0);
    run(
        &mut switch,
        traffic.as_mut(),
        &cfg,
        &mut Observer::none(),
        None,
        &mut hook,
    )
    .expect("faulty cell runs");
    let Quarantined(t, quarantined_slots) = hook;
    let stats = switch.stats();
    assert_eq!(
        (
            t.work.visited,
            t.work.examined,
            t.work.requests,
            t.rounds,
            quarantined_slots,
            stats.copies_killed,
        ),
        (100_803, 524_180, 76_310, 6_487, 1_978, 465),
    );
}

//! Golden regression tests: exact departure schedules on a handcrafted,
//! contended 4×4 trace, frozen for the deterministic and fixed-seed
//! scheduler configurations. Any behavioural drift in the scheduler cores —
//! ordering, tie-breaks, splitting, post-processing — shows up here as a
//! precise diff rather than a statistical blur.
//!
//! Notation: `pkt:input->output`, `!` marks the packet's last copy.

use fifoms::baselines::TwoDrrSwitch;
use fifoms::core::{FifomsConfig, MulticastVoqSwitch, TieBreak};
use fifoms::prelude::*;

/// 15 packets over 4 slots with heavy output-0 contention, interlocking
/// multicasts and a full-fanout burst at the end.
const TRACE: &str = "trace v1 ports=4 slots=8
0 0 0,1
0 1 0,2
0 2 0,3
0 3 0
1 0 1,2,3
1 1 1
1 2 2
2 0 3
2 1 0,1,2,3
2 2 1,2
2 3 2,3
3 0 0
3 1 0
3 2 0
3 3 0,1,2,3
";

fn drive(mut sw: Box<dyn Switch>) -> Vec<String> {
    let trace = Trace::from_text(TRACE).unwrap();
    let mut src = TraceSource::new(trace.clone());
    let mut arrivals = Vec::new();
    let mut id = 0u64;
    let mut log = Vec::new();
    let mut t = 0u64;
    while t < 60 {
        let now = Slot(t);
        src.next_slot(now, &mut arrivals);
        for (input, dests) in arrivals.iter_mut().enumerate() {
            if let Some(d) = dests.take() {
                id += 1;
                sw.admit(Packet::new(PacketId(id), now, PortId::new(input), d));
            }
        }
        let out = sw.run_slot(now);
        let mut ds: Vec<String> = out
            .departures
            .iter()
            .map(|d| {
                format!(
                    "{}:{}->{}{}",
                    d.packet.raw(),
                    d.input.index(),
                    d.output.index(),
                    if d.last_copy { "!" } else { "" }
                )
            })
            .collect();
        ds.sort();
        if !ds.is_empty() {
            log.push(format!("t{t} {}", ds.join(" ")));
        }
        t += 1;
        if t > trace.len_slots() && sw.backlog().is_empty() {
            break;
        }
    }
    assert!(sw.backlog().is_empty(), "golden trace must drain");
    log
}

#[test]
fn golden_fifoms_lowest_input_tiebreak() {
    let sw = MulticastVoqSwitch::with_config(
        4,
        0,
        FifomsConfig {
            tie_break: TieBreak::LowestInput,
            ..FifomsConfig::default()
        },
    );
    let expected = [
        "t0 1:0->0 1:0->1! 2:1->2 3:2->3",
        "t1 2:1->0! 5:0->1 5:0->2 5:0->3!",
        "t2 11:3->2 3:2->0! 6:1->1! 8:0->3!",
        "t3 4:3->0! 7:2->2! 9:1->1 9:1->3",
        "t4 10:2->1 11:3->3! 9:1->0 9:1->2!",
        "t5 10:2->2! 12:0->0! 15:3->1 15:3->3",
        "t6 13:1->0! 15:3->2",
        "t7 14:2->0!",
        "t8 15:3->0!",
    ];
    assert_eq!(drive(Box::new(sw)), expected);
}

#[test]
fn golden_oqfifo() {
    let expected = [
        "t0 1:0->0 1:0->1! 2:1->2 3:2->3",
        "t1 2:1->0! 5:0->1 5:0->2 5:0->3!",
        "t2 3:2->0! 6:1->1! 7:2->2! 8:0->3!",
        "t3 4:3->0! 9:1->1 9:1->2 9:1->3",
        "t4 10:2->1 10:2->2! 11:3->3 9:1->0!",
        "t5 11:3->2! 12:0->0! 15:3->1 15:3->3",
        "t6 13:1->0! 15:3->2",
        "t7 14:2->0!",
        "t8 15:3->0!",
    ];
    assert_eq!(drive(Box::new(OqFifoSwitch::new(4))), expected);
}

#[test]
fn golden_tatra() {
    let expected = [
        "t0 1:0->0 1:0->1! 2:1->2 3:2->3",
        "t1 2:1->0! 5:0->1 5:0->2 5:0->3!",
        "t2 3:2->0! 6:1->1! 8:0->3!",
        "t3 4:3->0! 7:2->2! 9:1->1 9:1->3",
        "t4 10:2->1 11:3->3 9:1->0 9:1->2!",
        "t5 10:2->2! 12:0->0!",
        "t6 11:3->2! 13:1->0!",
        "t7 14:2->0! 15:3->1 15:3->2 15:3->3",
        "t8 15:3->0!",
    ];
    assert_eq!(drive(Box::new(TatraSwitch::new(4))), expected);
}

#[test]
fn golden_islip() {
    let expected = [
        "t0 1:0->0 2:1->2 3:2->3",
        "t1 1:0->1! 2:1->0! 7:2->2!",
        "t2 11:3->2 3:2->0! 5:0->3 6:1->1!",
        "t3 10:2->1 11:3->3! 5:0->2 9:1->0",
        "t4 4:3->0! 8:0->3! 9:1->2",
        "t5 10:2->2! 12:0->0! 15:3->1 9:1->3",
        "t6 13:1->0! 15:3->2 5:0->1!",
        "t7 14:2->0! 15:3->3 9:1->1!",
        "t8 15:3->0!",
    ];
    assert_eq!(drive(Box::new(IslipSwitch::new(4))), expected);
}

#[test]
fn golden_pim() {
    let expected = [
        "t0 1:0->1 2:1->2 3:2->3 4:3->0!",
        "t1 2:1->0! 5:0->1 7:2->2!",
        "t2 10:2->1 11:3->3 5:0->2 9:1->0",
        "t3 10:2->2! 15:3->3 1:0->0! 6:1->1!",
        "t4 15:3->0 5:0->3! 9:1->2",
        "t5 11:3->2! 12:0->0! 9:1->3",
        "t6 13:1->0! 15:3->2 8:0->3!",
        "t7 3:2->0! 9:1->1!",
        "t8 14:2->0! 15:3->1!",
    ];
    assert_eq!(drive(Box::new(PimSwitch::new(4, 3))), expected);
}

#[test]
fn golden_twodrr() {
    let expected = [
        "t0 1:0->0 2:1->2 3:2->3",
        "t1 1:0->1! 4:3->0! 7:2->2!",
        "t2 3:2->0! 5:0->2 9:1->3",
        "t3 10:2->1 11:3->2 2:1->0! 5:0->3",
        "t4 10:2->2! 11:3->3! 12:0->0! 6:1->1!",
        "t5 15:3->0 5:0->1! 9:1->2",
        "t6 14:2->0! 15:3->1 8:0->3!",
        "t7 15:3->2 9:1->0",
        "t8 15:3->3! 9:1->1!",
        "t9 13:1->0!",
    ];
    assert_eq!(drive(Box::new(TwoDrrSwitch::new(4))), expected);
}

#[test]
fn golden_wba() {
    let expected = [
        "t0 1:0->1 2:1->2 3:2->3 4:3->0!",
        "t1 2:1->0!",
        "t2 11:3->2 11:3->3! 1:0->0! 6:1->1!",
        "t3 3:2->0! 5:0->1 5:0->2 5:0->3!",
        "t4 7:2->2! 8:0->3! 9:1->0 9:1->1",
        "t5 10:2->1 12:0->0! 9:1->2 9:1->3!",
        "t6 10:2->2! 13:1->0! 15:3->1 15:3->3",
        "t7 15:3->0 15:3->2!",
        "t8 14:2->0!",
    ];
    assert_eq!(drive(Box::new(WbaSwitch::new(4, 3))), expected);
}

#[test]
fn golden_mcfifo() {
    let expected = [
        "t0 1:0->1 2:1->2 3:2->3 4:3->0!",
        "t1 2:1->0!",
        "t2 11:3->2 11:3->3! 1:0->0! 6:1->1!",
        "t3 3:2->0! 5:0->1 5:0->2 5:0->3!",
        "t4 7:2->2! 8:0->3! 9:1->0 9:1->1",
        "t5 10:2->1 10:2->2! 15:3->0 9:1->3",
        "t6 12:0->0! 15:3->1 15:3->3 9:1->2!",
        "t7 13:1->0! 15:3->2!",
        "t8 14:2->0!",
    ];
    assert_eq!(drive(Box::new(McFifoSwitch::new(4, 3))), expected);
}

#[test]
fn golden_mcfifo_without_splitting() {
    let expected = [
        "t0 4:3->0!",
        "t1 2:1->0 2:1->2!",
        "t2 11:3->2 11:3->3! 1:0->0 1:0->1!",
        "t3 3:2->0 3:2->3! 6:1->1!",
        "t4 5:0->1 5:0->2 5:0->3!",
        "t5 7:2->2! 8:0->3!",
        "t6 9:1->0 9:1->1 9:1->2 9:1->3!",
        "t7 10:2->1 10:2->2! 12:0->0!",
        "t8 14:2->0!",
        "t9 15:3->0 15:3->1 15:3->2 15:3->3!",
        "t10 13:1->0!",
    ];
    assert_eq!(
        drive(Box::new(McFifoSwitch::with_splitting(4, 3, false))),
        expected
    );
}

/// The schedules above differ in instructive ways; pin the headline
/// structural differences so the golden data stays meaningful.
#[test]
fn golden_schedules_show_architectural_differences() {
    // OQ serves packet 7 at t2 (three cells into output 2's queue in one
    // slot — speedup N); FIFOMS must wait until t3.
    // TATRA HOL-blocks packet 11's copy to output 2 until t6 (behind
    // packet 10 in input 3's single FIFO... actually behind its own
    // residue), where FIFOMS's VOQ serves it at t4.
    let fifoms = drive(Box::new(MulticastVoqSwitch::with_config(
        4,
        0,
        FifomsConfig {
            tie_break: TieBreak::LowestInput,
            ..FifomsConfig::default()
        },
    )));
    let tatra = drive(Box::new(TatraSwitch::new(4)));
    let find = |log: &[String], needle: &str| {
        log.iter()
            .position(|l| l.contains(needle))
            .map(|i| log[i].clone())
    };
    // FIFOMS completes packet 11 at t4; TATRA only at t6.
    assert!(find(&fifoms, "11:3->3!").unwrap().starts_with("t4"));
    assert!(find(&tatra, "11:3->2!").unwrap().starts_with("t6"));
    // Total work is identical (conservation on a shared trace).
    let copies = |log: &[String]| -> usize {
        log.iter()
            .map(|l| l.split_whitespace().count() - 1)
            .sum()
    };
    assert_eq!(copies(&fifoms), copies(&tatra));
    // sum of the trace's fanouts: 2+2+2+1 + 3+1+1 + 1+4+2+2 + 1+1+1+4
    assert_eq!(copies(&fifoms), 28);
}

//! Cross-crate conservation and legality checks: every scheduler in the
//! workspace, driven by every traffic model, must deliver exactly the
//! copies it admitted, flag exactly one `last_copy` per packet, and only
//! produce physically realisable slot schedules.

use std::collections::HashMap;

use fifoms::prelude::*;

fn all_switches(n: usize) -> Vec<SwitchKind> {
    vec![
        SwitchKind::Fifoms,
        SwitchKind::FifomsSingleRequest,
        SwitchKind::FifomsMaxRounds(1),
        SwitchKind::FifomsFanoutCap(2),
        SwitchKind::Islip(None),
        SwitchKind::Islip(Some(1)),
        SwitchKind::Pim(None),
        SwitchKind::TwoDrr,
        SwitchKind::Tatra,
        SwitchKind::Wba,
        SwitchKind::OqFifo,
        SwitchKind::OqSpeedup(1),
        SwitchKind::OqSpeedup(4),
        SwitchKind::McFifo { splitting: true },
        SwitchKind::McFifo { splitting: false },
    ]
    .into_iter()
    .filter(move |_| n > 0)
    .collect()
}

fn all_traffic() -> Vec<TrafficKind> {
    vec![
        TrafficKind::Bernoulli { p: 0.3, b: 0.25 },
        TrafficKind::Uniform {
            p: 0.3,
            max_fanout: 4,
        },
        TrafficKind::Burst {
            e_off: 32.0,
            e_on: 8.0,
            b: 0.3,
        },
        TrafficKind::UniformUnicast { p: 0.4 },
        TrafficKind::Diagonal { p: 0.4 },
    ]
}

/// Drive `(switch, traffic)` for `slots`, then drain; validate every
/// invariant on the way.
fn exercise(switch: &mut dyn Switch, traffic: &mut dyn TrafficModel, slots: u64) {
    let n = switch.ports();
    // Output-queued switches legitimately deliver several packets of one
    // input in a single slot (they were forwarded in earlier slots/phases).
    let is_oq = switch.name().starts_with("OQ");
    let mut arrivals = Vec::new();
    let mut expected: HashMap<u64, usize> = HashMap::new(); // id -> fanout
    let mut delivered: HashMap<u64, usize> = HashMap::new();
    let mut last_copies: HashMap<u64, usize> = HashMap::new();
    let mut id = 0u64;

    let mut check_slot = |outcome: &fifoms::types::SlotOutcome| {
        // physical legality: each output receives at most one copy...
        let mut outputs_seen = PortSet::new();
        // ...and (for crossbar switches) each input sends one packet.
        let mut input_packet: HashMap<u16, u64> = HashMap::new();
        for d in &outcome.departures {
            assert!(
                outputs_seen.insert(d.output),
                "output {} driven twice in one slot",
                d.output
            );
            if !is_oq {
                if let Some(prev) = input_packet.insert(d.input.0, d.packet.raw()) {
                    assert_eq!(
                        prev,
                        d.packet.raw(),
                        "input {} sent two different packets in one slot",
                        d.input
                    );
                }
            }
            *delivered.entry(d.packet.raw()).or_default() += 1;
            if d.last_copy {
                *last_copies.entry(d.packet.raw()).or_default() += 1;
            }
        }
        assert_eq!(outcome.connections, outcome.departures.len());
    };

    for t in 0..slots {
        let now = Slot(t);
        traffic.next_slot(now, &mut arrivals);
        for (input, dests) in arrivals.iter_mut().enumerate() {
            if let Some(d) = dests.take() {
                id += 1;
                expected.insert(id, d.len());
                switch.admit(Packet::new(PacketId(id), now, PortId::new(input), d));
            }
        }
        check_slot(&switch.run_slot(now));
    }
    // drain
    let mut t = slots;
    while !switch.backlog().is_empty() {
        check_slot(&switch.run_slot(Slot(t)));
        t += 1;
        assert!(
            t < slots + 2_000_000 / n as u64,
            "{} failed to drain",
            switch.name()
        );
    }

    assert_eq!(
        expected.len(),
        last_copies.len(),
        "{}: packets without a last copy",
        switch.name()
    );
    for (pkt, fanout) in &expected {
        assert_eq!(
            delivered.get(pkt),
            Some(fanout),
            "{}: packet {pkt} copies",
            switch.name()
        );
        assert_eq!(
            last_copies.get(pkt),
            Some(&1),
            "{}: packet {pkt} last-copy count",
            switch.name()
        );
    }
}

#[test]
fn every_scheduler_conserves_every_workload() {
    let n = 8;
    for sk in all_switches(n) {
        for tk in all_traffic() {
            let mut sw = sk.build(n, 42);
            let mut tr = tk.build(n, 9);
            exercise(sw.as_mut(), tr.as_mut(), 400);
        }
    }
}

#[test]
fn checked_switch_finds_zero_violations_in_every_scheduler() {
    // The runtime invariant validator (output exclusivity, fanout
    // membership, last-copy discipline, cell conservation) must stay
    // silent for every real scheduler under the paper's three workloads.
    let n = 8;
    let traffics = [
        TrafficKind::Bernoulli { p: 0.3, b: 0.25 },
        TrafficKind::Uniform {
            p: 0.3,
            max_fanout: 4,
        },
        TrafficKind::Burst {
            e_off: 32.0,
            e_on: 8.0,
            b: 0.3,
        },
    ];
    for sk in all_switches(n) {
        for tk in traffics {
            let mut sw = CheckedSwitch::new(sk.build(n, 21));
            let mut tr = tk.build(n, 22);
            try_simulate(&mut sw, tr.as_mut(), &RunConfig::quick(800)).expect("run");
            assert!(
                sw.violation().is_none(),
                "{sk:?} × {tk:?}: {:?}",
                sw.violation()
            );
        }
    }
}

#[test]
fn conservation_at_high_multicast_load() {
    // Near saturation the bookkeeping paths (splitting, residues, ledger)
    // get the most traffic.
    let n = 8;
    for sk in [
        SwitchKind::Fifoms,
        SwitchKind::Tatra,
        SwitchKind::Wba,
        SwitchKind::Islip(None),
        SwitchKind::OqFifo,
    ] {
        let mut sw = sk.build(n, 3);
        let mut tr = TrafficKind::Bernoulli { p: 0.5, b: 0.25 }.build(n, 17);
        exercise(sw.as_mut(), tr.as_mut(), 600);
    }
}

#[test]
fn single_port_switch_degenerate_case() {
    // N = 1: a single input to a single output; everything must still work.
    for sk in [SwitchKind::Fifoms, SwitchKind::Tatra, SwitchKind::OqFifo] {
        let mut sw = sk.build(1, 0);
        let mut tr = TrafficKind::Uniform {
            p: 0.5,
            max_fanout: 1,
        }
        .build(1, 4);
        exercise(sw.as_mut(), tr.as_mut(), 200);
    }
}

#[test]
fn queue_sizes_never_negative_monotone_drain() {
    // After arrivals stop, total backlog must be nonincreasing slot over
    // slot for every scheduler.
    let n = 8;
    for sk in all_switches(n) {
        let mut sw = sk.build(n, 1);
        let mut tr = TrafficKind::Bernoulli { p: 0.4, b: 0.3 }.build(n, 2);
        let mut arrivals = Vec::new();
        let mut id = 0u64;
        for t in 0..200u64 {
            let now = Slot(t);
            tr.next_slot(now, &mut arrivals);
            for (input, dests) in arrivals.iter_mut().enumerate() {
                if let Some(d) = dests.take() {
                    id += 1;
                    sw.admit(Packet::new(PacketId(id), now, PortId::new(input), d));
                }
            }
            sw.run_slot(now);
        }
        let mut prev = sw.backlog().copies;
        let mut t = 200u64;
        while prev > 0 {
            sw.run_slot(Slot(t));
            let cur = sw.backlog().copies;
            assert!(cur <= prev, "{}: backlog grew while draining", sw.name());
            prev = cur;
            t += 1;
            assert!(t < 1_000_000, "{} failed to drain", sw.name());
        }
    }
}

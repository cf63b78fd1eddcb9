//! Larger-configuration smoke/stress checks: the data structures and
//! schedulers must hold their invariants well beyond the paper's 16×16
//! setup (PortSet heap-spill territory included).

use fifoms::prelude::*;

/// 64×64 — within the inline PortSet representation but 4× the paper.
#[test]
fn sixty_four_port_conservation() {
    let n = 64;
    let mut sw = SwitchKind::Fifoms.build(n, 9);
    let mut tr = TrafficKind::Bernoulli {
        p: 0.4,
        b: 4.0 / n as f64,
    }
    .build(n, 10);
    let mut arrivals = Vec::new();
    let mut admitted = 0usize;
    let mut delivered = 0usize;
    let mut id = 0u64;
    for t in 0..1_500u64 {
        let now = Slot(t);
        tr.next_slot(now, &mut arrivals);
        for (input, dests) in arrivals.iter_mut().enumerate() {
            if let Some(d) = dests.take() {
                admitted += d.len();
                id += 1;
                sw.admit(Packet::new(PacketId(id), now, PortId::new(input), d));
            }
        }
        delivered += sw.run_slot(now).departures.len();
    }
    let mut t = 1_500u64;
    while !sw.backlog().is_empty() {
        delivered += sw.run_slot(Slot(t)).departures.len();
        t += 1;
        assert!(t < 100_000, "64-port switch failed to drain");
    }
    assert_eq!(delivered, admitted);
}

/// 200×200 — forces PortSet onto its heap representation end to end.
#[test]
fn two_hundred_port_heap_portset_path() {
    let n = 200;
    let mut sw = SwitchKind::Fifoms.build(n, 11);
    let mut tr = TrafficKind::Uniform {
        p: 0.3,
        max_fanout: 150, // destination sets spill past 128 bits
    }
    .build(n, 12);
    let mut arrivals = Vec::new();
    let mut admitted = 0usize;
    let mut delivered = 0usize;
    let mut id = 0u64;
    for t in 0..120u64 {
        let now = Slot(t);
        tr.next_slot(now, &mut arrivals);
        for (input, dests) in arrivals.iter_mut().enumerate() {
            if let Some(d) = dests.take() {
                assert!(d.iter().all(|p| p.index() < n));
                admitted += d.len();
                id += 1;
                sw.admit(Packet::new(PacketId(id), now, PortId::new(input), d));
            }
        }
        delivered += sw.run_slot(now).departures.len();
    }
    let mut t = 120u64;
    while !sw.backlog().is_empty() {
        delivered += sw.run_slot(Slot(t)).departures.len();
        t += 1;
        assert!(t < 200_000, "200-port switch failed to drain");
    }
    assert_eq!(delivered, admitted);
}

/// Fault-injection axis: with crosspoints dead and output ports flapping,
/// every scheduler must degrade gracefully — the run completes (no
/// deadlock), the invariant checker stays silent, and conservation holds
/// for every cell that actually entered the switch (drops happen only at
/// ingress, where the faulty fabric masks dead destinations).
#[test]
fn fault_injected_fabric_degrades_gracefully() {
    let n = 8;
    for sk in [
        SwitchKind::Fifoms,
        SwitchKind::Tatra,
        SwitchKind::Wba,
        SwitchKind::Islip(None),
        SwitchKind::TwoDrr,
        SwitchKind::OqFifo,
        SwitchKind::McFifo { splitting: true },
    ] {
        let mut sw = FaultyFabric::new(
            CheckedSwitch::new(sk.build(n, 31)),
            FaultConfig::moderate(7),
        );
        let mut tr = TrafficKind::Bernoulli { p: 0.4, b: 0.3 }.build(n, 32);
        // The run is bounded, so completing it proves no deadlock;
        // per-slot conservation ran inside CheckedSwitch the whole way.
        try_simulate(&mut sw, tr.as_mut(), &RunConfig::quick(2_000)).expect("run");
        assert!(
            sw.inner().violation().is_none(),
            "{sk:?} under faults: {:?}",
            sw.inner().violation()
        );
        let stats = sw.stats();
        assert!(stats.packets_offered > 0, "{sk:?} saw no traffic");
        assert!(
            stats.copies_dropped < stats.packets_offered * n as u64,
            "{sk:?} dropped implausibly many copies"
        );
    }
}

/// Sustained saturation for a long stretch must not break invariants or
/// bookkeeping (the backlog just grows; nothing is lost).
#[test]
fn sustained_overload_bookkeeping() {
    let n = 8;
    for sk in [SwitchKind::Fifoms, SwitchKind::Tatra, SwitchKind::Islip(None)] {
        let mut sw = sk.build(n, 13);
        let mut tr = TrafficKind::Bernoulli { p: 0.9, b: 0.5 }.build(n, 14); // load 3.6
        let mut arrivals = Vec::new();
        let mut admitted = 0usize;
        let mut delivered = 0usize;
        let mut id = 0u64;
        for t in 0..600u64 {
            let now = Slot(t);
            tr.next_slot(now, &mut arrivals);
            for (input, dests) in arrivals.iter_mut().enumerate() {
                if let Some(d) = dests.take() {
                    admitted += d.len();
                    id += 1;
                    sw.admit(Packet::new(PacketId(id), now, PortId::new(input), d));
                }
            }
            delivered += sw.run_slot(now).departures.len();
        }
        // outputs can drain at most 1 copy per slot
        assert!(delivered <= 600 * n, "{:?} overdelivered", sk);
        assert_eq!(
            sw.backlog().copies,
            admitted - delivered,
            "{:?} lost or duplicated copies under overload",
            sk
        );
    }
}

//! Quickstart: drive a FIFOMS switch by hand, slot by slot.
//!
//! Recreates the situation of the paper's Fig. 2 (a 4×4 multicast VOQ
//! switch with a mix of queued multicast and unicast packets) and walks it
//! to drain, printing what the scheduler does each slot.
//!
//! Run with: `cargo run --example quickstart`

use fifoms::prelude::*;

fn main() {
    let n = 4;
    let mut switch = MulticastVoqSwitch::new(n, 42);

    // The four packets of Fig. 2, queued at input 0, plus contention from
    // input 1 so the scheduler has decisions to make.
    let packets = [
        // (id, arrival slot, input, destinations)
        (1u64, 1u64, 0u16, vec![0usize, 1, 2]), // fanout-3 multicast
        (2, 3, 0, vec![2, 3]),
        (3, 4, 0, vec![0, 3]),
        (4, 7, 0, vec![1]), // unicast
        (5, 2, 1, vec![2]), // input 1 contends for output 2
        (6, 5, 1, vec![0, 1]),
    ];
    for (id, arrival, input, dests) in packets {
        switch.admit(Packet::new(
            PacketId(id),
            Slot(arrival),
            PortId(input),
            dests.into_iter().collect(),
        ));
    }

    println!("4x4 multicast VOQ switch, FIFOMS scheduling");
    println!(
        "initial backlog: {} packets / {} copies\n",
        switch.backlog().packets,
        switch.backlog().copies
    );

    // Each departure is one crosspoint set; a slot used the crossbar's
    // multicast when some input drove more than one output in it.
    let (mut crosspoints, mut slots, mut multicast_slots) = (0, 0, 0);
    let mut now = Slot(8); // scheduling starts after the last arrival
    while !switch.backlog().is_empty() {
        let outcome = switch.run_slot(now);
        print!("{now}: {} round(s) |", outcome.rounds);
        let mut drivers = PortSet::new();
        for d in &outcome.departures {
            print!(
                " {}[{}->{}]{}",
                d.packet,
                d.input.index(),
                d.output.index(),
                if d.last_copy { "✓" } else { "" }
            );
            drivers.insert(d.input);
        }
        println!();
        crosspoints += outcome.departures.len();
        slots += 1;
        if drivers.len() < outcome.departures.len() {
            multicast_slots += 1;
        }
        now = now.next();
    }
    println!(
        "\ndrained at {now}; crossbar set {crosspoints} crosspoints over {slots} slots \
         ({multicast_slots} multicast slots)",
    );
}

//! Bit-level reproducibility: identical seeds must give identical runs,
//! different seeds must (in general) differ; parallel sweeps must equal
//! serial sweeps.

use fifoms::prelude::*;

const N: usize = 8;

fn fingerprint(sk: SwitchKind, seed: u64) -> (u64, u64, String) {
    let mut sw = sk.build(N, seed);
    let mut tr = TrafficKind::Bernoulli { p: 0.4, b: 0.3 }.build(N, seed);
    let r = try_simulate(sw.as_mut(), tr.as_mut(), &RunConfig::quick(5_000)).expect("run");
    (
        r.packets_admitted,
        r.copies_delivered,
        format!(
            "{:.9}/{:.9}/{}/{:.9}",
            r.delay.mean_input_oriented, r.delay.mean_output_oriented, r.occupancy.max, r.mean_rounds
        ),
    )
}

#[test]
fn identical_seeds_identical_runs() {
    for sk in [
        SwitchKind::Fifoms,
        SwitchKind::Islip(None),
        SwitchKind::Pim(None),
        SwitchKind::Tatra,
        SwitchKind::Wba,
        SwitchKind::OqFifo,
        SwitchKind::McFifo { splitting: true },
    ] {
        assert_eq!(
            fingerprint(sk, 1234),
            fingerprint(sk, 1234),
            "{:?} not reproducible",
            sk
        );
    }
}

#[test]
fn different_seeds_differ() {
    // The arrival process differs, so at least the admitted count should.
    let a = fingerprint(SwitchKind::Fifoms, 1);
    let b = fingerprint(SwitchKind::Fifoms, 2);
    assert_ne!(a, b);
}

#[test]
fn parallel_sweep_equals_serial_sweep() {
    let sweep = Sweep {
        n: N,
        switches: vec![
            SwitchKind::Fifoms,
            SwitchKind::Tatra,
            SwitchKind::Islip(None),
            SwitchKind::OqFifo,
        ],
        points: (1..=3)
            .map(|i| {
                let load = 0.2 * i as f64;
                (load, TrafficKind::bernoulli_at_load(load, 0.25, N))
            })
            .collect(),
        run: RunConfig::quick(3_000),
        seed: 99,
    };
    let serial = sweep.run_serial();
    for threads in [1, 2, 8] {
        let parallel = sweep.run_parallel(threads);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.result.switch_name, b.result.switch_name);
            assert_eq!(a.load, b.load);
            assert_eq!(a.result.packets_admitted, b.result.packets_admitted);
            assert_eq!(a.result.copies_delivered, b.result.copies_delivered);
            assert_eq!(
                a.result.delay.mean_output_oriented,
                b.result.delay.mean_output_oriented
            );
            assert_eq!(a.result.mean_rounds, b.result.mean_rounds);
        }
    }
}

#[test]
fn schedulers_share_arrivals_within_a_sweep_point() {
    let sweep = Sweep {
        n: N,
        switches: vec![SwitchKind::Fifoms, SwitchKind::Tatra, SwitchKind::OqFifo],
        points: vec![(0.4, TrafficKind::bernoulli_at_load(0.4, 0.25, N))],
        run: RunConfig::quick(3_000),
        seed: 5,
    };
    let rows = sweep.run_serial();
    let admitted: Vec<u64> = rows.iter().map(|r| r.result.packets_admitted).collect();
    assert!(
        admitted.windows(2).all(|w| w[0] == w[1]),
        "schedulers saw different arrival processes: {admitted:?}"
    );
}

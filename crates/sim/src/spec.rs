//! Buildable specifications of schedulers and workloads.
//!
//! Experiments are declared as data — a [`SwitchKind`] × [`TrafficKind`]
//! grid — and instantiated per run. This keeps sweeps serialisable into
//! reports and lets the bench harness and CLI share one vocabulary.

use fifoms_baselines::{
    IslipSwitch, McFifoSwitch, OqFifoSwitch, PimSwitch, SpeedupOqSwitch, TatraSwitch,
    TwoDrrSwitch, WbaSwitch,
};
use fifoms_core::{FifomsConfig, MulticastVoqSwitch, TieBreak};
use fifoms_fabric::{Backlog, Switch};
use fifoms_traffic::{
    BernoulliMulticast, BurstTraffic, DiagonalUnicast, HotspotUnicast, MixedTraffic,
    TrafficModel, UniformFanout, UniformUnicast,
};
use fifoms_types::{Packet, PortId, SimError, Slot, SlotOutcome};

/// A scheduler specification.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SwitchKind {
    /// FIFOMS with the paper's defaults.
    Fifoms,
    /// FIFOMS ablation: one request per input per round (no one-shot
    /// multicast).
    FifomsSingleRequest,
    /// FIFOMS ablation: cap on iterative rounds per slot.
    FifomsMaxRounds(u32),
    /// FIFOMS ablation: alternative grant tie-break rule.
    FifomsTieBreak(TieBreak),
    /// FIFOMS ablation: restricted per-slot grant fanout (the paper’s reference \[15\]).
    FifomsFanoutCap(usize),
    /// iSLIP; `None` iterates to convergence, `Some(k)` caps iterations.
    Islip(Option<usize>),
    /// PIM; same iteration convention as iSLIP.
    Pim(Option<usize>),
    /// 2DRR, the diagonal round-robin VOQ scheduler (the paper’s reference \[9\]).
    TwoDrr,
    /// TATRA on the single-input-queued switch.
    Tatra,
    /// WBA on the single-input-queued switch.
    Wba,
    /// FIFO output queueing (speedup-N idealisation).
    OqFifo,
    /// Output queueing with explicit finite internal speedup `S`.
    OqSpeedup(usize),
    /// Naive multicast FIFO switch; `splitting` selects fanout splitting.
    McFifo {
        /// Whether partial (split) service is allowed.
        splitting: bool,
    },
    /// Chaos scheduler for robustness testing: behaves as FIFOMS until
    /// slot `at`, then panics in `run_slot`. Not a paper experiment —
    /// it exists so fault isolation in the sweep runner can be exercised
    /// through the ordinary grid vocabulary.
    ChaosPanic {
        /// Slot at which `run_slot` panics.
        at: u64,
    },
    /// Chaos scheduler for robustness testing: behaves as FIFOMS until
    /// slot `at`, then stops returning from `run_slot` (sleeps forever).
    /// Exercises the sweep runner's per-cell watchdog.
    ChaosStall {
        /// Slot at which `run_slot` stalls.
        at: u64,
    },
}

/// The misbehaving switch behind [`SwitchKind::ChaosPanic`] and
/// [`SwitchKind::ChaosStall`].
struct ChaosSwitch {
    inner: Box<dyn Switch>,
    panic_at: Option<u64>,
    stall_at: Option<u64>,
}

impl Switch for ChaosSwitch {
    fn name(&self) -> String {
        format!("chaos({})", self.inner.name())
    }
    fn ports(&self) -> usize {
        self.inner.ports()
    }
    fn admit(&mut self, packet: Packet) {
        self.inner.admit(packet);
    }
    fn run_slot(&mut self, now: Slot) -> SlotOutcome {
        if self.panic_at.is_some_and(|at| now.0 >= at) {
            panic!("chaos switch injected a panic at slot {}", now.0);
        }
        if self.stall_at.is_some_and(|at| now.0 >= at) {
            // Never returns; a watchdog-guarded cell times out and leaks
            // this (sleeping, detached) thread.
            loop {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
        self.inner.run_slot(now)
    }
    fn queue_sizes(&self, out: &mut Vec<usize>) {
        self.inner.queue_sizes(out);
    }
    fn backlog(&self) -> Backlog {
        self.inner.backlog()
    }
}

impl SwitchKind {
    /// The paper's four compared schedulers, in its plotting order.
    pub fn paper_set() -> Vec<SwitchKind> {
        vec![
            SwitchKind::Fifoms,
            SwitchKind::Tatra,
            SwitchKind::Islip(None),
            SwitchKind::OqFifo,
        ]
    }

    /// Instantiate an `n×n` switch. `seed` derandomises tie-breaks.
    pub fn build(&self, n: usize, seed: u64) -> Box<dyn Switch> {
        match *self {
            SwitchKind::Fifoms => Box::new(MulticastVoqSwitch::new(n, seed)),
            SwitchKind::FifomsSingleRequest => Box::new(MulticastVoqSwitch::with_config(
                n,
                seed,
                FifomsConfig {
                    single_request: true,
                    ..FifomsConfig::default()
                },
            )),
            SwitchKind::FifomsMaxRounds(k) => Box::new(MulticastVoqSwitch::with_config(
                n,
                seed,
                FifomsConfig {
                    max_rounds: Some(k),
                    ..FifomsConfig::default()
                },
            )),
            SwitchKind::FifomsTieBreak(tb) => Box::new(MulticastVoqSwitch::with_config(
                n,
                seed,
                FifomsConfig {
                    tie_break: tb,
                    ..FifomsConfig::default()
                },
            )),
            SwitchKind::FifomsFanoutCap(f) => Box::new(MulticastVoqSwitch::with_config(
                n,
                seed,
                FifomsConfig {
                    max_grant_fanout: Some(f),
                    ..FifomsConfig::default()
                },
            )),
            SwitchKind::TwoDrr => Box::new(TwoDrrSwitch::new(n)),
            SwitchKind::OqSpeedup(s) => Box::new(SpeedupOqSwitch::new(n, s)),
            SwitchKind::Islip(None) => Box::new(IslipSwitch::new(n)),
            SwitchKind::Islip(Some(k)) => Box::new(IslipSwitch::with_iterations(n, k)),
            SwitchKind::Pim(None) => Box::new(PimSwitch::new(n, seed)),
            SwitchKind::Pim(Some(k)) => Box::new(PimSwitch::with_iterations(n, k, seed)),
            SwitchKind::Tatra => Box::new(TatraSwitch::new(n)),
            SwitchKind::Wba => Box::new(WbaSwitch::new(n, seed)),
            SwitchKind::OqFifo => Box::new(OqFifoSwitch::new(n)),
            SwitchKind::McFifo { splitting } => {
                Box::new(McFifoSwitch::with_splitting(n, seed, splitting))
            }
            SwitchKind::ChaosPanic { at } => Box::new(ChaosSwitch {
                inner: Box::new(MulticastVoqSwitch::new(n, seed)),
                panic_at: Some(at),
                stall_at: None,
            }),
            SwitchKind::ChaosStall { at } => Box::new(ChaosSwitch {
                inner: Box::new(MulticastVoqSwitch::new(n, seed)),
                panic_at: None,
                stall_at: Some(at),
            }),
        }
    }

    /// Short label for tables.
    pub fn label(&self) -> String {
        match *self {
            SwitchKind::Fifoms => "FIFOMS".into(),
            SwitchKind::FifomsSingleRequest => "FIFOMS-1req".into(),
            SwitchKind::FifomsMaxRounds(k) => format!("FIFOMS-r{k}"),
            SwitchKind::FifomsTieBreak(TieBreak::Random) => "FIFOMS".into(),
            SwitchKind::FifomsTieBreak(TieBreak::LowestInput) => "FIFOMS-lowtie".into(),
            SwitchKind::FifomsTieBreak(TieBreak::Rotating) => "FIFOMS-rottie".into(),
            SwitchKind::FifomsFanoutCap(f) => format!("FIFOMS-f{f}"),
            SwitchKind::TwoDrr => "2DRR".into(),
            SwitchKind::OqSpeedup(s) => format!("OQ-S{s}"),
            SwitchKind::Islip(None) => "iSLIP".into(),
            SwitchKind::Islip(Some(k)) => format!("iSLIP-{k}"),
            SwitchKind::Pim(None) => "PIM".into(),
            SwitchKind::Pim(Some(k)) => format!("PIM-{k}"),
            SwitchKind::Tatra => "TATRA".into(),
            SwitchKind::Wba => "WBA".into(),
            SwitchKind::OqFifo => "OQFIFO".into(),
            SwitchKind::McFifo { splitting: true } => "mcFIFO".into(),
            SwitchKind::McFifo { splitting: false } => "mcFIFO-nosplit".into(),
            SwitchKind::ChaosPanic { at } => format!("chaos-panic@{at}"),
            SwitchKind::ChaosStall { at } => format!("chaos-stall@{at}"),
        }
    }
}

/// A workload specification.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TrafficKind {
    /// Bernoulli multicast `(p, b)` (paper §V-A).
    Bernoulli {
        /// Per-slot arrival probability.
        p: f64,
        /// Per-output destination probability.
        b: f64,
    },
    /// Uniform fanout `(p, maxFanout)` (paper §V-B).
    Uniform {
        /// Per-slot arrival probability.
        p: f64,
        /// Maximum fanout.
        max_fanout: usize,
    },
    /// Bursty on/off `(E_off, E_on, b)` (paper §V-C).
    Burst {
        /// Mean off-period length in slots.
        e_off: f64,
        /// Mean on-period (burst) length in slots.
        e_on: f64,
        /// Per-output destination probability.
        b: f64,
    },
    /// Mixed unicast/multicast Bernoulli (extension; the intro's "mixed
    /// multicast and unicast packets" regime).
    Mixed {
        /// Per-slot arrival probability.
        p: f64,
        /// Probability an arrival is multicast (fanout >= 2).
        frac_multicast: f64,
        /// Per-output destination probability for multicast arrivals.
        b: f64,
    },
    /// Uniform unicast at probability `p` (extension).
    UniformUnicast {
        /// Per-slot arrival probability.
        p: f64,
    },
    /// Diagonal unicast at probability `p` (extension).
    Diagonal {
        /// Per-slot arrival probability.
        p: f64,
    },
    /// Hotspot unicast (extension): fraction `h` of packets to `hot`.
    Hotspot {
        /// Per-slot arrival probability.
        p: f64,
        /// The hot output port.
        hot: usize,
        /// Fraction of packets addressed to the hot output.
        h: f64,
    },
}

impl TrafficKind {
    /// Bernoulli workload at nominal effective load `load` (Figs. 4–5
    /// sweep axis: `p = load/(b·N)`).
    pub fn bernoulli_at_load(load: f64, b: f64, n: usize) -> TrafficKind {
        TrafficKind::Bernoulli {
            p: BernoulliMulticast::p_for_load(load, n, b),
            b,
        }
    }

    /// Uniform-fanout workload at effective load `load` (Figs. 6–7 sweep
    /// axis: `p = 2·load/(1+maxFanout)`).
    pub fn uniform_at_load(load: f64, max_fanout: usize) -> TrafficKind {
        TrafficKind::Uniform {
            p: UniformFanout::p_for_load(load, max_fanout),
            max_fanout,
        }
    }

    /// Burst workload at effective load `load` with fixed `E_on` and `b`
    /// (Fig. 8 sweep axis: `E_off = E_on·(bN/load − 1)`).
    pub fn burst_at_load(load: f64, e_on: f64, b: f64, n: usize) -> TrafficKind {
        TrafficKind::Burst {
            e_off: BurstTraffic::e_off_for_load(load, n, e_on, b),
            e_on,
            b,
        }
    }

    /// Instantiate the model for an `n×n` switch.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid for this `n` (experiment specs
    /// are programmer-constructed). Use [`TrafficKind::try_build`] on
    /// user-facing paths where the parameters derive from CLI input.
    pub fn build(&self, n: usize, seed: u64) -> Box<dyn TrafficModel> {
        match self.try_build(n, seed) {
            Ok(model) => model,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`TrafficKind::build`]: invalid parameters (for
    /// example a load that pushes `p` past 1 on a small switch) surface as
    /// a [`SimError`] instead of panicking.
    pub fn try_build(&self, n: usize, seed: u64) -> Result<Box<dyn TrafficModel>, SimError> {
        Ok(match *self {
            TrafficKind::Bernoulli { p, b } => Box::new(BernoulliMulticast::new(n, p, b, seed)?),
            TrafficKind::Uniform { p, max_fanout } => {
                Box::new(UniformFanout::new(n, p, max_fanout, seed)?)
            }
            TrafficKind::Burst { e_off, e_on, b } => {
                Box::new(BurstTraffic::new(n, e_off, e_on, b, seed)?)
            }
            TrafficKind::Mixed {
                p,
                frac_multicast,
                b,
            } => Box::new(MixedTraffic::new(n, p, frac_multicast, b, seed)?),
            TrafficKind::UniformUnicast { p } => Box::new(UniformUnicast::new(n, p, seed)?),
            TrafficKind::Diagonal { p } => Box::new(DiagonalUnicast::new(n, p, seed)?),
            TrafficKind::Hotspot { p, hot, h } => {
                Box::new(HotspotUnicast::new(n, p, PortId::new(hot), h, seed)?)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_order() {
        let labels: Vec<String> = SwitchKind::paper_set().iter().map(|k| k.label()).collect();
        assert_eq!(labels, vec!["FIFOMS", "TATRA", "iSLIP", "OQFIFO"]);
    }

    #[test]
    fn every_switch_kind_builds_and_names() {
        let kinds = [
            SwitchKind::Fifoms,
            SwitchKind::FifomsSingleRequest,
            SwitchKind::FifomsMaxRounds(2),
            SwitchKind::FifomsTieBreak(TieBreak::LowestInput),
            SwitchKind::FifomsTieBreak(TieBreak::Rotating),
            SwitchKind::FifomsFanoutCap(2),
            SwitchKind::TwoDrr,
            SwitchKind::OqSpeedup(1),
            SwitchKind::OqSpeedup(4),
            SwitchKind::Islip(None),
            SwitchKind::Islip(Some(1)),
            SwitchKind::Pim(None),
            SwitchKind::Pim(Some(2)),
            SwitchKind::Tatra,
            SwitchKind::Wba,
            SwitchKind::OqFifo,
            SwitchKind::McFifo { splitting: true },
            SwitchKind::McFifo { splitting: false },
        ];
        for k in kinds {
            let sw = k.build(8, 42);
            assert_eq!(sw.ports(), 8, "{}", k.label());
            assert!(!k.label().is_empty());
        }
    }

    #[test]
    fn every_traffic_kind_builds() {
        let kinds = [
            TrafficKind::Bernoulli { p: 0.2, b: 0.2 },
            TrafficKind::Uniform {
                p: 0.2,
                max_fanout: 4,
            },
            TrafficKind::Burst {
                e_off: 64.0,
                e_on: 16.0,
                b: 0.5,
            },
            TrafficKind::Mixed {
                p: 0.4,
                frac_multicast: 0.3,
                b: 0.25,
            },
            TrafficKind::UniformUnicast { p: 0.5 },
            TrafficKind::Diagonal { p: 0.5 },
            TrafficKind::Hotspot {
                p: 0.5,
                hot: 0,
                h: 0.3,
            },
        ];
        for k in kinds {
            let tr = k.build(8, 1);
            assert_eq!(tr.ports(), 8);
        }
    }

    #[test]
    fn at_load_constructors_hit_requested_load() {
        let n = 16;
        let tr = TrafficKind::bernoulli_at_load(0.8, 0.2, n).build(n, 0);
        assert!((tr.effective_load().unwrap() - 0.8).abs() < 1e-9);
        let tr = TrafficKind::uniform_at_load(0.6, 8).build(n, 0);
        assert!((tr.effective_load().unwrap() - 0.6).abs() < 1e-9);
        let tr = TrafficKind::burst_at_load(0.5, 16.0, 0.5, n).build(n, 0);
        assert!((tr.effective_load().unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn try_build_rejects_overdriven_load_without_panicking() {
        // Load 1.25 per output on a 4-port switch needs p > 1.
        let tk = TrafficKind::bernoulli_at_load(1.25, 0.25, 4);
        let err = tk.try_build(4, 0).map(|_| ()).unwrap_err();
        assert!(matches!(err, SimError::Config(_)), "got {err:?}");
    }

    /// DESIGN §15: the FIFOMS core, OQ-FIFO and mcFIFO checkpoint; every
    /// other discipline refuses through the `Switch` defaults, by name, so
    /// a recoverable run over it fails at its first checkpoint.
    #[test]
    fn only_fifoms_oq_fifo_and_mcfifo_checkpoint() {
        use fifoms_types::StateError;
        let saving = [
            SwitchKind::Fifoms,
            SwitchKind::FifomsSingleRequest,
            SwitchKind::FifomsMaxRounds(2),
            SwitchKind::FifomsTieBreak(TieBreak::Rotating),
            SwitchKind::FifomsFanoutCap(2),
            SwitchKind::OqFifo,
            SwitchKind::McFifo { splitting: true },
            SwitchKind::McFifo { splitting: false },
        ];
        for k in saving {
            let mut sw = k.build(4, 7);
            let dests: fifoms_types::PortSet = [1usize, 3].into_iter().collect();
            sw.admit(Packet::new(
                fifoms_types::PacketId(0),
                Slot(0),
                PortId(2),
                dests,
            ));
            let blob = sw
                .save_state()
                .unwrap_or_else(|e| panic!("{}: {e}", k.label()));
            let mut twin = k.build(4, 7);
            twin.load_state(&blob)
                .unwrap_or_else(|e| panic!("{}: {e}", k.label()));
            assert_eq!(twin.backlog(), sw.backlog(), "{}", k.label());
            assert_eq!(twin.save_state().as_ref(), Ok(&blob), "{}", k.label());
        }
        let refusing = [
            SwitchKind::Islip(None),
            SwitchKind::Islip(Some(1)),
            SwitchKind::Pim(None),
            SwitchKind::TwoDrr,
            SwitchKind::Tatra,
            SwitchKind::Wba,
            SwitchKind::OqSpeedup(2),
        ];
        for k in refusing {
            let mut sw = k.build(4, 7);
            let refusal = Err(StateError::Unsupported {
                component: sw.name(),
            });
            assert_eq!(sw.save_state(), refusal, "{}", k.label());
            assert_eq!(
                sw.load_state(&[]).map(|()| Vec::new()),
                refusal,
                "{}",
                k.label()
            );
        }
    }

    /// Among the traffic models only Bernoulli checkpoints; the rest
    /// refuse by name rather than replay different arrivals after a
    /// recovery.
    #[test]
    fn only_bernoulli_traffic_checkpoints() {
        use fifoms_types::StateError;
        let mut arrivals = Vec::new();
        let mut bernoulli = TrafficKind::Bernoulli { p: 0.5, b: 0.5 }.build(4, 3);
        bernoulli.next_slot(Slot(0), &mut arrivals);
        let blob = bernoulli.save_state().expect("Bernoulli saves");
        let mut twin = TrafficKind::Bernoulli { p: 0.5, b: 0.5 }.build(4, 3);
        twin.load_state(&blob).expect("Bernoulli restores");
        let mut expected = Vec::new();
        bernoulli.next_slot(Slot(1), &mut expected);
        twin.next_slot(Slot(1), &mut arrivals);
        assert_eq!(arrivals, expected, "the restored stream resumes in step");

        let refusing = [
            TrafficKind::Uniform {
                p: 0.2,
                max_fanout: 2,
            },
            TrafficKind::Burst {
                e_off: 8.0,
                e_on: 4.0,
                b: 0.5,
            },
            TrafficKind::Mixed {
                p: 0.4,
                frac_multicast: 0.3,
                b: 0.25,
            },
            TrafficKind::UniformUnicast { p: 0.5 },
            TrafficKind::Diagonal { p: 0.5 },
            TrafficKind::Hotspot {
                p: 0.5,
                hot: 0,
                h: 0.3,
            },
        ];
        for k in refusing {
            let mut tr = k.build(4, 3);
            let refusal = Err(StateError::Unsupported {
                component: tr.name(),
            });
            assert_eq!(tr.save_state(), refusal, "{}", tr.name());
            assert_eq!(
                tr.load_state(&[]).map(|()| Vec::new()),
                refusal,
                "{}",
                tr.name()
            );
        }
    }
}

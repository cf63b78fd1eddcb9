//! Traffic models for the FIFOMS simulation study.
//!
//! The paper evaluates three admission processes on a 16×16 switch (§V):
//!
//! * **Bernoulli multicast** ([`BernoulliMulticast`]) — parameters `(p, b)`:
//!   with probability `p` a packet arrives at an input each slot; each
//!   output is independently a destination with probability `b`. Average
//!   fanout `b·N`, effective load `p·b·N`.
//! * **Uniform fanout** ([`UniformFanout`]) — parameters `(p, maxFanout)`:
//!   fanout uniform on `1..=maxFanout`, destinations drawn without
//!   replacement. Average fanout `(1+maxFanout)/2`, effective load
//!   `p·(1+maxFanout)/2`. `maxFanout = 1` is pure unicast.
//! * **Burst** ([`BurstTraffic`]) — a two-state on/off Markov process per
//!   input; every slot of an on-period delivers a packet with the *same*
//!   destination set. Parameters `(E_off, E_on, b)`; arrival rate
//!   `E_on/(E_on+E_off)`, effective load `b·N·E_on/(E_on+E_off)`.
//!
//! plus unicast patterns ([`UniformUnicast`], [`DiagonalUnicast`],
//! [`HotspotUnicast`]) used by extension experiments, and record/replay
//! traces ([`Trace`], [`TraceRecorder`], [`TraceSource`]) for reproducible
//! cross-scheduler comparisons on identical arrival sequences.
//!
//! All models implement [`TrafficModel`]; they own a seeded RNG and are
//! fully deterministic given `(parameters, seed)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bernoulli;
mod burst;
mod mixed;
mod trace;
mod unicast;
mod uniform;

pub use bernoulli::BernoulliMulticast;
pub use burst::BurstTraffic;
pub use mixed::MixedTraffic;
pub use trace::{Trace, TraceRecorder, TraceSource};
pub use unicast::{DiagonalUnicast, HotspotUnicast, UniformUnicast};
pub use uniform::UniformFanout;

use fifoms_types::{PortSet, Slot, StateError};

/// A synchronous-slot traffic source for an `N×N` switch.
///
/// Each simulated slot, the engine calls [`TrafficModel::next_slot`]
/// exactly once with monotonically increasing `now`; the model fills
/// `arrivals[i]` with the destination set of the packet arriving at input
/// `i` this slot, or `None` if input `i` is idle. Destination sets are
/// never empty (models must resample rather than emit an empty fanout).
pub trait TrafficModel {
    /// Switch size `N` (the model generates for `N` inputs over `N`
    /// outputs).
    fn ports(&self) -> usize;

    /// Produce this slot's arrivals. Implementations must clear and refill
    /// `arrivals` to exactly [`TrafficModel::ports`] entries.
    fn next_slot(&mut self, now: Slot, arrivals: &mut Vec<Option<PortSet>>);

    /// The analytic effective load (expected utilization of each output
    /// port), when the model has a closed form.
    fn effective_load(&self) -> Option<f64> {
        None
    }

    /// The model's defining parameters as `(name, value)` pairs — the
    /// workload's provenance (`p`, `b`, fanout bounds, burst lengths, ...).
    ///
    /// Recorded in run results, checkpoint journals and traces so a result
    /// row is self-describing even when [`TrafficModel::effective_load`]
    /// has no closed form and reports `None`.
    fn params(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Short human-readable name for reports.
    fn name(&self) -> String;

    /// Serialise the model's mutable state (RNG cursors, burst phases) as
    /// an opaque checkpoint blob.
    ///
    /// The default refuses with [`StateError::Unsupported`] naming the
    /// model, so a checkpointed run over a non-checkpointable source fails
    /// loudly at the first checkpoint rather than silently replaying
    /// different arrivals after recovery.
    fn save_state(&self) -> Result<Vec<u8>, StateError> {
        Err(StateError::Unsupported {
            component: self.name(),
        })
    }

    /// Restore state captured by [`TrafficModel::save_state`] into a model
    /// built with the same parameters.
    fn load_state(&mut self, blob: &[u8]) -> Result<(), StateError> {
        let _ = blob;
        Err(StateError::Unsupported {
            component: self.name(),
        })
    }
}

/// Statistics helpers shared by tests and the experiment harness.
pub mod measure {
    use super::*;

    /// Empirically measure `(arrival_rate, mean_fanout, effective_load)` of
    /// a model over `slots` slots. Used by unit tests to validate models
    /// against their analytic forms.
    pub fn empirical_rates(model: &mut dyn TrafficModel, slots: u64) -> (f64, f64, f64) {
        let n = model.ports();
        let mut arrivals = Vec::new();
        let mut packets = 0u64;
        let mut copies = 0u64;
        for t in 0..slots {
            model.next_slot(Slot(t), &mut arrivals);
            assert_eq!(arrivals.len(), n, "model must fill one entry per input");
            for a in arrivals.iter().flatten() {
                assert!(!a.is_empty(), "empty destination set emitted");
                packets += 1;
                copies += a.len() as u64;
            }
        }
        let port_slots = (slots * n as u64) as f64;
        let rate = packets as f64 / port_slots;
        let mean_fanout = if packets == 0 {
            0.0
        } else {
            copies as f64 / packets as f64
        };
        // Each output can drain one copy per slot, so effective load per
        // output is total copies / (slots × N outputs).
        let load = copies as f64 / port_slots;
        (rate, mean_fanout, load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial deterministic model used to test the trait contract.
    struct EverySlotToZero {
        n: usize,
    }

    impl TrafficModel for EverySlotToZero {
        fn ports(&self) -> usize {
            self.n
        }
        fn next_slot(&mut self, _now: Slot, arrivals: &mut Vec<Option<PortSet>>) {
            arrivals.clear();
            for i in 0..self.n {
                arrivals.push((i == 0).then(|| PortSet::singleton(fifoms_types::PortId(0))));
            }
        }
        fn name(&self) -> String {
            "every-slot-to-zero".into()
        }
    }

    #[test]
    fn empirical_rates_on_deterministic_model() {
        let mut m = EverySlotToZero { n: 4 };
        let (rate, fanout, load) = measure::empirical_rates(&mut m, 100);
        assert!((rate - 0.25).abs() < 1e-12); // 1 packet per slot across 4 inputs
        assert_eq!(fanout, 1.0);
        assert!((load - 0.25).abs() < 1e-12);
        assert_eq!(m.effective_load(), None);
    }
}

//! The switch abstraction and the wrappers that check, fault and observe
//! any switch.
//!
//! The paper's switch model (§I, §IV-A) is an `N×N` crossbar whose
//! crosspoints can connect one input to *several* outputs simultaneously —
//! the "built-in multicast capability" FIFOMS exploits — while each output
//! may be driven by at most one input per slot. A slot's crossbar setting
//! is its departures: each one names the input that drove its output.
//!
//! This crate provides:
//!
//! * [`Switch`] — the trait every queueing discipline in this workspace
//!   implements (multicast-VOQ/FIFOMS, iSLIP, TATRA, OQ-FIFO, ...), which
//!   is what the simulation engine drives;
//! * [`CheckedSwitch`] — checks every slot against the crossbar's rule of
//!   one driver per output, each packet's residual fanout, and copy
//!   conservation;
//! * [`FaultyFabric`] — seeded port, crosspoint and in-flight faults;
//! * [`InstrumentedSwitch`] — per-slot scheduling events and the
//!   packet-level flight recorder;
//! * [`FaultScoreboard`] — the per-path quarantine a scheduler learns from
//!   failed copies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checked;
mod faults;
mod instrument;
mod scoreboard;
mod switch;

pub use checked::CheckedSwitch;
pub use faults::{FaultConfig, FaultMode, FaultStats, FaultyFabric};
pub use instrument::{InstrumentedSwitch, PacketTraceMode};
pub use scoreboard::FaultScoreboard;
pub use switch::{frame_stack, unframe_stack, Backlog, Switch};

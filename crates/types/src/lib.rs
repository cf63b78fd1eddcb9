//! Core vocabulary types for the FIFOMS reproduction.
//!
//! This crate defines the shared, dependency-free types used by every other
//! crate in the workspace:
//!
//! * [`Slot`] — the discrete time unit of the synchronous switch model.
//! * [`PortId`], [`PacketId`] — newtype identifiers.
//! * [`PortSet`] — a compact bitset over output ports used to represent a
//!   multicast packet's destination set (its *fanout set*).
//! * [`Packet`] — a fixed-size cell entering the switch.
//! * [`Departure`], [`SlotOutcome`] — the per-slot result record every
//!   switch implementation produces, from which all paper metrics
//!   (input/output oriented delay, queue sizes, convergence rounds) are
//!   derived; [`WorkCounts`], the matching work a scheduler counts per
//!   slot in debug builds.
//!
//! The paper models a switch with `N` input ports and `N` output ports and
//! fixed-length cells, operating in synchronous time slots (§I). All types
//! here are deliberately free of behaviour beyond what the model requires,
//! so that scheduler crates stay small and auditable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod error;
mod fault;
mod ids;
mod obs;
mod outcome;
mod packet;
mod portset;
mod timing;

pub use checkpoint::{
    crc32, frame_state, get_admission_drop, get_dropped_copy, get_violation, put_admission_drop,
    put_dropped_copy, put_violation, unframe_state, Checkpoint, StateError, StateReader,
    StateWriter, STATE_FORMAT_VERSION, STATE_MAGIC,
};
pub use error::{check_ports, check_probability, InvariantViolation, SimError, TypeError};
pub use fault::{AdmissionDrop, DropCause, DroppedCopy, RetryDisposition};
pub use ids::{PacketId, PortId, Slot};
pub use obs::ObsEvent;
pub use outcome::{Departure, SlotOutcome, WorkCounts};
pub use packet::Packet;
pub use portset::{PortSet, PortSetIter};
pub use timing::{SpanSample, SpanTimer};

/// The splitmix64 stream increment, `2^64 / φ` rounded to odd.
pub const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One splitmix64 output for generator state `z` (Steele, Lea & Flood,
/// OOPSLA 2014): the state advanced by [`SPLITMIX64_GAMMA`], then
/// finalised. Stateless, so it doubles as a well-mixed hash of a seed;
/// the generator's stream from state `s` is `splitmix64(s)`,
/// `splitmix64(s + γ)`, `splitmix64(s + 2γ)`, ...
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(SPLITMIX64_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The largest switch size the workspace supports.
///
/// The paper evaluates a 16×16 switch; we allow considerably larger switches
/// for scaling studies. `PortSet` stores up to 128 ports inline and spills
/// to the heap beyond that, so this cap exists only to catch nonsensical
/// configuration values early.
pub const MAX_PORTS: usize = 4096;

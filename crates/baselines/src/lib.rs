//! Baseline schedulers the paper compares FIFOMS against, plus ablation
//! variants.
//!
//! §V of the paper evaluates FIFOMS against three systems, all implemented
//! here from their published descriptions:
//!
//! * [`IslipSwitch`] — the iSLIP unicast VOQ scheduler (McKeown,
//!   ToN 1999). Multicast packets are expanded into independent unicast
//!   copies at admission, exactly as the paper simulates it.
//! * [`TatraSwitch`] — TATRA (Ahuja/Prabhakar/McKeown, JSAC 1997), the
//!   Tetris-inspired multicast scheduler on a *single* input FIFO per
//!   port, reimplemented from its published description (see DESIGN.md
//!   for the interpretation notes).
//! * [`OqFifoSwitch`] — FIFO output queueing with direct placement
//!   (equivalent to internal speedup `N`), the paper's ultimate
//!   performance benchmark.
//!
//! Beyond the paper's three, this crate implements referenced algorithms
//! as extensions and ablations:
//!
//! * [`PimSwitch`] — Parallel Iterative Matching (Anderson et al., TOCS
//!   1993): like iSLIP but with random grant/accept arbiters.
//! * [`WbaSwitch`] — the weight-based multicast arbiter WBA
//!   (Prabhakar/McKeown/Ahuja), configurable age/fanout weights.
//! * [`McFifoSwitch`] — a naive multicast FIFO input-queued switch with
//!   oldest-first output arbitration, with or without fanout splitting
//!   (the no-splitting mode demonstrates why splitting is necessary for
//!   throughput, §VI).
//! * [`TwoDrrSwitch`] — Two-Dimensional Round-Robin (LaMaire/Serpanos,
//!   ToN 1994), the diagonal-pattern VOQ scheduler of reference \[9\].
//! * [`SpeedupOqSwitch`] — output queueing with an explicit, finite
//!   internal speedup `S`, measuring §I's claim that OQ needs `S = N`.
//!
//! The input-queued baselines stand for two queue structures, and each
//! is written once, in `common.rs`; a switch adds only its arbiter:
//!
//! * `UnicastVoqs` — `N×N` VOQs of unicast copies, each multicast packet
//!   expanded at admission, plus the [`PacketLedger`] that counts
//!   distinct packets per input. [`IslipSwitch`], [`PimSwitch`] and
//!   [`TwoDrrSwitch`] match over it.
//! * `InputFifos` — one FIFO of multicast cells per input, each cell
//!   tracking the residue of destinations it still owes; only head cells
//!   send. [`TatraSwitch`], [`WbaSwitch`] and [`McFifoSwitch`] arbitrate
//!   over it.
//!
//! [`OqFifoSwitch`] and [`SpeedupOqSwitch`] queue at the outputs instead.
//!
//! All switches implement [`fifoms_fabric::Switch`] and satisfy the same
//! conservation contract as the FIFOMS switch, so the simulation engine
//! and metric pipeline treat them uniformly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod common;
mod islip;
mod oq_speedup;
mod mcfifo;
mod oqfifo;
mod pim;
mod tatra;
mod twodrr;
mod wba;

pub use common::PacketLedger;
pub use islip::IslipSwitch;
pub use mcfifo::McFifoSwitch;
pub use oq_speedup::SpeedupOqSwitch;
pub use oqfifo::OqFifoSwitch;
pub use pim::PimSwitch;
pub use tatra::TatraSwitch;
pub use twodrr::TwoDrrSwitch;
pub use wba::WbaSwitch;

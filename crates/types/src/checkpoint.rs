//! Crash-recovery state codec: a hand-rolled, versioned, CRC-guarded
//! binary format plus the [`Checkpoint`] trait every recoverable component
//! implements (see `DESIGN.md` §15).
//!
//! The format is deliberately boring: little-endian fixed-width integers,
//! length-prefixed byte strings, `f64` carried as IEEE-754 bit patterns
//! (`to_bits`/`from_bits`, so restored floats are *bit-identical*, not
//! merely close), and a single envelope per snapshot:
//!
//! ```text
//! "FMCK" | u16 format | str kind | u16 state_version | u64 len | payload | u32 crc
//! ```
//!
//! The trailing CRC-32 (IEEE 802.3 polynomial) covers every preceding
//! byte, so torn writes, bit flips and truncation are all detected before
//! a single payload field is interpreted. Decoding never panics: every
//! failure mode is a structured [`StateError`] so callers can fall back to
//! the previous valid checkpoint (R3 discipline).

use core::fmt;

use crate::{PacketId, PortId, PortSet, Slot};

/// Envelope magic: "FMCK" (FifoMs ChecKpoint).
pub const STATE_MAGIC: [u8; 4] = *b"FMCK";

/// Version of the envelope/primitive layer itself (not of any one
/// component's payload — components carry their own `state_version`).
pub const STATE_FORMAT_VERSION: u16 = 1;

/// Why a checkpoint blob could not be decoded.
///
/// Every variant is a *recoverable* condition: the supervisor treats any
/// of them as "this checkpoint file is unusable, try the previous one".
#[derive(Clone, PartialEq, Debug)]
pub enum StateError {
    /// The blob ended before a declared field did (torn write /
    /// truncation).
    UnexpectedEof {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// The envelope does not start with [`STATE_MAGIC`].
    BadMagic,
    /// The envelope's format version is newer than this build understands.
    FormatUnsupported {
        /// The version found in the envelope.
        got: u16,
    },
    /// The CRC-32 over the envelope did not match (bit flip / torn tail).
    CrcMismatch {
        /// CRC recorded in the blob.
        stored: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
    /// The blob snapshots a different component than the one restoring.
    KindMismatch {
        /// Kind the restoring component expected.
        expected: String,
        /// Kind recorded in the blob.
        got: String,
    },
    /// The component's payload version is not one this build can read.
    VersionUnsupported {
        /// Component kind (for the error message).
        kind: String,
        /// The payload version found.
        got: u16,
    },
    /// Decoding finished with unconsumed payload bytes — the blob and the
    /// decoder disagree about the field list, so nothing can be trusted.
    TrailingBytes {
        /// Leftover byte count.
        leftover: usize,
    },
    /// A decoded value is structurally impossible (e.g. an enum tag with
    /// no variant, a length that overflows the payload).
    Malformed {
        /// What was wrong.
        what: String,
    },
    /// The component does not support checkpointing at all (default
    /// `Switch`/`TrafficModel` implementations).
    Unsupported {
        /// The component that declined.
        component: String,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::UnexpectedEof { needed, remaining } => write!(
                f,
                "checkpoint truncated: needed {needed} byte(s), {remaining} remaining"
            ),
            StateError::BadMagic => write!(f, "not a checkpoint blob (bad magic)"),
            StateError::FormatUnsupported { got } => write!(
                f,
                "checkpoint format v{got} unsupported (this build reads v{STATE_FORMAT_VERSION})"
            ),
            StateError::CrcMismatch { stored, computed } => write!(
                f,
                "checkpoint CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            StateError::KindMismatch { expected, got } => {
                write!(f, "checkpoint kind mismatch: expected {expected:?}, got {got:?}")
            }
            StateError::VersionUnsupported { kind, got } => {
                write!(f, "checkpoint payload {kind:?} v{got} unsupported")
            }
            StateError::TrailingBytes { leftover } => {
                write!(f, "checkpoint has {leftover} trailing byte(s) after decode")
            }
            StateError::Malformed { what } => write!(f, "malformed checkpoint: {what}"),
            StateError::Unsupported { component } => {
                write!(f, "{component} does not support checkpoint/restore")
            }
        }
    }
}

impl std::error::Error for StateError {}

/// Byte-at-a-time lookup table for [`crc32`]: entry `i` is the register
/// after the byte `i` has been shifted through the reflected IEEE 802.3
/// polynomial `0xEDB8_8320` bit by bit.
const CRC32_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) over `bytes`.
///
/// Table-driven, one lookup per byte: every WAL record and every
/// checkpoint (blob and file frame) runs through it.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Append-only encoder for checkpoint payloads.
///
/// All integers are little-endian; lengths are `u64`; floats travel as
/// raw bit patterns.
#[derive(Default, Debug)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// An empty writer.
    pub fn new() -> StateWriter {
        StateWriter { buf: Vec::new() }
    }

    /// An empty writer that encodes into `buf`'s allocation, discarding
    /// its contents; [`StateWriter::into_bytes`] hands the buffer back, so
    /// a caller encoding once per slot allocates only while it grows.
    pub fn reusing(mut buf: Vec<u8>) -> StateWriter {
        buf.clear();
        StateWriter { buf }
    }

    /// The encoded bytes so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u128` as two little-endian `u64` halves (low, high).
    pub fn put_u128(&mut self, v: u128) {
        self.put_u64(v as u64);
        self.put_u64((v >> 64) as u64);
    }

    /// Append a `usize` widened to `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Append an `f64` as its IEEE-754 bit pattern (bit-exact round trip,
    /// NaN payloads included).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Append a [`Slot`].
    pub fn put_slot(&mut self, v: Slot) {
        self.put_u64(v.0);
    }

    /// Append a [`PortId`].
    pub fn put_port(&mut self, v: PortId) {
        self.put_u16(v.0);
    }

    /// Append a [`PacketId`].
    pub fn put_packet_id(&mut self, v: PacketId) {
        self.put_u64(v.0);
    }

    /// Append an `Option<u64>` as a presence byte plus the value.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_u64(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Append a [`PortSet`] as a port-count prefix plus each member.
    pub fn put_port_set(&mut self, v: &PortSet) {
        self.put_u32(v.len() as u32);
        for p in v.iter() {
            self.put_port(p);
        }
    }
}

/// Bounds-checked decoder over a checkpoint payload.
///
/// Every accessor returns a [`StateError`] instead of panicking when the
/// blob is shorter or stranger than expected.
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> StateReader<'a> {
        StateReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Error unless the reader consumed the payload exactly.
    pub fn expect_exhausted(&self) -> Result<(), StateError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(StateError::TrailingBytes {
                leftover: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        match self.buf.get(self.pos..self.pos + n) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(StateError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            }),
        }
    }

    /// Read one raw byte.
    pub fn get_u8(&mut self) -> Result<u8, StateError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, StateError> {
        let s = self.take(2)?;
        let mut b = [0u8; 2];
        b.copy_from_slice(s);
        Ok(u16::from_le_bytes(b))
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, StateError> {
        let s = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, StateError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Read a `u128` written by [`StateWriter::put_u128`].
    pub fn get_u128(&mut self) -> Result<u128, StateError> {
        let low = self.get_u64()? as u128;
        let high = self.get_u64()? as u128;
        Ok(low | (high << 64))
    }

    /// Read a `u64` and narrow it to `usize`.
    pub fn get_usize(&mut self) -> Result<usize, StateError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| StateError::Malformed {
            what: format!("usize value {v} does not fit this platform"),
        })
    }

    /// Read a `bool` (rejecting bytes other than 0 and 1).
    pub fn get_bool(&mut self) -> Result<bool, StateError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(StateError::Malformed {
                what: format!("bool byte {b}"),
            }),
        }
    }

    /// Read an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, StateError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], StateError> {
        let len = self.get_u64()?;
        let len = usize::try_from(len).map_err(|_| StateError::Malformed {
            what: format!("byte-string length {len}"),
        })?;
        if len > self.remaining() {
            return Err(StateError::UnexpectedEof {
                needed: len,
                remaining: self.remaining(),
            });
        }
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, StateError> {
        let bytes = self.get_bytes()?;
        core::str::from_utf8(bytes).map_err(|_| StateError::Malformed {
            what: "non-UTF-8 string".to_string(),
        })
    }

    /// Read a [`Slot`].
    pub fn get_slot(&mut self) -> Result<Slot, StateError> {
        Ok(Slot(self.get_u64()?))
    }

    /// Read a [`PortId`].
    pub fn get_port(&mut self) -> Result<PortId, StateError> {
        Ok(PortId(self.get_u16()?))
    }

    /// Read a [`PacketId`].
    pub fn get_packet_id(&mut self) -> Result<PacketId, StateError> {
        Ok(PacketId(self.get_u64()?))
    }

    /// Read an `Option<u64>` written by [`StateWriter::put_opt_u64`].
    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, StateError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_u64()?)),
            b => Err(StateError::Malformed {
                what: format!("option tag {b}"),
            }),
        }
    }

    /// Read a [`PortSet`] written by [`StateWriter::put_port_set`].
    pub fn get_port_set(&mut self) -> Result<PortSet, StateError> {
        let count = self.get_u32()?;
        let mut set = PortSet::new();
        for _ in 0..count {
            set.insert(self.get_port()?);
        }
        Ok(set)
    }
}

/// Wrap a component payload in the versioned, CRC-guarded envelope.
pub fn frame_state(kind: &str, state_version: u16, payload: &[u8]) -> Vec<u8> {
    let mut w = StateWriter::new();
    w.buf.extend_from_slice(&STATE_MAGIC);
    w.put_u16(STATE_FORMAT_VERSION);
    w.put_str(kind);
    w.put_u16(state_version);
    w.put_bytes(payload);
    let crc = crc32(&w.buf);
    w.put_u32(crc);
    w.into_bytes()
}

/// Verify and strip the envelope, returning the component payload and its
/// `state_version`. `expected_kind` guards against restoring the wrong
/// component's state.
pub fn unframe_state<'a>(
    blob: &'a [u8],
    expected_kind: &str,
) -> Result<(u16, &'a [u8]), StateError> {
    match blob.get(..4) {
        None => {
            return Err(StateError::UnexpectedEof {
                needed: 4,
                remaining: blob.len(),
            })
        }
        Some(magic) if magic != STATE_MAGIC => return Err(StateError::BadMagic),
        Some(_) => {}
    }
    // The CRC is the last 4 bytes and covers everything before it.
    if blob.len() < 8 {
        return Err(StateError::UnexpectedEof {
            needed: 8,
            remaining: blob.len(),
        });
    }
    let body_len = blob.len() - 4;
    let body = blob.get(..body_len).unwrap_or(&[]);
    let stored = {
        let mut b = [0u8; 4];
        match blob.get(body_len..) {
            Some(tail) if tail.len() == 4 => b.copy_from_slice(tail),
            _ => {
                return Err(StateError::UnexpectedEof {
                    needed: 4,
                    remaining: 0,
                })
            }
        }
        u32::from_le_bytes(b)
    };
    let computed = crc32(body);
    if stored != computed {
        return Err(StateError::CrcMismatch { stored, computed });
    }
    let mut r = StateReader::new(body);
    let _magic = r.take(4)?;
    let format = r.get_u16()?;
    if format != STATE_FORMAT_VERSION {
        return Err(StateError::FormatUnsupported { got: format });
    }
    let kind = r.get_str()?;
    if kind != expected_kind {
        return Err(StateError::KindMismatch {
            expected: expected_kind.to_string(),
            got: kind.to_string(),
        });
    }
    let state_version = r.get_u16()?;
    let payload = r.get_bytes()?;
    r.expect_exhausted()?;
    Ok((state_version, payload))
}

/// A component whose full mutable state can be captured and later
/// restored bit-identically.
///
/// Implementations serialise *every* field that influences future
/// behaviour — queue contents with original arrival stamps, RNG state
/// words, ledgers, latches, free-list chains — in a fixed field order.
/// Containers with nondeterministic iteration (`HashMap`) must be written
/// sorted by key so two snapshots of equal states are byte-equal.
pub trait Checkpoint {
    /// Stable identifier of the component's state layout (e.g.
    /// `"fifoms-core"`). Restoring a blob of a different kind fails with
    /// [`StateError::KindMismatch`].
    fn state_kind(&self) -> &'static str;

    /// Version of this component's payload layout.
    fn state_version(&self) -> u16 {
        1
    }

    /// Serialise the component's mutable state into `w`.
    fn write_state(&self, w: &mut StateWriter);

    /// Restore the component's mutable state from `r`.
    ///
    /// On error the component may be left partially restored; callers
    /// discard it and rebuild from configuration before retrying.
    fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError>;

    /// Capture a framed, CRC-guarded snapshot blob.
    fn snapshot_state(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        self.write_state(&mut w);
        frame_state(self.state_kind(), self.state_version(), &w.into_bytes())
    }

    /// Restore from a blob produced by [`Checkpoint::snapshot_state`].
    fn restore_state(&mut self, blob: &[u8]) -> Result<(), StateError> {
        let (version, payload) = unframe_state(blob, self.state_kind())?;
        if version != self.state_version() {
            return Err(StateError::VersionUnsupported {
                kind: self.state_kind().to_string(),
                got: version,
            });
        }
        let mut r = StateReader::new(payload);
        self.read_state(&mut r)?;
        r.expect_exhausted()
    }
}

/// Serialise one [`DroppedCopy`](crate::DroppedCopy) ledger entry —
/// fault layers carry their undrained reconciled-drop ledgers across
/// checkpoints.
pub fn put_dropped_copy(w: &mut StateWriter, d: &crate::DroppedCopy) {
    w.put_packet_id(d.packet);
    w.put_port(d.input);
    w.put_port(d.output);
    w.put_slot(d.arrival);
    w.put_slot(d.slot);
}

/// Decode one [`DroppedCopy`](crate::DroppedCopy) written by
/// [`put_dropped_copy`].
pub fn get_dropped_copy(r: &mut StateReader<'_>) -> Result<crate::DroppedCopy, StateError> {
    Ok(crate::DroppedCopy {
        packet: r.get_packet_id()?,
        input: r.get_port()?,
        output: r.get_port()?,
        arrival: r.get_slot()?,
        slot: r.get_slot()?,
    })
}

/// Serialise one [`AdmissionDrop`](crate::AdmissionDrop) ledger entry —
/// switches carry their undrained drop ledgers across checkpoints so
/// conservation reconciliation stays exact after recovery.
pub fn put_admission_drop(w: &mut StateWriter, d: &crate::AdmissionDrop) {
    use crate::DropCause as C;
    w.put_packet_id(d.packet);
    w.put_port(d.input);
    w.put_port(d.output);
    w.put_slot(d.arrival);
    w.put_slot(d.slot);
    w.put_u8(match d.cause {
        C::TailFull => 0,
        C::Pushout => 1,
        C::FairShed => 2,
    });
}

/// Decode one [`AdmissionDrop`](crate::AdmissionDrop) written by
/// [`put_admission_drop`].
pub fn get_admission_drop(r: &mut StateReader<'_>) -> Result<crate::AdmissionDrop, StateError> {
    use crate::DropCause as C;
    Ok(crate::AdmissionDrop {
        packet: r.get_packet_id()?,
        input: r.get_port()?,
        output: r.get_port()?,
        arrival: r.get_slot()?,
        slot: r.get_slot()?,
        cause: match r.get_u8()? {
            0 => C::TailFull,
            1 => C::Pushout,
            2 => C::FairShed,
            other => {
                return Err(StateError::Malformed {
                    what: format!("drop cause tag {other}"),
                })
            }
        },
    })
}

/// Serialise one [`InvariantViolation`](crate::InvariantViolation) —
/// `CheckedSwitch` carries its sticky first violation across checkpoints.
pub fn put_violation(w: &mut StateWriter, v: &crate::InvariantViolation) {
    use crate::InvariantViolation as V;
    match v {
        V::DuplicateGrant {
            slot,
            output,
            first_input,
            second_input,
        } => {
            w.put_u8(0);
            w.put_slot(*slot);
            w.put_port(*output);
            w.put_port(*first_input);
            w.put_port(*second_input);
        }
        V::GrantOutsideFanout {
            slot,
            input,
            output,
            packet,
        } => {
            w.put_u8(1);
            w.put_slot(*slot);
            w.put_port(*input);
            w.put_port(*output);
            w.put_packet_id(*packet);
        }
        V::FanoutOverrun {
            slot,
            packet,
            fanout,
            delivered,
        } => {
            w.put_u8(2);
            w.put_slot(*slot);
            w.put_packet_id(*packet);
            w.put_usize(*fanout);
            w.put_usize(*delivered);
        }
        V::LastCopyMismatch {
            slot,
            packet,
            remaining,
            flagged_last,
        } => {
            w.put_u8(3);
            w.put_slot(*slot);
            w.put_packet_id(*packet);
            w.put_usize(*remaining);
            w.put_bool(*flagged_last);
        }
        V::ConservationMismatch {
            slot,
            admitted_copies,
            delivered_copies,
            backlog_copies,
        } => {
            w.put_u8(4);
            w.put_slot(*slot);
            w.put_u64(*admitted_copies);
            w.put_u64(*delivered_copies);
            w.put_u64(*backlog_copies);
        }
        V::CapacityExceeded {
            slot,
            backlog_copies,
            capacity,
        } => {
            w.put_u8(5);
            w.put_slot(*slot);
            w.put_u64(*backlog_copies);
            w.put_u64(*capacity);
        }
    }
}

/// Decode one violation written by [`put_violation`].
pub fn get_violation(
    r: &mut StateReader<'_>,
) -> Result<crate::InvariantViolation, StateError> {
    use crate::InvariantViolation as V;
    let tag = r.get_u8()?;
    Ok(match tag {
        0 => V::DuplicateGrant {
            slot: r.get_slot()?,
            output: r.get_port()?,
            first_input: r.get_port()?,
            second_input: r.get_port()?,
        },
        1 => V::GrantOutsideFanout {
            slot: r.get_slot()?,
            input: r.get_port()?,
            output: r.get_port()?,
            packet: r.get_packet_id()?,
        },
        2 => V::FanoutOverrun {
            slot: r.get_slot()?,
            packet: r.get_packet_id()?,
            fanout: r.get_usize()?,
            delivered: r.get_usize()?,
        },
        3 => V::LastCopyMismatch {
            slot: r.get_slot()?,
            packet: r.get_packet_id()?,
            remaining: r.get_usize()?,
            flagged_last: r.get_bool()?,
        },
        4 => V::ConservationMismatch {
            slot: r.get_slot()?,
            admitted_copies: r.get_u64()?,
            delivered_copies: r.get_u64()?,
            backlog_copies: r.get_u64()?,
        },
        5 => V::CapacityExceeded {
            slot: r.get_slot()?,
            backlog_copies: r.get_u64()?,
            capacity: r.get_u64()?,
        },
        other => {
            return Err(StateError::Malformed {
                what: format!("violation tag {other}"),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Toy {
        a: u64,
        b: f64,
        s: String,
    }

    impl Checkpoint for Toy {
        fn state_kind(&self) -> &'static str {
            "toy"
        }
        fn write_state(&self, w: &mut StateWriter) {
            w.put_u64(self.a);
            w.put_f64(self.b);
            w.put_str(&self.s);
        }
        fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
            self.a = r.get_u64()?;
            self.b = r.get_f64()?;
            self.s = r.get_str()?.to_string();
            Ok(())
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bitwise CRC-32 loop the table replaced, kept as the reference.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_table_matches_the_bitwise_loop() {
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        // Seeded xorshift64 buffers of every length 0..4096.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut buf = Vec::with_capacity(4096);
        for len in 0..4096 {
            buf.clear();
            for _ in 0..len {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                buf.push(x as u8);
            }
            assert_eq!(crc32(&buf), crc32_bitwise(&buf), "length {len}");
        }
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let src = Toy {
            a: 0xDEAD_BEEF_0BAD_F00D,
            b: -0.1f64,
            s: "arrivé".to_string(),
        };
        let blob = src.snapshot_state();
        let mut dst = Toy {
            a: 0,
            b: 0.0,
            s: String::new(),
        };
        dst.restore_state(&blob).expect("restore");
        assert_eq!(dst.a, src.a);
        assert_eq!(dst.b.to_bits(), src.b.to_bits());
        assert_eq!(dst.s, src.s);
    }

    #[test]
    fn corruption_is_rejected_not_panicked() {
        let src = Toy {
            a: 7,
            b: 1.5,
            s: "x".to_string(),
        };
        let blob = src.snapshot_state();
        let mut dst = Toy {
            a: 0,
            b: 0.0,
            s: String::new(),
        };
        // Bit flip anywhere must surface as CrcMismatch (or BadMagic for
        // the first bytes), never a panic.
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x40;
            let err = dst.restore_state(&bad).expect_err("corrupt accepted");
            assert!(
                matches!(
                    err,
                    StateError::CrcMismatch { .. } | StateError::BadMagic
                ),
                "byte {i}: unexpected error {err:?}"
            );
        }
        // Truncation at every prefix length must also be structured.
        for len in 0..blob.len() {
            let err = dst
                .restore_state(&blob[..len])
                .expect_err("truncated accepted");
            assert!(
                matches!(
                    err,
                    StateError::UnexpectedEof { .. }
                        | StateError::CrcMismatch { .. }
                        | StateError::BadMagic
                ),
                "len {len}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn kind_and_version_are_guarded() {
        let src = Toy {
            a: 1,
            b: 2.0,
            s: "k".to_string(),
        };
        let blob = src.snapshot_state();
        assert!(matches!(
            unframe_state(&blob, "other"),
            Err(StateError::KindMismatch { .. })
        ));
        let reframed = frame_state("toy", 99, b"payload");
        let mut dst = Toy {
            a: 0,
            b: 0.0,
            s: String::new(),
        };
        assert!(matches!(
            dst.restore_state(&reframed),
            Err(StateError::VersionUnsupported { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = StateWriter::new();
        w.put_u64(1);
        w.put_u64(2); // one u64 more than Toy-with-one-field would read
        struct OneField(u64);
        impl Checkpoint for OneField {
            fn state_kind(&self) -> &'static str {
                "one"
            }
            fn write_state(&self, w: &mut StateWriter) {
                w.put_u64(self.0);
            }
            fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
                self.0 = r.get_u64()?;
                Ok(())
            }
        }
        let blob = frame_state("one", 1, &w.into_bytes());
        let mut dst = OneField(0);
        assert!(matches!(
            dst.restore_state(&blob),
            Err(StateError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn violation_codec_round_trips() {
        use crate::{InvariantViolation, PortId, Slot};
        let violations = vec![
            InvariantViolation::DuplicateGrant {
                slot: Slot(1),
                output: PortId(2),
                first_input: PortId(0),
                second_input: PortId(3),
            },
            InvariantViolation::ConservationMismatch {
                slot: Slot(9),
                admitted_copies: 100,
                delivered_copies: 90,
                backlog_copies: 11,
            },
            InvariantViolation::CapacityExceeded {
                slot: Slot(5),
                backlog_copies: 33,
                capacity: 32,
            },
        ];
        let mut w = StateWriter::new();
        for v in &violations {
            put_violation(&mut w, v);
        }
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        for v in &violations {
            assert_eq!(&get_violation(&mut r).expect("violation"), v);
        }
        assert!(r.is_exhausted());
    }

    #[test]
    fn violation_codec_covers_every_variant_and_refuses_unknown_tags() {
        use crate::{InvariantViolation, PacketId, PortId, Slot};
        let violations = vec![
            InvariantViolation::GrantOutsideFanout {
                slot: Slot(4),
                input: PortId(1),
                output: PortId(6),
                packet: PacketId(77),
            },
            InvariantViolation::FanoutOverrun {
                slot: Slot(8),
                packet: PacketId(78),
                fanout: 3,
                delivered: 4,
            },
            InvariantViolation::LastCopyMismatch {
                slot: Slot(12),
                packet: PacketId(79),
                remaining: 2,
                flagged_last: true,
            },
        ];
        let mut w = StateWriter::new();
        for v in &violations {
            put_violation(&mut w, v);
        }
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        for v in &violations {
            assert_eq!(&get_violation(&mut r).expect("violation"), v);
        }
        assert!(r.is_exhausted());

        let mut r = StateReader::new(&[6]);
        let err = get_violation(&mut r).unwrap_err();
        assert!(
            matches!(&err, StateError::Malformed { what } if what == "violation tag 6"),
            "{err}"
        );
    }

    #[test]
    fn drop_ledger_codecs_round_trip_every_cause() {
        use crate::{AdmissionDrop, DropCause, DroppedCopy, PacketId, PortId, Slot};
        let copy = DroppedCopy {
            packet: PacketId(u64::MAX),
            input: PortId(3),
            output: PortId(u16::MAX),
            arrival: Slot(10),
            slot: Slot(25),
        };
        let drops: Vec<AdmissionDrop> =
            [DropCause::TailFull, DropCause::Pushout, DropCause::FairShed]
                .into_iter()
                .enumerate()
                .map(|(i, cause)| AdmissionDrop {
                    packet: PacketId(i as u64),
                    input: PortId(i as u16),
                    output: PortId(7 - i as u16),
                    arrival: Slot(100 + i as u64),
                    slot: Slot(200 + i as u64),
                    cause,
                })
                .collect();
        let mut w = StateWriter::new();
        put_dropped_copy(&mut w, &copy);
        for d in &drops {
            put_admission_drop(&mut w, d);
        }
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(get_dropped_copy(&mut r).expect("copy"), copy);
        for d in &drops {
            assert_eq!(&get_admission_drop(&mut r).expect("drop"), d);
        }
        assert!(r.is_exhausted());

        // The cause byte is the record's last; a tag past `FairShed` is
        // refused rather than read as some other cause.
        let mut w = StateWriter::new();
        put_admission_drop(&mut w, &drops[0]);
        let mut bytes = w.into_bytes();
        *bytes.last_mut().expect("cause byte") = 3;
        let err = get_admission_drop(&mut StateReader::new(&bytes)).unwrap_err();
        assert!(
            matches!(&err, StateError::Malformed { what } if what == "drop cause tag 3"),
            "{err}"
        );
    }

    #[test]
    fn primitives_round_trip_at_their_extremes() {
        let mut w = StateWriter::new();
        w.put_u8(u8::MAX);
        w.put_u16(0xBEEF);
        w.put_u32(u32::MAX - 1);
        w.put_u128(u128::MAX - 0xFFFF_FFFF_FFFF_FFFF_FFFF);
        w.put_bool(true);
        w.put_bool(false);
        w.put_bytes(&[]);
        w.put_bytes(&[0, 1, 2]);
        w.put_slot(Slot(u64::MAX));
        w.put_port(PortId(u16::MAX));
        w.put_packet_id(PacketId(42));
        w.put_opt_u64(None);
        w.put_opt_u64(Some(0));
        // 1 + 2 + 4 + 16 + 2 + (8 + 8 + 3) + 8 + 2 + 8 + 1 + 9 bytes.
        assert_eq!(w.len(), 72);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), u8::MAX);
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), u32::MAX - 1);
        assert_eq!(
            r.get_u128().unwrap(),
            u128::MAX - 0xFFFF_FFFF_FFFF_FFFF_FFFF
        );
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_bytes().unwrap(), &[] as &[u8]);
        assert_eq!(r.get_bytes().unwrap(), &[0, 1, 2]);
        assert_eq!(r.get_slot().unwrap(), Slot(u64::MAX));
        assert_eq!(r.get_port().unwrap(), PortId(u16::MAX));
        assert_eq!(r.get_packet_id().unwrap(), PacketId(42));
        assert_eq!(r.remaining(), 10);
        assert_eq!(r.get_opt_u64().unwrap(), None);
        assert_eq!(r.get_opt_u64().unwrap(), Some(0));
        r.expect_exhausted().expect("every byte read");
    }

    #[test]
    fn bool_and_option_tags_other_than_0_or_1_are_malformed() {
        let err = StateReader::new(&[2]).get_bool().unwrap_err();
        assert!(
            matches!(&err, StateError::Malformed { what } if what == "bool byte 2"),
            "{err}"
        );
        let err = StateReader::new(&[7, 0, 0, 0, 0, 0, 0, 0, 0])
            .get_opt_u64()
            .unwrap_err();
        assert!(
            matches!(&err, StateError::Malformed { what } if what == "option tag 7"),
            "{err}"
        );
        // A `Some` tag with a short value is a truncation, not a `None`.
        let err = StateReader::new(&[1, 0, 0]).get_opt_u64().unwrap_err();
        assert!(
            matches!(
                err,
                StateError::UnexpectedEof {
                    needed: 8,
                    remaining: 2
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn port_set_round_trips() {
        let mut set = PortSet::new();
        for p in [0usize, 3, 7, 127, 128, 200] {
            set.insert(PortId::new(p));
        }
        let mut w = StateWriter::new();
        w.put_port_set(&set);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_port_set().expect("set"), set);
        assert!(r.is_exhausted());
    }
}

//! R8 fixture (good): full field coverage, a generic-typed inner value
//! (travels in its own frame), and comment-documented exclusions.
//! `write_state` never names `ring_cap` or `scratch`, so neither is part
//! of the state fingerprint. Never compiled.

pub struct Counters<S> {
    inner: S,
    served: u64,
    dropped: u64,
    ring_cap: usize,
    scratch: Vec<u64>,
}

impl<S> Checkpoint for Counters<S> {
    fn state_kind(&self) -> &'static str {
        "counters"
    }

    fn state_version(&self) -> u32 {
        2
    }

    // ring_cap is configuration, re-established by the constructor, and
    // scratch holds nothing between calls.
    fn write_state(&self, w: &mut StateWriter) {
        w.u64(self.served);
        w.u64(self.dropped);
    }

    fn read_state(&mut self, r: &mut StateReader) -> Result<(), StateError> {
        self.served = r.u64()?;
        self.dropped = r.u64()?;
        Ok(())
    }
}

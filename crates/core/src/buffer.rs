//! Finite-buffer configuration for the multicast VOQ switch.
//!
//! The paper's model (and this reproduction's default) gives every VOQ
//! unbounded depth, which is the right abstraction for studying the
//! scheduler but the wrong one for studying overload: under inadmissible
//! load an unbounded switch silently converts instability into memory
//! growth. [`BufferConfig`] bounds the queue structure the way a real
//! line card does — per-VOQ address-cell limits, a per-input aggregate
//! limit, and a pluggable [`AdmissionPolicy`] deciding which copies to
//! shed when the limits bind.
//!
//! The default configuration is unbounded on both axes, and the switch's
//! admission path takes the exact pre-existing code path in that case, so
//! bit-identity with the infinite-buffer model is structural, not
//! coincidental.

/// Soft high-water mark (address cells in one VOQ) above which the switch
/// emits a [`VoqHighWater`](fifoms_types::ObsEvent::VoqHighWater) warning
/// event, once per queue per run — even with finite-buffer limits
/// disabled. Unbounded growth should be visible in traces long before it
/// is visible in `rss`.
pub const SOFT_HIGH_WATER: usize = 1024;

/// Which copies finite-buffer admission control sheds when a limit binds.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AdmissionPolicy {
    /// Refuse the *arriving* copy whenever its VOQ or the input aggregate
    /// is full (classic drop-tail).
    #[default]
    DropTail,
    /// Drop-tail at the per-VOQ limit, but when only the input aggregate
    /// binds, evict the tail cell of the longest VOQ at the input to make
    /// room for an arriving cell headed to a shorter queue. Eviction
    /// always takes a queue *tail* — the youngest stamp — so head-to-tail
    /// nondecreasing stamp order (Theorem 1's premise) is preserved and
    /// no arrival stamp is ever re-minted.
    Pushout,
    /// When limits bind, shed the arriving copies destined to the longest
    /// VOQs first: flows already holding the most buffer lose service
    /// before lightly-loaded flows do.
    FairShed,
}

impl AdmissionPolicy {
    /// Stable lowercase tag used in switch names and JSON exports.
    pub fn as_str(&self) -> &'static str {
        match self {
            AdmissionPolicy::DropTail => "drop_tail",
            AdmissionPolicy::Pushout => "pushout",
            AdmissionPolicy::FairShed => "fair_shed",
        }
    }
}

/// Capacity limits and shedding policy for one switch.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BufferConfig {
    /// Maximum address cells per VOQ (`None` = unbounded).
    pub voq_cap: Option<usize>,
    /// Maximum address cells per input across all its VOQs
    /// (`None` = unbounded).
    pub input_cap: Option<usize>,
    /// Which copies to shed when a limit binds.
    pub policy: AdmissionPolicy,
}

impl BufferConfig {
    /// The default unbounded configuration (today's paper model).
    pub fn unbounded() -> BufferConfig {
        BufferConfig::default()
    }

    /// Drop-tail with the given per-VOQ and per-input limits
    /// (`0` = unbounded on that axis, for CLI ergonomics).
    pub fn bounded(voq_cap: usize, input_cap: usize) -> BufferConfig {
        BufferConfig {
            voq_cap: (voq_cap > 0).then_some(voq_cap),
            input_cap: (input_cap > 0).then_some(input_cap),
            policy: AdmissionPolicy::DropTail,
        }
    }

    /// Replace the shedding policy (builder style).
    pub fn with_policy(mut self, policy: AdmissionPolicy) -> BufferConfig {
        self.policy = policy;
        self
    }

    /// Whether any limit is configured. When `false`, the switch's
    /// admission path is byte-for-byte the unbounded one.
    pub fn is_bounded(&self) -> bool {
        self.voq_cap.is_some() || self.input_cap.is_some()
    }

    /// The tightest whole-switch capacity in copies implied by the limits
    /// for an `n×n` switch (`None` when unbounded). This is the bound a
    /// conservation checker can enforce as `backlog <= capacity`.
    pub fn max_copies(&self, n: usize) -> Option<u64> {
        let per_input = match (self.input_cap, self.voq_cap) {
            (Some(agg), Some(voq)) => Some(agg.min(voq * n)),
            (Some(agg), None) => Some(agg),
            (None, Some(voq)) => Some(voq * n),
            (None, None) => None,
        };
        per_input.map(|c| (c * n) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unbounded() {
        let cfg = BufferConfig::default();
        assert!(!cfg.is_bounded());
        assert_eq!(cfg.max_copies(16), None);
        assert_eq!(cfg.policy, AdmissionPolicy::DropTail);
    }

    #[test]
    fn bounded_zero_means_unbounded_axis() {
        let cfg = BufferConfig::bounded(0, 32);
        assert_eq!(cfg.voq_cap, None);
        assert_eq!(cfg.input_cap, Some(32));
        assert!(cfg.is_bounded());
        let cfg = BufferConfig::bounded(4, 0);
        assert_eq!(cfg.voq_cap, Some(4));
        assert_eq!(cfg.input_cap, None);
    }

    #[test]
    fn max_copies_takes_the_tighter_limit() {
        // voq_cap 4 over 8 outputs = 32 per input; aggregate 16 is tighter.
        assert_eq!(BufferConfig::bounded(4, 16).max_copies(8), Some(16 * 8));
        // aggregate 64 looser than 4*8=32.
        assert_eq!(BufferConfig::bounded(4, 64).max_copies(8), Some(32 * 8));
        assert_eq!(BufferConfig::bounded(4, 0).max_copies(8), Some(32 * 8));
        assert_eq!(BufferConfig::bounded(0, 10).max_copies(8), Some(80));
    }

    #[test]
    fn policy_tags_are_stable() {
        assert_eq!(AdmissionPolicy::DropTail.as_str(), "drop_tail");
        assert_eq!(AdmissionPolicy::Pushout.as_str(), "pushout");
        assert_eq!(AdmissionPolicy::FairShed.as_str(), "fair_shed");
    }
}

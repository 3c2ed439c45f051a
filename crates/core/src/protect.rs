//! Protection policy for cache-resident K/V state.
//!
//! A stream's caches either carry the paper's protection or none:
//! [`ProtectionLevel`] is the per-stream switch. It rides on
//! [`GenerationRequest`](crate::serve::GenerationRequest), travels with
//! the stream through scheduling, parking, migration and recovery, and is
//! applied to the stream's [`KvCache`](crate::kv::KvCache)s at creation.
//!
//! ```text
//!        Full            fold each row in on append, behind one verifying
//!         │              read of the ragged trailing block per append;
//!         │              verify every attended read, locate/correct or
//!         │              poison                                 (default)
//!        Raw             no checksums, no max-norms, raw reads,
//!                        no poison, no recovery            (baseline)
//! ```
//!
//! Invariants the equivalence suites pin:
//!
//! * `Full` is the default, so every equivalence suite pins its output
//!   bits and ledgers on every backend.
//! * `Raw` caches report zero checksum bytes
//!   ([`size_breakdown`](crate::kv::KvCache::size_breakdown)) and never
//!   set sticky poison, so no recovery policy ever fires for them.

use core::fmt;

/// Per-stream KV-cache protection level.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum ProtectionLevel {
    /// Fold checksums in on append — after one verifying read of the
    /// ragged trailing block — and verify on every attended read,
    /// locate/correct or poison.
    #[default]
    Full,
    /// No cache protection at all: no checksums or max-norms encoded,
    /// reads are raw, nothing poisons, no recovery ever triggers. The
    /// unprotected baseline of the campaign sweeps.
    Raw,
}

impl ProtectionLevel {
    /// Whether caches at this level encode checksum/max-norm metadata.
    /// `false` only for `Raw`.
    pub fn encodes_metadata(&self) -> bool {
        !matches!(self, ProtectionLevel::Raw)
    }
}

impl fmt::Display for ProtectionLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtectionLevel::Full => write!(f, "full"),
            ProtectionLevel::Raw => write!(f, "raw"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full() {
        assert_eq!(ProtectionLevel::default(), ProtectionLevel::Full);
    }

    #[test]
    fn lattice_helpers() {
        assert!(ProtectionLevel::Full.encodes_metadata());
        assert!(!ProtectionLevel::Raw.encodes_metadata());
    }
}

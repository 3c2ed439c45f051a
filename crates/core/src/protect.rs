//! Graded protection policy for cache-resident K/V state.
//!
//! Every stream today pays the [`Full`](ProtectionLevel::Full) price:
//! FP32 strided checksums folded in on append and verified on every
//! attended read. That metadata rivals the FP16 payload at small head
//! dims, and ApproxABFT/ALBERTA-style results show selective or
//! approximate protection recovers most of the resilience at a fraction
//! of the overhead. [`ProtectionLevel`] is the per-stream knob: it rides
//! on [`GenerationRequest`](crate::serve::GenerationRequest), travels
//! with the stream through scheduling, parking, migration and recovery,
//! and is applied to the stream's [`KvCache`](crate::kv::KvCache)s at
//! creation.
//!
//! The lattice, strongest to weakest:
//!
//! ```text
//!        Full            fold each row in on append, behind one verifying
//!         │              read of the ragged trailing block per append;
//!         │              verify every attended read, locate/correct or
//!         │              poison                                 (default)
//!        Lazy            same metadata, same fold; that pre-append read
//!         │              is left to the next attended read
//!   Approximate{tol}     verify, but residuals |d1| ≤ tol are tolerated
//!         │              (counted, not corrected, never poison)
//!        Raw             no checksums, no max-norms, raw reads,
//!                        no poison, no recovery            (baseline)
//! ```
//!
//! Invariants the equivalence suites pin:
//!
//! * `Full` is bit-identical to the pre-lattice behaviour on every
//!   backend — it *is* the legacy path, untouched.
//! * `Raw` caches report zero checksum bytes
//!   ([`size_breakdown`](crate::kv::KvCache::size_breakdown)) and never
//!   set sticky poison, so no recovery policy ever fires for them.
//! * `Lazy`/`Approximate` carry the same metadata bytes as `Full`; only
//!   the verify policy differs. `Full` and `Lazy` write rows by the same
//!   incremental fold ([`KvCache::append`](crate::kv::KvCache::append)) and
//!   differ by exactly one branch: whether an append first reads the ragged
//!   trailing block back and heals it. (Whether the lattice needs both
//!   rungs is a question for the metadata-diet work, not settled here.)

use core::fmt;
use core::str::FromStr;

/// Default residual tolerance for [`ProtectionLevel::Approximate`] when
/// parsed from a bare `"approx"` (no explicit tolerance).
pub const DEFAULT_APPROX_TOL: f32 = 1e-2;

/// Per-stream KV-cache protection level.
///
/// Ordered strongest → weakest: `Full`, `Lazy`, `Approximate`, `Raw`.
/// See the [module docs](self) for the exact semantics of each rung.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum ProtectionLevel {
    /// Fold checksums in on append — after one verifying read of the
    /// ragged trailing block — and verify on every attended read,
    /// locate/correct or poison. Bit-identical to the pre-lattice legacy
    /// behaviour.
    #[default]
    Full,
    /// `Full` minus the pre-append verifying read, and nothing else:
    /// damage in an unfinished block is caught at the next attended read
    /// instead of at append.
    Lazy,
    /// Verify as `Full`, but checksum residuals with `|d1| <= tol` are
    /// *tolerated*: counted in the `cache_tolerated` ledger and left in
    /// place, never located/corrected and never poisoning the block
    /// (per ApproxABFT).
    Approximate {
        /// Largest absolute column/row checksum residual that is
        /// absorbed without correction.
        tol: f32,
    },
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

    /// The residual tolerance, when this level tolerates residuals.
    pub fn tolerance(&self) -> Option<f32> {
        match self {
            ProtectionLevel::Approximate { tol } => Some(*tol),
            _ => None,
        }
    }

    /// Whether the append-time ragged-block heal is deferred to reads.
    pub fn defers_append_heal(&self) -> bool {
        matches!(self, ProtectionLevel::Lazy)
    }

    /// Position in the lattice, strongest (0 = `Full`) to weakest
    /// (3 = `Raw`). Useful for ordering sweep output.
    pub fn rank(&self) -> u8 {
        match self {
            ProtectionLevel::Full => 0,
            ProtectionLevel::Lazy => 1,
            ProtectionLevel::Approximate { .. } => 2,
            ProtectionLevel::Raw => 3,
        }
    }
}

impl fmt::Display for ProtectionLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtectionLevel::Full => write!(f, "full"),
            ProtectionLevel::Lazy => write!(f, "lazy"),
            ProtectionLevel::Approximate { tol } => write!(f, "approx({tol})"),
            ProtectionLevel::Raw => write!(f, "raw"),
        }
    }
}

impl FromStr for ProtectionLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        match s {
            "full" => return Ok(ProtectionLevel::Full),
            "lazy" => return Ok(ProtectionLevel::Lazy),
            "raw" => return Ok(ProtectionLevel::Raw),
            "approx" => {
                return Ok(ProtectionLevel::Approximate {
                    tol: DEFAULT_APPROX_TOL,
                })
            }
            _ => {}
        }
        if let Some(inner) = s.strip_prefix("approx(").and_then(|r| r.strip_suffix(')')) {
            let tol: f32 = inner
                .trim()
                .parse()
                .map_err(|_| format!("bad approx tolerance: {inner:?}"))?;
            if !(tol.is_finite() && tol >= 0.0) {
                return Err(format!(
                    "approx tolerance must be finite and >= 0, got {tol}"
                ));
            }
            return Ok(ProtectionLevel::Approximate { tol });
        }
        Err(format!(
            "unknown protection level {s:?} (expected full | lazy | approx | approx(TOL) | raw)"
        ))
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
    fn display_round_trips_through_from_str() {
        let levels = [
            ProtectionLevel::Full,
            ProtectionLevel::Lazy,
            ProtectionLevel::Approximate { tol: 0.25 },
            ProtectionLevel::Raw,
        ];
        for l in levels {
            let parsed: ProtectionLevel = l.to_string().parse().unwrap();
            assert_eq!(parsed, l, "round trip of {l}");
        }
    }

    #[test]
    fn parse_accepts_bare_approx_and_rejects_garbage() {
        assert_eq!(
            "approx".parse::<ProtectionLevel>().unwrap(),
            ProtectionLevel::Approximate {
                tol: DEFAULT_APPROX_TOL
            }
        );
        assert!("approx(nope)".parse::<ProtectionLevel>().is_err());
        assert!("approx(-1.0)".parse::<ProtectionLevel>().is_err());
        assert!("paranoid".parse::<ProtectionLevel>().is_err());
    }

    #[test]
    fn lattice_helpers() {
        assert!(ProtectionLevel::Full.encodes_metadata());
        assert!(ProtectionLevel::Lazy.encodes_metadata());
        assert!(!ProtectionLevel::Raw.encodes_metadata());
        assert_eq!(
            ProtectionLevel::Approximate { tol: 0.5 }.tolerance(),
            Some(0.5)
        );
        assert_eq!(ProtectionLevel::Full.tolerance(), None);
        assert!(ProtectionLevel::Lazy.defers_append_heal());
        assert!(!ProtectionLevel::Approximate { tol: 0.5 }.defers_append_heal());
        let mut ranks: Vec<u8> = [
            ProtectionLevel::Raw,
            ProtectionLevel::Full,
            ProtectionLevel::Approximate { tol: 0.1 },
            ProtectionLevel::Lazy,
        ]
        .iter()
        .map(|l| l.rank())
        .collect();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2, 3]);
    }
}

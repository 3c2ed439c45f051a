//! Soft-error injection for simulated computing units.
//!
//! Fault model (paper §2.2): transient *computing-unit* faults — bit flips in
//! values produced by arithmetic/logic units. Memory faults are assumed
//! handled by ECC and interconnect faults by FT-MPI, so the injector only
//! corrupts freshly computed results, never stored tensors.
//!
//! Two regimes are provided:
//!
//! * [`SeuInjector`] — the single-event-upset assumption used by the paper's
//!   correction experiments: exactly one targeted flip at a chosen site and
//!   coordinate per detection/correction interval.
//! * [`BerInjector`] — a per-operation bit-error-rate used by the coverage
//!   sweeps of Fig. 12: every arithmetic operation independently flips one
//!   uniformly chosen result bit with probability `ber`.
//!
//! Injection must be deterministic under rayon parallelism, so randomness is
//! *stateless*: a hash of `(seed, site, coordinate)` decides whether and
//! where a flip occurs. Re-running a kernel with the same injector reproduces
//! the same faults regardless of thread scheduling; only fired-fault
//! counters use atomics.

use core::sync::atomic::{AtomicU64, Ordering};
use ft_num::rng::mix64;
use ft_num::F16;

/// Which functional unit produced the value being (possibly) corrupted.
///
/// The taxonomy mirrors the operations of Algorithm 1 in the paper; the
/// hybrid fault-tolerance scheme assigns a different protection mechanism to
/// each of these.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Tensor-core FMA chain producing an element of S = QKᵀ (GEMM I).
    GemmIAccum,
    /// Tensor-core FMA chain producing an element of O += P·V (GEMM II).
    GemmIiAccum,
    /// Scalar subtraction s − m (stabilised-softmax numerator input).
    Subtract,
    /// SFU exponential unit computing exp(s − m).
    ExpUnit,
    /// Reduce-max unit (row max of a score block).
    MaxReduce,
    /// Reduce-sum unit (row sum ℓ of exponentials).
    SumReduce,
    /// Rescale multiply by exp(m_prev − m_new).
    Rescale,
    /// Final normalisation divide by ℓ.
    Normalize,
    /// Generic feed-forward / projection GEMM accumulation.
    LinearAccum,
    /// Activation function unit in the feed-forward module.
    Activation,
    /// Cache-resident state: an FP16 K/V element sitting in a decode cache
    /// between steps. The paper's prefill kernels assume ECC makes stored
    /// tensors safe, but serving-scale KV caches are long-lived and large
    /// enough that undetected upsets in cached state matter (the ALBERTA
    /// argument); this site lets campaigns target exactly that residency
    /// window via `KvCache::expose`.
    KvCache,
}

impl FaultSite {
    /// Stable small integer id used for hashing.
    fn id(self) -> u64 {
        match self {
            FaultSite::GemmIAccum => 1,
            FaultSite::GemmIiAccum => 2,
            FaultSite::Subtract => 3,
            FaultSite::ExpUnit => 4,
            FaultSite::MaxReduce => 5,
            FaultSite::SumReduce => 6,
            FaultSite::Rescale => 7,
            FaultSite::Normalize => 8,
            FaultSite::LinearAccum => 9,
            FaultSite::Activation => 10,
            FaultSite::KvCache => 11,
        }
    }

    /// All sites, for exhaustive injection tests.
    pub const ALL: [FaultSite; 11] = [
        FaultSite::GemmIAccum,
        FaultSite::GemmIiAccum,
        FaultSite::Subtract,
        FaultSite::ExpUnit,
        FaultSite::MaxReduce,
        FaultSite::SumReduce,
        FaultSite::Rescale,
        FaultSite::Normalize,
        FaultSite::LinearAccum,
        FaultSite::Activation,
        FaultSite::KvCache,
    ];
}

/// Logical coordinate of an operation: enough to identify it uniquely and
/// deterministically across parallel schedules.
///
/// Conventions: `slot` is the flattened (batch, head) index — or the layer
/// index for feed-forward sites; `i`/`j` address the output element; `k`
/// disambiguates multiple ops per element (e.g. the inner-loop iteration of
/// flash attention, or the FMA index inside an accumulation chain).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OpCoord {
    /// Flattened (batch, head) slot or layer index.
    pub slot: u64,
    /// Output row.
    pub i: u64,
    /// Output column.
    pub j: u64,
    /// Sub-operation index (block iteration, k-step…).
    pub k: u64,
}

impl OpCoord {
    /// Convenience constructor.
    pub fn new(slot: usize, i: usize, j: usize, k: usize) -> Self {
        OpCoord {
            slot: slot as u64,
            i: i as u64,
            j: j as u64,
            k: k as u64,
        }
    }
}

/// Stateless hash of (seed, site, coord) → u64.
#[inline]
fn coord_hash(seed: u64, site: FaultSite, c: OpCoord) -> u64 {
    coord_hash_tail(coord_hash_prefix(seed, site, c.slot, c.i), c.j, c.k)
}

/// The `(seed, site, slot, i)` prefix of [`coord_hash`]: a row of
/// coordinates sharing it hashes each element with only the tail.
#[inline]
fn coord_hash_prefix(seed: u64, site: FaultSite, slot: u64, i: u64) -> u64 {
    let mut h = seed ^ 0x5851_F42D_4C95_7F2D;
    h = mix64(h.wrapping_add(site.id().wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    h = mix64(h ^ slot.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    mix64(h ^ i.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// The `(j, k)` tail of [`coord_hash`] over a prefix.
#[inline]
fn coord_hash_tail(prefix: u64, j: u64, k: u64) -> u64 {
    let h = mix64(prefix ^ j.wrapping_mul(0xE703_7ED1_A0B4_28DB));
    mix64(h ^ k.wrapping_mul(0x8EBC_6AF0_9C88_C6E3))
}

/// A fault fired inside an accumulation chain: after FMA step `step`, bit
/// `bit` of the f32 accumulator flips.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainFault {
    /// FMA index after which the accumulator is corrupted (0-based).
    pub step: usize,
    /// Bit of the f32 accumulator to flip.
    pub bit: u32,
}

/// A fault injector corrupts values produced by simulated compute units.
///
/// Implementations must be `Sync`: kernels call them from rayon workers.
pub trait FaultInjector: Sync {
    /// Possibly corrupt an f32 result produced at `site`/`coord`.
    fn corrupt_f32(&self, site: FaultSite, coord: OpCoord, value: f32) -> f32;

    /// Possibly corrupt an f16 result produced at `site`/`coord`.
    fn corrupt_f16(&self, site: FaultSite, coord: OpCoord, value: F16) -> F16;

    /// Offer a row of stored f16 values to [`corrupt_f16`] in place: element
    /// `j` of `row` sits at `OpCoord { slot, i, j, k }`. Cache exposure
    /// calls this once per resident row instead of once per element.
    ///
    /// The default is exactly the per-element loop in column order; an
    /// override must make the same decisions (same bits, same
    /// [`fired`](FaultInjector::fired) count) — it may only do them faster,
    /// e.g. by hashing the coordinate prefix the row shares once.
    ///
    /// [`corrupt_f16`]: FaultInjector::corrupt_f16
    fn corrupt_f16_row(&self, site: FaultSite, slot: u64, i: u64, k: u64, row: &mut [F16]) {
        for (j, v) in row.iter_mut().enumerate() {
            *v = self.corrupt_f16(
                site,
                OpCoord {
                    slot,
                    i,
                    j: j as u64,
                    k,
                },
                *v,
            );
        }
    }

    /// Decide whether the accumulation chain of length `k_len` producing
    /// output element `coord` suffers a fault, and where.
    ///
    /// GEMM kernels query this once per output element instead of hashing
    /// per FMA; a BER injector translates its per-operation rate into the
    /// per-chain rate `1 − (1 − ber)^k_len`, so the statistics match
    /// querying every FMA individually (up to the negligible probability of
    /// two faults in one chain under the SEU regime).
    fn decide_chain(&self, site: FaultSite, coord: OpCoord, k_len: usize) -> Option<ChainFault> {
        let _ = (site, coord, k_len);
        None
    }

    /// Number of faults fired so far (for campaign accounting).
    fn fired(&self) -> u64 {
        0
    }

    /// False only when no query at `site` can ever fire, so a kernel may
    /// skip asking: the injected GEMMs run their clean kernel and make the
    /// per-chain [`decide_chain`](FaultInjector::decide_chain) queries only
    /// when this is true, and cache exposure returns early on
    /// `!may_fire(FaultSite::KvCache)`.
    ///
    /// Must be conservative: `true` is always correct, `false` promises that
    /// every query at `site` returns the clean value with no side effect
    /// (no [`fired`](FaultInjector::fired) count). The default is `true`
    /// at every site.
    fn may_fire(&self, site: FaultSite) -> bool {
        let _ = site;
        true
    }
}

/// Injector that never fires; the error-free baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    #[inline]
    fn corrupt_f32(&self, _: FaultSite, _: OpCoord, value: f32) -> f32 {
        value
    }
    #[inline]
    fn corrupt_f16(&self, _: FaultSite, _: OpCoord, value: F16) -> F16 {
        value
    }
    #[inline]
    fn may_fire(&self, _: FaultSite) -> bool {
        false
    }
}

/// Single-event upset: flips exactly one chosen bit of the value produced at
/// one exact (site, coordinate). The paper's SEU assumption (§2.2) allows at
/// most one error per detection/correction cycle; experiments place one
/// `SeuInjector` per protected region.
#[derive(Debug)]
pub struct SeuInjector {
    site: FaultSite,
    coord: OpCoord,
    /// Bit to flip. For f32 targets 0..32, for f16 targets 0..16.
    bit: u32,
    /// FMA step targeted when the site is an accumulation chain.
    chain_step: u32,
    fired: AtomicU64,
}

impl SeuInjector {
    /// Flip `bit` of the value produced at exactly (site, coord).
    pub fn new(site: FaultSite, coord: OpCoord, bit: u32) -> Self {
        SeuInjector {
            site,
            coord,
            bit,
            chain_step: 0,
            fired: AtomicU64::new(0),
        }
    }

    /// Target FMA step `step` inside accumulation chains (GEMM sites).
    pub fn at_chain_step(mut self, step: u32) -> Self {
        self.chain_step = step;
        self
    }
}

impl FaultInjector for SeuInjector {
    fn corrupt_f32(&self, site: FaultSite, coord: OpCoord, value: f32) -> f32 {
        if site == self.site && coord == self.coord {
            self.fired.fetch_add(1, Ordering::Relaxed);
            f32::from_bits(value.to_bits() ^ (1u32 << (self.bit % 32)))
        } else {
            value
        }
    }

    fn corrupt_f16(&self, site: FaultSite, coord: OpCoord, value: F16) -> F16 {
        if site == self.site && coord == self.coord {
            self.fired.fetch_add(1, Ordering::Relaxed);
            value.flip_bit(self.bit % 16)
        } else {
            value
        }
    }

    fn decide_chain(&self, site: FaultSite, coord: OpCoord, k_len: usize) -> Option<ChainFault> {
        if site == self.site && coord == self.coord {
            self.fired.fetch_add(1, Ordering::Relaxed);
            Some(ChainFault {
                step: (self.chain_step as usize).min(k_len.saturating_sub(1)),
                bit: self.bit % 32,
            })
        } else {
            None
        }
    }

    fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    fn may_fire(&self, site: FaultSite) -> bool {
        site == self.site
    }
}

/// Per-operation bit-error-rate injector (Fig. 12 regime).
///
/// Every queried operation independently suffers a flip of one uniformly
/// chosen result bit with probability `ber`. Optionally restricted to a
/// subset of sites (e.g. only GEMM accumulations).
#[derive(Debug)]
pub struct BerInjector {
    seed: u64,
    ber: f64,
    /// If non-empty, only these sites are eligible.
    sites: Vec<FaultSite>,
    /// Half-open bit range faults are drawn from (f32 targets).
    bit_range: (u32, u32),
    fired: AtomicU64,
}

impl BerInjector {
    /// BER injector over all sites.
    pub fn new(seed: u64, ber: f64) -> Self {
        BerInjector {
            seed,
            ber,
            sites: Vec::new(),
            bit_range: (0, 32),
            fired: AtomicU64::new(0),
        }
    }

    /// Restrict f32 flips to bits `[lo, hi)`. E.g. `(13, 32)` limits faults
    /// to the FP16-visible magnitude range (relative error ≥ 2⁻¹⁰), the
    /// paper's FP16 data domain.
    pub fn with_bit_range(mut self, lo: u32, hi: u32) -> Self {
        assert!(lo < hi && hi <= 32);
        self.bit_range = (lo, hi);
        self
    }

    /// Restrict eligibility to `sites`.
    pub fn with_sites(mut self, sites: &[FaultSite]) -> Self {
        self.sites = sites.to_vec();
        self
    }

    /// Configured bit-error rate.
    pub fn ber(&self) -> f64 {
        self.ber
    }

    #[inline]
    fn eligible(&self, site: FaultSite) -> bool {
        self.sites.is_empty() || self.sites.contains(&site)
    }

    /// Decide (deterministically) whether an op at (site, coord) faults, and
    /// which bit flips. Returns `Some(bit_selector_hash)` on fault.
    #[inline]
    fn decide(&self, site: FaultSite, coord: OpCoord) -> Option<u64> {
        if !self.eligible(site) {
            return None;
        }
        self.draw(coord_hash(self.seed, site, coord))
    }

    /// The per-operation draw on a coordinate hash `h`.
    #[inline]
    fn draw(&self, h: u64) -> Option<u64> {
        // Compare the top 53 bits against ber as a dyadic fraction.
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        if u < self.ber {
            Some(mix64(h ^ 0xC2B2_AE3D_27D4_EB4F))
        } else {
            None
        }
    }
}

impl FaultInjector for BerInjector {
    fn corrupt_f32(&self, site: FaultSite, coord: OpCoord, value: f32) -> f32 {
        match self.decide(site, coord) {
            Some(sel) => {
                self.fired.fetch_add(1, Ordering::Relaxed);
                let (lo, hi) = self.bit_range;
                let bit = lo + (sel % (hi - lo) as u64) as u32;
                f32::from_bits(value.to_bits() ^ (1u32 << bit))
            }
            None => value,
        }
    }

    fn corrupt_f16(&self, site: FaultSite, coord: OpCoord, value: F16) -> F16 {
        match self.decide(site, coord) {
            Some(sel) => {
                self.fired.fetch_add(1, Ordering::Relaxed);
                value.flip_bit((sel % 16) as u32)
            }
            None => value,
        }
    }

    /// The per-operation draw per element with the row's
    /// `(seed, site, slot, i)` hash prefix computed once: the same hash
    /// function, so the same draws as the default loop.
    fn corrupt_f16_row(&self, site: FaultSite, slot: u64, i: u64, k: u64, row: &mut [F16]) {
        if !self.may_fire(site) {
            return;
        }
        let prefix = coord_hash_prefix(self.seed, site, slot, i);
        for (j, v) in row.iter_mut().enumerate() {
            if let Some(sel) = self.draw(coord_hash_tail(prefix, j as u64, k)) {
                self.fired.fetch_add(1, Ordering::Relaxed);
                *v = v.flip_bit((sel % 16) as u32);
            }
        }
    }

    fn decide_chain(&self, site: FaultSite, coord: OpCoord, k_len: usize) -> Option<ChainFault> {
        if !self.eligible(site) || self.ber <= 0.0 {
            return None;
        }
        let h = coord_hash(self.seed, site, coord);
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        // Per-chain probability 1 − (1 − ber)^k, computed stably.
        let p_chain = -f64::exp_m1(k_len as f64 * f64::ln_1p(-self.ber));
        if u < p_chain {
            self.fired.fetch_add(1, Ordering::Relaxed);
            let sel = mix64(h ^ 0xC2B2_AE3D_27D4_EB4F);
            Some(ChainFault {
                step: (sel % k_len as u64) as usize,
                bit: self.bit_range.0
                    + (mix64(sel) % (self.bit_range.1 - self.bit_range.0) as u64) as u32,
            })
        } else {
            None
        }
    }

    fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    fn may_fire(&self, site: FaultSite) -> bool {
        self.ber > 0.0 && self.eligible(site)
    }
}

/// Blanket impl so `&I` can be passed where an injector is expected.
impl<I: FaultInjector + ?Sized> FaultInjector for &I {
    fn corrupt_f32(&self, site: FaultSite, coord: OpCoord, value: f32) -> f32 {
        (**self).corrupt_f32(site, coord, value)
    }
    fn corrupt_f16(&self, site: FaultSite, coord: OpCoord, value: F16) -> F16 {
        (**self).corrupt_f16(site, coord, value)
    }
    fn corrupt_f16_row(&self, site: FaultSite, slot: u64, i: u64, k: u64, row: &mut [F16]) {
        (**self).corrupt_f16_row(site, slot, i, k, row)
    }
    fn may_fire(&self, site: FaultSite) -> bool {
        (**self).may_fire(site)
    }
    fn decide_chain(&self, site: FaultSite, coord: OpCoord, k_len: usize) -> Option<ChainFault> {
        (**self).decide_chain(site, coord, k_len)
    }
    fn fired(&self) -> u64 {
        (**self).fired()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_is_identity() {
        let inj = NoFaults;
        let c = OpCoord::new(0, 1, 2, 3);
        assert_eq!(inj.corrupt_f32(FaultSite::ExpUnit, c, 1.5), 1.5);
        assert_eq!(inj.corrupt_f16(FaultSite::ExpUnit, c, F16::ONE), F16::ONE);
        assert!(FaultSite::ALL.iter().all(|&s| !inj.may_fire(s)));
        assert_eq!(inj.fired(), 0);
    }

    #[test]
    fn seu_fires_only_at_target() {
        let target = OpCoord::new(1, 5, 7, 0);
        let inj = SeuInjector::new(FaultSite::GemmIAccum, target, 30);
        // Wrong coordinate: untouched.
        let miss = inj.corrupt_f32(FaultSite::GemmIAccum, OpCoord::new(1, 5, 8, 0), 2.0);
        assert_eq!(miss, 2.0);
        // Wrong site: untouched.
        let miss2 = inj.corrupt_f32(FaultSite::GemmIiAccum, target, 2.0);
        assert_eq!(miss2, 2.0);
        assert_eq!(inj.fired(), 0);
        // Exact hit: bit 30 (exponent MSB-1) flips -> large deviation.
        let hit = inj.corrupt_f32(FaultSite::GemmIAccum, target, 2.0);
        assert_ne!(hit, 2.0);
        assert_eq!(hit.to_bits() ^ 2.0f32.to_bits(), 1 << 30);
        assert_eq!(inj.fired(), 1);
    }

    #[test]
    fn seu_f16_flip() {
        let target = OpCoord::new(0, 0, 0, 0);
        let inj = SeuInjector::new(FaultSite::ExpUnit, target, 14);
        let hit = inj.corrupt_f16(FaultSite::ExpUnit, target, F16::ONE);
        assert_eq!(hit, F16::ONE.flip_bit(14));
    }

    #[test]
    fn ber_zero_never_fires() {
        let inj = BerInjector::new(9, 0.0);
        for i in 0..1000 {
            let v = inj.corrupt_f32(FaultSite::ExpUnit, OpCoord::new(0, i, 0, 0), 1.0);
            assert_eq!(v, 1.0);
        }
        assert!(FaultSite::ALL.iter().all(|&s| !inj.may_fire(s)));
    }

    #[test]
    fn ber_one_always_fires() {
        let inj = BerInjector::new(9, 1.0);
        let mut changed = 0;
        for i in 0..100 {
            let v = inj.corrupt_f32(FaultSite::ExpUnit, OpCoord::new(0, i, 0, 0), 1.0);
            if v != 1.0 {
                changed += 1;
            }
        }
        // A flip always happens; the value always changes (single bit flip of
        // a non-NaN value cannot be identity).
        assert_eq!(changed, 100);
        assert_eq!(inj.fired(), 100);
    }

    #[test]
    fn ber_rate_is_approximately_respected() {
        let ber = 0.01;
        let inj = BerInjector::new(2024, ber);
        let n = 200_000u64;
        for i in 0..n {
            let _ = inj.corrupt_f32(
                FaultSite::GemmIAccum,
                OpCoord::new(0, i as usize, 0, 0),
                1.0,
            );
        }
        let rate = inj.fired() as f64 / n as f64;
        assert!((rate - ber).abs() < ber * 0.2, "rate {rate} vs ber {ber}");
    }

    #[test]
    fn ber_is_deterministic_and_schedule_independent() {
        let a = BerInjector::new(7, 0.05);
        let b = BerInjector::new(7, 0.05);
        // Query in different orders; same coords must give same results.
        let coords: Vec<OpCoord> = (0..500).map(|i| OpCoord::new(i % 7, i, i / 3, 0)).collect();
        let mut va: Vec<f32> = coords
            .iter()
            .map(|&c| a.corrupt_f32(FaultSite::ExpUnit, c, 3.25))
            .collect();
        let mut vb: Vec<f32> = coords
            .iter()
            .rev()
            .map(|&c| b.corrupt_f32(FaultSite::ExpUnit, c, 3.25))
            .collect();
        vb.reverse();
        assert_eq!(va.len(), vb.len());
        va.iter_mut().zip(vb.iter_mut()).for_each(|(x, y)| {
            assert_eq!(x.to_bits(), y.to_bits());
        });
    }

    #[test]
    fn ber_site_restriction() {
        let inj = BerInjector::new(3, 1.0).with_sites(&[FaultSite::ExpUnit]);
        let c = OpCoord::new(0, 0, 0, 0);
        assert_eq!(inj.corrupt_f32(FaultSite::GemmIAccum, c, 1.0), 1.0);
        assert_ne!(inj.corrupt_f32(FaultSite::ExpUnit, c, 1.0), 1.0);
    }

    /// An injector that implements only the required methods, so every
    /// provided method runs its default.
    struct Defaults<'a>(&'a BerInjector);

    impl FaultInjector for Defaults<'_> {
        fn corrupt_f32(&self, site: FaultSite, coord: OpCoord, value: f32) -> f32 {
            self.0.corrupt_f32(site, coord, value)
        }
        fn corrupt_f16(&self, site: FaultSite, coord: OpCoord, value: F16) -> F16 {
            self.0.corrupt_f16(site, coord, value)
        }
        fn fired(&self) -> u64 {
            self.0.fired()
        }
    }

    /// `inj` behind the `&I` blanket impl.
    fn by_ref<I: FaultInjector>(inj: &I) -> impl FaultInjector + '_ {
        inj
    }

    #[test]
    fn may_fire_truth_table() {
        let all = FaultSite::ALL;
        assert!(all.iter().all(|&s| !NoFaults.may_fire(s)));
        let seu = SeuInjector::new(FaultSite::KvCache, OpCoord::new(0, 0, 0, 0), 3);
        for s in all {
            assert_eq!(seu.may_fire(s), s == FaultSite::KvCache, "{s:?}");
            assert_eq!(by_ref(&seu).may_fire(s), seu.may_fire(s), "&I forwards");
        }
        let ber = BerInjector::new(1, 1e-3);
        assert!(all.iter().all(|&s| ber.may_fire(s)));
        let zero = BerInjector::new(1, 0.0);
        assert!(all.iter().all(|&s| !zero.may_fire(s)));
        let restricted = BerInjector::new(1, 1e-3).with_sites(&[FaultSite::ExpUnit]);
        for s in all {
            assert_eq!(restricted.may_fire(s), s == FaultSite::ExpUnit, "{s:?}");
            assert_eq!(by_ref(&restricted).may_fire(s), restricted.may_fire(s));
        }
        // The default is `true`: conservative at every site.
        assert!(all.iter().all(|&s| Defaults(&restricted).may_fire(s)));
        assert!(all.iter().all(|&s| Defaults(&zero).may_fire(s)));
    }

    #[test]
    fn ber_row_override_matches_default_per_element_loop() {
        let mut state = 0x1234_5678u64;
        let mut next = || {
            state = mix64(state.wrapping_add(0x9E37_79B9_7F4A_7C15));
            state
        };
        let sites = [FaultSite::KvCache, FaultSite::ExpUnit];
        for (ber, restrict) in [(1e-3, false), (1e-1, false), (1e-1, true)] {
            let build = || {
                let inj = BerInjector::new(42, ber);
                if restrict {
                    inj.with_sites(&sites)
                } else {
                    inj
                }
            };
            let (fast, slow) = (build(), build());
            for _ in 0..200 {
                let site = FaultSite::ALL[(next() % 11) as usize];
                let (slot, i, k) = (next() % 64, next() % 4096, next() % 1000);
                let len = (next() % 80) as usize;
                let row: Vec<F16> = (0..len).map(|_| F16(next() as u16)).collect();
                let (mut a, mut b) = (row.clone(), row);
                fast.corrupt_f16_row(site, slot, i, k, &mut a);
                Defaults(&slow).corrupt_f16_row(site, slot, i, k, &mut b);
                assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
            }
            assert_eq!(fast.fired(), slow.fired(), "ber {ber}");
            assert!(fast.fired() > 0, "ber {ber}: the test must exercise fires");
            // `&I` forwards to the override.
            let mut row = vec![F16::ONE; 64];
            let before = fast.fired();
            by_ref(&fast).corrupt_f16_row(FaultSite::KvCache, 1, 2, 3, &mut row);
            let mut expect = vec![F16::ONE; 64];
            Defaults(&slow).corrupt_f16_row(FaultSite::KvCache, 1, 2, 3, &mut expect);
            assert_eq!(row, expect);
            assert_eq!(fast.fired() - before, slow.fired() - before);
        }
    }

    #[test]
    fn different_sites_decorrelate() {
        // With a moderate BER the fault pattern must differ between sites.
        let inj = BerInjector::new(11, 0.5);
        let mut same = 0;
        let n = 200;
        for i in 0..n {
            let c = OpCoord::new(0, i, 0, 0);
            let x = inj.corrupt_f32(FaultSite::ExpUnit, c, 1.0) != 1.0;
            let y = inj.corrupt_f32(FaultSite::SumReduce, c, 1.0) != 1.0;
            if x == y {
                same += 1;
            }
        }
        assert!(same < n, "site patterns identical — hash ignores site");
    }
}

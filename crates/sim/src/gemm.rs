//! Block GEMM engine with fault-injection hooks.
//!
//! These are the routines every kernel in `ft-core`/`ft-transformer` builds
//! on. Numerics replicate the tensor-core mixed-precision path exactly:
//! operands have been quantised through binary16 (callers convert FP16
//! tensors to `MatrixF32` views), products are FP32, and accumulation runs
//! in ascending-k order — bit-identical to executing the constituent
//! `m16n8k16` atoms via [`crate::tiled::tiled_gemm_exec`] (a property pinned
//! by tests).
//!
//! Fault injection: each output element's accumulation chain asks the
//! injector *once* whether a transient fault occurs and at which FMA step;
//! the accumulator bit-flips mid-chain and the corrupted partial sum
//! propagates through the remaining FMAs, exactly like a transient fault in
//! a tensor-core accumulator. The injected GEMMs run the clean kernel
//! first; then, unless the injector cannot fire at the context's site
//! ([`FaultInjector::may_fire`]), they make the per-chain queries in
//! row-major order and recompute only the chains that fire. A recomputed
//! chain starts from `0.0` and adds in ascending k like the clean one, so
//! the result is bit-identical to running every chain individually.

use crate::fault::{FaultInjector, FaultSite, OpCoord};
use ft_num::{Matrix, MatrixF32};

/// Context identifying where in the enclosing computation a GEMM runs, so
/// injected faults have well-defined global coordinates.
#[derive(Clone, Copy, Debug)]
pub struct GemmCtx {
    /// Fault site attributed to this GEMM's accumulation chains.
    pub site: FaultSite,
    /// Flattened (batch, head) slot or layer id.
    pub slot: usize,
    /// Global row offset of this block's output.
    pub row_off: usize,
    /// Global column offset of this block's output.
    pub col_off: usize,
    /// Iteration id disambiguating repeated accumulations onto the same
    /// output (the flash-attention inner loop index).
    pub iter: usize,
}

impl GemmCtx {
    /// Context for an unsliced GEMM at origin (0,0), iteration 0.
    pub fn new(site: FaultSite, slot: usize) -> Self {
        GemmCtx {
            site,
            slot,
            row_off: 0,
            col_off: 0,
            iter: 0,
        }
    }

    /// Set the output-block origin.
    pub fn at(mut self, row_off: usize, col_off: usize) -> Self {
        self.row_off = row_off;
        self.col_off = col_off;
        self
    }

    /// Set the iteration id.
    pub fn iter(mut self, iter: usize) -> Self {
        self.iter = iter;
        self
    }
}

#[inline]
fn dot_plain(a_row: &[f32], b_row: &[f32]) -> f32 {
    debug_assert_eq!(a_row.len(), b_row.len());
    let mut acc = 0.0f32;
    for (x, y) in a_row.iter().zip(b_row) {
        acc += x * y;
    }
    acc
}

#[inline]
fn dot_faulty(a_row: &[f32], b_row: &[f32], step: usize, bit: u32) -> f32 {
    let mut acc = 0.0f32;
    for (k, (x, y)) in a_row.iter().zip(b_row).enumerate() {
        acc += x * y;
        if k == step {
            acc = f32::from_bits(acc.to_bits() ^ (1u32 << bit));
        }
    }
    acc
}

/// `C = A · Bᵀ` (both row-major; the QKᵀ shape). No fault injection.
pub fn gemm_nt(a: &MatrixF32, b: &MatrixF32) -> MatrixF32 {
    assert_eq!(a.cols(), b.cols(), "inner dims (k) must match");
    Matrix::from_fn(a.rows(), b.rows(), |i, j| dot_plain(a.row(i), b.row(j)))
}

/// `C = A · Bᵀ` with fault injection under `ctx`.
pub fn gemm_nt_inj<I: FaultInjector>(
    a: &MatrixF32,
    b: &MatrixF32,
    inj: &I,
    ctx: GemmCtx,
) -> MatrixF32 {
    let mut c = gemm_nt(a, b);
    recompute_fired(&mut c, a, inj, ctx, |j, col| col.copy_from_slice(b.row(j)));
    c
}

/// `C = A · B` (row-major; the PV shape). No fault injection.
pub fn gemm_nn(a: &MatrixF32, b: &MatrixF32) -> MatrixF32 {
    assert_eq!(a.cols(), b.rows(), "inner dims (k) must match");
    let (m, n) = (a.rows(), b.cols());
    let k_len = a.cols();
    let mut c = Matrix::zeros(m, n);
    if n == 8 {
        // An 8-wide product — a stride-8 checksum operand — keeps its output
        // row in registers for the whole k loop (the loop below would
        // round-trip it through memory once per k, ~4× slower at this
        // width). Same ascending-k chain per element from `0.0`.
        for (a_row, c_row) in (0..m)
            .map(|i| a.row(i))
            .zip(c.as_mut_slice().chunks_exact_mut(8))
        {
            let mut acc = [0.0f32; 8];
            for (&aik, b_row) in a_row.iter().zip(b.as_slice().chunks_exact(8)) {
                for (s, &bv) in acc.iter_mut().zip(b_row) {
                    *s += aik * bv;
                }
            }
            c_row.copy_from_slice(&acc);
        }
        return c;
    }
    // k-outer over rows of B keeps B accesses row-contiguous; accumulation
    // per output element is still ascending-k (each k adds once).
    for i in 0..m {
        let a_row = a.row(i);
        let c_row = c.row_mut(i);
        for (k, &aik) in a_row.iter().enumerate().take(k_len) {
            let b_row = b.row(k);
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += aik * bv;
            }
        }
    }
    c
}

/// `C = A · B` with fault injection under `ctx`.
pub fn gemm_nn_inj<I: FaultInjector>(
    a: &MatrixF32,
    b: &MatrixF32,
    inj: &I,
    ctx: GemmCtx,
) -> MatrixF32 {
    let mut c = gemm_nn(a, b);
    recompute_fired(&mut c, a, inj, ctx, |j, col| {
        for (k, v) in col.iter_mut().enumerate() {
            *v = b.get(k, j);
        }
    });
    c
}

/// The fault path shared by both injected GEMMs, run over the clean
/// product `c = A·op(B)`: unless `inj` cannot fire at `ctx.site`, ask
/// [`FaultInjector::decide_chain`] once per output element in row-major
/// order and recompute each chain that fires with the flip at its step.
/// `b_col(j, buf)` writes the `k`-vector of `op(B)` feeding column `j`.
fn recompute_fired<I: FaultInjector>(
    c: &mut MatrixF32,
    a: &MatrixF32,
    inj: &I,
    ctx: GemmCtx,
    b_col: impl Fn(usize, &mut [f32]),
) {
    if !inj.may_fire(ctx.site) {
        return;
    }
    let k_len = a.cols();
    let mut col = vec![0.0f32; k_len];
    for i in 0..c.rows() {
        for j in 0..c.cols() {
            let coord = OpCoord::new(ctx.slot, ctx.row_off + i, ctx.col_off + j, ctx.iter);
            if let Some(f) = inj.decide_chain(ctx.site, coord, k_len) {
                b_col(j, &mut col);
                c.set(i, j, dot_faulty(a.row(i), &col, f.step, f.bit));
            }
        }
    }
}

/// FLOPs of an M×N×K GEMM (multiply + add).
#[inline]
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{BerInjector, NoFaults, SeuInjector};
    use crate::tiled::tiled_gemm;
    use ft_num::rng::{normal_matrix_f16, rng_from_seed};

    #[test]
    fn gemm_nn_matches_nt_on_transposed_operand() {
        let mut rng = rng_from_seed(1);
        let a = normal_matrix_f16(&mut rng, 8, 12, 1.0).to_f32();
        let b = normal_matrix_f16(&mut rng, 12, 10, 1.0).to_f32();
        let c1 = gemm_nn(&a, &b);
        let c2 = gemm_nt(&a, &b.transpose());
        // Same ascending-k accumulation order → bit identical.
        assert_eq!(c1, c2);
    }

    #[test]
    fn fast_gemm_bit_identical_to_fragment_executor() {
        let mut rng = rng_from_seed(17);
        let a16 = normal_matrix_f16(&mut rng, 32, 16, 0.7);
        let b16 = normal_matrix_f16(&mut rng, 16, 16, 0.7);
        let slow = tiled_gemm(&a16, &b16);
        let fast = gemm_nn(&a16.to_f32(), &b16.to_f32());
        assert_eq!(slow, fast, "fast path must equal simulated hardware");
    }

    #[test]
    fn injected_chain_fault_changes_exactly_one_element() {
        let mut rng = rng_from_seed(2);
        let a = normal_matrix_f16(&mut rng, 16, 32, 1.0).to_f32();
        let b = normal_matrix_f16(&mut rng, 16, 32, 1.0).to_f32();
        let clean = gemm_nt(&a, &b);
        let inj =
            SeuInjector::new(FaultSite::GemmIAccum, OpCoord::new(0, 3, 5, 0), 30).at_chain_step(31);
        let dirty = gemm_nt_inj(&a, &b, &inj, GemmCtx::new(FaultSite::GemmIAccum, 0));
        let mut diffs = 0;
        for i in 0..16 {
            for j in 0..16 {
                if clean.get(i, j) != dirty.get(i, j) {
                    diffs += 1;
                    assert_eq!((i, j), (3, 5));
                }
            }
        }
        assert_eq!(diffs, 1);
        assert_eq!(inj.fired(), 1);
    }

    #[test]
    fn chain_fault_at_last_step_flips_final_bit_exactly() {
        // Fault after the last FMA = flip one bit of the final value.
        let mut rng = rng_from_seed(3);
        let a = normal_matrix_f16(&mut rng, 4, 8, 1.0).to_f32();
        let b = normal_matrix_f16(&mut rng, 4, 8, 1.0).to_f32();
        let clean = gemm_nt(&a, &b);
        let inj =
            SeuInjector::new(FaultSite::GemmIAccum, OpCoord::new(0, 1, 2, 0), 20).at_chain_step(7);
        let dirty = gemm_nt_inj(&a, &b, &inj, GemmCtx::new(FaultSite::GemmIAccum, 0));
        assert_eq!(
            dirty.get(1, 2).to_bits() ^ clean.get(1, 2).to_bits(),
            1 << 20
        );
    }

    #[test]
    fn mid_chain_fault_propagates_additively() {
        // A flip mid-chain adds a bit-flip delta to the partial sum; the
        // remaining FMAs add unchanged terms, so the final error equals the
        // delta introduced at the step (f32 addition is exact for these
        // scale-matched values — verify the error is nonzero and finite).
        let a = MatrixF32::from_fn(1, 16, |_, _| 1.0);
        let b = MatrixF32::from_fn(1, 16, |_, _| 1.0);
        let clean = gemm_nt(&a, &b);
        assert_eq!(clean.get(0, 0), 16.0);
        let inj =
            SeuInjector::new(FaultSite::GemmIAccum, OpCoord::new(0, 0, 0, 0), 23).at_chain_step(3);
        let dirty = gemm_nt_inj(&a, &b, &inj, GemmCtx::new(FaultSite::GemmIAccum, 0));
        // After step 3 the accumulator is 4.0 (bits 0x40800000); bit 23 is
        // the exponent LSB, so 4.0 becomes 2.0 and the −2 delta propagates
        // through the remaining 12 additions: 16 − 2 = 14.
        assert_eq!(dirty.get(0, 0), 14.0);
    }

    #[test]
    fn ber_injection_rate_scales_with_chain_length() {
        let ber = 1e-4;
        let inj = BerInjector::new(77, ber);
        let a = MatrixF32::zeros(64, 256);
        let b = MatrixF32::zeros(64, 256);
        let _ = gemm_nt_inj(&a, &b, &inj, GemmCtx::new(FaultSite::GemmIAccum, 0));
        let chains = 64.0 * 64.0;
        let expect = chains * 256.0 * ber; // ≈ chains * p_chain
        let got = inj.fired() as f64;
        assert!(
            (got - expect).abs() < expect.mul_add(0.9, 3.0),
            "got {got}, expect ≈ {expect}"
        );
    }

    #[test]
    fn noop_injector_takes_fast_path() {
        let a = MatrixF32::from_fn(4, 4, |i, j| (i + j) as f32);
        let b = MatrixF32::from_fn(4, 4, |i, j| (i * j) as f32);
        let c1 = gemm_nt(&a, &b);
        let c2 = gemm_nt_inj(&a, &b, &NoFaults, GemmCtx::new(FaultSite::GemmIAccum, 0));
        assert_eq!(c1, c2);
    }

    /// The per-element `gemm_nt_inj` loop the clean-then-recompute path
    /// replaced, kept as the oracle it is pinned against.
    fn gemm_nt_inj_reference<I: FaultInjector>(
        a: &MatrixF32,
        b: &MatrixF32,
        inj: &I,
        ctx: GemmCtx,
    ) -> MatrixF32 {
        let k_len = a.cols();
        Matrix::from_fn(a.rows(), b.rows(), |i, j| {
            let coord = OpCoord::new(ctx.slot, ctx.row_off + i, ctx.col_off + j, ctx.iter);
            match inj.decide_chain(ctx.site, coord, k_len) {
                None => dot_plain(a.row(i), b.row(j)),
                Some(f) => dot_faulty(a.row(i), b.row(j), f.step, f.bit),
            }
        })
    }

    /// The per-element strided `gemm_nn_inj` loop, likewise.
    fn gemm_nn_inj_reference<I: FaultInjector>(
        a: &MatrixF32,
        b: &MatrixF32,
        inj: &I,
        ctx: GemmCtx,
    ) -> MatrixF32 {
        let k_len = a.cols();
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            let coord = OpCoord::new(ctx.slot, ctx.row_off + i, ctx.col_off + j, ctx.iter);
            let fault = inj.decide_chain(ctx.site, coord, k_len);
            let mut acc = 0.0f32;
            for (k, &av) in a.row(i).iter().enumerate() {
                acc += av * b.get(k, j);
                if let Some(f) = fault.filter(|f| f.step == k) {
                    acc = f32::from_bits(acc.to_bits() ^ (1u32 << f.bit));
                }
            }
            acc
        })
    }

    fn assert_bits_eq(x: &MatrixF32, y: &MatrixF32, what: &str) {
        assert_eq!(x.shape(), y.shape(), "{what}");
        let same = x
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .all(|(p, q)| p.to_bits() == q.to_bits());
        assert!(same, "{what}: bits differ");
    }

    /// Run both injected GEMMs and their references under fresh injectors
    /// from `make`; assert equal bits and `fired()`; return the fired count.
    fn check_against_reference<I: FaultInjector>(
        make: impl Fn() -> I,
        a: &MatrixF32,
        bt: &MatrixF32,
        ctx: GemmCtx,
        what: &str,
    ) -> u64 {
        let (fast, slow) = (make(), make());
        let got = gemm_nt_inj(a, bt, &fast, ctx);
        assert_bits_eq(&got, &gemm_nt_inj_reference(a, bt, &slow, ctx), what);
        assert_eq!(fast.fired(), slow.fired(), "nt {what}");
        let b = bt.transpose();
        let got = gemm_nn_inj(a, &b, &fast, ctx);
        assert_bits_eq(&got, &gemm_nn_inj_reference(a, &b, &slow, ctx), what);
        assert_eq!(fast.fired(), slow.fired(), "nn {what}");
        fast.fired()
    }

    #[test]
    fn injected_gemms_match_per_element_reference() {
        // Ragged shapes and the 8-wide register path, at a nonzero origin
        // and iteration, under every injector regime: an SEU (hit, and aimed
        // at another site), BER over all sites, and a site-restricted BER
        // whose `may_fire` is false here.
        let site = FaultSite::LinearAccum;
        let ctx = GemmCtx::new(site, 3).at(64, 8).iter(2);
        let mut ber_fired = 0;
        for (s, (m, k, n)) in [
            (1, 1, 1),
            (3, 17, 5),
            (16, 32, 16),
            (70, 24, 9),
            (9, 40, 8),
            (5, 64, 131),
        ]
        .into_iter()
        .enumerate()
        {
            let mut rng = rng_from_seed(40 + s as u64);
            let a = normal_matrix_f16(&mut rng, m, k, 1.0).to_f32();
            let bt = normal_matrix_f16(&mut rng, n, k, 1.0).to_f32();
            let what = format!("{m}x{k}x{n}");
            let hit = OpCoord::new(3, 64 + m / 2, 8 + n / 2, 2);
            let seu = || SeuInjector::new(site, hit, 27).at_chain_step(k as u32 / 2);
            let fired = check_against_reference(seu, &a, &bt, ctx, &format!("seu {what}"));
            assert_eq!(fired, 2, "the SEU hits once per GEMM");
            let miss = || SeuInjector::new(FaultSite::ExpUnit, hit, 27);
            assert_eq!(check_against_reference(miss, &a, &bt, ctx, &what), 0);
            let ber = || BerInjector::new(9, 1e-3);
            ber_fired += check_against_reference(ber, &a, &bt, ctx, &format!("ber {what}"));
            let restricted = || BerInjector::new(9, 0.5).with_sites(&[FaultSite::ExpUnit]);
            assert_eq!(check_against_reference(restricted, &a, &bt, ctx, &what), 0);
        }
        assert!(ber_fired > 0, "BER must exercise the recompute path");
    }

    #[test]
    fn flops_helper() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
    }
}

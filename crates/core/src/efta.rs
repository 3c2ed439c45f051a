//! End-to-end fault tolerant attention (EFTA) — the paper's contribution
//! (§3.2–3.4, Algorithm 1).
//!
//! One fused kernel computes flash attention *and* its fault tolerance:
//!
//! * **GEMM I + subtraction + EXP** are protected by strided tensor
//!   checksums with checksum reuse: `S_c1` from the checksum GEMM is carried
//!   through the max subtraction and exponential, and a single product check
//!   verifies all three steps (Algorithm 1 lines 9–16).
//! * **reduce-max / reduce-sum** are protected by selective neuron value
//!   restriction: the max must bound its block, the rowsum must lie in
//!   `[Σ exp(m_k − m), n]` (lines 22–24).
//! * **GEMM II + rescale + normalise** carry output checksums `O_c1`/`O_c2`
//!   through the online-softmax rescales and the final normalisation, and a
//!   single post-loop check locates and corrects errors (lines 18–20 and
//!   25–29).
//!
//! [`VerifyMode::PerStep`] is the unoptimised "EFTA" of Tables 1–2 (verify
//! after every operation); [`VerifyMode::Unified`] is the optimised "EFTA-o"
//! with the reordered, batched verification described above. The
//! [`GemmProtection`] and [`SoftmaxProtection`] knobs select the comparators
//! of Figs. 11 and 13 (traditional element ABFT, DMR) inside the same fused
//! kernel.

// Index-based loops are kept deliberately: they mirror the thread/lane
// structure of the GPU kernels this module models.
#![allow(clippy::needless_range_loop)]

use crate::config::AttentionConfig;
use crate::snvr::{restrict_row_max, restrict_rowsum, Restriction};
use crate::types::{AttentionOutput, FtCounters, PhaseTimers};
use ft_abft::propagate::{residue_counts, transport_subtract_max, verify_products};
use ft_abft::strided::{
    correct_strided, encode_cols_strided, encode_rows_strided, strided_sums, strided_sums_weighted,
    StridedChecksums, StridedMismatch,
};
use ft_abft::thresholds::Thresholds;
use ft_num::{block_starts, Matrix, MatrixF32, Tensor4F16, Tensor4F32};
use ft_sim::cost::Timeline;
use ft_sim::device::KernelStats;
use ft_sim::{
    gemm_flops, gemm_nn_inj, gemm_nt, gemm_nt_inj, FaultInjector, FaultSite, GemmCtx, OpCoord,
};
use rayon::prelude::*;
use std::time::Instant;

/// Protection scheme for the two GEMMs (Fig. 11 comparison).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmProtection {
    /// No checksums (baseline "E2E Attention").
    Unprotected,
    /// Traditional element checksum: width-1 fold, requires the
    /// inter-thread gather the tensor-core layout penalises. The gather is
    /// emulated by explicit transposes and the checksum GEMM is padded to
    /// the 8-wide MMA tile it would occupy on hardware.
    Traditional,
    /// The paper's strided tensor checksum (width = stride, intra-thread).
    Strided,
}

/// Protection scheme for the softmax nonlinearities (Fig. 13 comparison).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SoftmaxProtection {
    /// No protection.
    Unprotected,
    /// Dual modular redundancy: recompute max/exp/sum and compare.
    Dmr,
    /// Selective neuron value restriction + checksum reuse (the paper's).
    Snvr,
}

/// Verification scheduling (Tables 1–2 comparison).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyMode {
    /// Verify after every protected operation ("EFTA").
    PerStep,
    /// Unified verification: one product check per inner iteration, one
    /// rowsum restriction and one output check after the loop ("EFTA-o").
    Unified,
}

/// Full option set for the fused kernel.
#[derive(Clone, Copy, Debug)]
pub struct EftaOptions {
    /// GEMM protection scheme.
    pub gemm: GemmProtection,
    /// Softmax protection scheme.
    pub softmax: SoftmaxProtection,
    /// Verification scheduling.
    pub verify: VerifyMode,
    /// Checksum stride (8 = tensor-core aligned).
    pub stride: usize,
    /// Detection thresholds.
    pub thresholds: Thresholds,
    /// Quantise checksum operands through binary16 (the FP16 tensor-core
    /// operand path). Disable only in exact-algebra tests.
    pub quantize_checksums: bool,
}

impl EftaOptions {
    /// The paper's optimised configuration: strided ABFT + SNVR + unified
    /// verification ("EFTA-o").
    pub fn optimized() -> Self {
        EftaOptions {
            gemm: GemmProtection::Strided,
            softmax: SoftmaxProtection::Snvr,
            verify: VerifyMode::Unified,
            stride: 8,
            thresholds: Thresholds::calibrated(),
            quantize_checksums: true,
        }
    }

    /// The unoptimised configuration: same hybrid scheme, per-step
    /// verification ("EFTA" in Tables 1–2).
    pub fn per_step() -> Self {
        EftaOptions {
            verify: VerifyMode::PerStep,
            ..Self::optimized()
        }
    }

    /// All protection disabled — the fused kernel degenerates to flash
    /// attention (the overhead baseline of Figs. 10–13).
    pub fn unprotected() -> Self {
        EftaOptions {
            gemm: GemmProtection::Unprotected,
            softmax: SoftmaxProtection::Unprotected,
            verify: VerifyMode::Unified,
            stride: 8,
            thresholds: Thresholds::calibrated(),
            quantize_checksums: true,
        }
    }

    /// Replace the GEMM protection.
    pub fn with_gemm(mut self, g: GemmProtection) -> Self {
        self.gemm = g;
        self
    }

    /// Replace the softmax protection.
    pub fn with_softmax(mut self, s: SoftmaxProtection) -> Self {
        self.softmax = s;
        self
    }

    /// Replace the verification mode.
    pub fn with_verify(mut self, v: VerifyMode) -> Self {
        self.verify = v;
        self
    }

    /// Replace the thresholds.
    pub fn with_thresholds(mut self, t: Thresholds) -> Self {
        self.thresholds = t;
        self
    }

    /// Replace the checksum stride.
    pub fn with_stride(mut self, s: usize) -> Self {
        self.stride = s;
        self
    }
}

/// Effective checksum stride for the configured GEMM protection.
fn effective_stride(opts: &EftaOptions) -> usize {
    match opts.gemm {
        GemmProtection::Traditional => 1,
        _ => opts.stride,
    }
}

/// Encode K-row checksums for GEMM I under the configured scheme.
/// Traditional encoding pays the inter-thread gather (emulated by an
/// explicit transpose round-trip).
fn encode_k(opts: &EftaOptions, k_blk: &MatrixF32, stride: usize) -> StridedChecksums {
    match opts.gemm {
        GemmProtection::Traditional => {
            // Gather: data leaves the owning lanes (transpose), is folded,
            // and the result is scattered back — the communication the
            // strided design eliminates.
            let gathered = k_blk.transpose().transpose();
            encode_rows_strided(&gathered, 1, opts.quantize_checksums)
        }
        _ => encode_rows_strided(k_blk, stride, opts.quantize_checksums),
    }
}

/// Encode V-column checksums for GEMM II under the configured scheme.
fn encode_v(opts: &EftaOptions, v_blk: &MatrixF32) -> StridedChecksums {
    match opts.gemm {
        GemmProtection::Traditional => {
            let gathered = v_blk.transpose().transpose();
            encode_cols_strided(&gathered, 1, opts.quantize_checksums)
        }
        _ => encode_cols_strided(v_blk, opts.stride, opts.quantize_checksums),
    }
}

/// Strided sums under the configured scheme; the traditional path pays the
/// gather on verification too.
fn scheme_sums(opts: &EftaOptions, c: &MatrixF32, s: usize) -> (MatrixF32, MatrixF32) {
    match opts.gemm {
        GemmProtection::Traditional => {
            let gathered = c.transpose().transpose();
            (
                strided_sums(&gathered, s),
                strided_sums_weighted(&gathered, s),
            )
        }
        _ => (strided_sums(c, s), strided_sums_weighted(c, s)),
    }
}

struct RowBlockResult {
    slot: usize,
    r0: usize,
    o: MatrixF32,
}

/// Per-(slot, row-block) worker state shared across the inner loop.
struct Worker<'a, I: FaultInjector> {
    cfg: &'a AttentionConfig,
    opts: &'a EftaOptions,
    inj: &'a I,
    counters: &'a FtCounters,
    timers: &'a PhaseTimers,
}

impl<I: FaultInjector> Worker<'_, I> {
    /// Recompute located S elements exactly (a d-MAC dot product each).
    /// Checksum *location* is exact, but delta-subtraction cannot restore a
    /// value swamped by a 2^100-scale corruption (the delta's f32 ulp
    /// exceeds the true value), so located elements are recomputed instead.
    fn repair_s_elements(
        q_blk: &MatrixF32,
        k_blk: &MatrixF32,
        s_blk: &mut MatrixF32,
        locs: &[ft_abft::element::ErrorLoc],
    ) {
        for loc in locs {
            let mut acc = 0.0f32;
            for (a, b) in q_blk.row(loc.row).iter().zip(k_blk.row(loc.col)) {
                acc += a * b;
            }
            s_blk.set(loc.row, loc.col, acc);
        }
    }

    /// Execute one row block; returns its unnormalised-then-normalised O.
    #[allow(clippy::too_many_lines)]
    fn run(
        &self,
        slot: usize,
        r0: usize,
        q_blk: &MatrixF32,
        km: &MatrixF32,
        vm: &MatrixF32,
    ) -> MatrixF32 {
        let cfg = self.cfg;
        let opts = self.opts;
        let inj = self.inj;
        let b = cfg.block;
        let d = cfg.head_dim;
        let rows = q_blk.rows();
        let s = effective_stride(opts);
        let protected = opts.gemm != GemmProtection::Unprotected;
        let snvr = opts.softmax == SoftmaxProtection::Snvr;
        let dmr = opts.softmax == SoftmaxProtection::Dmr;
        let per_step = opts.verify == VerifyMode::PerStep;

        let mut m = vec![f32::NEG_INFINITY; rows];
        let mut ell = vec![0.0f32; rows];
        let mut o: MatrixF32 = Matrix::zeros(rows, d);
        // Cauchy–Schwarz row norms of (scaled) Q: |S[i][j]| ≤ |q_i|·|k_j|.
        // Used by the SNVR max-plausibility restriction (see below).
        let q_norms: Vec<f32> = (0..rows)
            .map(|i| q_blk.row(i).iter().map(|x| x * x).sum::<f32>().sqrt())
            .collect();
        let mut o_c1: MatrixF32 = Matrix::zeros(rows, s);
        let mut o_c2: MatrixF32 = Matrix::zeros(rows, s);
        // Per-row history of block maxima (SNVR rowsum bounds).
        let mut max_hist: Vec<Vec<f32>> = vec![Vec::with_capacity(cfg.num_blocks()); rows];
        let mut needs_recompute = false;

        for (jb, c0) in block_starts(cfg.seq, b).enumerate() {
            let k_blk = km.block(c0, 0, b, d);
            let v_blk = vm.block(c0, 0, b, d);
            let bc = k_blk.rows();
            // A ragged final block may hold fewer rows than the checksum
            // stride; its S-side checksums fold at the narrower width.
            let sb = s.min(bc);

            // ---- GEMM I ------------------------------------------------
            let t0 = Instant::now();
            let mut s_blk = gemm_nt_inj(
                q_blk,
                &k_blk,
                inj,
                GemmCtx::new(FaultSite::GemmIAccum, slot)
                    .at(r0, c0)
                    .iter(3 * jb),
            );
            PhaseTimers::add(&self.timers.gemm1, t0.elapsed().as_nanos() as u64);

            // ---- GEMM I protection: encode + checksum GEMM --------------
            let mut s_c1 = None;
            let mut s_c2 = None;
            if protected {
                let t0 = Instant::now();
                let kcs = encode_k(opts, &k_blk, sb);
                // Traditional 1-wide checksums are padded to the 8-wide MMA
                // tile a tensor core must dedicate to them anyway — their
                // checksum GEMM costs the same as the strided design's, plus
                // the gather; this is the hardware economics of Fig. 11.
                let checksum_gemm = |w: &MatrixF32, it: usize| {
                    let ctx = GemmCtx::new(FaultSite::GemmIAccum, slot)
                        .at(r0, cfg.seq + c0)
                        .iter(3 * jb + it);
                    if opts.gemm == GemmProtection::Traditional {
                        let zero = Matrix::zeros(7, w.cols());
                        let padded = Matrix::vstack(&[w, &zero]);
                        let full = gemm_nt_inj(q_blk, &padded, inj, ctx);
                        full.block(0, 0, rows, 1)
                    } else {
                        gemm_nt_inj(q_blk, w, inj, ctx)
                    }
                };
                let c1 = checksum_gemm(&kcs.w1, 1);
                let c2 = checksum_gemm(&kcs.w2, 2);
                if per_step {
                    // "EFTA": verify the GEMM result immediately.
                    let sbe = if opts.gemm == GemmProtection::Traditional {
                        1
                    } else {
                        sb
                    };
                    let (sums1, sums2) = scheme_sums(opts, &s_blk, sbe);
                    let mut mismatches = Vec::new();
                    for i in 0..rows {
                        for t in 0..sbe {
                            if opts.thresholds.gemm.detects(sums1.get(i, t), c1.get(i, t)) {
                                mismatches.push(StridedMismatch {
                                    i,
                                    t,
                                    delta1: sums1.get(i, t) - c1.get(i, t),
                                    delta2: sums2.get(i, t) - c2.get(i, t),
                                });
                            }
                        }
                    }
                    if !mismatches.is_empty() {
                        let rep = correct_strided(&mut s_blk, &mismatches, sbe);
                        Self::repair_s_elements(q_blk, &k_blk, &mut s_blk, &rep.corrected);
                        FtCounters::add(&self.counters.gemm1_detected, rep.detections as u64);
                        FtCounters::add(&self.counters.gemm1_corrected, rep.corrected.len() as u64);
                        if rep.uncorrectable > 0 {
                            // Recompute the whole block cleanly.
                            s_blk = gemm_nt(q_blk, &k_blk);
                            FtCounters::add(
                                &self.counters.gemm1_recomputed,
                                rep.uncorrectable as u64,
                            );
                        }
                    }
                }
                s_c1 = Some(c1);
                s_c2 = Some(c2);
                PhaseTimers::add(&self.timers.gemm1_protect, t0.elapsed().as_nanos() as u64);
            }

            // ---- Softmax: reduce max ------------------------------------
            let t0 = Instant::now();
            let mut m_new = vec![0.0f32; rows];
            let mut blk_max = vec![0.0f32; rows];
            for i in 0..rows {
                let mut bm = f32::NEG_INFINITY;
                for &v in s_blk.row(i) {
                    bm = bm.max(v);
                }
                bm = inj.corrupt_f32(FaultSite::MaxReduce, OpCoord::new(slot, r0 + i, jb, 0), bm);
                blk_max[i] = bm;
                m_new[i] = m[i].max(bm);
            }
            PhaseTimers::add(&self.timers.softmax, t0.elapsed().as_nanos() as u64);

            // Max protection.
            let t0 = Instant::now();
            if snvr {
                // Case 1: restrict — a max below its block's true max risks
                // exp overflow; repair by recomputing.
                for i in 0..rows {
                    if let Restriction::Repaired { repaired } =
                        restrict_row_max(s_blk.row(i), blk_max[i])
                    {
                        blk_max[i] = repaired;
                        m_new[i] = m[i].max(repaired);
                        FtCounters::add(&self.counters.max_restricted, 1);
                    }
                }
                // Extension beyond the paper (DESIGN.md §4): a huge
                // *positive* GEMM error becomes the row max, after which
                // every exp underflows to zero on both the data and the
                // transported checksum — the product check is blind. The
                // Cauchy–Schwarz bound |S[i][j]| ≤ |q_i|·|k_j| is cheap to
                // maintain and unmasks the hijack; the offending element
                // (the argmax) is recomputed exactly.
                let k_max_norm = (0..bc)
                    .map(|j| k_blk.row(j).iter().map(|x| x * x).sum::<f32>().sqrt())
                    .fold(0.0f32, f32::max);
                for i in 0..rows {
                    let bound = q_norms[i] * k_max_norm * 1.05 + 1e-3;
                    if blk_max[i] > bound || !blk_max[i].is_finite() {
                        let (mut arg, mut best) = (0usize, f32::NEG_INFINITY);
                        for (j, &v) in s_blk.row(i).iter().enumerate() {
                            if v > best || !v.is_finite() {
                                best = v;
                                arg = j;
                            }
                        }
                        let before = s_blk.get(i, arg);
                        Self::repair_s_elements(
                            q_blk,
                            &k_blk,
                            &mut s_blk,
                            &[ft_abft::element::ErrorLoc {
                                row: i,
                                col: arg,
                                delta: best,
                            }],
                        );
                        if s_blk.get(i, arg) != before {
                            // The argmax itself was the corrupted element.
                            FtCounters::add(&self.counters.gemm1_corrected, 1);
                        }
                        let bm = s_blk
                            .row(i)
                            .iter()
                            .cloned()
                            .fold(f32::NEG_INFINITY, f32::max);
                        blk_max[i] = bm;
                        m_new[i] = m[i].max(bm);
                        FtCounters::add(&self.counters.max_restricted, 1);
                    }
                }
            } else if dmr {
                // Recompute the max a second time and compare.
                for i in 0..rows {
                    let mut bm2 = f32::NEG_INFINITY;
                    for &v in s_blk.row(i) {
                        bm2 = bm2.max(v);
                    }
                    bm2 = inj.corrupt_f32(
                        FaultSite::MaxReduce,
                        OpCoord::new(slot, r0 + i, jb, 1),
                        bm2,
                    );
                    if blk_max[i] != bm2 {
                        FtCounters::add(&self.counters.dmr_retries, 1);
                        // Third execution, fault-free arbitration.
                        let mut bm3 = f32::NEG_INFINITY;
                        for &v in s_blk.row(i) {
                            bm3 = bm3.max(v);
                        }
                        blk_max[i] = bm3;
                        m_new[i] = m[i].max(bm3);
                    }
                }
            }
            PhaseTimers::add(&self.timers.softmax_protect, t0.elapsed().as_nanos() as u64);

            // ---- Softmax: subtract + EXP --------------------------------
            let t0 = Instant::now();
            let mut p: MatrixF32 = Matrix::zeros(rows, bc);
            for i in 0..rows {
                let gi = r0 + i;
                let mi = m_new[i];
                let prow = p.row_mut(i);
                for (j, &sv) in s_blk.row(i).iter().enumerate() {
                    let diff = inj.corrupt_f32(
                        FaultSite::Subtract,
                        OpCoord::new(slot, gi, c0 + j, jb),
                        sv - mi,
                    );
                    let e = inj.corrupt_f32(
                        FaultSite::ExpUnit,
                        OpCoord::new(slot, gi, c0 + j, jb),
                        diff.exp(),
                    );
                    prow[j] = e;
                }
            }
            PhaseTimers::add(&self.timers.softmax, t0.elapsed().as_nanos() as u64);

            // ---- Softmax protection: product check / DMR ----------------
            let t0 = Instant::now();
            if snvr && protected {
                // Checksum reuse: transport S_c1 through subtraction + exp
                // and verify GEMM I + subtract + exp in one product check.
                let se = if opts.gemm == GemmProtection::Traditional {
                    1
                } else {
                    sb
                };
                let counts = residue_counts(bc, se);
                let mut tc1 = s_c1.clone().expect("protected");
                transport_subtract_max(&mut tc1, &m_new, &counts);
                let p_c1 = ft_abft::propagate::transport_exp(&tc1);
                let mismatches = verify_products(&p, &p_c1, se, opts.thresholds.exp_product);
                if !mismatches.is_empty() {
                    FtCounters::add(&self.counters.exp_detected, mismatches.len() as u64);
                    // Case 2: the product check already established an error
                    // in GEMM I ∪ subtract ∪ EXP; classify via the *linear*
                    // S invariant. The classifier floor sits above the
                    // FP16-checksum quantisation noise so a clean S (EXP
                    // fault) is not "corrected" into a corrupted one.
                    let classify_floor = opts.thresholds.gemm.abs_floor.max(1e-2);
                    let (sums1, sums2) = scheme_sums(opts, &s_blk, se);
                    let c1 = s_c1.as_ref().expect("protected");
                    let c2 = s_c2.as_ref().expect("protected");
                    let mut linear = Vec::new();
                    let mut exp_only = Vec::new();
                    for mm in &mismatches {
                        let d1 = sums1.get(mm.i, mm.t) - c1.get(mm.i, mm.t);
                        if d1.abs() > classify_floor || !d1.is_finite() {
                            linear.push(StridedMismatch {
                                i: mm.i,
                                t: mm.t,
                                delta1: d1,
                                delta2: sums2.get(mm.i, mm.t) - c2.get(mm.i, mm.t),
                            });
                        } else {
                            exp_only.push((mm.i, mm.t));
                        }
                    }
                    if !linear.is_empty() {
                        let rep = correct_strided(&mut s_blk, &linear, se);
                        Self::repair_s_elements(q_blk, &k_blk, &mut s_blk, &rep.corrected);
                        FtCounters::add(&self.counters.gemm1_detected, rep.detections as u64);
                        FtCounters::add(&self.counters.gemm1_corrected, rep.corrected.len() as u64);
                        if rep.uncorrectable > 0 {
                            s_blk = gemm_nt(q_blk, &k_blk);
                            FtCounters::add(
                                &self.counters.gemm1_recomputed,
                                rep.uncorrectable as u64,
                            );
                        }
                        // Recompute the affected residue classes of P from
                        // the corrected S.
                        for mm in &linear {
                            let mut col = mm.t;
                            while col < bc {
                                let e = (s_blk.get(mm.i, col) - m_new[mm.i]).exp();
                                p.set(mm.i, col, e);
                                col += se;
                            }
                        }
                    }
                    for (i, t) in exp_only {
                        // EXP fault: recompute the residue class cleanly.
                        let mut col = t;
                        while col < bc {
                            let e = (s_blk.get(i, col) - m_new[i]).exp();
                            p.set(i, col, e);
                            col += se;
                        }
                        FtCounters::add(&self.counters.exp_recomputed, 1);
                    }
                }
            } else if dmr {
                // Second replica of subtract+exp, compare, arbitrate.
                let mut disagreements = 0u64;
                for i in 0..rows {
                    let gi = r0 + i;
                    let mi = m_new[i];
                    for (j, &sv) in s_blk.row(i).iter().enumerate() {
                        let diff2 = inj.corrupt_f32(
                            FaultSite::Subtract,
                            OpCoord::new(slot, gi, c0 + j, 1000 + jb),
                            sv - mi,
                        );
                        let e2 = inj.corrupt_f32(
                            FaultSite::ExpUnit,
                            OpCoord::new(slot, gi, c0 + j, 1000 + jb),
                            diff2.exp(),
                        );
                        let e1 = p.get(i, j);
                        if (e1 - e2).abs() > 1e-6 * e1.abs().max(e2.abs()).max(1e-12) {
                            // Third, fault-free execution arbitrates.
                            p.set(i, j, (sv - mi).exp());
                            disagreements += 1;
                        }
                    }
                }
                FtCounters::add(&self.counters.dmr_retries, disagreements);
            }
            PhaseTimers::add(&self.timers.softmax_protect, t0.elapsed().as_nanos() as u64);

            // ---- Softmax: rowsum + rescale factors ----------------------
            let t0 = Instant::now();
            let mut factors = vec![0.0f32; rows];
            let mut rowsums = vec![0.0f32; rows];
            for i in 0..rows {
                let gi = r0 + i;
                let factor = if m[i].is_finite() {
                    (m[i] - m_new[i]).exp()
                } else {
                    0.0
                };
                let factor =
                    inj.corrupt_f32(FaultSite::Rescale, OpCoord::new(slot, gi, jb, 2), factor);
                let mut rs = 0.0f32;
                for &e in p.row(i) {
                    rs += e;
                }
                let rs = inj.corrupt_f32(FaultSite::SumReduce, OpCoord::new(slot, gi, jb, 1), rs);
                ell[i] = factor * ell[i] + rs;
                factors[i] = factor;
                rowsums[i] = rs;
                m[i] = m_new[i];
                max_hist[i].push(blk_max[i]);
            }
            PhaseTimers::add(&self.timers.softmax, t0.elapsed().as_nanos() as u64);

            // DMR protects the rowsum with a second summation.
            if dmr {
                let t0 = Instant::now();
                let mut disagreements = 0u64;
                for i in 0..rows {
                    let gi = r0 + i;
                    let mut rs2 = 0.0f32;
                    for &e in p.row(i) {
                        rs2 += e;
                    }
                    let rs2 = inj.corrupt_f32(
                        FaultSite::SumReduce,
                        OpCoord::new(slot, gi, jb, 2001),
                        rs2,
                    );
                    if (rowsums[i] - rs2).abs() > 1e-5 * rowsums[i].abs().max(rs2.abs()) {
                        // Third, fault-free execution arbitrates; redo the
                        // ℓ update with the arbitrated sum.
                        let mut rs3 = 0.0f32;
                        for &e in p.row(i) {
                            rs3 += e;
                        }
                        ell[i] = ell[i] - rowsums[i] + rs3;
                        rowsums[i] = rs3;
                        disagreements += 1;
                    }
                }
                FtCounters::add(&self.counters.dmr_retries, disagreements);
                PhaseTimers::add(&self.timers.softmax_protect, t0.elapsed().as_nanos() as u64);
            }

            // Per-step rowsum restriction ("EFTA" checks every iteration).
            if per_step && snvr {
                let t0 = Instant::now();
                for i in 0..rows {
                    if let Restriction::Repaired { .. } =
                        restrict_rowsum(ell[i], &max_hist[i], m[i], cfg.seq)
                    {
                        // Recompute the rowsum cleanly and redo the update.
                        let mut rs = 0.0f32;
                        for &e in p.row(i) {
                            rs += e;
                        }
                        // ℓ may already be poisoned from the corrupted
                        // accumulate; rebuild from the restriction bound.
                        let lower: f32 = max_hist[i].iter().map(|&mk| (mk - m[i]).exp()).sum();
                        ell[i] = (lower - (blk_max[i] - m[i]).exp()).max(0.0) + rs;
                        FtCounters::add(&self.counters.sum_restricted, 1);
                    }
                }
                PhaseTimers::add(&self.timers.softmax_protect, t0.elapsed().as_nanos() as u64);
            }

            // ---- GEMM II + rescale --------------------------------------
            let t0 = Instant::now();
            // P is quantised to FP16 to feed the second tensor-core GEMM.
            let p16 = p.to_f16().to_f32();
            let pv = gemm_nn_inj(
                &p16,
                &v_blk,
                inj,
                GemmCtx::new(FaultSite::GemmIiAccum, slot)
                    .at(r0, 0)
                    .iter(3 * jb),
            );
            for i in 0..rows {
                let f = factors[i];
                let gi = r0 + i;
                for (col, (ov, &dv)) in o.row_mut(i).iter_mut().zip(pv.row(i)).enumerate() {
                    let scaled = inj.corrupt_f32(
                        FaultSite::Rescale,
                        OpCoord::new(slot, gi, col, 4000 + jb),
                        f * *ov,
                    );
                    *ov = scaled + dv;
                }
            }
            PhaseTimers::add(&self.timers.gemm2, t0.elapsed().as_nanos() as u64);

            // ---- GEMM II protection -------------------------------------
            if protected {
                let t0 = Instant::now();
                let vcs = encode_v(opts, &v_blk);
                // Traditional checksums pay the full 8-wide MMA tile too.
                let checksum_gemm2 = |w: &MatrixF32, it: usize| {
                    let ctx = GemmCtx::new(FaultSite::GemmIiAccum, slot)
                        .at(r0, d)
                        .iter(3 * jb + it);
                    if opts.gemm == GemmProtection::Traditional {
                        let zero = Matrix::zeros(w.rows(), 7);
                        let padded = Matrix::hstack(&[w, &zero]);
                        let full = gemm_nn_inj(&p16, &padded, inj, ctx);
                        full.block(0, 0, rows, 1)
                    } else {
                        gemm_nn_inj(&p16, w, inj, ctx)
                    }
                };
                let pc1 = checksum_gemm2(&vcs.w1, 1);
                let pc2 = checksum_gemm2(&vcs.w2, 2);
                for i in 0..rows {
                    let f = factors[i];
                    for (ov, &dv) in o_c1.row_mut(i).iter_mut().zip(pc1.row(i)) {
                        *ov = f * *ov + dv;
                    }
                    for (ov, &dv) in o_c2.row_mut(i).iter_mut().zip(pc2.row(i)) {
                        *ov = f * *ov + dv;
                    }
                }
                if per_step {
                    // Verify the accumulated O invariant now. O is still
                    // unnormalised, so its magnitude (and the checksum
                    // rounding noise) grows with the running rowsum — the
                    // detection floor scales accordingly.
                    let (sums1, sums2) = scheme_sums(opts, &o, s);
                    let mut mismatches = Vec::new();
                    for i in 0..rows {
                        let chk_i = ft_abft::thresholds::Check::new(
                            opts.thresholds.output.rel,
                            opts.thresholds.output.abs_floor * (1.0 + ell[i].abs()),
                        );
                        for t in 0..s {
                            if chk_i.detects(sums1.get(i, t), o_c1.get(i, t)) {
                                mismatches.push(StridedMismatch {
                                    i,
                                    t,
                                    delta1: sums1.get(i, t) - o_c1.get(i, t),
                                    delta2: sums2.get(i, t) - o_c2.get(i, t),
                                });
                            }
                        }
                    }
                    if !mismatches.is_empty() {
                        let rep = correct_strided(&mut o, &mismatches, s);
                        FtCounters::add(&self.counters.gemm2_detected, rep.detections as u64);
                        FtCounters::add(&self.counters.gemm2_corrected, rep.corrected.len() as u64);
                        // A delta so large it swamps f32 cannot restore the
                        // true value by subtraction — recompute the block.
                        let catastrophic = rep.corrected.iter().any(|l| {
                            !l.delta.is_finite()
                                || l.delta.abs() > 1e3 * (o_c1.get(l.row, l.col % s).abs() + 1.0)
                        });
                        if rep.uncorrectable > 0 || catastrophic {
                            FtCounters::add(
                                &self.counters.gemm2_recomputed,
                                rep.uncorrectable.max(1) as u64,
                            );
                            needs_recompute = true;
                        }
                    }
                }
                PhaseTimers::add(&self.timers.gemm2_protect, t0.elapsed().as_nanos() as u64);
            }
        }

        // ---- Post-loop: SNVR rowsum restriction (unified) ---------------
        if snvr && !per_step {
            let t0 = Instant::now();
            for i in 0..rows {
                if let Restriction::Repaired { repaired } =
                    restrict_rowsum(ell[i], &max_hist[i], m[i], cfg.seq)
                {
                    // Optimised EFTA replaces ℓ with the approximation
                    // Σ_k exp(m_k − m) instead of recomputing.
                    ell[i] = repaired;
                    FtCounters::add(&self.counters.sum_restricted, 1);
                }
            }
            PhaseTimers::add(&self.timers.softmax_protect, t0.elapsed().as_nanos() as u64);
        }

        // ---- Normalise O (and checksums) ---------------------------------
        let t0 = Instant::now();
        for i in 0..rows {
            let gi = r0 + i;
            let inv = inj.corrupt_f32(
                FaultSite::Normalize,
                OpCoord::new(slot, gi, 0, 999),
                1.0 / ell[i],
            );
            for (col, v) in o.row_mut(i).iter_mut().enumerate() {
                *v = inj.corrupt_f32(
                    FaultSite::Normalize,
                    OpCoord::new(slot, gi, col, 1000),
                    *v * inv,
                );
            }
            if protected {
                for v in o_c1.row_mut(i) {
                    *v *= inv;
                }
                for v in o_c2.row_mut(i) {
                    *v *= inv;
                }
            }
        }
        PhaseTimers::add(&self.timers.gemm2, t0.elapsed().as_nanos() as u64);

        // ---- Final unified output verification ---------------------------
        if protected {
            let t0 = Instant::now();
            let (sums1, sums2) = scheme_sums(opts, &o, s);
            let mut mismatches = Vec::new();
            for i in 0..rows {
                for t in 0..s {
                    if opts
                        .thresholds
                        .output
                        .detects(sums1.get(i, t), o_c1.get(i, t))
                    {
                        mismatches.push(StridedMismatch {
                            i,
                            t,
                            delta1: sums1.get(i, t) - o_c1.get(i, t),
                            delta2: sums2.get(i, t) - o_c2.get(i, t),
                        });
                    }
                }
            }
            if !mismatches.is_empty() {
                let rep = correct_strided(&mut o, &mismatches, s);
                FtCounters::add(&self.counters.gemm2_detected, rep.detections as u64);
                FtCounters::add(&self.counters.gemm2_corrected, rep.corrected.len() as u64);
                let catastrophic = rep.corrected.iter().any(|l| {
                    !l.delta.is_finite()
                        || l.delta.abs() > 1e3 * (o_c1.get(l.row, l.col % s).abs() + 1.0)
                });
                if rep.uncorrectable > 0 || catastrophic {
                    FtCounters::add(
                        &self.counters.gemm2_recomputed,
                        rep.uncorrectable.max(1) as u64,
                    );
                    needs_recompute = true;
                }
            }
            PhaseTimers::add(&self.timers.gemm2_protect, t0.elapsed().as_nanos() as u64);
        }

        if needs_recompute {
            // Uncorrectable damage: recompute the whole row block cleanly
            // (the paper's recomputation fallback).
            let mut state = crate::flash::OnlineState::new(rows, d);
            for c0 in block_starts(cfg.seq, b) {
                let k_blk = km.block(c0, 0, b, d);
                let v_blk = vm.block(c0, 0, b, d);
                let s_blk = gemm_nt(q_blk, &k_blk);
                crate::flash::online_update(&mut state, &s_blk, &v_blk);
            }
            crate::flash::finalize(&mut state);
            o = state.o;
        }

        o
    }
}

/// Analytic kernel statistics of one EFTA forward pass under `opts`.
///
/// Purely shape-derived: benches use this to evaluate the simulated-A100
/// roofline at the paper's full sizes even when wall-clock runs are scaled
/// down.
pub fn analytic_stats(cfg: &AttentionConfig, opts: &EftaOptions) -> KernelStats {
    let s = effective_stride(opts);
    let protected = opts.gemm != GemmProtection::Unprotected;
    let b = cfg.block;
    let d = cfg.head_dim;
    let slots = cfg.num_slots() as u64;
    let nb = cfg.num_blocks() as u64;
    let blk_bytes = (b * d * 2) as u64;
    let seq2 = (cfg.seq * cfg.seq) as u64;
    let mut stats = KernelStats {
        launches: 1,
        hbm_read: slots * (nb * blk_bytes + nb * nb * 2 * blk_bytes),
        hbm_written: slots * (cfg.seq * d * 2) as u64,
        tc_flops: slots * 2 * gemm_flops(cfg.seq, cfg.seq, d),
        fp32_flops: slots * 4 * seq2,
        sfu_ops: slots * seq2,
        serial_flops: 0,
    };
    if protected {
        // Checksum GEMMs: on tensor cores a width-s (or padded-to-8
        // traditional) operand occupies at least one 8-wide MMA tile; two
        // checksums on each of the two GEMMs.
        let cw = s.max(8);
        stats.tc_flops += slots * 2 * gemm_flops(cfg.seq, cw, d) * nb * 2;
        // Encode reductions and verification strided sums are FP32 work
        // that cannot hide under the tensor-core pipeline: encode touches
        // every K/V element per block pair, verification reduces every S/O
        // element once.
        let encode = 4 * (cfg.seq * d) as u64 * nb;
        let verify = seq2 + 2 * (cfg.seq * d) as u64;
        let mut serial = encode + verify;
        if opts.gemm == GemmProtection::Traditional {
            // Inter-thread gather: 5 shuffle rounds per folded value plus
            // warp divergence on the 1-wide fold (≈7/8 idle lanes).
            serial = serial * 3 + 5 * seq2;
        }
        stats.serial_flops += slots * serial;
        stats.hbm_read += slots * nb * nb * 2 * (cw * d * 2) as u64 / 8;
    }
    match opts.softmax {
        SoftmaxProtection::Dmr => {
            // Full second execution of subtract+exp+sum, plus comparisons —
            // redundant work competes for the same units and serialises.
            stats.sfu_ops += slots * seq2;
            stats.serial_flops += slots * 4 * seq2;
        }
        SoftmaxProtection::Snvr => {
            // Product check: one multiply per element + transported
            // checksum exp + restriction comparisons per row.
            stats.serial_flops += slots * (seq2 / 2 + 4 * cfg.seq as u64 * nb);
            stats.sfu_ops += slots * (cfg.seq * s) as u64 * nb;
        }
        SoftmaxProtection::Unprotected => {}
    }
    if opts.verify == VerifyMode::PerStep && protected {
        // Per-iteration verification re-reduces S and O every block step
        // instead of once: nb-fold more verification sums.
        stats.serial_flops += slots * (2 * seq2 + (cfg.seq * d) as u64 * nb);
    }
    stats
}

/// Fused EFTA kernel body; [`crate::backend::EftaBackend`] is the public
/// entry point.
pub(crate) fn efta_forward<I: FaultInjector>(
    cfg: &AttentionConfig,
    q: &Tensor4F16,
    k: &Tensor4F16,
    v: &Tensor4F16,
    inj: &I,
    opts: &EftaOptions,
) -> AttentionOutput {
    assert!(
        !cfg.causal,
        "EFTA protects unmasked attention (paper setting)"
    );
    assert!(
        cfg.seq >= opts.stride,
        "sequence shorter than checksum stride"
    );
    let counters = FtCounters::new();
    let timers = PhaseTimers::new();
    let b = cfg.block;
    let d = cfg.head_dim;

    let tasks: Vec<(usize, usize)> = (0..cfg.num_slots())
        .flat_map(|s| block_starts(cfg.seq, b).map(move |r0| (s, r0)))
        .collect();

    let worker = Worker {
        cfg,
        opts,
        inj,
        counters: &counters,
        timers: &timers,
    };

    let results: Vec<RowBlockResult> = tasks
        .into_par_iter()
        .map(|(slot, r0)| {
            let qm = q.slot_flat(slot);
            let km = k.slot_flat(slot).to_f32();
            let vm = v.slot_flat(slot).to_f32();
            let q_raw = qm.block(r0, 0, b, d).to_f32();
            let q_blk = Matrix::from_fn(q_raw.rows(), d, |i, j| q_raw.get(i, j) * cfg.scale);
            let o = worker.run(slot, r0, &q_blk, &km, &vm);
            RowBlockResult { slot, r0, o }
        })
        .collect();

    let mut o = Tensor4F32::zeros(cfg.batch, cfg.heads, cfg.seq, cfg.head_dim);
    for r in results {
        let (bi, h) = o.unflatten(r.slot);
        o.slot_mut(bi, h).set_block(r.r0, 0, &r.o);
    }

    let mut timeline = Timeline::new();
    timeline.push("efta", analytic_stats(cfg, opts));

    AttentionOutput {
        o,
        timeline,
        report: counters.snapshot(),
        phases: timers.snapshot_secs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_forward;
    use ft_num::rng::normal_tensor_f16;
    use ft_sim::{NoFaults, SeuInjector};

    fn qkv(cfg: &AttentionConfig, seed: u64) -> (Tensor4F16, Tensor4F16, Tensor4F16) {
        let q = normal_tensor_f16(seed, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.6);
        let k = normal_tensor_f16(seed + 1, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.6);
        let v = normal_tensor_f16(seed + 2, cfg.batch, cfg.heads, cfg.seq, cfg.head_dim, 0.8);
        (q, k, v)
    }

    fn small_cfg() -> AttentionConfig {
        AttentionConfig::new(1, 2, 64, 32).with_block(32)
    }

    #[test]
    fn clean_efta_matches_reference() {
        let cfg = small_cfg();
        let (q, k, v) = qkv(&cfg, 50);
        let out = efta_forward(&cfg, &q, &k, &v, &NoFaults, &EftaOptions::optimized());
        let reference = reference_forward(&cfg, &q, &k, &v);
        let diff = out.o.max_abs_diff(&reference);
        assert!(diff < 2e-3, "diff {diff}");
        assert!(out.report.clean(), "{:?}", out.report);
    }

    #[test]
    fn clean_efta_per_step_matches_reference() {
        let cfg = small_cfg();
        let (q, k, v) = qkv(&cfg, 51);
        let out = efta_forward(&cfg, &q, &k, &v, &NoFaults, &EftaOptions::per_step());
        let reference = reference_forward(&cfg, &q, &k, &v);
        assert!(out.o.max_abs_diff(&reference) < 2e-3);
        assert!(out.report.clean(), "{:?}", out.report);
    }

    #[test]
    fn clean_efta_traditional_and_dmr_match_reference() {
        let cfg = small_cfg();
        let (q, k, v) = qkv(&cfg, 52);
        for opts in [
            EftaOptions::per_step().with_gemm(GemmProtection::Traditional),
            EftaOptions::per_step().with_softmax(SoftmaxProtection::Dmr),
            EftaOptions::unprotected(),
        ] {
            let out = efta_forward(&cfg, &q, &k, &v, &NoFaults, &opts);
            let reference = reference_forward(&cfg, &q, &k, &v);
            assert!(
                out.o.max_abs_diff(&reference) < 2e-3,
                "opts {opts:?}: diff {}",
                out.o.max_abs_diff(&reference)
            );
            assert!(out.report.clean(), "opts {opts:?}: {:?}", out.report);
        }
    }

    #[test]
    fn gemm1_seu_is_detected_and_corrected() {
        let cfg = small_cfg();
        let (q, k, v) = qkv(&cfg, 53);
        let clean = efta_forward(&cfg, &q, &k, &v, &NoFaults, &EftaOptions::optimized());
        // Exponent-bit flip in the GEMM I accumulator of element (5, 40)
        // of slot 1 (data pass of block 1: iter 3).
        // Setting exponent bit 30 of a sub-2.0 accumulator produces a
        // ~2^128× error: unmissable at any sane threshold.
        let inj = SeuInjector::new(FaultSite::GemmIAccum, OpCoord::new(1, 5, 40, 3), 30)
            .at_chain_step(20);
        let out = efta_forward(&cfg, &q, &k, &v, &inj, &EftaOptions::optimized());
        assert_eq!(inj.fired(), 1, "fault must fire");
        // Depending on the corrupted accumulator's sign the error is caught
        // by the product check (negative-huge) or by the max-plausibility
        // restriction (positive-huge hijack); both must repair it.
        assert!(out.report.total_detected() > 0, "{:?}", out.report);
        assert!(out.report.total_repaired() > 0, "{:?}", out.report);
        let diff = out.o.max_abs_diff(&clean.o);
        assert!(diff < 5e-2, "corrected output differs by {diff}");
    }

    #[test]
    fn exp_seu_is_detected_and_recomputed() {
        let cfg = small_cfg();
        let (q, k, v) = qkv(&cfg, 54);
        let clean = efta_forward(&cfg, &q, &k, &v, &NoFaults, &EftaOptions::optimized());
        let inj = SeuInjector::new(FaultSite::ExpUnit, OpCoord::new(0, 3, 17, 0), 27);
        let out = efta_forward(&cfg, &q, &k, &v, &inj, &EftaOptions::optimized());
        assert_eq!(inj.fired(), 1);
        assert!(out.report.exp_detected > 0, "{:?}", out.report);
        assert!(out.report.exp_recomputed > 0, "{:?}", out.report);
        assert!(out.o.max_abs_diff(&clean.o) < 5e-2);
    }

    #[test]
    fn gemm2_seu_is_detected_and_corrected() {
        let cfg = small_cfg();
        let (q, k, v) = qkv(&cfg, 55);
        let clean = efta_forward(&cfg, &q, &k, &v, &NoFaults, &EftaOptions::optimized());
        let inj = SeuInjector::new(FaultSite::GemmIiAccum, OpCoord::new(1, 9, 5, 3), 30)
            .at_chain_step(10);
        let out = efta_forward(&cfg, &q, &k, &v, &inj, &EftaOptions::optimized());
        assert_eq!(inj.fired(), 1);
        assert!(out.report.gemm2_detected > 0, "{:?}", out.report);
        let diff = out.o.max_abs_diff(&clean.o);
        assert!(diff < 5e-2, "diff {diff}");
    }

    /// Computing-unit fault that scales one value at (site, coord) — used
    /// to place a deterministic out-of-range corruption (a single bit flip
    /// can land in-range, where the restriction tolerates it *by design*).
    struct ScaleFault {
        site: FaultSite,
        coord: OpCoord,
        scale: f32,
        fired: std::sync::atomic::AtomicU64,
    }

    impl FaultInjector for ScaleFault {
        fn corrupt_f32(&self, site: FaultSite, coord: OpCoord, value: f32) -> f32 {
            if site == self.site && coord == self.coord {
                self.fired
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                value * self.scale
            } else {
                value
            }
        }
        fn corrupt_f16(&self, _: FaultSite, _: OpCoord, value: ft_num::F16) -> ft_num::F16 {
            value
        }
        fn fired(&self) -> u64 {
            self.fired.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    #[test]
    fn sum_reduce_seu_is_range_restricted() {
        let cfg = small_cfg();
        let (q, k, v) = qkv(&cfg, 56);
        let clean = efta_forward(&cfg, &q, &k, &v, &NoFaults, &EftaOptions::optimized());
        // Blow the rowsum far past the ℓ ≤ seq_len bound.
        let inj = ScaleFault {
            site: FaultSite::SumReduce,
            coord: OpCoord::new(0, 7, 1, 1),
            scale: 1e6,
            fired: std::sync::atomic::AtomicU64::new(0),
        };
        let out = efta_forward(&cfg, &q, &k, &v, &inj, &EftaOptions::optimized());
        assert_eq!(inj.fired(), 1);
        assert!(out.report.sum_restricted > 0, "{:?}", out.report);
        // ℓ is replaced by the lower-bound approximation, which rescales
        // the whole row by one positive factor: relative magnitudes (what
        // attention cares about, per the paper) are preserved exactly.
        let clean_row = clean.o.slot(0, 0).row(7);
        let out_row = out.o.slot(0, 0).row(7);
        let mut ratio = None;
        for (c, o) in clean_row.iter().zip(out_row) {
            if c.abs() > 1e-3 {
                let r = o / c;
                assert!(r.is_finite() && r > 0.0, "ratio {r}");
                match ratio {
                    None => ratio = Some(r),
                    Some(prev) => assert!(
                        (r - prev).abs() < 1e-2 * prev.abs(),
                        "row not uniformly rescaled: {r} vs {prev}"
                    ),
                }
            }
        }
        assert!(ratio.is_some(), "row must have non-trivial entries");
        // Other rows are untouched.
        for i in 0..16 {
            if i != 7 {
                let d: f32 = clean
                    .o
                    .slot(0, 0)
                    .row(i)
                    .iter()
                    .zip(out.o.slot(0, 0).row(i))
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f32::max);
                assert!(d < 1e-5, "row {i} changed by {d}");
            }
        }
        assert!(!out.o.has_non_finite());
    }

    #[test]
    fn in_range_rowsum_corruption_is_tolerated_by_design() {
        // A corruption that stays within [Σ exp(m_k − m), n] passes the
        // restriction — the paper accepts these because the attention
        // *ordering* (the relative magnitudes) is unaffected.
        let cfg = small_cfg();
        let (q, k, v) = qkv(&cfg, 61);
        let inj = ScaleFault {
            site: FaultSite::SumReduce,
            coord: OpCoord::new(0, 7, 1, 1),
            scale: 1.3,
            fired: std::sync::atomic::AtomicU64::new(0),
        };
        let out = efta_forward(&cfg, &q, &k, &v, &inj, &EftaOptions::optimized());
        assert_eq!(inj.fired(), 1);
        assert!(!out.o.has_non_finite());
        // Row 7's weights are uniformly rescaled: ordering preserved.
        let row = out.o.slot(0, 0).row(7).to_vec();
        assert!(row.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn positive_max_hijack_is_unmasked_by_plausibility_bound() {
        // A +2^128-scale GEMM error becomes the row max and silences the
        // product check (every exp underflows on both sides). The
        // Cauchy–Schwarz restriction catches it (extension; DESIGN.md §4).
        let cfg = small_cfg();
        let (q, k, v) = qkv(&cfg, 62);
        let clean = efta_forward(&cfg, &q, &k, &v, &NoFaults, &EftaOptions::optimized());
        let inj = ScaleFault {
            site: FaultSite::MaxReduce,
            coord: OpCoord::new(0, 3, 0, 0),
            scale: 1e20,
            fired: std::sync::atomic::AtomicU64::new(0),
        };
        let out = efta_forward(&cfg, &q, &k, &v, &inj, &EftaOptions::optimized());
        assert_eq!(inj.fired(), 1);
        assert!(out.report.max_restricted > 0, "{:?}", out.report);
        assert!(out.o.max_abs_diff(&clean.o) < 5e-2);
        assert!(!out.o.has_non_finite());
    }

    #[test]
    fn max_reduce_seu_cancels_or_is_restricted() {
        let cfg = small_cfg();
        let (q, k, v) = qkv(&cfg, 57);
        let clean = efta_forward(&cfg, &q, &k, &v, &NoFaults, &EftaOptions::optimized());
        // Flip the max downward (sign bit): dangerous direction → restricted.
        let inj = SeuInjector::new(FaultSite::MaxReduce, OpCoord::new(0, 2, 0, 0), 31);
        let out = efta_forward(&cfg, &q, &k, &v, &inj, &EftaOptions::optimized());
        assert_eq!(inj.fired(), 1);
        assert!(!out.o.has_non_finite());
        let diff = out.o.max_abs_diff(&clean.o);
        assert!(diff < 5e-2, "diff {diff}");
    }

    #[test]
    fn normalize_seu_is_caught_by_final_check() {
        let cfg = small_cfg();
        let (q, k, v) = qkv(&cfg, 58);
        let clean = efta_forward(&cfg, &q, &k, &v, &NoFaults, &EftaOptions::optimized());
        // Corrupt one normalised output element (post-divide).
        let inj = SeuInjector::new(FaultSite::Normalize, OpCoord::new(0, 4, 9, 1000), 29);
        let out = efta_forward(&cfg, &q, &k, &v, &inj, &EftaOptions::optimized());
        assert_eq!(inj.fired(), 1);
        assert!(out.report.gemm2_detected > 0, "{:?}", out.report);
        assert!(out.o.max_abs_diff(&clean.o) < 5e-2);
    }

    #[test]
    fn unprotected_efta_lets_faults_through() {
        let cfg = small_cfg();
        let (q, k, v) = qkv(&cfg, 59);
        let clean = efta_forward(&cfg, &q, &k, &v, &NoFaults, &EftaOptions::optimized());
        // Column 40 lives in block j=1, whose data GEMM runs as iter 3.
        let inj = SeuInjector::new(FaultSite::GemmIAccum, OpCoord::new(0, 5, 40, 3), 30)
            .at_chain_step(20);
        let out = efta_forward(&cfg, &q, &k, &v, &inj, &EftaOptions::unprotected());
        assert_eq!(inj.fired(), 1);
        assert!(out.report.clean());
        // The corruption reaches the output.
        assert!(out.o.max_abs_diff(&clean.o) > 1e-2);
    }

    #[test]
    fn stats_reflect_single_launch_and_protection_overhead() {
        let cfg = small_cfg();
        let (q, k, v) = qkv(&cfg, 60);
        let protected = efta_forward(&cfg, &q, &k, &v, &NoFaults, &EftaOptions::optimized());
        let bare = efta_forward(&cfg, &q, &k, &v, &NoFaults, &EftaOptions::unprotected());
        assert_eq!(protected.timeline.total().launches, 1);
        assert!(protected.timeline.total().tc_flops > bare.timeline.total().tc_flops);
        assert!(protected.timeline.total().serial_flops > bare.timeline.total().serial_flops);
    }
}

//! End-to-end fault tolerant attention (EFTA) — the paper's contribution
//! (§3.2–3.4, Algorithm 1).
//!
//! One fused kernel computes flash attention *and* its fault tolerance, and
//! this module holds it exactly once: a row state (`RowState`: `m`, `ℓ`,
//! `O`, the output checksums `O_c1`/`O_c2`, the block-max history, a
//! damage flag, and the tile's own fault ledger and phase times for a tile
//! of query rows) with two methods.
//!
//! * `RowState::step` is one inner iteration of Algorithm 1 for a
//!   contiguous range of the tile's rows against one K/V block and its
//!   checksum operands. **Lines 9–16:** GEMM I and its
//!   checksum GEMMs; reduce-max under selective neuron value restriction
//!   (the max must bound its block); subtract + EXP, with `S_c1` carried
//!   through both so a single product check verifies GEMM I, subtraction
//!   and exponential together (checksum reuse). **Lines 18–20:** rowsum,
//!   then GEMM II with `O_c1`/`O_c2` riding the online-softmax rescale.
//! * `RowState::finish` closes the tile. **Lines 22–24:** the rowsum
//!   restriction `Σ exp(m_k − m) ≤ ℓ ≤ n`. **Lines 25–29:** normalise `O`
//!   and its checksums, one output check that locates and corrects, and the
//!   "needs recompute" verdict — served by a clean online-softmax pass over
//!   the same blocks. It returns `O` with the tile's ledger, which the
//!   caller folds with [`FtReport::merged`].
//!
//! Two kernels call it. Prefill (`efta_forward`, below) steps a B-row state
//! per (slot, row block) over operands it prepares once per slot per call —
//! each column block's `Kᵀ` and V in f32, checksum operands (encoded
//! through FP16) and max-norm — every row against every block, with
//! unrepairable damage recomputing the whole tile; the decode tile
//! ([`crate::decode`]) steps one `c`-row state over operands the KV cache
//! stored at append time, one step per attended block covering every row
//! that attends it, with damage recomputing the damaged row alone.
//! Operands (a decode step's frontier rows see a prefix of the block,
//! `Frontier`), fault coordinates, each row's rowsum bound `n` and the
//! reach of damage (`DamageGroup`) are inputs to the step; nothing else
//! differs between the two.
//!
//! The step computes no GEMM chain itself: every product, fault pass and
//! exact recompute is `ft_sim`'s (`gemm_nn` / `ragged_product`, their
//! `_pair` forms for a fold's two checksum operands side by side, the one
//! `gemm_fault_pass`, the one `gemm_chain`), and the step only decides
//! their shapes and fault coordinates — a row's visible width, a frontier
//! row's own checksum operand, a checksum chain's column base. From
//! `crate::flash` it takes only the online-softmax state its
//! recomputation fallback runs.
//!
//! Every exponential — P, the transported checksums of the product check,
//! the rescale factors and the rowsum bounds — is `ft_num::expf`, an
//! in-repo port of glibc's `expf` with the same bits on every platform:
//! the clean P block and the product check's transported checksums go
//! through its slice form `expf_slice` at vector width, and the
//! per-element fault sites and recomputes through the scalar form.
//!
//! [`VerifyMode::PerStep`] is the unoptimised "EFTA" of Tables 1–2 (verify
//! after every operation); [`VerifyMode::Unified`] is the optimised "EFTA-o"
//! with the reordered, batched verification described above. The
//! [`GemmProtection`] and [`SoftmaxProtection`] knobs select the comparators
//! of Figs. 11 and 13 (traditional element ABFT, DMR) inside the same step.

// Index-based loops are kept deliberately: they mirror the thread/lane
// structure of the GPU kernels this module models.
#![allow(clippy::needless_range_loop)]

use crate::config::AttentionConfig;
use crate::snvr::{restrict_row_max, restrict_rowsum, Restriction};
use crate::types::{AttentionOutput, FtReport, PhaseBreakdown};
use ft_abft::strided::{
    correct_strided, encode_cols_strided, fold_row, strided_sums, strided_sums_weighted,
    StridedChecksums, StridedMismatch,
};
use ft_abft::thresholds::{Check, Thresholds};
use ft_num::{
    block_starts, expf, expf_slice, quantize_f32, Matrix, MatrixF16, MatrixF32, Tensor4F16,
    Tensor4F32,
};
use ft_sim::cost::Timeline;
use ft_sim::device::KernelStats;
use ft_sim::{
    gemm_chain, gemm_fault_pass, gemm_flops, gemm_nn, gemm_nn_pair, ragged_product,
    ragged_product_pair, FaultInjector, FaultSite, GemmCtx, OpCoord,
};
use rayon::prelude::*;
use std::borrow::Cow;
use std::ops::Range;
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
            ..Self::optimized()
        }
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

/// Prefill's checksum operands feed the FP16 tensor-core operand path, so
/// every per-call encode rounds them through binary16.
const QUANTIZE_CHECKSUMS: bool = true;

/// Encode the checksum operands of a GEMM's k-major operand — `Kᵀ` for
/// GEMM I, V for GEMM II — by folding its columns at stride `s` under the
/// configured scheme. Traditional encoding folds at width 1 and pays the
/// inter-thread gather (emulated by an explicit transpose round-trip).
fn encode_operand(opts: &EftaOptions, m: &MatrixF32, s: usize) -> StridedChecksums {
    match opts.gemm {
        GemmProtection::Traditional => {
            // Gather: data leaves the owning lanes (transpose), is folded,
            // and the result is scattered back — the communication the
            // strided design eliminates.
            let gathered = m.transpose().transpose();
            encode_cols_strided(&gathered, 1, QUANTIZE_CHECKSUMS)
        }
        _ => encode_cols_strided(m, s, QUANTIZE_CHECKSUMS),
    }
}

/// A fold's two checksum operands as its checksum GEMMs read them.
/// Traditional 1-wide checksums are padded to the 8-wide MMA tile a tensor
/// core must dedicate to them anyway — their checksum GEMM costs the same
/// as the strided design's, plus the gather; this is the hardware
/// economics of Fig. 11.
fn mma_operands<'a>(opts: &EftaOptions, cs: &'a StridedChecksums) -> [Cow<'a, MatrixF32>; 2] {
    [&cs.w1, &cs.w2].map(|w| match opts.gemm {
        GemmProtection::Traditional => {
            Cow::Owned(Matrix::hstack(&[w, &Matrix::zeros(w.rows(), 7)]))
        }
        _ => Cow::Borrowed(w),
    })
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

/// Every (row, residue class) of rows `rows` of `c` where the strided sums
/// of row `i`'s first `w` columns at stride `s`, `(w, s) = shape(i)`, leave
/// its carried checksum results `(c1, c2)` by more than `chk(i)`.
fn checksum_mismatches(
    opts: &EftaOptions,
    c: &MatrixF32,
    (c1, c2): (&MatrixF32, &MatrixF32),
    rows: Range<usize>,
    shape: impl Fn(usize) -> (usize, usize),
    chk: impl Fn(usize) -> Check,
) -> Vec<StridedMismatch> {
    let mut out = Vec::new();
    for (run, (w, s)) in runs(rows, shape) {
        let part;
        let c_run = if run == (0..c.rows()) && w == c.cols() {
            c
        } else {
            part = c.block(run.start, 0, run.len(), w);
            &part
        };
        let (sums1, sums2) = scheme_sums(opts, c_run, s);
        for (k, i) in run.enumerate() {
            let chk = chk(i);
            for t in 0..s {
                if chk.detects(sums1.get(k, t), c1.get(i, t)) {
                    out.push(StridedMismatch {
                        i,
                        t,
                        delta1: sums1.get(k, t) - c1.get(i, t),
                        delta2: sums2.get(k, t) - c2.get(i, t),
                    });
                }
            }
        }
    }
    out
}

/// `rows` cut into maximal runs of rows with equal `key`.
fn runs<K: PartialEq + Copy>(
    rows: Range<usize>,
    key: impl Fn(usize) -> K,
) -> impl Iterator<Item = (Range<usize>, K)> {
    let mut start = rows.start;
    core::iter::from_fn(move || {
        let k = (start < rows.end).then(|| key(start))?;
        let end = (start + 1..rows.end)
            .find(|&i| key(i) != k)
            .unwrap_or(rows.end);
        let run = start..end;
        start = end;
        Some((run, k))
    })
}

/// The product check (Algorithm 1 line 13) of every row of `p`: row `i`'s
/// carried GEMM I checksum (the first `se` lanes of row `i` of `c1`, one
/// value per residue class), transported through the subtraction of its
/// row max `m[i]` and the exponential, against the strided products of its
/// first `w` columns of `p`, `(w, se) = shape(i)` — the arithmetic of
/// `ft_abft::propagate`'s `transport_subtract_max`, `transport_exp` and
/// `verify_products`, lane for lane. Returns the mismatches row-major.
fn product_mismatches(
    (p, c1): (&MatrixF32, &MatrixF32),
    m: &[f32],
    shape: impl Fn(usize) -> (usize, usize),
    chk: Check,
) -> Vec<StridedMismatch> {
    // Row-major `rows × lanes` buffers; a lane past a row's `se` keeps a
    // product of 1 against a transported `exp(0) = 1`, which never fires.
    let (rows, lanes) = c1.shape();
    let mut prods = vec![1.0f32; rows * lanes];
    let mut want = vec![0.0f32; rows * lanes];
    let per_row = prods
        .chunks_exact_mut(lanes)
        .zip(want.chunks_exact_mut(lanes));
    for (i, (prods, want)) in per_row.enumerate() {
        let (w, se) = shape(i);
        fold_row(&p.row(i)[..w], &mut prods[..se], |acc, _, x| acc * x);
        // Lane `t` holds ⌈(w − t)/se⌉ of the row's columns: ⌊w/se⌋, and one
        // more below `w mod se`.
        let (full, extra) = (w / se, w % se);
        let (sub_lo, sub_hi) = (full as f32 * m[i], (full + 1) as f32 * m[i]);
        for (t, (v, &c)) in want[..se].iter_mut().zip(c1.row(i)).enumerate() {
            *v = c - if t < extra { sub_hi } else { sub_lo };
        }
    }
    // Every row's transported checksums through the exponential at once,
    // then every lane checked at once; only a block with a mismatch is
    // walked lane by lane.
    expf_slice(&mut want);
    let fired = |(&got, &want): (&f32, &f32)| chk.detects(got, want);
    if !prods
        .iter()
        .zip(&want)
        .fold(false, |any, lane| any | fired(lane))
    {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 0..rows {
        let at = i * lanes..i * lanes + shape(i).1;
        for (t, (&got, &want)) in prods[at.clone()].iter().zip(&want[at]).enumerate() {
            if chk.detects(got, want) {
                out.push(StridedMismatch {
                    i,
                    t,
                    delta1: got - want,
                    delta2: if want != 0.0 {
                        got / want
                    } else {
                        f32::INFINITY
                    },
                });
            }
        }
    }
    out
}

fn row_max(row: &[f32]) -> f32 {
    row.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
}

/// Ascending-order f32 sum (the rowsum's arithmetic order is pinned by the
/// bit-identity suites).
fn row_sum(row: &[f32]) -> f32 {
    row.iter().fold(0.0f32, |acc, &e| acc + e)
}

/// Largest Euclidean key norm of a K block held as `Kᵀ` (one key per
/// column): with the query row norms it gives the Cauchy–Schwarz bound
/// `|S[i][j]| ≤ |q_i|·|k_j|` the SNVR max-plausibility restriction checks.
pub(crate) fn max_key_norm(kt: &MatrixF32) -> f32 {
    // Every key's `row_norm` sum at once: `Kᵀ`'s rows are the keys' `c`-th
    // elements, added in ascending `c` to a start of `0.0` (`Sum`'s `-0.0`
    // gives the same bits, as no square is `-0.0`).
    let mut squares = vec![0.0f32; kt.cols()];
    for c in 0..kt.rows() {
        for (sq, &x) in squares.iter_mut().zip(kt.row(c)) {
            *sq += x * x;
        }
    }
    squares.iter().fold(0.0f32, |m, sq| m.max(sq.sqrt()))
}

/// Euclidean norm of key `j` of `Kᵀ` (its column `j`).
fn key_norm(kt: &MatrixF32, j: usize) -> f32 {
    row_norm((0..kt.rows()).map(|c| kt.get(c, j)))
}

/// Euclidean norm of one key — the one summation order every holder of a
/// max-norm bound uses (the cache folds it in key by key).
pub(crate) fn row_norm(row: impl IntoIterator<Item = f32>) -> f32 {
    row.into_iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Phase stopwatch: `to` charges the time since the previous mark to one
/// phase. Untimed (decode) it never reads the clock.
struct Lap(Option<Instant>);

impl Lap {
    fn start(timed: bool) -> Self {
        Lap(timed.then(Instant::now))
    }

    fn to(&mut self, phase: &mut f64) {
        if let Some(since) = &mut self.0 {
            let now = Instant::now();
            *phase += (now - *since).as_secs_f64();
            *since = now;
        }
    }
}

/// What one kernel call fixes for every step of one `(batch, head)` slot.
pub(crate) struct Kernel<'a, I: FaultInjector> {
    pub opts: &'a EftaOptions,
    pub inj: &'a I,
    /// Prefill times its phases; decode does not.
    pub timed: bool,
    pub slot: usize,
}

/// One K/V column block as an inner iteration of Algorithm 1 consumes it:
/// prepared once per slot per call in prefill, read from the KV cache in
/// decode.
pub(crate) struct BlockOperands<'a> {
    /// The K block as `Kᵀ` (`d × rows`): GEMM I's k-major operand.
    pub kt: &'a MatrixF32,
    pub v: &'a MatrixF32,
    /// GEMM I / GEMM II checksum operands `(kt_cs, v_cs)` of the whole
    /// block, the column folds of `kt` (`d × s`) and `v`; `None` under
    /// [`GemmProtection::Unprotected`].
    pub checksums: Option<(&'a StridedChecksums, &'a StridedChecksums)>,
    /// [`max_key_norm`] of the K block (read under SNVR only).
    pub k_max_norm: f32,
    /// Block index: the iteration id of fault coordinates.
    pub jb: usize,
    /// Global column of the block's first K row.
    pub c0: usize,
    /// The step's leading rows that see only a prefix of the block (a
    /// decode chunk's causal frontier), with their own operands; `None`
    /// when every row sees the block whole.
    pub frontier: Option<&'a Frontier<'a>>,
}

impl BlockOperands<'_> {
    /// Leading step rows in the frontier.
    fn frontier_rows(&self) -> usize {
        self.frontier.map_or(0, |f| f.widths.len())
    }

    /// Columns step row `i` sees: a frontier row its prefix, any other row
    /// the whole block.
    fn width(&self, i: usize) -> usize {
        match self.frontier {
            Some(f) if i < f.widths.len() => f.widths.start + i,
            _ => self.kt.cols(),
        }
    }

    /// The max-norm bound of what step row `i` sees.
    fn max_norm(&self, i: usize) -> f32 {
        match self.frontier {
            Some(f) if i < f.widths.len() => f.k_max_norm[i],
            _ => self.k_max_norm,
        }
    }
}

/// The operands of a step's frontier — its leading rows, row `i` seeing
/// only the first `widths.start + i` rows of the block (a decode chunk's
/// rows whose causal prefix ends inside it) — built from the block's
/// verified copy once per `(tile, block)` for every frontier row at once.
/// Each prefix's operands are the ones a cache holding only that prefix
/// would store, bit for bit:
///
/// * `Kᵀ`'s lanes fold one key (column) at a time like `KvBlock::push_row`
///   (key `j` into lane `j mod s`, each lane in ascending group order from
///   `0.0`); a prefix shorter than the stride folds at its key count, one
///   key per lane: its leading lanes. A row's GEMM I checksum GEMV against
///   its own prefix operand (`S_c1 = q·w1`, `S_c2 = q·w2`, each lane one
///   ascending-k chain) runs as the fold reaches that prefix, so no prefix
///   operand is ever copied; the fault path rebuilds one on demand.
/// * V's column fold is row-local, so one fold of the whole verified block
///   serves every prefix by its leading rows.
/// * The max-norm is a running max over the folded rows.
pub(crate) struct Frontier<'a> {
    /// Visible rows of the frontier's first row; each next row sees one
    /// more.
    widths: Range<usize>,
    /// Lanes of the K fold: the stride, or the block's rows if fewer.
    lanes: usize,
    /// The verified `Kᵀ` block the prefixes fold.
    kt: &'a MatrixF32,
    /// Per frontier row, its `S_c1` / `S_c2` (the leading
    /// [`lanes`](Frontier::lanes) columns).
    s_c1: MatrixF32,
    s_c2: MatrixF32,
    /// Per frontier row, the max-norm of its prefix.
    k_max_norm: Vec<f32>,
    /// The whole verified block's V fold.
    v_cs: StridedChecksums,
}

impl<'a> Frontier<'a> {
    /// The frontier of the verified block `(kt, v)` at the cache's `stride`
    /// whose rows, with scaled queries `q` (one per width), see the
    /// prefixes `widths`, each shorter than the block.
    pub(crate) fn new(
        q: &MatrixF32,
        (kt, v): (&'a MatrixF32, &MatrixF32),
        stride: usize,
        widths: Range<usize>,
    ) -> Self {
        let (d, rows) = kt.shape();
        let lanes = stride.min(rows);
        // The running fold, k-major (`d × lanes`) as GEMM I reads it. The
        // whole groups ahead of the first prefix fold a group at a time
        // (lane `t` of group `l` is key `l·lanes + t`, so every lane still
        // adds its keys in ascending order); the rest key by key.
        let (mut w1, mut w2) = (Matrix::zeros(d, lanes), Matrix::zeros(d, lanes));
        let bulk = widths.start / lanes * lanes;
        for (l, j0) in (0..bulk).step_by(lanes).enumerate() {
            let wl = (l + 1) as f32;
            for c in 0..d {
                let group = &kt.row(c)[j0..j0 + lanes];
                for (a, &x) in w1.row_mut(c).iter_mut().zip(group) {
                    *a += x;
                }
                for (b, &x) in w2.row_mut(c).iter_mut().zip(group) {
                    *b += wl * x;
                }
            }
        }
        let mut norm = (0..bulk).fold(0.0f32, |m, j| m.max(key_norm(kt, j)));
        let (mut s_c1, mut s_c2) = (
            Matrix::zeros(q.rows(), lanes),
            Matrix::zeros(q.rows(), lanes),
        );
        let mut k_max_norm = Vec::with_capacity(widths.len());
        let mut folded = bulk;
        for (i, width) in widths.clone().enumerate() {
            for j in folded..width {
                let (t, wl) = (j % lanes, (j / lanes + 1) as f32);
                for c in 0..d {
                    let x = kt.get(c, j);
                    w1.row_mut(c)[t] += x;
                    w2.row_mut(c)[t] += wl * x;
                }
                norm = norm.max(key_norm(kt, j));
            }
            folded = width;
            let q_i = q.block(i, 0, 1, d);
            s_c1.set_block(i, 0, &gemm_nn(&q_i, &w1));
            s_c2.set_block(i, 0, &gemm_nn(&q_i, &w2));
            k_max_norm.push(norm);
        }
        Frontier {
            widths,
            lanes,
            kt,
            s_c1,
            s_c2,
            k_max_norm,
            v_cs: encode_cols_strided(v, stride.min(d), false),
        }
    }

    /// Lanes of frontier row `i`'s K operand (its S checksum width).
    fn lanes(&self, i: usize) -> usize {
        self.lanes.min(self.widths.start + i)
    }

    /// Frontier row `i`'s checksum GEMM results `(S_c1, S_c2)`, its V
    /// operand and its max-norm.
    #[cfg(test)]
    pub(crate) fn prefix(&self, i: usize) -> ((MatrixF32, MatrixF32), StridedChecksums, f32) {
        let (rows, lanes) = (self.widths.start + i, self.lanes(i));
        let s_cs = (
            self.s_c1.block(i, 0, 1, lanes),
            self.s_c2.block(i, 0, 1, lanes),
        );
        let v_cs = StridedChecksums {
            w1: self.v_cs.w1.block(0, 0, rows, self.v_cs.stride),
            w2: self.v_cs.w2.block(0, 0, rows, self.v_cs.stride),
            ..self.v_cs
        };
        (s_cs, v_cs, self.k_max_norm[i])
    }

    /// Frontier row `i`'s K operand, k-major as GEMM I reads it: the
    /// from-scratch column encode of its prefix of `Kᵀ`, which the fold
    /// reproduces.
    fn k_operand(&self, i: usize) -> StridedChecksums {
        let prefix = self.kt.block(0, 0, self.kt.rows(), self.widths.start + i);
        encode_cols_strided(&prefix, self.lanes(i), false)
    }
}

/// How far damage no checksum can repair spreads: what a recomputation
/// fallback recomputes, and what an unlocatable GEMM I mismatch
/// recomputes S for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DamageGroup {
    /// The whole tile: prefill's `(slot, row block)` CTA.
    Tile,
    /// The row alone: each decode row attends its own prefix.
    Row,
}

/// `mismatches` (row-major) split into damage groups: all of them for a
/// tile-wide group, else one run per row.
fn damage_groups(group: DamageGroup, mismatches: &[StridedMismatch]) -> Vec<&[StridedMismatch]> {
    match group {
        DamageGroup::Tile => vec![mismatches],
        DamageGroup::Row => mismatches.chunk_by(|a, b| a.i == b.i).collect(),
    }
}

/// Algorithm 1's per-tile state for `q.rows()` query rows.
///
/// A step advances any contiguous row range against one block, so rows
/// that attend a block alike share its GEMMs (the decode tile's row
/// groups). What differs between rows is per row: the SNVR rowsum bound
/// `n` (the rows that row attends), the checksum GEMMs' fault-coordinate
/// column base `cs_col0` (past the columns that row sees), and the damage
/// flag, whose reach is the state's [`DamageGroup`].
pub(crate) struct RowState<'a> {
    /// Scaled query rows.
    q: &'a MatrixF32,
    q_norms: Vec<f32>,
    /// Fault-coordinate row of `q`'s row 0 (global row in prefill, decode
    /// step in decode).
    row0: usize,
    /// Per row: column base of the checksum GEMMs' fault coordinates, past
    /// every data column the row can see.
    cs_col0: Vec<usize>,
    /// Per row: rows attended — the rowsum's upper bound.
    n: Vec<usize>,
    m: Vec<f32>,
    ell: Vec<f32>,
    o: MatrixF32,
    o_c1: MatrixF32,
    o_c2: MatrixF32,
    /// Per-row history of block maxima (SNVR rowsum bounds).
    max_hist: Vec<Vec<f32>>,
    /// Per row: damage no checksum can repair, so `finish` recomputes the
    /// row's damage group.
    damaged: Vec<bool>,
    group: DamageGroup,
    /// This tile's fault events.
    report: FtReport,
    /// This tile's phase times (zero when untimed).
    phases: PhaseBreakdown,
}

impl<'a> RowState<'a> {
    /// Fresh state; `so` is the width of the output checksums, `cs_col0`
    /// and `n` hold one entry per row.
    pub(crate) fn new(
        q: &'a MatrixF32,
        row0: usize,
        cs_col0: Vec<usize>,
        n: Vec<usize>,
        so: usize,
        group: DamageGroup,
    ) -> Self {
        let (rows, d) = q.shape();
        assert_eq!((cs_col0.len(), n.len()), (rows, rows), "one bound per row");
        RowState {
            q,
            q_norms: (0..rows)
                .map(|i| q.row(i).iter().map(|x| x * x).sum::<f32>().sqrt())
                .collect(),
            row0,
            cs_col0,
            n,
            m: vec![f32::NEG_INFINITY; rows],
            ell: vec![0.0; rows],
            o: Matrix::zeros(rows, d),
            o_c1: Matrix::zeros(rows, so),
            o_c2: Matrix::zeros(rows, so),
            max_hist: vec![Vec::new(); rows],
            damaged: vec![false; rows],
            group,
            report: FtReport::default(),
            phases: PhaseBreakdown::default(),
        }
    }

    /// Flag `rows` as damaged (the whole tile under a tile-wide group).
    pub(crate) fn mark_damaged(&mut self, rows: Range<usize>) {
        let rows = match self.group {
            DamageGroup::Tile => 0..self.damaged.len(),
            DamageGroup::Row => rows,
        };
        self.damaged[rows].fill(true);
    }

    /// Correct S from located linear mismatches: located elements are
    /// recomputed exactly, and an unlocatable one recomputes its damage
    /// group's rows of the block. `q` holds S's query rows; row `i` of S
    /// sees its first `w` columns with `se`-wide checksums, `(w, se) =
    /// shape(i)`, so a located column past them is unlocatable.
    fn repair_s(
        &mut self,
        q: &MatrixF32,
        kt: &MatrixF32,
        s_blk: &mut MatrixF32,
        mismatches: &[StridedMismatch],
        shape: impl Fn(usize) -> (usize, usize),
    ) {
        for group in damage_groups(self.group, mismatches) {
            let i = group[0].i;
            let (w, se) = shape(i);
            let rep = if w == s_blk.cols() {
                correct_strided(s_blk, group, se)
            } else {
                // A frontier row (a row damage group): locate within its
                // own columns.
                let mut row = s_blk.block(i, 0, 1, w);
                let local: Vec<_> = group
                    .iter()
                    .map(|m| StridedMismatch { i: 0, ..*m })
                    .collect();
                let mut rep = correct_strided(&mut row, &local, se);
                rep.corrected.iter_mut().for_each(|loc| loc.row = i);
                s_blk.set_block(i, 0, &row);
                rep
            };
            // Location is exact, but delta subtraction cannot restore a
            // value swamped by a 2^100-scale corruption (the delta's ulp
            // exceeds the true value), so located elements are recomputed.
            for loc in &rep.corrected {
                s_blk.set(loc.row, loc.col, gemm_chain(q.row(loc.row), kt, loc.col));
            }
            self.report.gemm1_detected += rep.detections as u64;
            self.report.gemm1_corrected += rep.corrected.len() as u64;
            if rep.uncorrectable > 0 {
                match self.group {
                    DamageGroup::Tile => *s_blk = gemm_nn(q, kt),
                    DamageGroup::Row => {
                        let row = gemm_nn(&q.block(i, 0, 1, q.cols()), kt);
                        s_blk.row_mut(i).copy_from_slice(row.row(0));
                    }
                }
                self.report.gemm1_recomputed += rep.uncorrectable as u64;
            }
        }
    }

    /// Check rows `rows` of O against `O_c1`/`O_c2`, correct what locates,
    /// and flag the damage group for recomputation otherwise. While O is
    /// still `unnormalised` its magnitude (and the checksum rounding noise)
    /// grows with the running rowsum, so the detection floor scales with ℓ.
    fn verify_output<I: FaultInjector>(
        &mut self,
        kn: &Kernel<'_, I>,
        unnormalised: bool,
        rows: Range<usize>,
    ) {
        let (d, s) = (self.o.cols(), self.o_c1.cols());
        let out = kn.opts.thresholds.output;
        let ell = &self.ell;
        let mismatches = checksum_mismatches(
            kn.opts,
            &self.o,
            (&self.o_c1, &self.o_c2),
            rows,
            |_| (d, s),
            |i| {
                if unnormalised {
                    Check::new(out.rel, out.abs_floor * (1.0 + ell[i].abs()))
                } else {
                    out
                }
            },
        );
        for group in damage_groups(self.group, &mismatches) {
            let rep = correct_strided(&mut self.o, group, s);
            self.report.gemm2_detected += rep.detections as u64;
            self.report.gemm2_corrected += rep.corrected.len() as u64;
            // A delta so large it swamps f32 cannot restore the true value
            // by subtraction — recompute the group.
            let catastrophic = rep.corrected.iter().any(|l| {
                !l.delta.is_finite()
                    || l.delta.abs() > 1e3 * (self.o_c1.get(l.row, l.col % s).abs() + 1.0)
            });
            if rep.uncorrectable > 0 || catastrophic {
                self.report.gemm2_recomputed += rep.uncorrectable.max(1) as u64;
                self.mark_damaged(group[0].i..group[0].i + 1);
            }
        }
    }

    /// One inner iteration of Algorithm 1 (lines 9–20) of rows `rows`
    /// against `blk`. Row `i` of the step reads only the first
    /// `blk.width(i)` columns of the block: its fault pass, every per-row
    /// reduction (max, the SNVR bound and argmax, subtract/exp, rowsum, the
    /// checksum lane sums and the product check) and its GEMM II chains.
    /// GEMM I is one clean product for every row; the whole-block rows
    /// share one pair of checksum GEMMs, and each frontier row runs its own
    /// prefix operand's GEMV.
    #[allow(clippy::too_many_lines)]
    pub(crate) fn step<I: FaultInjector>(
        &mut self,
        kn: &Kernel<'_, I>,
        blk: &BlockOperands<'_>,
        rows: Range<usize>,
    ) {
        let (opts, inj, slot) = (kn.opts, kn.inj, kn.slot);
        let thr = &opts.thresholds;
        let q_part;
        let q = if rows.len() == self.q.rows() {
            self.q
        } else {
            q_part = self.q.block(rows.start, 0, rows.len(), self.q.cols());
            &q_part
        };
        // Step row `i` is state row `ra + i` at coordinate row `row0 + i`.
        let (nr, d) = q.shape();
        let (ra, row0) = (rows.start, self.row0 + rows.start);
        let (jb, c0) = (blk.jb, blk.c0);
        let nf = blk.frontier_rows();
        let width = |i: usize| blk.width(i);
        let traditional = opts.gemm == GemmProtection::Traditional;
        let snvr = opts.softmax == SoftmaxProtection::Snvr;
        let dmr = opts.softmax == SoftmaxProtection::Dmr;
        let per_step = opts.verify == VerifyMode::PerStep;
        let mut lap = Lap::start(kn.timed);

        // ---- GEMM I ------------------------------------------------
        let ctx1 = |row: usize, col0: usize, it: usize| {
            GemmCtx::new(FaultSite::GemmIAccum, slot)
                .at(row, col0)
                .iter(3 * jb + it)
        };
        let mut s_blk = gemm_nn(q, blk.kt);
        let shape1 = |i| (d, width(i));
        gemm_fault_pass(&mut s_blk, q, 0..nr, blk.kt, shape1, inj, ctx1(row0, c0, 0));
        lap.to(&mut self.phases.gemm1);

        // ---- GEMM I protection: checksum GEMMs ----------------------
        // `se` is the S-side checksum width: a ragged final block or a
        // frontier prefix folds at fewer rows than the stride, the
        // traditional scheme at 1. The whole-block rows share one clean
        // product, each frontier row runs its own prefix operand; each
        // row's chains draw faults past its own visible columns.
        let cs_col0 = &self.cs_col0[rows.clone()];
        let s_cs = blk.checksums.map(|(kcs, _)| {
            // Both operands' clean products side by side, then each
            // operand's own rows and fault pass.
            let [w1, w2] = mma_operands(opts, kcs);
            let (w1, w2) = (&*w1, &*w2);
            let (c1, c2) = match nf {
                0 => gemm_nn_pair(q, (w1, w2)),
                _ => {
                    let (mut c1, mut c2) =
                        (Matrix::zeros(nr, w1.cols()), Matrix::zeros(nr, w1.cols()));
                    if nf < nr {
                        let whole = gemm_nn_pair(&q.block(nf, 0, nr - nf, d), (w1, w2));
                        c1.set_block(nf, 0, &whole.0);
                        c2.set_block(nf, 0, &whole.1);
                    }
                    (c1, c2)
                }
            };
            let checksum_gemm = |mut c: MatrixF32, w: &MatrixF32, it: usize| {
                if let Some(f) = blk.frontier {
                    let own = if it == 1 { &f.s_c1 } else { &f.s_c2 };
                    for i in 0..nf {
                        let lanes = f.lanes(i);
                        c.row_mut(i)[..lanes].copy_from_slice(&own.row(i)[..lanes]);
                    }
                }
                if inj.may_fire(FaultSite::GemmIAccum) {
                    for (i, &col0) in cs_col0.iter().enumerate() {
                        let ctx = ctx1(row0 + i, col0 + c0, it);
                        // A frontier row's chains run over its own prefix
                        // operand.
                        let own = blk.frontier.filter(|_| i < nf).map(|f| f.k_operand(i));
                        let w = own
                            .as_ref()
                            .map_or(w, |o| if it == 1 { &o.w1 } else { &o.w2 });
                        gemm_fault_pass(&mut c, q, i..i + 1, w, |_| (d, w.cols()), inj, ctx);
                    }
                }
                if traditional {
                    c.block(0, 0, nr, 1)
                } else {
                    c
                }
            };
            (
                checksum_gemm(c1, w1, 1),
                checksum_gemm(c2, w2, 2),
                kcs.stride,
            )
        });
        // Row `i`'s S checksum geometry: (visible columns, checksum width).
        let se_whole = s_cs.as_ref().map_or(0, |cs| cs.2);
        let shape = |i: usize| match blk.frontier {
            Some(f) if i < nf => (width(i), f.lanes(i)),
            _ => (width(i), se_whole),
        };
        if let (true, Some((c1, c2, _))) = (per_step, &s_cs) {
            // "EFTA": verify the GEMM result immediately.
            let mismatches =
                checksum_mismatches(opts, &s_blk, (c1, c2), 0..nr, shape, |_| thr.gemm);
            if !mismatches.is_empty() {
                self.repair_s(q, blk.kt, &mut s_blk, &mismatches, shape);
            }
        }
        lap.to(&mut self.phases.gemm1_protect);

        // ---- Softmax: reduce max ------------------------------------
        let mut blk_max: Vec<f32> = (0..nr)
            .map(|i| {
                let coord = OpCoord::new(slot, row0 + i, jb, 0);
                let max = row_max(&s_blk.row(i)[..width(i)]);
                inj.corrupt_f32(FaultSite::MaxReduce, coord, max)
            })
            .collect();
        lap.to(&mut self.phases.softmax);

        // Max protection.
        for i in 0..nr {
            let seen = width(i);
            if snvr {
                // Case 1: restrict — a max below its block's true max risks
                // exp overflow; repair by recomputing.
                if let Restriction::Repaired { repaired } =
                    restrict_row_max(&s_blk.row(i)[..seen], blk_max[i])
                {
                    blk_max[i] = repaired;
                    self.report.max_restricted += 1;
                }
                // Extension beyond the paper (DESIGN.md §4): a huge
                // *positive* GEMM error becomes the row max, after which
                // every exp underflows to zero on both the data and the
                // transported checksum — the product check is blind. The
                // Cauchy–Schwarz bound |S[i][j]| ≤ |q_i|·|k_j| is cheap to
                // maintain and unmasks the hijack; the offending element
                // (the argmax) is recomputed exactly.
                let bound = self.q_norms[ra + i] * blk.max_norm(i) * 1.05 + 1e-3;
                if blk_max[i] > bound || !blk_max[i].is_finite() {
                    let (mut arg, mut best) = (0usize, f32::NEG_INFINITY);
                    for (j, &v) in s_blk.row(i)[..seen].iter().enumerate() {
                        if v > best || !v.is_finite() {
                            best = v;
                            arg = j;
                        }
                    }
                    let exact = gemm_chain(q.row(i), blk.kt, arg);
                    if s_blk.get(i, arg) != exact {
                        // The argmax itself was the corrupted element.
                        s_blk.set(i, arg, exact);
                        self.report.gemm1_corrected += 1;
                    }
                    blk_max[i] = row_max(&s_blk.row(i)[..seen]);
                    self.report.max_restricted += 1;
                }
            } else if dmr {
                // Recompute the max a second time and compare.
                let coord = OpCoord::new(slot, row0 + i, jb, 1);
                let bm2 = row_max(&s_blk.row(i)[..seen]);
                let bm2 = inj.corrupt_f32(FaultSite::MaxReduce, coord, bm2);
                if blk_max[i] != bm2 {
                    // Third execution, fault-free arbitration.
                    blk_max[i] = row_max(&s_blk.row(i)[..seen]);
                    self.report.dmr_retries += 1;
                }
            }
        }
        let m_new: Vec<f32> = (0..nr).map(|i| self.m[ra + i].max(blk_max[i])).collect();
        lap.to(&mut self.phases.softmax_protect);

        // ---- Softmax: subtract + EXP --------------------------------
        // Per-element fault sites are offered every value only when the
        // injector can fire at one; otherwise the loop is the plain
        // arithmetic those calls would have returned unchanged. A column
        // past a row's width stays 0 and is never read.
        let mut p: MatrixF32 = Matrix::zeros(nr, blk.kt.cols());
        let exp_sites = inj.may_fire(FaultSite::Subtract) || inj.may_fire(FaultSite::ExpUnit);
        for i in 0..nr {
            let (prow, srow) = (p.row_mut(i), &s_blk.row(i)[..width(i)]);
            if exp_sites {
                for (j, &sv) in srow.iter().enumerate() {
                    let coord = OpCoord::new(slot, row0 + i, c0 + j, jb);
                    let diff = inj.corrupt_f32(FaultSite::Subtract, coord, sv - m_new[i]);
                    prow[j] = inj.corrupt_f32(FaultSite::ExpUnit, coord, expf(diff));
                }
            } else {
                let prow = &mut prow[..srow.len()];
                for (pv, &sv) in prow.iter_mut().zip(srow) {
                    *pv = sv - m_new[i];
                }
                expf_slice(prow);
            }
        }
        lap.to(&mut self.phases.softmax);

        // ---- Softmax protection: product check / DMR ----------------
        if let (true, Some((c1, c2, _))) = (snvr, &s_cs) {
            // Checksum reuse: transport S_c1 through subtraction + exp
            // and verify GEMM I + subtract + exp in one product check.
            let mismatches = product_mismatches((&p, c1), &m_new, shape, thr.exp_product);
            self.report.exp_detected += mismatches.len() as u64;
            if !mismatches.is_empty() {
                // Case 2: the product check already established an error
                // in GEMM I ∪ subtract ∪ EXP; classify via the *linear* S
                // invariant of the flagged row's own columns. The
                // classifier floor sits above the FP16-checksum
                // quantisation noise so a clean S (EXP fault) is not
                // "corrected" into a corrupted one.
                let classify_floor = thr.gemm.abs_floor.max(1e-2);
                let mut linear = Vec::new();
                for mm in &mismatches {
                    let (w, se) = shape(mm.i);
                    let (sums1, sums2) = scheme_sums(opts, &s_blk.block(mm.i, 0, 1, w), se);
                    let d1 = sums1.get(0, mm.t) - c1.get(mm.i, mm.t);
                    if d1.abs() > classify_floor || !d1.is_finite() {
                        linear.push(StridedMismatch {
                            delta1: d1,
                            delta2: sums2.get(0, mm.t) - c2.get(mm.i, mm.t),
                            ..*mm
                        });
                    } else {
                        // EXP fault: S is clean, recomputing P suffices.
                        self.report.exp_recomputed += 1;
                    }
                }
                if !linear.is_empty() {
                    self.repair_s(q, blk.kt, &mut s_blk, &linear, shape);
                }
                // Recompute every flagged residue class of P from the
                // (now corrected) S.
                for mm in &mismatches {
                    let (w, se) = shape(mm.i);
                    for col in (mm.t..w).step_by(se) {
                        p.set(mm.i, col, expf(s_blk.get(mm.i, col) - m_new[mm.i]));
                    }
                }
            }
        } else if dmr {
            // Second replica of subtract+exp, compare, arbitrate.
            let mut disagreements = 0u64;
            for i in 0..nr {
                let mi = m_new[i];
                for j in 0..width(i) {
                    let sv = s_blk.get(i, j);
                    let coord = OpCoord::new(slot, row0 + i, c0 + j, 1000 + jb);
                    let diff2 = inj.corrupt_f32(FaultSite::Subtract, coord, sv - mi);
                    let e2 = inj.corrupt_f32(FaultSite::ExpUnit, coord, expf(diff2));
                    let e1 = p.get(i, j);
                    if (e1 - e2).abs() > 1e-6 * e1.abs().max(e2.abs()).max(1e-12) {
                        // Third, fault-free execution arbitrates.
                        p.set(i, j, expf(sv - mi));
                        disagreements += 1;
                    }
                }
            }
            self.report.dmr_retries += disagreements;
        }
        lap.to(&mut self.phases.softmax_protect);

        // ---- Softmax: rowsum + rescale factors ----------------------
        let mut factors = vec![0.0f32; nr];
        let mut rowsums = vec![0.0f32; nr];
        for i in 0..nr {
            let (r, gi) = (ra + i, row0 + i);
            let factor = if self.m[r].is_finite() {
                expf(self.m[r] - m_new[i])
            } else {
                0.0
            };
            let factor = inj.corrupt_f32(FaultSite::Rescale, OpCoord::new(slot, gi, jb, 2), factor);
            let rs = row_sum(&p.row(i)[..width(i)]);
            let rs = inj.corrupt_f32(FaultSite::SumReduce, OpCoord::new(slot, gi, jb, 1), rs);
            self.ell[r] = factor * self.ell[r] + rs;
            factors[i] = factor;
            rowsums[i] = rs;
            self.m[r] = m_new[i];
            self.max_hist[r].push(blk_max[i]);
        }
        lap.to(&mut self.phases.softmax);

        for i in 0..nr {
            let (r, prow) = (ra + i, &p.row(i)[..width(i)]);
            if dmr {
                // DMR protects the rowsum with a second summation.
                let rs2 = row_sum(prow);
                let coord = OpCoord::new(slot, row0 + i, jb, 2001);
                let rs2 = inj.corrupt_f32(FaultSite::SumReduce, coord, rs2);
                if (rowsums[i] - rs2).abs() > 1e-5 * rowsums[i].abs().max(rs2.abs()) {
                    // Third, fault-free execution arbitrates; redo the
                    // ℓ update with the arbitrated sum.
                    let rs3 = row_sum(prow);
                    self.ell[r] = self.ell[r] - rowsums[i] + rs3;
                    self.report.dmr_retries += 1;
                }
            }
            // Per-step rowsum restriction ("EFTA" checks every iteration).
            if per_step && snvr {
                let (hist, m) = (&self.max_hist[r], self.m[r]);
                if restrict_rowsum(self.ell[r], hist, m, self.n[r]).repaired() {
                    // ℓ may already be poisoned from the corrupted
                    // accumulate: rebuild it from the restriction bound of
                    // the earlier blocks plus a clean rowsum of this one.
                    let lower: f32 = hist.iter().map(|&mk| expf(mk - m)).sum();
                    let rs = row_sum(prow);
                    self.ell[r] = (lower - expf(blk_max[i] - m)).max(0.0) + rs;
                    self.report.sum_restricted += 1;
                }
            }
        }
        lap.to(&mut self.phases.softmax_protect);

        // ---- GEMM II + rescale --------------------------------------
        // P is quantised to FP16 (in place: it has no later reader) to feed
        // the second tensor-core GEMM. Row `i`'s chains run over exactly
        // its `width(i)` columns.
        for v in p.as_mut_slice() {
            *v = quantize_f32(*v);
        }
        // The fault pass of `c = p · w`, `p` holding P's rows from `r0` on:
        // iteration `it` 0 is the data product, 1 and 2 the checksum
        // products, whose columns sit past the `d` data columns.
        let gemm2_faults = |c: &mut MatrixF32, p: &MatrixF32, r0: usize, w: &MatrixF32, it| {
            let col0 = if it == 0 { 0 } else { d };
            let ctx = GemmCtx::new(FaultSite::GemmIiAccum, slot)
                .at(row0 + r0, col0)
                .iter(3 * jb + it);
            let shape = |i| (width(r0 + i), w.cols());
            gemm_fault_pass(c, p, 0..p.rows(), w, shape, inj, ctx);
        };
        let mut pv = ragged_product(&p, blk.v, width);
        gemm2_faults(&mut pv, &p, 0, blk.v, 0);
        let rescale_site = inj.may_fire(FaultSite::Rescale);
        for i in 0..nr {
            let f = factors[i];
            let o_row = self.o.row_mut(ra + i).iter_mut().zip(pv.row(i));
            if rescale_site {
                for (col, (ov, &dv)) in o_row.enumerate() {
                    let coord = OpCoord::new(slot, row0 + i, col, 4000 + jb);
                    *ov = inj.corrupt_f32(FaultSite::Rescale, coord, f * *ov) + dv;
                }
            } else {
                for (ov, &dv) in o_row {
                    *ov = f * *ov + dv;
                }
            }
        }
        lap.to(&mut self.phases.gemm2);

        // ---- GEMM II protection: O_c1/O_c2 ride the rescale ---------
        if let Some((_, vcs)) = blk.checksums {
            // The frontier rows read the verified block's own V fold, the
            // whole-block rows the stored one, each pair of operands side
            // by side.
            let checksum_gemms = |cs: &StridedChecksums, rows: Range<usize>| {
                let [w1, w2] = mma_operands(opts, cs);
                let (w1, w2) = (&*w1, &*w2);
                let p_part;
                let p = if rows.len() == nr {
                    &p
                } else {
                    p_part = p.block(rows.start, 0, rows.len(), p.cols());
                    &p_part
                };
                let (mut c1, mut c2) = ragged_product_pair(p, (w1, w2), |i| width(rows.start + i));
                gemm2_faults(&mut c1, p, rows.start, w1, 1);
                gemm2_faults(&mut c2, p, rows.start, w2, 2);
                if traditional {
                    [c1, c2].map(|c| c.block(0, 0, rows.len(), 1))
                } else {
                    [c1, c2]
                }
            };
            let pcs = match blk.frontier {
                None => checksum_gemms(vcs, 0..nr),
                Some(f) if nf == nr => checksum_gemms(&f.v_cs, 0..nr),
                Some(f) => {
                    let (head, tail) =
                        (checksum_gemms(&f.v_cs, 0..nf), checksum_gemms(vcs, nf..nr));
                    [0, 1].map(|k| Matrix::vstack(&[&head[k], &tail[k]]))
                }
            };
            for (o_c, pc) in [&mut self.o_c1, &mut self.o_c2].into_iter().zip(&pcs) {
                for i in 0..nr {
                    for (ov, &dv) in o_c.row_mut(ra + i).iter_mut().zip(pc.row(i)) {
                        *ov = factors[i] * *ov + dv;
                    }
                }
            }
            if per_step {
                self.verify_output(kn, true, rows);
            }
        }
        lap.to(&mut self.phases.gemm2_protect);
    }

    /// Close the tile (Algorithm 1 lines 22–29) and return its normalised
    /// O with the tile's fault ledger and phase times. `replay(rows)`
    /// yields the `(Kᵀ, V)` blocks rows `rows` attend, for the clean
    /// recomputation fallback; it is called once per damage group that
    /// damage no checksum could repair was flagged in.
    pub(crate) fn finish<I, R>(
        mut self,
        kn: &Kernel<'_, I>,
        mut replay: impl FnMut(Range<usize>) -> R,
    ) -> (MatrixF32, FtReport, PhaseBreakdown)
    where
        I: FaultInjector,
        R: IntoIterator<Item = (MatrixF32, MatrixF32)>,
    {
        let (opts, inj, slot) = (kn.opts, kn.inj, kn.slot);
        let protected = opts.gemm != GemmProtection::Unprotected;
        let rows = self.ell.len();
        let mut lap = Lap::start(kn.timed);

        // ---- SNVR rowsum restriction (unified) ----------------------
        if opts.softmax == SoftmaxProtection::Snvr && opts.verify == VerifyMode::Unified {
            for i in 0..rows {
                if let Restriction::Repaired { repaired } =
                    restrict_rowsum(self.ell[i], &self.max_hist[i], self.m[i], self.n[i])
                {
                    // Optimised EFTA replaces ℓ with the approximation
                    // Σ_k exp(m_k − m) instead of recomputing.
                    self.ell[i] = repaired;
                    self.report.sum_restricted += 1;
                }
            }
        }
        lap.to(&mut self.phases.softmax_protect);

        // ---- Normalise O (and checksums) ----------------------------
        let normalize_site = inj.may_fire(FaultSite::Normalize);
        for i in 0..rows {
            let gi = self.row0 + i;
            let inv = inj.corrupt_f32(
                FaultSite::Normalize,
                OpCoord::new(slot, gi, 0, 999),
                1.0 / self.ell[i],
            );
            if normalize_site {
                for (col, v) in self.o.row_mut(i).iter_mut().enumerate() {
                    let coord = OpCoord::new(slot, gi, col, 1000);
                    *v = inj.corrupt_f32(FaultSite::Normalize, coord, *v * inv);
                }
            } else {
                for v in self.o.row_mut(i) {
                    *v *= inv;
                }
            }
            if protected {
                let (c1, c2) = (self.o_c1.row_mut(i), self.o_c2.row_mut(i));
                for v in c1.iter_mut().chain(c2) {
                    *v *= inv;
                }
            }
        }
        lap.to(&mut self.phases.gemm2);

        // ---- Unified output verification ----------------------------
        if protected {
            self.verify_output(kn, false, 0..rows);
        }
        lap.to(&mut self.phases.gemm2_protect);

        // Uncorrectable damage: recompute each damaged group cleanly (the
        // paper's recomputation fallback).
        let damaged = (0..rows).filter(|&i| self.damaged[i]);
        let groups: Vec<Range<usize>> = match self.group {
            DamageGroup::Tile => damaged.take(1).map(|_| 0..rows).collect(),
            DamageGroup::Row => damaged.map(|i| i..i + 1).collect(),
        };
        for group in groups {
            let (r0, len, d) = (group.start, group.len(), self.q.cols());
            let q = self.q.block(r0, 0, len, d);
            let mut state = crate::flash::OnlineState::new(len, d);
            for (kt, v_blk) in replay(group) {
                crate::flash::online_update(&mut state, 0, &gemm_nn(&q, &kt), &v_blk, |_| {
                    kt.cols()
                });
            }
            crate::flash::finalize(&mut state);
            self.o.set_block(r0, 0, &state.o);
        }
        (self.o, self.report, self.phases)
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

/// One column block of a prefill slot, prepared once per call and read by
/// every row block's step.
struct PreparedBlock {
    kt: MatrixF32,
    v: MatrixF32,
    checksums: Option<(StridedChecksums, StridedChecksums)>,
    k_max_norm: f32,
}

impl PreparedBlock {
    /// Decode and prepare the column block at row `c0` of one slot, charging
    /// each preparation to the phase whose operand it is. The row-major K
    /// block is needed only to build `Kᵀ`, which every other K operand is
    /// prepared from.
    fn new(
        opts: &EftaOptions,
        k: &MatrixF16,
        v: &MatrixF16,
        c0: usize,
        b: usize,
        phases: &mut PhaseBreakdown,
    ) -> Self {
        let d = k.cols();
        let k_blk = k.block(c0, 0, b, d).to_f32();
        let v_blk = v.block(c0, 0, b, d).to_f32();
        let protected = opts.gemm != GemmProtection::Unprotected;
        // A ragged final block may hold fewer rows than the checksum
        // stride; its S-side checksums fold at the narrower width.
        let s = effective_stride(opts).min(k_blk.rows());
        let mut lap = Lap::start(true);
        let kt = k_blk.transpose();
        lap.to(&mut phases.gemm1);
        let kt_cs = protected.then(|| encode_operand(opts, &kt, s));
        lap.to(&mut phases.gemm1_protect);
        let v_cs = protected.then(|| encode_operand(opts, &v_blk, opts.stride));
        lap.to(&mut phases.gemm2_protect);
        let k_max_norm = if opts.softmax == SoftmaxProtection::Snvr {
            max_key_norm(&kt)
        } else {
            0.0
        };
        lap.to(&mut phases.softmax_protect);
        PreparedBlock {
            kt,
            v: v_blk,
            checksums: kt_cs.zip(v_cs),
            k_max_norm,
        }
    }

    fn operands(&self, jb: usize, c0: usize) -> BlockOperands<'_> {
        BlockOperands {
            kt: &self.kt,
            v: &self.v,
            checksums: self.checksums.as_ref().map(|(kt_cs, v_cs)| (kt_cs, v_cs)),
            k_max_norm: self.k_max_norm,
            jb,
            c0,
            frontier: None,
        }
    }
}

/// Fused EFTA kernel body; [`BackendKind::Efta`](crate::backend::BackendKind::Efta)
/// is the public entry point.
///
/// Two parallel regions: each `(batch, head)` slot first prepares its
/// column blocks once (`Kᵀ` and V in f32, checksum operands, max-norm),
/// then every `(slot, row block)` pair runs as its own task against the
/// shared prepared blocks, so the fan-out is not capped at the slot
/// count. The preparation of every slot is live during the second region.
/// Every task returns its own fault ledger and phase times, folded after
/// the region.
/// On the GPU every (slot, row block) CTA encodes its own checksum
/// operands, since CTAs cannot share registers; [`analytic_stats`] keeps
/// modelling that kernel. On the CPU the same functions of the same data
/// are computed once, so the values — and every output bit — are those of
/// a per-(row block, column block) encode.
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
    let b = cfg.block;
    let d = cfg.head_dim;
    let s = effective_stride(opts);

    let (prepared, prepare_phases): (Vec<Vec<PreparedBlock>>, Vec<PhaseBreakdown>) = (0..cfg
        .num_slots())
        .into_par_iter()
        .map(|slot| {
            let (k_slot, v_slot) = (k.slot_flat(slot), v.slot_flat(slot));
            let mut phases = PhaseBreakdown::default();
            let blocks = block_starts(cfg.seq, b)
                .map(|c0| PreparedBlock::new(opts, k_slot, v_slot, c0, b, &mut phases))
                .collect();
            (blocks, phases)
        })
        .collect();

    // All (slot, row-block) pairs are independent CTAs.
    let tasks: Vec<(usize, usize)> = (0..cfg.num_slots())
        .flat_map(|slot| block_starts(cfg.seq, b).map(move |r0| (slot, r0)))
        .collect();

    let results: Vec<(usize, usize, (MatrixF32, FtReport, PhaseBreakdown))> = tasks
        .into_par_iter()
        .map(|(slot, r0)| {
            let blocks = &prepared[slot];
            let kernel = Kernel {
                opts,
                inj,
                timed: true,
                slot,
            };
            let q_raw = q.slot_flat(slot).block(r0, 0, b, d).to_f32();
            let q_blk = Matrix::from_fn(q_raw.rows(), d, |i, j| q_raw.get(i, j) * cfg.scale);
            let rows = q_blk.rows();
            let bound = vec![cfg.seq; rows];
            let mut state = RowState::new(&q_blk, r0, bound.clone(), bound, s, DamageGroup::Tile);
            for (jb, blk) in blocks.iter().enumerate() {
                state.step(&kernel, &blk.operands(jb, jb * b), 0..rows);
            }
            let replay = |_| blocks.iter().map(|blk| (blk.kt.clone(), blk.v.clone()));
            (slot, r0, state.finish(&kernel, replay))
        })
        .collect();

    let mut o = Tensor4F32::zeros(cfg.batch, cfg.heads, cfg.seq, cfg.head_dim);
    let mut report = FtReport::default();
    let mut phases = prepare_phases
        .iter()
        .fold(PhaseBreakdown::default(), |acc, p| acc.merged(p));
    for (slot, r0, (o_blk, task_report, task_phases)) in results {
        let (bi, h) = o.unflatten(slot);
        o.slot_mut(bi, h).set_block(r0, 0, &o_blk);
        report = report.merged(&task_report);
        phases = phases.merged(&task_phases);
    }

    let mut timeline = Timeline::new();
    timeline.push("efta", analytic_stats(cfg, opts));

    AttentionOutput {
        o,
        timeline,
        report,
        phases,
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
    fn row_product_check_is_the_matrix_pipeline() {
        // `product_mismatches` replays `transport_subtract_max` →
        // `transport_exp` → `verify_products` row by row: the same
        // mismatches, deltas bit for bit, at every width and lane count a
        // step meets (a frontier prefix shorter than the stride included),
        // on clean rows and on rows with a corrupted or non-finite score.
        use ft_abft::propagate::{
            residue_counts, transport_exp, transport_subtract_max, verify_products,
        };
        let chk = Thresholds::calibrated().exp_product;
        for (w, se) in [(64, 8), (20, 8), (8, 8), (5, 5), (1, 1), (37, 3)] {
            let s = Matrix::from_fn(4, w, |i, j| ((i * 31 + j * 7) % 17) as f32 * 0.3 - 2.0);
            let m: Vec<f32> = (0..4).map(|i| row_max(s.row(i))).collect();
            let mut p = Matrix::from_fn(4, w, |i, j| (s.get(i, j) - m[i]).exp());
            let c1 = Matrix::from_fn(4, se, |i, t| (t..w).step_by(se).map(|j| s.get(i, j)).sum());
            p.set(1, w / 2, p.get(1, w / 2) * 3.0);
            p.set(2, w - 1, f32::NAN);
            let mut tc1 = c1.clone();
            transport_subtract_max(&mut tc1, &m, &residue_counts(w, se));
            let want = verify_products(&p, &transport_exp(&tc1), se, chk);
            let got = product_mismatches((&p, &c1), &m, |_| (w, se), chk);
            let key = |v: &[StridedMismatch]| {
                v.iter()
                    .map(|mm| (mm.i, mm.t, mm.delta1.to_bits(), mm.delta2.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(key(&got), key(&want), "width {w}, lanes {se}");
            assert!(!want.is_empty());
        }
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
            EftaOptions {
                gemm: GemmProtection::Traditional,
                ..EftaOptions::per_step()
            },
            EftaOptions {
                softmax: SoftmaxProtection::Dmr,
                ..EftaOptions::per_step()
            },
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

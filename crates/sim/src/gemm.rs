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
//! **The chain contract.** Every output element is one *chain*: it starts
//! at `0.0` and adds `a[i][k]·b[k][j]` for ascending k, one rounding per
//! product and one per addition, never fused into an FMA — exactly
//! `dot_plain`. The kernels below may *interleave* independent chains
//! (that is where their speed comes from) but never reorder, split or
//! reassociate the additions within one, so every layout and loop order
//! here produces the same bits, and the path-vs-path bit-identity suites
//! hold by construction rather than by tolerance.
//!
//! **Register panels.** The kernels keep an `MR × NR` (4 × 16) block of
//! chains in registers and walk k once for all of them: per k they read
//! `MR` elements of A and one `NR`-wide row of a k-major *panel* of op(B),
//! `panel[j0 + k·ld + j]`. At the x86-64-v3 build floor (8-lane vectors) a
//! 16-wide row is two vectors, so a group keeps eight vector chains in
//! flight, enough to cover the add latency. [`gemm_nn`] reads its panels
//! straight out of B (row stride `ld = n`); [`gemm_nt`] first packs each 16
//! rows of B into a contiguous `k × 16` panel (`ld = 16`), unless A has
//! fewer than `MR` rows to share it, in which case each element is one
//! `dot_plain`. Past the last full panel, 8–15 leftover columns run one
//! 8-wide panel (so the 8-wide checksum GEMMs keep a kernel of their own
//! shape) and fewer run single chains. Rows left over below a full group
//! run one-row kernels; `gemm_nn`'s one-row products (decode GEMVs) have no
//! other rows to share a panel with, so they run 64 columns wide, then 32,
//! then 8, then single chains.
//!
//! Measured at the floor (2-vCPU x86-64, µs, min of six alternating runs,
//! `m×k×n`, 4 × 8 panels → 4 × 16): `gemm_nn` 16×64×64 2.81 → 2.31,
//! 64×64×64 10.8 → 8.9, 4×256×256 12.5 → 10.1, 8×256×1024 117 → 93;
//! `gemm_nt` 16×64×64 4.7 → 3.0, 4×256×256 43 → 23, 8×256×1024 215 → 125,
//! where most of the gain is the packing, which gathers one contiguous
//! panel row at a time instead of scattering one B row across the panel.
//! `NR_ROW` gives the one-row measurement.
//!
//! **Packed static operands.** [`gemm_nn`] reads B in place, so each k-step
//! of a panel lands `n` floats past the last: at the LM head's n = 8192
//! that is 32 KiB per step and a cache miss per panel row. An operand that
//! outlives many products — a layer weight, never a per-call activation or
//! cache block — is worth packing once: [`PackedB`] stores a k-major
//! `k × n` operand as ⌈n/8⌉ contiguous `k × 8` panels (the last one
//! zero-padded), so [`gemm_packed`] reads every panel front to back, once
//! for all rows of A: per group of `QUAD` panels, each `MR`-row group runs
//! against `PAIR` panels at a time (64 chains), and the one to three rows
//! left over past the last group run together against all `QUAD` (up to 96
//! chains). `QUAD` records why these panels stayed 8 wide at the floor and
//! what sharing them across left-over rows bought.
//! Packing a per-call operand costs a full copy for one use; `gemm_nn` and
//! `gemm_nt` stay the kernels for those.
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
use core::ops::Range;
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

/// Rows of A one register micro-kernel carries.
const MR: usize = 4;
/// Columns of one register panel: two 8-lane vectors per row at the
/// x86-64-v3 build floor, so a row group keeps eight vector chains in
/// flight.
const NR: usize = 16;
/// Columns of the narrow panel: the 8–15 columns left over past the last
/// full `NR` panel, so the 8-wide checksum GEMMs run one.
const NR_NARROW: usize = 8;
/// Columns of one [`PackedB`] panel (`QUAD` records why 8, not 16).
const NP: usize = 8;
/// Columns the one-row `gemm_nn` kernel carries before falling back to
/// `NR_ROW / 2`- and then `NR_NARROW`-wide panels. One row has no other rows
/// to share a panel with, so it needs a wider panel to keep enough
/// independent chains in flight to cover the add latency: 64 columns are
/// eight 8-lane vectors. Measured at the floor (one row, 2-vCPU x86-64,
/// µs, 32- then 8-wide → 64, 32, then 8-wide): k = 64, n = 64
/// 0.243 → 0.199; k = 256, n = 256 4.8 → 4.2; k = 1024, n = 256
/// 19.9 → 16.8; k = 256, n = 1024 24.0 → 18.6.
const NR_ROW: usize = 64;

/// `R × W` chains in registers over the whole k range: chain `(r, j)`
/// accumulates `a[r][k] · panel[j0 + k·ld + j]` for ascending k from `0.0`
/// — `dot_plain`'s chain, `R · W` of them side by side.
#[inline(always)]
fn micro<const R: usize, const W: usize>(
    a: [&[f32]; R],
    panel: &[f32],
    ld: usize,
    j0: usize,
) -> [[f32; W]; R] {
    let k_len = a[0].len();
    assert!(a.iter().all(|row| row.len() == k_len));
    let mut acc = [[0.0f32; W]; R];
    for k in 0..k_len {
        let at = j0 + k * ld;
        let b: &[f32; W] = panel[at..at + W].try_into().expect("a panel row is W wide");
        for (acc_r, a_r) in acc.iter_mut().zip(&a) {
            let av = a_r[k];
            for (s, &bv) in acc_r.iter_mut().zip(b) {
                *s += av * bv;
            }
        }
    }
    acc
}

/// `c[rows][j0 .. j0 + W] = A[rows] · panel` (panel columns from `p0`):
/// groups of `MR` rows, then one row at a time.
fn rows_times_panel<const W: usize>(
    a: &MatrixF32,
    rows: Range<usize>,
    (panel, ld, p0): (&[f32], usize, usize),
    c: &mut MatrixF32,
    j0: usize,
) {
    let mut i = rows.start;
    while i + MR <= rows.end {
        let acc = micro::<MR, W>(core::array::from_fn(|r| a.row(i + r)), panel, ld, p0);
        for (r, acc_r) in acc.iter().enumerate() {
            c.row_mut(i + r)[j0..j0 + W].copy_from_slice(acc_r);
        }
        i += MR;
    }
    for i in i..rows.end {
        let [acc] = micro::<1, W>([a.row(i)], panel, ld, p0);
        c.row_mut(i)[j0..j0 + W].copy_from_slice(&acc);
    }
}

/// `C[.., j0 .. j0 + W] = A · Bᵀ` over a `k × W` panel packed from rows
/// `j0 .. j0 + W` of B into `panel`.
fn nt_panel<const W: usize>(
    a: &MatrixF32,
    b: &MatrixF32,
    j0: usize,
    panel: &mut [f32],
    c: &mut MatrixF32,
) {
    let panel = &mut panel[..a.cols() * W];
    let rows: [&[f32]; W] = core::array::from_fn(|jj| b.row(j0 + jj));
    for (kk, dst) in panel.chunks_exact_mut(W).enumerate() {
        for (p, row) in dst.iter_mut().zip(&rows) {
            *p = row[kk];
        }
    }
    rows_times_panel::<W>(a, 0..a.rows(), (panel, W, 0), c, j0);
}

/// One row of A against `W`-wide panels read in place from row-major `B`
/// (`ld` columns wide), from column `*j0` while a full panel fits; `*j0`
/// ends at the first column left over.
fn row_panels<const W: usize>(
    a_row: &[f32],
    b: &[f32],
    ld: usize,
    c_row: &mut [f32],
    j0: &mut usize,
) {
    while *j0 + W <= ld {
        let [acc] = micro::<1, W>([a_row], b, ld, *j0);
        c_row[*j0..*j0 + W].copy_from_slice(&acc);
        *j0 += W;
    }
}

/// Column `j` of `a_row · B` for row-major `B` with row stride `ld`: one
/// chain read down the column.
fn column_chain(a_row: &[f32], b: &[f32], ld: usize, j: usize) -> f32 {
    let column = b.iter().skip(j).step_by(ld);
    a_row
        .iter()
        .zip(column)
        .fold(0.0f32, |acc, (x, y)| acc + x * y)
}

/// `C = A · Bᵀ` (both row-major; the QKᵀ shape). No fault injection.
pub fn gemm_nt(a: &MatrixF32, b: &MatrixF32) -> MatrixF32 {
    assert_eq!(a.cols(), b.cols(), "inner dims (k) must match");
    let (m, n, k_len) = (a.rows(), b.rows(), a.cols());
    if m < MR {
        // Too few rows to repay packing a panel: one chain per element.
        return Matrix::from_fn(m, n, |i, j| dot_plain(a.row(i), b.row(j)));
    }
    let mut c = Matrix::zeros(m, n);
    let mut panel = vec![0.0f32; k_len * NR];
    let mut j0 = 0;
    while j0 + NR <= n {
        nt_panel::<NR>(a, b, j0, &mut panel, &mut c);
        j0 += NR;
    }
    if j0 + NR_NARROW <= n {
        nt_panel::<NR_NARROW>(a, b, j0, &mut panel, &mut c);
        j0 += NR_NARROW;
    }
    for i in 0..m {
        for j in j0..n {
            c.set(i, j, dot_plain(a.row(i), b.row(j)));
        }
    }
    c
}

/// `C = A · Bᵀ` with fault injection under `ctx`.
pub fn gemm_nt_inj<I: FaultInjector>(
    a: &MatrixF32,
    b: &MatrixF32,
    inj: &I,
    ctx: GemmCtx,
) -> MatrixF32 {
    let mut c = gemm_nt(a, b);
    recompute_fired(&mut c, a, 0..a.rows(), inj, ctx, |j, col| {
        col.copy_from_slice(b.row(j))
    });
    c
}

/// `C = A · B` (row-major; the PV shape). No fault injection.
pub fn gemm_nn(a: &MatrixF32, b: &MatrixF32) -> MatrixF32 {
    assert_eq!(a.cols(), b.rows(), "inner dims (k) must match");
    let (m, n) = (a.rows(), b.cols());
    let mut c = Matrix::zeros(m, n);
    let bs = b.as_slice();
    let grouped = m - m % MR;
    let mut j0 = 0;
    while j0 + NR <= n {
        rows_times_panel::<NR>(a, 0..grouped, (bs, n, j0), &mut c, j0);
        j0 += NR;
    }
    if j0 + NR_NARROW <= n {
        rows_times_panel::<NR_NARROW>(a, 0..grouped, (bs, n, j0), &mut c, j0);
        j0 += NR_NARROW;
    }
    for i in 0..grouped {
        for j in j0..n {
            c.set(i, j, column_chain(a.row(i), bs, n, j));
        }
    }
    for i in grouped..m {
        let (a_row, c_row) = (a.row(i), c.row_mut(i));
        let mut j0 = 0;
        row_panels::<NR_ROW>(a_row, bs, n, c_row, &mut j0);
        row_panels::<{ NR_ROW / 2 }>(a_row, bs, n, c_row, &mut j0);
        row_panels::<NR_NARROW>(a_row, bs, n, c_row, &mut j0);
        for (j, out) in c_row.iter_mut().enumerate().skip(j0) {
            *out = column_chain(a_row, bs, n, j);
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
    gemm_nn_fault_pass(&mut c, a, 0..a.rows(), b, inj, ctx);
    c
}

/// The fault pass of [`gemm_nn_inj`] alone, over rows `rows` of a clean
/// product `c = A · B` computed with other rows: chain `(i, j)` for `i` in
/// `rows` draws at coordinate `(ctx.row_off + i − rows.start, ctx.col_off +
/// j)`, as row `i − rows.start` of a `gemm_nn_inj` under `ctx` would. So
/// rows whose coordinates differ (each its own column base, say) share one
/// clean product and keep their own draws.
pub fn gemm_nn_fault_pass<I: FaultInjector>(
    c: &mut MatrixF32,
    a: &MatrixF32,
    rows: Range<usize>,
    b: &MatrixF32,
    inj: &I,
    ctx: GemmCtx,
) {
    recompute_fired(c, a, rows, inj, ctx, |j, col| {
        for (k, v) in col.iter_mut().enumerate() {
            *v = b.get(k, j);
        }
    });
}

/// A static k-major operand `B` (`k × n`) packed once for [`gemm_packed`]:
/// ⌈n/8⌉ contiguous `k × 8` panels, panel `p` holding columns
/// `8p .. 8p + 8` with element `(k, j)` at `panels[p·k·8 + k·8 + j mod 8]`.
/// Columns past `n` in the last panel are zero and never reach an output.
#[derive(Clone, Debug, PartialEq)]
pub struct PackedB {
    k: usize,
    n: usize,
    panels: Vec<f32>,
}

impl PackedB {
    /// Pack the k-major operand `b` (`k × n`).
    pub fn new(b: &MatrixF32) -> Self {
        let (k, n) = b.shape();
        let mut panels = vec![0.0f32; n.div_ceil(NP) * k * NP];
        if k > 0 {
            for (p, panel) in panels.chunks_exact_mut(k * NP).enumerate() {
                let j0 = p * NP;
                let w = NP.min(n - j0);
                for (dst, kk) in panel.chunks_exact_mut(NP).zip(0..k) {
                    dst[..w].copy_from_slice(&b.row(kk)[j0..j0 + w]);
                }
            }
        }
        PackedB { k, n, panels }
    }

    /// Inner dimension `k` (rows of the unpacked operand).
    pub fn rows(&self) -> usize {
        self.k
    }

    /// Output width `n` (columns of the unpacked operand).
    pub fn cols(&self) -> usize {
        self.n
    }

    /// Column `j` of the unpacked operand, in ascending k.
    pub fn column(&self, j: usize) -> impl Iterator<Item = f32> + '_ {
        assert!(j < self.n, "column {j} of a {}-wide operand", self.n);
        let base = (j / NP) * self.k * NP + j % NP;
        (0..self.k).map(move |kk| self.panels[base + kk * NP])
    }
}

/// Packed panels one row of A runs against at once: `QUAD · NP` chains.
/// Measured (one row, 2-vCPU x86-64, SSE2 build, µs, four panels at once
/// vs one at a time): k = 256, n = 8192 285 vs 332; k = 256,
/// n = 1024 18 vs 29; k = 1024, n = 256 18 vs 28; k = 256, n = 256 4.7 vs
/// 7.6. Packing 32-wide panels instead (so `micro::<1, 32>` reads them)
/// ties on one row but slows the 4-row groups at n = 8192 from 635 to 750.
///
/// Re-measured at the x86-64-v3 floor against 16-wide panels (`MR × 16`
/// groups, one row against four panels: 64 chains), µs, min of six
/// alternating runs, `m×k×n`, 8 → 16 wide. LM head: 1×256×8192 307 → 311,
/// 4×256×8192 399 → 392, 8×256×8192 743 → 682. FFN: 1×256×1024
/// 13.4 → 12.2, 8×256×1024 82 → 70, 1×1024×256 17.0 → 15.9, 8×1024×256
/// 74 → 64. QKV: 1×256×256 3.33 → 3.17, 8×256×256 19.3 → 17.7. End to end,
/// `decode_steady` (10 alternating 20 s pairs) read 4558 → 4853 tok/s in
/// the medians but won only 8 of 10 pairs, short of the 9-in-10 rule for
/// a gain, and its `ft_time_ratio` rose 1.31 → 1.35 in every pair (the
/// 8-wide checksum operands would pad to a full 16-wide panel, doubling
/// their MACs). So the panels stay 8 wide.
///
/// Rows left over past the last `MR` group used to run one at a time
/// against `QUAD` panels, each streaming the whole operand again; now they
/// share each read of the `QUAD` panels (`R · QUAD · NP` chains, R ≤ 3),
/// and the `MR`-row groups run in the same pass over the panels. Measured
/// at the floor (2-vCPU x86-64, µs, min of five alternating runs, `m×k×n`,
/// before → after): LM head 2×256×8192 674 → 364, 3×256×8192 998 → 381,
/// 5×256×8192 878 → 498; FFN 2×256×1024 32.8 → 25.7, 3×256×1024
/// 53.2 → 35.4, 2×1024×256 31.6 → 20.1, 3×1024×256 46.9 → 32.5; QKV
/// 2×256×256 8.1 → 5.2, 3×256×256 12.6 → 8.0. One row is unchanged
/// (1×256×8192 334 → 368 and 1×256×256 4.3 → 4.1, within this host's
/// spread).
const QUAD: usize = 4;

/// Packed panels one `MR`-row group runs against at once: `MR · PAIR · NP`
/// chains, eight 8-lane vectors, where one panel (four vectors) left each
/// add waiting on the last. Measured with the left-over rows above, µs,
/// `m×k×n`, one panel → `PAIR`: 4×256×8192 549 → 428, 8×256×8192
/// 855 → 819, 16×256×8192 1731 → 1392; 4×256×1024 46.3 → 41.9;
/// 4×1024×256 46.2 → 41.7; 4×256×256 10.9 → 9.8, 8×256×256 26.2 → 19.9.
const PAIR: usize = 2;

/// `R` rows of A against `P` adjacent packed `k × NP` panels (`panels`
/// holds them back to back): `R · P · NP` chains, each `dot_plain`'s.
#[inline(always)]
fn micro_panels<const R: usize, const P: usize>(
    a: [&[f32]; R],
    panels: &[f32],
) -> [[[f32; NP]; P]; R] {
    let k_len = a[0].len();
    assert!(a.iter().all(|row| row.len() == k_len));
    let span = k_len * NP;
    let panels: [&[f32]; P] = core::array::from_fn(|p| &panels[p * span..(p + 1) * span]);
    let mut acc = [[[0.0f32; NP]; P]; R];
    for k in 0..k_len {
        let av: [f32; R] = core::array::from_fn(|r| a[r][k]);
        for (p, panel) in panels.iter().enumerate() {
            let b: &[f32; NP] = panel[k * NP..k * NP + NP]
                .try_into()
                .expect("a panel row is NP wide");
            for (acc_r, &av) in acc.iter_mut().zip(&av) {
                for (s, &bv) in acc_r[p].iter_mut().zip(b) {
                    *s += av * bv;
                }
            }
        }
    }
    acc
}

/// Rows `i0 .. i0 + R` of `C = A · B` over the packed panels `panels`
/// (`span` floats each) whose first column is `j0`: `P` panels at a time,
/// then a ragged rest one panel at a time.
fn rows_times_panels<const R: usize, const P: usize>(
    a: &MatrixF32,
    i0: usize,
    (panels, span): (&[f32], usize),
    c: &mut MatrixF32,
    j0: usize,
) {
    let rows: [&[f32]; R] = core::array::from_fn(|r| a.row(i0 + r));
    let mut store = |j: usize, acc: &[[[f32; NP]; P]; R]| {
        for (r, acc_r) in acc.iter().enumerate() {
            store_panels(&mut c.row_mut(i0 + r)[j..], acc_r);
        }
    };
    let mut j = j0;
    let mut groups = panels.chunks_exact(P * span);
    for group in &mut groups {
        store(j, &micro_panels::<R, P>(rows, group));
        j += P * NP;
    }
    for panel in groups.remainder().chunks_exact(span) {
        let acc = micro_panels::<R, 1>(rows, panel);
        for (r, [acc_r]) in acc.iter().enumerate() {
            store_panels(&mut c.row_mut(i0 + r)[j..], &[*acc_r]);
        }
        j += NP;
    }
}

/// Store consecutive `NP`-wide panel results into an output row. Chains
/// past its end (a packed operand's zero padding) are computed and
/// dropped here.
fn store_panels(out: &mut [f32], acc: &[[f32; NP]]) {
    for (dst, acc) in out.chunks_mut(NP).zip(acc) {
        dst.copy_from_slice(&acc[..dst.len()]);
    }
}

/// `C = A · B` for a packed static operand. No fault injection.
pub fn gemm_packed(a: &MatrixF32, b: &PackedB) -> MatrixF32 {
    assert_eq!(a.cols(), b.k, "inner dims (k) must match");
    let (m, n) = (a.rows(), b.n);
    let mut c = Matrix::zeros(m, n);
    if b.k == 0 {
        return c; // every chain is empty: 0.0
    }
    // One pass over the panels, `QUAD` at a time, for every row: each
    // `MR`-row group runs `PAIR` panels at a time, the rows left over past
    // the last group all `QUAD` together.
    let span = b.k * NP;
    let grouped = m - m % MR;
    for (q, quad) in b.panels.chunks(QUAD * span).enumerate() {
        let (panels, j0) = ((quad, span), q * QUAD * NP);
        for i in (0..grouped).step_by(MR) {
            rows_times_panels::<MR, PAIR>(a, i, panels, &mut c, j0);
        }
        match m - grouped {
            1 => rows_times_panels::<1, QUAD>(a, grouped, panels, &mut c, j0),
            2 => rows_times_panels::<2, QUAD>(a, grouped, panels, &mut c, j0),
            3 => rows_times_panels::<3, QUAD>(a, grouped, panels, &mut c, j0),
            _ => {}
        }
    }
    c
}

/// `C = A · B` for a packed static operand, with fault injection under
/// `ctx`: the coordinates and draws of [`gemm_nn_inj`] on the unpacked
/// operand.
pub fn gemm_packed_inj<I: FaultInjector>(
    a: &MatrixF32,
    b: &PackedB,
    inj: &I,
    ctx: GemmCtx,
) -> MatrixF32 {
    let mut c = gemm_packed(a, b);
    gemm_packed_fault_pass(&mut c, a, 0..a.rows(), b, inj, ctx);
    c
}

/// The fault pass of [`gemm_packed_inj`] alone, over rows `rows` of a
/// clean product `c = A · B` computed with other rows: chain `(i, j)` for
/// `i` in `rows` draws at coordinate `(ctx.row_off + i − rows.start,
/// ctx.col_off + j)`, as row `i − rows.start` of a `gemm_packed_inj` under
/// `ctx` would. So rows stacked from several callers share one pass over
/// `B` and keep their own draws.
pub fn gemm_packed_fault_pass<I: FaultInjector>(
    c: &mut MatrixF32,
    a: &MatrixF32,
    rows: Range<usize>,
    b: &PackedB,
    inj: &I,
    ctx: GemmCtx,
) {
    recompute_fired(c, a, rows, inj, ctx, |j, col| {
        for (v, x) in col.iter_mut().zip(b.column(j)) {
            *v = x;
        }
    });
}

/// The fault path shared by the injected GEMMs, run over rows `rows` of
/// the clean product `c = A·op(B)`: unless `inj` cannot fire at
/// `ctx.site`, ask [`FaultInjector::decide_chain`] once per output element
/// in row-major order, row `i` at coordinate row `ctx.row_off + i −
/// rows.start`, and recompute each chain that fires with the flip at its
/// step. `b_col(j, buf)` writes the `k`-vector of `op(B)` feeding column
/// `j`.
fn recompute_fired<I: FaultInjector>(
    c: &mut MatrixF32,
    a: &MatrixF32,
    rows: Range<usize>,
    inj: &I,
    ctx: GemmCtx,
    b_col: impl Fn(usize, &mut [f32]),
) {
    if !inj.may_fire(ctx.site) {
        return;
    }
    let k_len = a.cols();
    let mut col = vec![0.0f32; k_len];
    for i in rows.clone() {
        for j in 0..c.cols() {
            let row = ctx.row_off + i - rows.start;
            let coord = OpCoord::new(ctx.slot, row, ctx.col_off + j, ctx.iter);
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
    /// from `make`, and the packed one against `gemm_nn_inj` on the
    /// unpacked operand; assert equal bits and `fired()`; return the fired
    /// count of the first pair.
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
        let (packed, unpacked) = (make(), make());
        let got = gemm_packed_inj(a, &PackedB::new(&b), &packed, ctx);
        assert_bits_eq(&got, &gemm_nn_inj(a, &b, &unpacked, ctx), what);
        assert_eq!(packed.fired(), unpacked.fired(), "packed {what}");
        fast.fired()
    }

    #[test]
    fn injected_gemms_match_per_element_reference() {
        // Ragged shapes and the register panels, at a nonzero origin
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
    fn stacked_fault_passes_match_per_segment_injection() {
        // Segments of several callers stacked into one A: one clean product
        // plus a fault pass per segment, each at its own origin, draws and
        // repairs exactly what a separate injected GEMM per segment does.
        let mut rng = rng_from_seed(61);
        let segments = [3usize, 1, 5, 4];
        let m: usize = segments.iter().sum();
        let a = normal_matrix_f16(&mut rng, m, 40, 1.0).to_f32();
        let b = normal_matrix_f16(&mut rng, 40, 37, 1.0).to_f32();
        let packed = PackedB::new(&b);
        let ctx = |s: usize| GemmCtx::new(FaultSite::LinearAccum, 5).at(8 * s, 3).iter(1);
        let (stacked_inj, split_inj) = (BerInjector::new(3, 2e-3), BerInjector::new(3, 2e-3));
        let mut nn = gemm_nn(&a, &b);
        let mut packed_c = gemm_packed(&a, &packed);
        let mut start = 0;
        for (s, &len) in segments.iter().enumerate() {
            let rows = start..start + len;
            gemm_nn_fault_pass(&mut nn, &a, rows.clone(), &b, &stacked_inj, ctx(s));
            gemm_packed_fault_pass(&mut packed_c, &a, rows, &packed, &stacked_inj, ctx(s));
            let seg = a.block(start, 0, len, a.cols());
            let want_nn = gemm_nn_inj(&seg, &b, &split_inj, ctx(s));
            let want_packed = gemm_packed_inj(&seg, &packed, &split_inj, ctx(s));
            let what = format!("segment {s}");
            assert_bits_eq(&nn.block(start, 0, len, b.cols()), &want_nn, &what);
            assert_bits_eq(
                &packed_c.block(start, 0, len, b.cols()),
                &want_packed,
                &what,
            );
            start += len;
        }
        assert_eq!(stacked_inj.fired(), split_inj.fired());
        assert!(stacked_inj.fired() > 0, "the BER rate must fire");
    }

    #[test]
    fn panel_kernels_match_per_element_chains() {
        // Every path of the three kernels: row groups and left-over rows
        // (packed, 1–3 left-over rows sharing one read of each panel group),
        // 16-wide panels, the narrow 8-wide one and ragged tail columns,
        // the one-row 64-, 32- and 8-wide panels (a width on each side of
        // every panel boundary), and, packed, a ragged group of fewer than
        // four panels, at widths up to past the LM head's panel count.
        // Full-precision operands, so products round too and any reordering
        // inside a chain would show in the bits.
        let operand = |rows: usize, cols: usize, seed: usize| {
            MatrixF32::from_fn(rows, cols, |i, j| {
                ((i * 7919 + j * 104_729 + seed) as f32).sin()
            })
        };
        for m in [1usize, 2, 3, 4, 5, 6, 7, 8, 12, 64, 70] {
            for n in [
                1usize, 4, 7, 8, 9, 15, 16, 17, 24, 31, 33, 48, 63, 64, 65, 72, 129, 131, 300, 1027,
            ] {
                for k in [0usize, 1, 17, 64, 256] {
                    let a = operand(m, k, 1);
                    let bt = operand(n, k, 2);
                    let want = Matrix::from_fn(m, n, |i, j| dot_plain(a.row(i), bt.row(j)));
                    let what = format!("{m}x{k}x{n}");
                    let b = bt.transpose();
                    assert_bits_eq(&gemm_nt(&a, &bt), &want, &format!("nt {what}"));
                    assert_bits_eq(&gemm_nn(&a, &b), &want, &format!("nn {what}"));
                    let packed = gemm_packed(&a, &PackedB::new(&b));
                    assert_bits_eq(&packed, &want, &format!("packed {what}"));
                }
            }
        }
    }

    #[test]
    fn flops_helper() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
    }
}

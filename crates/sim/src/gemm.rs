//! Block GEMM engine with fault-injection hooks: the only place a GEMM
//! element is computed.
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
//! [`gemm_chain`]. The kernels below may *interleave* independent chains
//! (that is where their speed comes from) but never reorder, split or
//! reassociate the additions within one, so every layout and loop order
//! here produces the same bits, and the path-vs-path bit-identity suites
//! hold by construction rather than by tolerance.
//!
//! **One operand layout.** Every product reads its B k-major (`k × n`:
//! output column `j` is column `j` of B), either in place ([`gemm_nn`]:
//! `Kᵀ` for GEMM I, V or a checksum operand for GEMM II) or packed once
//! ([`PackedB`], [`gemm_packed`]); [`KMajor`] names the two for the fault
//! pass and the exact recompute. No kernel transposes an operand.
//!
//! **Register panels.** The kernels keep an `MR × NR` (4 × 16) block of
//! chains in registers and walk k once for all of them: per k they read
//! `MR` elements of A and one `NR`-wide row of a k-major *panel* of B,
//! `b[j0 + k·n + j]`, read straight out of B. At the x86-64-v3 build floor
//! (8-lane vectors) a 16-wide row is two vectors, so a group keeps eight
//! vector chains in flight, enough to cover the add latency. Past the last
//! full panel, 8–15 leftover columns run one 8-wide panel (so the 8-wide
//! checksum GEMMs keep a kernel of their own shape) and fewer run single
//! chains. Rows left over below a full group have no other rows to share a
//! panel with (decode GEMVs), so they run 64 columns wide, then 32, then
//! 8, then single chains.
//!
//! Measured at the floor (2-vCPU x86-64, µs, min of six alternating runs,
//! `m×k×n`, 4 × 8 panels → 4 × 16): 16×64×64 2.81 → 2.31, 64×64×64
//! 10.8 → 8.9, 4×256×256 12.5 → 10.1, 8×256×1024 117 → 93. `NR_ROW` gives
//! the one-row measurement.
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
//! Packing a per-call operand costs a full copy for one use; `gemm_nn`
//! stays the kernel for those.
//!
//! **Ragged rows.** [`ragged_product`] is the product in which row `i`
//! sees only the first `w(i)` columns of A (a causal chunk's frontier rows
//! against a block): one `gemm_nn` over the columns every row sees, then
//! each row's own tail, chain by chain.
//!
//! **Fault injection.** Each output element's accumulation chain asks the
//! injector *once* whether a transient fault occurs and at which FMA step;
//! the accumulator bit-flips mid-chain and the corrupted partial sum
//! propagates through the remaining FMAs, exactly like a transient fault in
//! a tensor-core accumulator. Kernels compute clean; [`gemm_fault_pass`] is
//! the one fault path, run afterwards over a row range of the clean
//! product, each row at its own `(k_len, n)` shape. Unless the injector
//! cannot fire at the context's site ([`FaultInjector::may_fire`]), it makes
//! the per-chain queries in row-major order and recomputes only the chains
//! that fire. A recomputed chain starts from `0.0` and adds in ascending k
//! like the clean one, so the result is bit-identical to running every
//! chain individually. [`gemm_chain`] is the one exact recompute of an
//! element (a located checksum mismatch).

use crate::fault::{ChainFault, FaultInjector, FaultSite, OpCoord};
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
/// — [`gemm_chain`]'s chain, `R · W` of them side by side.
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

/// Columns `j0 .. j0 + W` of rows `0 .. rows` (a multiple of `MR`) of
/// `C = A · B`, B read in place (row stride `ld`): `MR` rows at a time.
fn groups_times_panel<const W: usize>(
    a: &MatrixF32,
    rows: usize,
    (b, ld): (&[f32], usize),
    c: &mut MatrixF32,
    j0: usize,
) {
    for i in (0..rows).step_by(MR) {
        let acc = micro::<MR, W>(core::array::from_fn(|r| a.row(i + r)), b, ld, j0);
        for (r, acc_r) in acc.iter().enumerate() {
            c.row_mut(i + r)[j0..j0 + W].copy_from_slice(acc_r);
        }
    }
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

/// `C = A · B` for a k-major `B` read in place. No fault injection.
pub fn gemm_nn(a: &MatrixF32, b: &MatrixF32) -> MatrixF32 {
    assert_eq!(a.cols(), b.rows(), "inner dims (k) must match");
    let (m, n) = (a.rows(), b.cols());
    let mut c = Matrix::zeros(m, n);
    let bs = b.as_slice();
    let grouped = m - m % MR;
    let mut j0 = 0;
    while j0 + NR <= n {
        groups_times_panel::<NR>(a, grouped, (bs, n), &mut c, j0);
        j0 += NR;
    }
    if j0 + NR_NARROW <= n {
        groups_times_panel::<NR_NARROW>(a, grouped, (bs, n), &mut c, j0);
        j0 += NR_NARROW;
    }
    for i in 0..grouped {
        for j in j0..n {
            c.set(i, j, gemm_chain(a.row(i), b, j));
        }
    }
    for i in grouped..m {
        let (a_row, c_row) = (a.row(i), c.row_mut(i));
        let mut j0 = 0;
        row_panels::<NR_ROW>(a_row, bs, n, c_row, &mut j0);
        row_panels::<{ NR_ROW / 2 }>(a_row, bs, n, c_row, &mut j0);
        row_panels::<NR_NARROW>(a_row, bs, n, c_row, &mut j0);
        for (j, out) in c_row.iter_mut().enumerate().skip(j0) {
            *out = gemm_chain(a_row, b, j);
        }
    }
    c
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
/// holds them back to back): `R · P · NP` chains, each [`gemm_chain`]'s.
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

/// `A · B` in which row `i` runs every chain over exactly its first `w(i)`
/// columns of A (rows of B), `w` non-decreasing: one [`gemm_nn`] over the
/// `w(0)` columns every row sees, then each row continues its chains in
/// ascending order over its own tail. Every element is the one
/// ascending-k chain from `0.0` that row `i` alone against the first `w(i)`
/// rows of B computes, and a column past a row's width — whose B row may
/// hold a later chunk row's ±Inf, so that `0 · Inf` would be NaN — is
/// never multiplied in.
pub fn ragged_product(a: &MatrixF32, b: &MatrixF32, w: impl Fn(usize) -> usize) -> MatrixF32 {
    assert_eq!(a.cols(), b.rows(), "inner dims (k) must match");
    let (m, n, w0) = (a.rows(), b.cols(), w(0));
    let mut c = if w0 == a.cols() {
        gemm_nn(a, b)
    } else {
        gemm_nn(&a.block(0, 0, m, w0), &b.block(0, 0, w0, n))
    };
    for i in 0..m {
        let c_row = c.row_mut(i);
        for k in w0..w(i) {
            let x = a.get(i, k);
            for (acc, &y) in c_row.iter_mut().zip(b.row(k)) {
                *acc += x * y;
            }
        }
    }
    c
}

/// A k-major GEMM operand `B` (`k × n`) as [`gemm_fault_pass`] and
/// [`gemm_chain`] read it: column `j` of B feeds output column `j`.
#[derive(Clone, Copy, Debug)]
pub enum KMajor<'a> {
    /// Row-major, read in place (what [`gemm_nn`] multiplies).
    InPlace(&'a MatrixF32),
    /// Packed once (what [`gemm_packed`] multiplies).
    Packed(&'a PackedB),
}

impl<'a> From<&'a MatrixF32> for KMajor<'a> {
    fn from(b: &'a MatrixF32) -> Self {
        KMajor::InPlace(b)
    }
}

impl<'a> From<&'a PackedB> for KMajor<'a> {
    fn from(b: &'a PackedB) -> Self {
        KMajor::Packed(b)
    }
}

impl KMajor<'_> {
    /// Chain `a_row · B[.., j]` over `a_row.len()` steps, the accumulator's
    /// bit `fault.bit` flipped after step `fault.step`.
    fn chain(self, a_row: &[f32], j: usize, fault: Option<ChainFault>) -> f32 {
        match self {
            KMajor::InPlace(b) => {
                assert!(a_row.len() <= b.rows() && j < b.cols(), "chain outside B");
                let column = b.as_slice().iter().skip(j).step_by(b.cols()).copied();
                run_chain(a_row, column, fault)
            }
            KMajor::Packed(b) => {
                assert!(a_row.len() <= b.k, "chain outside B");
                run_chain(a_row, b.column(j), fault)
            }
        }
    }
}

/// One chain from `0.0` over `a_row` and `column` in ascending k.
fn run_chain(a_row: &[f32], column: impl Iterator<Item = f32>, fault: Option<ChainFault>) -> f32 {
    let mut acc = 0.0f32;
    for (k, (x, y)) in a_row.iter().zip(column).enumerate() {
        acc += x * y;
        if let Some(f) = fault.filter(|f| f.step == k) {
            acc = f32::from_bits(acc.to_bits() ^ (1u32 << f.bit));
        }
    }
    acc
}

/// One GEMM element exactly: row `a_row` of A against column `j` of the
/// k-major `b` over `a_row.len()` steps (a prefix of B's rows when A's row
/// is), the same chain every kernel here computes for that element.
pub fn gemm_chain<'b>(a_row: &[f32], b: impl Into<KMajor<'b>>, j: usize) -> f32 {
    b.into().chain(a_row, j, None)
}

/// The fault pass of a clean product `c = A · B` over rows `rows` of A,
/// row `i` of `c` holding row `i` of the product. Row `i` runs its chains
/// over its first `k_len` columns of A and fills its first `n` output
/// columns, `(k_len, n) = shape(i)`. Unless `inj` cannot fire at
/// `ctx.site`, ask [`FaultInjector::decide_chain`] once per chain of
/// those rows in row-major order, chain `(i, j)` at coordinate
/// `(ctx.slot, ctx.row_off + i − rows.start, ctx.col_off + j, ctx.iter)`
/// with its fault step drawn over its own `k_len`, and recompute each
/// chain that fires with the flip at its step.
///
/// So rows stacked from several callers share one clean product and keep
/// the draws each makes alone (one pass per caller, each at its own
/// origin), and rows that see an operand to different widths share one
/// product too: a masked column is never offered to the injector.
pub fn gemm_fault_pass<'b, I: FaultInjector>(
    c: &mut MatrixF32,
    a: &MatrixF32,
    rows: Range<usize>,
    b: impl Into<KMajor<'b>>,
    shape: impl Fn(usize) -> (usize, usize),
    inj: &I,
    ctx: GemmCtx,
) {
    if !inj.may_fire(ctx.site) {
        return;
    }
    let b = b.into();
    for i in rows.clone() {
        let (k_len, n) = shape(i);
        let a_row = &a.row(i)[..k_len];
        let row = ctx.row_off + i - rows.start;
        for j in 0..n {
            let coord = OpCoord::new(ctx.slot, row, ctx.col_off + j, ctx.iter);
            if let Some(f) = inj.decide_chain(ctx.site, coord, k_len) {
                c.set(i, j, b.chain(a_row, j, Some(f)));
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

    /// The per-element chain every kernel must reproduce.
    fn dot_plain(a_row: &[f32], b_col: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        for (x, y) in a_row.iter().zip(b_col) {
            acc += x * y;
        }
        acc
    }

    /// [`dot_plain`] with the accumulator's bit `bit` flipped after `step`.
    fn dot_faulty(a_row: &[f32], b_col: &[f32], step: usize, bit: u32) -> f32 {
        let mut acc = 0.0f32;
        for (k, (x, y)) in a_row.iter().zip(b_col).enumerate() {
            acc += x * y;
            if k == step {
                acc = f32::from_bits(acc.to_bits() ^ (1u32 << bit));
            }
        }
        acc
    }

    /// `A · B` with every chain of every row fault-passed under `ctx`.
    fn injected<I: FaultInjector>(
        a: &MatrixF32,
        b: &MatrixF32,
        inj: &I,
        ctx: GemmCtx,
    ) -> MatrixF32 {
        let mut c = gemm_nn(a, b);
        let shape = |_| (a.cols(), b.cols());
        gemm_fault_pass(&mut c, a, 0..a.rows(), b, shape, inj, ctx);
        c
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
        let clean = gemm_nn(&a, &b.transpose());
        let inj =
            SeuInjector::new(FaultSite::GemmIAccum, OpCoord::new(0, 3, 5, 0), 30).at_chain_step(31);
        let ctx = GemmCtx::new(FaultSite::GemmIAccum, 0);
        let dirty = injected(&a, &b.transpose(), &inj, ctx);
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
        let clean = gemm_nn(&a, &b.transpose());
        let inj =
            SeuInjector::new(FaultSite::GemmIAccum, OpCoord::new(0, 1, 2, 0), 20).at_chain_step(7);
        let ctx = GemmCtx::new(FaultSite::GemmIAccum, 0);
        let dirty = injected(&a, &b.transpose(), &inj, ctx);
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
        let clean = gemm_nn(&a, &b.transpose());
        assert_eq!(clean.get(0, 0), 16.0);
        let inj =
            SeuInjector::new(FaultSite::GemmIAccum, OpCoord::new(0, 0, 0, 0), 23).at_chain_step(3);
        let ctx = GemmCtx::new(FaultSite::GemmIAccum, 0);
        let dirty = injected(&a, &b.transpose(), &inj, ctx);
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
        let _ = injected(
            &a,
            &b.transpose(),
            &inj,
            GemmCtx::new(FaultSite::GemmIAccum, 0),
        );
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
        let c1 = gemm_nn(&a, &b.transpose());
        let c2 = injected(
            &a,
            &b.transpose(),
            &NoFaults,
            GemmCtx::new(FaultSite::GemmIAccum, 0),
        );
        assert_eq!(c1, c2);
    }

    /// The per-element fault pass the one clean-then-recompute pass
    /// replaces: every chain of rows `rows` of `clean` within its shape
    /// drawn and computed alone, `dot_plain` or `dot_faulty`.
    fn fault_pass_reference<I: FaultInjector>(
        clean: &MatrixF32,
        (a, rows): (&MatrixF32, Range<usize>),
        b: &MatrixF32,
        shape: impl Fn(usize) -> (usize, usize),
        inj: &I,
        ctx: GemmCtx,
    ) -> MatrixF32 {
        let mut c = clean.clone();
        for i in rows.clone() {
            let (k_len, n) = shape(i);
            let a_row = &a.row(i)[..k_len];
            for j in 0..n {
                let col: Vec<f32> = (0..k_len).map(|k| b.get(k, j)).collect();
                let row = ctx.row_off + i - rows.start;
                let coord = OpCoord::new(ctx.slot, row, ctx.col_off + j, ctx.iter);
                let value = match inj.decide_chain(ctx.site, coord, k_len) {
                    None => dot_plain(a_row, &col),
                    Some(f) => dot_faulty(a_row, &col, f.step, f.bit),
                };
                c.set(i, j, value);
            }
        }
        c
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

    /// One fault pass of rows `rows` of the clean product `c0` under fresh
    /// injectors from `make`, over the in-place and the packed operand,
    /// against the per-element reference: equal bits and equal `fired()`,
    /// which it returns.
    fn check_pass<I: FaultInjector>(
        make: impl Fn() -> I,
        (c0, a, rows): (&MatrixF32, &MatrixF32, Range<usize>),
        b: &MatrixF32,
        shape: impl Fn(usize) -> (usize, usize) + Copy,
        ctx: GemmCtx,
        what: &str,
    ) -> u64 {
        let slow = make();
        let want = fault_pass_reference(c0, (a, rows.clone()), b, shape, &slow, ctx);
        let packed = PackedB::new(b);
        for operand in [KMajor::InPlace(b), KMajor::Packed(&packed)] {
            let fast = make();
            let mut got = c0.clone();
            gemm_fault_pass(&mut got, a, rows.clone(), operand, shape, &fast, ctx);
            let what = format!("{what}, packed: {}", matches!(operand, KMajor::Packed(_)));
            assert_bits_eq(&got, &want, &what);
            assert_eq!(fast.fired(), slow.fired(), "{what}");
        }
        slow.fired()
    }

    #[test]
    fn fault_pass_matches_per_element_reference() {
        // Ragged per-row shapes (each row its own chain length over a
        // prefix of A's columns and its own output width), row ranges that
        // start at 0 and past it, at a nonzero origin and iteration, over
        // the in-place and the packed operand, under an SEU (hit, and aimed
        // at another site), BER over all sites, and a site-restricted BER
        // whose `may_fire` is false here. Same bits and same `fired()` as
        // the per-element reference; and the exact chain against
        // `dot_plain` for every element within each row's shape.
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
            let b = normal_matrix_f16(&mut rng, k, n, 1.0).to_f32();
            let packed = PackedB::new(&b);
            let k_len = |i: usize| k - (m - 1 - i).min(k / 2);
            let ragged = |i: usize| (k_len(i), n - (i % 3).min(n - 1));
            let whole = |_| (k, n);
            let ragged_c = ragged_product(&a, &b, k_len);
            let whole_c = gemm_nn(&a, &b);
            for rows in [0..m, m / 2..m, m / 3..m / 3 + 1] {
                let hit = OpCoord::new(3, 64 + rows.len() / 2, 8, 2);
                let seu = || SeuInjector::new(site, hit, 27).at_chain_step(k as u32 / 3);
                let miss = || SeuInjector::new(FaultSite::ExpUnit, hit, 27);
                let ber = || BerInjector::new(9, 2e-3);
                let restricted = || BerInjector::new(9, 0.5).with_sites(&[FaultSite::ExpUnit]);
                let what = format!("{m}x{k}x{n} rows {rows:?}");
                let pass = (&ragged_c, &a, rows.clone());
                let what_r = format!("ragged {what}");
                assert_eq!(check_pass(seu, pass.clone(), &b, ragged, ctx, &what_r), 1);
                assert_eq!(check_pass(miss, pass.clone(), &b, ragged, ctx, &what_r), 0);
                ber_fired += check_pass(ber, pass.clone(), &b, ragged, ctx, &what_r);
                assert_eq!(check_pass(restricted, pass, &b, ragged, ctx, &what_r), 0);
                let pass = (&whole_c, &a, rows.clone());
                assert_eq!(check_pass(seu, pass.clone(), &b, whole, ctx, &what), 1);
                assert_eq!(check_pass(miss, pass.clone(), &b, whole, ctx, &what), 0);
                ber_fired += check_pass(ber, pass.clone(), &b, whole, ctx, &what);
                assert_eq!(check_pass(restricted, pass, &b, whole, ctx, &what), 0);
            }
            for i in 0..m {
                for (c0, (k_len, n)) in [(&ragged_c, ragged(i)), (&whole_c, whole(i))] {
                    let a_row = &a.row(i)[..k_len];
                    for j in 0..n {
                        let col: Vec<f32> = (0..k_len).map(|kk| b.get(kk, j)).collect();
                        let want = dot_plain(a_row, &col).to_bits();
                        assert_eq!(gemm_chain(a_row, &b, j).to_bits(), want);
                        assert_eq!(gemm_chain(a_row, &packed, j).to_bits(), want);
                        assert_eq!(c0.get(i, j).to_bits(), want, "clean ({i}, {j})");
                    }
                }
            }
        }
        assert!(ber_fired > 0, "BER must exercise the recompute path");
    }

    #[test]
    fn panel_kernels_match_per_element_chains() {
        // Every path of the two kernels: row groups and left-over rows
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

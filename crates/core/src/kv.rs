//! Checksum-protected KV cache for autoregressive decode.
//!
//! Serving traffic is dominated by incremental decode over cached K/V, a
//! path whose state is *long-lived*: a soft error landing in a cached key
//! between steps silently poisons every subsequent token. The paper's EFTA
//! kernels protect state only while it flows through the fused prefill
//! kernel; this module extends the same strided tensor-checksum algebra
//! (§3.3, Eqs. 12–15) to cache residency:
//!
//! * every K block carries **row-folded** strided checksums
//!   (`w1[t][c] = Σ_l K[t + s·l][c]`) — a corrupted `K[r][c]` perturbs
//!   exactly lane `(r mod s, c)`, and the weighted/plain delta ratio
//!   locates the group, hence the row;
//! * every V block carries **column-folded** checksums
//!   (`w1[r][t] = Σ_l V[r][t + s·l]`) — a corrupted `V[r][c]` is located
//!   the same way along the row;
//! * the *same* stored operand pairs double as the checksum GEMM operands
//!   of the EFTA decode kernel (`S_c1 = q·w1ᵀ`, `O_c1 = p·w1`), so the
//!   per-block encode cost the prefill kernel pays on every call is paid
//!   **once at append time** and amortised over every future decode step.
//!
//! Checksums are stored in FP32 and treated as protected metadata (they are
//! tiny compared to the payload — see [`KvCache::checksum_bytes`] — and a
//! real deployment would keep them in ECC-scrubbed memory); the fault
//! surface is the FP16 payload, targeted through [`KvCache::expose`] with
//! [`FaultSite::KvCache`].
//!
//! # Writers
//!
//! A block's payload, checksum operands and max-norm change through two
//! mutations, and every writer is built from them:
//!
//! * **`push_row`** folds one new row in. The checksums are per-lane
//!   *sums*, so a row costs one add per lane, made in the order of the
//!   from-scratch encoder (`KvBlock::encode`, kept as the oracle the fold
//!   is tested against): O(row), bit-identical, stored rows never read back.
//! * **`heal`** is the verifying read in front of a write: re-fold the
//!   resident rows straight from the FP16 payload, `push_row`'s fold one K
//!   lane or V row at a time, and compare every lane of both operands of
//!   both families with the stored bits. All equal means `stored ==
//!   encode(payload)` and nothing is touched; otherwise locate/correct
//!   under the level's tolerance, poison the block for what cannot be
//!   located, and re-encode over the healed rows.
//!
//! [`KvCache::append`] heals the ragged trailing block once per call, then
//! pushes; [`KvCache::truncate_to`] heals, then re-encodes a row prefix.
//!
//! # Eviction
//!
//! The per-block layout exists so bounded-memory serving is cheap:
//! [`KvCache::evict_front`] drops whole blocks from the front of every
//! slot — checksums, max-norm snapshot, and sticky poison marks travel
//! with each block, so eviction is O(1) bookkeeping per block with **no
//! re-encode**. Row and block coordinates stay *global* (position-stable):
//! after evicting one 64-row block, block 1 is still block 1 and row 70 is
//! still row 70; only blocks `< start_block()` are gone, and every
//! accessor hard-asserts residency. [`KvCache::enforce_window`] is the
//! sliding-window policy on top: keep the most recent `window` rows
//! resident (rounded up to a block boundary).
//!
//! # Rollback
//!
//! [`KvCache::checkpoint`] / [`KvCache::truncate_to`] mirror the same
//! machinery at the *tail*: a [`CacheMark`] bookmarks a logical length,
//! and truncating back to it drops whole tail blocks O(1) (checksums,
//! max-norm, and poison marks retire with each dropped block, exactly as
//! in front eviction) and re-encodes the one ragged boundary block over
//! its surviving rows — healed first, so damage is never baked into the
//! fresh checksums. The re-encoded block is bit-identical to what a cache that
//! never grew past the mark would store, which is what lets speculative
//! decode append provisional rows, verify them in one fused sweep, and
//! roll back the rejected suffix without perturbing later tokens. A mark
//! behind the eviction frontier is rejected (hard assert): those rows are
//! gone and no truncation can restore them.
//!
//! Append, corrupt, and read back — the residency round-trip:
//!
//! ```
//! use ft_core::kv::KvCache;
//! use ft_num::rng::normal_tensor_f16;
//! use ft_sim::{FaultSite, OpCoord, SeuInjector};
//!
//! let mut cache = KvCache::new(1, 2, 16, 8, 8, 0.25);
//! for t in 0..10 {
//!     let k = normal_tensor_f16(100 + t, 1, 2, 1, 16, 0.6);
//!     let v = normal_tensor_f16(200 + t, 1, 2, 1, 16, 0.8);
//!     assert!(cache.append(&k, &v).clean());
//! }
//! // An SEU lands in stored K[7][3] of slot 0 between decode steps…
//! let seu = SeuInjector::new(FaultSite::KvCache, OpCoord::new(0, 7, 3, 0), 14);
//! cache.expose(&seu, 0);
//! // …and the verified read locates and corrects it.
//! let (_, report) = cache.read_k_verified(0, 0);
//! assert_eq!((report.detected, report.corrected, report.uncorrectable), (1, 1, 0));
//! ```

use crate::efta::{max_row_norm, row_norm};
use crate::protect::ProtectionLevel;
use ft_abft::strided::{
    encode_cols_strided, encode_rows_strided, locate_group, strided_sums, StridedChecksums,
};
use ft_num::{MatrixF16, MatrixF32, Tensor4F16, F16};
use ft_sim::{FaultInjector, FaultSite};

/// Verification criterion for cache reads: the stored checksum and the
/// re-folded sum are computed by the *same* loop over the same f32 values,
/// so a clean block reproduces them bit-exactly — any discrepancy above
/// f32 noise is a corruption. (Contrast the GEMM checks, whose FP16
/// tensor-core noise needs calibrated thresholds.)
const READ_CHECK_FLOOR: f32 = 1e-6;

/// One cached block: up to `block` rows of K and V plus their checksums.
/// Unless the payload was corrupted in place ([`KvCache::expose`]), the
/// stored operands and max-norm are bit-for-bit what `encode` computes from
/// the stored payload: `push_row` preserves that, `heal` restores it.
#[derive(Clone, Debug)]
struct KvBlock {
    /// Cached key rows (FP16 payload, the fault surface).
    k: MatrixF16,
    /// Cached value rows.
    v: MatrixF16,
    /// Row-folded checksums of `k` (shape `s × dim`): storage integrity
    /// reference *and* GEMM I checksum operands.
    k_cs: StridedChecksums,
    /// Column-folded checksums of `v` (shape `rows × s`): storage integrity
    /// reference *and* GEMM II checksum operands.
    v_cs: StridedChecksums,
    /// Largest Euclidean row norm of `k`, snapshotted at encode time —
    /// the Cauchy–Schwarz bound the EFTA decode kernel uses to unmask
    /// max hijacks, amortised here like the checksum operands instead of
    /// rescanned every step.
    k_max_norm: f32,
    /// Sticky unlocatable-damage count attributed to *this* block (see
    /// [`KvCache::poisoned`]). Travels with the block through eviction, so
    /// evicting a damaged block retires its damage signal along with its
    /// payload.
    poisoned: u64,
}

impl KvBlock {
    /// A block with no rows yet. Without `metadata` ([`ProtectionLevel::Raw`])
    /// the operands stay 0 × 0: no checksum bytes, no lanes to verify.
    fn empty(dim: usize, stride: usize, metadata: bool) -> Self {
        let lanes = |cols: usize| MatrixF32::zeros(0, if metadata { cols } else { 0 });
        let operands = |cols: usize| StridedChecksums {
            w1: lanes(cols),
            w2: lanes(cols),
            stride: 1,
            groups: 0,
        };
        KvBlock {
            k: MatrixF16::zeros(0, dim),
            v: MatrixF16::zeros(0, dim),
            k_cs: operands(dim),
            v_cs: operands(stride.min(dim)),
            k_max_norm: 0.0,
            poisoned: 0,
        }
    }

    /// The from-scratch encoder: the oracle `push_row` is tested against,
    /// and how an existing block whose operands can no longer be trusted,
    /// or whose rows were cut, is rebuilt — carrying the mark `poisoned`.
    fn encode(k: &MatrixF16, v: &MatrixF16, stride: usize, poisoned: u64) -> Self {
        let (kf, vf) = (k.to_f32(), v.to_f32());
        KvBlock {
            // Row-fold stride adapts to ragged (still-filling) blocks; the
            // column fold is over `dim`, which never changes.
            k_cs: encode_rows_strided(&kf, stride.min(kf.rows()), false),
            v_cs: encode_cols_strided(&vf, stride.min(vf.cols()), false),
            k: k.clone(),
            v: v.clone(),
            k_max_norm: max_row_norm(&kf),
            poisoned,
        }
    }

    /// Append one row — how every row enters the cache. Payload, operands
    /// and max-norm grow in place, each lane by the additions `encode` over
    /// the extended block makes, in its order: bit-identical to a re-encode
    /// of clean rows. Stored rows are not read back, so resident corruption
    /// is neither healed nor laundered: the next verifying read sees it.
    fn push_row(&mut self, k: &[F16], v: &[F16], stride: usize, metadata: bool) {
        let rows = self.k.rows();
        self.k.push_row(k);
        self.v.push_row(v);
        if !metadata {
            return;
        }
        // K, row-folded: the new row is lane `t`, group `l`. A block shorter
        // than the stride folds at its row count, so the row opens a lane —
        // from zero, like the encoder's accumulator (`0.0 + -0.0`, no copy).
        let (t, l) = (rows % stride, rows / stride);
        if l == 0 {
            self.k_cs.w1.push_zero_row();
            self.k_cs.w2.push_zero_row();
        }
        (self.k_cs.stride, self.k_cs.groups) = (stride.min(rows + 1), l + 1);
        let (w1, w2) = (self.k_cs.w1.row_mut(t), self.k_cs.w2.row_mut(t));
        fold_k_row(w1, w2, k, (l + 1) as f32);
        self.k_max_norm = self.k_max_norm.max(row_norm(k.iter().map(|x| x.to_f32())));
        // V, column-folded: every payload row has a checksum row of its own.
        self.v_cs.w1.push_zero_row();
        self.v_cs.w2.push_zero_row();
        fold_v_row(self.v_cs.w1.row_mut(rows), self.v_cs.w2.row_mut(rows), v);
        let sv = self.v_cs.w1.cols();
        (self.v_cs.stride, self.v_cs.groups) = (sv, v.len().div_ceil(sv));
    }

    /// Whether the payload re-folds to every stored lane of both operands of
    /// both families, bit for bit: `push_row`'s fold straight from the FP16
    /// rows, one K lane or V row at a time into one scratch pair, compared
    /// as it completes.
    fn folds_to_stored(&self) -> bool {
        let mut scratch = vec![0.0f32; 2 * self.k.cols()];
        let (w1, w2) = scratch.split_at_mut(self.k.cols());
        let s = self.k_cs.stride;
        for t in 0..self.k_cs.w1.rows() {
            w1.fill(0.0);
            w2.fill(0.0);
            for (l, r) in (t..self.k.rows()).step_by(s).enumerate() {
                fold_k_row(w1, w2, self.k.row(r), (l + 1) as f32);
            }
            if !same_lanes(w1, self.k_cs.w1.row(t)) || !same_lanes(w2, self.k_cs.w2.row(t)) {
                return false;
            }
        }
        let (w1, w2) = (
            &mut w1[..self.v_cs.w1.cols()],
            &mut w2[..self.v_cs.w1.cols()],
        );
        (0..self.v.rows()).all(|r| {
            w1.fill(0.0);
            w2.fill(0.0);
            fold_v_row(w1, w2, self.v.row(r));
            same_lanes(w1, self.v_cs.w1.row(r)) && same_lanes(w2, self.v_cs.w2.row(r))
        })
    }

    /// The verifying read in front of a write. Re-fold the resident rows
    /// straight from the FP16 payload (`folds_to_stored`) and compare every
    /// lane of both operands of both families with the stored bits (`w2`
    /// too: damage that cancels in a lane's plain sum, or hides under the
    /// read-check floor, still moves what a re-encode stores). All equal:
    /// the block is what `encode` would rebuild, and nothing is touched.
    /// Otherwise locate and correct under `tol`, write
    /// the re-quantised payload back and re-encode — destroying the
    /// evidence of what could not be located, so that count joins the
    /// sticky poison mark here, once. Returns the verification report.
    fn heal(&mut self, stride: usize, tol: Option<f32>) -> KvReadReport {
        if self.folds_to_stored() {
            return KvReadReport::default();
        }
        let (kf, k_report) = verify(&self.k, &self.k_cs, Fold::Rows, tol);
        let (vf, v_report) = verify(&self.v, &self.v_cs, Fold::Cols, tol);
        let report = k_report.merged(&v_report);
        let poisoned = self.poisoned + report.uncorrectable;
        *self = KvBlock::encode(&kf.to_f16(), &vf.to_f16(), stride, poisoned);
        report
    }

    /// Cut the block back to its first `rows` rows and re-encode over
    /// exactly those (the row-fold stride adapts): what a cache that never
    /// grew past them would store. The poison mark stays — unlocatable
    /// damage cannot be pinned to a row, so every survivor stays suspect.
    fn keep_rows(&mut self, rows: usize, stride: usize, metadata: bool) {
        let k = self.k.block(0, 0, rows, self.k.cols());
        let v = self.v.block(0, 0, rows, self.v.cols());
        if metadata {
            *self = KvBlock::encode(&k, &v, stride, self.poisoned);
        } else {
            (self.k, self.v) = (k, v);
        }
    }
}

/// Outcome of verified cache reads (and scrubs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KvReadReport {
    /// Checksum lanes that flagged a mismatch.
    pub detected: u64,
    /// Elements located and corrected.
    pub corrected: u64,
    /// Mismatches that could not be located (multi-error aliasing in one
    /// lane). The cached data cannot be recomputed — callers must treat the
    /// sequence as damaged (re-prefill).
    pub uncorrectable: u64,
    /// Residuals above the read-check floor but within an
    /// [`Approximate`](crate::protect::ProtectionLevel::Approximate)
    /// stream's tolerance: absorbed uncorrected by policy. Counted for the
    /// ledger, but deliberate — does not dirty
    /// [`clean`](KvReadReport::clean) and never poisons.
    pub tolerated: u64,
}

impl KvReadReport {
    /// Field-wise sum.
    pub fn merged(&self, other: &KvReadReport) -> KvReadReport {
        KvReadReport {
            detected: self.detected + other.detected,
            corrected: self.corrected + other.corrected,
            uncorrectable: self.uncorrectable + other.uncorrectable,
            tolerated: self.tolerated + other.tolerated,
        }
    }

    /// True when nothing flagged.
    pub fn clean(&self) -> bool {
        self.detected == 0
    }
}

/// Byte-level cache footprint split into FP16 payload and FP32 protection
/// metadata (see [`KvCache::size_breakdown`]). Metadata rivals the payload
/// at small head dims — the overhead side of the graded-protection
/// frontier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SizeBreakdown {
    /// FP16 bytes of resident K/V payload.
    pub payload_bytes: u64,
    /// FP32 bytes of strided checksum operands (both families).
    pub checksum_bytes: u64,
    /// FP32 bytes of per-block max-norm snapshots.
    pub max_norm_bytes: u64,
}

impl SizeBreakdown {
    /// All protection metadata bytes (checksums + max-norms).
    pub fn metadata_bytes(&self) -> u64 {
        self.checksum_bytes + self.max_norm_bytes
    }

    /// Payload plus metadata.
    pub fn total_bytes(&self) -> u64 {
        self.payload_bytes + self.metadata_bytes()
    }

    /// Field-wise sum (multi-layer / multi-cache aggregation).
    pub fn merged(&self, other: &SizeBreakdown) -> SizeBreakdown {
        SizeBreakdown {
            payload_bytes: self.payload_bytes + other.payload_bytes,
            checksum_bytes: self.checksum_bytes + other.checksum_bytes,
            max_norm_bytes: self.max_norm_bytes + other.max_norm_bytes,
        }
    }
}

/// One cache block read through verification **once** and shared by every
/// chunk row of a sweep tile (see [`KvCache::verified_block`]): corrected
/// f32 payload plus borrowed checksum operands, so the tile's checksum
/// GEMMs reuse the stored append-time encodes without re-deriving them
/// per row.
#[derive(Debug)]
pub struct VerifiedBlock<'a> {
    /// Verified (located-and-corrected) f32 copy of the block's K rows.
    pub k: MatrixF32,
    /// Verified f32 copy of the block's V rows.
    pub v: MatrixF32,
    /// Stored append-time K checksum operands (the GEMM I checksum
    /// operands for fully visible blocks).
    pub k_cs: &'a StridedChecksums,
    /// Stored append-time V checksum operands (GEMM II).
    pub v_cs: &'a StridedChecksums,
    /// Largest Euclidean K row norm, snapshotted at append time (the
    /// Cauchy–Schwarz max-plausibility bound).
    pub k_max_norm: f32,
    /// K verification outcome — to be attributed once per sweep.
    pub k_report: KvReadReport,
    /// V verification outcome — to be attributed once per sweep.
    pub v_report: KvReadReport,
}

/// Position bookmark into a [`KvCache`]: the logical row count to restore
/// with [`KvCache::truncate_to`]. Marks use *logical* (position-stable)
/// coordinates, so they stay meaningful across front eviction — but a mark
/// whose rows have since been evicted is dead, and `truncate_to` rejects
/// it with a hard assert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheMark {
    len: usize,
}

impl CacheMark {
    /// Mark at an explicit logical row count. [`KvCache::checkpoint`] is
    /// the usual constructor; this one lets recovery policies aim at a
    /// computed boundary (e.g. the first row of the first poisoned
    /// attended block).
    pub fn at(len: usize) -> Self {
        CacheMark { len }
    }

    /// The logical row count this mark restores.
    pub fn position(&self) -> usize {
        self.len
    }

    /// A mark `n` rows past this one — how a speculative verifier commits
    /// an accepted prefix: checkpoint before drafting, then truncate to
    /// `mark.advanced(accepted)` to keep exactly the verified rows.
    pub fn advanced(&self, n: usize) -> Self {
        CacheMark { len: self.len + n }
    }
}

/// Checksum-protected per-(batch, head) K/V store for incremental decode.
///
/// Rows are appended one token at a time (or several for chunked prefill);
/// storage is organised in blocks of `block` rows so the decode kernels
/// iterate it exactly like the prefill kernels iterate their operands.
#[derive(Clone, Debug)]
pub struct KvCache {
    batch: usize,
    heads: usize,
    dim: usize,
    block: usize,
    stride: usize,
    scale: f32,
    /// Logical tokens appended per slot — *including* evicted rows, so
    /// token positions stay stable across eviction.
    len: usize,
    /// Rows evicted from the front of every slot (always a multiple of
    /// `block`): the global row index of the first resident row.
    start: usize,
    /// `batch × heads` slots, each the list of *resident* blocks (global
    /// blocks `start_block()..num_blocks()`).
    slots: Vec<Vec<KvBlock>>,
    /// Graded protection policy applied to every encode/verify on this
    /// cache (set at creation; see [`ProtectionLevel`]).
    level: ProtectionLevel,
}

impl KvCache {
    /// Empty cache for `batch × heads` slots of `dim`-wide rows, tiled in
    /// `block`-row blocks with checksum stride `stride` and score scale
    /// `scale` (conventionally `1/sqrt(dim)`).
    pub fn new(
        batch: usize,
        heads: usize,
        dim: usize,
        block: usize,
        stride: usize,
        scale: f32,
    ) -> Self {
        assert!(block > 0 && stride > 0 && dim > 0);
        KvCache {
            batch,
            heads,
            dim,
            block,
            stride,
            scale,
            len: 0,
            start: 0,
            slots: vec![Vec::new(); batch * heads],
            level: ProtectionLevel::Full,
        }
    }

    /// Cache for `batch × heads` slots at head dimension `dim` with the
    /// paper's defaults: 64-row blocks (the CTA tile), stride-8 checksums,
    /// `1/sqrt(dim)` score scale. The cache grows dynamically.
    pub fn for_geometry(batch: usize, heads: usize, dim: usize) -> Self {
        Self::new(
            batch,
            heads,
            dim,
            64,
            ft_abft::strided::DEFAULT_STRIDE,
            1.0 / (dim as f32).sqrt(),
        )
    }

    /// Logical tokens appended per slot, *including* evicted rows — the
    /// next token's position. The resident row count is
    /// [`resident_len`](KvCache::resident_len).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Rows evicted from the front of every slot (a multiple of the block
    /// size; the global row index of the first resident row).
    pub fn start(&self) -> usize {
        self.start
    }

    /// Global index of the first resident block.
    pub fn start_block(&self) -> usize {
        self.start / self.block
    }

    /// Rows currently resident per slot (`len − start`).
    pub fn resident_len(&self) -> usize {
        self.len - self.start
    }

    /// Blocks currently resident per slot.
    pub fn resident_blocks(&self) -> usize {
        self.num_blocks() - self.start_block()
    }

    /// True before the first append.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Batch size.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Number of heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Head dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Block size (rows per block).
    pub fn block(&self) -> usize {
        self.block
    }

    /// Checksum stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Score scale applied to queries by the decode kernels.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// This cache's graded protection level.
    pub fn protection(&self) -> ProtectionLevel {
        self.level
    }

    /// Set the protection level. Only meaningful on an *empty* cache
    /// (hard assert): the level governs what metadata each block encodes,
    /// so flipping it mid-life would leave blocks inconsistent with the
    /// policy. Streams apply their level at cache creation (admission,
    /// re-prefill recovery, migration re-adoption).
    pub fn set_protection(&mut self, level: ProtectionLevel) {
        assert!(
            self.is_empty(),
            "protection level must be set before the first append"
        );
        self.level = level;
    }

    /// Builder-style [`set_protection`](KvCache::set_protection).
    pub fn with_protection(mut self, level: ProtectionLevel) -> Self {
        self.set_protection(level);
        self
    }

    /// Number of `(batch, head)` slots.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Total number of logical blocks per slot (evicted blocks included —
    /// block indices are global and position-stable; only
    /// `start_block()..num_blocks()` are resident).
    pub fn num_blocks(&self) -> usize {
        self.len.div_ceil(self.block)
    }

    /// Storage index of global block `b`, hard-asserting residency. Every
    /// read path funnels through here: with eviction shifting block
    /// indexing, a silently-wrong block would corrupt decode output, so
    /// the bound is a release-mode assert, not a `debug_assert`.
    fn resident_index(&self, b: usize) -> usize {
        assert!(
            b >= self.start_block() && b < self.num_blocks(),
            "block {b} is not resident (resident blocks: {}..{})",
            self.start_block(),
            self.num_blocks(),
        );
        b - self.start_block()
    }

    /// Rows held by global block `b` (the last block may be ragged).
    /// Hard-asserts that `b` is resident.
    pub fn block_rows(&self, b: usize) -> usize {
        self.resident_index(b); // residency assert
        if b + 1 == self.num_blocks() && !self.len.is_multiple_of(self.block) {
            self.len % self.block
        } else {
            self.block
        }
    }

    /// FP16 bytes of *resident* cached payload (evicted rows are freed).
    pub fn size_bytes(&self) -> u64 {
        2 * (self.num_slots() * self.resident_len() * self.dim * 2) as u64
    }

    /// FP32 bytes of checksum metadata (the protection overhead).
    /// Zero for a [`Raw`](ProtectionLevel::Raw) cache, which stores none.
    pub fn checksum_bytes(&self) -> u64 {
        self.slots
            .iter()
            .flatten()
            .map(|b| {
                4 * (b.k_cs.w1.len() + b.k_cs.w2.len() + b.v_cs.w1.len() + b.v_cs.w2.len()) as u64
            })
            .sum()
    }

    /// Byte-level footprint split into FP16 payload vs FP32 protection
    /// metadata (checksums + the per-block max-norm snapshot) — what the
    /// graded-protection frontier trades against resilience. Payload is
    /// [`size_bytes`](KvCache::size_bytes); metadata is zero for `Raw`.
    pub fn size_breakdown(&self) -> SizeBreakdown {
        let max_norm_bytes = if self.level.encodes_metadata() {
            4 * self.slots.iter().map(|b| b.len() as u64).sum::<u64>()
        } else {
            0
        };
        SizeBreakdown {
            payload_bytes: self.size_bytes(),
            checksum_bytes: self.checksum_bytes(),
            max_norm_bytes,
        }
    }

    /// Append `n` new token rows per slot (`k`/`v` are
    /// `batch × heads × n × dim`; decode appends `n = 1`). Every row enters
    /// by `push_row`'s fold: the encode is paid once per row, never again
    /// per block. A trailing block that is ragged on entry is first read
    /// back and verified (`heal`), so corruption that landed in it is
    /// repaired, or poisons it, instead of being folded under;
    /// [`Lazy`](ProtectionLevel::Lazy) leaves that to the next attended
    /// read. Once per call verifies what once per row would: rows this call
    /// pushes cannot be exposed before it returns, and what the fold writes
    /// re-folds to the stored bits. Returns that verification's report.
    pub fn append(&mut self, k: &Tensor4F16, v: &Tensor4F16) -> KvReadReport {
        for (name, t) in [("k", k), ("v", v)] {
            assert_eq!(
                (t.batch(), t.heads(), t.dim()),
                (self.batch, self.heads, self.dim),
                "{name} rows do not match the cache geometry",
            );
        }
        let n = k.seq();
        assert_eq!(v.seq(), n, "k/v row counts differ");
        let mut report = KvReadReport::default();
        let (level, stride) = (self.level, self.stride);
        let metadata = level.encodes_metadata();
        let ragged = !self.len.is_multiple_of(self.block);
        for (slot, blocks) in self.slots.iter_mut().enumerate() {
            if ragged && metadata && !level.defers_append_heal() {
                let last = blocks.last_mut().expect("ragged trailing block resident");
                report = report.merged(&last.heal(stride, level.tolerance()));
            }
            let (km, vm) = (k.slot_flat(slot), v.slot_flat(slot));
            for r in 0..n {
                if (self.len + r).is_multiple_of(self.block) {
                    blocks.push(KvBlock::empty(self.dim, stride, metadata));
                }
                let last = blocks.last_mut().expect("trailing block just opened");
                last.push_row(km.row(r), vm.row(r), stride, metadata);
            }
        }
        self.len += n;
        report
    }

    /// Sticky count of unlocatable corruption events among *resident*
    /// blocks, absorbed by checksum re-encodes (append heals over a ragged
    /// block, scrubs over unrepairable damage): once a re-encode stamps
    /// clean checksums over unrepairable rows, per-read reports look clean
    /// while the payload is wrong, and this counter is the only surviving
    /// damage signal — the EFTA decode path folds it into every step's
    /// `cache_uncorrectable` so it cannot be missed. Each physical event
    /// is counted exactly once, at the moment its checksum evidence is
    /// destroyed. Poison marks travel with their block:
    /// [`evict_front`](KvCache::evict_front) retires a damaged block's
    /// count together with its payload (damage outside the attended window
    /// no longer taints the stream).
    pub fn poisoned(&self) -> u64 {
        self.slots.iter().flatten().map(|b| b.poisoned).sum()
    }

    /// First block a `vis`-row causal prefix attends under an optional
    /// sliding window: the most recent `window` rows, rounded *down* to a
    /// block boundary (the attended block set is exactly what a fresh
    /// cache holding only the window would contain), clamped to the
    /// eviction frontier. This is the iteration origin of every windowed
    /// decode kernel — exposed so storage policies and recovery policies
    /// reason about the *same* attended set the numerics use.
    pub fn attended_start_block_at(&self, vis: usize, window: Option<usize>) -> usize {
        let ws = match window {
            Some(w) if vis > w => (vis - w) / self.block,
            _ => 0,
        };
        ws.max(self.start_block())
    }

    /// Sticky unrepairable-damage count restricted to the blocks the
    /// *next* decode step would attend under `window` — the window-scoped
    /// variant of [`poisoned`](KvCache::poisoned) (`poisoned_attended(None)`
    /// is `poisoned()` exactly). This is the re-prefill trigger of the
    /// serving engine's recovery policy: damage in a resident block that
    /// has already slid behind the attention window can never influence a
    /// future token, so it must not trigger (and will be retired outright
    /// once [`enforce_window`](KvCache::enforce_window) evicts the block,
    /// marks travelling with it).
    pub fn poisoned_attended(&self, window: Option<usize>) -> u64 {
        let b0 = self.attended_start_block_at(self.len, window);
        let start = self.start_block();
        self.slots
            .iter()
            .flat_map(|blocks| {
                blocks
                    .iter()
                    .enumerate()
                    .filter(move |(bi, _)| start + bi >= b0)
                    .map(|(_, b)| b.poisoned)
            })
            .sum()
    }

    /// Sticky poison level of resident global block `b`, summed across
    /// slots — the block-granular query a rollback planner uses to prove
    /// that every block a truncated suffix will re-attend is clean (see
    /// [`truncate_to`](KvCache::truncate_to)). Hard-asserts residency,
    /// like every block-indexed read.
    pub fn block_poisoned(&self, b: usize) -> u64 {
        let i = self.resident_index(b);
        self.slots.iter().map(|blocks| blocks[i].poisoned).sum()
    }

    /// Drop the `n_blocks` oldest resident blocks from the front of every
    /// slot — O(1) bookkeeping per block: checksums, the max-norm
    /// snapshot, and sticky poison marks travel with each block, nothing
    /// is re-encoded. The trailing block is never evicted (decode always
    /// attends the newest row), so the request is clamped to
    /// `resident_blocks() − 1`; returns the number of blocks actually
    /// evicted. Global row/block coordinates are position-stable: block
    /// `b` keeps its index, only `start()`/`start_block()` advance.
    pub fn evict_front(&mut self, n_blocks: usize) -> usize {
        let n = n_blocks.min(self.resident_blocks().saturating_sub(1));
        if n == 0 {
            return 0;
        }
        for blocks in &mut self.slots {
            blocks.drain(..n);
        }
        self.start += n * self.block;
        n
    }

    /// Sliding-window storage policy: evict whole blocks from the front
    /// until at most `window` rows — rounded up to a block boundary —
    /// remain resident. Returns the number of blocks evicted. Callers that
    /// *attend* a window (the decode kernels take the window as a per-row
    /// knob) must enforce storage **before** appending new rows, so a
    /// chunk's interior rows still find every block their own causal
    /// window reaches back to.
    pub fn enforce_window(&mut self, window: usize) -> usize {
        assert!(window > 0, "a zero-row window cannot serve decode");
        let resident = self.resident_len();
        if resident <= window {
            return 0;
        }
        self.evict_front((resident - window) / self.block)
    }

    /// Bookmark the current logical length for a later
    /// [`truncate_to`](KvCache::truncate_to) — O(1), captures no payload:
    /// rollback re-derives everything from the blocks that survive.
    pub fn checkpoint(&self) -> CacheMark {
        CacheMark { len: self.len }
    }

    /// Roll the tail back to `mark` — the mirror image of
    /// [`evict_front`](KvCache::evict_front) at the tail. Block by block:
    /// * **whole tail blocks** are dropped with no re-encode; their
    ///   checksums, max-norm snapshots, and sticky poison marks retire
    ///   with them (damage confined to rolled-back rows leaves no trace —
    ///   the rows it could have tainted no longer exist);
    /// * the **ragged boundary block** (when `mark` lands mid-block) is
    ///   healed against its stored checksums *first* — the `heal` an append
    ///   runs, poison accounting included — then re-encoded from scratch
    ///   over the surviving rows, so it is bit-identical to one in a cache
    ///   that never grew past the mark. A poison mark on the block
    ///   survives: the damaged row cannot be located, so every surviving
    ///   row stays suspect (see [`poisoned`](KvCache::poisoned));
    /// * a mark behind the eviction frontier (`mark.position() <
    ///   start()`) is **rejected with a hard assert**: those rows were
    ///   evicted and no tail operation can restore them. Truncating
    ///   forward (`mark.position() > len()`) is equally a logic error.
    ///
    /// Returns the boundary-block verification report (empty when the mark
    /// lands on a block boundary or at the current length).
    pub fn truncate_to(&mut self, mark: CacheMark) -> KvReadReport {
        assert!(
            mark.len <= self.len,
            "cannot truncate forward: mark at row {} is past the cache length {}",
            mark.len,
            self.len,
        );
        assert!(
            mark.len >= self.start,
            "mark at row {} is behind the eviction frontier (start {}): its block was evicted",
            mark.len,
            self.start,
        );
        let mut report = KvReadReport::default();
        if mark.len == self.len {
            return report;
        }
        let keep_resident = mark.len.div_ceil(self.block) - self.start_block();
        // Rows the mark leaves in its own block (none on a block boundary).
        let boundary_rows = mark.len % self.block;
        let (level, stride) = (self.level, self.stride);
        for blocks in &mut self.slots {
            blocks.truncate(keep_resident);
            if boundary_rows == 0 {
                continue;
            }
            let last = blocks.last_mut().expect("ragged boundary block resident");
            // Heal before the old checksums are replaced, at every level
            // that has any (`Lazy` too): re-encoding a prefix of unverified
            // payload would launder resident damage for good.
            if level.encodes_metadata() {
                report = report.merged(&last.heal(stride, level.tolerance()));
            }
            last.keep_rows(boundary_rows, stride, level.encodes_metadata());
        }
        self.len = mark.len;
        report
    }

    /// Global index of the first *attended* block (under `window`, at the
    /// current length) carrying a sticky poison mark, if any — the rollback
    /// target locator for partial re-prefill recovery: truncating to
    /// `CacheMark::at(b * block())` drops the first poisoned attended
    /// block and everything after it (whole-block drops, marks retiring
    /// with their blocks) while keeping the clean prefix resident.
    pub fn first_poisoned_attended_block(&self, window: Option<usize>) -> Option<usize> {
        let b0 = self.attended_start_block_at(self.len, window);
        let start = self.start_block();
        self.slots
            .iter()
            .flat_map(|blocks| {
                blocks
                    .iter()
                    .enumerate()
                    .filter(move |&(bi, b)| b.poisoned > 0 && start + bi >= b0)
                    .map(move |(bi, _)| start + bi)
            })
            .min()
    }

    /// Unverified f32 copy of K block `b` in slot `slot` (the unprotected
    /// read path: whatever sits in storage, corrupted or not). Like every
    /// block accessor, `b` is a *global* block index and must be resident
    /// (hard assert — an out-of-range or evicted index is a logic error,
    /// not a recoverable condition).
    pub fn read_k_raw(&self, slot: usize, b: usize) -> MatrixF32 {
        self.slots[slot][self.resident_index(b)].k.to_f32()
    }

    /// Unverified f32 copy of V block `b` in slot `slot`.
    pub fn read_v_raw(&self, slot: usize, b: usize) -> MatrixF32 {
        self.slots[slot][self.resident_index(b)].v.to_f32()
    }

    /// Stored checksum operands of K block `b` (GEMM I operands).
    pub fn k_checksums(&self, slot: usize, b: usize) -> &StridedChecksums {
        &self.slots[slot][self.resident_index(b)].k_cs
    }

    /// Stored checksum operands of V block `b` (GEMM II operands).
    pub fn v_checksums(&self, slot: usize, b: usize) -> &StridedChecksums {
        &self.slots[slot][self.resident_index(b)].v_cs
    }

    /// Largest K row norm of block `b`, snapshotted at append time (the
    /// decode kernel's Cauchy–Schwarz max-plausibility bound).
    pub fn k_max_norm(&self, slot: usize, b: usize) -> f32 {
        self.slots[slot][self.resident_index(b)].k_max_norm
    }

    /// Verified read of K block `b`: re-fold the stored rows, compare
    /// against the append-time checksums, locate and correct corrupted
    /// elements in the returned copy (storage itself is left untouched —
    /// see [`scrub`](KvCache::scrub) for in-place repair).
    pub fn read_k_verified(&self, slot: usize, b: usize) -> (MatrixF32, KvReadReport) {
        let blk = &self.slots[slot][self.resident_index(b)];
        if !self.level.encodes_metadata() {
            return (blk.k.to_f32(), KvReadReport::default());
        }
        verify(&blk.k, &blk.k_cs, Fold::Rows, self.level.tolerance())
    }

    /// Verified read of V block `b` (column-folded checksums).
    pub fn read_v_verified(&self, slot: usize, b: usize) -> (MatrixF32, KvReadReport) {
        let blk = &self.slots[slot][self.resident_index(b)];
        if !self.level.encodes_metadata() {
            return (blk.v.to_f32(), KvReadReport::default());
        }
        verify(&blk.v, &blk.v_cs, Fold::Cols, self.level.tolerance())
    }

    /// Verify block `b` of slot `slot` **once** and expose everything a
    /// sweep tile needs from it: the corrected K/V payload, the stored
    /// checksum operands, and the append-time max-norm snapshot — the
    /// fused multi-row sweep's verify-once, expose-many read path. The
    /// verification outcome rides along exactly once, so a tile serving
    /// many chunk rows attributes each physical cache fault to its
    /// stream's report once per sweep, not once per attending row.
    ///
    /// The payload copies are bit-identical to
    /// [`read_k_verified`](KvCache::read_k_verified) /
    /// [`read_v_verified`](KvCache::read_v_verified) — same stored rows
    /// through the same deterministic locate-and-correct pass. A clean read
    /// folds each family's `w1` lanes once and compares them; the `w2`
    /// fold that locates an error is built only for a family whose `w1`
    /// lanes mismatch.
    pub fn verified_block(&self, slot: usize, b: usize) -> VerifiedBlock<'_> {
        assert!(
            self.level.encodes_metadata(),
            "verified_block on a Raw cache: route Raw streams to the \
             unprotected (reference) tile instead",
        );
        let tol = self.level.tolerance();
        let blk = &self.slots[slot][self.resident_index(b)];
        let (k, k_report) = verify(&blk.k, &blk.k_cs, Fold::Rows, tol);
        let (v, v_report) = verify(&blk.v, &blk.v_cs, Fold::Cols, tol);
        VerifiedBlock {
            k,
            v,
            k_cs: &blk.k_cs,
            v_cs: &blk.v_cs,
            k_max_norm: blk.k_max_norm,
            k_report,
            v_report,
        }
    }

    /// Model soft errors landing in cache-resident state: every stored FP16
    /// element is offered to `inj` at [`FaultSite::KvCache`] with coordinate
    /// `(slot, global_row, col, 2·step + which)` (`which` = 0 for K, 1 for
    /// V). `step` keeps repeated exposure of the same element across decode
    /// steps from re-deriving the same stateless-hash decision. Rows are
    /// offered whole ([`FaultInjector::corrupt_f16_row`]), and an injector
    /// that cannot fire at the site is not asked at all.
    pub fn expose(&mut self, inj: &dyn FaultInjector, step: u64) {
        if !inj.may_fire(FaultSite::KvCache) {
            return;
        }
        let block = self.block;
        let start_block = self.start / self.block;
        for (slot, blocks) in self.slots.iter_mut().enumerate() {
            for (bi, blk) in blocks.iter_mut().enumerate() {
                // Fault coordinates address *global* rows, so a campaign
                // targeting row 70 keeps hitting the same physical row
                // whether or not earlier blocks have been evicted.
                let b = start_block + bi;
                for which in 0..2u64 {
                    let m = if which == 0 { &mut blk.k } else { &mut blk.v };
                    for r in 0..m.rows() {
                        let i = (b * block + r) as u64;
                        inj.corrupt_f16_row(
                            FaultSite::KvCache,
                            slot as u64,
                            i,
                            2 * step + which,
                            m.row_mut(r),
                        );
                    }
                }
            }
        }
    }

    /// In-place integrity pass over the whole cache: verify every resident
    /// block and write located corrections back to the FP16 payload (the
    /// maintenance scrub a serving loop runs between requests).
    ///
    /// Contract for unlocatable damage (count once, don't launder): when a
    /// block verifies with `uncorrectable > 0`, the damage cannot be
    /// repaired from checksums, so the scrub (1) folds the count into the
    /// block's sticky [`poisoned`](KvCache::poisoned) mark and only *then*
    /// (2) re-encodes that block's checksums over the partially-healed
    /// payload. The re-encode silences further per-read alarms for an
    /// event nothing can act on twice — each physical event lands in
    /// `poisoned()` exactly once, at the moment its checksum evidence is
    /// destroyed, and the protected decode path re-surfaces the sticky
    /// count as `cache_uncorrectable` on every subsequent step, so the
    /// damage is never silently forgotten.
    pub fn scrub(&mut self) -> KvReadReport {
        let mut total = KvReadReport::default();
        if !self.level.encodes_metadata() {
            // Raw: nothing to verify against; the scrub is a no-op.
            return total;
        }
        let stride = self.stride;
        for slot in 0..self.num_slots() {
            for b in self.start_block()..self.num_blocks() {
                let (kf, krep) = self.read_k_verified(slot, b);
                let (vf, vrep) = self.read_v_verified(slot, b);
                let bi = self.resident_index(b);
                if !krep.clean() {
                    self.slots[slot][bi].k = kf.to_f16();
                }
                if !vrep.clean() {
                    self.slots[slot][bi].v = vf.to_f16();
                }
                let uncorrectable = krep.uncorrectable + vrep.uncorrectable;
                if uncorrectable > 0 {
                    let blk = &mut self.slots[slot][bi];
                    *blk = KvBlock::encode(&blk.k, &blk.v, stride, blk.poisoned + uncorrectable);
                }
                total = total.merged(&krep).merged(&vrep);
            }
        }
        total
    }
}

/// Checksum lanes compared as raw bits: a clean block re-folds to the exact
/// same f32s (same loop over the same values) — the NaN lanes of an
/// appended Inf/NaN row too, which `==` would fail against themselves and
/// so read as permanent damage — and `-0.0` is not `0.0`. One OR over
/// every lane's difference, no early exit, so the comparison vectorises.
fn same_lanes(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .fold(0, |diff, (x, y)| diff | (x.to_bits() ^ y.to_bits()))
            == 0
}

/// Bit-for-bit equality of both operands.
#[cfg(test)]
fn same_bits(a: &StridedChecksums, b: &StridedChecksums) -> bool {
    same_lanes(a.w1.as_slice(), b.w1.as_slice()) && same_lanes(a.w2.as_slice(), b.w2.as_slice())
}

/// Fold K row `x` of group `l` into its lane `(w1, w2)`, `wl = l + 1`:
/// one add per element, the from-scratch row encoder's
/// (`encode_rows_strided`) arithmetic.
fn fold_k_row(w1: &mut [f32], w2: &mut [f32], x: &[F16], wl: f32) {
    for ((a, b), x) in w1.iter_mut().zip(w2.iter_mut()).zip(x) {
        let x = x.to_f32();
        *a += x;
        *b += wl * x;
    }
}

/// Fold V row `x` into its own lanes `(w1, w2)` at stride `w1.len()`, one
/// group of columns at a time in ascending order: the column encoder's
/// (`encode_cols_strided`) arithmetic.
fn fold_v_row(w1: &mut [f32], w2: &mut [f32], x: &[F16]) {
    for (l, group) in x.chunks(w1.len()).enumerate() {
        let wl = (l + 1) as f32;
        for ((a, b), x) in w1.iter_mut().zip(w2.iter_mut()).zip(group) {
            let x = x.to_f32();
            *a += x;
            *b += wl * x;
        }
    }
}

/// The axis a block's checksums fold: K rows (`w1[t][c] = Σ_l K[t+s·l][c]`)
/// or V columns (`w1[r][t] = Σ_l V[r][t+s·l]`).
#[derive(Clone, Copy)]
enum Fold {
    Rows,
    Cols,
}

impl Fold {
    /// The plain (`w1`) lanes of the re-fold of `m` at stride `s`, the ones
    /// the read check compares: the encoder's, bit for bit.
    fn w1(self, m: &MatrixF32, s: usize) -> MatrixF32 {
        match self {
            Fold::Cols => strided_sums(m, s),
            Fold::Rows => {
                let mut out = MatrixF32::zeros(s, m.cols());
                for r in 0..m.rows() {
                    for (acc, &x) in out.row_mut(r % s).iter_mut().zip(m.row(r)) {
                        *acc += x;
                    }
                }
                out
            }
        }
    }

    /// Both operands of the re-fold of `m` at stride `s` (what locating an
    /// error needs).
    fn encode(self, m: &MatrixF32, s: usize) -> StridedChecksums {
        match self {
            Fold::Rows => encode_rows_strided(m, s, false),
            Fold::Cols => encode_cols_strided(m, s, false),
        }
    }
}

/// Verified f32 copy of a block's payload: re-fold it, compare with the
/// stored checksums, correct the copy. A corrupted element perturbs one
/// lane — `w1` by `Δ`, `w2` by `(l+1)·Δ` — which locates its group `l`,
/// hence the element `s·l` further along the fold axis. The check reads
/// `w1` alone, so a clean read folds `w1` only; `w2` is folded for a block
/// whose `w1` lanes mismatch. With `tol = Some(t)` (approximate
/// protection), residuals `|Δ| ≤ t` above the floor are tolerated: counted,
/// left uncorrected, never escalated.
fn verify(
    payload: &MatrixF16,
    cs: &StridedChecksums,
    axis: Fold,
    tol: Option<f32>,
) -> (MatrixF32, KvReadReport) {
    let mut m = payload.to_f32();
    let mut report = KvReadReport::default();
    // The clean read leaves here: every attended block of every sweep takes
    // it, and inside the loop below it pays for locate/correct's registers.
    if same_lanes(axis.w1(&m, cs.stride).as_slice(), cs.w1.as_slice()) {
        return (m, report);
    }
    let fresh = axis.encode(&m, cs.stride);
    for i in 0..fresh.w1.rows() {
        for j in 0..fresh.w1.cols() {
            // The clean lanes of a damaged block, NaN ones included.
            if fresh.w1.get(i, j).to_bits() == cs.w1.get(i, j).to_bits() {
                continue;
            }
            let d1 = fresh.w1.get(i, j) - cs.w1.get(i, j);
            if d1.abs() <= READ_CHECK_FLOOR {
                continue;
            }
            if tol.is_some_and(|tol| d1.abs() <= tol) {
                report.tolerated += 1;
                continue;
            }
            report.detected += 1;
            let d2 = fresh.w2.get(i, j) - cs.w2.get(i, j);
            let hit = locate_group(d1, d2)
                .and_then(|l| cs.stride.checked_mul(l))
                .and_then(|off| match axis {
                    Fold::Rows => Some((i.checked_add(off)?, j)),
                    Fold::Cols => Some((i, j.checked_add(off)?)),
                })
                .filter(|&(r, c)| r < m.rows() && c < m.cols());
            if let Some((r, c)) = hit {
                m.set(r, c, m.get(r, c) - d1);
                report.corrected += 1;
            } else {
                report.uncorrectable += 1;
            }
        }
    }
    (m, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_num::rng::normal_tensor_f16;
    use ft_sim::{BerInjector, NoFaults, OpCoord, SeuInjector};

    fn append_token(cache: &mut KvCache, t: usize) -> KvReadReport {
        let k = normal_tensor_f16(100 + t as u64, 1, 2, 1, 16, 0.6);
        let v = normal_tensor_f16(500 + t as u64, 1, 2, 1, 16, 0.8);
        cache.append(&k, &v)
    }

    fn filled_cache(tokens: usize, block: usize) -> KvCache {
        let mut cache = KvCache::new(1, 2, 16, block, 8, 0.25);
        for t in 0..tokens {
            append_token(&mut cache, t);
        }
        cache
    }

    /// Bit-identical comparison of everything a block stores: payload,
    /// both checksum families, and the max-norm snapshot.
    fn assert_caches_identical(a: &KvCache, b: &KvCache) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.start(), b.start());
        assert_eq!(a.num_blocks(), b.num_blocks());
        for slot in 0..a.num_slots() {
            for blk in a.start_block()..a.num_blocks() {
                assert_eq!(
                    a.read_k_raw(slot, blk),
                    b.read_k_raw(slot, blk),
                    "K s{slot} b{blk}"
                );
                assert_eq!(
                    a.read_v_raw(slot, blk),
                    b.read_v_raw(slot, blk),
                    "V s{slot} b{blk}"
                );
                assert_eq!(a.k_checksums(slot, blk).w1, b.k_checksums(slot, blk).w1);
                assert_eq!(a.k_checksums(slot, blk).w2, b.k_checksums(slot, blk).w2);
                assert_eq!(a.v_checksums(slot, blk).w1, b.v_checksums(slot, blk).w1);
                assert_eq!(a.v_checksums(slot, blk).w2, b.v_checksums(slot, blk).w2);
                assert_eq!(
                    a.k_max_norm(slot, blk).to_bits(),
                    b.k_max_norm(slot, blk).to_bits(),
                    "max-norm s{slot} b{blk}",
                );
            }
        }
    }

    #[test]
    fn append_grows_blocks_with_ragged_tail() {
        let cache = filled_cache(21, 8);
        assert_eq!(cache.len(), 21);
        assert_eq!(cache.num_blocks(), 3);
        assert_eq!(cache.block_rows(0), 8);
        assert_eq!(cache.block_rows(2), 5);
        assert_eq!(cache.read_k_raw(1, 2).rows(), 5);
    }

    #[test]
    fn clean_reads_verify_silently_and_match_raw() {
        let cache = filled_cache(13, 8);
        for slot in 0..2 {
            for b in 0..cache.num_blocks() {
                let (k, rep) = cache.read_k_verified(slot, b);
                assert!(rep.clean(), "{rep:?}");
                assert_eq!(k, cache.read_k_raw(slot, b));
                let (v, rep) = cache.read_v_verified(slot, b);
                assert!(rep.clean(), "{rep:?}");
                assert_eq!(v, cache.read_v_raw(slot, b));
            }
        }
    }

    #[test]
    fn exposed_k_flip_is_located_and_corrected_on_read() {
        let mut cache = filled_cache(16, 8);
        let truth = cache.read_k_raw(1, 1);
        // Exponent-range flip in stored K[12][5] of slot 1 (block 1, row 4).
        let inj = SeuInjector::new(FaultSite::KvCache, OpCoord::new(1, 12, 5, 0), 13);
        cache.expose(&inj, 0);
        assert_eq!(inj.fired(), 1);
        assert!(cache.read_k_raw(1, 1).max_abs_diff(&truth) > 1e-3);
        let (k, rep) = cache.read_k_verified(1, 1);
        assert_eq!(rep.detected, 1);
        assert_eq!(rep.corrected, 1);
        assert_eq!(rep.uncorrectable, 0);
        assert!(k.max_abs_diff(&truth) < 1e-5, "{}", k.max_abs_diff(&truth));
    }

    #[test]
    fn exposed_v_flip_is_located_and_corrected_on_read() {
        let mut cache = filled_cache(10, 8);
        let truth = cache.read_v_raw(0, 0);
        let inj = SeuInjector::new(FaultSite::KvCache, OpCoord::new(0, 3, 9, 1), 14);
        cache.expose(&inj, 0);
        assert_eq!(inj.fired(), 1);
        let (v, rep) = cache.read_v_verified(0, 0);
        assert_eq!((rep.detected, rep.corrected), (1, 1));
        assert!(v.max_abs_diff(&truth) < 1e-5);
    }

    #[test]
    fn scrub_repairs_storage_in_place() {
        let mut cache = filled_cache(16, 8);
        let truth = cache.read_k_raw(0, 0);
        let inj = SeuInjector::new(FaultSite::KvCache, OpCoord::new(0, 2, 3, 0), 12);
        cache.expose(&inj, 5);
        assert_eq!(inj.fired(), 0, "step 5 exposure needs k = 2*5");
        let inj = SeuInjector::new(FaultSite::KvCache, OpCoord::new(0, 2, 3, 10), 12);
        cache.expose(&inj, 5);
        assert_eq!(inj.fired(), 1);
        let rep = cache.scrub();
        assert_eq!((rep.detected, rep.corrected), (1, 1));
        assert_eq!(cache.read_k_raw(0, 0), truth, "scrub restores payload");
        assert!(cache.scrub().clean(), "second scrub finds nothing");
    }

    #[test]
    fn aliased_double_corruption_is_flagged_uncorrectable() {
        let mut cache = filled_cache(16, 16);
        // Two equal-delta corruptions in the same lane (rows 0 and 8 share
        // residue 0 at stride 8, same column): ratio (1Δ+2Δ)/2Δ = 1.5.
        let blk = cache.read_k_raw(0, 0);
        let d = 2.0f32;
        let mut k16 = blk.clone();
        k16.set(0, 4, blk.get(0, 4) + d);
        k16.set(8, 4, blk.get(8, 4) + d);
        cache.slots[0][0].k = k16.to_f16();
        let (_, rep) = cache.read_k_verified(0, 0);
        assert!(rep.detected >= 1);
        assert!(rep.uncorrectable >= 1, "{rep:?}");
    }

    #[test]
    fn append_over_unrepairable_corruption_stays_poisoned() {
        // Trailing ragged block of 12 rows (block 16, stride 8): rows 0 and
        // 8 share a checksum lane. Equal-delta corruption in both aliases
        // (ratio 1.5) is unlocatable; the next append re-encodes clean
        // checksums over the damage — the sticky counter must survive.
        let mut cache = filled_cache(12, 16);
        let mut k16 = cache.read_k_raw(0, 0);
        let d = 2.0f32;
        k16.set(0, 4, k16.get(0, 4) + d);
        k16.set(8, 4, k16.get(8, 4) + d);
        cache.slots[0][0].k = k16.to_f16();
        assert_eq!(cache.poisoned(), 0);
        let k = normal_tensor_f16(800, 1, 2, 1, 16, 0.6);
        let v = normal_tensor_f16(801, 1, 2, 1, 16, 0.8);
        let rep = cache.append(&k, &v);
        assert!(rep.uncorrectable >= 1, "{rep:?}");
        assert!(cache.poisoned() >= 1);
        // The re-encoded block now verifies clean (laundered)…
        let (_, rep) = cache.read_k_verified(0, 0);
        assert!(rep.clean(), "{rep:?}");
        // …but the sticky signal persists, and the protected decode path
        // re-surfaces it on every subsequent step's report.
        assert!(cache.poisoned() >= 1);
        let q = normal_tensor_f16(802, 1, 2, 1, 16, 0.6);
        let req = crate::decode::DecodeRequest::new(&cache, &q);
        let out = crate::decode::efta_decode(&req, &crate::efta::EftaOptions::optimized()).unwrap();
        assert!(out.report.cache_uncorrectable >= 1, "{:?}", out.report);
        assert!(
            !out.report.clean(),
            "poisoned cache must never report clean"
        );
    }

    #[test]
    fn expose_under_ber_corrupts_and_scrub_recovers_most() {
        let mut cache = filled_cache(32, 8);
        let inj = BerInjector::new(9, 2e-3).with_sites(&[FaultSite::KvCache]);
        cache.expose(&inj, 1);
        assert!(
            inj.fired() > 0,
            "BER exposure must fire on a 2k-element cache"
        );
        let rep = cache.scrub();
        assert!(rep.detected >= inj.fired() / 2);
        assert!(rep.corrected > 0);
    }

    #[test]
    fn evict_front_drops_whole_blocks_and_keeps_global_coordinates() {
        let mut cache = filled_cache(21, 8); // blocks of 8/8/5
        let keep_k = cache.read_k_raw(1, 1);
        let keep_cs = cache.k_checksums(1, 1).w1.clone();
        let full_bytes = cache.size_bytes();
        assert_eq!(cache.evict_front(1), 1);
        assert_eq!((cache.start(), cache.start_block()), (8, 1));
        assert_eq!((cache.len(), cache.resident_len()), (21, 13));
        assert_eq!((cache.num_blocks(), cache.resident_blocks()), (3, 2));
        assert_eq!(cache.block_rows(1), 8);
        assert_eq!(cache.block_rows(2), 5);
        // Block 1 is still block 1: payload and checksums untouched.
        assert_eq!(cache.read_k_raw(1, 1), keep_k);
        assert_eq!(cache.k_checksums(1, 1).w1, keep_cs);
        assert!(cache.size_bytes() < full_bytes);
        // The trailing block is never evicted, however large the request.
        assert_eq!(cache.evict_front(10), 1);
        assert_eq!(cache.resident_blocks(), 1);
        assert_eq!(cache.evict_front(1), 0);
        // Appends keep extending the logical sequence past eviction.
        let k = normal_tensor_f16(700, 1, 2, 1, 16, 0.6);
        let v = normal_tensor_f16(701, 1, 2, 1, 16, 0.8);
        assert!(cache.append(&k, &v).clean());
        assert_eq!((cache.len(), cache.resident_len()), (22, 6));
    }

    #[test]
    fn enforce_window_is_block_granular_and_minimal() {
        let mut cache = filled_cache(40, 8);
        // 40 resident, window 18: evict floor((40-18)/8) = 2 blocks.
        assert_eq!(cache.enforce_window(18), 2);
        assert_eq!(cache.resident_len(), 24);
        // Already within one block of the window: nothing more to do.
        assert_eq!(cache.enforce_window(18), 0);
        assert_eq!(cache.enforce_window(40), 0);
        // Shrinking the window evicts further, still whole blocks.
        assert_eq!(cache.enforce_window(8), 2);
        assert_eq!(cache.resident_len(), 8);
    }

    #[test]
    fn exposure_coordinates_are_stable_across_eviction() {
        // The same global-row SEU coordinate hits the same physical row
        // before and after eviction; the surviving block's checksums still
        // locate and correct it.
        let mut cache = filled_cache(24, 8);
        cache.evict_front(1);
        let truth = cache.read_k_raw(0, 1);
        let inj = SeuInjector::new(FaultSite::KvCache, OpCoord::new(0, 12, 5, 0), 13);
        cache.expose(&inj, 0);
        assert_eq!(inj.fired(), 1, "global row 12 is resident in block 1");
        let (k, rep) = cache.read_k_verified(0, 1);
        assert_eq!((rep.detected, rep.corrected, rep.uncorrectable), (1, 1, 0));
        assert!(k.max_abs_diff(&truth) < 1e-5);
        // A coordinate inside the evicted range no longer fires.
        let gone = SeuInjector::new(FaultSite::KvCache, OpCoord::new(0, 3, 5, 0), 13);
        cache.expose(&gone, 0);
        assert_eq!(gone.fired(), 0, "evicted rows expose no fault surface");
    }

    #[test]
    fn evicting_a_poisoned_block_retires_its_damage() {
        // Unrepairable damage laundered into block 0 by an append heal…
        let mut cache = filled_cache(12, 16);
        let mut k16 = cache.read_k_raw(0, 0);
        let d = 2.0f32;
        k16.set(0, 4, k16.get(0, 4) + d);
        k16.set(8, 4, k16.get(8, 4) + d);
        cache.slots[0][0].k = k16.to_f16();
        for t in 0..8 {
            cache.append(
                &normal_tensor_f16(820 + t, 1, 2, 1, 16, 0.6),
                &normal_tensor_f16(840 + t, 1, 2, 1, 16, 0.8),
            );
        }
        assert!(cache.poisoned() >= 1);
        // …is retired when the block leaves the resident window…
        assert_eq!(cache.evict_front(1), 1);
        assert_eq!(cache.poisoned(), 0, "poison travels with the block");
        // …and decode over the remaining window reports clean.
        let q = normal_tensor_f16(860, 1, 2, 1, 16, 0.6);
        let req = crate::decode::DecodeRequest::new(&cache, &q);
        let out = crate::decode::efta_decode(&req, &crate::efta::EftaOptions::optimized()).unwrap();
        assert!(out.report.clean(), "{:?}", out.report);
    }

    #[test]
    fn poisoned_attended_scopes_sticky_marks_to_the_window() {
        // Launder aliased damage into block 0 (16-row block, stride 8:
        // rows 0 and 8 share a lane), then grow the cache: the sticky mark
        // is visible to a full-history query, invisible once the sliding
        // window has moved past block 0, and retired by eviction.
        let mut cache = filled_cache(12, 16);
        let mut k16 = cache.read_k_raw(0, 0);
        let d = 2.0f32;
        k16.set(0, 4, k16.get(0, 4) + d);
        k16.set(8, 4, k16.get(8, 4) + d);
        cache.slots[0][0].k = k16.to_f16();
        for t in 0..24 {
            cache.append(
                &normal_tensor_f16(880 + t, 1, 2, 1, 16, 0.6),
                &normal_tensor_f16(910 + t, 1, 2, 1, 16, 0.8),
            );
        }
        assert!(cache.poisoned() >= 1, "append laundering must mark block 0");
        assert_eq!(cache.poisoned_attended(None), cache.poisoned());
        // len = 36; a 36-row window still reaches block 0…
        assert_eq!(cache.poisoned_attended(Some(36)), cache.poisoned());
        // …a 16-row window starts at block (36-16)/16 = 1: mark unseen.
        assert_eq!(cache.attended_start_block_at(36, Some(16)), 1);
        assert_eq!(cache.poisoned_attended(Some(16)), 0);
        // The EFTA decode report follows the same scoping.
        let q = normal_tensor_f16(950, 1, 2, 1, 16, 0.6);
        let opts = crate::efta::EftaOptions::optimized();
        let req = crate::decode::DecodeRequest::new(&cache, &q);
        let full = crate::decode::efta_decode(&req, &opts).unwrap();
        assert!(full.report.cache_uncorrectable >= 1, "{:?}", full.report);
        let windowed = crate::decode::efta_decode(&req.with_window(Some(16)), &opts).unwrap();
        assert!(windowed.report.clean(), "{:?}", windowed.report);
        // Eviction retires the mark entirely.
        assert_eq!(cache.evict_front(1), 1);
        assert_eq!(cache.poisoned(), 0);
        assert_eq!(cache.poisoned_attended(None), 0);
    }

    #[test]
    fn scrub_folds_unlocatable_damage_into_poisoned_exactly_once() {
        // Regression for the scrub/poisoned contract: aliased equal-delta
        // corruption (rows 0 and 8 share a stride-8 lane) is unlocatable;
        // the scrub must feed the sticky counter once — not zero times (the
        // old bug) and not once per scrub.
        let mut cache = filled_cache(16, 16);
        let blk = cache.read_k_raw(0, 0);
        let d = 2.0f32;
        let mut k16 = blk.clone();
        k16.set(0, 4, blk.get(0, 4) + d);
        k16.set(8, 4, blk.get(8, 4) + d);
        cache.slots[0][0].k = k16.to_f16();
        let rep = cache.scrub();
        assert!(rep.uncorrectable >= 1, "{rep:?}");
        let poisoned = cache.poisoned();
        assert!(poisoned >= 1, "scrub must feed the sticky counter");
        // Count once: the re-encode destroyed the checksum evidence, so a
        // second scrub finds nothing and the counter does not grow.
        assert!(cache.scrub().clean());
        assert_eq!(cache.poisoned(), poisoned);
        // Don't launder: scrub-then-decode still reports the damage.
        let q = normal_tensor_f16(870, 1, 2, 1, 16, 0.6);
        let req = crate::decode::DecodeRequest::new(&cache, &q);
        let out = crate::decode::efta_decode(&req, &crate::efta::EftaOptions::optimized()).unwrap();
        assert!(out.report.cache_uncorrectable >= 1, "{:?}", out.report);
        assert!(!out.report.clean());
    }

    #[test]
    fn non_finite_rows_verify_consistently_and_never_poison() {
        // Regression: an appended row containing Inf/NaN makes stored and
        // re-folded checksums both non-finite; the old finite-delta check
        // flagged a permanent false `detected + uncorrectable` on every
        // read, which the next append baked into `poisoned`.
        let mut cache = KvCache::new(1, 2, 16, 8, 8, 0.25);
        for t in 0..3 {
            let k = normal_tensor_f16(100 + t, 1, 2, 1, 16, 0.6);
            let v = normal_tensor_f16(200 + t, 1, 2, 1, 16, 0.8);
            assert!(cache.append(&k, &v).clean());
        }
        let bad_k = Tensor4F16::from_fn(1, 2, 1, 16, |_, h, _, c| {
            if h == 0 && c == 3 {
                ft_num::F16::from_f32(f32::INFINITY)
            } else if h == 1 && c == 7 {
                ft_num::F16::from_f32(f32::NAN)
            } else {
                ft_num::F16::from_f32(0.25)
            }
        });
        let v = normal_tensor_f16(300, 1, 2, 1, 16, 0.8);
        assert!(cache.append(&bad_k, &v).clean(), "non-finite row appends");
        let (_, rep) = cache.read_k_verified(0, 0);
        assert!(
            rep.clean(),
            "re-fold reproduces the stored NaN bits: {rep:?}"
        );
        let (_, rep) = cache.read_v_verified(1, 0);
        assert!(rep.clean(), "{rep:?}");
        // Further appends to the same ragged block re-verify it — still no
        // false alarms, and nothing lands in the sticky counter.
        for t in 0..3 {
            let k = normal_tensor_f16(400 + t, 1, 2, 1, 16, 0.6);
            let v = normal_tensor_f16(500 + t, 1, 2, 1, 16, 0.8);
            assert!(cache.append(&k, &v).clean());
        }
        assert_eq!(cache.poisoned(), 0);
        assert!(cache.scrub().clean());
        // A *real* corruption that flips the stored Inf to a finite value
        // is detected but honestly unlocatable (the delta ratio is
        // non-finite) — the consistent-verify fix must not hide true
        // damage involving non-finite state.
        let mut k16 = cache.slots[0][0].k.clone();
        k16.set(3, 3, ft_num::F16::from_f32(9.0)); // the appended Inf element
        cache.slots[0][0].k = k16;
        let (_, rep) = cache.read_k_verified(0, 0);
        assert!(rep.detected >= 1, "{rep:?}");
        assert!(rep.uncorrectable >= 1, "{rep:?}");
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn out_of_range_block_index_panics_in_release_too() {
        let cache = filled_cache(16, 8);
        let _ = cache.block_rows(2);
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn evicted_block_read_panics() {
        let mut cache = filled_cache(24, 8);
        cache.evict_front(2);
        let _ = cache.read_k_raw(0, 0);
    }

    #[test]
    fn noop_exposure_is_free_and_checksum_overhead_is_small() {
        let mut cache = filled_cache(64, 64);
        cache.expose(&NoFaults, 0);
        assert!(cache.scrub().clean());
        // At the paper's head dim (64) the FP32 metadata of stride-8
        // checksums stays a modest fraction of the FP16 payload.
        let mut cache = KvCache::new(1, 2, 64, 64, 8, 0.125);
        for t in 0..64 {
            let k = normal_tensor_f16(900 + t, 1, 2, 1, 64, 0.6);
            let v = normal_tensor_f16(990 + t, 1, 2, 1, 64, 0.8);
            cache.append(&k, &v);
        }
        let ratio = cache.checksum_bytes() as f64 / cache.size_bytes() as f64;
        assert!(ratio < 0.6, "checksum overhead ratio {ratio}");
    }

    #[test]
    fn truncate_to_is_bit_identical_to_a_never_extended_cache() {
        // 21 rows @ block 8 → blocks of 8, 8, 5. Truncating to 13 drops the
        // ragged tail block whole and re-encodes block 1 over 5 surviving
        // rows; everything must match a cache that only ever saw 13 rows.
        let mut cache = filled_cache(21, 8);
        let rep = cache.truncate_to(CacheMark::at(13));
        assert!(rep.clean(), "{rep:?}");
        assert_eq!(cache.len(), 13);
        assert_eq!(cache.num_blocks(), 2);
        assert_eq!(cache.block_rows(1), 5);
        assert_caches_identical(&cache, &filled_cache(13, 8));
        // Block-boundary mark: whole-block drop only, no re-encode path.
        let mut cache = filled_cache(21, 8);
        cache.truncate_to(CacheMark::at(8));
        assert_caches_identical(&cache, &filled_cache(8, 8));
        // Truncate-to-here is a no-op; truncate-to-zero empties the cache.
        let mut cache = filled_cache(21, 8);
        let mark = cache.checkpoint();
        cache.truncate_to(mark);
        assert_caches_identical(&cache, &filled_cache(21, 8));
        cache.truncate_to(CacheMark::at(0));
        assert!(cache.is_empty());
        assert_eq!(cache.num_blocks(), 0);
    }

    #[test]
    fn truncate_then_continue_matches_never_speculated_cache() {
        // Speculation shape: checkpoint, append provisional rows, roll
        // back, then append the real continuation — storage must be
        // bit-identical to a cache that never speculated.
        let mut cache = filled_cache(13, 8);
        let mark = cache.checkpoint();
        for t in 0..4 {
            append_token(&mut cache, 900 + t); // provisional rows
        }
        assert!(cache.truncate_to(mark).clean());
        for t in 13..18 {
            append_token(&mut cache, t); // committed continuation
        }
        assert_caches_identical(&cache, &filled_cache(18, 8));
    }

    #[test]
    fn rolled_back_rows_are_no_longer_a_fault_surface() {
        // An injector aimed at a global row inside the rolled-back range
        // must never fire again after truncation: the rows are gone, so a
        // campaign there leaves no trace in any subsequent report.
        let mut cache = filled_cache(21, 8);
        cache.truncate_to(CacheMark::at(13));
        let inj = SeuInjector::new(FaultSite::KvCache, OpCoord::new(0, 15, 3, 0), 13);
        cache.expose(&inj, 0);
        assert_eq!(inj.fired(), 0);
        assert!(cache.scrub().clean());
    }

    #[test]
    fn truncate_heals_boundary_damage_instead_of_baking_it_in() {
        // A correctable SEU in a surviving row of the boundary block: the
        // truncate-time verify repairs it before re-encoding, so the fresh
        // checksums cover clean data.
        let mut cache = filled_cache(21, 8);
        let inj = SeuInjector::new(FaultSite::KvCache, OpCoord::new(0, 12, 5, 0), 13);
        cache.expose(&inj, 0);
        assert_eq!(inj.fired(), 1);
        let rep = cache.truncate_to(CacheMark::at(13));
        assert_eq!((rep.detected, rep.corrected, rep.uncorrectable), (1, 1, 0));
        assert_caches_identical(&cache, &filled_cache(13, 8));
        assert_eq!(cache.poisoned(), 0);
    }

    #[test]
    fn poison_mark_survives_partial_truncation_and_retires_with_whole_block_drop() {
        // Aliased damage in rows 0 and 8 of a 12-row ragged block (block
        // 16, stride 8) is unlocatable; the next append launders it into
        // the block's sticky mark. Rolling the tail back *within* the
        // block keeps damaged rows resident, so the mark must survive —
        // while truncating the whole block away retires the mark with it
        // (satellite regression for the attended-boundary audit).
        let mut cache = filled_cache(12, 16);
        let mut k16 = cache.read_k_raw(0, 0);
        let d = 2.0f32;
        k16.set(0, 4, k16.get(0, 4) + d);
        k16.set(8, 4, k16.get(8, 4) + d);
        cache.slots[0][0].k = k16.to_f16();
        append_token(&mut cache, 12); // launder: poison lands on block 0
        assert!(cache.poisoned() >= 1);
        let poisoned = cache.poisoned();

        // Partial truncation (13 → 10 rows): damaged rows 0 and 8 survive.
        let mut partial = cache.clone();
        partial.truncate_to(CacheMark::at(10));
        assert_eq!(
            partial.poisoned(),
            poisoned,
            "mark must survive surviving rows"
        );
        assert_eq!(partial.poisoned_attended(None), poisoned);
        // The attended scope still sees the mark at the new, shorter
        // length (truncation must not desynchronise the boundary math).
        assert_eq!(partial.attended_start_block_at(partial.len(), Some(8)), 0);
        assert_eq!(partial.poisoned_attended(Some(8)), poisoned);

        // Whole-block drop (→ 0 rows): the mark retires with its block.
        let mut dropped = cache.clone();
        dropped.truncate_to(CacheMark::at(0));
        assert_eq!(dropped.poisoned(), 0, "mark retires with its block");
    }

    #[test]
    fn first_poisoned_attended_block_locates_the_rollback_target() {
        // Poison block 0 (rows 0..16), then grow to 40 rows (blocks 0, 1,
        // 2 with a ragged 8-row tail).
        let mut cache = filled_cache(12, 16);
        let mut k16 = cache.read_k_raw(0, 0);
        let d = 2.0f32;
        k16.set(0, 4, k16.get(0, 4) + d);
        k16.set(8, 4, k16.get(8, 4) + d);
        cache.slots[0][0].k = k16.to_f16();
        for t in 12..40 {
            append_token(&mut cache, t);
        }
        assert!(cache.poisoned() >= 1);
        assert_eq!(cache.first_poisoned_attended_block(None), Some(0));
        // A window of 8 over 40 rows attends from block (40−8)/16 = 2:
        // the damage has slid behind the window, so there is no target.
        assert_eq!(cache.first_poisoned_attended_block(Some(8)), None);
        // A window of 32 attends from block (40−32)/16 = 0: visible again.
        assert_eq!(cache.first_poisoned_attended_block(Some(32)), Some(0));
    }

    #[test]
    #[should_panic(expected = "behind the eviction frontier")]
    fn truncating_to_an_evicted_mark_panics() {
        let mut cache = filled_cache(32, 8);
        let mark = CacheMark::at(8);
        cache.evict_front(2); // start = 16: rows 0..16 are gone
        cache.truncate_to(mark);
    }

    #[test]
    #[should_panic(expected = "cannot truncate forward")]
    fn truncating_forward_panics() {
        let mut cache = filled_cache(8, 8);
        cache.truncate_to(CacheMark::at(9));
    }

    #[test]
    fn cache_state_is_send() {
        // Fleet workers own their caches on shard threads, and migration
        // rebuilds (never ships) them — but the owning session must still
        // cross a thread boundary at spawn. Compile-time pin.
        fn assert_send<T: Send>() {}
        assert_send::<KvCache>();
        assert_send::<CacheMark>();
        assert_send::<KvReadReport>();
    }
}

#[cfg(test)]
mod protect_tests {
    use super::*;
    use crate::protect::ProtectionLevel;
    use ft_num::rng::normal_tensor_f16;
    use ft_sim::{OpCoord, SeuInjector};
    use proptest::prelude::*;

    fn token(t: usize) -> (Tensor4F16, Tensor4F16) {
        (
            normal_tensor_f16(100 + t as u64, 1, 2, 1, 16, 0.6),
            normal_tensor_f16(500 + t as u64, 1, 2, 1, 16, 0.8),
        )
    }

    fn filled_level(tokens: usize, block: usize, level: ProtectionLevel) -> KvCache {
        let mut cache = KvCache::new(1, 2, 16, block, 8, 0.25).with_protection(level);
        for t in 0..tokens {
            let (k, v) = token(t);
            cache.append(&k, &v);
        }
        cache
    }

    /// `to_bits` comparison of everything two blocks store: payload, both
    /// operands, stride and group count of both families, max-norm, poison.
    fn assert_blocks_same_bits(a: &KvBlock, b: &KvBlock, what: &str) {
        let payload = |m: &MatrixF16| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            (a.k.shape(), payload(&a.k)),
            (b.k.shape(), payload(&b.k)),
            "K {what}"
        );
        assert_eq!(
            (a.v.shape(), payload(&a.v)),
            (b.v.shape(), payload(&b.v)),
            "V {what}"
        );
        for (x, y, family) in [(&a.k_cs, &b.k_cs, "K"), (&a.v_cs, &b.v_cs, "V")] {
            assert_eq!(
                (x.stride, x.groups, x.w1.shape(), x.w2.shape()),
                (y.stride, y.groups, y.w1.shape(), y.w2.shape()),
                "{family} fold geometry {what}",
            );
            assert!(same_bits(x, y), "{family} operands {what}: {x:?} vs {y:?}");
        }
        assert_eq!(
            a.k_max_norm.to_bits(),
            b.k_max_norm.to_bits(),
            "max-norm {what}"
        );
        assert_eq!(a.poisoned, b.poisoned, "poison mark {what}");
    }

    fn assert_caches_same_bits(a: &KvCache, b: &KvCache) {
        assert_eq!((a.len(), a.start()), (b.len(), b.start()));
        for (slot, (xs, ys)) in a.slots.iter().zip(&b.slots).enumerate() {
            assert_eq!(xs.len(), ys.len(), "resident blocks of slot {slot}");
            for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
                assert_blocks_same_bits(x, y, &format!("slot {slot} block {i} at len {}", a.len()));
            }
        }
    }

    /// Every resident block stores what the from-scratch encoder computes
    /// from its payload.
    fn assert_matches_oracle(cache: &KvCache) {
        for (i, blk) in cache.slots.iter().flatten().enumerate() {
            let oracle = KvBlock::encode(&blk.k, &blk.v, cache.stride, blk.poisoned);
            assert_blocks_same_bits(blk, &oracle, &format!("block {i} at len {}", cache.len()));
        }
    }

    #[test]
    fn lazy_append_matches_full_bit_for_bit() {
        // The incremental fold must replay the from-scratch encoder's
        // accumulation order exactly, at every length: sub-stride blocks
        // (8), two whole groups (16), a ragged last group (24) and the
        // paper's 64-row tile, all at stride 8. After every append `Full`
        // and `Lazy` store the same bits, and those are the oracle's.
        for block in [8, 16, 24, 64] {
            let mut full = KvCache::new(1, 2, 16, block, 8, 0.25);
            let mut lazy = full.clone().with_protection(ProtectionLevel::Lazy);
            for t in 0..2 * block + 5 {
                let (k, v) = token(t);
                assert!(full.append(&k, &v).clean() && lazy.append(&k, &v).clean());
                assert_caches_same_bits(&full, &lazy);
                assert_matches_oracle(&lazy);
            }
            assert_eq!(full.checksum_bytes(), lazy.checksum_bytes());
        }
    }

    #[test]
    fn negative_zero_elements_fold_like_the_encoder() {
        // `F16::from_f32` rounds any tiny negative activation to -0.0. The
        // encoder's accumulators start from zero, so it stores
        // `0.0 + -0.0 = +0.0`; a fold that *copies* the row into a fresh
        // lane stores the sign bit instead. Rows 0 (opens the block), 1
        // (opens a lane) and `stride` (first add into a lane) carry one.
        let caches = [ProtectionLevel::Full, ProtectionLevel::Lazy].map(|level| {
            let mut cache = KvCache::new(1, 2, 16, 16, 8, 0.25).with_protection(level);
            for t in 0..12 {
                let (mut k, mut v) = token(t);
                if [0, 1, 8].contains(&t) {
                    for m in k.slots_mut().iter_mut().chain(v.slots_mut()) {
                        m.set(0, 3, F16::from_f32(-0.0));
                    }
                }
                cache.append(&k, &v);
                assert_matches_oracle(&cache);
                if t == 1 {
                    let lanes = cache.k_checksums(0, 0);
                    assert_eq!(lanes.w1.get(1, 3).to_bits(), 0, "{level}: w1 of row 1");
                    assert_eq!(lanes.w2.get(1, 3).to_bits(), 0, "{level}: w2 of row 1");
                }
            }
            cache
        });
        assert_caches_same_bits(&caches[0], &caches[1]);
    }

    /// Adds 2.0 to `K[0][4]` and `K[8][4]` of slot 0: equal deltas in two
    /// groups of one stride-8 lane (ratio 1.5) — detectable, unlocatable.
    struct AliasedPair;

    impl FaultInjector for AliasedPair {
        fn corrupt_f32(&self, _: FaultSite, _: OpCoord, value: f32) -> f32 {
            value
        }
        fn corrupt_f16(&self, _: FaultSite, at: OpCoord, value: F16) -> F16 {
            if (at.slot, at.j, at.k) == (0, 4, 0) && (at.i == 0 || at.i == 8) {
                F16::from_f32(value.to_f32() + 2.0)
            } else {
                value
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// One c-row append is c one-row appends, also over a ragged
        /// trailing block that `expose` hit first: the damage is read
        /// once, before the first new row, either way — same summed
        /// report, same stored bits, same poison.
        #[test]
        fn chunk_append_equals_row_appends_over_an_exposed_ragged_block(
            block in prop::sample::select(vec![16usize, 24]),
            base in 9usize..16,
            c in 1usize..20,
            approximate in prop::bool::ANY,
            aliased in prop::bool::ANY,
        ) {
            let level = if approximate {
                ProtectionLevel::Approximate { tol: 0.05 }
            } else {
                ProtectionLevel::Full
            };
            let mut chunked = filled_level(base, block, level);
            if aliased {
                chunked.expose(&AliasedPair, 0);
            } else {
                let seu = SeuInjector::new(FaultSite::KvCache, OpCoord::new(1, 5, 2, 1), 13);
                chunked.expose(&seu, 0);
                prop_assert_eq!(seu.fired(), 1);
            }
            let mut by_row = chunked.clone();

            let k = normal_tensor_f16(900, 1, 2, c, 16, 0.6);
            let v = normal_tensor_f16(901, 1, 2, c, 16, 0.8);
            let chunk_report = chunked.append(&k, &v);
            let mut row_report = KvReadReport::default();
            for r in 0..c {
                let row = |t: &Tensor4F16| {
                    Tensor4F16::from_fn(1, 2, 1, 16, |_, h, _, col| t.slot(0, h).get(r, col))
                };
                row_report = row_report.merged(&by_row.append(&row(&k), &row(&v)));
            }

            prop_assert_eq!(chunk_report, row_report);
            assert_caches_same_bits(&chunked, &by_row);
            assert_matches_oracle(&chunked);
            if aliased {
                prop_assert!(chunk_report.uncorrectable >= 1, "{:?}", chunk_report);
                prop_assert!(chunked.poisoned() >= 1, "an unlocatable pair must poison");
            } else {
                prop_assert_eq!(
                    (chunk_report.detected, chunk_report.corrected, chunk_report.uncorrectable),
                    (1, 1, 0)
                );
                prop_assert_eq!(chunked.poisoned(), 0);
            }
        }
    }

    #[test]
    fn lazy_defers_ragged_heal_to_read() {
        // Corrupt the still-filling block, then append one row: Full heals
        // at append time (dirty heal report, clean subsequent read); Lazy
        // appends without reading the payload back, so the damage stays
        // detectable and is caught at the next verified read instead —
        // deferred, not laundered.
        for level in [ProtectionLevel::Full, ProtectionLevel::Lazy] {
            let mut cache = filled_level(5, 8, level);
            let inj = SeuInjector::new(FaultSite::KvCache, OpCoord::new(0, 3, 2, 0), 13);
            cache.expose(&inj, 0);
            assert_eq!(inj.fired(), 1);
            let k = normal_tensor_f16(900, 1, 2, 1, 16, 0.6);
            let v = normal_tensor_f16(901, 1, 2, 1, 16, 0.8);
            let heal = cache.append(&k, &v);
            let (_, read) = cache.read_k_verified(0, 0);
            if level == ProtectionLevel::Full {
                assert_eq!((heal.detected, heal.corrected), (1, 1), "heal at append");
                assert!(read.clean(), "healed before the re-encode");
            } else {
                assert!(heal.clean(), "lazy skips the append-time heal");
                assert_eq!((read.detected, read.corrected), (1, 1), "caught on read");
            }
        }
    }

    #[test]
    fn approximate_tolerates_small_residuals_and_escalates_large() {
        let mut cache = filled_level(8, 8, ProtectionLevel::Approximate { tol: 0.05 });
        // Within tolerance: counted as tolerated, not detected, left as is.
        let mut k16 = cache.read_k_raw(0, 0);
        k16.set(2, 3, k16.get(2, 3) + 0.01);
        cache.slots[0][0].k = k16.to_f16();
        let (payload, rep) = cache.read_k_verified(0, 0);
        assert_eq!((rep.detected, rep.corrected, rep.uncorrectable), (0, 0, 0));
        assert_eq!(rep.tolerated, 1);
        assert!(rep.clean(), "tolerated residuals do not dirty the report");
        assert_eq!(
            payload,
            cache.read_k_raw(0, 0),
            "tolerated residual left uncorrected"
        );
        // Above tolerance: the normal locate/correct path fires.
        let mut k16 = cache.read_k_raw(0, 0);
        k16.set(5, 3, k16.get(5, 3) + 1.0);
        cache.slots[0][0].k = k16.to_f16();
        let (_, rep) = cache.read_k_verified(0, 0);
        assert_eq!((rep.detected, rep.corrected), (1, 1));
        assert_eq!(rep.tolerated, 1, "the small residual is still tolerated");
        assert_eq!(cache.poisoned(), 0);
    }

    #[test]
    fn raw_stores_no_metadata_and_never_flags() {
        let mut cache = filled_level(21, 8, ProtectionLevel::Raw);
        assert_eq!(cache.checksum_bytes(), 0);
        let bd = cache.size_breakdown();
        assert_eq!(bd.metadata_bytes(), 0);
        assert_eq!(bd.payload_bytes, cache.size_bytes());
        // Corruption flows through unflagged: raw-equal verified reads,
        // no-op scrub, no poison — and no recovery trigger ever.
        let inj = SeuInjector::new(FaultSite::KvCache, OpCoord::new(0, 3, 2, 0), 13);
        cache.expose(&inj, 0);
        assert_eq!(inj.fired(), 1, "the payload is still a fault surface");
        let (k, rep) = cache.read_k_verified(0, 0);
        assert!(rep.clean() && rep.tolerated == 0);
        assert_eq!(k, cache.read_k_raw(0, 0));
        assert!(cache.scrub().clean());
        assert_eq!(cache.poisoned(), 0);
        assert_eq!(cache.poisoned_attended(None), 0);
        // Ragged rollback and re-append keep working without metadata.
        assert!(cache.truncate_to(CacheMark::at(18)).clean());
        assert_eq!((cache.len(), cache.read_k_raw(0, 2).rows()), (18, 2));
        let k = normal_tensor_f16(950, 1, 2, 1, 16, 0.6);
        let v = normal_tensor_f16(951, 1, 2, 1, 16, 0.8);
        assert!(cache.append(&k, &v).clean());
        assert_eq!((cache.len(), cache.checksum_bytes()), (19, 0));
    }

    #[test]
    fn metadata_bytes_order_across_the_lattice() {
        // The campaign's structural overhead assert: Raw < Lazy/Approx ≤
        // Full (Lazy and Approximate carry Full's exact metadata).
        let full = filled_level(21, 8, ProtectionLevel::Full).size_breakdown();
        let lazy = filled_level(21, 8, ProtectionLevel::Lazy).size_breakdown();
        let approx =
            filled_level(21, 8, ProtectionLevel::Approximate { tol: 0.01 }).size_breakdown();
        let raw = filled_level(21, 8, ProtectionLevel::Raw).size_breakdown();
        assert_eq!(full.payload_bytes, raw.payload_bytes);
        assert_eq!(lazy.metadata_bytes(), full.metadata_bytes());
        assert_eq!(approx.metadata_bytes(), full.metadata_bytes());
        assert_eq!(raw.metadata_bytes(), 0);
        assert!(raw.metadata_bytes() < lazy.metadata_bytes());
        assert!(full.metadata_bytes() > 0);
        assert_eq!(
            full.total_bytes(),
            full.payload_bytes + full.metadata_bytes()
        );
        // Max-norm snapshots: one f32 per resident block per slot.
        assert_eq!(full.max_norm_bytes, 4 * 3 * 2);
    }

    #[test]
    fn protection_level_is_creation_time_only() {
        let mut cache = KvCache::new(1, 2, 16, 8, 8, 0.25);
        cache.set_protection(ProtectionLevel::Lazy);
        assert_eq!(cache.protection(), ProtectionLevel::Lazy);
        let k = normal_tensor_f16(1000, 1, 2, 1, 16, 0.6);
        let v = normal_tensor_f16(1001, 1, 2, 1, 16, 0.8);
        cache.append(&k, &v);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.set_protection(ProtectionLevel::Raw)
        }));
        assert!(result.is_err(), "level flips on a non-empty cache are bugs");
    }
}

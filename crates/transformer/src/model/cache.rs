//! One stream's whole mutable decode state: a checksummed [`KvCache`] per
//! transformer block plus the number of positions fed, with the
//! cross-layer queries the serving session's poison trigger and recovery
//! actions read (poisoned blocks, the partial rollback target,
//! checkpoint / truncate).

use crate::mha::KvCache;
use ft_core::kv::{CacheMark, KvReadReport, SizeBreakdown};
use ft_core::protect::ProtectionLevel;

/// Per-layer KV caches plus the number of token positions fed so far — the
/// whole mutable state of one decode stream.
#[derive(Clone, Debug)]
pub struct ModelKvCache {
    /// One checksummed [`KvCache`] per transformer block.
    pub layers: Vec<KvCache>,
    /// Tokens decoded into the caches so far (the next token's position).
    pub positions: usize,
}

impl ModelKvCache {
    /// Tokens fed so far.
    pub fn positions(&self) -> usize {
        self.positions
    }

    /// Total FP16 payload bytes across layers.
    pub fn size_bytes(&self) -> u64 {
        self.layers.iter().map(KvCache::size_bytes).sum()
    }

    /// Total FP32 checksum-metadata bytes across layers.
    pub fn checksum_bytes(&self) -> u64 {
        self.layers.iter().map(KvCache::checksum_bytes).sum()
    }

    /// Byte footprint split into payload vs protection metadata, summed
    /// across layers (see [`KvCache::size_breakdown`]).
    pub fn size_breakdown(&self) -> SizeBreakdown {
        self.layers
            .iter()
            .map(KvCache::size_breakdown)
            .fold(SizeBreakdown::default(), |acc, b| acc.merged(&b))
    }

    /// The graded protection level this stream's caches were created at
    /// (every layer shares it — see
    /// [`TransformerModel::new_cache_with`](super::TransformerModel::new_cache_with)).
    pub fn protection(&self) -> ProtectionLevel {
        self.layers
            .first()
            .map(|c| c.protection())
            .unwrap_or_default()
    }

    /// Sticky unrepairable-damage count across layers (see
    /// [`KvCache::poisoned`]): non-zero means this stream's cached state is
    /// permanently wrong and the only recovery is a fresh prefill. Works
    /// for every backend, including the unprotected decode paths that
    /// never report cache events.
    pub fn poisoned(&self) -> u64 {
        self.layers.iter().map(KvCache::poisoned).sum()
    }

    /// Sticky unrepairable-damage count restricted, per layer, to the
    /// blocks a decode step at the current length would attend under
    /// `window` (see [`KvCache::poisoned_attended`]) — the serving
    /// engine's re-prefill trigger: damage that slid behind the attention
    /// window can no longer reach a future token and must not trigger
    /// recovery (it is retired outright once eviction drops its block).
    /// Like [`poisoned`](ModelKvCache::poisoned), works for every backend.
    pub fn poisoned_attended(&self, window: Option<usize>) -> u64 {
        self.layers
            .iter()
            .map(|c| c.poisoned_attended(window))
            .sum()
    }

    /// Checkpoint the current length for a later
    /// [`truncate_to`](ModelKvCache::truncate_to) — every layer shares the
    /// same logical length, so one [`CacheMark`] covers them all.
    pub fn checkpoint(&self) -> CacheMark {
        CacheMark::at(self.positions)
    }

    /// Roll every layer's cache back to `mark` (see
    /// [`KvCache::truncate_to`]) and rewind `positions` to match. The
    /// merged boundary-heal report is returned for callers that audit it;
    /// the serving engine discards it — correction evidence was already
    /// counted when the rows were read, and anything unlocatable is
    /// carried by the surviving blocks' sticky poison marks.
    pub fn truncate_to(&mut self, mark: CacheMark) -> KvReadReport {
        let mut report = KvReadReport::default();
        for c in &mut self.layers {
            report = report.merged(&c.truncate_to(mark));
        }
        self.positions = mark.position();
        report
    }

    /// Earliest attended block carrying a sticky poison mark in *any*
    /// layer (see [`KvCache::first_poisoned_attended_block`]) — the
    /// damage-localization query behind
    /// [`RecoveryPolicy::ReprefillPartial`](ft_core::serve::RecoveryPolicy::ReprefillPartial).
    /// Layers share geometry, length, and eviction schedule, so block
    /// indices are comparable across them.
    pub fn first_poisoned_attended_block(&self, window: Option<usize>) -> Option<usize> {
        self.layers
            .iter()
            .filter_map(|c| c.first_poisoned_attended_block(window))
            .min()
    }

    /// Partial-recovery rollback target: the row count `p` to
    /// [`truncate_to`](ModelKvCache::truncate_to) so that the first
    /// poisoned attended block is dropped and re-prefilling rows
    /// `p..` rebuilds a provably clean suffix. `upper` bounds the target
    /// at the last row the caller can re-feed (the emitted history's
    /// final row — anything past it is provisional speculation state).
    ///
    /// Returns `None` — fall back to a full re-prefill — when any of the
    /// viability conditions fail:
    /// * no layer localizes the damage to a block (live uncorrectable
    ///   reads without a sticky mark cannot be rolled back surgically),
    /// * the target would keep nothing (the poisoned block is the first
    ///   attended block, or sits at the eviction frontier),
    /// * the first re-fed row's attention window reaches behind the
    ///   eviction frontier (the rows it must attend no longer exist), or
    /// * a block the rebuilt suffix will attend is itself poisoned
    ///   (partial recovery would re-trigger forever on the same mark).
    pub fn rollback_target(&self, window: Option<usize>, upper: usize) -> Option<usize> {
        let lc = self.layers.first()?;
        let (block, start) = (lc.block(), lc.start());
        let fpb = self.first_poisoned_attended_block(window)?;
        let p = (fpb * block).min(upper);
        if p == 0 || p <= start {
            return None;
        }
        // First re-fed row (position p, visible length p + 1): every row
        // it attends must still be resident after the truncation.
        let r0 = match window {
            Some(w) if p + 1 > w => p + 1 - w,
            _ => 0,
        };
        if r0 < start {
            return None;
        }
        // Every block any re-fed row can attend must be clean — windows
        // only move forward, so length p + 1 attends the earliest set.
        let kept = p.div_ceil(block);
        if (r0 / block..kept).any(|b| self.layers.iter().any(|c| c.block_poisoned(b) > 0)) {
            return None;
        }
        Some(p)
    }
}

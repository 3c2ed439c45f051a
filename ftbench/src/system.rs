//! The system under test: model `bench-d64` in its two arms, the fleet
//! configuration, and the host facts every record carries.

use ft_core::efta::EftaOptions;
use ft_transformer::{
    BackendKind, FleetConfig, GenerationRequest, LinearProtection, ModelConfig, ProtectionLevel,
    TransformerModel,
};
use std::thread;

/// Weight seed of `bench-d64`. Fixed: `--seed` varies the inputs, never the
/// model, so runs with different seeds time the same arithmetic.
pub const WEIGHT_SEED: u64 = 11;

/// Head-dim 64 — the paper's medium setting, not the head-dim-8 shape of
/// the older benches — small enough that a request takes milliseconds.
pub fn bench_config() -> ModelConfig {
    ModelConfig {
        name: "bench-d64",
        layers: 2,
        heads: 4,
        hidden: 256,
        ffn_dim: 1024,
        vocab: 8192,
        max_seq: 1024,
    }
}

/// Which of the two arms a run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arm {
    /// `Efta(optimized)` attention, ABFT linears, `ProtectionLevel::Full`.
    Protected,
    /// `Flash` attention, plain linears, `ProtectionLevel::Raw`.
    Unprotected,
}

impl Arm {
    /// The arm's request-level half: the cache protection level.
    pub fn request(self, req: GenerationRequest) -> GenerationRequest {
        match self {
            Arm::Protected => req.with_protection(ProtectionLevel::Full),
            Arm::Unprotected => req.with_protection(ProtectionLevel::Raw),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Arm::Protected => "protected",
            Arm::Unprotected => "unprotected",
        }
    }
}

/// Both arms over the same weights.
pub struct Arms {
    pub protected: TransformerModel,
    pub unprotected: TransformerModel,
}

impl Arms {
    pub fn model(&self, arm: Arm) -> &TransformerModel {
        match arm {
            Arm::Protected => &self.protected,
            Arm::Unprotected => &self.unprotected,
        }
    }
}

/// Build `bench-d64` (seeded weights, causal) and derive the unprotected
/// arm from it: same weights, `Flash` kernel, every linear's ABFT off.
/// `cache_block` overrides the 64-row KV block where a workload needs
/// finer-grained damage localisation.
pub fn build_arms(cache_block: Option<usize>) -> Arms {
    let mut protected = TransformerModel::random(
        WEIGHT_SEED,
        bench_config(),
        BackendKind::Efta(EftaOptions::optimized()),
    )
    .with_causal(true);
    if let Some(b) = cache_block {
        protected = protected.with_cache_block(b);
    }
    let mut unprotected = protected.clone();
    for blk in &mut unprotected.blocks {
        blk.mha.kernel = BackendKind::Flash;
        for lin in [
            &mut blk.mha.wq,
            &mut blk.mha.wk,
            &mut blk.mha.wv,
            &mut blk.mha.wo,
            &mut blk.ffn.up,
            &mut blk.ffn.down,
        ] {
            lin.protection = LinearProtection::None;
        }
    }
    unprotected.lm_head.protection = LinearProtection::None;
    Arms {
        protected,
        unprotected,
    }
}

pub fn nproc() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Fleet shards: one per core up to four. More shards than that only
/// shrink each shard's batch at this model size.
pub fn workers() -> usize {
    nproc().min(4)
}

/// `FleetConfig::default()` with the benchmark's worker count; a workload
/// overrides further fields only where its README row says so.
pub fn fleet_config() -> FleetConfig {
    FleetConfig {
        workers: workers(),
        ..FleetConfig::default()
    }
}

/// Commit of the checkout, read from `.git` without spawning a process;
/// `"unknown"` outside a git checkout (the driver's is one).
pub fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `rustc --version` of the toolchain on `PATH` (the one cargo just built
/// this binary with); `"unknown"` when it cannot be run.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

//! Figure 15 — EFTA inside whole transformer models: GPT-2, BERT-Base,
//! BERT-Large, T5-Small at input length 512.
//!
//! Three arms per model:
//! * original inference (flash attention, no protection anywhere);
//! * fault detection (EFTA + ABFT projections, no faults injected);
//! * fault correction (same, with one SEU injected per attention call —
//!   the paper's "single bit flip for each attention computation").
//!
//! Paper: detection averages 4.7% overhead, correction 9.1%.

use ft_bench::{banner, ms, pct, HarnessArgs, TextTable};
use ft_core::efta::EftaOptions;
use ft_sim::{FaultSite, NoFaults, OpCoord, SeuInjector};
use ft_transformer::{BackendKind, LinearProtection, ModelConfig, TransformerModel};

fn build(seed: u64, cfg: ModelConfig, protected: bool) -> TransformerModel {
    let kernel = if protected {
        BackendKind::Efta(EftaOptions::optimized())
    } else {
        BackendKind::Flash
    };
    let mut model = TransformerModel::random(seed, cfg, kernel);
    if !protected {
        for b in &mut model.blocks {
            b.mha.wq.protection = LinearProtection::None;
            b.mha.wk.protection = LinearProtection::None;
            b.mha.wv.protection = LinearProtection::None;
            b.mha.wo.protection = LinearProtection::None;
            b.ffn.up.protection = LinearProtection::None;
            b.ffn.down.protection = LinearProtection::None;
        }
    }
    model
}

fn main() {
    let args = HarnessArgs::parse();
    banner(
        "Figure 15: EFTA on Transformer models (input length 512)",
        &args,
    );

    // Default scale shrinks seq and layer count while keeping head
    // structure; --full runs the paper's exact shapes.
    let seq = ((512.0 * args.scale.max(0.25)) as usize).max(64);
    let mut table = TextTable::new(&[
        "model",
        "original (ms)",
        "detect (ms)",
        "detect ovh",
        "correct (ms)",
        "correct ovh",
        "repairs",
    ]);
    let mut det_sum = 0.0;
    let mut corr_sum = 0.0;
    for cfg in ModelConfig::paper_models() {
        let cfg = if args.full {
            cfg
        } else {
            let layers = (cfg.layers / 4).max(2);
            cfg.scaled(cfg.hidden / 2, layers)
        };
        let tokens: Vec<u32> = (0..seq as u32).map(|i| i * 7 % cfg.vocab as u32).collect();

        let baseline = build(args.seed, cfg, false);
        let protected = build(args.seed, cfg, true);

        let (_, t_orig) = ft_bench::time_best(2, || baseline.forward_hidden(&tokens, &NoFaults));
        let (_, t_detect) = ft_bench::time_best(2, || protected.forward_hidden(&tokens, &NoFaults));
        // One SEU per attention computation: all layers share slot-local
        // fault coordinates, so a single targeted SEU fires once per
        // attention call (per layer).
        let inj =
            SeuInjector::new(FaultSite::GemmIAccum, OpCoord::new(0, 3, 5, 0), 30).at_chain_step(10);
        let ((_, rep), t_correct) =
            ft_bench::time_best(2, || protected.forward_hidden(&tokens, &inj));

        let det_ovh = (t_detect - t_orig).max(0.0) / t_orig;
        let corr_ovh = (t_correct - t_orig).max(0.0) / t_orig;
        det_sum += det_ovh;
        corr_sum += corr_ovh;
        table.row(&[
            cfg.name.to_string(),
            ms(t_orig),
            ms(t_detect),
            pct(det_ovh),
            ms(t_correct),
            pct(corr_ovh),
            rep.total_repaired().to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "averages: detect {} correct {} — paper: 4.7% / 9.1%",
        pct(det_sum / 4.0),
        pct(corr_sum / 4.0)
    );
}

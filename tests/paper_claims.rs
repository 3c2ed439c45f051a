//! The paper's deterministic claims at smoke size, asserted through the
//! same `ft_bench::paper` functions the `paper` binary prints. Wall-clock
//! orderings stay in the binary, where their spread is printed beside them.

use ft_bench::paper::{
    coverage, decoupled_ooms, gemm_arms, restriction, sim_decoupled, sim_efta, softmax_arms,
    SETTINGS,
};
use ft_bench::{HarnessArgs, PAPER_LABELS};
use ft_core::efta::EftaOptions;
use ft_core::AttentionConfig;

/// Every point of the attention sweep as (setting, paper label, paper-size
/// config): the configs the simulated-A100 cells are priced at.
fn full_points() -> Vec<(&'static str, &'static str, AttentionConfig)> {
    let args = HarnessArgs::smoke();
    let mut points = Vec::new();
    for (setting, cfg) in SETTINGS {
        for (idx, seq) in args.sweep_seqs().into_iter().enumerate() {
            let full = args.full_cfg(&cfg(&args, seq), idx);
            points.push((setting, PAPER_LABELS[idx], full));
        }
    }
    points
}

#[test]
fn fig12_tensor_checksum_covers_more_than_element_checksum() {
    let rows = coverage(&HarnessArgs::smoke());
    assert_eq!(rows.len(), 3);
    for (ber, tensor, element) in rows {
        assert!(tensor.injected > 0, "BER {ber:e} injected no faults");
        assert!(
            tensor.coverage() > element.coverage(),
            "BER {ber:e}: tensor {} vs element {}",
            tensor.coverage(),
            element.coverage()
        );
    }
}

#[test]
fn fig14_selective_restriction_keeps_more_rows_within_0_02() {
    let cmp = restriction(&HarnessArgs::smoke());
    let selective = cmp.selective.fraction_within(0.02);
    let traditional = cmp.traditional.fraction_within(0.02);
    assert!(selective > traditional, "{selective} vs {traditional}");
}

#[test]
fn simulated_a100_orderings_hold_at_paper_size() {
    let [_, traditional, strided] = gemm_arms();
    let [_, dmr, snvr] = softmax_arms();
    let points = full_points();
    assert_eq!(points.len(), 12);
    for (setting, label, full) in points {
        let sim = |opts: &EftaOptions| sim_efta(&full, opts);
        let efta_o = sim(&EftaOptions::optimized());
        let at = format!("{setting} at {label}");
        assert!(
            efta_o < sim_decoupled(&full),
            "{at}: EFTA-o vs decoupled FT"
        );
        assert!(
            sim(&strided) < sim(&traditional),
            "{at}: strided vs traditional"
        );
        assert!(sim(&snvr) < sim(&dmr), "{at}: SNVR vs DMR");
        assert!(
            efta_o < sim(&EftaOptions::per_step()),
            "{at}: EFTA-o vs EFTA"
        );
    }
}

#[test]
fn fig09_decoupled_ooms_only_at_large_16k() {
    let ooms: Vec<_> = full_points()
        .into_iter()
        .filter(|(_, _, full)| decoupled_ooms(full))
        .map(|(setting, label, _)| (setting, label))
        .collect();
    assert_eq!(ooms, [(SETTINGS[1].0, "16k")]);
}

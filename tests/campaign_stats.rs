//! Statistical campaign regression (pins the Fig. 12 behaviour): a
//! fixed-seed BER sweep asserting a coverage *lower bound* for the width-8
//! tensor checksum and a false-alarm *upper bound* (plus a detection floor)
//! for the checksum schemes. Campaigns are deterministic in their seeds, so
//! these are exact regression gates, with bounds set far enough from the
//! observed values to survive intentional re-tuning of unrelated constants.

use ft_transformer_suite::abft::thresholds::Thresholds;
use ft_transformer_suite::inject::{coverage_campaign, detection_campaign, GemmShape, Scheme};

const TRIALS: u64 = 48;
const SEED: u64 = 20250726;

#[test]
fn tensor_checksum_coverage_lower_bound_across_ber_sweep() {
    let shape = GemmShape::default();
    let chk = Thresholds::calibrated().gemm;
    for ber in [2e-5f64, 1e-4, 2e-4] {
        let st = coverage_campaign(TRIALS, SEED, ber, Scheme::Tensor, shape, chk);
        assert!(
            st.injected > 100,
            "ber {ber:e}: need a statistically meaningful fault count, got {}",
            st.injected
        );
        assert!(
            st.coverage() >= 0.90,
            "ber {ber:e}: width-8 tensor checksum coverage regressed to {:.4} \
             ({} injected, {} residual)",
            st.coverage(),
            st.injected,
            st.residual_errors
        );
    }
}

#[test]
fn tensor_beats_element_and_element_still_covers_singletons() {
    // The paper's Fig. 12-left ordering at a multi-error-per-row BER.
    let shape = GemmShape::default();
    let chk = Thresholds::calibrated().gemm;
    let ber = 2e-4;
    let tensor = coverage_campaign(TRIALS, SEED ^ 1, ber, Scheme::Tensor, shape, chk);
    let element = coverage_campaign(TRIALS, SEED ^ 1, ber, Scheme::Element, shape, chk);
    assert!(
        tensor.coverage() > element.coverage(),
        "tensor {:.4} must beat element {:.4} at ber {ber:e}",
        tensor.coverage(),
        element.coverage()
    );
}

#[test]
fn element_scheme_false_alarm_upper_bound_at_calibrated_threshold() {
    // Fig. 12-right: at the calibrated relative threshold the element
    // scheme must stay quiet on clean lanes.
    let shape = GemmShape::default();
    let tau = Thresholds::calibrated().gemm.rel;
    let st = detection_campaign(TRIALS, SEED ^ 2, tau, Scheme::Element, shape);
    assert!(
        st.false_alarm_rate() <= 2e-3,
        "element-scheme false alarms regressed: {:.5} over {} clean lanes",
        st.false_alarm_rate(),
        st.clean_lanes
    );
    // And the tensor scheme too (narrower folds, less noise).
    let st = detection_campaign(TRIALS, SEED ^ 2, tau, Scheme::Tensor, shape);
    assert!(
        st.false_alarm_rate() <= 2e-3,
        "tensor-scheme false alarms regressed: {:.5}",
        st.false_alarm_rate()
    );
}

#[test]
fn detection_rate_floor_at_calibrated_threshold() {
    // Random single bit flips: most land in mantissa bits whose deltas a
    // 0.48 relative criterion on a 64-element fold cannot see (by design —
    // they are also invisible in the FP16 data domain), so the rate is well
    // below 1. The observed fixed-seed value is ≈ 0.24; exponent-range
    // flips are what the scheme exists to catch, and they dominate it.
    let shape = GemmShape::default();
    let tau = Thresholds::calibrated().gemm.rel;
    let st = detection_campaign(TRIALS * 2, SEED ^ 3, tau, Scheme::Tensor, shape);
    assert!(
        st.detection_rate() >= 0.18,
        "tensor-scheme detection floor regressed: {:.4}",
        st.detection_rate()
    );
    // A loose threshold must detect strictly less.
    let loose = detection_campaign(TRIALS * 2, SEED ^ 3, 0.99, Scheme::Tensor, shape);
    assert!(loose.detection_rate() <= st.detection_rate());
}

#[test]
fn coverage_campaign_is_pinned_exactly_per_scheme() {
    // One fixed-seed campaign per scheme, every field exact. `injected` is
    // the injector's `fired()` count summed over the trials, so a change
    // that moves one fault draw, one corrupted chain or one repair shows.
    let shape = GemmShape::default();
    let chk = Thresholds::calibrated().gemm;
    for (scheme, want) in [
        (Scheme::Tensor, [16, 419, 317, 8, 411]),
        (Scheme::Element, [16, 419, 248, 36, 383]),
    ] {
        let st = coverage_campaign(16, SEED ^ 4, 1e-4, scheme, shape, chk);
        let got = [
            st.trials,
            st.injected,
            st.detections,
            st.residual_errors,
            st.covered,
        ];
        assert_eq!(got, want, "{scheme:?} campaign moved");
    }
}

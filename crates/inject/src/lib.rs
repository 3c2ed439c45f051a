//! # ft-inject — fault-injection campaign framework
//!
//! The statistical experiments of the FT-Transformer paper:
//!
//! * [`campaign`] — coverage-vs-BER (Fig. 12-left), detection/false-alarm
//!   threshold trials (Fig. 12-right), SNVR product-check trials
//!   (Fig. 14-left);
//! * [`sweep`] — parameter sweeps over those campaigns plus the
//!   post-restriction error-distribution experiment (Fig. 14-right);
//! * [`report`] — text table/series emitters used by the `ft-bench`
//!   binaries.

#![warn(missing_docs)]

pub mod campaign;
pub mod report;
pub mod sweep;

pub use campaign::{
    coverage_campaign, coverage_campaign_stride, detection_campaign, snvr_campaign, CoverageStats,
    DetectionStats, GemmShape, Scheme,
};
pub use sweep::{
    abft_threshold_sweep, restriction_error_distribution, snvr_threshold_sweep, ErrorHistogram,
    RestrictionComparison, ThresholdSweep,
};

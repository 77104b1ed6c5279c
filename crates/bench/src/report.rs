//! Shared reporting helpers for the bench binaries.
//!
//! The bins read the one obs snapshot an experiment returns: counts
//! from [`vmr_obs::Snapshot::counter`], quantiles from
//! [`vmr_obs::Snapshot::histogram`], and full metric dumps from
//! [`vmr_obs::Obs::to_json`].

use vmr_core::ExperimentOutcome;
use vmr_obs::HistogramSummary;

/// The scheduler report-delay distribution of one run, in seconds,
/// from the obs snapshot metric `vcore.report_delay_s`.
pub fn report_delay(out: &ExperimentOutcome) -> HistogramSummary {
    out.obs.snapshot().histogram("vcore.report_delay_s")
}

/// The `mean (p95)` cell used by the delay columns of the ablation
/// tables. Quantiles are log₂-bucketed, so p95 prints as a round
/// power of two.
pub fn delay_cell(s: &HistogramSummary) -> String {
    format!("{:.1} (p95 {:.0})", s.mean, s.p95)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_cell_shape() {
        let s = HistogramSummary {
            count: 4,
            mean: 12.25,
            p50: 8.0,
            p95: 16.0,
            p99: 16.0,
            max: 14.0,
        };
        assert_eq!(delay_cell(&s), "12.2 (p95 16)");
    }
}

//! The end-to-end MBPTA pipeline.

use proxima_sim::Inst;
use proxima_stats::descriptive::Summary;

use crate::campaign::CampaignRunner;
use crate::config::MbptaConfig;
use crate::evt_fit::{fit_tail, EvtFit};
use crate::iid::{self, IidReport};
use crate::pwcet::Pwcet;
use crate::{Campaign, MbptaError};

/// The full outcome of an MBPTA analysis of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct MbptaReport {
    /// Descriptive summary of the measured execution times.
    pub campaign_summary: Summary,
    /// The i.i.d. gate outcome.
    pub iid: IidReport,
    /// The EVT fit and its diagnostics.
    pub fit: EvtFit,
    /// The pWCET distribution answering per-run exceedance queries.
    pub pwcet: Pwcet,
}

impl MbptaReport {
    /// Convenience: the pWCET budget at cutoff probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`MbptaError::Stats`] unless `0 < p < 1`.
    pub fn budget_for(&self, p: f64) -> Result<f64, MbptaError> {
        self.pwcet.budget_for(p)
    }

    /// The observed high watermark of the campaign.
    pub fn high_watermark(&self) -> f64 {
        self.campaign_summary.max
    }
}

/// The classic batch pipeline over measured execution times:
/// i.i.d. gate → block maxima → Gumbel fit → pWCET. Shared by
/// [`Pipeline::analyze`] and the session's `BatchEngine`.
pub(crate) fn analyze_impl(times: &[f64], config: &MbptaConfig) -> Result<MbptaReport, MbptaError> {
    config.validate()?;
    if times.len() < config.min_runs {
        return Err(MbptaError::CampaignTooSmall {
            needed: config.min_runs,
            got: times.len(),
        });
    }
    let campaign = Campaign::from_times(times.to_vec())?;
    let campaign_summary = campaign.summary()?;
    let iid = iid::validate_strict(campaign.times(), config.alpha, config.ljung_box_lags)?;
    let fit = fit_tail(campaign.times(), &config.block)?;
    if config.strict_gof && !fit.gof.ks.passes(config.alpha) {
        return Err(MbptaError::PoorFit {
            ks_p: fit.gof.ks.p_value,
        });
    }
    let pwcet = Pwcet::new(fit.gumbel, fit.block_size);
    Ok(MbptaReport {
        campaign_summary,
        iid,
        fit,
        pwcet,
    })
}

/// A configured MBPTA pipeline: the one-shot batch analysis of a single
/// measurement vector. Multi-channel and streaming analyses go through
/// [`Pipeline::session`] instead.
///
/// # Examples
///
/// ```
/// use proxima_mbpta::{MbptaConfig, Pipeline};
/// use rand::{Rng, SeedableRng};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let times: Vec<f64> = (0..1500)
///     .map(|_| 2e5 + (0..6).map(|_| rng.gen::<f64>()).sum::<f64>() * 150.0)
///     .collect();
/// let report = Pipeline::new(MbptaConfig::default()).analyze(&times)?;
/// assert!(report.budget_for(1e-9)? >= report.high_watermark());
/// # Ok::<(), proxima_mbpta::MbptaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pipeline {
    config: MbptaConfig,
}

impl Pipeline {
    /// A pipeline running `config`.
    pub fn new(config: MbptaConfig) -> Self {
        Pipeline { config }
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &MbptaConfig {
        &self.config
    }

    /// Run the batch analysis with this configuration (the supported
    /// one-shot form).
    ///
    /// # Errors
    ///
    /// * [`MbptaError::CampaignTooSmall`] below `config.min_runs`;
    /// * [`MbptaError::IidRejected`] if the i.i.d. gate fails — MBPTA is
    ///   not applicable (e.g. the platform is not randomized);
    /// * [`MbptaError::PoorFit`] if `config.strict_gof` and the Gumbel
    ///   is rejected by the KS goodness-of-fit;
    /// * [`MbptaError::Stats`] for degenerate/insufficient data.
    pub fn analyze(&self, times: &[f64]) -> Result<MbptaReport, MbptaError> {
        analyze_impl(times, &self.config)
    }

    /// Measure with `runner` and analyze with this configuration.
    ///
    /// # Errors
    ///
    /// Anything [`CampaignRunner::run`] or [`Pipeline::analyze`] returns.
    pub fn measure_and_analyze(
        &self,
        runner: &CampaignRunner,
        trace: &[Inst],
        runs: usize,
        master_seed: u64,
    ) -> Result<MbptaReport, MbptaError> {
        let campaign = runner.run(trace, runs, master_seed)?;
        analyze_impl(campaign.times(), &self.config)
    }

    /// Start building a multi-channel session from this pipeline's
    /// configuration — equivalent to `self.config().clone().session()`.
    pub fn session(&self) -> crate::config::SessionBuilder {
        self.config.clone().session()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn analyze(times: &[f64], config: &MbptaConfig) -> Result<MbptaReport, MbptaError> {
        Pipeline::new(config.clone()).analyze(times)
    }

    fn rand_campaign(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| 1e5 + (0..10).map(|_| rng.gen::<f64>()).sum::<f64>() * 100.0)
            .collect()
    }

    #[test]
    fn pipeline_succeeds_on_iid_campaign() {
        let times = rand_campaign(3000, 1);
        let r = analyze(&times, &MbptaConfig::default()).unwrap();
        assert!(r.iid.passed);
        assert_eq!(r.campaign_summary.n, 3000);
        assert!(r.budget_for(1e-12).unwrap() > r.high_watermark());
    }

    #[test]
    fn pwcet_tightly_upper_bounds_observations() {
        // Figure 2's claim: the projection upper-bounds the observed tail
        // without being orders of magnitude away.
        let times = rand_campaign(3000, 2);
        let r = analyze(&times, &MbptaConfig::default()).unwrap();
        let hwm = r.high_watermark();
        let spread = r.campaign_summary.max - r.campaign_summary.min;
        let b6 = r.budget_for(1e-6).unwrap();
        assert!(b6 > hwm - spread * 0.1, "b6={b6} hwm={hwm}");
        assert!(b6 < hwm + 3.0 * spread, "b6={b6} should stay near the data");
    }

    #[test]
    fn non_iid_campaign_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut level = 0.0f64;
        let times: Vec<f64> = (0..2000)
            .map(|_| {
                level = 0.97 * level + rng.gen::<f64>();
                1e5 + 500.0 * level
            })
            .collect();
        assert!(matches!(
            analyze(&times, &MbptaConfig::default()),
            Err(MbptaError::IidRejected { .. })
        ));
    }

    #[test]
    fn campaign_below_min_runs_rejected() {
        let times = rand_campaign(50, 4);
        assert!(matches!(
            analyze(&times, &MbptaConfig::default()),
            Err(MbptaError::CampaignTooSmall { .. })
        ));
    }

    #[test]
    fn measure_and_analyze_independent_of_jobs() {
        use proxima_sim::PlatformConfig;

        let trace: Vec<Inst> = (0..200)
            .map(|i| Inst::load(0x100 + 4 * (i % 16), 0x10_0000 + 4096 * (i % 40)))
            .collect();
        let pipeline = Pipeline::new(MbptaConfig {
            min_runs: 100,
            ..MbptaConfig::default()
        });
        let runner = CampaignRunner::new(PlatformConfig::mbpta_compliant());
        let serial = pipeline
            .measure_and_analyze(&runner.clone().with_jobs(1), &trace, 400, 0)
            .unwrap();
        let parallel = pipeline
            .measure_and_analyze(&runner.with_jobs(8), &trace, 400, 0)
            .unwrap();
        // Same measurements ⇒ same report, down to the pWCET parameters.
        assert_eq!(serial, parallel);
    }

    #[test]
    fn deterministic_times_error_not_panic() {
        let times = vec![1000.0; 500];
        assert!(analyze(&times, &MbptaConfig::default()).is_err());
    }

    #[test]
    fn strict_gof_flag_respected() {
        // Bimodal data fits a Gumbel poorly.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let times: Vec<f64> = (0..3000)
            .map(|i| {
                let base = if i % 2 == 0 { 1e5 } else { 3e5 };
                base + rng.gen::<f64>()
            })
            .collect();
        let lenient = MbptaConfig::default();
        let strict = MbptaConfig {
            strict_gof: true,
            ..MbptaConfig::default()
        };
        // Either the iid gate already rejects the alternation (KS on halves
        // passes since halves are identical; LB detects alternation) or the
        // GoF rejects in strict mode — assert strict fails somehow.
        let lenient_result = analyze(&times, &lenient);
        let strict_result = analyze(&times, &strict);
        if lenient_result.is_ok() {
            assert!(matches!(strict_result, Err(MbptaError::PoorFit { .. })));
        } else {
            assert!(strict_result.is_err());
        }
    }

    #[test]
    fn report_budget_monotone_in_cutoff() {
        let times = rand_campaign(2000, 6);
        let r = analyze(&times, &MbptaConfig::default()).unwrap();
        let b6 = r.budget_for(1e-6).unwrap();
        let b12 = r.budget_for(1e-12).unwrap();
        let b15 = r.budget_for(1e-15).unwrap();
        assert!(b6 < b12 && b12 < b15);
    }
}

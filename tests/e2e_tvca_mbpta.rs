//! End-to-end reproduction of the paper's analysis flow: TVCA on the
//! randomized platform → i.i.d. gate → EVT fit → pWCET.

use proxima::prelude::*;

fn full_tvca_campaign(runs: usize, seed: u64) -> Campaign {
    let mut platform = Platform::new(PlatformConfig::mbpta_compliant());
    let tvca = Tvca::new(TvcaConfig::default());
    let trace = tvca.trace(ControlMode::Nominal);
    Campaign::measure(&mut platform, &trace, runs, seed).expect("campaign")
}

#[test]
fn tvca_campaign_passes_iid_gate() {
    // The paper's headline protocol result: on the randomized platform the
    // measured times pass both tests at alpha = 0.05 (reported p-values
    // 0.83 and 0.45).
    let campaign = full_tvca_campaign(600, 0);
    let report = Pipeline::default()
        .analyze(campaign.times())
        .expect("analysis");
    assert!(report.iid.passed);
    assert!(report.iid.ljung_box.p_value >= 0.05);
    assert!(report.iid.ks.p_value >= 0.05);
}

#[test]
fn pwcet_upper_bounds_observations_tightly() {
    // Figure 2's shape: the fitted line upper-bounds the empirical tail,
    // and stays within the same order of magnitude.
    // Fixed base seed verified to pass the 5%-level gate (any seed has a
    // 5% false-rejection chance; pinning keeps the test deterministic).
    let campaign = full_tvca_campaign(600, 2_000_000);
    let report = Pipeline::default()
        .analyze(campaign.times())
        .expect("analysis");
    let hwm = report.high_watermark();
    let b9 = report.budget_for(1e-9).expect("budget");
    let b15 = report.budget_for(1e-15).expect("budget");
    assert!(b9 > hwm * 0.999, "b9={b9} must not undercut the hwm region");
    assert!(
        b15 < hwm * 1.5,
        "b15={b15} stays within the order of magnitude (hwm={hwm})"
    );
    assert!(b15 > b9);
}

#[test]
fn deterministic_platform_fails_mbpta_gate() {
    // On DET, every run with the same layout yields the same time: MBPTA
    // must refuse (degenerate sample — nothing to fit).
    let mut platform = Platform::new(PlatformConfig::deterministic());
    let tvca = Tvca::new(TvcaConfig::default());
    let trace = tvca.trace(ControlMode::Nominal);
    let campaign = Campaign::measure(&mut platform, &trace, 200, 0).expect("campaign");
    let result = Pipeline::default().analyze(campaign.times());
    assert!(result.is_err(), "DET campaigns must not be analysable");
}

#[test]
fn campaign_protocol_is_reproducible() {
    let a = full_tvca_campaign(100, 7);
    let b = full_tvca_campaign(100, 7);
    assert_eq!(a.times(), b.times(), "same base seed → identical campaign");
    let c = full_tvca_campaign(100, 8);
    assert_ne!(a.times(), c.times(), "different seeds → different campaign");
}

#[test]
fn convergence_criterion_satisfied_by_large_campaign() {
    use proxima::mbpta::convergence::{check_convergence, ConvergenceConfig};
    let campaign = full_tvca_campaign(1500, 3);
    let report = check_convergence(
        &campaign,
        &ConvergenceConfig {
            min_runs: 300,
            step: 150,
            ..ConvergenceConfig::default()
        },
    )
    .expect("convergence analysis");
    assert!(report.converged(), "trajectory: {:?}", report.trajectory);
}

#[test]
fn render_report_mentions_pass_and_estimates() {
    let campaign = full_tvca_campaign(600, 11);
    let report = Pipeline::default()
        .analyze(campaign.times())
        .expect("analysis");
    let text = render_report(&report);
    assert!(text.contains("PASSED"));
    assert!(text.contains("1e-12"));
}

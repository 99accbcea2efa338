//! The AOCS second case study (experiment E5 as assertions).

use proxima::prelude::*;
use proxima::workload::aocs::{Aocs, AocsConfig, AocsMode};

fn campaign(mode: AocsMode, runs: usize, base: u64) -> Vec<f64> {
    let aocs = Aocs::new(AocsConfig::default());
    let trace = aocs.trace(mode);
    let mut platform = Platform::new(PlatformConfig::mbpta_compliant());
    platform
        .campaign(&trace, runs, base)
        .into_iter()
        .map(|o| o.cycles as f64)
        .collect()
}

#[test]
fn aocs_tracking_passes_the_gate_and_fits() {
    let times = campaign(AocsMode::Tracking, 800, 10_000_000);
    let report = Pipeline::default().analyze(&times).expect("analysis");
    assert!(report.iid.passed);
    let b = report.budget_for(1e-12).expect("budget");
    assert!(b > report.high_watermark());
    assert!(b < report.high_watermark() * 1.5, "same order of magnitude");
}

#[test]
fn acquisition_dominates_tracking() {
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let tracking = campaign(AocsMode::Tracking, 150, 10_000_000);
    let acquisition = campaign(AocsMode::Acquisition, 150, 10_137_911);
    assert!(mean(&acquisition) > mean(&tracking) * 1.2);
}

#[test]
fn safe_mode_is_constant_time() {
    // The fallback path fits in cache: on the randomized platform its
    // execution time is exactly reproducible — an exact WCET, no tail to
    // fit (MBPTA refuses, correctly).
    let times = campaign(AocsMode::Safe, 100, 10_000_000);
    assert!(
        times.iter().all(|&t| t == times[0]),
        "safe mode must be constant"
    );
    assert!(Pipeline::default().analyze(&times).is_err());
}

#[test]
fn aocs_det_average_comparable_to_rand() {
    let aocs = Aocs::new(AocsConfig::default());
    let trace = aocs.trace(AocsMode::Tracking);
    let mut det = Platform::new(PlatformConfig::deterministic());
    let det_time = det.run(&trace, 0).cycles as f64;
    let rand_times = campaign(AocsMode::Tracking, 200, 10_000_000);
    let rand_mean = rand_times.iter().sum::<f64>() / rand_times.len() as f64;
    assert!(
        (rand_mean - det_time).abs() / det_time < 0.05,
        "det={det_time} rand={rand_mean}"
    );
}

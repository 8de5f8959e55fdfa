//! Claims-diff for the algorithmic resolver fleet: the emergent
//! pipeline (`PipelineOpts::with_fleet`) must reproduce the paper's
//! centralization signatures the calibrated sampler was fitted to —
//! the Dec-2019 Google Q-min flip (Figure 3), the Feb-2020 `.nz`
//! cyclic-dependency surge, and the Table 4 cloud share — without any
//! per-query distribution sampling. Tolerances are documented in
//! `simnet::emerge`'s module docs; the headline one here is 3 pp
//! between the fleet and calibrated NS shares on either side of the
//! flip.

use dnscentral_core::experiments::{run_monthly_series, run_monthly_series_fleet, run_spec};
use dnscentral_core::pipeline::{run_spec_with, PipelineOpts};
use dnscentral_core::qmin::{detect_cusum, ChangePoint, MonthlySample};
use simnet::profile::Vantage;
use simnet::scenario::{dataset, monthly_google, Scale};
use std::sync::OnceLock;

fn fleet_series() -> &'static Vec<MonthlySample> {
    static S: OnceLock<Vec<MonthlySample>> = OnceLock::new();
    S.get_or_init(|| run_monthly_series_fleet(Vantage::Nl, Scale::tiny(), 42, 4))
}

fn calibrated_series() -> &'static Vec<MonthlySample> {
    static S: OnceLock<Vec<MonthlySample>> = OnceLock::new();
    S.get_or_init(|| run_monthly_series(Vantage::Nl, Scale::tiny(), 42))
}

fn mean_ns_share(series: &[MonthlySample], post: bool) -> f64 {
    let picked: Vec<f64> = series
        .iter()
        .filter(|s| ((s.year, s.month) >= (2019, 12)) == post)
        .map(|s| s.ns_share)
        .collect();
    picked.iter().sum::<f64>() / picked.len() as f64
}

/// Figure 3 on the fleet path: the Q-min change point is *emergent* —
/// nothing in the stimulus distribution changes in December 2019, only
/// `IterativeResolver::set_qmin` flips on Google's rollout date — yet
/// the same CUSUM detector fires on the same month.
#[test]
fn fleet_series_detects_google_flip_in_december_2019() {
    let expected = Some(ChangePoint {
        year: 2019,
        month: 12,
    });
    assert_eq!(detect_cusum(fleet_series(), 0.05, 0.3), expected);
}

/// The emergent NS shares are pinned to the calibrated ones: within
/// 3 pp on each side of the flip, with the post-flip minimized-qname
/// verification holding month by month.
#[test]
fn fleet_ns_shares_match_calibrated_within_3pp() {
    let fleet = fleet_series();
    let cal = calibrated_series();
    assert_eq!(fleet.len(), cal.len());
    for post in [false, true] {
        let f = mean_ns_share(fleet, post);
        let c = mean_ns_share(cal, post);
        assert!(
            (f - c).abs() < 0.03,
            "post={post}: fleet NS share {f:.4} vs calibrated {c:.4}"
        );
    }
    for s in fleet.iter().filter(|s| (s.year, s.month) >= (2019, 12)) {
        assert!(
            s.minimized_ns_share > 0.80,
            "{}-{:02}: minimized {}",
            s.year,
            s.month,
            s.minimized_ns_share
        );
    }
}

/// Figure 3b's `.nz` incident on the fleet path: the Feb-2020 cyclic
/// dependency emerges as a query surge from the incident stream riding
/// alongside the resolver walks.
#[test]
fn fleet_reproduces_nz_february_surge() {
    let total = |month: u32| {
        run_spec_with(
            monthly_google(Vantage::Nz, 2020, month),
            Scale::tiny(),
            42 ^ ((2020u64) << 8 | month as u64),
            &PipelineOpts::with_fleet(),
        )
        .analysis
        .total_queries
    };
    let jan = total(1);
    let feb = total(2);
    assert!(
        feb as f64 > jan as f64 * 1.25,
        "incident must surge fleet traffic: feb {feb} vs jan {jan}"
    );
}

/// Table 4 parity: the cloud share the analyzer attributes to the
/// hyperscalers is within 3 pp of the calibrated pipeline's on the
/// same spec/seed — the fleet changes *how* queries are produced, not
/// *who* produces them.
#[test]
fn fleet_cloud_share_matches_calibrated_within_3pp() {
    let spec = dataset(Vantage::Nl, 2020);
    let fleet = run_spec_with(spec.clone(), Scale::tiny(), 42, &PipelineOpts::with_fleet())
        .analysis
        .cloud_share();
    let cal = run_spec(spec, Scale::tiny(), 42).analysis.cloud_share();
    assert!(
        (fleet - cal).abs() < 0.03,
        "fleet cloud share {fleet:.4} vs calibrated {cal:.4}"
    );
}

/// The fleet capture joins cleanly at ingest: every response, TC=1
/// retries over TCP included, answers a query, and with no RRL in the
/// dataset every query is answered.
#[test]
fn fleet_ingest_has_no_unanswered_or_unmatched_messages() {
    let spec = dataset(Vantage::Nl, 2020);
    assert!(spec.rrl.is_none());
    let run = run_spec_with(spec, Scale::tiny(), 42, &PipelineOpts::with_fleet());
    let stats = &run.ingest_stats;
    assert!(stats.balanced(), "{stats:?}");
    assert_eq!(stats.unmatched_responses, 0, "{stats:?}");
    assert_eq!(stats.unanswered_queries, 0, "{stats:?}");
}

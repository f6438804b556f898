//! Cross-crate integration: the Table 1 campaign at reduced scale must
//! reproduce the paper's qualitative claims — configuration ordering,
//! job-count reductions from grouping, and the §5 metric directions.

use moteur_repro::bench::{mean_series, run_campaign, run_point, CampaignSpec};
use moteur_repro::moteur::EnactorConfig;

#[test]
fn configuration_ordering_matches_the_paper() {
    // Average two seeds to tame max-statistics noise at small n_D.
    let n = 10;
    let avg = |cfg: EnactorConfig| -> f64 {
        [11u64, 23, 47, 91]
            .iter()
            .map(|&s| run_point(cfg, n, s).makespan_secs)
            .sum::<f64>()
            / 4.0
    };
    let nop = avg(EnactorConfig::nop());
    let jg = avg(EnactorConfig::jg());
    let sp = avg(EnactorConfig::sp());
    let dp = avg(EnactorConfig::dp());
    let sp_dp = avg(EnactorConfig::sp_dp());
    let all = avg(EnactorConfig::sp_dp_jg());
    // Table 1 row ordering at every size: NOP slowest, then JG, SP, DP,
    // SP+DP, SP+DP+JG fastest.
    assert!(jg < nop, "JG {jg} vs NOP {nop}");
    assert!(sp < jg, "SP {sp} vs JG {jg}");
    assert!(dp < sp, "DP {dp} vs SP {sp}");
    // DP and SP+DP race closely at small n_D (max statistics over few
    // draws); allow a small tolerance on that single comparison.
    assert!(sp_dp < dp * 1.1, "SP+DP {sp_dp} vs DP {dp}");
    assert!(all <= sp_dp * 1.05, "SP+DP+JG {all} vs SP+DP {sp_dp}");
    // Abstract: the full optimization gives a many-fold speed-up.
    assert!(nop / all > 3.0, "total speed-up {}", nop / all);
}

#[test]
fn service_parallelism_helps_beyond_data_parallelism_on_the_grid() {
    // §5.2's headline: S_SDP = 1 in theory, ≈2 in practice, because
    // grid times are variable. Two seeds averaged.
    let n = 12;
    let dp = (run_point(EnactorConfig::dp(), n, 5).makespan_secs
        + run_point(EnactorConfig::dp(), n, 17).makespan_secs)
        / 2.0;
    let dsp = (run_point(EnactorConfig::sp_dp(), n, 5).makespan_secs
        + run_point(EnactorConfig::sp_dp(), n, 17).makespan_secs)
        / 2.0;
    assert!(
        dsp < dp * 0.85,
        "SP must add a real speed-up on a variable grid: DP {dp} vs DP+SP {dsp}"
    );
}

#[test]
fn grouping_cuts_jobs_from_6_to_4_per_pair() {
    let plain = run_point(EnactorConfig::sp_dp(), 5, 1);
    let grouped = run_point(EnactorConfig::sp_dp_jg(), 5, 1);
    assert_eq!(plain.jobs_submitted, 5 * 6 + 1);
    assert_eq!(grouped.jobs_submitted, 5 * 4 + 1);
}

#[test]
fn campaign_series_are_increasing_in_data_size() {
    let cells = run_campaign(&CampaignSpec::paper(&[4, 12], 3, 2)).unwrap();
    for series in &mean_series(&cells, &[4, 12]) {
        // More data never runs faster under NOP/JG/SP (strictly
        // sequential components dominate).
        if ["NOP", "JG", "SP"].contains(&series.label.as_str()) {
            assert!(
                series.points[1].1 > series.points[0].1,
                "{}: {:?}",
                series.label,
                series.points
            );
        }
    }
}

#[test]
fn dp_collapses_the_slope() {
    let cells = run_campaign(&CampaignSpec::paper(&[6, 18], 9, 2)).unwrap();
    let series = mean_series(&cells, &[6, 18]);
    let slope = |label: &str| -> f64 {
        let s = series
            .iter()
            .find(|s| s.label == label)
            .expect("label exists");
        (s.points[1].1 - s.points[0].1) / (s.points[1].0 - s.points[0].0)
    };
    // §5.2: data parallelism mainly improves the slope (data
    // scalability); the ratio should be large.
    assert!(
        slope("NOP") > 3.0 * slope("DP").max(1.0),
        "NOP slope {} vs DP slope {}",
        slope("NOP"),
        slope("DP")
    );
}

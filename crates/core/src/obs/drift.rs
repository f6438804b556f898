//! Model-vs-observed drift detection.
//!
//! `lint::predict` evaluates the paper's closed forms (eq. 1–4) without
//! enacting anything; an observed run measures what actually happened.
//! This module closes the loop: [`check_drift`] compares an observed
//! makespan against the matching [`Prediction`] row. On an ideal
//! backend the two must agree almost exactly — drift there means the
//! enactor, the model, or the instrumentation regressed, which is
//! precisely what the bench gate wants to catch.

use crate::lint::predict::Prediction;

/// One observed makespan against the model's prediction for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Drift {
    pub predicted_secs: f64,
    /// `|observed − predicted| / predicted`; `0` when both are zero,
    /// `∞` when only the prediction is zero.
    pub rel_error: f64,
}

/// Compare the makespan observed under `config` against its row of
/// `prediction`. The configuration is matched case-insensitively, so
/// both `EnactorConfig::label()`'s `"SP+DP"` and predict's `"sp+dp"`
/// work; `None` when the prediction has no such row.
pub fn check_drift(prediction: &Prediction, config: &str, observed_secs: f64) -> Option<Drift> {
    let row = prediction
        .rows
        .iter()
        .find(|r| r.config.eq_ignore_ascii_case(config))?;
    let rel_error = if row.makespan == 0.0 {
        if observed_secs == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (observed_secs - row.makespan).abs() / row.makespan
    };
    Some(Drift {
        predicted_secs: row.makespan,
        rel_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::predict::{Prediction, PredictionRow};

    fn prediction() -> Prediction {
        Prediction {
            n_data: 10,
            overhead: 0.0,
            n_services: 2,
            rows: vec![
                PredictionRow {
                    config: "nop",
                    jobs: 20,
                    makespan: 1000.0,
                },
                PredictionRow {
                    config: "sp+dp",
                    jobs: 20,
                    makespan: 100.0,
                },
            ],
        }
    }

    #[test]
    fn configs_match_case_insensitively_and_error_is_relative() {
        let nop = check_drift(&prediction(), "nop", 1030.0).unwrap();
        assert_eq!(nop.predicted_secs, 1000.0);
        assert!((nop.rel_error - 0.03).abs() < 1e-9);
        // The enactor label spelling finds predict's row.
        let sp_dp = check_drift(&prediction(), "SP+DP", 99.0).unwrap();
        assert_eq!(sp_dp.predicted_secs, 100.0);
        assert!((sp_dp.rel_error - 0.01).abs() < 1e-9);
        // Slower and faster than the model drift alike.
        let slow = check_drift(&prediction(), "nop", 1200.0).unwrap();
        assert!((slow.rel_error - 0.2).abs() < 1e-9);
    }

    #[test]
    fn unknown_configs_have_no_drift_and_zero_prediction_is_handled() {
        assert_eq!(check_drift(&prediction(), "mystery", 1.0), None);
        let mut pred = prediction();
        pred.rows[0].makespan = 0.0;
        assert_eq!(check_drift(&pred, "nop", 0.0).unwrap().rel_error, 0.0);
        assert!(check_drift(&pred, "nop", 5.0)
            .unwrap()
            .rel_error
            .is_infinite());
    }
}

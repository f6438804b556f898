//! Chaos integration: the full Bronze-Standard workflow must complete
//! correctly on a hostile grid — high failure rates, maintenance
//! windows, heavy diurnal background load and mixed queue disciplines —
//! with every optimization enabled at once.

use moteur_repro::bench::{bronze_inputs, bronze_workflow};
use moteur_repro::gridsim::config::{Downtime, QueueDiscipline};
use moteur_repro::gridsim::{CeConfig, Distribution, GridConfig, NetworkConfig};
use moteur_repro::moteur::{Enactment, EnactorConfig, SimBackend};

fn hostile_grid() -> GridConfig {
    let mut ces = Vec::new();
    for i in 0..3 {
        let mut ce = CeConfig::new(format!("flaky-{i}"), 40, 0.8 + 0.1 * i as f64);
        ce.background_interarrival = Some(Distribution::Exponential { mean: 40.0 });
        ce.background_duration = Distribution::LogNormal {
            median: 1200.0,
            sigma: 1.2,
        };
        ce.initial_backlog = 30;
        ce.diurnal_amplitude = 0.8;
        ce.downtime = Some(Downtime {
            period: 5_000.0,
            duration: 600.0,
        });
        ce.discipline = if i == 0 {
            QueueDiscipline::UserPriority
        } else {
            QueueDiscipline::Fifo
        };
        ces.push(ce);
    }
    GridConfig {
        ces,
        submission_overhead: Distribution::LogNormal {
            median: 60.0,
            sigma: 0.8,
        },
        match_delay: Distribution::Mixture {
            first: Box::new(Distribution::LogNormal {
                median: 120.0,
                sigma: 0.8,
            }),
            second: Box::new(Distribution::LogNormal {
                median: 1500.0,
                sigma: 0.6,
            }),
            p_second: 0.10,
        },
        notify_delay: Distribution::LogNormal {
            median: 40.0,
            sigma: 0.6,
        },
        failure_probability: 0.15,
        failure_detection: Distribution::LogNormal {
            median: 700.0,
            sigma: 0.5,
        },
        max_retries: 2,
        network: NetworkConfig {
            transfer_latency: 10.0,
            bandwidth: 1.0e6,
            congestion: 0.01,
        },
        typical_job_duration: 600.0,
        info_refresh_period: 300.0,
        compute_jitter: Distribution::Uniform { lo: 0.7, hi: 1.6 },
    }
}

#[test]
fn bronze_standard_survives_a_hostile_grid() {
    let wf = bronze_workflow();
    let n = 8;
    let inputs = bronze_inputs(n);
    let mut backend = SimBackend::new(hostile_grid(), 13);
    let result = Enactment::new(&wf, &inputs, EnactorConfig::sp_dp_jg().with_batching(2))
        .run(&mut backend)
        .expect("the workflow must complete despite failures and downtime");
    // All results present.
    assert_eq!(result.sink("accuracy_translation").len(), 1);
    assert_eq!(result.sink("accuracy_rotation").len(), 1);
    // With 15% failure probability over dozens of jobs, resubmissions
    // must have occurred somewhere (grid-level at least; possibly
    // enactor-level too).
    let records = backend.sim().records();
    let resubmissions: u32 = records.iter().map(|r| r.attempts.saturating_sub(1)).sum();
    assert!(resubmissions > 0, "a hostile grid should force retries");
    assert!(result.makespan.as_secs_f64() > 0.0);
}

#[test]
fn hostile_runs_are_reproducible_per_seed() {
    let wf = bronze_workflow();
    let inputs = bronze_inputs(4);
    let run_once = |seed: u64| {
        let mut backend = SimBackend::new(hostile_grid(), seed);
        Enactment::new(&wf, &inputs, EnactorConfig::sp_dp())
            .run(&mut backend)
            .expect("completes")
            .makespan
    };
    assert_eq!(run_once(7), run_once(7));
    assert_ne!(run_once(7), run_once(8));
}

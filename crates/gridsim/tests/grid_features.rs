//! Integration tests of the grid model's realism features: queue
//! disciplines, maintenance downtime, diurnal background load, and
//! global invariants checked property-style across random workloads.

use moteur_gridsim::config::{Downtime, QueueDiscipline};
use moteur_gridsim::{
    CeConfig, Distribution, GridConfig, GridJobSpec, GridSim, JobOutcome, NetworkConfig,
};

fn base_config() -> GridConfig {
    GridConfig {
        ces: vec![CeConfig::new("ce", 2, 1.0)],
        submission_overhead: Distribution::Constant(10.0),
        match_delay: Distribution::Constant(5.0),
        notify_delay: Distribution::Constant(1.0),
        failure_probability: 0.0,
        failure_detection: Distribution::Constant(0.0),
        max_retries: 0,
        network: NetworkConfig {
            transfer_latency: 0.0,
            bandwidth: f64::INFINITY,
            congestion: 0.0,
        },
        typical_job_duration: 100.0,
        info_refresh_period: 3600.0,
        compute_jitter: Distribution::Constant(1.0),
    }
}

#[test]
fn user_priority_discipline_jumps_the_background_queue() {
    let run = |discipline: QueueDiscipline| -> f64 {
        let mut cfg = base_config();
        cfg.ces[0].slots = 1;
        cfg.ces[0].discipline = discipline;
        cfg.ces[0].initial_backlog = 5;
        cfg.ces[0].background_duration = Distribution::Constant(500.0);
        let mut sim = GridSim::new(cfg, 1);
        sim.submit(GridJobSpec::new("user", 50.0));
        sim.next_completion()
            .expect("completes")
            .delivered_at
            .as_secs_f64()
    };
    let fifo = run(QueueDiscipline::Fifo);
    let prio = run(QueueDiscipline::UserPriority);
    // FIFO waits behind 4 queued background jobs (one is already
    // running when the user job arrives); priority waits only for the
    // running one.
    assert!(fifo > prio + 1000.0, "fifo {fifo} vs priority {prio}");
    assert!(
        prio < 1100.0,
        "priority job waits at most one background job: {prio}"
    );
}

#[test]
fn downtime_windows_delay_dispatch_but_not_running_jobs() {
    let mut cfg = base_config();
    cfg.ces[0].downtime = Some(Downtime {
        period: 30.0,
        duration: 1000.0,
    });
    let mut sim = GridSim::new(cfg, 1);
    // Enqueued at t=15 (before the t=30 window), runs to completion at
    // t=35 even though the window opens mid-run: graceful drain.
    sim.submit(GridJobSpec::new("early", 20.0));
    let first = sim.next_completion().unwrap();
    assert!(
        first.delivered_at.as_secs_f64() < 40.0,
        "{}",
        first.delivered_at
    );
    // Next job enqueues at ~51, inside the [30, 1030) window.
    sim.submit(GridJobSpec::new("blocked", 20.0));
    let second = sim.next_completion().unwrap();
    assert!(
        second.started_at.as_secs_f64() >= 1030.0,
        "job must wait for CeUp at t=1030: started {}",
        second.started_at
    );
}

#[test]
fn diurnal_amplitude_modulates_background_pressure() {
    // Count background arrivals over the first half-day (where the
    // sin modulation raises the rate): amplitude > 0 must produce
    // more arrivals than the flat rate.
    let run = |amplitude: f64| -> u64 {
        let mut cfg = base_config();
        cfg.ces[0].slots = 64; // plenty of room, we only count arrivals
        cfg.ces[0].background_interarrival = Some(Distribution::Exponential { mean: 120.0 });
        cfg.ces[0].background_duration = Distribution::Constant(10.0);
        cfg.ces[0].diurnal_amplitude = amplitude;
        let mut sim = GridSim::new(cfg, 7);
        // A half-day-long user job keeps the clock advancing.
        sim.submit(GridJobSpec::new("anchor", 43_200.0));
        sim.next_completion().expect("anchor completes");
        sim.background_arrivals()
    };
    let flat = run(0.0);
    let diurnal = run(0.9);
    assert!(
        diurnal as f64 > flat as f64 * 1.15,
        "rising-phase diurnal load must add arrivals: flat {flat}, diurnal {diurnal}"
    );
}

/// Simulator invariants over seeded pseudo-random workloads: timestamps
/// are monotone per record and every submitted job is delivered exactly
/// once. Deterministic sweep (no external property-testing dependency:
/// the workspace builds offline).
#[test]
fn invariants_hold_over_random_workloads() {
    for case in 0u64..16 {
        // Derive a varied (seed, n_jobs, compute) triple per case.
        let seed = case * 31 + 7;
        let n_jobs = 1 + (case as usize * 13) % 39;
        let compute = 1.0 + (case as f64 * 37.3) % 499.0;
        let mut sim = GridSim::new(GridConfig::egee_2006(), seed);
        for i in 0..n_jobs {
            sim.submit(
                GridJobSpec::new(format!("j{i}"), compute)
                    .with_files(vec![1_000_000], vec![10_000])
                    .with_tag(i as u64),
            );
        }
        let mut seen = std::collections::BTreeSet::new();
        let mut delivered = 0;
        while let Some(r) = sim.next_completion() {
            delivered += 1;
            assert!(seen.insert(r.tag), "tag {} delivered twice", r.tag);
            assert!(r.submitted_at <= r.matched_at);
            assert!(r.matched_at <= r.enqueued_at);
            assert!(r.enqueued_at <= r.started_at);
            assert!(r.started_at <= r.finished_at);
            assert!(r.finished_at <= r.delivered_at);
            assert!(r.attempts >= 1);
            if r.outcome == JobOutcome::Success {
                assert!(r.compute.as_secs_f64() > 0.0);
            }
        }
        assert_eq!(delivered, n_jobs, "case {case}");
        assert_eq!(sim.outstanding(), 0, "case {case}");
    }
}

/// The overhead decomposition is consistent: turnaround equals overhead
/// plus compute.
#[test]
fn overhead_decomposition() {
    for seed in 0u64..16 {
        let mut sim = GridSim::new(GridConfig::egee_2006(), seed);
        for i in 0..5 {
            sim.submit(GridJobSpec::new(format!("j{i}"), 100.0));
        }
        while let Some(r) = sim.next_completion() {
            let reconstructed = r.overhead().as_secs_f64() + r.compute.as_secs_f64();
            assert!(
                (r.turnaround().as_secs_f64() - reconstructed).abs() < 1e-6,
                "turnaround {} != overhead {} + compute {}",
                r.turnaround(),
                r.overhead(),
                r.compute
            );
        }
    }
}

/// An installed observer sees every job's lifecycle in causal order and
/// exactly one terminal `JobDelivered` per tag, and observation does not
/// perturb the simulation.
#[test]
fn observer_sees_ordered_lifecycle_per_job() {
    use moteur_gridsim::SimEvent;
    use std::cell::RefCell;
    use std::rc::Rc;

    let run = |observe: bool| -> (Vec<SimEvent>, Vec<f64>) {
        let mut cfg = GridConfig::egee_2006();
        cfg.max_retries = 2;
        let mut sim = GridSim::new(cfg, 11);
        let events: Rc<RefCell<Vec<SimEvent>>> = Rc::default();
        if observe {
            let sink = Rc::clone(&events);
            sim.set_observer(Box::new(move |e| sink.borrow_mut().push(e.clone())));
        }
        for i in 0..8 {
            sim.submit(GridJobSpec::new(format!("j{i}"), 120.0).with_tag(i));
        }
        let mut delivered = Vec::new();
        while let Some(c) = sim.next_completion() {
            delivered.push(c.delivered_at.as_secs_f64());
        }
        sim.clear_observer();
        let events = Rc::try_unwrap(events)
            .expect("observer dropped")
            .into_inner();
        (events, delivered)
    };

    let (events, delivered) = run(true);
    let (_, blind) = run(false);
    assert_eq!(delivered, blind, "observer must not change outcomes");

    // Global timestamp monotonicity: the observer hears events in
    // simulation order.
    for pair in events.windows(2) {
        assert!(
            pair[0].at() <= pair[1].at(),
            "{:?} after {:?}",
            pair[1],
            pair[0]
        );
    }

    for tag in 0..8u64 {
        let mine: Vec<&SimEvent> = events.iter().filter(|e| e.tag() == Some(tag)).collect();
        assert!(
            matches!(mine.first(), Some(SimEvent::JobSubmitted { .. })),
            "tag {tag} starts with submission: {mine:?}"
        );
        let terminals = mine.iter().filter(|e| e.is_terminal()).count();
        assert_eq!(terminals, 1, "tag {tag} has exactly one terminal event");
        assert!(
            matches!(mine.last(), Some(SimEvent::JobDelivered { .. })),
            "tag {tag} ends with delivery: {mine:?}"
        );
        // Every started job was enqueued first; every delivery follows
        // at least one finish.
        let pos = |pred: fn(&&&SimEvent) -> bool| mine.iter().position(|e| pred(&e));
        let enq = pos(|e| matches!(***e, SimEvent::JobEnqueued { .. }));
        let started = pos(|e| matches!(***e, SimEvent::JobStarted { .. }));
        let finished = pos(|e| matches!(***e, SimEvent::JobFinished { .. }));
        assert!(enq < started, "tag {tag}: enqueue before start");
        assert!(started < finished, "tag {tag}: start before finish");
    }

    // Capacity snapshots carry no tag but must be present (jobs moved
    // through CE queues).
    assert!(events
        .iter()
        .any(|e| matches!(e, SimEvent::CeCapacity { .. })));
}

//! The discrete-event grid simulator.
//!
//! Models the submission chain of a 2006-era EGEE/LCG2 grid:
//!
//! ```text
//! user interface --submission--> resource broker --match--> CE batch
//!   queue --wait--> worker (stage-in, compute, stage-out) --notify-->
//!   completion visible to submitter
//! ```
//!
//! plus multi-user background load on every computing element, an
//! information system whose staleness causes submission herding, and a
//! failure/resubmission model. All delays are drawn from configured
//! distributions with a single seeded RNG, so runs are reproducible.

use crate::config::{CeConfig, GridConfig, QueueDiscipline};
use crate::event::{Event, EventQueue};
use crate::job::{CeId, GridJobCompletion, GridJobSpec, JobId, JobOutcome, JobRecord};
use crate::obs::{SimEvent, SimObserver};
use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};
use moteur_prof::{Prof, Subsystem};
use std::collections::VecDeque;
use std::time::Instant;

/// Who occupies a worker slot or a queue position.
#[derive(Debug, Clone)]
enum Occupant {
    User(JobId),
    Background { duration_secs: f64 },
}

#[derive(Debug)]
struct CeState {
    cfg: CeConfig,
    queue: VecDeque<Occupant>,
    busy: usize,
    /// False during a maintenance window: no new dispatches.
    up: bool,
    /// True while the submitter has blacklisted this CE; the broker
    /// avoids it like a down CE, but workers keep draining.
    blocked: bool,
    /// Dedicated stream for background arrivals/durations so that the
    /// user-job sampling sequence is independent of background volume.
    rng: Rng,
}

impl CeState {
    fn backlog(&self) -> usize {
        self.queue.len() + self.busy
    }
}

#[derive(Debug)]
struct JobState {
    spec: GridJobSpec,
    record: JobRecord,
    done: bool,
    /// Cancelled by the submitter: in-flight events for this job become
    /// no-ops and no completion is ever delivered.
    cancelled: bool,
}

/// The simulator. Drive it with [`GridSim::submit`] and
/// [`GridSim::next_completion`].
pub struct GridSim {
    config: GridConfig,
    clock: SimTime,
    events: EventQueue,
    rng: Rng,
    jobs: Vec<JobState>,
    ces: Vec<CeState>,
    /// The broker's (stale) view of each CE backlog, refreshed by the
    /// information system every `info_refresh_period`.
    broker_view: Vec<usize>,
    completions: VecDeque<GridJobCompletion>,
    /// User jobs submitted but not yet delivered.
    outstanding: usize,
    /// User jobs currently executing (for the congestion model).
    active_user_jobs: usize,
    finished_records: Vec<JobRecord>,
    /// Total background arrivals processed (diurnal-model testing and
    /// load introspection).
    background_arrivals: u64,
    /// Optional lifecycle observer ([`crate::obs`]); `None` keeps every
    /// emission site a cheap branch with no event construction.
    observer: Option<SimObserver>,
    /// Events popped and handled so far (the denominator for the scale
    /// campaign's events/sec and allocs-per-event figures).
    events_processed: u64,
    /// Self-profiler handle; [`Prof::off`] keeps every scope a branch.
    prof: Prof,
    /// `pick_ce` calls and their wall nanos since the last drain
    /// flushed them to the profiler.
    picks: (u64, u64),
}

impl std::fmt::Debug for GridSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GridSim")
            .field("clock", &self.clock)
            .field("jobs", &self.jobs.len())
            .field("ces", &self.ces.len())
            .finish_non_exhaustive()
    }
}

impl GridSim {
    pub fn new(config: GridConfig, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        // Steady state keeps a few events in flight per CE (worker
        // finishes, background arrivals, maintenance) plus the global
        // refresh; pre-size so the hot loop starts past the growth.
        let mut events = EventQueue::with_capacity(16 + 4 * config.ces.len());
        let mut ces = Vec::with_capacity(config.ces.len());
        for (i, cfg) in config.ces.iter().enumerate() {
            let mut ce = CeState {
                cfg: cfg.clone(),
                queue: VecDeque::new(),
                busy: 0,
                up: true,
                blocked: false,
                rng: rng.fork(i as u64 + 1),
            };
            for _ in 0..cfg.initial_backlog {
                let d = cfg.background_duration.sample(&mut ce.rng);
                ce.queue
                    .push_back(Occupant::Background { duration_secs: d });
            }
            if let Some(inter) = &cfg.background_interarrival {
                let dt = inter.sample(&mut ce.rng);
                events.schedule(
                    SimTime::ZERO + SimDuration::from_secs_f64(dt),
                    Event::BackgroundArrival { ce: CeId(i) },
                );
            }
            if let Some(dt) = cfg.downtime {
                events.schedule(
                    SimTime::from_secs_f64(dt.period),
                    Event::CeDown { ce: CeId(i) },
                );
            }
            ces.push(ce);
        }
        let broker_view = ces.iter().map(CeState::backlog).collect();
        events.schedule(
            SimTime::from_secs_f64(config.info_refresh_period),
            Event::InfoRefresh,
        );
        let mut sim = GridSim {
            config,
            clock: SimTime::ZERO,
            events,
            rng,
            jobs: Vec::new(),
            ces,
            broker_view,
            completions: VecDeque::new(),
            outstanding: 0,
            active_user_jobs: 0,
            finished_records: Vec::new(),
            background_arrivals: 0,
            observer: None,
            events_processed: 0,
            prof: Prof::off(),
            picks: (0, 0),
        };
        // Dispatch the initial backlog so workers start busy.
        for i in 0..sim.ces.len() {
            sim.try_dispatch(CeId(i));
        }
        sim
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Install a lifecycle observer; it receives one [`SimEvent`] per
    /// transition from now on. Replaces any previous observer.
    pub fn set_observer(&mut self, observer: SimObserver) {
        self.observer = Some(observer);
    }

    /// Remove the observer, returning emission sites to no-ops.
    pub fn clear_observer(&mut self) {
        self.observer = None;
    }

    /// Install a self-profiler handle: the event queue, event dispatch
    /// and broker matchmaking become profiled scopes. A disabled handle
    /// keeps every site a single branch.
    pub fn set_prof(&mut self, prof: Prof) {
        self.prof = prof;
    }

    /// Events popped and handled since construction.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Pre-size the job table for a known campaign, avoiding repeated
    /// re-allocation while submitting large waves.
    pub fn reserve_jobs(&mut self, additional: usize) {
        self.jobs.reserve(additional);
    }

    /// Emit an event to the observer, building it only when one is
    /// installed (the hot path stays allocation-free otherwise).
    #[inline]
    fn emit(&mut self, build: impl FnOnce(&Self) -> SimEvent) {
        if self.observer.is_some() {
            let event = build(self);
            if let Some(obs) = &mut self.observer {
                obs(&event);
            }
        }
    }

    /// Emit the current occupancy of `ce`.
    fn emit_ce_capacity(&mut self, ce_id: CeId) {
        self.emit(|sim| {
            let ce = &sim.ces[ce_id.0];
            SimEvent::CeCapacity {
                at: sim.clock,
                ce: ce_id,
                busy: ce.busy,
                queued: ce.queue.len(),
                queued_user: ce
                    .queue
                    .iter()
                    .filter(|o| matches!(o, Occupant::User(_)))
                    .count(),
                slots: ce.cfg.slots,
                up: ce.up,
            }
        });
    }

    /// Number of user jobs submitted and not yet delivered.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Records of all delivered user jobs, in delivery order.
    pub fn records(&self) -> &[JobRecord] {
        &self.finished_records
    }

    /// Number of background-job arrivals processed so far.
    pub fn background_arrivals(&self) -> u64 {
        self.background_arrivals
    }

    /// Submit a job. The completion surfaces later through
    /// [`GridSim::next_completion`].
    pub fn submit(&mut self, mut spec: GridJobSpec) -> JobId {
        let id = JobId(self.jobs.len() as u64);
        // The record takes ownership of the name; the spec's copy is
        // never read again (every emission uses the record's), so the
        // per-submission clone the profiler flagged is gone.
        let record = JobRecord {
            id,
            name: std::mem::take(&mut spec.name),
            tag: spec.tag,
            submitted_at: self.clock,
            matched_at: self.clock,
            enqueued_at: self.clock,
            started_at: self.clock,
            finished_at: self.clock,
            delivered_at: self.clock,
            ce: None,
            attempts: 0,
            stage_in: SimDuration::ZERO,
            compute: SimDuration::ZERO,
            stage_out: SimDuration::ZERO,
            outcome: JobOutcome::Success,
        };
        self.jobs.push(JobState {
            spec,
            record,
            done: false,
            cancelled: false,
        });
        self.outstanding += 1;
        let delay = self.config.submission_overhead.sample(&mut self.rng);
        self.schedule_in(delay, Event::BrokerReceives { job: id });
        self.emit(|sim| {
            let state = &sim.jobs[id.0 as usize];
            SimEvent::JobSubmitted {
                at: sim.clock,
                job: id,
                tag: state.spec.tag,
                name: state.record.name.clone(),
            }
        });
        id
    }

    /// Submit a pure data transfer: the job bypasses the broker, queue
    /// and execution pipeline entirely and is delivered after
    /// `transfer_seconds` of stage-in. Used by the data manager to
    /// model fetching a memoized result from the content store.
    pub fn submit_fetch(
        &mut self,
        name: impl Into<String>,
        transfer_seconds: f64,
        tag: u64,
    ) -> JobId {
        let id = JobId(self.jobs.len() as u64);
        let transfer = SimDuration::from_secs_f64(transfer_seconds.max(0.0));
        let record = JobRecord {
            id,
            name: name.into(),
            tag,
            submitted_at: self.clock,
            matched_at: self.clock,
            enqueued_at: self.clock,
            started_at: self.clock,
            finished_at: self.clock + transfer,
            delivered_at: self.clock + transfer,
            ce: None,
            attempts: 1,
            stage_in: transfer,
            compute: SimDuration::ZERO,
            stage_out: SimDuration::ZERO,
            outcome: JobOutcome::Success,
        };
        // The spec's name is never read (emissions use the record's),
        // so an empty placeholder avoids the clone.
        let spec = GridJobSpec::new(String::new(), 0.0).with_tag(tag);
        self.jobs.push(JobState {
            spec,
            record,
            done: false,
            cancelled: false,
        });
        self.outstanding += 1;
        self.schedule_in(
            transfer_seconds.max(0.0),
            Event::CompletionDelivered { job: id },
        );
        id
    }

    /// Advance virtual time until the next user-job completion and
    /// return it, or `None` when no user job is outstanding.
    ///
    /// Profiling granularity: one `event_queue` scope per drain call
    /// (the loop runs millions of events per second, so a scope per
    /// event would measure the profiler, not the simulator); the events
    /// dispatched inside it are batch-counted as `sim_step`, and the
    /// broker's `pick_ce` scans are handed over the same way.
    pub fn next_completion(&mut self) -> Option<GridJobCompletion> {
        if let Some(c) = self.completions.pop_front() {
            return Some(c);
        }
        if self.outstanding == 0 {
            return None;
        }
        let prof = self.prof.clone();
        let _drain = prof.scope(Subsystem::EventQueue);
        let drained_from = self.events_processed;
        let result = loop {
            if let Some(c) = self.completions.pop_front() {
                break Some(c);
            }
            if self.outstanding == 0 {
                break None;
            }
            let (at, event) = self
                .events
                .pop()
                .expect("outstanding user jobs but an empty event queue");
            debug_assert!(at >= self.clock, "time went backwards");
            self.clock = at;
            self.events_processed += 1;
            self.handle(event);
        };
        self.flush_batches(&prof, drained_from);
        result
    }

    /// Advance virtual time until the next user-job completion **or**
    /// `deadline`, whichever comes first. Returns `None` when the
    /// deadline is reached (the clock then sits exactly at `deadline`)
    /// or when nothing can ever complete. Unlike
    /// [`GridSim::next_completion`], this also advances time with zero
    /// outstanding jobs — background and maintenance events keep
    /// processing — so a submitter can wait out a backoff delay.
    pub fn next_completion_until(&mut self, deadline: SimTime) -> Option<GridJobCompletion> {
        if let Some(c) = self.completions.pop_front() {
            return Some(c);
        }
        let prof = self.prof.clone();
        let _drain = prof.scope(Subsystem::EventQueue);
        let drained_from = self.events_processed;
        let result = loop {
            if let Some(c) = self.completions.pop_front() {
                break Some(c);
            }
            match self.events.peek_time() {
                Some(at) if at <= deadline => {
                    let (at, event) = self.events.pop().expect("peeked event exists");
                    debug_assert!(at >= self.clock, "time went backwards");
                    self.clock = at;
                    self.events_processed += 1;
                    self.handle(event);
                }
                _ => {
                    self.clock = self.clock.max(deadline);
                    break None;
                }
            }
        };
        self.flush_batches(&prof, drained_from);
        result
    }

    /// Hand the drain's batch counters to the profiler, below the open
    /// `event_queue` scope: the events dispatched since
    /// `drained_from`, and the broker's matchmaking scans.
    fn flush_batches(&mut self, prof: &Prof, drained_from: u64) {
        prof.add_batch(Subsystem::SimStep, self.events_processed - drained_from, 0);
        let (calls, wall_nanos) = std::mem::take(&mut self.picks);
        prof.add_batch(Subsystem::PickCe, calls, wall_nanos);
    }

    /// Cancel a submitted job. Returns `true` if the job was still in
    /// flight (it is removed from whatever stage it had reached and
    /// will never surface a completion), `false` if it had already been
    /// delivered or cancelled. A cancelled attempt that is mid-execution
    /// keeps its worker slot busy until the scheduled finish — the
    /// batch system cannot reclaim a running 2006-era worker — but its
    /// result is discarded.
    pub fn cancel(&mut self, job: JobId) -> bool {
        let Some(state) = self.jobs.get_mut(job.0 as usize) else {
            return false;
        };
        if state.done || state.cancelled {
            return false;
        }
        state.cancelled = true;
        self.outstanding -= 1;
        // If the job is still sitting in a CE batch queue, pull it out
        // so it does not occupy a slot later.
        for i in 0..self.ces.len() {
            if let Some(pos) = self.ces[i]
                .queue
                .iter()
                .position(|o| matches!(o, Occupant::User(j) if *j == job))
            {
                self.ces[i].queue.remove(pos);
                self.emit_ce_capacity(CeId(i));
                break;
            }
        }
        self.emit(|sim| SimEvent::JobCancelled {
            at: sim.clock,
            job,
            tag: sim.jobs[job.0 as usize].spec.tag,
        });
        true
    }

    /// Blacklist (or un-blacklist) a computing element on the
    /// submitter's side: the broker stops matching new jobs onto it,
    /// exactly as if it were down, while running and queued occupants
    /// drain normally.
    pub fn set_ce_blocked(&mut self, ce: usize, blocked: bool) {
        if let Some(state) = self.ces.get_mut(ce) {
            state.blocked = blocked;
        }
    }

    fn schedule_in(&mut self, delay_secs: f64, event: Event) {
        self.events
            .schedule(self.clock + SimDuration::from_secs_f64(delay_secs), event);
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::BrokerReceives { job } => self.on_broker_receives(job),
            Event::CeReceives { job, ce } => self.on_ce_receives(job, ce),
            Event::WorkerFinishes { ce, job } => self.on_worker_finishes(ce, job),
            Event::BackgroundArrival { ce } => self.on_background_arrival(ce),
            Event::FailureDetected { job } => self.on_failure_detected(job),
            Event::CompletionDelivered { job } => self.on_completion_delivered(job),
            Event::InfoRefresh => self.on_info_refresh(),
            Event::CeDown { ce } => self.on_ce_down(ce),
            Event::CeUp { ce } => self.on_ce_up(ce),
        }
    }

    fn on_ce_down(&mut self, ce_id: CeId) {
        self.ces[ce_id.0].up = false;
        if let Some(dt) = self.ces[ce_id.0].cfg.downtime {
            self.schedule_in(dt.duration, Event::CeUp { ce: ce_id });
        }
        self.emit_ce_capacity(ce_id);
    }

    fn on_ce_up(&mut self, ce_id: CeId) {
        self.ces[ce_id.0].up = true;
        if let Some(dt) = self.ces[ce_id.0].cfg.downtime {
            self.schedule_in(dt.period, Event::CeDown { ce: ce_id });
        }
        self.emit_ce_capacity(ce_id);
        self.try_dispatch(ce_id);
    }

    /// Rank CEs by the broker's stale backlog estimates, normalised by
    /// capacity — the LCG2 "estimated traversal time" rank. CEs that
    /// are down (maintenance window) or blacklisted by the submitter
    /// are skipped; only when every CE is unavailable does the broker
    /// fall back to the least-bad one, modelling a match that will sit
    /// in its queue until the CE returns.
    fn pick_ce(&mut self) -> CeId {
        let started = self.prof.is_enabled().then(Instant::now);
        let mut best_available: Option<usize> = None;
        let mut best_available_rank = f64::INFINITY;
        let mut best_any = 0usize;
        let mut best_any_rank = f64::INFINITY;
        for (i, ce) in self.ces.iter().enumerate() {
            let backlog = self.broker_view[i] as f64;
            let slots = ce.cfg.slots as f64;
            let wait_estimate =
                (backlog - slots + 1.0).max(0.0) / slots * self.config.typical_job_duration;
            // Small noise so equally-ranked CEs share the load instead
            // of all jobs herding onto index 0. Sampled for every CE —
            // available or not — so the RNG stream (and therefore any
            // same-seed timeline) does not depend on availability.
            let rank = wait_estimate / ce.cfg.speed
                + self.rng.uniform() * 0.05 * self.config.typical_job_duration;
            if rank < best_any_rank {
                best_any_rank = rank;
                best_any = i;
            }
            if ce.up && !ce.blocked && rank < best_available_rank {
                best_available_rank = rank;
                best_available = Some(i);
            }
        }
        let best = best_available.unwrap_or(best_any);
        // The broker optimistically counts its own decision.
        self.broker_view[best] += 1;
        if let Some(started) = started {
            self.picks.0 += 1;
            self.picks.1 += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
        CeId(best)
    }

    fn on_broker_receives(&mut self, job: JobId) {
        if self.jobs[job.0 as usize].cancelled {
            return;
        }
        let ce = self.pick_ce();
        self.jobs[job.0 as usize].record.matched_at = self.clock;
        let delay = self.config.match_delay.sample(&mut self.rng);
        self.schedule_in(delay, Event::CeReceives { job, ce });
        self.emit(|sim| SimEvent::JobMatched {
            at: sim.clock,
            job,
            tag: sim.jobs[job.0 as usize].spec.tag,
            ce,
        });
    }

    fn on_ce_receives(&mut self, job: JobId, ce: CeId) {
        if self.jobs[job.0 as usize].cancelled {
            return;
        }
        {
            let rec = &mut self.jobs[job.0 as usize].record;
            rec.enqueued_at = self.clock;
            rec.ce = Some(ce);
            rec.attempts += 1;
        }
        self.ces[ce.0].queue.push_back(Occupant::User(job));
        self.emit(|sim| SimEvent::JobEnqueued {
            at: sim.clock,
            job,
            tag: sim.jobs[job.0 as usize].spec.tag,
            ce,
            attempt: sim.jobs[job.0 as usize].record.attempts,
        });
        self.emit_ce_capacity(ce);
        self.try_dispatch(ce);
    }

    /// Move queued occupants onto free worker slots.
    fn try_dispatch(&mut self, ce_id: CeId) {
        let mut dispatched = false;
        loop {
            let ce = &mut self.ces[ce_id.0];
            if !ce.up || ce.busy >= ce.cfg.slots || ce.queue.is_empty() {
                break;
            }
            let occupant = match ce.cfg.discipline {
                QueueDiscipline::Fifo => ce.queue.pop_front().expect("checked non-empty"),
                QueueDiscipline::UserPriority => {
                    let pos = ce
                        .queue
                        .iter()
                        .position(|o| matches!(o, Occupant::User(_)))
                        .unwrap_or(0);
                    ce.queue.remove(pos).expect("position is in range")
                }
            };
            ce.busy += 1;
            dispatched = true;
            match occupant {
                Occupant::Background { duration_secs } => {
                    self.schedule_in(
                        duration_secs,
                        Event::WorkerFinishes {
                            ce: ce_id,
                            job: None,
                        },
                    );
                }
                Occupant::User(job) => {
                    let speed = self.ces[ce_id.0].cfg.speed;
                    let runtime = self.start_user_job(job, speed);
                    self.schedule_in(
                        runtime,
                        Event::WorkerFinishes {
                            ce: ce_id,
                            job: Some(job),
                        },
                    );
                    self.emit(|sim| SimEvent::JobStarted {
                        at: sim.clock,
                        job,
                        tag: sim.jobs[job.0 as usize].spec.tag,
                        ce: ce_id,
                    });
                    self.emit(|sim| {
                        let state = &sim.jobs[job.0 as usize];
                        SimEvent::LinkTransfer {
                            at: sim.clock,
                            job,
                            tag: state.spec.tag,
                            ce: ce_id,
                            bytes_in: state.spec.total_input_bytes(),
                            bytes_out: state.spec.total_output_bytes(),
                            stage_in_secs: state.record.stage_in.as_secs_f64(),
                            stage_out_secs: state.record.stage_out.as_secs_f64(),
                        }
                    });
                }
            }
        }
        if dispatched {
            self.emit_ce_capacity(ce_id);
        }
    }

    /// Record start-of-execution bookkeeping; returns the wall runtime
    /// (stage-in + compute + stage-out) in seconds.
    fn start_user_job(&mut self, job: JobId, speed: f64) -> f64 {
        let congestion = 1.0 + self.config.network.congestion * self.active_user_jobs as f64;
        self.active_user_jobs += 1;
        let jitter = self.config.compute_jitter.sample(&mut self.rng);
        let state = &mut self.jobs[job.0 as usize];
        let net = &self.config.network;
        let xfer = |bytes: u64| (net.transfer_latency + bytes as f64 / net.bandwidth) * congestion;
        let stage_in: f64 = state.spec.input_files.iter().map(|&b| xfer(b)).sum();
        let stage_out: f64 = state.spec.output_files.iter().map(|&b| xfer(b)).sum();
        let compute = state.spec.compute_seconds * jitter / speed;
        state.record.started_at = self.clock;
        state.record.stage_in = SimDuration::from_secs_f64(stage_in);
        state.record.compute = SimDuration::from_secs_f64(compute);
        state.record.stage_out = SimDuration::from_secs_f64(stage_out);
        stage_in + compute + stage_out
    }

    fn on_worker_finishes(&mut self, ce: CeId, job: Option<JobId>) {
        self.ces[ce.0].busy -= 1;
        if let Some(job) = job {
            self.active_user_jobs -= 1;
            if self.jobs[job.0 as usize].cancelled {
                // The slot drained; the discarded result goes nowhere.
                self.emit_ce_capacity(ce);
                self.try_dispatch(ce);
                return;
            }
            let attempts = self.jobs[job.0 as usize].record.attempts;
            let failed = self.rng.chance(self.config.failure_probability);
            if failed && attempts <= self.config.max_retries {
                let delay = self.config.failure_detection.sample(&mut self.rng);
                self.schedule_in(delay, Event::FailureDetected { job });
                self.emit(|sim| SimEvent::JobFinished {
                    at: sim.clock,
                    job,
                    tag: sim.jobs[job.0 as usize].spec.tag,
                    ce,
                    outcome: JobOutcome::Failed,
                });
            } else {
                let outcome = if failed {
                    JobOutcome::Failed
                } else {
                    JobOutcome::Success
                };
                let rec = &mut self.jobs[job.0 as usize].record;
                rec.finished_at = self.clock;
                rec.outcome = outcome;
                let delay = self.config.notify_delay.sample(&mut self.rng);
                self.schedule_in(delay, Event::CompletionDelivered { job });
                self.emit(|sim| SimEvent::JobFinished {
                    at: sim.clock,
                    job,
                    tag: sim.jobs[job.0 as usize].spec.tag,
                    ce,
                    outcome,
                });
            }
        }
        self.emit_ce_capacity(ce);
        self.try_dispatch(ce);
    }

    fn on_background_arrival(&mut self, ce_id: CeId) {
        self.background_arrivals += 1;
        let now_secs = self.clock.as_secs_f64();
        let ce = &mut self.ces[ce_id.0];
        let duration = ce.cfg.background_duration.sample(&mut ce.rng);
        ce.queue.push_back(Occupant::Background {
            duration_secs: duration,
        });
        if let Some(inter) = ce.cfg.background_interarrival.clone() {
            let mut dt = inter.sample(&mut ce.rng);
            if ce.cfg.diurnal_amplitude > 0.0 {
                // Higher arrival rate (shorter inter-arrival) around the
                // diurnal peak.
                let phase = std::f64::consts::TAU * now_secs / 86_400.0;
                let rate = 1.0 + ce.cfg.diurnal_amplitude.min(0.95) * phase.sin();
                dt /= rate.max(0.05);
            }
            self.schedule_in(dt, Event::BackgroundArrival { ce: ce_id });
        }
        self.try_dispatch(ce_id);
    }

    /// A failed attempt becomes visible; resubmit through the whole
    /// chain (the paper: "D0 was submitted twice because an error
    /// occurred").
    fn on_failure_detected(&mut self, job: JobId) {
        if self.jobs[job.0 as usize].cancelled {
            return;
        }
        let delay = self.config.submission_overhead.sample(&mut self.rng);
        self.schedule_in(delay, Event::BrokerReceives { job });
        self.emit(|sim| SimEvent::JobResubmitted {
            at: sim.clock,
            job,
            tag: sim.jobs[job.0 as usize].spec.tag,
            attempt: sim.jobs[job.0 as usize].record.attempts,
        });
    }

    fn on_completion_delivered(&mut self, job: JobId) {
        let state = &mut self.jobs[job.0 as usize];
        if state.cancelled {
            return;
        }
        debug_assert!(!state.done, "double delivery for {job:?}");
        state.done = true;
        state.record.delivered_at = self.clock;
        self.outstanding -= 1;
        let tag = state.spec.tag;
        let outcome = state.record.outcome;
        // Move the canonical record into the delivery log and clone only
        // the completion's copy — a delivered JobState's record is never
        // read again, so this halves the per-delivery allocations the
        // profiler flagged.
        let record = std::mem::replace(&mut state.record, Self::drained_record(job));
        self.completions.push_back(GridJobCompletion {
            id: job,
            tag,
            outcome,
            delivered_at: self.clock,
            record: record.clone(),
        });
        self.finished_records.push(record);
        self.emit(|sim| SimEvent::JobDelivered {
            at: sim.clock,
            job,
            tag,
            outcome,
        });
    }

    /// Allocation-free placeholder left in a delivered [`JobState`]'s
    /// record slot (never read again: `done` gates every later access).
    fn drained_record(job: JobId) -> JobRecord {
        JobRecord {
            id: job,
            name: String::new(),
            tag: 0,
            submitted_at: SimTime::ZERO,
            matched_at: SimTime::ZERO,
            enqueued_at: SimTime::ZERO,
            started_at: SimTime::ZERO,
            finished_at: SimTime::ZERO,
            delivered_at: SimTime::ZERO,
            ce: None,
            attempts: 0,
            stage_in: SimDuration::ZERO,
            compute: SimDuration::ZERO,
            stage_out: SimDuration::ZERO,
            outcome: JobOutcome::Success,
        }
    }

    fn on_info_refresh(&mut self) {
        for (view, ce) in self.broker_view.iter_mut().zip(&self.ces) {
            *view = ce.backlog();
        }
        let period = self.config.info_refresh_period;
        self.schedule_in(period, Event::InfoRefresh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::rng::Distribution;

    fn quiet_config() -> GridConfig {
        // Deterministic single-CE grid with fixed overheads.
        GridConfig {
            ces: vec![CeConfig::new("ce", 2, 1.0)],
            submission_overhead: Distribution::Constant(10.0),
            match_delay: Distribution::Constant(5.0),
            notify_delay: Distribution::Constant(1.0),
            failure_probability: 0.0,
            failure_detection: Distribution::Constant(0.0),
            max_retries: 0,
            network: NetworkConfig {
                transfer_latency: 2.0,
                bandwidth: 1e6,
                congestion: 0.0,
            },
            typical_job_duration: 100.0,
            info_refresh_period: 60.0,
            compute_jitter: Distribution::Constant(1.0),
        }
    }

    #[test]
    fn single_job_timeline_is_exact() {
        let mut sim = GridSim::new(quiet_config(), 1);
        sim.submit(GridJobSpec::new("j", 100.0).with_files(vec![1_000_000], vec![2_000_000]));
        let c = sim.next_completion().expect("job completes");
        // 10 submit + 5 match + 0 queue + (2+1) stage-in + 100 compute
        // + (2+2) stage-out + 1 notify = 123.
        assert_eq!(c.outcome, JobOutcome::Success);
        assert!(
            (c.delivered_at.as_secs_f64() - 123.0).abs() < 1e-6,
            "{}",
            c.delivered_at
        );
        assert!((c.record.queue_wait().as_secs_f64()).abs() < 1e-6);
        assert_eq!(c.record.attempts, 1);
    }

    #[test]
    fn no_jobs_means_no_completion_and_no_time_advance() {
        let mut sim = GridSim::new(quiet_config(), 1);
        assert!(sim.next_completion().is_none());
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn two_slots_run_two_jobs_in_parallel_third_queues() {
        let mut sim = GridSim::new(quiet_config(), 1);
        for _ in 0..3 {
            sim.submit(GridJobSpec::new("j", 100.0));
        }
        let mut deliveries: Vec<f64> = (0..3)
            .map(|_| sim.next_completion().unwrap().delivered_at.as_secs_f64())
            .collect();
        deliveries.sort_by(f64::total_cmp);
        // First two at 15 + 100 + 1 = 116; third waits 100s: 216.
        assert!((deliveries[0] - 116.0).abs() < 1e-6, "{deliveries:?}");
        assert!((deliveries[1] - 116.0).abs() < 1e-6, "{deliveries:?}");
        assert!((deliveries[2] - 216.0).abs() < 1e-6, "{deliveries:?}");
    }

    #[test]
    fn failures_cause_resubmission_and_extra_attempts() {
        let mut cfg = quiet_config();
        cfg.failure_probability = 1.0; // every attempt fails
        cfg.max_retries = 2;
        cfg.failure_detection = Distribution::Constant(50.0);
        let mut sim = GridSim::new(cfg, 1);
        sim.submit(GridJobSpec::new("j", 100.0));
        let c = sim.next_completion().unwrap();
        assert_eq!(c.outcome, JobOutcome::Failed);
        assert_eq!(c.record.attempts, 3); // initial + 2 retries
                                          // Each attempt costs 15 + 100; retries add 50 detect + 10 + 5.
        assert!(c.delivered_at.as_secs_f64() > 300.0);
    }

    #[test]
    fn retry_can_succeed_when_failure_is_probabilistic() {
        let mut cfg = quiet_config();
        cfg.failure_probability = 0.5;
        cfg.max_retries = 10;
        cfg.failure_detection = Distribution::Constant(5.0);
        let mut sim = GridSim::new(cfg, 7);
        for _ in 0..20 {
            sim.submit(GridJobSpec::new("j", 10.0));
        }
        let mut successes = 0;
        let mut max_attempts = 0;
        while let Some(c) = sim.next_completion() {
            if c.outcome == JobOutcome::Success {
                successes += 1;
            }
            max_attempts = max_attempts.max(c.record.attempts);
        }
        assert_eq!(
            successes, 20,
            "p=0.5 with 10 retries virtually always succeeds"
        );
        assert!(max_attempts > 1, "some job should have retried");
    }

    #[test]
    fn background_load_delays_user_jobs() {
        let mut cfg = quiet_config();
        cfg.ces[0].initial_backlog = 4; // 2 slots busy + 2 queued
        cfg.ces[0].background_duration = Distribution::Constant(1000.0);
        let mut sim = GridSim::new(cfg, 1);
        sim.submit(GridJobSpec::new("j", 100.0));
        let c = sim.next_completion().unwrap();
        // Must wait for two background waves: queue wait ≈ 2000 - 15.
        assert!(
            c.record.queue_wait().as_secs_f64() > 1900.0,
            "{:?}",
            c.record.queue_wait()
        );
    }

    #[test]
    fn same_seed_same_timeline_different_seed_differs() {
        let run = |seed: u64| {
            let mut sim = GridSim::new(GridConfig::egee_2006(), seed);
            for i in 0..10 {
                sim.submit(
                    GridJobSpec::new(format!("j{i}"), 120.0)
                        .with_files(vec![7_800_000], vec![1_000_000]),
                );
            }
            let mut times = Vec::new();
            while let Some(c) = sim.next_completion() {
                times.push(c.delivered_at.0);
            }
            times
        };
        assert_eq!(run(42), run(42), "same seed must reproduce exactly");
        assert_ne!(run(42), run(43), "different seeds should differ");
    }

    #[test]
    fn egee_overheads_are_minutes_scale_and_variable() {
        let mut sim = GridSim::new(GridConfig::egee_2006(), 11);
        for i in 0..60 {
            sim.submit(
                GridJobSpec::new(format!("j{i}"), 120.0).with_files(vec![7_800_000], vec![500_000]),
            );
        }
        let mut overheads = Vec::new();
        while let Some(c) = sim.next_completion() {
            if c.outcome == JobOutcome::Success {
                overheads.push(c.record.overhead().as_secs_f64());
            }
        }
        assert!(overheads.len() > 50);
        let mean = overheads.iter().sum::<f64>() / overheads.len() as f64;
        let var = overheads
            .iter()
            .map(|o| (o - mean) * (o - mean))
            .sum::<f64>()
            / overheads.len() as f64;
        // Paper: "around 10 minutes ... quite variable (± 5 minutes)".
        assert!(mean > 180.0 && mean < 2400.0, "mean overhead {mean}");
        assert!(
            var.sqrt() > 60.0,
            "overhead std-dev {} too small",
            var.sqrt()
        );
    }

    #[test]
    fn ideal_grid_job_takes_exactly_its_compute_time() {
        let mut sim = GridSim::new(GridConfig::ideal(), 3);
        sim.submit(GridJobSpec::new("j", 250.0).with_files(vec![10], vec![10]));
        let c = sim.next_completion().unwrap();
        assert!((c.delivered_at.as_secs_f64() - 250.0).abs() < 1e-6);
        assert_eq!(c.record.overhead(), SimDuration::ZERO);
    }

    #[test]
    fn ideal_grid_runs_thousands_of_jobs_fully_parallel() {
        let mut sim = GridSim::new(GridConfig::ideal(), 3);
        for _ in 0..2000 {
            sim.submit(GridJobSpec::new("j", 100.0));
        }
        let mut last = 0.0f64;
        let mut n = 0;
        while let Some(c) = sim.next_completion() {
            last = last.max(c.delivered_at.as_secs_f64());
            n += 1;
        }
        assert_eq!(n, 2000);
        assert!(
            (last - 100.0).abs() < 1e-6,
            "all jobs run concurrently: {last}"
        );
    }

    #[test]
    fn records_accumulate_in_delivery_order() {
        let mut sim = GridSim::new(quiet_config(), 1);
        sim.submit(GridJobSpec::new("a", 10.0).with_tag(1));
        sim.submit(GridJobSpec::new("b", 20.0).with_tag(2));
        while sim.next_completion().is_some() {}
        let recs = sim.records();
        assert_eq!(recs.len(), 2);
        assert!(recs[0].delivered_at <= recs[1].delivered_at);
        assert_eq!(recs[0].tag, 1);
    }

    fn two_ce_config() -> GridConfig {
        let mut cfg = quiet_config();
        cfg.ces = vec![CeConfig::new("ce0", 2, 1.0), CeConfig::new("ce1", 2, 1.0)];
        cfg
    }

    #[test]
    fn broker_skips_a_down_ce_while_another_has_free_slots() {
        use crate::config::Downtime;
        let mut cfg = two_ce_config();
        // CE 0 goes down at t=5 for a very long window — before any
        // submission (constant 10s overhead) reaches the broker.
        cfg.ces[0].downtime = Some(Downtime {
            period: 5.0,
            duration: 1_000_000.0,
        });
        let mut sim = GridSim::new(cfg, 1);
        for _ in 0..2 {
            sim.submit(GridJobSpec::new("j", 100.0));
        }
        while let Some(c) = sim.next_completion() {
            assert_eq!(c.record.ce, Some(CeId(1)), "matched onto the down CE");
            assert!(
                c.delivered_at.as_secs_f64() < 1_000.0,
                "job waited out the downtime: {}",
                c.delivered_at
            );
        }
    }

    #[test]
    fn broker_falls_back_to_a_down_ce_only_when_all_are_down() {
        use crate::config::Downtime;
        let mut cfg = quiet_config();
        cfg.ces[0].downtime = Some(Downtime {
            period: 5.0,
            duration: 500.0,
        });
        let mut sim = GridSim::new(cfg, 1);
        sim.submit(GridJobSpec::new("j", 100.0));
        let c = sim.next_completion().expect("delivered after the window");
        assert_eq!(c.record.ce, Some(CeId(0)));
        assert!(
            c.record.queue_wait().as_secs_f64() > 400.0,
            "job should sit in the queue until CeUp: {:?}",
            c.record.queue_wait()
        );
    }

    #[test]
    fn blocked_ce_receives_no_new_matches() {
        let mut sim = GridSim::new(two_ce_config(), 1);
        sim.set_ce_blocked(0, true);
        for _ in 0..4 {
            sim.submit(GridJobSpec::new("j", 50.0));
        }
        let mut n = 0;
        while let Some(c) = sim.next_completion() {
            assert_eq!(c.record.ce, Some(CeId(1)));
            n += 1;
        }
        assert_eq!(n, 4);
    }

    #[test]
    fn cancelled_job_never_surfaces_a_completion() {
        let mut sim = GridSim::new(quiet_config(), 1);
        let keep = sim.submit(GridJobSpec::new("keep", 100.0));
        let drop = sim.submit(GridJobSpec::new("drop", 100.0));
        assert!(sim.cancel(drop), "first cancel succeeds");
        assert!(!sim.cancel(drop), "second cancel is a no-op");
        assert_eq!(sim.outstanding(), 1);
        let c = sim.next_completion().expect("surviving job completes");
        assert_eq!(c.id, keep);
        assert!(sim.next_completion().is_none());
    }

    #[test]
    fn cancelling_a_queued_job_frees_its_queue_slot() {
        let mut sim = GridSim::new(quiet_config(), 1);
        // Two slots: jobs 0 and 1 run, job 2 queues behind them.
        let ids: Vec<JobId> = (0..3)
            .map(|_| sim.submit(GridJobSpec::new("j", 100.0)))
            .collect();
        // Wait past dispatch (t=15) by polling to the first completion.
        let first = sim.next_completion().unwrap();
        assert!((first.delivered_at.as_secs_f64() - 116.0).abs() < 1e-6);
        assert!(sim.cancel(ids[2]), "queued job can be cancelled");
        let second = sim.next_completion().unwrap();
        assert!((second.delivered_at.as_secs_f64() - 116.0).abs() < 1e-6);
        assert!(sim.next_completion().is_none(), "third was cancelled");
    }

    #[test]
    fn cancel_after_delivery_returns_false() {
        let mut sim = GridSim::new(quiet_config(), 1);
        let id = sim.submit(GridJobSpec::new("j", 10.0));
        let _ = sim.next_completion().unwrap();
        assert!(!sim.cancel(id));
    }

    #[test]
    fn next_completion_until_stops_at_the_deadline() {
        let mut sim = GridSim::new(quiet_config(), 1);
        sim.submit(GridJobSpec::new("j", 100.0)); // completes at t=116
        let none = sim.next_completion_until(SimTime::from_secs_f64(50.0));
        assert!(none.is_none());
        assert!((sim.now().as_secs_f64() - 50.0).abs() < 1e-6);
        let some = sim.next_completion_until(SimTime::from_secs_f64(500.0));
        let c = some.expect("completion before the second deadline");
        assert!((c.delivered_at.as_secs_f64() - 116.0).abs() < 1e-6);
    }

    #[test]
    fn next_completion_until_advances_time_with_nothing_outstanding() {
        let mut sim = GridSim::new(quiet_config(), 1);
        assert!(sim
            .next_completion_until(SimTime::from_secs_f64(42.0))
            .is_none());
        assert!((sim.now().as_secs_f64() - 42.0).abs() < 1e-6);
    }

    #[test]
    fn max_retries_n_means_n_plus_one_attempts() {
        for n in [0u32, 1, 3] {
            let mut cfg = quiet_config();
            cfg.failure_probability = 1.0;
            cfg.max_retries = n;
            cfg.failure_detection = Distribution::Constant(1.0);
            let mut sim = GridSim::new(cfg, 1);
            sim.submit(GridJobSpec::new("j", 10.0));
            let c = sim.next_completion().unwrap();
            assert_eq!(c.outcome, JobOutcome::Failed);
            assert_eq!(c.record.attempts, n + 1, "max_retries={n}");
        }
    }

    #[test]
    fn congestion_slows_transfers_when_many_jobs_active() {
        let mut cfg = quiet_config();
        cfg.ces[0].slots = 100;
        cfg.network.congestion = 0.05;
        let mut sim = GridSim::new(cfg, 1);
        for _ in 0..50 {
            sim.submit(GridJobSpec::new("j", 10.0).with_files(vec![10_000_000], vec![]));
        }
        let mut max_stage_in = 0.0f64;
        let mut min_stage_in = f64::INFINITY;
        while let Some(c) = sim.next_completion() {
            max_stage_in = max_stage_in.max(c.record.stage_in.as_secs_f64());
            min_stage_in = min_stage_in.min(c.record.stage_in.as_secs_f64());
        }
        assert!(
            max_stage_in > 1.5 * min_stage_in,
            "later dispatches should see congestion: {min_stage_in} vs {max_stage_in}"
        );
    }
}

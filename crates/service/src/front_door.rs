//! The threaded ingest front door: a bounded submission queue in front of
//! a worker thread that owns the manager and drives batched admission.
//!
//! Producers call [`IngestService::submit`] and return immediately — the
//! admission probe, the CP solve, and the schedule installation all happen
//! on the worker. The worker closes a batch when it holds
//! [`FrontDoorConfig::max_batch`] jobs or the oldest buffered arrival has
//! waited [`FrontDoorConfig::max_linger`] of wall time, whichever comes
//! first — the same two-knob policy the simulation driver's
//! [`mrcp::IngestConfig`] applies in virtual time.
//!
//! ## Backpressure
//!
//! The queue is bounded at [`FrontDoorConfig::queue_cap`]. An arrival that
//! finds it full triggers *value-based shedding*: among the queued jobs
//! and the newcomer, the one with the largest laxity
//! (`deadline − arrival − total work`) is dropped — it has the most slack
//! to be resubmitted later, so shedding it forfeits the least SLA value.
//! This mirrors the least-laxity ordering of §VI.B and complements the
//! manager's own admission control (which still probes every job that
//! makes it through the queue).
//!
//! ## Clocks
//!
//! The manager lives in simulated milliseconds; producers live in wall
//! time. [`FrontDoorConfig::sim_speed`] maps one wall second to that many
//! simulated seconds, letting tests and benches compress hour-long
//! workloads into milliseconds of wall time while the linger policy still
//! operates on real wall delays.

use crate::instrument::InstrumentedRm;
use desim::SimTime;
use mrcp::sim_driver::ResourceManager;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use workload::Job;

/// Tuning knobs for the threaded front door.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontDoorConfig {
    /// Close a batch as soon as it holds this many jobs (≥ 1).
    pub max_batch: usize,
    /// Close a batch once its oldest job has waited this long (wall time).
    pub max_linger: Duration,
    /// Bounded queue depth; beyond it value-based shedding kicks in.
    pub queue_cap: usize,
    /// Simulated seconds that elapse per wall second.
    pub sim_speed: f64,
}

impl Default for FrontDoorConfig {
    fn default() -> Self {
        FrontDoorConfig {
            max_batch: 32,
            max_linger: Duration::from_millis(50),
            queue_cap: 1024,
            sim_speed: 1.0,
        }
    }
}

/// Why a submission was not enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue was full and this job had the most slack of every
    /// candidate, so it was the one shed.
    Shed,
    /// The service has been closed; no further submissions are accepted.
    Closed,
}

/// End-of-run accounting from the front door itself (the manager-side
/// view lives in [`crate::IngestMetrics`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontDoorReport {
    /// Jobs offered via [`IngestService::submit`].
    pub offered: u64,
    /// Jobs that reached the manager.
    pub delivered: u64,
    /// Jobs dropped by queue-overflow shedding (the caller's job or a
    /// queued victim).
    pub shed_overflow: u64,
    /// Batches the worker flushed.
    pub flushes: u64,
}

/// Front-door telemetry (DESIGN.md §5k): live instruments mirroring
/// [`FrontDoorReport`], recorded at the same sites that mutate it, so a
/// mid-run scrape reconciles with the end-of-run report. Defaults to the
/// disabled no-op set; strictly observational.
#[derive(Debug, Clone)]
struct SvcTel {
    bus: telemetry::EventBus,
    /// Jobs currently buffered in the submission queue.
    queue_depth: telemetry::Gauge,
    offered: telemetry::Counter,
    delivered: telemetry::Counter,
    shed: telemetry::Counter,
    flushes: telemetry::Counter,
    /// Batch size at each worker flush.
    flush_jobs: telemetry::Histogram,
}

impl SvcTel {
    fn new(tel: &telemetry::Telemetry) -> SvcTel {
        let reg = &tel.registry;
        SvcTel {
            bus: tel.bus.clone(),
            queue_depth: reg.gauge("service_queue_depth", &[]),
            offered: reg.counter("service_offered_total", &[]),
            delivered: reg.counter("service_delivered_total", &[]),
            shed: reg.counter("service_shed_total", &[]),
            flushes: reg.counter("service_flushes_total", &[]),
            flush_jobs: reg.histogram("service_flush_jobs", &[], telemetry::SIZE_BOUNDS),
        }
    }

    fn event(&self, at: SimTime, kind: telemetry::EventKind, job: Option<u64>, detail: &str) {
        self.bus.publish(telemetry::Event {
            at_ms: at.as_millis(),
            kind,
            cell: None,
            job,
            detail: detail.to_string(),
        });
    }
}

impl Default for SvcTel {
    fn default() -> SvcTel {
        SvcTel::new(&telemetry::Telemetry::disabled())
    }
}

struct State {
    queue: VecDeque<Job>,
    /// Wall instant the oldest queued job arrived — the linger anchor.
    oldest: Option<Instant>,
    open: bool,
    report: FrontDoorReport,
}

struct Shared {
    state: Mutex<State>,
    arrivals: Condvar,
}

/// Laxity in simulated milliseconds: slack remaining if the job ran all
/// its tasks back to back starting at its earliest start.
fn laxity(job: &Job) -> i64 {
    let work: i64 = job.tasks().map(|t| t.exec_time.as_millis()).sum();
    (job.deadline - job.earliest_start).as_millis() - work
}

/// The threaded front door handle. Dropping it without `close` detaches
/// the worker; call [`close`](IngestService::close) to flush and join.
pub struct IngestService<M> {
    shared: Arc<Shared>,
    cap: usize,
    worker: Option<JoinHandle<InstrumentedRm<M>>>,
    tel: SvcTel,
    /// Wall instant the service started — anchor for event timestamps.
    epoch: Instant,
    sim_speed: f64,
}

impl<M: ResourceManager + Send + 'static> IngestService<M> {
    /// Start the worker thread that owns `rm` (wrapped in an
    /// [`InstrumentedRm`]) and begin accepting submissions.
    pub fn start(rm: M, cfg: FrontDoorConfig) -> Self {
        Self::start_with_telemetry(rm, cfg, &telemetry::Telemetry::disabled())
    }

    /// [`start`](Self::start) with live telemetry: queue-depth gauge,
    /// shed counters, and a flush-size histogram register in
    /// `tel.registry`, and shed/flush events publish on `tel.bus`.
    /// Recording mirrors [`FrontDoorReport`] field for field, so a
    /// mid-run scrape reconciles with [`close`](Self::close)'s report.
    pub fn start_with_telemetry(rm: M, cfg: FrontDoorConfig, tel: &telemetry::Telemetry) -> Self {
        assert!(cfg.max_batch >= 1, "front door max_batch must be >= 1");
        assert!(cfg.queue_cap >= 1, "front door queue_cap must be >= 1");
        assert!(cfg.sim_speed > 0.0, "front door sim_speed must be positive");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                oldest: None,
                open: true,
                report: FrontDoorReport::default(),
            }),
            arrivals: Condvar::new(),
        });
        let svc_tel = SvcTel::new(tel);
        let epoch = Instant::now();
        let worker_shared = Arc::clone(&shared);
        let worker_tel = svc_tel.clone();
        let worker =
            std::thread::spawn(move || worker_loop(worker_shared, rm, cfg, worker_tel, epoch));
        IngestService {
            shared,
            cap: cfg.queue_cap,
            worker: Some(worker),
            tel: svc_tel,
            epoch,
            sim_speed: cfg.sim_speed,
        }
    }

    /// The current simulated time, for event timestamps.
    fn sim_now(&self) -> SimTime {
        SimTime::from_secs_f64(self.epoch.elapsed().as_secs_f64() * self.sim_speed)
    }

    /// Enqueue a job for batched admission. Returns immediately;
    /// `Err(Shed)` means overflow shedding chose *this* job as the victim
    /// (a queued job may have been shed instead, in which case `Ok`).
    pub fn submit(&self, job: Job) -> Result<(), SubmitError> {
        let mut st = self.shared.state.lock().expect("front door poisoned");
        if !st.open {
            return Err(SubmitError::Closed);
        }
        st.report.offered += 1;
        self.tel.offered.inc();
        if st.queue.len() >= self.cap {
            // Shed by value: drop whichever candidate has the most slack.
            let incoming = laxity(&job);
            let (victim_idx, victim_laxity) = st
                .queue
                .iter()
                .enumerate()
                .map(|(i, j)| (i, laxity(j)))
                .max_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)))
                .expect("queue_cap >= 1 so a full queue is non-empty");
            st.report.shed_overflow += 1;
            self.tel.shed.inc();
            if incoming >= victim_laxity {
                self.tel.event(
                    self.sim_now(),
                    telemetry::EventKind::IngestShed,
                    Some(u64::from(job.id.0)),
                    "arrival had the most slack",
                );
                return Err(SubmitError::Shed);
            }
            let victim = st.queue.remove(victim_idx);
            self.tel.event(
                self.sim_now(),
                telemetry::EventKind::IngestShed,
                victim.map(|v| u64::from(v.id.0)),
                "queued victim shed for a tighter arrival",
            );
        }
        if st.queue.is_empty() {
            st.oldest = Some(Instant::now());
        }
        st.queue.push_back(job);
        self.tel.queue_depth.set(st.queue.len() as i64);
        drop(st);
        self.shared.arrivals.notify_one();
        Ok(())
    }

    /// Stop accepting submissions, flush everything still queued, join
    /// the worker, and return the instrumented manager plus the front
    /// door's own report.
    pub fn close(mut self) -> (InstrumentedRm<M>, FrontDoorReport) {
        {
            let mut st = self.shared.state.lock().expect("front door poisoned");
            st.open = false;
        }
        self.shared.arrivals.notify_all();
        let rm = self
            .worker
            .take()
            .expect("close() is the only consumer of the worker handle")
            .join()
            .expect("front door worker panicked");
        let report = self
            .shared
            .state
            .lock()
            .expect("front door poisoned")
            .report;
        (rm, report)
    }
}

fn worker_loop<M: ResourceManager>(
    shared: Arc<Shared>,
    rm: M,
    cfg: FrontDoorConfig,
    tel: SvcTel,
    epoch: Instant,
) -> InstrumentedRm<M> {
    let mut rm = InstrumentedRm::new(rm);
    let sim_now = |at: Instant| -> SimTime {
        SimTime::from_secs_f64(at.duration_since(epoch).as_secs_f64() * cfg.sim_speed)
    };
    loop {
        let mut st = shared.state.lock().expect("front door poisoned");
        let batch: Vec<Job> = loop {
            if st.queue.len() >= cfg.max_batch {
                break st.queue.drain(..cfg.max_batch).collect();
            }
            let Some(oldest) = st.oldest else {
                if !st.open {
                    return rm; // closed and drained
                }
                st = shared.arrivals.wait(st).expect("front door poisoned");
                continue;
            };
            let lingered = oldest.elapsed();
            if lingered >= cfg.max_linger || !st.open {
                break st.queue.drain(..).collect();
            }
            let (guard, _timeout) = shared
                .arrivals
                .wait_timeout(st, cfg.max_linger - lingered)
                .expect("front door poisoned");
            st = guard;
        };
        st.oldest = if st.queue.is_empty() {
            None
        } else {
            // Conservative anchor for the jobs left behind by a max_batch
            // close: they inherit the drained batch's linger window.
            st.oldest
        };
        st.report.delivered += batch.len() as u64;
        st.report.flushes += 1;
        tel.delivered.add(batch.len() as u64);
        tel.flushes.inc();
        tel.flush_jobs.record(batch.len() as u64);
        tel.queue_depth.set(st.queue.len() as i64);
        drop(st);
        if batch.is_empty() {
            continue;
        }
        // One admission pass + one planning round per batch — the whole
        // point of the front door.
        let now = sim_now(Instant::now());
        tel.event(
            now,
            telemetry::EventKind::IngestFlush,
            None,
            &format!("{} jobs", batch.len()),
        );
        let _outcomes = rm.submit_batch(batch, now);
        rm.activate_due(now);
        let _plan = rm.reschedule(now);
    }
}

//! MRCP-RM inside the discrete event simulator (the §VI methodology).
//!
//! The driver feeds a finite workload of jobs into the manager as an open
//! arrival stream, executes the installed schedules, and produces the
//! paper's metrics:
//!
//! * `O` — average matchmaking and scheduling time per job (wall clock of
//!   the solver invocations divided by jobs scheduled),
//! * `N` / `P` — count / proportion of jobs missing their deadlines,
//! * `T` — average turnaround `CT_j − s_j`.
//!
//! As in the paper, scheduling happens on the manager's "own CPU": solver
//! wall time is *measured* but does not consume simulated time. The
//! installed plan's start events are the event queue's one replaceable
//! batch ([`EventQueue::replace_batch`]), replaced wholesale each round so
//! that a superseded plan leaves nothing behind to fire — mirroring how the
//! Java implementation rewrites the dispatch plan on each round.

use crate::manager::{
    AbandonedJob, AdmissionOutcome, FailureAction, JobCompletion, ManagerError, ManagerStats,
    MrcpConfig, MrcpRm, ScheduleEntry, Submitted,
};
use desim::engine::Flow;
use desim::{Engine, EventQueue, RngStreams, SimTime};
use std::collections::{HashMap, HashSet};
use workload::AttemptOutcome;
use workload::{FaultConfig, FaultModel, Job, JobId, Resource, ResourceId, TaskId};

/// How the matchmaking-and-scheduling time `O` interacts with simulated
/// time.
///
/// The paper runs MRCP-RM "on its own CPU": scheduling time is measured
/// but jobs queue while the manager is busy. [`Instantaneous`]
/// (the default, and what the paper's metrics assume) installs schedules
/// at the invocation instant; the other variants charge a simulated busy
/// period during which further arrivals batch into the same round —
/// useful for studying the regime the paper's future work targets, where
/// λ is high enough that `O` stops being negligible.
///
/// [`Instantaneous`]: OverheadModel::Instantaneous
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverheadModel {
    /// Schedules install at the invocation instant (`O` measured only).
    Instantaneous,
    /// Every scheduling round occupies the manager for a fixed interval.
    Fixed(SimTime),
    /// Round cost grows with model size: `base + per_task × tasks`,
    /// matching the paper's observation that model generation and solve
    /// time scale with the number of tasks. Admission probes are charged
    /// too (`base + per_task × submitted tasks` per submission pass), and
    /// all solve passes serialize on the manager, so a flush pays `base`
    /// once — per job under call-per-arrival ingestion, per burst under
    /// batching.
    PerTask {
        /// Fixed component per round.
        base: SimTime,
        /// Marginal cost per task in the model.
        per_task: SimTime,
    },
}

impl OverheadModel {
    fn delay(&self, n_tasks: usize) -> SimTime {
        match *self {
            OverheadModel::Instantaneous => SimTime::ZERO,
            OverheadModel::Fixed(d) => d,
            OverheadModel::PerTask { base, per_task } => base + per_task * n_tasks as i64,
        }
    }

    /// Busy time an admission probe charges to the manager. Only
    /// [`PerTask`] charges probes: the probe list-schedules the submitted
    /// jobs' tasks against the live jobs (a greedy pass, no CP model), and
    /// is charged as a round over that many tasks. `Fixed` keeps its historical
    /// meaning — a flat cost per *replan* round only — so runs that
    /// compare burst ingestion modes under `Fixed` stay comparable.
    ///
    /// [`PerTask`]: OverheadModel::PerTask
    fn probe_delay(&self, n_tasks: usize) -> SimTime {
        match *self {
            OverheadModel::Instantaneous | OverheadModel::Fixed(_) => SimTime::ZERO,
            OverheadModel::PerTask { base, per_task } => base + per_task * n_tasks as i64,
        }
    }
}

/// Arrival-coalescing knobs for the async ingest front door: instead of
/// paying one admission probe + one reschedule per arrival, the driver
/// buffers arrivals and submits them as one batch through
/// [`ResourceManager::submit_batch`], closing the batch when it reaches
/// [`max_batch`](Self::max_batch) jobs or when the oldest buffered arrival
/// has lingered [`max_linger`](Self::max_linger) — whichever comes first.
/// The CP solve cost of the post-batch reschedule is thereby amortized
/// across the burst. Fully deterministic: the flush schedule is driven by
/// the simulated clock, never by wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Flush as soon as this many arrivals are buffered (≥ 1). With
    /// `max_batch == 1` every arrival flushes inline and no linger timer
    /// is ever armed: call-per-arrival submission, which is what
    /// [`SimConfig::ingest`] `None` means.
    pub max_batch: usize,
    /// Upper bound on how long an arrival may sit in the buffer before a
    /// flush. A timer is armed when the buffer becomes non-empty; an
    /// arrival can flush *earlier* than its own linger bound when it joins
    /// a batch whose timer is already running.
    pub max_linger: SimTime,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            max_batch: 32,
            max_linger: SimTime::from_millis(50),
        }
    }
}

/// Simulation inputs: a cluster and a finite arrival-ordered job list.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Manager configuration.
    pub manager: MrcpConfig,
    /// Discard the first `warmup_jobs` completions from the metrics
    /// (steady-state measurement; the jobs still occupy resources).
    pub warmup_jobs: usize,
    /// Whether scheduling rounds consume simulated time.
    pub overhead: OverheadModel,
    /// Batched arrival ingestion. `None` is call-per-arrival submission —
    /// a `max_batch` of 1, under which `max_linger` is never consulted —
    /// through the same buffer-and-flush path as every other setting.
    pub ingest: Option<IngestConfig>,
    /// Also reschedule when a job completes (the paper replans only on
    /// arrivals; with exact execution times a completion adds no new
    /// information, but it gives a budget-limited solver another, smaller
    /// model to improve on — an extension worth ablating).
    pub reschedule_on_completion: bool,
    /// Fault injection (task failures, stragglers, resource outages). The
    /// default injects nothing, reproducing the paper's reliable-cluster
    /// assumption. When active, `faults.retry_budget` overrides
    /// `manager.retry_budget` so the injection and recovery policies agree.
    pub faults: FaultConfig,
    /// Seed for the fault processes (independent of the workload's RNG).
    pub fault_seed: u64,
    /// Manager-crash injection: kill the manager at chosen points and ask
    /// it to rebuild itself from durable state (see
    /// [`ResourceManager::crash_and_recover`]). The default injects
    /// nothing; against a non-durable manager every injected crash is a
    /// no-op.
    pub manager_crashes: ManagerCrashConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            manager: MrcpConfig::default(),
            warmup_jobs: 0,
            overhead: OverheadModel::Instantaneous,
            ingest: None,
            reschedule_on_completion: false,
            faults: FaultConfig::default(),
            fault_seed: 0,
            manager_crashes: ManagerCrashConfig::default(),
        }
    }
}

/// Manager-crash fault knob (`FaultConfig`-style, but aimed at the
/// manager process itself): the driver calls
/// [`ResourceManager::crash_and_recover`] immediately before a
/// state-mutating manager command, either at fixed command indices or on
/// an MTTF renewal process over simulated time. A durable manager drops
/// its in-memory state and rebuilds from disk; the recovery-equivalence
/// property tests assert the run's [`RunMetrics::deterministic_signature`]
/// is unchanged by any such interruption.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ManagerCrashConfig {
    /// Crash immediately before the k-th (0-based) state-mutating manager
    /// command, for each listed index — deterministic crash points for
    /// the equivalence proptests. Order and duplicates do not matter.
    pub at_commands: Vec<u64>,
    /// Renewal process: mean simulated time between manager crashes
    /// (exponential inter-crash times). `None` disables the process.
    pub mttf: Option<SimTime>,
    /// Seed for the renewal process (independent of workload and fault
    /// RNGs).
    pub seed: u64,
}

impl ManagerCrashConfig {
    /// True when any crash source is configured.
    pub fn is_active(&self) -> bool {
        !self.at_commands.is_empty() || self.mttf.is_some()
    }
}

/// Metrics of one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunMetrics {
    /// Jobs that arrived.
    pub arrived: usize,
    /// Jobs that completed (equals `arrived` when the run drains).
    pub completed: usize,
    /// Jobs measured after warm-up.
    pub measured: usize,
    /// Late jobs among measured (`N`).
    pub late: usize,
    /// Proportion of late jobs (`P`), in [0, 1].
    pub p_late: f64,
    /// Mean turnaround `CT_j − s_j` over measured jobs, seconds (`T`).
    pub mean_turnaround_s: f64,
    /// 95th-percentile turnaround over measured jobs, seconds (tail the
    /// paper's mean-only `T` hides).
    pub p95_turnaround_s: f64,
    /// Worst turnaround over measured jobs, seconds.
    pub max_turnaround_s: f64,
    /// Mean matchmaking+scheduling wall time per job, seconds (`O`).
    pub o_per_job_s: f64,
    /// Scheduling rounds run.
    pub invocations: u64,
    /// Mean solver nodes per round (deterministic overhead proxy).
    pub mean_nodes_per_round: f64,
    /// Largest model (task count) solved in a round.
    pub max_tasks_in_model: usize,
    /// Simulated end time, seconds.
    pub end_time_s: f64,
    /// Task attempts that failed mid-run.
    pub tasks_failed: u64,
    /// Tasks sent back to the queue (after a failure or a crash).
    pub tasks_requeued: u64,
    /// Attempts that straggled (ran longer than nominal).
    pub stragglers: u64,
    /// Resource down events that took effect.
    pub resource_crashes: u64,
    /// Jobs abandoned after a task exhausted its retry budget.
    pub jobs_abandoned: usize,
    /// Measured late jobs whose job was touched by a fault (failed or
    /// straggling attempt, or a crash interruption) — deadline misses
    /// attributable to the injected failures rather than to load.
    pub late_due_to_faults: usize,
    /// Scheduling rounds that fell down the degradation ladder.
    pub degraded_rounds: u64,
    /// Scheduling rounds that produced no schedule at all.
    pub failed_rounds: u64,
    /// Arrivals refused by admission control or the queue bound.
    pub jobs_rejected: u64,
    /// Arrivals admitted with a renegotiated deadline.
    pub jobs_renegotiated: u64,
    /// Admitted jobs shed later to make room for more urgent arrivals.
    pub jobs_shed: u64,
    /// High-water mark of jobs in the system at once.
    pub max_queue_depth: usize,
    /// Budget-controller scale changes over the run.
    pub budget_adaptations: u64,
    /// Longest single scheduling round, seconds (the overload figure's
    /// per-round latency bound).
    pub max_round_latency_s: f64,
    /// Rounds warm-started from the previous round's cached placements
    /// (cross-round incremental reuse).
    pub warm_rounds: u64,
    /// Round-cache invalidations (resource availability changes).
    pub cache_invalidations: u64,
    /// Injected manager crashes the manager recovered from (see
    /// [`ManagerCrashConfig`]; 0 unless crash injection is configured and
    /// the manager is durable).
    pub manager_crashes: u64,
}

impl RunMetrics {
    /// This run with every field zeroed that may legitimately differ
    /// between two runs of the same workload and seed; the rest must
    /// match bit-for-bit. Two classes are zeroed:
    ///
    /// * **wall-clock observations** — `o_per_job_s`,
    ///   `max_round_latency_s`, the latency-EWMA-driven
    ///   `budget_adaptations`, and (under a solver time limit)
    ///   `mean_nodes_per_round` measure host wall time;
    /// * **injected perturbations** — `manager_crashes` counts recoveries
    ///   the run was *subjected to*, and durable recovery must make a
    ///   crashed run indistinguishable from a clean one, so the count
    ///   itself cannot be part of the comparison.
    ///
    /// The struct is destructured exhaustively on purpose: adding a field
    /// to [`RunMetrics`] without classifying it here — deterministic, or
    /// zeroed with a reason — is a compile error, not a silent hole in
    /// the determinism and recovery-equivalence tests.
    pub fn deterministic_signature(&self) -> RunMetrics {
        let RunMetrics {
            arrived,
            completed,
            measured,
            late,
            p_late,
            mean_turnaround_s,
            p95_turnaround_s,
            max_turnaround_s,
            o_per_job_s: _,
            invocations,
            mean_nodes_per_round: _,
            max_tasks_in_model,
            end_time_s,
            tasks_failed,
            tasks_requeued,
            stragglers,
            resource_crashes,
            jobs_abandoned,
            late_due_to_faults,
            degraded_rounds,
            failed_rounds,
            jobs_rejected,
            jobs_renegotiated,
            jobs_shed,
            max_queue_depth,
            budget_adaptations: _,
            max_round_latency_s: _,
            warm_rounds,
            cache_invalidations,
            manager_crashes: _,
        } = *self;
        RunMetrics {
            arrived,
            completed,
            measured,
            late,
            p_late,
            mean_turnaround_s,
            p95_turnaround_s,
            max_turnaround_s,
            o_per_job_s: 0.0,
            invocations,
            mean_nodes_per_round: 0.0,
            max_tasks_in_model,
            end_time_s,
            tasks_failed,
            tasks_requeued,
            stragglers,
            resource_crashes,
            jobs_abandoned,
            late_due_to_faults,
            degraded_rounds,
            failed_rounds,
            jobs_rejected,
            jobs_renegotiated,
            jobs_shed,
            max_queue_depth,
            budget_adaptations: 0,
            max_round_latency_s: 0.0,
            warm_rounds,
            cache_invalidations,
            manager_crashes: 0,
        }
    }

    /// Job conservation: every arrival completed, was rejected or shed by
    /// admission control, or was abandoned after a task exhausted its
    /// retry budget — nothing lost, nothing stuck. `Err` names the gap.
    pub fn check_conservation(&self) -> Result<(), String> {
        let accounted = self.completed as u64
            + self.jobs_rejected
            + self.jobs_shed
            + self.jobs_abandoned as u64;
        if accounted == self.arrived as u64 {
            return Ok(());
        }
        Err(format!(
            "conservation broken: {} arrived but {} accounted \
             ({} completed + {} rejected + {} shed + {} abandoned)",
            self.arrived,
            accounted,
            self.completed,
            self.jobs_rejected,
            self.jobs_shed,
            self.jobs_abandoned
        ))
    }
}

/// The manager's command surface: one call per event of the paper's
/// Table 2 loop — a job arrives, a deferral falls due, a round runs, a
/// task starts, completes, straggles or fails, a resource goes down or
/// comes back. [`MrcpRm`] implements it directly; the federation
/// (`crates/cluster`) implements it over K sharded managers and
/// `durability::Durable` over any recoverable manager, so the same event
/// loop drives every stack with identical semantics.
pub trait ResourceManager {
    /// Submit an arriving job through admission control. The outcome says
    /// what the admission probe decided, whether the job joined the
    /// scheduling set or was deferred (§V.E; when it joined, the caller
    /// should [`reschedule`](Self::reschedule)), and which jobs were shed
    /// to make room.
    ///
    /// `Err` means the submission itself was malformed (duplicate ids);
    /// a rejected-but-well-formed job comes back as
    /// `Ok` with [`AdmissionDecision::Reject`] and `submitted: None`.
    ///
    /// [`AdmissionDecision::Reject`]: crate::AdmissionDecision::Reject
    fn submit_with_admission(
        &mut self,
        job: Job,
        now: SimTime,
    ) -> Result<AdmissionOutcome, ManagerError>;
    /// Submit a coalesced burst of arrivals in one pass, returning one
    /// admission outcome per job in input order. The default decomposes
    /// the batch into sequential [`submit_with_admission`] calls at the
    /// same timestamp — semantically the batch is *defined* as that
    /// sequential composition, and implementations overriding it for
    /// throughput (the federation routes a whole burst in one pass) must
    /// preserve per-job outcomes' meaning while amortizing shared work.
    ///
    /// [`submit_with_admission`]: Self::submit_with_admission
    fn submit_batch(
        &mut self,
        jobs: Vec<Job>,
        now: SimTime,
    ) -> Vec<Result<AdmissionOutcome, ManagerError>> {
        jobs.into_iter()
            .map(|j| self.submit_with_admission(j, now))
            .collect()
    }
    /// Admit deferred jobs whose activation time has arrived. Returns how
    /// many became active (if > 0 the caller should reschedule).
    fn activate_due(&mut self, now: SimTime) -> usize;
    /// Run one scheduling round (Table 2). Remaps and reschedules every
    /// active, unstarted task; pins running tasks. Returns the new plan for
    /// unstarted tasks (the host should arm start events from it).
    fn reschedule(&mut self, now: SimTime) -> Vec<ScheduleEntry>;
    /// The host reports that a task began executing at `now` per the
    /// current schedule. Returns the resource it runs on.
    fn task_started(&mut self, task: TaskId, now: SimTime) -> Result<ResourceId, ManagerError>;
    /// The host reports task completion. Returns the job's completion
    /// record when this was its last task (the job then leaves the system,
    /// Table 2 lines 13–16).
    fn task_completed(
        &mut self,
        task: TaskId,
        now: SimTime,
    ) -> Result<Option<JobCompletion>, ManagerError>;
    /// The host reports that a running task's execution time is now known
    /// to differ from its estimate (a detected straggler). The revised
    /// value is carried into subsequent scheduling rounds so the solver
    /// plans around the longer occupancy; the caller should reschedule.
    /// The call carries no time: the host sends it at the instant of the
    /// task's start.
    fn task_duration_revised(
        &mut self,
        task: TaskId,
        new_exec: SimTime,
    ) -> Result<(), ManagerError>;
    /// The host reports that a running task's attempt failed at `now`.
    /// Charges one failed attempt; within the retry budget the task goes
    /// back to the waiting queue (its execution time reset to the nominal
    /// `e_t`) and the caller should reschedule. Beyond the budget the whole
    /// job is abandoned and leaves the system.
    fn task_failed(&mut self, task: TaskId, now: SimTime) -> Result<FailureAction, ManagerError>;
    /// The host reports that a resource crashed at `now`. The resource is
    /// excluded from subsequent scheduling rounds; every task running on it
    /// is un-pinned and requeued (without charging its retry budget — a
    /// machine crash is not the task's fault), and planned-but-unstarted
    /// work assigned to it is dropped from the current plan. Returns the
    /// interrupted (previously running) tasks; the caller should invalidate
    /// any events held for them and reschedule.
    fn resource_down(&mut self, rid: ResourceId, now: SimTime)
        -> Result<Vec<TaskId>, ManagerError>;
    /// The host reports that a crashed resource recovered at `now`; it
    /// rejoins the pool on the next scheduling round (the caller should
    /// reschedule to use the regained capacity).
    fn resource_up(&mut self, rid: ResourceId, now: SimTime) -> Result<(), ManagerError>;
    /// Number of jobs currently in the system (active + deferred).
    fn jobs_in_system(&self) -> usize;
    /// Aggregate statistics — fleet-aggregated for multi-cell managers.
    fn stats(&self) -> ManagerStats;
    /// Simulate a manager-process crash at `now`: drop all in-memory
    /// state and rebuild from durable storage. Returns `true` when a
    /// recovery actually happened; the default is a no-op `false` for
    /// managers with no durability layer (their state would simply be
    /// lost, which is exactly the failure mode `crates/durability`
    /// exists to remove).
    fn crash_and_recover(&mut self, now: SimTime) -> bool {
        let _ = now;
        false
    }
}

#[derive(Debug)]
enum Ev {
    Arrival(usize),
    /// The ingest linger timer fired: flush whatever is buffered. A stale
    /// timer (the buffer already flushed on `max_batch`) is a no-op.
    Flush,
    Activate,
    /// The manager's busy period ends; install the (re)computed schedule.
    Install,
    /// A start from the installed plan: the queue's batch holds only the
    /// current plan's entries, so every one that fires is live unless its
    /// job left the system or an outage dropped the task.
    TaskStart {
        task: TaskId,
    },
    /// Completion of one *attempt*; stale once the attempt is superseded
    /// (failed, interrupted by a crash, or its job abandoned).
    TaskComplete {
        task: TaskId,
        attempt: u32,
    },
    /// Mid-run failure of one attempt, same staleness rule.
    TaskFail {
        task: TaskId,
        attempt: u32,
    },
    /// A resource crashes. `up_after` is the outage duration for scheduled
    /// windows; `None` means a random crash whose repair time is sampled.
    ResourceDown {
        resource: ResourceId,
        up_after: Option<SimTime>,
    },
    ResourceUp {
        resource: ResourceId,
    },
}

/// What the driver holds per task, from the flush that admits its job
/// until the task completes or its job is shed or abandoned.
struct TaskRun {
    /// Owning job, for fault attribution.
    job: JobId,
    exec_time: SimTime,
    /// Attempts started so far.
    attempts: u32,
    /// The running attempt; a pending completion/failure event is live
    /// only while it carries this number.
    running: Option<u32>,
}

struct Driver<M: ResourceManager> {
    rm: M,
    jobs: Vec<Option<Job>>,
    total_jobs: usize,
    /// Latest time of any start a replaced plan dropped unfired. The run
    /// ends at the later of this and the last event: `end_time_s` counts a
    /// superseded start as an event at its planned time.
    horizon: SimTime,
    tasks: HashMap<TaskId, TaskRun>,
    /// Jobs touched by any fault, for `late_due_to_faults`.
    fault_jobs: HashSet<JobId>,
    faults: Option<FaultModel>,
    stragglers: u64,
    resource_crashes: u64,
    jobs_abandoned: usize,
    /// Manager-crash injection: pending fixed crash points (sorted
    /// descending; consumed from the back as the command counter passes
    /// them), the renewal-process state, and performed recoveries.
    crash_at: Vec<u64>,
    commands: u64,
    crash_next: Option<SimTime>,
    crash_rng: Option<rand::rngs::StdRng>,
    crash_mttf_s: f64,
    manager_crashes: u64,
    completions: Vec<JobOutcome>,
    arrived: usize,
    overhead: OverheadModel,
    /// An Install event is pending: arrivals batch into it (the paper's
    /// job queue while the RM is busy).
    install_pending: bool,
    reschedule_on_completion: bool,
    /// Arrival coalescing ([`SimConfig::ingest`] `None` arrives here as
    /// `max_batch` 1).
    ingest: IngestConfig,
    /// Arrivals buffered since the last flush.
    ingest_buf: Vec<Job>,
    /// A linger [`Ev::Flush`] is in flight. Not reset by a `max_batch`
    /// flush: the stale timer then fires as a (possibly empty) early
    /// flush, which only ever *shortens* an arrival's linger bound.
    flush_pending: bool,
    /// The manager-as-single-server busy horizon: admission probes and
    /// replan rounds serialize on the manager's CPU, so each solve pass
    /// extends this and installs fire no earlier than it. This is where
    /// call-per-arrival ingestion pays `O` once per job while a batched
    /// flush pays it once per burst.
    busy_until: SimTime,
}

impl<M: ResourceManager> Driver<M> {
    /// Manager-crash gate, run immediately before every state-mutating
    /// manager command. A crash between two commands is fully general:
    /// commands are atomic with respect to the manager's durable state,
    /// so "after command k" and "before command k+1" are the same point.
    fn pre_command(&mut self, now: SimTime) {
        let mut due = false;
        while self.crash_at.last() == Some(&self.commands) {
            self.crash_at.pop();
            due = true;
        }
        if let (Some(next), Some(rng)) = (self.crash_next, self.crash_rng.as_mut()) {
            if now >= next {
                due = true;
                let gap = workload::dist::Exponential::new(1.0 / self.crash_mttf_s).sample(rng);
                self.crash_next =
                    Some(now + SimTime::from_secs_f64(gap).max(SimTime::from_millis(1)));
            }
        }
        self.commands += 1;
        if due && self.rm.crash_and_recover(now) {
            self.manager_crashes += 1;
        }
    }

    fn install(&mut self, now: SimTime, queue: &mut EventQueue<Ev>) {
        self.pre_command(now);
        let mut plan = self.rm.reschedule(now);
        // A `ResourceManager` need not return its plan sorted, and the
        // batch wants time order. The sort is stable: equal starts fire in
        // the order the manager listed them.
        if !plan.is_sorted_by_key(|e| e.start) {
            plan.sort_by_key(|e| e.start);
        }
        debug_assert!(
            {
                let mut seen = HashSet::with_capacity(plan.len());
                plan.iter().all(|e| seen.insert(e.task))
            },
            "a plan names each task once"
        );
        let starts = plan
            .into_iter()
            .map(|e| (e.start, Ev::TaskStart { task: e.task }));
        if let Some(dropped) = queue.replace_batch(starts) {
            self.horizon = self.horizon.max(dropped);
        }
    }

    /// The workload is exhausted and every job has left the system: the
    /// crash renewal process must stop re-arming or the run never ends.
    fn drained(&self) -> bool {
        self.arrived == self.total_jobs
            && self.ingest_buf.is_empty()
            && self.rm.jobs_in_system() == 0
    }

    /// Scale a duration by a sampled factor, keeping it a positive event
    /// offset (millisecond resolution).
    fn scale(t: SimTime, f: f64) -> SimTime {
        SimTime::from_secs_f64(t.as_secs_f64() * f).max(SimTime::from_millis(1))
    }

    /// Drop every trace of a job that left the system without completing
    /// (shed by backpressure or abandoned after retry exhaustion): pending
    /// start events go stale, live attempts stop mattering, and the
    /// execution bookkeeping is released.
    fn forget_job(&mut self, ab: &AbandonedJob) {
        for t in &ab.tasks {
            self.tasks.remove(t);
        }
    }

    /// Flush the ingest buffer: one crash gate, one batched submission,
    /// per-job bookkeeping, and at most one scheduling round for the whole
    /// burst — the coalescing that amortizes CP solve cost across a batch.
    /// Every arrival is submitted here; call-per-arrival ingestion is a
    /// flush of one.
    fn flush(&mut self, now: SimTime, queue: &mut EventQueue<Ev>) {
        if self.ingest_buf.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.ingest_buf);
        let metas: Vec<(JobId, Vec<(TaskId, SimTime)>)> = batch
            .iter()
            .map(|j| (j.id, j.tasks().map(|t| (t.id, t.exec_time)).collect()))
            .collect();
        self.pre_command(now);
        // One admission probe for the whole burst: the solve pass covers
        // every job in the batch, so the burst pays `O` once. This is the
        // cost the front door amortizes versus call-per-arrival ingestion.
        let probe_tasks: usize = metas.iter().map(|(_, t)| t.len()).sum();
        self.note_busy(now, self.overhead.probe_delay(probe_tasks));
        let outs = self.rm.submit_batch(batch, now);
        debug_assert_eq!(outs.len(), metas.len(), "one outcome per submitted job");
        let mut want_install = false;
        for (out, (job_id, tasks)) in outs.into_iter().zip(metas) {
            let out = out.expect("generated jobs are unique");
            // Shed jobs leave the system wholesale; their armed starts go
            // stale via `forget_job`, and the freed capacity is picked up
            // by the replan below.
            for ab in &out.shed {
                self.forget_job(ab);
            }
            match out.submitted {
                Some(sub) => {
                    // Execution state exists only for admitted jobs — a
                    // rejected arrival must leave no trace.
                    for (tid, exec_time) in tasks {
                        self.tasks.insert(
                            tid,
                            TaskRun {
                                job: job_id,
                                exec_time,
                                attempts: 0,
                                running: None,
                            },
                        );
                    }
                    match sub {
                        Submitted::Active => want_install = true,
                        Submitted::Deferred(act) => {
                            queue.schedule_at(act, Ev::Activate);
                            if !out.shed.is_empty() && self.rm.jobs_in_system() > 0 {
                                want_install = true;
                            }
                        }
                    }
                }
                None => {
                    if !out.shed.is_empty() && self.rm.jobs_in_system() > 0 {
                        want_install = true;
                    }
                }
            }
        }
        if want_install {
            self.request_install(now, queue);
        }
    }

    /// Charge a solve pass to the manager's single-server busy horizon:
    /// work starts when the manager frees up and occupies it for `cost`.
    fn note_busy(&mut self, now: SimTime, cost: SimTime) {
        if cost > SimTime::ZERO {
            self.busy_until = self.busy_until.max(now) + cost;
        }
    }

    /// Request a scheduling round: immediate under
    /// [`OverheadModel::Instantaneous`], otherwise after the simulated busy
    /// period — during which further requests coalesce. The round queues
    /// behind any admission-probe work already charged to the manager.
    fn request_install(&mut self, now: SimTime, queue: &mut EventQueue<Ev>) {
        match self.overhead {
            OverheadModel::Instantaneous => self.install(now, queue),
            model => {
                if !self.install_pending {
                    self.install_pending = true;
                    // Busy period sized by the work outstanding right now.
                    let n_tasks: usize = self.tasks.len();
                    let at = self.busy_until.max(now) + model.delay(n_tasks);
                    self.busy_until = at;
                    queue.schedule_at(at, Ev::Install);
                }
            }
        }
    }
}

impl<M: ResourceManager> desim::Process<Ev> for Driver<M> {
    fn handle(&mut self, now: SimTime, ev: Ev, queue: &mut EventQueue<Ev>) -> Flow {
        match ev {
            Ev::Arrival(idx) => {
                let job = self.jobs[idx].take().expect("job arrives once");
                self.arrived += 1;
                // Buffer, flush on max_batch now or on the linger timer
                // later. Same-timestamp arrivals all enter the buffer
                // before any timer armed here fires (the event queue is
                // FIFO at equal times), so a burst coalesces into one
                // submission pass.
                self.ingest_buf.push(job);
                if self.ingest_buf.len() >= self.ingest.max_batch {
                    self.flush(now, queue);
                } else if !self.flush_pending {
                    self.flush_pending = true;
                    queue.schedule_at(now + self.ingest.max_linger, Ev::Flush);
                }
            }
            Ev::Flush => {
                self.flush_pending = false;
                self.flush(now, queue);
            }
            Ev::Activate => {
                self.pre_command(now);
                if self.rm.activate_due(now) > 0 {
                    self.request_install(now, queue);
                }
            }
            Ev::Install => {
                self.install_pending = false;
                self.install(now, queue);
            }
            Ev::TaskStart { task } => {
                if !self.tasks.contains_key(&task) {
                    return Flow::Continue; // the job was shed or abandoned
                }
                self.pre_command(now);
                match self.rm.task_started(task, now) {
                    Ok(_) => {}
                    // An outage dropped the task from the plan while the
                    // replan waits out the manager's busy period: the start
                    // is void, and no attempt is charged.
                    Err(ManagerError::TaskNotScheduled(_)) => return Flow::Continue,
                    Err(e) => panic!("armed starts are valid: {e}"),
                }
                let run = self
                    .tasks
                    .get_mut(&task)
                    .expect("a started task keeps its execution state");
                run.attempts += 1;
                run.running = Some(run.attempts);
                let (job, attempt, dur) = (run.job, run.attempts, run.exec_time);
                let fate = match self.faults.as_mut() {
                    Some(fm) => fm.sample_attempt(),
                    None => AttemptOutcome::Success,
                };
                match fate {
                    AttemptOutcome::Success => {
                        queue.schedule_at(now + dur, Ev::TaskComplete { task, attempt });
                    }
                    AttemptOutcome::Fail { at_fraction } => {
                        let at = now + Self::scale(dur, at_fraction);
                        queue.schedule_at(at, Ev::TaskFail { task, attempt });
                    }
                    AttemptOutcome::Straggle { factor } => {
                        let stretched = Self::scale(dur, factor);
                        self.stragglers += 1;
                        self.fault_jobs.insert(job);
                        // The manager plans around the stretched occupancy.
                        self.pre_command(now);
                        self.rm
                            .task_duration_revised(task, stretched)
                            .expect("task just started");
                        queue.schedule_at(now + stretched, Ev::TaskComplete { task, attempt });
                        self.request_install(now, queue);
                    }
                }
            }
            Ev::TaskComplete { task, attempt } => {
                if self.tasks.get(&task).and_then(|r| r.running) != Some(attempt) {
                    return Flow::Continue; // attempt superseded
                }
                self.tasks.remove(&task);
                self.pre_command(now);
                if let Some(done) = self
                    .rm
                    .task_completed(task, now)
                    .expect("live attempt completes a running task")
                {
                    self.completions.push(JobOutcome {
                        job: done.job,
                        earliest_start: done.earliest_start,
                        completion: done.completion,
                        deadline: done.deadline,
                        late: done.late,
                    });
                    if self.reschedule_on_completion && self.rm.jobs_in_system() > 0 {
                        self.request_install(now, queue);
                    }
                }
            }
            Ev::TaskFail { task, attempt } => {
                match self.tasks.get_mut(&task) {
                    Some(run) if run.running == Some(attempt) => {
                        run.running = None;
                        self.fault_jobs.insert(run.job);
                    }
                    _ => return Flow::Continue, // attempt superseded
                }
                self.pre_command(now);
                match self
                    .rm
                    .task_failed(task, now)
                    .expect("live attempt fails a running task")
                {
                    FailureAction::Requeued { .. } => {
                        self.request_install(now, queue);
                    }
                    FailureAction::JobAbandoned(ab) => {
                        self.jobs_abandoned += 1;
                        self.forget_job(&ab);
                        if self.rm.jobs_in_system() > 0 {
                            self.request_install(now, queue);
                        }
                    }
                }
            }
            Ev::ResourceDown { resource, up_after } => {
                if self.drained() {
                    // Workload is done; a late crash has nothing to affect
                    // and re-arming the renewal would keep the run alive.
                    return Flow::Continue;
                }
                self.pre_command(now);
                match self.rm.resource_down(resource, now) {
                    Ok(interrupted) => {
                        self.resource_crashes += 1;
                        for t in &interrupted {
                            if let Some(run) = self.tasks.get_mut(t) {
                                run.running = None;
                                self.fault_jobs.insert(run.job);
                            }
                        }
                        let repair = up_after.unwrap_or_else(|| {
                            self.faults
                                .as_mut()
                                .expect("random crashes imply a fault model")
                                .sample_repair_time()
                        });
                        queue.schedule_at(now + repair, Ev::ResourceUp { resource });
                        self.request_install(now, queue);
                    }
                    // A scheduled outage can overlap a random crash (or two
                    // overlapping windows); the resource is already down and
                    // already has a recovery pending — ignore the duplicate.
                    Err(_) => return Flow::Continue,
                }
            }
            Ev::ResourceUp { resource } => {
                self.pre_command(now);
                self.rm
                    .resource_up(resource, now)
                    .expect("resource was marked down by the matching crash");
                if self.rm.jobs_in_system() > 0 {
                    self.request_install(now, queue);
                }
                // Re-arm the renewal process while there is work left.
                if !self.drained() {
                    if let Some(ttf) = self
                        .faults
                        .as_mut()
                        .and_then(|f| f.sample_time_to_failure())
                    {
                        queue.schedule_at(
                            now + ttf,
                            Ev::ResourceDown {
                                resource,
                                up_after: None,
                            },
                        );
                    }
                }
            }
        }
        Flow::Continue
    }
}

/// Outcome of one job in a detailed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobOutcome {
    /// The job.
    pub job: workload::JobId,
    /// Earliest start `s_j`.
    pub earliest_start: SimTime,
    /// Completion time.
    pub completion: SimTime,
    /// Deadline.
    pub deadline: SimTime,
    /// Whether the deadline was missed.
    pub late: bool,
}

/// Run MRCP-RM over `jobs` (arrival-ordered) on `resources` and collect the
/// paper's metrics. The run drains: every job completes or (under fault
/// injection) is abandoned after exhausting its retry budget.
pub fn simulate(cfg: &SimConfig, resources: &[Resource], jobs: Vec<Job>) -> RunMetrics {
    simulate_detailed(cfg, resources, jobs).0
}

/// Like [`simulate`] but also returns the per-job outcomes in completion
/// order.
pub fn simulate_detailed(
    cfg: &SimConfig,
    resources: &[Resource],
    jobs: Vec<Job>,
) -> (RunMetrics, Vec<JobOutcome>) {
    let (metrics, outcomes, _) = simulate_with(cfg, resources, jobs, |mgr_cfg| {
        MrcpRm::new(mgr_cfg, resources.to_vec())
    });
    (metrics, outcomes)
}

/// Run the simulation against any [`ResourceManager`] — the federation
/// layer plugs in here. `build` receives the effective manager
/// configuration (with the fault-injection retry budget already applied)
/// and constructs the manager over its own view of `resources`; the
/// manager is handed back after the run so callers can read
/// implementation-specific metrics off it.
pub fn simulate_with<M, F>(
    cfg: &SimConfig,
    resources: &[Resource],
    jobs: Vec<Job>,
    build: F,
) -> (RunMetrics, Vec<JobOutcome>, M)
where
    M: ResourceManager,
    F: FnOnce(MrcpConfig) -> M,
{
    cfg.faults.validate().expect("invalid fault config");
    if let Some(ing) = &cfg.ingest {
        assert!(ing.max_batch >= 1, "ingest.max_batch must be >= 1");
        assert!(
            ing.max_linger >= SimTime::ZERO,
            "ingest.max_linger must be non-negative"
        );
    }
    let n = jobs.len();
    let mut engine: Engine<Ev> = Engine::new();
    for (i, j) in jobs.iter().enumerate() {
        engine.queue_mut().schedule_at(j.arrival, Ev::Arrival(i));
    }
    let mut mgr_cfg = cfg.manager;
    let faults = if cfg.faults.is_active() {
        mgr_cfg.retry_budget = cfg.faults.retry_budget;
        let rng = RngStreams::new(cfg.fault_seed).stream("faults");
        Some(FaultModel::new(cfg.faults.clone(), rng))
    } else {
        None
    };
    // Manager-crash injection state: fixed points sorted descending so
    // the smallest pending index sits at the back, plus the renewal
    // process armed from its own RNG stream.
    let mut crash_at = cfg.manager_crashes.at_commands.clone();
    crash_at.sort_unstable_by(|a, b| b.cmp(a));
    crash_at.dedup();
    let crash_mttf_s = cfg
        .manager_crashes
        .mttf
        .map(|t| t.as_secs_f64().max(1e-3))
        .unwrap_or(0.0);
    let (crash_next, crash_rng) = match cfg.manager_crashes.mttf {
        Some(_) => {
            let mut rng = RngStreams::new(cfg.manager_crashes.seed).stream("manager-crashes");
            let gap = workload::dist::Exponential::new(1.0 / crash_mttf_s).sample(&mut rng);
            (
                Some(SimTime::from_secs_f64(gap).max(SimTime::from_millis(1))),
                Some(rng),
            )
        }
        None => (None, None),
    };
    let mut driver = Driver {
        rm: build(mgr_cfg),
        jobs: jobs.into_iter().map(Some).collect(),
        total_jobs: n,
        horizon: SimTime::ZERO,
        tasks: HashMap::new(),
        fault_jobs: HashSet::new(),
        faults,
        stragglers: 0,
        resource_crashes: 0,
        jobs_abandoned: 0,
        crash_at,
        commands: 0,
        crash_next,
        crash_rng,
        crash_mttf_s,
        manager_crashes: 0,
        completions: Vec::with_capacity(n),
        arrived: 0,
        overhead: cfg.overhead,
        install_pending: false,
        reschedule_on_completion: cfg.reschedule_on_completion,
        ingest: cfg.ingest.unwrap_or(IngestConfig {
            max_batch: 1,
            max_linger: SimTime::ZERO,
        }),
        ingest_buf: Vec::new(),
        busy_until: SimTime::ZERO,
        flush_pending: false,
    };
    // Arm the fault processes: deterministic outage windows, then the
    // first crash of each resource's renewal process.
    for o in &cfg.faults.scheduled_outages {
        engine.queue_mut().schedule_at(
            o.at,
            Ev::ResourceDown {
                resource: o.resource,
                up_after: Some(o.duration),
            },
        );
    }
    if let Some(fm) = driver.faults.as_mut() {
        for r in resources {
            if let Some(ttf) = fm.sample_time_to_failure() {
                engine.queue_mut().schedule_at(
                    ttf,
                    Ev::ResourceDown {
                        resource: r.id,
                        up_after: None,
                    },
                );
            }
        }
    }
    let end = engine.run(&mut driver).max(driver.horizon);

    let stats = driver.rm.stats();
    let completed = driver.completions.len();
    // Completion order is by completion time (events fire in time order).
    let measured_slice = &driver.completions[cfg.warmup_jobs.min(completed)..];
    let measured = measured_slice.len();
    let late = measured_slice.iter().filter(|c| c.late).count();
    let late_due_to_faults = measured_slice
        .iter()
        .filter(|c| c.late && driver.fault_jobs.contains(&c.job))
        .count();
    let mut turnarounds = desim::stats::Tally::new();
    for c in measured_slice {
        turnarounds.push((c.completion - c.earliest_start).as_secs_f64());
    }

    let metrics = RunMetrics {
        arrived: driver.arrived,
        completed,
        measured,
        late,
        p_late: if measured > 0 {
            late as f64 / measured as f64
        } else {
            0.0
        },
        mean_turnaround_s: turnarounds.mean(),
        p95_turnaround_s: turnarounds.quantile(0.95).unwrap_or(0.0),
        max_turnaround_s: turnarounds.max().unwrap_or(0.0),
        o_per_job_s: if completed > 0 {
            stats.total_solve.as_secs_f64() / completed as f64
        } else {
            0.0
        },
        invocations: stats.invocations,
        mean_nodes_per_round: if stats.invocations > 0 {
            stats.total_nodes as f64 / stats.invocations as f64
        } else {
            0.0
        },
        max_tasks_in_model: stats.max_tasks_in_model,
        end_time_s: end.as_secs_f64(),
        tasks_failed: stats.tasks_failed,
        tasks_requeued: stats.tasks_requeued,
        stragglers: driver.stragglers,
        resource_crashes: driver.resource_crashes,
        jobs_abandoned: driver.jobs_abandoned,
        late_due_to_faults,
        degraded_rounds: stats.degraded_rounds,
        failed_rounds: stats.failed_rounds,
        warm_rounds: stats.warm_rounds,
        cache_invalidations: stats.cache_invalidations,
        jobs_rejected: stats.jobs_rejected,
        jobs_renegotiated: stats.jobs_renegotiated,
        jobs_shed: stats.jobs_shed,
        max_queue_depth: stats.max_queue_depth,
        budget_adaptations: stats.budget_adaptations,
        max_round_latency_s: stats.max_round_solve.as_secs_f64(),
        manager_crashes: driver.manager_crashes,
    };
    (metrics, driver.completions, driver.rm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use workload::{SyntheticConfig, SyntheticGenerator};

    fn small_workload(n: usize, lambda: f64, seed: u64) -> (Vec<Resource>, Vec<Job>) {
        let cfg = SyntheticConfig {
            maps_per_job: (1, 6),
            reduces_per_job: (1, 3),
            e_max: 10,
            lambda,
            resources: 4,
            map_capacity: 2,
            reduce_capacity: 2,
            s_max: 100,
            ..Default::default()
        };
        let cluster = cfg.cluster();
        let mut gen = SyntheticGenerator::new(cfg, StdRng::seed_from_u64(seed));
        (cluster, gen.take_jobs(n))
    }

    #[test]
    fn every_job_completes() {
        let (cluster, jobs) = small_workload(30, 0.05, 1);
        let m = simulate(&SimConfig::default(), &cluster, jobs);
        assert_eq!(m.arrived, 30);
        assert_eq!(m.completed, 30);
        assert_eq!(m.measured, 30);
        assert!(m.invocations >= 1);
        assert!(m.end_time_s > 0.0);
    }

    #[test]
    fn conservation_check_flags_one_unaccounted_job() {
        let (cluster, jobs) = small_workload(10, 0.05, 23);
        let mut m = simulate(&SimConfig::default(), &cluster, jobs);
        assert_eq!(m.check_conservation(), Ok(()));
        m.completed -= 1;
        let err = m.check_conservation().unwrap_err();
        assert!(err.contains("10 arrived but 9 accounted"), "{err}");
    }

    #[test]
    fn loose_deadlines_yield_few_late_jobs() {
        // Very light load with generous multiplier → P near 0.
        let (cluster, jobs) = small_workload(40, 0.005, 2);
        let m = simulate(&SimConfig::default(), &cluster, jobs);
        assert!(
            m.p_late <= 0.10,
            "light load should rarely miss deadlines, got P={}",
            m.p_late
        );
        assert!(m.mean_turnaround_s > 0.0);
    }

    #[test]
    fn warmup_discards_early_completions() {
        let (cluster, jobs) = small_workload(30, 0.05, 3);
        let all = simulate(&SimConfig::default(), &cluster, jobs.clone());
        let cfg = SimConfig {
            warmup_jobs: 10,
            ..Default::default()
        };
        let warm = simulate(&cfg, &cluster, jobs);
        assert_eq!(all.measured, 30);
        assert_eq!(warm.measured, 20);
        assert_eq!(all.completed, warm.completed);
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let (cluster, jobs) = small_workload(25, 0.05, 4);
        let a = simulate(&SimConfig::default(), &cluster, jobs.clone());
        let b = simulate(&SimConfig::default(), &cluster, jobs);
        assert_eq!(a.late, b.late);
        assert_eq!(a.mean_turnaround_s, b.mean_turnaround_s);
        assert_eq!(a.invocations, b.invocations);
    }

    #[test]
    fn same_seed_gives_bit_identical_metrics() {
        // The full struct, not selected fields: every deterministic field
        // must agree bit-for-bit across two runs on the same inputs
        // (wall-clock-derived fields are zeroed by the signature).
        let (cluster, jobs) = small_workload(25, 0.05, 8);
        let a = simulate(&SimConfig::default(), &cluster, jobs.clone());
        let b = simulate(&SimConfig::default(), &cluster, jobs);
        assert_eq!(a.deterministic_signature(), b.deterministic_signature());
    }

    #[test]
    fn fixed_overhead_delays_first_start() {
        // One job, empty cluster: with a 5s busy period the schedule
        // installs at t=5, so the task starts then (instead of t=0).
        let (cluster, jobs) = small_workload(1, 0.05, 9);
        let inst = simulate(&SimConfig::default(), &cluster, jobs.clone());
        let cfg = SimConfig {
            overhead: OverheadModel::Fixed(SimTime::from_secs(5)),
            ..Default::default()
        };
        let delayed = simulate(&cfg, &cluster, jobs);
        assert_eq!(delayed.completed, 1);
        assert!(
            delayed.end_time_s >= inst.end_time_s + 5.0 - 1e-9,
            "busy period must push the schedule: {} vs {}",
            delayed.end_time_s,
            inst.end_time_s
        );
    }

    #[test]
    fn overhead_batches_simultaneous_arrivals() {
        // Many jobs arriving fast + a long busy period → far fewer
        // scheduling rounds than arrivals (the paper's job queue).
        let (cluster, jobs) = small_workload(20, 10.0, 10);
        let cfg = SimConfig {
            overhead: OverheadModel::Fixed(SimTime::from_secs(30)),
            ..Default::default()
        };
        let m = simulate(&cfg, &cluster, jobs);
        assert_eq!(m.completed, 20);
        assert!(
            m.invocations < 20,
            "batching should coalesce rounds, got {}",
            m.invocations
        );
    }

    #[test]
    fn per_task_overhead_scales_with_model() {
        let (cluster, jobs) = small_workload(5, 0.05, 11);
        let cfg = SimConfig {
            overhead: OverheadModel::PerTask {
                base: SimTime::from_millis(100),
                per_task: SimTime::from_millis(50),
            },
            ..Default::default()
        };
        let m = simulate(&cfg, &cluster, jobs);
        assert_eq!(m.completed, 5, "run still drains under scaled overhead");
    }

    #[test]
    fn reschedule_on_completion_drains_and_matches_quality() {
        let (cluster, jobs) = small_workload(25, 0.05, 12);
        let base = simulate(&SimConfig::default(), &cluster, jobs.clone());
        let cfg = SimConfig {
            reschedule_on_completion: true,
            ..Default::default()
        };
        let extra = simulate(&cfg, &cluster, jobs);
        assert_eq!(extra.completed, 25);
        assert!(
            extra.invocations >= base.invocations,
            "completion replans add rounds: {} vs {}",
            extra.invocations,
            base.invocations
        );
        // With exact execution times replanning cannot make things worse
        // by much; allow small divergence from search-order effects.
        assert!((extra.late as i64 - base.late as i64).abs() <= 2);
    }

    /// The [`RunMetrics::deterministic_signature`] contract: exactly the
    /// wall-clock observations (`o_per_job_s`, `mean_nodes_per_round`,
    /// `budget_adaptations`, `max_round_latency_s`) and the injected-
    /// perturbation count (`manager_crashes`) are zeroed; every other
    /// field passes through bit-for-bit. The signature body destructures
    /// `RunMetrics` exhaustively, so a new field cannot be added without
    /// extending this classification.
    #[test]
    fn deterministic_signature_zeroes_exactly_the_nondeterministic_fields() {
        // Every field nonzero, so an unintended zeroing (or passthrough)
        // cannot hide.
        let m = RunMetrics {
            arrived: 1,
            completed: 2,
            measured: 3,
            late: 4,
            p_late: 0.5,
            mean_turnaround_s: 6.0,
            p95_turnaround_s: 7.0,
            max_turnaround_s: 8.0,
            o_per_job_s: 9.0,
            invocations: 10,
            mean_nodes_per_round: 11.0,
            max_tasks_in_model: 12,
            end_time_s: 13.0,
            tasks_failed: 14,
            tasks_requeued: 15,
            stragglers: 16,
            resource_crashes: 17,
            jobs_abandoned: 18,
            late_due_to_faults: 19,
            degraded_rounds: 20,
            failed_rounds: 21,
            jobs_rejected: 22,
            jobs_renegotiated: 23,
            jobs_shed: 24,
            max_queue_depth: 25,
            budget_adaptations: 26,
            max_round_latency_s: 27.0,
            warm_rounds: 28,
            cache_invalidations: 29,
            manager_crashes: 30,
        };
        let expected = RunMetrics {
            o_per_job_s: 0.0,
            mean_nodes_per_round: 0.0,
            budget_adaptations: 0,
            max_round_latency_s: 0.0,
            manager_crashes: 0,
            ..m
        };
        assert_eq!(m.deterministic_signature(), expected);
        // Idempotent: a signature is its own signature.
        assert_eq!(expected.deterministic_signature(), expected);
    }

    /// Against a manager with no durability layer, injected crashes are
    /// no-ops: nothing is recovered (there is nothing to recover from)
    /// and the run is untouched.
    #[test]
    fn crash_injection_is_noop_for_non_durable_managers() {
        let (cluster, jobs) = small_workload(10, 0.05, 9);
        let clean = simulate(&SimConfig::default(), &cluster, jobs.clone());
        let cfg = SimConfig {
            manager_crashes: ManagerCrashConfig {
                at_commands: vec![0, 3, 10],
                mttf: Some(SimTime::from_secs(30)),
                seed: 5,
            },
            ..Default::default()
        };
        let crashed = simulate(&cfg, &cluster, jobs);
        assert_eq!(crashed.manager_crashes, 0);
        assert_eq!(
            clean.deterministic_signature(),
            crashed.deterministic_signature()
        );
    }

    /// A start from a superseded plan must not start a task the newer plan
    /// left out. Two 10 s maps on a one-slot cluster are planned at 0 and
    /// 10; the only resource is down from 5 to 25, so the round at 5
    /// installs an empty plan while the start planned for 10 has not fired.
    /// Replacing the batch drops it — the manager holds no entry for it —
    /// and both tasks run only once the resource is back.
    #[test]
    fn start_armed_by_a_superseded_plan_skips_a_task_the_newer_plan_left_out() {
        let cluster = workload::model::homogeneous_cluster(1, 1, 1);
        let map = |id| workload::Task {
            id: TaskId(id),
            job: JobId(0),
            kind: workload::TaskKind::Map,
            exec_time: SimTime::from_secs(10),
            req: 1,
        };
        let job = Job {
            id: JobId(0),
            arrival: SimTime::ZERO,
            earliest_start: SimTime::ZERO,
            deadline: SimTime::from_secs(100),
            map_tasks: vec![map(0), map(1)],
            reduce_tasks: vec![],
        };
        let cfg = SimConfig {
            faults: FaultConfig {
                scheduled_outages: vec![workload::Outage {
                    resource: cluster[0].id,
                    at: SimTime::from_secs(5),
                    duration: SimTime::from_secs(20),
                }],
                ..Default::default()
            },
            ..Default::default()
        };
        let m = simulate(&cfg, &cluster, vec![job]);
        assert_eq!(m.completed, 1);
        assert_eq!(m.resource_crashes, 1);
        assert_eq!(m.tasks_requeued, 1, "the map running at 5 is interrupted");
        assert_eq!(m.end_time_s, 45.0, "both maps rerun back to back from 25");
    }

    /// An outage under a busy manager: with a 30 s overhead the plan
    /// installed at 30 runs four 10 s maps on two one-slot resources, two
    /// at 30 and two at 40. Resource 1 goes down at 35, so the manager
    /// drops its map planned for 40, but the replan only installs at 65.
    /// The start still queued for 40 is void, not an error: it is skipped
    /// without charging an attempt, and the run drains.
    #[test]
    fn start_dropped_by_an_outage_before_the_delayed_install_is_superseded() {
        let cluster = workload::model::homogeneous_cluster(2, 1, 1);
        let map = |id| workload::Task {
            id: TaskId(id),
            job: JobId(0),
            kind: workload::TaskKind::Map,
            exec_time: SimTime::from_secs(10),
            req: 1,
        };
        let job = Job {
            id: JobId(0),
            arrival: SimTime::ZERO,
            earliest_start: SimTime::ZERO,
            deadline: SimTime::from_secs(500),
            map_tasks: (0..4).map(map).collect(),
            reduce_tasks: vec![],
        };
        let cfg = SimConfig {
            overhead: OverheadModel::Fixed(SimTime::from_secs(30)),
            faults: FaultConfig {
                scheduled_outages: vec![workload::Outage {
                    resource: cluster[1].id,
                    at: SimTime::from_secs(35),
                    duration: SimTime::from_secs(20),
                }],
                ..Default::default()
            },
            ..Default::default()
        };
        let m = simulate(&cfg, &cluster, vec![job]);
        assert_eq!(m.check_conservation(), Ok(()));
        assert_eq!(m.completed, 1);
        assert_eq!(m.resource_crashes, 1);
        assert_eq!(m.tasks_requeued, 1, "only the map running at 35 reruns");
    }

    /// The run's clock counts superseded starts: four 1 s maps arrive at 1
    /// on a cluster whose second one-slot resource is down from 0 to 1, so
    /// the arrival's plan runs them back to back at 1, 2, 3 and 4. The
    /// resource returns at the same instant, and the replan runs them two
    /// at a time; the job completes at 3. The dropped start at 4 lies
    /// beyond every live event, and `end_time_s` reads 4: the run's clock
    /// counts a superseded start as an event at its planned time.
    #[test]
    fn end_time_includes_the_latest_superseded_start() {
        let cluster = workload::model::homogeneous_cluster(2, 1, 1);
        let map = |id| workload::Task {
            id: TaskId(id),
            job: JobId(0),
            kind: workload::TaskKind::Map,
            exec_time: SimTime::from_secs(1),
            req: 1,
        };
        let job = Job {
            id: JobId(0),
            arrival: SimTime::from_secs(1),
            earliest_start: SimTime::from_secs(1),
            deadline: SimTime::from_secs(100),
            map_tasks: (0..4).map(map).collect(),
            reduce_tasks: vec![],
        };
        let cfg = SimConfig {
            faults: FaultConfig {
                scheduled_outages: vec![workload::Outage {
                    resource: cluster[1].id,
                    at: SimTime::ZERO,
                    duration: SimTime::from_secs(1),
                }],
                ..Default::default()
            },
            ..Default::default()
        };
        let (m, outcomes) = simulate_detailed(&cfg, &cluster, vec![job]);
        assert_eq!(m.completed, 1);
        assert_eq!(m.invocations, 2, "one round on arrival, one on recovery");
        assert_eq!(outcomes[0].completion, SimTime::from_secs(3));
        assert_eq!(m.end_time_s, 4.0);
    }

    /// A manager that returns its plans reversed and records the order in
    /// which the driver starts tasks.
    struct Reversed {
        inner: MrcpRm,
        plans: Vec<Vec<ScheduleEntry>>,
        started: Vec<TaskId>,
    }

    impl ResourceManager for Reversed {
        fn submit_with_admission(
            &mut self,
            job: Job,
            now: SimTime,
        ) -> Result<AdmissionOutcome, ManagerError> {
            self.inner.submit_with_admission(job, now)
        }
        fn activate_due(&mut self, now: SimTime) -> usize {
            self.inner.activate_due(now)
        }
        fn reschedule(&mut self, now: SimTime) -> Vec<ScheduleEntry> {
            let mut plan = self.inner.reschedule(now);
            plan.reverse();
            self.plans.push(plan.clone());
            plan
        }
        fn task_started(&mut self, task: TaskId, now: SimTime) -> Result<ResourceId, ManagerError> {
            self.started.push(task);
            self.inner.task_started(task, now)
        }
        fn task_completed(
            &mut self,
            task: TaskId,
            now: SimTime,
        ) -> Result<Option<JobCompletion>, ManagerError> {
            self.inner.task_completed(task, now)
        }
        fn task_duration_revised(
            &mut self,
            task: TaskId,
            new_exec: SimTime,
        ) -> Result<(), ManagerError> {
            self.inner.task_duration_revised(task, new_exec)
        }
        fn task_failed(
            &mut self,
            task: TaskId,
            now: SimTime,
        ) -> Result<FailureAction, ManagerError> {
            self.inner.task_failed(task, now)
        }
        fn resource_down(
            &mut self,
            rid: ResourceId,
            now: SimTime,
        ) -> Result<Vec<TaskId>, ManagerError> {
            self.inner.resource_down(rid, now)
        }
        fn resource_up(&mut self, rid: ResourceId, now: SimTime) -> Result<(), ManagerError> {
            self.inner.resource_up(rid, now)
        }
        fn jobs_in_system(&self) -> usize {
            self.inner.jobs_in_system()
        }
        fn stats(&self) -> ManagerStats {
            self.inner.stats()
        }
    }

    /// The driver sorts an unsorted plan by start but keeps the returned
    /// order among equal starts: six 10 s maps on three one-slot resources
    /// are planned three at 0 and three at 10, returned reversed, and the
    /// tasks start in the reversed plan's order within each instant.
    #[test]
    fn equal_starts_fire_in_the_returned_order() {
        let cluster = workload::model::homogeneous_cluster(3, 1, 1);
        let map = |id| workload::Task {
            id: TaskId(id),
            job: JobId(0),
            kind: workload::TaskKind::Map,
            exec_time: SimTime::from_secs(10),
            req: 1,
        };
        let job = Job {
            id: JobId(0),
            arrival: SimTime::ZERO,
            earliest_start: SimTime::ZERO,
            deadline: SimTime::from_secs(100),
            map_tasks: (0..6).map(map).collect(),
            reduce_tasks: vec![],
        };
        let (m, _, rm) = simulate_with(&SimConfig::default(), &cluster, vec![job], |c| Reversed {
            inner: MrcpRm::new(c, cluster.clone()),
            plans: Vec::new(),
            started: Vec::new(),
        });
        assert_eq!(m.completed, 1);
        let [plan] = &rm.plans[..] else {
            panic!("one round, on the arrival: {:?}", rm.plans);
        };
        assert!(
            !plan.is_sorted_by_key(|e| e.start),
            "the reversal unsorts the plan"
        );
        let mut expected = plan.clone();
        expected.sort_by_key(|e| e.start);
        let expected: Vec<TaskId> = expected.iter().map(|e| e.task).collect();
        assert_eq!(rm.started, expected);
        let mut by_id = expected.clone();
        by_id.sort_unstable();
        assert_ne!(
            rm.started, by_id,
            "equal starts do not fall back to task order"
        );
    }

    mod ingest {
        //! The batched arrival-coalescing path (the async ingest front
        //! door's simulation-side contract).
        use super::*;

        #[test]
        fn ingest_none_is_a_batch_of_one_under_any_linger() {
            let (cluster, jobs) = small_workload(25, 0.05, 31);
            let per_arrival = simulate(&SimConfig::default(), &cluster, jobs.clone());
            for linger in [SimTime::ZERO, SimTime::from_secs(5)] {
                let cfg = SimConfig {
                    ingest: Some(IngestConfig {
                        max_batch: 1,
                        max_linger: linger,
                    }),
                    ..Default::default()
                };
                let batched = simulate(&cfg, &cluster, jobs.clone());
                // Full-struct equality modulo wall-clock fields: at batch
                // size 1 every flush is inline and no linger timer is ever
                // armed, so even `invocations` and `end_time_s` must agree
                // exactly.
                assert_eq!(
                    per_arrival.deterministic_signature(),
                    batched.deterministic_signature(),
                    "linger {linger}"
                );
            }
        }

        #[test]
        fn burst_coalesces_into_fewer_scheduling_rounds() {
            // Fast arrivals + a large batch window → far fewer rounds than
            // arrivals, while every job still completes.
            let (cluster, jobs) = small_workload(20, 10.0, 32);
            let legacy = simulate(&SimConfig::default(), &cluster, jobs.clone());
            let cfg = SimConfig {
                ingest: Some(IngestConfig {
                    max_batch: 20,
                    max_linger: SimTime::from_secs(10),
                }),
                ..Default::default()
            };
            let batched = simulate(&cfg, &cluster, jobs);
            assert_eq!(batched.completed, 20);
            assert!(
                batched.invocations < legacy.invocations,
                "coalescing must cut rounds: {} vs {}",
                batched.invocations,
                legacy.invocations
            );
        }

        #[test]
        fn same_timestamp_burst_matches_one_at_a_time_submission() {
            // The satellite determinism anchor: N jobs arriving at the
            // same instant, ingested through the batched path, yield the
            // same signature as the same jobs submitted one-at-a-time at
            // identical timestamps (`ingest: None`). A busy-period
            // overhead model makes that run coalesce its installs
            // too, so both run exactly one round for the burst — and
            // since `submit_batch` is defined as the sequential
            // composition of per-job submissions, the manager sees the
            // identical command stream.
            let (cluster, mut jobs) = small_workload(12, 0.05, 33);
            for j in &mut jobs {
                j.arrival = SimTime::ZERO;
            }
            let overhead = OverheadModel::Fixed(SimTime::from_millis(10));
            let legacy = simulate(
                &SimConfig {
                    overhead,
                    ..Default::default()
                },
                &cluster,
                jobs.clone(),
            );
            let batched = simulate(
                &SimConfig {
                    overhead,
                    ingest: Some(IngestConfig {
                        max_batch: 12,
                        max_linger: SimTime::from_secs(1),
                    }),
                    ..Default::default()
                },
                &cluster,
                jobs,
            );
            assert_eq!(
                legacy.deterministic_signature(),
                batched.deterministic_signature()
            );
            assert_eq!(legacy.invocations, batched.invocations);
        }

        #[test]
        fn linger_bounds_buffering_delay() {
            // One lone job never fills the batch; the linger timer must
            // flush it after exactly max_linger. Pin the job's earliest
            // start to its arrival so the flush delay shows up in the
            // completion time instead of hiding inside a deferral window.
            let (cluster, mut jobs) = small_workload(1, 0.05, 34);
            jobs[0].earliest_start = jobs[0].arrival;
            let legacy = simulate(&SimConfig::default(), &cluster, jobs.clone());
            let cfg = SimConfig {
                ingest: Some(IngestConfig {
                    max_batch: 64,
                    max_linger: SimTime::from_secs(5),
                }),
                ..Default::default()
            };
            let batched = simulate(&cfg, &cluster, jobs);
            assert_eq!(batched.completed, 1);
            assert!(
                (batched.end_time_s - (legacy.end_time_s + 5.0)).abs() < 1e-9,
                "flush after the 5s linger: {} vs {}",
                batched.end_time_s,
                legacy.end_time_s
            );
        }

        #[test]
        fn batched_ingest_is_deterministic_per_seed() {
            let (cluster, jobs) = small_workload(25, 1.0, 35);
            let cfg = SimConfig {
                ingest: Some(IngestConfig::default()),
                ..Default::default()
            };
            let a = simulate(&cfg, &cluster, jobs.clone());
            let b = simulate(&cfg, &cluster, jobs);
            assert_eq!(a.deterministic_signature(), b.deterministic_signature());
        }
    }

    mod overload {
        //! The overload-hardening paths: admission control, backpressure,
        //! the budget controller, and the soak bounds.
        use super::*;
        use crate::admission::{AdmissionConfig, AdmissionPolicy};
        use crate::manager::BudgetController;
        use std::time::Duration;
        use workload::ArrivalConfig;

        /// A small cluster driven well past saturation: arrivals far
        /// faster than the slots can absorb, with tight SLAs.
        fn overloaded(n: usize, lambda: f64, seed: u64) -> (Vec<Resource>, Vec<Job>) {
            let cfg = SyntheticConfig {
                maps_per_job: (2, 8),
                reduces_per_job: (1, 3),
                e_max: 20,
                lambda,
                resources: 2,
                map_capacity: 2,
                reduce_capacity: 2,
                p_future_start: 0.0,
                s_max: 1,
                deadline_multiplier: 1.5,
                ..Default::default()
            };
            let cluster = cfg.cluster();
            let mut gen = SyntheticGenerator::new(cfg, StdRng::seed_from_u64(seed));
            (cluster, gen.take_jobs(n))
        }

        #[test]
        fn strict_admission_rejects_past_saturation_and_still_drains() {
            let (cluster, jobs) = overloaded(40, 2.0, 21);
            let mut cfg = SimConfig::default();
            cfg.manager.admission = AdmissionConfig {
                policy: AdmissionPolicy::Strict,
                max_pending_jobs: None,
            };
            let m = simulate(&cfg, &cluster, jobs);
            assert_eq!(m.arrived, 40);
            assert!(m.jobs_rejected > 0, "overload must trigger rejections");
            assert!(m.completed < m.arrived);
            m.check_conservation().unwrap();
        }

        #[test]
        fn strict_admission_protects_admitted_jobs() {
            let (cluster, jobs) = overloaded(40, 2.0, 24);
            let mut strict = SimConfig::default();
            strict.manager.admission = AdmissionConfig {
                policy: AdmissionPolicy::Strict,
                max_pending_jobs: None,
            };
            let gated = simulate(&strict, &cluster, jobs.clone());
            let open = simulate(&SimConfig::default(), &cluster, jobs);
            // Turning away infeasible work keeps the SLAs of what remains
            // no worse than letting everything pile in.
            assert!(
                gated.p_late <= open.p_late,
                "strict P={} vs best-effort P={}",
                gated.p_late,
                open.p_late
            );
        }

        #[test]
        fn renegotiation_relaxes_deadlines_instead_of_rejecting() {
            let (cluster, jobs) = overloaded(30, 2.0, 25);
            let mut cfg = SimConfig::default();
            cfg.manager.admission = AdmissionConfig {
                policy: AdmissionPolicy::Renegotiate,
                max_pending_jobs: None,
            };
            let m = simulate(&cfg, &cluster, jobs);
            assert!(
                m.jobs_renegotiated > 0,
                "overload must trigger renegotiation"
            );
            assert_eq!(
                m.completed as u64 + m.jobs_rejected,
                m.arrived as u64,
                "renegotiated jobs stay in the system and finish"
            );
        }

        #[test]
        fn queue_bound_caps_depth_via_shedding() {
            let (cluster, jobs) = overloaded(30, 5.0, 22);
            let mut cfg = SimConfig::default();
            cfg.manager.admission = AdmissionConfig {
                policy: AdmissionPolicy::BestEffort,
                max_pending_jobs: Some(8),
            };
            let m = simulate(&cfg, &cluster, jobs);
            assert!(
                m.max_queue_depth <= 8,
                "bounded queue, got depth {}",
                m.max_queue_depth
            );
            assert!(
                m.jobs_shed + m.jobs_rejected > 0,
                "overflow must be absorbed"
            );
            assert_eq!(m.arrived, 30);
            m.check_conservation().unwrap();
        }

        #[test]
        fn budget_controller_adapts_under_load() {
            let (cluster, jobs) = overloaded(25, 2.0, 26);
            let mut cfg = SimConfig::default();
            // A zero ceiling forces a shrink on every round — the
            // adaptation path must engage and the run must still drain.
            cfg.manager.controller = Some(BudgetController::with_ceiling(Duration::ZERO));
            let m = simulate(&cfg, &cluster, jobs);
            assert_eq!(m.completed, 25);
            assert!(m.budget_adaptations > 0, "controller must have acted");
        }

        #[test]
        fn soak_with_protection_stays_within_bounds_under_bursts() {
            let cfg = SyntheticConfig {
                maps_per_job: (1, 6),
                reduces_per_job: (1, 3),
                e_max: 10,
                lambda: 0.02,
                resources: 4,
                map_capacity: 2,
                reduce_capacity: 2,
                p_future_start: 0.0,
                s_max: 1,
                deadline_multiplier: 2.0,
                arrival: ArrivalConfig::mmpp(0.5, 120.0, 20.0),
            };
            let cluster = cfg.cluster();
            let mut gen = SyntheticGenerator::new(cfg, StdRng::seed_from_u64(27));
            let jobs = gen.take_jobs(60);
            let mut sim = SimConfig::default();
            sim.manager.admission = AdmissionConfig {
                policy: AdmissionPolicy::Strict,
                max_pending_jobs: Some(32),
            };
            sim.manager.controller = Some(BudgetController::default());
            let last_arrival = jobs.iter().map(|j| j.arrival).max().unwrap();
            let m = simulate(&sim, &cluster, jobs);
            assert_eq!(m.arrived, 60);
            m.check_conservation().unwrap();
            assert!(m.max_queue_depth <= 32, "queue depth {}", m.max_queue_depth);
            assert!(
                m.max_round_latency_s <= 5.0,
                "a round took {:.3}s",
                m.max_round_latency_s
            );
            let drain_s = m.end_time_s - last_arrival.as_secs_f64();
            assert!(
                drain_s <= 3_600.0,
                "drained {drain_s:.0}s after the last arrival"
            );
        }
    }
}

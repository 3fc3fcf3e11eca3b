//! The MRCP-RM resource manager (paper Fig. 1 and the Table 2 algorithm).
//!
//! Users submit MapReduce jobs; the manager maps and schedules all
//! outstanding work by building and solving a CP model on every
//! (re)scheduling round:
//!
//! * jobs whose earliest start time has passed get `release = now`
//!   (Table 2 lines 1–4),
//! * tasks that have started but not completed are **pinned** to their
//!   resource and start time (lines 5–12) — the solver may not move them,
//! * completed tasks leave the model, finished jobs leave the system
//!   (lines 13–16),
//! * everything else — including previously scheduled but unstarted
//!   tasks — is remapped and rescheduled from scratch, "to provide the
//!   most flexibility … for example, a new job with an earlier deadline
//!   may need to be mapped and scheduled in the place of a previously
//!   scheduled job" (lines 19–24).
//!
//! Instead of scanning per-resource task lists as the paper's Java
//! implementation does, the manager receives explicit `task_started` /
//! `task_completed` notifications from its host (the simulator or a real
//! execution layer) — equivalent bookkeeping with the same outcome.
//!
//! The §V.D split optimization and §V.E deferral are always on, as in the
//! paper's evaluated configuration. Deferral: "Jobs that have arrived and
//! have a `s_j` in the future are placed in a queue, and are mapped and
//! scheduled at a later time." A parked job enters the CP model at its
//! `s_j`; keeping it out until then shrinks every earlier round's model,
//! which is what drives the overhead reductions of Figs. 5 and 6.

use crate::admission::{
    earliest_feasible_estimate, edf_demand_violation, AdmissionConfig, AdmissionDecision,
    AdmissionPolicy, RejectReason,
};
use crate::list;
use crate::modelmap::{JobInput, TaskInput};
use crate::ordering::JobOrdering;
use crate::sim_driver::ResourceManager;
use crate::split::{split_solve_portfolio, RoundHints};
use cpsolve::search::{Outcome, PortfolioParams, SolveParams, SolveStats, Status};
use desim::SimTime;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};
use workload::{Job, JobId, Resource, ResourceId, TaskId, TaskKind};

/// Rejected calls into the manager's public API. The manager's state is
/// unchanged when any of these is returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ManagerError {
    /// The job id is already in the system.
    DuplicateJob(JobId),
    /// A task id of the submitted job collides with a task already known.
    DuplicateTask(TaskId),
    /// The task id is not in the system.
    UnknownTask(TaskId),
    /// The job id is not in the system.
    UnknownJob(JobId),
    /// `take_unstarted_job` for a job with started or completed tasks —
    /// partially-executed jobs cannot migrate between managers.
    JobNotMigratable(JobId),
    /// `task_started` for a task with no current schedule entry.
    TaskNotScheduled(TaskId),
    /// A lifecycle notification that does not match the task's state
    /// (e.g. completion of a task that never started).
    TaskNotRunning(TaskId),
    /// The resource id does not belong to this cluster.
    UnknownResource(ResourceId),
    /// `resource_down` for a resource already marked down.
    ResourceAlreadyDown(ResourceId),
    /// `resource_up` for a resource that is not down.
    ResourceNotDown(ResourceId),
    /// An internal invariant was violated (e.g. a shedding victim vanished
    /// between selection and eviction, or a restored snapshot references
    /// ids twice). Surfaced as a typed error instead of a panic so a
    /// corrupted manager degrades a call, not the whole process.
    Inconsistent(&'static str),
}

impl fmt::Display for ManagerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManagerError::DuplicateJob(j) => write!(f, "job {j} submitted twice"),
            ManagerError::DuplicateTask(t) => write!(f, "task {t} already known"),
            ManagerError::UnknownTask(t) => write!(f, "unknown task {t}"),
            ManagerError::UnknownJob(j) => write!(f, "unknown job {j}"),
            ManagerError::JobNotMigratable(j) => {
                write!(f, "job {j} has started tasks and cannot migrate")
            }
            ManagerError::TaskNotScheduled(t) => {
                write!(f, "task {t} has no schedule entry")
            }
            ManagerError::TaskNotRunning(t) => write!(f, "task {t} is not running"),
            ManagerError::UnknownResource(r) => write!(f, "unknown resource {r:?}"),
            ManagerError::ResourceAlreadyDown(r) => {
                write!(f, "resource {r:?} is already down")
            }
            ManagerError::ResourceNotDown(r) => write!(f, "resource {r:?} is not down"),
            ManagerError::Inconsistent(what) => {
                write!(f, "internal inconsistency: {what}")
            }
        }
    }
}

impl std::error::Error for ManagerError {}

/// A scheduling round that could not produce any schedule, after both
/// rungs of the degradation ladder (split CP → greedy EDF). Neither rung
/// builds the multi-resource CP model, so no cluster is too large for one.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SchedulingError {
    /// No rung produced a solution (contradictory pins are the only
    /// plausible cause — greedy always succeeds on consistent state).
    NoSolution(String),
    /// The last-resort schedule failed the independent audit.
    AuditFailed(String),
    /// A solved round's placements referenced tasks or jobs the manager
    /// does not hold — an internal inconsistency surfaced as a failed
    /// round instead of a panic (PR-2 no-panic convention).
    Inconsistent(String),
}

impl fmt::Display for SchedulingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulingError::NoSolution(e) => write!(f, "no schedule found: {e}"),
            SchedulingError::AuditFailed(e) => write!(f, "schedule audit failed: {e}"),
            SchedulingError::Inconsistent(e) => write!(f, "inconsistent round: {e}"),
        }
    }
}

impl std::error::Error for SchedulingError {}

/// The rung of the degradation ladder that served a round's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RoundRung {
    /// The §V.D split model (schedule-then-matchmake).
    SplitCp,
    /// Greedy EDF, the unconditional fallback.
    Greedy,
}

impl RoundRung {
    /// Stable identifier used as the `rung` telemetry label.
    fn name(self) -> &'static str {
        match self {
            RoundRung::SplitCp => "split_cp",
            RoundRung::Greedy => "greedy",
        }
    }
}

/// What a scheduling round yields: the placements (task, resource, start),
/// the solver outcome they came from, and which rung served the schedule
/// (a greedy round is a degraded one).
type RoundResult = (Vec<(TaskId, ResourceId, SimTime)>, Outcome, RoundRung);

/// Adaptive effort scaling — the paper's §VII future-work item
/// "mechanisms that can reduce matchmaking and scheduling times when λ is
/// high". When the model grows beyond `reference_tasks`, the per-round
/// node/fail limits shrink proportionally (never below `floor_nodes`, nor
/// above the configured limit), so the *total* scheduling effort per unit
/// time stays roughly constant as load rises instead of multiplying with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveBudget {
    /// Model size (task count) at which the base budget applies unscaled.
    pub reference_tasks: usize,
    /// Lower bound on the scaled node/fail limits (a configured limit below
    /// it stays as configured).
    pub floor_nodes: u64,
}

/// Per-invocation solver effort limits. The default is counted, not timed:
/// 150 nodes and 150 fails, scaled down past 200 tasks to a floor of 50 and
/// no wall-clock limit, so a simulated result repeats exactly for a fixed
/// seed on any host. Every solve is seeded with the greedy EDF
/// incumbent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveBudget {
    /// Maximum branching decisions per invocation.
    pub node_limit: u64,
    /// Maximum conflicts per invocation.
    pub fail_limit: u64,
    /// Wall-clock ceiling per invocation, milliseconds (None = unlimited,
    /// the default). Where it binds, the schedule depends on the host.
    pub time_limit_ms: Option<u64>,
    /// Optional adaptive scaling with model size.
    pub adaptive: Option<AdaptiveBudget>,
    /// Inert: the search runs once per round on the calling thread, so
    /// nothing reads this. It stays until the benchmark (`e2e/`) stops
    /// setting it (ROADMAP item 3).
    pub workers: usize,
}

impl Default for SolveBudget {
    fn default() -> Self {
        SolveBudget {
            node_limit: 150,
            fail_limit: 150,
            time_limit_ms: None,
            adaptive: Some(AdaptiveBudget {
                reference_tasks: 200,
                floor_nodes: 50,
            }),
            workers: 1,
        }
    }
}

impl SolveBudget {
    /// Effective solver parameters for a model with `n_tasks` tasks.
    pub fn params_for(&self, n_tasks: usize) -> SolveParams {
        let (nodes, fails) = match self.adaptive {
            Some(a) if n_tasks > a.reference_tasks => {
                let scale = a.reference_tasks as f64 / n_tasks as f64;
                let scaled =
                    |limit: u64| ((limit as f64 * scale) as u64).max(a.floor_nodes.min(limit));
                (scaled(self.node_limit), scaled(self.fail_limit))
            }
            _ => (self.node_limit, self.fail_limit),
        };
        SolveParams {
            node_limit: nodes,
            fail_limit: fails,
            time_limit: self.time_limit_ms.map(Duration::from_millis),
            ..Default::default()
        }
    }
}

/// Feedback controller keeping per-round scheduling latency under a
/// ceiling (DESIGN.md §5c). After every round the observed wall-clock
/// latency updates an EWMA (smoothing factor 0.3); when the EWMA crosses
/// three quarters of the ceiling the per-round solver budget is halved
/// (down to 1/64), and when it falls below a quarter the budget doubles
/// back toward full. Below a quarter of the budget, rounds skip the split
/// CP rung and go straight to greedy EDF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetController {
    /// Target ceiling for per-round scheduling latency.
    pub latency_ceiling: Duration,
}

/// The controller's EWMA smoothing factor in `(0, 1]`; higher reacts faster.
const EWMA_ALPHA: f64 = 0.3;
/// The controller's lower bound on the budget scale.
const MIN_SCALE: f64 = 1.0 / 64.0;

impl Default for BudgetController {
    fn default() -> Self {
        BudgetController::with_ceiling(Duration::from_millis(250))
    }
}

impl BudgetController {
    /// A controller with the given latency ceiling.
    pub fn with_ceiling(latency_ceiling: Duration) -> Self {
        BudgetController { latency_ceiling }
    }
}

/// MRCP-RM configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MrcpConfig {
    /// Job ordering strategy (paper §VI.B; EDF is the reported default).
    pub ordering: JobOrdering,
    /// Per-invocation solver budget.
    pub budget: SolveBudget,
    /// Audit every installed schedule with the independent verifier
    /// (always on in debug builds). Off, every 64th round is audited all
    /// the same.
    pub verify_schedules: bool,
    /// Failed attempts a task may accumulate before
    /// [`task_failed`](ResourceManager::task_failed) abandons its job.
    pub retry_budget: u32,
    /// Overload protection: admission policy and pending-queue bound
    /// (default: admit everything, unbounded — the paper's behaviour).
    pub admission: AdmissionConfig,
    /// Overload protection: adaptive per-round budget controller
    /// (default: off — budgets stay at their configured values).
    pub controller: Option<BudgetController>,
    /// Cross-round incremental reuse: cache the previous round's
    /// placements and feed the surviving portion (unchanged jobs on an
    /// unchanged resource pool) back as the next solve's warm start
    /// (default on; off reproduces the paper's from-scratch rounds).
    pub reuse_rounds: bool,
}

impl Default for MrcpConfig {
    fn default() -> Self {
        MrcpConfig {
            ordering: JobOrdering::Edf,
            budget: SolveBudget::default(),
            verify_schedules: cfg!(debug_assertions),
            retry_budget: 3,
            admission: AdmissionConfig::default(),
            controller: None,
            reuse_rounds: true,
        }
    }
}

/// Every this many rounds (by [`ManagerStats::invocations`], so the sample
/// repeats per run) `split::audit` checks the placements a round installs
/// even when [`MrcpConfig::verify_schedules`] is off; a failure falls
/// through the ladder as the audit always does.
const AUDIT_EVERY: u64 = 64;

/// One planned (not yet started) task execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// The task.
    pub task: TaskId,
    /// Its job.
    pub job: JobId,
    /// Assigned resource.
    pub resource: ResourceId,
    /// Assigned start time.
    pub start: SimTime,
    /// Completion time (`start + e_t`).
    pub end: SimTime,
}

#[derive(Debug)]
struct JobState {
    job: Job,
    tasks: Vec<TaskImage>,
    /// Each task's round state, index for index with `tasks`.
    slots: Vec<TaskSlot>,
    /// Tasks not yet completed (derived from `tasks`; rebuilt on restore).
    remaining: usize,
    /// Parked by the deferral policy: listed in [`MrcpRm`]'s `deferred`
    /// and kept out of every round until activated.
    deferred: bool,
    /// Memo of [`job_fingerprint`] over the job's current outstanding
    /// inputs, filled by the round that installs it; `None` once any of
    /// those inputs changes.
    fp: Option<u64>,
    /// `(epoch, fingerprint)` of the last successful round that planned the
    /// job: it belongs to the cached round iff the epoch is
    /// [`RoundCache::epoch`].
    cached: Option<(u64, u64)>,
}

impl JobState {
    /// Its outstanding tasks as model inputs: waiting tasks are free,
    /// started tasks are pinned, completed tasks are gone.
    fn outstanding(&self) -> impl Iterator<Item = TaskInput> + '_ {
        self.tasks.iter().filter_map(|t| {
            let pinned = match t.status {
                TaskStatusImage::Completed => return None,
                TaskStatusImage::Waiting => None,
                TaskStatusImage::Started { resource, start } => Some((resource, start)),
            };
            Some(TaskInput {
                id: t.id,
                kind: t.kind,
                exec_time: t.exec_time,
                req: t.req,
                pinned,
            })
        })
    }
}

/// What the rounds know about one task, kept on its job so that a round
/// reaches it by index instead of by task id.
#[derive(Debug, Clone, Copy, Default)]
struct TaskSlot {
    /// Its entry in the current plan; `None` unless the task is waiting
    /// and the last round planned it.
    planned: Option<ScheduleEntry>,
    /// Where the last successful round placed it: the round cache's hint,
    /// read only while the job is fresh (its [`JobState::cached`] record
    /// carries the cache's epoch and its current fingerprint).
    placed: Option<(ResourceId, SimTime)>,
}

/// Cross-round reuse state: what produced the previous successful round.
/// The round lives on its jobs: each job records the fingerprint it was
/// planned with, tagged with the round's `epoch`, and carries its
/// placements in its [`TaskSlot`]s. A job whose fingerprint is unchanged
/// under an unchanged resource pool gets its old placements replayed as
/// warm-start hints; anything else re-solves from scratch. Each job
/// memoises its fingerprint ([`JobState::fp`]), so a round hashes only the
/// jobs whose outstanding tasks changed since the last one; the cache still
/// compares content, so a change that is undone before the next round
/// (a start, then a failure) keeps the job warm. Every install opens a new
/// epoch, so dropping the cache (invalidation, failed round) leaves every
/// record stale at once.
///
/// Job releases are deliberately **excluded** from the fingerprint — they
/// advance with `now` every round, so including them would invalidate the
/// cache permanently. Staleness from advancing time is handled at replay:
/// a hint whose start lies before this round's release is dropped by the
/// warm start ([`crate::split::warm_start`]), and the warm start is checked
/// before it is used: by the split rung's own checks when no job is late,
/// else by the solver before it adopts the incumbent.
#[derive(Debug)]
struct RoundCache {
    /// Fingerprint of the up-resource pool the placements assume.
    pool_fp: u64,
    /// The round's tag on its jobs' [`JobState::cached`] records.
    epoch: u64,
    /// Jobs of the round that have left the system since, with their
    /// fingerprints: [`MrcpRm::image`] lists every job of the round.
    departed: Vec<(JobId, u64)>,
}

/// Fingerprint of the schedulable resource pool (ids + capacities).
fn pool_fingerprint<'r>(up: impl IntoIterator<Item = &'r Resource>) -> u64 {
    let mut h = DefaultHasher::new();
    for r in up {
        r.id.hash(&mut h);
        r.map_capacity.hash(&mut h);
        r.reduce_capacity.hash(&mut h);
    }
    h.finish()
}

/// Fingerprint of one job's model-relevant state (everything that shapes
/// its part of the CP model except the release — see [`RoundCache`]).
fn job_fingerprint(input: &JobInput<'_>) -> u64 {
    let mut h = DefaultHasher::new();
    input.job.id.hash(&mut h);
    input.job.deadline.as_millis().hash(&mut h);
    input.priority.hash(&mut h);
    for t in &input.tasks {
        t.id.hash(&mut h);
        t.kind.hash(&mut h);
        t.exec_time.as_millis().hash(&mut h);
        t.req.hash(&mut h);
        t.pinned.map(|(r, s)| (r, s.as_millis())).hash(&mut h);
    }
    h.finish()
}

/// Total `exec_time` of the uncompleted tasks of `jobs`, by walking them.
fn outstanding_of(jobs: &BTreeMap<JobId, JobState>) -> SimTime {
    let tasks = jobs.values().flat_map(|s| &s.tasks);
    tasks
        .filter(|t| t.status != TaskStatusImage::Completed)
        .fold(SimTime::ZERO, |sum, t| sum + t.exec_time)
}

/// Aggregate manager statistics (drives the paper's `O` metric).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Scheduling rounds executed.
    pub invocations: u64,
    /// Total wall-clock time spent building + solving models.
    pub total_solve: Duration,
    /// Total solver branching decisions.
    pub total_nodes: u64,
    /// Rounds in which the solver proved optimality.
    pub optimal_rounds: u64,
    /// Rounds stopped by budget with an incumbent.
    pub feasible_rounds: u64,
    /// Rounds the greedy EDF fallback served: the split CP rung failed,
    /// or the budget controller skipped it.
    pub degraded_rounds: u64,
    /// Rounds where even the fallback produced nothing (the plan is left
    /// empty; tasks wait for the next round).
    pub failed_rounds: u64,
    /// Task attempts reported failed via [`ResourceManager::task_failed`].
    pub tasks_failed: u64,
    /// Failed or interrupted tasks returned to the waiting queue.
    pub tasks_requeued: u64,
    /// Jobs abandoned because a task exhausted its retry budget.
    pub jobs_abandoned: u64,
    /// Largest single-round task count.
    pub max_tasks_in_model: usize,
    /// Jobs refused by the admission probe or the queue bound.
    pub jobs_rejected: u64,
    /// Jobs admitted with a renegotiated (relaxed) deadline.
    pub jobs_renegotiated: u64,
    /// Jobs shed from the pending queue to admit more urgent arrivals.
    pub jobs_shed: u64,
    /// High-water mark of jobs in the system (active + deferred).
    pub max_queue_depth: usize,
    /// Budget-controller scale changes (shrinks + grows).
    pub budget_adaptations: u64,
    /// Longest single scheduling round observed.
    pub max_round_solve: Duration,
    /// Rounds that reused at least one cached placement from the previous
    /// round as warm start (cross-round incremental reuse).
    pub warm_rounds: u64,
    /// Round-cache invalidations from resource availability changes.
    pub cache_invalidations: u64,
}

impl ManagerStats {
    /// Fold another manager's statistics into this one (the federation
    /// layer aggregates per-cell stats into fleet totals): counters and
    /// durations add, high-water marks take the max.
    pub fn absorb(&mut self, other: &ManagerStats) {
        self.invocations += other.invocations;
        self.total_solve += other.total_solve;
        self.total_nodes += other.total_nodes;
        self.optimal_rounds += other.optimal_rounds;
        self.feasible_rounds += other.feasible_rounds;
        self.degraded_rounds += other.degraded_rounds;
        self.failed_rounds += other.failed_rounds;
        self.tasks_failed += other.tasks_failed;
        self.tasks_requeued += other.tasks_requeued;
        self.jobs_abandoned += other.jobs_abandoned;
        self.max_tasks_in_model = self.max_tasks_in_model.max(other.max_tasks_in_model);
        self.jobs_rejected += other.jobs_rejected;
        self.jobs_renegotiated += other.jobs_renegotiated;
        self.jobs_shed += other.jobs_shed;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        self.budget_adaptations += other.budget_adaptations;
        self.max_round_solve = self.max_round_solve.max(other.max_round_solve);
        self.warm_rounds += other.warm_rounds;
        self.cache_invalidations += other.cache_invalidations;
    }
}

/// A task's lifecycle state inside a [`ManagerImage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatusImage {
    /// Queued (or requeued after a failure), awaiting a plan slot.
    Waiting,
    /// Running on `resource` since `start`.
    Started {
        /// The resource executing the attempt.
        resource: ResourceId,
        /// When the attempt began.
        start: SimTime,
    },
    /// Finished.
    Completed,
}

/// One task's durable state inside a [`ManagerImage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskImage {
    /// The task.
    pub id: TaskId,
    /// Map or reduce.
    pub kind: TaskKind,
    /// Current execution-time estimate (revised for stragglers).
    pub exec_time: SimTime,
    /// The declared `e_t`, restored when a failed attempt requeues.
    pub nominal_exec: SimTime,
    /// Slots required.
    pub req: u32,
    /// Lifecycle state.
    pub status: TaskStatusImage,
    /// Failed attempts accumulated so far.
    pub failed_attempts: u32,
}

/// One live job and its task states inside a [`ManagerImage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobImage {
    /// The job as submitted (deadline may have been renegotiated).
    pub job: Job,
    /// Its tasks, in submission order.
    pub tasks: Vec<TaskImage>,
}

/// The cross-round reuse cache inside a [`ManagerImage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundCacheImage {
    /// Fingerprint of the up-resource pool the placements assume.
    pub pool_fp: u64,
    /// Per-job fingerprints at solve time, sorted by job.
    pub jobs: Vec<(JobId, u64)>,
    /// The previous round's installed placements of the jobs still in the
    /// system, sorted by task. A job that has left takes its placements
    /// with it; on restore, placements of tasks the image does not hold
    /// are dropped.
    pub placements: Vec<(TaskId, ResourceId, SimTime)>,
}

/// A complete, plain-data snapshot of an [`MrcpRm`]'s mutable state, as
/// produced by [`MrcpRm::image`] and consumed by [`MrcpRm::restore`].
///
/// Everything a recovered manager needs to continue bit-exactly is here:
/// live jobs with task lifecycle states, the deferral queue, the current
/// plan, downed resources, the budget-controller state, the round cache,
/// and the accumulated statistics. Collections are sorted so two managers
/// in the same logical state produce identical images. The configuration
/// and the resource pool are *not* part of the image — they are
/// construction inputs the durability layer persists separately (they
/// never change mid-run).
#[derive(Debug, Clone, PartialEq)]
pub struct ManagerImage {
    /// Live jobs (active + deferred), sorted by job id.
    pub jobs: Vec<JobImage>,
    /// Deferred activations `(activation, job)`, sorted.
    pub deferred: Vec<(SimTime, JobId)>,
    /// Planned entries for unstarted tasks, sorted by task.
    pub schedule: Vec<ScheduleEntry>,
    /// Resources currently down, sorted.
    pub down: Vec<ResourceId>,
    /// Budget-controller scale, `[1/64, 1]`.
    pub budget_scale: f64,
    /// Round-latency EWMA, `None` before the first round.
    pub latency_ewma_s: Option<f64>,
    /// Cross-round reuse cache, `None` when cold.
    pub cache: Option<RoundCacheImage>,
    /// Accumulated statistics.
    pub stats: ManagerStats,
}

/// A fully-unstarted job's standing in the current plan, as reported by
/// [`MrcpRm::planned_unstarted_jobs`] for the federation rebalancer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedJob {
    /// The job.
    pub job: JobId,
    /// Its earliest start `s_j` (migration is only safe once this has
    /// passed — a migrated submit must come back `Active`, not deferred).
    pub earliest_start: SimTime,
    /// Its SLA deadline.
    pub deadline: SimTime,
    /// Planned completion per the current schedule; [`SimTime::MAX`] when
    /// at least one task has no schedule entry (unplanned work).
    pub planned_completion: SimTime,
}

/// Completion record returned when a job's last task finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobCompletion {
    /// The job.
    pub job: JobId,
    /// When its last task finished.
    pub completion: SimTime,
    /// Its SLA deadline.
    pub deadline: SimTime,
    /// Its earliest start time `s_j` (the paper measures turnaround from
    /// here).
    pub earliest_start: SimTime,
    /// Whether the deadline was missed.
    pub late: bool,
}

/// Outcome of [`MrcpRm::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submitted {
    /// The job entered the scheduling set; call
    /// [`reschedule`](ResourceManager::reschedule).
    Active,
    /// §V.E deferral: the job is parked until the given activation time.
    Deferred(SimTime),
}

/// The manager's live-telemetry instrument set (DESIGN.md §5k): every
/// counter here is recorded at the *same code point* that mutates the
/// corresponding [`ManagerStats`] field, so a mid-run scrape always
/// reconciles with the end-of-run struct. Handles are registered once
/// (at [`MrcpRm::set_telemetry`]); recording is atomic adds only, so a
/// scheduling round never blocks on observability. Defaults to the
/// disabled no-op set.
#[derive(Debug, Clone)]
pub(crate) struct ManagerTel {
    bus: telemetry::EventBus,
    /// Rounds served, labeled by degradation-ladder rung.
    rounds_split: telemetry::Counter,
    rounds_greedy: telemetry::Counter,
    rounds_failed: telemetry::Counter,
    round_solve_us: telemetry::Histogram,
    admitted: telemetry::Counter,
    renegotiated: telemetry::Counter,
    rejected: telemetry::Counter,
    shed: telemetry::Counter,
    warm_rounds: telemetry::Counter,
    /// Rounds whose installed placements `split::audit` checked.
    audited_rounds: telemetry::Counter,
    cache_invalidations: telemetry::Counter,
    tasks_failed: telemetry::Counter,
    tasks_requeued: telemetry::Counter,
    jobs_abandoned: telemetry::Counter,
    jobs_in_system: telemetry::Gauge,
    resources_down: telemetry::Gauge,
    budget_scale_milli: telemetry::Gauge,
    budget_adaptations: telemetry::Counter,
    solve: cpsolve::SolveTel,
}

impl ManagerTel {
    fn new(tel: &telemetry::Telemetry) -> ManagerTel {
        let reg = &tel.registry;
        ManagerTel {
            bus: tel.bus.clone(),
            rounds_split: reg.counter("mrcp_rounds_total", &[("rung", "split_cp")]),
            rounds_greedy: reg.counter("mrcp_rounds_total", &[("rung", "greedy")]),
            rounds_failed: reg.counter("mrcp_rounds_total", &[("rung", "failed")]),
            round_solve_us: reg.histogram("mrcp_round_solve_us", &[], telemetry::LATENCY_US_BOUNDS),
            admitted: reg.counter("mrcp_admission_total", &[("verdict", "admitted")]),
            renegotiated: reg.counter("mrcp_admission_total", &[("verdict", "renegotiated")]),
            rejected: reg.counter("mrcp_admission_total", &[("verdict", "rejected")]),
            shed: reg.counter("mrcp_jobs_shed_total", &[]),
            warm_rounds: reg.counter("mrcp_warm_rounds_total", &[]),
            audited_rounds: reg.counter("mrcp_audited_rounds_total", &[]),
            cache_invalidations: reg.counter("mrcp_cache_invalidations_total", &[]),
            tasks_failed: reg.counter("mrcp_tasks_failed_total", &[]),
            tasks_requeued: reg.counter("mrcp_tasks_requeued_total", &[]),
            jobs_abandoned: reg.counter("mrcp_jobs_abandoned_total", &[]),
            jobs_in_system: reg.gauge("mrcp_jobs_in_system", &[]),
            resources_down: reg.gauge("mrcp_resources_down", &[]),
            budget_scale_milli: reg.gauge("mrcp_budget_scale_milli", &[]),
            budget_adaptations: reg.counter("mrcp_budget_adaptations_total", &[]),
            solve: cpsolve::SolveTel::new(reg),
        }
    }

    fn rung_counter(&self, rung: RoundRung) -> &telemetry::Counter {
        match rung {
            RoundRung::SplitCp => &self.rounds_split,
            RoundRung::Greedy => &self.rounds_greedy,
        }
    }

    fn event(&self, now: SimTime, kind: telemetry::EventKind, job: Option<u64>, detail: &str) {
        self.bus.publish(telemetry::Event {
            at_ms: now.as_millis(),
            kind,
            cell: None,
            job,
            detail: detail.to_string(),
        });
    }
}

impl Default for ManagerTel {
    fn default() -> ManagerTel {
        ManagerTel::new(&telemetry::Telemetry::disabled())
    }
}

/// Outcome of [`ResourceManager::submit_with_admission`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionOutcome {
    /// What the admission probe decided.
    pub decision: AdmissionDecision,
    /// How the job entered the system — `None` when it was rejected.
    pub submitted: Option<Submitted>,
    /// Jobs shed from the pending queue to make room; the host should
    /// cancel any events it still holds for their tasks.
    pub shed: Vec<AbandonedJob>,
}

/// A job forced out of the system because one of its tasks exhausted the
/// retry budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbandonedJob {
    /// The job.
    pub job: JobId,
    /// Every task of the job (completed or not) — the host should cancel
    /// any events it still holds for them.
    pub tasks: Vec<TaskId>,
    /// Its SLA deadline.
    pub deadline: SimTime,
    /// Its earliest start `s_j`.
    pub earliest_start: SimTime,
}

/// Outcome of [`ResourceManager::task_failed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureAction {
    /// The attempt was charged and the task requeued; the caller should
    /// reschedule.
    Requeued {
        /// Failed attempts accumulated by this task so far.
        failed_attempts: u32,
    },
    /// The retry budget is exhausted: the job left the system.
    JobAbandoned(AbandonedJob),
}

/// The MRCP-RM resource manager.
///
/// ```
/// use desim::SimTime;
/// use mrcp::{MrcpConfig, MrcpRm, ResourceManager};
/// use workload::model::homogeneous_cluster;
/// use workload::{Job, JobId, Task, TaskId, TaskKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let job = Job {
///     id: JobId(0),
///     arrival: SimTime::ZERO,
///     earliest_start: SimTime::ZERO,
///     deadline: SimTime::from_secs(60),
///     map_tasks: vec![Task {
///         id: TaskId(0), job: JobId(0), kind: TaskKind::Map,
///         exec_time: SimTime::from_secs(10), req: 1,
///     }],
///     reduce_tasks: vec![],
/// };
///
/// let mut rm = MrcpRm::new(MrcpConfig::default(), homogeneous_cluster(2, 1, 1));
/// rm.submit(job, SimTime::ZERO)?;
/// let plan = rm.reschedule(SimTime::ZERO);   // Table 2 algorithm
/// let first = *plan.first().ok_or("round produced no plan")?;
/// assert_eq!(plan.len(), 1);
/// assert_eq!(first.start, SimTime::ZERO);
///
/// // Drive execution like the simulator would:
/// rm.task_started(first.task, first.start)?;
/// let done = rm
///     .task_completed(first.task, first.end)?
///     .ok_or("job still has tasks outstanding")?;
/// assert!(!done.late);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MrcpRm {
    cfg: MrcpConfig,
    resources: Vec<Resource>,
    /// Live jobs (active and deferred), iterated in job-id order.
    jobs: BTreeMap<JobId, JobState>,
    /// Jobs parked by the deferral policy: `(activation, job)`.
    deferred: Vec<(SimTime, JobId)>,
    /// Task → owning job and the task's index in that job's `tasks`, for
    /// event routing. Tasks never leave a job's `tasks`, so the index
    /// holds for the job's whole stay.
    task_owner: HashMap<TaskId, (JobId, usize)>,
    /// Resources currently down — excluded from every scheduling round.
    down: HashSet<ResourceId>,
    /// [`pool_fingerprint`] of the up resources, refreshed whenever one
    /// goes down or comes back.
    up_fp: u64,
    /// Total `exec_time` of the live jobs' uncompleted tasks, kept by every
    /// call that changes it ([`MrcpRm::outstanding_work`]).
    outstanding: SimTime,
    /// The most recent round's failure, if it produced no schedule.
    last_error: Option<SchedulingError>,
    /// Budget-controller state: current scale on the per-round solver
    /// budget, `[1/64, 1]`; 1.0 when no controller is configured.
    budget_scale: f64,
    /// EWMA of recent round latencies (seconds), `None` before the first
    /// round.
    latency_ewma_s: Option<f64>,
    /// Previous round's placements for cross-round reuse; `None` when
    /// cold (first round, failed round, or invalidated).
    cache: Option<RoundCache>,
    /// The newest round epoch: every install opens one.
    epoch: u64,
    stats: ManagerStats,
    /// Live instruments mirroring `stats` (disabled by default; see
    /// [`MrcpRm::set_telemetry`]). Strictly observational: never read
    /// back by any scheduling decision.
    tel: ManagerTel,
}

impl MrcpRm {
    /// A manager over `resources`.
    pub fn new(cfg: MrcpConfig, resources: Vec<Resource>) -> Self {
        assert!(!resources.is_empty(), "manager needs at least one resource");
        MrcpRm {
            cfg,
            up_fp: pool_fingerprint(&resources),
            resources,
            jobs: BTreeMap::new(),
            deferred: Vec::new(),
            task_owner: HashMap::new(),
            down: HashSet::new(),
            outstanding: SimTime::ZERO,
            last_error: None,
            budget_scale: 1.0,
            latency_ewma_s: None,
            cache: None,
            epoch: 0,
            stats: ManagerStats::default(),
            tel: ManagerTel::default(),
        }
    }

    /// Attach live telemetry: registers this manager's instruments in
    /// `tel.registry` and publishes events on `tel.bus`. Recording is
    /// atomic adds at the same sites that mutate [`ManagerStats`], so a
    /// mid-run scrape reconciles with [`ResourceManager::stats`]. Pass
    /// [`telemetry::Telemetry::disabled`] (the default) for bit-exact
    /// no-op behaviour.
    pub fn set_telemetry(&mut self, tel: &telemetry::Telemetry) {
        self.tel = ManagerTel::new(tel);
        self.tel.jobs_in_system.set(self.jobs.len() as i64);
        self.tel.resources_down.set(self.down.len() as i64);
        self.tel
            .budget_scale_milli
            .set((self.budget_scale * 1000.0).round() as i64);
    }

    /// The configuration in use.
    pub fn config(&self) -> &MrcpConfig {
        &self.cfg
    }

    /// The cluster.
    pub fn resources(&self) -> &[Resource] {
        &self.resources
    }

    /// Current budget-controller scale on the per-round solver budget
    /// (1.0 = full budget; only moves when a controller is configured).
    pub fn budget_scale(&self) -> f64 {
        self.budget_scale
    }

    /// The error from the most recent scheduling round, when that round
    /// produced no schedule at all (see [`ManagerStats::failed_rounds`]).
    pub fn last_scheduling_error(&self) -> Option<&SchedulingError> {
        self.last_error.as_ref()
    }

    /// Resources currently marked down.
    pub fn down_resources(&self) -> Vec<ResourceId> {
        let mut ids: Vec<ResourceId> = self.down.iter().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Total remaining execution time across live jobs' non-completed
    /// tasks — the load estimate the federation router compares cells by.
    pub fn outstanding_work(&self) -> SimTime {
        debug_assert_eq!(
            self.outstanding,
            outstanding_of(&self.jobs),
            "running total of outstanding work out of step"
        );
        self.outstanding
    }

    /// The stored job, if it is in the system (active or deferred).
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(&id).map(|s| &s.job)
    }

    /// Run the two-stage admission probe (DESIGN.md §5c) against this
    /// manager's live state without submitting anything. The federation
    /// router and rebalancer use this as the per-cell slack estimator:
    /// `Err` carries the reject reason and the earliest deadline this cell
    /// could have promised.
    pub fn probe_admission(&self, job: &Job, now: SimTime) -> Result<(), (RejectReason, SimTime)> {
        self.admission_probe(job, now)
    }

    /// Every fully-unstarted, non-completed job with its planned completion
    /// per the current schedule (sorted by job id). Jobs with unplanned
    /// tasks report [`SimTime::MAX`]. The federation rebalancer offers the
    /// late ones to cells with more slack.
    pub fn planned_unstarted_jobs(&self) -> Vec<PlannedJob> {
        self.jobs
            .iter()
            .filter(|(_, s)| s.tasks.iter().all(|t| t.status == TaskStatusImage::Waiting))
            .map(|(&id, s)| {
                let mut completion = SimTime::ZERO;
                for slot in &s.slots {
                    match slot.planned {
                        Some(e) => completion = completion.max(e.end),
                        None => {
                            completion = SimTime::MAX;
                            break;
                        }
                    }
                }
                PlannedJob {
                    job: id,
                    earliest_start: s.job.earliest_start,
                    deadline: s.job.deadline,
                    planned_completion: completion,
                }
            })
            .collect()
    }

    /// Remove a fully-unstarted job and hand it back for migration to
    /// another manager. Its plan entries, task ownership, and any deferral
    /// are dropped; accumulated retry history does not migrate. Errors
    /// leave the manager unchanged.
    pub fn take_unstarted_job(&mut self, id: JobId) -> Result<Job, ManagerError> {
        let state = self.jobs.get(&id).ok_or(ManagerError::UnknownJob(id))?;
        if state
            .tasks
            .iter()
            .any(|t| t.status != TaskStatusImage::Waiting)
        {
            return Err(ManagerError::JobNotMigratable(id));
        }
        Ok(self.remove_job(id)?.job)
    }

    /// The one exit from the system: drop a job's record together with
    /// its task ownership, plan entries, deferral and outstanding work.
    /// Migration, shedding, abandonment and completion all leave through
    /// here, so the job (or its task ids) can be submitted again afterwards.
    /// A job of the cached round stays listed in the cache's image.
    fn remove_job(&mut self, id: JobId) -> Result<JobState, ManagerError> {
        let state = self.jobs.remove(&id).ok_or(ManagerError::UnknownJob(id))?;
        for t in &state.tasks {
            self.task_owner.remove(&t.id);
            if t.status != TaskStatusImage::Completed {
                self.outstanding -= t.exec_time;
            }
        }
        if state.deferred {
            self.deferred.retain(|&(_, j)| j != id);
        }
        if let (Some(c), Some((epoch, fp))) = (self.cache.as_mut(), state.cached) {
            if epoch == c.epoch {
                c.departed.push((id, fp));
            }
        }
        self.tel.jobs_in_system.set(self.jobs.len() as i64);
        Ok(state)
    }

    /// The one path from a task id to its record (owner index → job →
    /// task): the owning job's state and the task's index in its `tasks`
    /// and `slots`. Every caller changes the task, so the job's
    /// fingerprint memo is dropped.
    fn locate(&mut self, task: TaskId) -> Result<(&mut JobState, usize), ManagerError> {
        let (job, idx) = *self
            .task_owner
            .get(&task)
            .ok_or(ManagerError::UnknownTask(task))?;
        let state = self
            .jobs
            .get_mut(&job)
            .ok_or(ManagerError::UnknownJob(job))?;
        if state.tasks.get(idx).is_none_or(|t| t.id != task) {
            return Err(ManagerError::Inconsistent("stale task index"));
        }
        state.fp = None;
        Ok((state, idx))
    }

    /// [`locate`](Self::locate) narrowed to the owning job, the task, and
    /// the job's count of tasks not yet completed.
    fn task_mut(
        &mut self,
        task: TaskId,
    ) -> Result<(JobId, &mut TaskImage, &mut usize), ManagerError> {
        let (state, idx) = self.locate(task)?;
        Ok((state.job.id, &mut state.tasks[idx], &mut state.remaining))
    }

    /// Refuse, before any state changes, a job whose id is in the system
    /// or one of whose task ids is already known or repeats within the job.
    fn check_fresh(&self, job: &Job) -> Result<(), ManagerError> {
        if self.jobs.contains_key(&job.id) {
            return Err(ManagerError::DuplicateJob(job.id));
        }
        let known = (job.tasks().map(|t| t.id)).find(|id| self.task_owner.contains_key(id));
        match known.or_else(|| job.repeated_task()) {
            Some(id) => Err(ManagerError::DuplicateTask(id)),
            None => Ok(()),
        }
    }

    /// Submit an arriving job. Returns whether it joined the scheduling set
    /// or was deferred (§V.E); in the former case the caller should invoke
    /// [`reschedule`](ResourceManager::reschedule).
    pub fn submit(&mut self, job: Job, now: SimTime) -> Result<Submitted, ManagerError> {
        self.check_fresh(&job)?;
        debug_assert!(job.validate().is_ok(), "invalid job submitted");
        let id = job.id;
        let tasks: Vec<TaskImage> = job
            .tasks()
            .map(|t| TaskImage {
                id: t.id,
                kind: t.kind,
                exec_time: t.exec_time,
                nominal_exec: t.exec_time,
                req: t.req,
                status: TaskStatusImage::Waiting,
                failed_attempts: 0,
            })
            .collect();
        for (i, t) in tasks.iter().enumerate() {
            let prev = self.task_owner.insert(t.id, (id, i));
            debug_assert!(prev.is_none(), "task {:?} already known", t.id);
        }
        let remaining = tasks.len();
        self.outstanding += tasks.iter().fold(SimTime::ZERO, |sum, t| sum + t.exec_time);
        let deferral = (job.earliest_start > now).then_some(job.earliest_start);
        self.jobs.insert(
            id,
            JobState {
                job,
                slots: vec![TaskSlot::default(); remaining],
                tasks,
                remaining,
                deferred: deferral.is_some(),
                fp: None,
                cached: None,
            },
        );
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.jobs.len());
        self.tel.jobs_in_system.set(self.jobs.len() as i64);
        match deferral {
            Some(act) => {
                self.deferred.push((act, id));
                Ok(Submitted::Deferred(act))
            }
            None => Ok(Submitted::Active),
        }
    }

    /// The two-stage admission probe (see [`crate::admission`]): the EDF
    /// demand bound per slot pool over every live job plus the candidate,
    /// then the greedy witness: the list scheduler ([`crate::list`]) on the
    /// up resources, cut at the candidate's key. Both stages read one walk of
    /// the job table in job-id order, deferred jobs included: their
    /// capacity demand is real even though they are parked. `Err` carries
    /// the reason and the earliest deadline the manager could have
    /// promised.
    fn admission_probe(&self, job: &Job, now: SimTime) -> Result<(), (RejectReason, SimTime)> {
        let map_slots: u32 = self.up().map(|r| r.map_capacity).sum();
        let reduce_slots: u32 = self.up().map(|r| r.reduce_capacity).sum();
        if self.up().next().is_none()
            || (!job.map_tasks.is_empty() && map_slots == 0)
            || (!job.reduce_tasks.is_empty() && reduce_slots == 0)
        {
            return Err((RejectReason::DemandExceedsCapacity, SimTime::MAX));
        }

        // Stage 1 sums each job's outstanding work per slot pool; a
        // started task counts only its remaining occupancy. Stage 2 books
        // the running tasks as the same walk passes them.
        let now_ms = now.as_millis();
        let add_work = |work: &mut (i64, i64), t: &TaskInput| {
            let w = match t.pinned {
                None => t.exec_time.as_millis(),
                Some((_, start)) => (start.as_millis() + t.exec_time.as_millis() - now_ms).max(0),
            };
            match t.kind {
                TaskKind::Map => work.0 += w,
                TaskKind::Reduce => work.1 += w,
            }
        };
        let ordering = self.cfg.ordering;
        let key = |j: &Job| {
            (
                ordering.priority(j),
                j.deadline.as_millis(),
                j.earliest_start.max(now).as_millis(),
            )
        };
        let mut demand: Vec<(i64, i64, i64)> = Vec::with_capacity(self.jobs.len() + 1);
        // The witness's handle on a job: a live one, or `None` for the
        // candidate, which has started nothing.
        let tasks_of = |state| {
            let live = Option::map(state, JobState::outstanding);
            let candidate = live.is_none().then(|| job.tasks().map(TaskInput::free));
            let live = live.into_iter().flatten();
            live.chain(candidate.into_iter().flatten())
        };
        let mut witness = list::per_resource(self.up(), Some(key(job)));
        for state in self.jobs.values().filter(|s| s.remaining > 0) {
            let mut work = (0, 0);
            let tasks = state.outstanding().inspect(|t| add_work(&mut work, t));
            witness.book(Some(state), key(&state.job), tasks);
            demand.push((state.job.deadline.as_millis(), work.0, work.1));
        }
        let mut work = (0, 0);
        let candidate = job.tasks().map(TaskInput::free);
        witness.book(
            None,
            key(job),
            candidate.inspect(|t| add_work(&mut work, t)),
        );
        demand.push((job.deadline.as_millis(), work.0, work.1));
        let (map_work, reduce_work) = demand
            .iter()
            .fold((0, 0), |sum, &(_, m, r)| (sum.0 + m, sum.1 + r));
        let bound_violated =
            edf_demand_violation(now_ms, (map_slots, reduce_slots), &mut demand).is_some();
        let estimate =
            earliest_feasible_estimate(now, map_slots, SimTime::from_millis(map_work)).max(
                earliest_feasible_estimate(now, reduce_slots, SimTime::from_millis(reduce_work)),
            );

        // Stage 2: the greedy witness, with no model.
        let completion = witness.place(tasks_of, None).map(SimTime::from_millis);
        // Debug builds: against the greedy over the full model of the live
        // jobs with outstanding work, then the candidate.
        #[cfg(debug_assertions)]
        witness.assert_matches_model(
            || {
                let (_, mut inputs) = Self::collect_inputs(ordering, &self.jobs, now, true);
                inputs.push(JobInput {
                    priority: ordering.priority(job),
                    job,
                    release: job.earliest_start.max(now),
                    tasks: job.tasks().map(TaskInput::free).collect(),
                });
                crate::modelmap::build_model(&self.up().cloned().collect::<Vec<_>>(), &inputs)
            },
            None,
        );
        match completion {
            // A violated bound is a proof that the job set (candidate
            // included) cannot all meet its deadlines; the witness
            // completion is still the better renegotiation quote.
            Some(c) if bound_violated => {
                Err((RejectReason::DemandExceedsCapacity, c.max(estimate)))
            }
            Some(c) if c > job.deadline => Err((RejectReason::WitnessLate, c)),
            Some(_) => Ok(()),
            None if bound_violated => Err((RejectReason::DemandExceedsCapacity, estimate)),
            // Witness construction failed (inconsistent pins): feasibility
            // cannot be demonstrated, so non-best-effort policies treat
            // the job as unmeetable.
            None => Err((RejectReason::WitnessLate, estimate)),
        }
    }

    /// The lowest-value shedding candidate: among fully unstarted jobs,
    /// the one with the farthest deadline (deterministic tie-break on id).
    fn shed_victim(&self) -> Option<(JobId, SimTime)> {
        self.jobs
            .iter()
            .filter(|(_, s)| s.tasks.iter().all(|t| t.status == TaskStatusImage::Waiting))
            .map(|(&id, s)| (id, s.job.deadline))
            .max_by_key(|&(id, d)| (d, id))
    }

    /// Force a job out of the system (shed by the queue bound, or abandoned
    /// by [`task_failed`](ResourceManager::task_failed)) and tell the host which tasks
    /// went with it.
    fn evict(&mut self, id: JobId) -> Result<AbandonedJob, ManagerError> {
        let state = self.remove_job(id)?;
        Ok(AbandonedJob {
            job: id,
            tasks: state.tasks.iter().map(|t| t.id).collect(),
            deadline: state.job.deadline,
            earliest_start: state.job.earliest_start,
        })
    }

    /// Earliest pending activation, if any.
    pub fn next_activation(&self) -> Option<SimTime> {
        self.deferred.iter().map(|&(act, _)| act).min()
    }

    /// Drop the cross-round cache (resource availability changed — the
    /// pool fingerprint would reject it anyway, but dropping eagerly
    /// keeps placements onto vanished resources out of the manager).
    fn invalidate_round_cache(&mut self) {
        if self.cache.take().is_some() {
            self.stats.cache_invalidations += 1;
            self.tel.cache_invalidations.inc();
        }
    }

    /// The resources not down, in pool order.
    fn up(&self) -> impl Iterator<Item = &Resource> + Clone {
        self.resources.iter().filter(|r| !self.down.contains(&r.id))
    }

    /// Recompute [`pool_fingerprint`] of the up resources after the set of
    /// downed ones changed.
    fn refresh_up_fp(&mut self) {
        self.up_fp = pool_fingerprint(self.up());
    }

    /// Drop every entry of the current plan.
    fn clear_plan(&mut self) {
        for state in self.jobs.values_mut() {
            for slot in &mut state.slots {
                slot.planned = None;
            }
        }
    }

    /// The accounting every exit of a round that reached the solver
    /// shares: one invocation, its wall time into the stats, the budget
    /// controller and the latency histogram, and the outcome by rung.
    fn book_round(
        &mut self,
        now: SimTime,
        elapsed: Duration,
        n_tasks: usize,
        round: &Result<RoundResult, SchedulingError>,
    ) {
        self.stats.invocations += 1;
        self.stats.total_solve += elapsed;
        self.observe_round_latency(elapsed);
        self.tel.round_solve_us.record(elapsed.as_micros() as u64);
        let (outcome, rung) = match round {
            Ok((_, outcome, rung)) => (outcome, *rung),
            Err(err) => {
                self.stats.failed_rounds += 1;
                self.tel.rounds_failed.inc();
                let detail = match err {
                    SchedulingError::Inconsistent(_) => "round failed: stale placement",
                    _ => "round failed",
                };
                self.tel
                    .event(now, telemetry::EventKind::RoundSolved, None, detail);
                return;
            }
        };
        self.stats.total_nodes += outcome.stats.nodes;
        self.stats.max_tasks_in_model = self.stats.max_tasks_in_model.max(n_tasks);
        self.tel.rung_counter(rung).inc();
        self.tel.solve.record(&outcome.stats);
        self.tel
            .event(now, telemetry::EventKind::RoundSolved, None, rung.name());
        if rung == RoundRung::Greedy {
            self.tel.event(
                now,
                telemetry::EventKind::LadderEscalation,
                None,
                rung.name(),
            );
            self.stats.degraded_rounds += 1;
        } else {
            match outcome.status {
                Status::Optimal => self.stats.optimal_rounds += 1,
                Status::Feasible => self.stats.feasible_rounds += 1,
                // A split-rung success always carries a solution, but the
                // status can be Unknown when the budget ran out before the
                // warm start was improved; it still counts as a round.
                _ => {}
            }
        }
    }

    /// Install a solved round. `jobs` lists the round's jobs in input
    /// order with their fingerprints, and `placements` its tasks in the
    /// same flattened order (every rung returns them so), so the walk takes
    /// one job lookup per job and none per task. Install opens a new epoch:
    /// each job keeps its fingerprint as its memo and, while rounds are
    /// reused, as its record of this round under the new epoch. Each task's
    /// slot records its placement for the next round's hints, each waiting
    /// task gets its plan entry, and the plan comes back sorted by start. A
    /// placement out of step with the round's tasks surfaces as a typed
    /// [`SchedulingError`] (recorded as a failed round by the caller,
    /// which then clears the plan) rather than a panic.
    fn install(
        &mut self,
        jobs: &[(JobId, u64)],
        placements: &[(TaskId, ResourceId, SimTime)],
        now: SimTime,
    ) -> Result<Vec<ScheduleEntry>, SchedulingError> {
        let _ = now; // only read by the debug assertion below
        self.epoch += 1;
        let record = self.cfg.reuse_rounds.then_some(self.epoch);
        let mut plan = Vec::with_capacity(placements.len());
        let mut next = placements.iter();
        for &(id, fp) in jobs {
            let state = self.jobs.get_mut(&id).ok_or_else(|| {
                SchedulingError::Inconsistent(format!("round placed unknown job {id}"))
            })?;
            state.fp = Some(fp);
            if let Some(epoch) = record {
                state.cached = Some((epoch, fp));
            }
            for (t, slot) in state.tasks.iter().zip(&mut state.slots) {
                slot.planned = None;
                if t.status == TaskStatusImage::Completed {
                    slot.placed = None;
                    continue;
                }
                let &(tid, rid, start) = next.next().ok_or_else(|| {
                    SchedulingError::Inconsistent(format!("no placement for task {}", t.id))
                })?;
                if tid != t.id {
                    return Err(SchedulingError::Inconsistent(format!(
                        "placement for task {tid} where task {} was asked",
                        t.id
                    )));
                }
                slot.placed = Some((rid, start));
                if t.status == TaskStatusImage::Waiting {
                    debug_assert!(start >= now, "new start {start} in the past (now {now})");
                    let entry = ScheduleEntry {
                        task: tid,
                        job: id,
                        resource: rid,
                        start,
                        end: start + t.exec_time,
                    };
                    slot.planned = Some(entry);
                    plan.push(entry);
                }
            }
        }
        if let Some(&(tid, ..)) = next.next() {
            return Err(SchedulingError::Inconsistent(format!(
                "placement for task {tid} outside the round"
            )));
        }
        plan.sort_unstable_by_key(|e| (e.start, e.task));
        Ok(plan)
    }

    /// The live jobs with outstanding tasks in job-id order — the active
    /// ones, or for the admission probe's model all of them — and their
    /// model inputs ([`JobState::outstanding`]). An associated function
    /// taking the field it reads so callers keep field-precise borrows.
    fn collect_inputs<'a>(
        ordering: JobOrdering,
        jobs: &'a BTreeMap<JobId, JobState>,
        now: SimTime,
        include_deferred: bool,
    ) -> (Vec<&'a JobState>, Vec<JobInput<'a>>) {
        let states: Vec<&JobState> = jobs
            .values()
            .filter(|s| s.remaining > 0 && (include_deferred || !s.deferred))
            .collect();
        let mut inputs: Vec<JobInput<'a>> = Vec::with_capacity(states.len());
        for &state in &states {
            let tasks: Vec<TaskInput> = state.outstanding().collect();
            debug_assert_eq!(tasks.len(), state.remaining, "remaining out of step");
            // Table 2 lines 1–4: releases never lie in the past.
            let release = state.job.earliest_start.max(now);
            inputs.push(JobInput {
                priority: ordering.priority(&state.job),
                job: &state.job,
                release,
                tasks,
            });
        }
        (states, inputs)
    }

    /// The budget controller has squeezed the budget below a quarter: the
    /// round skips the split CP rung and goes straight to greedy EDF.
    fn greedy_only(&self) -> bool {
        self.cfg.controller.is_some() && self.budget_scale < 0.25
    }

    /// Feed one round's wall-clock latency to the budget controller:
    /// update the EWMA and shrink/grow the budget scale to keep the EWMA
    /// under the configured ceiling.
    fn observe_round_latency(&mut self, elapsed: Duration) {
        self.stats.max_round_solve = self.stats.max_round_solve.max(elapsed);
        let Some(ctl) = self.cfg.controller else {
            return;
        };
        let e = elapsed.as_secs_f64();
        let ewma = match self.latency_ewma_s {
            Some(prev) => EWMA_ALPHA * e + (1.0 - EWMA_ALPHA) * prev,
            None => e,
        };
        self.latency_ewma_s = Some(ewma);
        let ceiling = ctl.latency_ceiling.as_secs_f64();
        let old = self.budget_scale;
        if ewma > 0.75 * ceiling {
            self.budget_scale = (self.budget_scale * 0.5).max(MIN_SCALE);
        } else if ewma < 0.25 * ceiling && self.budget_scale < 1.0 {
            self.budget_scale = (self.budget_scale * 2.0).min(1.0);
        }
        if self.budget_scale != old {
            self.stats.budget_adaptations += 1;
            self.tel.budget_adaptations.inc();
            self.tel
                .budget_scale_milli
                .set((self.budget_scale * 1000.0).round() as i64);
        }
    }

    /// One pass down the degradation ladder: the §V.D split CP rung first,
    /// then greedy EDF on one calendar per resource ([`list::greedy`], no
    /// CP model), which cannot time out and succeeds on any consistent
    /// state. With `audit`, each rung's result
    /// is audited before being accepted; a failed audit falls through to
    /// greedy rather than installing a bad plan. With `greedy_only` (the
    /// budget controller's squeeze) the round goes straight to greedy.
    /// Returns the placements, the solver outcome they came from, and which
    /// rung served the round.
    fn solve_round(
        resources: &[Resource],
        inputs: &[JobInput<'_>],
        params: &SolveParams,
        greedy_only: bool,
        hints: Option<&RoundHints>,
        audit: bool,
    ) -> Result<RoundResult, SchedulingError> {
        let audit_ok = |placements: &[(TaskId, ResourceId, SimTime)]| -> Result<(), String> {
            if audit {
                crate::split::audit(resources, inputs, placements)
            } else {
                Ok(())
            }
        };
        if !greedy_only {
            let pp = PortfolioParams::single(params);
            if let Ok(s) = split_solve_portfolio(resources, inputs, &pp, hints) {
                if audit_ok(&s.placements).is_ok() {
                    return Ok((s.placements, s.outcome, RoundRung::SplitCp));
                }
            }
        }

        // Greedy EDF on the real resources, wrapped as a feasible outcome.
        // An audit failure here is terminal: there is nothing further to
        // fall back to.
        let placements = list::greedy(resources, inputs).ok_or_else(|| {
            SchedulingError::NoSolution("greedy EDF: a pin or a task cannot be placed".into())
        })?;
        audit_ok(&placements).map_err(SchedulingError::AuditFailed)?;
        let outcome = Outcome {
            status: Status::Feasible,
            best: None,
            stats: SolveStats::default(),
        };
        Ok((placements, outcome, RoundRung::Greedy))
    }

    /// The current plan for unstarted tasks, sorted by start time.
    pub fn current_schedule(&self) -> Vec<ScheduleEntry> {
        let mut entries = self.plan_entries();
        entries.sort_unstable_by_key(|e| (e.start, e.task));
        entries
    }

    /// Every entry of the current plan, in no particular order.
    fn plan_entries(&self) -> Vec<ScheduleEntry> {
        self.jobs
            .values()
            .flat_map(|s| s.slots.iter().filter_map(|slot| slot.planned))
            .collect()
    }

    /// Capture a plain-data snapshot of the manager's mutable state (see
    /// [`ManagerImage`]). Two managers in the same logical state produce
    /// identical images. [`last_scheduling_error`](Self::last_scheduling_error)
    /// is diagnostic-only and deliberately not captured; a restored
    /// manager starts with none.
    pub fn image(&self) -> ManagerImage {
        let jobs: Vec<JobImage> = self
            .jobs
            .values()
            .map(|s| JobImage {
                job: s.job.clone(),
                tasks: s.tasks.clone(),
            })
            .collect();
        let mut deferred = self.deferred.clone();
        deferred.sort_unstable();
        let mut schedule = self.plan_entries();
        schedule.sort_unstable_by_key(|e| e.task);
        let mut down: Vec<ResourceId> = self.down.iter().copied().collect();
        down.sort_unstable();
        let cache = self.cache.as_ref().map(|c| {
            let mut fps: Vec<(JobId, u64)> = self
                .jobs
                .iter()
                .filter_map(|(&id, s)| match s.cached {
                    Some((epoch, fp)) if epoch == c.epoch => Some((id, fp)),
                    _ => None,
                })
                .chain(c.departed.iter().copied())
                .collect();
            fps.sort_unstable_by_key(|&(j, _)| j);
            let mut placements: Vec<(TaskId, ResourceId, SimTime)> = self
                .jobs
                .values()
                .flat_map(|s| {
                    s.tasks
                        .iter()
                        .zip(&s.slots)
                        .filter_map(|(t, slot)| slot.placed.map(|(r, start)| (t.id, r, start)))
                })
                .collect();
            placements.sort_unstable_by_key(|&(t, _, _)| t);
            RoundCacheImage {
                pool_fp: c.pool_fp,
                jobs: fps,
                placements,
            }
        });
        ManagerImage {
            jobs,
            deferred,
            schedule,
            down,
            budget_scale: self.budget_scale,
            latency_ewma_s: self.latency_ewma_s,
            cache,
            stats: self.stats,
        }
    }

    /// Rebuild a manager from a [`ManagerImage`] over the original
    /// configuration and resource pool. Derived indices (task ownership,
    /// per-job remaining counts) are reconstructed from the image; an
    /// image that references a job, task, or resource inconsistently is
    /// rejected as [`ManagerError::Inconsistent`] without leaving a
    /// partial manager behind.
    pub fn restore(
        cfg: MrcpConfig,
        resources: Vec<Resource>,
        image: ManagerImage,
    ) -> Result<MrcpRm, ManagerError> {
        let mut rm = MrcpRm::new(cfg, resources);
        let mut jobs = BTreeMap::new();
        let mut task_owner = HashMap::new();
        for ji in image.jobs {
            let id = ji.job.id;
            let tasks = ji.tasks;
            for (i, t) in tasks.iter().enumerate() {
                if task_owner.insert(t.id, (id, i)).is_some() {
                    return Err(ManagerError::Inconsistent("snapshot lists a task twice"));
                }
            }
            let remaining = tasks
                .iter()
                .filter(|t| t.status != TaskStatusImage::Completed)
                .count();
            let state = JobState {
                job: ji.job,
                slots: vec![TaskSlot::default(); tasks.len()],
                tasks,
                remaining,
                deferred: false,
                fp: None,
                cached: None,
            };
            if jobs.insert(id, state).is_some() {
                return Err(ManagerError::Inconsistent("snapshot lists a job twice"));
            }
        }
        for &(_, j) in &image.deferred {
            let state = jobs
                .get_mut(&j)
                .ok_or(ManagerError::Inconsistent("snapshot defers an unknown job"))?;
            state.deferred = true;
        }
        for e in image.schedule {
            let slot = task_owner
                .get(&e.task)
                .and_then(|&(j, i)| jobs.get_mut(&j).map(|s| &mut s.slots[i]))
                .ok_or(ManagerError::Inconsistent(
                    "snapshot schedules an unknown task",
                ))?;
            if slot.planned.replace(e).is_some() {
                return Err(ManagerError::Inconsistent(
                    "snapshot schedules a task twice",
                ));
            }
        }
        let mut down = HashSet::with_capacity(image.down.len());
        for r in image.down {
            if !rm.resources.iter().any(|x| x.id == r) {
                return Err(ManagerError::Inconsistent(
                    "snapshot downs an unknown resource",
                ));
            }
            if !down.insert(r) {
                return Err(ManagerError::Inconsistent(
                    "snapshot downs a resource twice",
                ));
            }
        }
        rm.cache = image.cache.map(|c| {
            // Placements of tasks the image does not hold belong to jobs
            // that have left; they could never be hinted again.
            for (t, r, start) in c.placements {
                if let Some(&(j, i)) = task_owner.get(&t) {
                    if let Some(state) = jobs.get_mut(&j) {
                        state.slots[i].placed = Some((r, start));
                    }
                }
            }
            // The round's jobs still in the system carry their record; the
            // rest left after it and stay listed.
            let mut departed = Vec::new();
            for (j, fp) in c.jobs {
                match jobs.get_mut(&j) {
                    Some(state) => state.cached = Some((rm.epoch, fp)),
                    None => departed.push((j, fp)),
                }
            }
            RoundCache {
                pool_fp: c.pool_fp,
                epoch: rm.epoch,
                departed,
            }
        });
        rm.outstanding = outstanding_of(&jobs);
        rm.jobs = jobs;
        rm.task_owner = task_owner;
        rm.down = down;
        rm.refresh_up_fp();
        rm.deferred = image.deferred;
        rm.budget_scale = image.budget_scale;
        rm.latency_ewma_s = image.latency_ewma_s;
        rm.stats = image.stats;
        Ok(rm)
    }
}

impl ResourceManager for MrcpRm {
    /// Through the overload-protection layer (DESIGN.md §5c): enforce
    /// the pending-queue bound (shedding lowest-value jobs to make room),
    /// run the admission probe, and apply the configured
    /// [`AdmissionPolicy`]. With the default configuration (best-effort
    /// policy, unbounded queue) this is exactly [`submit`](Self::submit).
    fn submit_with_admission(
        &mut self,
        mut job: Job,
        now: SimTime,
    ) -> Result<AdmissionOutcome, ManagerError> {
        // Duplicate checks up front so a malformed submit cannot shed work.
        self.check_fresh(&job)?;

        // Backpressure: bound the pending queue, shedding the lowest-value
        // (farthest-deadline, fully unstarted) jobs to make room for more
        // urgent arrivals. When the arrival itself is the least valuable
        // candidate, it is the one refused.
        let mut shed = Vec::new();
        if let Some(limit) = self.cfg.admission.max_pending_jobs {
            while self.jobs.len() >= limit.max(1) {
                match self.shed_victim() {
                    Some((victim, victim_deadline)) if victim_deadline > job.deadline => {
                        self.stats.jobs_shed += 1;
                        self.tel.shed.inc();
                        self.tel.event(
                            now,
                            telemetry::EventKind::JobShed,
                            Some(u64::from(victim.0)),
                            "queue full",
                        );
                        // The victim was picked from the job table a line
                        // ago; its absence is an invariant breach, typed
                        // rather than a panic.
                        shed.push(self.evict(victim).map_err(|_| {
                            ManagerError::Inconsistent("shed victim vanished from the job table")
                        })?);
                    }
                    _ => {
                        self.stats.jobs_rejected += 1;
                        self.tel.rejected.inc();
                        self.tel.event(
                            now,
                            telemetry::EventKind::AdmissionRejected,
                            Some(u64::from(job.id.0)),
                            "queue full",
                        );
                        return Ok(AdmissionOutcome {
                            decision: AdmissionDecision::Reject {
                                reason: RejectReason::QueueFull,
                                earliest_feasible_deadline: SimTime::MAX,
                            },
                            submitted: None,
                            shed,
                        });
                    }
                }
            }
        }

        let decision = match self.cfg.admission.policy {
            AdmissionPolicy::BestEffort => AdmissionDecision::Admit,
            policy => match self.admission_probe(&job, now) {
                Ok(()) => AdmissionDecision::Admit,
                Err((reason, earliest)) => {
                    // Renegotiation needs a finite deadline to offer.
                    if policy == AdmissionPolicy::Renegotiate && earliest < SimTime::MAX {
                        self.stats.jobs_renegotiated += 1;
                        self.tel.renegotiated.inc();
                        self.tel.event(
                            now,
                            telemetry::EventKind::AdmissionRenegotiated,
                            Some(u64::from(job.id.0)),
                            "deadline pushed to earliest feasible",
                        );
                        let original = job.deadline;
                        job.deadline = earliest.max(original);
                        AdmissionDecision::AdmitDegraded {
                            original_deadline: original,
                            new_deadline: job.deadline,
                        }
                    } else {
                        self.stats.jobs_rejected += 1;
                        self.tel.rejected.inc();
                        self.tel.event(
                            now,
                            telemetry::EventKind::AdmissionRejected,
                            Some(u64::from(job.id.0)),
                            "admission probe refused",
                        );
                        return Ok(AdmissionOutcome {
                            decision: AdmissionDecision::Reject {
                                reason,
                                earliest_feasible_deadline: earliest,
                            },
                            submitted: None,
                            shed,
                        });
                    }
                }
            },
        };

        let job_id = u64::from(job.id.0);
        let submitted = self.submit(job, now)?;
        self.tel.admitted.inc();
        self.tel.event(
            now,
            telemetry::EventKind::AdmissionAdmitted,
            Some(job_id),
            match decision {
                AdmissionDecision::AdmitDegraded { .. } => "admitted with renegotiated deadline",
                _ => "admitted",
            },
        );
        Ok(AdmissionOutcome {
            decision,
            submitted: Some(submitted),
            shed,
        })
    }

    fn activate_due(&mut self, now: SimTime) -> usize {
        let before = self.deferred.len();
        let jobs = &mut self.jobs;
        self.deferred.retain(|&(act, j)| {
            if act > now {
                return true;
            }
            if let Some(state) = jobs.get_mut(&j) {
                state.deferred = false;
            }
            false
        });
        before - self.deferred.len()
    }

    fn reschedule(&mut self, now: SimTime) -> Vec<ScheduleEntry> {
        let t0 = Instant::now();

        // Assemble model inputs: active jobs with outstanding tasks.
        let (states, inputs) = Self::collect_inputs(self.cfg.ordering, &self.jobs, now, false);

        if inputs.is_empty() {
            self.clear_plan();
            return Vec::new();
        }

        // Exclude crashed resources from the round. With the whole cluster
        // down there is nothing to plan onto; keep the work queued until a
        // resource recovers.
        let up: Vec<Resource> = self.up().cloned().collect();
        if up.is_empty() {
            self.clear_plan();
            return Vec::new();
        }

        let n_tasks: usize = inputs.iter().map(|j| j.tasks.len()).sum();
        let mut params = self.cfg.budget.params_for(n_tasks);
        // Budget controller: a shrunken scale trims every per-round limit,
        // and below a quarter the round is greedy only (see solve_round).
        if self.budget_scale < 1.0 {
            params = params.scaled(self.budget_scale);
        }
        let greedy_only = self.greedy_only();

        // Cross-round reuse: replay the previous round's placements, which
        // each job carries in its slots, for jobs whose fingerprint is
        // unchanged under the same resource pool. Pinned tasks are already
        // constrained by the model and need no hint. Only a job whose
        // inputs changed since it was last installed is hashed.
        let pool_fp = self.up_fp;
        debug_assert_eq!(pool_fp, pool_fingerprint(&up), "stale pool fingerprint");
        let job_fps: Vec<(JobId, u64)> = states
            .iter()
            .zip(&inputs)
            .map(|(state, input)| {
                let fp = state.fp.unwrap_or_else(|| job_fingerprint(input));
                debug_assert_eq!(fp, job_fingerprint(input), "stale fingerprint memo");
                (input.job.id, fp)
            })
            .collect();
        let hints: Option<Vec<Option<(ResourceId, SimTime)>>> = if self.cfg.reuse_rounds {
            self.cache
                .as_ref()
                .filter(|c| c.pool_fp == pool_fp)
                .map(|c| {
                    let mut hints = Vec::with_capacity(n_tasks);
                    for ((state, inp), &(_, fp)) in states.iter().zip(&inputs).zip(&job_fps) {
                        if state.cached != Some((c.epoch, fp)) {
                            hints.resize(hints.len() + inp.tasks.len(), None);
                            continue;
                        }
                        // The job's input tasks are its uncompleted ones,
                        // in order.
                        hints.extend(state.tasks.iter().zip(&state.slots).filter_map(
                            |(t, slot)| match t.status {
                                TaskStatusImage::Completed => None,
                                TaskStatusImage::Waiting => Some(slot.placed),
                                TaskStatusImage::Started { .. } => Some(None),
                            },
                        ));
                    }
                    hints
                })
        } else {
            None
        };
        let warm = hints
            .as_ref()
            .is_some_and(|h| h.iter().any(|x| x.is_some()));

        let audit =
            self.cfg.verify_schedules || (self.stats.invocations + 1).is_multiple_of(AUDIT_EVERY);
        let solved = Self::solve_round(&up, &inputs, &params, greedy_only, hints.as_deref(), audit);
        drop((states, inputs));
        // Install: a placement that does not match the task the round
        // asked about fails the round (no panic), like a round in which
        // every rung failed.
        let mut plan = Vec::new();
        let installed = solved.and_then(|round| {
            plan = self.install(&job_fps, &round.0, now)?;
            Ok(round)
        });
        if installed.is_ok() {
            // Remember this round for the next one's warm start: install
            // recorded it on its jobs under the newest epoch.
            if self.cfg.reuse_rounds {
                self.cache = Some(RoundCache {
                    pool_fp,
                    epoch: self.epoch,
                    departed: Vec::new(),
                });
            }
            if warm {
                self.stats.warm_rounds += 1;
                self.tel.warm_rounds.inc();
            }
            if audit {
                self.tel.audited_rounds.inc();
            }
        }
        self.book_round(now, t0.elapsed(), n_tasks, &installed);
        self.last_error = installed.err();
        if self.last_error.is_some() {
            // Leave the work queued with no plan; the next round (new
            // arrival, completion, recovery) retries from a different state.
            self.clear_plan();
            self.cache = None;
        }
        plan
    }

    fn task_started(&mut self, task: TaskId, now: SimTime) -> Result<ResourceId, ManagerError> {
        let (state, idx) = self.locate(task)?;
        let entry = state.slots[idx]
            .planned
            .take()
            .ok_or(ManagerError::TaskNotScheduled(task))?;
        debug_assert_eq!(entry.start, now, "start time drifted from plan");
        let t = &mut state.tasks[idx];
        debug_assert_eq!(t.status, TaskStatusImage::Waiting);
        t.status = TaskStatusImage::Started {
            resource: entry.resource,
            start: now,
        };
        Ok(entry.resource)
    }

    fn task_completed(
        &mut self,
        task: TaskId,
        now: SimTime,
    ) -> Result<Option<JobCompletion>, ManagerError> {
        let (job, t, remaining) = self.task_mut(task)?;
        match t.status {
            TaskStatusImage::Started { start, .. } => {
                // Stragglers finish after start + e_t; completion can never
                // precede the start.
                debug_assert!(now >= start, "completion at {now} precedes start {start}");
            }
            _ => return Err(ManagerError::TaskNotRunning(task)),
        }
        t.status = TaskStatusImage::Completed;
        let exec = t.exec_time;
        *remaining -= 1;
        let done = *remaining == 0;
        self.outstanding -= exec;
        if !done {
            return Ok(None);
        }
        let state = self.remove_job(job)?;
        Ok(Some(JobCompletion {
            job,
            completion: now,
            deadline: state.job.deadline,
            earliest_start: state.job.earliest_start,
            late: now > state.job.deadline,
        }))
    }

    fn task_duration_revised(
        &mut self,
        task: TaskId,
        new_exec: SimTime,
    ) -> Result<(), ManagerError> {
        let (_, t, _) = self.task_mut(task)?;
        if !matches!(t.status, TaskStatusImage::Started { .. }) {
            return Err(ManagerError::TaskNotRunning(task));
        }
        let old = std::mem::replace(&mut t.exec_time, new_exec);
        self.outstanding = self.outstanding - old + new_exec;
        Ok(())
    }

    fn task_failed(&mut self, task: TaskId, _now: SimTime) -> Result<FailureAction, ManagerError> {
        let (job, t, _) = self.task_mut(task)?;
        if !matches!(t.status, TaskStatusImage::Started { .. }) {
            return Err(ManagerError::TaskNotRunning(task));
        }
        // Back to the queue at the nominal `e_t` (moot when the job is
        // abandoned just below).
        t.failed_attempts += 1;
        let failed_attempts = t.failed_attempts;
        let old = std::mem::replace(&mut t.exec_time, t.nominal_exec);
        let nominal = t.nominal_exec;
        t.status = TaskStatusImage::Waiting;
        self.outstanding = self.outstanding - old + nominal;
        self.stats.tasks_failed += 1;
        self.tel.tasks_failed.inc();
        if failed_attempts > self.cfg.retry_budget {
            self.stats.jobs_abandoned += 1;
            self.tel.jobs_abandoned.inc();
            return Ok(FailureAction::JobAbandoned(self.evict(job)?));
        }
        self.stats.tasks_requeued += 1;
        self.tel.tasks_requeued.inc();
        Ok(FailureAction::Requeued { failed_attempts })
    }

    fn resource_down(
        &mut self,
        rid: ResourceId,
        _now: SimTime,
    ) -> Result<Vec<TaskId>, ManagerError> {
        if !self.resources.iter().any(|r| r.id == rid) {
            return Err(ManagerError::UnknownResource(rid));
        }
        if !self.down.insert(rid) {
            return Err(ManagerError::ResourceAlreadyDown(rid));
        }
        self.refresh_up_fp();
        let mut interrupted = Vec::new();
        for state in self.jobs.values_mut() {
            for (t, slot) in state.tasks.iter_mut().zip(&mut state.slots) {
                if matches!(t.status, TaskStatusImage::Started { resource, .. } if resource == rid)
                {
                    self.outstanding = self.outstanding - t.exec_time + t.nominal_exec;
                    t.exec_time = t.nominal_exec;
                    t.status = TaskStatusImage::Waiting;
                    state.fp = None;
                    interrupted.push(t.id);
                }
                if slot.planned.is_some_and(|e| e.resource == rid) {
                    slot.planned = None;
                }
            }
        }
        self.invalidate_round_cache();
        interrupted.sort_unstable();
        self.stats.tasks_requeued += interrupted.len() as u64;
        self.tel.tasks_requeued.add(interrupted.len() as u64);
        self.tel.resources_down.set(self.down.len() as i64);
        Ok(interrupted)
    }

    fn resource_up(&mut self, rid: ResourceId, _now: SimTime) -> Result<(), ManagerError> {
        if !self.resources.iter().any(|r| r.id == rid) {
            return Err(ManagerError::UnknownResource(rid));
        }
        if !self.down.remove(&rid) {
            return Err(ManagerError::ResourceNotDown(rid));
        }
        self.refresh_up_fp();
        self.invalidate_round_cache();
        self.tel.resources_down.set(self.down.len() as i64);
        Ok(())
    }

    fn jobs_in_system(&self) -> usize {
        self.jobs.len()
    }

    fn stats(&self) -> ManagerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::model::homogeneous_cluster;
    use workload::Task;

    fn mk_job(id: u32, arrival: i64, s: i64, d: i64, maps: &[i64], reduces: &[i64]) -> Job {
        let mut next = id * 1000;
        let mut task = |kind, secs: i64| {
            let t = Task {
                id: TaskId(next),
                job: JobId(id),
                kind,
                exec_time: SimTime::from_secs(secs),
                req: 1,
            };
            next += 1;
            t
        };
        Job {
            id: JobId(id),
            arrival: SimTime::from_secs(arrival),
            earliest_start: SimTime::from_secs(s),
            deadline: SimTime::from_secs(d),
            map_tasks: maps.iter().map(|&e| task(TaskKind::Map, e)).collect(),
            reduce_tasks: reduces.iter().map(|&e| task(TaskKind::Reduce, e)).collect(),
        }
    }

    fn manager() -> MrcpRm {
        MrcpRm::new(MrcpConfig::default(), homogeneous_cluster(2, 1, 1))
    }

    #[test]
    fn single_job_lifecycle() {
        let mut rm = manager();
        let job = mk_job(0, 0, 0, 100, &[10], &[5]);
        assert_eq!(rm.submit(job, SimTime::ZERO), Ok(Submitted::Active));
        let plan = rm.reschedule(SimTime::ZERO);
        assert_eq!(plan.len(), 2);
        let map = plan.iter().find(|e| e.task == TaskId(0)).unwrap();
        let red = plan.iter().find(|e| e.task == TaskId(1)).unwrap();
        assert_eq!(map.start, SimTime::ZERO);
        assert!(red.start >= map.end, "barrier respected");

        assert_eq!(rm.task_started(map.task, map.start), Ok(map.resource));
        assert_eq!(rm.task_completed(map.task, map.end), Ok(None));
        rm.task_started(red.task, red.start).unwrap();
        let done = rm.task_completed(red.task, red.end).unwrap().unwrap();
        assert!(!done.late);
        assert_eq!(done.job, JobId(0));
        assert_eq!(rm.jobs_in_system(), 0);
        assert_eq!(rm.stats().invocations, 1);
    }

    #[test]
    fn deferral_parks_future_jobs() {
        let mut rm = manager();
        let job = mk_job(0, 0, 500, 1000, &[10], &[]);
        match rm.submit(job, SimTime::ZERO) {
            Ok(Submitted::Deferred(act)) => assert_eq!(act, SimTime::from_secs(500)),
            s => panic!("expected deferral, got {s:?}"),
        }
        // A reschedule round excludes the deferred job entirely.
        let plan = rm.reschedule(SimTime::ZERO);
        assert!(plan.is_empty());
        assert_eq!(rm.next_activation(), Some(SimTime::from_secs(500)));
        assert_eq!(rm.activate_due(SimTime::from_secs(499)), 0);
        assert_eq!(rm.activate_due(SimTime::from_secs(500)), 1);
        let plan = rm.reschedule(SimTime::from_secs(500));
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].start, SimTime::from_secs(500));
    }

    #[test]
    fn immediate_jobs_are_not_deferred() {
        // `s_j` at or before `now`: the job enters the scheduling set now.
        let mut rm = manager();
        let now = SimTime::from_secs(100);
        for (id, s) in [(0, 100), (1, 50)] {
            let job = mk_job(id, 0, s, 1_000, &[10], &[]);
            assert_eq!(rm.submit(job, now), Ok(Submitted::Active));
        }
        assert_eq!(rm.next_activation(), None);
    }

    #[test]
    fn future_jobs_are_parked_until_s_j() {
        let mut rm = manager();
        let job = mk_job(0, 0, 500, 1_000, &[10], &[]);
        assert_eq!(
            rm.submit(job, SimTime::from_secs(100)),
            Ok(Submitted::Deferred(SimTime::from_secs(500)))
        );
    }

    #[test]
    fn rescheduling_pins_started_tasks() {
        let mut rm = manager();
        let j0 = mk_job(0, 0, 0, 100, &[20], &[]);
        rm.submit(j0, SimTime::ZERO).unwrap();
        let plan = rm.reschedule(SimTime::ZERO);
        let e0 = plan[0];
        rm.task_started(e0.task, e0.start).unwrap();

        // A second, urgent job arrives mid-flight.
        let j1 = mk_job(1, 5, 5, 30, &[10], &[]);
        rm.submit(j1, SimTime::from_secs(5)).unwrap();
        let plan = rm.reschedule(SimTime::from_secs(5));
        // Only the new job's task is in the plan; the running task is pinned.
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].job, JobId(1));
        // It does not share r0's busy map slot before t=20 — either it's on
        // the other resource at 5 or behind the pin.
        if plan[0].resource == e0.resource {
            assert!(plan[0].start >= e0.end);
        } else {
            assert_eq!(plan[0].start, SimTime::from_secs(5));
        }
    }

    #[test]
    fn new_urgent_job_preempts_planned_slot() {
        // One 1/1 resource. Job A planned but not started; urgent job B
        // arrives and must take the slot first (the paper's motivating
        // example for remapping unstarted tasks).
        let mut rm = MrcpRm::new(MrcpConfig::default(), homogeneous_cluster(1, 1, 1));
        let a = mk_job(0, 0, 0, 200, &[10], &[]);
        rm.submit(a, SimTime::ZERO).unwrap();
        let plan = rm.reschedule(SimTime::ZERO);
        assert_eq!(plan[0].start, SimTime::ZERO);

        let b = mk_job(1, 0, 0, 12, &[10], &[]);
        rm.submit(b, SimTime::ZERO).unwrap();
        let plan = rm.reschedule(SimTime::ZERO);
        assert_eq!(plan.len(), 2);
        let ea = plan.iter().find(|e| e.job == JobId(0)).unwrap();
        let eb = plan.iter().find(|e| e.job == JobId(1)).unwrap();
        assert_eq!(eb.start, SimTime::ZERO, "urgent job moved to the front");
        assert!(ea.start >= eb.end);
    }

    /// A cluster beyond 128 resources plans in full on both rungs with
    /// audits on; debug builds also compare the greedy rung's walk with the
    /// greedy over the full 130-resource model. A zero latency ceiling
    /// halves the budget scale after every round (1, ½, ¼, ⅛, 1/16): rounds
    /// 4 and 5 skip the split rung.
    #[test]
    fn a_cluster_beyond_128_resources_degrades_to_a_full_plan() {
        let cfg = MrcpConfig {
            verify_schedules: true,
            controller: Some(BudgetController::with_ceiling(Duration::ZERO)),
            ..Default::default()
        };
        let mut rm = MrcpRm::new(cfg, homogeneous_cluster(130, 1, 1));
        for i in 0..3 {
            rm.submit(mk_job(i, 0, 0, 10_000, &[10, 20], &[5]), SimTime::ZERO)
                .unwrap();
        }
        for round in 1..=5 {
            let plan = rm.reschedule(SimTime::ZERO);
            assert_eq!(plan.len(), 9, "round {round} plans every task");
        }
        let stats = rm.stats();
        assert_eq!((stats.degraded_rounds, stats.failed_rounds), (2, 0));
        assert!(
            rm.last_scheduling_error().is_none(),
            "{:?}",
            rm.last_scheduling_error()
        );
    }

    /// Under every job ordering one round plans a whole batch on the CP
    /// rung, and the plan passes the independent audit.
    #[test]
    fn orderings_all_solve() {
        use rand::SeedableRng;
        let synth = workload::SyntheticConfig {
            maps_per_job: (1, 5),
            reduces_per_job: (1, 2),
            e_max: 10,
            resources: 4,
            map_capacity: 2,
            reduce_capacity: 2,
            p_future_start: 0.0,
            ..Default::default()
        };
        for ordering in JobOrdering::all() {
            let rng = rand::rngs::StdRng::seed_from_u64(9);
            let jobs = workload::SyntheticGenerator::new(synth.clone(), rng).take_jobs(5);
            let n_tasks: usize = jobs.iter().map(|j| j.task_count()).sum();
            let now = jobs.iter().map(|j| j.earliest_start).max().unwrap();
            let cfg = MrcpConfig {
                ordering,
                ..Default::default()
            };
            let mut rm = MrcpRm::new(cfg, synth.cluster());
            for job in jobs {
                rm.submit(job, now).unwrap();
            }
            let plan = rm.reschedule(now);
            assert_eq!(plan.len(), n_tasks, "{ordering:?}");
            let stats = rm.stats();
            assert_eq!(
                stats.optimal_rounds + stats.feasible_rounds,
                1,
                "{ordering:?}"
            );
            let (_, inputs) = MrcpRm::collect_inputs(ordering, &rm.jobs, now, false);
            let placements: Vec<_> = plan.iter().map(|e| (e.task, e.resource, e.start)).collect();
            crate::split::audit(rm.resources(), &inputs, &placements)
                .unwrap_or_else(|e| panic!("{ordering:?}: {e}"));
        }
    }

    #[test]
    fn duplicate_submission_is_rejected() {
        let mut rm = manager();
        rm.submit(mk_job(0, 0, 0, 100, &[10], &[]), SimTime::ZERO)
            .unwrap();
        assert_eq!(
            rm.submit(mk_job(0, 0, 0, 100, &[10], &[]), SimTime::ZERO),
            Err(ManagerError::DuplicateJob(JobId(0)))
        );
        // The rejection left the original intact.
        assert_eq!(rm.jobs_in_system(), 1);
        assert_eq!(rm.reschedule(SimTime::ZERO).len(), 1);
    }

    /// A job whose two maps share a task id is refused by both submit
    /// paths before any state changes, in debug and release builds alike.
    /// Under a one-job queue bound the refused arrival sheds nothing,
    /// though its deadline is the nearer one.
    #[test]
    fn a_job_that_repeats_a_task_id_is_refused() {
        let bounded = MrcpConfig {
            admission: AdmissionConfig {
                policy: AdmissionPolicy::Strict,
                max_pending_jobs: Some(1),
            },
            ..Default::default()
        };
        for cfg in [MrcpConfig::default(), bounded] {
            let mut rm = MrcpRm::new(cfg, homogeneous_cluster(1, 1, 1));
            rm.submit(mk_job(0, 0, 0, 1_000, &[10], &[]), SimTime::ZERO)
                .unwrap();
            rm.reschedule(SimTime::ZERO);
            let before = rm.image();
            let mut job = mk_job(1, 0, 0, 100, &[10, 10], &[5]);
            job.map_tasks[1].id = job.map_tasks[0].id;
            let twice = ManagerError::DuplicateTask(TaskId(1000));
            assert_eq!(rm.submit(job.clone(), SimTime::ZERO), Err(twice));
            assert_eq!(rm.image(), before);
            let refused = rm.submit_with_admission(job, SimTime::ZERO);
            assert_eq!(refused.unwrap_err(), twice);
            assert_eq!(rm.image(), before);
        }
    }

    #[test]
    fn lifecycle_notifications_validate_state() {
        let mut rm = manager();
        rm.submit(mk_job(0, 0, 0, 100, &[10], &[]), SimTime::ZERO)
            .unwrap();
        // Started before any schedule exists.
        assert_eq!(
            rm.task_started(TaskId(0), SimTime::ZERO),
            Err(ManagerError::TaskNotScheduled(TaskId(0)))
        );
        // Completion of a task that never started.
        assert_eq!(
            rm.task_completed(TaskId(0), SimTime::ZERO),
            Err(ManagerError::TaskNotRunning(TaskId(0)))
        );
        // Unknown ids.
        assert_eq!(
            rm.task_started(TaskId(999), SimTime::ZERO),
            Err(ManagerError::UnknownTask(TaskId(999)))
        );
        assert_eq!(
            rm.task_failed(TaskId(999), SimTime::ZERO),
            Err(ManagerError::UnknownTask(TaskId(999)))
        );
        assert_eq!(
            rm.resource_down(ResourceId(42), SimTime::ZERO),
            Err(ManagerError::UnknownResource(ResourceId(42)))
        );
    }

    #[test]
    fn failed_task_requeues_within_budget_then_abandons() {
        let cfg = MrcpConfig {
            retry_budget: 1,
            ..Default::default()
        };
        let mut rm = MrcpRm::new(cfg, homogeneous_cluster(1, 1, 1));
        rm.submit(mk_job(0, 0, 0, 100, &[10], &[5]), SimTime::ZERO)
            .unwrap();
        let plan = rm.reschedule(SimTime::ZERO);
        let map = *plan.iter().find(|e| e.task == TaskId(0)).unwrap();
        rm.task_started(map.task, map.start).unwrap();

        // First failure: within the budget, requeued.
        let act = rm.task_failed(map.task, SimTime::from_secs(4)).unwrap();
        assert_eq!(act, FailureAction::Requeued { failed_attempts: 1 });
        assert_eq!(rm.stats().tasks_failed, 1);
        assert_eq!(rm.stats().tasks_requeued, 1);

        // The retry shows up in the next plan.
        let plan = rm.reschedule(SimTime::from_secs(4));
        let retry = *plan.iter().find(|e| e.task == TaskId(0)).unwrap();
        assert!(retry.start >= SimTime::from_secs(4));
        rm.task_started(retry.task, retry.start).unwrap();

        // Second failure exhausts the budget: the job is abandoned.
        match rm.task_failed(retry.task, retry.start + SimTime::from_secs(1)) {
            Ok(FailureAction::JobAbandoned(ab)) => {
                assert_eq!(ab.job, JobId(0));
                assert_eq!(ab.tasks.len(), 2, "all of the job's tasks are reported");
            }
            other => panic!("expected abandonment, got {other:?}"),
        }
        assert_eq!(rm.jobs_in_system(), 0);
        assert_eq!(rm.stats().jobs_abandoned, 1);
        assert!(rm.reschedule(SimTime::from_secs(10)).is_empty());
    }

    #[test]
    fn resource_crash_requeues_without_charging_budget() {
        let mut rm = manager();
        rm.submit(mk_job(0, 0, 0, 1000, &[10, 10], &[]), SimTime::ZERO)
            .unwrap();
        let plan = rm.reschedule(SimTime::ZERO);
        let e0 = plan[0];
        rm.task_started(e0.task, e0.start).unwrap();

        let interrupted = rm
            .resource_down(e0.resource, SimTime::from_secs(2))
            .unwrap();
        assert_eq!(interrupted, vec![e0.task]);
        assert_eq!(rm.down_resources(), vec![e0.resource]);
        assert_eq!(
            rm.stats().tasks_failed,
            0,
            "crashes do not charge the retry budget"
        );
        // Double-down is rejected.
        assert_eq!(
            rm.resource_down(e0.resource, SimTime::from_secs(2)),
            Err(ManagerError::ResourceAlreadyDown(e0.resource))
        );

        // Replanning avoids the crashed machine entirely.
        let plan = rm.reschedule(SimTime::from_secs(2));
        assert_eq!(plan.len(), 2);
        for e in &plan {
            assert_ne!(e.resource, e0.resource, "down resource must not be used");
        }

        // Recovery brings it back into the pool.
        rm.resource_up(e0.resource, SimTime::from_secs(3)).unwrap();
        assert!(rm.down_resources().is_empty());
        assert_eq!(
            rm.resource_up(e0.resource, SimTime::from_secs(3)),
            Err(ManagerError::ResourceNotDown(e0.resource))
        );
        let plan = rm.reschedule(SimTime::from_secs(3));
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn whole_cluster_down_keeps_work_queued() {
        let mut rm = MrcpRm::new(MrcpConfig::default(), homogeneous_cluster(1, 1, 1));
        rm.submit(mk_job(0, 0, 0, 100, &[10], &[]), SimTime::ZERO)
            .unwrap();
        let rid = rm.resources()[0].id;
        rm.resource_down(rid, SimTime::ZERO).unwrap();
        assert!(rm.reschedule(SimTime::ZERO).is_empty());
        assert_eq!(rm.jobs_in_system(), 1, "work waits for recovery");
        rm.resource_up(rid, SimTime::from_secs(1)).unwrap();
        assert_eq!(rm.reschedule(SimTime::from_secs(1)).len(), 1);
    }

    #[test]
    fn straggler_revision_is_planned_around() {
        let mut rm = MrcpRm::new(MrcpConfig::default(), homogeneous_cluster(1, 1, 1));
        rm.submit(mk_job(0, 0, 0, 1000, &[10, 10], &[]), SimTime::ZERO)
            .unwrap();
        let plan = rm.reschedule(SimTime::ZERO);
        let first = plan[0];
        let second = plan[1];
        rm.task_started(first.task, first.start).unwrap();
        // The running task is discovered to take 30 s instead of 10.
        rm.task_duration_revised(first.task, SimTime::from_secs(30))
            .unwrap();
        let plan = rm.reschedule(SimTime::from_secs(1));
        let moved = plan.iter().find(|e| e.task == second.task).unwrap();
        assert!(
            moved.start >= SimTime::from_secs(30),
            "successor must wait for the stretched occupancy, got {}",
            moved.start
        );
    }

    #[test]
    fn forced_unknown_budget_falls_back_to_greedy() {
        // A zero node budget under a zero latency ceiling: the controller
        // halves the scale after every round (1, ½, ¼, ⅛), so the fourth
        // round skips the split rung, and the greedy rung must still
        // produce a full schedule.
        let cfg = MrcpConfig {
            budget: SolveBudget {
                node_limit: 0,
                fail_limit: 0,
                ..SolveBudget::default()
            },
            controller: Some(BudgetController::with_ceiling(Duration::ZERO)),
            ..Default::default()
        };
        let mut rm = MrcpRm::new(cfg, homogeneous_cluster(2, 1, 1));
        for i in 0..3 {
            rm.submit(mk_job(i, 0, 0, 10_000, &[10, 20], &[5]), SimTime::ZERO)
                .unwrap();
        }
        for round in 1..=4 {
            let plan = rm.reschedule(SimTime::ZERO);
            assert_eq!(plan.len(), 9, "round {round} schedules everything");
            let greedy = u64::from(round == 4);
            assert_eq!(rm.stats().degraded_rounds, greedy, "round {round}");
        }
        assert_eq!(rm.stats().failed_rounds, 0);
        assert!(rm.last_scheduling_error().is_none());
    }

    /// An on-time round, cold or warm, builds no CP model: the split rung's
    /// calendar warm start has no late job, so it goes straight to
    /// matchmaking. A round with a late job builds the combined model.
    #[test]
    fn an_on_time_round_builds_no_model() {
        let builds = || crate::modelmap::BUILDS.with(|b| b.get());
        let mut rm = manager();
        let before = builds();
        rm.submit(mk_job(0, 0, 0, 100, &[10, 20], &[5]), SimTime::ZERO)
            .unwrap();
        assert_eq!(rm.reschedule(SimTime::ZERO).len(), 3);
        // Job 0 is unchanged, so the second round replays its placements.
        rm.submit(mk_job(1, 0, 0, 200, &[10], &[]), SimTime::ZERO)
            .unwrap();
        assert_eq!(rm.reschedule(SimTime::ZERO).len(), 4);
        let stats = rm.stats();
        assert_eq!((stats.warm_rounds, stats.optimal_rounds), (1, 2));
        assert_eq!(stats.total_nodes, 0);
        assert_eq!(builds(), before, "an on-time round built a model");
        // A 10 s map due at 5 s is late whatever the plan.
        rm.submit(mk_job(2, 0, 0, 5, &[10], &[]), SimTime::ZERO)
            .unwrap();
        assert_eq!(rm.reschedule(SimTime::ZERO).len(), 5);
        assert_eq!(
            builds(),
            before + 1,
            "a late round builds the combined model"
        );
        assert_eq!(rm.stats().degraded_rounds, 0);
    }

    /// A warm start that overloads a real pool fails matchmaking, and the
    /// ladder serves the round from the greedy rung.
    #[test]
    fn a_lane_shortage_falls_through_to_the_greedy_rung() {
        let tel = telemetry::Telemetry::new();
        let mut rm = manager();
        rm.set_telemetry(&tel);
        for i in 0..2 {
            rm.submit(mk_job(i, 0, 0, 1_000, &[10, 10], &[]), SimTime::ZERO)
                .unwrap();
        }
        // Four maps at 0 s on two map slots.
        crate::split::CRAM.with(|c| c.set(true));
        let plan = rm.reschedule(SimTime::ZERO);
        assert_eq!(plan.len(), 4);
        assert!(rm.last_scheduling_error().is_none());
        assert_eq!(rm.stats().degraded_rounds, 1);
        let rung = |r| {
            tel.registry
                .counter("mrcp_rounds_total", &[("rung", r)])
                .get()
        };
        assert_eq!((rung("split_cp"), rung("greedy")), (0, 1));
        let (_, inputs) = MrcpRm::collect_inputs(JobOrdering::Edf, &rm.jobs, SimTime::ZERO, false);
        let placements: Vec<_> = plan.iter().map(|e| (e.task, e.resource, e.start)).collect();
        crate::split::audit(rm.resources(), &inputs, &placements).unwrap();
    }

    /// With `verify_schedules` off, every [`AUDIT_EVERY`]th round audits
    /// what it installs all the same, and the counter says so; on, every
    /// round does.
    #[test]
    fn every_64th_round_is_audited_when_audits_are_off() {
        for verify_schedules in [false, true] {
            let cfg = MrcpConfig {
                verify_schedules,
                ..MrcpConfig::default()
            };
            let tel = telemetry::Telemetry::new();
            let mut rm = MrcpRm::new(cfg, homogeneous_cluster(2, 1, 1));
            rm.set_telemetry(&tel);
            rm.submit(mk_job(0, 0, 0, 10_000, &[10], &[]), SimTime::ZERO)
                .unwrap();
            for round in 1..=2 * AUDIT_EVERY + 1 {
                rm.reschedule(SimTime::ZERO);
                let audited = tel.registry.counter("mrcp_audited_rounds_total", &[]).get();
                let expected = if verify_schedules {
                    round
                } else {
                    round / AUDIT_EVERY
                };
                assert_eq!(audited, expected, "round {round}");
            }
        }
    }

    #[test]
    fn empty_reschedule_is_harmless() {
        let mut rm = manager();
        assert!(rm.reschedule(SimTime::ZERO).is_empty());
        assert_eq!(rm.stats().invocations, 0);
    }

    #[test]
    fn adaptive_budget_scales_with_model_size() {
        let base = SolveBudget {
            node_limit: 10_000,
            fail_limit: 10_000,
            time_limit_ms: None,
            adaptive: Some(AdaptiveBudget {
                reference_tasks: 100,
                floor_nodes: 500,
            }),
            workers: 1,
        };
        // At or below the reference size: unscaled.
        assert_eq!(base.params_for(50).node_limit, 10_000);
        assert_eq!(base.params_for(100).node_limit, 10_000);
        // Twice the reference: half the nodes.
        assert_eq!(base.params_for(200).node_limit, 5_000);
        // Enormous model: clamped to the floor.
        assert_eq!(base.params_for(10_000_000).node_limit, 500);
        // Without adaptive: constant.
        let fixed = SolveBudget {
            adaptive: None,
            ..SolveBudget::default()
        };
        assert_eq!(
            fixed.params_for(10).node_limit,
            fixed.params_for(100_000).node_limit
        );
    }

    #[test]
    fn adaptive_floor_never_raises_a_configured_limit() {
        let zero = SolveBudget {
            node_limit: 0,
            fail_limit: 0,
            adaptive: Some(AdaptiveBudget {
                reference_tasks: 4,
                floor_nodes: 64,
            }),
            ..SolveBudget::default()
        };
        let p = zero.params_for(100);
        assert_eq!((p.node_limit, p.fail_limit), (0, 0));
        let small = SolveBudget {
            node_limit: 40,
            fail_limit: 20,
            ..zero
        };
        let p = small.params_for(100);
        assert_eq!((p.node_limit, p.fail_limit), (40, 20));
    }

    #[test]
    fn default_budget_is_counted_not_timed() {
        let budget = SolveBudget::default();
        assert_eq!(budget.time_limit_ms, None);
        for n in [0, 1, 200, 201, 10_000] {
            assert_eq!(budget.params_for(n).time_limit, None);
        }
    }

    #[test]
    fn adaptive_budget_runs_end_to_end() {
        let mut cfg = MrcpConfig::default();
        cfg.budget.adaptive = Some(AdaptiveBudget {
            reference_tasks: 4,
            floor_nodes: 64,
        });
        let mut rm = MrcpRm::new(cfg, homogeneous_cluster(2, 1, 1));
        rm.submit(
            mk_job(0, 0, 0, 1000, &[10, 10, 10, 10, 10], &[5]),
            SimTime::ZERO,
        )
        .unwrap();
        let plan = rm.reschedule(SimTime::ZERO);
        assert_eq!(plan.len(), 6);
    }

    fn strict_manager(cluster: Vec<Resource>) -> MrcpRm {
        let cfg = MrcpConfig {
            admission: AdmissionConfig {
                policy: AdmissionPolicy::Strict,
                max_pending_jobs: None,
            },
            ..Default::default()
        };
        MrcpRm::new(cfg, cluster)
    }

    #[test]
    fn best_effort_admission_is_plain_submit() {
        let mut rm = manager();
        let out = rm
            .submit_with_admission(mk_job(0, 0, 0, 100, &[10], &[5]), SimTime::ZERO)
            .unwrap();
        assert_eq!(out.decision, AdmissionDecision::Admit);
        assert_eq!(out.submitted, Some(Submitted::Active));
        assert!(out.shed.is_empty());
        assert_eq!(rm.jobs_in_system(), 1);
        assert_eq!(rm.stats().jobs_rejected, 0);
    }

    #[test]
    fn strict_admission_accepts_feasible_and_rejects_witness_late() {
        let mut rm = strict_manager(homogeneous_cluster(1, 1, 1));
        // A 10 s job with a 100 s deadline is comfortably feasible.
        let out = rm
            .submit_with_admission(mk_job(0, 0, 0, 100, &[10], &[]), SimTime::ZERO)
            .unwrap();
        assert_eq!(out.decision, AdmissionDecision::Admit);
        let plan = rm.reschedule(SimTime::ZERO);
        rm.task_started(plan[0].task, plan[0].start).unwrap();

        // The single map slot is pinned until t=10; a 10 s job due at 12
        // cannot finish before t=20.
        let out = rm
            .submit_with_admission(mk_job(1, 0, 0, 12, &[10], &[]), SimTime::ZERO)
            .unwrap();
        assert_eq!(
            out.decision,
            AdmissionDecision::Reject {
                reason: RejectReason::WitnessLate,
                earliest_feasible_deadline: SimTime::from_secs(20),
            }
        );
        assert_eq!(out.submitted, None);
        assert_eq!(rm.jobs_in_system(), 1, "rejected job never entered");
        assert_eq!(rm.stats().jobs_rejected, 1);
    }

    #[test]
    fn strict_admission_rejects_on_demand_bound() {
        let mut rm = strict_manager(homogeneous_cluster(1, 1, 1));
        // 10 s of waiting work due at 15 s...
        rm.submit_with_admission(mk_job(0, 0, 0, 15, &[10], &[]), SimTime::ZERO)
            .unwrap();
        // ...plus 10 s more due at 14 s: cumulative 20 s by t=15 on one
        // slot — provably infeasible even though the candidate itself
        // would finish by t=10 in the witness.
        let out = rm
            .submit_with_admission(mk_job(1, 0, 0, 14, &[10], &[]), SimTime::ZERO)
            .unwrap();
        match out.decision {
            AdmissionDecision::Reject {
                reason: RejectReason::DemandExceedsCapacity,
                earliest_feasible_deadline,
            } => assert_eq!(earliest_feasible_deadline, SimTime::from_secs(20)),
            d => panic!("expected demand-bound rejection, got {d:?}"),
        }
    }

    #[test]
    fn strict_admission_rejects_when_cluster_is_down() {
        let mut rm = strict_manager(homogeneous_cluster(1, 1, 1));
        let rid = rm.resources()[0].id;
        rm.resource_down(rid, SimTime::ZERO).unwrap();
        let out = rm
            .submit_with_admission(mk_job(0, 0, 0, 100, &[10], &[]), SimTime::ZERO)
            .unwrap();
        assert_eq!(
            out.decision,
            AdmissionDecision::Reject {
                reason: RejectReason::DemandExceedsCapacity,
                earliest_feasible_deadline: SimTime::MAX,
            }
        );
    }

    #[test]
    fn renegotiation_relaxes_deadline_and_judges_against_it() {
        let cfg = MrcpConfig {
            admission: AdmissionConfig {
                policy: AdmissionPolicy::Renegotiate,
                max_pending_jobs: None,
            },
            ..Default::default()
        };
        let mut rm = MrcpRm::new(cfg, homogeneous_cluster(1, 1, 1));
        rm.submit_with_admission(mk_job(0, 0, 0, 100, &[10], &[]), SimTime::ZERO)
            .unwrap();
        let plan = rm.reschedule(SimTime::ZERO);
        rm.task_started(plan[0].task, plan[0].start).unwrap();

        let out = rm
            .submit_with_admission(mk_job(1, 0, 0, 12, &[10], &[]), SimTime::ZERO)
            .unwrap();
        assert_eq!(
            out.decision,
            AdmissionDecision::AdmitDegraded {
                original_deadline: SimTime::from_secs(12),
                new_deadline: SimTime::from_secs(20),
            }
        );
        assert_eq!(rm.stats().jobs_renegotiated, 1);

        // Drive it to completion at t=20: late against the original SLA,
        // on time against the renegotiated one it was admitted under.
        rm.task_completed(plan[0].task, plan[0].end).unwrap();
        let plan = rm.reschedule(SimTime::from_secs(10));
        let e = plan[0];
        assert_eq!(e.job, JobId(1));
        rm.task_started(e.task, e.start).unwrap();
        let done = rm.task_completed(e.task, e.end).unwrap().unwrap();
        assert_eq!(done.completion, SimTime::from_secs(20));
        assert_eq!(done.deadline, SimTime::from_secs(20));
        assert!(!done.late);
    }

    #[test]
    fn queue_bound_sheds_farthest_deadline_first() {
        let cfg = MrcpConfig {
            admission: AdmissionConfig {
                policy: AdmissionPolicy::BestEffort,
                max_pending_jobs: Some(2),
            },
            ..Default::default()
        };
        let mut rm = MrcpRm::new(cfg, homogeneous_cluster(2, 1, 1));
        rm.submit_with_admission(mk_job(0, 0, 0, 100, &[10], &[]), SimTime::ZERO)
            .unwrap();
        rm.submit_with_admission(mk_job(1, 0, 0, 200, &[10], &[]), SimTime::ZERO)
            .unwrap();

        // The queue is full; an urgent arrival sheds the laxest job.
        let out = rm
            .submit_with_admission(mk_job(2, 0, 0, 50, &[10], &[]), SimTime::ZERO)
            .unwrap();
        assert_eq!(out.decision, AdmissionDecision::Admit);
        assert_eq!(out.shed.len(), 1);
        assert_eq!(out.shed[0].job, JobId(1));
        assert_eq!(rm.jobs_in_system(), 2);
        assert_eq!(rm.stats().jobs_shed, 1);

        // A laxer-than-everyone arrival is itself the victim.
        let out = rm
            .submit_with_admission(mk_job(3, 0, 0, 1000, &[10], &[]), SimTime::ZERO)
            .unwrap();
        assert_eq!(
            out.decision,
            AdmissionDecision::Reject {
                reason: RejectReason::QueueFull,
                earliest_feasible_deadline: SimTime::MAX,
            }
        );
        assert!(out.shed.is_empty());
        assert_eq!(rm.jobs_in_system(), 2);
        assert_eq!(rm.stats().jobs_rejected, 1);
        assert_eq!(rm.stats().max_queue_depth, 2);
    }

    #[test]
    fn queue_bound_never_sheds_started_jobs() {
        let cfg = MrcpConfig {
            admission: AdmissionConfig {
                policy: AdmissionPolicy::BestEffort,
                max_pending_jobs: Some(1),
            },
            ..Default::default()
        };
        let mut rm = MrcpRm::new(cfg, homogeneous_cluster(1, 1, 1));
        rm.submit_with_admission(mk_job(0, 0, 0, 1000, &[10], &[]), SimTime::ZERO)
            .unwrap();
        let plan = rm.reschedule(SimTime::ZERO);
        rm.task_started(plan[0].task, plan[0].start).unwrap();

        // j0 is running (not sheddable) even though its deadline is lax;
        // the arrival is refused instead.
        let out = rm
            .submit_with_admission(mk_job(1, 0, 0, 50, &[10], &[]), SimTime::ZERO)
            .unwrap();
        assert!(matches!(
            out.decision,
            AdmissionDecision::Reject {
                reason: RejectReason::QueueFull,
                ..
            }
        ));
        assert_eq!(rm.jobs_in_system(), 1);
    }

    #[test]
    fn submit_with_admission_rejects_duplicates_without_shedding() {
        let cfg = MrcpConfig {
            admission: AdmissionConfig {
                policy: AdmissionPolicy::BestEffort,
                max_pending_jobs: Some(1),
            },
            ..Default::default()
        };
        let mut rm = MrcpRm::new(cfg, homogeneous_cluster(2, 1, 1));
        rm.submit_with_admission(mk_job(0, 0, 0, 100, &[10], &[]), SimTime::ZERO)
            .unwrap();
        assert_eq!(
            rm.submit_with_admission(mk_job(0, 0, 0, 100, &[10], &[]), SimTime::ZERO),
            Err(ManagerError::DuplicateJob(JobId(0)))
        );
        assert_eq!(rm.jobs_in_system(), 1, "duplicate must not shed work");
        assert_eq!(rm.stats().jobs_shed, 0);
    }

    #[test]
    fn budget_controller_shrinks_then_recovers() {
        // A ceiling of zero makes every round count as over budget.
        let cfg = MrcpConfig {
            controller: Some(BudgetController::with_ceiling(Duration::ZERO)),
            ..Default::default()
        };
        let mut rm = MrcpRm::new(cfg, homogeneous_cluster(2, 1, 1));
        rm.submit(mk_job(0, 0, 0, 1000, &[10, 10], &[5]), SimTime::ZERO)
            .unwrap();
        rm.reschedule(SimTime::ZERO);
        assert!(rm.budget_scale() < 1.0, "over-budget round shrinks scale");
        // Halved once per round: 1 → 1/64 takes six rounds, then it holds.
        for round in 1..8 {
            rm.reschedule(SimTime::from_secs(round));
        }
        assert_eq!(rm.budget_scale(), MIN_SCALE, "clamped at 1/64");
        assert_eq!(rm.stats().budget_adaptations, 6);
        assert!(rm.stats().max_round_solve > Duration::ZERO);

        // An enormous ceiling lets the scale grow back to full. The EWMA
        // forgets the zero-ceiling rounds at once: they were far under an
        // hour.
        let mut relaxed = rm;
        relaxed.cfg.controller = Some(BudgetController::with_ceiling(Duration::from_secs(3600)));
        for round in 8..14 {
            relaxed.reschedule(SimTime::from_secs(round));
        }
        assert_eq!(relaxed.budget_scale(), 1.0, "scale doubles back to full");
    }

    #[test]
    fn max_pressure_goes_straight_to_greedy() {
        // Under a quarter of the budget, at the 1/64 floor or above it, the
        // round is greedy only, counted as degraded, but still a complete
        // schedule. At a quarter the split rung still serves it.
        for (scale, greedy) in [(MIN_SCALE, 1), (0.2, 1), (0.25, 0)] {
            let cfg = MrcpConfig {
                controller: Some(BudgetController::with_ceiling(Duration::from_secs(3600))),
                ..Default::default()
            };
            let mut rm = MrcpRm::new(cfg, homogeneous_cluster(2, 1, 1));
            rm.budget_scale = scale;
            for i in 0..3 {
                rm.submit(mk_job(i, 0, 0, 10_000, &[10, 20], &[5]), SimTime::ZERO)
                    .unwrap();
            }
            let plan = rm.reschedule(SimTime::ZERO);
            assert_eq!(plan.len(), 9, "scale {scale} schedules everything");
            assert_eq!(rm.stats().degraded_rounds, greedy, "scale {scale}");
            assert_eq!(rm.stats().failed_rounds, 0);
        }
    }

    #[test]
    fn every_error_variant_displays_through_std_error() {
        let errors: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(ManagerError::DuplicateJob(JobId(1))),
            Box::new(ManagerError::DuplicateTask(TaskId(2))),
            Box::new(ManagerError::UnknownTask(TaskId(3))),
            Box::new(ManagerError::TaskNotScheduled(TaskId(4))),
            Box::new(ManagerError::TaskNotRunning(TaskId(5))),
            Box::new(ManagerError::UnknownResource(ResourceId(6))),
            Box::new(ManagerError::ResourceAlreadyDown(ResourceId(7))),
            Box::new(ManagerError::ResourceNotDown(ResourceId(8))),
            Box::new(ManagerError::Inconsistent("invariant breach")),
            Box::new(SchedulingError::NoSolution("no rung".into())),
            Box::new(SchedulingError::AuditFailed("overlap".into())),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut rm = manager();
        rm.submit(mk_job(0, 0, 0, 1000, &[10, 10, 10], &[5]), SimTime::ZERO)
            .unwrap();
        rm.reschedule(SimTime::ZERO);
        let s = rm.stats();
        assert_eq!(s.invocations, 1);
        assert_eq!(s.max_tasks_in_model, 4);
        assert_eq!(s.optimal_rounds + s.feasible_rounds, 1);
    }

    /// A restored manager is indistinguishable from the original: its
    /// image matches bit-for-bit, and it continues the run identically.
    /// A job that left by any exit can come back: every exit drops the
    /// job's record, task ownership, plan entries and deferral, so the same
    /// `Job` (same task ids) re-submits, and the image in between lists
    /// nothing of it and restores.
    #[test]
    fn job_that_left_by_any_exit_can_come_back() {
        type Exit = fn(&mut MrcpRm, &Job);
        fn migrate(rm: &mut MrcpRm, job: &Job) {
            assert_eq!(rm.take_unstarted_job(job.id).as_ref(), Ok(job));
        }
        fn shed(rm: &mut MrcpRm, job: &Job) {
            // Queue bound 1: a more urgent arrival sheds the resident job.
            let out = rm
                .submit_with_admission(mk_job(9, 0, 0, 50, &[10], &[]), SimTime::ZERO)
                .unwrap();
            assert_eq!(out.shed.len(), 1);
            assert_eq!(out.shed[0].job, job.id);
        }
        fn abandon(rm: &mut MrcpRm, job: &Job) {
            // Retry budget 0: the first failed attempt abandons the job
            // while its second map still holds a plan entry.
            rm.task_started(job.map_tasks[0].id, SimTime::ZERO).unwrap();
            let act = rm.task_failed(job.map_tasks[0].id, SimTime::from_secs(3));
            assert!(matches!(act, Ok(FailureAction::JobAbandoned(ref ab)) if ab.job == job.id));
        }
        fn complete(rm: &mut MrcpRm, job: &Job) {
            let (a, b) = (job.map_tasks[0].id, job.map_tasks[1].id);
            rm.task_started(a, SimTime::ZERO).unwrap();
            assert_eq!(rm.task_completed(a, SimTime::from_secs(10)), Ok(None));
            rm.task_started(b, SimTime::from_secs(10)).unwrap();
            let done = rm.task_completed(b, SimTime::from_secs(20)).unwrap();
            assert_eq!(done.map(|d| d.job), Some(job.id));
        }
        // (exit, earliest start): a future `s_j` parks the job in
        // `deferred`, a past one gives it plan entries.
        let table: [(&str, Exit, i64); 6] = [
            ("migrate planned", migrate, 0),
            ("migrate deferred", migrate, 500),
            ("shed planned", shed, 0),
            ("shed deferred", shed, 500),
            ("abandon", abandon, 0),
            ("complete", complete, 0),
        ];
        let cfg = MrcpConfig {
            retry_budget: 0,
            admission: AdmissionConfig {
                policy: AdmissionPolicy::BestEffort,
                max_pending_jobs: Some(1),
            },
            ..Default::default()
        };
        let cluster = homogeneous_cluster(1, 1, 1);
        for (name, exit, s) in table {
            let mut rm = MrcpRm::new(cfg, cluster.clone());
            let job = mk_job(0, 0, s, 1000, &[10, 10], &[]);
            let first = rm.submit(job.clone(), SimTime::ZERO).unwrap();
            assert_eq!(first == Submitted::Active, s == 0, "{name}");
            assert_eq!(
                rm.reschedule(SimTime::ZERO).len(),
                if s == 0 { 2 } else { 0 }
            );

            exit(&mut rm, &job);

            assert!(rm.job(job.id).is_none(), "{name}");
            let image = rm.image();
            assert!(image.jobs.iter().all(|j| j.job.id != job.id), "{name}");
            assert!(image.deferred.iter().all(|&(_, j)| j != job.id), "{name}");
            assert!(image.schedule.iter().all(|e| e.job != job.id), "{name}");
            assert!(
                MrcpRm::restore(cfg, cluster.clone(), image).is_ok(),
                "{name}"
            );
            assert_eq!(rm.submit(job.clone(), SimTime::ZERO), Ok(first), "{name}");
            let parked = rm.image().deferred.iter().filter(|d| d.1 == job.id).count();
            assert_eq!(parked, usize::from(s > 0), "{name}: parked once, not twice");
        }
    }

    #[test]
    fn image_restore_roundtrip_mid_run() {
        let mut rm = manager();
        rm.submit(mk_job(0, 0, 0, 200, &[10, 8], &[5]), SimTime::ZERO)
            .unwrap();
        rm.submit(mk_job(1, 0, 50, 400, &[6], &[]), SimTime::ZERO)
            .unwrap(); // deferred
        let plan = rm.reschedule(SimTime::ZERO);
        let first = plan[0];
        rm.task_started(first.task, first.start).unwrap();

        let image = rm.image();
        let mut restored =
            MrcpRm::restore(*rm.config(), rm.resources().to_vec(), image.clone()).unwrap();
        assert_eq!(restored.image(), image, "image survives a roundtrip");
        assert_eq!(restored.jobs_in_system(), rm.jobs_in_system());
        assert_eq!(restored.next_activation(), rm.next_activation());
        assert_eq!(restored.current_schedule(), rm.current_schedule());

        // Both managers continue the run in lockstep. Wall-clock stats
        // (solve durations) are re-measured by the live solves and differ
        // between the two; everything else must stay identical.
        let t = SimTime::from_secs(60);
        assert_eq!(restored.activate_due(t), rm.activate_due(t));
        assert_eq!(restored.reschedule(t), rm.reschedule(t));
        let mut a = restored.image();
        let mut b = rm.image();
        a.stats.total_solve = Duration::ZERO;
        a.stats.max_round_solve = Duration::ZERO;
        b.stats.total_solve = Duration::ZERO;
        b.stats.max_round_solve = Duration::ZERO;
        assert_eq!(a, b);
    }

    /// `(task, job, resource, start, end)`, times in seconds.
    fn plan_of(entries: &[(u32, u32, u32, i64, i64)]) -> Vec<ScheduleEntry> {
        entries
            .iter()
            .map(|&(t, j, r, s, e)| ScheduleEntry {
                task: TaskId(t),
                job: JobId(j),
                resource: ResourceId(r),
                start: SimTime::from_secs(s),
                end: SimTime::from_secs(e),
            })
            .collect()
    }

    /// A task planned, started and failed between two rounds keeps its
    /// placement from the first round as a hint. The hint is stale (its
    /// start has passed), so the warm start rejects it, but the round
    /// still counts as warm. Plan and counter are the values the
    /// task-keyed round cache produced before the plan moved onto the
    /// jobs.
    #[test]
    fn task_failed_between_rounds_keeps_its_stale_hint() {
        let mut rm = manager();
        rm.submit(mk_job(0, 0, 0, 60, &[10, 10], &[5]), SimTime::ZERO)
            .unwrap();
        rm.submit(mk_job(1, 0, 0, 40, &[8], &[4]), SimTime::ZERO)
            .unwrap();
        let plan = rm.reschedule(SimTime::ZERO);
        let first = plan[0];
        assert_eq!(first.task, TaskId(0));
        rm.task_started(first.task, first.start).unwrap();
        rm.task_failed(first.task, SimTime::from_secs(3)).unwrap();
        let hinted = rm.jobs[&JobId(0)].slots[0].placed;
        assert_eq!(hinted, Some((first.resource, first.start)), "stale hint");

        let plan = rm.reschedule(SimTime::from_secs(3));
        let expected = plan_of(&[
            (1000, 1, 0, 3, 11),
            (1, 0, 1, 8, 18),
            (0, 0, 0, 11, 21),
            (1001, 1, 0, 11, 15),
            (2, 0, 0, 21, 26),
        ]);
        assert_eq!(plan, expected);
        assert_eq!(rm.stats().warm_rounds, 1);
    }

    /// An image written while the cache was keyed by task lists the
    /// placements of jobs that have since left. They restore without
    /// error, are dropped (the restored image lists live jobs only), and
    /// the next round plans exactly as before.
    #[test]
    fn image_listing_a_departed_jobs_placements_restores_and_plans_alike() {
        let mut rm = manager();
        rm.submit(mk_job(0, 0, 0, 100, &[10, 10], &[5]), SimTime::ZERO)
            .unwrap();
        rm.submit(mk_job(1, 0, 0, 30, &[6], &[]), SimTime::ZERO)
            .unwrap();
        let plan = rm.reschedule(SimTime::ZERO);
        let gone = *plan.iter().find(|e| e.job == JobId(1)).unwrap();
        rm.task_started(gone.task, gone.start).unwrap();
        let done = rm.task_completed(gone.task, gone.end).unwrap();
        assert_eq!(done.map(|d| d.job), Some(JobId(1)));

        let mut image = rm.image();
        let live = image.clone();
        let cache = image.cache.as_mut().unwrap();
        assert!(cache.placements.iter().all(|p| p.0 != gone.task));
        cache
            .placements
            .push((gone.task, gone.resource, gone.start));
        cache.placements.sort_unstable_by_key(|p| p.0);
        let mut restored = MrcpRm::restore(*rm.config(), rm.resources().to_vec(), image).unwrap();
        assert_eq!(
            restored.image(),
            live,
            "the departed job's placement is dropped"
        );

        let t = SimTime::from_secs(6);
        for m in [&mut rm, &mut restored] {
            m.submit(mk_job(2, 6, 6, 40, &[7], &[]), t).unwrap();
            let plan = m.reschedule(t);
            let expected = plan_of(&[
                (1, 0, 0, 6, 16),
                (2000, 2, 1, 6, 13),
                (0, 0, 1, 13, 23),
                (2, 0, 0, 23, 28),
            ]);
            assert_eq!(plan, expected);
            assert_eq!(m.stats().warm_rounds, 1);
        }
    }

    /// What a round would hash for `state` (the release is not hashed).
    fn fingerprint_of(rm: &MrcpRm, state: &JobState) -> u64 {
        job_fingerprint(&JobInput {
            priority: rm.cfg.ordering.priority(&state.job),
            job: &state.job,
            release: SimTime::ZERO,
            tasks: state.outstanding().collect(),
        })
    }

    /// Every started task: `(task, start, exec_time)`.
    fn running(rm: &MrcpRm) -> Vec<(TaskId, SimTime, SimTime)> {
        let tasks = rm.jobs.values().flat_map(|s| &s.tasks);
        tasks
            .filter_map(|t| match t.status {
                TaskStatusImage::Started { start, .. } => Some((t.id, start, t.exec_time)),
                _ => None,
            })
            .collect()
    }

    /// Random command sequences: submits (some deferred), resubmits of jobs
    /// that left, starts, completions, failures, stragglers, outages,
    /// migrations and restores, most followed by a round. After every
    /// command each job's fingerprint memo is empty or current, the pool
    /// fingerprint and the running total of outstanding work match a fresh
    /// computation, and restoring the image gives the same image back,
    /// departed jobs' fingerprints included. Checked explicitly, so the
    /// release build tests what debug builds also assert every round.
    #[test]
    fn memos_totals_and_images_hold_under_random_commands() {
        use rand::{Rng, SeedableRng};
        let (mut memos, mut departed_listed, mut warm_rounds) = (0, 0, 0);
        for seed in 0..24 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut rm = MrcpRm::new(MrcpConfig::default(), homogeneous_cluster(3, 1, 1));
            let mut now = SimTime::ZERO;
            let mut gone: Vec<Job> = Vec::new();
            let pick = |rng: &mut rand::rngs::StdRng, n: usize| rng.gen_range(0..n);
            for next_id in 0..80 {
                let run = running(&rm);
                let cmd = rng.gen_range(0..10);
                match cmd {
                    0 | 1 => {
                        let maps: Vec<i64> = (0..rng.gen_range(1..4))
                            .map(|_| rng.gen_range(1..10))
                            .collect();
                        let reduces: Vec<i64> = (0..rng.gen_range(0..3))
                            .map(|_| rng.gen_range(1..6))
                            .collect();
                        let arrival = now.as_millis() / 1000 + 1;
                        let s = arrival + rng.gen_range(0..3i64) * 5;
                        let deadline = s + rng.gen_range(10..60i64);
                        let job = mk_job(next_id, arrival, s, deadline, &maps, &reduces);
                        now = job.arrival;
                        rm.submit(job, now).unwrap();
                    }
                    2 if !gone.is_empty() => {
                        let job = gone.swap_remove(pick(&mut rng, gone.len()));
                        now = now.max(job.arrival);
                        rm.submit(job, now).unwrap();
                    }
                    3 => {
                        // As a host would: a reduce starts once its job's
                        // maps have all completed.
                        let plan = rm.current_schedule();
                        let ready = |e: &&ScheduleEntry| {
                            let tasks = &rm.jobs[&e.job].tasks;
                            let map = tasks
                                .iter()
                                .any(|t| t.id == e.task && t.kind == TaskKind::Map);
                            e.start >= now
                                && (map
                                    || tasks.iter().all(|t| {
                                        t.kind == TaskKind::Reduce
                                            || t.status == TaskStatusImage::Completed
                                    }))
                        };
                        if let Some(e) = plan.iter().find(ready) {
                            now = e.start;
                            rm.task_started(e.task, now).unwrap();
                        }
                    }
                    4 | 5 if !run.is_empty() => {
                        let (task, start, exec) = run[pick(&mut rng, run.len())];
                        now = now.max(start + exec);
                        let job = rm.job(rm.task_owner[&task].0).unwrap().clone();
                        if rm.task_completed(task, now).unwrap().is_some() {
                            gone.push(job);
                        }
                    }
                    6 if !run.is_empty() => {
                        let task = run[pick(&mut rng, run.len())].0;
                        let job = rm.job(rm.task_owner[&task].0).unwrap().clone();
                        if let FailureAction::JobAbandoned(_) = rm.task_failed(task, now).unwrap() {
                            gone.push(job);
                        }
                    }
                    7 if !run.is_empty() => {
                        let (task, _, exec) = run[pick(&mut rng, run.len())];
                        let longer = exec + SimTime::from_secs(rng.gen_range(1..5));
                        rm.task_duration_revised(task, longer).unwrap();
                    }
                    8 => {
                        let rid = ResourceId(rng.gen_range(0..3));
                        if rm.down.contains(&rid) {
                            rm.resource_up(rid, now).unwrap();
                        } else {
                            rm.resource_down(rid, now).unwrap();
                        }
                    }
                    9 => {
                        let unstarted = rm.planned_unstarted_jobs();
                        if rng.gen_bool(0.5) && !unstarted.is_empty() {
                            let id = unstarted[pick(&mut rng, unstarted.len())].job;
                            gone.push(rm.take_unstarted_job(id).unwrap());
                        } else {
                            let image = rm.image();
                            rm = MrcpRm::restore(*rm.config(), rm.resources().to_vec(), image)
                                .unwrap();
                        }
                    }
                    _ => continue,
                }
                // Rounds follow most events, but not every one: a job that
                // leaves stays listed in the image until the next round.
                if rng.gen_bool(if cmd == 3 { 0.3 } else { 0.6 }) {
                    rm.activate_due(now);
                    rm.reschedule(now);
                }

                for state in rm.jobs.values() {
                    if let Some(fp) = state.fp {
                        assert_eq!(fp, fingerprint_of(&rm, state), "stale memo (seed {seed})");
                        memos += 1;
                    }
                }
                assert_eq!(rm.up_fp, pool_fingerprint(rm.up()));
                let walk = outstanding_of(&rm.jobs);
                assert_eq!(rm.outstanding_work(), walk, "seed {seed}");
                let image = rm.image();
                let restored =
                    MrcpRm::restore(*rm.config(), rm.resources().to_vec(), image.clone()).unwrap();
                assert_eq!(restored.image(), image, "seed {seed}");
                assert_eq!(restored.outstanding_work(), walk);
                if let Some(c) = &image.cache {
                    departed_listed += c.jobs.iter().filter(|&&(j, _)| rm.job(j).is_none()).count();
                }
            }
            warm_rounds += rm.stats().warm_rounds;
        }
        assert!(memos > 2_000, "memos checked: {memos}");
        assert!(
            departed_listed > 20,
            "departed jobs listed: {departed_listed}"
        );
        assert!(warm_rounds > 100, "warm rounds: {warm_rounds}");
    }

    /// Install walks the round's jobs and placements in lockstep, so a
    /// placement list out of input order is an inconsistency: the round
    /// fails with a typed error instead of planning task k at task j's
    /// slot. A list that is too short or too long fails the same way.
    #[test]
    fn install_rejects_placements_out_of_input_order() {
        let mut rm = manager();
        rm.submit(mk_job(0, 0, 0, 100, &[10, 10], &[5]), SimTime::ZERO)
            .unwrap();
        let plan = rm.reschedule(SimTime::ZERO);
        let mut placements: Vec<(TaskId, ResourceId, SimTime)> =
            plan.iter().map(|e| (e.task, e.resource, e.start)).collect();
        placements.sort_unstable_by_key(|p| p.0); // input order
        let round = [(JobId(0), 0)];
        assert_eq!(
            rm.install(&round, &placements, SimTime::ZERO),
            Ok(plan.clone())
        );

        let mut permuted = placements.clone();
        permuted.swap(0, 1);
        let short = &placements[..2];
        let mut long = placements.clone();
        long.push((TaskId(77), ResourceId(0), SimTime::ZERO));
        for bad in [&permuted[..], short, &long[..]] {
            assert!(matches!(
                rm.install(&round, bad, SimTime::ZERO),
                Err(SchedulingError::Inconsistent(_))
            ));
        }
    }

    #[test]
    fn restore_rejects_inconsistent_images() {
        let mut rm = manager();
        rm.submit(mk_job(0, 0, 0, 200, &[10], &[]), SimTime::ZERO)
            .unwrap();
        rm.reschedule(SimTime::ZERO);
        let image = rm.image();

        let mut twice = image.clone();
        twice.jobs.push(twice.jobs[0].clone());
        assert!(matches!(
            MrcpRm::restore(*rm.config(), rm.resources().to_vec(), twice),
            Err(ManagerError::Inconsistent(_))
        ));

        let mut bad_down = image.clone();
        bad_down.down.push(ResourceId(999));
        assert!(matches!(
            MrcpRm::restore(*rm.config(), rm.resources().to_vec(), bad_down),
            Err(ManagerError::Inconsistent(_))
        ));

        let mut bad_sched = image;
        bad_sched.schedule.push(ScheduleEntry {
            task: TaskId(777),
            job: JobId(0),
            resource: ResourceId(0),
            start: SimTime::ZERO,
            end: SimTime::from_secs(1),
        });
        assert!(matches!(
            MrcpRm::restore(*rm.config(), rm.resources().to_vec(), bad_sched),
            Err(ManagerError::Inconsistent(_))
        ));
    }
}

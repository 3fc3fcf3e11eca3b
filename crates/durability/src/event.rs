//! The command vocabulary: every state-mutating call on a manager is one
//! [`ManagerEvent`], and every answer one [`Reply`].
//!
//! The same enum is what the driver's calls are journalled as, what the
//! federation sends its cells, and what every WAL holds. It has two
//! parts, and one function executes each:
//!
//! * **Surface commands** — the ten [`ResourceManager`] methods the
//!   simulation driver invokes. [`apply_surface`] executes them against
//!   any manager, which is how a whole fleet (or a single manager) is
//!   rebuilt from its command log.
//! * **Cell commands** — the surface plus the two operations only a
//!   federation issues to a bare [`MrcpRm`], the migration steps
//!   [`ManagerEvent::TakeUnstartedJob`] and [`ManagerEvent::Submit`]. A
//!   cell's round is a plain [`ManagerEvent::Reschedule`].
//!   [`apply`] executes those and delegates the rest to
//!   [`apply_surface`]: live delivery through a cell endpoint,
//!   single-manager recovery and one cell's recovery from its own WAL all
//!   run it.
//!
//! Replay ignores the [`Reply`] of each re-executed command on purpose:
//! the live system also left state unchanged when a call errored (a
//! duplicate submit, an unknown task), so ignoring the error reproduces
//! the live state *and* the live error-counting side effects exactly.

use crate::codec::{Dec, DecodeError, Wire};
use desim::SimTime;
use mrcp::manager::{AdmissionOutcome, FailureAction, JobCompletion, ManagerError, Submitted};
use mrcp::sim_driver::ResourceManager;
use mrcp::MrcpRm;
use workload::{Job, JobId, ResourceId, TaskId};

/// One logged state-mutating operation.
#[derive(Debug, Clone, PartialEq)]
pub enum ManagerEvent {
    /// [`ResourceManager::submit_with_admission`].
    SubmitWithAdmission {
        /// The arriving job, exactly as submitted.
        job: Job,
        /// Submission time.
        now: SimTime,
    },
    /// [`ResourceManager::activate_due`].
    ActivateDue {
        /// Activation sweep time.
        now: SimTime,
    },
    /// [`ResourceManager::reschedule`].
    Reschedule {
        /// Round time.
        now: SimTime,
    },
    /// [`ResourceManager::task_started`].
    TaskStarted {
        /// The starting task.
        task: TaskId,
        /// Start time.
        now: SimTime,
    },
    /// [`ResourceManager::task_completed`].
    TaskCompleted {
        /// The finished task.
        task: TaskId,
        /// Completion time.
        now: SimTime,
    },
    /// [`ResourceManager::task_duration_revised`].
    TaskDurationRevised {
        /// The straggling task.
        task: TaskId,
        /// Revised execution-time estimate.
        new_exec: SimTime,
    },
    /// [`ResourceManager::task_failed`].
    TaskFailed {
        /// The failed task.
        task: TaskId,
        /// Failure time.
        now: SimTime,
    },
    /// [`ResourceManager::resource_down`].
    ResourceDown {
        /// The failing resource.
        resource: ResourceId,
        /// Failure time.
        now: SimTime,
    },
    /// [`ResourceManager::resource_up`].
    ResourceUp {
        /// The repaired resource.
        resource: ResourceId,
        /// Repair time.
        now: SimTime,
    },
    /// [`ResourceManager::submit_batch`] — one coalesced arrival burst.
    /// Logged as a single record (not decomposed into per-job submits)
    /// because a batching-aware manager may route the burst differently
    /// than a sequence of singleton submits; replay must preserve that.
    SubmitBatch {
        /// The arriving jobs, in submission order.
        jobs: Vec<Job>,
        /// Shared submission time of the burst.
        now: SimTime,
    },
    /// Cell command: [`MrcpRm::take_unstarted_job`] — the rebalancer (or
    /// failover) pulled this job out of the cell for migration.
    TakeUnstartedJob {
        /// The migrating job.
        job: JobId,
    },
    /// Cell command: [`MrcpRm::submit`] — the rebalancer (or failover)
    /// dropped a job into the cell bypassing admission.
    Submit {
        /// The incoming job.
        job: Job,
        /// Submission time.
        now: SimTime,
    },
}

// The layout of a record: its tag byte, then the variant's fields in the
// order listed (a submit's time before its job). Tags 11 and 13 are
// retired (a cell's worker split, logged apart from its round and then
// with it); they decode as unknown tags, so a store written with either
// is refused.
crate::wire_enum!(ManagerEvent, "unknown event tag" {
    0 => SubmitWithAdmission { now, job },
    1 => ActivateDue { now },
    2 => Reschedule { now },
    3 => TaskStarted { task, now },
    4 => TaskCompleted { task, now },
    5 => TaskDurationRevised { task, new_exec },
    6 => TaskFailed { task, now },
    7 => ResourceDown { resource, now },
    8 => ResourceUp { resource, now },
    9 => TakeUnstartedJob { job },
    10 => Submit { now, job },
    12 => SubmitBatch { now, jobs },
});

impl ManagerEvent {
    /// The simulated time the command carries, when it carries one.
    /// Untimed commands (`TaskDurationRevised`, `TakeUnstartedJob`)
    /// return `None`; consumers keep the last seen time.
    pub fn time(&self) -> Option<SimTime> {
        match self {
            ManagerEvent::SubmitWithAdmission { now, .. }
            | ManagerEvent::ActivateDue { now }
            | ManagerEvent::Reschedule { now }
            | ManagerEvent::TaskStarted { now, .. }
            | ManagerEvent::TaskCompleted { now, .. }
            | ManagerEvent::TaskFailed { now, .. }
            | ManagerEvent::ResourceDown { now, .. }
            | ManagerEvent::ResourceUp { now, .. }
            | ManagerEvent::SubmitBatch { now, .. }
            | ManagerEvent::Submit { now, .. } => Some(*now),
            ManagerEvent::TaskDurationRevised { .. } | ManagerEvent::TakeUnstartedJob { .. } => {
                None
            }
        }
    }

    /// Decode one event from `d`.
    pub fn decode(d: &mut Dec<'_>) -> Result<ManagerEvent, DecodeError> {
        Wire::get(d)
    }

    /// Encode to a standalone byte vector.
    pub fn to_bytes(&self) -> Vec<u8> {
        Wire::to_bytes(self)
    }
}

/// The answer to a [`ManagerEvent`] — cloneable so a cell endpoint can
/// cache it for duplicate suppression.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Answer to [`ManagerEvent::SubmitWithAdmission`].
    Admission(AdmissionOutcome),
    /// Answer to [`ManagerEvent::SubmitBatch`]: one outcome per job, in
    /// submission order.
    AdmissionBatch(Vec<Result<AdmissionOutcome, ManagerError>>),
    /// Answer to [`ManagerEvent::Submit`].
    Submitted(Submitted),
    /// Answer to [`ManagerEvent::ActivateDue`]: jobs activated.
    Activated(usize),
    /// Answer to [`ManagerEvent::Reschedule`]: the round ran; the plan is
    /// read off the manager.
    Solved,
    /// Answer to [`ManagerEvent::TaskStarted`]: the executing resource.
    Started(ResourceId),
    /// Answer to [`ManagerEvent::TaskCompleted`].
    Completed(Option<JobCompletion>),
    /// Answer to [`ManagerEvent::TaskDurationRevised`].
    Revised,
    /// Answer to [`ManagerEvent::TaskFailed`].
    Failed(FailureAction),
    /// Answer to [`ManagerEvent::ResourceDown`]: interrupted tasks.
    Interrupted(Vec<TaskId>),
    /// Answer to [`ManagerEvent::ResourceUp`].
    ResourceUp,
    /// Answer to [`ManagerEvent::TakeUnstartedJob`]: the reclaimed job.
    Taken(Job),
    /// The manager executed the command and it failed with a typed error
    /// — a valid, cacheable answer, not a transport failure.
    Err(ManagerError),
}

/// Execute a surface command against any manager. Cell-only commands
/// are refused: a surface command log never contains them.
pub fn apply_surface<R: ResourceManager>(rm: &mut R, ev: &ManagerEvent) -> Reply {
    match ev {
        ManagerEvent::SubmitWithAdmission { job, now } => rm
            .submit_with_admission(job.clone(), *now)
            .map_or_else(Reply::Err, Reply::Admission),
        ManagerEvent::SubmitBatch { jobs, now } => {
            Reply::AdmissionBatch(rm.submit_batch(jobs.clone(), *now))
        }
        ManagerEvent::ActivateDue { now } => Reply::Activated(rm.activate_due(*now)),
        ManagerEvent::Reschedule { now } => {
            rm.reschedule(*now);
            Reply::Solved
        }
        ManagerEvent::TaskStarted { task, now } => rm
            .task_started(*task, *now)
            .map_or_else(Reply::Err, Reply::Started),
        ManagerEvent::TaskCompleted { task, now } => rm
            .task_completed(*task, *now)
            .map_or_else(Reply::Err, Reply::Completed),
        ManagerEvent::TaskDurationRevised { task, new_exec } => rm
            .task_duration_revised(*task, *new_exec)
            .map_or_else(Reply::Err, |()| Reply::Revised),
        ManagerEvent::TaskFailed { task, now } => rm
            .task_failed(*task, *now)
            .map_or_else(Reply::Err, Reply::Failed),
        ManagerEvent::ResourceDown { resource, now } => rm
            .resource_down(*resource, *now)
            .map_or_else(Reply::Err, Reply::Interrupted),
        ManagerEvent::ResourceUp { resource, now } => rm
            .resource_up(*resource, *now)
            .map_or_else(Reply::Err, |()| Reply::ResourceUp),
        ManagerEvent::TakeUnstartedJob { .. } | ManagerEvent::Submit { .. } => {
            let e = ManagerError::Inconsistent("cell-only event in a surface command log");
            debug_assert!(false, "{e}");
            Reply::Err(e)
        }
    }
}

/// Execute any command against a bare [`MrcpRm`]: the two cell-only
/// commands here, the surface through [`apply_surface`]. This is *the*
/// apply function of a cell — live delivery and WAL replay are both
/// defined by it.
pub fn apply(rm: &mut MrcpRm, ev: &ManagerEvent) -> Reply {
    match ev {
        ManagerEvent::TakeUnstartedJob { job } => rm
            .take_unstarted_job(*job)
            .map_or_else(Reply::Err, Reply::Taken),
        ManagerEvent::Submit { job, now } => rm
            .submit(job.clone(), *now)
            .map_or_else(Reply::Err, Reply::Submitted),
        surface => apply_surface(rm, surface),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Enc;
    use workload::TaskKind;

    fn sample_job() -> Job {
        Job {
            id: JobId(7),
            arrival: SimTime::from_millis(100),
            earliest_start: SimTime::from_millis(100),
            deadline: SimTime::from_millis(60_000),
            map_tasks: vec![workload::Task {
                id: TaskId(70),
                job: JobId(7),
                kind: TaskKind::Map,
                exec_time: SimTime::from_millis(5_000),
                req: 1,
            }],
            reduce_tasks: vec![],
        }
    }

    /// One of every variant (two batches: full and empty).
    fn sample_events() -> Vec<ManagerEvent> {
        let t = SimTime::from_millis(42);
        vec![
            ManagerEvent::SubmitWithAdmission {
                job: sample_job(),
                now: t,
            },
            ManagerEvent::ActivateDue { now: t },
            ManagerEvent::Reschedule { now: t },
            ManagerEvent::TaskStarted {
                task: TaskId(1),
                now: t,
            },
            ManagerEvent::TaskCompleted {
                task: TaskId(2),
                now: t,
            },
            ManagerEvent::TaskDurationRevised {
                task: TaskId(3),
                new_exec: SimTime::from_millis(9_000),
            },
            ManagerEvent::TaskFailed {
                task: TaskId(4),
                now: t,
            },
            ManagerEvent::ResourceDown {
                resource: ResourceId(5),
                now: t,
            },
            ManagerEvent::ResourceUp {
                resource: ResourceId(5),
                now: t,
            },
            ManagerEvent::TakeUnstartedJob { job: JobId(7) },
            ManagerEvent::Submit {
                job: sample_job(),
                now: t,
            },
            ManagerEvent::SubmitBatch {
                jobs: vec![sample_job(), sample_job()],
                now: t,
            },
            ManagerEvent::SubmitBatch {
                jobs: vec![],
                now: t,
            },
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        for ev in &sample_events() {
            crate::codec::assert_roundtrip(ev);
        }
    }

    /// Each event as an `EventLog` record holds it: behind its index.
    #[test]
    fn truncated_events_error_cleanly() {
        for ev in &sample_events() {
            crate::codec::assert_roundtrip(&(7u64, ev.clone()));
        }
    }

    /// Tag 11 was `SetWorkers { workers }`, logged apart from the round it
    /// configured; tag 13 was `Solve { workers, now }`, the two in one
    /// record. A store still holding either must be refused, not misread.
    #[test]
    fn retired_set_workers_tag_is_refused() {
        for tag in [11, 13] {
            let mut e = Enc::new();
            e.u8(tag);
            e.usize(3);
            e.time(SimTime::from_millis(42));
            let bytes = e.finish();
            assert_eq!(
                ManagerEvent::decode(&mut Dec::new(&bytes)),
                Err(DecodeError("unknown event tag")),
                "tag {tag}"
            );
        }
    }
}

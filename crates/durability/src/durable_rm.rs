//! [`DurableRm`]: an [`MrcpRm`] whose every state-mutating command is
//! written ahead to `wal.log` through the shared [`DurableCore`], making
//! the manager recoverable after a process crash with bounded replay.
//!
//! ## The crash/recovery model
//!
//! [`DurableRm::crash_and_recover`] simulates fail-stop process death
//! plus machine power loss: all in-memory state is discarded and, when
//! [`DurabilityConfig::lose_unsynced_on_crash`] is set (the default),
//! the WAL is truncated to its last-synced byte first — commands whose
//! records were still in the page cache die with the process. The
//! manager is then rebuilt from the snapshot plus the surviving log
//! prefix.
//!
//! Commands lost from the unsynced tail are *re-delivered*: the core
//! keeps every command since the last checkpoint in memory (standing in
//! for the clients, who in a real deployment retry every command the
//! manager never acknowledged) and re-applies the suffix the disk did not
//! know about; the checkpoint that ends the recovery makes them durable.
//! Determinism of [`MrcpRm`] does the rest — the re-applied commands
//! drive the recovered manager through exactly the states the pre-crash
//! manager went through, so the run's `deterministic_signature()` is
//! bit-identical to an uninterrupted run's. Only wall-clock solve timings
//! differ, and those feed only metrics the signature already zeroes.

use crate::codec::{Dec, Enc};
use crate::event::{apply, ManagerEvent};
use crate::snapshot::{decode_image, encode_image};
use crate::store::{invalid, DurabilityConfig, DurableCore, Recoverable, StoreConfig};
use desim::SimTime;
use mrcp::manager::{
    AdmissionOutcome, FailureAction, JobCompletion, ManagerError, ManagerStats, MrcpConfig,
    ScheduleEntry,
};
use mrcp::sim_driver::ResourceManager;
use mrcp::MrcpRm;
use std::io;
use std::path::Path;
use workload::{Job, Resource, ResourceId, TaskId};

/// A single manager is its image; its one log is the core's `wal.log`.
impl Recoverable for MrcpRm {
    type Setup = (MrcpConfig, Vec<Resource>);
    const LOG_NAME: &'static str = "wal.log";

    fn encode_state(&self, e: &mut Enc) {
        encode_image(e, &self.image());
    }

    fn restore(
        (cfg, resources): &Self::Setup,
        d: &mut Dec<'_>,
        _dir: &Path,
        _store: StoreConfig,
    ) -> io::Result<MrcpRm> {
        let image = decode_image(d).map_err(invalid)?;
        MrcpRm::restore(*cfg, resources.clone(), image).map_err(invalid)
    }

    fn replay(&mut self, ev: &ManagerEvent) {
        apply(self, ev);
    }

    fn attach_telemetry(&mut self, tel: &telemetry::Telemetry) {
        self.set_telemetry(tel);
    }
}

/// An [`MrcpRm`] with a write-ahead log and snapshots underneath.
#[derive(Debug)]
pub struct DurableRm {
    core: DurableCore<MrcpRm>,
}

impl DurableRm {
    /// Create a manager with a fresh durable store rooted at `dir`.
    pub fn new(
        mgr_cfg: MrcpConfig,
        resources: Vec<Resource>,
        dir: &Path,
        cfg: DurabilityConfig,
    ) -> DurableRm {
        let rm = MrcpRm::new(mgr_cfg, resources.clone());
        DurableRm {
            core: DurableCore::create(rm, (mgr_cfg, resources), dir, cfg),
        }
    }

    /// Attach live instruments to the wrapped manager, the durable
    /// store, and the recovery path (see [`DurableCore::set_telemetry`]).
    pub fn set_telemetry(&mut self, tel: &telemetry::Telemetry) {
        self.core.set_telemetry(tel);
    }

    /// The wrapped manager.
    pub fn inner(&self) -> &MrcpRm {
        self.core.inner()
    }

    /// Crashes survived so far.
    pub fn crashes(&self) -> u64 {
        self.core.crashes()
    }

    /// WAL commands replayed across all recoveries.
    pub fn replayed(&self) -> u64 {
        self.core.replayed()
    }

    /// Wall time spent recovering, summed over every crash.
    pub fn recovery_time(&self) -> std::time::Duration {
        self.core.recovery_time()
    }
}

impl ResourceManager for DurableRm {
    fn submit_with_admission(
        &mut self,
        job: Job,
        now: SimTime,
    ) -> Result<AdmissionOutcome, ManagerError> {
        let ev = ManagerEvent::SubmitWithAdmission {
            job: job.clone(),
            now,
        };
        self.core.logged(ev, |m| m.submit_with_admission(job, now))
    }

    fn submit_batch(
        &mut self,
        jobs: Vec<Job>,
        now: SimTime,
    ) -> Vec<Result<AdmissionOutcome, ManagerError>> {
        let ev = ManagerEvent::SubmitBatch {
            jobs: jobs.clone(),
            now,
        };
        self.core.logged(ev, |m| m.submit_batch(jobs, now))
    }

    fn activate_due(&mut self, now: SimTime) -> usize {
        self.core
            .logged(ManagerEvent::ActivateDue { now }, |m| m.activate_due(now))
    }

    fn reschedule(&mut self, now: SimTime) -> Vec<ScheduleEntry> {
        self.core
            .logged(ManagerEvent::Reschedule { now }, |m| m.reschedule(now))
    }

    fn task_started(&mut self, task: TaskId, now: SimTime) -> Result<ResourceId, ManagerError> {
        self.core
            .logged(ManagerEvent::TaskStarted { task, now }, |m| {
                m.task_started(task, now)
            })
    }

    fn task_completed(
        &mut self,
        task: TaskId,
        now: SimTime,
    ) -> Result<Option<JobCompletion>, ManagerError> {
        self.core
            .logged(ManagerEvent::TaskCompleted { task, now }, |m| {
                m.task_completed(task, now)
            })
    }

    fn task_duration_revised(
        &mut self,
        task: TaskId,
        new_exec: SimTime,
    ) -> Result<(), ManagerError> {
        self.core
            .logged(ManagerEvent::TaskDurationRevised { task, new_exec }, |m| {
                m.task_duration_revised(task, new_exec)
            })
    }

    fn task_failed(&mut self, task: TaskId, now: SimTime) -> Result<FailureAction, ManagerError> {
        self.core
            .logged(ManagerEvent::TaskFailed { task, now }, |m| {
                m.task_failed(task, now)
            })
    }

    fn resource_down(
        &mut self,
        rid: ResourceId,
        now: SimTime,
    ) -> Result<Vec<TaskId>, ManagerError> {
        self.core
            .logged(ManagerEvent::ResourceDown { resource: rid, now }, |m| {
                m.resource_down(rid, now)
            })
    }

    fn resource_up(&mut self, rid: ResourceId, now: SimTime) -> Result<(), ManagerError> {
        self.core
            .logged(ManagerEvent::ResourceUp { resource: rid, now }, |m| {
                m.resource_up(rid, now)
            })
    }

    fn jobs_in_system(&self) -> usize {
        self.core.inner().jobs_in_system()
    }

    fn stats(&self) -> ManagerStats {
        self.core.inner().stats()
    }

    fn crash_and_recover(&mut self, now: SimTime) -> bool {
        self.core.crash_and_recover(now)
    }
}

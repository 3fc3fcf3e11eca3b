//! [`DurableRm`]: an [`MrcpRm`] whose every state-mutating command is
//! written ahead to a [`ManagerStore`], making the manager recoverable
//! after a process crash with bounded replay.
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
//! Commands lost from the unsynced tail are *re-delivered*: the wrapper
//! keeps the full command sequence in memory (standing in for the
//! clients, who in a real deployment retry every command the manager
//! never acknowledged), re-applies the suffix the disk did not know
//! about, and re-logs it. Determinism of [`MrcpRm`] does the rest — the
//! re-applied commands drive the recovered manager through exactly the
//! states the pre-crash manager went through, so the run's
//! `deterministic_signature()` is bit-identical to an uninterrupted
//! run's. Only wall-clock solve timings differ, and those feed only
//! metrics the signature already zeroes.
//!
//! ## Failure policy
//!
//! Store I/O errors are fail-stop: a durability layer that silently
//! drops log records is worse than none, so an append/snapshot failure
//! panics with a clear message rather than continuing with a log that no
//! longer matches the state (the policy real WAL systems — and DESIGN.md
//! §5g — adopt).

use crate::event::{apply, ManagerEvent};
use crate::store::{ManagerStore, StoreConfig};
use desim::SimTime;
use mrcp::manager::{
    AdmissionOutcome, FailureAction, JobCompletion, ManagerError, ManagerStats, MrcpConfig,
    ScheduleEntry,
};
use mrcp::sim_driver::ResourceManager;
use mrcp::MrcpRm;
use std::path::{Path, PathBuf};
use workload::{Job, Resource, ResourceId, TaskId};

/// Durability knobs for a [`DurableRm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Snapshot cadence and WAL sync batching.
    pub store: StoreConfig,
    /// Crash semantics: `true` (default) models power loss — unsynced
    /// WAL bytes are lost and the affected commands must be re-delivered;
    /// `false` models a process-only crash where the page cache survives.
    pub lose_unsynced_on_crash: bool,
}

impl DurabilityConfig {
    /// Power-loss semantics (the default) over the given store knobs.
    pub fn power_loss(store: StoreConfig) -> Self {
        DurabilityConfig {
            store,
            lose_unsynced_on_crash: true,
        }
    }
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig::power_loss(StoreConfig::default())
    }
}

/// Recovery-path instruments (DESIGN.md §5k), shared by every durable
/// wrapper so a whole-manager recovery reads the same whether one manager
/// or a fleet came back. Disabled by default;
/// [`DurableRm::set_telemetry`] swaps in live cells.
#[derive(Debug)]
pub struct DurTel {
    bus: telemetry::EventBus,
    /// `durability_recoveries_total` — crash/recover cycles survived.
    recoveries: telemetry::Counter,
    /// `durability_replayed_total` — WAL commands replayed across all
    /// recoveries (re-deliveries not included).
    replayed: telemetry::Counter,
    /// `durability_recovery_us` — wall latency of one full recovery
    /// (truncate + restore + replay + checkpoint).
    recovery_us: telemetry::Histogram,
}

impl DurTel {
    /// Instruments backed by `tel`'s registry and bus (the registry hands
    /// back the same cells for the same keys, so counters stay cumulative
    /// across handles).
    pub fn new(tel: &telemetry::Telemetry) -> DurTel {
        let reg = &tel.registry;
        DurTel {
            bus: tel.bus.clone(),
            recoveries: reg.counter("durability_recoveries_total", &[]),
            replayed: reg.counter("durability_replayed_total", &[]),
            recovery_us: reg.histogram("durability_recovery_us", &[], telemetry::LATENCY_US_BOUNDS),
        }
    }

    /// Count one finished whole-manager recovery at sim time `now`:
    /// `replayed` of the `journaled` commands came back from disk (the
    /// rest were re-delivered), and the whole cycle took `elapsed`.
    pub fn record(
        &self,
        now: SimTime,
        replayed: u64,
        journaled: u64,
        elapsed: std::time::Duration,
    ) {
        self.recoveries.inc();
        self.replayed.add(replayed);
        self.recovery_us.record(elapsed.as_micros() as u64);
        self.bus.publish(telemetry::Event {
            at_ms: now.as_millis(),
            kind: telemetry::EventKind::ManagerRecovery,
            cell: None,
            job: None,
            detail: format!("replayed {replayed} of {journaled} journaled commands"),
        });
    }
}

impl Default for DurTel {
    fn default() -> DurTel {
        DurTel::new(&telemetry::Telemetry::disabled())
    }
}

/// An [`MrcpRm`] with a write-ahead log and snapshots underneath.
#[derive(Debug)]
pub struct DurableRm {
    rm: MrcpRm,
    store: ManagerStore,
    dir: PathBuf,
    cfg: DurabilityConfig,
    /// Construction inputs, needed to rebuild the manager on recovery
    /// (a restarted process re-reads its static configuration).
    mgr_cfg: MrcpConfig,
    resources: Vec<Resource>,
    /// The full command history — the stand-in for clients that retry
    /// commands the manager never acknowledged (see module docs).
    journal: Vec<ManagerEvent>,
    /// Crashes survived so far.
    crashes: u64,
    /// WAL commands replayed across all recoveries (re-deliveries not
    /// included) — the "bounded replay" the snapshot cadence controls.
    replayed: u64,
    /// Wall time spent inside recoveries (truncate + restore + replay +
    /// checkpoint), summed over every crash.
    recovery_time: std::time::Duration,
    /// Recovery-path instruments; disabled until `set_telemetry`.
    tel: DurTel,
    /// The handle to re-attach the rebuilt manager and store with after
    /// each recovery (replay itself runs with instruments detached so
    /// live counters are not double-counted).
    base_tel: telemetry::Telemetry,
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
        let store = ManagerStore::create(dir, cfg.store, &rm)
            .unwrap_or_else(|e| panic!("durability: cannot create store at {dir:?}: {e}"));
        DurableRm {
            rm,
            store,
            dir: dir.to_path_buf(),
            cfg,
            mgr_cfg,
            resources,
            journal: Vec::new(),
            crashes: 0,
            replayed: 0,
            recovery_time: std::time::Duration::ZERO,
            tel: DurTel::default(),
            base_tel: telemetry::Telemetry::disabled(),
        }
    }

    /// Attach live instruments to the wrapped manager, the durable
    /// store, and the recovery path (DESIGN.md §5k). The attachment
    /// survives [`crash_and_recover`](ResourceManager::crash_and_recover):
    /// the rebuilt manager and store are re-wired after every recovery,
    /// and counters stay cumulative because the registry hands back the
    /// same cells for the same instrument keys.
    pub fn set_telemetry(&mut self, tel: &telemetry::Telemetry) {
        self.base_tel = tel.clone();
        self.rm.set_telemetry(tel);
        self.store.set_telemetry(tel);
        self.tel = DurTel::new(tel);
    }

    /// The wrapped manager.
    pub fn inner(&self) -> &MrcpRm {
        &self.rm
    }

    /// Crashes survived so far.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// WAL commands replayed across all recoveries.
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Wall time spent recovering, summed over every crash.
    pub fn recovery_time(&self) -> std::time::Duration {
        self.recovery_time
    }

    /// The write-ahead order, in one place: log `ev`, run `call` on the
    /// manager, snapshot if due. Fail-stop on I/O errors (see module
    /// docs).
    fn logged<T>(&mut self, ev: ManagerEvent, call: impl FnOnce(&mut MrcpRm) -> T) -> T {
        self.store
            .append(&ev)
            .unwrap_or_else(|e| panic!("durability: WAL append failed: {e}"));
        self.journal.push(ev);
        let out = call(&mut self.rm);
        self.store
            .maybe_snapshot(&self.rm)
            .unwrap_or_else(|e| panic!("durability: snapshot failed: {e}"));
        out
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
        self.logged(ev, |m| m.submit_with_admission(job, now))
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
        self.logged(ev, |m| m.submit_batch(jobs, now))
    }

    fn activate_due(&mut self, now: SimTime) -> usize {
        self.logged(ManagerEvent::ActivateDue { now }, |m| m.activate_due(now))
    }

    fn reschedule(&mut self, now: SimTime) -> Vec<ScheduleEntry> {
        self.logged(ManagerEvent::Reschedule { now }, |m| m.reschedule(now))
    }

    fn task_started(&mut self, task: TaskId, now: SimTime) -> Result<ResourceId, ManagerError> {
        self.logged(ManagerEvent::TaskStarted { task, now }, |m| {
            m.task_started(task, now)
        })
    }

    fn task_completed(
        &mut self,
        task: TaskId,
        now: SimTime,
    ) -> Result<Option<JobCompletion>, ManagerError> {
        self.logged(ManagerEvent::TaskCompleted { task, now }, |m| {
            m.task_completed(task, now)
        })
    }

    fn task_duration_revised(
        &mut self,
        task: TaskId,
        new_exec: SimTime,
    ) -> Result<(), ManagerError> {
        self.logged(ManagerEvent::TaskDurationRevised { task, new_exec }, |m| {
            m.task_duration_revised(task, new_exec)
        })
    }

    fn task_failed(&mut self, task: TaskId, now: SimTime) -> Result<FailureAction, ManagerError> {
        self.logged(ManagerEvent::TaskFailed { task, now }, |m| {
            m.task_failed(task, now)
        })
    }

    fn resource_down(
        &mut self,
        rid: ResourceId,
        now: SimTime,
    ) -> Result<Vec<TaskId>, ManagerError> {
        self.logged(ManagerEvent::ResourceDown { resource: rid, now }, |m| {
            m.resource_down(rid, now)
        })
    }

    fn resource_up(&mut self, rid: ResourceId, now: SimTime) -> Result<(), ManagerError> {
        self.logged(ManagerEvent::ResourceUp { resource: rid, now }, |m| {
            m.resource_up(rid, now)
        })
    }

    fn jobs_in_system(&self) -> usize {
        self.rm.jobs_in_system()
    }

    fn stats(&self) -> ManagerStats {
        self.rm.stats()
    }

    fn crash_and_recover(&mut self, now: SimTime) -> bool {
        let t0 = std::time::Instant::now();
        // 1. Fail-stop: the in-memory manager dies. Under power-loss
        //    semantics the unsynced WAL tail dies with it.
        if self.cfg.lose_unsynced_on_crash {
            let synced = self.store.wal_synced_len();
            ManagerStore::simulate_power_loss(&self.dir, synced)
                .unwrap_or_else(|e| panic!("durability: power-loss truncation failed: {e}"));
        }
        // 2. Restart: rebuild from snapshot + surviving log prefix.
        let (store, rm, recovered) = ManagerStore::recover(
            &self.dir,
            self.cfg.store,
            self.mgr_cfg,
            self.resources.clone(),
        )
        .unwrap_or_else(|e| panic!("durability: recovery failed: {e}"));
        self.store = store;
        self.rm = rm;
        let replayed = recovered.min(self.journal.len() as u64);
        self.replayed += replayed;
        // 3. Client re-delivery: re-apply (and re-log) every command the
        //    recovered state does not reflect.
        for i in recovered as usize..self.journal.len() {
            let ev = self.journal[i].clone();
            self.store
                .append(&ev)
                .unwrap_or_else(|e| panic!("durability: WAL re-append failed: {e}"));
            apply(&mut self.rm, &ev);
        }
        self.store
            .checkpoint(&self.rm)
            .unwrap_or_else(|e| panic!("durability: post-recovery checkpoint failed: {e}"));
        self.crashes += 1;
        self.recovery_time += t0.elapsed();
        // Replay ran with instruments detached (it must not double-count
        // live metrics); re-attach now that the state is current again.
        self.rm.set_telemetry(&self.base_tel);
        self.store.set_telemetry(&self.base_tel);
        self.tel
            .record(now, replayed, self.journal.len() as u64, t0.elapsed());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::model::homogeneous_cluster;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mrcp-durable-rm-test-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn job(id: u32) -> Job {
        let t = |tid: u32, kind| workload::Task {
            id: TaskId(tid),
            job: workload::JobId(id),
            kind,
            exec_time: SimTime::from_millis(2_000),
            req: 1,
        };
        Job {
            id: workload::JobId(id),
            arrival: SimTime::ZERO,
            earliest_start: SimTime::ZERO,
            deadline: SimTime::from_millis(120_000),
            map_tasks: vec![t(id * 10, workload::TaskKind::Map)],
            reduce_tasks: vec![t(id * 10 + 1, workload::TaskKind::Reduce)],
            precedences: vec![],
        }
    }

    #[test]
    fn crash_between_every_command_matches_crash_free_run() {
        let resources = homogeneous_cluster(4, 2, 2);
        let cfg = MrcpConfig::default();

        // Reference run, no durability.
        let mut plain = MrcpRm::new(cfg, resources.clone());
        // Durable run that crashes after every single command, with an
        // unsynced tail lost each time (sync_every=2 leaves one).
        let dir = tmp("everystep");
        let mut durable = DurableRm::new(
            cfg,
            resources,
            &dir,
            DurabilityConfig {
                store: StoreConfig {
                    snapshot_every: 3,
                    wal: crate::wal::WalConfig { sync_every: 2 },
                },
                lose_unsynced_on_crash: true,
            },
        );

        let mut script = vec![
            ManagerEvent::SubmitWithAdmission {
                job: job(1),
                now: SimTime::ZERO,
            },
            ManagerEvent::SubmitWithAdmission {
                job: job(2),
                now: SimTime::from_millis(3),
            },
            ManagerEvent::Reschedule {
                now: SimTime::from_millis(3),
            },
        ];
        let step = |plain: &mut MrcpRm, durable: &mut DurableRm, ev: &ManagerEvent| {
            apply(plain, ev);
            crate::event::apply_surface(durable, ev);
            assert!(durable.crash_and_recover(SimTime::ZERO));
        };
        for ev in script.clone() {
            step(&mut plain, &mut durable, &ev);
        }
        // Continue the lifecycle at the exact start the plan assigned.
        let entry = plain
            .current_schedule()
            .into_iter()
            .find(|e| e.task == TaskId(10))
            .expect("map task of job 1 is planned");
        let tail = vec![
            ManagerEvent::TaskStarted {
                task: TaskId(10),
                now: entry.start,
            },
            ManagerEvent::TaskCompleted {
                task: TaskId(10),
                now: entry.end,
            },
            ManagerEvent::Reschedule { now: entry.end },
        ];
        for ev in tail.clone() {
            step(&mut plain, &mut durable, &ev);
        }
        script.extend(tail);
        assert_eq!(durable.crashes(), script.len() as u64);

        let mut a = plain.image();
        let mut b = durable.inner().image();
        for img in [&mut a, &mut b] {
            img.stats.total_solve = std::time::Duration::ZERO;
            img.stats.max_round_solve = std::time::Duration::ZERO;
        }
        assert_eq!(a, b, "crash-riddled durable state must match the plain run");
    }
}

//! The durable store every durable manager shares: one directory holding
//! the current snapshot (`snapshot.bin`) and one or more indexed event
//! logs, plus [`Durable`], the one durable command surface over them.
//!
//! Every log — a single manager's `wal.log`, a fleet's `manifest.log`,
//! each fleet cell's `cell-<i>.wal` — is an [`EventLog`]: records of
//! `[idx u64][encoded ManagerEvent]` over a [`Wal`]. Indices are
//! monotonic across the log's life; the snapshot records the index it was
//! taken at, so recovery is: restore the snapshot image, then replay only
//! records with `idx >= base` in contiguous order ([`replay_indexed`]).
//! Records below the base (possible when a crash lands between snapshot
//! rename and log reset) are skipped; a gap or out-of-order index means
//! the log's tail cannot be trusted and replay stops there — never a
//! panic.
//!
//! [`Durable<M>`](Durable) wraps any manager that plugs in through
//! [`Recoverable`] and implements [`ResourceManager`] once for all of
//! them: the write-ahead order (`Durable::logged`) and the recovery
//! routine (its [`crash_and_recover`](ResourceManager::crash_and_recover))
//! are written in one place for the single manager
//! ([`DurableRm`](crate::DurableRm)) and the federation alike.
//!
//! ## The crash/recovery model
//!
//! `crash_and_recover` simulates fail-stop process death: all in-memory
//! state is discarded, each log's batch of records not yet written to its
//! file included (a [`Wal`] group-commits, so a record reaches the file at
//! the sync that ends its batch, or earlier at a spill or an explicit
//! flush). That batch dies with the process under both crash semantics.
//! When [`DurabilityConfig::lose_unsynced_on_crash`] is set (the
//! default), the crash is also a machine power loss: every log is
//! truncated to its last-synced byte first, so records written but not
//! synced are lost too; unset, those written records survive. The manager
//! is then rebuilt from the snapshot plus the surviving log prefix. With
//! `WalConfig::sync_every` 1 (the default) every record is synced by the
//! append that logs it, so nothing logged is ever lost and recovery
//! replays every command since the snapshot.
//!
//! Commands lost from the unsynced tail are *re-delivered*: [`Durable`]
//! keeps every command since the last checkpoint in memory (standing in
//! for the clients, who in a real deployment retry every command the
//! manager never acknowledged) and re-applies the suffix the disk did not
//! know about; the checkpoint that ends the recovery makes them durable.
//! Determinism of the wrapped manager does the rest — the re-applied
//! commands drive the recovered manager through exactly the states the
//! pre-crash manager went through, so the run's
//! `deterministic_signature()` is bit-identical to an uninterrupted run's.
//! Only wall-clock solve timings differ, and those feed only metrics the
//! signature already zeroes.

use crate::codec::{Dec, DecodeError, Enc, Wire};
use crate::event::ManagerEvent;
use crate::snapshot::{read_blob, write_blob};
use crate::wal::{Wal, WalConfig};
use desim::SimTime;
use mrcp::manager::{
    AdmissionOutcome, FailureAction, JobCompletion, ManagerError, ManagerStats, ScheduleEntry,
};
use mrcp::sim_driver::ResourceManager;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Job, ResourceId, TaskId};

/// Write-path instruments (DESIGN.md §5k), the same `durability_*` names
/// whichever layer runs durable. Disabled by default.
#[derive(Debug, Clone)]
struct WalTel {
    bus: telemetry::EventBus,
    /// `durability_wal_append_us` — wall latency of one log append: the
    /// record joins the log's batch, and the append that ends a batch
    /// also pays its one write and fsync (`Wal::sync`).
    wal_append_us: telemetry::Histogram,
    /// `durability_wal_appends_total` — records written ahead, all logs.
    wal_appends: telemetry::Counter,
    /// `durability_snapshots_total` — checkpoints taken.
    snapshots: telemetry::Counter,
    /// `durability_wal_records` — commands logged since the last
    /// checkpoint: the snapshot age in commands, i.e. the replay bound
    /// a crash right now would pay.
    wal_records: telemetry::Gauge,
}

impl WalTel {
    fn new(tel: &telemetry::Telemetry) -> WalTel {
        let reg = &tel.registry;
        WalTel {
            bus: tel.bus.clone(),
            wal_append_us: reg.histogram(
                "durability_wal_append_us",
                &[],
                telemetry::LATENCY_US_BOUNDS,
            ),
            wal_appends: reg.counter("durability_wal_appends_total", &[]),
            snapshots: reg.counter("durability_snapshots_total", &[]),
            wal_records: reg.gauge("durability_wal_records", &[]),
        }
    }
}

/// Recovery-path instruments (DESIGN.md §5k): a whole-manager recovery
/// reads the same whether one manager or a fleet came back.
#[derive(Debug)]
struct DurTel {
    /// `durability_recoveries_total` — crash/recover cycles survived.
    recoveries: telemetry::Counter,
    /// `durability_replayed_total` — logged commands replayed across all
    /// recoveries (re-deliveries not included).
    replayed: telemetry::Counter,
    /// `durability_recovery_us` — wall latency of one full recovery.
    recovery_us: telemetry::Histogram,
}

impl DurTel {
    fn new(tel: &telemetry::Telemetry) -> DurTel {
        let reg = &tel.registry;
        DurTel {
            recoveries: reg.counter("durability_recoveries_total", &[]),
            replayed: reg.counter("durability_replayed_total", &[]),
            recovery_us: reg.histogram("durability_recovery_us", &[], telemetry::LATENCY_US_BOUNDS),
        }
    }
}

/// Store knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Take a fresh snapshot (and reset the logs) once this many commands
    /// have accumulated since the last one — the bound on replay length.
    pub snapshot_every: u64,
    /// WAL framing/sync knobs.
    pub wal: WalConfig,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            snapshot_every: 256,
            wal: WalConfig::default(),
        }
    }
}

/// Durability knobs for a durable manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Snapshot cadence and WAL sync batching.
    pub store: StoreConfig,
    /// Crash semantics: `true` (default) models power loss — every log
    /// record not yet synced is lost and the affected commands must be
    /// re-delivered; `false` models a process-only crash, where records
    /// already written to a log file survive. A log's batch of records
    /// not yet written dies with the process either way.
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

/// An indexed event log: `[idx u64][encoded ManagerEvent]` records over a
/// [`Wal`], stamped with consecutive indices that continue across
/// [`reset`](Self::reset)s.
#[derive(Debug)]
pub struct EventLog {
    wal: Wal,
    cfg: WalConfig,
    /// Index the next appended record will carry.
    next: u64,
    /// Encoding buffer, reused by every append.
    enc: Enc,
    tel: WalTel,
}

impl EventLog {
    /// Create a fresh, empty log at `path` (truncating any existing file)
    /// whose first record will carry index `next`.
    pub fn create(path: &Path, cfg: WalConfig, next: u64) -> io::Result<EventLog> {
        Ok(EventLog {
            wal: Wal::create(path, cfg)?,
            cfg,
            next,
            enc: Enc::new(),
            tel: WalTel::new(&telemetry::Telemetry::disabled()),
        })
    }

    /// The index the next [`append`](Self::append) will stamp.
    pub fn next_idx(&self) -> u64 {
        self.next
    }

    /// Append one event (write-ahead: call this *before* applying it).
    pub fn append(&mut self, ev: &ManagerEvent) -> io::Result<()> {
        self.enc.clear();
        self.enc.u64(self.next);
        ev.put(&mut self.enc);
        let t0 = Instant::now();
        let out = self.wal.append(self.enc.as_slice());
        self.tel
            .wal_append_us
            .record(t0.elapsed().as_micros() as u64);
        self.tel.wal_appends.inc();
        self.next += 1;
        out
    }

    /// Start the file over empty after a checkpoint; indices continue.
    /// The old log's unwritten batch is discarded: the snapshot covers it.
    pub fn reset(&mut self) -> io::Result<()> {
        self.wal = Wal::create(self.wal.path(), self.cfg)?;
        Ok(())
    }

    /// Write the log's batch to its file, so that a reader of the file
    /// sees every record appended so far.
    pub fn flush(&mut self) -> io::Result<()> {
        self.wal.flush()
    }

    /// Simulate power loss on the log's file: drop every byte past the
    /// last sync.
    pub fn drop_unsynced(&self) -> io::Result<()> {
        Wal::drop_unsynced(self.wal.path(), self.wal.synced_len())
    }
}

/// Decode one `[idx u64][encoded ManagerEvent]` record of an
/// [`EventLog`].
pub fn indexed_event(d: &mut Dec<'_>) -> Result<(u64, ManagerEvent), DecodeError> {
    Wire::get(d)
}

/// Replay the trustworthy prefix of an [`EventLog`]'s surviving records.
/// Events indexed below `next` predate the snapshot and are skipped; each
/// contiguous event is handed to `apply`. Replay stops — never panics —
/// at the first undecodable record, record with trailing bytes, or index
/// gap, because past any of those the tail cannot be trusted. Returns the
/// index after the last event applied.
pub fn replay_indexed(
    records: &[Vec<u8>],
    mut next: u64,
    mut apply: impl FnMut(&ManagerEvent),
) -> u64 {
    for payload in records {
        let mut d = Dec::new(payload);
        let Ok((idx, ev)) = indexed_event(&mut d) else {
            break;
        };
        if d.expect_end().is_err() {
            break;
        }
        if idx < next {
            continue;
        }
        if idx > next {
            break;
        }
        apply(&ev);
        next += 1;
    }
    next
}

/// Path of the snapshot blob inside a store directory.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.bin")
}

pub(crate) fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// What [`Durable`] needs from the manager it makes durable.
pub trait Recoverable: Sized {
    /// Construction inputs a restarted process re-reads (static
    /// configuration, never state).
    type Setup;
    /// File name of the command log inside the store directory.
    const LOG_NAME: &'static str;

    /// Append everything mutable about the manager, as plain data, to a
    /// snapshot payload.
    fn encode_state(&self, e: &mut Enc);

    /// Rebuild a manager from `setup` plus a payload
    /// [`encode_state`](Self::encode_state) wrote. A manager with logs of
    /// its own reopens them empty under `dir` at the positions the
    /// payload recorded.
    fn restore(
        setup: &Self::Setup,
        d: &mut Dec<'_>,
        dir: &Path,
        cfg: StoreConfig,
    ) -> io::Result<Self>;

    /// Re-execute one logged command exactly as the live call did,
    /// appending to no log.
    fn replay(&mut self, ev: &ManagerEvent);

    /// The logs the manager appends to itself, beside the command log
    /// the core owns; they lose their unsynced tail and are reset with it.
    fn own_logs(&mut self) -> &mut [EventLog] {
        &mut []
    }

    /// The rebuilt manager goes live in place of `dead`: take over
    /// whatever outlives a process restart.
    fn take_over(&mut self, dead: Self) {
        drop(dead);
    }

    /// Attach live instruments to the manager (not to its logs).
    fn attach_telemetry(&mut self, tel: &telemetry::Telemetry);
}

/// A manager with a command log and snapshots underneath: the write-ahead
/// order and the recovery routine, written once, behind the one durable
/// [`ResourceManager`] impl.
///
/// Store I/O errors are fail-stop: a durability layer that silently drops
/// log records is worse than none, so a failed append, snapshot or
/// recovery panics with a clear message rather than continuing with a log
/// that no longer matches the state (DESIGN.md §5g).
#[derive(Debug)]
pub struct Durable<M: Recoverable> {
    m: M,
    setup: M::Setup,
    dir: PathBuf,
    cfg: DurabilityConfig,
    /// The command log; its records since the snapshot are
    /// `redelivery.len()`.
    log: EventLog,
    /// Every command since the last checkpoint — the stand-in for clients
    /// that retry commands the manager never acknowledged. Entry `i`
    /// carries index `log.next_idx() - redelivery.len() + i`; recovery
    /// never reads below the snapshot's base, so a checkpoint empties it.
    redelivery: Vec<ManagerEvent>,
    crashes: u64,
    replayed: u64,
    recovery_time: Duration,
    /// Simulated time of the last timed command logged, used to stamp
    /// checkpoint events (the store itself has no clock).
    last_at_ms: i64,
    tel: WalTel,
    rec_tel: DurTel,
    /// The handle to re-attach the rebuilt manager and logs with after
    /// each recovery (replay itself runs with instruments detached so
    /// live counters are not double-counted).
    base_tel: telemetry::Telemetry,
}

impl<M: Recoverable> Durable<M> {
    /// Wrap `m` over a fresh store rooted at `dir` (created if missing):
    /// a snapshot of `m` as command index 0 and an empty command log.
    pub fn create(m: M, setup: M::Setup, dir: &Path, cfg: DurabilityConfig) -> Durable<M> {
        let disabled = telemetry::Telemetry::disabled();
        let log = std::fs::create_dir_all(dir)
            .and_then(|()| EventLog::create(&dir.join(M::LOG_NAME), cfg.store.wal, 0))
            .unwrap_or_else(|e| panic!("durability: cannot create store at {dir:?}: {e}"));
        let core = Durable {
            m,
            setup,
            dir: dir.to_path_buf(),
            cfg,
            log,
            redelivery: Vec::new(),
            crashes: 0,
            replayed: 0,
            recovery_time: Duration::ZERO,
            last_at_ms: 0,
            tel: WalTel::new(&disabled),
            rec_tel: DurTel::new(&disabled),
            base_tel: disabled,
        };
        core.write_snapshot()
            .unwrap_or_else(|e| panic!("durability: initial snapshot failed: {e}"));
        core
    }

    /// Attach live instruments to the wrapped manager, every log and the
    /// recovery path (DESIGN.md §5k). The attachment survives
    /// checkpoints and recoveries, and counters stay cumulative because
    /// the registry hands back the same cells for the same keys.
    pub fn set_telemetry(&mut self, tel: &telemetry::Telemetry) {
        self.base_tel = tel.clone();
        self.tel = WalTel::new(tel);
        self.rec_tel = DurTel::new(tel);
        self.tel.wal_records.set(self.redelivery.len() as i64);
        self.attach_telemetry();
    }

    fn attach_telemetry(&mut self) {
        self.m.attach_telemetry(&self.base_tel);
        self.log.tel = self.tel.clone();
        for l in self.m.own_logs() {
            l.tel = self.tel.clone();
        }
    }

    /// The wrapped manager.
    pub fn inner(&self) -> &M {
        &self.m
    }

    /// The wrapped manager, for configuration no command carries; state
    /// changes made here bypass the log.
    pub fn inner_mut(&mut self) -> &mut M {
        &mut self.m
    }

    /// Crashes survived so far.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Logged commands replayed across all recoveries (re-deliveries not
    /// included) — the "bounded replay" the snapshot cadence controls.
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Wall time spent recovering, summed over every crash.
    pub fn recovery_time(&self) -> Duration {
        self.recovery_time
    }

    /// The write-ahead order, in one place: log `ev`, run `call` on the
    /// manager, checkpoint if due.
    fn logged<T>(&mut self, ev: ManagerEvent, call: impl FnOnce(&mut M) -> T) -> T {
        if let Some(now) = ev.time() {
            self.last_at_ms = now.as_millis();
        }
        self.log
            .append(&ev)
            .unwrap_or_else(|e| panic!("durability: {} append failed: {e}", M::LOG_NAME));
        self.redelivery.push(ev);
        self.tel.wal_records.set(self.redelivery.len() as i64);
        let out = call(&mut self.m);
        if self.redelivery.len() as u64 >= self.cfg.store.snapshot_every.max(1) {
            self.checkpoint()
                .unwrap_or_else(|e| panic!("durability: checkpoint failed: {e}"));
        }
        out
    }

    fn write_snapshot(&self) -> io::Result<()> {
        let mut e = Enc::new();
        e.u64(self.log.next_idx());
        self.m.encode_state(&mut e);
        write_blob(&snapshot_path(&self.dir), &e.finish())
    }

    /// Snapshot the manager at the current command index, then reset
    /// every log and the re-delivery log the snapshot now covers.
    fn checkpoint(&mut self) -> io::Result<()> {
        self.write_snapshot()?;
        self.log.reset()?;
        for l in self.m.own_logs() {
            l.reset()?;
        }
        let truncated = self.redelivery.len();
        self.redelivery.clear();
        self.tel.snapshots.inc();
        self.tel.wal_records.set(0);
        self.tel.bus.publish(telemetry::Event {
            at_ms: self.last_at_ms,
            kind: telemetry::EventKind::WalCheckpoint,
            cell: None,
            job: None,
            detail: format!(
                "base_idx {}, {truncated} records truncated",
                self.log.next_idx()
            ),
        });
        Ok(())
    }

    /// The recovery routine; returns how many logged commands it replayed.
    fn recover(&mut self) -> io::Result<u64> {
        // 1. Fail-stop: the in-memory manager dies. Under power-loss
        //    semantics the unsynced tail of every log dies with it.
        if self.cfg.lose_unsynced_on_crash {
            self.log.drop_unsynced()?;
            for l in self.m.own_logs() {
                l.drop_unsynced()?;
            }
        }
        // 2. Read the snapshot and 3. restore the manager from it.
        let payload = read_blob(&snapshot_path(&self.dir))?;
        let mut d = Dec::new(&payload);
        let base = d.u64().map_err(invalid)?;
        let mut m = M::restore(&self.setup, &mut d, &self.dir, self.cfg.store)?;
        d.expect_end().map_err(invalid)?;
        // 4. Replay the command log's surviving prefix.
        let (_wal, records) = Wal::recover(self.log.wal.path(), self.cfg.store.wal)?;
        let next = replay_indexed(&records, base, |ev| m.replay(ev));
        // 5. Client re-delivery of every command the disk did not know
        //    about — not re-logged: the checkpoint below covers them.
        debug_assert_eq!(
            base + self.redelivery.len() as u64,
            self.log.next_idx(),
            "the re-delivery log starts at the snapshot's base"
        );
        for ev in &self.redelivery[(next - base) as usize..] {
            m.replay(ev);
        }
        let dead = std::mem::replace(&mut self.m, m);
        self.m.take_over(dead);
        // 6. One checkpoint makes the recovered state durable and starts
        //    clean logs.
        self.checkpoint()?;
        // 7. Replay ran with instruments detached (it must not
        //    double-count live metrics); re-attach before going live.
        self.attach_telemetry();
        Ok(next - base)
    }
}

/// The one durable command surface: every state-mutating command is
/// logged ahead through `Durable::logged`; reads go to the manager.
impl<M: Recoverable + ResourceManager> ResourceManager for Durable<M> {
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
        // One record for the whole burst: the federation routes a batch
        // against a single load snapshot, so replay must re-present it as
        // a batch — decomposing into singleton submits would replay with
        // different (sequential) routing decisions.
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
        self.m.jobs_in_system()
    }

    fn stats(&self) -> ManagerStats {
        self.m.stats()
    }

    /// The crash/recovery model of the module docs. Always returns `true`:
    /// state was lost and recovered.
    fn crash_and_recover(&mut self, now: SimTime) -> bool {
        let t0 = Instant::now();
        let replayed = self
            .recover()
            .unwrap_or_else(|e| panic!("durability: recovery failed: {e}"));
        let journaled = self.log.next_idx();
        self.crashes += 1;
        self.replayed += replayed;
        let elapsed = t0.elapsed();
        self.recovery_time += elapsed;
        self.rec_tel.recoveries.inc();
        self.rec_tel.replayed.add(replayed);
        self.rec_tel.recovery_us.record(elapsed.as_micros() as u64);
        self.tel.bus.publish(telemetry::Event {
            at_ms: now.as_millis(),
            kind: telemetry::EventKind::ManagerRecovery,
            cell: None,
            job: None,
            detail: format!("replayed {replayed} of {journaled} journaled commands"),
        });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{apply, apply_surface};
    use mrcp::manager::MrcpConfig;
    use mrcp::MrcpRm;
    use workload::{model::homogeneous_cluster, JobId, Task, TaskKind};

    fn job(id: u32) -> Job {
        let t = |tid: u32, kind| Task {
            id: TaskId(tid),
            job: JobId(id),
            kind,
            exec_time: SimTime::from_millis(2_000),
            req: 1,
        };
        Job {
            id: JobId(id),
            arrival: SimTime::ZERO,
            earliest_start: SimTime::ZERO,
            deadline: SimTime::from_millis(120_000),
            map_tasks: vec![t(id * 10, TaskKind::Map), t(id * 10 + 1, TaskKind::Map)],
            reduce_tasks: vec![t(id * 10 + 2, TaskKind::Reduce)],
        }
    }

    fn submit(i: u32) -> ManagerEvent {
        ManagerEvent::SubmitWithAdmission {
            job: job(i + 1),
            now: SimTime::from_millis(i64::from(i)),
        }
    }

    /// A plain reference manager and a durable one over a fresh store.
    fn pair(name: &str, cfg: DurabilityConfig) -> (MrcpRm, Durable<MrcpRm>) {
        let resources = homogeneous_cluster(4, 2, 2);
        let mgr = MrcpConfig::default();
        let rm = MrcpRm::new(mgr, resources.clone());
        let core = Durable::create(
            MrcpRm::new(mgr, resources.clone()),
            (mgr, resources),
            &crate::scratch_dir(name),
            cfg,
        );
        (rm, core)
    }

    fn step(plain: &mut MrcpRm, core: &mut Durable<MrcpRm>, ev: ManagerEvent) {
        apply(plain, &ev);
        apply_surface(core, &ev);
    }

    /// Replay re-runs the solver, so wall-clock stats legitimately
    /// differ; everything else must be bit-exact.
    fn canonical(rm: &MrcpRm) -> mrcp::ManagerImage {
        let mut img = rm.image();
        img.stats.total_solve = Duration::ZERO;
        img.stats.max_round_solve = Duration::ZERO;
        img
    }

    #[test]
    fn snapshot_plus_replay_rebuilds_the_manager() {
        let (mut plain, mut core) = pair(
            "replay",
            DurabilityConfig {
                store: StoreConfig::default(),
                lose_unsynced_on_crash: false,
            },
        );
        step(&mut plain, &mut core, submit(0));
        step(&mut plain, &mut core, submit(1));
        let now = SimTime::from_millis(5);
        step(&mut plain, &mut core, ManagerEvent::Reschedule { now });

        assert!(core.crash_and_recover(now));
        assert_eq!(core.replayed(), 3);
        assert_eq!(canonical(&plain), canonical(core.inner()));
        let _ = std::fs::remove_dir_all(&core.dir);
    }

    #[test]
    fn snapshot_bound_resets_the_wal() {
        let (mut plain, mut core) = pair(
            "bound",
            DurabilityConfig {
                store: StoreConfig {
                    snapshot_every: 2,
                    ..StoreConfig::default()
                },
                lose_unsynced_on_crash: false,
            },
        );
        for i in 0..5 {
            step(&mut plain, &mut core, submit(i));
        }
        assert_eq!(core.log.next_idx(), 5);
        assert_eq!(core.log.wal.records(), 1, "two checkpoints reset the log");
        assert!(core.crash_and_recover(SimTime::ZERO));
        assert_eq!(core.replayed(), 1, "only the record past the snapshot");
        assert_eq!(core.log.next_idx(), 5);
        assert_eq!(core.inner().image(), plain.image());
        let _ = std::fs::remove_dir_all(&core.dir);
    }

    #[test]
    fn lost_unsynced_tail_recovers_the_synced_prefix() {
        let (mut plain, mut core) = pair(
            "tail",
            DurabilityConfig::power_loss(StoreConfig {
                snapshot_every: 1_000,
                wal: WalConfig { sync_every: 100 },
            }),
        );
        for i in 0..4 {
            step(&mut plain, &mut core, submit(i));
            if i == 1 {
                // Manually sync after two commands; the rest stays
                // buffered and dies with the "power loss" below.
                core.log.wal.sync().unwrap();
            }
        }
        assert!(core.crash_and_recover(SimTime::ZERO));
        assert_eq!(core.replayed(), 2, "only the synced commands survive");
        // The other two came back by client re-delivery.
        assert_eq!(core.inner().image(), plain.image());
        let _ = std::fs::remove_dir_all(&core.dir);
    }

    /// The re-delivery log holds only what the snapshot does not cover,
    /// however long the run — and a crash at any later command still
    /// recovers the crash-free state from it.
    #[test]
    fn redelivery_log_is_bounded_by_the_snapshot_cadence() {
        let snapshot_every = 4;
        let (mut plain, mut core) = pair(
            "bounded",
            DurabilityConfig::power_loss(StoreConfig {
                snapshot_every,
                wal: WalConfig { sync_every: 3 },
            }),
        );
        for i in 0..3 * snapshot_every as u32 {
            step(&mut plain, &mut core, submit(i));
            assert!(core.redelivery.len() as u64 <= snapshot_every);
        }
        assert_eq!(core.log.next_idx(), 3 * snapshot_every);
        for i in 0..2 * snapshot_every as u32 + 1 {
            step(&mut plain, &mut core, submit(100 + i));
            assert!(core.redelivery.len() as u64 <= snapshot_every);
            assert!(core.crash_and_recover(SimTime::ZERO));
            assert!(
                core.redelivery.is_empty(),
                "a recovery ends in a checkpoint"
            );
            assert_eq!(core.inner().image(), plain.image(), "after command {i}");
        }
        assert_eq!(core.log.next_idx(), 5 * snapshot_every + 1);
        let _ = std::fs::remove_dir_all(&core.dir);
    }
}

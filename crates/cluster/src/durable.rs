//! Durable federation state: what a [`Federation`] plugs into the one
//! durable command surface (`durability::Durable`) — its image, its
//! per-cell logs — and [`DurableFederation`], a `Durable<Federation>`
//! built from a [`ClusterConfig`], the multi-cell counterpart of
//! `durability::DurableRm`.
//!
//! ## Layout
//!
//! One store directory per federation; every log is a
//! `durability::EventLog` (`[idx u64][ManagerEvent]` records):
//!
//! ```text
//! store/
//!   snapshot.bin    atomic fleet snapshot (one ManagerImage per cell,
//!                   per-cell log positions, cluster metrics)
//!   manifest.log    the fleet-surface commands, indexed from the
//!                   snapshot's base — the core's command log
//!   cell-<i>.wal    the requests cell i applied, post-routing: one
//!                   record per applied request (a batch routed to the
//!                   cell, a round, a task event, a migration step)
//! ```
//!
//! Where a job was routed and which jobs migrated are not logged as
//! records of their own: each cell log *is* the post-routing stream
//! (`SubmitBatch` / `Submit` / `TakeUnstartedJob`), and replaying the
//! manifest re-derives every decision.
//!
//! ## Two recovery granularities
//!
//! **Whole fleet** (`crash_and_recover`, `Durable`'s one recovery
//! routine): restore every cell from the snapshot, then
//! re-execute the manifest's surface commands through the real federation
//! code. Routing, rebalancing, and the cluster metrics are deterministic
//! functions of fleet state, so the replay re-derives them exactly.
//!
//! **One cell** ([`recover_cell`]): restore that cell's image from the
//! snapshot and replay only its own log — the post-routing event stream
//! — without touching the rest of the fleet. This is what keeps cells
//! *independently* recoverable: a cell's manager process can restart
//! without forcing a fleet-wide replay.
//!
//! Store I/O failures are fail-stop (a panic with a clear message), the
//! same policy as the single-manager layer: a durability layer that
//! silently drops records is worse than none.

use crate::federation::{shard, ClusterConfig, Federation};
use crate::metrics::ClusterMetrics;
use desim::SimTime;
use durability::codec::{Dec, DecodeError, Enc, Wire};
use durability::snapshot::read_blob;
use durability::store::snapshot_path;
use durability::{
    apply, apply_surface, replay_indexed, DurabilityConfig, Durable, EventLog, ManagerEvent,
    Recoverable, StoreConfig, Wal,
};
use mrcp::manager::{
    AdmissionOutcome, FailureAction, JobCompletion, ManagerError, ManagerStats, MrcpConfig,
    ScheduleEntry,
};
use mrcp::sim_driver::ResourceManager;
use mrcp::{ManagerImage, MrcpRm, TaskStatusImage};
use std::borrow::Cow;
use std::io;
use std::path::{Path, PathBuf};
use workload::{Job, Resource, ResourceId, TaskId};

fn cell_wal_path(dir: &Path, cell: usize) -> PathBuf {
    dir.join(format!("cell-{cell}.wal"))
}

fn io_invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// One open log per cell. Owned by the [`Federation`] (as its `journal`
/// field) so the delivery, round and migration paths can append what a
/// cell is asked write-ahead of the cell applying it.
#[derive(Debug)]
pub(crate) struct CellLogs {
    /// Store directory and configuration — what [`recover_cell`] needs
    /// to rehydrate a crashed cell mid-run.
    pub(crate) dir: PathBuf,
    pub(crate) cfg: StoreConfig,
    logs: Vec<EventLog>,
}

impl CellLogs {
    /// Open an empty log per cell under `dir`, cell `i`'s first record
    /// carrying index `next[i]`.
    fn create(dir: &Path, cfg: StoreConfig, next: &[u64]) -> io::Result<CellLogs> {
        std::fs::create_dir_all(dir)?;
        let logs = next
            .iter()
            .enumerate()
            .map(|(i, &n)| EventLog::create(&cell_wal_path(dir, i), cfg.wal, n))
            .collect::<io::Result<_>>()?;
        Ok(CellLogs {
            dir: dir.to_path_buf(),
            cfg,
            logs,
        })
    }

    /// Log one request to `cell`'s own log (write-ahead of applying it
    /// to the cell's manager).
    pub(crate) fn append(&mut self, cell: usize, ev: &ManagerEvent) {
        self.logs[cell]
            .append(ev)
            .unwrap_or_else(|e| panic!("durability: cell-{cell} WAL append failed: {e}"));
    }

    /// Write `cell`'s batched records to its log file, so that
    /// [`recover_cell`] reads every request the cell was sent.
    pub(crate) fn flush(&mut self, cell: usize) {
        self.logs[cell]
            .flush()
            .unwrap_or_else(|e| panic!("durability: cell-{cell} WAL flush failed: {e}"));
    }
}

/// Everything mutable about a [`Federation`], as plain data: the
/// per-cell manager images and dirty flags, each cell log's position, the
/// cluster metrics, and the fleet-depth high-water mark (the maps are
/// rebuilt from the images; the resource→cell map is a pure function of
/// the construction inputs). A checkpoint borrows the live metrics, whose
/// latency vectors grow by one entry per round, instead of copying them.
#[derive(Debug, Clone, PartialEq)]
struct FederationImage<'a> {
    cells: Vec<(ManagerImage, bool)>,
    cell_seq: Vec<u64>,
    metrics: Cow<'a, ClusterMetrics>,
    max_fleet_depth: usize,
}

durability::wire_struct!(FederationImage<'_> { cells, cell_seq, metrics, max_fleet_depth });
durability::wire_struct!(ClusterMetrics {
    cells,
    jobs_routed,
    spills,
    migrations,
    migration_probes,
    rounds,
    round_latencies_us,
    max_cells_active,
    rpc_commands,
    rpc_attempts,
    rpc_retries,
    rpc_drops,
    rpc_timeouts,
    rpc_dedup_hits,
    rpc_escalations,
    rpc_latency_ms_total,
    reroutes,
    cell_crashes,
    cell_restores,
    rehydrations,
    rehydrate_mismatches,
    failovers,
    failover_latencies_ms,
    restore_latencies_ms,
});

impl FederationImage<'static> {
    /// Decode a fleet image, refusing one whose per-cell vectors do not
    /// have one entry per cell: restoring it would index past them.
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let img = Self::get(d)?;
        let k = img.cells.len();
        if img.cell_seq.len() != k || img.metrics.cells != k || img.metrics.jobs_routed.len() != k {
            return Err(DecodeError(
                "fleet image: per-cell lengths differ from the cell count",
            ));
        }
        Ok(img)
    }
}

/// What a restarted fleet re-reads: its static configuration.
#[derive(Debug)]
pub struct FleetSetup {
    cluster: ClusterConfig,
    mgr: MrcpConfig,
    resources: Vec<Resource>,
}

/// A fleet is its `FederationImage`; beside the core's `manifest.log`
/// it owns one log per cell.
impl Recoverable for Federation {
    type Setup = FleetSetup;
    const LOG_NAME: &'static str = "manifest.log";

    fn encode_state(&self, e: &mut Enc) {
        FederationImage {
            cells: self.cells.iter().map(|c| (c.rm.image(), c.dirty)).collect(),
            cell_seq: match &self.journal {
                Some(j) => j.logs.iter().map(EventLog::next_idx).collect(),
                None => vec![0; self.cells.len()],
            },
            metrics: Cow::Borrowed(&self.metrics),
            max_fleet_depth: self.max_fleet_depth,
        }
        .put(e);
    }

    fn restore(
        setup: &FleetSetup,
        d: &mut Dec<'_>,
        dir: &Path,
        cfg: StoreConfig,
    ) -> io::Result<Federation> {
        let img = FederationImage::decode(d).map_err(io_invalid)?;
        let pools = shard(&setup.resources, setup.cluster.cells);
        if img.cells.len() != pools.len() {
            return Err(io_invalid(format!(
                "snapshot has {} cells but the configuration shards into {}",
                img.cells.len(),
                pools.len()
            )));
        }
        let mut task_cell = std::collections::HashMap::new();
        let mut job_cell = std::collections::HashMap::new();
        let mut rms = Vec::with_capacity(pools.len());
        let mut dirty = Vec::with_capacity(pools.len());
        for (i, ((ci, d), pool)) in img.cells.into_iter().zip(pools).enumerate() {
            for ji in &ci.jobs {
                job_cell.insert(ji.job.id, i);
                for t in &ji.tasks {
                    if t.status != TaskStatusImage::Completed {
                        task_cell.insert(t.id, i);
                    }
                }
            }
            rms.push(MrcpRm::restore(setup.mgr, pool, ci).map_err(io_invalid)?);
            dirty.push(d);
        }
        let mut fed = Federation::assemble(&setup.resources, rms);
        for (c, d) in fed.cells.iter_mut().zip(dirty) {
            c.dirty = d;
        }
        fed.task_cell = task_cell;
        fed.job_cell = job_cell;
        fed.metrics = img.metrics.into_owned();
        fed.max_fleet_depth = img.max_fleet_depth;
        fed.journal = Some(CellLogs::create(dir, cfg, &img.cell_seq)?);
        Ok(fed)
    }

    /// Through the real federation code, with the cell logs detached —
    /// the replay must not re-log what the disk already holds.
    fn replay(&mut self, ev: &ManagerEvent) {
        let journal = self.journal.take();
        apply_surface(self, ev);
        self.journal = journal;
    }

    fn own_logs(&mut self) -> &mut [EventLog] {
        match &mut self.journal {
            Some(j) => &mut j.logs,
            None => &mut [],
        }
    }

    /// The cell boundary outlives the manager process: each cell's
    /// endpoint (with its fault stream and outage state) and command
    /// sequence, the breakers, whether faults are injected at all, what
    /// the fleet audit has found so far, and the time of the latest
    /// command. Replay ran on fresh reliable endpoints (so it never
    /// audits) to re-derive the pre-crash state; the live fleet faces the
    /// same boundary the dead one did.
    fn take_over(&mut self, dead: Federation) {
        self.chaos_active = dead.chaos_active;
        self.clock = dead.clock;
        self.violations = dead.violations;
        self.health = dead.health;
        for (c, old) in self.cells.iter_mut().zip(dead.cells) {
            c.endpoint = old.endpoint;
            c.next_seq = old.next_seq;
        }
    }

    fn attach_telemetry(&mut self, tel: &telemetry::Telemetry) {
        self.set_telemetry(tel);
    }
}

/// Restore one cell from the fleet snapshot plus its own log, without
/// touching any other cell — the independent-recovery path. Returns the
/// recovered manager and how many logged events were replayed.
pub fn recover_cell(
    dir: &Path,
    cfg: StoreConfig,
    mgr_cfg: MrcpConfig,
    resources: &[Resource],
    cell: usize,
) -> io::Result<(MrcpRm, u64)> {
    let payload = read_blob(&snapshot_path(dir))?;
    let mut d = Dec::new(&payload);
    let _base = d.u64().map_err(io_invalid)?;
    let mut img = FederationImage::decode(&mut d).map_err(io_invalid)?;
    d.expect_end().map_err(io_invalid)?;
    let k = img.cells.len();
    if cell >= k {
        return Err(io_invalid(format!(
            "cell {cell} out of range (fleet has {k})"
        )));
    }
    let pool = shard(resources, k).swap_remove(cell);
    let (ci, _dirty) = img.cells.swap_remove(cell);
    let mut rm = MrcpRm::restore(mgr_cfg, pool, ci).map_err(io_invalid)?;
    let (_wal, records) = Wal::recover(&cell_wal_path(dir, cell), cfg.wal)?;
    let base = img.cell_seq[cell];
    let next = replay_indexed(&records, base, |ev| {
        apply(&mut rm, ev);
    });
    Ok((rm, next - base))
}

/// A [`Federation`] with a surface-command manifest, per-cell logs and
/// fleet snapshots underneath — the drop-in durable manager for
/// multi-cell runs. It is a `Durable<Federation>` behind a newtype only
/// because its constructor takes a [`ClusterConfig`], which the
/// `durability` crate cannot name.
#[derive(Debug)]
pub struct DurableFederation {
    core: Durable<Federation>,
}

impl DurableFederation {
    /// Build a federation with a fresh durable store rooted at `dir`.
    pub fn new(
        cluster_cfg: &ClusterConfig,
        mgr_cfg: MrcpConfig,
        resources: Vec<Resource>,
        dir: &Path,
        d_cfg: DurabilityConfig,
    ) -> DurableFederation {
        let mut fed = Federation::new(cluster_cfg, mgr_cfg, resources.clone());
        let logs = CellLogs::create(dir, d_cfg.store, &vec![0; fed.cells.len()])
            .unwrap_or_else(|e| panic!("durability: cannot create fleet store at {dir:?}: {e}"));
        fed.journal = Some(logs);
        let setup = FleetSetup {
            cluster: *cluster_cfg,
            mgr: mgr_cfg,
            resources,
        };
        DurableFederation {
            core: Durable::create(fed, setup, dir, d_cfg),
        }
    }

    /// The wrapped federation.
    pub fn federation(&self) -> &Federation {
        self.core.inner()
    }

    /// Attach live telemetry to the wrapped federation (see
    /// [`Federation::set_telemetry`]), every log's write path and the
    /// recovery path (see `durability::Durable::set_telemetry`).
    pub fn set_telemetry(&mut self, tel: &telemetry::Telemetry) {
        self.core.set_telemetry(tel);
    }

    /// Crashes survived so far.
    pub fn crashes(&self) -> u64 {
        self.core.crashes()
    }

    /// Wall time spent recovering, summed over every crash.
    pub fn recovery_time(&self) -> std::time::Duration {
        self.core.recovery_time()
    }

    /// Inject fault injection at the cell boundary (no-op when `chaos`
    /// is inactive). The dedup/WAL machinery underneath is unchanged:
    /// chaos decides *whether* a delivery lands, durability records what
    /// actually landed.
    pub fn enable_chaos(&mut self, chaos: &crate::chaos::ChaosConfig) {
        self.core.inner_mut().enable_chaos(chaos);
    }
}

/// Every command goes through the one durable surface,
/// `durability::Durable`'s.
impl ResourceManager for DurableFederation {
    fn submit_with_admission(
        &mut self,
        job: Job,
        now: SimTime,
    ) -> Result<AdmissionOutcome, ManagerError> {
        self.core.submit_with_admission(job, now)
    }

    fn submit_batch(
        &mut self,
        jobs: Vec<Job>,
        now: SimTime,
    ) -> Vec<Result<AdmissionOutcome, ManagerError>> {
        self.core.submit_batch(jobs, now)
    }

    fn activate_due(&mut self, now: SimTime) -> usize {
        self.core.activate_due(now)
    }

    fn reschedule(&mut self, now: SimTime) -> Vec<ScheduleEntry> {
        self.core.reschedule(now)
    }

    fn task_started(&mut self, task: TaskId, now: SimTime) -> Result<ResourceId, ManagerError> {
        self.core.task_started(task, now)
    }

    fn task_completed(
        &mut self,
        task: TaskId,
        now: SimTime,
    ) -> Result<Option<JobCompletion>, ManagerError> {
        self.core.task_completed(task, now)
    }

    fn task_duration_revised(
        &mut self,
        task: TaskId,
        new_exec: SimTime,
    ) -> Result<(), ManagerError> {
        self.core.task_duration_revised(task, new_exec)
    }

    fn task_failed(&mut self, task: TaskId, now: SimTime) -> Result<FailureAction, ManagerError> {
        self.core.task_failed(task, now)
    }

    fn resource_down(
        &mut self,
        rid: ResourceId,
        now: SimTime,
    ) -> Result<Vec<TaskId>, ManagerError> {
        self.core.resource_down(rid, now)
    }

    fn resource_up(&mut self, rid: ResourceId, now: SimTime) -> Result<(), ManagerError> {
        self.core.resource_up(rid, now)
    }

    fn jobs_in_system(&self) -> usize {
        self.core.jobs_in_system()
    }

    fn stats(&self) -> ManagerStats {
        self.core.stats()
    }

    fn crash_and_recover(&mut self, now: SimTime) -> bool {
        self.core.crash_and_recover(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use durability::codec::assert_roundtrip;
    use durability::snapshot::write_blob;
    use workload::model::homogeneous_cluster;

    /// A fresh fleet and one restored from a fresh fleet's image are the
    /// same fleet: same shards, same maps, same metrics, same breakers.
    #[test]
    fn new_equals_restore_from_a_fresh_image() {
        let resources = homogeneous_cluster(5, 2, 1);
        let setup = FleetSetup {
            cluster: ClusterConfig { cells: 3 },
            mgr: MrcpConfig::default(),
            resources: resources.clone(),
        };
        let fresh = Federation::new(&setup.cluster, setup.mgr, resources);
        let mut e = Enc::new();
        fresh.encode_state(&mut e);
        let payload = e.finish();
        let dir = durability::scratch_dir("fresh-image");
        let mut d = Dec::new(&payload);
        let restored = Federation::restore(&setup, &mut d, &dir, StoreConfig::default()).unwrap();
        d.expect_end().unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(fresh.cells.len(), 3);
        for (a, b) in fresh.cells.iter().zip(&restored.cells) {
            assert_eq!((a.id, a.dirty, a.next_seq), (b.id, b.dirty, b.next_seq));
            assert_eq!(a.rm.resources(), b.rm.resources());
            assert_eq!(a.rm.image(), b.rm.image());
        }
        assert_eq!(fresh.res_cell, restored.res_cell);
        assert_eq!(fresh.task_cell, restored.task_cell);
        assert_eq!(fresh.job_cell, restored.job_cell);
        assert_eq!(fresh.metrics, restored.metrics);
        assert_eq!(fresh.max_fleet_depth, restored.max_fleet_depth);
        assert_eq!(fresh.health, restored.health);
        assert_eq!(fresh.resources, restored.resources);
        assert_eq!(fresh.chaos_active, restored.chaos_active);
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
        }
    }

    /// A two-cell durable fleet that has routed and planned three jobs,
    /// its setup, and its store.
    fn busy_fleet(tag: &str) -> (DurableFederation, FleetSetup, PathBuf) {
        let setup = FleetSetup {
            cluster: ClusterConfig { cells: 2 },
            mgr: MrcpConfig::default(),
            resources: homogeneous_cluster(4, 2, 1),
        };
        let dir = durability::scratch_dir(tag);
        let mut fed = DurableFederation::new(
            &setup.cluster,
            setup.mgr,
            setup.resources.clone(),
            &dir,
            DurabilityConfig::default(),
        );
        let t = SimTime::from_millis(5);
        for r in fed.submit_batch(vec![job(1), job(2), job(3)], t) {
            r.unwrap();
        }
        fed.reschedule(t);
        (fed, setup, dir)
    }

    #[test]
    fn cluster_metrics_and_the_fleet_image_roundtrip() {
        let (fed, _, dir) = busy_fleet("fleet-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let mut e = Enc::new();
        fed.federation().encode_state(&mut e);
        let payload = e.finish();
        let img = FederationImage::decode(&mut Dec::new(&payload)).unwrap();
        assert_eq!(img.cells.len(), 2);
        assert!(img.cells.iter().any(|(c, _)| !c.jobs.is_empty()));
        assert_roundtrip(&img);

        let mut metrics = img.metrics.into_owned();
        assert_eq!(metrics.jobs_routed.iter().sum::<u64>(), 3);
        metrics.round_latencies_us.push(17);
        metrics.failover_latencies_ms = vec![1, 2];
        metrics.restore_latencies_ms = vec![3];
        metrics.max_cells_active = 2;
        metrics.rpc_timeouts = 9;
        assert_roundtrip(&metrics);
    }

    /// A CRC-valid fleet snapshot whose per-cell vectors are shorter than
    /// its cell list is refused as invalid data by both recovery paths —
    /// one cell's and the whole fleet's restore — instead of indexing
    /// past them.
    #[test]
    fn a_fleet_snapshot_with_disagreeing_lengths_is_refused() {
        type Rewrite = fn(&mut FederationImage<'static>);
        let rewrites: [(&str, Rewrite); 3] = [
            ("cell_seq", |img| img.cell_seq.truncate(1)),
            ("metrics.cells", |img| img.metrics.to_mut().cells = 1),
            ("metrics.jobs_routed", |img| {
                img.metrics.to_mut().jobs_routed.truncate(1)
            }),
        ];
        for (what, rewrite) in rewrites {
            let (fed, setup, dir) = busy_fleet("fleet-lengths");
            drop(fed);
            let path = snapshot_path(&dir);
            let payload = read_blob(&path).unwrap();
            let mut d = Dec::new(&payload);
            let base = d.u64().unwrap();
            let mut img = FederationImage::get(&mut d).unwrap();
            rewrite(&mut img);
            let mut e = Enc::new();
            e.u64(base);
            img.put(&mut e);
            write_blob(&path, &e.finish()).unwrap();

            let cfg = StoreConfig::default();
            let cell = recover_cell(&dir, cfg, setup.mgr, &setup.resources, 1);
            assert_eq!(
                cell.err().map(|e| e.kind()),
                Some(io::ErrorKind::InvalidData),
                "{what}: recover_cell"
            );
            let payload = read_blob(&path).unwrap();
            let mut d = Dec::new(&payload);
            d.u64().unwrap();
            let fleet = Federation::restore(&setup, &mut d, &dir, cfg);
            assert_eq!(
                fleet.err().map(|e| e.kind()),
                Some(io::ErrorKind::InvalidData),
                "{what}: Federation::restore"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

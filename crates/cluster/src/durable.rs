//! Durable federation state: per-cell WALs, a routing/rebalance
//! manifest, and atomic fleet snapshots — the multi-cell counterpart of
//! `durability::DurableRm`.
//!
//! ## Layout
//!
//! One store directory per federation:
//!
//! ```text
//! store/
//!   snapshot.bin    atomic fleet snapshot (manifest state + one
//!                   ManagerImage per cell + per-cell WAL positions)
//!   manifest.log    WAL of fleet-surface commands, plus the routing
//!                   (Routed) and rebalance (Migrated) decision records
//!   cell-<i>.wal    WAL of the requests cell i applied, post-routing:
//!                   one record per applied request (a batch routed to
//!                   the cell, a round, a task event, a migration step)
//! ```
//!
//! ## Two recovery granularities
//!
//! **Whole fleet** ([`DurableFederation::crash_and_recover`]): restore
//! every cell from the snapshot, then re-execute the manifest's surface
//! commands through the real federation code. Routing, rebalancing, and
//! the cluster metrics are deterministic functions of fleet state, so
//! the replay re-derives them exactly; the `Routed`/`Migrated` decision
//! records exist for audit and for cross-checking that determinism, not
//! because replay needs them.
//!
//! **One cell** ([`recover_cell`]): restore that cell's image from the
//! snapshot and replay only its own WAL — the post-routing event stream
//! — without touching the rest of the fleet. This is what keeps cells
//! *independently* recoverable: a cell's manager process can restart
//! without forcing a fleet-wide replay.
//!
//! Store I/O failures are fail-stop (a panic with a clear message), the
//! same policy as the single-manager layer: a durability layer that
//! silently drops records is worse than none.

use crate::federation::{ClusterConfig, ClusterSimConfig, Federation};
use crate::metrics::ClusterMetrics;
use crate::Cell;
use desim::SimTime;
use durability::codec::{Dec, DecodeError, Enc};
use durability::snapshot::{decode_image, encode_image, read_blob, write_blob};
use durability::{
    apply, apply_surface, indexed_event, replay_indexed, DurTel, DurabilityConfig, ManagerEvent,
    StoreConfig, Wal,
};
use mrcp::manager::{
    AdmissionOutcome, FailureAction, JobCompletion, ManagerError, ManagerStats, MrcpConfig,
    ScheduleEntry,
};
use mrcp::sim_driver::{simulate_with, JobOutcome, ResourceManager, RunMetrics};
use mrcp::{ManagerImage, MrcpRm, TaskStatusImage};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use workload::{Job, JobId, Resource, ResourceId, TaskId};

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.log")
}

fn cell_wal_path(dir: &Path, cell: usize) -> PathBuf {
    dir.join(format!("cell-{cell}.wal"))
}

fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.bin")
}

fn io_invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// One record in the federation manifest.
#[derive(Debug, Clone, PartialEq)]
pub enum FedRecord {
    /// A fleet-surface command, stamped with its global index.
    Cmd {
        /// Global command index (contiguous from 0 over the fleet's life).
        idx: u64,
        /// The command.
        ev: ManagerEvent,
    },
    /// Routing decision: where an admitted arrival went.
    Routed {
        /// The routed job.
        job: JobId,
        /// Destination cell.
        cell: u32,
        /// Whether the job spilled to the alternate cell.
        spilled: bool,
    },
    /// Rebalance decision: a planned-late job moved between cells.
    Migrated {
        /// The migrated job.
        job: JobId,
        /// Source cell.
        src: u32,
        /// Destination cell.
        dst: u32,
    },
}

impl FedRecord {
    fn encode(&self, e: &mut Enc) {
        match self {
            FedRecord::Cmd { idx, ev } => {
                e.u8(0);
                e.u64(*idx);
                ev.encode(e);
            }
            FedRecord::Routed { job, cell, spilled } => {
                e.u8(1);
                e.u32(job.0);
                e.u32(*cell);
                e.bool(*spilled);
            }
            FedRecord::Migrated { job, src, dst } => {
                e.u8(2);
                e.u32(job.0);
                e.u32(*src);
                e.u32(*dst);
            }
        }
    }

    fn decode(d: &mut Dec<'_>) -> Result<FedRecord, DecodeError> {
        Ok(match d.u8()? {
            0 => {
                let idx = d.u64()?;
                FedRecord::Cmd {
                    idx,
                    ev: ManagerEvent::decode(d)?,
                }
            }
            1 => FedRecord::Routed {
                job: JobId(d.u32()?),
                cell: d.u32()?,
                spilled: d.bool()?,
            },
            2 => FedRecord::Migrated {
                job: JobId(d.u32()?),
                src: d.u32()?,
                dst: d.u32()?,
            },
            _ => return Err(DecodeError("unknown manifest record tag")),
        })
    }
}

/// The open WAL set for one federation: the manifest plus one WAL per
/// cell. Owned by the [`Federation`] (as its `journal` field) so the
/// routing and rebalance paths can append decision and cell records
/// write-ahead of the state changes they describe.
/// WAL-path instruments for the fleet journal (DESIGN.md §5k), using
/// the same `durability_*` names as the single-manager store so a
/// scrape sees one write-path surface regardless of which layer runs
/// durable. Disabled until [`FedJournal::set_telemetry`].
#[derive(Debug)]
struct JTel {
    bus: telemetry::EventBus,
    /// `durability_wal_append_us` — wall latency of one WAL append
    /// (manifest and per-cell logs alike).
    wal_append_us: telemetry::Histogram,
    /// `durability_wal_appends_total` — records written ahead.
    wal_appends: telemetry::Counter,
    /// `durability_snapshots_total` — fleet checkpoints taken.
    snapshots: telemetry::Counter,
    /// `durability_wal_records` — surface commands since the last
    /// checkpoint: the snapshot age, i.e. the replay bound a crash
    /// right now would pay.
    wal_records: telemetry::Gauge,
}

impl JTel {
    fn new(tel: &telemetry::Telemetry) -> JTel {
        let reg = &tel.registry;
        JTel {
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

impl Default for JTel {
    fn default() -> JTel {
        JTel::new(&telemetry::Telemetry::disabled())
    }
}

#[derive(Debug)]
pub struct FedJournal {
    cfg: StoreConfig,
    /// Store directory — what [`recover_cell`] needs to rehydrate a
    /// crashed cell mid-run.
    dir: PathBuf,
    manifest: Wal,
    cells: Vec<Wal>,
    /// Per-cell event sequence numbers (monotonic over the fleet's
    /// life); the snapshot records the value each cell's image reflects.
    cell_seq: Vec<u64>,
    /// Global command index the current snapshot was taken at.
    base_idx: u64,
    /// Surface commands appended since the snapshot.
    cmds_since_snapshot: u64,
    tel: JTel,
    /// Simulated time of the last timed command logged, used to stamp
    /// checkpoint events (the journal itself has no clock).
    last_at_ms: i64,
}

impl FedJournal {
    fn create(dir: &Path, cfg: StoreConfig, k: usize) -> io::Result<FedJournal> {
        std::fs::create_dir_all(dir)?;
        let manifest = Wal::create(&manifest_path(dir), cfg.wal)?;
        let mut cells = Vec::with_capacity(k);
        for i in 0..k {
            cells.push(Wal::create(&cell_wal_path(dir, i), cfg.wal)?);
        }
        Ok(FedJournal {
            cfg,
            dir: dir.to_path_buf(),
            manifest,
            cells,
            cell_seq: vec![0; k],
            base_idx: 0,
            cmds_since_snapshot: 0,
            tel: JTel::default(),
            last_at_ms: 0,
        })
    }

    /// Attach live WAL/checkpoint instruments. Strictly observational;
    /// the on-disk format and behavior are unchanged.
    pub fn set_telemetry(&mut self, tel: &telemetry::Telemetry) {
        self.tel = JTel::new(tel);
        self.tel.wal_records.set(self.cmds_since_snapshot as i64);
    }

    /// The store directory this journal writes under.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// The store configuration (snapshot cadence + WAL settings).
    pub(crate) fn store_cfg(&self) -> StoreConfig {
        self.cfg
    }

    fn append_manifest(&mut self, rec: &FedRecord) {
        let mut e = Enc::new();
        rec.encode(&mut e);
        let t0 = std::time::Instant::now();
        self.manifest
            .append(&e.finish())
            .unwrap_or_else(|e| panic!("durability: manifest append failed: {e}"));
        self.tel
            .wal_append_us
            .record(t0.elapsed().as_micros() as u64);
        self.tel.wal_appends.inc();
    }

    /// Log a fleet-surface command (write-ahead of its execution).
    /// Returns the command's global index.
    pub fn log_cmd(&mut self, ev: &ManagerEvent) -> u64 {
        if let Some(now) = ev.time() {
            self.last_at_ms = now.as_millis();
        }
        let idx = self.base_idx + self.cmds_since_snapshot;
        self.append_manifest(&FedRecord::Cmd {
            idx,
            ev: ev.clone(),
        });
        self.cmds_since_snapshot += 1;
        self.tel.wal_records.set(self.cmds_since_snapshot as i64);
        idx
    }

    /// Log a routing decision.
    pub fn routed(&mut self, job: JobId, cell: usize, spilled: bool) {
        self.append_manifest(&FedRecord::Routed {
            job,
            cell: cell as u32,
            spilled,
        });
    }

    /// Log a rebalance migration.
    pub fn migrated(&mut self, job: JobId, src: usize, dst: usize) {
        self.append_manifest(&FedRecord::Migrated {
            job,
            src: src as u32,
            dst: dst as u32,
        });
    }

    /// Log one event to `cell`'s own WAL (write-ahead of applying it to
    /// the cell's manager).
    pub fn cell_event(&mut self, cell: usize, ev: &ManagerEvent) {
        if let Some(now) = ev.time() {
            self.last_at_ms = now.as_millis();
        }
        let mut e = Enc::new();
        e.u64(self.cell_seq[cell]);
        ev.encode(&mut e);
        let t0 = std::time::Instant::now();
        self.cells[cell]
            .append(&e.finish())
            .unwrap_or_else(|e| panic!("durability: cell-{cell} WAL append failed: {e}"));
        self.tel
            .wal_append_us
            .record(t0.elapsed().as_micros() as u64);
        self.tel.wal_appends.inc();
        self.cell_seq[cell] += 1;
    }

    /// Record a checkpoint on the instruments: called right before this
    /// journal is replaced by a fresh one at `base`.
    fn note_checkpoint(&self, base: u64) {
        self.tel.snapshots.inc();
        self.tel.wal_records.set(0);
        self.tel.bus.publish(telemetry::Event {
            at_ms: self.last_at_ms,
            kind: telemetry::EventKind::WalCheckpoint,
            cell: None,
            job: None,
            detail: format!(
                "base_idx {base}, {} records truncated",
                self.cmds_since_snapshot
            ),
        });
    }

    /// Commands the snapshot does not yet cover.
    pub fn cmds_since_snapshot(&self) -> u64 {
        self.cmds_since_snapshot
    }

    /// Byte length of each log's durable prefix, `(manifest, cells)` —
    /// what survives a power-losing crash.
    fn synced_lens(&self) -> (u64, Vec<u64>) {
        (
            self.manifest.synced_len(),
            self.cells.iter().map(Wal::synced_len).collect(),
        )
    }
}

/// Everything mutable about a [`Federation`], as plain data: the
/// per-cell manager images and dirty flags, the cluster metrics, and the
/// fleet-depth high-water mark (the maps are rebuilt from the images;
/// the resource→cell map is a pure function of the construction inputs).
#[derive(Debug, Clone, PartialEq)]
struct FederationImage {
    cells: Vec<(ManagerImage, bool)>,
    cell_seq: Vec<u64>,
    metrics: ClusterMetrics,
    max_fleet_depth: usize,
}

fn encode_u64s(e: &mut Enc, vs: &[u64]) {
    e.u64(vs.len() as u64);
    for &v in vs {
        e.u64(v);
    }
}

fn decode_u64s(d: &mut Dec<'_>) -> Result<Vec<u64>, DecodeError> {
    let n = d.seq_len()?;
    let mut vs = Vec::with_capacity(n);
    for _ in 0..n {
        vs.push(d.u64()?);
    }
    Ok(vs)
}

fn encode_metrics(e: &mut Enc, m: &ClusterMetrics) {
    let ClusterMetrics {
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
    } = m;
    e.usize(*cells);
    encode_u64s(e, jobs_routed);
    e.u64(*spills);
    e.u64(*migrations);
    e.u64(*migration_probes);
    e.u64(*rounds);
    encode_u64s(e, round_latencies_us);
    e.usize(*max_cells_active);
    e.u64(*rpc_commands);
    e.u64(*rpc_attempts);
    e.u64(*rpc_retries);
    e.u64(*rpc_drops);
    e.u64(*rpc_timeouts);
    e.u64(*rpc_dedup_hits);
    e.u64(*rpc_escalations);
    e.u64(*rpc_latency_ms_total);
    e.u64(*reroutes);
    e.u64(*cell_crashes);
    e.u64(*cell_restores);
    e.u64(*rehydrations);
    e.u64(*rehydrate_mismatches);
    e.u64(*failovers);
    encode_u64s(e, failover_latencies_ms);
    encode_u64s(e, restore_latencies_ms);
}

fn decode_metrics(d: &mut Dec<'_>) -> Result<ClusterMetrics, DecodeError> {
    let cells = d.usize()?;
    let jobs_routed = decode_u64s(d)?;
    let spills = d.u64()?;
    let migrations = d.u64()?;
    let migration_probes = d.u64()?;
    let rounds = d.u64()?;
    let round_latencies_us = decode_u64s(d)?;
    let max_cells_active = d.usize()?;
    let rpc_commands = d.u64()?;
    let rpc_attempts = d.u64()?;
    let rpc_retries = d.u64()?;
    let rpc_drops = d.u64()?;
    let rpc_timeouts = d.u64()?;
    let rpc_dedup_hits = d.u64()?;
    let rpc_escalations = d.u64()?;
    let rpc_latency_ms_total = d.u64()?;
    let reroutes = d.u64()?;
    let cell_crashes = d.u64()?;
    let cell_restores = d.u64()?;
    let rehydrations = d.u64()?;
    let rehydrate_mismatches = d.u64()?;
    let failovers = d.u64()?;
    let failover_latencies_ms = decode_u64s(d)?;
    let restore_latencies_ms = decode_u64s(d)?;
    Ok(ClusterMetrics {
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
    })
}

fn encode_fed_snapshot(base_idx: u64, img: &FederationImage) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(base_idx);
    e.u64(img.cells.len() as u64);
    for (ci, dirty) in &img.cells {
        encode_image(&mut e, ci);
        e.bool(*dirty);
    }
    e.u64(img.cell_seq.len() as u64);
    for &s in &img.cell_seq {
        e.u64(s);
    }
    encode_metrics(&mut e, &img.metrics);
    e.usize(img.max_fleet_depth);
    e.finish()
}

fn decode_fed_snapshot(payload: &[u8]) -> Result<(u64, FederationImage), DecodeError> {
    let mut d = Dec::new(payload);
    let base = d.u64()?;
    let n = d.seq_len()?;
    let mut cells = Vec::with_capacity(n);
    for _ in 0..n {
        let img = decode_image(&mut d)?;
        let dirty = d.bool()?;
        cells.push((img, dirty));
    }
    let n = d.seq_len()?;
    let mut cell_seq = Vec::with_capacity(n);
    for _ in 0..n {
        cell_seq.push(d.u64()?);
    }
    let metrics = decode_metrics(&mut d)?;
    let max_fleet_depth = d.usize()?;
    d.expect_end()?;
    Ok((
        base,
        FederationImage {
            cells,
            cell_seq,
            metrics,
            max_fleet_depth,
        },
    ))
}

/// Deal `resources` round-robin into `k` pools — must match
/// [`Federation::new`] exactly so a restored fleet owns the same shards.
fn shard(resources: &[Resource], k: usize) -> Vec<Vec<Resource>> {
    let mut pools: Vec<Vec<Resource>> = vec![Vec::new(); k];
    for (i, r) in resources.iter().enumerate() {
        pools[i % k].push(*r);
    }
    pools
}

fn fed_image(fed: &Federation) -> FederationImage {
    FederationImage {
        cells: fed.cells.iter().map(|c| (c.rm.image(), c.dirty)).collect(),
        cell_seq: fed
            .journal
            .as_ref()
            .map(|j| j.cell_seq.clone())
            .unwrap_or_else(|| vec![0; fed.cells.len()]),
        metrics: fed.metrics.clone(),
        max_fleet_depth: fed.max_fleet_depth,
    }
}

/// Rebuild a [`Federation`] (journal detached) from a snapshot image.
fn restore_federation(
    cluster_cfg: &ClusterConfig,
    mgr_cfg: MrcpConfig,
    resources: &[Resource],
    img: &FederationImage,
) -> io::Result<Federation> {
    let k = img.cells.len();
    let expected_k = cluster_cfg.cells.clamp(1, resources.len().max(1));
    if k != expected_k {
        return Err(io_invalid(format!(
            "snapshot has {k} cells but the configuration shards into {expected_k}"
        )));
    }
    let pools = shard(resources, k);
    let mut res_cell = HashMap::new();
    for (i, r) in resources.iter().enumerate() {
        res_cell.insert(r.id, i % k);
    }
    let mut cells = Vec::with_capacity(k);
    let mut task_cell: HashMap<TaskId, usize> = HashMap::new();
    let mut job_cell: HashMap<JobId, usize> = HashMap::new();
    for (i, ((ci, dirty), pool)) in img.cells.iter().zip(pools).enumerate() {
        for ji in &ci.jobs {
            job_cell.insert(ji.job.id, i);
            for t in &ji.tasks {
                if t.status != TaskStatusImage::Completed {
                    task_cell.insert(t.id, i);
                }
            }
        }
        let rm = MrcpRm::restore(mgr_cfg, pool, ci.clone()).map_err(io_invalid)?;
        let mut cell = Cell::new(i, rm);
        cell.dirty = *dirty;
        cells.push(cell);
    }
    let health =
        vec![crate::health::CellHealth::new(crate::health::HealthConfig::default()); cells.len()];
    Ok(Federation {
        cells,
        rebalance: cluster_cfg.rebalance,
        base_workers: mgr_cfg.budget.workers.max(1),
        res_cell,
        task_cell,
        job_cell,
        metrics: img.metrics.clone(),
        max_fleet_depth: img.max_fleet_depth,
        journal: None,
        last_error: None,
        resources: resources.to_vec(),
        chaos_active: false,
        retry: crate::endpoint::RetryPolicy::default(),
        health,
        tel: super::federation::FedTel::disabled(k),
        base_tel: telemetry::Telemetry::disabled(),
    })
}

/// Restore one cell from the fleet snapshot plus its own WAL, without
/// touching any other cell — the independent-recovery path. Returns the
/// recovered manager and how many WAL events were replayed.
pub fn recover_cell(
    dir: &Path,
    cfg: StoreConfig,
    mgr_cfg: MrcpConfig,
    resources: &[Resource],
    cell: usize,
) -> io::Result<(MrcpRm, u64)> {
    let payload = read_blob(&snapshot_path(dir))?;
    let (_base, img) = decode_fed_snapshot(&payload).map_err(io_invalid)?;
    let k = img.cells.len();
    if cell >= k {
        return Err(io_invalid(format!(
            "cell {cell} out of range (fleet has {k})"
        )));
    }
    let pool = shard(resources, k).swap_remove(cell);
    let (ci, _dirty) = &img.cells[cell];
    let mut rm = MrcpRm::restore(mgr_cfg, pool, ci.clone()).map_err(io_invalid)?;
    let (_wal, records) = Wal::recover(&cell_wal_path(dir, cell), cfg.wal)?;
    let base = img.cell_seq[cell];
    let next = replay_indexed(&records, base, indexed_event, |ev| {
        apply(&mut rm, ev);
    });
    Ok((rm, next - base))
}

/// A [`Federation`] with per-cell WALs, a routing/rebalance manifest,
/// and fleet snapshots underneath — the drop-in durable manager for
/// multi-cell runs.
#[derive(Debug)]
pub struct DurableFederation {
    fed: Federation,
    dir: PathBuf,
    d_cfg: DurabilityConfig,
    cluster_cfg: ClusterConfig,
    mgr_cfg: MrcpConfig,
    resources: Vec<Resource>,
    /// The full surface-command history (the stand-in for clients that
    /// retry commands the fleet never acknowledged).
    client_log: Vec<ManagerEvent>,
    crashes: u64,
    /// Wall time spent inside recoveries, summed over every crash.
    recovery_time: std::time::Duration,
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
        let k = fed.cells.len();
        let mut journal = FedJournal::create(dir, d_cfg.store, k)
            .unwrap_or_else(|e| panic!("durability: cannot create fleet store at {dir:?}: {e}"));
        // Initial snapshot: the empty fleet at command index 0.
        write_blob(
            &snapshot_path(dir),
            &encode_fed_snapshot(0, &fed_image(&fed)),
        )
        .unwrap_or_else(|e| panic!("durability: initial fleet snapshot failed: {e}"));
        journal.base_idx = 0;
        fed.journal = Some(journal);
        DurableFederation {
            fed,
            dir: dir.to_path_buf(),
            d_cfg,
            cluster_cfg: *cluster_cfg,
            mgr_cfg,
            resources,
            client_log: Vec::new(),
            crashes: 0,
            recovery_time: std::time::Duration::ZERO,
        }
    }

    /// The wrapped federation.
    pub fn federation(&self) -> &Federation {
        &self.fed
    }

    /// Attach live telemetry to the wrapped federation (see
    /// [`Federation::set_telemetry`]) and to the fleet journal's WAL
    /// write path. The attachment survives checkpoints and full-fleet
    /// crash recovery: rebuilt journals and federations are re-wired,
    /// and counters stay cumulative because the registry hands back the
    /// same cells for the same instrument keys.
    pub fn set_telemetry(&mut self, tel: &telemetry::Telemetry) {
        self.fed.set_telemetry(tel);
        if let Some(j) = self.fed.journal.as_mut() {
            j.set_telemetry(tel);
        }
    }

    /// Crashes survived so far.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Wall time spent recovering, summed over every crash.
    pub fn recovery_time(&self) -> std::time::Duration {
        self.recovery_time
    }

    /// Inject fault injection at the cell boundary (no-op when `chaos`
    /// is inactive). The dedup/WAL machinery underneath is unchanged:
    /// chaos decides *whether* a delivery lands, durability records what
    /// actually landed.
    pub fn enable_chaos(
        &mut self,
        chaos: &crate::chaos::ChaosConfig,
        retry: crate::endpoint::RetryPolicy,
        health: crate::health::HealthConfig,
    ) {
        self.fed.enable_chaos(chaos, retry, health);
    }

    /// Unwrap the inner federation (detaching the durable shell) for
    /// post-run inspection.
    pub fn into_federation(self) -> Federation {
        self.fed
    }

    /// The journal is invariantly present on a durable federation; its
    /// absence is an internal inconsistency recorded as a typed error in
    /// the federation's `last_error` (and `None` here), not a panic.
    fn journal_mut(&mut self) -> Option<&mut FedJournal> {
        if self.fed.journal.is_none() {
            let e = ManagerError::Inconsistent("durable federation lost its journal");
            debug_assert!(false, "{e}");
            self.fed.last_error = Some(e);
        }
        self.fed.journal.as_mut()
    }

    /// The write-ahead order, in one place: log `ev` to the manifest, run
    /// `call` on the federation, then snapshot the fleet (and reset every
    /// WAL) once enough commands have accumulated.
    fn logged<T>(&mut self, ev: ManagerEvent, call: impl FnOnce(&mut Federation) -> T) -> T {
        if let Some(j) = self.journal_mut() {
            j.log_cmd(&ev);
        }
        self.client_log.push(ev);
        let out = call(&mut self.fed);
        let due = self
            .journal_mut()
            .is_some_and(|j| j.cmds_since_snapshot() >= j.cfg.snapshot_every.max(1));
        if due {
            self.checkpoint();
        }
        out
    }

    fn checkpoint(&mut self) {
        let Some(j) = self.journal_mut() else {
            return;
        };
        let (base, seq) = (j.base_idx + j.cmds_since_snapshot, j.cell_seq.clone());
        write_blob(
            &snapshot_path(&self.dir),
            &encode_fed_snapshot(base, &fed_image(&self.fed)),
        )
        .unwrap_or_else(|e| panic!("durability: fleet snapshot failed: {e}"));
        if let Some(j) = self.fed.journal.as_ref() {
            j.note_checkpoint(base);
        }
        let k = self.fed.cells.len();
        let cfg = self.d_cfg.store;
        let mut journal = FedJournal::create(&self.dir, cfg, k)
            .unwrap_or_else(|e| panic!("durability: WAL reset failed: {e}"));
        journal.base_idx = base;
        journal.cell_seq = seq;
        journal.set_telemetry(&self.fed.base_tel);
        self.fed.journal = Some(journal);
    }
}

impl ResourceManager for DurableFederation {
    fn submit_with_admission(
        &mut self,
        job: Job,
        now: SimTime,
    ) -> Result<AdmissionOutcome, ManagerError> {
        let ev = ManagerEvent::SubmitWithAdmission {
            job: job.clone(),
            now,
        };
        self.logged(ev, |f| f.submit_with_admission(job, now))
    }

    fn submit_batch(
        &mut self,
        jobs: Vec<Job>,
        now: SimTime,
    ) -> Vec<Result<AdmissionOutcome, ManagerError>> {
        // One manifest record for the whole burst: the federation routes a
        // batch against a single load snapshot, so replay must re-present
        // it as a batch — decomposing into singleton submits would replay
        // with different (sequential) routing decisions.
        let ev = ManagerEvent::SubmitBatch {
            jobs: jobs.clone(),
            now,
        };
        self.logged(ev, |f| f.submit_batch(jobs, now))
    }

    fn activate_due(&mut self, now: SimTime) -> usize {
        self.logged(ManagerEvent::ActivateDue { now }, |f| f.activate_due(now))
    }

    fn reschedule(&mut self, now: SimTime) -> Vec<ScheduleEntry> {
        self.logged(ManagerEvent::Reschedule { now }, |f| f.reschedule(now))
    }

    fn task_started(&mut self, task: TaskId, now: SimTime) -> Result<ResourceId, ManagerError> {
        self.logged(ManagerEvent::TaskStarted { task, now }, |f| {
            f.task_started(task, now)
        })
    }

    fn task_completed(
        &mut self,
        task: TaskId,
        now: SimTime,
    ) -> Result<Option<JobCompletion>, ManagerError> {
        self.logged(ManagerEvent::TaskCompleted { task, now }, |f| {
            f.task_completed(task, now)
        })
    }

    fn task_duration_revised(
        &mut self,
        task: TaskId,
        new_exec: SimTime,
    ) -> Result<(), ManagerError> {
        self.logged(ManagerEvent::TaskDurationRevised { task, new_exec }, |f| {
            f.task_duration_revised(task, new_exec)
        })
    }

    fn task_failed(&mut self, task: TaskId, now: SimTime) -> Result<FailureAction, ManagerError> {
        self.logged(ManagerEvent::TaskFailed { task, now }, |f| {
            f.task_failed(task, now)
        })
    }

    fn resource_down(
        &mut self,
        rid: ResourceId,
        now: SimTime,
    ) -> Result<Vec<TaskId>, ManagerError> {
        self.logged(ManagerEvent::ResourceDown { resource: rid, now }, |f| {
            f.resource_down(rid, now)
        })
    }

    fn resource_up(&mut self, rid: ResourceId, now: SimTime) -> Result<(), ManagerError> {
        self.logged(ManagerEvent::ResourceUp { resource: rid, now }, |f| {
            f.resource_up(rid, now)
        })
    }

    fn jobs_in_system(&self) -> usize {
        self.fed.jobs_in_system()
    }

    fn stats(&self) -> ManagerStats {
        self.fed.stats()
    }

    fn crash_and_recover(&mut self, now: SimTime) -> bool {
        let t0 = std::time::Instant::now();
        // 1. Fail-stop: under power-loss semantics, unsynced log tails
        //    die with the process.
        if self.d_cfg.lose_unsynced_on_crash {
            let lens = self.journal_mut().map(|j| j.synced_lens());
            if let Some((manifest_synced, cell_synced)) = lens {
                Wal::drop_unsynced(&manifest_path(&self.dir), manifest_synced)
                    .unwrap_or_else(|e| panic!("durability: manifest truncation failed: {e}"));
                for (i, synced) in cell_synced.iter().enumerate() {
                    Wal::drop_unsynced(&cell_wal_path(&self.dir, i), *synced)
                        .unwrap_or_else(|e| panic!("durability: cell-{i} truncation failed: {e}"));
                }
            }
        }
        // 2. Restart: restore every cell from the snapshot, then replay
        //    the manifest's surviving surface commands through the real
        //    federation code (journal detached — the replay must not
        //    re-log what the disk already holds).
        let payload = read_blob(&snapshot_path(&self.dir))
            .unwrap_or_else(|e| panic!("durability: fleet snapshot unreadable: {e}"));
        let (base, img) = decode_fed_snapshot(&payload)
            .unwrap_or_else(|e| panic!("durability: fleet snapshot corrupt: {e}"));
        let mut fed = restore_federation(&self.cluster_cfg, self.mgr_cfg, &self.resources, &img)
            .unwrap_or_else(|e| panic!("durability: fleet restore failed: {e}"));
        let (_wal, records) = Wal::recover(&manifest_path(&self.dir), self.d_cfg.store.wal)
            .unwrap_or_else(|e| panic!("durability: manifest recovery failed: {e}"));
        drop(_wal);
        // Decision records are audit data, not replay input.
        let cmd = |d: &mut Dec<'_>| {
            Ok(match FedRecord::decode(d)? {
                FedRecord::Cmd { idx, ev } => Some((idx, ev)),
                FedRecord::Routed { .. } | FedRecord::Migrated { .. } => None,
            })
        };
        let next = replay_indexed(&records, base, cmd, |ev| {
            apply_surface(&mut fed, ev);
        });
        // 3. Client re-delivery: re-apply every command the disk did not
        //    know about.
        for i in next as usize..self.client_log.len() {
            let ev = self.client_log[i].clone();
            apply_surface(&mut fed, &ev);
        }
        // Replay ran with instruments detached (it must not double-count
        // live metrics); re-attach the rebuilt fleet before it goes live.
        let base_tel = self.fed.base_tel.clone();
        self.fed = fed;
        self.fed.set_telemetry(&base_tel);
        // 4. Checkpoint the recovered fleet and reopen clean logs.
        let k = self.fed.cells.len();
        let mut journal = FedJournal::create(&self.dir, self.d_cfg.store, k)
            .unwrap_or_else(|e| panic!("durability: post-recovery WAL reset failed: {e}"));
        journal.base_idx = self.client_log.len() as u64;
        journal.cell_seq = img.cell_seq.clone();
        journal.set_telemetry(&base_tel);
        self.fed.journal = Some(journal);
        self.checkpoint();
        self.crashes += 1;
        self.recovery_time += t0.elapsed();
        DurTel::new(&base_tel).record(now, next - base, self.client_log.len() as u64, t0.elapsed());
        true
    }
}

/// Run the full simulation against a [`DurableFederation`] rooted at
/// `dir`, returning the paper's metrics plus the federation counters.
pub fn simulate_cluster_durable(
    cfg: &ClusterSimConfig,
    resources: &[Resource],
    jobs: Vec<Job>,
    dir: &Path,
    durability: DurabilityConfig,
) -> (RunMetrics, Vec<JobOutcome>, DurableFederation) {
    simulate_with(&cfg.sim, resources, jobs, |mgr_cfg: MrcpConfig| {
        DurableFederation::new(&cfg.cluster, mgr_cfg, resources.to_vec(), dir, durability)
    })
}

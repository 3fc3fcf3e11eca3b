//! The per-manager durable store: one directory holding the current
//! snapshot (`snapshot.bin`) and the command WAL (`wal.log`).
//!
//! Every WAL record payload is `[cmd_idx u64][encoded ManagerEvent]`.
//! Command indices are global and monotonic across the manager's life;
//! the snapshot records the index it was taken at (`base_idx`), so
//! recovery is: restore the snapshot image, then replay only WAL records
//! with `idx >= base_idx` in contiguous order. Records below the base
//! (possible when a crash lands between snapshot rename and WAL reset)
//! are skipped; a gap or out-of-order index means the log's tail cannot
//! be trusted and replay stops there — never a panic.

use crate::codec::{Dec, DecodeError, Enc};
use crate::event::{apply, ManagerEvent};
use crate::snapshot::{decode_manager_snapshot, encode_manager_snapshot, read_blob, write_blob};
use crate::wal::{Wal, WalConfig};
use mrcp::manager::{ManagerError, MrcpConfig};
use mrcp::MrcpRm;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::Resource;

/// Instruments for the store's write path (DESIGN.md §5k). Disabled by
/// default; [`ManagerStore::set_telemetry`] swaps in live cells.
#[derive(Debug)]
struct StoreTel {
    bus: telemetry::EventBus,
    /// `durability_wal_append_us` — wall latency of one WAL append.
    wal_append_us: telemetry::Histogram,
    /// `durability_wal_appends_total` — commands written ahead.
    wal_appends: telemetry::Counter,
    /// `durability_snapshots_total` — checkpoints taken.
    snapshots: telemetry::Counter,
    /// `durability_wal_records` — commands logged since the last
    /// checkpoint: the snapshot age in commands, i.e. the replay bound
    /// a crash right now would pay.
    wal_records: telemetry::Gauge,
}

impl StoreTel {
    fn new(tel: &telemetry::Telemetry) -> StoreTel {
        let reg = &tel.registry;
        StoreTel {
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

impl Default for StoreTel {
    fn default() -> StoreTel {
        StoreTel::new(&telemetry::Telemetry::disabled())
    }
}

/// Store knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Take a fresh snapshot (and reset the WAL) once this many commands
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

/// An open durable store for one [`MrcpRm`].
#[derive(Debug)]
pub struct ManagerStore {
    dir: PathBuf,
    cfg: StoreConfig,
    wal: Wal,
    /// Command index the current snapshot was taken at.
    base_idx: u64,
    tel: StoreTel,
    /// Simulated time of the last timed command appended, used to stamp
    /// checkpoint events (the store itself has no clock).
    last_at_ms: i64,
}

/// Decode one `[idx u64][encoded ManagerEvent]` record — the format of
/// this store's WAL and of every federation cell WAL — for
/// [`replay_indexed`].
pub fn indexed_event(d: &mut Dec<'_>) -> Result<Option<(u64, ManagerEvent)>, DecodeError> {
    Ok(Some((d.u64()?, ManagerEvent::decode(d)?)))
}

/// Replay the trustworthy prefix of an indexed command log. `decode`
/// reads one record (`Ok(None)`: a well-formed record that is not replay
/// input); commands indexed below `next` predate the snapshot and are
/// skipped; each contiguous command is handed to `apply`. Replay stops —
/// never panics — at the first undecodable record, record with trailing
/// bytes, or index gap, because past any of those the tail cannot be
/// trusted. Returns the index after the last command applied.
pub fn replay_indexed(
    records: &[Vec<u8>],
    mut next: u64,
    decode: impl Fn(&mut Dec<'_>) -> Result<Option<(u64, ManagerEvent)>, DecodeError>,
    mut apply: impl FnMut(&ManagerEvent),
) -> u64 {
    for payload in records {
        let mut d = Dec::new(payload);
        let Ok(rec) = decode(&mut d) else { break };
        if d.expect_end().is_err() {
            break;
        }
        let Some((idx, ev)) = rec else { continue };
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

fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.bin")
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

impl ManagerStore {
    /// Initialise a store at `dir` (created if missing) with a snapshot
    /// of the manager's current state as command index 0.
    pub fn create(dir: &Path, cfg: StoreConfig, rm: &MrcpRm) -> io::Result<ManagerStore> {
        std::fs::create_dir_all(dir)?;
        write_blob(
            &snapshot_path(dir),
            &encode_manager_snapshot(0, &rm.image()),
        )?;
        let wal = Wal::create(&wal_path(dir), cfg.wal)?;
        Ok(ManagerStore {
            dir: dir.to_path_buf(),
            cfg,
            wal,
            base_idx: 0,
            tel: StoreTel::default(),
            last_at_ms: 0,
        })
    }

    /// Attach live instruments (WAL append latency, checkpoint counter,
    /// replay-bound gauge). Telemetry is strictly observational; the
    /// store's on-disk format and behavior are unchanged.
    pub fn set_telemetry(&mut self, tel: &telemetry::Telemetry) {
        self.tel = StoreTel::new(tel);
        self.tel.wal_records.set(self.wal.records() as i64);
    }

    /// The command index the next [`append`](Self::append) will be
    /// stamped with.
    pub fn next_idx(&self) -> u64 {
        self.base_idx + self.wal.records()
    }

    /// Append one command to the WAL (write-ahead: call this *before*
    /// applying the command to the manager).
    pub fn append(&mut self, ev: &ManagerEvent) -> io::Result<()> {
        if let Some(now) = ev.time() {
            self.last_at_ms = now.as_millis();
        }
        let mut e = Enc::new();
        e.u64(self.next_idx());
        ev.encode(&mut e);
        let t0 = Instant::now();
        let out = self.wal.append(&e.finish());
        self.tel
            .wal_append_us
            .record(t0.elapsed().as_micros() as u64);
        self.tel.wal_appends.inc();
        self.tel.wal_records.set(self.wal.records() as i64);
        out
    }

    /// Snapshot now if the WAL has grown past the configured bound.
    /// `rm` must reflect every appended command.
    pub fn maybe_snapshot(&mut self, rm: &MrcpRm) -> io::Result<()> {
        if self.wal.records() >= self.cfg.snapshot_every.max(1) {
            self.checkpoint(rm)?;
        }
        Ok(())
    }

    /// Force a snapshot at the current command index and reset the WAL.
    pub fn checkpoint(&mut self, rm: &MrcpRm) -> io::Result<()> {
        let base = self.next_idx();
        let truncated = self.wal.records();
        write_blob(
            &snapshot_path(&self.dir),
            &encode_manager_snapshot(base, &rm.image()),
        )?;
        self.base_idx = base;
        self.wal = Wal::create(&wal_path(&self.dir), self.cfg.wal)?;
        self.tel.snapshots.inc();
        self.tel.wal_records.set(0);
        self.tel.bus.publish(telemetry::Event {
            at_ms: self.last_at_ms,
            kind: telemetry::EventKind::WalCheckpoint,
            cell: None,
            job: None,
            detail: format!("base_idx {base}, {truncated} records truncated"),
        });
        Ok(())
    }

    /// Byte length of the WAL's durable prefix (see [`Wal::synced_len`]).
    pub fn wal_synced_len(&self) -> u64 {
        self.wal.synced_len()
    }

    /// Simulate power loss on the WAL file at `dir`: drop every byte past
    /// `synced_len`. Call after dropping the open store, before
    /// [`recover`](Self::recover).
    pub fn simulate_power_loss(dir: &Path, synced_len: u64) -> io::Result<()> {
        Wal::drop_unsynced(&wal_path(dir), synced_len)
    }

    /// Rebuild the manager from disk: snapshot + bounded replay of the
    /// WAL's longest valid prefix. Returns the reopened store, the
    /// recovered manager, and the number of commands the recovered state
    /// reflects (commands at or past that index were lost and must be
    /// re-delivered by the client). Finishes with a checkpoint so the
    /// recovered state is itself durable before new commands arrive.
    pub fn recover(
        dir: &Path,
        cfg: StoreConfig,
        mgr_cfg: MrcpConfig,
        resources: Vec<Resource>,
    ) -> io::Result<(ManagerStore, MrcpRm, u64)> {
        let payload = read_blob(&snapshot_path(dir))?;
        let (base, image) = decode_manager_snapshot(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let mut rm = MrcpRm::restore(mgr_cfg, resources, image)
            .map_err(|e: ManagerError| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let (_wal, records) = Wal::recover(&wal_path(dir), cfg.wal)?;
        let next = replay_indexed(&records, base, indexed_event, |ev| {
            apply(&mut rm, ev);
        });
        drop(_wal);
        // Make the recovered state durable and start a clean log.
        let mut store = ManagerStore {
            dir: dir.to_path_buf(),
            cfg,
            // Placeholder; checkpoint() replaces it immediately.
            wal: Wal::create(&wal_path(dir), cfg.wal)?,
            base_idx: next,
            tel: StoreTel::default(),
            last_at_ms: 0,
        };
        store.checkpoint(&rm)?;
        Ok((store, rm, next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimTime;
    use workload::{model::homogeneous_cluster, Job, JobId, Task, TaskId, TaskKind};

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mrcp-store-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

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
            precedences: vec![],
        }
    }

    #[test]
    fn snapshot_plus_replay_rebuilds_the_manager() {
        let dir = tmp("replay");
        let resources = homogeneous_cluster(4, 2, 2);
        let cfg = MrcpConfig::default();
        let mut rm = MrcpRm::new(cfg, resources.clone());
        let mut store = ManagerStore::create(&dir, StoreConfig::default(), &rm).unwrap();

        let events = vec![
            ManagerEvent::SubmitWithAdmission {
                job: job(1),
                now: SimTime::ZERO,
            },
            ManagerEvent::SubmitWithAdmission {
                job: job(2),
                now: SimTime::from_millis(5),
            },
            ManagerEvent::Reschedule {
                now: SimTime::from_millis(5),
            },
        ];
        for ev in &events {
            store.append(ev).unwrap();
            apply(&mut rm, ev);
            store.maybe_snapshot(&rm).unwrap();
        }
        drop(store);

        let (_store, recovered, n) =
            ManagerStore::recover(&dir, StoreConfig::default(), cfg, resources).unwrap();
        assert_eq!(n, 3);
        let mut a = rm.image();
        let mut b = recovered.image();
        // Replay re-runs the solver, so wall-clock stats legitimately
        // differ; everything else must be bit-exact.
        a.stats.total_solve = std::time::Duration::ZERO;
        a.stats.max_round_solve = std::time::Duration::ZERO;
        b.stats.total_solve = std::time::Duration::ZERO;
        b.stats.max_round_solve = std::time::Duration::ZERO;
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_bound_resets_the_wal() {
        let dir = tmp("bound");
        let resources = homogeneous_cluster(4, 2, 2);
        let cfg = MrcpConfig::default();
        let mut rm = MrcpRm::new(cfg, resources.clone());
        let store_cfg = StoreConfig {
            snapshot_every: 2,
            ..StoreConfig::default()
        };
        let mut store = ManagerStore::create(&dir, store_cfg, &rm).unwrap();
        for i in 0..5u32 {
            let ev = ManagerEvent::SubmitWithAdmission {
                job: job(i + 1),
                now: SimTime::from_millis(i as i64),
            };
            store.append(&ev).unwrap();
            apply(&mut rm, &ev);
            store.maybe_snapshot(&rm).unwrap();
        }
        assert_eq!(store.next_idx(), 5);
        drop(store);
        let (store, recovered, n) = ManagerStore::recover(&dir, store_cfg, cfg, resources).unwrap();
        assert_eq!(n, 5);
        assert_eq!(store.next_idx(), 5);
        assert_eq!(recovered.image(), rm.image());
    }

    #[test]
    fn lost_unsynced_tail_recovers_the_synced_prefix() {
        let dir = tmp("tail");
        let resources = homogeneous_cluster(4, 2, 2);
        let cfg = MrcpConfig::default();
        let mut rm = MrcpRm::new(cfg, resources.clone());
        let store_cfg = StoreConfig {
            snapshot_every: 1_000,
            wal: WalConfig { sync_every: 100 },
        };
        let mut store = ManagerStore::create(&dir, store_cfg, &rm).unwrap();
        let mut synced_state = rm.image();
        for i in 0..4u32 {
            let ev = ManagerEvent::SubmitWithAdmission {
                job: job(i + 1),
                now: SimTime::from_millis(i as i64),
            };
            store.append(&ev).unwrap();
            apply(&mut rm, &ev);
            if i == 1 {
                // Manually sync after two commands; the rest stays
                // buffered and dies with the "power loss" below.
                store.wal.sync().unwrap();
                synced_state = rm.image();
            }
        }
        let synced = store.wal_synced_len();
        drop(store);
        ManagerStore::simulate_power_loss(&dir, synced).unwrap();
        let (_store, recovered, n) =
            ManagerStore::recover(&dir, store_cfg, cfg, resources).unwrap();
        assert_eq!(n, 2, "only the synced commands survive");
        assert_eq!(recovered.image(), synced_state);
    }
}

//! Side stages of the traced pass: single layers driven on their own with
//! inputs captured from the real run. None of them gates anything; they
//! exist so a per-layer number has a measurement behind it.
//!
//! The two threaded stages — the two-cell fan-out and the ingest front
//! door — use two threads, which is this host's `available_parallelism`;
//! their numbers depend on the OS scheduler and are flagged so in the
//! README.

use crate::calib;
use crate::segment::{replay, Options, SegmentRun, Variant};
use crate::stats::{median, quantile_ns};
use crate::workloads::{Inputs, Workload};
use desim::SimTime;
use durability::codec::Dec;
use durability::snapshot::{encode_manager_snapshot, write_blob};
use durability::{ManagerEvent, Wal, WalConfig};
use mrcp::manager::{
    AdmissionOutcome, FailureAction, JobCompletion, ManagerError, ManagerImage, ManagerStats,
    ScheduleEntry,
};
use mrcp::ResourceManager;
use service::{FrontDoorConfig, IngestService};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Job, ResourceId, TaskId};

/// Codec stage results.
#[derive(Debug, Clone, Default)]
pub struct Codec {
    /// `ManagerEvent::to_bytes`, ns per event.
    pub encode_ns: f64,
    /// `ManagerEvent::decode`, ns per event.
    pub decode_ns: f64,
    /// Encoded bytes per event.
    pub bytes_per_event: f64,
    /// The encoded records, for the WAL stage.
    pub records: Vec<Vec<u8>>,
}

/// Re-feed the captured command stream through the WAL codec.
pub fn codec(events: &[ManagerEvent]) -> Codec {
    if events.is_empty() {
        return Codec::default();
    }
    let t0 = Instant::now();
    let records: Vec<Vec<u8>> = events.iter().map(ManagerEvent::to_bytes).collect();
    let encode_ns = t0.elapsed().as_nanos() as f64 / events.len() as f64;
    let t0 = Instant::now();
    let mut decoded = 0usize;
    for r in &records {
        if ManagerEvent::decode(&mut Dec::new(r)).is_ok() {
            decoded += 1;
        }
    }
    let decode_ns = t0.elapsed().as_nanos() as f64 / events.len() as f64;
    assert_eq!(decoded, events.len(), "every captured command round-trips");
    let bytes: usize = records.iter().map(Vec::len).sum();
    Codec {
        encode_ns,
        decode_ns,
        bytes_per_event: bytes as f64 / events.len() as f64,
        records,
    }
}

/// WAL stage results.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStage {
    /// Median `Wal::append` without a sync, µs.
    pub append_us_p50: f64,
    /// Median `Wal::sync` after one appended record, µs — the device's
    /// `fdatasync`, wherever the checkout lives.
    pub fsync_us_p50: f64,
}

/// Append the captured records to a real `Wal` under `dir`.
pub fn wal(records: &[Vec<u8>], dir: &Path) -> WalStage {
    if records.is_empty() || std::fs::create_dir_all(dir).is_err() {
        return WalStage::default();
    }
    let never = WalConfig {
        sync_every: u64::MAX,
    };
    let Ok(mut log) = Wal::create(&dir.join("stage.wal"), never) else {
        return WalStage::default();
    };
    let mut append_ns = Vec::with_capacity(records.len());
    for r in records {
        let t0 = Instant::now();
        if log.append(r).is_err() {
            return WalStage::default();
        }
        append_ns.push(t0.elapsed().as_nanos() as u64);
    }
    let mut fsync_ns = Vec::new();
    for r in records.iter().take(100) {
        if log.append(r).is_err() {
            break;
        }
        let t0 = Instant::now();
        if log.sync().is_err() {
            break;
        }
        fsync_ns.push(t0.elapsed().as_nanos() as u64);
    }
    drop(log);
    let _ = std::fs::remove_dir_all(dir);
    WalStage {
        append_us_p50: quantile_ns(&append_ns, 0.5, 1e3),
        fsync_us_p50: quantile_ns(&fsync_ns, 0.5, 1e3),
    }
}

/// Snapshot stage results.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotStage {
    /// Encode + atomic write of one snapshot, ms.
    pub write_ms: f64,
    /// Snapshot payload bytes.
    pub bytes: f64,
}

/// Encode and atomically write the largest state the run photographed.
pub fn snapshot(image: &ManagerImage, dir: &Path) -> SnapshotStage {
    if std::fs::create_dir_all(dir).is_err() {
        return SnapshotStage::default();
    }
    let mut ms = Vec::new();
    let mut bytes = 0usize;
    for _ in 0..5 {
        let t0 = Instant::now();
        let payload = encode_manager_snapshot(0, image);
        if write_blob(&dir.join("stage.snapshot"), &payload).is_err() {
            return SnapshotStage::default();
        }
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        bytes = payload.len();
    }
    let _ = std::fs::remove_dir_all(dir);
    SnapshotStage {
        write_ms: median(&ms),
        bytes: bytes as f64,
    }
}

/// `cluster::router::two_choices` over eight cell loads, ns per call.
pub fn router_ns() -> f64 {
    let mut loads = [3.5, 1.25, 2.0, 8.0, 0.5, 4.0, 6.5, 1.0];
    let calls = 200_000u32;
    let t0 = Instant::now();
    let mut acc = 0usize;
    for i in 0..calls {
        loads[(i % 8) as usize] += 0.125;
        let (p, a) = cluster::router::two_choices(std::hint::black_box(&loads));
        acc += p + a.unwrap_or(0);
    }
    std::hint::black_box(acc);
    t0.elapsed().as_nanos() as f64 / f64::from(calls)
}

/// Front-door stage results.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontDoor {
    /// Median wall time of `IngestService::submit`, µs.
    pub offer_us_p50: f64,
    /// Median wall time from `submit` to the worker handing the job to the
    /// manager, µs (thread wake-up included).
    pub handoff_us_p50: f64,
}

/// A manager that does nothing but note when each job reached it.
struct Sink {
    origin: Instant,
    offered_ns: Arc<Vec<AtomicU64>>,
    handoff_ns: Vec<u64>,
}

impl ResourceManager for Sink {
    fn submit_with_admission(
        &mut self,
        job: Job,
        _now: SimTime,
    ) -> Result<AdmissionOutcome, ManagerError> {
        let at = self.origin.elapsed().as_nanos() as u64;
        let offered = self.offered_ns[job.id.0 as usize].load(Ordering::SeqCst);
        self.handoff_ns.push(at.saturating_sub(offered));
        Err(ManagerError::UnknownJob(job.id))
    }
    fn activate_due(&mut self, _now: SimTime) -> usize {
        0
    }
    fn reschedule(&mut self, _now: SimTime) -> Vec<ScheduleEntry> {
        Vec::new()
    }
    fn task_started(&mut self, task: TaskId, _now: SimTime) -> Result<ResourceId, ManagerError> {
        Err(ManagerError::UnknownTask(task))
    }
    fn task_completed(
        &mut self,
        task: TaskId,
        _now: SimTime,
    ) -> Result<Option<JobCompletion>, ManagerError> {
        Err(ManagerError::UnknownTask(task))
    }
    fn task_duration_revised(
        &mut self,
        task: TaskId,
        _new_exec: SimTime,
    ) -> Result<(), ManagerError> {
        Err(ManagerError::UnknownTask(task))
    }
    fn task_failed(&mut self, task: TaskId, _now: SimTime) -> Result<FailureAction, ManagerError> {
        Err(ManagerError::UnknownTask(task))
    }
    fn resource_down(
        &mut self,
        rid: ResourceId,
        _now: SimTime,
    ) -> Result<Vec<TaskId>, ManagerError> {
        Err(ManagerError::UnknownResource(rid))
    }
    fn resource_up(&mut self, rid: ResourceId, _now: SimTime) -> Result<(), ManagerError> {
        Err(ManagerError::UnknownResource(rid))
    }
    fn jobs_in_system(&self) -> usize {
        0
    }
    fn stats(&self) -> ManagerStats {
        ManagerStats::default()
    }
}

/// Time the threaded `IngestService` over a no-op manager: one producer
/// (this thread) and its one worker. `max_batch` 1 and no linger, so the
/// hand-off is the queue and the wake-up, not the batching knob.
pub fn front_door(jobs: &[Job]) -> FrontDoor {
    let jobs: Vec<Job> = jobs.iter().take(2_000).cloned().collect();
    let Some(max_id) = jobs.iter().map(|j| j.id.0 as usize).max() else {
        return FrontDoor::default();
    };
    let offered_ns: Arc<Vec<AtomicU64>> =
        Arc::new((0..=max_id).map(|_| AtomicU64::new(0)).collect());
    let origin = Instant::now();
    let sink = Sink {
        origin,
        offered_ns: Arc::clone(&offered_ns),
        handoff_ns: Vec::with_capacity(jobs.len()),
    };
    let svc = IngestService::start(
        sink,
        FrontDoorConfig {
            max_batch: 1,
            max_linger: Duration::ZERO,
            queue_cap: jobs.len().max(1),
            sim_speed: 1.0,
        },
    );
    let mut offer_ns = Vec::with_capacity(jobs.len());
    for job in jobs {
        let id = job.id.0 as usize;
        let t0 = Instant::now();
        // SeqCst: the worker must see the stamp the moment it can see the job.
        offered_ns[id].store(origin.elapsed().as_nanos() as u64, Ordering::SeqCst);
        let accepted = svc.submit(job).is_ok();
        offer_ns.push(t0.elapsed().as_nanos() as u64);
        assert!(accepted, "the queue holds every job, so none is shed");
    }
    let (rm, _report) = svc.close();
    let (sink, _metrics) = rm.into_parts();
    FrontDoor {
        offer_us_p50: quantile_ns(&offer_ns, 0.5, 1e3),
        handoff_us_p50: quantile_ns(&sink.handoff_ns, 0.5, 1e3),
    }
}

/// `(user, system)` CPU seconds this process has used, from
/// `/proc/self/stat` (clock ticks at the usual 100 Hz).
fn cpu_seconds() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0) / 100.0;
    (tick(11), tick(12))
}

/// Results of the comparison replays on the full stack.
#[derive(Debug, Default)]
pub struct FullStackStages {
    /// `(as defined − plain federation) / plain federation` wall time.
    pub durable_overhead_frac: f64,
    /// `(as defined − telemetry disabled) / telemetry disabled` wall time.
    pub telemetry_overhead_frac: f64,
    /// The two-cell replay.
    pub fanout: Option<SegmentRun>,
    /// System share of the CPU time the two-cell replay used.
    pub fanout_sys_frac: f64,
}

/// Replay half of segment 0 through the stack as defined, through a plain
/// (store-less) federation and with telemetry disabled — five rounds,
/// interleaved, each wall time corrected for host speed, medians compared
/// — and once through two cells.
pub fn full_stack(w: &Workload, inputs: &Inputs, dir: &Path) -> FullStackStages {
    let jobs: Vec<Job> = inputs.jobs[..inputs.jobs.len().div_ceil(2)].to_vec();
    let timing = |variant: Variant| {
        let opt = Options {
            crashes: false,
            variant,
            ..Options::timing()
        };
        replay(w, inputs, jobs.clone(), &dir.join("stage"), &opt)
    };
    let corrected = |variant: Variant| {
        let (run, c) = calib::around(|| timing(variant));
        run.wall_s * c
    };
    let (mut defined, mut plain, mut quiet) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        defined.push(corrected(Variant::AsDefined));
        plain.push(corrected(Variant::PlainFederation(1)));
        quiet.push(corrected(Variant::NoTelemetry));
    }
    let (cpu_u0, cpu_s0) = cpu_seconds();
    let fanout = timing(Variant::PlainFederation(2));
    let (cpu_u1, cpu_s1) = cpu_seconds();
    let (du, ds) = (cpu_u1 - cpu_u0, cpu_s1 - cpu_s0);
    let frac = |a: &[f64], b: &[f64]| (median(a) - median(b)) / median(b);
    FullStackStages {
        durable_overhead_frac: frac(&defined, &plain),
        telemetry_overhead_frac: frac(&defined, &quiet),
        fanout: Some(fanout),
        fanout_sys_frac: if du + ds > 0.0 { ds / (du + ds) } else { 0.0 },
    }
}

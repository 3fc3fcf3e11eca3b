//! Snapshots: atomic on-disk images of a manager's full mutable state.
//!
//! A snapshot file is `[magic 8B "MRCPSNP3"][len u32][crc32 u32][payload]`
//! written to a temp file and renamed into place, so a crash mid-write
//! leaves the previous snapshot intact — there is always exactly one
//! valid snapshot. The payload carries the command index the image was
//! taken at (`base_idx`) followed by the encoded [`ManagerImage`];
//! recovery restores the image and replays only WAL records with a
//! command index at or past `base_idx` — bounded replay instead of
//! full-history replay.

use crate::codec::{Dec, DecodeError, Enc};
use crate::wal::crc32;
use mrcp::manager::{ManagerStats, ScheduleEntry};
use mrcp::{JobImage, ManagerImage, RoundCacheImage, TaskImage, TaskStatusImage};
use std::io::{self, Write};
use std::path::Path;
use std::time::Duration;
use workload::{JobId, ResourceId, TaskId, TaskKind};

/// Snapshot file magic, also the format version.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"MRCPSNP3";

/// Encode a [`ManagerStats`]. Destructured exhaustively so a new counter
/// cannot silently be dropped from snapshots.
pub fn encode_stats(e: &mut Enc, s: &ManagerStats) {
    let ManagerStats {
        invocations,
        total_solve,
        total_nodes,
        optimal_rounds,
        feasible_rounds,
        degraded_rounds,
        failed_rounds,
        tasks_failed,
        tasks_requeued,
        jobs_abandoned,
        max_tasks_in_model,
        jobs_rejected,
        jobs_renegotiated,
        jobs_shed,
        max_queue_depth,
        budget_adaptations,
        max_round_solve,
        warm_rounds,
        cache_invalidations,
    } = *s;
    e.u64(invocations);
    e.u64(total_solve.as_nanos() as u64);
    e.u64(total_nodes);
    e.u64(optimal_rounds);
    e.u64(feasible_rounds);
    e.u64(degraded_rounds);
    e.u64(failed_rounds);
    e.u64(tasks_failed);
    e.u64(tasks_requeued);
    e.u64(jobs_abandoned);
    e.usize(max_tasks_in_model);
    e.u64(jobs_rejected);
    e.u64(jobs_renegotiated);
    e.u64(jobs_shed);
    e.usize(max_queue_depth);
    e.u64(budget_adaptations);
    e.u64(max_round_solve.as_nanos() as u64);
    e.u64(warm_rounds);
    e.u64(cache_invalidations);
}

/// Decode a [`ManagerStats`].
pub fn decode_stats(d: &mut Dec<'_>) -> Result<ManagerStats, DecodeError> {
    Ok(ManagerStats {
        invocations: d.u64()?,
        total_solve: Duration::from_nanos(d.u64()?),
        total_nodes: d.u64()?,
        optimal_rounds: d.u64()?,
        feasible_rounds: d.u64()?,
        degraded_rounds: d.u64()?,
        failed_rounds: d.u64()?,
        tasks_failed: d.u64()?,
        tasks_requeued: d.u64()?,
        jobs_abandoned: d.u64()?,
        max_tasks_in_model: d.usize()?,
        jobs_rejected: d.u64()?,
        jobs_renegotiated: d.u64()?,
        jobs_shed: d.u64()?,
        max_queue_depth: d.usize()?,
        budget_adaptations: d.u64()?,
        max_round_solve: Duration::from_nanos(d.u64()?),
        warm_rounds: d.u64()?,
        cache_invalidations: d.u64()?,
    })
}

fn encode_task_image(e: &mut Enc, t: &TaskImage) {
    e.u32(t.id.0);
    e.u8(match t.kind {
        TaskKind::Map => 0,
        TaskKind::Reduce => 1,
    });
    e.time(t.exec_time);
    e.time(t.nominal_exec);
    e.u32(t.req);
    match t.status {
        TaskStatusImage::Waiting => e.u8(0),
        TaskStatusImage::Started { resource, start } => {
            e.u8(1);
            e.u32(resource.0);
            e.time(start);
        }
        TaskStatusImage::Completed => e.u8(2),
    }
    e.u32(t.failed_attempts);
}

fn decode_task_image(d: &mut Dec<'_>) -> Result<TaskImage, DecodeError> {
    let id = TaskId(d.u32()?);
    let kind = match d.u8()? {
        0 => TaskKind::Map,
        1 => TaskKind::Reduce,
        _ => return Err(DecodeError("bad task kind")),
    };
    let exec_time = d.time()?;
    let nominal_exec = d.time()?;
    let req = d.u32()?;
    let status = match d.u8()? {
        0 => TaskStatusImage::Waiting,
        1 => TaskStatusImage::Started {
            resource: ResourceId(d.u32()?),
            start: d.time()?,
        },
        2 => TaskStatusImage::Completed,
        _ => return Err(DecodeError("bad task status")),
    };
    let failed_attempts = d.u32()?;
    Ok(TaskImage {
        id,
        kind,
        exec_time,
        nominal_exec,
        req,
        status,
        failed_attempts,
    })
}

/// Encode a [`ManagerImage`].
pub fn encode_image(e: &mut Enc, img: &ManagerImage) {
    let ManagerImage {
        jobs,
        deferred,
        schedule,
        down,
        budget_scale,
        latency_ewma_s,
        cache,
        stats,
    } = img;
    e.u64(jobs.len() as u64);
    for JobImage { job, tasks } in jobs {
        e.job(job);
        e.u64(tasks.len() as u64);
        for t in tasks {
            encode_task_image(e, t);
        }
    }
    e.u64(deferred.len() as u64);
    for &(at, job) in deferred {
        e.time(at);
        e.u32(job.0);
    }
    e.u64(schedule.len() as u64);
    for s in schedule {
        let ScheduleEntry {
            task,
            job,
            resource,
            start,
            end,
        } = *s;
        e.u32(task.0);
        e.u32(job.0);
        e.u32(resource.0);
        e.time(start);
        e.time(end);
    }
    e.u64(down.len() as u64);
    for r in down {
        e.u32(r.0);
    }
    e.f64(*budget_scale);
    e.opt_f64(*latency_ewma_s);
    match cache {
        None => e.bool(false),
        Some(RoundCacheImage {
            pool_fp,
            jobs,
            placements,
        }) => {
            e.bool(true);
            e.u64(*pool_fp);
            e.u64(jobs.len() as u64);
            for &(j, fp) in jobs {
                e.u32(j.0);
                e.u64(fp);
            }
            e.u64(placements.len() as u64);
            for &(t, r, at) in placements {
                e.u32(t.0);
                e.u32(r.0);
                e.time(at);
            }
        }
    }
    encode_stats(e, stats);
}

/// Decode a [`ManagerImage`].
pub fn decode_image(d: &mut Dec<'_>) -> Result<ManagerImage, DecodeError> {
    let n = d.seq_len()?;
    let mut jobs = Vec::with_capacity(n);
    for _ in 0..n {
        let job = d.job()?;
        let m = d.seq_len()?;
        let mut tasks = Vec::with_capacity(m);
        for _ in 0..m {
            tasks.push(decode_task_image(d)?);
        }
        jobs.push(JobImage { job, tasks });
    }
    let n = d.seq_len()?;
    let mut deferred = Vec::with_capacity(n);
    for _ in 0..n {
        let at = d.time()?;
        deferred.push((at, JobId(d.u32()?)));
    }
    let n = d.seq_len()?;
    let mut schedule = Vec::with_capacity(n);
    for _ in 0..n {
        schedule.push(ScheduleEntry {
            task: TaskId(d.u32()?),
            job: JobId(d.u32()?),
            resource: ResourceId(d.u32()?),
            start: d.time()?,
            end: d.time()?,
        });
    }
    let n = d.seq_len()?;
    let mut down = Vec::with_capacity(n);
    for _ in 0..n {
        down.push(ResourceId(d.u32()?));
    }
    let budget_scale = d.f64()?;
    let latency_ewma_s = d.opt_f64()?;
    let cache = if d.bool()? {
        let pool_fp = d.u64()?;
        let n = d.seq_len()?;
        let mut cjobs = Vec::with_capacity(n);
        for _ in 0..n {
            let j = JobId(d.u32()?);
            cjobs.push((j, d.u64()?));
        }
        let n = d.seq_len()?;
        let mut placements = Vec::with_capacity(n);
        for _ in 0..n {
            let t = TaskId(d.u32()?);
            let r = ResourceId(d.u32()?);
            placements.push((t, r, d.time()?));
        }
        Some(RoundCacheImage {
            pool_fp,
            jobs: cjobs,
            placements,
        })
    } else {
        None
    };
    let stats = decode_stats(d)?;
    Ok(ManagerImage {
        jobs,
        deferred,
        schedule,
        down,
        budget_scale,
        latency_ewma_s,
        cache,
        stats,
    })
}

/// Write `payload` as an atomic snapshot blob at `path`: temp file in the
/// same directory, fsync, rename over the old snapshot.
pub fn write_blob(path: &Path, payload: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(SNAPSHOT_MAGIC)?;
        f.write_all(&(payload.len() as u32).to_le_bytes())?;
        f.write_all(&crc32(payload).to_le_bytes())?;
        f.write_all(payload)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Read and verify a snapshot blob, returning its payload.
pub fn read_blob(path: &Path) -> io::Result<Vec<u8>> {
    let bytes = std::fs::read(path)?;
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    if bytes.len() < 16 || &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(bad("not a snapshot file (bad magic)"));
    }
    let len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    if bytes.len() != 16 + len {
        return Err(bad("snapshot length mismatch"));
    }
    let payload = &bytes[16..];
    if crc32(payload) != crc {
        return Err(bad("snapshot CRC mismatch"));
    }
    Ok(payload.to_vec())
}

/// Encode `(base_idx, image)` into a blob payload.
pub fn encode_manager_snapshot(base_idx: u64, img: &ManagerImage) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(base_idx);
    encode_image(&mut e, img);
    e.finish()
}

/// Decode a blob payload back into `(base_idx, image)`.
pub fn decode_manager_snapshot(payload: &[u8]) -> Result<(u64, ManagerImage), DecodeError> {
    let mut d = Dec::new(payload);
    let base = d.u64()?;
    let img = decode_image(&mut d)?;
    d.expect_end()?;
    Ok((base, img))
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimTime;
    use workload::Task;

    fn sample_image() -> ManagerImage {
        let job = workload::Job {
            id: JobId(1),
            arrival: SimTime::from_millis(10),
            earliest_start: SimTime::from_millis(10),
            deadline: SimTime::from_millis(50_000),
            map_tasks: vec![Task {
                id: TaskId(11),
                job: JobId(1),
                kind: TaskKind::Map,
                exec_time: SimTime::from_millis(3_000),
                req: 1,
            }],
            reduce_tasks: vec![],
        };
        let stats = ManagerStats {
            invocations: 4,
            total_solve: Duration::from_micros(1234),
            max_tasks_in_model: 9,
            ..ManagerStats::default()
        };
        ManagerImage {
            jobs: vec![JobImage {
                job,
                tasks: vec![TaskImage {
                    id: TaskId(11),
                    kind: TaskKind::Map,
                    exec_time: SimTime::from_millis(3_000),
                    nominal_exec: SimTime::from_millis(3_000),
                    req: 1,
                    status: TaskStatusImage::Started {
                        resource: ResourceId(0),
                        start: SimTime::from_millis(20),
                    },
                    failed_attempts: 1,
                }],
            }],
            deferred: vec![(SimTime::from_millis(99), JobId(2))],
            schedule: vec![ScheduleEntry {
                task: TaskId(11),
                job: JobId(1),
                resource: ResourceId(0),
                start: SimTime::from_millis(20),
                end: SimTime::from_millis(3_020),
            }],
            down: vec![ResourceId(3)],
            budget_scale: 0.75,
            latency_ewma_s: Some(0.01),
            cache: Some(RoundCacheImage {
                pool_fp: 0xABCD,
                jobs: vec![(JobId(1), 42)],
                placements: vec![(TaskId(11), ResourceId(0), SimTime::from_millis(20))],
            }),
            stats,
        }
    }

    #[test]
    fn image_codec_roundtrip() {
        let img = sample_image();
        let payload = encode_manager_snapshot(17, &img);
        let (base, back) = decode_manager_snapshot(&payload).unwrap();
        assert_eq!(base, 17);
        assert_eq!(back, img);
    }

    #[test]
    fn truncated_image_errors_instead_of_panicking() {
        let payload = encode_manager_snapshot(0, &sample_image());
        for cut in 0..payload.len() {
            assert!(decode_manager_snapshot(&payload[..cut]).is_err());
        }
    }

    #[test]
    fn blob_roundtrip_and_corruption_detection() {
        let dir = std::env::temp_dir().join(format!("mrcp-snap-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.bin");
        write_blob(&path, b"payload bytes").unwrap();
        assert_eq!(read_blob(&path).unwrap(), b"payload bytes");
        // Flip a payload bit: the CRC must reject the blob.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_blob(&path).is_err());
        // An intact blob of an earlier format version (`MRCPSNP2` job
        // records carried an edge list) is refused, not misread.
        bytes[last] ^= 1;
        for old in [b"MRCPSNP1", b"MRCPSNP2"] {
            bytes[..8].copy_from_slice(old);
            std::fs::write(&path, &bytes).unwrap();
            let err = read_blob(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(err.to_string(), "not a snapshot file (bad magic)");
        }
    }
}

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

use crate::codec::{Enc, Wire};
use crate::wal::crc32;
use mrcp::manager::{ManagerStats, ScheduleEntry};
use mrcp::{JobImage, ManagerImage, RoundCacheImage, TaskImage, TaskStatusImage};
use std::io::{self, Write};
use std::path::Path;

/// Snapshot file magic, also the format version.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"MRCPSNP3";

// The layout of a `ManagerImage` and of each of its parts: every field
// list is in wire order, and a change to one needs a new magic.
crate::wire_struct!(ManagerStats {
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
});
crate::wire_enum!(TaskStatusImage, "bad task status" {
    0 => Waiting,
    1 => Started { resource, start },
    2 => Completed,
});
crate::wire_struct!(TaskImage {
    id,
    kind,
    exec_time,
    nominal_exec,
    req,
    status,
    failed_attempts
});
crate::wire_struct!(JobImage { job, tasks });
crate::wire_struct!(ScheduleEntry {
    task,
    job,
    resource,
    start,
    end
});
crate::wire_struct!(RoundCacheImage {
    pool_fp,
    jobs,
    placements
});
crate::wire_struct!(ManagerImage {
    jobs,
    deferred,
    schedule,
    down,
    budget_scale,
    latency_ewma_s,
    cache,
    stats,
});

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
    img.put(&mut e);
    e.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::assert_roundtrip;
    use desim::SimTime;
    use std::time::Duration;
    use workload::{JobId, ResourceId, Task, TaskId, TaskKind};

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
        assert_eq!(payload, (17u64, img.clone()).to_bytes());
        assert_roundtrip(&(17u64, img));
    }

    /// The cold image: no cache, no latency estimate, every other task
    /// status.
    #[test]
    fn truncated_image_errors_instead_of_panicking() {
        let mut img = sample_image();
        img.cache = None;
        img.latency_ewma_s = None;
        let mut waiting = img.jobs[0].tasks[0];
        waiting.status = TaskStatusImage::Waiting;
        let mut done = waiting;
        done.status = TaskStatusImage::Completed;
        img.jobs[0].tasks.extend([waiting, done]);
        assert_roundtrip(&img);
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

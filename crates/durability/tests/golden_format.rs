//! The bytes on disk, pinned: every WAL record kind and a snapshot
//! image covering every optional and tagged field encode to exactly the
//! lengths and CRC-32s recorded here. A codec change that moves a byte
//! fails this test; a deliberate format change bumps the magic next to
//! it and records new constants.

use desim::SimTime;
use durability::snapshot::{encode_manager_snapshot, SNAPSHOT_MAGIC};
use durability::wal::{crc32, WAL_MAGIC};
use durability::ManagerEvent;
use mrcp::manager::{ManagerStats, ScheduleEntry};
use mrcp::{JobImage, ManagerImage, RoundCacheImage, TaskImage, TaskStatusImage};
use std::time::Duration;
use workload::{Job, JobId, ResourceId, Task, TaskId, TaskKind};

fn task(id: u32, job: u32, kind: TaskKind, ms: i64, req: u32) -> Task {
    Task {
        id: TaskId(id),
        job: JobId(job),
        kind,
        exec_time: SimTime::from_millis(ms),
        req,
    }
}

fn job(id: u32) -> Job {
    Job {
        id: JobId(id),
        arrival: SimTime::from_millis(100 + i64::from(id)),
        earliest_start: SimTime::from_millis(250),
        deadline: SimTime::from_millis(60_000),
        map_tasks: vec![
            task(10 * id, id, TaskKind::Map, 5_000, 1),
            task(10 * id + 1, id, TaskKind::Map, 4_500, 2),
        ],
        reduce_tasks: vec![task(10 * id + 2, id, TaskKind::Reduce, 7_250, 1)],
    }
}

/// `(len, crc32)` of a byte string.
fn fingerprint(bytes: &[u8]) -> (usize, u32) {
    (bytes.len(), crc32(bytes))
}

#[test]
fn magics_are_unchanged() {
    assert_eq!(WAL_MAGIC, b"MRCPWAL2");
    assert_eq!(SNAPSHOT_MAGIC, b"MRCPSNP3");
}

#[test]
fn every_event_encodes_to_its_recorded_bytes() {
    let t = SimTime::from_millis(42);
    let cases: Vec<(ManagerEvent, (usize, u32))> = vec![
        (
            ManagerEvent::SubmitWithAdmission {
                job: job(7),
                now: t,
            },
            (116, 0x8CF5B773),
        ),
        (ManagerEvent::ActivateDue { now: t }, (9, 0x99C47E73)),
        (ManagerEvent::Reschedule { now: t }, (9, 0xA04942B6)),
        (
            ManagerEvent::TaskStarted {
                task: TaskId(1),
                now: t,
            },
            (13, 0x41AD18BD),
        ),
        (
            ManagerEvent::TaskCompleted {
                task: TaskId(2),
                now: t,
            },
            (13, 0x4B40CC15),
        ),
        (
            ManagerEvent::TaskDurationRevised {
                task: TaskId(3),
                new_exec: SimTime::from_millis(9_000),
            },
            (13, 0xB1037D83),
        ),
        (
            ManagerEvent::TaskFailed {
                task: TaskId(4),
                now: t,
            },
            (13, 0xC421DCBE),
        ),
        (
            ManagerEvent::ResourceDown {
                resource: ResourceId(5),
                now: t,
            },
            (13, 0x82124954),
        ),
        (
            ManagerEvent::ResourceUp {
                resource: ResourceId(6),
                now: t,
            },
            (13, 0xD2FC4E91),
        ),
        (
            ManagerEvent::TakeUnstartedJob { job: JobId(7) },
            (5, 0x56E5ADD5),
        ),
        (
            ManagerEvent::Submit {
                job: job(8),
                now: t,
            },
            (116, 0x170542FA),
        ),
        (
            ManagerEvent::SubmitBatch {
                jobs: vec![job(9), job(10)],
                now: t,
            },
            (231, 0xF22EF262),
        ),
        (
            ManagerEvent::SubmitBatch {
                jobs: vec![],
                now: t,
            },
            (17, 0xBF7B58BD),
        ),
    ];
    let got: Vec<(usize, u32)> = cases
        .iter()
        .map(|(ev, _)| fingerprint(&ev.to_bytes()))
        .collect();
    let want: Vec<(usize, u32)> = cases.iter().map(|&(_, p)| p).collect();
    assert_eq!(got, want);
    // The tag is the first byte; 11 and 13 are retired.
    let tags: Vec<u8> = cases.iter().map(|(ev, _)| ev.to_bytes()[0]).collect();
    assert_eq!(tags, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 12]);
}

fn task_image(id: u32, kind: TaskKind, status: TaskStatusImage) -> TaskImage {
    TaskImage {
        id: TaskId(id),
        kind,
        exec_time: SimTime::from_millis(3_000 + i64::from(id)),
        nominal_exec: SimTime::from_millis(3_000),
        req: 1 + id % 2,
        status,
        failed_attempts: id % 3,
    }
}

/// Every counter distinct and non-zero, so a swapped pair moves bytes.
fn stats() -> ManagerStats {
    ManagerStats {
        invocations: 1,
        total_solve: Duration::from_nanos(2_000_002),
        total_nodes: 3,
        optimal_rounds: 4,
        feasible_rounds: 5,
        degraded_rounds: 6,
        failed_rounds: 7,
        tasks_failed: 8,
        tasks_requeued: 9,
        jobs_abandoned: 10,
        max_tasks_in_model: 11,
        jobs_rejected: 12,
        jobs_renegotiated: 13,
        jobs_shed: 14,
        max_queue_depth: 15,
        budget_adaptations: 16,
        max_round_solve: Duration::from_nanos(17_000_017),
        warm_rounds: 18,
        cache_invalidations: 19,
    }
}

/// A warm image (cache and latency present) and a cold one (both
/// absent); between them every `TaskStatusImage` variant appears.
fn images() -> [ManagerImage; 2] {
    let started = TaskStatusImage::Started {
        resource: ResourceId(2),
        start: SimTime::from_millis(300),
    };
    let warm = ManagerImage {
        jobs: vec![JobImage {
            job: job(1),
            tasks: vec![
                task_image(10, TaskKind::Map, TaskStatusImage::Completed),
                task_image(11, TaskKind::Map, started),
                task_image(12, TaskKind::Reduce, TaskStatusImage::Waiting),
            ],
        }],
        deferred: vec![(SimTime::from_millis(99), JobId(2))],
        schedule: vec![ScheduleEntry {
            task: TaskId(12),
            job: JobId(1),
            resource: ResourceId(3),
            start: SimTime::from_millis(3_500),
            end: SimTime::from_millis(10_750),
        }],
        down: vec![ResourceId(4), ResourceId(5)],
        budget_scale: 0.75,
        latency_ewma_s: Some(0.0125),
        cache: Some(RoundCacheImage {
            pool_fp: 0xABCD_EF01_2345_6789,
            jobs: vec![(JobId(1), 42), (JobId(2), 43)],
            placements: vec![(TaskId(12), ResourceId(3), SimTime::from_millis(3_500))],
        }),
        stats: stats(),
    };
    let cold = ManagerImage {
        jobs: vec![
            JobImage {
                job: job(2),
                tasks: vec![
                    task_image(20, TaskKind::Map, TaskStatusImage::Waiting),
                    task_image(21, TaskKind::Map, TaskStatusImage::Waiting),
                    task_image(22, TaskKind::Reduce, TaskStatusImage::Waiting),
                ],
            },
            JobImage {
                job: job(3),
                tasks: vec![task_image(30, TaskKind::Map, started)],
            },
        ],
        deferred: vec![],
        schedule: vec![],
        down: vec![],
        budget_scale: 1.0,
        latency_ewma_s: None,
        cache: None,
        stats: stats(),
    };
    [warm, cold]
}

#[test]
fn snapshot_images_encode_to_their_recorded_bytes() {
    let got: Vec<(usize, u32)> = images()
        .iter()
        .zip([17, 0])
        .map(|(img, base)| fingerprint(&encode_manager_snapshot(base, img)))
        .collect();
    assert_eq!(got, [(539, 0xFDBD498A), (564, 0x2118AB13)]);
}

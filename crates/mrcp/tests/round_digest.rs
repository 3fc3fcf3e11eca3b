//! Exactness guard for the manager's scheduling rounds: one digest over
//! about 200 generated command sequences that mix deferral, admission,
//! task failures, stragglers, outages, migration and `restore` mid-run.
//!
//! After every command the digest takes the command's result (every plan
//! `reschedule` returns among them), `stats()` without its wall-clock
//! fields, and `image()`, whose round cache is restricted to the tasks of
//! live jobs. The constant below was recorded once; a change to how the
//! manager stores its per-round state must leave every decision, counter
//! and image exactly as it was, so the constant never moves. A change that
//! is meant to alter decisions re-records it and says why.

use desim::SimTime;
use mrcp::admission::{AdmissionConfig, AdmissionPolicy};
use mrcp::{
    ManagerImage, ManagerStats, MrcpConfig, MrcpRm, ResourceManager, SolveBudget, TaskStatusImage,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::time::Duration;
use workload::model::homogeneous_cluster;
use workload::{Job, JobId, Resource, ResourceId, Task, TaskId, TaskKind};

const SEQUENCES: u64 = 200;
const COMMANDS: usize = 40;
const EXPECTED: u64 = 17_819_910_998_772_326_818;

fn config(rng: &mut StdRng) -> MrcpConfig {
    let policy = match rng.gen_range(0..4u32) {
        0 => AdmissionPolicy::Strict,
        1 => AdmissionPolicy::Renegotiate,
        _ => AdmissionPolicy::BestEffort,
    };
    MrcpConfig {
        budget: SolveBudget {
            node_limit: 400,
            fail_limit: 400,
            // The default budget is counted, never timed: the digest must
            // repeat anywhere.
            ..SolveBudget::default()
        },
        verify_schedules: true,
        retry_budget: rng.gen_range(0..=2u32),
        admission: AdmissionConfig {
            policy,
            max_pending_jobs: rng.gen_bool(0.3).then(|| rng.gen_range(3..=6usize)),
        },
        reuse_rounds: rng.gen_bool(0.9),
        ..MrcpConfig::default()
    }
}

fn job(rng: &mut StdRng, id: u32, now: SimTime) -> Job {
    let start = if rng.gen_bool(0.3) {
        now + SimTime::from_secs(rng.gen_range(5..=120i64))
    } else {
        now
    };
    let mut next = id * 100;
    let mut task = |kind, secs: i64| {
        next += 1;
        Task {
            id: TaskId(next),
            job: JobId(id),
            kind,
            exec_time: SimTime::from_secs(secs),
            req: 1,
        }
    };
    let maps: Vec<Task> = (0..rng.gen_range(1..=4u32))
        .map(|_| task(TaskKind::Map, rng.gen_range(1..=15i64)))
        .collect();
    let reduces: Vec<Task> = (0..rng.gen_range(0..=2u32))
        .map(|_| task(TaskKind::Reduce, rng.gen_range(1..=10i64)))
        .collect();
    Job {
        id: JobId(id),
        arrival: now,
        earliest_start: start,
        deadline: start + SimTime::from_secs(rng.gen_range(15..=150i64)),
        map_tasks: maps,
        reduce_tasks: reduces,
    }
}

/// Running tasks as `(task, start, exec_time)`, in image order.
fn running(image: &ManagerImage) -> Vec<(TaskId, SimTime, SimTime)> {
    image
        .jobs
        .iter()
        .flat_map(|j| &j.tasks)
        .filter_map(|t| match t.status {
            TaskStatusImage::Started { start, .. } => Some((t.id, start, t.exec_time)),
            _ => None,
        })
        .collect()
}

fn feed(h: &mut DefaultHasher, x: &impl Debug) {
    format!("{x:?}").hash(h);
}

/// `stats()` without the fields that measure host wall time.
fn simulated(mut s: ManagerStats) -> ManagerStats {
    s.total_solve = Duration::ZERO;
    s.max_round_solve = Duration::ZERO;
    s
}

/// `image()` with wall-clock stats zeroed and the round cache's placements
/// restricted to tasks of jobs still in the system.
fn comparable(rm: &MrcpRm) -> ManagerImage {
    let mut image = rm.image();
    image.stats = simulated(image.stats);
    let live: HashSet<TaskId> = image
        .jobs
        .iter()
        .flat_map(|j| j.tasks.iter().map(|t| t.id))
        .collect();
    if let Some(c) = image.cache.as_mut() {
        c.placements.retain(|p| live.contains(&p.0));
    }
    image
}

fn run_sequence(seed: u64, h: &mut DefaultHasher) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cluster: Vec<Resource> = homogeneous_cluster(
        rng.gen_range(1..=3u32),
        rng.gen_range(1..=2u32),
        rng.gen_range(1..=2u32),
    );
    let cfg = config(&mut rng);
    let mut rm = MrcpRm::new(cfg, cluster.clone());
    let mut now = SimTime::ZERO;
    let mut next_job = 0u32;
    // Like the simulation driver, a failure, a straggler or an outage is
    // followed by a round before the next task starts: the old plan may
    // put a reduce before a map that now ends later.
    let mut stale = false;
    for _ in 0..COMMANDS {
        let image = rm.image();
        let run = running(&image);
        // Time only moves from event to event: the earliest planned start
        // or running completion, never past either.
        let next_start = rm.current_schedule().first().copied();
        let next_finish = run.iter().map(|&(t, s, e)| (s + e, t)).min();
        let horizon = match (next_start, next_finish) {
            (Some(e), Some((f, _))) => e.start.min(f),
            (Some(e), None) => e.start,
            (None, Some((f, _))) => f,
            (None, None) => SimTime::MAX,
        };
        match rng.gen_range(0..100u32) {
            0..=24 => {
                let j = job(&mut rng, next_job, now);
                next_job += 1;
                if rng.gen_bool(0.8) {
                    feed(h, &rm.submit_with_admission(j, now));
                } else {
                    feed(h, &rm.submit(j, now));
                }
            }
            25..=64 if !stale => match (next_start, next_finish) {
                (Some(e), finish) if finish.is_none_or(|(f, _)| e.start < f) => {
                    now = e.start;
                    feed(h, &rm.task_started(e.task, now));
                }
                (_, Some((f, t))) => {
                    now = f;
                    feed(h, &rm.task_completed(t, now));
                }
                _ => feed(h, &rm.reschedule(now)),
            },
            25..=79 => {
                stale = false;
                feed(h, &rm.reschedule(now));
            }
            80..=83 if !run.is_empty() => {
                let (t, _, _) = run[rng.gen_range(0..run.len())];
                stale = true;
                feed(h, &rm.task_failed(t, now));
            }
            84..=86 if !run.is_empty() => {
                let (t, _, exec) = run[rng.gen_range(0..run.len())];
                stale = true;
                feed(h, &rm.task_duration_revised(t, exec + exec));
            }
            87..=90 => {
                now = (now + SimTime::from_secs(rng.gen_range(0..=40i64))).min(horizon);
                feed(h, &rm.activate_due(now));
            }
            91..=94 => {
                let r = ResourceId(rng.gen_range(0..cluster.len() as u32));
                stale = true;
                if rm.down_resources().contains(&r) {
                    feed(h, &rm.resource_up(r, now));
                } else {
                    feed(h, &rm.resource_down(r, now));
                }
            }
            95..=97 => {
                rm = MrcpRm::restore(cfg, cluster.clone(), image)
                    .expect("a manager's own image restores");
                h.write_u8(1);
            }
            98..=99 => {
                let j = JobId(rng.gen_range(0..next_job.max(1)));
                feed(h, &rm.take_unstarted_job(j).map(|j| j.id));
            }
            _ => {}
        }
        feed(h, &simulated(rm.stats()));
        feed(h, &comparable(&rm));
    }
}

#[test]
fn rounds_digest_to_the_recorded_constant() {
    let mut h = DefaultHasher::new();
    for seed in 0..SEQUENCES {
        run_sequence(seed, &mut h);
    }
    assert_eq!(h.finish(), EXPECTED, "a round decided differently");
}

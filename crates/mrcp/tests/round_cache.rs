//! Cross-round incremental reuse (the manager's `RoundCache`): a second
//! scheduling round over a mostly-unchanged job set replays the previous
//! round's placements as warm start, never degrades the objective, and the
//! cache drops on resource availability changes.

use desim::SimTime;
use mrcp::{MrcpConfig, MrcpRm, ResourceManager, ScheduleEntry};
use workload::model::homogeneous_cluster;
use workload::{Job, JobId, Task, TaskId, TaskKind};

fn mk_job(id: u32, s: i64, d: i64, maps: &[i64], reduces: &[i64]) -> Job {
    let mut next = id * 1000;
    let mut task = |kind, secs: i64| {
        let t = Task {
            id: TaskId(next),
            job: JobId(id),
            kind,
            exec_time: SimTime::from_secs(secs),
            req: 1,
        };
        next += 1;
        t
    };
    Job {
        id: JobId(id),
        arrival: SimTime::from_secs(s),
        earliest_start: SimTime::from_secs(s),
        deadline: SimTime::from_secs(d),
        map_tasks: maps.iter().map(|&e| task(TaskKind::Map, e)).collect(),
        reduce_tasks: reduces.iter().map(|&e| task(TaskKind::Reduce, e)).collect(),
    }
}

/// Number of late jobs in a plan (every task unstarted, so the plan holds
/// each job's full remaining work).
fn late_jobs(plan: &[ScheduleEntry], jobs: &[Job]) -> usize {
    jobs.iter()
        .filter(|j| {
            let completion = plan
                .iter()
                .filter(|e| e.job == j.id)
                .map(|e| e.end)
                .max()
                .expect("job has entries in the plan");
            completion > j.deadline
        })
        .count()
}

/// A tight two-resource scenario: enough contention that placements
/// matter, loose enough that everything is schedulable on time.
fn base_jobs() -> Vec<Job> {
    vec![
        mk_job(0, 0, 40, &[10, 10], &[5]),
        mk_job(1, 0, 45, &[10, 10], &[5]),
        mk_job(2, 0, 60, &[10], &[5]),
    ]
}

#[test]
fn second_round_with_one_extra_job_reuses_prior_assignments() {
    let mut rm = MrcpRm::new(MrcpConfig::default(), homogeneous_cluster(2, 1, 1));
    let mut jobs = base_jobs();
    for j in &jobs {
        rm.submit(j.clone(), SimTime::ZERO).unwrap();
    }
    let first = rm.reschedule(SimTime::ZERO);
    assert!(!first.is_empty());
    assert_eq!(rm.stats().warm_rounds, 0, "first round is cold");

    // One new arrival; the surviving jobs' fingerprints are unchanged, so
    // their cached placements feed the warm start.
    let extra = mk_job(9, 0, 100, &[10], &[]);
    jobs.push(extra.clone());
    rm.submit(extra, SimTime::ZERO).unwrap();
    let second = rm.reschedule(SimTime::ZERO);
    assert_eq!(rm.stats().warm_rounds, 1, "second round is warm");

    // The warm round must not degrade the objective relative to a cold
    // manager solving the identical state from scratch.
    let mut cold = MrcpRm::new(
        MrcpConfig {
            reuse_rounds: false,
            ..Default::default()
        },
        homogeneous_cluster(2, 1, 1),
    );
    for j in &jobs {
        cold.submit(j.clone(), SimTime::ZERO).unwrap();
    }
    let cold_plan = cold.reschedule(SimTime::ZERO);
    assert_eq!(cold.stats().warm_rounds, 0, "reuse disabled stays cold");
    assert!(
        late_jobs(&second, &jobs) <= late_jobs(&cold_plan, &jobs),
        "warm round degraded the objective: warm {} > cold {}",
        late_jobs(&second, &jobs),
        late_jobs(&cold_plan, &jobs)
    );
}

#[test]
fn unchanged_rounds_stay_warm_and_stable() {
    let mut rm = MrcpRm::new(MrcpConfig::default(), homogeneous_cluster(2, 1, 1));
    let jobs = base_jobs();
    for j in &jobs {
        rm.submit(j.clone(), SimTime::ZERO).unwrap();
    }
    let first = rm.reschedule(SimTime::ZERO);
    let second = rm.reschedule(SimTime::ZERO);
    assert_eq!(rm.stats().warm_rounds, 1);
    assert!(late_jobs(&second, &jobs) <= late_jobs(&first, &jobs));
}

#[test]
fn resource_down_drops_the_cache() {
    let mut rm = MrcpRm::new(MrcpConfig::default(), homogeneous_cluster(2, 1, 1));
    for j in base_jobs() {
        rm.submit(j, SimTime::ZERO).unwrap();
    }
    rm.reschedule(SimTime::ZERO);

    let victim = rm.resources()[0].id;
    rm.resource_down(victim, SimTime::ZERO).unwrap();
    assert_eq!(rm.stats().cache_invalidations, 1);

    // The next round runs cold (no cache), on the surviving resource only.
    let plan = rm.reschedule(SimTime::ZERO);
    assert_eq!(rm.stats().warm_rounds, 0, "post-crash round must be cold");
    assert!(plan.iter().all(|e| e.resource != victim));

    // Recovery also invalidates (capacity reappears; cached placements
    // would under-use it silently otherwise). The post-crash round above
    // refilled the cache, so this is a second invalidation.
    rm.resource_up(victim, SimTime::ZERO).unwrap();
    assert_eq!(rm.stats().cache_invalidations, 2);
    let recovered = rm.reschedule(SimTime::ZERO);
    assert_eq!(rm.stats().warm_rounds, 0, "post-recovery round is cold too");
    assert!(!recovered.is_empty());
}

#[test]
fn reuse_can_be_disabled() {
    let mut rm = MrcpRm::new(
        MrcpConfig {
            reuse_rounds: false,
            ..Default::default()
        },
        homogeneous_cluster(2, 1, 1),
    );
    for j in base_jobs() {
        rm.submit(j, SimTime::ZERO).unwrap();
    }
    rm.reschedule(SimTime::ZERO);
    rm.reschedule(SimTime::ZERO);
    assert_eq!(rm.stats().warm_rounds, 0);
}

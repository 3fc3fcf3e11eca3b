//! Deferral (§V.E) as the manager drives it: re-activation ordering and
//! the interplay with retry budgets and load shedding.

use desim::SimTime;
use mrcp::manager::{FailureAction, Submitted};
use mrcp::{AdmissionConfig, AdmissionPolicy, MrcpConfig, MrcpRm, ResourceManager};
use workload::model::homogeneous_cluster;
use workload::{Job, JobId, Task, TaskId, TaskKind};

fn mk_job(id: u32, s: i64, d: i64, map_secs: i64) -> Job {
    Job {
        id: JobId(id),
        arrival: SimTime::ZERO,
        earliest_start: SimTime::from_secs(s),
        deadline: SimTime::from_secs(d),
        map_tasks: vec![Task {
            id: TaskId(id * 100),
            job: JobId(id),
            kind: TaskKind::Map,
            exec_time: SimTime::from_secs(map_secs),
            req: 1,
        }],
        reduce_tasks: vec![],
        precedences: vec![],
    }
}

#[test]
fn reactivation_follows_earliest_start_order() {
    let mut rm = MrcpRm::new(MrcpConfig::default(), homogeneous_cluster(2, 1, 1));
    // Submitted out of s_j order; activations must come back in
    // s_j order regardless.
    for (id, s) in [(0u32, 300i64), (1, 100), (2, 200)] {
        match rm.submit(mk_job(id, s, 10_000, 10), SimTime::ZERO).unwrap() {
            Submitted::Deferred(act) => assert_eq!(act, SimTime::from_secs(s)),
            other => panic!("expected deferral, got {other:?}"),
        }
    }
    assert_eq!(rm.next_activation(), Some(SimTime::from_secs(100)));
    assert_eq!(rm.activate_due(SimTime::from_secs(100)), 1);
    assert_eq!(rm.next_activation(), Some(SimTime::from_secs(200)));
    assert_eq!(rm.activate_due(SimTime::from_secs(200)), 1);
    assert_eq!(rm.next_activation(), Some(SimTime::from_secs(300)));
    // A quiet stretch activates nothing.
    assert_eq!(rm.activate_due(SimTime::from_secs(250)), 0);
    assert_eq!(rm.activate_due(SimTime::from_secs(400)), 1);
    assert_eq!(rm.next_activation(), None);
    // All three are live and schedulable now.
    assert_eq!(rm.reschedule(SimTime::from_secs(400)).len(), 3);
}

#[test]
fn reactivated_job_failure_requeues_without_redeferral() {
    let cfg = MrcpConfig {
        retry_budget: 1,
        ..Default::default()
    };
    let mut rm = MrcpRm::new(cfg, homogeneous_cluster(1, 1, 1));
    rm.submit(mk_job(0, 5, 10_000, 10), SimTime::ZERO).unwrap();
    assert_eq!(rm.activate_due(SimTime::from_secs(5)), 1);
    let plan = rm.reschedule(SimTime::from_secs(5));
    rm.task_started(plan[0].task, plan[0].start).unwrap();

    // The attempt fails within the retry budget: the job goes
    // back to the waiting queue, not the deferred queue — its
    // s_j has passed.
    let act = rm.task_failed(plan[0].task, SimTime::from_secs(8)).unwrap();
    assert_eq!(act, FailureAction::Requeued { failed_attempts: 1 });
    assert_eq!(rm.next_activation(), None, "no re-deferral");
    let plan = rm.reschedule(SimTime::from_secs(8));
    assert_eq!(plan.len(), 1);
    assert!(plan[0].start >= SimTime::from_secs(8));
}

#[test]
fn retry_exhaustion_abandons_previously_deferred_job() {
    let cfg = MrcpConfig {
        retry_budget: 0,
        ..Default::default()
    };
    let mut rm = MrcpRm::new(cfg, homogeneous_cluster(1, 1, 1));
    rm.submit(mk_job(0, 5, 10_000, 10), SimTime::ZERO).unwrap();
    rm.activate_due(SimTime::from_secs(5));
    let plan = rm.reschedule(SimTime::from_secs(5));
    rm.task_started(plan[0].task, plan[0].start).unwrap();
    match rm.task_failed(plan[0].task, SimTime::from_secs(6)).unwrap() {
        FailureAction::JobAbandoned(ab) => assert_eq!(ab.job, JobId(0)),
        other => panic!("expected abandonment, got {other:?}"),
    }
    assert_eq!(rm.jobs_in_system(), 0);
    assert_eq!(rm.next_activation(), None, "no stale activation");
}

#[test]
fn shedding_a_deferred_job_clears_its_activation() {
    let cfg = MrcpConfig {
        admission: AdmissionConfig {
            policy: AdmissionPolicy::BestEffort,
            max_pending_jobs: Some(1),
        },
        ..Default::default()
    };
    let mut rm = MrcpRm::new(cfg, homogeneous_cluster(1, 1, 1));
    // A lax, far-future job parks in the deferred queue.
    rm.submit_with_admission(mk_job(0, 500, 10_000, 10), SimTime::ZERO)
        .unwrap();
    assert_eq!(rm.next_activation(), Some(SimTime::from_secs(500)));
    // An urgent arrival sheds it; its activation must go with it.
    let out = rm
        .submit_with_admission(mk_job(1, 0, 100, 10), SimTime::ZERO)
        .unwrap();
    assert_eq!(out.shed.len(), 1);
    assert_eq!(out.shed[0].job, JobId(0));
    assert_eq!(rm.next_activation(), None, "stale activation cleared");
    assert_eq!(rm.jobs_in_system(), 1);
}

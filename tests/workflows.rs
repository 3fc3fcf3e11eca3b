//! Integration tests for the workflow (DAG) extension — the paper's §VII
//! future work — across the full stack: builder → manager → CP solver →
//! simulator.

use desim::{RngStreams, SimTime};
use mrcp::sim_driver::simulate_detailed;
use mrcp::{MrcpConfig, MrcpRm, ResourceManager, SimConfig};
use workload::model::homogeneous_cluster;
use workload::workflow::{random_workflow, WorkflowBuilder};
use workload::{Job, JobId, TaskId, TaskKind};

fn chain_job(id: u32, base: u32, lens: &[i64], deadline_s: i64) -> (Job, Vec<TaskId>) {
    let mut b = WorkflowBuilder::new(
        JobId(id),
        base,
        SimTime::ZERO,
        SimTime::ZERO,
        SimTime::from_secs(deadline_s),
    );
    let mut ids = Vec::new();
    let mut prev: Option<TaskId> = None;
    for &l in lens {
        let t = b.task(TaskKind::Map, SimTime::from_secs(l));
        if let Some(p) = prev {
            b.after(p, t);
        }
        prev = Some(t);
        ids.push(t);
    }
    (b.build().unwrap(), ids)
}

/// A pure chain serializes even on a wide cluster.
#[test]
fn chain_workflow_serializes() {
    let (job, ids) = chain_job(0, 0, &[5, 7, 3], 100);
    let cluster = homogeneous_cluster(4, 2, 2);
    let mut rm = MrcpRm::new(
        MrcpConfig {
            verify_schedules: true,
            ..Default::default()
        },
        cluster,
    );
    rm.submit(job, SimTime::ZERO).unwrap();
    let plan = rm.reschedule(SimTime::ZERO);
    let start = |t: TaskId| plan.iter().find(|e| e.task == t).unwrap().start;
    let end = |t: TaskId| plan.iter().find(|e| e.task == t).unwrap().end;
    assert!(start(ids[1]) >= end(ids[0]));
    assert!(start(ids[2]) >= end(ids[1]));
    // The chain is tight: 5 + 7 + 3 = 15s total.
    assert_eq!(end(ids[2]), SimTime::from_secs(15));
}

/// Incremental rescheduling keeps DAG edges intact around pinned tasks: a
/// new job arriving mid-chain must not let later chain stages jump their
/// still-running predecessor.
#[test]
fn incremental_reschedule_respects_dag() {
    let (job, ids) = chain_job(0, 0, &[10, 5], 100);
    let cluster = homogeneous_cluster(1, 1, 1);
    let mut rm = MrcpRm::new(
        MrcpConfig {
            verify_schedules: true,
            ..Default::default()
        },
        cluster,
    );
    rm.submit(job, SimTime::ZERO).unwrap();
    let plan = rm.reschedule(SimTime::ZERO);
    let first = *plan.iter().find(|e| e.task == ids[0]).unwrap();
    rm.task_started(first.task, first.start).unwrap();

    // Urgent job arrives at t=2 while the chain head runs.
    let (urgent, _) = chain_job(1, 100, &[3], 20);
    rm.submit(urgent, SimTime::from_secs(2)).unwrap();
    let plan = rm.reschedule(SimTime::from_secs(2));
    let succ = plan.iter().find(|e| e.task == ids[1]).unwrap();
    assert!(
        succ.start >= SimTime::from_secs(10),
        "chain successor must wait for the running head (got {})",
        succ.start
    );
}

/// Random layered DAGs simulate end-to-end: the whole mix drains and the
/// audited schedules never violate an edge (the audit panics otherwise).
#[test]
fn random_dag_mix_drains() {
    let mut rng = RngStreams::new(17).stream("wf");
    let mut jobs: Vec<Job> = Vec::new();
    for i in 0..10u32 {
        let mut j = random_workflow(
            &mut rng,
            JobId(i),
            i * 1000,
            SimTime::from_secs(i as i64 * 20),
            3.0,
            3,
            3,
            8,
        );
        // arrivals must be the generator's arrival; keep as built.
        j.arrival = SimTime::from_secs(i as i64 * 20);
        j.earliest_start = j.arrival;
        jobs.push(j);
    }
    let cluster = homogeneous_cluster(2, 2, 2);
    let mut sim = SimConfig::default();
    sim.manager.verify_schedules = true;
    let (m, outcomes) = simulate_detailed(&sim, &cluster, jobs);
    assert_eq!(m.completed, 10);
    for o in &outcomes {
        assert_eq!(o.late, o.completion > o.deadline);
    }
}

/// Workflows and plain MapReduce jobs coexist in one scheduling round.
#[test]
fn mixed_workflow_and_mapreduce() {
    let (wf, _) = chain_job(0, 0, &[4, 4, 4], 60);
    let mut plain = chain_job(1, 100, &[6], 30).0;
    plain.precedences.clear();
    let cluster = homogeneous_cluster(2, 1, 1);
    let mut sim = SimConfig::default();
    sim.manager.verify_schedules = true;
    let (m, _) = simulate_detailed(&sim, &cluster, vec![wf, plain]);
    assert_eq!(m.completed, 2);
    assert_eq!(m.late, 0, "both fit their SLAs");
}

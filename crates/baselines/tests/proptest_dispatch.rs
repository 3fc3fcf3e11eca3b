#![allow(clippy::type_complexity)]
//! Property tests for the dispatch baselines on the simulation driver:
//! conservation of work, causality and metric consistency under every
//! policy, with and without fault injection.

use baselines::{DispatchRm, Policy};
use desim::SimTime;
use mrcp::{simulate_with, JobOutcome, RunMetrics, SimConfig};
use proptest::prelude::*;
use workload::model::homogeneous_cluster;
use workload::{FaultConfig, Job, JobId, Outage, Resource, ResourceId, Task, TaskId, TaskKind};

const POLICIES: [Policy; 4] = [Policy::Fcfs, Policy::Edf, Policy::MinEdf, Policy::MinEdfWc];

#[derive(Debug, Clone)]
struct W {
    slots: (u32, u32),
    jobs: Vec<(i64, i64, i64, Vec<i64>, Vec<i64>)>, // arrival, s-offset, window, maps, reduces
}

fn workload() -> impl Strategy<Value = W> {
    let job = (
        0i64..=50,
        0i64..=20,
        5i64..=100,
        prop::collection::vec(1i64..=8, 1..=4),
        prop::collection::vec(1i64..=6, 0..=2),
    );
    ((1u32..=3, 1u32..=3), prop::collection::vec(job, 1..=6))
        .prop_map(|(slots, jobs)| W { slots, jobs })
}

fn jobs_of(w: &W) -> Vec<Job> {
    let mut next_task = 0u32;
    let mut out: Vec<Job> = w
        .jobs
        .iter()
        .enumerate()
        .map(|(i, (arr, s_off, window, maps, reduces))| {
            let mut mk = |kind, secs: i64| {
                let t = Task {
                    id: TaskId(next_task),
                    job: JobId(i as u32),
                    kind,
                    exec_time: SimTime::from_secs(secs),
                    req: 1,
                };
                next_task += 1;
                t
            };
            let arrival = SimTime::from_secs(*arr);
            let start = arrival + SimTime::from_secs(*s_off);
            Job {
                id: JobId(i as u32),
                arrival,
                earliest_start: start,
                deadline: start + SimTime::from_secs(*window),
                map_tasks: maps.iter().map(|&s| mk(TaskKind::Map, s)).collect(),
                reduce_tasks: reduces.iter().map(|&s| mk(TaskKind::Reduce, s)).collect(),
            }
        })
        .collect();
    out.sort_by_key(|j| j.arrival);
    out
}

/// One resource holding the workload's map and reduce slots.
fn cluster(w: &W) -> Vec<Resource> {
    vec![Resource {
        id: ResourceId(0),
        map_capacity: w.slots.0,
        reduce_capacity: w.slots.1,
    }]
}

fn run(
    policy: Policy,
    sim: &SimConfig,
    res: &[Resource],
    jobs: Vec<Job>,
) -> (RunMetrics, Vec<JobOutcome>) {
    let (m, outcomes, _) =
        simulate_with(sim, res, jobs, |c| DispatchRm::new(policy, c, res.to_vec()));
    (m, outcomes)
}

fn check_policy(w: &W, policy: Policy) -> Result<(), TestCaseError> {
    let jobs = jobs_of(w);
    let n = jobs.len();
    // Per-job critical path: completion ≥ s_j + longest map + longest reduce.
    let lower: std::collections::HashMap<JobId, SimTime> = jobs
        .iter()
        .map(|j| {
            let longest = |ts: &[Task]| {
                ts.iter()
                    .map(|t| t.exec_time)
                    .max()
                    .unwrap_or(SimTime::ZERO)
            };
            (
                j.id,
                j.earliest_start + longest(&j.map_tasks) + longest(&j.reduce_tasks),
            )
        })
        .collect();

    let (m, outcomes) = run(policy, &SimConfig::default(), &cluster(w), jobs);
    prop_assert_eq!(m.completed, n, "work conservation: every job finishes");
    prop_assert_eq!(outcomes.len(), n);
    let late = outcomes.iter().filter(|o| o.late).count();
    prop_assert_eq!(m.late, late);
    for o in &outcomes {
        prop_assert!(
            o.completion >= lower[&o.job],
            "{:?} finished at {} before its critical path bound {}",
            o.job,
            o.completion,
            lower[&o.job]
        );
        prop_assert_eq!(o.late, o.completion > o.deadline);
    }
    // Completion order nondecreasing.
    for pair in outcomes.windows(2) {
        prop_assert!(pair[1].completion >= pair[0].completion);
    }
    Ok(())
}

fn faults() -> impl Strategy<Value = (FaultConfig, u64)> {
    (
        0.0f64..=0.5,
        0.0f64..=0.3,
        1.1f64..=3.0,
        0u32..=3,
        any::<bool>(),
        0i64..=60,
        1i64..=40,
        0u64..=u64::MAX,
    )
        .prop_map(
            |(p_fail, p_straggle, factor_hi, retries, outage, outage_at, outage_len, seed)| {
                let cfg = FaultConfig {
                    task_failure_prob: p_fail,
                    straggler_prob: p_straggle,
                    straggler_factor: (1.0, factor_hi),
                    retry_budget: retries,
                    scheduled_outages: if outage {
                        vec![Outage {
                            resource: ResourceId(0),
                            at: SimTime::from_secs(outage_at),
                            duration: SimTime::from_secs(outage_len),
                        }]
                    } else {
                        vec![]
                    },
                    ..Default::default()
                };
                (cfg, seed)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fcfs_invariants(w in workload()) {
        check_policy(&w, Policy::Fcfs)?;
    }

    #[test]
    fn edf_invariants(w in workload()) {
        check_policy(&w, Policy::Edf)?;
    }

    #[test]
    fn minedf_wc_invariants(w in workload()) {
        check_policy(&w, Policy::MinEdfWc)?;
    }

    #[test]
    fn minedf_invariants(w in workload()) {
        check_policy(&w, Policy::MinEdf)?;
    }

    /// Work conservation is NOT a makespan dominance (greedy list
    /// scheduling suffers the classic Graham anomaly: grabbing a spare slot
    /// for a long task can delay the critical chain behind the reduce
    /// barrier). What does hold: both variants conserve work — identical
    /// completion *sets*, only timing differs.
    #[test]
    fn wc_and_non_wc_complete_the_same_jobs(w in workload()) {
        let sim = SimConfig::default();
        let (a, ao) = run(Policy::Edf, &sim, &cluster(&w), jobs_of(&w));
        let (b, bo) = run(Policy::MinEdf, &sim, &cluster(&w), jobs_of(&w));
        prop_assert_eq!(a.completed, b.completed);
        let mut aj: Vec<_> = ao.iter().map(|o| o.job).collect();
        let mut bj: Vec<_> = bo.iter().map(|o| o.job).collect();
        aj.sort_unstable();
        bj.sort_unstable();
        prop_assert_eq!(aj, bj);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Task failures, stragglers and outages reach every policy through the
    /// driver: each run drains, every arrival completes once or is
    /// abandoned after its retry budget, and the fault counters agree.
    #[test]
    fn faults_drain_under_every_policy(
        (w, (fcfg, seed), m) in (workload(), faults(), 1u32..=3)
    ) {
        let res = homogeneous_cluster(m, w.slots.0, w.slots.1);
        let sim = SimConfig { faults: fcfg, fault_seed: seed, ..SimConfig::default() };
        for policy in POLICIES {
            let jobs = jobs_of(&w);
            let n = jobs.len();
            let (m, outcomes) = run(policy, &sim, &res, jobs);
            prop_assert_eq!(m.arrived, n);
            prop_assert_eq!(m.check_conservation(), Ok(()), "{:?}", policy);
            prop_assert_eq!(outcomes.len(), m.completed);
            let mut ids: Vec<JobId> = outcomes.iter().map(|o| o.job).collect();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), m.completed, "{:?}: a job completed twice", policy);
            if m.jobs_abandoned > 0 {
                prop_assert!(m.tasks_failed > 0);
            }
            if m.tasks_requeued > 0 {
                prop_assert!(m.tasks_failed > 0 || m.resource_crashes > 0);
            }
            for o in &outcomes {
                prop_assert!(o.completion >= o.earliest_start);
                prop_assert_eq!(o.late, o.completion > o.deadline);
            }
        }
    }
}

#![allow(clippy::type_complexity, clippy::field_reassign_with_default)]
//! Work conservation under random fault injection: whatever combination of
//! task failures, stragglers, and resource outages is thrown at the
//! simulator, every arrived job either completes exactly once or is
//! abandoned after exhausting its retry budget — nothing is lost, nothing
//! is duplicated, and no completed job leaves queued tasks behind. The
//! manager's state machine is exercised with `verify_schedules` on, so any
//! double-placement or capacity violation fails the independent audit (and
//! any stale-event mishandling trips the driver's own expectations).

use desim::SimTime;
use mrcp::sim_driver::simulate_detailed;
use mrcp::{MrcpConfig, SimConfig, SolveBudget};
use proptest::prelude::*;
use workload::model::homogeneous_cluster;
use workload::{FaultConfig, Job, JobId, Outage, Resource, Task, TaskId, TaskKind};

#[derive(Debug, Clone)]
struct W {
    cluster: Vec<Resource>,
    jobs: Vec<(i64, i64, i64, Vec<i64>, Vec<i64>)>,
}

fn workload() -> impl Strategy<Value = W> {
    let cluster =
        (1u32..=3, 1u32..=2, 1u32..=2).prop_map(|(m, cm, cr)| homogeneous_cluster(m, cm, cr));
    let job = (
        0i64..=40,
        0i64..=15,
        5i64..=80,
        prop::collection::vec(1i64..=6, 1..=3),
        prop::collection::vec(1i64..=4, 0..=2),
    );
    (cluster, prop::collection::vec(job, 1..=6)).prop_map(|(cluster, jobs)| W { cluster, jobs })
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
                            resource: workload::ResourceId(0),
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

fn jobs_of(w: &W) -> Vec<Job> {
    let mut next_task = 0u32;
    let mut jobs: Vec<Job> = w
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
    jobs.sort_by_key(|j| j.arrival);
    jobs
}

fn sim_config(faults: FaultConfig, fault_seed: u64) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.manager = MrcpConfig {
        verify_schedules: true, // every installed schedule independently checked
        budget: SolveBudget {
            node_limit: 2_000,
            fail_limit: 2_000,
            adaptive: None,
            ..SolveBudget::default()
        },
        ..Default::default()
    };
    cfg.faults = faults;
    cfg.fault_seed = fault_seed;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Work is conserved under arbitrary fault injection.
    #[test]
    fn faults_conserve_work((w, (fcfg, seed)) in (workload(), faults())) {
        let jobs = jobs_of(&w);
        let n = jobs.len();
        let (m, outcomes) = simulate_detailed(&sim_config(fcfg, seed), &w.cluster, jobs);
        prop_assert_eq!(m.arrived, n);
        // Every job either completes once or is abandoned — none lost.
        prop_assert_eq!(m.completed + m.jobs_abandoned, n);
        prop_assert_eq!(outcomes.len(), m.completed);
        let mut ids: Vec<JobId> = outcomes.iter().map(|o| o.job).collect();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), m.completed, "a job completed twice");
        // Requeues can only come from failures or crash interruptions.
        if m.tasks_requeued > 0 {
            prop_assert!(m.tasks_failed > 0 || m.resource_crashes > 0);
        }
        // Abandonment requires at least one failed attempt.
        if m.jobs_abandoned > 0 {
            prop_assert!(m.tasks_failed > 0);
        }
        for o in &outcomes {
            prop_assert!(o.completion >= o.earliest_start);
            prop_assert_eq!(o.late, o.completion > o.deadline);
        }
    }

    /// With faults disabled the new machinery is invisible: metrics match a
    /// plain run field for field.
    #[test]
    fn inert_faults_change_nothing(w in workload()) {
        let base = {
            let mut c = sim_config(FaultConfig::default(), 0);
            c.fault_seed = 123; // seed is irrelevant when inactive
            c
        };
        let jobs = jobs_of(&w);
        let (a, ao) = simulate_detailed(&base, &w.cluster, jobs.clone());
        let (b, bo) = simulate_detailed(&sim_config(FaultConfig::default(), 0), &w.cluster, jobs);
        prop_assert_eq!(ao, bo);
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.tasks_failed, 0u64);
        prop_assert_eq!(a.tasks_requeued, 0u64);
        prop_assert_eq!(a.stragglers, 0u64);
        prop_assert_eq!(a.resource_crashes, 0u64);
        prop_assert_eq!(a.jobs_abandoned, 0usize);
    }
}

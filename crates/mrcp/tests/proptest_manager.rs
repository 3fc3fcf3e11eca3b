#![allow(clippy::type_complexity, clippy::field_reassign_with_default)]
//! Property tests for MRCP-RM over random open-system workloads: the
//! pipeline always drains, outcomes are consistent, schedules are audited,
//! and runs are deterministic.

use desim::SimTime;
use mrcp::sim_driver::simulate_detailed;
use mrcp::{MrcpConfig, SimConfig, SolveBudget};
use proptest::prelude::*;
use workload::model::{heterogeneous_cluster, homogeneous_cluster};
use workload::{Job, JobId, Resource, Task, TaskId, TaskKind};

#[derive(Debug, Clone)]
struct W {
    cluster: Vec<Resource>,
    jobs: Vec<(i64, i64, i64, Vec<i64>, Vec<i64>)>,
}

fn workload() -> impl Strategy<Value = W> {
    let hom = (1u32..=3, 1u32..=2, 1u32..=2).prop_map(|(m, cm, cr)| homogeneous_cluster(m, cm, cr));
    let het = prop::collection::vec((1u32..=2, 0u32..=2), 2..=3).prop_map(|caps| {
        // guarantee at least one reduce slot somewhere
        let mut caps = caps;
        if caps.iter().all(|c| c.1 == 0) {
            caps[0].1 = 1;
        }
        heterogeneous_cluster(&caps)
    });
    let cluster = prop_oneof![hom, het];
    let job = (
        0i64..=40,
        0i64..=15,
        5i64..=80,
        prop::collection::vec(1i64..=6, 1..=3),
        prop::collection::vec(1i64..=4, 0..=2),
    );
    (cluster, prop::collection::vec(job, 1..=6)).prop_map(|(cluster, jobs)| W { cluster, jobs })
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
                precedences: vec![],
            }
        })
        .collect();
    jobs.sort_by_key(|j| j.arrival);
    jobs
}

fn audited_config() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.manager = MrcpConfig {
        verify_schedules: true, // every installed schedule independently checked
        budget: SolveBudget {
            node_limit: 2_000,
            fail_limit: 2_000,
            time_limit_ms: Some(50),
            adaptive: None,
            warm_start: true,
            workers: 1,
        },
        ..Default::default()
    };
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every workload drains with consistent, audited outcomes — on
    /// homogeneous and heterogeneous clusters alike.
    #[test]
    fn open_system_always_drains(w in workload()) {
        let jobs = jobs_of(&w);
        let n = jobs.len();
        let (m, outcomes) = simulate_detailed(&audited_config(), &w.cluster, jobs);
        prop_assert_eq!(m.arrived, n);
        prop_assert_eq!(m.completed, n);
        prop_assert_eq!(m.late, outcomes.iter().filter(|o| o.late).count());
        for o in &outcomes {
            prop_assert!(o.completion >= o.earliest_start);
            prop_assert_eq!(o.late, o.completion > o.deadline);
        }
        prop_assert!(m.p95_turnaround_s <= m.max_turnaround_s + 1e-9);
        prop_assert!(m.mean_turnaround_s <= m.max_turnaround_s + 1e-9);
    }

    /// Identical inputs → identical simulated outcomes (solver budget and
    /// wall clock do not leak into simulated behaviour).
    #[test]
    fn runs_are_reproducible(w in workload()) {
        let (a, ao) = simulate_detailed(&audited_config(), &w.cluster, jobs_of(&w));
        let (b, bo) = simulate_detailed(&audited_config(), &w.cluster, jobs_of(&w));
        prop_assert_eq!(ao, bo);
        prop_assert_eq!(a.late, b.late);
        prop_assert_eq!(a.invocations, b.invocations);
    }

    /// The split (§V.D) and monolithic paths both drain every workload with
    /// verified schedules.
    #[test]
    fn split_and_full_both_audit_clean(w in workload()) {
        let jobs = jobs_of(&w);
        let mut full_cfg = audited_config();
        full_cfg.manager.use_split = false;
        let (split, _) = simulate_detailed(&audited_config(), &w.cluster, jobs.clone());
        let (full, _) = simulate_detailed(&full_cfg, &w.cluster, jobs);
        prop_assert_eq!(split.completed, full.completed);
    }
}

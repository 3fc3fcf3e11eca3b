#![allow(clippy::type_complexity, clippy::field_reassign_with_default)]
//! Property tests for MRCP-RM over random open-system workloads: the
//! pipeline always drains, outcomes are consistent, schedules are audited,
//! and runs are deterministic. The admission witness, which list-schedules
//! what can delay its candidate on the greedy's slot calendar with no
//! model, answers as the greedy over the full model, and the greedy rung,
//! the same walk over every job, places each task as that greedy does.

use cpsolve::greedy::greedy_edf;
use desim::SimTime;
use mrcp::list::{greedy, key, per_resource};
use mrcp::modelmap::{build_model, JobInput, TaskInput};
use mrcp::sim_driver::simulate_detailed;
use mrcp::{BudgetController, MrcpConfig, SimConfig, SolveBudget};
use proptest::prelude::*;
use std::time::Duration;
use workload::model::{heterogeneous_cluster, homogeneous_cluster};
use workload::{Job, JobId, Resource, ResourceId, Task, TaskId, TaskKind};

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
            adaptive: None,
            ..SolveBudget::default()
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

    /// The split (§V.D) rung and the greedy rung both drain every workload
    /// with verified schedules: under a zero latency ceiling the budget
    /// controller sends every round from the fourth on straight to greedy.
    #[test]
    fn split_and_greedy_both_audit_clean(w in workload()) {
        let jobs = jobs_of(&w);
        let mut greedy_cfg = audited_config();
        greedy_cfg.manager.controller = Some(BudgetController::with_ceiling(Duration::ZERO));
        let (split, _) = simulate_detailed(&audited_config(), &w.cluster, jobs.clone());
        let (greedy, _) = simulate_detailed(&greedy_cfg, &w.cluster, jobs);
        prop_assert_eq!(split.completed, greedy.completed);
        prop_assert_eq!((split.failed_rounds, greedy.failed_rounds), (0, 0));
        prop_assert!(greedy.degraded_rounds > 0 || greedy.invocations <= 3);
    }
}

/// One job of an admission-probe state: release offset (s, > 0 = a
/// deferred future start), deadline offset (s), priority, map and reduce
/// execution times (s), and phase: 0 nothing started, 1 its first maps
/// running, 2 maps done and its first reduce running.
type ProbeJob = (i64, i64, i64, Vec<i64>, Vec<i64>, u8);

#[derive(Debug, Clone)]
struct ProbeState {
    /// Per-resource `(map, reduce)` slots.
    cluster: Vec<(u32, u32)>,
    /// The resource that is down (none when out of range).
    down: usize,
    /// Priority = deadline (EDF), else the drawn small, tie-prone value.
    edf: bool,
    live: Vec<ProbeJob>,
    /// Its phase is ignored: a candidate has started nothing.
    candidate: ProbeJob,
}

const NOW: SimTime = SimTime(100_000);

fn probe_state() -> impl Strategy<Value = ProbeState> {
    // Few distinct deadlines and priorities, so `(priority, deadline,
    // release)` ties are common.
    let live = (
        prop_oneof![Just(0i64), Just(0), 5i64..=30],
        prop_oneof![Just(10i64), Just(20), Just(40), Just(80)],
        0i64..=2,
        prop::collection::vec(1i64..=6, 1..=3),
        prop::collection::vec(1i64..=4, 0..=2),
        0u8..=2,
    );
    let candidate = (
        prop_oneof![Just(0i64), Just(10)],
        // Sorts first, ties with or sits among the live deadlines, or last.
        (0usize..6).prop_map(|k| [1i64, 10, 20, 40, 80, 500][k]),
        0i64..=2,
        prop::collection::vec(1i64..=6, 1..=3),
        prop::collection::vec(1i64..=4, 0..=2),
        Just(0u8),
    );
    (
        prop::collection::vec((1u32..=2, 0u32..=2), 2..=4),
        0usize..=4,
        any::<bool>(),
        prop::collection::vec(live, 0..=8),
        candidate,
    )
        .prop_map(|(cluster, down, edf, live, candidate)| ProbeState {
            cluster,
            down,
            edf,
            live,
            candidate,
        })
}

/// A probe state made concrete: the up resources, the jobs (candidate
/// last) and, per job, its release, priority and outstanding tasks.
struct ProbeCase {
    up: Vec<Resource>,
    jobs: Vec<Job>,
    outstanding: Vec<(SimTime, i64, Vec<TaskInput>)>,
}

impl ProbeCase {
    fn new(s: &ProbeState) -> ProbeCase {
        let mut caps = s.cluster.clone();
        let up_idx: Vec<usize> = (0..caps.len()).filter(|&i| i != s.down).collect();
        if up_idx.iter().all(|&i| caps[i].1 == 0) {
            caps[up_idx[0]].1 = 1; // some up resource can run reduces
        }
        let cluster = heterogeneous_cluster(&caps);
        let up: Vec<Resource> = up_idx.iter().map(|&i| cluster[i]).collect();
        // Free slots per up resource and kind, so no two pins collide.
        let mut free: Vec<(ResourceId, u32, u32)> = up
            .iter()
            .map(|r| (r.id, r.map_capacity, r.reduce_capacity))
            .collect();
        let mut pin = |kind: TaskKind, exec: SimTime| {
            let slot = free.iter_mut().find(|f| match kind {
                TaskKind::Map => f.1 > 0,
                TaskKind::Reduce => f.2 > 0,
            })?;
            match kind {
                TaskKind::Map => slot.1 -= 1,
                TaskKind::Reduce => slot.2 -= 1,
            }
            Some((slot.0, NOW - SimTime::from_millis(exec.as_millis() / 2)))
        };
        let mut next_task = 0u32;
        let (mut jobs, mut outstanding) = (Vec::new(), Vec::new());
        for (i, (rel, dl, prio, maps, reduces, phase)) in
            s.live.iter().chain([&s.candidate]).enumerate()
        {
            let id = JobId(i as u32);
            let mut mk = |kind, secs: i64| {
                next_task += 1;
                Task {
                    id: TaskId(next_task),
                    job: id,
                    kind,
                    exec_time: SimTime::from_secs(secs),
                    req: 1,
                }
            };
            let job = Job {
                id,
                arrival: NOW,
                earliest_start: NOW + SimTime::from_secs(*rel),
                deadline: NOW + SimTime::from_secs(*dl),
                map_tasks: maps.iter().map(|&x| mk(TaskKind::Map, x)).collect(),
                reduce_tasks: reduces.iter().map(|&x| mk(TaskKind::Reduce, x)).collect(),
            };
            let mut tasks = Vec::new();
            for (k, t) in job.map_tasks.iter().enumerate() {
                let pinned = match phase {
                    1 if 2 * k < job.map_tasks.len() => pin(t.kind, t.exec_time),
                    2 => continue, // completed
                    _ => None,
                };
                tasks.push(task_input(t, pinned));
            }
            for (k, t) in job.reduce_tasks.iter().enumerate() {
                let pinned = if *phase == 2 && k == 0 {
                    pin(t.kind, t.exec_time)
                } else {
                    None
                };
                tasks.push(task_input(t, pinned));
            }
            let priority = if s.edf {
                job.deadline.as_millis()
            } else {
                *prio
            };
            outstanding.push((job.earliest_start.max(NOW), priority, tasks));
            jobs.push(job);
        }
        ProbeCase {
            up,
            jobs,
            outstanding,
        }
    }

    /// The probe's witness inputs, candidate last; a job with nothing
    /// outstanding is left out, as the manager leaves it out.
    fn inputs(&self) -> Vec<JobInput<'_>> {
        self.jobs
            .iter()
            .zip(&self.outstanding)
            .filter(|(_, (_, _, tasks))| !tasks.is_empty())
            .map(|(job, (release, priority, tasks))| JobInput {
                job,
                release: *release,
                priority: *priority,
                tasks: tasks.clone(),
            })
            .collect()
    }
}

fn task_input(t: &Task, pinned: Option<(ResourceId, SimTime)>) -> TaskInput {
    TaskInput {
        id: t.id,
        kind: t.kind,
        exec_time: t.exec_time,
        req: t.req,
        pinned,
    }
}

/// The witness over model inputs, as the manager's probe walks its job
/// table: the completion of the candidate, the last job of `inputs`, in the
/// list scheduler on the `up` resources, cut at the candidate's key.
fn witness_completion(up: &[Resource], inputs: &[JobInput<'_>]) -> Option<SimTime> {
    let mut walk = per_resource(up.iter(), Some(key(inputs.last()?)));
    walk.schedule(inputs, None).map(SimTime::from_millis)
}

/// The candidate's completion in `greedy_edf` over the full model of
/// `inputs`: the latest end among the candidate's tasks, found by id.
fn full_witness(up: &[Resource], inputs: &[JobInput<'_>]) -> Option<SimTime> {
    let mm = build_model(up, inputs).ok()?;
    let g = greedy_edf(&mm.model).ok()?;
    let cand = inputs.last()?;
    (0..mm.task_ids.len())
        .filter(|&i| cand.tasks.iter().any(|t| t.id == mm.task_ids[i]))
        .map(|i| SimTime::from_millis(g.starts[i] + mm.model.tasks[i].dur))
        .max()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Over random live states (pins on up resources, deferred jobs,
    /// order-key ties, one resource down, the candidate's deadline first,
    /// among or after the others), the witness, which places only what can
    /// delay the candidate and builds no model, completes it exactly when
    /// the greedy over the full model of every input does. The greedy
    /// rung, the same list scheduler with no cut, places every task where
    /// that greedy does.
    #[test]
    fn trimmed_witness_matches_full_greedy(s in probe_state()) {
        let case = ProbeCase::new(&s);
        let inputs = case.inputs();
        let full = full_witness(&case.up, &inputs);
        prop_assert!(full.is_some(), "pins never collide and every kind has a host");
        prop_assert_eq!(witness_completion(&case.up, &inputs), full);
        let mm = build_model(&case.up, &inputs).unwrap();
        let g = greedy_edf(&mm.model).unwrap();
        let model: Vec<_> = (0..mm.task_ids.len())
            .map(|i| {
                let start = SimTime::from_millis(g.starts[i]);
                (mm.task_ids[i], mm.res_ids[g.resource[i].idx()], start)
            })
            .collect();
        prop_assert_eq!(greedy(&case.up, &inputs), Some(model));
    }
}

/// A task of `job` taking `ms` milliseconds.
fn probe_task(id: u32, job: u32, kind: TaskKind, ms: i64, req: u32) -> Task {
    Task {
        id: TaskId(id),
        job: JobId(job),
        kind,
        exec_time: SimTime::from_millis(ms),
        req,
    }
}

/// A job of `tasks` released at `start` ms, due at `deadline` ms.
fn probe_job(id: u32, start: i64, deadline: i64, tasks: Vec<Task>) -> Job {
    let (map_tasks, reduce_tasks) = tasks.into_iter().partition(|t| t.kind == TaskKind::Map);
    Job {
        id: JobId(id),
        arrival: SimTime::ZERO,
        earliest_start: SimTime::from_millis(start),
        deadline: SimTime::from_millis(deadline),
        map_tasks,
        reduce_tasks,
    }
}

/// `job` with nothing started, in EDF order.
fn free_input(job: &Job) -> JobInput<'_> {
    JobInput {
        job,
        release: job.earliest_start,
        priority: job.deadline.as_millis(),
        tasks: job.tasks().map(|t| task_input(t, None)).collect(),
    }
}

/// A job after the candidate with a free task the greedy cannot place (no
/// up resource hosts it, or it needs two slots) makes the full witness
/// fail; the witness, which never places that job, fails with it.
#[test]
fn witness_fails_when_a_later_job_cannot_be_placed() {
    let up = homogeneous_cluster(2, 1, 0); // no reduce slot is up
    let cand = probe_job(
        1,
        0,
        50_000,
        vec![probe_task(2, 1, TaskKind::Map, 5_000, 1)],
    );
    for (kind, req) in [(TaskKind::Reduce, 1), (TaskKind::Map, 2)] {
        let later = probe_job(
            0,
            0,
            500_000,
            vec![
                probe_task(0, 0, TaskKind::Map, 5_000, 1),
                probe_task(1, 0, kind, 5_000, req),
            ],
        );
        let inputs = vec![free_input(&later), free_input(&cand)];
        assert_eq!(full_witness(&up, &inputs), None, "{kind:?} req {req}");
        assert_eq!(witness_completion(&up, &inputs), None, "{kind:?} req {req}");
    }
}

/// `job` with its first task running on `resource` from `start` ms.
fn with_running_map(job: &Job, resource: u32, start: i64) -> JobInput<'_> {
    let mut input = free_input(job);
    input.tasks[0].pinned = Some((ResourceId(resource), SimTime::from_millis(start)));
    input
}

/// A running task pinned onto a resource that is not up (down, so not in
/// the witness's resource list) fails the witness, as it fails the model.
#[test]
fn witness_fails_on_a_pin_onto_a_down_resource() {
    let cluster = homogeneous_cluster(2, 1, 1);
    let up = vec![cluster[0]]; // resource 1 is down
    let later = probe_job(
        0,
        0,
        500_000,
        vec![probe_task(0, 0, TaskKind::Map, 5_000, 1)],
    );
    let cand = probe_job(
        1,
        0,
        50_000,
        vec![probe_task(1, 1, TaskKind::Map, 5_000, 1)],
    );
    let on_up = vec![with_running_map(&later, 0, 0), free_input(&cand)];
    assert_eq!(
        full_witness(&up, &on_up),
        Some(SimTime::from_millis(10_000))
    );
    assert_eq!(witness_completion(&up, &on_up), full_witness(&up, &on_up));
    let on_down = vec![with_running_map(&later, 1, 0), free_input(&cand)];
    assert_eq!(full_witness(&up, &on_down), None);
    assert_eq!(witness_completion(&up, &on_down), None);
}

/// Two running tasks pinned into the one map slot of a resource over
/// overlapping times collide: the witness fails, as the greedy over the
/// model does.
#[test]
fn witness_fails_when_two_pins_collide() {
    let up = homogeneous_cluster(1, 1, 1);
    let a = probe_job(
        0,
        0,
        500_000,
        vec![probe_task(0, 0, TaskKind::Map, 5_000, 1)],
    );
    let b = probe_job(
        1,
        0,
        500_000,
        vec![probe_task(1, 1, TaskKind::Map, 5_000, 1)],
    );
    let cand = probe_job(
        2,
        0,
        50_000,
        vec![probe_task(2, 2, TaskKind::Map, 5_000, 1)],
    );
    for (b_start, ok) in [(5_000, true), (4_999, false)] {
        let inputs = vec![
            with_running_map(&a, 0, 0),
            with_running_map(&b, 0, b_start),
            free_input(&cand),
        ];
        let expected = ok.then(|| SimTime::from_millis(15_000));
        assert_eq!(full_witness(&up, &inputs), expected, "b at {b_start}");
        assert_eq!(witness_completion(&up, &inputs), expected, "b at {b_start}");
    }
}

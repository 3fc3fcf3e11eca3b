//! `apply_surface` is faithful: executing a surface command as a
//! [`ManagerEvent`] answers with exactly what the trait method returns and
//! leaves exactly the state the trait method leaves — over random command
//! scripts (valid lifecycles interleaved with duplicates, unknown ids and
//! out-of-state calls, so the error replies are exercised too) on twin
//! managers, checked after every step.

use desim::SimTime;
use durability::{apply_surface, ManagerEvent, Reply};
use mrcp::manager::FailureAction;
use mrcp::sim_driver::ResourceManager;
use mrcp::{ManagerImage, MrcpConfig, MrcpRm, SolveBudget};
use proptest::prelude::*;
use std::collections::HashMap;
use workload::model::homogeneous_cluster;
use workload::{Job, JobId, ResourceId, Task, TaskId, TaskKind};

/// One scripted move. Indices select among whatever the reference manager
/// holds at that point (modulo its size), so a script stays meaningful as
/// state evolves; when nothing fits, the move degrades to a call on an
/// unknown id.
#[derive(Debug, Clone)]
enum Op {
    Submit(usize),
    Batch(Vec<usize>),
    Activate,
    Round,
    /// The next lifecycle event in time order: complete the running task
    /// that ends first, or start the task planned first.
    Advance,
    Revise(usize, i64),
    Fail(usize),
    Down(u32),
    Up(u32),
    Wait(i64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..5).prop_map(Op::Submit),
        prop::collection::vec(0usize..5, 0..=3).prop_map(Op::Batch),
        Just(Op::Activate),
        Just(Op::Round),
        Just(Op::Advance),
        Just(Op::Advance),
        Just(Op::Advance),
        (0usize..4, 1i64..=12).prop_map(|(k, s)| Op::Revise(k, s)),
        (0usize..4).prop_map(Op::Fail),
        (0u32..4).prop_map(Op::Down),
        (0u32..4).prop_map(Op::Up),
        (1i64..=8).prop_map(Op::Wait),
    ]
}

/// Five small jobs over disjoint task ids; job 4 starts in the future so
/// submits defer and `ActivateDue` has something to do.
fn jobs() -> Vec<Job> {
    let mut next_task = 0u32;
    (0..5u32)
        .map(|i| {
            let mut mk = |kind, secs: i64| {
                let t = Task {
                    id: TaskId(next_task),
                    job: JobId(i),
                    kind,
                    exec_time: SimTime::from_secs(secs),
                    req: 1,
                };
                next_task += 1;
                t
            };
            let start = SimTime::from_secs(if i == 4 { 20 } else { 0 });
            Job {
                id: JobId(i),
                arrival: SimTime::ZERO,
                earliest_start: start,
                deadline: start + SimTime::from_secs(40 + 10 * i64::from(i)),
                map_tasks: (0..=i % 3)
                    .map(|m| mk(TaskKind::Map, 2 + i64::from(m)))
                    .collect(),
                reduce_tasks: (0..i % 2).map(|_| mk(TaskKind::Reduce, 3)).collect(),
            }
        })
        .collect()
}

/// One portfolio worker, no wall-clock budget: twins solve identically.
fn det_manager() -> MrcpRm {
    let cfg = MrcpConfig {
        budget: SolveBudget {
            node_limit: 2_000,
            fail_limit: 2_000,
            adaptive: None,
            ..SolveBudget::default()
        },
        ..Default::default()
    };
    MrcpRm::new(cfg, homogeneous_cluster(2, 2, 1))
}

/// Wall-clock solve stats differ between any two managers.
fn canonical(mut img: ManagerImage) -> ManagerImage {
    img.stats.total_solve = std::time::Duration::ZERO;
    img.stats.max_round_solve = std::time::Duration::ZERO;
    img.latency_ewma_s = None;
    img
}

/// The reference: the trait method `ev` names, called directly, with its
/// typed result wrapped in the [`Reply`] variant that carries that type.
fn direct<R: ResourceManager>(rm: &mut R, ev: &ManagerEvent) -> Reply {
    match ev.clone() {
        ManagerEvent::SubmitWithAdmission { job, now } => rm
            .submit_with_admission(job, now)
            .map_or_else(Reply::Err, Reply::Admission),
        ManagerEvent::SubmitBatch { jobs, now } => {
            Reply::AdmissionBatch(rm.submit_batch(jobs, now))
        }
        ManagerEvent::ActivateDue { now } => Reply::Activated(rm.activate_due(now)),
        ManagerEvent::Reschedule { now } => {
            rm.reschedule(now);
            Reply::Solved
        }
        ManagerEvent::TaskStarted { task, now } => rm
            .task_started(task, now)
            .map_or_else(Reply::Err, Reply::Started),
        ManagerEvent::TaskCompleted { task, now } => rm
            .task_completed(task, now)
            .map_or_else(Reply::Err, Reply::Completed),
        ManagerEvent::TaskDurationRevised { task, new_exec } => rm
            .task_duration_revised(task, new_exec)
            .map_or_else(Reply::Err, |()| Reply::Revised),
        ManagerEvent::TaskFailed { task, now } => rm
            .task_failed(task, now)
            .map_or_else(Reply::Err, Reply::Failed),
        ManagerEvent::ResourceDown { resource, now } => rm
            .resource_down(resource, now)
            .map_or_else(Reply::Err, Reply::Interrupted),
        ManagerEvent::ResourceUp { resource, now } => rm
            .resource_up(resource, now)
            .map_or_else(Reply::Err, |()| Reply::ResourceUp),
        cell_only => panic!("{cell_only:?} is not a surface command"),
    }
}

/// Turns [`Op`]s into commands that keep the manager inside its contract
/// (tasks start at their planned instant, complete no earlier than they
/// started) and tracks what is running.
struct Script {
    jobs: Vec<Job>,
    exec: HashMap<TaskId, SimTime>,
    now: SimTime,
    /// `(task, start, end)` of every running attempt.
    running: Vec<(TaskId, SimTime, SimTime)>,
}

const NOBODY: TaskId = TaskId(999);

impl Script {
    fn new() -> Script {
        let jobs = jobs();
        let exec = jobs
            .iter()
            .flat_map(|j| j.tasks().map(|t| (t.id, t.exec_time)))
            .collect();
        Script {
            jobs,
            exec,
            now: SimTime::ZERO,
            running: Vec::new(),
        }
    }

    /// The command `op` means against the reference manager's state, and
    /// whether a round must follow (the driver replans after every
    /// capacity or duration change; skipping that would start tasks on
    /// slots the manager knows are taken).
    fn command(&mut self, op: &Op, reference: &MrcpRm) -> (ManagerEvent, bool) {
        let now = self.now;
        let pick = |k: usize| match self.running.len() {
            0 => NOBODY,
            n => self.running[k % n].0,
        };
        match op {
            Op::Submit(i) => (
                ManagerEvent::SubmitWithAdmission {
                    job: self.jobs[*i].clone(),
                    now,
                },
                false,
            ),
            Op::Batch(is) => (
                ManagerEvent::SubmitBatch {
                    jobs: is.iter().map(|&i| self.jobs[i].clone()).collect(),
                    now,
                },
                false,
            ),
            Op::Activate => (ManagerEvent::ActivateDue { now }, false),
            Op::Round => (ManagerEvent::Reschedule { now }, false),
            Op::Wait(secs) => {
                self.now = now + SimTime::from_secs(*secs);
                (ManagerEvent::ActivateDue { now: self.now }, false)
            }
            Op::Advance => {
                let next_end = self.running.iter().map(|&(t, _, end)| (end, t)).min();
                let next_start = reference.current_schedule().first().copied();
                match (next_end, next_start) {
                    // A plan entry the clock has passed can no longer be
                    // started as planned: replan instead.
                    (_, Some(e)) if e.start < now => (ManagerEvent::Reschedule { now }, false),
                    (Some((end, task)), start) if start.is_none_or(|e| end <= e.start) => {
                        self.now = now.max(end);
                        (
                            ManagerEvent::TaskCompleted {
                                task,
                                now: self.now,
                            },
                            false,
                        )
                    }
                    (_, Some(e)) => {
                        self.now = e.start;
                        (
                            ManagerEvent::TaskStarted {
                                task: e.task,
                                now: e.start,
                            },
                            false,
                        )
                    }
                    (None, None) => (ManagerEvent::TaskStarted { task: NOBODY, now }, false),
                    (Some(_), None) => unreachable!("covered by the completion arm"),
                }
            }
            Op::Revise(k, secs) => {
                let task = pick(*k);
                let started = self
                    .running
                    .iter()
                    .find(|r| r.0 == task)
                    .map_or(now, |r| r.1);
                // Never revise a running task to have ended already.
                let new_exec = SimTime::from_secs(*secs).max(now - started + SimTime::from_secs(1));
                (ManagerEvent::TaskDurationRevised { task, new_exec }, true)
            }
            Op::Fail(k) => (
                ManagerEvent::TaskFailed {
                    task: pick(*k),
                    now,
                },
                true,
            ),
            Op::Down(r) => (
                ManagerEvent::ResourceDown {
                    resource: ResourceId(*r),
                    now,
                },
                true,
            ),
            Op::Up(r) => (
                ManagerEvent::ResourceUp {
                    resource: ResourceId(*r),
                    now,
                },
                true,
            ),
        }
    }

    /// Fold the manager's answer into the running set.
    fn observe(&mut self, ev: &ManagerEvent, reply: &Reply) {
        match (ev, reply) {
            (ManagerEvent::TaskStarted { task, now }, Reply::Started(_)) => {
                self.running.push((*task, *now, *now + self.exec[task]));
            }
            (ManagerEvent::TaskCompleted { task, .. }, Reply::Completed(_)) => {
                self.running.retain(|r| r.0 != *task);
            }
            (ManagerEvent::TaskDurationRevised { task, new_exec }, Reply::Revised) => {
                for r in self.running.iter_mut().filter(|r| r.0 == *task) {
                    r.2 = r.1 + *new_exec;
                }
            }
            (ManagerEvent::TaskFailed { task, .. }, Reply::Failed(action)) => {
                self.running.retain(|r| r.0 != *task);
                if let FailureAction::JobAbandoned(ab) = action {
                    self.running.retain(|r| !ab.tasks.contains(&r.0));
                }
            }
            (ManagerEvent::ResourceDown { .. }, Reply::Interrupted(tasks)) => {
                self.running.retain(|r| !tasks.contains(&r.0));
            }
            (ManagerEvent::SubmitWithAdmission { .. }, Reply::Admission(out)) => {
                for ab in &out.shed {
                    self.running.retain(|r| !ab.tasks.contains(&r.0));
                }
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn apply_surface_answers_and_mutates_like_the_trait_method(
        ops in prop::collection::vec(op(), 1..=40),
    ) {
        let mut via_event = det_manager();
        let mut via_trait = det_manager();
        let mut script = Script::new();
        for (step, op) in ops.iter().enumerate() {
            let (ev, replan) = script.command(op, &via_trait);
            let round = ManagerEvent::Reschedule { now: script.now };
            for ev in std::iter::once(ev).chain(replan.then_some(round)) {
                let got = apply_surface(&mut via_event, &ev);
                let want = direct(&mut via_trait, &ev);
                prop_assert_eq!(&got, &want, "step {}: {:?}", step, ev);
                prop_assert_eq!(
                    canonical(via_event.image()),
                    canonical(via_trait.image()),
                    "step {}: state diverged after {:?}", step, ev
                );
                script.observe(&ev, &got);
            }
        }
    }
}

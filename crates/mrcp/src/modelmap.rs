//! Translation of live system state into a [`cpsolve`] model.
//!
//! Plays the role of the paper's OPL model generation (§IV.A, §V.C): the
//! manager's view of the world — outstanding jobs, their unstarted tasks,
//! and the started-but-unfinished tasks that must be pinned — becomes the
//! tuple sets of the CP formulation, with dense solver indices mapped back
//! to workload identifiers afterwards.

use cpsolve::model::{Model, ModelBuilder, ResRef, SlotKind};
use desim::SimTime;
use workload::{Job, Resource, ResourceId, Task, TaskId, TaskKind};

/// One job to include in the model.
#[derive(Debug, Clone)]
pub struct JobInput<'a> {
    /// The job (for its identity and deadline).
    pub job: &'a Job,
    /// Effective earliest start: `max(s_j, now)` per Table 2 lines 1–3.
    pub release: SimTime,
    /// Search priority from the configured [`JobOrdering`]
    /// (lower = placed first).
    ///
    /// [`JobOrdering`]: crate::ordering::JobOrdering
    pub priority: i64,
    /// The job's not-yet-completed tasks.
    pub tasks: Vec<TaskInput>,
}

/// One task to include in the model.
#[derive(Debug, Clone, Copy)]
pub struct TaskInput {
    /// Workload identity.
    pub id: TaskId,
    /// Map or reduce.
    pub kind: TaskKind,
    /// Execution time.
    pub exec_time: SimTime,
    /// Capacity requirement (1 in the paper).
    pub req: u32,
    /// `Some((resource, start))` when the task has started but not
    /// completed executing — the paper's `isPrevScheduled` pinning
    /// constraint (Table 2 line 11).
    pub pinned: Option<(ResourceId, SimTime)>,
}

impl TaskInput {
    /// `t` not yet started.
    pub fn free(t: &Task) -> TaskInput {
        TaskInput {
            id: t.id,
            kind: t.kind,
            exec_time: t.exec_time,
            req: t.req,
            pinned: None,
        }
    }
}

/// A compiled model plus the mappings back to workload identifiers.
#[derive(Debug)]
pub struct MappedModel {
    /// The CP model.
    pub model: Model,
    /// Workload task id for each solver task index.
    pub task_ids: Vec<TaskId>,
    /// Workload resource id for each solver resource index
    /// (for the combined model this is a single synthetic entry).
    pub res_ids: Vec<ResourceId>,
}

pub(crate) fn kind_to_slot(kind: TaskKind) -> SlotKind {
    match kind {
        TaskKind::Map => SlotKind::Map,
        TaskKind::Reduce => SlotKind::Reduce,
    }
}

fn add_jobs(
    b: &mut ModelBuilder,
    jobs: &[JobInput<'_>],
    res_index: impl Fn(ResourceId) -> Option<ResRef>,
) -> Result<Vec<TaskId>, String> {
    let mut task_ids = Vec::new();
    for input in jobs {
        let j = b.add_job_with_priority(
            input.release.as_millis(),
            input.job.deadline.as_millis(),
            input.priority,
        );
        for t in &input.tasks {
            let tr = b.add_task(j, kind_to_slot(t.kind), t.exec_time.as_millis(), t.req);
            task_ids.push(t.id);
            if let Some((rid, start)) = t.pinned {
                // A pin onto a resource outside the model (e.g. one that
                // went down between notification and round) is corrupt
                // state the round must surface, not abort on.
                let rr = res_index(rid)
                    .ok_or_else(|| format!("task {} pinned to unknown resource {rid:?}", t.id))?;
                b.fix_task(tr, rr, start.as_millis());
            }
        }
    }
    Ok(task_ids)
}

#[cfg(test)]
thread_local! {
    /// Combined models built on this thread by [`build_combined_model`]
    /// (tests only; the debug cross-checks build theirs uncounted). No
    /// round builds the full model ([`build_model`]): only the debug
    /// cross-checks of [`crate::list`] and the tests do.
    pub(crate) static BUILDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Build the full multi-resource model (the paper's base formulation).
pub fn build_model(resources: &[Resource], jobs: &[JobInput<'_>]) -> Result<MappedModel, String> {
    let mut b = ModelBuilder::new();
    let mut res_ids = Vec::with_capacity(resources.len());
    let mut index = std::collections::HashMap::new();
    for r in resources {
        let rr = b.add_resource(r.map_capacity, r.reduce_capacity);
        index.insert(r.id, rr);
        res_ids.push(r.id);
    }
    let task_ids = add_jobs(&mut b, jobs, |rid| index.get(&rid).copied())?;
    Ok(MappedModel {
        model: b.build()?,
        task_ids,
        res_ids,
    })
}

/// Build the single-combined-resource model of the §V.D optimization: one
/// resource whose map/reduce capacities are the cluster totals. Pinned
/// tasks keep their start times but all pin to the combined resource (their
/// true resource is restored by the matchmaking step).
pub fn build_combined_model(
    resources: &[Resource],
    jobs: &[JobInput<'_>],
) -> Result<MappedModel, String> {
    #[cfg(test)]
    BUILDS.with(|b| b.set(b.get() + 1));
    combined_model(resources, jobs)
}

/// [`build_combined_model`], uncounted: the debug cross-check of the split
/// rung's warm start builds its model here.
pub(crate) fn combined_model(
    resources: &[Resource],
    jobs: &[JobInput<'_>],
) -> Result<MappedModel, String> {
    let map_total: u32 = resources.iter().map(|r| r.map_capacity).sum();
    let reduce_total: u32 = resources.iter().map(|r| r.reduce_capacity).sum();
    let mut b = ModelBuilder::new();
    let combined = b.add_resource(map_total, reduce_total);
    let task_ids = add_jobs(&mut b, jobs, |_| Some(combined))?;
    Ok(MappedModel {
        model: b.build()?,
        task_ids,
        res_ids: vec![ResourceId(u32::MAX)], // synthetic
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::model::homogeneous_cluster;
    use workload::{JobId, Task};

    fn mk_job(id: u32, s: i64, d: i64, maps: usize, reduces: usize) -> Job {
        let mut next = id * 100;
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
            map_tasks: (0..maps).map(|_| task(TaskKind::Map, 10)).collect(),
            reduce_tasks: (0..reduces).map(|_| task(TaskKind::Reduce, 5)).collect(),
        }
    }

    fn inputs(job: &Job, now: i64) -> JobInput<'_> {
        JobInput {
            job,
            release: job.earliest_start.max(SimTime::from_secs(now)),
            priority: job.deadline.as_millis(),
            tasks: job
                .tasks()
                .map(|t| TaskInput {
                    id: t.id,
                    kind: t.kind,
                    exec_time: t.exec_time,
                    req: t.req,
                    pinned: None,
                })
                .collect(),
        }
    }

    #[test]
    fn full_model_mirrors_inputs() {
        let cluster = homogeneous_cluster(3, 2, 1);
        let job = mk_job(0, 5, 200, 2, 1);
        let mm = build_model(&cluster, &[inputs(&job, 0)]).unwrap();
        assert_eq!(mm.model.n_resources(), 3);
        assert_eq!(mm.model.n_tasks(), 3);
        assert_eq!(mm.model.n_jobs(), 1);
        assert_eq!(mm.task_ids.len(), 3);
        assert_eq!(mm.model.jobs[0].release, 5000);
        assert_eq!(mm.model.jobs[0].deadline, 200_000);
        assert_eq!(mm.model.resources[0].map_cap, 2);
        assert_eq!(mm.model.resources[0].reduce_cap, 1);
    }

    /// The full model has no resource cap: 130 resources build, and the
    /// greedy that judges the list scheduler runs on them.
    #[test]
    fn full_model_builds_beyond_128_resources() {
        let cluster = homogeneous_cluster(130, 1, 1);
        let jobs: Vec<Job> = (0..3).map(|i| mk_job(i, 0, 500, 2, 1)).collect();
        let inputs: Vec<_> = jobs.iter().map(|j| inputs(j, 0)).collect();
        let mm = build_model(&cluster, &inputs).unwrap();
        assert_eq!(mm.model.n_resources(), 130);
        let g = cpsolve::greedy::greedy_edf(&mm.model).unwrap();
        g.verify(&mm.model).unwrap();
        assert_eq!(g.objective, 0);
    }

    #[test]
    fn release_uses_now_when_later() {
        let cluster = homogeneous_cluster(1, 1, 1);
        let job = mk_job(0, 5, 200, 1, 0);
        let mm = build_model(&cluster, &[inputs(&job, 50)]).unwrap();
        assert_eq!(mm.model.jobs[0].release, 50_000, "Table 2 lines 1–3");
    }

    #[test]
    fn combined_model_sums_capacities() {
        let cluster = homogeneous_cluster(4, 2, 3);
        let job = mk_job(0, 0, 500, 3, 2);
        let mm = build_combined_model(&cluster, &[inputs(&job, 0)]).unwrap();
        assert_eq!(mm.model.n_resources(), 1);
        assert_eq!(mm.model.resources[0].map_cap, 8);
        assert_eq!(mm.model.resources[0].reduce_cap, 12);
    }

    #[test]
    fn pinned_task_is_fixed_in_model() {
        let cluster = homogeneous_cluster(2, 1, 1);
        let job = mk_job(0, 0, 500, 1, 0);
        let mut ji = inputs(&job, 10);
        ji.tasks[0].pinned = Some((ResourceId(1), SimTime::from_secs(7)));
        let mm = build_model(&cluster, &[ji]).unwrap();
        let spec = &mm.model.tasks[0];
        assert_eq!(spec.fixed, Some((ResRef(1), 7000)));
        // Pinned start may precede "now": the task is already running.
        assert_eq!(mm.model.task_release(cpsolve::model::TaskRef(0)), 7000);
    }

    #[test]
    fn pin_on_unknown_resource_is_an_error_not_a_panic() {
        let cluster = homogeneous_cluster(2, 1, 1);
        let job = mk_job(0, 0, 500, 1, 0);
        let mut ji = inputs(&job, 10);
        // Pin onto a resource id outside the model — corrupt state the
        // round must surface as a model-build failure.
        ji.tasks[0].pinned = Some((ResourceId(99), SimTime::from_secs(7)));
        let err = build_model(&cluster, &[ji]).unwrap_err();
        assert!(err.contains("unknown resource"), "{err}");
    }

    #[test]
    fn completed_tasks_are_simply_absent() {
        let cluster = homogeneous_cluster(1, 2, 2);
        let job = mk_job(0, 0, 500, 2, 1);
        let mut ji = inputs(&job, 0);
        ji.tasks.remove(0); // first map completed → excluded by the caller
        let mm = build_model(&cluster, &[ji]).unwrap();
        assert_eq!(mm.model.n_tasks(), 2);
    }
}

//! Closed-system batch solving.
//!
//! The authors' preliminary work (\[12\] in the paper) evaluated the CP
//! formulation on a *closed* system: a fixed batch of jobs known up front,
//! solved once. This module exposes that mode directly — useful for
//! capacity planning (examples) and for measuring pure solver behaviour
//! without the open-system machinery (the `prelim` figure).

use crate::modelmap::{build_model, JobInput, TaskInput};
use crate::ordering::JobOrdering;
use crate::split::split_solve;
use cpsolve::search::{solve, Outcome, SolveParams};
use desim::SimTime;
use workload::{Job, JobId, Resource, ResourceId, TaskId};

/// Result of a batch solve.
#[derive(Debug)]
pub struct ClosedOutcome {
    /// `(task, resource, start)` for every task.
    pub placements: Vec<(TaskId, ResourceId, SimTime)>,
    /// Jobs that miss their deadline under the schedule.
    pub late_jobs: Vec<JobId>,
    /// `Σ N_j`.
    pub objective: u32,
    /// Raw solver outcome.
    pub outcome: Outcome,
}

/// Map and schedule a fixed batch of jobs at time zero.
///
/// `use_split` selects the §V.D separated scheduling/matchmaking path.
pub fn solve_closed(
    resources: &[Resource],
    jobs: &[Job],
    ordering: JobOrdering,
    params: &SolveParams,
    use_split: bool,
) -> Result<ClosedOutcome, String> {
    let inputs: Vec<JobInput<'_>> = jobs
        .iter()
        .map(|job| JobInput {
            job,
            release: job.earliest_start,
            priority: ordering.priority(job),
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
        })
        .collect();

    let (placements, outcome, objective) = if use_split {
        let s = split_solve(resources, &inputs, params)?;
        let obj = s.objective;
        (s.placements, s.outcome, obj)
    } else {
        let mm = build_model(resources, &inputs)?;
        let out = solve(&mm.model, params);
        let best = out.best.as_ref().ok_or("no schedule found")?;
        let placements: Vec<(TaskId, ResourceId, SimTime)> = mm
            .task_ids
            .iter()
            .enumerate()
            .map(|(i, &tid)| {
                (
                    tid,
                    mm.res_ids[best.resource[i].idx()],
                    SimTime::from_millis(best.starts[i]),
                )
            })
            .collect();
        let obj = best.objective;
        (placements, out, obj)
    };

    // Determine which jobs are late from the placements.
    let mut completion: std::collections::HashMap<JobId, SimTime> = Default::default();
    let exec: std::collections::HashMap<TaskId, (JobId, SimTime)> = jobs
        .iter()
        .flat_map(|j| j.tasks().map(|t| (t.id, (t.job, t.exec_time))))
        .collect();
    for &(tid, _, start) in &placements {
        let (job, dur) = exec[&tid];
        let end = start + dur;
        completion
            .entry(job)
            .and_modify(|c| *c = (*c).max(end))
            .or_insert(end);
    }
    let mut late_jobs: Vec<JobId> = jobs
        .iter()
        .filter(|j| completion.get(&j.id).copied().unwrap_or(SimTime::ZERO) > j.deadline)
        .map(|j| j.id)
        .collect();
    late_jobs.sort_unstable();
    debug_assert_eq!(late_jobs.len() as u32, objective);

    Ok(ClosedOutcome {
        placements,
        late_jobs,
        objective,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpsolve::search::Status;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use workload::{SyntheticConfig, SyntheticGenerator};

    fn batch(n: usize) -> (Vec<Resource>, Vec<Job>) {
        let cfg = SyntheticConfig {
            maps_per_job: (1, 5),
            reduces_per_job: (1, 2),
            e_max: 10,
            lambda: 1.0, // arrivals irrelevant in closed mode
            resources: 4,
            map_capacity: 2,
            reduce_capacity: 2,
            p_future_start: 0.0,
            ..Default::default()
        };
        let cluster = cfg.cluster();
        let mut gen = SyntheticGenerator::new(cfg, StdRng::seed_from_u64(9));
        (cluster, gen.take_jobs(n))
    }

    #[test]
    fn closed_batch_solves_and_audits() {
        let (cluster, jobs) = batch(8);
        let out = solve_closed(
            &cluster,
            &jobs,
            JobOrdering::Edf,
            &SolveParams::default(),
            true,
        )
        .unwrap();
        let total_tasks: usize = jobs.iter().map(|j| j.task_count()).sum();
        assert_eq!(out.placements.len(), total_tasks);
        assert_eq!(out.late_jobs.len() as u32, out.objective);
    }

    #[test]
    fn split_and_full_agree_on_feasibility() {
        let (cluster, jobs) = batch(5);
        let split = solve_closed(
            &cluster,
            &jobs,
            JobOrdering::Edf,
            &SolveParams::default(),
            true,
        )
        .unwrap();
        let full = solve_closed(
            &cluster,
            &jobs,
            JobOrdering::Edf,
            &SolveParams::default(),
            false,
        )
        .unwrap();
        // Both paths produce verified schedules; with loose Table 3-style
        // deadlines both should find zero late jobs.
        assert_eq!(split.objective, 0);
        assert_eq!(full.objective, 0);
    }

    #[test]
    fn orderings_all_solve() {
        let (cluster, jobs) = batch(5);
        for o in JobOrdering::all() {
            let out = solve_closed(&cluster, &jobs, o, &SolveParams::default(), true).unwrap();
            assert!(
                matches!(out.outcome.status, Status::Optimal | Status::Feasible),
                "{o:?} failed"
            );
        }
    }
}

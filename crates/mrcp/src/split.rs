//! The §V.D performance optimization: separated scheduling and matchmaking.
//!
//! Step 1 — *scheduling*: solve the CP model against a **single combined
//! resource** holding the cluster's total map and reduce slot counts. This
//! removes the assignment dimension entirely (no `x_tr` branching, two
//! cumulative constraints instead of `2m`), which is where the paper saw
//! model generation + solve time drop from ~60 s to ~15 s.
//!
//! Step 2 — *matchmaking*: distribute the single-resource schedule over
//! unit-capacity lanes with the paper's gap heuristic (each task goes to
//! the lane that leaves "the smallest remaining gap"), then identify each
//! lane with a slot of a real resource.
//!
//! For the paper's homogeneous clusters with unit task requirements this
//! split is **lossless**: a schedule that never exceeds the total slot
//! count can always be coloured onto the individual slots (tasks are
//! processed in nondecreasing start order, so at most `total slots − 1`
//! lanes are busy whenever a task needs one). Started tasks are pinned to
//! lanes of their actual resource first; they sort before all new tasks
//! because their starts lie in the past.

use crate::modelmap::{build_combined_model, build_model, JobInput};
use cpsolve::greedy::{greedy_edf_with_hints, Hint};
use cpsolve::model::ResRef;
use cpsolve::portfolio::{solve_portfolio, PortfolioParams};
use cpsolve::search::Outcome;
use cpsolve::solution::Solution;
use desim::SimTime;
use workload::{Resource, ResourceId, TaskId, TaskKind};

/// Previous-round placement suggestions, one per task in flattened
/// `JobInput` order (see [`crate::manager`]'s round cache).
pub type RoundHints = [Option<(ResourceId, SimTime)>];

/// Result of the split solve: placements in workload terms.
#[derive(Debug)]
pub struct SplitOutcome {
    /// `(task, resource, start)` for every task in the model, in input
    /// order (the jobs' tasks flattened), as the full-CP and greedy rungs
    /// return theirs.
    pub placements: Vec<(TaskId, ResourceId, SimTime)>,
    /// Number of late jobs in the installed schedule.
    pub objective: u32,
    /// The underlying solver outcome (status + effort stats).
    pub outcome: Outcome,
}

/// One unit-capacity lane of a real resource.
#[derive(Debug, Clone, Copy)]
struct Lane {
    resource: ResourceId,
    last_end: i64,
}

/// Solve with the combined-resource model, driven by the parallel
/// portfolio and optionally seeded with the previous round's placements,
/// and matchmake the result onto the real cluster. The combined model has a
/// single synthetic resource, so only the hinted start times carry over — a
/// hint whose start is stale (before this round's release) falls back to
/// the greedy heuristic inside [`greedy_edf_with_hints`]. Errors only on
/// internal inconsistency (no solution within budget with warm starts
/// disabled, or a lane shortage that would indicate a capacity bug).
pub fn split_solve_portfolio(
    resources: &[Resource],
    jobs: &[JobInput<'_>],
    pp: &PortfolioParams,
    hints: Option<&RoundHints>,
) -> Result<SplitOutcome, String> {
    let mm = build_combined_model(resources, jobs)?;
    let mut pp = pp.clone();
    if let Some(h) = hints {
        debug_assert_eq!(h.len(), mm.task_ids.len());
        let combined: Vec<Hint> = h
            .iter()
            .map(|o| o.map(|(_, s)| (ResRef(0), s.as_millis())))
            .collect();
        if let Ok(sol) = greedy_edf_with_hints(&mm.model, &combined) {
            // The hinted schedule replays the surviving part of the last
            // round; the portfolio improves on it from the first node.
            if pp
                .base
                .initial
                .as_ref()
                .is_none_or(|cur| sol.objective < cur.objective)
            {
                pp.base.initial = Some(sol);
            }
        }
    }
    let outcome = solve_portfolio(&mm.model, &pp);
    let best: &Solution = outcome
        .best
        .as_ref()
        .ok_or("combined-resource solve produced no schedule")?;

    // Build lanes per kind.
    let mut map_lanes: Vec<Lane> = Vec::new();
    let mut reduce_lanes: Vec<Lane> = Vec::new();
    for r in resources {
        for _ in 0..r.map_capacity {
            map_lanes.push(Lane {
                resource: r.id,
                last_end: i64::MIN,
            });
        }
        for _ in 0..r.reduce_capacity {
            reduce_lanes.push(Lane {
                resource: r.id,
                last_end: i64::MIN,
            });
        }
    }

    // Collect tasks with their solved starts; pinned first (their starts
    // precede every new start), then nondecreasing start, stable on index.
    // Placements come back in input order; matchmaking fills in each
    // task's resource (the placeholder never survives: a task without a
    // lane fails the whole call).
    struct Item {
        idx: usize,
        kind: TaskKind,
        start: i64,
        dur: i64,
        pinned_res: Option<ResourceId>,
    }
    let n = mm.task_ids.len();
    let mut items: Vec<Item> = Vec::with_capacity(n);
    let mut placements: Vec<(TaskId, ResourceId, SimTime)> = Vec::with_capacity(n);
    for t in jobs.iter().flat_map(|input| &input.tasks) {
        let idx = items.len();
        let start = best.starts[idx];
        items.push(Item {
            idx,
            kind: t.kind,
            start,
            dur: t.exec_time.as_millis(),
            pinned_res: t.pinned.map(|(r, _)| r),
        });
        placements.push((t.id, ResourceId(u32::MAX), SimTime::from_millis(start)));
    }
    debug_assert_eq!(items.len(), n);
    items.sort_by_key(|it| (it.pinned_res.is_none(), it.start, it.idx));

    for it in &items {
        let lanes = match it.kind {
            TaskKind::Map => &mut map_lanes,
            TaskKind::Reduce => &mut reduce_lanes,
        };
        // Candidate lanes: free at `start`; pinned tasks only on lanes of
        // their true resource. Pick the minimum remaining gap
        // (start − last_end), ties to the first lane.
        let mut chosen: Option<usize> = None;
        let mut best_gap = i64::MAX;
        for (li, lane) in lanes.iter().enumerate() {
            if lane.last_end > it.start {
                continue;
            }
            if let Some(pr) = it.pinned_res {
                if lane.resource != pr {
                    continue;
                }
            }
            let gap = it.start.saturating_sub(lane.last_end);
            if chosen.is_none() || gap < best_gap {
                best_gap = gap;
                chosen = Some(li);
            }
        }
        let li = chosen.ok_or_else(|| {
            format!(
                "matchmaking found no free {:?} lane for task {:?} at t={} — capacity bug",
                it.kind, placements[it.idx].0, it.start
            )
        })?;
        lanes[li].last_end = it.start + it.dur;
        placements[it.idx].1 = lanes[li].resource;
    }

    // Audit: the distributed schedule must satisfy the full multi-resource
    // formulation. This is cheap relative to the solve and catches any
    // matchmaking regression immediately.
    if cfg!(debug_assertions) {
        audit(resources, jobs, &placements)?;
    }

    Ok(SplitOutcome {
        placements,
        objective: best.objective,
        outcome,
    })
}

/// Verify placements against the full multi-resource model using the
/// solver-independent checker.
pub fn audit(
    resources: &[Resource],
    jobs: &[JobInput<'_>],
    placements: &[(TaskId, ResourceId, SimTime)],
) -> Result<(), String> {
    let full = build_model(resources, jobs)?;
    let lookup: std::collections::HashMap<TaskId, (ResourceId, SimTime)> =
        placements.iter().map(|&(t, r, s)| (t, (r, s))).collect();
    let mut starts = Vec::with_capacity(full.task_ids.len());
    let mut res = Vec::with_capacity(full.task_ids.len());
    let rindex: std::collections::HashMap<ResourceId, usize> = full
        .res_ids
        .iter()
        .enumerate()
        .map(|(i, &r)| (r, i))
        .collect();
    for id in &full.task_ids {
        let &(r, s) = lookup
            .get(id)
            .ok_or_else(|| format!("placement missing for task {id:?}"))?;
        starts.push(s.as_millis());
        res.push(cpsolve::model::ResRef(rindex[&r] as u32));
    }
    let sol = Solution::from_placements(&full.model, starts, res);
    sol.verify(&full.model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modelmap::TaskInput;
    use cpsolve::search::SolveParams;
    use desim::SimTime;
    use workload::model::homogeneous_cluster;
    use workload::{Job, JobId, Task, TaskKind};

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
            precedences: vec![],
        }
    }

    fn split_solve(
        resources: &[Resource],
        jobs: &[JobInput<'_>],
        params: &SolveParams,
    ) -> Result<SplitOutcome, String> {
        split_solve_portfolio(resources, jobs, &PortfolioParams::single(params), None)
    }

    fn inputs(job: &Job) -> JobInput<'_> {
        JobInput {
            job,
            release: job.earliest_start,
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
    fn split_schedule_is_feasible_on_real_cluster() {
        let cluster = homogeneous_cluster(3, 2, 2);
        let jobs: Vec<Job> = (0..4)
            .map(|i| mk_job(i, 0, 10_000, &[10, 20, 30], &[15]))
            .collect();
        let ji: Vec<JobInput<'_>> = jobs.iter().map(inputs).collect();
        let out = split_solve(&cluster, &ji, &SolveParams::default()).unwrap();
        audit(&cluster, &ji, &out.placements).unwrap();
        assert_eq!(out.placements.len(), 16);
        assert_eq!(out.objective, 0, "deadlines are loose");
    }

    #[test]
    fn split_honours_pins_on_their_resource() {
        let cluster = homogeneous_cluster(2, 1, 1);
        let job = mk_job(0, 0, 10_000, &[10, 10], &[]);
        let mut ji = inputs(&job);
        ji.tasks[0].pinned = Some((ResourceId(1), SimTime::from_secs(2)));
        let jis = vec![ji];
        let out = split_solve(&cluster, &jis, &SolveParams::default()).unwrap();
        let pinned = out
            .placements
            .iter()
            .find(|(t, _, _)| *t == TaskId(0))
            .unwrap();
        assert_eq!(pinned.1, ResourceId(1));
        assert_eq!(pinned.2, SimTime::from_secs(2));
        audit(&cluster, &jis, &out.placements).unwrap();
    }

    #[test]
    fn contention_is_resolved_without_overlap() {
        // 1 resource, 1 map slot, 3 tasks → must serialize even though the
        // combined model equals the real one here.
        let cluster = homogeneous_cluster(1, 1, 1);
        let job = mk_job(0, 0, 10_000, &[10, 10, 10], &[]);
        let jis = [inputs(&job)];
        let out = split_solve(&cluster, &jis, &SolveParams::default()).unwrap();
        audit(&cluster, &jis, &out.placements).unwrap();
        let mut starts: Vec<i64> = out.placements.iter().map(|p| p.2.as_millis()).collect();
        starts.sort_unstable();
        assert_eq!(starts, vec![0, 10_000, 20_000]);
    }

    #[test]
    fn gap_heuristic_prefers_tight_fit() {
        // Two map lanes with different availability; heuristic picks the
        // lane leaving the smaller gap (the paper's r1-vs-r2 example).
        let mut lanes = [
            Lane {
                resource: ResourceId(0),
                last_end: 10_000, // gap 1s for a start at 11s
            },
            Lane {
                resource: ResourceId(1),
                last_end: 8_000, // gap 3s
            },
        ];
        // Reproduce the selection logic inline.
        let start = 11_000i64;
        let mut chosen = None;
        let mut best_gap = i64::MAX;
        for (li, lane) in lanes.iter().enumerate() {
            if lane.last_end > start {
                continue;
            }
            let gap = start - lane.last_end;
            if gap < best_gap {
                best_gap = gap;
                chosen = Some(li);
            }
        }
        assert_eq!(chosen, Some(0), "paper's example: gap 1 beats gap 3");
        lanes[chosen.unwrap()].last_end = start + 4_000;
        assert_eq!(lanes[0].last_end, 15_000);
    }
}

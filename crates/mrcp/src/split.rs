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
//!
//! Most rounds need no model for step 1. The solver's greedy warm start is
//! computed first by the manager's one list scheduler ([`crate::list`]) on
//! a single calendar of the combined totals ([`warm_start`]); when no job
//! is late nothing can beat it, so the round goes straight to matchmaking
//! and only a round with a late job builds and solves the combined model
//! ([`split_solve_portfolio`]).

use crate::list;
use crate::modelmap::{build_combined_model, JobInput};
use cpsolve::model::ResRef;
use cpsolve::search::{solve, Outcome, PortfolioParams, SolveStats, Status};
use cpsolve::solution::Solution;
use desim::SimTime;
use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;
use workload::{Resource, ResourceId, TaskId, TaskKind};

/// Previous-round placement suggestions, one per task in flattened
/// `JobInput` order (see [`crate::manager`]'s round cache).
pub type RoundHints = [Option<(ResourceId, SimTime)>];

/// Result of the split solve: placements in workload terms.
#[derive(Debug)]
pub struct SplitOutcome {
    /// `(task, resource, start)` for every task in the model, in input
    /// order (the jobs' tasks flattened), as the greedy rung returns
    /// its own.
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

/// The lanes of one task kind, in resource-list order, so each resource's
/// lanes are contiguous.
#[derive(Debug)]
struct Lanes {
    lanes: Vec<Lane>,
    /// Each resource's lane range, sorted by resource id.
    by_resource: Vec<(ResourceId, Range<usize>)>,
}

impl Lanes {
    fn new(resources: &[Resource], kind: TaskKind) -> Self {
        let mut lanes = Vec::new();
        let mut by_resource = Vec::with_capacity(resources.len());
        for r in resources {
            let first = lanes.len();
            lanes.extend((0..r.capacity(kind)).map(|_| Lane {
                resource: r.id,
                last_end: i64::MIN,
            }));
            by_resource.push((r.id, first..lanes.len()));
        }
        by_resource.sort_unstable_by_key(|&(id, _)| id);
        Lanes { lanes, by_resource }
    }

    /// The lane for a task starting at `start`: [`min_gap_lane`] over every
    /// lane, or for a task pinned to a resource over that resource's lanes
    /// alone. A resource outside the pool has no lanes, so its pinned task
    /// gets none.
    fn pick(&self, start: i64, pinned: Option<ResourceId>) -> Option<usize> {
        let Some(pr) = pinned else {
            return min_gap_lane(&self.lanes, start, None);
        };
        let range = self
            .by_resource
            .binary_search_by_key(&pr, |&(id, _)| id)
            .map_or(0..0, |k| self.by_resource[k].1.clone());
        let li = min_gap_lane(&self.lanes[range.clone()], start, None).map(|i| range.start + i);
        debug_assert_eq!(li, min_gap_lane(&self.lanes, start, Some(pr)));
        li
    }
}

/// The paper's gap heuristic: among `lanes` free at `start` (and, with
/// `only`, belonging to that resource), the one leaving the smallest gap
/// `start − last_end`, ties to the first.
fn min_gap_lane(lanes: &[Lane], start: i64, only: Option<ResourceId>) -> Option<usize> {
    let mut chosen: Option<usize> = None;
    let mut best_gap = i64::MAX;
    for (li, lane) in lanes.iter().enumerate() {
        if lane.last_end > start || only.is_some_and(|r| lane.resource != r) {
            continue;
        }
        let gap = start.saturating_sub(lane.last_end);
        if chosen.is_none() || gap < best_gap {
            best_gap = gap;
            chosen = Some(li);
        }
    }
    chosen
}

/// The combined model's greedy warm start, computed without the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmStart {
    /// Every task's start (ms), in flattened input order.
    pub starts: Vec<i64>,
    /// Jobs that complete after their deadline.
    pub late: u32,
}

/// The warm start of the combined model: the list scheduler
/// ([`crate::list`]) on one calendar holding the cluster's map and reduce
/// totals, which every pin and hint maps to. It is `greedy_edf_with_hints`
/// over [`build_combined_model`] (with `hints`, each read as `(0, start)`)
/// or `greedy_edf` (without), bit for bit.
///
/// `None` leaves the round to the model: a task has `req ≠ 1` or a
/// non-positive duration, a pin cannot be booked, or no slot of its kind
/// can host a free task.
pub fn warm_start(
    resources: &[Resource],
    jobs: &[JobInput<'_>],
    hints: Option<&RoundHints>,
) -> Option<WarmStart> {
    let mut walk = list::combined(resources);
    let done = walk.schedule(jobs, hints);
    #[cfg(debug_assertions)]
    walk.assert_matches_model(|| crate::modelmap::combined_model(resources, jobs), hints);
    done?;
    let placed = walk.placed.iter();
    let starts: Vec<i64> = placed.map(|p| p.expect("no cut places all").1).collect();
    let mut next = 0;
    let late = jobs
        .iter()
        .filter(|input| {
            let own = &starts[next..next + input.tasks.len()];
            next += input.tasks.len();
            completion(input, own).is_some_and(|c| c > input.job.deadline.as_millis())
        })
        .count() as u32;
    Some(WarmStart { starts, late })
}

/// The latest end among `input`'s tasks at `starts` (its own, in order).
fn completion(input: &JobInput<'_>, starts: &[i64]) -> Option<i64> {
    input
        .tasks
        .iter()
        .zip(starts)
        .map(|(t, &s)| s + t.exec_time.as_millis())
        .max()
}

/// The checks an on-time warm start passes instead of the solver's
/// `Solution::verify`, one pass over the tasks: every pin is exact, every
/// free task starts at or after its job's release, every reduce starts
/// after its job's last map ends, and no job is late. Capacity is
/// [`matchmake`]'s check, on the real per-resource pools.
fn check_on_time(jobs: &[JobInput<'_>], starts: &[i64]) -> Result<(), String> {
    let mut next = 0;
    for input in jobs {
        let own = &starts[next..next + input.tasks.len()];
        next += input.tasks.len();
        let release = input.release.as_millis();
        let mut last_map_end = i64::MIN;
        let mut first_reduce = i64::MAX;
        for (t, &s) in input.tasks.iter().zip(own) {
            match t.pinned {
                Some((_, ps)) if s != ps.as_millis() => {
                    return Err(format!("pinned task {:?} moved to {s}", t.id));
                }
                None if s < release => {
                    return Err(format!(
                        "task {:?} starts at {s} before job release {release}",
                        t.id
                    ));
                }
                _ => {}
            }
            match t.kind {
                TaskKind::Map => last_map_end = last_map_end.max(s + t.exec_time.as_millis()),
                TaskKind::Reduce => first_reduce = first_reduce.min(s),
            }
        }
        if first_reduce < last_map_end {
            return Err(format!(
                "job {:?}: a reduce starts at {first_reduce} before last map end {last_map_end}",
                input.job.id
            ));
        }
        if let Some(c) = completion(input, own).filter(|&c| c > input.job.deadline.as_millis()) {
            return Err(format!("job {:?} completes late at {c}", input.job.id));
        }
    }
    Ok(())
}

#[cfg(test)]
thread_local! {
    /// Tests only: the next on-time warm start, once checked, has every
    /// free task moved to its job's release before matchmaking — a
    /// capacity bug that only the lane walk can see.
    pub(crate) static CRAM: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Solve with the combined-resource model under `pp.base` (the search
/// runs once; `pp`'s other fields are inert), optionally seeded with the
/// previous round's placements, and matchmake the result onto the real
/// cluster. The combined model has a
/// single synthetic resource, so only the hinted start times carry over — a
/// hint whose start is stale (before this round's release) falls back to
/// the greedy's best fit.
///
/// The warm start comes first, from [`warm_start`], with no model. When it
/// has no late job (and the solver would have adopted it: hints given or
/// `warm_start` on, no caller incumbent), nothing can beat it, so the
/// round skips the model and the solver: it passes a one-pass check and
/// goes straight to matchmaking, and the outcome is what `solve`'s own
/// early exit reports (`Optimal`, zero counters, timed). Every other round
/// builds the model and solves it, with a hinted warm start as the initial
/// incumbent. Errors only on internal inconsistency (no solution within
/// budget with warm starts disabled, a failed check, or a lane shortage
/// that would indicate a capacity bug).
pub fn split_solve_portfolio(
    resources: &[Resource],
    jobs: &[JobInput<'_>],
    pp: &PortfolioParams,
    hints: Option<&RoundHints>,
) -> Result<SplitOutcome, String> {
    let t0 = Instant::now();
    if let Some(h) = hints {
        debug_assert_eq!(h.len(), jobs.iter().map(|j| j.tasks.len()).sum::<usize>());
    }
    let warm = warm_start(resources, jobs, hints);
    let adopted = pp.base.initial.is_none() && (hints.is_some() || pp.base.warm_start);
    let (best, outcome) = match warm {
        Some(ws) if adopted && ws.late == 0 => {
            check_on_time(jobs, &ws.starts)?;
            let stats = SolveStats {
                elapsed_us: t0.elapsed().as_micros() as u64,
                ..SolveStats::default()
            };
            let best = Solution {
                resource: vec![ResRef(0); ws.starts.len()],
                starts: ws.starts,
                late: vec![false; jobs.len()],
                objective: 0,
            };
            #[cfg(test)]
            let best = cram(jobs, best);
            let outcome = Outcome {
                status: Status::Optimal,
                best: None,
                stats,
            };
            (best, outcome)
        }
        warm => {
            let mm = build_combined_model(resources, jobs)?;
            let mut params = pp.base.clone();
            // The hinted schedule replays the surviving part of the last
            // round; the search improves on it from the first node. A
            // `None` warm start is a greedy failure: there is none to seed.
            let hinted = hints.and(warm).map(|ws| {
                Solution::from_placements(&mm.model, ws.starts, vec![ResRef(0); mm.task_ids.len()])
            });
            if let Some(sol) = hinted {
                if params
                    .initial
                    .as_ref()
                    .is_none_or(|cur| sol.objective < cur.objective)
                {
                    params.initial = Some(sol);
                }
            }
            let mut outcome = solve(&mm.model, &params);
            let best = outcome
                .best
                .take()
                .ok_or("combined-resource solve produced no schedule")?;
            (best, outcome)
        }
    };

    let placements = matchmake(resources, jobs, &best.starts)?;

    // Audit: the distributed schedule must satisfy the full multi-resource
    // formulation. This is cheap relative to the solve and catches any
    // matchmaking regression immediately.
    if cfg!(debug_assertions) {
        audit(resources, jobs, &placements)?;
    }

    Ok(SplitOutcome {
        placements,
        objective: best.objective,
        outcome: Outcome {
            best: Some(best),
            ..outcome
        },
    })
}

/// [`CRAM`]: move every free task of `best` to its job's release.
#[cfg(test)]
fn cram(jobs: &[JobInput<'_>], mut best: Solution) -> Solution {
    if CRAM.with(|c| c.replace(false)) {
        let mut next = 0;
        for input in jobs {
            for t in &input.tasks {
                if t.pinned.is_none() {
                    best.starts[next] = input.release.as_millis();
                }
                next += 1;
            }
        }
    }
    best
}

/// Matchmaking, step 2: each task of `jobs` at its `starts` entry
/// (flattened input order) goes to the lane of a real resource that the
/// paper's gap heuristic picks, a pinned task among its own resource's
/// lanes. Placements come back in input order. Pinned tasks go first (their
/// starts precede every new start), then nondecreasing start, stable on
/// index, so each lane's previous interval ends by the next task's start:
/// the walk is the capacity check on every (resource, kind) pool. A task
/// with no free lane fails the call with the lane-shortage error.
pub fn matchmake(
    resources: &[Resource],
    jobs: &[JobInput<'_>],
    starts: &[i64],
) -> Result<Vec<(TaskId, ResourceId, SimTime)>, String> {
    let mut map_lanes = Lanes::new(resources, TaskKind::Map);
    let mut reduce_lanes = Lanes::new(resources, TaskKind::Reduce);

    // The placeholder resource never survives: a task without a lane fails
    // the whole call.
    struct Item {
        idx: usize,
        kind: TaskKind,
        start: i64,
        dur: i64,
        pinned_res: Option<ResourceId>,
    }
    let n = starts.len();
    let mut items: Vec<Item> = Vec::with_capacity(n);
    let mut placements: Vec<(TaskId, ResourceId, SimTime)> = Vec::with_capacity(n);
    for t in jobs.iter().flat_map(|input| &input.tasks) {
        let idx = items.len();
        let start = starts[idx];
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
    // `idx` is unique, so no two keys tie and the unstable sort yields the
    // one order a stable sort would.
    items.sort_unstable_by_key(|it| (it.pinned_res.is_none(), it.start, it.idx));

    for it in &items {
        let lanes = match it.kind {
            TaskKind::Map => &mut map_lanes,
            TaskKind::Reduce => &mut reduce_lanes,
        };
        let li = lanes.pick(it.start, it.pinned_res).ok_or_else(|| {
            format!(
                "matchmaking found no free {:?} lane for task {:?} at t={} — capacity bug",
                it.kind, placements[it.idx].0, it.start
            )
        })?;
        let lane = &mut lanes.lanes[li];
        lane.last_end = it.start + it.dur;
        placements[it.idx].1 = lane.resource;
    }
    Ok(placements)
}

/// Check placements against the paper's constraints directly on the
/// resource list, independently of the solver and of matchmaking:
/// - every task is placed exactly once, on a known resource with capacity
///   for its kind;
/// - a pinned task stays exactly where it runs, a free task starts at or
///   after its job's release;
/// - reduces start after the job's last map ends;
/// - no (resource, kind) pool is over capacity at any instant.
pub fn audit(
    resources: &[Resource],
    jobs: &[JobInput<'_>],
    placements: &[(TaskId, ResourceId, SimTime)],
) -> Result<(), String> {
    let by_id: HashMap<ResourceId, &Resource> = resources.iter().map(|r| (r.id, r)).collect();
    let mut placed: HashMap<TaskId, (ResourceId, i64)> = HashMap::with_capacity(placements.len());
    for &(t, r, s) in placements {
        if placed.insert(t, (r, s.as_millis())).is_some() {
            return Err(format!("task {t:?} placed more than once"));
        }
    }
    // `(resource, kind, time, Δheight)` for the capacity sweep.
    let mut events: Vec<(ResourceId, TaskKind, i64, i64)> = Vec::with_capacity(2 * placed.len());
    let mut n_tasks = 0;
    for input in jobs {
        let release = input.release.as_millis();
        let mut last_map_end: Option<i64> = None;
        let mut first_reduce: Option<i64> = None;
        for t in &input.tasks {
            n_tasks += 1;
            let &(r, start) = placed
                .get(&t.id)
                .ok_or_else(|| format!("placement missing for task {:?}", t.id))?;
            let res = by_id
                .get(&r)
                .ok_or_else(|| format!("task {:?} placed on unknown resource {r:?}", t.id))?;
            if res.capacity(t.kind) < t.req {
                return Err(format!(
                    "task {:?} ({:?}) on resource {r:?} with insufficient capacity",
                    t.id, t.kind
                ));
            }
            match t.pinned {
                Some((pr, ps)) if r != pr || start != ps.as_millis() => {
                    return Err(format!(
                        "pinned task {:?} moved: expected {pr:?}@{}, got {r:?}@{start}",
                        t.id,
                        ps.as_millis()
                    ));
                }
                None if start < release => {
                    return Err(format!(
                        "task {:?} starts at {start} before job release {release}",
                        t.id
                    ));
                }
                _ => {}
            }
            let end = start + t.exec_time.as_millis();
            match t.kind {
                TaskKind::Map => last_map_end = last_map_end.max(Some(end)),
                TaskKind::Reduce => {
                    first_reduce = Some(first_reduce.map_or(start, |f| f.min(start)))
                }
            }
            events.push((r, t.kind, start, i64::from(t.req)));
            events.push((r, t.kind, end, -i64::from(t.req)));
        }
        if let (Some(lfmt), Some(rs)) = (last_map_end, first_reduce) {
            if rs < lfmt {
                return Err(format!(
                    "job {:?}: a reduce starts at {rs} before last map end {lfmt}",
                    input.job.id
                ));
            }
        }
    }
    if placed.len() != n_tasks {
        return Err(format!(
            "{} placements for the round's {n_tasks} tasks",
            placed.len()
        ));
    }
    events.sort_unstable_by_key(|&(r, kind, time, _)| (r, kind, time));
    for group in events.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        let (r, kind) = (group[0].0, group[0].1);
        let cap = i64::from(by_id[&r].capacity(kind));
        let mut height = 0i64;
        for instant in group.chunk_by(|a, b| a.2 == b.2) {
            height += instant.iter().map(|e| e.3).sum::<i64>();
            if height > cap {
                return Err(format!(
                    "resource {r:?} {kind:?} pool over capacity ({height} > {cap}) at t={}",
                    instant[0].2
                ));
            }
        }
    }
    Ok(())
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
        let lanes = [
            Lane {
                resource: ResourceId(0),
                last_end: 10_000, // gap 1s for a start at 11s
            },
            Lane {
                resource: ResourceId(1),
                last_end: 8_000, // gap 3s
            },
        ];
        assert_eq!(
            min_gap_lane(&lanes, 11_000, None),
            Some(0),
            "paper's example: gap 1 beats gap 3"
        );
        assert_eq!(min_gap_lane(&lanes, 11_000, Some(ResourceId(1))), Some(1));
        assert_eq!(min_gap_lane(&lanes, 9_000, None), Some(1), "lane 0 is busy");
    }

    /// Resources listed out of id order with 1–3 slots per kind: each
    /// resource's range holds exactly its lanes, and a pinned task lands on
    /// the lane the scan over every lane would pick.
    #[test]
    fn pinned_tasks_land_on_the_full_scans_lanes() {
        let caps = [(7, 2, 1), (2, 3, 2), (5, 1, 3), (0, 2, 2), (3, 3, 1)];
        let resources: Vec<Resource> = caps
            .iter()
            .map(|&(id, m, r)| Resource {
                id: ResourceId(id),
                map_capacity: m,
                reduce_capacity: r,
            })
            .collect();
        for kind in [TaskKind::Map, TaskKind::Reduce] {
            let mut lanes = Lanes::new(&resources, kind);
            assert_eq!(lanes.by_resource.len(), resources.len());
            for (id, range) in &lanes.by_resource {
                let cap = resources
                    .iter()
                    .find(|r| r.id == *id)
                    .unwrap()
                    .capacity(kind);
                assert_eq!(range.len(), cap as usize, "{id:?}");
                assert!(lanes.lanes[range.clone()].iter().all(|l| l.resource == *id));
            }
            // Pinned tasks first, then free ones, in nondecreasing start.
            let mut booked = 0;
            for step in 0..60i64 {
                let pinned = (step < 30).then(|| resources[(step * 7 % 5) as usize].id);
                let start = step * 3 + (step % 4);
                let scan = min_gap_lane(&lanes.lanes, start, pinned);
                let li = lanes.pick(start, pinned);
                assert_eq!(li, scan, "{kind:?} step {step}");
                if let Some(li) = li {
                    if let Some(pr) = pinned {
                        assert_eq!(lanes.lanes[li].resource, pr);
                    }
                    lanes.lanes[li].last_end = start + 4 + step % 9;
                    booked += 1;
                }
            }
            assert!(booked > 30, "{kind:?}: the walk books most steps");
        }
        assert_eq!(
            Lanes::new(&resources, TaskKind::Map).pick(0, Some(ResourceId(4))),
            None,
            "a resource outside the pool has no lanes"
        );
    }

    /// The one-pass check that stands in for `Solution::verify` on an
    /// on-time warm start rejects what `verify` would.
    #[test]
    fn on_time_check_rejects_a_schedule_verify_would() {
        let (_, mut job, plan) = audited_round();
        let starts: Vec<i64> = plan.iter().map(|p| p.2.as_millis()).collect();
        let check =
            |ji: &JobInput<'_>, starts: &[i64]| check_on_time(std::slice::from_ref(ji), starts);
        check(&inputs(&job), &starts).unwrap();
        // A pin may start before the release, but not move.
        let mut pinned = inputs(&job);
        pinned.tasks[1].pinned = Some((ResourceId(1), SimTime::from_secs(4)));
        let mut at_pin = starts.clone();
        at_pin[1] = 4_000;
        check(&pinned, &at_pin).unwrap();
        let moved = check(&pinned, &starts).unwrap_err();
        assert!(moved.contains("pinned task"), "{moved}");
        let mut early = starts.clone();
        early[0] = 4_999;
        let early = check(&inputs(&job), &early).unwrap_err();
        assert!(early.contains("before job release"), "{early}");
        let mut eager = starts.clone();
        eager[2] = 24_999;
        let eager = check(&inputs(&job), &eager).unwrap_err();
        assert!(eager.contains("before last map end"), "{eager}");
        // The reduce ends at 30 s.
        job.deadline = SimTime::from_secs(30);
        check(&inputs(&job), &starts).unwrap();
        job.deadline = SimTime::from_millis(29_999);
        let late = check(&inputs(&job), &starts).unwrap_err();
        assert!(late.contains("late"), "{late}");
    }

    /// Matchmaking is the on-time path's capacity check, and on the real
    /// pools: starts within the combined capacity that overload one
    /// resource fail it with the lane-shortage error.
    #[test]
    fn an_overloading_start_vector_fails_matchmaking() {
        let cluster = homogeneous_cluster(2, 1, 1);
        let job = mk_job(0, 0, 10_000, &[10, 10, 10], &[]);
        let ji = [inputs(&job)];
        matchmake(&cluster, &ji, &[0, 0, 10_000]).unwrap();
        let err = matchmake(&cluster, &ji, &[0, 0, 9_999]).unwrap_err();
        assert!(err.contains("no free Map lane"), "{err}");
        // Two pins on resource 0's one map slot: two slots in all.
        let mut pins = inputs(&job);
        pins.tasks.truncate(2);
        for t in &mut pins.tasks {
            t.pinned = Some((ResourceId(0), SimTime::ZERO));
        }
        let err = matchmake(&cluster, &[pins], &[0, 0]).unwrap_err();
        assert!(err.contains("no free Map lane"), "{err}");
    }

    /// A start vector crammed past capacity after the on-time check fails
    /// the split call with the lane-shortage error.
    #[test]
    fn a_crammed_on_time_warm_start_fails_the_call() {
        let cluster = homogeneous_cluster(2, 1, 1);
        let job = mk_job(0, 0, 10_000, &[10, 10, 10], &[]);
        let ji = [inputs(&job)];
        split_solve(&cluster, &ji, &SolveParams::default()).unwrap();
        CRAM.with(|c| c.set(true));
        let err = split_solve(&cluster, &ji, &SolveParams::default()).unwrap_err();
        assert!(err.contains("no free Map lane"), "{err}");
        assert!(!CRAM.with(|c| c.get()), "the hook fires once");
    }

    #[test]
    fn pin_on_a_resource_outside_the_pool_fails_the_call() {
        let cluster = homogeneous_cluster(2, 1, 1);
        let job = mk_job(0, 0, 10_000, &[10, 10], &[]);
        let mut ji = inputs(&job);
        ji.tasks[0].pinned = Some((ResourceId(9), SimTime::from_secs(2)));
        let err = split_solve(&cluster, &[ji], &SolveParams::default()).unwrap_err();
        assert!(err.contains("no free Map lane"), "{err}");
    }

    /// One job on two 1/1 resources (ids 0 and 1): two maps, a reduce,
    /// released at 5 s, and a plan that passes the audit.
    fn audited_round() -> (Vec<Resource>, Job, Vec<(TaskId, ResourceId, SimTime)>) {
        let cluster = homogeneous_cluster(2, 1, 1);
        let job = mk_job(0, 5, 10_000, &[10, 20], &[5]);
        let at = |s| SimTime::from_secs(s);
        let plan = vec![
            (TaskId(0), ResourceId(0), at(5)),
            (TaskId(1), ResourceId(1), at(5)),
            (TaskId(2), ResourceId(0), at(25)),
        ];
        audit(&cluster, &[inputs(&job)], &plan).unwrap();
        (cluster, job, plan)
    }

    fn audit_err(
        cluster: &[Resource],
        ji: &JobInput<'_>,
        plan: &[(TaskId, ResourceId, SimTime)],
    ) -> String {
        audit(cluster, std::slice::from_ref(ji), plan).unwrap_err()
    }

    #[test]
    fn audit_rejects_a_task_not_placed_exactly_once() {
        let (cluster, job, plan) = audited_round();
        let ji = inputs(&job);
        let missing = audit_err(&cluster, &ji, &plan[1..]);
        assert!(missing.contains("placement missing"), "{missing}");
        let mut twice = plan.clone();
        twice.push(plan[0]);
        let twice = audit_err(&cluster, &ji, &twice);
        assert!(twice.contains("more than once"), "{twice}");
        let mut stranger = plan.clone();
        stranger.push((TaskId(77), ResourceId(1), SimTime::from_secs(40)));
        let stranger = audit_err(&cluster, &ji, &stranger);
        assert!(stranger.contains("4 placements"), "{stranger}");
    }

    #[test]
    fn audit_rejects_an_unknown_resource() {
        let (cluster, job, mut plan) = audited_round();
        plan[1].1 = ResourceId(2);
        let err = audit_err(&cluster, &inputs(&job), &plan);
        assert!(err.contains("unknown resource"), "{err}");
    }

    #[test]
    fn audit_rejects_a_resource_without_capacity_for_the_kind() {
        let (mut cluster, job, plan) = audited_round();
        cluster[0].reduce_capacity = 0;
        let err = audit_err(&cluster, &inputs(&job), &plan);
        assert!(err.contains("insufficient capacity"), "{err}");
    }

    #[test]
    fn audit_rejects_a_moved_pin() {
        let (cluster, job, plan) = audited_round();
        let mut ji = inputs(&job);
        ji.tasks[1].pinned = Some((ResourceId(1), SimTime::from_secs(5)));
        audit(&cluster, std::slice::from_ref(&ji), &plan).unwrap();
        ji.tasks[1].pinned = Some((ResourceId(0), SimTime::from_secs(5)));
        let elsewhere = audit_err(&cluster, &ji, &plan);
        assert!(elsewhere.contains("pinned task"), "{elsewhere}");
        ji.tasks[1].pinned = Some((ResourceId(1), SimTime::from_secs(4)));
        let earlier = audit_err(&cluster, &ji, &plan);
        assert!(earlier.contains("pinned task"), "{earlier}");
    }

    #[test]
    fn audit_rejects_a_free_task_before_its_release() {
        let (cluster, job, mut plan) = audited_round();
        plan[0].2 = SimTime::from_secs(4);
        let err = audit_err(&cluster, &inputs(&job), &plan);
        assert!(err.contains("before job release"), "{err}");
    }

    #[test]
    fn audit_rejects_a_reduce_before_the_last_map_ends() {
        let (cluster, job, mut plan) = audited_round();
        plan[2].2 = SimTime::from_secs(24);
        let err = audit_err(&cluster, &inputs(&job), &plan);
        assert!(err.contains("before last map end"), "{err}");
    }

    #[test]
    fn audit_rejects_an_over_capacity_pool() {
        let (cluster, job, mut plan) = audited_round();
        plan[1] = (TaskId(1), ResourceId(0), SimTime::from_secs(14));
        plan[2].2 = SimTime::from_secs(34);
        let err = audit_err(&cluster, &inputs(&job), &plan);
        assert!(err.contains("over capacity"), "{err}");
        // Back to back is not an overlap.
        plan[1].2 = SimTime::from_secs(15);
        plan[2].2 = SimTime::from_secs(35);
        audit(&cluster, &[inputs(&job)], &plan).unwrap();
    }
}

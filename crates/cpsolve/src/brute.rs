//! Brute-force oracle for small instances.
//!
//! Exhaustively enumerates every `(resource, start)` placement of every task
//! over integer start times up to the model horizon, and returns the true
//! minimum number of late jobs. Exponential — usable only for the tiny
//! instances the solver's optimality tests and property tests construct,
//! which is exactly its purpose: an implementation-independent ground truth
//! that shares no code with the CP solver.

use crate::model::{Model, ResRef, SlotKind, TaskRef};

/// Exhaustive minimum of `Σ N_j` for `model`, exploring at most
/// `max_states` placement attempts. Returns `None` when the state budget is
/// exceeded or a pinned task is contradictory (no complete placement).
pub fn brute_force_optimal(model: &Model, max_states: u64) -> Option<u32> {
    // Placement order: maps before their job's reduces (barrier), so each
    // reduce's earliest permissible start is known once its maps are placed.
    let mut order: Vec<TaskRef> = Vec::with_capacity(model.n_tasks());
    for j in 0..model.n_jobs() {
        order.extend(model.maps_of[j].iter().copied());
    }
    for j in 0..model.n_jobs() {
        order.extend(model.reduces_of[j].iter().copied());
    }
    let horizon = model.horizon;
    let max_end = horizon + model.tasks.iter().map(|t| t.dur).max().unwrap_or(0) + 1;

    // usage[r][kind][t] = committed requirement at time t.
    let mut usage: Vec<[Vec<i64>; 2]> = (0..model.n_resources())
        .map(|_| {
            [
                vec![0i64; max_end.max(1) as usize],
                vec![0i64; max_end.max(1) as usize],
            ]
        })
        .collect();

    let mut starts = vec![0i64; model.n_tasks()];
    let mut resources = vec![ResRef(0); model.n_tasks()];
    let mut budget = max_states;
    let mut best: Option<u32> = None;

    fn kind_idx(k: SlotKind) -> usize {
        match k {
            SlotKind::Map => 0,
            SlotKind::Reduce => 1,
        }
    }

    // Depth-first over `order[pos..]`.
    #[allow(clippy::too_many_arguments)] // explicit recursion state, clearer than a struct here
    fn rec(
        model: &Model,
        order: &[TaskRef],
        pos: usize,
        usage: &mut [[Vec<i64>; 2]],
        starts: &mut [i64],
        resources: &mut [ResRef],
        best: &mut Option<u32>,
        budget: &mut u64,
    ) {
        if *budget == 0 {
            return;
        }
        if pos == order.len() {
            // Count late jobs.
            let mut late = 0u32;
            for j in 0..model.n_jobs() {
                let job = crate::model::JobRef(j as u32);
                let completion = model
                    .tasks_of(job)
                    .map(|t| starts[t.idx()] + model.tasks[t.idx()].dur)
                    .max();
                if let Some(c) = completion {
                    if c > model.jobs[j].deadline {
                        late += 1;
                    }
                }
            }
            if best.is_none_or(|b| late < b) {
                *best = Some(late);
            }
            return;
        }
        // Bound: a completed placement can't beat the incumbent of 0.
        if *best == Some(0) {
            return;
        }

        let t = order[pos];
        let spec = &model.tasks[t.idx()];
        let ki = kind_idx(spec.kind);
        let req = spec.req as i64;

        // Barrier floor: reduces wait for their job's maps (all already
        // placed thanks to the ordering).
        let mut floor = model.task_release(t);
        if spec.kind == SlotKind::Reduce {
            for &m in &model.maps_of[spec.job.idx()] {
                floor = floor.max(starts[m.idx()] + model.tasks[m.idx()].dur);
            }
        }

        let placements: Vec<(ResRef, i64)> = match spec.fixed {
            Some((r, s)) => vec![(r, s)],
            None => {
                let mut v = Vec::new();
                for r in 0..model.n_resources() {
                    if model.resources[r].cap(spec.kind) < spec.req {
                        continue;
                    }
                    for s in floor..=model.horizon {
                        v.push((ResRef(r as u32), s));
                    }
                }
                v
            }
        };

        'outer: for (r, s) in placements {
            if *budget == 0 {
                return;
            }
            *budget -= 1;
            let cap = model.resources[r.idx()].cap(spec.kind) as i64;
            let lane = &mut usage[r.idx()][ki];
            let lo = s.max(0) as usize;
            let hi = ((s + spec.dur).max(0) as usize).min(lane.len());
            for slot in lane[lo..hi].iter() {
                if slot + req > cap {
                    continue 'outer;
                }
            }
            for slot in lane[lo..hi].iter_mut() {
                *slot += req;
            }
            starts[t.idx()] = s;
            resources[t.idx()] = r;
            rec(
                model,
                order,
                pos + 1,
                usage,
                starts,
                resources,
                best,
                budget,
            );
            let lane = &mut usage[r.idx()][ki];
            for slot in lane[lo..hi].iter_mut() {
                *slot -= req;
            }
        }
    }

    rec(
        model,
        &order,
        0,
        &mut usage,
        &mut starts,
        &mut resources,
        &mut best,
        &mut budget,
    );
    if budget == 0 {
        return None; // exhausted the state budget: result not trustworthy
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelBuilder, SlotKind};

    #[test]
    fn trivial_instance_optimum_zero() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(0, 10);
        b.add_task(j, SlotKind::Map, 5, 1);
        b.set_horizon(6);
        let m = b.build().unwrap();
        assert_eq!(brute_force_optimal(&m, 1_000_000), Some(0));
    }

    #[test]
    fn impossible_deadline_optimum_one() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(0, 3);
        b.add_task(j, SlotKind::Map, 5, 1);
        b.set_horizon(6);
        let m = b.build().unwrap();
        assert_eq!(brute_force_optimal(&m, 1_000_000), Some(1));
    }

    #[test]
    fn contention_forces_one_late() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        for _ in 0..2 {
            let j = b.add_job(0, 6);
            b.add_task(j, SlotKind::Map, 5, 1);
        }
        b.set_horizon(11);
        let m = b.build().unwrap();
        assert_eq!(brute_force_optimal(&m, 10_000_000), Some(1));
    }

    #[test]
    fn barrier_respected_in_oracle() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(0, 7);
        b.add_task(j, SlotKind::Map, 4, 1);
        b.add_task(j, SlotKind::Reduce, 4, 1);
        b.set_horizon(9);
        let m = b.build().unwrap();
        // reduce can start at 4 at the earliest → ends at 8 > 7 → 1 late.
        assert_eq!(brute_force_optimal(&m, 10_000_000), Some(1));
    }

    #[test]
    fn state_budget_returns_none() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(0, 100);
        for _ in 0..4 {
            b.add_task(j, SlotKind::Map, 5, 1);
        }
        let m = b.build().unwrap();
        assert_eq!(brute_force_optimal(&m, 3), None);
    }
}

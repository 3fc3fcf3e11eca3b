//! Solutions and an independent feasibility verifier.
//!
//! [`Solution::verify`] re-checks every constraint of the paper's
//! formulation from scratch, sharing no code with the propagators — it is
//! the ground truth for the solver's property-based tests and is also used
//! by MRCP-RM in debug builds to audit every schedule it installs.

use crate::model::{JobRef, Model, ResRef, SlotKind, TaskRef};

/// A complete assignment: a start time and a resource per task, a lateness
/// flag per job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// Assigned start time `a_t` per task, indexed by [`TaskRef`].
    pub starts: Vec<i64>,
    /// Assigned resource (the `x_tr = 1` choice) per task.
    pub resource: Vec<ResRef>,
    /// Lateness `N_j` per job.
    pub late: Vec<bool>,
    /// `Σ N_j` — the number of late jobs.
    pub objective: u32,
}

impl Solution {
    /// Assemble a solution from raw placements, deriving lateness flags and
    /// the objective from the schedule.
    pub fn from_placements(model: &Model, starts: Vec<i64>, resource: Vec<ResRef>) -> Solution {
        assert_eq!(starts.len(), model.n_tasks());
        assert_eq!(resource.len(), model.n_tasks());
        let mut late = vec![false; model.n_jobs()];
        for (j, flag) in late.iter_mut().enumerate() {
            let job = JobRef(j as u32);
            let completion = model
                .tasks_of(job)
                .map(|t| starts[t.idx()] + model.tasks[t.idx()].dur)
                .max();
            if let Some(c) = completion {
                *flag = c > model.jobs[j].deadline;
            }
        }
        let objective = late.iter().filter(|&&l| l).count() as u32;
        Solution {
            starts,
            resource,
            late,
            objective,
        }
    }

    /// End time of `t`.
    pub fn end(&self, model: &Model, t: TaskRef) -> i64 {
        self.starts[t.idx()] + model.tasks[t.idx()].dur
    }

    /// Completion time of `j` (end of its latest task), or the job release
    /// for an empty job.
    pub fn job_completion(&self, model: &Model, j: JobRef) -> i64 {
        model
            .tasks_of(j)
            .map(|t| self.end(model, t))
            .max()
            .unwrap_or(model.jobs[j.idx()].release)
    }

    /// Latest end over all tasks.
    pub fn makespan(&self, model: &Model) -> i64 {
        (0..model.n_tasks())
            .map(|i| self.end(model, TaskRef(i as u32)))
            .max()
            .unwrap_or(0)
    }

    /// Re-check every constraint of the formulation. Returns a description
    /// of the first violation found.
    pub fn verify(&self, model: &Model) -> Result<(), String> {
        if self.starts.len() != model.n_tasks()
            || self.resource.len() != model.n_tasks()
            || self.late.len() != model.n_jobs()
        {
            return Err("solution shape does not match model".into());
        }

        // Constraint 1 (+ capacity sanity): each task on one capable resource.
        for i in 0..model.n_tasks() {
            let t = TaskRef(i as u32);
            let spec = &model.tasks[i];
            let r = self.resource[i];
            if r.idx() >= model.n_resources() {
                return Err(format!("task {i} assigned to unknown resource {r:?}"));
            }
            if model.resources[r.idx()].cap(spec.kind) < spec.req {
                return Err(format!(
                    "task {i} ({:?}) on resource {r:?} with insufficient capacity",
                    spec.kind
                ));
            }
            // Pinning (§V.B): started tasks must be exactly where they were.
            if let Some((pr, ps)) = spec.fixed {
                if r != pr || self.starts[i] != ps {
                    return Err(format!(
                        "pinned task {i} moved: expected {pr:?}@{ps}, got {r:?}@{}",
                        self.starts[i]
                    ));
                }
            } else {
                // Constraint 2: earliest start time (maps and, through the
                // barrier, reduces — the release is a lower bound for all).
                let release = model.jobs[spec.job.idx()].release;
                if self.starts[i] < release {
                    return Err(format!(
                        "task {i} starts at {} before job release {release}",
                        self.starts[i]
                    ));
                }
            }
            let _ = t;
        }

        // Constraint 3: phase barrier.
        for j in 0..model.n_jobs() {
            let maps = &model.maps_of[j];
            let reduces = &model.reduces_of[j];
            if maps.is_empty() || reduces.is_empty() {
                continue;
            }
            let lfmt = maps
                .iter()
                .map(|&t| self.end(model, t))
                .max()
                .expect("maps nonempty");
            for &rt in reduces {
                if self.starts[rt.idx()] < lfmt {
                    return Err(format!(
                        "job {j}: reduce {:?} starts at {} before last map end {lfmt}",
                        rt,
                        self.starts[rt.idx()]
                    ));
                }
            }
        }

        // Constraints 5/6: capacity per (resource, kind) at every instant.
        for r in 0..model.n_resources() {
            for kind in [SlotKind::Map, SlotKind::Reduce] {
                let cap = model.resources[r].cap(kind) as i64;
                let mut events: Vec<(i64, i64)> = Vec::new();
                for i in 0..model.n_tasks() {
                    let spec = &model.tasks[i];
                    if spec.kind == kind && self.resource[i].idx() == r {
                        events.push((self.starts[i], spec.req as i64));
                        events.push((self.starts[i] + spec.dur, -(spec.req as i64)));
                    }
                }
                events.sort_unstable();
                let mut height = 0i64;
                let mut idx = 0;
                while idx < events.len() {
                    let t = events[idx].0;
                    while idx < events.len() && events[idx].0 == t {
                        height += events[idx].1;
                        idx += 1;
                    }
                    if height > cap {
                        return Err(format!(
                            "resource r{r} {kind:?} pool over capacity ({height} > {cap}) at t={t}"
                        ));
                    }
                }
            }
        }

        // Constraint 4 (iff form) + objective consistency.
        let mut count = 0u32;
        for j in 0..model.n_jobs() {
            let job = JobRef(j as u32);
            let completion = self.job_completion(model, job);
            let should_be_late = completion > model.jobs[j].deadline;
            if self.late[j] != should_be_late {
                return Err(format!(
                    "job {j}: late flag {} inconsistent with completion {completion} vs deadline {}",
                    self.late[j], model.jobs[j].deadline
                ));
            }
            count += should_be_late as u32;
        }
        if count != self.objective {
            return Err(format!(
                "objective {} != late-job count {count}",
                self.objective
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelBuilder, SlotKind};

    /// 2 resources, job with 2 maps + 1 reduce.
    fn model() -> Model {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        b.add_resource(1, 1);
        let j = b.add_job(0, 30);
        b.add_task(j, SlotKind::Map, 10, 1); // t0
        b.add_task(j, SlotKind::Map, 10, 1); // t1
        b.add_task(j, SlotKind::Reduce, 5, 1); // t2
        b.build().unwrap()
    }

    fn good_solution(model: &Model) -> Solution {
        Solution::from_placements(model, vec![0, 0, 10], vec![ResRef(0), ResRef(1), ResRef(0)])
    }

    #[test]
    fn valid_solution_verifies() {
        let m = model();
        let s = good_solution(&m);
        assert_eq!(s.objective, 0);
        assert!(!s.late[0]);
        s.verify(&m).unwrap();
        assert_eq!(s.makespan(&m), 15);
        assert_eq!(s.job_completion(&m, JobRef(0)), 15);
    }

    #[test]
    fn from_placements_derives_lateness() {
        let m = model();
        // Serialize everything on r0: maps at 0 and 10, reduce at 20 → ends 25.
        let s =
            Solution::from_placements(&m, vec![0, 10, 20], vec![ResRef(0), ResRef(0), ResRef(0)]);
        s.verify(&m).unwrap();
        assert!(!s.late[0], "ends at 25 ≤ 30");
        let s2 =
            Solution::from_placements(&m, vec![0, 10, 26], vec![ResRef(0), ResRef(0), ResRef(0)]);
        assert!(s2.late[0], "ends at 31 > 30");
        assert_eq!(s2.objective, 1);
        s2.verify(&m).unwrap();
    }

    #[test]
    fn capacity_violation_detected() {
        let m = model();
        // Both maps on r0 at the same time on a 1-slot pool.
        let s =
            Solution::from_placements(&m, vec![0, 0, 10], vec![ResRef(0), ResRef(0), ResRef(0)]);
        let err = s.verify(&m).unwrap_err();
        assert!(err.contains("over capacity"), "{err}");
    }

    #[test]
    fn barrier_violation_detected() {
        let m = model();
        let s = Solution::from_placements(
            &m,
            vec![0, 0, 5], // reduce starts before maps end
            vec![ResRef(0), ResRef(1), ResRef(0)],
        );
        let err = s.verify(&m).unwrap_err();
        assert!(err.contains("before last map end"), "{err}");
    }

    #[test]
    fn release_violation_detected() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(10, 100);
        b.add_task(j, SlotKind::Map, 5, 1);
        let m = b.build().unwrap();
        let s = Solution::from_placements(&m, vec![5], vec![ResRef(0)]);
        assert!(s.verify(&m).unwrap_err().contains("before job release"));
    }

    #[test]
    fn pinned_task_must_not_move() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        b.add_resource(1, 1);
        let j = b.add_job(0, 100);
        let t = b.add_task(j, SlotKind::Map, 5, 1);
        b.fix_task(t, ResRef(1), 3);
        let m = b.build().unwrap();
        let ok = Solution::from_placements(&m, vec![3], vec![ResRef(1)]);
        ok.verify(&m).unwrap();
        let moved = Solution::from_placements(&m, vec![4], vec![ResRef(1)]);
        assert!(moved.verify(&m).unwrap_err().contains("pinned"));
        let rehomed = Solution::from_placements(&m, vec![3], vec![ResRef(0)]);
        assert!(rehomed.verify(&m).unwrap_err().contains("pinned"));
    }

    #[test]
    fn inconsistent_flags_detected() {
        let m = model();
        let mut s = good_solution(&m);
        s.late[0] = true; // actually on time
        assert!(s.verify(&m).unwrap_err().contains("inconsistent"));
        let mut s = good_solution(&m);
        s.objective = 5;
        assert!(s.verify(&m).unwrap_err().contains("objective"));
    }

    #[test]
    fn wrong_kind_pool_detected() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 0); // r0 has no reduce slots
        b.add_resource(1, 1);
        let j = b.add_job(0, 100);
        b.add_task(j, SlotKind::Map, 5, 1);
        b.add_task(j, SlotKind::Reduce, 5, 1);
        let m = b.build().unwrap();
        let s = Solution::from_placements(&m, vec![0, 5], vec![ResRef(0), ResRef(0)]);
        assert!(s.verify(&m).unwrap_err().contains("insufficient capacity"));
    }
}

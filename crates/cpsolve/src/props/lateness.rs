//! Deadline reification (paper constraint 4).
//!
//! Links a job's lateness indicator `N_j` with the completion bounds of its
//! tasks: the job completes when its latest task ends (for MapReduce jobs
//! the barrier means this is a reduce, or a map for map-only jobs).
//!
//! * If the earliest possible completion already exceeds `d_j`, the job is
//!   provably late: `N_j := 1`.
//! * If the latest possible completion is within `d_j`, the job is provably
//!   on time: `N_j := 0` (the objective minimizes, so the "iff" reading of
//!   constraint 4 is the useful one).
//! * Once `N_j = 0` is decided (by this propagator or by the objective
//!   cut), the deadline becomes a hard bound: every task must end by `d_j`.

use super::{Ctx, PropClass, Propagator};
use crate::model::{JobRef, Model, TaskRef};
use crate::state::{Conflict, Lateness};

/// Reified deadline for one job.
#[derive(Debug)]
pub struct JobLateness {
    job: JobRef,
}

impl JobLateness {
    /// Reification for `job`.
    pub fn new(job: JobRef) -> Self {
        JobLateness { job }
    }
}

impl Propagator for JobLateness {
    fn propagate(&mut self, ctx: &mut Ctx<'_>) -> Result<(), Conflict> {
        let deadline = ctx.model.jobs[self.job.idx()].deadline;

        let mut completion_lb = i64::MIN;
        let mut completion_ub = i64::MIN;
        for t in ctx.model.tasks_of(self.job) {
            let dur = ctx.model.tasks[t.idx()].dur;
            completion_lb = completion_lb.max(ctx.dom.lb(t) + dur);
            completion_ub = completion_ub.max(ctx.dom.ub(t) + dur);
        }
        if completion_lb == i64::MIN {
            return Ok(()); // job with no tasks: vacuously on time
        }

        if completion_lb > deadline {
            ctx.dom.set_late(self.job, Lateness::Late)?;
        } else if completion_ub <= deadline {
            ctx.dom.set_late(self.job, Lateness::OnTime)?;
        }

        if ctx.dom.late(self.job) == Lateness::OnTime {
            let model = ctx.model; // copy the reference so `ctx.dom` stays free
            for t in model.tasks_of(self.job) {
                let spec = &model.tasks[t.idx()];
                if spec.fixed.is_some() {
                    // A pinned task cannot be moved; if it ends after the
                    // deadline the completion_lb check above has already
                    // marked the job late, contradicting OnTime via
                    // set_late's conflict.
                    continue;
                }
                ctx.dom.set_ub(t, deadline - spec.dur)?;
            }
        }
        Ok(())
    }

    /// Idempotent: a run writes only `ub`s, so a re-run sees the same
    /// `completion_lb` and decides the same status, and its `ub` writes
    /// already hold.
    fn at_own_fixpoint(&self) -> bool {
        true
    }

    fn watched_tasks(&self, model: &Model) -> Vec<TaskRef> {
        model.tasks_of(self.job).collect()
    }

    fn watched_jobs(&self, _model: &Model) -> Vec<JobRef> {
        vec![self.job] // re-run when the objective cut forces N_j = 0
    }

    fn class(&self) -> PropClass {
        PropClass::Lateness
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelBuilder, SlotKind};
    use crate::state::Domains;

    fn model(deadline: i64) -> Model {
        let mut b = ModelBuilder::new();
        b.add_resource(2, 2);
        let j = b.add_job(0, deadline);
        b.add_task(j, SlotKind::Map, 10, 1); // t0
        b.add_task(j, SlotKind::Reduce, 5, 1); // t1
        b.set_horizon(100);
        b.build().unwrap()
    }

    fn run(model: &Model, dom: &mut Domains) -> Result<(), Conflict> {
        let mut p = JobLateness::new(JobRef(0));
        let mut c = Ctx {
            model,
            dom,
            bound: u32::MAX,
        };
        p.propagate(&mut c)
    }

    #[test]
    fn provably_late_sets_indicator() {
        let m = model(8); // even the map alone ends at 10 > 8
        let mut d = Domains::new(&m);
        run(&m, &mut d).unwrap();
        assert_eq!(d.late(JobRef(0)), Lateness::Late);
    }

    #[test]
    fn provably_on_time_sets_indicator() {
        let m = model(500); // horizon 100 → worst completion 105 ≤ 500
        let mut d = Domains::new(&m);
        run(&m, &mut d).unwrap();
        assert_eq!(d.late(JobRef(0)), Lateness::OnTime);
    }

    #[test]
    fn undecided_stays_unknown() {
        let m = model(50);
        let mut d = Domains::new(&m);
        run(&m, &mut d).unwrap();
        assert_eq!(d.late(JobRef(0)), Lateness::Unknown);
    }

    #[test]
    fn on_time_decision_tightens_task_ubs() {
        let m = model(50);
        let mut d = Domains::new(&m);
        d.set_late(JobRef(0), Lateness::OnTime).unwrap();
        run(&m, &mut d).unwrap();
        assert_eq!(d.ub(TaskRef(0)), 40); // must end by 50
        assert_eq!(d.ub(TaskRef(1)), 45);
    }

    #[test]
    fn on_time_with_impossible_deadline_conflicts() {
        let m = model(50);
        let mut d = Domains::new(&m);
        d.set_late(JobRef(0), Lateness::OnTime).unwrap();
        d.set_lb(TaskRef(1), 48).unwrap(); // reduce would end at 53 > 50
        assert!(run(&m, &mut d).is_err());
    }

    #[test]
    fn pinned_late_task_conflicts_with_on_time() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(0, 20);
        let t = b.add_task(j, SlotKind::Map, 10, 1);
        b.fix_task(t, crate::model::ResRef(0), 15); // ends at 25 > 20
        let m = b.build().unwrap();
        let mut d = Domains::new(&m);
        // completion_lb = 25 > 20 → Late; forcing OnTime must conflict.
        run(&m, &mut d).unwrap();
        assert_eq!(d.late(JobRef(0)), Lateness::Late);
        assert!(d.set_late(JobRef(0), Lateness::OnTime).is_err());
    }
}

//! The map→reduce phase barrier (paper constraint 3).

use super::{Ctx, PropClass, Propagator};
use crate::model::{JobRef, Model, TaskRef};
use crate::state::Conflict;

/// Constraint (3): every reduce task of a job starts at or after the
/// completion of the job's latest-finishing map task.
///
/// Propagates the aggregated form in O(maps + reduces):
/// * every reduce's start lower bound ≥ max over maps of `lb(start) + dur`,
/// * every map's start upper bound ≤ min over reduces of `ub(start)` minus
///   the map's duration.
#[derive(Debug)]
pub struct PhaseBarrier {
    job: JobRef,
}

impl PhaseBarrier {
    /// Barrier for `job`.
    pub fn new(job: JobRef) -> Self {
        PhaseBarrier { job }
    }
}

impl Propagator for PhaseBarrier {
    fn propagate(&mut self, ctx: &mut Ctx<'_>) -> Result<(), Conflict> {
        let maps = &ctx.model.maps_of[self.job.idx()];
        let reduces = &ctx.model.reduces_of[self.job.idx()];
        if maps.is_empty() || reduces.is_empty() {
            return Ok(());
        }
        let max_map_end_lb = maps
            .iter()
            .map(|&t| ctx.dom.lb(t) + ctx.model.tasks[t.idx()].dur)
            .max()
            .expect("maps nonempty");
        for &r in reduces {
            ctx.dom.set_lb(r, max_map_end_lb)?;
        }
        let min_red_start_ub = reduces
            .iter()
            .map(|&t| ctx.dom.ub(t))
            .min()
            .expect("reduces nonempty");
        for &m in maps {
            // Pinned (already running) maps must not be moved; if a pinned
            // map genuinely ends after a reduce's latest start the reduce's
            // lb update above will surface the conflict instead.
            if ctx.model.tasks[m.idx()].fixed.is_some() {
                continue;
            }
            ctx.dom
                .set_ub(m, min_red_start_ub - ctx.model.tasks[m.idx()].dur)?;
        }
        Ok(())
    }

    /// Idempotent: a run reads the maps' `lb`s and the reduces' `ub`s and
    /// writes only the reduces' `lb`s and the maps' `ub`s.
    fn at_own_fixpoint(&self) -> bool {
        true
    }

    fn watched_tasks(&self, model: &Model) -> Vec<TaskRef> {
        model.tasks_of(self.job).collect()
    }

    fn class(&self) -> PropClass {
        PropClass::Barrier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelBuilder, SlotKind};
    use crate::state::Domains;

    fn ctx_model() -> Model {
        let mut b = ModelBuilder::new();
        b.add_resource(4, 4);
        let j = b.add_job(0, 100);
        b.add_task(j, SlotKind::Map, 10, 1); // t0
        b.add_task(j, SlotKind::Map, 20, 1); // t1
        b.add_task(j, SlotKind::Reduce, 5, 1); // t2
        b.add_task(j, SlotKind::Reduce, 5, 1); // t3
        b.set_horizon(100);
        b.build().unwrap()
    }

    #[test]
    fn barrier_pushes_reduce_lb_and_map_ub() {
        let model = ctx_model();
        let mut dom = Domains::new(&model);
        let mut p = PhaseBarrier::new(JobRef(0));
        let mut c = Ctx {
            model: &model,
            dom: &mut dom,
            bound: u32::MAX,
        };
        p.propagate(&mut c).unwrap();
        // reduces cannot start before the longest map could end (t=20)
        assert_eq!(dom.lb(TaskRef(2)), 20);
        assert_eq!(dom.lb(TaskRef(3)), 20);
        // maps must end by the reduces' latest start (100)
        assert_eq!(dom.ub(TaskRef(0)), 90);
        assert_eq!(dom.ub(TaskRef(1)), 80);
    }

    #[test]
    fn barrier_bidirectional_tightening() {
        let model = ctx_model();
        let mut dom = Domains::new(&model);
        dom.set_ub(TaskRef(2), 30).unwrap(); // reduce must start by 30
        let mut p = PhaseBarrier::new(JobRef(0));
        let mut c = Ctx {
            model: &model,
            dom: &mut dom,
            bound: u32::MAX,
        };
        p.propagate(&mut c).unwrap();
        // the 20-long map must start by 10 so it ends by 30
        assert_eq!(dom.ub(TaskRef(1)), 10);
    }

    #[test]
    fn barrier_conflict_when_maps_cannot_finish_in_time() {
        let model = ctx_model();
        let mut dom = Domains::new(&model);
        dom.set_lb(TaskRef(1), 50).unwrap(); // long map starts ≥ 50, ends ≥ 70
        dom.set_ub(TaskRef(2), 60).unwrap(); // reduce must start by 60
        let mut p = PhaseBarrier::new(JobRef(0));
        let mut c = Ctx {
            model: &model,
            dom: &mut dom,
            bound: u32::MAX,
        };
        assert!(p.propagate(&mut c).is_err());
    }

    #[test]
    fn barrier_watches_all_job_tasks() {
        let model = ctx_model();
        let p = PhaseBarrier::new(JobRef(0));
        assert_eq!(p.watched_tasks(&model).len(), 4);
    }
}

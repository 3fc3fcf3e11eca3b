//! The branch-and-bound objective cut: `Σ_j N_j ≤ bound`.
//!
//! The search tightens `bound` every time an incumbent improves (to
//! `incumbent − 1`). This propagator fails any subtree where more jobs are
//! already provably late than the cut allows, and — the strong part — when
//! the count of provably-late jobs *equals* the cut, it forces every still-
//! undecided job to be on time, which turns all remaining deadlines into
//! hard bounds and lets the deadline/cumulative propagators prune deeply.

use super::{Ctx, PropClass, Propagator};
use crate::model::{JobRef, Model, TaskRef};
use crate::state::{Conflict, Lateness};

/// `Σ N_j ≤ ctx.bound`.
#[derive(Debug, Default)]
pub struct ObjectiveBound;

impl ObjectiveBound {
    /// The cut propagator (bound lives in the engine context).
    pub fn new() -> Self {
        ObjectiveBound
    }
}

impl Propagator for ObjectiveBound {
    fn propagate(&mut self, ctx: &mut Ctx<'_>) -> Result<(), Conflict> {
        // Record (trailed) that this cut value has been enforced on the
        // current search path, so the engine can skip re-enqueueing this
        // propagator until the cut tightens again.
        ctx.dom.note_applied_cut(ctx.bound);
        if ctx.bound == u32::MAX {
            return Ok(()); // no incumbent yet, nothing to cut
        }
        let late = ctx.dom.late_count();
        if late > ctx.bound {
            return Err(Conflict);
        }
        if late == ctx.bound {
            for j in 0..ctx.model.n_jobs() {
                let j = JobRef(j as u32);
                if ctx.dom.late(j) == Lateness::Unknown {
                    ctx.dom.set_late(j, Lateness::OnTime)?;
                }
            }
        }
        Ok(())
    }

    /// Idempotent: a run marks jobs only `OnTime`, so a re-run counts the
    /// same late jobs and finds no undecided one left to force.
    fn at_own_fixpoint(&self) -> bool {
        true
    }

    fn watched_tasks(&self, _model: &Model) -> Vec<TaskRef> {
        Vec::new()
    }

    fn watched_jobs(&self, model: &Model) -> Vec<JobRef> {
        (0..model.n_jobs()).map(|j| JobRef(j as u32)).collect()
    }

    fn class(&self) -> PropClass {
        PropClass::Objective
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelBuilder, SlotKind};
    use crate::state::Domains;

    fn model(n_jobs: usize) -> Model {
        let mut b = ModelBuilder::new();
        b.add_resource(4, 4);
        for _ in 0..n_jobs {
            let j = b.add_job(0, 100);
            b.add_task(j, SlotKind::Map, 10, 1);
        }
        b.build().unwrap()
    }

    fn run(model: &Model, dom: &mut Domains, bound: u32) -> Result<(), Conflict> {
        let mut p = ObjectiveBound::new();
        let mut c = Ctx { model, dom, bound };
        p.propagate(&mut c)
    }

    #[test]
    fn over_budget_conflicts() {
        let m = model(3);
        let mut d = Domains::new(&m);
        d.set_late(JobRef(0), Lateness::Late).unwrap();
        d.set_late(JobRef(1), Lateness::Late).unwrap();
        assert!(run(&m, &mut d, 1).is_err());
        assert!(run(&m, &mut d, 2).is_ok());
    }

    #[test]
    fn exact_budget_forces_remaining_on_time() {
        let m = model(3);
        let mut d = Domains::new(&m);
        d.set_late(JobRef(0), Lateness::Late).unwrap();
        run(&m, &mut d, 1).unwrap();
        assert_eq!(d.late(JobRef(1)), Lateness::OnTime);
        assert_eq!(d.late(JobRef(2)), Lateness::OnTime);
    }

    #[test]
    fn no_incumbent_is_a_noop() {
        let m = model(2);
        let mut d = Domains::new(&m);
        d.set_late(JobRef(0), Lateness::Late).unwrap();
        run(&m, &mut d, u32::MAX).unwrap();
        assert_eq!(d.late(JobRef(1)), Lateness::Unknown);
    }

    #[test]
    fn bound_zero_forces_all_on_time() {
        let m = model(2);
        let mut d = Domains::new(&m);
        run(&m, &mut d, 0).unwrap();
        assert_eq!(d.late(JobRef(0)), Lateness::OnTime);
        assert_eq!(d.late(JobRef(1)), Lateness::OnTime);
    }
}

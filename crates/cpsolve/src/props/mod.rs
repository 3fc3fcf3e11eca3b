//! Propagators and the propagation fixpoint engine.
//!
//! The engine propagates §V.D's combined model, whose one resource hosts
//! every task (see [`crate::search`]). Each constraint family of the
//! paper's Table 1 formulation that binds on it has a dedicated
//! propagator:
//!
//! * [`barrier::PhaseBarrier`] — constraint (3): reduces start after every
//!   map of the job completes,
//! * [`lateness::JobLateness`] — constraints (2)/(4): deadline reification
//!   onto the lateness indicator `N_j`,
//! * [`cumulative::Cumulative`] — constraints (5)/(6): map/reduce slot
//!   capacity of the one pool (timetable filtering),
//! * [`objective::ObjectiveBound`] — the branch-and-bound cut
//!   `Σ N_j ≤ bound`.
//!
//! The [`Engine`] runs them to fixpoint with a watcher-driven worklist,
//! tiered by cost: cheap bound propagators (barrier, lateness, objective)
//! drain before timetable filtering, so the expensive filter
//! always runs on quiesced domains.
//!
//! A propagator may report, after a run, that it left itself at its own
//! fixpoint ([`Propagator::at_own_fixpoint`]): run again at once, it would
//! narrow nothing. The engine then wakes every other watcher of that run's
//! narrowings but not the propagator itself (the idempotence protocol of
//! Schulte & Stuckey, *Efficient Constraint Propagation Engines*, TOPLAS
//! 2008). The barrier, lateness and objective propagators
//! always claim it: none of them writes what would change its next run's
//! writes (each impl says why). The timetable answers per run: it claims
//! it unless the run changed a pool task's own mandatory part. Skipping
//! such re-runs changes no domain at any fixpoint. Debug builds never trust
//! a claim: the engine re-runs the propagator at once and asserts that it
//! narrows nothing.

pub mod barrier;
pub mod cumulative;
pub mod lateness;
pub mod objective;

use crate::model::{JobRef, Model, TaskRef};
use crate::state::{Conflict, Domains};
use std::collections::VecDeque;
use std::time::Instant;

/// Shared context handed to propagators.
pub struct Ctx<'a> {
    /// The immutable problem.
    pub model: &'a Model,
    /// The backtrackable domains.
    pub dom: &'a mut Domains,
    /// Current objective cut: at most this many jobs may be late.
    pub bound: u32,
}

/// Cost/observability class of a propagator. The class decides both the
/// queue tier it drains from (see [`PropClass::priority`]) and the bucket
/// its counters land in ([`PropStats::by_class`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropClass {
    /// Phase barriers (cheap bound propagation).
    Barrier,
    /// Deadline/lateness reification (cheap).
    Lateness,
    /// Timetable cumulative filtering (medium).
    Timetable,
    /// The branch-and-bound objective cut (cheap).
    Objective,
}

/// Number of [`PropClass`] variants (array-indexed stats).
pub const N_PROP_CLASSES: usize = 4;

impl PropClass {
    /// Index into per-class stat arrays.
    #[inline]
    pub fn idx(self) -> usize {
        match self {
            PropClass::Barrier => 0,
            PropClass::Lateness => 1,
            PropClass::Timetable => 2,
            PropClass::Objective => 3,
        }
    }

    /// Stable lowercase name (report columns, telemetry labels).
    pub fn name(self) -> &'static str {
        match self {
            PropClass::Barrier => "barrier",
            PropClass::Lateness => "lateness",
            PropClass::Timetable => "timetable",
            PropClass::Objective => "objective",
        }
    }

    /// Queue tier: 0 = cheap bound propagators, 1 = timetable. Lower tiers
    /// drain first.
    #[inline]
    pub fn priority(self) -> usize {
        match self {
            PropClass::Barrier | PropClass::Lateness | PropClass::Objective => 0,
            PropClass::Timetable => 1,
        }
    }
}

/// All classes in stat-array order.
pub const PROP_CLASSES: [PropClass; N_PROP_CLASSES] = [
    PropClass::Barrier,
    PropClass::Lateness,
    PropClass::Timetable,
    PropClass::Objective,
];

/// One propagator: narrows domains, reporting a conflict on wipe-out.
pub trait Propagator {
    /// Run to local fixpoint for this constraint.
    fn propagate(&mut self, ctx: &mut Ctx<'_>) -> Result<(), Conflict>;

    /// True when the run that just returned `Ok` left this propagator at
    /// its own fixpoint: run again at once on the domains it left, it would
    /// narrow nothing. The engine then does not wake it for its own
    /// narrowings. The default claims nothing.
    fn at_own_fixpoint(&self) -> bool {
        false
    }

    /// Tasks whose domain changes should re-trigger this propagator.
    fn watched_tasks(&self, model: &Model) -> Vec<TaskRef>;

    /// Jobs whose lateness changes should re-trigger this propagator.
    fn watched_jobs(&self, _model: &Model) -> Vec<JobRef> {
        Vec::new()
    }

    /// Cost/stat class (also selects the queue tier).
    fn class(&self) -> PropClass;
}

/// Identifier of a propagator inside an [`Engine`].
type PropId = usize;

/// Number of queue tiers (max [`PropClass::priority`] + 1).
const N_TIERS: usize = 2;

/// The engine times one propagator run in this many and counts each timed
/// run this many times: a clock read pair costs about as much as a cheap
/// run.
const TIME_STRIDE: u64 = 16;

/// Counters for one propagator class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PropClassStats {
    /// Propagator invocations.
    pub runs: u64,
    /// Domain narrowings produced by this class's runs.
    pub prunings: u64,
    /// Conflicts raised.
    pub conflicts: u64,
    /// Wall-clock spent inside `propagate`, microseconds. An estimate: the
    /// engine times one run in 16, picked pseudo-randomly, and scales the
    /// sum by 16. The other three counters are exact.
    pub time_us: u64,
}

/// Aggregate propagation counters (observability; see
/// [`Engine::prop_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PropStats {
    /// Propagator invocations.
    pub runs: u64,
    /// Domain narrowings produced (tasks/jobs dirtied).
    pub prunings: u64,
    /// Conflicts raised.
    pub conflicts: u64,
    /// Per-class breakdown, indexed by [`PropClass::idx`].
    pub by_class: [PropClassStats; N_PROP_CLASSES],
}

/// Watcher-driven propagation fixpoint engine with cost-tiered queues.
pub struct Engine {
    props: Vec<Box<dyn Propagator>>,
    /// Per-propagator class (cached; also fixes the queue tier).
    classes: Vec<PropClass>,
    task_watchers: Vec<Vec<PropId>>,
    job_watchers: Vec<Vec<PropId>>,
    /// One FIFO per cost tier; lower tiers always drain first so the
    /// timetable runs on quiesced domains.
    queues: [VecDeque<PropId>; N_TIERS],
    in_queue: Vec<bool>,
    /// Objective cut shared with the search (monotonically tightened).
    bound: u32,
    stats: PropStats,
    /// Estimated wall-clock inside `propagate` per class, nanoseconds: the
    /// timed runs' sum times [`TIME_STRIDE`]. Most runs of the cheap
    /// classes take under a microsecond, so summing truncated microseconds
    /// would report almost nothing; [`Engine::prop_stats`] converts the sum
    /// once.
    time_ns: [u64; N_PROP_CLASSES],
    /// Xorshift state that picks the timed runs, from a fixed seed so a
    /// repeated solve times the same runs. A run counter would time every
    /// class's root run, its most expensive one.
    clock_pick: u64,
    /// Reusable buffers for draining the domains' dirty queues; kept on
    /// the engine so steady-state propagation allocates nothing.
    scratch_tasks: Vec<TaskRef>,
    scratch_jobs: Vec<JobRef>,
}

impl Engine {
    /// Build the standard propagator set for `model`, which has one
    /// resource.
    pub fn new(model: &Model) -> Self {
        debug_assert_eq!(model.n_resources(), 1, "the engine propagates one pool");
        let mut props: Vec<Box<dyn Propagator>> = Vec::new();
        for j in 0..model.n_jobs() {
            let j = JobRef(j as u32);
            if !model.maps_of[j.idx()].is_empty() && !model.reduces_of[j.idx()].is_empty() {
                props.push(Box::new(barrier::PhaseBarrier::new(j)));
            }
            props.push(Box::new(lateness::JobLateness::new(j)));
        }
        for kind in [crate::model::SlotKind::Map, crate::model::SlotKind::Reduce] {
            if let Some(c) = cumulative::Cumulative::new(model, kind) {
                props.push(Box::new(c));
            }
        }
        props.push(Box::new(objective::ObjectiveBound::new()));

        let mut task_watchers = vec![Vec::new(); model.n_tasks()];
        let mut job_watchers = vec![Vec::new(); model.n_jobs()];
        for (id, p) in props.iter().enumerate() {
            for t in p.watched_tasks(model) {
                task_watchers[t.idx()].push(id);
            }
            for j in p.watched_jobs(model) {
                job_watchers[j.idx()].push(id);
            }
        }
        let classes: Vec<PropClass> = props.iter().map(|p| p.class()).collect();
        let n = props.len();
        Engine {
            props,
            classes,
            task_watchers,
            job_watchers,
            queues: std::array::from_fn(|_| VecDeque::with_capacity(n)),
            in_queue: vec![false; n],
            bound: u32::MAX,
            stats: PropStats::default(),
            time_ns: [0; N_PROP_CLASSES],
            clock_pick: 0x9E37_79B9_7F4A_7C15,
            scratch_tasks: Vec::new(),
            scratch_jobs: Vec::new(),
        }
    }

    /// Cumulative propagation counters since construction.
    pub fn prop_stats(&self) -> PropStats {
        let mut stats = self.stats;
        for (class, ns) in stats.by_class.iter_mut().zip(self.time_ns) {
            class.time_us = ns / 1_000;
        }
        stats
    }

    /// Tighten the objective cut (number of late jobs allowed). Monotone:
    /// attempts to loosen are ignored.
    pub fn set_bound(&mut self, bound: u32) {
        self.bound = self.bound.min(bound);
    }

    /// The current objective cut.
    pub fn bound(&self) -> u32 {
        self.bound
    }

    fn enqueue(&mut self, id: PropId) {
        if !self.in_queue[id] {
            self.in_queue[id] = true;
            self.queues[self.classes[id].priority()].push_back(id);
        }
    }

    /// Pop the next propagator, cheapest tier first.
    fn pop_next(&mut self) -> Option<PropId> {
        self.queues.iter_mut().find_map(|q| q.pop_front())
    }

    fn enqueue_watchers(&mut self, dom: &mut Domains) {
        // Move the scratch buffers out so the watcher walk can borrow
        // `self` mutably; they go back (with their capacity) afterwards.
        let mut tasks = std::mem::take(&mut self.scratch_tasks);
        let mut jobs = std::mem::take(&mut self.scratch_jobs);
        dom.drain_dirty_into(&mut tasks, &mut jobs);
        self.stats.prunings += (tasks.len() + jobs.len()) as u64;
        for &t in &tasks {
            for i in 0..self.task_watchers[t.idx()].len() {
                let id = self.task_watchers[t.idx()][i];
                self.enqueue(id);
            }
        }
        for &j in &jobs {
            for i in 0..self.job_watchers[j.idx()].len() {
                let id = self.job_watchers[j.idx()][i];
                self.enqueue(id);
            }
        }
        self.scratch_tasks = tasks;
        self.scratch_jobs = jobs;
    }

    /// Run every propagator to global fixpoint.
    pub fn propagate_all(&mut self, model: &Model, dom: &mut Domains) -> Result<(), Conflict> {
        for id in 0..self.props.len() {
            self.enqueue(id);
        }
        self.fixpoint(model, dom)
    }

    /// Run to fixpoint starting from the domains' dirty queues (after a
    /// search decision).
    pub fn propagate_dirty(&mut self, model: &Model, dom: &mut Domains) -> Result<(), Conflict> {
        self.enqueue_watchers(dom);
        // Re-check the objective cut only when it tightened since the last
        // time the objective propagator saw it on this search path (the
        // applied cut is trailed, so backtracking past an incumbent's
        // discovery re-arms the check for sibling branches).
        if self.bound < dom.applied_cut() {
            let obj_id = self.props.len() - 1;
            self.enqueue(obj_id);
        }
        self.fixpoint(model, dom)
    }

    fn fixpoint(&mut self, model: &Model, dom: &mut Domains) -> Result<(), Conflict> {
        while let Some(id) = self.pop_next() {
            self.in_queue[id] = false;
            let mut ctx = Ctx {
                model,
                dom,
                bound: self.bound,
            };
            let class_idx = self.classes[id].idx();
            let mut x = self.clock_pick;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.clock_pick = x;
            let t0 = x.is_multiple_of(TIME_STRIDE).then(Instant::now);
            let result = self.props[id].propagate(&mut ctx);
            if let Some(t0) = t0 {
                self.time_ns[class_idx] += t0.elapsed().as_nanos() as u64 * TIME_STRIDE;
            }
            self.stats.runs += 1;
            self.stats.by_class[class_idx].runs += 1;
            match result {
                Ok(()) => {
                    let own_fixpoint = self.props[id].at_own_fixpoint();
                    #[cfg(debug_assertions)]
                    if own_fixpoint {
                        self.check_own_fixpoint(id, model, dom);
                    }
                    // A propagator at its own fixpoint counts as queued while
                    // its narrowings wake their watchers, so it does not wake
                    // itself; every other watcher still runs.
                    self.in_queue[id] = own_fixpoint;
                    let before = self.stats.prunings;
                    self.enqueue_watchers(dom);
                    let pruned = self.stats.prunings - before;
                    self.stats.by_class[class_idx].prunings += pruned;
                    self.in_queue[id] = false;
                }
                Err(c) => {
                    self.stats.conflicts += 1;
                    self.stats.by_class[class_idx].conflicts += 1;
                    self.queues.iter_mut().for_each(|q| q.clear());
                    self.in_queue.iter_mut().for_each(|b| *b = false);
                    dom.clear_dirty();
                    return Err(c);
                }
            }
        }
        debug_assert!(dom.dirty_is_empty());
        Ok(())
    }

    /// Debug check of a fixpoint claim: re-run propagator `id` on the
    /// domains its run left and assert that it neither fails nor narrows.
    /// The re-run is not counted.
    #[cfg(debug_assertions)]
    fn check_own_fixpoint(&mut self, id: PropId, model: &Model, dom: &mut Domains) {
        let pending = dom.pending_dirty();
        let mut ctx = Ctx {
            model,
            dom,
            bound: self.bound,
        };
        let rerun = self.props[id].propagate(&mut ctx);
        assert!(
            rerun.is_ok() && dom.pending_dirty() == pending,
            "{} propagator claimed its own fixpoint, but a re-run {}",
            self.classes[id].name(),
            if rerun.is_ok() { "narrowed" } else { "failed" }
        );
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::{ModelBuilder, SlotKind};
    use crate::state::Lateness;

    /// Map + reduce chained through the barrier on a tight deadline:
    /// bound propagation alone (barrier → lateness) decides the job is late.
    #[test]
    fn propagation_detects_forced_lateness() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(0, 14);
        let _m1 = b.add_task(j, SlotKind::Map, 10, 1);
        let _r1 = b.add_task(j, SlotKind::Reduce, 5, 1);
        let model = b.build().unwrap();
        let mut dom = Domains::new(&model);
        let mut eng = Engine::new(&model);
        eng.propagate_all(&model, &mut dom).unwrap();
        // Barrier: reduce starts ≥ 10, so it ends ≥ 15 > 14 → Late.
        assert_eq!(dom.late(JobRef(0)), Lateness::Late);
    }

    /// With bound 0, a forced-late job is a conflict.
    #[test]
    fn objective_cut_turns_lateness_into_conflict() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(0, 5);
        b.add_task(j, SlotKind::Map, 10, 1);
        let model = b.build().unwrap();
        let mut dom = Domains::new(&model);
        let mut eng = Engine::new(&model);
        eng.set_bound(0);
        assert!(eng.propagate_all(&model, &mut dom).is_err());
    }

    /// Propagation statistics accumulate across calls.
    #[test]
    fn prop_stats_accumulate() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(0, 14);
        b.add_task(j, SlotKind::Map, 10, 1);
        b.add_task(j, SlotKind::Reduce, 5, 1);
        let model = b.build().unwrap();
        let mut dom = Domains::new(&model);
        let mut eng = Engine::new(&model);
        assert_eq!(eng.prop_stats(), PropStats::default());
        eng.propagate_all(&model, &mut dom).unwrap();
        let s = eng.prop_stats();
        assert!(s.runs > 0, "propagators ran");
        assert!(s.prunings > 0, "barrier + lateness narrowed domains");
        assert_eq!(s.conflicts, 0);
    }

    /// Map + reduce jobs with tight deadlines over one pool with three map
    /// slots and two reduce slots: a solve exhausts a 3 000-node limit on
    /// it.
    pub(crate) fn contended_model() -> Model {
        let mut b = ModelBuilder::new();
        b.add_resource(3, 2);
        for j in 0..8i64 {
            let job = b.add_job(j % 3, 14 + (j * 7) % 11);
            for k in 0..3 {
                b.add_task(job, SlotKind::Map, 3 + (j + k) % 4, 1);
            }
            b.add_task(job, SlotKind::Reduce, 2 + j % 3, 1);
        }
        b.set_horizon(400);
        b.build().unwrap()
    }

    /// Per-class counters of a solve that exhausts a 3 000-node limit on
    /// the contended model. Every class runs over a thousand times.
    fn contended_solve() -> [PropClassStats; N_PROP_CLASSES] {
        let params = crate::SolveParams {
            node_limit: 3_000,
            ..Default::default()
        };
        crate::solve(&contended_model(), &params).stats.by_class
    }

    /// Only one run in 16 is timed, but a class with over a thousand runs
    /// still reports a nonzero time.
    #[test]
    fn sampled_timer_reports_every_busy_class() {
        for (class, c) in PROP_CLASSES.iter().zip(contended_solve()) {
            assert!(c.runs > 1_000, "{}: {} runs", class.name(), c.runs);
            assert!(
                c.time_us > 0,
                "{}: no time over {} runs",
                class.name(),
                c.runs
            );
        }
    }

    /// Sampling the clock leaves the exact counters exact: the same model
    /// solved twice counts the same runs, prunings and conflicts.
    #[test]
    fn exact_counters_repeat() {
        let counts = || contended_solve().map(|c| (c.runs, c.prunings, c.conflicts));
        assert_eq!(counts(), counts());
    }

    /// A loose instance propagates to fixpoint with everything on time.
    #[test]
    fn loose_instance_propagates_on_time() {
        let mut b = ModelBuilder::new();
        b.add_resource(2, 2);
        let j = b.add_job(0, 1000);
        b.add_task(j, SlotKind::Map, 10, 1);
        b.add_task(j, SlotKind::Reduce, 10, 1);
        let model = b.build().unwrap();
        let mut dom = Domains::new(&model);
        let mut eng = Engine::new(&model);
        eng.set_bound(0);
        eng.propagate_all(&model, &mut dom).unwrap();
        // Bound 0 forces OnTime on the (satisfiable) job.
        assert_eq!(dom.late(JobRef(0)), Lateness::OnTime);
        // Barrier: reduce cannot start before the map's earliest end.
        assert!(dom.lb(crate::model::TaskRef(1)) >= 10);
    }
}

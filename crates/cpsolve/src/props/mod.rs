//! Propagators and the propagation fixpoint engine.
//!
//! Each constraint family of the paper's Table 1 formulation has a dedicated
//! propagator:
//!
//! * [`barrier::PhaseBarrier`] — constraint (3): reduces start after every
//!   map of the job completes,
//! * [`barrier::Precedence`] — user-specified task precedences (the paper's
//!   future-work generalization),
//! * [`lateness::JobLateness`] — constraints (2)/(4): deadline reification
//!   onto the lateness indicator `N_j`,
//! * [`cumulative::Cumulative`] — constraints (5)/(6): per-resource
//!   map/reduce slot capacity (timetable filtering), interacting with the
//!   assignment domains (constraint (1) / the OPL `alternative`),
//! * [`objective::ObjectiveBound`] — the branch-and-bound cut
//!   `Σ N_j ≤ bound`.
//!
//! The strong-inference rung is [`edge_finding::EdgeFinding`] (Θ-tree
//! overload checking + edge-finding per pool).
//!
//! The [`Engine`] runs them to fixpoint with a watcher-driven worklist,
//! tiered by cost: cheap bound propagators (barrier, precedence, lateness,
//! objective) drain before timetable filtering, which drains before
//! edge-finding, so the expensive filters always run on quiesced domains.

pub mod barrier;
pub mod cumulative;
pub mod edge_finding;
pub mod lateness;
pub mod objective;
pub mod theta;

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
    /// Phase barriers and precedences (cheap bound propagation).
    Barrier,
    /// Deadline/lateness reification (cheap).
    Lateness,
    /// Timetable cumulative filtering (medium).
    Timetable,
    /// Θ-tree edge-finding (expensive).
    EdgeFinding,
    /// The branch-and-bound objective cut (cheap).
    Objective,
}

/// Number of [`PropClass`] variants (array-indexed stats).
pub const N_PROP_CLASSES: usize = 5;

impl PropClass {
    /// Index into per-class stat arrays.
    #[inline]
    pub fn idx(self) -> usize {
        match self {
            PropClass::Barrier => 0,
            PropClass::Lateness => 1,
            PropClass::Timetable => 2,
            PropClass::EdgeFinding => 3,
            PropClass::Objective => 4,
        }
    }

    /// Stable lowercase name (report columns, telemetry labels).
    pub fn name(self) -> &'static str {
        match self {
            PropClass::Barrier => "barrier",
            PropClass::Lateness => "lateness",
            PropClass::Timetable => "timetable",
            PropClass::EdgeFinding => "edge_finding",
            PropClass::Objective => "objective",
        }
    }

    /// Queue tier: 0 = cheap bound propagators, 1 = timetable,
    /// 2 = edge-finding. Lower tiers drain first.
    #[inline]
    pub fn priority(self) -> usize {
        match self {
            PropClass::Barrier | PropClass::Lateness | PropClass::Objective => 0,
            PropClass::Timetable => 1,
            PropClass::EdgeFinding => 2,
        }
    }
}

/// All classes in stat-array order.
pub const PROP_CLASSES: [PropClass; N_PROP_CLASSES] = [
    PropClass::Barrier,
    PropClass::Lateness,
    PropClass::Timetable,
    PropClass::EdgeFinding,
    PropClass::Objective,
];

/// One propagator: narrows domains, reporting a conflict on wipe-out.
pub trait Propagator {
    /// Run to local fixpoint for this constraint.
    fn propagate(&mut self, ctx: &mut Ctx<'_>) -> Result<(), Conflict>;

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
const N_TIERS: usize = 3;

/// Engine construction options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineOptions {
    /// Enable Θ-tree edge-finding (O(n log n) overload check + start/end
    /// filtering per pool; the default strong rung — see [`edge_finding`]).
    pub edge_finding: bool,
    /// Cost-aware scheduling of the demotable (strong-but-redundant)
    /// propagators — see [`SchedulingOptions`].
    pub scheduling: SchedulingOptions,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            edge_finding: true,
            scheduling: SchedulingOptions::default(),
        }
    }
}

/// Cost-aware propagator scheduling: an online ledger of pruning yield per
/// demotable propagator, with probation tiers and eventual disablement for
/// propagators that stop earning their keep on this instance.
///
/// Only propagators whose filtering is *redundant* with respect to the
/// complete tier-0/1 set participate (today: class
/// [`PropClass::EdgeFinding`], i.e. Θ-tree edge-finding — subsumed by
/// timetable filtering once starts are fixed, so skipping it can only cost
/// search effort, never soundness). A demoted propagator is skipped at
/// fixpoint pops, never removed from the watcher graph, and conflicts
/// periodically walk demotions back one tier, so Optimal/Infeasible
/// verdicts are unchanged.
///
/// Decisions are driven purely by deterministic run/pruning *counts* (an
/// EWMA of prunings-per-run over fixed-size windows), never wall-clock, so
/// identical searches take identical trajectories on any machine —
/// the bit-exactness anchors (federation `cells=1`, chaos-off, crash
/// recovery) depend on this. Wall time is still *reported* per class via
/// [`PropClassStats`].
///
/// A run counts whatever the propagator did inside it: a pass that
/// edge-finding's dominance certificate (see [`edge_finding`]) answers
/// without sweeping is a counted run with zero prunings, exactly what the
/// full pass would have been, so the certificate moves no ledger trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulingOptions {
    /// Master switch; when false every propagator runs on every pop.
    pub enabled: bool,
    /// Completed runs per ledger evaluation window.
    pub window: u32,
    /// EWMA smoothing factor for the prunings-per-run yield.
    pub alpha: f64,
    /// Yield below which a window verdict demotes one tier.
    pub min_yield: f64,
    /// Probation tiers before disablement: tier `k` (1-based) runs only
    /// every `2^k`-th pop; past the last tier the propagator is disabled
    /// for the remainder of the solve (modulo re-promotion pulses).
    pub probation_levels: u32,
    /// Engine conflicts between re-promotion pulses (each pulse lifts
    /// every demoted propagator one tier so pruning can come back when
    /// the search starts thrashing).
    pub repromote_conflicts: u64,
}

impl Default for SchedulingOptions {
    fn default() -> Self {
        SchedulingOptions {
            enabled: true,
            window: 32,
            alpha: 0.5,
            min_yield: 0.05,
            probation_levels: 3,
            repromote_conflicts: 4096,
        }
    }
}

/// Demotion-decision counters (see [`SchedulingOptions`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Tier demotions (active → probation, or deeper probation).
    pub demotions: u64,
    /// Demotions that crossed into the disabled state.
    pub disables: u64,
    /// Re-promotions (earned reinstatement or conflict pulse).
    pub repromotions: u64,
}

impl SchedStats {
    /// Accumulate another counter set (portfolio merge).
    pub fn merge(&mut self, other: &SchedStats) {
        self.demotions += other.demotions;
        self.disables += other.disables;
        self.repromotions += other.repromotions;
    }
}

/// Per-propagator scheduling ledger (demotable propagators only).
#[derive(Debug, Clone, Copy)]
struct SchedState {
    /// 0 = active, 1..=probation_levels = probation (run every `2^tier`-th
    /// pop), probation_levels+1 = disabled.
    tier: u32,
    /// Pops observed while on probation (gates the `2^tier` stride).
    pops: u64,
    /// Completed runs in the current evaluation window.
    window_runs: u32,
    /// Prunings produced in the current evaluation window.
    window_prunings: u64,
    /// EWMA of prunings-per-run, seeded optimistically so a propagator
    /// gets several barren windows before its first demotion.
    yield_ewma: f64,
}

impl SchedState {
    fn new() -> Self {
        SchedState {
            tier: 0,
            pops: 0,
            window_runs: 0,
            window_prunings: 0,
            yield_ewma: 0.5,
        }
    }
}

/// Counters for one propagator class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PropClassStats {
    /// Propagator invocations.
    pub runs: u64,
    /// Domain narrowings produced by this class's runs.
    pub prunings: u64,
    /// Conflicts raised.
    pub conflicts: u64,
    /// Wall-clock spent inside `propagate`, microseconds.
    pub time_us: u64,
    /// Fixpoint pops skipped by cost-aware scheduling (probation stride
    /// misses and disabled pops).
    pub skipped: u64,
}

impl PropClassStats {
    /// Accumulate another counter set (portfolio merge).
    pub fn merge(&mut self, other: &PropClassStats) {
        self.runs += other.runs;
        self.prunings += other.prunings;
        self.conflicts += other.conflicts;
        self.time_us += other.time_us;
        self.skipped += other.skipped;
    }
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
    /// Cost-aware scheduling decisions (see [`SchedulingOptions`]).
    pub sched: SchedStats,
}

/// Watcher-driven propagation fixpoint engine with cost-tiered queues.
pub struct Engine {
    props: Vec<Box<dyn Propagator>>,
    /// Per-propagator class (cached; also fixes the queue tier).
    classes: Vec<PropClass>,
    task_watchers: Vec<Vec<PropId>>,
    job_watchers: Vec<Vec<PropId>>,
    /// One FIFO per cost tier; lower tiers always drain first so the
    /// expensive filters run on quiesced domains.
    queues: [VecDeque<PropId>; N_TIERS],
    in_queue: Vec<bool>,
    /// Objective cut shared with the search (monotonically tightened).
    bound: u32,
    stats: PropStats,
    /// Wall-clock inside `propagate` per class, nanoseconds. Most runs of
    /// the cheap classes take under a microsecond, so summing truncated
    /// microseconds would report almost nothing; [`Engine::prop_stats`]
    /// converts the sum once.
    time_ns: [u64; N_PROP_CLASSES],
    /// Reusable buffers for draining the domains' dirty queues; kept on
    /// the engine so steady-state propagation allocates nothing.
    scratch_tasks: Vec<TaskRef>,
    scratch_jobs: Vec<JobRef>,
    /// Cost-aware scheduling config (see [`SchedulingOptions`]).
    sched_opts: SchedulingOptions,
    /// Per-propagator scheduling ledger; `None` for non-demotable
    /// propagators.
    sched: Vec<Option<SchedState>>,
    /// Conflicts since the last re-promotion pulse.
    conflicts_since_pulse: u64,
}

impl Engine {
    /// Build the standard propagator set for `model` with default options.
    pub fn new(model: &Model) -> Self {
        Engine::with_options(model, EngineOptions::default())
    }

    /// Build the propagator set for `model` with explicit options.
    pub fn with_options(model: &Model, options: EngineOptions) -> Self {
        let mut props: Vec<Box<dyn Propagator>> = Vec::new();
        for j in 0..model.n_jobs() {
            let j = JobRef(j as u32);
            if !model.maps_of[j.idx()].is_empty() && !model.reduces_of[j.idx()].is_empty() {
                props.push(Box::new(barrier::PhaseBarrier::new(j)));
            }
            props.push(Box::new(lateness::JobLateness::new(j)));
        }
        for &(a, b) in &model.precedences {
            props.push(Box::new(barrier::Precedence::new(a, b)));
        }
        for r in 0..model.n_resources() {
            let r = crate::model::ResRef(r as u32);
            for kind in [crate::model::SlotKind::Map, crate::model::SlotKind::Reduce] {
                if model.resources[r.idx()].cap(kind) > 0 {
                    if let Some(c) = cumulative::Cumulative::new(model, r, kind) {
                        props.push(Box::new(c));
                    }
                    if options.edge_finding {
                        if let Some(ef) = edge_finding::EdgeFinding::new(model, r, kind) {
                            props.push(Box::new(ef));
                        }
                    }
                }
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
        // Only redundant strong filters are demotable: timetable filtering
        // is complete once starts are fixed, so skipping edge-finding can
        // never change a leaf's feasibility.
        let sched: Vec<Option<SchedState>> = classes
            .iter()
            .map(|c| {
                if options.scheduling.enabled && *c == PropClass::EdgeFinding {
                    Some(SchedState::new())
                } else {
                    None
                }
            })
            .collect();
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
            scratch_tasks: Vec::new(),
            scratch_jobs: Vec::new(),
            sched_opts: options.scheduling,
            sched,
            conflicts_since_pulse: 0,
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

    /// Probation-stride gate: should the demoted propagator `id` run on
    /// this pop? Updates the pop counter; counts skips.
    fn sched_admits(&mut self, id: PropId) -> bool {
        let Some(st) = self.sched[id].as_mut() else {
            return true;
        };
        if st.tier == 0 {
            return true;
        }
        let class_idx = self.classes[id].idx();
        if st.tier > self.sched_opts.probation_levels {
            // Disabled for the remainder of the solve (modulo pulses).
            self.stats.by_class[class_idx].skipped += 1;
            return false;
        }
        st.pops += 1;
        if st.pops % (1u64 << st.tier) != 0 {
            self.stats.by_class[class_idx].skipped += 1;
            return false;
        }
        true
    }

    /// Fold a completed run's prunings into the ledger; at window
    /// boundaries update the yield EWMA and demote/reinstate.
    fn sched_record_run(&mut self, id: PropId, pruned: u64) {
        let opts = self.sched_opts;
        let Some(st) = self.sched[id].as_mut() else {
            return;
        };
        st.window_runs += 1;
        st.window_prunings += pruned;
        if st.window_runs < opts.window {
            return;
        }
        let window_yield = st.window_prunings as f64 / st.window_runs as f64;
        st.yield_ewma = opts.alpha * window_yield + (1.0 - opts.alpha) * st.yield_ewma;
        st.window_runs = 0;
        st.window_prunings = 0;
        if st.yield_ewma < opts.min_yield {
            st.tier += 1;
            st.pops = 0;
            if st.tier > opts.probation_levels {
                st.tier = opts.probation_levels + 1;
                self.stats.sched.disables += 1;
            } else {
                self.stats.sched.demotions += 1;
            }
        } else if st.tier > 0 {
            // Earning its keep again: full reinstatement.
            st.tier = 0;
            st.pops = 0;
            self.stats.sched.repromotions += 1;
        }
    }

    /// Conflict-triggered re-promotion: every `repromote_conflicts`
    /// conflicts, lift every demoted propagator one tier so strong pruning
    /// can come back when the search is thrashing.
    fn sched_note_conflict(&mut self) {
        if !self.sched_opts.enabled {
            return;
        }
        self.conflicts_since_pulse += 1;
        if self.conflicts_since_pulse < self.sched_opts.repromote_conflicts {
            return;
        }
        self.conflicts_since_pulse = 0;
        for st in self.sched.iter_mut().flatten() {
            if st.tier > 0 {
                st.tier -= 1;
                st.pops = 0;
                self.stats.sched.repromotions += 1;
            }
        }
    }

    fn fixpoint(&mut self, model: &Model, dom: &mut Domains) -> Result<(), Conflict> {
        while let Some(id) = self.pop_next() {
            self.in_queue[id] = false;
            if !self.sched_admits(id) {
                continue;
            }
            let mut ctx = Ctx {
                model,
                dom,
                bound: self.bound,
            };
            let class_idx = self.classes[id].idx();
            let t0 = Instant::now();
            let result = self.props[id].propagate(&mut ctx);
            self.time_ns[class_idx] += t0.elapsed().as_nanos() as u64;
            self.stats.runs += 1;
            self.stats.by_class[class_idx].runs += 1;
            match result {
                Ok(()) => {
                    let before = self.stats.prunings;
                    self.enqueue_watchers(dom);
                    let pruned = self.stats.prunings - before;
                    self.stats.by_class[class_idx].prunings += pruned;
                    self.sched_record_run(id, pruned);
                }
                Err(c) => {
                    self.stats.conflicts += 1;
                    self.stats.by_class[class_idx].conflicts += 1;
                    // A conflict from a demotable filter is maximal yield
                    // (it just cut a whole subtree): reinstate it fully.
                    if let Some(st) = self.sched[id].as_mut() {
                        if st.tier > 0 {
                            st.tier = 0;
                            st.pops = 0;
                            self.stats.sched.repromotions += 1;
                        }
                        st.yield_ewma = st.yield_ewma.max(1.0);
                        st.window_runs = 0;
                        st.window_prunings = 0;
                    }
                    self.sched_note_conflict();
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
}

#[cfg(test)]
mod tests {
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

    /// A strong filter that never prunes is demoted through probation and
    /// eventually disabled; skipped pops are counted per class.
    #[test]
    fn barren_strong_filter_is_demoted_then_disabled() {
        let mut b = ModelBuilder::new();
        b.add_resource(4, 4);
        for j in 0..3i64 {
            let job = b.add_job(0, 1000);
            b.add_task(job, SlotKind::Map, 5 + j, 1);
            b.add_task(job, SlotKind::Reduce, 3, 1);
        }
        let model = b.build().unwrap();
        let opts = EngineOptions {
            scheduling: SchedulingOptions {
                window: 4,
                ..SchedulingOptions::default()
            },
            ..EngineOptions::default()
        };
        let mut eng = Engine::with_options(&model, opts);
        // On this loose instance edge-finding never prunes; drive enough
        // fixpoints through the ledger to cross every probation tier.
        for _ in 0..200 {
            let mut dom = Domains::new(&model);
            eng.propagate_all(&model, &mut dom).unwrap();
        }
        let s = eng.prop_stats();
        let ef = s.by_class[PropClass::EdgeFinding.idx()];
        assert!(s.sched.demotions > 0, "barren filter was demoted: {s:?}");
        assert!(s.sched.disables > 0, "barren filter was disabled: {s:?}");
        assert!(ef.skipped > 0, "skipped pops are counted: {ef:?}");
        // Cheap complete propagators are never demotable.
        assert_eq!(s.by_class[PropClass::Timetable.idx()].skipped, 0);
        assert_eq!(s.by_class[PropClass::Barrier.idx()].skipped, 0);
    }

    /// With scheduling disabled, nothing is ever skipped or demoted.
    #[test]
    fn scheduling_off_never_skips() {
        let mut b = ModelBuilder::new();
        b.add_resource(4, 4);
        for _ in 0..3 {
            let job = b.add_job(0, 1000);
            b.add_task(job, SlotKind::Map, 5, 1);
            b.add_task(job, SlotKind::Reduce, 3, 1);
        }
        let model = b.build().unwrap();
        let opts = EngineOptions {
            scheduling: SchedulingOptions {
                enabled: false,
                window: 4,
                ..SchedulingOptions::default()
            },
            ..EngineOptions::default()
        };
        let mut eng = Engine::with_options(&model, opts);
        for _ in 0..200 {
            let mut dom = Domains::new(&model);
            eng.propagate_all(&model, &mut dom).unwrap();
        }
        let s = eng.prop_stats();
        assert_eq!(s.sched, SchedStats::default());
        for c in &s.by_class {
            assert_eq!(c.skipped, 0);
        }
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

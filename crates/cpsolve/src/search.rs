//! Depth-first branch-and-bound minimizing the number of late jobs.
//!
//! The search mirrors how the paper uses CP Optimizer: an anytime optimizer
//! that can be stopped by budget (nodes, failures, wall time) and always
//! returns the best incumbent found. It solves §V.D's combined model, the
//! one the product builds: one resource whose pools hold every slot of the
//! cluster, so every task is on resource 0 and only start times are
//! searched (matchmaking onto real resources follows the solve). A model
//! with more than one resource is refused ([`Status::Unsupported`]); the
//! Table 1 model stays the one the checkers judge against
//! ([`Solution::verify`], [`crate::greedy`], [`crate::brute`]). A greedy EDF
//! schedule seeds the incumbent so the objective cut prunes from the root.
//! The greedy pass runs only when the caller's `initial` incumbent is
//! missing, fails verification or has a late job: an incumbent with no late
//! job cannot be beaten, so the solve returns it at once as `Optimal`. That
//! zero-late test is the one early exit, at the root and at every leaf.
//!
//! It is the crate's one search: a single continuous dive on the calling
//! thread, as the paper runs CP Optimizer once per round. The branching
//! rule is chronological set-times with EDF tie-breaking: pick the unfixed
//! task with the smallest earliest start (ties: earlier job deadline,
//! longer duration) and decide its start time (`a_t = lb`, on
//! backtracking `a_t ≥ lb + 1` — propagation jumps the lower bound to the
//! next feasible placement, so the "+1" branch advances by whole profile
//! segments, not by single ticks). The tie-break never changes within a
//! solve, so it is ranked once per searched solve and a node compares
//! `(lb, rank)`. The one walk over the tasks that picks the branching task
//! is also the leaf test: no unfixed task left means a leaf.

use crate::greedy::greedy_edf;
use crate::model::{Model, ResRef, TaskRef};
use crate::props::{Engine, PropClassStats, N_PROP_CLASSES};
use crate::solution::Solution;
use crate::state::{Domains, Lateness};
use std::time::{Duration, Instant};

/// How often (in nodes) a search with a `time_limit` pays for a wall-clock
/// read. A threshold counter, not a modulus — see the comment at the check
/// site.
pub(crate) const CHECK_STRIDE: u64 = 64;

/// Search termination status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The search space was exhausted: the returned solution is optimal
    /// (minimum number of late jobs).
    Optimal,
    /// A budget expired with an incumbent in hand.
    Feasible,
    /// The search space was exhausted without any solution (only possible
    /// with contradictory pinned tasks).
    Infeasible,
    /// A budget expired before any solution was found.
    Unknown,
    /// The model has more than one resource, and the search solves one
    /// pool only: nothing was searched and no solution is returned.
    Unsupported,
}

/// Search effort budgets and options.
#[derive(Debug, Clone)]
pub struct SolveParams {
    /// Maximum branching decisions.
    pub node_limit: u64,
    /// Maximum conflicts.
    pub fail_limit: u64,
    /// Wall-clock ceiling.
    pub time_limit: Option<Duration>,
    /// Seed the incumbent with the greedy EDF schedule. The pass is skipped
    /// when `initial` verifies and has no late job: nothing can beat it.
    pub warm_start: bool,
    /// Explicit initial incumbent (e.g. the previous scheduling round's
    /// solution re-based); must verify against the model.
    pub initial: Option<Solution>,
}

impl Default for SolveParams {
    fn default() -> Self {
        SolveParams {
            node_limit: 5_000_000,
            fail_limit: u64::MAX,
            time_limit: None,
            warm_start: true,
            initial: None,
        }
    }
}

impl SolveParams {
    /// The same parameters with every effort budget (nodes, fails, wall
    /// clock) multiplied by `factor` ∈ (0, 1]. Node and fail limits never
    /// drop below 1, and a configured time limit never drops below 1 ms,
    /// so a heavily throttled solve still makes progress — used by
    /// overload controllers that shrink the per-round budget under load.
    pub fn scaled(&self, factor: f64) -> SolveParams {
        debug_assert!(factor > 0.0 && factor <= 1.0, "scale {factor} out of range");
        let scale_u64 = |v: u64| -> u64 {
            if v == u64::MAX {
                u64::MAX
            } else {
                ((v as f64 * factor) as u64).max(1)
            }
        };
        SolveParams {
            node_limit: scale_u64(self.node_limit),
            fail_limit: scale_u64(self.fail_limit),
            time_limit: self
                .time_limit
                .map(|t| t.mul_f64(factor).max(Duration::from_millis(1))),
            ..self.clone()
        }
    }
}

/// The split rung's solve parameters as the benchmark (`e2e/`) names them.
/// Only `base` is read: the search runs once, on the calling thread, so
/// `workers` and `seed` are inert. Both stay until the benchmark stops
/// constructing them (ROADMAP item 3).
#[derive(Debug, Clone)]
pub struct PortfolioParams {
    /// The parameters of the one search.
    pub base: SolveParams,
    /// Inert: read by nothing.
    pub workers: usize,
    /// Inert: read by nothing.
    pub seed: u64,
}

impl PortfolioParams {
    /// `base` with the inert fields at 1 worker and seed 0.
    pub fn single(base: &SolveParams) -> Self {
        PortfolioParams {
            base: base.clone(),
            workers: 1,
            seed: 0,
        }
    }
}

/// Search effort counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Search decisions applied (one per branch taken).
    pub nodes: u64,
    /// Conflicts encountered.
    pub fails: u64,
    /// Improving solutions found (excluding the warm start).
    pub solutions: u64,
    /// Propagator invocations.
    pub propagations: u64,
    /// Domain narrowings produced by propagation.
    pub prunings: u64,
    /// Wall-clock time spent, microseconds.
    pub elapsed_us: u64,
    /// Per-propagator-class breakdown of runs/prunings/conflicts/time,
    /// indexed by [`crate::props::PropClass::idx`].
    pub by_class: [PropClassStats; N_PROP_CLASSES],
    /// Always zero: large-neighbourhood search is gone. The field stays
    /// until the benchmark's `cpsolve.lns.*` rows, which read it, retire.
    pub lns_iters: u64,
    /// Always zero, kept for the same reader as [`Self::lns_iters`].
    pub lns_improves: u64,
}

/// Result of a solve call.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// How the search ended.
    pub status: Status,
    /// Best solution found, if any.
    pub best: Option<Solution>,
    /// Effort counters.
    pub stats: SolveStats,
}

/// One decision level: the task branched on and its start lower bound at
/// the branch. The first branch fixes the start at `lb`; on backtracking,
/// the second raises it to `lb + 1`.
#[derive(Debug, Clone, Copy)]
struct Frame {
    task: TaskRef,
    lb: i64,
    /// The second branch is the one applied.
    second: bool,
}

/// Minimize the number of late jobs for `model` under `params`. A model
/// with more than one resource is refused: the outcome is
/// [`Status::Unsupported`] with no solution and zero counters.
pub fn solve(model: &Model, params: &SolveParams) -> Outcome {
    let t0 = Instant::now();
    let mut stats = SolveStats::default();
    if model.n_resources() > 1 {
        return Outcome {
            status: Status::Unsupported,
            best: None,
            stats,
        };
    }

    let mut best: Option<Solution> = None;
    if let Some(init) = &params.initial {
        // An invalid incumbent would poison the bound and could be returned
        // as "best" — verify in release too and silently drop bad ones.
        if init.verify(model).is_ok() {
            best = Some(init.clone());
        } else {
            debug_assert!(false, "initial incumbent invalid: {:?}", init.verify(model));
        }
    }
    // A greedy schedule can only replace an incumbent it strictly beats,
    // and nothing beats zero late jobs: skip the pass then.
    if params.warm_start && !unbeatable(&best) {
        if let Ok(g) = greedy_edf(model) {
            debug_assert!(g.verify(model).is_ok(), "greedy produced invalid schedule");
            if g.verify(model).is_ok() && best.as_ref().is_none_or(|b| g.objective < b.objective) {
                best = Some(g);
            }
        }
    }

    if unbeatable(&best) {
        stats.elapsed_us = t0.elapsed().as_micros() as u64;
        return Outcome {
            status: Status::Optimal,
            best,
            stats,
        };
    }

    let mut dom = Domains::new(model);
    let mut engine = Engine::new(model);
    if let Some(b) = &best {
        engine.set_bound(b.objective - 1);
    }

    // Root propagation.
    match engine.propagate_all(model, &mut dom) {
        Ok(()) => {}
        Err(_) => {
            // No solution beats the incumbent (or none exists at all).
            let status = if best.is_some() {
                Status::Optimal
            } else {
                Status::Infeasible
            };
            finalize_stats(&mut stats, &engine, t0);
            return Outcome {
                status,
                best,
                stats,
            };
        }
    }

    // The set-times tie-break, ranked once for the whole search.
    let rank = set_times_rank(model);

    // The active decision levels, innermost last. The stack keeps its
    // capacity, so the hot path allocates nothing once it has grown to the
    // maximum depth (see tests/alloc_count.rs).
    let mut frames: Vec<Frame> = Vec::new();
    let mut exhausted = false;
    // Next node count at which to pay for a clock read.
    // A threshold (not `nodes % k == 0`) so the check cannot be skipped
    // forever: backtracking advances `nodes` by more than one, which could
    // step over every multiple of k and loop past the deadline
    // indefinitely. The first iteration always checks, so even a zero time
    // limit stops promptly.
    let mut next_check: u64 = 0;

    'search: loop {
        // Budget checks (wall time polled at a coarse cadence).
        if stats.nodes >= params.node_limit || stats.fails >= params.fail_limit {
            break;
        }
        if let Some(tl) = params.time_limit {
            if stats.nodes >= next_check {
                next_check = stats.nodes + CHECK_STRIDE;
                if t0.elapsed() > tl {
                    break;
                }
            }
        }
        let selected = select_task(&dom, &rank);
        #[cfg(test)]
        tests::check_selection(model, &dom, selected);
        let Some(task) = selected else {
            // Leaf: propagation has decided every lateness flag.
            let solution = extract(model, &dom);
            debug_assert!(solution.verify(model).is_ok(), "leaf solution invalid");
            let obj = solution.objective;
            stats.solutions += 1;
            let improved = best.as_ref().is_none_or(|b| obj < b.objective);
            if improved {
                best = Some(solution);
                if unbeatable(&best) {
                    break 'search;
                }
                engine.set_bound(obj - 1);
            }
            // Resume search for a strictly better solution.
            if !backtrack(&mut frames, &mut dom, &mut engine, model, &mut stats) {
                exhausted = true;
                break;
            }
            continue;
        };

        let frame = Frame {
            task,
            lb: dom.lb(task),
            second: false,
        };
        frames.push(frame);
        dom.push_level();
        stats.nodes += 1;
        if apply(frame, model, &mut dom, &mut engine).is_err() {
            stats.fails += 1;
            if !backtrack(&mut frames, &mut dom, &mut engine, model, &mut stats) {
                exhausted = true;
                break;
            }
        }
    }

    // A zero-late incumbent ends the search the moment it is found, so it
    // never coincides with an expired budget.
    let status = match &best {
        Some(_) if exhausted || unbeatable(&best) => Status::Optimal,
        Some(_) => Status::Feasible,
        None if exhausted => Status::Infeasible,
        None => Status::Unknown,
    };
    finalize_stats(&mut stats, &engine, t0);
    Outcome {
        status,
        best,
        stats,
    }
}

/// True when `best` has no late job, which no schedule beats: the solve's
/// one early exit, with `Optimal`.
fn unbeatable(best: &Option<Solution>) -> bool {
    best.as_ref().is_some_and(|b| b.objective == 0)
}

/// Copy the engine's propagation counters into the solve stats.
fn finalize_stats(stats: &mut SolveStats, engine: &Engine, t0: Instant) {
    let ps = engine.prop_stats();
    stats.propagations = ps.runs;
    stats.prunings = ps.prunings;
    stats.by_class = ps.by_class;
    stats.elapsed_us = t0.elapsed().as_micros() as u64;
}

/// Apply one level's branch and propagate.
fn apply(frame: Frame, model: &Model, dom: &mut Domains, engine: &mut Engine) -> Result<(), ()> {
    let Frame { task, lb, second } = frame;
    let applied = if second {
        dom.set_lb(task, lb + 1)
    } else {
        dom.fix_start(task, lb)
    };
    applied.map_err(|_| ())?;
    engine.propagate_dirty(model, dom).map_err(|_| ())
}

/// Pop levels until an untried branch applies cleanly. Returns false when
/// the tree is exhausted.
fn backtrack(
    frames: &mut Vec<Frame>,
    dom: &mut Domains,
    engine: &mut Engine,
    model: &Model,
    stats: &mut SolveStats,
) -> bool {
    while let Some(frame) = frames.last_mut() {
        dom.pop_level();
        if frame.second {
            frames.pop();
            continue;
        }
        frame.second = true;
        let frame = *frame;
        dom.push_level();
        stats.nodes += 1;
        if apply(frame, model, dom, engine).is_ok() {
            return true;
        }
        stats.fails += 1;
    }
    false
}

/// Each task's place in the set-times tie-break order: job priority, then
/// deadline, then longer duration, then index. A permutation of the task
/// indices.
fn set_times_rank(model: &Model) -> Vec<u32> {
    let mut order: Vec<u32> = (0..model.n_tasks() as u32).collect();
    order.sort_unstable_by_key(|&i| {
        let spec = &model.tasks[i as usize];
        let job = &model.jobs[spec.job.idx()];
        (job.priority, job.deadline, -spec.dur, i)
    });
    let mut rank = vec![0; order.len()];
    for (r, &i) in order.iter().enumerate() {
        rank[i as usize] = r as u32;
    }
    rank
}

/// Variable selection, chronological + EDF: the unfixed task with the
/// smallest start lower bound, ties broken by `rank` (from
/// [`set_times_rank`]), or `None` at a leaf.
fn select_task(dom: &Domains, rank: &[u32]) -> Option<TaskRef> {
    let mut best: Option<((i64, u32), TaskRef)> = None;
    for (i, &r) in rank.iter().enumerate() {
        let t = TaskRef(i as u32);
        if dom.start_fixed(t) {
            continue;
        }
        let k = (dom.lb(t), r);
        if best.as_ref().is_none_or(|(b, _)| k < *b) {
            best = Some((k, t));
        }
    }
    best.map(|(_, t)| t)
}

/// Read a full schedule out of fixed domains; every task is on the one
/// resource.
fn extract(model: &Model, dom: &Domains) -> Solution {
    let starts: Vec<i64> = (0..model.n_tasks() as u32)
        .map(TaskRef)
        .inspect(|&t| debug_assert!(dom.start_fixed(t)))
        .map(|t| dom.lb(t))
        .collect();
    let resource = vec![ResRef(0); starts.len()];
    // Lateness flags must all be decided at a leaf; derive the solution from
    // placements so flags and objective are exact even if a propagator was
    // lazy.
    let sol = Solution::from_placements(model, starts, resource);
    debug_assert!(
        (0..model.n_jobs()).all(|j| {
            let decided = dom.late(crate::model::JobRef(j as u32));
            decided != Lateness::Unknown && (decided == Lateness::Late) == sol.late[j]
        }),
        "propagated lateness disagrees with schedule"
    );
    sol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelBuilder, SlotKind};
    use std::cell::Cell;

    thread_local! {
        /// Nodes at which `check_selection` compared the pick
        /// with the five-field key, on this thread.
        static SELECTIONS_CHECKED: Cell<u64> = const { Cell::new(0) };
    }

    /// The set-times rule written out as its five-field key: start lower
    /// bound, job priority, deadline, longer duration, index. The oracle
    /// for `select_task`'s `(lb, rank)`.
    fn select_by_full_key(model: &Model, dom: &Domains) -> Option<TaskRef> {
        (0..model.n_tasks() as u32)
            .map(TaskRef)
            .filter(|&t| !dom.start_fixed(t))
            .min_by_key(|&t| {
                let spec = &model.tasks[t.idx()];
                let job = &model.jobs[spec.job.idx()];
                (dom.lb(t), job.priority, job.deadline, -spec.dur, t.0)
            })
    }

    /// Called by every search node of a unit-test build: the pick must be
    /// the oracle's.
    pub(super) fn check_selection(model: &Model, dom: &Domains, selected: Option<TaskRef>) {
        assert_eq!(selected, select_by_full_key(model, dom));
        SELECTIONS_CHECKED.with(|n| n.set(n.get() + 1));
    }

    /// One shared pool with multi-unit requirements: every task is assigned
    /// from the root.
    fn single_pool_model() -> Model {
        let mut b = ModelBuilder::new();
        b.add_resource(3, 2);
        for j in 0..8i64 {
            let job = b.add_job(j % 3, 10 + (j * 7) % 11);
            for k in 0..3 {
                let req = 1 + ((j + k) % 2) as u32;
                b.add_task(job, SlotKind::Map, 3 + (j + k) % 4, req);
            }
            b.add_task(job, SlotKind::Reduce, 2 + j % 3, 1);
        }
        b.set_horizon(400);
        b.build().unwrap()
    }

    /// The single pool with a pinned backlog beside jobs whose deadlines
    /// cannot all be met.
    fn backlog_model() -> Model {
        let mut b = ModelBuilder::new();
        let pool = b.add_resource(4, 0);
        let started = b.add_job(0, 1000);
        for k in 0..12i64 {
            let t = b.add_task(started, SlotKind::Map, 4, 1);
            b.fix_task(t, pool, 4 * (k / 2));
        }
        for j in 0..10i64 {
            let job = b.add_job(j % 4, 9 + (j * 5) % 8);
            for k in 0..2 {
                let req = 1 + ((j + k) % 2) as u32;
                b.add_task(job, SlotKind::Map, 3 + (j + k) % 3, req);
            }
        }
        for j in 0..4i64 {
            let job = b.add_job(0, 1000);
            b.add_task(job, SlotKind::Map, 2 + j, 1);
        }
        b.set_horizon(400);
        b.build().unwrap()
    }

    /// On the contended instances of `props` and `tests/alloc_count.rs`,
    /// the per-solve rank picks the same task as the five-field key at
    /// every node of a 3 000-node solve, leaves included: over a thousand
    /// selections each.
    #[test]
    fn rank_picks_what_the_full_key_picks() {
        for (name, model) in [
            ("contended", crate::props::tests::contended_model()),
            ("single pool", single_pool_model()),
            ("backlog", backlog_model()),
        ] {
            let before = SELECTIONS_CHECKED.with(|n| n.get());
            let out = solve(
                &model,
                &SolveParams {
                    node_limit: 3_000,
                    warm_start: false,
                    ..Default::default()
                },
            );
            let checked = SELECTIONS_CHECKED.with(|n| n.get()) - before;
            assert!(out.stats.nodes >= 3_000, "{name}: budget not reached");
            assert!(checked > 1_000, "{name}: only {checked} selections");
        }
    }

    /// Single feasible job → optimal with 0 late.
    #[test]
    fn solves_trivially_feasible() {
        let mut b = ModelBuilder::new();
        b.add_resource(2, 2);
        let j = b.add_job(0, 100);
        b.add_task(j, SlotKind::Map, 10, 1);
        b.add_task(j, SlotKind::Reduce, 10, 1);
        let m = b.build().unwrap();
        let out = solve(&m, &SolveParams::default());
        assert_eq!(out.status, Status::Optimal);
        let s = out.best.unwrap();
        assert_eq!(s.objective, 0);
        s.verify(&m).unwrap();
    }

    /// A job that can never meet its deadline → optimal with 1 late.
    #[test]
    fn counts_unavoidably_late_job() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(0, 5);
        b.add_task(j, SlotKind::Map, 10, 1);
        let m = b.build().unwrap();
        let out = solve(&m, &SolveParams::default());
        assert_eq!(out.status, Status::Optimal);
        assert_eq!(out.best.unwrap().objective, 1);
    }

    /// EDF greedy is suboptimal here; B&B must beat it.
    ///
    /// One 1/1 resource. Job A: deadline 30, two 10-maps (needs the slot
    /// for [0,20) → on time only if it runs first). Job B: deadline 29,
    /// one 10-map, release 20 — EDF (B first by deadline) wastes [0,20) …
    /// actually B cannot start before 20, so greedy schedules B at 20..30
    /// (on time, ends 30 > 29? late by 1) — construct so that CP finds the
    /// zero-late schedule greedy misses.
    #[test]
    fn beats_greedy_when_edf_is_wrong() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        // Job A: two maps of 10, deadline 20 → must own the slot [0,20).
        let a = b.add_job(0, 20);
        b.add_task(a, SlotKind::Map, 10, 1);
        b.add_task(a, SlotKind::Map, 10, 1);
        // Job B: one map of 10, deadline 19 (earlier!), but release 5.
        // EDF runs B first: B ends 15 (on time), then A runs 15..35 → late.
        // Optimal runs A first: A ends 20 (on time), B runs 20..30 → late.
        // Both orders have exactly one late job → objective 1 either way.
        let b2 = b.add_job(5, 19);
        b.add_task(b2, SlotKind::Map, 10, 1);
        let m = b.build().unwrap();
        let out = solve(&m, &SolveParams::default());
        assert_eq!(out.status, Status::Optimal);
        assert_eq!(out.best.unwrap().objective, 1);
    }

    /// Two jobs on a pool with two map slots (in the combined model, the
    /// slots of two resources): both can be on time only side by side.
    #[test]
    fn spreads_load_across_resources() {
        let m = pair_model(2);
        let out = solve(&m, &SolveParams::default());
        assert_eq!(out.status, Status::Optimal);
        let s = out.best.unwrap();
        assert_eq!(s.objective, 0);
        assert_eq!(s.starts, vec![0, 0]);
        s.verify(&m).unwrap();
    }

    /// A model with two resources is refused, not searched: no solution,
    /// no greedy pass, zero counters, and no panic.
    #[test]
    fn refuses_a_model_with_two_resources() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        b.add_resource(1, 1);
        let j = b.add_job(0, 12);
        b.add_task(j, SlotKind::Map, 10, 1);
        let m = b.build().unwrap();
        let (passes, out) = greedy_passes(|| solve(&m, &SolveParams::default()));
        assert_eq!(passes, 0);
        assert_eq!(out.status, Status::Unsupported);
        assert!(out.best.is_none());
        assert_eq!(out.stats, SolveStats::default());
    }

    /// Two pinned tasks overlapping on a one-slot pool: no solution, and the
    /// exhausted tree says so.
    #[test]
    fn infeasible_pins_report_infeasible() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(0, 100);
        let t0 = b.add_task(j, SlotKind::Map, 10, 1);
        let t1 = b.add_task(j, SlotKind::Map, 10, 1);
        b.fix_task(t0, ResRef(0), 0);
        b.fix_task(t1, ResRef(0), 5);
        let m = b.build().unwrap();
        let out = solve(&m, &SolveParams::default());
        assert_eq!(out.status, Status::Infeasible);
        assert!(out.best.is_none());
    }

    /// Pinned running tasks are honoured and the rest scheduled around them.
    #[test]
    fn incremental_reschedule_respects_pins() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j1 = b.add_job(0, 40);
        let running = b.add_task(j1, SlotKind::Map, 20, 1);
        b.fix_task(running, ResRef(0), 0); // runs [0,20)
        let j2 = b.add_job(0, 35);
        b.add_task(j2, SlotKind::Map, 10, 1);
        let m = b.build().unwrap();
        let out = solve(&m, &SolveParams::default());
        assert_eq!(out.status, Status::Optimal);
        let s = out.best.unwrap();
        s.verify(&m).unwrap();
        assert_eq!(s.objective, 0);
        assert_eq!(s.starts[0], 0);
        assert!(s.starts[1] >= 20);
    }

    /// Warm start alone already optimal → solver returns immediately.
    #[test]
    fn warm_start_shortcircuits_optimal() {
        let mut b = ModelBuilder::new();
        b.add_resource(4, 4);
        let j = b.add_job(0, 1000);
        b.add_task(j, SlotKind::Map, 1, 1);
        let m = b.build().unwrap();
        let out = solve(&m, &SolveParams::default());
        assert_eq!(out.status, Status::Optimal);
        assert_eq!(out.stats.nodes, 0, "no search needed");
    }

    /// Node budget of zero with warm start disabled → Unknown.
    #[test]
    fn budget_exhaustion_reports_unknown() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(0, 5);
        b.add_task(j, SlotKind::Map, 10, 1);
        let m = b.build().unwrap();
        let out = solve(
            &m,
            &SolveParams {
                node_limit: 0,
                warm_start: false,
                ..Default::default()
            },
        );
        assert_eq!(out.status, Status::Unknown);
        assert!(out.best.is_none());
    }

    /// A zero time limit must stop the search at the first cadence check
    /// even though nodes advance by irregular strides (a `% k == 0` gate
    /// could be stepped over forever).
    #[test]
    fn zero_time_limit_stops_promptly() {
        let mut b = ModelBuilder::new();
        b.add_resource(2, 2);
        for _ in 0..6 {
            let j = b.add_job(0, 50);
            b.add_task(j, SlotKind::Map, 10, 1);
            b.add_task(j, SlotKind::Reduce, 5, 1);
        }
        let m = b.build().unwrap();
        let out = solve(
            &m,
            &SolveParams {
                node_limit: u64::MAX,
                time_limit: Some(Duration::ZERO),
                warm_start: false,
                ..Default::default()
            },
        );
        assert_eq!(out.status, Status::Unknown);
        assert!(out.best.is_none());
        assert!(
            out.stats.nodes <= CHECK_STRIDE,
            "search ran {} nodes past an already-expired deadline",
            out.stats.nodes
        );
    }

    /// An explicit initial incumbent is used and improved upon.
    #[test]
    fn initial_incumbent_is_respected() {
        let m = pair_model(2);
        // A bad (1-late) but valid incumbent: both jobs serialized.
        let bad = Solution::from_placements(&m, vec![0, 10], vec![ResRef(0), ResRef(0)]);
        bad.verify(&m).unwrap();
        assert_eq!(bad.objective, 1);
        let out = solve(
            &m,
            &SolveParams {
                warm_start: false,
                initial: Some(bad),
                ..Default::default()
            },
        );
        assert_eq!(out.status, Status::Optimal);
        assert_eq!(out.best.unwrap().objective, 0);
    }

    /// Greedy passes `f` runs on this thread.
    fn greedy_passes<T>(f: impl FnOnce() -> T) -> (u64, T) {
        let before = crate::greedy::PASSES.with(|p| p.get());
        let out = f();
        (crate::greedy::PASSES.with(|p| p.get()) - before, out)
    }

    /// Two one-map jobs (10 ticks, due at 12) on a pool with `slots` map
    /// slots: both on time side by side, one late on a single slot.
    fn pair_model(slots: u32) -> Model {
        let mut b = ModelBuilder::new();
        b.add_resource(slots, 1);
        for _ in 0..2 {
            let j = b.add_job(0, 12);
            b.add_task(j, SlotKind::Map, 10, 1);
        }
        b.build().unwrap()
    }

    /// An on-time incumbent cannot be beaten: no greedy pass, no search,
    /// and the incumbent itself comes back (not greedy's equal-valued one).
    #[test]
    fn on_time_initial_skips_the_greedy_pass() {
        let m = pair_model(2);
        // Greedy starts both jobs at 0; this incumbent starts job 0 a tick
        // later, still on time.
        let initial = Solution::from_placements(&m, vec![1, 0], vec![ResRef(0), ResRef(0)]);
        assert_eq!(initial.objective, 0);
        assert_ne!(greedy_edf(&m).unwrap(), initial);
        let (passes, out) = greedy_passes(|| {
            solve(
                &m,
                &SolveParams {
                    initial: Some(initial.clone()),
                    ..Default::default()
                },
            )
        });
        assert_eq!(passes, 0);
        assert_eq!(out.status, Status::Optimal);
        assert_eq!(out.stats.nodes, 0);
        assert_eq!(out.best, Some(initial));
    }

    /// A late incumbent still gets exactly one greedy pass, and the solve
    /// keeps the strictly better schedule — the incumbent on a tie.
    #[test]
    fn late_initial_runs_one_greedy_pass_and_keeps_the_better() {
        let no_search = |initial: &Solution| SolveParams {
            node_limit: 0,
            initial: Some(initial.clone()),
            ..Default::default()
        };
        // Greedy runs the two jobs side by side (0 late) and beats the
        // serialized incumbent (1 late).
        let m = pair_model(2);
        let serial = Solution::from_placements(&m, vec![0, 10], vec![ResRef(0), ResRef(0)]);
        assert_eq!(serial.objective, 1);
        let (passes, out) = greedy_passes(|| solve(&m, &no_search(&serial)));
        assert_eq!(passes, 1);
        assert_eq!(out.status, Status::Optimal);
        assert_eq!(out.best, Some(greedy_edf(&m).unwrap()));
        // One slot: every schedule has one late job. Greedy runs job 0
        // first; the incumbent runs job 1 first and survives the tie.
        let m = pair_model(1);
        let swapped = Solution::from_placements(&m, vec![10, 0], vec![ResRef(0), ResRef(0)]);
        let greedy = greedy_edf(&m).unwrap();
        assert_eq!((swapped.objective, greedy.objective), (1, 1));
        assert_ne!(greedy, swapped);
        let (passes, out) = greedy_passes(|| solve(&m, &no_search(&swapped)));
        assert_eq!(passes, 1);
        assert_eq!(out.best, Some(swapped));
    }

    /// With no incumbent in hand the warm start runs once.
    #[test]
    fn no_initial_runs_one_greedy_pass() {
        let m = pair_model(2);
        let (passes, out) = greedy_passes(|| solve(&m, &SolveParams::default()));
        assert_eq!(passes, 1);
        assert_eq!(out.best, Some(greedy_edf(&m).unwrap()));
    }

    /// An incumbent that fails verification is dropped and the warm start
    /// runs once (release builds); debug builds stop at the caller's bug.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "initial incumbent invalid"))]
    fn invalid_initial_runs_one_greedy_pass() {
        let m = pair_model(1);
        // Both maps on the one slot at once: over capacity.
        let bad = Solution::from_placements(&m, vec![0, 0], vec![ResRef(0), ResRef(0)]);
        assert!(bad.verify(&m).is_err());
        let (passes, out) = greedy_passes(|| {
            solve(
                &m,
                &SolveParams {
                    initial: Some(bad),
                    ..Default::default()
                },
            )
        });
        assert_eq!(passes, 1);
        assert_eq!(out.best, Some(greedy_edf(&m).unwrap()));
    }

    /// Map-only and reduce-carrying jobs mix correctly under contention.
    #[test]
    fn mixed_phases_under_contention() {
        let mut b = ModelBuilder::new();
        b.add_resource(2, 1);
        let j1 = b.add_job(0, 50);
        b.add_task(j1, SlotKind::Map, 10, 1);
        b.add_task(j1, SlotKind::Map, 10, 1);
        b.add_task(j1, SlotKind::Reduce, 10, 1);
        let j2 = b.add_job(0, 25);
        b.add_task(j2, SlotKind::Map, 5, 1);
        b.add_task(j2, SlotKind::Reduce, 5, 1);
        let m = b.build().unwrap();
        let out = solve(&m, &SolveParams::default());
        assert_eq!(out.status, Status::Optimal);
        let s = out.best.unwrap();
        s.verify(&m).unwrap();
        assert_eq!(s.objective, 0);
    }

    /// The per-class stats surface through SolveStats and account for every
    /// propagator run.
    #[test]
    fn per_class_stats_are_reported() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        for i in 0..3 {
            let j = b.add_job(0, 25 + i);
            b.add_task(j, SlotKind::Map, 10, 1);
        }
        let m = b.build().unwrap();
        let out = solve(
            &m,
            &SolveParams {
                warm_start: false,
                ..Default::default()
            },
        );
        let total: u64 = out.stats.by_class.iter().map(|c| c.runs).sum();
        assert_eq!(total, out.stats.propagations, "classes partition runs");
        // `prunings` also counts narrowings made by search decisions, which
        // belong to no propagator class — the class sum is a lower bound.
        let total_prune: u64 = out.stats.by_class.iter().map(|c| c.prunings).sum();
        assert!(total_prune <= out.stats.prunings);
        assert!(total > 0);
    }

    #[test]
    fn scaled_params_shrink_budgets_with_floors() {
        let base = SolveParams {
            node_limit: 10_000,
            fail_limit: u64::MAX,
            time_limit: Some(Duration::from_millis(200)),
            ..Default::default()
        };
        let half = base.scaled(0.5);
        assert_eq!(half.node_limit, 5_000);
        assert_eq!(half.fail_limit, u64::MAX, "unlimited stays unlimited");
        assert_eq!(half.time_limit, Some(Duration::from_millis(100)));
        // Tiny factors clamp to the floors instead of zeroing the budget.
        let tiny = SolveParams {
            node_limit: 10,
            fail_limit: 10,
            time_limit: Some(Duration::from_millis(2)),
            ..Default::default()
        }
        .scaled(0.001);
        assert_eq!(tiny.node_limit, 1);
        assert_eq!(tiny.fail_limit, 1);
        assert_eq!(tiny.time_limit, Some(Duration::from_millis(1)));
    }
}

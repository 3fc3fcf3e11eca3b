//! Parallel portfolio branch-and-bound.
//!
//! The paper ran CP Optimizer, which exploits multicore hardware through
//! diversified parallel search; this module gives [`crate::search::solve`]
//! the same treatment with `std::thread::scope` and no extra dependencies.
//! K workers run the existing branch-and-bound over the same model with
//! deliberately different strategies (branching rule, restart schedule),
//! sharing two atomics:
//!
//! * the **global incumbent objective** — published on every improvement
//!   and folded into every worker's objective cut each node, so one
//!   worker's discovery prunes every other worker's tree;
//! * a **cancellation flag** — raised by any worker on exit (optimality
//!   proof or budget expiry), polled at the search's check cadence, so the
//!   portfolio returns as soon as one worker is done.
//!
//! Merging is deterministic: the best solution is chosen by lowest
//! objective, ties broken by lowest worker id. Because the shared bound is
//! only ever derived from published incumbents, a worker that exhausts its
//! tree under the cut constitutes a proof that no better solution exists —
//! even if that worker holds a worse (or no) local incumbent — so the
//! merged status is `Optimal` whenever any worker exhausted.

use crate::model::Model;
use crate::search::{solve_shared, Outcome, SharedSearch, SolveParams, Status};

/// Configuration for [`solve_portfolio`].
#[derive(Debug, Clone)]
pub struct PortfolioParams {
    /// Budgets and options shared by every worker (worker 0 runs them
    /// unchanged; workers 1.. diversify on top).
    pub base: SolveParams,
    /// Number of workers to spawn (clamped to at least 1; 1 degenerates to
    /// the single-threaded [`crate::search::solve`]).
    pub workers: usize,
    /// Inert: the search branches on start times only, so there is no
    /// value ordering for a seed to vary. Kept because callers outside the
    /// workspace construct it.
    pub seed: u64,
}

impl Default for PortfolioParams {
    fn default() -> Self {
        PortfolioParams {
            base: SolveParams::default(),
            workers: 4,
            seed: 0,
        }
    }
}

impl PortfolioParams {
    /// A single-worker portfolio around `base` (≡ plain `solve`).
    pub fn single(base: &SolveParams) -> Self {
        PortfolioParams {
            base: base.clone(),
            workers: 1,
            seed: 0,
        }
    }
}

/// The strategy mix for worker `w`.
///
/// Worker 0 is the *anchor*: it runs `base` exactly as the single-threaded
/// solver would (greedy warm start, set-times), so the portfolio can never
/// do worse than `solve` on the same budget.
///
/// Workers 1.. are all complete searches, so any of them can produce an
/// exhaustion proof; they take the shared bound instead of a warm start and
/// differ in restart schedule and branching rule by `w % 4`: restarts every
/// 32 conflicts (× Luby), deadline-first branching, restarts every 128, or
/// `base`'s own strategy. The search is deterministic, so a worker from the
/// fifth on repeats the one four below it.
fn worker_params(params: &PortfolioParams, w: usize) -> SolveParams {
    let mut wp = params.base.clone();
    if w == 0 {
        return wp;
    }
    wp.warm_start = false;
    match w % 4 {
        1 => wp.restarts = Some(32),
        2 => wp.branching = crate::search::Branching::Edf,
        3 => wp.restarts = Some(128),
        _ => {} // the anchor's strategy without the warm start
    }
    wp
}

/// Minimize the number of late jobs with `params.workers` diversified
/// workers sharing incumbent bound and cancellation. A model with more
/// than one resource gets [`crate::search::solve`]'s refusal,
/// [`Status::Unsupported`], and spawns no worker.
///
/// Statuses merge as follows: any worker exhausting its tree (local
/// `Optimal`, or `Infeasible` under a shared bound while some worker holds
/// a solution) proves the merged solution optimal; `Infeasible` with no
/// solution anywhere is genuine infeasibility; otherwise the merge is
/// `Feasible`/`Unknown` by whether any incumbent exists.
pub fn solve_portfolio(model: &Model, params: &PortfolioParams) -> Outcome {
    let t0 = std::time::Instant::now();
    let k = params.workers.max(1);
    if k == 1 || model.n_resources() > 1 {
        return solve_shared(model, &worker_params(params, 0), None);
    }

    let shared = SharedSearch::new();
    let outcomes: Vec<Outcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..k)
            .map(|w| {
                let wp = worker_params(params, w);
                let shared = &shared;
                s.spawn(move || solve_shared(model, &wp, Some(shared)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("portfolio worker panicked"))
            .collect()
    });

    merge(outcomes, t0)
}

fn merge(outcomes: Vec<Outcome>, t0: std::time::Instant) -> Outcome {
    let mut best: Option<crate::solution::Solution> = None;
    let mut any_exhausted = false;
    let mut any_solution = false;
    let mut stats = crate::search::SolveStats::default();
    for out in &outcomes {
        stats.merge(&out.stats);
        any_solution |= out.best.is_some();
        any_exhausted |= matches!(out.status, Status::Optimal | Status::Infeasible);
    }
    // Deterministic winner: lowest objective, then lowest worker id (the
    // iteration order; strict `<` keeps the earlier worker on ties).
    for out in outcomes {
        if let Some(sol) = out.best {
            if best.as_ref().is_none_or(|b| sol.objective < b.objective) {
                best = Some(sol);
            }
        }
    }
    let status = if best.is_some() {
        if any_exhausted {
            // Exhaustion under the shared cut (bound ≥ final best − 1, as
            // bounds only come from published incumbents) proves no better
            // solution exists.
            Status::Optimal
        } else {
            Status::Feasible
        }
    } else if any_exhausted {
        debug_assert!(!any_solution);
        Status::Infeasible
    } else {
        Status::Unknown
    };
    stats.elapsed_us = t0.elapsed().as_micros() as u64;
    Outcome {
        status,
        best,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelBuilder, SlotKind};
    use crate::search::{solve, SolveParams};

    /// One slot of each kind, several tight jobs — small enough to prove
    /// optimal, and the greedy warm start leaves search to do.
    fn instance() -> Model {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        for i in 0..4 {
            let j = b.add_job(0, 24 + 2 * i);
            b.add_task(j, SlotKind::Map, 10, 1);
            b.add_task(j, SlotKind::Reduce, 2, 1);
        }
        b.build().unwrap()
    }

    #[test]
    fn portfolio_matches_single_thread_on_proven_instances() {
        let m = instance();
        let single = solve(&m, &SolveParams::default());
        let multi = solve_portfolio(&m, &PortfolioParams::default());
        assert!(
            single.stats.nodes > 0,
            "the warm start alone is not optimal"
        );
        assert_eq!(single.status, Status::Optimal);
        assert_eq!(multi.status, Status::Optimal);
        let msol = multi.best.unwrap();
        assert_eq!(single.best.unwrap().objective, msol.objective);
        msol.verify(&m).unwrap();
    }

    #[test]
    fn portfolio_is_deterministic_for_a_seed() {
        let m = instance();
        let params = PortfolioParams {
            workers: 4,
            seed: 7,
            ..Default::default()
        };
        let a = solve_portfolio(&m, &params);
        let b = solve_portfolio(&m, &params);
        assert_eq!(a.status, b.status);
        assert_eq!(a.best.map(|s| s.objective), b.best.map(|s| s.objective));
    }

    #[test]
    fn one_worker_degenerates_to_plain_solve() {
        let m = instance();
        let single = solve(&m, &SolveParams::default());
        let port = solve_portfolio(&m, &PortfolioParams::single(&SolveParams::default()));
        assert_eq!(single.status, port.status);
        assert_eq!(single.best.unwrap().objective, port.best.unwrap().objective);
    }

    #[test]
    fn infeasible_pins_report_infeasible() {
        // Two pinned tasks overlapping on a 1-slot resource: no solution.
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(0, 100);
        let t0 = b.add_task(j, SlotKind::Map, 10, 1);
        let t1 = b.add_task(j, SlotKind::Map, 10, 1);
        b.fix_task(t0, crate::model::ResRef(0), 0);
        b.fix_task(t1, crate::model::ResRef(0), 5);
        let m = b.build().unwrap();
        let out = solve_portfolio(&m, &PortfolioParams::default());
        assert_eq!(out.status, Status::Infeasible);
        assert!(out.best.is_none());
    }

    /// Four workers on a two-resource model: `solve`'s refusal, no panic.
    #[test]
    fn refuses_a_model_with_two_resources() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        b.add_resource(1, 1);
        let j = b.add_job(0, 100);
        b.add_task(j, SlotKind::Map, 10, 1);
        let m = b.build().unwrap();
        let out = solve_portfolio(&m, &PortfolioParams::default());
        assert_eq!(out.status, Status::Unsupported);
        assert!(out.best.is_none());
    }

    #[test]
    fn worker_zero_is_the_unchanged_base() {
        let base = SolveParams::default();
        let params = PortfolioParams {
            base: base.clone(),
            workers: 4,
            seed: 3,
        };
        let w0 = worker_params(&params, 0);
        assert_eq!(w0.warm_start, base.warm_start);
        assert_eq!((w0.restarts, w0.branching), (base.restarts, base.branching));
        // Diversified workers drop the greedy warm start and differ in
        // restarts or branching.
        let w1 = worker_params(&params, 1);
        let w2 = worker_params(&params, 2);
        assert!(!w1.warm_start && !w2.warm_start);
        assert_eq!(w1.restarts, Some(32));
        assert_eq!(w2.branching, crate::search::Branching::Edf);
    }

    #[test]
    fn strategy_mix_repeats_every_four_workers() {
        let params = PortfolioParams {
            base: SolveParams::default(),
            workers: 8,
            seed: 0,
        };
        assert_eq!(worker_params(&params, 1).restarts, Some(32));
        assert_eq!(worker_params(&params, 3).restarts, Some(128));
        // Worker 4 runs the anchor's strategy cold; worker 5 restarts like
        // worker 1.
        let w4 = worker_params(&params, 4);
        assert_eq!(w4.branching, crate::search::Branching::SetTimes);
        assert_eq!(w4.restarts, None);
        assert!(!w4.warm_start);
        assert_eq!(worker_params(&params, 5).restarts, Some(32));
    }
}

//! Property-based tests for the parallel portfolio solver.
//!
//! * The portfolio's objective never exceeds the greedy warm start's.
//! * When both the portfolio and the single-threaded solver prove
//!   optimality, their objectives agree — diversified workers plus the
//!   shared bound must not change the optimum.
//! * Portfolio results are reproducible for a fixed seed.
//!
//! The instances are one-pool models, the only ones the search solves.

use cpsolve::greedy::greedy_edf;
use cpsolve::model::{Model, ModelBuilder, SlotKind};
use cpsolve::portfolio::{solve_portfolio, PortfolioParams};
use cpsolve::search::{solve, SolveParams, Status};
use proptest::prelude::*;

/// A small random instance description (same shape as the solver suite).
#[derive(Debug, Clone)]
struct TinyInstance {
    /// (map, reduce) slots of the one pool.
    pool: (u32, u32),
    /// Per job: (release, window, map durs, reduce durs)
    jobs: Vec<(i64, i64, Vec<i64>, Vec<i64>)>,
    horizon: i64,
}

fn tiny_instance() -> impl Strategy<Value = TinyInstance> {
    let pool = (1u32..=3, 1u32..=3);
    let job = (
        0i64..=3,
        1i64..=12,
        prop::collection::vec(1i64..=4, 1..=2),
        prop::collection::vec(1i64..=3, 0..=1),
    );
    let jobs = prop::collection::vec(job, 1..=3);
    (pool, jobs).prop_map(|(pool, jobs)| {
        let total: i64 = jobs
            .iter()
            .map(|(_, _, m, r)| m.iter().sum::<i64>() + r.iter().sum::<i64>())
            .sum();
        let max_rel = jobs.iter().map(|j| j.0).max().unwrap_or(0);
        TinyInstance {
            pool,
            jobs,
            horizon: max_rel + total,
        }
    })
}

fn build(inst: &TinyInstance) -> Model {
    let mut b = ModelBuilder::new();
    b.add_resource(inst.pool.0, inst.pool.1);
    for (rel, window, maps, reduces) in &inst.jobs {
        let j = b.add_job(*rel, rel + window);
        for &d in maps {
            b.add_task(j, SlotKind::Map, d, 1);
        }
        for &d in reduces {
            b.add_task(j, SlotKind::Reduce, d, 1);
        }
    }
    b.set_horizon(inst.horizon);
    b.build().expect("tiny instance is well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// K-worker portfolio solutions verify and never exceed the greedy
    /// warm start's objective.
    #[test]
    fn portfolio_never_worse_than_greedy(inst in tiny_instance(), workers in 1usize..=4) {
        let model = build(&inst);
        let out = solve_portfolio(&model, &PortfolioParams {
            workers,
            ..Default::default()
        });
        let best = out.best.expect("every instance has a schedule");
        best.verify(&model).unwrap();
        let greedy = greedy_edf(&model).unwrap();
        prop_assert!(
            best.objective <= greedy.objective,
            "portfolio {} late jobs vs greedy {}", best.objective, greedy.objective
        );
    }

    /// When both the portfolio and single-threaded search prove
    /// optimality, the objectives are identical.
    #[test]
    fn portfolio_agrees_with_single_thread_on_optimality(inst in tiny_instance()) {
        let model = build(&inst);
        let single = solve(&model, &SolveParams::default());
        let multi = solve_portfolio(&model, &PortfolioParams::default());
        prop_assume!(single.status == Status::Optimal && multi.status == Status::Optimal);
        prop_assert_eq!(
            single.best.unwrap().objective,
            multi.best.unwrap().objective
        );
    }

    /// Same seed → same objective and status, run to run.
    #[test]
    fn portfolio_reproducible_for_seed(inst in tiny_instance(), seed in 0u64..=7) {
        let model = build(&inst);
        let params = PortfolioParams { workers: 4, seed, ..Default::default() };
        let a = solve_portfolio(&model, &params);
        let b = solve_portfolio(&model, &params);
        prop_assert_eq!(a.status, b.status);
        prop_assert_eq!(
            a.best.map(|s| s.objective),
            b.best.map(|s| s.objective)
        );
    }
}

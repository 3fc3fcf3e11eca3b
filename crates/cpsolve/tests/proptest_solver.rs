//! Property-based tests for the CP solver.
//!
//! The instances are one-pool models, the only ones the search solves
//! (§V.D's combined model).
//!
//! * Every solution the solver returns verifies against the independent
//!   checker (capacity, barrier, release, pinning, lateness flags).
//! * On tiny random instances, the solver's objective equals the
//!   brute-force optimum.
//! * Incremental pins are never moved.
//! * An `initial` incumbent is never lost, whatever the node budget.

use cpsolve::brute::brute_force_optimal;
use cpsolve::greedy::{greedy_edf, greedy_edf_with_hints, Hint};
use cpsolve::model::{Model, ModelBuilder, ResRef, SlotKind, TaskRef};
use cpsolve::search::{solve, SolveParams, Status};
use proptest::prelude::*;

/// A small random instance description.
#[derive(Debug, Clone)]
struct TinyInstance {
    /// (map, reduce) slots of the one pool.
    pool: (u32, u32),
    /// Per job: (release, window, maps durs, reduce durs)
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
        // Keep the oracle tractable: horizon bounded by total work + max release.
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Solver solutions always verify, whatever the instance.
    #[test]
    fn solutions_always_verify(inst in tiny_instance()) {
        let model = build(&inst);
        let out = solve(&model, &SolveParams::default());
        let best = out.best.expect("every instance has a schedule");
        best.verify(&model).unwrap();
    }

    /// The default budget exhausts every tiny instance, and the
    /// exhausted-search objective equals the brute-force optimum.
    #[test]
    fn solver_matches_brute_force(inst in tiny_instance()) {
        let model = build(&inst);
        let out = solve(&model, &SolveParams::default());
        prop_assert_eq!(out.status, Status::Optimal);
        if let Some(oracle) = brute_force_optimal(&model, 20_000_000) {
            let got = out.best.expect("optimal implies solution").objective;
            prop_assert_eq!(got, oracle,
                "solver found {} late jobs but optimum is {}", got, oracle);
        }
    }

    /// Greedy EDF never beats the exhausted search's answer, and the
    /// objective never exceeds the job count.
    #[test]
    fn objective_bounded_by_job_count(inst in tiny_instance()) {
        let model = build(&inst);
        let out = solve(&model, &SolveParams::default());
        let best = out.best.unwrap();
        prop_assert!(best.objective as usize <= model.n_jobs());
        let greedy = greedy_edf(&model).unwrap();
        prop_assert!(best.objective <= greedy.objective);
    }

    /// An `initial` incumbent built the way the manager builds one — greedy
    /// replaying the previous round's placements, stale hints included —
    /// is never lost: the answer verifies and is no worse than the
    /// incumbent, whatever the node budget, and an on-time incumbent comes
    /// back as it is. (That the incumbent is no worse than a cold greedy
    /// pass is the split rung's warm-start property, in `mrcp`.)
    #[test]
    fn initial_incumbent_is_never_lost(
        inst in tiny_instance(),
        raw_hints in prop::collection::vec((any::<bool>(), 0u32..=3, -2i64..=15), 9),
        limit in 0usize..4,
    ) {
        let model = build(&inst);
        let hints: Vec<Hint> = raw_hints
            .iter()
            .take(model.n_tasks())
            .map(|&(on, r, s)| on.then_some((ResRef(r), s)))
            .collect();
        let initial = greedy_edf_with_hints(&model, &hints).unwrap();
        let node_limit = [0, 1, 50, SolveParams::default().node_limit][limit];
        let out = solve(&model, &SolveParams {
            node_limit,
            initial: Some(initial.clone()),
            ..Default::default()
        });
        let best = out.best.expect("an incumbent was passed in");
        best.verify(&model).unwrap();
        prop_assert!(best.objective <= initial.objective,
            "best {} vs initial {}", best.objective, initial.objective);
        if initial.objective == 0 {
            prop_assert_eq!(out.status, Status::Optimal);
            prop_assert_eq!(best, initial);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Pinned tasks stay exactly where they were pinned, whatever else the
    /// solver rearranges.
    #[test]
    fn pins_are_immovable(
        pin_start in 0i64..=5,
        durs in prop::collection::vec(1i64..=4, 1..=3),
    ) {
        let mut b = ModelBuilder::new();
        b.add_resource(2, 2);
        let j0 = b.add_job(0, 30);
        let pinned = b.add_task(j0, SlotKind::Map, 6, 1);
        b.fix_task(pinned, ResRef(0), pin_start);
        let j1 = b.add_job(0, 10);
        for &d in &durs {
            b.add_task(j1, SlotKind::Map, d, 1);
        }
        let model = b.build().unwrap();
        let out = solve(&model, &SolveParams::default());
        let best = out.best.expect("feasible with pins");
        best.verify(&model).unwrap();
        prop_assert_eq!(best.starts[pinned.idx()], pin_start);
        prop_assert_eq!(best.resource[pinned.idx()], ResRef(0));
    }
}

/// Deterministic regression: a tight instance, first found by an earlier
/// proptest run on two 1/1 resources; here on their combined pool.
#[test]
fn regression_bnb_beats_greedy() {
    let mut b = ModelBuilder::new();
    b.add_resource(2, 2);
    // j0: deadline 8, 2 maps of 4 → needs both slots in parallel.
    let j0 = b.add_job(0, 8);
    b.add_task(j0, SlotKind::Map, 4, 1);
    b.add_task(j0, SlotKind::Map, 4, 1);
    // j1: deadline 7, 1 map of 3.
    let j1 = b.add_job(0, 7);
    b.add_task(j1, SlotKind::Map, 3, 1);
    let model = b.build().unwrap();
    let out = solve(&model, &SolveParams::default());
    assert_eq!(out.status, Status::Optimal);
    let best = out.best.unwrap();
    best.verify(&model).unwrap();
    // Optimal: j1 at [0,3), j0's maps at [0,4) and [3,7) → j0 ends 7 ≤ 8.
    assert_eq!(best.objective, 0);
    // Confirm against the oracle.
    assert_eq!(brute_force_optimal(&model, 20_000_000), Some(0));
}

/// The solver is deterministic: same model, same params → same outcome.
#[test]
fn solver_is_deterministic() {
    let mut b = ModelBuilder::new();
    b.add_resource(2, 1);
    for i in 0..3 {
        let j = b.add_job(i, 20 + i);
        b.add_task(j, SlotKind::Map, 5, 1);
        b.add_task(j, SlotKind::Reduce, 3, 1);
    }
    let model = b.build().unwrap();
    let a = solve(&model, &SolveParams::default());
    let bb = solve(&model, &SolveParams::default());
    assert_eq!(
        a.best.as_ref().map(|s| &s.starts),
        bb.best.as_ref().map(|s| &s.starts)
    );
    assert_eq!(a.stats.nodes, bb.stats.nodes);
    let _ = TaskRef(0);
}

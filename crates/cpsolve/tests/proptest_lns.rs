//! Verdict invariance of the LNS phase.
//!
//! The LNS phase only *adds* incumbents before the unrestricted
//! branch-and-bound — it may not change what the solver can prove. On
//! exhaustively-checkable instances, `lns` on and off must both reach the
//! brute-force optimum with an `Optimal` verdict, and restricted LNS
//! re-solves must never produce schedules that fail the independent checker.

use cpsolve::brute::brute_force_optimal;
use cpsolve::lns::LnsParams;
use cpsolve::model::{Model, ModelBuilder, SlotKind};
use cpsolve::search::{solve, SolveParams, Status};
use proptest::prelude::*;

/// A small random instance description (same shape as proptest_solver).
#[derive(Debug, Clone)]
struct TinyInstance {
    resources: Vec<(u32, u32)>,
    /// Per job: (release, window, maps durs, reduce durs)
    jobs: Vec<(i64, i64, Vec<i64>, Vec<i64>)>,
    horizon: i64,
}

fn tiny_instance() -> impl Strategy<Value = TinyInstance> {
    let res = prop::collection::vec((1u32..=2, 1u32..=2), 1..=2);
    let job = (
        0i64..=3,
        1i64..=12,
        prop::collection::vec(1i64..=4, 1..=2),
        prop::collection::vec(1i64..=3, 0..=1),
    );
    let jobs = prop::collection::vec(job, 1..=3);
    (res, jobs).prop_map(|(resources, jobs)| {
        let total: i64 = jobs
            .iter()
            .map(|(_, _, m, r)| m.iter().sum::<i64>() + r.iter().sum::<i64>())
            .sum();
        let max_rel = jobs.iter().map(|j| j.0).max().unwrap_or(0);
        TinyInstance {
            resources,
            jobs,
            horizon: max_rel + total,
        }
    })
}

fn build(inst: &TinyInstance) -> Model {
    let mut b = ModelBuilder::new();
    for &(mc, rc) in &inst.resources {
        b.add_resource(mc, rc);
    }
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

    /// With the LNS phase on or off the solve reaches the brute-force
    /// optimum with an `Optimal` verdict; the phase never changes what the
    /// exhaustive search proves.
    #[test]
    fn tuning_layers_preserve_verdict_and_optimum(inst in tiny_instance()) {
        let model = build(&inst);
        let oracle = brute_force_optimal(&model, 20_000_000);
        for lns_on in [false, true] {
            let p = SolveParams {
                lns: LnsParams {
                    enabled: lns_on,
                    // Small windows + tiny per-iteration budgets so the
                    // phase actually iterates on 1–3 job instances.
                    min_window_jobs: 1,
                    iter_nodes: 50,
                    ..LnsParams::default()
                },
                ..SolveParams::default()
            };
            let out = solve(&model, &p);
            prop_assert_eq!(
                out.status, Status::Optimal,
                "lns={} must still prove optimality", lns_on
            );
            let best = out.best.expect("optimal implies a solution here");
            best.verify(&model).unwrap();
            if let Some(oracle) = oracle {
                prop_assert_eq!(
                    best.objective, oracle,
                    "lns={} objective diverged from oracle", lns_on
                );
            }
        }
    }

    /// Pure-LNS solves (all budget in the phase) still return verified
    /// schedules no worse than the greedy warm start.
    #[test]
    fn pure_lns_never_worsens_the_incumbent(inst in tiny_instance()) {
        let model = build(&inst);
        let greedy = cpsolve::greedy::greedy_edf(&model).expect("greedy succeeds");
        let p = SolveParams {
            lns: LnsParams {
                min_window_jobs: 1,
                iter_nodes: 50,
                ..LnsParams::pure(42)
            },
            node_limit: 5_000,
            ..SolveParams::default()
        };
        let out = solve(&model, &p);
        let best = out.best.expect("warm start guarantees an incumbent");
        best.verify(&model).unwrap();
        prop_assert!(best.objective <= greedy.objective);
    }
}

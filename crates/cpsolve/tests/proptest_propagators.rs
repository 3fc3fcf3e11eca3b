//! Property tests for the propagators: soundness against the independent
//! verifier.
//!
//! The key property of any propagator is that it never removes a value
//! that participates in a feasible solution. We test the contrapositive
//! that matters operationally: for a *known-feasible fully-fixed
//! placement* (validated by `Solution::verify`, which shares no code with
//! the propagators), running the whole propagation stack from domains
//! pinned to that placement must not report a conflict — for the timetable
//! cumulative, edge-finding, the barrier, and the lateness logic alike.

use cpsolve::greedy::{greedy_edf, greedy_topo};
use cpsolve::model::{Model, ModelBuilder, SlotKind, TaskRef};
use cpsolve::props::{Engine, EngineOptions};
use cpsolve::state::Domains;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Inst {
    resources: Vec<(u32, u32)>,
    jobs: Vec<(i64, i64, Vec<i64>, Vec<i64>)>,
}

fn inst() -> impl Strategy<Value = Inst> {
    let res = prop::collection::vec((1u32..=3, 1u32..=3), 1..=3);
    let job = (
        0i64..=5,
        5i64..=60,
        prop::collection::vec(1i64..=6, 1..=4),
        prop::collection::vec(1i64..=4, 0..=2),
    );
    (res, prop::collection::vec(job, 1..=4)).prop_map(|(resources, jobs)| Inst { resources, jobs })
}

fn build(i: &Inst) -> Model {
    let mut b = ModelBuilder::new();
    for &(mc, rc) in &i.resources {
        b.add_resource(mc, rc);
    }
    for (rel, window, maps, reduces) in &i.jobs {
        let j = b.add_job(*rel, rel + window);
        for &d in maps {
            b.add_task(j, SlotKind::Map, d, 1);
        }
        for &d in reduces {
            b.add_task(j, SlotKind::Reduce, d, 1);
        }
    }
    b.build().expect("well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Pinning domains to a greedy (feasible, verified) schedule and
    /// propagating everything — including Θ-tree edge-finding — never
    /// conflicts: no propagator is unsound on feasible assignments.
    #[test]
    fn propagation_accepts_feasible_placements(i in inst()) {
        let model = build(&i);
        let sol = greedy_edf(&model).expect("greedy succeeds");
        sol.verify(&model).expect("greedy schedules verify");

        let mut dom = Domains::new(&model);
        for t in 0..model.n_tasks() {
            let tr = TaskRef(t as u32);
            dom.assign_res(tr, sol.resource[t]).expect("resource in domain");
            dom.fix_start(tr, sol.starts[t]).expect("start in domain");
        }
        let mut eng = Engine::with_options(&model, EngineOptions {
            edge_finding: true,
            ..EngineOptions::default()
        });
        prop_assert!(eng.propagate_all(&model, &mut dom).is_ok(),
            "feasible placement rejected by propagation");
        // All lateness flags decided, consistent with the schedule.
        for j in 0..model.n_jobs() {
            let decided = dom.late(cpsolve::model::JobRef(j as u32));
            prop_assert!(decided != cpsolve::state::Lateness::Unknown);
            let is_late = decided == cpsolve::state::Lateness::Late;
            prop_assert_eq!(is_late, sol.late[j]);
        }
    }

    /// Greedy schedules always verify (feasibility of the warm start).
    #[test]
    fn greedy_always_feasible(i in inst()) {
        let model = build(&i);
        let sol = greedy_edf(&model).unwrap();
        prop_assert!(sol.verify(&model).is_ok());
    }

    /// The topological greedy agrees with the plain one on precedence-free
    /// models (same feasibility; not necessarily the same schedule).
    #[test]
    fn topo_greedy_feasible_without_edges(i in inst()) {
        let model = build(&i);
        let sol = greedy_topo(&model).unwrap();
        prop_assert!(sol.verify(&model).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random chains (user precedences): topo greedy respects every edge
    /// and the solver returns verified schedules.
    #[test]
    fn chains_schedule_feasibly(
        durs in prop::collection::vec(1i64..=5, 2..=5),
        extra_jobs in prop::collection::vec(1i64..=5, 0..=2),
    ) {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        b.add_resource(1, 1);
        let j = b.add_job(0, 200);
        let mut prev = None;
        for &d in &durs {
            let t = b.add_task(j, SlotKind::Map, d, 1);
            if let Some(p) = prev {
                b.add_precedence(p, t);
            }
            prev = Some(t);
        }
        for &d in &extra_jobs {
            let j2 = b.add_job(0, 50);
            b.add_task(j2, SlotKind::Map, d, 1);
        }
        let model = b.build().unwrap();

        let g = greedy_edf(&model).unwrap();
        g.verify(&model).expect("chain greedy verifies");

        let out = cpsolve::search::solve(&model, &cpsolve::search::SolveParams {
            node_limit: 50_000,
            fail_limit: 50_000,
            ..Default::default()
        });
        let best = out.best.expect("solvable");
        best.verify(&model).expect("solver respects chains");
        // The chain's makespan is at least the serial sum.
        let total: i64 = durs.iter().sum();
        let chain_end = (0..durs.len())
            .map(|i| best.starts[i] + model.tasks[i].dur)
            .max()
            .unwrap();
        prop_assert!(chain_end >= total);
    }
}

//! Property tests for the propagators: soundness against the independent
//! verifier and against exhaustive enumeration.
//!
//! The key property of any propagator is that it never removes a value
//! that participates in a feasible solution. We test it two ways. The
//! contrapositive that matters operationally: for a *known-feasible
//! fully-fixed placement* (validated by `Solution::verify`, which shares no
//! code with the propagators), running the whole propagation stack from
//! domains pinned to that placement must not report a conflict — for the
//! timetable cumulative, the barrier, and the lateness logic alike. And
//! directly, on instances small enough to enumerate: root propagation of
//! the whole engine keeps every start that some complete feasible placement
//! uses.
//!
//! A third property pins the engine's scheduling against a naive
//! fixpoint: a propagator that reports its own fixpoint is not woken by its
//! own narrowings, and that must never leave narrowing undone.
//!
//! Every instance is a one-pool model, the only kind the engine propagates
//! (§V.D's combined model).

use cpsolve::greedy::greedy_edf;
use cpsolve::model::{JobRef, Model, ModelBuilder, SlotKind, TaskRef};
use cpsolve::props::barrier::PhaseBarrier;
use cpsolve::props::cumulative::Cumulative;
use cpsolve::props::lateness::JobLateness;
use cpsolve::props::objective::ObjectiveBound;
use cpsolve::props::{Ctx, Engine, Propagator};
use cpsolve::state::{Conflict, Domains, Lateness};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Inst {
    /// (map, reduce) slots of the pool.
    pool: (u32, u32),
    jobs: Vec<(i64, i64, Vec<i64>, Vec<i64>)>,
}

fn inst() -> impl Strategy<Value = Inst> {
    let pool = (1u32..=3, 1u32..=3);
    let job = (
        0i64..=5,
        5i64..=60,
        prop::collection::vec(1i64..=6, 1..=4),
        prop::collection::vec(1i64..=4, 0..=2),
    );
    (pool, prop::collection::vec(job, 1..=4)).prop_map(|(pool, jobs)| Inst { pool, jobs })
}

fn build(i: &Inst) -> Model {
    let mut b = ModelBuilder::new();
    b.add_resource(i.pool.0, i.pool.1);
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

#[derive(Debug, Clone)]
struct Tiny {
    /// (map_cap, reduce_cap) of the pool.
    pool: (u32, u32),
    /// (release, map durations, reduce durations) per job.
    jobs: Vec<(i64, Vec<i64>, Vec<i64>)>,
    horizon: i64,
}

/// Small enough for exhaustive placement enumeration (≤ 4 tasks, short
/// horizon) but varied enough to overload a pool and to lift starts from
/// both ends of a window.
fn tiny() -> impl Strategy<Value = Tiny> {
    let pool = (1u32..=2, 1u32..=2);
    let main_job = (
        0i64..=2,
        prop::collection::vec(1i64..=4, 1..=2),
        prop::collection::vec(1i64..=3, 0..=1),
    );
    let extra = (any::<bool>(), 0i64..=2, 1i64..=4);
    (pool, main_job, extra, 6i64..=9).prop_map(|(pool, (rel, maps, reds), extra, horizon)| {
        let mut jobs = vec![(rel, maps, reds)];
        let (with_extra, rel2, d) = extra;
        if with_extra {
            jobs.push((rel2, vec![d], vec![]));
        }
        Tiny {
            pool,
            jobs,
            horizon,
        }
    })
}

fn build_tiny(i: &Tiny) -> Model {
    let mut b = ModelBuilder::new();
    b.add_resource(i.pool.0, i.pool.1);
    for (rel, maps, reds) in &i.jobs {
        // Loose deadlines: this family is about capacity, release and
        // barrier filtering.
        let j = b.add_job(*rel, rel + 1000);
        for &d in maps {
            b.add_task(j, SlotKind::Map, d, 1);
        }
        for &d in reds {
            b.add_task(j, SlotKind::Reduce, d, 1);
        }
    }
    b.set_horizon(i.horizon);
    b.build().expect("well-formed")
}

/// An instance built to make the filters act, not just survive them:
/// pinned blocks (mandatory parts from the root), multi-unit requirements
/// and deadline windows a few ticks wide.
#[derive(Debug, Clone)]
struct Packed {
    /// Map capacity of the pool.
    cap: u32,
    /// Pinned blocks: (start, dur, req).
    blocks: Vec<(i64, i64, u32)>,
    /// Free tasks, one job each: (release, dur, req, deadline slack).
    free: Vec<(i64, i64, u32, i64)>,
    horizon: i64,
}

fn packed() -> impl Strategy<Value = Packed> {
    let blocks = prop::collection::vec((0i64..=5, 1i64..=4, 1u32..=2), 0..=2);
    let free = prop::collection::vec((0i64..=4, 1i64..=4, 1u32..=3, 0i64..=3), 2..=4);
    (1u32..=3, blocks, free, 5i64..=8).prop_map(|(cap, blocks, free, horizon)| Packed {
        cap,
        blocks,
        free,
        horizon,
    })
}

fn build_packed(i: &Packed) -> Model {
    let mut b = ModelBuilder::new();
    let pool = b.add_resource(i.cap, 0);
    for &(start, dur, req) in &i.blocks {
        let pinned = b.add_job(0, 1000);
        let t = b.add_task(pinned, SlotKind::Map, dur, req.min(i.cap));
        b.fix_task(t, pool, start);
    }
    for &(rel, dur, req, slack) in &i.free {
        let j = b.add_job(rel, rel + dur + slack);
        b.add_task(j, SlotKind::Map, dur, req.min(i.cap));
    }
    b.set_horizon(i.horizon);
    b.build().expect("well-formed")
}

/// Exhaustively enumerate every complete `(resource, start)` placement that
/// satisfies release times, the map→reduce barrier, the horizon and the
/// slot capacities — sharing no code with the propagators — and record each
/// task's feasible starts.
fn enumerate_feasible(model: &Model) -> Vec<Vec<i64>> {
    let n = model.n_tasks();
    let nr = model.n_resources();
    let horizon = model.horizon;
    let max_end = (horizon + model.tasks.iter().map(|t| t.dur).max().unwrap_or(0)) as usize + 1;

    // Maps first, then reduces, so the barrier floor is known when a
    // reduce is placed.
    let mut order: Vec<TaskRef> = Vec::with_capacity(n);
    for j in 0..model.n_jobs() {
        order.extend(model.maps_of[j].iter().copied());
    }
    for j in 0..model.n_jobs() {
        order.extend(model.reduces_of[j].iter().copied());
    }

    let mut usage = vec![[vec![0i64; max_end], vec![0i64; max_end]]; nr];
    let mut starts = vec![0i64; n];
    let mut feas_starts: Vec<Vec<i64>> = vec![Vec::new(); n];

    fn kind_idx(k: SlotKind) -> usize {
        match k {
            SlotKind::Map => 0,
            SlotKind::Reduce => 1,
        }
    }

    /// Returns the number of complete feasible placements in this subtree.
    fn rec(
        model: &Model,
        order: &[TaskRef],
        pos: usize,
        usage: &mut [[Vec<i64>; 2]],
        starts: &mut [i64],
        feas_starts: &mut [Vec<i64>],
    ) -> u64 {
        if pos == order.len() {
            for &t in order {
                let ti = t.idx();
                if !feas_starts[ti].contains(&starts[ti]) {
                    feas_starts[ti].push(starts[ti]);
                }
            }
            return 1;
        }
        let t = order[pos];
        let spec = &model.tasks[t.idx()];
        let job = &model.jobs[spec.job.idx()];
        let mut floor = job.release;
        if spec.kind == SlotKind::Reduce {
            for &m in &model.maps_of[spec.job.idx()] {
                floor = floor.max(starts[m.idx()] + model.tasks[m.idx()].dur);
            }
        }
        // A pinned task has exactly one placement, release or no release.
        let (resources, window) = match spec.fixed {
            Some((r, s)) => (r.idx()..r.idx() + 1, s..=s),
            None => (
                0..model.n_resources(),
                floor..=model.horizon.min(job.deadline - spec.dur),
            ),
        };
        let k = kind_idx(spec.kind);
        let mut found = 0u64;
        for r in resources {
            let cap = model.resources[r].cap(spec.kind) as i64;
            if cap == 0 {
                continue;
            }
            for s in window.clone() {
                let range = s as usize..(s + spec.dur) as usize;
                if range
                    .clone()
                    .any(|u| usage[r][k][u] + spec.req as i64 > cap)
                {
                    continue;
                }
                for u in range.clone() {
                    usage[r][k][u] += spec.req as i64;
                }
                starts[t.idx()] = s;
                found += rec(model, order, pos + 1, usage, starts, feas_starts);
                for u in range {
                    usage[r][k][u] -= spec.req as i64;
                }
            }
        }
        found
    }

    rec(model, &order, 0, &mut usage, &mut starts, &mut feas_starts);
    feas_starts
}

/// Whatever root propagation of the whole engine narrows, every start that
/// participates in at least one complete feasible placement must survive: filters only remove provably infeasible values.
/// No job is allowed late, which is how `enumerate_feasible` reads
/// deadlines: as hard windows.
fn assert_keeps_feasible_placements(model: &Model) {
    let feas_starts = enumerate_feasible(model);
    let mut dom = Domains::new(model);
    let mut eng = Engine::new(model);
    eng.set_bound(0);
    let ok = eng.propagate_all(model, &mut dom).is_ok();

    let any_feasible = feas_starts.iter().any(|f| !f.is_empty());
    if !any_feasible {
        // Nothing to protect; a root conflict is allowed (and good).
        return;
    }
    assert!(ok, "root conflict on a feasible instance");
    for (t, starts) in feas_starts.iter().enumerate() {
        let tr = TaskRef(t as u32);
        for &s in starts {
            assert!(
                dom.lb(tr) <= s && s <= dom.ub(tr),
                "task {t}: feasible start {s} pruned to [{}, {}]",
                dom.lb(tr),
                dom.ub(tr)
            );
        }
    }
}

/// The naive fixpoint: every propagator of the engine's set, built
/// directly, run round-robin on `dom` until a full pass narrows nothing.
fn naive_fixpoint(model: &Model, dom: &mut Domains, bound: u32) -> Result<(), Conflict> {
    let mut props: Vec<Box<dyn Propagator>> = Vec::new();
    for j in 0..model.n_jobs() {
        let job = JobRef(j as u32);
        if !model.maps_of[j].is_empty() && !model.reduces_of[j].is_empty() {
            props.push(Box::new(PhaseBarrier::new(job)));
        }
        props.push(Box::new(JobLateness::new(job)));
    }
    for kind in [SlotKind::Map, SlotKind::Reduce] {
        if let Some(c) = Cumulative::new(model, kind) {
            props.push(Box::new(c));
        }
    }
    props.push(Box::new(ObjectiveBound::new()));
    loop {
        dom.clear_dirty();
        for p in &mut props {
            p.propagate(&mut Ctx { model, dom, bound })?;
        }
        if dom.dirty_is_empty() {
            return Ok(());
        }
    }
}

/// Every task's `(lb, ub)` and every job's lateness.
type Snapshot = (Vec<(i64, i64)>, Vec<Lateness>);

fn snapshot(model: &Model, dom: &Domains) -> Snapshot {
    let tasks = (0..model.n_tasks() as u32)
        .map(TaskRef)
        .map(|t| (dom.lb(t), dom.ub(t)))
        .collect();
    let jobs = (0..model.n_jobs() as u32)
        .map(|j| dom.late(JobRef(j)))
        .collect();
    (tasks, jobs)
}

/// One dive decision, as the search would take it: the first task whose
/// start is open gets its earliest start. False at a leaf.
fn decide(model: &Model, dom: &mut Domains) -> bool {
    let Some(t) = (0..model.n_tasks() as u32)
        .map(TaskRef)
        .find(|&t| !dom.start_fixed(t))
    else {
        return false;
    };
    dom.fix_start(t, dom.lb(t))
        .expect("a decision inside the domain");
    true
}

/// Under each objective cut, the engine reaches the naive fixpoint at the
/// root and after every decision of a dive (the search's dirty-driven
/// path). A conflict on one side is a conflict on the other.
fn assert_engine_matches_naive(model: &Model) {
    for bound in [u32::MAX, 1, 0] {
        let mut dom = Domains::new(model);
        let mut eng = Engine::new(model);
        eng.set_bound(bound);
        let mut naive = Domains::new(model);
        let mut ok = eng.propagate_all(model, &mut dom).is_ok();
        let mut step = 0;
        loop {
            let naive_ok = naive_fixpoint(model, &mut naive, bound).is_ok();
            assert_eq!(
                ok, naive_ok,
                "bound {bound}, step {step}: conflict on one side only"
            );
            if !ok {
                break;
            }
            assert_eq!(
                snapshot(model, &dom),
                snapshot(model, &naive),
                "bound {bound}, step {step}: fixpoints differ"
            );
            if !decide(model, &mut dom) {
                break;
            }
            decide(model, &mut naive);
            ok = eng.propagate_dirty(model, &mut dom).is_ok();
            step += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_reaches_the_naive_fixpoint(i in tiny()) {
        assert_engine_matches_naive(&build_tiny(&i));
    }

    #[test]
    fn engine_reaches_the_naive_fixpoint_when_packed(i in packed()) {
        assert_engine_matches_naive(&build_packed(&i));
    }

    #[test]
    fn engine_reaches_the_naive_fixpoint_on_deadlines(i in inst()) {
        assert_engine_matches_naive(&build(&i));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_never_prunes_feasible_placements(i in tiny()) {
        assert_keeps_feasible_placements(&build_tiny(&i));
    }

    /// The same property where the deadlines bind and blocks are pinned, so
    /// mandatory parts abut and the canonical profile merges them (the case
    /// `own_part_merged_with_a_neighbour_is_not_a_conflict` in
    /// `props/cumulative.rs` pins down).
    #[test]
    fn engine_never_prunes_feasible_placements_when_packed(i in packed()) {
        assert_keeps_feasible_placements(&build_packed(&i));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Pinning domains to a greedy (feasible, verified) schedule and
    /// propagating everything never conflicts: no propagator is unsound on
    /// feasible assignments.
    #[test]
    fn propagation_accepts_feasible_placements(i in inst()) {
        let model = build(&i);
        let sol = greedy_edf(&model).expect("greedy succeeds");
        sol.verify(&model).expect("greedy schedules verify");

        let mut dom = Domains::new(&model);
        for t in 0..model.n_tasks() {
            dom.fix_start(TaskRef(t as u32), sol.starts[t]).expect("start in domain");
        }
        let mut eng = Engine::new(&model);
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
}

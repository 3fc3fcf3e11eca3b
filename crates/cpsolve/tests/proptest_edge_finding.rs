//! Property tests for the strong filtering rung: Θ-tree edge-finding and
//! the incremental timetable must never prune a placement that an
//! exhaustive, propagator-free enumeration proves feasible, and turning
//! the filters on or off must not change the optimum the solver proves.

use cpsolve::model::{Model, ModelBuilder, ResRef, SlotKind, TaskRef};
use cpsolve::props::edge_finding::EdgeFinding;
use cpsolve::props::{Ctx, Engine, EngineOptions, Propagator};
use cpsolve::search::{solve, Outcome, SolveParams, Status};
use cpsolve::state::Domains;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Tiny {
    /// (map_cap, reduce_cap) per resource.
    resources: Vec<(u32, u32)>,
    /// (release, map durations, reduce durations) per job.
    jobs: Vec<(i64, Vec<i64>, Vec<i64>)>,
    horizon: i64,
}

/// Small enough for exhaustive placement enumeration (≤ 4 tasks, short
/// horizon) but varied enough to exercise overload, lifting and mirror
/// filtering inside edge-finding.
fn tiny() -> impl Strategy<Value = Tiny> {
    let res = prop::collection::vec((1u32..=2, 1u32..=2), 1..=2);
    let main_job = (
        0i64..=2,
        prop::collection::vec(1i64..=4, 1..=2),
        prop::collection::vec(1i64..=3, 0..=1),
    );
    let extra = (any::<bool>(), 0i64..=2, 1i64..=4);
    (res, main_job, extra, 6i64..=9).prop_map(|(resources, (rel, maps, reds), extra, horizon)| {
        let mut jobs = vec![(rel, maps, reds)];
        let (with_extra, rel2, d) = extra;
        if with_extra {
            jobs.push((rel2, vec![d], vec![]));
        }
        Tiny {
            resources,
            jobs,
            horizon,
        }
    })
}

fn build(i: &Tiny) -> Model {
    let mut b = ModelBuilder::new();
    for &(mc, rc) in &i.resources {
        b.add_resource(mc, rc);
    }
    for (rel, maps, reds) in &i.jobs {
        // Deadline is irrelevant here: with no objective cut the deadline
        // never prunes, so make it loose.
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

/// An instance built to fire the rules, not just survive them: pinned blocks
/// (assigned Θ members from the root), multi-unit requirements, start
/// windows a few ticks wide, and free tasks that are unassigned candidates
/// on two pools — or assigned with a window, when only one pool is wide
/// enough. Root propagation on these sees real detections, candidate drops
/// and the forward-pass-changed-a-domain re-sort, so the propagator's debug
/// cross-checks run on the paths that matter.
#[derive(Debug, Clone)]
struct Packed {
    /// Map capacity of the two resources.
    caps: [u32; 2],
    /// Pinned blocks: (resource, start, dur, req).
    blocks: Vec<(u32, i64, i64, u32)>,
    /// Free tasks, one job each: (release, dur, req, deadline slack).
    free: Vec<(i64, i64, u32, i64)>,
    horizon: i64,
}

fn packed() -> impl Strategy<Value = Packed> {
    let blocks = prop::collection::vec((0u32..2, 0i64..=5, 1i64..=4, 1u32..=2), 0..=2);
    let free = prop::collection::vec((0i64..=4, 1i64..=4, 1u32..=3, 0i64..=3), 2..=4);
    ((1u32..=3, 1u32..=3), blocks, free, 5i64..=8).prop_map(|((c0, c1), blocks, free, horizon)| {
        Packed {
            caps: [c0, c1],
            blocks,
            free,
            horizon,
        }
    })
}

fn build_packed(i: &Packed) -> Model {
    let mut b = ModelBuilder::new();
    for &c in &i.caps {
        b.add_resource(c, 0);
    }
    let widest = i.caps[0].max(i.caps[1]);
    for &(r, start, dur, req) in &i.blocks {
        let pinned = b.add_job(0, 1000);
        let t = b.add_task(pinned, SlotKind::Map, dur, req.min(i.caps[r as usize]));
        b.fix_task(t, ResRef(r), start);
    }
    for &(rel, dur, req, slack) in &i.free {
        let j = b.add_job(rel, rel + dur + slack);
        b.add_task(j, SlotKind::Map, dur, req.min(widest));
    }
    b.set_horizon(i.horizon);
    b.build().expect("well-formed")
}

/// The shape of a manager round (paper Table 2: every started task is a
/// constraint, the rest is re-solved) on the §V.D combined single-pool
/// model, where every task is assigned from the root: a pinned backlog laid
/// out in two lanes, free tasks whose windows run to the horizon, and a few
/// tasks with deadlines tight enough to be late. The pinned tasks — and the
/// ones each LNS iteration freezes at the incumbent — are the fixed majority
/// that lets edge-finding's dominance certificate fire; the tight ones keep
/// other passes uncertified, so one search exercises both sides.
#[derive(Debug, Clone)]
struct Backlog {
    cap: u32,
    /// Pinned tasks, alternating lanes, back to back: (dur, req share).
    pinned: Vec<(i64, u32)>,
    /// Free tasks with loose deadlines: (dur, req).
    free: Vec<(i64, u32)>,
    /// Deadline-tightened tasks: (release, dur, req, slack).
    tight: Vec<(i64, i64, u32, i64)>,
}

fn backlog() -> impl Strategy<Value = Backlog> {
    let pinned = prop::collection::vec((1i64..=6, 1u32..=8), 2..=8);
    let free = prop::collection::vec((1i64..=6, 1u32..=4), 2..=6);
    let tight = prop::collection::vec((0i64..=10, 2i64..=6, 1u32..=8, 0i64..=4), 2..=6);
    (4u32..=16, pinned, free, tight).prop_map(|(cap, pinned, free, tight)| Backlog {
        cap,
        pinned,
        free,
        tight,
    })
}

fn build_backlog(i: &Backlog) -> Model {
    let mut b = ModelBuilder::new();
    let r = b.add_resource(i.cap, 0);
    // Two lanes of half the pool each, so the pins never overload it.
    let lane_cap = i.cap / 2;
    let mut cursor = [0i64; 2];
    let started = b.add_job(0, 1000);
    for (k, &(dur, req)) in i.pinned.iter().enumerate() {
        let t = b.add_task(started, SlotKind::Map, dur, req.min(lane_cap));
        b.fix_task(t, r, cursor[k % 2]);
        cursor[k % 2] += dur;
    }
    for &(dur, req) in &i.free {
        let j = b.add_job(0, 1000);
        b.add_task(j, SlotKind::Map, dur, req.min(i.cap));
    }
    for &(rel, dur, req, slack) in &i.tight {
        let j = b.add_job(rel, rel + dur + slack);
        b.add_task(j, SlotKind::Map, dur, req.min(i.cap));
    }
    b.set_horizon(120);
    b.build().expect("well-formed")
}

/// Exhaustively enumerate every complete `(resource, start)` placement that
/// satisfies release times, the map→reduce barrier, the horizon and the
/// slot capacities — sharing no code with the propagators — and record each
/// task's feasible starts and resources.
fn enumerate_feasible(model: &Model) -> (Vec<Vec<i64>>, Vec<Vec<bool>>) {
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
    let mut feas_res: Vec<Vec<bool>> = vec![vec![false; nr]; n];

    fn kind_idx(k: SlotKind) -> usize {
        match k {
            SlotKind::Map => 0,
            SlotKind::Reduce => 1,
        }
    }

    /// Returns the number of complete feasible placements in this subtree.
    #[allow(clippy::too_many_arguments)]
    fn rec(
        model: &Model,
        order: &[TaskRef],
        pos: usize,
        usage: &mut [[Vec<i64>; 2]],
        starts: &mut [i64],
        feas_starts: &mut [Vec<i64>],
        feas_res: &mut [Vec<bool>],
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
                let below = rec(model, order, pos + 1, usage, starts, feas_starts, feas_res);
                if below > 0 {
                    feas_res[t.idx()][r] = true;
                    found += below;
                }
                for u in range {
                    usage[r][k][u] -= spec.req as i64;
                }
            }
        }
        found
    }

    rec(
        model,
        &order,
        0,
        &mut usage,
        &mut starts,
        &mut feas_starts,
        &mut feas_res,
    );
    (feas_starts, feas_res)
}

/// Whatever `propagate` narrows (it returns false on a conflict), every
/// start and every resource that participates in at least one complete
/// feasible placement must survive: filters only remove provably infeasible
/// values.
fn assert_keeps_feasible_placements(
    model: &Model,
    propagate: impl FnOnce(&Model, &mut Domains) -> bool,
) {
    let (feas_starts, feas_res) = enumerate_feasible(model);
    let mut dom = Domains::new(model);
    let ok = propagate(model, &mut dom);

    let any_feasible = feas_starts.iter().any(|f| !f.is_empty());
    if !any_feasible {
        // Nothing to protect; a root conflict is allowed (and good).
        return;
    }
    assert!(ok, "root conflict on a feasible instance");
    for t in 0..model.n_tasks() {
        let tr = TaskRef(t as u32);
        for &s in &feas_starts[t] {
            assert!(
                dom.lb(tr) <= s && s <= dom.ub(tr),
                "task {t}: feasible start {s} pruned to [{}, {}]",
                dom.lb(tr),
                dom.ub(tr)
            );
        }
        for (r, &feas) in feas_res[t].iter().enumerate() {
            if feas {
                assert!(
                    dom.mask(tr) & (1u128 << r) != 0,
                    "task {t}: feasible resource {r} removed"
                );
            }
        }
    }
}

/// Root propagation of the whole engine, edge-finding and timetable on.
fn engine_root(model: &Model, dom: &mut Domains) -> bool {
    let mut eng = Engine::with_options(
        model,
        EngineOptions {
            edge_finding: true,
            ..EngineOptions::default()
        },
    );
    eng.propagate_all(model, dom).is_ok()
}

/// The one thing edge-finding takes from the timetable (its dominance
/// certificate skips a pass the timetable has already decided), supplied by
/// brute force so that `edge_finding_alone` still shares no code with
/// `Cumulative`: tasks with a fixed start on `r` are facts, and every other
/// task assigned to `r` starts no earlier and no later than the first and
/// last start at which it fits beside them at every instant. False when the
/// fixed tasks overload the pool or a window empties.
fn fit_beside_fixed(model: &Model, dom: &mut Domains, r: ResRef) -> bool {
    fn fits(model: &Model, dom: &Domains, on_pool: &[TaskRef], t: TaskRef, s: i64) -> bool {
        let r = dom.assigned(t).expect("on_pool holds assigned tasks");
        let cap = model.resources[r.idx()].cap(SlotKind::Map) as i64;
        (s..s + model.tasks[t.idx()].dur).all(|u| {
            let load: i64 = on_pool
                .iter()
                .filter(|&&o| o != t && dom.lb(o) == dom.ub(o))
                .filter(|&&o| dom.lb(o) <= u && u < dom.lb(o) + model.tasks[o.idx()].dur)
                .map(|&o| model.tasks[o.idx()].req as i64)
                .sum();
            load + model.tasks[t.idx()].req as i64 <= cap
        })
    }
    let on_pool: Vec<TaskRef> = (0..model.n_tasks())
        .map(|t| TaskRef(t as u32))
        .filter(|&t| dom.assigned(t) == Some(r))
        .collect();
    for &t in &on_pool {
        let window = dom.lb(t)..=dom.ub(t);
        let first = window.clone().find(|&s| fits(model, dom, &on_pool, t, s));
        let last = window.rev().find(|&s| fits(model, dom, &on_pool, t, s));
        let (Some(first), Some(last)) = (first, last) else {
            return false;
        };
        if dom.set_lb(t, first).is_err() || dom.set_ub(t, last).is_err() {
            return false;
        }
    }
    true
}

/// Every deadline made a hard window (what the objective cut does at bound
/// 0), then the edge-finders of all pools run to their own fixpoint with no
/// other propagator in the loop: the timetable would otherwise get to most
/// of these prunings first, and any unsound one is edge-finding's alone
/// (`fit_beside_fixed` stands in for the part of it edge-finding assumes).
fn edge_finding_alone(model: &Model, dom: &mut Domains) -> bool {
    for (t, spec) in model.tasks.iter().enumerate() {
        let latest = model.jobs[spec.job.idx()].deadline - spec.dur;
        if spec.fixed.is_none() && dom.set_ub(TaskRef(t as u32), latest).is_err() {
            return false;
        }
    }
    let mut pools: Vec<(ResRef, EdgeFinding)> = (0..model.n_resources())
        .map(|r| ResRef(r as u32))
        .filter_map(|r| Some((r, EdgeFinding::new(model, r, SlotKind::Map)?)))
        .collect();
    loop {
        dom.clear_dirty();
        for (r, pool) in &mut pools {
            if !fit_beside_fixed(model, dom, *r) {
                return false;
            }
            let mut ctx = Ctx {
                model,
                dom: &mut *dom,
                bound: u32::MAX,
            };
            if pool.propagate(&mut ctx).is_err() {
                return false;
            }
        }
        if dom.dirty_is_empty() {
            return true;
        }
    }
}

/// The same search with edge-finding on and off, every pop admitted (no
/// yield-ledger demotion), under a budget these instances never exhaust.
fn solve_on_and_off(model: &Model) -> (Outcome, Outcome) {
    let budget = SolveParams {
        node_limit: 200_000,
        fail_limit: 200_000,
        prop_scheduling: false,
        ..Default::default()
    };
    let on = SolveParams {
        edge_finding: true,
        ..budget.clone()
    };
    let off = SolveParams {
        edge_finding: false,
        ..budget
    };
    (solve(model, &on), solve(model, &off))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn strong_filters_never_prune_feasible_placements(i in tiny()) {
        assert_keeps_feasible_placements(&build(&i), engine_root);
    }

    /// The same soundness property for edge-finding on its own, on
    /// instances where its rules fire.
    #[test]
    fn edge_finding_alone_never_prunes_feasible_placements(i in packed()) {
        assert_keeps_feasible_placements(&build_packed(&i), edge_finding_alone);
    }

    /// The optimum the solver proves is identical with the strong filters
    /// enabled and disabled — filtering changes effort, never answers.
    #[test]
    fn filters_preserve_the_proven_optimum(i in tiny()) {
        let model = build(&i);
        let budget = SolveParams {
            node_limit: 200_000,
            fail_limit: 200_000,
            ..Default::default()
        };
        let on = solve(&model, &SolveParams {
            edge_finding: true,
            ..budget.clone()
        });
        let off = solve(&model, &SolveParams {
            edge_finding: false,
            ..budget
        });
        prop_assert_eq!(on.status, Status::Optimal);
        prop_assert_eq!(off.status, Status::Optimal);
        let a = on.best.expect("optimal implies incumbent").objective;
        let b = off.best.expect("optimal implies incumbent").objective;
        prop_assert_eq!(a, b, "filters changed the proven optimum");
    }

    /// Packed instances carry tight deadlines, so branch and bound is real
    /// and edge-finding runs (cross-checked, in debug) on every partial
    /// assignment the search visits; contradictory pins make some of them
    /// infeasible, which both configurations must agree on.
    #[test]
    fn filters_preserve_the_verdict_when_packed(i in packed()) {
        let (on, off) = solve_on_and_off(&build_packed(&i));
        prop_assert!(matches!(on.status, Status::Optimal | Status::Infeasible));
        prop_assert_eq!(on.status, off.status);
        prop_assert_eq!(
            on.best.map(|s| s.objective),
            off.best.map(|s| s.objective),
            "filters changed the proven optimum"
        );
    }

    /// Manager-round shapes through the whole engine, LNS and B&B: a
    /// certified pass returns without sorting, so if the certificate ever
    /// skipped an inference that mattered the two searches would part ways
    /// — and in debug builds every certified pass is also run the long way
    /// and asserted barren.
    #[test]
    fn certified_passes_preserve_the_verdict_on_backlogs(i in backlog()) {
        let (on, off) = solve_on_and_off(&build_backlog(&i));
        prop_assert!(matches!(on.status, Status::Optimal | Status::Infeasible));
        prop_assert_eq!(on.status, off.status);
        prop_assert_eq!(
            on.best.map(|s| s.objective),
            off.best.map(|s| s.objective),
            "the certificate changed the proven optimum"
        );
    }
}

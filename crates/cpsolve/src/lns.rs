//! Large neighborhood search over the incumbent schedule.
//!
//! LNS is the standard industrial rung for anytime scheduling of this
//! shape: keep the incumbent, *freeze* every task outside a relaxation
//! window, and re-solve only the window with the full propagator stack
//! under a small node budget. Accepted improvements become the new
//! incumbent; the window rotates over the late jobs and their
//! temporal/resource neighbors, so each iteration attacks a different
//! part of the schedule. Because every restricted re-solve starts from a
//! feasible incumbent and only strict objective improvements are
//! accepted, the phase can never worsen the result, and the unrestricted
//! branch-and-bound that follows it keeps the optimality/infeasibility
//! proofs exactly as before.
//!
//! Neighborhood selection is seeded (`splitmix64`) and purely
//! count-driven, so a given `(model, params)` pair walks the same
//! neighborhoods on every machine — the determinism anchors (federation
//! `cells=1` bit-exactness, chaos-off bit-identity, crash-recovery
//! signatures) rely on this.

use crate::model::{JobRef, Model, ResRef, TaskRef};
use crate::search::{solve_restricted, SharedSearch, SolveParams, SolveStats, Status};
use crate::solution::Solution;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Large-neighborhood-search phase configuration (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LnsParams {
    /// Run the LNS phase before the unrestricted branch-and-bound.
    pub enabled: bool,
    /// Fraction of the node/fail/time budgets the phase may consume
    /// (`1.0` = pure LNS: the B&B phase only runs if nodes remain).
    pub budget_frac: f64,
    /// Node budget per restricted re-solve.
    pub iter_nodes: u64,
    /// Stop after this many consecutive non-improving iterations.
    pub no_improve_cap: u32,
    /// Relaxation window size as a fraction of the job count.
    pub window_frac: f64,
    /// Minimum window size in jobs.
    pub min_window_jobs: usize,
    /// Neighborhood selection seed (portfolio workers diversify this).
    pub seed: u64,
}

impl Default for LnsParams {
    fn default() -> Self {
        LnsParams {
            enabled: true,
            budget_frac: 0.4,
            iter_nodes: 600,
            no_improve_cap: 8,
            window_frac: 0.3,
            min_window_jobs: 4,
            seed: 0,
        }
    }
}

impl LnsParams {
    /// A pure-LNS configuration (no budget held back for the B&B phase)
    /// with a distinct neighborhood seed — the portfolio's diversification
    /// axis.
    pub fn pure(seed: u64) -> Self {
        LnsParams {
            budget_frac: 1.0,
            seed,
            ..LnsParams::default()
        }
    }
}

/// Deterministic 64-bit mixer (splitmix64 finalizer) used for seeded
/// neighborhood rotation and tie-breaking.
#[inline]
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-job view of the incumbent used for neighbor scoring.
struct JobView {
    /// Earliest task start in the incumbent.
    lo: i64,
    /// Latest task end in the incumbent.
    hi: i64,
    /// Resources the job's tasks occupy (bitmask over [`ResRef`]).
    res_mask: u128,
}

fn job_views(model: &Model, sol: &Solution) -> Vec<JobView> {
    (0..model.n_jobs())
        .map(|j| {
            let mut lo = i64::MAX;
            let mut hi = i64::MIN;
            let mut res_mask = 0u128;
            for t in model.tasks_of(JobRef(j as u32)) {
                lo = lo.min(sol.starts[t.idx()]);
                hi = hi.max(sol.end(model, t));
                res_mask |= 1u128 << sol.resource[t.idx()].idx();
            }
            JobView { lo, hi, res_mask }
        })
        .collect()
}

/// Run the LNS phase: iteratively re-solve relaxation windows of `best`,
/// accepting strict improvements. Accumulates all restricted-search effort
/// into `stats` (so the caller's budgets see it) and publishes improvements
/// to `shared`. Returns early on target reached, budget exhaustion,
/// cooperative cancellation, or `no_improve_cap` consecutive dry windows.
#[allow(clippy::too_many_arguments)]
pub(crate) fn improve(
    model: &Model,
    params: &SolveParams,
    shared: Option<&SharedSearch>,
    best: &mut Solution,
    stats: &mut SolveStats,
    t0: Instant,
    target: u32,
) {
    let cfg = params.lns;
    let n_jobs = model.n_jobs();
    if n_jobs == 0 || best.objective <= target {
        return;
    }
    let node_budget = frac_of(params.node_limit, cfg.budget_frac);
    let fail_budget = frac_of(params.fail_limit, cfg.budget_frac);
    let time_slice = params
        .time_limit
        .map(|tl| tl.mul_f64(cfg.budget_frac.clamp(0.0, 1.0)));

    let wsize = ((n_jobs as f64 * cfg.window_frac).ceil() as usize)
        .max(cfg.min_window_jobs)
        .min(n_jobs);

    let mut views = job_views(model, best);
    let mut no_improve = 0u32;
    let mut iter = 0u64;
    // Scratch reused across iterations.
    let mut in_window = vec![false; n_jobs];
    let mut ranked: Vec<(u64, usize)> = Vec::with_capacity(n_jobs);
    let mut fixes: Vec<(TaskRef, ResRef, i64)> = Vec::with_capacity(model.n_tasks());

    loop {
        if best.objective <= target || no_improve >= cfg.no_improve_cap {
            break;
        }
        if stats.nodes >= node_budget || stats.fails >= fail_budget {
            break;
        }
        if time_slice.is_some_and(|tl| t0.elapsed() >= tl) {
            break;
        }
        if shared.is_some_and(|sh| sh.cancel.load(Ordering::Relaxed)) {
            break;
        }
        let late: Vec<usize> = (0..n_jobs).filter(|&j| best.late[j]).collect();
        if late.is_empty() {
            break; // nothing left to repair
        }

        // Focus: rotate over the late jobs, seeded per iteration.
        let r = splitmix64(cfg.seed ^ iter.wrapping_mul(0x9e37_79b9));
        let focus = late[(r % late.len() as u64) as usize];

        // Rank the other jobs by affinity to the focus job in the
        // incumbent: other late jobs first, then resource-sharing
        // temporal neighbors, then plain temporal neighbors, then the
        // rest; seeded jitter breaks ties so repeat visits to the same
        // focus still explore different windows.
        let fv = &views[focus];
        ranked.clear();
        for (j, v) in views.iter().enumerate() {
            if j == focus {
                continue;
            }
            let overlaps = v.lo < fv.hi && fv.lo < v.hi;
            let shares = v.res_mask & fv.res_mask != 0;
            let score: u64 = if best.late[j] {
                3
            } else if overlaps && shares {
                2
            } else if overlaps || shares {
                1
            } else {
                0
            };
            let jitter = splitmix64(r ^ (j as u64).wrapping_mul(0xd134_2543_de82_ef95));
            // Sort key: higher score first, then jitter (ascending).
            ranked.push(((3 - score) << 61 | (jitter >> 3), j));
        }
        ranked.sort_unstable();
        in_window.iter_mut().for_each(|b| *b = false);
        in_window[focus] = true;
        for &(_, j) in ranked.iter().take(wsize.saturating_sub(1)) {
            in_window[j] = true;
        }

        // Freeze everything outside the window at the incumbent placement.
        fixes.clear();
        for (j, &inside) in in_window.iter().enumerate() {
            if inside {
                continue;
            }
            for t in model.tasks_of(JobRef(j as u32)) {
                fixes.push((t, best.resource[t.idx()], best.starts[t.idx()]));
            }
        }

        // Restricted re-solve from the incumbent with the remaining budget.
        let remaining_nodes = node_budget.saturating_sub(stats.nodes).max(1);
        let sub = SolveParams {
            node_limit: cfg.iter_nodes.min(remaining_nodes),
            fail_limit: cfg.iter_nodes,
            time_limit: time_slice.map(|tl| tl.saturating_sub(t0.elapsed())),
            warm_start: false,
            initial: Some(best.clone()),
            target: Some(target),
            restarts: None,
            lns: LnsParams {
                enabled: false,
                ..cfg
            },
            ..params.clone()
        };
        let out = solve_restricted(model, &sub, &fixes, shared);
        iter += 1;
        stats.lns_iters += 1;
        stats.merge(&out.stats);

        let improved = out
            .best
            .as_ref()
            .is_some_and(|s| s.objective < best.objective);
        if improved {
            *best = out.best.unwrap();
            stats.lns_improves += 1;
            no_improve = 0;
            if let Some(sh) = shared {
                sh.publish(best.objective);
            }
            views = job_views(model, best);
        } else {
            no_improve += 1;
            if out.status == Status::Unknown && out.best.is_none() && iter == 1 {
                // Defensive: a restricted solve that cannot even replay the
                // incumbent (should be impossible) ends the phase.
                break;
            }
        }
    }
}

/// `frac` of a budget, treating `u64::MAX` as unlimited.
fn frac_of(v: u64, frac: f64) -> u64 {
    if v == u64::MAX || frac >= 1.0 {
        v
    } else {
        ((v as f64 * frac) as u64).max(1)
    }
}

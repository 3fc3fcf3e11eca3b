//! LP-based closed-system scheduler — the comparator of the paper's
//! preliminary work.
//!
//! The paper's introduction (§I) motivates CP by a preliminary comparison
//! against a **linear programming** formulation (reference \[12\]), itself in
//! the style of Chang et al. \[18\]: a time-indexed *malleable* relaxation
//! where each job's map and reduce phases are fluid amounts of work poured
//! into discrete time slots:
//!
//! * `m[j,s]`, `r[j,s]` — seconds of job `j`'s map/reduce work executed in
//!   slot `s` (only slots starting at/after `s_j` exist for `j`),
//! * work conservation: each phase's slot amounts sum to the phase's work,
//! * capacity: per-slot totals bounded by `slots × Δ` for each pool,
//! * parallelism: a job cannot use more slots than it has tasks,
//! * phase coupling: reduce progress through slot `s` cannot exceed map
//!   *completion* fraction before `s` (the barrier's fluid relaxation),
//! * objective: minimize work-weighted mean completion time.
//!
//! Deadlines are evaluated *post hoc* on the fluid schedule (the LP cannot
//! count late jobs linearly — that needs the very integer/logical structure
//! CP provides, which is the paper's point). The fluid relaxation is
//! *optimistic*: real task granularity can only finish later, so when even
//! this LP misses a deadline the job is certainly late.
#![allow(clippy::needless_range_loop)] // slot loops index several parallel Vecs

use desim::SimTime;
use lpsolve::{solve, solve_milp, Cmp, MilpOutcome, MilpProblem, Outcome, Problem, VarId};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use workload::{Job, JobId};

/// Result of one LP scheduling solve.
#[derive(Debug, Clone)]
pub struct LpSchedule {
    /// Fluid completion time per job (end of its last active slot).
    pub completions: HashMap<JobId, SimTime>,
    /// Jobs whose fluid completion exceeds their deadline.
    pub late_jobs: Vec<JobId>,
    /// LP objective value (work-weighted mean completion, seconds).
    pub objective: f64,
    /// Simplex pivots (the LP's cost driver).
    pub pivots: u64,
    /// Decision variables in the LP.
    pub n_vars: usize,
    /// Constraint rows in the LP.
    pub n_rows: usize,
    /// Wall-clock build + solve time.
    pub solve_time: Duration,
}

/// The time-indexed fluid LP both entry points solve, with the handles
/// they read the solution through.
struct FluidLp {
    p: Problem,
    /// `m[j][s]` / `r[j][s]`: `None` when the slot precedes the release (or
    /// the job has no such phase).
    m_vars: Vec<Vec<Option<VarId>>>,
    r_vars: Vec<Vec<Option<VarId>>>,
    /// One lateness indicator `N_j` per job; empty without a `late_weight`.
    late_vars: Vec<VarId>,
    /// The slot grid: slot `s` spans `t_start + [s, s + 1) · delta` seconds.
    t_start: f64,
    delta: f64,
}

fn work_secs(tasks: &[workload::Task]) -> f64 {
    tasks.iter().map(|t| t.exec_time.as_secs_f64()).sum()
}

/// Build the fluid LP over a nonempty `jobs`. With `late_weight` each job
/// also gets an indicator `N_j` (objective `-late_weight`, to be declared
/// binary by the caller) and the row that lets its work run past `d_j`
/// only when `N_j = 1`.
fn build_fluid_lp(
    map_slots: u32,
    reduce_slots: u32,
    jobs: &[Job],
    n_slots: usize,
    late_weight: Option<f64>,
) -> Result<FluidLp, String> {
    let releases = || jobs.iter().map(|j| j.earliest_start.as_secs_f64());
    let t_start = releases().fold(f64::INFINITY, f64::min);
    let max_release = releases().fold(f64::NEG_INFINITY, f64::max);
    let map_work: f64 = jobs.iter().map(|j| work_secs(&j.map_tasks)).sum();
    let red_work: f64 = jobs.iter().map(|j| work_secs(&j.reduce_tasks)).sum();
    // Horizon: everything serialized per pool after the latest release —
    // always sufficient for the fluid relaxation — AND each job's own
    // parallelism-limited span (a 1-task phase cannot go faster than its
    // task even on a large cluster — the per-job slot caps encode that, so
    // the horizon must leave room for it).
    let per_job_span = jobs
        .iter()
        .map(|j| {
            let m_par = (j.map_tasks.len() as f64).min(map_slots as f64).max(1.0);
            let r_par = (j.reduce_tasks.len() as f64)
                .min(reduce_slots as f64)
                .max(1.0);
            j.earliest_start.as_secs_f64()
                + work_secs(&j.map_tasks) / m_par
                + work_secs(&j.reduce_tasks) / r_par
        })
        .fold(0.0, f64::max);
    let serial = max_release
        + map_work / map_slots as f64
        + if reduce_slots > 0 {
            red_work / reduce_slots as f64
        } else {
            0.0
        };
    // Discretization slack: release rounding (< Δ), the barrier's dead
    // half-slot, and end-of-phase rounding each cost up to a slot per job
    // chain — inflate by a few slots' worth so the fluid optimum always
    // fits the grid.
    let horizon = (serial.max(per_job_span) + 1.0) * (1.0 + 4.0 / n_slots as f64);
    let delta = (horizon - t_start) / n_slots as f64;
    let slot_start = |s: usize| t_start + s as f64 * delta;
    let slot_end = |s: usize| t_start + (s + 1) as f64 * delta;

    // All work amounts are expressed in Δ units (a variable value of 1.0 =
    // one full slot of one slot's capacity) — this keeps every matrix
    // coefficient within a few orders of magnitude of 1 and the simplex
    // well-conditioned.
    let mut p = Problem::new();
    let mut m_vars: Vec<Vec<Option<VarId>>> = Vec::with_capacity(jobs.len());
    let mut r_vars: Vec<Vec<Option<VarId>>> = Vec::with_capacity(jobs.len());

    // Objective: minimize Σ_j Σ_s mid(s) · (m+r)/(total work of j)
    // → maximize the negation. Weighting by 1/work makes every job count
    // equally (mean completion proxy).
    for j in jobs {
        let total: f64 = j.total_work().as_secs_f64() / delta;
        let weight = -1.0 / total.max(1e-9);
        let mut mj = Vec::with_capacity(n_slots);
        let mut rj = Vec::with_capacity(n_slots);
        for s in 0..n_slots {
            let usable = slot_start(s) >= j.earliest_start.as_secs_f64() - 1e-9;
            // Objective coefficient: slot midpoint in slot units (absolute
            // offset drops out of the argmin; small numbers condition the
            // tableau better).
            let mid_slots = s as f64 + 0.5;
            mj.push(if usable && !j.map_tasks.is_empty() {
                Some(p.add_var(weight * mid_slots))
            } else {
                None
            });
            rj.push(if usable && !j.reduce_tasks.is_empty() {
                Some(p.add_var(weight * mid_slots))
            } else {
                None
            });
        }
        m_vars.push(mj);
        r_vars.push(rj);
    }
    // Lateness indicators (objective: minimize → negative weight).
    let late_vars: Vec<VarId> = match late_weight {
        Some(w) => jobs.iter().map(|_| p.add_var(-w)).collect(),
        None => Vec::new(),
    };

    // Work conservation + parallelism caps + phase coupling.
    for (ji, j) in jobs.iter().enumerate() {
        let m_j = work_secs(&j.map_tasks);
        let r_j = work_secs(&j.reduce_tasks);
        if m_j > 0.0 {
            let terms: Vec<_> = m_vars[ji].iter().flatten().map(|&v| (v, 1.0)).collect();
            if terms.is_empty() {
                return Err(format!("{}: no usable slot for map work", j.id));
            }
            p.add_constraint(terms, Cmp::Eq, m_j / delta);
            let cap = (j.map_tasks.len() as f64).min(map_slots as f64);
            for v in m_vars[ji].iter().flatten() {
                p.bound(*v, cap);
            }
        }
        if r_j > 0.0 {
            let terms: Vec<_> = r_vars[ji].iter().flatten().map(|&v| (v, 1.0)).collect();
            if terms.is_empty() {
                return Err(format!("{}: no usable slot for reduce work", j.id));
            }
            p.add_constraint(terms, Cmp::Eq, r_j / delta);
            let cap = (j.reduce_tasks.len() as f64).min(reduce_slots as f64);
            for v in r_vars[ji].iter().flatten() {
                p.bound(*v, cap);
            }
        }
        // Fluid barrier: reduce fraction through slot s ≤ map fraction
        // strictly before slot s.
        if m_j > 0.0 && r_j > 0.0 {
            for s in 0..n_slots {
                let mut terms: Vec<(VarId, f64)> = Vec::new();
                for s2 in 0..=s {
                    if let Some(v) = r_vars[ji][s2] {
                        terms.push((v, delta / r_j));
                    }
                }
                for s2 in 0..s {
                    if let Some(v) = m_vars[ji][s2] {
                        terms.push((v, -delta / m_j));
                    }
                }
                if !terms.is_empty() {
                    p.add_constraint(terms, Cmp::Le, 0.0);
                }
            }
        }
        // Lateness linking: work in slots ending after the deadline is
        // permitted only when N_j = 1 (BigM = the job's total work).
        if let Some(&n_j) = late_vars.get(ji) {
            let total_units = j.total_work().as_secs_f64() / delta;
            let mut late_terms: Vec<(VarId, f64)> = Vec::new();
            for s in 0..n_slots {
                if slot_end(s) > j.deadline.as_secs_f64() + 1e-9 {
                    late_terms.extend(m_vars[ji][s].map(|v| (v, 1.0)));
                    late_terms.extend(r_vars[ji][s].map(|v| (v, 1.0)));
                }
            }
            if !late_terms.is_empty() {
                late_terms.push((n_j, -total_units));
                p.add_constraint(late_terms, Cmp::Le, 0.0);
            }
        }
    }

    // Pool capacities per slot.
    for s in 0..n_slots {
        let m_terms: Vec<_> = m_vars
            .iter()
            .filter_map(|mj| mj[s])
            .map(|v| (v, 1.0))
            .collect();
        if !m_terms.is_empty() {
            p.add_constraint(m_terms, Cmp::Le, map_slots as f64);
        }
        let r_terms: Vec<_> = r_vars
            .iter()
            .filter_map(|rj| rj[s])
            .map(|v| (v, 1.0))
            .collect();
        if !r_terms.is_empty() {
            p.add_constraint(r_terms, Cmp::Le, reduce_slots as f64);
        }
    }

    Ok(FluidLp {
        p,
        m_vars,
        r_vars,
        late_vars,
        t_start,
        delta,
    })
}

/// Schedule `jobs` (all known up front — closed system) on a cluster with
/// the given slot totals, discretizing time into `n_slots` slots.
pub fn lp_schedule_closed(
    map_slots: u32,
    reduce_slots: u32,
    jobs: &[Job],
    n_slots: usize,
) -> Result<LpSchedule, String> {
    if jobs.is_empty() {
        return Ok(LpSchedule {
            completions: HashMap::new(),
            late_jobs: Vec::new(),
            objective: 0.0,
            pivots: 0,
            n_vars: 0,
            n_rows: 0,
            solve_time: Duration::ZERO,
        });
    }
    if map_slots == 0 {
        return Err("cluster has no map slots".into());
    }
    assert!(n_slots >= 1);
    let t0 = Instant::now();

    let FluidLp {
        p,
        m_vars,
        r_vars,
        t_start,
        delta,
        ..
    } = build_fluid_lp(map_slots, reduce_slots, jobs, n_slots, None)?;
    let n_vars = p.n_vars();
    let n_rows = p.n_rows();
    let solution = match solve(&p) {
        Outcome::Optimal(s) => s,
        other => return Err(format!("LP solve failed: {other:?}")),
    };

    // Extract fluid completions.
    let mut completions = HashMap::new();
    let mut late_jobs = Vec::new();
    for (ji, j) in jobs.iter().enumerate() {
        let mut last = j.earliest_start.as_secs_f64();
        for s in 0..n_slots {
            let active = m_vars[ji][s]
                .map(|v| solution.x[v.0] * delta > 1e-3)
                .unwrap_or(false)
                || r_vars[ji][s]
                    .map(|v| solution.x[v.0] * delta > 1e-3)
                    .unwrap_or(false);
            if active {
                last = t_start + (s + 1) as f64 * delta;
            }
        }
        let completion = SimTime::from_secs_f64(last);
        if completion > j.deadline {
            late_jobs.push(j.id);
        }
        completions.insert(j.id, completion);
    }
    late_jobs.sort_unstable();

    Ok(LpSchedule {
        completions,
        late_jobs,
        objective: -solution.objective * delta + t_start,
        pivots: solution.pivots,
        n_vars,
        n_rows,
        solve_time: t0.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimTime;
    use workload::{Task, TaskId, TaskKind};

    fn job(id: u32, s: i64, d: i64, maps: &[i64], reduces: &[i64]) -> Job {
        let mut t = id * 100;
        let mut mk = |kind, secs: i64| {
            t += 1;
            Task {
                id: TaskId(t),
                job: JobId(id),
                kind,
                exec_time: SimTime::from_secs(secs),
                req: 1,
            }
        };
        Job {
            id: JobId(id),
            arrival: SimTime::from_secs(s),
            earliest_start: SimTime::from_secs(s),
            deadline: SimTime::from_secs(d),
            map_tasks: maps.iter().map(|&x| mk(TaskKind::Map, x)).collect(),
            reduce_tasks: reduces.iter().map(|&x| mk(TaskKind::Reduce, x)).collect(),
            precedences: vec![],
        }
    }

    #[test]
    fn single_job_completes_near_lower_bound() {
        // 4 maps × 10s on 2 slots: fluid finish = 20s.
        let jobs = vec![job(0, 0, 100, &[10, 10, 10, 10], &[])];
        let s = lp_schedule_closed(2, 1, &jobs, 10).unwrap();
        let c = s.completions[&JobId(0)].as_secs_f64();
        assert!(c >= 20.0 - 1e-6, "cannot beat the fluid bound, got {c}");
        assert!(
            c <= 20.0 + 6.0,
            "should finish within a slot of the bound, got {c}"
        );
        assert!(s.late_jobs.is_empty());
        assert!(s.n_vars > 0 && s.n_rows > 0);
    }

    #[test]
    fn fluid_barrier_couples_phases() {
        // The fluid relaxation lets reduce work *pipeline* behind map
        // progress (reduce cumulative ≤ map fraction), so a 10s map + 10s
        // reduce job finishes well before the strict-barrier 20s — but the
        // reduce can never outrun the map: completion strictly exceeds the
        // pure-map span. This optimism is exactly why the paper needed CP's
        // logical constraints instead of an LP (§I).
        let jobs = vec![job(0, 0, 100, &[10], &[10])];
        let s = lp_schedule_closed(1, 1, &jobs, 20).unwrap();
        let c = s.completions[&JobId(0)].as_secs_f64();
        assert!(c > 10.0, "reduce cannot finish with the maps, got {c}");
        // And the pipelined finish is far below the strict barrier's 20s.
        assert!(c <= 20.0 + 1e-6, "fluid is a relaxation, got {c}");
    }

    #[test]
    fn impossible_deadline_is_late_even_fluidly() {
        let jobs = vec![job(0, 0, 5, &[10], &[])];
        let s = lp_schedule_closed(4, 4, &jobs, 10).unwrap();
        assert_eq!(s.late_jobs, vec![JobId(0)]);
    }

    #[test]
    fn releases_are_respected() {
        let jobs = vec![job(0, 50, 200, &[10], &[])];
        let s = lp_schedule_closed(2, 2, &jobs, 10).unwrap();
        assert!(s.completions[&JobId(0)] >= SimTime::from_secs(60));
    }

    #[test]
    fn contention_shares_capacity() {
        // Two jobs, each 20s of map work, 1 slot: total 40s of work → the
        // later completion is ≥ 40s fluidly.
        let jobs = vec![
            job(0, 0, 1000, &[10, 10], &[]),
            job(1, 0, 1000, &[10, 10], &[]),
        ];
        let s = lp_schedule_closed(1, 1, &jobs, 12).unwrap();
        let worst = s
            .completions
            .values()
            .map(|c| c.as_secs_f64())
            .fold(0.0, f64::max);
        assert!(worst >= 40.0 - 1e-6, "got {worst}");
    }

    #[test]
    fn empty_batch_is_trivial() {
        let s = lp_schedule_closed(2, 2, &[], 10).unwrap();
        assert_eq!(s.n_vars, 0);
        assert!(s.late_jobs.is_empty());
    }
}

/// Result of the deadline-aware MILP variant.
#[derive(Debug, Clone)]
pub struct MilpSchedule {
    /// Exact late-job count from the binary `N_j` variables.
    pub late: u32,
    /// Whether branch-and-bound proved optimality within its node budget.
    pub proven_optimal: bool,
    /// Decision variables (continuous + binary).
    pub n_vars: usize,
    /// Constraint rows.
    pub n_rows: usize,
    /// Wall-clock build + solve time.
    pub solve_time: std::time::Duration,
}

/// The deadline-aware MILP of the preliminary-work comparison: the fluid
/// LP of [`lp_schedule_closed`] plus one binary `N_j` per job linking
/// "work placed in slots ending after `d_j`" to lateness, minimizing
/// `Σ N_j` (with a small completion-time tiebreak). This is the late-job
/// objective an LP alone cannot express — and the node-by-node LP
/// re-solves are why it scales so much worse than the CP formulation.
pub fn milp_schedule_closed(
    map_slots: u32,
    reduce_slots: u32,
    jobs: &[Job],
    n_slots: usize,
    node_limit: u64,
) -> Result<MilpSchedule, String> {
    if jobs.is_empty() {
        return Ok(MilpSchedule {
            late: 0,
            proven_optimal: true,
            n_vars: 0,
            n_rows: 0,
            solve_time: std::time::Duration::ZERO,
        });
    }
    if map_slots == 0 {
        return Err("cluster has no map slots".into());
    }
    let t0 = Instant::now();

    // Lexicographic objective: lateness dominates the completion tiebreak.
    const LATE_WEIGHT: f64 = 10_000.0;
    let FluidLp { p, late_vars, .. } =
        build_fluid_lp(map_slots, reduce_slots, jobs, n_slots, Some(LATE_WEIGHT))?;

    let n_vars = p.n_vars();
    let n_rows = p.n_rows();
    let milp = MilpProblem::new(p, late_vars.clone());
    let (solution, proven) = match solve_milp(&milp, node_limit) {
        MilpOutcome::Optimal(s) => (s, true),
        MilpOutcome::Feasible(s) => (s, false),
        other => return Err(format!("MILP solve failed: {other:?}")),
    };
    let late = late_vars.iter().filter(|v| solution.x[v.0] > 0.5).count() as u32;

    Ok(MilpSchedule {
        late,
        proven_optimal: proven,
        n_vars,
        n_rows,
        solve_time: t0.elapsed(),
    })
}

#[cfg(test)]
mod milp_tests {
    use super::*;
    use desim::SimTime;
    use workload::{Task, TaskId, TaskKind};

    fn job(id: u32, s: i64, d: i64, maps: &[i64]) -> Job {
        let mut t = id * 100;
        let mut mk = |secs: i64| {
            t += 1;
            Task {
                id: TaskId(t),
                job: JobId(id),
                kind: TaskKind::Map,
                exec_time: SimTime::from_secs(secs),
                req: 1,
            }
        };
        Job {
            id: JobId(id),
            arrival: SimTime::from_secs(s),
            earliest_start: SimTime::from_secs(s),
            deadline: SimTime::from_secs(d),
            map_tasks: maps.iter().map(|&x| mk(x)).collect(),
            reduce_tasks: vec![],
            precedences: vec![],
        }
    }

    #[test]
    fn relaxed_batch_has_zero_late() {
        let jobs = vec![job(0, 0, 500, &[10, 10]), job(1, 0, 500, &[10])];
        let s = milp_schedule_closed(2, 1, &jobs, 12, 10_000).unwrap();
        assert_eq!(s.late, 0);
        assert!(s.proven_optimal);
    }

    #[test]
    fn hopeless_job_counts_late_exactly_once() {
        let jobs = vec![job(0, 0, 5, &[40]), job(1, 0, 500, &[10])];
        let s = milp_schedule_closed(2, 1, &jobs, 12, 10_000).unwrap();
        assert_eq!(s.late, 1, "only the impossible job is late");
    }

    #[test]
    fn contention_forces_minimum_lateness() {
        // Three jobs each needing the whole (1-slot) pool for 10s, all due
        // by 12s: at most one can make it.
        let jobs = vec![
            job(0, 0, 12, &[10]),
            job(1, 0, 12, &[10]),
            job(2, 0, 12, &[10]),
        ];
        let s = milp_schedule_closed(1, 1, &jobs, 15, 50_000).unwrap();
        assert!(s.late >= 2, "at least two must be late, got {}", s.late);
    }

    #[test]
    fn node_budget_shapes_the_outcome() {
        let jobs: Vec<Job> = (0..6).map(|i| job(i, 0, 15, &[10])).collect();
        // A starved budget may find nothing at all — that surfaces as an
        // explicit error, never a silent wrong answer.
        match milp_schedule_closed(1, 1, &jobs, 10, 1) {
            Ok(s) => assert!(!s.proven_optimal),
            Err(e) => assert!(e.contains("Unknown"), "{e}"),
        }
        // A sane budget solves it: five of six must be late.
        let s = milp_schedule_closed(1, 1, &jobs, 10, 50_000).unwrap();
        assert!(s.late >= 5, "got {}", s.late);
    }
}

//! Re-enacting a scheduling round outside the manager.
//!
//! `MrcpRm::reschedule` is one opaque call with one `Instant::now()`
//! inside. To say where a round's time goes without editing the product,
//! the traced pass photographs the manager (`MrcpRm::image`) just before
//! each round and repeats the round here through the same public functions
//! the manager calls — `modelmap::build_combined_model` → `greedy_edf` →
//! `split::split_solve_portfolio` (model build, warm start, CP solve,
//! matchmaking) → `split::audit` — with the same `SolveParams` and the same
//! round-cache hints, timing each stage and keeping the solver's own
//! per-class ledger. The re-enactment is count-driven like the round it
//! copies, so its node count must equal the real round's; the share of
//! rounds where it does is reported as `replay.node_match_frac`.

use cpsolve::greedy::{greedy_edf, greedy_edf_with_hints, Hint};
use cpsolve::model::ResRef;
use cpsolve::{PortfolioParams, SolveStats, Status};
use desim::SimTime;
use mrcp::manager::{ManagerImage, MrcpConfig, TaskStatusImage};
use mrcp::modelmap::{build_combined_model, JobInput, TaskInput};
use mrcp::split::{audit, split_solve_portfolio};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::Instant;
use workload::{JobId, Resource, ResourceId, TaskId};

/// Stage timings and solver counters of one re-enacted round.
#[derive(Debug, Clone)]
pub struct RoundReplay {
    /// Tasks in the model.
    pub tasks: usize,
    /// Of those, pinned (already running).
    pub pinned: usize,
    /// `build_combined_model`, ns.
    pub build_ns: u64,
    /// `greedy_edf` on the built model (the warm start inside the solve,
    /// timed on its own), ns.
    pub greedy_ns: u64,
    /// `cpsolve` solve time as the solver reports it, ns.
    pub solve_ns: u64,
    /// `split_solve_portfolio` minus build, hint replay and solve: the
    /// gap-minimising matchmaking, ns.
    pub matchmake_ns: u64,
    /// `split::audit` (full-model build + `Solution::verify`), ns.
    pub verify_ns: u64,
    /// The part of the re-enactment the real round also runs — the split
    /// rung and, with `verify_schedules` on, the audit — ns.
    pub mirror_ns: u64,
    /// Solver counters, including `by_class`.
    pub stats: SolveStats,
    /// How the solve ended.
    pub status: Status,
    /// The split rung produced a plan that passed the audit.
    pub ok: bool,
}

/// `manager::job_fingerprint`, restated over public data: the round cache
/// keys a job's placements on it, so hints can only be rebuilt by hashing
/// the same fields in the same order.
fn job_fingerprint(input: &JobInput<'_>) -> u64 {
    let mut h = DefaultHasher::new();
    input.job.id.hash(&mut h);
    input.job.deadline.as_millis().hash(&mut h);
    input.priority.hash(&mut h);
    for t in &input.tasks {
        t.id.hash(&mut h);
        t.kind.hash(&mut h);
        t.exec_time.as_millis().hash(&mut h);
        t.req.hash(&mut h);
        t.pinned.map(|(r, s)| (r, s.as_millis())).hash(&mut h);
    }
    h.finish()
}

/// `manager::pool_fingerprint`, restated likewise.
fn pool_fingerprint(up: &[Resource]) -> u64 {
    let mut h = DefaultHasher::new();
    for r in up {
        r.id.hash(&mut h);
        r.map_capacity.hash(&mut h);
        r.reduce_capacity.hash(&mut h);
    }
    h.finish()
}

/// Re-enact the round `MrcpRm::reschedule(now)` would run on `image`.
/// `None` when the manager would return before solving (nothing to plan,
/// or every resource down).
pub fn replay_round(
    cfg: &MrcpConfig,
    resources: &[Resource],
    image: &ManagerImage,
    now: SimTime,
) -> Option<RoundReplay> {
    let deferred: HashSet<JobId> = image.deferred.iter().map(|&(_, j)| j).collect();
    let inputs: Vec<JobInput<'_>> = image
        .jobs
        .iter()
        .filter(|j| !deferred.contains(&j.job.id))
        .filter_map(|j| {
            let tasks: Vec<TaskInput> = j
                .tasks
                .iter()
                .filter_map(|t| {
                    let pinned = match t.status {
                        TaskStatusImage::Completed => return None,
                        TaskStatusImage::Waiting => None,
                        TaskStatusImage::Started { resource, start } => Some((resource, start)),
                    };
                    Some(TaskInput {
                        id: t.id,
                        kind: t.kind,
                        exec_time: t.exec_time,
                        req: t.req,
                        pinned,
                    })
                })
                .collect();
            (!tasks.is_empty()).then(|| JobInput {
                job: &j.job,
                release: j.job.earliest_start.max(now),
                priority: cfg.ordering.priority(&j.job),
                tasks,
            })
        })
        .collect();
    if inputs.is_empty() {
        return None;
    }
    let up: Vec<Resource> = resources
        .iter()
        .filter(|r| !image.down.contains(&r.id))
        .cloned()
        .collect();
    if up.is_empty() {
        return None;
    }

    let tasks: usize = inputs.iter().map(|j| j.tasks.len()).sum();
    let pinned = inputs
        .iter()
        .flat_map(|j| &j.tasks)
        .filter(|t| t.pinned.is_some())
        .count();
    let params = cfg.budget.params_for(tasks);

    // Round-cache hints, exactly as the manager derives them.
    let hints: Option<Vec<Option<(ResourceId, SimTime)>>> = image
        .cache
        .as_ref()
        .filter(|c| cfg.reuse_rounds && c.pool_fp == pool_fingerprint(&up))
        .map(|c| {
            let fps: HashMap<JobId, u64> = c.jobs.iter().copied().collect();
            let placed: HashMap<TaskId, (ResourceId, SimTime)> =
                c.placements.iter().map(|&(t, r, s)| (t, (r, s))).collect();
            inputs
                .iter()
                .flat_map(|inp| {
                    let fresh = fps.get(&inp.job.id) == Some(&job_fingerprint(inp));
                    let placed = &placed;
                    inp.tasks.iter().map(move |t| {
                        (fresh && t.pinned.is_none())
                            .then(|| placed.get(&t.id).copied())
                            .flatten()
                    })
                })
                .collect()
        });
    // Stage 1: model build, on its own.
    let t0 = Instant::now();
    let mm = build_combined_model(&up, &inputs).ok()?;
    let build_ns = t0.elapsed().as_nanos() as u64;

    // Stage 2: the greedy incumbent (cold), and the hinted replay the
    // split path runs when the cache is warm.
    let t0 = Instant::now();
    let greedy = greedy_edf(&mm.model);
    let greedy_ns = t0.elapsed().as_nanos() as u64;
    std::hint::black_box(&greedy);
    let t0 = Instant::now();
    if let Some(h) = &hints {
        let combined: Vec<Hint> = h
            .iter()
            .map(|o| o.map(|(_, s)| (ResRef(0), s.as_millis())))
            .collect();
        std::hint::black_box(greedy_edf_with_hints(&mm.model, &combined).is_ok());
    }
    let hinted_ns = t0.elapsed().as_nanos() as u64;
    drop(mm);

    // Stage 3: the split rung as the manager runs it.
    let pp = PortfolioParams {
        base: params,
        workers: cfg.budget.workers,
        seed: 0,
    };
    let t0 = Instant::now();
    let split = split_solve_portfolio(&up, &inputs, &pp, hints.as_deref());
    let split_ns = t0.elapsed().as_nanos() as u64;
    let Ok(split) = split else {
        // The manager would fall to the full-CP rung here; the workloads
        // are chosen so that it never does, and `ok = false` says so.
        return Some(RoundReplay {
            tasks,
            pinned,
            build_ns,
            greedy_ns,
            solve_ns: 0,
            matchmake_ns: 0,
            verify_ns: 0,
            mirror_ns: split_ns,
            stats: SolveStats::default(),
            status: Status::Unknown,
            ok: false,
        });
    };
    let solve_ns = split.outcome.stats.elapsed_us * 1_000;
    let matchmake_ns = split_ns.saturating_sub(build_ns + hinted_ns + solve_ns);

    // Stage 4: the independent checker.
    let t0 = Instant::now();
    let ok = audit(&up, &inputs, &split.placements).is_ok();
    let verify_ns = t0.elapsed().as_nanos() as u64;

    Some(RoundReplay {
        tasks,
        pinned,
        build_ns,
        greedy_ns,
        solve_ns,
        matchmake_ns,
        verify_ns,
        mirror_ns: split_ns + verify_ns,
        stats: split.outcome.stats,
        status: split.outcome.status,
        ok,
    })
}

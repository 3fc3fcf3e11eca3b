//! SLA-aware admission control (overload protection, DESIGN.md §5c).
//!
//! The paper evaluates MRCP-RM in a stable open system; past the
//! saturation arrival rate every scheduling round carries more work than
//! the cluster can retire and both the solve time `O` and the missed
//! deadline proportion `P` grow without bound. Admission control gates
//! work *before* it reaches the scheduler: on submit the manager runs a
//! cheap two-stage feasibility probe and returns a typed
//! [`AdmissionDecision`] instead of silently queueing a job whose SLA is
//! already unmeetable.
//!
//! The probe is
//!
//! 1. an **EDF demand bound** per slot pool ([`edf_demand_violation`]):
//!    the outstanding work of every live job with deadline `≤ d`,
//!    plus the candidate, must fit into `capacity × (d − now)` for every
//!    deadline `d`. Release times and the map→reduce barrier are ignored,
//!    which only relaxes the problem — a violated bound is a *proof* of
//!    infeasibility, never a false rejection;
//! 2. a **greedy witness schedule** ([`witness_completion`]): the greedy
//!    EDF warm start is run on the live model plus the candidate; the
//!    candidate's completion time in that witness is an upper bound on what
//!    the real solver will achieve, and doubles as the
//!    `earliest_feasible_deadline` quoted in renegotiations and rejections.
//!
//! What happens to an infeasible candidate is the [`AdmissionPolicy`]'s
//! choice: admit anyway (the paper's behaviour), reject, or admit with
//! the deadline renegotiated to the earliest feasible one.

use crate::modelmap::{build_model, JobInput};
use cpsolve::greedy::greedy_edf;
use cpsolve::model::JobRef;
use desim::SimTime;
use workload::{Resource, TaskKind};

/// How the manager treats arrivals whose SLA the probe finds unmeetable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Admit everything and skip the probe — the paper's behaviour and
    /// the default; `submit_with_admission` degenerates to `submit`.
    #[default]
    BestEffort,
    /// Reject infeasible jobs outright, quoting the earliest deadline the
    /// manager could have honoured.
    Strict,
    /// Admit infeasible jobs with the deadline renegotiated to the
    /// earliest feasible one (ARIA-style SLA renegotiation).
    Renegotiate,
}

/// Why a job was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RejectReason {
    /// The EDF demand bound proves no schedule meets the deadline: some
    /// deadline's cumulative work exceeds the pool capacity up to it.
    DemandExceedsCapacity,
    /// The bound passed but the greedy witness schedule completes the job
    /// after its deadline (a strong, though not airtight, infeasibility
    /// signal — CP rarely beats the witness by much under load).
    WitnessLate,
    /// The bounded pending queue is full and this job was the least
    /// valuable candidate (the farthest deadline).
    QueueFull,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::DemandExceedsCapacity => {
                write!(f, "EDF demand bound exceeds remaining capacity")
            }
            RejectReason::WitnessLate => {
                write!(f, "witness schedule completes after the deadline")
            }
            RejectReason::QueueFull => write!(f, "pending queue is full"),
        }
    }
}

/// Outcome of the admission probe for one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AdmissionDecision {
    /// The SLA looks feasible (or the policy is best-effort).
    Admit,
    /// Admitted under [`AdmissionPolicy::Renegotiate`] with a relaxed
    /// deadline; completions are judged against `new_deadline`.
    AdmitDegraded {
        /// The deadline the job asked for.
        original_deadline: SimTime,
        /// The earliest deadline the probe could promise.
        new_deadline: SimTime,
    },
    /// Refused; the manager's state is unchanged by this job.
    Reject {
        /// Why.
        reason: RejectReason,
        /// The earliest deadline that would have been admitted — the
        /// witness completion when a witness was built, else the analytic
        /// bound ([`earliest_feasible_estimate`]). `SimTime::MAX` when no
        /// capacity exists at all.
        earliest_feasible_deadline: SimTime,
    },
}

/// Admission-control configuration ([`MrcpConfig::admission`]).
///
/// [`MrcpConfig::admission`]: crate::MrcpConfig
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionConfig {
    /// What to do with infeasible arrivals.
    pub policy: AdmissionPolicy,
    /// Backpressure: upper bound on jobs in the system (active +
    /// deferred). When an arrival would exceed it, the lowest-value jobs
    /// — unstarted, farthest deadline — are shed to make room; if the
    /// arrival itself is the least valuable it is rejected with
    /// [`RejectReason::QueueFull`]. `None` (default) disables the bound.
    pub max_pending_jobs: Option<usize>,
}

/// First deadline (ms) at which cumulative work provably exceeds pool
/// capacity, or `None` when the bound holds everywhere.
///
/// `demands` is one `(deadline_ms, work_ms)` pair per job for a single
/// slot pool with `slots` parallel slots; work counts outstanding
/// (unfinished) slot-milliseconds only. The check is the classic EDF
/// demand bound anchored at `now_ms`: for every deadline `d`,
/// `Σ {work | deadline ≤ d} ≤ slots × (d − now)`.
pub fn edf_demand_violation(now_ms: i64, slots: u32, demands: &[(i64, i64)]) -> Option<i64> {
    let mut sorted: Vec<(i64, i64)> = demands.iter().copied().filter(|&(_, w)| w > 0).collect();
    if sorted.is_empty() {
        return None;
    }
    if slots == 0 {
        return sorted.iter().map(|&(d, _)| d).min();
    }
    sorted.sort_unstable();
    let mut cum: i64 = 0;
    let mut i = 0;
    while i < sorted.len() {
        let d = sorted[i].0;
        // Fold all work sharing this deadline before testing it.
        while i < sorted.len() && sorted[i].0 == d {
            cum = cum.saturating_add(sorted[i].1);
            i += 1;
        }
        let window = (d - now_ms).max(0) as i128;
        if cum as i128 > window * slots as i128 {
            return Some(d);
        }
    }
    None
}

/// Analytic lower bound on the earliest deadline that could be admitted:
/// `now + ⌈total outstanding work / slots⌉`. Used to quote an
/// `earliest_feasible_deadline` when the demand bound already failed and
/// no witness schedule was built. `SimTime::MAX` when `slots == 0`.
pub fn earliest_feasible_estimate(now: SimTime, slots: u32, total_work: SimTime) -> SimTime {
    let ms = total_work.as_millis().max(0);
    if ms == 0 {
        return now;
    }
    if slots == 0 {
        return SimTime::MAX;
    }
    now + SimTime::from_millis((ms + slots as i64 - 1) / slots as i64)
}

/// The greedy witness: the completion of the candidate, the last job of
/// `inputs`, in [`greedy_edf`] over the `up` resources. `None` when no
/// witness can be built (inconsistent pins, a task no resource can host).
///
/// `greedy_edf` places every pinned task first, then whole jobs one at a
/// time in `(priority, deadline, release, index)` order, so nothing placed
/// after the candidate can move it. The model therefore holds every job's
/// pinned (running) tasks, the jobs that sort before the candidate, and
/// the candidate; a job that sorts after it keeps only its pinned tasks
/// and is dropped when it has none. Filtering keeps the input order, so
/// the index tie-break and the pinned-phase slot choice are unchanged and
/// the completion equals the untrimmed model's. Workflow edges route the
/// greedy to `greedy_topo`, which interleaves the tasks of different jobs,
/// so an input with edges keeps the whole model.
pub fn witness_completion(up: &[Resource], mut inputs: Vec<JobInput<'_>>) -> Option<SimTime> {
    #[cfg(debug_assertions)]
    let full = inputs.clone();
    if inputs.iter().all(|i| i.job.precedences.is_empty()) {
        keep_what_can_delay_last(up, &mut inputs);
    }
    let completion = last_job_completion(up, &inputs);
    #[cfg(debug_assertions)]
    debug_assert_eq!(
        completion,
        last_job_completion(up, &full),
        "trimmed admission witness diverged from the full model"
    );
    completion
}

/// Drop the unpinned tasks of every job that `greedy_edf` places after
/// the last one. A free task the greedy could not place at all (no up
/// resource hosts its kind, or it needs more than one slot) stays, so the
/// trimmed witness fails exactly when the full one does.
fn keep_what_can_delay_last(up: &[Resource], inputs: &mut Vec<JobInput<'_>>) {
    // The model's job order key (`modelmap::add_jobs` units). The last
    // job has the highest index, so a tie sorts before it.
    let key = |i: &JobInput<'_>| {
        (
            i.priority,
            i.job.deadline.as_millis(),
            i.release.as_millis(),
        )
    };
    let Some(last) = inputs.last().map(key) else {
        return;
    };
    let hosts = |kind| up.iter().any(|r| r.capacity(kind) >= 1);
    let (map_host, reduce_host) = (hosts(TaskKind::Map), hosts(TaskKind::Reduce));
    inputs.retain_mut(|i| {
        if key(i) <= last {
            return true;
        }
        i.tasks.retain(|t| {
            let hosted = match t.kind {
                TaskKind::Map => map_host,
                TaskKind::Reduce => reduce_host,
            };
            t.pinned.is_some() || !hosted || t.req != 1
        });
        !i.tasks.is_empty()
    });
}

/// Completion of the last job of `inputs` in the greedy schedule.
fn last_job_completion(up: &[Resource], inputs: &[JobInput<'_>]) -> Option<SimTime> {
    let mm = build_model(up, inputs).ok()?;
    let g = greedy_edf(&mm.model).ok()?;
    let last = JobRef(mm.model.n_jobs().checked_sub(1)? as u32);
    Some(SimTime::from_millis(g.job_completion(&mm.model, last)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_holds_for_underloaded_pool() {
        // 2 slots, two jobs of 10 s due at 20 s: 20 000 ≤ 2 × 20 000.
        assert_eq!(
            edf_demand_violation(0, 2, &[(20_000, 10_000), (20_000, 10_000)]),
            None
        );
    }

    #[test]
    fn bound_detects_overcommitted_deadline() {
        // 1 slot, 30 s of work due at 20 s.
        assert_eq!(
            edf_demand_violation(0, 1, &[(20_000, 10_000), (20_000, 20_000)]),
            Some(20_000)
        );
        // The same work spread over a 40 s horizon fits.
        assert_eq!(
            edf_demand_violation(0, 1, &[(40_000, 10_000), (40_000, 20_000)]),
            None
        );
    }

    #[test]
    fn bound_is_cumulative_across_deadlines() {
        // Each deadline fits alone; together the earlier work crowds out
        // the later deadline: at d=30 s cum work 25 s+10 s > 30 s.
        assert_eq!(
            edf_demand_violation(0, 1, &[(26_000, 25_000), (30_000, 10_000)]),
            Some(30_000)
        );
    }

    #[test]
    fn bound_is_anchored_at_now() {
        // 5 s of work due 4 s from now (t=10 s, d=14 s) on one slot.
        assert_eq!(
            edf_demand_violation(10_000, 1, &[(14_000, 5_000)]),
            Some(14_000)
        );
        assert_eq!(edf_demand_violation(8_000, 1, &[(14_000, 5_000)]), None);
    }

    #[test]
    fn zero_capacity_rejects_any_work() {
        assert_eq!(edf_demand_violation(0, 0, &[(5_000, 1)]), Some(5_000));
        assert_eq!(edf_demand_violation(0, 0, &[]), None);
    }

    #[test]
    fn zero_work_never_violates() {
        assert_eq!(edf_demand_violation(0, 1, &[(5_000, 0), (1, 0)]), None);
    }

    #[test]
    fn feasible_estimate_divides_work_over_slots() {
        let now = SimTime::from_secs(10);
        assert_eq!(
            earliest_feasible_estimate(now, 2, SimTime::from_secs(30)),
            SimTime::from_secs(25)
        );
        // Ceiling division: 1 ms of work still needs a full millisecond.
        assert_eq!(
            earliest_feasible_estimate(now, 4, SimTime::from_millis(1)),
            now + SimTime::from_millis(1)
        );
        assert_eq!(
            earliest_feasible_estimate(now, 0, SimTime::from_secs(1)),
            SimTime::MAX
        );
        // No outstanding work: any deadline from now on is feasible,
        // even with zero slots.
        assert_eq!(earliest_feasible_estimate(now, 0, SimTime::ZERO), now);
    }
}

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
//! 2. a **greedy witness schedule**: the manager's one list scheduler
//!    ([`crate::list`]) on one calendar per up resource, with no CP model,
//!    books every running task and places the jobs that sort before the
//!    candidate, then the candidate (the cut is the candidate's key). The
//!    candidate's completion is the one the greedy over the live model plus
//!    the candidate would give. It is an upper bound on what the real
//!    solver will achieve, and doubles as the `earliest_feasible_deadline`
//!    quoted in renegotiations and rejections. The probe never builds a
//!    CP model; debug builds check each witness against the greedy over
//!    one.
//!
//! What happens to an infeasible candidate is the [`AdmissionPolicy`]'s
//! choice: admit anyway (the paper's behaviour), reject, or admit with
//! the deadline renegotiated to the earliest feasible one.

use desim::SimTime;

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

/// First deadline (ms) at which cumulative work provably exceeds the
/// capacity of the map or the reduce slot pool, or `None` when the bound
/// holds everywhere.
///
/// `demands` is one `(deadline_ms, map_work_ms, reduce_work_ms)` triple
/// per job and `slots` the pools' `(map, reduce)` parallel slots; work
/// counts outstanding (unfinished, non-negative) slot-milliseconds only.
/// The check is the classic EDF demand bound anchored at `now_ms`: for
/// every deadline `d` and each pool, `Σ {work | deadline ≤ d} ≤ slots ×
/// (d − now)`. One sort of `demands` (in place, by deadline) and one
/// cumulative pass check both pools. A deadline that adds no work cannot
/// be the first violation: the last deadline with work before it has the
/// same cumulative sum in a smaller window. So a pool without slots
/// violates at its first deadline with work, and never without any.
pub fn edf_demand_violation(
    now_ms: i64,
    slots: (u32, u32),
    demands: &mut [(i64, i64, i64)],
) -> Option<i64> {
    demands.sort_unstable_by_key(|&(d, ..)| d);
    let over = |work: i64, window: i128, slots: u32| work as i128 > window * slots as i128;
    let (mut map, mut reduce) = (0i64, 0i64);
    // Fold all work sharing a deadline before testing it.
    for group in demands.chunk_by(|a, b| a.0 == b.0) {
        for &(_, m, r) in group {
            map = map.saturating_add(m);
            reduce = reduce.saturating_add(r);
        }
        let d = group[0].0;
        let window = (d - now_ms).max(0) as i128;
        if over(map, window, slots.0) || over(reduce, window, slots.1) {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The bound over one pool's `(deadline, work)` pairs, checked in each
    /// lane of the two-pool pass with the other lane idle and slotless.
    fn single(now_ms: i64, slots: u32, demands: &[(i64, i64)]) -> Option<i64> {
        let mut map: Vec<_> = demands.iter().map(|&(d, w)| (d, w, 0)).collect();
        let mut reduce: Vec<_> = demands.iter().map(|&(d, w)| (d, 0, w)).collect();
        let violation = edf_demand_violation(now_ms, (slots, 0), &mut map);
        assert_eq!(
            violation,
            edf_demand_violation(now_ms, (0, slots), &mut reduce)
        );
        violation
    }

    #[test]
    fn bound_holds_for_underloaded_pool() {
        // 2 slots, two jobs of 10 s due at 20 s: 20 000 ≤ 2 × 20 000.
        assert_eq!(single(0, 2, &[(20_000, 10_000), (20_000, 10_000)]), None);
    }

    #[test]
    fn bound_detects_overcommitted_deadline() {
        // 1 slot, 30 s of work due at 20 s.
        assert_eq!(
            single(0, 1, &[(20_000, 10_000), (20_000, 20_000)]),
            Some(20_000)
        );
        // The same work spread over a 40 s horizon fits.
        assert_eq!(single(0, 1, &[(40_000, 10_000), (40_000, 20_000)]), None);
    }

    #[test]
    fn bound_is_cumulative_across_deadlines() {
        // Each deadline fits alone; together the earlier work crowds out
        // the later deadline: at d=30 s cum work 25 s+10 s > 30 s.
        assert_eq!(
            single(0, 1, &[(26_000, 25_000), (30_000, 10_000)]),
            Some(30_000)
        );
    }

    #[test]
    fn bound_is_anchored_at_now() {
        // 5 s of work due 4 s from now (t=10 s, d=14 s) on one slot.
        assert_eq!(single(10_000, 1, &[(14_000, 5_000)]), Some(14_000));
        assert_eq!(single(8_000, 1, &[(14_000, 5_000)]), None);
    }

    #[test]
    fn zero_capacity_rejects_any_work() {
        assert_eq!(single(0, 0, &[(5_000, 1)]), Some(5_000));
        assert_eq!(single(0, 0, &[]), None);
    }

    #[test]
    fn zero_work_never_violates() {
        assert_eq!(single(0, 1, &[(5_000, 0), (1, 0)]), None);
    }

    #[test]
    fn one_pass_reports_the_first_violation_of_either_pool() {
        // The lone reduce slot is overrun at 10 s; the maps first at 30 s.
        let mut demands = [
            (30_000, 70_000, 0),
            (10_000, 5_000, 12_000),
            (20_000, 5_000, 0),
        ];
        assert_eq!(edf_demand_violation(0, (2, 1), &mut demands), Some(10_000));
        demands[0].2 = 0;
        demands[1].2 = 2_000;
        assert_eq!(edf_demand_violation(0, (2, 1), &mut demands), Some(30_000));
        demands.iter_mut().for_each(|d| d.1 = 0);
        assert_eq!(edf_demand_violation(0, (0, 1), &mut demands), None);
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

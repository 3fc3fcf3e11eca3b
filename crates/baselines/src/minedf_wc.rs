//! MinEDF-WC's minimum-share rule (Verma et al., "ARIA", ref \[8\]): at
//! arrival, each job's *minimum* map/reduce slot shares are the smallest
//! `(s_m, s_r)` whose estimated completion `n_m·m̄/s_m + n_r·r̄/s_r ≤ d_j −
//! now` minimizes total slots. [`Policy::MinEdf`](crate::Policy::MinEdf)
//! and [`Policy::MinEdfWc`](crate::Policy::MinEdfWc) serve jobs below their
//! share first, in EDF order. The profile is the job's true mean task
//! durations (ARIA estimates them from history — a strictly harder setting,
//! so this favours the baseline, not MRCP-RM).

/// Minimum slot shares for one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinShare {
    /// Minimum concurrent map slots.
    pub maps: u32,
    /// Minimum concurrent reduce slots.
    pub reduces: u32,
}

/// Compute the minimum `(s_m, s_r)` meeting the deadline budget, per the
/// ARIA bound `n_m·m̄/s_m + n_r·r̄/s_r ≤ budget`. Falls back to the full
/// cluster when the deadline is unmeetable.
pub fn min_share(
    n_maps: usize,
    mean_map_s: f64,
    n_reduces: usize,
    mean_reduce_s: f64,
    budget_s: f64,
    total_maps: u32,
    total_reduces: u32,
) -> MinShare {
    if n_maps == 0 && n_reduces == 0 {
        return MinShare {
            maps: 0,
            reduces: 0,
        };
    }
    let map_work = n_maps as f64 * mean_map_s;
    let reduce_work = n_reduces as f64 * mean_reduce_s;
    let mut best: Option<(u32, MinShare)> = None;
    let max_m = total_maps.min(n_maps.max(1) as u32);
    for s_m in 1..=max_m {
        let t_m = if n_maps > 0 {
            map_work / s_m as f64
        } else {
            0.0
        };
        let rem = budget_s - t_m;
        let s_r = if n_reduces == 0 {
            if rem < 0.0 {
                continue; // maps alone already blow the budget
            }
            0
        } else {
            if rem <= 0.0 {
                continue; // no time left for the reduce phase
            }
            let need = (reduce_work / rem).ceil() as u32;
            if need > total_reduces.min(n_reduces as u32) {
                continue;
            }
            need.max(1)
        };
        let total = s_m + s_r;
        if best.is_none_or(|(b, _)| total < b) {
            best = Some((
                total,
                MinShare {
                    maps: if n_maps > 0 { s_m } else { 0 },
                    reduces: s_r,
                },
            ));
        }
    }
    best.map(|(_, s)| s).unwrap_or(MinShare {
        // Unmeetable: grab as much as could help.
        maps: total_maps.min(n_maps as u32),
        reduces: total_reduces.min(n_reduces as u32),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::tests::{mk_job, run};
    use crate::Policy;

    #[test]
    fn min_share_formula_basics() {
        // 10 maps × 10s = 100s of work; budget 50s → 2 map slots.
        let s = min_share(10, 10.0, 0, 0.0, 50.0, 64, 64);
        assert_eq!(s.maps, 2);
        assert_eq!(s.reduces, 0);
        // Tight budget 10s → all 10 map slots.
        let s = min_share(10, 10.0, 0, 0.0, 10.0, 64, 64);
        assert_eq!(s.maps, 10);
        // Unmeetable budget → everything available.
        let s = min_share(10, 10.0, 0, 0.0, 1.0, 4, 4);
        assert_eq!(s.maps, 4);
        // With reduces: 4 maps×10s, 4 reduces×10s, budget 40 →
        // e.g. s_m=2 (20s) leaves 20s → s_r=2; total 4 is minimal.
        let s = min_share(4, 10.0, 4, 10.0, 40.0, 64, 64);
        assert_eq!(s.maps + s.reduces, 4);
    }

    #[test]
    fn min_share_never_exceeds_task_counts() {
        let s = min_share(2, 5.0, 1, 5.0, 1000.0, 64, 64);
        assert!(s.maps <= 2 && s.reduces <= 1);
        assert_eq!(s.maps, 1);
        assert_eq!(s.reduces, 1);
    }

    #[test]
    fn wc_grabs_spare_slots_but_yields_to_needy() {
        // Loose j0 (needs 1 slot) + urgent j1 later. With WC, j0 initially
        // spreads over all 4 slots; when j1 arrives it gets freed slots
        // first and still meets its deadline.
        let jobs = vec![
            mk_job(0, 0, 0, 1_000, &[10, 10, 10, 10, 10, 10, 10, 10], &[]),
            mk_job(1, 5, 5, 30, &[10], &[]),
        ];
        let (m, _) = run(Policy::MinEdfWc, (4, 1), jobs);
        assert_eq!(m.late, 0);
        // WC: 8 maps on 4 slots = 2 waves + j1's map → ends ≤ 30.
        assert!(m.end_time_s <= 30.0 + 1e-9, "end={}", m.end_time_s);
    }

    #[test]
    fn non_wc_leaves_spare_slots_idle() {
        // Single loose job, min share = 1 slot, 4 available: MinEdf uses
        // only 1 → 4 waves of 10s; MinEdfWc uses all 4 → 1 wave.
        let jobs = vec![mk_job(0, 0, 0, 1_000, &[10, 10, 10, 10], &[])];
        let (wc, _) = run(Policy::MinEdfWc, (4, 1), jobs.clone());
        let (nwc, _) = run(Policy::MinEdf, (4, 1), jobs);
        assert!((wc.end_time_s - 10.0).abs() < 1e-9);
        assert!((nwc.end_time_s - 40.0).abs() < 1e-9);
    }

    #[test]
    fn reduces_get_min_shares_too() {
        let jobs = vec![mk_job(0, 0, 0, 100, &[10, 10], &[10, 10])];
        let (m, _) = run(Policy::MinEdfWc, (2, 2), jobs);
        assert_eq!(m.late, 0);
        // Maps 0..10 in parallel, reduces 10..20 in parallel.
        assert!((m.end_time_s - 20.0).abs() < 1e-9);
    }

    #[test]
    fn edf_order_among_needy_jobs() {
        // j0 holds the slot 0..5. Two jobs queue behind it; at t=5 the
        // earlier-deadline one (j2, due 16) must be served before j1
        // (due 40) — then both finish on time. Arrival order would have
        // made j2 late.
        let jobs = vec![
            mk_job(0, 0, 0, 100, &[5], &[]),
            mk_job(1, 1, 1, 40, &[10], &[]),
            mk_job(2, 2, 2, 16, &[10], &[]),
        ];
        let (m, _) = run(Policy::MinEdfWc, (1, 1), jobs);
        assert_eq!(m.late, 0, "EDF must run the urgent job first");
    }
}

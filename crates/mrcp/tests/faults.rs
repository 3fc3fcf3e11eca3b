//! End-to-end fault injection: the simulation must survive task failures,
//! stragglers, and a mid-run resource crash without panicking, drain every
//! job that keeps within its retry budget, and report non-zero fault
//! metrics — the robustness the paper's reliable-cluster evaluation never
//! exercises.

use desim::SimTime;
use mrcp::manager::{BudgetController, MrcpConfig, SolveBudget};
use mrcp::{simulate, simulate_detailed, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;
use workload::{FaultConfig, Job, Outage, Resource, SyntheticConfig, SyntheticGenerator};

fn small_workload(n: usize, lambda: f64, seed: u64) -> (Vec<Resource>, Vec<Job>) {
    let cfg = SyntheticConfig {
        maps_per_job: (1, 6),
        reduces_per_job: (1, 3),
        e_max: 10,
        lambda,
        resources: 4,
        map_capacity: 2,
        reduce_capacity: 2,
        s_max: 100,
        ..Default::default()
    };
    let cluster = cfg.cluster();
    let mut gen = SyntheticGenerator::new(cfg, StdRng::seed_from_u64(seed));
    (cluster, gen.take_jobs(n))
}

/// The acceptance scenario: task failure probability ≥ 0.1 plus one
/// scheduled crash/recovery mid-run. Every job not abandoned must finish,
/// and the fault metrics must be non-zero.
#[test]
fn faulty_run_drains_with_nonzero_fault_metrics() {
    let (cluster, jobs) = small_workload(30, 0.05, 11);
    let crash_at = SimTime::from_secs(40);
    let cfg = SimConfig {
        faults: FaultConfig {
            task_failure_prob: 0.15,
            straggler_prob: 0.10,
            straggler_factor: (1.5, 3.0),
            retry_budget: 5,
            scheduled_outages: vec![Outage {
                resource: cluster[0].id,
                at: crash_at,
                duration: SimTime::from_secs(60),
            }],
            ..Default::default()
        },
        fault_seed: 7,
        ..Default::default()
    };
    let n = jobs.len();
    let (m, outcomes) = simulate_detailed(&cfg, &cluster, jobs);

    assert_eq!(m.arrived, n);
    assert_eq!(
        m.completed + m.jobs_abandoned,
        n,
        "every job completes or is abandoned"
    );
    assert!(m.tasks_failed > 0, "failure injection must fire");
    assert!(m.tasks_requeued > 0, "failed attempts are retried");
    assert_eq!(m.resource_crashes, 1, "the scheduled outage takes effect");
    assert!(m.end_time_s > crash_at.as_secs_f64());
    // Completions stay internally consistent despite the chaos.
    for o in &outcomes {
        assert!(o.completion >= o.earliest_start);
        assert_eq!(o.late, o.completion > o.deadline);
    }
    // Each job completes at most once.
    let mut ids: Vec<_> = outcomes.iter().map(|o| o.job).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), outcomes.len(), "no job completes twice");
}

/// Random crash/repair renewal process: the run still terminates (the
/// renewal stops re-arming once the workload drains) and stays consistent.
#[test]
fn random_crash_renewal_process_terminates() {
    let (cluster, jobs) = small_workload(20, 0.05, 13);
    let cfg = SimConfig {
        faults: FaultConfig {
            task_failure_prob: 0.05,
            resource_mttf: Some(SimTime::from_secs(120)),
            resource_mttr: Some(SimTime::from_secs(20)),
            retry_budget: 5,
            ..Default::default()
        },
        fault_seed: 3,
        ..Default::default()
    };
    let n = jobs.len();
    let m = simulate(&cfg, &cluster, jobs);
    assert_eq!(m.arrived, n);
    assert_eq!(m.completed + m.jobs_abandoned, n);
}

/// Identical fault seeds reproduce the run exactly; different seeds are
/// allowed to (and here do) diverge.
#[test]
fn fault_runs_are_deterministic_per_seed() {
    let (cluster, jobs) = small_workload(20, 0.05, 17);
    let cfg = SimConfig {
        faults: FaultConfig {
            task_failure_prob: 0.2,
            straggler_prob: 0.1,
            straggler_factor: (1.5, 2.5),
            ..Default::default()
        },
        fault_seed: 42,
        ..Default::default()
    };
    let a = simulate(&cfg, &cluster, jobs.clone());
    let b = simulate(&cfg, &cluster, jobs);
    // (`o_per_job_s` is measured wall clock and may differ between runs;
    // everything simulated must not.)
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.late, b.late);
    assert_eq!(a.tasks_failed, b.tasks_failed);
    assert_eq!(a.tasks_requeued, b.tasks_requeued);
    assert_eq!(a.stragglers, b.stragglers);
    assert_eq!(a.jobs_abandoned, b.jobs_abandoned);
    assert_eq!(a.mean_turnaround_s, b.mean_turnaround_s);
    assert_eq!(a.end_time_s, b.end_time_s);
    assert!(a.tasks_failed > 0);
}

/// A tiny retry budget under heavy failure must abandon at least one job
/// (and report it) rather than retry forever or panic.
#[test]
fn exhausted_retry_budget_abandons_jobs() {
    let (cluster, jobs) = small_workload(15, 0.05, 19);
    let cfg = SimConfig {
        faults: FaultConfig {
            task_failure_prob: 0.6,
            retry_budget: 0,
            ..Default::default()
        },
        fault_seed: 5,
        ..Default::default()
    };
    let n = jobs.len();
    let m = simulate(&cfg, &cluster, jobs);
    assert_eq!(m.completed + m.jobs_abandoned, n);
    assert!(
        m.jobs_abandoned > 0,
        "budget 0 + p=0.6 must abandon something"
    );
}

/// A zero node budget under a zero latency ceiling: the budget controller
/// halves the scale every round until the rounds skip the split CP rung,
/// and the greedy schedule must carry them, not panic — the simulation
/// still drains, faults and all.
#[test]
fn forced_unknown_solver_outcome_degrades_gracefully() {
    let (cluster, jobs) = small_workload(15, 0.05, 23);
    let mut cfg = SimConfig {
        faults: FaultConfig {
            task_failure_prob: 0.1,
            retry_budget: 5,
            ..Default::default()
        },
        fault_seed: 9,
        ..Default::default()
    };
    cfg.manager = MrcpConfig {
        budget: SolveBudget {
            node_limit: 0,
            fail_limit: 0,
            ..SolveBudget::default()
        },
        controller: Some(BudgetController::with_ceiling(Duration::ZERO)),
        ..Default::default()
    };
    let n = jobs.len();
    let m = simulate(&cfg, &cluster, jobs);
    assert_eq!(m.completed + m.jobs_abandoned, n);
    assert!(
        m.degraded_rounds > 0,
        "every round should fall down the ladder"
    );
    assert_eq!(m.failed_rounds, 0, "greedy never fails on consistent state");
}

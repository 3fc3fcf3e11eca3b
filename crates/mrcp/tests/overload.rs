//! End-to-end overload behaviour: with admission control, backpressure,
//! and the adaptive budget controller engaged, driving the arrival rate
//! well past cluster saturation must degrade gracefully — admitted jobs
//! keep their SLA performance, the turned-away fraction absorbs the
//! excess, the queue stays bounded, and the run always drains.

use mrcp::manager::SolveBudget;
use mrcp::{simulate, AdmissionConfig, AdmissionPolicy, BudgetController, RunMetrics, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use workload::{ArrivalConfig, Job, Resource, SyntheticConfig, SyntheticGenerator};

/// A small cluster with tight deadlines, driven at a configurable rate and
/// arrival shape.
fn workload(n: usize, lambda: f64, arrival: ArrivalConfig, seed: u64) -> (Vec<Resource>, Vec<Job>) {
    let cfg = SyntheticConfig {
        maps_per_job: (1, 6),
        reduces_per_job: (1, 3),
        e_max: 10,
        lambda,
        resources: 3,
        map_capacity: 2,
        reduce_capacity: 2,
        p_future_start: 0.0,
        s_max: 1,
        deadline_multiplier: 2.0,
        arrival,
    };
    let cluster = cfg.cluster();
    let mut gen = SyntheticGenerator::new(cfg, StdRng::seed_from_u64(seed));
    (cluster, gen.take_jobs(n))
}

/// The protected configuration: feasibility probe, bounded queue, adaptive
/// budgets, and a capped solver so rounds stay short.
fn protected(policy: AdmissionPolicy, max_pending: usize) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.manager.budget = SolveBudget {
        node_limit: 2_000,
        fail_limit: 2_000,
        adaptive: None,
        ..SolveBudget::default()
    };
    cfg.manager.admission = AdmissionConfig {
        policy,
        max_pending_jobs: Some(max_pending),
    };
    cfg.manager.controller = Some(BudgetController::default());
    cfg
}

/// Run `jobs` and assert the soak bounds: every arrival accounted for, the
/// queue never deeper than `max_depth`, no scheduling round over 2 s of
/// wall clock, and the system empty within `max_drain_s` of the last
/// arrival (the livelock guard).
fn bounded_run(
    cfg: &SimConfig,
    cluster: &[Resource],
    jobs: Vec<Job>,
    max_depth: usize,
    max_drain_s: f64,
) -> RunMetrics {
    let last_arrival = jobs.iter().map(|j| j.arrival).max().unwrap();
    let m = simulate(cfg, cluster, jobs);
    m.check_conservation().unwrap();
    assert!(
        m.max_queue_depth <= max_depth,
        "queue depth peaked at {} (limit {max_depth})",
        m.max_queue_depth
    );
    assert!(
        m.max_round_latency_s <= 2.0,
        "a scheduling round took {:.3}s (limit 2s)",
        m.max_round_latency_s
    );
    let drain_s = m.end_time_s - last_arrival.as_secs_f64();
    assert!(
        drain_s <= max_drain_s,
        "drained {drain_s:.0}s after the last arrival (limit {max_drain_s:.0}s)"
    );
    m
}

#[test]
fn graceful_degradation_past_saturation() {
    // λ an order of magnitude past what 3×2 map slots can absorb.
    let (cluster, jobs) = workload(60, 1.0, ArrivalConfig::default(), 40);
    let open = simulate(&SimConfig::default(), &cluster, jobs.clone());
    let gated = simulate(&protected(AdmissionPolicy::Strict, 32), &cluster, jobs);

    assert_eq!(open.arrived, 60);
    assert_eq!(gated.arrived, 60);
    // The unprotected manager admits everything and misses deadlines en
    // masse; the protected one turns away the infeasible excess and keeps
    // the SLA performance of what it admits.
    assert!(
        gated.jobs_rejected + gated.jobs_shed > 0,
        "overload must be absorbed by rejections/shedding"
    );
    assert!(
        gated.p_late <= open.p_late,
        "admitted-job P must be bounded: gated {} vs open {}",
        gated.p_late,
        open.p_late
    );
    gated.check_conservation().unwrap();
}

#[test]
fn burst_soak_stays_within_bounds() {
    // MMPP bursts five times past the calm rate.
    let (cluster, jobs) = workload(80, 0.05, ArrivalConfig::mmpp(0.25, 200.0, 40.0), 41);
    let m = bounded_run(
        &protected(AdmissionPolicy::Strict, 24),
        &cluster,
        jobs,
        24,
        3_600.0,
    );
    assert_eq!(m.arrived, 80);
}

#[test]
fn flash_crowd_and_ramp_both_drain_under_protection() {
    for (name, arrival) in [
        ("flash-crowd", ArrivalConfig::flash_crowd(0.5, 300.0, 30.0)),
        ("ramp", ArrivalConfig::ramp(0.5, 600.0)),
    ] {
        let (cluster, jobs) = workload(50, 0.05, arrival, 42);
        let m = simulate(&protected(AdmissionPolicy::Renegotiate, 24), &cluster, jobs);
        assert_eq!(m.arrived, 50, "{name}");
        m.check_conservation().unwrap();
        assert!(
            m.max_queue_depth <= 24,
            "{name}: queue bounded, got {}",
            m.max_queue_depth
        );
    }
}

/// Long-horizon soak (minutes of wall clock): hundreds of jobs through
/// sustained MMPP bursts. Run explicitly (or from the CI soak job) with
/// `cargo test -p mrcp --test overload -- --ignored`.
#[test]
#[ignore = "long soak; run with -- --ignored"]
fn long_soak_survives_sustained_bursts() {
    let (cluster, jobs) = workload(400, 0.05, ArrivalConfig::mmpp(0.5, 120.0, 60.0), 43);
    let m = bounded_run(
        &protected(AdmissionPolicy::Strict, 48),
        &cluster,
        jobs,
        48,
        7_200.0,
    );
    assert_eq!(m.arrived, 400);
    assert!(
        m.jobs_rejected + m.jobs_shed > 0,
        "sustained bursts must engage the protection"
    );
}

/// Admission judges clusters beyond 128 resources: on 129 resources a
/// one-task job with a 1 000 s deadline is admitted as it
/// asked, under both policies that run the probe.
#[test]
fn admission_admits_a_feasible_job_on_more_than_128_resources() {
    use desim::SimTime;
    use mrcp::{AdmissionDecision, MrcpConfig, MrcpRm, ResourceManager};
    use workload::model::homogeneous_cluster;
    use workload::{JobId, Task, TaskId, TaskKind};

    let job = Job {
        id: JobId(0),
        arrival: SimTime::ZERO,
        earliest_start: SimTime::ZERO,
        deadline: SimTime::from_secs(1_000),
        map_tasks: vec![Task {
            id: TaskId(0),
            job: JobId(0),
            kind: TaskKind::Map,
            exec_time: SimTime::from_secs(10),
            req: 1,
        }],
        reduce_tasks: vec![],
    };
    for policy in [AdmissionPolicy::Strict, AdmissionPolicy::Renegotiate] {
        let cfg = MrcpConfig {
            admission: AdmissionConfig {
                policy,
                max_pending_jobs: None,
            },
            ..MrcpConfig::default()
        };
        let mut rm = MrcpRm::new(cfg, homogeneous_cluster(129, 1, 1));
        let out = rm
            .submit_with_admission(job.clone(), SimTime::ZERO)
            .unwrap();
        assert_eq!(out.decision, AdmissionDecision::Admit, "{policy:?}");
    }
}

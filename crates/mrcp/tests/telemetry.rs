#![allow(clippy::field_reassign_with_default)]
//! Single-manager telemetry integration: the registry's counters must
//! reconcile exactly with the manager's own `ManagerStats`, a live
//! registry and subscriber must not perturb the run, and the default
//! queue capacity must absorb a default-size run without drops.

use mrcp::sim_driver::{simulate, simulate_with};
use mrcp::{MrcpConfig, MrcpRm, ResourceManager, SimConfig, SolveBudget};
use rand::rngs::StdRng;
use rand::SeedableRng;
use telemetry::{EventFilter, EventKind, Telemetry, DEFAULT_QUEUE_CAP};
use workload::{Job, Resource, SyntheticConfig, SyntheticGenerator};

fn det_sim() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.manager = MrcpConfig {
        budget: SolveBudget {
            node_limit: 2_000,
            fail_limit: 2_000,
            adaptive: None,
            ..SolveBudget::default()
        },
        ..Default::default()
    };
    cfg
}

fn workload(n: usize, seed: u64) -> (Vec<Resource>, Vec<Job>) {
    let cfg = SyntheticConfig {
        maps_per_job: (1, 6),
        reduces_per_job: (1, 3),
        e_max: 10,
        lambda: 0.05,
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

#[test]
fn registry_reconciles_with_manager_stats() {
    let cfg = det_sim();
    let (resources, jobs) = workload(25, 42);

    let tel = Telemetry::new();
    let tail = tel.bus.subscribe(EventFilter::default(), DEFAULT_QUEUE_CAP);
    let plain = simulate(&cfg, &resources, jobs.clone());
    let (live, _, rm) = simulate_with(&cfg, &resources, jobs, |mc| {
        let mut rm = MrcpRm::new(mc, resources.clone());
        rm.set_telemetry(&tel);
        rm
    });

    // Observational only: identical outcome with instruments attached.
    assert_eq!(
        plain.deterministic_signature(),
        live.deterministic_signature(),
        "live telemetry perturbed the run"
    );

    let stats = rm.stats();
    let reg = &tel.registry;
    let c = |name: &str| reg.counter(name, &[]).get();
    // Exactly one rung counter fires per solver invocation.
    let rung_sum: u64 = ["split_cp", "greedy", "failed"]
        .iter()
        .map(|rung| reg.counter("mrcp_rounds_total", &[("rung", rung)]).get())
        .sum();
    assert_eq!(rung_sum, stats.invocations);
    assert_eq!(
        reg.counter("mrcp_rounds_total", &[("rung", "failed")])
            .get(),
        stats.failed_rounds
    );
    assert_eq!(c("mrcp_warm_rounds_total"), stats.warm_rounds);
    assert_eq!(
        c("mrcp_cache_invalidations_total"),
        stats.cache_invalidations
    );
    assert_eq!(c("mrcp_tasks_failed_total"), stats.tasks_failed);
    assert_eq!(c("mrcp_tasks_requeued_total"), stats.tasks_requeued);
    assert_eq!(c("mrcp_jobs_abandoned_total"), stats.jobs_abandoned);
    assert_eq!(c("mrcp_jobs_shed_total"), stats.jobs_shed);
    assert_eq!(c("mrcp_budget_adaptations_total"), stats.budget_adaptations);
    assert_eq!(
        reg.counter("mrcp_admission_total", &[("verdict", "rejected")])
            .get(),
        stats.jobs_rejected
    );
    assert_eq!(
        reg.counter("mrcp_admission_total", &[("verdict", "renegotiated")])
            .get(),
        stats.jobs_renegotiated
    );
    // The solve-latency histogram saw every invocation.
    assert_eq!(
        reg.histogram("mrcp_round_solve_us", &[], telemetry::LATENCY_US_BOUNDS)
            .count(),
        stats.invocations
    );
    // A drained run holds no jobs.
    assert_eq!(reg.gauge("mrcp_jobs_in_system", &[]).get(), 0);

    // Default queue capacity absorbs a default-size run without drops.
    let events = tail.drain();
    assert_eq!(tel.bus.dropped_events(), 0, "event bus overflowed");
    assert_eq!(events.len() as u64, tel.bus.published());
    let rounds = events
        .iter()
        .filter(|e| e.kind == EventKind::RoundSolved)
        .count() as u64;
    assert_eq!(rounds, stats.invocations, "one RoundSolved per invocation");
    assert!(
        events
            .iter()
            .any(|e| e.kind == EventKind::AdmissionAdmitted),
        "admissions must publish events"
    );
}

#[test]
fn disabled_telemetry_is_the_default_and_costs_nothing_observable() {
    let cfg = det_sim();
    let (resources, jobs) = workload(12, 7);
    // A manager that never saw set_telemetry must behave identically to
    // one attached to a disabled handle.
    let plain = simulate(&cfg, &resources, jobs.clone());
    let tel = Telemetry::disabled();
    let (live, _, _) = simulate_with(&cfg, &resources, jobs, |mc| {
        let mut rm = MrcpRm::new(mc, resources.clone());
        rm.set_telemetry(&tel);
        rm
    });
    assert_eq!(
        plain.deterministic_signature(),
        live.deterministic_signature()
    );
    assert!(tel.registry.snapshot().metrics.is_empty());
    assert_eq!(tel.bus.published(), 0);
}

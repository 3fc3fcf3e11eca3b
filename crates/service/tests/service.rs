//! Service-layer guarantees: batch-size-1 transparency, per-seed
//! determinism of a measured rung, coalescing gains, the cells=1 anchor
//! through the ramp harness, and conservation through the threaded front
//! door.

use cluster::{ClusterConfig, Federation, RebalanceConfig};
use desim::SimTime;
use mrcp::{IngestConfig, MrcpConfig, MrcpRm, SimConfig, SolveBudget};
use service::front_door::{FrontDoorConfig, IngestService, SubmitError};
use service::ramp::{run_rung, RampConfig};
use std::time::Duration;
use workload::SyntheticConfig;

/// Wall-clock-free manager: one portfolio worker, no time budget — every
/// measured rung must be reproducible bit for bit.
fn det_sim() -> SimConfig {
    SimConfig {
        manager: MrcpConfig {
            budget: SolveBudget {
                node_limit: 2_000,
                fail_limit: 2_000,
                adaptive: None,
                ..SolveBudget::default()
            },
            ..Default::default()
        },
        ..Default::default()
    }
}

fn small_workload(m: u32) -> SyntheticConfig {
    SyntheticConfig {
        maps_per_job: (1, 6),
        reduces_per_job: (1, 3),
        e_max: 10,
        lambda: 0.05, // overridden per rung
        resources: m,
        map_capacity: 2,
        reduce_capacity: 2,
        s_max: 100,
        ..Default::default()
    }
}

fn ramp_cfg() -> RampConfig {
    RampConfig {
        jobs_per_rung: 30,
        seed: 7,
        ..Default::default()
    }
}

#[test]
fn measured_rung_is_deterministic_per_seed() {
    let wl = small_workload(4);
    let mut sim = det_sim();
    sim.ingest = Some(IngestConfig {
        max_batch: 8,
        max_linger: SimTime::from_millis(500),
    });
    let cfg = ramp_cfg();
    let resources = wl.cluster();
    let r1 = run_rung(&wl, &sim, &resources, &cfg, 0, 0.5, |mc| {
        MrcpRm::new(mc, resources.clone())
    });
    let r2 = run_rung(&wl, &sim, &resources, &cfg, 0, 0.5, |mc| {
        MrcpRm::new(mc, resources.clone())
    });
    assert_eq!(r1, r2, "same seed, same rung, same report");
    assert!(r1.batches > 0, "batching was on; flushes must be counted");
    assert!(r1.admitted > 0);
}

/// `max_batch == 1` must be observationally identical to running with
/// ingest off — same metrics, same latency quantiles, same flush count:
/// ingest off *is* a batch of one through the same `submit_batch` path.
#[test]
fn batch_size_one_rung_matches_ingest_off() {
    let wl = small_workload(4);
    let cfg = ramp_cfg();
    let resources = wl.cluster();

    let legacy_sim = det_sim();
    let legacy = run_rung(&wl, &legacy_sim, &resources, &cfg, 0, 0.5, |mc| {
        MrcpRm::new(mc, resources.clone())
    });

    let mut batched_sim = det_sim();
    batched_sim.ingest = Some(IngestConfig {
        max_batch: 1,
        max_linger: SimTime::from_millis(500),
    });
    let batch1 = run_rung(&wl, &batched_sim, &resources, &cfg, 0, 0.5, |mc| {
        MrcpRm::new(mc, resources.clone())
    });

    assert!(batch1.batches > 0, "every arrival is its own batch");
    assert_eq!(batch1.max_batch, 1);
    assert_eq!(legacy, batch1, "max_batch=1 must be transparent");
}

/// At a burst-heavy offered rate, coalescing must cut the number of
/// scheduling rounds — the mechanism behind batching's throughput gain.
#[test]
fn coalescing_cuts_scheduling_rounds_at_high_rate() {
    let wl = small_workload(4);
    let cfg = ramp_cfg();
    let resources = wl.cluster();

    let legacy_sim = det_sim();
    let legacy = run_rung(&wl, &legacy_sim, &resources, &cfg, 0, 5.0, |mc| {
        MrcpRm::new(mc, resources.clone())
    });

    let mut batched_sim = det_sim();
    batched_sim.ingest = Some(IngestConfig {
        max_batch: 16,
        max_linger: SimTime::from_secs(2),
    });
    let batched = run_rung(&wl, &batched_sim, &resources, &cfg, 0, 5.0, |mc| {
        MrcpRm::new(mc, resources.clone())
    });

    assert_eq!(legacy.arrived, batched.arrived, "same offered workload");
    assert!(
        batched.invocations < legacy.invocations,
        "coalescing must reduce rounds ({} batched vs {} legacy)",
        batched.invocations,
        legacy.invocations
    );
    assert!(batched.max_batch > 1, "real multi-job batches must form");
}

/// The cells=1 ⇔ single-manager anchor extends through the instrumented
/// ramp harness: a one-cell federation rung reports exactly what the
/// bare manager rung reports.
#[test]
fn single_cell_federation_rung_matches_plain_manager_rung() {
    let wl = small_workload(4);
    let mut sim = det_sim();
    sim.ingest = Some(IngestConfig {
        max_batch: 8,
        max_linger: SimTime::from_millis(500),
    });
    let cfg = ramp_cfg();
    let resources = wl.cluster();
    let plain = run_rung(&wl, &sim, &resources, &cfg, 0, 0.5, |mc| {
        MrcpRm::new(mc, resources.clone())
    });
    let cluster_cfg = ClusterConfig {
        cells: 1,
        rebalance: RebalanceConfig::default(),
    };
    let fed = run_rung(&wl, &sim, &resources, &cfg, 0, 0.5, |mc| {
        Federation::new(&cluster_cfg, mc, resources.clone())
    });
    assert_eq!(
        plain, fed,
        "cells=1 must be transparent to the service layer"
    );
}

/// Threaded front door: every offered job is either delivered to the
/// manager or counted as overflow shed, and the instrumented manager's
/// submission count agrees with the delivery count.
#[test]
fn front_door_conserves_jobs_and_flushes_on_close() {
    let wl = small_workload(4);
    let resources = wl.cluster();
    let mut gen = workload::SyntheticGenerator::new(wl, {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(3)
    });
    let mut jobs = gen.take_jobs(40);
    // The front door stamps submissions with its own (scaled) wall clock;
    // anchor the workload at t=0 so deadlines stay in the future.
    for j in &mut jobs {
        let span = j.deadline - j.arrival;
        let lead = j.earliest_start - j.arrival;
        j.arrival = SimTime::ZERO;
        j.earliest_start = lead;
        j.deadline = span;
    }
    let rm = MrcpRm::new(MrcpConfig::default(), resources.clone());
    let svc = IngestService::start(
        rm,
        FrontDoorConfig {
            max_batch: 8,
            max_linger: Duration::from_millis(5),
            queue_cap: 16,
            sim_speed: 100.0,
        },
    );
    let mut accepted = 0u64;
    let mut shed_mine = 0u64;
    for job in jobs {
        match svc.submit(job) {
            Ok(()) => accepted += 1,
            Err(SubmitError::Shed) => shed_mine += 1,
            Err(SubmitError::Closed) => unreachable!("service still open"),
        }
    }
    let (rm, report) = svc.close();
    assert_eq!(report.offered, 40);
    assert_eq!(
        report.delivered + report.shed_overflow,
        40,
        "every job is delivered or shed"
    );
    assert!(shed_mine <= report.shed_overflow);
    let _ = accepted;
    let m = rm.metrics();
    assert_eq!(
        m.submitted, report.delivered,
        "the manager saw exactly the delivered jobs"
    );
    assert!(report.flushes > 0);
    assert_eq!(
        m.admitted + m.rejected + m.errors,
        m.submitted,
        "every delivered job got a verdict"
    );
    assert_eq!(
        m.ingest_to_admitted_us.count(),
        m.admitted,
        "one admitted-latency sample per admitted job"
    );
}

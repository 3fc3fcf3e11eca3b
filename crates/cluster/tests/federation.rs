//! End-to-end federation tests: determinism, the cells=1 identity with
//! the plain single-manager driver, multi-cell draining, cell configs
//! left as built, and the cross-cell rebalancer.

mod common;

use cluster::{ClusterConfig, Federation};
use common::{det_sim, plain, workload};
use desim::SimTime;
use mrcp::{simulate, AdmissionPolicy, MrcpConfig, ResourceManager, SimConfig};
use workload::model::homogeneous_cluster;
use workload::{Job, JobId, Resource, Task, TaskId, TaskKind};

/// One hand-built job: `maps` map tasks and one reduce, all `exec` long.
fn job(id: u32, maps: u32, exec: SimTime, deadline: SimTime) -> Job {
    let map_tasks: Vec<Task> = (0..maps)
        .map(|i| Task {
            id: TaskId(id * 100 + i),
            job: JobId(id),
            kind: TaskKind::Map,
            exec_time: exec,
            req: 1,
        })
        .collect();
    let reduce_tasks = vec![Task {
        id: TaskId(id * 100 + 99),
        job: JobId(id),
        kind: TaskKind::Reduce,
        exec_time: exec,
        req: 1,
    }];
    Job {
        id: JobId(id),
        arrival: SimTime::ZERO,
        earliest_start: SimTime::ZERO,
        deadline,
        map_tasks,
        reduce_tasks,
    }
}

#[test]
fn same_seed_federated_run_is_bit_identical() {
    let sim = SimConfig::default();
    let (resources, jobs) = workload(30, 4, 0.05, 11);
    let (m1, f1) = plain(&sim, 2, &resources, jobs.clone());
    let (m2, f2) = plain(&sim, 2, &resources, jobs);
    let (c1, c2) = (f1.cluster_metrics(), f2.cluster_metrics());
    assert_eq!(m1.deterministic_signature(), m2.deterministic_signature());
    // Federation counters must agree too (latency samples are wall-clock
    // and excluded, but their count is deterministic).
    assert_eq!(c1.jobs_routed, c2.jobs_routed);
    assert_eq!(c1.spills, c2.spills);
    assert_eq!(c1.migrations, c2.migrations);
    assert_eq!(c1.migration_probes, c2.migration_probes);
    assert_eq!(c1.rounds, c2.rounds);
    assert_eq!(c1.round_latencies_us.len(), c2.round_latencies_us.len());
}

#[test]
fn single_cell_federation_matches_plain_driver() {
    let (resources, jobs) = workload(30, 4, 0.05, 17);
    let single = simulate(&SimConfig::default(), &resources, jobs.clone());
    let (fed, f) = plain(&SimConfig::default(), 1, &resources, jobs);
    let cm = f.cluster_metrics();
    assert_eq!(
        single.deterministic_signature(),
        fed.deterministic_signature(),
        "cells=1 federation must be metric-identical to the single manager"
    );
    assert_eq!(cm.cells, 1);
    assert_eq!(cm.migrations, 0, "one cell has nowhere to migrate to");
    assert_eq!(cm.spills, 0, "one cell has nowhere to spill to");
}

#[test]
fn single_cell_identity_survives_budget_pressure() {
    use mrcp::{BudgetController, SolveBudget};
    use std::time::Duration;
    // Wall-clock-free budget plus a zero latency ceiling: the controller
    // halves the scale every round (1, ½, ¼, ⅛, … down to 1/64), so the
    // run is served by the split CP rung at first and by greedy EDF once
    // the scale is under a quarter. The cells=1 identity must hold on both
    // rungs the controller can pick.
    let sim = || {
        let mut sim = SimConfig::default();
        sim.manager.budget = SolveBudget {
            node_limit: 2_000,
            fail_limit: 2_000,
            ..SolveBudget::default()
        };
        sim.manager.controller = Some(BudgetController::with_ceiling(Duration::ZERO));
        sim
    };
    let (resources, jobs) = workload(30, 4, 0.05, 29);
    let single = simulate(&sim(), &resources, jobs.clone());
    let (fed, _) = plain(&sim(), 1, &resources, jobs);
    assert_eq!(
        single.deterministic_signature(),
        fed.deterministic_signature(),
        "cells=1 identity must survive the pressure rungs"
    );
}

#[test]
fn multi_cell_run_drains_and_conserves_jobs() {
    let (resources, jobs) = workload(40, 8, 0.05, 23);
    let n = jobs.len();
    let (m, fed) = plain(&SimConfig::default(), 4, &resources, jobs);
    let cm = fed.cluster_metrics();
    assert_eq!(m.arrived, n);
    m.check_conservation().unwrap();
    assert_eq!(cm.jobs_routed.len(), 4);
    assert_eq!(
        cm.jobs_routed.iter().sum::<u64>() as usize,
        n,
        "best-effort admission routes every arrival somewhere"
    );
    // Load-aware routing should not starve whole cells on 40 jobs.
    assert!(
        cm.jobs_routed.iter().all(|&r| r > 0),
        "{:?}",
        cm.jobs_routed
    );
    assert!(cm.rounds > 0);
    assert!(cm.max_cells_active >= 1);
}

#[test]
fn a_round_leaves_every_cell_config_as_built() {
    let resources = homogeneous_cluster(2, 2, 2);
    let mut mgr = MrcpConfig::default();
    mgr.budget.node_limit = 7;
    let cfg = ClusterConfig { cells: 2 };
    let mut fed = Federation::new(&cfg, mgr, resources);
    // First arrival lands in cell 0 (tie on empty loads), second in the
    // now-less-loaded cell 1.
    fed.submit_with_admission(
        job(
            1,
            2,
            SimTime::from_millis(10_000),
            SimTime::from_millis(500_000),
        ),
        SimTime::ZERO,
    )
    .unwrap();
    fed.submit_with_admission(
        job(
            2,
            2,
            SimTime::from_millis(10_000),
            SimTime::from_millis(500_000),
        ),
        SimTime::ZERO,
    )
    .unwrap();
    assert_eq!(fed.cluster_metrics().jobs_routed, vec![1, 1]);
    let entries = fed.reschedule(SimTime::ZERO);
    assert!(!entries.is_empty());
    for c in fed.cells() {
        assert_eq!(
            c.rm.config().budget.node_limit,
            7,
            "a round solves each cell with the node budget it was built with"
        );
    }
}

#[test]
fn rebalancer_moves_planned_late_job_off_downed_cell() {
    let resources = homogeneous_cluster(2, 1, 1);
    let rids: Vec<_> = resources.iter().map(|r| r.id).collect();
    let cfg = ClusterConfig { cells: 2 };
    let mut fed = Federation::new(&cfg, MrcpConfig::default(), resources);
    // The only arrival lands in cell 0 and gets planned there.
    let j = job(
        1,
        1,
        SimTime::from_millis(10_000),
        SimTime::from_millis(400_000),
    );
    fed.submit_with_admission(j, SimTime::ZERO).unwrap();
    assert_eq!(fed.cluster_metrics().jobs_routed, vec![1, 0]);
    let entries = fed.reschedule(SimTime::ZERO);
    assert!(entries.iter().all(|e| e.resource == rids[0]));
    // Cell 0's only resource crashes before anything starts: the job is
    // unplannable there and the rebalancer must move it to cell 1.
    let interrupted = fed
        .resource_down(rids[0], SimTime::from_millis(1_000))
        .unwrap();
    assert!(interrupted.is_empty(), "nothing had started yet");
    let entries = fed.reschedule(SimTime::from_millis(1_000));
    assert_eq!(fed.cluster_metrics().migrations, 1);
    assert_eq!(fed.cells()[0].rm.jobs_in_system(), 0);
    assert_eq!(fed.cells()[1].rm.jobs_in_system(), 1);
    assert!(!entries.is_empty(), "the migrated job must be replanned");
    assert!(entries.iter().all(|e| e.resource == rids[1]));
}

#[test]
fn arrival_spills_when_primary_probe_rejects_and_alternate_admits() {
    use workload::ResourceId;
    // Cell 0: one narrow node (1 map slot). Cell 1: one wide node (4 map
    // slots). A wide, tight job sees cell 0 as primary (it is idle) but
    // only cell 1 can parallelize it inside the deadline.
    let resources = vec![
        Resource {
            id: ResourceId(0),
            map_capacity: 1,
            reduce_capacity: 1,
        },
        Resource {
            id: ResourceId(1),
            map_capacity: 4,
            reduce_capacity: 4,
        },
    ];
    let mut mgr = MrcpConfig::default();
    mgr.admission.policy = AdmissionPolicy::Strict;
    let cfg = ClusterConfig { cells: 2 };
    let mut fed = Federation::new(&cfg, mgr, resources);
    // 4 maps of 10s + one 10s reduce, due in 30s: serial maps need 50s.
    let wide = job(
        1,
        4,
        SimTime::from_millis(10_000),
        SimTime::from_millis(30_000),
    );
    let out = fed.submit_with_admission(wide, SimTime::ZERO).unwrap();
    assert!(out.submitted.is_some(), "the wide cell admits the job");
    assert_eq!(fed.cluster_metrics().spills, 1);
    assert_eq!(fed.cluster_metrics().jobs_routed, vec![0, 1]);
    assert_eq!(fed.cells()[1].rm.jobs_in_system(), 1);
}

#[test]
fn strict_both_cells_rejecting_counts_the_job_once() {
    let resources = homogeneous_cluster(2, 1, 1);
    let mut sim = SimConfig::default();
    sim.manager.admission.policy = AdmissionPolicy::Strict;
    // One feasible job plus one whose deadline no cell can meet.
    let feasible = job(
        1,
        1,
        SimTime::from_millis(10_000),
        SimTime::from_millis(400_000),
    );
    let hopeless = job(
        2,
        4,
        SimTime::from_millis(50_000),
        SimTime::from_millis(60_000),
    );
    let (m, _) = plain(&sim, 2, &resources, vec![feasible, hopeless]);
    assert_eq!(m.arrived, 2);
    assert_eq!(
        m.jobs_rejected, 1,
        "the hopeless job is rejected exactly once"
    );
    assert_eq!(m.completed, 1);
}

/// With batched ingest on, the cells=1 federation must still collapse to
/// the plain single-manager driver: both sides coalesce the same bursts
/// (the driver's flush schedule is manager-agnostic) and a one-cell
/// federation applies a batch exactly as the bare manager does.
#[test]
fn batched_single_cell_federation_matches_batched_plain_driver() {
    use mrcp::IngestConfig;
    let ingest = Some(IngestConfig {
        max_batch: 8,
        max_linger: SimTime::from_millis(200),
    });
    // lambda high enough that real multi-job batches form.
    let (resources, jobs) = workload(30, 4, 10.0, 23);
    let mut sim = det_sim();
    sim.ingest = ingest;
    let single = simulate(&sim, &resources, jobs.clone());
    let (fed, _) = plain(&sim, 1, &resources, jobs);
    assert_eq!(
        single.deterministic_signature(),
        fed.deterministic_signature(),
        "cells=1 federation must stay metric-identical under batched ingest"
    );
}

/// Batched multi-cell runs are deterministic per seed, and the burst
/// coalescing visibly amortizes the CP solve: fewer scheduling rounds
/// than the legacy one-arrival-one-round path on the same workload.
#[test]
fn batched_multi_cell_run_is_deterministic_and_coalesces_rounds() {
    use mrcp::IngestConfig;
    let (resources, jobs) = workload(40, 4, 10.0, 29);
    let mut sim = det_sim();
    sim.ingest = Some(IngestConfig {
        max_batch: 16,
        max_linger: SimTime::from_millis(500),
    });
    let (m1, f1) = plain(&sim, 2, &resources, jobs.clone());
    let (m2, f2) = plain(&sim, 2, &resources, jobs.clone());
    let (c1, c2) = (f1.cluster_metrics(), f2.cluster_metrics());
    assert_eq!(m1.deterministic_signature(), m2.deterministic_signature());
    assert_eq!(c1.jobs_routed, c2.jobs_routed);
    assert_eq!(c1.spills, c2.spills);
    assert_eq!(c1.rounds, c2.rounds);

    let (legacy, _) = plain(&det_sim(), 2, &resources, jobs);
    assert!(
        m1.invocations < legacy.invocations,
        "batching must coalesce bursts into fewer scheduling rounds \
         ({} batched vs {} legacy)",
        m1.invocations,
        legacy.invocations
    );
    assert_eq!(m1.arrived, legacy.arrived, "same arrivals either way");
}

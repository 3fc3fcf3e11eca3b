#![allow(clippy::field_reassign_with_default)]
//! Chaos-harness end-to-end tests: fault injection at the cell boundary
//! must never lose a job or break the fleet invariants, an inactive
//! chaos config must be bit-identical to the plain federation, and a
//! durable federation must rehydrate crashed cells from their WALs.

use cluster::{
    simulate_cluster, simulate_cluster_chaos, simulate_cluster_chaos_durable, ChaosConfig,
    ChaosSimConfig, ClusterConfig, ClusterSimConfig, RebalanceConfig,
};
use desim::SimTime;
use durability::{scratch_dir, DurabilityConfig, StoreConfig, WalConfig};
use mrcp::{MrcpConfig, SimConfig, SolveBudget};
use rand::rngs::StdRng;
use rand::SeedableRng;
use workload::{Job, Resource, SyntheticConfig, SyntheticGenerator};

/// A fully deterministic manager (one portfolio worker, no wall-clock
/// budget), so chaos-off comparisons are bit-exact.
fn det_sim() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.manager = MrcpConfig {
        budget: SolveBudget {
            node_limit: 2_000,
            fail_limit: 2_000,
            time_limit_ms: None,
            adaptive: None,
            warm_start: true,
            workers: 1,
        },
        ..Default::default()
    };
    cfg
}

fn chaos_cfg(cells: usize, chaos: ChaosConfig) -> ChaosSimConfig {
    ChaosSimConfig {
        base: ClusterSimConfig {
            sim: det_sim(),
            cluster: ClusterConfig {
                cells,
                rebalance: RebalanceConfig::default(),
            },
        },
        chaos,
    }
}

fn small_workload(n: usize, m: u32, seed: u64) -> (Vec<Resource>, Vec<Job>) {
    let cfg = SyntheticConfig {
        maps_per_job: (1, 6),
        reduces_per_job: (1, 3),
        e_max: 10,
        lambda: 0.05,
        resources: m,
        map_capacity: 2,
        reduce_capacity: 2,
        s_max: 100,
        ..Default::default()
    };
    let cluster = cfg.cluster();
    let mut gen = SyntheticGenerator::new(cfg, StdRng::seed_from_u64(seed));
    (cluster, gen.take_jobs(n))
}

fn assert_conserved(run: &cluster::ChaosRun) {
    assert!(
        run.violations.is_empty(),
        "invariant violations: {:#?}",
        run.violations
    );
    let m = &run.metrics;
    assert_eq!(
        m.completed + m.jobs_rejected as usize + m.jobs_shed as usize + m.jobs_abandoned,
        m.arrived,
        "every arrival must complete, be rejected, be shed, or be abandoned"
    );
}

#[test]
fn inactive_chaos_is_bit_identical_to_plain_federation() {
    let cfg = chaos_cfg(2, ChaosConfig::default());
    let (resources, jobs) = small_workload(25, 4, 42);
    let (plain, plain_cm) = simulate_cluster(&cfg.base, &resources, jobs.clone());
    let run = simulate_cluster_chaos(&cfg, &resources, jobs);
    assert_conserved(&run);
    assert_eq!(
        plain.deterministic_signature(),
        run.metrics.deterministic_signature(),
        "an inactive chaos config changed the outcome"
    );
    let cm = run.federation.cluster_metrics();
    assert_eq!(plain_cm.jobs_routed, cm.jobs_routed);
    assert_eq!(plain_cm.spills, cm.spills);
    assert_eq!(plain_cm.migrations, cm.migrations);
    assert_eq!(cm.rpc_drops + cm.rpc_timeouts + cm.rpc_escalations, 0);
    assert_eq!(cm.cell_crashes, 0);
    assert!((cm.retry_amplification() - 1.0).abs() < f64::EPSILON);
}

#[test]
fn duplicated_deliveries_are_absorbed_by_dedup() {
    // Every delivery arrives twice; the cell-side dedup must absorb the
    // copies so the outcome is bit-identical to the fault-free run.
    let chaos = ChaosConfig {
        dup_prob: 1.0,
        seed: 5,
        ..Default::default()
    };
    let cfg = chaos_cfg(2, chaos);
    let (resources, jobs) = small_workload(25, 4, 42);
    let (plain, _) = simulate_cluster(&cfg.base, &resources, jobs.clone());
    let run = simulate_cluster_chaos(&cfg, &resources, jobs);
    assert_conserved(&run);
    assert_eq!(
        plain.deterministic_signature(),
        run.metrics.deterministic_signature(),
        "duplicated deliveries leaked into the schedule"
    );
    let cm = run.federation.cluster_metrics();
    assert!(cm.rpc_dedup_hits > 0, "dup_prob=1 must hit the dedup");
}

#[test]
fn lossy_boundary_retries_and_still_conserves_jobs() {
    let chaos = ChaosConfig {
        drop_prob: 0.25,
        hang_prob: 0.05,
        mean_latency: Some(SimTime::from_millis(20)),
        call_deadline: SimTime::from_millis(250),
        seed: 9,
        ..Default::default()
    };
    let cfg = chaos_cfg(3, chaos);
    let (resources, jobs) = small_workload(30, 6, 7);
    let run = simulate_cluster_chaos(&cfg, &resources, jobs);
    assert_conserved(&run);
    let cm = run.federation.cluster_metrics();
    assert!(cm.rpc_drops > 0, "drop_prob=0.25 must drop something");
    assert!(cm.rpc_retries > 0, "drops must trigger retries");
    assert!(
        cm.retry_amplification() > 1.0,
        "retries must amplify attempts past commands"
    );
}

#[test]
fn cell_crashes_fail_over_and_rejoin() {
    let chaos = ChaosConfig {
        cell_mttf: Some(SimTime::from_secs(60)),
        cell_mttr: Some(SimTime::from_secs(30)),
        seed: 3,
        ..Default::default()
    };
    let cfg = chaos_cfg(3, chaos);
    let (resources, jobs) = small_workload(40, 6, 11);
    let run = simulate_cluster_chaos(&cfg, &resources, jobs);
    assert_conserved(&run);
    let cm = run.federation.cluster_metrics();
    assert!(cm.cell_crashes > 0, "MTTF=60s over this run must crash");
    assert!(cm.cell_restores > 0, "crashed cells must be restored");
    assert_eq!(
        cm.failover_latencies_ms.len(),
        cm.failovers as usize,
        "one latency sample per failed-over job"
    );
    assert_eq!(
        cm.restore_latencies_ms.len() as u64,
        cm.cell_restores,
        "one latency sample per restore"
    );
}

#[test]
fn durable_federation_rehydrates_crashed_cells_from_wal() {
    let chaos = ChaosConfig {
        cell_mttf: Some(SimTime::from_secs(60)),
        cell_mttr: Some(SimTime::from_secs(30)),
        seed: 13,
        ..Default::default()
    };
    let cfg = chaos_cfg(2, chaos);
    let (resources, jobs) = small_workload(30, 4, 19);
    let dir = scratch_dir("chaos-rehydrate");
    let durability = DurabilityConfig {
        store: StoreConfig {
            snapshot_every: 16,
            wal: WalConfig::default(),
        },
        ..Default::default()
    };
    let run = simulate_cluster_chaos_durable(&cfg, &resources, jobs, &dir, durability);
    let _ = std::fs::remove_dir_all(&dir);
    assert_conserved(&run);
    let cm = run.federation.cluster_metrics();
    assert!(cm.cell_crashes > 0, "MTTF=60s over this run must crash");
    assert!(
        cm.rehydrations > 0,
        "a durable federation must rebuild crashed cells from the store"
    );
    assert_eq!(
        cm.rehydrate_mismatches, 0,
        "WAL replay diverged from the live fleet state"
    );
}

/// Fault injection belongs to the cell boundary, not to the manager
/// process: a whole-fleet crash and recovery must leave it on. With every
/// delivery dropped, a submit issued after the recovery still exhausts its
/// retries and escalates — before the boundary moved into the rebuilt
/// fleet, its first attempt simply landed.
#[test]
fn fleet_recovery_keeps_fault_injection_on() {
    use cluster::DurableFederation;
    use mrcp::sim_driver::ResourceManager;

    let chaos = ChaosConfig {
        drop_prob: 1.0,
        seed: 2,
        ..Default::default()
    };
    let (resources, mut jobs) = small_workload(2, 4, 5);
    let dir = scratch_dir("chaos-fleet-recovery");
    let mut fed = DurableFederation::new(
        &chaos_cfg(2, chaos).base.cluster,
        det_sim().manager,
        resources,
        &dir,
        DurabilityConfig::default(),
    );
    fed.enable_chaos(&chaos);
    let second = jobs.pop().unwrap();
    let first = jobs.pop().unwrap();

    let t = first.arrival;
    fed.submit_with_admission(first, t).unwrap();
    let before = fed.federation().cluster_metrics().clone();
    assert!(before.rpc_retries > 0 && before.rpc_escalations > 0);

    assert!(fed.crash_and_recover(t));
    let recovered = fed.federation().cluster_metrics().clone();
    let t = second.arrival;
    fed.submit_with_admission(second, t).unwrap();
    let after = fed.federation().cluster_metrics();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        after.rpc_retries > recovered.rpc_retries,
        "no retry after the recovery: fault injection was switched off"
    );
    assert!(after.rpc_escalations > recovered.rpc_escalations);
    assert_eq!(fed.jobs_in_system(), 2);
}

/// A lossy boundary and whole-fleet crashes together: the run still
/// conserves every job and keeps the fleet invariants after every round.
#[test]
fn chaos_with_fleet_crashes_conserves_jobs() {
    let chaos = ChaosConfig {
        drop_prob: 0.2,
        dup_prob: 0.1,
        hang_prob: 0.05,
        seed: 9,
        ..Default::default()
    };
    let mut cfg = chaos_cfg(2, chaos);
    cfg.base.sim.manager_crashes = mrcp::ManagerCrashConfig {
        at_commands: vec![4, 15, 40, 90],
        ..Default::default()
    };
    let (resources, jobs) = small_workload(30, 4, 23);
    let dir = scratch_dir("chaos-fleet-crashes");
    let durability = DurabilityConfig::power_loss(StoreConfig {
        snapshot_every: 16,
        wal: WalConfig { sync_every: 2 },
    });
    let run = simulate_cluster_chaos_durable(&cfg, &resources, jobs, &dir, durability);
    let _ = std::fs::remove_dir_all(&dir);
    assert_conserved(&run);
    assert!(run.metrics.manager_crashes > 0, "the crash schedule fired");
    let cm = run.federation.cluster_metrics();
    assert!(
        cm.rpc_drops > 0 && cm.rpc_retries > 0,
        "the boundary stayed lossy to the end of the run"
    );
}

#![allow(clippy::field_reassign_with_default)]
//! Federation durability: a multi-cell run interrupted by manager
//! crashes recovers from its per-cell WALs + manifest to the bit-exact
//! signature of the uninterrupted run, and any single cell can be
//! rebuilt from the fleet snapshot plus its *own* WAL without touching
//! the others.

use cluster::{
    recover_cell, simulate_cluster, simulate_cluster_durable, ClusterConfig, ClusterSimConfig,
    DurableFederation, RebalanceConfig,
};
use desim::SimTime;
use durability::{scratch_dir, DurabilityConfig, StoreConfig, WalConfig};
use mrcp::sim_driver::ResourceManager;
use mrcp::{ManagerCrashConfig, ManagerImage, MrcpConfig, SimConfig, SolveBudget};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use workload::model::homogeneous_cluster;
use workload::{Job, Resource, SyntheticConfig, SyntheticGenerator};

/// A fully deterministic manager: one portfolio worker, no wall-clock
/// budget — crash replay must retrace every solve exactly.
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

fn cluster_cfg(cells: usize) -> ClusterSimConfig {
    ClusterSimConfig {
        sim: det_sim(),
        cluster: ClusterConfig {
            cells,
            rebalance: RebalanceConfig::default(),
        },
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

/// Wall-clock solve times differ under replay; everything else must not.
fn canonical(mut img: ManagerImage) -> ManagerImage {
    img.stats.total_solve = std::time::Duration::ZERO;
    img.stats.max_round_solve = std::time::Duration::ZERO;
    img.latency_ewma_s = None;
    img
}

#[test]
fn crashed_multi_cell_run_matches_crash_free_run() {
    let cfg = cluster_cfg(2);
    let (resources, jobs) = small_workload(25, 4, 42);
    let (baseline, base_cm) = simulate_cluster(&cfg, &resources, jobs.clone());

    let mut crashed_cfg = cluster_cfg(2);
    crashed_cfg.sim.manager_crashes = ManagerCrashConfig {
        at_commands: vec![1, 7, 20, 33],
        mttf: Some(SimTime::from_secs(40)),
        seed: 7,
    };
    let dir = scratch_dir("fed-eq");
    let durability = DurabilityConfig {
        store: StoreConfig {
            snapshot_every: 5,
            wal: WalConfig { sync_every: 2 },
        },
        lose_unsynced_on_crash: true,
    };
    let (interrupted, _outcomes, fed) =
        simulate_cluster_durable(&crashed_cfg, &resources, jobs, &dir, durability);
    let _ = std::fs::remove_dir_all(&dir);

    assert!(fed.crashes() > 0, "the crash schedule must actually fire");
    assert_eq!(
        baseline.deterministic_signature(),
        interrupted.deterministic_signature(),
        "{} fleet crashes changed the outcome",
        fed.crashes()
    );
    let cm = fed.federation().cluster_metrics();
    assert_eq!(base_cm.jobs_routed, cm.jobs_routed);
    assert_eq!(base_cm.spills, cm.spills);
    assert_eq!(base_cm.migrations, cm.migrations);
}

#[test]
fn single_cell_recovers_from_its_own_wal_alone() {
    let resources = homogeneous_cluster(4, 2, 2);
    let ccfg = ClusterConfig {
        cells: 2,
        rebalance: RebalanceConfig::default(),
    };
    let mgr_cfg = det_sim().manager;
    let dir = scratch_dir("cell-solo");
    // Large snapshot_every: the cell WALs, not the snapshot, must carry
    // the state.
    let d = DurabilityConfig {
        store: StoreConfig {
            snapshot_every: 1_000,
            wal: WalConfig::default(),
        },
        ..Default::default()
    };
    let mut fed = DurableFederation::new(&ccfg, mgr_cfg, resources.clone(), &dir, d);
    let (_, jobs) = small_workload(8, 4, 9);
    let mut now = SimTime::ZERO;
    for job in jobs {
        now = now.max(job.arrival);
        fed.submit_with_admission(job, now).unwrap();
        fed.reschedule(now);
    }
    for cell in 0..2 {
        let live = fed.federation().cells()[cell].rm.image();
        let (recovered, replayed) = recover_cell(&dir, d.store, mgr_cfg, &resources, cell).unwrap();
        assert!(replayed > 0, "cell {cell} replayed nothing");
        assert_eq!(
            canonical(live),
            canonical(recovered.image()),
            "cell {cell} diverged after independent recovery"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cell WAL holds what the cell was asked, one record per applied
/// request: a burst leaves one `SubmitBatch` in each cell it touched
/// (however many jobs went there) and the round one `Solve`, and those two
/// records rebuild the cell.
#[test]
fn a_batch_and_a_round_are_two_records_in_each_touched_cell_wal() {
    let resources = homogeneous_cluster(4, 2, 2);
    // No rebalancing: a migration would add its own take/submit records.
    let ccfg = ClusterConfig {
        cells: 2,
        rebalance: RebalanceConfig {
            max_migrations_per_round: 0,
            ..RebalanceConfig::default()
        },
    };
    let mgr_cfg = det_sim().manager;
    let dir = scratch_dir("cell-batch");
    let d = DurabilityConfig::power_loss(StoreConfig {
        snapshot_every: 1_000,
        wal: WalConfig::default(),
    });
    let mut fed = DurableFederation::new(&ccfg, mgr_cfg, resources.clone(), &dir, d);
    let (_, mut jobs) = small_workload(6, 4, 11);
    for j in &mut jobs {
        j.arrival = SimTime::ZERO;
    }
    let outs = fed.submit_batch(jobs, SimTime::ZERO);
    assert!(outs
        .iter()
        .all(|o| matches!(o, Ok(out) if out.submitted.is_some())));
    fed.reschedule(SimTime::ZERO);
    let routed = fed.federation().cluster_metrics().jobs_routed.clone();
    assert_eq!(routed.iter().sum::<u64>(), 6);
    assert!(routed.iter().any(|&n| n > 1), "no cell got a real batch");
    for (cell, &n) in routed.iter().enumerate() {
        let live = fed.federation().cells()[cell].rm.image();
        let (recovered, replayed) = recover_cell(&dir, d.store, mgr_cfg, &resources, cell).unwrap();
        assert_eq!(
            replayed,
            if n > 0 { 2 } else { 0 },
            "cell {cell} took {n} jobs"
        );
        assert_eq!(canonical(live), canonical(recovered.image()), "cell {cell}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The fleet-level equivalence, over random workloads, cell counts,
    /// crash schedules, and store knobs.
    #[test]
    fn fleet_recovery_is_bit_exact(
        cells in 2usize..=3,
        n_jobs in 4usize..=16,
        wl_seed in 0u64..=1_000,
        at in prop::collection::vec(0u64..=80, 0..=4),
        renewal in any::<bool>(),
        mttf in 5i64..=60,
        crash_seed in 0u64..=u64::MAX,
        snapshot_every in 1u64..=8,
        sync_every in 1u64..=4,
        lose in any::<bool>(),
    ) {
        let cfg = cluster_cfg(cells);
        let (resources, jobs) = small_workload(n_jobs, 4, wl_seed);
        let (baseline, _) = simulate_cluster(&cfg, &resources, jobs.clone());

        let mut crashed_cfg = cluster_cfg(cells);
        crashed_cfg.sim.manager_crashes = ManagerCrashConfig {
            at_commands: at,
            mttf: renewal.then(|| SimTime::from_secs(mttf)),
            seed: crash_seed,
        };
        let dir = scratch_dir("pt-fed");
        let durability = DurabilityConfig {
            store: StoreConfig {
                snapshot_every,
                wal: WalConfig { sync_every },
            },
            lose_unsynced_on_crash: lose,
        };
        let (interrupted, _, fed) =
            simulate_cluster_durable(&crashed_cfg, &resources, jobs, &dir, durability);
        let _ = std::fs::remove_dir_all(&dir);

        prop_assert_eq!(
            baseline.deterministic_signature(),
            interrupted.deterministic_signature(),
            "{} fleet crashes changed the outcome", fed.crashes()
        );
    }
}

/// Batched ingest + crashes: the manifest logs each coalesced burst as a
/// single `SubmitBatch` record, so replay re-routes it against one load
/// snapshot exactly as the live run did. Decomposing the burst into
/// singleton submits would replay with sequential routing and diverge.
#[test]
fn batched_crashed_run_matches_batched_crash_free_run() {
    use mrcp::IngestConfig;
    let mut cfg = cluster_cfg(2);
    cfg.sim.ingest = Some(IngestConfig {
        max_batch: 8,
        max_linger: SimTime::from_secs(20),
    });
    // lambda 0.05 → ~20s inter-arrival: the generous linger makes real
    // multi-job batches form even on the sparse workload.
    let (resources, jobs) = small_workload(25, 4, 42);
    let (baseline, base_cm) = simulate_cluster(&cfg, &resources, jobs.clone());

    let mut crashed_cfg = cfg.clone();
    crashed_cfg.sim.manager_crashes = ManagerCrashConfig {
        at_commands: vec![1, 5, 12, 21],
        mttf: Some(SimTime::from_secs(40)),
        seed: 7,
    };
    let dir = scratch_dir("fed-batch-eq");
    let durability = DurabilityConfig {
        store: StoreConfig {
            snapshot_every: 5,
            wal: WalConfig { sync_every: 2 },
        },
        lose_unsynced_on_crash: true,
    };
    let (interrupted, _outcomes, fed) =
        simulate_cluster_durable(&crashed_cfg, &resources, jobs, &dir, durability);
    let _ = std::fs::remove_dir_all(&dir);

    assert!(fed.crashes() > 0, "the crash schedule must actually fire");
    assert_eq!(
        baseline.deterministic_signature(),
        interrupted.deterministic_signature(),
        "{} fleet crashes changed a batched-ingest outcome",
        fed.crashes()
    );
    let cm = fed.federation().cluster_metrics();
    assert_eq!(base_cm.jobs_routed, cm.jobs_routed);
    assert_eq!(base_cm.spills, cm.spills);
}

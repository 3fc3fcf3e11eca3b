#![allow(clippy::field_reassign_with_default)]
//! The telemetry bit-exactness contract (DESIGN.md §5k): telemetry is
//! strictly observational, so a run with live instruments and a tailing
//! subscriber must produce a `deterministic_signature` bit-identical to
//! the same run with telemetry disabled — under any fault mix, with and
//! without durable stores underneath.

use cluster::{
    simulate_cluster_chaos, simulate_cluster_chaos_durable,
    simulate_cluster_chaos_durable_telemetry, simulate_cluster_chaos_telemetry, ChaosConfig,
    ChaosSimConfig, ClusterConfig, ClusterSimConfig, RebalanceConfig,
};
use desim::SimTime;
use durability::{scratch_dir, DurabilityConfig, StoreConfig, WalConfig};
use mrcp::{MrcpConfig, SimConfig, SolveBudget};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use telemetry::{EventFilter, Telemetry, DEFAULT_QUEUE_CAP};
use workload::{Job, Resource, SyntheticConfig, SyntheticGenerator};

/// A fully deterministic manager (one portfolio worker, no wall-clock
/// budget), so the telemetry-on/off comparison is bit-exact.
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

fn chaos_mix(
    drop_pct: u32,
    dup_pct: u32,
    crash: bool,
    mttf_s: i64,
    mttr_s: i64,
    seed: u64,
) -> ChaosConfig {
    ChaosConfig {
        drop_prob: f64::from(drop_pct) / 100.0,
        dup_prob: f64::from(dup_pct) / 100.0,
        hang_prob: 0.02,
        mean_latency: Some(SimTime::from_millis(5)),
        call_deadline: SimTime::from_millis(100),
        cell_mttf: crash.then(|| SimTime::from_secs(mttf_s)),
        cell_mttr: crash.then(|| SimTime::from_secs(mttr_s)),
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Telemetry-on vs telemetry-off on a chaotic (but non-durable)
    /// federation: identical signatures, and the live subscriber's
    /// bounded queue never overflows at the default capacity.
    #[test]
    fn telemetry_is_bit_exact_under_chaos(
        cells in 1usize..=3,
        n_jobs in 4usize..=12,
        wl_seed in 0u64..=1_000,
        drop_pct in 0u32..=30,
        dup_pct in 0u32..=30,
        crash in any::<bool>(),
        chaos_seed in 0u64..=u64::MAX,
    ) {
        let chaos = chaos_mix(drop_pct, dup_pct, crash, 60, 25, chaos_seed);
        let cfg = chaos_cfg(cells, chaos);
        let (resources, jobs) = small_workload(n_jobs, 4, wl_seed);

        let plain = simulate_cluster_chaos(&cfg, &resources, jobs.clone());
        let tel = Telemetry::new();
        let tail = tel.bus.subscribe(EventFilter::default(), DEFAULT_QUEUE_CAP);
        let live = simulate_cluster_chaos_telemetry(&cfg, &resources, jobs, &tel);

        prop_assert!(plain.violations.is_empty(), "{:#?}", plain.violations);
        prop_assert!(live.violations.is_empty(), "{:#?}", live.violations);
        prop_assert_eq!(
            plain.metrics.deterministic_signature(),
            live.metrics.deterministic_signature(),
            "live telemetry perturbed the run"
        );
        prop_assert_eq!(tel.bus.dropped_events(), 0);
        // The run produced real signals: at least the per-round events.
        prop_assert!(tail.drain().len() as u64 <= tel.bus.published());
    }
}

proptest! {
    // Durable runs pay real disk I/O per command; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The same contract with durable stores underneath: WAL appends,
    /// checkpoints, crash rehydration, and recovery instrumentation must
    /// all be invisible to the outcome.
    #[test]
    fn telemetry_is_bit_exact_under_durable_chaos(
        cells in 1usize..=2,
        n_jobs in 4usize..=10,
        wl_seed in 0u64..=1_000,
        drop_pct in 0u32..=25,
        crash in any::<bool>(),
        chaos_seed in 0u64..=u64::MAX,
        case in 0u64..=u64::MAX,
    ) {
        let chaos = chaos_mix(drop_pct, 10, crash, 60, 25, chaos_seed);
        let cfg = chaos_cfg(cells, chaos);
        let (resources, jobs) = small_workload(n_jobs, 4, wl_seed);
        let durability = DurabilityConfig {
            store: StoreConfig {
                snapshot_every: 8,
                wal: WalConfig::default(),
            },
            ..Default::default()
        };

        let dir_a = scratch_dir(&format!("tel-prop-off-{case:x}"));
        let plain = simulate_cluster_chaos_durable(&cfg, &resources, jobs.clone(), &dir_a, durability);
        let _ = std::fs::remove_dir_all(&dir_a);

        let tel = Telemetry::new();
        let dir_b = scratch_dir(&format!("tel-prop-on-{case:x}"));
        let live = simulate_cluster_chaos_durable_telemetry(
            &cfg, &resources, jobs, &dir_b, durability, &tel,
        );
        let _ = std::fs::remove_dir_all(&dir_b);

        prop_assert!(plain.violations.is_empty(), "{:#?}", plain.violations);
        prop_assert!(live.violations.is_empty(), "{:#?}", live.violations);
        prop_assert_eq!(
            plain.metrics.deterministic_signature(),
            live.metrics.deterministic_signature(),
            "live telemetry perturbed the durable run"
        );
        prop_assert_eq!(tel.bus.dropped_events(), 0);
    }
}

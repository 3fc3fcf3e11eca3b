#![allow(clippy::field_reassign_with_default)]
//! Property tests for the chaos harness: under *any* fault mix the
//! federation never loses a job and never breaks its fleet invariants,
//! and the default (inactive) chaos config is bit-identical to the plain
//! federation.

use cluster::{
    simulate_cluster, simulate_cluster_chaos, ChaosConfig, ChaosSimConfig, ClusterConfig,
    ClusterSimConfig, RebalanceConfig,
};
use desim::SimTime;
use mrcp::{MrcpConfig, SimConfig, SolveBudget};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use workload::{Job, Resource, SyntheticConfig, SyntheticGenerator};

/// A fully deterministic manager (one portfolio worker, no wall-clock
/// budget), so the identity property is bit-exact.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// No fault mix may lose a job or break a fleet invariant: every
    /// arrival ends completed, rejected, shed, or abandoned with a typed
    /// reason, and the run never panics.
    #[test]
    fn chaos_never_loses_a_job(
        cells in 1usize..=3,
        n_jobs in 4usize..=16,
        wl_seed in 0u64..=1_000,
        drop_pct in 0u32..=40,
        dup_pct in 0u32..=40,
        hang_pct in 0u32..=15,
        with_latency in any::<bool>(),
        latency_ms in 1i64..=40,
        crash in any::<bool>(),
        mttf_s in 20i64..=90,
        mttr_s in 5i64..=40,
        chaos_seed in 0u64..=u64::MAX,
    ) {
        let chaos = ChaosConfig {
            drop_prob: f64::from(drop_pct) / 100.0,
            dup_prob: f64::from(dup_pct) / 100.0,
            hang_prob: f64::from(hang_pct) / 100.0,
            mean_latency: with_latency.then(|| SimTime::from_millis(latency_ms)),
            call_deadline: SimTime::from_millis(100),
            cell_mttf: crash.then(|| SimTime::from_secs(mttf_s)),
            cell_mttr: crash.then(|| SimTime::from_secs(mttr_s)),
            seed: chaos_seed,
        };
        let cfg = chaos_cfg(cells, chaos);
        let (resources, jobs) = small_workload(n_jobs, 4, wl_seed);
        let n = jobs.len();
        let run = simulate_cluster_chaos(&cfg, &resources, jobs);
        prop_assert!(
            run.violations.is_empty(),
            "invariant violations: {:#?}",
            run.violations
        );
        let m = &run.metrics;
        prop_assert_eq!(m.arrived, n);
        prop_assert_eq!(
            m.completed + m.jobs_rejected as usize + m.jobs_shed as usize + m.jobs_abandoned,
            m.arrived,
            "a job was silently lost"
        );
    }

    /// The identity anchor: `ChaosConfig::default()` is inactive, and an
    /// inactive config must leave the federation bit-identical to
    /// [`simulate_cluster`] — same signature, same routing counters.
    #[test]
    fn default_chaos_is_bit_identical_to_plain(
        cells in 1usize..=3,
        n_jobs in 4usize..=16,
        wl_seed in 0u64..=1_000,
        chaos_seed in 0u64..=u64::MAX,
    ) {
        let chaos = ChaosConfig { seed: chaos_seed, ..Default::default() };
        prop_assert!(!chaos.is_active());
        let cfg = chaos_cfg(cells, chaos);
        let (resources, jobs) = small_workload(n_jobs, 4, wl_seed);
        let (plain, plain_cm) = simulate_cluster(&cfg.base, &resources, jobs.clone());
        let run = simulate_cluster_chaos(&cfg, &resources, jobs);
        prop_assert!(run.violations.is_empty(), "{:#?}", run.violations);
        prop_assert_eq!(
            plain.deterministic_signature(),
            run.metrics.deterministic_signature()
        );
        let cm = run.federation.cluster_metrics();
        prop_assert_eq!(&plain_cm.jobs_routed, &cm.jobs_routed);
        prop_assert_eq!(plain_cm.spills, cm.spills);
        prop_assert_eq!(plain_cm.migrations, cm.migrations);
        prop_assert_eq!(plain_cm.rounds, cm.rounds);
        prop_assert_eq!(cm.rpc_drops, 0);
        prop_assert_eq!(cm.rpc_escalations, 0);
        prop_assert_eq!(cm.cell_crashes, 0);
    }
}

//! Property tests for fault injection at the cell boundary: under *any*
//! fault mix the federation never loses a job and never breaks its fleet
//! invariants, and the default (inactive) chaos config is bit-identical
//! to the plain federation.

mod common;

use cluster::ChaosConfig;
use common::{det_sim, plain, problems, run, small_workload};
use desim::SimTime;
use proptest::prelude::*;
use telemetry::Telemetry;

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
        let (resources, jobs) = small_workload(n_jobs, 4, wl_seed);
        let n = jobs.len();
        let (m, fed) = run(&det_sim(), cells, &chaos, &Telemetry::disabled(), &resources, jobs);
        let found = problems(&m, &fed);
        prop_assert!(found.is_empty(), "invariant violations: {:#?}", found);
        prop_assert_eq!(m.arrived, n);
    }

    /// The identity anchor: `ChaosConfig::default()` is inactive, and an
    /// inactive config must leave the federation bit-identical to a plain
    /// [`Federation::new`] — same signature, same routing counters.
    #[test]
    fn default_chaos_is_bit_identical_to_plain(
        cells in 1usize..=3,
        n_jobs in 4usize..=16,
        wl_seed in 0u64..=1_000,
        chaos_seed in 0u64..=u64::MAX,
    ) {
        let chaos = ChaosConfig { seed: chaos_seed, ..Default::default() };
        prop_assert!(!chaos.is_active());
        let (resources, jobs) = small_workload(n_jobs, 4, wl_seed);
        let (base, base_fed) = plain(&det_sim(), cells, &resources, jobs.clone());
        let (m, fed) = run(&det_sim(), cells, &chaos, &Telemetry::disabled(), &resources, jobs);
        let found = problems(&m, &fed);
        prop_assert!(found.is_empty(), "{:#?}", found);
        prop_assert_eq!(
            base.deterministic_signature(),
            m.deterministic_signature()
        );
        let (base_cm, cm) = (base_fed.cluster_metrics(), fed.cluster_metrics());
        prop_assert_eq!(&base_cm.jobs_routed, &cm.jobs_routed);
        prop_assert_eq!(base_cm.spills, cm.spills);
        prop_assert_eq!(base_cm.migrations, cm.migrations);
        prop_assert_eq!(base_cm.rounds, cm.rounds);
        prop_assert_eq!(cm.rpc_drops, 0);
        prop_assert_eq!(cm.rpc_escalations, 0);
        prop_assert_eq!(cm.cell_crashes, 0);
    }
}

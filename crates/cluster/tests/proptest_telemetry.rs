//! The telemetry bit-exactness contract (DESIGN.md §5k): telemetry is
//! strictly observational, so a run with live instruments and a tailing
//! subscriber must produce a `deterministic_signature` bit-identical to
//! the same run with telemetry disabled — under any fault mix, with and
//! without durable stores underneath.

mod common;

use cluster::ChaosConfig;
use common::{det_sim, problems, run, run_durable, small_workload};
use desim::SimTime;
use durability::{scratch_dir, DurabilityConfig, StoreConfig, WalConfig};
use proptest::prelude::*;
use telemetry::{EventFilter, Telemetry, DEFAULT_QUEUE_CAP};

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
        let (resources, jobs) = small_workload(n_jobs, 4, wl_seed);
        let off = Telemetry::disabled();
        let (dark, dark_fed) = run(&det_sim(), cells, &chaos, &off, &resources, jobs.clone());
        let tel = Telemetry::new();
        let tail = tel.bus.subscribe(EventFilter::default(), DEFAULT_QUEUE_CAP);
        let (live, live_fed) = run(&det_sim(), cells, &chaos, &tel, &resources, jobs);

        let found = [problems(&dark, &dark_fed), problems(&live, &live_fed)].concat();
        prop_assert!(found.is_empty(), "{:#?}", found);
        prop_assert_eq!(
            dark.deterministic_signature(),
            live.deterministic_signature(),
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
        let (resources, jobs) = small_workload(n_jobs, 4, wl_seed);
        let durability = DurabilityConfig {
            store: StoreConfig {
                snapshot_every: 8,
                wal: WalConfig::default(),
            },
            ..Default::default()
        };

        let sim = det_sim();
        let dir_a = scratch_dir(&format!("tel-prop-off-{case:x}"));
        let off = Telemetry::disabled();
        let (dark, dark_fed) =
            run_durable(&sim, cells, &chaos, &off, &resources, jobs.clone(), &dir_a, durability);
        let _ = std::fs::remove_dir_all(&dir_a);

        let tel = Telemetry::new();
        let dir_b = scratch_dir(&format!("tel-prop-on-{case:x}"));
        let (live, live_fed) =
            run_durable(&sim, cells, &chaos, &tel, &resources, jobs, &dir_b, durability);
        let _ = std::fs::remove_dir_all(&dir_b);

        let found = [
            problems(&dark, dark_fed.federation()),
            problems(&live, live_fed.federation()),
        ]
        .concat();
        prop_assert!(found.is_empty(), "{:#?}", found);
        prop_assert_eq!(
            dark.deterministic_signature(),
            live.deterministic_signature(),
            "live telemetry perturbed the durable run"
        );
        prop_assert_eq!(tel.bus.dropped_events(), 0);
    }
}

//! Property tests for the workload generators: every generated job is
//! valid, respects its configured bounds, and round-trips through the JSON
//! trace format losslessly.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use workload::trace::Trace;
use workload::{FacebookConfig, FacebookGenerator, SyntheticConfig, SyntheticGenerator};

fn synth_config() -> impl Strategy<Value = SyntheticConfig> {
    (
        1i64..=20,      // max maps
        1i64..=20,      // max reduces
        1i64..=60,      // e_max
        0.0f64..=1.0,   // p
        1i64..=10_000,  // s_max
        1.0f64..=10.0,  // d_M
        0.001f64..=0.5, // lambda
        1u32..=10,      // resources
        1u32..=3,       // map cap
        1u32..=3,       // reduce cap
    )
        .prop_map(
            |(mm, mr, e_max, p, s_max, d_m, lambda, m, cm, cr)| SyntheticConfig {
                maps_per_job: (1, mm),
                reduces_per_job: (1, mr),
                e_max,
                p_future_start: p,
                s_max,
                deadline_multiplier: d_m,
                lambda,
                resources: m,
                map_capacity: cm,
                reduce_capacity: cr,
                arrival: Default::default(),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Table 3 generator: validity + configured bounds for arbitrary configs.
    #[test]
    fn synthetic_jobs_valid_for_any_config(cfg in synth_config(), seed in 0u64..1000) {
        let mut gen = SyntheticGenerator::new(cfg.clone(), StdRng::seed_from_u64(seed));
        let jobs = gen.take_jobs(25);
        let mut prev_arrival = desim::SimTime::ZERO;
        for j in &jobs {
            j.validate().unwrap();
            prop_assert!(j.map_tasks.len() as i64 <= cfg.maps_per_job.1);
            prop_assert!(j.reduce_tasks.len() as i64 <= cfg.reduces_per_job.1);
            prop_assert!(j.arrival >= prev_arrival);
            prev_arrival = j.arrival;
            for t in &j.map_tasks {
                prop_assert!(t.exec_time.as_millis() <= cfg.e_max * 1000);
            }
            let off = (j.earliest_start - j.arrival).as_millis() / 1000;
            prop_assert!(off <= cfg.s_max);
        }
    }

    /// Facebook generator: validity + scaled type counts for arbitrary
    /// scales.
    #[test]
    fn facebook_jobs_valid_for_any_scale(
        scale in 0.01f64..=1.0,
        lambda in 0.0001f64..=0.01,
        seed in 0u64..1000,
    ) {
        let cfg = FacebookConfig {
            lambda,
            task_scale: scale,
            resources: 4,
            ..Default::default()
        };
        let mut gen = FacebookGenerator::new(cfg.clone(), StdRng::seed_from_u64(seed));
        for j in gen.take_jobs(30) {
            j.validate().unwrap();
            prop_assert!(j.earliest_start == j.arrival, "facebook has p = 0");
            prop_assert!(!j.map_tasks.is_empty());
        }
    }

    /// Traces survive a JSON round trip bit-exactly.
    #[test]
    fn trace_round_trip_lossless(cfg in synth_config(), seed in 0u64..1000) {
        let mut gen = SyntheticGenerator::new(cfg.clone(), StdRng::seed_from_u64(seed));
        let jobs = gen.take_jobs(8);
        let t = Trace::new("prop", cfg.cluster(), jobs);
        t.validate().unwrap();
        let back = Trace::from_json(&t.to_json()).unwrap();
        prop_assert_eq!(t, back);
    }
}

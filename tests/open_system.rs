#![allow(clippy::field_reassign_with_default)]
//! Cross-crate integration tests: the full open-system pipeline
//! (generator → MRCP-RM → CP solver → simulator → metrics) and its
//! agreement with the baselines on common inputs.

use baselines::{DispatchRm, Policy};
use desim::RngStreams;
use mrcp::sim_driver::simulate_detailed;
use mrcp::{simulate, simulate_with, MrcpConfig, RunMetrics, SimConfig};
use workload::{
    FacebookConfig, FacebookGenerator, Job, Resource, SyntheticConfig, SyntheticGenerator,
};

fn synth_cfg() -> SyntheticConfig {
    SyntheticConfig {
        maps_per_job: (1, 8),
        reduces_per_job: (1, 4),
        e_max: 20,
        resources: 4,
        lambda: 0.02,
        ..Default::default()
    }
}

fn synth_jobs(cfg: &SyntheticConfig, n: usize, seed: u64) -> Vec<workload::Job> {
    let rng = RngStreams::new(seed).stream("it");
    SyntheticGenerator::new(cfg.clone(), rng).take_jobs(n)
}

fn baseline(policy: Policy, cluster: &[Resource], jobs: Vec<Job>) -> RunMetrics {
    let (m, _, _) = simulate_with(&SimConfig::default(), cluster, jobs, |c| {
        DispatchRm::new(policy, c, cluster.to_vec())
    });
    m
}

/// The open-system pipeline drains and its metrics are internally
/// consistent.
#[test]
fn pipeline_metrics_are_consistent() {
    let cfg = synth_cfg();
    let jobs = synth_jobs(&cfg, 60, 1);
    let (m, outcomes) = simulate_detailed(&SimConfig::default(), &cfg.cluster(), jobs);
    assert_eq!(m.arrived, 60);
    assert_eq!(m.completed, 60);
    assert_eq!(outcomes.len(), 60);
    // N equals the count of late outcomes; P = N / measured.
    let late = outcomes.iter().filter(|o| o.late).count();
    assert_eq!(m.late, late);
    assert!((m.p_late - late as f64 / 60.0).abs() < 1e-12);
    // Completions never precede earliest starts; late flags match deadlines.
    for o in &outcomes {
        assert!(o.completion >= o.earliest_start);
        assert_eq!(o.late, o.completion > o.deadline);
    }
    // Completion order is nondecreasing in time.
    for w in outcomes.windows(2) {
        assert!(w[1].completion >= w[0].completion);
    }
}

/// Every job completes under every scheduler on the same workload.
#[test]
fn all_schedulers_drain_common_workload() {
    let cfg = FacebookConfig {
        lambda: 3e-4,
        task_scale: 0.02,
        resources: 2,
        ..Default::default()
    };
    let rng = RngStreams::new(5).stream("it");
    let jobs = FacebookGenerator::new(cfg.clone(), rng).take_jobs(60);

    let m = simulate(&SimConfig::default(), &cfg.cluster(), jobs.clone());
    assert_eq!(m.completed, 60, "MRCP-RM drains");

    for policy in [Policy::MinEdfWc, Policy::MinEdf, Policy::Edf, Policy::Fcfs] {
        let b = baseline(policy, &cfg.cluster(), jobs.clone());
        assert_eq!(b.completed, 60, "{policy:?} drains");
    }
}

/// MRCP-RM beats (or at worst ties) MinEDF-WC on the Fig. 2 configuration
/// — the paper's headline claim, checked end to end over several seeds.
#[test]
fn mrcp_beats_minedf_wc_on_fig2_setup() {
    let cfg = FacebookConfig {
        lambda: 3e-4,
        task_scale: 0.05,
        resources: 3,
        ..Default::default()
    };
    let mut mrcp_total = 0usize;
    let mut base_total = 0usize;
    for rep in 0..3u64 {
        let rng = RngStreams::for_replication(99, rep).stream("it");
        let jobs = FacebookGenerator::new(cfg.clone(), rng).take_jobs(120);
        let m = simulate(&SimConfig::default(), &cfg.cluster(), jobs.clone());
        let b = baseline(Policy::MinEdfWc, &cfg.cluster(), jobs);
        mrcp_total += m.late;
        base_total += b.late;
    }
    assert!(
        mrcp_total <= base_total,
        "MRCP-RM late {mrcp_total} should not exceed MinEDF-WC late {base_total}"
    );
}

/// Schedules installed by the manager are audited by the independent
/// verifier when `verify_schedules` is on (here: forced on in release too).
#[test]
fn verified_schedules_run_clean() {
    let cfg = synth_cfg();
    let jobs = synth_jobs(&cfg, 30, 4);
    let mut sim = SimConfig::default();
    sim.manager = MrcpConfig {
        verify_schedules: true,
        ..Default::default()
    };
    let m = simulate(&sim, &cfg.cluster(), jobs);
    assert_eq!(m.completed, 30);
}

/// Determinism across the whole pipeline: identical inputs → identical
/// simulated outcomes (wall-clock overhead excluded).
#[test]
fn pipeline_is_deterministic() {
    let cfg = synth_cfg();
    let jobs = synth_jobs(&cfg, 50, 6);
    let (a, ao) = simulate_detailed(&SimConfig::default(), &cfg.cluster(), jobs.clone());
    let (b, bo) = simulate_detailed(&SimConfig::default(), &cfg.cluster(), jobs);
    assert_eq!(ao, bo, "per-job outcomes must match exactly");
    assert_eq!(a.late, b.late);
    assert_eq!(a.invocations, b.invocations);
    assert_eq!(a.mean_turnaround_s, b.mean_turnaround_s);
}

//! Fixtures the federation integration tests share: a wall-clock-free
//! manager, a small open workload, one run of a memory-only or durable
//! federation, and what a finished run must satisfy.

// Each test binary uses its own subset.
#![allow(dead_code)]

use cluster::{ChaosConfig, ClusterConfig, DurableFederation, Federation};
use durability::DurabilityConfig;
use mrcp::{simulate_with, MrcpConfig, ResourceManager, RunMetrics, SimConfig, SolveBudget};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use telemetry::Telemetry;
use workload::{Job, Resource, SyntheticConfig, SyntheticGenerator};

/// A fully deterministic manager: one portfolio worker and no wall-clock
/// budget, so two runs of one workload compare bit-exactly.
pub fn det_sim() -> SimConfig {
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

/// `n` small jobs arriving at rate `lambda` on `m` resources.
pub fn workload(n: usize, m: u32, lambda: f64, seed: u64) -> (Vec<Resource>, Vec<Job>) {
    let cfg = SyntheticConfig {
        maps_per_job: (1, 6),
        reduces_per_job: (1, 3),
        e_max: 10,
        lambda,
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

/// [`workload`] at one arrival every 20 s.
pub fn small_workload(n: usize, m: u32, seed: u64) -> (Vec<Resource>, Vec<Job>) {
    workload(n, m, 0.05, seed)
}

/// A fleet of `cells` cells with the default rebalancer.
pub fn fleet(cells: usize) -> ClusterConfig {
    ClusterConfig {
        cells,
        ..Default::default()
    }
}

/// Run `jobs` through a plain memory-only federation of `cells` cells.
pub fn plain(
    sim: &SimConfig,
    cells: usize,
    resources: &[Resource],
    jobs: Vec<Job>,
) -> (RunMetrics, Federation) {
    let (metrics, _, fed) = simulate_with(sim, resources, jobs, |c| {
        Federation::new(&fleet(cells), c, resources.to_vec())
    });
    (metrics, fed)
}

/// Run `jobs` through a memory-only federation of `cells` cells whose
/// boundary injects `chaos`, with `tel` attached.
pub fn run(
    sim: &SimConfig,
    cells: usize,
    chaos: &ChaosConfig,
    tel: &Telemetry,
    resources: &[Resource],
    jobs: Vec<Job>,
) -> (RunMetrics, Federation) {
    let (metrics, _, fed) = simulate_with(sim, resources, jobs, |c| {
        let mut fed = Federation::with_chaos(&fleet(cells), c, resources.to_vec(), chaos);
        fed.set_telemetry(tel);
        fed
    });
    (metrics, fed)
}

/// [`run`] over a [`DurableFederation`] rooted at `dir`.
#[allow(clippy::too_many_arguments)]
pub fn run_durable(
    sim: &SimConfig,
    cells: usize,
    chaos: &ChaosConfig,
    tel: &Telemetry,
    resources: &[Resource],
    jobs: Vec<Job>,
    dir: &Path,
    durability: DurabilityConfig,
) -> (RunMetrics, DurableFederation) {
    let (metrics, _, fed) = simulate_with(sim, resources, jobs, |c| {
        let mut fed = DurableFederation::new(&fleet(cells), c, resources.to_vec(), dir, durability);
        fed.enable_chaos(chaos);
        fed.set_telemetry(tel);
        fed
    });
    (metrics, fed)
}

/// Everything wrong with a finished run (empty on a correct one): what
/// the per-round audit recorded, the fleet audited once more at drain,
/// jobs left in the system, and a conservation gap.
pub fn problems(metrics: &RunMetrics, fed: &Federation) -> Vec<String> {
    let mut found = fed.violations().to_vec();
    found.extend(fed.audit());
    if fed.jobs_in_system() != 0 {
        found.push(format!(
            "run ended with {} jobs still in the system",
            fed.jobs_in_system()
        ));
    }
    found.extend(metrics.check_conservation().err());
    found
}

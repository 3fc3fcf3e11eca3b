//! `SolveBudget::workers` is inert: the split rung's search runs once per
//! round on the calling thread, whatever the field says.

use mrcp::{simulate_with, MrcpRm, ResourceManager, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use workload::{ArrivalConfig, SyntheticConfig, SyntheticGenerator};

/// Four workers and one give the same run, node for node, on a small
/// overloaded cluster whose rounds have late jobs to search over.
#[test]
fn four_workers_run_as_one() {
    let gen = SyntheticConfig {
        maps_per_job: (1, 6),
        reduces_per_job: (1, 3),
        e_max: 10,
        lambda: 0.2,
        resources: 2,
        map_capacity: 2,
        reduce_capacity: 1,
        p_future_start: 0.0,
        s_max: 1,
        deadline_multiplier: 2.0,
        arrival: ArrivalConfig::default(),
    };
    let cluster = gen.cluster();
    let jobs = SyntheticGenerator::new(gen, StdRng::seed_from_u64(5)).take_jobs(60);
    let run = |workers: usize| {
        let mut cfg = SimConfig::default();
        cfg.manager.budget.workers = workers;
        let (metrics, _, rm) = simulate_with(&cfg, &cluster, jobs.clone(), |c| {
            MrcpRm::new(c, cluster.clone())
        });
        (metrics.deterministic_signature(), rm.stats().total_nodes)
    };
    let (one, one_nodes) = run(1);
    let (four, four_nodes) = run(4);
    assert!(one.late > 0, "no late job: no round searched");
    assert!(one_nodes > 0, "no round searched");
    assert_eq!(four, one);
    assert_eq!(four_nodes, one_nodes);
}

//! Capacity planning with one scheduling round of the manager.
//!
//! Given a nightly batch of SLA-bearing MapReduce jobs, how many nodes does
//! the cluster need before every deadline is met? This sweeps the cluster
//! size, submits the whole batch to a fresh MRCP-RM per size and reports
//! the late jobs of its first plan — the paper's Fig. 9 question (effect of
//! the number of resources) answered as a planning question.
//!
//! ```text
//! cargo run --release --example capacity_planning [n_jobs]
//! ```

use desim::RngStreams;
use mrcp::{MrcpConfig, MrcpRm, ResourceManager, SolveBudget};
use workload::{SyntheticConfig, SyntheticGenerator};

fn main() {
    let n_jobs: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("n_jobs must be an integer"))
        .unwrap_or(25);

    // A batch of moderately tight jobs (Table 3 shape, shrunk, deadline
    // multiplier 2 → little slack). All jobs are available at t=0.
    let base = SyntheticConfig {
        maps_per_job: (1, 12),
        reduces_per_job: (1, 6),
        e_max: 30,
        deadline_multiplier: 2.0,
        p_future_start: 0.0,
        lambda: 1000.0, // batch: arrivals effectively simultaneous
        resources: 8,   // overwritten by the sweep
        map_capacity: 2,
        reduce_capacity: 2,
        ..Default::default()
    };
    let cfg = MrcpConfig {
        budget: SolveBudget {
            node_limit: 50_000,
            fail_limit: 50_000,
            ..Default::default()
        },
        ..Default::default()
    };

    println!("batch of {n_jobs} jobs, sweeping cluster size m (2 map + 2 reduce slots per node)\n");
    println!(
        "{:>4} {:>10} {:>12} {:>12} {:>10}",
        "m", "late jobs", "P", "status", "nodes"
    );

    let mut first_zero = None;
    for m in [2u32, 4, 6, 8, 12, 16, 24] {
        let synth = SyntheticConfig {
            resources: m,
            ..base.clone()
        };
        // Same batch for every cluster size: common random numbers make the
        // sweep monotone instead of noisy.
        let rng = RngStreams::new(77).stream("batch");
        let jobs = SyntheticGenerator::new(synth.clone(), rng).take_jobs(n_jobs);
        // Plan once every job has arrived, so none is deferred.
        let now = jobs
            .iter()
            .map(|j| j.earliest_start)
            .max()
            .unwrap_or_default();
        let mut rm = MrcpRm::new(cfg, synth.cluster());
        for job in jobs {
            rm.submit(job, now).expect("fresh job ids");
        }
        rm.reschedule(now);

        let late = rm
            .planned_unstarted_jobs()
            .iter()
            .filter(|p| p.planned_completion > p.deadline)
            .count();
        let stats = rm.stats();
        let status = if stats.failed_rounds > 0 {
            "Failed"
        } else if stats.degraded_rounds > 0 {
            "Degraded"
        } else if stats.optimal_rounds > 0 {
            "Optimal"
        } else if stats.feasible_rounds > 0 {
            "Feasible"
        } else {
            "Unknown"
        };
        println!(
            "{m:>4} {late:>10} {:>11.1}% {status:>12} {:>10}",
            late as f64 / n_jobs as f64 * 100.0,
            stats.total_nodes,
        );
        if late == 0 && first_zero.is_none() {
            first_zero = Some(m);
        }
    }

    match first_zero {
        Some(m) => println!("\n→ the batch meets every SLA from m = {m} nodes upward"),
        None => println!("\n→ even the largest swept cluster misses deadlines; widen the sweep"),
    }
    println!("(paper's Fig. 9: P and T increase as m shrinks — the same effect, answered as a planning question)");
}

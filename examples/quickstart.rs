//! Quickstart: submit a handful of MapReduce jobs with SLAs to MRCP-RM and
//! watch it schedule them on a small cluster.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use desim::SimTime;
use mrcp::{simulate, SimConfig};
use workload::model::homogeneous_cluster;
use workload::{Job, JobId, Task, TaskId, TaskKind};

/// Hand-build one MapReduce job with an SLA.
fn job(
    id: u32,
    arrival_s: i64,
    start_s: i64,
    deadline_s: i64,
    maps: &[i64],
    reduces: &[i64],
) -> Job {
    let mut next_task = id * 100;
    let mut mk = |kind, secs: i64| {
        let t = Task {
            id: TaskId(next_task),
            job: JobId(id),
            kind,
            exec_time: SimTime::from_secs(secs),
            req: 1,
        };
        next_task += 1;
        t
    };
    Job {
        id: JobId(id),
        arrival: SimTime::from_secs(arrival_s),
        earliest_start: SimTime::from_secs(start_s),
        deadline: SimTime::from_secs(deadline_s),
        map_tasks: maps.iter().map(|&s| mk(TaskKind::Map, s)).collect(),
        reduce_tasks: reduces.iter().map(|&s| mk(TaskKind::Reduce, s)).collect(),
    }
}

fn main() {
    // A 4-node cluster, 2 map + 2 reduce slots per node (Table 3's shape).
    let cluster = homogeneous_cluster(4, 2, 2);

    // Three jobs with different SLA pressure:
    //  - a relaxed ETL job,
    //  - an urgent ad-hoc query arriving later,
    //  - an advance-reservation (AR) job whose earliest start lies in the
    //    future — the SLA shape this paper adds over prior deadline work.
    let jobs = vec![
        job(0, 0, 0, 400, &[30, 30, 30, 30, 30, 30], &[40, 40]),
        job(1, 10, 10, 90, &[20, 20, 20], &[15]),
        job(2, 20, 120, 260, &[25, 25, 25, 25], &[30]),
    ];

    println!("cluster : 4 nodes × (2 map + 2 reduce slots)");
    for j in &jobs {
        println!(
            "submit  : {} arrives {}  s_j {}  d_j {}  ({} maps, {} reduces)",
            j.id,
            j.arrival,
            j.earliest_start,
            j.deadline,
            j.map_tasks.len(),
            j.reduce_tasks.len()
        );
    }

    // Run the open-system simulation: jobs arrive over time, MRCP-RM
    // builds and solves a CP model on each arrival, pinning running tasks.
    let metrics = simulate(&SimConfig::default(), &cluster, jobs);

    println!();
    println!("jobs completed      : {}", metrics.completed);
    println!("late jobs (N)       : {}", metrics.late);
    println!("proportion late (P) : {:.1}%", metrics.p_late * 100.0);
    println!("mean turnaround (T) : {:.1}s", metrics.mean_turnaround_s);
    println!(
        "scheduler overhead  : {:.3}ms per job (O)",
        metrics.o_per_job_s * 1e3
    );
    println!("scheduling rounds   : {}", metrics.invocations);

    assert_eq!(metrics.completed, 3, "all jobs must finish");
    assert_eq!(metrics.late, 0, "this little workload fits its SLAs");
    println!("\nall SLAs met ✔");
}

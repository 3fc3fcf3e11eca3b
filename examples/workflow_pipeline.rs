//! Workflow (DAG) scheduling — the paper's §VII future-work extension.
//!
//! Builds a small ETL-style pipeline as a single job with user-specified
//! precedence edges (ingest → clean → join → summarize) alongside ordinary
//! MapReduce jobs, and lets MRCP-RM schedule the mix. The installed
//! schedule is audited against the full CP model, so the printed plan is
//! guaranteed to respect every edge, the phase barrier, the SLA window and
//! all slot capacities.
//!
//! ```text
//! cargo run --release --example workflow_pipeline
//! ```

use desim::SimTime;
use mrcp::gantt;
use mrcp::{MrcpConfig, MrcpRm, ResourceManager};
use workload::model::homogeneous_cluster;
use workload::workflow::WorkflowBuilder;
use workload::{Job, JobId, Task, TaskId, TaskKind};

fn plain_job(id: u32, base: u32, deadline_s: i64, maps: &[i64]) -> Job {
    let mut next = base;
    Job {
        id: JobId(id),
        arrival: SimTime::ZERO,
        earliest_start: SimTime::ZERO,
        deadline: SimTime::from_secs(deadline_s),
        map_tasks: maps
            .iter()
            .map(|&s| {
                let t = Task {
                    id: TaskId(next),
                    job: JobId(id),
                    kind: TaskKind::Map,
                    exec_time: SimTime::from_secs(s),
                    req: 1,
                };
                next += 1;
                t
            })
            .collect(),
        reduce_tasks: vec![],
        precedences: vec![],
    }
}

fn main() {
    // The pipeline: two independent ingest stages, a cleaning stage behind
    // the first, a join behind both branches, and a reduce summariser
    // (which the barrier already forces behind every map).
    let mut wf = WorkflowBuilder::new(
        JobId(0),
        0,
        SimTime::ZERO,
        SimTime::ZERO,
        SimTime::from_secs(120),
    );
    let ingest_a = wf.task(TaskKind::Map, SimTime::from_secs(20));
    let ingest_b = wf.task(TaskKind::Map, SimTime::from_secs(15));
    let clean = wf.task(TaskKind::Map, SimTime::from_secs(10));
    let join = wf.task(TaskKind::Map, SimTime::from_secs(12));
    wf.after(ingest_a, clean);
    wf.after(clean, join);
    wf.after(ingest_b, join);
    let summarize = wf.task(TaskKind::Reduce, SimTime::from_secs(8));
    let pipeline = wf.build().expect("valid workflow");

    println!("pipeline tasks:");
    println!("  {ingest_a} ingest-A (20s) ──► {clean} clean (10s) ──► {join} join (12s)");
    println!("  {ingest_b} ingest-B (15s) ─────────────────────────► {join}");
    println!("  {summarize} summarize (reduce, 8s) — after all maps (barrier)");
    println!("SLA: complete by t=120s\n");

    // Two ordinary jobs compete for the same 2-node cluster.
    let competing = vec![
        plain_job(1, 100, 90, &[25, 25]),
        plain_job(2, 200, 200, &[30]),
    ];

    let cluster = homogeneous_cluster(2, 1, 1);
    let mut rm = MrcpRm::new(
        MrcpConfig {
            verify_schedules: true,
            ..Default::default()
        },
        cluster,
    );
    rm.submit(pipeline, SimTime::ZERO).unwrap();
    for j in competing {
        rm.submit(j, SimTime::ZERO).unwrap();
    }
    let plan = rm.reschedule(SimTime::ZERO);

    println!("installed (audited) schedule:");
    for e in &plan {
        println!(
            "  t={:>4}  {}  task {:<4} on {}  (ends {})",
            e.start.to_string(),
            e.job,
            e.task.to_string(),
            e.resource,
            e.end
        );
    }

    // The same plan as a per-slot Gantt chart (digits = job ids).
    let kind_of: std::collections::HashMap<_, _> = plan
        .iter()
        .map(|e| {
            let k = if e.task == summarize {
                TaskKind::Reduce
            } else {
                TaskKind::Map
            };
            (e.task, k)
        })
        .collect();
    println!();
    print!(
        "{}",
        gantt::render(rm.resources(), &plan, &|t| kind_of[&t], 64)
            .expect("plan came from an audited round")
    );

    // Demonstrate the edges held.
    let start_of = |t: TaskId| plan.iter().find(|e| e.task == t).unwrap().start;
    let end_of = |t: TaskId| plan.iter().find(|e| e.task == t).unwrap().end;
    assert!(start_of(clean) >= end_of(ingest_a));
    assert!(start_of(join) >= end_of(clean));
    assert!(start_of(join) >= end_of(ingest_b));
    assert!(start_of(summarize) >= end_of(join));
    println!("\nall precedence edges respected ✔ (schedule verified against the CP model)");
}

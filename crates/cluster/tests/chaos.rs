//! Chaos-harness end-to-end tests: fault injection at the cell boundary
//! must never lose a job or break the fleet invariants, an inactive
//! chaos config must be bit-identical to the plain federation, and a
//! durable federation must rehydrate crashed cells from their WALs.

mod common;

use cluster::{ChaosConfig, DurableFederation, Federation};
use common::{det_sim, fleet, plain, problems, run, run_durable, small_workload};
use desim::SimTime;
use durability::{scratch_dir, DurabilityConfig, StoreConfig, WalConfig};
use mrcp::{MrcpConfig, ResourceManager};
use telemetry::{EventFilter, Telemetry, DEFAULT_QUEUE_CAP};
use workload::model::homogeneous_cluster;
use workload::{Job, JobId, Task, TaskId, TaskKind};

fn off() -> Telemetry {
    Telemetry::disabled()
}

#[test]
fn inactive_chaos_is_bit_identical_to_plain_federation() {
    let (resources, jobs) = small_workload(25, 4, 42);
    let (base, base_fed) = plain(&det_sim(), 2, &resources, jobs.clone());
    let (m, fed) = run(
        &det_sim(),
        2,
        &ChaosConfig::default(),
        &off(),
        &resources,
        jobs,
    );
    assert_eq!(problems(&m, &fed), Vec::<String>::new());
    assert_eq!(
        base.deterministic_signature(),
        m.deterministic_signature(),
        "an inactive chaos config changed the outcome"
    );
    let (base_cm, cm) = (base_fed.cluster_metrics(), fed.cluster_metrics());
    assert_eq!(base_cm.jobs_routed, cm.jobs_routed);
    assert_eq!(base_cm.spills, cm.spills);
    assert_eq!(base_cm.migrations, cm.migrations);
    assert_eq!(cm.rpc_drops + cm.rpc_timeouts + cm.rpc_escalations, 0);
    assert_eq!(cm.cell_crashes, 0);
    assert!((cm.retry_amplification() - 1.0).abs() < f64::EPSILON);
}

#[test]
fn duplicated_deliveries_are_absorbed_by_dedup() {
    // Every delivery arrives twice; the cell-side dedup must absorb the
    // copies so the outcome is bit-identical to the fault-free run.
    let chaos = ChaosConfig {
        dup_prob: 1.0,
        seed: 5,
        ..Default::default()
    };
    let (resources, jobs) = small_workload(25, 4, 42);
    let (base, _) = plain(&det_sim(), 2, &resources, jobs.clone());
    let (m, fed) = run(&det_sim(), 2, &chaos, &off(), &resources, jobs);
    assert_eq!(problems(&m, &fed), Vec::<String>::new());
    assert_eq!(
        base.deterministic_signature(),
        m.deterministic_signature(),
        "duplicated deliveries leaked into the schedule"
    );
    let cm = fed.cluster_metrics();
    assert!(cm.rpc_dedup_hits > 0, "dup_prob=1 must hit the dedup");
}

#[test]
fn lossy_boundary_retries_and_still_conserves_jobs() {
    let chaos = ChaosConfig {
        drop_prob: 0.25,
        hang_prob: 0.05,
        mean_latency: Some(SimTime::from_millis(20)),
        call_deadline: SimTime::from_millis(250),
        seed: 9,
        ..Default::default()
    };
    let (resources, jobs) = small_workload(30, 6, 7);
    let (m, fed) = run(&det_sim(), 3, &chaos, &off(), &resources, jobs);
    assert_eq!(problems(&m, &fed), Vec::<String>::new());
    let cm = fed.cluster_metrics();
    assert!(cm.rpc_drops > 0, "drop_prob=0.25 must drop something");
    assert!(cm.rpc_retries > 0, "drops must trigger retries");
    assert!(
        cm.retry_amplification() > 1.0,
        "retries must amplify attempts past commands"
    );
}

#[test]
fn cell_crashes_fail_over_and_rejoin() {
    let chaos = ChaosConfig {
        cell_mttf: Some(SimTime::from_secs(60)),
        cell_mttr: Some(SimTime::from_secs(30)),
        seed: 3,
        ..Default::default()
    };
    let (resources, jobs) = small_workload(40, 6, 11);
    let (m, fed) = run(&det_sim(), 3, &chaos, &off(), &resources, jobs);
    assert_eq!(problems(&m, &fed), Vec::<String>::new());
    let cm = fed.cluster_metrics();
    assert!(cm.cell_crashes > 0, "MTTF=60s over this run must crash");
    assert!(cm.cell_restores > 0, "crashed cells must be restored");
    assert_eq!(
        cm.failover_latencies_ms.len(),
        cm.failovers as usize,
        "one latency sample per failed-over job"
    );
    assert_eq!(
        cm.restore_latencies_ms.len() as u64,
        cm.cell_restores,
        "one latency sample per restore"
    );
}

/// Once with every record synced on append, and once with a cell log
/// whose unsynced tail is still batched in memory when its cell crashes.
#[test]
fn durable_federation_rehydrates_crashed_cells_from_wal() {
    let chaos = ChaosConfig {
        cell_mttf: Some(SimTime::from_secs(60)),
        cell_mttr: Some(SimTime::from_secs(30)),
        seed: 13,
        ..Default::default()
    };
    for wal in [WalConfig::default(), WalConfig { sync_every: 8 }] {
        let (resources, jobs) = small_workload(30, 4, 19);
        let dir = scratch_dir("chaos-rehydrate");
        let durability = DurabilityConfig {
            store: StoreConfig {
                snapshot_every: 16,
                wal,
            },
            ..Default::default()
        };
        let (m, d) = run_durable(
            &det_sim(),
            2,
            &chaos,
            &off(),
            &resources,
            jobs,
            &dir,
            durability,
        );
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(problems(&m, d.federation()), Vec::<String>::new());
        let cm = d.federation().cluster_metrics();
        assert!(cm.cell_crashes > 0, "MTTF=60s over this run must crash");
        assert!(
            cm.rehydrations > 0,
            "a durable federation must rebuild crashed cells from the store"
        );
        assert_eq!(
            cm.rehydrate_mismatches, 0,
            "WAL replay diverged from the live fleet state ({wal:?})"
        );
    }
}

/// Fault injection belongs to the cell boundary, not to the manager
/// process: a whole-fleet crash and recovery must leave it on. With every
/// delivery dropped, a submit issued after the recovery still exhausts its
/// retries and escalates — before the boundary moved into the rebuilt
/// fleet, its first attempt simply landed.
#[test]
fn fleet_recovery_keeps_fault_injection_on() {
    let chaos = ChaosConfig {
        drop_prob: 1.0,
        seed: 2,
        ..Default::default()
    };
    let (resources, mut jobs) = small_workload(2, 4, 5);
    let dir = scratch_dir("chaos-fleet-recovery");
    let mut fed = DurableFederation::new(
        &fleet(2),
        det_sim().manager,
        resources,
        &dir,
        DurabilityConfig::default(),
    );
    fed.enable_chaos(&chaos);
    let second = jobs.pop().unwrap();
    let first = jobs.pop().unwrap();

    let t = first.arrival;
    fed.submit_with_admission(first, t).unwrap();
    let before = fed.federation().cluster_metrics().clone();
    assert!(before.rpc_retries > 0 && before.rpc_escalations > 0);

    assert!(fed.crash_and_recover(t));
    let recovered = fed.federation().cluster_metrics().clone();
    let t = second.arrival;
    fed.submit_with_admission(second, t).unwrap();
    let after = fed.federation().cluster_metrics();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        after.rpc_retries > recovered.rpc_retries,
        "no retry after the recovery: fault injection was switched off"
    );
    assert!(after.rpc_escalations > recovered.rpc_escalations);
    assert_eq!(fed.jobs_in_system(), 2);
}

/// A lossy boundary and whole-fleet crashes together: the run still
/// conserves every job and keeps the fleet invariants after every round.
#[test]
fn chaos_with_fleet_crashes_conserves_jobs() {
    let chaos = ChaosConfig {
        drop_prob: 0.2,
        dup_prob: 0.1,
        hang_prob: 0.05,
        seed: 9,
        ..Default::default()
    };
    let mut sim = det_sim();
    sim.manager_crashes = mrcp::ManagerCrashConfig {
        at_commands: vec![4, 15, 40, 90],
        ..Default::default()
    };
    let (resources, jobs) = small_workload(30, 4, 23);
    let dir = scratch_dir("chaos-fleet-crashes");
    let durability = DurabilityConfig::power_loss(StoreConfig {
        snapshot_every: 16,
        wal: WalConfig { sync_every: 2 },
    });
    let (m, d) = run_durable(&sim, 2, &chaos, &off(), &resources, jobs, &dir, durability);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(problems(&m, d.federation()), Vec::<String>::new());
    assert!(m.manager_crashes > 0, "the crash schedule fired");
    let cm = d.federation().cluster_metrics();
    assert!(
        cm.rpc_drops > 0 && cm.rpc_retries > 0,
        "the boundary stayed lossy to the end of the run"
    );
}

/// A straggler revision carries a duration, not a time. Whatever the
/// federation does for it at a faulty boundary (retries, breaker
/// transitions, forced restores) happens at the time of the `task_started`
/// the driver sends it with, so event time never runs backwards — also
/// when the fleet crashed and recovered in between, from a snapshot taken
/// after the start (`snapshot_every: 1`, so replay re-derives nothing).
#[test]
fn straggler_revision_under_faults_keeps_event_time_monotone() {
    let chaos = ChaosConfig {
        drop_prob: 1.0,
        ..Default::default()
    };
    let (mgr, resources) = (MrcpConfig::default(), homogeneous_cluster(2, 1, 1));
    let tel = Telemetry::new();
    let mut fed = Federation::with_chaos(&fleet(1), mgr, resources.clone(), &chaos);
    fed.set_telemetry(&tel);
    revise_after_start(&mut fed, &tel, false);

    let dir = scratch_dir("revise-after-crash");
    let d = DurabilityConfig::power_loss(StoreConfig {
        snapshot_every: 1,
        wal: WalConfig::default(),
    });
    let tel = Telemetry::new();
    let mut fed = DurableFederation::new(&fleet(1), mgr, resources, &dir, d);
    fed.enable_chaos(&chaos);
    fed.set_telemetry(&tel);
    revise_after_start(&mut fed, &tel, true);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Start a task at 10 s, optionally crash, then revise its duration to
/// 3 s; every event published meanwhile must be in time order.
fn revise_after_start(fed: &mut impl ResourceManager, tel: &Telemetry, crash: bool) {
    let tail = tel.bus.subscribe(EventFilter::default(), DEFAULT_QUEUE_CAP);
    let t = SimTime::from_secs(10);
    let task = TaskId(0);
    let job = Job {
        id: JobId(0),
        arrival: t,
        earliest_start: t,
        deadline: SimTime::from_secs(600),
        map_tasks: vec![Task {
            id: task,
            job: JobId(0),
            kind: TaskKind::Map,
            exec_time: SimTime::from_secs(5),
            req: 1,
        }],
        reduce_tasks: vec![],
    };
    fed.submit_with_admission(job, t).unwrap();
    let plan = fed.reschedule(t);
    assert_eq!(plan.first().map(|e| (e.task, e.start)), Some((task, t)));
    fed.task_started(task, t).unwrap();
    assert_eq!(fed.crash_and_recover(t), crash);
    fed.task_duration_revised(task, SimTime::from_secs(3))
        .unwrap();
    let events = tail.drain();
    assert!(
        !events.is_empty(),
        "drop_prob=1 must publish boundary events"
    );
    for w in events.windows(2) {
        assert!(
            w[0].at_ms <= w[1].at_ms,
            "event time ran backwards: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
}

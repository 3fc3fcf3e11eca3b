#![allow(clippy::field_reassign_with_default, clippy::type_complexity)]
//! The headline durability property: a run whose manager is killed and
//! rebuilt from disk — at arbitrary points, any number of times, with or
//! without losing the unsynced WAL tail — produces the *bit-identical*
//! [`RunMetrics::deterministic_signature`] of the uninterrupted run.
//!
//! The manager is configured deterministically (no wall-clock budget), so
//! the only thing a crash may change is solve wall time, which the
//! signature already excludes.

use desim::SimTime;
use durability::{DurabilityConfig, DurableRm, StoreConfig, WalConfig};
use mrcp::sim_driver::{simulate, simulate_with};
use mrcp::{ManagerCrashConfig, MrcpConfig, SimConfig, SolveBudget};
use proptest::prelude::*;
use telemetry::{EventFilter, EventKind, Telemetry, DEFAULT_QUEUE_CAP};
use workload::model::homogeneous_cluster;
use workload::{Job, JobId, Resource, Task, TaskId, TaskKind};

#[derive(Debug, Clone)]
struct W {
    cluster: Vec<Resource>,
    jobs: Vec<(i64, i64, i64, Vec<i64>, Vec<i64>)>,
}

fn workload() -> impl Strategy<Value = W> {
    let cluster =
        (1u32..=3, 1u32..=2, 1u32..=2).prop_map(|(m, cm, cr)| homogeneous_cluster(m, cm, cr));
    let job = (
        0i64..=40,
        0i64..=15,
        5i64..=80,
        prop::collection::vec(1i64..=6, 1..=3),
        prop::collection::vec(1i64..=4, 0..=2),
    );
    (cluster, prop::collection::vec(job, 1..=6)).prop_map(|(cluster, jobs)| W { cluster, jobs })
}

fn jobs_of(w: &W) -> Vec<Job> {
    let mut next_task = 0u32;
    let mut jobs: Vec<Job> = w
        .jobs
        .iter()
        .enumerate()
        .map(|(i, (arr, s_off, window, maps, reduces))| {
            let mut mk = |kind, secs: i64| {
                let t = Task {
                    id: TaskId(next_task),
                    job: JobId(i as u32),
                    kind,
                    exec_time: SimTime::from_secs(secs),
                    req: 1,
                };
                next_task += 1;
                t
            };
            let arrival = SimTime::from_secs(*arr);
            let start = arrival + SimTime::from_secs(*s_off);
            Job {
                id: JobId(i as u32),
                arrival,
                earliest_start: start,
                deadline: start + SimTime::from_secs(*window),
                map_tasks: maps.iter().map(|&s| mk(TaskKind::Map, s)).collect(),
                reduce_tasks: reduces.iter().map(|&s| mk(TaskKind::Reduce, s)).collect(),
            }
        })
        .collect();
    jobs.sort_by_key(|j| j.arrival);
    jobs
}

/// A fully deterministic manager: no wall-clock budget, no adaptive
/// controller — replay must retrace every solve.
fn det_config() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.manager = MrcpConfig {
        budget: SolveBudget {
            node_limit: 2_000,
            fail_limit: 2_000,
            adaptive: None,
            ..SolveBudget::default()
        },
        ..Default::default()
    };
    cfg
}

/// Crash schedules: explicit command indices, a renewal process, or both.
fn crashes() -> impl Strategy<Value = ManagerCrashConfig> {
    (
        prop::collection::vec(0u64..=60, 0..=4),
        any::<bool>(),
        1i64..=50,
        0u64..=u64::MAX,
    )
        .prop_map(|(at_commands, renewal, mttf, seed)| ManagerCrashConfig {
            at_commands,
            mttf: renewal.then(|| SimTime::from_secs(mttf)),
            seed,
        })
}

fn durability() -> impl Strategy<Value = DurabilityConfig> {
    (1u64..=8, 1u64..=4, any::<bool>()).prop_map(|(snapshot_every, sync_every, lose)| {
        DurabilityConfig {
            store: StoreConfig {
                snapshot_every,
                wal: WalConfig { sync_every },
            },
            lose_unsynced_on_crash: lose,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash-interrupted == uninterrupted, bit for bit.
    #[test]
    fn crashed_run_signature_matches_crash_free_run(
        w in workload(),
        crash in crashes(),
        d in durability(),
    ) {
        let jobs = jobs_of(&w);
        let baseline = simulate(&det_config(), &w.cluster, jobs.clone());

        let mut cfg = det_config();
        cfg.manager_crashes = crash;
        let dir = durability::scratch_dir("pt-recovery");
        let (interrupted, _, _) = simulate_with(&cfg, &w.cluster, jobs, |mgr_cfg| {
            DurableRm::new(mgr_cfg, w.cluster.clone(), &dir, d)
        });
        let _ = std::fs::remove_dir_all(&dir);

        prop_assert_eq!(
            baseline.deterministic_signature(),
            interrupted.deterministic_signature(),
            "{} crashes changed the outcome", interrupted.manager_crashes
        );
    }
}

/// Every whole-manager recovery is visible to a scrape: the counter and
/// the latency histogram advance once per crash and subscribers see one
/// `ManagerRecovery` event each.
#[test]
fn recoveries_reach_telemetry() {
    let w = W {
        cluster: homogeneous_cluster(2, 2, 2),
        jobs: (0..6)
            .map(|i| (5 * i, 0, 60, vec![3, 4], vec![2]))
            .collect(),
    };
    let mut cfg = det_config();
    cfg.manager_crashes = ManagerCrashConfig {
        at_commands: vec![2, 9, 17],
        ..Default::default()
    };
    let tel = Telemetry::new();
    let tail = tel.bus.subscribe(
        EventFilter {
            kinds: Some(vec![EventKind::ManagerRecovery]),
            cell: None,
        },
        DEFAULT_QUEUE_CAP,
    );
    let dir = durability::scratch_dir("recovery-telemetry");
    let (_, _, rm) = simulate_with(&cfg, &w.cluster, jobs_of(&w), |mgr_cfg: MrcpConfig| {
        let mut rm = DurableRm::new(
            mgr_cfg,
            w.cluster.clone(),
            &dir,
            DurabilityConfig::default(),
        );
        rm.set_telemetry(&tel);
        rm
    });
    let _ = std::fs::remove_dir_all(&dir);

    assert!(rm.crashes() > 0, "the crash schedule must actually fire");
    let reg = &tel.registry;
    assert_eq!(
        reg.counter("durability_recoveries_total", &[]).get(),
        rm.crashes()
    );
    assert_eq!(
        reg.counter("durability_replayed_total", &[]).get(),
        rm.replayed()
    );
    assert_eq!(
        reg.snapshot()
            .histogram_count_total("durability_recovery_us"),
        rm.crashes()
    );
    assert_eq!(tail.drain().len() as u64, rm.crashes());
    assert_eq!(tel.bus.dropped_events(), 0);
}

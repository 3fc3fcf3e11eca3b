//! Federation durability: a multi-cell run interrupted by manager
//! crashes recovers from its per-cell WALs + manifest to the bit-exact
//! signature of the uninterrupted run, and any single cell can be
//! rebuilt from the fleet snapshot plus its *own* WAL without touching
//! the others.

mod common;

use cluster::{recover_cell, ChaosConfig, DurableFederation, Federation};
use common::{det_sim, fleet, plain, run_durable, small_workload};
use desim::SimTime;
use durability::codec::Dec;
use durability::{
    apply_surface, indexed_event, scratch_dir, DurabilityConfig, DurableRm, ManagerEvent,
    StoreConfig, Wal, WalConfig,
};
use mrcp::sim_driver::ResourceManager;
use mrcp::{ManagerCrashConfig, ManagerImage, MrcpConfig, MrcpRm};
use proptest::prelude::*;
use telemetry::Telemetry;
use workload::model::homogeneous_cluster;
use workload::Job;

/// Wall-clock solve times differ under replay; everything else must not.
fn canonical(mut img: ManagerImage) -> ManagerImage {
    img.stats.total_solve = std::time::Duration::ZERO;
    img.stats.max_round_solve = std::time::Duration::ZERO;
    img.latency_ewma_s = None;
    img
}

/// A chaos-free durable fleet of `cells` cells rooted at `dir`.
fn durable_run(
    sim: &mrcp::SimConfig,
    cells: usize,
    resources: &[workload::Resource],
    jobs: Vec<Job>,
    dir: &std::path::Path,
    durability: DurabilityConfig,
) -> (mrcp::RunMetrics, DurableFederation) {
    let (off, tel) = (ChaosConfig::default(), Telemetry::disabled());
    run_durable(sim, cells, &off, &tel, resources, jobs, dir, durability)
}

#[test]
fn crashed_multi_cell_run_matches_crash_free_run() {
    let (resources, jobs) = small_workload(25, 4, 42);
    let (baseline, base_fed) = plain(&det_sim(), 2, &resources, jobs.clone());

    let mut crashed = det_sim();
    crashed.manager_crashes = ManagerCrashConfig {
        at_commands: vec![1, 7, 20, 33],
        mttf: Some(SimTime::from_secs(40)),
        seed: 7,
    };
    let dir = scratch_dir("fed-eq");
    let durability = DurabilityConfig {
        store: StoreConfig {
            snapshot_every: 5,
            wal: WalConfig { sync_every: 2 },
        },
        lose_unsynced_on_crash: true,
    };
    let (interrupted, fed) = durable_run(&crashed, 2, &resources, jobs, &dir, durability);
    let _ = std::fs::remove_dir_all(&dir);

    assert!(fed.crashes() > 0, "the crash schedule must actually fire");
    assert_eq!(
        baseline.deterministic_signature(),
        interrupted.deterministic_signature(),
        "{} fleet crashes changed the outcome",
        fed.crashes()
    );
    let (base_cm, cm) = (
        base_fed.cluster_metrics(),
        fed.federation().cluster_metrics(),
    );
    assert_eq!(base_cm.jobs_routed, cm.jobs_routed);
    assert_eq!(base_cm.spills, cm.spills);
    assert_eq!(base_cm.migrations, cm.migrations);
}

#[test]
fn single_cell_recovers_from_its_own_wal_alone() {
    let resources = homogeneous_cluster(4, 2, 2);
    let ccfg = fleet(2);
    let mgr_cfg = det_sim().manager;
    let dir = scratch_dir("cell-solo");
    // Large snapshot_every: the cell WALs, not the snapshot, must carry
    // the state.
    let d = DurabilityConfig {
        store: StoreConfig {
            snapshot_every: 1_000,
            wal: WalConfig::default(),
        },
        ..Default::default()
    };
    let mut fed = DurableFederation::new(&ccfg, mgr_cfg, resources.clone(), &dir, d);
    let (_, jobs) = small_workload(8, 4, 9);
    let mut now = SimTime::ZERO;
    for job in jobs {
        now = now.max(job.arrival);
        fed.submit_with_admission(job, now).unwrap();
        fed.reschedule(now);
    }
    for cell in 0..2 {
        let live = fed.federation().cells()[cell].rm.image();
        let (recovered, replayed) = recover_cell(&dir, d.store, mgr_cfg, &resources, cell).unwrap();
        assert!(replayed > 0, "cell {cell} replayed nothing");
        assert_eq!(
            canonical(live),
            canonical(recovered.image()),
            "cell {cell} diverged after independent recovery"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cell WAL holds what the cell was asked, one record per applied
/// request: a burst leaves one `SubmitBatch` in each cell it touched
/// (however many jobs went there) and the round one `Reschedule`, and
/// those two records rebuild the cell.
#[test]
fn a_batch_and_a_round_are_two_records_in_each_touched_cell_wal() {
    let resources = homogeneous_cluster(4, 2, 2);
    let ccfg = fleet(2);
    let mgr_cfg = det_sim().manager;
    let dir = scratch_dir("cell-batch");
    let d = DurabilityConfig::power_loss(StoreConfig {
        snapshot_every: 1_000,
        wal: WalConfig::default(),
    });
    let mut fed = DurableFederation::new(&ccfg, mgr_cfg, resources.clone(), &dir, d);
    let (_, mut jobs) = small_workload(6, 4, 11);
    for j in &mut jobs {
        j.arrival = SimTime::ZERO;
    }
    let outs = fed.submit_batch(jobs, SimTime::ZERO);
    assert!(outs
        .iter()
        .all(|o| matches!(o, Ok(out) if out.submitted.is_some())));
    fed.reschedule(SimTime::ZERO);
    // No migration: one would add its own take/submit records.
    assert_eq!(fed.federation().cluster_metrics().migrations, 0);
    let routed = fed.federation().cluster_metrics().jobs_routed.clone();
    assert_eq!(routed.iter().sum::<u64>(), 6);
    assert!(routed.iter().any(|&n| n > 1), "no cell got a real batch");
    for (cell, &n) in routed.iter().enumerate() {
        let live = fed.federation().cells()[cell].rm.image();
        let (recovered, replayed) = recover_cell(&dir, d.store, mgr_cfg, &resources, cell).unwrap();
        assert_eq!(
            replayed,
            if n > 0 { 2 } else { 0 },
            "cell {cell} took {n} jobs"
        );
        assert_eq!(canonical(live), canonical(recovered.image()), "cell {cell}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The fleet-level equivalence, over random workloads, cell counts,
    /// crash schedules, and store knobs.
    #[test]
    fn fleet_recovery_is_bit_exact(
        cells in 2usize..=3,
        n_jobs in 4usize..=16,
        wl_seed in 0u64..=1_000,
        at in prop::collection::vec(0u64..=80, 0..=4),
        renewal in any::<bool>(),
        mttf in 5i64..=60,
        crash_seed in 0u64..=u64::MAX,
        snapshot_every in 1u64..=8,
        sync_every in 1u64..=4,
        lose in any::<bool>(),
    ) {
        let (resources, jobs) = small_workload(n_jobs, 4, wl_seed);
        let (baseline, _) = plain(&det_sim(), cells, &resources, jobs.clone());

        let mut crashed = det_sim();
        crashed.manager_crashes = ManagerCrashConfig {
            at_commands: at,
            mttf: renewal.then(|| SimTime::from_secs(mttf)),
            seed: crash_seed,
        };
        let dir = scratch_dir("pt-fed");
        let durability = DurabilityConfig {
            store: StoreConfig {
                snapshot_every,
                wal: WalConfig { sync_every },
            },
            lose_unsynced_on_crash: lose,
        };
        let (interrupted, fed) = durable_run(&crashed, cells, &resources, jobs, &dir, durability);
        let _ = std::fs::remove_dir_all(&dir);

        prop_assert_eq!(
            baseline.deterministic_signature(),
            interrupted.deterministic_signature(),
            "{} fleet crashes changed the outcome", fed.crashes()
        );
    }
}

/// Batched ingest + crashes: the manifest logs each coalesced burst as a
/// single `SubmitBatch` record, so replay re-routes it against one load
/// snapshot exactly as the live run did. Decomposing the burst into
/// singleton submits would replay with sequential routing and diverge.
#[test]
fn batched_crashed_run_matches_batched_crash_free_run() {
    use mrcp::IngestConfig;
    let mut sim = det_sim();
    sim.ingest = Some(IngestConfig {
        max_batch: 8,
        max_linger: SimTime::from_secs(20),
    });
    // lambda 0.05 → ~20s inter-arrival: the generous linger makes real
    // multi-job batches form even on the sparse workload.
    let (resources, jobs) = small_workload(25, 4, 42);
    let (baseline, base_fed) = plain(&sim, 2, &resources, jobs.clone());

    let mut crashed = sim.clone();
    crashed.manager_crashes = ManagerCrashConfig {
        at_commands: vec![1, 5, 12, 21],
        mttf: Some(SimTime::from_secs(40)),
        seed: 7,
    };
    let dir = scratch_dir("fed-batch-eq");
    let durability = DurabilityConfig {
        store: StoreConfig {
            snapshot_every: 5,
            wal: WalConfig { sync_every: 2 },
        },
        lose_unsynced_on_crash: true,
    };
    let (interrupted, fed) = durable_run(&crashed, 2, &resources, jobs, &dir, durability);
    let _ = std::fs::remove_dir_all(&dir);

    assert!(fed.crashes() > 0, "the crash schedule must actually fire");
    assert_eq!(
        baseline.deterministic_signature(),
        interrupted.deterministic_signature(),
        "{} fleet crashes changed a batched-ingest outcome",
        fed.crashes()
    );
    let (base_cm, cm) = (
        base_fed.cluster_metrics(),
        fed.federation().cluster_metrics(),
    );
    assert_eq!(base_cm.jobs_routed, cm.jobs_routed);
    assert_eq!(base_cm.spills, cm.spills);
}

/// What the shared script needs from a manager, durable or not.
trait Shell: ResourceManager {
    fn images(&self) -> Vec<ManagerImage>;
    fn attach(&mut self, _tel: &telemetry::Telemetry) {}
}

impl Shell for MrcpRm {
    fn images(&self) -> Vec<ManagerImage> {
        vec![canonical(self.image())]
    }
}

impl Shell for DurableRm {
    fn images(&self) -> Vec<ManagerImage> {
        self.inner().images()
    }
    fn attach(&mut self, tel: &telemetry::Telemetry) {
        self.set_telemetry(tel);
    }
}

impl Shell for Federation {
    fn images(&self) -> Vec<ManagerImage> {
        let cells = self.cells().iter();
        cells.map(|c| canonical(c.rm.image())).collect()
    }
}

impl Shell for DurableFederation {
    fn images(&self) -> Vec<ManagerImage> {
        self.federation().images()
    }
    fn attach(&mut self, tel: &telemetry::Telemetry) {
        self.set_telemetry(tel);
    }
}

fn two_task_job(id: u32) -> Job {
    let t = |tid: u32, kind| workload::Task {
        id: workload::TaskId(tid),
        job: workload::JobId(id),
        kind,
        exec_time: SimTime::from_millis(2_000),
        req: 1,
    };
    Job {
        id: workload::JobId(id),
        arrival: SimTime::ZERO,
        earliest_start: SimTime::ZERO,
        deadline: SimTime::from_millis(120_000),
        map_tasks: vec![t(id * 10, workload::TaskKind::Map)],
        reduce_tasks: vec![t(id * 10 + 1, workload::TaskKind::Reduce)],
        precedences: vec![],
    }
}

/// Drive `plain` and `durable` through one lifecycle, killing and
/// recovering `durable` after every single command (`sync_every = 2`
/// leaves an unsynced tail to lose each time, `snapshot_every = 3` puts
/// checkpoints between the crashes). Every recovery must write exactly
/// one snapshot, and the crash-riddled state must end equal to the plain
/// run's.
fn crash_after_every_command(mut plain: impl Shell, mut durable: impl Shell) {
    let tel = telemetry::Telemetry::new();
    durable.attach(&tel);
    let snapshots = tel.registry.counter("durability_snapshots_total", &[]);
    let mut crashes = 0;
    let mut crash = |durable: &mut dyn ResourceManager| {
        let before = snapshots.get();
        assert!(durable.crash_and_recover(SimTime::ZERO));
        assert_eq!(snapshots.get(), before + 1, "one snapshot per recovery");
        crashes += 1;
    };
    let t3 = SimTime::from_millis(3);
    for ev in [
        ManagerEvent::SubmitWithAdmission {
            job: two_task_job(1),
            now: SimTime::ZERO,
        },
        ManagerEvent::SubmitWithAdmission {
            job: two_task_job(2),
            now: t3,
        },
    ] {
        apply_surface(&mut plain, &ev);
        apply_surface(&mut durable, &ev);
        crash(&mut durable);
    }
    let plan = plain.reschedule(t3);
    assert_eq!(plan, durable.reschedule(t3));
    crash(&mut durable);
    // Continue the lifecycle at the exact start the plan assigned.
    let task = workload::TaskId(10);
    let entry = plan
        .iter()
        .find(|e| e.task == task)
        .expect("map task of job 1 is planned");
    for ev in [
        ManagerEvent::TaskStarted {
            task,
            now: entry.start,
        },
        ManagerEvent::TaskCompleted {
            task,
            now: entry.end,
        },
        ManagerEvent::Reschedule { now: entry.end },
    ] {
        apply_surface(&mut plain, &ev);
        apply_surface(&mut durable, &ev);
        crash(&mut durable);
    }
    assert_eq!(crashes, 6);
    assert_eq!(
        plain.images(),
        durable.images(),
        "crash-riddled durable state must match the plain run"
    );
}

/// The shared write-ahead/recover core, exercised through each shell by
/// the same inputs: the single manager, a one-cell fleet and a two-cell
/// fleet, with and without losing the unsynced tail.
#[test]
fn crash_between_every_command_matches_crash_free_run() {
    let resources = homogeneous_cluster(4, 2, 2);
    let mgr = MrcpConfig::default();
    for lose in [true, false] {
        let d = DurabilityConfig {
            store: StoreConfig {
                snapshot_every: 3,
                wal: WalConfig { sync_every: 2 },
            },
            lose_unsynced_on_crash: lose,
        };
        let dir = scratch_dir("everystep");
        crash_after_every_command(
            MrcpRm::new(mgr, resources.clone()),
            DurableRm::new(mgr, resources.clone(), &dir, d),
        );
        for cells in [1, 2] {
            let ccfg = fleet(cells);
            crash_after_every_command(
                Federation::new(&ccfg, mgr, resources.clone()),
                DurableFederation::new(&ccfg, mgr, resources.clone(), &dir, d),
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Every record of the log at `path`, decoded with `indexed_event`.
fn decoded(path: &std::path::Path, wal: WalConfig) -> Vec<(u64, ManagerEvent)> {
    let (_, records) = Wal::recover(path, wal).unwrap();
    let decode = |r: &Vec<u8>| {
        let mut dec = Dec::new(r);
        let rec = indexed_event(&mut dec).expect("an indexed event");
        dec.expect_end().expect("and nothing after it");
        rec
    };
    records.iter().map(decode).collect()
}

fn one_map_job(id: u32) -> Job {
    let mut job = two_task_job(id);
    job.reduce_tasks.clear();
    job
}

/// Call every logged surface command once (and `task_started` twice, so
/// one task can fail while another completes); returns the commands in
/// call order.
fn every_surface_command(rm: &mut impl ResourceManager) -> Vec<ManagerEvent> {
    let t0 = SimTime::ZERO;
    let at = SimTime::from_millis;
    let rid = workload::ResourceId(0);
    let (a, b) = (workload::TaskId(10), workload::TaskId(20));
    let revised = at(4_000);
    rm.submit_with_admission(one_map_job(1), t0).unwrap();
    let batch = rm.submit_batch(vec![one_map_job(2)], t0);
    assert!(batch.iter().all(Result::is_ok));
    rm.activate_due(t0);
    let plan = rm.reschedule(t0);
    assert!(plan.iter().all(|e| e.start == t0), "both maps start at 0");
    rm.task_started(a, t0).unwrap();
    rm.task_started(b, t0).unwrap();
    rm.task_duration_revised(a, revised).unwrap();
    rm.task_failed(b, at(1_000)).unwrap();
    rm.task_completed(a, revised).unwrap();
    rm.resource_down(rid, at(5_000)).unwrap();
    rm.resource_up(rid, at(6_000)).unwrap();
    assert_eq!(rm.jobs_in_system(), 1, "job 2 waits for its retry");
    vec![
        ManagerEvent::SubmitWithAdmission {
            job: one_map_job(1),
            now: t0,
        },
        ManagerEvent::SubmitBatch {
            jobs: vec![one_map_job(2)],
            now: t0,
        },
        ManagerEvent::ActivateDue { now: t0 },
        ManagerEvent::Reschedule { now: t0 },
        ManagerEvent::TaskStarted { task: a, now: t0 },
        ManagerEvent::TaskStarted { task: b, now: t0 },
        ManagerEvent::TaskDurationRevised {
            task: a,
            new_exec: revised,
        },
        ManagerEvent::TaskFailed {
            task: b,
            now: at(1_000),
        },
        ManagerEvent::TaskCompleted {
            task: a,
            now: revised,
        },
        ManagerEvent::ResourceDown {
            resource: rid,
            now: at(5_000),
        },
        ManagerEvent::ResourceUp {
            resource: rid,
            now: at(6_000),
        },
    ]
}

/// Every log has one record format, and both durable stacks journal
/// through the one surface. Each logged command, called once on a
/// `DurableRm` and on a `DurableFederation`, is one record of `wal.log` /
/// `manifest.log`, in call order with consecutive indices. After a run
/// with a migration, `manifest.log` decodes record by record with
/// `indexed_event` to the surface commands since the snapshot's base and
/// nothing else; where the job went and that it moved is read off the
/// cell logs, which *are* the post-routing stream.
#[test]
fn manifest_holds_indexed_surface_commands_and_nothing_else() {
    let resources = homogeneous_cluster(2, 2, 1);
    let (mgr, d) = (MrcpConfig::default(), DurabilityConfig::default());
    let indexed = |evs: Vec<ManagerEvent>| -> Vec<(u64, ManagerEvent)> { (0..).zip(evs).collect() };
    let dir = scratch_dir("surface-rm");
    let mut rm = DurableRm::new(mgr, resources.clone(), &dir, d);
    let called = every_surface_command(&mut rm);
    assert_eq!(decoded(&dir.join("wal.log"), d.store.wal), indexed(called));
    let _ = std::fs::remove_dir_all(&dir);
    let dir = scratch_dir("surface-fleet");
    let mut fed = DurableFederation::new(&fleet(2), mgr, resources, &dir, d);
    let called = every_surface_command(&mut fed);
    assert_eq!(
        decoded(&dir.join("manifest.log"), d.store.wal),
        indexed(called)
    );
    let _ = std::fs::remove_dir_all(&dir);

    let resources = homogeneous_cluster(2, 1, 1);
    let rid0 = resources[0].id;
    let dir = scratch_dir("manifest-format");
    let d = DurabilityConfig::power_loss(StoreConfig {
        snapshot_every: 3,
        wal: WalConfig::default(),
    });
    let mut fed = DurableFederation::new(&fleet(2), MrcpConfig::default(), resources, &dir, d);
    let mut job = two_task_job(1);
    job.deadline = SimTime::from_millis(400_000);
    let id = job.id;
    fed.submit_with_admission(job, SimTime::ZERO).unwrap();
    fed.reschedule(SimTime::ZERO);
    // Cell 0's only resource goes down before anything starts; the third
    // command triggers a checkpoint, so the manifest restarts at base 3.
    let t = SimTime::from_millis(1_000);
    fed.resource_down(rid0, t).unwrap();
    fed.reschedule(t);
    fed.activate_due(t);
    assert_eq!(fed.federation().cluster_metrics().migrations, 1);

    let decoded = |name: &str| decoded(&dir.join(name), d.store.wal);
    assert_eq!(
        decoded("manifest.log"),
        vec![
            (3, ManagerEvent::Reschedule { now: t }),
            (4, ManagerEvent::ActivateDue { now: t }),
        ]
    );
    // Where the job went and that it moved: the cell logs. Their indices
    // continue across the checkpoint.
    let src = decoded("cell-0.wal");
    assert!(
        src.iter()
            .any(|(_, ev)| matches!(ev, ManagerEvent::TakeUnstartedJob { job } if *job == id)),
        "cell 0's log records the job leaving"
    );
    assert!(
        src[0].0 > 0,
        "cell-log indices continue across a checkpoint"
    );
    let dst = decoded("cell-1.wal");
    assert!(
        dst.iter()
            .any(|(_, ev)| matches!(ev, ManagerEvent::Submit { job, .. } if job.id == id)),
        "cell 1's log records the job arriving"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

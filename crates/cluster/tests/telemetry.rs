//! Live-telemetry integration tests: mid-run instruments must reconcile
//! with the end-of-run structs at every layer, events must tail without
//! overflow at the default queue capacity, and crash rehydration must
//! keep counters cumulative.

mod common;

use cluster::{ChaosConfig, DurableFederation, HealthState};
use common::{det_sim, fleet, problems, run, run_durable, small_workload};
use desim::SimTime;
use durability::{scratch_dir, DurabilityConfig, StoreConfig, WalConfig};
use mrcp::{simulate_with, ManagerCrashConfig, MrcpConfig, ResourceManager};
use telemetry::{EventFilter, EventKind, Telemetry, DEFAULT_QUEUE_CAP};

/// Crash-free hostile boundary: per-cell `ManagerStats` survive to the
/// end of the run, so every registry counter must match its end-of-run
/// mirror *exactly*.
#[test]
fn registry_reconciles_with_end_of_run_structs() {
    let chaos = ChaosConfig {
        drop_prob: 0.2,
        dup_prob: 0.2,
        hang_prob: 0.05,
        mean_latency: Some(SimTime::from_millis(10)),
        call_deadline: SimTime::from_millis(150),
        seed: 21,
        ..Default::default()
    };
    let (resources, jobs) = small_workload(25, 6, 33);

    let tel = Telemetry::new();
    let tail = tel.bus.subscribe(EventFilter::default(), DEFAULT_QUEUE_CAP);
    let (m, fed) = run(&det_sim(), 3, &chaos, &tel, &resources, jobs);
    assert_eq!(problems(&m, &fed), Vec::<String>::new());

    let reg = &tel.registry;
    let cm = fed.cluster_metrics();
    let c = |name: &str| reg.counter(name, &[]).get();
    assert_eq!(c("cluster_rounds_total"), cm.rounds);
    assert_eq!(c("cluster_rpc_commands_total"), cm.rpc_commands);
    assert_eq!(c("cluster_rpc_attempts_total"), cm.rpc_attempts);
    assert_eq!(c("cluster_rpc_retries_total"), cm.rpc_retries);
    assert_eq!(c("cluster_rpc_drops_total"), cm.rpc_drops);
    assert_eq!(c("cluster_rpc_timeouts_total"), cm.rpc_timeouts);
    assert_eq!(c("cluster_rpc_dedup_hits_total"), cm.rpc_dedup_hits);
    assert_eq!(c("cluster_reroutes_total"), cm.reroutes);
    assert_eq!(c("cluster_spills_total"), cm.spills);
    assert_eq!(c("cluster_migrations_total"), cm.migrations);
    // Breaker-opens count as "crashes" even without process faults; the
    // counter must still mirror the struct exactly.
    assert_eq!(c("cluster_cell_crashes_total"), cm.cell_crashes);
    assert_eq!(c("cluster_cell_restores_total"), cm.cell_restores);
    assert_eq!(c("cluster_failovers_total"), cm.failovers);
    assert!(cm.rpc_drops > 0, "drop_prob=0.2 must drop something");

    // Per-cell: exactly one rung counter fires per solver invocation,
    // and per-cell routed counters mirror the router's tally.
    for (i, cell) in fed.cells().iter().enumerate() {
        let scoped = tel.scoped("cell", i);
        let stats = cell.rm.stats();
        let rung_sum: u64 = ["split_cp", "greedy", "failed"]
            .iter()
            .map(|rung| {
                scoped
                    .registry
                    .counter("mrcp_rounds_total", &[("rung", rung)])
                    .get()
            })
            .sum();
        assert_eq!(rung_sum, stats.invocations, "cell {i} rounds disagree");
        assert_eq!(
            scoped.registry.counter("mrcp_warm_rounds_total", &[]).get(),
            stats.warm_rounds,
            "cell {i} warm rounds disagree"
        );
        assert_eq!(
            reg.counter("cluster_jobs_routed_total", &[("cell", &i.to_string())])
                .get(),
            cm.jobs_routed[i],
            "cell {i} routed tally disagrees"
        );
    }

    // The health gauge mirrors each breaker's final state (0 Up,
    // 1 Suspect, 2 Down, 3 Recovering).
    for (i, state) in fed.health().iter().enumerate() {
        let level = match state {
            HealthState::Up => 0,
            HealthState::Suspect => 1,
            HealthState::Down => 2,
            HealthState::Recovering => 3,
        };
        assert_eq!(
            reg.gauge("cluster_cell_health", &[("cell", &i.to_string())])
                .get(),
            level,
            "cell {i} health gauge diverged from the breaker"
        );
    }

    // A scrape of the full stack carries every layer, in both encodings.
    let snap = reg.snapshot();
    let (prom, json) = (
        telemetry::prometheus_text(&snap),
        telemetry::json_snapshot(&snap),
    );
    for series in [
        "mrcp_rounds_total",
        "mrcp_admission_total",
        "cpsolve_prop_runs_total",
        "cluster_rpc_attempts_total",
        "cluster_cell_health",
    ] {
        assert!(prom.contains(series), "/metrics lacks {series}");
        assert!(json.contains(series), "/snapshot.json lacks {series}");
    }

    // Default queue capacity absorbs a default-size run without drops.
    let events = tail.drain();
    assert_eq!(tel.bus.dropped_events(), 0, "event bus overflowed");
    assert_eq!(events.len() as u64, tel.bus.published());
    assert!(
        events.iter().any(|e| e.kind == EventKind::RoundSolved),
        "rounds must publish events"
    );
    assert!(
        events
            .iter()
            .any(|e| e.kind == EventKind::AdmissionAdmitted),
        "admissions must publish events"
    );
}

/// Crash + rehydration under a durable store: the registry's counters
/// are cumulative across cell rebuilds, breaker transitions and
/// recovery events reach subscribers, and nothing drops.
#[test]
fn crash_rehydration_keeps_counters_cumulative_and_events_flowing() {
    let chaos = ChaosConfig {
        cell_mttf: Some(SimTime::from_secs(60)),
        cell_mttr: Some(SimTime::from_secs(30)),
        seed: 13,
        ..Default::default()
    };
    let (resources, jobs) = small_workload(30, 4, 19);
    let dir = scratch_dir("telemetry-rehydrate");
    let durability = DurabilityConfig {
        store: StoreConfig {
            snapshot_every: 16,
            wal: WalConfig::default(),
        },
        ..Default::default()
    };

    let tel = Telemetry::new();
    let tail = tel.bus.subscribe(
        EventFilter {
            kinds: Some(vec![
                EventKind::CellCrash,
                EventKind::CellRestore,
                EventKind::Rehydration,
                EventKind::BreakerTransition,
                EventKind::WalCheckpoint,
            ]),
            cell: None,
        },
        DEFAULT_QUEUE_CAP,
    );
    let (m, d) = run_durable(
        &det_sim(),
        2,
        &chaos,
        &tel,
        &resources,
        jobs,
        &dir,
        durability,
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(problems(&m, d.federation()), Vec::<String>::new());

    let reg = &tel.registry;
    let cm = d.federation().cluster_metrics();
    let c = |name: &str| reg.counter(name, &[]).get();
    assert!(cm.cell_crashes > 0, "MTTF=60s over this run must crash");
    assert_eq!(c("cluster_cell_crashes_total"), cm.cell_crashes);
    assert_eq!(c("cluster_cell_restores_total"), cm.cell_restores);
    assert_eq!(c("cluster_rehydrations_total"), cm.rehydrations);
    assert_eq!(c("cluster_rehydrate_mismatches_total"), 0);
    assert_eq!(c("cluster_failovers_total"), cm.failovers);
    // The WAL write path was live: appends at least equal rehydrated
    // commands, and at least one checkpoint fired per rebuild.
    assert!(c("durability_wal_appends_total") > 0, "WAL appends unseen");

    let events = tail.drain();
    assert_eq!(tel.bus.dropped_events(), 0, "event bus overflowed");
    let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count() as u64;
    assert_eq!(count(EventKind::CellCrash), cm.cell_crashes);
    assert_eq!(count(EventKind::CellRestore), cm.cell_restores);
    assert_eq!(count(EventKind::Rehydration), cm.rehydrations);
    assert!(
        count(EventKind::BreakerTransition) >= cm.cell_crashes,
        "every crash opens a breaker"
    );
}

/// Whole-fleet kill and recovery (the driver's `ManagerCrashConfig`, not
/// a single cell's crash) is visible to a scrape: one count, one latency
/// sample and one `ManagerRecovery` event per recovery.
#[test]
fn fleet_recoveries_reach_telemetry() {
    let mut sim = det_sim();
    sim.manager_crashes = ManagerCrashConfig {
        at_commands: vec![3, 11, 26],
        ..Default::default()
    };
    let cluster = fleet(2);
    let (resources, jobs) = small_workload(20, 4, 42);
    let dir = scratch_dir("telemetry-fleet-recovery");

    let tel = Telemetry::new();
    let tail = tel.bus.subscribe(
        EventFilter {
            kinds: Some(vec![EventKind::ManagerRecovery]),
            cell: None,
        },
        DEFAULT_QUEUE_CAP,
    );
    let (_, _, fed) = simulate_with(&sim, &resources, jobs, |mgr_cfg: MrcpConfig| {
        let mut fed = DurableFederation::new(
            &cluster,
            mgr_cfg,
            resources.clone(),
            &dir,
            DurabilityConfig::default(),
        );
        fed.set_telemetry(&tel);
        fed
    });
    let _ = std::fs::remove_dir_all(&dir);

    assert!(fed.crashes() > 0, "the crash schedule must actually fire");
    let reg = &tel.registry;
    assert_eq!(
        reg.counter("durability_recoveries_total", &[]).get(),
        fed.crashes()
    );
    assert_eq!(
        reg.snapshot()
            .histogram_count_total("durability_recovery_us"),
        fed.crashes()
    );
    assert_eq!(tail.drain().len() as u64, fed.crashes());
    assert_eq!(tel.bus.dropped_events(), 0);
}

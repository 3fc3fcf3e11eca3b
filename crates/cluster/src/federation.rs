//! The federation: K cells behind one [`ResourceManager`] facade.
//!
//! The simulation driver sees a single manager; internally each call is
//! routed to the owning cell (tasks and resources are mapped at
//! submission / construction time), arrivals are placed by
//! power-of-two-choices over the cells' load and admission estimators,
//! and [`Federation::reschedule`] solves every *dirty* cell, one after
//! another, before running the cross-cell rebalancer.
//!
//! ## The fallible boundary
//!
//! Mutating commands reach a cell as [`ManagerEvent`]s through its
//! endpoint ([`crate::endpoint`]) — fault-free by default,
//! fault-injecting under [`crate::chaos::ChaosConfig`] — and the request
//! that applied is what the cell's WAL records. Each
//! command is stamped with a per-cell sequence number; failed deliveries
//! retry under the fixed `RetryPolicy` (capped exponential backoff,
//! deterministic jitter) and duplicates are suppressed cell-side, so
//! every command applies at most once. A command the run cannot drop
//! (task lifecycle, activations) escalates to the supervisor's reliable
//! channel after its retries exhaust — restarting and rehydrating the
//! cell first if it crashed — so the driver's surface always gets an
//! answer. A per-cell health tracker ([`CellHealth`]) opens the circuit
//! on crashes or repeated failures: `Down` cells report infinite load
//! (power-of-two routing avoids them), their fully-unstarted jobs fail
//! over to the slackest surviving cells at the next round, and the
//! round-boundary reachability sweep restarts them once their outage
//! ends — rehydrating through [`crate::durable::recover_cell`] WAL
//! replay when the federation runs durable. While faults are injected,
//! every round ends with an audit of the fleet invariant
//! ([`Federation::audit`]), and what it finds is kept for
//! [`Federation::violations`].
//!
//! With `cells = 1` and chaos off, every mechanism degenerates to the
//! single-manager behavior exactly: routing has one choice, the
//! rebalancer is skipped, deliveries succeed first try and draw no
//! randomness, and a round solves iff the single cell was touched by an
//! event — which is precisely when the plain driver would have called
//! [`ResourceManager::reschedule`]. The determinism tests hold the repo to
//! that.

use crate::cell::Cell;
use crate::chaos::ChaosConfig;
use crate::endpoint::{Delivery, Endpoint, RetryPolicy, RpcError};
use crate::health::{CellHealth, HealthConfig, HealthState};
use crate::metrics::ClusterMetrics;
use crate::rebalance::{MAX_MIGRATIONS_PER_ROUND, PROBE_FANOUT};
use crate::router::two_choices;
use desim::SimTime;
use durability::{apply, ManagerEvent, Reply};
use mrcp::manager::{
    AbandonedJob, AdmissionOutcome, FailureAction, JobCompletion, ManagerError, ManagerStats,
    MrcpConfig, MrcpRm, ScheduleEntry,
};
use mrcp::sim_driver::ResourceManager;
use mrcp::{AdmissionPolicy, TaskStatusImage};
use std::collections::{HashMap, HashSet};
use std::time::Instant;
use workload::{Job, JobId, Resource, ResourceId, TaskId};

/// How many fleet-invariant violations a federation keeps: a broken fleet
/// repeats itself every round.
const MAX_VIOLATIONS: usize = 64;

/// Federation shape: how many cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of cells to shard the resource pool into (clamped to
    /// `[1, resources]`; resources are dealt round-robin).
    pub cells: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig { cells: 1 }
    }
}

/// Deal `resources` round-robin into `cells` pools (clamped to
/// `[1, resources]`) — the one definition of which cell owns what.
/// Panics when `resources` is empty.
pub(crate) fn shard(resources: &[Resource], cells: usize) -> Vec<Vec<Resource>> {
    assert!(
        !resources.is_empty(),
        "federation needs at least one resource"
    );
    let k = cells.clamp(1, resources.len());
    let mut pools: Vec<Vec<Resource>> = vec![Vec::new(); k];
    for (i, r) in resources.iter().enumerate() {
        pools[i % k].push(*r);
    }
    pools
}

/// Whether a command may be abandoned when its deliveries keep failing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallMode {
    /// The run depends on the answer: escalate to the supervisor's
    /// reliable channel after retries exhaust. Never returns `None`.
    MustAnswer,
    /// The caller has an alternative (re-route, solve next round): give
    /// up after retries — but only if no attempt applied; a command
    /// whose effect is already in the cell escalates to recover its
    /// response rather than risk a double apply elsewhere.
    BestEffort,
}

/// Numeric encoding of [`HealthState`] for the per-cell health gauge:
/// 0 Up, 1 Suspect, 2 Down, 3 Recovering.
fn health_level(s: HealthState) -> i64 {
    match s {
        HealthState::Up => 0,
        HealthState::Suspect => 1,
        HealthState::Down => 2,
        HealthState::Recovering => 3,
    }
}

/// Stable identifier for a [`HealthState`] in breaker-transition events.
fn health_name(s: HealthState) -> &'static str {
    match s {
        HealthState::Up => "up",
        HealthState::Suspect => "suspect",
        HealthState::Down => "down",
        HealthState::Recovering => "recovering",
    }
}

/// Federation-level telemetry (DESIGN.md §5k): live instruments mirroring
/// [`ClusterMetrics`], recorded at the same sites that mutate it, so a
/// mid-run scrape reconciles with [`Federation::cluster_metrics`].
/// Per-cell *scheduling* instruments live in each cell's manager (scoped
/// under a `cell` label by [`Federation::set_telemetry`]); this set covers
/// only what exists between cells. Defaults to the disabled no-op set.
#[derive(Debug, Clone)]
pub(crate) struct FedTel {
    bus: telemetry::EventBus,
    spills: telemetry::Counter,
    migrations: telemetry::Counter,
    migration_probes: telemetry::Counter,
    rounds: telemetry::Counter,
    round_solve_us: telemetry::Histogram,
    rpc_commands: telemetry::Counter,
    rpc_attempts: telemetry::Counter,
    rpc_retries: telemetry::Counter,
    rpc_drops: telemetry::Counter,
    rpc_timeouts: telemetry::Counter,
    rpc_dedup_hits: telemetry::Counter,
    rpc_escalations: telemetry::Counter,
    reroutes: telemetry::Counter,
    cell_crashes: telemetry::Counter,
    cell_restores: telemetry::Counter,
    rehydrations: telemetry::Counter,
    rehydrate_mismatches: telemetry::Counter,
    failovers: telemetry::Counter,
    /// Per-cell circuit-breaker state, encoded by [`health_level`].
    cell_health: Vec<telemetry::Gauge>,
    /// Admitted submissions the router placed in each cell.
    jobs_routed: Vec<telemetry::Counter>,
    /// Jobs currently in the system fleet-wide.
    fleet_depth: telemetry::Gauge,
}

impl FedTel {
    fn new(tel: &telemetry::Telemetry, cells: usize) -> FedTel {
        let reg = &tel.registry;
        FedTel {
            bus: tel.bus.clone(),
            spills: reg.counter("cluster_spills_total", &[]),
            migrations: reg.counter("cluster_migrations_total", &[]),
            migration_probes: reg.counter("cluster_migration_probes_total", &[]),
            rounds: reg.counter("cluster_rounds_total", &[]),
            round_solve_us: reg.histogram(
                "cluster_round_solve_us",
                &[],
                telemetry::LATENCY_US_BOUNDS,
            ),
            rpc_commands: reg.counter("cluster_rpc_commands_total", &[]),
            rpc_attempts: reg.counter("cluster_rpc_attempts_total", &[]),
            rpc_retries: reg.counter("cluster_rpc_retries_total", &[]),
            rpc_drops: reg.counter("cluster_rpc_drops_total", &[]),
            rpc_timeouts: reg.counter("cluster_rpc_timeouts_total", &[]),
            rpc_dedup_hits: reg.counter("cluster_rpc_dedup_hits_total", &[]),
            rpc_escalations: reg.counter("cluster_rpc_escalations_total", &[]),
            reroutes: reg.counter("cluster_reroutes_total", &[]),
            cell_crashes: reg.counter("cluster_cell_crashes_total", &[]),
            cell_restores: reg.counter("cluster_cell_restores_total", &[]),
            rehydrations: reg.counter("cluster_rehydrations_total", &[]),
            rehydrate_mismatches: reg.counter("cluster_rehydrate_mismatches_total", &[]),
            failovers: reg.counter("cluster_failovers_total", &[]),
            cell_health: (0..cells)
                .map(|i| reg.gauge("cluster_cell_health", &[("cell", i.to_string().as_str())]))
                .collect(),
            jobs_routed: (0..cells)
                .map(|i| {
                    reg.counter(
                        "cluster_jobs_routed_total",
                        &[("cell", i.to_string().as_str())],
                    )
                })
                .collect(),
            fleet_depth: reg.gauge("cluster_fleet_depth", &[]),
        }
    }

    pub(crate) fn disabled(cells: usize) -> FedTel {
        FedTel::new(&telemetry::Telemetry::disabled(), cells)
    }

    fn event(
        &self,
        now: SimTime,
        kind: telemetry::EventKind,
        cell: Option<u32>,
        job: Option<u64>,
        detail: &str,
    ) {
        self.bus.publish(telemetry::Event {
            at_ms: now.as_millis(),
            kind,
            cell,
            job,
            detail: detail.to_string(),
        });
    }
}

/// K sharded [`MrcpRm`]s behind the driver's [`ResourceManager`] surface.
#[derive(Debug)]
pub struct Federation {
    pub(crate) cells: Vec<Cell>,
    pub(crate) res_cell: HashMap<ResourceId, usize>,
    pub(crate) task_cell: HashMap<TaskId, usize>,
    pub(crate) job_cell: HashMap<JobId, usize>,
    pub(crate) metrics: ClusterMetrics,
    /// Fleet-wide high-water mark of jobs in the system (the per-cell
    /// `max_queue_depth` watermarks do not sum to this).
    pub(crate) max_fleet_depth: usize,
    /// The per-cell logs, attached by
    /// [`crate::durable::DurableFederation`]. `None` runs the federation
    /// memory-only.
    pub(crate) journal: Option<crate::durable::CellLogs>,
    /// The last internal-inconsistency error a round swallowed (the
    /// scheduling surface cannot propagate it); `None` when healthy.
    pub(crate) last_error: Option<ManagerError>,
    /// The full resource list in construction order — what
    /// [`crate::durable::recover_cell`] needs to rebuild any one cell.
    pub(crate) resources: Vec<Resource>,
    /// The latest time any timed surface command carried: the time a
    /// straggler revision, which carries none, is delivered at.
    pub(crate) clock: SimTime,
    /// Whether any cell endpoint injects faults. Off: deliveries cannot
    /// fail, the health sweep and the per-round audit are skipped, and
    /// rounds apply in place without an endpoint round trip — the
    /// bit-exact legacy behavior.
    pub(crate) chaos_active: bool,
    /// What the per-round audit found, capped at [`MAX_VIOLATIONS`].
    pub(crate) violations: Vec<String>,
    /// Per-cell circuit breakers.
    pub(crate) health: Vec<CellHealth>,
    /// Live federation-level instruments (disabled by default; see
    /// [`Federation::set_telemetry`]). Strictly observational.
    pub(crate) tel: FedTel,
    /// The base telemetry handle, kept so a rehydrated cell's rebuilt
    /// manager can be re-attached under its `cell=<i>` scope (the
    /// registry hands back the same underlying instrument cells, so
    /// counters stay cumulative across the swap).
    pub(crate) base_tel: telemetry::Telemetry,
}

impl Federation {
    /// Shard `resources` round-robin into `cfg.cells` cells, each running
    /// its own manager with the shared `mgr` configuration. Panics when
    /// `resources` is empty (mirroring [`MrcpRm::new`]).
    pub fn new(cfg: &ClusterConfig, mgr: MrcpConfig, resources: Vec<Resource>) -> Self {
        let rms = shard(&resources, cfg.cells)
            .into_iter()
            .map(|pool| MrcpRm::new(mgr, pool))
            .collect();
        Federation::assemble(&resources, rms)
    }

    /// A fleet around `rms`, one manager per [`shard`] of `resources`,
    /// with empty fleet maps and a reliable, fault-free boundary — what
    /// both a fresh fleet and one restored from a snapshot start from.
    pub(crate) fn assemble(resources: &[Resource], rms: Vec<MrcpRm>) -> Self {
        let k = rms.len();
        let res_cell = rms
            .iter()
            .enumerate()
            .flat_map(|(i, rm)| rm.resources().iter().map(move |r| (r.id, i)))
            .collect();
        Federation {
            cells: rms
                .into_iter()
                .enumerate()
                .map(|(id, rm)| Cell::new(id, rm))
                .collect(),
            res_cell,
            task_cell: HashMap::new(),
            job_cell: HashMap::new(),
            metrics: ClusterMetrics::new(k),
            max_fleet_depth: 0,
            journal: None,
            last_error: None,
            resources: resources.to_vec(),
            clock: SimTime::ZERO,
            chaos_active: false,
            violations: Vec::new(),
            health: vec![CellHealth::new(HealthConfig::default()); k],
            tel: FedTel::disabled(k),
            base_tel: telemetry::Telemetry::disabled(),
        }
    }

    /// Attach live telemetry: the federation-level instruments register
    /// in `tel.registry` directly, and each cell's manager registers its
    /// own set through a registry scoped with a `cell=<i>` label (so
    /// `mrcp_rounds_total{cell="2",rung="greedy"}` is cell 2's greedy rounds).
    /// Recording happens at the same sites that mutate [`ClusterMetrics`]
    /// and each cell's [`ManagerStats`], so mid-run scrapes reconcile
    /// with the end-of-run structs. Strictly observational: no routing,
    /// health, or scheduling decision reads these instruments, so runs
    /// with telemetry attached are bit-identical to runs without.
    pub fn set_telemetry(&mut self, tel: &telemetry::Telemetry) {
        self.base_tel = tel.clone();
        self.tel = FedTel::new(tel, self.cells.len());
        for (i, c) in self.cells.iter_mut().enumerate() {
            c.rm.set_telemetry(&tel.scoped("cell", i));
        }
        for (i, h) in self.health.iter().enumerate() {
            self.tel.cell_health[i].set(health_level(h.state()));
        }
        self.tel.fleet_depth.set(
            self.cells
                .iter()
                .map(|c| c.rm.jobs_in_system())
                .sum::<usize>() as i64,
        );
    }

    /// A federation whose cell boundaries inject faults per `chaos`
    /// (no-op when the config is inactive — the endpoints stay reliable
    /// and behavior is bit-identical to [`Federation::new`]).
    pub fn with_chaos(
        cfg: &ClusterConfig,
        mgr: MrcpConfig,
        resources: Vec<Resource>,
        chaos: &ChaosConfig,
    ) -> Self {
        let mut fed = Federation::new(cfg, mgr, resources);
        fed.enable_chaos(chaos);
        fed
    }

    /// Re-arm the cell endpoints with `chaos` (when it is active).
    pub(crate) fn enable_chaos(&mut self, chaos: &ChaosConfig) {
        if chaos.is_active() {
            self.chaos_active = true;
            for (i, c) in self.cells.iter_mut().enumerate() {
                c.endpoint = Endpoint::new(*chaos, i);
            }
        }
    }

    /// The last internal-inconsistency error a scheduling round had to
    /// swallow (the [`ResourceManager`] surface cannot propagate it);
    /// `None` when no round has ever gone inconsistent.
    pub fn last_error(&self) -> Option<&ManagerError> {
        self.last_error.as_ref()
    }

    /// The cells (read-only; tests and reports inspect per-cell state).
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Each cell's current health classification.
    pub fn health(&self) -> Vec<HealthState> {
        self.health.iter().map(CellHealth::state).collect()
    }

    /// The federation-level counters accumulated so far.
    pub fn cluster_metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// Check the fleet invariant: every live job is pending in *exactly
    /// one* cell and the fleet maps agree with the cells; no live task is
    /// owned by two cells. Returns human-readable violations (empty when
    /// all hold). [`reschedule`](ResourceManager::reschedule) runs it
    /// after every round while faults are injected; a chaos-free
    /// boundary cannot desynchronise the maps, so it is skipped there.
    pub fn audit(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let mut jobs_seen = HashMap::new();
        let mut live_jobs = 0usize;
        for (i, cell) in self.cells.iter().enumerate() {
            let img = cell.rm.image();
            for ji in &img.jobs {
                live_jobs += 1;
                if let Some(prev) = jobs_seen.insert(ji.job.id, i) {
                    violations.push(format!(
                        "job {} lives in cells {} and {} at once",
                        ji.job.id, prev, i
                    ));
                }
                match self.job_cell.get(&ji.job.id) {
                    Some(&mapped) if mapped == i => {}
                    Some(&mapped) => violations.push(format!(
                        "job {} is in cell {} but the fleet map says {}",
                        ji.job.id, i, mapped
                    )),
                    None => violations.push(format!(
                        "job {} is in cell {} but missing from the fleet map",
                        ji.job.id, i
                    )),
                }
                for t in &ji.tasks {
                    if t.status == TaskStatusImage::Completed {
                        continue;
                    }
                    match self.task_cell.get(&t.id) {
                        Some(&mapped) if mapped == i => {}
                        Some(&mapped) => violations.push(format!(
                            "task {} is in cell {} but the fleet map says {}",
                            t.id, i, mapped
                        )),
                        None => violations.push(format!(
                            "task {} is in cell {} but missing from the fleet map",
                            t.id, i
                        )),
                    }
                }
            }
        }
        if self.job_cell.len() != live_jobs {
            violations.push(format!(
                "fleet map holds {} jobs but the cells hold {live_jobs}",
                self.job_cell.len()
            ));
        }
        violations
    }

    /// The fleet-invariant violations the per-round [`audit`](Self::audit)
    /// found, the first 64 kept; empty on a correct run, and always empty
    /// while no faults are injected (the audit does not run).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Router load estimates, with unroutable (Down/Recovering) cells
    /// masked to infinite load so power-of-two-choices never picks them.
    fn loads(&self) -> Vec<f64> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if self.health[i].routable() {
                    c.load()
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }

    fn cell_of_task(&self, task: TaskId) -> Result<usize, ManagerError> {
        self.task_cell
            .get(&task)
            .copied()
            .ok_or(ManagerError::UnknownTask(task))
    }

    /// Pick the destination cell for an arrival: the less loaded of the
    /// two least-loaded cells, refined by their admission probes — the
    /// job spills to the alternate when the primary's probe rejects and
    /// the alternate's admits. Returns `(cell, spilled)`.
    /// `loads` is the caller's estimate: a burst is routed against one
    /// load snapshot updated incrementally, not re-derived per job.
    fn route_from(&self, loads: &[f64], job: &Job, now: SimTime) -> (usize, bool) {
        let (primary, alternate) = two_choices(loads);
        let Some(alt) = alternate else {
            return (primary, false);
        };
        // Best-effort admission has no probe to consult: the load
        // estimate alone is the "better" judgment.
        if self.cells[primary].rm.config().admission.policy == AdmissionPolicy::BestEffort {
            return (primary, false);
        }
        if self.cells[primary].rm.probe_admission(job, now).is_ok() {
            (primary, false)
        } else if self.cells[alt].rm.probe_admission(job, now).is_ok() {
            (alt, true)
        } else {
            // Both probes reject: let the primary apply its configured
            // policy (reject / renegotiate) and count it exactly once.
            (primary, false)
        }
    }

    fn forget(&mut self, ab: &AbandonedJob) {
        self.job_cell.remove(&ab.job);
        for t in &ab.tasks {
            self.task_cell.remove(t);
        }
    }

    fn note_fleet_depth(&mut self) {
        let depth: usize = self.cells.iter().map(|c| c.rm.jobs_in_system()).sum();
        self.max_fleet_depth = self.max_fleet_depth.max(depth);
        self.tel.fleet_depth.set(depth as i64);
    }

    /// Mirror a health-state mutation into the live gauge, publishing a
    /// breaker-transition event when the state actually changed.
    fn note_health(&mut self, i: usize, before: HealthState, now: SimTime) {
        let after = self.health[i].state();
        self.tel.cell_health[i].set(health_level(after));
        if after != before {
            self.tel.event(
                now,
                telemetry::EventKind::BreakerTransition,
                Some(i as u32),
                None,
                health_name(after),
            );
        }
    }

    /// Cell `i` answered: feed the success to its health monitor (closing
    /// a recovering circuit) and mirror the state.
    fn note_success(&mut self, i: usize, now: SimTime) {
        let before = self.health[i].state();
        self.health[i].on_success(now);
        self.note_health(i, before, now);
    }

    /// A timed surface command arrived at `now`.
    fn tick(&mut self, now: SimTime) {
        self.clock = self.clock.max(now);
    }

    /// Append `ev` to cell `cell`'s WAL when the federation runs durable.
    fn journal_cell(&mut self, cell: usize, ev: &ManagerEvent) {
        if let Some(j) = self.journal.as_mut() {
            j.append(cell, ev);
        }
    }

    fn deliver_to(
        cell: &mut Cell,
        seq: u64,
        req: &ManagerEvent,
        now: SimTime,
        reliable: bool,
    ) -> Delivery {
        let Cell { rm, endpoint, .. } = cell;
        if reliable {
            endpoint.deliver_reliable(rm, seq, req, now)
        } else {
            endpoint.deliver(rm, seq, req, now)
        }
    }

    /// The circuit opened for cell `i` (crash observed or failure
    /// threshold crossed).
    fn mark_down(&mut self, i: usize, now: SimTime) {
        if self.health[i].state() != HealthState::Down {
            let before = self.health[i].state();
            self.health[i].force_down(now);
            self.metrics.cell_crashes += 1;
            self.tel.cell_crashes.inc();
            self.tel.event(
                now,
                telemetry::EventKind::CellCrash,
                Some(i as u32),
                None,
                "circuit opened",
            );
            self.note_health(i, before, now);
        }
    }

    /// Supervisor restart of cell `i`: end its outage, rebuild its state
    /// from the durable store if the crash lost it, and mark it
    /// recovering (the next successful delivery closes the circuit).
    fn supervisor_restore(&mut self, i: usize, now: SimTime) {
        let began = self.cells[i].endpoint.down_since();
        let lost = self.cells[i].endpoint.restart(now);
        let before = self.health[i].state();
        self.health[i].begin_recovery(now);
        self.note_health(i, before, now);
        if lost {
            self.rehydrate(i, now);
        }
        if let Some(t0) = began {
            self.metrics
                .restore_latencies_ms
                .push((now - t0).as_millis().max(0) as u64);
        }
        self.metrics.cell_restores += 1;
        self.tel.cell_restores.inc();
        self.tel.event(
            now,
            telemetry::EventKind::CellRestore,
            Some(i as u32),
            None,
            "supervisor restart",
        );
        self.cells[i].dirty = true;
    }

    /// Rebuild cell `i`'s manager from the fleet snapshot plus its own
    /// WAL ([`crate::durable::recover_cell`]) and swap it in — the crash
    /// lost the in-process state. Memory-only federations model an ideal
    /// durable store (the state is simply kept); with a journal the
    /// rebuilt state is cross-checked against the live image before the
    /// swap, so a divergence is counted instead of silently adopted.
    fn rehydrate(&mut self, i: usize, now: SimTime) {
        self.metrics.rehydrations += 1;
        self.tel.rehydrations.inc();
        self.tel.event(
            now,
            telemetry::EventKind::Rehydration,
            Some(i as u32),
            None,
            "rebuilding cell state",
        );
        let Some(j) = self.journal.as_mut() else {
            return; // ideal store: nothing was actually lost
        };
        // The cell process died, the supervisor that owns its log did
        // not: the log's batch is still in memory, so write it out before
        // `recover_cell` reads the file.
        j.flush(i);
        let dir = j.dir.clone();
        let store_cfg = j.cfg;
        let mgr_cfg = *self.cells[i].rm.config();
        // Wall-clock solve stats and the latency EWMA cannot survive a
        // process restart; equality is over the scheduling state proper.
        fn canonical(mut img: mrcp::ManagerImage) -> mrcp::ManagerImage {
            img.stats.total_solve = std::time::Duration::ZERO;
            img.stats.max_round_solve = std::time::Duration::ZERO;
            img.latency_ewma_s = None;
            img
        }
        match crate::durable::recover_cell(&dir, store_cfg, mgr_cfg, &self.resources, i) {
            Ok((rebuilt, _replayed)) => {
                if canonical(rebuilt.image()) == canonical(self.cells[i].rm.image()) {
                    self.cells[i].rm = rebuilt;
                    // The rebuilt manager replayed with telemetry off (no
                    // double counting); re-attach its live instruments.
                    self.cells[i]
                        .rm
                        .set_telemetry(&self.base_tel.scoped("cell", i));
                } else {
                    self.metrics.rehydrate_mismatches += 1;
                    self.tel.rehydrate_mismatches.inc();
                    self.last_error = Some(ManagerError::Inconsistent(
                        "rehydrated cell diverged from the live fleet state",
                    ));
                }
            }
            Err(_) => {
                self.metrics.rehydrate_mismatches += 1;
                self.tel.rehydrate_mismatches.inc();
                self.last_error = Some(ManagerError::Inconsistent(
                    "cell rehydration from the durable store failed",
                ));
            }
        }
    }

    /// Send `req` to cell `i` with at-most-once delivery: one sequence
    /// number, retries with capped backoff, dedup on the cell side, and
    /// — for must-answer calls or calls whose effect already landed —
    /// escalation to the supervisor's reliable channel. The attempt that
    /// applied appends `req` to the cell's WAL, so the WAL holds exactly
    /// what the cell was asked, one record per applied request, in
    /// application order. Returns `None` only in
    /// [`CallMode::BestEffort`] when no attempt applied.
    fn call_cell(
        &mut self,
        i: usize,
        req: &ManagerEvent,
        now: SimTime,
        mode: CallMode,
    ) -> Option<Reply> {
        let seq = self.cells[i].next_seq;
        self.cells[i].next_seq += 1;
        self.metrics.rpc_commands += 1;
        self.tel.rpc_commands.inc();
        let retry = RetryPolicy::default();
        let mut applied_any = false;
        let mut crash_seen = false;
        for attempt in 1..=retry.max_attempts.max(1) {
            if attempt > 1 {
                self.metrics.rpc_retries += 1;
                self.tel.rpc_retries.inc();
                self.metrics.rpc_latency_ms_total +=
                    retry.backoff(seq, attempt - 1).as_millis().max(0) as u64;
            }
            self.metrics.rpc_attempts += 1;
            self.tel.rpc_attempts.inc();
            let d = Self::deliver_to(&mut self.cells[i], seq, req, now, false);
            self.metrics.rpc_latency_ms_total += d.latency.as_millis().max(0) as u64;
            if d.applied {
                self.journal_cell(i, req);
                applied_any = true;
            }
            if d.deduped {
                self.metrics.rpc_dedup_hits += 1;
                self.tel.rpc_dedup_hits.inc();
            }
            match d.outcome {
                Ok(resp) => {
                    self.note_success(i, now);
                    return Some(resp);
                }
                Err(RpcError::CellDown) => {
                    // Definitive: the process is gone; retrying within
                    // this call cannot help (repairs take ≫ a backoff).
                    self.mark_down(i, now);
                    crash_seen = true;
                    break;
                }
                Err(e) => {
                    match e {
                        RpcError::Dropped => {
                            self.metrics.rpc_drops += 1;
                            self.tel.rpc_drops.inc();
                        }
                        RpcError::Timeout => {
                            self.metrics.rpc_timeouts += 1;
                            self.tel.rpc_timeouts.inc();
                        }
                        RpcError::CellDown => unreachable!("handled above"),
                    }
                    let before = self.health[i].state();
                    let after = self.health[i].on_failure(now);
                    if after == HealthState::Down && before != HealthState::Down {
                        self.metrics.cell_crashes += 1;
                        self.tel.cell_crashes.inc();
                        self.tel.event(
                            now,
                            telemetry::EventKind::CellCrash,
                            Some(i as u32),
                            None,
                            "failure threshold crossed",
                        );
                    }
                    self.note_health(i, before, now);
                }
            }
        }
        if mode == CallMode::BestEffort && !applied_any {
            return None;
        }
        // Escalation: the answer is owed (or the effect already landed
        // and its response must be recovered from the dedup cache). The
        // supervisor restarts a dead cell, rehydrates it, and uses the
        // reliable channel.
        self.metrics.rpc_escalations += 1;
        self.tel.rpc_escalations.inc();
        if crash_seen || self.health[i].state() == HealthState::Down {
            self.supervisor_restore(i, now);
        }
        self.metrics.rpc_attempts += 1;
        self.tel.rpc_attempts.inc();
        let d = Self::deliver_to(&mut self.cells[i], seq, req, now, true);
        if d.applied {
            self.journal_cell(i, req);
        }
        if d.deduped {
            self.metrics.rpc_dedup_hits += 1;
            self.tel.rpc_dedup_hits.inc();
        }
        match d.outcome {
            Ok(resp) => {
                self.note_success(i, now);
                Some(resp)
            }
            Err(_) => {
                // Unreachable: the reliable channel cannot fail after a
                // restart — but a broken invariant degrades the call,
                // not the process.
                let e = ManagerError::Inconsistent(
                    "reliable delivery failed after a supervisor restart",
                );
                debug_assert!(false, "{e}");
                self.last_error = Some(e);
                Some(Reply::Err(e))
            }
        }
    }

    /// [`call_cell`](Self::call_cell) in must-answer mode; infallible.
    fn call_cell_must(&mut self, i: usize, req: &ManagerEvent, now: SimTime) -> Reply {
        self.call_cell(i, req, now, CallMode::MustAnswer)
            .unwrap_or(Reply::Err(ManagerError::Inconsistent(
                "must-answer call returned nothing",
            )))
    }

    /// Must-answer call to cell `i` whose reply must have the shape `pick`
    /// accepts: the cell's own error passes through, any other shape is a
    /// [`bad_response`](Self::bad_response).
    fn ask<T>(
        &mut self,
        i: usize,
        req: &ManagerEvent,
        now: SimTime,
        pick: impl FnOnce(Reply) -> Option<T>,
    ) -> Result<T, ManagerError> {
        match self.call_cell_must(i, req, now) {
            Reply::Err(e) => Err(e),
            reply => pick(reply).ok_or_else(|| self.bad_response()),
        }
    }

    /// A cell answered with a response of the wrong shape — an internal
    /// inconsistency surfaced as a typed error, not a panic.
    fn bad_response(&mut self) -> ManagerError {
        let e = ManagerError::Inconsistent("cell returned a mismatched response type");
        debug_assert!(false, "{e}");
        self.last_error = Some(e);
        e
    }

    /// Round-boundary health sweep (chaos only): observe crashes the
    /// calls have not touched yet, restart cells whose outage ended, and
    /// fail the unstarted jobs of still-down cells over to survivors.
    fn sweep_health(&mut self, now: SimTime) {
        for i in 0..self.cells.len() {
            if !self.cells[i].endpoint.reachable(now) {
                self.mark_down(i, now);
            } else if self.health[i].state() == HealthState::Down {
                // The process is back: restart, rehydrate, rejoin. The
                // supervisor's restart probe doubles as the first
                // success, closing the circuit.
                self.supervisor_restore(i, now);
                self.note_success(i, now);
            }
        }
        for i in 0..self.cells.len() {
            if self.health[i].state() == HealthState::Down {
                self.failover_cell(i, now);
            }
        }
        // Last-resort availability: a down cell still holding a job with
        // no task in flight has no future event to force its restore —
        // its jobs could not fail over (no routable survivor, or tasks
        // already partially complete) and would be stranded past the end
        // of the run. The supervisor force-restarts it now instead of
        // waiting out the outage; jobs with running tasks can wait, since
        // their completions escalate a restore on arrival.
        for i in 0..self.cells.len() {
            if self.health[i].state() != HealthState::Down {
                continue;
            }
            let stranded = self.cells[i].rm.image().jobs.iter().any(|ji| {
                !ji.tasks
                    .iter()
                    .any(|t| matches!(t.status, TaskStatusImage::Started { .. }))
            });
            if stranded {
                self.supervisor_restore(i, now);
                self.note_success(i, now);
            }
        }
    }

    /// Move the fully-unstarted job `job` from cell `src` to cell `dst`,
    /// bypassing admission: journal and take it out of `src`, journal and
    /// submit it to `dst`, re-home the fleet maps, and mark `dst` dirty.
    /// Returns whether the job moved; `false` when `src` no longer holds
    /// it unstarted (raced with a lifecycle change — it is left where it
    /// is).
    fn move_job(&mut self, job: JobId, src: usize, dst: usize, now: SimTime) -> bool {
        self.journal_cell(src, &ManagerEvent::TakeUnstartedJob { job });
        let Ok(owned) = self.cells[src].rm.take_unstarted_job(job) else {
            return false;
        };
        let tasks: Vec<TaskId> = owned.tasks().map(|t| t.id).collect();
        let submit = ManagerEvent::Submit {
            job: owned.clone(),
            now,
        };
        self.journal_cell(dst, &submit);
        match self.cells[dst].rm.submit(owned, now) {
            Ok(_) => {
                self.job_cell.insert(job, dst);
                for t in tasks {
                    self.task_cell.insert(t, dst);
                }
                self.cells[dst].dirty = true;
                true
            }
            // Unreachable — the ids were just removed from `src` and are
            // foreign to `dst` — but a lost job must not take the run
            // down with it.
            Err(e) => {
                debug_assert!(false, "migration resubmit failed: {e}");
                self.last_error = Some(e);
                false
            }
        }
    }

    /// Move every fully-unstarted job off the down cell `i` onto the
    /// slackest surviving cell, via the same supervisor-driven
    /// reclaim-and-resubmit path the rebalancer uses
    /// ([`move_job`](Self::move_job)). Jobs with started tasks stay (they
    /// cannot migrate); the lifecycle events of their running tasks will
    /// force a restore when they arrive.
    fn failover_cell(&mut self, i: usize, now: SimTime) {
        let crash_t = self.cells[i].endpoint.down_since();
        let planned = self.cells[i].rm.planned_unstarted_jobs();
        for p in planned {
            let loads = self.loads();
            let Some(dest) = (0..self.cells.len())
                .filter(|&d| d != i && self.health[d].routable())
                .min_by(|&a, &b| loads[a].total_cmp(&loads[b]).then(a.cmp(&b)))
            else {
                // No survivor can take the work; the cell's jobs wait
                // for its restore instead.
                return;
            };
            if !self.move_job(p.job, i, dest, now) {
                continue;
            }
            self.metrics.failovers += 1;
            self.tel.failovers.inc();
            self.tel.event(
                now,
                telemetry::EventKind::Failover,
                Some(i as u32),
                Some(u64::from(p.job.0)),
                "unstarted job moved to survivor",
            );
            let from = crash_t.unwrap_or(self.health[i].since());
            self.metrics
                .failover_latencies_ms
                .push((now - from).as_millis().max(0) as u64);
        }
    }

    /// Solve every dirty cell's round, one cell after another in index
    /// order. A cell that is not routable is skipped: it stays dirty and
    /// replans after its restore. Under chaos the round travels through
    /// the cell's fallible endpoint; otherwise it is journalled
    /// write-ahead and applied in place.
    fn solve_dirty(&mut self, now: SimTime) {
        let round = ManagerEvent::Reschedule { now };
        let mut active = 0;
        let t0 = Instant::now();
        for i in 0..self.cells.len() {
            if !self.cells[i].dirty || !self.health[i].routable() {
                continue;
            }
            if self.cells[i].rm.jobs_in_system() > 0 {
                active += 1;
            }
            if self.chaos_active {
                // Must-answer: the driver may never call another round,
                // so a routable cell's solve cannot be deferred to a
                // "next time" that might not come.
                self.call_cell(i, &round, now, CallMode::MustAnswer);
            } else {
                // Write-ahead: the cell WAL records the round before the
                // solve mutates the cell.
                self.journal_cell(i, &round);
                apply(&mut self.cells[i].rm, &round);
            }
            self.cells[i].dirty = false;
        }
        if active > 0 {
            self.metrics.rounds += 1;
            let us = t0.elapsed().as_micros() as u64;
            self.metrics.round_latencies_us.push(us);
            self.metrics.max_cells_active = self.metrics.max_cells_active.max(active);
            self.tel.rounds.inc();
            self.tel.round_solve_us.record(us);
        }
    }

    /// Offer each cell's planned-late, fully-unstarted jobs to the cells
    /// with the most slack, bounded by the per-round migration budget.
    /// Returns how many jobs moved.
    fn run_rebalance(&mut self, now: SimTime) -> usize {
        if self.cells.len() < 2 {
            return 0;
        }
        // Candidates: late by the cell's own incumbent (or unplanned
        // entirely, deficit = MAX), already releasable so the migrated
        // submit re-enters as Active — the driver holds no activation
        // event for a job it believes is already in a scheduling set.
        // Unroutable cells sit out (the failover path owns their jobs).
        let mut cands: Vec<(i64, usize, JobId)> = Vec::new();
        for (i, c) in self.cells.iter().enumerate() {
            if !self.health[i].routable() {
                continue;
            }
            for p in c.rm.planned_unstarted_jobs() {
                if p.planned_completion > p.deadline && p.earliest_start <= now {
                    let deficit = if p.planned_completion == SimTime::MAX {
                        i64::MAX
                    } else {
                        (p.planned_completion - p.deadline).as_millis()
                    };
                    cands.push((deficit, i, p.job));
                }
            }
        }
        // Largest deficit first; ties deterministic on (cell, job).
        cands.sort_unstable_by_key(|&(d, i, j)| (std::cmp::Reverse(d), i, j));

        let mut moved = 0usize;
        for (_, src, job_id) in cands {
            if moved >= MAX_MIGRATIONS_PER_ROUND {
                break;
            }
            let Some(job) = self.cells[src].rm.job(job_id).cloned() else {
                continue; // already migrated away this pass
            };
            let loads = self.loads();
            let mut dests: Vec<usize> = (0..self.cells.len())
                .filter(|&i| i != src && self.health[i].routable())
                .collect();
            dests.sort_by(|&a, &b| loads[a].total_cmp(&loads[b]).then(a.cmp(&b)));
            for &d in dests.iter().take(PROBE_FANOUT) {
                self.metrics.migration_probes += 1;
                self.tel.migration_probes.inc();
                if self.cells[d].rm.probe_admission(&job, now).is_err() {
                    continue;
                }
                if self.move_job(job_id, src, d, now) {
                    self.cells[src].dirty = true;
                    self.metrics.migrations += 1;
                    self.tel.migrations.inc();
                    moved += 1;
                }
                break;
            }
        }
        moved
    }
}

impl ResourceManager for Federation {
    fn submit_with_admission(
        &mut self,
        job: Job,
        now: SimTime,
    ) -> Result<AdmissionOutcome, ManagerError> {
        // A call-per-arrival submit is a batch of one.
        self.submit_batch(vec![job], now)
            .pop()
            .expect("one outcome per submitted job")
    }

    /// The one submit path: a fleet-wide duplicate screen, then one pass
    /// routes the whole burst against a load snapshot updated
    /// incrementally per placement, and each touched cell receives a
    /// single [`ManagerEvent::SubmitBatch`] RPC instead of one delivery
    /// per job — so a burst of B jobs over K cells costs at most K
    /// deliveries (and K cell-WAL records). Per-job semantics are
    /// preserved: the cell applies its group as sequential admissions and
    /// outcomes scatter back in input order. Routing *decisions* may
    /// differ from one-at-a-time submission at K ≥ 2 (later jobs see
    /// estimated, not applied, loads of earlier ones); at K = 1 they
    /// coincide exactly, which keeps the `cells = 1 ⇔ single manager`
    /// anchor intact in service mode.
    fn submit_batch(
        &mut self,
        jobs: Vec<Job>,
        now: SimTime,
    ) -> Vec<Result<AdmissionOutcome, ManagerError>> {
        self.tick(now);
        let n = jobs.len();
        let mut results: Vec<Option<Result<AdmissionOutcome, ManagerError>>> = vec![None; n];
        // Fleet-wide duplicate screening, extended to twins inside the
        // batch itself (the per-cell checks cannot see either).
        let mut batch_jobs: HashSet<JobId> = HashSet::new();
        let mut batch_tasks: HashSet<TaskId> = HashSet::new();
        // Load snapshot + per-cell up-slot counts for the incremental
        // estimate: placing a job adds its outstanding work per slot.
        let mut est_loads = self.loads();
        let slots: Vec<f64> = self
            .cells
            .iter()
            .map(|c| {
                let down = c.rm.down_resources();
                f64::from(
                    c.rm.resources()
                        .iter()
                        .filter(|r| !down.contains(&r.id))
                        .map(|r| r.map_capacity + r.reduce_capacity)
                        .sum::<u32>(),
                )
            })
            .collect();
        // (input index, job id, task ids, spilled) per destination cell.
        type BatchJobMeta = (usize, JobId, Vec<TaskId>, bool);
        let mut group_meta: Vec<Vec<BatchJobMeta>> = vec![Vec::new(); self.cells.len()];
        let mut group_jobs: Vec<Vec<Job>> = vec![Vec::new(); self.cells.len()];
        for (idx, job) in jobs.into_iter().enumerate() {
            if self.job_cell.contains_key(&job.id) || batch_jobs.contains(&job.id) {
                results[idx] = Some(Err(ManagerError::DuplicateJob(job.id)));
                continue;
            }
            if let Some(t) = job
                .tasks()
                .find(|t| self.task_cell.contains_key(&t.id) || batch_tasks.contains(&t.id))
            {
                results[idx] = Some(Err(ManagerError::DuplicateTask(t.id)));
                continue;
            }
            batch_jobs.insert(job.id);
            batch_tasks.extend(job.tasks().map(|t| t.id));
            let (cell, spilled) = self.route_from(&est_loads, &job, now);
            if slots[cell] > 0.0 {
                let work: f64 = job.tasks().map(|t| t.exec_time.as_secs_f64()).sum();
                est_loads[cell] += work / slots[cell];
            }
            group_meta[cell].push((idx, job.id, job.tasks().map(|t| t.id).collect(), spilled));
            group_jobs[cell].push(job);
        }
        for cell in 0..self.cells.len() {
            let meta = std::mem::take(&mut group_meta[cell]);
            if meta.is_empty() {
                continue;
            }
            let req = ManagerEvent::SubmitBatch {
                jobs: std::mem::take(&mut group_jobs[cell]),
                now,
            };
            // Best-effort to the routed cell, whole-group reroute to the
            // best untried routable cell when the target is unreachable
            // and the submit never applied, and — an arrival cannot be
            // dropped — a forced must-answer restore of the original
            // target when every cell is unroutable.
            let mut target = cell;
            let first_target = cell;
            let mut tried = vec![cell];
            let mut rerouted = false;
            let resp = loop {
                match self.call_cell(target, &req, now, CallMode::BestEffort) {
                    Some(resp) => break resp,
                    None => {
                        let loads = self.loads();
                        let next = (0..self.cells.len())
                            .filter(|c| !tried.contains(c) && self.health[*c].routable())
                            .min_by(|&a, &b| loads[a].total_cmp(&loads[b]).then(a.cmp(&b)));
                        match next {
                            Some(c) => {
                                self.metrics.reroutes += 1;
                                self.tel.reroutes.inc();
                                rerouted = true;
                                target = c;
                                tried.push(c);
                            }
                            None => {
                                target = first_target;
                                rerouted = false;
                                break self.call_cell_must(first_target, &req, now);
                            }
                        }
                    }
                }
            };
            let outs = match resp {
                Reply::AdmissionBatch(outs) if outs.len() == meta.len() => outs,
                Reply::Err(e) => {
                    for (idx, ..) in meta {
                        results[idx] = Some(Err(e));
                    }
                    continue;
                }
                _ => {
                    let e = self.bad_response();
                    for (idx, ..) in meta {
                        results[idx] = Some(Err(e));
                    }
                    continue;
                }
            };
            let mut any_admitted = false;
            for ((idx, job_id, task_ids, spilled), out) in meta.into_iter().zip(outs) {
                // A reroute invalidates the probe-based spill judgment.
                let spilled = spilled && !rerouted;
                match out {
                    Ok(out) => {
                        for ab in &out.shed {
                            self.forget(ab);
                        }
                        if out.submitted.is_some() {
                            self.job_cell.insert(job_id, target);
                            for t in task_ids {
                                self.task_cell.insert(t, target);
                            }
                            self.metrics.jobs_routed[target] += 1;
                            self.tel.jobs_routed[target].inc();
                            if spilled {
                                self.metrics.spills += 1;
                                self.tel.spills.inc();
                            }
                            self.cells[target].dirty = true;
                            any_admitted = true;
                        } else if !out.shed.is_empty() {
                            self.cells[target].dirty = true;
                        }
                        results[idx] = Some(Ok(out));
                    }
                    Err(e) => results[idx] = Some(Err(e)),
                }
            }
            if any_admitted {
                self.note_fleet_depth();
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every batched job received an outcome"))
            .collect()
    }

    fn activate_due(&mut self, now: SimTime) -> usize {
        self.tick(now);
        let mut total = 0;
        for i in 0..self.cells.len() {
            // Every cell sweeps its deferral queue; a missed sweep could
            // strand a deferred job forever, so activation is
            // must-answer even for a down cell.
            let req = ManagerEvent::ActivateDue { now };
            let pick = |r| match r {
                Reply::Activated(n) => Some(n),
                _ => None,
            };
            match self.ask(i, &req, now, pick) {
                Ok(n) => {
                    if n > 0 {
                        self.cells[i].dirty = true;
                    }
                    total += n;
                }
                Err(e) => self.last_error = Some(e),
            }
        }
        total
    }

    fn reschedule(&mut self, now: SimTime) -> Vec<ScheduleEntry> {
        self.tick(now);
        if self.chaos_active {
            self.sweep_health(now);
        }
        self.solve_dirty(now);
        if self.run_rebalance(now) > 0 {
            // One follow-up pass replans the cells the migrations touched;
            // no second rebalance, so a round cannot ping-pong jobs.
            self.solve_dirty(now);
        }
        if self.chaos_active {
            let found = self.audit();
            let room = MAX_VIOLATIONS.saturating_sub(self.violations.len());
            self.violations.extend(found.into_iter().take(room));
        }
        let mut entries: Vec<ScheduleEntry> = self
            .cells
            .iter()
            .flat_map(|c| c.rm.current_schedule())
            .collect();
        entries.sort_by_key(|e| (e.start, e.task));
        entries
    }

    fn task_started(&mut self, task: TaskId, now: SimTime) -> Result<ResourceId, ManagerError> {
        self.tick(now);
        let cell = self.cell_of_task(task)?;
        let req = ManagerEvent::TaskStarted { task, now };
        self.ask(cell, &req, now, |r| match r {
            Reply::Started(rid) => Some(rid),
            _ => None,
        })
    }

    fn task_completed(
        &mut self,
        task: TaskId,
        now: SimTime,
    ) -> Result<Option<JobCompletion>, ManagerError> {
        self.tick(now);
        let cell = self.cell_of_task(task)?;
        let req = ManagerEvent::TaskCompleted { task, now };
        let done = self.ask(cell, &req, now, |r| match r {
            Reply::Completed(done) => Some(done),
            _ => None,
        })?;
        // A completion frees capacity the next round can use even when
        // the driver does not replan for it immediately.
        self.cells[cell].dirty = true;
        self.task_cell.remove(&task);
        if let Some(c) = &done {
            self.job_cell.remove(&c.job);
            self.note_fleet_depth();
        }
        Ok(done)
    }

    fn task_duration_revised(
        &mut self,
        task: TaskId,
        new_exec: SimTime,
    ) -> Result<(), ManagerError> {
        let cell = self.cell_of_task(task)?;
        let req = ManagerEvent::TaskDurationRevised { task, new_exec };
        self.ask(cell, &req, self.clock, |r| {
            matches!(r, Reply::Revised).then_some(())
        })?;
        self.cells[cell].dirty = true;
        Ok(())
    }

    fn task_failed(&mut self, task: TaskId, now: SimTime) -> Result<FailureAction, ManagerError> {
        self.tick(now);
        let cell = self.cell_of_task(task)?;
        let req = ManagerEvent::TaskFailed { task, now };
        let action = self.ask(cell, &req, now, |r| match r {
            Reply::Failed(action) => Some(action),
            _ => None,
        })?;
        self.cells[cell].dirty = true;
        if let FailureAction::JobAbandoned(ab) = &action {
            let ab = ab.clone();
            self.forget(&ab);
            self.note_fleet_depth();
        }
        Ok(action)
    }

    fn resource_down(
        &mut self,
        rid: ResourceId,
        now: SimTime,
    ) -> Result<Vec<TaskId>, ManagerError> {
        self.tick(now);
        let cell = *self
            .res_cell
            .get(&rid)
            .ok_or(ManagerError::UnknownResource(rid))?;
        let req = ManagerEvent::ResourceDown { resource: rid, now };
        let interrupted = self.ask(cell, &req, now, |r| match r {
            Reply::Interrupted(interrupted) => Some(interrupted),
            _ => None,
        })?;
        self.cells[cell].dirty = true;
        Ok(interrupted)
    }

    fn resource_up(&mut self, rid: ResourceId, now: SimTime) -> Result<(), ManagerError> {
        self.tick(now);
        let cell = *self
            .res_cell
            .get(&rid)
            .ok_or(ManagerError::UnknownResource(rid))?;
        let req = ManagerEvent::ResourceUp { resource: rid, now };
        self.ask(cell, &req, now, |r| {
            matches!(r, Reply::ResourceUp).then_some(())
        })?;
        self.cells[cell].dirty = true;
        Ok(())
    }

    fn jobs_in_system(&self) -> usize {
        self.cells.iter().map(|c| c.rm.jobs_in_system()).sum()
    }

    fn stats(&self) -> ManagerStats {
        let mut agg = ManagerStats::default();
        for c in &self.cells {
            agg.absorb(&c.rm.stats());
        }
        // Counters sum across cells, but queue depth is a fleet-wide
        // high-water mark the federation tracks itself.
        agg.max_queue_depth = self.max_fleet_depth;
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::model::homogeneous_cluster;

    /// A job of one five-second map task, due in 1 000 s.
    fn one_map_job(id: u32) -> Job {
        Job {
            id: JobId(id),
            arrival: SimTime::ZERO,
            earliest_start: SimTime::ZERO,
            deadline: SimTime::from_secs(1_000),
            map_tasks: vec![workload::Task {
                id: TaskId(id * 10),
                job: JobId(id),
                kind: workload::TaskKind::Map,
                exec_time: SimTime::from_secs(5),
                req: 1,
            }],
            reduce_tasks: Vec::new(),
        }
    }

    fn two_cells(chaos: &ChaosConfig) -> Federation {
        let res = homogeneous_cluster(2, 2, 2);
        Federation::with_chaos(
            &ClusterConfig { cells: 2 },
            MrcpConfig::default(),
            res,
            chaos,
        )
    }

    /// A two-cell fleet holding one job, with one fleet-map entry planted
    /// for a job no cell holds.
    fn planted(chaos: &ChaosConfig) -> Federation {
        let mut fed = two_cells(chaos);
        fed.submit_with_admission(one_map_job(1), SimTime::ZERO)
            .unwrap();
        assert!(fed.audit().is_empty(), "{:?}", fed.audit());
        fed.job_cell.insert(JobId(99), 0);
        fed
    }

    #[test]
    fn chaos_fleet_reports_a_planted_map_inconsistency_after_the_next_round() {
        // Duplicated deliveries: active, yet absorbed by the dedup window.
        let chaos = ChaosConfig {
            dup_prob: 1.0,
            ..ChaosConfig::default()
        };
        let mut fed = planted(&chaos);
        assert!(fed.violations().is_empty());
        fed.reschedule(SimTime::ZERO);
        assert_eq!(
            fed.violations(),
            ["fleet map holds 2 jobs but the cells hold 1"]
        );
    }

    #[test]
    fn chaos_free_fleet_skips_the_audit() {
        let mut fed = planted(&ChaosConfig::default());
        fed.reschedule(SimTime::ZERO);
        assert!(fed.violations().is_empty());
        // The plant is there; only the audit did not run.
        assert_eq!(fed.audit().len(), 1);
    }

    /// A down cell's round is skipped, so it neither solves nor counts:
    /// the round booked is the one cell that did.
    #[test]
    fn a_round_counts_only_the_cells_that_solved() {
        let chaos = ChaosConfig {
            dup_prob: 1.0,
            ..ChaosConfig::default()
        };
        let mut fed = two_cells(&chaos);
        for id in [1, 2] {
            fed.submit_with_admission(one_map_job(id), SimTime::ZERO)
                .unwrap();
        }
        assert_eq!(fed.cluster_metrics().jobs_routed, [1, 1]);
        fed.health[0].force_down(SimTime::ZERO);
        fed.solve_dirty(SimTime::ZERO);
        assert!(
            fed.cells[0].dirty,
            "the down cell replans after its restore"
        );
        assert!(!fed.cells[1].dirty);
        assert_eq!(fed.cluster_metrics().rounds, 1);
        assert_eq!(fed.cluster_metrics().max_cells_active, 1);
    }
}

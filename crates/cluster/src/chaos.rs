//! Fault injection for the router→cell boundary, and the chaos harness
//! that drives a federation through it.
//!
//! [`ChaosEndpoint`] wraps the reliable [`InProcEndpoint`] with the
//! partial-failure modes a real federation sees: per-call latency drawn
//! from an exponential with a hard deadline, request drops, duplicated
//! deliveries, response hangs, and whole-cell crashes driven by the same
//! exponential MTTF/MTTR renewal process `workload::fault` uses for
//! resource outages ([`workload::fault::Renewal`]). Each cell gets its
//! own seeded RNG stream, so runs are deterministic per
//! [`ChaosConfig::seed`] and independent of wall clock.
//!
//! A crash loses the cell's manager-process state: until the supervisor
//! restarts the cell (and rehydrates it — via
//! [`crate::durable::recover_cell`] WAL replay when the federation runs
//! durable), every delivery fails with
//! [`RpcError::CellDown`]. Injected latency is *accounted* (it shows up
//! in the delivery records and metrics) but not woven into the event
//! timeline — scheduling-visible behavior changes come from drops,
//! duplicates, and crashes, which keeps the driver's event loop
//! untouched.
//!
//! [`simulate_cluster_chaos`] runs the full driver against a chaos-wired
//! federation and checks the runtime invariants (every job in exactly
//! one cell, fleet maps consistent, conservation at drain) after every
//! scheduling round.

use crate::durable::DurableFederation;
use crate::endpoint::{CellEndpoint, Delivery, InProcEndpoint, RpcError};
use crate::federation::{ClusterSimConfig, Federation};
use desim::SimTime;
use durability::{DurabilityConfig, ManagerEvent};
use mrcp::manager::MrcpRm;
use mrcp::sim_driver::{simulate_with, JobOutcome, ResourceManager, RunMetrics, Watched};
use mrcp::TaskStatusImage;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use workload::dist::Exponential;
use workload::fault::Renewal;
use workload::{Job, Resource};

/// Fault-injection knobs for the router→cell boundary. The default
/// injects nothing — and an inactive config leaves the federation on the
/// plain in-process endpoints, so the chaos entry points are then
/// bit-identical to [`crate::simulate_cluster`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Probability a request is lost before the cell executes it.
    pub drop_prob: f64,
    /// Probability a request is delivered twice (the second copy hits
    /// the cell-side sequence-number dedup).
    pub dup_prob: f64,
    /// Probability the cell executes the request but the response never
    /// returns (reported as a timeout with `applied = true`).
    pub hang_prob: f64,
    /// Mean of the exponential per-call latency (`None` = zero latency).
    pub mean_latency: Option<SimTime>,
    /// Per-call deadline: a sampled latency beyond it is a timeout (the
    /// cell still applied the command — only the answer was too late).
    pub call_deadline: SimTime,
    /// Mean time to failure of each cell's manager process (`None`
    /// disables crashes).
    pub cell_mttf: Option<SimTime>,
    /// Mean time to repair of a crashed cell process (required with
    /// `cell_mttf`).
    pub cell_mttr: Option<SimTime>,
    /// Seed for the per-cell fault RNG streams.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            drop_prob: 0.0,
            dup_prob: 0.0,
            hang_prob: 0.0,
            mean_latency: None,
            call_deadline: SimTime::from_millis(100),
            cell_mttf: None,
            cell_mttr: None,
            seed: 0,
        }
    }
}

impl ChaosConfig {
    /// Whether any fault mechanism is active. Inactive configs keep the
    /// federation on the reliable in-process path — no RNG is ever
    /// consulted, which is what the bit-exactness guarantee rests on.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.dup_prob > 0.0
            || self.hang_prob > 0.0
            || self.mean_latency.is_some()
            || self.cell_mttf.is_some()
    }

    /// Sanity-check the knobs.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("drop_prob", self.drop_prob),
            ("dup_prob", self.dup_prob),
            ("hang_prob", self.hang_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name}={p} outside [0, 1]"));
            }
        }
        if let Some(l) = self.mean_latency {
            if l <= SimTime::ZERO {
                return Err(format!("mean_latency {l} must be positive"));
            }
        }
        if self.call_deadline <= SimTime::ZERO {
            return Err(format!(
                "call_deadline {} must be positive",
                self.call_deadline
            ));
        }
        if let Some(mttf) = self.cell_mttf {
            if mttf <= SimTime::ZERO {
                return Err(format!("cell_mttf {mttf} must be positive"));
            }
            match self.cell_mttr {
                Some(mttr) if mttr > SimTime::ZERO => {}
                _ => return Err("cell_mttf needs a positive cell_mttr".into()),
            }
        }
        Ok(())
    }
}

/// The fault-injecting endpoint: an [`InProcEndpoint`] behind a lossy,
/// crash-prone channel.
#[derive(Debug)]
pub struct ChaosEndpoint {
    inner: InProcEndpoint,
    cfg: ChaosConfig,
    rng: StdRng,
    /// The cell-crash renewal process, when crashes are enabled.
    renewal: Option<Renewal>,
    /// When the next crash strikes (armed while the cell is up).
    next_crash: Option<SimTime>,
    /// The current outage as `(began, process_back_at)`; kept until the
    /// supervisor restarts the cell, because a process that came back by
    /// itself is still amnesiac until rehydrated.
    outage: Option<(SimTime, SimTime)>,
    /// Set from crash until restart: the manager state died with the
    /// process and must be rebuilt before the cell serves again.
    state_lost: bool,
}

impl ChaosEndpoint {
    /// A chaos endpoint for cell `cell` (each cell gets its own RNG
    /// stream derived from `cfg.seed`). Panics on invalid knobs,
    /// mirroring `FaultModel::new`.
    pub fn new(cfg: ChaosConfig, cell: usize) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid chaos config: {e}");
        }
        let stream = cfg
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(cell as u64 + 1));
        let mut renewal = cfg.cell_mttf.map(|mttf| {
            Renewal::new(
                mttf,
                cfg.cell_mttr.expect("validated: mttf implies mttr"),
                StdRng::seed_from_u64(stream ^ 0xC2B2_AE3D_27D4_EB4F),
            )
        });
        let next_crash = renewal.as_mut().map(|r| r.time_to_failure());
        ChaosEndpoint {
            inner: InProcEndpoint::new(),
            cfg,
            rng: StdRng::seed_from_u64(stream),
            renewal,
            next_crash,
            outage: None,
            state_lost: false,
        }
    }

    /// Advance the crash process to `now`: strike a due crash.
    fn advance(&mut self, now: SimTime) {
        if self.outage.is_some() || self.state_lost {
            return;
        }
        if let Some(at) = self.next_crash {
            if now >= at {
                let repair = self
                    .renewal
                    .as_mut()
                    .expect("crash armed without a renewal process")
                    .repair_time();
                self.outage = Some((at, at + repair));
                self.state_lost = true;
                self.next_crash = None;
            }
        }
    }

    /// Down for deliveries: mid-outage, or back up but not yet
    /// rehydrated.
    fn refuses_calls(&self, now: SimTime) -> bool {
        match self.outage {
            Some((_, until)) => now < until || self.state_lost,
            None => self.state_lost,
        }
    }

    fn sample_latency(&mut self) -> SimTime {
        match self.cfg.mean_latency {
            Some(mean) => {
                let exp = Exponential::new(1.0 / mean.as_secs_f64());
                SimTime::from_secs_f64(exp.sample(&mut self.rng))
            }
            None => SimTime::ZERO,
        }
    }
}

impl CellEndpoint for ChaosEndpoint {
    fn deliver(&mut self, rm: &mut MrcpRm, seq: u64, req: &ManagerEvent, now: SimTime) -> Delivery {
        self.advance(now);
        if self.refuses_calls(now) {
            return Delivery {
                outcome: Err(RpcError::CellDown),
                applied: false,
                deduped: false,
                latency: SimTime::ZERO,
            };
        }
        // Fixed draw order per attempt keeps the stream deterministic:
        // latency, then drop, then dup, then hang. A knob at zero draws
        // nothing.
        let latency = self.sample_latency();
        let dropped = self.cfg.drop_prob > 0.0 && self.rng.gen_bool(self.cfg.drop_prob);
        if dropped {
            return Delivery {
                outcome: Err(RpcError::Dropped),
                applied: false,
                deduped: false,
                latency,
            };
        }
        let mut d = self.inner.deliver(rm, seq, req, now);
        d.latency = latency;
        if self.cfg.dup_prob > 0.0 && self.rng.gen_bool(self.cfg.dup_prob) {
            // The network delivered the request twice; the second copy
            // must be absorbed by the cell-side dedup.
            let twin = self.inner.deliver(rm, seq, req, now);
            debug_assert!(!twin.applied, "duplicate delivery re-applied");
            d.deduped = d.deduped || twin.deduped;
        }
        if self.cfg.hang_prob > 0.0 && self.rng.gen_bool(self.cfg.hang_prob) {
            // Applied, but the response never comes back.
            d.outcome = Err(RpcError::Timeout);
            return d;
        }
        if latency > self.cfg.call_deadline {
            d.outcome = Err(RpcError::Timeout);
        }
        d
    }

    fn deliver_reliable(
        &mut self,
        rm: &mut MrcpRm,
        seq: u64,
        req: &ManagerEvent,
        now: SimTime,
    ) -> Delivery {
        debug_assert!(
            !self.refuses_calls(now),
            "reliable delivery to a cell the supervisor has not restarted"
        );
        self.inner.deliver(rm, seq, req, now)
    }

    fn reachable(&mut self, now: SimTime) -> bool {
        self.advance(now);
        match self.outage {
            Some((_, until)) => now >= until,
            None => true,
        }
    }

    fn down_since(&self) -> Option<SimTime> {
        self.outage.map(|(began, _)| began)
    }

    fn restart(&mut self, now: SimTime) -> bool {
        let lost = self.state_lost;
        self.outage = None;
        self.state_lost = false;
        if let Some(r) = self.renewal.as_mut() {
            self.next_crash = Some(now + r.time_to_failure());
        }
        lost
    }
}

/// Inputs for a chaos run: the federated simulation plus the fault
/// knobs (the retry schedule and breaker thresholds are constants).
#[derive(Debug, Clone, Default)]
pub struct ChaosSimConfig {
    /// Driver + federation configuration.
    pub base: ClusterSimConfig,
    /// Boundary fault injection.
    pub chaos: ChaosConfig,
}

/// Everything a chaos run produces.
#[derive(Debug)]
pub struct ChaosRun {
    /// The paper's metrics.
    pub metrics: RunMetrics,
    /// Per-job outcomes in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// The federation, for post-run inspection (cluster metrics, cells,
    /// health).
    pub federation: Federation,
    /// Invariant violations observed after any round or at drain; empty
    /// on a correct run.
    pub violations: Vec<String>,
}

/// Check the federation's runtime invariants: every live job is pending
/// in *exactly one* cell and the fleet maps agree with the cells; no
/// live task is owned by two cells. Returns human-readable violations
/// (empty when all hold).
pub fn check_federation(fed: &Federation) -> Vec<String> {
    let mut violations = Vec::new();
    let mut jobs_seen = std::collections::HashMap::new();
    let mut live_jobs = 0usize;
    for (i, cell) in fed.cells.iter().enumerate() {
        let img = cell.rm.image();
        for ji in &img.jobs {
            live_jobs += 1;
            if let Some(prev) = jobs_seen.insert(ji.job.id, i) {
                violations.push(format!(
                    "job {} lives in cells {} and {} at once",
                    ji.job.id, prev, i
                ));
            }
            match fed.job_cell.get(&ji.job.id) {
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
                match fed.task_cell.get(&t.id) {
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
    if fed.job_cell.len() != live_jobs {
        violations.push(format!(
            "fleet map holds {} jobs but the cells hold {live_jobs}",
            fed.job_cell.len()
        ));
    }
    violations
}

/// Job conservation at drain: every arrival is completed, rejected,
/// shed, or abandoned-with-typed-reason — nothing silently lost.
pub fn check_conservation(metrics: &RunMetrics, fed: &Federation) -> Vec<String> {
    let mut violations = Vec::new();
    let pending = fed.jobs_in_system();
    if pending != 0 {
        violations.push(format!("run ended with {pending} jobs still in the system"));
    }
    let accounted = metrics.completed as u64
        + metrics.jobs_rejected
        + metrics.jobs_shed
        + metrics.jobs_abandoned as u64;
    if accounted != metrics.arrived as u64 {
        violations.push(format!(
            "conservation broken: {} arrived but {} accounted \
             ({} completed + {} rejected + {} shed + {} abandoned)",
            metrics.arrived,
            accounted,
            metrics.completed,
            metrics.jobs_rejected,
            metrics.jobs_shed,
            metrics.jobs_abandoned
        ));
    }
    violations
}

fn run_checked<M, G>(
    cfg: &ChaosSimConfig,
    resources: &[Resource],
    jobs: Vec<Job>,
    build: impl FnOnce(mrcp::manager::MrcpConfig) -> M,
    as_fed: G,
) -> (RunMetrics, Vec<JobOutcome>, M, Vec<String>)
where
    M: ResourceManager,
    G: Fn(&M) -> &Federation,
{
    let seen = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&seen);
    let (metrics, outcomes, watched) = simulate_with(&cfg.base.sim, resources, jobs, |mgr_cfg| {
        Watched::new(build(mgr_cfg), move |m: &M| {
            sink.borrow_mut().extend(check_federation(as_fed(m)));
        })
    });
    let manager = watched.into_inner();
    let mut violations = std::mem::take(&mut *seen.borrow_mut());
    violations.truncate(64); // a broken run repeats itself every round
    (metrics, outcomes, manager, violations)
}

/// Run the full simulation against a chaos-wired, memory-only
/// federation; the invariant checker runs after every scheduling round
/// and conservation is checked at drain. With an inactive
/// [`ChaosConfig`] this is bit-identical to [`crate::simulate_cluster`]
/// (the determinism proptests hold the repo to it). Memory-only cells
/// model an ideal durable store: a crashed cell rejoins with its state
/// intact. Run [`simulate_cluster_chaos_durable`] to rehydrate through
/// real WAL replay instead.
pub fn simulate_cluster_chaos(
    cfg: &ChaosSimConfig,
    resources: &[Resource],
    jobs: Vec<Job>,
) -> ChaosRun {
    simulate_cluster_chaos_telemetry(cfg, resources, jobs, &telemetry::Telemetry::disabled())
}

/// [`simulate_cluster_chaos`] with live telemetry attached to the
/// federation before the run starts. Telemetry is strictly
/// observational, so the run is bit-identical to the plain variant —
/// the determinism proptests hold the repo to that too.
pub fn simulate_cluster_chaos_telemetry(
    cfg: &ChaosSimConfig,
    resources: &[Resource],
    jobs: Vec<Job>,
    tel: &telemetry::Telemetry,
) -> ChaosRun {
    let (metrics, outcomes, federation, mut violations) = run_checked(
        cfg,
        resources,
        jobs,
        |mgr_cfg| {
            let mut fed =
                Federation::with_chaos(&cfg.base.cluster, mgr_cfg, resources.to_vec(), &cfg.chaos);
            fed.set_telemetry(tel);
            fed
        },
        |fed: &Federation| fed,
    );
    violations.extend(check_conservation(&metrics, &federation));
    violations.extend(check_federation(&federation));
    ChaosRun {
        metrics,
        outcomes,
        federation,
        violations,
    }
}

/// Like [`simulate_cluster_chaos`], but over a [`DurableFederation`]
/// rooted at `dir`: a crashed cell's state is genuinely lost and rebuilt
/// from its snapshot + own WAL via [`crate::durable::recover_cell`]
/// before it rejoins.
pub fn simulate_cluster_chaos_durable(
    cfg: &ChaosSimConfig,
    resources: &[Resource],
    jobs: Vec<Job>,
    dir: &Path,
    durability: DurabilityConfig,
) -> ChaosRun {
    simulate_cluster_chaos_durable_telemetry(
        cfg,
        resources,
        jobs,
        dir,
        durability,
        &telemetry::Telemetry::disabled(),
    )
}

/// [`simulate_cluster_chaos_durable`] with live telemetry attached (see
/// [`simulate_cluster_chaos_telemetry`]).
pub fn simulate_cluster_chaos_durable_telemetry(
    cfg: &ChaosSimConfig,
    resources: &[Resource],
    jobs: Vec<Job>,
    dir: &Path,
    durability: DurabilityConfig,
    tel: &telemetry::Telemetry,
) -> ChaosRun {
    let (metrics, outcomes, durable, mut violations) = run_checked(
        cfg,
        resources,
        jobs,
        |mgr_cfg| {
            let mut d = DurableFederation::new(
                &cfg.base.cluster,
                mgr_cfg,
                resources.to_vec(),
                dir,
                durability,
            );
            d.enable_chaos(&cfg.chaos);
            d.set_telemetry(tel);
            d
        },
        |d: &DurableFederation| d.federation(),
    );
    violations.extend(check_conservation(&metrics, durable.federation()));
    violations.extend(check_federation(durable.federation()));
    ChaosRun {
        metrics,
        outcomes,
        federation: durable.into_federation(),
        violations,
    }
}

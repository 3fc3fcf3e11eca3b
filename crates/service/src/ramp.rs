//! One rung of a closed-loop capacity ramp: replay a synthetic workload at
//! one offered arrival rate and say whether the service-level objectives
//! held there.
//!
//! A rung replays a freshly generated synthetic workload (same generator
//! family, rung-specific seed, rung-specific `lambda`) through
//! [`mrcp::simulate_with`] with the manager wrapped in an
//! [`InstrumentedRm`], so it yields both the paper's run metrics (`P`,
//! `T`, shed fractions) and the ingest latency histograms. A rung is
//! *sustained* when all three SLOs hold:
//!
//! * `p_late ≤ slo_p_late` — the fraction of admitted jobs that missed
//!   their deadline,
//! * `shed_frac ≤ slo_shed_frac` — the fraction of arrivals refused or
//!   shed by admission control,
//! * `p99(ingest→planned) ≤ slo_p99_planned_us` — the tail of the
//!   arrival-to-first-planning-round latency.
//!
//! A caller looking for the knee of the throughput curve calls
//! [`run_rung`] at rising rates and stops at the first rung that is not
//! sustained.

use crate::instrument::{IngestMetrics, InstrumentedRm};
use desim::stats::LogHistogram;
use mrcp::sim_driver::ResourceManager;
use mrcp::{simulate_with, MrcpConfig, RunMetrics, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use workload::{Resource, SyntheticConfig, SyntheticGenerator};

/// Rung size, seed and SLO thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampConfig {
    /// Jobs generated per rung (closed loop: the rung runs until its
    /// workload drains, so offered rate — not run length — is the knob).
    pub jobs_per_rung: usize,
    /// SLO: max fraction of admitted jobs finishing late.
    pub slo_p_late: f64,
    /// SLO: max fraction of arrivals rejected or shed.
    pub slo_shed_frac: f64,
    /// SLO: max p99 arrival→first-planning-round latency, simulated µs.
    pub slo_p99_planned_us: u64,
    /// Base seed; rung `i` draws its workload from `seed + i`.
    pub seed: u64,
}

impl Default for RampConfig {
    fn default() -> Self {
        RampConfig {
            jobs_per_rung: 60,
            slo_p_late: 0.3,
            slo_shed_frac: 0.2,
            slo_p99_planned_us: 120_000_000, // 120 simulated seconds
            seed: 42,
        }
    }
}

/// One rung's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct RungReport {
    /// Offered rate, jobs per simulated second.
    pub rps: f64,
    /// Arrivals this rung offered.
    pub arrived: u64,
    /// Jobs admission accepted.
    pub admitted: u64,
    /// Jobs refused or shed; `shed_frac` is this over `arrived`.
    pub refused: u64,
    /// Refused fraction of arrivals.
    pub shed_frac: f64,
    /// Fraction of measured jobs that missed their deadline.
    pub p_late: f64,
    /// Mean turnaround of completed jobs, simulated seconds.
    pub mean_turnaround_s: f64,
    /// Batches the ingest layer flushed (one per arrival without batching).
    pub batches: u64,
    /// Largest batch observed.
    pub max_batch: usize,
    /// Ingest→admitted latency quantiles, simulated µs.
    pub p50_ingest_to_admitted_us: u64,
    pub p95_ingest_to_admitted_us: u64,
    pub p99_ingest_to_admitted_us: u64,
    /// Ingest→planned latency quantiles, simulated µs.
    pub p50_ingest_to_planned_us: u64,
    pub p95_ingest_to_planned_us: u64,
    pub p99_ingest_to_planned_us: u64,
    /// Scheduling rounds the run needed.
    pub invocations: u64,
    /// Virtual length of the rung, seconds.
    pub end_time_s: f64,
    /// Whether every SLO held.
    pub sustained: bool,
}

fn q(hist: &LogHistogram, quantile: f64) -> u64 {
    hist.quantile(quantile).unwrap_or(0)
}

fn rung_report(
    rps: f64,
    metrics: &RunMetrics,
    ingest: &IngestMetrics,
    cfg: &RampConfig,
) -> RungReport {
    let arrived = metrics.arrived as u64;
    let refused = metrics.jobs_rejected + metrics.jobs_shed;
    let shed_frac = if arrived == 0 {
        0.0
    } else {
        refused as f64 / arrived as f64
    };
    let p99_planned = q(&ingest.ingest_to_planned_us, 0.99);
    let sustained = metrics.p_late <= cfg.slo_p_late
        && shed_frac <= cfg.slo_shed_frac
        && p99_planned <= cfg.slo_p99_planned_us
        && ingest.admitted > 0;
    RungReport {
        rps,
        arrived,
        admitted: ingest.admitted,
        refused,
        shed_frac,
        p_late: metrics.p_late,
        mean_turnaround_s: metrics.mean_turnaround_s,
        batches: ingest.batches,
        max_batch: ingest.max_batch,
        p50_ingest_to_admitted_us: q(&ingest.ingest_to_admitted_us, 0.50),
        p95_ingest_to_admitted_us: q(&ingest.ingest_to_admitted_us, 0.95),
        p99_ingest_to_admitted_us: q(&ingest.ingest_to_admitted_us, 0.99),
        p50_ingest_to_planned_us: q(&ingest.ingest_to_planned_us, 0.50),
        p95_ingest_to_planned_us: q(&ingest.ingest_to_planned_us, 0.95),
        p99_ingest_to_planned_us: p99_planned,
        invocations: metrics.invocations,
        end_time_s: metrics.end_time_s,
        sustained,
    }
}

/// Run one rung at `rps` and measure it.
///
/// `build` constructs the manager under test from the driver's
/// [`MrcpConfig`] — pass the [`mrcp::MrcpRm`] constructor for a single
/// manager or a federation factory for the sharded fleet. Whether
/// ingest batching is active is decided by `sim.ingest`, exactly as in
/// [`mrcp::simulate_with`].
pub fn run_rung<M, F>(
    workload: &SyntheticConfig,
    sim: &SimConfig,
    resources: &[Resource],
    cfg: &RampConfig,
    rung_idx: usize,
    rps: f64,
    build: F,
) -> RungReport
where
    M: ResourceManager,
    F: FnOnce(MrcpConfig) -> M,
{
    let mut wl = workload.clone();
    wl.lambda = rps;
    let mut gen = SyntheticGenerator::new(
        wl,
        StdRng::seed_from_u64(cfg.seed.wrapping_add(rung_idx as u64)),
    );
    let jobs = gen.take_jobs(cfg.jobs_per_rung);
    let (metrics, _outcomes, rm) =
        simulate_with(sim, resources, jobs, |mc| InstrumentedRm::new(build(mc)));
    let (_inner, ingest) = rm.into_parts();
    rung_report(rps, &metrics, &ingest, cfg)
}

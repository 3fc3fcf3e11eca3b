//! The experiment definitions, one per paper artifact, each with the claims
//! it is checked against.
//!
//! * **Fig. 2** — MRCP-RM vs MinEDF-WC on the Facebook workload (Table 4
//!   mix, LogNormal task times, m = 64 with 1/1 slots, d_M = 2, p = 0),
//!   sweeping λ. Its `P` chart is the paper's Fig. 2 and its `T` chart the
//!   paper's Fig. 3 (same runs, same setup).
//! * **Fig. 4–9** — factor-at-a-time sweeps over the Table 3 synthetic
//!   workload with everything else at the boldface defaults.
//! * Extra panels beyond the paper's evaluation.
//!
//! A figure's `check` judges the paper's reported trend (or, for an extra
//! panel, the panel's own claim) on the simulated columns `P`, `N`, `T` and
//! rejected. It never reads `O`: that is wall clock, and at `--smoke` its
//! half-widths exceed its means, so a check on it would measure the host.
//! The checks compare means without a tolerance: at `--smoke` every
//! half-width is wider than the effect it would bound, so a CI-based
//! tolerance would pass anything. A claim that variants tie is the
//! exception; it is judged by overlapping confidence intervals.

use crate::report::{FigureResult, PointResult, Verdict};
use crate::runner::{replicate, replicate_series, MetricAgg, Sample, Scale};
use baselines::{DispatchRm, Policy};
use desim::stats::CiMean;
use desim::RngStreams;
use mrcp::{simulate, simulate_with, MrcpConfig, RunMetrics, SimConfig, SolveBudget};
use workload::{
    FacebookConfig, FacebookGenerator, FaultConfig, Job, Resource, SyntheticConfig,
    SyntheticGenerator,
};

/// A regenerable paper artifact.
pub struct Figure {
    /// Identifier (`fig2` … `fig9`, plus extras).
    pub name: &'static str,
    /// Title matching the paper's caption.
    pub title: &'static str,
    /// Regenerate at the given scale and master seed.
    pub run: fn(&Scale, u64) -> FigureResult,
    /// Judge the figure's claims on a regenerated result; an empty list
    /// means the figure makes no claim on the simulated columns.
    pub check: fn(&FigureResult) -> Vec<Verdict>,
}

/// Every regenerable artifact, in paper order.
pub fn all_figures() -> Vec<Figure> {
    vec![
        Figure {
            name: "fig2",
            title: "MRCP-RM vs MinEDF-WC on the Facebook workload: P (Fig. 2) and T (Fig. 3)",
            run: run_fig2,
            check: check_fig2,
        },
        Figure {
            name: "fig4",
            title: "Effect of task execution time (e_max)",
            run: |scale, seed| {
                synth_sweep(scale, seed, "e_max", &[10, 50, 100], |c, v| c.e_max = v)
            },
            check: check_fig4,
        },
        Figure {
            name: "fig5",
            title: "Effect of earliest start time (s_max)",
            run: |scale, seed| {
                synth_sweep(scale, seed, "s_max", &[10_000, 50_000, 250_000], |c, v| {
                    c.s_max = v
                })
            },
            check: check_fig5,
        },
        Figure {
            name: "fig6",
            title: "Effect of probability of future start (p)",
            run: |scale, seed| {
                synth_sweep(scale, seed, "p", &[0.1, 0.5, 0.9], |c, v| c.p_future_start = v)
            },
            check: check_fig6,
        },
        Figure {
            name: "fig7",
            title: "Effect of deadline multiplier (d_M)",
            run: |scale, seed| {
                synth_sweep(scale, seed, "d_M", &[2.0, 5.0, 10.0], |c, v| {
                    c.deadline_multiplier = v
                })
            },
            check: check_fig7,
        },
        Figure {
            name: "fig8",
            title: "Effect of job arrival rate (λ)",
            run: |scale, seed| {
                synth_sweep(scale, seed, "λ", &[0.001, 0.01, 0.015, 0.02], |c, v| {
                    c.lambda = v
                })
            },
            check: check_fig8,
        },
        Figure {
            name: "fig9",
            title: "Effect of the number of resources (m)",
            run: |scale, seed| {
                synth_sweep(scale, seed, "m", &[25, 50, 100], |c, v| c.resources = v)
            },
            check: check_fig9,
        },
        Figure {
            name: "baselines",
            title: "Extra: MRCP-RM vs all baselines (EDF, FCFS, MinEDF, MinEDF-WC) at the Fig. 2 midpoint λ",
            run: run_baseline_panel,
            check: check_baselines,
        },
        Figure {
            name: "faults",
            title: "Extra: failure sweep — SLA performance under fault injection",
            run: run_fault_sweep,
            check: check_faults,
        },
        Figure {
            name: "overload",
            title: "Extra: overload sweep — admission policies through and past saturation",
            run: run_overload_sweep,
            check: check_overload,
        },
        Figure {
            name: "workers",
            title: "Extra: portfolio workers sweep — per-round parallel CP search (K = 1, 2, 4)",
            run: run_workers_sweep,
            check: |_| Vec::new(),
        },
        Figure {
            name: "chaos",
            title: "Extra: chaos sweep — SLA performance under a faulty cell boundary (drop/dup/hang/crash)",
            run: run_chaos_sweep,
            check: check_chaos,
        },
        Figure {
            name: "service",
            title: "Extra: ingest mode sweep — batched arrival coalescing vs call-per-arrival under per-solve overhead",
            run: run_service_sweep,
            check: check_service,
        },
        Figure {
            name: "ablations",
            title: "Extra: MRCP-RM design ablations (split §V.D, deferral §V.E, orderings)",
            run: run_ablation_panel,
            check: check_ablations,
        },
    ]
}

/// Look up a figure by its identifier.
pub fn figure_by_name(name: &str) -> Option<Figure> {
    all_figures().into_iter().find(|f| f.name == name)
}

const MRCP: &str = "MRCP-RM";
const MINEDF_WC: &str = "MinEDF-WC";

// ---------------------------------------------------------------------
// Shared runners
// ---------------------------------------------------------------------

fn mrcp_sim_config(scale: &Scale, jobs: usize) -> SimConfig {
    SimConfig {
        manager: MrcpConfig {
            budget: SolveBudget {
                node_limit: scale.solver_nodes,
                fail_limit: scale.solver_nodes,
                ..SolveBudget::default()
            },
            ..Default::default()
        },
        warmup_jobs: scale.warmup_jobs(jobs),
        ..Default::default()
    }
}

/// Apply the scale's task-count cap to a synthetic config (paper scale
/// leaves Table 3's DU[1,100] untouched). The cluster shrinks by the same
/// ratio so per-slot utilization — and with it every contention-driven
/// trend — stays at the paper's level.
fn capped(mut cfg: SyntheticConfig, scale: &Scale) -> SyntheticConfig {
    let cap = scale.synth_tasks_cap;
    if cap < cfg.maps_per_job.1 || cap < cfg.reduces_per_job.1 {
        let ratio = cap as f64 / cfg.maps_per_job.1.max(cfg.reduces_per_job.1) as f64;
        cfg.maps_per_job = (cfg.maps_per_job.0, cfg.maps_per_job.1.min(cap));
        cfg.reduces_per_job = (cfg.reduces_per_job.0, cfg.reduces_per_job.1.min(cap));
        cfg.resources = ((cfg.resources as f64 * ratio).round() as u32).max(2);
    }
    cfg
}

fn synth_jobs(cfg: &SyntheticConfig, scale: &Scale, seed: u64, rep: u64) -> Vec<Job> {
    let rng = RngStreams::for_replication(seed, rep).stream("workload");
    let mut gen = SyntheticGenerator::new(cfg.clone(), rng);
    gen.take_jobs(scale.synth_jobs)
}

/// One run through the one driver: MRCP-RM when `policy` is `None`, else
/// that dispatch baseline.
fn run_sim(
    policy: Option<Policy>,
    sim: &SimConfig,
    cluster: &[Resource],
    jobs: Vec<Job>,
) -> RunMetrics {
    match policy {
        None => simulate(sim, cluster, jobs),
        Some(p) => {
            simulate_with(sim, cluster, jobs, |c| {
                DispatchRm::new(p, c, cluster.to_vec())
            })
            .0
        }
    }
}

/// One replication over a synthetic workload, with `tweak` applied to the
/// driver configuration first.
fn synth_sample(
    policy: Option<Policy>,
    cfg: &SyntheticConfig,
    scale: &Scale,
    seed: u64,
    rep: u64,
    tweak: impl FnOnce(&mut SimConfig),
) -> Sample {
    let jobs = synth_jobs(cfg, scale, seed, rep);
    let mut sim = mrcp_sim_config(scale, jobs.len());
    tweak(&mut sim);
    Sample::of(&run_sim(policy, &sim, &cfg.cluster(), jobs))
}

fn facebook_jobs(cfg: &FacebookConfig, scale: &Scale, seed: u64, rep: u64) -> Vec<Job> {
    let rng = RngStreams::for_replication(seed, rep).stream("workload");
    let mut gen = FacebookGenerator::new(cfg.clone(), rng);
    gen.take_jobs(scale.facebook_jobs)
}

/// One replication over the Facebook workload. Common random numbers: the
/// same seed/rep yields the identical job stream for every scheduler.
fn facebook_sample(
    policy: Option<Policy>,
    cfg: &FacebookConfig,
    scale: &Scale,
    seed: u64,
    rep: u64,
) -> Sample {
    let jobs = facebook_jobs(cfg, scale, seed, rep);
    let sim = mrcp_sim_config(scale, jobs.len());
    Sample::of(&run_sim(policy, &sim, &cfg.cluster(), jobs))
}

/// Facebook configuration at the scale's task_scale.
///
/// When task counts shrink, the **cluster shrinks by the same ratio**
/// (64 → `round(64·task_scale)` nodes) and λ stays at the paper's value.
/// This preserves the paper's dynamics exactly: waves-per-slot of each job
/// type, per-slot utilization, and — critically — the burstiness of one
/// heavy-tailed job saturating the whole cluster, which is the regime that
/// separates the schedulers in Figs. 2–3. (Scaling λ up instead would
/// multiplex many small jobs over 64 nodes and smooth the bursts away.)
fn facebook_config(lambda: f64, scale: &Scale) -> FacebookConfig {
    let resources = ((64.0 * scale.task_scale).round() as u32).max(2);
    FacebookConfig {
        lambda,
        task_scale: scale.task_scale,
        resources,
        ..Default::default()
    }
}

/// The λ sweep used by Figs. 2 and 3 — the paper's values, unscaled (see
/// [`facebook_config`] for why scaling lives in the cluster size instead).
fn facebook_lambdas(_scale: &Scale) -> Vec<(String, f64)> {
    [
        ("1e-4", 1e-4),
        ("2e-4", 2e-4),
        ("3e-4", 3e-4),
        ("4e-4", 4e-4),
        ("5e-4", 5e-4),
    ]
    .iter()
    .map(|&(name, l)| (format!("λ={name}"), l))
    .collect()
}

fn run_fig2(scale: &Scale, seed: u64) -> FigureResult {
    let mut points = Vec::new();
    for (label, lambda) in facebook_lambdas(scale) {
        let cfg = facebook_config(lambda, scale);
        for (series, policy) in [(MRCP, None), (MINEDF_WC, Some(Policy::MinEdfWc))] {
            points.push(PointResult {
                label: label.clone(),
                series: series.into(),
                agg: replicate(scale, |rep| facebook_sample(policy, &cfg, scale, seed, rep)),
            });
        }
    }
    FigureResult { points }
}

/// A Table 3 factor sweep (Figs. 4–9): one MRCP-RM point per value of
/// `factor`, every other factor at its default.
fn synth_sweep<V: Copy + std::fmt::Display>(
    scale: &Scale,
    seed: u64,
    factor: &str,
    values: &[V],
    set: fn(&mut SyntheticConfig, V),
) -> FigureResult {
    let points = values
        .iter()
        .map(|&v| {
            let mut cfg = SyntheticConfig::default();
            set(&mut cfg, v);
            let cfg = capped(cfg, scale);
            PointResult {
                label: format!("{factor}={v}"),
                series: MRCP.into(),
                agg: replicate(scale, |rep| {
                    synth_sample(None, &cfg, scale, seed, rep, |_| {})
                }),
            }
        })
        .collect();
    FigureResult { points }
}

/// Extra panel: the same Table 3 workload scheduled with K ∈ {1, 2, 4}
/// diversified CP workers per round. Its claim — more workers never worsen
/// P at equal node budget — is not checked: with K ≥ 2 the workers share an
/// incumbent bound whose arrival order depends on the OS scheduler, so P
/// depends on the host.
fn run_workers_sweep(scale: &Scale, seed: u64) -> FigureResult {
    let cfg = capped(SyntheticConfig::default(), scale);
    let points = [1usize, 2, 4]
        .iter()
        .map(|&k| PointResult {
            label: format!("K={k}"),
            series: MRCP.into(),
            agg: replicate(scale, |rep| {
                synth_sample(None, &cfg, scale, seed, rep, |s| {
                    s.manager.budget.workers = k
                })
            }),
        })
        .collect();
    FigureResult { points }
}

/// Extra panel: the Table 3 default workload re-run under increasing task
/// failure probability (stragglers and the retry budget held fixed), for
/// MRCP-RM and MinEDF-WC on the same fault configuration and seed. Not a
/// paper artifact — the paper assumes exact execution times and reliable
/// resources; this panel measures how far SLA performance degrades when
/// that assumption breaks and the failure-aware rescheduling path carries
/// the load. That every run drains is `crates/mrcp/tests/proptest_faults.rs`
/// and `crates/baselines/tests/proptest_dispatch.rs`.
fn run_fault_sweep(scale: &Scale, seed: u64) -> FigureResult {
    let synth = capped(SyntheticConfig::default(), scale);
    let mut points = Vec::new();
    for p_fail in [0.0, 0.05, 0.1, 0.2] {
        for (series, policy) in [(MRCP, None), (MINEDF_WC, Some(Policy::MinEdfWc))] {
            points.push(PointResult {
                label: format!("p_fail={p_fail}"),
                series: series.into(),
                agg: replicate(scale, |rep| {
                    synth_sample(policy, &synth, scale, seed, rep, |sim| {
                        sim.faults = FaultConfig {
                            task_failure_prob: p_fail,
                            straggler_prob: 0.05,
                            straggler_factor: (1.5, 2.5),
                            retry_budget: 3,
                            ..Default::default()
                        };
                        sim.fault_seed = seed ^ rep;
                    })
                }),
            });
        }
    }
    FigureResult { points }
}

/// Extra panel: the overload sweep. The arrival rate is pushed from the
/// Table 3 default through and well past cluster saturation (deadlines
/// tightened to d_M = 2 and immediate starts so the excess cannot hide in
/// slack), and each point is run under every admission policy. Best-effort
/// is the paper's manager unprotected; the strict and renegotiate series
/// add the feasibility probe and a bounded pending queue.
fn run_overload_sweep(scale: &Scale, seed: u64) -> FigureResult {
    use mrcp::{AdmissionConfig, AdmissionPolicy};

    let mut points = Vec::new();
    let policies: [(&str, Option<AdmissionPolicy>); 3] = [
        ("best-effort", None),
        ("strict", Some(AdmissionPolicy::Strict)),
        ("renegotiate", Some(AdmissionPolicy::Renegotiate)),
    ];
    for &mult in &[1.0, 4.0, 8.0] {
        let base = SyntheticConfig::default();
        let cfg = capped(
            SyntheticConfig {
                lambda: base.lambda * mult,
                deadline_multiplier: 2.0,
                p_future_start: 0.0,
                ..base
            },
            scale,
        );
        for (series, policy) in &policies {
            let agg: MetricAgg = replicate(scale, |rep| {
                synth_sample(None, &cfg, scale, seed, rep, |sim| {
                    if let Some(policy) = *policy {
                        sim.manager.admission = AdmissionConfig {
                            policy,
                            max_pending_jobs: Some(64),
                        };
                    }
                })
            });
            points.push(PointResult {
                label: format!("λ×{mult}"),
                series: (*series).into(),
                agg,
            });
        }
    }
    FigureResult { points }
}

const BASELINES: [(&str, Option<Policy>); 5] = [
    (MRCP, None),
    (MINEDF_WC, Some(Policy::MinEdfWc)),
    ("MinEDF", Some(Policy::MinEdf)),
    ("EDF", Some(Policy::Edf)),
    ("FCFS", Some(Policy::Fcfs)),
];

/// Extra panel: all baselines at the Fig. 2 midpoint arrival rate, in
/// [`BASELINES`] order.
fn run_baseline_panel(scale: &Scale, seed: u64) -> FigureResult {
    let (_, lambda) = facebook_lambdas(scale).remove(2);
    let cfg = facebook_config(lambda, scale);
    let points = BASELINES
        .iter()
        .map(|&(series, policy)| PointResult {
            label: "λ=3e-4".into(),
            series: series.into(),
            agg: replicate(scale, |rep| facebook_sample(policy, &cfg, scale, seed, rep)),
        })
        .collect();
    FigureResult { points }
}

const CHAOS_SLA: &str = "MRCP-RM federated (chaos boundary)";
const CHAOS_RESILIENCE: &str =
    "resilience (P = goodput; N = failovers; T = restores; O = retry amp)";

/// Extra sweep: the fault injection of DESIGN.md §5h. The same federated
/// workload runs behind an increasingly hostile router→cell boundary
/// (drops, duplicates, hangs, injected latency, and MTTF/MTTR cell
/// crashes); the run aborts on any fleet-invariant violation or lost job,
/// so every reported point is also a conservation proof.
fn run_chaos_sweep(scale: &Scale, seed: u64) -> FigureResult {
    use cluster::{ChaosConfig, ClusterConfig, Federation};
    use desim::SimTime;

    let cfg = capped(SyntheticConfig::default(), scale);
    let cluster = cfg.cluster();
    let chaos_run = |rep: u64, rate: f64| {
        let jobs = synth_jobs(&cfg, scale, seed, rep);
        let sim = mrcp_sim_config(scale, jobs.len());
        let fleet = ClusterConfig { cells: 3 };
        let chaos = ChaosConfig {
            drop_prob: rate,
            dup_prob: rate,
            hang_prob: rate / 5.0,
            mean_latency: (rate > 0.0).then(|| SimTime::from_millis(10)),
            call_deadline: SimTime::from_millis(200),
            cell_mttf: (rate > 0.0).then(|| SimTime::from_secs_f64(60.0 * (1.0 - rate).max(0.2))),
            cell_mttr: (rate > 0.0).then(|| SimTime::from_secs(20)),
            seed: seed ^ (rep << 8),
        };
        let (metrics, _, fed) = simulate_with(&sim, &cluster, jobs, |c| {
            Federation::with_chaos(&fleet, c, cluster.clone(), &chaos)
        });
        assert!(
            fed.violations().is_empty(),
            "chaos sweep broke a fleet invariant at rate {rate}: {:#?}",
            fed.violations()
        );
        if let Err(e) = metrics.check_conservation() {
            panic!("chaos sweep lost a job at rate {rate}: {e}");
        }
        (metrics, fed)
    };

    let mut points = Vec::new();
    for &rate in &[0.0f64, 0.1, 0.2, 0.4] {
        let label = format!("fault={:.0}%", rate * 100.0);
        // One pass per replication yields both series; the SLA series
        // decides when to stop.
        let [sla, resilience] = replicate_series(scale, |rep| {
            let (metrics, fed) = chaos_run(rep, rate);
            let cm = fed.cluster_metrics();
            [
                Sample::of(&metrics),
                Sample {
                    // Goodput: completed ÷ arrived — 1.0 means no job lost.
                    p_late: metrics.completed as f64 / metrics.arrived.max(1) as f64,
                    n_late: cm.failovers as f64,
                    turnaround_s: cm.cell_restores as f64,
                    overhead_s: cm.retry_amplification(),
                    rejected_frac: 0.0,
                },
            ]
        });
        points.push(PointResult {
            label: label.clone(),
            series: CHAOS_SLA.into(),
            agg: sla,
        });
        points.push(PointResult {
            label,
            series: CHAOS_RESILIENCE.into(),
            agg: resilience,
        });
    }
    FigureResult { points }
}

/// Extra panel: the design-choice ablations of DESIGN.md §5, measured on
/// the default Table 3 point (all factors at their boldface values). The
/// split and deferral claims — each cuts `O` — are wall clock and not
/// checked; the check is that no variant moves `P`.
fn run_ablation_panel(scale: &Scale, seed: u64) -> FigureResult {
    use mrcp::JobOrdering;

    let cfg = capped(SyntheticConfig::default(), scale);
    type Tweak = fn(&mut SimConfig);
    let variants: [(&str, Tweak); 5] = [
        ("baseline (split+defer, EDF)", |_| {}),
        ("no-split (§V.D off)", |s| s.manager.use_split = false),
        ("no-defer (§V.E off)", |s| s.manager.defer = false),
        ("ordering=job-id", |s| {
            s.manager.ordering = JobOrdering::JobId
        }),
        ("ordering=least-laxity", |s| {
            s.manager.ordering = JobOrdering::LeastLaxity
        }),
    ];
    let points = variants
        .iter()
        .map(|&(series, tweak)| PointResult {
            label: "table3-default".into(),
            series: series.into(),
            agg: replicate(scale, |rep| {
                synth_sample(None, &cfg, scale, seed, rep, tweak)
            }),
        })
        .collect();
    FigureResult { points }
}

const BATCHED: &str = "batched ingest (max_batch=16, linger=8s)";
const PER_ARRIVAL: &str = "per-arrival ingest";

/// Extra panel: the ingest-mode sweep. A small workload is pushed through
/// rising arrival rates under [`OverheadModel::PerTask`], which charges
/// every admission probe and replan round to a single-server manager.
/// Per-arrival ingestion
/// pays the probe base once per job and saturates early; the batched
/// front door (flush on `max_batch` or linger) pays it once per burst,
/// so its P stays bounded well past the per-arrival knee.
fn run_service_sweep(scale: &Scale, seed: u64) -> FigureResult {
    use desim::SimTime;
    use mrcp::{IngestConfig, OverheadModel};

    // Small enough that a probe's cost is dominated by the fixed base —
    // the quantity batching amortizes.
    let base_cfg = SyntheticConfig {
        resources: 8,
        maps_per_job: (1, 4),
        reduces_per_job: (1, 2),
        e_max: 10,
        map_capacity: 2,
        reduce_capacity: 2,
        s_max: 1,
        p_future_start: 0.0,
        deadline_multiplier: 4.0,
        ..Default::default()
    };
    let overhead = OverheadModel::PerTask {
        base: SimTime::from_secs(4),
        per_task: SimTime::from_millis(50),
    };
    let modes: [(&str, Option<IngestConfig>); 2] = [
        (
            BATCHED,
            Some(IngestConfig {
                max_batch: 16,
                max_linger: SimTime::from_secs(8),
            }),
        ),
        (PER_ARRIVAL, None),
    ];

    let mut points = Vec::new();
    for &lambda in &[0.2f64, 0.4, 0.6] {
        let cfg = SyntheticConfig {
            lambda,
            ..base_cfg.clone()
        };
        for (series, ingest) in &modes {
            let agg: MetricAgg = replicate(scale, |rep| {
                synth_sample(None, &cfg, scale, seed, rep, |sim| {
                    sim.overhead = overhead;
                    sim.ingest = *ingest;
                })
            });
            points.push(PointResult {
                label: format!("λ={lambda}"),
                series: (*series).into(),
                agg,
            });
        }
    }
    FigureResult { points }
}

// ---------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------

/// One metric's estimates along one series, in sweep order.
fn cis(r: &FigureResult, series: &str, metric: fn(&MetricAgg) -> CiMean) -> Vec<CiMean> {
    r.points
        .iter()
        .filter(|p| p.series == series)
        .map(|p| metric(&p.agg))
        .collect()
}

/// One metric's means along one series, in sweep order.
fn means(r: &FigureResult, series: &str, metric: fn(&MetricAgg) -> CiMean) -> Vec<f64> {
    cis(r, series, metric).iter().map(|c| c.mean).collect()
}

/// A verdict on `claim`, quoting the named value lists it was judged on.
fn verdict(claim: &'static str, pass: bool, values: &[(&str, &[f64])]) -> Verdict {
    let measured = values
        .iter()
        .map(|(name, xs)| {
            let xs: Vec<f64> = xs.iter().map(|x| (x * 1e4).round() / 1e4).collect();
            format!("{name} {xs:?}")
        })
        .collect::<Vec<_>>()
        .join("; ");
    Verdict {
        claim,
        pass,
        measured,
    }
}

/// `a[i] ≤ b[i]` at every point of two equally long, non-empty series.
fn below(a: &[f64], b: &[f64]) -> bool {
    !a.is_empty() && a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x <= y)
}

/// Each of at least two points is ≥ the one before it.
fn never_falls(xs: &[f64]) -> bool {
    xs.len() >= 2 && below(&xs[..xs.len() - 1], &xs[1..])
}

/// Each of at least two points is ≤ the one before it.
fn never_rises(xs: &[f64]) -> bool {
    xs.len() >= 2 && below(&xs[1..], &xs[..xs.len() - 1])
}

/// At least two points, and the last is strictly above the first.
fn ends_higher(xs: &[f64]) -> bool {
    xs.len() >= 2 && xs[0] < xs[xs.len() - 1]
}

/// At least two points, and the last is strictly below the first.
fn ends_lower(xs: &[f64]) -> bool {
    xs.len() >= 2 && xs[xs.len() - 1] < xs[0]
}

/// MRCP-RM's `P` and `T` along a single-series sweep.
fn mrcp_p_t(r: &FigureResult) -> (Vec<f64>, Vec<f64>) {
    (
        means(r, MRCP, MetricAgg::p_late),
        means(r, MRCP, MetricAgg::turnaround),
    )
}

fn check_fig2(r: &FigureResult) -> Vec<Verdict> {
    let p = (
        means(r, MRCP, MetricAgg::p_late),
        means(r, MINEDF_WC, MetricAgg::p_late),
    );
    let t = (
        means(r, MRCP, MetricAgg::turnaround),
        means(r, MINEDF_WC, MetricAgg::turnaround),
    );
    vec![
        verdict(
            "Fig. 2: MRCP-RM's P ≤ MinEDF-WC's at every λ (paper: 93 % → 70 % lower)",
            below(&p.0, &p.1),
            &[(MRCP, &p.0), (MINEDF_WC, &p.1)],
        ),
        verdict(
            "Fig. 3: MRCP-RM's T ≤ MinEDF-WC's at every λ (paper: up to 7 % lower)",
            below(&t.0, &t.1),
            &[(MRCP, &t.0), (MINEDF_WC, &t.1)],
        ),
    ]
}

fn check_fig4(r: &FigureResult) -> Vec<Verdict> {
    let (p, t) = mrcp_p_t(r);
    vec![
        verdict(
            "T rises with e_max (paper: O and T increase with e_max)",
            never_falls(&t) && ends_higher(&t),
            &[("T", &t)],
        ),
        verdict(
            "P ≤ 1.96 % at every e_max (paper: 1.96 % at e_max = 100)",
            below(&p, &vec![0.0196; p.len()]),
            &[("P", &p)],
        ),
    ]
}

fn check_fig5(r: &FigureResult) -> Vec<Verdict> {
    let (p, t) = mrcp_p_t(r);
    vec![
        verdict(
            "T falls as s_max grows (paper: O, T and P decrease)",
            never_rises(&t) && ends_lower(&t),
            &[("T", &t)],
        ),
        verdict(
            "P never rises as s_max grows",
            never_rises(&p),
            &[("P", &p)],
        ),
    ]
}

fn check_fig6(r: &FigureResult) -> Vec<Verdict> {
    let (p, t) = mrcp_p_t(r);
    vec![
        verdict(
            "T at p = 0.9 < T at p = 0.1 (paper: Fig. 5's trend, milder)",
            ends_lower(&t),
            &[("T", &t)],
        ),
        verdict("P never rises as p grows", never_rises(&p), &[("P", &p)]),
    ]
}

fn check_fig7(r: &FigureResult) -> Vec<Verdict> {
    let (p, _) = mrcp_p_t(r);
    vec![verdict(
        "P falls as d_M grows (paper: 3.46 %, 0.56 %, 0.21 % at d_M = 2, 5, 10)",
        never_rises(&p) && ends_lower(&p),
        &[("P", &p)],
    )]
}

fn check_fig8(r: &FigureResult) -> Vec<Verdict> {
    let (p, t) = mrcp_p_t(r);
    vec![
        verdict(
            "T rises with λ (paper: O and T increase with λ)",
            never_falls(&t) && ends_higher(&t),
            &[("T", &t)],
        ),
        verdict(
            "P ≤ 1.7 % at every λ (paper: P ≤ 1.7 %)",
            below(&p, &vec![0.017; p.len()]),
            &[("P", &p)],
        ),
    ]
}

fn check_fig9(r: &FigureResult) -> Vec<Verdict> {
    let (p, t) = mrcp_p_t(r);
    vec![
        verdict(
            "P and T fall as m grows (paper: both increase as m shrinks)",
            never_rises(&p) && ends_lower(&p) && never_rises(&t) && ends_lower(&t),
            &[("P", &p), ("T", &t)],
        ),
        verdict(
            "T moves less from m = 50 to 100 than from 25 to 50 (paper: little change 50 → 100)",
            t.len() == 3 && t[1] - t[2] < t[0] - t[1],
            &[("T", &t)],
        ),
    ]
}

fn check_baselines(r: &FigureResult) -> Vec<Verdict> {
    let p: Vec<f64> = BASELINES
        .iter()
        .flat_map(|(s, _)| means(r, s, MetricAgg::p_late))
        .collect();
    let t: Vec<f64> = BASELINES
        .iter()
        .flat_map(|(s, _)| means(r, s, MetricAgg::turnaround))
        .collect();
    let all = p.len() == BASELINES.len() && t.len() == BASELINES.len();
    let lowest = |xs: &[f64]| xs.iter().all(|&x| xs[0] <= x);
    vec![
        verdict(
            "MRCP-RM has the lowest P and T of MRCP-RM, MinEDF-WC, MinEDF, EDF, FCFS",
            all && lowest(&p) && lowest(&t),
            &[("P", &p), ("T", &t)],
        ),
        verdict(
            "work conservation pays: MinEDF-WC's P and T ≤ MinEDF's",
            all && p[1] <= p[2] && t[1] <= t[2],
            &[("P", &p), ("T", &t)],
        ),
    ]
}

fn check_faults(r: &FigureResult) -> Vec<Verdict> {
    let (p, t) = mrcp_p_t(r);
    vec![verdict(
        "P and T at p_fail = 0.2 are above their fault-free values",
        ends_higher(&p) && ends_higher(&t),
        &[("P", &p), ("T", &t)],
    )]
}

fn check_overload(r: &FigureResult) -> Vec<Verdict> {
    let best_effort = means(r, "best-effort", MetricAgg::p_late);
    let strict = means(r, "strict", MetricAgg::p_late);
    let rejected = means(r, "strict", MetricAgg::rejected);
    vec![
        verdict(
            "unprotected (best-effort) P rises with λ",
            never_falls(&best_effort) && ends_higher(&best_effort),
            &[("best-effort P", &best_effort)],
        ),
        verdict(
            "past saturation (λ×4, λ×8) strict admission's P < best-effort's",
            strict.len() == 3
                && best_effort.len() == 3
                && (1..3).all(|i| strict[i] < best_effort[i]),
            &[("strict P", &strict), ("best-effort P", &best_effort)],
        ),
        verdict(
            "strict admission's rejected fraction rises with λ (rejections absorb the excess)",
            never_falls(&rejected) && ends_higher(&rejected),
            &[("strict rejected", &rejected)],
        ),
    ]
}

fn check_chaos(r: &FigureResult) -> Vec<Verdict> {
    let goodput = means(r, CHAOS_RESILIENCE, MetricAgg::p_late);
    let failovers = means(r, CHAOS_RESILIENCE, MetricAgg::n_late);
    let restores = means(r, CHAOS_RESILIENCE, MetricAgg::turnaround);
    let p = cis(r, CHAOS_SLA, MetricAgg::p_late);
    let p_means: Vec<f64> = p.iter().map(|c| c.mean).collect();
    vec![
        verdict(
            "goodput = 1 at every fault rate (no job lost)",
            !goodput.is_empty() && goodput.iter().all(|&g| g == 1.0),
            &[("goodput", &goodput)],
        ),
        verdict(
            "every nonzero fault rate forces failovers and cell restores",
            failovers.len() > 1
                && restores.len() == failovers.len()
                && failovers[1..]
                    .iter()
                    .chain(&restores[1..])
                    .all(|&x| x > 0.0),
            &[("failovers", &failovers), ("restores", &restores)],
        ),
        verdict(
            "P at every fault rate within the fault-free point's CI (P degrades gently)",
            !p.is_empty()
                && p.iter()
                    .all(|c| (c.mean - p[0].mean).abs() <= p[0].half_width),
            &[("P", &p_means)],
        ),
    ]
}

fn check_service(r: &FigureResult) -> Vec<Verdict> {
    let p = (
        means(r, BATCHED, MetricAgg::p_late),
        means(r, PER_ARRIVAL, MetricAgg::p_late),
    );
    let t = (
        means(r, BATCHED, MetricAgg::turnaround),
        means(r, PER_ARRIVAL, MetricAgg::turnaround),
    );
    vec![verdict(
        "batched ingest's P and T ≤ per-arrival ingest's at every λ",
        below(&p.0, &p.1) && below(&t.0, &t.1),
        &[
            ("batched P", &p.0),
            ("per-arrival P", &p.1),
            ("batched T", &t.0),
            ("per-arrival T", &t.1),
        ],
    )]
}

fn check_ablations(r: &FigureResult) -> Vec<Verdict> {
    let p: Vec<CiMean> = r.points.iter().map(|x| x.agg.p_late()).collect();
    let p_means: Vec<f64> = p.iter().map(|c| c.mean).collect();
    vec![verdict(
        "no variant moves P: every CI overlaps the baseline's (paper §VI.B: orderings tie)",
        p.len() > 1
            && p.iter()
                .all(|c| (c.mean - p[0].mean).abs() <= c.half_width + p[0].half_width),
        &[("P", &p_means)],
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Preset;

    #[test]
    fn registry_contains_every_paper_figure() {
        let names: Vec<&str> = all_figures().iter().map(|f| f.name).collect();
        for expected in ["fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        assert!(names.contains(&"faults"), "failure sweep registered");
        assert!(names.contains(&"overload"), "overload sweep registered");
        assert!(names.contains(&"service"), "ingest mode sweep registered");
        // fig3 is fig2's T chart; cells and recovery restated tested anchors.
        for gone in ["fig3", "cells", "recovery"] {
            assert!(figure_by_name(gone).is_none(), "{gone} is not a figure");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "figure names are unique");
        assert!(figure_by_name("fig7").is_some());
        assert!(figure_by_name("nope").is_none());
    }

    #[test]
    fn capping_respects_paper_scale() {
        let scale = Scale::for_preset(Preset::PaperScale);
        let cfg = capped(SyntheticConfig::default(), &scale);
        assert_eq!(cfg.maps_per_job, (1, 100), "paper scale keeps DU[1,100]");
        let small = Scale::for_preset(Preset::Smoke);
        let cfg = capped(SyntheticConfig::default(), &small);
        assert_eq!(cfg.maps_per_job, (1, 10));
    }

    #[test]
    fn facebook_scaling_shrinks_cluster_not_lambda() {
        let paper = Scale::for_preset(Preset::PaperScale);
        let cfg = facebook_config(2e-4, &paper);
        assert_eq!(cfg.resources, 64, "paper scale keeps 64 nodes");
        let l = facebook_lambdas(&paper);
        assert_eq!(l.len(), 5);
        assert!((l[0].1 - 1e-4).abs() < 1e-12);
        let small = Scale::for_preset(Preset::Default);
        let cfg = facebook_config(2e-4, &small);
        assert_eq!(cfg.resources, 3, "64 × 0.05 rounds to 3 nodes");
        assert!(
            (facebook_lambdas(&small)[0].1 - 1e-4).abs() < 1e-12,
            "λ unscaled"
        );
    }

    /// End-to-end smoke: one synthetic figure runs and produces sane rows.
    #[test]
    fn fig7_smoke_run() {
        let scale = Scale {
            synth_jobs: 15,
            reps: 1,
            max_reps: 1,
            ..Scale::for_preset(Preset::Smoke)
        };
        let fig = (figure_by_name("fig7").unwrap().run)(&scale, 42);
        assert_eq!(fig.points.len(), 3);
        assert_eq!(
            fig.points[0].label, "d_M=2",
            "labels keep the factor's value"
        );
        for p in &fig.points {
            assert_eq!(p.agg.count(), 1);
            assert!(p.agg.p_late().mean >= 0.0 && p.agg.p_late().mean <= 1.0);
            assert!(p.agg.turnaround().mean > 0.0);
        }
    }

    /// End-to-end smoke: the Facebook comparison runs for one λ.
    #[test]
    fn fig2_smoke_run() {
        let scale = Scale {
            facebook_jobs: 25,
            reps: 1,
            max_reps: 1,
            ..Scale::for_preset(Preset::Smoke)
        };
        let cfg = facebook_config(facebook_lambdas(&scale)[1].1, &scale);
        let m = facebook_sample(None, &cfg, &scale, 7, 0);
        let b = facebook_sample(Some(Policy::MinEdfWc), &cfg, &scale, 7, 0);
        assert!(m.turnaround_s > 0.0);
        assert!(b.turnaround_s > 0.0);
    }

    /// A hand-built result: one replication per `(P, T)` point of each
    /// series, in sweep order.
    fn result(series: &[(&str, &[(f64, f64)])]) -> FigureResult {
        let mut points = Vec::new();
        for (name, pts) in series {
            for (i, &(p_late, turnaround_s)) in pts.iter().enumerate() {
                let mut agg = MetricAgg::new();
                agg.push(Sample {
                    p_late,
                    turnaround_s,
                    ..Default::default()
                });
                points.push(PointResult {
                    label: format!("x{i}"),
                    series: (*name).into(),
                    agg,
                });
            }
        }
        FigureResult { points }
    }

    /// `name`'s check passes every claim on `holds` (the trend the default
    /// preset measures) and fails every claim on `violates`.
    fn assert_check(name: &str, holds: &FigureResult, violates: &FigureResult) {
        let check = figure_by_name(name).unwrap().check;
        let ok = check(holds);
        assert!(!ok.is_empty(), "{name} checks something");
        assert!(ok.iter().all(|v| v.pass), "{name}: {ok:#?}");
        let bad = check(violates);
        assert_eq!(bad.len(), ok.len());
        assert!(bad.iter().all(|v| !v.pass), "{name}: {bad:#?}");
    }

    #[test]
    fn fig2_check_fails_with_the_series_swapped() {
        let mrcp: &[(f64, f64)] = &[(0.0098, 492.2), (0.016, 494.7), (0.0436, 508.3)];
        let wc: &[(f64, f64)] = &[(0.0222, 521.9), (0.0302, 523.7), (0.056, 536.7)];
        assert_check(
            "fig2",
            &result(&[(MRCP, mrcp), (MINEDF_WC, wc)]),
            &result(&[(MRCP, wc), (MINEDF_WC, mrcp)]),
        );
    }

    #[test]
    fn fig4_check_fails_when_t_falls_and_p_exceeds_the_paper() {
        assert_check(
            "fig4",
            &result(&[(MRCP, &[(0.0, 57.8), (0.0044, 244.6), (0.0089, 511.1)])]),
            &result(&[(MRCP, &[(0.0, 511.1), (0.0044, 244.6), (0.03, 57.8)])]),
        );
    }

    #[test]
    fn fig5_check_fails_when_p_and_t_rise_with_s_max() {
        assert_check(
            "fig5",
            &result(&[(MRCP, &[(0.0089, 256.2), (0.0044, 244.6), (0.0015, 243.7)])]),
            &result(&[(MRCP, &[(0.0015, 243.7), (0.0044, 244.6), (0.0089, 256.2)])]),
        );
    }

    #[test]
    fn fig6_check_fails_when_p_and_t_rise_with_p() {
        assert_check(
            "fig6",
            &result(&[(MRCP, &[(0.0148, 253.3), (0.0044, 244.6), (0.0044, 221.8)])]),
            &result(&[(MRCP, &[(0.0044, 221.8), (0.0044, 244.6), (0.0148, 253.3)])]),
        );
    }

    #[test]
    fn fig7_check_fails_when_p_does_not_fall_with_d_m() {
        assert_check(
            "fig7",
            &result(&[(MRCP, &[(0.0281, 244.1), (0.0044, 244.6), (0.0015, 244.8)])]),
            &result(&[(MRCP, &[(0.0044, 244.1), (0.0044, 244.6), (0.0044, 244.8)])]),
        );
    }

    #[test]
    fn fig8_check_fails_when_t_falls_and_p_exceeds_the_paper() {
        assert_check(
            "fig8",
            &result(&[(
                MRCP,
                &[
                    (0.0015, 235.7),
                    (0.0044, 244.6),
                    (0.0074, 254.6),
                    (0.0044, 259.9),
                ],
            )]),
            &result(&[(
                MRCP,
                &[
                    (0.0015, 259.9),
                    (0.0044, 254.6),
                    (0.02, 244.6),
                    (0.0044, 235.7),
                ],
            )]),
        );
    }

    #[test]
    fn fig9_check_fails_when_more_resources_hurt() {
        assert_check(
            "fig9",
            &result(&[(MRCP, &[(0.0296, 298.3), (0.0044, 244.6), (0.0, 239.6)])]),
            &result(&[(MRCP, &[(0.0, 300.0), (0.0044, 280.0), (0.0296, 240.0)])]),
        );
    }

    #[test]
    fn a_missing_series_fails_its_check_instead_of_passing_vacuously() {
        let empty = FigureResult { points: Vec::new() };
        for fig in all_figures() {
            for v in (fig.check)(&empty) {
                assert!(!v.pass, "{}: {v:?}", fig.name);
            }
        }
    }
}

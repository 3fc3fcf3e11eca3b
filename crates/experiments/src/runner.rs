//! Replication control: independent seeded replications, run in parallel,
//! aggregated into Student-t confidence intervals.

use desim::stats::{CiMean, Replications};
use mrcp::RunMetrics;

/// How much effort a regeneration spends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Minutes-long smoke configuration used by integration tests.
    Smoke,
    /// The default: every trend reproduced at reduced scale.
    Default,
    /// The paper's protocol (1000-job Facebook runs, full task counts,
    /// replication until the ±1% CI target on `T`).
    PaperScale,
}

/// Concrete effort knobs derived from a [`Preset`].
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Jobs per replication (synthetic experiments).
    pub synth_jobs: usize,
    /// Jobs per replication (Facebook experiments; the paper uses 1000).
    pub facebook_jobs: usize,
    /// Scale factor on Facebook task counts (1.0 = paper scale).
    pub task_scale: f64,
    /// Replications per point.
    pub reps: u64,
    /// Extra replications allowed when chasing the CI target.
    pub max_reps: u64,
    /// Relative CI half-width target on `T` (the paper's is 0.01); a point
    /// stops adding replications once reached.
    pub ci_target: f64,
    /// Completions discarded as warm-up, as a fraction of jobs.
    pub warmup_frac: f64,
    /// Solver node (and fail) budget per scheduling round; the rest of the
    /// budget is [`mrcp::SolveBudget::default`]'s, counted and never timed,
    /// so every simulated column repeats exactly for a fixed seed.
    pub solver_nodes: u64,
    /// Upper bound on map/reduce task counts per synthetic job
    /// (the Table 3 value is 100).
    pub synth_tasks_cap: i64,
}

impl Scale {
    /// The knobs for `preset`.
    pub fn for_preset(preset: Preset) -> Scale {
        match preset {
            Preset::Smoke => Scale {
                synth_jobs: 40,
                facebook_jobs: 60,
                task_scale: 0.02,
                reps: 2,
                max_reps: 2,
                ci_target: f64::INFINITY,
                warmup_frac: 0.1,
                solver_nodes: 1_000,
                synth_tasks_cap: 10,
            },
            Preset::Default => Scale {
                synth_jobs: 150,
                facebook_jobs: 250,
                task_scale: 0.05,
                reps: 5,
                max_reps: 5,
                ci_target: f64::INFINITY,
                warmup_frac: 0.1,
                solver_nodes: 4_000,
                synth_tasks_cap: 40,
            },
            Preset::PaperScale => Scale {
                synth_jobs: 1_000,
                facebook_jobs: 1_000,
                task_scale: 1.0,
                reps: 10,
                max_reps: 100,
                ci_target: 0.01,
                warmup_frac: 0.1,
                solver_nodes: 50_000,
                synth_tasks_cap: 100,
            },
        }
    }

    /// Warm-up job count for a run of `jobs`.
    pub fn warmup_jobs(&self, jobs: usize) -> usize {
        (jobs as f64 * self.warmup_frac).round() as usize
    }
}

/// One replication's metric sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// Proportion of late jobs (`P`), in [0, 1].
    pub p_late: f64,
    /// Late-job count (`N`).
    pub n_late: f64,
    /// Mean turnaround, seconds (`T`).
    pub turnaround_s: f64,
    /// Mean matchmaking+scheduling time per job, seconds (`O`).
    pub overhead_s: f64,
    /// Fraction of arrivals turned away (rejected by admission control or
    /// shed by backpressure); 0 for schedulers without admission control.
    pub rejected_frac: f64,
}

impl Sample {
    /// The figure metrics of one simulated MRCP-RM run.
    pub(crate) fn of(m: &RunMetrics) -> Sample {
        Sample {
            p_late: m.p_late,
            n_late: m.late as f64,
            turnaround_s: m.mean_turnaround_s,
            overhead_s: m.o_per_job_s,
            // Admission rejections plus backpressure shedding — 0 whenever
            // admission control is off.
            rejected_frac: if m.arrived == 0 {
                0.0
            } else {
                (m.jobs_rejected + m.jobs_shed) as f64 / m.arrived as f64
            },
        }
    }
}

/// Aggregated metrics of one experiment point.
#[derive(Debug, Clone)]
pub struct MetricAgg {
    p: Replications,
    n: Replications,
    t: Replications,
    o: Replications,
    rej: Replications,
}

impl Default for MetricAgg {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricAgg {
    /// Empty aggregate at 95% confidence (the paper's level).
    pub fn new() -> Self {
        MetricAgg {
            p: Replications::new(0.95),
            n: Replications::new(0.95),
            t: Replications::new(0.95),
            o: Replications::new(0.95),
            rej: Replications::new(0.95),
        }
    }

    /// Record one replication.
    pub fn push(&mut self, s: Sample) {
        self.p.push(s.p_late);
        self.n.push(s.n_late);
        self.t.push(s.turnaround_s);
        self.o.push(s.overhead_s);
        self.rej.push(s.rejected_frac);
    }

    /// `P` estimate.
    pub fn p_late(&self) -> CiMean {
        self.p.estimate()
    }

    /// `N` estimate.
    pub fn n_late(&self) -> CiMean {
        self.n.estimate()
    }

    /// `T` estimate (seconds).
    pub fn turnaround(&self) -> CiMean {
        self.t.estimate()
    }

    /// `O` estimate (seconds).
    pub fn overhead(&self) -> CiMean {
        self.o.estimate()
    }

    /// Rejected/shed fraction estimate (the overload sweep's series).
    pub fn rejected(&self) -> CiMean {
        self.rej.estimate()
    }

    /// Replications recorded.
    pub fn count(&self) -> u64 {
        self.t.count()
    }

    /// The paper's stopping rule on `T`.
    pub fn converged(&self, target: f64, min_reps: u64) -> bool {
        self.t.converged(target, min_reps)
    }
}

/// Run replications of `f` (rep index → sample) in parallel until the scale's
/// replication/CI policy is satisfied, and aggregate.
pub fn replicate<F>(scale: &Scale, f: F) -> MetricAgg
where
    F: Fn(u64) -> Sample + Sync,
{
    let [agg] = replicate_series(scale, |rep| [f(rep)]);
    agg
}

/// [`replicate`] for `N` series read off the same runs: each replication
/// yields one sample per series, and the stopping rule reads the first.
pub(crate) fn replicate_series<const N: usize, F>(scale: &Scale, f: F) -> [MetricAgg; N]
where
    F: Fn(u64) -> [Sample; N] + Sync,
{
    let mut aggs: [MetricAgg; N] = std::array::from_fn(|_| MetricAgg::new());
    let mut next_rep = 0u64;
    while aggs[0].count() < scale.max_reps {
        let agg = &aggs[0];
        // Batch size: the base reps first, then one extra batch at a time
        // while chasing the CI target.
        let batch = if next_rep == 0 {
            scale.reps
        } else if agg.converged(scale.ci_target, scale.reps) {
            break;
        } else {
            (scale.max_reps - agg.count()).min(scale.reps)
        };
        if batch == 0 {
            break;
        }
        let samples: Vec<[Sample; N]> = std::thread::scope(|s| {
            let f = &f;
            let handles: Vec<_> = (0..batch)
                .map(|i| {
                    let rep = next_rep + i;
                    s.spawn(move || f(rep))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replication panicked"))
                .collect()
        });
        for run in samples {
            for (agg, s) in aggs.iter_mut().zip(run) {
                agg.push(s);
            }
        }
        next_rep += batch;
        if aggs[0].converged(scale.ci_target, scale.reps) {
            break;
        }
    }
    aggs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_effort() {
        let s = Scale::for_preset(Preset::Smoke);
        let d = Scale::for_preset(Preset::Default);
        let p = Scale::for_preset(Preset::PaperScale);
        assert!(s.synth_jobs < d.synth_jobs && d.synth_jobs < p.synth_jobs);
        assert!(s.task_scale < d.task_scale && d.task_scale < p.task_scale);
        assert_eq!(p.task_scale, 1.0, "paper scale runs the full workload");
        assert_eq!(p.ci_target, 0.01, "paper's ±1% rule");
    }

    #[test]
    fn warmup_rounds_correctly() {
        let s = Scale::for_preset(Preset::Default);
        assert_eq!(s.warmup_jobs(150), 15);
        assert_eq!(s.warmup_jobs(0), 0);
    }

    #[test]
    fn replicate_runs_requested_reps() {
        let scale = Scale {
            reps: 4,
            max_reps: 4,
            ci_target: f64::INFINITY,
            ..Scale::for_preset(Preset::Smoke)
        };
        let agg = replicate(&scale, |rep| Sample {
            p_late: 0.1,
            n_late: 1.0,
            turnaround_s: 100.0 + rep as f64, // deterministic spread
            overhead_s: 0.01,
            rejected_frac: 0.0,
        });
        assert_eq!(agg.count(), 4);
        assert!((agg.turnaround().mean - 101.5).abs() < 1e-9);
        assert!((agg.p_late().mean - 0.1).abs() < 1e-12);
    }

    #[test]
    fn replicate_chases_ci_target() {
        // Constant samples converge instantly after the base batch.
        let scale = Scale {
            reps: 3,
            max_reps: 50,
            ci_target: 0.01,
            ..Scale::for_preset(Preset::Smoke)
        };
        let agg = replicate(&scale, |_| Sample {
            p_late: 0.0,
            n_late: 0.0,
            turnaround_s: 42.0,
            overhead_s: 0.0,
            rejected_frac: 0.0,
        });
        assert_eq!(agg.count(), 3, "no extra batches needed");
        assert!(agg.converged(0.01, 3));
    }

    #[test]
    fn replicate_series_runs_once_and_stops_on_the_first() {
        let scale = Scale {
            reps: 3,
            max_reps: 50,
            ci_target: 0.01,
            ..Scale::for_preset(Preset::Smoke)
        };
        let calls = std::sync::atomic::AtomicU64::new(0);
        let sample = |t: f64| Sample {
            turnaround_s: t,
            ..Sample::default()
        };
        // The first series converges after the base batch; the second,
        // spread wide, would not.
        let [first, second] = replicate_series(&scale, |rep| {
            calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            [sample(42.0), sample(1.0 + 100.0 * rep as f64)]
        });
        assert_eq!(calls.into_inner(), 3, "one run per replication");
        assert_eq!((first.count(), second.count()), (3, 3));
        assert!((second.turnaround().mean - 101.0).abs() < 1e-9);
    }

    #[test]
    fn metric_agg_reports_all_four() {
        let mut agg = MetricAgg::new();
        agg.push(Sample {
            p_late: 0.2,
            n_late: 2.0,
            turnaround_s: 50.0,
            overhead_s: 0.5,
            rejected_frac: 0.1,
        });
        agg.push(Sample {
            p_late: 0.4,
            n_late: 4.0,
            turnaround_s: 70.0,
            overhead_s: 0.7,
            rejected_frac: 0.3,
        });
        assert!((agg.p_late().mean - 0.3).abs() < 1e-12);
        assert!((agg.n_late().mean - 3.0).abs() < 1e-12);
        assert!((agg.turnaround().mean - 60.0).abs() < 1e-12);
        assert!((agg.overhead().mean - 0.6).abs() < 1e-12);
        assert!((agg.rejected().mean - 0.2).abs() < 1e-12);
    }
}

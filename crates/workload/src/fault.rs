//! Fault injection for the open-system evaluation.
//!
//! The paper's model assumes exact task execution times and reliable
//! resources; this module supplies the stochastic failure processes needed
//! to study MRCP-RM's behaviour when that assumption breaks:
//!
//! * **task failures** — each execution attempt fails independently with a
//!   configurable probability, partway through its run,
//! * **stragglers** — an attempt runs a sampled multiple of its nominal
//!   `e_t` (the heavy-tailed slow-node effect MapReduce deployments see),
//! * **resource outages** — machines crash and recover, either as explicit
//!   scheduled windows (deterministic tests) or as an exponential
//!   MTTF/MTTR renewal process.
//!
//! All sampling is driven by a caller-supplied [`rand::rngs::StdRng`]
//! (derive it from [`desim`]'s `RngStreams` for reproducible replications);
//! the model itself holds no hidden randomness.

use crate::dist::Exponential;
use crate::model::ResourceId;
use desim::SimTime;
use rand::rngs::StdRng;
use rand::Rng;

/// One deterministic resource outage window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// The resource that goes down.
    pub resource: ResourceId,
    /// When it crashes.
    pub at: SimTime,
    /// How long it stays down.
    pub duration: SimTime,
}

/// Failure-injection knobs. The default injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability that one execution attempt of a task fails.
    pub task_failure_prob: f64,
    /// Probability that an attempt straggles (runs longer than nominal).
    pub straggler_prob: f64,
    /// Straggler execution-time multiplier, drawn uniformly from this
    /// closed interval (both ends must be ≥ 1).
    pub straggler_factor: (f64, f64),
    /// Failed attempts allowed per task before its job is abandoned: a
    /// task may fail up to this many times and still be retried.
    pub retry_budget: u32,
    /// Mean time to failure for the random resource-crash renewal process
    /// (`None` disables random crashes).
    pub resource_mttf: Option<SimTime>,
    /// Mean time to repair for randomly crashed resources (required when
    /// `resource_mttf` is set).
    pub resource_mttr: Option<SimTime>,
    /// Deterministic outage windows, applied in addition to the renewal
    /// process.
    pub scheduled_outages: Vec<Outage>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            task_failure_prob: 0.0,
            straggler_prob: 0.0,
            straggler_factor: (1.0, 1.0),
            retry_budget: 3,
            resource_mttf: None,
            resource_mttr: None,
            scheduled_outages: Vec::new(),
        }
    }
}

impl FaultConfig {
    /// Whether any failure mechanism is active.
    pub fn is_active(&self) -> bool {
        self.task_failure_prob > 0.0
            || self.straggler_prob > 0.0
            || self.resource_mttf.is_some()
            || !self.scheduled_outages.is_empty()
    }

    /// Sanity-check the knobs.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("task_failure_prob", self.task_failure_prob),
            ("straggler_prob", self.straggler_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name}={p} outside [0, 1]"));
            }
        }
        let (lo, hi) = self.straggler_factor;
        if !(lo >= 1.0 && hi >= lo && hi.is_finite()) {
            return Err(format!(
                "straggler_factor ({lo}, {hi}) must satisfy 1 ≤ lo ≤ hi"
            ));
        }
        if let Some(mttf) = self.resource_mttf {
            if mttf <= SimTime::ZERO {
                return Err(format!("resource_mttf {mttf} must be positive"));
            }
            match self.resource_mttr {
                Some(mttr) if mttr > SimTime::ZERO => {}
                _ => return Err("resource_mttf needs a positive resource_mttr".into()),
            }
        }
        for o in &self.scheduled_outages {
            if o.duration <= SimTime::ZERO {
                return Err(format!(
                    "outage of {:?} has non-positive duration",
                    o.resource
                ));
            }
        }
        Ok(())
    }
}

/// An exponential MTTF/MTTR renewal process for one crash-and-recover
/// component: alternating `Exp(1/mttf)` up-times and `Exp(1/mttr)`
/// down-times, each sample floored at 1 ms so failure and repair events
/// never coincide. [`FaultModel`] drives *resource* crashes with the same
/// distributions; this standalone form exists for components that need
/// their own RNG stream — each federation cell endpoint under fault
/// injection uses one to model manager-process crashes.
#[derive(Debug)]
pub struct Renewal {
    mttf: SimTime,
    mttr: SimTime,
    rng: StdRng,
}

impl Renewal {
    /// A renewal process with the given means, sampling from `rng`.
    /// Panics when either mean is non-positive (mirroring
    /// [`FaultModel::new`]'s fail-fast policy on invalid knobs).
    pub fn new(mttf: SimTime, mttr: SimTime, rng: StdRng) -> Self {
        assert!(mttf > SimTime::ZERO, "Renewal mttf {mttf} must be positive");
        assert!(mttr > SimTime::ZERO, "Renewal mttr {mttr} must be positive");
        Renewal { mttf, mttr, rng }
    }

    /// Sample the next up-time: how long the component stays healthy
    /// before its next failure.
    pub fn time_to_failure(&mut self) -> SimTime {
        let exp = Exponential::new(1.0 / self.mttf.as_secs_f64());
        SimTime::from_secs_f64(exp.sample(&mut self.rng)).max(SimTime::from_millis(1))
    }

    /// Sample the down-time of the failure that just occurred.
    pub fn repair_time(&mut self) -> SimTime {
        let exp = Exponential::new(1.0 / self.mttr.as_secs_f64());
        SimTime::from_secs_f64(exp.sample(&mut self.rng)).max(SimTime::from_millis(1))
    }
}

/// Sampled fate of one task execution attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttemptOutcome {
    /// The attempt runs its nominal `e_t` and completes.
    Success,
    /// The attempt fails after `at_fraction` of its nominal `e_t`
    /// (`0 < at_fraction ≤ 1`).
    Fail {
        /// Fraction of the nominal execution time that elapses before the
        /// failure surfaces.
        at_fraction: f64,
    },
    /// The attempt completes but takes `factor ≥ 1` times its nominal
    /// `e_t`.
    Straggle {
        /// Execution-time multiplier.
        factor: f64,
    },
}

/// The fault process: validated knobs plus their dedicated RNG.
#[derive(Debug)]
pub struct FaultModel {
    cfg: FaultConfig,
    rng: StdRng,
}

impl FaultModel {
    /// A model over `cfg`, sampling from `rng`. Panics on invalid knobs
    /// (validate first to handle gracefully).
    pub fn new(cfg: FaultConfig, rng: StdRng) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid fault config: {e}");
        }
        FaultModel { cfg, rng }
    }

    /// The configured knobs.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Sample the fate of one execution attempt. Failures take precedence
    /// over straggling (a straggling attempt that would also fail just
    /// fails).
    pub fn sample_attempt(&mut self) -> AttemptOutcome {
        if self.cfg.task_failure_prob > 0.0 && self.rng.gen_bool(self.cfg.task_failure_prob) {
            // Failures surface somewhere inside the run, never at t=0 (the
            // attempt must occupy its slot for a while to matter).
            let at_fraction = self.rng.gen_range(0.05..=1.0);
            return AttemptOutcome::Fail { at_fraction };
        }
        if self.cfg.straggler_prob > 0.0 && self.rng.gen_bool(self.cfg.straggler_prob) {
            let (lo, hi) = self.cfg.straggler_factor;
            let factor = if hi > lo {
                self.rng.gen_range(lo..=hi)
            } else {
                lo
            };
            if factor > 1.0 {
                return AttemptOutcome::Straggle { factor };
            }
        }
        AttemptOutcome::Success
    }

    /// Sample the next time-to-failure of a healthy resource, or `None`
    /// when random crashes are disabled.
    pub fn sample_time_to_failure(&mut self) -> Option<SimTime> {
        let mttf = self.cfg.resource_mttf?;
        let exp = Exponential::new(1.0 / mttf.as_secs_f64());
        // At least 1 ms so down/up events never coincide with the crash.
        Some(SimTime::from_secs_f64(exp.sample(&mut self.rng)).max(SimTime::from_millis(1)))
    }

    /// Sample the repair time of a randomly crashed resource.
    pub fn sample_repair_time(&mut self) -> SimTime {
        let mttr = self
            .cfg
            .resource_mttr
            .expect("repair sampled without resource_mttr");
        let exp = Exponential::new(1.0 / mttr.as_secs_f64());
        SimTime::from_secs_f64(exp.sample(&mut self.rng)).max(SimTime::from_millis(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn default_config_is_inert() {
        let cfg = FaultConfig::default();
        assert!(!cfg.is_active());
        cfg.validate().unwrap();
        let mut fm = FaultModel::new(cfg, rng(1));
        for _ in 0..1000 {
            assert_eq!(fm.sample_attempt(), AttemptOutcome::Success);
        }
        assert_eq!(fm.sample_time_to_failure(), None);
    }

    #[test]
    fn failure_rate_matches_probability() {
        let cfg = FaultConfig {
            task_failure_prob: 0.25,
            ..Default::default()
        };
        let mut fm = FaultModel::new(cfg, rng(2));
        let n = 100_000;
        let mut fails = 0;
        for _ in 0..n {
            match fm.sample_attempt() {
                AttemptOutcome::Fail { at_fraction } => {
                    assert!((0.05..=1.0).contains(&at_fraction));
                    fails += 1;
                }
                AttemptOutcome::Success => {}
                AttemptOutcome::Straggle { .. } => panic!("straggling disabled"),
            }
        }
        let rate = fails as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "failure rate {rate}");
    }

    #[test]
    fn straggler_factors_stay_in_range() {
        let cfg = FaultConfig {
            straggler_prob: 0.5,
            straggler_factor: (1.5, 4.0),
            ..Default::default()
        };
        let mut fm = FaultModel::new(cfg, rng(3));
        let mut straggles = 0;
        for _ in 0..10_000 {
            if let AttemptOutcome::Straggle { factor } = fm.sample_attempt() {
                assert!((1.5..=4.0).contains(&factor), "factor {factor}");
                straggles += 1;
            }
        }
        let rate = straggles as f64 / 10_000.0;
        assert!((rate - 0.5).abs() < 0.03, "straggle rate {rate}");
    }

    #[test]
    fn crash_process_samples_positive_times() {
        let cfg = FaultConfig {
            resource_mttf: Some(SimTime::from_secs(1000)),
            resource_mttr: Some(SimTime::from_secs(50)),
            ..Default::default()
        };
        let mut fm = FaultModel::new(cfg, rng(4));
        let mut total = 0.0;
        let n = 20_000;
        for _ in 0..n {
            let ttf = fm.sample_time_to_failure().unwrap();
            assert!(ttf > SimTime::ZERO);
            total += ttf.as_secs_f64();
            assert!(fm.sample_repair_time() > SimTime::ZERO);
        }
        let mean = total / n as f64;
        assert!((mean - 1000.0).abs() < 30.0, "MTTF mean drifted: {mean}");
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        let bad_p = FaultConfig {
            task_failure_prob: 1.5,
            ..Default::default()
        };
        assert!(bad_p.validate().is_err());
        let bad_factor = FaultConfig {
            straggler_factor: (0.5, 2.0),
            ..Default::default()
        };
        assert!(bad_factor.validate().is_err());
        let mttf_without_mttr = FaultConfig {
            resource_mttf: Some(SimTime::from_secs(10)),
            resource_mttr: None,
            ..Default::default()
        };
        assert!(mttf_without_mttr.validate().is_err());
        let bad_outage = FaultConfig {
            scheduled_outages: vec![Outage {
                resource: ResourceId(0),
                at: SimTime::from_secs(5),
                duration: SimTime::ZERO,
            }],
            ..Default::default()
        };
        assert!(bad_outage.validate().is_err());
    }

    #[test]
    fn renewal_means_match_and_are_seed_stable() {
        let mttf = SimTime::from_secs(500);
        let mttr = SimTime::from_secs(20);
        let mut a = Renewal::new(mttf, mttr, rng(11));
        let mut b = Renewal::new(mttf, mttr, rng(11));
        let n = 20_000;
        let mut up = 0.0;
        let mut down = 0.0;
        for _ in 0..n {
            let ttf = a.time_to_failure();
            assert_eq!(ttf, b.time_to_failure(), "renewal not seed-stable");
            assert!(ttf >= SimTime::from_millis(1));
            up += ttf.as_secs_f64();
            let rep = a.repair_time();
            assert_eq!(rep, b.repair_time());
            assert!(rep >= SimTime::from_millis(1));
            down += rep.as_secs_f64();
        }
        let mean_up = up / n as f64;
        let mean_down = down / n as f64;
        assert!(
            (mean_up - 500.0).abs() < 15.0,
            "MTTF mean drifted: {mean_up}"
        );
        assert!(
            (mean_down - 20.0).abs() < 0.7,
            "MTTR mean drifted: {mean_down}"
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let cfg = FaultConfig {
            task_failure_prob: 0.3,
            straggler_prob: 0.2,
            straggler_factor: (1.2, 3.0),
            ..Default::default()
        };
        let mut a = FaultModel::new(cfg.clone(), rng(7));
        let mut b = FaultModel::new(cfg, rng(7));
        for _ in 0..500 {
            assert_eq!(a.sample_attempt(), b.sample_attempt());
        }
    }
}

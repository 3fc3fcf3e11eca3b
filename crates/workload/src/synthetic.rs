//! The Table 3 synthetic workload (factor-at-a-time experiments).
//!
//! Every parameter, distribution, and default (boldface) value below comes
//! from Table 3 of the paper:
//!
//! | parameter | distribution | values (default bold) |
//! |---|---|---|
//! | `k_j^mp` maps/job | `DU[1, 100]` | fixed |
//! | `k_j^rd` reduces/job | `DU[1, 100]` | fixed |
//! | `me` map exec time (s) | `DU[1, e_max]` | e_max ∈ {10, **50**, 100} |
//! | `re` reduce exec time (s) | `3·Σme/k_rd + DU[1,10]` | derived |
//! | `s_j` earliest start | `v_j` w.p. 1-p, else `v_j + DU[1, s_max]` | p ∈ {0.1, **0.5**, 0.9}, s_max ∈ {10000, **50000**, 250000} |
//! | `d_j` deadline | `s_j + TE · U[1, d_M]` | d_M ∈ {2, **5**, 10} |
//! | `λ` arrival rate (jobs/s) | Poisson process | {0.001, **0.01**, 0.015, 0.02} |
//! | `m` resources | — | {25, **50**, 100}, `c^mp = c^rd = 2` |

use crate::dist::{Bernoulli, DiscreteUniform, Exponential, Uniform};
use crate::model::{homogeneous_cluster, Job, JobId, Resource, Task, TaskId, TaskKind};
use desim::SimTime;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Shape of the arrival process (chaos-harness extension; the paper's
/// evaluation is pure Poisson).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArrivalKind {
    /// Homogeneous Poisson at the base rate `λ` (the Table 3 process).
    Poisson,
    /// Markov-modulated Poisson: alternate between a calm regime at the
    /// base `λ` and a burst regime at `burst_lambda`, with exponential
    /// dwell times (mean `calm_s` / `burst_s`).
    Mmpp,
    /// Deterministic flash crowds: every `calm_s` seconds the rate jumps
    /// to `burst_lambda` for `burst_s` seconds, then returns to `λ`.
    FlashCrowd,
    /// Linear ramp: the rate climbs from `λ` to `burst_lambda` over the
    /// first `calm_s` seconds and stays there — sweeps the system through
    /// and past saturation in a single run.
    Ramp,
}

/// Arrival-process knobs beyond the base rate `λ` (which stays in
/// [`SyntheticConfig::lambda`], so the default remains the paper's
/// Poisson process).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrivalConfig {
    /// Process shape.
    pub kind: ArrivalKind,
    /// Burst-regime rate, jobs/s (MMPP high state, flash-crowd spike, or
    /// the ramp's final rate). Ignored for `Poisson`.
    pub burst_lambda: f64,
    /// Mean calm dwell (MMPP), flash-crowd period, or ramp duration,
    /// seconds. Ignored for `Poisson`.
    pub calm_s: f64,
    /// Mean burst dwell (MMPP) or flash-crowd burst width, seconds.
    /// Ignored for `Poisson` and `Ramp`.
    pub burst_s: f64,
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        ArrivalConfig {
            kind: ArrivalKind::Poisson,
            burst_lambda: 0.0,
            calm_s: 0.0,
            burst_s: 0.0,
        }
    }
}

impl ArrivalConfig {
    /// An MMPP burst process over the given regime knobs.
    pub fn mmpp(burst_lambda: f64, mean_calm_s: f64, mean_burst_s: f64) -> Self {
        ArrivalConfig {
            kind: ArrivalKind::Mmpp,
            burst_lambda,
            calm_s: mean_calm_s,
            burst_s: mean_burst_s,
        }
    }

    /// A periodic flash crowd: `burst_s` seconds at `burst_lambda` every
    /// `period_s` seconds.
    pub fn flash_crowd(burst_lambda: f64, period_s: f64, burst_s: f64) -> Self {
        ArrivalConfig {
            kind: ArrivalKind::FlashCrowd,
            burst_lambda,
            calm_s: period_s,
            burst_s,
        }
    }

    /// A linear rate ramp from the base `λ` to `end_lambda` over `over_s`
    /// seconds.
    pub fn ramp(end_lambda: f64, over_s: f64) -> Self {
        ArrivalConfig {
            kind: ArrivalKind::Ramp,
            burst_lambda: end_lambda,
            calm_s: over_s,
            burst_s: 0.0,
        }
    }
}

/// Parameters of the Table 3 workload. `Default` gives the paper's boldface
/// defaults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// Inclusive bounds on the number of map tasks per job (`DU[1,100]`).
    pub maps_per_job: (i64, i64),
    /// Inclusive bounds on the number of reduce tasks per job (`DU[1,100]`).
    pub reduces_per_job: (i64, i64),
    /// Upper bound `e_max` of the map execution time `DU[1, e_max]`, seconds.
    pub e_max: i64,
    /// Probability `p` that a job's earliest start time lies in the future.
    pub p_future_start: f64,
    /// Upper bound `s_max` of the start offset `DU[1, s_max]`, seconds.
    pub s_max: i64,
    /// Upper bound `d_M` of the deadline multiplier `U[1, d_M]`.
    pub deadline_multiplier: f64,
    /// Job arrival rate `λ`, jobs per second (Poisson process).
    pub lambda: f64,
    /// Number of resources `m`.
    pub resources: u32,
    /// Map slots per resource `c^mp`.
    pub map_capacity: u32,
    /// Reduce slots per resource `c^rd`.
    pub reduce_capacity: u32,
    /// Arrival-process shape beyond the base Poisson rate (burst / flash
    /// crowd / ramp chaos processes; default is the paper's Poisson).
    #[serde(default)]
    pub arrival: ArrivalConfig,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            maps_per_job: (1, 100),
            reduces_per_job: (1, 100),
            e_max: 50,
            p_future_start: 0.5,
            s_max: 50_000,
            deadline_multiplier: 5.0,
            lambda: 0.01,
            resources: 50,
            map_capacity: 2,
            reduce_capacity: 2,
            arrival: ArrivalConfig::default(),
        }
    }
}

impl SyntheticConfig {
    /// Panics with a descriptive message if a parameter is out of range.
    pub fn validate(&self) {
        assert!(self.maps_per_job.0 >= 1 && self.maps_per_job.0 <= self.maps_per_job.1);
        assert!(self.reduces_per_job.0 >= 0 && self.reduces_per_job.0 <= self.reduces_per_job.1);
        assert!(self.e_max >= 1, "e_max must be >= 1s");
        assert!((0.0..=1.0).contains(&self.p_future_start));
        assert!(self.s_max >= 1);
        assert!(self.deadline_multiplier >= 1.0);
        assert!(self.lambda > 0.0);
        assert!(self.resources >= 1);
        assert!(self.map_capacity >= 1 && self.reduce_capacity >= 1);
        match self.arrival.kind {
            ArrivalKind::Poisson => {}
            ArrivalKind::Mmpp | ArrivalKind::FlashCrowd => {
                assert!(
                    self.arrival.burst_lambda > 0.0,
                    "burst arrival process needs burst_lambda > 0"
                );
                assert!(
                    self.arrival.calm_s > 0.0 && self.arrival.burst_s > 0.0,
                    "burst arrival process needs positive regime durations"
                );
            }
            ArrivalKind::Ramp => {
                assert!(
                    self.arrival.burst_lambda > 0.0,
                    "ramp needs a positive final rate"
                );
                assert!(self.arrival.calm_s > 0.0, "ramp needs a positive duration");
            }
        }
    }

    /// The cluster this workload runs on (`m` homogeneous resources).
    pub fn cluster(&self) -> Vec<Resource> {
        homogeneous_cluster(self.resources, self.map_capacity, self.reduce_capacity)
    }

    /// Total map slots across the cluster.
    pub fn total_map_slots(&self) -> u32 {
        self.resources * self.map_capacity
    }

    /// Total reduce slots across the cluster.
    pub fn total_reduce_slots(&self) -> u32 {
        self.resources * self.reduce_capacity
    }
}

/// Streaming generator of Table 3 jobs: each call to
/// [`next_job`](SyntheticGenerator::next_job) produces the next arrival of
/// the Poisson stream.
///
/// ```
/// use workload::{SyntheticConfig, SyntheticGenerator};
/// use rand::SeedableRng;
///
/// let cfg = SyntheticConfig::default(); // the paper's boldface defaults
/// let rng = rand::rngs::StdRng::seed_from_u64(42);
/// let mut gen = SyntheticGenerator::new(cfg, rng);
/// let jobs = gen.take_jobs(10);
/// assert_eq!(jobs.len(), 10);
/// assert!(jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
/// jobs.iter().for_each(|j| j.validate().unwrap());
/// ```
#[derive(Debug)]
pub struct SyntheticGenerator<R: Rng> {
    cfg: SyntheticConfig,
    rng: R,
    next_job_id: u32,
    next_task_id: u32,
    clock: f64, // arrival clock, seconds
    /// MMPP regime state: currently in the burst regime, and when the
    /// current regime's dwell ends.
    in_burst: bool,
    regime_until: f64,
}

impl<R: Rng> SyntheticGenerator<R> {
    /// New generator; validates the config.
    pub fn new(cfg: SyntheticConfig, rng: R) -> Self {
        cfg.validate();
        SyntheticGenerator {
            cfg,
            rng,
            next_job_id: 0,
            next_task_id: 0,
            clock: 0.0,
            in_burst: false,
            regime_until: 0.0,
        }
    }

    /// The config in use.
    pub fn config(&self) -> &SyntheticConfig {
        &self.cfg
    }

    /// Advance the arrival clock to the next event of the configured
    /// process. Regime-boundary stepping keeps the piecewise-constant
    /// processes exact (the exponential is memoryless, so resampling at a
    /// boundary does not bias the stream); the ramp uses thinning against
    /// the peak rate.
    fn advance_arrival_clock(&mut self) {
        let a = self.cfg.arrival;
        match a.kind {
            ArrivalKind::Poisson => {
                self.clock += Exponential::new(self.cfg.lambda).sample(&mut self.rng);
            }
            ArrivalKind::Mmpp => loop {
                if self.clock >= self.regime_until {
                    // Dwell expired (or first call): enter the next regime.
                    if self.regime_until > 0.0 {
                        self.in_burst = !self.in_burst;
                    }
                    let mean = if self.in_burst { a.burst_s } else { a.calm_s };
                    self.regime_until =
                        self.clock + Exponential::new(1.0 / mean).sample(&mut self.rng);
                }
                let rate = if self.in_burst {
                    a.burst_lambda
                } else {
                    self.cfg.lambda
                };
                let t = self.clock + Exponential::new(rate).sample(&mut self.rng);
                if t <= self.regime_until {
                    self.clock = t;
                    return;
                }
                self.clock = self.regime_until;
            },
            ArrivalKind::FlashCrowd => loop {
                let phase = self.clock.rem_euclid(a.calm_s);
                let (rate, boundary) = if phase < a.burst_s {
                    (a.burst_lambda, self.clock - phase + a.burst_s)
                } else {
                    (self.cfg.lambda, self.clock - phase + a.calm_s)
                };
                let t = self.clock + Exponential::new(rate).sample(&mut self.rng);
                if t <= boundary {
                    self.clock = t;
                    return;
                }
                self.clock = boundary;
            },
            ArrivalKind::Ramp => {
                let peak = self.cfg.lambda.max(a.burst_lambda);
                loop {
                    self.clock += Exponential::new(peak).sample(&mut self.rng);
                    let frac = (self.clock / a.calm_s).min(1.0);
                    let rate = self.cfg.lambda + (a.burst_lambda - self.cfg.lambda) * frac;
                    if self.rng.gen_bool((rate / peak).clamp(0.0, 1.0)) {
                        return;
                    }
                }
            }
        }
    }

    /// Generate the next arriving job.
    pub fn next_job(&mut self) -> Job {
        let cfg = self.cfg.clone();
        self.advance_arrival_clock();
        let arrival = SimTime::from_secs_f64(self.clock);

        let id = JobId(self.next_job_id);
        self.next_job_id += 1;

        // Task counts: k_mp ~ DU, k_rd ~ DU.
        let k_mp =
            DiscreteUniform::new(cfg.maps_per_job.0, cfg.maps_per_job.1).sample(&mut self.rng);
        let k_rd = DiscreteUniform::new(cfg.reduces_per_job.0, cfg.reduces_per_job.1)
            .sample(&mut self.rng);

        // Map execution times me ~ DU[1, e_max] seconds.
        let me_dist = DiscreteUniform::new(1, cfg.e_max);
        let mut map_tasks = Vec::with_capacity(k_mp as usize);
        let mut total_me: i64 = 0;
        for _ in 0..k_mp {
            let me = me_dist.sample(&mut self.rng);
            total_me += me;
            map_tasks.push(Task {
                id: self.alloc_task(),
                job: id,
                kind: TaskKind::Map,
                exec_time: SimTime::from_secs(me),
                req: 1,
            });
        }

        // Reduce execution times re = 3·Σme/k_rd + DU[1,10] seconds.
        let re_noise = DiscreteUniform::new(1, 10);
        let mut reduce_tasks = Vec::with_capacity(k_rd as usize);
        for _ in 0..k_rd {
            let base = if k_rd > 0 { 3 * total_me / k_rd } else { 0 };
            let re = (base + re_noise.sample(&mut self.rng)).max(1);
            reduce_tasks.push(Task {
                id: self.alloc_task(),
                job: id,
                kind: TaskKind::Reduce,
                exec_time: SimTime::from_secs(re),
                req: 1,
            });
        }

        // Earliest start time: s_j = v_j, or v_j + DU[1, s_max] w.p. p.
        let future = Bernoulli::new(cfg.p_future_start).sample(&mut self.rng);
        let earliest_start = if future {
            arrival + SimTime::from_secs(DiscreteUniform::new(1, cfg.s_max).sample(&mut self.rng))
        } else {
            arrival
        };

        // Deadline: d_j = s_j + TE · U[1, d_M]; TE is the job's minimum
        // execution time assuming it has the whole (otherwise empty) system.
        let mut job = Job {
            id,
            arrival,
            earliest_start,
            deadline: SimTime::MAX, // fixed below
            map_tasks,
            reduce_tasks,
        };
        let te = job.min_execution_time(cfg.total_map_slots(), cfg.total_reduce_slots());
        let mult = Uniform::new(1.0, cfg.deadline_multiplier).sample(&mut self.rng);
        job.deadline =
            earliest_start + SimTime::from_millis((te.as_millis() as f64 * mult).round() as i64);

        debug_assert!(job.validate().is_ok(), "generated invalid job: {job:?}");
        job
    }

    /// Generate a fixed-size workload of `n` jobs.
    pub fn take_jobs(&mut self, n: usize) -> Vec<Job> {
        (0..n).map(|_| self.next_job()).collect()
    }

    fn alloc_task(&mut self) -> TaskId {
        let id = TaskId(self.next_task_id);
        self.next_task_id += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gen(cfg: SyntheticConfig) -> SyntheticGenerator<StdRng> {
        SyntheticGenerator::new(cfg, StdRng::seed_from_u64(7))
    }

    #[test]
    fn defaults_match_table3_bold_values() {
        let c = SyntheticConfig::default();
        assert_eq!(c.e_max, 50);
        assert_eq!(c.p_future_start, 0.5);
        assert_eq!(c.s_max, 50_000);
        assert_eq!(c.deadline_multiplier, 5.0);
        assert_eq!(c.lambda, 0.01);
        assert_eq!(c.resources, 50);
        assert_eq!(c.map_capacity, 2);
        assert_eq!(c.reduce_capacity, 2);
        assert_eq!(c.total_map_slots(), 100);
    }

    #[test]
    fn jobs_are_valid_and_within_bounds() {
        let mut g = gen(SyntheticConfig::default());
        for _ in 0..200 {
            let j = g.next_job();
            j.validate().expect("valid job");
            assert!((1..=100).contains(&(j.map_tasks.len() as i64)));
            assert!((1..=100).contains(&(j.reduce_tasks.len() as i64)));
            for t in &j.map_tasks {
                let secs = t.exec_time.as_millis() / 1000;
                assert!((1..=50).contains(&secs), "map exec {secs}s out of DU[1,50]");
            }
            assert!(j.earliest_start >= j.arrival);
            assert!(j.deadline >= j.earliest_start);
        }
    }

    #[test]
    fn reduce_times_follow_formula() {
        let mut g = gen(SyntheticConfig::default());
        for _ in 0..50 {
            let j = g.next_job();
            let total_me: i64 = j
                .map_tasks
                .iter()
                .map(|t| t.exec_time.as_millis() / 1000)
                .sum();
            let k_rd = j.reduce_tasks.len() as i64;
            let base = 3 * total_me / k_rd;
            for t in &j.reduce_tasks {
                let re = t.exec_time.as_millis() / 1000;
                assert!(
                    re > base && re <= base + 10,
                    "re={re} not in [{},{}]",
                    base + 1,
                    base + 10
                );
            }
        }
    }

    #[test]
    fn arrival_times_strictly_increase_and_match_rate() {
        let mut g = gen(SyntheticConfig::default());
        let jobs = g.take_jobs(2000);
        for w in jobs.windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
        }
        // mean inter-arrival should be ~1/λ = 100s
        let span = (jobs.last().unwrap().arrival - jobs[0].arrival).as_secs_f64();
        let mean_ia = span / (jobs.len() - 1) as f64;
        assert!(
            (mean_ia - 100.0).abs() < 10.0,
            "mean inter-arrival {mean_ia}"
        );
    }

    #[test]
    fn p_zero_means_start_equals_arrival() {
        let mut g = gen(SyntheticConfig {
            p_future_start: 0.0,
            ..Default::default()
        });
        for _ in 0..100 {
            let j = g.next_job();
            assert_eq!(j.earliest_start, j.arrival);
        }
    }

    #[test]
    fn p_one_means_start_always_future() {
        let mut g = gen(SyntheticConfig {
            p_future_start: 1.0,
            ..Default::default()
        });
        for _ in 0..100 {
            let j = g.next_job();
            assert!(j.earliest_start > j.arrival);
            let off = (j.earliest_start - j.arrival).as_millis() / 1000;
            assert!((1..=50_000).contains(&off));
        }
    }

    #[test]
    fn deadline_within_te_multiplier_range() {
        let cfg = SyntheticConfig::default();
        let mut g = gen(cfg.clone());
        for _ in 0..100 {
            let j = g.next_job();
            let te = j
                .min_execution_time(cfg.total_map_slots(), cfg.total_reduce_slots())
                .as_millis() as f64;
            let win = (j.deadline - j.earliest_start).as_millis() as f64;
            assert!(
                win >= te * 0.999 && win <= te * cfg.deadline_multiplier * 1.001,
                "window {win} vs TE {te}"
            );
        }
    }

    #[test]
    fn task_ids_are_globally_unique() {
        let mut g = gen(SyntheticConfig::default());
        let jobs = g.take_jobs(50);
        let mut seen = std::collections::HashSet::new();
        for j in &jobs {
            for t in j.tasks() {
                assert!(seen.insert(t.id), "duplicate task id {:?}", t.id);
            }
        }
    }

    #[test]
    fn same_seed_same_workload() {
        let a = gen(SyntheticConfig::default()).take_jobs(20);
        let b = gen(SyntheticConfig::default()).take_jobs(20);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn invalid_config_panics() {
        gen(SyntheticConfig {
            lambda: 0.0,
            ..Default::default()
        });
    }

    /// Empirical rate of an arrival stream over `[0, horizon]` seconds.
    fn observed_rate(cfg: SyntheticConfig, horizon: f64) -> f64 {
        let mut g = gen(cfg);
        let mut n = 0usize;
        loop {
            let j = g.next_job();
            if j.arrival.as_secs_f64() > horizon {
                return n as f64 / horizon;
            }
            n += 1;
        }
    }

    #[test]
    fn mmpp_rate_lies_between_calm_and_burst() {
        let calm = 0.01;
        let burst = 0.5;
        let cfg = SyntheticConfig {
            lambda: calm,
            arrival: ArrivalConfig::mmpp(burst, 500.0, 100.0),
            ..Default::default()
        };
        let rate = observed_rate(cfg, 200_000.0);
        // Expected long-run rate: (calm·500 + burst·100)/600 ≈ 0.0917.
        assert!(
            rate > calm * 1.5 && rate < burst,
            "MMPP rate {rate} should exceed the calm rate and stay below the burst rate"
        );
    }

    #[test]
    fn flash_crowd_concentrates_arrivals_in_bursts() {
        let cfg = SyntheticConfig {
            lambda: 0.001,
            arrival: ArrivalConfig::flash_crowd(1.0, 1000.0, 50.0),
            ..Default::default()
        };
        let mut g = gen(cfg);
        let mut in_burst = 0usize;
        let mut total = 0usize;
        loop {
            let j = g.next_job();
            let t = j.arrival.as_secs_f64();
            if t > 20_000.0 {
                break;
            }
            total += 1;
            if t.rem_euclid(1000.0) < 50.0 {
                in_burst += 1;
            }
        }
        // Bursts cover 5% of time but carry ~98% of the arrivals here.
        assert!(total > 100, "flash crowds should produce arrivals: {total}");
        assert!(
            in_burst as f64 / total as f64 > 0.8,
            "{in_burst}/{total} arrivals inside burst windows"
        );
    }

    #[test]
    fn ramp_rate_increases_over_the_run() {
        let cfg = SyntheticConfig {
            lambda: 0.01,
            arrival: ArrivalConfig::ramp(0.5, 10_000.0),
            ..Default::default()
        };
        let mut g = gen(cfg);
        let (mut early, mut late) = (0usize, 0usize);
        loop {
            let j = g.next_job();
            let t = j.arrival.as_secs_f64();
            if t > 20_000.0 {
                break;
            }
            if t < 2_000.0 {
                early += 1;
            } else if t >= 10_000.0 {
                late += 1;
            }
        }
        // Post-ramp runs at 0.5 jobs/s over 10k s ≈ 5000 arrivals; the
        // first 2k s averages well under 0.1 jobs/s.
        assert!(
            late > early * 5,
            "ramp should accelerate arrivals: early={early} late={late}"
        );
    }

    #[test]
    fn burst_processes_are_deterministic_per_seed() {
        let cfg = SyntheticConfig {
            arrival: ArrivalConfig::mmpp(0.2, 300.0, 60.0),
            ..Default::default()
        };
        let a = gen(cfg.clone()).take_jobs(50);
        let b = gen(cfg).take_jobs(50);
        assert_eq!(a, b);
    }

    #[test]
    fn arrival_config_round_trips_serde_default() {
        // A config serialized before the arrival field existed must still
        // deserialize (serde default → Poisson).
        let cfg = SyntheticConfig::default();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: SyntheticConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.arrival.kind, ArrivalKind::Poisson);
        let burst = SyntheticConfig {
            arrival: ArrivalConfig::flash_crowd(2.0, 600.0, 30.0),
            ..Default::default()
        };
        let json = serde_json::to_string(&burst).unwrap();
        let back: SyntheticConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.arrival, burst.arrival);
    }

    #[test]
    fn retired_cells_knob_still_loads() {
        // A stored config that still carries the retired `cells` knob (the
        // federation's shape is `cluster::ClusterConfig::cells`) keeps
        // loading; the key is ignored.
        let cfg = SyntheticConfig::default();
        let json = serde_json::to_string(&cfg).unwrap();
        let stored = json.replacen('{', r#"{"cells":4,"#, 1);
        let back: SyntheticConfig = serde_json::from_str(&stored).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn retired_solver_table_still_loads() {
        // A stored config that still carries the retired `solver` table
        // (`lns`, and before it `prop_scheduling`) keeps loading; the table
        // is ignored.
        let cfg = SyntheticConfig::default();
        let json = serde_json::to_string(&cfg).unwrap();
        let stored = json.replacen(
            '{',
            r#"{"solver":{"prop_scheduling":false,"lns":false},"#,
            1,
        );
        let back: SyntheticConfig = serde_json::from_str(&stored).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    #[should_panic(expected = "burst")]
    fn burst_process_without_rates_panics() {
        gen(SyntheticConfig {
            arrival: ArrivalConfig {
                kind: ArrivalKind::Mmpp,
                burst_lambda: 0.0,
                calm_s: 10.0,
                burst_s: 10.0,
            },
            ..Default::default()
        });
    }
}

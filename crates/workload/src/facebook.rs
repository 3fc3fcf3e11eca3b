//! The synthetic Facebook workload of §VI.B.1 (Table 4).
//!
//! Derived from October-2009 Facebook trace analysis in Verma et al. (ARIA):
//! a 1000-job mix of ten job types (map/reduce task counts in Table 4), with
//! task execution times fitted to LogNormal distributions —
//! maps `LN(9.9511, 1.6764)` ms, reduces `LN(12.375, 1.6262)` ms — Poisson
//! arrivals, `s_j = v_j` (p = 0), deadlines `d_j = s_j + TE·U[1, 2]`, and a
//! cluster of 64 resources with one map and one reduce slot each.

use crate::dist::{Exponential, LogNormal, Uniform};
use crate::model::{homogeneous_cluster, Job, JobId, Resource, Task, TaskId, TaskKind};
use desim::SimTime;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Table 4: `(maps, reduces, number of jobs out of 1000)` per job type.
pub const JOB_TYPES: [(u32, u32, u32); 10] = [
    (1, 0, 380),
    (2, 0, 160),
    (10, 3, 140),
    (50, 0, 80),
    (100, 0, 60),
    (200, 50, 60),
    (400, 0, 40),
    (800, 180, 40),
    (2400, 360, 20),
    (4800, 0, 20),
];

/// Fitted map-task execution time distribution, milliseconds.
pub const MAP_TIME: (f64, f64) = (9.9511, 1.6764);
/// Fitted reduce-task execution time distribution, milliseconds.
pub const REDUCE_TIME: (f64, f64) = (12.375, 1.6262);

/// How job types are drawn for workloads that are not exactly 1000 jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TypeMix {
    /// A shuffled deck holding exactly the Table 4 counts, repeated as
    /// needed. With `n = 1000` this reproduces the paper's mix exactly.
    Deck,
    /// Independent draws with probabilities proportional to the Table 4
    /// counts (useful for long steady-state runs).
    Sampled,
}

/// Parameters of the Facebook workload experiments (Figs. 2–3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FacebookConfig {
    /// Job arrival rate λ, jobs/second. The paper sweeps 1e-4 … 5e-4.
    pub lambda: f64,
    /// Deadline multiplier upper bound `d_M` (the paper uses 2).
    pub deadline_multiplier: f64,
    /// Number of resources (the paper uses 64, one map + one reduce slot).
    pub resources: u32,
    /// Map slots per resource.
    pub map_capacity: u32,
    /// Reduce slots per resource.
    pub reduce_capacity: u32,
    /// Type-mix mode.
    pub mix: TypeMix,
    /// Scale factor on task counts (1.0 = paper scale). Harness runs use a
    /// smaller factor so the CP model stays tractable in CI; the trend
    /// comparisons in EXPERIMENTS.md note the factor used.
    pub task_scale: f64,
}

impl Default for FacebookConfig {
    fn default() -> Self {
        FacebookConfig {
            lambda: 0.0002,
            deadline_multiplier: 2.0,
            resources: 64,
            map_capacity: 1,
            reduce_capacity: 1,
            mix: TypeMix::Deck,
            task_scale: 1.0,
        }
    }
}

impl FacebookConfig {
    /// Panics if a parameter is out of range.
    pub fn validate(&self) {
        assert!(self.lambda > 0.0);
        assert!(self.deadline_multiplier >= 1.0);
        assert!(self.resources >= 1);
        assert!(self.map_capacity >= 1 && self.reduce_capacity >= 1);
        assert!(self.task_scale > 0.0 && self.task_scale <= 1.0);
    }

    /// The 64-node (by default) cluster.
    pub fn cluster(&self) -> Vec<Resource> {
        homogeneous_cluster(self.resources, self.map_capacity, self.reduce_capacity)
    }

    /// Total map slots.
    pub fn total_map_slots(&self) -> u32 {
        self.resources * self.map_capacity
    }

    /// Total reduce slots.
    pub fn total_reduce_slots(&self) -> u32 {
        self.resources * self.reduce_capacity
    }

    /// Task counts for a job type after applying `task_scale` (at least one
    /// map task; reduce count 0 stays 0).
    pub fn scaled_counts(&self, ty: usize) -> (u32, u32) {
        let (m, r, _) = JOB_TYPES[ty];
        let sm = ((m as f64 * self.task_scale).round() as u32).max(1);
        let sr = if r == 0 {
            0
        } else {
            ((r as f64 * self.task_scale).round() as u32).max(1)
        };
        (sm, sr)
    }
}

/// Streaming generator of Facebook-workload jobs.
#[derive(Debug)]
pub struct FacebookGenerator<R: Rng> {
    cfg: FacebookConfig,
    rng: R,
    deck: Vec<usize>,
    deck_pos: usize,
    next_job_id: u32,
    next_task_id: u32,
    clock: f64,
}

impl<R: Rng> FacebookGenerator<R> {
    /// New generator; validates the config.
    pub fn new(cfg: FacebookConfig, mut rng: R) -> Self {
        cfg.validate();
        let deck = match cfg.mix {
            TypeMix::Deck => {
                let mut d: Vec<usize> = JOB_TYPES
                    .iter()
                    .enumerate()
                    .flat_map(|(i, &(_, _, n))| std::iter::repeat_n(i, n as usize))
                    .collect();
                d.shuffle(&mut rng);
                d
            }
            TypeMix::Sampled => Vec::new(),
        };
        FacebookGenerator {
            cfg,
            rng,
            deck,
            deck_pos: 0,
            next_job_id: 0,
            next_task_id: 0,
            clock: 0.0,
        }
    }

    /// The config in use.
    pub fn config(&self) -> &FacebookConfig {
        &self.cfg
    }

    fn draw_type(&mut self) -> usize {
        match self.cfg.mix {
            TypeMix::Deck => {
                if self.deck_pos == self.deck.len() {
                    self.deck.shuffle(&mut self.rng);
                    self.deck_pos = 0;
                }
                let t = self.deck[self.deck_pos];
                self.deck_pos += 1;
                t
            }
            TypeMix::Sampled => {
                let total: u32 = JOB_TYPES.iter().map(|t| t.2).sum();
                let mut x = self.rng.gen_range(0..total);
                for (i, &(_, _, n)) in JOB_TYPES.iter().enumerate() {
                    if x < n {
                        return i;
                    }
                    x -= n;
                }
                unreachable!("type mix probabilities must sum to 1")
            }
        }
    }

    /// Generate the next arriving job.
    pub fn next_job(&mut self) -> Job {
        let inter = Exponential::new(self.cfg.lambda).sample(&mut self.rng);
        self.clock += inter;
        let arrival = SimTime::from_secs_f64(self.clock);

        let ty = self.draw_type();
        let (k_mp, k_rd) = self.cfg.scaled_counts(ty);

        let id = JobId(self.next_job_id);
        self.next_job_id += 1;

        let map_dist = LogNormal::new(MAP_TIME.0, MAP_TIME.1);
        let red_dist = LogNormal::new(REDUCE_TIME.0, REDUCE_TIME.1);

        let mut map_tasks = Vec::with_capacity(k_mp as usize);
        for _ in 0..k_mp {
            let ms = map_dist.sample(&mut self.rng).round().max(1.0) as i64;
            map_tasks.push(Task {
                id: self.alloc_task(),
                job: id,
                kind: TaskKind::Map,
                exec_time: SimTime::from_millis(ms),
                req: 1,
            });
        }
        let mut reduce_tasks = Vec::with_capacity(k_rd as usize);
        for _ in 0..k_rd {
            let ms = red_dist.sample(&mut self.rng).round().max(1.0) as i64;
            reduce_tasks.push(Task {
                id: self.alloc_task(),
                job: id,
                kind: TaskKind::Reduce,
                exec_time: SimTime::from_millis(ms),
                req: 1,
            });
        }

        // s_j = v_j (p = 0 for the Facebook experiments).
        let mut job = Job {
            id,
            arrival,
            earliest_start: arrival,
            deadline: SimTime::MAX,
            map_tasks,
            reduce_tasks,
        };
        let te = job.min_execution_time(self.cfg.total_map_slots(), self.cfg.total_reduce_slots());
        let mult = Uniform::new(1.0, self.cfg.deadline_multiplier).sample(&mut self.rng);
        job.deadline =
            arrival + SimTime::from_millis((te.as_millis() as f64 * mult).round() as i64);

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
    use std::collections::HashMap;

    fn gen(cfg: FacebookConfig) -> FacebookGenerator<StdRng> {
        FacebookGenerator::new(cfg, StdRng::seed_from_u64(11))
    }

    #[test]
    fn table4_totals() {
        let total: u32 = JOB_TYPES.iter().map(|t| t.2).sum();
        assert_eq!(total, 1000, "Table 4 job counts must sum to 1000");
    }

    #[test]
    fn deck_of_1000_matches_table4_exactly() {
        let mut g = gen(FacebookConfig::default());
        let jobs = g.take_jobs(1000);
        let mut counts: HashMap<(usize, usize), u32> = HashMap::new();
        for j in &jobs {
            *counts
                .entry((j.map_tasks.len(), j.reduce_tasks.len()))
                .or_default() += 1;
        }
        for &(m, r, n) in &JOB_TYPES {
            assert_eq!(
                counts.get(&(m as usize, r as usize)).copied().unwrap_or(0),
                n,
                "job type ({m},{r}) count mismatch"
            );
        }
    }

    #[test]
    fn scaled_counts_reduce_size_but_keep_shape() {
        let cfg = FacebookConfig {
            task_scale: 0.1,
            ..Default::default()
        };
        assert_eq!(cfg.scaled_counts(0), (1, 0)); // 1 map stays 1 map
        assert_eq!(cfg.scaled_counts(8), (240, 36)); // 2400/360 scale down
        assert_eq!(cfg.scaled_counts(9), (480, 0)); // reduce 0 stays 0
                                                    // map-only types never gain reduces
        let mut g = gen(cfg);
        for j in g.take_jobs(300) {
            j.validate().unwrap();
        }
    }

    #[test]
    fn map_times_lognormal_median() {
        let mut g = gen(FacebookConfig::default());
        let mut times: Vec<i64> = Vec::new();
        for j in g.take_jobs(400) {
            for t in &j.map_tasks {
                times.push(t.exec_time.as_millis());
            }
        }
        times.sort_unstable();
        let median = times[times.len() / 2] as f64;
        let expected = MAP_TIME.0.exp(); // ≈ 21 018 ms
        assert!(
            (median / expected - 1.0).abs() < 0.15,
            "map median {median} vs {expected}"
        );
    }

    #[test]
    fn deadlines_use_multiplier_window() {
        let cfg = FacebookConfig::default();
        let mut g = gen(cfg.clone());
        for j in g.take_jobs(200) {
            let te = j
                .min_execution_time(cfg.total_map_slots(), cfg.total_reduce_slots())
                .as_millis() as f64;
            let win = (j.deadline - j.earliest_start).as_millis() as f64;
            assert!(win >= te * 0.999 && win <= te * 2.001);
            assert_eq!(j.earliest_start, j.arrival, "Facebook workload has p=0");
        }
    }

    #[test]
    fn arrivals_follow_lambda() {
        let mut g = gen(FacebookConfig {
            lambda: 0.001,
            ..Default::default()
        });
        let jobs = g.take_jobs(3000);
        let span = (jobs.last().unwrap().arrival - jobs[0].arrival).as_secs_f64();
        let mean_ia = span / (jobs.len() - 1) as f64;
        assert!(
            (mean_ia - 1000.0).abs() < 60.0,
            "mean inter-arrival {mean_ia}"
        );
    }

    #[test]
    fn sampled_mix_approximates_table4() {
        let mut g = gen(FacebookConfig {
            mix: TypeMix::Sampled,
            ..Default::default()
        });
        let jobs = g.take_jobs(5000);
        let single_map = jobs
            .iter()
            .filter(|j| j.map_tasks.len() == 1 && j.reduce_tasks.is_empty())
            .count() as f64
            / jobs.len() as f64;
        assert!(
            (single_map - 0.38).abs() < 0.03,
            "type-1 share {single_map}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = gen(FacebookConfig::default()).take_jobs(10);
        let b = gen(FacebookConfig::default()).take_jobs(10);
        assert_eq!(a, b);
    }
}

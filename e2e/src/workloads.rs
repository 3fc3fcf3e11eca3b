//! The four workloads, defined once. Everything a run needs — generator
//! knobs, manager/driver configuration, the stack the jobs are replayed
//! through — lives in [`table`]; `--seed` and the segment index are the
//! only inputs to [`Workload::generate`], so a workload is a pure function
//! of the seed.
//!
//! A workload is replayed as a sequence of independent *segments*: segment
//! `k` draws its jobs from the sub-stream `(seed, k)` and runs to drain on a
//! fresh manager. Timing metrics are medians over segments, which is what
//! keeps them steady across seeds (a heavy-tailed segment moves a mean, not
//! a median) and across the host's slow spells.

use cluster::ClusterConfig;
use desim::{RngStreams, SimTime};
use durability::{DurabilityConfig, StoreConfig, WalConfig};
use mrcp::manager::AdaptiveBudget;
use mrcp::{
    AdmissionConfig, AdmissionPolicy, IngestConfig, ManagerCrashConfig, MrcpConfig, OverheadModel,
    SimConfig, SolveBudget,
};
use rand::Rng;
use serde_json::Value;
use workload::facebook::TypeMix;
use workload::{
    ArrivalConfig, FacebookConfig, FacebookGenerator, FaultConfig, Job, Resource, SyntheticConfig,
    SyntheticGenerator,
};

/// Which product generator draws a segment's jobs.
#[derive(Debug, Clone)]
pub enum Generator {
    /// Paper Table 4 job mix with LogNormal task times (Figs. 2–3).
    Facebook(FacebookConfig),
    /// Paper Table 3 factor-at-a-time workload, plus the arrival shapes.
    Synthetic(SyntheticConfig),
    /// Table 3 job shapes re-stamped into flash crowds of a fixed size.
    Bursts(BurstConfig),
}

/// A stratified flash crowd: every `period_s` seconds exactly `burst_jobs`
/// jobs arrive, one per `spacing_s` slot at a seeded offset inside its
/// slot, and nothing arrives in between. Job shapes, execution times and
/// deadline slack come from the product's `SyntheticGenerator`; only the
/// arrival stamps are replaced (earliest start and deadline move with
/// them). Fixing the crowd's size — as `TypeMix::Deck` fixes the Facebook
/// type counts — takes Poisson count noise out of a cost that grows with
/// the square of the crowd, which is most of what separates one seed's
/// throughput from another's.
#[derive(Debug, Clone)]
pub struct BurstConfig {
    /// Job shapes (its arrival knobs are ignored).
    pub shape: SyntheticConfig,
    /// Jobs per crowd.
    pub burst_jobs: usize,
    /// Seconds between consecutive arrivals of a crowd.
    pub spacing_s: f64,
    /// Seconds from one crowd's first arrival to the next's.
    pub period_s: f64,
}

/// Which layers sit between the simulation driver and `MrcpRm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// `MrcpRm` alone: no store, no federation.
    Plain,
    /// `durability::DurableRm` over `MrcpRm`.
    Durable,
    /// `service::InstrumentedRm<cluster::DurableFederation>` with live
    /// telemetry attached — every layer of the serving path.
    Full,
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub why: &'static str,
    /// Job generator and its knobs.
    pub generator: Generator,
    /// Jobs per segment.
    pub jobs: usize,
    /// Segments an end-to-end run replays per ten seconds asked for with
    /// `--seconds`: sized so that a run takes about that long on the
    /// reference host. The count is fixed by the request, not by the clock,
    /// so two runs of a seed replay identical inputs.
    pub segments_per_10s: usize,
    /// Layers under the driver.
    pub stack: Stack,
    /// Driver and manager configuration (crash points are filled per
    /// segment from `crash_every`).
    pub sim: SimConfig,
    /// Store knobs for the durable stacks.
    pub durability: DurabilityConfig,
    /// Federation shape for [`Stack::Full`].
    pub cluster: ClusterConfig,
    /// Kill and recover the manager before every `crash_every`-th
    /// state-mutating command (0 = never).
    pub crash_every: u64,
    /// Added to every generated deadline. The generators draw a deadline
    /// as `s + TE * U[1, d_M]`, so a few jobs always have next to no slack;
    /// a workload that must stay clear of search (any late job makes every
    /// round until it leaves exhaust the node budget) gives them some.
    pub extra_slack: SimTime,
}

/// The solver budget every workload runs under: count-driven (no wall-clock
/// limit, no latency controller, one worker), so schedules, `P`, `T` and
/// node counts repeat bit-exactly and wall time measures the code rather
/// than a time cap. The product's own adaptive scaling keeps a budget-
/// exhausting round on an 800-task model from costing a thousand ordinary
/// rounds.
pub fn budget() -> SolveBudget {
    SolveBudget {
        time_limit_ms: None,
        node_limit: 150,
        fail_limit: 150,
        workers: 1,
        adaptive: Some(AdaptiveBudget {
            reference_tasks: 200,
            floor_nodes: 50,
        }),
        ..SolveBudget::default()
    }
}

fn manager(admission: AdmissionConfig) -> MrcpConfig {
    MrcpConfig {
        budget: budget(),
        controller: None,
        admission,
        ..MrcpConfig::default()
    }
}

fn sim(manager: MrcpConfig) -> SimConfig {
    SimConfig {
        manager,
        overhead: OverheadModel::Instantaneous,
        ..SimConfig::default()
    }
}

/// Group commit and sparse snapshots: the store lives inside the checkout,
/// on whatever disk that is, and with the product defaults (a sync per
/// record, a snapshot per 256) the end-to-end numbers measured the device —
/// 3-4x slower than on tmpfs here, and swinging 40 % between back-to-back
/// runs. Power-loss semantics stay on, so a crash still drops the unsynced
/// tail and re-delivers it. Real `fsync` latency is a flagged per-layer
/// metric instead.
fn durability(snapshot_every: u64, sync_every: u64) -> DurabilityConfig {
    DurabilityConfig::power_loss(StoreConfig {
        snapshot_every,
        wal: WalConfig { sync_every },
    })
}

/// The workload table.
pub fn table() -> Vec<Workload> {
    // Every synthetic cluster has two map and two reduce slots per node,
    // and (unless a workload says otherwise) jobs may start on arrival.
    let small_cluster = |cfg: SyntheticConfig| SyntheticConfig {
        map_capacity: 2,
        reduce_capacity: 2,
        ..cfg
    };
    let on_arrival = SyntheticConfig {
        p_future_start: 0.0,
        s_max: 1,
        ..SyntheticConfig::default()
    };
    vec![
        Workload {
            name: "fb_trace",
            why: "paper Figs. 2-3 job mix, one-task jobs beside 240-task jobs: per-round fixed cost on big models (greedy, matchmaking, model build) does the work and search almost none",
            generator: Generator::Facebook(FacebookConfig {
                lambda: 0.06,
                deadline_multiplier: 8.0,
                resources: 64,
                map_capacity: 1,
                reduce_capacity: 1,
                mix: TypeMix::Deck,
                task_scale: 0.05,
            }),
            jobs: 1000,
            segments_per_10s: 30,
            stack: Stack::Plain,
            sim: sim(manager(AdmissionConfig::default())),
            durability: DurabilityConfig::default(),
            cluster: ClusterConfig::default(),
            crash_every: 0,
            extra_slack: SimTime::ZERO,
        },
        Workload {
            name: "flash_backlog",
            why: "fixed-size flash crowds of small jobs on a small cluster: each arrival in a crowd re-solves a growing late backlog and exhausts the node budget, so search and LNS dominate; round cache warm",
            generator: Generator::Bursts(BurstConfig {
                shape: small_cluster(SyntheticConfig {
                    maps_per_job: (1, 8),
                    reduces_per_job: (1, 4),
                    e_max: 20,
                    deadline_multiplier: 2.5,
                    resources: 8,
                    ..on_arrival.clone()
                }),
                burst_jobs: 20,
                spacing_s: 0.8,
                period_s: 400.0,
            }),
            jobs: 1000,
            segments_per_10s: 6,
            stack: Stack::Plain,
            sim: sim(manager(AdmissionConfig::default())),
            durability: DurabilityConfig::default(),
            cluster: ClusterConfig::default(),
            crash_every: 0,
            extra_slack: SimTime::ZERO,
        },
        Workload {
            name: "churn_recover",
            why: "rounds driven by completions, task failures, stragglers and outages through a durable manager killed and recovered mid-run: pinned-task models, cache invalidations, snapshot load, WAL replay",
            generator: Generator::Synthetic(small_cluster(SyntheticConfig {
                maps_per_job: (1, 8),
                reduces_per_job: (1, 4),
                e_max: 20,
                deadline_multiplier: 4.0,
                lambda: 0.12,
                resources: 16,
                ..on_arrival.clone()
            })),
            jobs: 600,
            segments_per_10s: 52,
            stack: Stack::Durable,
            sim: SimConfig {
                reschedule_on_completion: true,
                faults: FaultConfig {
                    task_failure_prob: 0.05,
                    straggler_prob: 0.1,
                    straggler_factor: (1.5, 3.0),
                    retry_budget: 12,
                    resource_mttf: Some(SimTime::from_secs(600)),
                    resource_mttr: Some(SimTime::from_secs(30)),
                    scheduled_outages: Vec::new(),
                },
                ..sim(manager(AdmissionConfig::default()))
            },
            // Replay re-executes every solve, so the snapshot cadence bounds
            // what a recovery costs: at most 2 048 commands here.
            durability: durability(2_048, 1_024),
            cluster: ClusterConfig::default(),
            crash_every: 5_000,
            extra_slack: SimTime::from_secs(3_600),
        },
        Workload {
            name: "fed_stack",
            why: "bursty tiny jobs through ingest batching, admission probes, federation routing, journaling and live telemetry: the solver is nearly idle, so the stack's fixed cost per job does the work",
            generator: Generator::Synthetic(small_cluster(SyntheticConfig {
                maps_per_job: (1, 4),
                reduces_per_job: (1, 2),
                e_max: 10,
                p_future_start: 0.2,
                s_max: 600,
                deadline_multiplier: 8.0,
                lambda: 0.3,
                resources: 16,
                arrival: ArrivalConfig::mmpp(0.8, 30.0, 5.0),
                ..SyntheticConfig::default()
            })),
            jobs: 4000,
            segments_per_10s: 17,
            stack: Stack::Full,
            sim: SimConfig {
                ingest: Some(IngestConfig {
                    max_batch: 8,
                    max_linger: SimTime::from_secs(2),
                }),
                ..sim(manager(AdmissionConfig {
                    policy: AdmissionPolicy::Renegotiate,
                    max_pending_jobs: Some(256),
                }))
            },
            durability: durability(8_192, 4_096),
            // One cell on purpose: with two, most rounds spawn OS threads
            // and the gated numbers would measure the hypervisor. The
            // traced pass reports the two-cell fan-out as its own stage.
            cluster: ClusterConfig::default(),
            crash_every: 30_000,
            extra_slack: SimTime::ZERO,
        },
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    table().into_iter().find(|w| w.name == name)
}

/// One segment's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The cluster.
    pub resources: Vec<Resource>,
    /// Jobs in arrival order.
    pub jobs: Vec<Job>,
    /// Driver configuration with this segment's fault seed and crash
    /// points filled in.
    pub sim: SimConfig,
}

impl Workload {
    /// Segments an end-to-end run of `seconds` replays.
    pub fn segments_for(&self, seconds: f64) -> usize {
        ((self.segments_per_10s as f64 * seconds / 10.0).round() as usize).max(1)
    }

    /// Shrink to the `--smoke` size: the same code paths on at most 200
    /// jobs per segment and a single segment.
    pub fn smoke(mut self) -> Workload {
        self.jobs = self.jobs.min(200);
        self.segments_per_10s = 1;
        if self.crash_every > 0 {
            self.crash_every = self.crash_every.min(300);
        }
        self
    }

    /// Generate segment `segment` of the stream seeded by `seed`.
    pub fn generate(&self, seed: u64, segment: u64) -> Inputs {
        let streams = RngStreams::for_replication(seed, segment);
        let rng = streams.stream(self.name);
        let (resources, mut jobs) = match &self.generator {
            Generator::Facebook(cfg) => (
                cfg.cluster(),
                FacebookGenerator::new(cfg.clone(), rng).take_jobs(self.jobs),
            ),
            Generator::Synthetic(cfg) => (
                cfg.cluster(),
                SyntheticGenerator::new(cfg.clone(), rng).take_jobs(self.jobs),
            ),
            Generator::Bursts(cfg) => (
                cfg.shape.cluster(),
                SyntheticGenerator::new(cfg.shape.clone(), rng).take_jobs(self.jobs),
            ),
        };
        if let Generator::Bursts(cfg) = &self.generator {
            let mut offsets = streams.stream("burst-offsets");
            for (i, job) in jobs.iter_mut().enumerate() {
                let (burst, slot) = (i / cfg.burst_jobs, i % cfg.burst_jobs);
                let at = burst as f64 * cfg.period_s
                    + (slot as f64 + offsets.gen_range(0.0..1.0)) * cfg.spacing_s;
                let shift = SimTime::from_secs_f64(at) - job.arrival;
                job.arrival += shift;
                job.earliest_start += shift;
                job.deadline += shift;
            }
        }
        for job in &mut jobs {
            job.deadline += self.extra_slack;
        }
        let mut sim = self.sim.clone();
        // Independent of the job stream, but still a function of
        // (seed, segment) only.
        sim.fault_seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(segment);
        sim.manager_crashes = self.crashes();
        Inputs {
            resources,
            jobs,
            sim,
        }
    }

    /// Crash injection at fixed command indices, so the same segment
    /// crashes at the same points every time.
    fn crashes(&self) -> ManagerCrashConfig {
        ManagerCrashConfig {
            at_commands: match self.crash_every {
                0 => Vec::new(),
                every => (1..=64).map(|k| k * every).collect(),
            },
            mttf: None,
            seed: 0,
        }
    }

    /// Every generator and configuration field, so any number can be
    /// regenerated from the provenance block alone.
    pub fn describe(&self) -> Value {
        let generator = match &self.generator {
            Generator::Facebook(cfg) => format!("FacebookGenerator {cfg:?}"),
            Generator::Synthetic(cfg) => format!("SyntheticGenerator {cfg:?}"),
            Generator::Bursts(cfg) => format!("SyntheticGenerator shapes re-stamped: {cfg:?}"),
        };
        Value::Map(vec![
            ("name".into(), Value::Str(self.name.into())),
            ("why".into(), Value::Str(self.why.into())),
            ("generator".into(), Value::Str(generator)),
            ("jobs_per_segment".into(), Value::UInt(self.jobs as u64)),
            (
                "segments_per_10s".into(),
                Value::UInt(self.segments_per_10s as u64),
            ),
            ("stack".into(), Value::Str(format!("{:?}", self.stack))),
            ("sim".into(), Value::Str(format!("{:?}", self.sim))),
            (
                "durability".into(),
                Value::Str(format!("{:?}", self.durability)),
            ),
            ("cluster".into(), Value::Str(format!("{:?}", self.cluster))),
            ("crash_every_commands".into(), Value::UInt(self.crash_every)),
            (
                "extra_slack_s".into(),
                Value::Float(self.extra_slack.as_secs_f64()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_seed_and_segment() {
        for w in table() {
            let w = w.smoke();
            let a = w.generate(7, 3);
            let b = w.generate(7, 3);
            assert_eq!(a.jobs, b.jobs, "{}: same seed, same jobs", w.name);
            assert_eq!(a.resources, b.resources);
            assert_eq!(a.sim.fault_seed, b.sim.fault_seed);
            let other_seed = w.generate(8, 3);
            let other_segment = w.generate(7, 4);
            assert_ne!(a.jobs, other_seed.jobs, "{}: seed changes jobs", w.name);
            assert_ne!(a.jobs, other_segment.jobs, "{}: segments differ", w.name);
        }
    }

    #[test]
    fn names_are_unique_and_every_budget_is_count_driven() {
        let t = table();
        for (i, w) in t.iter().enumerate() {
            assert!(t[..i].iter().all(|o| o.name != w.name));
            assert_eq!(w.sim.manager.budget.time_limit_ms, None);
            assert_eq!(w.sim.manager.budget.workers, 1);
            assert!(w.sim.manager.controller.is_none());
            assert!(w.why.len() <= 200, "{}: why fits BENCHMARK.json", w.name);
        }
    }
}

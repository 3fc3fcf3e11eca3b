//! Replaying one segment of a workload to drain through its stack.
//!
//! A segment's cost is split the way a user would meet it: *set-up*
//! (generate the jobs, build the store and the manager, and warm the
//! process with a throw-away replay of the first tenth of the jobs) and
//! the *measured replay* (one `simulate_with` call on a freshly built
//! stack). Arrivals are an open loop in simulated time — the generator
//! fixes every arrival stamp and the manager can never delay one — replayed
//! as fast as the program allows in wall time.

use crate::stack::{durable_rm, full_stack, Extras, Stack};
use crate::traced::{Span, SpanKind, Trace, Traced};
use crate::workloads::{Inputs, Stack as StackKind, Workload};
use cluster::{ClusterConfig, Federation};
use mrcp::manager::MrcpConfig;
use mrcp::{simulate_with, ManagerCrashConfig, MrcpRm, RunMetrics, SimConfig};
use service::InstrumentedRm;
use std::path::Path;
use std::time::Instant;
use telemetry::Telemetry;
use workload::{Job, Resource};

/// How a replay departs from the workload as defined (side stages only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Exactly the workload's stack.
    AsDefined,
    /// The same stack with `Telemetry::disabled()`.
    NoTelemetry,
    /// A plain (store-less) `Federation` of this many cells under the
    /// ingest decorator.
    PlainFederation(usize),
}

/// Per-replay switches.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// `Some(k)`: record spans and re-enact one round in `k`.
    pub trace: Option<u32>,
    /// Run the manager with `verify_schedules` on (every installed plan
    /// audited by the independent checker).
    pub audit: bool,
    /// Inject the workload's manager crashes.
    pub crashes: bool,
    /// Stack variant.
    pub variant: Variant,
}

impl Options {
    /// The end-to-end pass: timing only, crashes on, stack as defined.
    pub fn timing() -> Options {
        Options {
            trace: None,
            audit: false,
            crashes: true,
            variant: Variant::AsDefined,
        }
    }

    /// The traced pass: spans, every round re-enacted one in `every`, and
    /// every installed plan audited.
    pub fn traced(every: u32) -> Options {
        Options {
            trace: Some(every),
            audit: true,
            ..Options::timing()
        }
    }
}

/// What the telemetry layer held after a replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct TelemetryFacts {
    /// Registered instrument series.
    pub series: u64,
    /// Wall time of one Prometheus text encoding of the registry, µs.
    pub prom_us: f64,
    /// Events the bus dropped (must be 0).
    pub events_dropped: u64,
    /// `durability_wal_appends_total`.
    pub wal_appends: u64,
    /// `durability_snapshots_total`.
    pub snapshots: u64,
}

/// One replay's results.
#[derive(Debug)]
pub struct SegmentRun {
    /// Jobs in the segment.
    pub jobs: usize,
    /// Tasks across those jobs.
    pub tasks_total: usize,
    /// Wall seconds of `simulate_with`.
    pub wall_s: f64,
    /// The driver's metrics for the replay.
    pub run: RunMetrics,
    /// Wall time of every scheduling pass, ns.
    pub plan_ns: Vec<u64>,
    /// Wall time of every manager recovery, ns.
    pub recover_ns: Vec<u64>,
    /// The root span and the trace under it (traced mode only).
    pub trace: Option<(Span, Box<Trace>)>,
    /// Stack counters.
    pub extras: Extras,
    /// Telemetry facts when a live registry was attached.
    pub telemetry: Option<TelemetryFacts>,
}

/// The manager configuration `simulate_with` will hand to the builder:
/// active fault injection overrides the retry budget.
fn effective_manager(sim: &SimConfig) -> MrcpConfig {
    let mut cfg = sim.manager;
    if sim.faults.is_active() {
        cfg.retry_budget = sim.faults.retry_budget;
    }
    cfg
}

fn facts(tel: &Telemetry) -> TelemetryFacts {
    let snap = tel.registry.snapshot();
    let t0 = Instant::now();
    let text = telemetry::prometheus_text(&snap);
    let prom_us = t0.elapsed().as_secs_f64() * 1e6;
    std::hint::black_box(text.len());
    TelemetryFacts {
        series: snap.metrics.len() as u64,
        prom_us,
        events_dropped: tel.bus.dropped_events(),
        // Counts only: the append histogram's buckets are too coarse for a
        // p50, which the WAL stage measures directly.
        wal_appends: snap.counter_total("durability_wal_appends_total"),
        snapshots: snap.counter_total("durability_snapshots_total"),
    }
}

/// Replay `jobs` through an already-built stack and collect the results.
fn drive<M: Stack>(
    sim: &SimConfig,
    resources: &[Resource],
    jobs: Vec<Job>,
    trace: Option<u32>,
    stack: M,
) -> SegmentRun {
    let cfg = effective_manager(sim);
    let n_jobs = jobs.len();
    let tasks_total = jobs.iter().map(|j| j.tasks().count()).sum();
    let mut traced = match trace {
        Some(k) => Traced::with_trace(stack, cfg, resources.to_vec(), k),
        None => Traced::new(stack),
    };
    traced.start();
    let t0 = Instant::now();
    let (run, _outcomes, mut traced) = simulate_with(sim, resources, jobs, |built_for| {
        assert_eq!(built_for, cfg, "stack was built for the driver's config");
        traced
    });
    let wall = t0.elapsed();
    let mut extras = Extras::default();
    traced.inner().extras(&mut extras);
    let root = Span {
        kind: SpanKind::Root,
        start_ns: 0,
        end_ns: wall.as_nanos() as u64,
        pass: 0,
    };
    SegmentRun {
        jobs: n_jobs,
        tasks_total,
        wall_s: wall.as_secs_f64(),
        run,
        plan_ns: std::mem::take(&mut traced.plan_ns),
        recover_ns: std::mem::take(&mut traced.recover_ns),
        trace: traced.trace.take().map(|t| (root, t)),
        extras,
        telemetry: None,
    }
}

/// Build `w`'s stack (or the requested variant of it) under `dir` and
/// replay `jobs` through it.
pub fn replay(
    w: &Workload,
    inputs: &Inputs,
    jobs: Vec<Job>,
    dir: &Path,
    opt: &Options,
) -> SegmentRun {
    let mut sim = inputs.sim.clone();
    if !opt.crashes {
        sim.manager_crashes = ManagerCrashConfig::default();
    }
    // The end-to-end pass runs the release default (no audit).
    sim.manager.verify_schedules = opt.audit;
    let cfg = effective_manager(&sim);
    let res = &inputs.resources;
    let _ = std::fs::remove_dir_all(dir);
    // Live telemetry where the workload defines it, and on any durable
    // stack while tracing (the WAL and snapshot counts are read from it).
    let live = match (w.stack, opt.variant) {
        (_, Variant::NoTelemetry) | (StackKind::Plain, _) => false,
        (StackKind::Full, _) => true,
        (StackKind::Durable, _) => opt.trace.is_some(),
    };
    let tel = if live {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    let mut out = match (w.stack, opt.variant) {
        (StackKind::Plain, _) => drive(&sim, res, jobs, opt.trace, MrcpRm::new(cfg, res.to_vec())),
        (StackKind::Durable, _) => drive(
            &sim,
            res,
            jobs,
            opt.trace,
            durable_rm(w, cfg, res, dir, &tel),
        ),
        (StackKind::Full, Variant::PlainFederation(cells)) => {
            let cluster = ClusterConfig { cells, ..w.cluster };
            let mut fed = Federation::new(&cluster, cfg, res.to_vec());
            fed.set_telemetry(&tel);
            drive(&sim, res, jobs, opt.trace, InstrumentedRm::new(fed))
        }
        (StackKind::Full, _) => drive(
            &sim,
            res,
            jobs,
            opt.trace,
            full_stack(w, cfg, res, dir, &tel),
        ),
    };
    if live {
        out.telemetry = Some(facts(&tel));
    }
    let _ = std::fs::remove_dir_all(dir);
    out
}

/// One measured segment: set-up, then the measured replay.
#[derive(Debug)]
pub struct Measured {
    /// Job generation, seconds.
    pub gen_s: f64,
    /// Generation + warm-up replay + stack construction, seconds.
    pub setup_s: f64,
    /// The measured replay.
    pub run: SegmentRun,
    /// The generated inputs (kept for side stages).
    pub inputs: Inputs,
}

/// Set up and replay (untraced, as defined) segment `segment` of `w` under
/// `seed`.
pub fn measure(w: &Workload, seed: u64, segment: u64, dir: &Path) -> Measured {
    let t0 = Instant::now();
    let inputs = w.generate(seed, segment);
    let gen_s = t0.elapsed().as_secs_f64();
    // Warm-up: the first tenth of the jobs through a throw-away stack,
    // store and all, so allocator, page cache and branch predictors are
    // in the state a long-running manager would have them.
    let warm: Vec<Job> = inputs.jobs[..inputs.jobs.len().div_ceil(10)].to_vec();
    let warm_run = replay(w, &inputs, warm, &dir.join("warm"), &Options::timing());
    std::hint::black_box(warm_run.run.completed);
    let pre_s = t0.elapsed().as_secs_f64();
    // Stack construction (and tear-down) happens inside `replay`, outside
    // the clock that times `simulate_with`; charge it to set-up.
    let jobs = inputs.jobs.clone();
    let t1 = Instant::now();
    let run = replay(w, &inputs, jobs, &dir.join("run"), &Options::timing());
    let around_s = (t1.elapsed().as_secs_f64() - run.wall_s).max(0.0);
    Measured {
        gen_s,
        setup_s: pre_s + around_s,
        run,
        inputs,
    }
}

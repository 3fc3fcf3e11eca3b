//! [`Traced`]: the benchmark's `ResourceManager` decorator.
//!
//! It always times *scheduling passes* as a caller sees them — entry of
//! `submit_with_admission`/`submit_batch` to the return of the `reschedule`
//! that follows, or the `reschedule` alone when a completion, failure or
//! outage triggered it — and every `crash_and_recover`. That is two
//! `Instant::now()` calls per pass, cheap enough to stay on for the
//! end-to-end numbers.
//!
//! With [`Traced::with_trace`] it additionally records a span per trait
//! call, captures the command stream as `durability::ManagerEvent`s, times
//! `MrcpRm::probe_admission` per arrival, and re-enacts sampled rounds
//! outside the manager (see [`crate::replay`]). All of that extra work sits
//! in its own `bench.*` spans so it can be subtracted from the traced wall
//! time before the tracing overhead is computed.

use crate::replay::{replay_round, RoundReplay};
use crate::stack::Stack;
use desim::SimTime;
use durability::ManagerEvent;
use mrcp::manager::{
    AdmissionOutcome, FailureAction, JobCompletion, ManagerError, ManagerImage, ManagerStats,
    MrcpConfig, ScheduleEntry,
};
use mrcp::ResourceManager;
use std::time::Instant;
use workload::{Job, Resource, ResourceId, TaskId};

/// What a span covers. `Rm*` are calls into the manager surface; `Bench*`
/// are the benchmark's own work during a traced replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// The whole `simulate_with` call.
    Root,
    /// `submit_with_admission` or `submit_batch`.
    RmSubmit,
    /// `reschedule`.
    RmReschedule,
    /// `activate_due`.
    RmActivateDue,
    /// `task_started`, `task_completed`, `task_duration_revised`.
    RmTaskEvent,
    /// `task_failed`, `resource_down`, `resource_up`.
    RmFaultEvent,
    /// `crash_and_recover`.
    RmCrashRecover,
    /// Benchmark side: command capture, probe timing, round image.
    BenchCapture,
    /// Benchmark side: re-enacting a round through public functions.
    BenchReplay,
}

impl SpanKind {
    /// Name written to `e2e_trace.json`; for `rm.*` kinds also the prefix
    /// of their per-layer metrics.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Root => "driver.simulate_with",
            SpanKind::RmSubmit => "rm.submit",
            SpanKind::RmReschedule => "rm.reschedule",
            SpanKind::RmActivateDue => "rm.activate_due",
            SpanKind::RmTaskEvent => "rm.task_event",
            SpanKind::RmFaultEvent => "rm.fault_event",
            SpanKind::RmCrashRecover => "rm.crash_recover",
            SpanKind::BenchCapture => "bench.capture",
            SpanKind::BenchReplay => "bench.replay",
        }
    }

    /// Whether the span is the benchmark's own work rather than the
    /// program's.
    pub fn is_bench(self) -> bool {
        matches!(self, SpanKind::BenchCapture | SpanKind::BenchReplay)
    }
}

/// One recorded interval, nanoseconds since the trace origin. Every span's
/// parent is the root (the driver makes each call itself); spans of one
/// scheduling pass share `pass`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the interval covers.
    pub kind: SpanKind,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Scheduling passes completed before this span began.
    pub pass: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Time inside `root` not covered by any of `children` (overlaps between
/// children are counted once): a layer's self time.
pub fn self_time_ns(root: &Span, children: &[Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|s| (s.start_ns.max(root.start_ns), s.end_ns.min(root.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((s, e)) if a <= e => cur = Some((s, e.max(b))),
            Some((s, e)) => {
                covered += e - s;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((s, e)) = cur {
        covered += e - s;
    }
    root.dur_ns() - covered
}

/// Everything the traced mode accumulates.
#[derive(Debug)]
pub struct Trace {
    /// Child spans of the root, in call order.
    pub spans: Vec<Span>,
    /// The captured command stream.
    pub events: Vec<ManagerEvent>,
    /// Wall time of each `MrcpRm::probe_admission` call, ns.
    pub probe_ns: Vec<u64>,
    /// Re-enacted rounds.
    pub rounds: Vec<RoundReplay>,
    /// Re-enact one round in `replay_every` (1 = every round).
    pub replay_every: u32,
    /// Rounds seen (re-enacted or not).
    pub rounds_seen: u32,
    /// Re-enacted rounds whose node count equalled the real round's — the
    /// check that the re-enactment follows the manager's own path.
    pub node_matches: u32,
    /// State-mutating commands since the previous recovery (or the start)
    /// at each recovery.
    pub crash_backlog: Vec<u64>,
    /// `events.len()` at the previous recovery.
    recovered_at: usize,
    /// The largest state photographed before a round (by model size), for
    /// the snapshot stage.
    pub sample_image: Option<(usize, ManagerImage)>,
    cfg: MrcpConfig,
    resources: Vec<Resource>,
    pass: u32,
}

/// The decorator. See the module docs.
#[derive(Debug)]
pub struct Traced<M> {
    inner: M,
    origin: Instant,
    pending: Option<Instant>,
    /// Wall time of every scheduling pass, ns.
    pub plan_ns: Vec<u64>,
    /// Wall time of every `crash_and_recover` that recovered, ns.
    pub recover_ns: Vec<u64>,
    /// Present in traced mode only.
    pub trace: Option<Box<Trace>>,
}

impl<M: Stack> Traced<M> {
    /// Timing-only decorator (the end-to-end pass).
    pub fn new(inner: M) -> Self {
        Traced {
            inner,
            origin: Instant::now(),
            pending: None,
            plan_ns: Vec::new(),
            recover_ns: Vec::new(),
            trace: None,
        }
    }

    /// Full tracing. `cfg` and `resources` are what the wrapped stack's
    /// `MrcpRm` was built with; the round re-enactment needs them.
    pub fn with_trace(
        inner: M,
        cfg: MrcpConfig,
        resources: Vec<Resource>,
        replay_every: u32,
    ) -> Self {
        let mut t = Traced::new(inner);
        t.trace = Some(Box::new(Trace {
            spans: Vec::new(),
            events: Vec::new(),
            probe_ns: Vec::new(),
            rounds: Vec::new(),
            replay_every: replay_every.max(1),
            rounds_seen: 0,
            node_matches: 0,
            crash_backlog: Vec::new(),
            recovered_at: 0,
            sample_image: None,
            cfg,
            resources,
            pass: 0,
        }));
        t
    }

    /// The wrapped stack.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Restart the span clock; call immediately before `simulate_with`.
    pub fn start(&mut self) {
        self.origin = Instant::now();
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run one manager call, recording a span in traced mode.
    fn call<R>(&mut self, kind: SpanKind, f: impl FnOnce(&mut M) -> R) -> R {
        if self.trace.is_none() {
            return f(&mut self.inner);
        }
        let start_ns = self.now_ns();
        let r = f(&mut self.inner);
        let end_ns = self.now_ns();
        let tr = self.trace.as_mut().expect("checked above");
        tr.spans.push(Span {
            kind,
            start_ns,
            end_ns,
            pass: tr.pass,
        });
        r
    }

    /// Run benchmark-side work inside its own span (traced mode only).
    fn bench<R>(&mut self, kind: SpanKind, f: impl FnOnce(&M, &mut Trace) -> R) -> Option<R> {
        let start_ns = self.now_ns();
        let origin = self.origin;
        let tr = self.trace.as_mut()?;
        let r = f(&self.inner, tr);
        let end_ns = origin.elapsed().as_nanos() as u64;
        tr.spans.push(Span {
            kind,
            start_ns,
            end_ns,
            pass: tr.pass,
        });
        Some(r)
    }

    fn capture_submit(&mut self, jobs: &[Job], now: SimTime, batch: bool) {
        self.bench(SpanKind::BenchCapture, |inner, tr| {
            for job in jobs {
                let t0 = Instant::now();
                let verdict = inner.mrcp().probe_admission(job, now);
                tr.probe_ns.push(t0.elapsed().as_nanos() as u64);
                std::hint::black_box(verdict.is_ok());
            }
            tr.events.push(if batch {
                ManagerEvent::SubmitBatch {
                    jobs: jobs.to_vec(),
                    now,
                }
            } else {
                ManagerEvent::SubmitWithAdmission {
                    job: jobs[0].clone(),
                    now,
                }
            });
        });
    }

    /// Forward a command that is not part of a scheduling pass: it ends
    /// any pass a submit had opened, is captured, and gets a span.
    fn command<R>(&mut self, kind: SpanKind, ev: ManagerEvent, f: impl FnOnce(&mut M) -> R) -> R {
        self.pending = None;
        if let Some(tr) = self.trace.as_mut() {
            tr.events.push(ev);
        }
        self.call(kind, f)
    }
}

impl<M: Stack> ResourceManager for Traced<M> {
    fn submit_with_admission(
        &mut self,
        job: Job,
        now: SimTime,
    ) -> Result<AdmissionOutcome, ManagerError> {
        self.capture_submit(std::slice::from_ref(&job), now, false);
        self.pending = Some(Instant::now());
        self.call(SpanKind::RmSubmit, |m| m.submit_with_admission(job, now))
    }

    fn submit_batch(
        &mut self,
        jobs: Vec<Job>,
        now: SimTime,
    ) -> Vec<Result<AdmissionOutcome, ManagerError>> {
        self.capture_submit(&jobs, now, true);
        self.pending = Some(Instant::now());
        self.call(SpanKind::RmSubmit, |m| m.submit_batch(jobs, now))
    }

    fn activate_due(&mut self, now: SimTime) -> usize {
        self.command(
            SpanKind::RmActivateDue,
            ManagerEvent::ActivateDue { now },
            |m| m.activate_due(now),
        )
    }

    fn reschedule(&mut self, now: SimTime) -> Vec<ScheduleEntry> {
        // Traced mode: photograph the state the round is about to see.
        let before = self
            .bench(SpanKind::BenchCapture, |inner, tr| {
                tr.events.push(ManagerEvent::Reschedule { now });
                tr.rounds_seen += 1;
                ((tr.rounds_seen - 1) % tr.replay_every == 0)
                    .then(|| (inner.mrcp().image(), inner.stats().total_nodes))
            })
            .flatten();
        let t0 = self.pending.take().unwrap_or_else(Instant::now);
        let plan = self.call(SpanKind::RmReschedule, |m| m.reschedule(now));
        self.plan_ns.push(t0.elapsed().as_nanos() as u64);
        if let Some((image, nodes_before)) = before {
            self.bench(SpanKind::BenchReplay, |inner, tr| {
                let real_nodes = inner.stats().total_nodes - nodes_before;
                if let Some(r) = replay_round(&tr.cfg, &tr.resources, &image, now) {
                    if r.stats.nodes == real_nodes {
                        tr.node_matches += 1;
                    }
                    if tr.sample_image.as_ref().is_none_or(|(n, _)| r.tasks > *n) {
                        tr.sample_image = Some((r.tasks, image));
                    }
                    tr.rounds.push(r);
                }
            });
        }
        if let Some(tr) = self.trace.as_mut() {
            tr.pass += 1;
        }
        plan
    }

    fn task_started(&mut self, task: TaskId, now: SimTime) -> Result<ResourceId, ManagerError> {
        self.command(
            SpanKind::RmTaskEvent,
            ManagerEvent::TaskStarted { task, now },
            |m| m.task_started(task, now),
        )
    }

    fn task_completed(
        &mut self,
        task: TaskId,
        now: SimTime,
    ) -> Result<Option<JobCompletion>, ManagerError> {
        self.command(
            SpanKind::RmTaskEvent,
            ManagerEvent::TaskCompleted { task, now },
            |m| m.task_completed(task, now),
        )
    }

    fn task_duration_revised(
        &mut self,
        task: TaskId,
        new_exec: SimTime,
    ) -> Result<(), ManagerError> {
        self.command(
            SpanKind::RmTaskEvent,
            ManagerEvent::TaskDurationRevised { task, new_exec },
            |m| m.task_duration_revised(task, new_exec),
        )
    }

    fn task_failed(&mut self, task: TaskId, now: SimTime) -> Result<FailureAction, ManagerError> {
        self.command(
            SpanKind::RmFaultEvent,
            ManagerEvent::TaskFailed { task, now },
            |m| m.task_failed(task, now),
        )
    }

    fn resource_down(
        &mut self,
        rid: ResourceId,
        now: SimTime,
    ) -> Result<Vec<TaskId>, ManagerError> {
        self.command(
            SpanKind::RmFaultEvent,
            ManagerEvent::ResourceDown { resource: rid, now },
            |m| m.resource_down(rid, now),
        )
    }

    fn resource_up(&mut self, rid: ResourceId, now: SimTime) -> Result<(), ManagerError> {
        self.command(
            SpanKind::RmFaultEvent,
            ManagerEvent::ResourceUp { resource: rid, now },
            |m| m.resource_up(rid, now),
        )
    }

    fn jobs_in_system(&self) -> usize {
        self.inner.jobs_in_system()
    }

    fn stats(&self) -> ManagerStats {
        self.inner.stats()
    }

    fn crash_and_recover(&mut self, now: SimTime) -> bool {
        let t0 = Instant::now();
        let recovered = self.call(SpanKind::RmCrashRecover, |m| m.crash_and_recover(now));
        let dt = t0.elapsed();
        if recovered {
            self.recover_ns.push(dt.as_nanos() as u64);
            if let Some(tr) = self.trace.as_mut() {
                tr.crash_backlog
                    .push((tr.events.len() - tr.recovered_at) as u64);
                tr.recovered_at = tr.events.len();
            }
        }
        // A crash between a submit and its reschedule is not part of the
        // pass: recovery is reported on its own.
        if let Some(p) = self.pending.as_mut() {
            *p += dt;
        }
        recovered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use mrcp::{simulate_with, MrcpRm};

    /// `Traced` forwards every `ResourceManager` method: a run through the
    /// decorator, in either mode, has the signature of a run without it.
    /// `churn_recover`'s inputs exercise every method but crash recovery
    /// (submit, activate, reschedule, the three task events, failures and
    /// both resource events); `fed_stack`'s add `submit_batch`.
    #[test]
    fn a_wrapped_run_has_the_signature_of_an_unwrapped_one() {
        for name in ["churn_recover", "fed_stack"] {
            let w = workloads::by_name(name).expect("in the table").smoke();
            let inputs = w.generate(3, 0);
            let res = &inputs.resources;
            let bare = simulate_with(&inputs.sim, res, inputs.jobs.clone(), |cfg| {
                MrcpRm::new(cfg, res.to_vec())
            });
            let timed = simulate_with(&inputs.sim, res, inputs.jobs.clone(), |cfg| {
                Traced::new(MrcpRm::new(cfg, res.to_vec()))
            });
            let traced = simulate_with(&inputs.sim, res, inputs.jobs.clone(), |cfg| {
                Traced::with_trace(MrcpRm::new(cfg, res.to_vec()), cfg, res.to_vec(), 1)
            });
            let want = bare.0.deterministic_signature();
            assert_eq!(
                timed.0.deterministic_signature(),
                want,
                "{name}: timing mode"
            );
            assert_eq!(
                traced.0.deterministic_signature(),
                want,
                "{name}: trace mode"
            );
            assert_eq!(bare.1, timed.1, "{name}: same job outcomes");
            assert_eq!(bare.1, traced.1, "{name}: same job outcomes");
            // A pass per `reschedule` call (a call with nothing to plan is
            // not a round), and every command captured.
            assert!(timed.2.plan_ns.len() as u64 >= want.invocations);
            let trace = traced.2.trace.expect("trace mode keeps a trace");
            assert!(
                trace.rounds.iter().all(|r| r.ok),
                "{name}: re-enacted plans verify"
            );
            assert_eq!(
                trace.node_matches as usize,
                trace.rounds.len(),
                "{name}: same nodes"
            );
            // (`crash_and_recover` is timed but is not a logged command.)
            let calls = trace
                .spans
                .iter()
                .filter(|s| !s.kind.is_bench() && s.kind != SpanKind::RmCrashRecover)
                .count();
            assert_eq!(calls, trace.events.len(), "{name}: one event per call");
            if name == "churn_recover" {
                for kind in [
                    SpanKind::RmSubmit,
                    SpanKind::RmReschedule,
                    SpanKind::RmTaskEvent,
                    SpanKind::RmFaultEvent,
                ] {
                    assert!(trace.spans.iter().any(|s| s.kind == kind), "{kind:?} seen");
                }
            }
        }
    }

    fn span(kind: SpanKind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            start_ns,
            end_ns,
            pass: 0,
        }
    }

    #[test]
    fn self_time_is_root_minus_the_union_of_children() {
        let root = span(SpanKind::Root, 100, 1_100);
        // Disjoint children: 200 + 300 covered.
        let kids = [
            span(SpanKind::RmSubmit, 200, 400),
            span(SpanKind::RmReschedule, 500, 800),
        ];
        assert_eq!(self_time_ns(&root, &kids), 500);
        // An overlap is counted once, and a child is clipped to the root.
        let kids = [
            span(SpanKind::RmSubmit, 200, 600),
            span(SpanKind::RmReschedule, 500, 800),
            span(SpanKind::RmTaskEvent, 1_000, 1_500),
        ];
        assert_eq!(self_time_ns(&root, &kids), 1_000 - 600 - 100);
        assert_eq!(self_time_ns(&root, &[]), 1_000);
        // Children plus self always add up to the root when none overlap.
        let kids = [
            span(SpanKind::RmSubmit, 100, 350),
            span(SpanKind::RmReschedule, 350, 1_100),
        ];
        let sum: u64 = kids.iter().map(Span::dur_ns).sum();
        assert_eq!(sum + self_time_ns(&root, &kids), root.dur_ns());
    }
}

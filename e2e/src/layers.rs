//! The traced pass: per-layer metrics for one workload.
//!
//! Each traced segment is replayed twice on identical inputs — once
//! untraced (the reference wall time, and the signature the traced replay
//! must reproduce) and once under [`crate::traced::Traced`] in trace mode
//! with `verify_schedules` on. Counters and span durations accumulate over
//! the traced segments; the side stages of [`crate::stages`] then run on
//! what segment 0 captured. This is the outside-in half of the layer
//! budget: spans are recorded here, around calls into each layer's public
//! functions, not inside the program.

use crate::calib;
use crate::metrics::Report;
use crate::replay::RoundReplay;
use crate::runner::{check_segment, failed_jobs};
use crate::segment::{measure, replay, Options, SegmentRun};
use crate::stages;
use crate::stats::{median, quantile_ns};
use crate::traced::{self_time_ns, Span, SpanKind, Trace};
use crate::workloads::{Stack as StackKind, Workload};
use cpsolve::PROP_CLASSES;
use desim::stats::LogHistogram;
use serde_json::Value;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Sums over the traced segments.
#[derive(Default)]
struct Acc {
    /// Span durations by kind, ns.
    by_kind: HashMap<SpanKind, Vec<u64>>,
    traced_wall_ns: u64,
    self_ns: u64,
    children_ns: u64,
    sim_span_s: f64,
    rounds: Vec<RoundReplay>,
    node_matches: u64,
    replay_every: u32,
    /// Reschedule-span time of rounds that were re-enacted, ns.
    replayed_real_ns: u64,
    probe_ns: Vec<u64>,
    recover_ns: Vec<u64>,
    gen_s: f64,
    tasks_total: u64,
    arrived: u64,
    completed: u64,
    rejected: u64,
    invocations: u64,
    warm_rounds: u64,
    cache_invalidations: u64,
    degraded_rounds: u64,
    failed_rounds: u64,
    solve_s: f64,
    replayed_events: u64,
    recovery_s: f64,
    wal_appends: u64,
    snapshots: u64,
    series: u64,
    prom_us: Vec<f64>,
    events_dropped: u64,
    cluster_rounds: u64,
    cluster_round_us: Vec<u64>,
    batches: u64,
    batch_jobs: u64,
    ingest_to_planned_us: LogHistogram,
}

impl Acc {
    fn kind(&self, kind: SpanKind) -> &[u64] {
        self.by_kind.get(&kind).map_or(&[], Vec::as_slice)
    }

    /// Fold in one traced replay. The trace's re-enacted rounds move into
    /// the accumulator; the rest of it is left for the side stages.
    fn add(
        &mut self,
        traced: &SegmentRun,
        root: &Span,
        trace: &mut Trace,
        gen_s: f64,
        snapshot_every: u64,
    ) {
        self.traced_wall_ns += root.dur_ns();
        self.self_ns += self_time_ns(root, &trace.spans);
        self.children_ns += trace.spans.iter().map(Span::dur_ns).sum::<u64>();
        for s in &trace.spans {
            self.by_kind.entry(s.kind).or_default().push(s.dur_ns());
        }
        // A round was re-enacted when its replay span follows its
        // reschedule span directly.
        for pair in trace.spans.windows(2) {
            if pair[0].kind == SpanKind::RmReschedule && pair[1].kind == SpanKind::BenchReplay {
                self.replayed_real_ns += pair[0].dur_ns();
            }
        }
        self.sim_span_s += traced.run.end_time_s;
        self.node_matches += u64::from(trace.node_matches);
        self.replay_every = trace.replay_every;
        self.rounds.append(&mut trace.rounds);
        self.probe_ns.extend(&trace.probe_ns);
        self.recover_ns.extend(&traced.recover_ns);
        self.gen_s += gen_s;
        self.tasks_total += traced.tasks_total as u64;
        let r = &traced.run;
        self.arrived += r.arrived as u64;
        self.completed += r.completed as u64;
        self.rejected += r.jobs_rejected;
        self.invocations += r.invocations;
        self.warm_rounds += r.warm_rounds;
        self.cache_invalidations += r.cache_invalidations;
        self.degraded_rounds += r.degraded_rounds;
        self.failed_rounds += r.failed_rounds;
        self.solve_s += r.o_per_job_s * r.completed as f64;
        // Commands re-executed by recoveries: what had accumulated since
        // the last snapshot when each crash hit (`DurableRm::replayed`
        // counts every journaled command instead, snapshot-covered or not).
        self.replayed_events += trace
            .crash_backlog
            .iter()
            .map(|b| b % snapshot_every.max(1))
            .sum::<u64>();
        self.recovery_s += traced.extras.recovery_s;
        if let Some(t) = &traced.telemetry {
            self.wal_appends += t.wal_appends;
            self.snapshots += t.snapshots;
            self.series = self.series.max(t.series);
            self.prom_us.push(t.prom_us);
            self.events_dropped += t.events_dropped;
        }
        if let Some(c) = &traced.extras.cluster {
            self.cluster_rounds += c.rounds;
            self.cluster_round_us.extend(&c.round_latencies_us);
        }
        if let Some(i) = &traced.extras.ingest {
            self.batches += i.batches;
            self.batch_jobs += i.submitted;
            self.ingest_to_planned_us.absorb(&i.ingest_to_planned_us);
        }
    }

    fn finish(&self, report: &mut Report) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let sum = |v: &[u64]| v.iter().sum::<u64>();
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

        // Driver and the trace itself. The program's share of the traced
        // wall time is the root minus the benchmark's own spans.
        let bench_ns =
            sum(self.kind(SpanKind::BenchCapture)) + sum(self.kind(SpanKind::BenchReplay));
        let program_ns = self.traced_wall_ns - bench_ns;
        report.set("driver.wall_ms", ms(program_ns));
        report.set("driver.self_ms", ms(self.self_ns));
        report.set("driver.sim_span_s", self.sim_span_s);
        report.set(
            "trace.coverage_frac",
            ratio(
                (self.children_ns + self.self_ns) as f64,
                self.traced_wall_ns as f64,
            ),
        );
        report.set("replay.sample_k", f64::from(self.replay_every));
        report.set(
            "replay.node_match_frac",
            ratio(self.node_matches as f64, self.rounds.len() as f64),
        );

        // Manager surface.
        // `SpanKind::name()` is the metric prefix: "rm.submit", ...
        for kind in [
            SpanKind::RmSubmit,
            SpanKind::RmReschedule,
            SpanKind::RmTaskEvent,
            SpanKind::RmFaultEvent,
        ] {
            let (d, name) = (self.kind(kind), kind.name());
            report.set(&format!("{name}.calls"), d.len() as f64);
            report.set(&format!("{name}.busy_ms"), ms(sum(d)));
            report.set(&format!("{name}.us_p50"), quantile_ns(d, 0.5, 1e3));
        }
        report.set(
            "rm.submit.us_p99",
            quantile_ns(self.kind(SpanKind::RmSubmit), 0.99, 1e3),
        );
        report.set(
            "rm.reschedule.us_p99",
            quantile_ns(self.kind(SpanKind::RmReschedule), 0.99, 1e3),
        );
        report.set(
            "rm.activate_due.busy_ms",
            ms(sum(self.kind(SpanKind::RmActivateDue))),
        );
        report.set("rm.crash_recover.calls", self.recover_ns.len() as f64);
        report.set(
            "rm.crash_recover.busy_ms",
            ms(sum(self.kind(SpanKind::RmCrashRecover))),
        );
        report.set(
            "rm.crash_recover.ms_p50",
            quantile_ns(&self.recover_ns, 0.5, 1e6),
        );
        report.set(
            "rm.o_ms_per_job",
            ratio(self.solve_s * 1e3, self.completed as f64),
        );
        let rm_busy_ns: u64 = self
            .by_kind
            .iter()
            .filter(|(k, _)| !k.is_bench())
            .map(|(_, v)| sum(v))
            .sum();
        report.set("rm.util", ratio(rm_busy_ns as f64 / 1e9, self.sim_span_s));

        // mrcp and cpsolve, from the re-enacted rounds.
        let n = self.rounds.len() as f64;
        let total = |f: fn(&RoundReplay) -> u64| self.rounds.iter().map(f).sum::<u64>();
        let mirror_ns = total(|r| r.mirror_ns);
        // Sums over re-enacted rounds are scaled up to all rounds when only
        // one in `k` was re-enacted; ratios need no scaling.
        let k = f64::from(self.replay_every);
        let inv = self.invocations as f64;
        report.set(
            "mrcp.manager.self_ms",
            // Scaled up from the sampled rounds to all of them.
            ms(self.replayed_real_ns.saturating_sub(mirror_ns)) * k,
        );
        report.set(
            "mrcp.manager.warm_frac",
            ratio(self.warm_rounds as f64, inv),
        );
        report.set(
            "mrcp.manager.cache_invalidations",
            self.cache_invalidations as f64,
        );
        report.set(
            "mrcp.manager.degraded_frac",
            ratio(self.degraded_rounds as f64, inv),
        );
        report.set("mrcp.manager.failed_rounds", self.failed_rounds as f64);
        let mut sizes: Vec<u64> = self.rounds.iter().map(|r| r.tasks as u64).collect();
        sizes.sort_unstable();
        report.set(
            "mrcp.manager.tasks_in_model_p50",
            quantile_ns(&sizes, 0.5, 1.0),
        );
        report.set(
            "mrcp.manager.tasks_in_model_max",
            sizes.last().copied().unwrap_or(0) as f64,
        );
        let tasks = total(|r| r.tasks as u64) as f64;
        report.set(
            "mrcp.manager.pinned_frac",
            ratio(total(|r| r.pinned as u64) as f64, tasks),
        );
        report.set("mrcp.admission.probe_calls", self.probe_ns.len() as f64);
        report.set(
            "mrcp.admission.probe_us_p50",
            quantile_ns(&self.probe_ns, 0.5, 1e3),
        );
        report.set(
            "mrcp.admission.reject_frac",
            ratio(self.rejected as f64, self.arrived as f64),
        );
        let build_ns = total(|r| r.build_ns);
        report.set("mrcp.modelmap.build_ms", ms(build_ns) * k);
        report.set(
            "mrcp.modelmap.build_us_per_task",
            ratio(build_ns as f64 / 1e3, tasks),
        );
        report.set("mrcp.split.matchmake_ms", ms(total(|r| r.matchmake_ns)) * k);

        report.set("cpsolve.greedy.ms", ms(total(|r| r.greedy_ns)) * k);
        let solve_ns = total(|r| r.solve_ns);
        let nodes = total(|r| r.stats.nodes);
        report.set("cpsolve.solve.ms", ms(solve_ns) * k);
        report.set("cpsolve.solve.nodes", nodes as f64 * k);
        report.set("cpsolve.solve.fails", total(|r| r.stats.fails) as f64 * k);
        report.set(
            "cpsolve.solve.us_per_node",
            ratio(solve_ns as f64 / 1e3, nodes as f64),
        );
        report.set(
            "cpsolve.solve.optimal_frac",
            ratio(
                self.rounds
                    .iter()
                    .filter(|r| r.status == cpsolve::Status::Optimal)
                    .count() as f64,
                n,
            ),
        );
        report.set(
            "cpsolve.solve.improved_frac",
            ratio(
                self.rounds.iter().filter(|r| r.stats.solutions > 0).count() as f64,
                n,
            ),
        );
        let lns_iters = total(|r| r.stats.lns_iters);
        report.set("cpsolve.lns.iters", lns_iters as f64 * k);
        report.set(
            "cpsolve.lns.improve_frac",
            ratio(total(|r| r.stats.lns_improves) as f64, lns_iters as f64),
        );
        report.set("cpsolve.verify.ms", ms(total(|r| r.verify_ns)) * k);
        for class in PROP_CLASSES {
            let of = |f: fn(&cpsolve::PropClassStats) -> u64| {
                self.rounds
                    .iter()
                    .map(|r| f(&r.stats.by_class[class.idx()]))
                    .sum::<u64>() as f64
            };
            let (ms, name) = (of(|c| c.time_us) / 1e3, class.name());
            report.set(&format!("cpsolve.props.{name}.ms"), ms * k);
            report.set(&format!("cpsolve.props.{name}.runs"), of(|c| c.runs) * k);
            report.set(
                &format!("cpsolve.props.{name}.prunings_per_ms"),
                ratio(of(|c| c.prunings), ms),
            );
        }

        // Durable counts from the real run.
        report.set("durability.wal.appends", self.wal_appends as f64);
        report.set("durability.snapshot.count", self.snapshots as f64);
        report.set(
            "durability.recover.replayed_events",
            self.replayed_events as f64,
        );
        report.set(
            "durability.recover.us_per_event",
            ratio(self.recovery_s * 1e6, self.replayed_events as f64),
        );

        // Federation, ingest, telemetry.
        report.set("cluster.rounds", self.cluster_rounds as f64);
        report.set(
            "cluster.round_us_p50",
            quantile_ns(&self.cluster_round_us, 0.5, 1.0),
        );
        report.set(
            "cluster.round_us_p99",
            quantile_ns(&self.cluster_round_us, 0.99, 1.0),
        );
        report.set("service.batches", self.batches as f64);
        report.set(
            "service.batch_jobs_mean",
            ratio(self.batch_jobs as f64, self.batches as f64),
        );
        let planned = |q: f64| {
            self.ingest_to_planned_us
                .quantile(q)
                .map_or(0.0, |us| us as f64 / 1e3)
        };
        report.set("service.ingest_to_planned_sim_ms_p50", planned(0.5));
        report.set("service.ingest_to_planned_sim_ms_p99", planned(0.99));
        report.set("telemetry.series", self.series as f64);
        report.set("telemetry.encode.prom_us", median(&self.prom_us));
        report.set("telemetry.events_dropped", self.events_dropped as f64);

        report.set("workload.gen_ms", self.gen_s * 1e3);
        report.set("workload.tasks_total", self.tasks_total as f64);
    }
}

/// Write the spans of one traced segment as `e2e_trace.json` under `dir`:
/// a name table and one `[name, start_us, dur_us, pass]` row per span, all
/// children of the root row.
fn write_trace(dir: &Path, workload: &str, seed: u64, root: &Span, spans: &[Span]) {
    let names: Vec<SpanKind> = {
        let mut seen = vec![SpanKind::Root];
        for s in spans {
            if !seen.contains(&s.kind) {
                seen.push(s.kind);
            }
        }
        seen
    };
    let row = |s: &Span| {
        let name = names.iter().position(|k| *k == s.kind).unwrap_or(0);
        Value::Seq(vec![
            Value::UInt(name as u64),
            Value::Float(s.start_ns as f64 / 1e3),
            Value::Float(s.dur_ns() as f64 / 1e3),
            Value::UInt(u64::from(s.pass)),
        ])
    };
    let doc = Value::Map(vec![
        ("schema".into(), Value::Str("e2e_trace/v1".into())),
        ("workload".into(), Value::Str(workload.into())),
        ("seed".into(), Value::UInt(seed)),
        ("segment".into(), Value::UInt(0)),
        (
            "columns".into(),
            Value::Seq(
                ["name", "start_us", "dur_us", "pass"]
                    .iter()
                    .map(|c| Value::Str((*c).into()))
                    .collect(),
            ),
        ),
        (
            "names".into(),
            Value::Seq(names.iter().map(|k| Value::Str(k.name().into())).collect()),
        ),
        ("root".into(), row(root)),
        ("spans".into(), Value::Seq(spans.iter().map(row).collect())),
    ]);
    let path = dir.join("e2e_trace.json");
    match serde_json::to_string(&doc).map(|json| std::fs::write(&path, json + "\n")) {
        Ok(Ok(())) => eprintln!("  trace of segment 0 written to {}", path.display()),
        _ => eprintln!("  could not write {}", path.display()),
    }
}

/// Tracing overhead: the program's share of a span-recording replay (root
/// minus the benchmark's own spans; re-enactment and plan audit off, their
/// cost is reported on its own) over an untraced replay of the same jobs.
/// One pair of full segments would measure the host's drift instead, so
/// the two are interleaved five times on a quarter of segment 0, each wall
/// time corrected for host speed, and the medians compared.
fn trace_overhead(w: &Workload, inputs: &crate::workloads::Inputs, dir: &Path) -> f64 {
    let jobs = &inputs.jobs[..inputs.jobs.len().div_ceil(4)];
    let dir = dir.join("overhead");
    let spans_only = Options {
        audit: false,
        ..Options::traced(u32::MAX)
    };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (run, c) = calib::around(|| replay(w, inputs, jobs.to_vec(), &dir, &Options::timing()));
        plain.push(run.wall_s * c);
        let (run, c) = calib::around(|| replay(w, inputs, jobs.to_vec(), &dir, &spans_only));
        let (root, trace) = run.trace.as_ref().expect("traced replay carries a trace");
        let bench: u64 = trace
            .spans
            .iter()
            .filter(|s| s.kind.is_bench())
            .map(Span::dur_ns)
            .sum();
        traced.push((root.dur_ns() - bench) as f64 / 1e9 * c);
    }
    median(&traced) / median(&plain) - 1.0
}

/// Run the traced pass of `w` and fill `report` with every per-layer
/// metric. `trace_dir` receives `e2e_trace.json`.
pub fn traced_pass(
    w: &Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
    dir: &Path,
    trace_dir: &Path,
    report: &mut Report,
) {
    let started = Instant::now();
    let mut acc = Acc::default();
    let mut first = None;
    let mut k = 0u64;
    loop {
        // Untraced reference on the same inputs, then the traced replay.
        let reference = measure(w, seed, k, dir);
        // Re-enacting a round costs about as much as the round; thin the
        // sample if a full re-enactment would not fit the pass's share of
        // the time cap.
        let every = ((3.0 * reference.run.wall_s) / (seconds / 3.0))
            .ceil()
            .max(1.0) as u32;
        let mut traced = replay(
            w,
            &reference.inputs,
            reference.inputs.jobs.clone(),
            &dir.join("traced"),
            &Options::traced(every),
        );
        let label = format!("traced segment {k}");
        check_segment(&label, &traced, &mut report.errors);
        report.attempted += traced.run.arrived as u64;
        report.failed += failed_jobs(&traced);
        if traced.run.deterministic_signature() != reference.run.run.deterministic_signature() {
            report.errors.push(format!(
                "{label}: traced replay diverged from the untraced one: {:?} vs {:?}",
                traced.run.deterministic_signature(),
                reference.run.run.deterministic_signature()
            ));
        }
        let (root, mut trace) = traced.trace.take().expect("traced replay carries a trace");
        let bad = trace.rounds.iter().filter(|r| !r.ok).count();
        if bad > 0 {
            report.errors.push(format!(
                "{label}: {bad} re-enacted plans failed Solution::verify / split::audit"
            ));
        }
        eprintln!(
            "  segment {k}: untraced {:.3} s, traced {:.3} s, {} spans, {} of {} rounds re-enacted",
            reference.run.wall_s,
            traced.wall_s,
            trace.spans.len(),
            trace.rounds.len(),
            trace.rounds_seen
        );
        acc.add(
            &traced,
            &root,
            &mut trace,
            reference.gen_s,
            w.durability.store.snapshot_every,
        );
        if k == 0 {
            write_trace(trace_dir, w.name, seed, &root, &trace.spans);
            first = Some((reference.inputs, trace));
        }
        k += 1;
        if smoke || started.elapsed().as_secs_f64() >= seconds / 3.0 {
            break;
        }
    }
    acc.finish(report);

    // Side stages on what segment 0 captured.
    let (inputs, trace) = first.expect("at least one segment was traced");
    report.set("trace.overhead_frac", trace_overhead(w, &inputs, dir));
    let codec = stages::codec(&trace.events);
    report.set("durability.codec.encode_ns", codec.encode_ns);
    report.set("durability.codec.decode_ns", codec.decode_ns);
    report.set("durability.codec.bytes_per_event", codec.bytes_per_event);
    if w.stack != StackKind::Plain {
        // On the durable stacks the WAL sits on the serving path.
        let wal = stages::wal(&codec.records, &dir.join("stage-wal"));
        report.set("durability.wal.append_us_p50", wal.append_us_p50);
        report.set("durability.wal.fsync_us_p50", wal.fsync_us_p50);
        let appends = report.get("durability.wal.appends").unwrap_or(0.0);
        // Derived, not counted: a 16-byte frame and index around each
        // record, one sync per `sync_every` appends.
        report.set(
            "durability.wal.bytes",
            appends * (codec.bytes_per_event + 16.0),
        );
        report.set(
            "durability.wal.fsyncs",
            (appends / w.durability.store.wal.sync_every.max(1) as f64).floor(),
        );
        if let Some((_, image)) = &trace.sample_image {
            let snap = stages::snapshot(image, &dir.join("stage-snapshot"));
            report.set("durability.snapshot.write_ms", snap.write_ms);
            report.set("durability.snapshot.bytes", snap.bytes);
        }
    }
    if w.stack == StackKind::Full {
        report.set("cluster.router.two_choices_ns", stages::router_ns());
        let door = stages::front_door(&inputs.jobs);
        report.set("service.front_door.offer_us_p50", door.offer_us_p50);
        report.set("service.front_door.handoff_us_p50", door.handoff_us_p50);
        if !smoke {
            let s = stages::full_stack(w, &inputs, dir);
            report.set("cluster.durable.overhead_frac", s.durable_overhead_frac);
            report.set("telemetry.overhead_frac", s.telemetry_overhead_frac);
            report.set("cluster.fanout.sys_frac", s.fanout_sys_frac);
            if let Some(c) = s.fanout.as_ref().and_then(|f| f.extras.cluster.as_ref()) {
                report.set("cluster.fanout.rounds", c.rounds as f64);
                report.set(
                    "cluster.fanout.round_us_p50",
                    quantile_ns(&c.round_latencies_us, 0.5, 1.0),
                );
                report.set("cluster.fanout.spills", c.spills as f64);
                report.set("cluster.fanout.migrations", c.migrations as f64);
                let routed: Vec<f64> = c.jobs_routed.iter().map(|&n| n as f64).collect();
                let mean = routed.iter().sum::<f64>() / routed.len().max(1) as f64;
                let max = routed.iter().copied().fold(0.0, f64::max);
                report.set(
                    "cluster.fanout.cell_skew",
                    if mean > 0.0 { max / mean } else { 0.0 },
                );
            }
        }
    }
    eprintln!(
        "  {k} traced segments, {:.1} s",
        started.elapsed().as_secs_f64()
    );
    report.note("traced_segments", k as f64);
}

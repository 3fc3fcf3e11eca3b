//! The metric schema — every name the benchmark prints, with its unit,
//! direction and (for end-to-end metrics) regression bound — and the
//! [`Report`] a run fills in. `BENCHMARK.json` lists the same names; a unit
//! test keeps the two in step.

use serde_json::Value;

/// One metric's schema.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `layer[.module].quantity` for per-layer metrics.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by before it
    /// counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    e2e("jobs_per_s", "1/s", "higher", 0.25),
    e2e("plan_ms_p50", "ms", "lower", 0.25),
    e2e("plan_ms_p99", "ms", "lower", 0.25),
    e2e("on_time_frac", "1", "higher", 0.03),
    e2e("turnaround_s", "s", "lower", 0.06),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Single layers, measured by the traced pass. `0` means the layer is not
/// on that workload's serving path.
pub const PER_LAYER: &[MetricDef] = &[
    // desim + mrcp.sim_driver
    layer("driver.wall_ms", "ms", "lower"),
    layer("driver.self_ms", "ms", "lower"),
    layer("driver.sim_span_s", "s", "lower"),
    layer("trace.overhead_frac", "1", "lower"),
    layer("trace.coverage_frac", "1", "higher"),
    layer("replay.sample_k", "count", "lower"),
    layer("replay.node_match_frac", "1", "higher"),
    // manager surface
    layer("rm.submit.calls", "count", "lower"),
    layer("rm.submit.busy_ms", "ms", "lower"),
    layer("rm.submit.us_p50", "us", "lower"),
    layer("rm.submit.us_p99", "us", "lower"),
    layer("rm.reschedule.calls", "count", "lower"),
    layer("rm.reschedule.busy_ms", "ms", "lower"),
    layer("rm.reschedule.us_p50", "us", "lower"),
    layer("rm.reschedule.us_p99", "us", "lower"),
    layer("rm.task_event.calls", "count", "lower"),
    layer("rm.task_event.busy_ms", "ms", "lower"),
    layer("rm.task_event.us_p50", "us", "lower"),
    layer("rm.fault_event.calls", "count", "lower"),
    layer("rm.fault_event.busy_ms", "ms", "lower"),
    layer("rm.fault_event.us_p50", "us", "lower"),
    layer("rm.activate_due.busy_ms", "ms", "lower"),
    layer("rm.crash_recover.calls", "count", "lower"),
    layer("rm.crash_recover.busy_ms", "ms", "lower"),
    layer("rm.crash_recover.ms_p50", "ms", "lower"),
    layer("rm.o_ms_per_job", "ms", "lower"),
    layer("rm.util", "1", "lower"),
    // mrcp
    layer("mrcp.manager.self_ms", "ms", "lower"),
    layer("mrcp.manager.warm_frac", "1", "higher"),
    layer("mrcp.manager.cache_invalidations", "count", "lower"),
    layer("mrcp.manager.degraded_frac", "1", "lower"),
    layer("mrcp.manager.failed_rounds", "count", "lower"),
    layer("mrcp.manager.tasks_in_model_p50", "count", "lower"),
    layer("mrcp.manager.tasks_in_model_max", "count", "lower"),
    layer("mrcp.manager.pinned_frac", "1", "higher"),
    layer("mrcp.admission.probe_calls", "count", "lower"),
    layer("mrcp.admission.probe_us_p50", "us", "lower"),
    layer("mrcp.admission.reject_frac", "1", "lower"),
    layer("mrcp.modelmap.build_ms", "ms", "lower"),
    layer("mrcp.modelmap.build_us_per_task", "us", "lower"),
    layer("mrcp.split.matchmake_ms", "ms", "lower"),
    // cpsolve
    layer("cpsolve.greedy.ms", "ms", "lower"),
    layer("cpsolve.solve.ms", "ms", "lower"),
    layer("cpsolve.solve.nodes", "count", "lower"),
    layer("cpsolve.solve.fails", "count", "lower"),
    layer("cpsolve.solve.us_per_node", "us", "lower"),
    layer("cpsolve.solve.optimal_frac", "1", "higher"),
    layer("cpsolve.solve.improved_frac", "1", "higher"),
    layer("cpsolve.lns.iters", "count", "lower"),
    layer("cpsolve.lns.improve_frac", "1", "higher"),
    layer("cpsolve.verify.ms", "ms", "lower"),
    layer("cpsolve.props.barrier.ms", "ms", "lower"),
    layer("cpsolve.props.barrier.runs", "count", "lower"),
    layer("cpsolve.props.barrier.prunings_per_ms", "1/ms", "higher"),
    layer("cpsolve.props.lateness.ms", "ms", "lower"),
    layer("cpsolve.props.lateness.runs", "count", "lower"),
    layer("cpsolve.props.lateness.prunings_per_ms", "1/ms", "higher"),
    layer("cpsolve.props.timetable.ms", "ms", "lower"),
    layer("cpsolve.props.timetable.runs", "count", "lower"),
    layer("cpsolve.props.timetable.prunings_per_ms", "1/ms", "higher"),
    layer("cpsolve.props.edge_finding.ms", "ms", "lower"),
    layer("cpsolve.props.edge_finding.runs", "count", "lower"),
    layer(
        "cpsolve.props.edge_finding.prunings_per_ms",
        "1/ms",
        "higher",
    ),
    layer("cpsolve.props.objective.ms", "ms", "lower"),
    layer("cpsolve.props.objective.runs", "count", "lower"),
    layer("cpsolve.props.objective.prunings_per_ms", "1/ms", "higher"),
    // durability
    layer("durability.codec.encode_ns", "ns", "lower"),
    layer("durability.codec.decode_ns", "ns", "lower"),
    layer("durability.codec.bytes_per_event", "B", "lower"),
    layer("durability.wal.appends", "count", "lower"),
    layer("durability.wal.append_us_p50", "us", "lower"),
    layer("durability.wal.fsyncs", "count", "lower"),
    layer("durability.wal.bytes", "B", "lower"),
    layer("durability.wal.fsync_us_p50", "us", "lower"),
    layer("durability.snapshot.count", "count", "lower"),
    layer("durability.snapshot.write_ms", "ms", "lower"),
    layer("durability.snapshot.bytes", "B", "lower"),
    layer("durability.recover.replayed_events", "count", "lower"),
    layer("durability.recover.us_per_event", "us", "lower"),
    // cluster
    layer("cluster.rounds", "count", "lower"),
    layer("cluster.round_us_p50", "us", "lower"),
    layer("cluster.round_us_p99", "us", "lower"),
    layer("cluster.router.two_choices_ns", "ns", "lower"),
    layer("cluster.durable.overhead_frac", "1", "lower"),
    layer("cluster.fanout.rounds", "count", "lower"),
    layer("cluster.fanout.round_us_p50", "us", "lower"),
    layer("cluster.fanout.sys_frac", "1", "lower"),
    layer("cluster.fanout.spills", "count", "lower"),
    layer("cluster.fanout.migrations", "count", "lower"),
    layer("cluster.fanout.cell_skew", "1", "lower"),
    // service
    layer("service.batches", "count", "lower"),
    layer("service.batch_jobs_mean", "count", "higher"),
    layer("service.ingest_to_planned_sim_ms_p50", "ms", "lower"),
    layer("service.ingest_to_planned_sim_ms_p99", "ms", "lower"),
    layer("service.front_door.offer_us_p50", "us", "lower"),
    layer("service.front_door.handoff_us_p50", "us", "lower"),
    // telemetry
    layer("telemetry.overhead_frac", "1", "lower"),
    layer("telemetry.series", "count", "lower"),
    layer("telemetry.encode.prom_us", "us", "lower"),
    layer("telemetry.events_dropped", "count", "lower"),
    // workload
    layer("workload.gen_ms", "ms", "lower"),
    layer("workload.tasks_total", "count", "lower"),
];

/// What one run of one workload reports.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
    notes: Vec<(&'static str, f64)>,
    /// Jobs that arrived.
    pub attempted: u64,
    /// Jobs rejected, shed, abandoned or left undrained.
    pub failed: u64,
    /// Failed output checks; any makes the run incorrect.
    pub errors: Vec<String>,
}

impl Report {
    /// Record a metric. The name must be in the schema; a value that is
    /// not a finite number (an unexercised ratio) is recorded as 0.
    pub fn set(&mut self, name: &str, value: f64) {
        let name = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the schema"))
            .name;
        let value = if value.is_finite() { value } else { 0.0 };
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// Record context that is printed but is not a metric.
    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.push((name, value));
    }

    /// A recorded metric's value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Print every metric of `schema` by name with unit, direction and
    /// bound (human-readable, to stderr).
    pub fn print(&self, schema: &[MetricDef]) {
        for m in schema {
            let v = self.get(m.name).unwrap_or(0.0);
            match m.bound {
                Some(b) => eprintln!(
                    "  {:<34} {:>16.6} {:<5} ({} is better, bound {:.0} %)",
                    m.name,
                    v,
                    m.unit,
                    m.better,
                    b * 100.0
                ),
                None => eprintln!(
                    "  {:<44} {:>16.4} {:<5} ({} is better)",
                    m.name, v, m.unit, m.better
                ),
            }
        }
        for (k, v) in &self.notes {
            eprintln!("  [{k} = {v}]");
        }
        for e in &self.errors {
            eprintln!("  CHECK FAILED: {e}");
        }
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the latter holding every metric of
    /// `schema` (0 for one this workload does not exercise).
    pub fn to_json(&self, schema: &[MetricDef]) -> Value {
        let metrics = schema
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Map(vec![
                        (
                            "value".into(),
                            Value::Float(self.get(m.name).unwrap_or(0.0)),
                        ),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Value::Map(vec![
            ("correct".into(), Value::Bool(self.errors.is_empty())),
            ("attempted".into(), Value::UInt(self.attempted.max(1))),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Map(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(
                all[..i].iter().all(|o| o.name != m.name),
                "{} twice",
                m.name
            );
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.better == "higher" || m.better == "lower");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    /// `BENCHMARK.json` at the repository root must list exactly this
    /// schema and the workload table (skipped where the file is absent).
    #[test]
    fn benchmark_json_matches_the_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let field = |v: &Value, k: &str| -> Value {
            v.as_map()
                .and_then(|m| m.iter().find(|(n, _)| n == k))
                .map(|(_, v)| v.clone())
                .unwrap_or(Value::Null)
        };
        let names = |key: &str| -> Vec<(String, String, String, Value)> {
            match field(&doc, key) {
                Value::Seq(items) => items
                    .iter()
                    .map(|it| {
                        let s = |k: &str| match field(it, k) {
                            Value::Str(s) => s,
                            _ => String::new(),
                        };
                        (s("name"), s("unit"), s("better"), field(it, "bound"))
                    })
                    .collect(),
                _ => Vec::new(),
            }
        };
        for (key, schema) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = names(key);
            assert_eq!(listed.len(), schema.len(), "{key} length");
            for (l, m) in listed.iter().zip(schema) {
                assert_eq!(
                    (l.0.as_str(), l.1.as_str(), l.2.as_str()),
                    (m.name, m.unit, m.better)
                );
                match m.bound {
                    Some(b) => assert_eq!(l.3, Value::Float(b), "{} bound", m.name),
                    None => assert_eq!(l.3, Value::Null, "{} has no bound", m.name),
                }
            }
        }
        let workloads: Vec<(String, String)> = match field(&doc, "workloads") {
            Value::Seq(items) => items
                .iter()
                .map(|it| match (field(it, "name"), field(it, "why")) {
                    (Value::Str(n), Value::Str(w)) => (n, w),
                    _ => (String::new(), String::new()),
                })
                .collect(),
            _ => Vec::new(),
        };
        let table = crate::workloads::table();
        assert_eq!(workloads.len(), table.len());
        for (l, w) in workloads.iter().zip(&table) {
            assert_eq!((l.0.as_str(), l.1.as_str()), (w.name, w.why));
        }
    }
}

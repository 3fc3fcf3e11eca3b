//! Workload trace (de)serialization.
//!
//! An experiment's exact input — the generated jobs and the cluster — can be
//! archived as JSON and replayed later, so a figure in EXPERIMENTS.md is
//! always reproducible from its artifact even if generator code evolves.

use crate::model::{Job, JobId, Resource};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// A self-contained workload: the jobs of one run plus the cluster they were
/// generated against, with free-form provenance notes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Human-readable description (generator, parameters, seed).
    pub description: String,
    /// The cluster the workload targets.
    pub resources: Vec<Resource>,
    /// The jobs in arrival order.
    pub jobs: Vec<Job>,
}

impl Trace {
    /// Bundle jobs and resources into a trace.
    pub fn new(description: impl Into<String>, resources: Vec<Resource>, jobs: Vec<Job>) -> Self {
        Trace {
            description: description.into(),
            resources,
            jobs,
        }
    }

    /// Validate every job and that arrivals are nondecreasing.
    pub fn validate(&self) -> Result<(), String> {
        if self.resources.is_empty() {
            return Err("trace has no resources".into());
        }
        for j in &self.jobs {
            j.validate()?;
        }
        for w in self.jobs.windows(2) {
            if w[1].arrival < w[0].arrival {
                return Err(format!(
                    "arrivals out of order: {} at {} before {} at {}",
                    w[1].id, w[1].arrival, w[0].id, w[0].arrival
                ));
            }
        }
        Ok(())
    }

    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace serialization cannot fail")
    }

    /// Parse from JSON and validate.
    ///
    /// A job is the paper's map/reduce job and nothing more. Traces written
    /// while jobs carried user precedence edges hold a `precedences` list on
    /// every job; an empty one is accepted, a non-empty one is refused
    /// rather than silently dropped.
    pub fn from_json(s: &str) -> Result<Trace, String> {
        let v: serde_json::Value = serde_json::from_str(s).map_err(|e| e.to_string())?;
        refuse_precedence_edges(&v)?;
        let t = Trace::deserialize_value(&v)?;
        t.validate()?;
        Ok(t)
    }

    /// Write JSON to any sink.
    pub fn write_to<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        w.write_all(self.to_json().as_bytes())
    }

    /// Read and validate from any source.
    pub fn read_from<R: Read>(mut r: R) -> Result<Trace, String> {
        let mut s = String::new();
        r.read_to_string(&mut s).map_err(|e| e.to_string())?;
        Trace::from_json(&s)
    }
}

/// Refuse a job whose JSON carries a non-empty `precedences` list.
fn refuse_precedence_edges(v: &serde_json::Value) -> Result<(), String> {
    fn field<'a>(v: &'a serde_json::Value, key: &str) -> Option<&'a serde_json::Value> {
        v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
    let jobs = field(v, "jobs")
        .and_then(|j| j.as_seq())
        .unwrap_or_default();
    for job in jobs {
        let edges = field(job, "precedences").and_then(|p| p.as_seq());
        if edges.is_some_and(|e| !e.is_empty()) {
            let id = field(job, "id").map_or(Ok(JobId(0)), JobId::deserialize_value)?;
            return Err(format!(
                "{id}: precedence edges are not supported \
                 (a job is its map tasks, its reduce tasks and the barrier between them)"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::homogeneous_cluster;
    use crate::synthetic::{SyntheticConfig, SyntheticGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_trace() -> Trace {
        let cfg = SyntheticConfig::default();
        let mut g = SyntheticGenerator::new(cfg.clone(), StdRng::seed_from_u64(1));
        Trace::new("table3 defaults, seed 1", cfg.cluster(), g.take_jobs(10))
    }

    #[test]
    fn json_round_trip() {
        let t = sample_trace();
        let s = t.to_json();
        let back = Trace::from_json(&s).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn io_round_trip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::read_from(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn validation_rejects_bad_traces() {
        let mut t = sample_trace();
        t.jobs.swap(0, 9); // arrivals out of order
        assert!(t.validate().is_err());

        let t2 = Trace::new("no resources", vec![], vec![]);
        assert!(t2.validate().is_err());

        let mut t3 = sample_trace();
        t3.jobs[0].deadline = desim::SimTime::from_millis(-1);
        assert!(t3.validate().is_err());
    }

    /// One job with the given `precedences` JSON, on one resource.
    fn one_job_trace(precedences: &str) -> String {
        format!(
            r#"{{"description": "one job", "resources": [{{"id": 0, "map_capacity": 1, "reduce_capacity": 1}}],
              "jobs": [{{"id": 7, "arrival": 0, "earliest_start": 0, "deadline": 10000,
                "map_tasks": [{{"id": 1, "job": 7, "kind": "Map", "exec_time": 1000, "req": 1}}],
                "reduce_tasks": [{{"id": 2, "job": 7, "kind": "Reduce", "exec_time": 1000, "req": 1}}],
                "precedences": {precedences}}}]}}"#
        )
    }

    #[test]
    fn from_json_accepts_an_empty_edge_list() {
        let t = Trace::from_json(&one_job_trace("[]")).unwrap();
        assert_eq!(t.jobs.len(), 1);
        assert_eq!(t.jobs[0].task_count(), 2);
    }

    #[test]
    fn from_json_refuses_precedence_edges_and_names_the_job() {
        let err = Trace::from_json(&one_job_trace("[[1, 2]]")).unwrap_err();
        assert!(err.starts_with("j7: precedence edges"), "{err}");
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(Trace::from_json("{not json").is_err());
    }

    #[test]
    fn trace_new_preserves_cluster() {
        let t = Trace::new("x", homogeneous_cluster(3, 2, 2), vec![]);
        assert_eq!(t.resources.len(), 3);
    }
}

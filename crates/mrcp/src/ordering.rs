//! Job ordering strategies (paper §VI.B).
//!
//! MRCP-RM "was configured to use three job ordering strategies, which
//! determines the job MRCP-RM attempts to map and schedule first": job id,
//! earliest deadline first, and least laxity first. The strategy becomes
//! the per-job search priority handed to the CP solver's heuristics (it
//! never affects completeness, only which solutions are found first under
//! a budget). The paper found EDF marginally best and uses it in all
//! reported figures.

use desim::SimTime;
use workload::Job;

/// Which job the scheduler attempts to place first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobOrdering {
    /// In submission (job id) order.
    JobId,
    /// Earliest deadline first — the paper's reported configuration.
    #[default]
    Edf,
    /// Least laxity first: `L_j = d_j − s_j − Σ e_t` (paper's definition,
    /// using the job's total execution time).
    LeastLaxity,
}

impl JobOrdering {
    /// The search priority for `job` (lower = placed first).
    pub fn priority(self, job: &Job) -> i64 {
        match self {
            JobOrdering::JobId => job.id.0 as i64,
            JobOrdering::Edf => job.deadline.as_millis(),
            JobOrdering::LeastLaxity => self.laxity(job).as_millis(),
        }
    }

    /// The paper's laxity: `d_j − s_j − Σ_t e_t`.
    fn laxity(self, job: &Job) -> SimTime {
        job.deadline - job.earliest_start - job.total_work()
    }

    /// All strategies, for sweeps and ablations.
    pub fn all() -> [JobOrdering; 3] {
        [
            JobOrdering::JobId,
            JobOrdering::Edf,
            JobOrdering::LeastLaxity,
        ]
    }

    /// Short display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            JobOrdering::JobId => "job-id",
            JobOrdering::Edf => "edf",
            JobOrdering::LeastLaxity => "least-laxity",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimTime;
    use workload::{JobId, Task, TaskId, TaskKind};

    fn job(id: u32, s: i64, d: i64, work: i64) -> Job {
        Job {
            id: JobId(id),
            arrival: SimTime::from_secs(s),
            earliest_start: SimTime::from_secs(s),
            deadline: SimTime::from_secs(d),
            map_tasks: vec![Task {
                id: TaskId(id),
                job: JobId(id),
                kind: TaskKind::Map,
                exec_time: SimTime::from_secs(work),
                req: 1,
            }],
            reduce_tasks: vec![],
        }
    }

    #[test]
    fn job_id_orders_by_submission() {
        let a = job(3, 0, 100, 1);
        let b = job(7, 0, 50, 1);
        let o = JobOrdering::JobId;
        assert!(o.priority(&a) < o.priority(&b));
    }

    #[test]
    fn edf_orders_by_deadline() {
        let a = job(3, 0, 100, 1);
        let b = job(7, 0, 50, 1);
        let o = JobOrdering::Edf;
        assert!(o.priority(&b) < o.priority(&a));
    }

    #[test]
    fn least_laxity_accounts_for_work() {
        // Same deadline, different work: the heavier job has less slack.
        let light = job(0, 10, 100, 5);
        let heavy = job(1, 10, 100, 80);
        let o = JobOrdering::LeastLaxity;
        assert!(o.priority(&heavy) < o.priority(&light));
        // laxity of light: (100-10-5)s = 85s
        assert_eq!(o.priority(&light), SimTime::from_secs(85).as_millis());
    }

    #[test]
    fn default_is_edf() {
        assert_eq!(JobOrdering::default(), JobOrdering::Edf);
        assert_eq!(JobOrdering::all().len(), 3);
        assert_eq!(JobOrdering::Edf.name(), "edf");
    }
}

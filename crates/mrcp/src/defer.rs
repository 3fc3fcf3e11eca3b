//! The §V.E performance optimization: deferral of far-future jobs.
//!
//! "A mechanism was implemented to start matchmaking and scheduling jobs
//! only when their `s_j` have arrived, or are close to arriving. … Jobs that
//! have arrived and have a `s_j` in the future are placed in a queue, and
//! are mapped and scheduled at a later time." Keeping those jobs out of the
//! CP model shrinks the number of decision variables and constraints per
//! solver invocation, which is what drives the overhead reductions of
//! Figs. 5 and 6.

use desim::SimTime;

/// When to admit an arrived job into the scheduling set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeferPolicy {
    /// Master switch (off = every arrival is scheduled immediately, the
    /// behaviour the paper's §V.E ablation compares against).
    pub enabled: bool,
    /// How long before `s_j` the job should enter the model ("close to
    /// arriving"). Zero = exactly at `s_j`.
    pub lead: SimTime,
}

impl Default for DeferPolicy {
    fn default() -> Self {
        DeferPolicy {
            enabled: true,
            lead: SimTime::ZERO,
        }
    }
}

impl DeferPolicy {
    /// A policy that never defers.
    pub fn disabled() -> Self {
        DeferPolicy {
            enabled: false,
            lead: SimTime::ZERO,
        }
    }

    /// If the job should be parked, returns the activation instant
    /// (`s_j − lead`); `None` means schedule it now.
    pub fn activation(&self, now: SimTime, earliest_start: SimTime) -> Option<SimTime> {
        if !self.enabled {
            return None;
        }
        let act = earliest_start - self.lead;
        if act > now {
            Some(act)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_jobs_are_not_deferred() {
        let p = DeferPolicy::default();
        let now = SimTime::from_secs(100);
        assert_eq!(p.activation(now, now), None);
        assert_eq!(p.activation(now, SimTime::from_secs(50)), None);
    }

    #[test]
    fn future_jobs_are_parked_until_s_j() {
        let p = DeferPolicy::default();
        let now = SimTime::from_secs(100);
        assert_eq!(
            p.activation(now, SimTime::from_secs(500)),
            Some(SimTime::from_secs(500))
        );
    }

    #[test]
    fn lead_admits_early() {
        let p = DeferPolicy {
            enabled: true,
            lead: SimTime::from_secs(60),
        };
        let now = SimTime::from_secs(100);
        // s_j = 150, lead 60 → would activate at 90 ≤ now → schedule now.
        assert_eq!(p.activation(now, SimTime::from_secs(150)), None);
        // s_j = 500 → activate at 440.
        assert_eq!(
            p.activation(now, SimTime::from_secs(500)),
            Some(SimTime::from_secs(440))
        );
    }

    #[test]
    fn disabled_never_defers() {
        let p = DeferPolicy::disabled();
        assert_eq!(
            p.activation(SimTime::ZERO, SimTime::from_secs(1_000_000)),
            None
        );
    }

    mod manager_integration {
        //! Deferral as the manager drives it: re-activation ordering and
        //! the interplay with retry budgets and load shedding.
        use crate::admission::{AdmissionConfig, AdmissionPolicy};
        use crate::manager::{FailureAction, MrcpConfig, MrcpRm, Submitted};
        use crate::ResourceManager;
        use desim::SimTime;
        use workload::model::homogeneous_cluster;
        use workload::{Job, JobId, Task, TaskId, TaskKind};

        fn mk_job(id: u32, s: i64, d: i64, map_secs: i64) -> Job {
            Job {
                id: JobId(id),
                arrival: SimTime::ZERO,
                earliest_start: SimTime::from_secs(s),
                deadline: SimTime::from_secs(d),
                map_tasks: vec![Task {
                    id: TaskId(id * 100),
                    job: JobId(id),
                    kind: TaskKind::Map,
                    exec_time: SimTime::from_secs(map_secs),
                    req: 1,
                }],
                reduce_tasks: vec![],
                precedences: vec![],
            }
        }

        #[test]
        fn reactivation_follows_earliest_start_order() {
            let mut rm = MrcpRm::new(MrcpConfig::default(), homogeneous_cluster(2, 1, 1));
            // Submitted out of s_j order; activations must come back in
            // s_j order regardless.
            for (id, s) in [(0u32, 300i64), (1, 100), (2, 200)] {
                match rm.submit(mk_job(id, s, 10_000, 10), SimTime::ZERO).unwrap() {
                    Submitted::Deferred(act) => assert_eq!(act, SimTime::from_secs(s)),
                    other => panic!("expected deferral, got {other:?}"),
                }
            }
            assert_eq!(rm.next_activation(), Some(SimTime::from_secs(100)));
            assert_eq!(rm.activate_due(SimTime::from_secs(100)), 1);
            assert_eq!(rm.next_activation(), Some(SimTime::from_secs(200)));
            assert_eq!(rm.activate_due(SimTime::from_secs(200)), 1);
            assert_eq!(rm.next_activation(), Some(SimTime::from_secs(300)));
            // A quiet stretch activates nothing.
            assert_eq!(rm.activate_due(SimTime::from_secs(250)), 0);
            assert_eq!(rm.activate_due(SimTime::from_secs(400)), 1);
            assert_eq!(rm.next_activation(), None);
            // All three are live and schedulable now.
            assert_eq!(rm.reschedule(SimTime::from_secs(400)).len(), 3);
        }

        #[test]
        fn reactivated_job_failure_requeues_without_redeferral() {
            let cfg = MrcpConfig {
                retry_budget: 1,
                ..Default::default()
            };
            let mut rm = MrcpRm::new(cfg, homogeneous_cluster(1, 1, 1));
            rm.submit(mk_job(0, 5, 10_000, 10), SimTime::ZERO).unwrap();
            assert_eq!(rm.activate_due(SimTime::from_secs(5)), 1);
            let plan = rm.reschedule(SimTime::from_secs(5));
            rm.task_started(plan[0].task, plan[0].start).unwrap();

            // The attempt fails within the retry budget: the job goes
            // back to the waiting queue, not the deferred queue — its
            // s_j has passed.
            let act = rm.task_failed(plan[0].task, SimTime::from_secs(8)).unwrap();
            assert_eq!(act, FailureAction::Requeued { failed_attempts: 1 });
            assert_eq!(rm.next_activation(), None, "no re-deferral");
            let plan = rm.reschedule(SimTime::from_secs(8));
            assert_eq!(plan.len(), 1);
            assert!(plan[0].start >= SimTime::from_secs(8));
        }

        #[test]
        fn retry_exhaustion_abandons_previously_deferred_job() {
            let cfg = MrcpConfig {
                retry_budget: 0,
                ..Default::default()
            };
            let mut rm = MrcpRm::new(cfg, homogeneous_cluster(1, 1, 1));
            rm.submit(mk_job(0, 5, 10_000, 10), SimTime::ZERO).unwrap();
            rm.activate_due(SimTime::from_secs(5));
            let plan = rm.reschedule(SimTime::from_secs(5));
            rm.task_started(plan[0].task, plan[0].start).unwrap();
            match rm.task_failed(plan[0].task, SimTime::from_secs(6)).unwrap() {
                FailureAction::JobAbandoned(ab) => assert_eq!(ab.job, JobId(0)),
                other => panic!("expected abandonment, got {other:?}"),
            }
            assert_eq!(rm.jobs_in_system(), 0);
            assert_eq!(rm.next_activation(), None, "no stale activation");
        }

        #[test]
        fn shedding_a_deferred_job_clears_its_activation() {
            let cfg = MrcpConfig {
                admission: AdmissionConfig {
                    policy: AdmissionPolicy::BestEffort,
                    max_pending_jobs: Some(1),
                },
                ..Default::default()
            };
            let mut rm = MrcpRm::new(cfg, homogeneous_cluster(1, 1, 1));
            // A lax, far-future job parks in the deferred queue.
            rm.submit_with_admission(mk_job(0, 500, 10_000, 10), SimTime::ZERO)
                .unwrap();
            assert_eq!(rm.next_activation(), Some(SimTime::from_secs(500)));
            // An urgent arrival sheds it; its activation must go with it.
            let out = rm
                .submit_with_admission(mk_job(1, 0, 100, 10), SimTime::ZERO)
                .unwrap();
            assert_eq!(out.shed.len(), 1);
            assert_eq!(out.shed[0].job, JobId(0));
            assert_eq!(rm.next_activation(), None, "stale activation cleared");
            assert_eq!(rm.jobs_in_system(), 1);
        }
    }
}

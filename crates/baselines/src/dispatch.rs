//! Slot dispatch as a resource manager: every baseline runs on the driver
//! MRCP-RM runs on ([`mrcp::simulate_with`]), with the same metrics.
//!
//! ARIA's cluster model: map and reduce slots, one task per slot (task
//! `req` is ignored), no preemption. A job is
//! eligible at `max(v_j, s_j)`, its reduces once its maps are done. A free
//! slot goes to the job the [`Policy`] picks, on the lowest-id up resource
//! with one; for one-slot tasks that is the schedule a slot pool gives.
//!
//! [`reschedule`](DispatchRm::reschedule) returns a full plan: a forward
//! list-dispatch of every unstarted task from the running tasks' end
//! times, exact until an arrival or a fault makes the driver ask again.
//! An instant's events go in event-queue order: slots already free first
//! (an arrival's dispatch, which a later round at that instant keeps),
//! then each release and completion in the order it was created, with a
//! dispatch after each.

use crate::minedf_wc::min_share;
use desim::SimTime;
use mrcp::manager::Submitted;
use mrcp::{
    AbandonedJob, AdmissionDecision, AdmissionOutcome, FailureAction, JobCompletion, ManagerError,
    ManagerStats, MrcpConfig, RejectReason, ResourceManager, ScheduleEntry,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet, VecDeque};
use std::mem::{replace, take};
use std::sync::Arc;
use std::time::Instant;
use workload::{Job, JobId, Resource, ResourceId, Task, TaskId};

/// A slot-dispatch rule: the only thing the baselines differ in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// First come, first served (Hadoop FIFO): deadline-oblivious.
    Fcfs,
    /// Earliest deadline first, work-conserving.
    Edf,
    /// EDF among the jobs below their minimum share of the slot's kind
    /// ([`min_share`]); spare slots stay idle.
    MinEdf,
    /// MinEDF-WC, the paper's comparator: MinEDF, then spare slots in EDF
    /// order, which flow back to needy jobs as their tasks finish.
    MinEdfWc,
}

impl Policy {
    /// The job among `ready` (indices into `jobs` that want a slot of kind
    /// `k`) that gets one free slot, or `None` to leave it idle.
    fn choose(self, k: usize, jobs: &[JobRun], ready: &[usize]) -> Option<usize> {
        let all = || ready.iter().copied();
        let needy = |&i: &usize| jobs[i].running[k] < jobs[i].share[k];
        let edf = |&i: &usize| (jobs[i].deadline, jobs[i].arrival, jobs[i].id);
        match self {
            Policy::Fcfs => all().min_by_key(|&i| (jobs[i].arrival, jobs[i].id)),
            Policy::Edf => all().min_by_key(edf),
            Policy::MinEdf => all().filter(needy).min_by_key(edf),
            Policy::MinEdfWc => {
                (all().filter(needy).min_by_key(edf)).or_else(|| all().min_by_key(edf))
            }
        }
    }
}

/// A job in the system; a projection advances a copy.
#[derive(Debug, Clone)]
struct JobRun {
    id: JobId,
    arrival: SimTime,
    earliest_start: SimTime,
    deadline: SimTime,
    /// Minimum map and reduce shares, fixed at submission.
    share: [u32; 2],
    /// `(s_j, key)` when `s_j` lay ahead at submission.
    release: Option<(SimTime, u64)>,
    /// Per kind (map, reduce): unstarted tasks in job order with their
    /// declared `e_t` and failed attempts; running and uncompleted counts.
    waiting: [VecDeque<(TaskId, SimTime, u32)>; 2],
    running: [u32; 2],
    left: [usize; 2],
    /// Every task id of the job, to release when it leaves.
    tasks: Arc<[TaskId]>,
}

impl JobRun {
    /// Has an unstarted task of kind `k` past the map→reduce barrier.
    fn wants(&self, k: usize) -> bool {
        !self.waiting[k].is_empty() && (k == 0 || self.left[0] == 0)
    }

    /// Take `task` of kind `k` out of the queue.
    fn unqueue(&mut self, k: usize, task: TaskId) -> Option<(TaskId, SimTime, u32)> {
        let i = self.waiting[k].iter().position(|w| w.0 == task)?;
        self.waiting[k].remove(i)
    }
}

/// A running attempt.
#[derive(Debug, Clone, Copy)]
struct Run {
    job: JobId,
    kind: usize,
    resource: usize,
    start: SimTime,
    /// This attempt's duration (revised for stragglers), and the declared
    /// `e_t` a requeued task returns to.
    exec: SimTime,
    nominal: SimTime,
    failed: u32,
    /// Orders its completion among the events of one instant.
    key: u64,
}

/// The baseline resource manager: a [`Policy`] dispatching slots. Of the
/// [`MrcpConfig`] only `retry_budget` applies.
#[derive(Debug)]
pub struct DispatchRm {
    policy: Policy,
    retry_budget: u32,
    /// The cluster, lowest id first, with each resource's up flag.
    resources: Vec<(Resource, bool)>,
    /// Map and reduce slots over the whole cluster.
    slots: [u32; 2],
    jobs: BTreeMap<JobId, JobRun>,
    /// The task ids of the jobs in the system.
    owned: HashSet<TaskId>,
    running: HashMap<TaskId, Run>,
    /// The last plan: job, kind, resource index and, for a start that is
    /// final at `plan_at`, its key.
    plan: HashMap<TaskId, (JobId, usize, usize, Option<u64>)>,
    plan_at: SimTime,
    /// Keys number events in the order they are created.
    next_key: u64,
    stats: ManagerStats,
}

impl DispatchRm {
    /// A manager dispatching the slots of `resources` by `policy`.
    pub fn new(policy: Policy, cfg: MrcpConfig, mut resources: Vec<Resource>) -> DispatchRm {
        resources.sort_by_key(|r| r.id);
        let total = |f: fn(&Resource) -> u32| resources.iter().map(f).sum();
        DispatchRm {
            policy,
            retry_budget: cfg.retry_budget,
            slots: [total(|r| r.map_capacity), total(|r| r.reduce_capacity)],
            resources: resources.into_iter().map(|r| (r, true)).collect(),
            jobs: BTreeMap::new(),
            owned: HashSet::new(),
            running: HashMap::new(),
            plan: HashMap::new(),
            plan_at: SimTime::ZERO,
            next_key: 0,
            stats: ManagerStats::default(),
        }
    }

    fn key(&mut self) -> u64 {
        self.next_key += 1;
        self.next_key - 1
    }

    fn resource(&self, rid: ResourceId) -> Result<usize, ManagerError> {
        let r = self.resources.iter().position(|(r, _)| r.id == rid);
        r.ok_or(ManagerError::UnknownResource(rid))
    }

    /// Take `job` out of the system and free its task ids.
    fn remove_job(&mut self, job: JobId) -> Option<JobRun> {
        let run = self.jobs.remove(&job)?;
        for id in run.tasks.iter() {
            self.owned.remove(id);
        }
        Some(run)
    }

    /// Put a running task back at the head of its job's queue.
    fn requeue(&mut self, task: TaskId, t: Run, failed: u32) {
        if let Some(run) = self.jobs.get_mut(&t.job) {
            run.running[t.kind] -= 1;
            run.waiting[t.kind].push_front((task, t.nominal, failed));
        }
    }
}

/// A job reaches `s_j`, or a task of (job, kind) finishes on a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Release(usize),
    Done(usize, usize, usize),
}

/// The forward list-dispatch behind one plan.
struct Projection {
    policy: Policy,
    ids: Vec<ResourceId>,
    /// The jobs, by id.
    jobs: Vec<JobRun>,
    /// Per kind, the eligible jobs that [want](JobRun::wants) a slot.
    ready: [Vec<usize>; 2],
    /// Free slots per resource. A start the driver delivers before the
    /// completion that frees its slot leaves a count below zero until then.
    free: Vec<[i64; 2]>,
    events: BinaryHeap<Reverse<(SimTime, u64, Ev)>>,
    /// The plan in dispatch order: entry, kind, resource index, final key.
    out: Vec<(ScheduleEntry, usize, usize, Option<u64>)>,
    /// The next key, and whether the starts being made are final.
    next_key: u64,
    commit: bool,
}

impl Projection {
    fn index(&self, job: JobId) -> usize {
        let j = self.jobs.binary_search_by_key(&job, |j| j.id);
        j.expect("a task's job is live")
    }

    /// Job `j` is eligible: it joins the candidates of every kind it wants.
    fn release(&mut self, j: usize) {
        for k in 0..2 {
            if self.jobs[j].wants(k) {
                self.ready[k].push(j);
            }
        }
    }

    /// Job `j`'s task `(task, e_t)` of kind `k`, out of its queue, starts
    /// on resource `r` at `at`; `key` orders its completion, a fresh one if
    /// `None`.
    fn start(
        &mut self,
        j: usize,
        k: usize,
        r: usize,
        at: SimTime,
        task: (TaskId, SimTime),
        key: Option<u64>,
    ) {
        let key = key.unwrap_or_else(|| {
            self.next_key += 1;
            self.next_key - 1
        });
        let (task, end) = (task.0, at + task.1);
        self.jobs[j].running[k] += 1;
        if !self.jobs[j].wants(k) {
            if let Some(i) = self.ready[k].iter().position(|&i| i == j) {
                self.ready[k].swap_remove(i);
            }
        }
        self.free[r][k] -= 1;
        self.events.push(Reverse((end, key, Ev::Done(j, k, r))));
        let (job, resource) = (self.jobs[j].id, self.ids[r]);
        let entry = ScheduleEntry {
            task,
            job,
            resource,
            start: at,
            end,
        };
        self.out.push((entry, k, r, self.commit.then_some(key)));
    }

    /// Hand out free slots until no dispatch is possible.
    fn dispatch(&mut self, at: SimTime) {
        loop {
            let mut progressed = false;
            for k in 0..2 {
                let Some(r) = self.free.iter().position(|f| f[k] > 0) else {
                    continue;
                };
                let Some(j) = self.policy.choose(k, &self.jobs, &self.ready[k]) else {
                    continue;
                };
                let (task, exec, _) = self.jobs[j].waiting[k]
                    .pop_front()
                    .expect("a ready job has a waiting task");
                self.start(j, k, r, at, (task, exec), None);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }
}

impl ResourceManager for DispatchRm {
    /// Admits every job as [`Submitted::Active`]. A job with tasks of a
    /// kind the cluster has no slots for could never finish; it is rejected
    /// with [`RejectReason::DemandExceedsCapacity`].
    fn submit_with_admission(
        &mut self,
        job: Job,
        now: SimTime,
    ) -> Result<AdmissionOutcome, ManagerError> {
        if self.jobs.contains_key(&job.id) {
            return Err(ManagerError::DuplicateJob(job.id));
        }
        let known = (job.tasks().map(|t| t.id)).find(|id| self.owned.contains(id));
        if let Some(id) = known.or_else(|| job.repeated_task()) {
            return Err(ManagerError::DuplicateTask(id));
        }
        let (maps, reduces) = (&job.map_tasks, &job.reduce_tasks);
        let left = [maps.len(), reduces.len()];
        if (0..2).any(|k| left[k] > 0 && self.slots[k] == 0) {
            self.stats.jobs_rejected += 1;
            let (reason, earliest_feasible_deadline) =
                (RejectReason::DemandExceedsCapacity, SimTime::MAX);
            let decision = AdmissionDecision::Reject {
                reason,
                earliest_feasible_deadline,
            };
            return Ok(AdmissionOutcome {
                decision,
                submitted: None,
                shed: Vec::new(),
            });
        }
        let mean = |ts: &[Task]| {
            ts.iter().map(|t| t.exec_time.as_secs_f64()).sum::<f64>() / ts.len().max(1) as f64
        };
        let budget = (job.deadline - job.earliest_start.max(now)).as_secs_f64();
        let [m, r] = self.slots;
        let share = min_share(left[0], mean(maps), left[1], mean(reduces), budget, m, r);
        let mut waiting: [VecDeque<_>; 2] = Default::default();
        for t in job.tasks() {
            waiting[t.kind as usize].push_back((t.id, t.exec_time, 0));
        }
        let tasks: Arc<[TaskId]> = job.tasks().map(|t| t.id).collect();
        self.owned.extend(tasks.iter().copied());
        let run = JobRun {
            id: job.id,
            arrival: job.arrival,
            earliest_start: job.earliest_start,
            deadline: job.deadline,
            share: [share.maps, share.reduces],
            release: (job.earliest_start > now).then(|| (job.earliest_start, self.key())),
            waiting,
            running: [0, 0],
            left,
            tasks,
        };
        self.jobs.insert(job.id, run);
        let (decision, submitted) = (AdmissionDecision::Admit, Some(Submitted::Active));
        Ok(AdmissionOutcome {
            decision,
            submitted,
            shed: Vec::new(),
        })
    }

    /// Nothing is ever deferred.
    fn activate_due(&mut self, _now: SimTime) -> usize {
        0
    }

    fn reschedule(&mut self, now: SimTime) -> Vec<ScheduleEntry> {
        let t0 = Instant::now();
        self.stats.invocations += 1;
        // The starts dispatched at this instant from slots that were already
        // free are final; everything else is projected again.
        let same_instant = replace(&mut self.plan_at, now) == now;
        let mut kept: Vec<_> = (take(&mut self.plan).into_iter())
            .filter_map(|(task, (job, k, r, key))| {
                Some((key.filter(|_| same_instant)?, task, job, k, r))
            })
            .collect();
        kept.sort_unstable();
        let mut p = Projection {
            policy: self.policy,
            ids: self.resources.iter().map(|(r, _)| r.id).collect(),
            jobs: self.jobs.values().cloned().collect(),
            ready: Default::default(),
            free: (self.resources.iter())
                .map(|(r, up)| [r.map_capacity, r.reduce_capacity].map(|c| c as i64 * *up as i64))
                .collect(),
            events: BinaryHeap::new(),
            out: Vec::new(),
            next_key: self.next_key,
            commit: true,
        };
        for t in self.running.values() {
            let (j, end) = (p.index(t.job), t.start + t.exec);
            p.free[t.resource][t.kind] -= 1;
            p.events
                .push(Reverse((end, t.key, Ev::Done(j, t.kind, t.resource))));
        }
        for (key, task, job, k, r) in kept {
            let j = p.index(job);
            let w = p.jobs[j]
                .unqueue(k, task)
                .expect("a kept start's task waits");
            p.start(j, k, r, now, (task, w.1), Some(key));
        }
        for j in 0..p.jobs.len() {
            match p.jobs[j].release.filter(|&(at, _)| at >= now) {
                Some((at, key)) => p.events.push(Reverse((at, key, Ev::Release(j)))),
                None => p.release(j),
            }
        }
        p.dispatch(now);
        (self.next_key, p.commit) = (p.next_key, false);
        while let Some(Reverse((at, _, ev))) = p.events.pop() {
            match ev {
                Ev::Release(j) => p.release(j),
                Ev::Done(j, k, r) => {
                    p.free[r][k] += 1;
                    let job = &mut p.jobs[j];
                    job.running[k] -= 1;
                    job.left[k] -= 1;
                    // The last map lifts the barrier: the reduces are candidates.
                    if k == 0 && job.wants(1) {
                        p.ready[1].push(j);
                    }
                }
            }
            p.dispatch(at);
        }
        let plan = p
            .out
            .iter()
            .map(|&(e, k, r, key)| (e.task, (e.job, k, r, key)));
        self.plan = plan.collect();
        let elapsed = t0.elapsed();
        self.stats.total_solve += elapsed;
        self.stats.max_round_solve = self.stats.max_round_solve.max(elapsed);
        p.out.into_iter().map(|(e, ..)| e).collect()
    }

    /// Does not check capacity: at one instant the driver can deliver a
    /// planned start before the completion that frees its slot.
    fn task_started(&mut self, task: TaskId, now: SimTime) -> Result<ResourceId, ManagerError> {
        let planned = self.plan.remove(&task);
        let (job, kind, resource, key) = planned.ok_or(ManagerError::TaskNotScheduled(task))?;
        let key = key.unwrap_or_else(|| self.key());
        let run = self
            .jobs
            .get_mut(&job)
            .ok_or(ManagerError::UnknownJob(job))?;
        let w = run.unqueue(kind, task);
        let (_, nominal, failed) = w.ok_or(ManagerError::UnknownTask(task))?;
        run.running[kind] += 1;
        let t = Run {
            job,
            kind,
            resource,
            start: now,
            exec: nominal,
            nominal,
            failed,
            key,
        };
        self.running.insert(task, t);
        Ok(self.resources[resource].0.id)
    }

    fn task_completed(
        &mut self,
        task: TaskId,
        now: SimTime,
    ) -> Result<Option<JobCompletion>, ManagerError> {
        let t = self
            .running
            .remove(&task)
            .ok_or(ManagerError::TaskNotRunning(task))?;
        let run = self
            .jobs
            .get_mut(&t.job)
            .ok_or(ManagerError::UnknownJob(t.job))?;
        run.running[t.kind] -= 1;
        run.left[t.kind] -= 1;
        if run.left != [0, 0] {
            return Ok(None);
        }
        let (job, deadline, earliest_start) = (t.job, run.deadline, run.earliest_start);
        self.remove_job(job);
        Ok(Some(JobCompletion {
            job,
            completion: now,
            deadline,
            earliest_start,
            late: now > deadline,
        }))
    }

    fn task_duration_revised(
        &mut self,
        task: TaskId,
        new_exec: SimTime,
    ) -> Result<(), ManagerError> {
        let t = self.running.get_mut(&task);
        t.ok_or(ManagerError::TaskNotRunning(task))?.exec = new_exec;
        Ok(())
    }

    /// Requeues the task, or abandons its job (returning its live tasks)
    /// once the task has failed more than `retry_budget` times.
    fn task_failed(&mut self, task: TaskId, _now: SimTime) -> Result<FailureAction, ManagerError> {
        let t = self
            .running
            .remove(&task)
            .ok_or(ManagerError::TaskNotRunning(task))?;
        let failed_attempts = t.failed + 1;
        self.stats.tasks_failed += 1;
        if failed_attempts <= self.retry_budget {
            self.stats.tasks_requeued += 1;
            self.requeue(task, t, failed_attempts);
            return Ok(FailureAction::Requeued { failed_attempts });
        }
        self.stats.jobs_abandoned += 1;
        let job = t.job;
        let run = self.remove_job(job).ok_or(ManagerError::UnknownJob(job))?;
        let mut tasks: Vec<TaskId> = run.waiting.iter().flatten().map(|w| w.0).collect();
        tasks.push(task);
        tasks.extend(
            self.running
                .iter()
                .filter(|(_, t)| t.job == job)
                .map(|(&id, _)| id),
        );
        self.running.retain(|_, t| t.job != job);
        self.plan.retain(|_, e| e.0 != job);
        tasks.sort_unstable();
        let (deadline, earliest_start) = (run.deadline, run.earliest_start);
        let abandoned = AbandonedJob {
            job,
            tasks,
            deadline,
            earliest_start,
        };
        Ok(FailureAction::JobAbandoned(abandoned))
    }

    /// Requeues the tasks running on the resource, without charging their
    /// retry budgets, and takes its slots out of later plans.
    fn resource_down(
        &mut self,
        rid: ResourceId,
        _now: SimTime,
    ) -> Result<Vec<TaskId>, ManagerError> {
        let r = self.resource(rid)?;
        if !replace(&mut self.resources[r].1, false) {
            return Err(ManagerError::ResourceAlreadyDown(rid));
        }
        let on_r = self.running.iter().filter(|(_, t)| t.resource == r);
        let mut interrupted: Vec<TaskId> = on_r.map(|(&id, _)| id).collect();
        interrupted.sort_unstable();
        for &task in &interrupted {
            if let Some(t) = self.running.remove(&task) {
                self.requeue(task, t, t.failed);
            }
        }
        self.plan.retain(|_, e| e.2 != r);
        self.stats.tasks_requeued += interrupted.len() as u64;
        Ok(interrupted)
    }

    fn resource_up(&mut self, rid: ResourceId, _now: SimTime) -> Result<(), ManagerError> {
        let r = self.resource(rid)?;
        if replace(&mut self.resources[r].1, true) {
            return Err(ManagerError::ResourceNotDown(rid));
        }
        Ok(())
    }

    fn jobs_in_system(&self) -> usize {
        self.jobs.len()
    }

    /// Rounds, fault counters and rejections; `total_solve` is the wall
    /// time of the projections, so `O` is measured as for MRCP-RM.
    fn stats(&self) -> ManagerStats {
        self.stats
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mrcp::{simulate_with, JobOutcome, RunMetrics, SimConfig};
    use workload::TaskKind;

    pub(crate) fn mk_job(
        id: u32,
        arrival: i64,
        s: i64,
        d: i64,
        maps: &[i64],
        reduces: &[i64],
    ) -> Job {
        let mut next = id * 1000;
        let mut task = |kind, secs: i64| {
            let t = Task {
                id: TaskId(next),
                job: JobId(id),
                kind,
                exec_time: SimTime::from_secs(secs),
                req: 1,
            };
            next += 1;
            t
        };
        Job {
            id: JobId(id),
            arrival: SimTime::from_secs(arrival),
            earliest_start: SimTime::from_secs(s),
            deadline: SimTime::from_secs(d),
            map_tasks: maps.iter().map(|&e| task(TaskKind::Map, e)).collect(),
            reduce_tasks: reduces.iter().map(|&e| task(TaskKind::Reduce, e)).collect(),
        }
    }

    /// One resource with `slots` map and reduce slots.
    fn one_resource(slots: (u32, u32)) -> Vec<Resource> {
        vec![Resource {
            id: ResourceId(0),
            map_capacity: slots.0,
            reduce_capacity: slots.1,
        }]
    }

    fn run_with(
        policy: Policy,
        slots: (u32, u32),
        jobs: Vec<Job>,
        sim: &SimConfig,
    ) -> (RunMetrics, Vec<JobOutcome>) {
        let res = one_resource(slots);
        let (m, outcomes, _) =
            simulate_with(sim, &res, jobs, |c| DispatchRm::new(policy, c, res.clone()));
        (m, outcomes)
    }

    /// Run `jobs` under `policy` on one resource with `slots` map and
    /// reduce slots.
    pub(crate) fn run(
        policy: Policy,
        slots: (u32, u32),
        jobs: Vec<Job>,
    ) -> (RunMetrics, Vec<JobOutcome>) {
        run_with(policy, slots, jobs, &SimConfig::default())
    }

    fn rm(policy: Policy, slots: (u32, u32)) -> DispatchRm {
        DispatchRm::new(policy, MrcpConfig::default(), one_resource(slots))
    }

    fn at(secs: i64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// A job whose two maps share a task id is refused before any state
    /// changes: a plan keyed by task id could start only one of the two,
    /// and the job would never leave the system.
    #[test]
    fn a_job_that_repeats_a_task_id_is_refused() {
        let mut d = rm(Policy::MinEdfWc, (1, 1));
        let mut job = mk_job(0, 0, 0, 100, &[10, 10], &[5]);
        job.map_tasks[1].id = job.map_tasks[0].id;
        let refused = d.submit_with_admission(job, at(0));
        assert_eq!(refused.unwrap_err(), ManagerError::DuplicateTask(TaskId(0)));
        assert_eq!(d.jobs_in_system(), 0);
        assert_eq!(d.stats().jobs_rejected, 0);
        assert!(d.reschedule(at(0)).is_empty());
    }

    /// A job reusing a task id that another live job owns is refused
    /// before any state or counter changes: the plan would list the task
    /// twice, and the second job would never leave the system.
    #[test]
    fn a_task_id_another_live_job_owns_is_refused() {
        let mut d = rm(Policy::MinEdfWc, (1, 1));
        let first = mk_job(0, 0, 0, 100, &[10], &[]);
        d.submit_with_admission(first, at(0)).unwrap();
        let plan = d.reschedule(at(0));
        let mut second = mk_job(1, 0, 0, 100, &[10], &[]);
        second.map_tasks[0].id = TaskId(0);
        let refused = d.submit_with_admission(second, at(0));
        assert_eq!(refused.unwrap_err(), ManagerError::DuplicateTask(TaskId(0)));
        assert_eq!(d.jobs_in_system(), 1);
        assert_eq!(d.stats().jobs_rejected, 0);
        assert_eq!(d.reschedule(at(0)), plan);
    }

    #[test]
    fn single_job_runs_map_then_reduce() {
        let jobs = vec![mk_job(0, 0, 0, 100, &[10, 10], &[5])];
        let (m, _) = run(Policy::Fcfs, (2, 1), jobs);
        assert_eq!(m.completed, 1);
        assert_eq!(m.late, 0);
        // Maps in parallel (10s), reduce 5s → completion 15, turnaround 15.
        assert!((m.mean_turnaround_s - 15.0).abs() < 1e-9);
        assert!((m.end_time_s - 15.0).abs() < 1e-9);
    }

    #[test]
    fn reduce_waits_for_all_maps() {
        // One map slot: maps serialize 0..10, 10..20; reduce 20..25.
        let jobs = vec![mk_job(0, 0, 0, 100, &[10, 10], &[5])];
        let (m, _) = run(Policy::Fcfs, (1, 4), jobs);
        assert!((m.end_time_s - 25.0).abs() < 1e-9);
    }

    #[test]
    fn earliest_start_is_honoured() {
        let jobs = vec![mk_job(0, 0, 50, 100, &[10], &[])];
        let (m, _) = run(Policy::Fcfs, (4, 4), jobs);
        // Starts at 50, ends at 60; turnaround from s_j = 10.
        assert!((m.end_time_s - 60.0).abs() < 1e-9);
        assert!((m.mean_turnaround_s - 10.0).abs() < 1e-9);
    }

    #[test]
    fn late_jobs_are_counted() {
        // Two 10s jobs, one slot, both due by 15 → second is late.
        let jobs = vec![
            mk_job(0, 0, 0, 15, &[10], &[]),
            mk_job(1, 0, 0, 15, &[10], &[]),
        ];
        let (m, _) = run(Policy::Fcfs, (1, 1), jobs);
        assert_eq!(m.completed, 2);
        assert_eq!(m.late, 1);
        assert!((m.p_late - 0.5).abs() < 1e-9);
    }

    #[test]
    fn warmup_excludes_early_completions() {
        let jobs = vec![
            mk_job(0, 0, 0, 100, &[10], &[]),
            mk_job(1, 0, 0, 100, &[10], &[]),
        ];
        let sim = SimConfig {
            warmup_jobs: 1,
            ..SimConfig::default()
        };
        let (m, _) = run_with(Policy::Fcfs, (1, 1), jobs, &sim);
        assert_eq!(m.completed, 2);
        assert_eq!(m.measured, 1);
    }

    #[test]
    fn reduce_work_without_reduce_slots_is_rejected() {
        // The job could never drain; it is turned away, not queued.
        let mut rm = rm(Policy::Fcfs, (2, 0));
        let out = rm
            .submit_with_admission(mk_job(0, 0, 0, 100, &[5], &[5]), SimTime::ZERO)
            .unwrap();
        assert_eq!(out.submitted, None);
        assert_eq!(
            out.decision,
            AdmissionDecision::Reject {
                reason: RejectReason::DemandExceedsCapacity,
                earliest_feasible_deadline: SimTime::MAX,
            }
        );
        assert_eq!(rm.jobs_in_system(), 0);
        let (m, _) = run(Policy::Fcfs, (2, 0), vec![mk_job(0, 0, 0, 100, &[5], &[5])]);
        assert_eq!((m.completed, m.jobs_rejected), (0, 1));
        assert_eq!(m.check_conservation(), Ok(()));
        // The same for map work on a cluster without map slots.
        let (m, _) = run(Policy::Fcfs, (0, 2), vec![mk_job(0, 0, 0, 100, &[5], &[])]);
        assert_eq!((m.completed, m.jobs_rejected), (0, 1));
    }

    #[test]
    fn map_only_jobs_run_fine_without_reduce_slots() {
        let jobs = vec![mk_job(0, 0, 0, 100, &[5, 5], &[])];
        let (m, _) = run(Policy::Fcfs, (2, 0), jobs);
        assert_eq!(m.completed, 1);
    }

    #[test]
    fn slots_limit_parallelism() {
        // 4 maps of 10s on 2 slots → two waves → end 20.
        let jobs = vec![mk_job(0, 0, 0, 100, &[10, 10, 10, 10], &[])];
        let (m, _) = run(Policy::Fcfs, (2, 1), jobs);
        assert!((m.end_time_s - 20.0).abs() < 1e-9);
    }

    #[test]
    fn serves_in_arrival_order_regardless_of_deadline() {
        // j0 arrives first with a huge deadline; j1 arrives later but is
        // urgent. FCFS runs j0 first → j1 misses.
        let jobs = vec![
            mk_job(0, 0, 0, 10_000, &[10], &[]),
            mk_job(1, 1, 1, 12, &[10], &[]),
        ];
        let (m, _) = run(Policy::Fcfs, (1, 1), jobs);
        assert_eq!(m.late, 1);
    }

    #[test]
    fn ties_break_by_id() {
        let mut rm = rm(Policy::Fcfs, (1, 1));
        for id in [2, 1] {
            let job = mk_job(id, 0, 0, 5, &[1], &[]);
            rm.submit_with_admission(job, at(0)).unwrap();
        }
        let jobs: Vec<JobRun> = rm.jobs.values().cloned().collect();
        let first = Policy::Fcfs.choose(0, &jobs, &[1, 0]).unwrap();
        assert_eq!(jobs[first].id, JobId(1));
    }

    #[test]
    fn urgent_job_jumps_the_queue() {
        // j0 occupies the slot 0..10. While it runs, j2 (loose) arrives
        // before j1 (urgent). At t=10 EDF picks j1 by deadline, so both
        // waiting jobs meet their deadlines; FCFS would run j2 first and
        // make j1 late.
        let jobs = vec![
            mk_job(0, 0, 0, 10_000, &[10], &[]),
            mk_job(2, 1, 1, 10_000, &[10], &[]),
            mk_job(1, 2, 2, 25, &[10], &[]),
        ];
        assert_eq!(run(Policy::Edf, (1, 1), jobs.clone()).0.late, 0);
        assert_eq!(run(Policy::Fcfs, (1, 1), jobs).0.late, 1);
    }

    #[test]
    fn work_conserving_uses_all_slots() {
        // A single job with 4 maps gets all 4 slots at once even though its
        // deadline is loose.
        let jobs = vec![mk_job(0, 0, 0, 10_000, &[10, 10, 10, 10], &[])];
        let (m, _) = run(Policy::Edf, (4, 1), jobs);
        assert!((m.end_time_s - 10.0).abs() < 1e-9);
    }

    #[test]
    fn running_task_is_not_preempted() {
        // j0 (loose) occupies the slot; urgent j1 arrives mid-task and must
        // wait for completion (no preemption in the slot model).
        let jobs = vec![
            mk_job(0, 0, 0, 10_000, &[10], &[]),
            mk_job(1, 2, 2, 11, &[5], &[]),
        ];
        let (m, _) = run(Policy::Edf, (1, 1), jobs);
        // j1 runs 10..15, deadline 11 → late.
        assert_eq!(m.late, 1);
    }

    #[test]
    fn a_dispatch_at_an_arrival_survives_a_later_arrival_at_the_same_instant() {
        // Both arrive at 0. The loose j0 arrives first and takes the only
        // slot; the urgent j1, a moment later in event order, waits even
        // under EDF — as in an event queue that dispatches at each arrival.
        let jobs = vec![
            mk_job(0, 0, 0, 10_000, &[10], &[]),
            mk_job(1, 0, 0, 15, &[10], &[]),
        ];
        let (m, outcomes) = run(Policy::Edf, (1, 1), jobs);
        assert_eq!(m.late, 1);
        assert_eq!(outcomes[0].job, JobId(0));
    }

    /// When each of `jobs` completes, in completion order.
    fn completions(jobs: Vec<Job>) -> Vec<(JobId, SimTime)> {
        let (_, outcomes) = run(Policy::Edf, (1, 1), jobs);
        outcomes.iter().map(|o| (o.job, o.completion)).collect()
    }

    #[test]
    fn a_completion_created_before_a_release_at_its_instant_goes_first() {
        // j0's task starts at 0 and ends at 5; urgent j1 arrives at 1 and
        // is released at 5. The completion was created first, so the freed
        // slot goes to loose j2 before j1 is eligible; j1 misses.
        let jobs = vec![
            mk_job(0, 0, 0, 100, &[5], &[]),
            mk_job(1, 1, 5, 20, &[10], &[]),
            mk_job(2, 2, 2, 200, &[10], &[]),
        ];
        let expected = [(0, 5), (2, 15), (1, 25)];
        let expected: Vec<_> = expected.map(|(j, t)| (JobId(j), at(t))).into();
        assert_eq!(completions(jobs), expected);
    }

    #[test]
    fn a_release_created_before_a_completion_at_its_instant_goes_first() {
        // j1 arrives at 1 and is released at 5; j2's task starts at 2 (after
        // j1's arrival) and ends at 5. The release goes first, so urgent j1
        // is a candidate for j2's slot and beats loose j3. j4's arrival at 3
        // makes the plan at 5 come from the order the manager recorded.
        let jobs = vec![
            mk_job(0, 0, 0, 100, &[2], &[]),
            mk_job(1, 1, 5, 20, &[10], &[]),
            mk_job(2, 1, 1, 200, &[3], &[]),
            mk_job(3, 1, 1, 300, &[10], &[]),
            mk_job(4, 3, 3, 1_000, &[1], &[]),
        ];
        let expected = [(0, 2), (2, 5), (1, 15), (3, 25), (4, 26)];
        let expected: Vec<_> = expected.map(|(j, t)| (JobId(j), at(t))).into();
        assert_eq!(completions(jobs), expected);
    }

    #[test]
    fn plan_covers_every_unstarted_task_from_running_end_times() {
        let mut rm = rm(Policy::Fcfs, (1, 1));
        rm.submit_with_admission(mk_job(0, 0, 0, 100, &[10, 10], &[5]), at(0))
            .unwrap();
        let plan = rm.reschedule(at(0));
        let starts: Vec<(TaskId, SimTime)> = plan.iter().map(|e| (e.task, e.start)).collect();
        assert_eq!(
            starts,
            vec![(TaskId(0), at(0)), (TaskId(1), at(10)), (TaskId(2), at(20))]
        );
        rm.task_started(TaskId(0), at(0)).unwrap();
        // A straggler moves the end; the next plan starts from it.
        rm.task_duration_revised(TaskId(0), at(15)).unwrap();
        let plan = rm.reschedule(at(0));
        assert_eq!((plan[0].task, plan[0].start), (TaskId(1), at(15)));
        assert_eq!((plan[1].task, plan[1].start), (TaskId(2), at(25)));
    }

    #[test]
    fn a_start_may_arrive_before_the_completion_that_frees_its_slot() {
        let mut rm = rm(Policy::Fcfs, (1, 1));
        rm.submit_with_admission(mk_job(0, 0, 0, 100, &[10, 10], &[]), at(0))
            .unwrap();
        rm.reschedule(at(0));
        rm.task_started(TaskId(0), at(0)).unwrap();
        rm.task_started(TaskId(1), at(10)).unwrap();
        assert_eq!(rm.task_completed(TaskId(0), at(10)), Ok(None));
        let done = rm.task_completed(TaskId(1), at(20)).unwrap().unwrap();
        assert_eq!(
            (done.job, done.completion, done.late),
            (JobId(0), at(20), false)
        );
        assert_eq!(rm.jobs_in_system(), 0);
    }

    #[test]
    fn failed_tasks_requeue_until_the_retry_budget_abandons_the_job() {
        let cfg = MrcpConfig {
            retry_budget: 1,
            ..MrcpConfig::default()
        };
        let mut rm = DispatchRm::new(Policy::Edf, cfg, one_resource((1, 1)));
        rm.submit_with_admission(mk_job(0, 0, 0, 100, &[10], &[]), at(0))
            .unwrap();
        rm.reschedule(at(0));
        rm.task_started(TaskId(0), at(0)).unwrap();
        assert_eq!(
            rm.task_failed(TaskId(0), at(4)),
            Ok(FailureAction::Requeued { failed_attempts: 1 })
        );
        assert_eq!(
            rm.task_failed(TaskId(0), at(4)),
            Err(ManagerError::TaskNotRunning(TaskId(0)))
        );
        let plan = rm.reschedule(at(4));
        assert_eq!((plan[0].start, plan[0].end), (at(4), at(14)));
        rm.task_started(TaskId(0), at(4)).unwrap();
        match rm.task_failed(TaskId(0), at(5)).unwrap() {
            FailureAction::JobAbandoned(ab) => assert_eq!(ab.tasks, vec![TaskId(0)]),
            other => panic!("expected abandonment, got {other:?}"),
        }
        assert_eq!(rm.jobs_in_system(), 0);
        let s = rm.stats();
        assert_eq!(
            (s.tasks_failed, s.tasks_requeued, s.jobs_abandoned),
            (2, 1, 1)
        );
        assert_eq!(s.invocations, 2);
    }

    #[test]
    fn a_down_resource_returns_its_tasks_and_leaves_the_plan_until_up() {
        let res = vec![
            Resource {
                id: ResourceId(1),
                map_capacity: 1,
                reduce_capacity: 1,
            },
            Resource {
                id: ResourceId(0),
                map_capacity: 1,
                reduce_capacity: 1,
            },
        ];
        let mut rm = DispatchRm::new(Policy::Edf, MrcpConfig::default(), res);
        rm.submit_with_admission(mk_job(0, 0, 0, 100, &[10, 10], &[]), at(0))
            .unwrap();
        let plan = rm.reschedule(at(0));
        // Lowest id first.
        assert_eq!(plan[0].resource, ResourceId(0));
        assert_eq!(plan[1].resource, ResourceId(1));
        for e in &plan {
            rm.task_started(e.task, at(0)).unwrap();
        }
        assert_eq!(rm.resource_down(ResourceId(0), at(3)), Ok(vec![TaskId(0)]));
        assert_eq!(
            rm.resource_down(ResourceId(0), at(3)),
            Err(ManagerError::ResourceAlreadyDown(ResourceId(0)))
        );
        assert_eq!(
            rm.resource_down(ResourceId(7), at(3)),
            Err(ManagerError::UnknownResource(ResourceId(7)))
        );
        // Only resource 1 is left: the requeued task waits for its slot.
        let plan = rm.reschedule(at(3));
        assert_eq!(plan.len(), 1);
        assert_eq!((plan[0].resource, plan[0].start), (ResourceId(1), at(10)));
        rm.resource_up(ResourceId(0), at(4)).unwrap();
        assert_eq!(
            rm.resource_up(ResourceId(0), at(4)),
            Err(ManagerError::ResourceNotDown(ResourceId(0)))
        );
        let plan = rm.reschedule(at(4));
        assert_eq!((plan[0].resource, plan[0].start), (ResourceId(0), at(4)));
        assert_eq!(rm.stats().tasks_requeued, 1);
    }
}

//! Problem model: jobs, tasks, resources, and derived structure.
//!
//! [`ModelBuilder`] mirrors the paper's OPL model inputs (`Jobs`, `Tasks`,
//! `Resources` tuple sets) plus the incremental-rescheduling pinning
//! constraints of §V.B (`fix_task`), and compiles them into an immutable
//! [`Model`] the solver operates on.

/// Index of a task in the model (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskRef(pub u32);

/// Index of a job in the model (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobRef(pub u32);

/// Index of a resource in the model (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResRef(pub u32);

impl TaskRef {
    /// The dense index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}
impl JobRef {
    /// The dense index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}
impl ResRef {
    /// The dense index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Which slot pool a task occupies — the paper's map/reduce task types with
/// their separate per-resource capacities (`c_r^mp` vs `c_r^rd`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotKind {
    /// Occupies map slots.
    Map,
    /// Occupies reduce slots; subject to the phase barrier (paper
    /// constraint 3).
    Reduce,
}

/// A job's SLA attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Earliest start time `s_j` (paper constraint 2).
    pub release: i64,
    /// End-to-end deadline `d_j` (paper constraint 4).
    pub deadline: i64,
    /// Heuristic priority steering which job the search and the greedy
    /// warm start try to place first (lower = first). The paper's job
    /// ordering strategies (§VI.B) map onto this: job id, deadline (EDF,
    /// the default set by [`ModelBuilder::add_job`]), or laxity.
    pub priority: i64,
}

/// One task to map and schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// Owning job.
    pub job: JobRef,
    /// Map or reduce.
    pub kind: SlotKind,
    /// Execution time `e_t` in ticks (> 0).
    pub dur: i64,
    /// Capacity requirement `q_t` (the paper uses 1).
    pub req: u32,
    /// Pinned placement for a task that has already started executing
    /// (paper §V.B: "add a new constraint that specifies the start time,
    /// end time, and assigned resource"). A pinned task is exempt from the
    /// release constraint, exactly like the paper's `isPrevScheduled` flag.
    pub fixed: Option<(ResRef, i64)>,
}

/// One resource with its two slot pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResSpec {
    /// Map slot capacity `c_r^mp`.
    pub map_cap: u32,
    /// Reduce slot capacity `c_r^rd`.
    pub reduce_cap: u32,
}

impl ResSpec {
    /// Capacity of the pool for `kind`.
    #[inline]
    pub fn cap(&self, kind: SlotKind) -> u32 {
        match kind {
            SlotKind::Map => self.map_cap,
            SlotKind::Reduce => self.reduce_cap,
        }
    }
}

/// Builder for a [`Model`]. Mirrors the OPL model's input tuple sets.
#[derive(Debug, Default, Clone)]
pub struct ModelBuilder {
    jobs: Vec<JobSpec>,
    tasks: Vec<TaskSpec>,
    resources: Vec<ResSpec>,
    horizon: Option<i64>,
}

impl ModelBuilder {
    /// An empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a resource with the given map/reduce slot capacities.
    pub fn add_resource(&mut self, map_cap: u32, reduce_cap: u32) -> ResRef {
        let r = ResRef(self.resources.len() as u32);
        self.resources.push(ResSpec {
            map_cap,
            reduce_cap,
        });
        r
    }

    /// Add a job with earliest start `release` and deadline `deadline`.
    /// The search priority defaults to the deadline (EDF ordering).
    pub fn add_job(&mut self, release: i64, deadline: i64) -> JobRef {
        self.add_job_with_priority(release, deadline, deadline)
    }

    /// Add a job with an explicit search priority (lower = scheduled
    /// first by the heuristics; completeness is unaffected).
    pub fn add_job_with_priority(&mut self, release: i64, deadline: i64, priority: i64) -> JobRef {
        let j = JobRef(self.jobs.len() as u32);
        self.jobs.push(JobSpec {
            release,
            deadline,
            priority,
        });
        j
    }

    /// Add a task of `job`.
    pub fn add_task(&mut self, job: JobRef, kind: SlotKind, dur: i64, req: u32) -> TaskRef {
        let t = TaskRef(self.tasks.len() as u32);
        self.tasks.push(TaskSpec {
            job,
            kind,
            dur,
            req,
            fixed: None,
        });
        t
    }

    /// Pin `task` to `resource` starting at `start` — the §V.B constraint
    /// for tasks that have started but not completed executing. The task is
    /// exempt from the job release constraint.
    pub fn fix_task(&mut self, task: TaskRef, resource: ResRef, start: i64) {
        self.tasks[task.idx()].fixed = Some((resource, start));
    }

    /// Override the scheduling horizon (start-time upper bound). Without an
    /// override a safe horizon is derived: every job could be serialized
    /// after the latest release.
    pub fn set_horizon(&mut self, horizon: i64) {
        self.horizon = Some(horizon);
    }

    /// Compile into an immutable [`Model`], validating the input.
    pub fn build(self) -> Result<Model, String> {
        if self.resources.is_empty() {
            return Err("model has no resources".into());
        }
        for (i, t) in self.tasks.iter().enumerate() {
            if t.dur <= 0 {
                return Err(format!("task {i} has nonpositive duration {}", t.dur));
            }
            if t.req == 0 {
                return Err(format!("task {i} has zero requirement"));
            }
            if t.job.idx() >= self.jobs.len() {
                return Err(format!("task {i} references unknown job {:?}", t.job));
            }
            let caps = &self.resources;
            if let Some((r, s)) = t.fixed {
                if r.idx() >= caps.len() {
                    return Err(format!("task {i} pinned to unknown resource {r:?}"));
                }
                if caps[r.idx()].cap(t.kind) < t.req {
                    return Err(format!(
                        "task {i} pinned to resource {r:?} lacking {:?} capacity",
                        t.kind
                    ));
                }
                let _ = s; // any start (including the past) is legal when pinned
            } else if !caps.iter().any(|c| c.cap(t.kind) >= t.req) {
                return Err(format!("no resource can host task {i} ({:?})", t.kind));
            }
        }
        // Note: `deadline < release` is legal — an open system can carry a
        // job that already blew its deadline while waiting; the formulation
        // just forces `N_j = 1` for it.

        // Per-job task lists.
        let mut maps_of = vec![Vec::new(); self.jobs.len()];
        let mut reduces_of = vec![Vec::new(); self.jobs.len()];
        for (i, t) in self.tasks.iter().enumerate() {
            match t.kind {
                SlotKind::Map => maps_of[t.job.idx()].push(TaskRef(i as u32)),
                SlotKind::Reduce => reduces_of[t.job.idx()].push(TaskRef(i as u32)),
            }
        }

        // Safe horizon: latest release + total outstanding work + longest
        // task. Any instance fits: serialize every task after the latest
        // release. Pinned tasks are excluded (their start is fixed).
        let horizon = self.horizon.unwrap_or_else(|| {
            let max_release = self
                .jobs
                .iter()
                .map(|j| j.release)
                .chain(
                    self.tasks
                        .iter()
                        .filter_map(|t| t.fixed.map(|f| f.1 + t.dur)),
                )
                .max()
                .unwrap_or(0);
            let total: i64 = self
                .tasks
                .iter()
                .filter(|t| t.fixed.is_none())
                .map(|t| t.dur)
                .sum();
            max_release.saturating_add(total).saturating_add(1)
        });

        Ok(Model {
            jobs: self.jobs,
            tasks: self.tasks,
            resources: self.resources,
            maps_of,
            reduces_of,
            horizon,
        })
    }
}

/// An immutable compiled problem instance.
#[derive(Debug, Clone)]
pub struct Model {
    /// Job SLAs.
    pub jobs: Vec<JobSpec>,
    /// All tasks across all jobs (the paper's master set `T`).
    pub tasks: Vec<TaskSpec>,
    /// The resource pool `R`.
    pub resources: Vec<ResSpec>,
    /// Map tasks of each job (`T_j^mp`).
    pub maps_of: Vec<Vec<TaskRef>>,
    /// Reduce tasks of each job (`T_j^rd`).
    pub reduces_of: Vec<Vec<TaskRef>>,
    /// Start-time upper bound.
    pub horizon: i64,
}

impl Model {
    /// Number of tasks.
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of jobs.
    pub fn n_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Number of resources.
    pub fn n_resources(&self) -> usize {
        self.resources.len()
    }

    /// Earliest permissible start of `task`: the job release for unpinned
    /// tasks (paper constraint 2, which MRCP-RM also applies to reduces via
    /// the barrier — the release is a valid lower bound for them too), the
    /// pinned start otherwise.
    pub fn task_release(&self, task: TaskRef) -> i64 {
        let t = &self.tasks[task.idx()];
        match t.fixed {
            Some((_, s)) => s,
            None => self.jobs[t.job.idx()].release,
        }
    }

    /// End time of `task` when started at `start`.
    #[inline]
    pub fn end_at(&self, task: TaskRef, start: i64) -> i64 {
        start + self.tasks[task.idx()].dur
    }

    /// All tasks of `job`, maps then reduces.
    pub fn tasks_of(&self, job: JobRef) -> impl Iterator<Item = TaskRef> + '_ {
        self.maps_of[job.idx()]
            .iter()
            .chain(self.reduces_of[job.idx()].iter())
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ModelBuilder {
        let mut b = ModelBuilder::new();
        b.add_resource(2, 1);
        b.add_resource(1, 1);
        let j = b.add_job(5, 100);
        b.add_task(j, SlotKind::Map, 10, 1);
        b.add_task(j, SlotKind::Reduce, 7, 1);
        b
    }

    #[test]
    fn build_collects_structure() {
        let m = small().build().unwrap();
        assert_eq!(m.n_tasks(), 2);
        assert_eq!(m.n_jobs(), 1);
        assert_eq!(m.n_resources(), 2);
        assert_eq!(m.maps_of[0], vec![TaskRef(0)]);
        assert_eq!(m.reduces_of[0], vec![TaskRef(1)]);
        assert_eq!(m.task_release(TaskRef(0)), 5);
        assert_eq!(m.end_at(TaskRef(0), 5), 15);
        assert_eq!(m.tasks_of(JobRef(0)).count(), 2);
    }

    #[test]
    fn default_horizon_fits_serialized_schedule() {
        let m = small().build().unwrap();
        // release 5 + (10 + 7) + 1 = 23
        assert_eq!(m.horizon, 23);
    }

    #[test]
    fn explicit_horizon_respected() {
        let mut b = small();
        b.set_horizon(1000);
        assert_eq!(b.build().unwrap().horizon, 1000);
    }

    #[test]
    fn pinned_task_release_is_its_start() {
        let mut b = small();
        b.fix_task(TaskRef(0), ResRef(1), 2); // started in the "past" (< release)
        let m = b.build().unwrap();
        assert_eq!(m.tasks[0].fixed, Some((ResRef(1), 2)));
        assert_eq!(m.task_release(TaskRef(0)), 2);
    }

    #[test]
    fn horizon_covers_pinned_ends() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(0, 500);
        b.add_task(j, SlotKind::Map, 10, 1);
        let t2 = b.add_task(j, SlotKind::Map, 10, 1);
        b.fix_task(t2, ResRef(0), 400);
        let m = b.build().unwrap();
        assert!(m.horizon >= 410 + 10, "horizon {} too small", m.horizon);
    }

    #[test]
    fn build_rejects_bad_input() {
        // no resources
        let mut b = ModelBuilder::new();
        let j = b.add_job(0, 1);
        b.add_task(j, SlotKind::Map, 1, 1);
        assert!(b.build().is_err());

        // nonpositive duration
        let mut b = small();
        let j = JobRef(0);
        b.add_task(j, SlotKind::Map, 0, 1);
        assert!(b.build().is_err());

        // deadline before release is LEGAL (a job already late on arrival)
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(10, 5);
        b.add_task(j, SlotKind::Map, 1, 1);
        assert!(b.build().is_ok());

        // reduce task with nowhere to run
        let mut b = ModelBuilder::new();
        b.add_resource(1, 0);
        let j = b.add_job(0, 10);
        b.add_task(j, SlotKind::Reduce, 1, 1);
        assert!(b.build().is_err());
    }

    #[test]
    fn pinning_to_incapable_resource_rejected() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 0);
        b.add_resource(1, 1);
        let j = b.add_job(0, 10);
        let t = b.add_task(j, SlotKind::Reduce, 1, 1);
        b.fix_task(t, ResRef(0), 0);
        assert!(b.build().is_err());
    }
}

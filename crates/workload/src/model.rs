//! The matchmaking-and-scheduling problem model (paper §III.A).
//!
//! A workload is a set of MapReduce jobs `J`; each job `j` carries a set of
//! map tasks, a set of reduce tasks, an earliest start time `s_j` and an
//! end-to-end deadline `d_j`. Each task has an execution time `e_t` and a
//! resource capacity requirement `q_t` (normally 1). The system is a set of
//! resources `R`, each with a map-slot capacity `c_r^mp` and a reduce-slot
//! capacity `c_r^rd`.

use desim::SimTime;
use serde::{Deserialize, Serialize};

/// Identifier of a job, unique within a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u32);

/// Identifier of a task, unique within a workload (not merely within a job).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId(pub u32);

/// Identifier of a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ResourceId(pub u32);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "j{}", self.0)
    }
}
impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}
impl std::fmt::Display for ResourceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Map or reduce phase membership of a task.
///
/// Mirrors the `type` field of the paper's OPL `Task` tuple (0 = map,
/// 1 = reduce).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// A map task, occupying one map slot while executing.
    Map,
    /// A reduce task, occupying one reduce slot; may start only after every
    /// map task of its job has completed.
    Reduce,
}

impl TaskKind {
    /// Human-readable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::Map => "map",
            TaskKind::Reduce => "reduce",
        }
    }
}

/// One map or reduce task (paper §III.A; OPL tuple
/// `Task = <id, parent job, type, execution time, resource requirement>`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Task {
    /// Workload-unique identifier.
    pub id: TaskId,
    /// The job this task belongs to (the OPL `parent job` field).
    pub job: JobId,
    /// Map or reduce.
    pub kind: TaskKind,
    /// Execution time `e_t`, including input read and shuffle as the paper
    /// states.
    pub exec_time: SimTime,
    /// Capacity requirement `q_t`; the paper sets this to 1 throughout.
    pub req: u32,
}

/// One MapReduce job with its SLA (paper §III.A; OPL tuple
/// `Job = <id, earliest start time, deadline>` plus the arrival time the
/// Java implementation adds).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Job {
    /// Workload-unique identifier.
    pub id: JobId,
    /// Arrival time `v_j` at which the job enters the system.
    pub arrival: SimTime,
    /// Earliest start time `s_j`: no task of the job may start before it.
    pub earliest_start: SimTime,
    /// End-to-end deadline `d_j` by which the whole job should complete.
    pub deadline: SimTime,
    /// The job's map tasks `T_j^mp` (possibly empty for map-only... reduce-only
    /// jobs do not occur; several Facebook job types are map-only).
    pub map_tasks: Vec<Task>,
    /// The job's reduce tasks `T_j^rd` (empty for map-only jobs).
    pub reduce_tasks: Vec<Task>,
}

impl Job {
    /// Iterate over all tasks, maps first.
    pub fn tasks(&self) -> impl Iterator<Item = &Task> + Clone {
        self.map_tasks.iter().chain(self.reduce_tasks.iter())
    }

    /// Total number of tasks.
    pub fn task_count(&self) -> usize {
        self.map_tasks.len() + self.reduce_tasks.len()
    }

    /// Sum of all task execution times (the job's total work).
    pub fn total_work(&self) -> SimTime {
        self.tasks().fold(SimTime::ZERO, |acc, t| acc + t.exec_time)
    }

    /// `TE`: the minimum execution time of the job assuming it has the whole
    /// system to itself — the longest map task followed by the longest
    /// reduce task when slots are plentiful (the critical path with
    /// unbounded parallelism). Used by Table 3 to set deadlines.
    ///
    /// If parallelism is bounded by `map_slots`/`reduce_slots`, the bound is
    /// the classic `max(longest task, total work / slots)` per phase; pass
    /// `u32::MAX` for the unbounded case.
    pub fn min_execution_time(&self, map_slots: u32, reduce_slots: u32) -> SimTime {
        phase_lower_bound(&self.map_tasks, map_slots)
            + phase_lower_bound(&self.reduce_tasks, reduce_slots)
    }

    /// Laxity `L_j = d_j - s_j - TE` with unbounded parallelism: how much
    /// slack the SLA leaves. Negative laxity means the deadline is
    /// unmeetable even alone on an infinite cluster.
    pub fn laxity(&self) -> SimTime {
        self.deadline - self.earliest_start - self.min_execution_time(u32::MAX, u32::MAX)
    }

    /// The first task id that appears a second time in the job, if any.
    pub fn repeated_task(&self) -> Option<TaskId> {
        let mut ids = std::collections::HashSet::with_capacity(self.task_count());
        self.tasks().map(|t| t.id).find(|&id| !ids.insert(id))
    }

    /// Validity check used by generators and the trace loader.
    pub fn validate(&self) -> Result<(), String> {
        if self.earliest_start < self.arrival {
            return Err(format!(
                "{}: earliest start {} precedes arrival {}",
                self.id, self.earliest_start, self.arrival
            ));
        }
        if self.deadline < self.earliest_start {
            return Err(format!(
                "{}: deadline {} precedes earliest start {}",
                self.id, self.deadline, self.earliest_start
            ));
        }
        if self.map_tasks.is_empty() && self.reduce_tasks.is_empty() {
            return Err(format!("{}: job has no tasks", self.id));
        }
        if let Some(id) = self.repeated_task() {
            return Err(format!("{}: task {id} appears twice", self.id));
        }
        for t in self.tasks() {
            if t.job != self.id {
                return Err(format!("{}: task {} has parent {}", self.id, t.id, t.job));
            }
            if t.exec_time <= SimTime::ZERO {
                return Err(format!(
                    "{}: task {} has nonpositive exec time",
                    self.id, t.id
                ));
            }
            if t.req == 0 {
                return Err(format!(
                    "{}: task {} has zero capacity requirement",
                    self.id, t.id
                ));
            }
        }
        for t in &self.map_tasks {
            if t.kind != TaskKind::Map {
                return Err(format!("{}: reduce task {} in map list", self.id, t.id));
            }
        }
        for t in &self.reduce_tasks {
            if t.kind != TaskKind::Reduce {
                return Err(format!("{}: map task {} in reduce list", self.id, t.id));
            }
        }
        Ok(())
    }
}

/// Lower bound on the makespan of a set of independent tasks on `slots`
/// identical slots: `max(longest task, ceil(total work / slots))`.
pub fn phase_lower_bound(tasks: &[Task], slots: u32) -> SimTime {
    if tasks.is_empty() {
        return SimTime::ZERO;
    }
    let longest = tasks
        .iter()
        .map(|t| t.exec_time)
        .max()
        .unwrap_or(SimTime::ZERO);
    if slots == u32::MAX {
        return longest;
    }
    let total: i64 = tasks.iter().map(|t| t.exec_time.as_millis()).sum();
    let avg = SimTime::from_millis((total + slots as i64 - 1) / slots as i64);
    longest.max(avg)
}

/// One resource (paper §III.A; OPL tuple
/// `Resource = <id, map capacity, reduce capacity>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Resource {
    /// Identifier.
    pub id: ResourceId,
    /// Map-slot capacity `c_r^mp`: map tasks runnable in parallel.
    pub map_capacity: u32,
    /// Reduce-slot capacity `c_r^rd`: reduce tasks runnable in parallel.
    pub reduce_capacity: u32,
}

impl Resource {
    /// Capacity for the given task kind.
    pub fn capacity(&self, kind: TaskKind) -> u32 {
        match kind {
            TaskKind::Map => self.map_capacity,
            TaskKind::Reduce => self.reduce_capacity,
        }
    }
}

/// Build a homogeneous cluster of `m` resources with the given capacities —
/// the system side of Table 3 (`m ∈ {25, 50, 100}`, `c^mp = c^rd = 2`) and of
/// the Facebook experiments (`m = 64`, `c^mp = c^rd = 1`).
pub fn homogeneous_cluster(m: u32, map_capacity: u32, reduce_capacity: u32) -> Vec<Resource> {
    (0..m)
        .map(|i| Resource {
            id: ResourceId(i),
            map_capacity,
            reduce_capacity,
        })
        .collect()
}

/// Build a heterogeneous cluster from per-node `(map, reduce)` capacities.
/// The paper's model (§III.A) already allows per-resource capacities; its
/// experiments only exercise homogeneous clusters, but MRCP-RM and the CP
/// formulation handle mixed nodes — including map-only (`reduce = 0`) or
/// reduce-only nodes — without changes.
pub fn heterogeneous_cluster(capacities: &[(u32, u32)]) -> Vec<Resource> {
    capacities
        .iter()
        .enumerate()
        .map(|(i, &(map_capacity, reduce_capacity))| Resource {
            id: ResourceId(i as u32),
            map_capacity,
            reduce_capacity,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: u32, job: u32, kind: TaskKind, secs: i64) -> Task {
        Task {
            id: TaskId(id),
            job: JobId(job),
            kind,
            exec_time: SimTime::from_secs(secs),
            req: 1,
        }
    }

    fn sample_job() -> Job {
        Job {
            id: JobId(1),
            arrival: SimTime::from_secs(10),
            earliest_start: SimTime::from_secs(12),
            deadline: SimTime::from_secs(100),
            map_tasks: vec![task(0, 1, TaskKind::Map, 5), task(1, 1, TaskKind::Map, 9)],
            reduce_tasks: vec![task(2, 1, TaskKind::Reduce, 4)],
        }
    }

    #[test]
    fn job_accessors() {
        let j = sample_job();
        assert_eq!(j.task_count(), 3);
        assert_eq!(j.total_work(), SimTime::from_secs(18));
        assert!(j.validate().is_ok());
    }

    #[test]
    fn min_execution_time_unbounded_is_critical_path() {
        let j = sample_job();
        // longest map (9) + longest reduce (4)
        assert_eq!(
            j.min_execution_time(u32::MAX, u32::MAX),
            SimTime::from_secs(13)
        );
    }

    #[test]
    fn min_execution_time_bounded_by_slots() {
        let j = sample_job();
        // 1 map slot: maps serialize = 14s; 1 reduce slot: 4s.
        assert_eq!(j.min_execution_time(1, 1), SimTime::from_secs(18));
        // 2 map slots: max(9, ceil(14/2)=7) = 9.
        assert_eq!(j.min_execution_time(2, 2), SimTime::from_secs(13));
    }

    #[test]
    fn laxity_subtracts_te() {
        let j = sample_job();
        // d=100, s=12, TE=13 → 75
        assert_eq!(j.laxity(), SimTime::from_secs(75));
    }

    #[test]
    fn phase_lower_bound_edge_cases() {
        assert_eq!(phase_lower_bound(&[], 4), SimTime::ZERO);
        let ts = vec![
            task(0, 0, TaskKind::Map, 3),
            task(1, 0, TaskKind::Map, 3),
            task(2, 0, TaskKind::Map, 3),
        ];
        // 2 slots: max(3000ms, ceil(9000ms/2) = 4500ms) = 4.5s
        assert_eq!(phase_lower_bound(&ts, 2), SimTime::from_millis(4500));
        assert_eq!(phase_lower_bound(&ts, u32::MAX), SimTime::from_secs(3));
    }

    #[test]
    fn validation_catches_errors() {
        let mut j = sample_job();
        j.deadline = SimTime::from_secs(5);
        assert!(j.validate().is_err());

        let mut j = sample_job();
        j.earliest_start = SimTime::from_secs(1);
        assert!(j.validate().is_err());

        let mut j = sample_job();
        j.map_tasks[0].job = JobId(9);
        assert!(j.validate().is_err());

        let mut j = sample_job();
        j.map_tasks[0].exec_time = SimTime::ZERO;
        assert!(j.validate().is_err());

        let mut j = sample_job();
        j.map_tasks.clear();
        j.reduce_tasks.clear();
        assert!(j.validate().is_err());

        let mut j = sample_job();
        j.reduce_tasks[0].kind = TaskKind::Map;
        assert!(j.validate().is_err());

        // A repeated task id, within a phase or across the two.
        let mut j = sample_job();
        j.map_tasks[1].id = TaskId(0);
        assert_eq!(j.validate(), Err("j1: task t0 appears twice".into()));
        let mut j = sample_job();
        j.reduce_tasks[0].id = TaskId(1);
        assert_eq!(j.validate(), Err("j1: task t1 appears twice".into()));
    }

    #[test]
    fn heterogeneous_cluster_shape() {
        let rs = heterogeneous_cluster(&[(4, 0), (2, 2), (0, 6)]);
        assert_eq!(rs.len(), 3);
        assert_eq!(rs[0].capacity(TaskKind::Map), 4);
        assert_eq!(rs[0].capacity(TaskKind::Reduce), 0);
        assert_eq!(rs[2].capacity(TaskKind::Map), 0);
        assert_eq!(rs[2].capacity(TaskKind::Reduce), 6);
        assert_eq!(rs[1].id, ResourceId(1));
    }

    #[test]
    fn homogeneous_cluster_shape() {
        let rs = homogeneous_cluster(64, 1, 1);
        assert_eq!(rs.len(), 64);
        assert!(rs
            .iter()
            .all(|r| r.map_capacity == 1 && r.reduce_capacity == 1));
        assert_eq!(rs[63].id, ResourceId(63));
        assert_eq!(rs[0].capacity(TaskKind::Map), 1);
        assert_eq!(rs[0].capacity(TaskKind::Reduce), 1);
    }
}

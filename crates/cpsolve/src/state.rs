//! Backtrackable solver state: domains and the trail.
//!
//! Start times use bounds domains (`[lb, ub]`) and per-job lateness
//! indicators are three-valued (`Unknown` / `OnTime` / `Late`). Every
//! narrowing is recorded on a trail so the search can restore state on
//! backtracking in O(changes).
//!
//! There is no assignment domain: the search solves §V.D's combined model,
//! whose one pool hosts every task, so the paper's `x_tr` is decided before
//! the search starts. A pinned task's resource is read from the model.

use crate::model::{JobRef, Model, TaskRef};

/// Domain wipe-out (or any constraint violation detected by a propagator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict;

/// Three-valued lateness status of a job (the paper's `N_j` before/after it
/// is decided).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lateness {
    /// Not yet decided.
    Unknown,
    /// `N_j = 0`: the job's deadline becomes a hard bound on its tasks.
    OnTime,
    /// `N_j = 1`: the job misses its deadline.
    Late,
}

#[derive(Debug, Clone, Copy)]
enum TrailEntry {
    StartLb(u32, i64),
    StartUb(u32, i64),
    Late(u32, Lateness),
    AppliedCut(u32),
}

/// The backtrackable domain store.
#[derive(Debug)]
pub struct Domains {
    start_lb: Vec<i64>,
    start_ub: Vec<i64>,
    late: Vec<Lateness>,
    trail: Vec<TrailEntry>,
    levels: Vec<usize>,
    /// Tasks whose domain changed since the engine last drained; drives the
    /// propagation worklist.
    dirty_tasks: Vec<TaskRef>,
    /// Jobs whose lateness changed since the engine last drained.
    dirty_jobs: Vec<JobRef>,
    /// Incremented on every [`pop_level`](Self::pop_level); lets stateful
    /// propagators (the incremental timetable) detect that the search
    /// jumped to a different path and their cached view is stale.
    generation: u64,
    /// Per-task monotone change stamp: bumped on every narrowing of the
    /// task's start bounds. A stateful propagator records
    /// the stamps it has seen and refreshes only tasks whose stamp moved.
    stamp: Vec<u64>,
    /// Global stamp counter backing [`stamp`](Self::stamp).
    next_stamp: u64,
    /// The tightest objective cut already propagated on the current path
    /// (trailed; `u32::MAX` = never). Maintained by the objective
    /// propagator so the engine re-enqueues it only when the cut actually
    /// tightened relative to this path.
    applied_cut: u32,
}

impl Domains {
    /// Root domains for `model`: unpinned tasks get `[release, horizon]`
    /// starts, pinned tasks a singleton start.
    pub fn new(model: &Model) -> Self {
        let n = model.n_tasks();
        let mut start_lb = Vec::with_capacity(n);
        let mut start_ub = Vec::with_capacity(n);
        for i in 0..n {
            let t = TaskRef(i as u32);
            let release = model.task_release(t);
            start_lb.push(release);
            let ub = match model.tasks[i].fixed {
                Some((_, s)) => s,
                None => model.horizon.max(release),
            };
            start_ub.push(ub);
        }
        Domains {
            start_lb,
            start_ub,
            late: vec![Lateness::Unknown; model.n_jobs()],
            trail: Vec::new(),
            levels: Vec::new(),
            dirty_tasks: Vec::new(),
            dirty_jobs: Vec::new(),
            generation: 0,
            stamp: vec![0; n],
            next_stamp: 0,
            applied_cut: u32::MAX,
        }
    }

    // ---- getters -------------------------------------------------------

    /// Current start lower bound of `t`.
    #[inline]
    pub fn lb(&self, t: TaskRef) -> i64 {
        self.start_lb[t.idx()]
    }

    /// Current start upper bound of `t`.
    #[inline]
    pub fn ub(&self, t: TaskRef) -> i64 {
        self.start_ub[t.idx()]
    }

    /// True when the start of `t` is fixed.
    #[inline]
    pub fn start_fixed(&self, t: TaskRef) -> bool {
        self.start_lb[t.idx()] == self.start_ub[t.idx()]
    }

    /// Lateness status of `j`.
    #[inline]
    pub fn late(&self, j: JobRef) -> Lateness {
        self.late[j.idx()]
    }

    /// Number of jobs currently marked late.
    pub fn late_count(&self) -> u32 {
        self.late.iter().filter(|&&l| l == Lateness::Late).count() as u32
    }

    /// Backtrack generation: changes exactly when [`pop_level`](Self::pop_level)
    /// runs. Stateful propagators compare it against the generation they
    /// cached under; a mismatch means the search moved to another path and
    /// incrementally-maintained state must be rebuilt from scratch.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Monotone change stamp of `t`: moves on every narrowing of its start
    /// bounds (never reverts on backtracking — a stale
    /// stamp only means "maybe changed", which pairs with
    /// [`generation`](Self::generation) for correctness).
    #[inline]
    pub fn task_stamp(&self, t: TaskRef) -> u64 {
        self.stamp[t.idx()]
    }

    #[inline]
    fn touch(&mut self, t: TaskRef) {
        self.next_stamp += 1;
        self.stamp[t.idx()] = self.next_stamp;
        self.dirty_tasks.push(t);
    }

    /// The tightest objective cut already propagated on the current path
    /// (`u32::MAX` = none). Trailed: backtracking reverts it, so a cut
    /// tightened deeper in the tree is correctly re-applied on sibling
    /// branches.
    #[inline]
    pub fn applied_cut(&self) -> u32 {
        self.applied_cut
    }

    /// Record that the objective cut `bound` has been propagated on the
    /// current path (trailed; monotone per path — attempts to loosen are
    /// ignored).
    pub fn note_applied_cut(&mut self, bound: u32) {
        if bound < self.applied_cut {
            self.trail.push(TrailEntry::AppliedCut(self.applied_cut));
            self.applied_cut = bound;
        }
    }

    // ---- trailed updates -----------------------------------------------

    /// Raise the start lower bound of `t` to `v`. Returns whether the domain
    /// changed; fails on wipe-out.
    pub fn set_lb(&mut self, t: TaskRef, v: i64) -> Result<bool, Conflict> {
        let i = t.idx();
        if v <= self.start_lb[i] {
            return Ok(false);
        }
        if v > self.start_ub[i] {
            return Err(Conflict);
        }
        self.trail.push(TrailEntry::StartLb(t.0, self.start_lb[i]));
        self.start_lb[i] = v;
        self.touch(t);
        Ok(true)
    }

    /// Lower the start upper bound of `t` to `v`.
    pub fn set_ub(&mut self, t: TaskRef, v: i64) -> Result<bool, Conflict> {
        let i = t.idx();
        if v >= self.start_ub[i] {
            return Ok(false);
        }
        if v < self.start_lb[i] {
            return Err(Conflict);
        }
        self.trail.push(TrailEntry::StartUb(t.0, self.start_ub[i]));
        self.start_ub[i] = v;
        self.touch(t);
        Ok(true)
    }

    /// Fix the start of `t` to `v`.
    pub fn fix_start(&mut self, t: TaskRef, v: i64) -> Result<bool, Conflict> {
        let a = self.set_lb(t, v)?;
        let b = self.set_ub(t, v)?;
        Ok(a || b)
    }

    /// Decide the lateness of `j`. Contradicting an earlier decision fails.
    pub fn set_late(&mut self, j: JobRef, v: Lateness) -> Result<bool, Conflict> {
        assert!(v != Lateness::Unknown, "cannot un-decide lateness");
        let i = j.idx();
        match self.late[i] {
            Lateness::Unknown => {
                self.trail.push(TrailEntry::Late(j.0, Lateness::Unknown));
                self.late[i] = v;
                self.dirty_jobs.push(j);
                Ok(true)
            }
            cur if cur == v => Ok(false),
            _ => Err(Conflict),
        }
    }

    // ---- search bookkeeping ---------------------------------------------

    /// Open a new decision level.
    pub fn push_level(&mut self) {
        self.levels.push(self.trail.len());
    }

    /// Undo everything since the matching [`push_level`](Self::push_level).
    pub fn pop_level(&mut self) {
        let mark = self.levels.pop().expect("pop_level without push_level");
        while self.trail.len() > mark {
            match self.trail.pop().unwrap() {
                TrailEntry::StartLb(t, v) => self.start_lb[t as usize] = v,
                TrailEntry::StartUb(t, v) => self.start_ub[t as usize] = v,
                TrailEntry::Late(j, v) => self.late[j as usize] = v,
                TrailEntry::AppliedCut(v) => self.applied_cut = v,
            }
        }
        self.generation += 1;
        // Dirty queues are only meaningful within a propagation round; a
        // backtrack invalidates them wholesale.
        self.dirty_tasks.clear();
        self.dirty_jobs.clear();
    }

    /// Current decision depth.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Drain the tasks dirtied since the last drain.
    ///
    /// Allocates fresh queues; the search hot path uses
    /// [`drain_dirty_into`](Self::drain_dirty_into) instead, which reuses
    /// caller-owned buffers.
    pub fn drain_dirty(&mut self) -> (Vec<TaskRef>, Vec<JobRef>) {
        (
            std::mem::take(&mut self.dirty_tasks),
            std::mem::take(&mut self.dirty_jobs),
        )
    }

    /// Drain the dirty queues into caller-owned buffers (cleared first).
    /// Both the internal queues and the output buffers keep their
    /// capacity, so steady-state propagation performs no allocation.
    pub fn drain_dirty_into(&mut self, tasks: &mut Vec<TaskRef>, jobs: &mut Vec<JobRef>) {
        tasks.clear();
        jobs.clear();
        tasks.append(&mut self.dirty_tasks);
        jobs.append(&mut self.dirty_jobs);
    }

    /// Discard pending dirty entries in place, keeping queue capacity.
    pub fn clear_dirty(&mut self) {
        self.dirty_tasks.clear();
        self.dirty_jobs.clear();
    }

    /// True when nothing is pending in the dirty queues.
    pub fn dirty_is_empty(&self) -> bool {
        self.dirty_tasks.is_empty() && self.dirty_jobs.is_empty()
    }

    /// Number of entries pending in the dirty queues, tasks and jobs
    /// together: a run that leaves it unchanged narrowed nothing.
    pub fn pending_dirty(&self) -> usize {
        self.dirty_tasks.len() + self.dirty_jobs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ModelBuilder, SlotKind};

    fn model() -> Model {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(3, 50);
        b.add_task(j, SlotKind::Map, 5, 1);
        b.add_task(j, SlotKind::Reduce, 5, 1);
        b.set_horizon(100);
        b.build().unwrap()
    }

    #[test]
    fn initial_domains() {
        let m = model();
        let d = Domains::new(&m);
        assert_eq!(d.lb(TaskRef(0)), 3);
        assert_eq!(d.ub(TaskRef(0)), 100);
        assert_eq!(d.late(JobRef(0)), Lateness::Unknown);
        for t in [TaskRef(0), TaskRef(1)] {
            assert!(!d.start_fixed(t));
        }
    }

    #[test]
    fn bound_updates_and_conflicts() {
        let m = model();
        let mut d = Domains::new(&m);
        let t = TaskRef(0);
        assert!(d.set_lb(t, 10).unwrap());
        assert!(!d.set_lb(t, 5).unwrap(), "weaker bound is a no-op");
        assert!(d.set_ub(t, 20).unwrap());
        assert_eq!(d.set_lb(t, 21), Err(Conflict));
        assert!(d.fix_start(t, 15).unwrap());
        assert!(d.start_fixed(t));
    }

    #[test]
    fn lateness_transitions() {
        let m = model();
        let mut d = Domains::new(&m);
        let j = JobRef(0);
        assert!(d.set_late(j, Lateness::OnTime).unwrap());
        assert!(!d.set_late(j, Lateness::OnTime).unwrap());
        assert_eq!(d.set_late(j, Lateness::Late), Err(Conflict));
        assert_eq!(d.late_count(), 0);
    }

    #[test]
    fn backtracking_restores_everything() {
        let m = model();
        let mut d = Domains::new(&m);
        let t = TaskRef(0);
        d.push_level();
        d.set_lb(t, 10).unwrap();
        d.set_ub(t, 40).unwrap();
        d.set_late(JobRef(0), Lateness::Late).unwrap();
        assert_eq!(d.late_count(), 1);
        d.push_level();
        d.fix_start(t, 12).unwrap();
        assert_eq!(d.depth(), 2);
        d.pop_level();
        assert_eq!(d.lb(t), 10);
        assert!(!d.start_fixed(t));
        d.pop_level();
        assert_eq!(d.lb(t), 3);
        assert_eq!(d.ub(t), 100);
        assert_eq!(d.late(JobRef(0)), Lateness::Unknown);
        assert_eq!(d.depth(), 0);
    }

    #[test]
    fn dirty_queue_tracks_changes() {
        let m = model();
        let mut d = Domains::new(&m);
        assert!(d.dirty_is_empty());
        d.set_lb(TaskRef(0), 4).unwrap();
        d.set_late(JobRef(0), Lateness::Late).unwrap();
        let (ts, js) = d.drain_dirty();
        assert_eq!(ts, vec![TaskRef(0)]);
        assert_eq!(js, vec![JobRef(0)]);
        assert!(d.dirty_is_empty());
    }

    #[test]
    fn generation_moves_only_on_pop() {
        let m = model();
        let mut d = Domains::new(&m);
        let g0 = d.generation();
        d.push_level();
        d.set_lb(TaskRef(0), 10).unwrap();
        assert_eq!(d.generation(), g0, "narrowing does not change generation");
        d.pop_level();
        assert_ne!(d.generation(), g0, "pop changes generation");
    }

    #[test]
    fn stamps_move_on_every_narrowing_and_survive_pops() {
        let m = model();
        let mut d = Domains::new(&m);
        let t = TaskRef(0);
        let s0 = d.task_stamp(t);
        d.push_level();
        d.set_lb(t, 10).unwrap();
        let s1 = d.task_stamp(t);
        assert_ne!(s0, s1);
        d.set_ub(t, 40).unwrap();
        let s2 = d.task_stamp(t);
        assert_ne!(s1, s2);
        d.pop_level();
        // Stamps are monotone (never rewound); generation covers the pop.
        assert_eq!(d.task_stamp(t), s2);
        // Untouched tasks keep their stamp.
        assert_eq!(d.task_stamp(TaskRef(1)), 0);
    }

    #[test]
    fn applied_cut_is_trailed() {
        let m = model();
        let mut d = Domains::new(&m);
        assert_eq!(d.applied_cut(), u32::MAX);
        d.push_level();
        d.note_applied_cut(3);
        assert_eq!(d.applied_cut(), 3);
        d.note_applied_cut(5); // looser: ignored
        assert_eq!(d.applied_cut(), 3);
        d.push_level();
        d.note_applied_cut(1);
        assert_eq!(d.applied_cut(), 1);
        d.pop_level();
        assert_eq!(d.applied_cut(), 3);
        d.pop_level();
        assert_eq!(d.applied_cut(), u32::MAX);
    }

    #[test]
    fn pinned_task_domains_are_singletons() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(10, 50);
        let t = b.add_task(j, SlotKind::Map, 5, 1);
        b.fix_task(t, crate::model::ResRef(0), 2);
        let m = b.build().unwrap();
        let d = Domains::new(&m);
        assert_eq!(d.lb(t), 2);
        assert_eq!(d.ub(t), 2);
        assert!(d.start_fixed(t));
    }
}

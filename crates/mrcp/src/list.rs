//! The manager's one list scheduler: greedy EDF's rule with no CP model.
//!
//! [`greedy_edf`] books every pinned task first, in task-index order, then
//! places whole jobs one at a time in `(priority, deadline, release, index)`
//! order through [`Calendar::place`], so a job's placement depends on no job
//! after it. [`ListSchedule`] runs that rule on a [`Calendar`] for the split
//! rung's warm start ([`crate::split::warm_start`], one calendar over the
//! combined slot totals: `combined`), the greedy rung ([`greedy`]) and the
//! admission witness ([`crate::admission`]), both on one calendar per up
//! resource ([`per_resource`]). They differ only in how a resource id maps
//! to a calendar index. Debug builds check every walk against `greedy_edf`
//! over the matching model.
//!
//! [`greedy_edf`]: cpsolve::greedy::greedy_edf

use crate::modelmap::{kind_to_slot, JobInput, TaskInput};
use crate::split::RoundHints;
use cpsolve::greedy::{Calendar, Free};
use desim::SimTime;
use workload::{Resource, ResourceId, TaskId, TaskKind};

/// A job's place in the list order: `(priority, deadline, release)` in
/// milliseconds, ties to the lower input index.
pub type ListKey = (i64, i64, i64);

/// A model input's [`ListKey`].
pub fn key(input: &JobInput<'_>) -> ListKey {
    let (deadline, release) = (input.job.deadline.as_millis(), input.release.as_millis());
    (input.priority, deadline, release)
}

/// One walk. `book` takes the jobs in input order, books their running
/// tasks and keeps each job whose key sorts at or before the cut (every job
/// without one); `place` places the kept jobs. With the cut at the last
/// job's key, that job is placed last, and no job after it in the full walk
/// could have moved it.
///
/// The walk fails exactly where `greedy_edf` over the matching model, or
/// the model's build, fails: there is no calendar, a task has `req ≠ 1` or
/// a non-positive duration, a pin names a resource with no calendar or no
/// free slot of its kind, or a free task has no slot of its kind anywhere.
pub struct ListSchedule<J, F> {
    cal: Calendar,
    /// A pinned or hinted task's resource id to its calendar index.
    calendar_of: F,
    /// Some calendar has a map (`[0]`) or a reduce (`[1]`) slot.
    hosts: [bool; 2],
    cut: Option<ListKey>,
    /// The kept jobs in input order: key, first flattened task index, handle.
    kept: Vec<(ListKey, usize, J)>,
    failed: bool,
    n_tasks: usize,
    /// Whether `placed` is filled: with no cut (a cut walk's caller reads
    /// only the completion), and in debug builds for `assert_matches_model`.
    records: bool,
    /// Each booked task's `(calendar, start)` by flattened index: a pin's
    /// from `book`, a free task's from `place`, which leaves `None` for
    /// the free tasks of a job it did not keep.
    pub(crate) placed: Vec<Option<(usize, i64)>>,
    /// Debug builds: the last job's first flattened task index.
    #[cfg(debug_assertions)]
    last_job: usize,
}

/// One calendar over the combined map and reduce slot totals, which every
/// resource id maps to.
pub(crate) fn combined<J: Copy>(
    resources: &[Resource],
) -> ListSchedule<J, impl Fn(ResourceId) -> Option<usize>> {
    let map_total: u32 = resources.iter().map(|r| r.map_capacity).sum();
    let reduce_total: u32 = resources.iter().map(|r| r.reduce_capacity).sum();
    let caps = std::iter::once((map_total, reduce_total));
    ListSchedule::new(caps, |_| Some(0), None)
}

/// One calendar per resource, in order, looked up by id.
pub fn per_resource<'r, J: Copy>(
    resources: impl Iterator<Item = &'r Resource> + Clone,
    cut: Option<ListKey>,
) -> ListSchedule<J, impl Fn(ResourceId) -> Option<usize>> {
    let mut index: Vec<_> = resources
        .clone()
        .enumerate()
        .map(|(k, r)| (r.id, k))
        .collect();
    index.sort_unstable();
    let calendar_of = move |id| {
        let k = index.binary_search_by_key(&id, |e| e.0).ok()?;
        Some(index[k].1)
    };
    let caps = resources.map(|r| (r.map_capacity, r.reduce_capacity));
    ListSchedule::new(caps, calendar_of, cut)
}

impl<J: Copy, F: Fn(ResourceId) -> Option<usize>> ListSchedule<J, F> {
    fn new(
        caps: impl Iterator<Item = (u32, u32)> + Clone,
        calendar_of: F,
        cut: Option<ListKey>,
    ) -> Self {
        ListSchedule {
            hosts: [caps.clone().any(|c| c.0 > 0), caps.clone().any(|c| c.1 > 0)],
            failed: caps.clone().next().is_none(),
            cal: Calendar::new(caps),
            calendar_of,
            records: cut.is_none() || cfg!(debug_assertions),
            cut,
            kept: Vec::new(),
            n_tasks: 0,
            placed: Vec::new(),
            #[cfg(debug_assertions)]
            last_job: 0,
        }
    }

    /// Book one job's outstanding `tasks`, in order: its running tasks go
    /// onto their calendars, and the job is kept when there is no cut, or
    /// when `key` is the cut or before it with a free task (no caller of a
    /// cut walk reads a pin, and a job with nothing free places nothing).
    pub(crate) fn book(&mut self, job: J, key: ListKey, tasks: impl Iterator<Item = TaskInput>) {
        let first = self.n_tasks;
        #[cfg(debug_assertions)]
        {
            self.last_job = first;
        }
        let mut free = false;
        for t in tasks {
            self.n_tasks += 1;
            free |= t.pinned.is_none();
            let (dur, kind) = (t.exec_time.as_millis(), kind_to_slot(t.kind));
            let pin = t
                .pinned
                .and_then(|(rid, s)| Some(((self.calendar_of)(rid)?, s.as_millis())));
            let ok = t.req == 1
                && dur > 0
                && match (t.pinned, pin) {
                    (None, _) => self.hosts[kind as usize],
                    (Some(_), Some((c, start))) => self.cal.pin(kind, c, start, dur),
                    (Some(_), None) => false,
                };
            self.failed |= !ok;
            if self.records {
                self.placed.push(pin);
            }
        }
        if self.cut.is_none_or(|cut| key < cut && free || key == cut) {
            self.kept.push((key, first, job));
        }
    }

    /// Place the kept jobs in key order, ties in input order, each job's
    /// free tasks through [`Calendar::place`] from its release, honouring
    /// the valid `hints` (per flattened task index), and record the free
    /// tasks in [`ListSchedule::placed`]. `tasks_of` gives a job's tasks as `book`
    /// had them. Returns the completion of the job placed last (`i64::MIN`
    /// when none is), or `None` when the walk fails.
    pub(crate) fn place<I: Iterator<Item = TaskInput>>(
        &mut self,
        tasks_of: impl Fn(J) -> I,
        hints: Option<&RoundHints>,
    ) -> Option<i64> {
        if self.failed {
            return None;
        }
        let mut kept = std::mem::take(&mut self.kept);
        // Stable: a key tie keeps the input order.
        kept.sort_by_key(|&(key, ..)| key);
        let (mut maps, mut reduces) = (Vec::new(), Vec::new());
        let mut completion = i64::MIN;
        for (key, first, job) in kept {
            maps.clear();
            reduces.clear();
            let mut running_maps_end = i64::MIN;
            for (task, t) in (first..).zip(tasks_of(job)) {
                let dur = t.exec_time.as_millis();
                if let Some((_, start)) = t.pinned {
                    if t.kind == TaskKind::Map {
                        running_maps_end = running_maps_end.max(start.as_millis() + dur);
                    }
                    continue;
                }
                let at = hints
                    .and_then(|h| h.get(task).copied().flatten())
                    .and_then(|(rid, s)| Some(((self.calendar_of)(rid)?, s.as_millis())));
                let free = Free { task, dur, at };
                match t.kind {
                    TaskKind::Map => maps.push(free),
                    TaskKind::Reduce => reduces.push(free),
                }
            }
            let Ok(end) = self
                .cal
                .place(key.2, running_maps_end, &mut maps, &mut reduces)
            else {
                self.failed = true;
                return None;
            };
            completion = end;
            if self.records {
                for f in maps.iter().chain(&reduces) {
                    self.placed[f.task] = f.at;
                }
            }
        }
        Some(completion)
    }

    /// Debug builds, after [`ListSchedule::place`]: every task placed is
    /// where `greedy_edf` over `model` (with `hints` mapped as the walk maps
    /// them) puts it, every task is placed when there is no cut (and the
    /// last job's, whose key is the cut, when there is), and the walk
    /// failed exactly where the model's build or its greedy fails.
    /// `model` builds the model whose resources are the walk's calendars.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_matches_model(
        &self,
        model: impl FnOnce() -> Result<crate::modelmap::MappedModel, String>,
        hints: Option<&RoundHints>,
    ) {
        use cpsolve::{greedy::greedy_edf, greedy::greedy_edf_with_hints, model::ResRef};
        let greedy = model().and_then(|mm| match hints {
            None => greedy_edf(&mm.model),
            Some(h) => {
                let at = |(r, s): (ResourceId, SimTime)| {
                    Some((ResRef((self.calendar_of)(r)? as u32), s.as_millis()))
                };
                let hints: Vec<_> = h.iter().map(|o| o.and_then(at)).collect();
                greedy_edf_with_hints(&mm.model, &hints)
            }
        });
        assert_eq!(self.failed, greedy.is_err(), "model greedy: {greedy:?}");
        let Ok(g) = greedy else { return };
        for (t, placed) in self.placed.iter().enumerate() {
            let model = Some((g.resource[t].idx(), g.starts[t]));
            let cut = placed.is_none() && self.cut.is_some() && t < self.last_job;
            assert!(*placed == model || cut, "task {t}: {placed:?} vs {model:?}");
        }
    }
}

impl<'a, 'b, F: Fn(ResourceId) -> Option<usize>> ListSchedule<&'a JobInput<'b>, F> {
    /// Book every job of `jobs` in order, then place them; the completion
    /// of the job placed last (see `place`).
    pub fn schedule(
        &mut self,
        jobs: &'a [JobInput<'b>],
        hints: Option<&RoundHints>,
    ) -> Option<i64> {
        for input in jobs {
            self.book(input, key(input), input.tasks.iter().copied());
        }
        self.place(|input| input.tasks.iter().copied(), hints)
    }
}

/// The greedy rung: the walk on one calendar per resource, as `(task,
/// resource, start)` in flattened input order; `None` when it fails.
pub fn greedy(
    resources: &[Resource],
    jobs: &[JobInput<'_>],
) -> Option<Vec<(TaskId, ResourceId, SimTime)>> {
    let mut walk = per_resource(resources.iter(), None);
    let done = walk.schedule(jobs, None);
    #[cfg(debug_assertions)]
    walk.assert_matches_model(|| crate::modelmap::build_model(resources, jobs), None);
    done?;
    let tasks = jobs.iter().flat_map(|input| &input.tasks);
    let placed = tasks.zip(&walk.placed).map(|(t, p)| {
        let (c, s) = p.expect("a walk with no cut places every task");
        (t.id, resources[c].id, SimTime::from_millis(s))
    });
    Some(placed.collect())
}

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
//! The objective counts late jobs, and under overload plain EDF is the
//! worst order for a count: one job too many makes every job with a later
//! deadline late. When the warm start's plain walk leaves a job late, the
//! split rung walks again with Moore's rejection rule
//! (`ListSchedule::schedule_rejecting`; Moore 1968, exact for 1‖ΣU_j):
//! at a late job it rejects the placed job with the most free work and
//! places the rejected jobs last. The walk takes a [`Calendar::mark`]
//! before each job, so a rejection undoes the calendar to the victim's
//! mark and re-places only the jobs after it, never the prefix. The
//! rescue rule keeps a rejection honest: a victim rejected for a job that
//! is still late when the walk reaches it again comes back, and that job
//! is rejected instead. Debug builds check every re-placed suffix against
//! a walk from scratch with the same rejected jobs last. The greedy rung
//! and the admission witness keep plain EDF. The witness's cut walk places
//! no job after the candidate because in plain EDF no later job can move
//! it; a rejection places a job after every other, which breaks that. The
//! greedy rung is the ladder's floor, and stays the walk debug builds
//! check against `greedy_edf` on the full model.
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
    /// The kept jobs: key, position among the kept in input order, first
    /// flattened task index, handle. In input order until placing starts,
    /// then in list order.
    kept: Vec<(ListKey, usize, usize, J)>,
    failed: bool,
    n_tasks: usize,
    /// Whether `placed` is filled: with no cut (a cut walk's caller reads
    /// only the completion), and in debug builds for `assert_matches_model`.
    records: bool,
    /// Each booked task's `(calendar, start)` by flattened index: a pin's
    /// from `book`, a free task's from `place`, which leaves `None` for
    /// the free tasks of a job it did not keep.
    pub(crate) placed: Vec<Option<(usize, i64)>>,
    /// One job's free maps and reduces on their way to the calendar.
    free: (Vec<Free<usize>>, Vec<Free<usize>>),
    /// Debug builds: the last job's first flattened task index.
    #[cfg(debug_assertions)]
    last_job: usize,
    /// Debug builds: the calendars' capacities, for a walk from scratch.
    #[cfg(debug_assertions)]
    caps: Vec<(u32, u32)>,
}

/// The most jobs [`ListSchedule::schedule_rejecting`] rejects in one walk.
const MAX_REJECTIONS: usize = 64;

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
            calendar_of,
            records: cut.is_none() || cfg!(debug_assertions),
            cut,
            kept: Vec::new(),
            n_tasks: 0,
            placed: Vec::new(),
            free: (Vec::new(), Vec::new()),
            #[cfg(debug_assertions)]
            last_job: 0,
            #[cfg(debug_assertions)]
            caps: caps.clone().collect(),
            cal: Calendar::new(caps),
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
            self.kept.push((key, self.kept.len(), first, job));
        }
    }

    /// Put the kept jobs in list order: by key, ties in input order.
    fn sort_kept(&mut self) {
        self.kept.sort_unstable_by_key(|&(key, pos, ..)| (key, pos));
    }

    /// Place the kept jobs in list order, each job's free tasks through
    /// [`Calendar::place`] from its release, honouring the valid `hints`
    /// (per flattened task index), and record the free tasks in
    /// [`ListSchedule::placed`]. `tasks_of` gives a job's tasks as `book`
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
        self.sort_kept();
        let mut completion = i64::MIN;
        for k in 0..self.kept.len() {
            completion = self.place_job(k, &tasks_of, hints)?;
        }
        Some(completion)
    }

    /// Place the kept job at list position `k` as [`ListSchedule::place`]
    /// places each: its completion, or `None` (and the walk failed) when a
    /// free task has no slot of its kind.
    fn place_job<I: Iterator<Item = TaskInput>>(
        &mut self,
        k: usize,
        tasks_of: &impl Fn(J) -> I,
        hints: Option<&RoundHints>,
    ) -> Option<i64> {
        let (key, _, first, job) = self.kept[k];
        let (maps, reduces) = &mut self.free;
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
        let Ok(end) = self.cal.place(key.2, running_maps_end, maps, reduces) else {
            self.failed = true;
            return None;
        };
        if self.records {
            for f in maps.iter().chain(reduces.iter()) {
                self.placed[f.task] = f.at;
            }
        }
        Some(end)
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
        self.book_all(jobs);
        self.place(tasks_of, hints)
    }

    /// Book every job of `jobs` in order.
    fn book_all(&mut self, jobs: &'a [JobInput<'b>]) {
        self.kept.reserve(jobs.len());
        if self.records {
            self.placed
                .reserve(jobs.iter().map(|j| j.tasks.len()).sum());
        }
        for input in jobs {
            self.book(input, key(input), input.tasks.iter().copied());
        }
    }

    /// [`ListSchedule::schedule`] with Moore's rejection rule: the walk
    /// places the jobs in list order, taking a calendar mark before each.
    /// At a late job `j` whose pins alone do not make it late, it rejects
    /// the placed job `v` with the most free work (ties to the later
    /// deadline, then the later list position; `v` may be `j`), undoes the
    /// calendar to `v`'s mark and re-places only the jobs after `v`. If `j`
    /// is still late when the walk reaches it again, `v` comes back and `j`
    /// is rejected instead. After [`MAX_REJECTIONS`] rejections late jobs
    /// stay where they fall. The rejected jobs go last, in list order.
    /// `None` when the walk fails, where `schedule` fails.
    pub(crate) fn schedule_rejecting(
        &mut self,
        jobs: &'a [JobInput<'b>],
        hints: Option<&RoundHints>,
    ) -> Option<()> {
        self.book_all(jobs);
        if self.failed {
            return None;
        }
        self.sort_kept();
        let n = self.kept.len();
        // Per list position: deadline, free work, and whether the job's
        // pins alone end after its deadline.
        let jobs_at: Vec<(i64, i64, bool)> = (self.kept.iter())
            .map(|&(.., input)| {
                let free = input.tasks.iter().filter(|t| t.pinned.is_none());
                let free_work = free.map(|t| t.exec_time.as_millis()).sum();
                (input.job.deadline.as_millis(), free_work, pins_late(input))
            })
            .collect();
        let mut rejected = vec![false; n];
        let mut marks = Vec::with_capacity(n);
        // `(v, j)`: `v` was rejected for `j`, which the walk has not
        // reached since.
        let mut rescue: Option<(usize, usize)> = None;
        let mut rejections = 0;
        let mut k = 0;
        while k < n {
            marks.truncate(k);
            marks.push(self.cal.mark());
            if rejected[k] {
                k += 1;
                continue;
            }
            self.place_job(k, &tasks_of, hints)?;
            let (deadline, _, pins_late) = jobs_at[k];
            let due = rescue.filter(|&(_, j)| j == k);
            if due.is_some() {
                rescue = None;
            }
            let stuck = pins_late || rejections == MAX_REJECTIONS;
            if !self.is_late(k, deadline) || due.is_none() && stuck {
                k += 1;
                continue;
            }
            #[cfg(debug_assertions)]
            self.assert_matches_scratch(jobs, hints, (0..=k).filter(|&i| !rejected[i]));
            // Back to `v`'s mark: a rescued `v` is placed again and `k`
            // goes instead; a new victim `v` is skipped.
            let v = match due {
                Some((v, _)) => {
                    rejected[v] = false;
                    rejected[k] = true;
                    v
                }
                None => {
                    rejections += 1;
                    let v = (0..=k)
                        .filter(|&i| !rejected[i])
                        .max_by_key(|&i| {
                            let (deadline, free_work, _) = jobs_at[i];
                            (free_work, deadline, i)
                        })
                        .expect("k itself is placed");
                    rejected[v] = true;
                    rescue = (v != k).then_some((v, k));
                    v
                }
            };
            self.cal.undo(marks[v]);
            k = v;
        }
        for k in (0..n).filter(|&k| rejected[k]) {
            self.place_job(k, &tasks_of, hints)?;
        }
        #[cfg(debug_assertions)]
        {
            let (kept, last) = (0..n).partition::<Vec<_>, _>(|&k| !rejected[k]);
            self.assert_matches_scratch(jobs, hints, kept.into_iter().chain(last));
        }
        Some(())
    }

    /// Whether the job at list position `k`, placed, ends after `deadline`.
    fn is_late(&self, k: usize, deadline: i64) -> bool {
        let (.., first, input) = self.kept[k];
        let placed = &self.placed[first..first + input.tasks.len()];
        (input.tasks.iter().zip(placed))
            .any(|(t, p)| p.expect("a placed job's tasks").1 + t.exec_time.as_millis() > deadline)
    }

    /// Debug builds, inside [`ListSchedule::schedule_rejecting`]: every
    /// job of `order` (list positions) is where a walk from scratch that
    /// places exactly `order`, in that order, puts it, so undoing and
    /// re-placing only the suffix changed nothing.
    #[cfg(debug_assertions)]
    fn assert_matches_scratch(
        &self,
        jobs: &'a [JobInput<'b>],
        hints: Option<&RoundHints>,
        order: impl Iterator<Item = usize> + Clone,
    ) {
        let mut scratch = ListSchedule::new(self.caps.iter().copied(), &self.calendar_of, None);
        scratch.book_all(jobs);
        scratch.sort_kept();
        for k in order.clone() {
            scratch.place_job(k, &tasks_of, hints).expect("placed once");
        }
        for k in order {
            let (.., first, input) = self.kept[k];
            let own = first..first + input.tasks.len();
            assert_eq!(
                self.placed[own.clone()],
                scratch.placed[own],
                "job {:?} after an undo",
                input.job.id
            );
        }
    }
}

/// Whether `input`'s running tasks alone end after its deadline: no
/// rejection of other jobs can make it on time.
pub(crate) fn pins_late(input: &JobInput<'_>) -> bool {
    let pins = input.tasks.iter().filter_map(|t| {
        let (_, start) = t.pinned?;
        Some(start.as_millis() + t.exec_time.as_millis())
    });
    pins.max() > Some(input.job.deadline.as_millis())
}

/// A model input's tasks, as [`ListSchedule::book`] takes them.
fn tasks_of<'a>(input: &'a JobInput<'_>) -> std::iter::Copied<std::slice::Iter<'a, TaskInput>> {
    input.tasks.iter().copied()
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

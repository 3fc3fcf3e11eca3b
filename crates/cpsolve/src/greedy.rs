//! Greedy EDF list scheduler: the slot [`Calendar`] every list walk books
//! on, and [`greedy_edf`], the walk over a model.
//!
//! Jobs are taken earliest-deadline-first; within a job, maps are placed
//! longest-first at the earliest feasible slot time, then reduces behind the
//! job's last map end. The result is always a feasible schedule (deadlines
//! are *not* hard here — late jobs are simply counted). Passed to the
//! search as its incumbent (`SolveParams::initial`), it gives the solver an
//! immediate upper bound on `Σ N_j` and lets the objective cut prune from
//! the first node, mirroring how a CP Optimizer run benefits from a
//! starting point. The manager walks the same [`Calendar`] without a model
//! (`mrcp::list`); `greedy_edf` is the reference its checks compare with.
//!
//! Only unit capacity requirements (`q_t = 1`, the paper's setting) are
//! supported; a model with larger requirements has no greedy schedule.
//!
//! Running tasks are booked first, and in a rescheduling round they all
//! overlap `now`, so first-fit would put the k-th pin on a resource into
//! its slot k after probing k busy slots. A pool books such pins in O(1):
//! while it holds nothing but pins, each resource counts its pins and
//! keeps the window they all share, and a pin that meets that window goes
//! straight into the next slot. Any other booking turns this off for the
//! pool (debug builds check every fast pin against first-fit).
//!
//! A walk that wants to take bookings back asks for an undo trail with
//! [`Calendar::mark`]: from then on each booking logs its slot, its
//! position in the slot's busy list and the slot's previous `max_gap`, and
//! [`Calendar::undo`] pops them in LIFO order, which restores every busy
//! list and its summary exactly. A calendar that never marks keeps no
//! trail.

use crate::model::{Model, ResRef, SlotKind, TaskRef};
use crate::solution::Solution;

/// Busy intervals of one slot, kept sorted by start, with a summary of the
/// calendar: the longest idle gap between two busy intervals.
///
/// Durations are positive (`ModelBuilder::build` rejects the rest) and the
/// greedy books only free time, so the intervals are disjoint and their ends
/// are sorted too. A task longer than every inner gap then fits only before
/// the first interval or after the last one: [`Slot::earliest_fit`] and
/// [`Slot::fits`] answer that case from the two ends of `busy` without
/// walking it.
#[derive(Debug, Default, Clone, PartialEq)]
struct Slot {
    busy: Vec<(i64, i64)>,
    /// Longest `next.start − prev.end` over adjacent busy intervals (0 with
    /// fewer than two).
    max_gap: i64,
}

impl Slot {
    /// The first start and the last end of the busy list when a task of
    /// `dur` fits no gap between two busy intervals, so that it can only go
    /// before the first or after the last; `None` when it may fit a gap or
    /// the slot is idle.
    fn ends_if_no_gap_fits(&self, dur: i64) -> Option<(i64, i64)> {
        match (self.busy.first(), self.busy.last()) {
            (Some(&(first_start, _)), Some(&(_, last_end))) if dur > self.max_gap => {
                Some((first_start, last_end))
            }
            _ => None,
        }
    }

    /// Earliest `s ≥ t0` such that `[s, s+dur)` avoids every busy interval.
    fn earliest_fit(&self, t0: i64, dur: i64) -> i64 {
        let Some((first_start, last_end)) = self.ends_if_no_gap_fits(dur) else {
            return self.earliest_fit_walk(t0, dur);
        };
        let s = if t0 + dur <= first_start {
            t0
        } else {
            t0.max(last_end)
        };
        debug_assert_eq!(
            s,
            self.earliest_fit_walk(t0, dur),
            "{self:?} t0={t0} dur={dur}"
        );
        s
    }

    /// [`Slot::earliest_fit`] by walking the busy list from the start.
    fn earliest_fit_walk(&self, t0: i64, dur: i64) -> i64 {
        let mut s = t0;
        for &(bs, be) in &self.busy {
            if bs >= s + dur {
                break; // gap before this interval fits
            }
            if be > s {
                s = be; // collide: jump past
            }
        }
        s
    }

    /// True when `[start, start+dur)` is free.
    fn fits(&self, start: i64, dur: i64) -> bool {
        let Some((first_start, last_end)) = self.ends_if_no_gap_fits(dur) else {
            return self.fits_walk(start, dur);
        };
        let free = start + dur <= first_start || start >= last_end;
        debug_assert_eq!(
            free,
            self.fits_walk(start, dur),
            "{self:?} start={start} dur={dur}"
        );
        free
    }

    /// [`Slot::fits`] by checking every busy interval.
    fn fits_walk(&self, start: i64, dur: i64) -> bool {
        self.busy
            .iter()
            .all(|&(bs, be)| be <= start || bs >= start + dur)
    }

    /// Insert `[start, start+dur)` keeping order, and refresh `max_gap`.
    /// Returns the interval's position in `busy` and the `max_gap` before.
    fn insert(&mut self, start: i64, dur: i64) -> (usize, i64) {
        let pos = self.busy.partition_point(|&(bs, _)| bs < start);
        self.busy.insert(pos, (start, start + dur));
        let gap = self.max_gap;
        self.max_gap = self
            .busy
            .windows(2)
            .map(|w| w[1].0 - w[0].1)
            .max()
            .unwrap_or(0);
        (pos, gap)
    }
}

/// One logged booking of a [`Pool`]: its flat slot, its position in that
/// slot's busy list and the slot's `max_gap` before it.
#[derive(Debug, Clone, Copy)]
struct Booked {
    slot: usize,
    pos: usize,
    max_gap: i64,
}

/// Slot calendars of one task kind, flattened: resource `r`'s `cap(r, kind)`
/// slots are `slots[first[r]..first[r + 1]]`, so the slot order is resource
/// order, then slot order within a resource.
///
/// Every caller books its running tasks before any free task, and running
/// tasks mostly all overlap the round's `now`. While nothing but pins has
/// been booked, `pins[r]` holds how many pins resource `r` has and the
/// window `[lo, hi)` they all share: each of its first `n` slots then holds
/// exactly one of them, so a new pin that meets the window collides with
/// every one and first-fit would put it in slot `n`. Any other booking
/// empties `pins` and every later pin takes first-fit.
#[derive(Debug)]
struct Pool {
    slots: Vec<Slot>,
    first: Vec<usize>,
    /// Per resource `(n, lo, hi)` while only pins have been booked; empty
    /// once anything else has.
    pins: Vec<(usize, i64, i64)>,
    /// Every booking since the first [`Pool::mark`], oldest first; `None`
    /// until then.
    trail: Option<Vec<Booked>>,
}

impl Pool {
    fn new(caps: impl Iterator<Item = u32>) -> Self {
        let mut first = vec![0];
        for cap in caps {
            first.push(first[first.len() - 1] + cap as usize);
        }
        Pool {
            slots: vec![Slot::default(); first[first.len() - 1]],
            pins: vec![(0, i64::MIN, i64::MAX); first.len() - 1],
            first,
            trail: None,
        }
    }

    /// Book `[start, start+dur)` into flat slot `si`, logged when the pool
    /// keeps a trail.
    fn insert(&mut self, si: usize, start: i64, dur: i64) {
        let (pos, max_gap) = self.slots[si].insert(start, dur);
        if let Some(trail) = &mut self.trail {
            trail.push(Booked {
                slot: si,
                pos,
                max_gap,
            });
        }
    }

    /// The trail's length, starting the trail if there is none. The pin
    /// fast path goes off for good: an undone pin would leave its window
    /// count behind, and first-fit books the same slot.
    fn mark(&mut self) -> usize {
        self.pins.clear();
        self.trail.get_or_insert_with(Vec::new).len()
    }

    /// Take back every booking logged after `mark`, newest first.
    fn undo(&mut self, mark: usize) {
        let trail = self.trail.as_mut().expect("undo follows a mark");
        for b in trail.drain(mark..).rev() {
            let slot = &mut self.slots[b.slot];
            slot.busy.remove(b.pos);
            slot.max_gap = b.max_gap;
        }
    }

    /// Book a running task on resource `r` as [`Pool::book_on`] does: in
    /// O(1) while the pins-only window holds, else by first-fit.
    fn pin(&mut self, r: usize, start: i64, dur: i64) -> bool {
        if let Some(&(n, lo, hi)) = self.pins.get(r) {
            let (lo, hi) = (lo.max(start), hi.min(start + dur));
            if lo < hi {
                let slot = self.first[r] + n;
                let free = slot < self.first[r + 1];
                debug_assert_eq!(
                    free.then_some(slot),
                    self.first_fit(r, start, dur),
                    "pin fast path r={r} start={start} dur={dur}"
                );
                if free {
                    self.insert(slot, start, dur);
                    self.pins[r] = (n + 1, lo, hi);
                }
                return free;
            }
        }
        self.book_on(r, start, dur)
    }

    /// The first slot of resource `r` free over `[start, start+dur)`.
    fn first_fit(&self, r: usize, start: i64, dur: i64) -> Option<usize> {
        let (&lo, &hi) = (self.first.get(r)?, self.first.get(r + 1)?);
        (lo..hi).find(|&si| self.slots[si].fits(start, dur))
    }

    /// The resource that owns flat slot `slot`.
    fn resource_of(&self, slot: usize) -> usize {
        self.first.partition_point(|&f| f <= slot) - 1
    }

    /// Book `[start, start+dur)` in the first slot of resource `r` that is
    /// free over it; false when none is (or `r` is out of range). Turns the
    /// pin fast path off.
    fn book_on(&mut self, r: usize, start: i64, dur: i64) -> bool {
        self.pins.clear();
        match self.first_fit(r, start, dur) {
            Some(si) => {
                self.insert(si, start, dur);
                true
            }
            None => false,
        }
    }

    /// Best `(slot, start)`: earliest start, ties to the lower slot index.
    /// Stops at the first slot free at `t0`.
    fn best_fit(&self, t0: i64, dur: i64) -> Option<(usize, i64)> {
        let mut best: Option<(usize, i64)> = None;
        for (si, slot) in self.slots.iter().enumerate() {
            let s = slot.earliest_fit(t0, dur);
            if best.is_none_or(|(_, bs)| s < bs) {
                best = Some((si, s));
            }
            if s == t0 {
                // Nothing starts earlier, and every slot before this one
                // fits later.
                break;
            }
        }
        debug_assert_eq!(best, self.best_fit_scan(t0, dur));
        best
    }

    /// [`Pool::best_fit`] over every slot, without the `t0` exit.
    fn best_fit_scan(&self, t0: i64, dur: i64) -> Option<(usize, i64)> {
        let mut best: Option<(usize, i64)> = None;
        for (si, slot) in self.slots.iter().enumerate() {
            let s = slot.earliest_fit_walk(t0, dur);
            if best.is_none_or(|(_, bs)| s < bs) {
                best = Some((si, s));
            }
        }
        best
    }

    /// Book `dur` at the best fit from `floor`: `(resource, start)`, or
    /// `None` when the pool has no slot.
    fn fit(&mut self, floor: i64, dur: i64) -> Option<(usize, i64)> {
        self.pins.clear();
        let (si, s) = self.best_fit(floor, dur)?;
        self.insert(si, s, dur);
        Some((self.resource_of(si), s))
    }
}

/// The greedy's slot calendar of a cluster and its list-scheduling rule.
///
/// Each resource has `cap(r, kind)` slots per task kind, each a busy list.
/// A resource without capacity for a kind has no slot of it, so it is never
/// a candidate for that kind, and no resource count is too large. The
/// calendar needs no [`Model`]: [`greedy_edf`] runs on one built from the
/// model's resources, and the manager's list scheduler (`mrcp::list`) on
/// one built from the up resources or from their combined slot totals.
#[derive(Debug)]
pub struct Calendar {
    map: Pool,
    reduce: Pool,
}

/// A point in a [`Calendar`]'s bookings that [`Calendar::undo`] returns to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark([usize; 2]);

/// A free task handed to [`Calendar::place`]. `task` names it to the
/// caller. `at` holds a suggested `(resource, start)` on entry (a hint, or
/// `None`) and the task's placement after a successful `place`.
#[derive(Debug, Clone, Copy)]
pub struct Free<T> {
    /// The caller's name for the task.
    pub task: T,
    /// Its duration (positive).
    pub dur: i64,
    /// Hint in, placement out.
    pub at: Option<(usize, i64)>,
}

impl Calendar {
    /// Empty calendars for resources with these `(map, reduce)` slot
    /// capacities, in resource-index order.
    pub fn new(caps: impl Iterator<Item = (u32, u32)> + Clone) -> Calendar {
        Calendar {
            map: Pool::new(caps.clone().map(|c| c.0)),
            reduce: Pool::new(caps.map(|c| c.1)),
        }
    }

    fn pool(&mut self, kind: SlotKind) -> &mut Pool {
        match kind {
            SlotKind::Map => &mut self.map,
            SlotKind::Reduce => &mut self.reduce,
        }
    }

    /// Book a running task over `[start, start+dur)` in the first slot of
    /// `resource` free over it. False when there is none: the resource is
    /// out of range, lacks capacity for `kind`, or earlier pins fill it.
    pub fn pin(&mut self, kind: SlotKind, resource: usize, start: i64, dur: i64) -> bool {
        self.pool(kind).pin(resource, start, dur)
    }

    /// The calendar as it is now, to [`Calendar::undo`] back to. The first
    /// mark starts the trail: every later booking is logged.
    pub fn mark(&mut self) -> Mark {
        Mark([self.map.mark(), self.reduce.mark()])
    }

    /// Take back every booking made since `mark`, newest first, leaving
    /// each busy list and its longest gap as they were at `mark`. Marks
    /// taken after `mark` are spent.
    pub fn undo(&mut self, mark: Mark) {
        self.map.undo(mark.0[0]);
        self.reduce.undo(mark.0[1]);
    }

    /// Book one free task of `kind` at its earliest start at or after
    /// `floor`, ties to the lower resource and slot: `(resource, start)`,
    /// or `None` when no resource has a slot of `kind`. The kernel's own
    /// callers go through [`Calendar::place`]; the tests drive it directly.
    #[cfg(test)]
    fn fit(&mut self, kind: SlotKind, floor: i64, dur: i64) -> Option<(usize, i64)> {
        self.pool(kind).fit(floor, dur)
    }

    /// Place one job's free tasks: its maps longest-first from `release`,
    /// then its reduces longest-first behind the map barrier, the latest
    /// end among its maps (`running_maps_end` covers its running ones;
    /// `i64::MIN` when none runs) and never before `release`. Within each
    /// kind, valid hints book first and the rest take the best fit (ties
    /// keep the input order). Returns the job's completion when none of its
    /// reduces is running: the later of the barrier and its last reduce
    /// end. `Err` names the first task no resource has a slot for.
    pub fn place<T: Copy>(
        &mut self,
        release: i64,
        running_maps_end: i64,
        maps: &mut [Free<T>],
        reduces: &mut [Free<T>],
    ) -> Result<i64, T> {
        let barrier = place_kind(&mut self.map, release, maps)?
            .max(running_maps_end)
            .max(release);
        Ok(place_kind(&mut self.reduce, barrier, reduces)?.max(barrier))
    }
}

/// [`Calendar::place`] for one kind: sort `tasks` longest-first, book the
/// valid hints (start at or after `floor`, a free slot on the resource),
/// then best-fit the rest from `floor`. Returns the latest end placed
/// (`i64::MIN` for none). Hinted placements book first so heuristic ones
/// do not squat on the slots a replayed round needs.
fn place_kind<T: Copy>(pool: &mut Pool, floor: i64, tasks: &mut [Free<T>]) -> Result<i64, T> {
    tasks.sort_by_key(|t| std::cmp::Reverse(t.dur));
    for t in tasks.iter_mut() {
        let dur = t.dur;
        t.at = t.at.filter(|&(r, s)| s >= floor && pool.book_on(r, s, dur));
    }
    let mut end = i64::MIN;
    for t in tasks.iter_mut() {
        let (_, s) = match t.at {
            Some(at) => at,
            None => *t.at.insert(pool.fit(floor, t.dur).ok_or(t.task)?),
        };
        end = end.max(s + t.dur);
    }
    Ok(end)
}

/// Schedule `model` greedily. Fails when a pinned task cannot be honoured
/// (capacity conflict among pinned tasks) or when a task has `q_t > 1`.
///
/// ```
/// use cpsolve::model::{ModelBuilder, SlotKind};
/// use cpsolve::greedy::greedy_edf;
///
/// let mut b = ModelBuilder::new();
/// b.add_resource(2, 1);
/// let j = b.add_job(0, 100);
/// b.add_task(j, SlotKind::Map, 10, 1);
/// b.add_task(j, SlotKind::Map, 10, 1);
/// b.add_task(j, SlotKind::Reduce, 5, 1);
/// let model = b.build().unwrap();
///
/// let schedule = greedy_edf(&model).unwrap();
/// schedule.verify(&model).unwrap();       // independent feasibility check
/// assert_eq!(schedule.makespan(&model), 15); // maps parallel, reduce behind
/// ```
pub fn greedy_edf(model: &Model) -> Result<Solution, String> {
    greedy_edf_core(model, None)
}

/// A placement suggestion for one task: `Some((resource, start))` replays
/// a previous round's decision, `None` leaves the task to the heuristic.
pub type Hint = Option<(ResRef, i64)>;

/// [`greedy_edf`] seeded with per-task placement hints (`hints[i]` is the
/// suggestion for task `i` — typically the previous scheduling round's
/// assignment, re-based by the caller).
///
/// A hint is honoured only when it is still valid in this round's model:
/// the start must respect the job's release (maps) or the map barrier
/// (reduces), the resource must exist and have capacity for the task's
/// kind, and a free slot must exist at that time. Stale hints silently
/// fall back to the normal best-fit rule, so the result is always a
/// feasible schedule.
pub fn greedy_edf_with_hints(model: &Model, hints: &[Hint]) -> Result<Solution, String> {
    debug_assert_eq!(hints.len(), model.n_tasks());
    greedy_edf_core(model, Some(hints))
}

fn greedy_edf_core(model: &Model, hints: Option<&[Hint]>) -> Result<Solution, String> {
    if model.tasks.iter().any(|t| t.req != 1) {
        return Err("greedy scheduler supports unit capacity requirements only".into());
    }
    let mut starts = vec![0i64; model.n_tasks()];
    let mut resource = vec![ResRef(0); model.n_tasks()];
    // Every pinned task booked first, in task-index order.
    let mut cal = Calendar::new(model.resources.iter().map(|r| (r.map_cap, r.reduce_cap)));
    for (i, spec) in model.tasks.iter().enumerate() {
        if let Some((r, s)) = spec.fixed {
            if !cal.pin(spec.kind, r.idx(), s, spec.dur) {
                return Err(format!("pinned task {i} overloads resource {r:?}"));
            }
            starts[i] = s;
            resource[i] = r;
        }
    }

    // Priority order over jobs (EDF by default); stable tie-break on
    // deadline, release, then index. After the pinned tasks, each job is
    // placed whole in this order, so a job's placement depends on no job
    // after it: `mrcp::list` relies on that to place no job after the
    // admission witness's candidate, and the differential tests in
    // `mrcp/tests/proptest_{manager,split}.rs` guard this key.
    let mut order: Vec<usize> = (0..model.n_jobs()).collect();
    order.sort_by_key(|&j| {
        (
            model.jobs[j].priority,
            model.jobs[j].deadline,
            model.jobs[j].release,
            j,
        )
    });

    let free = |tasks: &[TaskRef], out: &mut Vec<Free<TaskRef>>| {
        out.clear();
        out.extend(
            tasks
                .iter()
                .filter(|t| model.tasks[t.idx()].fixed.is_none())
                .map(|&t| Free {
                    task: t,
                    dur: model.tasks[t.idx()].dur,
                    at: hints
                        .and_then(|h| h.get(t.idx()).copied().flatten())
                        .map(|(r, s)| (r.idx(), s)),
                }),
        );
    };
    let (mut maps, mut reduces) = (Vec::new(), Vec::new());
    for j in order {
        free(&model.maps_of[j], &mut maps);
        free(&model.reduces_of[j], &mut reduces);
        let running_maps_end = model.maps_of[j]
            .iter()
            .filter_map(|t| {
                let spec = &model.tasks[t.idx()];
                spec.fixed.map(|(_, s)| s + spec.dur)
            })
            .max()
            .unwrap_or(i64::MIN);
        cal.place(
            model.jobs[j].release,
            running_maps_end,
            &mut maps,
            &mut reduces,
        )
        .map_err(|t| format!("no resource can host task {t:?}"))?;
        for f in maps.iter().chain(&reduces) {
            let (r, s) = f.at.expect("a successful place books every task");
            starts[f.task.idx()] = s;
            resource[f.task.idx()] = ResRef(r as u32);
        }
    }

    Ok(Solution::from_placements(model, starts, resource))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{JobRef, ModelBuilder, SlotKind};

    #[test]
    fn single_job_schedules_tight() {
        let mut b = ModelBuilder::new();
        b.add_resource(2, 1);
        let j = b.add_job(0, 100);
        b.add_task(j, SlotKind::Map, 10, 1);
        b.add_task(j, SlotKind::Map, 10, 1);
        b.add_task(j, SlotKind::Reduce, 5, 1);
        let m = b.build().unwrap();
        let s = greedy_edf(&m).unwrap();
        s.verify(&m).unwrap();
        assert_eq!(s.objective, 0);
        // Both maps in parallel, reduce right behind: makespan 15.
        assert_eq!(s.makespan(&m), 15);
    }

    #[test]
    fn edf_prioritizes_urgent_job() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let relaxed = b.add_job(0, 1000);
        b.add_task(relaxed, SlotKind::Map, 10, 1);
        let urgent = b.add_job(0, 12);
        b.add_task(urgent, SlotKind::Map, 10, 1);
        let m = b.build().unwrap();
        let s = greedy_edf(&m).unwrap();
        s.verify(&m).unwrap();
        // The urgent job (later id, earlier deadline) goes first and meets
        // its deadline; the relaxed one follows and still meets its own.
        assert_eq!(s.objective, 0);
        assert_eq!(s.job_completion(&m, JobRef(1)), 10);
        assert_eq!(s.job_completion(&m, JobRef(0)), 20);
    }

    #[test]
    fn respects_release_times() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(25, 100);
        b.add_task(j, SlotKind::Map, 10, 1);
        let m = b.build().unwrap();
        let s = greedy_edf(&m).unwrap();
        s.verify(&m).unwrap();
        assert_eq!(s.starts[0], 25);
    }

    #[test]
    fn schedules_around_pinned_tasks() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(0, 100);
        let pinned = b.add_task(j, SlotKind::Map, 10, 1);
        b.add_task(j, SlotKind::Map, 5, 1);
        b.fix_task(pinned, ResRef(0), 0);
        let m = b.build().unwrap();
        let s = greedy_edf(&m).unwrap();
        s.verify(&m).unwrap();
        assert_eq!(s.starts[0], 0, "pinned stays");
        assert_eq!(s.starts[1], 10, "free map waits for the slot");
    }

    #[test]
    fn conflicting_pins_are_an_error() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(0, 100);
        let a = b.add_task(j, SlotKind::Map, 10, 1);
        let c = b.add_task(j, SlotKind::Map, 10, 1);
        b.fix_task(a, ResRef(0), 0);
        b.fix_task(c, ResRef(0), 5);
        let m = b.build().unwrap();
        assert!(greedy_edf(&m).is_err());
    }

    #[test]
    fn overload_counts_late_jobs_instead_of_failing() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        // Two jobs, both due by 12, both needing the single slot for 10.
        for _ in 0..2 {
            let j = b.add_job(0, 12);
            b.add_task(j, SlotKind::Map, 10, 1);
        }
        let m = b.build().unwrap();
        let s = greedy_edf(&m).unwrap();
        s.verify(&m).unwrap();
        assert_eq!(s.objective, 1, "one of the two must be late");
    }

    #[test]
    fn req_above_one_is_rejected() {
        let mut b = ModelBuilder::new();
        b.add_resource(4, 4);
        let j = b.add_job(0, 100);
        b.add_task(j, SlotKind::Map, 10, 2);
        let m = b.build().unwrap();
        assert!(greedy_edf(&m).is_err());
    }

    #[test]
    fn valid_hints_are_replayed_verbatim() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        b.add_resource(1, 1);
        let j = b.add_job(0, 100);
        b.add_task(j, SlotKind::Map, 10, 1);
        b.add_task(j, SlotKind::Map, 10, 1);
        let m = b.build().unwrap();
        // Best-fit would spread the maps over both resources at t=0; the
        // hints serialize them on resource 1 instead.
        let hints = vec![Some((ResRef(1), 5)), Some((ResRef(1), 20))];
        let s = greedy_edf_with_hints(&m, &hints).unwrap();
        s.verify(&m).unwrap();
        assert_eq!(s.resource, vec![ResRef(1), ResRef(1)]);
        assert_eq!(s.starts, vec![5, 20]);
    }

    #[test]
    fn stale_hints_fall_back_to_best_fit() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(10, 100);
        b.add_task(j, SlotKind::Map, 10, 1);
        b.add_task(j, SlotKind::Map, 10, 1);
        let m = b.build().unwrap();
        // First hint starts before the release; second names a resource
        // that no longer exists. Both must be ignored, not crash.
        let hints = vec![Some((ResRef(0), 0)), Some((ResRef(7), 10))];
        let s = greedy_edf_with_hints(&m, &hints).unwrap();
        s.verify(&m).unwrap();
        let unhinted = greedy_edf(&m).unwrap();
        assert_eq!(s.objective, unhinted.objective);
    }

    #[test]
    fn slot_gap_search_finds_holes() {
        let mut s = Slot::default();
        s.insert(10, 10); // [10,20)
        s.insert(30, 10); // [30,40)
        assert_eq!(s.earliest_fit(0, 5), 0);
        assert_eq!(s.earliest_fit(0, 10), 0);
        assert_eq!(s.earliest_fit(0, 11), 40); // 0..11 collides, 20..31 collides
        assert_eq!(s.earliest_fit(12, 5), 20);
        assert!(s.fits(20, 10));
        assert!(!s.fits(15, 10));
    }

    #[test]
    fn booking_into_a_hole_shrinks_the_longest_gap() {
        let mut s = Slot::default();
        s.insert(0, 10); // [0,10)
        s.insert(30, 10); // [30,40): gap 20
        s.insert(50, 10); // [50,60): gap 10
        assert_eq!(s.max_gap, 20);
        s.insert(12, 5); // into the hole: gaps 2, 13, 10
        assert_eq!(s.busy, vec![(0, 10), (12, 17), (30, 40), (50, 60)]);
        assert_eq!(s.max_gap, 13);
        assert_eq!(s.earliest_fit(0, 14), 60, "longer than every gap");
        assert_eq!(s.earliest_fit(0, 13), 17);
        assert!(!s.fits(17, 14));
        assert!(s.fits(60, 14));
        assert!(s.fits(-14, 14), "before the first interval");
    }

    #[test]
    fn task_that_just_fits_an_inner_gap_takes_it() {
        let mut s = Slot::default();
        s.insert(0, 10); // [0,10)
        s.insert(20, 10); // [20,30): gap 10
        assert_eq!(s.earliest_fit(0, 10), 10);
        assert_eq!(s.earliest_fit(0, 11), 30);
        assert_eq!(s.earliest_fit(15, 10), 30, "the gap starts too early");
        assert!(s.fits(10, 10));
        assert!(!s.fits(10, 11));
        assert!(!s.fits(11, 10));
    }

    #[test]
    fn t0_exit_takes_the_lowest_free_slot() {
        // Three resources of two map slots: flat slot 2r + k.
        let mut pool = Pool::new([2, 2, 2].into_iter());
        pool.slots[0].insert(0, 10);
        pool.slots[5].insert(0, 10);
        assert_eq!(pool.best_fit(0, 5), Some((1, 0)));
        pool.slots[1].insert(0, 3);
        pool.slots[2].insert(0, 10);
        assert_eq!(pool.best_fit(0, 5), Some((3, 0)));
        assert_eq!(pool.resource_of(3), 1);
        pool.slots[3].insert(0, 3);
        pool.slots[4].insert(0, 3);
        // Nothing is free at 0: the earliest start wins, ties to the
        // lowest index.
        assert_eq!(pool.best_fit(0, 5), Some((1, 3)));
    }

    /// Each slot's busy intervals, in slot order.
    fn busy_of(pool: &Pool) -> Vec<Vec<(i64, i64)>> {
        pool.slots.iter().map(|s| s.busy.clone()).collect()
    }

    #[test]
    fn pins_sharing_an_instant_take_the_next_slot() {
        let mut pool = Pool::new([3].into_iter());
        assert!(pool.pin(0, 0, 10));
        assert!(pool.pin(0, 5, 10));
        assert!(pool.pin(0, 2, 4));
        assert_eq!(busy_of(&pool), [[(0, 10)], [(5, 15)], [(2, 6)]]);
        assert_eq!(pool.pins, [(3, 5, 6)]);
        assert!(!pool.pin(0, 5, 1), "every slot holds an overlapping pin");
        assert_eq!(pool.pins, [(3, 5, 6)], "a refused pin changes nothing");

        // Per resource: flat slots 0–1 on resource 0, 2–4 on resource 1.
        let mut pool = Pool::new([2, 3].into_iter());
        for (r, start) in [(1, 0), (0, 3), (1, 2), (0, 1), (1, 4)] {
            assert!(pool.pin(r, start, 10));
        }
        assert_eq!(
            busy_of(&pool),
            [[(3, 13)], [(1, 11)], [(0, 10)], [(2, 12)], [(4, 14)]]
        );
        assert_eq!(pool.pins, [(2, 3, 11), (3, 4, 10)]);
    }

    #[test]
    fn a_pin_outside_the_window_falls_back_to_first_fit_for_good() {
        let mut pool = Pool::new([3].into_iter());
        assert!(pool.pin(0, 10, 10));
        // Ends exactly where the window starts: it shares no instant with
        // the first pin, so first-fit puts it beside it in slot 0.
        assert!(pool.pin(0, 0, 10));
        assert!(pool.pins.is_empty(), "the fast path is off");
        assert_eq!(busy_of(&pool), [vec![(0, 10), (10, 20)], vec![], vec![]]);
        // A pin that meets every earlier one still goes by first-fit.
        assert!(pool.pin(0, 5, 10));
        assert!(pool.pin(0, 15, 2));
        assert_eq!(
            busy_of(&pool),
            [vec![(0, 10), (10, 20)], vec![(5, 15), (15, 17)], vec![]]
        );
        assert!(pool.pins.is_empty());
    }

    #[test]
    fn a_hint_or_best_fit_between_pins_turns_the_fast_path_off() {
        let mut cal = Calendar::new([(3, 3)].into_iter());
        assert!(cal.pin(SlotKind::Map, 0, 0, 10));
        let mut hinted = [Free {
            task: 0,
            dur: 10,
            at: Some((0, 5)),
        }];
        cal.place(0, i64::MIN, &mut hinted, &mut []).unwrap();
        assert!(cal.map.pins.is_empty(), "a hint books through first-fit");
        assert_eq!(cal.reduce.pins, [(0, i64::MIN, i64::MAX)]);
        // The pin meets the first one's window, but slot 1 now holds the
        // hint: first-fit, not the next slot, takes it.
        assert!(cal.pin(SlotKind::Map, 0, 8, 1));
        assert_eq!(busy_of(&cal.map), [[(0, 10)], [(5, 15)], [(8, 9)]]);

        assert!(cal.pin(SlotKind::Reduce, 0, 0, 10));
        assert_eq!(cal.fit(SlotKind::Reduce, 0, 3), Some((0, 0)));
        assert!(cal.reduce.pins.is_empty(), "a best fit turns it off too");
        assert!(cal.pin(SlotKind::Reduce, 0, 2, 3));
        assert_eq!(busy_of(&cal.reduce), [[(0, 10)], [(0, 3)], [(2, 5)]]);
    }

    /// Each slot (busy list and longest gap), in slot order, per pool.
    fn calendar_of(cal: &Calendar) -> [Vec<Slot>; 2] {
        [cal.map.slots.clone(), cal.reduce.slots.clone()]
    }

    #[test]
    fn undo_leaves_the_calendar_as_if_never_booked() {
        let free = |task, dur, at| Free { task, dur, at };
        let jobs: [(i64, [i64; 3], i64); 4] = [
            (0, [7, 3, 5], 4),
            (2, [2, 9, 1], 6),
            (1, [4, 4, 4], 3),
            (5, [8, 1, 2], 2),
        ];
        let place = |cal: &mut Calendar, (release, maps, reduce): (i64, [i64; 3], i64), hint| {
            let mut maps = maps.map(|d| free(0, d, hint));
            let mut reduces = [free(1, reduce, None)];
            let done = cal.place(release, i64::MIN, &mut maps, &mut reduces);
            (done.unwrap(), maps.map(|f| f.at), reduces[0].at)
        };
        let pinned = || {
            let mut cal = Calendar::new([(2, 1), (1, 2)].into_iter());
            assert!(cal.pin(SlotKind::Map, 0, -3, 6));
            assert!(cal.pin(SlotKind::Reduce, 1, -1, 4));
            cal
        };
        let (mut undone, mut fresh) = (pinned(), pinned());
        place(&mut undone, jobs[0], None);
        let at_one = undone.mark();
        place(&mut undone, jobs[1], Some((1, 2)));
        let at_two = undone.mark();
        place(&mut undone, jobs[2], None);
        // Back past two marks at once, then place again and undo again.
        undone.undo(at_one);
        place(&mut fresh, jobs[0], None);
        assert_eq!(calendar_of(&undone), calendar_of(&fresh));
        place(&mut undone, jobs[3], None);
        undone.undo(at_one);
        assert_eq!(calendar_of(&undone), calendar_of(&fresh));
        assert_ne!(at_two, at_one);
        for job in [jobs[2], jobs[1], jobs[3]] {
            assert_eq!(place(&mut undone, job, None), place(&mut fresh, job, None));
            assert_eq!(calendar_of(&undone), calendar_of(&fresh));
        }
        // A pin after the mark takes first-fit, the slot the fast path
        // would have given it.
        let mut pins = pinned();
        let mark = pins.mark();
        assert!(pins.pin(SlotKind::Map, 0, -2, 6));
        pins.undo(mark);
        assert!(pins.pin(SlotKind::Map, 0, -2, 6));
        let mut fast = pinned();
        assert!(fast.pin(SlotKind::Map, 0, -2, 6));
        assert_eq!(calendar_of(&pins), calendar_of(&fast));
        assert!(pins.map.pins.is_empty() && !fast.map.pins.is_empty());
        assert!(
            fresh.map.trail.is_none(),
            "a calendar that never marks logs nothing"
        );
    }

    #[test]
    fn resources_without_capacity_own_no_slot() {
        let mut cal = Calendar::new([(0, 1), (2, 0), (1, 1)].into_iter());
        assert!(!cal.pin(SlotKind::Map, 0, 0, 5), "no map slot on 0");
        assert!(!cal.pin(SlotKind::Reduce, 1, 0, 5), "no reduce slot on 1");
        assert!(!cal.pin(SlotKind::Map, 3, 0, 5), "out of range");
        assert!(cal.pin(SlotKind::Map, 1, 0, 5));
        assert_eq!(cal.fit(SlotKind::Map, 0, 5), Some((1, 0)));
        assert_eq!(cal.fit(SlotKind::Map, 0, 5), Some((2, 0)));
        assert_eq!(cal.fit(SlotKind::Reduce, 2, 5), Some((0, 2)));
        assert!(Calendar::new([(0, 1)].into_iter())
            .fit(SlotKind::Map, 0, 5)
            .is_none());
    }

    #[test]
    fn place_puts_reduces_behind_running_and_placed_maps() {
        let mut cal = Calendar::new([(1, 1)].into_iter());
        let free = |task, dur| Free {
            task,
            dur,
            at: None,
        };
        let mut maps = [free(0, 4), free(1, 6)];
        let mut reduces = [free(2, 3)];
        // A running map of this job ends at 20; the free maps run
        // longest-first from the release, 6 then 4.
        assert_eq!(cal.place(5, 20, &mut maps, &mut reduces), Ok(23));
        assert_eq!(
            maps.map(|f| (f.task, f.at)),
            [(1, Some((0, 5))), (0, Some((0, 11)))]
        );
        assert_eq!(reduces[0].at, Some((0, 20)));
        // A job with nothing to place completes at its release.
        assert_eq!(cal.place::<u8>(7, i64::MIN, &mut [], &mut []), Ok(7));
        // No reduce slot anywhere: the reduce is named.
        let mut cal = Calendar::new([(1, 0)].into_iter());
        assert_eq!(
            cal.place(0, i64::MIN, &mut [free(0, 1)], &mut [free(9, 1)]),
            Err(9)
        );
    }
}

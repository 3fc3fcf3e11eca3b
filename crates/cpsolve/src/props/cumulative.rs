//! Timetable `cumulative` filtering (paper constraints 5 and 6).
//!
//! One propagator instance guards one slot kind of the model's one
//! resource, like the paper's per-resource `cumulative` constraints built
//! from `pulse` functions in OPL. On §V.D's combined model that resource's
//! pools hold every map or reduce slot of the cluster, and every task of
//! the kind runs in its pool. The propagator:
//!
//! 1. maintains the *mandatory-part profile* of the pool's tasks (a task
//!    with start window `[lb, ub]` and duration `e` certainly occupies
//!    `[ub, lb + e)` when that interval is nonempty),
//! 2. fails when the profile exceeds the pool capacity anywhere (overload),
//!    and
//! 3. tightens the start bounds of the pool's tasks so their whole
//!    execution fits under the capacity given everyone else's mandatory
//!    parts (timetable filtering, both directions).
//!
//! The profile is **incremental**: along one search path (no backtracking
//! between invocations, witnessed by [`crate::state::Domains::generation`])
//! mandatory parts only *grow* — bounds tighten monotonically without a
//! pop — so the profile update for the tasks dirtied since the last call (witnessed by
//! per-task change stamps) is a pure merge of added rectangles into the
//! previous profile, O(changed + segments) instead of a full
//! O(tasks log tasks) re-sort. Any backtrack, conflict mid-build, or
//! (defensively, release only) invariant violation falls back to a scratch
//! rebuild; debug builds cross-check every incremental profile against a
//! scratch rebuild.
//!
//! The fit scans read only the **tall** segments: those higher than
//! `cap − max_req`, where `max_req` is the largest requirement in the pool.
//! Any other segment leaves at least `cap − req` room for every pool task,
//! so no piece of it can block one and the full scan would step over it
//! anyway; skipping it changes no answer. On the manager's combined pool
//! (unit tasks, many slots) only a full segment is tall. Debug builds
//! repeat every fit over the whole profile and compare.
//!
//! Two short cuts read the span of the tall segments, both exact. With no
//! tall segment every fit is its window's own end, so the run returns
//! before the task loop. A task whose `[lb, ub + dur)` lies clear of the
//! span skips both fit scans. Debug builds check every skipped task's fits
//! over the whole profile as well.
//!
//! A run reports its own fixpoint ([`Propagator::at_own_fixpoint`]) iff it
//! changed no pool task's mandatory part: a re-run would then build the
//! same profile, and every window it left is already its own earliest and
//! latest fit.

use super::{Ctx, PropClass, Propagator};
use crate::model::{Model, SlotKind, TaskRef};
use crate::state::Conflict;

/// A maximal constant-height interval of the mandatory profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Seg {
    start: i64,
    end: i64,
    height: i64,
}

/// The part `[ub, lb + dur)` that every start in `[lb, ub]` covers, or
/// `None` when it is empty.
#[inline]
fn part_of(lb: i64, ub: i64, dur: i64) -> Option<(i64, i64)> {
    (ub < lb + dur).then_some((ub, lb + dur))
}

/// The mandatory part of `t`, or `None`.
#[inline]
fn mandatory_part(ctx: &Ctx<'_>, t: TaskRef) -> Option<(i64, i64)> {
    part_of(ctx.dom.lb(t), ctx.dom.ub(t), ctx.model.tasks[t.idx()].dur)
}

/// Build the profile of `tasks`' mandatory parts from scratch into `segs`
/// (canonical: adjacent segments always differ in height). `Err` on
/// overload.
fn profile_from_scratch(
    ctx: &Ctx<'_>,
    tasks: &[TaskRef],
    events: &mut Vec<(i64, i64)>,
    segs: &mut Vec<Seg>,
    cap: i64,
) -> Result<(), Conflict> {
    events.clear();
    for &t in tasks {
        if let Some((m_start, m_end)) = mandatory_part(ctx, t) {
            let req = ctx.model.tasks[t.idx()].req as i64;
            events.push((m_start, req));
            events.push((m_end, -req));
        }
    }
    events.sort_unstable();
    segs.clear();
    let mut height = 0i64;
    let mut i = 0;
    while i < events.len() {
        let t = events[i].0;
        let mut delta = 0;
        while i < events.len() && events[i].0 == t {
            delta += events[i].1;
            i += 1;
        }
        if delta == 0 {
            continue; // canonical form: no zero-width height transitions
        }
        height += delta;
        if height > cap {
            return Err(Conflict);
        }
        // Close the previous segment and open a new one when height > 0.
        if let Some(last) = segs.last_mut() {
            if last.end == i64::MAX {
                last.end = t;
                if last.start == last.end {
                    segs.pop();
                }
            }
        }
        if height > 0 {
            segs.push(Seg {
                start: t,
                end: i64::MAX,
                height,
            });
        }
    }
    debug_assert!(
        segs.last().is_none_or(|s| s.end != i64::MAX),
        "profile must be closed (events balance)"
    );
    Ok(())
}

/// Calls `f(start, end)`, in time order and until it returns `true`, for
/// each piece of the profile `segs` that a task of height `req` running over
/// `[s, s+dur)` cannot coexist with once `own`'s contribution
/// `(start, end, height)` is taken out. `segs` may omit any segment no
/// higher than `cap − req`: such a segment never yields a piece.
///
/// The canonical profile merges equal-height neighbours, so a segment
/// may straddle the own part; it is judged piecewise — before the own
/// part, inside it with the own height subtracted, after it — and a
/// blocking piece, not the merged segment, is what a scan steps over.
#[inline]
fn blocks(
    segs: &[Seg],
    s: i64,
    dur: i64,
    own: Option<(i64, i64, i64)>,
    cap: i64,
    req: i64,
    mut f: impl FnMut(i64, i64) -> bool,
) {
    let end = s + dur;
    let room = cap - req;
    let (os, oe, oh) = own.unwrap_or((i64::MIN, i64::MIN, 0));
    // Segments are sorted by start and non-overlapping; find the first
    // segment with end > s.
    let from = segs.partition_point(|seg| seg.end <= s);
    for seg in &segs[from..] {
        if seg.start >= end {
            break;
        }
        if seg.height <= room {
            continue; // no piece is higher than its segment
        }
        let a = os.clamp(seg.start, seg.end);
        let b = oe.clamp(seg.start, seg.end);
        for (ps, pe, h) in [
            (seg.start, a, seg.height),
            (a, b, seg.height - oh),
            (b, seg.end, seg.height),
        ] {
            if h > room && ps.max(s) < pe.min(end) && f(ps, pe) {
                return;
            }
        }
    }
}

/// Earliest `s ∈ [lb, ub]` where `[s, s+dur)` fits over `segs`, or `None`.
/// A forward scan resumes at the first blocking piece's `end`.
fn earliest_fit_in(
    segs: &[Seg],
    lb: i64,
    ub: i64,
    dur: i64,
    own: Option<(i64, i64, i64)>,
    cap: i64,
    req: i64,
) -> Option<i64> {
    let mut s = lb;
    while s <= ub {
        let mut first = None;
        blocks(segs, s, dur, own, cap, req, |_, pe| {
            first = Some(pe);
            true
        });
        match first {
            None => return Some(s),
            Some(next) => s = next,
        }
    }
    None
}

/// Latest `s ∈ [lb, ub]` where `[s, s+dur)` fits over `segs`, or `None`.
/// A backward scan resumes before the last blocking piece's `start`.
fn latest_fit_in(
    segs: &[Seg],
    lb: i64,
    ub: i64,
    dur: i64,
    own: Option<(i64, i64, i64)>,
    cap: i64,
    req: i64,
) -> Option<i64> {
    let mut s = ub;
    while s >= lb {
        let mut last = None;
        blocks(segs, s, dur, own, cap, req, |ps, _| {
            last = Some(ps);
            false
        });
        match last {
            None => return Some(s),
            Some(block_start) => s = block_start - dur,
        }
    }
    None
}

/// Timetable cumulative for one slot kind of the one resource.
#[derive(Debug)]
pub struct Cumulative {
    kind: SlotKind,
    /// Every task of this kind.
    tasks: Vec<TaskRef>,
    /// Scratch: sweep events (full rebuilds) / delta events (incremental).
    events: Vec<(i64, i64)>,
    /// Profile segments with height > 0, sorted by start, canonical.
    segs: Vec<Seg>,
    /// The largest `req` of any pool task.
    max_req: i64,
    /// The segments of `segs` higher than `cap − max_req`, in order: the
    /// only ones that can block a pool task. Refilled after every profile
    /// build.
    tall: Vec<Seg>,
    /// Cached mandatory part per pool task (`start >= end` = none), valid
    /// for the profile in `segs`.
    cached_mp: Vec<(i64, i64)>,
    /// Per pool task: the domain change stamp the cache was computed at.
    last_stamp: Vec<u64>,
    /// Domains generation of the cached profile (backtrack witness).
    last_gen: u64,
    /// False until a profile build completes (forces a scratch rebuild).
    valid: bool,
    /// Scratch: the previous profile during an incremental merge.
    old_segs: Vec<Seg>,
    /// Scratch: from-scratch profile for the debug cross-check (unused in
    /// release, but kept unconditionally so debug runs don't allocate per
    /// propagation — see tests/alloc_count.rs).
    #[allow(dead_code)]
    check_segs: Vec<Seg>,
    /// Whether the last run left the pool at its own fixpoint: it changed
    /// no pool task's mandatory part.
    at_fixpoint: bool,
}

impl Cumulative {
    /// Propagator for the `kind` pool of resource 0, or `None` if the model
    /// has no task of that kind.
    pub fn new(model: &Model, kind: SlotKind) -> Option<Self> {
        let tasks: Vec<TaskRef> = (0..model.n_tasks())
            .map(|i| TaskRef(i as u32))
            .filter(|&t| model.tasks[t.idx()].kind == kind)
            .collect();
        if tasks.is_empty() {
            return None;
        }
        let n = tasks.len();
        let max_req = tasks
            .iter()
            .map(|t| model.tasks[t.idx()].req as i64)
            .max()
            .unwrap_or(0);
        Some(Cumulative {
            kind,
            tasks,
            events: Vec::new(),
            segs: Vec::new(),
            max_req,
            tall: Vec::new(),
            cached_mp: vec![(0, 0); n],
            last_stamp: vec![0; n],
            last_gen: 0,
            valid: false,
            old_segs: Vec::new(),
            check_segs: Vec::new(),
            at_fixpoint: false,
        })
    }

    /// Scratch rebuild: refresh the per-task cache and the whole profile.
    fn rebuild_full(&mut self, ctx: &Ctx<'_>, cap: i64, gen: u64) -> Result<(), Conflict> {
        self.valid = false;
        for (i, &t) in self.tasks.iter().enumerate() {
            self.last_stamp[i] = ctx.dom.task_stamp(t);
            self.cached_mp[i] = mandatory_part(ctx, t).unwrap_or((0, 0));
        }
        profile_from_scratch(ctx, &self.tasks, &mut self.events, &mut self.segs, cap)?;
        self.last_gen = gen;
        self.valid = true;
        Ok(())
    }

    /// Merge the sorted delta events in `self.events` (grown mandatory-part
    /// rectangles) into the previous profile. `Err` on overload.
    fn merge_delta(&mut self, cap: i64) -> Result<(), Conflict> {
        std::mem::swap(&mut self.segs, &mut self.old_segs);
        self.segs.clear();
        // Two sorted event streams: the old profile's boundaries (a segment
        // contributes `+height` at `start`, `-height` at `end`; the
        // interleaved walk is time-ordered because segments are disjoint
        // and ordered) and the delta events.
        let mut di = 0;
        let mut oi = 0;
        let mut o_open = false; // old_segs[oi]'s start already consumed
        let mut height = 0i64;
        loop {
            let o_t = (oi < self.old_segs.len()).then(|| {
                let s = &self.old_segs[oi];
                if o_open {
                    s.end
                } else {
                    s.start
                }
            });
            let d_t = (di < self.events.len()).then(|| self.events[di].0);
            let t = match (o_t, d_t) {
                (None, None) => break,
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (Some(a), Some(b)) => a.min(b),
            };
            let mut delta = 0i64;
            while oi < self.old_segs.len() {
                let s = self.old_segs[oi];
                if !o_open && s.start == t {
                    delta += s.height;
                    o_open = true;
                } else if o_open && s.end == t {
                    delta -= s.height;
                    o_open = false;
                    oi += 1;
                } else {
                    break;
                }
            }
            while di < self.events.len() && self.events[di].0 == t {
                delta += self.events[di].1;
                di += 1;
            }
            if delta == 0 {
                continue;
            }
            height += delta;
            if height > cap {
                return Err(Conflict);
            }
            if let Some(last) = self.segs.last_mut() {
                if last.end == i64::MAX {
                    last.end = t;
                    if last.start == last.end {
                        self.segs.pop();
                    }
                }
            }
            if height > 0 {
                self.segs.push(Seg {
                    start: t,
                    end: i64::MAX,
                    height,
                });
            }
        }
        debug_assert!(
            self.segs.last().is_none_or(|s| s.end != i64::MAX),
            "merged profile must be closed"
        );
        Ok(())
    }

    /// Bring the mandatory-part profile up to date. Returns `Err` on
    /// overload. Incremental along an unbroken search path, scratch rebuild
    /// otherwise.
    fn build_profile(&mut self, ctx: &Ctx<'_>, cap: i64) -> Result<(), Conflict> {
        let gen = ctx.dom.generation();
        if !self.valid || gen != self.last_gen {
            return self.rebuild_full(ctx, cap, gen);
        }
        // Delta collection: along one path mandatory parts only grow, so
        // every change is an added rectangle.
        self.events.clear();
        let mut changed = false;
        for i in 0..self.tasks.len() {
            let t = self.tasks[i];
            let stamp = ctx.dom.task_stamp(t);
            if stamp == self.last_stamp[i] {
                continue;
            }
            self.last_stamp[i] = stamp;
            let (os, oe) = self.cached_mp[i];
            let old_some = os < oe;
            match mandatory_part(ctx, t) {
                None => {
                    if old_some {
                        // A part vanished without a backtrack: impossible by
                        // the monotonicity argument; rebuild defensively.
                        debug_assert!(false, "mandatory part shrank on one search path");
                        return self.rebuild_full(ctx, cap, gen);
                    }
                }
                Some((ns, ne)) => {
                    let req = ctx.model.tasks[t.idx()].req as i64;
                    if old_some {
                        if ns > os || ne < oe {
                            debug_assert!(false, "mandatory part shrank on one search path");
                            return self.rebuild_full(ctx, cap, gen);
                        }
                        if ns < os {
                            self.events.push((ns, req));
                            self.events.push((os, -req));
                            changed = true;
                        }
                        if ne > oe {
                            self.events.push((oe, req));
                            self.events.push((ne, -req));
                            changed = true;
                        }
                    } else {
                        self.events.push((ns, req));
                        self.events.push((ne, -req));
                        changed = true;
                    }
                    self.cached_mp[i] = (ns, ne);
                }
            }
        }
        let merged = if changed {
            self.valid = false; // not valid again until the merge completes
            self.events.sort_unstable();
            self.merge_delta(cap)
        } else {
            Ok(())
        };
        #[cfg(debug_assertions)]
        {
            let mut check = std::mem::take(&mut self.check_segs);
            let scratch = profile_from_scratch(ctx, &self.tasks, &mut self.events, &mut check, cap);
            match (&merged, &scratch) {
                (Ok(()), Ok(())) => debug_assert_eq!(
                    self.segs, check,
                    "incremental profile diverged from scratch rebuild"
                ),
                (Err(_), Err(_)) => {}
                (Ok(()), Err(_)) => panic!("incremental profile missed an overload"),
                (Err(_), Ok(())) => panic!("incremental profile fabricated an overload"),
            }
            self.check_segs = check;
        }
        merged?;
        self.valid = true;
        Ok(())
    }

    /// Earliest `s ∈ [lb, ub]` where `[s, s+dur)` fits, or `None`. Scans
    /// the tall segments; debug builds check the answer over all of them.
    fn earliest_fit(
        &self,
        lb: i64,
        ub: i64,
        dur: i64,
        own: Option<(i64, i64, i64)>,
        cap: i64,
        req: i64,
    ) -> Option<i64> {
        let fit = earliest_fit_in(&self.tall, lb, ub, dur, own, cap, req);
        debug_assert_eq!(
            fit,
            earliest_fit_in(&self.segs, lb, ub, dur, own, cap, req),
            "forward scan over the tall segments diverged from the full profile"
        );
        fit
    }

    /// Latest `s ∈ [lb, ub]` where `[s, s+dur)` fits, or `None`. Scans the
    /// tall segments; debug builds check the answer over all of them.
    fn latest_fit(
        &self,
        lb: i64,
        ub: i64,
        dur: i64,
        own: Option<(i64, i64, i64)>,
        cap: i64,
        req: i64,
    ) -> Option<i64> {
        let fit = latest_fit_in(&self.tall, lb, ub, dur, own, cap, req);
        debug_assert_eq!(
            fit,
            latest_fit_in(&self.segs, lb, ub, dur, own, cap, req),
            "backward scan over the tall segments diverged from the full profile"
        );
        fit
    }
}

impl Propagator for Cumulative {
    fn propagate(&mut self, ctx: &mut Ctx<'_>) -> Result<(), Conflict> {
        let cap = ctx.model.resources[0].cap(self.kind) as i64;
        self.build_profile(ctx, cap)?;
        let floor = cap - self.max_req;
        self.tall.clear();
        self.tall
            .extend(self.segs.iter().filter(|seg| seg.height > floor));
        // Every tall segment lies in `[span_start, span_end)`.
        let (span_start, span_end) = match (self.tall.first(), self.tall.last()) {
            (Some(first), Some(last)) => (first.start, last.end),
            // No tall segment: every fit is its window's own end, so the run
            // can narrow nothing.
            _ if !cfg!(debug_assertions) => {
                self.at_fixpoint = true;
                return Ok(());
            }
            // Debug builds walk the tasks anyway, each clear of the empty
            // span, so the check below covers this short cut too.
            _ => (i64::MAX, i64::MIN),
        };

        // Iterate over a snapshot of indices; domains change inside the loop
        // but the profile is only rebuilt on the next engine invocation
        // (which the dirtying of the changed task guarantees). Filtering
        // with a slightly stale profile is still sound: mandatory parts only
        // grow as bounds tighten, so the stale profile under-approximates
        // and the fixpoint loop converges on the strongest bounds. While no
        // mandatory part moves, the profile is not stale and each window
        // left behind is its own earliest and latest fit: the pool is at its
        // own fixpoint.
        let mut at_fixpoint = true;
        for idx in 0..self.tasks.len() {
            let t = self.tasks[idx];
            let spec = &ctx.model.tasks[t.idx()];
            let dur = spec.dur;
            let req = spec.req as i64;
            let lb = ctx.dom.lb(t);
            let ub = ctx.dom.ub(t);
            if lb == ub {
                continue; // fully placed; participates via profile only
            }
            let part = part_of(lb, ub, dur);
            let own = part.map(|(s, e)| (s, e, req));
            if ub + dur <= span_start || lb >= span_end {
                // No placement in the window meets a tall segment.
                debug_assert_eq!(
                    (
                        earliest_fit_in(&self.segs, lb, ub, dur, own, cap, req),
                        latest_fit_in(&self.segs, lb, ub, dur, own, cap, req)
                    ),
                    (Some(lb), Some(ub)),
                    "a window clear of the tall segments is not its own fit"
                );
                continue;
            }

            match self.earliest_fit(lb, ub, dur, own, cap, req) {
                Some(s) => {
                    ctx.dom.set_lb(t, s)?;
                }
                None => return Err(Conflict),
            }
            match self.latest_fit(ctx.dom.lb(t), ub, dur, own, cap, req) {
                Some(s) => {
                    ctx.dom.set_ub(t, s)?;
                }
                None => return Err(Conflict),
            }
            at_fixpoint &= part_of(ctx.dom.lb(t), ctx.dom.ub(t), dur) == part;
        }
        self.at_fixpoint = at_fixpoint;
        Ok(())
    }

    fn at_own_fixpoint(&self) -> bool {
        self.at_fixpoint
    }

    fn watched_tasks(&self, _model: &Model) -> Vec<TaskRef> {
        self.tasks.clone()
    }

    fn class(&self) -> PropClass {
        PropClass::Timetable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{JobRef, ModelBuilder, SlotKind};
    use crate::state::Domains;

    /// The incremental path (same generation, dirtied tasks) grows the
    /// profile rectangle by rectangle; the debug cross-check inside
    /// `build_profile` compares every step against a scratch rebuild.
    #[test]
    fn incremental_profile_tracks_growing_parts() {
        let mut b = ModelBuilder::new();
        b.add_resource(2, 1);
        let j = b.add_job(0, 1000);
        let t0 = b.add_task(j, SlotKind::Map, 10, 1);
        let t1 = b.add_task(j, SlotKind::Map, 10, 1);
        b.set_horizon(100);
        let m = b.build().unwrap();
        let mut d = Domains::new(&m);
        let mut c = Cumulative::new(&m, SlotKind::Map).unwrap();
        {
            let mut ctx = Ctx {
                model: &m,
                dom: &mut d,
                bound: u32::MAX,
            };
            c.propagate(&mut ctx).unwrap();
        }
        assert!(c.segs.is_empty());
        d.fix_start(t0, 0).unwrap(); // part [0, 10)
        {
            let mut ctx = Ctx {
                model: &m,
                dom: &mut d,
                bound: u32::MAX,
            };
            c.propagate(&mut ctx).unwrap();
        }
        assert_eq!(
            c.segs,
            vec![Seg {
                start: 0,
                end: 10,
                height: 1
            }]
        );
        d.set_ub(t1, 5).unwrap(); // part [5, 10)
        {
            let mut ctx = Ctx {
                model: &m,
                dom: &mut d,
                bound: u32::MAX,
            };
            c.propagate(&mut ctx).unwrap();
        }
        assert_eq!(
            c.segs,
            vec![
                Seg {
                    start: 0,
                    end: 5,
                    height: 1
                },
                Seg {
                    start: 5,
                    end: 10,
                    height: 2
                },
            ]
        );
    }

    /// An overload introduced between calls on one search path is caught by
    /// the incremental merge itself.
    #[test]
    fn incremental_merge_detects_overload() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(0, 1000);
        let t0 = b.add_task(j, SlotKind::Map, 10, 1);
        let t1 = b.add_task(j, SlotKind::Map, 10, 1);
        b.set_horizon(100);
        let m = b.build().unwrap();
        let mut d = Domains::new(&m);
        let mut c = Cumulative::new(&m, SlotKind::Map).unwrap();
        {
            let mut ctx = Ctx {
                model: &m,
                dom: &mut d,
                bound: u32::MAX,
            };
            c.propagate(&mut ctx).unwrap();
        }
        // Same path: both parts appear at once and overlap on [5, 10).
        d.set_ub(t0, 2).unwrap(); // part [2, 10)
        d.set_ub(t1, 5).unwrap(); // part [5, 10)
        let mut ctx = Ctx {
            model: &m,
            dom: &mut d,
            bound: u32::MAX,
        };
        assert!(c.propagate(&mut ctx).is_err());
        // After the failed merge a later call must recover via rebuild.
        let mut ctx = Ctx {
            model: &m,
            dom: &mut d,
            bound: u32::MAX,
        };
        assert!(c.propagate(&mut ctx).is_err(), "still overloaded");
    }

    /// Backtracking (generation change) falls back to a scratch rebuild
    /// that reflects the restored domains.
    #[test]
    fn incremental_profile_survives_backtracking() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(0, 1000);
        let t0 = b.add_task(j, SlotKind::Map, 10, 1);
        let t1 = b.add_task(j, SlotKind::Map, 10, 1);
        b.set_horizon(100);
        let m = b.build().unwrap();
        let mut d = Domains::new(&m);
        let mut c = Cumulative::new(&m, SlotKind::Map).unwrap();
        d.push_level();
        d.fix_start(t0, 0).unwrap();
        {
            let mut ctx = Ctx {
                model: &m,
                dom: &mut d,
                bound: u32::MAX,
            };
            c.propagate(&mut ctx).unwrap();
            assert_eq!(ctx.dom.lb(t1), 10);
        }
        d.pop_level();
        // After the pop the part is gone; a fresh propagate must see the
        // empty profile (scratch rebuild) and leave t1 unconstrained.
        d.clear_dirty();
        let mut ctx = Ctx {
            model: &m,
            dom: &mut d,
            bound: u32::MAX,
        };
        c.propagate(&mut ctx).unwrap();
        assert_eq!(ctx.dom.lb(t1), 0);
        assert!(c.segs.is_empty());
    }

    /// One 1-map-slot resource, two 10-long maps: once one is placed at 0,
    /// the other's lb must move to its end.
    #[test]
    fn serializes_on_unit_capacity() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(0, 1000);
        let t0 = b.add_task(j, SlotKind::Map, 10, 1);
        let t1 = b.add_task(j, SlotKind::Map, 10, 1);
        b.set_horizon(100);
        let m = b.build().unwrap();
        let mut d = Domains::new(&m);
        d.fix_start(t0, 0).unwrap();
        let _ = d.drain_dirty();
        let mut c = Cumulative::new(&m, SlotKind::Map).unwrap();
        let mut ctx = Ctx {
            model: &m,
            dom: &mut d,
            bound: u32::MAX,
        };
        c.propagate(&mut ctx).unwrap();
        assert_eq!(d.lb(t1), 10);
    }

    /// Capacity 2 lets two tasks overlap but pushes the third.
    #[test]
    fn respects_capacity_two() {
        let mut b = ModelBuilder::new();
        b.add_resource(2, 1);
        let j = b.add_job(0, 1000);
        let t0 = b.add_task(j, SlotKind::Map, 10, 1);
        let t1 = b.add_task(j, SlotKind::Map, 10, 1);
        let t2 = b.add_task(j, SlotKind::Map, 10, 1);
        b.set_horizon(100);
        let m = b.build().unwrap();
        let mut d = Domains::new(&m);
        d.fix_start(t0, 0).unwrap();
        d.fix_start(t1, 0).unwrap();
        let _ = d.drain_dirty();
        let mut c = Cumulative::new(&m, SlotKind::Map).unwrap();
        let mut ctx = Ctx {
            model: &m,
            dom: &mut d,
            bound: u32::MAX,
        };
        c.propagate(&mut ctx).unwrap();
        assert_eq!(d.lb(t2), 10);
    }

    /// Overload of pinned tasks is a conflict.
    #[test]
    fn overload_is_conflict() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(0, 1000);
        let t0 = b.add_task(j, SlotKind::Map, 10, 1);
        let t1 = b.add_task(j, SlotKind::Map, 10, 1);
        b.set_horizon(100);
        let m = b.build().unwrap();
        let mut d = Domains::new(&m);
        d.fix_start(t0, 0).unwrap();
        d.fix_start(t1, 5).unwrap();
        let mut c = Cumulative::new(&m, SlotKind::Map).unwrap();
        let mut ctx = Ctx {
            model: &m,
            dom: &mut d,
            bound: u32::MAX,
        };
        assert!(c.propagate(&mut ctx).is_err());
    }

    /// A task squeezed between fixed tasks finds the gap.
    #[test]
    fn finds_gap_between_mandatory_parts() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(0, 1000);
        let t0 = b.add_task(j, SlotKind::Map, 10, 1); // will sit at [0,10)
        let t1 = b.add_task(j, SlotKind::Map, 10, 1); // will sit at [15,25)
        let t2 = b.add_task(j, SlotKind::Map, 5, 1); // fits only at [10,15)
        b.set_horizon(24); // t2 could also go after 25, but ub(t2)=24 < 25
        let m = b.build().unwrap();
        let mut d = Domains::new(&m);
        d.fix_start(t0, 0).unwrap();
        d.fix_start(t1, 15).unwrap();
        let mut c = Cumulative::new(&m, SlotKind::Map).unwrap();
        let mut ctx = Ctx {
            model: &m,
            dom: &mut d,
            bound: u32::MAX,
        };
        c.propagate(&mut ctx).unwrap();
        assert_eq!(d.lb(t2), 10);
        assert_eq!(d.ub(t2), 10);
    }

    /// ub-side filtering: a task that must end before a fixed block.
    #[test]
    fn filters_upper_bound_backwards() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(0, 1000);
        let t0 = b.add_task(j, SlotKind::Map, 10, 1); // fixed at [20,30)
        let t1 = b.add_task(j, SlotKind::Map, 5, 1);
        b.set_horizon(25);
        let m = b.build().unwrap();
        let mut d = Domains::new(&m);
        d.fix_start(t0, 20).unwrap();
        // t1's window is [0,25]; starts in (15,25] collide with [20,30).
        let mut c = Cumulative::new(&m, SlotKind::Map).unwrap();
        let mut ctx = Ctx {
            model: &m,
            dom: &mut d,
            bound: u32::MAX,
        };
        c.propagate(&mut ctx).unwrap();
        assert_eq!(d.ub(t1), 15);
    }

    /// Reduce pools are independent from map pools.
    #[test]
    fn kinds_use_separate_pools() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(0, 1000);
        let mt = b.add_task(j, SlotKind::Map, 10, 1);
        let rt = b.add_task(j, SlotKind::Reduce, 10, 1);
        b.set_horizon(100);
        let m = b.build().unwrap();
        let mut d = Domains::new(&m);
        d.fix_start(mt, 0).unwrap();
        let _ = d.drain_dirty();
        // The reduce pool sees no interference from the map task.
        let mut c = Cumulative::new(&m, SlotKind::Reduce).unwrap();
        let mut ctx = Ctx {
            model: &m,
            dom: &mut d,
            bound: u32::MAX,
        };
        c.propagate(&mut ctx).unwrap();
        assert_eq!(d.lb(rt), 0, "map usage must not block reduce slots");
        let _ = JobRef(0);
    }

    /// new() returns None when no task can use the pool.
    #[test]
    fn empty_pool_is_skipped() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 1);
        let j = b.add_job(0, 100);
        b.add_task(j, SlotKind::Map, 10, 1);
        let m = b.build().unwrap();
        assert!(Cumulative::new(&m, SlotKind::Reduce).is_none());
        assert!(Cumulative::new(&m, SlotKind::Map).is_some());
    }

    /// The canonical profile merges equal-height neighbours: `a` occupies
    /// [2,3) and `t`'s own part is [3,5), so the profile is one segment
    /// [2,5) of height 1. Only [2,3) blocks `t`; the forward scan resumes at
    /// 3 (found by the packed generator of `tests/proptest_propagators.rs`,
    /// which a whole-segment test answered with a false conflict).
    #[test]
    fn own_part_merged_with_a_neighbour_is_not_a_conflict() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 0);
        let j = b.add_job(0, 1000);
        let a = b.add_task(j, SlotKind::Map, 1, 1);
        let t = b.add_task(j, SlotKind::Map, 3, 1);
        b.set_horizon(100);
        let m = b.build().unwrap();
        let mut d = Domains::new(&m);
        d.fix_start(a, 2).unwrap();
        d.set_lb(t, 2).unwrap();
        d.set_ub(t, 3).unwrap();
        let mut c = Cumulative::new(&m, SlotKind::Map).unwrap();
        let mut ctx = Ctx {
            model: &m,
            dom: &mut d,
            bound: u32::MAX,
        };
        c.propagate(&mut ctx).unwrap();
        assert_eq!(d.lb(t), 3);
    }

    /// Capacity 3, largest requirement 2: a segment at height 2 = cap − 1 is
    /// tall. It leaves room for a req-1 task and blocks a req-2 task.
    #[test]
    fn a_segment_one_below_capacity_blocks_only_the_wider_task() {
        let mut b = ModelBuilder::new();
        b.add_resource(3, 0);
        let j = b.add_job(0, 1000);
        let a0 = b.add_task(j, SlotKind::Map, 10, 1);
        let a1 = b.add_task(j, SlotKind::Map, 10, 1);
        let narrow = b.add_task(j, SlotKind::Map, 5, 1);
        let wide = b.add_task(j, SlotKind::Map, 5, 2);
        b.set_horizon(100);
        let m = b.build().unwrap();
        let mut d = Domains::new(&m);
        d.fix_start(a0, 0).unwrap();
        d.fix_start(a1, 0).unwrap();
        let mut c = Cumulative::new(&m, SlotKind::Map).unwrap();
        let mut ctx = Ctx {
            model: &m,
            dom: &mut d,
            bound: u32::MAX,
        };
        c.propagate(&mut ctx).unwrap();
        let seg = Seg {
            start: 0,
            end: 10,
            height: 2,
        };
        assert_eq!((c.max_req, c.tall.clone()), (2, vec![seg]));
        assert_eq!(d.lb(narrow), 0);
        assert_eq!(d.lb(wide), 10);
    }

    /// Capacity 2, unit tasks: only the height-2 segment [10,15) is tall, and
    /// it sits between two height-1 segments. A forward scan that meets it
    /// resumes at its end, a backward scan before its start.
    #[test]
    fn scans_step_over_a_lone_tall_segment() {
        let mut b = ModelBuilder::new();
        b.add_resource(2, 0);
        let j = b.add_job(0, 1000);
        let long = b.add_task(j, SlotKind::Map, 25, 1);
        let mid = b.add_task(j, SlotKind::Map, 5, 1);
        let fwd = b.add_task(j, SlotKind::Map, 5, 1);
        let bwd = b.add_task(j, SlotKind::Map, 5, 1);
        b.set_horizon(100);
        let m = b.build().unwrap();
        let mut d = Domains::new(&m);
        d.fix_start(long, 0).unwrap();
        d.fix_start(mid, 10).unwrap();
        d.set_lb(fwd, 8).unwrap();
        d.set_ub(bwd, 12).unwrap();
        let mut c = Cumulative::new(&m, SlotKind::Map).unwrap();
        let mut ctx = Ctx {
            model: &m,
            dom: &mut d,
            bound: u32::MAX,
        };
        c.propagate(&mut ctx).unwrap();
        let heights: Vec<i64> = c.segs.iter().map(|s| s.height).collect();
        assert_eq!(heights, vec![1, 2, 1]);
        let tall = Seg {
            start: 10,
            end: 15,
            height: 2,
        };
        assert_eq!(c.tall, vec![tall]);
        assert_eq!(d.lb(fwd), 15, "forward scan resumes at the tall end");
        assert_eq!(d.ub(bwd), 5, "backward scan resumes before the tall start");
    }

    /// One propagation of `c` on `d`.
    fn run(c: &mut Cumulative, m: &Model, d: &mut Domains) -> Result<(), Conflict> {
        let mut ctx = Ctx {
            model: m,
            dom: d,
            bound: u32::MAX,
        };
        c.propagate(&mut ctx)
    }

    /// Capacity 2, unit tasks: `a` at [0,10) leaves the profile one below
    /// capacity, so no segment is tall. Nothing can narrow, and the run
    /// says so.
    #[test]
    fn a_pool_below_capacity_everywhere_is_at_its_fixpoint() {
        let mut b = ModelBuilder::new();
        b.add_resource(2, 0);
        let j = b.add_job(0, 1000);
        let a = b.add_task(j, SlotKind::Map, 10, 1);
        let t = b.add_task(j, SlotKind::Map, 5, 1);
        b.set_horizon(100);
        let m = b.build().unwrap();
        let mut d = Domains::new(&m);
        d.fix_start(a, 0).unwrap();
        d.set_ub(t, 8).unwrap(); // part [8,5) is empty
        d.clear_dirty();
        let mut c = Cumulative::new(&m, SlotKind::Map).unwrap();
        run(&mut c, &m, &mut d).unwrap();
        assert_eq!(c.segs.len(), 1);
        assert!(c.tall.is_empty());
        assert_eq!((d.lb(t), d.ub(t), d.pending_dirty()), (0, 8, 0));
        assert!(c.at_own_fixpoint());
    }

    /// Capacity 1, `a` at [0,10). The run pushes `b` (5 long, window
    /// [0,12]) to [10,12], which gives it the part [12,15): not at its
    /// fixpoint. `c` was filtered against the profile without that part, so
    /// only the second run moves it past 15.
    #[test]
    fn a_run_that_grows_a_mandatory_part_is_not_at_its_fixpoint() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 0);
        let j = b.add_job(0, 1000);
        let a = b.add_task(j, SlotKind::Map, 10, 1);
        let bt = b.add_task(j, SlotKind::Map, 5, 1);
        let ct = b.add_task(j, SlotKind::Map, 2, 1);
        b.set_horizon(20);
        let m = b.build().unwrap();
        let mut d = Domains::new(&m);
        d.fix_start(a, 0).unwrap();
        d.set_ub(bt, 12).unwrap();
        d.set_lb(ct, 12).unwrap();
        let mut c = Cumulative::new(&m, SlotKind::Map).unwrap();
        run(&mut c, &m, &mut d).unwrap();
        assert_eq!((d.lb(bt), d.ub(bt)), (10, 12));
        assert_eq!(d.lb(ct), 12, "filtered against the part-less profile");
        assert!(!c.at_own_fixpoint());
        run(&mut c, &m, &mut d).unwrap();
        assert_eq!(d.lb(ct), 15, "the second run sees b's part [12,15)");
        assert!(c.at_own_fixpoint(), "c's window [15,20] has no part");
    }

    /// Capacity 1, `a` at [10,20) is the only tall segment. A window that
    /// ends before it and one that starts at its end skip the fit scans,
    /// keep their bounds, and the full-profile fits agree.
    #[test]
    fn a_window_clear_of_the_tall_span_is_its_own_fit() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 0);
        let j = b.add_job(0, 1000);
        let a = b.add_task(j, SlotKind::Map, 10, 1);
        let early = b.add_task(j, SlotKind::Map, 3, 1);
        let late = b.add_task(j, SlotKind::Map, 3, 1);
        b.set_horizon(30);
        let m = b.build().unwrap();
        let mut d = Domains::new(&m);
        d.fix_start(a, 10).unwrap();
        d.set_ub(early, 7).unwrap(); // placements inside [0,10)
        d.set_lb(late, 20).unwrap(); // placements inside [20,33)
        d.clear_dirty();
        let mut c = Cumulative::new(&m, SlotKind::Map).unwrap();
        run(&mut c, &m, &mut d).unwrap();
        let tall = Seg {
            start: 10,
            end: 20,
            height: 1,
        };
        assert_eq!(c.tall, vec![tall]);
        for (t, window) in [(early, (0, 7)), (late, (20, 30))] {
            assert_eq!((d.lb(t), d.ub(t)), window);
            let (lb, ub) = window;
            let fits = (
                earliest_fit_in(&c.segs, lb, ub, 3, None, 1, 1),
                latest_fit_in(&c.segs, lb, ub, 3, None, 1, 1),
            );
            assert_eq!(fits, (Some(lb), Some(ub)));
        }
        assert_eq!(d.pending_dirty(), 0);
        assert!(c.at_own_fixpoint());
    }

    /// The mirror image: `t`'s own part [3,5) abuts `a` at [5,6) on its
    /// right, one merged segment [3,6). Only [5,6) blocks `t`; the backward
    /// scan resumes at 5 - 3 = 2 and must neither fail nor pass `lb`.
    #[test]
    fn own_part_merged_with_a_right_neighbour_keeps_the_latest_start() {
        let mut b = ModelBuilder::new();
        b.add_resource(1, 0);
        let j = b.add_job(0, 1000);
        let a = b.add_task(j, SlotKind::Map, 1, 1);
        let t = b.add_task(j, SlotKind::Map, 3, 1);
        b.set_horizon(100);
        let m = b.build().unwrap();
        let mut d = Domains::new(&m);
        d.fix_start(a, 5).unwrap();
        d.set_lb(t, 2).unwrap();
        d.set_ub(t, 3).unwrap();
        let mut c = Cumulative::new(&m, SlotKind::Map).unwrap();
        let mut ctx = Ctx {
            model: &m,
            dom: &mut d,
            bound: u32::MAX,
        };
        c.propagate(&mut ctx).unwrap();
        assert_eq!((d.lb(t), d.ub(t)), (2, 2));
    }
}

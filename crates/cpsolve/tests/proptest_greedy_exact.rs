//! The greedy list scheduler's fast slot answers are exact.
//!
//! `greedy.rs` answers most slot queries from a calendar summary (the
//! longest inner gap) and stops `best_fit` at the first slot free at the
//! floor. This file keeps the plain versions as a reference — a slot that
//! walks its whole busy list, and a `best_fit` that scans every candidate
//! slot — and checks that [`greedy_edf`] and [`greedy_edf_with_hints`]
//! return the same `Solution` (or the same error) as the reference on
//! random models: pooled capacities from 1 to 64, 1–20 resources with
//! mixed slot counts, pinned tasks, and hints that are valid, stale,
//! out of range or colliding.

use cpsolve::greedy::{greedy_edf, greedy_edf_with_hints, Hint};
use cpsolve::model::{Model, ModelBuilder, ResRef, SlotKind, TaskRef};
use cpsolve::solution::Solution;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Busy intervals of one slot, sorted by start; every query walks them.
#[derive(Debug, Default, Clone)]
struct RefSlot {
    busy: Vec<(i64, i64)>,
}

impl RefSlot {
    fn earliest_fit(&self, t0: i64, dur: i64) -> i64 {
        let mut s = t0;
        for &(bs, be) in &self.busy {
            if bs >= s + dur {
                break;
            }
            if be > s {
                s = be;
            }
        }
        s
    }

    fn fits(&self, start: i64, dur: i64) -> bool {
        self.busy
            .iter()
            .all(|&(bs, be)| be <= start || bs >= start + dur)
    }

    fn insert(&mut self, start: i64, dur: i64) {
        let pos = self.busy.partition_point(|&(bs, _)| bs < start);
        if pos > 0 && pos < self.busy.len() {
            HOLE_BOOKINGS.with(|h| h.set(h.get() + 1));
        }
        self.busy.insert(pos, (start, start + dur));
    }
}

thread_local! {
    /// Bookings between two busy intervals of one slot, on this thread.
    static HOLE_BOOKINGS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

struct RefPool {
    slots: Vec<Vec<RefSlot>>,
}

impl RefPool {
    fn new(model: &Model, kind: SlotKind) -> Self {
        RefPool {
            slots: model
                .resources
                .iter()
                .map(|r| vec![RefSlot::default(); r.cap(kind) as usize])
                .collect(),
        }
    }

    /// Earliest start over every slot, ties to the lower index. Tasks need
    /// one slot, so every resource with a slot of the kind is a candidate.
    fn best_fit(&self, t0: i64, dur: i64) -> Option<(usize, usize, i64)> {
        let mut best: Option<(usize, usize, i64)> = None;
        for (r, slots) in self.slots.iter().enumerate() {
            for (si, slot) in slots.iter().enumerate() {
                let s = slot.earliest_fit(t0, dur);
                if best.is_none_or(|(_, _, bs)| s < bs) {
                    best = Some((r, si, s));
                }
            }
        }
        best
    }
}

/// The greedy EDF pass over the reference pools.
fn reference_greedy(model: &Model, hints: Option<&[Hint]>) -> Result<Solution, String> {
    if model.tasks.iter().any(|t| t.req != 1) {
        return Err("greedy scheduler supports unit capacity requirements only".into());
    }
    let hint_for = |t: TaskRef| -> Hint { hints.and_then(|h| h.get(t.idx()).copied().flatten()) };
    let mut map_pool = RefPool::new(model, SlotKind::Map);
    let mut reduce_pool = RefPool::new(model, SlotKind::Reduce);
    let mut starts = vec![0i64; model.n_tasks()];
    let mut resource = vec![ResRef(0); model.n_tasks()];

    for i in 0..model.n_tasks() {
        let spec = &model.tasks[i];
        if let Some((r, s)) = spec.fixed {
            let pool = match spec.kind {
                SlotKind::Map => &mut map_pool,
                SlotKind::Reduce => &mut reduce_pool,
            };
            let slot = pool.slots[r.idx()]
                .iter_mut()
                .find(|slot| slot.fits(s, spec.dur))
                .ok_or_else(|| format!("pinned task {i} overloads resource {r:?}"))?;
            slot.insert(s, spec.dur);
            starts[i] = s;
            resource[i] = r;
        }
    }

    let mut order: Vec<usize> = (0..model.n_jobs()).collect();
    order.sort_by_key(|&j| {
        (
            model.jobs[j].priority,
            model.jobs[j].deadline,
            model.jobs[j].release,
            j,
        )
    });

    let place = |pool: &mut RefPool,
                 tasks: &[TaskRef],
                 floor: i64,
                 starts: &mut Vec<i64>,
                 resource: &mut Vec<ResRef>,
                 what: &str|
     -> Result<(), String> {
        let mut tasks: Vec<TaskRef> = tasks
            .iter()
            .copied()
            .filter(|t| model.tasks[t.idx()].fixed.is_none())
            .collect();
        tasks.sort_by_key(|t| std::cmp::Reverse(model.tasks[t.idx()].dur));
        tasks.retain(|&t| {
            let Some((r, s)) = hint_for(t) else {
                return true;
            };
            let dur = model.tasks[t.idx()].dur;
            if s < floor || r.idx() >= model.n_resources() {
                return true;
            }
            // A resource without a slot of the kind finds no slot here.
            let Some(slot) = pool.slots[r.idx()].iter_mut().find(|sl| sl.fits(s, dur)) else {
                return true;
            };
            slot.insert(s, dur);
            starts[t.idx()] = s;
            resource[t.idx()] = r;
            false
        });
        for t in tasks {
            let dur = model.tasks[t.idx()].dur;
            let (r, si, s) = pool
                .best_fit(floor, dur)
                .ok_or_else(|| format!("no resource can host {what} task {t:?}"))?;
            pool.slots[r][si].insert(s, dur);
            starts[t.idx()] = s;
            resource[t.idx()] = ResRef(r as u32);
        }
        Ok(())
    };

    for j in order {
        let release = model.jobs[j].release;
        place(
            &mut map_pool,
            &model.maps_of[j],
            release,
            &mut starts,
            &mut resource,
            "map",
        )?;
        let barrier = model.maps_of[j]
            .iter()
            .map(|&t| starts[t.idx()] + model.tasks[t.idx()].dur)
            .max()
            .unwrap_or(release)
            .max(release);
        place(
            &mut reduce_pool,
            &model.reduces_of[j],
            barrier,
            &mut starts,
            &mut resource,
            "reduce",
        )?;
    }
    Ok(Solution::from_placements(model, starts, resource))
}

/// A random model and hints from `seed`: either one pooled resource with
/// 1–64 slots per kind (the split path's combined model) or 1–20 resources
/// with 0–4 map and 0–3 reduce slots each, so the resources able to host a
/// task differ by kind. Short and long tasks mix, so some fit the holes that pins and
/// hints leave and most do not.
fn random_case(seed: u64) -> (Model, Vec<Hint>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ModelBuilder::new();
    let caps: Vec<(u32, u32)> = if rng.gen_bool(0.3) {
        vec![(rng.gen_range(1..=64), rng.gen_range(1..=64))]
    } else {
        let n = rng.gen_range(1..=20);
        (0..n)
            .map(|i| {
                let lo = u32::from(i == 0); // resource 0 hosts both kinds
                (rng.gen_range(lo..=4), rng.gen_range(lo..=3))
            })
            .collect()
    };
    for &(m, r) in &caps {
        b.add_resource(m, r);
    }
    let hosts = |kind: SlotKind| -> Vec<u32> {
        (0..caps.len() as u32)
            .filter(|&r| match kind {
                SlotKind::Map => caps[r as usize].0 > 0,
                SlotKind::Reduce => caps[r as usize].1 > 0,
            })
            .collect()
    };
    let dur = |rng: &mut StdRng| -> i64 {
        if rng.gen_bool(0.3) {
            rng.gen_range(1..=4)
        } else {
            rng.gen_range(5..=40)
        }
    };
    let mut tasks: Vec<(TaskRef, SlotKind, i64)> = Vec::new();
    for _ in 0..rng.gen_range(1..=12) {
        let release: i64 = rng.gen_range(0..=60);
        let j = b.add_job(release, release + rng.gen_range(5i64..=200));
        for _ in 0..rng.gen_range(1..=10) {
            let d = dur(&mut rng);
            tasks.push((b.add_task(j, SlotKind::Map, d, 1), SlotKind::Map, release));
        }
        for _ in 0..rng.gen_range(0..=3) {
            let d = dur(&mut rng);
            tasks.push((
                b.add_task(j, SlotKind::Reduce, d, 1),
                SlotKind::Reduce,
                release,
            ));
        }
    }
    let n_res = caps.len() as u32;
    let mut hints: Vec<Hint> = Vec::with_capacity(tasks.len());
    for &(t, kind, release) in &tasks {
        let on = hosts(kind);
        let host = ResRef(on[rng.gen_range(0..on.len())]);
        if rng.gen_bool(0.12) {
            b.fix_task(t, host, rng.gen_range(-20..=80));
        }
        let hint = match rng.gen_range(0..10) {
            0..=2 => None,
            3..=5 => Some((host, release + rng.gen_range(0i64..=120))), // valid when free
            6 => Some((host, release - rng.gen_range(1i64..=10))),      // stale
            7 => Some((ResRef(n_res + rng.gen_range(0u32..3)), release)), // out of range
            8 => Some((ResRef(rng.gen_range(0..n_res)), release)),      // maybe no capacity
            _ => hints.last().copied().flatten(),                       // collides
        };
        hints.push(hint);
    }
    (b.build().expect("valid model"), hints)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn greedy_matches_the_walking_reference(seed in any::<u64>()) {
        let (model, hints) = random_case(seed);
        prop_assert_eq!(greedy_edf(&model), reference_greedy(&model, None));
        prop_assert_eq!(
            greedy_edf_with_hints(&model, &hints),
            reference_greedy(&model, Some(&hints))
        );
    }
}

/// The generator reaches the cases the property is about: pooled and
/// multi-resource models, pins that clash, and bookings into a hole
/// between two busy intervals of a slot.
#[test]
fn generator_covers_pins_clashes_and_holes() {
    let (mut ok, mut clash, mut pooled, mut holes) = (0, 0, 0, 0);
    for seed in 0..200 {
        let (model, hints) = random_case(seed);
        pooled += usize::from(model.n_resources() == 1);
        let before = HOLE_BOOKINGS.with(|h| h.get());
        match reference_greedy(&model, Some(&hints)) {
            Ok(_) => ok += 1,
            Err(_) => clash += 1,
        }
        holes += usize::from(HOLE_BOOKINGS.with(|h| h.get()) > before);
    }
    assert!(ok >= 100, "feasible cases: {ok}");
    assert!(clash >= 5, "pin clashes: {clash}");
    assert!(pooled >= 30, "pooled models: {pooled}");
    assert!(holes >= 50, "cases booking into a hole: {holes}");
}

//! Property tests for the split rung's model-free warm start: on random
//! rounds (pins, valid, stale and missing hints, slack and tight
//! deadlines) the plain calendar walk is the greedy's over the combined
//! model, the warm start is never worse than the walk without hints,
//! `split_solve_portfolio` answers as the model-then-solve path it
//! replaces, and on rounds small enough for the brute-force oracle the
//! rejection pass lies between the optimum and plain EDF. The comparisons are explicit, so they hold in release builds
//! too, where the rung's own debug cross-checks are off.

use cpsolve::brute::brute_force_optimal;
use cpsolve::greedy::{greedy_edf, greedy_edf_with_hints, Hint};
use cpsolve::model::ResRef;
use cpsolve::search::{solve, PortfolioParams, SolveParams, Status};
use cpsolve::solution::Solution;
use desim::SimTime;
use mrcp::modelmap::{build_combined_model, JobInput, TaskInput};
use mrcp::split::{
    audit, edf_warm_start, matchmake, split_solve_portfolio, warm_start, RoundHints,
};
use proptest::prelude::*;
use workload::model::{heterogeneous_cluster, homogeneous_cluster};
use workload::{Job, JobId, Resource, ResourceId, Task, TaskId, TaskKind};

/// One task: `(secs, resource, back, hint, hint_off)`. `resource` names
/// the pin's and the hint's resource (7 is one outside the cluster);
/// a pinned task started `back` seconds before `now`; `hint` 0 is missing,
/// 1 stale (before the release), else valid.
type TaskSpec = (u32, u32, i64, u32, i64);

/// One job: `(s_off, window, phase, maps, reduces)`. `s_j = now − 10 +
/// s_off`, the deadline `window` seconds after `now` (before the release:
/// the job is late already; from few values, so that deadlines tie). `phase` 0 has started nothing, 1 runs its first
/// map, 2 has finished its maps and runs its first reduce.
type JobSpec = (i64, i64, u32, Vec<TaskSpec>, Vec<TaskSpec>);

#[derive(Debug, Clone)]
struct Round {
    cluster: Vec<Resource>,
    now: i64,
    jobs: Vec<JobSpec>,
    /// Whether the round has hints at all.
    hinted: bool,
    /// 0: the first task lasts 0 s, which the model refuses; 1: it needs
    /// two slots, which the greedy refuses; else no flaw.
    flaw: u32,
    /// Job priorities: 0 one for all (the deadline, release and index
    /// break the ties), 1 the release, else the deadline (EDF).
    priority: u32,
}

fn task() -> impl Strategy<Value = TaskSpec> {
    (1u32..=8, 0u32..=7, 0i64..=7, 0u32..=3, 0i64..=30)
}

fn round() -> impl Strategy<Value = Round> {
    let hom = (1u32..=3, 1u32..=2, 1u32..=2).prop_map(|(m, cm, cr)| homogeneous_cluster(m, cm, cr));
    let het = prop::collection::vec((0u32..=2, 0u32..=2), 1..=3)
        .prop_map(|caps| heterogeneous_cluster(&caps));
    let window = prop_oneof![-5i64..=15, (1i64..=8).prop_map(|w| 10 * w)];
    let job = (
        0i64..=20,
        window,
        0u32..=2,
        prop::collection::vec(task(), 1..=4),
        prop::collection::vec(task(), 0..=2),
    );
    (
        prop_oneof![hom, het],
        0i64..=30,
        prop::collection::vec(job, 1..=5),
        prop_oneof![Just(true), Just(true), Just(false)],
        0u32..=15,
        0u32..=3,
    )
        .prop_map(|(cluster, now, jobs, hinted, flaw, priority)| Round {
            cluster,
            now,
            jobs,
            hinted,
            flaw,
            priority,
        })
}

/// The round's jobs, their model inputs and its hints, as the manager
/// derives them: completed tasks are absent, running ones pinned and
/// never hinted.
struct Built {
    jobs: Vec<Job>,
    /// Per job: `(release, tasks)`.
    tasks: Vec<(SimTime, Vec<TaskInput>)>,
    hints: Option<Vec<Option<(ResourceId, SimTime)>>>,
}

fn build(r: &Round) -> Built {
    let s = SimTime::from_secs;
    let mut next = 0u32;
    let mut jobs = Vec::new();
    let mut tasks = Vec::new();
    let mut hints = Vec::new();
    for (j, (s_off, window, phase, maps, reduces)) in r.jobs.iter().enumerate() {
        let earliest = s(r.now - 10 + s_off);
        let release = earliest.max(s(r.now));
        let mut job = Job {
            id: JobId(j as u32),
            arrival: earliest,
            earliest_start: earliest,
            deadline: s(r.now + window),
            map_tasks: vec![],
            reduce_tasks: vec![],
        };
        let mut inputs = Vec::new();
        for (kind, specs) in [(TaskKind::Map, maps), (TaskKind::Reduce, reduces)] {
            for (k, &(secs, res, back, hint, hint_off)) in specs.iter().enumerate() {
                let first = next == 0;
                let t = Task {
                    id: TaskId(next),
                    job: job.id,
                    kind,
                    exec_time: s(i64::from(if first && r.flaw == 0 { 0 } else { secs })),
                    req: if first && r.flaw == 1 { 2 } else { 1 },
                };
                next += 1;
                let free = TaskInput::free(&t);
                match kind {
                    TaskKind::Map => job.map_tasks.push(t),
                    TaskKind::Reduce => job.reduce_tasks.push(t),
                }
                let (completed, running) = match (kind, phase) {
                    (TaskKind::Map, 1) => (false, k == 0),
                    (TaskKind::Map, 2) => (true, false),
                    (TaskKind::Reduce, 2) => (false, k == 0),
                    _ => (false, false),
                };
                if completed {
                    continue;
                }
                let n = r.cluster.len() as u32;
                let rid = ResourceId(if res == 7 { n } else { res % n });
                // A running task ends after `now`.
                let pinned =
                    running.then(|| (rid, s(r.now - back.min(i64::from(secs) - 1).max(0))));
                inputs.push(TaskInput { pinned, ..free });
                hints.push(match (pinned, hint) {
                    (Some(_), _) | (None, 0) => None,
                    (None, 1) => Some((rid, release - s(1 + hint_off % 5))),
                    (None, _) => Some((rid, release + s(hint_off))),
                });
            }
        }
        // A phase-2 job with no reduce has nothing left.
        if !inputs.is_empty() {
            jobs.push(job);
            tasks.push((release, inputs));
        }
    }
    Built {
        jobs,
        tasks,
        hints: r.hinted.then_some(hints),
    }
}

fn inputs<'a>(r: &Round, b: &'a Built) -> Vec<JobInput<'a>> {
    b.jobs
        .iter()
        .zip(&b.tasks)
        .map(|(job, (release, tasks))| JobInput {
            job,
            release: *release,
            priority: match r.priority {
                0 => 0,
                1 => release.as_millis(),
                _ => job.deadline.as_millis(),
            },
            tasks: tasks.clone(),
        })
        .collect()
}

fn combined_hints(h: &RoundHints) -> Vec<Hint> {
    h.iter()
        .map(|o| o.map(|(_, s)| (ResRef(0), s.as_millis())))
        .collect()
}

/// What the round compares: placements, objective, status and nodes, or
/// the error.
type Answer = Result<(Vec<(TaskId, ResourceId, SimTime)>, u32, Status, u64), String>;

/// The path the split rung replaces, spelt out: build the combined model,
/// take the warm start as the incumbent, adopt `greedy_edf` over the model
/// in its place when it has strictly fewer late jobs, solve from that and
/// matchmake the best schedule. No on-time shortcut: `solve` returns an
/// on-time incumbent at once.
fn reference(
    resources: &[Resource],
    jobs: &[JobInput<'_>],
    pp: &PortfolioParams,
    hints: Option<&RoundHints>,
) -> Answer {
    let mm = build_combined_model(resources, jobs)?;
    let mut initial = warm_start(resources, jobs, hints).map(|ws| {
        Solution::from_placements(&mm.model, ws.starts, vec![ResRef(0); mm.task_ids.len()])
    });
    if let Ok(g) = greedy_edf(&mm.model) {
        if initial.as_ref().is_none_or(|w| g.objective < w.objective) {
            initial = Some(g);
        }
    }
    let params = SolveParams {
        initial,
        ..pp.base.clone()
    };
    let outcome = solve(&mm.model, &params);
    let best = outcome
        .best
        .as_ref()
        .ok_or("combined-resource solve produced no schedule")?;
    let placements = matchmake(resources, jobs, &best.starts)?;
    if cfg!(debug_assertions) {
        audit(resources, jobs, &placements)?;
    }
    Ok((
        placements,
        best.objective,
        outcome.status,
        outcome.stats.nodes,
    ))
}

fn params() -> PortfolioParams {
    PortfolioParams::single(&SolveParams {
        node_limit: 300,
        fail_limit: 300,
        ..SolveParams::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The plain calendar walk is `greedy_edf_with_hints` (or `greedy_edf`
    /// without hints) over the combined model: the same starts and late
    /// count, and `None` exactly where the model or its greedy fails.
    #[test]
    fn calendar_warm_start_is_the_model_greedy(r in round()) {
        let b = build(&r);
        let jobs = inputs(&r, &b);
        let warm = edf_warm_start(&r.cluster, &jobs, b.hints.as_deref());
        let greedy = build_combined_model(&r.cluster, &jobs).and_then(|mm| match &b.hints {
            Some(h) => greedy_edf_with_hints(&mm.model, &combined_hints(h)),
            None => greedy_edf(&mm.model),
        });
        prop_assert_eq!(
            warm.map(|w| (w.starts, w.late)),
            greedy.ok().map(|g| (g.starts, g.objective)),
            "{:?}",
            r
        );
    }

    /// The warm start, hinted or not, has no more late jobs than the plain
    /// walk without hints, and fails only where that walk fails.
    #[test]
    fn warm_start_is_never_worse_than_the_cold_walk(r in round()) {
        let b = build(&r);
        let jobs = inputs(&r, &b);
        let warm = warm_start(&r.cluster, &jobs, b.hints.as_deref());
        match (warm, edf_warm_start(&r.cluster, &jobs, None)) {
            (Some(w), Some(cold)) => prop_assert!(w.late <= cold.late, "{:?}", r),
            (w, cold) => prop_assert_eq!(w.is_some(), cold.is_some(), "{:?}", r),
        }
    }

    /// `split_solve_portfolio` answers as the model-then-solve path: the
    /// same placements, objective, status and node count, or the same
    /// error.
    #[test]
    fn split_rung_answers_as_the_model_path(r in round()) {
        let b = build(&r);
        let jobs = inputs(&r, &b);
        let pp = params();
        let hints = b.hints.as_deref();
        let got: Answer = split_solve_portfolio(&r.cluster, &jobs, &pp, hints).map(|s| {
            let best = s.outcome.best.expect("an answer carries its schedule");
            (s.placements, best.objective, s.outcome.status, s.outcome.stats.nodes)
        });
        prop_assert_eq!(got, reference(&r.cluster, &jobs, &pp, hints), "{:?}", r);
    }
}

/// One tiny job, in milliseconds: `(release, window, maps, reduces,
/// pinned)`, where `pinned` runs the first map on resource 0 from 0 ms.
type TinyJob = (i64, i64, Vec<i64>, Vec<i64>, bool);

/// A round small enough for the brute-force oracle: all at `now` = 0, each
/// job's deadline `release + window`, priorities EDF.
#[derive(Debug, Clone)]
struct Tiny {
    cluster: Vec<Resource>,
    jobs: Vec<TinyJob>,
}

fn tiny() -> impl Strategy<Value = Tiny> {
    let cluster = prop_oneof![
        (1u32..=2, 1u32..=2).prop_map(|(m, r)| homogeneous_cluster(1, m, r)),
        (1u32..=2, 1u32..=2).prop_map(|(m, r)| homogeneous_cluster(2, m.min(1), r.min(1))),
    ];
    let job = (
        0i64..=3,
        1i64..=9,
        prop::collection::vec(1i64..=4, 1..=2),
        prop::collection::vec(1i64..=3, 0..=1),
        prop_oneof![Just(false), Just(false), Just(true)],
    );
    (cluster, prop::collection::vec(job, 2..=3)).prop_map(|(cluster, jobs)| Tiny { cluster, jobs })
}

fn tiny_jobs(t: &Tiny) -> (Vec<Job>, Vec<Vec<TaskInput>>) {
    let ms = SimTime::from_millis;
    let mut next = 0u32;
    let (mut jobs, mut tasks) = (Vec::new(), Vec::new());
    for (j, (release, window, maps, reduces, pinned)) in t.jobs.iter().enumerate() {
        let mut job = Job {
            id: JobId(j as u32),
            arrival: ms(*release),
            earliest_start: ms(*release),
            deadline: ms(release + window),
            map_tasks: vec![],
            reduce_tasks: vec![],
        };
        let mut inputs = Vec::new();
        for (kind, durs) in [(TaskKind::Map, maps), (TaskKind::Reduce, reduces)] {
            for (k, &dur) in durs.iter().enumerate() {
                let task = Task {
                    id: TaskId(next),
                    job: job.id,
                    kind,
                    exec_time: ms(dur),
                    req: 1,
                };
                next += 1;
                let running = *pinned && kind == TaskKind::Map && k == 0;
                inputs.push(TaskInput {
                    pinned: running.then(|| (ResourceId(0), ms(0))),
                    ..TaskInput::free(&task)
                });
                match kind {
                    TaskKind::Map => job.map_tasks.push(task),
                    TaskKind::Reduce => job.reduce_tasks.push(task),
                }
            }
        }
        jobs.push(job);
        tasks.push(inputs);
    }
    (jobs, tasks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On rounds the oracle can exhaust, the rejection pass's warm start
    /// verifies on the combined model, its late count is the schedule's,
    /// and it lies between the optimum and plain EDF.
    #[test]
    fn rejection_pass_lies_between_the_optimum_and_edf(t in tiny()) {
        let (jobs, tasks) = tiny_jobs(&t);
        let inputs: Vec<JobInput<'_>> = jobs
            .iter()
            .zip(&tasks)
            .map(|(job, tasks)| JobInput {
                job,
                release: job.earliest_start,
                priority: job.deadline.as_millis(),
                tasks: tasks.clone(),
            })
            .collect();
        // Two pins on one resource's single map slot cannot both run.
        let Ok(mm) = build_combined_model(&t.cluster, &inputs) else { return Ok(()) };
        let (Some(warm), Some(edf)) = (
            warm_start(&t.cluster, &inputs, None),
            edf_warm_start(&t.cluster, &inputs, None),
        ) else {
            prop_assert!(greedy_edf(&mm.model).is_err(), "{:?}", t);
            return Ok(());
        };
        let sol = Solution::from_placements(&mm.model, warm.starts, vec![ResRef(0); mm.task_ids.len()]);
        prop_assert!(sol.verify(&mm.model).is_ok(), "{:?}: {:?}", t, sol.verify(&mm.model));
        prop_assert_eq!(sol.objective, warm.late);
        prop_assert!(warm.late <= edf.late, "{:?}", t);
        if let Some(optimum) = brute_force_optimal(&mm.model, 200_000) {
            prop_assert!(optimum <= warm.late, "{:?}", t);
        }
    }
}

/// The tiny rounds hold cases where the pass beats plain EDF and cases
/// where it ties, so the bounds above are not met by equality alone.
#[test]
fn tiny_rounds_reach_the_pass() {
    let (mut better, mut tied) = (0, 0);
    let strategy = tiny();
    for case in 0..512 {
        let mut rng = proptest::test_runner::TestRng::for_case("tiny", case);
        let t = strategy.sample(&mut rng);
        let (jobs, tasks) = tiny_jobs(&t);
        let inputs: Vec<JobInput<'_>> = jobs
            .iter()
            .zip(&tasks)
            .map(|(job, tasks)| JobInput {
                job,
                release: job.earliest_start,
                priority: job.deadline.as_millis(),
                tasks: tasks.clone(),
            })
            .collect();
        let warm = warm_start(&t.cluster, &inputs, None);
        match (warm, edf_warm_start(&t.cluster, &inputs, None)) {
            (Some(w), Some(e)) if w.late < e.late => better += 1,
            (Some(w), Some(e)) if e.late > 0 && w == e => tied += 1,
            _ => {}
        }
    }
    assert!(better >= 10 && tied >= 10, "better {better}, tied {tied}");
}

/// The generator reaches every branch the comparisons are about: on-time
/// and late warm starts, hinted and cold rounds, rounds the calendar
/// leaves to the model, failed rounds, and hinted rounds where the walk
/// without hints beats the replay and becomes the warm start.
#[test]
fn the_generator_covers_the_rungs_branches() {
    let mut seen = [0u32; 6];
    let strategy = round();
    for case in 0..512 {
        let mut rng = proptest::test_runner::TestRng::for_case("coverage", case);
        let r = strategy.sample(&mut rng);
        let b = build(&r);
        let jobs = inputs(&r, &b);
        let hints = b.hints.as_deref();
        let warm = warm_start(&r.cluster, &jobs, hints);
        match &warm {
            Some(w) if w.late == 0 => seen[0] += 1,
            Some(_) => seen[1] += 1,
            None => seen[2] += 1,
        }
        let hinted = hints.is_some_and(|h| h.iter().any(Option::is_some));
        seen[3] += u32::from(hinted);
        seen[4] += u32::from(split_solve_portfolio(&r.cluster, &jobs, &params(), hints).is_err());
        let replay = edf_warm_start(&r.cluster, &jobs, hints);
        let cold = edf_warm_start(&r.cluster, &jobs, None);
        let cold_won = match (&replay, &cold) {
            (Some(replay), Some(cold)) => cold.late < replay.late && warm.as_ref() == Some(cold),
            _ => false,
        };
        seen[5] += u32::from(hinted && cold_won);
    }
    assert!(seen.iter().all(|&n| n >= 20), "{seen:?}");
}

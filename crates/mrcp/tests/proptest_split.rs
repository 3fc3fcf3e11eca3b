//! Property tests for the split rung's model-free warm start: on random
//! rounds (pins, valid, stale and missing hints, slack and tight
//! deadlines) the calendar warm start is the greedy's over the combined
//! model, and `split_solve_portfolio` answers as the model-then-solve path
//! it replaces on on-time rounds. The comparisons are explicit, so they
//! hold in release builds too, where the rung's own debug cross-check is
//! off.

use cpsolve::greedy::{greedy_edf, greedy_edf_with_hints, Hint};
use cpsolve::model::ResRef;
use cpsolve::portfolio::{solve_portfolio, PortfolioParams};
use cpsolve::search::{SolveParams, Status};
use desim::SimTime;
use mrcp::modelmap::{build_combined_model, JobInput, TaskInput};
use mrcp::split::{audit, matchmake, split_solve_portfolio, warm_start, RoundHints};
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
    warm_start: bool,
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
        any::<bool>(),
        0u32..=15,
        0u32..=3,
    )
        .prop_map(
            |(cluster, now, jobs, hinted, warm_start, flaw, priority)| Round {
                cluster,
                now,
                jobs,
                hinted,
                warm_start,
                flaw,
                priority,
            },
        )
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

/// The split rung as it was before the calendar warm start: build the
/// combined model, seed the solve with the hinted greedy over it, solve,
/// matchmake the best schedule.
fn reference(
    resources: &[Resource],
    jobs: &[JobInput<'_>],
    pp: &PortfolioParams,
    hints: Option<&RoundHints>,
) -> Answer {
    let mm = build_combined_model(resources, jobs)?;
    let mut pp = pp.clone();
    if let Some(h) = hints {
        if let Ok(sol) = greedy_edf_with_hints(&mm.model, &combined_hints(h)) {
            if pp
                .base
                .initial
                .as_ref()
                .is_none_or(|cur| sol.objective < cur.objective)
            {
                pp.base.initial = Some(sol);
            }
        }
    }
    let outcome = solve_portfolio(&mm.model, &pp);
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

fn params(warm_start: bool) -> PortfolioParams {
    PortfolioParams::single(&SolveParams {
        node_limit: 300,
        fail_limit: 300,
        warm_start,
        ..SolveParams::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The calendar warm start is `greedy_edf_with_hints` (or `greedy_edf`
    /// without hints) over the combined model: the same starts and late
    /// count, and `None` exactly where the model or its greedy fails.
    #[test]
    fn calendar_warm_start_is_the_model_greedy(r in round()) {
        let b = build(&r);
        let jobs = inputs(&r, &b);
        let warm = warm_start(&r.cluster, &jobs, b.hints.as_deref());
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

    /// `split_solve_portfolio` answers as the model-then-solve path: the
    /// same placements, objective, status and node count, or the same
    /// error.
    #[test]
    fn split_rung_answers_as_the_model_path(r in round()) {
        let b = build(&r);
        let jobs = inputs(&r, &b);
        let pp = params(r.warm_start);
        let hints = b.hints.as_deref();
        let got: Answer = split_solve_portfolio(&r.cluster, &jobs, &pp, hints).map(|s| {
            (s.placements, s.objective, s.outcome.status, s.outcome.stats.nodes)
        });
        prop_assert_eq!(got, reference(&r.cluster, &jobs, &pp, hints), "{:?}", r);
    }
}

/// The generator reaches every branch the comparisons are about: on-time
/// and late warm starts, hinted and cold rounds, rounds the calendar
/// leaves to the model, and failed rounds.
#[test]
fn the_generator_covers_the_rungs_branches() {
    let mut seen = [0u32; 5];
    let strategy = round();
    for case in 0..512 {
        let mut rng = proptest::test_runner::TestRng::for_case("coverage", case);
        let r = strategy.sample(&mut rng);
        let b = build(&r);
        let jobs = inputs(&r, &b);
        match warm_start(&r.cluster, &jobs, b.hints.as_deref()) {
            Some(w) if w.late == 0 => seen[0] += 1,
            Some(_) => seen[1] += 1,
            None => seen[2] += 1,
        }
        seen[3] += u32::from(
            b.hints
                .as_ref()
                .is_some_and(|h| h.iter().any(Option::is_some)),
        );
        let pp = params(r.warm_start);
        seen[4] +=
            u32::from(split_solve_portfolio(&r.cluster, &jobs, &pp, b.hints.as_deref()).is_err());
    }
    assert!(seen.iter().all(|&n| n >= 20), "{seen:?}");
}

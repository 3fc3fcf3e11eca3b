//! Property tests for the backtrackable domain store: after any sequence of
//! trailed narrowings and level pops, the domains equal what a naive
//! snapshot-based implementation would produce.

use cpsolve::model::{JobRef, ModelBuilder, SlotKind, TaskRef};
use cpsolve::state::{Domains, Lateness};
use proptest::prelude::*;

const N_TASKS: usize = 4;

#[derive(Debug, Clone)]
enum Op {
    SetLb(usize, i64),
    SetUb(usize, i64),
    SetLate(usize, bool),
    Push,
    Pop,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..N_TASKS, 0i64..100).prop_map(|(t, v)| Op::SetLb(t, v)),
        (0..N_TASKS, 0i64..100).prop_map(|(t, v)| Op::SetUb(t, v)),
        (0..N_TASKS, any::<bool>()).prop_map(|(j, l)| Op::SetLate(j, l)),
        Just(Op::Push),
        Just(Op::Pop),
    ]
}

/// A naive reference: full snapshots on push, restore on pop.
#[derive(Debug, Clone, PartialEq)]
struct Snapshot {
    lb: Vec<i64>,
    ub: Vec<i64>,
    late: Vec<Option<bool>>,
}

impl Snapshot {
    fn of(d: &Domains, n_tasks: usize, n_jobs: usize) -> Snapshot {
        Snapshot {
            lb: (0..n_tasks).map(|i| d.lb(TaskRef(i as u32))).collect(),
            ub: (0..n_tasks).map(|i| d.ub(TaskRef(i as u32))).collect(),
            late: (0..n_jobs)
                .map(|i| match d.late(JobRef(i as u32)) {
                    Lateness::Unknown => None,
                    Lateness::OnTime => Some(false),
                    Lateness::Late => Some(true),
                })
                .collect(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn trail_restores_exactly(ops in prop::collection::vec(op(), 0..60)) {
        let mut b = ModelBuilder::new();
        b.add_resource(2, 2);
        for _ in 0..N_TASKS {
            let j = b.add_job(0, 100);
            b.add_task(j, SlotKind::Map, 5, 1);
        }
        b.set_horizon(100);
        let model = b.build().unwrap();

        let mut dom = Domains::new(&model);
        let mut shadow: Vec<Snapshot> = Vec::new();

        for o in ops {
            match o {
                Op::SetLb(t, v) => {
                    let _ = dom.set_lb(TaskRef(t as u32), v); // conflicts fine
                }
                Op::SetUb(t, v) => {
                    let _ = dom.set_ub(TaskRef(t as u32), v);
                }
                Op::SetLate(j, l) => {
                    let v = if l { Lateness::Late } else { Lateness::OnTime };
                    let _ = dom.set_late(JobRef(j as u32), v);
                }
                Op::Push => {
                    shadow.push(Snapshot::of(&dom, N_TASKS, N_TASKS));
                    dom.push_level();
                }
                Op::Pop => {
                    if let Some(expected) = shadow.pop() {
                        dom.pop_level();
                        let actual = Snapshot::of(&dom, N_TASKS, N_TASKS);
                        prop_assert_eq!(actual, expected,
                            "pop_level must restore the exact pre-push state");
                    }
                }
            }
        }
        // Unwind everything that remains.
        while let Some(expected) = shadow.pop() {
            dom.pop_level();
            let actual = Snapshot::of(&dom, N_TASKS, N_TASKS);
            prop_assert_eq!(actual, expected);
        }
        prop_assert_eq!(dom.depth(), 0);
    }
}

//! # cpsolve — a constraint programming solver for MapReduce SLA scheduling
//!
//! This crate replaces the role IBM ILOG CPLEX CP Optimizer plays in
//! Lim et al. (ICPP 2014). It models the matchmaking-and-scheduling
//! formulation of the paper's Table 1:
//!
//! * **Variables** — per task: a resource assignment (the paper's `x_tr`)
//!   and an integer start time (`a_t`); per job: a lateness indicator
//!   (`N_j`).
//! * **Constraints** — (1) each task on exactly one resource,
//!   (2) map starts at/after the job's earliest start time,
//!   (3) reduces start after every map of the job completes,
//!   (4) `N_j = 1` iff the job finishes after its deadline,
//!   (5)(6) per-resource map/reduce slot capacities (`cumulative`),
//!   plus pinning constraints for tasks that already started executing
//!   (the incremental-rescheduling constraints of the paper's §V.B).
//! * **Objective** — minimize `Σ N_j`, the number of late jobs.
//!
//! Table 1 is what the checkers judge against: [`Solution::verify`], the
//! greedy EDF list scheduler ([`greedy`], also a source of incumbents) and
//! the independent brute-force oracle ([`brute`]) all take any number of
//! resources. The search ([`search`]) solves the model the product builds,
//! §V.D's combined model: one resource whose pools hold every slot of the
//! cluster, so `x_tr` is decided up front and only start times are
//! searched; it refuses a model with more than one resource. It is a
//! classic trail-based CP kernel: bounds domains for start times, a
//! propagation fixpoint over dedicated propagators (phase barrier,
//! timetable cumulative, lateness reification, objective bound), and one
//! sequential depth-first branch-and-bound with an EDF-guided set-times
//! branching rule. The crate starts no threads.
//!
//! Times are plain `i64` ticks — callers choose the unit (the MRCP-RM crate
//! uses milliseconds).
//!
//! ```
//! use cpsolve::model::{ModelBuilder, SlotKind};
//! use cpsolve::search::{solve, SolveParams};
//!
//! // One resource with 1 map + 1 reduce slot; one job with 2 maps and a
//! // reduce, due by t=40.
//! let mut b = ModelBuilder::new();
//! let r = b.add_resource(1, 1);
//! let j = b.add_job(0, 40);
//! b.add_task(j, SlotKind::Map, 10, 1);
//! b.add_task(j, SlotKind::Map, 10, 1);
//! b.add_task(j, SlotKind::Reduce, 5, 1);
//! let model = b.build().unwrap();
//! let outcome = solve(&model, &SolveParams::default());
//! let best = outcome.best.expect("feasible");
//! assert_eq!(best.objective, 0, "job fits before its deadline");
//! best.verify(&model).unwrap();
//! # let _ = r;
//! ```

pub mod brute;
pub mod greedy;
pub mod model;
pub mod observe;
pub mod props;
pub mod search;
pub mod solution;
pub mod state;

pub use model::{JobRef, Model, ModelBuilder, ResRef, SlotKind, TaskRef};
pub use observe::{record_solve, SolveTel};
pub use props::{PropClass, PropClassStats, N_PROP_CLASSES, PROP_CLASSES};
pub use search::{solve, Outcome, PortfolioParams, SolveParams, SolveStats, Status};
pub use solution::Solution;

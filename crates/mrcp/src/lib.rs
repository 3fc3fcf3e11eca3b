//! # mrcp — the MapReduce Constraint Programming based Resource Manager
//!
//! The primary contribution of Lim, Majumdar & Ashwood-Smith (ICPP 2014):
//! a resource manager that performs matchmaking and scheduling of an **open
//! stream** of MapReduce jobs with SLAs (earliest start time, per-task
//! execution times, end-to-end deadline) by repeatedly building and solving
//! the Table 1 CP formulation.
//!
//! Crate layout, mapped to the paper:
//!
//! * [`manager`] — the MRCP-RM resource manager itself (Fig. 1 + the
//!   Table 2 algorithm): submit jobs, track started/completed tasks, and
//!   reschedule incrementally — pinning started-but-unfinished tasks and
//!   remapping everything else. It also holds the §V.E performance
//!   optimization ([`MrcpConfig::defer`]): a job whose earliest start time
//!   lies in the future is parked and enters the CP model only then.
//! * [`modelmap`] — translation of the live system state into a
//!   [`cpsolve`] model (the role of the OPL model generation in §V.C).
//! * [`split`] — the §V.D performance optimization: solve scheduling on a
//!   single combined resource, then run the gap-minimizing matchmaking
//!   that distributes the schedule over the real resources.
//! * [`admission`] — overload protection beyond the paper: SLA-aware
//!   admission control (EDF demand bound + greedy witness schedule),
//!   pending-queue backpressure, and the adaptive budget controller.
//! * [`ordering`] — the three job ordering strategies of §VI.B (job id,
//!   EDF, least laxity).
//! * [`sim_driver`] — MRCP-RM embedded in the [`desim`] engine for the
//!   open-system evaluation of §VI, producing the paper's metrics
//!   (`O`, `N`, `T`, `P`).

pub mod admission;
pub mod gantt;
pub mod manager;
pub mod modelmap;
pub mod ordering;
pub mod sim_driver;
pub mod split;

pub use admission::{AdmissionConfig, AdmissionDecision, AdmissionPolicy, RejectReason};
pub use manager::{
    AbandonedJob, AdmissionOutcome, BudgetController, FailureAction, JobCompletion, JobImage,
    ManagerError, ManagerImage, ManagerStats, MrcpConfig, MrcpRm, PlannedJob, RoundCacheImage,
    ScheduleEntry, SchedulingError, SolveBudget, TaskImage, TaskStatusImage,
};
pub use ordering::JobOrdering;
pub use sim_driver::{
    simulate, simulate_detailed, simulate_with, IngestConfig, JobOutcome, ManagerCrashConfig,
    OverheadModel, ResourceManager, RunMetrics, SimConfig,
};

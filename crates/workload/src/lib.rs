//! # workload — MapReduce job model and workload generators
//!
//! Implements the problem model of Lim et al. (ICPP 2014) §III.A:
//!
//! * [`model`] — [`model::Job`], [`model::Task`],
//!   [`model::Resource`] with SLA attributes (earliest start time
//!   `s_j`, per-task execution times `e_t`, end-to-end deadline `d_j`),
//! * [`dist`] — the samplers the paper's Table 3 uses: discrete uniform,
//!   continuous uniform, Bernoulli, exponential (Poisson inter-arrivals),
//!   and LogNormal (Facebook task times),
//! * [`synthetic`] — the factor-at-a-time workload of Table 3,
//! * [`facebook`] — the October-2009 Facebook-derived workload of Table 4,
//! * [`trace`] — JSON (de)serialization of generated workloads so an
//!   experiment's exact input can be archived and replayed.

pub mod dist;
pub mod facebook;
pub mod fault;
pub mod model;
pub mod synthetic;
pub mod trace;

pub use facebook::{FacebookConfig, FacebookGenerator};
pub use fault::{AttemptOutcome, FaultConfig, FaultModel, Outage};
pub use model::{Job, JobId, Resource, ResourceId, Task, TaskId, TaskKind};
pub use synthetic::{ArrivalConfig, ArrivalKind, SyntheticConfig, SyntheticGenerator};

//! # mrcp-rm — CP-based resource management for MapReduce jobs with SLAs
//!
//! A from-scratch Rust reproduction of Lim, Majumdar & Ashwood-Smith,
//! *"A Constraint Programming-Based Resource Management Technique for
//! Processing MapReduce Jobs with SLAs on Clouds"* (ICPP 2014): the
//! MRCP-RM resource manager, the constraint-programming solver it runs on,
//! the MinEDF-WC comparator, the workload generators of the paper's
//! evaluation, and a discrete event simulation harness that regenerates
//! every figure.
//!
//! This umbrella crate re-exports the workspace members; see each crate
//! for its own documentation:
//!
//! * [`cpsolve`] — the CP solver (the CPLEX CP Optimizer replacement),
//! * [`desim`] — the discrete event simulation kernel,
//! * [`workload`] — job/task/resource model and workload generators,
//! * [`mrcp`] — the MRCP-RM resource manager (the paper's contribution),
//! * [`cluster`] — the multi-cell federation sharding the pool across
//!   several MRCP-RM instances (extension),
//! * [`service`] — the async ingest front door: batched arrival
//!   coalescing and closed-loop ramp harness ahead of any resource
//!   manager (extension),
//! * [`baselines`] — MinEDF-WC, MinEDF, EDF and FCFS,
//! * [`experiments`] — the figure-regeneration harness.
//!
//! ## Quick taste
//!
//! ```
//! use mrcp_rm::mrcp::{simulate, SimConfig};
//! use mrcp_rm::workload::model::homogeneous_cluster;
//! use mrcp_rm::workload::{SyntheticConfig, SyntheticGenerator};
//! use rand::SeedableRng;
//!
//! // 30 Table 3-style jobs (shrunk) on a 4-node cluster.
//! let cfg = SyntheticConfig {
//!     maps_per_job: (1, 6),
//!     reduces_per_job: (1, 3),
//!     e_max: 10,
//!     lambda: 0.05,
//!     resources: 4,
//!     ..Default::default()
//! };
//! let mut gen = SyntheticGenerator::new(cfg.clone(), rand::rngs::StdRng::seed_from_u64(7));
//! let jobs = gen.take_jobs(30);
//! let metrics = simulate(&SimConfig::default(), &cfg.cluster(), jobs);
//! assert_eq!(metrics.completed, 30);
//! ```

pub use baselines;
pub use cluster;
pub use cpsolve;
pub use desim;
pub use experiments;
pub use mrcp;
pub use service;
pub use workload;

//! # baselines — comparator schedulers for the MRCP-RM evaluation
//!
//! The paper's Figs. 2–3 compare MRCP-RM against **MinEDF-WC** from
//! Verma, Cherkasova & Campbell ("ARIA", reference \[8\] of the paper): an
//! earliest-deadline-first policy that allocates each job the *minimum*
//! number of map/reduce slots needed to meet its deadline and hands spare
//! slots out work-conservingly, reclaiming them (as tasks finish — tasks
//! are never killed) when a needier job arrives.
//!
//! All baselines run on the shared slot-level discrete event simulator in
//! [`slot_sim`], which models the cluster the way ARIA does: a pool of map
//! slots and a pool of reduce slots, with reduces eligible once every map
//! of the job has finished (the same barrier MRCP-RM's CP model enforces).
//!
//! Provided policies:
//! * [`minedf_wc::MinEdfWc`] — the paper's comparator,
//! * [`minedf_wc::MinEdf`] — its non-work-conserving variant,
//! * [`edf::Edf`] — plain work-conserving EDF (no minimum shares),
//! * [`fcfs::Fcfs`] — arrival order, the classic Hadoop default.

pub mod edf;
pub mod fcfs;
pub mod minedf_wc;
pub mod slot_sim;

pub use edf::Edf;
pub use fcfs::Fcfs;
pub use minedf_wc::{MinEdf, MinEdfWc};
pub use slot_sim::{run_slot_sim, BaselineMetrics, DispatchPolicy, JobSnapshot};

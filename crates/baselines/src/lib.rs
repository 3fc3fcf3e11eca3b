//! # baselines — comparator schedulers for the MRCP-RM evaluation
//!
//! The paper's Figs. 2–3 compare MRCP-RM against **MinEDF-WC** from
//! Verma, Cherkasova & Campbell ("ARIA", reference \[8\] of the paper):
//! EDF over jobs that first get the *minimum* map/reduce slots their
//! deadlines need ([`minedf_wc`]), with spare slots handed out
//! work-conservingly and reclaimed as tasks finish.
//!
//! Every baseline is a [`DispatchRm`], a [`mrcp::ResourceManager`] that
//! hands out slots by a [`Policy`] (`MinEdfWc`, `MinEdf`, `Edf` or `Fcfs`).
//! It runs on MRCP-RM's driver, so both sides of a comparison share one
//! event loop, one warm-up cut and one [`mrcp::RunMetrics`]:
//!
//! ```text
//! simulate_with(&sim, &res, jobs, |c| DispatchRm::new(Policy::MinEdfWc, c, res.to_vec()))
//! ```

pub mod dispatch;
pub mod minedf_wc;

pub use dispatch::{DispatchRm, Policy};
pub use minedf_wc::{min_share, MinShare};

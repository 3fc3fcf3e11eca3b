//! # cluster — multi-cell federation over MRCP-RM
//!
//! The paper's MRCP-RM is a single scheduler: every arrival triggers a
//! round over the whole resource pool, so matchmaking-and-scheduling
//! overhead `O` grows superlinearly with the number of jobs in flight
//! (Fig. 4, Table 4) and caps the cluster size one manager can serve.
//! This crate is the scale-out answer: the pool is sharded into K
//! **cells**, each running its own full [`mrcp::MrcpRm`] (admission probe,
//! round cache, budget controller and all), behind
//!
//! * a **router** ([`router`]) that places each arriving job with
//!   power-of-two-choices: probe the two least-loaded cells' admission
//!   estimators and send the job to the better one, spilling to the
//!   alternative when the first probe rejects;
//! * **concurrent rounds** ([`federation`]): cells dirtied since the last
//!   round solve simultaneously on scoped threads, splitting the
//!   [`mrcp::SolveBudget`] `workers` portfolio budget between them;
//! * a **rebalancer** ([`rebalance`]): after each round, jobs a cell's
//!   incumbent schedule leaves late are offered, under a bounded
//!   migration budget, to the cell whose probe reports the most slack.
//!
//! [`Federation`] implements [`mrcp::ResourceManager`], so the existing
//! simulation driver (arrivals, deferrals, task lifecycle, fault
//! injection) drives a federated cluster unchanged: the caller builds the
//! stack it wants inside [`mrcp::simulate_with`] —
//!
//! ```text
//! simulate_with(&sim, &res, jobs, |c| Federation::with_chaos(&cluster, c, res.to_vec(), &chaos))
//! ```
//!
//! or [`DurableFederation::new`] followed by
//! [`enable_chaos`](DurableFederation::enable_chaos) and
//! [`set_telemetry`](DurableFederation::set_telemetry). With `cells = 1`
//! the federation is behaviorally identical to the plain single-manager
//! driver (proved by the determinism regression tests).
//!
//! ## Partial-failure tolerance
//!
//! The router speaks to each cell through a fallible [`endpoint`]: every
//! mutating command is a [`durability::ManagerEvent`] (the vocabulary the
//! cell's WAL holds), sequence-numbered, retried under a capped
//! exponential backoff with deterministic jitter, and deduplicated
//! cell-side, so delivery is at-most-once even when the [`chaos`] layer
//! injects drops, duplicates, latency, hangs, and MTTF/MTTR-driven cell
//! crashes. A per-cell circuit breaker ([`health`]) takes `Down` cells
//! out of routing; their unstarted jobs fail over to the slackest
//! survivors, and restarts rehydrate lost state through
//! [`recover_cell`] WAL replay when the federation runs durable. While
//! faults are injected the federation audits its own fleet invariant after
//! every round ([`Federation::violations`]). With chaos off, every
//! mechanism is provably inert: deliveries succeed first try, no
//! randomness is drawn, no audit runs, and runs stay bit-identical to the
//! pre-chaos federation.

pub mod cell;
pub mod chaos;
pub mod durable;
pub mod endpoint;
pub mod federation;
pub mod health;
pub mod metrics;
pub mod rebalance;
pub mod router;

pub use cell::Cell;
pub use chaos::ChaosConfig;
pub use durable::{recover_cell, DurableFederation};
pub use endpoint::RpcError;
pub use federation::{ClusterConfig, Federation};
pub use health::{CellHealth, HealthState};
pub use metrics::ClusterMetrics;
pub use rebalance::RebalanceConfig;

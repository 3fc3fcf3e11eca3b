//! # service — the async ingest front door
//!
//! The paper's resource manager (and the federation built on it) exposes a
//! synchronous call-per-arrival surface: every submitted job triggers an
//! admission probe and dirties the scheduler, and every scheduling round
//! solves a CP model whose cost is dominated by per-round fixed overhead.
//! Under a bursty open stream that couples the CP solve rate to the
//! *arrival* rate — the knee of the throughput curve sits far below what
//! the cluster could sustain if bursts were amortized.
//!
//! This crate decouples them. It is three layers, lowest first:
//!
//! * [`InstrumentedRm`] — a transparent [`mrcp::ResourceManager`] decorator that
//!   timestamps every job's path through ingest: *ingest→admitted* (arrival
//!   to admission verdict) and *ingest→planned* (arrival to the first
//!   scheduling round that could place the job), as fixed-memory
//!   log-bucketed histograms ([`desim::stats::LogHistogram`]).
//! * [`IngestService`] — the threaded front door: producers enqueue jobs
//!   into a bounded queue and return immediately; a worker thread owning
//!   the manager coalesces arrivals into batches (closed at `max_batch`
//!   jobs or `max_linger`, whichever first) and drives one
//!   [`submit_batch`](mrcp::ResourceManager::submit_batch) + one reschedule per batch. On
//!   overflow the queue sheds by *value*: the request with the most slack
//!   (laxity) is dropped, mirroring the least-laxity ordering of §VI.B.
//! * [`ramp`] — the closed-loop capacity probe: replay a
//!   synthetic workload at one offered rate through an [`InstrumentedRm`]
//!   and report whether that rung still met its SLOs.
//!
//! Batching inside the *simulation* (deterministic, virtual-clock) lives in
//! the driver itself ([`mrcp::IngestConfig`]); this crate reuses exactly
//! those semantics so a rung measured here and a simulated run agree.

pub mod front_door;
pub mod instrument;
pub mod ramp;

pub use front_door::{FrontDoorConfig, FrontDoorReport, IngestService, SubmitError};
pub use instrument::{IngestMetrics, InstrumentedRm};
pub use ramp::{RampConfig, RungReport};

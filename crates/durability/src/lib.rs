//! Durable manager state for MRCP-RM: a write-ahead event log with
//! CRC-framed records and fsync batching, periodic snapshots, and
//! bit-exact crash recovery (ROADMAP item 3).
//!
//! The paper's resource manager (Lim, Majumdar & Ashwood-Smith, ICPP
//! 2014) holds every submission, placement, and started-task fixpoint in
//! memory: a process crash silently drops the SLA guarantees the system
//! exists to enforce. This crate removes that single point of total
//! state loss:
//!
//! * [`wal`] — the log itself: `[len][crc32][payload]` framing, fsync
//!   batching, and longest-valid-prefix recovery that survives torn
//!   tails and flipped bits without ever replaying a partial record.
//! * [`event`] — the one command vocabulary ([`ManagerEvent`], answered
//!   by [`Reply`]): every state-mutating call on the [`ResourceManager`]
//!   surface, plus the three commands only a federation sends a cell
//!   (migration take/submit, a round with its worker share), and the two
//!   functions that execute them ([`apply_surface`], [`apply`]).
//! * [`snapshot`] — atomic (`tmp` + rename) snapshot blobs of
//!   [`mrcp::ManagerImage`], so recovery is snapshot + *bounded* replay
//!   rather than full-history replay.
//! * [`store`] — the store every durable manager shares: [`EventLog`]
//!   (the one indexed record format of every log), and [`Durable`], the
//!   one durable [`ResourceManager`]: the write-ahead order and the
//!   recovery routine, written once over the [`Recoverable`] trait. Its
//!   [`crash_and_recover`](mrcp::sim_driver::ResourceManager::crash_and_recover)
//!   actually recovers (the driver's manager-crash fault knob,
//!   [`mrcp::ManagerCrashConfig`], calls it mid-run).
//! * [`durable_rm`] — [`Recoverable`] for [`MrcpRm`], and
//!   [`DurableRm`] = `Durable<MrcpRm>` with its constructor.
//!
//! The federation's [`Recoverable`] impl (fleet image, per-cell logs)
//! lives in `crates/cluster` next to the state it persists; its durable
//! stack is the same `Durable`, behind `cluster::DurableFederation`.
//!
//! Why recovery is *bit-exact*: [`MrcpRm`] is deterministic for a fixed
//! configuration (single portfolio worker, no wall-clock budgets), so
//! re-applying the logged command sequence from a snapshot drives the
//! recovered manager through exactly the pre-crash states. The only
//! divergence is wall-clock solve timing, which feeds only the metrics
//! [`RunMetrics::deterministic_signature`] already zeroes — giving the
//! equivalence property the proptests in `tests/` pin: a run interrupted
//! by any number of manager crashes has the same signature as the
//! uninterrupted run.
//!
//! [`ResourceManager`]: mrcp::sim_driver::ResourceManager
//! [`MrcpRm`]: mrcp::MrcpRm
//! [`RunMetrics::deterministic_signature`]: mrcp::RunMetrics::deterministic_signature

#![warn(missing_docs)]

pub mod codec;
pub mod durable_rm;
pub mod event;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use durable_rm::DurableRm;
pub use event::{apply, apply_surface, ManagerEvent, Reply};
pub use store::{
    indexed_event, replay_indexed, DurabilityConfig, Durable, EventLog, Recoverable, StoreConfig,
};
pub use wal::{Wal, WalConfig};

/// A unique scratch directory under the system temp dir, for tests and
/// experiments (the workspace has no tempfile dependency).
pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("mrcp-durability-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

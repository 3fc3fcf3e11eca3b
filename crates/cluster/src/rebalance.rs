//! Cross-cell rebalancing bounds.
//!
//! Routing alone cannot keep cells balanced forever: loads are estimates,
//! stragglers and crashes land unevenly, and a burst admitted while a
//! cell looked idle can leave its incumbent schedule missing deadlines
//! the cluster as a whole could meet. After each round the federation
//! therefore offers the jobs a cell plans to finish late — only
//! fully-unstarted, already-releasable ones — to the cells whose
//! admission probes report the most slack, up to a bounded per-round
//! migration budget (unbounded migration could thrash: a hot round could
//! reshuffle every queued job and resolve every cell from scratch).

/// Most jobs migrated per scheduling round.
pub(crate) const MAX_MIGRATIONS_PER_ROUND: usize = 4;

/// How many destination cells (least-loaded first) each candidate's
/// migration probes before giving up.
pub(crate) const PROBE_FANOUT: usize = 2;

//! One federation cell: a full MRCP-RM instance over its shard of the
//! resource pool, the load estimate the router compares cells by, and
//! the (possibly fault-injecting) endpoint mutating commands travel
//! through.

use crate::chaos::ChaosConfig;
use crate::endpoint::Endpoint;
use mrcp::MrcpRm;

/// A cell of the federation. The embedded manager is public: the
/// federation's read-side estimators (load, admission probes) consult it
/// directly — modeling cheaply gossiped state — and tests inspect
/// per-cell state through it. Mutating commands instead travel through
/// the cell's endpoint, which may fail.
#[derive(Debug)]
pub struct Cell {
    /// Stable cell index (also the deterministic routing tie-break).
    pub id: usize,
    /// The cell's own resource manager.
    pub rm: MrcpRm,
    /// Set when the cell's state changed since its last solve; only dirty
    /// cells participate in the next scheduling round.
    pub(crate) dirty: bool,
    /// The router's channel to this cell (fault-free until the
    /// federation enables chaos).
    pub(crate) endpoint: Endpoint,
    /// Next sequence number the federation will stamp on a command to
    /// this cell — the basis of at-most-once delivery. Session-scoped
    /// (decoupled from the durable journal's event sequence).
    pub(crate) next_seq: u64,
}

impl Cell {
    pub(crate) fn new(id: usize, rm: MrcpRm) -> Self {
        Cell {
            id,
            rm,
            dirty: false,
            endpoint: Endpoint::new(ChaosConfig::default(), id),
            next_seq: 0,
        }
    }

    /// The router's load estimate: outstanding execution time (seconds)
    /// per currently-up slot. A cell whose every resource is down reports
    /// infinite load and attracts no traffic.
    pub fn load(&self) -> f64 {
        let down = self.rm.down_resources();
        let slots: u32 = self
            .rm
            .resources()
            .iter()
            .filter(|r| !down.contains(&r.id))
            .map(|r| r.map_capacity + r.reduce_capacity)
            .sum();
        if slots == 0 {
            f64::INFINITY
        } else {
            self.rm.outstanding_work().as_secs_f64() / f64::from(slots)
        }
    }
}

//! Federation-level observability: what the router, the concurrent solve
//! rounds, and the rebalancer did over a run. Per-cell scheduling stats
//! stay in each cell's [`mrcp::ManagerStats`]; this struct covers only
//! what exists *between* cells.

/// Counters and latency samples accumulated by a [`crate::Federation`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterMetrics {
    /// Number of cells.
    pub cells: usize,
    /// Jobs the router placed in each cell (admitted submissions only).
    pub jobs_routed: Vec<u64>,
    /// Jobs placed in the alternate cell because the primary's admission
    /// probe rejected while the alternate's admitted.
    pub spills: u64,
    /// Jobs moved between cells by the rebalancer.
    pub migrations: u64,
    /// Destination probes the rebalancer ran (successful or not).
    pub migration_probes: u64,
    /// Scheduling rounds in which at least one non-empty cell solved.
    pub rounds: u64,
    /// Wall-clock latency of each such round — the concurrent solve of
    /// every dirty cell, so with K cells active this is the max of K
    /// parallel solves, not their sum.
    pub round_latencies_us: Vec<u64>,
    /// Most cells solving concurrently in a single round.
    pub max_cells_active: usize,
    /// Logical commands sent across the router→cell boundary.
    pub rpc_commands: u64,
    /// Delivery attempts (≥ `rpc_commands`; the ratio is the retry
    /// amplification fault injection causes).
    pub rpc_attempts: u64,
    /// Attempts that failed after the first try and were retried.
    pub rpc_retries: u64,
    /// Requests lost before the cell executed them.
    pub rpc_drops: u64,
    /// Calls that exceeded their deadline or lost their response.
    pub rpc_timeouts: u64,
    /// Duplicated or retried deliveries the cell-side sequence-number
    /// dedup suppressed.
    pub rpc_dedup_hits: u64,
    /// Commands that exhausted their retries and fell back to the
    /// supervisor's reliable channel.
    pub rpc_escalations: u64,
    /// Simulated latency accrued across all deliveries, milliseconds.
    pub rpc_latency_ms_total: u64,
    /// Arrivals re-routed to another cell after their target was found
    /// down mid-submit.
    pub reroutes: u64,
    /// Times a cell's circuit opened (entered `Down`).
    pub cell_crashes: u64,
    /// Supervisor restarts of a cell process.
    pub cell_restores: u64,
    /// Restores that rebuilt the cell's lost state (WAL replay when the
    /// federation runs durable; ideal-store no-ops memory-only).
    pub rehydrations: u64,
    /// Rehydrations whose rebuilt state diverged from the live fleet's
    /// view — always 0 on a correct run.
    pub rehydrate_mismatches: u64,
    /// Unstarted jobs failed over from a Down cell to a survivor.
    pub failovers: u64,
    /// Per failed-over job: simulated time from the cell's crash to the
    /// job's re-plan on a survivor, milliseconds.
    pub failover_latencies_ms: Vec<u64>,
    /// Per restore: simulated time from crash to supervisor restart,
    /// milliseconds.
    pub restore_latencies_ms: Vec<u64>,
}

impl ClusterMetrics {
    pub(crate) fn new(cells: usize) -> Self {
        ClusterMetrics {
            cells,
            jobs_routed: vec![0; cells],
            ..Default::default()
        }
    }

    /// Delivery attempts per logical command — 1.0 on a fault-free run,
    /// growing with injected drops/timeouts.
    pub fn retry_amplification(&self) -> f64 {
        if self.rpc_commands == 0 {
            return 1.0;
        }
        self.rpc_attempts as f64 / self.rpc_commands as f64
    }
}

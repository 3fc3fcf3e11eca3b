//! Solver-side telemetry: fold a round's [`SolveStats`] into a live
//! [`telemetry::Registry`].
//!
//! The solver's inner loops keep their own plain-integer counters (a
//! per-node atomic would cost real time at millions of nodes); callers —
//! the manager's scheduling round, the portfolio driver — publish the
//! totals here once per solve, so a scraper watching the registry sees
//! per-class propagation effort move mid-run while the search hot path
//! stays untouched.

use crate::props::PROP_CLASSES;
use crate::search::SolveStats;
use telemetry::Registry;

/// The instrument set [`record_solve`] writes. Build once (registration
/// locks a map), record per solve (atomic adds only).
#[derive(Debug, Clone)]
pub struct SolveTel {
    nodes: telemetry::Counter,
    fails: telemetry::Counter,
    solutions: telemetry::Counter,
    restarts: telemetry::Counter,
    /// Two series that stay at zero with [`SolveStats::lns_iters`], and go
    /// when it goes.
    lns_iters: telemetry::Counter,
    lns_improves: telemetry::Counter,
    /// Per [`crate::props::PropClass`], in `PROP_CLASSES` order.
    class_runs: Vec<telemetry::Counter>,
    class_prunings: Vec<telemetry::Counter>,
    class_conflicts: Vec<telemetry::Counter>,
}

impl SolveTel {
    /// Register the solver instruments in `reg` (label them through a
    /// scoped registry to separate cells).
    pub fn new(reg: &Registry) -> SolveTel {
        let per_class = |name: &str| {
            PROP_CLASSES
                .iter()
                .map(|c| reg.counter(name, &[("class", c.name())]))
                .collect()
        };
        SolveTel {
            nodes: reg.counter("cpsolve_nodes_total", &[]),
            fails: reg.counter("cpsolve_fails_total", &[]),
            solutions: reg.counter("cpsolve_solutions_total", &[]),
            restarts: reg.counter("cpsolve_restarts_total", &[]),
            lns_iters: reg.counter("cpsolve_lns_iters_total", &[]),
            lns_improves: reg.counter("cpsolve_lns_improves_total", &[]),
            class_runs: per_class("cpsolve_prop_runs_total"),
            class_prunings: per_class("cpsolve_prop_prunings_total"),
            class_conflicts: per_class("cpsolve_prop_conflicts_total"),
        }
    }

    /// Fold one solve's totals into the registry.
    pub fn record(&self, stats: &SolveStats) {
        self.nodes.add(stats.nodes);
        self.fails.add(stats.fails);
        self.solutions.add(stats.solutions);
        self.restarts.add(stats.restarts);
        self.lns_iters.add(stats.lns_iters);
        self.lns_improves.add(stats.lns_improves);
        for (i, c) in stats.by_class.iter().enumerate() {
            self.class_runs[i].add(c.runs);
            self.class_prunings[i].add(c.prunings);
            self.class_conflicts[i].add(c.conflicts);
        }
    }
}

/// One-shot convenience for callers without a cached [`SolveTel`].
pub fn record_solve(reg: &Registry, stats: &SolveStats) {
    SolveTel::new(reg).record(stats);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::{PropClass, N_PROP_CLASSES};

    #[test]
    fn solve_stats_land_per_class() {
        let reg = Registry::new();
        let mut stats = SolveStats {
            nodes: 11,
            ..Default::default()
        };
        stats.by_class[PropClass::Barrier.idx()].runs = 7;
        stats.by_class[PropClass::Timetable.idx()].prunings = 5;
        record_solve(&reg, &stats);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("cpsolve_nodes_total", &[]), Some(11));
        assert_eq!(
            snap.counter("cpsolve_prop_runs_total", &[("class", "barrier")]),
            Some(7)
        );
        assert_eq!(
            snap.counter("cpsolve_prop_prunings_total", &[("class", "timetable")]),
            Some(5)
        );
        // Every class is registered even before it moves.
        assert_eq!(
            snap.metrics
                .iter()
                .filter(|s| s.name == "cpsolve_prop_runs_total")
                .count(),
            N_PROP_CLASSES
        );
        // Repeat recording accumulates on the same cells.
        record_solve(&reg, &stats);
        assert_eq!(reg.snapshot().counter("cpsolve_nodes_total", &[]), Some(22));
    }
}

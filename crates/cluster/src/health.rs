//! Per-cell health tracking: the circuit breaker that decides which
//! cells the router may target.
//!
//! Each cell walks a four-state machine driven by the outcomes of its
//! deliveries and the round-boundary reachability sweep:
//!
//! ```text
//!        consecutive failures ≥ suspect_after
//!   Up ────────────────────────────────────────▶ Suspect
//!    ▲                                             │
//!    │ success                    failures ≥ down_after │
//!    │                                             ▼
//!   Recovering ◀────────────────────────────── Down
//!        supervisor restart (+ rehydration)
//! ```
//!
//! A definitive crash observation ([`crate::endpoint::RpcError::CellDown`]
//! or a failed reachability probe) short-circuits straight to `Down` —
//! "connection refused" needs no corroboration, unlike the ambiguous
//! drop/timeout failures the consecutive-failure thresholds are for.
//! `Down` and `Recovering` cells report infinite load to the router, so
//! power-of-two-choices never places an arrival on them; `Recovering`
//! becomes `Up` on the first successful delivery after the restart.

use desim::SimTime;

/// Health classification of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Healthy: full routing weight.
    Up,
    /// Some deliveries failing; still routable, under observation.
    Suspect,
    /// Circuit open: excluded from routing, unstarted jobs fail over.
    Down,
    /// Restarted (and rehydrated if state was lost), awaiting its first
    /// successful delivery; not yet routable.
    Recovering,
}

/// Circuit-breaker thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HealthConfig {
    /// Consecutive ambiguous failures (drops/timeouts) before `Up`
    /// degrades to `Suspect`.
    pub suspect_after: u32,
    /// Consecutive ambiguous failures before the circuit opens (`Down`).
    pub down_after: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            suspect_after: 1,
            down_after: 3,
        }
    }
}

/// One cell's live health record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellHealth {
    cfg: HealthConfig,
    state: HealthState,
    /// Consecutive failed deliveries since the last success.
    consecutive_failures: u32,
    /// When the current state was entered.
    since: SimTime,
}

impl CellHealth {
    /// A healthy cell at time zero.
    pub(crate) fn new(cfg: HealthConfig) -> Self {
        CellHealth {
            cfg,
            state: HealthState::Up,
            consecutive_failures: 0,
            since: SimTime::ZERO,
        }
    }

    /// Current classification.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// When the current state was entered.
    pub fn since(&self) -> SimTime {
        self.since
    }

    /// Whether the router may place new work on this cell.
    pub fn routable(&self) -> bool {
        matches!(self.state, HealthState::Up | HealthState::Suspect)
    }

    fn transition(&mut self, to: HealthState, now: SimTime) {
        if self.state != to {
            self.state = to;
            self.since = now;
        }
    }

    /// A delivery succeeded: any state heals to `Up`.
    pub fn on_success(&mut self, now: SimTime) {
        self.consecutive_failures = 0;
        self.transition(HealthState::Up, now);
    }

    /// An ambiguous delivery failure (drop or timeout). Returns the new
    /// state so the caller can count transitions.
    pub fn on_failure(&mut self, now: SimTime) -> HealthState {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let next = match self.state {
            HealthState::Down => HealthState::Down,
            // A failure during recovery re-opens the circuit.
            HealthState::Recovering => HealthState::Down,
            HealthState::Up | HealthState::Suspect => {
                if self.consecutive_failures >= self.cfg.down_after.max(1) {
                    HealthState::Down
                } else if self.consecutive_failures >= self.cfg.suspect_after.max(1) {
                    HealthState::Suspect
                } else {
                    self.state
                }
            }
        };
        self.transition(next, now);
        self.state
    }

    /// A definitive crash observation: open the circuit immediately.
    pub fn force_down(&mut self, now: SimTime) {
        self.transition(HealthState::Down, now);
    }

    /// The supervisor restarted (and, if needed, rehydrated) the cell.
    pub fn begin_recovery(&mut self, now: SimTime) {
        self.consecutive_failures = 0;
        self.transition(HealthState::Recovering, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: i64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn escalates_through_suspect_to_down() {
        let mut h = CellHealth::new(HealthConfig {
            suspect_after: 1,
            down_after: 3,
        });
        assert_eq!(h.state(), HealthState::Up);
        assert!(h.routable());
        assert_eq!(h.on_failure(t(1)), HealthState::Suspect);
        assert!(h.routable(), "suspect cells still take traffic");
        assert_eq!(h.on_failure(t(2)), HealthState::Suspect);
        assert_eq!(h.on_failure(t(3)), HealthState::Down);
        assert!(!h.routable());
        assert_eq!(h.since(), t(3));
    }

    #[test]
    fn success_heals_and_resets_the_failure_streak() {
        let mut h = CellHealth::new(HealthConfig::default());
        h.on_failure(t(1));
        h.on_failure(t(2));
        h.on_success(t(3));
        assert_eq!(h.state(), HealthState::Up);
        // The streak restarted: two more failures reach Suspect, not Down.
        h.on_failure(t(4));
        assert_eq!(h.on_failure(t(5)), HealthState::Suspect);
    }

    #[test]
    fn crash_observation_skips_the_thresholds() {
        let mut h = CellHealth::new(HealthConfig::default());
        h.force_down(t(10));
        assert_eq!(h.state(), HealthState::Down);
        assert_eq!(h.since(), t(10));
        // Redundant observations do not reset the transition time.
        h.force_down(t(12));
        assert_eq!(h.since(), t(10));
    }

    #[test]
    fn recovery_needs_one_success_and_reopens_on_failure() {
        let mut h = CellHealth::new(HealthConfig::default());
        h.force_down(t(1));
        h.begin_recovery(t(5));
        assert_eq!(h.state(), HealthState::Recovering);
        assert!(!h.routable(), "recovering cells take no new arrivals");
        h.on_success(t(6));
        assert_eq!(h.state(), HealthState::Up);
        assert!(h.routable());

        let mut h2 = CellHealth::new(HealthConfig::default());
        h2.force_down(t(1));
        h2.begin_recovery(t(5));
        assert_eq!(h2.on_failure(t(6)), HealthState::Down);
    }

    #[test]
    fn down_is_absorbing_under_failures() {
        let mut h = CellHealth::new(HealthConfig::default());
        h.force_down(t(1));
        assert_eq!(h.on_failure(t(2)), HealthState::Down);
        assert_eq!(h.since(), t(1));
    }
}

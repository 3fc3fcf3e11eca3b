//! Fault injection for the router→cell boundary: the knobs of the
//! partial-failure modes a real federation sees — per-call latency with a
//! hard deadline, request drops, duplicated deliveries, response hangs,
//! and MTTF/MTTR-driven whole-cell crashes.
//!
//! [`Federation::with_chaos`](crate::Federation::with_chaos) (or
//! [`DurableFederation::enable_chaos`](crate::DurableFederation::enable_chaos))
//! hands a [`ChaosConfig`] to every cell's endpoint, which draws its faults
//! from its own seeded RNG stream, so runs are deterministic per
//! [`ChaosConfig::seed`] and independent of wall clock. A crash loses the
//! cell's manager-process state until the supervisor restarts and
//! rehydrates it — via [`crate::durable::recover_cell`] WAL replay when
//! the federation runs durable. Injected latency is *accounted* (it shows
//! up in the delivery records and metrics) but not woven into the event
//! timeline: scheduling-visible behavior changes come from drops,
//! duplicates, and crashes, which keeps the driver's event loop
//! untouched.
//!
//! While faults are injected, the federation audits its fleet invariant
//! (every job in exactly one cell, fleet maps consistent) after every
//! round ([`Federation::violations`](crate::Federation::violations)).

use desim::SimTime;

/// Fault-injection knobs for the router→cell boundary. The default
/// injects nothing: every knob at zero draws no randomness, so a
/// federation under an inactive config is bit-identical to a plain one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Probability a request is lost before the cell executes it.
    pub drop_prob: f64,
    /// Probability a request is delivered twice (the second copy hits
    /// the cell-side sequence-number dedup).
    pub dup_prob: f64,
    /// Probability the cell executes the request but the response never
    /// returns (reported as a timeout with `applied = true`).
    pub hang_prob: f64,
    /// Mean of the exponential per-call latency (`None` = zero latency).
    pub mean_latency: Option<SimTime>,
    /// Per-call deadline: a sampled latency beyond it is a timeout (the
    /// cell still applied the command — only the answer was too late).
    pub call_deadline: SimTime,
    /// Mean time to failure of each cell's manager process (`None`
    /// disables crashes).
    pub cell_mttf: Option<SimTime>,
    /// Mean time to repair of a crashed cell process (required with
    /// `cell_mttf`).
    pub cell_mttr: Option<SimTime>,
    /// Seed for the per-cell fault RNG streams.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            drop_prob: 0.0,
            dup_prob: 0.0,
            hang_prob: 0.0,
            mean_latency: None,
            call_deadline: SimTime::from_millis(100),
            cell_mttf: None,
            cell_mttr: None,
            seed: 0,
        }
    }
}

impl ChaosConfig {
    /// Whether any fault mechanism is active. Under an inactive config no
    /// RNG is ever consulted, which is what the bit-exactness guarantee
    /// rests on; the federation then also skips its health sweep and
    /// per-round audit and applies each round in place.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.dup_prob > 0.0
            || self.hang_prob > 0.0
            || self.mean_latency.is_some()
            || self.cell_mttf.is_some()
    }

    /// Sanity-check the knobs.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("drop_prob", self.drop_prob),
            ("dup_prob", self.dup_prob),
            ("hang_prob", self.hang_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name}={p} outside [0, 1]"));
            }
        }
        if let Some(l) = self.mean_latency {
            if l <= SimTime::ZERO {
                return Err(format!("mean_latency {l} must be positive"));
            }
        }
        if self.call_deadline <= SimTime::ZERO {
            return Err(format!(
                "call_deadline {} must be positive",
                self.call_deadline
            ));
        }
        if let Some(mttf) = self.cell_mttf {
            if mttf <= SimTime::ZERO {
                return Err(format!("cell_mttf {mttf} must be positive"));
            }
            match self.cell_mttr {
                Some(mttr) if mttr > SimTime::ZERO => {}
                _ => return Err("cell_mttf needs a positive cell_mttr".into()),
            }
        }
        Ok(())
    }
}

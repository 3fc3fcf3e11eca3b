//! Live telemetry for the MRCP-RM stack: a metrics registry, an event
//! bus, and a mid-run export surface (DESIGN.md §5k).
//!
//! Everything the repo measured before this crate — `mrcp::ManagerStats`,
//! `cluster::ClusterMetrics`, the service ingest histograms — was only
//! visible *after* a run completed. This crate makes the same signals
//! observable while the run is still going, without perturbing it:
//!
//! * [`Registry`] — typed instruments ([`Counter`], [`Gauge`],
//!   [`Histogram`]) addressed by name + label set. Registration takes a
//!   short-lived lock; *recording* is a single atomic RMW, so
//!   instrumented code never blocks a scheduling round.
//! * [`EventBus`] — bounded per-subscriber queues with filters, so a
//!   consumer can tail structured events (admission decisions, breaker
//!   transitions, failovers, ladder escalations) mid-run. Overflow drops
//!   the newest event and counts it ([`EventBus::dropped_events`]);
//!   backpressure is never silent and never propagates into the
//!   instrumented code.
//! * [`encode`] — Prometheus text exposition and a JSON snapshot, both
//!   rendered from one deterministic [`Snapshot`].
//! * [`TelemetrySink`] — a background thread serving both encodings over
//!   a tiny hand-rolled HTTP listener (no new dependency) and/or
//!   appending periodic JSON snapshots to a file for headless runs.
//!
//! ## Disabled mode
//!
//! [`Registry::disabled`] / [`Telemetry::disabled`] hand out instruments
//! that are real atomics but registered nowhere: recording is still a
//! plain atomic add (no branch in the hot path), snapshots are empty,
//! and no consumer exists. Because telemetry is strictly observational —
//! nothing in the scheduling stack reads it back — a run with telemetry
//! enabled is bit-exact with the same run disabled; the determinism
//! proptests hold the repo to that.

pub mod encode;
pub mod events;
pub mod registry;
pub mod sink;

pub use encode::{json_snapshot, prometheus_text};
pub use events::{Event, EventBus, EventFilter, EventKind, Subscription, DEFAULT_QUEUE_CAP};
pub use registry::{Counter, Gauge, Histogram, Registry, Sample, SampleValue, Snapshot};
pub use sink::{http_get, SinkConfig, TelemetrySink};

/// Bucket upper bounds (microseconds, `le` semantics) shared by every
/// latency histogram in the stack: ~3 per decade from 50µs to 10s.
pub const LATENCY_US_BOUNDS: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

/// Bucket upper bounds for small cardinalities (batch sizes, queue
/// depths): powers of two up to 1024.
pub const SIZE_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// The pair every instrumented layer takes: a metrics registry and an
/// event bus, cloned (cheaply — both are `Arc` handles) into each layer.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// The instrument registry.
    pub registry: Registry,
    /// The structured-event bus.
    pub bus: EventBus,
}

impl Telemetry {
    /// An enabled registry + bus.
    pub fn new() -> Telemetry {
        Telemetry {
            registry: Registry::new(),
            bus: EventBus::new(),
        }
    }

    /// The no-op pair: instruments record into unregistered atomics,
    /// events vanish. Bit-exact with telemetry absent.
    pub fn disabled() -> Telemetry {
        Telemetry {
            registry: Registry::disabled(),
            bus: EventBus::disabled(),
        }
    }

    /// Whether the registry is live (the bus follows the registry).
    pub fn is_enabled(&self) -> bool {
        self.registry.is_enabled()
    }

    /// A handle whose instruments all carry an extra `key=value` label
    /// (e.g. `cell=3`), sharing storage and the bus with `self`.
    pub fn scoped(&self, key: &str, value: impl ToString) -> Telemetry {
        Telemetry {
            registry: self.registry.scoped(key, value),
            bus: self.bus.clone(),
        }
    }
}

//! The manager stacks the workloads run through, and what the benchmark
//! reads off each after a replay.

use crate::workloads::{Stack as StackKind, Workload};
use cluster::{ClusterMetrics, DurableFederation, Federation};
use durability::DurableRm;
use mrcp::manager::MrcpConfig;
use mrcp::{MrcpRm, ResourceManager};
use service::{IngestMetrics, InstrumentedRm};
use std::path::Path;
use telemetry::Telemetry;
use workload::Resource;

/// Layer counters a stack exposes after a replay; absent layers stay at
/// their defaults.
#[derive(Debug, Clone, Default)]
pub struct Extras {
    /// Wall time inside recoveries, seconds.
    pub recovery_s: f64,
    /// Federation counters.
    pub cluster: Option<ClusterMetrics>,
    /// Ingest decorator counters.
    pub ingest: Option<IngestMetrics>,
}

/// A manager stack the benchmark can look inside.
pub trait Stack: ResourceManager {
    /// The `MrcpRm` that holds this stack's jobs (every gated workload
    /// runs a single one), for round images and admission-probe timing.
    fn mrcp(&self) -> &MrcpRm;
    /// Copy this stack's layer counters into `out`.
    fn extras(&self, out: &mut Extras) {
        let _ = out;
    }
}

impl Stack for MrcpRm {
    fn mrcp(&self) -> &MrcpRm {
        self
    }
}

impl Stack for DurableRm {
    fn mrcp(&self) -> &MrcpRm {
        self.inner()
    }
    fn extras(&self, out: &mut Extras) {
        out.recovery_s = self.recovery_time().as_secs_f64();
    }
}

impl Stack for Federation {
    fn mrcp(&self) -> &MrcpRm {
        &self.cells()[0].rm
    }
    fn extras(&self, out: &mut Extras) {
        out.cluster = Some(self.cluster_metrics().clone());
    }
}

impl Stack for DurableFederation {
    fn mrcp(&self) -> &MrcpRm {
        self.federation().mrcp()
    }
    fn extras(&self, out: &mut Extras) {
        self.federation().extras(out);
        out.recovery_s = self.recovery_time().as_secs_f64();
    }
}

impl<M: Stack> Stack for InstrumentedRm<M> {
    fn mrcp(&self) -> &MrcpRm {
        self.inner().mrcp()
    }
    fn extras(&self, out: &mut Extras) {
        self.inner().extras(out);
        out.ingest = Some(self.metrics().clone());
    }
}

/// Build `w`'s durable single manager rooted at `dir`.
pub fn durable_rm(
    w: &Workload,
    cfg: MrcpConfig,
    resources: &[Resource],
    dir: &Path,
    tel: &Telemetry,
) -> DurableRm {
    debug_assert_eq!(w.stack, StackKind::Durable);
    let mut rm = DurableRm::new(cfg, resources.to_vec(), dir, w.durability);
    if tel.is_enabled() {
        rm.set_telemetry(tel);
    }
    rm
}

/// Build `w`'s full stack rooted at `dir`: ingest decorator over a durable
/// federation with `tel` attached.
pub fn full_stack(
    w: &Workload,
    cfg: MrcpConfig,
    resources: &[Resource],
    dir: &Path,
    tel: &Telemetry,
) -> InstrumentedRm<DurableFederation> {
    debug_assert_eq!(w.stack, StackKind::Full);
    let mut fed = DurableFederation::new(&w.cluster, cfg, resources.to_vec(), dir, w.durability);
    if tel.is_enabled() {
        fed.set_telemetry(tel);
    }
    InstrumentedRm::new(fed)
}

//! [`DurableRm`]: an [`MrcpRm`] whose every state-mutating command is
//! written ahead to `wal.log` by [`Durable`], making the manager
//! recoverable after a process crash with bounded replay (the crash and
//! recovery model is [`crate::store`]'s). A single manager is its image,
//! and its one log is the command log `Durable` owns.

use crate::codec::{Dec, Enc, Wire};
use crate::event::{apply, ManagerEvent};
use crate::store::{invalid, DurabilityConfig, Durable, Recoverable, StoreConfig};
use mrcp::manager::MrcpConfig;
use mrcp::{ManagerImage, MrcpRm};
use std::io;
use std::path::Path;
use workload::Resource;

impl Recoverable for MrcpRm {
    type Setup = (MrcpConfig, Vec<Resource>);
    const LOG_NAME: &'static str = "wal.log";

    fn encode_state(&self, e: &mut Enc) {
        self.image().put(e);
    }

    fn restore(
        (cfg, resources): &Self::Setup,
        d: &mut Dec<'_>,
        _dir: &Path,
        _store: StoreConfig,
    ) -> io::Result<MrcpRm> {
        let image = ManagerImage::get(d).map_err(invalid)?;
        MrcpRm::restore(*cfg, resources.clone(), image).map_err(invalid)
    }

    fn replay(&mut self, ev: &ManagerEvent) {
        apply(self, ev);
    }

    fn attach_telemetry(&mut self, tel: &telemetry::Telemetry) {
        self.set_telemetry(tel);
    }
}

/// An [`MrcpRm`] with a write-ahead log and snapshots underneath.
pub type DurableRm = Durable<MrcpRm>;

impl Durable<MrcpRm> {
    /// Create a manager with a fresh durable store rooted at `dir`.
    pub fn new(
        mgr_cfg: MrcpConfig,
        resources: Vec<Resource>,
        dir: &Path,
        cfg: DurabilityConfig,
    ) -> DurableRm {
        let rm = MrcpRm::new(mgr_cfg, resources.clone());
        Durable::create(rm, (mgr_cfg, resources), dir, cfg)
    }
}

//! Output checking: a stable digest of device reports, and the oracle that
//! every timed floor run is compared against.

use casbus_sim::{DeviceReport, FleetRunner, SimError};
use casbus_tpg::Verdict;

use crate::workload::LotDef;

/// 64-bit FNV-1a: stable across builds and platforms, unlike std's hasher.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Folds in everything a device report says: id, stamped defect,
    /// verdicts, signatures and every cycle count.
    pub fn device(&mut self, d: &DeviceReport) {
        self.u64(d.device_id);
        self.str(&format!("{:?}", d.fault));
        let r = &d.report;
        for (core, verdict) in &r.verdicts {
            self.str(core);
            match verdict {
                Verdict::Pass => self.u64(0),
                Verdict::Fail { mismatches } => {
                    self.u64(1);
                    self.u64(*mismatches as u64);
                }
                Verdict::Undecided => self.u64(2),
            }
        }
        for (core, signature) in &r.signatures {
            self.str(core);
            self.u64(*signature);
        }
        for (core, cycles) in &r.per_core_cycles {
            self.str(core);
            self.u64(*cycles);
        }
        self.u64(r.total_cycles);
        self.u64(r.bus_cycles);
        self.u64(r.steps as u64);
    }

    pub fn devices(&mut self, devices: &[DeviceReport]) {
        self.u64(devices.len() as u64);
        devices.iter().for_each(|d| self.device(d));
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// The digest of one sorted device list.
pub fn digest(devices: &[DeviceReport]) -> u64 {
    let mut d = Digest::default();
    d.devices(devices);
    d.value()
}

/// Runs the first `def.oracle_prefix` devices of a lot on a standalone
/// [`FleetRunner`] in the *other* execution mode: the scalar twin for a
/// packed lot, packed cohorts for a scalar lot. Reports come back sorted by
/// device id, so they compare directly with the floor's.
pub fn oracle(def: &LotDef) -> Result<Vec<DeviceReport>, SimError> {
    let runner = FleetRunner::new(&def.soc, def.n, def.schedule.clone())?
        .with_threads(crate::FLOOR_THREADS)
        .with_packed(!def.packed);
    let prefix = def.oracle_prefix.min(def.devices);
    Ok(runner.run(&def.variation, prefix)?.devices)
}

//! Coral Edge TPU device model.
//!
//! Constants follow the public Coral USB Accelerator datasheet and the
//! characterization studies the paper cites (Boroumand et al.,
//! Yazdanbakhsh et al.): 4 TOPS peak int8 compute, ~8 MiB of on-chip
//! SRAM usable as a parameter cache, USB 3.0 connectivity with ~320 MB/s
//! effective bulk throughput, ~2 W active power.

use crate::sim::SimError;

/// Hardware constants of one pipeline stage (an Edge TPU on USB 3.0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    /// On-chip SRAM usable for parameter caching, bytes.
    pub sram_bytes: u64,
    /// Sustained MAC rate (int8), MACs per second.
    pub macs_per_sec: f64,
    /// Effective USB 3.0 bulk bandwidth, bytes per second.
    pub usb_bytes_per_sec: f64,
    /// Fixed per-transfer USB overhead, seconds (submission + latency).
    pub usb_overhead_s: f64,
    /// Active power while computing or transferring, watts.
    pub active_power_w: f64,
    /// Idle power, watts.
    pub idle_power_w: f64,
    /// Host-side dispatch overhead per inference, seconds.
    pub host_overhead_s: f64,
}

impl DeviceSpec {
    /// The Coral USB Edge TPU.
    ///
    /// 4 TOPS int8 peak is 2e12 MACs/s; sustained utilization on conv
    /// workloads is far lower (Boroumand et al. report single-digit
    /// percentages for many layers) — we use 10% sustained.
    pub fn coral() -> Self {
        DeviceSpec {
            sram_bytes: 8 << 20,
            macs_per_sec: 0.10 * 2.0e12,
            usb_bytes_per_sec: 320.0e6,
            usb_overhead_s: 60.0e-6,
            active_power_w: 2.0,
            idle_power_w: 0.5,
            host_overhead_s: 30.0e-6,
        }
    }

    /// Seconds to execute `macs` multiply-accumulates.
    #[inline]
    pub fn compute_time(&self, macs: u64) -> f64 {
        macs as f64 / self.macs_per_sec
    }

    /// Checks that the engines can simulate with this spec: the rates
    /// (`macs_per_sec`, `usb_bytes_per_sec`) must be positive and finite,
    /// the overheads (`usb_overhead_s`, `host_overhead_s`) finite and
    /// nonnegative. A `NaN` or negative overhead would reach the event
    /// queue as an event time; a zero rate makes every hold infinite.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidSpec`] naming the first offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        let rates = [
            ("macs_per_sec", self.macs_per_sec),
            ("usb_bytes_per_sec", self.usb_bytes_per_sec),
        ];
        let overheads = [
            ("usb_overhead_s", self.usb_overhead_s),
            ("host_overhead_s", self.host_overhead_s),
        ];
        let bad = rates
            .into_iter()
            .find(|&(_, v)| !(v > 0.0 && v.is_finite()))
            .or_else(|| {
                overheads
                    .into_iter()
                    .find(|&(_, v)| !(v >= 0.0 && v.is_finite()))
            });
        match bad {
            Some((field, value)) => Err(SimError::InvalidSpec { field, value }),
            None => Ok(()),
        }
    }

    /// The matching abstract [`respect_sched::CostModel`], used by the
    /// schedulers. Deliberately coarser than the simulator (no transfer
    /// overheads, destination-side communication accounting): the gap is
    /// the paper's "performance modeling miscorrelation" (Sec. IV-A).
    pub fn cost_model(&self) -> respect_sched::CostModel {
        respect_sched::CostModel {
            sec_per_mac: 1.0 / self.macs_per_sec,
            sec_per_byte: 1.0 / self.usb_bytes_per_sec,
            cache_bytes: self.sram_bytes,
        }
    }
}

impl Default for DeviceSpec {
    fn default() -> Self {
        Self::coral()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coral_constants_are_sane() {
        let d = DeviceSpec::coral();
        assert_eq!(d.sram_bytes, 8 * 1024 * 1024);
        assert!(d.macs_per_sec > 1e11);
        assert!(d.usb_bytes_per_sec > 1e8);
        assert!(d.active_power_w > d.idle_power_w);
    }

    #[test]
    fn compute_time_scales_linearly() {
        let d = DeviceSpec::coral();
        let t1 = d.compute_time(1_000_000);
        let t2 = d.compute_time(2_000_000);
        assert!((t2 - 2.0 * t1).abs() < 1e-15);
    }

    #[test]
    fn cost_model_mirrors_device() {
        let d = DeviceSpec::coral();
        let m = d.cost_model();
        assert_eq!(m.cache_bytes, d.sram_bytes);
        assert!((m.sec_per_mac * d.macs_per_sec - 1.0).abs() < 1e-12);
        assert!((m.sec_per_byte * d.usb_bytes_per_sec - 1.0).abs() < 1e-12);
    }
}

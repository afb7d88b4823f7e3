//! USB 3.0 bulk-transfer timing.
//!
//! The paper's testbed daisy-chains Edge TPUs off a host over USB 3.0
//! (Fig. 2); every inter-stage tensor and every off-cache parameter byte
//! crosses this interface. The model is affine — fixed submission
//! overhead plus bandwidth-limited payload — which matches bulk-endpoint
//! behaviour well away from tiny packets.

use crate::device::DeviceSpec;

/// Seconds to move `bytes` over the USB link (0 bytes costs nothing:
/// no transfer is issued).
#[inline]
pub fn transfer_time(spec: &DeviceSpec, bytes: u64) -> f64 {
    if bytes == 0 {
        0.0
    } else {
        spec.usb_overhead_s + bytes as f64 / spec.usb_bytes_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_bytes_is_free() {
        let spec = DeviceSpec::coral();
        assert_eq!(transfer_time(&spec, 0), 0.0);
    }

    #[test]
    fn overhead_dominates_small_transfers() {
        let spec = DeviceSpec::coral();
        let t = transfer_time(&spec, 64);
        assert!(t > spec.usb_overhead_s);
        assert!(t < 2.0 * spec.usb_overhead_s);
    }

    #[test]
    fn bandwidth_dominates_large_transfers() {
        let spec = DeviceSpec::coral();
        let bytes = 64 << 20;
        let t = transfer_time(&spec, bytes);
        let ideal = bytes as f64 / spec.usb_bytes_per_sec;
        assert!((t - ideal) / ideal < 0.01);
    }

    #[test]
    fn single_byte_transfer_is_overhead_plus_one_byte() {
        let spec = DeviceSpec::coral();
        let t = transfer_time(&spec, 1);
        assert!((t - (spec.usb_overhead_s + 1.0 / spec.usb_bytes_per_sec)).abs() < 1e-18);
    }

    proptest! {
        #[test]
        fn transfer_time_is_monotone(a in 0u64..1 << 30, b in 0u64..1 << 30) {
            let spec = DeviceSpec::coral();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(transfer_time(&spec, lo) <= transfer_time(&spec, hi));
        }
    }
}

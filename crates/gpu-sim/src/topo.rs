//! Multi-device topology: N device arenas joined by an interconnect.
//!
//! The rest of the workspace grew up on one implicit device — one
//! [`DeviceMemory`] arena, pointers that are plain offsets, a trace
//! `instance` field. A production deployment spans several GPUs whose
//! memories are distinct but mutually reachable over an interconnect
//! with asymmetric cost: an access served by the issuing SM's own
//! device is cheap, one that crosses to a peer is not (the MGSim/MGMark
//! model). This module makes that explicit:
//!
//! * [`Topology`] — one contiguous reservation carved into N equal
//!   per-device spans. Pointers stay *global* offsets into the parent
//!   arena, so every existing allocator keeps working unchanged; the
//!   device holding a pointer is recovered by integer division
//!   ([`DevicePtr::device_of`]), the same derivation Gallatin uses for
//!   segment ids one level down.
//! * [`PEER_ACCESS_STEPS`] — the step cost of one access crossing to a
//!   peer device, roughly the local/remote latency ratio NVLink-class
//!   fabrics exhibit. A local access costs nothing, keeping
//!   single-device step counts bit-identical to the pre-topology
//!   simulator.
//! * [`Topology::classify_access`] — the accounting hook: given the
//!   issuing SM and the pointer touched, bump the local or peer counter
//!   on a [`Metrics`]. Deliberately *not* a scheduler preemption point:
//!   traffic accounting must never perturb the deterministic schedule
//!   (see `crate::metrics::Metrics::count_local_access`).
//!
//! SM→device affinity is static and round-robin (`sm % devices`),
//! mirroring how the launch machinery assigns SM ids to warps; the
//! topology-aware pool uses the same mapping for placement so "the SM's
//! own device" and "where affinity placed the allocation" agree.

use crate::mem::{DeviceMemory, DevicePtr};
use crate::metrics::Metrics;

/// Steps one peer access costs: ~40:1 remote:local, the order of
/// magnitude NVLink-class fabrics show for fine-grained peer access.
pub const PEER_ACCESS_STEPS: u64 = 40;

/// N device arenas carved from one reservation.
///
/// ```
/// use gpu_sim::topo::Topology;
/// use gpu_sim::DevicePtr;
///
/// let topo = Topology::new(4, 16 << 20);
/// assert_eq!(topo.devices(), 4);
/// assert_eq!(topo.device_stride(), 16 << 20);
/// // A pointer in the second span belongs to device 1.
/// assert_eq!(topo.device_of(DevicePtr(topo.device_stride() + 8)), 1);
/// // SM 5 on a 4-device topology has affinity to device 1.
/// assert_eq!(topo.affinity_device(5), 1);
/// ```
#[derive(Debug)]
pub struct Topology {
    mem: DeviceMemory,
    devices: u32,
    device_stride: u64,
}

impl Topology {
    /// A topology of `devices` arenas of `bytes_per_device` each.
    ///
    /// # Panics
    /// Panics if `devices == 0` or `bytes_per_device == 0`.
    pub fn new(devices: u32, bytes_per_device: u64) -> Self {
        assert!(devices > 0, "a topology needs at least one device");
        assert!(bytes_per_device > 0, "devices need non-empty arenas");
        let total = bytes_per_device.checked_mul(devices as u64).expect("topology size overflow");
        Topology {
            mem: DeviceMemory::new(total as usize),
            devices,
            device_stride: bytes_per_device,
        }
    }

    /// Number of devices.
    #[inline]
    pub fn devices(&self) -> u32 {
        self.devices
    }

    /// Bytes per device span — the pointer-routing divisor.
    #[inline]
    pub fn device_stride(&self) -> u64 {
        self.device_stride
    }

    /// The whole reservation: every device's bytes, global offsets. This
    /// is the view a topology-spanning allocator hands pointers into.
    #[inline]
    pub fn memory(&self) -> &DeviceMemory {
        &self.mem
    }

    /// The device whose arena holds `ptr`'s bytes.
    ///
    /// # Panics
    /// Panics (debug) if `ptr` is null; panics if `ptr` is beyond the
    /// reservation.
    #[inline]
    pub fn device_of(&self, ptr: DevicePtr) -> u32 {
        let d = ptr.device_of(self.device_stride);
        assert!(
            d < self.devices,
            "pointer {} beyond the {}-device reservation",
            ptr.0,
            self.devices
        );
        d
    }

    /// Static SM→device affinity: round-robin over devices, matching the
    /// launch machinery's SM assignment so consecutive SMs spread evenly.
    #[inline]
    pub fn affinity_device(&self, sm: u32) -> u32 {
        sm % self.devices
    }

    /// Account one access from `sm` to `ptr`: bump the local or peer
    /// counter on `metrics`. Not a preemption point.
    #[inline]
    pub fn classify_access(&self, sm: u32, ptr: DevicePtr, metrics: &Metrics) {
        if self.device_of(ptr) == self.affinity_device(sm) {
            metrics.count_local_access();
        } else {
            metrics.count_peer_access(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointer_routing_and_affinity() {
        let topo = Topology::new(2, 1 << 16);
        assert_eq!(topo.memory().len(), 2 << 16);
        assert_eq!(topo.device_of(DevicePtr(0)), 0);
        assert_eq!(topo.device_of(DevicePtr(1 << 16)), 1);
        assert_eq!(topo.affinity_device(0), 0);
        assert_eq!(topo.affinity_device(1), 1);
        assert_eq!(topo.affinity_device(2), 0);
        // Single device: every SM maps to device 0.
        let one = Topology::new(1, 1 << 16);
        assert_eq!(one.affinity_device(13), 0);
        assert_eq!(one.device_of(DevicePtr(64)), 0);
    }

    #[test]
    #[should_panic(expected = "beyond the 2-device reservation")]
    fn out_of_reservation_pointer_is_loud() {
        let topo = Topology::new(2, 1 << 16);
        topo.device_of(DevicePtr(2 << 16));
    }

    #[test]
    fn classify_access_counts_local_and_peer() {
        let topo = Topology::new(2, 1 << 16);
        let m = Metrics::new();
        topo.classify_access(0, DevicePtr(8), &m); // SM 0 → device 0: local
        topo.classify_access(0, DevicePtr((1 << 16) + 8), &m); // SM 0 → device 1: peer
        topo.classify_access(1, DevicePtr((1 << 16) + 8), &m); // SM 1 → device 1: local
        let s = m.snapshot();
        assert_eq!((s.local_accesses, s.peer_accesses), (2, 1));
        assert!((s.peer_share() - 1.0 / 3.0).abs() < 1e-12);
    }
}

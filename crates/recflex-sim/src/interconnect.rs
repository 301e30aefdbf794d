//! Device-to-device interconnect model.
//!
//! A multi-GPU embedding stage ends with a collective: every device holds
//! the pooled outputs of its own features and the concatenated vector must
//! be materialized for the DNN (TorchRec's all-to-all / all-gather
//! exchange). The simulator models the link the way it models DRAM — a
//! fixed software/launch latency plus a bandwidth term — so a sharded
//! latency estimate stays a pure function of bytes moved.

/// A point-to-point or collective interconnect between devices.
#[derive(Debug, Clone, PartialEq)]
pub struct Interconnect {
    /// Sustained per-direction link bandwidth, GB/s.
    pub bandwidth_gbps: f64,
    /// Fixed per-collective software + wire latency, µs (kernel launch,
    /// synchronization, first-byte time).
    pub base_latency_us: f64,
}

impl Interconnect {
    /// NVLink-class link (NVLink 2.0 sustained ~120 GB/s per direction).
    pub fn nvlink() -> Self {
        Interconnect {
            bandwidth_gbps: 120.0,
            base_latency_us: 5.0,
        }
    }

    /// PCIe 3.0 x16-class link (~12 GB/s sustained).
    pub fn pcie() -> Self {
        Interconnect {
            bandwidth_gbps: 12.0,
            base_latency_us: 10.0,
        }
    }

    /// An infinitely fast link — gathers cost nothing. Useful for isolating
    /// compute effects in ablations and for single-device parity tests.
    pub fn ideal() -> Self {
        Interconnect {
            bandwidth_gbps: f64::INFINITY,
            base_latency_us: 0.0,
        }
    }

    /// Look up a preset by name (`nvlink`, `pcie`, `ideal`), case
    /// insensitively. `None` for anything else — callers surface the
    /// valid set in their own error message.
    pub fn by_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "nvlink" => Some(Interconnect::nvlink()),
            "pcie" => Some(Interconnect::pcie()),
            "ideal" => Some(Interconnect::ideal()),
            _ => None,
        }
    }

    /// The same link with its bandwidth cut by `factor` (≥ 1): a
    /// congested or partially-failed fabric. A factor of exactly 1
    /// returns the link unchanged, bit-for-bit (`x / 1.0 == x` in IEEE
    /// arithmetic), so the healthy path never pays for the knob.
    pub fn degrade(&self, factor: f64) -> Self {
        Interconnect {
            bandwidth_gbps: self.bandwidth_gbps / factor.max(1.0),
            base_latency_us: self.base_latency_us,
        }
    }

    /// Time for an all-gather of `total_bytes` of pooled output spread
    /// across `num_devices`, µs. With one (or zero) devices there is
    /// nothing to exchange and the cost is exactly zero — a 1-shard
    /// deployment pays no gather term at all.
    ///
    /// Ring all-gather moves `(n-1)/n` of the total payload through every
    /// link in parallel, so the bandwidth term scales with the slice each
    /// device must receive, not with the device count.
    pub fn all_gather_us(&self, total_bytes: u64, num_devices: usize) -> f64 {
        if num_devices <= 1 || total_bytes == 0 {
            return 0.0;
        }
        let n = num_devices as f64;
        let wire_bytes = total_bytes as f64 * (n - 1.0) / n;
        self.base_latency_us + wire_bytes / (self.bandwidth_gbps * 1e9) * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_device_gather_is_free() {
        let link = Interconnect::nvlink();
        assert_eq!(link.all_gather_us(1 << 20, 1), 0.0);
        assert_eq!(link.all_gather_us(0, 8), 0.0);
    }

    #[test]
    fn gather_cost_grows_with_bytes_and_devices() {
        let link = Interconnect::nvlink();
        let small = link.all_gather_us(1 << 10, 2);
        let big = link.all_gather_us(1 << 24, 2);
        assert!(big > small, "more bytes, more time");
        let two = link.all_gather_us(1 << 24, 2);
        let eight = link.all_gather_us(1 << 24, 8);
        assert!(eight > two, "larger rings move a larger slice share");
    }

    #[test]
    fn slower_link_costs_more() {
        let bytes = 4 << 20;
        assert!(
            Interconnect::pcie().all_gather_us(bytes, 4)
                > Interconnect::nvlink().all_gather_us(bytes, 4)
        );
    }

    #[test]
    fn ideal_link_is_free() {
        assert_eq!(Interconnect::ideal().all_gather_us(1 << 30, 8), 0.0);
    }

    #[test]
    fn presets_resolve_by_name_case_insensitively() {
        assert_eq!(
            Interconnect::by_name("nvlink"),
            Some(Interconnect::nvlink())
        );
        assert_eq!(Interconnect::by_name("PCIe"), Some(Interconnect::pcie()));
        assert_eq!(Interconnect::by_name("IDEAL"), Some(Interconnect::ideal()));
        assert_eq!(Interconnect::by_name("infiniband"), None);
    }

    #[test]
    fn degrade_cuts_bandwidth_and_identity_is_exact() {
        let link = Interconnect::nvlink();
        let cut = link.degrade(4.0);
        assert_eq!(cut.bandwidth_gbps, 30.0);
        assert_eq!(cut.base_latency_us, link.base_latency_us);
        assert!(cut.all_gather_us(4 << 20, 4) > link.all_gather_us(4 << 20, 4));
        // Bit-for-bit identity at factor 1 (and sub-1 factors clamp up).
        assert_eq!(link.degrade(1.0), link);
        assert_eq!(link.degrade(0.5), link);
    }

    #[test]
    fn gather_includes_base_latency() {
        let link = Interconnect {
            bandwidth_gbps: 100.0,
            base_latency_us: 7.0,
        };
        // A 2-device ring moves half of 2e8 bytes: 1e8 bytes at 100 GB/s
        // = 1000 µs on the wire.
        assert!((link.all_gather_us(200_000_000, 2) - 1007.0).abs() < 1e-9);
    }
}

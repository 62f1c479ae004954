//! Hardware platform descriptions: the Bridges cluster and the Tuxedo
//! single-host machine of §IV-A.

use crate::spec::GpuSpec;

/// Interconnect parameters of a cluster (host↔host network and the PCIe
/// link between each host and its GPUs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterSpec {
    /// Name for reports.
    pub name: &'static str,
    /// Per-host NIC bandwidth, bytes/second.
    pub net_bandwidth: f64,
    /// Per-message network latency, seconds.
    pub net_latency: f64,
    /// Fixed per-partner, per-synchronization software overhead (MPI
    /// progress, matching, posting), seconds.
    pub msg_overhead: f64,
    /// PCIe bandwidth per device link, bytes/second.
    pub pcie_bandwidth: f64,
    /// PCIe transfer latency (driver + DMA setup), seconds.
    pub pcie_latency: f64,
    /// GPUs attached to each host.
    pub gpus_per_host: u32,
}

impl ClusterSpec {
    /// The Bridges cluster: Intel Omni-Path (100 Gb/s line rate), 2 P100s
    /// per host. Bandwidths are *effective* rates for graph-analytics
    /// synchronization traffic, not line rates: MPI messages of a few MB
    /// through pinned-buffer staging reach roughly a third of line rate,
    /// and every device<->host hop costs an extra host-memory copy.
    pub fn bridges() -> ClusterSpec {
        ClusterSpec {
            name: "Bridges",
            net_bandwidth: 4.0e9,
            net_latency: 10e-6,
            msg_overhead: 40e-6,
            pcie_bandwidth: 6.0e9,
            pcie_latency: 12e-6,
            gpus_per_host: 2,
        }
    }

    /// The Tuxedo single host: all six GPUs on one machine, transfers
    /// cross PCIe only (host RAM staging).
    pub fn tuxedo() -> ClusterSpec {
        ClusterSpec {
            name: "Tuxedo",
            // Same-host exchange through pinned host memory: effectively
            // PCIe-bound with negligible "network" latency.
            net_bandwidth: 11.0e9,
            net_latency: 4e-6,
            msg_overhead: 10e-6,
            pcie_bandwidth: 11.0e9,
            pcie_latency: 10e-6,
            gpus_per_host: 6,
        }
    }
}

/// A concrete set of devices mapped onto hosts.
#[derive(Clone, Debug)]
pub struct Platform {
    /// Per-device specifications; `gpus[d]` is device `d`.
    pub gpus: Vec<GpuSpec>,
    /// Interconnect parameters.
    pub cluster: ClusterSpec,
}

impl Platform {
    /// `n` identical devices on `cluster` (devices fill hosts in order).
    pub fn homogeneous(n: u32, spec: GpuSpec, cluster: ClusterSpec) -> Platform {
        Platform {
            gpus: vec![spec; n as usize],
            cluster,
        }
    }

    /// The Bridges setup of the paper: `n` P100s, two per host.
    pub fn bridges(n: u32) -> Platform {
        Self::homogeneous(n, GpuSpec::p100(), ClusterSpec::bridges())
    }

    /// The full Tuxedo machine: 4 Tesla K80s then 2 GTX 1080s, one host.
    pub fn tuxedo() -> Platform {
        let mut gpus = vec![GpuSpec::k80(); 4];
        gpus.extend(vec![GpuSpec::gtx1080(); 2]);
        Platform {
            gpus,
            cluster: ClusterSpec::tuxedo(),
        }
    }

    /// The first `n` Tuxedo GPUs (the paper sweeps 1, 2, 4, 6).
    pub fn tuxedo_n(n: u32) -> Platform {
        let mut p = Self::tuxedo();
        p.gpus.truncate(n as usize);
        p
    }

    /// Number of devices.
    pub fn num_devices(&self) -> u32 {
        self.gpus.len() as u32
    }

    /// Host index of device `d`.
    pub fn host_of(&self, d: u32) -> u32 {
        d / self.cluster.gpus_per_host
    }

    /// Number of hosts in use.
    pub fn num_hosts(&self) -> u32 {
        if self.gpus.is_empty() {
            0
        } else {
            self.host_of(self.num_devices() - 1) + 1
        }
    }

    /// True when `a` and `b` live on the same host.
    pub fn same_host(&self, a: u32, b: u32) -> bool {
        self.host_of(a) == self.host_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bridges_maps_two_gpus_per_host() {
        let p = Platform::bridges(64);
        assert_eq!(p.num_devices(), 64);
        assert_eq!(p.num_hosts(), 32);
        assert_eq!(p.host_of(0), 0);
        assert_eq!(p.host_of(1), 0);
        assert_eq!(p.host_of(2), 1);
        assert!(p.same_host(62, 63));
        assert!(!p.same_host(1, 2));
    }

    #[test]
    fn tuxedo_is_heterogeneous_single_host() {
        let p = Platform::tuxedo();
        assert_eq!(p.num_devices(), 6);
        assert_eq!(p.num_hosts(), 1);
        assert_eq!(p.gpus[0].name, "Tesla K80");
        assert_eq!(p.gpus[5].name, "GTX 1080");
        let p4 = Platform::tuxedo_n(4);
        assert_eq!(p4.num_devices(), 4);
        assert!(p4.gpus.iter().all(|g| g.name == "Tesla K80"));
    }
}

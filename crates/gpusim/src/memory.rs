//! Device-memory accounting.
//!
//! GPU memory is the binding constraint of the whole study: "imbalanced
//! partitions may prevent the computation from running at all" (§I). Every
//! allocation a partition needs — CSR arrays, labels, update bitsets,
//! communication buffers — is charged here, and exceeding the device
//! capacity produces an [`OomError`], which surfaces in the harness as the
//! paper's missing data points.

/// Allocation failure: the device cannot hold the requested working set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OomError {
    /// Bytes the failing allocation requested.
    pub requested: u64,
    /// Bytes already allocated.
    pub in_use: u64,
    /// Device capacity in bytes.
    pub capacity: u64,
}

impl std::fmt::Display for OomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of device memory: requested {} B with {} B in use of {} B capacity",
            self.requested, self.in_use, self.capacity
        )
    }
}

impl std::error::Error for OomError {}

/// Tracks allocations against a fixed device capacity.
#[derive(Clone, Debug)]
pub struct MemoryTracker {
    capacity: u64,
    in_use: u64,
    peak: u64,
}

impl MemoryTracker {
    /// A tracker with the given capacity in bytes.
    pub fn new(capacity: u64) -> MemoryTracker {
        MemoryTracker {
            capacity,
            in_use: 0,
            peak: 0,
        }
    }

    /// Attempts to allocate `bytes`; fails without side effects on OOM.
    pub fn alloc(&mut self, bytes: u64) -> Result<(), OomError> {
        if self.in_use.saturating_add(bytes) > self.capacity {
            return Err(OomError {
                requested: bytes,
                in_use: self.in_use,
                capacity: self.capacity,
            });
        }
        self.in_use += bytes;
        self.peak = self.peak.max(self.in_use);
        Ok(())
    }

    /// Releases `bytes` (saturating).
    pub fn free(&mut self, bytes: u64) {
        self.in_use = self.in_use.saturating_sub(bytes);
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// High-water mark — the number Table III reports per framework.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Device capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes still allocatable right now (`capacity − in_use`) — the
    /// residual an admission controller checks a predicted footprint
    /// against before launching work on this device.
    pub fn residual(&self) -> u64 {
        self.capacity.saturating_sub(self.in_use)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_peak() {
        let mut m = MemoryTracker::new(100);
        m.alloc(60).unwrap();
        m.alloc(30).unwrap();
        assert_eq!(m.in_use(), 90);
        assert_eq!(m.residual(), 10);
        m.free(50);
        assert_eq!(m.in_use(), 40);
        assert_eq!(m.residual(), 60);
        assert_eq!(m.peak(), 90);
        m.alloc(20).unwrap();
        assert_eq!(m.peak(), 90);
    }

    #[test]
    fn oom_is_side_effect_free() {
        let mut m = MemoryTracker::new(100);
        m.alloc(80).unwrap();
        let err = m.alloc(30).unwrap_err();
        assert_eq!(
            err,
            OomError {
                requested: 30,
                in_use: 80,
                capacity: 100
            }
        );
        assert_eq!(m.in_use(), 80);
        // Exactly filling works.
        m.alloc(20).unwrap();
        assert_eq!(m.in_use(), 100);
    }

    #[test]
    fn free_saturates() {
        let mut m = MemoryTracker::new(10);
        m.alloc(5).unwrap();
        m.free(100);
        assert_eq!(m.in_use(), 0);
    }
}

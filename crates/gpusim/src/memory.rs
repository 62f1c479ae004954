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

/// Which adjacency representation a device holds its partition in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphRepr {
    /// Plain CSR arrays — full edge throughput, full footprint.
    Raw,
    /// Delta-gap varint adjacency, decoded row-by-row each round — smaller
    /// footprint, pays a per-round decode charge.
    Compressed,
}

impl GraphRepr {
    /// Display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            GraphRepr::Raw => "raw",
            GraphRepr::Compressed => "compressed",
        }
    }
}

/// Predicted device footprint of one partition under each representation.
/// The admission side computes both candidates once and picks the cheapest
/// representation the capacity admits — raw preferred (no decode charge),
/// compressed as the spill fallback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReprCost {
    /// Bytes with plain CSR adjacency.
    pub raw: u64,
    /// Bytes with compressed adjacency.
    pub compressed: u64,
}

impl ReprCost {
    /// The representation a device of `capacity` bytes can hold, or `None`
    /// when even the compressed footprint does not fit.
    pub fn choose(&self, capacity: u64) -> Option<GraphRepr> {
        if self.raw <= capacity {
            Some(GraphRepr::Raw)
        } else if self.compressed <= capacity {
            Some(GraphRepr::Compressed)
        } else {
            None
        }
    }

    /// The footprint of the chosen representation.
    pub fn bytes(&self, repr: GraphRepr) -> u64 {
        match repr {
            GraphRepr::Raw => self.raw,
            GraphRepr::Compressed => self.compressed,
        }
    }
}

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
    fn repr_cost_prefers_raw_and_falls_back_to_compressed() {
        let c = ReprCost {
            raw: 100,
            compressed: 40,
        };
        assert_eq!(c.choose(120), Some(GraphRepr::Raw));
        assert_eq!(c.choose(100), Some(GraphRepr::Raw));
        assert_eq!(c.choose(99), Some(GraphRepr::Compressed));
        assert_eq!(c.choose(40), Some(GraphRepr::Compressed));
        assert_eq!(c.choose(39), None);
        assert_eq!(c.bytes(GraphRepr::Raw), 100);
        assert_eq!(c.bytes(GraphRepr::Compressed), 40);
    }

    #[test]
    fn free_saturates() {
        let mut m = MemoryTracker::new(10);
        m.alloc(5).unwrap();
        m.free(100);
        assert_eq!(m.in_use(), 0);
    }
}

//! Partitioning policies and the CVC device grid.

/// A graph partitioning policy (§III-C of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Edge-balanced outgoing edge-cut: all out-edges of a vertex are
    /// assigned to its master's device.
    Oec,
    /// Edge-balanced incoming edge-cut (Lux's only policy): all in-edges of
    /// a vertex live with its master.
    Iec,
    /// Hybrid vertex-cut (PowerLyra): low-in-degree vertices keep their
    /// in-edges at the master; high-in-degree vertices' in-edges are split
    /// by source.
    Hvc,
    /// Cartesian vertex-cut: a 2D blocked cut of the adjacency matrix over
    /// a `pr x pc` device grid (Fig. 2 of the paper).
    Cvc,
    /// Random vertex assignment, out-edges with the source's owner
    /// (Gunrock's default).
    Random,
    /// BFS-grow locality-seeking edge-cut, standing in for METIS (Groute).
    MetisLike,
}

impl Policy {
    /// The four policies the paper studies in D-IrGL.
    pub const DIRGL: [Policy; 4] = [Policy::Oec, Policy::Iec, Policy::Hvc, Policy::Cvc];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Oec => "OEC",
            Policy::Iec => "IEC",
            Policy::Hvc => "HVC",
            Policy::Cvc => "CVC",
            Policy::Random => "Random",
            Policy::MetisLike => "MetisLike",
        }
    }

    /// True for vertex-cuts (an edge may land on a device owning neither
    /// endpoint's master).
    pub fn is_vertex_cut(self) -> bool {
        matches!(self, Policy::Hvc | Policy::Cvc)
    }

    /// True when the policy guarantees every out-edge of a vertex is on the
    /// master's device (push-style programs then never read at mirrors, so
    /// broadcast is elided — §III-D1).
    pub fn out_edges_at_master(self) -> bool {
        matches!(self, Policy::Oec | Policy::Random | Policy::MetisLike)
    }

    /// True when the policy guarantees every in-edge of a vertex is on the
    /// master's device (push-style programs then never write at mirrors, so
    /// reduce is elided).
    pub fn in_edges_at_master(self) -> bool {
        matches!(self, Policy::Iec)
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The CVC device grid: `pr` rows × `pc` columns, `pr >= pc`.
///
/// Device `d` sits at row `d / pc`, column `d % pc`. An edge `(u, v)` is
/// assigned to the device at `(row_of(owner(u)), col_of(owner(v)))`, which
/// yields the paper's structural invariants: all proxies of `u` holding
/// out-edges share `owner(u)`'s grid row; all proxies of `v` holding
/// in-edges share `owner(v)`'s grid column.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grid {
    /// Rows.
    pub pr: u32,
    /// Columns.
    pub pc: u32,
}

impl Grid {
    /// Factorizes `p = pr * pc` with `pc` the largest divisor of `p` not
    /// exceeding `sqrt(p)` (so `pr >= pc`); 8 devices yield the 4×2 grid of
    /// the paper's Fig. 2.
    pub fn for_devices(p: u32) -> Grid {
        assert!(p > 0);
        let mut pc = (p as f64).sqrt().floor() as u32;
        while pc > 1 && !p.is_multiple_of(pc) {
            pc -= 1;
        }
        Grid { pr: p / pc, pc }
    }

    /// Number of devices.
    pub fn num_devices(&self) -> u32 {
        self.pr * self.pc
    }

    /// Grid row of device `d`.
    #[inline]
    pub fn row(&self, d: u32) -> u32 {
        d / self.pc
    }

    /// Grid column of device `d`.
    #[inline]
    pub fn col(&self, d: u32) -> u32 {
        d % self.pc
    }

    /// Device at grid position `(r, c)`.
    #[inline]
    pub fn device_at(&self, r: u32, c: u32) -> u32 {
        debug_assert!(r < self.pr && c < self.pc);
        r * self.pc + c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_factorization() {
        assert_eq!(Grid::for_devices(8), Grid { pr: 4, pc: 2 }); // Fig. 2
        assert_eq!(Grid::for_devices(1), Grid { pr: 1, pc: 1 });
        assert_eq!(Grid::for_devices(2), Grid { pr: 2, pc: 1 });
        assert_eq!(Grid::for_devices(4), Grid { pr: 2, pc: 2 });
        assert_eq!(Grid::for_devices(6), Grid { pr: 3, pc: 2 });
        assert_eq!(Grid::for_devices(16), Grid { pr: 4, pc: 4 });
        assert_eq!(Grid::for_devices(32), Grid { pr: 8, pc: 4 });
        assert_eq!(Grid::for_devices(64), Grid { pr: 8, pc: 8 });
        assert_eq!(Grid::for_devices(7), Grid { pr: 7, pc: 1 }); // prime
    }

    #[test]
    fn grid_coordinates_roundtrip() {
        let g = Grid::for_devices(32);
        for d in 0..32 {
            assert_eq!(g.device_at(g.row(d), g.col(d)), d);
        }
    }

    #[test]
    fn policy_invariant_flags() {
        assert!(Policy::Oec.out_edges_at_master());
        assert!(!Policy::Oec.in_edges_at_master());
        assert!(Policy::Iec.in_edges_at_master());
        assert!(!Policy::Iec.out_edges_at_master());
        assert!(Policy::Cvc.is_vertex_cut());
        assert!(Policy::Hvc.is_vertex_cut());
        assert!(!Policy::Iec.is_vertex_cut());
        assert!(!Policy::Cvc.out_edges_at_master());
        assert!(!Policy::Cvc.in_edges_at_master());
    }
}

//! Edge assignment — the second of CuSP's two decision functions.

use dirgl_graph::csr::VertexId;

use crate::policy::{Grid, Policy};

/// Everything the per-edge rule needs, precomputed once per partition build.
pub struct EdgeRule<'a> {
    policy: Policy,
    owner: &'a [u32],
    grid: Option<Grid>,
    in_degrees: Option<&'a [u32]>,
    /// HVC: vertices with in-degree above this have their in-edges split by
    /// source (PowerLyra's high-degree rule).
    pub hvc_threshold: u32,
}

impl<'a> EdgeRule<'a> {
    /// Builds the rule. `in_degrees` is required for HVC, `grid` for CVC.
    pub fn new(
        policy: Policy,
        owner: &'a [u32],
        grid: Option<Grid>,
        in_degrees: Option<&'a [u32]>,
        hvc_threshold: u32,
    ) -> Self {
        if policy == Policy::Cvc {
            assert!(grid.is_some(), "CVC needs a device grid");
        }
        if policy == Policy::Hvc {
            assert!(in_degrees.is_some(), "HVC needs in-degrees");
        }
        EdgeRule {
            policy,
            owner,
            grid,
            in_degrees,
            hvc_threshold,
        }
    }

    /// The device that stores edge `(u, v)`.
    #[inline]
    pub fn device_of(&self, u: VertexId, v: VertexId) -> u32 {
        match self.policy {
            // All out-edges of u colocate with u's master.
            Policy::Oec | Policy::Random | Policy::MetisLike => self.owner[u as usize],
            // All in-edges of v colocate with v's master.
            Policy::Iec => self.owner[v as usize],
            // Low-in-degree destinations behave like IEC; high-in-degree
            // destinations split their in-edges by source.
            Policy::Hvc => {
                let ind = self.in_degrees.unwrap();
                if ind[v as usize] <= self.hvc_threshold {
                    self.owner[v as usize]
                } else {
                    self.owner[u as usize]
                }
            }
            // 2D cut: grid row of u's owner, grid column of v's owner.
            Policy::Cvc => {
                let g = self.grid.as_ref().unwrap();
                g.device_at(g.row(self.owner[u as usize]), g.col(self.owner[v as usize]))
            }
        }
    }
}

/// Default HVC in-degree threshold given the average degree: PowerLyra uses
/// a constant (100); scaling with the average keeps the high-degree set a
/// comparable fraction on scaled-down analogues.
pub fn default_hvc_threshold(avg_degree: f64) -> u32 {
    (4.0 * avg_degree).ceil().max(8.0) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oec_follows_source_owner() {
        let owner = vec![0, 1, 2, 0];
        let rule = EdgeRule::new(Policy::Oec, &owner, None, None, 0);
        assert_eq!(rule.device_of(1, 3), 1);
        assert_eq!(rule.device_of(3, 1), 0);
    }

    #[test]
    fn iec_follows_destination_owner() {
        let owner = vec![0, 1, 2, 0];
        let rule = EdgeRule::new(Policy::Iec, &owner, None, None, 0);
        assert_eq!(rule.device_of(1, 2), 2);
        assert_eq!(rule.device_of(2, 0), 0);
    }

    #[test]
    fn hvc_switches_on_in_degree() {
        let owner = vec![0, 1];
        let ind = vec![1u32, 100u32];
        let rule = EdgeRule::new(Policy::Hvc, &owner, None, Some(&ind), 10);
        // Destination 0 is low-degree: edge follows destination.
        assert_eq!(rule.device_of(1, 0), 0);
        // Destination 1 is high-degree: edge follows source.
        assert_eq!(rule.device_of(0, 1), 0);
    }

    #[test]
    fn cvc_lands_on_row_of_src_col_of_dst() {
        // 4 devices, 2x2 grid; owners: u -> dev 3 (row 1), v -> dev 0 (col 0)
        let owner = vec![3, 0];
        let grid = Grid::for_devices(4);
        let rule = EdgeRule::new(Policy::Cvc, &owner, Some(grid), None, 0);
        let dev = rule.device_of(0, 1);
        assert_eq!(grid.row(dev), grid.row(3));
        assert_eq!(grid.col(dev), grid.col(0));
        assert_eq!(dev, 2);
    }

    #[test]
    #[should_panic(expected = "CVC needs a device grid")]
    fn cvc_requires_grid() {
        let owner = vec![0];
        let _ = EdgeRule::new(Policy::Cvc, &owner, None, None, 0);
    }

    #[test]
    fn hvc_threshold_scales() {
        assert_eq!(default_hvc_threshold(1.0), 8);
        assert_eq!(default_hvc_threshold(30.0), 120);
    }
}

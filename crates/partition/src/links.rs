//! Mirror↔master exchange links.
//!
//! For every ordered device pair `(holder, owner)` with at least one mirror
//! on `holder` whose master lives on `owner`, a [`PairLink`] stores the two
//! aligned local-id arrays the Gluon-style substrate synchronizes over:
//! entry `i` pairs `mirror_side[i]` (a local id on `holder`) with
//! `master_side[i]` (a local id on `owner`).
//!
//! The alignment *is* the paper's address-translation memoization
//! (§III-D2 footnote): because both sides agree on the order once at
//! construction, steady-state messages carry values (or a bitset + values)
//! and never global ids.

use dirgl_graph::csr::VertexId;

/// Aligned exchange arrays for one (mirror holder, master owner) pair.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PairLink {
    /// Local ids on the mirror-holding device.
    pub mirror_side: Vec<VertexId>,
    /// Local ids on the master-owning device, aligned with `mirror_side`.
    pub master_side: Vec<VertexId>,
    /// Per-entry: mirror has local out-edges (is *read* by push programs).
    pub mirror_has_out: Vec<bool>,
    /// Per-entry: mirror has local in-edges (is *written* by push programs).
    pub mirror_has_in: Vec<bool>,
}

impl PairLink {
    /// Number of shared proxies on this link.
    pub fn len(&self) -> usize {
        self.mirror_side.len()
    }

    /// True when no proxies are shared.
    pub fn is_empty(&self) -> bool {
        self.mirror_side.is_empty()
    }

    /// Entry indices whose mirror can be written by a program writing at
    /// the given location — the reduce participant set.
    pub fn written_entries(&self, write_at_dst: bool) -> Vec<u32> {
        (0..self.len() as u32)
            .filter(|&i| {
                if write_at_dst {
                    self.mirror_has_in[i as usize]
                } else {
                    self.mirror_has_out[i as usize]
                }
            })
            .collect()
    }

    /// Entry indices whose mirror is read by a program reading at the given
    /// location — the broadcast participant set.
    pub fn read_entries(&self, read_at_src: bool) -> Vec<u32> {
        (0..self.len() as u32)
            .filter(|&i| {
                if read_at_src {
                    self.mirror_has_out[i as usize]
                } else {
                    self.mirror_has_in[i as usize]
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> PairLink {
        PairLink {
            mirror_side: vec![5, 6, 7],
            master_side: vec![1, 0, 2],
            mirror_has_out: vec![true, false, true],
            mirror_has_in: vec![false, true, true],
        }
    }

    #[test]
    fn participant_filtering() {
        let l = link();
        // Push programs write at destination: mirrors with in-edges.
        assert_eq!(l.written_entries(true), vec![1, 2]);
        // Push programs read at source: mirrors with out-edges.
        assert_eq!(l.read_entries(true), vec![0, 2]);
        // Pull programs write at themselves (destination of in-edges
        // iterated): mirrors with out-edges hold the *read* side.
        assert_eq!(l.written_entries(false), vec![0, 2]);
        assert_eq!(l.read_entries(false), vec![1, 2]);
    }

    #[test]
    fn empty_link() {
        let l = PairLink::default();
        assert!(l.is_empty());
        assert!(l.written_entries(true).is_empty());
    }
}

//! Delta-gap varint-compressed adjacency (the WebGraph trick).
//!
//! [`CompressedCsr`] stores each vertex's neighbor list as zigzag-encoded
//! deltas: the first target is encoded relative to the row's own vertex id,
//! each subsequent target relative to its predecessor. Rows produced by the
//! generators are ascending, so gaps are small and most targets fit in one
//! or two bytes; web-crawl analogues (locality-heavy site blocks) compress
//! 2–5× against the raw 4-byte-per-target [`Csr`] arrays. Edge weights, when
//! present, are plain varints interleaved after the row's targets.
//!
//! The representation is lossless and order-preserving: `to_csr()` rebuilds
//! the exact [`Csr`] (same row order, same weights), which is what the
//! golden corpus's `Compressed` launch transform (`tests/golden_digests.rs`)
//! pins. Decoding is row-at-a-time into caller-provided scratch
//! ([`CompressedCsr::decode_row_into`]), so steady-state consumers touch the
//! allocator only until the scratch grows to the maximum degree — the same
//! pooling discipline as the engine's `RoundScratch`.

use crate::csr::{Csr, CsrBuilder, VertexId};

/// Zigzag-encode a signed delta into an unsigned varint payload.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

#[inline]
fn write_varint(buf: &mut Vec<u8>, mut z: u64) {
    while z >= 0x80 {
        buf.push((z as u8) | 0x80);
        z >>= 7;
    }
    buf.push(z as u8);
}

#[inline]
fn read_varint(data: &[u8], pos: &mut usize) -> u64 {
    let mut z = 0u64;
    let mut shift = 0u32;
    loop {
        let b = data[*pos];
        *pos += 1;
        z |= u64::from(b & 0x7F) << shift;
        if b < 0x80 {
            return z;
        }
        shift += 7;
    }
}

/// CSR adjacency with per-vertex delta-gap + varint neighbor lists.
///
/// Row-for-row equivalent to the [`Csr`] it was built from: `out_degree`,
/// decoded targets and weights all match, in the same order.
#[derive(Clone, Debug, PartialEq)]
pub struct CompressedCsr {
    num_edges: u64,
    /// Byte offset of each row's encoded data (`n + 1` entries).
    offsets: Box<[u64]>,
    /// Out-degree per vertex; kept raw so degree probes stay O(1).
    degrees: Box<[u32]>,
    /// Concatenated per-row payloads: target gap varints, then (if
    /// weighted) one plain weight varint per edge.
    data: Box<[u8]>,
    weighted: bool,
}

impl CompressedCsr {
    /// Compresses an existing [`Csr`], preserving weights if present.
    pub fn from_csr(g: &Csr) -> Self {
        let n = g.num_vertices();
        let mut b = CompressedCsrBuilder::new(n, g.is_weighted());
        for v in 0..n {
            let (targets, weights) = g.edge_window(v);
            b.push_row(v, targets, weights);
        }
        b.build()
    }

    /// Rebuilds the exact plain [`Csr`] this was encoded from.
    pub fn to_csr(&self) -> Csr {
        let n = self.num_vertices();
        let mut b = CsrBuilder::with_capacity(n, self.num_edges as usize);
        let (mut ts, mut ws) = (Vec::new(), Vec::new());
        for v in 0..n {
            self.decode_row_into(v, &mut ts, &mut ws);
            if self.weighted {
                for (&t, &w) in ts.iter().zip(&ws) {
                    b.add_weighted(v, t, w);
                }
            } else {
                for &t in &ts {
                    b.add(v, t);
                }
            }
        }
        b.build()
    }

    pub fn num_vertices(&self) -> u32 {
        self.degrees.len() as u32
    }

    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    pub fn out_degree(&self, v: VertexId) -> u32 {
        self.degrees[v as usize]
    }

    /// Bytes this representation occupies: offsets + degrees + payload.
    /// The raw-side counterpart is [`Csr::bytes_with`].
    pub fn memory_bytes(&self) -> u64 {
        8 * (self.offsets.len() as u64) + 4 * (self.degrees.len() as u64) + self.data.len() as u64
    }

    /// Decodes row `v` into the provided scratch buffers (cleared first).
    /// `weights` is left empty for unweighted graphs. Buffers grow to the
    /// maximum degree once and are then reused allocation-free.
    pub fn decode_row_into(&self, v: VertexId, targets: &mut Vec<u32>, weights: &mut Vec<u32>) {
        targets.clear();
        weights.clear();
        let deg = self.degrees[v as usize] as usize;
        if deg == 0 {
            return;
        }
        let mut pos = self.offsets[v as usize] as usize;
        let mut prev = v as i64;
        targets.reserve(deg);
        for _ in 0..deg {
            let t = prev + unzigzag(read_varint(&self.data, &mut pos));
            targets.push(t as u32);
            prev = t;
        }
        if self.weighted {
            weights.reserve(deg);
            for _ in 0..deg {
                weights.push(read_varint(&self.data, &mut pos) as u32);
            }
        }
    }

    /// Streams every edge as `(src, dst, weight)` in row order (weight 0
    /// when unweighted) — the same order [`Csr::edges`] walks.
    pub fn for_each_edge(&self, f: &mut dyn FnMut(u32, u32, u32)) {
        let (mut ts, mut ws) = (Vec::new(), Vec::new());
        for v in 0..self.num_vertices() {
            self.decode_row_into(v, &mut ts, &mut ws);
            if self.weighted {
                for (&t, &w) in ts.iter().zip(&ws) {
                    f(v, t, w);
                }
            } else {
                for &t in &ts {
                    f(v, t, 0);
                }
            }
        }
    }
}

/// Incremental encoder: rows must arrive in ascending vertex order (gaps
/// are zero-degree rows). Used by [`CompressedCsr::from_csr`] and by the
/// streaming ingest path, which pushes edges straight off the external
/// sort-merge without ever materializing a raw CSR.
pub struct CompressedCsrBuilder {
    num_vertices: u32,
    num_edges: u64,
    offsets: Vec<u64>,
    degrees: Vec<u32>,
    data: Vec<u8>,
    weighted: bool,
    /// Row currently being accumulated by `push_edge`.
    cur: u32,
    cur_prev: i64,
    cur_deg: u32,
    /// Weight varints buffered until the row closes (targets precede
    /// weights in the payload).
    cur_weights: Vec<u8>,
}

impl CompressedCsrBuilder {
    pub fn new(num_vertices: u32, weighted: bool) -> Self {
        let mut offsets = Vec::with_capacity(num_vertices as usize + 1);
        offsets.push(0);
        CompressedCsrBuilder {
            num_vertices,
            num_edges: 0,
            offsets,
            degrees: Vec::with_capacity(num_vertices as usize),
            data: Vec::new(),
            weighted,
            cur: 0,
            cur_prev: 0,
            cur_deg: 0,
            cur_weights: Vec::new(),
        }
    }

    /// Encodes one whole row. `weights` may be empty for unweighted builds.
    pub fn push_row(&mut self, v: VertexId, targets: &[VertexId], weights: &[u32]) {
        self.close_rows_until(v);
        debug_assert_eq!(self.cur, v, "rows must arrive in ascending order");
        let mut prev = v as i64;
        for &t in targets {
            write_varint(&mut self.data, zigzag(t as i64 - prev));
            prev = t as i64;
        }
        if self.weighted {
            for &w in weights.iter().take(targets.len()) {
                write_varint(&mut self.data, w as u64);
            }
        }
        self.num_edges += targets.len() as u64;
        self.degrees.push(targets.len() as u32);
        self.offsets.push(self.data.len() as u64);
        self.cur = v + 1;
    }

    /// Appends one edge; sources must be non-decreasing (row-major order).
    pub fn push_edge(&mut self, u: VertexId, v: VertexId, w: u32) {
        if u != self.cur || self.cur_deg == 0 {
            self.close_rows_until(u);
        }
        debug_assert_eq!(self.cur, u, "edges must arrive in ascending source order");
        write_varint(&mut self.data, zigzag(v as i64 - self.cur_prev));
        self.cur_prev = v as i64;
        if self.weighted {
            write_varint(&mut self.cur_weights, w as u64);
        }
        self.cur_deg += 1;
        self.num_edges += 1;
    }

    /// Flushes the in-progress row (if any) and emits empty rows up to `v`.
    fn close_rows_until(&mut self, v: VertexId) {
        if self.cur_deg > 0 {
            self.data.extend_from_slice(&self.cur_weights);
            self.cur_weights.clear();
            self.degrees.push(self.cur_deg);
            self.offsets.push(self.data.len() as u64);
            self.cur_deg = 0;
            self.cur += 1;
        }
        while self.cur < v {
            self.degrees.push(0);
            self.offsets.push(self.data.len() as u64);
            self.cur += 1;
        }
        self.cur_prev = v as i64;
    }

    pub fn build(mut self) -> CompressedCsr {
        self.close_rows_until(self.num_vertices);
        debug_assert_eq!(self.degrees.len(), self.num_vertices as usize);
        CompressedCsr {
            num_edges: self.num_edges,
            offsets: self.offsets.into_boxed_slice(),
            degrees: self.degrees.into_boxed_slice(),
            data: self.data.into_boxed_slice(),
            weighted: self.weighted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::rmat::RmatConfig;
    use crate::weights::randomize_weights;
    use proptest::prelude::*;

    fn rmat(scale: u32, ef: u32, seed: u64) -> Csr {
        RmatConfig::new(scale, ef).seed(seed).generate()
    }

    fn assert_round_trip(g: &Csr) {
        let c = CompressedCsr::from_csr(g);
        assert_eq!(c.num_vertices(), g.num_vertices());
        assert_eq!(c.num_edges(), g.num_edges());
        assert_eq!(c.is_weighted(), g.is_weighted());
        let (mut ts, mut ws) = (Vec::new(), Vec::new());
        for v in 0..g.num_vertices() {
            assert_eq!(c.out_degree(v), g.out_degree(v));
            let (targets, weights) = g.edge_window(v);
            c.decode_row_into(v, &mut ts, &mut ws);
            assert_eq!(ts, targets);
            if g.is_weighted() {
                assert_eq!(ws, weights);
            } else {
                assert!(ws.is_empty());
            }
        }
        assert_eq!(&c.to_csr(), g);
    }

    #[test]
    fn round_trip_unweighted_and_weighted() {
        let g = rmat(8, 8, 42);
        assert_round_trip(&g);
        assert_round_trip(&randomize_weights(&g, 100, 7));
    }

    #[test]
    fn round_trip_empty_and_degenerate() {
        assert_round_trip(&Csr::empty(0));
        assert_round_trip(&Csr::empty(17));
        let mut b = CsrBuilder::new(4);
        b.add(3, 0); // backward gap: first delta is negative
        b.add(3, 3); // self loop
        assert_round_trip(&b.build());
    }

    #[test]
    fn push_edge_matches_push_row() {
        let g = randomize_weights(&rmat(7, 6, 3), 100, 9);
        let by_row = CompressedCsr::from_csr(&g);
        let mut b = CompressedCsrBuilder::new(g.num_vertices(), true);
        for u in 0..g.num_vertices() {
            for (v, w) in g.edges(u) {
                b.push_edge(u, v, w);
            }
        }
        assert_eq!(b.build(), by_row);
    }

    #[test]
    fn varint_zigzag_edges() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            64,
            i64::from(u32::MAX),
            -(i64::from(u32::MAX)),
        ] {
            assert_eq!(unzigzag(zigzag(v)), v);
            let mut buf = Vec::new();
            write_varint(&mut buf, zigzag(v));
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), zigzag(v));
            assert_eq!(pos, buf.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// CompressedCsr ≡ Csr round-trip over R-MAT corpora: neighbors,
        /// weights, `edge_window`, `out_degree` all agree, and `to_csr`
        /// reproduces the input bit-for-bit.
        #[test]
        fn compressed_round_trips_rmat(
            scale in 4u32..9,
            ef in 1u32..12,
            seed in 0u64..1_000,
            weighted in 0u32..2,
        ) {
            let g = rmat(scale, ef, seed);
            let g = if weighted == 1 { randomize_weights(&g, 100, seed ^ 0xABCD) } else { g };
            assert_round_trip(&g);
        }
    }
}

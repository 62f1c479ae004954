//! Compressed-sparse-row graph storage.
//!
//! The CSR layout is the one every GPU graph framework in the paper uses:
//! an `offsets` array of length `n + 1` and a `targets` array of length `m`,
//! with an optional parallel `weights` array (the paper adds randomized edge
//! weights to every input for `sssp`).
//!
//! Vertex ids are `u32` — the largest scaled dataset stays far below
//! `u32::MAX` vertices — and edge offsets are `u64` so the builder is safe
//! for any edge count we can hold in memory.

/// A vertex identifier. Global and partition-local ids share this type.
pub type VertexId = u32;

/// Sentinel for "no vertex".
pub const INVALID_VERTEX: VertexId = VertexId::MAX;

/// Stable counting sort by bucket: a histogram, its prefix sums, one
/// scatter. `items` yields `(bucket, item)` pairs and is walked twice;
/// `place(slot, item)` runs once per item, in `items` order, so a bucket's
/// items keep that order in its slots. Returns the `n + 1` bucket offsets.
fn bucket<T>(
    n: usize,
    items: impl Iterator<Item = (VertexId, T)> + Clone,
    mut place: impl FnMut(usize, T),
) -> Vec<u64> {
    let mut offsets = vec![0u64; n + 1];
    for (b, _) in items.clone() {
        offsets[b as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor: Vec<u64> = offsets[..n].to_vec();
    for (b, item) in items {
        let at = &mut cursor[b as usize];
        place(*at as usize, item);
        *at += 1;
    }
    offsets
}

/// An edge list: `(src, dst)` pairs plus optional weights, the input to
/// [`CsrBuilder`] and the output of the synthetic generators.
#[derive(Clone, Debug, Default)]
pub struct EdgeList {
    /// Number of vertices (ids must be `< num_vertices`).
    pub num_vertices: u32,
    /// `(src, dst)` pairs.
    pub edges: Vec<(VertexId, VertexId)>,
    /// Optional per-edge weights, parallel to `edges`.
    pub weights: Option<Vec<u32>>,
}

impl EdgeList {
    /// Creates an empty edge list over `num_vertices` vertices.
    pub fn new(num_vertices: u32) -> Self {
        EdgeList {
            num_vertices,
            edges: Vec::new(),
            weights: None,
        }
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when the list holds no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Removes duplicate edges and self-loops (keeping the first weight seen
    /// for a retained edge) and leaves the list ascending by `(src, dst)`.
    /// Generators call this so the analogues match the simple-digraph
    /// inputs of the paper.
    ///
    /// Edges are bucketed by source with a counting sort and each row is
    /// sorted on its own, so no comparison sort ever sees the whole list.
    pub fn dedup(&mut self) {
        match self.weights.take() {
            None => self.edges = self.unique_rows(|_, d| d, |d| d),
            Some(ws) => {
                // (target, original index): of a target's records the first
                // edge seen sorts first, and its weight is the one kept.
                let kept = self.unique_rows(|i, d| (d, i as u32), |r| r.0);
                self.edges = kept.iter().map(|&(s, (d, _))| (s, d)).collect();
                self.weights = Some(kept.iter().map(|&(_, (_, i))| ws[i as usize]).collect());
            }
        }
    }

    /// One record per non-loop edge (`rec(index, dst)`), bucketed by source,
    /// each row sorted, the first record of each target kept: the surviving
    /// `(src, record)` pairs, ascending.
    fn unique_rows<R: Copy + Ord + Default>(
        &self,
        rec: impl Fn(usize, VertexId) -> R,
        dst: impl Fn(R) -> VertexId,
    ) -> Vec<(VertexId, R)> {
        let mut rows = vec![R::default(); self.edges.len()];
        let offsets = bucket(
            self.num_vertices as usize,
            self.edges
                .iter()
                .enumerate()
                .filter(|(_, (s, d))| s != d)
                .map(|(i, &(s, d))| (s, rec(i, d))),
            |at, r| rows[at] = r,
        );
        let mut kept = Vec::with_capacity(rows.len());
        for (s, w) in offsets.windows(2).enumerate() {
            let row = &mut rows[w[0] as usize..w[1] as usize];
            row.sort_unstable();
            let mut last = INVALID_VERTEX;
            for &r in row.iter() {
                if dst(r) != last {
                    last = dst(r);
                    kept.push((s as VertexId, r));
                }
            }
        }
        kept
    }

    /// Builds the CSR for this edge list.
    pub fn into_csr(self) -> Csr {
        let mut b = CsrBuilder::new(self.num_vertices);
        match self.weights {
            Some(ws) => {
                for ((s, d), w) in self.edges.into_iter().zip(ws) {
                    b.add_weighted(s, d, w);
                }
            }
            None => {
                for (s, d) in self.edges {
                    b.add(s, d);
                }
            }
        }
        b.build()
    }
}

/// Incremental CSR construction from individual edges.
///
/// Collects edges then performs a counting sort by source; `O(m)` time and
/// memory, no comparison sort.
#[derive(Clone, Debug)]
pub struct CsrBuilder {
    num_vertices: u32,
    srcs: Vec<VertexId>,
    dsts: Vec<VertexId>,
    weights: Vec<u32>,
    weighted: bool,
}

impl CsrBuilder {
    /// New builder over `num_vertices` vertices.
    pub fn new(num_vertices: u32) -> Self {
        CsrBuilder {
            num_vertices,
            srcs: Vec::new(),
            dsts: Vec::new(),
            weights: Vec::new(),
            weighted: false,
        }
    }

    /// Pre-reserves space for `m` edges.
    pub fn with_capacity(num_vertices: u32, m: usize) -> Self {
        let mut b = Self::new(num_vertices);
        b.srcs.reserve(m);
        b.dsts.reserve(m);
        b
    }

    /// Adds an unweighted edge.
    pub fn add(&mut self, src: VertexId, dst: VertexId) {
        debug_assert!(src < self.num_vertices && dst < self.num_vertices);
        self.srcs.push(src);
        self.dsts.push(dst);
        if self.weighted {
            self.weights.push(0);
        }
    }

    /// Adds a weighted edge. Mixing with [`CsrBuilder::add`] gives the
    /// unweighted edges weight 0.
    pub fn add_weighted(&mut self, src: VertexId, dst: VertexId, w: u32) {
        if !self.weighted {
            self.weights = vec![0; self.srcs.len()];
            self.weighted = true;
        }
        self.srcs.push(src);
        self.dsts.push(dst);
        self.weights.push(w);
    }

    /// Finalizes into a [`Csr`] (counting sort by source; destination order
    /// within a vertex's adjacency list follows insertion order).
    pub fn build(self) -> Csr {
        let m = self.srcs.len();
        let mut targets = vec![INVALID_VERTEX; m];
        let mut weights = self.weighted.then(|| vec![0u32; m]);
        let offsets = bucket(
            self.num_vertices as usize,
            self.srcs.iter().copied().zip(0..m),
            |at, i| {
                targets[at] = self.dsts[i];
                if let Some(ws) = weights.as_mut() {
                    ws[at] = self.weights[i];
                }
            },
        );
        Csr::from_raw(offsets, targets, weights)
    }
}

/// A directed graph in compressed-sparse-row form.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    offsets: Box<[u64]>,
    targets: Box<[VertexId]>,
    weights: Option<Box<[u32]>>,
}

impl Csr {
    /// An empty graph with `n` vertices and no edges.
    pub fn empty(n: u32) -> Self {
        Csr {
            offsets: vec![0u64; n as usize + 1].into_boxed_slice(),
            targets: Box::new([]),
            weights: None,
        }
    }

    /// Assembles a graph from its arrays. A graph without edges is
    /// unweighted, whatever built it: [`CsrBuilder`] only turns weighted on
    /// its first weighted edge, and every other constructor follows it.
    pub(crate) fn from_raw(
        offsets: Vec<u64>,
        targets: Vec<VertexId>,
        weights: Option<Vec<u32>>,
    ) -> Csr {
        Csr {
            offsets: offsets.into_boxed_slice(),
            targets: targets.into_boxed_slice(),
            weights: weights
                .filter(|ws| !ws.is_empty())
                .map(Vec::into_boxed_slice),
        }
    }

    /// The same topology carrying `weights`, one per edge in CSR order.
    pub(crate) fn with_weights(&self, weights: Vec<u32>) -> Csr {
        assert_eq!(weights.len(), self.targets.len(), "one weight per edge");
        Csr::from_raw(self.offsets.to_vec(), self.targets.to_vec(), Some(weights))
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        *self.offsets.last().unwrap()
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u32 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u32
    }

    /// The out-neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.edge_window(v).0
    }

    /// The out-edge window of `v`: its targets slice plus the parallel
    /// weights slice, which is empty when the graph is unweighted. One
    /// bounds check per vertex instead of one per edge — the accessor the
    /// engine hot loops iterate.
    #[inline]
    pub fn edge_window(&self, v: VertexId) -> (&[VertexId], &[u32]) {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        match self.weights.as_deref() {
            Some(w) => (&self.targets[lo..hi], &w[lo..hi]),
            None => (&self.targets[lo..hi], &[]),
        }
    }

    /// Neighbors of `v` zipped with weights (weight 0 when unweighted).
    pub fn edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        let ws = self.weights.as_deref();
        (lo..hi).map(move |i| (self.targets[i], ws.map_or(0, |w| w[i])))
    }

    /// True when the graph carries edge weights.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Raw offsets array (length `n + 1`).
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Raw targets array (length `m`).
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Raw weights array (length `m`) if present.
    pub fn weights(&self) -> Option<&[u32]> {
        self.weights.as_deref()
    }

    /// Bytes used by the CSR arrays themselves; the quantity GPU memory
    /// accounting charges for a loaded graph partition.
    pub fn bytes(&self) -> u64 {
        self.bytes_with(true)
    }

    /// CSR bytes, optionally excluding the weight array (benchmarks that
    /// ignore weights — everything except sssp — do not load them).
    pub fn bytes_with(&self, with_weights: bool) -> u64 {
        let mut b = self.offsets.len() as u64 * 8 + self.targets.len() as u64 * 4;
        if with_weights && self.weights.is_some() {
            b += self.targets.len() as u64 * 4;
        }
        b
    }

    /// The reverse graph: edge `(u, v)` becomes `(v, u)`, weights preserved.
    ///
    /// Pull-style programs (pagerank in the paper) iterate in-edges, which
    /// the engines obtain from the transpose.
    pub fn transpose(&self) -> Csr {
        let m = self.targets.len();
        let mut targets = vec![INVALID_VERTEX; m];
        let mut weights = self.weights.as_ref().map(|_| vec![0u32; m]);
        // Edge `i` belongs to the row `u` with `offsets[u] <= i <
        // offsets[u + 1]`; `i` only climbs, so `u` does too.
        let mut u = 0usize;
        let offsets = bucket(
            self.num_vertices() as usize,
            self.targets.iter().copied().zip(0..m),
            |at, i| {
                while self.offsets[u + 1] <= i as u64 {
                    u += 1;
                }
                targets[at] = u as VertexId;
                if let (Some(tw), Some(sw)) = (weights.as_mut(), self.weights.as_ref()) {
                    tw[at] = sw[i];
                }
            },
        );
        Csr::from_raw(offsets, targets, weights)
    }

    /// The symmetric closure: row `a` is the ascending union of `a`'s out-
    /// and in-neighbours, without `a` itself and with duplicates collapsed.
    /// Undirected benchmarks (cc, kcore) run on this view, as in
    /// Galois/D-IrGL.
    ///
    /// **Weights.** Both directions of a pair `{a, b}` with `a < b` carry
    /// one weight: that of the first `a → b` edge in row `a` if there is
    /// one, else that of the first `b → a` edge in row `b`. A closure that
    /// ends up with no edges is unweighted.
    ///
    /// The closure is a transpose and one linear merge per row. A graph
    /// with a row whose targets do not ascend (generator output has none;
    /// [`CsrBuilder`] input may) is transposed back first, which sorts every
    /// row by target and keeps an earlier edge before a later equal one.
    pub fn symmetrize(&self) -> Csr {
        let n = self.num_vertices();
        let incoming = self.transpose();
        let resorted;
        let out = if (0..n).all(|u| self.neighbors(u).windows(2).all(|w| w[0] <= w[1])) {
            self
        } else {
            resorted = incoming.transpose();
            &resorted
        };
        let weighted = self.weights.is_some();
        let cap = 2 * self.targets.len();
        let mut offsets = Vec::with_capacity(n as usize + 1);
        offsets.push(0u64);
        let mut targets: Vec<VertexId> = Vec::with_capacity(cap);
        let mut weights: Vec<u32> = Vec::with_capacity(if weighted { cap } else { 0 });
        for a in 0..n {
            let (out_ts, out_ws) = out.edge_window(a);
            // In-neighbours ascend by source, an earlier edge of one source
            // before a later one.
            let (in_ts, in_ws) = incoming.edge_window(a);
            let (mut i, mut j) = (0, 0);
            while i < out_ts.len() || j < in_ts.len() {
                let b = (*out_ts.get(i).unwrap_or(&INVALID_VERTEX))
                    .min(*in_ts.get(j).unwrap_or(&INVALID_VERTEX));
                let (first_out, first_in) = (i, j);
                while out_ts.get(i) == Some(&b) {
                    i += 1;
                }
                while in_ts.get(j) == Some(&b) {
                    j += 1;
                }
                if b == a {
                    continue;
                }
                targets.push(b);
                if weighted {
                    // The lower endpoint's own edge wins when there is one.
                    let from_out = i > first_out && (a < b || j == first_in);
                    weights.push(if from_out {
                        out_ws[first_out]
                    } else {
                        in_ws[first_in]
                    });
                }
            }
            offsets.push(targets.len() as u64);
        }
        Csr::from_raw(offsets, targets, weighted.then_some(weights))
    }

    /// The vertex with the highest out-degree (ties broken by lowest id).
    ///
    /// The paper: "the vertex with the highest out-degree is used as the
    /// source vertex for bfs and sssp".
    pub fn max_out_degree_vertex(&self) -> VertexId {
        let n = self.num_vertices();
        let mut best = 0u32;
        let mut best_deg = 0u32;
        for v in 0..n {
            let d = self.out_degree(v);
            if d > best_deg {
                best_deg = d;
                best = v;
            }
        }
        best
    }

    /// Iterates all edges as `(src, dst, weight)` triples.
    pub fn iter_all_edges(&self) -> impl Iterator<Item = (VertexId, VertexId, u32)> + '_ {
        (0..self.num_vertices()).flat_map(move |u| self.edges(u).map(move |(v, w)| (u, v, w)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Csr {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut b = CsrBuilder::new(4);
        b.add(0, 1);
        b.add(0, 2);
        b.add(1, 3);
        b.add(2, 3);
        b.build()
    }

    #[test]
    fn build_and_query() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[3]);
        assert!(!g.is_weighted());
    }

    #[test]
    fn weighted_build_preserves_weights_through_sort() {
        let mut b = CsrBuilder::new(3);
        b.add_weighted(2, 0, 7);
        b.add_weighted(0, 1, 3);
        b.add_weighted(2, 1, 9);
        let g = b.build();
        assert!(g.is_weighted());
        assert_eq!(g.edges(2).collect::<Vec<_>>(), vec![(0, 7), (1, 9)]);
        assert_eq!(g.edges(0).collect::<Vec<_>>(), vec![(1, 3)]);
    }

    #[test]
    fn mixed_weighted_unweighted_adds() {
        let mut b = CsrBuilder::new(2);
        b.add(0, 1);
        b.add_weighted(1, 0, 5);
        let g = b.build();
        assert_eq!(g.edges(0).collect::<Vec<_>>(), vec![(1, 0)]);
        assert_eq!(g.edges(1).collect::<Vec<_>>(), vec![(0, 5)]);
    }

    #[test]
    fn transpose_roundtrip() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.num_edges(), 4);
        assert_eq!(t.neighbors(3), &[1, 2]);
        assert_eq!(t.neighbors(1), &[0]);
        let tt = t.transpose();
        assert_eq!(tt, g);
    }

    #[test]
    fn transpose_preserves_weights() {
        let mut b = CsrBuilder::new(3);
        b.add_weighted(0, 2, 11);
        b.add_weighted(1, 2, 13);
        let t = b.build().transpose();
        let mut edges: Vec<_> = t.edges(2).collect();
        edges.sort();
        assert_eq!(edges, vec![(0, 11), (1, 13)]);
    }

    #[test]
    fn symmetrize_adds_reverse_edges_once() {
        let g = diamond().symmetrize();
        assert_eq!(g.num_edges(), 8);
        assert_eq!(g.neighbors(3), &[1, 2]);
        assert_eq!(g.neighbors(0), &[1, 2]);
        // Symmetrizing twice is a fixpoint.
        assert_eq!(g.symmetrize(), g);
    }

    #[test]
    fn edge_list_dedup_removes_duplicates_and_loops() {
        let mut el = EdgeList::new(3);
        el.edges = vec![(0, 1), (1, 1), (0, 1), (2, 0)];
        el.weights = Some(vec![4, 5, 6, 7]);
        el.dedup();
        assert_eq!(el.edges, vec![(0, 1), (2, 0)]);
        let g = el.into_csr();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edges(0).next(), Some((1, 4)));
        assert_eq!(g.edges(2).next(), Some((0, 7)));
    }

    #[test]
    fn max_out_degree_vertex_picks_highest() {
        let g = diamond();
        assert_eq!(g.max_out_degree_vertex(), 0);
    }

    #[test]
    fn bytes_accounting() {
        let g = diamond();
        assert_eq!(g.bytes(), 5 * 8 + 4 * 4);
        let mut b = CsrBuilder::new(4);
        b.add_weighted(0, 1, 1);
        let gw = b.build();
        assert_eq!(gw.bytes(), 5 * 8 + 4 + 4);
    }

    #[test]
    fn edge_window_matches_neighbors_and_weights() {
        let g = diamond();
        let (ts, ws) = g.edge_window(0);
        assert_eq!(ts, &[1, 2]);
        assert!(ws.is_empty());
        let mut b = CsrBuilder::new(3);
        b.add_weighted(0, 1, 3);
        b.add_weighted(0, 2, 9);
        let gw = b.build();
        let (ts, ws) = gw.edge_window(0);
        assert_eq!(ts, &[1, 2]);
        assert_eq!(ws, &[3, 9]);
        assert!(gw.edge_window(2).0.is_empty());
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.out_degree(4), 0);
        assert_eq!(g.max_out_degree_vertex(), 0);
    }

    #[test]
    fn symmetrize_takes_the_weight_of_the_lower_endpoints_first_edge() {
        let mut b = CsrBuilder::new(4);
        b.add_weighted(2, 1, 7); // {1, 2}: row 1 has its own edge below, which wins
        b.add_weighted(1, 2, 3);
        b.add_weighted(1, 2, 4); // a later duplicate loses to the first
        b.add_weighted(3, 0, 9); // {0, 3}: only the upper endpoint has an edge
        b.add_weighted(3, 0, 8);
        b.add_weighted(2, 2, 5); // a self-loop vanishes
        let s = b.build().symmetrize();
        assert_eq!(s.edges(0).collect::<Vec<_>>(), vec![(3, 9)]);
        assert_eq!(s.edges(1).collect::<Vec<_>>(), vec![(2, 3)]);
        assert_eq!(s.edges(2).collect::<Vec<_>>(), vec![(1, 3)]);
        assert_eq!(s.edges(3).collect::<Vec<_>>(), vec![(0, 9)]);
        // Nothing but self-loops: the closure has no edges and no weights.
        let mut b = CsrBuilder::new(2);
        b.add_weighted(1, 1, 6);
        assert_eq!(b.build().symmetrize(), Csr::empty(2));
    }

    /// The closure as it was first written, kept as the reference: every
    /// edge and its reverse into one list, the first of each `(src, dst)`
    /// kept, found by a comparison sort over all `2·|E|` records.
    fn symmetrize_by_sorting(g: &Csr) -> Csr {
        let mut el = EdgeList::new(g.num_vertices());
        el.weights = g.is_weighted().then(Vec::new);
        for (u, v, w) in g.iter_all_edges() {
            el.edges.extend([(u, v), (v, u)]);
            if let Some(ws) = el.weights.as_mut() {
                ws.extend([w, w]);
            }
        }
        dedup_by_sorting(&mut el);
        el.into_csr()
    }

    /// `EdgeList::dedup` as it was first written: one comparison sort over
    /// `(src, dst, index)`, the lowest index of each `(src, dst)` kept.
    fn dedup_by_sorting(el: &mut EdgeList) {
        let mut keyed: Vec<((VertexId, VertexId), usize)> = el
            .edges
            .iter()
            .copied()
            .zip(0..)
            .filter(|((s, d), _)| s != d)
            .collect();
        keyed.sort_unstable();
        keyed.dedup_by_key(|(e, _)| *e);
        el.edges = keyed.iter().map(|&(e, _)| e).collect();
        if let Some(ws) = el.weights.take() {
            el.weights = Some(keyed.iter().map(|&(_, i)| ws[i]).collect());
        }
    }

    use proptest::prelude::*;

    /// A random multigraph: duplicate edges, self-loops and rows in no
    /// order are all likely. Half the lists carry weights, drawn per edge,
    /// so the two directions of a pair disagree.
    fn arb_edge_list() -> impl Strategy<Value = EdgeList> {
        (1u32..24)
            .prop_flat_map(|n| {
                let edges = prop::collection::vec(((0..n, 0..n), 1u32..100), 0..160);
                (Just(n), edges, any::<bool>())
            })
            .prop_map(|(n, edges, weighted)| EdgeList {
                num_vertices: n,
                edges: edges.iter().map(|&(e, _)| e).collect(),
                weights: weighted.then(|| edges.iter().map(|&(_, w)| w).collect()),
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn symmetrize_matches_the_sort_based_closure(el in arb_edge_list()) {
            let g = el.clone().into_csr();
            let s = g.symmetrize();
            prop_assert_eq!(&s, &symmetrize_by_sorting(&g));
            prop_assert_eq!(&s.symmetrize(), &s);
            // Generator-shaped input (rows ascending, no duplicates) takes
            // the path that does not re-sort.
            let mut el = el;
            el.dedup();
            let g = el.into_csr();
            prop_assert_eq!(g.symmetrize(), symmetrize_by_sorting(&g));
        }

        #[test]
        fn dedup_matches_sort_and_dedup_by_key(el in arb_edge_list()) {
            let (mut have, mut want) = (el.clone(), el);
            have.dedup();
            dedup_by_sorting(&mut want);
            prop_assert_eq!(have.edges, want.edges);
            prop_assert_eq!(have.weights, want.weights);
        }
    }
}

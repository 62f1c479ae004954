//! Streaming edge ingest: bounded-memory external sort and the
//! [`EdgeSource`] abstraction the chunked partition builder consumes.
//!
//! The in-memory pipeline is `generator → EdgeList::dedup → into_csr`:
//! materialize every raw edge, sort, dedup. [`EdgeSpill`] replaces the
//! materialization with an external sort: raw edges accumulate in a
//! `--chunk-edges`-bounded buffer; each full buffer is sorted, deduped and
//! flushed to a spill file as one run; [`SortedEdges`] then k-way-merges the
//! runs with cross-run dedup. Because the generators emit *unweighted*
//! edges, `EdgeList::dedup`'s output is exactly the ascending unique
//! `(src, dst)` sequence with self-loops dropped — which is also exactly
//! what the merge yields, so the streaming path is bit-identical to the
//! in-memory one by construction (pinned by the tests below).
//!
//! Weights are drawn *inline* during the merge with the same RNG sequence
//! `randomize_weights` uses (per-edge in CSR order), so the streamed
//! [`CompressedCsr`] carries the identical weights without ever holding a
//! raw CSR.

use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::compressed::{CompressedCsr, CompressedCsrBuilder};
use crate::csr::Csr;

/// One adjacency source the ingest path can stream, whatever its
/// representation. Implementations must yield the identical `(src, dst,
/// weight)` sequence on every call (CSR row order; weight 0 when
/// unweighted) — the chunked partition builder makes two passes.
pub trait EdgeSource {
    fn num_vertices(&self) -> u32;
    fn is_weighted(&self) -> bool;
    fn for_each_edge(&self, f: &mut dyn FnMut(u32, u32, u32));
}

impl EdgeSource for Csr {
    fn num_vertices(&self) -> u32 {
        Csr::num_vertices(self)
    }

    fn is_weighted(&self) -> bool {
        Csr::is_weighted(self)
    }

    fn for_each_edge(&self, f: &mut dyn FnMut(u32, u32, u32)) {
        for u in 0..Csr::num_vertices(self) {
            for (v, w) in self.edges(u) {
                f(u, v, w);
            }
        }
    }
}

impl EdgeSource for CompressedCsr {
    fn num_vertices(&self) -> u32 {
        CompressedCsr::num_vertices(self)
    }

    fn is_weighted(&self) -> bool {
        CompressedCsr::is_weighted(self)
    }

    fn for_each_edge(&self, f: &mut dyn FnMut(u32, u32, u32)) {
        CompressedCsr::for_each_edge(self, f)
    }
}

/// Process-unique spill file names (no wall-clock involved, so spill file
/// naming stays deterministic-friendly).
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A process-unique temp-file path for spill data, usable by any crate that
/// streams through bounded disk (the chunked partition builder routes
/// per-device edges through these).
pub fn spill_file_path(tag: &str) -> PathBuf {
    let id = SPILL_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dirgl-spill-{}-{tag}-{id}.bin", std::process::id()))
}

#[inline]
fn pack(u: u32, v: u32) -> u64 {
    (u64::from(u) << 32) | u64::from(v)
}

/// Bounded-memory accumulator for raw generator edges. Holds at most
/// `chunk_edges` packed edges; overflow is sorted, deduped and flushed to a
/// spill-file run.
pub struct EdgeSpill {
    num_vertices: u32,
    chunk_edges: usize,
    buf: Vec<u64>,
    runs: Vec<Run>,
}

/// One sorted spill-file run and the number of 8-byte records written to
/// it, so a reader can tell a run that lost its tail from one that ended.
struct Run {
    path: PathBuf,
    records: u64,
}

impl EdgeSpill {
    /// Default chunk budget: 8M edges ≈ 64 MB of spill buffer.
    pub const DEFAULT_CHUNK_EDGES: usize = 8 << 20;

    pub fn new(num_vertices: u32, chunk_edges: usize) -> Self {
        let chunk_edges = chunk_edges.max(1024);
        EdgeSpill {
            num_vertices,
            chunk_edges,
            buf: Vec::with_capacity(chunk_edges),
            runs: Vec::new(),
        }
    }

    /// Adds one raw edge; self-loops are dropped (matching
    /// `EdgeList::dedup`).
    #[inline]
    pub fn push(&mut self, u: u32, v: u32) {
        if u == v {
            return;
        }
        self.buf.push(pack(u, v));
        if self.buf.len() >= self.chunk_edges {
            self.flush_run();
        }
    }

    fn flush_run(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.buf.sort_unstable();
        self.buf.dedup();
        let path = spill_file_path("run");
        let file = File::create(&path).expect("create edge spill run");
        let mut w = BufWriter::new(file);
        for &e in &self.buf {
            w.write_all(&e.to_le_bytes()).expect("write edge spill run");
        }
        w.flush().expect("flush edge spill run");
        self.runs.push(Run {
            path,
            records: self.buf.len() as u64,
        });
        self.buf.clear();
    }

    /// Seals the spill into a mergeable sorted-unique edge sequence. If
    /// everything fit in one chunk no file was ever written and the merge
    /// runs straight from memory.
    pub fn finish(mut self) -> SortedEdges {
        if self.runs.is_empty() {
            let mut buf = std::mem::take(&mut self.buf);
            buf.sort_unstable();
            buf.dedup();
            return SortedEdges {
                num_vertices: self.num_vertices,
                mem: buf,
                runs: Vec::new(),
            };
        }
        self.flush_run();
        SortedEdges {
            num_vertices: self.num_vertices,
            mem: Vec::new(),
            runs: std::mem::take(&mut self.runs),
        }
    }
}

impl Drop for EdgeSpill {
    fn drop(&mut self) {
        for run in &self.runs {
            let _ = std::fs::remove_file(&run.path);
        }
    }
}

/// Sorted unique `(src, dst)` pairs, either in memory (single chunk) or as
/// spill-file runs merged on the fly. Each [`SortedEdges::for_each`] call
/// replays the identical ascending sequence.
pub struct SortedEdges {
    num_vertices: u32,
    mem: Vec<u64>,
    runs: Vec<Run>,
}

struct RunReader<'a> {
    run: &'a Run,
    r: BufReader<File>,
    read: u64,
    next: Option<u64>,
}

impl<'a> RunReader<'a> {
    fn open(run: &'a Run) -> Self {
        let mut rr = RunReader {
            run,
            r: BufReader::new(File::open(&run.path).expect("open edge spill run")),
            read: 0,
            next: None,
        };
        rr.advance();
        rr
    }

    /// Reads the next record, or ends the run after the last one written.
    /// A run that ends early, or mid-record, panics: merging it would
    /// silently drop edges.
    fn advance(&mut self) {
        if self.read == self.run.records {
            self.next = None;
            return;
        }
        let mut b = [0u8; 8];
        if self.r.read_exact(&mut b).is_err() {
            panic!(
                "edge spill run {} holds {} whole records of the {} written",
                self.run.path.display(),
                self.read,
                self.run.records
            );
        }
        self.read += 1;
        self.next = Some(u64::from_le_bytes(b));
    }
}

impl SortedEdges {
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Streams the merged ascending unique edge sequence.
    pub fn for_each(&self, f: &mut dyn FnMut(u32, u32)) {
        if self.runs.is_empty() {
            for &e in &self.mem {
                f((e >> 32) as u32, e as u32);
            }
            return;
        }
        let mut readers: Vec<RunReader> = self.runs.iter().map(RunReader::open).collect();
        // Min-heap of (next value, reader index); runs are internally
        // sorted+unique, so global dedup only needs the last emitted key.
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, usize)>> = readers
            .iter()
            .enumerate()
            .filter_map(|(i, rr)| rr.next.map(|e| std::cmp::Reverse((e, i))))
            .collect();
        let mut last: Option<u64> = None;
        while let Some(std::cmp::Reverse((e, i))) = heap.pop() {
            if last != Some(e) {
                f((e >> 32) as u32, e as u32);
                last = Some(e);
            }
            readers[i].advance();
            if let Some(n) = readers[i].next {
                heap.push(std::cmp::Reverse((n, i)));
            }
        }
    }

    /// Number of unique edges (streams once to count).
    pub fn count(&self) -> u64 {
        let mut c = 0u64;
        self.for_each(&mut |_, _| c += 1);
        c
    }
}

impl Drop for SortedEdges {
    fn drop(&mut self) {
        for run in &self.runs {
            let _ = std::fs::remove_file(&run.path);
        }
    }
}

/// Builds a [`CompressedCsr`] from a raw edge emitter under a bounded chunk
/// budget. `weights: Some((max_weight, seed))` draws per-edge weights with
/// the identical RNG walk `randomize_weights` performs over the final CSR
/// order, so the result equals
/// `CompressedCsr::from_csr(&randomize_weights(&el.dedup().into_csr(), ..))`
/// without ever materializing the edge list or the raw CSR.
pub fn compress_via_spill(
    num_vertices: u32,
    chunk_edges: usize,
    weights: Option<(u32, u64)>,
    emit: impl FnOnce(&mut dyn FnMut(u32, u32)),
) -> CompressedCsr {
    let mut spill = EdgeSpill::new(num_vertices, chunk_edges);
    emit(&mut |u, v| spill.push(u, v));
    let sorted = spill.finish();
    let mut b = CompressedCsrBuilder::new(num_vertices, weights.is_some());
    match weights {
        Some((max_weight, seed)) => {
            assert!(max_weight >= 1);
            let mut rng = SmallRng::seed_from_u64(seed);
            sorted.for_each(&mut |u, v| b.push_edge(u, v, rng.gen_range(1..=max_weight)));
        }
        None => sorted.for_each(&mut |u, v| b.push_edge(u, v, 0)),
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::EdgeList;
    use crate::gen::rmat::RmatConfig;
    use crate::gen::webcrawl::WebCrawlConfig;
    use crate::weights::randomize_weights;

    #[test]
    fn spill_sort_matches_edge_list_dedup() {
        // Random raw edges with duplicates and self-loops, tiny chunk so
        // several spill runs are forced.
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 200u32;
        let raw: Vec<(u32, u32)> = (0..20_000)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();

        let mut el = EdgeList::new(n);
        el.edges = raw.clone();
        el.dedup();

        let mut spill = EdgeSpill::new(n, 1024);
        for &(u, v) in &raw {
            spill.push(u, v);
        }
        let sorted = spill.finish();
        let mut merged = Vec::new();
        sorted.for_each(&mut |u, v| merged.push((u, v)));
        assert_eq!(merged, el.edges);
        assert_eq!(sorted.count(), el.edges.len() as u64);
        // Replays identically.
        let mut again = Vec::new();
        sorted.for_each(&mut |u, v| again.push((u, v)));
        assert_eq!(again, merged);
    }

    #[test]
    fn streamed_rmat_equals_in_memory_path() {
        let cfg = RmatConfig::new(9, 8).seed(13);
        let plain = randomize_weights(&cfg.generate(), 100, 99);
        let streamed =
            compress_via_spill(1 << 9, 2048, Some((100, 99)), |f| cfg.for_each_raw_edge(f));
        assert_eq!(streamed.to_csr(), plain);
    }

    #[test]
    fn streamed_webcrawl_equals_in_memory_path() {
        let cfg = WebCrawlConfig::new(4_000, 40_000, 200, 200, 15).seed(77);
        let plain = randomize_weights(&cfg.generate(), 100, 5);
        let streamed =
            compress_via_spill(4_000, 4096, Some((100, 5)), |f| cfg.for_each_raw_edge(f));
        assert_eq!(streamed.to_csr(), plain);
    }

    #[test]
    fn edge_source_is_representation_agnostic() {
        let g = randomize_weights(&RmatConfig::new(7, 6).seed(4).generate(), 100, 1);
        let c = CompressedCsr::from_csr(&g);
        let mut a = Vec::new();
        let mut b = Vec::new();
        EdgeSource::for_each_edge(&g, &mut |u, v, w| a.push((u, v, w)));
        EdgeSource::for_each_edge(&c, &mut |u, v, w| b.push((u, v, w)));
        assert_eq!(a, b);
    }

    /// Spills several runs, cuts `cut` bytes off the first, and checks that
    /// `for_each` panics naming the run, the records written and the whole
    /// records found.
    fn assert_truncated_run_panics(cut: u64) {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut spill = EdgeSpill::new(200, 1024);
        for _ in 0..4_000 {
            spill.push(rng.gen_range(0..200), rng.gen_range(0..200));
        }
        let sorted = spill.finish();
        assert!(sorted.runs.len() >= 2);
        let run = &sorted.runs[0];
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&run.path)
            .unwrap();
        file.set_len(run.records * 8 - cut).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sorted.for_each(&mut |_, _| {})
        }))
        .expect_err("a short run must not merge into a smaller graph");
        let msg = err.downcast::<String>().map(|m| *m).unwrap_or_default();
        let want = format!(
            "edge spill run {} holds {} whole records of the {} written",
            run.path.display(),
            run.records - 1,
            run.records
        );
        assert_eq!(msg, want);
    }

    #[test]
    fn a_run_that_ends_mid_record_panics() {
        assert_truncated_run_panics(3);
    }

    #[test]
    fn a_run_that_lost_a_record_panics() {
        assert_truncated_run_panics(8);
    }
}

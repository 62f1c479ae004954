//! Graph serialization.
//!
//! Two formats:
//!
//! * a text edge list (`src dst [weight]` per line) for interop and small
//!   fixtures;
//! * a binary CSR dump, mirroring the paper's footnote that "in practice,
//!   graphs can be partitioned once, and in-memory representations of the
//!   partitions can be written to disk" and reloaded directly.

use std::io::{self, BufRead, BufWriter, Read, Write};

use crate::csr::{Csr, EdgeList, VertexId};

const MAGIC: &[u8; 8] = b"DIRGLCSR";

/// Writes `g` as a binary CSR stream.
pub fn write_binary<W: Write>(g: &Csr, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    w.write_all(MAGIC)?;
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&g.num_edges().to_le_bytes())?;
    w.write_all(&[g.is_weighted() as u8])?;
    for &o in g.offsets() {
        w.write_all(&o.to_le_bytes())?;
    }
    for &t in g.targets() {
        w.write_all(&t.to_le_bytes())?;
    }
    if let Some(ws) = g.weights() {
        for &x in ws {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    w.flush()
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Words read per `read_exact` in [`read_words`].
const CHUNK_WORDS: u64 = 1 << 13;

/// Reads `count` little-endian words of `N` bytes. `count` is the file's
/// word, so nothing is reserved on it: the vector grows one bounded chunk at
/// a time, as bytes arrive, and a count the stream cannot honour ends in
/// `UnexpectedEof`, not in an allocation.
fn read_words<const N: usize, T>(
    r: &mut impl Read,
    count: u64,
    word: fn([u8; N]) -> T,
) -> io::Result<Vec<T>> {
    let mut out = Vec::new();
    let mut buf = vec![0u8; N * count.min(CHUNK_WORDS) as usize];
    let mut left = count;
    while left > 0 {
        let take = left.min(CHUNK_WORDS);
        let bytes = &mut buf[..N * take as usize];
        r.read_exact(bytes)?;
        out.extend(
            bytes
                .chunks_exact(N)
                .map(|b| word(b.try_into().expect("N-byte chunk"))),
        );
        left -= take;
    }
    Ok(out)
}

/// Reads a binary CSR stream written by [`write_binary`]. The stream is not
/// trusted: a header the rest of the file does not bear out (a vertex count
/// past [`VertexId`], offsets that do not start at 0, ascend and end at the
/// edge count, a target past the vertex count) is `InvalidData`, and a file
/// that ends early is `UnexpectedEof`.
pub fn read_binary<R: Read>(mut r: R) -> io::Result<Csr> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("bad magic"));
    }
    let mut header = [0u8; 17];
    r.read_exact(&mut header)?;
    let n = u64::from_le_bytes(header[..8].try_into().expect("8 bytes"));
    let m = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let weighted = header[16] != 0;
    if VertexId::try_from(n).is_err() {
        return Err(invalid(format!("{n} vertices do not fit a vertex id")));
    }

    let offsets = read_words(&mut r, n + 1, u64::from_le_bytes)?;
    if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) || offsets[n as usize] != m {
        return Err(invalid(format!(
            "offsets do not ascend from 0 to the edge count {m}"
        )));
    }
    let targets = read_words(&mut r, m, VertexId::from_le_bytes)?;
    if let Some(t) = targets.iter().find(|&&t| u64::from(t) >= n) {
        return Err(invalid(format!("target {t} in a graph of {n} vertices")));
    }
    let weights = if weighted {
        Some(read_words(&mut r, m, u32::from_le_bytes)?)
    } else {
        None
    };
    // The arrays are already in CSR order.
    Ok(Csr::from_raw(offsets, targets, weights))
}

/// Writes `g` as a text edge list (`src dst [weight]` per line).
pub fn write_edge_list<W: Write>(g: &Csr, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    for (u, v, wt) in g.iter_all_edges() {
        if g.is_weighted() {
            writeln!(w, "{u} {v} {wt}")?;
        } else {
            writeln!(w, "{u} {v}")?;
        }
    }
    w.flush()
}

/// Parses a text edge list; `#`-prefixed lines are comments. The vertex
/// count is `max id + 1` unless `num_vertices` is given. The text is not
/// trusted: an id the vertex count cannot hold (at or past `num_vertices`,
/// or `u32::MAX` when the count is derived) and a file that mixes weighted
/// with unweighted lines are `InvalidData` naming the line.
pub fn read_edge_list<R: BufRead>(r: R, num_vertices: Option<u32>) -> io::Result<EdgeList> {
    let mut edges = Vec::new();
    let mut weights: Option<Vec<u32>> = None;
    let mut max_id = 0u32;
    // Ids stay below this, so `max_id + 1` fits when the count is derived.
    let limit = num_vertices.unwrap_or(u32::MAX);
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = lineno + 1;
        let mut it = line.split_whitespace();
        let bad = || invalid(format!("malformed edge list line {lineno}"));
        let s: u32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let d: u32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let wt = it.next().map(|tok| tok.parse::<u32>().map_err(|_| bad()));
        let wt = wt.transpose()?;
        if s.max(d) >= limit {
            return Err(invalid(format!(
                "edge list line {lineno}: vertex id {} is not below {limit}",
                s.max(d)
            )));
        }
        max_id = max_id.max(s).max(d);
        // The first edge line says whether the file is weighted.
        if edges.is_empty() {
            weights = wt.map(|_| Vec::new());
        }
        match (weights.as_mut(), wt) {
            (Some(ws), Some(wt)) => ws.push(wt),
            (None, None) => {}
            _ => {
                return Err(invalid(format!(
                    "edge list line {lineno}: weighted and unweighted lines mixed"
                )))
            }
        }
        edges.push((s, d));
    }
    let n = num_vertices.unwrap_or(if edges.is_empty() { 0 } else { max_id + 1 });
    Ok(EdgeList {
        num_vertices: n,
        edges,
        weights,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::rmat::RmatConfig;
    use crate::weights::randomize_weights;

    #[test]
    fn binary_roundtrip_unweighted() {
        let g = RmatConfig::new(8, 4).seed(1).generate();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_roundtrip_weighted() {
        let g = randomize_weights(&RmatConfig::new(7, 4).seed(2).generate(), 100, 3);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(g, read_binary(&buf[..]).unwrap());
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(read_binary(&b"NOTAGRPH########"[..]).is_err());
    }

    /// Every way a dump can lie about itself is an error of one of the two
    /// kinds, never a panic and never an allocation sized by the lie.
    #[test]
    fn binary_corrupt_headers_arrays_and_truncations_are_errors() {
        let g = randomize_weights(&RmatConfig::new(7, 4).seed(2).generate(), 100, 3);
        let (n, m) = (g.num_vertices() as usize, g.num_edges() as usize);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // magic, |V|, |E|, weighted flag, offsets, targets, weights.
        let (n_at, m_at, offsets_at) = (8, 16, 25);
        let targets_at = offsets_at + 8 * (n + 1);
        assert_eq!(buf.len(), targets_at + 2 * 4 * m);
        let offset_at = |v: usize| offsets_at + 8 * v;

        let rejected = |what: &str, bad: &[u8]| {
            let err = read_binary(bad).expect_err(what);
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ),
                "{what}: {err}"
            );
        };
        let patched = |at: usize, bytes: &[u8]| {
            let mut bad = buf.clone();
            bad[at..at + bytes.len()].copy_from_slice(bytes);
            bad
        };

        // A count the rest of the file cannot honour (the last one fits a
        // vertex id, so as |V| only the stream's end refuses it).
        for at in [n_at, m_at] {
            for count in [u64::MAX, u32::MAX as u64 + 1, 1 << 40, u32::MAX as u64] {
                rejected("an impossible count", &patched(at, &count.to_le_bytes()));
            }
        }
        // A file cut short anywhere, every field boundary included.
        for at in 0..buf.len() {
            rejected("a truncated dump", &buf[..at]);
        }
        // Offsets that do not start at 0, do not ascend, or do not end at |E|.
        rejected(
            "a first offset of 1",
            &patched(offset_at(0), &1u64.to_le_bytes()),
        );
        let v = (1..n)
            .find(|&v| g.offsets()[v] != g.offsets()[v + 1])
            .expect("a vertex with edges");
        let mut swapped = buf.clone();
        for i in 0..8 {
            swapped.swap(offset_at(v) + i, offset_at(v + 1) + i);
        }
        rejected("two swapped offsets", &swapped);
        rejected(
            "a last offset past |E|",
            &patched(offset_at(n), &(m as u64 + 1).to_le_bytes()),
        );
        // A target that names no vertex.
        rejected(
            "a target equal to |V|",
            &patched(targets_at, &(n as u32).to_le_bytes()),
        );
    }

    #[test]
    fn text_roundtrip() {
        let g = randomize_weights(&RmatConfig::new(6, 3).seed(4).generate(), 10, 5);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let el = read_edge_list(&buf[..], Some(g.num_vertices())).unwrap();
        assert_eq!(el.into_csr(), g);
    }

    #[test]
    fn text_parses_comments_and_blank_lines() {
        let text = "# a comment\n\n0 1 5\n1 2 7\n";
        let el = read_edge_list(text.as_bytes(), None).unwrap();
        assert_eq!(el.num_vertices, 3);
        assert_eq!(el.edges, vec![(0, 1), (1, 2)]);
        assert_eq!(el.weights, Some(vec![5, 7]));
    }

    #[test]
    fn text_rejects_malformed() {
        let cases = [
            ("a non-numeric id", "0 x\n", None),
            ("a lone id", "42\n", None),
            ("an id with no room for max id + 1", "0 4294967295\n", None),
            ("an id equal to the given count", "0 1\n1 3\n", Some(3)),
            ("an id past the given count", "7 0\n", Some(3)),
            ("weighted after unweighted", "0 1\n1 2 7\n", None),
            ("unweighted after weighted", "0 1 5\n1 2\n", None),
        ];
        for (what, text, n) in cases {
            let err = read_edge_list(text.as_bytes(), n).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
        // The largest id a derived count can hold, and the largest a given
        // count admits.
        let el = read_edge_list("0 4294967294\n".as_bytes(), None).unwrap();
        assert_eq!(el.num_vertices, u32::MAX);
        assert!(read_edge_list("0 2\n".as_bytes(), Some(3)).is_ok());
    }
}

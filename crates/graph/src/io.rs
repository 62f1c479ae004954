//! Graph serialization: a binary CSR dump, mirroring the paper's footnote
//! that "in practice, graphs can be partitioned once, and in-memory
//! representations of the partitions can be written to disk". Nothing
//! reads it back: the partition dump (`dirgl_partition::io`) embeds it,
//! and `tests/partition_digests.rs` hashes its bytes.

use std::io::{self, BufWriter, Write};

use crate::csr::Csr;

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

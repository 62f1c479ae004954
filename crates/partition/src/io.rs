//! Partition serialization.
//!
//! The paper's methodology note (§IV-A footnote): "graphs can be
//! partitioned once, and in-memory representations of the partitions can
//! be written to disk. Applications can then load these partitions
//! directly." This module provides exactly that: a binary dump/load of a
//! complete [`Partition`], so harnesses can skip repartitioning across
//! runs and processes.

use std::io::{self, BufWriter, Read, Write};

use dirgl_graph::io::{read_binary as read_csr, write_binary as write_csr};

use crate::builder::Partition;
use crate::links::PairLink;
use crate::local::LocalGraph;
use crate::policy::{Grid, Policy};

const MAGIC: &[u8; 8] = b"DIRGLPRT";

fn w_u32<W: Write>(w: &mut W, x: u32) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

fn r_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn w_vec_u32<W: Write>(w: &mut W, xs: &[u32]) -> io::Result<()> {
    w_u32(w, xs.len() as u32)?;
    for &x in xs {
        w_u32(w, x)?;
    }
    Ok(())
}

/// Reads a length-prefixed `u32` array. The length is the file's word, so
/// nothing is reserved on it: the buffer grows only as bytes arrive, and a
/// length the stream cannot honour is an error, not an allocation.
fn r_vec_u32<R: Read>(r: &mut R) -> io::Result<Vec<u32>> {
    let want = u64::from(r_u32(r)?) * 4;
    let mut bytes = Vec::new();
    r.take(want).read_to_end(&mut bytes)?;
    if bytes.len() as u64 != want {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("array of {want} bytes cut short at {}", bytes.len()),
        ));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte chunk")))
        .collect())
}

fn policy_tag(p: Policy) -> u32 {
    match p {
        Policy::Oec => 0,
        Policy::Iec => 1,
        Policy::Hvc => 2,
        Policy::Cvc => 3,
        Policy::Random => 4,
        Policy::MetisLike => 5,
        Policy::Xtrapulp => 6,
    }
}

fn tag_policy(t: u32) -> io::Result<Policy> {
    Ok(match t {
        0 => Policy::Oec,
        1 => Policy::Iec,
        2 => Policy::Hvc,
        3 => Policy::Cvc,
        4 => Policy::Random,
        5 => Policy::MetisLike,
        6 => Policy::Xtrapulp,
        _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "bad policy tag")),
    })
}

/// Writes a partition as a binary stream.
pub fn write_partition<W: Write>(part: &Partition, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    w.write_all(MAGIC)?;
    w_u32(&mut w, policy_tag(part.policy))?;
    w_u32(&mut w, part.num_devices)?;
    w_u32(&mut w, part.num_global_vertices)?;
    match part.grid {
        Some(g) => {
            w_u32(&mut w, 1)?;
            w_u32(&mut w, g.pr)?;
            w_u32(&mut w, g.pc)?;
        }
        None => w_u32(&mut w, 0)?,
    }
    for lg in &part.locals {
        w_u32(&mut w, lg.device)?;
        w_u32(&mut w, lg.num_masters)?;
        w_vec_u32(&mut w, &lg.l2g)?;
        w_vec_u32(&mut w, &lg.master_device)?;
        write_csr(&lg.csr, &mut w)?;
    }
    for holder in 0..part.num_devices {
        for owner in 0..part.num_devices {
            let link = part.link(holder, owner);
            w_vec_u32(&mut w, &link.mirror_side)?;
            w_vec_u32(&mut w, &link.master_side)?;
            let flags: Vec<u32> = link
                .mirror_has_out
                .iter()
                .zip(&link.mirror_has_in)
                .map(|(&o, &i)| o as u32 | (i as u32) << 1)
                .collect();
            w_vec_u32(&mut w, &flags)?;
        }
    }
    w.flush()
}

/// Reads a partition written by [`write_partition`].
pub fn read_partition<R: Read>(mut r: R) -> io::Result<Partition> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
    }
    let policy = tag_policy(r_u32(&mut r)?)?;
    let num_devices = r_u32(&mut r)?;
    let num_global_vertices = r_u32(&mut r)?;
    let grid = if r_u32(&mut r)? == 1 {
        Some(Grid {
            pr: r_u32(&mut r)?,
            pc: r_u32(&mut r)?,
        })
    } else {
        None
    };
    // `num_devices` is the file's word too: both tables grow as their
    // entries are read, and a count the stream cannot honour ends in the
    // first short read.
    let mut locals = Vec::new();
    for _ in 0..num_devices {
        let device = r_u32(&mut r)?;
        let num_masters = r_u32(&mut r)?;
        let l2g = r_vec_u32(&mut r)?;
        let master_device = r_vec_u32(&mut r)?;
        let csr = read_csr(&mut r)?;
        let in_csr = csr.transpose();
        locals.push(LocalGraph {
            device,
            num_masters,
            l2g: l2g.into_boxed_slice(),
            master_device: master_device.into_boxed_slice(),
            csr,
            in_csr,
        });
    }
    let mut links = Vec::new();
    for _ in 0..u64::from(num_devices) * u64::from(num_devices) {
        let mirror_side = r_vec_u32(&mut r)?;
        let master_side = r_vec_u32(&mut r)?;
        let flags = r_vec_u32(&mut r)?;
        if mirror_side.len() != master_side.len() || mirror_side.len() != flags.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "misaligned link",
            ));
        }
        links.push(PairLink {
            mirror_side,
            master_side,
            mirror_has_out: flags.iter().map(|&f| f & 1 != 0).collect(),
            mirror_has_in: flags.iter().map(|&f| f & 2 != 0).collect(),
        });
    }
    Partition::from_parts(
        policy,
        num_devices,
        grid,
        num_global_vertices,
        locals,
        links,
    )
    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirgl_graph::weights::randomize_weights;
    use dirgl_graph::RmatConfig;

    #[test]
    fn roundtrip_preserves_everything() {
        let g = randomize_weights(&RmatConfig::new(9, 6).seed(5).generate(), 50, 1);
        for policy in [Policy::Cvc, Policy::Iec, Policy::Hvc] {
            let part = Partition::build(&g, policy, 6, 3);
            let mut buf = Vec::new();
            write_partition(&part, &mut buf).unwrap();
            let back = read_partition(&buf[..]).unwrap();
            assert_eq!(back, part);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_partition(&b"NOTAPART"[..]).is_err());
        assert!(read_partition(&b"DIRGLPRT\xff\xff\xff\xff"[..]).is_err());
    }

    /// Walks a dump the way `read_partition` does and returns the offset of
    /// every length field of this module's own (`num_devices` and each
    /// array's length prefix) and of every field boundary, the embedded CSR
    /// dumps' included.
    fn field_map(buf: &[u8], part: &Partition) -> (Vec<usize>, Vec<usize>) {
        // (bytes, is one of this module's length fields), in file order.
        let mut fields: Vec<(usize, bool)> = Vec::new();
        let array = |len: usize| [(4, true), (4 * len, false)];
        // magic, policy, num_devices, num_global_vertices, grid flag (+ grid)
        fields.extend([(8, false), (4, false), (4, true), (4, false), (4, false)]);
        if part.grid.is_some() {
            fields.extend([(4, false), (4, false)]);
        }
        for lg in &part.locals {
            fields.extend([(4, false), (4, false)]); // device, num_masters
            fields.extend(array(lg.l2g.len()));
            fields.extend(array(lg.master_device.len()));
            let (n, m) = (lg.csr.num_vertices() as usize, lg.csr.num_edges() as usize);
            // graph::io: magic, |V|, |E|, weighted flag, offsets, targets, weights.
            fields.extend([8, 8, 8, 1, 8 * (n + 1), 4 * m].map(|bytes| (bytes, false)));
            if lg.csr.is_weighted() {
                fields.push((4 * m, false));
            }
        }
        for holder in 0..part.num_devices {
            for owner in 0..part.num_devices {
                for _ in 0..3 {
                    fields.extend(array(part.link(holder, owner).len()));
                }
            }
        }
        let (mut lengths, mut bounds) = (Vec::new(), Vec::new());
        let mut at = 0;
        for (bytes, is_length) in fields {
            if is_length {
                lengths.push(at);
            }
            at += bytes;
            bounds.push(at);
        }
        assert_eq!(at, buf.len(), "the walk and the writer disagree");
        (lengths, bounds)
    }

    #[test]
    fn corrupt_lengths_and_truncations_are_errors() {
        let g = randomize_weights(&RmatConfig::new(6, 4).seed(5).generate(), 50, 1);
        for policy in [Policy::Cvc, Policy::Oec] {
            let part = Partition::build(&g, policy, 4, 3);
            let mut buf = Vec::new();
            write_partition(&part, &mut buf).unwrap();
            let (lengths, bounds) = field_map(&buf, &part);
            assert!(lengths.len() > 3 * 16 && bounds.len() > lengths.len());
            // A length the rest of the file cannot honour.
            for &at in &lengths {
                let mut bad = buf.clone();
                bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                let err = read_partition(&bad[..]).expect_err("an impossible length was accepted");
                assert!(
                    matches!(
                        err.kind(),
                        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                    ),
                    "length field at {at}: {err}"
                );
            }
            // A file that ends at a field boundary short of its end.
            for &at in bounds.iter().filter(|&&at| at < buf.len()) {
                assert!(
                    read_partition(&buf[..at]).is_err(),
                    "a dump cut at byte {at} of {} was accepted",
                    buf.len()
                );
            }
        }
    }
}

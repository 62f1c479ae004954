//! Partition dump.
//!
//! The paper's methodology note (§IV-A footnote): "graphs can be
//! partitioned once, and in-memory representations of the partitions can
//! be written to disk." [`write_partition`] writes a complete
//! [`Partition`] as one binary stream: the policy, the grid, every
//! device's local graph and every pair link, in a fixed order. Nothing
//! reads it back; it is the canonical byte form that
//! `tests/partition_digests.rs` hashes, so a change to the partition
//! builder that moves any field of any device moves a digest.

use std::io::{self, BufWriter, Write};

use dirgl_graph::io::write_binary as write_csr;

use crate::builder::Partition;
use crate::policy::Policy;

const MAGIC: &[u8; 8] = b"DIRGLPRT";

fn w_u32<W: Write>(w: &mut W, x: u32) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

fn w_vec_u32<W: Write>(w: &mut W, xs: &[u32]) -> io::Result<()> {
    w_u32(w, xs.len() as u32)?;
    for &x in xs {
        w_u32(w, x)?;
    }
    Ok(())
}

fn policy_tag(p: Policy) -> u32 {
    match p {
        Policy::Oec => 0,
        Policy::Iec => 1,
        Policy::Hvc => 2,
        Policy::Cvc => 3,
        Policy::Random => 4,
        Policy::MetisLike => 5,
    }
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

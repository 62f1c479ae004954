//! Partition digests: every byte the ingest path produces for a fixed
//! corpus, pinned as one FNV-1a-64 hash per line in
//! `tests/partition_digests.txt`.
//!
//! `golden_digests` pins what the engines compute; this file pins what
//! they are given. A `graph/…` line hashes the binary CSR dump
//! (`graph::io::write_binary`) of a graph, a `part/…` line the bytes of
//! `partition::io::write_partition` followed by the dump of every device's
//! in-CSR (the one array of a `LocalGraph` the partition dump leaves out).
//! So a rewrite of `EdgeList::dedup`, `Csr::symmetrize`, `Csr::transpose`,
//! `randomize_weights` or the partition builder cannot move an offset, a
//! target, a weight, a local id or a link entry without a visible diff of
//! the data file.
//!
//! The corpus is {OEC, IEC, HVC, CVC, Random, MetisLike} × {4, 16} devices
//! on the weighted R-MAT scale-10 fixture of `golden_digests` and on an
//! unweighted web crawl, each directed and symmetrized; then `load_scaled`
//! of uk07, twitter50 and rmat23 at ÷64 with their symmetric closures. For
//! the five streamable policies `Partition::build_streamed` must hash to
//! the same line as `Partition::build`.
//!
//! After an *intended* change of the ingest output, regenerate the file
//! with
//!
//! ```sh
//! cargo test --test partition_digests -- --ignored regenerate
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use dirgl::graph::io::write_binary;
use dirgl::graph::weights::{randomize_weights, DEFAULT_MAX_WEIGHT};
use dirgl::partition::io::write_partition;
use dirgl::prelude::*;
use dirgl_bench::fnv1a64;

const POLICIES: [Policy; 6] = [
    Policy::Oec,
    Policy::Iec,
    Policy::Hvc,
    Policy::Cvc,
    Policy::Random,
    Policy::MetisLike,
];

fn graph_hash(g: &Csr) -> u64 {
    let mut buf = Vec::new();
    write_binary(g, &mut buf).unwrap();
    fnv1a64(buf)
}

fn partition_hash(part: &Partition) -> u64 {
    let mut buf = Vec::new();
    write_partition(part, &mut buf).unwrap();
    for lg in &part.locals {
        write_binary(&lg.in_csr, &mut buf).unwrap();
    }
    fnv1a64(buf)
}

/// Runs the whole corpus, in file order.
fn corpus() -> Vec<(String, u64)> {
    let rmat = randomize_weights(
        &RmatConfig::new(10, 8).seed(0xD5).generate(),
        DEFAULT_MAX_WEIGHT,
        0x5EED,
    );
    let crawl = WebCrawlConfig::new(4_000, 48_000, 200, 150, 150)
        .seed(0xD1A)
        .generate();
    assert!(rmat.is_weighted() && !crawl.is_weighted());
    let mut cases = Vec::new();

    for (fixture, directed) in [("rmat10w", rmat), ("crawl4k", crawl)] {
        let symmetrized = directed.symmetrize();
        for (view, g) in [("directed", &directed), ("symmetrized", &symmetrized)] {
            cases.push((format!("graph/{fixture}/{view}"), graph_hash(g)));
            for policy in POLICIES {
                for devices in [4, 16] {
                    let name = format!("part/{fixture}/{view}/{}/{devices}", policy.name());
                    let hash = partition_hash(&Partition::build(g, policy, devices, 42));
                    if policy != Policy::MetisLike {
                        let streamed = Partition::build_streamed(g, policy, devices, 42);
                        assert_eq!(
                            partition_hash(&streamed),
                            hash,
                            "{name}: the streamed build differs from the in-memory one"
                        );
                    }
                    cases.push((name, hash));
                }
            }
        }
    }

    for id in [DatasetId::Uk07, DatasetId::Twitter50, DatasetId::Rmat23] {
        let g = id.load_scaled(64).graph;
        cases.push((format!("graph/{}/64/directed", id.name()), graph_hash(&g)));
        cases.push((
            format!("graph/{}/64/symmetrized", id.name()),
            graph_hash(&g.symmetrize()),
        ));
    }
    cases
}

fn data_file() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/partition_digests.txt")
}

fn render(cases: &[(String, u64)]) -> String {
    let mut text = String::from("# case hash (FNV-1a-64; see partition_digests.rs)\n");
    for (name, h) in cases {
        writeln!(text, "{name} {h:016x}").unwrap();
    }
    text
}

#[test]
fn corpus_matches_committed_digests() {
    let text =
        std::fs::read_to_string(data_file()).expect("tests/partition_digests.txt is committed");
    let want: Vec<(String, u64)> = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let (name, hash) = l.split_once(' ').expect("`case hash` per line");
            (
                name.to_string(),
                u64::from_str_radix(hash, 16).expect("hex digest"),
            )
        })
        .collect();
    let have = corpus();
    assert_eq!(
        have.iter().map(|c| &c.0).collect::<Vec<_>>(),
        want.iter().map(|c| &c.0).collect::<Vec<_>>(),
        "the corpus and the data file list different cases"
    );
    let mut moved = String::new();
    for ((name, h), (_, w)) in have.iter().zip(&want) {
        if h != w {
            writeln!(moved, "  {name}: {h:016x}, committed {w:016x}").unwrap();
        }
    }
    assert!(moved.is_empty(), "partition digests moved:\n{moved}");
}

#[test]
#[ignore = "rewrites tests/partition_digests.txt; run only after an intended change of the ingest output"]
fn regenerate() {
    std::fs::write(data_file(), render(&corpus())).unwrap();
}

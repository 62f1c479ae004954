//! Host-parallelism determinism: the worker pool must never change results.
//!
//! Both engines are virtual-time simulations — host threads only split
//! per-device work whose merge order is fixed by device id, so every
//! observable output (the `ExecutionReport`, the gathered vertex values,
//! the JSONL trace bytes) must be byte-identical regardless of how many
//! pool threads execute it. These tests pin that contract for bfs and
//! pagerank on an R-MAT graph across all four partitioning policies,
//! under both the BSP (Var1) and BASP (Var4) drivers.

use dirgl::prelude::*;
use rayon::ThreadPoolBuilder;

/// One full run (partition build + engine + master gather + trace) under a
/// pool of `threads` workers. Returns everything an external observer can
/// see: the debug-formatted report, the raw value bits, the trace bytes.
fn run_case(
    threads: usize,
    policy: Policy,
    variant: Variant,
    bench: &'static str,
) -> (String, Vec<u64>, Vec<u8>) {
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| {
        let graph = RmatConfig::new(10, 8).seed(0xD5).generate();
        let rt = Runtime::new(Platform::bridges(8), RunConfig::new(policy, variant));
        let mut buf: Vec<u8> = Vec::new();
        let mut sink = JsonLinesSink::new(&mut buf);
        let out = match bench {
            "bfs" => rt
                .runner(&graph, &Bfs::from_max_out_degree(&graph))
                .trace(&mut sink)
                .execute()
                .unwrap(),
            "pagerank" => rt
                .runner(&graph, &PageRank::new())
                .trace(&mut sink)
                .execute()
                .unwrap(),
            other => panic!("unknown bench {other}"),
        };
        drop(sink);
        let bits = out.values.iter().map(|v| v.to_bits()).collect();
        (format!("{:?}", out.report), bits, buf)
    })
}

fn assert_thread_count_invariant(bench: &'static str) {
    for policy in [Policy::Oec, Policy::Iec, Policy::Hvc, Policy::Cvc] {
        for variant in [Variant::var1(), Variant::var4()] {
            let seq = run_case(1, policy, variant, bench);
            let par = run_case(2, policy, variant, bench);
            assert_eq!(
                seq.0,
                par.0,
                "{bench}/{}/{}: report differs between 1 and 2 threads",
                policy.name(),
                variant.label(),
            );
            assert_eq!(
                seq.1,
                par.1,
                "{bench}/{}/{}: vertex values differ between 1 and 2 threads",
                policy.name(),
                variant.label(),
            );
            assert_eq!(
                seq.2,
                par.2,
                "{bench}/{}/{}: trace JSONL differs between 1 and 2 threads",
                policy.name(),
                variant.label(),
            );
            assert!(
                !seq.2.is_empty(),
                "{bench}: trace should not be empty (vacuous comparison)"
            );
        }
    }
}

#[test]
fn bfs_identical_across_thread_counts() {
    assert_thread_count_invariant("bfs");
}

#[test]
fn pagerank_identical_across_thread_counts() {
    assert_thread_count_invariant("pagerank");
}

/// Spot check a wider pool: more workers than devices-per-chunk still
/// reproduces the single-thread bytes exactly.
#[test]
fn four_threads_match_one() {
    let seq = run_case(1, Policy::Cvc, Variant::var4(), "bfs");
    let par = run_case(4, Policy::Cvc, Variant::var4(), "bfs");
    assert_eq!(seq, par);
}

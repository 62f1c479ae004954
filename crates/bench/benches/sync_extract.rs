//! Sync-extraction microbenchmark: cost of building reduce payloads on one
//! device of an R-MAT partition as a function of frontier density.
//!
//! Three series per density (0.1%, 1%, 10%, 100% of local vertices marked
//! updated):
//!
//! - `uo_indexed` — UO extraction through the sync plan's [`ExtractIndex`]
//!   (iterates `updated ∧ members`, sparsity-proportional);
//! - `uo_dense`   — UO extraction via the dense per-entry walk (probes
//!   every link entry regardless of density; the engines take it only for
//!   a fully dirty broadcast);
//! - `as_dense`   — AS extraction (ships every entry; density-independent
//!   upper bound).
//!
//! The tentpole claim pinned here: at ≤1% density the indexed path beats
//! the dense walk by ≥5× (checked offline from the printed numbers; the
//! bench itself only measures).
//!
//! Beside the sweep, `sync_build/cvc64`: one whole [`DeviceRun::build_sync`]
//! of the reduce direction on a device of a 64-device CVC partition, with
//! nothing marked (every message is the empty one and no link is looked
//! at) and with one vertex marked (every link of the device is extracted
//! from) — what a device-round of a high-diameter run costs when idle.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use dirgl_apps::Bfs;
use dirgl_comm::{CommMode, SyncPlan};
use dirgl_core::device::{DeviceRun, SyncDir};
use dirgl_core::{InitCtx, RunConfig, Variant};
use dirgl_gpusim::Platform;
use dirgl_graph::RmatConfig;
use dirgl_partition::{Partition, Policy};

const DEVICES: u32 = 8;
const DEV: u32 = 0;

/// (label, one-in-N vertices updated).
const DENSITIES: [(&str, u32); 4] = [("0.1%", 1000), ("1%", 100), ("10%", 10), ("100%", 1)];

fn bench_extract(c: &mut Criterion) {
    let g = RmatConfig::new(18, 16).seed(0xE5).generate();
    let part = Partition::build(&g, Policy::Hvc, DEVICES, 0);
    let plan = SyncPlan::build(&part, true, true);
    let program = Bfs::from_max_out_degree(&g);
    let out_degrees: Vec<u32> = (0..g.num_vertices()).map(|v| g.out_degree(v)).collect();
    let ctx = InitCtx::new(g.num_vertices(), &out_degrees);
    let platform = Platform::bridges(DEVICES);
    let mut dev = DeviceRun::new(
        &part.locals[DEV as usize],
        platform.gpus[DEV as usize],
        &program,
        &ctx,
    );
    let n = dev.lg.num_vertices();

    let mut group = c.benchmark_group("sync_extract");
    group.sample_size(20);
    for (label, stride) in DENSITIES {
        dev.updated.clear_all();
        let mut lv = 0u32;
        while lv < n {
            dev.updated.set(lv);
            lv += stride;
        }

        // The indexed path: updated ∧ membership via the inverse index.
        group.bench_with_input(BenchmarkId::new("uo_indexed", label), &label, |b, _| {
            b.iter(|| {
                let mut acc = 0u64;
                for pn in plan.reduce_to(DEV) {
                    let (entries, index) = plan.reduce_at(pn.pair);
                    let (payload, bytes) = dev.build_reduce(
                        &program,
                        part.link(DEV, pn.other),
                        entries,
                        index,
                        CommMode::UpdatedOnly,
                        1,
                    );
                    acc += payload.len() as u64 + bytes;
                    dev.scratch.recycle(payload);
                }
                black_box(acc)
            })
        });

        // The dense walk: probe every link entry against the bitset.
        group.bench_with_input(BenchmarkId::new("uo_dense", label), &label, |b, _| {
            b.iter(|| {
                let mut acc = 0u64;
                for pn in plan.reduce_to(DEV) {
                    let (entries, _) = plan.reduce_at(pn.pair);
                    let (payload, bytes) = dev.build_reduce(
                        &program,
                        part.link(DEV, pn.other),
                        entries,
                        None,
                        CommMode::UpdatedOnly,
                        1,
                    );
                    acc += payload.len() as u64 + bytes;
                    dev.scratch.recycle(payload);
                }
                black_box(acc)
            })
        });

        // AS ships everything: the density-independent ceiling.
        group.bench_with_input(BenchmarkId::new("as_dense", label), &label, |b, _| {
            b.iter(|| {
                let mut acc = 0u64;
                for pn in plan.reduce_to(DEV) {
                    let (entries, _) = plan.reduce_at(pn.pair);
                    let (payload, bytes) = dev.build_reduce(
                        &program,
                        part.link(DEV, pn.other),
                        entries,
                        None,
                        CommMode::AllShared,
                        1,
                    );
                    acc += payload.len() as u64 + bytes;
                    dev.scratch.recycle(payload);
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_build(c: &mut Criterion) {
    const WIDE: u32 = 64;
    let g = RmatConfig::new(16, 16).seed(0xE5).generate();
    let part = Partition::build(&g, Policy::Cvc, WIDE, 0);
    let plan = SyncPlan::build(&part, true, true);
    let program = Bfs::from_max_out_degree(&g);
    let out_degrees: Vec<u32> = (0..g.num_vertices()).map(|v| g.out_degree(v)).collect();
    let ctx = InitCtx::new(g.num_vertices(), &out_degrees);
    let config = RunConfig::new(Policy::Cvc, Variant::var3());
    let mut dev = DeviceRun::new(
        &part.locals[DEV as usize],
        Platform::bridges(WIDE).gpus[DEV as usize],
        &program,
        &ctx,
    );
    // A mirror, so that the one mark is one the reduce direction reads.
    let mirror = dev.lg.num_masters;

    let mut group = c.benchmark_group("sync_build");
    group.sample_size(20);
    for (label, mark) in [("unmarked", false), ("one_marked", true)] {
        dev.updated.clear_all();
        if mark {
            dev.updated.set(mirror);
        }
        group.bench_with_input(BenchmarkId::new("cvc64", label), &label, |b, _| {
            b.iter(|| {
                let pack = dev.build_sync(&program, &[SyncDir::Reduce], &part, &plan, &config);
                let mut acc = pack.0;
                let mut built = std::mem::take(&mut dev.scratch.built);
                for msg in built.drain(..) {
                    acc += msg.bytes + msg.data.len() as u64;
                    dev.scratch.recycle(msg.data);
                }
                dev.scratch.built = built;
                black_box(acc)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_extract, bench_build);
criterion_main!(benches);

//! The messages of a direction with nothing marked.
//!
//! Under Updated-Only sync, [`DeviceRun::build_sync`] answers a direction
//! whose marked set is empty without looking at a link: every partner gets
//! the header-only message. This holds that shortcut, and the partner lists
//! it walks, against what it replaced — a probe of every other device and,
//! per non-empty link, the same extraction a marked direction runs
//! ([`DeviceRun::build_reduce`] / [`DeviceRun::build_broadcast`]), which
//! with nothing marked extracts nothing. Under All-Shared sync nothing may
//! be cut short: an unmarked direction still ships every entry.

use dirgl::core::device::{DeviceRun, SyncDir};
use dirgl::core::{InitCtx, VertexProgram};
use dirgl::graph::weights::{randomize_weights, DEFAULT_MAX_WEIGHT};
use dirgl::prelude::*;

const DEVICES: u32 = 8;
const POLICIES: [Policy; 4] = [Policy::Oec, Policy::Iec, Policy::Hvc, Policy::Cvc];

/// One built message, field for field.
type Fields<W> = (SyncDir, u32, u32, Vec<(u32, W)>, u64);

fn holds_for<P: VertexProgram>(g: &Csr, program: &P) {
    let out_degrees: Vec<u32> = (0..g.num_vertices()).map(|v| g.out_degree(v)).collect();
    let ctx = InitCtx::new(g.num_vertices(), &out_degrees);
    let platform = Platform::bridges(DEVICES);
    let mut messages = 0;
    for policy in POLICIES {
        let part = Partition::build(g, policy, DEVICES, 0);
        let plan = dirgl::comm::SyncPlan::build(&part, true, true);
        // Var1 sends All-Shared payloads, Var3 Updated-Only ones; the
        // divisor shows in every byte count.
        for variant in [Variant::var1(), Variant::var3()] {
            let config = RunConfig::new(policy, variant).scale(8);
            let (mode, divisor) = (config.variant.comm, config.scale_divisor);
            for me in 0..DEVICES {
                // A fresh device has nothing marked. Extraction takes
                // deltas out of the state, so each side gets its own.
                let fresh = || {
                    DeviceRun::new(
                        &part.locals[me as usize],
                        platform.gpus[me as usize],
                        program,
                        &ctx,
                    )
                };
                let dirs: [&[SyncDir]; 3] = [
                    &[SyncDir::Reduce],
                    &[SyncDir::Broadcast],
                    &[SyncDir::Reduce, SyncDir::Broadcast],
                ];
                for dirs in dirs {
                    let mut dev = fresh();
                    dev.build_sync(program, dirs, &part, &plan, &config);
                    let built: Vec<Fields<P::Wire>> = dev
                        .scratch
                        .built
                        .drain(..)
                        .map(|m| (m.dir, m.from, m.to, m.data, m.bytes))
                        .collect();

                    let mut dev = fresh();
                    let all_dirty = dev.lg.num_masters == 0;
                    let mut want: Vec<Fields<P::Wire>> = Vec::new();
                    for other in (0..DEVICES).filter(|&o| o != me) {
                        for &dir in dirs {
                            let (data, bytes) = match dir {
                                SyncDir::Reduce if !plan.reduce(me, other).is_empty() => dev
                                    .build_reduce(
                                        program,
                                        part.link(me, other),
                                        plan.reduce(me, other),
                                        plan.reduce_at(me * DEVICES + other).1,
                                        mode,
                                        divisor,
                                    ),
                                SyncDir::Broadcast if !plan.bcast(other, me).is_empty() => dev
                                    .build_broadcast(
                                        program,
                                        part.link(other, me),
                                        plan.bcast(other, me),
                                        plan.bcast_at(other * DEVICES + me).1,
                                        mode,
                                        divisor,
                                        all_dirty,
                                    ),
                                _ => continue,
                            };
                            want.push((dir, me, other, data, bytes));
                        }
                    }
                    assert_eq!(built, want, "{policy:?} {mode:?} device {me} {dirs:?}");
                    for (.., data, _) in &built {
                        match mode {
                            CommMode::UpdatedOnly => assert_eq!(data.capacity(), 0),
                            CommMode::AllShared => assert!(!data.is_empty()),
                        }
                    }
                    messages += built.len();
                }
            }
        }
    }
    assert!(messages > 0, "premise broken: no device has a partner");
}

#[test]
fn unmarked_directions_send_what_the_extraction_would() {
    let g = RmatConfig::new(9, 8).seed(0x5A).generate();
    let g = randomize_weights(&g, DEFAULT_MAX_WEIGHT, 0x5EED);
    let src = Runtime::max_out_degree_source(&g).unwrap();
    let sources = [src, 1, g.num_vertices() / 2];
    holds_for(&g, &Bfs::new(src));
    // K=3 lanes in both encodings: bfs's lane-mask words and the generic
    // value-lane adapter, whose wire size depends on the lanes in flight.
    holds_for(&g, &Bfs::new(src).batched::<8>(&sources));
    holds_for(&g, &Sssp::new(src).batched::<8>(&sources));
}

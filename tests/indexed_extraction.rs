//! Updated-Only extraction through a link's `ExtractIndex` against the
//! dense walk.
//!
//! [`DeviceRun::build_reduce`] and [`DeviceRun::build_broadcast`] take an
//! optional inverse index. With one they visit `marked ∧ members` word by
//! word; without one they walk the link's entries and test each mark. Which
//! of the two [`DeviceRun::build_sync`] takes is a cost choice only: the
//! payload, the wire bytes and the state left behind must be the same.
//! This holds that on real partitions for random marked sets, for links
//! whose participants sit in interior words of the device's bitsets, and
//! for a fully dirty broadcast, and holds `build_sync` itself to the dense
//! walk, link by link. It also counts the probes of both paths, so the
//! index's advantage on sparse marks is a number the test asserts. CVC is
//! the benchmark's policy; under it every entry of a link takes part or
//! none does. HVC adds links with entries that do not take part, some of
//! them in words below the first participant's.

use dirgl::comm::{ExtractIndex, SyncPlan};
use dirgl::core::device::{DeviceRun, SyncDir};
use dirgl::core::{InitCtx, MinState};
use dirgl::graph::weights::{randomize_weights, DEFAULT_MAX_WEIGHT};
use dirgl::prelude::*;

const DEVICES: u32 = 8;
const POLICIES: [Policy; 2] = [Policy::Cvc, Policy::Hvc];
const DIRS: [SyncDir; 2] = [SyncDir::Reduce, SyncDir::Broadcast];

/// Marked shares swept: sparse, about half (the hardest case for a
/// data-dependent test), near-dense and full.
const DENSITIES: [f64; 4] = [0.02, 0.5, 0.95, 1.0];

/// One built message, field for field.
type Fields = (SyncDir, u32, u32, Vec<(u32, u32)>, u64);

/// splitmix64: a fixed stream per seed, no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}

/// The index a link's build is given: the plan's (`indexed`) or none. The
/// builder lays both sides of a link out ascending, so every link of a
/// real partition has one to give.
fn pick(idx: Option<&ExtractIndex>, indexed: bool) -> Option<&ExtractIndex> {
    assert!(idx.is_some(), "a link of a real partition has no index");
    idx.filter(|_| indexed)
}

struct Fixture {
    part: Partition,
    plan: SyncPlan,
    program: Sssp,
    out_degrees: Vec<u32>,
    platform: Platform,
    config: RunConfig,
}

impl Fixture {
    fn new(policy: Policy) -> Fixture {
        let g = RmatConfig::new(12, 8).seed(0x1DE).generate();
        let g = randomize_weights(&g, DEFAULT_MAX_WEIGHT, 0x5EED);
        let part = Partition::build(&g, policy, DEVICES, 0);
        let plan = SyncPlan::build(&part, true, true);
        let program = Sssp::new(Runtime::max_out_degree_source(&g).unwrap());
        let out_degrees = (0..g.num_vertices()).map(|v| g.out_degree(v)).collect();
        Fixture {
            part,
            plan,
            program,
            out_degrees,
            platform: Platform::bridges(DEVICES),
            // Var3: Updated-Only payloads.
            config: RunConfig::new(policy, Variant::var3()).scale(8),
        }
    }

    /// Device `me` with seeded states and marks: each local vertex is in
    /// `updated` with probability `density`, each master in `bcast_dirty`
    /// likewise (the broadcast set only ever holds masters), or every
    /// master when `all_dirty`. Two calls with the same arguments give the
    /// same device, so extraction can run on one and the dense walk on the
    /// other.
    fn device(&self, me: u32, seed: u64, density: f64, all_dirty: bool) -> DeviceRun<'_, Sssp> {
        let ctx = InitCtx::new(self.out_degrees.len() as u32, &self.out_degrees);
        let mut dev = DeviceRun::new(
            &self.part.locals[me as usize],
            self.platform.gpus[me as usize],
            &self.program,
            &ctx,
        );
        let mut rng = Rng(seed ^ (u64::from(me) << 32));
        for lv in 0..dev.lg.num_vertices() {
            dev.state[lv as usize] = MinState {
                label: (rng.next() % 1000) as u32,
                acc: (rng.next() % 1000) as u32,
            };
            if rng.chance(density) {
                dev.updated.set(lv);
            }
            if lv < dev.lg.num_masters && (all_dirty || rng.chance(density)) {
                dev.bcast_dirty.set(lv);
            }
        }
        dev
    }

    /// The message `dev` sends `other` in `dir`, built through the plan's
    /// index (`indexed`) or through the dense walk.
    fn build(
        &self,
        dev: &mut DeviceRun<'_, Sssp>,
        dir: SyncDir,
        other: u32,
        indexed: bool,
    ) -> (Vec<(u32, u32)>, u64) {
        let me = dev.dev;
        let (mode, divisor) = (self.config.variant.comm, self.config.scale_divisor);
        match dir {
            SyncDir::Reduce => {
                let (entries, idx) = self.plan.reduce_at(me * DEVICES + other);
                let idx = pick(idx, indexed);
                dev.build_reduce(
                    &self.program,
                    self.part.link(me, other),
                    entries,
                    idx,
                    mode,
                    divisor,
                )
            }
            SyncDir::Broadcast => {
                let (entries, idx) = self.plan.bcast_at(other * DEVICES + me);
                let idx = pick(idx, indexed);
                let all_dirty = dev.bcast_dirty.count_ones() == dev.lg.num_masters;
                let link = self.part.link(other, me);
                dev.build_broadcast(&self.program, link, entries, idx, mode, divisor, all_dirty)
            }
        }
    }

    /// The partners `me` sends to in `dir`.
    fn partners(&self, me: u32, dir: SyncDir) -> Vec<u32> {
        let list = match dir {
            SyncDir::Reduce => self.plan.reduce_to(me),
            SyncDir::Broadcast => self.plan.bcast_to(me),
        };
        list.iter().map(|pn| pn.other).collect()
    }

    /// `me`'s side of its `dir` link to `other`, and the link's participant
    /// entries in that direction.
    fn side(&self, me: u32, dir: SyncDir, other: u32) -> (&[u32], &[u32]) {
        match dir {
            SyncDir::Reduce => (
                &self.part.link(me, other).mirror_side,
                self.plan.reduce(me, other),
            ),
            SyncDir::Broadcast => (
                &self.part.link(other, me).master_side,
                self.plan.bcast(other, me),
            ),
        }
    }

    /// Where `me`'s `dir` link to `other` sits in the device's bitset
    /// words: whether its participants leave a word free at both ends
    /// (interior), whether the link has entries in a word before the first
    /// participant's (so the entry numbers there do not start at 0), and
    /// how many words the participants span (what the index walks).
    fn placement(&self, me: u32, dir: SyncDir, other: u32) -> (bool, bool, u32) {
        let (side, entries) = self.side(me, dir, other);
        let words = || entries.iter().map(|&e| side[e as usize] / 64);
        let (lo, hi) = (words().min().unwrap(), words().max().unwrap());
        let last = self.part.locals[me as usize].num_vertices().div_ceil(64) - 1;
        (lo > 0 && hi < last, side[0] / 64 < lo, hi - lo + 1)
    }
}

#[test]
fn indexed_extraction_equals_the_dense_walk() {
    let (mut checked, mut interior, mut entries_below) = (0, 0, 0);
    for policy in POLICIES {
        let fx = Fixture::new(policy);
        // Probes per density and direction: the dense walk tests every
        // participant entry; the index walks the participants' span in
        // bitset words and then touches the entries the payload carries.
        let mut probes = [[(0u64, 0u64); DIRS.len()]; DENSITIES.len()];
        for me in 0..DEVICES {
            for (k, density) in DENSITIES.into_iter().enumerate() {
                let seed = 0xACE0 + k as u64;
                let mut indexed = fx.device(me, seed, density, false);
                let mut dense = fx.device(me, seed, density, false);
                for (d, dir) in DIRS.into_iter().enumerate() {
                    for other in fx.partners(me, dir) {
                        let got = fx.build(&mut indexed, dir, other, true);
                        let want = fx.build(&mut dense, dir, other, false);
                        let at = format!("{policy:?} device {me} {dir:?} to {other} at {density}");
                        assert_eq!(got, want, "{at}");
                        let (inside, below, span) = fx.placement(me, dir, other);
                        interior += inside as u32;
                        entries_below += below as u32;
                        checked += 1;
                        let p = &mut probes[k][d];
                        p.0 += fx.side(me, dir, other).1.len() as u64;
                        p.1 += u64::from(span) + got.0.len() as u64;
                    }
                }
                // Extraction takes the reduce deltas out of the state: both
                // paths take the same ones.
                assert_eq!(indexed.state, dense.state, "{policy:?} device {me}");
            }
        }
        // What the index buys: at 2 % marked it probes ≥ 5× less than the
        // dense walk in both directions (CVC 25.7× reduce and 19.3×
        // broadcast, HVC 12.0× and 7.7×). With everything marked it probes
        // more (0.90–0.98×), which is why `build_sync` gives a fully dirty
        // broadcast the dense walk.
        for (d, dir) in DIRS.into_iter().enumerate() {
            let ratio = |k: usize| probes[k][d].0 as f64 / probes[k][d].1 as f64;
            let (sparse, full) = (ratio(0), ratio(DENSITIES.len() - 1));
            assert!(sparse >= 5.0, "{policy:?} {dir:?}: {sparse:.2}x at 2 %");
            assert!(full < 1.0, "{policy:?} {dir:?}: {full:.2}x at 100 %");
        }
    }
    assert!(checked > 0, "premise broken: no device has a partner");
    assert!(interior > 0, "premise broken: no link in interior words");
    assert!(
        entries_below > 0,
        "premise broken: no link with entries below its participants"
    );
}

#[test]
fn all_dirty_broadcast_takes_every_participant() {
    let mut checked = 0;
    for policy in POLICIES {
        let fx = Fixture::new(policy);
        let (mode, divisor) = (fx.config.variant.comm, fx.config.scale_divisor);
        for me in 0..DEVICES {
            // Indexed, the known-length fast path, and the tested walk.
            let mut indexed = fx.device(me, 0xD1, 0.3, true);
            let mut fast = fx.device(me, 0xD1, 0.3, true);
            let mut walked = fx.device(me, 0xD1, 0.3, true);
            for other in fx.partners(me, SyncDir::Broadcast) {
                let got = fx.build(&mut indexed, SyncDir::Broadcast, other, true);
                let want = fx.build(&mut fast, SyncDir::Broadcast, other, false);
                let (entries, _) = fx.plan.bcast_at(other * DEVICES + me);
                let link = fx.part.link(other, me);
                let tested =
                    walked.build_broadcast(&fx.program, link, entries, None, mode, divisor, false);
                assert_eq!(got, want, "{policy:?} device {me} to {other}");
                assert_eq!(tested, want, "{policy:?} device {me} to {other}");
                assert_eq!(got.0.len(), entries.len());
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "premise broken: no broadcast link");
}

#[test]
fn build_sync_equals_the_dense_walk_per_link() {
    let mut messages = 0;
    for policy in POLICIES {
        let fx = Fixture::new(policy);
        for me in 0..DEVICES {
            for (k, density) in DENSITIES.into_iter().enumerate() {
                for all_dirty in [false, true] {
                    let seed = 0xB5 + k as u64;
                    let mut dev = fx.device(me, seed, density, all_dirty);
                    dev.build_sync(&fx.program, &DIRS, &fx.part, &fx.plan, &fx.config);
                    let built: Vec<Fields> = dev
                        .scratch
                        .built
                        .drain(..)
                        .map(|m| (m.dir, m.from, m.to, m.data, m.bytes))
                        .collect();

                    let mut dense = fx.device(me, seed, density, all_dirty);
                    let mut want: Vec<Fields> = Vec::new();
                    for other in (0..DEVICES).filter(|&o| o != me) {
                        for dir in DIRS {
                            if fx.partners(me, dir).contains(&other) {
                                let (data, bytes) = fx.build(&mut dense, dir, other, false);
                                want.push((dir, me, other, data, bytes));
                            }
                        }
                    }
                    let at = format!("{policy:?} device {me} at {density}, all dirty {all_dirty}");
                    assert_eq!(built, want, "{at}");
                    assert_eq!(dev.state, dense.state, "{at}");
                    messages += built.len();
                }
            }
        }
    }
    assert!(messages > 0, "premise broken: no device has a partner");
}

//! Property-based tests (proptest) on the core data structures and
//! invariants, with randomly generated graphs.

use proptest::prelude::*;

use dirgl::comm::{as_message_bytes, uo_message_bytes, DenseBitset, SimTime, VAL_BYTES};
use dirgl::graph::csr::EdgeList;
use dirgl::graph::weights::randomize_weights;
use dirgl::prelude::*;

/// Strategy: a random small digraph as (n, edges).
fn arb_graph() -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (8u32..120).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n, 0..n), 1..400);
        (Just(n), edges)
    })
}

fn build(n: u32, edges: &[(u32, u32)]) -> Csr {
    let mut el = EdgeList::new(n);
    el.edges = edges.to_vec();
    el.dedup();
    el.into_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR transpose is an involution and preserves the edge multiset.
    #[test]
    fn transpose_involution((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let tt = g.transpose().transpose();
        prop_assert_eq!(&g, &tt);
        prop_assert_eq!(g.num_edges(), g.transpose().num_edges());
    }

    /// Symmetrize is idempotent and dominates the original edge set.
    #[test]
    fn symmetrize_idempotent((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let s = g.symmetrize();
        prop_assert_eq!(&s, &s.symmetrize());
        for u in 0..n {
            for &v in g.neighbors(u) {
                if u != v {
                    prop_assert!(s.neighbors(u).contains(&v));
                    prop_assert!(s.neighbors(v).contains(&u));
                }
            }
        }
    }

    /// Every partition policy covers each edge exactly once and gives each
    /// vertex exactly one master, and every policy with a degree-histogram
    /// form (all but `MetisLike`) builds the same partition streamed.
    #[test]
    fn partition_covers_edges(
        (n, edges) in arb_graph(),
        policy in prop::sample::select(vec![
            Policy::Oec, Policy::Iec, Policy::Hvc, Policy::Cvc,
            Policy::Random, Policy::MetisLike,
        ]),
        devices in 1u32..9,
    ) {
        let g = build(n, &edges);
        let part = Partition::build(&g, policy, devices, 7);
        prop_assert_eq!(part.total_edges(), g.num_edges());
        let mut masters = vec![0u32; n as usize];
        for lg in &part.locals {
            for lv in 0..lg.num_masters {
                masters[lg.l2g[lv as usize] as usize] += 1;
            }
        }
        prop_assert!(masters.iter().all(|&m| m == 1));
        prop_assert!(part.replication_factor() >= 1.0 - 1e-12);
        if policy != Policy::MetisLike {
            prop_assert_eq!(&Partition::build_streamed(&g, policy, devices, 7), &part);
        }
    }

    /// Distributed BFS equals sequential BFS on arbitrary graphs, any
    /// policy, both execution models.
    #[test]
    fn distributed_bfs_is_correct(
        (n, edges) in arb_graph(),
        policy in prop::sample::select(vec![Policy::Iec, Policy::Cvc, Policy::MetisLike]),
        sync in any::<bool>(),
        devices in 1u32..7,
    ) {
        let g = build(n, &edges);
        prop_assume!(g.num_edges() > 0);
        let app = Bfs::from_max_out_degree(&g);
        let variant = if sync { Variant::var3() } else { Variant::var4() };
        let rt = Runtime::new(Platform::bridges(devices), RunConfig::new(policy, variant));
        let out = rt.runner(&g, &app).execute().unwrap();
        let want = reference::bfs(&g, app.source);
        for (v, (got, w)) in out.values.iter().zip(&want).enumerate() {
            prop_assert!(*got == *w as f64, "vertex {v}: {got} vs {w}");
        }
    }

    /// BSP (Var3) and BASP (Var4) converge to identical outputs for bfs,
    /// cc and sssp on random weighted R-MAT graphs across all four paper
    /// partition policies — asynchrony may reorder and redo work but must
    /// never change the fixed point.
    #[test]
    fn bsp_and_basp_agree_on_rmat(
        scale in 7u32..9,
        seed in 0u64..1_000,
        policy in prop::sample::select(vec![
            Policy::Oec, Policy::Iec, Policy::Hvc, Policy::Cvc,
        ]),
        devices in 2u32..6,
    ) {
        let g = randomize_weights(
            &RmatConfig::new(scale, 8).seed(seed).generate(),
            60,
            seed,
        );
        let run = |variant: Variant| -> [Vec<f64>; 3] {
            let rt = Runtime::new(
                Platform::bridges(devices),
                RunConfig::new(policy, variant),
            );
            let bfs = rt.runner(&g, &Bfs::from_max_out_degree(&g)).execute().unwrap().values;
            let cc = rt.runner(&g, &Cc).execute().unwrap().values;
            let sssp = rt.runner(&g, &Sssp::from_max_out_degree(&g)).execute().unwrap().values;
            [bfs, cc, sssp]
        };
        let bsp = run(Variant::var3());
        let basp = run(Variant::var4());
        for (name, (sync, async_)) in
            ["bfs", "cc", "sssp"].iter().zip(bsp.iter().zip(basp.iter()))
        {
            prop_assert_eq!(
                sync, async_,
                "{} diverged under {:?} on {} devices", name, policy, devices
            );
        }
    }

    /// Bitset: set/get/count agree with a model Vec<bool>.
    #[test]
    fn bitset_matches_model(ops in prop::collection::vec((0u32..500, any::<bool>()), 1..200)) {
        let mut bs = DenseBitset::new(500);
        let mut model = vec![false; 500];
        for (i, set) in ops {
            if set { bs.set(i); model[i as usize] = true; }
            else { bs.clear(i); model[i as usize] = false; }
        }
        prop_assert_eq!(bs.count_ones() as usize, model.iter().filter(|&&b| b).count());
        let got: Vec<u32> = bs.iter_set().collect();
        let want: Vec<u32> =
            (0..500u32).filter(|&i| model[i as usize]).collect();
        prop_assert_eq!(got, want);
    }

    /// Message sizing: UO is monotone in updates and meets AS at full
    /// density plus the bitset header.
    #[test]
    fn message_sizes_are_consistent(entries in 1u64..100_000, updated in 0u64..100_000) {
        let updated = updated.min(entries);
        let uo = uo_message_bytes(entries, updated, VAL_BYTES);
        let uo_full = uo_message_bytes(entries, entries, VAL_BYTES);
        let as_ = as_message_bytes(entries, VAL_BYTES);
        prop_assert!(uo <= uo_full);
        prop_assert_eq!(uo_full, as_ + entries.div_ceil(64) * 8);
    }

    /// SimTime conversion roundtrips to nanosecond precision.
    #[test]
    fn simtime_roundtrip(ns in 0u64..u64::MAX / 4) {
        let t = SimTime(ns);
        let t2 = SimTime::from_secs_f64(t.as_secs_f64());
        // f64 has 53 bits of mantissa; below ~2^53 ns the roundtrip is
        // exact, above it within 1 part per 2^52.
        let err = t2.0.abs_diff(ns);
        prop_assert!(err <= 1 + (ns >> 50), "{ns} -> {}", t2.0);
    }

    /// Each lane of a K-batched run is byte-identical to the corresponding
    /// scalar single-source run: values, source labeling and summary, for
    /// bfs and sssp, K ∈ {1, 2, 3, 4, 5, 8, 9, 16, 17, 63, 64} (both edges
    /// of both lane-width classes, and more), across the four paper
    /// policies and both engines (`Backend::Scalar` runs the K serial
    /// one-source jobs; `Backend::Lanes` packs them into one
    /// bit-matrix-frontier pass). A batch of one source is the scalar run
    /// itself, reports included.
    #[test]
    fn batched_lanes_match_scalar_runs(
        seed in 0u64..1_000,
        policy in prop::sample::select(vec![
            Policy::Oec, Policy::Iec, Policy::Hvc, Policy::Cvc,
        ]),
        sync in any::<bool>(),
        k in prop::sample::select(vec![1u32, 2, 3, 4, 5, 8, 9, 16, 17, 63, 64]),
        use_sssp in any::<bool>(),
        devices in 2u32..6,
    ) {
        let g = randomize_weights(
            &RmatConfig::new(7, 8).seed(seed).generate(),
            60,
            seed,
        );
        let n = g.num_vertices();
        // An odd step is coprime with the power-of-two vertex count, so
        // the K sources are distinct and K stays on its class edge.
        let step = (n / (k + 1)) | 1;
        let mut sources: Vec<u32> = (0..k)
            .map(|i| (g.max_out_degree_vertex() + i * step) % n)
            .collect();
        sources.sort_unstable();
        sources.dedup();
        prop_assert_eq!(sources.len(), k as usize);
        let variant = if sync { Variant::var3() } else { Variant::var4() };
        let rt = Runtime::new(Platform::bridges(devices), RunConfig::new(policy, variant));

        fn check<P: MultiSourceProgram>(
            rt: &Runtime,
            g: &Csr,
            base: &P,
            sources: &[u32],
        ) -> Result<(), TestCaseError>
        where
            P::Wire: Default,
        {
            let lanes = rt
                .runner(g, base)
                .backend(Backend::Lanes)
                .batch(sources)
                .execute()
                .unwrap();
            let scalar = rt.runner(g, base).batch(sources).execute().unwrap();
            prop_assert_eq!(lanes.lanes.len(), sources.len());
            prop_assert_eq!(scalar.lanes.len(), sources.len());
            if sources.len() == 1 {
                prop_assert_eq!(
                    format!("{:?}", lanes.engine_reports),
                    format!("{:?}", scalar.engine_reports)
                );
            }
            for (l, s) in lanes.lanes.iter().zip(&scalar.lanes) {
                prop_assert_eq!(l.source, s.source);
                prop_assert_eq!(&l.summary, &s.summary);
                for (v, (a, b)) in l.values.iter().zip(&s.values).enumerate() {
                    prop_assert!(
                        a.to_bits() == b.to_bits(),
                        "source {} vertex {v}: lanes {a} vs scalar {b}",
                        l.source
                    );
                }
            }
            Ok(())
        }

        if use_sssp {
            check(&rt, &g, &Sssp::new(sources[0]), &sources)?;
        } else {
            check(&rt, &g, &Bfs::new(sources[0]), &sources)?;
        }
    }

    /// The CVC grid always factorizes correctly and its invariants hold on
    /// random graphs.
    #[test]
    fn cvc_grid_invariants((n, edges) in arb_graph(), devices in 2u32..17) {
        let g = build(n, &edges);
        let part = Partition::build(&g, Policy::Cvc, devices, 0);
        let grid = part.grid.unwrap();
        prop_assert_eq!(grid.num_devices(), devices);
        for lg in &part.locals {
            for lv in lg.num_masters..lg.num_vertices() {
                let owner = lg.master_device[lv as usize];
                if lg.has_out_edges(lv) {
                    prop_assert_eq!(grid.row(lg.device), grid.row(owner));
                }
                if lg.has_in_edges(lv) {
                    prop_assert_eq!(grid.col(lg.device), grid.col(owner));
                }
            }
        }
    }
}

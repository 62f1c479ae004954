//! Betweenness centrality (single source, unweighted) — an extension
//! beyond the paper's five benchmarks; it is part of the D-IrGL/Gluon
//! application suite the paper's framework comes from.
//!
//! Brandes' algorithm in two distributed phases:
//!
//! 1. **Forward** ([`BcForward`], data-driven push, BSP level-synchronous):
//!    computes each vertex's BFS level and shortest-path count σ. Path
//!    counting requires level alignment — a vertex's σ is final only once
//!    every same-level parent has pushed — so this phase is synchronous
//!    only (the runtime falls back to BSP automatically).
//! 2. **Backward** ([`BcBackward`], round-gated topology-driven push on the
//!    *transposed* graph): dependencies δ flow from the deepest level
//!    upwards, one level per global round; a vertex at level `L` pushes
//!    `(1 + δ) / σ` to its predecessors in round `Lmax - L`, and each
//!    predecessor folds `σ_pred × Σ` into its own δ.
//!
//! [`betweenness_centrality`] drives both phases, carrying `(level, σ)`
//! across via the runtime's auxiliary-data channel, and verifies against
//! [`reference_bc`] in the tests.

use std::sync::atomic::{AtomicU32, Ordering};

use dirgl_core::{
    at_width_class, AtWidth, InitCtx, Lanes, MultiSourceProgram, PreparedPartition, RunError,
    Runtime, Style, VertexProgram, LANE_WIDTH,
};
use dirgl_graph::csr::{Csr, VertexId};

use crate::UNREACHED;

/// Forward-phase proxy state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BcFwdState {
    /// BFS level.
    pub dist: u32,
    /// Shortest-path count from the source.
    pub sigma: f32,
    /// Best candidate level received.
    pub acc_dist: u32,
    /// Path count accumulated at `acc_dist`.
    pub acc_sigma: f32,
}

/// Forward phase: levels + path counts.
#[derive(Clone, Copy, Debug)]
pub struct BcForward {
    /// Source vertex.
    pub source: VertexId,
}

impl VertexProgram for BcForward {
    type State = BcFwdState;
    /// `(candidate level, path count)`.
    type Wire = (u32, f32);

    fn name(&self) -> &'static str {
        "bc-forward"
    }

    fn style(&self) -> Style {
        Style::PushDataDriven
    }

    fn supports_async(&self) -> bool {
        false // sigma counting requires level-aligned rounds
    }

    fn init_state(&self, gv: VertexId, _ctx: &InitCtx<'_>) -> BcFwdState {
        if gv == self.source {
            BcFwdState {
                dist: 0,
                sigma: 1.0,
                acc_dist: UNREACHED,
                acc_sigma: 0.0,
            }
        } else {
            BcFwdState {
                dist: UNREACHED,
                sigma: 0.0,
                acc_dist: UNREACHED,
                acc_sigma: 0.0,
            }
        }
    }

    fn initially_active(&self, gv: VertexId, _ctx: &InitCtx<'_>) -> bool {
        gv == self.source
    }

    fn edge_msg(&self, state: &BcFwdState, _w: u32) -> Option<(u32, f32)> {
        (state.dist != UNREACHED && state.sigma > 0.0).then(|| (state.dist + 1, state.sigma))
    }

    fn accumulate(&self, state: &mut BcFwdState, (d, s): (u32, f32)) -> bool {
        if d >= state.dist {
            return false; // already settled at a level <= candidate
        }
        match d.cmp(&state.acc_dist) {
            std::cmp::Ordering::Less => {
                state.acc_dist = d;
                state.acc_sigma = s;
                true
            }
            std::cmp::Ordering::Equal => {
                state.acc_sigma += s;
                true
            }
            std::cmp::Ordering::Greater => false,
        }
    }

    fn absorb(&self, state: &mut BcFwdState) -> bool {
        if state.acc_dist < state.dist {
            state.dist = state.acc_dist;
            state.sigma = state.acc_sigma;
            state.acc_dist = UNREACHED;
            state.acc_sigma = 0.0;
            true
        } else {
            false
        }
    }

    fn take_delta(&self, state: &mut BcFwdState) -> (u32, f32) {
        let d = (state.acc_dist, state.acc_sigma);
        state.acc_dist = UNREACHED;
        state.acc_sigma = 0.0;
        d
    }

    fn canonical(&self, state: &BcFwdState) -> (u32, f32) {
        (state.dist, state.sigma)
    }

    fn set_canonical(&self, state: &mut BcFwdState, (d, s): (u32, f32)) -> bool {
        if d < state.dist || (d == state.dist && s != state.sigma) {
            state.dist = d;
            state.sigma = s;
            true
        } else {
            false
        }
    }

    fn output(&self, state: &BcFwdState) -> f64 {
        state.dist as f64
    }
}

/// The forward phase depends only on its source, so it batches
/// lane-for-lane — even its non-idempotent σ tie-adds stay bit-identical
/// per lane, because each lane's accumulate call sequence in a batched
/// round is exactly the scalar run's sequence.
impl MultiSourceProgram for BcForward {
    type Batched<const N: usize> = Lanes<BcForward, N>;

    fn for_source(&self, source: VertexId) -> BcForward {
        BcForward { source }
    }

    fn batched<const N: usize>(&self, sources: &[VertexId]) -> Lanes<BcForward, N> {
        Lanes::new(self, sources)
    }
}

/// Backward-phase proxy state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BcBwdState {
    /// Level from the forward phase.
    pub level: u32,
    /// σ from the forward phase.
    pub sigma: f32,
    /// Accumulated dependency δ.
    pub delta: f32,
    /// Incoming `(1 + δ_child) / σ_child` sum.
    pub acc: f32,
}

/// Backward phase: round-gated dependency accumulation on the transpose.
pub struct BcBackward {
    /// Deepest level reached by the forward phase.
    pub max_level: u32,
    /// Level that pushes in the current round (set by `on_round_start`).
    target: AtomicU32,
}

impl BcBackward {
    /// Backward sweep from `max_level` down to 1.
    pub fn new(max_level: u32) -> BcBackward {
        BcBackward {
            max_level,
            target: AtomicU32::new(max_level),
        }
    }
}

impl VertexProgram for BcBackward {
    type State = BcBwdState;
    /// `(pusher's level, (1 + δ) / σ)` — receivers accept only child
    /// contributions (level == own level + 1).
    type Wire = (u32, f32);

    fn name(&self) -> &'static str {
        "bc-backward"
    }

    fn style(&self) -> Style {
        Style::PushTopologyDriven
    }

    fn on_round_start(&self, round: u32) {
        self.target
            .store(self.max_level.saturating_sub(round), Ordering::Relaxed);
    }

    fn init_state(&self, gv: VertexId, ctx: &InitCtx<'_>) -> BcBwdState {
        // aux word: level in the high 32 bits, σ bits in the low 32.
        let aux = ctx.aux.expect("BcBackward needs forward-phase aux data")[gv as usize];
        BcBwdState {
            level: (aux >> 32) as u32,
            sigma: f32::from_bits(aux as u32),
            delta: 0.0,
            acc: 0.0,
        }
    }

    fn initially_active(&self, _gv: VertexId, _ctx: &InitCtx<'_>) -> bool {
        true // topology-driven: ignored
    }

    fn begin_push(&self, state: &mut BcBwdState) -> bool {
        state.level != UNREACHED
            && state.level == self.target.load(Ordering::Relaxed)
            && state.sigma > 0.0
    }

    fn edge_msg(&self, state: &BcBwdState, _w: u32) -> Option<(u32, f32)> {
        Some((state.level, (1.0 + state.delta) / state.sigma))
    }

    fn accumulate(&self, state: &mut BcBwdState, (lvl, c): (u32, f32)) -> bool {
        // Only true BFS-tree children (one level deeper) contribute.
        if state.level != UNREACHED && lvl == state.level + 1 && c != 0.0 {
            state.acc += c;
            true
        } else {
            false
        }
    }

    fn absorb(&self, state: &mut BcBwdState) -> bool {
        if state.acc != 0.0 {
            state.delta += state.sigma * state.acc;
            state.acc = 0.0;
            true
        } else {
            false
        }
    }

    fn take_delta(&self, state: &mut BcBwdState) -> (u32, f32) {
        // Mirror partial sums ship as pseudo-child contributions tagged
        // with `level + 1` so the master's accumulate accepts them.
        let d = (state.level.saturating_add(1), state.acc);
        state.acc = 0.0;
        d
    }

    fn canonical(&self, state: &BcBwdState) -> (u32, f32) {
        (state.level, state.delta)
    }

    fn set_canonical(&self, state: &mut BcBwdState, (lvl, delta): (u32, f32)) -> bool {
        debug_assert_eq!(lvl, state.level);
        if state.delta != delta {
            state.delta = delta;
            true
        } else {
            false
        }
    }

    fn max_rounds(&self) -> u32 {
        self.max_level.max(1)
    }

    fn output(&self, state: &BcBwdState) -> f64 {
        state.delta as f64
    }
}

/// Result of a betweenness-centrality computation.
pub struct BcOutput {
    /// Dependency score δ per vertex (the source scores 0).
    pub scores: Vec<f64>,
    /// Forward-phase report.
    pub forward: dirgl_core::ExecutionReport,
    /// Backward-phase report.
    pub backward: dirgl_core::ExecutionReport,
}

/// Runs single-source betweenness centrality: forward on `g`, backward on
/// the transpose, both under `runtime`'s configuration (the phases run
/// bulk-synchronously regardless of the variant, as bc cannot run
/// asynchronously).
pub fn betweenness_centrality(
    runtime: &Runtime,
    g: &Csr,
    source: VertexId,
) -> Result<BcOutput, RunError> {
    // One-shot path: prepare both phase views here, then run the shared
    // driver. A resident service prepares them once and calls
    // [`betweenness_centrality_prepared`] directly.
    let fwd = runtime.prepare(g, false)?;
    let bwd = runtime.prepare(&g.transpose(), false)?;
    betweenness_centrality_prepared(runtime, &fwd, &bwd, source)
}

/// [`betweenness_centrality`] against resident prepared views: `fwd` is
/// the graph itself, `bwd` its transpose (both unsymmetrized). The
/// partition/plan build cost is the caller's, paid once and amortized over
/// any number of sources — the service shape.
pub fn betweenness_centrality_prepared(
    runtime: &Runtime,
    fwd: &PreparedPartition,
    bwd: &PreparedPartition,
    source: VertexId,
) -> Result<BcOutput, RunError> {
    // Forward: levels and path counts.
    let (fwd_out, fwd_states) = runtime
        .job(fwd, &BcForward { source })
        .execute_with_states()?;
    let (max_level, aux) = backward_inputs(fwd_states.iter());

    // Backward: dependency sweep on the transpose.
    let (bwd_out, bwd_states) = runtime
        .job(bwd, &BcBackward::new(max_level))
        .aux(&aux)
        .execute_with_states()?;
    Ok(BcOutput {
        scores: scores(bwd_states.iter(), source),
        forward: fwd_out.report,
        backward: bwd_out.report,
    })
}

/// [`betweenness_centrality_prepared`] for a batch of sources: per
/// ≤64-source chunk, **one** forward engine run and **one** backward
/// engine run advance every source, with K-lane batched phases at the
/// chunk's width class ([`at_width_class`]); a chunk of one source is
/// exactly the single-source driver. Each lane's scores are identical to
/// the corresponding single-source driver's (the
/// short-lane rounds a longer lane forces are rejected by the child-level
/// accumulate guard, so they never touch values). The per-chunk phase
/// reports are shared: every output in a chunk carries the same
/// forward/backward report.
pub fn batched_betweenness_centrality_prepared(
    runtime: &Runtime,
    fwd: &PreparedPartition,
    bwd: &PreparedPartition,
    sources: &[VertexId],
) -> Result<Vec<BcOutput>, RunError> {
    let mut outs = Vec::with_capacity(sources.len());
    for chunk in sources.chunks(LANE_WIDTH) {
        if let [source] = *chunk {
            outs.push(betweenness_centrality_prepared(runtime, fwd, bwd, source)?);
            continue;
        }
        let lanes = BatchedBc {
            runtime,
            fwd,
            bwd,
            sources: chunk,
        };
        outs.extend(at_width_class(chunk.len(), lanes)?);
    }
    Ok(outs)
}

/// One chunk of [`batched_betweenness_centrality_prepared`]: both phases
/// of every lane at one width class.
struct BatchedBc<'a> {
    runtime: &'a Runtime,
    fwd: &'a PreparedPartition,
    bwd: &'a PreparedPartition,
    sources: &'a [VertexId],
}

impl AtWidth for BatchedBc<'_> {
    type Output = Result<Vec<BcOutput>, RunError>;

    fn at<const N: usize>(self) -> Self::Output {
        let BatchedBc {
            runtime,
            fwd,
            bwd,
            sources,
        } = self;
        // Forward: one batched run computes every lane's levels and σ.
        let fwd_prog = BcForward { source: sources[0] }.batched::<N>(sources);
        let (fwd_out, fwd_states) = runtime.job(fwd, &fwd_prog).execute_with_states()?;

        // Backward: each lane gets its own round gate (its forward max
        // level) and its own aux words (its forward levels and σ).
        let (levels, lane_aux): (Vec<u32>, Vec<Vec<u64>>) = (0..sources.len())
            .map(|l| backward_inputs(fwd_states.iter().map(|s| &s.lane[l])))
            .unzip();
        let mut bwd_prog =
            Lanes::<_, N>::from_programs(levels.into_iter().map(BcBackward::new).collect());
        for (l, aux) in lane_aux.into_iter().enumerate() {
            bwd_prog.set_lane_aux(l, aux);
        }
        let (bwd_out, bwd_states) = runtime.job(bwd, &bwd_prog).execute_with_states()?;

        Ok(sources
            .iter()
            .enumerate()
            .map(|(l, &src)| BcOutput {
                scores: scores(bwd_states.iter().map(|s| &s.lane[l]), src),
                forward: fwd_out.report.clone(),
                backward: bwd_out.report.clone(),
            })
            .collect())
    }
}

/// The per-device footprints of the forward and backward launches
/// [`betweenness_centrality_prepared`] makes for `source`, costed by the
/// engine's own load check ([`Runtime::footprint`]).
pub fn betweenness_centrality_footprint(
    runtime: &Runtime,
    fwd: &PreparedPartition,
    bwd: &PreparedPartition,
    source: VertexId,
) -> [Vec<u64>; 2] {
    // The backward round gate does not change what the launch costs.
    [
        runtime.footprint(fwd, &BcForward { source }),
        runtime.footprint(bwd, &BcBackward::new(0)),
    ]
}

/// The backward phase's inputs from one source's forward states: the
/// deepest reached level (its round gate) and the per-vertex aux words
/// packing each vertex's level and σ.
fn backward_inputs<'a>(states: impl Iterator<Item = &'a BcFwdState>) -> (u32, Vec<u64>) {
    let mut max_level = 0;
    let aux = states
        .map(|s| {
            if s.dist != UNREACHED {
                max_level = max_level.max(s.dist);
            }
            ((s.dist as u64) << 32) | s.sigma.to_bits() as u64
        })
        .collect();
    (max_level, aux)
}

/// One source's dependency scores from its backward states.
fn scores<'a>(states: impl Iterator<Item = &'a BcBwdState>, source: VertexId) -> Vec<f64> {
    let mut scores: Vec<f64> = states.map(|s| s.delta as f64).collect();
    // Brandes excludes the source from its own dependency accumulation.
    scores[source as usize] = 0.0;
    scores
}

/// Sequential Brandes reference (single source, unweighted).
pub fn reference_bc(g: &Csr, source: VertexId) -> Vec<f64> {
    let n = g.num_vertices() as usize;
    let mut dist = vec![UNREACHED; n];
    let mut sigma = vec![0.0f64; n];
    let mut order: Vec<u32> = Vec::new();
    dist[source as usize] = 0;
    sigma[source as usize] = 1.0;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHED {
                dist[v as usize] = dist[u as usize] + 1;
                queue.push_back(v);
            }
            if dist[v as usize] == dist[u as usize] + 1 {
                sigma[v as usize] += sigma[u as usize];
            }
        }
    }
    let mut delta = vec![0.0f64; n];
    for &w in order.iter().rev() {
        for &v in g.neighbors(w) {
            if dist[v as usize] == dist[w as usize] + 1 && sigma[v as usize] > 0.0 {
                delta[w as usize] +=
                    sigma[w as usize] / sigma[v as usize] * (1.0 + delta[v as usize]);
            }
        }
    }
    delta[source as usize] = 0.0;
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirgl_core::{RunConfig, Variant};
    use dirgl_gpusim::Platform;
    use dirgl_partition::Policy;

    #[test]
    fn reference_on_a_diamond() {
        // 0 -> {1,2} -> 3: two shortest paths through 1 and 2.
        let mut b = dirgl_graph::csr::CsrBuilder::new(4);
        b.add(0, 1);
        b.add(0, 2);
        b.add(1, 3);
        b.add(2, 3);
        let g = b.build();
        let bc = reference_bc(&g, 0);
        assert_eq!(bc[0], 0.0);
        assert!((bc[1] - 0.5).abs() < 1e-12);
        assert!((bc[2] - 0.5).abs() < 1e-12);
        assert_eq!(bc[3], 0.0);
    }

    #[test]
    fn distributed_bc_matches_brandes() {
        let g = dirgl_graph::RmatConfig::new(8, 6).seed(11).generate();
        let src = g.max_out_degree_vertex();
        let want = reference_bc(&g, src);
        for policy in [Policy::Oec, Policy::Iec, Policy::Cvc] {
            for variant in [Variant::var3(), Variant::var4()] {
                let rt = Runtime::new(Platform::bridges(4), RunConfig::new(policy, variant));
                let out = betweenness_centrality(&rt, &g, src).unwrap();
                for (v, (got, w)) in out.scores.iter().zip(&want).enumerate() {
                    assert!(
                        (got - w).abs() < 1e-3 * (1.0 + w.abs()),
                        "{policy}/{}: vertex {v}: {got} vs {w}",
                        variant.label()
                    );
                }
            }
        }
    }

    #[test]
    fn batched_bc_lanes_match_single_source_runs() {
        let g = dirgl_graph::RmatConfig::new(8, 6).seed(17).generate();
        let n = g.num_vertices();
        let rt = Runtime::new(
            Platform::bridges(4),
            RunConfig::new(Policy::Cvc, Variant::var4()),
        );
        let fwd = rt.prepare(&g, false).unwrap();
        let bwd = rt.prepare(&g.transpose(), false).unwrap();
        // K = 4, 5, 8, 9 and 17: both edges of the 8-lane class and wider
        // batches in the 64-lane class. An odd step keeps the sources
        // distinct on the power-of-two vertex count.
        for k in [4u32, 5, 8, 9, 17] {
            let step = (n / (k + 1)) | 1;
            let sources: Vec<u32> = (0..k)
                .map(|i| (g.max_out_degree_vertex() + i * step) % n)
                .collect();
            let batched =
                batched_betweenness_centrality_prepared(&rt, &fwd, &bwd, &sources).unwrap();
            assert_eq!(batched.len(), sources.len());
            for (l, &src) in sources.iter().enumerate() {
                let solo = betweenness_centrality_prepared(&rt, &fwd, &bwd, src).unwrap();
                let same = batched[l]
                    .scores
                    .iter()
                    .zip(&solo.scores)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(
                    same,
                    "K={k}: lane {l} (source {src}) diverged from its solo run"
                );
            }
        }
        // A batch of one source is the single-source driver, reports
        // included.
        let source = g.max_out_degree_vertex();
        let solo = betweenness_centrality_prepared(&rt, &fwd, &bwd, source).unwrap();
        let one = batched_betweenness_centrality_prepared(&rt, &fwd, &bwd, &[source]).unwrap();
        assert_eq!(
            format!("{:?}", one[0].forward),
            format!("{:?}", solo.forward)
        );
        assert_eq!(
            format!("{:?}", one[0].backward),
            format!("{:?}", solo.backward)
        );
    }

    #[test]
    fn backward_gating_by_round() {
        let b = BcBackward::new(5);
        b.on_round_start(0);
        let mut deep = BcBwdState {
            level: 5,
            sigma: 2.0,
            delta: 0.0,
            acc: 0.0,
        };
        let mut shallow = BcBwdState {
            level: 3,
            sigma: 1.0,
            delta: 0.0,
            acc: 0.0,
        };
        assert!(b.begin_push(&mut deep));
        assert!(!b.begin_push(&mut shallow));
        b.on_round_start(2);
        assert!(b.begin_push(&mut shallow));
    }

    #[test]
    fn forward_counts_paths() {
        let f = BcForward { source: 0 };
        let mut s = BcFwdState {
            dist: UNREACHED,
            sigma: 0.0,
            acc_dist: UNREACHED,
            acc_sigma: 0.0,
        };
        assert!(f.accumulate(&mut s, (2, 1.0)));
        assert!(f.accumulate(&mut s, (2, 3.0)));
        assert!(!f.accumulate(&mut s, (3, 1.0))); // worse level ignored
        assert!(f.accumulate(&mut s, (1, 2.0))); // better level replaces
        assert!(f.absorb(&mut s));
        assert_eq!(s.dist, 1);
        assert_eq!(s.sigma, 2.0);
    }
}

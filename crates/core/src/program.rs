//! The vertex-program abstraction the engine executes.
//!
//! Modelled on D-IrGL's operator formulation (§II-A): operators are applied
//! to active vertices and read/update labels in the vertex's immediate
//! neighborhood. Push-style programs read the **source** of an edge and
//! write the **destination**; the pull-style program (pagerank) also reads
//! sources (of in-edges) and writes the destination — so proxy
//! synchronization is always *reduce written destinations, broadcast read
//! sources*, with the per-policy elisions handled by
//! [`dirgl_comm::SyncPlan`].
//!
//! ## Engine contract (one round)
//!
//! 1. **compute** — one edge operator, [`VertexProgram::edge_msg`], in the
//!    direction the [`Style`] picks. A push round runs
//!    [`VertexProgram::begin_push`] on each active vertex and sends its
//!    `edge_msg` along local out-edges. A pull round has every vertex fold
//!    each in-neighbor's `edge_msg` over its local in-edges. A bottom-up
//!    round has every vertex whose own `edge_msg(state, 0)` is `None` scan
//!    its in-edges up to the first neighbor that sends. All deliveries go
//!    through [`VertexProgram::accumulate`] into the *local* proxy, never
//!    across devices.
//! 2. **reduce** — each written mirror's [`VertexProgram::take_delta`] is
//!    combined into its master with `accumulate`.
//! 3. **absorb** — masters fold their accumulator into canonical state
//!    exactly once per round; a `true` return re-activates the vertex.
//! 4. **broadcast** — updated masters' [`VertexProgram::canonical`] value
//!    is installed on mirrors with [`VertexProgram::set_canonical`]; a
//!    `true` return activates the mirror.

use dirgl_graph::csr::VertexId;

/// Traversal style (§III-E1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Style {
    /// Data-driven push: a worklist of active vertices pushes along
    /// out-edges (bfs, cc, kcore, sssp in D-IrGL).
    PushDataDriven,
    /// Topology-driven pull: every vertex pulls over in-edges every round
    /// (pagerank in D-IrGL — "residual based algorithm").
    PullTopologyDriven,
    /// Data-driven with per-round direction switching: push from the
    /// frontier while it is small, bottom-up while it is large. Only
    /// Gunrock uses this in the paper ("direction-optimizing traversal for
    /// bfs"). The BSP driver decides the direction globally per round: a
    /// round goes bottom-up when the global frontier exceeds
    /// [`PULL_THRESHOLD`] of the vertices, and then the vertices that scan
    /// are those whose own [`VertexProgram::edge_msg`] is `None` (bfs: the
    /// unreached ones). BASP rounds always push.
    HybridPushPull,
    /// Topology-driven push: every vertex runs [`VertexProgram::begin_push`]
    /// every round; the program gates who actually pushes (betweenness
    /// centrality's level-ordered backward sweep). Runs for exactly
    /// [`VertexProgram::max_rounds`] rounds, bulk-synchronously only — the
    /// runtime silently falls back to BSP under Var4, matching the paper's
    /// "D-IrGL ... uses BASP by default *if the benchmark can be run
    /// asynchronously*".
    PushTopologyDriven,
}

/// Frontier fraction above which a [`Style::HybridPushPull`] round goes
/// bottom-up (Beamer et al.'s alpha test, as Gunrock's bfs applies it).
pub const PULL_THRESHOLD: f64 = 0.05;

/// Global, device-independent facts available at initialization.
pub struct InitCtx<'a> {
    /// |V| of the (possibly symmetrized) global graph.
    pub num_vertices: u32,
    /// Global out-degree of every vertex (== degree on symmetric inputs).
    pub out_degrees: &'a [u32],
    /// Optional per-vertex auxiliary words carried from an earlier phase
    /// (multi-phase drivers like betweenness centrality pass the forward
    /// phase's results to the backward phase here).
    pub aux: Option<&'a [u64]>,
}

impl<'a> InitCtx<'a> {
    /// Context without auxiliary data.
    pub fn new(num_vertices: u32, out_degrees: &'a [u32]) -> InitCtx<'a> {
        InitCtx {
            num_vertices,
            out_degrees,
            aux: None,
        }
    }
}

/// A distributed graph-analytics benchmark.
///
/// `State` is the full per-proxy label (including any message accumulator);
/// `Wire` is the 4-byte value proxies exchange. All proxies of a vertex are
/// initialized identically from [`VertexProgram::init_state`], so no
/// initial broadcast is required.
pub trait VertexProgram: Sync {
    /// Per-proxy state.
    type State: Copy + Send + Sync + PartialEq;
    /// Value exchanged between proxies (and along edges).
    type Wire: Copy + Send + Sync + PartialEq + std::fmt::Debug;

    /// Benchmark name as the paper prints it (`bfs`, `cc`, ...).
    fn name(&self) -> &'static str;

    /// Traversal style.
    fn style(&self) -> Style;

    /// True for benchmarks defined on the undirected view (cc, kcore); the
    /// runtime symmetrizes the input first, as Galois/D-IrGL do.
    fn needs_symmetric(&self) -> bool {
        false
    }

    /// True when the program reads edge weights (sssp only); unweighted
    /// programs do not load the weight arrays onto the device.
    fn uses_weights(&self) -> bool {
        false
    }

    /// Initial state of (every proxy of) global vertex `gv`.
    fn init_state(&self, gv: VertexId, ctx: &InitCtx<'_>) -> Self::State;

    /// Whether `gv` starts on the worklist (data-driven styles only).
    fn initially_active(&self, gv: VertexId, ctx: &InitCtx<'_>) -> bool;

    /// Called once when an active vertex is processed, before its edges are
    /// visited; may mutate state (kcore flips `alive` here). Returns whether
    /// the vertex pushes this round.
    fn begin_push(&self, state: &mut Self::State) -> bool {
        let _ = state;
        true
    }

    /// The value a vertex in `state` sends over an edge of weight
    /// `weight`, or `None` when it sends nothing: the one edge operator of
    /// every direction (see the module doc).
    ///
    /// Must be a pure function of `(state, weight)` for the duration of
    /// one compute phase: the engine evaluates it once per active source
    /// on unweighted traversals and reuses the message along every
    /// out-edge. A pull round reads it from in-neighbors while it
    /// accumulates into other vertices, so it must also depend only on
    /// fields [`VertexProgram::accumulate`] never writes.
    fn edge_msg(&self, state: &Self::State, weight: u32) -> Option<Self::Wire>;

    /// Folds an incoming value into the proxy's accumulator. Returns true
    /// if the accumulator changed (the proxy counts as *updated*).
    fn accumulate(&self, state: &mut Self::State, msg: Self::Wire) -> bool;

    /// Master-only: folds the accumulator into canonical state, exactly
    /// once per round, after all local and reduced values are in. Returns
    /// true if canonical state changed (the vertex re-activates).
    fn absorb(&self, state: &mut Self::State) -> bool;

    /// Mirror-only: extracts the accumulated delta for the reduce message,
    /// resetting the accumulator to the reduction identity.
    fn take_delta(&self, state: &mut Self::State) -> Self::Wire;

    /// Master-only: the canonical value broadcast to mirrors.
    fn canonical(&self, state: &Self::State) -> Self::Wire;

    /// Mirror-only: installs a broadcast canonical value. Returns true if
    /// the mirror's view changed (activates the mirror).
    fn set_canonical(&self, state: &mut Self::State, v: Self::Wire) -> bool;

    /// Mirror-only, asynchronous engines: merges a broadcast value when
    /// rounds are not globally aligned. Defaults to [`Self::set_canonical`]
    /// (correct for idempotent min/monotone programs); mass-conserving
    /// programs (pagerank) override this with an additive merge paired with
    /// [`Self::consume_after_pull`].
    fn merge_canonical_async(&self, state: &mut Self::State, v: Self::Wire) -> bool {
        self.set_canonical(state, v)
    }

    /// Mirror-only, asynchronous pull engines: called on every mirror after
    /// a local pull round so that values read this round are not re-read by
    /// the next local round (residual consumption). Default: no-op.
    fn consume_after_pull(&self, state: &mut Self::State) {
        let _ = state;
    }

    /// Per-vertex device-state bytes charged by the memory model. Defaults
    /// to the host size of [`Self::State`]; programs whose host state is
    /// padded to a fixed maximum width (the K-lane batchers carry
    /// 64-lane arrays regardless of the batch size) override this with
    /// what a real device kernel would allocate for the *actual* lane
    /// count, so simulated footprints scale with K.
    fn state_bytes(&self) -> u64 {
        std::mem::size_of::<Self::State>() as u64
    }

    /// Fixed wire bytes of one all-shared payload entry. Scalar programs
    /// ship one [`dirgl_comm::VAL_BYTES`] value; the K-lane adapter ships a
    /// lane-mask word plus one value per live lane.
    fn wire_bytes(&self) -> u64 {
        dirgl_comm::VAL_BYTES
    }

    /// Wire bytes of one *extracted* (updated-only) payload entry. Defaults
    /// to the fixed [`Self::wire_bytes`]; the K-lane adapter sizes each
    /// entry by its active-lane popcount so simulated message bytes scale
    /// with lane activity.
    fn wire_payload_bytes(&self, w: &Self::Wire) -> u64 {
        let _ = w;
        self.wire_bytes()
    }

    /// True when the program keeps per-state sync bookkeeping that must be
    /// reset when the engine clears its round-level sync marks (the K-lane
    /// adapter's per-vertex dirty-lane masks). Gates the per-vertex
    /// [`Self::on_sync_cleared`] walk so scalar programs pay nothing.
    fn wants_sync_clear(&self) -> bool {
        false
    }

    /// Called on each master whose broadcast mark is being cleared, when
    /// [`Self::wants_sync_clear`] is true. Default: no-op.
    fn on_sync_cleared(&self, state: &mut Self::State) {
        let _ = state;
    }

    /// Whether the program tolerates bulk-asynchronous execution (stale
    /// reads, unaligned rounds). Programs whose invariants need aligned
    /// rounds (betweenness centrality's path counting) return false and the
    /// runtime falls back to BSP, exactly as "D-IrGL ... uses BASP by
    /// default if the benchmark can be run asynchronously" (SIII-B).
    fn supports_async(&self) -> bool {
        self.style() != Style::PushTopologyDriven
    }

    /// Bulk-synchronous engines call this at the start of every global
    /// round (0-based) before any compute; round-gated programs (the bc
    /// backward sweep) read it to decide which level pushes.
    fn on_round_start(&self, round: u32) {
        let _ = round;
    }

    /// Round cap (BASP local rounds are also capped by this).
    fn max_rounds(&self) -> u32 {
        100_000
    }

    /// Final per-vertex output for verification (exact for integer labels;
    /// pagerank compares with tolerance).
    fn output(&self, state: &Self::State) -> f64;
}

/// Per-proxy state of a [`MinLabel`] program. Both fields hold `u32::MAX`,
/// the identity of `min`, while empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MinState {
    /// Best known label (canonical on masters).
    pub label: u32,
    /// Best candidate received since the last absorb or reduce.
    pub acc: u32,
}

/// A data-driven program whose reduction is `min` over `u32` with identity
/// `u32::MAX` (bfs levels, sssp distances, cc component ids, §IV-B). It
/// declares a seed label and an edge operator; the [`VertexProgram`]
/// implementation for every `MinLabel` derives the fold. The method names
/// differ from [`VertexProgram`]'s, so calls stay unambiguous where both
/// traits are in scope.
pub trait MinLabel: Sync {
    /// [`VertexProgram::name`].
    fn program_name(&self) -> &'static str;

    /// [`VertexProgram::style`]; data-driven push unless overridden.
    fn program_style(&self) -> Style {
        Style::PushDataDriven
    }

    /// [`VertexProgram::needs_symmetric`].
    fn symmetric(&self) -> bool {
        false
    }

    /// [`VertexProgram::uses_weights`].
    fn weighted(&self) -> bool {
        false
    }

    /// Initial label of global vertex `gv`, `u32::MAX` for none. A
    /// labelled vertex starts active.
    fn seed(&self, gv: VertexId) -> u32;

    /// The label a vertex labelled `label` sends over an edge of weight
    /// `weight`.
    fn relax(&self, label: u32, weight: u32) -> u32;
}

impl<T: MinLabel> VertexProgram for T {
    type State = MinState;
    type Wire = u32;

    fn name(&self) -> &'static str {
        self.program_name()
    }

    fn style(&self) -> Style {
        self.program_style()
    }

    fn needs_symmetric(&self) -> bool {
        self.symmetric()
    }

    fn uses_weights(&self) -> bool {
        self.weighted()
    }

    fn init_state(&self, gv: VertexId, _ctx: &InitCtx<'_>) -> MinState {
        MinState {
            label: self.seed(gv),
            acc: u32::MAX,
        }
    }

    fn initially_active(&self, gv: VertexId, _ctx: &InitCtx<'_>) -> bool {
        self.seed(gv) != u32::MAX
    }

    fn edge_msg(&self, state: &MinState, weight: u32) -> Option<u32> {
        (state.label != u32::MAX).then(|| self.relax(state.label, weight))
    }

    fn accumulate(&self, state: &mut MinState, msg: u32) -> bool {
        // A compare-and-select: in a relax loop whether a candidate
        // improves follows the edge weights, so a branch on it would
        // mispredict often.
        let better = msg < state.acc.min(state.label);
        state.acc = std::hint::select_unpredictable(better, msg, state.acc);
        better
    }

    fn absorb(&self, state: &mut MinState) -> bool {
        if state.acc < state.label {
            state.label = state.acc;
            true
        } else {
            false
        }
    }

    fn take_delta(&self, state: &mut MinState) -> u32 {
        let d = state.acc.min(state.label);
        state.acc = u32::MAX;
        d
    }

    fn canonical(&self, state: &MinState) -> u32 {
        state.label
    }

    fn set_canonical(&self, state: &mut MinState, v: u32) -> bool {
        if v < state.label {
            state.label = v;
            true
        } else {
            false
        }
    }

    fn output(&self, state: &MinState) -> f64 {
        state.label as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NONE: u32 = u32::MAX;

    /// Labels every vertex with its own id and relaxes by the edge weight.
    struct MinProp;

    impl MinLabel for MinProp {
        fn program_name(&self) -> &'static str {
            "minprop"
        }
        fn seed(&self, gv: VertexId) -> u32 {
            gv
        }
        fn relax(&self, label: u32, weight: u32) -> u32 {
            label.saturating_add(weight)
        }
    }

    fn st(label: u32, acc: u32) -> MinState {
        MinState { label, acc }
    }

    #[test]
    fn defaults_and_derived_hooks() {
        let (p, degs) = (MinProp, [1u32; 4]);
        let ctx = InitCtx::new(4, &degs);
        assert!(!p.needs_symmetric() && !p.uses_weights());
        assert_eq!(p.style(), Style::PushDataDriven);
        assert_eq!(p.max_rounds(), 100_000);
        assert!(p.begin_push(&mut st(5, 7)));
        assert_eq!(p.init_state(3, &ctx), st(3, NONE));
        assert!(p.initially_active(3, &ctx));
        assert!(!p.initially_active(NONE, &ctx));
        assert_eq!(p.edge_msg(&st(3, 1), 4), Some(7));
        assert_eq!(p.edge_msg(&st(NONE, 1), 4), None);
        // A run of candidates between absorbs keeps only the best.
        let mut s = st(100, NONE);
        assert!(p.accumulate(&mut s, 40) && p.accumulate(&mut s, 30));
        assert!(!p.accumulate(&mut s, 35));
        assert!(p.absorb(&mut s));
        assert_eq!(s.label, 30);
    }

    /// The branchy form the compare-and-select replaced.
    fn accumulate_branchy(state: &mut MinState, msg: u32) -> bool {
        if msg < state.acc && msg < state.label {
            state.acc = msg;
            true
        } else {
            false
        }
    }

    /// Every hook of the fold over a table of labels and accumulators,
    /// with messages that tie either field, the sentinel, and one below
    /// each field.
    #[test]
    fn min_fold_over_the_value_grid() {
        let p = MinProp;
        let values = [0, 7, 8, 9, NONE - 1, NONE];
        for (label, acc) in values.into_iter().flat_map(|l| values.map(|a| (l, a))) {
            let (s, best) = (st(label, acc), label.min(acc));
            let below = |x: u32| x.saturating_sub(1);
            for msg in [acc, label, NONE, below(acc), below(label)] {
                let (mut got, mut want) = (s, s);
                let took = p.accumulate(&mut got, msg);
                assert_eq!(took, accumulate_branchy(&mut want, msg), "{s:?} <- {msg}");
                assert_eq!(got, want, "{s:?} <- {msg}");
                // Neither a tie nor the sentinel ever improves.
                assert_eq!(took, msg < best, "{s:?} <- {msg}");
            }
            // take_delta ships the better field (an untouched mirror its
            // canonical label) and resets the accumulator.
            let mut t = s;
            assert_eq!(p.take_delta(&mut t), best);
            assert_eq!(t, st(label, NONE));
            // absorb installs a better accumulator, and only once.
            let mut a = s;
            assert_eq!(p.absorb(&mut a), acc < label);
            assert_eq!((p.canonical(&a), p.output(&a)), (best, best as f64));
            assert!(!p.absorb(&mut a));
            assert_eq!(a, st(best, acc));
            // set_canonical takes only a strictly better label.
            for v in values {
                let mut m = s;
                assert_eq!(p.set_canonical(&mut m, v), v < label, "{s:?} <- {v}");
                assert_eq!(m, st(label.min(v), acc), "{s:?} <- {v}");
            }
        }
    }
}

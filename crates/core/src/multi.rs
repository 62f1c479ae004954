//! K-lane multi-source batching: one edge scan advances up to 64 sources.
//!
//! Traversal problems from different sources share the *structure* of
//! every round — the same CSR walk, the same sync plan, the same
//! reduce/broadcast links — and differ only in per-vertex label values.
//! [`Lanes`] exploits that: it lifts any lane-independent
//! [`VertexProgram`] (one whose semantics depend only on its source
//! vertex) to a batched program whose per-vertex state is a *lane array*
//! of `K ≤ 64` scalar states (in `N ≥ K` slots, see *Width classes*)
//! plus packed `u64` lane masks: one row of a K-column frontier bit
//! matrix per vertex. Every engine mechanism — frontier worklists, UO
//! extraction, BASP event timing, checkpoint/rollback — operates on the
//! batched program unchanged, because [`Lanes`] is just another
//! `VertexProgram`.
//!
//! This is the semiring framing of GraphBLAST-style batched traversal:
//! a single-source round is a masked sparse matrix–vector product over
//! the (min, +) semiring; K sources make the vector a K-column bit
//! matrix and the round a masked SpMM. Here the "matrix" is the CSR scan
//! the engines already perform, and the K columns ride along as packed
//! words.
//!
//! ## Per-lane identity
//!
//! The contract (pinned by the lane-agreement proptests) is that lane
//! `l` of a batched run is **byte-identical** to the corresponding
//! scalar single-source run:
//!
//! * every per-lane hook iterates active lanes in ascending order, so
//!   lane `l`'s sequence of `accumulate`/`absorb`/`set_canonical` calls
//!   is exactly the subsequence of the batched call stream that a scalar
//!   run would produce — even non-idempotent float accumulation
//!   (bc-forward's sigma sums) stays bit-identical;
//! * lane masks (`pending`, `cur`, `updated`, `dirty`) mirror, per lane,
//!   exactly the engine's own per-vertex worklist/updated/dirty bits, so
//!   a lane fires precisely when its scalar run would.
//!
//! Only push programs are lane-batched; [`Lanes::from_programs`] refuses
//! the other two directions. A [`Style::HybridPushPull`] bottom-up scan
//! stops at an unsettled vertex's first producing in-neighbor, which would
//! serve only the lowest live lane, and a [`Style::PullTopologyDriven`]
//! round would read [`VertexProgram::edge_msg`], which [`Lanes`] gates by
//! the push mask.
//!
//! ## Message accounting
//!
//! A batched wire entry is a lane mask word plus one value per lane:
//! all-shared entries always carry every live lane
//! ([`VertexProgram::wire_bytes`]), updated-only entries carry only
//! their active lanes ([`VertexProgram::wire_payload_bytes`]), so
//! simulated bytes scale with lane activity exactly as the per-column
//! payloads of a real batched implementation would.
//!
//! ## Width classes
//!
//! The lane arrays of [`LaneState`], [`LaneWire`] and [`MsBfsState`] have
//! a const width `N`, and a batch of K sources runs at the narrowest
//! class with `N ≥ K`: 8 or [`LANE_WIDTH`] = 64. [`at_width_class`] is
//! the one place that maps K to its class, so a K=4 batch moves 8 slots
//! per proxy and per wire entry, not 64. Each class instantiates the
//! engines once more per batched program; a third class (4, 16, 64) made
//! a clean build and test run about a sixth slower on a 2-core host, so
//! there are two. The class is a host layout only: the simulated model
//! ([`VertexProgram::state_bytes`], [`VertexProgram::wire_bytes`],
//! [`VertexProgram::wire_payload_bytes`]) counts K lanes whatever the
//! class, so every simulated time, count and footprint is the same at
//! every class that holds K.

use dirgl_comm::{live_mask, VAL_BYTES};
use dirgl_graph::csr::VertexId;

use crate::program::{InitCtx, Style, VertexProgram};

/// Hard lane ceiling: one `u64` mask word per vertex. Also the widest
/// width class.
pub const LANE_WIDTH: usize = 64;

/// Work that runs at one lane-width class: [`at_width_class`] picks `N`
/// and calls [`AtWidth::at`].
pub trait AtWidth {
    /// What the work returns.
    type Output;

    /// Runs the work with lane arrays `N` slots wide.
    fn at<const N: usize>(self) -> Self::Output;
}

/// Runs `work` at the width class of a `lanes`-lane batch: the narrowest
/// of 8 and [`LANE_WIDTH`] slots that holds every lane. Every batched
/// launch and every batched footprint picks its class here.
pub fn at_width_class<A: AtWidth>(lanes: usize, work: A) -> A::Output {
    match lanes {
        0..=8 => work.at::<8>(),
        _ => work.at::<LANE_WIDTH>(),
    }
}

/// A vertex program whose instances differ only in their source vertex —
/// the precondition for lane-independent batching.
///
/// Each implementor also names its **batched form**: the program that
/// advances one lane per source in a single engine run, with lane arrays
/// `N` slots wide. Most programs use the generic value-lane adapter
/// (`type Batched<const N: usize> = Lanes<Self, N>`), which ships one
/// wire value per active lane. Programs whose per-lane
/// value is derivable from the round clock opt into a denser encoding —
/// bfs batches as [`MsBfs`], whose wire is a single lane-mask word.
pub trait MultiSourceProgram: VertexProgram + Sized {
    /// The batched program advancing one lane per source, up to `N`.
    type Batched<const N: usize>: BatchedProgram;

    /// The same program rooted at `source`.
    fn for_source(&self, source: VertexId) -> Self;

    /// Batches this program's family across `sources`, one lane per
    /// source in the given order. Panics unless `1 ..= N` sources.
    fn batched<const N: usize>(&self, sources: &[VertexId]) -> Self::Batched<N>;
}

/// A program produced by [`MultiSourceProgram::batched`]: a
/// [`VertexProgram`] whose per-vertex state carries one lane per source,
/// and which can report each lane's scalar output.
pub trait BatchedProgram: VertexProgram {
    /// Lane `l`'s scalar output for `state` — what the corresponding
    /// single-source run's [`VertexProgram::output`] would report.
    fn lane_output(&self, l: usize, state: &Self::State) -> f64;
}

/// Per-vertex state of a batched run: `N` scalar lane slots for `K ≤ N`
/// lanes, plus packed lane masks tracking, per lane, what the engine
/// tracks per vertex.
#[derive(Clone, Copy, Debug)]
pub struct LaneState<S: Copy, const N: usize> {
    /// Scalar state of each lane (slots K up to the class width `N` hold
    /// the lane-0 template and are never read).
    pub lane: [S; N],
    /// Lanes awaiting a push (the per-lane worklist bit).
    pub pending: u64,
    /// Lanes pushing in the current compute call (set by `begin_push`,
    /// read by `edge_msg`).
    pub cur: u64,
    /// Lanes whose accumulator changed since the last `take_delta` (the
    /// per-lane UO bit).
    pub updated: u64,
    /// Master lanes whose canonical value changed since the last sync
    /// clear (the per-lane broadcast-dirty bit).
    pub dirty: u64,
}

/// Equality compares lane *values* only: the mask words are engine
/// bookkeeping, and `begin_push` consuming `pending` must not read as a
/// state change (the device flags masters whose state changed during
/// compute for broadcast).
impl<S: Copy + PartialEq, const N: usize> PartialEq for LaneState<S, N> {
    fn eq(&self, other: &Self) -> bool {
        self.lane[..] == other.lane[..]
    }
}

/// A batched wire value: the active-lane mask plus one scalar wire value
/// per active lane in `N` slots (inactive slots, up to the class width,
/// hold `W::default()` and are never read).
#[derive(Clone, Copy)]
pub struct LaneWire<W: Copy, const N: usize> {
    /// Which lanes carry a value.
    pub mask: u64,
    /// Per-lane values, positionally.
    pub vals: [W; N],
}

impl<W: Copy + PartialEq, const N: usize> PartialEq for LaneWire<W, N> {
    fn eq(&self, other: &Self) -> bool {
        self.mask == other.mask && lanes_of(self.mask).all(|l| self.vals[l] == other.vals[l])
    }
}

impl<W: Copy + std::fmt::Debug, const N: usize> std::fmt::Debug for LaneWire<W, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_map();
        for l in lanes_of(self.mask) {
            d.entry(&l, &self.vals[l]);
        }
        d.finish()
    }
}

/// Iterates the set bit positions of `mask` in ascending order — the
/// order that keeps every lane's call subsequence identical to its
/// scalar run.
#[inline]
pub fn lanes_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            None
        } else {
            let l = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some(l)
        }
    })
}

/// The K-lane batching adapter: a [`VertexProgram`] over [`LaneState`]
/// arrays `N` slots wide that advances one scalar program per lane.
pub struct Lanes<P: VertexProgram, const N: usize> {
    progs: Vec<P>,
    /// Per-lane auxiliary init words overriding the runner-level aux
    /// (multi-phase drivers: bc's backward sweep seeds each lane with its
    /// own forward results).
    lane_aux: Vec<Option<Vec<u64>>>,
    live: u64,
    style: Style,
    topo: bool,
}

impl<P: VertexProgram, const N: usize> Lanes<P, N> {
    /// Batches `base` across `sources`, one lane per source in the given
    /// order. Panics unless `1 ..= N` sources.
    pub fn new(base: &P, sources: &[VertexId]) -> Lanes<P, N>
    where
        P: MultiSourceProgram,
    {
        Self::from_programs(sources.iter().map(|&s| base.for_source(s)).collect())
    }

    /// Batches explicit per-lane program instances (they must agree on
    /// style and graph requirements). Panics unless `1 ..= N` lanes
    /// (`N ≤ 64`), and on [`Style::HybridPushPull`] and
    /// [`Style::PullTopologyDriven`] programs.
    pub fn from_programs(progs: Vec<P>) -> Lanes<P, N> {
        assert!(
            N <= LANE_WIDTH && (1..=N).contains(&progs.len()),
            "lane batch must hold 1..={N} programs, got {}",
            progs.len()
        );
        let style = progs[0].style();
        assert!(
            progs.iter().all(|p| p.style() == style),
            "all lanes must share a traversal style"
        );
        assert!(
            matches!(style, Style::PushDataDriven | Style::PushTopologyDriven),
            "{style:?} programs are not lane-batched: a bottom-up scan stops at the first \
             producing in-neighbor, which serves only the lowest live lane, and a pull reads \
             edge_msg, which the lane adapter gates by the push mask"
        );
        let live = live_mask(progs.len() as u32);
        let topo = style == Style::PushTopologyDriven;
        Lanes {
            lane_aux: progs.iter().map(|_| None).collect(),
            progs,
            live,
            style,
            topo,
        }
    }

    /// Seeds lane `l`'s initialization with its own auxiliary words
    /// (overrides any runner-level aux for that lane).
    pub fn set_lane_aux(&mut self, l: usize, aux: Vec<u64>) {
        self.lane_aux[l] = Some(aux);
    }

    /// The init context lane `l` sees: the global one with its aux words
    /// swapped in when set.
    fn lane_ctx<'a>(&'a self, l: usize, ctx: &InitCtx<'a>) -> InitCtx<'a> {
        InitCtx {
            num_vertices: ctx.num_vertices,
            out_degrees: ctx.out_degrees,
            aux: self.lane_aux[l].as_deref().or(ctx.aux),
        }
    }
}

impl<P, const N: usize> BatchedProgram for Lanes<P, N>
where
    P: VertexProgram,
    P::Wire: Default,
{
    fn lane_output(&self, l: usize, state: &LaneState<P::State, N>) -> f64 {
        self.progs[l].output(&state.lane[l])
    }
}

impl<P, const N: usize> VertexProgram for Lanes<P, N>
where
    P: VertexProgram,
    P::Wire: Default,
{
    type State = LaneState<P::State, N>;
    type Wire = LaneWire<P::Wire, N>;

    fn name(&self) -> &'static str {
        self.progs[0].name()
    }

    fn style(&self) -> Style {
        self.style
    }

    fn needs_symmetric(&self) -> bool {
        self.progs[0].needs_symmetric()
    }

    fn uses_weights(&self) -> bool {
        self.progs[0].uses_weights()
    }

    fn init_state(&self, gv: VertexId, ctx: &InitCtx<'_>) -> Self::State {
        let first = self.progs[0].init_state(gv, &self.lane_ctx(0, ctx));
        let mut lane = [first; N];
        for (l, p) in self.progs.iter().enumerate().skip(1) {
            lane[l] = p.init_state(gv, &self.lane_ctx(l, ctx));
        }
        let mut pending = 0u64;
        if !self.topo {
            for (l, p) in self.progs.iter().enumerate() {
                if p.initially_active(gv, &self.lane_ctx(l, ctx)) {
                    pending |= 1 << l;
                }
            }
        }
        LaneState {
            lane,
            pending,
            cur: 0,
            updated: 0,
            dirty: 0,
        }
    }

    fn initially_active(&self, gv: VertexId, ctx: &InitCtx<'_>) -> bool {
        self.progs
            .iter()
            .enumerate()
            .any(|(l, p)| p.initially_active(gv, &self.lane_ctx(l, ctx)))
    }

    fn begin_push(&self, state: &mut Self::State) -> bool {
        let cur = if self.topo {
            self.live
        } else {
            state.pending & self.live
        };
        state.pending &= !cur;
        let mut mask = 0u64;
        for l in lanes_of(cur) {
            if self.progs[l].begin_push(&mut state.lane[l]) {
                mask |= 1 << l;
            }
        }
        state.cur = mask;
        mask != 0
    }

    fn edge_msg(&self, state: &Self::State, weight: u32) -> Option<Self::Wire> {
        let mut mask = 0u64;
        let mut vals = [P::Wire::default(); N];
        for l in lanes_of(state.cur & self.live) {
            if let Some(w) = self.progs[l].edge_msg(&state.lane[l], weight) {
                mask |= 1 << l;
                vals[l] = w;
            }
        }
        (mask != 0).then_some(LaneWire { mask, vals })
    }

    fn accumulate(&self, state: &mut Self::State, msg: Self::Wire) -> bool {
        let mut changed = 0u64;
        for l in lanes_of(msg.mask & self.live) {
            if self.progs[l].accumulate(&mut state.lane[l], msg.vals[l]) {
                changed |= 1 << l;
            }
        }
        state.updated |= changed;
        changed != 0
    }

    fn absorb(&self, state: &mut Self::State) -> bool {
        let mut changed = 0u64;
        for l in lanes_of(self.live) {
            if self.progs[l].absorb(&mut state.lane[l]) {
                changed |= 1 << l;
            }
        }
        state.dirty |= changed;
        state.pending |= changed;
        changed != 0
    }

    fn take_delta(&self, state: &mut Self::State) -> Self::Wire {
        let mask = state.updated & self.live;
        state.updated = 0;
        let mut vals = [P::Wire::default(); N];
        for l in lanes_of(mask) {
            vals[l] = self.progs[l].take_delta(&mut state.lane[l]);
        }
        LaneWire { mask, vals }
    }

    fn canonical(&self, state: &Self::State) -> Self::Wire {
        let mask = state.dirty & self.live;
        let mut vals = [P::Wire::default(); N];
        for l in lanes_of(mask) {
            vals[l] = self.progs[l].canonical(&state.lane[l]);
        }
        LaneWire { mask, vals }
    }

    fn set_canonical(&self, state: &mut Self::State, v: Self::Wire) -> bool {
        let mut changed = 0u64;
        for l in lanes_of(v.mask & self.live) {
            if self.progs[l].set_canonical(&mut state.lane[l], v.vals[l]) {
                changed |= 1 << l;
            }
        }
        state.pending |= changed;
        changed != 0
    }

    fn merge_canonical_async(&self, state: &mut Self::State, v: Self::Wire) -> bool {
        let mut changed = 0u64;
        for l in lanes_of(v.mask & self.live) {
            if self.progs[l].merge_canonical_async(&mut state.lane[l], v.vals[l]) {
                changed |= 1 << l;
            }
        }
        state.pending |= changed;
        changed != 0
    }

    fn state_bytes(&self) -> u64 {
        // A device kernel allocates K lane slots plus the four mask
        // words, not the host struct's N-slot class array.
        self.progs.len() as u64 * std::mem::size_of::<P::State>() as u64 + 32
    }

    fn wire_bytes(&self) -> u64 {
        // All-shared entries always carry the mask word plus every live
        // lane's value.
        8 + self.progs.len() as u64 * VAL_BYTES
    }

    fn wire_payload_bytes(&self, w: &Self::Wire) -> u64 {
        // Updated-only entries carry the mask word plus only the active
        // lanes — bytes scale with lane activity.
        8 + (w.mask & self.live).count_ones() as u64 * VAL_BYTES
    }

    fn wants_sync_clear(&self) -> bool {
        true
    }

    fn on_sync_cleared(&self, state: &mut Self::State) {
        state.dirty = 0;
    }

    fn supports_async(&self) -> bool {
        self.progs.iter().all(|p| p.supports_async())
    }

    fn on_round_start(&self, round: u32) {
        for p in &self.progs {
            p.on_round_start(round);
        }
    }

    fn max_rounds(&self) -> u32 {
        self.progs.iter().map(|p| p.max_rounds()).max().unwrap_or(1)
    }

    fn output(&self, state: &Self::State) -> f64 {
        // Aggregate view for the generic `execute()` path; per-lane
        // outputs come from [`Lanes::lane_output`] via the multi-source
        // runner.
        lanes_of(self.live)
            .map(|l| self.progs[l].output(&state.lane[l]))
            .sum()
    }
}

/// Per-vertex state of a multi-source bfs batch: one level per lane in
/// `N` slots plus packed lane masks. Unlike [`LaneState`], there is no
/// per-lane wire value anywhere — discovery masks are the only thing
/// exchanged.
#[derive(Clone, Copy, Debug)]
pub struct MsBfsState<const N: usize> {
    /// Discovery level of each lane ([`MS_UNREACHED`] until seen; slots K
    /// up to the class width `N` stay unreached and are never read). `u16`
    /// on purpose: BFS levels are bounded by graph diameter, which never
    /// approaches 65 534 on these inputs, and halving the lane array
    /// halves the dominant state traffic of a batched pass (`settle`
    /// guards the bound).
    pub level: [u16; N],
    /// Lanes whose level is settled.
    pub seen: u64,
    /// Lanes awaiting a push.
    pub pending: u64,
    /// Lanes pushing in the current compute call.
    pub cur: u64,
    /// Lanes discovered via `accumulate` since the last `take_delta`
    /// (the reduce-extraction mask).
    pub fresh: u64,
    /// Lanes accumulated but not yet settled — the mask analogue of the
    /// scalar accumulator. Settling happens in `absorb` (masters) or
    /// `set_canonical` (mirrors), never in `accumulate` itself: a mirror
    /// that locally accumulates a lane must still activate when the
    /// master's broadcast arrives, exactly as the scalar acc/dist split
    /// guarantees.
    pub acc: u64,
}

/// Equality compares settled levels only — the mask words are engine
/// bookkeeping (see [`LaneState`]'s `PartialEq` for the argument).
impl<const N: usize> PartialEq for MsBfsState<N> {
    fn eq(&self, other: &Self) -> bool {
        self.level[..] == other.level[..]
    }
}

/// The stored level of an unreached lane. [`MsBfs::lane_output`] maps it
/// to `u32::MAX as f64`, matching the scalar bfs convention so lane
/// outputs are bit-identical.
pub const MS_UNREACHED: u16 = u16::MAX;

/// Multi-source BFS with mask-only wires — the bit-matrix frontier of
/// MS-BFS-style batched traversal.
///
/// The generic [`Lanes`] adapter ships one wire value per active lane
/// (`8 + K × 4` bytes per entry). BFS does not need any of those values:
/// in a level-synchronous run, a lane discovered in global round `r` has
/// level `r + 1`, full stop. So the wire collapses to the discovery mask
/// itself — one `u64` per entry regardless of K — and per-edge work
/// collapses to word operations (a pushing vertex sends its current lane
/// mask; a receiver keeps `mask & !seen` and stamps those lanes with the
/// round clock). This is what makes 64-wide batching pay: message
/// buffers shrink ~33× against the value-lane adapter (fitting devices
/// the value form cannot), and a vertex on many lanes' frontiers costs
/// one edge scan, not one per lane.
///
/// The round-clock level derivation requires globally aligned rounds, so
/// the program is synchronous-only ([`VertexProgram::supports_async`] is
/// false); under an async variant the runtime falls back to BSP, exactly
/// as D-IrGL does for benchmarks that cannot run asynchronously. Lane
/// outputs remain byte-identical to scalar runs under either variant —
/// bfs levels are the unique fixed point.
pub struct MsBfs<const N: usize> {
    sources: Vec<VertexId>,
    live: u64,
    round: std::sync::atomic::AtomicU32,
}

impl<const N: usize> MsBfs<N> {
    /// Batched bfs across `sources`, one lane per source in the given
    /// order, in level arrays `N ≤ 64` slots wide. Panics unless
    /// `1 ..= N` sources.
    pub fn new(sources: &[VertexId]) -> MsBfs<N> {
        assert!(
            N <= LANE_WIDTH && (1..=N).contains(&sources.len()),
            "lane batch must hold 1..={N} sources, got {}",
            sources.len()
        );
        MsBfs {
            live: live_mask(sources.len() as u32),
            sources: sources.to_vec(),
            round: std::sync::atomic::AtomicU32::new(0),
        }
    }

    /// The level a lane discovered in the current round gets: in a
    /// level-synchronous run, messages pushed in round `r` settle their
    /// receivers at level `r + 1`.
    fn discovery_level(&self) -> u32 {
        self.round.load(std::sync::atomic::Ordering::Relaxed) + 1
    }

    /// Stamps `news` lanes of `state` with the current discovery level.
    fn settle(&self, state: &mut MsBfsState<N>, news: u64) {
        let level = self.discovery_level();
        assert!(
            level < MS_UNREACHED as u32,
            "bfs level {level} exceeds the u16 lane-level range"
        );
        for l in lanes_of(news) {
            state.level[l] = level as u16;
        }
        state.seen |= news;
    }

    /// Lane `l`'s scalar output: the stored level, with the unreached
    /// sentinel widened to the scalar program's `u32::MAX` convention.
    fn level_out(level: u16) -> f64 {
        if level == MS_UNREACHED {
            u32::MAX as f64
        } else {
            level as f64
        }
    }
}

impl<const N: usize> VertexProgram for MsBfs<N> {
    type State = MsBfsState<N>;
    type Wire = u64;

    fn name(&self) -> &'static str {
        "ms-bfs"
    }

    fn style(&self) -> Style {
        Style::PushDataDriven
    }

    fn init_state(&self, gv: VertexId, _ctx: &InitCtx<'_>) -> MsBfsState<N> {
        let mut level = [MS_UNREACHED; N];
        let mut seen = 0u64;
        for (l, &s) in self.sources.iter().enumerate() {
            if s == gv {
                level[l] = 0;
                seen |= 1 << l;
            }
        }
        MsBfsState {
            level,
            seen,
            pending: seen,
            cur: 0,
            fresh: 0,
            acc: 0,
        }
    }

    fn initially_active(&self, gv: VertexId, _ctx: &InitCtx<'_>) -> bool {
        self.sources.contains(&gv)
    }

    fn begin_push(&self, state: &mut MsBfsState<N>) -> bool {
        state.cur = state.pending & self.live;
        state.pending &= !state.cur;
        state.cur != 0
    }

    fn edge_msg(&self, state: &MsBfsState<N>, _weight: u32) -> Option<u64> {
        (state.cur != 0).then_some(state.cur)
    }

    fn accumulate(&self, state: &mut MsBfsState<N>, mask: u64) -> bool {
        // Accumulate only — never settle here. On a mirror the canonical
        // mask (`seen`) must stay untouched so the master's broadcast
        // still reads as news and activates the mirror's own push; on a
        // master, `absorb` settles in the same round, so the level stamp
        // is identical either way.
        let news = mask & self.live & !state.seen & !state.acc;
        if news == 0 {
            return false;
        }
        state.fresh |= news;
        state.acc |= news;
        true
    }

    fn absorb(&self, state: &mut MsBfsState<N>) -> bool {
        let news = state.acc & !state.seen;
        state.acc = 0;
        if news == 0 {
            return false;
        }
        self.settle(state, news);
        state.pending |= news;
        true
    }

    fn take_delta(&self, state: &mut MsBfsState<N>) -> u64 {
        let fresh = state.fresh;
        state.fresh = 0;
        fresh
    }

    fn canonical(&self, state: &MsBfsState<N>) -> u64 {
        // The full settled mask: receivers filter against their own
        // `seen`, so re-sending settled lanes is a no-op (the mask
        // analogue of re-broadcasting an unchanged canonical value).
        state.seen
    }

    fn set_canonical(&self, state: &mut MsBfsState<N>, mask: u64) -> bool {
        let news = mask & self.live & !state.seen;
        if news == 0 {
            return false;
        }
        self.settle(state, news);
        state.pending |= news;
        // Lanes the broadcast settled no longer need a local accumulator
        // guard (the master already knows them).
        state.acc &= !news;
        true
    }

    fn state_bytes(&self) -> u64 {
        // K level slots plus the five mask words — what a device kernel
        // would allocate, not the host struct's N-slot class array.
        self.sources.len() as u64 * 2 + 40
    }

    fn wire_bytes(&self) -> u64 {
        // One lane-mask word per entry — K-independent.
        8
    }

    fn supports_async(&self) -> bool {
        false
    }

    fn on_round_start(&self, round: u32) {
        self.round
            .store(round, std::sync::atomic::Ordering::Relaxed);
    }

    fn output(&self, state: &MsBfsState<N>) -> f64 {
        lanes_of(self.live)
            .map(|l| Self::level_out(state.level[l]))
            .sum()
    }
}

impl<const N: usize> BatchedProgram for MsBfs<N> {
    fn lane_output(&self, l: usize, state: &MsBfsState<N>) -> f64 {
        Self::level_out(state.level[l])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{MinLabel, MinState};

    /// Minimal min-propagation program, one instance per source.
    #[derive(Clone)]
    struct MinFrom {
        source: u32,
        style: Style,
    }

    impl MinLabel for MinFrom {
        fn program_name(&self) -> &'static str {
            "minfrom"
        }
        fn program_style(&self) -> Style {
            self.style
        }
        fn seed(&self, gv: VertexId) -> u32 {
            if gv == self.source {
                0
            } else {
                u32::MAX
            }
        }
        fn relax(&self, level: u32, _w: u32) -> u32 {
            level + 1
        }
    }

    impl MultiSourceProgram for MinFrom {
        type Batched<const N: usize> = Lanes<MinFrom, N>;

        fn for_source(&self, source: VertexId) -> MinFrom {
            MinFrom {
                source,
                style: self.style,
            }
        }

        fn batched<const N: usize>(&self, sources: &[VertexId]) -> Lanes<MinFrom, N> {
            Lanes::new(self, sources)
        }
    }

    const BASE: MinFrom = MinFrom {
        source: 0,
        style: Style::PushDataDriven,
    };

    fn batch(sources: &[u32]) -> Lanes<MinFrom, 8> {
        BASE.batched(sources)
    }

    /// The class [`at_width_class`] picks for K lanes.
    struct Class;

    impl AtWidth for Class {
        type Output = usize;
        fn at<const N: usize>(self) -> usize {
            N
        }
    }

    #[test]
    fn each_batch_runs_at_the_narrowest_class_that_holds_it() {
        for (k, class) in [(1, 8), (2, 8), (8, 8), (9, 64), (64, 64)] {
            assert_eq!(at_width_class(k, Class), class, "K={k}");
        }
    }

    #[test]
    fn lane_arrays_are_class_wide_and_the_model_counts_k_lanes() {
        use std::mem::size_of;
        // Four u64 masks plus N `MinState`s of 8 B.
        assert_eq!(size_of::<LaneState<MinState, 8>>(), 32 + 8 * 8);
        assert_eq!(size_of::<LaneState<MinState, 64>>(), 32 + 64 * 8);
        // One u64 mask plus N `u32` values.
        assert_eq!(size_of::<LaneWire<u32, 8>>(), 8 + 8 * 4);
        assert_eq!(size_of::<LaneWire<u32, 64>>(), 8 + 64 * 4);
        // Five u64 masks plus N `u16` levels.
        assert_eq!(size_of::<MsBfsState<8>>(), 40 + 8 * 2);
        assert_eq!(size_of::<MsBfsState<64>>(), 40 + 64 * 2);

        // What the simulated device is charged depends on K alone.
        fn model<P: VertexProgram>(p: &P) -> (u64, u64) {
            (p.state_bytes(), p.wire_bytes())
        }
        let sources = [2, 5, 7];
        let lanes = (3 * 8 + 32, 8 + 3 * VAL_BYTES);
        assert_eq!(model(&BASE.batched::<8>(&sources)), lanes);
        assert_eq!(model(&BASE.batched::<64>(&sources)), lanes);
        let masks = (3 * 2 + 40, 8);
        assert_eq!(model(&MsBfs::<8>::new(&sources)), masks);
        assert_eq!(model(&MsBfs::<64>::new(&sources)), masks);
    }

    #[test]
    fn init_packs_sources_into_pending_lanes() {
        let b = batch(&[2, 5, 7]);
        let degs = vec![0u32; 10];
        let ctx = InitCtx::new(10, &degs);
        let s5 = b.init_state(5, &ctx);
        assert_eq!(s5.pending, 0b010, "vertex 5 is lane 1's source");
        assert_eq!(s5.lane[1].label, 0);
        assert_eq!(s5.lane[0].label, u32::MAX);
        assert!(b.initially_active(5, &ctx));
        assert!(!b.initially_active(3, &ctx));
    }

    #[test]
    fn begin_push_consumes_pending_and_masks_edges() {
        let b = batch(&[2, 5, 7]);
        let degs = vec![0u32; 10];
        let ctx = InitCtx::new(10, &degs);
        let mut s = b.init_state(5, &ctx);
        assert!(b.begin_push(&mut s));
        assert_eq!(s.cur, 0b010);
        assert_eq!(s.pending, 0);
        let w = b.edge_msg(&s, 0).expect("lane 1 pushes");
        assert_eq!(w.mask, 0b010);
        assert_eq!(w.vals[1], 1);
        // Nothing pending: the vertex does not push again.
        assert!(!b.begin_push(&mut s));
        assert_eq!(b.edge_msg(&s, 0).map(|w| w.mask), None);
    }

    #[test]
    fn accumulate_tracks_updated_and_take_delta_clears() {
        let b = batch(&[2, 5, 7]);
        let degs = vec![0u32; 10];
        let ctx = InitCtx::new(10, &degs);
        let mut s = b.init_state(3, &ctx);
        let mut vals = [0u32; 8];
        vals[0] = 4;
        vals[2] = 9;
        assert!(b.accumulate(&mut s, LaneWire { mask: 0b101, vals }));
        assert_eq!(s.updated, 0b101);
        assert_eq!(s.lane[0].acc, 4);
        assert_eq!(s.lane[2].acc, 9);
        // Worse values change nothing.
        assert!(!b.accumulate(&mut s, LaneWire { mask: 0b101, vals }));
        let d = b.take_delta(&mut s);
        assert_eq!(d.mask, 0b101);
        assert_eq!((d.vals[0], d.vals[2]), (4, 9));
        assert_eq!(s.updated, 0);
    }

    #[test]
    fn state_equality_ignores_mask_bookkeeping() {
        let b = batch(&[2, 5]);
        let degs = vec![0u32; 10];
        let ctx = InitCtx::new(10, &degs);
        let before = b.init_state(5, &ctx);
        let mut after = before;
        assert!(b.begin_push(&mut after));
        // `begin_push` consumed `pending`, but lane values are untouched:
        // the device must not flag this master broadcast-dirty.
        assert_eq!(before, after);
    }

    #[test]
    fn wire_bytes_scale_with_lanes() {
        let b = batch(&[2, 5, 7]);
        assert_eq!(b.wire_bytes(), 8 + 3 * VAL_BYTES);
        let mut vals = [0u32; 8];
        vals[1] = 1;
        let w = LaneWire { mask: 0b010, vals };
        assert_eq!(b.wire_payload_bytes(&w), 8 + VAL_BYTES);
    }

    #[test]
    fn sync_clear_resets_dirty_lanes() {
        let b = batch(&[2, 5]);
        let degs = vec![0u32; 10];
        let ctx = InitCtx::new(10, &degs);
        let mut s = b.init_state(2, &ctx);
        s.dirty = 0b11;
        assert!(b.wants_sync_clear());
        b.on_sync_cleared(&mut s);
        assert_eq!(s.dirty, 0);
    }

    #[test]
    #[should_panic(expected = "1..=8 programs, got 0")]
    fn zero_sources_refused() {
        let _ = batch(&[]);
    }

    #[test]
    #[should_panic(expected = "1..=8 programs, got 9")]
    fn more_sources_than_the_class_refused() {
        let _ = batch(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "not lane-batched")]
    fn hybrid_programs_refused() {
        let _ = Lanes::<_, 8>::from_programs(vec![MinFrom {
            source: 0,
            style: Style::HybridPushPull,
        }]);
    }

    #[test]
    #[should_panic(expected = "PullTopologyDriven programs are not lane-batched")]
    fn pull_programs_refused() {
        let _ = Lanes::<_, 8>::from_programs(vec![MinFrom {
            source: 0,
            style: Style::PullTopologyDriven,
        }]);
    }

    #[test]
    fn ms_bfs_accumulate_does_not_settle() {
        let b = MsBfs::<8>::new(&[2, 5]);
        let degs = vec![0u32; 10];
        let ctx = InitCtx::new(10, &degs);
        b.on_round_start(3);
        let mut s = b.init_state(7, &ctx);
        assert!(b.accumulate(&mut s, 0b01));
        // Accumulated but not canonical: level unstamped, nothing seen,
        // nothing pending — a mirror in this state must still accept the
        // master's broadcast.
        assert_eq!(s.seen, 0);
        assert_eq!(s.pending, 0);
        assert_eq!(s.level[0], MS_UNREACHED);
        assert_eq!(s.acc, 0b01);
        assert_eq!(s.fresh, 0b01);
        // A second copy of the same lane is guarded out by `acc`.
        assert!(!b.accumulate(&mut s, 0b01));
        // The broadcast settles the lane at the round-clock level and
        // clears the accumulator guard.
        assert!(b.set_canonical(&mut s, 0b01));
        assert_eq!(s.level[0], 4);
        assert_eq!(s.seen, 0b01);
        assert_eq!(s.pending, 0b01);
        assert_eq!(s.acc, 0);
    }

    #[test]
    fn ms_bfs_absorb_settles_masters() {
        let b = MsBfs::<8>::new(&[2, 5]);
        let degs = vec![0u32; 10];
        let ctx = InitCtx::new(10, &degs);
        b.on_round_start(1);
        let mut s = b.init_state(7, &ctx);
        assert!(b.accumulate(&mut s, 0b11));
        assert!(b.absorb(&mut s));
        assert_eq!(s.seen, 0b11);
        assert_eq!(s.pending, 0b11);
        assert_eq!((s.level[0], s.level[1]), (2, 2));
        assert_eq!(s.acc, 0);
        // Nothing accumulated since: absorb is a no-op.
        assert!(!b.absorb(&mut s));
        // Settled lanes never re-accumulate.
        assert!(!b.accumulate(&mut s, 0b11));
    }

    #[test]
    fn ms_bfs_wire_is_one_word_regardless_of_width() {
        let b = MsBfs::<8>::new(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(b.wire_bytes(), 8);
        assert!(!b.supports_async());
        let degs = vec![0u32; 10];
        let ctx = InitCtx::new(10, &degs);
        let s = b.init_state(3, &ctx);
        assert_eq!(b.lane_output(2, &s), 0.0, "lane 2's source is vertex 3");
        // The u16 sentinel widens to the scalar u32::MAX convention.
        assert_eq!(b.lane_output(0, &s), u32::MAX as f64);
    }
}

//! Per-device execution state shared by the BSP and BASP drivers.
//!
//! A [`DeviceRun`] owns one partition's proxies and labels (the partition's
//! local graph itself is borrowed: nothing here writes it, so every job
//! against a resident partition reads the one copy) and performs the *real*
//! computation (label updates) while charging *simulated* time
//! through [`dirgl_gpusim::KernelModel`]. Each device's round is executed
//! sequentially (devices run in parallel via rayon), which keeps the whole
//! simulation bit-for-bit deterministic.

use dirgl_comm::{message, CommMode, DenseBitset, ExtractIndex, Partner, SimTime, SyncPlan};
use dirgl_gpusim::{Balancer, GpuSpec, KernelModel};
use dirgl_partition::{LocalGraph, PairLink, Partition};

use crate::config::RunConfig;
use crate::program::{InitCtx, Style, VertexProgram};

/// Which way a sync message travels over a `(holder, owner)` link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncDir {
    /// Mirror deltas, holder → owner.
    Reduce,
    /// Canonical values, owner → holder.
    Broadcast,
}

/// One sync message, the same value from build through stamping and the
/// (simulated) wire to application — under both engines.
#[derive(Clone)]
pub struct SyncMsg<W> {
    /// Direction; with `from`/`to` it names the link.
    pub dir: SyncDir,
    /// Building device.
    pub from: u32,
    /// Receiving device.
    pub to: u32,
    /// `(link entry index, value)` pairs in ascending entry order. An empty
    /// payload is always `Vec::new()`: most messages of a high-diameter run
    /// carry none, and those hold no allocation on their way through the
    /// engines.
    pub data: Vec<(u32, W)>,
    /// Wire size in paper-equivalent bytes.
    pub bytes: u64,
}

/// Per-device reusable buffers for the round hot path. Everything here is
/// *host-side* scratch with no simulated-model meaning: the engines clear
/// and refill these instead of reallocating every round. Never
/// checkpointed — a rollback restores logical state only, and every field
/// is (re)filled from scratch at the start of the phase that uses it.
pub struct RoundScratch<W> {
    /// Recycled payload vectors for `build_reduce`/`build_broadcast`.
    pool: Vec<Vec<(u32, W)>>,
    /// Frontier snapshot for the push phase (swapped with the live active
    /// set, walked word-at-a-time, cleared after use).
    frontier: DenseBitset,
    /// Local rows with at least one in-edge, in ascending order: the pull
    /// phase iterates only these. Derived at the first pull from the
    /// immutable local CSR (mirror rows are empty — mirrors are pulled
    /// *from*), so a checkpoint rollback never needs to reset it.
    pull_rows: Option<Vec<u32>>,
    /// Cached `(time, total_work)` of the topology-driven pull launch:
    /// the balancer sees the same static degree sequence every round, and
    /// [`dirgl_gpusim::KernelModel::launch`] is pure, so one evaluation
    /// serves the whole run.
    pull_launch: Option<(f64, u64)>,
    /// Probe-count staging for the bottom-up compute phase.
    probes: Vec<u32>,
    /// Built sync messages of the current build phase, in ascending
    /// partner order ([`DeviceRun::build_sync`]).
    pub built: Vec<SyncMsg<W>>,
    /// Grouped-apply inbox (BSP): delivered messages in ascending-builder
    /// order.
    pub inbox: Vec<SyncMsg<W>>,
    /// Kernel time of this round's compute phase (BSP staging).
    pub compute_t: SimTime,
    /// Pack time of this round's build phase (BSP staging).
    pub pack_t: SimTime,
    /// Masters changed by this round's absorb (BSP staging).
    pub absorbed: u32,
}

impl<W> RoundScratch<W> {
    fn new() -> RoundScratch<W> {
        RoundScratch {
            pool: Vec::new(),
            frontier: DenseBitset::new(0),
            pull_rows: None,
            pull_launch: None,
            probes: Vec::new(),
            built: Vec::new(),
            inbox: Vec::new(),
            compute_t: SimTime::ZERO,
            pack_t: SimTime::ZERO,
            absorbed: 0,
        }
    }

    /// An empty payload buffer: recycled when available, fresh otherwise.
    fn take_buf(&mut self) -> Vec<(u32, W)> {
        self.pool.pop().unwrap_or_default()
    }

    /// Returns a payload buffer to the pool (one that never allocated is
    /// not worth keeping).
    pub fn recycle(&mut self, mut buf: Vec<(u32, W)>) {
        if buf.capacity() > 0 {
            buf.clear();
            self.pool.push(buf);
        }
    }
}

/// One device's live state during a run.
pub struct DeviceRun<'a, P: VertexProgram> {
    /// Device index.
    pub dev: u32,
    /// The partition this device runs on.
    pub lg: &'a LocalGraph,
    /// Per-proxy program state.
    pub state: Vec<P::State>,
    /// Data-driven worklist (which local proxies are active).
    pub active: DenseBitset,
    /// Proxies whose *accumulator* was written since the last
    /// synchronization — the reduce set (mirror side) and absorb
    /// candidates (master side).
    pub updated: DenseBitset,
    /// Masters whose *canonical* value changed since the last
    /// synchronization — the broadcast set. Kept separate from `updated`
    /// so that receiving a delta that does not change the canonical value
    /// never triggers a broadcast (which would cause endless wake chatter
    /// under BASP).
    pub bcast_dirty: DenseBitset,
    /// Timing model for this device.
    pub kernel: KernelModel,
    /// Accumulated kernel time.
    pub compute_time: SimTime,
    /// Accumulated idle/blocked time (BASP).
    pub idle_time: SimTime,
    /// Local rounds executed.
    pub rounds: u32,
    /// Paper-equivalent work items processed.
    pub work_items: u64,
    /// Paper-equivalent peak device memory.
    pub peak_memory: u64,
    /// Reusable host-side round buffers (never checkpointed).
    pub scratch: RoundScratch<P::Wire>,
}

impl<'a, P: VertexProgram> DeviceRun<'a, P> {
    /// Initializes device state from a partition and the program.
    pub fn new(
        lg: &'a LocalGraph,
        spec: GpuSpec,
        program: &P,
        ctx: &InitCtx<'_>,
    ) -> DeviceRun<'a, P> {
        let n = lg.num_vertices();
        let mut state = Vec::with_capacity(n as usize);
        let mut active = DenseBitset::new(n);
        for lv in 0..n {
            let gv = lg.l2g[lv as usize];
            state.push(program.init_state(gv, ctx));
            if !matches!(
                program.style(),
                Style::PullTopologyDriven | Style::PushTopologyDriven
            ) && program.initially_active(gv, ctx)
            {
                active.set(lv);
            }
        }
        DeviceRun {
            dev: lg.device,
            lg,
            state,
            active,
            updated: DenseBitset::new(n),
            bcast_dirty: DenseBitset::new(n),
            kernel: KernelModel::new(spec),
            compute_time: SimTime::ZERO,
            idle_time: SimTime::ZERO,
            rounds: 0,
            work_items: 0,
            peak_memory: 0,
            scratch: RoundScratch::new(),
        }
    }

    /// Paper-equivalent bytes this device must allocate to run `program`
    /// with `plan` (CSR + labels + bitsets + worklist + comm buffers).
    pub(crate) fn required_bytes(
        lg: &LocalGraph,
        plan: &SyncPlan,
        program: &P,
        divisor: u64,
    ) -> u64 {
        let style = program.style();
        let state_bytes = program.state_bytes();
        let n = lg.num_vertices() as u64;
        // Only the arrays the program traverses are loaded: push programs
        // hold the out-CSR, pull programs the in-CSR, hybrid both; weights
        // ship only for weight-reading programs (sssp).
        let needs_out = style != Style::PullTopologyDriven;
        let needs_in = matches!(style, Style::PullTopologyDriven | Style::HybridPushPull);
        let weights = program.uses_weights();
        let mut bytes = lg.device_bytes_for(state_bytes, needs_out, needs_in, weights);
        bytes += 2 * n.div_ceil(8); // active + updated bitsets
        if style != Style::PullTopologyDriven {
            bytes += 4 * n; // worklist
        }
        bytes += plan.buffer_entries_for_device(lg.device) * program.wire_bytes() * 2;
        bytes * divisor
    }

    /// True when this device has local work pending.
    pub fn has_work(&self) -> bool {
        !self.active.is_empty()
    }

    /// Runs one compute phase: applies the operator over the active set
    /// (push) or all vertices (pull), accumulating into local proxies only.
    /// Returns the simulated kernel time.
    pub fn compute(&mut self, program: &P, balancer: Balancer, work_scale: u64) -> SimTime {
        let t = match program.style() {
            Style::PushDataDriven | Style::HybridPushPull => {
                self.compute_push(program, balancer, work_scale)
            }
            Style::PushTopologyDriven => {
                // Every vertex is processed every round.
                self.active.set_all();
                self.compute_push(program, balancer, work_scale)
            }
            Style::PullTopologyDriven => self.compute_pull(program, balancer, work_scale),
        };
        let t = SimTime::from_secs_f64(t);
        self.compute_time += t;
        self.rounds += 1;
        t
    }

    fn compute_push(&mut self, program: &P, balancer: Balancer, work_scale: u64) -> f64 {
        let n = self.lg.num_vertices();
        if self.scratch.frontier.len() != n {
            self.scratch.frontier = DenseBitset::new(n);
        }
        // Snapshot-and-clear the worklist without materializing a Vec:
        // `active` swaps with the (empty) scratch frontier, which the body
        // then walks word-at-a-time. The degree sequence fed to the launch
        // model is in ascending local-id order.
        std::mem::swap(&mut self.active, &mut self.scratch.frontier);
        let kr = self.kernel.launch(
            balancer,
            self.scratch
                .frontier
                .iter_set()
                .map(|lv| self.lg.csr.out_degree(lv)),
            work_scale,
        );
        self.work_items += kr.work.total_work;
        // Monomorphize on the weighted-ness of the traversal so the
        // unweighted loop (every program but sssp) never touches the
        // weight array. Unweighted programs ignore the weight argument,
        // so the unweighted loop passes 0.
        if program.uses_weights() && self.lg.csr.is_weighted() {
            self.push_body::<true>(program);
        } else {
            self.push_body::<false>(program);
        }
        self.scratch.frontier.clear_all();
        kr.time
    }

    fn push_body<const WEIGHTED: bool>(&mut self, program: &P) {
        let DeviceRun {
            lg,
            state,
            updated,
            bcast_dirty,
            scratch,
            ..
        } = self;
        let frontier = &scratch.frontier;
        for (wi, &word) in frontier.words().iter().enumerate() {
            let mut w = word;
            let base = wi as u32 * 64;
            while w != 0 {
                let lv = base + w.trailing_zeros();
                w &= w - 1;
                let before = state[lv as usize];
                let mut src = before;
                let push = program.begin_push(&mut src);
                state[lv as usize] = src;
                // begin_push may flip canonical state (kcore's death):
                // masters must rebroadcast it.
                if src != before && lg.is_master(lv) {
                    bcast_dirty.set(lv);
                }
                if !push {
                    continue;
                }
                let (targets, weights) = lg.csr.edge_window(lv);
                // Whether a relax improves its target follows the data, so
                // the mark is a select, not a branch.
                if WEIGHTED {
                    for (&t, &ew) in targets.iter().zip(weights) {
                        if let Some(m) = program.edge_msg(&src, ew) {
                            updated.set_if(t, program.accumulate(&mut state[t as usize], m));
                        }
                    }
                } else if let Some(m) = program.edge_msg(&src, 0) {
                    // The message is loop-invariant for an unweighted
                    // traversal (edge_msg is deterministic in (src, weight)
                    // within a compute phase), so hoist it out of the edge
                    // loop.
                    for &t in targets {
                        updated.set_if(t, program.accumulate(&mut state[t as usize], m));
                    }
                }
            }
        }
    }

    fn compute_pull(&mut self, program: &P, balancer: Balancer, work_scale: u64) -> f64 {
        let n = self.lg.num_vertices();
        let (time, total_work) = match self.scratch.pull_launch {
            Some(cached) => cached,
            None => {
                let kr = self.kernel.launch(
                    balancer,
                    (0..n).map(|lv| self.lg.in_csr.out_degree(lv)),
                    work_scale,
                );
                let fresh = (kr.time, kr.work.total_work);
                self.scratch.pull_launch = Some(fresh);
                fresh
            }
        };
        self.work_items += total_work;
        if program.uses_weights() && self.lg.in_csr.is_weighted() {
            self.pull_body::<true>(program);
        } else {
            self.pull_body::<false>(program);
        }
        time
    }

    /// Pull over the precomputed nonempty rows: only rows with in-edges
    /// are visited (mirrors are pulled *from*, so most local in-windows are
    /// empty), each in-neighbor's [`VertexProgram::edge_msg`] folds into
    /// the row, and the write-back is skipped when nothing accumulated
    /// (`accumulate` returning false means the local copy still equals the
    /// stored state).
    fn pull_body<const WEIGHTED: bool>(&mut self, program: &P) {
        let DeviceRun {
            lg,
            state,
            updated,
            scratch,
            ..
        } = self;
        let rows = scratch.pull_rows.get_or_insert_with(|| {
            (0..lg.num_vertices())
                .filter(|&lv| lg.in_csr.out_degree(lv) > 0)
                .collect()
        });
        for &lv in rows.iter() {
            let (targets, weights) = lg.in_csr.edge_window(lv);
            let mut changed = false;
            // Accumulate into a local copy so reads of other entries are
            // unaffected within the round.
            let mut st = state[lv as usize];
            if WEIGHTED {
                for (&u, &ew) in targets.iter().zip(weights) {
                    if let Some(m) = program.edge_msg(&state[u as usize], ew) {
                        changed |= program.accumulate(&mut st, m);
                    }
                }
            } else {
                for &u in targets {
                    if let Some(m) = program.edge_msg(&state[u as usize], 0) {
                        changed |= program.accumulate(&mut st, m);
                    }
                }
            }
            if changed {
                state[lv as usize] = st;
                updated.set(lv);
            }
        }
    }

    /// Bottom-up round for hybrid programs (direction-optimizing BFS):
    /// instead of expanding the frontier, every vertex with nothing to send
    /// yet (its own [`VertexProgram::edge_msg`] is `None`: bfs's unreached
    /// vertices) scans its local in-edges for a neighbor that sends. The
    /// frontier is consumed; newly settled vertices activate through the
    /// normal absorb/broadcast path.
    pub fn compute_bottom_up(
        &mut self,
        program: &P,
        balancer: Balancer,
        work_scale: u64,
    ) -> SimTime {
        self.active.clear_all();
        // Scan with early exit: each unsettled vertex probes its in-edges
        // until the first settled parent (in a synchronous round every
        // settled in-neighbor of an unsettled vertex carries the current
        // level, so the first hit is also the minimum). Only the probes
        // are charged — the whole point of bottom-up traversal.
        let mut probes = std::mem::take(&mut self.scratch.probes);
        probes.clear();
        if program.uses_weights() && self.lg.in_csr.is_weighted() {
            self.bottom_up_body::<true>(program, &mut probes);
        } else {
            self.bottom_up_body::<false>(program, &mut probes);
        }
        let kr = self
            .kernel
            .launch(balancer, probes.iter().copied(), work_scale);
        self.scratch.probes = probes;
        self.work_items += kr.work.total_work;
        let t = SimTime::from_secs_f64(kr.time);
        self.compute_time += t;
        self.rounds += 1;
        t
    }

    fn bottom_up_body<const WEIGHTED: bool>(&mut self, program: &P, probes: &mut Vec<u32>) {
        let DeviceRun {
            lg, state, updated, ..
        } = self;
        for lv in 0..lg.num_vertices() {
            if program.edge_msg(&state[lv as usize], 0).is_some() {
                continue;
            }
            let (targets, weights) = lg.in_csr.edge_window(lv);
            let mut st = state[lv as usize];
            let mut probed = 0u32;
            if WEIGHTED {
                for (&u, &ew) in targets.iter().zip(weights) {
                    probed += 1;
                    if let Some(m) = program.edge_msg(&state[u as usize], ew) {
                        if program.accumulate(&mut st, m) {
                            updated.set(lv);
                        }
                        break;
                    }
                }
            } else {
                for &u in targets {
                    probed += 1;
                    if let Some(m) = program.edge_msg(&state[u as usize], 0) {
                        if program.accumulate(&mut st, m) {
                            updated.set(lv);
                        }
                        break;
                    }
                }
            }
            state[lv as usize] = st;
            probes.push(probed);
        }
    }

    /// Global frontier contribution for the hybrid direction decision.
    pub fn active_count(&self) -> u64 {
        self.active.count_ones() as u64
    }

    /// Absorb phase: folds accumulators into canonical state on masters.
    /// For data-driven programs only updated masters absorb; topology-driven
    /// programs absorb every master exactly once per round. Changed masters
    /// re-activate. Returns the number of masters whose canonical state
    /// changed.
    pub fn absorb_masters(&mut self, program: &P) -> u32 {
        let mut changed = 0;
        match program.style() {
            Style::PushDataDriven | Style::HybridPushPull | Style::PushTopologyDriven => {
                // Direct masters-range iteration: no per-round temporary,
                // and the word-level guard exits before touching any state
                // when no master was updated. `absorb` never writes
                // `updated`, so iterating it while mutating the other
                // fields is sound.
                if self.updated.any_in_range(0..self.lg.num_masters) {
                    for lv in self.updated.iter_set_in_range(0..self.lg.num_masters) {
                        if program.absorb(&mut self.state[lv as usize]) {
                            self.active.set(lv);
                            self.bcast_dirty.set(lv);
                            changed += 1;
                        }
                    }
                }
            }
            Style::PullTopologyDriven => {
                for lv in 0..self.lg.num_masters {
                    if program.absorb(&mut self.state[lv as usize]) {
                        self.bcast_dirty.set(lv);
                        changed += 1;
                    }
                }
            }
        }
        changed
    }

    /// Builds this device's outgoing sync messages into `scratch.built`:
    /// partners in ascending order, and per partner one message for each
    /// direction in `dirs` whose link has entries — the plan's partner
    /// lists, merged by partner. Even an empty payload is sent — every host
    /// waits to hear from each of its partners, so UO messages carry at
    /// least the presence bitset; this per-partner cost is what makes CVC's
    /// restricted partner sets matter (§III-D1). On the host an empty
    /// message costs O(1): under UO a direction with nothing marked never
    /// looks at a link. Returns the pack time to charge (zero when nothing
    /// was built).
    ///
    /// BSP builds one direction per exchange; BASP builds both at once, so
    /// its sends interleave reduce and broadcast per partner.
    ///
    /// Inlined into its (three) call sites, each of which passes a literal
    /// `dirs`: the per-partner direction loop then unrolls at compile time.
    /// Dispatching on a runtime slice inside the partner loop costs the
    /// many-device, many-round BSP case about a tenth of its host time.
    #[inline(always)]
    pub fn build_sync(
        &mut self,
        program: &P,
        dirs: &[SyncDir],
        part: &Partition,
        plan: &SyncPlan,
        config: &RunConfig,
    ) -> SimTime {
        self.scratch.built.clear();
        let me = self.dev;
        let (mode, divisor) = (config.variant.comm, config.scale_divisor);
        // Per requested direction: the partners still to be served, and the
        // size of the marked set (building never changes the marks).
        let mut todo: [&[Partner]; 2] = [&[], &[]];
        let mut marked = [0usize; 2];
        for &dir in dirs {
            (todo[dir as usize], marked[dir as usize]) = match dir {
                SyncDir::Reduce => (plan.reduce_to(me), self.updated.count_ones() as usize),
                SyncDir::Broadcast => (plan.bcast_to(me), self.bcast_dirty.count_ones() as usize),
            };
        }
        let all_dirty = marked[SyncDir::Broadcast as usize] == self.lg.num_masters as usize;
        while let Some(other) = dirs
            .iter()
            .filter_map(|&dir| todo[dir as usize].first())
            .map(|pn| pn.other)
            .min()
        {
            for &dir in dirs {
                let pn = match todo[dir as usize].split_first() {
                    Some((pn, rest)) if pn.other == other => {
                        todo[dir as usize] = rest;
                        *pn
                    }
                    _ => continue,
                };
                let (mut data, bytes) = if mode == CommMode::UpdatedOnly
                    && marked[dir as usize] == 0
                {
                    // Nothing marked: the message is the presence header
                    // alone, the same for every partner but for its entry
                    // count.
                    let bytes = sized_wire_bytes(program, mode, pn.entries as u64, &[]) * divisor;
                    (Vec::new(), bytes)
                } else {
                    let (link, (entries, idx)) = match dir {
                        SyncDir::Reduce => (part.link(me, other), plan.reduce_at(pn.pair)),
                        SyncDir::Broadcast => (part.link(other, me), plan.bcast_at(pn.pair)),
                    };
                    // Which walk: the index reads the words of its
                    // participant span, one AND each, plus a rank step per
                    // hit; the dense walk reads every entry of the link
                    // and tests its mark, a branch whose outcome follows
                    // the data and so mispredicts most on the mid-density
                    // frontiers of a crawl. The index therefore takes every
                    // link but a fully dirty broadcast, where every entry
                    // ships and the walk's known-length fast path needs no
                    // test at all. Either path emits identical bytes
                    // (`tests/indexed_extraction.rs`): this is a cost
                    // choice only.
                    let idx = idx.filter(|_| !(dir == SyncDir::Broadcast && all_dirty));
                    match dir {
                        SyncDir::Reduce => {
                            self.build_reduce(program, link, entries, idx, mode, divisor)
                        }
                        SyncDir::Broadcast => self
                            .build_broadcast(program, link, entries, idx, mode, divisor, all_dirty),
                    }
                };
                if data.is_empty() {
                    self.scratch.recycle(std::mem::take(&mut data));
                }
                self.scratch.built.push(SyncMsg {
                    dir,
                    from: me,
                    to: other,
                    data,
                    bytes,
                });
            }
        }
        if self.scratch.built.is_empty() {
            SimTime::ZERO
        } else {
            self.pack_time(mode, divisor)
        }
    }

    /// Applies a delivered sync message addressed to this device. Returns
    /// true if any local state changed. Asynchronous engines pass
    /// `async_merge` so mass-conserving programs can merge a broadcast
    /// additively instead of overwriting.
    pub fn apply_sync(
        &mut self,
        program: &P,
        part: &Partition,
        msg: &SyncMsg<P::Wire>,
        async_merge: bool,
    ) -> bool {
        debug_assert_eq!(msg.to, self.dev);
        match msg.dir {
            SyncDir::Reduce => self.apply_reduce(program, part.link(msg.from, msg.to), &msg.data),
            SyncDir::Broadcast => {
                let link = part.link(msg.to, msg.from);
                self.apply_broadcast(program, link, &msg.data, async_merge)
            }
        }
    }

    /// Builds the reduce payload for one link: `(entry index, delta)` pairs
    /// plus the wire size (paper-equivalent bytes). Under UO only updated
    /// mirrors are extracted; under AS every participating entry is sent.
    ///
    /// With an [`ExtractIndex`], UO extraction iterates
    /// `updated ∧ members` word-by-word over the words that hold the link's
    /// participants and touches only updated entries — cost proportional
    /// to that span plus the updates, not to the link's entries. The
    /// link's sides are strictly ascending in local ids (an index exists
    /// only then), so ascending local-id order *is* ascending entry order
    /// and the payload is byte-identical to the dense walk's. Simulated
    /// pack time is unchanged: the GPU-side prefix scan the model charges
    /// still runs over all local proxies.
    pub fn build_reduce(
        &mut self,
        program: &P,
        link: &PairLink,
        entries: &[u32],
        index: Option<&ExtractIndex>,
        mode: CommMode,
        divisor: u64,
    ) -> (Vec<(u32, P::Wire)>, u64) {
        let mut payload = self.scratch.take_buf();
        match index {
            Some(idx) if mode == CommMode::UpdatedOnly => {
                // Word-batched: the rank word and membership word load once
                // per 64 local ids instead of once per updated mirror. Same
                // ascending order, byte-identical payload.
                let state = &mut self.state;
                idx.for_each_entry(&self.updated, |lv, e| {
                    payload.push((e, program.take_delta(&mut state[lv as usize])));
                });
            }
            _ => {
                for &e in entries {
                    let lv = link.mirror_side[e as usize];
                    if mode == CommMode::AllShared || self.updated.get(lv) {
                        payload.push((e, program.take_delta(&mut self.state[lv as usize])));
                    }
                }
            }
        }
        let bytes = sized_wire_bytes(program, mode, entries.len() as u64, &payload) * divisor;
        (payload, bytes)
    }

    /// Applies a reduce payload on the master side, accumulating deltas and
    /// marking recipients updated. Returns true if anything changed.
    fn apply_reduce(&mut self, program: &P, link: &PairLink, payload: &[(u32, P::Wire)]) -> bool {
        let mut any = false;
        for &(e, v) in payload {
            let lv = link.master_side[e as usize];
            if program.accumulate(&mut self.state[lv as usize], v) {
                self.updated.set(lv);
                any = true;
            }
        }
        any
    }

    /// Builds the broadcast payload for one link (master side): canonical
    /// values of updated (UO) or all (AS) participating masters. Same
    /// index fast path and ordering argument as [`DeviceRun::build_reduce`],
    /// over `bcast_dirty ∧ members` of the link's master side. `all_dirty`
    /// says every master of this device is marked.
    #[allow(clippy::too_many_arguments)]
    pub fn build_broadcast(
        &mut self,
        program: &P,
        link: &PairLink,
        entries: &[u32],
        index: Option<&ExtractIndex>,
        mode: CommMode,
        divisor: u64,
        all_dirty: bool,
    ) -> (Vec<(u32, P::Wire)>, u64) {
        let mut payload = self.scratch.take_buf();
        match index {
            Some(idx) if mode == CommMode::UpdatedOnly => {
                let state = &self.state;
                idx.for_each_entry(&self.bcast_dirty, |lv, e| {
                    payload.push((e, program.canonical(&state[lv as usize])));
                });
            }
            _ => {
                // Fully-dirty fast path: residual-style rounds mark every
                // master, making the per-entry dirty test pure overhead
                // (`bcast_dirty` only ever holds masters, so `all_dirty`, a
                // full count, means every link entry passes). Same payload
                // bytes.
                if mode == CommMode::UpdatedOnly && all_dirty {
                    // Known-length extraction: one reservation, no
                    // per-entry capacity or dirty test.
                    let state = &self.state;
                    payload.extend(entries.iter().map(|&e| {
                        let st = &state[link.master_side[e as usize] as usize];
                        (e, program.canonical(st))
                    }));
                } else {
                    for &e in entries {
                        let lv = link.master_side[e as usize];
                        if mode == CommMode::AllShared || self.bcast_dirty.get(lv) {
                            payload.push((e, program.canonical(&self.state[lv as usize])));
                        }
                    }
                }
            }
        }
        let bytes = sized_wire_bytes(program, mode, entries.len() as u64, &payload) * divisor;
        (payload, bytes)
    }

    /// Applies a broadcast payload on the mirror side; changed mirrors
    /// activate (data-driven).
    fn apply_broadcast(
        &mut self,
        program: &P,
        link: &PairLink,
        payload: &[(u32, P::Wire)],
        async_merge: bool,
    ) -> bool {
        let data_driven = program.style() != Style::PullTopologyDriven;
        let mut any = false;
        for &(e, v) in payload {
            let lv = link.mirror_side[e as usize];
            let st = &mut self.state[lv as usize];
            let changed = if async_merge {
                program.merge_canonical_async(st, v)
            } else {
                program.set_canonical(st, v)
            };
            if changed {
                any = true;
                if data_driven {
                    self.active.set(lv);
                }
            }
        }
        any
    }

    /// Asynchronous pull engines: consume every mirror's read-side value
    /// after a local pull round (see
    /// [`VertexProgram::consume_after_pull`]).
    pub fn consume_mirrors_after_pull(&mut self, program: &P) {
        for lv in self.lg.num_masters..self.lg.num_vertices() {
            program.consume_after_pull(&mut self.state[lv as usize]);
        }
    }

    /// Clears both synchronization tracking bitsets (end of a round's
    /// sync). Programs with per-state sync bookkeeping (the K-lane
    /// adapter's dirty-lane masks) get their [`VertexProgram::on_sync_cleared`]
    /// hook on exactly the masters whose broadcast mark is being dropped.
    pub fn clear_sync_marks(&mut self, program: &P) {
        if program.wants_sync_clear() {
            for lv in self.bcast_dirty.iter_set_in_range(0..self.lg.num_masters) {
                program.on_sync_cleared(&mut self.state[lv as usize]);
            }
        }
        self.updated.clear_all();
        self.bcast_dirty.clear_all();
    }

    /// UO extraction cost for one sync direction on this device (prefix
    /// scan over all local proxies, in paper-equivalent items).
    fn pack_time(&self, mode: CommMode, divisor: u64) -> SimTime {
        match mode {
            CommMode::AllShared => SimTime::ZERO,
            CommMode::UpdatedOnly => SimTime::from_secs_f64(
                self.kernel
                    .scan_time(self.lg.num_vertices() as u64 * divisor),
            ),
        }
    }
}

/// Wire size of one built sync message, sized per entry through the
/// program's [`VertexProgram::wire_bytes`] /
/// [`VertexProgram::wire_payload_bytes`] hooks. For scalar programs (fixed
/// [`message::VAL_BYTES`] entries) this reproduces [`message::message_bytes`]
/// exactly; K-lane payloads scale with per-entry active-lane popcounts.
fn sized_wire_bytes<P: VertexProgram>(
    program: &P,
    mode: CommMode,
    entries: u64,
    payload: &[(u32, P::Wire)],
) -> u64 {
    let uo_payload = match mode {
        CommMode::UpdatedOnly => payload
            .iter()
            .map(|(_, w)| program.wire_payload_bytes(w))
            .sum(),
        CommMode::AllShared => 0,
    };
    message::message_bytes_sized(mode, entries, entries * program.wire_bytes(), uo_payload)
}

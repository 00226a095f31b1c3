//! Sharded window **lanes**: the dual sliding window, partitioned.
//!
//! The dual sliding window (paper §IV-C) is per-object state: an object's
//! `Grown`/`Expired` transitions depend only on its own timestamp and the
//! window lengths. The window engine therefore shards cleanly by the same
//! spatial hash the cell store uses — [`surge_core::LaneRouter`] assigns
//! every object a home lane (`shard_of_cell` of its reduced rectangle's
//! anchor cell), and each lane runs an independent [`SlidingWindowEngine`]
//! over its own objects.
//!
//! The recombination contract is exact, not approximate: a k-way merge of
//! the lane streams by the canonical key [`Event::order_key`] —
//! `(transition_time, kind_rank, object_id)` — is **bit-identical** to the
//! monolithic engine's emission, for any lane count, provided
//! equal-timestamp arrivals carry increasing object ids (asserted by
//! [`WindowLane::observe_into`]). The proof shape: the monolithic stream
//! restricted to one lane's objects equals that lane's own emission (same
//! clock schedule, same due-sets, same FIFO tie order), so the monolithic
//! stream is *an* interleaving of the lane streams; and whenever the
//! monolithic engine emits an event, every lane has already drained its
//! earlier-keyed transitions (pending transitions are drained before each
//! arrival), so the interleaving always takes the minimum front — which is
//! exactly what [`LaneMerger`] does. `tests/lane_differential.rs` checks
//! this bit-for-bit under duplicate timestamps, cross-lane transition ties
//! and zero-length past windows.
//!
//! Two consumers build on the decomposition:
//!
//! * [`ShardedWindowEngine`] — an in-process drop-in for the monolithic
//!   engine that routes arrivals to lanes and re-merges eagerly; it exposes
//!   per-lane transition counters (`max_lane_transitions` is the expansion
//!   critical path reported by `surge_exp window-bench`).
//! * the shard mesh ([`crate::elastic::drive_elastic`]) — gives each shard
//!   worker *one lane*: workers expand their own transitions from the raw
//!   object stream and exchange lane batches peer-to-peer, so event
//!   expansion itself runs shard-parallel instead of on the driver thread.

use surge_core::{
    EngineState, Event, LaneRouter, ObjectId, RegionSize, RestoreError, SpatialObject, Timestamp,
    WindowConfig,
};

use crate::window::{EventBatch, SlidingWindowEngine};

/// Lifetime counters of one window lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Arrivals routed to this lane (`New` events it emitted).
    pub arrivals: u64,
    /// `Grown`/`Expired` transitions this lane expanded.
    pub transitions: u64,
}

impl LaneStats {
    /// Total events this lane emitted.
    #[inline]
    pub fn events(&self) -> u64 {
        self.arrivals + self.transitions
    }
}

/// One shard's window lane: a [`SlidingWindowEngine`] over the objects homed
/// to this lane, fed the *full* arrival stream.
///
/// Every lane observes every object, in stream order: home objects are
/// pushed (emitting their pending transitions, then `New`), foreign objects
/// only advance the lane clock (emitting transitions that came due). All
/// lanes therefore share the monolithic engine's clock schedule, which is
/// what makes the lane streams merge back bit-identically (module docs).
#[derive(Debug, Clone)]
pub struct WindowLane {
    router: LaneRouter,
    lane: usize,
    engine: SlidingWindowEngine,
    stats: LaneStats,
    last_arrival: Option<(Timestamp, ObjectId)>,
}

impl WindowLane {
    /// The lane `lane` of a `lane_count`-way decomposition for a
    /// `region`-sized query.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range for the router's (power-of-two
    /// rounded) lane count.
    pub fn new(windows: WindowConfig, region: RegionSize, lane: usize, lane_count: usize) -> Self {
        let router = LaneRouter::new(region, lane_count);
        assert!(lane < router.lane_count(), "lane index out of range");
        WindowLane {
            router,
            lane,
            engine: SlidingWindowEngine::new(windows),
            stats: LaneStats::default(),
            last_arrival: None,
        }
    }

    /// Rebuilds the lane of a `lane_count`-way decomposition from a
    /// **monolithic** engine's captured state: the lane adopts the objects
    /// homed to it and the global clock, so the restored lane set merges
    /// back into exactly the event stream the monolithic engine would have
    /// emitted (the lane-decomposition contract, unchanged by a restore).
    ///
    /// The per-lane `started` flag is set from the global one — lane-level
    /// stability is not recoverable from monolithic state, and nothing
    /// downstream observes it except the aggregated
    /// [`ShardedWindowEngine::is_stable`]. Lane counters restart at zero.
    pub fn from_state(
        state: &EngineState,
        region: RegionSize,
        lane: usize,
        lane_count: usize,
    ) -> Result<Self, RestoreError> {
        let router = LaneRouter::new(region, lane_count);
        if lane >= router.lane_count() {
            return Err(RestoreError::new(format!(
                "lane {lane} out of range for {} lanes",
                router.lane_count()
            )));
        }
        let mine = |o: &&SpatialObject| router.lane_of(o) == lane;
        let lane_state = EngineState {
            windows: state.windows,
            now: state.now,
            last_created: state.last_created,
            started: state.started,
            last_arrival: state.last_arrival,
            current: state.current.iter().filter(mine).copied().collect(),
            past: state.past.iter().filter(mine).copied().collect(),
        };
        Ok(WindowLane {
            router,
            lane,
            engine: SlidingWindowEngine::from_state(&lane_state)?,
            stats: LaneStats::default(),
            last_arrival: state.last_arrival,
        })
    }

    /// This lane's index.
    #[inline]
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// This lane's counters.
    #[inline]
    pub fn stats(&self) -> LaneStats {
        self.stats
    }

    /// The lane's engine (for inspecting residency).
    #[inline]
    pub fn engine(&self) -> &SlidingWindowEngine {
        &self.engine
    }

    /// The last arrival this lane observed (`(created, id)`), tracking the
    /// **full** stream — every lane sees every arrival, home or not — unlike
    /// the per-lane engine, which only records its own pushes. This is the
    /// value a merged checkpoint must carry so a restored lane set rejects
    /// exactly the arrivals the original would have.
    #[inline]
    pub fn last_arrival(&self) -> Option<(Timestamp, ObjectId)> {
        self.last_arrival
    }

    /// Observes one arrival from the global stream: pushes it if this lane
    /// is its home, otherwise advances the lane clock to its timestamp.
    /// Either way the caused events are appended to `out`, in this lane's
    /// emission order. Returns the object's home lane.
    ///
    /// # Panics
    ///
    /// Panics if the stream is not timestamp-ordered, or if equal-timestamp
    /// arrivals do not carry increasing object ids — the precondition for
    /// the canonical `(at, kind_rank, id)` order to reproduce the monolithic
    /// engine (ids are unique and assigned on arrival in every driver).
    pub fn observe_into(&mut self, object: &SpatialObject, out: &mut EventBatch) -> usize {
        if let Some((t, id)) = self.last_arrival {
            assert!(
                object.created > t || (object.created == t && object.id > id),
                "window lanes need equal-timestamp arrivals in increasing id order: \
                 got object {} at {} after object {} at {}",
                object.id,
                object.created,
                id,
                t
            );
        }
        self.last_arrival = Some((object.created, object.id));
        let before = out.len();
        let home = self.router.lane_of(object);
        if home == self.lane {
            self.engine.push_into(*object, out);
            self.stats.arrivals += 1;
            self.stats.transitions += (out.len() - before - 1) as u64;
        } else {
            self.engine.advance_into(object.created, out);
            self.stats.transitions += (out.len() - before) as u64;
        }
        home
    }

    /// Advances this lane's clock to `t` without an arrival, appending the
    /// transitions that came due to `out`.
    pub fn advance_into(&mut self, t: Timestamp, out: &mut EventBatch) {
        let before = out.len();
        self.engine.advance_into(t, out);
        self.stats.transitions += (out.len() - before) as u64;
    }

    /// Drains this lane's tail (see [`SlidingWindowEngine::finish`]),
    /// appending the transitions to `out`.
    pub fn finish_into(&mut self, out: &mut EventBatch) {
        let before = out.len();
        self.engine.finish_into(out);
        self.stats.transitions += (out.len() - before) as u64;
    }
}

/// Deterministic k-way merge of lane event streams by [`Event::order_key`].
///
/// The cursor vector is reused across calls, so a long-lived merger (one per
/// shard worker, one inside [`ShardedWindowEngine`]) allocates only on lane
/// count growth. Emission picks the minimum front key each step (ties —
/// impossible under unique ids — would resolve to the lowest lane), which is
/// exactly the interleaving the monolithic engine produces.
#[derive(Debug, Clone, Default)]
pub struct LaneMerger {
    cursors: Vec<usize>,
}

impl LaneMerger {
    /// A merger with no lanes yet (cursors grow on first use).
    pub fn new() -> Self {
        LaneMerger::default()
    }

    /// Merges `streams` (one per lane, each in lane emission order) into
    /// `emit`, in the canonical global order. Generic over anything
    /// event-slice-shaped (`&[Event]`, [`EventBatch`], `Arc<[Event]>`) so
    /// callers pass their buffers directly — no per-call slice `Vec`.
    pub fn merge<S: AsRef<[Event]>>(&mut self, streams: &[S], mut emit: impl FnMut(&Event)) {
        self.cursors.clear();
        self.cursors.resize(streams.len(), 0);
        loop {
            let mut best: Option<(usize, (Timestamp, u8, ObjectId))> = None;
            for (lane, stream) in streams.iter().enumerate() {
                if let Some(ev) = stream.as_ref().get(self.cursors[lane]) {
                    let key = ev.order_key();
                    if best.is_none_or(|(_, k)| key < k) {
                        best = Some((lane, key));
                    }
                }
            }
            let Some((lane, _)) = best else { break };
            emit(&streams[lane].as_ref()[self.cursors[lane]]);
            self.cursors[lane] += 1;
        }
    }
}

/// Merges a complete lane set's per-engine states into the **monolithic**
/// [`EngineState`] the unsharded engine at the same stream position would
/// capture: residents re-merged in arrival order (`(created, id)`), the
/// clock fields from the lanes' shared schedule, `last_arrival` from the
/// lane-level full-stream tracker (lane 0 — every lane tracks the whole
/// stream).
///
/// This is both [`ShardedWindowEngine::checkpoint`] and the pause-marker
/// half of a live reshard: the elastic driver joins its epoch's lanes,
/// merges them here, and rebuilds lanes at the new count with
/// [`WindowLane::from_state`] — bit-identically, because lane count is
/// purely structural.
///
/// # Panics
///
/// Panics on an empty lane set (a mesh always has at least one lane).
pub fn merge_lane_states(windows: WindowConfig, lanes: &[WindowLane]) -> EngineState {
    let mut current: Vec<SpatialObject> = Vec::new();
    let mut past: Vec<SpatialObject> = Vec::new();
    let mut now = 0;
    let mut last_created = 0;
    let mut started = false;
    for lane in lanes {
        let state = lane.engine.checkpoint();
        current.extend(state.current);
        past.extend(state.past);
        now = now.max(state.now);
        last_created = last_created.max(state.last_created);
        started |= state.started;
    }
    current.sort_by_key(|o| (o.created, o.id));
    past.sort_by_key(|o| (o.created, o.id));
    EngineState {
        windows,
        now,
        last_created,
        started,
        // Every lane tracks the full arrival stream; lane 0 always exists.
        last_arrival: lanes[0].last_arrival,
        current,
        past,
    }
}

/// The sharded window engine: a drop-in for [`SlidingWindowEngine`] whose
/// event expansion is partitioned into per-shard window lanes.
///
/// Arrivals route to the lane of their home shard; every `*_into` call
/// expands each lane and re-merges the lane batches by the canonical order
/// key, so the emitted stream is bit-identical to the monolithic engine's
/// (differentially proptested in `tests/lane_differential.rs`). Per-lane
/// transition counters expose the expansion critical path
/// ([`max_lane_transitions`](Self::max_lane_transitions)) — on a multi-core
/// host the lanes are what the shard mesh (`drive_elastic`) distributes
/// across shard workers.
#[derive(Debug, Clone)]
pub struct ShardedWindowEngine {
    windows: WindowConfig,
    lanes: Vec<WindowLane>,
    scratch: Vec<EventBatch>,
    merger: LaneMerger,
}

impl ShardedWindowEngine {
    /// An engine with `lane_count` lanes (rounded up to a power of two,
    /// minimum 1) for a `region`-sized query.
    pub fn new(windows: WindowConfig, region: RegionSize, lane_count: usize) -> Self {
        let n = LaneRouter::new(region, lane_count).lane_count();
        ShardedWindowEngine {
            windows,
            lanes: (0..n)
                .map(|l| WindowLane::new(windows, region, l, n))
                .collect(),
            scratch: (0..n).map(|_| EventBatch::new()).collect(),
            merger: LaneMerger::new(),
        }
    }

    /// Rebuilds a sharded engine from a **monolithic** engine's captured
    /// state ([`SlidingWindowEngine::checkpoint`]): each lane adopts the
    /// objects homed to it (see [`WindowLane::from_state`]). The restored
    /// engine's merged emission is bit-identical to what the restored
    /// monolithic engine would emit — lane count remains purely structural
    /// across a checkpoint/restore cycle.
    pub fn from_state(
        state: &EngineState,
        region: RegionSize,
        lane_count: usize,
    ) -> Result<Self, RestoreError> {
        let n = LaneRouter::new(region, lane_count).lane_count();
        let lanes = (0..n)
            .map(|l| WindowLane::from_state(state, region, l, n))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedWindowEngine {
            windows: state.windows,
            lanes,
            scratch: (0..n).map(|_| EventBatch::new()).collect(),
            merger: LaneMerger::new(),
        })
    }

    /// Captures the engine's logical state as the **monolithic**
    /// [`EngineState`] — the lane decomposition is purely structural, so a
    /// sharded engine checkpoints to exactly the state the monolithic
    /// engine at the same stream position would capture (bit-identical,
    /// unit-tested). Residents are re-merged in arrival order
    /// (`(created, id)`, the order every lane observes them in); the clock
    /// fields come from the lanes' shared schedule.
    ///
    /// The inverse of [`ShardedWindowEngine::from_state`]: a state captured
    /// here restores into either engine shape at any lane count.
    pub fn checkpoint(&self) -> EngineState {
        merge_lane_states(self.windows, &self.lanes)
    }

    /// The window configuration.
    pub fn windows(&self) -> WindowConfig {
        self.windows
    }

    /// Number of lanes (a power of two).
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Per-lane counters, indexed by lane.
    pub fn lane_stats(&self) -> Vec<LaneStats> {
        self.lanes.iter().map(WindowLane::stats).collect()
    }

    /// The expansion critical path: the largest per-lane transition count.
    /// Total transitions are invariant under lane count; scaling shows up as
    /// this dropping toward `transitions / lanes`.
    pub fn max_lane_transitions(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.stats().transitions)
            .max()
            .unwrap_or(0)
    }

    /// Total events emitted across all lanes.
    pub fn total_events(&self) -> u64 {
        self.lanes.iter().map(|l| l.stats().events()).sum()
    }

    /// The engine clock (largest timestamp observed by any lane).
    pub fn now(&self) -> Timestamp {
        self.lanes
            .iter()
            .map(|l| l.engine().now())
            .max()
            .unwrap_or(0)
    }

    /// Objects resident in the current window, across all lanes.
    pub fn current_len(&self) -> usize {
        self.lanes.iter().map(|l| l.engine().current_len()).sum()
    }

    /// Objects resident in the past window, across all lanes.
    pub fn past_len(&self) -> usize {
        self.lanes.iter().map(|l| l.engine().past_len()).sum()
    }

    /// Whether any lane has seen an expiry (the stream is stable in the
    /// paper's sense).
    pub fn is_stable(&self) -> bool {
        self.lanes.iter().any(|l| l.engine().is_stable())
    }

    /// Ingests one object: every lane observes it (home lane pushes, others
    /// advance), and the merged events — bit-identical to what the
    /// monolithic engine would emit for this push — are appended to `out`.
    ///
    /// Same panics as [`WindowLane::observe_into`].
    pub fn push_into(&mut self, object: SpatialObject, out: &mut EventBatch) {
        for (lane, batch) in self.lanes.iter_mut().zip(self.scratch.iter_mut()) {
            batch.clear();
            lane.observe_into(&object, batch);
        }
        self.merge_scratch(out);
    }

    /// [`push_into`](Self::push_into) returning a fresh `Vec`.
    pub fn push(&mut self, object: SpatialObject) -> Vec<Event> {
        let mut out = EventBatch::new();
        self.push_into(object, &mut out);
        out.as_slice().to_vec()
    }

    /// Advances every lane's clock to `t`, appending the merged transitions
    /// to `out`.
    pub fn advance_into(&mut self, t: Timestamp, out: &mut EventBatch) {
        for (lane, batch) in self.lanes.iter_mut().zip(self.scratch.iter_mut()) {
            batch.clear();
            lane.advance_into(t, batch);
        }
        self.merge_scratch(out);
    }

    /// Drains every lane's tail, appending the merged transitions to `out`
    /// (see [`SlidingWindowEngine::finish`]).
    pub fn finish_into(&mut self, out: &mut EventBatch) {
        for (lane, batch) in self.lanes.iter_mut().zip(self.scratch.iter_mut()) {
            batch.clear();
            lane.finish_into(batch);
        }
        self.merge_scratch(out);
    }

    /// [`finish_into`](Self::finish_into) returning a fresh `Vec`.
    pub fn finish(&mut self) -> Vec<Event> {
        let mut out = EventBatch::new();
        self.finish_into(&mut out);
        out.as_slice().to_vec()
    }

    fn merge_scratch(&mut self, out: &mut EventBatch) {
        // The merger indexes the scratch batches directly: steady-state
        // expansion allocates nothing, matching the monolithic engine.
        self.merger.merge(&self.scratch, |ev| out.push(*ev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surge_core::{EventKind, Point};

    fn obj(id: u64, x: f64, t: Timestamp) -> SpatialObject {
        SpatialObject::new(id, 1.0, Point::new(x, 0.5), t)
    }

    fn region() -> RegionSize {
        RegionSize::new(1.0, 1.0)
    }

    fn expand_mono(objs: &[SpatialObject], windows: WindowConfig) -> Vec<Event> {
        let mut eng = SlidingWindowEngine::new(windows);
        let mut out = EventBatch::new();
        for o in objs {
            eng.push_into(*o, &mut out);
        }
        eng.finish_into(&mut out);
        out.as_slice().to_vec()
    }

    fn expand_lanes(
        objs: &[SpatialObject],
        windows: WindowConfig,
        lanes: usize,
    ) -> (Vec<Event>, ShardedWindowEngine) {
        let mut eng = ShardedWindowEngine::new(windows, region(), lanes);
        let mut out = EventBatch::new();
        for o in objs {
            eng.push_into(*o, &mut out);
        }
        eng.finish_into(&mut out);
        (out.as_slice().to_vec(), eng)
    }

    fn assert_streams_identical(a: &[Event], b: &[Event]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.at, y.at);
            assert_eq!(x.object.id, y.object.id);
            assert_eq!(x.object.created, y.object.created);
            assert_eq!(x.object.weight.to_bits(), y.object.weight.to_bits());
            assert_eq!(x.object.pos.x.to_bits(), y.object.pos.x.to_bits());
            assert_eq!(x.object.pos.y.to_bits(), y.object.pos.y.to_bits());
        }
    }

    #[test]
    fn single_lane_is_the_monolithic_engine() {
        let objs: Vec<_> = (0..40)
            .map(|i| obj(i, (i % 7) as f64 * 1.7, i * 30))
            .collect();
        let windows = WindowConfig::equal(250);
        let (merged, eng) = expand_lanes(&objs, windows, 1);
        assert_streams_identical(&merged, &expand_mono(&objs, windows));
        assert_eq!(eng.lane_count(), 1);
        assert_eq!(eng.lane_stats()[0].arrivals, 40);
    }

    #[test]
    fn lanes_merge_bit_identical_with_duplicate_timestamps() {
        // Bursts of equal-timestamp arrivals spread across distinct cells.
        let mut objs = Vec::new();
        for i in 0u64..60 {
            objs.push(obj(i, (i % 9) as f64 * 2.3, (i / 3) * 40));
        }
        let windows = WindowConfig::equal(170);
        let mono = expand_mono(&objs, windows);
        for lanes in [1usize, 2, 4, 8] {
            let (merged, eng) = expand_lanes(&objs, windows, lanes);
            assert_streams_identical(&merged, &mono);
            let stats = eng.lane_stats();
            assert_eq!(stats.iter().map(|s| s.arrivals).sum::<u64>(), 60);
            assert_eq!(eng.total_events(), mono.len() as u64);
            assert_eq!(eng.current_len() + eng.past_len(), 0);
        }
    }

    #[test]
    fn grow_expire_ties_across_lanes_keep_canonical_order() {
        // Objects in different lanes engineered so grow and expire
        // transitions collide at t=200: o0 (lane of x=0.5) expires at 200
        // while o1 (far cell) grows at 200.
        let objs = vec![obj(0, 0.5, 0), obj(1, 40.5, 100), obj(2, 80.5, 100)];
        let windows = WindowConfig::equal(100);
        let mono = expand_mono(&objs, windows);
        for lanes in [2usize, 4, 8] {
            let (merged, _) = expand_lanes(&objs, windows, lanes);
            assert_streams_identical(&merged, &mono);
        }
        // The canonical order puts the tied Growns (rank 0, id order) before
        // the tied Expired (rank 1).
        let at200: Vec<(EventKind, u64)> = mono
            .iter()
            .filter(|e| e.at == 200)
            .map(|e| (e.kind, e.object.id))
            .collect();
        assert_eq!(
            at200,
            vec![
                (EventKind::Grown, 1),
                (EventKind::Grown, 2),
                (EventKind::Expired, 0),
            ]
        );
    }

    #[test]
    fn zero_length_past_window_merges_identically() {
        let objs: Vec<_> = (0..30)
            .map(|i| obj(i, (i % 5) as f64 * 3.1, (i / 2) * 25))
            .collect();
        let windows = WindowConfig::new(50, 0);
        let mono = expand_mono(&objs, windows);
        for lanes in [2usize, 8] {
            let (merged, _) = expand_lanes(&objs, windows, lanes);
            assert_streams_identical(&merged, &mono);
        }
    }

    #[test]
    fn max_lane_transitions_drops_with_lane_count() {
        let objs: Vec<_> = (0..400)
            .map(|i| obj(i, (i % 97) as f64 * 1.3, i * 5))
            .collect();
        let windows = WindowConfig::equal(300);
        let (_, one) = expand_lanes(&objs, windows, 1);
        let (_, eight) = expand_lanes(&objs, windows, 8);
        assert!(eight.max_lane_transitions() < one.max_lane_transitions());
        // Work is conserved: the lanes partition the same transitions.
        assert_eq!(
            one.lane_stats().iter().map(|s| s.transitions).sum::<u64>(),
            eight
                .lane_stats()
                .iter()
                .map(|s| s.transitions)
                .sum::<u64>()
        );
    }

    #[test]
    fn restored_lanes_resume_bit_identical_to_restored_monolith() {
        let objs: Vec<_> = (0..80)
            .map(|i| obj(i, (i % 11) as f64 * 1.9, (i / 2) * 35))
            .collect();
        let windows = WindowConfig::new(170, 60);
        let (head, tail) = objs.split_at(33);

        // Run the head through a monolithic engine, checkpoint it.
        let mut mono = SlidingWindowEngine::new(windows);
        let mut sink = EventBatch::new();
        for o in head {
            mono.push_into(*o, &mut sink);
        }
        let state = mono.checkpoint();

        // Resume the monolithic engine and every lane count from the same
        // state; the suffix emissions must be bit-identical.
        let mut reference = SlidingWindowEngine::from_state(&state).unwrap();
        let mut ref_out = EventBatch::new();
        for o in tail {
            reference.push_into(*o, &mut ref_out);
        }
        reference.finish_into(&mut ref_out);

        for lanes in [1usize, 2, 8] {
            let mut eng = ShardedWindowEngine::from_state(&state, region(), lanes).unwrap();
            assert_eq!(eng.current_len(), state.current.len());
            assert_eq!(eng.past_len(), state.past.len());
            let mut out = EventBatch::new();
            for o in tail {
                eng.push_into(*o, &mut out);
            }
            eng.finish_into(&mut out);
            assert_streams_identical(out.as_slice(), ref_out.as_slice());
        }
    }

    #[test]
    fn sharded_checkpoint_is_bitwise_the_monolithic_checkpoint() {
        let objs: Vec<_> = (0..90)
            .map(|i| obj(i, (i % 13) as f64 * 2.1, (i / 3) * 45))
            .collect();
        let windows = WindowConfig::new(260, 90);

        let mut mono = SlidingWindowEngine::new(windows);
        let mut sink = EventBatch::new();
        for o in &objs {
            mono.push_into(*o, &mut sink);
        }
        let want = mono.checkpoint();

        for lanes in [1usize, 2, 8] {
            let mut eng = ShardedWindowEngine::new(windows, region(), lanes);
            let mut out = EventBatch::new();
            for o in &objs {
                eng.push_into(*o, &mut out);
            }
            let got = eng.checkpoint();
            assert_eq!(got.windows, want.windows, "lanes {lanes}");
            assert_eq!(got.now, want.now);
            assert_eq!(got.last_created, want.last_created);
            assert_eq!(got.started, want.started);
            assert_eq!(got.last_arrival, want.last_arrival);
            assert_eq!(got.current.len(), want.current.len());
            assert_eq!(got.past.len(), want.past.len());
            for (a, b) in got
                .current
                .iter()
                .chain(got.past.iter())
                .zip(want.current.iter().chain(want.past.iter()))
            {
                assert_eq!(a.id, b.id);
                assert_eq!(a.created, b.created);
                assert_eq!(a.weight.to_bits(), b.weight.to_bits());
                assert_eq!(a.pos.x.to_bits(), b.pos.x.to_bits());
                assert_eq!(a.pos.y.to_bits(), b.pos.y.to_bits());
            }

            // Round trip: the captured state restores into both engine
            // shapes and the suffix emissions stay bit-identical.
            let mut ref_eng = SlidingWindowEngine::from_state(&got).unwrap();
            let mut resumed = ShardedWindowEngine::from_state(&got, region(), lanes).unwrap();
            let suffix: Vec<_> = (90..140u64)
                .map(|i| obj(i, (i % 13) as f64 * 2.1, (i / 3) * 45))
                .collect();
            let (mut a, mut b) = (EventBatch::new(), EventBatch::new());
            for o in &suffix {
                ref_eng.push_into(*o, &mut a);
                resumed.push_into(*o, &mut b);
            }
            ref_eng.finish_into(&mut a);
            resumed.finish_into(&mut b);
            assert_streams_identical(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "increasing id order")]
    fn equal_timestamp_id_regression_rejected() {
        let mut eng = ShardedWindowEngine::new(WindowConfig::equal(100), region(), 4);
        let mut out = EventBatch::new();
        eng.push_into(obj(5, 0.5, 10), &mut out);
        eng.push_into(obj(3, 1.5, 10), &mut out); // same t, smaller id
    }

    #[test]
    fn merger_is_reusable_and_orders_by_key() {
        let o1 = obj(1, 0.0, 0);
        let o2 = obj(2, 0.0, 0);
        let a = [Event::grown(o1, 100), Event::new_arrival(obj(7, 0.0, 100))];
        let b = [Event::grown(o2, 100), Event::expired(o2, 150)];
        let mut merger = LaneMerger::new();
        let mut got = Vec::new();
        merger.merge(&[&a, &b], |e| got.push((e.at, e.kind.rank(), e.object.id)));
        assert_eq!(
            got,
            vec![(100, 0, 1), (100, 0, 2), (100, 2, 7), (150, 1, 2)]
        );
        // Second use with a different lane count.
        let mut got = Vec::new();
        merger.merge(&[&b], |e| got.push(e.object.id));
        assert_eq!(got, vec![2, 2]);
    }
}

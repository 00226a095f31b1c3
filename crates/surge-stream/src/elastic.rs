//! The shard mesh: parallel event expansion, ingest and dirty-cell sweeps,
//! with work stealing under skew and live resharding — all bit-identical
//! to the sequential drivers.
//!
//! [`crate::parallel::drive_incremental`] parallelizes the per-slide sweeps
//! but expands and applies every event on the calling thread. This driver
//! runs the whole pipeline on one worker thread per shard:
//!
//! * **Window lanes.** The driver broadcasts raw *object* batches (shared,
//!   not copied). Each worker owns one [`WindowLane`] — the dual sliding
//!   window of the objects homed to its shard — expands its own
//!   `Grown`/`Expired` transitions, exchanges the per-lane event batches
//!   peer-to-peer and re-merges them by [`Event::order_key`] before
//!   applying events to its own cells. The merged sequence is
//!   bit-identical to the monolithic engine's emission (see
//!   [`crate::lanes`]), so per-cell event order is exactly the sequential
//!   drivers'.
//! * **Flushes.** At each slide boundary every worker sweeps its own dirty
//!   cells in place and answers with its shard-local best. Merging the
//!   answers by [`ShardAnswer::merge_key`] reproduces the sequential
//!   best-first scan exactly, because no cell's queue key sits below the
//!   score the scans report for it (see `surge_exact::CellCspot`). By
//!   default a flush is a single round: `Flush` → `Answer` carrying the
//!   shard best, the pre-sweep dirty count and the lane counters.
//! * **Work stealing.** A flush whose predecessor the [`ShardBalancer`]
//!   saw as skewed (`streak > 0`) runs the four-phase steal handshake
//!   instead: `FlushBegin` → dirty counts → `Export` → jobs → `Sweep` →
//!   outcomes → `Install` → answers. The driver computes a deterministic
//!   [steal plan](StealPlan) (donors export the ascending tail of their
//!   dirty list down to the fair share; thieves fill up to it, both in
//!   index order) and ships whole cells as pure rebuild jobs, bit-identical
//!   to in-place sweeps by construction. Sweep *attribution* follows the
//!   work: the thief counts stolen jobs, the donor counts kept cells and
//!   installs imported outcomes without counting.
//! * **Live resharding.** The balancer folds each flush's per-shard dirty
//!   counts and per-lane transition deltas into a load signal. After
//!   [`BalancerPolicy::patience`] skewed flushes it recommends doubling the
//!   shard count, and the driver ends the *epoch* at that slide boundary:
//!   it pauses the mesh, merges the window lanes into one
//!   [`surge_core::EngineState`] ([`merge_lane_states`]), re-homes every
//!   cell through the detector's checkpoint path
//!   ([`ShardedIngest::reshard`]), rebuilds the lanes at the new count with
//!   [`WindowLane::from_state`] and resumes the stream where it left off.
//!
//! The steal and split decisions are pure functions of flush-boundary
//! counters, so a crash-replayed run re-derives the same schedule.
//! [`BalancerPolicy::STATIC`] never rebalances: a fixed mesh of
//! single-round flushes. Answers are bit-identical for every policy, shard
//! count, steal schedule and reshard history
//! (`tests/elastic_differential.rs`).
//!
//! Every command has exactly one reply and the driver never has two
//! commands in flight per worker, so the bounded command channels cannot
//! deadlock regardless of capacity.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread;
use std::time::{Duration as WallDuration, Instant};

use crossbeam_channel::{bounded, Receiver, Sender};

use surge_core::{
    EngineState, Event, ObjectId, RegionAnswer, RegionSize, ShardAnswer, ShardRunStats,
    ShardWorker, ShardWorkerStats, ShardedIngest, SpatialObject, Timestamp, WindowConfig,
};
use surge_observe::{Flight, Observe, TraceEvent};

use crate::answers::{AnswerLog, AnswerSink, RetainAll};
use crate::lanes::{merge_lane_states, LaneMerger, LaneStats, WindowLane};
use crate::window::EventBatch;

/// Objects are broadcast to shard workers in fixed-size batches to amortize
/// channel overhead (each batch is one expansion/exchange round).
const BATCH: usize = 256;

/// How long a blocking mesh send may take before the backpressure watchdog
/// notes it in the flight recorder (and dumps the rings once per run).
/// Wall-clock gated, but it only ever *reports* — it never changes what the
/// driver computes, so the bitwise contract is untouched.
const WATCHDOG_SEND: WallDuration = WallDuration::from_millis(250);

/// When the [`ShardBalancer`] recommends splitting the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BalancerPolicy {
    /// A flush is *skewed* when the maximum per-shard load exceeds the mean
    /// by this percentage (100 = twice the mean).
    pub skew_percent: u32,
    /// Consecutive skewed flushes required before recommending a split
    /// (transient hotspots don't deserve a reshard).
    pub patience: u32,
    /// Never grow beyond this many shards (rounded up to a power of two by
    /// the store).
    pub max_shards: usize,
    /// Ignore flushes whose total load is below this noise floor.
    pub min_load: u64,
}

impl BalancerPolicy {
    /// A static mesh: every flush's load sits below the noise floor, so no
    /// flush is ever skewed and the driver never steals or reshards.
    pub const STATIC: BalancerPolicy = BalancerPolicy {
        skew_percent: 50,
        patience: 4,
        max_shards: 64,
        min_load: u64::MAX,
    };
}

impl Default for BalancerPolicy {
    fn default() -> Self {
        BalancerPolicy {
            skew_percent: 50,
            patience: 4,
            max_shards: 64,
            min_load: 8,
        }
    }
}

/// Detects persistent load skew across the shard mesh and recommends
/// doubling the shard count.
///
/// Fed once per flush with the per-shard dirty-cell counts (the sweep load
/// about to run) and the per-lane window-transition deltas since the last
/// flush (the expansion load just done). The decision is a deterministic
/// function of these flush-boundary counters — crash recovery replays the
/// same counters and re-triggers the same reshard at the same flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardBalancer {
    policy: BalancerPolicy,
    streak: u32,
    reshards: u32,
}

impl ShardBalancer {
    /// A balancer with the given policy and no history.
    pub fn new(policy: BalancerPolicy) -> Self {
        ShardBalancer {
            policy,
            streak: 0,
            reshards: 0,
        }
    }

    /// Restores a balancer mid-streak (checkpoint recovery).
    pub fn from_parts(policy: BalancerPolicy, streak: u32, reshards: u32) -> Self {
        ShardBalancer {
            policy,
            streak,
            reshards,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> BalancerPolicy {
        self.policy
    }

    /// Skewed flushes in a row so far.
    pub fn streak(&self) -> u32 {
        self.streak
    }

    /// Splits recommended over this balancer's lifetime.
    pub fn reshards(&self) -> u32 {
        self.reshards
    }

    /// Observes one flush: `dirty[s]` is shard `s`'s dirty-cell count
    /// before stealing, `transitions[s]` its lane's window transitions
    /// since the last flush (pass `&[]` when no lanes exist, e.g. the
    /// sequential checkpoint runner). Returns the recommended new shard
    /// count, or `None` to keep running.
    pub fn observe(&mut self, shards: usize, dirty: &[u64], transitions: &[u64]) -> Option<usize> {
        debug_assert_eq!(dirty.len(), shards);
        let load = |s: usize| {
            dirty.get(s).copied().unwrap_or(0) + transitions.get(s).copied().unwrap_or(0)
        };
        let total: u64 = (0..shards).map(load).sum();
        if total < self.policy.min_load {
            self.streak = 0;
            return None;
        }
        let max = (0..shards).map(load).max().unwrap_or(0);
        // max > mean * (1 + skew/100), in integers:
        let skewed = (max as u128) * 100 * (shards as u128)
            > (total as u128) * (100 + self.policy.skew_percent as u128);
        if skewed {
            self.streak += 1;
        } else {
            self.streak = 0;
        }
        if self.streak >= self.policy.patience && shards * 2 <= self.policy.max_shards {
            self.streak = 0;
            self.reshards += 1;
            Some(shards * 2)
        } else {
            None
        }
    }
}

/// A deterministic work-stealing plan for one flush, computed from the
/// per-shard dirty counts alone.
///
/// `fair = ceil(total / shards)`: shards above it export their surplus
/// (the ascending *tail* of their dirty-cell list), shards below it steal
/// up to it, deficits filled in index order from donors in index order.
/// Total deficit always covers total surplus (`shards · fair ≥ total`),
/// so every exported cell is assigned — and the same counts always produce
/// the same plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StealPlan {
    /// Cells each shard exports (0 for thieves and balanced shards).
    pub(crate) exports: Vec<usize>,
    /// Per-thief `(donor, count)` runs, donors in index order.
    pub(crate) assign: Vec<Vec<(usize, usize)>>,
    /// Total cells changing hands.
    pub(crate) stolen: usize,
}

/// Computes the steal plan for one flush, or `None` when nothing moves
/// (one shard, empty flush, or already balanced).
pub(crate) fn steal_plan(dirty: &[u64]) -> Option<StealPlan> {
    let n = dirty.len();
    if n <= 1 {
        return None;
    }
    let total: u64 = dirty.iter().sum();
    if total == 0 {
        return None;
    }
    let fair = total.div_ceil(n as u64);
    let exports: Vec<usize> = dirty
        .iter()
        .map(|&c| c.saturating_sub(fair) as usize)
        .collect();
    let stolen: usize = exports.iter().sum();
    if stolen == 0 {
        return None;
    }
    let mut assign: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    let mut donor = 0usize;
    let mut avail = exports[0];
    for (thief, &count) in dirty.iter().enumerate() {
        let mut need = fair.saturating_sub(count) as usize;
        while need > 0 {
            while avail == 0 && donor + 1 < n {
                donor += 1;
                avail = exports[donor];
            }
            if avail == 0 {
                break; // all surplus assigned
            }
            let take = need.min(avail);
            assign[thief].push((donor, take));
            need -= take;
            avail -= take;
        }
    }
    debug_assert_eq!(
        assign.iter().flatten().map(|&(_, k)| k).sum::<usize>(),
        stolen,
        "every exported cell must be assigned"
    );
    Some(StealPlan {
        exports,
        assign,
        stolen,
    })
}

/// A lane batch in flight between shard workers: `(lane, events)`.
type LaneBatch = (usize, Arc<[Event]>);

/// Per-worker state for the expand → exchange → merge → apply round.
struct LaneExchange {
    lane: usize,
    /// Senders to every *other* worker's inbox, in lane order.
    peers: Vec<Sender<LaneBatch>>,
    inbox: Receiver<LaneBatch>,
    /// Received-but-not-yet-consumed batches, per lane (a fast peer can be
    /// a round ahead; per-sender FIFO keeps each queue in round order).
    pending: Vec<VecDeque<Arc<[Event]>>>,
    merger: LaneMerger,
    /// Reused assembly of the round's lane batches, in lane order.
    round: Vec<Arc<[Event]>>,
}

impl LaneExchange {
    /// Shares this worker's expanded lane events with every peer, waits for
    /// the round's batch from every other lane, and applies the merged
    /// canonical sequence to `worker`.
    fn exchange_apply<W: ShardWorker>(&mut self, expanded: &EventBatch, worker: &mut W) {
        let own: Arc<[Event]> = Arc::from(expanded.as_slice());
        for tx in &self.peers {
            tx.send((self.lane, Arc::clone(&own))).expect("peer alive");
        }
        let lanes = self.pending.len();
        self.round.clear();
        for lane in 0..lanes {
            if lane == self.lane {
                self.round.push(Arc::clone(&own));
                continue;
            }
            while self.pending[lane].is_empty() {
                let (from, batch) = self.inbox.recv().expect("peer alive");
                self.pending[from].push_back(batch);
            }
            self.round
                .push(self.pending[lane].pop_front().expect("checked"));
        }
        self.merger.merge(&self.round, |ev| worker.on_event(ev));
    }
}

/// Rejects an out-of-order arrival **on the driver thread**, before it is
/// broadcast into the mesh (mirroring `SlidingWindowEngine::push`'s
/// stale-object rejection). Without this, the first lane to observe the bad
/// object panics inside a shard worker and the failure surfaces as a
/// cascade of opaque `expect("peer alive")` / `expect("worker alive")`
/// panics across the mesh — one precise error here instead of a poisoned
/// mesh.
fn validate_arrival_order(last: &mut Option<(Timestamp, ObjectId)>, obj: &SpatialObject) {
    if let Some((t, id)) = *last {
        assert!(
            obj.created > t || (obj.created == t && obj.id > id),
            "the shard mesh needs a timestamp-ordered stream with increasing ids on equal \
             timestamps: got object {} at {} after object {} at {} (rejected on the driver \
             thread before broadcast)",
            obj.id,
            obj.created,
            id,
            t
        );
    }
    *last = Some((obj.created, obj.id));
}

/// What the driver sends each shard worker.
enum WorkerMsg<J, O> {
    /// A batch of raw arrivals, in stream order, shared (not deep-copied)
    /// across the workers. Every worker receives every batch and expands
    /// its own lane's events from it.
    Objects(Arc<[SpatialObject]>),
    /// End of stream: drain the lane tails and exchange the drained events.
    Drain,
    /// Single-round flush: sweep every dirty cell in place and answer.
    Flush,
    /// Steal phase 1: reply with your dirty-cell count.
    FlushBegin,
    /// Steal phase 2 (donors only): export the tail `k` of your dirty list
    /// as jobs.
    Export(usize),
    /// Steal phase 3 (everyone): run these stolen jobs, then sweep your
    /// kept cells in place.
    Sweep(Vec<J>),
    /// Steal phase 4 (everyone): install outcomes of your exported cells
    /// and answer.
    Install(Vec<O>),
    /// Epoch end (always at a slide boundary, after a completed flush):
    /// return your window lane to the driver for re-homing.
    Pause,
}

/// Worker replies, on a dedicated per-worker channel (strictly one reply
/// per command — the mesh never has two commands in flight per worker).
enum WorkerReply<J, O> {
    Dirty(u64),
    Jobs(Vec<J>),
    Outcomes(Vec<O>),
    /// A flush's result: the shard best, the cells this worker swept in
    /// place during the flush, and its lane's counters.
    Answer {
        best: Option<ShardAnswer>,
        swept: u64,
        lane: LaneStats,
    },
}

fn worker_loop<W: ShardWorker>(
    mut worker: W,
    mut lane: WindowLane,
    mut exchange: LaneExchange,
    rx: Receiver<WorkerMsg<W::Job, W::Outcome>>,
    tx: Sender<WorkerReply<W::Job, W::Outcome>>,
    flight: Flight,
    mut flush_seq: u64,
) -> (ShardWorkerStats, LaneStats, WindowLane) {
    let mut expanded = EventBatch::new();
    let mut swept = 0u64;
    for msg in rx.iter() {
        let best = match msg {
            WorkerMsg::Objects(objects) => {
                expanded.clear();
                for obj in objects.iter() {
                    lane.observe_into(obj, &mut expanded);
                }
                exchange.exchange_apply(&expanded, &mut worker);
                continue;
            }
            WorkerMsg::Drain => {
                expanded.clear();
                lane.finish_into(&mut expanded);
                exchange.exchange_apply(&expanded, &mut worker);
                continue;
            }
            WorkerMsg::Flush => {
                flight.record(TraceEvent::FlushStart { seq: flush_seq });
                swept = worker.sweep_kept();
                worker.install_and_best(Vec::new())
            }
            WorkerMsg::FlushBegin => {
                tx.send(WorkerReply::Dirty(worker.dirty_count()))
                    .expect("driver alive");
                continue;
            }
            WorkerMsg::Export(k) => {
                tx.send(WorkerReply::Jobs(worker.export_jobs(k)))
                    .expect("driver alive");
                continue;
            }
            WorkerMsg::Sweep(stolen) => {
                flight.record(TraceEvent::FlushStart { seq: flush_seq });
                let outcomes = worker.run_jobs(stolen);
                swept = worker.sweep_kept();
                tx.send(WorkerReply::Outcomes(outcomes))
                    .expect("driver alive");
                continue;
            }
            WorkerMsg::Install(outcomes) => worker.install_and_best(outcomes),
            WorkerMsg::Pause => break,
        };
        flight.record(TraceEvent::FlushEnd {
            seq: flush_seq,
            answers: best.is_some() as u64,
        });
        flush_seq += 1;
        tx.send(WorkerReply::Answer {
            best,
            swept,
            lane: lane.stats(),
        })
        .expect("driver alive");
    }
    (worker.stats(), lane.stats(), lane)
}

/// Counters of one mesh epoch (the stretch between two reshards, or the
/// whole run when none happen).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochStats {
    /// Shard/lane count of this epoch.
    pub shards: usize,
    /// Flushes executed in this epoch.
    pub slides: u64,
    /// Cells that changed hands via stealing in this epoch.
    pub stolen: u64,
    /// Driver-accounted sweeps each shard *ran* (kept + stolen), indexed by
    /// shard — the sweep critical path of this epoch is the max entry.
    pub shard_sweeps: Vec<u64>,
    /// Per-shard lifetime counters for this epoch's workers.
    pub shard_stats: Vec<ShardWorkerStats>,
    /// Per-lane expansion counters for this epoch's lanes.
    pub lane_stats: Vec<LaneStats>,
}

/// Outcome of a mesh run.
#[derive(Debug, Clone)]
pub struct ElasticReport {
    /// Objects processed.
    pub objects: u64,
    /// Window-transition events expanded across all lanes and epochs.
    pub events: u64,
    /// Flushes executed across all epochs (stream slides + terminal drain).
    pub slides: u64,
    /// Total dirty-cell sweeps across all shards, flushes and epochs.
    pub sweeps: u64,
    /// Total cells that changed hands via work stealing.
    pub stolen: u64,
    /// Live reshards performed (each doubles the shard count).
    pub reshards: u64,
    /// Shard count when the run finished.
    pub final_shards: usize,
    /// Per-epoch counters, in epoch order (always at least one).
    pub epochs: Vec<EpochStats>,
    /// The merged answer at every flush boundary, in flush order —
    /// bit-identical to `drive_incremental`'s per-slide answers. Retains
    /// every answer under the default [`RetainAll`] sink; bounded by
    /// consumer lag under [`drive_elastic_with_sink`].
    pub answers: AnswerLog<Option<RegionAnswer>>,
    /// The terminal flush's answer (after the drain: `None` unless the
    /// detector reports something for empty windows), tracked independently
    /// of retention — it is correct even when an acking sink has released
    /// every flush from [`answers`](Self::answers).
    pub final_answer: Option<RegionAnswer>,
}

impl ElasticReport {
    /// The sweep critical path: the largest per-shard sweep count any
    /// single worker ran in any epoch. Stealing and splitting push this
    /// toward `sweeps / shards`; a static skewed mesh pins it at `sweeps`.
    pub fn max_shard_sweeps(&self) -> u64 {
        self.epochs
            .iter()
            .flat_map(|e| e.shard_sweeps.iter().copied())
            .max()
            .unwrap_or(0)
    }
}

/// How one epoch ended.
enum EpochEnd {
    /// Stream exhausted and terminal flush done.
    Done,
    /// Balancer recommended this new shard count at a slide boundary.
    Reshard(usize),
}

/// One flush across the whole mesh; the caller has already broadcast any
/// buffered objects. `steal` selects the four-phase steal handshake over
/// the single round. Returns the merged answer plus, per shard, the
/// pre-steal dirty count and the cumulative lane transition count (the
/// balancer's inputs), and accounts the sweeps each shard ran into
/// `shard_sweeps` and the cells that changed hands into `stolen_total`.
#[allow(clippy::too_many_arguments)]
fn flush_mesh<J, O>(
    txs: &[Sender<WorkerMsg<J, O>>],
    reply_rxs: &[Receiver<WorkerReply<J, O>>],
    region: RegionSize,
    steal: bool,
    shard_sweeps: &mut [u64],
    stolen_total: &mut u64,
    flight: &Flight,
    seq: u64,
) -> (Option<RegionAnswer>, Vec<u64>, Vec<u64>) {
    let n = txs.len();
    flight.record(TraceEvent::FlushStart { seq });
    let plan = if steal {
        for tx in txs {
            tx.send(WorkerMsg::FlushBegin).expect("worker alive");
        }
        let dirty: Vec<u64> = reply_rxs
            .iter()
            .map(|rx| match rx.recv().expect("worker alive") {
                WorkerReply::Dirty(c) => c,
                _ => unreachable!("protocol: FlushBegin answers with Dirty"),
            })
            .collect();
        steal_plan(&dirty)
    } else {
        None
    };

    // Cells each shard exported to, and received from, its peers.
    let mut exported = vec![0u64; n];
    let mut received = vec![0u64; n];
    match &plan {
        None => {
            for tx in txs {
                tx.send(WorkerMsg::Flush).expect("worker alive");
            }
        }
        Some(plan) => {
            let mut jobs_by_donor: Vec<VecDeque<J>> = (0..n).map(|_| VecDeque::new()).collect();
            for (d, &k) in plan.exports.iter().enumerate() {
                if k > 0 {
                    txs[d].send(WorkerMsg::Export(k)).expect("worker alive");
                }
            }
            for (d, &k) in plan.exports.iter().enumerate() {
                if k > 0 {
                    match reply_rxs[d].recv().expect("worker alive") {
                        WorkerReply::Jobs(jobs) => {
                            debug_assert_eq!(jobs.len(), k);
                            jobs_by_donor[d] = jobs.into();
                        }
                        _ => unreachable!("protocol: Export answers with Jobs"),
                    }
                    exported[d] = k as u64;
                }
            }
            // Everyone sweeps — stolen jobs first, then kept cells.
            for (thief, runs) in plan.assign.iter().enumerate() {
                let stolen: Vec<J> = runs
                    .iter()
                    .flat_map(|&(donor, count)| {
                        jobs_by_donor[donor].drain(..count).collect::<Vec<_>>()
                    })
                    .collect();
                received[thief] = stolen.len() as u64;
                txs[thief]
                    .send(WorkerMsg::Sweep(stolen))
                    .expect("worker alive");
            }
            *stolen_total += plan.stolen as u64;
            flight.record(TraceEvent::StealPlan {
                seq,
                moved: plan.stolen as u64,
            });
            // Route outcomes home and install: a thief's outcomes follow
            // its jobs' order, which is its plan's donor runs.
            let mut to_install: Vec<Vec<O>> = (0..n).map(|_| Vec::new()).collect();
            for (rx, runs) in reply_rxs.iter().zip(&plan.assign) {
                match rx.recv().expect("worker alive") {
                    WorkerReply::Outcomes(outcomes) => {
                        let mut outcomes = outcomes.into_iter();
                        for &(donor, count) in runs {
                            to_install[donor].extend(outcomes.by_ref().take(count));
                        }
                        debug_assert!(outcomes.next().is_none(), "one outcome per job");
                    }
                    _ => unreachable!("protocol: Sweep answers with Outcomes"),
                }
            }
            for (tx, outs) in txs.iter().zip(to_install) {
                tx.send(WorkerMsg::Install(outs)).expect("worker alive");
            }
        }
    }

    // Deterministic merge: the shard bests are keyed by (score, bound,
    // cell), a total order independent of thread timing and shard count.
    let mut best: Option<ShardAnswer> = None;
    let mut dirty = Vec::with_capacity(n);
    let mut transitions = Vec::with_capacity(n);
    for (w, rx) in reply_rxs.iter().enumerate() {
        match rx.recv().expect("worker alive") {
            WorkerReply::Answer {
                best: ans,
                swept,
                lane,
            } => {
                shard_sweeps[w] += swept + received[w];
                dirty.push(swept + exported[w]);
                transitions.push(lane.transitions);
                if let Some(a) = ans {
                    if best.is_none_or(|b| a.merge_key() > b.merge_key()) {
                        best = Some(a);
                    }
                }
            }
            _ => unreachable!("protocol: a flush ends with Answer"),
        }
    }
    let merged = best.map(|b| b.answer(region));
    flight.record(TraceEvent::FlushEnd {
        seq,
        answers: merged.is_some() as u64,
    });
    (merged, dirty, transitions)
}

/// Drives `source` into a [`ShardedIngest`] detector with one worker thread
/// per shard, refreshing the merged continuous answer once per
/// `slide_objects` arrivals (plus the terminal drain flush). Under skew the
/// mesh steals sweeps and doubles its shard count live, as `policy`
/// directs; [`BalancerPolicy::STATIC`] keeps it fixed. The per-flush
/// answers (and the detector's final state and stats) are bit-identical to
/// [`crate::parallel::drive_incremental`] at the same slide size, for any
/// policy — see the module docs for why.
///
/// # Panics
///
/// Panics if `slide_objects` is 0, if the stream is not arrival-ordered
/// (rejected on the driver thread before broadcast), or propagates a
/// worker panic.
pub fn drive_elastic<D: ShardedIngest>(
    detector: &mut D,
    windows: WindowConfig,
    source: impl Iterator<Item = SpatialObject>,
    slide_objects: usize,
    policy: BalancerPolicy,
) -> ElasticReport {
    drive_elastic_with_sink(
        detector,
        windows,
        source,
        slide_objects,
        policy,
        &mut RetainAll,
    )
}

/// [`drive_elastic`] with an explicit answer consumer: every merged flush
/// answer is delivered through `sink` on the driver thread, and acked
/// answers are released from `ElasticReport::answers` instead of retained.
///
/// # Panics
///
/// Same as [`drive_elastic`].
pub fn drive_elastic_with_sink<D: ShardedIngest>(
    detector: &mut D,
    windows: WindowConfig,
    source: impl Iterator<Item = SpatialObject>,
    slide_objects: usize,
    policy: BalancerPolicy,
    sink: &mut impl AnswerSink<Option<RegionAnswer>>,
) -> ElasticReport {
    drive_elastic_observed(
        detector,
        windows,
        source,
        slide_objects,
        policy,
        sink,
        &Observe::off(),
    )
}

/// [`drive_elastic_with_sink`] with registry probes: driver counters under
/// `elastic/*`; per-epoch counters (`elastic/epoch=E/…`) of each shard's
/// sweeps and cell touches and each lane's arrivals and transitions; a
/// flight ring per shard worker plus one for the driver, tracing every
/// flush, steal plan and reshard epoch in logical time; a mesh-backpressure
/// watchdog that notes slow channel sends and dumps the rings; and a
/// panic-time ring dump. Steal and reshard decisions are deterministic, so
/// the trace dump is identical run-to-run; a disabled `obs` compiles the
/// probes down to a branch on `None`, and the answers are bitwise identical
/// either way (proptested).
///
/// # Panics
///
/// Same as [`drive_elastic`].
pub fn drive_elastic_observed<D: ShardedIngest>(
    detector: &mut D,
    windows: WindowConfig,
    source: impl Iterator<Item = SpatialObject>,
    slide_objects: usize,
    policy: BalancerPolicy,
    sink: &mut impl AnswerSink<Option<RegionAnswer>>,
    obs: &Observe,
) -> ElasticReport {
    assert!(slide_objects > 0, "slide must contain at least one object");
    let enabled = obs.is_enabled();
    let driver_flight = obs.flight("elastic/driver");
    let _panic_dump = obs.panic_dump_guard("drive_elastic");
    let watchdog_fired = std::cell::Cell::new(false);
    let region = detector.region_size();
    let mut source = source.fuse();
    let mut balancer = ShardBalancer::new(policy);
    let mut run = ShardRunStats::default();
    let mut objects = 0u64;
    let mut slides = 0u64;
    let mut stolen = 0u64;
    let mut reshards = 0u64;
    let mut answers: AnswerLog<Option<RegionAnswer>> = AnswerLog::new();
    // The terminal flush's answer, tracked independently of retention: an
    // acking sink may release every flush from `answers`, and the report
    // must still state the terminal answer.
    let mut final_answer: Option<RegionAnswer> = None;
    let mut epochs: Vec<EpochStats> = Vec::new();
    // Arrival-order validation spans epochs: the stream contract doesn't
    // reset at a reshard.
    let mut last_arrival: Option<(Timestamp, ObjectId)> = None;
    // The merged window state carried across a reshard; `None` only for
    // the first epoch, whose lanes start fresh.
    let mut paused: Option<EngineState> = None;

    loop {
        let n = detector.mesh_shards();
        let lanes: Vec<WindowLane> = match &paused {
            None => (0..n)
                .map(|l| WindowLane::new(windows, region, l, n))
                .collect(),
            Some(state) => (0..n)
                .map(|l| {
                    WindowLane::from_state(state, region, l, n)
                        .expect("a merged lane state restores at any lane count")
                })
                .collect(),
        };

        let (end, epoch, joined) = thread::scope(|scope| {
            let workers = detector.ingest_workers();
            debug_assert_eq!(workers.len(), n);

            // Mesh plumbing: one inbox per worker; every worker holds a
            // sender to each peer's inbox. Capacity 2n holds the worst
            // transient (a fast peer can run one round ahead of a slow
            // worker, so up to 2(n-1) undelivered batches can target one
            // inbox). A full inbox only backpressures, it cannot deadlock: a
            // worker finishes all its round-k sends before starting round
            // k+1, so the batches a blocked receiver is waiting on have
            // already been delivered or are at the front of a peer's (FIFO)
            // send — no cyclic wait (tests/mesh_backpressure.rs).
            let mut mesh_txs: Vec<Sender<LaneBatch>> = Vec::with_capacity(n);
            let mut mesh_rxs: Vec<Receiver<LaneBatch>> = Vec::with_capacity(n);
            for _ in 0..n {
                let (tx, rx) = bounded::<LaneBatch>((2 * n).max(4));
                mesh_txs.push(tx);
                mesh_rxs.push(rx);
            }

            let mut txs = Vec::with_capacity(n);
            let mut reply_rxs = Vec::with_capacity(n);
            let mut handles = Vec::with_capacity(n);
            for (idx, (worker, (inbox, lane))) in workers
                .into_iter()
                .zip(mesh_rxs.into_iter().zip(lanes))
                .enumerate()
            {
                let (tx, rx) = bounded(16);
                let (rtx, rrx) = bounded(1);
                txs.push(tx);
                reply_rxs.push(rrx);
                let exchange = LaneExchange {
                    lane: idx,
                    peers: mesh_txs
                        .iter()
                        .enumerate()
                        .filter(|(p, _)| *p != idx)
                        .map(|(_, tx)| tx.clone())
                        .collect(),
                    inbox,
                    pending: (0..n).map(|_| VecDeque::new()).collect(),
                    merger: LaneMerger::new(),
                    round: Vec::with_capacity(n),
                };
                let flight = obs.flight(&format!("elastic/shard={idx}"));
                let first_seq = slides;
                handles.push(scope.spawn(move || {
                    worker_loop(worker, lane, exchange, rx, rtx, flight, first_seq)
                }));
            }
            drop(mesh_txs); // workers hold the only senders now

            let broadcast = |batch: &mut Vec<SpatialObject>, seq: u64| {
                if batch.is_empty() {
                    return;
                }
                // One shared allocation per batch; each worker holds an Arc,
                // not a deep copy of the objects.
                let shared: Arc<[SpatialObject]> = std::mem::take(batch).into();
                for (shard, tx) in txs.iter().enumerate() {
                    if enabled {
                        // Backpressure watchdog: time the blocking mesh send.
                        // A slow one is noted in the driver ring and the
                        // rings are dumped once per run — reporting only,
                        // the send itself is the same blocking call.
                        let start = Instant::now();
                        tx.send(WorkerMsg::Objects(Arc::clone(&shared)))
                            .expect("worker alive");
                        if start.elapsed() >= WATCHDOG_SEND {
                            driver_flight.record(TraceEvent::Backpressure {
                                seq,
                                shard: shard as u32,
                            });
                            if !watchdog_fired.replace(true) {
                                eprintln!("{}", obs.trace_dump());
                            }
                        }
                    } else {
                        tx.send(WorkerMsg::Objects(Arc::clone(&shared)))
                            .expect("worker alive");
                    }
                }
            };

            let mut shard_sweeps = vec![0u64; n];
            let mut epoch_stolen = 0u64;
            let mut epoch_slides = 0u64;
            let mut prev_transitions = vec![0u64; n];
            let mut batch: Vec<SpatialObject> = Vec::with_capacity(BATCH);
            let mut in_slide = 0usize;
            let mut end = EpochEnd::Done;
            // Every call passes `steal = balancer.streak() > 0`: the steal
            // handshake runs only after a flush the balancer saw as skewed.
            let mut flush = |batch: &mut Vec<SpatialObject>, steal: bool, seq: u64| {
                broadcast(batch, seq);
                flush_mesh(
                    &txs,
                    &reply_rxs,
                    region,
                    steal,
                    &mut shard_sweeps,
                    &mut epoch_stolen,
                    &driver_flight,
                    seq,
                )
            };

            for obj in source.by_ref() {
                validate_arrival_order(&mut last_arrival, &obj);
                batch.push(obj);
                if batch.len() >= BATCH {
                    broadcast(&mut batch, slides);
                }
                objects += 1;
                in_slide += 1;
                if in_slide >= slide_objects {
                    let (ans, dirty, transitions) =
                        flush(&mut batch, balancer.streak() > 0, slides);
                    answers.offer(ans, sink);
                    slides += 1;
                    epoch_slides += 1;
                    in_slide = 0;
                    let deltas: Vec<u64> = transitions
                        .iter()
                        .zip(prev_transitions.iter())
                        .map(|(t, p)| t - p)
                        .collect();
                    prev_transitions = transitions;
                    if let Some(to) = balancer.observe(n, &dirty, &deltas) {
                        end = EpochEnd::Reshard(to);
                        break;
                    }
                }
            }

            if matches!(end, EpochEnd::Done) {
                // Stream exhausted: partial slide, then the terminal drain
                // flush, mirroring the sequential slide loop (no balancing
                // on the tail — there is nothing left to balance for).
                if in_slide > 0 {
                    let (ans, _, _) = flush(&mut batch, balancer.streak() > 0, slides);
                    answers.offer(ans, sink);
                    slides += 1;
                    epoch_slides += 1;
                }
                // Any buffered objects must reach the workers before the
                // lanes drain (a Drain advances the lane clocks to the
                // horizon, after which pushing an older arrival would panic).
                broadcast(&mut batch, slides);
                for tx in &txs {
                    tx.send(WorkerMsg::Drain).expect("worker alive");
                }
                // The terminal answer is recorded before the sink can
                // release it.
                let (ans, _, _) = flush(&mut batch, balancer.streak() > 0, slides);
                final_answer = ans;
                answers.offer(ans, sink);
                slides += 1;
                epoch_slides += 1;
            }

            // Pause marker: the epoch always ends at a completed flush, so
            // every worker is idle and every lane is at the same stream
            // position.
            for tx in &txs {
                tx.send(WorkerMsg::Pause).expect("worker alive");
            }
            drop(txs);

            let mut shard_stats = Vec::with_capacity(handles.len());
            let mut lane_stats = Vec::with_capacity(handles.len());
            let mut joined_lanes = Vec::with_capacity(handles.len());
            for h in handles {
                let (s, l, lane) = h.join().expect("shard worker panicked");
                shard_stats.push(s);
                lane_stats.push(l);
                joined_lanes.push(lane);
            }
            let epoch = EpochStats {
                shards: n,
                slides: epoch_slides,
                stolen: epoch_stolen,
                shard_sweeps,
                shard_stats,
                lane_stats,
            };
            (end, epoch, joined_lanes)
        });

        run.events += epoch.lane_stats.iter().map(LaneStats::events).sum::<u64>();
        run.new_events += epoch.lane_stats.iter().map(|s| s.arrivals).sum::<u64>();
        run.searches += epoch.shard_stats.iter().map(|s| s.sweeps).sum::<u64>();
        stolen += epoch.stolen;
        epochs.push(epoch);

        match end {
            EpochEnd::Done => break,
            EpochEnd::Reshard(to) => {
                let from = epochs.last().map_or(0, |e| e.shards);
                driver_flight.record(TraceEvent::ReshardEpoch {
                    epoch: epochs.len() as u64,
                    from: from as u32,
                    to: to as u32,
                });
                paused = Some(merge_lane_states(windows, &joined));
                detector.reshard(to);
                reshards += 1;
            }
        }
    }

    detector.absorb_shard_run(run);

    if enabled {
        // Published after the join from the authoritative per-worker stats,
        // so registry totals equal the report counters exactly; the
        // per-epoch breakdown exposes the stealing/resharding story the
        // flat report sums away (conservation proptested in
        // `tests/observe_differential.rs`).
        obs.counter("elastic/objects").add(objects);
        obs.counter("elastic/events").add(run.events);
        obs.counter("elastic/slides").add(slides);
        obs.counter("elastic/sweeps").add(run.searches);
        obs.counter("elastic/stolen").add(stolen);
        obs.counter("elastic/reshards").add(reshards);
        obs.gauge("elastic/final_shards")
            .set(detector.mesh_shards() as i64);
        for (e, ep) in epochs.iter().enumerate() {
            obs.counter(&format!("elastic/epoch={e}/slides"))
                .add(ep.slides);
            obs.counter(&format!("elastic/epoch={e}/stolen"))
                .add(ep.stolen);
            for (s, (sweeps, stats)) in ep.shard_sweeps.iter().zip(&ep.shard_stats).enumerate() {
                obs.counter(&format!("elastic/epoch={e}/shard={s}/sweeps"))
                    .add(*sweeps);
                obs.counter(&format!("elastic/epoch={e}/shard={s}/cell_touches"))
                    .add(stats.cell_touches);
            }
            for (l, lane) in ep.lane_stats.iter().enumerate() {
                obs.counter(&format!("elastic/epoch={e}/lane={l}/arrivals"))
                    .add(lane.arrivals);
                obs.counter(&format!("elastic/epoch={e}/lane={l}/transitions"))
                    .add(lane.transitions);
            }
        }
    }

    ElasticReport {
        objects,
        events: run.events,
        slides,
        sweeps: run.searches,
        stolen,
        reshards,
        final_shards: detector.mesh_shards(),
        epochs,
        answers,
        final_answer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surge_core::{BurstDetector, Point, SurgeQuery};
    use surge_exact::{BoundMode, CellCspot};

    use crate::parallel::drive_incremental;

    fn query(alpha: f64) -> SurgeQuery {
        SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), WindowConfig::equal(400), alpha)
    }

    fn stream(n: usize) -> Vec<SpatialObject> {
        let mut state = 0xFEED_FACE_CAFE_BEEFu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / ((1u64 << 31) as f64)
        };
        (0..n)
            .map(|i| {
                let cluster = i % 4;
                SpatialObject::new(
                    i as u64,
                    1.0 + (i % 5) as f64,
                    Point::new(cluster as f64 * 2.5 + next(), cluster as f64 * 1.5 + next()),
                    (i as u64) * 6,
                )
            })
            .collect()
    }

    /// The static mesh (one epoch, single-round flushes) at 1/2/8 shards.
    #[test]
    fn static_mesh_answers_bit_match_incremental_driver() {
        for alpha in [0.0, 0.5, 0.9] {
            let objs = stream(1_200);

            let mut seq = CellCspot::with_shards(query(alpha), BoundMode::Combined, 1);
            let seq_report = drive_incremental(
                &mut seq,
                WindowConfig::equal(400),
                objs.iter().copied(),
                64,
                1,
            );

            for shards in [1usize, 2, 8] {
                let mut par = CellCspot::with_shards(query(alpha), BoundMode::Combined, shards);
                let report = drive_elastic(
                    &mut par,
                    WindowConfig::equal(400),
                    objs.iter().copied(),
                    64,
                    BalancerPolicy::STATIC,
                );
                assert_eq!(report.objects, objs.len() as u64);
                assert_eq!(report.slides, seq_report.slides);
                assert_eq!(report.events, seq_report.events);
                assert_eq!(report.answers.len(), seq_report.answers.len());
                for (i, (a, b)) in report
                    .answers
                    .iter()
                    .zip(seq_report.answers.iter())
                    .enumerate()
                {
                    match (a, b) {
                        (Some(x), Some(y)) => {
                            assert_eq!(
                                x.score.to_bits(),
                                y.score.to_bits(),
                                "alpha {alpha} shards {shards} slide {i}"
                            );
                            assert_eq!(x.point.x.to_bits(), y.point.x.to_bits());
                            assert_eq!(x.point.y.to_bits(), y.point.y.to_bits());
                            assert_eq!(x.region, y.region);
                        }
                        (None, None) => {}
                        other => panic!("alpha {alpha} shards {shards} slide {i}: {other:?}"),
                    }
                }
                // Same sweeps, same events, same final detector footprint.
                assert_eq!(report.sweeps, seq_report.jobs);
                assert_eq!(par.stats().events, seq.stats().events);
                assert_eq!(par.stats().searches, seq.stats().searches);
                assert_eq!(par.cell_count(), seq.cell_count());
                assert_eq!(par.dirty_cell_count(), 0);
                let epoch = &report.epochs[0];
                assert_eq!(epoch.shard_stats.len(), par.shard_count());
                let touches: u64 = epoch.shard_stats.iter().map(|s| s.cell_touches).sum();
                assert!(touches > 0);
                // The lanes partition the whole stream: every arrival has
                // exactly one home lane, and the expansion critical path
                // shrinks as lanes are added.
                assert_eq!(epoch.lane_stats.len(), shards);
                let arrivals: u64 = epoch.lane_stats.iter().map(|s| s.arrivals).sum();
                assert_eq!(arrivals, report.objects);
                if shards > 1 {
                    let total: u64 = epoch.lane_stats.iter().map(|s| s.transitions).sum();
                    let max = epoch.lane_stats.iter().map(|s| s.transitions).max();
                    assert!(max.unwrap_or(0) < total);
                }
            }
        }
    }

    /// A stream whose third arrival is *late* (earlier timestamp than its
    /// predecessor). Unchecked, the first lane to observe it would panic
    /// inside a shard worker and the run would die in a cascade of
    /// `expect("peer alive")` / `expect("worker alive")` panics; the driver
    /// thread rejects it before broadcast with one precise message.
    fn drive_late_arrival(shards: usize) {
        let objs = vec![
            SpatialObject::new(0, 1.0, Point::new(0.1, 0.1), 100),
            SpatialObject::new(1, 1.0, Point::new(0.5, 0.5), 200),
            SpatialObject::new(2, 1.0, Point::new(0.9, 0.9), 150), // late
        ];
        let mut d = CellCspot::with_shards(query(0.5), BoundMode::Combined, shards);
        drive_elastic(
            &mut d,
            WindowConfig::equal(400),
            objs.into_iter(),
            8,
            BalancerPolicy::STATIC,
        );
    }

    #[test]
    #[should_panic(expected = "rejected on the driver thread before broadcast")]
    fn late_arrival_is_rejected_on_the_driver_thread_1_shard() {
        drive_late_arrival(1);
    }

    #[test]
    #[should_panic(expected = "rejected on the driver thread before broadcast")]
    fn late_arrival_is_rejected_on_the_driver_thread_2_shards() {
        drive_late_arrival(2);
    }

    #[test]
    #[should_panic(expected = "rejected on the driver thread before broadcast")]
    fn late_arrival_is_rejected_on_the_driver_thread_8_shards() {
        drive_late_arrival(8);
    }

    #[test]
    #[should_panic(expected = "rejected on the driver thread before broadcast")]
    fn equal_timestamp_nonincreasing_id_is_rejected_on_the_driver_thread() {
        let objs = vec![
            SpatialObject::new(5, 1.0, Point::new(0.1, 0.1), 100),
            SpatialObject::new(3, 1.0, Point::new(0.5, 0.5), 100), // id ties must increase
        ];
        let mut d = CellCspot::with_shards(query(0.5), BoundMode::Combined, 2);
        drive_elastic(
            &mut d,
            WindowConfig::equal(400),
            objs.into_iter(),
            8,
            BalancerPolicy::STATIC,
        );
    }

    #[test]
    fn empty_stream_yields_only_the_terminal_flush() {
        let mut d = CellCspot::new(query(0.5));
        let report = drive_elastic(
            &mut d,
            WindowConfig::equal(400),
            std::iter::empty(),
            32,
            BalancerPolicy::STATIC,
        );
        assert_eq!(report.objects, 0);
        assert_eq!(report.slides, 1);
        assert_eq!(report.answers.len(), 1);
        assert!(report.final_answer.is_none());
        assert_eq!(report.events, 0);
    }

    #[test]
    fn partial_last_slide_and_drain_are_flushed() {
        let objs = stream(70);
        let mut d = CellCspot::new(query(0.5));
        let report = drive_elastic(
            &mut d,
            WindowConfig::equal(400),
            objs.into_iter(),
            32,
            BalancerPolicy::STATIC,
        );
        assert_eq!(report.slides, 4); // 32 + 32 + 6, then the drain
        assert_eq!(report.answers.len(), 4);
        // The last pre-drain answer sees the resident windows; the terminal
        // one sees them drained.
        assert!(report.answers[2].is_some());
        assert!(report.final_answer.is_none());
        // Every object completed its lifecycle: 3 events each.
        assert_eq!(report.events, 3 * 70);
    }

    #[test]
    fn steal_plan_balances_to_fair_share() {
        let plan = steal_plan(&[10, 0]).expect("skewed counts plan");
        assert_eq!(plan.exports, vec![5, 0]);
        assert_eq!(plan.assign[1], vec![(0, 5)]);
        assert_eq!(plan.stolen, 5);

        let plan = steal_plan(&[9, 1, 2, 0]).expect("skewed counts plan");
        // fair = ceil(12/4) = 3
        assert_eq!(plan.exports, vec![6, 0, 0, 0]);
        assert_eq!(plan.assign[1], vec![(0, 2)]);
        assert_eq!(plan.assign[2], vec![(0, 1)]);
        assert_eq!(plan.assign[3], vec![(0, 3)]);
        assert_eq!(plan.stolen, 6);
    }

    #[test]
    fn steal_plan_none_when_balanced_or_degenerate() {
        assert!(steal_plan(&[3, 3, 3, 3]).is_none());
        assert!(steal_plan(&[0, 0]).is_none());
        assert!(steal_plan(&[7]).is_none());
        // Within one of fair: nothing exceeds ceil-mean.
        assert!(steal_plan(&[2, 1, 2, 1]).is_none());
    }

    #[test]
    fn steal_plan_multi_donor_fills_in_index_order() {
        let plan = steal_plan(&[6, 6, 0, 0]).expect("two donors");
        // fair = 3: donors 0 and 1 export 3 each; thieves 2 and 3 take 3.
        assert_eq!(plan.exports, vec![3, 3, 0, 0]);
        assert_eq!(plan.assign[2], vec![(0, 3)]);
        assert_eq!(plan.assign[3], vec![(1, 3)]);
    }

    #[test]
    fn balancer_waits_for_patience_then_doubles() {
        let mut b = ShardBalancer::new(BalancerPolicy {
            skew_percent: 50,
            patience: 3,
            max_shards: 8,
            min_load: 1,
        });
        let skewed = [100u64, 0];
        assert_eq!(b.observe(2, &skewed, &[]), None);
        assert_eq!(b.observe(2, &skewed, &[]), None);
        assert_eq!(b.observe(2, &skewed, &[]), Some(4));
        assert_eq!(b.reshards(), 1);
        assert_eq!(b.streak(), 0);
    }

    #[test]
    fn balancer_streak_resets_on_balanced_flush() {
        let mut b = ShardBalancer::new(BalancerPolicy {
            skew_percent: 50,
            patience: 2,
            max_shards: 8,
            min_load: 1,
        });
        assert_eq!(b.observe(2, &[100, 0], &[]), None);
        assert_eq!(b.observe(2, &[50, 50], &[]), None); // resets
        assert_eq!(b.observe(2, &[100, 0], &[]), None);
        assert_eq!(b.observe(2, &[100, 0], &[]), Some(4));
    }

    #[test]
    fn balancer_respects_max_shards_and_noise_floor() {
        let mut b = ShardBalancer::new(BalancerPolicy {
            skew_percent: 50,
            patience: 1,
            max_shards: 4,
            min_load: 10,
        });
        // Below the noise floor: never triggers.
        assert_eq!(b.observe(2, &[5, 0], &[]), None);
        // At max: never recommends growing past it.
        assert_eq!(b.observe(4, &[100, 0, 0, 0], &[]), None);
        // Within bounds: triggers immediately (patience 1).
        assert_eq!(b.observe(2, &[100, 0], &[]), Some(4));
    }

    #[test]
    fn balancer_counts_lane_transitions_in_the_load() {
        let mut b = ShardBalancer::new(BalancerPolicy {
            skew_percent: 50,
            patience: 1,
            max_shards: 8,
            min_load: 1,
        });
        // Dirty counts alone are balanced; the transition skew triggers.
        assert_eq!(b.observe(2, &[1, 1], &[200, 0]), Some(4));
    }
}

//! One pass = one whole driver call over the workload's stream, in a
//! closed loop: the driver pulls the next pre-generated object as soon as
//! it has consumed the previous one.
//!
//! Untraced passes go through the public drivers exactly as a user calls
//! them. Traced passes put the wrappers of [`crate::layers`] around the
//! layers those drivers call.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use surge_checkpoint::{
    run_checkpointed_with_sink, run_checkpointed_with_store, CheckpointConfig, CheckpointPolicy,
    DetectorSpec, SyncPolicy, Tail,
};
use surge_core::{
    object_to_rect, BurstDetector, DetectorStats, GridSpec, RegionAnswer, SpatialObject, SurgeQuery,
};
use surge_exact::{BoundMode, CellCspot, SweepMode, SweepStats};
use surge_serve::{ServeConfig, SubId, SurgeServer};
use surge_stream::{
    drive_incremental_with_sink, Ack, AnswerSink, QueryRuntime, SlidingWindowEngine,
};

use crate::check::{fingerprint, Fingerprint};
use crate::layers::{TimedCore, TimedEngine, TimedStore};
use crate::workload::{ratio, Kind, Workload};

/// Snapshot cadence of `taxi-durable`, in slides.
const SNAPSHOT_EVERY_SLIDES: u64 = 32;

/// Per-layer values of one traced pass, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the whole driver call, warm-up and drain included.
    pub wall: Duration,
    /// Stable-phase wall time divided by the objects in it, in µs.
    pub us_per_object: f64,
    /// Stable-phase flush latencies, in µs.
    pub flush_us: Vec<f64>,
    /// Flush answers of each answer stream the pass produced, with the
    /// index of the query whose reference they must equal.
    pub answers: Vec<(usize, Vec<Fingerprint>)>,
    /// Per-layer values this pass measured.
    pub layers: Layers,
}

/// Source-side and sink-side timestamps of one pass.
#[derive(Debug)]
struct Marks {
    /// When the source yielded the first stable-phase object.
    stable_t0: Option<Instant>,
    /// When the source yielded each slide's closing object.
    closes: Vec<Instant>,
    /// When each flush's answer reached the consumer.
    delivered: Vec<Instant>,
    /// When the driver first asked past the last object: right after the
    /// last slide's flush, since every stream is a whole number of slides.
    exhausted: Option<Instant>,
}

impl Marks {
    fn new(w: &Workload) -> Marks {
        let flushes = w.stream.len() / w.slide + 1;
        Marks {
            stable_t0: None,
            closes: Vec::with_capacity(flushes),
            delivered: Vec::with_capacity(flushes),
            exhausted: None,
        }
    }

    /// Folds the marks into the stable-phase metrics of `pass`.
    fn finish(&self, w: &Workload, pass: &mut Pass) {
        let stable = w.stable_flush_range();
        let (Some(t0), Some(end)) = (self.stable_t0, self.delivered.get(stable.end - 1)) else {
            return;
        };
        pass.us_per_object = stable_us_per_object(w, t0, *end);
        pass.flush_us = stable
            .filter_map(|j| Some(self.delivered.get(j)?.duration_since(*self.closes.get(j)?)))
            .map(|d| d.as_secs_f64() * 1e6)
            .collect();
    }
}

/// Stable-phase wall time from `t0` to `end` per stable-phase object, in µs.
fn stable_us_per_object(w: &Workload, t0: Instant, end: Instant) -> f64 {
    let objects = (w.stream.len() - w.stable_from) as f64;
    end.duration_since(t0).as_secs_f64() * 1e6 / objects
}

/// The closed-loop source: replays the stream, stamping the first
/// stable-phase object and every slide's closing object as it yields them.
struct Source<'a> {
    objects: &'a [SpatialObject],
    next: usize,
    slide: usize,
    stable_from: usize,
    marks: &'a mut Marks,
}

impl<'a> Source<'a> {
    fn new(w: &'a Workload, marks: &'a mut Marks) -> Self {
        Source {
            objects: &w.stream,
            next: 0,
            slide: w.slide,
            stable_from: w.stable_from,
            marks,
        }
    }
}

impl Iterator for Source<'_> {
    type Item = SpatialObject;

    fn next(&mut self) -> Option<SpatialObject> {
        let i = self.next;
        let Some(&o) = self.objects.get(i) else {
            if self.marks.exhausted.is_none() {
                self.marks.exhausted = Some(Instant::now());
            }
            return None;
        };
        self.next += 1;
        if i == self.stable_from {
            self.marks.stable_t0 = Some(Instant::now());
        }
        if (i + 1).is_multiple_of(self.slide) {
            self.marks.closes.push(Instant::now());
        }
        Some(o)
    }
}

/// The acking consumer: records each answer's arrival and releases it.
struct Sink {
    delivered: Vec<Instant>,
    answers: Vec<Fingerprint>,
}

impl Sink {
    fn new(w: &Workload) -> Sink {
        let flushes = w.stream.len() / w.slide + 1;
        Sink {
            delivered: Vec::with_capacity(flushes),
            answers: Vec::with_capacity(flushes),
        }
    }
    fn take(&mut self, answer: Option<&RegionAnswer>) -> Ack {
        self.delivered.push(Instant::now());
        self.answers.push(fingerprint(answer));
        Ack::Release
    }
}

impl AnswerSink<Option<RegionAnswer>> for Sink {
    fn deliver(&mut self, _seq: u64, answer: &Option<RegionAnswer>) -> Ack {
        self.take(answer.as_ref())
    }
}

impl AnswerSink<Vec<RegionAnswer>> for Sink {
    fn deliver(&mut self, _seq: u64, answer: &Vec<RegionAnswer>) -> Ack {
        self.take(answer.first())
    }
}

/// Everything a pass needs before its first object, built by [`setup`].
pub enum Prepared {
    /// A fresh detector (`uniform-seq`).
    Detector(Box<CellCspot>),
    /// The checkpoint configuration; the runner creates its directory.
    Durable(CheckpointConfig),
    /// A server with its subscriptions registered.
    Server(Box<SurgeServer>, Vec<SubId>),
}

fn spec() -> DetectorSpec {
    DetectorSpec::Cell {
        bound: BoundMode::Combined,
        sweep: SweepMode::Persistent,
        shards: 1,
    }
}

fn durable_config(w: &Workload) -> CheckpointConfig {
    CheckpointConfig {
        query: w.queries[0],
        windows: w.windows,
        spec: spec(),
        slide_objects: w.slide,
        threads: 1,
        policy: CheckpointPolicy {
            snapshot_every_slides: SNAPSHOT_EVERY_SLIDES,
            wal_segment_objects: 4_096,
            keep_snapshots: 2,
            sync: SyncPolicy::OsFlush,
        },
    }
}

/// Builds what the program needs before the first object.
pub fn setup(w: &Workload) -> Prepared {
    let query = w.queries[0];
    match w.kind {
        Kind::UniformSeq => Prepared::Detector(Box::new(CellCspot::with_shards(
            query,
            BoundMode::Combined,
            1,
        ))),
        Kind::TaxiDurable => Prepared::Durable(durable_config(w)),
        Kind::TaxiServe4 => {
            let mut server = SurgeServer::new(ServeConfig::sequential(w.slide));
            let subs = w
                .subs
                .iter()
                .map(|&q| {
                    server
                        .subscribe(w.queries[q], spec())
                        .expect("exact CCS is servable")
                })
                .collect();
            Prepared::Server(Box::new(server), subs)
        }
    }
}

/// Runs one untraced pass through the public driver; `dir` is a fresh
/// directory for the durable workload's checkpoints.
pub fn timed(w: &Workload, prepared: Prepared, dir: &Path) -> Pass {
    let mut marks = Marks::new(w);
    let mut pass = Pass::default();
    match prepared {
        Prepared::Detector(mut det) => {
            let mut sink = Sink::new(w);
            let source = Source::new(w, &mut marks);
            let t0 = Instant::now();
            drive_incremental_with_sink(det.as_mut(), w.windows, source, w.slide, 1, &mut sink);
            pass.wall = t0.elapsed();
            marks.delivered = std::mem::take(&mut sink.delivered);
            pass.answers.push((0, sink.answers));
        }
        Prepared::Durable(cfg) => {
            let mut sink = Sink::new(w);
            let source = Source::new(w, &mut marks);
            let t0 = Instant::now();
            let report = run_checkpointed_with_sink(&cfg, dir, source, Tail::Finish, &mut sink)
                .expect("checkpointed run");
            pass.wall = t0.elapsed();
            marks.delivered = std::mem::take(&mut sink.delivered);
            pass.answers.push((0, sink.answers));
            let pause = report.pause;
            pass.layers
                .insert("checkpoint.snapshot.count", report.snapshots_written as f64);
            pass.layers
                .insert("checkpoint.snapshot.stall_p50_us", pause.p50_us);
            pass.layers.insert(
                "checkpoint.snapshot.stall_total_ms",
                pause.mean_us * pause.count as f64 / 1e3,
            );
        }
        Prepared::Server(mut server, subs) => {
            (pass.wall, pass.answers) = serve(w, &mut server, &subs, &mut marks, None);
        }
    }
    marks.finish(w, &mut pass);
    pass
}

/// Per-call timers of the serving loop.
#[derive(Debug, Default)]
struct ServeTimers {
    ingest_ns: u64,
    flush_ns: u64,
    deliver_ns: u64,
}

/// The serving loop: ingest every object; after each slide-closing
/// ingest, drain (and thereby ack) every subscription. Returns the loop's
/// wall time and each subscription's answers.
fn serve(
    w: &Workload,
    server: &mut SurgeServer,
    subs: &[SubId],
    marks: &mut Marks,
    mut timers: Option<&mut ServeTimers>,
) -> (Duration, Vec<(usize, Vec<Fingerprint>)>) {
    let flushes = w.stream.len() / w.slide + 1;
    let mut answers: Vec<Vec<Fingerprint>> = vec![Vec::with_capacity(flushes); subs.len()];
    let mut drain = |server: &mut SurgeServer| {
        for (sub, out) in subs.iter().zip(answers.iter_mut()) {
            let drained = server.drain(*sub).expect("live subscription");
            out.extend(drained.iter().map(|(_, a)| fingerprint(a.first())));
        }
    };
    let t0 = Instant::now();
    for (i, obj) in w.stream.iter().enumerate() {
        let closing = (i + 1).is_multiple_of(w.slide);
        let t = Instant::now();
        if i == w.stable_from {
            marks.stable_t0 = Some(t);
        }
        server.ingest(*obj);
        if let Some(timers) = timers.as_deref_mut() {
            let ns = t.elapsed().as_nanos() as u64;
            if closing {
                timers.flush_ns += ns;
            } else {
                timers.ingest_ns += ns;
            }
        }
        if closing {
            let d = Instant::now();
            drain(server);
            let done = Instant::now();
            if let Some(timers) = timers.as_deref_mut() {
                timers.deliver_ns += done.duration_since(d).as_nanos() as u64;
            }
            marks.closes.push(t);
            marks.delivered.push(done);
        }
    }
    let t = Instant::now();
    server.finish();
    let d = Instant::now();
    drain(server);
    if let Some(timers) = timers {
        timers.flush_ns += d.duration_since(t).as_nanos() as u64;
        timers.deliver_ns += d.elapsed().as_nanos() as u64;
    }
    (t0.elapsed(), w.subs.iter().copied().zip(answers).collect())
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// The persistent-sweep reuse shares of `exact.sweep`.
fn insert_sweep_ratios(layers: &mut Layers, sweep: &SweepStats) {
    layers.insert(
        "exact.sweep.plan_reuse_ratio",
        ratio(sweep.plan_reuses, sweep.plan_builds + sweep.plan_reuses),
    );
    layers.insert(
        "exact.sweep.epoch_hit_ratio",
        ratio(sweep.epoch_hits, sweep.epoch_hits + sweep.epoch_misses),
    );
    layers.insert(
        "exact.sweep.full_rebuild_ratio",
        ratio(sweep.full_rebuilds, sweep.searches),
    );
}

/// `core.reduce`: the SURGE→cSPOT reduction and grid routing of every
/// `New` object, replayed on its own.
fn reduce_ms(w: &Workload) -> f64 {
    let t0 = Instant::now();
    for query in &w.queries {
        let region = query.region;
        let grid = GridSpec::anchored(region.width, region.height);
        for o in &w.stream {
            let rect = object_to_rect(o, region);
            for cell in grid.cells_overlapping_iter(&rect.rect) {
                black_box(cell);
            }
        }
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// A traced `QueryRuntime` pass of exact CCS for one query: the same calls
/// `drive_incremental` makes, each layer timed. Returns the wall time and
/// the time the timed layers account for.
fn traced_runtime(
    w: &Workload,
    query: SurgeQuery,
    marks: &mut Marks,
    layers: &mut Layers,
) -> (Vec<Fingerprint>, Duration, f64) {
    let core = TimedCore::new(CellCspot::with_shards(query, BoundMode::Combined, 1));
    let engine = TimedEngine::new(SlidingWindowEngine::new(w.windows));
    let mut rt = QueryRuntime::over(core, engine, w.slide, 1);
    let mut answers = Vec::with_capacity(w.stream.len() / w.slide + 1);
    let delivered = &mut Vec::with_capacity(answers.capacity());
    let source = Source::new(w, marks);
    let t0 = Instant::now();
    rt.run(source, |_, flushed| {
        delivered.push(Instant::now());
        answers.push(fingerprint(flushed.first()));
    });
    let wall = t0.elapsed();
    marks.delivered = std::mem::take(delivered);

    let (core, engine) = (rt.core(), rt.engine());
    let stats: DetectorStats = core.det.stats();
    let sweep = core.det.sweep_stats();
    let counters = rt.counters();
    let mut add = |name: &'static str, v: f64| *layers.entry(name).or_insert(0.0) += v;
    add("stream.window.busy_ms", ms(engine.busy_ns));
    add("stream.window.events", engine.events as f64);
    add("exact.cell.busy_ms", ms(core.cell_ns));
    add("exact.cell.events", stats.events as f64);
    add("exact.sweep.busy_ms", ms(core.sweep_ns));
    add("exact.sweep.searches", sweep.searches as f64);
    add("exact.answer.busy_ms", ms(core.answer_ns));
    let m = layers.entry("exact.sweep.max_per_flush").or_insert(0.0);
    *m = m.max(counters.max_jobs_per_slide as f64);
    // Ratios of the first query (the one every workload shares).
    if !layers.contains_key("exact.cell.trigger_ratio") {
        layers.insert("exact.cell.trigger_ratio", stats.trigger_ratio());
        insert_sweep_ratios(layers, &sweep);
    }
    let timed = engine.busy_ns + core.cell_ns + core.sweep_ns + core.answer_ns;
    (answers, wall, ms(timed))
}

/// Runs one traced pass: the same work as [`timed`], with every layer the
/// workload exercises timed from outside.
pub fn traced(w: &Workload, prepared: Prepared, dir: &Path) -> Pass {
    let mut pass = Pass::default();
    let mut layers = Layers::new();
    layers.insert("core.reduce.busy_ms", reduce_ms(w));
    // Traced wall time and the part of it that no timed layer claims.
    let (wall_ms, unclaimed_ms) = match prepared {
        Prepared::Detector(_) => {
            let mut marks = Marks::new(w);
            let (answers, wall, claimed) = traced_runtime(w, w.queries[0], &mut marks, &mut layers);
            pass.wall = wall;
            pass.answers.push((0, answers));
            marks.finish(w, &mut pass);
            let wall = wall.as_secs_f64() * 1e3;
            (wall, (wall - claimed).abs())
        }
        Prepared::Durable(cfg) => {
            // The checkpoint runner builds its detector from a spec, so the
            // exact/window split comes from a runtime pass of the same
            // detector over the same stream; the durable run adds WAL and
            // snapshot time on top of that work.
            let mut marks = Marks::new(w);
            let (rt_answers, rt_wall, claimed) =
                traced_runtime(w, w.queries[0], &mut marks, &mut layers);
            pass.answers.push((0, rt_answers));

            let store = TimedStore::default();
            let wal = Arc::clone(&store.trace);
            let mut marks = Marks::new(w);
            let source = Source::new(w, &mut marks);
            let t0 = Instant::now();
            let report =
                run_checkpointed_with_store(&cfg, dir, source, Tail::Finish, Box::new(store))
                    .expect("checkpointed run");
            pass.wall = t0.elapsed();
            // The store-hooked entry point has no consumer hook: the stable
            // phase ends when the runner asks past the last object.
            if let (Some(t0), Some(end)) = (marks.stable_t0, marks.exhausted) {
                pass.us_per_object = stable_us_per_object(w, t0, end);
            }
            let answers = report.answers.iter().map(|a| fingerprint(a.first()));
            pass.answers.push((0, answers.collect()));

            let (write, sync) = (load(&wal.write_ns), load(&wal.sync_ns));
            layers.insert("checkpoint.wal.write_ms", ms(write));
            layers.insert("checkpoint.wal.sync_ms", ms(sync));
            layers.insert("checkpoint.wal.bytes", load(&wal.bytes) as f64);
            layers.insert("checkpoint.wal.appends", report.wal_appends as f64);
            let stall_ms = report.pause.mean_us * report.pause.count as f64 / 1e3;
            let rt_ms = rt_wall.as_secs_f64() * 1e3;
            let durable_ms = pass.wall.as_secs_f64() * 1e3;
            let unclaimed = (rt_ms - claimed).abs()
                + (durable_ms - claimed - ms(write) - ms(sync) - stall_ms).abs();
            (rt_ms + durable_ms, unclaimed)
        }
        Prepared::Server(mut server, subs) => {
            // One runtime pass per distinct query gives the exact/window
            // split; the served run is timed per serving call.
            let mut rt_ms = 0.0;
            let mut unclaimed = 0.0;
            for (q, query) in w.queries.iter().enumerate() {
                let mut marks = Marks::new(w);
                let (answers, wall, claimed) = traced_runtime(w, *query, &mut marks, &mut layers);
                pass.answers.push((q, answers));
                let wall = wall.as_secs_f64() * 1e3;
                rt_ms += wall;
                unclaimed += (wall - claimed).abs();
            }
            let stats = server.stats();
            let mut timers = ServeTimers::default();
            let mut marks = Marks::new(w);
            let (wall, answers) = serve(w, &mut server, &subs, &mut marks, Some(&mut timers));
            pass.wall = wall;
            pass.answers.extend(answers);
            marks.finish(w, &mut pass);
            layers.insert("serve.ingest_ms", ms(timers.ingest_ns));
            layers.insert("serve.flush_ms", ms(timers.flush_ns));
            layers.insert("serve.deliver_ms", ms(timers.deliver_ns));
            layers.insert("serve.dedup_hit_rate", stats.dedup_hit_rate());
            layers.insert("serve.groups", stats.groups as f64);
            let served_ms = pass.wall.as_secs_f64() * 1e3;
            let claimed = ms(timers.ingest_ns + timers.flush_ns + timers.deliver_ns);
            (rt_ms + served_ms, unclaimed + (served_ms - claimed).abs())
        }
    };
    layers.insert(
        "unattributed.share",
        if wall_ms > 0.0 {
            unclaimed_ms / wall_ms
        } else {
            0.0
        },
    );
    pass.layers = layers;
    pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Gate;

    fn gate(w: &Workload, pass: &Pass) -> Gate {
        let mut gate = Gate::default();
        for (query, answers) in &pass.answers {
            gate.compare(&w.reference[*query], answers);
        }
        gate
    }

    #[test]
    fn every_workload_passes_the_gate_timed_and_traced() {
        for kind in Kind::ALL {
            let w = Workload::with_flushes(kind, 7, 32);
            let dir =
                std::path::PathBuf::from(".perfbench_run").join(format!("test-{}", kind.name()));
            let timed = timed(&w, setup(&w), &dir.join("timed"));
            let traced = traced(&w, setup(&w), &dir.join("traced"));
            let _ = std::fs::remove_dir_all(&dir);
            let _ = std::fs::remove_dir(".perfbench_run");
            for pass in [&timed, &traced] {
                let g = gate(&w, pass);
                assert!(g.attempted > 0, "{}", kind.name());
                assert_eq!(g.failed, 0, "{}", kind.name());
                assert!(pass.us_per_object > 0.0, "{}", kind.name());
            }
            assert_eq!(timed.flush_us.len(), w.stable_flush_range().len());
            let share = traced.layers["unattributed.share"];
            assert!((0.0..1.0).contains(&share), "{}: {share}", kind.name());
        }
    }

    /// The 2-shard mesh is not measured because of this defect: on these
    /// seeds the public mesh drivers differ from the sequential reference
    /// by an ulp or two of score at another point (README, "Known defect").
    #[test]
    #[ignore = "known defect: the 2-shard mesh diverges by an ulp or two on some seeds (README)"]
    fn mesh_matches_sequential_reference() {
        let policy = surge_stream::BalancerPolicy {
            max_shards: 2,
            ..surge_stream::BalancerPolicy::default()
        };
        let mut differing = Vec::new();
        for seed in [14, 15, 20] {
            let w = Workload::new(Kind::UniformSeq, seed);
            let mut det = CellCspot::with_shards(w.queries[0], BoundMode::Combined, 2);
            let stream = w.stream.iter().copied();
            let report = surge_stream::drive_elastic(&mut det, w.windows, stream, w.slide, policy);
            let answers: Vec<Fingerprint> = report
                .answers
                .iter()
                .map(|a| fingerprint(a.as_ref()))
                .collect();
            differing.push((seed, Gate::default().compare(&w.reference[0], &answers)));
        }
        assert!(
            differing.iter().all(|&(_, failed)| failed == 0),
            "(seed, differing flushes): {differing:?}"
        );
    }
}

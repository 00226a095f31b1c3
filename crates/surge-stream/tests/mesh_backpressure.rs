//! Liveness tests for the mesh inbox bound.
//!
//! The shard mesh gives every worker a lane-batch inbox of capacity
//! `(2n).max(4)`: a fast peer can run one exchange round ahead of a slow
//! worker, so up to `2(n-1)` undelivered batches can target one inbox. A
//! full inbox must *backpressure* (senders block until the slow worker
//! drains) — never deadlock. These tests pin a deliberately slow worker in
//! the mesh at n=2 and n=8, push enough batches to fill its inbox many
//! times over, and prove the run completes under a watchdog: if an inbox
//! cap regression introduces a cyclic wait, the watchdog fires instead of
//! the suite hanging.

use std::marker::PhantomData;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use surge_core::{
    BurstDetector, Event, Point, RegionAnswer, RegionSize, ShardAnswer, ShardRunStats, ShardWorker,
    ShardWorkerStats, ShardedIngest, SpatialObject, WindowConfig,
};
use surge_stream::{drive_elastic, BalancerPolicy};

/// A detector whose shard-0 worker sleeps periodically while applying
/// events — every other worker runs at full speed and races ahead until the
/// slow worker's inbox is full and the mesh backpressures.
struct SlowMesh {
    shards: usize,
    delay: Duration,
    events: u64,
}

impl SlowMesh {
    fn new(shards: usize, delay: Duration) -> Self {
        SlowMesh {
            shards,
            delay,
            events: 0,
        }
    }
}

struct SlowWorker<'a> {
    slow: bool,
    delay: Duration,
    events: u64,
    _mesh: PhantomData<&'a ()>,
}

impl ShardWorker for SlowWorker<'_> {
    type Job = ();
    type Outcome = ();

    fn on_event(&mut self, _event: &Event) {
        self.events += 1;
        // Sleeping every event would dominate the test's wall clock; every
        // 64th is enough to keep this worker rounds behind its peers.
        if self.slow && self.events.is_multiple_of(64) {
            thread::sleep(self.delay);
        }
    }
    fn install_and_best(&mut self, _outcomes: Vec<()>) -> Option<ShardAnswer> {
        None
    }
    fn stats(&self) -> ShardWorkerStats {
        ShardWorkerStats {
            cell_touches: self.events,
            sweeps: 0,
        }
    }
}

impl BurstDetector for SlowMesh {
    fn on_event(&mut self, _event: &Event) {
        self.events += 1;
    }
    fn current(&mut self) -> Option<RegionAnswer> {
        None
    }
    fn name(&self) -> &'static str {
        "slow-mesh"
    }
}

impl ShardedIngest for SlowMesh {
    type Worker<'a> = SlowWorker<'a>;

    fn ingest_workers(&mut self) -> Vec<SlowWorker<'_>> {
        let delay = self.delay;
        (0..self.shards)
            .map(|i| SlowWorker {
                slow: i == 0,
                delay,
                events: 0,
                _mesh: PhantomData,
            })
            .collect()
    }
    fn absorb_shard_run(&mut self, run: ShardRunStats) {
        self.events += run.events;
    }
    fn region_size(&self) -> RegionSize {
        RegionSize::new(1.0, 1.0)
    }
    fn mesh_shards(&self) -> usize {
        self.shards
    }
    fn reshard(&mut self, shards: usize) {
        self.shards = shards;
    }
}

/// Arrivals spread across 16 cells so every lane stays busy, timestamps
/// strictly increasing (the driver validates arrival order).
fn spread_stream(n: usize) -> Vec<SpatialObject> {
    (0..n)
        .map(|i| {
            SpatialObject::new(
                i as u64,
                1.0,
                Point::new((i % 4) as f64 + 0.5, ((i / 4) % 4) as f64 + 0.5),
                i as u64,
            )
        })
        .collect()
}

/// Runs `f` on its own thread and panics if it has not finished within
/// `timeout` — a deadlocked mesh hangs forever, so the watchdog converts it
/// into a test failure.
fn with_watchdog(timeout: Duration, f: impl FnOnce() -> (u64, u64) + Send + 'static) -> (u64, u64) {
    let (done_tx, done_rx) = mpsc::channel();
    let driver = thread::spawn(move || {
        let out = f();
        let _ = done_tx.send(());
        out
    });
    match done_rx.recv_timeout(timeout) {
        Ok(()) => driver.join().expect("driver thread panicked"),
        Err(_) => panic!("mesh deadlocked: drive did not finish within {timeout:?}"),
    }
}

fn sharded_backpressure(shards: usize) {
    // > capacity × BATCH objects between flushes: the fast peers fill the
    // slow worker's inbox several times over before each flush barrier.
    let n_objects = 2_000usize;
    let (objects, events) = with_watchdog(Duration::from_secs(60), move || {
        let mut d = SlowMesh::new(shards, Duration::from_millis(2));
        let report = drive_elastic(
            &mut d,
            WindowConfig::equal(500),
            spread_stream(n_objects).into_iter(),
            1_000,
            BalancerPolicy::STATIC,
        );
        (report.objects, report.events)
    });
    assert_eq!(objects, n_objects as u64);
    // Every object completes its lifecycle across the drain: 3 events each,
    // proving no batch was lost to the backpressure.
    assert_eq!(events, 3 * n_objects as u64);
}

#[test]
fn slow_worker_backpressures_without_deadlock_2_shards() {
    sharded_backpressure(2);
}

#[test]
fn slow_worker_backpressures_without_deadlock_8_shards() {
    sharded_backpressure(8);
}

#[test]
fn elastic_mesh_backpressures_without_deadlock() {
    // The default policy watches for skew at every flush. With zero dirty
    // cells the balancer stays quiet (load < min_load), so this exercises
    // the epoch loop under a slow worker without resharding noise.
    for shards in [2usize, 8] {
        let n_objects = 1_500usize;
        let (objects, events) = with_watchdog(Duration::from_secs(60), move || {
            let mut d = SlowMesh::new(shards, Duration::from_millis(2));
            let report = drive_elastic(
                &mut d,
                WindowConfig::equal(500),
                spread_stream(n_objects).into_iter(),
                750,
                BalancerPolicy::default(),
            );
            (report.objects, report.events)
        });
        assert_eq!(objects, n_objects as u64);
        assert_eq!(events, 3 * n_objects as u64);
    }
}

//! Outside-in layer timers: benchmark-local types that implement the
//! crates' public traits around the real implementations and time each
//! call they pass through. The drivers run unmodified; the wrappers change
//! no answer (the correctness gate checks every traced flush).

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use surge_core::{DetectorStats, Event, IncrementalDetector, SpatialObject};
use surge_io::{BlobFile, BlobStore, FsStore};
use surge_stream::{EventBatch, FlushOutcome, QueryCore, WindowEngine};

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f`, adding its wall time to `acc` (nanoseconds).
#[inline]
fn timed<R>(acc: &mut u64, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    *acc += nanos(t0.elapsed());
    r
}

/// A [`WindowEngine`] that times expansion (`stream.window`).
#[derive(Debug)]
pub struct TimedEngine<E> {
    inner: E,
    /// Nanoseconds inside `push_into` / `finish_into`.
    pub busy_ns: u64,
    /// Events the engine emitted.
    pub events: u64,
}

impl<E> TimedEngine<E> {
    /// Wraps `inner`.
    pub fn new(inner: E) -> Self {
        TimedEngine {
            inner,
            busy_ns: 0,
            events: 0,
        }
    }
}

impl<E: WindowEngine> WindowEngine for TimedEngine<E> {
    fn push_into(&mut self, object: SpatialObject, out: &mut EventBatch) {
        let before = out.len();
        timed(&mut self.busy_ns, || self.inner.push_into(object, out));
        self.events += (out.len() - before) as u64;
    }
    fn finish_into(&mut self, out: &mut EventBatch) {
        let before = out.len();
        timed(&mut self.busy_ns, || self.inner.finish_into(out));
        self.events += (out.len() - before) as u64;
    }
}

/// The incremental detector's [`QueryCore`] face — the same calls
/// `drive_incremental` makes (`on_event`, then `sweep_dirty` + `current`
/// at a flush) — timed per layer: `exact.cell`, `exact.sweep`,
/// `exact.answer`.
#[derive(Debug)]
pub struct TimedCore<D> {
    /// The detector.
    pub det: D,
    /// Nanoseconds inside `on_event`.
    pub cell_ns: u64,
    /// Nanoseconds inside `sweep_dirty`.
    pub sweep_ns: u64,
    /// Nanoseconds inside `current`.
    pub answer_ns: u64,
}

impl<D> TimedCore<D> {
    /// Wraps `det`.
    pub fn new(det: D) -> Self {
        TimedCore {
            det,
            cell_ns: 0,
            sweep_ns: 0,
            answer_ns: 0,
        }
    }
}

impl<D: IncrementalDetector> QueryCore for TimedCore<D> {
    fn on_event(&mut self, event: &Event) {
        timed(&mut self.cell_ns, || self.det.on_event(event));
    }
    fn flush(&mut self, threads: usize) -> FlushOutcome {
        let swept = timed(&mut self.sweep_ns, || self.det.sweep_dirty(threads));
        let answers = timed(&mut self.answer_ns, || self.det.current())
            .into_iter()
            .collect();
        FlushOutcome { answers, swept }
    }
    fn stats(&self) -> DetectorStats {
        self.det.stats()
    }
}

/// WAL I/O counters shared by a [`TimedStore`] and the files it creates.
#[derive(Debug, Default)]
pub struct WalTrace {
    /// Nanoseconds creating segment files, writing and flushing to the OS.
    pub write_ns: AtomicU64,
    /// Nanoseconds in `sync_data`.
    pub sync_ns: AtomicU64,
    /// Bytes written.
    pub bytes: AtomicU64,
}

/// A [`BlobStore`] over real files that times every WAL I/O call.
#[derive(Debug, Default, Clone)]
pub struct TimedStore {
    /// The shared counters.
    pub trace: Arc<WalTrace>,
}

struct TimedFile {
    inner: Box<dyn BlobFile>,
    trace: Arc<WalTrace>,
}

// The WAL writer runs on the driver thread and the counters are read
// after it returns: relaxed increments suffice for these statistics.
impl Write for TimedFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let t0 = Instant::now();
        let n = self.inner.write(buf)?;
        self.trace
            .write_ns
            .fetch_add(nanos(t0.elapsed()), Ordering::Relaxed);
        self.trace.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        let t0 = Instant::now();
        let r = self.inner.flush();
        self.trace
            .write_ns
            .fetch_add(nanos(t0.elapsed()), Ordering::Relaxed);
        r
    }
}

impl BlobFile for TimedFile {
    fn sync_data(&mut self) -> io::Result<()> {
        let t0 = Instant::now();
        let r = self.inner.sync_data();
        self.trace
            .sync_ns
            .fetch_add(nanos(t0.elapsed()), Ordering::Relaxed);
        r
    }
}

impl BlobStore for TimedStore {
    fn create(&self, path: &Path) -> io::Result<Box<dyn BlobFile>> {
        let t0 = Instant::now();
        let inner = FsStore.create(path)?;
        self.trace
            .write_ns
            .fetch_add(nanos(t0.elapsed()), Ordering::Relaxed);
        Ok(Box::new(TimedFile {
            inner,
            trace: Arc::clone(&self.trace),
        }))
    }
}

//! The repository benchmark: replays one of four seeded streaming
//! workloads through the public SURGE drivers and prints the paper's
//! end-to-end metrics, or, with `--trace 1`, the per-layer split.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload uniform-seq --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is
//! the run's full record (provenance, input properties, every pass).
//! See `perfbench/README.md` for what each workload and metric is for.

mod check;
mod layers;
mod passes;
mod workload;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use check::Gate;
use passes::Pass;
use workload::{Kind, Workload};

/// The end-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "us_per_object",
    "objects_per_s",
    "flush_p50_us",
    "flush_p99_us",
    "peak_rss_mb",
];

/// The per-layer metrics, printed with `--trace 1`. A layer a workload
/// does not exercise (or cannot be timed on) reads 0.
pub const PER_LAYER: [&str; 32] = [
    "stream.window.busy_ms",
    "stream.window.events",
    "core.reduce.busy_ms",
    "exact.cell.busy_ms",
    "exact.cell.events",
    "exact.cell.trigger_ratio",
    "exact.sweep.busy_ms",
    "exact.sweep.searches",
    "exact.sweep.max_per_flush",
    "exact.sweep.plan_reuse_ratio",
    "exact.sweep.epoch_hit_ratio",
    "exact.sweep.full_rebuild_ratio",
    "exact.answer.busy_ms",
    "checkpoint.wal.write_ms",
    "checkpoint.wal.sync_ms",
    "checkpoint.wal.bytes",
    "checkpoint.wal.appends",
    "checkpoint.snapshot.count",
    "checkpoint.snapshot.stall_p50_us",
    "checkpoint.snapshot.stall_total_ms",
    "serve.ingest_ms",
    "serve.flush_ms",
    "serve.deliver_ms",
    "serve.dedup_hit_rate",
    "serve.groups",
    "unattributed.share",
    "trace.overhead_us_per_object",
    "workload.objects",
    "workload.events",
    "workload.flushes",
    "workload.resident_objects",
    "workload.dirty_cells_per_flush",
];

/// Set-up batches timed before each pass; `setup_s` is the median batch's
/// mean.
const SETUP_BATCHES_PER_PASS: usize = 3;
/// Set-ups per batch: one set-up takes well under a microsecond, too short
/// to time alone.
const SETUP_BATCH: usize = 32;
/// Passes every run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// The unit a metric is printed with.
pub fn unit_of(name: &str) -> &'static str {
    match name {
        "setup_s" => "s",
        "us_per_object" | "trace.overhead_us_per_object" => "us",
        "objects_per_s" => "1/s",
        "peak_rss_mb" => "MB",
        n if n.ends_with("_us") => "us",
        n if n.ends_with("_ms") => "ms",
        "checkpoint.wal.bytes" => "bytes",
        n if n.ends_with("ratio") || n.ends_with("share") || n.ends_with("rate") => "ratio",
        _ => "count",
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile (`q` in `[0, 1]`), 0 when `values` is empty.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A `/proc/self/status` field in kB (Linux), or 0.
fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0.0)
}

/// The filesystem type of the mount holding `dir` (Linux), or "unknown".
fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            let fs = right.split(' ').next()?;
            dir.starts_with(mount_point)
                .then(|| (mount_point.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_list(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| json_number(*v))
        .collect::<Vec<_>>()
        .join(", ")
}

fn json_metrics(values: &[(&str, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (name, v)) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_number(*v),
            unit_of(name)
        );
    }
    out.push('}');
    out
}

/// Runs `f`, counting a panic as a failed pass.
fn guarded(w: &Workload, gate: &mut Gate, f: impl FnOnce() -> Pass) -> Option<Pass> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(pass) => {
            for (query, answers) in &pass.answers {
                gate.compare(&w.reference[*query], answers);
            }
            Some(pass)
        }
        Err(_) => {
            for sub in 0..w.subs.len() {
                gate.panicked(w.reference_of(sub));
            }
            None
        }
    }
}

/// Per-run scratch space inside the checkout, removed on drop.
struct RunDir(PathBuf);

impl RunDir {
    fn new() -> RunDir {
        let dir = PathBuf::from(".perfbench_run").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory inside the checkout");
        RunDir(dir)
    }
    fn pass_dir(&self, n: usize) -> PathBuf {
        self.0.join(format!("pass-{n}"))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent only when no other run is using it.
        let _ = std::fs::remove_dir(".perfbench_run");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let w = Workload::new(args.kind, args.seed);
    let run = RunDir::new();
    let budget = Duration::from_secs(args.seconds);
    let mut gate = Gate::default();

    // Set-up cost, timed in batches spread over the whole run like the
    // passes, so that both see the same machine conditions.
    let time_setup_batch = || {
        let t0 = Instant::now();
        let prepared: Vec<_> = (0..SETUP_BATCH).map(|_| passes::setup(&w)).collect();
        let dt = t0.elapsed().as_secs_f64() / SETUP_BATCH as f64;
        drop(prepared);
        dt
    };
    let mut setup_s: Vec<f64> = Vec::new();

    let mut timed: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let min_passes = MIN_PASSES * if args.trace { 2 } else { 1 };
    let measure_start = Instant::now();
    let mut last = Duration::ZERO;
    let mut n = 0usize;
    // Untraced and traced passes alternate under --trace 1, so the
    // overhead compares passes that saw the same machine conditions. No
    // pass starts that would end past the budget.
    while n < min_passes || measure_start.elapsed() + last < budget {
        let t0 = Instant::now();
        for _ in 0..SETUP_BATCHES_PER_PASS {
            setup_s.push(time_setup_batch());
        }
        let traced_now = args.trace && n % 2 == 1;
        let dir = run.pass_dir(n);
        let prepared = passes::setup(&w);
        let pass = if traced_now {
            guarded(&w, &mut gate, || passes::traced(&w, prepared, &dir))
        } else {
            guarded(&w, &mut gate, || passes::timed(&w, prepared, &dir))
        };
        match (pass, traced_now) {
            (Some(p), true) => traced.push(p),
            (Some(p), false) => timed.push(p),
            (None, _) => {}
        }
        last = t0.elapsed();
        n += 1;
    }
    let peak_rss_mb = status_kb("VmHWM:") / 1024.0;

    let objects = w.stream.len() as f64;
    let us: Vec<f64> = timed.iter().map(|p| p.us_per_object).collect();
    let ops: Vec<f64> = timed
        .iter()
        .map(|p| objects / p.wall.as_secs_f64())
        .collect();
    // Latency percentiles per pass (1024 samples each), then the median
    // over passes: one pass hit by a scheduler stall cannot move them.
    let p50: Vec<f64> = timed
        .iter()
        .map(|p| percentile(&p.flush_us, 0.50))
        .collect();
    let p99: Vec<f64> = timed
        .iter()
        .map(|p| percentile(&p.flush_us, 0.99))
        .collect();
    let flush_samples: usize = timed.iter().map(|p| p.flush_us.len()).sum();
    let end_to_end = [
        ("setup_s", median(&setup_s)),
        ("us_per_object", median(&us)),
        ("objects_per_s", median(&ops)),
        ("flush_p50_us", median(&p50)),
        ("flush_p99_us", median(&p99)),
        ("peak_rss_mb", peak_rss_mb),
    ];

    let props = w.props;
    let mut per_layer: Vec<(&str, f64)> = PER_LAYER
        .iter()
        .map(|&name| {
            let source = if name.starts_with("checkpoint.snapshot.") {
                &timed
            } else {
                &traced
            };
            let values: Vec<f64> = source
                .iter()
                .filter_map(|p| p.layers.get(name).copied())
                .collect();
            (name, median(&values))
        })
        .collect();
    let traced_us: Vec<f64> = traced.iter().map(|p| p.us_per_object).collect();
    let overhead = median(&traced_us) - end_to_end[1].1;
    for (name, value) in per_layer.iter_mut() {
        *value = match *name {
            "trace.overhead_us_per_object" => overhead,
            "workload.objects" => props.objects as f64,
            "workload.events" => props.events as f64,
            "workload.flushes" => props.flushes as f64,
            "workload.resident_objects" => props.resident_objects,
            "workload.dirty_cells_per_flush" => props.dirty_cells_per_flush,
            _ => *value,
        };
    }

    let record = format!(
        "{{\"perfbench\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"timed_passes\": {}, \"traced_passes\": {}, \"flush_samples\": {}, \
         \"failed_flush_frac\": {}, \"run_s\": {}, \
         \"provenance\": {{\"available_parallelism\": {}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \
         \"source_digest\": \"{}\", \"checkpoint_fs\": \"{}\"}}, \
         \"properties\": {{\"objects\": {}, \"events\": {}, \"flushes\": {}, \"stable_flushes\": {}, \
         \"stable_from\": {}, \"resident_objects\": {}, \"dirty_cells_per_flush\": {}, \
         \"plan_reuse_share\": {}, \"epoch_hit_share\": {}}}, \
         \"passes\": {{\"us_per_object\": [{}], \"objects_per_s\": [{}], \"flush_p50_us\": [{}], \
         \"flush_p99_us\": [{}], \"traced_us_per_object\": [{}], \"setup_s\": [{}]}}, \
         \"end_to_end\": {}, \"per_layer\": {}}}}}",
        w.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        timed.len(),
        traced.len(),
        flush_samples,
        json_number(gate.failed_frac()),
        json_number(started.elapsed().as_secs_f64()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_REV"),
        env!("PERFBENCH_SOURCE_DIGEST"),
        filesystem_of(&run.0),
        props.objects,
        props.events,
        props.flushes,
        props.stable_flushes,
        w.stable_from,
        json_number(props.resident_objects),
        json_number(props.dirty_cells_per_flush),
        json_number(props.plan_reuse_share),
        json_number(props.epoch_hit_share),
        json_list(&us),
        json_list(&ops),
        json_list(&p50),
        json_list(&p99),
        json_list(&traced_us),
        json_list(&setup_s),
        json_metrics(&end_to_end),
        json_metrics(&per_layer),
    );
    println!("{record}");

    let complete = !timed.is_empty() && (!args.trace || !traced.is_empty());
    let metrics = if args.trace {
        json_metrics(&per_layer)
    } else {
        json_metrics(&end_to_end)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        complete && gate.failed == 0,
        gate.attempted.max(1),
        gate.failed,
        metrics
    );
    if complete {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

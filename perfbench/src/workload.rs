//! The four workloads: their seeded inputs, queries, slide cadence, and the
//! sequential reference answers every pass is checked against.

use surge_core::{RegionSize, SpatialObject, SurgeQuery, WindowConfig};
use surge_exact::{BoundMode, CellCspot, SweepStats};
use surge_stream::{drive_incremental, Dataset, StreamGenerator};

use crate::check::{fingerprint, Fingerprint};

/// Burst-score balance α for every query (the paper's default).
const ALPHA: f64 = 0.5;
/// Stable-phase flushes each pass produces: every pass alone yields at
/// least 1000 flush-latency samples.
const STABLE_FLUSHES: usize = 1_024;

/// Which pipeline a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `drive_incremental_with_sink`, one thread, one cell shard.
    UniformSeq,
    /// `run_checkpointed_with_sink` with WAL and periodic snapshots.
    TaxiDurable,
    /// `SurgeServer` with four subscriptions over two distinct queries.
    TaxiServe4,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::UniformSeq, Kind::TaxiDurable, Kind::TaxiServe4];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::UniformSeq => "uniform-seq",
            Kind::TaxiDurable => "taxi-durable",
            Kind::TaxiServe4 => "taxi-serve4",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// What the reference run says about the input: the properties a claim
/// that a change "helps only inputs with X" must cite.
#[derive(Debug, Clone, Copy, Default)]
pub struct Properties {
    /// Objects per pass.
    pub objects: u64,
    /// Window-transition events per pass.
    pub events: u64,
    /// Flushes per pass (slides plus the terminal flush).
    pub flushes: u64,
    /// Stable-phase flushes per pass (the latency samples).
    pub stable_flushes: u64,
    /// Mean objects resident in the two windows over the stable phase.
    pub resident_objects: f64,
    /// Dirty cells swept per flush, averaged over all flushes.
    pub dirty_cells_per_flush: f64,
    /// Plan reuses over plan builds + reuses.
    pub plan_reuse_share: f64,
    /// Epoch-cache hits over hits + misses.
    pub epoch_hit_share: f64,
}

/// One workload's inputs and reference answers.
#[derive(Debug)]
pub struct Workload {
    /// Which pipeline.
    pub kind: Kind,
    /// The pre-generated stream every pass replays.
    pub stream: Vec<SpatialObject>,
    /// Window lengths of every query.
    pub windows: WindowConfig,
    /// Arrivals per slide.
    pub slide: usize,
    /// The distinct queries; `subs` indexes into it.
    pub queries: Vec<SurgeQuery>,
    /// Query index of each subscription (one entry outside serving).
    pub subs: Vec<usize>,
    /// Index of the first object arriving after both windows are full.
    pub stable_from: usize,
    /// Reference flush answers per distinct query.
    pub reference: Vec<Vec<Fingerprint>>,
    /// Input properties from the reference run of the first query.
    pub props: Properties,
}

/// Sum of the two window lengths, in stream milliseconds.
fn span(windows: WindowConfig) -> u64 {
    windows.current_len + windows.past_len
}

impl Workload {
    /// Builds the workload's inputs from `seed` and computes the reference.
    pub fn new(kind: Kind, seed: u64) -> Workload {
        Workload::with_flushes(kind, seed, STABLE_FLUSHES)
    }

    /// [`Workload::new`] with `stable_flushes` stable-phase flushes per
    /// pass instead of [`STABLE_FLUSHES`].
    pub fn with_flushes(kind: Kind, seed: u64, stable_flushes: usize) -> Workload {
        let (windows, slide, queries, subs) = if kind == Kind::UniformSeq {
            // Short windows reach steady state quickly; an 8-object slide
            // gives 1000+ stable flushes on a stream of moderate length.
            let windows = WindowConfig::equal(6_000);
            let q = SurgeQuery::whole_space(RegionSize::new(0.3, 0.3), windows, ALPHA);
            (windows, 8, vec![q], vec![0])
        } else {
            let windows = Dataset::Taxi.spec().default_windows;
            let extent = Dataset::Taxi.spec().extent;
            let q = Dataset::Taxi.default_region();
            let one = SurgeQuery::new(extent, q, windows, ALPHA);
            let two = SurgeQuery::new(extent, q.scaled(2.0), windows, ALPHA);
            match kind {
                Kind::TaxiServe4 => (windows, 8, vec![one, two], vec![0, 0, 1, 1]),
                _ => (windows, 8, vec![one], vec![0]),
            }
        };
        let stream = generate(kind, windows, slide, seed, stable_flushes);
        let first = stream.first().map_or(0, |o| o.created);
        let stable_from = stream
            .iter()
            .position(|o| o.created >= first + span(windows))
            .expect("stream outlasts the warm-up");
        let mut reference = Vec::new();
        let mut props = Properties::default();
        for (i, query) in queries.iter().enumerate() {
            let mut det = CellCspot::with_shards(*query, BoundMode::Combined, 1);
            let report = drive_incremental(&mut det, windows, stream.iter().copied(), slide, 1);
            reference.push(
                report
                    .answers
                    .iter()
                    .map(|a| fingerprint(a.as_ref()))
                    .collect(),
            );
            if i == 0 {
                let sweep: SweepStats = det.sweep_stats();
                props = Properties {
                    objects: report.objects,
                    events: report.events,
                    flushes: report.slides,
                    stable_flushes: 0,
                    resident_objects: mean_resident(&stream, windows, slide, stable_from),
                    dirty_cells_per_flush: report.jobs as f64 / report.slides.max(1) as f64,
                    plan_reuse_share: ratio(
                        sweep.plan_reuses,
                        sweep.plan_builds + sweep.plan_reuses,
                    ),
                    epoch_hit_share: ratio(sweep.epoch_hits, sweep.epoch_hits + sweep.epoch_misses),
                };
            }
        }
        let mut w = Workload {
            kind,
            stream,
            windows,
            slide,
            queries,
            subs,
            stable_from,
            reference,
            props,
        };
        w.props.stable_flushes = w.stable_flush_range().len() as u64;
        w
    }

    /// Flush indices of the stable phase: slides whose closing object
    /// arrives after both windows are full, up to the last full slide
    /// before the end-of-stream drain.
    pub fn stable_flush_range(&self) -> std::ops::Range<usize> {
        let first = self.stable_from / self.slide;
        first..self.stream.len() / self.slide
    }

    /// The reference answers of subscription `sub`.
    pub fn reference_of(&self, sub: usize) -> &[Fingerprint] {
        &self.reference[self.subs[sub]]
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The stream: warm-up plus `stable_flushes` slides, trimmed to a whole
/// number of slides so the last stable flush closes the stream.
fn generate(
    kind: Kind,
    windows: WindowConfig,
    slide: usize,
    seed: u64,
    stable_flushes: usize,
) -> Vec<SpatialObject> {
    let warm_up = |per_ms: f64| (span(windows) as f64 * per_ms).ceil() as usize + slide;
    let mut stream = if kind == Kind::UniformSeq {
        // `uniform_stream` spaces arrivals 3 ms apart.
        let n = warm_up(1.0 / 3.0) + stable_flushes * slide;
        surge_testkit::uniform_stream(n, seed)
    } else {
        // Taxi arrivals are Poisson; leave slack for a slow warm-up.
        let rate_per_ms = Dataset::Taxi.spec().rate_per_hour / 3_600_000.0;
        let n = warm_up(rate_per_ms) * 5 / 4 + stable_flushes * slide;
        StreamGenerator::new(Dataset::Taxi.workload(n, seed)).generate()
    };
    stream.truncate(stream.len() / slide * slide);
    stream
}

/// Mean objects in the two windows at each stable-phase slide boundary.
fn mean_resident(
    stream: &[SpatialObject],
    windows: WindowConfig,
    slide: usize,
    stable_from: usize,
) -> f64 {
    let mut oldest = 0usize;
    let mut total = 0u64;
    let mut samples = 0u64;
    for close in (slide - 1..stream.len()).step_by(slide) {
        if close < stable_from {
            continue;
        }
        let now = stream[close].created;
        while stream[oldest].created + span(windows) <= now {
            oldest += 1;
        }
        total += (close + 1 - oldest) as u64;
        samples += 1;
    }
    total as f64 / samples.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn every_benchmark_json_name_is_produced() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for kind in Kind::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", kind.name())));
        }
        for name in crate::END_TO_END.iter().chain(crate::PER_LAYER.iter()) {
            let unit = crate::unit_of(name);
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let listed = json.matches("\"name\":").count();
        assert_eq!(
            listed,
            Kind::ALL.len() + crate::END_TO_END.len() + crate::PER_LAYER.len(),
            "BENCHMARK.json lists a metric the benchmark does not produce"
        );
    }
}

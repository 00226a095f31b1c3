//! Driver-equivalence differentials for the approx detectors: GAPS and
//! MGAPS must produce **bit-identical** per-slide answer sequences under
//! the sequential incremental driver and the shard mesh, at every shard
//! count and across live reshards — the same contract the exact detector
//! family carries.
//! Streams come from `surge-testkit`'s collision-heavy lattice generator
//! (snapped positions, tied weights), the worst case for tie-breaking.

use proptest::prelude::*;
use surge_approx::{GapSurge, MgapSurge};
use surge_core::{RegionAnswer, RegionSize, SurgeQuery, WindowConfig};
use surge_stream::{drive_elastic, drive_incremental, BalancerPolicy};
use surge_testkit::{arb_lattice_stream, uniform_stream};

fn assert_bitwise(a: &[Option<RegionAnswer>], b: &[Option<RegionAnswer>], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: slide counts differ");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        match (x, y) {
            (None, None) => {}
            (Some(p), Some(q)) => {
                assert_eq!(
                    p.score.to_bits(),
                    q.score.to_bits(),
                    "{ctx}: slide {i} score"
                );
                assert_eq!(
                    p.point.x.to_bits(),
                    q.point.x.to_bits(),
                    "{ctx}: slide {i} x"
                );
                assert_eq!(
                    p.point.y.to_bits(),
                    q.point.y.to_bits(),
                    "{ctx}: slide {i} y"
                );
                assert_eq!(p.region, q.region, "{ctx}: slide {i} region");
            }
            _ => panic!("{ctx}: slide {i} presence differs ({x:?} vs {y:?})"),
        }
    }
}

fn query(windows: WindowConfig, alpha: f64) -> SurgeQuery {
    SurgeQuery::whole_space(RegionSize::new(1.0, 1.0), windows, alpha)
}

/// A split-happy policy: any lane imbalance is skew, and one skewed flush
/// doubles the mesh. GAPS/MGAPS report no dirty cells, so the lane
/// transition deltas alone drive the balancer.
fn split_happy() -> BalancerPolicy {
    BalancerPolicy {
        skew_percent: 0,
        patience: 1,
        max_shards: 8,
        min_load: 1,
    }
}

/// GAPS and MGAPS reshard through their checkpoint path mid-stream; the
/// answers must continue bit-identically to the sequential driver.
#[test]
fn grid_detectors_reshard_bit_identically() {
    let objects = uniform_stream(1_500, 7);
    let windows = WindowConfig::equal(600);
    let q = SurgeQuery::whole_space(RegionSize::new(0.5, 0.5), windows, 0.5);
    for slide in [16usize, 64] {
        let mut seq = GapSurge::new(q);
        let base = drive_incremental(&mut seq, windows, objects.iter().copied(), slide, 1);
        let mut mesh = GapSurge::with_shards(q, 2);
        let got = drive_elastic(
            &mut mesh,
            windows,
            objects.iter().copied(),
            slide,
            split_happy(),
        );
        assert!(
            got.reshards >= 1,
            "GAPS slide {slide}: the mesh never split"
        );
        assert_eq!(got.final_shards, 2 << got.reshards);
        assert_eq!(got.stolen, 0, "GAPS has no sweeps to steal");
        assert_bitwise(
            base.answers.retained(),
            got.answers.retained(),
            &format!("GAPS resharded, slide {slide}"),
        );

        let mut seq = MgapSurge::new(q);
        let base = drive_incremental(&mut seq, windows, objects.iter().copied(), slide, 1);
        let mut mesh = MgapSurge::with_shards(q, 2);
        let got = drive_elastic(
            &mut mesh,
            windows,
            objects.iter().copied(),
            slide,
            split_happy(),
        );
        assert!(
            got.reshards >= 1,
            "MGAPS slide {slide}: the mesh never split"
        );
        assert_eq!(got.final_shards, 2 << got.reshards);
        assert_bitwise(
            base.answers.retained(),
            got.answers.retained(),
            &format!("MGAPS resharded, slide {slide}"),
        );
        assert_eq!(mesh.cell_count(), seq.cell_count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gaps_sharded_matches_incremental(
        objects in arb_lattice_stream(60),
        window_len in 4u64..120,
        alpha in 0.0f64..0.95,
        slide in 1usize..9,
        shard_pick in 0usize..4,
        policy_pick in 0usize..2,
    ) {
        let shards = [1usize, 2, 4, 8][shard_pick];
        let policy = [BalancerPolicy::STATIC, split_happy()][policy_pick];
        let windows = WindowConfig::equal(window_len);
        let q = query(windows, alpha);
        let mut seq = GapSurge::new(q);
        let base = drive_incremental(&mut seq, windows, objects.iter().copied(), slide, 2);
        let mut sharded = GapSurge::with_shards(q, shards);
        let got = drive_elastic(&mut sharded, windows, objects.iter().copied(), slide, policy);
        prop_assert_eq!(got.final_shards, shards << got.reshards);
        assert_bitwise(base.answers.retained(), got.answers.retained(), &format!("GAPS @{shards} shards, {policy:?}"));
    }

    #[test]
    fn mgaps_sharded_matches_incremental(
        objects in arb_lattice_stream(60),
        window_len in 4u64..120,
        alpha in 0.0f64..0.95,
        slide in 1usize..9,
        shard_pick in 0usize..3,
        policy_pick in 0usize..2,
    ) {
        let shards = [1usize, 2, 4][shard_pick];
        let policy = [BalancerPolicy::STATIC, split_happy()][policy_pick];
        let windows = WindowConfig::equal(window_len);
        let q = query(windows, alpha);
        let mut seq = MgapSurge::new(q);
        let base = drive_incremental(&mut seq, windows, objects.iter().copied(), slide, 2);
        let mut sharded = MgapSurge::with_shards(q, shards);
        let got = drive_elastic(&mut sharded, windows, objects.iter().copied(), slide, policy);
        prop_assert_eq!(got.final_shards, shards << got.reshards);
        assert_bitwise(base.answers.retained(), got.answers.retained(), &format!("MGAPS @{shards} shards, {policy:?}"));
    }

    #[test]
    fn gaps_shard_counts_agree_with_each_other(
        objects in arb_lattice_stream(50),
        window_len in 4u64..80,
        slide in 1usize..6,
    ) {
        let windows = WindowConfig::equal(window_len);
        let q = query(windows, 0.5);
        let mut base = GapSurge::with_shards(q, 1);
        let a = drive_elastic(&mut base, windows, objects.iter().copied(), slide, BalancerPolicy::STATIC);
        for shards in [2usize, 8] {
            let mut det = GapSurge::with_shards(q, shards);
            let b = drive_elastic(&mut det, windows, objects.iter().copied(), slide, BalancerPolicy::STATIC);
            assert_bitwise(a.answers.retained(), b.answers.retained(), &format!("GAPS 1 vs {shards} shards"));
        }
    }
}

//! Property tests of the bulk ingestion path: `push_batch` must be
//! **bit-identical** to folding the per-item `push` — sketch tuples,
//! monitor window, emitted snapshots and checkpoint bytes — at every
//! random batch split, `jobs` setting and shard count, and the GK
//! rank-error bound must survive batched compaction. One fixed-size gate
//! pins the point of the batched path: through the full analyzer it
//! does at least 5× less sketch maintenance than itemized ingest.

use proptest::prelude::*;
use proxima_mbpta::session::Tagged;
use proxima_mbpta::MbptaConfig;
use proxima_stream::persist::{save_analyzer, save_federated};
use proxima_stream::{
    FederatedAnalyzer, FederatedConfig, IidMonitor, QuantileSketch, SessionStreamExt,
    StreamAnalyzer, StreamConfig,
};

/// Deterministic synthetic campaign: base latency plus summed uniform
/// jitter terms (bounded, light-tailed — the MBPTA-compliant shape).
fn campaign(n: usize, seed: u64) -> Vec<f64> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| 1e5 + (0..8).map(|_| rng.gen::<f64>()).sum::<f64>() * 100.0)
        .collect()
}

/// Turn random cut points into contiguous batch bounds over `len`
/// measurements (possibly empty batches included — they must be no-ops).
fn split_bounds(cuts: &[usize], len: usize) -> Vec<usize> {
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (len + 1)).collect();
    bounds.push(0);
    bounds.push(len);
    bounds.sort_unstable();
    bounds
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        block_size: 25,
        refit_every_blocks: 4,
        ..StreamConfig::default()
    }
}

proptest! {
    /// Sketch state (tuples, counters, side stats) is identical between
    /// batched and itemized ingest for any stream and any batch split.
    #[test]
    fn sketch_insert_batch_equals_itemized(
        sample in prop::collection::vec(0.0f64..1e6, 100..2_000),
        cuts in prop::collection::vec(0usize..2_000, 0..8),
        eps_idx in 0usize..3,
    ) {
        let eps = [0.001, 0.02, 0.2][eps_idx];
        let mut itemized = QuantileSketch::new(eps).unwrap();
        for &x in &sample {
            itemized.insert(x);
        }
        let mut batched = QuantileSketch::new(eps).unwrap();
        for w in split_bounds(&cuts, sample.len()).windows(2) {
            batched.insert_batch(&sample[w[0]..w[1]]);
        }
        // PartialEq covers epsilon, tuples, n, compress counter, min,
        // max and sum — the full logical state.
        prop_assert_eq!(&batched, &itemized);
    }

    /// The GK `εn` rank bound holds under batched compaction for any
    /// stream, split and query level.
    #[test]
    fn batched_compaction_keeps_rank_bound(
        sample in prop::collection::vec(0.0f64..1e6, 200..2_000),
        cuts in prop::collection::vec(0usize..2_000, 0..8),
        phi in 0.0f64..1.0,
    ) {
        let eps = 0.02;
        let mut sketch = QuantileSketch::new(eps).unwrap();
        for w in split_bounds(&cuts, sample.len()).windows(2) {
            sketch.insert_batch(&sample[w[0]..w[1]]);
        }
        let est = sketch.quantile(phi).unwrap();
        let mut sorted = sample.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let lo = sorted.partition_point(|&v| v < est) as f64;
        let hi = sorted.partition_point(|&v| v <= est) as f64;
        let target = phi * sample.len() as f64;
        let slack = eps * sample.len() as f64 + 1.0;
        let dist = if target < lo {
            lo - target
        } else if target > hi {
            target - hi
        } else {
            0.0
        };
        prop_assert!(dist <= slack, "phi={phi} dist={dist} slack={slack}");
    }

    /// The monitor window after a batched feed equals the itemized one
    /// for any capacity and split (windows are compared through the
    /// Debug representation, which prints the full deque).
    #[test]
    fn monitor_push_batch_equals_itemized(
        sample in prop::collection::vec(0.0f64..1e6, 1..1_500),
        cuts in prop::collection::vec(0usize..1_500, 0..8),
        capacity in 10usize..700,
    ) {
        let mut itemized = IidMonitor::new(capacity, 0.05);
        for &x in &sample {
            itemized.push(x);
        }
        let mut batched = IidMonitor::new(capacity, 0.05);
        for w in split_bounds(&cuts, sample.len()).windows(2) {
            batched.push_batch(&sample[w[0]..w[1]]);
        }
        prop_assert_eq!(format!("{batched:?}"), format!("{itemized:?}"));
    }

    /// Analyzer: emitted snapshot sequence and checkpoint bytes are
    /// identical between batched and itemized ingest at any split.
    #[test]
    fn analyzer_push_batch_equals_itemized(
        seed in 0u64..8,
        cuts in prop::collection::vec(0usize..1_200, 0..8),
    ) {
        let times = campaign(1_200, seed);
        let mut itemized = StreamAnalyzer::new(stream_config()).unwrap();
        let reference_snaps = itemized.extend(times.iter().copied()).unwrap();
        let mut batched = StreamAnalyzer::new(stream_config()).unwrap();
        let mut snaps = Vec::new();
        for w in split_bounds(&cuts, times.len()).windows(2) {
            snaps.extend(batched.push_batch(&times[w[0]..w[1]]).unwrap());
        }
        prop_assert_eq!(snaps, reference_snaps);
        prop_assert_eq!(save_analyzer(&batched), save_analyzer(&itemized));
    }

    /// Federated analyzer: same contract across shard counts {1, 4} (and
    /// an odd 3) — shard routing and checkpoint bytes.
    #[test]
    fn federated_push_batch_equals_itemized(
        seed in 0u64..6,
        cuts in prop::collection::vec(0usize..1_400, 0..8),
        shards_idx in 0usize..3,
    ) {
        let shards = [1usize, 3, 4][shards_idx];
        let times = campaign(1_400, seed);
        let config = FederatedConfig {
            stream: stream_config(),
            shards,
            shard_len: 300,
        };
        let mut itemized = FederatedAnalyzer::new(config.clone()).unwrap();
        for &x in &times {
            itemized.push(x).unwrap();
        }
        let mut batched = FederatedAnalyzer::new(config).unwrap();
        for w in split_bounds(&cuts, times.len()).windows(2) {
            batched.push_batch(&times[w[0]..w[1]]).unwrap();
        }
        prop_assert_eq!(save_federated(&batched), save_federated(&itemized));
    }

    /// Session: snapshot stream, checkpoint bytes and merged verdicts are
    /// identical between batched and itemized feeds at any batch split,
    /// `jobs` in {1, 8} and shards in {1, 4} — the correctness spine of
    /// the bulk path, scheduler bookkeeping included.
    #[test]
    fn session_push_batch_equals_itemized(
        seed in 0u64..5,
        cuts in prop::collection::vec(0usize..1_400, 0..8),
        jobs_idx in 0usize..2,
        shards_idx in 0usize..2,
        every in 0usize..3,
    ) {
        let jobs = [1usize, 8][jobs_idx];
        let shards = [1usize, 4][shards_idx];
        let every = [0usize, 1, 100][every];
        let times = campaign(1_400, seed);
        let build = |jobs: usize| {
            let builder = MbptaConfig::default()
                .session()
                .snapshot_every(every)
                .jobs(jobs);
            if shards == 1 {
                builder.build_stream_with(stream_config()).map(|s| (Some(s), None))
            } else {
                builder
                    .build_stream_with(FederatedConfig {
                        stream: stream_config(),
                        shards,
                        shard_len: 300,
                    })
                    .map(|s| (None, Some(s)))
            }
        };
        // Generic driver over either factory, itemized vs batched.
        macro_rules! drive {
            ($session:expr) => {{
                let session = $session;
                let mut itemized_snaps = Vec::new();
                for &x in &times {
                    itemized_snaps.extend(session.push(Tagged::new("chan", x)).unwrap());
                }
                (itemized_snaps, session.checkpoint().unwrap())
            }};
        }
        macro_rules! drive_batched {
            ($session:expr) => {{
                let session = $session;
                let mut snaps = Vec::new();
                for w in split_bounds(&cuts, times.len()).windows(2) {
                    snaps.extend(session.push_batch("chan", &times[w[0]..w[1]]).unwrap());
                }
                (snaps, session.checkpoint().unwrap())
            }};
        }
        match (build(jobs).unwrap(), build(jobs).unwrap()) {
            ((Some(mut a), None), (Some(mut b), None)) => {
                let (ref_snaps, ref_ckpt) = drive!(&mut a);
                let (snaps, ckpt) = drive_batched!(&mut b);
                prop_assert_eq!(snaps, ref_snaps);
                prop_assert_eq!(ckpt, ref_ckpt);
                let (va, vb) = (a.merge(), b.merge());
                prop_assert_eq!(
                    format!("{:?}", va.verdict("chan")),
                    format!("{:?}", vb.verdict("chan"))
                );
            }
            ((None, Some(mut a)), (None, Some(mut b))) => {
                let (ref_snaps, ref_ckpt) = drive!(&mut a);
                let (snaps, ckpt) = drive_batched!(&mut b);
                prop_assert_eq!(snaps, ref_snaps);
                prop_assert_eq!(ckpt, ref_ckpt);
                let (va, vb) = (a.merge(), b.merge());
                prop_assert_eq!(
                    format!("{:?}", va.verdict("chan")),
                    format!("{:?}", vb.verdict("chan"))
                );
            }
            _ => unreachable!("builder returns one variant"),
        }
    }
}

/// The analyzer-level ingest gate. Wall-clock on a shared runner is
/// noise, so the gate is the sketch's machine-independent tuple
/// maintenance counter (`QuantileSketch::maintenance_ops`): batched
/// ingest through the full analyzer (sketch, monitor, block maxima,
/// refits) must do at least 5× less of it than itemized ingest, and
/// reach the same checkpoint bytes. The sketch-level gate is the unit
/// test `batch_insert_does_less_maintenance_work` in `sketch.rs`.
#[test]
fn batched_analyzer_ingest_does_5x_less_sketch_maintenance() {
    use proxima_prng::{RandomSource, SplitMix64};
    const N: usize = 100_000;
    const CHUNK: usize = 4096; // the CLI's feed chunk size
    let mut rng = SplitMix64::new(42);
    let mut uniform = || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let times: Vec<f64> = (0..N)
        .map(|_| 1e5 + (0..8).map(|_| uniform()).sum::<f64>() * 100.0)
        .collect();
    let config = StreamConfig {
        block_size: 50,
        refit_every_blocks: 5,
        sketch_epsilon: 0.001,
        bootstrap: None, // gate the ingest path, not the bootstrap
        ..StreamConfig::default()
    };
    let mut itemized = StreamAnalyzer::new(config.clone()).unwrap();
    itemized.extend(times.iter().copied()).unwrap();
    let mut batched = StreamAnalyzer::new(config).unwrap();
    for chunk in times.chunks(CHUNK) {
        batched.push_batch(chunk).unwrap();
    }
    assert_eq!(save_analyzer(&batched), save_analyzer(&itemized));
    let (b, i) = (
        batched.sketch().maintenance_ops(),
        itemized.sketch().maintenance_ops(),
    );
    assert!(
        b * 5 <= i,
        "batched ingest must do ≥5x less sketch maintenance: batched {b} vs itemized {i}"
    );
}

//! The two offline streaming workloads. Both parse a text feed built at
//! set-up from simulator-produced values, push it in fixed chunks into a
//! streaming `AnalysisSession` and merge the session into the final
//! verdict.
//!
//! * `stream_refit`: a tagged four-channel feed at the default
//!   `StreamConfig` (refit every 5 blocks, 200 bootstrap resamples), long
//!   enough that each channel reaches hundreds of maxima. Refit and
//!   bootstrap dominate, so refit work shows here.
//! * `ingest_bulk`: one long untagged stream whose refit cadence fires
//!   only a handful of times and with no bootstrap. Parsing, the sketch,
//!   the i.i.d. monitor and block maxima do most of the work, so a
//!   slower gate or sketch shows here while refit-bound workloads hide it.

use std::time::Instant;

use proxima_mbpta::confidence::interval_from_maxima;
use proxima_mbpta::session::{SessionVerdict, Tagged};
use proxima_mbpta::{AnalysisSession, BlockSpec, MbptaConfig, Pwcet};
use proxima_prng::SplitMix64;
use proxima_stats::evt::{block_maxima, fit_gumbel};
use proxima_stream::persist::save_analyzer;
use proxima_stream::{
    ByteLines, LineSource, SessionStreamExt, StreamAnalyzer, StreamConfig, StreamFactory,
};
use proxima_workload::tvca::Scale;

use crate::common::*;
use crate::trace::Tracer;

/// Channel name of the untagged feed.
const BULK: &str = "bulk";

struct Spec {
    name: &'static str,
    /// Tagged `<channel> <value>` lines, or bare values on one channel.
    tagged: bool,
    /// Tagged channels per TVCA path.
    per_path: usize,
    /// Values per channel.
    per_channel: usize,
    /// Consecutive lines of one channel in the tagged feed.
    interleave: usize,
    /// Most values per `push_batch` call.
    chunk: usize,
    /// Simulated runs per TVCA path behind the resampled feed.
    pool: usize,
    stream: StreamConfig,
    /// Refit points per channel sampled by the `stats` probe.
    stats_probes: usize,
}

fn refit_spec(o: &Opts) -> Spec {
    Spec {
        name: "stream_refit",
        tagged: true,
        per_path: 6,
        per_channel: o.size(5_000, 1_500),
        interleave: 100,
        chunk: 100,
        pool: o.size(400, 60),
        stream: StreamConfig::default(),
        stats_probes: 6,
    }
}

fn bulk_spec(o: &Opts) -> Spec {
    let per_channel = o.size(1_200_000, 40_000);
    let block_size = 50;
    Spec {
        name: "ingest_bulk",
        tagged: false,
        per_path: 1,
        per_channel,
        interleave: per_channel,
        chunk: 4096,
        pool: o.size(400, 60),
        // Four refits over the stream; the first needs `min_blocks`.
        stream: StreamConfig {
            block_size,
            refit_every_blocks: per_channel / block_size / 4,
            bootstrap: None,
            ..StreamConfig::default()
        },
        stats_probes: 1,
    }
}

/// The generated input: per-channel values and the text feed.
struct Feed {
    channels: Vec<(String, Vec<f64>)>,
    text: Vec<u8>,
    totals: SimTotals,
    trace_insts: usize,
}

fn make_feed(spec: &Spec, seed: u64, tracer: &mut Tracer) -> Feed {
    let traces = tracer.span("workload.trace_build", || tvca_traces(Scale::Full));
    let trace_insts = traces.iter().map(|(_, t)| t.len()).sum();
    let mut totals = SimTotals::default();
    let pools = simulate_pool(&traces, spec.pool, POOL_SEED, tracer, &mut totals);
    let channels: Vec<(String, Vec<f64>)> = if spec.tagged {
        let mut channels = Vec::new();
        for i in 0..spec.per_path {
            for ((name, _), pool) in traces.iter().zip(&pools) {
                let stream = SplitMix64::stream_seed(seed, 2 + channels.len() as u64);
                let values = resample(pool, spec.per_channel, &mut SplitMix64::new(stream));
                channels.push((format!("{name}.{i}"), values));
            }
        }
        channels
    } else {
        let pool: Vec<f64> = pools.concat();
        let mut rng = SplitMix64::new(SplitMix64::stream_seed(seed, 2));
        vec![(
            BULK.to_string(),
            resample(&pool, spec.per_channel, &mut rng),
        )]
    };
    let mut text = Vec::new();
    for start in (0..spec.per_channel).step_by(spec.interleave) {
        for (name, values) in &channels {
            for v in &values[start..(start + spec.interleave).min(values.len())] {
                if spec.tagged {
                    text.extend_from_slice(name.as_bytes());
                    text.push(b' ');
                }
                text.extend_from_slice(v.to_string().as_bytes());
                text.push(b'\n');
            }
        }
    }
    Feed {
        channels,
        text,
        totals,
        trace_insts,
    }
}

fn session_for(spec: &Spec) -> AnalysisSession<StreamFactory> {
    MbptaConfig {
        block: BlockSpec::Fixed(spec.stream.block_size),
        ..MbptaConfig::default()
    }
    .session()
    .snapshot_every(1)
    .target_p(spec.stream.target_p)
    .jobs(JOBS)
    .build_stream_with(spec.stream.clone())
    .expect("valid stream configuration")
}

/// Reads a feed one channel run at a time, as the `session` CLI groups
/// it: consecutive lines of a channel, at most `chunk` of them.
struct Chunker<'a> {
    tagged: ByteLines<&'a [u8]>,
    bare: LineSource<&'a [u8]>,
    is_tagged: bool,
    pending: Option<Tagged>,
    chunk: usize,
}

impl<'a> Chunker<'a> {
    fn new(text: &'a [u8], is_tagged: bool, chunk: usize) -> Self {
        Chunker {
            tagged: ByteLines::new(text),
            bare: LineSource::new(text),
            is_tagged,
            pending: None,
            chunk,
        }
    }

    fn next_tagged(&mut self) -> Option<Result<Tagged, String>> {
        loop {
            let line = self.tagged.next_line(|_, bytes| {
                let t = bytes.trim_ascii();
                if t.is_empty() || t[0] == b'#' {
                    return None;
                }
                Some(
                    std::str::from_utf8(t)
                        .map_err(|e| e.to_string())
                        .and_then(|s| s.parse::<Tagged>().map_err(|e| e.to_string())),
                )
            });
            match line {
                Err(e) => return Some(Err(e.to_string())),
                Ok(None) => return None,
                Ok(Some(None)) => continue,
                Ok(Some(Some(parsed))) => return Some(parsed),
            }
        }
    }

    /// Up to `chunk` bare values, as the `stream` CLI reads its input.
    fn next_bare(&mut self) -> Option<Result<(Tagged, Vec<f64>), String>> {
        let mut values = Vec::with_capacity(self.chunk);
        for v in self.bare.by_ref().take(self.chunk) {
            match v {
                Ok(v) => values.push(v),
                Err(e) => return Some(Err(e.to_string())),
            }
        }
        let first = *values.first()?;
        Some(Ok((Tagged::new(BULK, first), values)))
    }

    /// The next run of one channel's values, or `None` at the end.
    fn next_run(&mut self) -> Option<Result<(Tagged, Vec<f64>), String>> {
        if !self.is_tagged {
            return self.next_bare();
        }
        let first = match self.pending.take() {
            Some(t) => t,
            None => match self.next_tagged()? {
                Ok(t) => t,
                Err(e) => return Some(Err(e)),
            },
        };
        let mut values = vec![first.time];
        while values.len() < self.chunk {
            match self.next_tagged() {
                None => break,
                Some(Err(e)) => return Some(Err(e)),
                Some(Ok(t)) if t.channel != first.channel => {
                    self.pending = Some(t);
                    break;
                }
                Some(Ok(t)) => values.push(t.time),
            }
        }
        Some(Ok((first, values)))
    }
}

#[derive(Default)]
struct Round {
    values: usize,
    ingest_s: f64,
    /// Time of every chunk, parse and push together.
    ops: Vec<f64>,
    /// Latency of every push call.
    pushes: Vec<f64>,
    /// Whether each push call emitted a snapshot.
    emitted: Vec<bool>,
    /// Values in push calls that emitted no snapshot.
    quiet_values: usize,
    refits: usize,
    maxima: usize,
    resamples: usize,
    verdict_s: f64,
    verdict: Option<SessionVerdict>,
    total_s: f64,
}

fn round(spec: &Spec, feed: &Feed, tracer: &mut Tracer, rep: &mut Report) -> Round {
    let mut s = session_for(spec);
    let mut r = Round::default();
    let root = tracer.enter("bench.round");
    let t0 = Instant::now();
    let mut chunker = Chunker::new(&feed.text, spec.tagged, spec.chunk);
    loop {
        let t_op = Instant::now();
        let parse = tracer.enter("stream.parse");
        let next = chunker.next_run();
        tracer.exit(parse);
        let Some(run) = next else { break };
        let Some((first, values)) = rep.op(run) else {
            break;
        };
        let push = tracer.enter("stream.push");
        let t = Instant::now();
        let res = s.push_batch(first.channel, &values);
        let dt = t.elapsed().as_secs_f64();
        let Some(snaps) = rep.op(res) else {
            tracer.exit(push);
            break;
        };
        let emitted = !snaps.is_empty();
        tracer.exit_as(
            push,
            if emitted {
                "stream.refit"
            } else {
                "stream.ingest"
            },
        );
        r.ops.push(t_op.elapsed().as_secs_f64());
        r.pushes.push(dt);
        r.emitted.push(emitted);
        r.values += values.len();
        if !emitted {
            r.quiet_values += values.len();
        }
        for snap in &snaps {
            r.refits += 1;
            r.maxima += snap.estimate.blocks.unwrap_or(0);
            r.resamples += snap.estimate.ci.map_or(0, |ci| ci.resamples);
        }
    }
    r.ingest_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let verdict = tracer.span("core.session_merge", || {
        let merged = s.merge();
        merged
            .envelope_budget(TARGET_P)
            .map_err(|e| e.to_string())?;
        Ok::<_, String>(merged)
    });
    r.verdict_s = t1.elapsed().as_secs_f64();
    r.verdict = rep.op(verdict);
    r.total_s = t0.elapsed().as_secs_f64();
    tracer.exit(root);
    r
}

/// Batched chunks must give the verdict a whole-feed `push_batch` per
/// channel gives (the session's documented bit-identity). Returns the
/// reference session before its merge, for the checkpoint probe.
fn check(
    o: &Opts,
    spec: &Spec,
    feed: &Feed,
    r: &Round,
    tracer: &mut Tracer,
    rep: &mut Report,
) -> usize {
    let mut reference = session_for(spec);
    for (i, (name, values)) in feed.channels.iter().enumerate() {
        let mut values = values.clone();
        if o.sabotage && i == 0 {
            // A new high watermark: every verdict field moves.
            values[0] = 2.0 * values.iter().copied().fold(0.0, f64::max);
        }
        rep.op(reference.push_batch(name.as_str(), &values));
    }
    let ckpt = tracer.span("core.checkpoint", || reference.checkpoint());
    let bytes = rep.op(ckpt).map_or(0, |b| b.len());
    let want = session_bits(&reference.merge());
    let got = r.verdict.as_ref().map(session_bits);
    rep.check(
        got.as_ref() == Some(&want),
        "chunked verdict differs from whole-feed push_batch",
    );
    let ok = r.verdict.as_ref().is_some_and(SessionVerdict::all_ok);
    rep.check(ok, "every channel has a verdict");
    bytes
}

fn run(o: &Opts, spec: &Spec) -> Report {
    let mut rep = Report::default();

    if !o.trace {
        let (setups, feed, rounds) = measure(
            o.seconds,
            3,
            || make_feed(spec, o.seed, &mut Tracer::new(false)),
            |feed| round(spec, feed, &mut Tracer::new(false), &mut rep),
        );
        check(
            o,
            spec,
            &feed,
            &rounds[0],
            &mut Tracer::new(false),
            &mut rep,
        );
        let first = &rounds[0];
        let ops = fastest(rounds.iter().map(|r| r.ops.as_slice()));
        let pushes = fastest(rounds.iter().map(|r| r.pushes.as_slice()));
        // stream_refit times the calls that emitted a snapshot (estimate
        // freshness); ingest_bulk times every ingest call.
        let calls: Vec<f64> = pushes
            .iter()
            .zip(&first.emitted)
            .filter(|(_, &emitted)| emitted || !spec.tagged)
            .map(|(dt, _)| dt * 1e3)
            .collect();
        let verdict_s = min(&rounds.iter().map(|r| r.verdict_s).collect::<Vec<_>>());
        let m = &mut rep.metrics;
        m.put("setup_s", min(&setups), "s");
        m.put("setup_median_s", median(&setups), "s");
        m.put(
            "meas_per_s",
            first.values as f64 / ops.iter().sum::<f64>(),
            "1/s",
        );
        m.put("call_p50_ms", percentile(&calls, 0.5), "ms");
        m.put("call_p95_ms", percentile(&calls, 0.95), "ms");
        m.put("call_samples", calls.len() as f64, "count");
        m.put("final_verdict_ms", verdict_s * 1e3, "ms");
        if spec.tagged {
            m.put("snapshot_p50_ms", percentile(&calls, 0.5), "ms");
            m.put("snapshot_p95_ms", percentile(&calls, 0.95), "ms");
        }
        let mixed: Vec<f64> = rounds
            .iter()
            .map(|r| r.values as f64 / r.ingest_s)
            .collect();
        m.put("median_round_meas_per_s", median(&mixed), "1/s");
        rep.notes.push(format!(
            "{} rounds of {} values, {} set-ups; {} call latencies ({})",
            rounds.len(),
            first.values,
            setups.len(),
            calls.len(),
            if spec.tagged {
                "push calls that emitted a snapshot"
            } else {
                "every push call"
            }
        ));
        return rep;
    }

    let mut setup = Tracer::new(true);
    let feed = make_feed(spec, o.seed, &mut setup);
    let Some((traced, mut tracer, overhead)) = traced_rounds(
        o.seconds,
        |t| Some(round(spec, &feed, t, &mut rep)),
        |r| r.total_s,
    ) else {
        return rep;
    };
    let breakdown = tracer.breakdown(round_root(&tracer));

    let probe = tracer.enter("bench.probe");
    let checkpoint_bytes = check(o, spec, &feed, &traced, &mut tracer, &mut rep);
    // The sketch's work counters, from one analyzer per channel with the
    // same sketch settings (the sketch does not depend on the bootstrap).
    let (mut ops, mut tuples, mut state, mut n) = (0u64, 0usize, 0usize, 0u64);
    for (_, values) in &feed.channels {
        let config = StreamConfig {
            bootstrap: None,
            ..spec.stream.clone()
        };
        let mut a = StreamAnalyzer::new(config).expect("valid stream configuration");
        let res = tracer.span("stream.analyzer_push", || a.push_batch(values));
        rep.op(res);
        ops += a.sketch().maintenance_ops();
        tuples += a.sketch().tuples();
        n += a.len() as u64;
        state += save_analyzer(&a).len();
    }
    // The stats layer on the maxima a refit sees, at evenly spaced refit
    // points: one fit, then the bootstrap the default config runs.
    let step = spec.stream.block_size * spec.stream.refit_every_blocks;
    let (mut fits, mut resamples) = (0usize, 0usize);
    for (_, values) in &feed.channels {
        let points = values.len() / step;
        for k in 1..=spec.stats_probes {
            let len = (points * k / spec.stats_probes).max(2) * step;
            let maxima = block_maxima(&values[..len.min(values.len())], spec.stream.block_size)
                .expect("positive block size");
            let fit = tracer.span("stats.fit_gumbel", || fit_gumbel(&maxima));
            let Some(gumbel) = rep.op(fit) else { continue };
            fits += 1;
            let budget = Pwcet::new(gumbel, spec.stream.block_size).budget_for(TARGET_P);
            let Some(budget) = rep.op(budget) else {
                continue;
            };
            let Some(boot) = spec.stream.bootstrap else {
                continue;
            };
            let ci = tracer.span("stats.bootstrap", || {
                interval_from_maxima(
                    &maxima,
                    spec.stream.block_size,
                    budget,
                    TARGET_P,
                    boot.level,
                    boot.resamples,
                    boot.seed,
                    JOBS,
                )
            });
            if let Some(ci) = rep.op(ci) {
                resamples += ci.resamples;
            }
        }
    }
    tracer.exit(probe);

    let m = &mut rep.metrics;
    m.put(
        "workload.trace_build_s",
        median(&setup.durations("workload.trace_build")),
        "s",
    );
    m.put("workload.trace_insts", feed.trace_insts as f64, "count");
    feed.totals.put_metrics(&setup, m);
    m.put(
        "stream.parse_ns_per_meas",
        ns_per(tracer.total("stream.parse"), traced.values),
        "ns",
    );
    m.put(
        "stream.ingest_ns_per_meas",
        ns_per(tracer.total("stream.ingest"), traced.quiet_values),
        "ns",
    );
    m.put(
        "stream.sketch_ops_per_meas",
        ops as f64 / n.max(1) as f64,
        "ops/meas",
    );
    m.put("stream.sketch_tuples", tuples as f64, "count");
    m.put("stream.state_bytes", state as f64, "B");
    m.put("stream.refits", traced.refits as f64, "count");
    let refit_ms: Vec<f64> = tracer
        .durations("stream.refit")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    m.put("stream.refit_ms", median(&refit_ms), "ms");
    m.put(
        "stream.maxima_per_refit",
        traced.maxima as f64 / traced.refits.max(1) as f64,
        "count",
    );
    let share =
        |name: &str| breakdown.name_self.get(name).copied().unwrap_or(0.0) / breakdown.total;
    m.put("stream.refit_share", share("stream.refit"), "ratio");
    m.put(
        "stream.ingest_share",
        share("stream.parse") + share("stream.ingest"),
        "ratio",
    );
    let fit_us: Vec<f64> = tracer
        .durations("stats.fit_gumbel")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    m.put("stats.fit_us", median(&fit_us), "us");
    // Every refit is one fit plus one per bootstrap resample.
    m.put(
        "stats.fits",
        (traced.refits + traced.resamples) as f64,
        "count",
    );
    let boot_ms: Vec<f64> = tracer
        .durations("stats.bootstrap")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    m.put("stats.bootstrap_ms", median(&boot_ms), "ms");
    m.put("stats.resamples", traced.resamples as f64, "count");
    m.put("core.session_merge_ms", traced.verdict_s * 1e3, "ms");
    m.put(
        "core.checkpoint_ms",
        tracer.total("core.checkpoint") * 1e3,
        "ms",
    );
    m.put("core.checkpoint_bytes", checkpoint_bytes as f64, "B");
    put_breakdown(&breakdown, m, &mut rep.notes);
    m.put("trace.overhead_frac", overhead, "ratio");
    rep.notes.push(format!(
        "stats probe: {fits} fits and {resamples} bootstrap resamples at sampled refit points"
    ));
    finish_trace(o, spec.name, &setup, &tracer, &mut rep);
    rep
}

fn ns_per(secs: f64, n: usize) -> f64 {
    secs * 1e9 / n.max(1) as f64
}

pub fn run_refit(o: &Opts) -> Report {
    run(o, &refit_spec(o))
}

pub fn run_bulk(o: &Opts) -> Report {
    run(o, &bulk_spec(o))
}

//! `serve_mixed`: an in-process `Server` (2 workers, checkpointing to a
//! scratch directory, default cache) driven as a closed loop by this
//! process over 2 connections. One connection ingests 512-value chunks
//! round-robin over 64 moderate channels; the other observes after every
//! ingest, seven per-channel SNAPSHOTs to one all-channel VERDICT. The
//! two connections take turns, so the server's counters (cache hits,
//! checkpoints) repeat exactly for a seed. Channels are many and short,
//! so the frame, mailbox, cache and checkpoint layers take a visible
//! share beside refit.

use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Instant;

use proxima_mbpta::{AnalysisSession, BlockSpec, MbptaConfig, Verdict};
use proxima_prng::SplitMix64;
use proxima_serve::frame::{read_frame, write_frame};
use proxima_serve::{Request, Response, ServeClient, ServeConfig, ServeError, Server, ServerStats};
use proxima_stream::{SessionStreamExt, StreamConfig, StreamFactory};
use proxima_workload::tvca::Scale;

use crate::common::*;
use crate::trace::Tracer;

/// Analysis workers of the server (at most the host's 2 cores).
const WORKERS: usize = 2;
/// Values per INGEST frame.
const CHUNK: usize = 512;
/// Observer pattern: every `VERDICT_EVERY`-th observation is a VERDICT.
const VERDICT_EVERY: usize = 8;

struct Sizes {
    /// Channels per TVCA path.
    per_path: usize,
    per_channel: usize,
    pool: usize,
    checkpoint_every: usize,
}

struct Feed {
    channels: Vec<(String, Vec<f64>)>,
    totals: SimTotals,
    trace_insts: usize,
}

fn make_feed(sz: &Sizes, seed: u64, tracer: &mut Tracer) -> Feed {
    let traces = tracer.span("workload.trace_build", || tvca_traces(Scale::Full));
    let trace_insts = traces.iter().map(|(_, t)| t.len()).sum();
    let mut totals = SimTotals::default();
    let pools = simulate_pool(&traces, sz.pool, POOL_SEED, tracer, &mut totals);
    let mut channels = Vec::new();
    for i in 0..sz.per_path {
        for ((name, _), pool) in traces.iter().zip(&pools) {
            let stream = SplitMix64::stream_seed(seed, 2 + channels.len() as u64);
            let values = resample(pool, sz.per_channel, &mut SplitMix64::new(stream));
            channels.push((format!("{name}.{i}"), values));
        }
    }
    Feed {
        channels,
        totals,
        trace_insts,
    }
}

/// The ingest order: frame `k` carries chunk `k / channels` of channel
/// `k % channels`.
fn frames(feed: &Feed) -> impl Iterator<Item = (&str, &[f64])> {
    let n = feed.channels.len();
    let per = feed.channels[0].1.len().div_ceil(CHUNK);
    (0..n * per).map(move |k| {
        let (name, values) = &feed.channels[k % n];
        let start = (k / n) * CHUNK;
        (
            name.as_str(),
            &values[start..(start + CHUNK).min(values.len())],
        )
    })
}

fn serve_config(sz: &Sizes, dir: &std::path::Path) -> ServeConfig {
    ServeConfig {
        stream: StreamConfig::default(),
        checkpoint_path: Some(dir.join("serve.ckpt")),
        checkpoint_every: sz.checkpoint_every,
        workers: WORKERS,
        max_conns: 2,
        jobs: JOBS,
        ..ServeConfig::default()
    }
}

/// The offline session `Server::bind` builds for the same configuration.
fn offline_session(config: &ServeConfig) -> AnalysisSession<StreamFactory> {
    MbptaConfig {
        block: BlockSpec::Fixed(config.stream.block_size),
        ..MbptaConfig::default()
    }
    .session()
    .snapshot_every(config.snapshot_every)
    .target_p(config.stream.target_p)
    .jobs(JOBS)
    .build_stream_with(config.stream.clone())
    .expect("valid stream configuration")
}

/// A running server and its two connections.
struct Live {
    dir: PathBuf,
    handle: JoinHandle<Result<(), ServeError>>,
    ingest: ServeClient,
    observe: ServeClient,
}

fn start(sz: &Sizes, scratch: &std::path::Path, tag: usize) -> Result<Live, String> {
    let dir = scratch.join(format!("serve-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("scratch {}: {e}", dir.display()))?;
    let server = Server::bind("127.0.0.1:0", serve_config(sz, &dir)).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let handle = server.spawn();
    let ingest = ServeClient::connect(addr).map_err(|e| e.to_string())?;
    let observe = ServeClient::connect(addr).map_err(|e| e.to_string())?;
    Ok(Live {
        dir,
        handle,
        ingest,
        observe,
    })
}

fn stop(mut live: Live) -> Result<(), String> {
    let asked = live.ingest.shutdown().map_err(|e| e.to_string());
    drop(live.ingest);
    drop(live.observe);
    let joined = match live.handle.join() {
        Ok(r) => r.map_err(|e| e.to_string()),
        Err(_) => Err("server thread panicked".to_string()),
    };
    let _ = std::fs::remove_dir_all(&live.dir);
    asked.and(joined)
}

/// A VERDICT response's per-channel outcomes and envelope.
type WireVerdicts = (
    Vec<(String, Result<Verdict, String>)>,
    Result<(String, f64), String>,
);

#[derive(Default)]
struct Round {
    values: usize,
    ingest_s: f64,
    ingest_rtt: Vec<f64>,
    query_rtt: Vec<f64>,
    verdict_s: f64,
    verdict: Option<WireVerdicts>,
    stats: Option<ServerStats>,
    total_s: f64,
}

fn round(live: &mut Live, feed: &Feed, tracer: &mut Tracer, rep: &mut Report) -> Round {
    let mut r = Round::default();
    let n = feed.channels.len();
    let total = frames(feed).count();
    let root = tracer.enter("bench.round");
    let t0 = Instant::now();
    for (k, (name, values)) in frames(feed).enumerate() {
        let t = Instant::now();
        let res = tracer.span("serve.ingest", || live.ingest.ingest(name, values));
        r.ingest_rtt.push(t.elapsed().as_secs_f64());
        if rep.op(res).is_none() {
            break;
        }
        r.values += values.len();
        if k + 1 == total {
            // The final VERDICT below is the observation after the last
            // ingest, so it is computed fresh, not served from the cache.
            break;
        }
        let t = Instant::now();
        let ok = if k % VERDICT_EVERY == VERDICT_EVERY - 1 {
            let res = tracer.span("serve.verdict", || live.observe.verdict(TARGET_P, None));
            rep.op(res).is_some()
        } else {
            let target = &feed.channels[(k / 2) % n].0;
            let res = tracer.span("serve.snapshot", || live.observe.snapshot(target));
            rep.op(res).is_some()
        };
        r.query_rtt.push(t.elapsed().as_secs_f64());
        if !ok {
            break;
        }
    }
    r.ingest_s = t0.elapsed().as_secs_f64();
    let t = Instant::now();
    let res = tracer.span("serve.final_verdict", || {
        live.observe.verdict(TARGET_P, None)
    });
    r.verdict_s = t.elapsed().as_secs_f64();
    r.total_s = t0.elapsed().as_secs_f64();
    tracer.exit(root);
    if let Some(Response::Verdicts {
        channels, envelope, ..
    }) = rep.op(res)
    {
        r.verdict = Some((channels, envelope));
    }
    r.stats = rep.op(live.observe.stats());
    r
}

/// Run one round on a fresh server and shut it down.
fn fresh_round(
    sz: &Sizes,
    o: &Opts,
    tag: usize,
    feed: &Feed,
    tracer: &mut Tracer,
    rep: &mut Report,
) -> Option<Round> {
    let mut live = rep.op(start(sz, &o.scratch, tag))?;
    let r = round(&mut live, feed, tracer, rep);
    rep.op(stop(live));
    Some(r)
}

/// The final VERDICT must carry exactly the bits of an offline session
/// fed the same chunks in the same order. Returns the offline session,
/// unmerged, for the probes.
fn check(
    o: &Opts,
    sz: &Sizes,
    feed: &Feed,
    r: &Round,
    tracer: &mut Tracer,
    rep: &mut Report,
) -> AnalysisSession<StreamFactory> {
    let config = serve_config(sz, &o.scratch);
    let mut offline = offline_session(&config);
    for (k, (name, values)) in frames(feed).enumerate() {
        let mut values = values.to_vec();
        if o.sabotage && k == 0 {
            // A new high watermark: every verdict field moves.
            values[0] = 2.0 * values.iter().copied().fold(0.0, f64::max);
        }
        let res = tracer.span("core.session_push", || offline.push_batch(name, &values));
        rep.op(res);
    }
    let merged = offline.clone().merge();
    let mut want: Vec<(String, Vec<u64>)> = merged
        .ok_channels()
        .map(|(c, v)| (c.to_string(), verdict_bits(v)))
        .collect();
    want.sort();
    let want_envelope = merged
        .envelope_budget(TARGET_P)
        .ok()
        .map(|(_, b)| b.to_bits());
    match &r.verdict {
        None => rep.check(false, "no final VERDICT"),
        Some((channels, envelope)) => {
            let mut got: Vec<(String, Vec<u64>)> = channels
                .iter()
                .filter_map(|(c, v)| v.as_ref().ok().map(|v| (c.clone(), verdict_bits(v))))
                .collect();
            got.sort();
            rep.check(
                got.len() == feed.channels.len() && got == want,
                "served verdicts differ from the offline session",
            );
            let got_envelope = envelope.as_ref().ok().map(|(_, b)| b.to_bits());
            rep.check(
                got_envelope.is_some() && got_envelope == want_envelope,
                "served envelope differs from the offline session",
            );
        }
    }
    offline
}

pub fn run(o: &Opts) -> Report {
    let sz = Sizes {
        per_path: o.size(16, 2),
        per_channel: o.size(2048, 1024),
        pool: o.size(400, 60),
        checkpoint_every: o.size(16_384, 2048),
    };
    let mut rep = Report::default();
    // Set-up: inputs from the seed, then bind the server and connect.
    let mut binds = Vec::new();
    let mut setup_once = |tracer: &mut Tracer| {
        let feed = make_feed(&sz, o.seed, tracer);
        let tag = 1000 + binds.len();
        let live = tracer.span("serve.bind", || start(&sz, &o.scratch, tag));
        binds.push(live.and_then(stop));
        feed
    };

    if !o.trace {
        let mut tag = 0;
        let (setups, feed, rounds) = measure(
            o.seconds,
            3,
            || setup_once(&mut Tracer::new(false)),
            |feed| {
                tag += 1;
                fresh_round(&sz, o, tag, feed, &mut Tracer::new(false), &mut rep)
            },
        );
        for bind in binds {
            rep.op(bind);
        }
        let rounds: Vec<Round> = rounds.into_iter().flatten().collect();
        let Some(first) = rounds.first() else {
            return rep;
        };
        check(o, &sz, &feed, first, &mut Tracer::new(false), &mut rep);
        let ingest = fastest(rounds.iter().map(|r| r.ingest_rtt.as_slice()));
        let query = fastest(rounds.iter().map(|r| r.query_rtt.as_slice()));
        let busy: f64 = ingest.iter().chain(&query).sum();
        let verdict_s = min(&rounds.iter().map(|r| r.verdict_s).collect::<Vec<_>>());
        let ms = |xs: &[f64], q: f64| percentile(xs, q) * 1e3;
        let m = &mut rep.metrics;
        m.put("setup_s", min(&setups), "s");
        m.put("setup_median_s", median(&setups), "s");
        m.put("meas_per_s", first.values as f64 / busy, "1/s");
        m.put("call_p50_ms", ms(&ingest, 0.5), "ms");
        m.put("call_p95_ms", ms(&ingest, 0.95), "ms");
        m.put("call_samples", ingest.len() as f64, "count");
        m.put("final_verdict_ms", verdict_s * 1e3, "ms");
        m.put("ingest_p50_ms", ms(&ingest, 0.5), "ms");
        m.put("ingest_p95_ms", ms(&ingest, 0.95), "ms");
        m.put("query_p50_ms", ms(&query, 0.5), "ms");
        m.put("query_p95_ms", ms(&query, 0.95), "ms");
        m.put("query_samples", query.len() as f64, "count");
        let mixed: Vec<f64> = rounds
            .iter()
            .map(|r| r.values as f64 / r.ingest_s)
            .collect();
        m.put("median_round_meas_per_s", median(&mixed), "1/s");
        rep.notes.push(format!(
            "{} rounds of {} values over {} channels, each on a fresh server; {} set-ups",
            rounds.len(),
            first.values,
            feed.channels.len(),
            setups.len()
        ));
        return rep;
    }

    let mut setup = Tracer::new(true);
    let feed = setup_once(&mut setup);
    for bind in binds {
        rep.op(bind);
    }
    let mut tag = 0;
    let Some((traced, mut tracer, overhead)) = traced_rounds(
        o.seconds,
        |t| {
            tag += 1;
            fresh_round(&sz, o, tag, &feed, t, &mut rep)
        },
        |r| r.total_s,
    ) else {
        return rep;
    };
    let breakdown = tracer.breakdown(round_root(&tracer));

    let probe = tracer.enter("bench.probe");
    let offline = check(o, &sz, &feed, &traced, &mut tracer, &mut rep);
    let ckpt = tracer.span("core.checkpoint", || offline.checkpoint());
    let ckpt_bytes = rep.op(ckpt).map_or(0, |b| b.len());
    // The frame codec on the round's INGEST requests.
    let (mut frame_bytes, mut values) = (0usize, 0usize);
    for (name, chunk) in frames(&feed) {
        let request = Request::Ingest {
            channel: name.to_string(),
            values: chunk.to_vec(),
        };
        let mut wire = Vec::new();
        let wrote = tracer.span("serve.frame_encode", || {
            write_frame(&mut wire, &request.encode())
        });
        rep.op(wrote);
        frame_bytes += wire.len();
        values += chunk.len();
        let decoded = tracer.span("serve.frame_decode", || {
            read_frame(&mut wire.as_slice())
                .map_err(|e| e.to_string())
                .and_then(|p| p.ok_or_else(|| "empty frame".to_string()))
                .and_then(|p| Request::decode(&p).map_err(|e| e.to_string()))
        });
        let same = rep.op(decoded).is_some_and(|d| d == request);
        rep.check(same, "INGEST frame round-trips through the codec");
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
        "core.checkpoint_ms",
        tracer.total("core.checkpoint") * 1e3,
        "ms",
    );
    m.put("core.checkpoint_bytes", ckpt_bytes as f64, "B");
    let us = |name: &str| median(&tracer.durations(name)) * 1e6;
    m.put("serve.frame_encode_us", us("serve.frame_encode"), "us");
    m.put("serve.frame_decode_us", us("serve.frame_decode"), "us");
    m.put(
        "serve.frame_bytes_per_meas",
        frame_bytes as f64 / values.max(1) as f64,
        "B/meas",
    );
    m.put(
        "serve.overhead_s",
        tracer.total("serve.ingest") - tracer.total("core.session_push"),
        "s",
    );
    if let Some(s) = &traced.stats {
        let lookups = (s.cache_hits + s.cache_misses).max(1);
        m.put(
            "serve.cache_hit_ratio",
            s.cache_hits as f64 / lookups as f64,
            "ratio",
        );
        m.put("serve.cache_hits", s.cache_hits as f64, "count");
        m.put("serve.cache_misses", s.cache_misses as f64, "count");
        m.put("serve.cache_evictions", s.cache_evictions as f64, "count");
        m.put("serve.checkpoints", s.checkpoints_written as f64, "count");
        m.put(
            "serve.checkpoint_bytes",
            s.last_checkpoint_bytes as f64,
            "B",
        );
        let totals: Vec<f64> = s.shards.iter().map(|sh| sh.total as f64).collect();
        let mean = totals.iter().sum::<f64>() / totals.len().max(1) as f64;
        let max = totals.iter().copied().fold(0.0, f64::max);
        m.put(
            "serve.shard_skew",
            max / mean.max(f64::MIN_POSITIVE),
            "ratio",
        );
        m.put("serve.busy_rejections", s.busy_rejections as f64, "count");
        m.put("serve.protocol_errors", s.protocol_errors as f64, "count");
    }
    put_breakdown(&breakdown, m, &mut rep.notes);
    m.put("trace.overhead_frac", overhead, "ratio");
    finish_trace(o, "serve_mixed", &setup, &tracer, &mut rep);
    rep
}

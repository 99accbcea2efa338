//! `sim_campaign`: the paper's measurement protocol on the
//! MBPTA-compliant platform. The four TVCA paths are measured through
//! `CampaignRunner::run_many` in fixed calls, then one batch session
//! verdict covers them. Nearly all time is simulator time, so the
//! simulator inner loop shows here and nowhere else; stream and serve
//! stay idle.

use std::time::Instant;

use proxima_mbpta::session::SessionVerdict;
use proxima_mbpta::{CampaignRunner, MbptaConfig};
use proxima_prng::SplitMix64;
use proxima_sim::{Inst, Platform, PlatformConfig};
use proxima_workload::tvca::Scale;

use crate::common::*;
use crate::trace::Tracer;

struct Round {
    /// Measured cycles per path, in run order.
    times: Vec<Vec<f64>>,
    /// Master seed of each `run_many` call.
    call_seeds: Vec<u64>,
    call_s: Vec<f64>,
    verdict_s: f64,
    verdict: Option<SessionVerdict>,
    total_s: f64,
}

struct Sizes {
    calls: usize,
    runs_per_call: usize,
}

fn batch_verdict(names: &[String], times: &[Vec<f64>]) -> Result<SessionVerdict, String> {
    let mut session = MbptaConfig::default()
        .session()
        .jobs(JOBS)
        .build_batch()
        .map_err(|e| e.to_string())?;
    for (name, path) in names.iter().zip(times) {
        session
            .push_batch(name.as_str(), path)
            .map_err(|e| e.to_string())?;
    }
    let merged = session.merge();
    merged
        .envelope_budget(TARGET_P)
        .map_err(|e| e.to_string())?;
    Ok(merged)
}

fn round(
    names: &[String],
    traces: &[Vec<Inst>],
    master: u64,
    sz: &Sizes,
    tracer: &mut Tracer,
    rep: &mut Report,
) -> Round {
    let runner = CampaignRunner::new(PlatformConfig::mbpta_compliant()).with_jobs(JOBS);
    let root = tracer.enter("bench.round");
    let t0 = Instant::now();
    let mut times = vec![Vec::new(); traces.len()];
    let mut call_seeds = Vec::with_capacity(sz.calls);
    let mut call_s = Vec::with_capacity(sz.calls);
    for c in 0..sz.calls {
        let seed = SplitMix64::stream_seed(master, c as u64);
        let t = Instant::now();
        let res = tracer.span("core.campaign", || {
            runner.run_many(traces, sz.runs_per_call, seed)
        });
        call_s.push(t.elapsed().as_secs_f64());
        call_seeds.push(seed);
        if let Some(campaigns) = rep.op(res) {
            for (path, campaign) in times.iter_mut().zip(&campaigns) {
                path.extend_from_slice(campaign.times());
            }
        }
    }
    let t1 = Instant::now();
    let verdict = tracer.span("core.batch_verdict", || batch_verdict(names, &times));
    let verdict_s = t1.elapsed().as_secs_f64();
    let verdict = rep.op(verdict);
    let total_s = t0.elapsed().as_secs_f64();
    tracer.exit(root);
    Round {
        times,
        call_seeds,
        call_s,
        verdict_s,
        verdict,
        total_s,
    }
}

/// Re-run sampled run indices with `Platform::run` at the documented
/// per-run seeds and compare cycles with what `run_many` returned.
fn check(o: &Opts, traces: &[Vec<Inst>], sz: &Sizes, r: &Round, rep: &mut Report) {
    let mut platform = Platform::new(PlatformConfig::mbpta_compliant());
    let mut rng = SplitMix64::new(o.seed ^ 0xC4EC_0001);
    let samples = o.size(24, 4);
    for _ in 0..samples {
        let c = below(&mut rng, r.call_seeds.len());
        let t = below(&mut rng, traces.len());
        let i = below(&mut rng, sz.runs_per_call) as u64;
        let trace_seed = SplitMix64::stream_seed(r.call_seeds[c], t as u64);
        let seed = SplitMix64::stream_seed(trace_seed, i + u64::from(o.sabotage));
        let want = platform.run(&traces[t], seed).cycles as f64;
        let got = r.times[t].get(c * sz.runs_per_call + i as usize).copied();
        rep.check(
            got == Some(want),
            format!("run {i} of call {c}, path {t}: run_many {got:?} vs Platform::run {want}"),
        );
    }
    // A path the i.i.d. gate rejects is an analysis outcome, not a
    // failure: at alpha = 0.05 the gate rejects some i.i.d. campaigns.
    rep.check(r.verdict.is_some(), "the batch verdict has an envelope");
    if let Some(v) = &r.verdict {
        for (channel, e) in v.failures() {
            rep.notes.push(format!("path {channel}: {e}"));
        }
    }
}

pub fn run(o: &Opts) -> Report {
    let sz = Sizes {
        calls: o.size(200, 4),
        runs_per_call: o.size(1, 30),
    };
    let mut rep = Report::default();
    let build = |tracer: &mut Tracer| {
        let named = tracer.span("workload.trace_build", || tvca_traces(Scale::Full));
        let names: Vec<String> = named.iter().map(|(n, _)| n.clone()).collect();
        let traces: Vec<Vec<Inst>> = named.into_iter().map(|(_, t)| t).collect();
        (names, traces)
    };
    let calls = sz.calls as f64;
    let master = SplitMix64::stream_seed(o.seed, 0);

    if !o.trace {
        let (setups, (_, traces), rounds) = measure(
            o.seconds,
            3,
            || build(&mut Tracer::new(false)),
            |(names, traces)| {
                round(
                    names,
                    traces,
                    master,
                    &sz,
                    &mut Tracer::new(false),
                    &mut rep,
                )
            },
        );
        check(o, &traces, &sz, &rounds[0], &mut rep);
        let runs_per_round = calls * (sz.runs_per_call * traces.len()) as f64;
        let best = fastest(rounds.iter().map(|r| r.call_s.as_slice()));
        let campaign_s: f64 = best.iter().sum();
        let verdict_s = min(&rounds.iter().map(|r| r.verdict_s).collect::<Vec<_>>());
        let m = &mut rep.metrics;
        m.put("setup_s", min(&setups), "s");
        m.put("setup_median_s", median(&setups), "s");
        m.put(
            "meas_per_s",
            runs_per_round / (campaign_s + verdict_s),
            "1/s",
        );
        m.put("call_p50_ms", percentile(&best, 0.5) * 1e3, "ms");
        m.put("call_p95_ms", percentile(&best, 0.95) * 1e3, "ms");
        m.put("call_samples", best.len() as f64, "count");
        m.put("final_verdict_ms", verdict_s * 1e3, "ms");
        m.put("runs_per_s", runs_per_round / campaign_s, "1/s");
        let mixed: Vec<f64> = rounds.iter().map(|r| runs_per_round / r.total_s).collect();
        m.put("median_round_runs_per_s", median(&mixed), "1/s");
        rep.notes.push(format!(
            "{} rounds of {runs_per_round} runs, {} set-ups; call = one run_many of {} runs",
            rounds.len(),
            setups.len(),
            sz.runs_per_call * traces.len()
        ));
        return rep;
    }

    let mut setup = Tracer::new(true);
    let (names, traces) = build(&mut setup);

    // Traced run: untraced and traced rounds alternate (for the
    // overhead); then every run of the last traced round is replayed
    // through `Platform::run` for the simulator's counters and per-run
    // time.
    let Some((traced, mut tracer, overhead)) = traced_rounds(
        o.seconds,
        |t| Some(round(&names, &traces, master, &sz, t, &mut rep)),
        |r| r.total_s,
    ) else {
        return rep;
    };
    let breakdown = tracer.breakdown(round_root(&tracer));
    check(o, &traces, &sz, &traced, &mut rep);

    let probe = tracer.enter("bench.probe");
    let mut totals = SimTotals::default();
    let mut platform = Platform::new(PlatformConfig::mbpta_compliant());
    let mut mismatches = 0usize;
    for (c, &call_seed) in traced.call_seeds.iter().enumerate() {
        for (t, trace) in traces.iter().enumerate() {
            let trace_seed = SplitMix64::stream_seed(call_seed, t as u64);
            for i in 0..sz.runs_per_call {
                let seed = SplitMix64::stream_seed(trace_seed, i as u64);
                let r = tracer.span("sim.run", || platform.run(trace, seed));
                totals.add(r.cycles, &r.stats);
                if traced.times[t].get(c * sz.runs_per_call + i) != Some(&(r.cycles as f64)) {
                    mismatches += 1;
                }
            }
        }
    }
    tracer.exit(probe);
    rep.check(
        mismatches == 0,
        format!("{mismatches} replayed runs differ"),
    );

    let m = &mut rep.metrics;
    m.put(
        "workload.trace_build_s",
        median(&setup.durations("workload.trace_build")),
        "s",
    );
    m.put(
        "workload.trace_insts",
        traces.iter().map(Vec::len).sum::<usize>() as f64,
        "count",
    );
    totals.put_metrics(&tracer, m);
    let campaign_s = tracer.total("core.campaign");
    m.put("core.campaign_s", campaign_s, "s");
    m.put(
        "core.batch_verdict_s",
        tracer.total("core.batch_verdict"),
        "s",
    );
    m.put(
        "sim.campaign_share",
        tracer.total("sim.run") / campaign_s,
        "ratio",
    );
    put_breakdown(&breakdown, m, &mut rep.notes);
    m.put("trace.overhead_frac", overhead, "ratio");
    finish_trace(o, "sim_campaign", &setup, &tracer, &mut rep);
    rep
}

//! What every workload shares: options, the report, percentiles, input
//! generation from the seed, and the verdict comparison the output
//! checks use.

use std::path::PathBuf;
use std::time::Instant;

use proxima_mbpta::session::SessionVerdict;
use proxima_mbpta::Verdict;
use proxima_prng::{RandomSource, SplitMix64};
use proxima_sim::{Inst, Platform, PlatformConfig, RunStats};
use proxima_workload::tvca::{ControlMode, Scale, Tvca, TvcaConfig};

use crate::trace::{Breakdown, Tracer};

/// Every `jobs`/`workers` value is pinned to this (never 0 = "all
/// cores"): the benchmark host has 1–2 shared cores, and a second core
/// measured as buying nothing for the simulator.
pub const JOBS: usize = 1;

/// Master seed of the simulated pool behind the streaming and serve
/// feeds. The pool stands for the platform's timing distribution, which
/// does not change with the workload seed; the seed draws the campaign
/// from it. (Pools drawn per seed made refit cost, and so every timing,
/// vary by up to 2x between seeds.)
pub const POOL_SEED: u64 = 0x9E37_79B9;

/// Cutoff probability every verdict is queried at.
pub const TARGET_P: f64 = 1e-12;

#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes for the smoke test.
    pub tiny: bool,
    /// Corrupt the output checks' reference, to prove the checks fire.
    pub sabotage: bool,
    /// Scratch directory inside the checkout (serve checkpoints).
    pub scratch: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

impl Opts {
    /// `full` normally, `tiny` in smoke mode.
    pub fn size(&self, full: usize, tiny: usize) -> usize {
        if self.tiny {
            tiny
        } else {
            full
        }
    }
}

/// A named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// A workload's outcome: operation and check counts, the end-to-end
/// metrics of the untraced run (in the contract's shared names, plus the
/// workload's own names for the readable report) or the per-layer
/// metrics of the traced run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub checks: u64,
    pub checks_failed: u64,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

impl Report {
    /// Count an operation; a failed one is counted and its error noted.
    pub fn op<T, E: std::fmt::Display>(&mut self, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failed <= 5 {
                    self.notes.push(format!("operation failed: {e}"));
                }
                None
            }
        }
    }

    /// Record one output check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.checks += 1;
        if !ok {
            self.checks_failed += 1;
            self.notes.push(format!("check failed: {}", what.into()));
        }
    }

    pub fn error_rate(&self) -> f64 {
        (self.failed + self.checks_failed) as f64 / (self.attempted + self.checks).max(1) as f64
    }
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile (`q` in (0, 1]); 0 for no samples.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Minimum seconds between two timed set-ups of one run.
const SETUP_SPACING_S: f64 = 2.0;
/// Fewest timed set-ups in one run.
const MIN_SETUPS: usize = 3;

/// The untraced measurement loop. Runs `round` on the latest inputs for
/// `seconds` (at least `min_rounds` times), and builds and times the
/// inputs with `setup` at the start, then again after any round once
/// `SETUP_SPACING_S` has passed since the last set-up, and at the end
/// until there are `MIN_SETUPS`. The host switches for seconds at a time
/// between a fast state and one about 2x slower (another tenant on the
/// same physical core), so set-ups made back to back all land in one
/// state; spread over the run, their fastest is the set-up cost.
pub fn measure<I, R>(
    seconds: f64,
    min_rounds: usize,
    mut setup: impl FnMut() -> I,
    mut round: impl FnMut(&I) -> R,
) -> (Vec<f64>, I, Vec<R>) {
    let mut setups = Vec::new();
    let mut timed_setup = |setups: &mut Vec<f64>| {
        let t0 = Instant::now();
        let inputs = std::hint::black_box(setup());
        setups.push(t0.elapsed().as_secs_f64());
        inputs
    };
    // The old inputs are dropped before new ones are built, so peak
    // memory does not depend on how many set-ups the run made.
    let mut inputs = Some(timed_setup(&mut setups));
    let mut last_setup = Instant::now();
    let mut rounds = Vec::new();
    timed_rounds(seconds, min_rounds, |_| {
        rounds.push(round(inputs.as_ref().expect("inputs are built")));
        if last_setup.elapsed().as_secs_f64() >= SETUP_SPACING_S {
            drop(inputs.take());
            inputs = Some(timed_setup(&mut setups));
            last_setup = Instant::now();
        }
    });
    while setups.len() < MIN_SETUPS {
        drop(inputs.take());
        inputs = Some(timed_setup(&mut setups));
    }
    let inputs = inputs.expect("inputs are built");
    (setups, inputs, rounds)
}

/// Run `round` until `seconds` have passed, at least `min_rounds` times.
pub fn timed_rounds(seconds: f64, min_rounds: usize, mut round: impl FnMut(usize)) {
    let t0 = Instant::now();
    let mut r = 0;
    while r < min_rounds || t0.elapsed().as_secs_f64() < seconds {
        round(r);
        r += 1;
    }
}

/// Per-operation minimum over rounds. Every round performs the same
/// operations in the same order on the same inputs, so operation `k`'s
/// fastest repetition is its cost in the host's fast state; the median
/// over rounds would flip between the two states from run to run.
pub fn fastest<'a>(rounds: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut best: Vec<f64> = Vec::new();
    for ops in rounds {
        if best.is_empty() {
            best = ops.to_vec();
        }
        for (b, &t) in best.iter_mut().zip(ops) {
            *b = b.min(t);
        }
    }
    best
}

pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// A deterministic uniform draw in `0..n`.
pub fn below(rng: &mut SplitMix64, n: usize) -> usize {
    rng.below(n as u64) as usize
}

/// The four TVCA paths at `scale`, one trace per path, with their names.
pub fn tvca_traces(scale: Scale) -> Vec<(String, Vec<Inst>)> {
    let tvca = Tvca::new(TvcaConfig {
        scale,
        ..TvcaConfig::default()
    });
    ControlMode::all()
        .into_iter()
        .map(|mode| (mode.to_string(), tvca.trace(mode)))
        .collect()
}

/// Per-run counters summed over a simulated pool.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimTotals {
    pub runs: u64,
    pub cycles: u64,
    pub stats: RunStats,
}

impl SimTotals {
    pub fn add(&mut self, cycles: u64, s: &RunStats) {
        self.runs += 1;
        self.cycles += cycles;
        let t = &mut self.stats;
        t.instructions += s.instructions;
        t.il1.0 += s.il1.0;
        t.il1.1 += s.il1.1;
        t.dl1.0 += s.dl1.0;
        t.dl1.1 += s.dl1.1;
        t.itlb.0 += s.itlb.0;
        t.itlb.1 += s.itlb.1;
        t.dtlb.0 += s.dtlb.0;
        t.dtlb.1 += s.dtlb.1;
        t.fpu_stall_cycles += s.fpu_stall_cycles;
        t.memory_cycles += s.memory_cycles;
    }

    /// The `sim.*` layer metrics: simulated counters (which a
    /// simulator-only speed-up must leave identical) and host time per
    /// run from the `sim.run` spans.
    pub fn put_metrics(&self, tracer: &Tracer, m: &mut Metrics) {
        let runs = tracer.durations("sim.run");
        let busy: f64 = runs.iter().sum();
        m.put("sim.run_us", median(&runs) * 1e6, "us");
        m.put(
            "sim.minstr_per_s",
            if busy > 0.0 {
                self.stats.instructions as f64 / busy / 1e6
            } else {
                0.0
            },
            "Minstr/s",
        );
        let s = &self.stats;
        m.put("sim.runs", self.runs as f64, "count");
        m.put("sim.instructions", s.instructions as f64, "count");
        m.put("sim.cycles", self.cycles as f64, "count");
        m.put("sim.il1_misses", s.il1.1 as f64, "count");
        m.put("sim.dl1_misses", s.dl1.1 as f64, "count");
        m.put("sim.itlb_misses", s.itlb.1 as f64, "count");
        m.put("sim.dtlb_misses", s.dtlb.1 as f64, "count");
        m.put("sim.memory_cycles", s.memory_cycles as f64, "count");
        m.put("sim.fpu_stall_cycles", s.fpu_stall_cycles as f64, "count");
    }
}

/// Simulate `runs` executions of every trace with `Platform::run`,
/// seeding run `i` of trace `t` exactly as `CampaignRunner::run_many`
/// does: `stream_seed(stream_seed(master, t), i)`. One `sim.run` span
/// per run.
pub fn simulate_pool(
    traces: &[(String, Vec<Inst>)],
    runs: usize,
    master: u64,
    tracer: &mut Tracer,
    totals: &mut SimTotals,
) -> Vec<Vec<f64>> {
    let mut platform = Platform::new(PlatformConfig::mbpta_compliant());
    traces
        .iter()
        .enumerate()
        .map(|(t, (_, trace))| {
            let trace_seed = SplitMix64::stream_seed(master, t as u64);
            (0..runs as u64)
                .map(|i| {
                    let seed = SplitMix64::stream_seed(trace_seed, i);
                    let r = tracer.span("sim.run", || platform.run(trace, seed));
                    totals.add(r.cycles, &r.stats);
                    r.cycles as f64
                })
                .collect()
        })
        .collect()
}

/// Draw `n` values i.i.d. from a smoothed bootstrap of a simulated pool:
/// a pool value plus logistic noise whose standard deviation is
/// Silverman's bandwidth, rounded to whole cycles. A few hundred
/// simulated runs then stand for a feed of millions. Plain resampling
/// would give block maxima a dozen distinct values, and a bounded kernel
/// would give them a bounded tail; the logistic kernel's exponential tail
/// keeps the maxima in the Gumbel domain MBPTA assumes, so the Gumbel
/// fit behaves alike on every seed.
pub fn resample(pool: &[f64], n: usize, rng: &mut SplitMix64) -> Vec<f64> {
    let mut sorted = pool.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    let sd = (sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / sorted.len() as f64).sqrt();
    let iqr = percentile(&sorted, 0.75) - percentile(&sorted, 0.25);
    let spread = if iqr > 0.0 { sd.min(iqr / 1.34) } else { sd };
    let bandwidth = 0.9 * spread * (sorted.len() as f64).powf(-0.2);
    // A logistic of scale s has standard deviation s * pi / sqrt(3).
    let scale = bandwidth * 3f64.sqrt() / std::f64::consts::PI;
    (0..n)
        .map(|_| {
            let x = pool[below(rng, pool.len())];
            let u = unit(rng).max(f64::MIN_POSITIVE);
            (x + scale * (u / (1.0 - u)).ln()).round().max(0.0)
        })
        .collect()
}

/// A uniform draw in [0, 1).
fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// The bit patterns of everything a verdict answers, for exact
/// comparison between two paths that promise identical results.
pub fn verdict_bits(v: &Verdict) -> Vec<u64> {
    let mut bits = vec![v.provenance.n as u64, v.high_watermark().to_bits()];
    bits.extend(v.iid.label().bytes().map(u64::from));
    for p in [1e-9, TARGET_P, 1e-15] {
        bits.push(v.budget_for(p).map_or(u64::MAX, f64::to_bits));
    }
    bits
}

/// Per-channel verdict bits (sorted by channel name) plus the envelope.
pub fn session_bits(v: &SessionVerdict) -> Vec<(String, Vec<u64>)> {
    let mut out: Vec<(String, Vec<u64>)> = v
        .channels()
        .iter()
        .map(|c| {
            let bits = match &c.outcome {
                Ok(verdict) => verdict_bits(verdict),
                Err(e) => e.to_string().bytes().map(u64::from).collect(),
            };
            (c.channel.to_string(), bits)
        })
        .collect();
    out.sort();
    let envelope = v
        .envelope_budget(TARGET_P)
        .map_or(u64::MAX, |(_, b)| b.to_bits());
    out.push(("*envelope".to_string(), vec![envelope]));
    out
}

/// Per-layer self time of one traced round, the residual the layer
/// spans do not cover, and each span name's self time for the readable
/// report.
pub fn put_breakdown(b: &Breakdown, m: &mut Metrics, notes: &mut Vec<String>) {
    for layer in ["workload", "sim", "core", "stream", "stats", "serve"] {
        let secs = b.layer_self.get(layer).copied().unwrap_or(0.0);
        m.put(format!("self.{layer}_s"), secs, "s");
    }
    m.put("trace.round_s", b.total, "s");
    m.put("trace.residual_s", b.residual, "s");
    m.put(
        "trace.residual_frac",
        if b.total > 0.0 {
            b.residual / b.total
        } else {
            0.0
        },
        "ratio",
    );
    for (name, secs) in &b.name_self {
        notes.push(format!(
            "self time {name}: {secs:.4} s ({:.1}% of the traced round)",
            100.0 * secs / b.total.max(f64::MIN_POSITIVE)
        ));
    }
}

/// The traced run's rounds: untraced and traced rounds alternate for
/// `seconds` (at least one of each). Returns the last traced round with
/// its spans, and the tracing overhead: the median traced round time
/// against the median untraced one.
pub fn traced_rounds<R>(
    seconds: f64,
    mut round: impl FnMut(&mut Tracer) -> Option<R>,
    total_s: impl Fn(&R) -> f64,
) -> Option<(R, Tracer, f64)> {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    timed_rounds(seconds, 2, |i| {
        let mut tracer = Tracer::new(i % 2 == 1);
        if let Some(r) = round(&mut tracer) {
            if i % 2 == 0 {
                plain.push(total_s(&r));
            } else {
                traced.push(total_s(&r));
                last = Some((r, tracer));
            }
        }
    });
    let (r, tracer) = last?;
    let overhead = median(&traced) / median(&plain) - 1.0;
    Some((r, tracer, overhead))
}

/// The root span of the traced round.
pub fn round_root(tracer: &Tracer) -> usize {
    tracer
        .spans()
        .iter()
        .position(|s| s.name == "bench.round")
        .expect("a traced round opens bench.round")
}

/// Count the traced run's spans and write them out: set-up spans and
/// the traced round (with its probes) go to two files.
pub fn finish_trace(o: &Opts, workload: &str, setup: &Tracer, round: &Tracer, rep: &mut Report) {
    let spans = setup.spans().len() + round.spans().len();
    rep.metrics.put("trace.spans", spans as f64, "count");
    if let Some(dir) = &o.trace_out {
        for (part, tracer) in [("setup", setup), ("round", round)] {
            let path = dir.join(format!("{workload}-seed{}-{part}.jsonl", o.seed));
            match tracer.write_jsonl(&path) {
                Ok(()) => rep
                    .notes
                    .push(format!("spans written to {}", path.display())),
                Err(e) => rep.notes.push(format!("could not write spans: {e}")),
            }
        }
    }
}

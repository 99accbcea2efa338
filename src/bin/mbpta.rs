//! `mbpta` — command-line probabilistic timing analysis.
//!
//! Reads execution-time measurements (one per line, `#` comments allowed)
//! and runs the MBPTA pipeline on them — the open equivalent of feeding a
//! commercial timing-analysis tool a measurement file.
//!
//! Run `mbpta --help` for the usage: the [`USAGE`] text, which a unit
//! test keeps in step with the per-subcommand flag tables.
//!
//! `analyze` consumes a measurement file; `measure` generates one from the
//! built-in simulated TVCA campaign; `stream` analyses a single
//! measurement stream incrementally; `session` demultiplexes a **tagged**
//! feed (`<channel> <time>` per line) to one analysis engine per channel
//! — per path, per core, per tenant — and merges the per-channel verdicts
//! into a program-level envelope. `stream` and `session` both run on the
//! multi-channel `AnalysisSession` core. `serve` exposes that same core
//! as a long-running framed-TCP service (`proxima-serve`); `call` is its
//! command-line client; `shard` folds a measurement campaign into a
//! sealed federated state blob that `call merge` ships to a server —
//! state travels, raw measurements do not.

use std::fmt::Display;
use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::str::FromStr;

use proxima::mbpta::cv::analyze_cv;
use proxima::mbpta::engine::{BatchFactory, EngineFactory, EngineKind};
use proxima::mbpta::{persist, MbptaError};
use proxima::prelude::*;
use proxima::serve::{Response, ServeClient, ServeConfig, Server, WireSnapshot};
use proxima::stream::replay::{ByteLines, LineSource, TraceReplay};
use proxima::stream::{FederatedFactory, SketchKind, StreamConfig, StreamFactory};

const USAGE: &str = "\
mbpta - measurement-based probabilistic timing analysis

USAGE:
  mbpta analyze <file> [--cutoff <p>] [--alpha <a>] [--block <n>] [--cv] [--csv]
  mbpta measure [--runs <n>] [--seed <s>] [--jobs <j>] [--path <name>]
  mbpta stream [<file>] [--target-p <p>] [--block <n>] [--every <k>]
               [--sketch <gk|kll>]
               [--simulate] [--runs <n>] [--seed <s>] [--path <name>]
               [--stop-on-converged]
  mbpta session [<file>] [--target-p <p>] [--block <n>] [--every <k>]
                [--sketch <gk|kll>]
                [--batch] [--shards <n>] [--jobs <j>] [--stop-on-converged]
                [--simulate] [--runs <n>] [--seed <s>]
                [--checkpoint <path> --checkpoint-every <k>]
  mbpta session --resume <path> [<file>] [--jobs <j>]
                [--checkpoint <path> --checkpoint-every <k>]
  mbpta serve [--addr <host:port>] [--target-p <p>] [--block <n>] [--every <k>]
              [--sketch <gk|kll>] [--workers <w>] [--max-conns <n>] [--jobs <j>]
              [--cache-capacity <n>] [--cache-ttl <t>]
              [--checkpoint <path> --checkpoint-every <k>]
  mbpta serve --resume <path> [--addr <host:port>] [--workers <w>]
              [--max-conns <n>] [--jobs <j>]
  mbpta call <addr> ingest <channel> [<file>] [--skip <n>] [--chunk <n>]
  mbpta call <addr> snapshot <channel>
  mbpta call <addr> verdict [--p <p>] [--channel <name>]
  mbpta call <addr> merge <channel> <blob-file>
  mbpta call <addr> checkpoint | stats | shutdown
  mbpta shard [<file>] --out <blob> [--shards <n>] [--target-p <p>] [--block <n>]
              [--sketch <gk|kll>]
              [--simulate] [--runs <n>] [--seed <s>] [--path <name>]
  mbpta --help

COMMANDS:
  analyze   run the MBPTA pipeline on a measurement file
            (one execution time per line; '#' starts a comment)
  measure   print a synthetic TVCA campaign in that format (simulated
            MBPTA-compliant platform; paths: nominal, saturated-x,
            saturated-y, fault-recovery)
  stream    incremental MBPTA over a single measurement stream: ingest
            from <file>, stdin (no file argument), or the simulator
            (--simulate); print a pWCET snapshot at every refit
  session   multi-channel MBPTA over a *tagged* feed (`<channel> <time>`
            or `<channel>,<time>` per line) from <file>, stdin, or the
            simulator (--simulate: the four TVCA paths measured in one
            thread pool); one engine per channel, merged envelope at the
            end
  serve     long-running framed-TCP analysis service over the same
            session core: concurrent clients ingest tagged batches,
            query snapshots/verdicts (cached), merge sealed federated
            shard blobs, and trigger checkpoints; prints
            `listening on <addr>` once ready
  call      client for a running server: ingest a measurement file (one
            value per line) into a channel, query a snapshot or verdict,
            merge a shard blob, force a checkpoint, dump stats, or shut
            the server down
  shard     fold a measurement campaign into a sealed federated state
            blob (`save_federated` format) for `call merge`; the
            stream/block configuration must match the server's

OPTIONS (analyze):
  --cutoff <p>   exceedance probability for the headline budget [1e-12]
  --alpha <a>    significance level of the i.i.d. gate          [0.05]
  --block <n>    fixed block size (default: automatic selection)
  --cv           use MBPTA-CV (exponential tail) instead of block maxima
  --csv          also print the pWCET curve as CSV

OPTIONS (measure):
  --runs <n>     number of measured executions                  [3000]
  --seed <s>     base seed of the campaign                      [10000000]
  --jobs <j>     measure on <j> threads (0 = all cores); the
                 sharded campaign is bit-identical for every
                 <j>, but uses the SplitMix64 seed stream
                 instead of the sequential per-run seeds
  --path <name>  TVCA execution path                            [nominal]

OPTIONS (stream):
  --target-p <p>       exceedance cutoff tracked by snapshots   [1e-12]
  --block <n>          block size for block maxima              [50]
  --every <k>          refit every <k> completed blocks         [5]
  --sketch <gk|kll>    quantile-sketch algorithm: gk (tight
                       deterministic rank bounds) or kll
                       (smaller summaries under deep merges);
                       both are bit-deterministic              [gk]
  --simulate           measure the TVCA live instead of reading
  --runs <n>           simulated runs (with --simulate)         [3000]
  --seed <s>           simulation master seed                   [10000000]
  --path <name>        TVCA execution path (with --simulate)    [nominal]
  --stop-on-converged  stop ingesting once the estimate is stable

OPTIONS (session):
  --target-p <p>       exceedance cutoff tracked by snapshots   [1e-12]
  --block <n>          block size for block maxima              [50]
  --every <k>          emit a snapshot every <k> measurements,
                       round-robin across channels (0 = off)    [250]
  --sketch <gk|kll>    quantile-sketch algorithm for the streaming
                       engines (not valid with --batch); the report
                       stays bit-identical at every shard/job
                       count for both                           [gk]
  --batch              buffer per channel and analyse at the end
                       (default: bounded-memory streaming engines)
  --shards <n>         back each channel with <n> federated stream
                       shards folded at the end; the report is
                       bit-identical at every shard count (0 = off;
                       not valid with --stop-on-converged)          [0]
  --jobs <j>           merge/measure worker threads (0 = all)   [0]
  --simulate           feed the four TVCA paths as channels,
                       measured in one thread pool
  --runs <n>           simulated runs per path (--simulate)     [1500]
  --seed <s>           simulation master seed                   [10000000]
  --stop-on-converged  stop once every channel's estimate is stable;
                       converged channels finish early and free
                       their engine state immediately

OPTIONS (serve):
  --addr <host:port>     bind address (port 0 = OS-assigned)  [127.0.0.1:0]
  --target-p <p>         exceedance cutoff                    [1e-12]
  --block <n>            block size for block maxima          [50]
  --every <k>            per-channel snapshot cadence         [250]
  --sketch <gk|kll>      quantile-sketch algorithm            [gk]
  --workers <w>          analysis worker threads; channels are
                         partitioned across workers by name hash,
                         and every response is bit-identical at
                         every worker count                   [1]
  --max-conns <n>        concurrent-connection bound; excess
                         connections get a typed BUSY frame
                         (0 = unbounded)                      [0]
  --jobs <j>             merge worker threads per session shard
                         (0 = all cores)                      [0]
  --cache-capacity <n>   cached query responses *per worker*  [256]
  --cache-ttl <t>        expire cache entries untouched for <t>
                         ingest batches (0 = never)           [0]
  --checkpoint <path>    auto-checkpoint target: one sealed blob
                         per worker plus a manifest, atomically
                         committed by the manifest rename
  --checkpoint-every <k> checkpoint cadence, in measurements
  --resume <path>        restart from a server checkpoint; the analysis
                         configuration comes from the manifest, and
                         checkpointing continues to the same path.
                         --workers re-partitions the restored channels
                         to a new worker count (0 = keep the count
                         recorded in the manifest) — bit-identically
  --crash-after <n>      abort once the session holds <n> measurements
                         (crash injection for the restart CI job)

OPTIONS (call):
  --skip <n>     ingest: skip the first <n> measurements of the file
                 (resend-after-restart: skip what the server already
                 holds, per `call stats`)                        [0]
  --chunk <n>    ingest: measurements per INGEST frame           [512]
  --p <p>        verdict: exceedance cutoff                      [1e-12]
  --channel <c>  verdict: restrict to one channel (default: all)

OPTIONS (shard):
  --out <blob>   output file for the sealed federated blob (required)
  --shards <n>   shard count; the folded state is bit-identical
                 for every value                                 [1]
  --target-p, --block, --sketch, --simulate, --runs, --seed, --path: as
                 above; the stream configuration (including the sketch
                 algorithm) must match the server's

CHECKPOINT / RESUME (session):
  --checkpoint <path>      write a checkpoint of the full session state
                           to <path> (atomic write-rename: a crash
                           mid-write never corrupts the file)
  --checkpoint-every <k>   checkpoint cadence, in measurements; required
                           with --checkpoint
  --resume <path>          resume a checkpointed session; the engine and
                           analysis flags are read from the file, so
                           they must not be repeated (re-supply the
                           measurement file for file feeds; a simulated
                           feed is regenerated from the recorded
                           runs/seed). The resumed report is
                           bit-identical to an uninterrupted run.
  --crash-after <n>        abort the process after <n> measurements —
                           a deterministic crash injector for the
                           restart-determinism CI job
";

/// One flag in a subcommand's table.
struct Flag {
    name: &'static str,
    /// `false` for a switch (`--cv`), `true` for `--flag <value>`.
    takes_value: bool,
    /// The value when the flag is not given.
    default: Option<&'static str>,
    /// Flags that must be given with this one.
    needs: &'static [&'static str],
    /// Flags that must not be given with this one, each with the reason.
    excludes: &'static [(&'static str, &'static str)],
}

/// A flag that takes no value.
const fn switch(name: &'static str) -> Flag {
    Flag {
        name,
        takes_value: false,
        default: None,
        needs: &[],
        excludes: &[],
    }
}

/// A flag that takes a value, with the value used when it is not given.
const fn value(name: &'static str, default: &'static str) -> Flag {
    Flag {
        default: Some(default),
        ..option(name)
    }
}

/// A flag that takes a value and has no default.
const fn option(name: &'static str) -> Flag {
    Flag {
        takes_value: true,
        ..switch(name)
    }
}

impl Flag {
    const fn needs(self, needs: &'static [&'static str]) -> Flag {
        Flag { needs, ..self }
    }

    const fn excludes(self, excludes: &'static [(&'static str, &'static str)]) -> Flag {
        Flag { excludes, ..self }
    }
}

/// A subcommand: its flags, how many positional arguments it takes, and
/// the function that runs it.
struct Command {
    name: &'static str,
    positionals: usize,
    run: fn(&Args<'_>) -> Result<(), String>,
    flags: &'static [Flag],
}

/// Every subcommand but `call`, whose verbs are in [`CALL_VERBS`].
const COMMANDS: &[Command] = &[
    Command::new("analyze", 1, analyze_cmd, ANALYZE),
    Command::new("measure", 0, measure_cmd, MEASURE),
    Command::new("stream", 1, stream_cmd, STREAM),
    Command::new("session", 1, session_cmd, SESSION),
    Command::new("serve", 0, serve_cmd, SERVE),
    Command::new("shard", 1, shard_cmd, SHARD),
];

/// The verbs of `call <addr> <verb>`; `<addr>` is the first positional
/// argument of each.
const CALL_VERBS: &[Command] = &[
    Command::new("call ingest", 3, call_ingest, CALL_INGEST),
    Command::new("call snapshot", 2, call_snapshot, &[]),
    Command::new("call verdict", 1, call_verdict, CALL_VERDICT),
    Command::new("call merge", 3, call_merge, &[]),
    Command::new("call checkpoint", 1, call_checkpoint, &[]),
    Command::new("call stats", 1, call_stats, &[]),
    Command::new("call shutdown", 1, call_shutdown, &[]),
];

impl Command {
    const fn new(
        name: &'static str,
        positionals: usize,
        run: fn(&Args<'_>) -> Result<(), String>,
        flags: &'static [Flag],
    ) -> Command {
        Command {
            name,
            positionals,
            run,
            flags,
        }
    }
}

/// `--runs`, `--seed` and `--path` configure the simulator.
const SIM: &[&str] = &["--simulate"];
/// A resumed session or server reads its configuration from the
/// checkpoint; giving it again would be redundant or contradict it.
const RESUME: (&str, &str) = ("--resume", "the checkpoint records the configuration");
const RESUMED: &[(&str, &str)] = &[RESUME];

const ANALYZE: &[Flag] = &[
    value("--cutoff", "1e-12"),
    value("--alpha", "0.05"),
    option("--block"),
    switch("--cv"),
    switch("--csv"),
];

const MEASURE: &[Flag] = &[
    value("--runs", "3000"),
    value("--seed", "10000000"),
    option("--jobs"),
    value("--path", "nominal"),
];

const STREAM: &[Flag] = &[
    value("--target-p", "1e-12"),
    value("--block", "50"),
    value("--every", "5"),
    value("--sketch", "gk"),
    switch("--simulate"),
    value("--runs", "3000").needs(SIM),
    value("--seed", "10000000").needs(SIM),
    value("--path", "nominal").needs(SIM),
    switch("--stop-on-converged"),
];

const SESSION: &[Flag] = &[
    value("--target-p", "1e-12").excludes(RESUMED),
    value("--block", "50").excludes(RESUMED),
    value("--every", "250").excludes(RESUMED),
    value("--sketch", "gk").excludes(&[RESUME, ("--batch", "the batch engine keeps no sketch")]),
    switch("--batch").excludes(RESUMED),
    value("--shards", "0").excludes(RESUMED),
    value("--jobs", "0"),
    switch("--stop-on-converged").excludes(RESUMED),
    switch("--simulate").excludes(RESUMED),
    value("--runs", "1500").needs(SIM).excludes(RESUMED),
    value("--seed", "10000000").needs(SIM).excludes(RESUMED),
    option("--checkpoint").needs(&["--checkpoint-every"]),
    option("--checkpoint-every").needs(&["--checkpoint"]),
    option("--resume"),
    option("--crash-after"),
];

const SERVE: &[Flag] = &[
    value("--addr", "127.0.0.1:0"),
    value("--target-p", "1e-12").excludes(RESUMED),
    value("--block", "50").excludes(RESUMED),
    value("--every", "250").excludes(RESUMED),
    value("--sketch", "gk").excludes(RESUMED),
    // 1 for a new server; 0 (keep the manifest's count) on resume.
    option("--workers"),
    value("--max-conns", "0"),
    value("--jobs", "0"),
    value("--cache-capacity", "256").excludes(RESUMED),
    value("--cache-ttl", "0").excludes(RESUMED),
    option("--checkpoint")
        .needs(&["--checkpoint-every"])
        .excludes(RESUMED),
    option("--checkpoint-every")
        .needs(&["--checkpoint"])
        .excludes(RESUMED),
    option("--resume"),
    option("--crash-after"),
];

const SHARD: &[Flag] = &[
    option("--out"),
    value("--shards", "1"),
    value("--target-p", "1e-12"),
    value("--block", "50"),
    value("--sketch", "gk"),
    switch("--simulate"),
    value("--runs", "3000").needs(SIM),
    value("--seed", "10000000").needs(SIM),
    value("--path", "nominal").needs(SIM),
];

const CALL_INGEST: &[Flag] = &[value("--skip", "0"), value("--chunk", "512")];
const CALL_VERDICT: &[Flag] = &[value("--p", "1e-12"), option("--channel")];

/// A command line checked against its [`Command`] table.
struct Args<'a> {
    command: &'static Command,
    /// Per table entry, the value given; `Some("")` for a given switch.
    values: Vec<Option<&'a str>>,
    positionals: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Walk `argv` once. Every `--flag` must be in the table, at most
    /// once; every other argument is positional. Then apply the table's
    /// rules. This runs before the command does any I/O.
    fn parse(
        command: &'static Command,
        argv: impl IntoIterator<Item = &'a String>,
    ) -> Result<Self, String> {
        let mut args = Args {
            command,
            values: vec![None; command.flags.len()],
            positionals: Vec::new(),
        };
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            if !arg.starts_with("--") {
                if args.positionals.len() == command.positionals {
                    return Err(format!("unexpected argument `{arg}` for {}", command.name));
                }
                args.positionals.push(arg);
                continue;
            }
            let i = command
                .flags
                .iter()
                .position(|f| f.name == arg)
                .ok_or_else(|| format!("{arg} is not valid for {}", command.name))?;
            if args.values[i].is_some() {
                return Err(format!("{arg} is given twice"));
            }
            args.values[i] = Some(if command.flags[i].takes_value {
                argv.next().ok_or_else(|| format!("{arg} needs a value"))?
            } else {
                ""
            });
        }
        for flag in command.flags.iter().filter(|f| args.given(f.name)) {
            if let Some((other, why)) = flag.excludes.iter().find(|(other, _)| args.given(other)) {
                return Err(format!("{} conflicts with {other} ({why})", flag.name));
            }
            if let Some(other) = flag.needs.iter().find(|other| !args.given(other)) {
                return Err(format!("{} requires {other}", flag.name));
            }
        }
        Ok(args)
    }

    fn index(&self, name: &str) -> usize {
        self.command
            .flags
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the {} table", self.command.name))
    }

    /// `true` if `name` is on the command line.
    fn given(&self, name: &str) -> bool {
        self.values[self.index(name)].is_some()
    }

    /// The value of `name` as given, else its default.
    fn raw(&self, name: &str) -> Option<&'a str> {
        let i = self.index(name);
        self.values[i].or(self.command.flags[i].default)
    }

    /// The value of `name` parsed; `None` if it is neither given nor
    /// defaulted.
    fn opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.raw(name)
            .map(|raw| {
                raw.parse()
                    .map_err(|e| format!("invalid value for {name}: `{raw}` ({e})"))
            })
            .transpose()
    }

    /// The value of a flag that has a default, or that a rule makes
    /// present, parsed.
    fn get<T: FromStr>(&self, name: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.opt(name)?
            .ok_or_else(|| format!("{name} needs a value"))
    }

    fn positional(&self, i: usize) -> Option<&'a str> {
        self.positionals.get(i).copied()
    }
}

/// The one stdout writer: every line the CLI prints goes through here.
/// A reader that closed the pipe (`mbpta measure | head`) has seen
/// enough, so end the process successfully, as SIGPIPE ends a C filter.
fn write_stdout(
    write: impl FnOnce(&mut std::io::StdoutLock<'static>) -> std::io::Result<()>,
) -> Result<(), String> {
    let written = write(&mut std::io::stdout().lock());
    match written {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        written => written.map_err(|e| e.to_string()),
    }
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(|w| writeln!(w, $($arg)*))
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `mbpta --help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (name, rest) = args
        .split_first()
        .map_or(("--help", args), |(name, rest)| (name.as_str(), rest));
    // `call <addr> <verb> …`: the verb picks the flag table, and `<addr>`
    // is its first positional argument.
    let (commands, label, argv): (_, _, Vec<&String>) = match (name, rest) {
        ("--help" | "-h", _) => return write_stdout(|w| w.write_all(USAGE.as_bytes())),
        ("call", [addr, verb, rest @ ..]) => (
            CALL_VERBS,
            format!("call {verb}"),
            std::iter::once(addr).chain(rest).collect(),
        ),
        ("call", _) => {
            return Err("call needs <addr> and a verb \
                 (ingest|snapshot|verdict|merge|checkpoint|stats|shutdown)"
                .into())
        }
        _ => (COMMANDS, name.to_string(), rest.iter().collect()),
    };
    let command = commands
        .iter()
        .find(|c| c.name == label)
        .ok_or_else(|| format!("unknown command `{label}`"))?;
    (command.run)(&Args::parse(command, argv)?)
}

/// `file` when given, stdin otherwise.
fn open_input(file: Option<&str>) -> Result<Box<dyn BufRead>, String> {
    let Some(file) = file else {
        return Ok(Box::new(std::io::stdin().lock()));
    };
    let f = std::fs::File::open(file).map_err(|e| format!("cannot open {file}: {e}"))?;
    Ok(Box::new(std::io::BufReader::new(f)))
}

/// One measurement per line from `file` or stdin.
fn measurements(file: Option<&str>) -> Result<impl Iterator<Item = Result<f64, String>>, String> {
    Ok(LineSource::new(open_input(file)?).map(|r| r.map_err(|e| e.to_string())))
}

/// How many measurements the CLI buffers per bulk-ingest call. Large
/// enough to amortize sketch compaction and scheduler scans, small enough
/// to keep live tails responsive on slow feeds.
const FEED_CHUNK: usize = 4096;

/// Feed `items` to `sink` in runs of consecutive same-key values, at
/// most `size` per call; a full run goes out at once, so live feeds stay
/// responsive. A bad item first flushes the run before it, then ends the
/// feed with its error: the values before a bad line are analysed, as
/// they would be item by item.
fn feed_chunks<K: PartialEq>(
    items: impl Iterator<Item = Result<(K, f64), String>>,
    size: usize,
    mut sink: impl FnMut(&K, &[f64]) -> Result<(), String>,
) -> Result<(), String> {
    let mut key: Option<K> = None;
    let mut run: Vec<f64> = Vec::with_capacity(size.min(FEED_CHUNK));
    let mut flush = |key: &Option<K>, run: &mut Vec<f64>| -> Result<(), String> {
        if let (Some(key), false) = (key, run.is_empty()) {
            sink(key, run)?;
            run.clear();
        }
        Ok(())
    };
    for item in items {
        let (k, x) = match item {
            Ok(item) => item,
            Err(e) => {
                flush(&key, &mut run)?;
                return Err(e);
            }
        };
        if key.as_ref() != Some(&k) {
            flush(&key, &mut run)?;
            key = Some(k);
        }
        run.push(x);
        if run.len() >= size {
            flush(&key, &mut run)?;
        }
    }
    flush(&key, &mut run)
}

/// The four TVCA paths, as session channels.
const TVCA_PATHS: &[(&str, ControlMode)] = &[
    ("nominal", ControlMode::Nominal),
    ("saturated-x", ControlMode::SaturatedX),
    ("saturated-y", ControlMode::SaturatedY),
    ("fault-recovery", ControlMode::FaultRecovery),
];

/// A simulated single-path campaign (`measure`, `stream --simulate`,
/// `shard --simulate`): the `--runs`/`--seed`/`--path` flags plus the
/// TVCA trace of that path on the MBPTA-compliant platform.
struct SimSource {
    runs: usize,
    seed: u64,
    mode: ControlMode,
    trace: Vec<Inst>,
}

impl SimSource {
    fn from_args(args: &Args<'_>) -> Result<Self, String> {
        let path: String = args.get("--path")?;
        let mode = TVCA_PATHS
            .iter()
            .find(|(name, _)| *name == path)
            .map(|&(_, mode)| mode)
            .ok_or_else(|| format!("unknown path `{path}`"))?;
        Ok(SimSource {
            runs: args.get("--runs")?,
            seed: args.get("--seed")?,
            mode,
            trace: Tvca::new(TvcaConfig::default()).trace(mode),
        })
    }
}

fn analyze_cmd(args: &Args<'_>) -> Result<(), String> {
    let file = args
        .positional(0)
        .ok_or("analyze needs a measurement file")?;
    let cutoff: f64 = args.get("--cutoff")?;
    let mut config = MbptaConfig {
        alpha: args.get("--alpha")?,
        ..MbptaConfig::default()
    };
    if let Some(n) = args.opt("--block")? {
        config.block = BlockSpec::Fixed(n);
    }
    let campaign = Campaign::from_reader(open_input(Some(file))?).map_err(|e| e.to_string())?;

    if args.given("--cv") {
        let report = analyze_cv(campaign.times(), &config).map_err(|e| e.to_string())?;
        outln!(
            "MBPTA-CV: threshold {:.0}, {} exceedances, residual CV {:.3}",
            report.fit.threshold,
            report.fit.tail_size,
            report.fit.cv
        )?;
        outln!(
            "i.i.d. gate: Ljung-Box p={:.3}, KS p={:.3}",
            report.iid.ljung_box.p_value,
            report.iid.ks.p_value
        )?;
        let budget = report.budget_for(cutoff).map_err(|e| e.to_string())?;
        outln!("pWCET @ {cutoff:e}: {budget:.0}")
    } else {
        let report = Pipeline::new(config)
            .analyze(campaign.times())
            .map_err(|e| e.to_string())?;
        write_stdout(|w| w.write_all(render_report(&report).as_bytes()))?;
        let budget = report.budget_for(cutoff).map_err(|e| e.to_string())?;
        outln!("headline budget @ {cutoff:e}: {budget:.0}")?;
        if args.given("--csv") {
            let probs: Vec<f64> = (3..=15).map(|e| 10f64.powi(-e)).collect();
            let csv =
                proxima::mbpta::render_pwcet_csv(&report, &probs).map_err(|e| e.to_string())?;
            write_stdout(|w| w.write_all(csv.as_bytes()))?;
        }
        Ok(())
    }
}

fn measure_cmd(args: &Args<'_>) -> Result<(), String> {
    let sim = SimSource::from_args(args)?;
    // Measure first, print after: a failed campaign must not leave a
    // partial (headers-only) measurement file on stdout.
    let (campaign, seed_line) = if let Some(jobs) = args.opt("--jobs")? {
        let runner = CampaignRunner::new(PlatformConfig::mbpta_compliant()).with_jobs(jobs);
        let campaign = runner
            .run(&sim.trace, sim.runs, sim.seed)
            .map_err(|e| e.to_string())?;
        let jobs = runner.jobs();
        (
            campaign,
            format!("# runs={} master_seed={} jobs={jobs}", sim.runs, sim.seed),
        )
    } else {
        let mut platform = Platform::new(PlatformConfig::mbpta_compliant());
        let campaign = Campaign::measure(&mut platform, &sim.trace, sim.runs, sim.seed)
            .map_err(|e| e.to_string())?;
        (
            campaign,
            format!("# runs={} base_seed={}", sim.runs, sim.seed),
        )
    };
    outln!(
        "# TVCA path `{}` on the simulated MBPTA-compliant platform",
        sim.mode
    )?;
    outln!("{seed_line}")?;
    write_stdout(|w| campaign.write_to(w))
}

fn stream_cmd(args: &Args<'_>) -> Result<(), String> {
    let target_p: f64 = args.get("--target-p")?;
    let config = StreamConfig {
        block_size: args.get("--block")?,
        refit_every_blocks: args.get("--every")?,
        target_p,
        sketch: args.get("--sketch")?,
        ..StreamConfig::default()
    };
    // A single-channel session over the streaming engine: polled every
    // measurement, the scheduler re-emits exactly the analyzer's refit
    // snapshots.
    let mut session = MbptaConfig::default()
        .session()
        .snapshot_every(1)
        .build_stream_with(config) // `config` already carries target_p
        .map_err(|e| e.to_string())?;

    let values: Box<dyn Iterator<Item = Result<f64, String>>> = if args.given("--simulate") {
        let sim = SimSource::from_args(args)?;
        eprintln!(
            "streaming {} simulated runs of TVCA path `{}` (seed {})",
            sim.runs, sim.mode, sim.seed
        );
        let platform = PlatformConfig::mbpta_compliant();
        Box::new(TraceReplay::new(platform, sim.trace, sim.runs, sim.seed).map(Ok))
    } else {
        Box::new(measurements(args.positional(0))?)
    };

    let channel = ChannelId::new("stream");
    let mut feeder = Feeder {
        target_p,
        stop_on_converged: args.given("--stop-on-converged"),
        ..Feeder::default()
    };
    let feed = values.map(|x| x.map(|x| Tagged::new(channel.clone(), x)));
    feeder.ingest(&mut session, feed)?;
    let merged = session.merge();
    let verdict = merged
        .verdict(channel.as_str())
        .ok_or("stream feed contained no measurements")?
        .as_ref()
        .map_err(|e| e.to_string())?;
    let budget = verdict.budget_for(target_p).map_err(|e| e.to_string())?;
    outln!(
        "final n={} blocks={} pwcet@{target_p:e}={budget:.0} hwm={:.0} snapshots={} converged={}",
        verdict.provenance.n,
        verdict.fit.n_maxima,
        verdict.high_watermark(),
        feeder.snapshots,
        feeder
            .converged_at
            .map_or("no".to_string(), |at| format!("at n={at}")),
    )
}

/// Everything `--resume` needs to rebuild a session besides the session
/// blob itself: the engine selection, the analysis knobs, and (for
/// simulated feeds) the campaign parameters.
#[derive(Debug, Clone, PartialEq)]
struct SessionParams {
    kind: EngineKind,
    block: usize,
    target_p: f64,
    every: usize,
    shards: usize,
    /// Quantile-sketch algorithm of the streaming engines (`--sketch`);
    /// recorded so a resumed run rebuilds the same engine configuration.
    sketch: SketchKind,
    stop_on_converged: bool,
    /// `Some((runs, seed))` when the feed is the built-in simulator.
    sim: Option<(usize, u64)>,
}

/// Magic tag of a `mbpta session` checkpoint file (which wraps the
/// library's session blob together with the CLI parameters).
const MAGIC_CLI_CHECKPOINT: [u8; 4] = *b"PXCP";

impl SessionParams {
    fn encode(&self, w: &mut persist::Writer) {
        persist::Encode::encode(&self.kind, w);
        w.usize(self.block);
        w.f64(self.target_p);
        w.usize(self.every);
        w.usize(self.shards);
        persist::Encode::encode(&self.sketch, w);
        w.bool(self.stop_on_converged);
        match self.sim {
            None => w.bool(false),
            Some((runs, seed)) => {
                w.bool(true);
                w.usize(runs);
                w.u64(seed);
            }
        }
    }

    fn decode(r: &mut persist::Reader<'_>) -> Result<Self, String> {
        let mut take = || -> Result<SessionParams, MbptaError> {
            Ok(SessionParams {
                kind: persist::Decode::decode(r)?,
                block: r.usize()?,
                target_p: r.f64()?,
                every: r.usize()?,
                shards: r.usize()?,
                sketch: persist::Decode::decode(r)?,
                stop_on_converged: r.bool()?,
                sim: if r.bool()? {
                    Some((r.usize()?, r.u64()?))
                } else {
                    None
                },
            })
        };
        take().map_err(|e| e.to_string())
    }
}

/// Write a session checkpoint file atomically and durably
/// ([`persist::write_atomic`]) — a crash (or power cut) mid-write leaves
/// either the previous checkpoint or the new one, never a torn file.
fn write_checkpoint<F: EngineFactory>(
    path: &str,
    params: &SessionParams,
    session: &mut AnalysisSession<F>,
) -> Result<(), String> {
    let blob = session
        .checkpoint()
        .map_err(|e| format!("cannot checkpoint session: {e}"))?;
    let mut w = persist::Writer::new();
    params.encode(&mut w);
    w.usize(session.len());
    w.bytes(&blob);
    let bytes = persist::seal(MAGIC_CLI_CHECKPOINT, w.into_bytes());
    persist::write_atomic(path, &bytes)
        .map_err(|e| format!("cannot write checkpoint {path}: {e}"))?;
    // Reset the session's cadence counter ([`AnalysisSession::
    // checkpoint_due`]) so the next checkpoint falls due a full period
    // from here.
    session.mark_checkpointed();
    Ok(())
}

/// Read a session checkpoint file: `(params, measurements consumed,
/// session blob)`.
fn read_checkpoint(path: &str) -> Result<(SessionParams, usize, Vec<u8>), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let payload = persist::unseal(&bytes, MAGIC_CLI_CHECKPOINT).map_err(|e| e.to_string())?;
    let mut r = persist::Reader::new(payload);
    let params = SessionParams::decode(&mut r)?;
    let consumed = r.usize().map_err(|e| e.to_string())?;
    let blob = r.bytes().map_err(|e| e.to_string())?.to_vec();
    r.finish().map_err(|e| e.to_string())?;
    Ok((params, consumed, blob))
}

/// The `--checkpoint <path>` / `--checkpoint-every <k>` pair; the flag
/// table makes the two come together.
fn checkpoint_spec(args: &Args<'_>) -> Result<Option<(String, usize)>, String> {
    let Some(path) = args.raw("--checkpoint") else {
        return Ok(None);
    };
    match args.get("--checkpoint-every")? {
        0 => Err("--checkpoint-every must be positive".into()),
        every => Ok(Some((path.to_string(), every))),
    }
}

fn session_cmd(args: &Args<'_>) -> Result<(), String> {
    let (jobs, ckpt) = (args.get("--jobs")?, checkpoint_spec(args)?);
    let crash_after = args.opt("--crash-after")?;
    let (params, resume) = match args.raw("--resume") {
        Some(path) => {
            let (params, consumed, blob) = read_checkpoint(path)?;
            eprintln!("resuming from {path}: {consumed} measurements already analysed");
            (params, Some((consumed, blob)))
        }
        None => (session_params(args)?, None),
    };
    let file = args.positional(0);
    let run = SessionRun {
        params,
        file,
        jobs,
        ckpt,
        crash_after,
        resume,
    };
    run.start()
}

/// The [`SessionParams`] of a new session, from its flags.
fn session_params(args: &Args<'_>) -> Result<SessionParams, String> {
    let shards: usize = args.get("--shards")?;
    let batch = args.given("--batch");
    let stop_on_converged = args.given("--stop-on-converged");
    if shards > 0 && batch {
        return Err("--shards applies to the streaming engines; drop --batch".into());
    }
    // Shards fold at the end and only track per-shard stability, which
    // depends on the shard geometry: convergence-gated stopping would
    // make the report depend on the shard count, breaking the federated
    // determinism guarantee. Reject the combination loudly.
    if shards > 0 && stop_on_converged {
        return Err(
            "--stop-on-converged is not valid with --shards (federated shards fold at the \
             end; convergence-gated stopping needs the single-stream engines)"
                .into(),
        );
    }
    // An explicitly requested snapshot cadence would be silently inert:
    // federated engines emit no intermediate estimates (the global
    // estimate exists only at fold time). Say so instead of going quiet.
    if shards > 0 && args.given("--every") {
        eprintln!(
            "note: --every has no effect with --shards \
             (federated channels emit no intermediate snapshots)"
        );
    }
    Ok(SessionParams {
        kind: match (batch, shards) {
            (true, _) => EngineKind::Batch,
            (false, 0) => EngineKind::Stream,
            _ => EngineKind::Federated,
        },
        block: args.get("--block")?,
        target_p: args.get("--target-p")?,
        every: args.get("--every")?,
        shards,
        sketch: args.get("--sketch")?,
        stop_on_converged,
        sim: if args.given("--simulate") {
            Some((args.get("--runs")?, args.get("--seed")?))
        } else {
            None
        },
    })
}

/// A `session` invocation: the recorded [`SessionParams`], plus the
/// runtime side a checkpoint never records — the feed file, the worker
/// threads, the checkpoint target and cadence, the crash injector — and,
/// on resume, the measurements the checkpoint covers and its session
/// blob.
struct SessionRun<'a> {
    params: SessionParams,
    file: Option<&'a str>,
    jobs: usize,
    ckpt: Option<(String, usize)>,
    crash_after: Option<usize>,
    resume: Option<(usize, Vec<u8>)>,
}

impl SessionRun<'_> {
    /// Build (or restore) the session, drive the feed through it and
    /// print the summary.
    fn start(&self) -> Result<(), String> {
        let params = &self.params;
        let consumed = self.resume.as_ref().map_or(0, |(consumed, _)| *consumed);
        let feed = session_feed(self.file, params, self.jobs, consumed)?;
        let config = MbptaConfig {
            block: BlockSpec::Fixed(params.block),
            ..MbptaConfig::default()
        };
        let stream_config = StreamConfig {
            block_size: params.block,
            target_p: params.target_p,
            sketch: params.sketch,
            ..StreamConfig::default()
        };
        let (total, merged) = match params.kind {
            EngineKind::Batch => {
                let factory = BatchFactory::new(config.clone(), params.target_p);
                self.drive(factory, config, feed)?
            }
            EngineKind::Federated => {
                // Federated: each channel routed to per-shard analyzers
                // folded at merge. With a known per-channel volume
                // (--simulate) the shards are balanced; for files/stdin
                // the default block-aligned shard length applies. Reports
                // are bit-identical at every shard count.
                let mut fed = FederatedConfig::new(stream_config, params.shards);
                if let Some((runs, _)) = params.sim {
                    fed = fed.balanced_for(runs);
                }
                self.drive(FederatedFactory::new(fed), config, feed)?
            }
            EngineKind::Stream => self.drive(StreamFactory::new(stream_config), config, feed)?,
            // `EngineKind` is #[non_exhaustive]: a kind added by a future
            // library version has no CLI wiring here yet.
            other => return Err(format!("engine kind `{other}` has no session wiring")),
        };
        print_summary(total, &merged, params.target_p)
    }

    /// The build-or-restore step every engine kind shares, then the
    /// feed. A restore re-arms the checkpoint cadence: it is runtime
    /// policy (`--checkpoint-every` on this invocation), not persisted
    /// state. Restores land exactly on a cadence boundary (chunks never
    /// cross one), so the next checkpoint falls a full period later and
    /// the file sequence is identical to an uninterrupted run's.
    fn drive<F: EngineFactory>(
        &self,
        factory: Result<F, MbptaError>,
        config: MbptaConfig,
        feed: impl Iterator<Item = Result<Tagged, String>>,
    ) -> Result<(usize, SessionVerdict), String> {
        let params = &self.params;
        let factory = factory.map_err(|e| e.to_string())?;
        let cadence = self.ckpt.as_ref().map_or(0, |(_, every)| *every);
        let mut session = match &self.resume {
            Some((_, blob)) => {
                let mut session = AnalysisSession::restore(factory, blob, self.jobs)
                    .map_err(|e| e.to_string())?;
                session.set_checkpoint_every(cadence);
                session
            }
            None => config
                .session()
                .snapshot_every(params.every)
                .checkpoint_every(cadence)
                .target_p(params.target_p)
                .jobs(self.jobs)
                // Converged channels free their engine state immediately;
                // the feed keeps going until every channel converged (or
                // runs out).
                .early_finish(params.stop_on_converged)
                .build_with(factory)
                .map_err(|e| e.to_string())?,
        };
        let mut feeder = Feeder {
            tagged: true,
            target_p: params.target_p,
            stop_on_converged: params.stop_on_converged,
            checkpoint: self.ckpt.as_ref().map(|(path, _)| (path.as_str(), params)),
            crash_after: self.crash_after,
            ..Feeder::default()
        };
        feeder.ingest(&mut session, feed)?;
        if session.is_empty() {
            return Err("session feed contained no measurements".into());
        }
        Ok((session.len(), session.merge()))
    }
}

/// Build the tagged feed a session analyses — the simulated four-path
/// TVCA campaign when `params.sim` is set, a tagged file/stdin otherwise
/// — skipping the first `consumed` measurements (already analysed by a
/// checkpointed run being resumed).
fn session_feed(
    file: Option<&str>,
    params: &SessionParams,
    jobs: usize,
    consumed: usize,
) -> Result<Box<dyn Iterator<Item = Result<Tagged, String>>>, String> {
    let Some((runs, seed)) = params.sim else {
        return Ok(Box::new(tagged_lines(open_input(file)?).skip(consumed)));
    };
    // All four TVCA paths measured in ONE thread pool (`run_many` shards
    // the 4 × runs indices over the workers), then replayed into the
    // session as a round-robin interleaved tagged feed — the demux
    // workload end to end. The campaign is a pure function of (runs,
    // seed), so a resumed run regenerates the identical feed and skips
    // what the checkpoint already covered.
    let tvca = Tvca::new(TvcaConfig::default());
    let traces: Vec<Vec<Inst>> = TVCA_PATHS.iter().map(|(_, m)| tvca.trace(*m)).collect();
    let runner = CampaignRunner::new(PlatformConfig::mbpta_compliant()).with_jobs(jobs);
    eprintln!(
        "measuring {runs} runs of {} TVCA paths in one pool (seed {seed}, jobs {})",
        TVCA_PATHS.len(),
        runner.jobs()
    );
    let campaigns = runner
        .run_many(&traces, runs, seed)
        .map_err(|e| e.to_string())?;
    let channels: Vec<ChannelId> = TVCA_PATHS
        .iter()
        .map(|(name, _)| ChannelId::new(name))
        .collect();
    let mut tagged: Vec<Tagged> = Vec::with_capacity(TVCA_PATHS.len() * runs);
    for i in 0..runs {
        for (channel, campaign) in channels.iter().zip(&campaigns) {
            tagged.push(Tagged::new(channel.clone(), campaign.times()[i]));
        }
    }
    Ok(Box::new(tagged.into_iter().map(Ok).skip(consumed)))
}

/// Parse a tagged-line reader (`<channel> <time>`, blank lines and `#`
/// comments skipped) into a feed. Zero-copy: each line is parsed as a
/// byte slice straight out of the reader's buffer ([`ByteLines`]), with
/// no intermediate `String` per line.
fn tagged_lines(reader: impl BufRead) -> impl Iterator<Item = Result<Tagged, String>> {
    let mut lines = ByteLines::new(reader);
    std::iter::from_fn(move || loop {
        match lines.next_line(|line_no, bytes| {
            let trimmed = bytes.trim_ascii();
            if trimmed.is_empty() || trimmed.first() == Some(&b'#') {
                return None;
            }
            Some(match std::str::from_utf8(trimmed) {
                Err(_) => Err(format!("bad tagged line {line_no}: not valid UTF-8")),
                Ok(text) => text
                    .parse::<Tagged>()
                    .map_err(|e| format!("bad tagged line {line_no} `{text}`: {e}")),
            })
        }) {
            Err(e) => return Some(Err(format!("tagged stream read failed: {e}"))),
            Ok(None) => return None,
            Ok(Some(None)) => continue,
            Ok(Some(Some(parsed))) => return Some(parsed),
        }
    })
}

/// Feeds a measurement stream through a session for `stream` and
/// `session`: prints the snapshots, writes the checkpoints that fall due
/// and injects the `--crash-after` crash.
#[derive(Default)]
struct Feeder<'a> {
    /// Snapshot lines name their channel (`session`); `stream` has one.
    tagged: bool,
    target_p: f64,
    /// Stop once every channel seen so far has converged.
    stop_on_converged: bool,
    /// The checkpoint file, and the parameters recorded in it.
    checkpoint: Option<(&'a str, &'a SessionParams)>,
    crash_after: Option<usize>,
    /// Snapshots printed so far.
    snapshots: usize,
    /// `n` of the first converged snapshot.
    converged_at: Option<usize>,
}

impl Feeder<'_> {
    /// Ingest `feed`. Consecutive same-channel measurements are
    /// bulk-ingested through [`AnalysisSession::push_batch`]; an
    /// interleaved feed degrades to per-item pushes, which keeps the
    /// ingest order — and so the report — exactly as fed.
    /// `--stop-on-converged` pushes item by item: it must stop at exactly
    /// the converging measurement.
    fn ingest<F: EngineFactory>(
        &mut self,
        session: &mut AnalysisSession<F>,
        feed: impl Iterator<Item = Result<Tagged, String>>,
    ) -> Result<(), String> {
        if !self.stop_on_converged {
            let runs = feed.map(|item| item.map(|t| (t.channel, t.time)));
            return feed_chunks(runs, FEED_CHUNK, |channel, xs| {
                self.feed_run(session, channel, xs)
            });
        }
        for tagged in feed {
            if let Some(snap) = session.push(tagged?).map_err(|e| e.to_string())? {
                self.emit(&snap)?;
                if snap.estimate.converged && session.all_converged() {
                    if self.tagged {
                        // NOTE: "every channel" means every channel *seen
                        // so far* — a sequentially ordered file (all of
                        // channel A, then B) would stop after A. Make the
                        // early stop loud so an incomplete envelope is
                        // diagnosable.
                        eprintln!(
                            "stopping early: all {} channel(s) seen so far converged \
                             (total={} measurements; channels appearing later in the \
                             feed are not analysed)",
                            session.channel_count(),
                            session.len(),
                        );
                    }
                    break;
                }
            }
            self.after_push(session)?;
        }
        Ok(())
    }

    /// Bulk-ingest one same-channel run. No chunk crosses a checkpoint
    /// boundary or the crash point, so the checkpoint files, the crash
    /// position and the printed snapshots are all byte-identical to an
    /// item-by-item feed.
    fn feed_run<F: EngineFactory>(
        &mut self,
        session: &mut AnalysisSession<F>,
        channel: &ChannelId,
        xs: &[f64],
    ) -> Result<(), String> {
        let mut rest = xs;
        while !rest.is_empty() {
            let mut take = rest.len();
            if let Some(until) = session.until_checkpoint() {
                take = take.min(until.max(1));
            }
            if let Some(n) = self.crash_after {
                take = take.min(n.saturating_sub(session.len()).max(1));
            }
            let (chunk, tail) = rest.split_at(take);
            rest = tail;
            let snaps = session
                .push_batch(channel.clone(), chunk)
                .map_err(|e| e.to_string())?;
            for snap in &snaps {
                self.emit(snap)?;
            }
            self.after_push(session)?;
        }
        Ok(())
    }

    /// Print one snapshot line, compact enough to tail live.
    fn emit(&mut self, snap: &SessionSnapshot) -> Result<(), String> {
        let est = &snap.estimate;
        self.snapshots += 1;
        if est.converged && self.converged_at.is_none() {
            self.converged_at = Some(est.n);
        }
        let delta = est
            .convergence_delta
            .map_or("-".to_string(), |d| format!("{:.3}%", d * 100.0));
        let ci = est.ci.map_or("-".to_string(), |ci| {
            format!("[{:.0}, {:.0}]", ci.lower, ci.upper)
        });
        let channel = if self.tagged {
            format!("channel={} ", snap.channel)
        } else {
            String::new()
        };
        outln!(
            "snapshot {channel}n={} blocks={} pwcet@{:e}={:.0} ci={ci} delta={delta} hwm={:.0} iid={} {}",
            est.n,
            est.blocks.unwrap_or(0),
            self.target_p,
            est.pwcet,
            est.high_watermark,
            est.iid.map_or("-", |evidence| evidence.label()),
            if est.converged { "CONVERGED" } else { "settling" },
        )
    }

    /// After every push: write the checkpoint if one fell due, then
    /// crash if the session reached `--crash-after`.
    fn after_push<F: EngineFactory>(&self, session: &mut AnalysisSession<F>) -> Result<(), String> {
        if let Some((path, params)) = self.checkpoint {
            if session.checkpoint_due() {
                write_checkpoint(path, params, session)?;
            }
        }
        if self.crash_after.is_some_and(|n| session.len() >= n) {
            // Deterministic crash injection for the restart-determinism
            // CI job: die hard, no unwinding, no cleanup — exactly like a
            // kill -9 mid-campaign. The last atomic checkpoint (if any)
            // is what a resume sees.
            eprintln!(
                "crashing after {} measurements (--crash-after)",
                session.len()
            );
            std::process::abort();
        }
        Ok(())
    }
}

/// Print the per-channel verdicts and the program-level envelope. A
/// failed channel fails the command, after the healthy ones are
/// reported.
fn print_summary(total: usize, merged: &SessionVerdict, target_p: f64) -> Result<(), String> {
    outln!("session total={total} channels={}", merged.channels().len())?;
    for cv in merged.channels() {
        match &cv.outcome {
            Ok(v) => outln!(
                "channel {} n={} engine={} pwcet@{target_p:e}={:.0} hwm={:.0} iid={}{}",
                cv.channel,
                v.provenance.n,
                v.provenance.engine,
                v.budget_for(target_p).unwrap_or(f64::NAN),
                v.high_watermark(),
                v.iid.label(),
                match v.provenance.converged {
                    Some(true) => " CONVERGED",
                    Some(false) => " settling",
                    None => "",
                },
            )?,
            Err(e) => outln!(
                "channel {} FAILED: {e}{}",
                cv.channel,
                if cv.dropped > 0 {
                    format!(" ({} measurements dropped)", cv.dropped)
                } else {
                    String::new()
                },
            )?,
        }
    }
    match merged.envelope_budget(target_p) {
        Ok((worst, budget)) => outln!(
            "envelope pwcet@{target_p:e}={budget:.0} (worst channel: {worst}) hwm={:.0}",
            merged.high_watermark(),
        )?,
        Err(e) => outln!("envelope UNAVAILABLE: {e}")?,
    }
    match merged.failures().count() {
        0 => Ok(()),
        failed => Err(format!(
            "{failed} of {} channels failed",
            merged.channels().len()
        )),
    }
}

/// `mbpta serve`: bind (or resume) the framed-TCP analysis service and
/// run its accept loop until a SHUTDOWN frame arrives.
fn serve_cmd(args: &Args<'_>) -> Result<(), String> {
    let addr: String = args.get("--addr")?;
    let jobs: usize = args.get("--jobs")?;
    let max_conns: usize = args.get("--max-conns")?;
    let crash_after: Option<usize> = args.opt("--crash-after")?;

    let server = if let Some(resume_path) = args.raw("--resume") {
        // `--workers` re-partitions the restored channels to a new worker
        // count; 0 keeps the count the manifest records.
        let opts = proxima::serve::ResumeOptions {
            jobs,
            crash_after,
            workers: args.opt("--workers")?.unwrap_or(0),
            max_conns,
        };
        eprintln!("resuming from {resume_path}");
        Server::resume(&addr, resume_path, opts).map_err(|e| e.to_string())?
    } else {
        let ckpt = checkpoint_spec(args)?;
        let config = ServeConfig {
            stream: StreamConfig {
                block_size: args.get("--block")?,
                target_p: args.get("--target-p")?,
                sketch: args.get("--sketch")?,
                ..StreamConfig::default()
            },
            snapshot_every: args.get("--every")?,
            checkpoint_every: ckpt.as_ref().map_or(0, |(_, every)| *every),
            checkpoint_path: ckpt.map(|(path, _)| path.into()),
            cache_capacity: args.get("--cache-capacity")?,
            cache_ttl: args.get("--cache-ttl")?,
            workers: args.opt("--workers")?.unwrap_or(1),
            max_conns,
            jobs,
            crash_after,
        };
        Server::bind(&addr, config).map_err(|e| e.to_string())?
    };
    // Parseable readiness line on stdout (the CI smoke job and the
    // subprocess tests read the OS-assigned port back from it).
    write_stdout(|w| {
        writeln!(w, "listening on {}", server.local_addr())?;
        w.flush()
    })?;
    server.run().map_err(|e| e.to_string())
}

/// One printed line per server-emitted estimate (`call ingest` /
/// `call snapshot`). The client does not know the server's target
/// cutoff, so the line carries the estimate's own pWCET rather than a
/// `pwcet@p` label.
fn print_wire_snapshot(snap: &WireSnapshot) -> Result<(), String> {
    let est = &snap.estimate;
    outln!(
        "snapshot channel={} n={} blocks={} pwcet={:.0} hwm={:.0} iid={} {}",
        snap.channel,
        est.n,
        est.blocks.unwrap_or(0),
        est.pwcet,
        est.high_watermark,
        est.iid.map_or("-", |evidence| evidence.label()),
        if est.converged {
            "CONVERGED"
        } else {
            "settling"
        },
    )
}

/// Connect to `<addr>`, the first positional argument of every `call`
/// verb.
fn connect(args: &Args<'_>) -> Result<ServeClient, String> {
    let addr = args.positional(0).unwrap_or_default();
    ServeClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
}

/// `call <addr> ingest <channel> [<file>]`: stream measurements into a
/// channel, `--chunk` per INGEST frame.
fn call_ingest(args: &Args<'_>) -> Result<(), String> {
    let channel = args
        .positional(1)
        .ok_or("call ingest needs <channel> [<file>]")?;
    let skip: usize = args.get("--skip")?;
    let chunk: usize = args.get("--chunk")?;
    if chunk == 0 {
        return Err("--chunk must be positive".into());
    }
    let values = measurements(args.positional(2))?.skip(skip);
    let mut client = connect(args)?;
    // The --skip prefix is what a restarted server already holds (`call
    // stats` → total): resending from there makes the resumed feed order
    // identical to an uninterrupted one.
    let mut sent = 0u64;
    let mut last: Option<(u64, u64)> = None;
    feed_chunks(values.map(|x| x.map(|x| ((), x))), chunk, |_, xs| {
        let (channel_len, total, snapshots) =
            client.ingest(channel, xs).map_err(|e| e.to_string())?;
        sent += xs.len() as u64;
        last = Some((channel_len, total));
        snapshots.iter().try_for_each(print_wire_snapshot)
    })?;
    match last {
        Some((channel_len, total)) => outln!(
            "ingested {sent} measurements into channel {channel} \
             (channel n={channel_len}, session total={total})"
        ),
        None => outln!("ingested 0 measurements into channel {channel}"),
    }
}

/// `call <addr> snapshot <channel>`.
fn call_snapshot(args: &Args<'_>) -> Result<(), String> {
    let channel = args.positional(1).ok_or("call snapshot needs <channel>")?;
    let snap = connect(args)?
        .snapshot(channel)
        .map_err(|e| e.to_string())?;
    match snap {
        Some(snap) => print_wire_snapshot(&snap),
        None => outln!("no snapshot yet for channel {channel}"),
    }
}

/// `call <addr> verdict [--p <p>] [--channel <name>]`.
fn call_verdict(args: &Args<'_>) -> Result<(), String> {
    let p: f64 = args.get("--p")?;
    let response = connect(args)?
        .verdict(p, args.raw("--channel"))
        .map_err(|e| e.to_string())?;
    let Response::Verdicts {
        p,
        channels,
        envelope,
    } = response
    else {
        return Err("unexpected response shape".into());
    };
    for (name, outcome) in &channels {
        match outcome {
            Ok(v) => {
                // The raw budget bits ride along so the CI drills can diff
                // for *bit* identity, not just identical rounding.
                let budget = v.budget_for(p).unwrap_or(f64::NAN);
                outln!(
                    "channel {name} n={} pwcet@{p:e}={budget:.0} bits=0x{:016x} hwm={:.0} iid={}",
                    v.provenance.n,
                    budget.to_bits(),
                    v.high_watermark(),
                    v.iid.label(),
                )?;
            }
            Err(e) => outln!("channel {name} FAILED: {e}")?,
        }
    }
    match envelope {
        Ok((worst, budget)) => outln!(
            "envelope pwcet@{p:e}={budget:.0} bits=0x{:016x} (worst channel: {worst})",
            budget.to_bits(),
        ),
        Err(e) => outln!("envelope UNAVAILABLE: {e}"),
    }
}

/// `call <addr> merge <channel> <blob-file>`.
fn call_merge(args: &Args<'_>) -> Result<(), String> {
    let (Some(channel), Some(blob_file)) = (args.positional(1), args.positional(2)) else {
        return Err("call merge needs <channel> <blob-file>".into());
    };
    let blob = std::fs::read(blob_file).map_err(|e| format!("cannot open {blob_file}: {e}"))?;
    let (channel_len, total) = connect(args)?
        .merge(channel, &blob)
        .map_err(|e| e.to_string())?;
    outln!(
        "merged {blob_file} into channel {channel} \
         (channel n={channel_len}, session total={total})"
    )
}

/// `call <addr> checkpoint`.
fn call_checkpoint(args: &Args<'_>) -> Result<(), String> {
    let bytes = connect(args)?.checkpoint().map_err(|e| e.to_string())?;
    outln!("checkpoint written ({bytes} bytes)")
}

/// `call <addr> stats`: one `name=value` per line; the CI smoke job
/// greps these (`grep '^total=' | cut -d= -f2`).
fn call_stats(args: &Args<'_>) -> Result<(), String> {
    let s = connect(args)?.stats().map_err(|e| e.to_string())?;
    outln!("total={}", s.total)?;
    outln!("channels={}", s.channels)?;
    outln!("connections={}", s.connections)?;
    outln!("frames_ingest={}", s.frames_ingest)?;
    outln!("frames_snapshot={}", s.frames_snapshot)?;
    outln!("frames_verdict={}", s.frames_verdict)?;
    outln!("frames_merge={}", s.frames_merge)?;
    outln!("frames_admin={}", s.frames_admin)?;
    outln!("protocol_errors={}", s.protocol_errors)?;
    outln!("cache_hits={}", s.cache_hits)?;
    outln!("cache_misses={}", s.cache_misses)?;
    outln!("cache_insertions={}", s.cache_insertions)?;
    outln!("cache_evictions={}", s.cache_evictions)?;
    outln!("cache_expirations={}", s.cache_expirations)?;
    outln!("cache_len={}", s.cache_len)?;
    outln!("cache_capacity={}", s.cache_capacity)?;
    outln!("checkpoints_written={}", s.checkpoints_written)?;
    outln!("last_checkpoint_bytes={}", s.last_checkpoint_bytes)?;
    outln!("since_checkpoint={}", s.since_checkpoint)?;
    outln!("busy_rejections={}", s.busy_rejections)?;
    outln!("workers={}", s.workers)?;
    for (i, shard) in s.shards.iter().enumerate() {
        outln!(
            "shard{i}: channels={} total={} cache_hits={} cache_misses={} cache_len={}",
            shard.channels,
            shard.total,
            shard.cache_hits,
            shard.cache_misses,
            shard.cache_len
        )?;
    }
    Ok(())
}

/// `call <addr> shutdown`.
fn call_shutdown(args: &Args<'_>) -> Result<(), String> {
    connect(args)?.shutdown().map_err(|e| e.to_string())?;
    outln!("server shutting down")
}

/// `mbpta shard`: fold a measurement campaign into a sealed federated
/// state blob for `call merge` — the shard ships folded analyzer state,
/// never raw measurements.
fn shard_cmd(args: &Args<'_>) -> Result<(), String> {
    let out = args.raw("--out").ok_or("shard needs --out <blob>")?;
    let shards: usize = args.get("--shards")?;
    let stream = StreamConfig {
        block_size: args.get("--block")?,
        target_p: args.get("--target-p")?,
        sketch: args.get("--sketch")?,
        ..StreamConfig::default()
    };
    let mut config = FederatedConfig::new(stream, shards);
    let sim = args
        .given("--simulate")
        .then(|| SimSource::from_args(args))
        .transpose()?;
    if let Some(sim) = &sim {
        // A known campaign volume balances the shards; the folded state
        // is bit-identical at every shard count regardless.
        config = config.balanced_for(sim.runs);
    }
    let mut fed = FederatedAnalyzer::new(config).map_err(|e| e.to_string())?;
    if let Some(sim) = sim {
        eprintln!(
            "sharding {} simulated runs of TVCA path `{}` over {shards} shard(s) (seed {})",
            sim.runs, sim.mode, sim.seed
        );
        let platform = PlatformConfig::mbpta_compliant();
        fed.ingest_trace(platform, &sim.trace, sim.runs, sim.seed)
            .map_err(|e| e.to_string())?;
    } else {
        let values = measurements(args.positional(0))?.map(|x| x.map(|x| ((), x)));
        feed_chunks(values, FEED_CHUNK, |_, xs| {
            fed.push_batch(xs).map(drop).map_err(|e| e.to_string())
        })?;
    }
    if fed.is_empty() {
        return Err("shard feed contained no measurements".into());
    }
    let blob = save_federated(&fed);
    persist::write_atomic(out, &blob).map_err(|e| format!("cannot write {out}: {e}"))?;
    outln!(
        "wrote sealed federated blob: {} measurements over {shards} shard(s), {} bytes -> {out}",
        fed.len(),
        blob.len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn tables() -> impl Iterator<Item = &'static Command> {
        COMMANDS.iter().chain(CALL_VERBS)
    }

    #[test]
    fn usage_and_flag_tables_name_the_same_flags() {
        let in_usage: BTreeSet<&str> = USAGE
            .match_indices("--")
            .map(|(at, _)| {
                let token = &USAGE[at..];
                let end = token[2..]
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .map_or(token.len(), |end| end + 2);
                &token[..end]
            })
            .collect();
        // `--help` is the one flag outside every subcommand.
        let in_tables: BTreeSet<&str> = tables()
            .flat_map(|c| c.flags.iter().map(|f| f.name))
            .chain(["--help"])
            .collect();
        assert_eq!(in_usage, in_tables);
    }

    #[test]
    fn rules_name_flags_of_their_own_table() {
        for command in tables() {
            let names: Vec<&str> = command.flags.iter().map(|f| f.name).collect();
            for flag in command.flags {
                let others = flag
                    .needs
                    .iter()
                    .chain(flag.excludes.iter().map(|(o, _)| o));
                for other in others {
                    assert!(
                        names.contains(other),
                        "{}: {} names {other}, which is not in its table",
                        command.name,
                        flag.name
                    );
                }
            }
        }
    }
}

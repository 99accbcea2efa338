//! The sharded serve core: channel-partitioned analysis workers.
//!
//! One mutex-guarded session serializes every request; the federated
//! fold already proves channels are independent, so the serve layer
//! partitions them instead. A [`ShardedSession`] owns N **worker
//! threads**, each holding its own [`AnalysisSession`], its own
//! [`VerdictCache`] and its own latest-snapshot map. A channel's owner
//! is a pure function of its name — FNV-1a of the tag mod the worker
//! count ([`owner_of`]) — so two requests contend only when they touch
//! channels that hash to the same worker.
//!
//! Connection handlers talk to workers through **bounded mailboxes**
//! (`std::sync::mpsc::sync_channel` of depth [`MAILBOX_DEPTH`]). A full
//! mailbox blocks the sender — backpressure propagates to the TCP
//! connection, and no request is ever dropped or reordered within a
//! worker. Each request carries its own rendezvous reply channel.
//!
//! # The worker-count invariance contract
//!
//! Every response must be **bit-identical at any worker count**. Three
//! design rules deliver that:
//!
//! * Worker sessions run with the session scheduler off
//!   (`snapshot_every(0)`): the core then emits only channel-pure
//!   convergence announcements. The serve layer adds its own *per
//!   channel* snapshot cadence (`snapshot_every` accepted measurements
//!   of that channel, polled at ingest-batch boundaries), so what a
//!   channel emits depends only on its own feed — never on how other
//!   channels interleave or which worker owns it.
//! * The session-wide totals in responses come from one dispatcher
//!   counter fed by per-request deltas, not from any single worker's
//!   session.
//! * Envelope verdicts fan out: each worker finalizes a clone of its
//!   own session into a cached, shared *partial* (its typed channel
//!   verdicts), and the dispatcher hands the partials to the core
//!   ([`SessionVerdict::from_parts`]), which restores **global**
//!   first-seen channel order, so the one `envelope_budget` fold answers
//!   exactly as a single session would, whatever the partitioning.
//!   Errors become strings only at the wire edge.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread;

use proxima_mbpta::engine::Engine as _;
use proxima_mbpta::persist;
use proxima_mbpta::session::{ChannelVerdict, SessionVerdict};
use proxima_mbpta::AnalysisSession;
use proxima_stream::{StreamConfig, StreamEngine, StreamFactory};

use crate::cache::{query_key, VerdictCache};
use crate::frame::{Response, ShardStats, WireSnapshot};
use crate::server::{lock, ServeError};

/// Bound on each worker's request mailbox. A full mailbox blocks the
/// sending connection thread (backpressure), it never drops requests.
pub const MAILBOX_DEPTH: usize = 32;

/// Cache-key kinds (folded into [`query_key`]).
const KIND_SNAPSHOT: u8 = 2;
const KIND_VERDICT: u8 = 3;
/// A worker's cached all-channel verdict *partial* (not a full
/// response); keyed by the worker session's total, probability-blind
/// because channel outcomes do not depend on `p`.
const KIND_PARTIAL: u8 = 4;

/// A worker's cache payload: an encoded response, or its typed verdict
/// partial, shared so a cache hit costs a reference count.
#[derive(Clone)]
pub(crate) enum Cached {
    Response(Vec<u8>),
    Partial(Arc<[ChannelVerdict]>),
}

/// The worker that owns `channel`: FNV-1a of the tag mod the worker
/// count. Deterministic and stable across restarts, so a resumed or
/// re-partitioned server routes every channel exactly where the
/// checkpoint layout expects it.
pub(crate) fn owner_of(channel: &str, workers: usize) -> usize {
    (persist::fnv1a(channel.as_bytes()) % workers as u64) as usize
}

fn worker_gone(index: usize) -> ServeError {
    ServeError::Analysis(format!(
        "analysis worker {index} is unavailable (panicked or shut down)"
    ))
}

/// Everything a worker thread needs beyond its session.
#[derive(Clone)]
pub(crate) struct WorkerContext {
    /// Streaming-engine knobs, for adopting federated blobs.
    pub stream: StreamConfig,
    /// Serve-layer per-channel snapshot cadence (0 = announcements
    /// only).
    pub snapshot_every: usize,
    /// Analysis-configuration fingerprint folded into cache keys.
    pub fingerprint: u64,
}

/// One worker's starting state.
pub(crate) struct WorkerSeed {
    pub session: AnalysisSession<StreamFactory>,
    pub cache: VerdictCache<Cached>,
}

/// What an ingest did, from the owning worker's point of view.
struct IngestOutcome {
    channel_len: u64,
    /// Worker-session growth (counts dropped pushes too, exactly like
    /// the session's own total).
    delta: u64,
    new_channel: bool,
    snapshots: Vec<WireSnapshot>,
}

/// What a merge-adopt did, from the owning worker's point of view.
struct MergeOutcome {
    channel_len: u64,
    delta: u64,
}

/// A request in a worker's mailbox. Every variant carries a rendezvous
/// reply sender; the worker never initiates communication.
enum Job {
    Ingest {
        channel: String,
        values: Vec<f64>,
        reply: SyncSender<Result<IngestOutcome, ServeError>>,
    },
    Merge {
        channel: String,
        blob: Vec<u8>,
        reply: SyncSender<Result<MergeOutcome, ServeError>>,
    },
    /// Reply: the full encoded [`Response::Snapshot`].
    Snapshot {
        channel: String,
        reply: SyncSender<Vec<u8>>,
    },
    /// Reply: the full encoded [`Response::Verdicts`] for one channel.
    VerdictChannel {
        channel: String,
        p: f64,
        reply: SyncSender<Vec<u8>>,
    },
    /// Reply: the worker's all-channel verdict partial.
    VerdictAll {
        reply: SyncSender<Arc<[ChannelVerdict]>>,
    },
    Stats {
        reply: SyncSender<ShardStats>,
    },
    /// Reply: the worker session's sealed checkpoint blob.
    Checkpoint {
        reply: SyncSender<Result<Vec<u8>, ServeError>>,
    },
}

/// Global first-seen channel order plus a membership set, guarded by
/// one (briefly held) mutex at the dispatch layer.
struct Registry {
    order: Vec<String>,
    known: BTreeSet<String>,
}

/// Dispatcher-side reply for an ingest.
pub(crate) struct IngestReply {
    pub channel_len: u64,
    pub total: u64,
    pub snapshots: Vec<WireSnapshot>,
}

/// Dispatcher-side reply for a merge.
pub(crate) struct MergeReply {
    pub channel_len: u64,
    pub total: u64,
}

/// The channel-partitioned session engine: N workers behind bounded
/// mailboxes, one global channel registry, one global total.
pub(crate) struct ShardedSession {
    senders: Vec<SyncSender<Job>>,
    registry: Mutex<Registry>,
    /// Session-wide measurement count (sum of worker deltas). The
    /// single source for every `total` a response reports.
    total: AtomicU64,
    last_checkpoint_at: AtomicU64,
}

impl ShardedSession {
    /// Spawn one worker thread per seed and return the dispatcher plus
    /// the worker join handles (joined by the server after the accept
    /// loop drains; workers exit when the dispatcher drops).
    pub(crate) fn spawn(
        seeds: Vec<WorkerSeed>,
        channel_order: Vec<String>,
        total: u64,
        ctx: &WorkerContext,
    ) -> (ShardedSession, Vec<thread::JoinHandle<()>>) {
        let mut senders = Vec::with_capacity(seeds.len());
        let mut handles = Vec::with_capacity(seeds.len());
        for seed in seeds {
            let (tx, rx) = sync_channel::<Job>(MAILBOX_DEPTH);
            let mut worker = Worker {
                session: seed.session,
                cache: seed.cache,
                latest: HashMap::new(),
                stream: ctx.stream.clone(),
                snapshot_every: ctx.snapshot_every,
                fingerprint: ctx.fingerprint,
            };
            senders.push(tx);
            handles.push(thread::spawn(move || worker.run(&rx)));
        }
        let known = channel_order.iter().cloned().collect();
        let sharded = ShardedSession {
            senders,
            registry: Mutex::new(Registry {
                order: channel_order,
                known,
            }),
            total: AtomicU64::new(total),
            last_checkpoint_at: AtomicU64::new(total),
        };
        (sharded, handles)
    }

    fn owner(&self, channel: &str) -> usize {
        owner_of(channel, self.senders.len())
    }

    /// Send one job to worker `index`; the mailbox bound makes this
    /// block (never drop) when the worker is behind.
    fn send(&self, index: usize, job: Job) -> Result<(), ServeError> {
        self.senders[index]
            .send(job)
            .map_err(|_| worker_gone(index))
    }

    fn record_channel(&self, channel: &str) -> Result<(), ServeError> {
        let mut registry = lock(&self.registry, "channel registry")?;
        if registry.known.insert(channel.to_string()) {
            registry.order.push(channel.to_string());
        }
        Ok(())
    }

    /// Route an ingest to the channel's owner and fold its delta into
    /// the global total.
    pub(crate) fn ingest(
        &self,
        channel: &str,
        values: Vec<f64>,
    ) -> Result<IngestReply, ServeError> {
        let index = self.owner(channel);
        let (tx, rx) = sync_channel(1);
        self.send(
            index,
            Job::Ingest {
                channel: channel.to_string(),
                values,
                reply: tx,
            },
        )?;
        let outcome = rx.recv().map_err(|_| worker_gone(index))??;
        if outcome.new_channel {
            self.record_channel(channel)?;
        }
        let before = self.total.fetch_add(outcome.delta, Ordering::SeqCst);
        Ok(IngestReply {
            channel_len: outcome.channel_len,
            total: before + outcome.delta,
            snapshots: outcome.snapshots,
        })
    }

    /// Route a federated-blob adoption to the channel's owner.
    pub(crate) fn merge(&self, channel: &str, blob: Vec<u8>) -> Result<MergeReply, ServeError> {
        let index = self.owner(channel);
        let (tx, rx) = sync_channel(1);
        self.send(
            index,
            Job::Merge {
                channel: channel.to_string(),
                blob,
                reply: tx,
            },
        )?;
        let outcome = rx.recv().map_err(|_| worker_gone(index))??;
        self.record_channel(channel)?;
        let before = self.total.fetch_add(outcome.delta, Ordering::SeqCst);
        Ok(MergeReply {
            channel_len: outcome.channel_len,
            total: before + outcome.delta,
        })
    }

    /// Answer a snapshot query from the owning worker's latest map and
    /// cache. Returns the encoded response.
    pub(crate) fn snapshot(&self, channel: &str) -> Result<Vec<u8>, ServeError> {
        let index = self.owner(channel);
        let (tx, rx) = sync_channel(1);
        self.send(
            index,
            Job::Snapshot {
                channel: channel.to_string(),
                reply: tx,
            },
        )?;
        rx.recv().map_err(|_| worker_gone(index))
    }

    /// Answer a verdict query: routed to the owner for one channel,
    /// fanned out and folded for the envelope. Returns the encoded
    /// response.
    pub(crate) fn verdict(&self, p: f64, channel: Option<&str>) -> Result<Vec<u8>, ServeError> {
        match channel {
            Some(name) => {
                let known = lock(&self.registry, "channel registry")?
                    .known
                    .contains(name);
                if !known {
                    return Err(ServeError::Analysis(format!("unknown channel `{name}`")));
                }
                let index = self.owner(name);
                let (tx, rx) = sync_channel(1);
                self.send(
                    index,
                    Job::VerdictChannel {
                        channel: name.to_string(),
                        p,
                        reply: tx,
                    },
                )?;
                rx.recv().map_err(|_| worker_gone(index))
            }
            None => {
                // Fan out first, then collect: workers finalize their
                // partials concurrently.
                let mut replies = Vec::with_capacity(self.senders.len());
                for index in 0..self.senders.len() {
                    let (tx, rx) = sync_channel(1);
                    self.send(index, Job::VerdictAll { reply: tx })?;
                    replies.push(rx);
                }
                let mut parts = Vec::with_capacity(replies.len());
                for (index, rx) in replies.into_iter().enumerate() {
                    parts.push(rx.recv().map_err(|_| worker_gone(index))?.to_vec());
                }
                let order = lock(&self.registry, "channel registry")?.order.clone();
                Ok(verdicts_response(p, SessionVerdict::from_parts(&order, parts)).encode())
            }
        }
    }

    /// Per-worker counters, in worker order.
    pub(crate) fn shard_stats(&self) -> Result<Vec<ShardStats>, ServeError> {
        let mut replies = Vec::with_capacity(self.senders.len());
        for index in 0..self.senders.len() {
            let (tx, rx) = sync_channel(1);
            self.send(index, Job::Stats { reply: tx })?;
            replies.push(rx);
        }
        let mut stats = Vec::with_capacity(replies.len());
        for (index, rx) in replies.into_iter().enumerate() {
            stats.push(rx.recv().map_err(|_| worker_gone(index))?);
        }
        Ok(stats)
    }

    /// One sealed session blob per worker, in worker order.
    pub(crate) fn checkpoint_blobs(&self) -> Result<Vec<Vec<u8>>, ServeError> {
        let mut replies = Vec::with_capacity(self.senders.len());
        for index in 0..self.senders.len() {
            let (tx, rx) = sync_channel(1);
            self.send(index, Job::Checkpoint { reply: tx })?;
            replies.push(rx);
        }
        let mut blobs = Vec::with_capacity(replies.len());
        for (index, rx) in replies.into_iter().enumerate() {
            blobs.push(rx.recv().map_err(|_| worker_gone(index))??);
        }
        Ok(blobs)
    }

    /// Global first-seen channel order (for the checkpoint manifest).
    pub(crate) fn channel_order(&self) -> Result<Vec<String>, ServeError> {
        Ok(lock(&self.registry, "channel registry")?.order.clone())
    }

    pub(crate) fn channel_count(&self) -> Result<u64, ServeError> {
        Ok(lock(&self.registry, "channel registry")?.order.len() as u64)
    }

    pub(crate) fn total(&self) -> u64 {
        self.total.load(Ordering::SeqCst)
    }

    pub(crate) fn since_checkpoint(&self) -> u64 {
        self.total()
            .saturating_sub(self.last_checkpoint_at.load(Ordering::SeqCst))
    }

    pub(crate) fn checkpoint_due(&self, checkpoint_every: usize) -> bool {
        checkpoint_every > 0 && self.since_checkpoint() >= checkpoint_every as u64
    }

    /// Reset the cadence mark to `at_total` (the global total captured
    /// when the checkpoint blobs were taken).
    pub(crate) fn mark_checkpointed(&self, at_total: u64) {
        self.last_checkpoint_at.store(at_total, Ordering::SeqCst);
    }
}

/// Move every channel of `sessions` into `target` fresh worker
/// sessions according to [`owner_of`] — the manifest re-partitioning
/// path of `--resume --workers M` when a checkpoint was written at a
/// different worker count. Channel records round-trip byte-for-byte
/// (engine state, quarantine, drop counters, snapshot bookkeeping), so
/// a migrated channel's later responses are bit-identical to never
/// having moved.
pub(crate) fn repartition(
    sessions: &[AnalysisSession<StreamFactory>],
    target: usize,
    mut fresh: impl FnMut() -> Result<AnalysisSession<StreamFactory>, ServeError>,
) -> Result<Vec<AnalysisSession<StreamFactory>>, ServeError> {
    let mut out = Vec::with_capacity(target);
    for _ in 0..target {
        out.push(fresh()?);
    }
    for session in sessions {
        let ids: Vec<String> = session
            .channel_ids()
            .map(|id| id.as_str().to_string())
            .collect();
        for id in ids {
            let record = session.export_channel_record(&id)?;
            out[owner_of(&id, target)].adopt_channel_record(&record)?;
        }
    }
    Ok(out)
}

/// The wire form of a verdict query: every channel's outcome plus the
/// envelope at `p`, with errors stringified.
fn verdicts_response(p: f64, merged: SessionVerdict) -> Response {
    let envelope = merged
        .envelope_budget(p)
        .map(|(winner, budget)| (winner.to_string(), budget))
        .map_err(|e| e.to_string());
    let channels = merged
        .into_channels()
        .into_iter()
        .map(|c| (c.channel.to_string(), c.outcome.map_err(|e| e.to_string())))
        .collect();
    Response::Verdicts {
        p,
        channels,
        envelope,
    }
}

/// One worker: an owned session, cache and latest-snapshot map, driven
/// by its mailbox until every sender is gone.
struct Worker {
    session: AnalysisSession<StreamFactory>,
    cache: VerdictCache<Cached>,
    /// Latest emitted estimate per owned channel (announcements and
    /// scheduled snapshots). Rebuilt from live traffic after a resume,
    /// exactly like the pre-sharding server.
    latest: HashMap<String, WireSnapshot>,
    stream: StreamConfig,
    snapshot_every: usize,
    fingerprint: u64,
}

impl Worker {
    fn run(&mut self, mailbox: &Receiver<Job>) {
        while let Ok(job) = mailbox.recv() {
            match job {
                Job::Ingest {
                    channel,
                    values,
                    reply,
                } => {
                    let _ = reply.send(self.ingest(&channel, &values));
                }
                Job::Merge {
                    channel,
                    blob,
                    reply,
                } => {
                    let _ = reply.send(self.merge(&channel, &blob));
                }
                Job::Snapshot { channel, reply } => {
                    let _ = reply.send(self.snapshot(&channel));
                }
                Job::VerdictChannel { channel, p, reply } => {
                    let _ = reply.send(self.verdict_channel(&channel, p));
                }
                Job::VerdictAll { reply } => {
                    let _ = reply.send(self.verdict_partial());
                }
                Job::Stats { reply } => {
                    let _ = reply.send(self.stats());
                }
                Job::Checkpoint { reply } => {
                    let _ = reply.send(self.session.checkpoint().map_err(ServeError::from));
                }
            }
        }
    }

    /// The channel's accepted count, 0 for a channel this worker has
    /// never seen. (`AnalysisSession::channel` would *create* the
    /// channel, hence the membership check first.)
    fn channel_len(&mut self, channel: &str) -> usize {
        if self.session.channel_ids().any(|id| id.as_str() == channel) {
            self.session
                .channel(channel)
                .ok()
                .map_or(0, |handle| handle.len())
        } else {
            0
        }
    }

    fn ingest(&mut self, channel: &str, values: &[f64]) -> Result<IngestOutcome, ServeError> {
        let channels_before = self.session.channel_count();
        let len_before = self.channel_len(channel);
        let worker_before = self.session.len();
        let announcements = self.session.push_batch(channel, values)?;
        let worker_after = self.session.len();
        let len_after = self.channel_len(channel);

        // Convergence announcements are channel-pure; rebase their
        // session-relative totals to channel positions. (While the
        // engine is live every push is accepted — a rejected push
        // quarantines the channel and nothing announces after — so
        // push offsets are accepted offsets.)
        let mut snapshots: Vec<WireSnapshot> = announcements
            .iter()
            .map(|snap| WireSnapshot {
                channel: snap.channel.as_str().to_string(),
                total: (len_before + (snap.total - worker_before)) as u64,
                estimate: snap.estimate.clone(),
            })
            .collect();

        // Serve-layer snapshot cadence, per channel: crossing a
        // `snapshot_every` boundary of the channel's own accepted
        // count polls one estimate at the batch end. Estimates are
        // pure functions of the channel's pushes, so neither the poll
        // schedule nor the owning worker can change what is emitted.
        let crossed = self.snapshot_every > 0
            && len_after / self.snapshot_every > len_before / self.snapshot_every;
        let announced_at_end = announcements
            .last()
            .is_some_and(|snap| snap.total == worker_after);
        if crossed && !announced_at_end {
            let estimate = self
                .session
                .channel(channel)
                .ok()
                .and_then(|mut handle| handle.estimate());
            if let Some(estimate) = estimate {
                snapshots.push(WireSnapshot {
                    channel: channel.to_string(),
                    total: len_after as u64,
                    estimate,
                });
            }
        }

        for snap in &snapshots {
            self.latest.insert(snap.channel.clone(), snap.clone());
        }
        Ok(IngestOutcome {
            channel_len: len_after as u64,
            delta: (worker_after - worker_before) as u64,
            new_channel: self.session.channel_count() > channels_before,
            snapshots,
        })
    }

    fn merge(&mut self, channel: &str, blob: &[u8]) -> Result<MergeOutcome, ServeError> {
        let engine = StreamEngine::from_federated_blob(blob, &self.stream)?;
        let channel_len = engine.len() as u64;
        let state = engine.save_state()?;
        let worker_before = self.session.len();
        self.session.adopt_channel(channel, &state)?;
        Ok(MergeOutcome {
            channel_len,
            delta: (self.session.len() - worker_before) as u64,
        })
    }

    /// The cached encoded response under `key`, if any.
    fn cached_response(&mut self, key: u64) -> Option<Vec<u8>> {
        match self.cache.get(key)? {
            Cached::Response(bytes) => Some(bytes),
            Cached::Partial(_) => None,
        }
    }

    fn snapshot(&mut self, channel: &str) -> Vec<u8> {
        let progress = self.channel_len(channel) as u64;
        let key = query_key(self.fingerprint, KIND_SNAPSHOT, channel, progress, 0);
        if let Some(hit) = self.cached_response(key) {
            return hit;
        }
        let response = Response::Snapshot {
            latest: self.latest.get(channel).cloned(),
        }
        .encode();
        self.cache.insert(key, Cached::Response(response.clone()));
        response
    }

    fn verdict_channel(&mut self, channel: &str, p: f64) -> Vec<u8> {
        let progress = self.channel_len(channel) as u64;
        let key = query_key(
            self.fingerprint,
            KIND_VERDICT,
            channel,
            progress,
            p.to_bits(),
        );
        if let Some(hit) = self.cached_response(key) {
            return hit;
        }
        // Finalize a clone: the live session keeps streaming, and
        // repeat queries between ingests come straight from the cache.
        let found = self
            .session
            .clone()
            .merge()
            .into_channels()
            .into_iter()
            .find(|c| c.channel.as_str() == channel);
        let Some(found) = found else {
            // The dispatcher's registry check makes this unreachable
            // for routed queries; answer honestly anyway.
            return Response::Error {
                message: format!("unknown channel `{channel}`"),
            }
            .encode();
        };
        let merged = SessionVerdict::from_parts(&[channel], vec![vec![found]]);
        let response = verdicts_response(p, merged).encode();
        self.cache.insert(key, Cached::Response(response.clone()));
        response
    }

    fn verdict_partial(&mut self) -> Arc<[ChannelVerdict]> {
        let key = query_key(
            self.fingerprint,
            KIND_PARTIAL,
            "*",
            self.session.len() as u64,
            0,
        );
        if let Some(Cached::Partial(hit)) = self.cache.get(key) {
            return hit;
        }
        let partial: Arc<[ChannelVerdict]> = self.session.clone().merge().into_channels().into();
        self.cache
            .insert(key, Cached::Partial(Arc::clone(&partial)));
        partial
    }

    fn stats(&self) -> ShardStats {
        ShardStats {
            channels: self.session.channel_count() as u64,
            total: self.session.len() as u64,
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_insertions: self.cache.insertions(),
            cache_evictions: self.cache.evictions(),
            cache_expirations: self.cache.expirations(),
            cache_len: self.cache.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_a_pure_function_of_name_and_count() {
        for workers in 1..=8 {
            for name in ["nominal", "fault-recovery", "ch-17", ""] {
                let a = owner_of(name, workers);
                let b = owner_of(name, workers);
                assert_eq!(a, b);
                assert!(a < workers);
            }
        }
    }

    #[test]
    fn one_worker_owns_everything() {
        for name in ["a", "b", "c", "☃"] {
            assert_eq!(owner_of(name, 1), 0);
        }
    }
}

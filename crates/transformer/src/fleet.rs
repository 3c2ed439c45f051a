//! Shard-parallel serving fleet: N worker threads, each owning its own
//! [`DecodeScheduler`](ft_core::serve::DecodeScheduler) + [`ServeSession`]
//! over one shared [`TransformerModel`], behind a shared admission router.
//!
//! ```text
//!  caller threads                router                 shard workers
//!  ──────────────        ─────────────────────          ──────────────────
//!  Fleet::submit ──▶ alloc global StreamId (atomic)     shard0: scheduler+
//!                    project cache bytes                  session, sweeps
//!                    pick shard:                        shard1:    "
//!                      LeastLoaded (projected bytes)      ⋮
//!                      ConsistentHash (prompt affinity) shardN-1:  "
//!                 ──▶ per-shard mpsc ────────────────▶  chosen shard
//!  StreamHandle ◀── bounded per-stream channel ◀──────  event routing
//!
//!  ragged tails: an idle shard posts "hungry"; a loaded shard asks its
//!  scheduler for one stream to give away, routes its Preempted event (if it
//!  held a slot), and ships scheduler state (fault ledger included) + outbox
//!  over the migration board; the thief re-admits it through chunked
//!  re-prefill (bit-identical to a never-migrated run).
//! ```
//!
//! Design invariants:
//!
//! * **One entry point.** [`Fleet::submit`] is the only way into a serving
//!   loop and its [`StreamHandle`] the only way out — callers cannot tell
//!   how many shards serve them ([`FleetConfig::single`]: one).
//! * **The worker is a pump.** It reports one fact per stream — its
//!   consumer owes a drain ([`ServeSession::set_blocked`]); which stream is
//!   fed, admitted, parked or exported is decided in one place,
//!   [`DecodeScheduler::plan`](ft_core::serve::DecodeScheduler::plan).
//! * **Fleet-unique ids.** One shared atomic allocator hands out
//!   [`StreamId`]s before routing, so ids are unique across shards and a
//!   migrated stream keeps its identity.
//! * **Bit-identical migration.** Only *pending* (queued or parked)
//!   streams migrate; a parked stream has no cache, so the move ships
//!   the scheduler state, which carries the fault ledger, and the thief rebuilds the
//!   cache by chunked re-prefill — the same machinery preemption uses,
//!   already pinned bit-identical by the preemption suite.
//! * **Lossless roll-up.** Every token, detection, repair, recovery,
//!   park, and speculation count lands in exactly one
//!   [`ShardReport`]; [`FleetReport::total`] is a plain sum. Event-level
//!   counters (tokens, recoveries, parks) are attributed to the shard
//!   where they happened; stream-level ledgers (the [`FtReport`] fault
//!   ledger, speculation) to the shard that retired the stream.
//! * **Composable parallelism.** Each shard thread caps the rayon-shim
//!   fan-out of its own sweeps to `cores / workers` (override:
//!   [`FleetConfig::shard_threads`], or the `FT_RAYON_WORKERS`
//!   environment variable process-wide), so shards × sweep-workers stays
//!   at about one thread per core instead of multiplying.

use crate::engine::{EngineConfig, StreamHandle};
use crate::model::{ServeSession, TransformerModel};
use ft_core::serve::{
    EngineEvent, GenerationRequest, Priority, RecoveryPolicy, StreamId, StreamState,
};
use ft_core::types::FtReport;
use ft_sim::{FaultInjector, NoFaults};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Identity of one fleet shard (worker thread). Displays as `shardN`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub usize);

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// Admission routing policy of a [`Fleet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Route each request to the shard with the smallest projected cache
    /// footprint (sum of the admission-projection bytes of the streams it
    /// owns). Best aggregate balance; no placement affinity.
    LeastLoaded,
    /// Route by consistent hash of the prompt tokens: identical prompts
    /// land on the same shard (prefix/session affinity), and adding
    /// shards only remaps `1/N` of the keyspace. Load can be ragged —
    /// work stealing covers the tails.
    ConsistentHash,
}

/// Sizing and policy knobs of a [`Fleet`].
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Shard worker threads. The default is the machine's available
    /// parallelism; see [`FleetConfig::single`] for one.
    pub workers: usize,
    /// Admission routing policy.
    pub router: RouterPolicy,
    /// Per-shard serving-loop knobs (scheduler sizing, channel capacity)
    /// — every shard runs the same config.
    pub engine: EngineConfig,
    /// Allow idle shards to steal parked/queued streams from loaded ones.
    /// Migration is bit-identical (park + chunked re-prefill); disable it
    /// to pin streams to their routed shard.
    pub steal: bool,
    /// Rayon-shim worker cap set on each shard thread for its sweeps.
    /// `None` derives `max(1, cores / workers)` so the fleet does not
    /// oversubscribe; CI containers can also cap process-wide via the
    /// `FT_RAYON_WORKERS` environment variable.
    pub shard_threads: Option<usize>,
}

impl FleetConfig {
    /// The one-worker fleet: a single serving loop whose sweeps may use
    /// every core. Nothing to route between and nothing to steal from.
    pub fn single(engine: EngineConfig) -> FleetConfig {
        FleetConfig {
            workers: 1,
            router: RouterPolicy::LeastLoaded,
            engine,
            steal: false,
            shard_threads: Some(0), // 0 = no cap
        }
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            workers: thread::available_parallelism().map_or(1, |n| n.get()),
            router: RouterPolicy::LeastLoaded,
            engine: EngineConfig::default(),
            steal: true,
            shard_threads: None,
        }
    }
}

/// One shard's serving ledger. Event-level counters (tokens, recoveries,
/// parks, migrations) count where they *happened*; stream-level ledgers
/// (fault totals, speculation, finished ids) count on the shard that
/// *retired* the stream — recovery of a migrated stream is therefore
/// attributed to the shard that owned it when the fault hit.
#[derive(Clone, Debug, Default)]
pub struct ShardReport {
    /// Which shard (or the synthetic total row — see
    /// [`FleetReport::total`]).
    pub shard: ShardId,
    /// Streams retired on this shard.
    pub streams_finished: u64,
    /// Tokens emitted by this shard's sweeps (migrated streams count the
    /// tokens emitted here only — re-prefill replays are not re-emitted).
    pub tokens_emitted: u64,
    /// Re-prefill recovery attempts started on this shard.
    pub recoveries: u64,
    /// Park transitions (preemption, backpressure, or migration export)
    /// executed on this shard.
    pub preemptions: u64,
    /// Streams adopted from the migration board.
    pub migrations_in: u64,
    /// Streams shipped to the migration board.
    pub migrations_out: u64,
    /// Retired streams' fault ledgers, [`merged`](FtReport::merged): the
    /// per-shard per-site table (`cache_uncorrectable` sums each retired
    /// stream's peak attended poison level).
    pub faults: FtReport,
    /// History tokens re-fed by retired streams' recoveries.
    pub recovery_fed: u64,
    /// Speculative tokens drafted by retired streams.
    pub spec_drafted: u64,
    /// Speculative tokens committed by retired streams.
    pub spec_accepted: u64,
    /// Peak resident cache bytes of this shard's session.
    pub peak_cache_bytes: u64,
    /// Ids of the streams that retired here, in retirement order.
    pub finished_streams: Vec<StreamId>,
}

impl ShardReport {
    fn fold_finished(&mut self, f: &crate::model::FinishedStream) {
        self.streams_finished += 1;
        self.faults = self.faults.merged(&f.attention);
        self.recovery_fed += f.recovery_fed as u64;
        self.spec_drafted += f.spec_drafted;
        self.spec_accepted += f.spec_accepted;
        self.finished_streams.push(f.id);
    }

    fn absorb(&mut self, other: &ShardReport) {
        self.streams_finished += other.streams_finished;
        self.tokens_emitted += other.tokens_emitted;
        self.recoveries += other.recoveries;
        self.preemptions += other.preemptions;
        self.migrations_in += other.migrations_in;
        self.migrations_out += other.migrations_out;
        self.faults = self.faults.merged(&other.faults);
        self.recovery_fed += other.recovery_fed;
        self.spec_drafted += other.spec_drafted;
        self.spec_accepted += other.spec_accepted;
        self.peak_cache_bytes += other.peak_cache_bytes;
        self.finished_streams
            .extend_from_slice(&other.finished_streams);
    }
}

impl fmt::Display for ShardReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} streams, {} tok, {} recoveries, {} parks, {} in/{} out, \
             det {} rep {} unc {}, spec {}/{}, peak {} B",
            self.shard,
            self.streams_finished,
            self.tokens_emitted,
            self.recoveries,
            self.preemptions,
            self.migrations_in,
            self.migrations_out,
            self.faults.total_detected(),
            self.faults.total_repaired(),
            self.faults.cache_uncorrectable,
            self.spec_accepted,
            self.spec_drafted,
            self.peak_cache_bytes,
        )
    }
}

/// Per-shard ledgers of one fleet run, plus the fleet-level admission
/// count. The roll-up is lossless: [`total`](FleetReport::total) is a
/// plain per-counter sum over [`shards`](FleetReport::shards).
#[derive(Clone, Debug, Default)]
pub struct FleetReport {
    /// One ledger per shard, indexed by [`ShardId`].
    pub shards: Vec<ShardReport>,
    /// Streams admitted through the router.
    pub streams_submitted: u64,
}

impl FleetReport {
    /// Sum the per-shard ledgers into one fleet-level row. The synthetic
    /// row carries `ShardId(shards.len())`; `peak_cache_bytes` is the sum
    /// of per-shard peaks (an upper bound on the fleet-wide peak, since
    /// shards do not peak simultaneously), and `finished_streams` is the
    /// concatenation sorted by id.
    pub fn total(&self) -> ShardReport {
        let mut out = ShardReport {
            shard: ShardId(self.shards.len()),
            ..ShardReport::default()
        };
        for s in &self.shards {
            out.absorb(s);
        }
        out.finished_streams.sort_unstable();
        out
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fleet: {} streams submitted", self.streams_submitted)?;
        for s in &self.shards {
            writeln!(f, "  {s}")?;
        }
        write!(f, "  total: {}", self.total())
    }
}

/// Why [`Fleet::try_submit`] refused a request. Checked on the submitting
/// thread: a request a shard cannot serve never reaches one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The prompt has no token to prefill.
    EmptyPrompt,
    /// The prompt alone exceeds the model's context.
    PromptTooLong {
        /// Prompt tokens submitted.
        len: usize,
        /// The model's `max_seq`.
        max_seq: usize,
    },
    /// A sliding window of zero rows attends nothing.
    ZeroWindow,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::EmptyPrompt => write!(f, "a stream needs at least one prompt token"),
            SubmitError::PromptTooLong { len, max_seq } => {
                write!(f, "prompt of {len} tokens exceeds max_seq {max_seq}")
            }
            SubmitError::ZeroWindow => write!(f, "a zero-row window cannot serve decode"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A request plus the router's pre-allocated id, event sender, and
/// projected cache footprint, as shipped over a shard's submission
/// channel.
enum Command {
    Submit {
        id: StreamId,
        req: GenerationRequest,
        events: SyncSender<EngineEvent>,
        projection: u64,
    },
}

/// Worker-side event queue of one stream: everything the bounded channel
/// could not absorb yet, plus the stream's routing projection (released
/// when it retires or migrates). Migration ships the whole outbox, so
/// buffered events stay ordered across the move.
struct Outbox {
    tx: SyncSender<EngineEvent>,
    buf: VecDeque<EngineEvent>,
    /// See [`Outbox::bound`].
    bound: usize,
    finished: bool,
    dead: bool,
    projection: u64,
}

impl Outbox {
    /// Most events `buf` can hold. The scheduler stops producing for a
    /// stream whose backlog is non-empty, so between a plan that saw it
    /// empty and the next drain a stream emits one admission cycle's events:
    ///
    /// * `Resumed`, if that plan admitted it;
    /// * per sweep up to four lifecycle events (`FaultCorrected`,
    ///   `EvictedBlocks`, `CachePoisoned`, `Recovering`): that plan's sweep,
    ///   then — blocked — only the sweeps finishing the prefill it is in,
    ///   `⌈total / prefill_chunk⌉`, restarted by ≤ `max_attempts` recoveries;
    /// * the `1 + draft_len` tokens of the one sweep that samples (a
    ///   blocked stream past its prefill is not fed again);
    /// * `Finished`, or the `Preempted` of the park a blocked stream is
    ///   first in line for — after which it waits, silent, unadmitted.
    fn bound(req: &GenerationRequest, max_seq: usize, prefill_chunk: usize) -> usize {
        let total = (req.prompt.len().saturating_add(req.max_new_tokens)).min(max_seq);
        let attempts = match req.recovery {
            RecoveryPolicy::None => 0,
            RecoveryPolicy::ReprefillBounded { max_attempts }
            | RecoveryPolicy::ReprefillPartial { max_attempts } => max_attempts as usize,
        };
        let sweeps = 1 + (1 + attempts) * total.div_ceil(prefill_chunk);
        let draft_len = req.speculation.as_ref().map_or(0, |sp| sp.draft_len);
        1 + 4 * sweeps + (1 + draft_len) + 1
    }

    /// Push as much buffered backlog into the channel as fits.
    fn flush(&mut self) {
        while let Some(&ev) = self.buf.front() {
            match self.tx.try_send(ev) {
                Ok(()) => {
                    self.buf.pop_front();
                }
                Err(TrySendError::Full(_)) => return,
                Err(TrySendError::Disconnected(_)) => {
                    // Consumer dropped its handle: discard the backlog and
                    // stop routing to this stream. The outbox itself stays
                    // until the stream retires — it carries the projection.
                    self.dead = true;
                    self.buf.clear();
                    return;
                }
            }
        }
    }

    /// Undelivered events remain and the consumer is still attached.
    fn blocked(&self) -> bool {
        !self.dead && !self.buf.is_empty()
    }

    fn push(&mut self, ev: EngineEvent) {
        if self.dead {
            return;
        }
        if matches!(ev, EngineEvent::Finished { .. }) {
            self.finished = true;
        }
        self.buf.push_back(ev);
        self.flush();
        assert!(
            self.buf.len() <= self.bound,
            "{}: {} undelivered events exceed one admission cycle's {}",
            ev.stream(),
            self.buf.len(),
            self.bound
        );
    }
}

/// A parked/queued stream in flight between shards: scheduler state (the
/// full ledger — tokens, recoveries, priority, speculation counters and
/// the stream's one fault ledger, `state.report`) and the consumer's
/// outbox. No cache — the thief rebuilds it by chunked re-prefill.
struct Migrant {
    state: StreamState,
    outbox: Outbox,
    /// The donor, which may take the stream back only when no peer is
    /// hungry ([`may_adopt`]).
    from: ShardId,
}

/// State shared by the router and every shard worker.
struct FleetShared {
    /// Projected cache bytes per shard (admission-time projections, held
    /// until the stream retires or migrates away).
    loads: Vec<AtomicU64>,
    /// Per shard: idle and advertising for work. The shard sets and clears
    /// its own flag; the router clears it when it routes work there.
    /// Advisory, like `loads` (a stale read can delay or misdirect one
    /// export, never lose or duplicate a stream — the board is under its
    /// mutex), so both are `Relaxed`.
    hungry: Vec<AtomicBool>,
    /// The migration board: parked streams awaiting adoption. Any idle
    /// worker claims from here — the donor only when no peer is hungry
    /// ([`may_adopt`]) — so no migrant is ever stranded
    /// ([`board_step`](FleetShared::board_step)).
    board: Mutex<VecDeque<Migrant>>,
    /// Live per-shard ledgers, refreshed every worker-loop iteration —
    /// the source of [`Fleet::report`] snapshots.
    live: Vec<Mutex<ShardReport>>,
}

/// What an idle shard does after one look at the migration board.
enum BoardStep {
    /// Serve this migrant.
    Adopt(Box<Migrant>),
    /// Nothing to adopt and nothing left to do: leave the loop.
    Exit,
    /// Nothing to adopt now; keep polling.
    Stay,
}

impl FleetShared {
    fn new(workers: usize) -> FleetShared {
        FleetShared {
            loads: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            hungry: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            board: Mutex::new(VecDeque::new()),
            live: (0..workers)
                .map(|s| {
                    Mutex::new(ShardReport {
                        shard: ShardId(s),
                        ..ShardReport::default()
                    })
                })
                .collect(),
        }
    }

    /// One look at the board by idle shard `me`: claim the first migrant
    /// [`may_adopt`] gives it. A `done` shard — channel hung up, every
    /// stream delivered — first clears its hungry flag, so a donor holding
    /// its own export back for this shard takes it back, and exits only
    /// when the board is empty. A hungry flag therefore always belongs to
    /// a shard that will look at the board again, and every migrant is
    /// adopted by a live shard.
    fn board_step(&self, me: ShardId, done: bool) -> BoardStep {
        if done {
            self.hungry[me.0].store(false, Ordering::Relaxed);
        }
        let peer_hungry =
            (self.hungry.iter().enumerate()).any(|(s, h)| s != me.0 && h.load(Ordering::Relaxed));
        let mut board = self.board.lock().unwrap();
        match board
            .iter()
            .position(|m| may_adopt(me, m.from, peer_hungry))
        {
            Some(i) => BoardStep::Adopt(Box::new(board.remove(i).expect("position is in range"))),
            None if done && board.is_empty() => BoardStep::Exit,
            None => BoardStep::Stay,
        }
    }
}

/// Handle to a sharded serving fleet: N worker threads behind one
/// admission router — see the module docs for the invariants.
/// Submissions are non-blocking from any number of caller threads.
///
/// ```no_run
/// use ft_transformer::{
///     BackendKind, Fleet, FleetConfig, GenerationRequest, ModelConfig, TransformerModel,
/// };
///
/// let cfg = ModelConfig {
///     name: "doc",
///     layers: 1,
///     heads: 2,
///     hidden: 16,
///     ffn_dim: 32,
///     vocab: 31,
///     max_seq: 32,
/// };
/// let model = TransformerModel::random(7, cfg, BackendKind::Flash).with_causal(true);
/// let fleet = Fleet::spawn(model, FleetConfig { workers: 4, ..Default::default() });
/// let handles: Vec<_> = (0..64)
///     .map(|i| fleet.submit(GenerationRequest::new(vec![1, 2, i], 8)))
///     .collect();
/// let outcomes: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
/// let report = fleet.shutdown(); // per-shard attribution + lossless total
/// println!("{report}");
/// ```
pub struct Fleet {
    txs: Vec<Option<Sender<Command>>>,
    workers: Vec<Option<thread::JoinHandle<ShardReport>>>,
    shared: Arc<FleetShared>,
    next_id: Arc<AtomicU64>,
    submitted: AtomicU64,
    capacity: usize,
    router: RouterPolicy,
    ring: Vec<(u64, usize)>,
    bytes_per_token: u64,
    window_slack: usize,
    max_seq: usize,
    default_window: Option<usize>,
}

/// Hash points per shard on the consistent-hash ring. Enough that the
/// keyspace split stays within a few percent of even.
const VNODES: usize = 16;

impl Fleet {
    /// Spawn the fleet over an owned model with no fault injection.
    pub fn spawn(model: TransformerModel, cfg: FleetConfig) -> Fleet {
        Fleet::spawn_with(model, cfg, Arc::new(NoFaults))
    }

    /// Spawn the fleet with a shared fault injector: every shard's sweeps
    /// expose cache-resident state and kernel operations to `inj`, and
    /// per-request recovery runs unchanged on whichever shard owns the
    /// stream when the damage is attended.
    pub fn spawn_with(
        model: TransformerModel,
        cfg: FleetConfig,
        inj: Arc<dyn FaultInjector + Send + Sync>,
    ) -> Fleet {
        assert!(cfg.workers > 0, "a fleet needs at least one shard");
        assert!(
            cfg.engine.channel_capacity > 0,
            "a stream needs event capacity"
        );
        // The whole point of the refactor: the model, the sessions, and
        // the injector all cross thread boundaries. Pin it at compile
        // time so a future field can't silently break the fleet.
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<TransformerModel>();
        assert_send::<ServeSession<Arc<TransformerModel>>>();
        assert_send::<Migrant>();

        let model = Arc::new(model);
        let bytes_per_token = (4 * model.config.hidden * model.config.layers) as u64;
        let window_slack = model.blocks.first().map_or(0, |b| b.mha.cache_block);
        let shared = Arc::new(FleetShared::new(cfg.workers));
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        let sweep_workers = cfg
            .shard_threads
            .unwrap_or_else(|| (cores / cfg.workers).max(1));
        let mut txs = Vec::with_capacity(cfg.workers);
        let mut workers = Vec::with_capacity(cfg.workers);
        for s in 0..cfg.workers {
            let (tx, rx) = mpsc::channel();
            let model = Arc::clone(&model);
            let inj = Arc::clone(&inj);
            let shared = Arc::clone(&shared);
            let steal = cfg.steal && cfg.workers > 1;
            let engine_cfg = cfg.engine;
            let worker = thread::Builder::new()
                .name(format!("ft-serve-{}", ShardId(s)))
                .spawn(move || {
                    rayon::set_thread_workers(sweep_workers);
                    worker_loop(ShardId(s), model, engine_cfg, steal, inj, rx, shared)
                })
                .expect("spawn shard worker thread");
            txs.push(Some(tx));
            workers.push(Some(worker));
        }
        let mut ring: Vec<(u64, usize)> = (0..cfg.workers)
            .flat_map(|s| (0..VNODES).map(move |v| (mix64((s as u64) << 32 | v as u64), s)))
            .collect();
        ring.sort_unstable();
        Fleet {
            txs,
            workers,
            shared,
            next_id: Arc::new(AtomicU64::new(0)),
            submitted: AtomicU64::new(0),
            capacity: cfg.engine.channel_capacity,
            router: cfg.router,
            ring,
            bytes_per_token,
            window_slack,
            max_seq: model.config.max_seq,
            default_window: model.window(),
        }
    }

    /// Shards in the fleet.
    pub fn workers(&self) -> usize {
        self.txs.len()
    }

    /// Submit a request and get the stream's event handle. The router
    /// allocates a fleet-unique [`StreamId`], projects the request's
    /// cache footprint, and forwards to the chosen shard. Panics on a
    /// request [`try_submit`](Fleet::try_submit) refuses.
    pub fn submit(&self, req: GenerationRequest) -> StreamHandle {
        self.try_submit(req)
            .unwrap_or_else(|e| panic!("Fleet::submit: {e}"))
    }

    /// [`submit`](Fleet::submit), refusing — here, on the caller's thread —
    /// a request no shard could serve: the session's own asserts would
    /// take down the shard and strand every stream it owns.
    pub fn try_submit(&self, req: GenerationRequest) -> Result<StreamHandle, SubmitError> {
        if req.prompt.is_empty() {
            return Err(SubmitError::EmptyPrompt);
        }
        if req.prompt.len() > self.max_seq {
            return Err(SubmitError::PromptTooLong {
                len: req.prompt.len(),
                max_seq: self.max_seq,
            });
        }
        if req.window == Some(0) {
            return Err(SubmitError::ZeroWindow);
        }
        let id = StreamId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let priority = req.priority;
        let projection = self.project(&req);
        let shard = match self.router {
            RouterPolicy::LeastLoaded => self.least_loaded(),
            RouterPolicy::ConsistentHash => self.hash_shard(&req.prompt),
        };
        self.shared.loads[shard].fetch_add(projection, Ordering::Relaxed);
        self.shared.hungry[shard].store(false, Ordering::Relaxed);
        let (events, handle_rx) = mpsc::sync_channel(self.capacity);
        self.txs[shard]
            .as_ref()
            .expect("submission channels open while the fleet is alive")
            .send(Command::Submit {
                id,
                req,
                events,
                projection,
            })
            .expect("shard worker alive while the fleet is alive");
        Ok(StreamHandle::attach(id, priority, handle_rx))
    }

    /// [`submit`](Fleet::submit) with an explicit priority class
    /// (overrides whatever the request carried).
    pub fn submit_with_priority(&self, req: GenerationRequest, priority: Priority) -> StreamHandle {
        self.submit(req.with_priority(priority))
    }

    /// Admission projection: the same FP16 K+V payload estimate the
    /// shard schedulers use for memory budgeting, capped by the stream's
    /// sliding window (plus one evictable block of slack) when it has
    /// one.
    fn project(&self, req: &GenerationRequest) -> u64 {
        let prompt = req.prompt.len(); // ≤ max_seq: `try_submit` checked
        let rows = prompt + req.max_new_tokens.min(self.max_seq - prompt);
        let rows = match req.window.or(self.default_window) {
            Some(w) => rows.min(w + self.window_slack),
            None => rows,
        };
        (rows as u64).max(1) * self.bytes_per_token
    }

    fn least_loaded(&self) -> usize {
        let mut best = 0usize;
        let mut best_load = u64::MAX;
        for (s, load) in self.shared.loads.iter().enumerate() {
            let l = load.load(Ordering::Relaxed);
            if l < best_load {
                best_load = l;
                best = s;
            }
        }
        best
    }

    fn hash_shard(&self, prompt: &[u32]) -> usize {
        let mut key = 0xA076_1D64_78BD_642Fu64;
        for &t in prompt {
            key = mix64(key ^ t as u64);
        }
        let i = self.ring.partition_point(|&(p, _)| p < key);
        self.ring[i % self.ring.len()].1
    }

    /// Snapshot the live per-shard ledgers without stopping the fleet.
    /// Counters are monotone; a snapshot taken mid-sweep lags that sweep.
    pub fn report(&self) -> FleetReport {
        FleetReport {
            shards: self
                .shared
                .live
                .iter()
                .map(|m| m.lock().unwrap().clone())
                .collect(),
            streams_submitted: self.submitted.load(Ordering::Relaxed),
        }
    }

    /// Hang up the submission channels, wait for every shard to finish
    /// the streams it owns, and fold the final per-shard ledgers into the
    /// fleet report. Only call after draining (or dropping) all handles —
    /// a blocked consumer would leave its shard, and hence this join,
    /// waiting on it.
    pub fn shutdown(mut self) -> FleetReport {
        for tx in &mut self.txs {
            *tx = None;
        }
        let shards = self
            .workers
            .iter_mut()
            .map(|w| {
                w.take()
                    .expect("worker joined once")
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p))
            })
            .collect();
        FleetReport {
            shards,
            streams_submitted: self.submitted.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Fleet {
    /// Hang up the submission channels and detach: shards finish their
    /// remaining streams in the background (handles stay valid) and exit.
    fn drop(&mut self) {
        for tx in &mut self.txs {
            *tx = None;
        }
        for w in &mut self.workers {
            drop(w.take());
        }
    }
}

/// SplitMix64 — the same mixer the deterministic sampler uses, local so
/// the router cannot drift from a private helper elsewhere.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// How long an idle shard, woken by a submission, keeps receiving before it
/// sweeps: submissions sent together — a burst, a closed loop's wave — then
/// enter the same first sweep. Without the wait the first one races the
/// caller's next `submit` into a sweep of its own, and the rest of the
/// burst waits that sweep out or not, depending on thread wake-up order.
/// Each arrival restarts the wait, up to [`GATHER_MAX`] in all.
const ARRIVAL_GAP: Duration = Duration::from_micros(200);
/// Upper bound on an idle shard's whole gathering wait, so a steady stream
/// of submissions cannot hold its first sweep back.
const GATHER_MAX: Duration = Duration::from_millis(2);

/// Receive the rest of a burst after an idle shard took its first
/// submission: every command that arrives within [`ARRIVAL_GAP`] of the
/// last one, for at most [`GATHER_MAX`]. A hang-up ends the wait; the
/// loop's next drain sees it.
fn gather(rx: &Receiver<Command>, mut accept: impl FnMut(Command)) {
    let deadline = Instant::now() + GATHER_MAX;
    while let Some(left) = deadline.checked_duration_since(Instant::now()) {
        match rx.recv_timeout(left.min(ARRIVAL_GAP)) {
            Ok(cmd) => accept(cmd),
            Err(_) => return,
        }
    }
}

/// One shard's serving loop — a pump: submissions in, one blocked/unblocked
/// fact per stream to the session, sweep, events out. It decides nothing
/// about any stream's lifecycle. With stealing on, an idle shard
/// advertises on `shared.hungry`, loaded shards export one stream at a
/// time over `shared.board` ([`export_wanted`]), and every idle shard
/// adopts from the board — a donor its own export only when no peer is
/// hungry ([`may_adopt`]) — so a migrant is never stranded. Runs until the
/// submission channel is hung up, every owned stream has finished with
/// its events delivered (or its consumer gone), and the board is empty
/// ([`FleetShared::board_step`]).
fn worker_loop(
    me: ShardId,
    model: Arc<TransformerModel>,
    cfg: EngineConfig,
    steal: bool,
    inj: Arc<dyn FaultInjector + Send + Sync>,
    rx: Receiver<Command>,
    shared: Arc<FleetShared>,
) -> ShardReport {
    let max_seq = model.config.max_seq;
    let mut session: ServeSession<Arc<TransformerModel>> = ServeSession::new(model, cfg.scheduler);
    let inj: &(dyn FaultInjector + Send + Sync) = &*inj;
    let mut outboxes: BTreeMap<u64, Outbox> = BTreeMap::new();
    let mut report = ShardReport {
        shard: me,
        ..ShardReport::default()
    };
    let mut open = true;
    let set_hungry = |hungry: bool| shared.hungry[me.0].store(hungry, Ordering::Relaxed);
    let accept = |cmd: Command,
                  session: &mut ServeSession<Arc<TransformerModel>>,
                  outboxes: &mut BTreeMap<u64, Outbox>| {
        let Command::Submit {
            id,
            req,
            events,
            projection,
        } = cmd;
        let bound = Outbox::bound(&req, max_seq, cfg.scheduler.prefill_chunk);
        session.submit_request_with_id(req, id);
        outboxes.insert(
            id.0,
            Outbox {
                tx: events,
                buf: VecDeque::new(),
                bound,
                finished: false,
                dead: false,
                projection,
            },
        );
    };
    // An idle shard's wake-up submission, and the rest of its burst.
    let admit = |cmd: Command,
                 session: &mut ServeSession<Arc<TransformerModel>>,
                 outboxes: &mut BTreeMap<u64, Outbox>| {
        accept(cmd, session, outboxes);
        gather(&rx, |cmd| accept(cmd, session, outboxes));
    };
    loop {
        // Drain submissions without blocking the sweep cadence.
        while open {
            match rx.try_recv() {
                Ok(cmd) => accept(cmd, &mut session, &mut outboxes),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => open = false,
            }
        }
        // Retry backlogs, and tell the scheduler which consumers still
        // owe a drain; the next plan acts on it.
        for (id, ob) in outboxes.iter_mut() {
            ob.flush();
            session.set_blocked(StreamId(*id), ob.blocked());
        }
        // Retired-and-delivered (or abandoned) streams need no routing.
        // An abandoned (dead) outbox stays until its stream retires — it
        // still carries the stream's routing projection.
        outboxes.retain(|_, ob| !(ob.finished && (ob.dead || ob.buf.is_empty())));
        if session.idle() {
            // Idle shard: adopt a migrant if one is posted and the rule
            // lets this shard have it; leave once nothing is left anywhere.
            // (Without stealing the board stays empty.)
            let done = !open && outboxes.is_empty();
            match shared.board_step(me, done) {
                BoardStep::Adopt(m) => {
                    set_hungry(false);
                    shared.loads[me.0].fetch_add(m.outbox.projection, Ordering::Relaxed);
                    report.migrations_in += 1;
                    outboxes.insert(m.state.id.0, m.outbox);
                    session.adopt_stream(m.state);
                    publish(&shared, me, &report);
                    continue;
                }
                BoardStep::Exit => {
                    report.peak_cache_bytes = session.peak_cache_bytes();
                    publish(&shared, me, &report);
                    return report;
                }
                BoardStep::Stay if done => {
                    // This shard's own export, held back for a hungry
                    // peer: wait until the peer takes it or leaves.
                    thread::sleep(Duration::from_millis(1));
                    continue;
                }
                BoardStep::Stay => {}
            }
            if outboxes.is_empty() {
                if steal {
                    // Advertise for work (again, if the router cleared the
                    // flag for a submission not yet received — the load it
                    // added keeps donors off), then poll submissions and
                    // the board together (a board post cannot wake a
                    // blocked recv).
                    set_hungry(true);
                    match rx.recv_timeout(Duration::from_millis(1)) {
                        Ok(cmd) => admit(cmd, &mut session, &mut outboxes),
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => open = false,
                    }
                } else {
                    // Nothing can migrate in: block until the next
                    // submission.
                    match rx.recv() {
                        Ok(cmd) => admit(cmd, &mut session, &mut outboxes),
                        Err(_) => open = false,
                    }
                }
                continue;
            }
            // All streams retired but some consumers have not absorbed
            // their final events yet: wait on them (and on new work).
            if open {
                match rx.recv_timeout(Duration::from_millis(1)) {
                    Ok(cmd) => admit(cmd, &mut session, &mut outboxes),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => open = false,
                }
            } else {
                thread::sleep(Duration::from_millis(1));
            }
            continue;
        }
        set_hungry(false);
        let events = session.sweep_events(&inj);
        let swept = !events.is_empty();
        route(events, &mut outboxes, &mut report);
        // Fold retirements into the shard ledger and release their
        // routing projections.
        for f in session.take_finished() {
            if let Some(ob) = outboxes.get_mut(&f.id.0) {
                shared.loads[me.0].fetch_sub(ob.projection, Ordering::Relaxed);
                ob.projection = 0;
                // A dead outbox never sees its Finished event; mark it
                // done here so the retain above can drop it.
                ob.finished = true;
            }
            report.fold_finished(&f);
        }
        // Work export, decided on the state this sweep left (its
        // retirements gone, its arrivals served once where the router put
        // them): a peer with nothing in flight is hungry and the board is
        // clear — post one stream. Keep at least one for ourselves.
        if steal
            && session.active_streams() + session.pending_streams() >= 2
            && export_wanted(
                me,
                (shared.hungry.iter().zip(&shared.loads))
                    .map(|(h, l)| (h.load(Ordering::Relaxed), l.load(Ordering::Relaxed))),
            )
            && shared.board.lock().unwrap().is_empty()
        {
            donate(me, &mut session, &mut outboxes, &mut report, &shared);
        }
        report.peak_cache_bytes = session.peak_cache_bytes();
        publish(&shared, me, &report);
        if !swept {
            // Every stream is waiting on its consumer: yield briefly
            // instead of spinning on empty plans.
            thread::sleep(Duration::from_micros(200));
        }
    }
}

/// Export the stream the scheduler gives away to the migration board:
/// route its park's `Preempted` event (if it held a slot) to its own
/// outbox *before* the move, and ship scheduler state + outbox.
fn donate(
    me: ShardId,
    session: &mut ServeSession<Arc<TransformerModel>>,
    outboxes: &mut BTreeMap<u64, Outbox>,
    report: &mut ShardReport,
    shared: &FleetShared,
) {
    let Some(state) = session.export_stream() else {
        return;
    };
    route(session.drain_events(), outboxes, report);
    let Some(outbox) = outboxes.remove(&state.id.0) else {
        // Unreachable in practice: every accepted stream has an outbox
        // until it retires. Re-adopt rather than lose the stream.
        session.adopt_stream(state);
        return;
    };
    shared.loads[me.0].fetch_sub(outbox.projection, Ordering::Relaxed);
    report.migrations_out += 1;
    shared.board.lock().unwrap().push_back(Migrant {
        state,
        outbox,
        from: me,
    });
}

/// The export rule, over every shard's `(hungry, load)`: post a stream
/// only for a peer that is hungry **and** has no load routed to it. The
/// router clears a shard's flag when it routes there, but the shard can
/// re-mark itself before it has received that work; the load the router
/// added first still shows the work in flight, so a donor never hands a
/// stream to a shard already busy with its own.
fn export_wanted(me: ShardId, shards: impl IntoIterator<Item = (bool, u64)>) -> bool {
    (shards.into_iter().enumerate()).any(|(s, (hungry, load))| s != me.0 && hungry && load == 0)
}

/// The adopt rule: an idle shard takes a migrant it exported itself only
/// when no peer is hungry. A hungry peer polls the board and will take it,
/// so a steal is never undone by its donor; with no peer hungry the donor
/// takes it back, so the board always drains.
fn may_adopt(me: ShardId, from: ShardId, peer_hungry: bool) -> bool {
    from != me || !peer_hungry
}

/// Route a batch of session events into the per-stream outboxes and count
/// the event-level ledgers (tokens, recoveries, parks) for this shard.
fn route(events: Vec<EngineEvent>, outboxes: &mut BTreeMap<u64, Outbox>, report: &mut ShardReport) {
    for ev in events {
        match ev {
            EngineEvent::TokenEmitted { .. } => report.tokens_emitted += 1,
            EngineEvent::Recovering { .. } => report.recoveries += 1,
            EngineEvent::Preempted { .. } => report.preemptions += 1,
            _ => {}
        }
        if let Some(ob) = outboxes.get_mut(&ev.stream().0) {
            ob.push(ev);
        }
    }
}

/// Refresh this shard's live ledger snapshot (the [`Fleet::report`]
/// source).
fn publish(shared: &FleetShared, me: ShardId, report: &ShardReport) {
    *shared.live[me.0].lock().unwrap() = report.clone();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_and_report_display() {
        assert_eq!(format!("{}", ShardId(3)), "shard3");
        let mut fr = FleetReport {
            shards: vec![
                ShardReport {
                    shard: ShardId(0),
                    streams_finished: 2,
                    tokens_emitted: 10,
                    ..ShardReport::default()
                },
                ShardReport {
                    shard: ShardId(1),
                    streams_finished: 1,
                    tokens_emitted: 5,
                    recoveries: 1,
                    ..ShardReport::default()
                },
            ],
            streams_submitted: 3,
        };
        fr.shards[0].finished_streams = vec![StreamId(2), StreamId(0)];
        fr.shards[1].finished_streams = vec![StreamId(1)];
        let total = fr.total();
        assert_eq!(total.shard, ShardId(2), "synthetic total row");
        assert_eq!(total.streams_finished, 3);
        assert_eq!(total.tokens_emitted, 15);
        assert_eq!(total.recoveries, 1);
        assert_eq!(
            total.finished_streams,
            vec![StreamId(0), StreamId(1), StreamId(2)],
            "total concatenates sorted by id"
        );
        let text = format!("{fr}");
        assert!(text.contains("shard0:"), "{text}");
        assert!(text.contains("shard1:"), "{text}");
        assert!(text.contains("3 streams submitted"), "{text}");
        assert!(text.contains("total:"), "{text}");
    }

    #[test]
    fn export_goes_only_to_a_hungry_peer_with_nothing_in_flight() {
        // Shard 1 idles and advertises; shard 0 is loaded.
        let mut shards = [(false, 4096u64), (true, 0)];
        assert!(export_wanted(ShardId(0), shards));
        assert!(!export_wanted(ShardId(1), shards), "never to itself");
        // The router routes a stream to shard 1: load first, then the flag.
        shards[1] = (false, 512);
        assert!(!export_wanted(ShardId(0), shards));
        // Shard 1 polls again before its channel delivers the stream and
        // re-marks itself; the load still says work is in flight.
        shards[1].0 = true;
        assert!(!export_wanted(ShardId(0), shards));
        // It serves and retires the stream: hungry with nothing in flight.
        shards[1].1 = 0;
        assert!(export_wanted(ShardId(0), shards));
    }

    #[test]
    fn a_donor_takes_back_its_export_only_when_no_peer_is_hungry() {
        // Shard 0 exported for hungry shard 1, then went idle itself
        // before shard 1 polled the board: it must leave the migrant.
        assert!(!may_adopt(ShardId(0), ShardId(0), true));
        assert!(may_adopt(ShardId(1), ShardId(0), true));
        // Shard 1 got other work meanwhile and is no longer hungry: the
        // donor takes the stream back, so the board drains.
        assert!(may_adopt(ShardId(0), ShardId(0), false));
        assert!(may_adopt(ShardId(1), ShardId(0), false));
    }

    /// A migrant of one queued stream, exported by shard `from`.
    fn migrant(from: usize) -> Migrant {
        let mut sched = ft_core::serve::DecodeScheduler::new(Default::default());
        sched.submit_request(GenerationRequest::new(vec![1, 2], 1));
        let (tx, _) = mpsc::sync_channel(1);
        Migrant {
            state: sched.export().expect("a queued stream exports"),
            outbox: Outbox {
                tx,
                buf: VecDeque::new(),
                bound: 1,
                finished: false,
                dead: false,
                projection: 0,
            },
            from: ShardId(from),
        }
    }

    #[test]
    fn a_leaving_shard_never_strands_a_migrant() {
        // Shard 1 is hungry; loaded shard 0 reads its flag and decides to
        // export.
        let shared = FleetShared::new(2);
        shared.hungry[1].store(true, Ordering::Relaxed);
        let flags = (shared.hungry.iter().zip(&shared.loads))
            .map(|(h, l)| (h.load(Ordering::Relaxed), l.load(Ordering::Relaxed)));
        assert!(export_wanted(ShardId(0), flags));
        // Shard 1 loses its channel and looks at the still-empty board. It
        // clears its flag first, so nothing can be held back for it.
        assert!(matches!(
            shared.board_step(ShardId(1), true),
            BoardStep::Exit
        ));
        assert!(!shared.hungry[1].load(Ordering::Relaxed));
        // Shard 0 posts anyway (it read the flag before the clear), then
        // finishes its last stream and leaves too: with no peer hungry it
        // takes its export back instead of exiting over it.
        shared.board.lock().unwrap().push_back(migrant(0));
        let BoardStep::Adopt(m) = shared.board_step(ShardId(0), true) else {
            panic!("the donor must take back an export no live peer wants");
        };
        assert_eq!(m.from, ShardId(0));
        assert!(matches!(
            shared.board_step(ShardId(0), true),
            BoardStep::Exit
        ));
    }

    #[test]
    fn a_donor_waits_for_a_hungry_peer_before_leaving() {
        // Shard 0 exported for hungry shard 1 and has nothing else left:
        // it may neither take the stream back nor exit over it.
        let shared = FleetShared::new(2);
        shared.hungry[1].store(true, Ordering::Relaxed);
        shared.board.lock().unwrap().push_back(migrant(0));
        assert!(matches!(
            shared.board_step(ShardId(0), true),
            BoardStep::Stay
        ));
        // Shard 1 loses its channel before its next poll; leaving, it
        // still adopts the migrant rather than exit over it.
        let BoardStep::Adopt(m) = shared.board_step(ShardId(1), true) else {
            panic!("a leaving shard must adopt a peer's export");
        };
        assert_eq!(m.from, ShardId(0));
        assert!(!shared.hungry[1].load(Ordering::Relaxed));
        assert!(matches!(
            shared.board_step(ShardId(0), true),
            BoardStep::Exit
        ));
    }

    #[test]
    fn an_idle_shard_gathers_a_burst_before_it_sweeps() {
        let submit = |tx: &Sender<Command>, id: u64| {
            let (events, _) = mpsc::sync_channel(1);
            tx.send(Command::Submit {
                id: StreamId(id),
                req: GenerationRequest::new(vec![1, 2], 1),
                events,
                projection: 0,
            })
            .unwrap();
        };
        let ids = |rx: &Receiver<Command>| {
            let mut got = Vec::new();
            gather(rx, |Command::Submit { id, .. }| got.push(id.0));
            got
        };
        // The rest of a burst already queued behind the wake-up submission:
        // all of it is taken, in order, with the caller still connected.
        let (tx, rx) = mpsc::channel();
        (1..4).for_each(|id| submit(&tx, id));
        assert_eq!(ids(&rx), [1, 2, 3]);
        // A hang-up ends the wait once the queue is drained.
        submit(&tx, 4);
        drop(tx);
        assert_eq!(ids(&rx), [4]);
    }

    #[test]
    fn consistent_hash_ring_is_stable_and_complete() {
        // Every shard owns part of the keyspace, identical prompts map to
        // identical shards, and different prompts spread.
        let mut ring: Vec<(u64, usize)> = (0..4usize)
            .flat_map(|s| (0..VNODES).map(move |v| (mix64((s as u64) << 32 | v as u64), s)))
            .collect();
        ring.sort_unstable();
        let fleet_shards = |prompt: &[u32]| {
            let mut key = 0xA076_1D64_78BD_642Fu64;
            for &t in prompt {
                key = mix64(key ^ t as u64);
            }
            let i = ring.partition_point(|&(p, _)| p < key);
            ring[i % ring.len()].1
        };
        let mut hit = [false; 4];
        for p in 0..256u32 {
            let prompt = [p, p.wrapping_mul(7), 3];
            let s = fleet_shards(&prompt);
            assert_eq!(s, fleet_shards(&prompt), "stable routing");
            hit[s] = true;
        }
        assert!(hit.iter().all(|&h| h), "every shard owns keyspace: {hit:?}");
    }
}
